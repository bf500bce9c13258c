//! Shmoo plots: two-dimensional pass/fail sweeps.
//!
//! Section 2 of the paper describes Shmoo plotting as the traditional way
//! to optimize a pair of stresses: apply a test at every combination of
//! two stress values and record the pass/fail outcome on a grid. This
//! crate implements the plot itself, generic over the pass/fail oracle so
//! it works with the electrical simulator, the behavioral model, or plain
//! closures in tests.
//!
//! # Example
//!
//! ```
//! use dso_shmoo::{ShmooPlot, Outcome};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A toy oracle: passes when x + y is large enough.
//! let plot = ShmooPlot::generate(
//!     "vdd", &[1.0, 2.0, 3.0],
//!     "tcyc", &[1.0, 2.0],
//!     |x, y| Ok::<_, std::convert::Infallible>(x + y > 3.0),
//! )?;
//! assert_eq!(plot.outcome(0, 0), Outcome::Fail);
//! assert_eq!(plot.outcome(2, 1), Outcome::Pass);
//! println!("{}", plot.render_ascii());
//! # Ok(())
//! # }
//! ```

use std::fmt;

/// Pass/fail outcome of one grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The test passed.
    Pass,
    /// The test failed.
    Fail,
}

impl Outcome {
    /// The plot glyph: `+` for pass, `.` for fail (classic Shmoo style).
    pub fn glyph(&self) -> char {
        match self {
            Outcome::Pass => '+',
            Outcome::Fail => '.',
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.glyph())
    }
}

/// A completed Shmoo plot over an `x × y` stress grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ShmooPlot {
    x_label: String,
    y_label: String,
    x_values: Vec<f64>,
    y_values: Vec<f64>,
    /// Row-major: `grid[y][x]`.
    grid: Vec<Vec<Outcome>>,
}

impl ShmooPlot {
    /// Sweeps the oracle over the grid. `oracle(x, y)` returns `true` for
    /// pass.
    ///
    /// # Errors
    ///
    /// Propagates the first oracle error.
    ///
    /// # Panics
    ///
    /// Panics if either axis is empty.
    pub fn generate<E, F>(
        x_label: &str,
        x_values: &[f64],
        y_label: &str,
        y_values: &[f64],
        mut oracle: F,
    ) -> Result<Self, E>
    where
        F: FnMut(f64, f64) -> Result<bool, E>,
    {
        assert!(
            !x_values.is_empty() && !y_values.is_empty(),
            "shmoo axes must be non-empty"
        );
        let mut grid = Vec::with_capacity(y_values.len());
        for &y in y_values {
            let mut row = Vec::with_capacity(x_values.len());
            for &x in x_values {
                row.push(if oracle(x, y)? {
                    Outcome::Pass
                } else {
                    Outcome::Fail
                });
            }
            grid.push(row);
        }
        Ok(ShmooPlot {
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            x_values: x_values.to_vec(),
            y_values: y_values.to_vec(),
            grid,
        })
    }

    /// The x-axis label.
    pub fn x_label(&self) -> &str {
        &self.x_label
    }

    /// The y-axis label.
    pub fn y_label(&self) -> &str {
        &self.y_label
    }

    /// The x-axis values.
    pub fn x_values(&self) -> &[f64] {
        &self.x_values
    }

    /// The y-axis values.
    pub fn y_values(&self) -> &[f64] {
        &self.y_values
    }

    /// Outcome at grid indices `(xi, yi)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn outcome(&self, xi: usize, yi: usize) -> Outcome {
        self.grid[yi][xi]
    }

    /// Fraction of passing grid points.
    pub fn pass_rate(&self) -> f64 {
        let total = self.x_values.len() * self.y_values.len();
        let passes = self
            .grid
            .iter()
            .flatten()
            .filter(|o| **o == Outcome::Pass)
            .count();
        passes as f64 / total as f64
    }

    /// Classic ASCII rendering: y grows upward, `+` pass, `.` fail.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "shmoo: {} (x) vs {} (y)  [+ pass, . fail]\n",
            self.x_label, self.y_label
        ));
        for (yi, row) in self.grid.iter().enumerate().rev() {
            let label = format!("{:>12.4e} |", self.y_values[yi]);
            out.push_str(&label);
            for o in row {
                out.push(' ');
                out.push(o.glyph());
            }
            out.push('\n');
        }
        out.push_str(&format!("{:>12} +", ""));
        for _ in &self.x_values {
            out.push_str("--");
        }
        out.push('\n');
        out.push_str(&format!("{:>14}", ""));
        out.push_str(&format!(
            "x: {:.4e} .. {:.4e}\n",
            self.x_values[0],
            self.x_values[self.x_values.len() - 1]
        ));
        out
    }

    /// CSV rendering: header `y\x` then one row per y value.
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\\{}", self.y_label, self.x_label));
        for x in &self.x_values {
            out.push_str(&format!(",{x:e}"));
        }
        out.push('\n');
        for (yi, row) in self.grid.iter().enumerate() {
            out.push_str(&format!("{:e}", self.y_values[yi]));
            for o in row {
                out.push_str(match o {
                    Outcome::Pass => ",pass",
                    Outcome::Fail => ",fail",
                });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn diagonal_plot() -> ShmooPlot {
        ShmooPlot::generate("x", &[0.0, 1.0, 2.0], "y", &[0.0, 1.0, 2.0], |x, y| {
            Ok::<_, Infallible>(x >= y)
        })
        .unwrap()
    }

    #[test]
    fn grid_outcomes() {
        let plot = diagonal_plot();
        assert_eq!(plot.outcome(0, 0), Outcome::Pass);
        assert_eq!(plot.outcome(0, 2), Outcome::Fail);
        assert_eq!(plot.outcome(2, 2), Outcome::Pass);
        assert_eq!(plot.x_values().len(), 3);
        assert_eq!(plot.y_values().len(), 3);
    }

    #[test]
    fn pass_rate() {
        let plot = diagonal_plot();
        // Passing cells: x >= y on a 3x3 grid => 6 of 9.
        assert!((plot.pass_rate() - 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn ascii_rendering() {
        let plot = diagonal_plot();
        let text = plot.render_ascii();
        assert!(text.contains("shmoo: x (x) vs y (y)"));
        // Highest y row comes first and is mostly failing.
        let first_data_line = text.lines().nth(1).unwrap();
        assert!(first_data_line.contains('.'), "{text}");
        assert!(text.contains('+'));
    }

    #[test]
    fn csv_rendering() {
        let plot = diagonal_plot();
        let csv = plot.render_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("y\\x,"));
        assert!(lines[1].contains("pass"));
        assert!(lines[3].contains("fail"));
    }

    #[test]
    fn oracle_errors_propagate() {
        let result = ShmooPlot::generate("x", &[1.0], "y", &[1.0], |_, _| Err("boom"));
        assert_eq!(result.unwrap_err(), "boom");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_axis_panics() {
        let _ = ShmooPlot::generate("x", &[], "y", &[1.0], |_, _| Ok::<_, Infallible>(true));
    }

    #[test]
    fn outcome_glyphs() {
        assert_eq!(Outcome::Pass.to_string(), "+");
        assert_eq!(Outcome::Fail.glyph(), '.');
    }
}
