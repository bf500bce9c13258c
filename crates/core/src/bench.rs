//! Offline micro-benchmark harness for campaign timing.
//!
//! The workspace must build without a registry, so this is a small
//! hand-rolled alternative to criterion: median-of-k wall-clock timing
//! plus a JSON writer for `BENCH_campaign.json`. The schema per record is
//! `{name, threads, wall_ms, points, newton_iters, cache_hit_rate,
//! disk_hit_rate, lu_reuse_rate, bypass_hit_rate, dedup_waits,
//! serve_p99_ms, cross_design_dedup_rate}` — enough for CI to trend
//! campaign throughput, the evaluation-cache and persistent-store payoff,
//! the solver's LU-reuse and device-bypass rates, serving tail latency,
//! the multi-design dedup payoff, and for the bench example to assert
//! serial/parallel equivalence.

use std::time::Instant;

/// One timed campaign configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Scenario label, e.g. `"plane_campaign/serial-cold"`.
    pub name: String,
    /// Worker threads the scenario ran with.
    pub threads: usize,
    /// Median wall-clock time over the repeats, in milliseconds.
    pub wall_ms: f64,
    /// Sweep points the campaign evaluated.
    pub points: usize,
    /// Total Newton iterations the campaign spent.
    pub newton_iters: usize,
    /// Fraction of simulation requests answered by the evaluation cache
    /// (`0.0` for a cold run on a fresh service).
    pub cache_hit_rate: f64,
    /// Fraction of simulation requests served from the persistent store's
    /// disk tier (`0.0` when no store is attached).
    pub disk_hit_rate: f64,
    /// Fraction of Newton iterations that reused the previous LU
    /// factorization.
    pub lu_reuse_rate: f64,
    /// Fraction of device evaluations answered from the bypass cache.
    pub bypass_hit_rate: f64,
    /// Requests that blocked on an identical in-flight computation.
    pub dedup_waits: usize,
    /// Interactive-class p99 latency under the replayed mixed service
    /// workload, in milliseconds (`0.0` for scenarios that never touch
    /// the daemon).
    pub serve_p99_ms: f64,
    /// Fraction of the scenario's campaigns whose healthy-reference grid
    /// was answered from another design's results (`0.0` for
    /// single-design scenarios).
    pub cross_design_dedup_rate: f64,
}

/// Runs `f` `repeats` times (at least once) and returns the median
/// wall-clock milliseconds together with the last result.
pub fn median_of<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let repeats = repeats.max(1);
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let out = f();
        times.push(start.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let median = if times.len() % 2 == 1 {
        times[times.len() / 2]
    } else {
        (times[times.len() / 2 - 1] + times[times.len() / 2]) / 2.0
    };
    let Some(last) = last else {
        unreachable!("repeats >= 1 guarantees at least one run")
    };
    (median, last)
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes bench records as a pretty-printed JSON array (stable field
/// order matching the documented schema).
pub fn to_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"threads\": {}, \"wall_ms\": {:.3}, \"points\": {}, \
             \"newton_iters\": {}, \"cache_hit_rate\": {:.3}, \"disk_hit_rate\": {:.3}, \
             \"lu_reuse_rate\": {:.3}, \"bypass_hit_rate\": {:.3}, \"dedup_waits\": {}, \
             \"serve_p99_ms\": {:.3}, \"cross_design_dedup_rate\": {:.3}}}",
            escape_json(&r.name),
            r.threads,
            r.wall_ms,
            r.points,
            r.newton_iters,
            r.cache_hit_rate,
            r.disk_hit_rate,
            r.lu_reuse_rate,
            r.bypass_hit_rate,
            r.dedup_waits,
            r.serve_p99_ms,
            r.cross_design_dedup_rate
        ));
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out.push('\n');
    out
}

/// Derived perf figures gated against `BENCH_baseline.json` in CI.
///
/// Raw wall-clock times are useless as a committed baseline — CI runners
/// and dev machines differ wildly — so the gate compares *derived* ratios
/// that are stable across hosts:
///
/// * `warm_iter_saving` — fraction of Newton iterations the warm-start
///   path saves over cold starts. Fully deterministic (iteration counts,
///   not time).
/// * `speedup_per_core` — parallel speedup of the widest scenario divided
///   by the cores that could actually serve it
///   (`min(threads, available_parallelism)`), i.e. per-core scaling
///   efficiency in `(0, 1]`.
/// * `cross_design_dedup_rate` — fraction of the multi-design scenario's
///   campaigns whose healthy-reference grid was answered from another
///   design's results. Fully deterministic (plan-fingerprint collisions,
///   not time).
/// * `serve_p99_ms` — interactive-class p99 latency of the replayed
///   mixed service workload (daemon queries preempting a bulk campaign).
///   The one lower-is-better figure: the gate trips when the *current*
///   value exceeds the baseline by more than the tolerance.
///
/// Refresh after an intentional perf change with:
///
/// ```text
/// cargo run --release --example bench_campaign -- --write-baseline
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchBaseline {
    /// Fraction of Newton iterations saved by warm starts (deterministic).
    pub warm_iter_saving: f64,
    /// Parallel speedup per effective core (wall-clock derived).
    pub speedup_per_core: f64,
    /// Fraction of multi-design campaigns sharing a healthy-reference
    /// grid (deterministic).
    pub cross_design_dedup_rate: f64,
    /// Interactive-class p99 of the replayed service workload, in
    /// milliseconds (wall-clock derived; lower is better).
    pub serve_p99_ms: f64,
}

impl BenchBaseline {
    /// Serializes the baseline in the committed `BENCH_baseline.json`
    /// format.
    pub fn to_json(&self) -> String {
        use dso_obs::json::Json;
        use std::collections::BTreeMap;
        let mut doc = Json::Obj(BTreeMap::from([
            ("schema".to_string(), Json::Num(1.0)),
            (
                "warm_iter_saving".to_string(),
                Json::Num(self.warm_iter_saving),
            ),
            (
                "speedup_per_core".to_string(),
                Json::Num(self.speedup_per_core),
            ),
            (
                "cross_design_dedup_rate".to_string(),
                Json::Num(self.cross_design_dedup_rate),
            ),
            ("serve_p99_ms".to_string(), Json::Num(self.serve_p99_ms)),
        ]))
        .to_string();
        doc.push('\n');
        doc
    }

    /// Parses a `BENCH_baseline.json` document.
    ///
    /// # Errors
    ///
    /// Returns a rendered message for malformed JSON or missing fields.
    pub fn from_json(text: &str) -> Result<BenchBaseline, String> {
        use dso_obs::json::Json;
        let doc = Json::parse(text.trim()).map_err(|e| e.to_string())?;
        let field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("baseline missing numeric {name:?}"))
        };
        Ok(BenchBaseline {
            warm_iter_saving: field("warm_iter_saving")?,
            speedup_per_core: field("speedup_per_core")?,
            cross_design_dedup_rate: field("cross_design_dedup_rate")?,
            serve_p99_ms: field("serve_p99_ms")?,
        })
    }

    /// Compares `current` against this baseline: any figure that fell by
    /// more than `tolerance` (fractional, e.g. `0.25`) is a regression.
    /// Returns one message per regressed figure (empty = gate passes);
    /// improvements never fail.
    pub fn regressions(&self, current: &BenchBaseline, tolerance: f64) -> Vec<String> {
        let mut out = Vec::new();
        let mut gate = |name: &str, base: f64, cur: f64| {
            if base > 0.0 && cur < base * (1.0 - tolerance) {
                out.push(format!(
                    "{name} regressed {:.1}% (baseline {base:.3}, current {cur:.3}, \
                     tolerance {:.0}%)",
                    100.0 * (1.0 - cur / base),
                    100.0 * tolerance
                ));
            }
        };
        gate(
            "warm-start Newton-iteration saving",
            self.warm_iter_saving,
            current.warm_iter_saving,
        );
        gate(
            "parallel speedup per core",
            self.speedup_per_core,
            current.speedup_per_core,
        );
        gate(
            "cross-design healthy-reference dedup rate",
            self.cross_design_dedup_rate,
            current.cross_design_dedup_rate,
        );
        // Latency gates invert: the figure is lower-is-better, so the
        // regression is the current value *exceeding* the baseline.
        let mut gate_upper = |name: &str, base: f64, cur: f64| {
            if base > 0.0 && cur > base * (1.0 + tolerance) {
                out.push(format!(
                    "{name} regressed {:.1}% (baseline {base:.3}, current {cur:.3}, \
                     tolerance {:.0}%)",
                    100.0 * (cur / base - 1.0),
                    100.0 * tolerance
                ));
            }
        };
        gate_upper(
            "interactive serving p99 latency",
            self.serve_p99_ms,
            current.serve_p99_ms,
        );
        out
    }
}

/// The cores that can actually serve `threads` workers:
/// `min(threads, available_parallelism)`. Normalizing speedup by this
/// keeps `speedup_per_core` comparable between wide dev machines and
/// narrow CI runners.
pub fn effective_cores(threads: usize) -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(threads.max(1))
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        let mut calls = 0;
        let (ms, out) = median_of(3, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 3);
        assert_eq!(out, 3);
        assert!(ms >= 0.0);
        let (_, out) = median_of(0, || 7); // clamped to one repeat
        assert_eq!(out, 7);
    }

    #[test]
    fn json_schema_and_escaping() {
        let records = vec![
            BenchRecord {
                name: "plane_campaign/serial".into(),
                threads: 1,
                wall_ms: 12.3456,
                points: 270,
                newton_iters: 9000,
                cache_hit_rate: 0.0,
                disk_hit_rate: 0.0,
                lu_reuse_rate: 0.0,
                bypass_hit_rate: 0.0,
                dedup_waits: 0,
                serve_p99_ms: 0.0,
                cross_design_dedup_rate: 0.0,
            },
            BenchRecord {
                name: "quote\"tab\t".into(),
                threads: 8,
                wall_ms: 4.0,
                points: 270,
                newton_iters: 9000,
                cache_hit_rate: 0.9876,
                disk_hit_rate: 0.5,
                lu_reuse_rate: 0.6543,
                bypass_hit_rate: 0.25,
                dedup_waits: 3,
                serve_p99_ms: 123.456,
                cross_design_dedup_rate: 0.3333,
            },
        ];
        let json = to_json(&records);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains(
            "{\"name\": \"plane_campaign/serial\", \"threads\": 1, \"wall_ms\": 12.346, \
             \"points\": 270, \"newton_iters\": 9000, \"cache_hit_rate\": 0.000, \
             \"disk_hit_rate\": 0.000, \"lu_reuse_rate\": 0.000, \
             \"bypass_hit_rate\": 0.000, \"dedup_waits\": 0, \"serve_p99_ms\": 0.000, \
             \"cross_design_dedup_rate\": 0.000}"
        ));
        assert!(json.contains(
            "\"cache_hit_rate\": 0.988, \"disk_hit_rate\": 0.500, \
             \"lu_reuse_rate\": 0.654, \"bypass_hit_rate\": 0.250, \"dedup_waits\": 3, \
             \"serve_p99_ms\": 123.456, \"cross_design_dedup_rate\": 0.333"
        ));
        assert!(json.contains("quote\\\"tab\\t"));
        // Exactly one comma separator between the two records.
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn baseline_round_trip_and_gate() {
        let base = BenchBaseline {
            warm_iter_saving: 0.4,
            speedup_per_core: 0.8,
            cross_design_dedup_rate: 0.333,
            serve_p99_ms: 800.0,
        };
        let parsed = BenchBaseline::from_json(&base.to_json()).expect("round trip");
        assert_eq!(parsed, base);

        // Within tolerance (and improvements) pass. The latency figure is
        // lower-is-better, so a faster p99 is an improvement too.
        let ok = BenchBaseline {
            warm_iter_saving: 0.35,
            speedup_per_core: 0.9,
            cross_design_dedup_rate: 0.3,
            serve_p99_ms: 900.0,
        };
        assert!(base.regressions(&ok, 0.25).is_empty());

        // A >25% drop in any figure (rise, for the latency) is called out.
        let bad = BenchBaseline {
            warm_iter_saving: 0.2,
            speedup_per_core: 0.5,
            cross_design_dedup_rate: 0.1,
            serve_p99_ms: 1200.0,
        };
        let msgs = base.regressions(&bad, 0.25);
        assert_eq!(msgs.len(), 4, "{msgs:?}");
        assert!(msgs[0].contains("warm-start"), "{msgs:?}");
        assert!(msgs[1].contains("speedup per core"), "{msgs:?}");
        assert!(msgs[2].contains("cross-design"), "{msgs:?}");
        assert!(msgs[3].contains("p99"), "{msgs:?}");

        // A zeroed latency baseline (no serve scenario yet) never trips.
        let unseeded = BenchBaseline {
            serve_p99_ms: 0.0,
            ..base
        };
        assert_eq!(
            unseeded.regressions(&bad, 0.25).len(),
            3,
            "latency gate armed without a baseline"
        );

        assert!(BenchBaseline::from_json("{}").is_err());
        assert!(BenchBaseline::from_json("nope").is_err());
        assert!(effective_cores(8) >= 1);
        assert_eq!(effective_cores(0), 1);
    }
}
