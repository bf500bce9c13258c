//! SPICE-deck parser.
//!
//! Parses a practical subset of the classic SPICE netlist format — enough to
//! express the DRAM column and the defect-injection test benches as text:
//!
//! ```text
//! * defective cell bench
//! Vdd vdd 0 DC 2.4
//! Vwl wl 0 PULSE(0 3.6 5n 1n 1n 30n 60n)
//! Rop cell inner 200k
//! Cs inner 0 30f IC=2.4
//! M1 bl wl cell 0 NACC W=1u L=0.3u
//! .model NACC NMOS (VTO=0.55 KP=120u LAMBDA=0.03 GAMMA=0.4 PHI=0.7)
//! .tran 0.1n 60n UIC
//! .ic V(inner)=2.4
//! .temp 27
//! .end
//! ```
//!
//! Supported elements: `R`, `C` (with `IC=`), `V`/`I` (DC, `PULSE`, `PWL`,
//! `SIN`), `M` (with `.model NMOS`/`PMOS` cards), `D`, `S` (switch with
//! inline `RON=`/`ROFF=`/`VT=`), and hierarchical `X` subcircuit
//! instances. Supported directives: `.model`, `.subckt`/`.ends`, `.tran`,
//! `.ic`, `.temp`, `.end`; `*` comments and `+` continuation lines.
//!
//! Subcircuits are flattened at parse time: internal nodes and device
//! names of an instance `Xcell` are prefixed `xcell.`, ports are spliced
//! onto the instance's outer nodes, and nested instances expand
//! recursively (depth-limited to catch recursion).

use crate::circuit::Circuit;
use crate::diode::DiodeModel;
use crate::mos::{MosGeometry, MosModel, MosPolarity};
use crate::units::parse_value;
use crate::waveform::{Exp, Pulse, Waveform};
use crate::SpiceError;
use std::collections::HashMap;

/// A parsed deck: the circuit plus its analysis directives.
#[derive(Debug, Clone)]
pub struct Deck {
    /// Deck title (first line).
    pub title: String,
    /// The parsed circuit.
    pub circuit: Circuit,
    /// `.tran step stop [UIC]`, if present.
    pub tran: Option<TranDirective>,
    /// `.dc SOURCE start stop step`, if present.
    pub dc: Option<DcDirective>,
    /// `.ic V(node)=value` entries.
    pub initial_conditions: Vec<(String, f64)>,
    /// `.temp` in °C, if present.
    pub temperature: Option<f64>,
}

/// The `.tran` directive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranDirective {
    /// Output time step.
    pub step: f64,
    /// Stop time.
    pub stop: f64,
    /// `true` if `UIC` was given (skip the DC operating point).
    pub uic: bool,
}

/// The `.dc SOURCE start stop step` directive.
#[derive(Debug, Clone, PartialEq)]
pub struct DcDirective {
    /// Swept voltage-source name.
    pub source: String,
    /// Sweep start value.
    pub start: f64,
    /// Sweep stop value.
    pub stop: f64,
    /// Sweep increment (positive).
    pub step: f64,
}

impl DcDirective {
    /// The sweep values, inclusive of both ends.
    pub fn values(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let mut v = self.start;
        if self.stop >= self.start {
            while v <= self.stop + 1e-12 * self.step {
                out.push(v);
                v += self.step;
            }
        } else {
            while v >= self.stop - 1e-12 * self.step {
                out.push(v);
                v -= self.step;
            }
        }
        out
    }
}

/// A subcircuit definition collected during the first pass.
#[derive(Debug, Clone)]
struct SubcktDef {
    ports: Vec<String>,
    /// Body element lines with their original line numbers.
    body: Vec<(usize, String)>,
}

/// Node/name mapping for one level of subcircuit expansion.
#[derive(Debug, Clone, Default)]
struct ExpandCtx {
    /// Device-name prefix, e.g. `"xcell."` (empty at top level).
    prefix: String,
    /// Port token → outer node name.
    port_map: HashMap<String, String>,
}

impl ExpandCtx {
    fn map_node(&self, token: &str) -> String {
        let lower = token.to_ascii_lowercase();
        if lower == "0" || lower == "gnd" {
            return token.to_string(); // ground is global
        }
        if let Some(outer) = self.port_map.get(&lower) {
            return outer.clone();
        }
        format!("{}{token}", self.prefix)
    }

    fn map_device(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }
}

/// Maximum subcircuit nesting depth (guards against recursion).
const MAX_SUBCKT_DEPTH: usize = 8;

/// Parses a SPICE deck.
///
/// # Errors
///
/// Returns [`SpiceError::Parse`] with a line number for syntax errors, and
/// the underlying builder errors (duplicate devices, bad parameters) for
/// semantic ones.
///
/// # Example
///
/// ```
/// let deck = dso_spice::netlist::parse(
///     "rc bench\n\
///      V1 in 0 DC 1\n\
///      R1 in out 1k\n\
///      C1 out 0 1n\n\
///      .tran 10n 5u\n\
///      .end\n",
/// )?;
/// assert_eq!(deck.circuit.device_count(), 3);
/// assert!((deck.tran.unwrap().stop - 5e-6).abs() < 1e-12);
/// # Ok::<(), dso_spice::SpiceError>(())
/// ```
pub fn parse(text: &str) -> Result<Deck, SpiceError> {
    // Join continuation lines, remembering original line numbers.
    let mut logical: Vec<(usize, String)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if let Some(cont) = line.strip_prefix('+') {
            match logical.last_mut() {
                Some((_, prev)) => {
                    prev.push(' ');
                    prev.push_str(cont.trim());
                }
                None => {
                    return Err(SpiceError::Parse {
                        line: i + 1,
                        reason: "continuation line with nothing to continue".into(),
                    })
                }
            }
        } else {
            logical.push((i + 1, line.to_string()));
        }
    }

    let title = logical
        .first()
        .map(|(_, l)| l.trim().to_string())
        .unwrap_or_default();

    // First pass: collect .model cards (usable from anywhere) and
    // .subckt definitions (their body lines are excluded from the main
    // pass).
    let mut mos_models: HashMap<String, MosModel> = HashMap::new();
    let mut diode_models: HashMap<String, DiodeModel> = HashMap::new();
    let mut subckts: HashMap<String, SubcktDef> = HashMap::new();
    let mut in_subckt: Option<(String, SubcktDef)> = None;
    let mut subckt_lines: std::collections::HashSet<usize> = std::collections::HashSet::new();
    for (line_no, line) in logical.iter().skip(1) {
        let trimmed = line.trim();
        let lower = trimmed.to_ascii_lowercase();
        if lower.starts_with(".model") {
            parse_model(trimmed, *line_no, &mut mos_models, &mut diode_models)?;
            continue;
        }
        if lower.starts_with(".subckt") {
            if in_subckt.is_some() {
                return Err(SpiceError::Parse {
                    line: *line_no,
                    reason: "nested .subckt definitions are not supported".into(),
                });
            }
            let fields: Vec<&str> = trimmed.split_whitespace().collect();
            if fields.len() < 3 {
                return Err(SpiceError::Parse {
                    line: *line_no,
                    reason: ".subckt expects `.subckt name port1 [port2 …]`".into(),
                });
            }
            let name = fields[1].to_ascii_lowercase();
            let ports = fields[2..].iter().map(|p| p.to_ascii_lowercase()).collect();
            in_subckt = Some((
                name,
                SubcktDef {
                    ports,
                    body: Vec::new(),
                },
            ));
            subckt_lines.insert(*line_no);
            continue;
        }
        if lower.starts_with(".ends") {
            match in_subckt.take() {
                Some((name, def)) => {
                    subckts.insert(name, def);
                }
                None => {
                    return Err(SpiceError::Parse {
                        line: *line_no,
                        reason: ".ends without matching .subckt".into(),
                    })
                }
            }
            subckt_lines.insert(*line_no);
            continue;
        }
        if let Some((_, def)) = in_subckt.as_mut() {
            subckt_lines.insert(*line_no);
            if !trimmed.is_empty() && !trimmed.starts_with('*') {
                def.body.push((*line_no, trimmed.to_string()));
            }
        }
    }
    if let Some((name, _)) = in_subckt {
        return Err(SpiceError::Parse {
            line: 0,
            reason: format!(".subckt `{name}` is never closed with .ends"),
        });
    }

    let mut circuit = Circuit::new();
    let mut tran = None;
    let mut dc = None;
    let mut ics = Vec::new();
    let mut temperature = None;

    for (line_no, line) in logical.iter().skip(1) {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('*') || subckt_lines.contains(line_no) {
            continue;
        }
        let lower = trimmed.to_ascii_lowercase();
        if lower.starts_with('.') {
            if lower.starts_with(".model") {
                continue; // handled in first pass
            } else if lower.starts_with(".tran") {
                tran = Some(parse_tran(trimmed, *line_no)?);
            } else if lower.starts_with(".dc") {
                let fields: Vec<&str> = trimmed.split_whitespace().collect();
                if fields.len() != 5 {
                    return Err(SpiceError::Parse {
                        line: *line_no,
                        reason: ".dc expects `.dc SOURCE start stop step`".into(),
                    });
                }
                let step = parse_field(fields[4], *line_no)?;
                if step <= 0.0 {
                    return Err(SpiceError::Parse {
                        line: *line_no,
                        reason: ".dc step must be positive".into(),
                    });
                }
                dc = Some(DcDirective {
                    source: fields[1].to_string(),
                    start: parse_field(fields[2], *line_no)?,
                    stop: parse_field(fields[3], *line_no)?,
                    step,
                });
            } else if lower.starts_with(".ic") {
                parse_ic(trimmed, *line_no, &mut ics)?;
            } else if lower.starts_with(".temp") {
                let fields: Vec<&str> = trimmed.split_whitespace().collect();
                if fields.len() != 2 {
                    return Err(SpiceError::Parse {
                        line: *line_no,
                        reason: ".temp expects one value".into(),
                    });
                }
                temperature = Some(parse_field(fields[1], *line_no)?);
            } else if lower.starts_with(".end") {
                break;
            } else {
                return Err(SpiceError::Parse {
                    line: *line_no,
                    reason: format!("unsupported directive `{trimmed}`"),
                });
            }
            continue;
        }
        parse_element(
            trimmed,
            *line_no,
            &mut circuit,
            &mos_models,
            &diode_models,
            &subckts,
            &ExpandCtx::default(),
            0,
        )?;
    }

    Ok(Deck {
        title,
        circuit,
        tran,
        dc,
        initial_conditions: ics,
        temperature,
    })
}

fn parse_field(text: &str, line: usize) -> Result<f64, SpiceError> {
    parse_value(text).map_err(|_| SpiceError::Parse {
        line,
        reason: format!("cannot parse `{text}` as a number"),
    })
}

fn parse_tran(line_text: &str, line: usize) -> Result<TranDirective, SpiceError> {
    let fields: Vec<&str> = line_text.split_whitespace().collect();
    if fields.len() < 3 {
        return Err(SpiceError::Parse {
            line,
            reason: ".tran expects `.tran step stop [UIC]`".into(),
        });
    }
    let step = parse_field(fields[1], line)?;
    let stop = parse_field(fields[2], line)?;
    let uic = fields
        .get(3)
        .map(|f| f.eq_ignore_ascii_case("uic"))
        .unwrap_or(false);
    Ok(TranDirective { step, stop, uic })
}

fn parse_ic(line_text: &str, line: usize, out: &mut Vec<(String, f64)>) -> Result<(), SpiceError> {
    // .ic V(node)=value V(node2)=value2 …
    for field in line_text.split_whitespace().skip(1) {
        let lower = field.to_ascii_lowercase();
        let inner = lower
            .strip_prefix("v(")
            .and_then(|rest| rest.split_once(")="))
            .ok_or_else(|| SpiceError::Parse {
                line,
                reason: format!(".ic entries look like V(node)=value, got `{field}`"),
            })?;
        let (node, value) = inner;
        out.push((node.to_string(), parse_field(value, line)?));
    }
    Ok(())
}

fn parse_model(
    line_text: &str,
    line: usize,
    mos: &mut HashMap<String, MosModel>,
    diodes: &mut HashMap<String, DiodeModel>,
) -> Result<(), SpiceError> {
    // .model NAME TYPE (KEY=VAL …) — parens optional.
    let cleaned = line_text.replace(['(', ')'], " ");
    let fields: Vec<&str> = cleaned.split_whitespace().collect();
    if fields.len() < 3 {
        return Err(SpiceError::Parse {
            line,
            reason: ".model expects `.model name type (params)`".into(),
        });
    }
    let name = fields[1].to_ascii_lowercase();
    let kind = fields[2].to_ascii_lowercase();
    let params = parse_kv(&fields[3..], line)?;
    match kind.as_str() {
        "nmos" | "pmos" => {
            let mut m = if kind == "nmos" {
                MosModel::default()
            } else {
                MosModel::default_pmos()
            };
            m.polarity = if kind == "nmos" {
                MosPolarity::Nmos
            } else {
                MosPolarity::Pmos
            };
            for (k, v) in &params {
                match k.as_str() {
                    "vto" => m.vto = *v,
                    "kp" => m.kp = *v,
                    "lambda" => m.lambda = *v,
                    "gamma" => m.gamma = *v,
                    "phi" => m.phi = *v,
                    "bex" => m.bex = *v,
                    "tcv" => m.tcv = *v,
                    "n" => m.n_sub = *v,
                    "tnom" => m.tnom = *v,
                    "cox" => m.cox = *v,
                    other => {
                        return Err(SpiceError::Parse {
                            line,
                            reason: format!("unknown MOS model parameter `{other}`"),
                        })
                    }
                }
            }
            mos.insert(name, m);
        }
        "d" => {
            let mut d = DiodeModel::default();
            for (k, v) in &params {
                match k.as_str() {
                    "is" => d.is_sat = *v,
                    "n" => d.n = *v,
                    "tnom" => d.tnom = *v,
                    "xti" => d.xti = *v,
                    "eg" => d.eg = *v,
                    other => {
                        return Err(SpiceError::Parse {
                            line,
                            reason: format!("unknown diode model parameter `{other}`"),
                        })
                    }
                }
            }
            diodes.insert(name, d);
        }
        other => {
            return Err(SpiceError::Parse {
                line,
                reason: format!("unsupported model type `{other}`"),
            })
        }
    }
    Ok(())
}

fn parse_kv(fields: &[&str], line: usize) -> Result<Vec<(String, f64)>, SpiceError> {
    let mut out = Vec::new();
    for field in fields {
        let (k, v) = field.split_once('=').ok_or_else(|| SpiceError::Parse {
            line,
            reason: format!("expected KEY=VALUE, got `{field}`"),
        })?;
        out.push((k.to_ascii_lowercase(), parse_field(v, line)?));
    }
    Ok(out)
}

fn parse_waveform(fields: &[&str], line: usize) -> Result<Waveform, SpiceError> {
    if fields.is_empty() {
        return Err(SpiceError::Parse {
            line,
            reason: "source needs a value or waveform".into(),
        });
    }
    let joined = fields.join(" ");
    let lower = joined.to_ascii_lowercase();
    if let Some(rest) = lower.strip_prefix("dc") {
        return Ok(Waveform::Dc(parse_field(rest.trim(), line)?));
    }
    if lower.starts_with("pulse") {
        let args = waveform_args(&joined, line)?;
        if args.len() != 7 {
            return Err(SpiceError::Parse {
                line,
                reason: format!("PULSE expects 7 arguments, got {}", args.len()),
            });
        }
        return Ok(Waveform::Pulse(Pulse {
            v1: args[0],
            v2: args[1],
            delay: args[2],
            rise: args[3],
            fall: args[4],
            width: args[5],
            period: args[6],
        }));
    }
    if lower.starts_with("pwl") {
        let args = waveform_args(&joined, line)?;
        if args.len() < 2 || args.len() % 2 != 0 {
            return Err(SpiceError::Parse {
                line,
                reason: "PWL expects an even number of arguments (t v pairs)".into(),
            });
        }
        let points = args.chunks(2).map(|c| (c[0], c[1])).collect();
        return Ok(Waveform::Pwl(points));
    }
    if lower.starts_with("exp") {
        let args = waveform_args(&joined, line)?;
        if args.len() != 6 {
            return Err(SpiceError::Parse {
                line,
                reason: format!("EXP expects 6 arguments, got {}", args.len()),
            });
        }
        return Ok(Waveform::Exp(Exp {
            v1: args[0],
            v2: args[1],
            rise_delay: args[2],
            rise_tau: args[3],
            fall_delay: args[4],
            fall_tau: args[5],
        }));
    }
    if lower.starts_with("sin") {
        let args = waveform_args(&joined, line)?;
        if args.len() < 3 {
            return Err(SpiceError::Parse {
                line,
                reason: "SIN expects at least (offset amplitude freq)".into(),
            });
        }
        return Ok(Waveform::Sine {
            offset: args[0],
            amplitude: args[1],
            frequency: args[2],
            delay: args.get(3).copied().unwrap_or(0.0),
        });
    }
    // Bare number: DC.
    if fields.len() == 1 {
        return Ok(Waveform::Dc(parse_field(fields[0], line)?));
    }
    Err(SpiceError::Parse {
        line,
        reason: format!("cannot parse source specification `{joined}`"),
    })
}

/// Extracts the numeric arguments of `NAME(a b c)` or `NAME a b c`.
fn waveform_args(text: &str, line: usize) -> Result<Vec<f64>, SpiceError> {
    let inner = match (text.find('('), text.rfind(')')) {
        (Some(open), Some(close)) if close > open => &text[open + 1..close],
        _ => text
            .split_once(char::is_whitespace)
            .map(|(_, rest)| rest)
            .unwrap_or(""),
    };
    inner
        .split([' ', ','])
        .filter(|s| !s.trim().is_empty())
        .map(|s| parse_field(s.trim(), line))
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn parse_element(
    line_text: &str,
    line: usize,
    circuit: &mut Circuit,
    mos_models: &HashMap<String, MosModel>,
    diode_models: &HashMap<String, DiodeModel>,
    subckts: &HashMap<String, SubcktDef>,
    ctx: &ExpandCtx,
    depth: usize,
) -> Result<(), SpiceError> {
    let fields: Vec<&str> = line_text.split_whitespace().collect();
    let name = &ctx.map_device(fields[0]);
    let kind = fields[0]
        .chars()
        .next()
        .expect("non-empty line")
        .to_ascii_uppercase();
    let need = |count: usize| -> Result<(), SpiceError> {
        if fields.len() < count {
            Err(SpiceError::Parse {
                line,
                reason: format!("`{name}` expects at least {} fields", count - 1),
            })
        } else {
            Ok(())
        }
    };
    match kind {
        'R' => {
            need(4)?;
            let p = circuit.node(&ctx.map_node(fields[1]));
            let n = circuit.node(&ctx.map_node(fields[2]));
            circuit.add_resistor(name, p, n, parse_field(fields[3], line)?)
        }
        'C' => {
            need(4)?;
            let p = circuit.node(&ctx.map_node(fields[1]));
            let n = circuit.node(&ctx.map_node(fields[2]));
            let value = parse_field(fields[3], line)?;
            let mut ic = None;
            for extra in &fields[4..] {
                let lower = extra.to_ascii_lowercase();
                if let Some(v) = lower.strip_prefix("ic=") {
                    ic = Some(parse_field(v, line)?);
                } else {
                    return Err(SpiceError::Parse {
                        line,
                        reason: format!("unknown capacitor option `{extra}`"),
                    });
                }
            }
            circuit.add_capacitor_ic(name, p, n, value, ic)
        }
        'V' | 'I' => {
            need(4)?;
            let p = circuit.node(&ctx.map_node(fields[1]));
            let n = circuit.node(&ctx.map_node(fields[2]));
            let waveform = parse_waveform(&fields[3..], line)?;
            if kind == 'V' {
                circuit.add_vsource(name, p, n, waveform)
            } else {
                circuit.add_isource(name, p, n, waveform)
            }
        }
        'M' => {
            need(6)?;
            let d = circuit.node(&ctx.map_node(fields[1]));
            let g = circuit.node(&ctx.map_node(fields[2]));
            let s = circuit.node(&ctx.map_node(fields[3]));
            let b = circuit.node(&ctx.map_node(fields[4]));
            let model_name = fields[5].to_ascii_lowercase();
            let model = mos_models
                .get(&model_name)
                .cloned()
                .ok_or_else(|| SpiceError::Parse {
                    line,
                    reason: format!("unknown MOS model `{}`", fields[5]),
                })?;
            let params = parse_kv(&fields[6..], line)?;
            let mut w = 1e-6;
            let mut l = 1e-6;
            for (k, v) in &params {
                match k.as_str() {
                    "w" => w = *v,
                    "l" => l = *v,
                    other => {
                        return Err(SpiceError::Parse {
                            line,
                            reason: format!("unknown MOSFET instance parameter `{other}`"),
                        })
                    }
                }
            }
            circuit.add_mosfet(name, d, g, s, b, model, MosGeometry::new(w, l)?)
        }
        'D' => {
            need(4)?;
            let p = circuit.node(&ctx.map_node(fields[1]));
            let n = circuit.node(&ctx.map_node(fields[2]));
            let model_name = fields[3].to_ascii_lowercase();
            let model =
                diode_models
                    .get(&model_name)
                    .copied()
                    .ok_or_else(|| SpiceError::Parse {
                        line,
                        reason: format!("unknown diode model `{}`", fields[3]),
                    })?;
            circuit.add_diode(name, p, n, model)
        }
        'S' => {
            need(6)?;
            let p = circuit.node(&ctx.map_node(fields[1]));
            let n = circuit.node(&ctx.map_node(fields[2]));
            let cp = circuit.node(&ctx.map_node(fields[3]));
            let cn = circuit.node(&ctx.map_node(fields[4]));
            let params = parse_kv(&fields[5..], line)?;
            let mut ron = 1.0;
            let mut roff = 1e9;
            let mut vt = 0.5;
            for (k, v) in &params {
                match k.as_str() {
                    "ron" => ron = *v,
                    "roff" => roff = *v,
                    "vt" => vt = *v,
                    other => {
                        return Err(SpiceError::Parse {
                            line,
                            reason: format!("unknown switch parameter `{other}`"),
                        })
                    }
                }
            }
            circuit.add_vswitch(name, p, n, cp, cn, ron, roff, vt)
        }
        'X' => {
            // Xname node1 node2 ... SUBNAME
            need(3)?;
            if depth >= MAX_SUBCKT_DEPTH {
                return Err(SpiceError::Parse {
                    line,
                    reason: format!(
                        "subcircuit nesting deeper than {MAX_SUBCKT_DEPTH} (recursive definition?)"
                    ),
                });
            }
            let sub_name = fields[fields.len() - 1].to_ascii_lowercase();
            let def = subckts.get(&sub_name).ok_or_else(|| SpiceError::Parse {
                line,
                reason: format!("unknown subcircuit `{}`", fields[fields.len() - 1]),
            })?;
            let outer_nodes = &fields[1..fields.len() - 1];
            if outer_nodes.len() != def.ports.len() {
                return Err(SpiceError::Parse {
                    line,
                    reason: format!(
                        "subcircuit `{sub_name}` has {} ports, instance gives {} nodes",
                        def.ports.len(),
                        outer_nodes.len()
                    ),
                });
            }
            let mut port_map = HashMap::new();
            for (port, outer) in def.ports.iter().zip(outer_nodes) {
                port_map.insert(port.clone(), ctx.map_node(outer));
            }
            let inner_ctx = ExpandCtx {
                prefix: format!("{}.", name.to_ascii_lowercase()),
                port_map,
            };
            for (body_line, body_text) in &def.body {
                parse_element(
                    body_text,
                    *body_line,
                    circuit,
                    mos_models,
                    diode_models,
                    subckts,
                    &inner_ctx,
                    depth + 1,
                )?;
            }
            Ok(())
        }
        other => Err(SpiceError::Parse {
            line,
            reason: format!("unsupported element type `{other}`"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Simulator, TranOptions};

    #[test]
    fn parse_rc_deck_and_simulate() {
        let deck = parse(
            "rc bench\n\
             V1 in 0 DC 1\n\
             R1 in out 1k\n\
             C1 out 0 1n\n\
             .tran 10n 5u\n\
             .end\n",
        )
        .unwrap();
        assert_eq!(deck.title, "rc bench");
        let tran = deck.tran.unwrap();
        assert!(!tran.uic);
        let opts = TranOptions::new(tran.stop, tran.step).unwrap();
        let result = Simulator::new(&deck.circuit).transient(&opts).unwrap();
        assert!((result.final_voltage("out").unwrap() - 1.0).abs() < 0.01);
    }

    #[test]
    fn parse_pulse_and_pwl_sources() {
        let deck = parse(
            "sources\n\
             V1 a 0 PULSE(0 3.6 5n 1n 1n 30n 60n)\n\
             V2 b 0 PWL(0 0 1n 1 2n 0)\n\
             V3 c 0 SIN(1 0.5 1meg)\n\
             R1 a 0 1k\n\
             R2 b 0 1k\n\
             R3 c 0 1k\n\
             .end\n",
        )
        .unwrap();
        assert_eq!(deck.circuit.device_count(), 6);
    }

    #[test]
    fn parse_mosfet_with_model() {
        let deck = parse(
            "mos bench\n\
             Vd d 0 DC 2.4\n\
             Vg g 0 DC 2.4\n\
             M1 d g 0 0 NACC W=1u L=0.3u\n\
             .model NACC NMOS (VTO=0.55 KP=120u LAMBDA=0.03)\n\
             .end\n",
        )
        .unwrap();
        // M + 2 gate caps + 2 sources.
        assert_eq!(deck.circuit.device_count(), 5);
        let op = Simulator::new(&deck.circuit).dc_operating_point().unwrap();
        let i = op.current("Vd").unwrap();
        assert!(i.abs() > 1e-5, "transistor should conduct: {i}");
    }

    #[test]
    fn model_card_order_independent() {
        // Model defined after the device referencing it.
        let deck = parse(
            "order\n\
             M1 d g 0 0 NX W=1u L=1u\n\
             Rd d 0 1k\n\
             Rg g 0 1k\n\
             .model NX NMOS (VTO=0.5)\n\
             .end\n",
        )
        .unwrap();
        assert!(deck.circuit.find_device("M1").is_ok());
    }

    #[test]
    fn parse_ic_and_uic() {
        let deck = parse(
            "ic bench\n\
             R1 cell 0 1meg\n\
             C1 cell 0 30f IC=2.4\n\
             .ic V(cell)=2.4\n\
             .tran 0.1n 10n UIC\n\
             .temp 87\n\
             .end\n",
        )
        .unwrap();
        assert_eq!(deck.initial_conditions, vec![("cell".to_string(), 2.4)]);
        assert_eq!(deck.temperature, Some(87.0));
        let tran = deck.tran.unwrap();
        assert!(tran.uic);
        let opts = TranOptions::new(tran.stop, tran.step)
            .unwrap()
            .with_ic(deck.initial_conditions.clone());
        let result = Simulator::new(&deck.circuit)
            .with_temperature(deck.temperature.unwrap())
            .transient(&opts)
            .unwrap();
        assert!((result.voltage_at("cell", 0.0).unwrap() - 2.4).abs() < 1e-9);
    }

    #[test]
    fn continuation_lines() {
        let deck = parse(
            "cont\n\
             V1 a 0 PULSE(0 1\n\
             + 5n 1n 1n\n\
             + 30n 60n)\n\
             R1 a 0 1k\n\
             .end\n",
        )
        .unwrap();
        assert_eq!(deck.circuit.device_count(), 2);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let deck = parse(
            "title\n\
             * a comment\n\
             \n\
             R1 a 0 1k\n\
             V1 a 0 1\n\
             .end\n",
        )
        .unwrap();
        assert_eq!(deck.circuit.device_count(), 2);
    }

    #[test]
    fn error_reporting_with_line_numbers() {
        let err = parse("title\nR1 a 0 tenk\n.end\n").unwrap_err();
        match err {
            SpiceError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
        let err = parse("title\nX1 a b c\n.end\n").unwrap_err();
        assert!(matches!(err, SpiceError::Parse { .. }));
        let err = parse("title\nM1 d g s b NOPE W=1u L=1u\n.end\n").unwrap_err();
        assert!(matches!(err, SpiceError::Parse { .. }));
        let err = parse("title\n.bogus 1 2\n.end\n").unwrap_err();
        assert!(matches!(err, SpiceError::Parse { .. }));
        let err = parse("+ dangling\n").unwrap_err();
        assert!(matches!(err, SpiceError::Parse { line: 1, .. }));
    }

    #[test]
    fn switch_and_diode_elements() {
        let deck = parse(
            "sw\n\
             V1 in 0 1\n\
             Vc ctl 0 1\n\
             S1 in out ctl 0 RON=10 ROFF=1g VT=0.5\n\
             D1 out 0 DX\n\
             .model DX D (IS=1e-14 N=1)\n\
             .end\n",
        )
        .unwrap();
        assert_eq!(deck.circuit.device_count(), 4);
        let op = Simulator::new(&deck.circuit).dc_operating_point().unwrap();
        let v = op.voltage("out").unwrap();
        assert!((0.4..0.9).contains(&v), "diode clamp at {v}");
    }

    #[test]
    fn tran_directive_variants() {
        assert!(parse("t\nR1 a 0 1k\n.tran 1n\n.end\n").is_err());
        let deck = parse("t\nR1 a 0 1k\n.tran 1n 10n uic\n.end\n").unwrap();
        assert!(deck.tran.unwrap().uic);
    }

    #[test]
    fn exp_source_and_dc_directive() {
        let deck = parse(
            "exp/dc
             V1 in 0 EXP(0 1 1n 2n 10n 2n)
             Vs sw 0 DC 0
             R1 in out 1k
             R2 out sw 1k
             .dc Vs 0 1 0.25
             .end
",
        )
        .unwrap();
        let dc = deck.dc.expect(".dc parsed");
        assert_eq!(dc.source, "Vs");
        assert_eq!(dc.values(), vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        let sweep = Simulator::new(&deck.circuit)
            .dc_sweep(&dc.source, &dc.values())
            .unwrap();
        assert_eq!(sweep.len(), 5);
        // Descending sweeps work too.
        let down = DcDirective {
            source: "Vs".into(),
            start: 1.0,
            stop: 0.0,
            step: 0.5,
        };
        assert_eq!(down.values(), vec![1.0, 0.5, 0.0]);
        // Malformed directives error with a line number.
        assert!(parse(
            "t
R1 a 0 1k
.dc Vs 0 1
.end
"
        )
        .is_err());
        assert!(parse(
            "t
R1 a 0 1k
.dc Vs 0 1 -0.1
.end
"
        )
        .is_err());
        assert!(parse(
            "t
V1 a 0 EXP(0 1 1n)
R1 a 0 1k
.end
"
        )
        .is_err());
    }

    #[test]
    fn subcircuit_flattening() {
        // A divider packaged as a subcircuit, instantiated twice.
        let deck = parse(
            "subckt bench\n\
             .subckt div in out\n\
             R1 in out 1k\n\
             R2 out 0 1k\n\
             .ends\n\
             V1 top 0 DC 2\n\
             Xa top mid div\n\
             Xb mid bot div\n\
             .end\n",
        )
        .unwrap();
        // 1 source + 2 instances x 2 resistors.
        assert_eq!(deck.circuit.device_count(), 5);
        assert!(deck.circuit.find_device("xa.R1").is_ok());
        assert!(deck.circuit.find_device("xb.R2").is_ok());
        let op = Simulator::new(&deck.circuit).dc_operating_point().unwrap();
        // Internal port nodes splice onto the outer ones; voltages are
        // ordered down the ladder.
        let v_mid = op.voltage("mid").unwrap();
        let v_bot = op.voltage("bot").unwrap();
        assert!(v_mid > v_bot && v_bot > 0.0, "mid {v_mid}, bot {v_bot}");
        assert!(deck.circuit.find_node("xa.out").is_err(), "ports splice");
    }

    #[test]
    fn nested_subcircuit_instances() {
        // A subcircuit that instantiates another one.
        let deck = parse(
            "nested\n\
             .subckt leaf a b\n\
             R1 a b 1k\n\
             .ends\n\
             .subckt pair a c\n\
             Xl a m leaf\n\
             Xr m c leaf\n\
             .ends\n\
             V1 in 0 DC 1\n\
             Xp in 0 pair\n\
             .end\n",
        )
        .unwrap();
        // V1 + 2 leaf resistors.
        assert_eq!(deck.circuit.device_count(), 3);
        assert!(deck.circuit.find_device("xp.xl.R1").is_ok());
        // The internal midpoint is prefixed with the instance path.
        assert!(deck.circuit.find_node("xp.m").is_ok());
        let op = Simulator::new(&deck.circuit).dc_operating_point().unwrap();
        assert!((op.voltage("xp.m").unwrap() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn subcircuit_ground_is_global() {
        let deck = parse(
            "gnd\n\
             .subckt tie a\n\
             R1 a 0 1k\n\
             .ends\n\
             V1 n 0 DC 1\n\
             Xt n tie\n\
             .end\n",
        )
        .unwrap();
        let op = Simulator::new(&deck.circuit).dc_operating_point().unwrap();
        let i = op.current("V1").unwrap().abs();
        assert!((i - 1e-3).abs() < 1e-8, "ground must not be prefixed: {i}");
    }

    #[test]
    fn subcircuit_errors() {
        // Unknown subcircuit.
        let err = parse("t\nV1 a 0 1\nXa a nope\n.end\n").unwrap_err();
        assert!(matches!(err, SpiceError::Parse { .. }));
        // Port-count mismatch.
        let err =
            parse("t\n.subckt s a b\nR1 a b 1k\n.ends\nV1 x 0 1\nXa x s\n.end\n").unwrap_err();
        assert!(matches!(err, SpiceError::Parse { .. }));
        // Unclosed definition.
        let err = parse("t\n.subckt s a b\nR1 a b 1k\n.end\n").unwrap_err();
        assert!(matches!(err, SpiceError::Parse { .. }));
        // .ends without .subckt.
        let err = parse("t\nR1 a 0 1k\n.ends\n.end\n").unwrap_err();
        assert!(matches!(err, SpiceError::Parse { .. }));
        // Nested definitions are rejected.
        let err = parse("t\n.subckt a x\n.subckt b y\n.ends\n.ends\n.end\n").unwrap_err();
        assert!(matches!(err, SpiceError::Parse { .. }));
        // Recursive instantiation hits the depth cap.
        let err =
            parse("t\n.subckt loop a\nXl a loop\n.ends\nV1 n 0 1\nXa n loop\n.end\n").unwrap_err();
        assert!(matches!(err, SpiceError::Parse { .. }));
    }
}
