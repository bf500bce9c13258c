//! Declarative column-design configuration.
//!
//! A [`DesignConfig`] describes a folded-bit-line column the way a memory
//! designer would spec it — cells per bit line, per-cell bit-line
//! parasitics, device sizing, the reference scheme — rather than the way
//! the simulator consumes it. Expansion ([`DesignConfig::expand`])
//! resolves the description into the concrete [`ColumnDesign`].
//!
//! Configs parse from a zero-dependency JSON grammar (via
//! [`dso_obs::json`]):
//!
//! ```json
//! {
//!   "name": "tall-array",
//!   "cells_per_bitline": 4,
//!   "cell_cap": 3.0e-14,
//!   "bl_cap_per_cell": 3.0e-13,
//!   "bl_res_per_cell": 120.0,
//!   "reference": {"scheme": "skewed", "skew": 0.08},
//!   "wl_boost": 0.4
//! }
//! ```
//!
//! Every omitted field defaults from [`DesignConfig::paper_default`], so a
//! config only states what differs from the paper's column.

use super::ColumnDesign;
use crate::DramError;
use dso_obs::json::Json;
use std::collections::BTreeMap;

/// Nominal supply used to resolve charge-sharing reference schemes into a
/// fixed skew voltage (the paper's 2.4 V generation).
const VDD_NOMINAL: f64 = 2.4;

/// How the reference bit line is set to the mid level during precharge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReferenceScheme {
    /// The reference cells restore exactly `vdd/2`: zero skew.
    HalfVdd,
    /// The reference cells restore `vdd/2 − skew` volts (the paper's
    /// scheme; its default skew is 80 mV).
    SkewedRef {
        /// Skew below `vdd/2`, volts.
        skew: f64,
    },
    /// A half-size dummy cell storing 0 shares charge onto the reference
    /// bit line; the resulting level resolves to a skew of
    /// `(Cs/2) / (Cs/2 + Cbl) · Vdd_nom/2` below the mid level, evaluated
    /// at the nominal 2.4 V supply.
    DummyCell,
}

impl ReferenceScheme {
    /// Short scheme tag used by the JSON grammar.
    pub fn label(&self) -> &'static str {
        match self {
            ReferenceScheme::HalfVdd => "half_vdd",
            ReferenceScheme::SkewedRef { .. } => "skewed",
            ReferenceScheme::DummyCell => "dummy_cell",
        }
    }

    /// Resolves the scheme into the fixed reference skew (volts below
    /// `vdd/2`) for a column with cell capacitance `cs` and total bit-line
    /// capacitance `cbl`.
    pub fn resolve_skew(&self, cs: f64, cbl: f64) -> f64 {
        match self {
            ReferenceScheme::HalfVdd => 0.0,
            ReferenceScheme::SkewedRef { skew } => *skew,
            ReferenceScheme::DummyCell => {
                let dummy = cs / 2.0;
                dummy / (dummy + cbl) * (VDD_NOMINAL / 2.0)
            }
        }
    }
}

/// Declarative design of a folded column.
///
/// Per-cell quantities (`bl_cap_per_cell`, `bl_res_per_cell`) scale with
/// `cells_per_bitline` during expansion, so growing the array
/// automatically grows the bit-line parasitics the way a taller physical
/// column would.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignConfig {
    /// Human-readable design name (labels sweeps and reports; not part of
    /// the electrical fingerprint).
    pub name: String,
    /// Array cells per bit line: the plain (never-accessed) load cells
    /// that model the rest of the column. The victim and reference cells
    /// are fixed structures on top of these. Bit-line parasitics scale
    /// with this count during expansion.
    pub cells_per_bitline: usize,
    /// Storage (cell) capacitance, farads.
    pub cell_cap: f64,
    /// Bit-line capacitance contributed by each cell pitch, farads.
    pub bl_cap_per_cell: f64,
    /// Bit-line series resistance contributed by each cell pitch, ohms.
    /// Zero models the ideal (pre-design-space) bit line.
    pub bl_res_per_cell: f64,
    /// Access-transistor channel width, meters.
    pub access_w: f64,
    /// Access-transistor channel length, meters.
    pub access_l: f64,
    /// Sense-amplifier NMOS width, meters.
    pub sa_nmos_w: f64,
    /// Sense-amplifier PMOS width, meters.
    pub sa_pmos_w: f64,
    /// Sense-amplifier channel length, meters.
    pub sa_l: f64,
    /// Precharge/equalize transistor width, meters.
    pub pre_w: f64,
    /// Write-driver on-resistance, ohms.
    pub wd_ron: f64,
    /// Reference-level scheme.
    pub reference: ReferenceScheme,
    /// Word-line boost above `vdd`, volts.
    pub wl_boost: f64,
    /// Transient time step as a fraction of `tcyc`.
    pub dt_fraction: f64,
}

impl DesignConfig {
    /// The paper's column as a declarative config: expanding it
    /// reproduces [`ColumnDesign::default`] bit-identically.
    pub fn paper_default() -> Self {
        DesignConfig {
            name: "paper".to_string(),
            cells_per_bitline: 1,
            cell_cap: 30e-15,
            bl_cap_per_cell: 300e-15,
            bl_res_per_cell: 0.0,
            access_w: 0.15e-6,
            access_l: 0.5e-6,
            sa_nmos_w: 1.2e-6,
            sa_pmos_w: 2.4e-6,
            sa_l: 0.3e-6,
            pre_w: 1.0e-6,
            wd_ron: 500.0,
            reference: ReferenceScheme::SkewedRef { skew: 0.08 },
            wl_boost: 0.4,
            dt_fraction: 1.0 / 600.0,
        }
    }

    /// Validates the declarative parameters (expansion re-validates the
    /// resolved electrical design as well).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BadDesign`] naming the offending field.
    pub fn validate(&self) -> Result<(), DramError> {
        let bad = |msg: String| Err(DramError::BadDesign(msg));
        if self.name.is_empty() {
            return bad("design name must not be empty".to_string());
        }
        for (name, v) in [
            ("cell_cap", self.cell_cap),
            ("bl_cap_per_cell", self.bl_cap_per_cell),
            ("access_w", self.access_w),
            ("access_l", self.access_l),
            ("sa_nmos_w", self.sa_nmos_w),
            ("sa_pmos_w", self.sa_pmos_w),
            ("sa_l", self.sa_l),
            ("pre_w", self.pre_w),
            ("wd_ron", self.wd_ron),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return bad(format!("{name} must be positive and finite, got {v}"));
            }
        }
        if !(self.bl_res_per_cell >= 0.0 && self.bl_res_per_cell.is_finite()) {
            return bad(format!(
                "bl_res_per_cell must be non-negative and finite, got {}",
                self.bl_res_per_cell
            ));
        }
        if self.cells_per_bitline == 0 || self.cells_per_bitline > 256 {
            return bad(format!(
                "cells_per_bitline {} outside [1, 256]",
                self.cells_per_bitline
            ));
        }
        if let ReferenceScheme::SkewedRef { skew } = self.reference {
            if !(0.0..=0.5).contains(&skew) {
                return bad(format!("reference skew {skew} outside [0, 0.5]"));
            }
        }
        if self.wl_boost < 0.0 || self.wl_boost.is_nan() {
            return bad(format!("wl_boost {} must be non-negative", self.wl_boost));
        }
        if !(self.dt_fraction > 0.0 && self.dt_fraction <= 0.05) {
            return bad(format!(
                "dt_fraction {} outside (0, 0.05]",
                self.dt_fraction
            ));
        }
        Ok(())
    }

    /// Expands the declarative config into the resolved column design.
    ///
    /// Resolution rules:
    ///
    /// * total bit-line capacitance `cbl = cells_per_bitline · bl_cap_per_cell`,
    /// * total bit-line series resistance `bl_r = cells_per_bitline · bl_res_per_cell`,
    /// * the reference scheme resolves to a fixed skew via
    ///   [`ReferenceScheme::resolve_skew`],
    /// * the plain-cell count equals `cells_per_bitline`,
    /// * model cards are the standard −2 mobility-exponent cards of the
    ///   paper's 2.4 V generation.
    ///
    /// The name is not part of the result: a design's fingerprint (the
    /// hash of [`ColumnDesign::fingerprint_into`]) keys the evaluation
    /// service's memo cache and any `DSO_STORE` generation, so renaming a
    /// design keeps its cached results while any electrical change moves
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BadDesign`] if either the config or the
    /// resolved design fails validation (e.g. a resolved skew outside
    /// `[0, 0.5]`).
    pub fn expand(&self) -> Result<ColumnDesign, DramError> {
        self.validate()?;
        let cells = self.cells_per_bitline as f64;
        let cbl = cells * self.bl_cap_per_cell;
        let design = ColumnDesign {
            cs: self.cell_cap,
            cbl,
            bl_r: cells * self.bl_res_per_cell,
            wl_boost: self.wl_boost,
            ref_skew: self.reference.resolve_skew(self.cell_cap, cbl),
            access_w: self.access_w,
            access_l: self.access_l,
            sa_nmos_w: self.sa_nmos_w,
            sa_pmos_w: self.sa_pmos_w,
            sa_l: self.sa_l,
            pre_w: self.pre_w,
            wd_ron: self.wd_ron,
            plain_cells_per_bitline: self.cells_per_bitline,
            dt_fraction: self.dt_fraction,
            ..ColumnDesign::default()
        };
        design.validate()?;
        Ok(design)
    }

    /// Parses a config from its JSON document form; omitted fields
    /// default from [`DesignConfig::paper_default`].
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BadDesign`] for structurally malformed
    /// documents and for parameter values that fail [`validate`].
    ///
    /// [`validate`]: DesignConfig::validate
    pub fn from_json(v: &Json) -> Result<Self, DramError> {
        let bad = |msg: String| DramError::BadDesign(msg);
        let Json::Obj(_) = v else {
            return Err(bad("design config must be a JSON object".to_string()));
        };
        let mut cfg = DesignConfig::paper_default();
        if let Some(n) = v.get("name") {
            cfg.name = n
                .as_str()
                .ok_or_else(|| bad("name must be a string".to_string()))?
                .to_string();
        }
        if let Some(n) = v.get("cells_per_bitline") {
            cfg.cells_per_bitline = n.as_u64().ok_or_else(|| {
                bad("cells_per_bitline must be a non-negative integer".to_string())
            })? as usize;
        }
        for (key, slot) in [
            ("cell_cap", &mut cfg.cell_cap),
            ("bl_cap_per_cell", &mut cfg.bl_cap_per_cell),
            ("bl_res_per_cell", &mut cfg.bl_res_per_cell),
            ("access_w", &mut cfg.access_w),
            ("access_l", &mut cfg.access_l),
            ("sa_nmos_w", &mut cfg.sa_nmos_w),
            ("sa_pmos_w", &mut cfg.sa_pmos_w),
            ("sa_l", &mut cfg.sa_l),
            ("pre_w", &mut cfg.pre_w),
            ("wd_ron", &mut cfg.wd_ron),
            ("wl_boost", &mut cfg.wl_boost),
            ("dt_fraction", &mut cfg.dt_fraction),
        ] {
            if let Some(n) = v.get(key) {
                *slot = n
                    .as_f64()
                    .ok_or_else(|| bad(format!("{key} must be a number")))?;
            }
        }
        if let Some(r) = v.get("reference") {
            cfg.reference = reference_from_json(r)?;
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Parses a config from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BadDesign`] for unparseable text or invalid
    /// parameters.
    pub fn parse(text: &str) -> Result<Self, DramError> {
        let doc = Json::parse(text)
            .map_err(|e| DramError::BadDesign(format!("design config JSON: {e}")))?;
        DesignConfig::from_json(&doc)
    }

    /// The config as a JSON document (round-trips through
    /// [`DesignConfig::from_json`] bit-exactly — the JSON layer's `f64`
    /// formatting preserves every value).
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("name".to_string(), Json::Str(self.name.clone()));
        obj.insert(
            "cells_per_bitline".to_string(),
            Json::Num(self.cells_per_bitline as f64),
        );
        for (key, v) in [
            ("cell_cap", self.cell_cap),
            ("bl_cap_per_cell", self.bl_cap_per_cell),
            ("bl_res_per_cell", self.bl_res_per_cell),
            ("access_w", self.access_w),
            ("access_l", self.access_l),
            ("sa_nmos_w", self.sa_nmos_w),
            ("sa_pmos_w", self.sa_pmos_w),
            ("sa_l", self.sa_l),
            ("pre_w", self.pre_w),
            ("wd_ron", self.wd_ron),
            ("wl_boost", self.wl_boost),
            ("dt_fraction", self.dt_fraction),
        ] {
            obj.insert(key.to_string(), Json::Num(v));
        }
        obj.insert("reference".to_string(), reference_to_json(&self.reference));
        Json::Obj(obj)
    }
}

fn reference_to_json(scheme: &ReferenceScheme) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("scheme".to_string(), Json::Str(scheme.label().to_string()));
    if let ReferenceScheme::SkewedRef { skew } = scheme {
        obj.insert("skew".to_string(), Json::Num(*skew));
    }
    Json::Obj(obj)
}

fn reference_from_json(v: &Json) -> Result<ReferenceScheme, DramError> {
    let bad = |msg: String| DramError::BadDesign(msg);
    let scheme = v
        .get("scheme")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("reference must be an object with a \"scheme\" string".to_string()))?;
    match scheme {
        "half_vdd" => Ok(ReferenceScheme::HalfVdd),
        "skewed" => {
            let skew = v
                .get("skew")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("skewed reference needs a numeric \"skew\"".to_string()))?;
            Ok(ReferenceScheme::SkewedRef { skew })
        }
        "dummy_cell" => Ok(ReferenceScheme::DummyCell),
        other => Err(bad(format!(
            "unknown reference scheme {other:?} (half_vdd | skewed | dummy_cell)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{nodes, sources, Column};
    use dso_num::fingerprint::Fingerprint;

    #[test]
    fn paper_default_is_valid() {
        let cfg = DesignConfig::paper_default();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.reference, ReferenceScheme::SkewedRef { skew: 0.08 });
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let mut cfg = DesignConfig::paper_default();
        cfg.name = "tall".to_string();
        cfg.cells_per_bitline = 4;
        cfg.bl_res_per_cell = 37.5;
        cfg.reference = ReferenceScheme::DummyCell;
        let text = cfg.to_json().to_string();
        let back = DesignConfig::parse(&text).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn omitted_fields_default_from_paper() {
        let cfg = DesignConfig::parse(r#"{"name": "x", "wl_boost": 0.6}"#).unwrap();
        assert_eq!(cfg.name, "x");
        assert_eq!(cfg.wl_boost, 0.6);
        assert_eq!(cfg.cell_cap, 30e-15);
        assert_eq!(cfg.reference, ReferenceScheme::SkewedRef { skew: 0.08 });
    }

    #[test]
    fn malformed_configs_are_rejected() {
        assert!(DesignConfig::parse("[1, 2]").is_err());
        assert!(DesignConfig::parse(r#"{"cell_cap": "big"}"#).is_err());
        assert!(DesignConfig::parse(r#"{"cell_cap": -1.0}"#).is_err());
        assert!(DesignConfig::parse(r#"{"cells_per_bitline": 0}"#).is_err());
        assert!(DesignConfig::parse(r#"{"reference": {"scheme": "astro"}}"#).is_err());
        assert!(DesignConfig::parse(r#"{"reference": {"scheme": "skewed"}}"#).is_err());
        assert!(DesignConfig::parse(r#"{"name": ""}"#).is_err());
        assert!(DesignConfig::parse("not json").is_err());
    }

    #[test]
    fn reference_schemes_resolve() {
        let cs = 30e-15;
        let cbl = 300e-15;
        assert_eq!(ReferenceScheme::HalfVdd.resolve_skew(cs, cbl), 0.0);
        assert_eq!(
            ReferenceScheme::SkewedRef { skew: 0.08 }.resolve_skew(cs, cbl),
            0.08
        );
        let dummy = ReferenceScheme::DummyCell.resolve_skew(cs, cbl);
        let expect = (cs / 2.0) / (cs / 2.0 + cbl) * 1.2;
        assert_eq!(dummy, expect);
        // Config-distinct schemes can resolve to the same electrical skew:
        // that equivalence is what the cross-design sweep dedups on.
        assert_eq!(
            ReferenceScheme::SkewedRef { skew: dummy }.resolve_skew(cs, cbl),
            dummy
        );
    }

    fn fingerprint(design: &ColumnDesign) -> u64 {
        let mut fp = Fingerprint::new();
        design.fingerprint_into(&mut fp);
        fp.finish()
    }

    #[test]
    fn paper_default_expands_to_the_default_column() {
        let design = DesignConfig::paper_default().expand().unwrap();
        assert_eq!(design, ColumnDesign::default());
        assert_eq!(fingerprint(&design), fingerprint(&ColumnDesign::default()));
    }

    #[test]
    fn per_cell_parasitics_scale_with_array_height() {
        let cfg = DesignConfig {
            cells_per_bitline: 4,
            bl_res_per_cell: 50.0,
            ..DesignConfig::paper_default()
        };
        let design = cfg.expand().unwrap();
        assert_eq!(design.cbl, 4.0 * 300e-15);
        assert_eq!(design.bl_r, 200.0);
        assert_eq!(design.plain_cells_per_bitline, 4);
        assert!(design.transfer_ratio() < ColumnDesign::default().transfer_ratio());
    }

    #[test]
    fn renaming_keeps_the_fingerprint_config_changes_move_it() {
        let base = DesignConfig::paper_default().expand().unwrap();
        let renamed = DesignConfig {
            name: "alias".to_string(),
            ..DesignConfig::paper_default()
        }
        .expand()
        .unwrap();
        assert_eq!(fingerprint(&base), fingerprint(&renamed));
        let moved = DesignConfig {
            wl_boost: 0.6,
            ..DesignConfig::paper_default()
        }
        .expand()
        .unwrap();
        assert_ne!(fingerprint(&base), fingerprint(&moved));
    }

    #[test]
    fn equivalent_reference_schemes_expand_to_the_same_design() {
        let dummy = DesignConfig {
            name: "dummy".to_string(),
            reference: ReferenceScheme::DummyCell,
            ..DesignConfig::paper_default()
        }
        .expand()
        .unwrap();
        let explicit = DesignConfig {
            name: "explicit".to_string(),
            reference: ReferenceScheme::SkewedRef {
                skew: dummy.ref_skew,
            },
            ..DesignConfig::paper_default()
        }
        .expand()
        .unwrap();
        assert_eq!(fingerprint(&dummy), fingerprint(&explicit));
        assert_eq!(dummy, explicit);
    }

    #[test]
    fn invalid_resolved_designs_are_rejected() {
        // A valid config whose expansion breaks the resolved design: a
        // cell bigger than the whole resolved bit-line capacitance.
        let cfg = DesignConfig {
            cell_cap: 400e-15,
            bl_cap_per_cell: 300e-15,
            ..DesignConfig::paper_default()
        };
        assert!(cfg.validate().is_ok());
        assert!(cfg.expand().is_err());
    }

    #[test]
    fn paper_default_builds_the_default_column() {
        let built = Column::build(&DesignConfig::paper_default().expand().unwrap()).unwrap();
        let direct = Column::build(&ColumnDesign::default()).unwrap();
        assert_eq!(built.design(), direct.design());
        // Same device set in the same order — the netlists are identical.
        for s in sources::ALL {
            assert!(built.circuit().find_device(s).is_ok(), "{s}");
        }
        assert_eq!(built.circuit().node_count(), direct.circuit().node_count());
    }

    #[test]
    fn nonzero_bitline_resistance_adds_tap_nodes() {
        let cfg = DesignConfig {
            bl_res_per_cell: 100.0,
            ..DesignConfig::paper_default()
        };
        let column = Column::build(&cfg.expand().unwrap()).unwrap();
        assert!(column.circuit().find_device("Rbl_true").is_ok());
        assert!(column.circuit().find_device("Rbl_comp").is_ok());
        assert!(column.circuit().find_node(nodes::BT_TAP).is_ok());
        assert!(column.circuit().find_node(nodes::BC_TAP).is_ok());
        // The zero-resistance column has neither.
        let plain = Column::build(&DesignConfig::paper_default().expand().unwrap()).unwrap();
        assert!(plain.circuit().find_device("Rbl_true").is_err());
        assert!(plain.circuit().find_node(nodes::BT_TAP).is_err());
    }
}
