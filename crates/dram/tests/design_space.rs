//! Property tests for config expansion: every electrical field of a
//! [`DesignConfig`] must move the design fingerprint (and therefore invalidate the evaluation-service memo
//! cache and any `DSO_STORE` generation), while pure labels must not.

use dso_dram::design::{ColumnDesign, DesignConfig, ReferenceScheme};
use dso_num::fingerprint::Fingerprint;

fn fingerprint_of(cfg: &DesignConfig) -> u64 {
    let mut fp = Fingerprint::new();
    cfg.expand()
        .expect("config should expand")
        .fingerprint_into(&mut fp);
    fp.finish()
}

/// One mutated config per electrical field, each a valid design.
fn field_mutations() -> Vec<(&'static str, DesignConfig)> {
    let base = DesignConfig::paper_default;
    vec![
        (
            "cells_per_bitline",
            DesignConfig {
                cells_per_bitline: 3,
                ..base()
            },
        ),
        (
            "cell_cap",
            DesignConfig {
                cell_cap: 35e-15,
                ..base()
            },
        ),
        (
            "bl_cap_per_cell",
            DesignConfig {
                bl_cap_per_cell: 320e-15,
                ..base()
            },
        ),
        (
            "bl_res_per_cell",
            DesignConfig {
                bl_res_per_cell: 75.0,
                ..base()
            },
        ),
        (
            "access_w",
            DesignConfig {
                access_w: 0.2e-6,
                ..base()
            },
        ),
        (
            "access_l",
            DesignConfig {
                access_l: 0.45e-6,
                ..base()
            },
        ),
        (
            "sa_nmos_w",
            DesignConfig {
                sa_nmos_w: 1.4e-6,
                ..base()
            },
        ),
        (
            "sa_pmos_w",
            DesignConfig {
                sa_pmos_w: 2.6e-6,
                ..base()
            },
        ),
        (
            "sa_l",
            DesignConfig {
                sa_l: 0.35e-6,
                ..base()
            },
        ),
        (
            "pre_w",
            DesignConfig {
                pre_w: 1.2e-6,
                ..base()
            },
        ),
        (
            "wd_ron",
            DesignConfig {
                wd_ron: 600.0,
                ..base()
            },
        ),
        (
            "reference",
            DesignConfig {
                reference: ReferenceScheme::HalfVdd,
                ..base()
            },
        ),
        (
            "wl_boost",
            DesignConfig {
                wl_boost: 0.5,
                ..base()
            },
        ),
        (
            "dt_fraction",
            DesignConfig {
                dt_fraction: 1.0 / 500.0,
                ..base()
            },
        ),
    ]
}

#[test]
fn every_electrical_field_moves_the_fingerprint() {
    let base_fp = fingerprint_of(&DesignConfig::paper_default());
    for (field, cfg) in field_mutations() {
        let fp = fingerprint_of(&cfg);
        assert_ne!(
            fp, base_fp,
            "changing {field} must change the design fingerprint"
        );
    }
}

#[test]
fn mutated_fingerprints_are_pairwise_distinct() {
    // No two single-field mutations collide either — the fingerprint
    // separates every design in this neighbourhood of the paper column.
    let muts = field_mutations();
    for (i, (fa, a)) in muts.iter().enumerate() {
        for (fb, b) in muts.iter().skip(i + 1) {
            assert_ne!(
                fingerprint_of(a),
                fingerprint_of(b),
                "mutations of {fa} and {fb} collided"
            );
        }
    }
}

#[test]
fn the_name_is_a_label_not_an_electrical_parameter() {
    let base_fp = fingerprint_of(&DesignConfig::paper_default());
    let renamed = DesignConfig {
        name: "paper-prime".to_string(),
        ..DesignConfig::paper_default()
    };
    assert_eq!(fingerprint_of(&renamed), base_fp);
}

#[test]
fn json_round_trip_preserves_the_fingerprint() {
    for (field, cfg) in field_mutations() {
        let text = cfg.to_json().to_string();
        let back = DesignConfig::parse(&text).unwrap();
        assert_eq!(
            fingerprint_of(&back),
            fingerprint_of(&cfg),
            "JSON round trip moved the fingerprint of the {field} mutation"
        );
    }
}

#[test]
fn paper_default_expands_bit_identically_to_the_legacy_design() {
    let expanded = DesignConfig::paper_default().expand().unwrap();
    assert_eq!(expanded, ColumnDesign::default());
}
