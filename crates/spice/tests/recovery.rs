//! Fault-injection tests of the transient convergence-recovery ladder.
//!
//! Each test arms a deterministic [`FaultPlan`] that corrupts specific
//! Newton solves, then asserts that the targeted recovery rung triggers,
//! that the run recovers, and that the recovered waveform matches the
//! clean one within tolerance.

use dso_num::chaos::{FaultKind, FaultPlan};
use dso_spice::circuit::Circuit;
use dso_spice::engine::{Simulator, TranOptions, TranResult};
use dso_spice::waveform::{Pulse, Waveform};
use dso_spice::{RecoveryPolicy, SpiceError};

/// A pulse through an RC: has capacitor state, sharp edges, and enough
/// steps that mid-run faults land between interesting events.
fn rc_pulse() -> Circuit {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource(
        "V1",
        vin,
        Circuit::GROUND,
        Waveform::Pulse(Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 1e-6,
            rise: 1e-8,
            fall: 1e-8,
            width: 4e-6,
            period: f64::INFINITY,
        }),
    )
    .unwrap();
    ckt.add_resistor("R1", vin, out, 1e3).unwrap();
    ckt.add_capacitor("C1", out, Circuit::GROUND, 1e-10)
        .unwrap();
    ckt
}

fn opts() -> TranOptions {
    TranOptions::new(8e-6, 2e-8).unwrap()
}

fn assert_matches_clean(clean: &TranResult, recovered: &TranResult, tol: f64) {
    for &t in &[0.5e-6, 2e-6, 4.5e-6, 7.9e-6] {
        let a = clean.voltage_at("out", t).unwrap();
        let b = recovered.voltage_at("out", t).unwrap();
        assert!(
            (a - b).abs() < tol,
            "recovered waveform diverges at t={t:e}: clean {a} vs recovered {b}"
        );
    }
}

#[test]
fn clean_run_reports_clean_stats() {
    let ckt = rc_pulse();
    let result = Simulator::new(&ckt).transient(&opts()).unwrap();
    assert!(result.recovery().is_clean(), "{:?}", result.recovery());
    assert!(result.recovery().solve_attempts > 0);
    assert_eq!(result.recovery().recovered_steps, 0);
}

// Fault-placement note: the DC operating-point solve consumes ordinal 0,
// so fixed-step transient step `k` is solve ordinal `k`. Ordinal 55 lands
// at t = 1.1 µs — mid RC charge after the 1 µs pulse edge, where the warm
// start does not already satisfy the residual and Newton genuinely
// iterates (a Jacobian fault at an already-converged step would be
// consumed without the Jacobian ever being evaluated).

#[test]
fn every_fault_kind_recovers_mid_run() {
    let ckt = rc_pulse();
    let clean = Simulator::new(&ckt).transient(&opts()).unwrap();
    for kind in FaultKind::ALL {
        let plan = FaultPlan::new().inject_at(55, kind);
        let result = Simulator::new(&ckt)
            .with_fault_plan(plan)
            .transient(&opts())
            .unwrap_or_else(|e| panic!("{kind:?} did not recover: {e}"));
        let stats = result.recovery();
        assert!(!stats.is_clean(), "{kind:?}: no recovery action recorded");
        assert!(stats.recovered_steps >= 1, "{kind:?}: {stats:?}");
        assert_matches_clean(&clean, &result, 1e-3);
    }
}

#[test]
fn method_fallback_rung_triggers_first() {
    // A single faulted solve on a trapezoidal step is absorbed by the very
    // first rung: one backward-Euler retry of the same step.
    let ckt = rc_pulse();
    let plan = FaultPlan::new().inject_at(55, FaultKind::NanResidual);
    let result = Simulator::new(&ckt)
        .with_fault_plan(plan)
        .transient(&opts())
        .unwrap();
    let stats = result.recovery();
    assert_eq!(stats.method_fallbacks, 1, "{stats:?}");
    assert_eq!(stats.subdivisions, 0, "{stats:?}");
    assert_eq!(stats.gmin_retries, 0, "{stats:?}");
    assert_eq!(stats.recovered_steps, 1, "{stats:?}");
}

#[test]
fn subdivision_rung_triggers_when_fallback_is_defeated() {
    // A fault window wide enough to kill the method fallback too forces
    // the ladder down into timestep subdivision; the retries there are
    // fresh ordinals that eventually escape the window.
    let ckt = rc_pulse();
    let clean = Simulator::new(&ckt).transient(&opts()).unwrap();
    let plan = FaultPlan::new().inject_span(55, 58, FaultKind::ForcedDivergence);
    let result = Simulator::new(&ckt)
        .with_fault_plan(plan)
        .transient(&opts())
        .unwrap();
    let stats = result.recovery();
    assert!(stats.method_fallbacks >= 1, "{stats:?}");
    assert!(stats.subdivisions >= 1, "{stats:?}");
    assert!(stats.deepest_subdivision >= 1, "{stats:?}");
    assert!(stats.recovered_steps >= 1, "{stats:?}");
    assert_matches_clean(&clean, &result, 1e-3);
}

#[test]
fn gmin_rung_triggers_when_it_is_the_only_rung() {
    // With fallback and subdivision disabled, the only path past a faulted
    // solve is the gmin homotopy (whose rungs are fresh ordinals).
    let ckt = rc_pulse();
    let clean = Simulator::new(&ckt).transient(&opts()).unwrap();
    let policy = RecoveryPolicy::default()
        .with_method_fallback(false)
        .with_max_subdivisions(0);
    let plan = FaultPlan::new().inject_at(55, FaultKind::SingularJacobian);
    let result = Simulator::new(&ckt)
        .with_recovery(policy)
        .with_fault_plan(plan)
        .transient(&opts())
        .unwrap();
    let stats = result.recovery();
    assert_eq!(stats.method_fallbacks, 0, "{stats:?}");
    assert_eq!(stats.subdivisions, 0, "{stats:?}");
    assert_eq!(stats.gmin_retries, 1, "{stats:?}");
    assert_eq!(stats.recovered_steps, 1, "{stats:?}");
    assert_matches_clean(&clean, &result, 1e-3);
}

#[test]
fn strict_policy_fails_fast_with_campaign_context() {
    let ckt = rc_pulse();
    let plan = FaultPlan::new().inject_at(50, FaultKind::NanResidual);
    let err = Simulator::new(&ckt)
        .with_recovery(RecoveryPolicy::strict())
        .with_fault_plan(plan)
        .transient(&opts())
        .unwrap_err();
    match err {
        SpiceError::Convergence {
            time: Some(t),
            attempts,
            ..
        } => {
            // The DC solve is ordinal 0, so ordinal 50 is step 50 at
            // t = 50 · dt; strict mode spends exactly one solve per step.
            assert!((t - 50.0 * 2e-8).abs() < 1e-12, "failure at t = {t:e}");
            assert_eq!(attempts, 50, "attempts = {attempts}");
        }
        other => panic!("expected transient Convergence, got {other}"),
    }
}

#[test]
fn unrecoverable_fault_reports_total_attempts() {
    // A permanently-failing plan exhausts the whole ladder; the surfaced
    // error carries the full attempt count, above a single solve. Start
    // from ICs so the failure comes from the transient ladder rather than
    // the DC operating point.
    let ckt = rc_pulse();
    let plan = FaultPlan::always(FaultKind::NanResidual);
    let err = Simulator::new(&ckt)
        .with_recovery(RecoveryPolicy::default().with_max_subdivisions(2))
        .with_fault_plan(plan)
        .transient(&opts().with_ic(vec![("out".to_string(), 0.0)]))
        .unwrap_err();
    match err {
        SpiceError::Convergence {
            time: Some(_),
            attempts,
            ..
        } => {
            // Direct try + two subdivision levels + one gmin rung ≥ 4.
            assert!(attempts >= 4, "attempts = {attempts}");
        }
        other => panic!("expected transient Convergence, got {other}"),
    }
}

#[test]
fn dc_operating_point_recovers_via_gmin_ladder() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::Dc(2.0))
        .unwrap();
    ckt.add_resistor("R1", a, b, 1e3).unwrap();
    ckt.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
    // Kill only the first (direct) solve: the gmin ladder runs on fresh
    // ordinals and succeeds.
    let plan = FaultPlan::new().inject_at(0, FaultKind::SingularJacobian);
    let op = Simulator::new(&ckt)
        .with_fault_plan(plan)
        .dc_operating_point()
        .unwrap();
    assert!((op.voltage("b").unwrap() - 1.0).abs() < 1e-6);

    // With gmin stepping disabled the same fault is fatal, with DC context.
    let plan = FaultPlan::new().inject_at(0, FaultKind::SingularJacobian);
    let err = Simulator::new(&ckt)
        .with_recovery(RecoveryPolicy::strict())
        .with_fault_plan(plan)
        .dc_operating_point()
        .unwrap_err();
    assert!(
        matches!(
            err,
            SpiceError::Convergence {
                time: None,
                attempts: 1,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn voltage_at_out_of_range_reports_window() {
    let ckt = rc_pulse();
    let result = Simulator::new(&ckt).transient(&opts()).unwrap();
    let err = result.voltage_at("out", 9e-6).unwrap_err();
    match err {
        SpiceError::SampleOutOfRange { t, t_start, t_end } => {
            assert_eq!(t, 9e-6);
            assert_eq!(t_start, 0.0);
            assert!((t_end - 8e-6).abs() < 1e-18);
        }
        other => panic!("expected SampleOutOfRange, got {other}"),
    }
    let err = result.voltage_at("out", -1e-9).unwrap_err();
    assert!(matches!(err, SpiceError::SampleOutOfRange { .. }));
    // In-range queries, including both exact endpoints, still work.
    assert!(result.voltage_at("out", 0.0).is_ok());
    assert!(result.voltage_at("out", 8e-6).is_ok());
}

/// A sine-driven MOSFET and diode: every time step moves the nonlinear
/// devices, so every Newton solve iterates and the device bypass has work
/// to skip.
fn driven_nonlinear() -> Circuit {
    use dso_spice::diode::DiodeModel;
    use dso_spice::mos::{MosGeometry, MosModel};
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let gate = ckt.node("gate");
    let out = ckt.node("out");
    let gnd = Circuit::GROUND;
    ckt.add_vsource("Vdd", vdd, gnd, Waveform::Dc(2.0)).unwrap();
    let sine = Waveform::Sine {
        offset: 1.0,
        amplitude: 1.0,
        frequency: 5e5,
        delay: 0.0,
    };
    ckt.add_vsource("Vg", gate, gnd, sine).unwrap();
    ckt.add_resistor("Rl", vdd, out, 2e4).unwrap();
    ckt.add_capacitor("Cl", out, gnd, 1e-13).unwrap();
    ckt.add_mosfet(
        "M1",
        out,
        gate,
        gnd,
        gnd,
        MosModel::default(),
        MosGeometry::new(2e-6, 0.25e-6).unwrap(),
    )
    .unwrap();
    ckt.add_diode("D1", out, gnd, DiodeModel::default())
        .unwrap();
    ckt
}

#[test]
fn fault_armed_run_evaluates_every_device_and_reuses_lu_only_within_solves() {
    // A plan that never fires still arms the simulator: every device is
    // evaluated on every stamp (no bypass hit can mask a fault) and every
    // solve starts from a fresh factorization, while Newton may still
    // reuse its LU between the iterations of one solve.
    let ckt = driven_nonlinear();
    let opts = TranOptions::new(4e-6, 2e-8).unwrap();
    let clean = Simulator::new(&ckt).transient(&opts).unwrap();
    let armed = Simulator::new(&ckt)
        .with_fault_plan(FaultPlan::new().inject_at(usize::MAX, FaultKind::NanResidual))
        .transient(&opts)
        .unwrap();
    let (c, a) = (clean.recovery(), armed.recovery());
    assert!(c.is_clean() && a.is_clean(), "{c:?} / {a:?}");
    assert_eq!(a.solve_attempts, c.solve_attempts, "{a:?}");

    // The unarmed run takes both shortcuts, so the checks below can fail.
    assert!(c.bypass_hits > 0, "{c:?}");
    assert!(
        c.lu_refactors < c.solve_attempts,
        "no cross-solve reuse: {c:?}"
    );

    assert_eq!(a.bypass_hits, 0, "{a:?}");
    assert!(a.bypass_misses > 0, "{a:?}");
    // Every solve iterates here, and a solve that may not start from the
    // retained LU factors at least once.
    assert!(a.lu_refactors >= a.solve_attempts, "{a:?}");
    assert!(a.lu_reuses > 0, "no within-solve reuse: {a:?}");

    // Both runs converge to the same waveform within the solver's
    // tolerance: 1e-3 relative, floored at 1 V.
    assert_eq!(armed.times(), clean.times());
    for node in ["out", "gate"] {
        let (a, c) = (armed.voltage(node).unwrap(), clean.voltage(node).unwrap());
        for (k, (va, vc)) in a.iter().zip(&c).enumerate() {
            assert!(
                (va - vc).abs() <= 1e-3 * vc.abs().max(1.0),
                "{node} at sample {k}: armed {va} vs clean {vc}"
            );
        }
    }
}
