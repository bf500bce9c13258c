//! Property-style tests of the circuit simulator against analytic
//! electronics.
//!
//! Driven by the in-tree deterministic [`TestRng`] (seeded, replayable)
//! instead of an external property-testing crate so the suite builds with
//! no registry access.

use dso_num::testing::TestRng;
use dso_spice::circuit::Circuit;
use dso_spice::engine::{Simulator, TranOptions, TranResult};
use dso_spice::mos::{evaluate, MosGeometry, MosModel};
use dso_spice::units::parse_value;
use dso_spice::waveform::{Pulse, Waveform};

const CASES: usize = 32;

#[test]
fn divider_matches_analytic() {
    let mut rng = TestRng::new(0x2001);
    for _ in 0..CASES {
        let r1 = rng.log_range(100.0, 1e6);
        let r2 = rng.log_range(100.0, 1e6);
        let v = rng.range(0.5, 5.0);
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.add_vsource("V1", vin, Circuit::GROUND, Waveform::Dc(v))
            .expect("adds");
        ckt.add_resistor("R1", vin, mid, r1).expect("adds");
        ckt.add_resistor("R2", mid, Circuit::GROUND, r2)
            .expect("adds");
        let op = Simulator::new(&ckt).dc_operating_point().expect("solves");
        let expected = v * r2 / (r1 + r2);
        let got = op.voltage("mid").expect("node exists");
        assert!(
            (got - expected).abs() < 1e-6 * expected.max(1.0),
            "{got} vs {expected}"
        );
    }
}

#[test]
fn rc_discharge_matches_exponential() {
    let mut rng = TestRng::new(0x2002);
    for _ in 0..CASES {
        let r = rng.log_range(1e2, 1e5);
        let c = rng.log_range(1e-12, 1e-9);
        let v0 = rng.range(0.5, 3.0);
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.add_resistor("R1", out, Circuit::GROUND, r)
            .expect("adds");
        ckt.add_capacitor_ic("C1", out, Circuit::GROUND, c, Some(v0))
            .expect("adds");
        let tau = r * c;
        let opts = TranOptions::new(2.0 * tau, tau / 100.0)
            .expect("valid options")
            .with_ic(Vec::new());
        let result = Simulator::new(&ckt).transient(&opts).expect("converges");
        let v_tau = result.voltage_at("out", tau).expect("in range");
        let expected = v0 * (-1.0f64).exp();
        assert!(
            (v_tau - expected).abs() < 0.01 * v0,
            "tau={tau:e}: {v_tau} vs {expected}"
        );
    }
}

#[test]
fn kcl_current_balance() {
    // Two parallel resistors: the source current is the sum of the branch
    // currents.
    let mut rng = TestRng::new(0x2003);
    for _ in 0..CASES {
        let r1 = rng.log_range(1e2, 1e5);
        let r2 = rng.log_range(1e2, 1e5);
        let v = rng.range(0.5, 5.0);
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        ckt.add_vsource("V1", vin, Circuit::GROUND, Waveform::Dc(v))
            .expect("adds");
        ckt.add_resistor("R1", vin, Circuit::GROUND, r1)
            .expect("adds");
        ckt.add_resistor("R2", vin, Circuit::GROUND, r2)
            .expect("adds");
        let op = Simulator::new(&ckt).dc_operating_point().expect("solves");
        let i = op.current("V1").expect("source exists").abs();
        let expected = v / r1 + v / r2;
        // The gmin leak (1 pS per node) adds ~v * 1e-12 A.
        let tol = 1e-9 * expected + 1e-11 * v;
        assert!((i - expected).abs() < tol, "{i} vs {expected}");
    }
}

#[test]
fn mosfet_derivatives_match_finite_difference() {
    let mut rng = TestRng::new(0x2004);
    let model = MosModel::default();
    let g = MosGeometry::new(1e-6, 0.3e-6).expect("valid");
    let h = 1e-6;
    let mut checked = 0;
    while checked < CASES {
        let vgs = rng.range(0.0, 2.4);
        let vds = rng.range(-2.4, 2.4);
        let vbs = rng.range(-1.0, 0.0);
        let temp = rng.range(-33.0, 87.0);
        // Skip points near the vds=0 kink where one-sided behaviour
        // dominates the central difference.
        if vds.abs() <= 1e-3 {
            continue;
        }
        checked += 1;
        let e = evaluate(&model, g, vgs, vds, vbs, temp);
        let gm_fd = (evaluate(&model, g, vgs + h, vds, vbs, temp).ids
            - evaluate(&model, g, vgs - h, vds, vbs, temp).ids)
            / (2.0 * h);
        let gds_fd = (evaluate(&model, g, vgs, vds + h, vbs, temp).ids
            - evaluate(&model, g, vgs, vds - h, vbs, temp).ids)
            / (2.0 * h);
        let scale = gm_fd.abs().max(1e-9);
        assert!(
            (e.gm - gm_fd).abs() / scale < 2e-2,
            "gm {} vs {}",
            e.gm,
            gm_fd
        );
        let scale = gds_fd.abs().max(1e-9);
        assert!(
            (e.gds - gds_fd).abs() / scale < 5e-2,
            "gds {} vs {}",
            e.gds,
            gds_fd
        );
    }
}

#[test]
fn mosfet_current_monotone_in_vgs() {
    let mut rng = TestRng::new(0x2005);
    let model = MosModel::default();
    let g = MosGeometry::new(1e-6, 0.3e-6).expect("valid");
    for _ in 0..CASES {
        let vds = rng.range(0.05, 2.4);
        let temp = rng.range(-33.0, 87.0);
        let mut prev = f64::NEG_INFINITY;
        let mut vgs = 0.0;
        while vgs <= 2.4 {
            let ids = evaluate(&model, g, vgs, vds, 0.0, temp).ids;
            assert!(ids >= prev - 1e-15, "non-monotone at vgs={vgs}");
            prev = ids;
            vgs += 0.05;
        }
    }
}

#[test]
fn pulse_stays_within_levels() {
    let mut rng = TestRng::new(0x2006);
    for _ in 0..CASES {
        let v1 = rng.range(-3.0, 3.0);
        let v2 = rng.range(-3.0, 3.0);
        let t = rng.range(0.0, 500e-9);
        let p = Waveform::Pulse(Pulse {
            v1,
            v2,
            delay: 10e-9,
            rise: 5e-9,
            fall: 5e-9,
            width: 30e-9,
            period: 100e-9,
        });
        let v = p.eval(t);
        let lo = v1.min(v2);
        let hi = v1.max(v2);
        assert!(
            v >= lo - 1e-12 && v <= hi + 1e-12,
            "{v} outside [{lo}, {hi}]"
        );
    }
}

#[test]
fn parse_value_scales_correctly() {
    let mut rng = TestRng::new(0x2007);
    for _ in 0..CASES {
        let mantissa = rng.log_range(0.001, 999.0);
        for (suffix, scale) in [
            ("", 1.0),
            ("k", 1e3),
            ("meg", 1e6),
            ("g", 1e9),
            ("m", 1e-3),
            ("u", 1e-6),
            ("n", 1e-9),
            ("p", 1e-12),
            ("f", 1e-15),
        ] {
            let text = format!("{mantissa}{suffix}");
            let parsed = parse_value(&text).expect("valid number");
            let expected = mantissa * scale;
            assert!(
                (parsed - expected).abs() <= 1e-12 * expected.abs(),
                "{text}: {parsed} vs {expected}"
            );
        }
    }
}

#[test]
fn fixed_grid_runs_are_bitwise_prefixes() {
    // Warm-start seeding finds a seed's sample at the bitwise same time,
    // and an observation stopped at word-line closing must equal the full
    // run up to there: both rest on this grid.
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut rng = TestRng::new(0x2008);
    for _ in 0..CASES {
        let r = rng.log_range(1e2, 1e5);
        let c = rng.log_range(1e-12, 1e-10);
        let v0 = rng.range(0.5, 3.0);
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let tau = r * c;
        ckt.add_vsource(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::Pulse(Pulse {
                v1: 0.0,
                v2: v0,
                delay: 0.5 * tau,
                rise: 0.05 * tau,
                fall: 0.05 * tau,
                width: tau,
                period: f64::INFINITY,
            }),
        )
        .expect("adds");
        ckt.add_resistor("R1", vin, out, r).expect("adds");
        ckt.add_capacitor("C1", out, Circuit::GROUND, c)
            .expect("adds");
        let sim = Simulator::new(&ckt);
        let dt = tau / rng.range(20.0, 60.0);
        let t_stop = rng.range(2.0, 4.0) * tau;
        let full = sim
            .transient(&TranOptions::new(t_stop, dt).expect("valid"))
            .expect("converges");
        let times = full.times();
        let steps = times.len() - 1;
        for (k, &t) in times[..steps].iter().enumerate() {
            assert_eq!(t.to_bits(), (k as f64 * dt).to_bits(), "sample {k}");
        }
        assert_eq!(times[steps].to_bits(), t_stop.to_bits(), "last sample");

        let k = rng.index_range(2, steps);
        let short = sim
            .transient(&TranOptions::new(k as f64 * dt, dt).expect("valid"))
            .expect("converges");
        assert_eq!(short.len(), k + 1);
        assert_eq!(bits(short.times()), bits(&times[..=k]), "times to step {k}");
        for node in ["in", "out"] {
            assert_eq!(
                bits(&short.voltage(node).expect("node")),
                bits(&full.voltage(node).expect("node")[..=k]),
                "{node} to step {k}"
            );
        }
        // A step's solves do not depend on where the run stops, so the
        // solve count only grows with the stop step.
        let shorter = sim
            .transient(&TranOptions::new((k - 1) as f64 * dt, dt).expect("valid"))
            .expect("converges");
        let attempts = |r: &TranResult| r.recovery().solve_attempts;
        assert!(
            attempts(&shorter) < attempts(&short) && attempts(&short) < attempts(&full),
            "solve attempts {} / {} / {}",
            attempts(&shorter),
            attempts(&short),
            attempts(&full)
        );
    }
}

#[test]
fn netlist_numeric_round_trip() {
    // Build a deck textually and verify the parsed circuit solves to the
    // analytic answer.
    let mut rng = TestRng::new(0x2009);
    for _ in 0..CASES {
        let r = rng.log_range(1.0, 1e6);
        let v = rng.log_range(0.1, 10.0);
        let deck_text =
            format!("prop deck\nV1 in 0 DC {v:e}\nR1 in out {r:e}\nR2 out 0 {r:e}\n.end\n");
        let deck = dso_spice::netlist::parse(&deck_text).expect("parses");
        let op = Simulator::new(&deck.circuit)
            .dc_operating_point()
            .expect("solves");
        let got = op.voltage("out").expect("node exists");
        assert!((got - v / 2.0).abs() < 1e-6 * v, "{got} vs {}", v / 2.0);
    }
}

/// The device models as they read before their constants were folded
/// ([`prepare`](dso_spice::mos::prepare) and friends): every call
/// recomputes the temperature and geometry terms. Kept here as the
/// reference the prepared models must match bit for bit.
mod reference {
    use dso_spice::diode::DiodeModel;
    use dso_spice::mos::{MosEval, MosGeometry, MosModel};
    use dso_spice::{thermal_voltage, CELSIUS_TO_KELVIN};

    /// Which branches one reference evaluation took.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct MosBranches {
        pub swapped: bool,
        pub strong: bool,
        pub deep_cutoff: bool,
        pub body_clamped: bool,
    }

    pub fn mos_evaluate(
        model: &MosModel,
        geometry: MosGeometry,
        vgs: f64,
        vds: f64,
        vbs: f64,
        temp: f64,
        taken: &mut MosBranches,
    ) -> MosEval {
        let sign = model.polarity.sign();
        let (vgs_n, vds_n, vbs_n) = (sign * vgs, sign * vds, sign * vbs);
        let eval = if vds_n >= 0.0 {
            nchannel(model, geometry, vgs_n, vds_n, vbs_n, temp, taken)
        } else {
            taken.swapped = true;
            let swapped = nchannel(
                model,
                geometry,
                vgs_n - vds_n,
                -vds_n,
                vbs_n - vds_n,
                temp,
                taken,
            );
            MosEval {
                ids: -swapped.ids,
                gm: -swapped.gm,
                gds: swapped.gm + swapped.gds + swapped.gmbs,
                gmbs: -swapped.gmbs,
            }
        };
        MosEval {
            ids: sign * eval.ids,
            gm: eval.gm,
            gds: eval.gds,
            gmbs: eval.gmbs,
        }
    }

    fn nchannel(
        model: &MosModel,
        geometry: MosGeometry,
        vgs: f64,
        vds: f64,
        vbs: f64,
        temp: f64,
        taken: &mut MosBranches,
    ) -> MosEval {
        let t = temp + CELSIUS_TO_KELVIN;
        let tn = model.tnom + CELSIUS_TO_KELVIN;
        let kp = model.kp * (t / tn).powf(model.bex);
        let beta = kp * (geometry.w / geometry.l);
        let vt = thermal_voltage(temp);

        let vbs_lim = vbs.min(0.5 * model.phi);
        taken.body_clamped |= vbs >= 0.5 * model.phi;
        let sqrt_arg = (model.phi - vbs_lim).max(1e-12);
        let sqrt_term = sqrt_arg.sqrt();
        let vth0 = model.vto.abs() - model.tcv * (temp - model.tnom);
        let vth = vth0 + model.gamma * (sqrt_term - model.phi.sqrt());
        let dvth_dvbs = if vbs < 0.5 * model.phi {
            -0.5 * model.gamma / sqrt_term
        } else {
            0.0
        };

        let vov = vgs - vth;
        let nvt = model.n_sub * vt;
        let u = vov / (2.0 * nvt);
        let (veff, sigma) = if u > 40.0 {
            taken.strong = true;
            (vov, 1.0)
        } else if u < -40.0 {
            taken.deep_cutoff = true;
            let e = u.exp();
            (2.0 * nvt * e, e / (1.0 + e))
        } else {
            let e = u.exp();
            (2.0 * nvt * e.ln_1p(), e / (1.0 + e))
        };

        let clm = 1.0 + model.lambda * vds;
        let (ids, gm, gds) = if vds < veff {
            let core = veff * vds - 0.5 * vds * vds;
            (
                beta * core * clm,
                beta * vds * clm * sigma,
                beta * ((veff - vds) * clm + core * model.lambda),
            )
        } else {
            (
                0.5 * beta * veff * veff * clm,
                beta * veff * clm * sigma,
                0.5 * beta * veff * veff * model.lambda,
            )
        };
        let gm = gm.max(0.0);
        MosEval {
            ids,
            gm,
            gds: gds.max(1e-15),
            gmbs: gm * (-dvth_dvbs),
        }
    }

    pub fn switch_conductance(
        vc: f64,
        ron: f64,
        roff: f64,
        threshold: f64,
        transition: f64,
    ) -> (f64, f64) {
        let smoothstep = |x: f64| {
            if x <= 0.0 {
                (0.0, 0.0)
            } else if x >= 1.0 {
                (1.0, 0.0)
            } else {
                (x * x * (3.0 - 2.0 * x), 6.0 * x * (1.0 - x))
            }
        };
        let g_on = 1.0 / ron;
        let g_off = 1.0 / roff;
        let half = 0.5 * transition.max(1e-9);
        let x = (vc - (threshold - half)) / (2.0 * half);
        let (s, ds_dx) = smoothstep(x);
        let g = g_off + (g_on - g_off) * s;
        let dg_dvc = (g_on - g_off) * ds_dx / (2.0 * half);
        (g, dg_dvc)
    }

    pub fn diode_evaluate(model: &DiodeModel, vd: f64, temp: f64) -> (f64, f64) {
        let is_at = |temp: f64| {
            let t = temp + CELSIUS_TO_KELVIN;
            let tn = model.tnom + CELSIUS_TO_KELVIN;
            let vt = thermal_voltage(temp);
            let ratio = t / tn;
            model.is_sat
                * ratio.powf(model.xti / model.n)
                * ((model.eg / (model.n * vt)) * (1.0 - tn / t)).exp()
        };
        let vt = model.n * thermal_voltage(temp);
        let is_t = is_at(temp);
        let vmax = 40.0 * vt;
        if vd <= vmax {
            let e = (vd / vt).exp();
            let i = is_t * (e - 1.0);
            let g = (is_t * e / vt).max(1e-15);
            (i, g)
        } else {
            let e = (vmax / vt).exp();
            let g = is_t * e / vt;
            let i = is_t * (e - 1.0) + g * (vd - vmax);
            (i, g)
        }
    }
}

const MODEL_TEMPS: [f64; 4] = [-40.0, 27.0, 87.0, 125.0];

#[test]
fn prepared_mosfet_matches_the_reference_model_bit_for_bit() {
    use dso_spice::mos::{evaluate_prepared, prepare};
    let bits = |e: dso_spice::mos::MosEval| [e.ids, e.gm, e.gds, e.gmbs].map(f64::to_bits);
    let mut rng = TestRng::new(0x2010);
    let mut seen = [0usize; 5];
    for case in 0..400 {
        let base = if case % 2 == 0 {
            MosModel::default()
        } else {
            MosModel::default_pmos()
        };
        let model = MosModel {
            kp: base.kp * rng.range(0.5, 2.0),
            lambda: rng.range(0.0, 0.1),
            gamma: rng.range(0.0, 0.8),
            phi: rng.range(0.5, 0.9),
            n_sub: rng.range(1.0, 2.0),
            ..base
        };
        let geometry = MosGeometry::new(rng.log_range(0.2e-6, 20e-6), rng.log_range(0.1e-6, 2e-6))
            .expect("valid geometry");
        let temp = MODEL_TEMPS[case % MODEL_TEMPS.len()];
        let prepared = prepare(&model, geometry, temp);
        for _ in 0..8 {
            // Wide enough that |u| exceeds 40 both ways, vds takes both
            // signs and forward body bias reaches the clamp.
            let vgs = rng.range(-6.0, 6.0);
            let vds = rng.range(-3.0, 3.0);
            let vbs = rng.range(-2.0, 1.0);
            let mut taken = reference::MosBranches::default();
            let want = reference::mos_evaluate(&model, geometry, vgs, vds, vbs, temp, &mut taken);
            let got = evaluate_prepared(&prepared, vgs, vds, vbs);
            assert_eq!(
                bits(got),
                bits(want),
                "{model:?} {geometry:?} at {temp} °C, ({vgs}, {vds}, {vbs})"
            );
            assert_eq!(
                bits(evaluate(&model, geometry, vgs, vds, vbs, temp)),
                bits(want),
                "wrapper"
            );
            for (slot, hit) in seen.iter_mut().zip([
                taken.swapped,
                taken.strong,
                taken.deep_cutoff,
                taken.body_clamped,
                !taken.strong && !taken.deep_cutoff,
            ]) {
                *slot += usize::from(hit);
            }
        }
    }
    // Every branch of the model was exercised: swap, |u| > 40 both ways,
    // the body-bias clamp and the smooth region.
    assert!(seen.iter().all(|&n| n >= 20), "branch coverage {seen:?}");
}

#[test]
fn prepared_switch_matches_the_reference_model_bit_for_bit() {
    use dso_spice::device::{prepare_switch, switch_conductance};
    let mut rng = TestRng::new(0x2011);
    let (mut inside, mut outside) = (0, 0);
    for _ in 0..200 {
        let ron = rng.log_range(1.0, 1e4);
        let roff = rng.log_range(1e6, 1e13);
        let threshold = rng.range(-1.0, 2.5);
        // Include transitions below the 1 nV floor.
        let transition = if rng.next_bool() {
            rng.log_range(1e-3, 0.5)
        } else {
            rng.log_range(1e-12, 1e-8)
        };
        let prepared = prepare_switch(ron, roff, threshold, transition);
        for _ in 0..8 {
            let vc = if rng.next_bool() {
                threshold + rng.range(-0.5, 0.5) * transition
            } else {
                rng.range(-3.0, 4.0)
            };
            let want = reference::switch_conductance(vc, ron, roff, threshold, transition);
            let got = prepared.evaluate(vc);
            let bits = |(g, dg): (f64, f64)| (g.to_bits(), dg.to_bits());
            assert_eq!(
                bits(got),
                bits(want),
                "ron {ron} roff {roff} vt {threshold} tr {transition} vc {vc}"
            );
            assert_eq!(
                bits(switch_conductance(vc, ron, roff, threshold, transition)),
                bits(want)
            );
            if want.1 != 0.0 {
                inside += 1;
            } else {
                outside += 1;
            }
        }
    }
    assert!(
        inside >= 100 && outside >= 100,
        "{inside} inside, {outside} outside"
    );
}

#[test]
fn prepared_diode_matches_the_reference_model_bit_for_bit() {
    use dso_spice::diode::DiodeModel;
    let mut rng = TestRng::new(0x2012);
    let (mut exponential, mut linearized) = (0, 0);
    for case in 0..200 {
        let model = DiodeModel {
            is_sat: rng.log_range(1e-18, 1e-12),
            n: rng.range(1.0, 2.0),
            xti: rng.range(2.0, 4.0),
            eg: rng.range(0.6, 1.2),
            ..DiodeModel::default()
        };
        let temp = MODEL_TEMPS[case % MODEL_TEMPS.len()];
        let prepared = model.prepare(temp);
        for _ in 0..8 {
            // Past 40·n·vt (≈ 1.4–3.3 V over these cards and temperatures)
            // the exponential is linearized.
            let vd = rng.range(-2.0, 5.0);
            let want = reference::diode_evaluate(&model, vd, temp);
            let bits = |(i, g): (f64, f64)| (i.to_bits(), g.to_bits());
            assert_eq!(
                bits(prepared.evaluate(vd)),
                bits(want),
                "{model:?} at {temp} °C, vd {vd}"
            );
            assert_eq!(bits(model.evaluate(vd, temp)), bits(want));
            if vd <= 40.0 * model.n * dso_spice::thermal_voltage(temp) {
                exponential += 1;
            } else {
                linearized += 1;
            }
        }
    }
    assert!(
        exponential >= 100 && linearized >= 100,
        "{exponential} / {linearized}"
    );
}
