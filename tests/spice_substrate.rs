//! The SPICE substrate exercised through the umbrella crate: deck parsing,
//! DC and transient analysis against analytic expectations.

use dram_stress_opt::spice::circuit::Circuit;
use dram_stress_opt::spice::engine::{Simulator, StartMode, TranOptions};
use dram_stress_opt::spice::netlist;
use dram_stress_opt::spice::waveform::Waveform;
use dram_stress_opt::spice::SpiceError;

#[test]
fn deck_round_trip_matches_programmatic_circuit() {
    let deck = netlist::parse(
        "divider\n\
         V1 in 0 DC 2\n\
         R1 in mid 1k\n\
         R2 mid 0 3k\n\
         .end\n",
    )
    .unwrap();
    let op = Simulator::new(&deck.circuit).dc_operating_point().unwrap();
    assert!((op.voltage("mid").unwrap() - 1.5).abs() < 1e-6);

    let mut programmatic = Circuit::new();
    let vin = programmatic.node("in");
    let mid = programmatic.node("mid");
    programmatic
        .add_vsource("V1", vin, Circuit::GROUND, Waveform::Dc(2.0))
        .unwrap();
    programmatic.add_resistor("R1", vin, mid, 1e3).unwrap();
    programmatic
        .add_resistor("R2", mid, Circuit::GROUND, 3e3)
        .unwrap();
    let op2 = Simulator::new(&programmatic).dc_operating_point().unwrap();
    assert!((op.voltage("mid").unwrap() - op2.voltage("mid").unwrap()).abs() < 1e-12);
}

#[test]
fn rc_time_constant_from_deck() {
    let deck = netlist::parse(
        "rc\n\
         V1 in 0 DC 1\n\
         R1 in out 10k\n\
         C1 out 0 1p\n\
         .tran 0.05n 50n\n\
         .end\n",
    )
    .unwrap();
    let tran = deck.tran.unwrap();
    let opts = TranOptions::new(tran.stop, tran.step)
        .unwrap()
        .with_ic(vec![("out".into(), 0.0)]);
    let result = Simulator::new(&deck.circuit).transient(&opts).unwrap();
    // tau = 10 ns: at t = tau the output sits at 1 - 1/e.
    let v_tau = result.voltage_at("out", 10e-9).unwrap();
    let expected = 1.0 - (-1.0_f64).exp();
    assert!((v_tau - expected).abs() < 5e-3, "{v_tau} vs {expected}");
}

#[test]
fn bad_tran_grids_are_rejected() {
    // Each deck parses, but its grid is not `0 < step <= stop`: the
    // options constructor refuses it, and so does the engine when the
    // options are built as a struct literal.
    for tran in [".tran 0 50n", ".tran -1n 50n", ".tran 1n 0.5n"] {
        let deck = netlist::parse(&format!(
            "rc\nV1 in 0 DC 1\nR1 in out 10k\nC1 out 0 1p\n{tran}\n.end\n"
        ))
        .unwrap();
        let tran_dir = deck.tran.unwrap();
        assert!(
            matches!(
                TranOptions::new(tran_dir.stop, tran_dir.step),
                Err(SpiceError::BadAnalysis(_))
            ),
            "{tran}: constructor"
        );
        let literal = TranOptions {
            t_stop: tran_dir.stop,
            dt: tran_dir.step,
            method: Default::default(),
            start: StartMode::UseIc(Vec::new()),
        };
        assert!(
            matches!(
                Simulator::new(&deck.circuit).transient(&literal),
                Err(SpiceError::BadAnalysis(_))
            ),
            "{tran}: engine"
        );
    }
}

#[test]
fn temperature_is_a_first_class_stress() {
    // The same deck simulated at two temperatures gives different MOSFET
    // drive — the mechanism behind the paper's temperature stress.
    let deck = netlist::parse(
        "nmos load\n\
         Vd vdd 0 DC 2.4\n\
         Rl vdd out 100k\n\
         M1 out vdd 0 0 NX W=0.5u L=0.5u\n\
         .model NX NMOS (VTO=0.55 KP=120u BEX=-2.0)\n\
         .end\n",
    )
    .unwrap();
    let v_cold = Simulator::new(&deck.circuit)
        .with_temperature(-33.0)
        .dc_operating_point()
        .unwrap()
        .voltage("out")
        .unwrap();
    let v_hot = Simulator::new(&deck.circuit)
        .with_temperature(87.0)
        .dc_operating_point()
        .unwrap()
        .voltage("out")
        .unwrap();
    assert!(
        v_hot > v_cold + 1e-3,
        "hot transistor conducts less: cold {v_cold} vs hot {v_hot}"
    );
}
