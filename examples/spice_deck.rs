//! Using the SPICE substrate directly: parse a classic text netlist of a
//! defective cell test bench and simulate a write-0 cycle.
//!
//! The word-line source runs from its node to ground, so the solver pins
//! that node to the source's value; the bit line is driven through a 0 V
//! ammeter source between two non-ground nodes, which pins nothing and
//! keeps its branch current as a Newton unknown.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example spice_deck
//! ```

use dram_stress_opt::spice::engine::{Simulator, TranOptions};
use dram_stress_opt::spice::netlist;

const DECK: &str = "\
defective cell write-0 bench
* A storage cell (packaged as a subcircuit) behind a 200k open; the bit
* line is driven low after 10 ns through the access transistor, as during
* the write phase of a w0 cycle. Vmeas measures the bit-line current.
.subckt cell1t bl wl
Macc  bl   wl  xs  0  NACC W=0.15u L=0.5u
Rop   xs   st 200k
Cs    st   0  30f
.ends
Vbl   bld  0  PWL(0 1.2 10n 1.2 11n 0)
Vmeas bl   bld DC 0
Vwl   wl   0  EXP(0 2.8 5n 0.5n 50n 0.5n)
Xc    bl   wl cell1t
.model NACC NMOS (VTO=0.55 KP=120u LAMBDA=0.03 GAMMA=0.4 PHI=0.7 BEX=-2.0)
.ic V(xc.st)=2.4 V(xc.xs)=2.4
.tran 0.05n 60n UIC
.temp 27
.end
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let deck = netlist::parse(DECK)?;
    println!("parsed deck: `{}`", deck.title);
    println!(
        "  {} devices, {} nodes",
        deck.circuit.device_count(),
        deck.circuit.node_count()
    );

    let tran = deck.tran.ok_or("deck has no .tran directive")?;
    let options = TranOptions::new(tran.stop, tran.step)?.with_ic(deck.initial_conditions.clone());
    let sim = Simulator::new(&deck.circuit).with_temperature(deck.temperature.unwrap_or(27.0));
    let result = sim.transient(&options)?;

    println!();
    println!("cell voltage during the write-0:");
    for &t in &[0.0, 10e-9, 20e-9, 30e-9, 40e-9, 50e-9, 60e-9] {
        println!(
            "  t = {:>5.1} ns: Vc = {:.3} V",
            t * 1e9,
            result.voltage_at("xc.st", t)?
        );
    }
    let i_bl = result.current("Vmeas")?;
    let peak = i_bl.iter().fold(0.0_f64, |m, i| m.max(i.abs()));
    println!("peak bit-line current through Vmeas: {:.2} uA", peak * 1e6);
    let v_end = result.final_voltage("xc.st")?;
    println!();
    if v_end > 1.0 {
        println!("after the cycle the cell still holds {v_end:.3} V — the 200 kΩ open");
        println!("blocked the 0-write within this window.");
    } else {
        println!("with this bench's generous ~40 ns write window even the 200 kΩ open");
        println!("discharges fully (Vc ends at {v_end:.3} V) — in the real column the");
        println!("window is ~11 ns, which is what makes the same defect marginal.");
    }
    Ok(())
}
