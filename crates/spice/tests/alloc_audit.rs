//! Allocation audit for transient simulation.
//!
//! A transient builds its MNA system once — including the compiled stamp
//! plan of its devices — and then steps without touching the heap: every
//! residual and Jacobian evaluation walks memory the system already owns.
//! The only storage that grows with the step count is the sample store,
//! which reserves fixed 64 KiB blocks (8192 values) up front. This test
//! wraps the global allocator with a thread-local counter and checks that
//! a 2000-step run allocates exactly as often as a 200-step run plus its
//! extra sample blocks.

use dso_spice::circuit::Circuit;
use dso_spice::diode::DiodeModel;
use dso_spice::engine::{Simulator, TranOptions, TranResult};
use dso_spice::mos::{MosGeometry, MosModel};
use dso_spice::waveform::{Pulse, Waveform};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        COUNTING.with(|c| {
            if c.get() {
                ALLOCS.with(|a| a.set(a.get() + 1));
            }
        });
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CountingAlloc::count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CountingAlloc::count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CountingAlloc::count();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counts heap allocations made by `f` on this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (usize, T) {
    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(|a| a.get()), out)
}

/// A CMOS inverter driven by a periodic pulse, loaded by a capacitor,
/// a clamp diode and a switch: every nonlinear device kind, switching on
/// every pulse edge.
fn inverter() -> Circuit {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    let load = ckt.node("load");
    let gnd = Circuit::GROUND;
    ckt.add_vsource("Vdd", vdd, gnd, Waveform::Dc(2.4)).unwrap();
    ckt.add_vsource(
        "Vin",
        inp,
        gnd,
        Waveform::Pulse(Pulse {
            v1: 0.0,
            v2: 2.4,
            delay: 1e-9,
            rise: 1e-10,
            fall: 1e-10,
            width: 4e-9,
            period: 1e-8,
        }),
    )
    .unwrap();
    let geometry = MosGeometry::new(1e-6, 0.25e-6).unwrap();
    ckt.add_mosfet("Mp", out, inp, vdd, vdd, MosModel::default_pmos(), geometry)
        .unwrap();
    ckt.add_mosfet("Mn", out, inp, gnd, gnd, MosModel::default(), geometry)
        .unwrap();
    ckt.add_capacitor("Cout", out, gnd, 20e-15).unwrap();
    ckt.add_diode("Dclamp", gnd, out, DiodeModel::default())
        .unwrap();
    ckt.add_vswitch("Sload", out, load, inp, gnd, 1e3, 1e12, 1.2)
        .unwrap();
    ckt.add_resistor("Rload", load, gnd, 1e5).unwrap();
    ckt.add_capacitor("Cload", load, gnd, 5e-15).unwrap();
    ckt
}

/// Sample blocks a run of `steps` steps reserves for `stride` unknowns.
fn sample_blocks(stride: usize, steps: usize) -> usize {
    let per_block = (8192 / stride).max(1);
    (steps + 1).div_ceil(per_block)
}

#[test]
fn transient_allocations_do_not_grow_with_the_step_count() {
    let ckt = inverter();
    let sim = Simulator::new(&ckt);
    let dt = 1e-10;
    // Unknowns: four node voltages and two source currents.
    let stride = ckt.node_count() - 1 + 2;
    let run = |steps: usize, seed: Option<&TranResult>| {
        let opts = TranOptions::new(steps as f64 * dt, dt).unwrap();
        allocations_in(|| sim.transient_seeded(&opts, seed).unwrap())
    };
    // One run first, so that process-wide lazy statics (the metrics
    // registry's handles) are in place before anything is counted.
    run(10, None);
    let (short, short_run) = run(200, None);
    let (long, long_run) = run(2000, None);
    assert!(short_run.recovery().is_clean() && long_run.recovery().is_clean());
    assert!(long_run.guess_at(0.0, stride).is_some(), "stride {stride}");
    let extra_blocks = sample_blocks(stride, 2000) - sample_blocks(stride, 200);
    assert!(extra_blocks > 0);
    assert_eq!(
        long - short,
        extra_blocks,
        "200 steps: {short} allocations, 2000 steps: {long}"
    );

    // Seeded from the runs above, every step also probes the seed's
    // guess against the continuation one.
    let (short_seeded, short_run) = run(200, Some(&short_run));
    let (long_seeded, long_run) = run(2000, Some(&long_run));
    assert!(short_run.recovery().is_clean() && long_run.recovery().is_clean());
    assert_eq!(
        long_seeded - short_seeded,
        extra_blocks,
        "seeded, 200 steps: {short_seeded} allocations, 2000 steps: {long_seeded}"
    );
}
