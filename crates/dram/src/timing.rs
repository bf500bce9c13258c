//! Cycle timing: converts operation sequences into control-signal
//! waveforms.
//!
//! All events inside a cycle are placed at fixed *fractions* of the cycle
//! time, so shrinking `tcyc` proportionally shrinks every window — in
//! particular the word-line (write) window, which is the mechanism by which
//! the paper's timing stress works (Section 4.1). The duty cycle stretches
//! or squeezes the active (word-line-high) portion.

use crate::design::{BitLineSide, ColumnDesign, OperatingPoint};
use crate::ops::Operation;
use crate::DramError;
use dso_spice::waveform::Waveform;

/// Event times within one cycle, as fractions of `tcyc`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleSchedule {
    /// Precharge/equalize window end (starts at 0).
    pub precharge_end: f64,
    /// Word-line rise.
    pub wl_on: f64,
    /// Word-line fall — the end of the active window, set by the duty
    /// cycle.
    pub wl_off: f64,
    /// Sense-amplifier enable.
    pub sense_on: f64,
    /// Write-driver (column select) enable, writes only.
    pub write_on: f64,
    /// Sense-amplifier rails released back to `vdd/2`.
    pub sa_release: f64,
    /// Rise/fall time of every control edge.
    pub edge: f64,
}

impl CycleSchedule {
    /// Builds the schedule for a duty cycle in `[0.2, 0.8]`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BadOperatingPoint`] if `duty` is out of range.
    pub fn new(duty: f64) -> Result<Self, DramError> {
        if !(0.2..=0.8).contains(&duty) {
            return Err(DramError::BadOperatingPoint(format!(
                "duty cycle {duty} outside [0.2, 0.8]"
            )));
        }
        let wl_on = 0.15;
        let wl_off = wl_on + 0.70 * duty;
        let sense_on = (wl_on + 0.12).min(wl_off - 0.04);
        let write_on = (sense_on + 0.05).min(wl_off - 0.02);
        Ok(CycleSchedule {
            precharge_end: 0.12,
            wl_on,
            wl_off,
            sense_on,
            write_on,
            sa_release: 0.92,
            edge: 0.01,
        })
    }

    /// The instant (fraction of the cycle) at which the read value is
    /// observed: just before the word line closes.
    pub fn observe_at(&self) -> f64 {
        self.wl_off
    }
}

/// The full set of control waveforms for an operation sequence.
#[derive(Debug, Clone)]
pub struct ControlWaveforms {
    /// Precharge/equalize gate (boosted level when active).
    pub peq: Waveform,
    /// Victim word line on the true side.
    pub wl_true: Waveform,
    /// Victim word line on the complementary side.
    pub wl_comp: Waveform,
    /// Reference word line on the true side.
    pub wlr_true: Waveform,
    /// Reference word line on the complementary side.
    pub wlr_comp: Waveform,
    /// Sense-amp NMOS rail voltage (`vdd/2` idle, 0 when sensing).
    pub senn: Waveform,
    /// Sense-amp PMOS rail voltage (`vdd/2` idle, `vdd` when sensing).
    pub senp: Waveform,
    /// Column-select control (0/1 logic driving the write-driver
    /// switches).
    pub csl: Waveform,
    /// True data rail driven by the write driver.
    pub data_true: Waveform,
    /// Complementary data rail.
    pub data_comp: Waveform,
    /// Total simulated time (`n_ops · tcyc`).
    pub t_stop: f64,
}

/// A piecewise-constant signal accumulated as PWL breakpoints with ramped
/// edges.
struct SignalBuilder {
    points: Vec<(f64, f64)>,
    level: f64,
    edge: f64,
}

impl SignalBuilder {
    fn new(initial: f64, edge: f64) -> Self {
        SignalBuilder {
            points: vec![(0.0, initial)],
            level: initial,
            edge,
        }
    }

    /// Schedules a transition to `level` starting at time `t`.
    fn set_at(&mut self, t: f64, level: f64) {
        if (level - self.level).abs() < 1e-15 {
            return;
        }
        let last_t = self.points.last().expect("non-empty").0;
        let start = t.max(last_t + self.edge * 1e-3);
        self.points.push((start, self.level));
        self.points.push((start + self.edge, level));
        self.level = level;
    }

    fn into_waveform(self) -> Waveform {
        Waveform::Pwl(self.points)
    }
}

impl ControlWaveforms {
    /// Builds the control waveforms for `ops` applied to the victim cell on
    /// `side`, at operating point `op`.
    ///
    /// # Errors
    ///
    /// * [`DramError::BadSequence`] if `ops` is empty.
    /// * [`DramError::BadOperatingPoint`] if the operating point fails
    ///   validation.
    pub fn build(
        ops: &[Operation],
        side: BitLineSide,
        design: &ColumnDesign,
        op: &OperatingPoint,
    ) -> Result<Self, DramError> {
        if ops.is_empty() {
            return Err(DramError::BadSequence(
                "operation sequence must not be empty".into(),
            ));
        }
        op.validate()?;
        let schedule = CycleSchedule::new(op.duty)?;
        let tcyc = op.tcyc;
        let edge = schedule.edge * tcyc;
        let vhalf = 0.5 * op.vdd;
        let vpp = op.vdd + design.wl_boost;

        let mut peq = SignalBuilder::new(vpp, edge);
        let mut wl_v = SignalBuilder::new(0.0, edge);
        let mut wlr = SignalBuilder::new(0.0, edge);
        let mut senn = SignalBuilder::new(vhalf, edge);
        let mut senp = SignalBuilder::new(vhalf, edge);
        let mut csl = SignalBuilder::new(0.0, edge);
        let mut data_t = SignalBuilder::new(0.0, edge);
        let mut data_c = SignalBuilder::new(0.0, edge);

        for (k, operation) in ops.iter().enumerate() {
            let t0 = k as f64 * tcyc;
            // Precharge window at the start of each cycle. The builder's
            // initial level already covers cycle 0's opening.
            if k > 0 {
                peq.set_at(t0, vpp);
            }
            peq.set_at(t0 + schedule.precharge_end * tcyc, 0.0);
            if !operation.accesses_row() {
                // Idle (nop) cycle: precharge only, the cell floats.
                continue;
            }
            // Row activation.
            wl_v.set_at(t0 + schedule.wl_on * tcyc, vpp);
            wl_v.set_at(t0 + schedule.wl_off * tcyc, 0.0);
            wlr.set_at(t0 + schedule.wl_on * tcyc, vpp);
            wlr.set_at(t0 + schedule.wl_off * tcyc, 0.0);
            // Sensing.
            senn.set_at(t0 + schedule.sense_on * tcyc, 0.0);
            senp.set_at(t0 + schedule.sense_on * tcyc, op.vdd);
            senn.set_at(t0 + schedule.sa_release * tcyc, vhalf);
            senp.set_at(t0 + schedule.sa_release * tcyc, vhalf);
            // Write path.
            if let Some(bit) = operation.write_value() {
                let (vt, vc) = if bit { (op.vdd, 0.0) } else { (0.0, op.vdd) };
                data_t.set_at(t0 + (schedule.write_on - 0.03) * tcyc, vt);
                data_c.set_at(t0 + (schedule.write_on - 0.03) * tcyc, vc);
                csl.set_at(t0 + schedule.write_on * tcyc, 1.0);
                csl.set_at(t0 + (schedule.wl_off - 0.01) * tcyc, 0.0);
            }
        }

        let (wl_true, wl_comp, wlr_true, wlr_comp) = match side {
            // Accessing a true-side cell fires the comp-side reference.
            BitLineSide::True => (
                wl_v.into_waveform(),
                Waveform::Dc(0.0),
                Waveform::Dc(0.0),
                wlr.into_waveform(),
            ),
            BitLineSide::Comp => (
                Waveform::Dc(0.0),
                wl_v.into_waveform(),
                wlr.into_waveform(),
                Waveform::Dc(0.0),
            ),
        };

        Ok(ControlWaveforms {
            peq: peq.into_waveform(),
            wl_true,
            wl_comp,
            wlr_true,
            wlr_comp,
            senn: senn.into_waveform(),
            senp: senp.into_waveform(),
            csl: csl.into_waveform(),
            data_true: data_t.into_waveform(),
            data_comp: data_c.into_waveform(),
            t_stop: ops.len() as f64 * tcyc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_orders_events() {
        for duty in [0.2, 0.35, 0.5, 0.65, 0.8] {
            let s = CycleSchedule::new(duty).unwrap();
            assert!(s.precharge_end < s.wl_on);
            assert!(s.wl_on < s.sense_on);
            assert!(s.sense_on < s.write_on);
            assert!(s.write_on < s.wl_off, "duty {duty}");
            assert!(s.wl_off <= s.sa_release);
            assert_eq!(s.observe_at(), s.wl_off);
        }
    }

    #[test]
    fn schedule_rejects_bad_duty() {
        assert!(CycleSchedule::new(0.1).is_err());
        assert!(CycleSchedule::new(0.9).is_err());
    }

    #[test]
    fn duty_controls_wordline_window() {
        let narrow = CycleSchedule::new(0.3).unwrap();
        let wide = CycleSchedule::new(0.7).unwrap();
        assert!(wide.wl_off - wide.wl_on > narrow.wl_off - narrow.wl_on);
    }

    fn nominal_waveforms(ops: &[Operation]) -> ControlWaveforms {
        ControlWaveforms::build(
            ops,
            BitLineSide::True,
            &ColumnDesign::default(),
            &OperatingPoint::nominal(),
        )
        .unwrap()
    }

    #[test]
    fn empty_sequence_rejected() {
        let err = ControlWaveforms::build(
            &[],
            BitLineSide::True,
            &ColumnDesign::default(),
            &OperatingPoint::nominal(),
        )
        .unwrap_err();
        assert!(matches!(err, DramError::BadSequence(_)));
    }

    #[test]
    fn wordline_fires_within_cycle() {
        let w = nominal_waveforms(&[Operation::W1]);
        let tcyc = 60e-9;
        // Low before activation, boosted during the window, low after.
        let vpp = 2.4 + ColumnDesign::default().wl_boost;
        assert_eq!(w.wl_true.eval(0.05 * tcyc), 0.0);
        let mid = w.wl_true.eval(0.35 * tcyc);
        assert!((mid - vpp).abs() < 1e-9, "wl mid {mid}");
        assert_eq!(w.wl_true.eval(0.9 * tcyc), 0.0);
        // True-side access fires comp-side reference only.
        assert_eq!(w.wlr_true.eval(0.35 * tcyc), 0.0);
        assert!(w.wlr_comp.eval(0.35 * tcyc) > vpp - 0.1);
        assert_eq!(w.t_stop, tcyc);
    }

    #[test]
    fn write_data_rails_encode_bit() {
        let w1 = nominal_waveforms(&[Operation::W1]);
        let tcyc = 60e-9;
        let t_write = 0.45 * tcyc;
        assert!((w1.data_true.eval(t_write) - 2.4).abs() < 1e-9);
        assert_eq!(w1.data_comp.eval(t_write), 0.0);
        assert!(w1.csl.eval(t_write) > 0.9);

        let w0 = nominal_waveforms(&[Operation::W0]);
        assert_eq!(w0.data_true.eval(t_write), 0.0);
        assert!((w0.data_comp.eval(t_write) - 2.4).abs() < 1e-9);
    }

    #[test]
    fn read_keeps_write_driver_off() {
        let r = nominal_waveforms(&[Operation::R]);
        let tcyc = 60e-9;
        for frac in [0.1, 0.3, 0.45, 0.6, 0.9] {
            assert_eq!(r.csl.eval(frac * tcyc), 0.0, "at {frac}");
        }
    }

    #[test]
    fn sense_rails_split_and_release() {
        let w = nominal_waveforms(&[Operation::R, Operation::R]);
        let tcyc = 60e-9;
        // Idle at vdd/2 before sensing.
        assert!((w.senn.eval(0.2 * tcyc) - 1.2).abs() < 1e-9);
        // Split during sensing.
        assert!(w.senn.eval(0.5 * tcyc) < 0.01);
        assert!((w.senp.eval(0.5 * tcyc) - 2.4).abs() < 1e-9);
        // Released at cycle end, and again in the second cycle.
        assert!((w.senn.eval(0.99 * tcyc) - 1.2).abs() < 0.05);
        assert!(w.senn.eval(1.5 * tcyc) < 0.01);
    }

    #[test]
    fn comp_side_swaps_wordlines() {
        let w = ControlWaveforms::build(
            &[Operation::R],
            BitLineSide::Comp,
            &ColumnDesign::default(),
            &OperatingPoint::nominal(),
        )
        .unwrap();
        let tcyc = 60e-9;
        let vpp = 2.4 + ColumnDesign::default().wl_boost;
        assert_eq!(w.wl_true.eval(0.35 * tcyc), 0.0);
        assert!(w.wl_comp.eval(0.35 * tcyc) > vpp - 0.1);
        assert!(w.wlr_true.eval(0.35 * tcyc) > vpp - 0.1);
        assert_eq!(w.wlr_comp.eval(0.35 * tcyc), 0.0);
    }

    /// Every control signal of a waveform set, named.
    fn signals(w: &ControlWaveforms) -> [(&'static str, &Waveform); 10] {
        [
            ("peq", &w.peq),
            ("wl_true", &w.wl_true),
            ("wl_comp", &w.wl_comp),
            ("wlr_true", &w.wlr_true),
            ("wlr_comp", &w.wlr_comp),
            ("senn", &w.senn),
            ("senp", &w.senp),
            ("csl", &w.csl),
            ("data_true", &w.data_true),
            ("data_comp", &w.data_comp),
        ]
    }

    #[test]
    fn a_prefix_drives_the_same_controls_up_to_its_end() {
        use Operation::{Nop, R, W0, W1};
        let design = ColumnDesign::default();
        let all = [W0, W1, R, Nop];
        for tcyc in [60e-9, 55e-9] {
            let op = OperatingPoint {
                tcyc,
                ..OperatingPoint::nominal()
            };
            for fraction in [250.0, 600.0] {
                let dt = tcyc / fraction;
                for side in [BitLineSide::True, BitLineSide::Comp] {
                    for (a, b) in all.iter().flat_map(|&a| all.iter().map(move |&b| (a, b))) {
                        // The cut between `a` and `b`, after one and after
                        // two operations.
                        for (prefix, whole) in [(vec![a], vec![a, b]), (vec![a, a], vec![a, a, b])]
                        {
                            let short =
                                ControlWaveforms::build(&prefix, side, &design, &op).unwrap();
                            let long = ControlWaveforms::build(&whole, side, &design, &op).unwrap();
                            let steps = (short.t_stop / dt).round() as usize;
                            let times = (0..steps)
                                .map(|k| k as f64 * dt)
                                .chain(std::iter::once(short.t_stop));
                            for t in times {
                                for ((name, s), (_, l)) in
                                    signals(&short).iter().zip(signals(&long))
                                {
                                    assert_eq!(
                                        s.eval(t).to_bits(),
                                        l.eval(t).to_bits(),
                                        "{name} at {t:e}: {prefix:?} vs {whole:?}, {side:?}, \
                                         tcyc {tcyc:e}, 1/{fraction}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shorter_tcyc_shrinks_absolute_write_window() {
        let mut op = OperatingPoint::nominal();
        let w60 = ControlWaveforms::build(
            &[Operation::W0],
            BitLineSide::True,
            &ColumnDesign::default(),
            &op,
        )
        .unwrap();
        op.tcyc = 55e-9;
        let w55 = ControlWaveforms::build(
            &[Operation::W0],
            BitLineSide::True,
            &ColumnDesign::default(),
            &op,
        )
        .unwrap();
        // Measure the csl-high duration by sampling.
        let high_time = |w: &ControlWaveforms, tcyc: f64| -> f64 {
            let n = 2000;
            (0..n)
                .filter(|i| w.csl.eval(*i as f64 / n as f64 * tcyc) > 0.5)
                .count() as f64
                * tcyc
                / n as f64
        };
        let h60 = high_time(&w60, 60e-9);
        let h55 = high_time(&w55, 55e-9);
        assert!(h55 < h60, "55 ns window {h55} vs 60 ns window {h60}");
    }
}
