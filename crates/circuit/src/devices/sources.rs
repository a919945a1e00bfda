//! Independent voltage and current sources and their drive waveforms.

use crate::mna::{
    register_branch_kcl, register_branch_voltage, stamp_branch_kcl, stamp_branch_voltage,
    stamp_current_leaving, EvalCtx,
};
use crate::netlist::Node;
use crate::workspace::{PatternBuilder, StampWorkspace};
use crate::Device;
use numkit::interp::Pwl;

/// Time-dependent source waveform.
///
/// The bit-pattern variant is the workhorse for driver experiments: it turns
/// a logic string such as `"010"` into a trapezoidal rail-to-rail waveform
/// with configurable bit time and edge times.
#[derive(Debug, Clone)]
pub enum SourceWaveform {
    /// Constant value.
    Dc(f64),
    /// Single step from `from` to `to`, linear edge of `rise` seconds
    /// starting at `delay`.
    Step {
        /// Initial value.
        from: f64,
        /// Final value.
        to: f64,
        /// Edge start time (seconds).
        delay: f64,
        /// Edge duration (seconds).
        rise: f64,
    },
    /// Single trapezoidal pulse.
    Pulse {
        /// Baseline value.
        low: f64,
        /// Pulse top value.
        high: f64,
        /// Time of the leading edge start (seconds).
        delay: f64,
        /// Rise time (seconds).
        rise: f64,
        /// Top width (seconds), excluding edges.
        width: f64,
        /// Fall time (seconds).
        fall: f64,
    },
    /// Arbitrary piecewise-linear waveform (clamped outside its range).
    Pwl(Pwl),
    /// Logic bit pattern rendered as a trapezoidal waveform.
    BitPattern {
        /// Bits, earliest first.
        bits: Vec<bool>,
        /// Bit period (seconds).
        bit_time: f64,
        /// Edge (rise and fall) duration (seconds).
        edge: f64,
        /// Logic-low voltage.
        low: f64,
        /// Logic-high voltage.
        high: f64,
        /// Start delay before the first bit boundary (seconds).
        delay: f64,
    },
}

impl SourceWaveform {
    /// Constant (DC) waveform.
    pub fn dc(value: f64) -> Self {
        SourceWaveform::Dc(value)
    }

    /// Step from `from` to `to` with edge duration `rise` starting at t = 0.
    pub fn step(from: f64, to: f64, rise: f64) -> Self {
        SourceWaveform::Step {
            from,
            to,
            delay: 0.0,
            rise,
        }
    }

    /// Parses a pattern string of `'0'`/`'1'` characters into a bit-pattern
    /// waveform.
    ///
    /// # Panics
    ///
    /// Panics if the string contains characters other than `0`/`1` — the
    /// pattern is part of the experiment definition, not runtime input.
    pub fn bit_pattern(
        pattern: &str,
        bit_time: f64,
        edge: f64,
        low: f64,
        high: f64,
        delay: f64,
    ) -> Self {
        let bits = pattern
            .chars()
            .map(|c| match c {
                '0' => false,
                '1' => true,
                other => panic!("invalid bit character '{other}' in pattern"),
            })
            .collect();
        SourceWaveform::BitPattern {
            bits,
            bit_time,
            edge,
            low,
            high,
            delay,
        }
    }

    /// Evaluates the waveform at time `t`.
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            SourceWaveform::Dc(v) => *v,
            SourceWaveform::Step {
                from,
                to,
                delay,
                rise,
            } => {
                if t <= *delay {
                    *from
                } else if t >= delay + rise {
                    *to
                } else {
                    from + (to - from) * (t - delay) / rise
                }
            }
            SourceWaveform::Pulse {
                low,
                high,
                delay,
                rise,
                width,
                fall,
            } => {
                let t = t - delay;
                if t <= 0.0 {
                    *low
                } else if t < *rise {
                    low + (high - low) * t / rise
                } else if t < rise + width {
                    *high
                } else if t < rise + width + fall {
                    high - (high - low) * (t - rise - width) / fall
                } else {
                    *low
                }
            }
            SourceWaveform::Pwl(pwl) => pwl.eval(t),
            SourceWaveform::BitPattern {
                bits,
                bit_time,
                edge,
                low,
                high,
                delay,
            } => {
                if bits.is_empty() {
                    return *low;
                }
                let level = |b: bool| if b { *high } else { *low };
                let tt = t - delay;
                if tt <= 0.0 {
                    return level(bits[0]);
                }
                let k = (tt / bit_time).floor() as usize;
                if k >= bits.len() {
                    return level(*bits.last().expect("non-empty bits"));
                }
                let cur = level(bits[k]);
                if k == 0 {
                    return cur;
                }
                let prev = level(bits[k - 1]);
                let t_in = tt - k as f64 * bit_time;
                if t_in < *edge && prev != cur {
                    prev + (cur - prev) * t_in / edge
                } else {
                    cur
                }
            }
        }
    }
}

/// An independent voltage source (one branch unknown).
#[derive(Debug, Clone)]
pub struct VoltageSource {
    label: String,
    a: Node,
    b: Node,
    wave: SourceWaveform,
    branch: usize,
}

impl VoltageSource {
    /// Creates a source with `a` as the positive terminal.
    pub fn new(label: impl Into<String>, a: Node, b: Node, wave: SourceWaveform) -> Self {
        VoltageSource {
            label: label.into(),
            a,
            b,
            wave,
            branch: usize::MAX,
        }
    }

    /// Zero-volt source used as an ammeter between `a` and `b`: the branch
    /// current (index 0) is the current flowing from `a` to `b`.
    pub fn probe(label: impl Into<String>, a: Node, b: Node) -> Self {
        Self::new(label, a, b, SourceWaveform::dc(0.0))
    }

    /// The drive waveform.
    pub fn waveform(&self) -> &SourceWaveform {
        &self.wave
    }

    /// Replaces the drive waveform in place. Together with
    /// [`crate::Circuit::device_mut`] this lets sweep harnesses update a
    /// source value between solves instead of rebuilding the circuit (the
    /// stamp pattern is unaffected, so cached solver structures stay valid).
    pub fn set_waveform(&mut self, wave: SourceWaveform) {
        self.wave = wave;
    }
}

impl Device for VoltageSource {
    fn label(&self) -> &str {
        &self.label
    }

    fn num_branches(&self) -> usize {
        1
    }

    fn set_branch_base(&mut self, base: usize) {
        self.branch = base;
    }

    fn register(&self, pb: &mut PatternBuilder) {
        let br = self.branch;
        register_branch_kcl(pb, self.a, self.b, br);
        register_branch_voltage(pb, br, self.a);
        register_branch_voltage(pb, br, self.b);
    }

    fn stamp(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        let br = self.branch;
        stamp_branch_kcl(ws, self.a, self.b, br);
        stamp_branch_voltage(ws, br, self.a, 1.0);
        stamp_branch_voltage(ws, br, self.b, -1.0);
        self.stamp_rhs(ctx, ws);
    }

    fn stamp_rhs(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        ws.rhs_add(self.branch, self.wave.value_at(ctx.mode.time()));
    }
}

/// An independent current source. Positive current flows from `a` to `b`
/// through the source (i.e. it is injected into node `b`).
#[derive(Debug, Clone)]
pub struct CurrentSource {
    label: String,
    a: Node,
    b: Node,
    wave: SourceWaveform,
}

impl CurrentSource {
    /// Creates a current source pushing current from `a` to `b`.
    pub fn new(label: impl Into<String>, a: Node, b: Node, wave: SourceWaveform) -> Self {
        CurrentSource {
            label: label.into(),
            a,
            b,
            wave,
        }
    }
}

impl Device for CurrentSource {
    fn label(&self) -> &str {
        &self.label
    }

    fn stamp(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        let i = self.wave.value_at(ctx.mode.time());
        stamp_current_leaving(ws, self.a, self.b, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_and_step() {
        assert_eq!(SourceWaveform::dc(2.5).value_at(1.0), 2.5);
        let s = SourceWaveform::step(0.0, 1.0, 1e-9);
        assert_eq!(s.value_at(-1.0), 0.0);
        assert_eq!(s.value_at(0.5e-9), 0.5);
        assert_eq!(s.value_at(2e-9), 1.0);
    }

    #[test]
    fn pulse_shape() {
        let p = SourceWaveform::Pulse {
            low: 0.0,
            high: 2.0,
            delay: 1.0,
            rise: 0.5,
            width: 1.0,
            fall: 0.5,
        };
        assert_eq!(p.value_at(0.0), 0.0);
        assert_eq!(p.value_at(1.25), 1.0);
        assert_eq!(p.value_at(2.0), 2.0);
        assert_eq!(p.value_at(2.75), 1.0);
        assert_eq!(p.value_at(5.0), 0.0);
    }

    #[test]
    fn bit_pattern_edges() {
        let w = SourceWaveform::bit_pattern("010", 1.0, 0.2, 0.0, 3.0, 0.0);
        // First bit low.
        assert_eq!(w.value_at(0.0), 0.0);
        assert_eq!(w.value_at(0.9), 0.0);
        // Rising edge at t = 1.0..1.2.
        assert!((w.value_at(1.1) - 1.5).abs() < 1e-12);
        assert_eq!(w.value_at(1.5), 3.0);
        // Falling edge at t = 2.0..2.2.
        assert!((w.value_at(2.1) - 1.5).abs() < 1e-12);
        assert_eq!(w.value_at(2.5), 0.0);
        // Holds last bit forever.
        assert_eq!(w.value_at(99.0), 0.0);
        // Before start: first bit value.
        assert_eq!(w.value_at(-1.0), 0.0);
    }

    #[test]
    fn bit_pattern_no_edge_between_equal_bits() {
        let w = SourceWaveform::bit_pattern("11", 1.0, 0.2, 0.0, 1.0, 0.0);
        assert_eq!(w.value_at(1.05), 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid bit character")]
    fn bit_pattern_rejects_garbage() {
        SourceWaveform::bit_pattern("01x", 1.0, 0.1, 0.0, 1.0, 0.0);
    }

    #[test]
    fn pwl_variant() {
        let pwl = Pwl::new(vec![0.0, 1.0], vec![0.0, 5.0]).unwrap();
        let w = SourceWaveform::Pwl(pwl);
        assert_eq!(w.value_at(0.5), 2.5);
    }

    #[test]
    fn probe_is_zero_volt() {
        let p = VoltageSource::probe("ip", Node::from_raw(1), Node::from_raw(2));
        match p.waveform() {
            SourceWaveform::Dc(v) => assert_eq!(*v, 0.0),
            _ => panic!("probe should be DC"),
        }
    }
}
