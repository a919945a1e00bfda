//! Ideal lossless transmission line (Branin's method of characteristics).

use crate::mna::{
    register_branch_kcl, register_branch_voltage, stamp_branch_kcl, stamp_branch_voltage, EvalCtx,
    Mode,
};
use crate::netlist::Node;
use crate::workspace::{PatternBuilder, StampWorkspace};
use crate::Device;

/// An ideal two-port lossless transmission line.
///
/// Implemented with the method of characteristics: each port sees its
/// characteristic impedance in series with a delayed voltage source carrying
/// the wave launched from the other port one delay earlier:
///
/// ```text
/// v1(t) - Z0 i1(t) = v2(t - Td) + Z0 i2(t - Td)
/// v2(t) - Z0 i2(t) = v1(t - Td) + Z0 i1(t - Td)
/// ```
///
/// At DC the line degenerates to an ideal connection (`v1 = v2`,
/// `i1 = -i2`). The history is stored as the wave sums `w = v + Z0 i` and
/// interpolated linearly, so the delay need not be a multiple of the step.
#[derive(Debug, Clone)]
pub struct IdealLine {
    label: String,
    a1: Node,
    b1: Node,
    a2: Node,
    b2: Node,
    z0: f64,
    td: f64,
    branch: usize,
    /// History of (time, w1, w2).
    hist: Vec<(f64, f64, f64)>,
}

impl IdealLine {
    /// Creates a line between port 1 `(a1, b1)` and port 2 `(a2, b2)`.
    ///
    /// # Panics
    ///
    /// Panics if `z0` or `td` is not positive and finite.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        label: impl Into<String>,
        a1: Node,
        b1: Node,
        a2: Node,
        b2: Node,
        z0: f64,
        td: f64,
    ) -> Self {
        assert!(
            z0 > 0.0 && z0.is_finite() && td > 0.0 && td.is_finite(),
            "line impedance and delay must be positive and finite"
        );
        IdealLine {
            label: label.into(),
            a1,
            b1,
            a2,
            b2,
            z0,
            td,
            branch: usize::MAX,
            hist: Vec::new(),
        }
    }

    /// Characteristic impedance (ohms).
    pub fn z0(&self) -> f64 {
        self.z0
    }

    /// One-way delay (seconds).
    pub fn td(&self) -> f64 {
        self.td
    }

    /// Looks up `(w1, w2)` at a (possibly negative) past time.
    fn waves_at(&self, t: f64) -> (f64, f64) {
        if self.hist.is_empty() {
            return (0.0, 0.0);
        }
        let first = self.hist[0];
        if t <= first.0 {
            return (first.1, first.2);
        }
        let last = *self.hist.last().expect("non-empty history");
        if t >= last.0 {
            return (last.1, last.2);
        }
        // Binary search on the time axis.
        let idx = self
            .hist
            .partition_point(|h| h.0 <= t)
            .clamp(1, self.hist.len() - 1);
        let (t0, w10, w20) = self.hist[idx - 1];
        let (t1, w11, w21) = self.hist[idx];
        let f = (t - t0) / (t1 - t0);
        (w10 + f * (w11 - w10), w20 + f * (w21 - w20))
    }

    fn port_values(&self, ctx: &EvalCtx<'_>) -> (f64, f64, f64, f64) {
        let v1 = ctx.v(self.a1) - ctx.v(self.b1);
        let v2 = ctx.v(self.a2) - ctx.v(self.b2);
        let i1 = ctx.branch(self.branch);
        let i2 = ctx.branch(self.branch + 1);
        (v1, i1, v2, i2)
    }
}

impl Device for IdealLine {
    fn label(&self) -> &str {
        &self.label
    }

    fn num_branches(&self) -> usize {
        2
    }

    fn set_branch_base(&mut self, base: usize) {
        self.branch = base;
    }

    fn register(&self, pb: &mut PatternBuilder) {
        let br1 = self.branch;
        let br2 = self.branch + 1;
        register_branch_kcl(pb, self.a1, self.b1, br1);
        register_branch_kcl(pb, self.a2, self.b2, br2);
        // Union of the DC (transparent connection) and transient (method of
        // characteristics) stamps.
        register_branch_voltage(pb, br1, self.a1);
        register_branch_voltage(pb, br1, self.b1);
        register_branch_voltage(pb, br1, self.a2);
        register_branch_voltage(pb, br1, self.b2);
        register_branch_voltage(pb, br2, self.a2);
        register_branch_voltage(pb, br2, self.b2);
        pb.add(br1, br1);
        pb.add(br2, br1);
        pb.add(br2, br2);
    }

    fn stamp(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        let br1 = self.branch;
        let br2 = self.branch + 1;
        stamp_branch_kcl(ws, self.a1, self.b1, br1);
        stamp_branch_kcl(ws, self.a2, self.b2, br2);
        match ctx.mode {
            Mode::Dc => {
                // v1 - v2 = 0
                stamp_branch_voltage(ws, br1, self.a1, 1.0);
                stamp_branch_voltage(ws, br1, self.b1, -1.0);
                stamp_branch_voltage(ws, br1, self.a2, -1.0);
                stamp_branch_voltage(ws, br1, self.b2, 1.0);
                // i1 + i2 = 0
                ws.add(br2, br1, 1.0);
                ws.add(br2, br2, 1.0);
            }
            Mode::Tran { .. } => {
                // v1 - Z0 i1 = w2(t - Td)
                stamp_branch_voltage(ws, br1, self.a1, 1.0);
                stamp_branch_voltage(ws, br1, self.b1, -1.0);
                ws.add(br1, br1, -self.z0);
                // v2 - Z0 i2 = w1(t - Td)
                stamp_branch_voltage(ws, br2, self.a2, 1.0);
                stamp_branch_voltage(ws, br2, self.b2, -1.0);
                ws.add(br2, br2, -self.z0);
                self.stamp_rhs(ctx, ws);
            }
        }
    }

    fn stamp_rhs(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        if let Mode::Tran { t, .. } = ctx.mode {
            let (w1_del, w2_del) = self.waves_at(t - self.td);
            ws.rhs_add(self.branch, w2_del);
            ws.rhs_add(self.branch + 1, w1_del);
        }
    }

    fn init_state(&mut self, ctx: &EvalCtx<'_>) {
        let (v1, i1, v2, i2) = self.port_values(ctx);
        self.hist.clear();
        self.hist.push((0.0, v1 + self.z0 * i1, v2 + self.z0 * i2));
    }

    fn accept_step(&mut self, ctx: &EvalCtx<'_>) {
        if let Mode::Tran { t, .. } = ctx.mode {
            let (v1, i1, v2, i2) = self.port_values(ctx);
            self.hist.push((t, v1 + self.z0 * i1, v2 + self.z0 * i2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Resistor, SourceWaveform, VoltageSource};
    use crate::netlist::{Circuit, GROUND};
    use crate::transient::TranParams;

    /// Matched line: a step launched into a line terminated in Z0 arrives
    /// at the far end after exactly Td with amplitude V/2 (source divider).
    #[test]
    fn matched_line_pure_delay() {
        let z0 = 50.0;
        let td = 1e-9;
        let mut ckt = Circuit::new();
        let nsrc = ckt.node("src");
        let nin = ckt.node("in");
        let nout = ckt.node("out");
        ckt.add(VoltageSource::new(
            "v",
            nsrc,
            GROUND,
            SourceWaveform::step(0.0, 1.0, 1e-12),
        ));
        ckt.add(Resistor::new("rs", nsrc, nin, z0));
        ckt.add(IdealLine::new("t1", nin, GROUND, nout, GROUND, z0, td));
        ckt.add(Resistor::new("rl", nout, GROUND, z0));
        let res = ckt.transient(TranParams::new(2.5e-11, 4e-9)).unwrap();
        let vout = res.voltage(nout);
        // Before the delay: zero.
        assert!(vout.sample_at(0.9e-9).abs() < 1e-6);
        // After the delay: V/2, no reflections ever.
        assert!((vout.sample_at(1.5e-9) - 0.5).abs() < 1e-3);
        assert!((vout.sample_at(3.9e-9) - 0.5).abs() < 1e-3);
    }

    /// Open-circuited line doubles the incident wave at the far end and the
    /// reflection returns after 2 Td.
    #[test]
    fn open_line_doubles() {
        let z0 = 50.0;
        let td = 1e-9;
        let mut ckt = Circuit::new();
        let nsrc = ckt.node("src");
        let nin = ckt.node("in");
        let nout = ckt.node("out");
        ckt.add(VoltageSource::new(
            "v",
            nsrc,
            GROUND,
            SourceWaveform::step(0.0, 1.0, 1e-12),
        ));
        ckt.add(Resistor::new("rs", nsrc, nin, z0));
        ckt.add(IdealLine::new("t1", nin, GROUND, nout, GROUND, z0, td));
        ckt.add(Resistor::new("rl", nout, GROUND, 1e9)); // effectively open
        let res = ckt.transient(TranParams::new(2.5e-11, 5e-9)).unwrap();
        let vout = res.voltage(nout);
        let vin = res.voltage(nin);
        // Far end jumps to full V at t = Td (0.5 incident + 0.5 reflected).
        assert!((vout.sample_at(1.5e-9) - 1.0).abs() < 1e-3);
        // Near end sits at 0.5 until the reflection arrives at 2 Td, then 1.0.
        assert!((vin.sample_at(1.5e-9) - 0.5).abs() < 1e-3);
        assert!((vin.sample_at(2.5e-9) - 1.0).abs() < 1e-3);
    }

    /// Shorted far end reflects with -1: the near end returns to 0 at 2 Td.
    #[test]
    fn shorted_line_cancels() {
        let z0 = 75.0;
        let td = 0.5e-9;
        let mut ckt = Circuit::new();
        let nsrc = ckt.node("src");
        let nin = ckt.node("in");
        let nout = ckt.node("out");
        ckt.add(VoltageSource::new(
            "v",
            nsrc,
            GROUND,
            SourceWaveform::step(0.0, 1.0, 1e-12),
        ));
        ckt.add(Resistor::new("rs", nsrc, nin, z0));
        ckt.add(IdealLine::new("t1", nin, GROUND, nout, GROUND, z0, td));
        ckt.add(Resistor::new("rl", nout, GROUND, 1e-3)); // short
        let res = ckt.transient(TranParams::new(1.25e-11, 3e-9)).unwrap();
        let vin = res.voltage(nin);
        assert!((vin.sample_at(0.8e-9) - 0.5).abs() < 1e-3);
        assert!(vin.sample_at(1.5e-9).abs() < 2e-3);
    }

    /// DC operating point treats the line as a transparent connection.
    #[test]
    fn dc_is_transparent() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(VoltageSource::new("v", a, GROUND, SourceWaveform::dc(2.0)));
        ckt.add(IdealLine::new("t1", a, GROUND, b, GROUND, 50.0, 1e-9));
        ckt.add(Resistor::new("rl", b, GROUND, 100.0));
        let x = ckt.dc_operating_point().unwrap();
        assert!((x[1] - 2.0).abs() < 1e-6, "far end must equal source at DC");
    }

    #[test]
    fn accessors_and_validation() {
        let l = IdealLine::new("t", GROUND, GROUND, GROUND, GROUND, 50.0, 1e-9);
        assert_eq!(l.z0(), 50.0);
        assert_eq!(l.td(), 1e-9);
        assert_eq!(l.num_branches(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_delay() {
        IdealLine::new("bad", GROUND, GROUND, GROUND, GROUND, 50.0, 0.0);
    }
}
