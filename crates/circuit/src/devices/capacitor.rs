//! Linear capacitor with a trapezoidal companion model.

use crate::mna::{register_conductance, stamp_conductance, stamp_current_leaving, EvalCtx, Mode};
use crate::netlist::Node;
use crate::workspace::{PatternBuilder, StampWorkspace};
use crate::Device;

/// A linear two-terminal capacitor.
///
/// During transient analysis the capacitor is replaced by its trapezoidal
/// companion model: a conductance `G = 2C/dt` in parallel with a history
/// current source. At DC the capacitor is an open circuit (only an optional
/// initial condition influences the first step when the DC solve is
/// skipped).
#[derive(Debug, Clone)]
pub struct Capacitor {
    label: String,
    a: Node,
    b: Node,
    c: f64,
    /// Optional initial voltage for `skip_dc` starts.
    ic: Option<f64>,
    /// Voltage across the device at the last accepted step.
    v_prev: f64,
    /// Device current at the last accepted step (a → b).
    i_prev: f64,
}

impl Capacitor {
    /// Creates a capacitor of `farads` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not positive and finite.
    pub fn new(label: impl Into<String>, a: Node, b: Node, farads: f64) -> Self {
        assert!(
            farads > 0.0 && farads.is_finite(),
            "capacitance must be positive and finite, got {farads}"
        );
        Capacitor {
            label: label.into(),
            a,
            b,
            c: farads,
            ic: None,
            v_prev: 0.0,
            i_prev: 0.0,
        }
    }

    /// Sets an initial voltage, used when the transient starts without a DC
    /// operating point (`TranParams::with_skip_dc`).
    pub fn with_ic(mut self, volts: f64) -> Self {
        self.ic = Some(volts);
        self
    }

    /// Capacitance in farads.
    pub fn capacitance(&self) -> f64 {
        self.c
    }

    fn v_ab(&self, ctx: &EvalCtx<'_>) -> f64 {
        ctx.v(self.a) - ctx.v(self.b)
    }
}

impl Device for Capacitor {
    fn label(&self) -> &str {
        &self.label
    }

    fn register(&self, pb: &mut PatternBuilder) {
        // Transient companion conductance; nothing extra at DC.
        register_conductance(pb, self.a, self.b);
    }

    fn stamp(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        // Open circuit at DC: nothing to stamp.
        if let Mode::Tran { dt, .. } = ctx.mode {
            // Trapezoidal: i = geq * v - (geq * v_prev + i_prev)
            stamp_conductance(ws, self.a, self.b, 2.0 * self.c / dt);
            self.stamp_rhs(ctx, ws);
        }
    }

    fn stamp_rhs(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        if let Mode::Tran { dt, .. } = ctx.mode {
            let geq = 2.0 * self.c / dt;
            let hist = geq * self.v_prev + self.i_prev;
            // `-hist` is a constant current leaving node a.
            stamp_current_leaving(ws, self.a, self.b, -hist);
        }
    }

    fn init_state(&mut self, ctx: &EvalCtx<'_>) {
        self.v_prev = match self.ic {
            Some(v) => v,
            None => self.v_ab(ctx),
        };
        self.i_prev = 0.0;
    }

    fn accept_step(&mut self, ctx: &EvalCtx<'_>) {
        if let Mode::Tran { dt, .. } = ctx.mode {
            let v = self.v_ab(ctx);
            let geq = 2.0 * self.c / dt;
            let i = geq * (v - self.v_prev) - self.i_prev;
            self.v_prev = v;
            self.i_prev = i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GROUND;

    #[test]
    fn dc_stamp_is_empty() {
        let c = Capacitor::new("c", Node::from_raw(1), GROUND, 1e-9);
        assert_eq!(c.capacitance(), 1e-9);
        let mut ws = StampWorkspace::dense(1);
        let x = [0.0];
        let ctx = EvalCtx {
            x: &x,
            n_nodes: 2,
            mode: Mode::Dc,
        };
        c.stamp(&ctx, &mut ws);
        assert_eq!(ws.value_at(0, 0), 0.0);
        assert_eq!(ws.rhs()[0], 0.0);
    }

    #[test]
    fn tran_stamp_has_companion() {
        let mut c = Capacitor::new("c", Node::from_raw(1), GROUND, 1e-9).with_ic(2.0);
        let x = [2.0];
        let dc_ctx = EvalCtx {
            x: &x,
            n_nodes: 2,
            mode: Mode::Dc,
        };
        c.init_state(&dc_ctx);
        let mut ws = StampWorkspace::dense(1);
        let ctx = EvalCtx {
            x: &x,
            n_nodes: 2,
            mode: Mode::Tran { t: 1e-9, dt: 1e-9 },
        };
        c.stamp(&ctx, &mut ws);
        let geq = 2.0 * 1e-9 / 1e-9;
        assert!((ws.value_at(0, 0) - geq).abs() < 1e-12);
        // History current: geq * v_prev with i_prev = 0.
        assert!((ws.rhs()[0] - geq * 2.0).abs() < 1e-12);
    }

    #[test]
    fn accept_step_tracks_current() {
        let mut c = Capacitor::new("c", Node::from_raw(1), GROUND, 1e-9);
        let x0 = [0.0];
        c.init_state(&EvalCtx {
            x: &x0,
            n_nodes: 2,
            mode: Mode::Dc,
        });
        // Voltage jumps to 1 V in one 1 ns step with C/dt = 1 S:
        // trapezoidal current i = (2C/dt) dv - i_prev = 2 A.
        let x1 = [1.0];
        c.accept_step(&EvalCtx {
            x: &x1,
            n_nodes: 2,
            mode: Mode::Tran { t: 1e-9, dt: 1e-9 },
        });
        assert!((c.i_prev - 2.0).abs() < 1e-12);
        assert_eq!(c.v_prev, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_negative() {
        Capacitor::new("bad", GROUND, GROUND, -1.0);
    }
}
