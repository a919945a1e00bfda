//! Linear inductor with a trapezoidal companion model (branch formulation).

use crate::mna::{
    register_branch_kcl, register_branch_voltage, stamp_branch_kcl, stamp_branch_voltage, EvalCtx,
    Mode,
};
use crate::netlist::Node;
use crate::workspace::{PatternBuilder, StampWorkspace};
use crate::Device;

/// A linear two-terminal inductor.
///
/// The inductor contributes one branch-current unknown. At DC it behaves as
/// a short circuit; in transient it uses the trapezoidal companion
/// `v = Req (i - i_prev) - v_prev` with `Req = 2L/dt`.
#[derive(Debug, Clone)]
pub struct Inductor {
    label: String,
    a: Node,
    b: Node,
    l: f64,
    branch: usize,
    i_prev: f64,
    v_prev: f64,
}

impl Inductor {
    /// Creates an inductor of `henries` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `henries` is not positive and finite.
    pub fn new(label: impl Into<String>, a: Node, b: Node, henries: f64) -> Self {
        assert!(
            henries > 0.0 && henries.is_finite(),
            "inductance must be positive and finite, got {henries}"
        );
        Inductor {
            label: label.into(),
            a,
            b,
            l: henries,
            branch: usize::MAX,
            i_prev: 0.0,
            v_prev: 0.0,
        }
    }

    /// Inductance in henries.
    pub fn inductance(&self) -> f64 {
        self.l
    }
}

impl Device for Inductor {
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
        pb.add(br, br); // transient companion resistance
    }

    fn stamp(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        let br = self.branch;
        stamp_branch_kcl(ws, self.a, self.b, br);
        stamp_branch_voltage(ws, br, self.a, 1.0);
        stamp_branch_voltage(ws, br, self.b, -1.0);
        // At DC a short circuit: v(a) - v(b) = 0; nothing more to stamp.
        if let Mode::Tran { dt, .. } = ctx.mode {
            // v - Req i = -(Req i_prev + v_prev)
            ws.add(br, br, -(2.0 * self.l / dt));
            self.stamp_rhs(ctx, ws);
        }
    }

    fn stamp_rhs(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        if let Mode::Tran { dt, .. } = ctx.mode {
            let req = 2.0 * self.l / dt;
            ws.rhs_add(self.branch, -(req * self.i_prev + self.v_prev));
        }
    }

    fn init_state(&mut self, ctx: &EvalCtx<'_>) {
        self.i_prev = ctx.branch(self.branch);
        self.v_prev = 0.0;
    }

    fn accept_step(&mut self, ctx: &EvalCtx<'_>) {
        if let Mode::Tran { dt, .. } = ctx.mode {
            let i = ctx.branch(self.branch);
            let req = 2.0 * self.l / dt;
            let v = req * (i - self.i_prev) - self.v_prev;
            self.i_prev = i;
            self.v_prev = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GROUND;

    #[test]
    fn dc_stamp_is_short() {
        let mut l = Inductor::new("l", Node::from_raw(1), GROUND, 1e-6);
        assert_eq!(l.inductance(), 1e-6);
        assert_eq!(l.num_branches(), 1);
        l.set_branch_base(1);
        let mut ws = StampWorkspace::dense(2);
        let x = [0.0, 0.0];
        let ctx = EvalCtx {
            x: &x,
            n_nodes: 2,
            mode: Mode::Dc,
        };
        l.stamp(&ctx, &mut ws);
        // Branch row: v(a) = 0 at DC (short).
        assert_eq!(ws.value_at(1, 0), 1.0);
        assert_eq!(ws.value_at(1, 1), 0.0);
        // KCL column coupling.
        assert_eq!(ws.value_at(0, 1), 1.0);
    }

    #[test]
    fn tran_stamp_has_req() {
        let mut l = Inductor::new("l", Node::from_raw(1), GROUND, 1e-6);
        l.set_branch_base(1);
        let x = [0.0, 0.0];
        l.init_state(&EvalCtx {
            x: &x,
            n_nodes: 2,
            mode: Mode::Dc,
        });
        let mut ws = StampWorkspace::dense(2);
        let ctx = EvalCtx {
            x: &x,
            n_nodes: 2,
            mode: Mode::Tran { t: 1e-9, dt: 1e-9 },
        };
        l.stamp(&ctx, &mut ws);
        let req = 2.0 * 1e-6 / 1e-9;
        assert!((ws.value_at(1, 1) + req).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero() {
        Inductor::new("bad", GROUND, GROUND, 0.0);
    }
}
