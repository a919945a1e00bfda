//! Magnetically coupled inductor bank (full inductance matrix).

use crate::mna::{
    register_branch_kcl, register_branch_voltage, stamp_branch_kcl, stamp_branch_voltage, EvalCtx,
    Mode,
};
use crate::netlist::Node;
use crate::workspace::{PatternBuilder, StampWorkspace};
use crate::Device;
use numkit::Matrix;

/// A bank of `k` inductors coupled through a full symmetric inductance
/// matrix `L` (henries):
///
/// ```text
/// v_j = sum_k L[j][k] * d(i_k)/dt
/// ```
///
/// This is the series element of a multiconductor transmission-line segment;
/// the off-diagonal terms carry the inductive crosstalk. Each inductor `j`
/// connects `a[j]` to `b[j]` and owns one branch-current unknown.
#[derive(Debug, Clone)]
pub struct CoupledInductors {
    label: String,
    a: Vec<Node>,
    b: Vec<Node>,
    l: Matrix,
    branch: usize,
    i_prev: Vec<f64>,
    v_prev: Vec<f64>,
    /// `accept_step`'s buffer for the new branch currents.
    i_new: Vec<f64>,
}

impl CoupledInductors {
    /// Creates a coupled bank. `l` must be square, symmetric and of the same
    /// dimension as the terminal lists.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or an asymmetric/non-positive-diagonal
    /// inductance matrix — these are netlist construction bugs.
    pub fn new(label: impl Into<String>, a: Vec<Node>, b: Vec<Node>, l: Matrix) -> Self {
        let k = a.len();
        assert!(k > 0, "coupled inductor bank must have at least one branch");
        assert_eq!(b.len(), k, "terminal lists must have equal length");
        assert_eq!(l.rows(), k, "inductance matrix dimension mismatch");
        assert_eq!(l.cols(), k, "inductance matrix dimension mismatch");
        for i in 0..k {
            assert!(l.get(i, i) > 0.0, "self inductances must be positive");
            for j in 0..k {
                assert!(
                    (l.get(i, j) - l.get(j, i)).abs() <= 1e-12 * l.get(i, i).abs(),
                    "inductance matrix must be symmetric"
                );
            }
        }
        CoupledInductors {
            label: label.into(),
            a,
            b,
            l,
            branch: usize::MAX,
            i_prev: vec![0.0; k],
            v_prev: vec![0.0; k],
            i_new: vec![0.0; k],
        }
    }

    /// Number of coupled branches.
    pub fn order(&self) -> usize {
        self.a.len()
    }
}

impl Device for CoupledInductors {
    fn label(&self) -> &str {
        &self.label
    }

    fn num_branches(&self) -> usize {
        self.a.len()
    }

    fn set_branch_base(&mut self, base: usize) {
        self.branch = base;
    }

    fn register(&self, pb: &mut PatternBuilder) {
        let k = self.order();
        for j in 0..k {
            let br = self.branch + j;
            register_branch_kcl(pb, self.a[j], self.b[j], br);
            register_branch_voltage(pb, br, self.a[j]);
            register_branch_voltage(pb, br, self.b[j]);
            // Dense branch-branch coupling block of the inductance matrix.
            for m in 0..k {
                pb.add(br, self.branch + m);
            }
        }
    }

    fn stamp(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        let k = self.order();
        for j in 0..k {
            let br = self.branch + j;
            stamp_branch_kcl(ws, self.a[j], self.b[j], br);
            stamp_branch_voltage(ws, br, self.a[j], 1.0);
            stamp_branch_voltage(ws, br, self.b[j], -1.0);
        }
        // At DC the rows already read v_aj - v_bj = 0.
        if let Mode::Tran { dt, .. } = ctx.mode {
            let f = 2.0 / dt;
            for j in 0..k {
                for m in 0..k {
                    ws.add(self.branch + j, self.branch + m, -(f * self.l.get(j, m)));
                }
            }
            self.stamp_rhs(ctx, ws);
        }
    }

    fn stamp_rhs(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        if let Mode::Tran { dt, .. } = ctx.mode {
            let f = 2.0 / dt;
            for j in 0..self.order() {
                let mut hist = -self.v_prev[j];
                for m in 0..self.order() {
                    hist -= f * self.l.get(j, m) * self.i_prev[m];
                }
                ws.rhs_add(self.branch + j, hist);
            }
        }
    }

    fn init_state(&mut self, ctx: &EvalCtx<'_>) {
        for j in 0..self.order() {
            self.i_prev[j] = ctx.branch(self.branch + j);
            self.v_prev[j] = 0.0;
        }
    }

    fn accept_step(&mut self, ctx: &EvalCtx<'_>) {
        if let Mode::Tran { dt, .. } = ctx.mode {
            let k = self.order();
            let f = 2.0 / dt;
            for (j, i) in self.i_new.iter_mut().enumerate() {
                *i = ctx.branch(self.branch + j);
            }
            for j in 0..k {
                let mut v = -self.v_prev[j];
                for m in 0..k {
                    v += f * self.l.get(j, m) * (self.i_new[m] - self.i_prev[m]);
                }
                self.v_prev[j] = v;
            }
            std::mem::swap(&mut self.i_prev, &mut self.i_new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Resistor, SourceWaveform, VoltageSource};
    use crate::netlist::{Circuit, GROUND};
    use crate::transient::TranParams;

    /// A single-branch bank must behave exactly like a plain inductor.
    #[test]
    fn single_branch_matches_inductor() {
        let l_val = 1e-6;
        let r = 10.0;
        let tau = l_val / r;

        let run = |use_bank: bool| {
            let mut ckt = Circuit::new();
            let nin = ckt.node("in");
            let nmid = ckt.node("mid");
            ckt.add(VoltageSource::new(
                "v",
                nin,
                GROUND,
                SourceWaveform::step(0.0, 1.0, 1e-12),
            ));
            ckt.add(Resistor::new("r", nin, nmid, r));
            let id = if use_bank {
                let l = Matrix::from_rows(&[&[l_val]]).unwrap();
                ckt.add(CoupledInductors::new("lb", vec![nmid], vec![GROUND], l))
            } else {
                ckt.add(crate::devices::Inductor::new("l", nmid, GROUND, l_val))
            };
            let res = ckt
                .transient(TranParams::new(tau / 100.0, 3.0 * tau))
                .unwrap();
            res.branch_current(&ckt, id, 0)
        };

        let bank = run(true);
        let plain = run(false);
        for (t, ib) in bank.times().iter().zip(bank.values()) {
            let ip = plain.sample_at(*t);
            assert!((ib - ip).abs() < 1e-9, "mismatch at t={t}");
        }
    }

    /// Two perfectly-coupled windings with equal L act as a 1:1 transformer:
    /// driving branch 1 induces the full voltage on open branch 2.
    #[test]
    fn mutual_coupling_induces_voltage() {
        let mut ckt = Circuit::new();
        let nin = ckt.node("in");
        let nmid = ckt.node("mid");
        let nsec = ckt.node("sec");
        ckt.add(VoltageSource::new(
            "v",
            nin,
            GROUND,
            SourceWaveform::step(0.0, 1.0, 1e-10),
        ));
        ckt.add(Resistor::new("r", nin, nmid, 50.0));
        // k = 0.99 coupling.
        let l = Matrix::from_rows(&[&[1e-6, 0.99e-6], &[0.99e-6, 1e-6]]).unwrap();
        ckt.add(CoupledInductors::new(
            "xfmr",
            vec![nmid, nsec],
            vec![GROUND, GROUND],
            l,
        ));
        // Light load on secondary so its node is not floating.
        ckt.add(Resistor::new("rload", nsec, GROUND, 1e6));
        let res = ckt.transient(TranParams::new(1e-10, 2e-8)).unwrap();
        let vp = res.voltage(nmid);
        let vs = res.voltage(nsec);
        // Early in the rise, the secondary voltage tracks ~k * primary.
        let t_probe = 3e-10;
        let ratio = vs.sample_at(t_probe) / vp.sample_at(t_probe);
        assert!((ratio - 0.99).abs() < 0.05, "coupling ratio {ratio}");
    }

    #[test]
    fn validation_panics() {
        let l = Matrix::from_rows(&[&[1e-6, 0.5e-6], &[0.4e-6, 1e-6]]).unwrap();
        let result = std::panic::catch_unwind(|| {
            CoupledInductors::new("bad", vec![GROUND, GROUND], vec![GROUND, GROUND], l)
        });
        assert!(result.is_err(), "asymmetric L must panic");
    }

    #[test]
    fn order_accessor() {
        let l = Matrix::from_rows(&[&[1e-6, 0.0], &[0.0, 1e-6]]).unwrap();
        let b = CoupledInductors::new("b", vec![GROUND, GROUND], vec![GROUND, GROUND], l);
        assert_eq!(b.order(), 2);
        assert_eq!(b.num_branches(), 2);
    }
}
