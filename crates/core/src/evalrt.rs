//! `evalrt` — batched, allocation-free stepping of the sampled models.
//!
//! Per-timestep model evaluation is the innermost loop of every transient
//! cell (fixtures, bus ladders, the `mdl serve` simulate path). The models
//! are their own runtime: each NARX submodel's [`RbfNetwork`] keeps its
//! centers in one row-major slab with the Gaussian scales precomputed, so a
//! [`PwRbfDriverModel`] or [`ReceiverModel`] is stepped as it was fitted,
//! shared through `Arc`, with nothing compiled or copied first. This module
//! holds the per-instance state:
//!
//! * [`DriverLanes`] / [`ReceiverLanes`] — `N` instances of one model
//!   advancing together. Histories are lane-major [`LaneRing`]s
//!   (`[history slot][lane]`), gathered into one lane-major regressor
//!   block per submodel. Below 8 lanes the RBF kernels evaluate that
//!   block lane by lane on the scalar kernel; from 8 up their inner loops
//!   run over lanes (see
//!   [`RbfNetwork::eval_grad0_lanes`](sysid::rbf::RbfNetwork::eval_grad0_lanes)).
//!   A single device is `N = 1`;
//! * [`EvalScratch`] — staging buffers (lane-major regressor,
//!   squared-distance row, per-lane values and gradients), allocated once
//!   per lane bank;
//! * [`LaneStim`] — one lane's logic edge schedule;
//! * [`settle_narx`] — the DC fixed point that seeds a submodel's history.
//!
//! `step()` and `commit()` perform **zero allocations**, asserted by a
//! counting-allocator test in `crates/core/tests/zero_alloc_step.rs`.
//! [`compile`] / [`CompiledModel`] keep the signature of the compile step
//! that preceded this design; they only share a copy of the model.
//!
//! # Numerical contract
//!
//! Each lane reproduces the scalar model paths
//! ([`NarxModel::one_step`](sysid::narx::NarxModel::one_step),
//! [`ArxModel::one_step`](sysid::arx::ArxModel::one_step)) bit for bit,
//! whichever kernel the lane count picks: every accumulation visits the
//! same terms in the same order.
//! `tests/proptest_evalrt.rs` checks the lanes against oracles that sum
//! the Gaussians themselves, for random models and lane counts, and
//! `tests/eval_golden.rs` pins the bits of fixed runs.
//!
//! [`RbfNetwork`]: sysid::rbf::RbfNetwork

use std::sync::Arc;

use crate::driver::PwRbfDriverModel;
use crate::exchange::AnyModel;
use crate::receiver::ReceiverModel;
use sysid::lanes::LaneRing;
use sysid::narx::NarxModel;

/// A scheduled logic edge.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    pub(crate) t: f64,
    pub(crate) rising: bool,
}

/// Per-lane logic stimulus: the edge schedule derived from a bit pattern.
///
/// Each lane of a [`DriverLanes`] bank carries its own `LaneStim`, so lanes
/// of one model can drive different patterns (e.g. the rotated patterns of
/// a bus ladder).
#[derive(Debug, Clone)]
pub struct LaneStim {
    pub(crate) edges: Vec<Edge>,
    pub(crate) initial_high: bool,
}
impl LaneStim {
    /// Builds the edge schedule for `pattern` (a `0`/`1` string) with the
    /// given bit time.
    ///
    /// # Panics
    ///
    /// Panics on an empty pattern, a non-`0`/`1` character or a bit time
    /// that is not positive (experiment definition errors): the edges must
    /// come out in time order for [`PwRbfDriverModel::weights_at`].
    pub fn from_pattern(pattern: &str, bit_time: f64) -> Self {
        assert!(bit_time > 0.0, "bit time must be positive, got {bit_time}");
        let bits: Vec<bool> = pattern
            .chars()
            .map(|c| match c {
                '0' => false,
                '1' => true,
                other => panic!("invalid bit character '{other}' in pattern"),
            })
            .collect();
        assert!(!bits.is_empty(), "pattern must not be empty");
        let mut edges = Vec::new();
        for k in 1..bits.len() {
            if bits[k] != bits[k - 1] {
                edges.push(Edge {
                    t: k as f64 * bit_time,
                    rising: bits[k],
                });
            }
        }
        LaneStim {
            edges,
            initial_high: bits[0],
        }
    }
}

/// Reusable staging buffers for batched stepping: one lane-major regressor
/// block plus per-lane accumulator rows. Allocated once per lane bank; the
/// hot path only ever writes into it.
#[derive(Debug, Clone)]
pub struct EvalScratch {
    /// Lane-major regressor staging, `dim_max * n_lanes`.
    x: Vec<f64>,
    /// Squared-distance accumulator row, `n_lanes`.
    d2: Vec<f64>,
    /// Per-lane staging rows (submodel values, gradients, weights).
    v0: Vec<f64>,
    g0: Vec<f64>,
    v1: Vec<f64>,
    g1: Vec<f64>,
    w0: Vec<f64>,
    w1: Vec<f64>,
}

impl EvalScratch {
    /// Scratch for `n_lanes` lanes of a model whose largest regressor has
    /// `dim_max` components.
    pub fn new(dim_max: usize, n_lanes: usize) -> Self {
        EvalScratch {
            x: vec![0.0; dim_max.max(1) * n_lanes],
            d2: vec![0.0; n_lanes],
            v0: vec![0.0; n_lanes],
            g0: vec![0.0; n_lanes],
            v1: vec![0.0; n_lanes],
            g1: vec![0.0; n_lanes],
            w0: vec![0.0; n_lanes],
            w1: vec![0.0; n_lanes],
        }
    }
}

/// Settles a NARX submodel's output by fixed-point iteration at a constant
/// input `v`, to seed its history from a DC operating point. The regressor
/// is staged in caller scratch (`x.len() >= model.orders().dim()`).
///
/// # Panics
///
/// Panics if `x` is shorter than the regressor.
pub fn settle_narx(model: &NarxModel, v: f64, x: &mut [f64]) -> f64 {
    let o = model.orders();
    let x = &mut x[..o.dim()];
    x[..=o.input_lags].fill(v);
    let mut y = 0.0;
    for _ in 0..64 {
        x[o.input_lags + 1..].fill(y);
        let y_new = model.network().eval(x);
        if (y_new - y).abs() < 1e-12 {
            return y_new;
        }
        y = y_new;
    }
    y
}

/// `N` lanes of one [`PwRbfDriverModel`] advancing together: lane-major
/// voltage/current history rings plus reusable scratch. `step` computes the
/// delivered current and its voltage derivative for every lane, `commit`
/// advances the histories with the converged voltages; both evaluate each
/// submodel once for all lanes through the batched RBF kernels. Both are
/// zero-allocation.
///
/// ```
/// use std::sync::Arc;
/// use macromodel::driver::{PwRbfDriverModel, WeightSequence};
/// use macromodel::evalrt::{DriverLanes, LaneStim};
/// use sysid::narx::{NarxModel, NarxOrders};
/// use sysid::rbf::RbfNetwork;
///
/// // A synthetic driver: i_H = g (vdd - v), i_L = -g v, 4-sample windows.
/// let g = 0.05;
/// let high = NarxModel::from_network(
///     NarxOrders::dynamic(1),
///     RbfNetwork::affine(g * 1.8, vec![-g, 0.0, 0.0]),
/// )
/// .unwrap();
/// let low = NarxModel::from_network(
///     NarxOrders::dynamic(1),
///     RbfNetwork::affine(0.0, vec![-g, 0.0, 0.0]),
/// )
/// .unwrap();
/// let ramp: Vec<f64> = (0..4).map(|k| k as f64 / 3.0).collect();
/// let inv: Vec<f64> = ramp.iter().map(|w| 1.0 - w).collect();
/// let model = PwRbfDriverModel {
///     name: "synth".into(),
///     ts: 25e-12,
///     vdd: 1.8,
///     i_high: high,
///     i_low: low,
///     up: WeightSequence::new(ramp.clone(), inv.clone()).unwrap(),
///     down: WeightSequence::new(inv, ramp).unwrap(),
/// };
///
/// // Share the model, step two lanes together with zero allocation.
/// let stims = vec![
///     LaneStim::from_pattern("01", 1e-9),
///     LaneStim::from_pattern("10", 1e-9),
/// ];
/// let mut lanes = DriverLanes::new(Arc::new(model), stims);
/// lanes.init_dc(&[0.0, 1.8]);
/// let (mut i, mut g_out) = ([0.0; 2], [0.0; 2]);
/// lanes.step(0.0, &[0.0, 1.8], &mut i, &mut g_out);
/// lanes.commit(&[0.0, 1.8]);
/// assert!(i.iter().all(|x| x.is_finite()));
/// ```
#[derive(Debug, Clone)]
pub struct DriverLanes {
    model: Arc<PwRbfDriverModel>,
    stims: Vec<LaneStim>,
    n_lanes: usize,
    v_past: LaneRing,
    ih_past: LaneRing,
    il_past: LaneRing,
    scratch: EvalScratch,
    /// Voltages of the most recent [`DriverLanes::step`], while the
    /// submodel values it computed are still valid in scratch. A commit at
    /// exactly these voltages reuses them instead of re-evaluating both
    /// submodels. In a transient that is rare: Newton evaluates at `x_k`
    /// and accepts `x_{k+1}`, so the two match only when the last update
    /// was exactly zero.
    last_v: Vec<f64>,
    last_valid: bool,
}

impl DriverLanes {
    /// Opens a lane bank with one stimulus per lane.
    ///
    /// # Panics
    ///
    /// Panics if `stims` is empty.
    pub fn new(model: Arc<PwRbfDriverModel>, stims: Vec<LaneStim>) -> Self {
        assert!(!stims.is_empty(), "at least one lane required");
        let n = stims.len();
        let (hi, lo) = (model.i_high.orders(), model.i_low.orders());
        DriverLanes {
            n_lanes: n,
            v_past: LaneRing::new(hi.input_lags.max(lo.input_lags), n),
            ih_past: LaneRing::new(hi.output_lags, n),
            il_past: LaneRing::new(lo.output_lags, n),
            scratch: EvalScratch::new(hi.dim().max(lo.dim()), n),
            last_v: vec![0.0; n],
            last_valid: false,
            model,
            stims,
        }
    }

    /// Lane count.
    pub fn n_lanes(&self) -> usize {
        self.n_lanes
    }

    /// Batched Newton evaluation at time `t` and trial voltages `v` (one
    /// per lane): writes the delivered current into `i_out` and its
    /// derivative w.r.t. the lane voltage into `g_out`. Histories are not
    /// modified — call repeatedly within one Newton loop, then
    /// [`DriverLanes::commit`] once converged.
    ///
    /// # Panics
    ///
    /// Panics if `v`, `i_out` or `g_out` are not `n_lanes` long.
    pub fn step(&mut self, t: f64, v: &[f64], i_out: &mut [f64], g_out: &mut [f64]) {
        let DriverLanes {
            model,
            stims,
            n_lanes,
            v_past,
            ih_past,
            il_past,
            scratch: s,
            last_v,
            last_valid,
        } = self;
        let n = *n_lanes;
        assert_eq!(v.len(), n, "voltage lane count mismatch");
        assert_eq!(i_out.len(), n, "current lane count mismatch");
        assert_eq!(g_out.len(), n, "gradient lane count mismatch");
        for (l, stim) in stims.iter().enumerate() {
            let (wh, wl) = model.weights_at(stim, t);
            s.w0[l] = wh;
            s.w1[l] = wl;
        }
        let (hi, lo) = (&model.i_high, &model.i_low);
        hi.gather_lanes(v, v_past, ih_past, &mut s.x);
        hi.step_lanes(&s.x, n, &mut s.d2, &mut s.v0, &mut s.g0);
        lo.gather_lanes(v, v_past, il_past, &mut s.x);
        lo.step_lanes(&s.x, n, &mut s.d2, &mut s.v1, &mut s.g1);
        for l in 0..n {
            i_out[l] = s.w0[l] * s.v0[l] + s.w1[l] * s.v1[l];
            g_out[l] = s.w0[l] * s.g0[l] + s.w1[l] * s.g1[l];
        }
        last_v.copy_from_slice(v);
        *last_valid = true;
    }

    /// Advances every lane's history with the converged voltages.
    ///
    /// When `v` is exactly the voltages of the preceding
    /// [`DriverLanes::step`], the submodel values that step already
    /// computed are pushed directly (the fused value equals the value-only
    /// evaluation bit for bit), skipping both re-evaluations. This is not
    /// the common case in a transient: Newton evaluates at the iterate
    /// `x_k` and accepts the update `x_{k+1}`, so the voltages match only
    /// when the last update was exactly zero, and commit usually pays a
    /// second evaluation. A caller that steps and commits at the same `v`
    /// times only the reuse path; `cargo bench --bench eval` times both
    /// (its `_moved` ids commit 1 mV off).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != n_lanes`.
    pub fn commit(&mut self, v: &[f64]) {
        let DriverLanes {
            model,
            n_lanes,
            v_past,
            ih_past,
            il_past,
            scratch: s,
            last_v,
            last_valid,
            ..
        } = self;
        let n = *n_lanes;
        assert_eq!(v.len(), n, "voltage lane count mismatch");
        let reuse = *last_valid
            && v.iter()
                .zip(last_v.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !reuse {
            let (hi, lo) = (&model.i_high, &model.i_low);
            hi.gather_lanes(v, v_past, ih_past, &mut s.x);
            hi.network().eval_lanes(&s.x, n, &mut s.d2, &mut s.v0);
            lo.gather_lanes(v, v_past, il_past, &mut s.x);
            lo.network().eval_lanes(&s.x, n, &mut s.d2, &mut s.v1);
        }
        v_past.push_row(v);
        ih_past.push_row(&s.v0);
        il_past.push_row(&s.v1);
        *last_valid = false;
    }

    /// Resets every lane's history to the DC operating point `v0` (one
    /// voltage per lane), settling each submodel to its fixed point.
    ///
    /// # Panics
    ///
    /// Panics if `v0.len() != n_lanes`.
    pub fn init_dc(&mut self, v0: &[f64]) {
        assert_eq!(v0.len(), self.n_lanes, "voltage lane count mismatch");
        self.last_valid = false;
        for (l, &v) in v0.iter().enumerate() {
            self.v_past.fill_lane(l, v);
            let ih = settle_narx(&self.model.i_high, v, &mut self.scratch.x);
            self.ih_past.fill_lane(l, ih);
            let il = settle_narx(&self.model.i_low, v, &mut self.scratch.x);
            self.il_past.fill_lane(l, il);
        }
    }
}

/// `N` lanes of one [`ReceiverModel`]: the linear ARX part and both
/// protection submodels stepped together. See [`DriverLanes`] for the
/// step/commit protocol.
///
/// ```
/// use std::sync::Arc;
/// use macromodel::evalrt::ReceiverLanes;
/// use macromodel::receiver::ReceiverModel;
/// use sysid::arx::{ArxModel, ArxOrders};
/// use sysid::narx::{NarxModel, NarxOrders};
/// use sysid::rbf::RbfNetwork;
///
/// // A capacitor-like receiver: i = C/Ts (v(k) - v(k-1)).
/// let linear = ArxModel::from_coefficients(
///     ArxOrders { na: 0, nb: 1 },
///     vec![],
///     vec![80.0, -80.0],
/// )
/// .unwrap();
/// let zero = NarxModel::from_network(
///     NarxOrders::dynamic(1),
///     RbfNetwork::affine(0.0, vec![0.0, 0.0, 0.0]),
/// )
/// .unwrap();
/// let model = ReceiverModel {
///     name: "rx".into(),
///     ts: 25e-12,
///     vdd: 1.8,
///     linear,
///     up: zero.clone(),
///     down: zero,
/// };
///
/// let mut lanes = ReceiverLanes::new(Arc::new(model), 3);
/// lanes.init_dc(&[0.0, 0.9, 1.8]);
/// let (mut i, mut g) = ([0.0; 3], [0.0; 3]);
/// lanes.step(&[0.1, 0.9, 1.7], &mut i, &mut g);
/// lanes.commit(&[0.1, 0.9, 1.7]);
/// assert!(i[0] > 0.0 && i[2] < 0.0); // capacitive charge/discharge
/// ```
#[derive(Debug, Clone)]
pub struct ReceiverLanes {
    model: Arc<ReceiverModel>,
    n_lanes: usize,
    v_past: LaneRing,
    ilin_past: LaneRing,
    iup_past: LaneRing,
    idn_past: LaneRing,
    scratch: EvalScratch,
    /// See [`DriverLanes`]: step voltages whose submodel values are still
    /// staged in scratch, reusable by a matching commit.
    last_v: Vec<f64>,
    last_valid: bool,
}

impl ReceiverLanes {
    /// Opens a lane bank of `n_lanes` instances.
    ///
    /// # Panics
    ///
    /// Panics if `n_lanes == 0`.
    pub fn new(model: Arc<ReceiverModel>, n_lanes: usize) -> Self {
        assert!(n_lanes > 0, "at least one lane required");
        let lin = model.linear.orders();
        let (up, dn) = (model.up.orders(), model.down.orders());
        ReceiverLanes {
            n_lanes,
            v_past: LaneRing::new(lin.nb.max(up.input_lags).max(dn.input_lags), n_lanes),
            ilin_past: LaneRing::new(lin.na, n_lanes),
            iup_past: LaneRing::new(up.output_lags, n_lanes),
            idn_past: LaneRing::new(dn.output_lags, n_lanes),
            scratch: EvalScratch::new(up.dim().max(dn.dim()), n_lanes),
            last_v: vec![0.0; n_lanes],
            last_valid: false,
            model,
        }
    }

    /// Lane count.
    pub fn n_lanes(&self) -> usize {
        self.n_lanes
    }

    /// Batched Newton evaluation at trial voltages `v`: total port current
    /// (`i_lin + i_up + i_down`) into `i_out`, its voltage derivative into
    /// `g_out`. Histories are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `v`, `i_out` or `g_out` are not `n_lanes` long.
    pub fn step(&mut self, v: &[f64], i_out: &mut [f64], g_out: &mut [f64]) {
        let ReceiverLanes {
            model,
            n_lanes,
            v_past,
            ilin_past,
            iup_past,
            idn_past,
            scratch: s,
            last_v,
            last_valid,
        } = self;
        let n = *n_lanes;
        assert_eq!(v.len(), n, "voltage lane count mismatch");
        assert_eq!(i_out.len(), n, "current lane count mismatch");
        assert_eq!(g_out.len(), n, "gradient lane count mismatch");
        let (up, dn) = (&model.up, &model.down);
        model.linear.step_lanes(v, v_past, ilin_past, &mut s.v0);
        let g_lin = model.linear.feedthrough();
        up.gather_lanes(v, v_past, iup_past, &mut s.x);
        up.step_lanes(&s.x, n, &mut s.d2, &mut s.v1, &mut s.g1);
        dn.gather_lanes(v, v_past, idn_past, &mut s.x);
        dn.step_lanes(&s.x, n, &mut s.d2, &mut s.w0, &mut s.w1);
        for l in 0..n {
            i_out[l] = s.v0[l] + s.v1[l] + s.w0[l];
            g_out[l] = g_lin + s.g1[l] + s.w1[l];
        }
        last_v.copy_from_slice(v);
        *last_valid = true;
    }

    /// Advances every lane's history with the converged voltages. As with
    /// [`DriverLanes::commit`], a commit at exactly the voltages of the
    /// preceding [`ReceiverLanes::step`] reuses that step's staged
    /// submodel values instead of re-evaluating. In a transient that
    /// happens only after an exactly zero Newton update, so it is rare.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != n_lanes`.
    pub fn commit(&mut self, v: &[f64]) {
        let ReceiverLanes {
            model,
            n_lanes,
            v_past,
            ilin_past,
            iup_past,
            idn_past,
            scratch: s,
            last_v,
            last_valid,
        } = self;
        let n = *n_lanes;
        assert_eq!(v.len(), n, "voltage lane count mismatch");
        let reuse = *last_valid
            && v.iter()
                .zip(last_v.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !reuse {
            let (up, dn) = (&model.up, &model.down);
            model.linear.step_lanes(v, v_past, ilin_past, &mut s.v0);
            up.gather_lanes(v, v_past, iup_past, &mut s.x);
            up.network().eval_lanes(&s.x, n, &mut s.d2, &mut s.v1);
            dn.gather_lanes(v, v_past, idn_past, &mut s.x);
            dn.network().eval_lanes(&s.x, n, &mut s.d2, &mut s.w0);
        }
        v_past.push_row(v);
        ilin_past.push_row(&s.v0);
        iup_past.push_row(&s.v1);
        idn_past.push_row(&s.w0);
        *last_valid = false;
    }

    /// Resets every lane's history to the DC operating point `v0`: the
    /// linear part settles to its static gain, the protection submodels to
    /// their fixed points.
    ///
    /// # Panics
    ///
    /// Panics if `v0.len() != n_lanes`.
    pub fn init_dc(&mut self, v0: &[f64]) {
        assert_eq!(v0.len(), self.n_lanes, "voltage lane count mismatch");
        self.last_valid = false;
        // `Σ a_i` and `Σ b_j` of the linear part give its static gain.
        let a_sum: f64 = self.model.linear.a().iter().sum();
        let b_sum: f64 = self.model.linear.b().iter().sum();
        for (l, &v) in v0.iter().enumerate() {
            self.v_past.fill_lane(l, v);
            let dc_gain = if (1.0 - a_sum).abs() > 1e-9 {
                b_sum / (1.0 - a_sum) * v
            } else {
                0.0
            };
            self.ilin_past.fill_lane(l, dc_gain);
            let up0 = settle_narx(&self.model.up, v, &mut self.scratch.x);
            self.iup_past.fill_lane(l, up0);
            let dn0 = settle_narx(&self.model.down, v, &mut self.scratch.x);
            self.idn_past.fill_lane(l, dn0);
        }
    }
}

/// A model ready for simulation: a shared copy of it. The models are their
/// own runtime, so there is nothing left to compile.
pub type CompiledModel = Arc<AnyModel>;

/// Shares a copy of `model` for simulation.
///
/// ```
/// use macromodel::evalrt::compile;
/// use macromodel::exchange::AnyModel;
/// use macromodel::receiver::CrModel;
/// use macromodel::Macromodel;
/// use numkit::interp::Pwl;
///
/// let iv = Pwl::new(vec![-1.0, 0.0, 1.0], vec![-0.1, 0.0, 0.1]).unwrap();
/// let model = AnyModel::Cr(CrModel::new("cr", 1e-12, iv).unwrap());
/// assert_eq!(compile(&model).name(), "cr");
/// ```
pub fn compile(model: &AnyModel) -> CompiledModel {
    Arc::new(model.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::WeightSequence;
    use crate::macromodel::{Macromodel, ModelKind};
    use crate::receiver::CrModel;
    use numkit::interp::Pwl;
    use sysid::arx::{ArxModel, ArxOrders};
    use sysid::narx::NarxOrders;
    use sysid::rbf::RbfNetwork;

    /// `(value, ∂/∂x[0])` of `net` at `x`, summed here from the public
    /// parameters with `-1/(2σ²)` formed per call, so the oracles below
    /// stay independent of the kernels they check.
    fn reference_eval(net: &RbfNetwork, x: &[f64]) -> (f64, f64) {
        let mut value = net.bias();
        for (wj, xj) in net.linear().iter().zip(x) {
            value += wj * xj;
        }
        let mut g0 = net.linear()[0];
        for (i, c) in net.centers().enumerate() {
            let w = net.widths()[i];
            let mut d2 = 0.0;
            for (xj, cj) in x.iter().zip(c) {
                let d = xj - cj;
                d2 += d * d;
            }
            let wphi = net.weights()[i] * (d2 * (-1.0 / (2.0 * w * w))).exp();
            value += wphi;
            g0 += wphi * ((c[0] - x[0]) * (1.0 / (w * w)));
        }
        (value, g0)
    }

    /// One-step value and `∂/∂u(k)` of `m` from newest-first histories.
    fn reference_step(m: &NarxModel, u_hist: &[f64], y_hist: &[f64]) -> (f64, f64) {
        reference_eval(m.network(), &m.regressor(u_hist, y_hist))
    }

    /// The DC fixed point of `m` at `v`, iterated on [`reference_eval`].
    fn reference_settle(m: &NarxModel, v: f64) -> f64 {
        let o = m.orders();
        let mut y = 0.0;
        for _ in 0..64 {
            let y_new = reference_step(m, &vec![v; o.input_lags + 1], &vec![y; o.output_lags]).0;
            if (y_new - y).abs() < 1e-12 {
                return y_new;
            }
            y = y_new;
        }
        y
    }

    fn nonlinear_narx(seed: f64) -> NarxModel {
        let net = RbfNetwork::from_parts(
            3,
            vec![
                vec![0.2 + seed, -0.1, 0.5],
                vec![-0.6, 0.9, 0.1 - seed],
                vec![1.1, 0.4, -0.3],
            ],
            vec![0.8, 1.1, 0.6],
            vec![0.02, -0.015, 0.01],
            0.001 * seed,
            vec![-0.04, 0.005, 0.3],
        )
        .unwrap();
        NarxModel::from_network(NarxOrders::dynamic(1), net).unwrap()
    }

    fn test_driver() -> PwRbfDriverModel {
        let ramp: Vec<f64> = (0..8).map(|k| k as f64 / 7.0).collect();
        let inv: Vec<f64> = ramp.iter().map(|w| 1.0 - w).collect();
        PwRbfDriverModel {
            name: "d".into(),
            ts: 25e-12,
            vdd: 1.8,
            i_high: nonlinear_narx(0.1),
            i_low: nonlinear_narx(-0.2),
            up: WeightSequence::new(ramp.clone(), inv.clone()).unwrap(),
            down: WeightSequence::new(inv, ramp).unwrap(),
        }
    }

    /// Reference single-lane driver stepper on the oracles above, with
    /// `Vec` histories shifted by `rotate_right`.
    struct ScalarDriverRef {
        model: PwRbfDriverModel,
        v_past: Vec<f64>,
        ih_past: Vec<f64>,
        il_past: Vec<f64>,
    }

    impl ScalarDriverRef {
        fn new(model: PwRbfDriverModel, v0: f64) -> Self {
            let lags_v = model
                .i_high
                .orders()
                .input_lags
                .max(model.i_low.orders().input_lags);
            let ih0 = reference_settle(&model.i_high, v0);
            let il0 = reference_settle(&model.i_low, v0);
            ScalarDriverRef {
                v_past: vec![v0; lags_v],
                ih_past: vec![ih0; model.i_high.orders().output_lags.max(1)],
                il_past: vec![il0; model.i_low.orders().output_lags.max(1)],
                model,
            }
        }

        fn u_hist(&self, v_now: f64, lags: usize) -> Vec<f64> {
            let mut u = Vec::with_capacity(lags + 1);
            u.push(v_now);
            u.extend_from_slice(&self.v_past[..lags]);
            u
        }

        /// `(i_H, ∂i_H/∂v)` and `(i_L, ∂i_L/∂v)` at port voltage `v`.
        fn parts(&self, v: f64) -> ((f64, f64), (f64, f64)) {
            let (hi, lo) = (&self.model.i_high, &self.model.i_low);
            (
                reference_step(hi, &self.u_hist(v, hi.orders().input_lags), &self.ih_past),
                reference_step(lo, &self.u_hist(v, lo.orders().input_lags), &self.il_past),
            )
        }

        fn step(&self, wh: f64, wl: f64, v: f64) -> (f64, f64) {
            let ((ih, gh), (il, gl)) = self.parts(v);
            (wh * ih + wl * il, wh * gh + wl * gl)
        }

        fn commit(&mut self, v: f64) {
            let ((ih, _), (il, _)) = self.parts(v);
            self.v_past.rotate_right(1);
            if !self.v_past.is_empty() {
                self.v_past[0] = v;
            }
            self.ih_past.rotate_right(1);
            self.ih_past[0] = ih;
            self.il_past.rotate_right(1);
            self.il_past[0] = il;
        }
    }

    #[test]
    fn driver_lanes_match_scalar_reference_bitwise() {
        let model = test_driver();
        let shared = Arc::new(model.clone());
        let stims = vec![
            LaneStim::from_pattern("0110", 1e-9),
            LaneStim::from_pattern("1010", 1e-9),
            LaneStim::from_pattern("0011", 1e-9),
        ];
        let v0 = [0.0, 1.8, 0.4];
        let mut lanes = DriverLanes::new(Arc::clone(&shared), stims.clone());
        lanes.init_dc(&v0);
        let mut refs: Vec<ScalarDriverRef> = v0
            .iter()
            .map(|&v| ScalarDriverRef::new(model.clone(), v))
            .collect();
        let ts = model.ts;
        let mut v = v0;
        let (mut i, mut g) = ([0.0; 3], [0.0; 3]);
        for k in 0..200 {
            let t = k as f64 * ts;
            // A deterministic pseudo-waveform per lane.
            for (l, vl) in v.iter_mut().enumerate() {
                *vl = 0.9 + 0.9 * ((0.13 * k as f64) + l as f64).sin();
            }
            lanes.step(t, &v, &mut i, &mut g);
            for (l, r) in refs.iter().enumerate() {
                let (wh, wl) = shared.weights_at(&stims[l], t);
                let (ri, rg) = r.step(wh, wl, v[l]);
                assert_eq!(i[l].to_bits(), ri.to_bits(), "i lane {l} step {k}");
                assert_eq!(g[l].to_bits(), rg.to_bits(), "g lane {l} step {k}");
            }
            lanes.commit(&v);
            for (l, r) in refs.iter_mut().enumerate() {
                r.commit(v[l]);
            }
        }
    }

    /// Reference single-lane receiver stepper on the oracles above.
    struct ScalarReceiverRef {
        model: ReceiverModel,
        v_past: Vec<f64>,
        ilin_past: Vec<f64>,
        iup_past: Vec<f64>,
        idn_past: Vec<f64>,
    }

    impl ScalarReceiverRef {
        fn new(model: ReceiverModel, v0: f64) -> Self {
            let lags_v = model
                .linear
                .orders()
                .nb
                .max(model.up.orders().input_lags)
                .max(model.down.orders().input_lags);
            let sa: f64 = model.linear.a().iter().sum();
            let sb: f64 = model.linear.b().iter().sum();
            let dc_gain = if (1.0 - sa).abs() > 1e-9 {
                sb / (1.0 - sa) * v0
            } else {
                0.0
            };
            let up0 = reference_settle(&model.up, v0);
            let dn0 = reference_settle(&model.down, v0);
            ScalarReceiverRef {
                v_past: vec![v0; lags_v.max(1)],
                ilin_past: vec![dc_gain; model.linear.orders().na.max(1)],
                iup_past: vec![up0; model.up.orders().output_lags.max(1)],
                idn_past: vec![dn0; model.down.orders().output_lags.max(1)],
                model,
            }
        }

        fn parts(&self, v: f64) -> (f64, f64, f64, f64, f64, f64) {
            let mut u_lin = vec![v];
            u_lin.extend_from_slice(&self.v_past[..self.model.linear.orders().nb]);
            let i_lin = self.model.linear.one_step(&u_lin, &self.ilin_past);
            let g_lin = self.model.linear.feedthrough();
            let mut u_up = vec![v];
            u_up.extend_from_slice(&self.v_past[..self.model.up.orders().input_lags]);
            let (i_up, g_up) = reference_step(&self.model.up, &u_up, &self.iup_past);
            let mut u_dn = vec![v];
            u_dn.extend_from_slice(&self.v_past[..self.model.down.orders().input_lags]);
            let (i_dn, g_dn) = reference_step(&self.model.down, &u_dn, &self.idn_past);
            (i_lin, g_lin, i_up, g_up, i_dn, g_dn)
        }

        fn step(&self, v: f64) -> (f64, f64) {
            let (i_lin, g_lin, i_up, g_up, i_dn, g_dn) = self.parts(v);
            (i_lin + i_up + i_dn, g_lin + g_up + g_dn)
        }

        fn commit(&mut self, v: f64) {
            let (i_lin, _, i_up, _, i_dn, _) = self.parts(v);
            self.v_past.rotate_right(1);
            self.v_past[0] = v;
            self.ilin_past.rotate_right(1);
            self.ilin_past[0] = i_lin;
            self.iup_past.rotate_right(1);
            self.iup_past[0] = i_up;
            self.idn_past.rotate_right(1);
            self.idn_past[0] = i_dn;
        }
    }

    #[test]
    fn receiver_lanes_match_scalar_reference_bitwise() {
        let linear =
            ArxModel::from_coefficients(ArxOrders { na: 1, nb: 1 }, vec![0.35], vec![0.08, -0.06])
                .unwrap();
        let model = ReceiverModel {
            name: "rx".into(),
            ts: 25e-12,
            vdd: 1.8,
            linear,
            up: nonlinear_narx(0.05),
            down: nonlinear_narx(-0.15),
        };
        let v0 = [0.0, 1.2];
        let mut lanes = ReceiverLanes::new(Arc::new(model.clone()), 2);
        lanes.init_dc(&v0);
        let mut refs: Vec<ScalarReceiverRef> = v0
            .iter()
            .map(|&v| ScalarReceiverRef::new(model.clone(), v))
            .collect();
        let (mut i, mut g) = ([0.0; 2], [0.0; 2]);
        for k in 0..150 {
            let v = [
                0.9 + 0.9 * (0.21 * k as f64).sin(),
                0.9 - 0.9 * (0.17 * k as f64).cos(),
            ];
            lanes.step(&v, &mut i, &mut g);
            for (l, r) in refs.iter().enumerate() {
                let (ri, rg) = r.step(v[l]);
                assert_eq!(i[l].to_bits(), ri.to_bits(), "i lane {l} step {k}");
                assert_eq!(g[l].to_bits(), rg.to_bits(), "g lane {l} step {k}");
            }
            lanes.commit(&v);
            for (l, r) in refs.iter_mut().enumerate() {
                r.commit(v[l]);
            }
        }
    }

    #[test]
    fn weights_at_matches_schedule() {
        let model = test_driver();
        let stim = LaneStim::from_pattern("010", 1e-9);
        assert_eq!(model.weights_at(&stim, 0.5e-9), (0.0, 1.0));
        let (wh, wl) = model.weights_at(&stim, 1e-9 + 3.0 * model.ts);
        assert!(wh > 0.0 && wh < 1.0 && wl > 0.0 && wl < 1.0);
        assert_eq!(model.weights_at(&stim, 1.9e-9), (1.0, 0.0));
        assert_eq!(model.weights_at(&stim, 5e-9), (0.0, 1.0));
    }

    /// The edge lookup of `weights_at` as the linear scan it replaced.
    fn weights_by_scan(model: &PwRbfDriverModel, stim: &LaneStim, t: f64) -> (f64, f64) {
        let mut state_high = stim.initial_high;
        let mut active: Option<(f64, bool)> = None;
        for e in &stim.edges {
            if e.t <= t + 1e-18 {
                state_high = e.rising;
                active = Some((e.t, e.rising));
            } else {
                break;
            }
        }
        if let Some((t0, rising)) = active {
            let k = ((t - t0) / model.ts).round() as usize;
            let seq = if rising { &model.up } else { &model.down };
            if k < seq.len() {
                return seq.at(k);
            }
        }
        if state_high {
            (1.0, 0.0)
        } else {
            (0.0, 1.0)
        }
    }

    /// Before the first edge, at and within 1e-18 s of every edge, through
    /// each transition window and past the last edge.
    #[test]
    fn weights_at_matches_a_linear_scan() {
        let model = test_driver();
        for pattern in ["0110100111010001", "1011000"] {
            let stim = LaneStim::from_pattern(pattern, 7.0 * model.ts / 3.0);
            let mut times = vec![-1e-9, 0.0, 1e-18];
            for e in &stim.edges {
                for off in [
                    -2e-18, -1.5e-18, -1e-18, -0.5e-18, 0.0, 0.5e-18, 1e-18, 2e-18,
                ] {
                    times.push(e.t + off);
                }
                times.extend((1..12).map(|k| e.t + k as f64 * 0.45 * model.ts));
            }
            times.push(1e-6);
            for t in times {
                let (got, want) = (
                    model.weights_at(&stim, t),
                    weights_by_scan(&model, &stim, t),
                );
                assert_eq!(got.0.to_bits(), want.0.to_bits(), "{pattern} at {t:e}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "{pattern} at {t:e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bit time must be positive")]
    fn from_pattern_rejects_a_negative_bit_time() {
        LaneStim::from_pattern("0101", -1e-9);
    }

    #[test]
    fn compile_dispatches_all_kinds() {
        let drv = AnyModel::PwRbfDriver(test_driver());
        assert_eq!(compile(&drv).kind(), ModelKind::PwRbfDriver);
        assert_eq!(compile(&drv).name(), "d");
        let iv = Pwl::new(vec![-1.0, 0.0, 1.0], vec![-0.1, 0.0, 0.1]).unwrap();
        let cr = AnyModel::Cr(CrModel::new("cr", 1e-12, iv).unwrap());
        let compiled = compile(&cr);
        assert_eq!(compiled.kind(), ModelKind::CrBaseline);
        assert!(matches!(&*compiled, AnyModel::Cr(c) if c.c == 1e-12));
    }
}
