//! Property-based equivalence of the lane banks ([`macromodel::evalrt`])
//! against scalar oracles that sum the Gaussians themselves from the
//! public model parameters: random driver and receiver models, random lane
//! counts (including counts that do not divide any SIMD batch width),
//! agreement ≤ 1e-15 at every step. In practice the agreement is
//! bit-exact; the tolerance guards the contract without over-pinning it,
//! and one fixed driver case pins the bit-exact agreement.

use std::sync::Arc;

use macromodel::driver::{PwRbfDriverModel, WeightSequence};
use macromodel::evalrt::{DriverLanes, LaneStim, ReceiverLanes};
use macromodel::receiver::ReceiverModel;
use numkit::rng::SplitMix64;
use proptest::prelude::*;
use sysid::arx::{ArxModel, ArxOrders};
use sysid::narx::{NarxModel, NarxOrders};
use sysid::rbf::RbfNetwork;

fn rand_narx(s: &mut SplitMix64, r: usize, n_centers: usize) -> NarxModel {
    let orders = NarxOrders::dynamic(r);
    let dim = orders.dim();
    let centers: Vec<Vec<f64>> = (0..n_centers)
        .map(|_| (0..dim).map(|_| s.range(-1.0, 2.5)).collect())
        .collect();
    let widths: Vec<f64> = (0..n_centers).map(|_| s.range(0.3, 1.8)).collect();
    let weights: Vec<f64> = (0..n_centers).map(|_| s.range(-0.05, 0.05)).collect();
    let linear: Vec<f64> = (0..dim).map(|_| s.range(-0.3, 0.3)).collect();
    let net = RbfNetwork::from_parts(dim, centers, widths, weights, s.range(-0.01, 0.01), linear)
        .unwrap();
    NarxModel::from_network(orders, net).unwrap()
}

fn rand_driver(s: &mut SplitMix64, r: usize, n_centers: usize) -> PwRbfDriverModel {
    let len = 2 + (s.range(0.0, 6.0) as usize);
    let ramp: Vec<f64> = (0..len).map(|k| k as f64 / (len - 1) as f64).collect();
    let inv: Vec<f64> = ramp.iter().map(|w| 1.0 - w).collect();
    PwRbfDriverModel {
        name: "prop-drv".into(),
        ts: 25e-12,
        vdd: 1.8,
        i_high: rand_narx(s, r, n_centers),
        i_low: rand_narx(s, r, n_centers),
        up: WeightSequence::new(ramp.clone(), inv.clone()).unwrap(),
        down: WeightSequence::new(inv, ramp).unwrap(),
    }
}

fn rand_receiver(
    s: &mut SplitMix64,
    na: usize,
    nb: usize,
    r: usize,
    n_centers: usize,
) -> ReceiverModel {
    // Keep the autoregressive part comfortably stable so free-running
    // histories stay finite over the comparison window.
    let a: Vec<f64> = (0..na).map(|_| s.range(-0.4, 0.4)).collect();
    let b: Vec<f64> = (0..=nb).map(|_| s.range(-0.1, 0.1)).collect();
    let linear = ArxModel::from_coefficients(ArxOrders { na, nb }, a, b).unwrap();
    ReceiverModel {
        name: "prop-rx".into(),
        ts: 25e-12,
        vdd: 1.8,
        linear,
        up: rand_narx(s, r, n_centers),
        down: rand_narx(s, r, n_centers),
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-15 * b.abs().max(1.0)
}

/// `(value, ∂/∂x[0])` of `net` at `x`, summed here from the public
/// parameters with `-1/(2σ²)` formed per call, so the oracles stay
/// independent of the kernels they check.
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

/// Scalar single-lane driver stepper on the oracles above, with `Vec`
/// histories shifted by `rotate_right`.
struct ScalarDriver {
    model: PwRbfDriverModel,
    v_past: Vec<f64>,
    ih_past: Vec<f64>,
    il_past: Vec<f64>,
}

impl ScalarDriver {
    fn new(model: PwRbfDriverModel, v0: f64) -> Self {
        let lags_v = model
            .i_high
            .orders()
            .input_lags
            .max(model.i_low.orders().input_lags);
        let ih0 = reference_settle(&model.i_high, v0);
        let il0 = reference_settle(&model.i_low, v0);
        ScalarDriver {
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

/// Scalar single-lane receiver stepper on the oracles above.
struct ScalarReceiver {
    model: ReceiverModel,
    v_past: Vec<f64>,
    ilin_past: Vec<f64>,
    iup_past: Vec<f64>,
    idn_past: Vec<f64>,
}

impl ScalarReceiver {
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
        ScalarReceiver {
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

/// The `cargo bench --bench eval` workload shape — a PW-RBF driver with
/// `NarxOrders::dynamic(1)` submodels of 8 centers and 8-sample ramps —
/// stepped 64 times: the lane must equal the scalar reference bit for bit,
/// not just within the property tests' tolerance.
#[test]
fn compiled_driver_matches_scalar_bit_for_bit() {
    let mut s = SplitMix64::new(0x5eed_cafe_f00d_0001);
    let narx = |s: &mut SplitMix64| {
        let orders = NarxOrders::dynamic(1);
        let dim = orders.dim();
        let centers: Vec<Vec<f64>> = (0..8)
            .map(|_| (0..dim).map(|_| s.range(-0.5, 2.3)).collect())
            .collect();
        let widths: Vec<f64> = (0..8).map(|_| s.range(0.4, 1.6)).collect();
        let weights: Vec<f64> = (0..8).map(|_| s.range(-0.03, 0.03)).collect();
        let linear: Vec<f64> = (0..dim).map(|_| s.range(-0.05, 0.3)).collect();
        let net = RbfNetwork::from_parts(dim, centers, widths, weights, 0.001, linear).unwrap();
        NarxModel::from_network(orders, net).unwrap()
    };
    let ramp: Vec<f64> = (0..8).map(|k| k as f64 / 7.0).collect();
    let inv: Vec<f64> = ramp.iter().map(|w| 1.0 - w).collect();
    let model = PwRbfDriverModel {
        name: "bench-eval".into(),
        ts: 25e-12,
        vdd: 1.8,
        i_high: narx(&mut s),
        i_low: narx(&mut s),
        up: WeightSequence::new(ramp.clone(), inv.clone()).unwrap(),
        down: WeightSequence::new(inv, ramp).unwrap(),
    };
    let stim = LaneStim::from_pattern("0110", 64.0 * model.ts);
    let mut lanes = DriverLanes::new(Arc::new(model.clone()), vec![stim.clone()]);
    lanes.init_dc(&[0.0]);
    let mut scalar = ScalarDriver::new(model.clone(), 0.0);
    let (mut i, mut g) = ([0.0], [0.0]);
    for k in 0..64 {
        let t = k as f64 * model.ts;
        let v = 0.9 + 0.9 * (0.13 * k as f64).sin();
        lanes.step(t, &[v], &mut i, &mut g);
        let (wh, wl) = model.weights_at(&stim, t);
        let (ri, rg) = scalar.step(wh, wl, v);
        assert_eq!(i[0].to_bits(), ri.to_bits(), "current at step {k}");
        assert_eq!(g[0].to_bits(), rg.to_bits(), "gradient at step {k}");
        lanes.commit(&[v]);
        scalar.commit(v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batched PW-RBF driver lanes track the scalar reference for random
    /// models and lane counts (1..=9 covers counts that do not divide the
    /// 2/4/8-wide SIMD batch widths).
    #[test]
    fn driver_lanes_match_scalar_paths(
        seed in any::<u64>(),
        r in 1usize..3,
        n_centers in 1usize..6,
        n_lanes in 1usize..10,
    ) {
        let mut s = SplitMix64::new(seed);
        let model = rand_driver(&mut s, r, n_centers);
        let stims: Vec<LaneStim> = (0..n_lanes)
            .map(|l| LaneStim::from_pattern(if l % 2 == 0 { "0110" } else { "1010" }, 1e-9))
            .collect();
        let v0: Vec<f64> = (0..n_lanes).map(|_| s.range(0.0, 1.8)).collect();
        let mut lanes = DriverLanes::new(Arc::new(model.clone()), stims.clone());
        lanes.init_dc(&v0);
        let mut refs: Vec<ScalarDriver> = v0
            .iter()
            .map(|&v| ScalarDriver::new(model.clone(), v))
            .collect();
        let mut v = v0;
        let mut i = vec![0.0; n_lanes];
        let mut g = vec![0.0; n_lanes];
        for k in 0..40 {
            let t = k as f64 * model.ts;
            for vl in v.iter_mut() {
                *vl = s.range(-0.2, 2.0);
            }
            lanes.step(t, &v, &mut i, &mut g);
            for (l, r) in refs.iter().enumerate() {
                let (wh, wl) = model.weights_at(&stims[l], t);
                let (ri, rg) = r.step(wh, wl, v[l]);
                prop_assert!(close(i[l], ri), "i lane {l} step {k}: {} vs {}", i[l], ri);
                prop_assert!(close(g[l], rg), "g lane {l} step {k}: {} vs {}", g[l], rg);
            }
            lanes.commit(&v);
            for (l, r) in refs.iter_mut().enumerate() {
                r.commit(v[l]);
            }
        }
    }

    /// Batched receiver lanes track the scalar reference for random
    /// models and lane counts.
    #[test]
    fn receiver_lanes_match_scalar_paths(
        seed in any::<u64>(),
        na in 0usize..3,
        nb in 0usize..3,
        r in 1usize..3,
        n_centers in 1usize..5,
        n_lanes in 1usize..8,
    ) {
        let mut s = SplitMix64::new(seed);
        let model = rand_receiver(&mut s, na, nb, r, n_centers);
        let v0: Vec<f64> = (0..n_lanes).map(|_| s.range(0.0, 1.8)).collect();
        let mut lanes = ReceiverLanes::new(Arc::new(model.clone()), n_lanes);
        lanes.init_dc(&v0);
        let mut refs: Vec<ScalarReceiver> = v0
            .iter()
            .map(|&v| ScalarReceiver::new(model.clone(), v))
            .collect();
        let mut v = v0;
        let mut i = vec![0.0; n_lanes];
        let mut g = vec![0.0; n_lanes];
        for k in 0..40 {
            for vl in v.iter_mut() {
                *vl = s.range(-0.2, 2.0);
            }
            lanes.step(&v, &mut i, &mut g);
            for (l, r) in refs.iter().enumerate() {
                let (ri, rg) = r.step(v[l]);
                prop_assert!(close(i[l], ri), "i lane {l} step {k}: {} vs {}", i[l], ri);
                prop_assert!(close(g[l], rg), "g lane {l} step {k}: {} vs {}", g[l], rg);
            }
            lanes.commit(&v);
            for (l, r) in refs.iter_mut().enumerate() {
                r.commit(v[l]);
            }
        }
    }
}
