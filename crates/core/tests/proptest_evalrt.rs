//! Property-based equivalence of the compiled evaluation runtime
//! ([`macromodel::evalrt`]) against the estimation-side scalar paths:
//! random models of all four kinds, random lane counts (including counts
//! that do not divide any SIMD batch width), agreement ≤ 1e-15 at every
//! step. In practice the agreement is bit-exact; the tolerance guards the
//! contract without over-pinning it, and one fixed driver case pins the
//! bit-exact agreement.

use std::sync::Arc;

use macromodel::driver::{PwRbfDriverModel, WeightSequence};
use macromodel::evalrt::{
    settle_narx, CompiledCr, CompiledDriver, CompiledIbis, CompiledReceiver, DriverLanes, LaneStim,
    ReceiverLanes,
};
use macromodel::receiver::{CrModel, ReceiverModel};
use numkit::interp::Pwl;
use numkit::rng::SplitMix64;
use proptest::prelude::*;
use refdev::IbisModel;
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

/// Strictly increasing breakpoints with random values.
fn rand_pwl(s: &mut SplitMix64, points: usize) -> Pwl {
    let mut x = -1.5;
    let mut xs = Vec::with_capacity(points);
    let mut ys = Vec::with_capacity(points);
    for _ in 0..points {
        x += s.range(0.1, 1.0);
        xs.push(x);
        ys.push(s.range(-0.1, 0.1));
    }
    Pwl::new(xs, ys).unwrap()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-15 * b.abs().max(1.0)
}

/// Scalar single-lane driver stepper on the estimation-side paths
/// (regressor `Vec`s, `one_step`, `rotate_right`) — the pre-compile
/// reference.
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
        let ih0 = settle_narx(&model.i_high, v0);
        let il0 = settle_narx(&model.i_low, v0);
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

    fn step(&self, wh: f64, wl: f64, v: f64) -> (f64, f64) {
        let (ih, gh) = self.model.i_high.one_step_with_gradient(
            &self.u_hist(v, self.model.i_high.orders().input_lags),
            &self.ih_past,
        );
        let (il, gl) = self.model.i_low.one_step_with_gradient(
            &self.u_hist(v, self.model.i_low.orders().input_lags),
            &self.il_past,
        );
        (wh * ih + wl * il, wh * gh + wl * gl)
    }

    fn commit(&mut self, v: f64) {
        let ih = self.model.i_high.one_step(
            &self.u_hist(v, self.model.i_high.orders().input_lags),
            &self.ih_past,
        );
        let il = self.model.i_low.one_step(
            &self.u_hist(v, self.model.i_low.orders().input_lags),
            &self.il_past,
        );
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

/// Scalar single-lane receiver stepper on the estimation-side paths.
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
        let up0 = settle_narx(&model.up, v0);
        let dn0 = settle_narx(&model.down, v0);
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
        let (i_up, g_up) = self.model.up.one_step_with_gradient(&u_up, &self.iup_past);
        let mut u_dn = vec![v];
        u_dn.extend_from_slice(&self.v_past[..self.model.down.orders().input_lags]);
        let (i_dn, g_dn) = self
            .model
            .down
            .one_step_with_gradient(&u_dn, &self.idn_past);
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

/// The `mdl bench-eval` workload shape — a PW-RBF driver with
/// `NarxOrders::dynamic(1)` submodels of 8 centers and 8-sample ramps —
/// stepped 64 times: the compiled lane must equal the scalar reference bit
/// for bit, not just within the property tests' tolerance.
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
    let compiled = Arc::new(CompiledDriver::compile(&model));
    let stim = LaneStim::from_pattern("0110", 64.0 * model.ts);
    let mut lanes = DriverLanes::new(Arc::clone(&compiled), vec![stim.clone()]);
    lanes.init_dc(&[0.0]);
    let mut scalar = ScalarDriver::new(model.clone(), 0.0);
    let (mut i, mut g) = ([0.0], [0.0]);
    for k in 0..64 {
        let t = k as f64 * model.ts;
        let v = 0.9 + 0.9 * (0.13 * k as f64).sin();
        lanes.step(t, &[v], &mut i, &mut g);
        let (wh, wl) = compiled.weights_at(&stim, t);
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
        let compiled = Arc::new(CompiledDriver::compile(&model));
        let stims: Vec<LaneStim> = (0..n_lanes)
            .map(|l| LaneStim::from_pattern(if l % 2 == 0 { "0110" } else { "1010" }, 1e-9))
            .collect();
        let v0: Vec<f64> = (0..n_lanes).map(|_| s.range(0.0, 1.8)).collect();
        let mut lanes = DriverLanes::new(Arc::clone(&compiled), stims.clone());
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
                let (wh, wl) = compiled.weights_at(&stims[l], t);
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
        let compiled = Arc::new(CompiledReceiver::compile(&model));
        let v0: Vec<f64> = (0..n_lanes).map(|_| s.range(0.0, 1.8)).collect();
        let mut lanes = ReceiverLanes::new(compiled, n_lanes);
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

    /// CR baseline batched stepping equals the scalar PWL lookups.
    #[test]
    fn cr_lanes_match_pwl(seed in any::<u64>(), n_lanes in 1usize..10) {
        let mut s = SplitMix64::new(seed);
        let iv = rand_pwl(&mut s, 5);
        let model = CrModel::new("prop-cr", 1e-12, iv.clone()).unwrap();
        let compiled = CompiledCr::compile(&model);
        let v: Vec<f64> = (0..n_lanes).map(|_| s.range(-2.0, 3.0)).collect();
        let mut i = vec![0.0; n_lanes];
        let mut g = vec![0.0; n_lanes];
        compiled.step_lanes(&v, &mut i, &mut g);
        for l in 0..n_lanes {
            prop_assert!(close(i[l], iv.eval(v[l])), "i lane {l}");
            prop_assert!(close(g[l], iv.slope(v[l]).max(0.0)), "g lane {l}");
        }
    }

    /// IBIS batched stepping equals the scalar two-table output stage.
    #[test]
    fn ibis_lanes_match_output(seed in any::<u64>(), n_lanes in 1usize..10) {
        let mut s = SplitMix64::new(seed);
        let pullup = rand_pwl(&mut s, 4);
        let pulldown = rand_pwl(&mut s, 4);
        let model = IbisModel {
            name: "prop-ibis".into(),
            vdd: 1.8,
            pullup: pullup.clone(),
            pulldown: pulldown.clone(),
            c_comp: 1e-12,
            dt: 25e-12,
            ku_rise: vec![0.0, 1.0],
            kd_rise: vec![1.0, 0.0],
            ku_fall: vec![1.0, 0.0],
            kd_fall: vec![0.0, 1.0],
        };
        let compiled = CompiledIbis::compile(&model);
        let v: Vec<f64> = (0..n_lanes).map(|_| s.range(-1.0, 3.0)).collect();
        let ku: Vec<f64> = (0..n_lanes).map(|_| s.range(0.0, 1.0)).collect();
        let kd: Vec<f64> = ku.iter().map(|k| 1.0 - k).collect();
        let mut i = vec![0.0; n_lanes];
        let mut g = vec![0.0; n_lanes];
        compiled.step_lanes(&v, &ku, &kd, &mut i, &mut g);
        for l in 0..n_lanes {
            let ri = ku[l] * pullup.eval(v[l]) + kd[l] * pulldown.eval(v[l]);
            let rg = ku[l] * pullup.slope(v[l]) + kd[l] * pulldown.slope(v[l]);
            prop_assert!(close(i[l], ri), "i lane {l}");
            prop_assert!(close(g[l], rg), "g lane {l}");
        }
    }
}
