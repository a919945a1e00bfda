//! Bit-level goldens of every model-evaluation path: the NARX, ARX and
//! receiver free-run simulations, the NARX DC settle, and multi-lane
//! `init_dc` + step/commit runs of the driver and receiver runtimes.
//!
//! Each digest is FNV-1a over the `to_bits` of every value (and, for the
//! lane runs, every gradient) the path produces. The digests were recorded
//! while simulation still ran on a separate compiled copy of each model,
//! so they pin that the single evaluator kept every bit: a change in
//! arithmetic, in accumulation order or in the precomputed Gaussian scales
//! shows up here.

use std::sync::Arc;

use macromodel::driver::{PwRbfDriverModel, WeightSequence};
use macromodel::evalrt::{settle_narx, DriverLanes, LaneStim, ReceiverLanes};
use macromodel::receiver::ReceiverModel;
use macromodel::{load_model_from_path, AnyModel};
use numkit::rng::SplitMix64;
use sysid::arx::{ArxModel, ArxOrders};
use sysid::narx::{NarxModel, NarxOrders};
use sysid::rbf::RbfNetwork;

/// FNV-1a over the little-endian bytes of each value's bits. The values
/// must be finite: a digest of NaNs would pin nothing.
fn fnv(values: &[f64]) -> u64 {
    assert!(values.iter().all(|x| x.is_finite()), "non-finite output");
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn fixture(name: &str) -> AnyModel {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name);
    load_model_from_path(&path).expect("committed golden artifact loads")
}

fn fixture_driver() -> PwRbfDriverModel {
    match fixture("pwrbf-driver.mdlx") {
        AnyModel::PwRbfDriver(m) => m,
        _ => panic!("expected a driver"),
    }
}

fn fixture_receiver() -> ReceiverModel {
    match fixture("receiver.mdlx") {
        AnyModel::Receiver(m) => m,
        _ => panic!("expected a receiver"),
    }
}

/// A seeded NARX model of dynamic order `r` with `n_centers` units.
fn synth_narx(seed: u64, r: usize, n_centers: usize) -> NarxModel {
    let mut s = SplitMix64::new(seed);
    let orders = NarxOrders::dynamic(r);
    let dim = orders.dim();
    let centers: Vec<Vec<f64>> = (0..n_centers)
        .map(|_| (0..dim).map(|_| s.range(-0.5, 2.3)).collect())
        .collect();
    let widths: Vec<f64> = (0..n_centers).map(|_| s.range(0.3, 1.6)).collect();
    let weights: Vec<f64> = (0..n_centers).map(|_| s.range(-0.04, 0.04)).collect();
    let linear: Vec<f64> = (0..dim).map(|_| s.range(-0.2, 0.3)).collect();
    let net = RbfNetwork::from_parts(dim, centers, widths, weights, s.range(-0.01, 0.01), linear)
        .unwrap();
    NarxModel::from_network(orders, net).unwrap()
}

fn synth_arx() -> ArxModel {
    ArxModel::from_coefficients(
        ArxOrders { na: 2, nb: 2 },
        vec![0.45, -0.2],
        vec![0.07, -0.05, 0.01],
    )
    .unwrap()
}

fn synth_driver() -> PwRbfDriverModel {
    let ramp: Vec<f64> = (0..8).map(|k| k as f64 / 7.0).collect();
    let inv: Vec<f64> = ramp.iter().map(|w| 1.0 - w).collect();
    PwRbfDriverModel {
        name: "synth-drv".into(),
        ts: 25e-12,
        vdd: 1.8,
        i_high: synth_narx(11, 1, 8),
        i_low: synth_narx(12, 2, 6),
        up: WeightSequence::new(ramp.clone(), inv.clone()).unwrap(),
        down: WeightSequence::new(inv, ramp).unwrap(),
    }
}

fn synth_receiver() -> ReceiverModel {
    ReceiverModel {
        name: "synth-rx".into(),
        ts: 25e-12,
        vdd: 1.8,
        linear: synth_arx(),
        up: synth_narx(21, 2, 5),
        down: synth_narx(22, 1, 7),
    }
}

/// A deterministic port-voltage record that swings past both rails.
fn wave(n: usize, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|k| 0.9 + 1.2 * (0.13 * k as f64 + phase).sin())
        .collect()
}

fn all_narx() -> Vec<NarxModel> {
    let (d, r) = (fixture_driver(), fixture_receiver());
    vec![
        d.i_high,
        d.i_low,
        r.up,
        r.down,
        synth_narx(1, 1, 8),
        synth_narx(2, 2, 12),
        synth_narx(3, 3, 1),
    ]
}

fn driver_lanes(model: &PwRbfDriverModel, stims: Vec<LaneStim>) -> DriverLanes {
    DriverLanes::new(Arc::new(model.clone()), stims)
}

fn receiver_lanes(model: &ReceiverModel, n_lanes: usize) -> ReceiverLanes {
    ReceiverLanes::new(Arc::new(model.clone()), n_lanes)
}

fn settle(model: &NarxModel, v: f64) -> f64 {
    settle_narx(model, v, &mut vec![0.0; model.orders().dim()])
}

#[test]
fn narx_simulate_golden() {
    let mut out = Vec::new();
    for (i, m) in all_narx().iter().enumerate() {
        out.extend(m.simulate(&wave(200, i as f64), &[]));
        out.extend(m.simulate(&wave(50, 0.5), &[0.01, -0.02, 0.03]));
    }
    assert_eq!(fnv(&out), 0x879c_6a4e_7a34_81b5);
}

#[test]
fn arx_simulate_golden() {
    let mut out = fixture_receiver().linear.simulate(&wave(200, 0.3));
    out.extend(synth_arx().simulate(&wave(200, 1.1)));
    assert_eq!(fnv(&out), 0xb850_214f_7a89_817a);
}

#[test]
fn receiver_simulate_golden() {
    let mut out = fixture_receiver().simulate(&wave(200, 0.7));
    out.extend(synth_receiver().simulate(&wave(200, 2.0)));
    assert_eq!(fnv(&out), 0x93e5_dbf0_96ff_11a8);
}

#[test]
fn settle_golden() {
    let mut out = Vec::new();
    for m in all_narx() {
        for v in [-0.6, 0.0, 0.4, 0.9, 1.8, 2.5] {
            out.push(settle(&m, v));
        }
    }
    assert_eq!(fnv(&out), 0x2325_c969_d3c2_b7b5);
}

/// Digest of an `n_lanes` driver run on both driver models: `init_dc`,
/// then 100 steps, each committed 1 mV above the step's voltages so every
/// commit evaluates the submodels afresh instead of reusing the step's
/// values.
fn driver_lanes_digest(n_lanes: usize) -> u64 {
    let mut out = Vec::new();
    for model in [fixture_driver(), synth_driver()] {
        let ts = model.ts;
        let stims = (0..n_lanes)
            .map(|l| LaneStim::from_pattern(["0110", "1010", "0011", "1100"][l % 4], 24.0 * ts))
            .collect();
        let mut lanes = driver_lanes(&model, stims);
        let v0: Vec<f64> = (0..n_lanes).map(|l| [0.0, model.vdd, 0.4][l % 3]).collect();
        lanes.init_dc(&v0);
        let (mut i, mut g) = (vec![0.0; n_lanes], vec![0.0; n_lanes]);
        for k in 0..100 {
            let v: Vec<f64> = (0..n_lanes)
                .map(|l| 0.9 + 1.0 * (0.17 * k as f64 + l as f64).sin())
                .collect();
            lanes.step(k as f64 * ts, &v, &mut i, &mut g);
            out.extend(&i);
            out.extend(&g);
            let v_commit: Vec<f64> = v.iter().map(|x| x + 1e-3).collect();
            lanes.commit(&v_commit);
        }
    }
    fnv(&out)
}

#[test]
fn driver_lanes_golden() {
    assert_eq!(driver_lanes_digest(3), 0x55d6_a54b_ef25_9dd0);
}

/// Two lanes, as an eye cell or a fast bus ladder drives, and twelve:
/// either side of the width where the RBF kernels stop evaluating lane by
/// lane and switch to lane-major loops.
#[test]
fn driver_lanes_golden_2_and_12() {
    assert_eq!(driver_lanes_digest(2), 0xe7fa_79a2_c930_7eef);
    assert_eq!(driver_lanes_digest(12), 0x06c3_df1b_f782_453d);
}

/// The receiver counterpart of [`driver_lanes_golden`].
#[test]
fn receiver_lanes_golden() {
    let mut out = Vec::new();
    for model in [fixture_receiver(), synth_receiver()] {
        let mut lanes = receiver_lanes(&model, 2);
        lanes.init_dc(&[0.0, 1.2]);
        let (mut i, mut g) = ([0.0; 2], [0.0; 2]);
        for k in 0..100 {
            let v = [
                0.9 + 1.1 * (0.21 * k as f64).sin(),
                0.9 - 1.1 * (0.17 * k as f64).cos(),
            ];
            lanes.step(&v, &mut i, &mut g);
            out.extend(i);
            out.extend(g);
            lanes.commit(&[v[0] - 2e-3, v[1] + 1e-3]);
        }
    }
    assert_eq!(fnv(&out), 0x9f35_fbae_6d5a_9dfa);
}
