//! Workload of the `eval` microbench (`cargo bench --bench eval`): the
//! innermost loop of every transient, one Newton evaluation plus one
//! accepted-step commit of a PW-RBF driver, on one lane or N lanes
//! advancing together.

use std::hint::black_box;
use std::sync::Arc;

use macromodel::driver::{PwRbfDriverModel, WeightSequence};
use macromodel::evalrt::{DriverLanes, LaneStim};
use numkit::rng::SplitMix64;
use sysid::narx::{NarxModel, NarxOrders};
use sysid::rbf::RbfNetwork;

use crate::TS;

fn bench_narx(centers: usize, stream: &mut SplitMix64) -> NarxModel {
    let orders = NarxOrders::dynamic(1);
    let dim = orders.dim();
    let centers_v: Vec<Vec<f64>> = (0..centers)
        .map(|_| (0..dim).map(|_| stream.range(-0.5, 2.3)).collect())
        .collect();
    let widths: Vec<f64> = (0..centers).map(|_| stream.range(0.4, 1.6)).collect();
    let weights: Vec<f64> = (0..centers).map(|_| stream.range(-0.03, 0.03)).collect();
    let linear: Vec<f64> = (0..dim).map(|_| stream.range(-0.05, 0.3)).collect();
    let net = RbfNetwork::from_parts(dim, centers_v, widths, weights, 0.001, linear)
        .expect("bench network parameters are structurally valid");
    NarxModel::from_network(orders, net).expect("bench NARX orders match the network")
}

/// The benchmark workload: a PW-RBF driver sized like the paper's
/// extracted models (`centers` Gaussian units per NARX submodel, one
/// input and one output lag), with the 8-sample switching ramps of the
/// reference extraction.
pub fn bench_model(centers: usize) -> PwRbfDriverModel {
    let mut stream = SplitMix64::new(0x5eed_cafe_f00d_0001);
    let ramp: Vec<f64> = (0..8).map(|k| k as f64 / 7.0).collect();
    let inv: Vec<f64> = ramp.iter().map(|w| 1.0 - w).collect();
    PwRbfDriverModel {
        name: "eval-bench".into(),
        ts: TS,
        vdd: 1.8,
        i_high: bench_narx(centers, &mut stream),
        i_low: bench_narx(centers, &mut stream),
        up: WeightSequence::new(ramp.clone(), inv.clone()).expect("ramp weights are valid"),
        down: WeightSequence::new(inv, ramp).expect("ramp weights are valid"),
    }
}

/// Lane-major table of `steps` rows of `n_lanes` pad voltages: a
/// deterministic swing inside the supply rails, decorrelated per lane,
/// precomputed so a sample times the steppers, not `sin`.
pub fn wave_table(steps: usize, n_lanes: usize) -> Vec<f64> {
    let mut w = Vec::with_capacity(steps * n_lanes);
    for k in 0..steps {
        for l in 0..n_lanes {
            w.push(0.9 + 0.9 * ((0.13 * k as f64) + 0.7 * l as f64).sin());
        }
    }
    w
}

/// One sample's input: `n_lanes` driver lanes settled at 0 V and their
/// output buffers.
pub struct LaneRun {
    lanes: DriverLanes,
    ts: f64,
    i: Vec<f64>,
    g: Vec<f64>,
}

impl LaneRun {
    /// Builds the lanes (the untimed setup).
    pub fn new(model: &Arc<PwRbfDriverModel>, n_lanes: usize) -> LaneRun {
        let stims: Vec<LaneStim> = (0..n_lanes)
            .map(|l| {
                let pattern = if l % 2 == 0 { "0110" } else { "1001" };
                LaneStim::from_pattern(pattern, 64.0 * model.ts)
            })
            .collect();
        let mut lanes = DriverLanes::new(Arc::clone(model), stims);
        lanes.init_dc(&vec![0.0; n_lanes]);
        LaneRun {
            lanes,
            ts: model.ts,
            i: vec![0.0; n_lanes],
            g: vec![0.0; n_lanes],
        }
    }

    /// The timed sample: steps and commits every lane through each row
    /// of `wave` (a [`wave_table`] of this run's lane count) and returns
    /// a checksum of the outputs.
    pub fn drive(&mut self, wave: &[f64]) -> f64 {
        let n_lanes = self.i.len();
        let mut acc = 0.0;
        for (k, v) in wave.chunks_exact(n_lanes).enumerate() {
            self.lanes
                .step(k as f64 * self.ts, black_box(v), &mut self.i, &mut self.g);
            acc += self.i[0] + self.g[n_lanes - 1];
            self.lanes.commit(v);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use criterion::{BatchSize, Criterion, Throughput};

    #[test]
    fn records_are_baseline_gate_json() {
        // The `eval` bench target's group on a tiny wave.
        let model = Arc::new(bench_model(4));
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("eval/driver_step");
        g.sample_size(3);
        for (id, n_lanes) in [("compiled", 1), ("lanes8", 8)] {
            let wave = wave_table(64, n_lanes);
            g.throughput(Throughput::Elements((64 * n_lanes) as u64));
            g.bench_function(id, |b| {
                b.iter_batched(
                    || LaneRun::new(&model, n_lanes),
                    |mut run| (run.drive(&wave), run),
                    BatchSize::LargeInput,
                )
            });
        }
        g.finish();
        let ids: Vec<&str> = c.records().iter().map(|r| r.bench.as_str()).collect();
        assert_eq!(
            ids,
            ["eval/driver_step/compiled", "eval/driver_step/lanes8"]
        );
        for r in c.records() {
            assert_eq!(r.samples, 3);
            crate::tests::assert_gate_json(r);
        }
    }

    #[test]
    fn tiny_lane_runs_step_every_lane() {
        let model = Arc::new(bench_model(4));
        for n_lanes in [1, 3] {
            let wave = wave_table(64, n_lanes);
            assert_eq!(wave.len(), 64 * n_lanes);
            let mut run = LaneRun::new(&model, n_lanes);
            let acc = run.drive(&wave);
            assert!(acc.is_finite() && acc != 0.0, "{n_lanes} lanes: {acc}");
            // The same input replays bit for bit.
            assert_eq!(
                LaneRun::new(&model, n_lanes).drive(&wave).to_bits(),
                acc.to_bits()
            );
        }
    }
}
