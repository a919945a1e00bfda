//! `mdl bench-eval` — the per-step evaluation-runtime microbenchmark.
//!
//! Times the innermost loop of every transient: one Newton evaluation plus
//! one accepted-step commit of a PW-RBF driver, two ways:
//!
//! * `eval/driver_step/compiled` — a single-lane
//!   [`macromodel::evalrt::DriverLanes`] over the model's center slabs
//!   (zero allocation per step; the id predates the removal of the
//!   compile step and is kept so the committed trajectory stays
//!   comparable);
//! * `eval/driver_step/lanesN` — N lanes advancing together; `median_s`
//!   is the per-lane step time, so the record is directly comparable.
//!
//! Records are JSON lines in the `scripts/bench-baseline.sh` schema
//! (`{"bench", "median_s", "samples"}`), with `median_s` = seconds per
//! (lane-)step, so the committed `BENCH_eval.json` trajectory gates
//! step-throughput regressions exactly like the other benches.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use macromodel::driver::{PwRbfDriverModel, WeightSequence};
use macromodel::evalrt::{DriverLanes, LaneStim};
use numkit::rng::SplitMix64;
use sysid::narx::{NarxModel, NarxOrders};
use sysid::rbf::RbfNetwork;

use crate::{BenchRecord, TS};

/// Benchmark knobs. [`EvalBenchConfig::default`] matches the committed
/// `BENCH_eval.json` trajectory — change the defaults and the baseline
/// gate compares unlike workloads.
#[derive(Debug, Clone, Copy)]
pub struct EvalBenchConfig {
    /// RBF centers per NARX submodel (the paper's extractions land in the
    /// tens; 24 keeps the slab bigger than one cache line per row).
    pub centers: usize,
    /// Timesteps per repetition.
    pub steps: usize,
    /// Measured repetitions; the reported time is the best of them.
    pub reps: usize,
    /// Lane count for the batched record.
    pub lanes: usize,
}

impl Default for EvalBenchConfig {
    fn default() -> Self {
        EvalBenchConfig {
            centers: 24,
            steps: 20_000,
            reps: 5,
            lanes: 8,
        }
    }
}

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
        name: "bench-eval".into(),
        ts: TS,
        vdd: 1.8,
        i_high: bench_narx(centers, &mut stream),
        i_low: bench_narx(centers, &mut stream),
        up: WeightSequence::new(ramp.clone(), inv.clone()).expect("ramp weights are valid"),
        down: WeightSequence::new(inv, ramp).expect("ramp weights are valid"),
    }
}

/// The pad waveform driven through every stepper: a deterministic swing
/// inside the supply rails, decorrelated per lane.
fn pad_wave(k: usize, lane: usize) -> f64 {
    0.9 + 0.9 * ((0.13 * k as f64) + 0.7 * lane as f64).sin()
}

/// Lane-major waveform table, `steps` rows of `n_lanes` voltages —
/// precomputed so the timed loops measure the steppers, not `sin`.
fn wave_table(steps: usize, n_lanes: usize) -> Vec<f64> {
    let mut w = Vec::with_capacity(steps * n_lanes);
    for k in 0..steps {
        for l in 0..n_lanes {
            w.push(pad_wave(k, l));
        }
    }
    w
}

fn time_lanes_once(model: &Arc<PwRbfDriverModel>, n_lanes: usize, wave: &[f64]) -> f64 {
    let ts = model.ts;
    let steps = wave.len() / n_lanes;
    let stims: Vec<LaneStim> = (0..n_lanes)
        .map(|l| {
            let pattern = if l % 2 == 0 { "0110" } else { "1001" };
            LaneStim::from_pattern(pattern, 64.0 * ts)
        })
        .collect();
    let mut lanes = DriverLanes::new(Arc::clone(model), stims);
    lanes.init_dc(&vec![0.0; n_lanes]);
    let mut i = vec![0.0; n_lanes];
    let mut g = vec![0.0; n_lanes];
    let mut acc = 0.0;
    let start = Instant::now();
    for (k, v) in wave.chunks_exact(n_lanes).enumerate() {
        let t = k as f64 * ts;
        lanes.step(t, black_box(v), &mut i, &mut g);
        acc += i[0] + g[n_lanes - 1];
        lanes.commit(v);
    }
    black_box(acc);
    start.elapsed().as_secs_f64() / (steps * n_lanes) as f64
}

/// Runs the two benches and returns their records (single lane,
/// then batched lanes).
///
/// Each repetition runs both paths back to back and the reported time is
/// the minimum over repetitions: interleaving exposes every path to the
/// same transient machine load, and the minimum is the estimator least
/// sensitive to scheduler noise (the uncontended cost is the quantity the
/// regression gate should track). One extra untimed warmup repetition
/// precedes the measured ones.
pub fn run_eval_bench(cfg: &EvalBenchConfig) -> Vec<BenchRecord> {
    let model = Arc::new(bench_model(cfg.centers));
    let wave1 = wave_table(cfg.steps, 1);
    let wave_n = wave_table(cfg.steps, cfg.lanes);
    let mut best = [f64::INFINITY; 2];
    for rep in 0..=cfg.reps {
        let t = [
            time_lanes_once(&model, 1, &wave1),
            time_lanes_once(&model, cfg.lanes, &wave_n),
        ];
        if rep > 0 {
            for (b, t) in best.iter_mut().zip(t) {
                *b = b.min(t);
            }
        }
    }
    vec![
        BenchRecord {
            bench: "eval/driver_step/compiled".into(),
            median_s: best[0],
            samples: cfg.steps,
        },
        BenchRecord {
            bench: format!("eval/driver_step/lanes{}", cfg.lanes),
            median_s: best[1],
            samples: cfg.steps * cfg.lanes,
        },
    ]
}

/// The human-readable summary: ns/step, steps/s, and the per-lane speedup
/// of each batched record over the single lane.
pub fn summarize(records: &[BenchRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in records {
        let _ = writeln!(
            out,
            "{:<28} {:>9.1} ns/step  {:>12.0} steps/s",
            r.bench,
            r.median_s * 1e9,
            1.0 / r.median_s
        );
    }
    if let Some(single) = records.iter().find(|r| r.bench.ends_with("/compiled")) {
        for r in records.iter().filter(|r| r.bench.contains("/lanes")) {
            let _ = writeln!(
                out,
                "{} vs compiled: {:.2}x",
                r.bench.rsplit('/').next().unwrap_or(&r.bench),
                single.median_s / r.median_s
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> EvalBenchConfig {
        EvalBenchConfig {
            centers: 4,
            steps: 64,
            reps: 1,
            lanes: 3,
        }
    }

    #[test]
    fn records_are_baseline_gate_json() {
        for r in run_eval_bench(&tiny_cfg()) {
            let line = r.to_json();
            let head = format!("{{\"bench\": \"{}\", \"median_s\": ", r.bench);
            let tail = format!(", \"samples\": {}}}", r.samples);
            let median = line
                .strip_prefix(&head)
                .and_then(|rest| rest.strip_suffix(&tail))
                .unwrap_or_else(|| panic!("not a baseline-gate line: {line}"));
            assert_eq!(median.parse::<f64>().unwrap(), r.median_s);
            assert!(r.bench.starts_with("eval/driver_step/"));
        }
    }

    #[test]
    fn tiny_bench_run_produces_compiled_and_lane_records() {
        let records = run_eval_bench(&tiny_cfg());
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.median_s > 0.0));
        assert_eq!(records[0].bench, "eval/driver_step/compiled");
        assert_eq!(records[1].bench, "eval/driver_step/lanes3");
        assert_eq!(records[1].samples, 64 * 3);
        let summary = summarize(&records);
        assert!(summary.contains("lanes3 vs compiled"));
    }
}
