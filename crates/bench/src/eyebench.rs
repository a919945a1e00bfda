//! `mdl bench-eye` — the signal-integrity workload microbenchmark.
//!
//! Times the three layers an eye cell is built from, bottom up:
//!
//! * `eye/prbs31/gen` — raw LFSR pattern generation ([`si::prbs`]),
//!   seconds per bit;
//! * `eye/fold` — NRZ shaping plus the eye-diagram fold and metric
//!   extraction ([`si::nrz`], [`si::eye`]) on a synthetic waveform,
//!   seconds per waveform sample;
//! * `eye/channel` — the full fleet eye cell
//!   ([`crate::serve::run_eye_workload`]): a PW-RBF driver on every lane
//!   of a generated channel, transient, fold — seconds per lane-bit.
//!
//! Records are JSON lines in the `scripts/bench-baseline.sh` schema
//! (`{"bench", "median_s", "samples"}`), so the committed `BENCH_eye.json`
//! trajectory gates signal-integrity throughput regressions exactly like
//! the eval and serve benches. The reported time is the best over
//! repetitions after one untimed warmup — the estimator least sensitive
//! to scheduler noise.

use std::hint::black_box;
use std::time::Instant;

use macromodel::driver::{PwRbfDriverModel, WeightSequence};
use si::{prbs_pattern, EyeAnalyzer, EyeConfig, NrzShaper, PrbsOrder};
use sysid::narx::{NarxModel, NarxOrders};
use sysid::rbf::RbfNetwork;

use crate::serve::{run_eye_workload, EyeWorkload};
use crate::{BenchRecord, TS};

/// Benchmark knobs. [`EyeBenchConfig::default`] matches the committed
/// `BENCH_eye.json` trajectory — change the defaults and the baseline
/// gate compares unlike workloads.
#[derive(Debug, Clone, Copy)]
pub struct EyeBenchConfig {
    /// Bits generated per PRBS repetition.
    pub prbs_bits: usize,
    /// Bits shaped and folded per fold repetition.
    pub fold_bits: usize,
    /// Bits simulated per lane in the channel cell.
    pub channel_bits: usize,
    /// Channel lanes of the cell record.
    pub lanes: usize,
    /// Measured repetitions; the reported time is the best of them.
    pub reps: usize,
}

impl Default for EyeBenchConfig {
    fn default() -> Self {
        EyeBenchConfig {
            prbs_bits: 200_000,
            // Long enough (~0.5 M samples, tens of ms) that best-of-reps
            // sits within a few percent run to run — a 2 k-bit fold rep
            // showed ±25 % scheduler noise, which a 25 % gate cannot hold.
            fold_bits: 16_000,
            channel_bits: 16,
            lanes: 2,
            reps: 7,
        }
    }
}

fn time_prbs_once(bits: usize) -> f64 {
    let start = Instant::now();
    let pattern = prbs_pattern(PrbsOrder::P31, bits, black_box(1));
    black_box(pattern.len());
    start.elapsed().as_secs_f64() / bits as f64
}

fn time_fold_once(bits: usize) -> (f64, usize) {
    let bit_time = 2e-9;
    let dt = bit_time / 32.0;
    let pattern = prbs_pattern(PrbsOrder::P15, bits, 7);
    let shaper = NrzShaper::new(bit_time);
    let mut analyzer = EyeAnalyzer::new(EyeConfig::new(bit_time));
    let start = Instant::now();
    let wave = shaper.waveform(black_box(&pattern), dt);
    let metrics = analyzer.analyze(&wave);
    black_box(metrics.eye_height);
    let samples = wave.values().len();
    (start.elapsed().as_secs_f64() / samples as f64, samples)
}

/// The channel-cell workload model: a deterministic switching PW-RBF
/// driver (1.8 V pull-up / 0 V pull-down through 20 Ω, 8-sample ramps).
/// Unlike [`crate::evalbench::bench_model`]'s randomized networks — which
/// only ever step open-loop — this one is passive, so the channel cell's
/// Newton solves converge.
pub fn channel_model() -> PwRbfDriverModel {
    let narx = |bias: f64| {
        let net = RbfNetwork::affine(bias, vec![-0.05, 0.0, 0.0]);
        NarxModel::from_network(NarxOrders::dynamic(1), net)
            .expect("affine network matches the orders")
    };
    let ramp: Vec<f64> = (0..8).map(|k| k as f64 / 7.0).collect();
    let inv: Vec<f64> = ramp.iter().map(|w| 1.0 - w).collect();
    PwRbfDriverModel {
        name: "bench-eye".into(),
        ts: TS,
        vdd: 1.8,
        i_high: narx(0.09),
        i_low: narx(0.0),
        up: WeightSequence::new(ramp.clone(), inv.clone()).expect("ramp weights are valid"),
        down: WeightSequence::new(inv, ramp).expect("ramp weights are valid"),
    }
}

fn time_channel_once(cfg: &EyeBenchConfig) -> f64 {
    let model = channel_model();
    let w = EyeWorkload {
        prbs: 7,
        bits: cfg.channel_bits,
        seed: 1,
        bit_time: 2e-9,
        lanes: cfg.lanes,
        segments: 3,
    };
    let mut analyzer = EyeAnalyzer::new(EyeConfig::new(w.bit_time));
    let start = Instant::now();
    let (_, _, outcome) =
        run_eye_workload(&model, &w, model.ts, &mut analyzer).expect("bench eye cell runs");
    black_box(outcome.metrics.eye_height);
    start.elapsed().as_secs_f64() / (cfg.channel_bits * cfg.lanes) as f64
}

/// Runs the three benches and returns their records (PRBS generation,
/// waveform fold, full channel cell — in that order). Each repetition runs
/// all three back to back; one extra untimed warmup repetition precedes
/// the measured ones.
pub fn run_eye_bench(cfg: &EyeBenchConfig) -> Vec<BenchRecord> {
    let mut best = [f64::INFINITY; 3];
    let mut fold_samples = 0;
    for rep in 0..=cfg.reps {
        let (fold_t, fold_n) = time_fold_once(cfg.fold_bits);
        fold_samples = fold_n;
        let t = [
            time_prbs_once(cfg.prbs_bits),
            fold_t,
            time_channel_once(cfg),
        ];
        if rep > 0 {
            for (b, t) in best.iter_mut().zip(t) {
                *b = b.min(t);
            }
        }
    }
    vec![
        BenchRecord {
            bench: "eye/prbs31/gen".into(),
            median_s: best[0],
            samples: cfg.prbs_bits,
        },
        BenchRecord {
            bench: "eye/fold".into(),
            median_s: best[1],
            samples: fold_samples,
        },
        BenchRecord {
            bench: format!("eye/channel/lanes{}", cfg.lanes),
            median_s: best[2],
            samples: cfg.channel_bits * cfg.lanes,
        },
    ]
}

/// The human-readable summary: per-unit times and derived throughput.
pub fn summarize(records: &[BenchRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in records {
        let _ = writeln!(
            out,
            "{:<24} {:>10.1} ns/unit  {:>14.0} units/s  ({} units)",
            r.bench,
            r.median_s * 1e9,
            1.0 / r.median_s,
            r.samples
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> EyeBenchConfig {
        EyeBenchConfig {
            prbs_bits: 512,
            fold_bits: 64,
            channel_bits: 8,
            lanes: 2,
            reps: 1,
        }
    }

    #[test]
    fn records_are_baseline_gate_json() {
        for r in run_eye_bench(&tiny_cfg()) {
            let line = r.to_json();
            let head = format!("{{\"bench\": \"{}\", \"median_s\": ", r.bench);
            let tail = format!(", \"samples\": {}}}", r.samples);
            let median = line
                .strip_prefix(&head)
                .and_then(|rest| rest.strip_suffix(&tail))
                .unwrap_or_else(|| panic!("not a baseline-gate line: {line}"));
            assert_eq!(median.parse::<f64>().unwrap(), r.median_s);
            assert!(r.bench.starts_with("eye/"));
        }
    }

    #[test]
    fn tiny_bench_run_produces_three_records() {
        let records = run_eye_bench(&tiny_cfg());
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| r.median_s > 0.0 && r.samples > 0));
        assert_eq!(records[0].bench, "eye/prbs31/gen");
        assert_eq!(records[2].bench, "eye/channel/lanes2");
        assert_eq!(records[2].samples, 16);
        let summary = summarize(&records);
        assert!(summary.contains("eye/fold"));
    }
}
