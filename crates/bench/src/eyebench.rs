//! Workloads of the `eye` microbench (`cargo bench --bench eye`), the
//! layers an eye cell is built from: PRBS generation ([`si::prbs`]),
//! NRZ shaping plus the eye fold ([`Fold`]), and the full fleet eye cell
//! ([`crate::serve::run_eye_workload`] on [`channel_model`]).

use std::hint::black_box;

use circuit::Waveform;
use macromodel::driver::{PwRbfDriverModel, WeightSequence};
use si::{prbs_pattern, EyeAnalyzer, EyeConfig, NrzShaper, PrbsOrder};
use sysid::narx::{NarxModel, NarxOrders};
use sysid::rbf::RbfNetwork;

use crate::TS;

/// Bit time of every eye workload (s).
pub const BIT_TIME: f64 = 2e-9;

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
        name: "eye-bench".into(),
        ts: TS,
        vdd: 1.8,
        i_high: narx(0.09),
        i_low: narx(0.0),
        up: WeightSequence::new(ramp.clone(), inv.clone()).expect("ramp weights are valid"),
        down: WeightSequence::new(inv, ramp).expect("ramp weights are valid"),
    }
}

/// One `eye/fold` sample's input: a PRBS-15 pattern, its NRZ shaper at
/// 32 samples per bit and a fresh analyzer.
pub struct Fold {
    pattern: String,
    shaper: NrzShaper,
    analyzer: EyeAnalyzer,
}

impl Fold {
    /// Builds the input for `bits` bits (the untimed setup).
    pub fn new(bits: usize) -> Fold {
        Fold {
            pattern: prbs_pattern(PrbsOrder::P15, bits, 7),
            shaper: NrzShaper::new(BIT_TIME),
            analyzer: EyeAnalyzer::new(EyeConfig::new(BIT_TIME)),
        }
    }

    /// The timed sample: shapes the pattern and folds it into an eye.
    /// Returns the waveform, whose sample count is the sample's work.
    pub fn run(&mut self) -> Waveform {
        let wave = self
            .shaper
            .waveform(black_box(&self.pattern), BIT_TIME / 32.0);
        black_box(self.analyzer.analyze(&wave).eye_height);
        wave
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{run_eye_workload, EyeWorkload};
    use criterion::{BatchSize, Criterion, Throughput};

    #[test]
    fn records_are_baseline_gate_json() {
        // The `eye` bench target's group on tiny sizes.
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("eye");
        g.sample_size(3);
        g.throughput(Throughput::Elements(512));
        g.bench_function("prbs31/gen", |b| {
            b.iter(|| prbs_pattern(PrbsOrder::P31, 512, 1))
        });
        g.throughput(Throughput::Elements((64 * 32 + 1) as u64));
        g.bench_function("fold", |b| {
            b.iter_batched(|| Fold::new(64), |mut f| f.run(), BatchSize::LargeInput)
        });
        g.finish();
        let ids: Vec<&str> = c.records().iter().map(|r| r.bench.as_str()).collect();
        assert_eq!(ids, ["eye/prbs31/gen", "eye/fold"]);
        for r in c.records() {
            assert_eq!(r.samples, 3);
            crate::tests::assert_gate_json(r);
        }
    }

    #[test]
    fn tiny_workloads_run() {
        assert_eq!(prbs_pattern(PrbsOrder::P31, 512, 1).len(), 512);
        assert_eq!(Fold::new(64).run().values().len(), 64 * 32 + 1);
        let model = channel_model();
        let w = EyeWorkload {
            prbs: 7,
            bits: 8,
            seed: 1,
            bit_time: BIT_TIME,
            lanes: 2,
            segments: 3,
        };
        let mut analyzer = EyeAnalyzer::new(EyeConfig::new(BIT_TIME));
        let (waves, _, _) = run_eye_workload(&model, &w, model.ts, &mut analyzer).unwrap();
        assert_eq!(waves.len(), 2);
    }
}
