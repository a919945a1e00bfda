//! Criterion bench of the signal-integrity layers an eye cell is built
//! from, bottom up ([`emc_bench::eyebench`]):
//!
//! * `eye/prbs31/gen` — raw LFSR pattern generation, per bit;
//! * `eye/fold` — NRZ shaping plus the eye fold and metric extraction on
//!   a synthetic waveform, per waveform sample;
//! * `eye/channel/lanes2` — the full fleet eye cell: a PW-RBF driver on
//!   every lane of a generated channel, transient, fold — per lane-bit.
//!
//! The sizes match the committed `BENCH_eye.json` trajectory: change
//! them and the baseline gate compares unlike workloads.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use emc_bench::eyebench::{channel_model, Fold, BIT_TIME};
use emc_bench::serve::{run_eye_workload, EyeWorkload};
use si::{prbs_pattern, EyeAnalyzer, EyeConfig, PrbsOrder};

/// Bits generated per PRBS sample.
const PRBS_BITS: usize = 200_000;
/// Bits shaped and folded per fold sample: long enough (~0.5 M waveform
/// samples, tens of ms) that a sample's minimum sits within a few percent
/// run to run — a 2 k-bit fold showed ±25 % scheduler noise, which a
/// 25 % gate cannot hold.
const FOLD_BITS: usize = 16_000;
/// Bits simulated per lane in the channel cell.
const CHANNEL_BITS: usize = 16;
/// Channel lanes of the cell.
const LANES: usize = 2;

fn bench_eye(c: &mut Criterion) {
    let mut g = c.benchmark_group("eye");
    g.sample_size(10);

    g.throughput(Throughput::Elements(PRBS_BITS as u64));
    g.bench_function("prbs31/gen", |b| {
        b.iter_batched(
            || (),
            |()| prbs_pattern(PrbsOrder::P31, PRBS_BITS, criterion::black_box(1)),
            BatchSize::SmallInput,
        )
    });

    let fold_samples = Fold::new(FOLD_BITS).run().values().len();
    g.throughput(Throughput::Elements(fold_samples as u64));
    g.bench_function("fold", |b| {
        b.iter_batched(
            || Fold::new(FOLD_BITS),
            |mut f| f.run(),
            BatchSize::LargeInput,
        )
    });

    let model = channel_model();
    let w = EyeWorkload {
        prbs: 7,
        bits: CHANNEL_BITS,
        seed: 1,
        bit_time: BIT_TIME,
        lanes: LANES,
        segments: 3,
    };
    g.throughput(Throughput::Elements((CHANNEL_BITS * LANES) as u64));
    g.bench_function(&format!("channel/lanes{LANES}"), |b| {
        b.iter_batched(
            || EyeAnalyzer::new(EyeConfig::new(BIT_TIME)),
            |mut analyzer| {
                let (_, _, outcome) = run_eye_workload(&model, &w, model.ts, &mut analyzer)
                    .expect("bench eye cell runs");
                outcome.metrics.eye_height
            },
            BatchSize::SmallInput,
        )
    });

    g.finish();
}

criterion_group!(benches, bench_eye);
criterion_main!(benches);
