//! Criterion bench of the per-step evaluation runtime: one Newton
//! evaluation plus one accepted-step commit of a PW-RBF driver
//! ([`emc_bench::evalbench`]), per lane-step.
//!
//! * `eval/driver_step/compiled` — a single-lane `DriverLanes` (the id
//!   predates the removal of the compile step and is kept so the
//!   committed trajectory stays comparable);
//! * `eval/driver_step/lanes2`, `lanes8` — 2 or 8 lanes advancing
//!   together (2 is what an eye cell or a fast bus ladder drives);
//! * `eval/driver_step/lanes{1,2,8}_moved` — the same, each commit 1 mV
//!   off the step's voltages, so it re-evaluates both submodels as a
//!   transient's commits do; the other ids time the commit's reuse path.
//!
//! The sizes match the committed `BENCH_eval.json` trajectory: change
//! them and the baseline gate compares unlike workloads.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use emc_bench::evalbench::{bench_model, wave_table, LaneRun, CASES};

/// RBF centers per NARX submodel (the paper's extractions land in the
/// tens; 24 keeps the slab bigger than one cache line per row).
const CENTERS: usize = 24;
/// Timesteps per sample.
const STEPS: usize = 20_000;

fn bench_eval(c: &mut Criterion) {
    let model = Arc::new(bench_model(CENTERS));
    let mut g = c.benchmark_group("eval/driver_step");
    g.sample_size(10);
    for (id, n_lanes, moved) in CASES {
        let wave = wave_table(STEPS, n_lanes);
        g.throughput(Throughput::Elements((STEPS * n_lanes) as u64));
        g.bench_function(id, |b| {
            b.iter_batched(
                || LaneRun::new(&model, n_lanes, moved),
                |mut run| (run.drive(&wave), run),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_eval);
criterion_main!(benches);
