//! Criterion bench of the artifact I/O behind the binary container
//! ([`emc_bench::storebench`]) on a 1 000-entry synthetic fleet:
//!
//! * `store/open_eager_text` — eager open of the text tree, per entry;
//! * `store/open_lazy_bin` — lazy open plus a full header index of the
//!   binary tree, per entry;
//! * `store/touch_one_bin` — lazy binary open plus one lookup, per
//!   lookup.
//!
//! The sizes match the committed `BENCH_store.json` trajectory: change
//! them and the baseline gate compares unlike workloads. On top of that
//! relative gate, the bench fails unless the lazy binary open's minimum
//! is at least [`MIN_SPEEDUP`] times faster per entry than the eager
//! text parse's.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use emc_bench::storebench::BenchStores;

/// Artifact files per store.
const ENTRIES: usize = 1000;
/// RBF centers per NARX submodel — sizes each text artifact in the
/// ~20 kB range the real extractions produce.
const CENTERS: usize = 24;
/// The floor on eager-text over lazy-binary time per entry.
const MIN_SPEEDUP: f64 = 10.0;

fn bench_store(c: &mut Criterion) {
    let stores = BenchStores::build(ENTRIES, CENTERS).expect("bench stores are written");
    stores.check();

    let mut g = c.benchmark_group("store");
    g.sample_size(10);
    g.throughput(Throughput::Elements(ENTRIES as u64));
    g.bench_function("open_eager_text", |b| {
        b.iter_batched(|| (), |()| stores.open_eager_text(), BatchSize::SmallInput)
    });
    g.bench_function("open_lazy_bin", |b| {
        b.iter_batched(|| (), |()| stores.open_lazy_bin(), BatchSize::SmallInput)
    });
    g.throughput(Throughput::Elements(1));
    g.bench_function("touch_one_bin", |b| {
        b.iter_batched(|| (), |()| stores.touch_one_bin(), BatchSize::SmallInput)
    });
    g.finish();

    let min_s = |id: &str| {
        c.records()
            .iter()
            .find(|r| r.bench == id)
            .map(|r| r.min_s)
            .expect("the group recorded the bench")
    };
    let speedup = min_s("store/open_eager_text") / min_s("store/open_lazy_bin");
    println!("lazy binary open speedup vs eager text: {speedup:.1}x (floor {MIN_SPEEDUP}x)");
    assert!(
        speedup >= MIN_SPEEDUP,
        "lazy binary open speedup {speedup:.1}x is below the required {MIN_SPEEDUP}x"
    );
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
