//! Criterion bench of the model-generation cost (paper Section 5: "some
//! ten seconds on a Pentium-II PC @ 350 MHz").

use criterion::{criterion_group, criterion_main, Criterion};
use emc_bench::{cr_model, receiver_model};
use macromodel::pipeline::DriverEstimationConfig;
use macromodel::ExtractionSession;
use sysid::narx::RbfTrainConfig;

fn bench_estimation(c: &mut Criterion) {
    let mut g = c.benchmark_group("estimation");
    g.sample_size(10);

    // Reduced-size driver estimation (same pipeline, smaller signals). A
    // fresh session per iteration, so every sample pays for the captures.
    let cfg = DriverEstimationConfig {
        n_levels: 24,
        dwell: 16,
        rbf: RbfTrainConfig {
            max_centers: 8,
            candidate_pool: 60,
            width_scale: 1.0,
            ols_tolerance: 1e-6,
        },
        t_pre: 1.5e-9,
        t_window: 3e-9,
        ..Default::default()
    };
    g.bench_function("driver_md1_reduced", |b| {
        b.iter(|| {
            ExtractionSession::for_driver(refdev::md1())
                .config(cfg)
                .run()
                .expect("estimation")
        })
    });

    g.bench_function("receiver_md4", |b| {
        b.iter(|| receiver_model(&refdev::md4()).expect("estimation"))
    });

    g.bench_function("cr_baseline_md4", |b| {
        b.iter(|| cr_model(&refdev::md4()).expect("estimation"))
    });

    g.finish();
}

criterion_group!(benches, bench_estimation);
criterion_main!(benches);
