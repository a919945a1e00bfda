//! Fast end-to-end smoke test: the quickstart flow (estimate an MD1 driver
//! macromodel, validate it on a line+cap load) with aggressively reduced
//! settings so it finishes in seconds under `cargo test -q`. The thresholds
//! here are sanity bounds, not accuracy claims — `full_pipeline.rs` owns
//! those.

use emc_io_macromodel::prelude::*;
use sysid::narx::RbfTrainConfig;

#[test]
fn quickstart_smoke() {
    let spec = refdev::md1();
    // Much smaller than even the integration tests' fast_cfg: this exists
    // to prove the pipeline is wired end to end, cheaply.
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
        t_window: 3.5e-9,
        ..Default::default()
    };
    let est = ExtractionSession::for_driver(spec.clone())
        .config(cfg)
        .run()
        .expect("estimation");
    let AnyModel::PwRbfDriver(model) = est.model() else {
        panic!("a driver session yields a driver model");
    };
    assert_eq!(model.vdd, spec.vdd);
    assert!(model.validate().is_ok());

    let run = est
        .validate_against_reference(
            &TestFixture::line_cap(50.0, 0.8e-9, 10e-12),
            Some(&PortStimulus::new("01", 4e-9)),
            12e-9,
            None,
        )
        .expect("validation");
    // Generous sanity bounds for the tiny config: the predicted pad voltage
    // must track the reference within a fraction of the supply.
    assert!(
        run.metrics.rms_error < 0.15 * spec.vdd,
        "rms {} V",
        run.metrics.rms_error
    );
    assert!(
        run.metrics.max_error < 0.6 * spec.vdd,
        "max {} V",
        run.metrics.max_error
    );
}
