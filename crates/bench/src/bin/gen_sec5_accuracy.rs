//! Regenerates the Section-5 accuracy table: threshold-crossing timing
//! errors of the PW-RBF models across all driver validation fixtures
//! (paper: always below ~30 ps, typically 5 ps, at Ts = 25-50 ps).
//!
//! The first block is backend-generic: every MD1 driver macromodel (the
//! PW-RBF model *and* the IBIS baseline) is run through the same
//! trait-based validation harness on the same [`TestFixture`].

use emc_bench::{driver_model, fig1, fig2, Fig1Config};
use macromodel::validate::{
    validate_macromodel, AccuracyRow, ReferencePort, DEFAULT_VALIDATION_DT,
};
use macromodel::{Macromodel, PortStimulus, TestFixture};
use refdev::ibis::IbisExtractConfig;
use refdev::IbisModel;

fn main() -> emc_bench::Result<()> {
    let spec = refdev::md1();
    let t0 = std::time::Instant::now();
    let md1_model = driver_model(&spec)?;
    let est_s = t0.elapsed().as_secs_f64();
    println!("Section 5 — accuracy & efficiency (Ts = 25 ps)");
    println!("  estimation CPU time (MD1): {est_s:.2} s (paper: ~10 s on a Pentium-II 350)");

    // Every estimated backend for MD1 in one list; the validation loop
    // below never names a concrete model type.
    let mut ibis = IbisModel::extract(&spec, IbisExtractConfig::default())?;
    ibis.name = "md1-ibis".into();
    let backends: Vec<Box<dyn Macromodel>> = vec![Box::new(md1_model), Box::new(ibis)];

    let reference = ReferencePort::Driver(spec.clone());
    let fixture = TestFixture::resistive(50.0);
    let stim = PortStimulus::new("010", 4e-9);
    let mut rows: Vec<AccuracyRow> = Vec::new();
    for model in &backends {
        let dt = model.sample_time().unwrap_or(DEFAULT_VALIDATION_DT);
        let v = validate_macromodel(
            &reference,
            model.as_ref(),
            &fixture,
            Some(&stim),
            dt,
            12e-9,
            0.5 * spec.vdd,
        )?;
        rows.push(AccuracyRow {
            label: format!("{}-r50", model.name()),
            metrics: v.metrics,
        });
    }

    let f1 = fig1(&Fig1Config::default())?;
    rows.push(AccuracyRow {
        label: "fig1-pwrbf".into(),
        metrics: f1.metrics_pwrbf,
    });
    rows.push(AccuracyRow {
        label: "fig1-ibis-typ".into(),
        metrics: f1.metrics_ibis,
    });

    for p in fig2()? {
        rows.push(AccuracyRow {
            label: format!("fig2-{}", p.label),
            metrics: p.metrics,
        });
    }

    println!(
        "  {:<16} {:>10} {:>10} {:>12}",
        "experiment", "rms [V]", "max [V]", "timing"
    );
    for r in &rows {
        println!("  {r}");
    }
    Ok(())
}
