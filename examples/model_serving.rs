//! The model-serving workflow: build a small artifact library (v1 files
//! and a v2 corner bundle side by side), open it as a `ModelStore`, and
//! run the scenario-matrix sweep plus batch validation over the whole
//! fleet — the "estimate once, serve everywhere" deployment the paper
//! motivates.
//!
//! Run with: `cargo run --release --example model_serving`

use emc_bench::serve::{standard_scenarios, sweep_store, validate_store};
use emc_io_macromodel::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Stock the library: a PW-RBF driver artifact (v1) and the three
    //    IBIS process corners bundled into one provenance-stamped v2 file.
    let dir = std::env::temp_dir().join("mdlx_serving_example");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir)?;

    let mut driver = ExtractionSession::for_driver(md1())
        .excitation(24, 16, 6)
        .windows(1.5e-9, 3e-9);
    driver.run()?.save(dir.join("md1-pwrbf.mdlx"))?;

    let mut ibis = ExtractionSession::for_ibis(md1())
        .iv_points(21)
        .tables(50e-12, 3e-9);
    let est = ibis.run()?;
    let AnyModel::Ibis(base) = est.model().clone() else {
        unreachable!("ibis session yields an ibis model");
    };
    let corners: Vec<AnyModel> = [IbisCorner::Typical, IbisCorner::Slow, IbisCorner::Fast]
        .into_iter()
        .map(|c| base.with_corner(c).map(AnyModel::Ibis))
        .collect::<Result<_, _>>()?;
    save_artifact_to_path(
        &Artifact::bundle(corners, Some(est.provenance().clone())),
        dir.join("md1-ibis-corners.mdlx"),
    )?;

    // 2. Open the store and parse every artifact, errors collected per file.
    let store = ModelStore::open(&dir)?;
    let failures = store.load_all();
    println!(
        "store {}: {} artifacts, {} models, {} load failures",
        store.root().display(),
        store.len(),
        store.models().len(),
        failures.len()
    );
    for (path, model) in store.models() {
        println!(
            "  {} [{}] from {}",
            model.name(),
            model.kind(),
            path.file_name().unwrap().to_string_lossy()
        );
    }

    // 3. Batch re-certification: every model vs its transistor-level
    //    reference, per-kind accuracy gates.
    let validation = validate_store(&store, true);
    for cell in &validation.cells {
        println!(
            "validate {:<14} rms {:.4} V (limit {:.4} V) -> {}",
            cell.model,
            cell.rms_error.unwrap_or(f64::NAN),
            cell.rms_limit.unwrap_or(f64::NAN),
            if cell.pass { "ok" } else { "FAIL" }
        );
    }

    // 4. The scenario matrix: fixtures + bus ladders + the mixed-backend
    //    bus, every cell with SolveStats.
    let report = sweep_store(&store, &standard_scenarios(true));
    println!(
        "sweep: {}/{} cells passed (all_passed = {})",
        report.passed(),
        report.cells.len(),
        report.all_passed()
    );
    let json = report.to_json();
    println!("JSON report: {} bytes", json.len());

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
