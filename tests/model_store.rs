//! Serving-layer integration: a store directory holding all four model
//! kinds — v1 single-model files and a v2 corner bundle side by side — is
//! scanned, batch-validated against the transistor-level references, and
//! swept through the full scenario matrix with every cell passing (the
//! fleet CI gate, in test form).

use emc_bench::serve::{standard_scenarios, sweep_store, validate_store};
use macromodel::exchange::{save_artifact_as, AnyModel, Artifact, ArtifactFormat};
use macromodel::json::{self, Value};
use macromodel::pipeline::DriverEstimationConfig;
use macromodel::{ExtractionSession, ModelKind, ModelStore};
use refdev::IbisCorner;
use std::path::PathBuf;
use sysid::narx::RbfTrainConfig;

fn fast_driver_cfg() -> DriverEstimationConfig {
    DriverEstimationConfig {
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
    }
}

/// Extracts the standard fleet into a fresh store directory: PW-RBF
/// driver (v1), receiver (v2 single-model bundle), C–R̂ baseline (v1), and
/// the three IBIS corners as one v2 bundle.
fn build_fleet_store() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleet_store_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let mut driver = ExtractionSession::for_driver(refdev::md1()).config(fast_driver_cfg());
    let pwrbf = Artifact::single(driver.run().unwrap().into_model());
    save_artifact_as(&pwrbf, ArtifactFormat::Text, dir.join("md1-pwrbf.mdlx")).unwrap();

    let mut receiver = ExtractionSession::for_receiver(refdev::md4())
        .orders(3, 2, 3)
        .excitation(24, 16, 6);
    let rx = receiver.run().unwrap().to_artifact();
    save_artifact_as(&rx, ArtifactFormat::Text, dir.join("md4-receiver.mdlx")).unwrap();

    let cr = ExtractionSession::for_cr_baseline(refdev::md4())
        .run()
        .unwrap();
    let cr = Artifact::single(cr.into_model());
    save_artifact_as(&cr, ArtifactFormat::Text, dir.join("md4-cr.mdlx")).unwrap();

    let mut ibis = ExtractionSession::for_ibis(refdev::md1())
        .iv_points(21)
        .tables(50e-12, 3e-9);
    let est = ibis.run().unwrap();
    let AnyModel::Ibis(base) = est.model().clone() else {
        panic!("ibis session yields an ibis model");
    };
    let corners: Vec<AnyModel> = [IbisCorner::Typical, IbisCorner::Slow, IbisCorner::Fast]
        .into_iter()
        .map(|c| AnyModel::Ibis(base.with_corner(c).unwrap()))
        .collect();
    save_artifact_as(
        &Artifact::bundle(corners, Some(est.provenance().clone())),
        ArtifactFormat::Text,
        dir.join("md1-ibis-corners.mdlx"),
    )
    .unwrap();
    dir
}

#[test]
fn fleet_store_validates_and_sweeps_green() {
    let dir = build_fleet_store();
    let store = ModelStore::open(&dir).unwrap();
    assert_eq!(store.len(), 4, "four artifact files");
    assert!(store.load_all().is_empty());
    assert_eq!(store.models().len(), 6, "bundle flattened into six models");
    for kind in ModelKind::ALL {
        assert!(
            !store.of_kind(kind).is_empty(),
            "store must serve kind {kind}"
        );
    }

    // Batch re-certification against the transistor-level references.
    let validation = validate_store(&store, true);
    assert_eq!(validation.cells.len(), 6);
    assert!(
        validation.all_passed(),
        "validation failures: {:?}",
        validation
            .cells
            .iter()
            .filter(|c| !c.pass)
            .collect::<Vec<_>>()
    );
    for cell in &validation.cells {
        assert!(cell.rms_error.unwrap() <= cell.rms_limit.unwrap());
    }

    // Scenario-matrix sweep: cartesian product over applicable scenarios
    // plus one mixed-backend bus cell.
    let report = sweep_store(&store, &standard_scenarios(true));
    let driver_models = 4; // pwrbf + three IBIS corners
    let driver_scenarios = 5; // r50, linecap, bus-ladder, eye-prbs7, mc-channel
    let load_models = 2; // receiver + C–R̂
    assert_eq!(
        report.cells.len(),
        driver_models * driver_scenarios + load_models + 1
    );
    assert!(
        report.all_passed(),
        "sweep failures: {:?}",
        report.cells.iter().filter(|c| !c.pass).collect::<Vec<_>>()
    );
    let mixed = report
        .cells
        .iter()
        .find(|c| c.scenario == "bus-mixed")
        .expect("mixed-backend bus cell");
    let stats = mixed.stats.expect("bus cell carries SolveStats");
    assert_eq!(stats.symbolic_analyses, 1, "one symbolic analysis per net");
    assert!(stats.unknowns > 100, "four-lane ladder is a real circuit");

    // Every driver model contributes one eye and one Monte-Carlo
    // aggregate, and all of them clear their gates on real extractions.
    assert_eq!(report.eyes.len(), driver_models);
    assert!(report
        .eyes
        .iter()
        .all(|e| e.outcome.metrics.open && e.outcome.metrics.eye_height > 0.0));
    assert_eq!(report.mc.len(), driver_models);
    assert!(report.mc.iter().all(|m| m.summary.pass));

    // The machine-readable report round-trips the cell and aggregate
    // counts.
    let doc = json::parse(&report.to_json()).expect("the report is valid JSON");
    assert_eq!(doc.get("all_passed").and_then(Value::as_bool), Some(true));
    assert_eq!(doc.get("schema").and_then(Value::as_u64), Some(2));
    for (key, n) in [
        ("cells", report.cells.len()),
        ("eyes", report.eyes.len()),
        ("mc", report.mc.len()),
    ] {
        assert_eq!(
            doc.get(key).and_then(Value::as_array).map(<[_]>::len),
            Some(n)
        );
    }

    // The store serves lookups by name across every artifact.
    assert!(store.get("md1").is_some());
    assert!(store.get("md1_Slow").is_some());
    assert!(store.get("md4_cr").is_some());
    std::fs::remove_dir_all(&dir).ok();
}
