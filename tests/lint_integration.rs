//! End-to-end static analysis: freshly extracted macromodels lint clean
//! through artifact round-trips, seeded-defect artifacts that *pass* the
//! exchange loader's validation still trip exactly their documented lint
//! code, and a structurally broken circuit is caught by the C-series audit.

use circuit::devices::Resistor;
use circuit::mna::EvalCtx;
use circuit::{Circuit, Device, Node, PatternBuilder, StampWorkspace, GROUND};
use macromodel::driver::{PwRbfDriverModel, WeightSequence};
use macromodel::exchange::{
    load_artifact_from_path, save_artifact_as, AnyModel, Artifact, ArtifactFormat,
};
use macromodel::pipeline::DriverEstimationConfig;
use macromodel::receiver::ReceiverModel;
use macromodel::{lint_artifact, ExtractionSession, Severity};
use numkit::interp::Pwl;
use refdev::IbisModel;
use std::path::{Path, PathBuf};
use sysid::arx::{ArxModel, ArxOrders};
use sysid::narx::{NarxModel, NarxOrders, RbfTrainConfig};
use sysid::rbf::RbfNetwork;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lint_it_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Saves, reloads, and lints an artifact — the exact pipeline `mdl lint`
/// runs on a file.
fn roundtrip_codes(path: &Path, artifact: &Artifact) -> Vec<String> {
    save_artifact_as(artifact, ArtifactFormat::Text, path).unwrap();
    let loaded = load_artifact_from_path(path).unwrap();
    lint_artifact(&loaded)
        .diagnostics
        .into_iter()
        .map(|d| d.code.to_string())
        .collect()
}

#[test]
fn extracted_models_lint_clean_after_roundtrip() {
    let dir = scratch_dir("clean");

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
    let mut driver = ExtractionSession::for_driver(refdev::md1()).config(cfg);
    let est = driver.run().unwrap();
    let drv = Artifact::single(est.into_model());
    save_artifact_as(&drv, ArtifactFormat::Text, dir.join("drv.mdlx")).unwrap();

    let mut receiver = ExtractionSession::for_receiver(refdev::md4())
        .orders(3, 2, 3)
        .excitation(24, 16, 6);
    let rx = receiver.run().unwrap().to_artifact();
    save_artifact_as(&rx, ArtifactFormat::Text, dir.join("rx.mdlx")).unwrap();

    for file in ["drv.mdlx", "rx.mdlx"] {
        let artifact = load_artifact_from_path(dir.join(file)).unwrap();
        let report = lint_artifact(&artifact);
        assert!(
            report.diagnostics.is_empty(),
            "{file} should lint clean, got {:?}",
            report.diagnostics
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn stable_narx() -> NarxModel {
    NarxModel::from_network(
        NarxOrders::dynamic(1),
        RbfNetwork::affine(0.0, vec![0.01, 0.0, 0.2]),
    )
    .unwrap()
}

/// A receiver whose ARX pole sits exactly on the unit circle: spectral
/// radius 1.0 passes `validate()` (tolerance `1 + 1e-9`) so the artifact
/// loads — but the Jury margin is zero, which is exactly what M001 exists
/// to catch before the model reaches a solver.
#[test]
fn marginal_receiver_artifact_trips_m001() {
    let dir = scratch_dir("m001");
    let model = ReceiverModel {
        name: "rx_marginal".into(),
        ts: 25e-12,
        vdd: 1.8,
        linear: ArxModel::from_coefficients(
            ArxOrders { na: 1, nb: 1 },
            vec![1.0],
            vec![0.1, -0.05],
        )
        .unwrap(),
        up: stable_narx(),
        down: stable_narx(),
    };
    assert!(model.validate().is_ok(), "fixture must survive the loader");
    let codes = roundtrip_codes(
        &dir.join("rx.mdlx"),
        &Artifact::single(AnyModel::Receiver(model)),
    );
    assert_eq!(codes, vec!["M001"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// IBIS validation checks finiteness and table shapes, not physics: a
/// non-monotone pullup table loads fine and must surface as M005.
#[test]
fn non_monotone_iv_table_trips_m005() {
    let dir = scratch_dir("m005");
    let n = 4;
    let model = IbisModel {
        name: "ibis_bad".into(),
        vdd: 1.8,
        // Rises then falls: both directions present.
        pullup: Pwl::new(vec![-0.9, 0.9, 2.7], vec![0.0, 1.0e-3, 0.5e-3]).unwrap(),
        pulldown: Pwl::new(vec![-0.9, 0.9, 2.7], vec![1.0e-3, 0.5e-3, 0.0]).unwrap(),
        c_comp: 1e-12,
        dt: 25e-12,
        ku_rise: vec![0.5; n],
        kd_rise: vec![0.5; n],
        ku_fall: vec![0.5; n],
        kd_fall: vec![0.5; n],
    };
    assert!(model.validate().is_ok(), "fixture must survive the loader");
    let codes = roundtrip_codes(
        &dir.join("ibis.mdlx"),
        &Artifact::single(AnyModel::Ibis(model)),
    );
    assert_eq!(codes, vec!["M005"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Switching weights outside [-0.5, 1.5] load fine (the clamp lives in
/// extraction, not in `WeightSequence`) and must surface as M007.
#[test]
fn out_of_range_weights_trip_m007() {
    let dir = scratch_dir("m007");
    let narx = || {
        NarxModel::from_network(
            NarxOrders::dynamic(1),
            RbfNetwork::from_parts(
                3,
                vec![vec![0.0, 0.0, 0.0], vec![1.8, 0.0, 0.0]],
                vec![0.6, 0.6],
                vec![0.005, -0.005],
                0.0,
                vec![0.01, 0.0, 0.0],
            )
            .unwrap(),
        )
        .unwrap()
    };
    let model = PwRbfDriverModel {
        name: "drv_hot".into(),
        ts: 25e-12,
        vdd: 1.8,
        i_high: narx(),
        i_low: narx(),
        up: WeightSequence::new(vec![0.0, 3.0], vec![1.0, 0.0]).unwrap(),
        down: WeightSequence::new(vec![1.0, 0.0], vec![0.0, 1.0]).unwrap(),
    };
    assert!(model.validate().is_ok(), "fixture must survive the loader");
    let codes = roundtrip_codes(
        &dir.join("drv.mdlx"),
        &Artifact::single(AnyModel::PwRbfDriver(model)),
    );
    assert_eq!(codes, vec!["M007"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Device that claims a branch unknown but leaves its branch equation row
/// empty — the canonical structurally singular pattern.
struct HalfWiredSource {
    node: Node,
    branch: usize,
}

impl Device for HalfWiredSource {
    fn label(&self) -> &str {
        "broken"
    }
    fn num_branches(&self) -> usize {
        1
    }
    fn set_branch_base(&mut self, base: usize) {
        self.branch = base;
    }
    fn register(&self, pb: &mut PatternBuilder) {
        circuit::mna::register_branch_kcl(pb, self.node, GROUND, self.branch);
    }
    fn stamp(&self, _ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        circuit::mna::stamp_branch_kcl(ws, self.node, GROUND, self.branch);
    }
}

#[test]
fn structurally_singular_circuit_trips_c001() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.add(Resistor::new("r", a, GROUND, 50.0));
    ckt.add(HalfWiredSource { node: a, branch: 0 });
    let issues = circuit::lint::audit_circuit(&mut ckt);
    let c001 = issues
        .iter()
        .find(|i| i.code == "C001")
        .unwrap_or_else(|| panic!("expected C001, got {issues:?}"));
    assert!(c001.message.contains("structural rank"));
    // The shared registry agrees on the severity of the code.
    assert_eq!(
        macromodel::lint::code_spec("C001").unwrap().severity,
        Severity::Error
    );
}
