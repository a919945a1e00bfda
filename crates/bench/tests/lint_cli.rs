//! `mdl lint` end to end: the built binary run against real artifact
//! files and store directories, asserting the documented diagnostic codes
//! appear in the output and the exit status follows the contract — 0 for
//! clean (or warnings-only), 1 when a deny-level finding or load failure
//! is present, 2 for usage errors.

use macromodel::driver::{PwRbfDriverModel, WeightSequence};
use macromodel::exchange::{save_artifact_to_path, AnyModel, Artifact};
use macromodel::json::{self, Value};
use macromodel::receiver::ReceiverModel;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use sysid::arx::{ArxModel, ArxOrders};
use sysid::narx::{NarxModel, NarxOrders};
use sysid::rbf::RbfNetwork;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lint_cli_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn mdl_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mdl"))
        .arg("lint")
        .args(args)
        .output()
        .unwrap()
}

fn narx_with_tail(tail: f64) -> NarxModel {
    NarxModel::from_network(
        NarxOrders::dynamic(1),
        RbfNetwork::affine(0.0, vec![0.01, 0.0, tail]),
    )
    .unwrap()
}

/// Driver that lints clean: stable tails, in-range ramped weights. (With
/// no RBF units the center rules don't apply.)
fn clean_driver(name: &str) -> AnyModel {
    AnyModel::PwRbfDriver(PwRbfDriverModel {
        name: name.into(),
        ts: 25e-12,
        vdd: 1.8,
        i_high: narx_with_tail(0.2),
        i_low: narx_with_tail(0.2),
        up: WeightSequence::new(vec![0.0, 1.0], vec![1.0, 0.0]).unwrap(),
        down: WeightSequence::new(vec![1.0, 0.0], vec![0.0, 1.0]).unwrap(),
    })
}

/// Same driver with one switching weight pushed outside [-0.5, 1.5]:
/// loads fine (the clamp lives in extraction), warns M007.
fn hot_weight_driver(name: &str) -> AnyModel {
    AnyModel::PwRbfDriver(PwRbfDriverModel {
        name: name.into(),
        ts: 25e-12,
        vdd: 1.8,
        i_high: narx_with_tail(0.2),
        i_low: narx_with_tail(0.2),
        up: WeightSequence::new(vec![0.0, 3.0], vec![1.0, 0.0]).unwrap(),
        down: WeightSequence::new(vec![1.0, 0.0], vec![0.0, 1.0]).unwrap(),
    })
}

/// Driver whose output-feedback tail sits outside the unit circle: passes
/// `validate()` (which checks shape, not dynamics), warns M002.
fn unstable_tail_driver(name: &str) -> AnyModel {
    AnyModel::PwRbfDriver(PwRbfDriverModel {
        name: name.into(),
        ts: 25e-12,
        vdd: 1.8,
        i_high: narx_with_tail(1.2),
        i_low: narx_with_tail(0.2),
        up: WeightSequence::new(vec![0.0, 1.0], vec![1.0, 0.0]).unwrap(),
        down: WeightSequence::new(vec![1.0, 0.0], vec![0.0, 1.0]).unwrap(),
    })
}

/// Receiver whose ARX pole sits exactly on the unit circle: spectral
/// radius 1.0 clears `validate()` but fails the Jury margin — the only
/// error-severity model defect reachable from an on-disk artifact.
fn marginal_receiver(name: &str) -> AnyModel {
    AnyModel::Receiver(ReceiverModel {
        name: name.into(),
        ts: 25e-12,
        vdd: 1.8,
        linear: ArxModel::from_coefficients(
            ArxOrders { na: 1, nb: 1 },
            vec![1.0],
            vec![0.1, -0.05],
        )
        .unwrap(),
        up: narx_with_tail(0.2),
        down: narx_with_tail(0.2),
    })
}

fn save(dir: &Path, file: &str, model: AnyModel) -> PathBuf {
    let path = dir.join(file);
    save_artifact_to_path(&Artifact::single(model), &path).unwrap();
    path
}

#[test]
fn clean_artifact_exits_zero() {
    let dir = temp_dir("clean");
    let path = save(&dir, "drv.mdlx", clean_driver("drv"));
    let out = mdl_lint(&[path.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("lint: 0 error(s), 0 warning(s), 0 info(s)"),
        "got: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn error_finding_exits_one_with_code() {
    let dir = temp_dir("m001");
    let path = save(&dir, "rx.mdlx", marginal_receiver("rx"));
    let out = mdl_lint(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error[M001]"), "got: {stdout}");
    assert!(stdout.contains("hint:"), "got: {stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("1 error-severity finding(s)"),
        "got: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warning_exits_zero_and_deny_allow_override() {
    let dir = temp_dir("m007");
    let path = save(&dir, "drv.mdlx", hot_weight_driver("drv"));
    let path = path.to_str().unwrap();

    // Default policy: warnings don't fail the run.
    let out = mdl_lint(&[path]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("warning[M007]"), "got: {stdout}");

    // --deny promotes the code to error severity and flips the exit code.
    let out = mdl_lint(&[path, "--deny", "M007"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error[M007]"), "got: {stdout}");

    // --allow suppresses the finding entirely.
    let out = mdl_lint(&[path, "--allow", "M007"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("lint: 0 error(s), 0 warning(s), 0 info(s)"),
        "got: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_code_is_usage_error() {
    let dir = temp_dir("usage");
    let path = save(&dir, "drv.mdlx", clean_driver("drv"));
    let out = mdl_lint(&[path.to_str().unwrap(), "--deny", "Z999"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("unknown diagnostic code 'Z999'"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn directory_mode_aggregates_and_json_reports_load_failures() {
    let dir = temp_dir("store");
    save(&dir, "clean.mdlx", clean_driver("drv_ok"));
    save(&dir, "tail.mdlx", unstable_tail_driver("drv_tail"));
    save(&dir, "rx.mdlx", marginal_receiver("rx_bad"));
    std::fs::write(dir.join("garbage.mdlx"), "not an artifact\n").unwrap();

    let out = mdl_lint(&[dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "error + load failure present");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("LOAD FAIL"), "got: {stdout}");
    assert!(stdout.contains("garbage.mdlx"), "got: {stdout}");
    // Findings carry the source file ahead of the model subject.
    assert!(stdout.contains("rx.mdlx"), "got: {stdout}");
    assert!(stdout.contains("error[M001]"), "got: {stdout}");
    assert!(stdout.contains("warning[M002]"), "got: {stdout}");

    // Machine-readable shape: load failures and the report side by side.
    let out = mdl_lint(&[dir.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    let failures = doc.get("load_failures").and_then(Value::as_array).unwrap();
    assert_eq!(failures.len(), 1, "got: {text}");
    let path = failures[0].get("path").and_then(Value::as_str).unwrap();
    assert!(path.ends_with("garbage.mdlx"), "got: {text}");
    let report = doc.get("report").unwrap();
    let codes: Vec<&str> = report
        .get("diagnostics")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter_map(|d| d.get("code")?.as_str())
        .collect();
    assert!(codes.contains(&"M001"), "got: {text}");
    assert!(codes.contains(&"M002"), "got: {text}");
    assert_eq!(report.get("errors").and_then(Value::as_u64), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}
