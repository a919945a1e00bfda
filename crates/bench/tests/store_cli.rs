//! `mdl store ls` and `mdl convert` end to end: the built binary run
//! against a mixed text + binary store directory, pinning the documented
//! `--json` shape (load mode, per-entry format/version/bytes/digest,
//! flattened model list, per-entry error field) and the byte-exact
//! text ⇄ binary conversion contract. Also pins the usage-error contract of
//! count flags: out-of-range values exit 2 instead of being clamped.

use macromodel::driver::{PwRbfDriverModel, WeightSequence};
use macromodel::exchange::{save_artifact_as, AnyModel, Artifact, ArtifactFormat};
use macromodel::json::{self, Value};
use std::path::PathBuf;
use std::process::{Command, Output};
use sysid::narx::{NarxModel, NarxOrders};
use sysid::rbf::RbfNetwork;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store_cli_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn mdl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mdl"))
        .args(args)
        .output()
        .unwrap()
}

fn driver(name: &str) -> AnyModel {
    let narx = || {
        NarxModel::from_network(
            NarxOrders::dynamic(1),
            RbfNetwork::affine(0.0, vec![0.01, 0.0, 0.2]),
        )
        .unwrap()
    };
    AnyModel::PwRbfDriver(PwRbfDriverModel {
        name: name.into(),
        ts: 25e-12,
        vdd: 1.8,
        i_high: narx(),
        i_low: narx(),
        up: WeightSequence::new(vec![0.0, 1.0], vec![1.0, 0.0]).unwrap(),
        down: WeightSequence::new(vec![1.0, 0.0], vec![0.0, 1.0]).unwrap(),
    })
}

/// A store with one text artifact, one binary artifact, and one corrupt
/// file — the three cases every listing has to represent.
fn mixed_store(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    save_artifact_as(
        &Artifact::single(driver("text_drv")),
        ArtifactFormat::Text,
        dir.join("text_drv.mdlx"),
    )
    .unwrap();
    save_artifact_as(
        &Artifact::single(driver("bin_drv")),
        ArtifactFormat::Binary,
        dir.join("bin_drv.mdlxb"),
    )
    .unwrap();
    std::fs::write(dir.join("broken.mdlx"), "mdlx 1 pwrbf-driver\nname x\n").unwrap();
    dir
}

#[test]
fn store_ls_json_shape() {
    let dir = mixed_store("json");
    let out = mdl(&["store", "ls", dir.to_str().unwrap(), "--json"]);
    // Unloadable entries are reported in-band (the document still renders
    // completely) while the exit status stays nonzero, same as human mode.
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(!out.status.success(), "unloadable artifact fails ls");
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    let get = |v: &'_ Value, key: &str| v.get(key).cloned().unwrap_or(Value::Null);

    // Document-level shape.
    assert!(
        text.starts_with("{\"root\":"),
        "leads with the root: {text}"
    );
    assert_eq!(get(&doc, "mode").as_str(), Some("lazy"), "{text}");
    assert_eq!(get(&doc, "artifacts").as_u64(), Some(3), "{text}");
    assert_eq!(get(&doc, "models").as_u64(), Some(2), "{text}");
    assert_eq!(get(&doc, "load_failures").as_u64(), Some(1), "{text}");

    // Per-entry shape: formats, versions, models, and the digest/bytes
    // fields that make the listing a usable inventory.
    let entries = get(&doc, "entries");
    let entry = |file: &str| {
        entries
            .as_array()
            .unwrap()
            .iter()
            .find(|e| get(e, "path").as_str().unwrap().ends_with(file))
            .unwrap_or_else(|| panic!("no entry {file}: {text}"))
            .clone()
    };
    for (file, format, name) in [
        ("text_drv.mdlx", "text", "text_drv"),
        ("bin_drv.mdlxb", "binary", "bin_drv"),
    ] {
        let e = entry(file);
        assert_eq!(get(&e, "format").as_str(), Some(format), "{text}");
        assert_eq!(get(&e, "version").as_u64(), Some(1), "{text}");
        let models = get(&e, "models");
        let models = models.as_array().unwrap();
        assert_eq!(models.len(), 1, "{text}");
        assert_eq!(get(&models[0], "kind").as_str(), Some("pwrbf-driver"));
        assert_eq!(get(&models[0], "name").as_str(), Some(name));
        assert_eq!(get(&e, "provenance_digest"), Value::Null, "{text}");
        assert_eq!(get(&e, "error"), Value::Null, "{text}");

        // Each loadable entry carries its byte size and 16-hex-digit digest.
        assert!(
            get(&e, "bytes").as_u64().unwrap() > 0,
            "{file} has a real byte size"
        );
        let digest = get(&e, "digest");
        let digest = digest.as_str().unwrap();
        assert_eq!(
            digest.len(),
            16,
            "FNV-1a 64 digest is 16 hex chars: {digest}"
        );
        assert!(digest.chars().all(|c| c.is_ascii_hexdigit()), "{digest}");
    }

    // The broken entry reports its typed error in-band.
    let broken = entry("broken.mdlx");
    assert!(
        !get(&broken, "error").as_str().unwrap().is_empty(),
        "broken entry carries the error: {text}"
    );
}

#[test]
fn store_ls_human_output_documents_mode_and_sizes() {
    let dir = mixed_store("human");
    let out = mdl(&["store", "ls", dir.to_str().unwrap()]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("mode lazy"),
        "documents the load mode: {text}"
    );
    assert!(text.contains(" B "), "per-entry byte sizes: {text}");
    assert!(text.contains("binary"), "binary entries labeled: {text}");
    assert!(text.contains("text"), "text entries labeled: {text}");
    // The corrupt entry makes the listing exit nonzero in human mode.
    assert!(!out.status.success(), "unloadable artifact fails ls");
}

#[test]
fn convert_round_trips_byte_exactly() {
    let dir = temp_dir("convert");
    let text_path = dir.join("m.mdlx");
    let bin_path = dir.join("m.mdlxb");
    let back_path = dir.join("m.back.mdlx");
    save_artifact_as(
        &Artifact::single(driver("conv")),
        ArtifactFormat::Text,
        &text_path,
    )
    .unwrap();

    let out = mdl(&[
        "convert",
        text_path.to_str().unwrap(),
        bin_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = mdl(&[
        "convert",
        bin_path.to_str().unwrap(),
        back_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let original = std::fs::read(&text_path).unwrap();
    let round_tripped = std::fs::read(&back_path).unwrap();
    assert_eq!(
        original, round_tripped,
        "text -> binary -> text must be byte-exact"
    );
}

#[test]
fn convert_v2_bundle_round_trips() {
    let dir = temp_dir("convert_v2");
    let text_path = dir.join("b.mdlx");
    let bin_path = dir.join("b.mdlxb");
    let back_path = dir.join("b.back.mdlx");
    let artifact = Artifact::bundle(vec![driver("a"), driver("b")], None);
    save_artifact_as(&artifact, ArtifactFormat::Text, &text_path).unwrap();

    assert!(mdl(&[
        "convert",
        text_path.to_str().unwrap(),
        bin_path.to_str().unwrap()
    ])
    .status
    .success());
    assert!(mdl(&[
        "convert",
        bin_path.to_str().unwrap(),
        back_path.to_str().unwrap()
    ])
    .status
    .success());
    assert_eq!(
        std::fs::read(&text_path).unwrap(),
        std::fs::read(&back_path).unwrap()
    );
}

#[test]
fn out_of_range_counts_are_usage_errors() {
    // Parsing happens before the artifact is opened, so a missing file
    // separates the two outcomes: 2 for a rejected flag, 1 for the load.
    let missing = temp_dir("counts").join("missing.mdlx");
    let missing = missing.to_str().unwrap();
    let rejected: &[&[&str]] = &[
        &["mc", missing, "--trials", "0"],
        &["mc", missing, "--trials", "-3"],
        &["mc", missing, "--trials", "2.5"],
        &["mc", missing, "--trials", "NaN"],
        &["mc", missing, "--bits", "0"],
        &["mc", missing, "--seed", "-1"],
        &["eye", missing, "--bits", "0"],
        &["eye", missing, "--bits", "3"],
        &["eye", missing, "--lanes", "0"],
        &["eye", missing, "--prbs", "8"],
        &["eye", missing, "--seed", "inf"],
        &["serve", "dir", "--socket", "x.sock", "--poll-ms", "0"],
    ];
    for args in rejected {
        let out = mdl(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let flag = args[args.len() - 2];
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(flag),
            "{args:?}: the error must name {flag}"
        );
    }
    let accepted: &[&[&str]] = &[
        &["mc", missing, "--trials", "1", "--bits", "4", "--seed", "0"],
        &[
            "eye", missing, "--bits", "1e1", "--lanes", "2", "--prbs", "15",
        ],
    ];
    for args in accepted {
        assert_eq!(mdl(args).status.code(), Some(1), "{args:?} must parse");
    }
}

#[test]
fn removed_bench_subcommands_are_usage_errors() {
    // The microbenches are `cargo bench` targets and daemon latency is
    // perfbench's `serve` workload; a script still calling the old
    // subcommands must fail loudly.
    for cmd in ["bench-eval", "bench-eye", "bench-store", "bench-serve"] {
        let out = mdl(&[cmd]);
        assert_eq!(out.status.code(), Some(2), "{cmd} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage:"), "{cmd}: {stderr}");
        assert!(!stderr.contains(cmd), "{cmd} is still in the usage text");
    }
}

#[test]
fn counts_above_the_workload_bounds_are_usage_errors() {
    let missing = temp_dir("maxcounts").join("missing.mdlx");
    let missing = missing.to_str().unwrap();
    for args in [
        ["mc", missing, "--trials", "100000000000"],
        ["mc", missing, "--trials", "4097"],
        ["mc", missing, "--bits", "65537"],
        ["eye", missing, "--bits", "1000000000000"],
        ["eye", missing, "--lanes", "1000000"],
        ["eye", missing, "--lanes", "65"],
    ] {
        let out = mdl(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        assert!(String::from_utf8_lossy(&out.stderr).contains(args[2]));
    }
    for args in [
        ["mc", missing, "--trials", "4096"],
        ["eye", missing, "--bits", "65536"],
        ["eye", missing, "--lanes", "64"],
    ] {
        assert_eq!(mdl(&args).status.code(), Some(1), "{args:?} must parse");
    }
}

#[test]
fn oversized_transients_are_typed_errors() {
    // A stop time or bit time far beyond the sample time would store more
    // than `circuit::transient::MAX_STORED_VALUES` solution values (the
    // first asks for 320 GB); the analysis refuses before allocating and
    // `mdl` exits 1 with the typed error.
    let dir = temp_dir("oversized");
    let path = dir.join("drv.mdlx");
    save_artifact_as(
        &Artifact::single(driver("drv")),
        ArtifactFormat::Text,
        &path,
    )
    .unwrap();
    let path = path.to_str().unwrap();
    for args in [
        ["simulate", path, "--t-stop", "1"],
        ["simulate", path, "--t-stop", "1e300"],
        ["eye", path, "--bit-time", "1"],
    ] {
        let out = mdl(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("stored values"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_positive_float_flags_are_usage_errors() {
    let missing = temp_dir("floats").join("missing.mdlx");
    let missing = missing.to_str().unwrap();
    let rejected: &[&[&str]] = &[
        &["validate", missing, "--rms-limit", "nan"],
        &["validate", missing, "--rms-limit", "0"],
        &["validate", missing, "--timing-limit", "-1e-10"],
        &["validate", missing, "--timing-limit", "inf"],
        &["eye", missing, "--bit-time", "-1"],
        &["eye", missing, "--bit-time", "0"],
        &["simulate", missing, "--bit-time", "-1"],
        &["simulate", missing, "--bit-time", "0"],
        &["simulate", missing, "--bit-time", "nan"],
        &["simulate", missing, "--t-stop", "-3e-9"],
        &["simulate", missing, "--t-stop", "x"],
        &["simulate", missing, "--pattern", "012"],
        &["simulate", missing, "--pattern", ""],
    ];
    for args in rejected {
        let out = mdl(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let flag = args[args.len() - 2];
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(flag),
            "{args:?}: the error must name {flag}"
        );
    }
    let accepted: &[&[&str]] = &[
        &[
            "validate",
            missing,
            "--rms-limit",
            "0.05",
            "--timing-limit",
            "1e-10",
        ],
        &["eye", missing, "--bit-time", "2e-9"],
        &[
            "simulate",
            missing,
            "--bit-time",
            "1e-9",
            "--t-stop",
            "3e-9",
        ],
    ];
    for args in accepted {
        assert_eq!(mdl(args).status.code(), Some(1), "{args:?} must parse");
    }
}

/// Runs `mdl <sub> FILE <flags>` on the same driver saved as `.mdlx` and as
/// `.mdlxb`, and asserts both runs print the same bytes and exit alike.
fn same_output_for_both_containers(tag: &str, sub: &str, flags: &[&str]) -> Output {
    let dir = temp_dir(tag);
    let text = dir.join("drv.mdlx");
    let bin = dir.join("drv.mdlxb");
    save_artifact_as(
        &Artifact::single(driver("drv")),
        ArtifactFormat::Text,
        &text,
    )
    .unwrap();
    save_artifact_as(
        &Artifact::single(driver("drv")),
        ArtifactFormat::Binary,
        &bin,
    )
    .unwrap();
    let run = |path: &PathBuf| {
        let mut args = vec![sub, path.to_str().unwrap()];
        args.extend_from_slice(flags);
        mdl(&args)
    };
    let (from_text, from_bin) = (run(&text), run(&bin));
    let stderr = String::from_utf8_lossy(&from_bin.stderr);
    assert_eq!(
        from_bin.status.code(),
        from_text.status.code(),
        "{sub}: {stderr}"
    );
    assert_eq!(from_bin.stdout, from_text.stdout, "{sub}: {stderr}");
    assert_eq!(from_bin.stderr, from_text.stderr, "{sub}");
    assert!(!from_text.stdout.is_empty(), "{sub} printed nothing");
    std::fs::remove_dir_all(&dir).ok();
    from_text
}

#[test]
fn lint_reads_binary_artifacts() {
    let out = same_output_for_both_containers("lint_bin", "lint", &["--json"]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn simulate_reads_binary_artifacts() {
    let out = same_output_for_both_containers("simulate_bin", "simulate", &["--t-stop", "2e-9"]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn eye_reads_binary_artifacts() {
    same_output_for_both_containers("eye_bin", "eye", &["--bits", "64", "--json"]);
}

#[test]
fn mc_reads_binary_artifacts() {
    same_output_for_both_containers("mc_bin", "mc", &["--trials", "2", "--bits", "64", "--json"]);
}
