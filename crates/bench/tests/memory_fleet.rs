//! Resident memory of a store sweep after extraction: two driver sessions
//! and the md4 receiver session with the paper's settings fill the fit
//! scratch, their models go into a store, and the store is swept over the
//! fast matrix (two drivers add the mixed-bus cell). A sweep never fits, so
//! it hands the scratch back before its cells run.
//!
//! The test reads `VmRSS`, the memory resident once the sweep is done, not
//! the high-water mark: extraction's own peak is the paper-flow test's
//! concern. On x86-64 Linux with glibc a sweep that keeps the 14.3 MB slab
//! leaves 21.0–21.3 MB resident, and one that hands it back 7.1–7.4 MB; the
//! bound sits between them with at least 6 MB to spare on each side. It
//! runs alone in its own binary: other tests would add their own memory.

#![cfg(all(target_os = "linux", target_env = "gnu"))]

use emc_bench::serve::{standard_scenarios, sweep_store};
use macromodel::exchange::{save_artifact_as, Artifact, ArtifactFormat};
use macromodel::{ExtractionSession, ModelStore};

/// Resident set size a swept process may keep (MB).
const RSS_BOUND_MB: f64 = 14.0;

/// `VmRSS` of this process, in MB.
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS in kB");
    kb / 1024.0
}

#[test]
fn sweep_runs_without_the_fit_scratch() {
    let dir = std::env::temp_dir().join(format!("memory_fleet_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let models = [
        ExtractionSession::for_driver(refdev::md3()).run(),
        ExtractionSession::for_driver(refdev::md1()).run(),
        ExtractionSession::for_receiver(refdev::md4())
            .orders(3, 2, 3)
            .excitation(40, 64, 6)
            .run(),
    ];
    for (i, model) in models.into_iter().enumerate() {
        let model = model.unwrap().into_model();
        save_artifact_as(
            &Artifact::single(model),
            ArtifactFormat::Text,
            dir.join(format!("m{i}.mdlx")),
        )
        .unwrap();
    }
    let store = ModelStore::open(&dir).unwrap();
    let report = sweep_store(&store, &standard_scenarios(true));
    let rss = rss_mb();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(report.models, 3);
    assert!(
        report.cells.iter().any(|c| c.scenario == "bus-mixed"),
        "two drivers give a mixed-bus cell"
    );
    eprintln!("rss after the sweep {rss:.1} MB (bound {RSS_BOUND_MB} MB)");
    assert!(
        rss < RSS_BOUND_MB,
        "rss after the sweep {rss:.1} MB over the {RSS_BOUND_MB} MB bound"
    );
}
