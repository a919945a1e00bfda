//! Peak resident memory of the paper's flow: two driver sessions, the md4
//! receiver session with the paper's settings, then Table 1. The bound sits
//! between the peak of a flow that frees a fresh candidate slab per fit and
//! keeps the whole Table 1 reference history (31 MB on x86-64 Linux with
//! glibc) and the peak of one reused scratch slab and a probed reference
//! (21 MB), with at least 4 MB to spare on each side.
//!
//! `VmHWM` is the process's high-water mark, so the test runs alone in its
//! own binary: other tests would add their own peaks to it.

#![cfg(all(target_os = "linux", target_env = "gnu"))]

use emc_bench::{fig4, Fig4Config};
use macromodel::{AnyModel, ExtractionSession};

/// Peak resident set size the flow may reach (MB).
const PEAK_BOUND_MB: f64 = 26.0;

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in kB");
    kb / 1024.0
}

#[test]
fn paper_flow_peak_rss_stays_bounded() {
    let md3 = match ExtractionSession::for_driver(refdev::md3())
        .run()
        .unwrap()
        .into_model()
    {
        AnyModel::PwRbfDriver(m) => m,
        other => panic!("md3 session returned {other:?}"),
    };
    ExtractionSession::for_driver(refdev::md1()).run().unwrap();
    ExtractionSession::for_receiver(refdev::md4())
        .orders(3, 2, 3)
        .excitation(40, 64, 6)
        .run()
        .unwrap();
    fig4(&Fig4Config::default(), Some(md3)).unwrap();
    let peak = peak_rss_mb();
    eprintln!("peak rss {peak:.1} MB (bound {PEAK_BOUND_MB} MB)");
    assert!(
        peak < PEAK_BOUND_MB,
        "peak rss {peak:.1} MB over the {PEAK_BOUND_MB} MB bound"
    );
}
