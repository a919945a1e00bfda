//! Bit-level golden of the standard fleet. The four artifacts that
//! `scripts/fleet-validate.sh` extracts with `mdl extract --fast` — the md1
//! PW-RBF driver (v1), the three md1 IBIS corners as one `mdlx 2` bundle,
//! the md4 receiver (v2 with provenance) and the md4 C–R̂ baseline (v1) —
//! are built through the extraction sessions with the same settings and
//! saved into one store, the driver and the receiver as binary `.mdlxb`
//! containers and the other two as text. The store is then swept over the
//! fast scenario matrix and validated against the references.
//!
//! Two pins: an FNV-1a digest of each `FleetReport::to_json`, with the
//! store root and the wall-clock `elapsed_s` fields blanked, and a per-cell
//! table of waveform digest, Newton iterations, factorizations and flops.
//! A change to extraction, to either container, to the store or to any
//! cell's transient that moves one bit of a result shows up here.

use emc_bench::serve::{
    driver_spec, receiver_spec, standard_scenarios, sweep_store, validate_store, FleetReport,
};
use macromodel::exchange::{save_artifact_as, AnyModel, Artifact, ArtifactFormat};
use macromodel::{ExtractionSession, ModelStore};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Extracts the standard fleet (`mdl extract … --fast`) into `dir`.
fn build_store(dir: &std::path::Path) {
    let md1 = driver_spec("md1").expect("md1");
    let md4 = receiver_spec("md4").expect("md4");

    let pwrbf = ExtractionSession::for_driver(md1.clone())
        .excitation(24, 16, 6)
        .windows(1.5e-9, 3e-9)
        .run()
        .expect("md1 PW-RBF extraction");
    save_artifact_as(
        &Artifact::single(pwrbf.into_model()),
        ArtifactFormat::Binary,
        dir.join("md1-pwrbf.mdlxb"),
    )
    .unwrap();

    let ibis = ExtractionSession::for_ibis(md1)
        .iv_points(21)
        .tables(50e-12, 3e-9)
        .run()
        .expect("md1 IBIS extraction");
    let AnyModel::Ibis(base) = ibis.model() else {
        panic!("IBIS session yields an IBIS model");
    };
    let corners = [
        refdev::IbisCorner::Typical,
        refdev::IbisCorner::Slow,
        refdev::IbisCorner::Fast,
    ]
    .map(|c| AnyModel::Ibis(base.with_corner(c).expect("corner")));
    let provenance = ibis
        .provenance()
        .clone()
        .with_param("corners", "Typical,Slow,Fast");
    save_artifact_as(
        &Artifact::bundle(corners.to_vec(), Some(provenance)),
        ArtifactFormat::Text,
        dir.join("md1-ibis-corners.mdlx"),
    )
    .unwrap();

    let receiver = ExtractionSession::for_receiver(md4.clone())
        .orders(3, 2, 3)
        .excitation(24, 16, 6)
        .run()
        .expect("md4 receiver extraction");
    save_artifact_as(
        &receiver.to_artifact(),
        ArtifactFormat::Binary,
        dir.join("md4-receiver.mdlxb"),
    )
    .unwrap();

    let cr = ExtractionSession::for_cr_baseline(md4)
        .run()
        .expect("md4 C-R extraction");
    save_artifact_as(
        &Artifact::single(cr.into_model()),
        ArtifactFormat::Text,
        dir.join("md4-cr.mdlx"),
    )
    .unwrap();
}

/// Digest of the report's JSON without the volatile fields.
fn report_digest(report: &FleetReport) -> u64 {
    let mut report = report.clone();
    report.store_root.clear();
    for cell in &mut report.cells {
        cell.elapsed_s = 0.0;
    }
    fnv1a(report.to_json().as_bytes())
}

type Row = (&'static str, &'static str, u64, usize, usize, u64);

/// One line per cell, `(model, scenario, waveform digest, Newton
/// iterations, factorizations, flops)`, in report order and in the form the
/// tables below are written in.
fn cell_lines(report: &FleetReport) -> Vec<String> {
    report
        .cells
        .iter()
        .map(|c| {
            let s = c.stats.unwrap_or_default();
            row_line(&(
                &c.model,
                &c.scenario,
                c.wave_digest,
                s.newton_iterations,
                s.factorizations,
                s.flops,
            ))
        })
        .collect()
}

fn row_line(
    &(model, scenario, digest, newton, factorizations, flops): &(
        &str,
        &str,
        u64,
        usize,
        usize,
        u64,
    ),
) -> String {
    format!("({model:?}, {scenario:?}, {digest:#018x}, {newton}, {factorizations}, {flops}),")
}

fn assert_cells(what: &str, report: &FleetReport, want: &[Row]) {
    let got = cell_lines(report);
    let want: Vec<String> = want.iter().map(row_line).collect();
    assert!(
        got == want,
        "{what}: per-cell table moved; got\n{}",
        got.join("\n")
    );
}

const SWEEP_DIGEST: u64 = 0x6487_5c5e_2818_607a;
const VALIDATE_DIGEST: u64 = 0x53ba_7e11_4847_1196;

const SWEEP_CELLS: &[Row] = &[
    ("md1_Typical", "r50", 0xa09a8b08033c5538, 466, 467, 0),
    ("md1_Typical", "linecap", 0x8cbdf438b55e65a2, 262, 2, 8),
    (
        "md1_Typical",
        "bus-ladder",
        0xe649528223f1978d,
        312,
        6,
        2190,
    ),
    (
        "md1_Typical",
        "eye-prbs7",
        0xd61a4ea6664f6138,
        1654,
        2,
        3893,
    ),
    (
        "md1_Typical",
        "mc-channel",
        0xcc5bbc1c5a9833ab,
        5959,
        8,
        1404,
    ),
    ("md1_Slow", "r50", 0xbc43c8fd12862ded, 485, 486, 0),
    ("md1_Slow", "linecap", 0x2dc7be6e8f811205, 261, 2, 8),
    ("md1_Slow", "bus-ladder", 0x973b2cbd04c2fdd9, 301, 5, 2005),
    ("md1_Slow", "eye-prbs7", 0x843737eacfec6920, 1633, 2, 3851),
    ("md1_Slow", "mc-channel", 0xc52e925ee7066242, 5898, 8, 1404),
    ("md1_Fast", "r50", 0x3f3f687590d51e91, 449, 450, 0),
    ("md1_Fast", "linecap", 0xe81e00b0c840e1f9, 264, 2, 8),
    ("md1_Fast", "bus-ladder", 0x3d8e2cd7b9bbc76c, 316, 6, 2198),
    ("md1_Fast", "eye-prbs7", 0x13475f33abc44bdc, 1660, 2, 3905),
    ("md1_Fast", "mc-channel", 0x84fd29751b84e48d, 5977, 8, 1404),
    ("md1", "r50", 0xec09e5706fe2970c, 501, 503, 0),
    ("md1", "linecap", 0xde945c1bb325da6a, 395, 3, 14),
    ("md1", "bus-ladder", 0x8a36c2b92f3ae83d, 421, 6, 2615),
    ("md1", "eye-prbs7", 0x6ba83f33e177ae9b, 1997, 3, 4878),
    ("md1", "mc-channel", 0x620cbc7a21a313af, 6631, 12, 2096),
    ("md4_cr", "pulse", 0x7ae25bc540a7dea9, 201, 202, 1818),
    ("md4", "pulse", 0xa71ee4edeabde4d3, 243, 245, 2205),
    (
        "mixed:md1_Typical+md1_Slow+md1_Fast+md1",
        "bus-mixed",
        0xc1b9a2a5db98f54d,
        422,
        6,
        13309,
    ),
];

const VALIDATE_CELLS: &[Row] = &[
    (
        "md1_Typical",
        "reference-validate",
        0xa09a8b08033c5538,
        0,
        0,
        0,
    ),
    (
        "md1_Slow",
        "reference-validate",
        0xbc43c8fd12862ded,
        0,
        0,
        0,
    ),
    (
        "md1_Fast",
        "reference-validate",
        0x3f3f687590d51e91,
        0,
        0,
        0,
    ),
    ("md1", "reference-validate", 0xec09e5706fe2970c, 0, 0, 0),
    ("md4_cr", "reference-validate", 0x2910a7c4091b4cb6, 0, 0, 0),
    ("md4", "reference-validate", 0x056e500a1a688496, 0, 0, 0),
];

#[test]
fn standard_fleet_reports_are_bit_stable() {
    let dir = std::env::temp_dir().join(format!("fleet_golden_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    build_store(&dir);
    let store = ModelStore::open(&dir).expect("store opens");
    let sweep = sweep_store(&store, &standard_scenarios(true));
    let validate = validate_store(&store, true);
    std::fs::remove_dir_all(&dir).ok();

    assert!(sweep.all_passed() && validate.all_passed());
    assert_eq!((sweep.artifacts, sweep.models), (4, 6));
    assert_cells("sweep", &sweep, SWEEP_CELLS);
    assert_cells("validate", &validate, VALIDATE_CELLS);
    let got = (report_digest(&sweep), report_digest(&validate));
    assert_eq!(
        got,
        (SWEEP_DIGEST, VALIDATE_DIGEST),
        "report digests {:#018x} {:#018x}",
        got.0,
        got.1
    );
}
