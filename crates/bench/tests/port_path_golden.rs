//! Bit-level goldens of the port-partitioned transient path. The eye and
//! Monte-Carlo workloads (fast settings) drive the md1 PW-RBF driver,
//! estimated with the experiment defaults, through channel expansions that
//! take the port path; the `pulse` fixture cell runs the committed receiver
//! artifact (`crates/core/tests/data/receiver.mdlx`). The committed driver
//! artifact is not used: its synthetic submodels do not converge on these
//! channels. Any change to how linear or nonlinear devices
//! stamp, or to the order of the port system's sums, that moves a single
//! bit of a waveform or changes the solver's work shows up here. The
//! digests are FNV-1a over the little-endian `f64::to_bits` of every
//! sample of every waveform, in lane (or trial) order.

use std::sync::OnceLock;

use circuit::{Circuit, TranParams, Waveform};
use emc_bench::driver_model;
use emc_bench::serve::{
    run_eye_workload, run_mc_workload, standard_scenarios, CellStats, EyeWorkload, McWorkload,
    ScenarioKind,
};
use macromodel::exchange::{load_model_from_path, AnyModel};
use macromodel::Macromodel;
use si::{EyeAnalyzer, EyeConfig};

/// FNV-1a over the bit patterns of every sample of `waves`.
fn fnv1a_bits(waves: &[Waveform]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in waves.iter().flat_map(|w| w.values()) {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

fn fixture(name: &str) -> AnyModel {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../core/tests/data")
        .join(name);
    load_model_from_path(&path).expect("committed golden artifact loads")
}

/// The md1 driver model, estimated once per test binary.
fn md1() -> &'static AnyModel {
    static MODEL: OnceLock<AnyModel> = OnceLock::new();
    MODEL.get_or_init(|| driver_model(&refdev::md1()).expect("md1 estimation").into())
}

fn sample_time(model: &AnyModel) -> f64 {
    model.sample_time().expect("sampled model")
}

/// `(digest, newton iterations, factorizations, flops)` of one cell.
fn summary(waves: &[Waveform], stats: &CellStats) -> (u64, usize, usize, u64) {
    (
        fnv1a_bits(waves),
        stats.newton_iterations,
        stats.factorizations,
        stats.flops,
    )
}

#[test]
fn eye_workload_is_bit_stable() {
    let model = md1();
    let w = EyeWorkload::standard(true);
    let mut analyzer = EyeAnalyzer::new(EyeConfig::new(w.bit_time));
    let (waves, stats, _) =
        run_eye_workload(model, &w, sample_time(model), &mut analyzer).expect("eye run");
    let got = summary(&waves, &stats);
    assert_eq!(
        got,
        (0x21bc_26ff_5b2d_a596, 1971, 3, 4826),
        "eye: {:#018x} {got:?}",
        got.0
    );
}

#[test]
fn mc_workload_is_bit_stable() {
    let model = md1();
    let w = McWorkload::standard(true);
    let (waves, stats, _) = run_mc_workload(model, &w, sample_time(model)).expect("mc run");
    let got = summary(&waves, &stats);
    assert_eq!(
        got,
        (0x3cf1_0116_9d00_8874, 6570, 12, 2096),
        "mc: {:#018x} {got:?}",
        got.0
    );
}

#[test]
fn receiver_pulse_cell_is_bit_stable() {
    let model = fixture("receiver.mdlx");
    let scenario = standard_scenarios(true)
        .into_iter()
        .find(|s| s.name == "pulse")
        .expect("standard pulse scenario");
    let ScenarioKind::Fixture {
        fixture,
        stim,
        t_stop,
    } = scenario.kind
    else {
        panic!("pulse is a fixture cell");
    };
    let mut ckt = Circuit::new();
    let pad = ckt.node("pad");
    fixture.install(&mut ckt, pad);
    model
        .instantiate(&mut ckt, pad, stim.as_ref())
        .expect("receiver installs");
    let res = ckt
        .transient(TranParams::new(sample_time(&model), t_stop))
        .expect("pulse run");
    let s = res.solve_stats;
    let got = (
        fnv1a_bits(&[res.voltage(pad)]),
        res.total_newton_iterations,
        s.factorizations,
        s.flops,
    );
    assert_eq!(
        got,
        (0x88a9_e98a_052b_c8c0, 101, 103, 927),
        "pulse: {:#018x} {got:?}",
        got.0
    );
}

/// The md1 driver on the fast `r50` and `linecap` fixture cells, built the
/// way the sweep builds a fixture cell: pad node, fixture, one single-pad
/// install, transient at `Ts`.
#[test]
fn driver_fixture_cells_are_bit_stable() {
    let model = md1();
    let ts = sample_time(model);
    let mut got = Vec::new();
    for name in ["r50", "linecap"] {
        let scenario = standard_scenarios(true)
            .into_iter()
            .find(|s| s.name == name)
            .expect("standard driver scenario");
        let ScenarioKind::Fixture {
            fixture,
            stim,
            t_stop,
        } = scenario.kind
        else {
            panic!("{name} is a fixture cell");
        };
        let mut ckt = Circuit::new();
        let pad = ckt.node(format!("{}_pad", model.name()));
        fixture.install(&mut ckt, pad);
        model
            .instantiate(&mut ckt, pad, stim.as_ref())
            .expect("driver installs");
        let res = ckt
            .transient(TranParams::new(ts, t_stop))
            .expect("fixture run");
        let s = res.solve_stats;
        got.push((
            fnv1a_bits(&[res.voltage(pad)]),
            res.total_newton_iterations,
            s.factorizations,
            s.flops,
        ));
    }
    assert_eq!(
        got,
        vec![
            (0xeb9e_1f3a_67f2_1fd8, 498, 500, 0),
            (0xbf3d_789c_7cf5_3bfd, 395, 3, 14),
        ],
        "{got:x?}"
    );
}
