//! The port-partitioned transient path against the dense reference backend.
//!
//! Random RC/RLC/ideal-line networks terminated in one to eight diodes to
//! ground must take the port path (one interior factorization, every
//! transient Newton iteration a port solve) and agree with
//! `TranParams::with_dense_solver` to 1e-9 of the waveform peak. Fixed
//! cases pin the full-path exits: a voltage source across a port (singular
//! interior, a counted fallback; the typed reasons are unit-tested in
//! `circuit::solver`), a nonlinear matrix or right-hand-side write outside
//! the port block (a counted fallback mid-transient) and a CMOS inverter
//! (nonlinear throughout, where the flop counts keep the full path).

use circuit::devices::{
    Capacitor, Diode, DiodeParams, IdealLine, Inductor, MosPolarity, Mosfet, MosfetParams,
    Resistor, SourceWaveform, VoltageSource,
};
use circuit::{
    Circuit, Device, EvalCtx, Node, PatternBuilder, StampWorkspace, TranParams, TranResult, GROUND,
};
use proptest::prelude::*;

const DT: f64 = 10e-12;
const T_STOP: f64 = 2e-9;

/// One ladder section: kind (0 = R, 1 = R + L, 2 = ideal line) and two
/// values in `[0, 1)` scaled per kind.
type Section = (u8, f64, f64);

/// A pulse-driven ladder of `sections`, a shunt capacitor at every ladder
/// node, coupling capacitors between the `chords` node pairs, a matched
/// termination, and a diode to ground at each `diodes` node (`true`: anode
/// on the node). Returns the circuit and its ladder nodes.
fn network(
    sections: &[Section],
    chords: &[(usize, usize, f64)],
    diodes: &[(usize, bool)],
) -> (Circuit, Vec<Node>) {
    let mut ckt = Circuit::new();
    let src = ckt.node("src");
    ckt.add(VoltageSource::new(
        "vs",
        src,
        GROUND,
        SourceWaveform::Pulse {
            low: 0.0,
            high: 1.5,
            delay: 0.1e-9,
            rise: 0.1e-9,
            width: 1.0e-9,
            fall: 0.1e-9,
        },
    ));
    let mut nodes = vec![ckt.node("n0")];
    ckt.add(Resistor::new("rs", src, nodes[0], 30.0));
    for (k, &(kind, a, b)) in sections.iter().enumerate() {
        let from = nodes[k];
        let to = ckt.node(format!("n{}", k + 1));
        match kind {
            0 => {
                ckt.add(Resistor::new(format!("r{k}"), from, to, 5.0 + 95.0 * a));
            }
            1 => {
                let mid = ckt.node(format!("m{k}"));
                ckt.add(Resistor::new(format!("r{k}"), from, mid, 1.0 + 19.0 * a));
                ckt.add(Inductor::new(
                    format!("l{k}"),
                    mid,
                    to,
                    (0.5 + 4.5 * b) * 1e-9,
                ));
            }
            _ => {
                ckt.add(IdealLine::new(
                    format!("t{k}"),
                    from,
                    GROUND,
                    to,
                    GROUND,
                    40.0 + 40.0 * a,
                    (20.0 + 180.0 * b) * 1e-12,
                ));
            }
        }
        ckt.add(Capacitor::new(
            format!("c{k}"),
            to,
            GROUND,
            (0.2 + 1.8 * b) * 1e-12,
        ));
        nodes.push(to);
    }
    let last = *nodes.last().expect("ladder has nodes");
    ckt.add(Resistor::new("rterm", last, GROUND, 50.0));
    for (k, &(i, j, v)) in chords.iter().enumerate() {
        let (a, b) = (nodes[i % nodes.len()], nodes[j % nodes.len()]);
        if a != b {
            ckt.add(Capacitor::new(
                format!("cx{k}"),
                a,
                b,
                (0.05 + 0.45 * v) * 1e-12,
            ));
        }
    }
    let mut used = Vec::new();
    for (k, &(i, anode_on_node)) in diodes.iter().enumerate() {
        let at = nodes[i % nodes.len()];
        if used.contains(&at) {
            continue;
        }
        used.push(at);
        let (a, c) = if anode_on_node {
            (at, GROUND)
        } else {
            (GROUND, at)
        };
        ckt.add(Diode::new(format!("d{k}"), a, c, DiodeParams::default()));
    }
    (ckt, nodes)
}

/// Largest node-voltage disagreement of two results, relative to the
/// reference's peak node voltage.
fn relative_disagreement(ckt: &Circuit, got: &TranResult, reference: &TranResult) -> f64 {
    assert_eq!(got.len(), reference.len());
    let n_v = ckt.n_nodes() - 1;
    let (mut diff, mut peak) = (0.0_f64, 0.0_f64);
    for k in 0..got.len() {
        for (a, b) in got.solution(k)[..n_v]
            .iter()
            .zip(&reference.solution(k)[..n_v])
        {
            diff = diff.max((a - b).abs());
            peak = peak.max(b.abs());
        }
    }
    diff / peak
}

/// Runs `build` on the default solver and on the dense reference.
fn against_dense(build: impl Fn() -> Circuit) -> (Circuit, TranResult, TranResult) {
    let params = TranParams::new(DT, T_STOP);
    let mut ckt = build();
    let got = ckt.transient(params).expect("default solver");
    let reference = build()
        .transient(params.with_dense_solver())
        .expect("dense reference");
    (ckt, got, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn port_path_matches_dense_reference(
        sections in prop::collection::vec((0u8..3, 0.0f64..1.0, 0.0f64..1.0), 24..40),
        chords in prop::collection::vec((0usize..40, 0usize..40, 0.0f64..1.0), 6..16),
        diodes in prop::collection::vec((0usize..40, any::<bool>()), 1..9),
    ) {
        let (ckt, got, reference) = against_dense(|| network(&sections, &chords, &diodes).0);
        let s = got.solve_stats;
        prop_assert_eq!(s.interior_factorizations, 1, "port path not taken: {:?}", s);
        prop_assert_eq!(s.port_fallbacks, 0);
        prop_assert_eq!(s.port_solves, got.total_newton_iterations);
        prop_assert_eq!(reference.solve_stats.interior_factorizations, 0);
        let err = relative_disagreement(&ckt, &got, &reference);
        prop_assert!(err <= 1e-9, "port path vs dense: {:.3e} of peak", err);
    }
}

/// A fixed network the port path accepts (checked below) before a source
/// is added across a port.
fn clamped_ladder() -> (Circuit, Vec<Node>) {
    let sections: Vec<Section> = (0..16).map(|k| ((k % 3) as u8, 0.4, 0.6)).collect();
    let chords = [(1, 9, 0.5), (3, 14, 0.2), (5, 12, 0.8), (2, 7, 0.3)];
    network(&sections, &chords, &[(6, true), (11, false)])
}

#[test]
fn fixed_network_takes_the_port_path() {
    let (_, got, reference) = against_dense(|| clamped_ladder().0);
    assert_eq!(got.solve_stats.interior_factorizations, 1);
    assert_eq!(got.solve_stats.port_solves, got.total_newton_iterations);
    assert_eq!(reference.solve_stats.port_solves, 0);
}

#[test]
fn voltage_source_across_a_port_falls_back_and_matches() {
    let build = || {
        let (mut ckt, nodes) = clamped_ladder();
        // Node 6 carries a diode, so it is a port; a source straight across
        // it leaves the source's branch row with no interior entry.
        ckt.add(VoltageSource::new(
            "vclamp",
            nodes[6],
            GROUND,
            SourceWaveform::dc(0.4),
        ));
        ckt
    };
    let (ckt, got, reference) = against_dense(build);
    let s = got.solve_stats;
    assert_eq!(s.port_fallbacks, 1, "{s:?}");
    assert_eq!(s.interior_factorizations, 0);
    assert_eq!(s.port_solves, 0);
    // The full path: one refactorization per iteration, no symbolic
    // re-analysis per iteration.
    assert!(s.factorizations >= got.total_newton_iterations, "{s:?}");
    assert!(s.symbolic_analyses <= 4, "{s:?}");
    let err = relative_disagreement(&ckt, &got, &reference);
    assert!(
        err <= 1e-9,
        "full-path fallback vs dense: {err:.3e} of peak"
    );
}

/// A diode that registers no matrix position, so its node is no port.
struct UnregisteredDiode(Diode);

impl Device for UnregisteredDiode {
    fn label(&self) -> &str {
        self.0.label()
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn stamp(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        self.0.stamp(ctx, ws);
    }
}

#[test]
fn stray_nonlinear_write_falls_back_and_matches() {
    let build = || {
        let (mut ckt, nodes) = clamped_ladder();
        let d = Diode::new("dstray", nodes[3], GROUND, DiodeParams::default());
        ckt.add(UnregisteredDiode(d));
        ckt
    };
    let (ckt, got, reference) = against_dense(build);
    let s = got.solve_stats;
    // The interior was factored, then the first iteration's stray write
    // sent the transient back to the full path for good.
    assert_eq!(
        (s.interior_factorizations, s.port_fallbacks),
        (1, 1),
        "{s:?}"
    );
    assert_eq!(s.port_solves, 0);
    let err = relative_disagreement(&ckt, &got, &reference);
    assert!(
        err <= 1e-9,
        "stray-write fallback vs dense: {err:.3e} of peak"
    );
}

/// A diode that registers its own port but also injects a constant current
/// into a node it never registers: a right-hand-side write on an interior
/// row.
struct LeakyDiode {
    diode: Diode,
    leak_into: Node,
}

impl Device for LeakyDiode {
    fn label(&self) -> &str {
        self.diode.label()
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn register(&self, pb: &mut PatternBuilder) {
        self.diode.register(pb);
    }

    fn stamp(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        self.diode.stamp(ctx, ws);
        let row = ctx.node_index(self.leak_into).expect("not ground");
        ws.rhs_add(row, 2e-3);
    }
}

#[test]
fn stray_nonlinear_rhs_write_falls_back_and_matches() {
    let build = || {
        let (mut ckt, nodes) = clamped_ladder();
        ckt.add(LeakyDiode {
            diode: Diode::new("dleak", nodes[9], GROUND, DiodeParams::default()),
            leak_into: nodes[3],
        });
        ckt
    };
    let (ckt, got, reference) = against_dense(build);
    let s = got.solve_stats;
    // The interior was factored, then the first iteration's right-hand-side
    // write on row `n3` sent the transient back to the full path for good.
    assert_eq!(
        (s.interior_factorizations, s.port_fallbacks, s.port_solves),
        (1, 1, 0),
        "{s:?}"
    );
    let err = relative_disagreement(&ckt, &got, &reference);
    assert!(
        err <= 1e-9,
        "stray rhs fallback vs dense: {err:.3e} of peak"
    );
}

#[test]
fn cmos_inverter_stays_on_the_full_path() {
    let build = || {
        let np = MosfetParams {
            vt0: 0.4,
            kp: 200e-6,
            w: 4e-6,
            l: 1e-6,
            lambda: 0.02,
        };
        let pp = MosfetParams {
            vt0: -0.4,
            kp: 100e-6,
            w: 8e-6,
            l: 1e-6,
            lambda: 0.02,
        };
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(VoltageSource::new(
            "vs",
            vdd,
            GROUND,
            SourceWaveform::dc(1.8),
        ));
        ckt.add(VoltageSource::new(
            "vi",
            vin,
            GROUND,
            SourceWaveform::step(0.0, 1.8, 0.2e-9),
        ));
        ckt.add(Mosfet::new("mn", out, vin, GROUND, MosPolarity::Nmos, np));
        ckt.add(Mosfet::new("mp", out, vin, vdd, MosPolarity::Pmos, pp));
        ckt.add(Capacitor::new("cl", out, GROUND, 20e-15));
        ckt
    };
    let (ckt, got, reference) = against_dense(build);
    let s = got.solve_stats;
    assert_eq!(
        (s.interior_factorizations, s.port_solves, s.port_fallbacks),
        (0, 0, 0),
        "{s:?}"
    );
    assert!(s.factorizations >= got.total_newton_iterations, "{s:?}");
    assert!(s.symbolic_analyses <= 4, "{s:?}");
    let err = relative_disagreement(&ckt, &got, &reference);
    assert!(err <= 1e-9, "inverter vs dense: {err:.3e} of peak");
}
