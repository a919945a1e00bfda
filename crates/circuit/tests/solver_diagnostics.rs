//! Solver workspace diagnostics: the symbolic LU analysis must be computed
//! once per circuit and reused across the DC operating point and every
//! transient timestep, and a transient on the port-partitioned path must
//! factor its interior exactly once and solve every Newton iteration on the
//! port Schur complement.

use circuit::devices::{Capacitor, Diode, DiodeParams, Resistor, SourceWaveform, VoltageSource};
use circuit::{Circuit, SolveStats, TranParams, GROUND};

/// A 12-node RC ladder: large enough for the sparse solver path, values
/// stable enough that the pivot order chosen at DC stays valid for every
/// transient step.
fn rc_ladder(n_sections: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("in");
    ckt.add(VoltageSource::new(
        "vs",
        prev,
        GROUND,
        SourceWaveform::step(0.0, 1.0, 1e-10),
    ));
    for k in 0..n_sections {
        let next = ckt.node(format!("n{k}"));
        ckt.add(Resistor::new(format!("r{k}"), prev, next, 100.0));
        ckt.add(Capacitor::new(format!("c{k}"), next, GROUND, 1e-12));
        prev = next;
    }
    ckt
}

/// Solver work of the DC operating point alone, on a fresh workspace.
fn dc_stats(mut ckt: Circuit) -> SolveStats {
    let mut ws = ckt.make_workspace();
    ckt.dc_operating_point_ws(&mut ws, None).unwrap();
    ws.stats()
}

#[test]
fn transient_performs_one_symbolic_analysis() {
    let mut ckt = rc_ladder(12);
    let res = ckt.transient(TranParams::new(1e-11, 2e-9)).unwrap();
    let stats = res.solve_stats;
    assert_eq!(
        stats.symbolic_analyses,
        1,
        "the stamp pattern never changes: exactly one symbolic analysis \
         must cover the DC operating point and all {} steps",
        res.len() - 1
    );
    // A linear ladder is all interior: one interior factorization, then
    // every Newton iteration of every step is a port solve, and the only
    // other factorizations are the DC operating point's.
    assert_eq!(stats.interior_factorizations, 1);
    assert_eq!(stats.port_solves, res.total_newton_iterations);
    assert_eq!(stats.port_fallbacks, 0);
    assert_eq!(
        stats.factorizations,
        dc_stats(rc_ladder(12)).factorizations + 1,
        "the transient must add exactly one factorization to the DC ones"
    );
}

#[test]
fn nonlinear_circuit_reanalyses_only_on_pivot_decay() {
    // Diodes swing their conductance over decades during the edge. On the
    // port path the diode lives in the 1 × 1 port system, so the transient
    // adds no symbolic analysis at all to the DC operating point's (which
    // may re-pivot a handful of times, never once per iteration).
    let build = || {
        let mut ckt = rc_ladder(10);
        let pad = ckt.node("pad");
        ckt.add(Resistor::new("rpad", GROUND, pad, 1e3));
        ckt.add(Diode::new("dclamp", pad, GROUND, DiodeParams::default()));
        ckt
    };
    let res = build().transient(TranParams::new(1e-11, 2e-9)).unwrap();
    let stats = res.solve_stats;
    let dc = dc_stats(build());
    assert!(
        dc.symbolic_analyses <= 4,
        "DC symbolic analyses {} should stay far below its {} factorizations",
        dc.symbolic_analyses,
        dc.factorizations
    );
    assert_eq!(stats.symbolic_analyses, dc.symbolic_analyses);
    assert_eq!(stats.interior_factorizations, 1);
    assert_eq!(stats.factorizations, dc.factorizations + 1);
    assert_eq!(stats.port_solves, res.total_newton_iterations);
    assert_eq!(stats.port_fallbacks, 0);
}

#[test]
fn repeated_dc_solves_share_one_workspace() {
    // The sweep-harness usage: one workspace, many DC solves with changed
    // source values — still a single symbolic analysis.
    let mut ckt = rc_ladder(8);
    let mut ws = ckt.make_workspace();
    let mut prev: Option<Vec<f64>> = None;
    for _ in 0..10 {
        let x = ckt.dc_operating_point_ws(&mut ws, prev.as_deref()).unwrap();
        prev = Some(x);
    }
    assert_eq!(ws.stats().symbolic_analyses, 1);
    assert!(ws.stats().factorizations >= 10);
}
