//! Tier-1 guard for the sparse-solver scaling workload: the N-segment
//! lossy multi-driver bus ladder (see `emc_bench::run_bus_ladder`).
//!
//! Two claims are pinned here. First, on a ~300-unknown ladder — past the
//! old `MIN_DEGREE_LIMIT = 256` where the previous implementation silently
//! dropped its fill ordering — the sparse Gilbert–Peierls backend and the
//! dense O(n³) reference backend produce the same transient to ≤ 1e-8 of
//! the signal peak on a downsampled grid. Second, a ≥ 1000-unknown ladder
//! completes with a single symbolic analysis, a single interior
//! factorization reused by every Newton iteration, and sparse-sized
//! factors, which the dense pivot-discovery path could not have done
//! without an n × n scratch matrix and an O(n³) analysis.

use emc_bench::{ladder_disagreement, run_bus_ladder};

#[test]
fn small_bus_ladder_matches_dense_reference() {
    let sparse = run_bus_ladder(3, 11, false).expect("sparse ladder run");
    let dense = run_bus_ladder(3, 11, true).expect("dense reference run");
    assert!(
        sparse.unknowns > 256,
        "scenario must exceed the deleted ordering cutoff, got {}",
        sparse.unknowns
    );
    assert_eq!(sparse.unknowns, dense.unknowns);
    let err = ladder_disagreement(&sparse, &dense, 8);
    assert!(
        err <= 1e-8,
        "sparse vs dense downsampled disagreement {err:.3e} exceeds 1e-8"
    );
    // The whole point of the sparse path: factors stay near the pattern
    // size instead of n².
    assert!(
        sparse.solve_stats.factor_nnz * 10 < dense.solve_stats.factor_nnz,
        "sparse fill {} is not sparse against dense {}",
        sparse.solve_stats.factor_nnz,
        dense.solve_stats.factor_nnz
    );
}

#[test]
fn thousand_unknown_ladder_completes_sparsely() {
    let run = run_bus_ladder(4, 30, false).expect("large ladder transient");
    assert!(
        run.unknowns >= 1000,
        "workload shrank below the scaling target: {} unknowns",
        run.unknowns
    );
    let s = run.solve_stats;
    assert_eq!(
        s.symbolic_analyses, 1,
        "a linear circuit re-stamps identical values: one analysis"
    );
    // A linear ladder is all interior: the transient factors it once and
    // solves every Newton iteration against that factor.
    assert_eq!(
        s.interior_factorizations, 1,
        "one interior factorization per transient"
    );
    assert_eq!(
        s.port_solves, run.newton_iterations,
        "every Newton iteration solves on the frozen factor"
    );
    // Fill stays within a small constant of the unknown count (the ladder
    // is a banded graph); n²/10 would already indicate ordering collapse.
    assert!(
        s.factor_nnz < 20 * run.unknowns,
        "fill explosion: {} nnz for {} unknowns",
        s.factor_nnz,
        run.unknowns
    );
    assert!(s.flops > 0, "flop accounting must be live");
    // Matched terminations settle each lane near half swing.
    for (j, w) in run.far_voltages.iter().enumerate() {
        let v_final = *w.values().last().expect("non-empty waveform");
        assert!(
            (v_final - 0.5).abs() < 0.1,
            "lane {j} settled at {v_final:.3} V"
        );
    }
}
