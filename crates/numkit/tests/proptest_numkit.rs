//! Property-based tests for the numerical kernel.

use numkit::sparse::{CscPattern, SparseLu};
use numkit::{cholesky::CholeskyFactor, interp, lstsq, lu::LuFactor, qr, stats, Matrix};
use proptest::prelude::*;

/// Builds an MNA-shaped pattern: `n_nodes` node unknowns (full diagonal,
/// nearest-neighbor coupling, `extra` random conductances) plus
/// `n_branches` voltage-source-style branch rows with structurally zero
/// diagonals. Returns the pattern and a diagonally dominant value set.
fn mna_system(
    n_nodes: usize,
    n_branches: usize,
    extra: usize,
    seed: u64,
) -> (CscPattern, Vec<f64>) {
    let n = n_nodes + n_branches;
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut entries: Vec<(usize, usize)> = (0..n_nodes).map(|i| (i, i)).collect();
    for i in 1..n_nodes {
        entries.push((i - 1, i));
        entries.push((i, i - 1));
    }
    for _ in 0..extra {
        let r = (next() % n_nodes as u64) as usize;
        let c = (next() % n_nodes as u64) as usize;
        entries.push((r, c));
        entries.push((c, r));
    }
    // One node per branch, stratified so no two branches short the same
    // node (parallel ideal sources would be exactly singular).
    let stride = n_nodes / n_branches;
    for b in 0..n_branches {
        let br = n_nodes + b;
        let node = b * stride + (next() % stride as u64) as usize;
        entries.push((node, br));
        entries.push((br, node));
    }
    let pattern = CscPattern::from_entries(n, &entries).unwrap();
    let values = mna_values(&pattern, n_nodes, seed ^ 0x5bd1_e995);
    (pattern, values)
}

/// Diagonally dominant values over an MNA-shaped pattern: node diagonals
/// dominate their row, branch couplings are ±1-ish.
fn mna_values(pattern: &CscPattern, n_nodes: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    let mut uniform = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    let n = pattern.n();
    let mut values = vec![0.0; pattern.nnz()];
    for c in 0..n {
        for (r, slot) in pattern.col_entries(c) {
            values[slot] = if r == c {
                16.0 + uniform()
            } else if r < n_nodes && c < n_nodes {
                uniform()
            } else if uniform() >= 0.0 {
                1.0
            } else {
                -1.0
            };
        }
    }
    values
}

/// Asserts the sparse factorization reproduces the dense partial-pivoting
/// solution and residual on the given system.
fn assert_sparse_matches_dense(pattern: &CscPattern, values: &[f64], lu: &SparseLu) {
    let n = pattern.n();
    let dense = pattern.to_dense(values).unwrap();
    let dense_lu = LuFactor::new(&dense).unwrap();
    let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
    let xs = lu.solve(&b).unwrap();
    let xd = dense_lu.solve(&b).unwrap();
    for (i, (a, d)) in xs.iter().zip(&xd).enumerate() {
        assert!(
            (a - d).abs() < 1e-8 * (1.0 + d.abs()),
            "solution mismatch at {i}: sparse {a} vs dense {d}"
        );
    }
    let r = dense.matvec(&xs).unwrap();
    for (ri, bi) in r.iter().zip(&b) {
        assert!((ri - bi).abs() < 1e-8, "residual {ri} vs {bi}");
    }
}

/// Strategy: a well-conditioned square matrix built as D + small perturbation,
/// where D is diagonally dominant.
fn dominant_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |vals| {
        let mut m = Matrix::from_vec(n, n, vals).expect("sized vec");
        for i in 0..n {
            // Diagonal dominance guarantees non-singularity.
            let row_sum: f64 = (0..n).filter(|&j| j != i).map(|j| m.get(i, j).abs()).sum();
            m.set(i, i, row_sum + 1.0 + m.get(i, i).abs());
        }
        m
    })
}

fn vector(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solves_dominant_systems((a, b) in (2usize..7).prop_flat_map(|n| (dominant_matrix(n), vector(n)))) {
        let lu = LuFactor::new(&a).expect("dominant matrices are non-singular");
        let x = lu.solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-8, "residual too large: {} vs {}", ri, bi);
        }
    }

    #[test]
    fn lu_det_sign_consistent(a in (2usize..5).prop_flat_map(dominant_matrix)) {
        // Diagonally dominant with positive diagonal entries: determinant
        // must be nonzero.
        let lu = LuFactor::new(&a).unwrap();
        prop_assert!(lu.det().abs() > 0.0);
    }

    #[test]
    fn qr_least_squares_residual_orthogonal(
        (rows, cols) in (3usize..8).prop_flat_map(|m| (Just(m), 1usize..3)),
        seed in any::<u64>(),
    ) {
        // Random full-rank tall matrix via seeded values plus identity block.
        let mut vals = Vec::with_capacity(rows * cols);
        let mut s = seed;
        for _ in 0..rows * cols {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            vals.push(((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0);
        }
        let mut a = Matrix::from_vec(rows, cols, vals).unwrap();
        for c in 0..cols {
            a.add_at(c, c, 3.0); // boost rank
        }
        let b: Vec<f64> = (0..rows).map(|i| (i as f64).sin()).collect();
        let x = qr::solve_ls(&a, &b).unwrap();
        // Normal equations: A^T (A x - b) = 0.
        let ax = a.matvec(&x).unwrap();
        let resid: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        let atr = a.t_matvec(&resid).unwrap();
        for v in atr {
            prop_assert!(v.abs() < 1e-7, "normal equations violated: {}", v);
        }
    }

    #[test]
    fn cholesky_solves_spd((a, b) in (2usize..6).prop_flat_map(|n| (dominant_matrix(n), vector(n)))) {
        // Make SPD: G = A A^T + I.
        let mut g = a.matmul(&a.transpose()).unwrap();
        for i in 0..g.rows() {
            g.add_at(i, i, 1.0);
        }
        let chol = CholeskyFactor::new(&g).expect("A A^T + I is SPD");
        let x = chol.solve(&b).unwrap();
        let r = g.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-6);
        }
    }

    #[test]
    fn pwl_eval_within_hull(ys in prop::collection::vec(-5.0f64..5.0, 2..10), t in -2.0f64..12.0) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let f = interp::Pwl::new(xs, ys.clone()).unwrap();
        let v = f.eval(t);
        let lo = stats::min(&ys);
        let hi = stats::max(&ys);
        // Linear interpolation + clamping never escapes the value hull.
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    #[test]
    fn polyfit_reproduces_line(c0 in -5.0f64..5.0, c1 in -5.0f64..5.0) {
        let xs: Vec<f64> = (0..10).map(|i| i as f64 * 0.37).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| c0 + c1 * x).collect();
        let c = lstsq::polyfit(&xs, &ys, 1).unwrap();
        prop_assert!((c[0] - c0).abs() < 1e-8);
        prop_assert!((c[1] - c1).abs() < 1e-8);
    }

    #[test]
    fn stats_invariants(v in prop::collection::vec(-100.0f64..100.0, 1..50)) {
        prop_assert!(stats::rms(&v) >= 0.0);
        prop_assert!(stats::variance(&v) >= 0.0);
        prop_assert!(stats::min(&v) <= stats::mean(&v) + 1e-9);
        prop_assert!(stats::max(&v) >= stats::mean(&v) - 1e-9);
        prop_assert!(stats::max_abs(&v) >= 0.0);
        let med = stats::median(&v);
        prop_assert!(med >= stats::min(&v) && med <= stats::max(&v));
    }
}

// The sparse-vs-dense equivalence properties run at ≥ 300 unknowns, where
// each case pays an O(n³) dense reference factorization — fewer cases keep
// the suite fast while still sweeping patterns, branch layouts and values.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sparse_lu_matches_dense_past_former_cutoff(
        n_nodes in 300usize..330,
        n_branches in 8usize..24,
        extra in 100usize..300,
        seed in any::<u64>(),
    ) {
        // ≥ 300 unknowns — beyond the deleted MIN_DEGREE_LIMIT = 256 where
        // the old implementation silently fell back to natural order.
        let (pattern, values) = mna_system(n_nodes, n_branches, extra, seed);
        let lu = SparseLu::factor(&pattern, &values).unwrap();
        assert_sparse_matches_dense(&pattern, &values, &lu);
        prop_assert!(lu.dim() >= 300);
        // Numeric-only refactorization with freshly drawn values.
        let mut lu = lu;
        let v2 = mna_values(&pattern, n_nodes, seed ^ 0xdead_beef);
        lu.refactor(&v2).unwrap();
        assert_sparse_matches_dense(&pattern, &v2, &lu);
    }

    #[test]
    fn sparse_lu_refactor_after_value_drift(
        n_nodes in 300usize..320,
        seed in any::<u64>(),
    ) {
        // Drift the values until the frozen diagonal pivots decay (1e-4
        // diagonals under ±1 couplings are past the 1e-3 re-pivot
        // threshold): refactor must refuse, and a fresh factor() must
        // re-pivot and agree with the dense solver — the workspace's
        // re-analysis path, exercised directly.
        let (pattern, values) = mna_system(n_nodes, 12, 150, seed);
        let mut lu = SparseLu::factor(&pattern, &values).unwrap();
        let mut drifted = vec![0.0; pattern.nnz()];
        for c in 0..pattern.n() {
            for (r, slot) in pattern.col_entries(c) {
                drifted[slot] = if r == c {
                    1e-4
                } else if values[slot] != 0.0 {
                    values[slot].signum()
                } else {
                    0.0
                };
            }
        }
        match lu.refactor(&drifted) {
            Ok(()) => {
                // Legal if no pivot decayed past threshold on this draw.
                assert_sparse_matches_dense(&pattern, &drifted, &lu);
            }
            Err(numkit::Error::Singular { .. }) => {
                let lu2 = SparseLu::factor(&pattern, &drifted).unwrap();
                assert_sparse_matches_dense(&pattern, &drifted, &lu2);
                // The refused refactor must not have poisoned the old object.
                lu.refactor(&values).unwrap();
                assert_sparse_matches_dense(&pattern, &values, &lu);
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    #[test]
    fn sparse_lu_rejects_singular_at_scale(
        n_nodes in 300usize..320,
        dead_col in 0usize..300,
        seed in any::<u64>(),
    ) {
        // Zeroing one full column makes the system exactly singular; both
        // the initial factorization and a refactorization on a previously
        // healthy structure must report it rather than divide through.
        let (pattern, values) = mna_system(n_nodes, 12, 150, seed);
        let mut dead = values.clone();
        for (_, slot) in pattern.col_entries(dead_col) {
            dead[slot] = 0.0;
        }
        prop_assert!(matches!(
            SparseLu::factor(&pattern, &dead),
            Err(numkit::Error::Singular { .. })
        ));
        let mut lu = SparseLu::factor(&pattern, &values).unwrap();
        prop_assert!(matches!(
            lu.refactor(&dead),
            Err(numkit::Error::Singular { .. })
        ));
        // And the survivor still works after both rejections.
        lu.refactor(&values).unwrap();
        assert_sparse_matches_dense(&pattern, &values, &lu);
    }
}
