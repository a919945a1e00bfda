//! Golden-value tests: the sparse reusable-symbolic LU must agree with the
//! dense partial-pivoting LU on randomly patterned matrices, including
//! across numeric refactorizations.

use numkit::lu::LuFactor;
use numkit::sparse::{CscPattern, SparseLu};
use numkit::Matrix;

/// Deterministic xorshift PRNG — keeps the test hermetic.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in [-1, 1).
    fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Builds a random sparse pattern of dimension `n` with a full diagonal
/// plus `extra` random off-diagonal positions, and one value set.
fn random_system(rng: &mut Rng, n: usize, extra: usize) -> (CscPattern, Vec<f64>) {
    let mut entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
    for _ in 0..extra {
        entries.push((rng.below(n), rng.below(n)));
    }
    let pattern = CscPattern::from_entries(n, &entries).unwrap();
    let values = random_values(rng, &pattern);
    (pattern, values)
}

/// Random values over a pattern, diagonally dominated so the system is
/// well-conditioned (golden comparison, not a robustness test).
fn random_values(rng: &mut Rng, pattern: &CscPattern) -> Vec<f64> {
    let n = pattern.n();
    let mut values = vec![0.0; pattern.nnz()];
    for c in 0..n {
        for (r, slot) in pattern.col_entries(c) {
            values[slot] = if r == c {
                4.0 + rng.uniform()
            } else {
                rng.uniform()
            };
        }
    }
    values
}

fn assert_matches_dense(pattern: &CscPattern, values: &[f64], lu: &SparseLu, rng: &mut Rng) {
    let n = pattern.n();
    let dense = pattern.to_dense(values).unwrap();
    let dense_lu = LuFactor::new(&dense).unwrap();
    let b: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
    let x_sparse = lu.solve(&b).unwrap();
    let x_dense = dense_lu.solve(&b).unwrap();
    for (i, (xs, xd)) in x_sparse.iter().zip(&x_dense).enumerate() {
        assert!(
            (xs - xd).abs() < 1e-10 * (1.0 + xd.abs()),
            "solution mismatch at {i}: sparse {xs} vs dense {xd}"
        );
    }
    // Residual check as well, so both being wrong together cannot pass.
    let r = dense.matvec(&x_sparse).unwrap();
    for (ri, bi) in r.iter().zip(&b) {
        assert!((ri - bi).abs() < 1e-9, "residual {ri} vs {bi}");
    }
}

#[test]
fn random_patterns_match_dense_lu() {
    let mut rng = Rng(0x9e3779b97f4a7c15);
    for &(n, extra) in &[(5, 8), (12, 30), (25, 90), (40, 200), (64, 500)] {
        let (pattern, values) = random_system(&mut rng, n, extra);
        let lu = SparseLu::factor(&pattern, &values).unwrap();
        assert_matches_dense(&pattern, &values, &lu, &mut rng);
    }
}

#[test]
fn refactorizations_track_value_changes() {
    let mut rng = Rng(0xdeadbeefcafef00d);
    let (pattern, values) = random_system(&mut rng, 20, 60);
    let mut lu = SparseLu::factor(&pattern, &values).unwrap();
    // Many refactorizations with fresh values over the same structure — the
    // classic per-Newton-iteration usage.
    for _ in 0..25 {
        let values = random_values(&mut rng, &pattern);
        lu.refactor(&values).unwrap();
        assert_matches_dense(&pattern, &values, &lu, &mut rng);
    }
}

#[test]
fn refactor_cost_is_the_structural_refactor_work() {
    // With generic (nonzero) values no update is skipped, so every
    // refactorization performs exactly the structural count.
    let mut rng = Rng(0x0dd_c0ffee);
    let (pattern, values) = random_system(&mut rng, 24, 80);
    let mut lu = SparseLu::factor(&pattern, &values).unwrap();
    let cost = lu.refactor_cost();
    assert!(cost > 0);
    for _ in 0..5 {
        let before = lu.total_flops();
        lu.refactor(&random_values(&mut rng, &pattern)).unwrap();
        assert_eq!(lu.total_flops() - before, cost);
    }
}

#[test]
fn mna_shaped_pattern_with_branch_rows() {
    // An MNA-like structure: conductance block plus voltage-source branch
    // rows with structurally zero diagonals (forces off-diagonal pivots).
    let mut rng = Rng(0x1234_5678_9abc_def0);
    let n_nodes = 6; // unknowns 0..5 are node voltages, 6..7 branch currents
    let n = n_nodes + 2;
    let mut entries: Vec<(usize, usize)> = (0..n_nodes).map(|i| (i, i)).collect();
    for i in 1..n_nodes {
        entries.push((i - 1, i));
        entries.push((i, i - 1));
    }
    // Branch 6 drives node 0, branch 7 drives node 3.
    for (br, node) in [(6usize, 0usize), (7, 3)] {
        entries.push((node, br));
        entries.push((br, node));
    }
    let pattern = CscPattern::from_entries(n, &entries).unwrap();
    let mut values = vec![0.0; pattern.nnz()];
    for c in 0..n {
        for (r, slot) in pattern.col_entries(c) {
            values[slot] = if r == c && r < n_nodes {
                3.0 + rng.uniform().abs()
            } else if r == c {
                0.0 // structural zero diagonal of the branch rows
            } else if r >= n_nodes || c >= n_nodes {
                1.0 // KCL/voltage coupling
            } else {
                -1.0
            };
        }
    }
    let mut lu = SparseLu::factor(&pattern, &values).unwrap();
    assert_matches_dense(&pattern, &values, &lu, &mut rng);
    // Refactor with perturbed conductances, same structure.
    for slot_scale in [0.5, 2.0, 10.0] {
        let scaled: Vec<f64> = values
            .iter()
            .enumerate()
            .map(|(s, v)| if s % 3 == 0 { v * slot_scale } else { *v })
            .collect();
        if lu.refactor(&scaled).is_err() {
            // Pivot decay is allowed — a full re-analysis must recover.
            lu = SparseLu::factor(&pattern, &scaled).unwrap();
        }
        assert_matches_dense(&pattern, &scaled, &lu, &mut rng);
    }
}

#[test]
fn singular_matrices_rejected_like_dense() {
    // Duplicate rows → singular for both factorizations.
    let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[1.0, 2.0, 0.0], &[0.0, 1.0, 1.0]]).unwrap();
    let mut entries = Vec::new();
    let mut values = Vec::new();
    for c in 0..3 {
        for r in 0..3 {
            if a.get(r, c) != 0.0 {
                entries.push((r, c));
                values.push(a.get(r, c));
            }
        }
    }
    let pattern = CscPattern::from_entries(3, &entries).unwrap();
    assert!(LuFactor::new(&a).is_err());
    assert!(SparseLu::factor(&pattern, &values).is_err());
}

/// Bit patterns of `lu`'s solution against `b`.
fn solve_bits(lu: &SparseLu, b: &[f64]) -> Vec<u64> {
    lu.solve(b).unwrap().iter().map(|v| v.to_bits()).collect()
}

/// Re-randomizes every value of original column `c`.
fn redraw_column(rng: &mut Rng, pattern: &CscPattern, values: &mut [f64], c: usize) {
    for (r, slot) in pattern.col_entries(c) {
        values[slot] = if r == c {
            4.0 + rng.uniform()
        } else {
            rng.uniform()
        };
    }
}

/// Numeric work of a refactor that recomputes every column: the first
/// refactor of a copy taken right after `factor`.
fn full_refactor(base: &SparseLu, values: &[f64]) -> (SparseLu, u64) {
    let mut full = base.clone();
    let before = full.total_flops();
    full.refactor(values).unwrap();
    let spent = full.total_flops() - before;
    (full, spent)
}

#[test]
fn partial_refactor_matches_full_recompute() {
    // A refactor recomputes only the columns whose inputs changed. Over
    // seeded edit sequences (no change, one column, every column, random
    // subsets, signed-zero flips) its solutions must match a from-scratch
    // refactor bit for bit, and it may never spend more than the
    // structural cost.
    let mut rng = Rng(0x7a11_ab1e_5eed_0001);
    for &(n, extra) in &[(12, 30), (40, 200), (64, 500)] {
        let (pattern, mut values) = random_system(&mut rng, n, extra);
        let base = SparseLu::factor(&pattern, &values).unwrap();
        let mut lu = base.clone();
        let cost = lu.refactor_cost();
        let b: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
        for step in 0..60 {
            match step % 5 {
                0 => {}
                1 => {
                    let c = rng.below(n);
                    redraw_column(&mut rng, &pattern, &mut values, c);
                }
                2 => values = random_values(&mut rng, &pattern),
                3 => {
                    for c in 0..n {
                        if rng.below(5) == 0 {
                            redraw_column(&mut rng, &pattern, &mut values, c);
                        }
                    }
                }
                _ => {
                    for c in 0..n {
                        for (r, slot) in pattern.col_entries(c) {
                            if r != c && rng.below(4) == 0 {
                                values[slot] = if values[slot].to_bits() == 0 {
                                    -0.0
                                } else {
                                    0.0
                                };
                            }
                        }
                    }
                }
            }
            let before = lu.total_flops();
            lu.refactor(&values).unwrap();
            let spent = lu.total_flops() - before;
            let (full, full_spent) = full_refactor(&base, &values);
            assert_eq!(
                solve_bits(&lu, &b),
                solve_bits(&full, &b),
                "n {n} step {step}"
            );
            assert!(
                spent <= full_spent && full_spent <= cost,
                "n {n} step {step}"
            );
            if step == 0 {
                assert_eq!(spent, full_spent, "the first refactor recomputes all");
            } else if step % 5 == 0 {
                assert_eq!(spent, 0, "n {n} step {step}: nothing changed");
            }
        }
    }
}

#[test]
fn failed_refactor_forces_a_full_recompute() {
    let mut rng = Rng(0x0bad_f00d_0000_0021);
    let (pattern, values) = random_system(&mut rng, 30, 120);
    let base = SparseLu::factor(&pattern, &values).unwrap();
    let b: Vec<f64> = (0..30).map(|_| rng.uniform()).collect();
    let (_, full_spent) = full_refactor(&base, &values);
    let mut lu = base.clone();
    lu.refactor(&values).unwrap();

    // A NaN is rejected with the typed error...
    let mut poisoned = values.clone();
    poisoned[pattern.nnz() / 2] = f64::NAN;
    assert!(matches!(
        lu.refactor(&poisoned),
        Err(numkit::Error::Singular { .. })
    ));
    // ...and the next refactor recomputes every column, even though only
    // one column differs from the last successful call.
    let before = lu.total_flops();
    lu.refactor(&values).unwrap();
    assert_eq!(lu.total_flops() - before, full_spent);
    let (full, _) = full_refactor(&base, &values);
    assert_eq!(solve_bits(&lu, &b), solve_bits(&full, &b));

    // A decayed pivot fails the same way; a fresh `factor` re-pivots, and
    // the failed object recovers on the next healthy values.
    let mut decayed = values.clone();
    for c in 0..30 {
        decayed[pattern.index_of(c, c).unwrap()] = 1e-14;
    }
    assert!(matches!(
        lu.refactor(&decayed),
        Err(numkit::Error::Singular { .. })
    ));
    let repivoted = SparseLu::factor(&pattern, &decayed).unwrap();
    assert_matches_dense(&pattern, &decayed, &repivoted, &mut rng);
    let before = lu.total_flops();
    lu.refactor(&values).unwrap();
    assert_eq!(lu.total_flops() - before, full_spent);
    assert_eq!(solve_bits(&lu, &b), solve_bits(&full, &b));
}
