//! Orthogonal-least-squares forward selection of regressors.
//!
//! Implementation of the center-selection algorithm of Chen, Cowan & Grant
//! (*Orthogonal Least Squares Learning Algorithm for Radial Basis Function
//! Networks*, IEEE Trans. Neural Networks, 1991): candidate regressor
//! columns are orthogonalized incrementally (modified Gram–Schmidt) and at
//! each step the candidate with the largest *error reduction ratio*
//!
//! ```text
//! err_i = (w_i^T y)^2 / (w_i^T w_i · y^T y)
//! ```
//!
//! is selected, until either a maximum count is reached or the unexplained
//! energy drops below a tolerance.
//!
//! The candidates arrive as one column-major *slab*: candidate `i` is
//! `cols[i * rows..(i + 1) * rows]`, so every column is a contiguous slice
//! and is read in place, never copied. [`select`] only reads the slab, so
//! the caller owns it and may reuse it across fits (the NARX trainer keeps
//! one process-wide slab, see [`crate::narx::with_slab`]). The O(N·M) passes (the initial
//! `wᵀy` / `wᵀw` statistics and the per-step rank-1 update) run through
//! a kernel that walks the rows once for four candidate columns with four
//! independent accumulators. A single dot product is one serial chain of
//! dependent floating-point adds and runs at add latency; four independent
//! chains overlap. Each chain still adds its products in row order,
//! starting from the same value as `Iterator::sum::<f64>`, and Rust never
//! contracts `a += x * y` into a fused multiply-add, so every statistic is
//! bit-identical to a plain sequential dot product — and with it every
//! selection, error ratio and downstream model weight.
//!
//! A pass large enough to pay for a thread (at least 2^16 multiply-adds in
//! each half) splits its column list into two halves at a multiple of four
//! and runs them under [`numkit::par::join`]. Each half writes the dot
//! products of its own columns into its own part of one preallocated
//! buffer, so the split allocates nothing and changes no bit. Inside an
//! enclosing fan-out (the driver fits run `high ‖ low` under `join`) the
//! halves run inline, one after the other.

use crate::{Error, Result};

/// Outcome of a forward-selection run.
#[derive(Debug, Clone)]
pub struct OlsSelection {
    /// Indices of the selected candidate columns, in selection order.
    pub selected: Vec<usize>,
    /// Error reduction ratio of each selected column.
    pub err: Vec<f64>,
    /// Unexplained energy fraction `1 - sum(err)` after selection.
    pub residual_ratio: f64,
}

/// Stopping rule for [`select`].
#[derive(Debug, Clone, Copy)]
pub struct OlsStop {
    /// Maximum number of columns to select.
    pub max_terms: usize,
    /// Stop once `1 - sum(err) < tolerance`.
    pub tolerance: f64,
}

impl Default for OlsStop {
    fn default() -> Self {
        OlsStop {
            max_terms: 30,
            tolerance: 1e-6,
        }
    }
}

/// Sequential dot product: one add chain in index order.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Four dot products `a[j] · b[j]` in one pass over the rows.
///
/// Each accumulator adds its products in row order, starting where
/// `Iterator::sum::<f64>` starts, so `dot4(a, b)[j]` is bit-identical to
/// `dot(a[j], b[j])`: the four chains only interleave, they never mix.
/// All eight slices must have the same length.
fn dot4(a: [&[f64]; 4], b: [&[f64]; 4]) -> [f64; 4] {
    let n = a[0].len();
    // Re-slicing to `n` lets the compiler drop the per-row bounds checks.
    let (a0, a1, a2, a3) = (&a[0][..n], &a[1][..n], &a[2][..n], &a[3][..n]);
    let (b0, b1, b2, b3) = (&b[0][..n], &b[1][..n], &b[2][..n], &b[3][..n]);
    let start: f64 = std::iter::empty::<f64>().sum();
    let mut s = [start; 4];
    for r in 0..n {
        s[0] += a0[r] * b0[r];
        s[1] += a1[r] * b1[r];
        s[2] += a2[r] * b2[r];
        s[3] += a3[r] * b3[r];
    }
    s
}

/// Multiply-adds each half of a [`dot_columns`] call must hold before the
/// call splits across two workers; below it the thread start-up costs more
/// than the second CPU saves.
const SPLIT_WORK: usize = 1 << 16;

/// Dots each candidate column `idx[k]` of the slab `cols` (columns of
/// `rows` values) with `v`, or with itself when `v` is `None`, into
/// `out[k]`.
///
/// Columns go four per pass through [`dot4`]. Once each half of `idx`
/// holds at least [`SPLIT_WORK`] multiply-adds, the list splits at a
/// multiple of four and the halves run under [`numkit::par::join`], each
/// writing its own part of `out`. The split keeps every column in the same
/// group of four and each dot product in its own accumulator, so `out` is
/// bit-identical either way, and no worker allocates.
fn dot_columns(v: Option<&[f64]>, cols: &[f64], rows: usize, idx: &[usize], out: &mut [f64]) {
    debug_assert_eq!(idx.len(), out.len());
    let half = idx.len() / 8 * 4;
    if half * rows >= SPLIT_WORK {
        let (idx_a, idx_b) = idx.split_at(half);
        let (out_a, out_b) = out.split_at_mut(half);
        numkit::par::join(
            || dot_columns_serial(v, cols, rows, idx_a, out_a),
            || dot_columns_serial(v, cols, rows, idx_b, out_b),
        );
    } else {
        dot_columns_serial(v, cols, rows, idx, out);
    }
}

/// [`dot_columns`] on the calling thread.
fn dot_columns_serial(
    v: Option<&[f64]>,
    cols: &[f64],
    rows: usize,
    idx: &[usize],
    out: &mut [f64],
) {
    let col = |i: usize| &cols[i * rows..(i + 1) * rows];
    let mut quads = idx.chunks_exact(4);
    let mut outs = out.chunks_exact_mut(4);
    for (q, o) in (&mut quads).zip(&mut outs) {
        let c = [col(q[0]), col(q[1]), col(q[2]), col(q[3])];
        o.copy_from_slice(&dot4(v.map_or(c, |v| [v; 4]), c));
    }
    for (&i, o) in quads.remainder().iter().zip(outs.into_remainder()) {
        *o = dot(v.unwrap_or(col(i)), col(i));
    }
}

/// Selects candidate columns of the column-major slab `cols` (M columns of
/// `rows` values each, candidate `i` at `cols[i * rows..(i + 1) * rows]`)
/// that best explain `y` (length `rows`).
///
/// The error-reduction ratios are maintained *incrementally*: after each
/// Gram–Schmidt step the cached `wᵀy` / `wᵀw` of every candidate receive a
/// rank-1 update instead of being recomputed from a deflated copy. Because
/// the selected basis vectors are mutually orthogonal, the projection of a
/// candidate's orthogonalized remainder onto the newest basis vector equals
/// the projection of its *original* column — so candidate columns are never
/// copied or deflated at all. This turns the per-step cost from four O(N)
/// passes per candidate (deflation write + re-read + two dot products) into
/// a single read-only dot product, which runs four columns at a time (see
/// the module docs for why that stays bit-identical).
///
/// # Errors
///
/// * [`Error::LengthMismatch`] if `y.len() != rows`, or if `cols.len()` is
///   not a multiple of `rows`.
/// * [`Error::InvalidStructure`] if `max_terms == 0`.
/// * [`Error::InsufficientData`] for an empty target.
pub fn select(cols: &[f64], rows: usize, y: &[f64], stop: OlsStop) -> Result<OlsSelection> {
    if y.len() != rows {
        return Err(Error::LengthMismatch {
            message: format!("target length {} != candidate rows {rows}", y.len()),
        });
    }
    if stop.max_terms == 0 {
        return Err(Error::InvalidStructure {
            message: "max_terms must be positive".into(),
        });
    }
    let n = rows;
    if n == 0 {
        return Err(Error::InsufficientData { needed: 1, got: 0 });
    }
    if !cols.len().is_multiple_of(n) {
        return Err(Error::LengthMismatch {
            message: format!(
                "candidate slab length {} is not a multiple of {n} rows",
                cols.len()
            ),
        });
    }
    let m = cols.len() / n;
    let yty: f64 = y.iter().map(|v| v * v).sum();
    if yty == 0.0 {
        // Nothing to explain.
        return Ok(OlsSelection {
            selected: Vec::new(),
            err: Vec::new(),
            residual_ratio: 0.0,
        });
    }

    // Cached statistics of each candidate's *orthogonalized* remainder
    // w_i = p_i - proj_basis(p_i), updated rank-1 after every selection.
    let all: Vec<usize> = (0..m).collect();
    let mut wty = vec![0.0; m];
    dot_columns(Some(y), cols, n, &all, &mut wty);
    let mut wtw = vec![0.0; m];
    dot_columns(None, cols, n, &all, &mut wtw);
    let mut available: Vec<bool> = vec![true; m];
    // Materialized orthogonal basis (selected candidates only, ≤ max_terms).
    let mut basis: Vec<Vec<f64>> = Vec::new();
    let mut basis_wtw: Vec<f64> = Vec::new();
    // Candidates still worth updating, rebuilt before each rank-1 update,
    // and their dot products with the newest basis vector.
    let mut active: Vec<usize> = Vec::with_capacity(m);
    let mut dots: Vec<f64> = Vec::with_capacity(m);

    let mut selected = Vec::new();
    let mut errs = Vec::new();
    let mut explained = 0.0;

    let max_terms = stop.max_terms.min(m).min(n);
    while selected.len() < max_terms {
        // Pick the available candidate with the largest error reduction
        // ratio, straight from the cached statistics.
        let mut best: Option<(usize, f64)> = None;
        for i in 0..m {
            if !available[i] || wtw[i] < 1e-20 {
                continue;
            }
            let err = wty[i] * wty[i] / (wtw[i] * yty);
            if best.is_none_or(|(_, e)| err > e) {
                best = Some((i, err));
            }
        }
        let Some((idx, _)) = best else {
            break; // all remaining candidates are dependent
        };
        available[idx] = false;
        // Materialize the selected orthogonal vector by deflating the
        // original column against the (orthogonal) basis.
        let mut w_sel = cols[idx * n..(idx + 1) * n].to_vec();
        for (wj, &wjw) in basis.iter().zip(&basis_wtw) {
            let proj = dot(wj, &w_sel) / wjw;
            for (wv, bj) in w_sel.iter_mut().zip(wj) {
                *wv -= proj * bj;
            }
        }
        let wtw_sel = dot(&w_sel, &w_sel);
        if wtw_sel < 1e-20 {
            // Fully dependent on the basis despite the cached estimate
            // (numerical drift near dependence): drop and rescan.
            wtw[idx] = 0.0;
            continue;
        }
        let wty_sel = dot(&w_sel, y);
        let err = wty_sel * wty_sel / (wtw_sel * yty);
        explained += err;
        selected.push(idx);
        errs.push(err);

        if 1.0 - explained < stop.tolerance {
            break;
        }
        // Rank-1 update of the cached statistics. Orthogonality of the
        // basis makes ⟨w_sel, w_i⟩ = ⟨w_sel, p_i⟩, so one dot product with
        // the original column suffices.
        active.clear();
        active.extend((0..m).filter(|&i| available[i] && wtw[i] >= 1e-20));
        dots.resize(active.len(), 0.0);
        dot_columns(Some(&w_sel), cols, n, &active, &mut dots);
        for (&i, &d) in active.iter().zip(&dots) {
            let proj = d / wtw_sel;
            wty[i] -= proj * wty_sel;
            wtw[i] = (wtw[i] - proj * proj * wtw_sel).max(0.0);
        }
        basis.push(w_sel);
        basis_wtw.push(wtw_sel);
    }

    Ok(OlsSelection {
        selected,
        err: errs,
        residual_ratio: (1.0 - explained).max(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Column-major slab of `m` candidates over `n` rows, candidate `c` at
    /// row `r` being `f(r, c)`.
    fn slab(n: usize, m: usize, f: impl Fn(usize, usize) -> f64) -> Vec<f64> {
        (0..m)
            .flat_map(|c| (0..n).map(move |r| (r, c)))
            .map(|(r, c)| f(r, c))
            .collect()
    }

    /// y is exactly column 2 of the candidates: selection must find it first
    /// and explain everything with one term.
    #[test]
    fn picks_exact_match_first() {
        let n = 50;
        let cand = |r: usize, c: usize| {
            let t = r as f64 * 0.1;
            [t.sin(), (2.0 * t).cos(), (0.5 * t).sin() * t][c]
        };
        let p = slab(n, 3, cand);
        let y: Vec<f64> = (0..n).map(|r| cand(r, 2)).collect();
        let sel = select(&p, n, &y, OlsStop::default()).unwrap();
        assert_eq!(sel.selected[0], 2);
        assert!(sel.residual_ratio < 1e-9);
        assert!(sel.err[0] > 1.0 - 1e-9);
    }

    /// y is a combination of two columns: both are selected and the residual
    /// vanishes even with a distractor column present.
    #[test]
    fn selects_combination() {
        let n = 80;
        let p = slab(n, 3, |r, c| {
            let t = r as f64 * 0.05;
            // The last column is a distractor.
            [t.sin(), (3.0 * t + 0.4).cos(), (7.0 * t).sin()][c]
        });
        let y: Vec<f64> = (0..n)
            .map(|r| {
                let t = r as f64 * 0.05;
                2.0 * t.sin() - 0.7 * (3.0 * t + 0.4).cos()
            })
            .collect();
        let sel = select(
            &p,
            n,
            &y,
            OlsStop {
                max_terms: 2,
                tolerance: 1e-12,
            },
        )
        .unwrap();
        let mut s = sel.selected.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1]);
        assert!(sel.residual_ratio < 1e-9, "residual {}", sel.residual_ratio);
    }

    #[test]
    fn tolerance_stops_early() {
        let n = 40;
        let p = slab(n, 4, |r, c| {
            let t = r as f64 * 0.1;
            [t.sin(), t.cos(), (2.0 * t).sin(), (3.0 * t).cos()][c]
        });
        let y: Vec<f64> = (0..n)
            .map(|r| {
                let t = r as f64 * 0.1;
                t.sin() + 1e-6 * (3.0 * t).cos()
            })
            .collect();
        let sel = select(
            &p,
            n,
            &y,
            OlsStop {
                max_terms: 4,
                tolerance: 1e-6,
            },
        )
        .unwrap();
        assert!(sel.selected.len() <= 2, "selected {:?}", sel.selected);
        assert_eq!(sel.selected[0], 0);
    }

    #[test]
    fn dependent_columns_skipped() {
        // Two identical columns: only one can be selected.
        let n = 30;
        let p = slab(n, 2, |r, _| r as f64);
        // Not exactly in the span of the columns.
        let y: Vec<f64> = (0..n)
            .map(|r| 3.0 * r as f64 + ((r % 3) as f64 - 1.0))
            .collect();
        let sel = select(
            &p,
            n,
            &y,
            OlsStop {
                max_terms: 2,
                tolerance: 0.0,
            },
        )
        .unwrap();
        assert_eq!(sel.selected.len(), 1);
    }

    #[test]
    fn zero_target_short_circuits() {
        let p = vec![0.0; 10];
        let sel = select(&p, 5, &[0.0; 5], OlsStop::default()).unwrap();
        assert!(sel.selected.is_empty());
        assert_eq!(sel.residual_ratio, 0.0);
    }

    #[test]
    fn validation_errors() {
        let p = vec![0.0; 10];
        assert!(matches!(
            select(&p, 5, &[0.0; 4], OlsStop::default()),
            Err(Error::LengthMismatch { .. })
        ));
        assert!(matches!(
            select(
                &p,
                5,
                &[0.0; 5],
                OlsStop {
                    max_terms: 0,
                    tolerance: 0.0
                }
            ),
            Err(Error::InvalidStructure { .. })
        ));
        // A slab that does not split into whole columns.
        assert!(matches!(
            select(&p[..9], 5, &[1.0; 5], OlsStop::default()),
            Err(Error::LengthMismatch { .. })
        ));
        assert!(matches!(
            select(&[], 0, &[], OlsStop::default()),
            Err(Error::InsufficientData { .. })
        ));
    }

    /// The four-wide kernel matches the sequential dot bit for bit,
    /// signed zeros included.
    #[test]
    fn dot4_matches_dot_bitwise() {
        let a: Vec<f64> = (0..37).map(|k| (k as f64 * 0.7).sin() * 1e3).collect();
        let b: Vec<f64> = (0..37).map(|k| (k as f64 * 1.3).cos() / 7.0).collect();
        let neg_zero = vec![-0.0; 37];
        let pos_zero = vec![0.0; 37];
        let cols = [&b[..], &neg_zero[..], &pos_zero[..], &a[..]];
        let d = dot4([&a[..]; 4], cols);
        for (dj, c) in d.iter().zip(cols) {
            assert_eq!(dj.to_bits(), dot(&a, c).to_bits());
        }
        let e = dot4([&neg_zero[..]; 4], [&pos_zero[..]; 4]);
        assert_eq!(e[0].to_bits(), dot(&neg_zero, &pos_zero).to_bits());
    }
}
