//! Sparse column-compressed matrices and a left-looking Gilbert–Peierls LU
//! factorization whose symbolic structure is computed once and reused across
//! numeric refactorizations.
//!
//! This is the classic SPICE optimization: an MNA matrix is re-stamped with
//! new numeric values every Newton iteration of every timestep, but its
//! *sparsity pattern never changes*. The workflow is therefore split:
//!
//! 1. [`CscPattern::from_entries`] — build the structural pattern once;
//! 2. [`SparseLu::factor`] — a genuinely sparse analysis + factorization:
//!    * a linked-list *approximate-minimum-degree* ordering on the
//!      symmetrized pattern (quotient-graph elimination with element
//!      absorption — no size cutoff, no dense adjacency);
//!    * a left-looking *Gilbert–Peierls* sweep: for each column, a
//!      depth-first symbolic reach through the partially built `L`
//!      discovers the fill pattern, a sparse triangular solve produces the
//!      numeric column, and *partial threshold pivoting* picks the pivot —
//!      the diagonal of the fill ordering when it is within
//!      `PIVOT_THRESHOLD` of the column maximum, otherwise the
//!      threshold-eligible candidate with the fewest original-row nonzeros
//!      (Markowitz-style tie-breaking, magnitude as the final tie-break).
//!
//!    Work and memory are proportional to the flops into `L`/`U` and the
//!    factor nonzeros — there is no dense `n × n` scratch anywhere, so the
//!    same code path serves ten unknowns and tens of thousands.
//! 3. [`SparseLu::refactor`] — numeric-only refactorization reusing the
//!    frozen pattern and pivot order. `factor` records a replay plan: each
//!    column's rows as one local list (`U` rows, pivot, `L` rows) and the
//!    local position of every scatter entry and update target, in
//!    execution order. A refactor replays it in a buffer the size of the
//!    longest column, and recomputes only the columns whose inputs changed.
//!    Column `k` reads `A(:,k)` and `L(:,j)` for each `j` in `U(:,k)`, and
//!    nothing else, so it is recomputed when one of its values differs
//!    bitwise from the last successful refactor, or when a recomputed
//!    column `j` in `U(:,k)` wrote an `L(:,j)` that differs bitwise from
//!    the stored one. One pass over the values marks the first kind; the
//!    second is pushed forward through `U`'s row structure as each `L`
//!    column is written. Every other column already holds exactly what
//!    recomputing it would give, and a recomputed column performs the same
//!    operations in the same order as a full refactor, so the factors are
//!    bit-identical to recomputing everything. On a circuit matrix, where
//!    the linear part's values repeat from one Newton iteration to the
//!    next, that skips much of the work, and a skipped column costs O(1).
//!
//! `refactor` monitors pivot quality: when a frozen pivot decays relative to
//! its column (the matrix values drifted far from the ones the pivot order
//! was chosen on), it reports [`Error::Singular`] and the caller re-runs the
//! full [`SparseLu::factor`] to re-pivot — which is again O(flops), not
//! O(n³).
//!
//! [`SparseLu::factor_nnz`] and [`SparseLu::total_flops`] expose fill-in and
//! cumulative numeric work actually performed (skipped columns cost
//! nothing) so callers (see `circuit::workspace::SolveStats`) can watch for
//! ordering or fill regressions; [`SparseLu::refactor_cost`] is the
//! structural cost of recomputing every column.

use crate::{Error, Matrix, Result};

/// Relative pivot threshold below which a factorization is declared
/// singular (matches the dense [`crate::lu::LuFactor`] threshold).
const SINGULAR_EPS: f64 = 1e-13;

/// A frozen pivot must stay within this factor of the largest candidate in
/// its column, or the refactorization bails out so the caller can re-pivot.
const PIVOT_RTOL: f64 = 1e-3;

/// Partial threshold pivoting: a candidate is pivot-eligible when its
/// magnitude is at least this fraction of the column maximum. The diagonal
/// of the fill-reducing ordering is preferred whenever eligible (it is the
/// entry the ordering minimized fill for); among off-diagonal candidates the
/// sparsest original row wins.
const PIVOT_THRESHOLD: f64 = 0.1;

/// Sentinel for "not assigned" in permutation and linked-list arrays.
const NONE: usize = usize::MAX;

/// Structural (symbolic) pattern of a sparse square matrix in
/// column-compressed form. Values live elsewhere, parallel to the entry
/// slots defined here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CscPattern {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
}

impl CscPattern {
    /// Builds a pattern from (row, column) pairs. Duplicates are merged;
    /// entry *slots* (indices into a parallel value array) are assigned in
    /// column-major order.
    ///
    /// # Errors
    ///
    /// * [`Error::EmptyInput`] for `n == 0`.
    /// * [`Error::DimensionMismatch`] if any index is out of range.
    pub fn from_entries(n: usize, entries: &[(usize, usize)]) -> Result<Self> {
        if n == 0 {
            return Err(Error::EmptyInput);
        }
        let mut sorted: Vec<(usize, usize)> = Vec::with_capacity(entries.len());
        for &(r, c) in entries {
            if r >= n || c >= n {
                return Err(Error::DimensionMismatch {
                    expected: format!("indices below {n}"),
                    got: format!("entry ({r}, {c})"),
                });
            }
            sorted.push((c, r));
        }
        sorted.sort_unstable();
        sorted.dedup();
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx = Vec::with_capacity(sorted.len());
        for &(c, r) in &sorted {
            col_ptr[c + 1] += 1;
            row_idx.push(r);
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        Ok(CscPattern {
            n,
            col_ptr,
            row_idx,
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros (= length of the parallel value array).
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Value-array slot of entry `(r, c)`, or `None` if structurally zero.
    pub fn index_of(&self, r: usize, c: usize) -> Option<usize> {
        if r >= self.n || c >= self.n {
            return None;
        }
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        self.row_idx[lo..hi]
            .binary_search(&r)
            .ok()
            .map(|off| lo + off)
    }

    /// Iterates `(row, slot)` pairs of column `c`, rows ascending.
    pub fn col_entries(&self, c: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        self.row_idx[lo..hi]
            .iter()
            .zip(lo..hi)
            .map(|(&r, slot)| (r, slot))
    }

    /// Materializes the pattern plus a value array into a dense matrix
    /// (diagnostics and golden-value tests).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `values.len() != nnz()`.
    pub fn to_dense(&self, values: &[f64]) -> Result<Matrix> {
        if values.len() != self.nnz() {
            return Err(Error::DimensionMismatch {
                expected: format!("{} values", self.nnz()),
                got: format!("{} values", values.len()),
            });
        }
        let mut m = Matrix::zeros(self.n, self.n);
        for c in 0..self.n {
            for (r, slot) in self.col_entries(c) {
                m.add_at(r, c, values[slot]);
            }
        }
        Ok(m)
    }
}

/// Inserts `v` at the head of degree bucket `d` (doubly linked list).
fn bucket_insert(head: &mut [usize], next: &mut [usize], prev: &mut [usize], d: usize, v: usize) {
    next[v] = head[d];
    prev[v] = NONE;
    if head[d] != NONE {
        prev[head[d]] = v;
    }
    head[d] = v;
}

/// Unlinks `v` from degree bucket `d`.
fn bucket_remove(head: &mut [usize], next: &mut [usize], prev: &mut [usize], d: usize, v: usize) {
    if prev[v] != NONE {
        next[prev[v]] = next[v];
    } else {
        head[d] = next[v];
    }
    if next[v] != NONE {
        prev[next[v]] = prev[v];
    }
}

/// Linked-list approximate-minimum-degree ordering on the symmetrized
/// pattern `A + Aᵀ`. Returns `order` with `order[k]` = original index
/// eliminated at step `k`.
///
/// Quotient-graph elimination: an eliminated variable becomes an *element*
/// whose boundary is its remaining neighborhood; a variable's degree is
/// approximated by `|variable neighbors| + Σ (element boundary sizes − 1)`
/// (an upper bound — boundary overlaps are not subtracted, which is the
/// "approximate" in AMD). Elements adjacent to the eliminated variable are
/// absorbed into the new one, so every variable and element list only ever
/// shrinks or is replaced; total storage stays O(nnz + fill boundaries) with
/// no dense adjacency, and candidate selection is O(1) via degree buckets.
fn amd_order(p: &CscPattern) -> Vec<usize> {
    let n = p.n;
    // Symmetrized adjacency lists, diagonal dropped.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in 0..n {
        for (r, _) in p.col_entries(c) {
            if r != c {
                adj[r].push(c);
                adj[c].push(r);
            }
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }

    // Quotient graph state.
    let mut elem_nodes: Vec<Vec<usize>> = Vec::new();
    let mut elem_dead: Vec<bool> = Vec::new();
    let mut eadj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut eliminated = vec![false; n];
    let mut mark = vec![false; n];

    // Degree buckets (doubly linked lists over the variables).
    let mut head = vec![NONE; n + 1];
    let mut next = vec![NONE; n];
    let mut prev = vec![NONE; n];
    let mut deg = vec![0usize; n];
    for v in 0..n {
        deg[v] = adj[v].len();
        bucket_insert(&mut head, &mut next, &mut prev, deg[v], v);
    }

    let mut order = Vec::with_capacity(n);
    let mut min_d = 0usize;
    for k in 0..n {
        while head[min_d] == NONE {
            min_d += 1;
        }
        let pv = head[min_d];
        bucket_remove(&mut head, &mut next, &mut prev, deg[pv], pv);
        eliminated[pv] = true;
        order.push(pv);

        // Boundary of the new element: remaining variable neighbors plus
        // the boundaries of every adjacent element. Built directly in the
        // element store (it becomes the new element's node list).
        let mut boundary: Vec<usize> = Vec::new();
        for &u in &adj[pv] {
            if !eliminated[u] && !mark[u] {
                mark[u] = true;
                boundary.push(u);
            }
        }
        for &e in &eadj[pv] {
            if elem_dead[e] {
                continue;
            }
            for &u in &elem_nodes[e] {
                if !eliminated[u] && !mark[u] {
                    mark[u] = true;
                    boundary.push(u);
                }
            }
        }
        // Absorb pv's elements into the new one (their boundaries are
        // covered by it); this is what keeps element storage bounded.
        for &e in &eadj[pv] {
            elem_dead[e] = true;
            elem_nodes[e] = Vec::new();
        }
        eadj[pv] = Vec::new();
        adj[pv] = Vec::new();
        let new_elem = elem_nodes.len();
        elem_nodes.push(boundary);
        elem_dead.push(false);

        let remaining = n - k - 1;
        for bi in 0..elem_nodes[new_elem].len() {
            let i = elem_nodes[new_elem][bi];
            // Variable neighbors now covered by the new element are pruned
            // (they are exactly the marked ones), as are eliminated ones.
            adj[i].retain(|&u| !eliminated[u] && !mark[u]);
            eadj[i].retain(|&e| !elem_dead[e]);
            eadj[i].push(new_elem);
            let mut d = adj[i].len();
            for &e in &eadj[i] {
                d += elem_nodes[e].len() - 1; // boundary minus `i` itself
            }
            let d = d.min(remaining.saturating_sub(1));
            bucket_remove(&mut head, &mut next, &mut prev, deg[i], i);
            deg[i] = d;
            bucket_insert(&mut head, &mut next, &mut prev, d, i);
            if d < min_d {
                min_d = d;
            }
        }
        for bi in 0..elem_nodes[new_elem].len() {
            mark[elem_nodes[new_elem][bi]] = false;
        }
    }
    order
}

/// Sorts one factor column's parallel `(row, value)` arrays by ascending
/// row, using `scratch` to avoid per-column allocation.
fn sort_col(rows: &mut [usize], vals: &mut [f64], scratch: &mut Vec<(usize, f64)>) {
    scratch.clear();
    scratch.extend(rows.iter().copied().zip(vals.iter().copied()));
    scratch.sort_unstable_by_key(|&(r, _)| r);
    for (i, &(r, v)) in scratch.iter().enumerate() {
        rows[i] = r;
        vals[i] = v;
    }
}

/// LU factorization of a sparse matrix with a frozen symbolic structure.
///
/// Built once per pattern by [`SparseLu::factor`] (Gilbert–Peierls with
/// threshold pivoting — see the [module docs](self)); subsequent matrices
/// with the same pattern are handled by [`SparseLu::refactor`].
///
/// # Example
///
/// ```
/// use numkit::sparse::{CscPattern, SparseLu};
/// # fn main() -> Result<(), numkit::Error> {
/// let pat = CscPattern::from_entries(2, &[(0, 0), (0, 1), (1, 0), (1, 1)])?;
/// // Column-major slots: (0,0) (1,0) (0,1) (1,1).
/// let mut lu = SparseLu::factor(&pat, &[2.0, 1.0, 1.0, 3.0])?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// // New values, same structure: numeric-only refactorization.
/// lu.refactor(&[4.0, 1.0, 1.0, 3.0])?;
/// let x = lu.solve(&[4.0, 4.0])?;
/// assert!((4.0 * x[0] + x[1] - 4.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Permuted row -> original row.
    rowmap: Vec<usize>,
    /// Permuted column -> original column (the fill ordering).
    colmap: Vec<usize>,
    /// Strictly-lower L (unit diagonal implied), column compressed, rows
    /// ascending, in the permuted space.
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    /// Strictly-upper U, column compressed, rows ascending.
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
    u_vals: Vec<f64>,
    /// U diagonal (pivots).
    diag: Vec<f64>,
    /// Column pointers of the factored pattern: the value slots of original
    /// column `c` are `a_colptr[c]..a_colptr[c + 1]`, and permuted column
    /// `k` reads original column `colmap[k]`.
    a_colptr: Vec<usize>,
    /// Replay plan of [`SparseLu::refactor`]. Column `k` is computed in a
    /// local buffer holding its rows as one list: `U(:,k)` ascending, then
    /// the pivot, then `L(:,k)` ascending. `sc_local[slot]` is the local
    /// position that value slot scatters to.
    sc_local: Vec<u32>,
    /// Local update targets in execution order: column `k`'s updates start
    /// at `upd_ptr[k]`, one per entry of `L(:,j)` for each `j` in `U(:,k)`
    /// ascending.
    upd_ptr: Vec<usize>,
    upd_local: Vec<u32>,
    /// Column buffer of the longest local list.
    buf: Vec<f64>,
    /// Values of the last successful refactor, compared bitwise to skip
    /// columns whose inputs did not change.
    last: Vec<f64>,
    /// Permuted column of every value slot.
    slot_col: Vec<u32>,
    /// Row structure of `U`: the columns `k` with `j` in `U(:,k)` are
    /// `ut_cols[ut_ptr[j]..ut_ptr[j + 1]]`, ascending. They read `L(:,j)`.
    ut_ptr: Vec<usize>,
    ut_cols: Vec<u32>,
    /// Columns the current refactor must recompute.
    dirty: Vec<bool>,
    /// Set by `factor` and by a failed refactor: the next refactor must
    /// recompute every column.
    stale: bool,
    /// Cumulative numeric work (multiply–add and divide counts) across the
    /// initial factorization and every refactorization.
    flops: u64,
}

impl SparseLu {
    /// Full factorization: approximate-minimum-degree ordering, then a
    /// left-looking Gilbert–Peierls sweep that discovers fill by depth-first
    /// symbolic reach per column and chooses pivots by partial threshold
    /// pivoting with Markowitz-style tie-breaking.
    ///
    /// Cost is O(flops into `L`·`U`) time and O(nnz(`L` + `U`)) memory —
    /// there is no dense scratch, so this is also the re-pivot path when
    /// [`SparseLu::refactor`] reports pivot decay.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] if `values.len() != pattern.nnz()`.
    /// * [`Error::Singular`] for structurally or numerically singular
    ///   input, and for non-finite (NaN/inf) values — which would otherwise
    ///   slip past every magnitude-based pivot check.
    pub fn factor(pattern: &CscPattern, values: &[f64]) -> Result<Self> {
        let n = pattern.n();
        if values.len() != pattern.nnz() {
            return Err(Error::DimensionMismatch {
                expected: format!("{} values", pattern.nnz()),
                got: format!("{} values", values.len()),
            });
        }
        // 1. Fill-reducing ordering (columns; rows follow from pivoting).
        let colmap = amd_order(pattern);

        // Markowitz tie-break data: original-row occupancy of A.
        let mut row_count = vec![0usize; n];
        for c in 0..n {
            for (r, _) in pattern.col_entries(c) {
                row_count[r] += 1;
            }
        }

        // 2. Gilbert–Peierls left-looking sweep. L rows are kept as
        //    *original* row ids while pivots are still being assigned and
        //    remapped to pivot positions afterwards.
        let mut l_colptr = vec![0usize; n + 1];
        let mut l_rows: Vec<usize> = Vec::new();
        let mut l_vals: Vec<f64> = Vec::new();
        let mut u_colptr = vec![0usize; n + 1];
        let mut u_rows: Vec<usize> = Vec::new();
        let mut u_vals: Vec<f64> = Vec::new();
        let mut diag = vec![0.0; n];
        let mut pinv = vec![NONE; n]; // original row -> pivot position
        let mut rowmap = vec![0usize; n];
        let mut flops = 0u64;

        let mut x = vec![0.0f64; n]; // numeric accumulator by original row
        let mut visited = vec![false; n];
        let mut reach: Vec<usize> = Vec::new(); // DFS post-order
        let mut dfs: Vec<(usize, usize)> = Vec::new();

        for k in 0..n {
            let oc = colmap[k];
            // --- symbolic: reach of A(:,oc) through the current L ---
            reach.clear();
            for (r, _) in pattern.col_entries(oc) {
                if visited[r] {
                    continue;
                }
                visited[r] = true;
                dfs.push((r, 0));
                'dfs: while let Some(&(node, child_at)) = dfs.last() {
                    let kp = pinv[node];
                    let (lo, hi) = if kp == NONE {
                        (0, 0)
                    } else {
                        (l_colptr[kp], l_colptr[kp + 1])
                    };
                    for i in child_at..(hi - lo) {
                        let child = l_rows[lo + i];
                        if !visited[child] {
                            visited[child] = true;
                            dfs.last_mut().expect("non-empty stack").1 = i + 1;
                            dfs.push((child, 0));
                            continue 'dfs;
                        }
                    }
                    dfs.pop();
                    reach.push(node);
                }
            }

            // --- numeric: sparse solve of the current column against L,
            //     consuming the reach in topological (reverse post-) order.
            let mut colscale = f64::MIN_POSITIVE;
            let mut finite = true;
            for (r, slot) in pattern.col_entries(oc) {
                let v = values[slot];
                x[r] = v;
                colscale = colscale.max(v.abs());
                finite &= v.is_finite();
            }
            if !finite {
                // A NaN/inf stamp (e.g. from an upstream solve) must surface
                // as an error, not poison the factors: NaN fails every
                // magnitude comparison below, so it would silently bypass
                // both the singularity check and the pivot-candidate filter.
                for &node in &reach {
                    x[node] = 0.0;
                    visited[node] = false;
                }
                return Err(Error::Singular { pivot: k });
            }
            for &node in reach.iter().rev() {
                let kp = pinv[node];
                if kp == NONE {
                    continue;
                }
                let xj = x[node];
                if xj != 0.0 {
                    for idx in l_colptr[kp]..l_colptr[kp + 1] {
                        x[l_rows[idx]] -= l_vals[idx] * xj;
                    }
                    flops += (l_colptr[kp + 1] - l_colptr[kp]) as u64;
                }
            }

            // --- pivot: threshold-eligible candidates among unassigned rows.
            let mut colmax = 0.0f64;
            for &node in &reach {
                if pinv[node] == NONE {
                    colmax = colmax.max(x[node].abs());
                }
            }
            if colmax <= SINGULAR_EPS * colscale {
                // Every candidate is (numerically) zero, or the column is
                // structurally empty below the already-chosen pivots.
                for &node in &reach {
                    x[node] = 0.0;
                    visited[node] = false;
                }
                return Err(Error::Singular { pivot: k });
            }
            let threshold = PIVOT_THRESHOLD * colmax;
            let mut pr = NONE;
            if pinv[oc] == NONE && x[oc].abs() >= threshold {
                // The diagonal of the fill ordering is eligible: take it.
                pr = oc;
            } else {
                let mut best_rc = usize::MAX;
                let mut best_mag = 0.0f64;
                for &node in &reach {
                    if pinv[node] != NONE {
                        continue;
                    }
                    let mag = x[node].abs();
                    if mag < threshold {
                        continue;
                    }
                    if row_count[node] < best_rc || (row_count[node] == best_rc && mag > best_mag) {
                        best_rc = row_count[node];
                        best_mag = mag;
                        pr = node;
                    }
                }
            }
            debug_assert_ne!(pr, NONE, "colmax > 0 guarantees a candidate");
            let pivot = x[pr];
            pinv[pr] = k;
            rowmap[k] = pr;
            diag[k] = pivot;

            // --- commit the column: reached pivotal rows form U(:,k),
            //     the remaining reached rows form L(:,k). The structure is
            //     the full reach set (value-independent), so refactor can
            //     reuse it for any numerics over the same pattern.
            for &node in &reach {
                visited[node] = false;
                if node == pr {
                    x[node] = 0.0;
                    continue;
                }
                let kp = pinv[node];
                if kp != NONE {
                    u_rows.push(kp);
                    u_vals.push(x[node]);
                } else {
                    l_rows.push(node);
                    l_vals.push(x[node] / pivot);
                    flops += 1;
                }
                x[node] = 0.0;
            }
            u_colptr[k + 1] = u_rows.len();
            l_colptr[k + 1] = l_rows.len();
        }

        // 3. Remap L to pivot positions and sort factor columns ascending
        //    (refactor consumes U in ascending-row dependency order).
        for r in &mut l_rows {
            *r = pinv[*r];
        }
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for k in 0..n {
            sort_col(
                &mut l_rows[l_colptr[k]..l_colptr[k + 1]],
                &mut l_vals[l_colptr[k]..l_colptr[k + 1]],
                &mut scratch,
            );
            sort_col(
                &mut u_rows[u_colptr[k]..u_colptr[k + 1]],
                &mut u_vals[u_colptr[k]..u_colptr[k + 1]],
                &mut scratch,
            );
        }

        // 4. Replay plan for refactorizations: every scatter and update
        //    target as a position in its column's local row list. `local`
        //    maps a permuted row to that position for the current column.
        let mut local = vec![u32::MAX; n];
        let mut sc_local = vec![0u32; pattern.nnz()];
        let mut upd_ptr = vec![0usize; n + 1];
        let mut upd_local: Vec<u32> = Vec::new();
        let mut longest = 0;
        for (k, &oc) in colmap.iter().enumerate() {
            let us = &u_rows[u_colptr[k]..u_colptr[k + 1]];
            let ls = &l_rows[l_colptr[k]..l_colptr[k + 1]];
            let rows = us.iter().chain(std::iter::once(&k)).chain(ls);
            for (pos, &r) in rows.clone().enumerate() {
                local[r] = pos as u32;
            }
            longest = longest.max(us.len() + 1 + ls.len());
            for (r, slot) in pattern.col_entries(oc) {
                sc_local[slot] = local[pinv[r]];
            }
            for &j in us {
                for &r in &l_rows[l_colptr[j]..l_colptr[j + 1]] {
                    debug_assert_ne!(local[r], u32::MAX, "update outside column {k}");
                    upd_local.push(local[r]);
                }
            }
            upd_ptr[k + 1] = upd_local.len();
            for &r in rows {
                local[r] = u32::MAX;
            }
        }
        let mut slot_col = vec![0u32; pattern.nnz()];
        for (k, &oc) in colmap.iter().enumerate() {
            slot_col[pattern.col_ptr[oc]..pattern.col_ptr[oc + 1]].fill(k as u32);
        }
        let mut ut_ptr = vec![0usize; n + 1];
        for &j in &u_rows {
            ut_ptr[j + 1] += 1;
        }
        for j in 0..n {
            ut_ptr[j + 1] += ut_ptr[j];
        }
        let mut fill = ut_ptr.clone();
        let mut ut_cols = vec![0u32; u_rows.len()];
        for k in 0..n {
            for &j in &u_rows[u_colptr[k]..u_colptr[k + 1]] {
                ut_cols[fill[j]] = k as u32;
                fill[j] += 1;
            }
        }

        Ok(SparseLu {
            n,
            rowmap,
            colmap,
            l_colptr,
            l_rows,
            l_vals,
            u_colptr,
            u_rows,
            u_vals,
            diag,
            a_colptr: pattern.col_ptr.clone(),
            sc_local,
            upd_ptr,
            upd_local,
            buf: vec![0.0; longest],
            last: values.to_vec(),
            slot_col,
            ut_ptr,
            ut_cols,
            dirty: vec![false; n],
            stale: true,
            flops,
        })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Structural nonzeros of the factors (L + U + diagonal) — the fill-in
    /// diagnostic and the per-call cost driver of [`SparseLu::refactor`].
    pub fn factor_nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len() + self.n
    }

    /// Cumulative numeric operations (multiply–adds plus divides) actually
    /// performed by [`SparseLu::factor`] and every [`SparseLu::refactor`] on
    /// this object. A refactor adds nothing for the columns it skips (their
    /// values and the `L` columns they read are bitwise unchanged) and
    /// nothing for updates by exact zeros, so one call adds at most
    /// [`SparseLu::refactor_cost`].
    pub fn total_flops(&self) -> u64 {
        self.flops
    }

    /// Multiply–adds plus divides of one [`SparseLu::refactor`] that
    /// recomputes every column and meets no zero — the structural cost of a
    /// refactorization, independent of the values it last saw.
    pub fn refactor_cost(&self) -> u64 {
        (self.upd_local.len() + self.l_vals.len()) as u64
    }

    /// Numeric-only refactorization: same pattern, same pivot order, new
    /// values. Left-looking over the frozen column structures, replaying the
    /// plan recorded by [`SparseLu::factor`] in a small column buffer.
    ///
    /// Only columns whose inputs changed are recomputed. Column `k` reads
    /// `A(:,k)` and `L(:,j)` for each `j` in `U(:,k)`. It is recomputed when
    /// one of its values differs *bitwise* from the last successful
    /// refactor, or when a recomputed column `j` in `U(:,k)` produced an
    /// `L(:,j)` that differs bitwise from the stored one (a change confined
    /// to `U(:,j)` or the pivot does not reach column `k`). Otherwise every
    /// input of column `k` is bit-identical to the last successful call, so
    /// its stored `L`, `U` and pivot are exactly what recomputation would
    /// give, and its checks would pass again. A recomputed column performs
    /// every add, subtract and divide in the same order as a from-scratch
    /// refactor, so the factors are bit-identical either way. The first
    /// refactor after [`SparseLu::factor`] (whose numeric pass orders
    /// operations differently) and the first after a failed refactor
    /// recompute every column.
    ///
    /// # Errors
    ///
    /// [`Error::Singular`] when a frozen pivot falls below the singularity
    /// threshold *or* decays badly relative to its column (the caller should
    /// then re-run [`SparseLu::factor`] to choose fresh pivots), and for
    /// non-finite (NaN/inf) input values.
    pub fn refactor(&mut self, values: &[f64]) -> Result<()> {
        if values.len() != self.sc_local.len() {
            return Err(Error::DimensionMismatch {
                expected: format!("{} values", self.sc_local.len()),
                got: format!("{} values", values.len()),
            });
        }
        let n = self.n;
        let SparseLu {
            colmap,
            l_colptr,
            l_vals,
            u_colptr,
            u_rows,
            u_vals,
            diag,
            a_colptr,
            sc_local,
            upd_ptr,
            upd_local,
            buf,
            last,
            slot_col,
            ut_ptr,
            ut_cols,
            dirty,
            stale,
            flops,
            ..
        } = self;
        // Mark the columns whose values changed. `stale` is cleared again
        // only when every column succeeded.
        if std::mem::replace(stale, true) {
            last.copy_from_slice(values);
            dirty.fill(true);
        } else {
            for ((w, &v), &k) in last.iter_mut().zip(values).zip(slot_col.iter()) {
                if v.to_bits() != w.to_bits() {
                    *w = v;
                    dirty[k as usize] = true;
                }
            }
        }
        for k in 0..n {
            if !std::mem::take(&mut dirty[k]) {
                continue;
            }
            let oc = colmap[k];
            let (a_lo, a_hi) = (a_colptr[oc], a_colptr[oc + 1]);
            let a = &values[a_lo..a_hi];
            let (u_lo, u_hi) = (u_colptr[k], u_colptr[k + 1]);
            let nu = u_hi - u_lo;
            let (l_lo, l_hi) = (l_colptr[k], l_colptr[k + 1]);
            let col = &mut buf[..nu + 1 + (l_hi - l_lo)];
            col.fill(0.0);
            // Scatter column k of A (permuted) into the column buffer.
            let mut colscale = f64::MIN_POSITIVE;
            let mut finite = true;
            for (&v, &pos) in a.iter().zip(&sc_local[a_lo..a_hi]) {
                col[pos as usize] += v;
                colscale = colscale.max(v.abs());
                finite &= v.is_finite();
            }
            if !finite {
                // NaN/inf input: reject before it reaches the factors — the
                // magnitude-based pivot checks below are all false for NaN
                // and would wave it through.
                return Err(Error::Singular { pivot: k });
            }
            // Left-looking update: consume U entries ascending.
            let mut t = upd_ptr[k];
            for i in 0..nu {
                let j = u_rows[u_lo + i];
                let ujk = col[i];
                u_vals[u_lo + i] = ujk;
                let (lo, hi) = (l_colptr[j], l_colptr[j + 1]);
                if ujk != 0.0 {
                    for (lv, &pos) in l_vals[lo..hi].iter().zip(&upd_local[t..t + hi - lo]) {
                        col[pos as usize] -= lv * ujk;
                    }
                    *flops += (hi - lo) as u64;
                }
                t += hi - lo;
            }
            let (pivot, below) = (col[nu], &col[nu + 1..]);
            let mut colmax = pivot.abs();
            for v in below {
                colmax = colmax.max(v.abs());
            }
            if pivot.abs() < SINGULAR_EPS * colscale || pivot.abs() < PIVOT_RTOL * colmax {
                return Err(Error::Singular { pivot: k });
            }
            diag[k] = pivot;
            let mut moved = false;
            for (lv, v) in l_vals[l_lo..l_hi].iter_mut().zip(below) {
                let l = v / pivot;
                moved |= l.to_bits() != lv.to_bits();
                *lv = l;
            }
            *flops += (l_hi - l_lo) as u64;
            if moved {
                // The columns that read L(:,k) must be recomputed too.
                for &d in &ut_cols[ut_ptr[k]..ut_ptr[k + 1]] {
                    dirty[d as usize] = true;
                }
            }
        }
        *stale = false;
        Ok(())
    }

    /// Solves `A x = b` with the current factors, writing into `out` and
    /// using `scratch` as the permuted intermediate (both length `n`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] on length mismatches.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64], scratch: &mut [f64]) -> Result<()> {
        let n = self.n;
        if b.len() != n || out.len() != n || scratch.len() != n {
            return Err(Error::DimensionMismatch {
                expected: format!("vectors of length {n}"),
                got: format!("{} / {} / {}", b.len(), out.len(), scratch.len()),
            });
        }
        for r in 0..n {
            scratch[r] = b[self.rowmap[r]];
        }
        // Forward substitution (unit lower, column access).
        for j in 0..n {
            let dj = scratch[j];
            if dj != 0.0 {
                for idx in self.l_colptr[j]..self.l_colptr[j + 1] {
                    scratch[self.l_rows[idx]] -= self.l_vals[idx] * dj;
                }
            }
        }
        // Back substitution (upper, column access).
        for k in (0..n).rev() {
            let yk = scratch[k] / self.diag[k];
            scratch[k] = yk;
            if yk != 0.0 {
                for idx in self.u_colptr[k]..self.u_colptr[k + 1] {
                    scratch[self.u_rows[idx]] -= self.u_vals[idx] * yk;
                }
            }
        }
        for c in 0..n {
            out[self.colmap[c]] = scratch[c];
        }
        Ok(())
    }

    /// Allocating convenience wrapper around [`SparseLu::solve_into`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.n];
        let mut scratch = vec![0.0; self.n];
        self.solve_into(b, &mut out, &mut scratch)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_entries(m: &Matrix) -> (Vec<(usize, usize)>, Vec<f64>) {
        // Column-major so slots line up with CscPattern's ordering.
        let mut e = Vec::new();
        let mut v = Vec::new();
        for c in 0..m.cols() {
            for r in 0..m.rows() {
                if m.get(r, c) != 0.0 {
                    e.push((r, c));
                    v.push(m.get(r, c));
                }
            }
        }
        (e, v)
    }

    #[test]
    fn pattern_slots_and_lookup() {
        let pat = CscPattern::from_entries(3, &[(2, 0), (0, 0), (1, 2), (0, 0)]).unwrap();
        assert_eq!(pat.n(), 3);
        assert_eq!(pat.nnz(), 3); // duplicate merged
        assert_eq!(pat.index_of(0, 0), Some(0));
        assert_eq!(pat.index_of(2, 0), Some(1));
        assert_eq!(pat.index_of(1, 2), Some(2));
        assert_eq!(pat.index_of(1, 1), None);
        assert_eq!(pat.index_of(9, 0), None);
    }

    #[test]
    fn pattern_validation() {
        assert!(matches!(
            CscPattern::from_entries(0, &[]),
            Err(Error::EmptyInput)
        ));
        assert!(CscPattern::from_entries(2, &[(2, 0)]).is_err());
    }

    #[test]
    fn solves_dense_reference_system() {
        let a = Matrix::from_rows(&[
            &[4.0, 0.0, 1.0, 0.0],
            &[0.0, 3.0, 0.0, 2.0],
            &[1.0, 0.0, 5.0, 0.0],
            &[0.0, 2.0, 0.0, 6.0],
        ])
        .unwrap();
        let (e, v) = dense_entries(&a);
        let pat = CscPattern::from_entries(4, &e).unwrap();
        let lu = SparseLu::factor(&pat, &v).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        let x = lu.solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-12);
        }
        assert!(lu.total_flops() > 0);
    }

    #[test]
    fn handles_zero_diagonal_like_mna_branch_rows() {
        // Voltage-source-style block: structural zero on the (2,2) diagonal
        // forces off-diagonal pivoting.
        let a =
            Matrix::from_rows(&[&[1e-3, 0.0, 1.0], &[0.0, 2e-3, -1.0], &[1.0, -1.0, 0.0]]).unwrap();
        let (e, v) = dense_entries(&a);
        let pat = CscPattern::from_entries(3, &e).unwrap();
        let lu = SparseLu::factor(&pat, &v).unwrap();
        let b = [0.0, 0.0, 2.5];
        let x = lu.solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn refactor_tracks_new_values() {
        let a0 =
            Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]).unwrap();
        let (e, v0) = dense_entries(&a0);
        let pat = CscPattern::from_entries(3, &e).unwrap();
        let mut lu = SparseLu::factor(&pat, &v0).unwrap();
        // Same structure, different values.
        let a1 =
            Matrix::from_rows(&[&[5.0, -1.0, 0.0], &[2.0, 7.0, 0.5], &[0.0, -3.0, 9.0]]).unwrap();
        let (_, v1) = dense_entries(&a1);
        lu.refactor(&v1).unwrap();
        let b = [1.0, -2.0, 3.0];
        let x = lu.solve(&b).unwrap();
        let r = a1.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn refactor_rejects_decayed_pivot_then_factor_recovers() {
        // First matrix: diagonally dominant, diagonal pivots chosen. Second
        // matrix zeroes a diagonal entry: the frozen pivot decays and
        // refactor must bail out; a fresh factor() succeeds by re-pivoting.
        let a0 = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 4.0]]).unwrap();
        let (e, v0) = dense_entries(&a0);
        let pat = CscPattern::from_entries(2, &e).unwrap();
        let mut lu = SparseLu::factor(&pat, &v0).unwrap();
        let v1 = [1e-9, 1.0, 1.0, 1e-9]; // slots: (0,0) (1,0) (0,1) (1,1)
        assert!(matches!(lu.refactor(&v1), Err(Error::Singular { .. })));
        let lu2 = SparseLu::factor(&pat, &v1).unwrap();
        let x = lu2.solve(&[2.0, 5.0]).unwrap();
        assert!((x[1] - 2.0).abs() < 1e-6 && (x[0] - 5.0).abs() < 1e-6);
        // The failed refactor must not poison the accumulator: a refactor
        // with the original values still works on the old object.
        lu.refactor(&v0).unwrap();
        let x = lu.solve(&[5.0, 5.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        let (e, v) = dense_entries(&a);
        let pat = CscPattern::from_entries(2, &e).unwrap();
        assert!(matches!(
            SparseLu::factor(&pat, &v),
            Err(Error::Singular { .. })
        ));
    }

    #[test]
    fn factor_rejects_nan_values() {
        // A NaN value must surface as a factorization error, not poison the
        // factors or the accumulator invariant.
        let pat = CscPattern::from_entries(2, &[(0, 0), (1, 0), (0, 1), (1, 1)]).unwrap();
        assert!(matches!(
            SparseLu::factor(&pat, &[f64::NAN, 1.0, 1.0, 3.0]),
            Err(Error::Singular { .. })
        ));
        // Off-pivot-path NaN: here the NaN lands in a U entry whose column
        // still has a healthy pivot, so magnitude-based checks alone would
        // wave it through and solve() would return NaN silently.
        let upper = CscPattern::from_entries(2, &[(0, 0), (0, 1), (1, 1)]).unwrap();
        assert!(matches!(
            SparseLu::factor(&upper, &[2.0, f64::NAN, 3.0]),
            Err(Error::Singular { .. })
        ));
        // Same for a refactorization over a healthy structure — and the
        // rejection must not poison the accumulator for later refactors.
        let mut lu = SparseLu::factor(&upper, &[2.0, 1.0, 3.0]).unwrap();
        assert!(matches!(
            lu.refactor(&[2.0, f64::INFINITY, 3.0]),
            Err(Error::Singular { .. })
        ));
        lu.refactor(&[4.0, 2.0, 5.0]).unwrap();
        let x = lu.solve(&[4.0, 5.0]).unwrap();
        assert!((4.0 * x[0] + 2.0 * x[1] - 4.0).abs() < 1e-12);
        assert!((5.0 * x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn to_dense_round_trip() {
        // Column-major slots: (0,0) then (0,1) then (1,1).
        let pat = CscPattern::from_entries(2, &[(0, 0), (1, 1), (0, 1)]).unwrap();
        let m = pat.to_dense(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 1), 3.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert!(pat.to_dense(&[1.0]).is_err());
    }

    #[test]
    fn min_degree_prefers_low_degree_nodes() {
        // Star graph: center 0 connected to 1..4. Eliminating the hub first
        // would fill the whole matrix; minimum degree defers it behind the
        // degree-1 leaves and the factorization stays fill-free.
        let mut e = vec![(0usize, 0usize)];
        for k in 1..5 {
            e.push((k, k));
            e.push((0, k));
            e.push((k, 0));
        }
        let pat = CscPattern::from_entries(5, &e).unwrap();
        let order = amd_order(&pat);
        assert_ne!(order[0], 0, "hub must not be eliminated first");
        // Diagonally dominant values aligned with the pattern.
        let mut vals = vec![0.0; pat.nnz()];
        for c in 0..5 {
            for (r, slot) in pat.col_entries(c) {
                vals[slot] = if r == c { 8.0 } else { 1.0 };
            }
        }
        let lu = SparseLu::factor(&pat, &vals).unwrap();
        // Zero fill: L and U each hold exactly the 4 off-diagonal edges.
        assert_eq!(lu.factor_nnz(), 4 + 4 + 5);
    }

    #[test]
    fn amd_handles_past_former_cutoff_without_dense_scratch() {
        // A 600-unknown tridiagonal chain — far beyond the old dense-greedy
        // cutoff (256). Any fill-reducing order keeps a chain's factors
        // tridiagonal-sized; the natural-order fallback would too, but the
        // point is that the ordering + factorization stay exact and cheap.
        let n = 600;
        let mut e: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for i in 1..n {
            e.push((i - 1, i));
            e.push((i, i - 1));
        }
        let pat = CscPattern::from_entries(n, &e).unwrap();
        let order = amd_order(&pat);
        let mut seen = vec![false; n];
        for &v in &order {
            assert!(!seen[v], "duplicate in ordering");
            seen[v] = true;
        }
        let mut vals = vec![0.0; pat.nnz()];
        for c in 0..n {
            for (r, slot) in pat.col_entries(c) {
                vals[slot] = if r == c { 4.0 } else { -1.0 };
            }
        }
        let lu = SparseLu::factor(&pat, &vals).unwrap();
        // A chain admits a zero-fill elimination order; allow a small slack
        // over the 2(n-1) off-diagonals + n pivots for tie-break artifacts.
        assert!(
            lu.factor_nnz() < 4 * n,
            "fill explosion: {} nnz on a {n}-chain",
            lu.factor_nnz()
        );
        // Solve sanity against a known RHS.
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        let x = lu.solve(&b).unwrap();
        let mut r0 = 4.0 * x[0] - x[1];
        assert!((r0 - 1.0).abs() < 1e-10);
        r0 = 4.0 * x[n - 1] - x[n - 2];
        assert!(r0.abs() < 1e-10);
    }

    /// Permuted row of every original row.
    fn pinv(lu: &SparseLu) -> Vec<usize> {
        let mut pinv = vec![0; lu.n];
        for (k, &r) in lu.rowmap.iter().enumerate() {
            pinv[r] = k;
        }
        pinv
    }

    /// Test-only copy of the refactor this module used before columns could
    /// be skipped: a length-`n` accumulator, every column recomputed. Its
    /// scatter rows come from the pattern and the pivot order, not from the
    /// replay plan, so the plan is checked rather than trusted.
    fn full_refactor(lu: &mut SparseLu, pattern: &CscPattern, values: &[f64]) -> Result<()> {
        let n = lu.n;
        let pinv = pinv(lu);
        let mut x = vec![0.0f64; n];
        for k in 0..n {
            let mut colscale = f64::MIN_POSITIVE;
            let mut finite = true;
            for (r, slot) in pattern.col_entries(lu.colmap[k]) {
                let v = values[slot];
                x[pinv[r]] += v;
                colscale = colscale.max(v.abs());
                finite &= v.is_finite();
            }
            if !finite {
                return Err(Error::Singular { pivot: k });
            }
            for idx in lu.u_colptr[k]..lu.u_colptr[k + 1] {
                let j = lu.u_rows[idx];
                let ujk = x[j];
                lu.u_vals[idx] = ujk;
                if ujk != 0.0 {
                    for l in lu.l_colptr[j]..lu.l_colptr[j + 1] {
                        x[lu.l_rows[l]] -= lu.l_vals[l] * ujk;
                    }
                    lu.flops += (lu.l_colptr[j + 1] - lu.l_colptr[j]) as u64;
                }
            }
            let ls = lu.l_colptr[k]..lu.l_colptr[k + 1];
            let pivot = x[k];
            let mut colmax = pivot.abs();
            for idx in ls.clone() {
                colmax = colmax.max(x[lu.l_rows[idx]].abs());
            }
            if pivot.abs() < SINGULAR_EPS * colscale || pivot.abs() < PIVOT_RTOL * colmax {
                return Err(Error::Singular { pivot: k });
            }
            lu.diag[k] = pivot;
            for idx in ls.clone() {
                lu.l_vals[idx] = x[lu.l_rows[idx]] / pivot;
            }
            lu.flops += ls.len() as u64;
            x[k] = 0.0;
            for idx in lu.u_colptr[k]..lu.u_colptr[k + 1] {
                x[lu.u_rows[idx]] = 0.0;
            }
            for idx in ls {
                x[lu.l_rows[idx]] = 0.0;
            }
        }
        Ok(())
    }

    fn factor_bits(lu: &SparseLu) -> Vec<u64> {
        lu.l_vals
            .iter()
            .chain(&lu.u_vals)
            .chain(&lu.diag)
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn partial_refactor_matches_full_refactor_bitwise() {
        // Seeded edit sequences: nothing, one original column, every value,
        // a random subset of columns, signed-zero flips, a NaN, a decayed
        // pivot and the `U` part of one column (which may leave its `L`
        // column bitwise unchanged, so its dependents are skipped). After
        // every successful call the stored factors must equal the full
        // refactor's bit for bit; a failure must fail the same way and leave
        // the next call recomputing every column.
        use crate::rng::SplitMix64;
        let mut rng = SplitMix64::new(0x5eed_0fc0);
        let n = 30;
        let mut entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for _ in 0..90 {
            entries.push((rng.below(n), rng.below(n)));
        }
        let pattern = CscPattern::from_entries(n, &entries).unwrap();
        let fresh = |rng: &mut SplitMix64, r: usize, c: usize| {
            if r == c {
                rng.range(3.0, 5.0)
            } else {
                rng.range(-1.0, 1.0)
            }
        };
        let mut values = vec![0.0; pattern.nnz()];
        for c in 0..n {
            for (r, slot) in pattern.col_entries(c) {
                values[slot] = fresh(&mut rng, r, c);
            }
        }
        let mut lu = SparseLu::factor(&pattern, &values).unwrap();
        let mut oracle = lu.clone();
        let cost = lu.refactor_cost();
        let pinv = pinv(&lu);
        let mut failures = [0usize; 8];
        for step in 0..136 {
            let mut edit = values.clone();
            match step % 8 {
                0 => {}
                1 => {
                    let c = rng.below(n);
                    for (r, slot) in pattern.col_entries(c) {
                        edit[slot] = fresh(&mut rng, r, c);
                    }
                }
                2 => {
                    for c in 0..n {
                        for (r, slot) in pattern.col_entries(c) {
                            edit[slot] = fresh(&mut rng, r, c);
                        }
                    }
                }
                3 => {
                    for c in 0..n {
                        if rng.below(4) == 0 {
                            for (r, slot) in pattern.col_entries(c) {
                                edit[slot] = fresh(&mut rng, r, c);
                            }
                        }
                    }
                }
                4 => {
                    // Off-diagonal entries to +0.0 or -0.0: equal as
                    // numbers, different as bits.
                    for c in 0..n {
                        for (r, slot) in pattern.col_entries(c) {
                            if r != c && rng.below(3) == 0 {
                                edit[slot] = if edit[slot].to_bits() == 0 { -0.0 } else { 0.0 };
                            }
                        }
                    }
                }
                5 => {
                    let slot = rng.below(edit.len());
                    edit[slot] = f64::NAN;
                }
                6 => {
                    let c = rng.below(n);
                    let slot = pattern.index_of(c, c).unwrap();
                    edit[slot] = 1e-14;
                }
                _ => {
                    let k = rng.below(n);
                    let c = lu.colmap[k];
                    for (r, slot) in pattern.col_entries(c) {
                        if pinv[r] < k {
                            edit[slot] = fresh(&mut rng, r, c);
                        }
                    }
                }
            }
            let before = lu.total_flops();
            let got = lu.refactor(&edit);
            let want = full_refactor(&mut oracle, &pattern, &edit);
            let spent = lu.total_flops() - before;
            assert!(spent <= cost, "step {step}: {spent} flops > {cost}");
            match (got, want) {
                (Ok(()), Ok(())) => {
                    assert_eq!(factor_bits(&lu), factor_bits(&oracle), "step {step}");
                    assert!(!lu.stale);
                    assert!(lu.dirty.iter().all(|&d| !d), "step {step}");
                    if step % 8 == 0 && step > 0 {
                        assert_eq!(spent, 0, "step {step}: nothing changed");
                    }
                    values = edit;
                }
                (Err(Error::Singular { pivot: a }), Err(Error::Singular { pivot: b })) => {
                    assert_eq!(a, b, "step {step}");
                    assert!(lu.stale, "step {step}: a failure forces a full recompute");
                    failures[step % 8] += 1;
                    // Recover on the last good values, as the oracle does.
                    lu.refactor(&values).unwrap();
                    full_refactor(&mut oracle, &pattern, &values).unwrap();
                    assert_eq!(factor_bits(&lu), factor_bits(&oracle), "step {step}");
                }
                (got, want) => panic!("step {step}: {got:?} vs {want:?}"),
            }
        }
        assert_eq!(failures[5], 17, "every NaN fails");
        assert!(failures[6] > 0, "some decayed pivot fails: {failures:?}");
    }

    #[test]
    fn unchanged_l_column_skips_its_dependents() {
        // A chain plus a leaf `m` whose only off-diagonal entry is A(m, 3):
        // minimum degree eliminates the leaf first, so L(:,leaf) is empty
        // and A(m, 3) lands in the U part of column 3. Changing it changes
        // U(:,3) but neither the pivot nor L(:,3), so the columns that read
        // L(:,3) must be skipped.
        let m = 8;
        let n = m + 1;
        let mut entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for i in 1..m {
            entries.push((i - 1, i));
            entries.push((i, i - 1));
        }
        entries.push((m, 3));
        let pattern = CscPattern::from_entries(n, &entries).unwrap();
        let mut values = vec![0.0; pattern.nnz()];
        for c in 0..n {
            for (r, slot) in pattern.col_entries(c) {
                values[slot] = if r == c {
                    4.0 + c as f64
                } else {
                    -1.0 - 0.1 * r as f64
                };
            }
        }
        let mut lu = SparseLu::factor(&pattern, &values).unwrap();
        lu.refactor(&values).unwrap();
        let pinv = pinv(&lu);
        let j = pinv[3];
        let leaf = pinv[m];
        let empty = |lu: &SparseLu, i: usize| lu.l_colptr[i] == lu.l_colptr[i + 1];
        assert!(leaf < j && empty(&lu, leaf), "the leaf is eliminated first");
        let dependents = &lu.ut_cols[lu.ut_ptr[j]..lu.ut_ptr[j + 1]];
        assert!(!dependents.is_empty(), "some column reads L(:,{j})");

        let slot = pattern.index_of(m, 3).unwrap();
        values[slot] = 2.5;
        let before = lu.total_flops();
        lu.refactor(&values).unwrap();
        let spent = lu.total_flops() - before;
        // Column j alone: its updates by nonzero U entries, then its divides.
        let mut own = (lu.l_colptr[j + 1] - lu.l_colptr[j]) as u64;
        for idx in lu.u_colptr[j]..lu.u_colptr[j + 1] {
            let i = lu.u_rows[idx];
            if lu.u_vals[idx] != 0.0 {
                own += (lu.l_colptr[i + 1] - lu.l_colptr[i]) as u64;
            }
        }
        let mut full = lu.clone();
        let before = full.total_flops();
        full_refactor(&mut full, &pattern, &values).unwrap();
        let recompute = full.total_flops() - before;
        assert_eq!(spent, own, "only column {j} is recomputed");
        assert!(
            spent < recompute,
            "{spent} flops, full recompute {recompute}"
        );
        assert_eq!(factor_bits(&lu), factor_bits(&full));

        let mut fresh = SparseLu::factor(&pattern, &values).unwrap();
        fresh.refactor(&values).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + 0.25 * i as f64).collect();
        let bits = |x: Vec<f64>| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(lu.solve(&b).unwrap()), bits(fresh.solve(&b).unwrap()));
    }

    #[test]
    fn dimension_errors() {
        let pat = CscPattern::from_entries(2, &[(0, 0), (1, 1)]).unwrap();
        assert!(SparseLu::factor(&pat, &[1.0]).is_err());
        let mut lu = SparseLu::factor(&pat, &[1.0, 1.0]).unwrap();
        assert!(lu.refactor(&[1.0]).is_err());
        assert!(lu.solve(&[1.0]).is_err());
        assert_eq!(lu.dim(), 2);
    }
}
