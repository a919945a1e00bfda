//! The port-partitioned solve: the linear interior factored once, Newton on
//! the dense port Schur complement.
//!
//! Order the unknowns as interior `i` (touched only by linear devices) and
//! ports `p` (every row or column a nonlinear device registers). With a
//! fixed mode and step, the linear devices' matrix `A` is constant; the
//! nonlinear devices add a Jacobian `G` that lives entirely in the `p × p`
//! block, and a right-hand side `b_nl` on port rows:
//!
//! ```text
//! [ A_ii   A_ip     ] [x_i]   [b_i       ]
//! [ A_pi   A_pp + G ] [x_p] = [b_p + b_nl]
//! ```
//!
//! Eliminating `x_i` leaves `(S0 + G) x_p = r0 + b_nl` with the constant
//! Schur complement `S0 = A_pp − A_pi A_ii⁻¹ A_ip` and `r0 = b_p − A_pi y`,
//! `y = A_ii⁻¹ b_i`; then `x_i = y − W x_p` with `W = A_ii⁻¹ A_ip`. A
//! [`PortSolver`] factors `A_ii` once and forms `S0` and `W` from one
//! interior sweep per port. The linear right-hand side `b` is fixed within a
//! timestep, so [`PortSolver::step`] sweeps the interior once per step for
//! `y` and `r0`; each Newton iteration then costs one dense `p × p` LU plus
//! the `ni × p` product `W x_p`, with no interior sweep.

use numkit::lu::LuFactor;
use numkit::sparse::{CscPattern, SparseLu};
use numkit::Matrix;

/// Marks an unknown that has no index in the port (or interior) numbering.
const NONE: u32 = u32::MAX;

/// Why an analysis left the port-partitioned path for the full-refactor
/// path. The analysis itself continues on the full path; each fallback is
/// counted in [`crate::SolveStats::port_fallbacks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PortFallback {
    /// The interior block `A_ii` is singular, e.g. a voltage source straight
    /// across a port leaves its branch row with no interior entry.
    SingularInterior,
    /// A nonlinear device wrote a matrix position outside the port block
    /// (one it did not register).
    StrayWrite,
    /// The port system `S0 + G` was singular, or the solution was not
    /// finite.
    SingularPorts,
}

/// The frozen linear interior plus the per-step and per-iteration port
/// systems.
#[derive(Debug)]
pub(super) struct PortSolver {
    /// Step the frozen matrix was assembled for.
    pub(super) dt: f64,
    /// Node-to-ground conductance included in the frozen matrix.
    pub(super) gmin: f64,
    /// Unknown → port index (`NONE` for interior unknowns): the O(1) table
    /// nonlinear stamps resolve through.
    port_of: Vec<u32>,
    ports: Vec<usize>,
    interior: Vec<usize>,
    /// Factor of `A_ii`, computed once.
    lu: SparseLu,
    /// `A_pi` as (port row, interior column, value).
    a_pi: Vec<(u32, u32, f64)>,
    /// `W = A_ii⁻¹ A_ip`, row-major `ni × p`.
    w: Vec<f64>,
    s0: Matrix,
    /// `S0 + G` of the current iteration: reset to `S0` by
    /// [`PortSolver::begin`], then accumulated by nonlinear stamps.
    m: Matrix,
    /// Factor of `m`, refactored in place each iteration.
    m_lu: LuFactor,
    /// Set when a nonlinear stamp lands outside the port block.
    stray: bool,
    /// The step's interior solution of the linear part, `A_ii⁻¹ b_i`.
    y: Vec<f64>,
    /// The step's reduced port right-hand side, `b_p − A_pi y`.
    r0: Vec<f64>,
    /// The iteration's nonlinear right-hand side, by port.
    b_nl: Vec<f64>,
    /// `r0 + b_nl`.
    r: Vec<f64>,
    /// The iteration's port solution.
    xp: Vec<f64>,
    bi: Vec<f64>,
    scratch: Vec<f64>,
}

impl PortSolver {
    /// Partitions the assembled linear matrix (`pattern`, `values`) by
    /// `ports` (sorted, unique), factors the interior and forms `S0` and
    /// `W`.
    ///
    /// # Errors
    ///
    /// [`PortFallback::SingularInterior`] when `A_ii` cannot be factored or
    /// `S0` is not finite.
    pub(super) fn build(
        pattern: &CscPattern,
        values: &[f64],
        ports: &[usize],
        dt: f64,
        gmin: f64,
    ) -> Result<Self, PortFallback> {
        let n = pattern.n();
        let p = ports.len();
        let mut port_of = vec![NONE; n];
        for (k, &i) in ports.iter().enumerate() {
            port_of[i] = k as u32;
        }
        let interior: Vec<usize> = (0..n).filter(|&i| port_of[i] == NONE).collect();
        let ni = interior.len();
        let mut int_of = vec![NONE; n];
        for (k, &i) in interior.iter().enumerate() {
            int_of[i] = k as u32;
        }

        let mut ii: Vec<(usize, usize, f64)> = Vec::new();
        let mut a_pi = Vec::new();
        let mut a_ip = Vec::new();
        let mut s0 = Matrix::zeros(p, p);
        for c in 0..n {
            for (r, s) in pattern.col_entries(c) {
                let v = values[s];
                if v == 0.0 {
                    continue;
                }
                match (port_of[r], port_of[c]) {
                    (NONE, NONE) => ii.push((int_of[r] as usize, int_of[c] as usize, v)),
                    (pr, NONE) => a_pi.push((pr, int_of[c], v)),
                    (NONE, pc) => a_ip.push((int_of[r], pc, v)),
                    (pr, pc) => s0.add_at(pr as usize, pc as usize, v),
                }
            }
        }
        let entries: Vec<(usize, usize)> = ii.iter().map(|&(r, c, _)| (r, c)).collect();
        let ii_pattern =
            CscPattern::from_entries(ni, &entries).map_err(|_| PortFallback::SingularInterior)?;
        let mut ii_values = vec![0.0; ii_pattern.nnz()];
        for &(r, c, v) in &ii {
            let s = ii_pattern.index_of(r, c).expect("entry just inserted");
            ii_values[s] += v;
        }
        let lu = SparseLu::factor(&ii_pattern, &ii_values)
            .map_err(|_| PortFallback::SingularInterior)?;

        // W = A_ii⁻¹ A_ip and S0 = A_pp − A_pi W, one interior solve per
        // port column.
        a_ip.sort_unstable_by_key(|&(j, k, _)| (k, j));
        let (mut e, mut col, mut scratch) = (vec![0.0; ni], vec![0.0; ni], vec![0.0; ni]);
        let mut w = vec![0.0; ni * p];
        let mut start = 0;
        for k in 0..p {
            let end = start + a_ip[start..].partition_point(|&(_, pc, _)| pc as usize == k);
            if start == end {
                continue; // the port touches no interior unknown: W[:, k] = 0
            }
            e.iter_mut().for_each(|v| *v = 0.0);
            for &(j, _, v) in &a_ip[start..end] {
                e[j as usize] += v;
            }
            start = end;
            lu.solve_into(&e, &mut col, &mut scratch)
                .map_err(|_| PortFallback::SingularInterior)?;
            for (j, &v) in col.iter().enumerate() {
                w[j * p + k] = v;
            }
            for &(pr, j, v) in &a_pi {
                s0.add_at(pr as usize, k, -v * col[j as usize]);
            }
        }
        if !s0.as_slice().iter().all(|v| v.is_finite()) {
            return Err(PortFallback::SingularInterior);
        }
        Ok(PortSolver {
            dt,
            gmin,
            port_of,
            ports: ports.to_vec(),
            interior,
            lu,
            a_pi,
            w,
            m: s0.clone(),
            s0,
            m_lu: LuFactor::default(),
            stray: false,
            y: vec![0.0; ni],
            r0: vec![0.0; p],
            b_nl: vec![0.0; p],
            r: vec![0.0; p],
            xp: vec![0.0; p],
            bi: e,
            scratch,
        })
    }

    /// Number of ports.
    pub(super) fn n_ports(&self) -> usize {
        self.ports.len()
    }

    /// Nonzeros of the interior factor plus the dense `p × p` port factor.
    pub(super) fn factor_nnz(&self) -> usize {
        self.lu.factor_nnz() + self.ports.len() * self.ports.len()
    }

    /// Flops spent factoring the interior.
    pub(super) fn interior_flops(&self) -> u64 {
        self.lu.total_flops()
    }

    /// Takes the step's linear right-hand side `rhs` (every unknown): one
    /// interior sweep for `y`, then `r0 = b_p − A_pi y`.
    ///
    /// # Errors
    ///
    /// [`PortFallback::SingularPorts`] if the sweep fails.
    pub(super) fn step(&mut self, rhs: &[f64]) -> Result<(), PortFallback> {
        for (b, &i) in self.bi.iter_mut().zip(&self.interior) {
            *b = rhs[i];
        }
        self.lu
            .solve_into(&self.bi, &mut self.y, &mut self.scratch)
            .map_err(|_| PortFallback::SingularPorts)?;
        for (r, &i) in self.r0.iter_mut().zip(&self.ports) {
            *r = rhs[i];
        }
        for &(k, j, v) in &self.a_pi {
            self.r0[k as usize] -= v * self.y[j as usize];
        }
        Ok(())
    }

    /// Resets the port matrix to `S0` and the nonlinear right-hand side to
    /// zero for a fresh stamping pass.
    pub(super) fn begin(&mut self) {
        for r in 0..self.ports.len() {
            self.m.row_mut(r).copy_from_slice(self.s0.row(r));
        }
        self.b_nl.iter_mut().for_each(|v| *v = 0.0);
        self.stray = false;
    }

    /// Accumulates a nonlinear stamp at `(r, c)` into the port matrix.
    #[inline]
    pub(super) fn add(&mut self, r: usize, c: usize, v: f64) {
        match (self.port_of[r], self.port_of[c]) {
            (NONE, _) | (_, NONE) => self.stray = true,
            (pr, pc) => self.m.add_at(pr as usize, pc as usize, v),
        }
    }

    /// Accumulates a nonlinear right-hand-side entry on row `r`.
    #[inline]
    pub(super) fn rhs_add(&mut self, r: usize, v: f64) {
        match self.port_of[r] {
            NONE => self.stray = true,
            k => self.b_nl[k as usize] += v,
        }
    }

    /// Solves the stamped iteration `(S0 + G) x_p = r0 + b_nl`, then
    /// `x_i = y − W x_p`, writing every unknown of `x`.
    ///
    /// # Errors
    ///
    /// [`PortFallback::StrayWrite`] after a stamp outside the port block;
    /// [`PortFallback::SingularPorts`] for a singular port matrix or a
    /// non-finite solution.
    pub(super) fn solve(&mut self, x: &mut [f64]) -> Result<(), PortFallback> {
        if self.stray {
            return Err(PortFallback::StrayWrite);
        }
        let p = self.ports.len();
        if p == 0 {
            for (&i, &y) in self.interior.iter().zip(&self.y) {
                x[i] = y;
            }
        } else {
            for ((r, r0), b) in self.r.iter_mut().zip(&self.r0).zip(&self.b_nl) {
                *r = r0 + b;
            }
            self.m_lu
                .refactor(&self.m)
                .and_then(|()| self.m_lu.solve_into(&self.r, &mut self.xp))
                .map_err(|_| PortFallback::SingularPorts)?;
            for (&v, &i) in self.xp.iter().zip(&self.ports) {
                x[i] = v;
            }
            let rows = self.w.chunks_exact(p);
            for ((&i, &y), w) in self.interior.iter().zip(&self.y).zip(rows) {
                let mut s = y;
                for (wk, xk) in w.iter().zip(&self.xp) {
                    s -= wk * xk;
                }
                x[i] = s;
            }
        }
        if x.iter().all(|v| v.is_finite()) {
            Ok(())
        } else {
            Err(PortFallback::SingularPorts)
        }
    }
}
