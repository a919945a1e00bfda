//! The port-partitioned solve: the linear interior factored once, Newton on
//! the dense port Schur complement.
//!
//! Order the unknowns as interior `i` (touched only by linear devices) and
//! ports `p` (every row or column a nonlinear device registers). With a
//! fixed mode and step, the linear devices' matrix `A` is constant; the
//! nonlinear devices add a Jacobian `G` that lives entirely in the `p × p`
//! block:
//!
//! ```text
//! [ A_ii   A_ip     ] [x_i]   [b_i]
//! [ A_pi   A_pp + G ] [x_p] = [b_p]
//! ```
//!
//! Eliminating `x_i` leaves `(S0 + G) x_p = b_p − A_pi A_ii⁻¹ b_i` with the
//! constant Schur complement `S0 = A_pp − A_pi A_ii⁻¹ A_ip`. A [`PortSolver`]
//! factors `A_ii` once, forms `S0`, and then solves each Newton iteration
//! with one interior sweep, a dense `p × p` LU, and a second interior sweep
//! for `x_i = A_ii⁻¹ (b_i − A_ip x_p)`.

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

/// The frozen linear interior plus the per-iteration port system.
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
    /// `A_ip` as (interior row, port column, value).
    a_ip: Vec<(u32, u32, f64)>,
    s0: Matrix,
    /// `S0 + G` of the current iteration: reset to `S0` by
    /// [`PortSolver::begin`], then accumulated by nonlinear stamps.
    m: Matrix,
    /// Set when a nonlinear stamp lands outside the port block.
    stray: bool,
    bi: Vec<f64>,
    y: Vec<f64>,
    xi: Vec<f64>,
    r: Vec<f64>,
    scratch: Vec<f64>,
}

impl PortSolver {
    /// Partitions the assembled linear matrix (`pattern`, `values`) by
    /// `ports` (sorted, unique), factors the interior and forms `S0`.
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

        // S0 = A_pp − A_pi A_ii⁻¹ A_ip, one interior solve per port column.
        a_ip.sort_unstable_by_key(|&(j, k, _)| (k, j));
        let (mut e, mut col, mut scratch) = (vec![0.0; ni], vec![0.0; ni], vec![0.0; ni]);
        let mut start = 0;
        for k in 0..p {
            let end = start + a_ip[start..].partition_point(|&(_, pc, _)| pc as usize == k);
            if start == end {
                continue; // the port touches no interior unknown
            }
            e.iter_mut().for_each(|v| *v = 0.0);
            for &(j, _, v) in &a_ip[start..end] {
                e[j as usize] += v;
            }
            start = end;
            lu.solve_into(&e, &mut col, &mut scratch)
                .map_err(|_| PortFallback::SingularInterior)?;
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
            a_ip,
            m: s0.clone(),
            s0,
            stray: false,
            bi: vec![0.0; ni],
            y: vec![0.0; ni],
            xi: vec![0.0; ni],
            r: vec![0.0; p],
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

    /// Resets the port matrix to `S0` for a fresh stamping pass.
    pub(super) fn begin(&mut self) {
        for r in 0..self.ports.len() {
            self.m.row_mut(r).copy_from_slice(self.s0.row(r));
        }
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

    /// Solves the stamped iteration against the full right-hand side `rhs`,
    /// writing every unknown of `x`.
    ///
    /// # Errors
    ///
    /// [`PortFallback::StrayWrite`] after a stamp outside the port block;
    /// [`PortFallback::SingularPorts`] for a singular port matrix or a
    /// non-finite solution.
    pub(super) fn solve(&mut self, rhs: &[f64], x: &mut [f64]) -> Result<(), PortFallback> {
        if self.stray {
            return Err(PortFallback::StrayWrite);
        }
        let p = self.ports.len();
        for (b, &i) in self.bi.iter_mut().zip(&self.interior) {
            *b = rhs[i];
        }
        self.lu
            .solve_into(&self.bi, &mut self.y, &mut self.scratch)
            .map_err(|_| PortFallback::SingularPorts)?;
        if p == 0 {
            self.xi.copy_from_slice(&self.y);
        } else {
            for (r, &i) in self.r.iter_mut().zip(&self.ports) {
                *r = rhs[i];
            }
            for &(k, j, v) in &self.a_pi {
                self.r[k as usize] -= v * self.y[j as usize];
            }
            let xp = LuFactor::new(&self.m)
                .and_then(|lu| lu.solve(&self.r))
                .map_err(|_| PortFallback::SingularPorts)?;
            for &(j, k, v) in &self.a_ip {
                self.bi[j as usize] -= v * xp[k as usize];
            }
            self.lu
                .solve_into(&self.bi, &mut self.xi, &mut self.scratch)
                .map_err(|_| PortFallback::SingularPorts)?;
            for (&v, &i) in xp.iter().zip(&self.ports) {
                x[i] = v;
            }
        }
        for (&v, &i) in self.xi.iter().zip(&self.interior) {
            x[i] = v;
        }
        if x.iter().all(|v| v.is_finite()) {
            Ok(())
        } else {
            Err(PortFallback::SingularPorts)
        }
    }
}
