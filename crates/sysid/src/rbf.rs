//! Gaussian radial-basis-function networks.
//!
//! The network is *augmented* with an affine tail and supports per-center
//! widths (multi-scale RBF):
//!
//! ```text
//! f(x) = w0 + w_lin · x + sum_i w_i exp(-||x - c_i||^2 / (2 sigma_i^2))
//! ```
//!
//! The affine part captures the dominant linear behaviour of port currents
//! (resistive/capacitive) so the Gaussian units only need to model the
//! residual nonlinearity; this follows common practice in nonlinear
//! black-box identification (Sjöberg et al., 1995) and keeps extrapolation
//! outside the training hull benign (the Gaussians vanish, leaving the
//! affine trend).

use crate::{Error, Result};

/// A trained Gaussian RBF network with affine augmentation.
#[derive(Debug, Clone, PartialEq)]
pub struct RbfNetwork {
    dim: usize,
    /// Gaussian centers, each of length `dim`.
    centers: Vec<Vec<f64>>,
    /// Per-center isotropic widths sigma_i.
    widths: Vec<f64>,
    /// Gaussian weights, parallel to `centers`.
    weights: Vec<f64>,
    /// Affine bias.
    bias: f64,
    /// Linear weights, length `dim`.
    linear: Vec<f64>,
}

impl RbfNetwork {
    /// Assembles a network from parts. This is the only way to build a
    /// non-trivial network, so every [`RbfNetwork`] in the program satisfies
    /// the invariants downstream consumers (the circuit devices and the
    /// model-exchange loader) rely on: parallel center/width/weight arrays,
    /// centers of the declared dimension, and finite parameters throughout.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidStructure`] on inconsistent dimensions, a
    /// non-positive width, or any non-finite parameter.
    pub fn from_parts(
        dim: usize,
        centers: Vec<Vec<f64>>,
        widths: Vec<f64>,
        weights: Vec<f64>,
        bias: f64,
        linear: Vec<f64>,
    ) -> Result<Self> {
        if linear.len() != dim {
            return Err(Error::InvalidStructure {
                message: format!("linear weights length {} != dim {dim}", linear.len()),
            });
        }
        if centers.len() != weights.len() || centers.len() != widths.len() {
            return Err(Error::InvalidStructure {
                message: format!(
                    "{} centers but {} weights and {} widths",
                    centers.len(),
                    weights.len(),
                    widths.len()
                ),
            });
        }
        if centers.iter().any(|c| c.len() != dim) {
            return Err(Error::InvalidStructure {
                message: "center dimension mismatch".into(),
            });
        }
        if widths.iter().any(|w| !(*w > 0.0 && w.is_finite())) {
            return Err(Error::InvalidStructure {
                message: "widths must be positive and finite".into(),
            });
        }
        if !bias.is_finite()
            || linear.iter().any(|v| !v.is_finite())
            || weights.iter().any(|v| !v.is_finite())
            || centers.iter().flatten().any(|v| !v.is_finite())
        {
            return Err(Error::InvalidStructure {
                message: "network parameters must be finite".into(),
            });
        }
        Ok(RbfNetwork {
            dim,
            centers,
            widths,
            weights,
            bias,
            linear,
        })
    }

    /// A purely affine network (no Gaussian units).
    ///
    /// # Panics
    ///
    /// Panics on non-finite coefficients — affine synthesis is a
    /// program-construction step, not a data path.
    pub fn affine(bias: f64, linear: Vec<f64>) -> Self {
        assert!(
            bias.is_finite() && linear.iter().all(|v| v.is_finite()),
            "affine network coefficients must be finite"
        );
        let dim = linear.len();
        RbfNetwork {
            dim,
            centers: Vec::new(),
            widths: Vec::new(),
            weights: Vec::new(),
            bias,
            linear,
        }
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of Gaussian units.
    pub fn n_centers(&self) -> usize {
        self.centers.len()
    }

    /// Per-center Gaussian widths.
    pub fn widths(&self) -> &[f64] {
        &self.widths
    }

    /// Gaussian centers (each of length [`RbfNetwork::dim`]).
    pub fn centers(&self) -> &[Vec<f64>] {
        &self.centers
    }

    /// Gaussian weights, parallel to [`RbfNetwork::centers`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Affine bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Linear (affine-tail) weights, length [`RbfNetwork::dim`].
    pub fn linear(&self) -> &[f64] {
        &self.linear
    }

    /// Gaussian activation of unit `i` at input `x`.
    ///
    /// The exponent is formed as `d2 * (-1 / (2 sigma^2))` — multiply by a
    /// reciprocal rather than divide — so the flat compiled runtime
    /// ([`crate::flat::FlatRbf`]), which precomputes that reciprocal once per
    /// center, reproduces this value bit-for-bit.
    #[inline]
    fn phi(&self, i: usize, x: &[f64]) -> f64 {
        let c = &self.centers[i];
        let w = self.widths[i];
        let k = -1.0 / (2.0 * w * w);
        let mut d2 = 0.0;
        for (xj, cj) in x.iter().zip(c) {
            let d = xj - cj;
            d2 += d * d;
        }
        (d2 * k).exp()
    }

    /// Evaluates the network at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim` (programming error in the caller).
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim, "input dimension mismatch");
        let mut acc = self.bias;
        for (wj, xj) in self.linear.iter().zip(x) {
            acc += wj * xj;
        }
        for i in 0..self.centers.len() {
            acc += self.weights[i] * self.phi(i, x);
        }
        acc
    }

    /// Partial derivative of the output with respect to input component `j`
    /// at `x` (analytic; used for Newton Jacobians in circuit simulation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim` or `j >= dim`.
    pub fn grad_component(&self, x: &[f64], j: usize) -> f64 {
        assert_eq!(x.len(), self.dim, "input dimension mismatch");
        assert!(j < self.dim, "component out of range");
        let mut g = self.linear[j];
        for i in 0..self.centers.len() {
            let inv_s2 = 1.0 / (self.widths[i] * self.widths[i]);
            let phi = self.phi(i, x);
            g += self.weights[i] * phi * ((self.centers[i][j] - x[j]) * inv_s2);
        }
        g
    }

    /// Writes the full gradient at `x` into `out` without allocating.
    ///
    /// This is the form the circuit-coupled Newton solve uses per iteration;
    /// each Gaussian activation is evaluated once and scattered across all
    /// components, so the cost is one pass over the center slab instead of
    /// `dim` passes. Component values are identical (bit-for-bit) to
    /// [`RbfNetwork::grad_component`]: the per-component accumulation visits
    /// centers in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim` or `out.len() != dim`.
    pub fn grad_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.dim, "input dimension mismatch");
        assert_eq!(out.len(), self.dim, "output dimension mismatch");
        out.copy_from_slice(&self.linear);
        for i in 0..self.centers.len() {
            let inv_s2 = 1.0 / (self.widths[i] * self.widths[i]);
            let wphi = self.weights[i] * self.phi(i, x);
            for (oj, (cj, xj)) in out.iter_mut().zip(self.centers[i].iter().zip(x)) {
                *oj += wphi * ((cj - xj) * inv_s2);
            }
        }
    }

    /// Full gradient at `x` (thin allocating wrapper over
    /// [`RbfNetwork::grad_into`]).
    pub fn grad(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        self.grad_into(x, &mut out);
        out
    }
}

/// Shared-width heuristic: `scale` times the median distance between
/// distinct center pairs (falls back to 1.0 for degenerate sets).
pub fn width_heuristic(centers: &[Vec<f64>], scale: f64) -> f64 {
    if centers.len() < 2 {
        return 1.0;
    }
    let mut dists = Vec::new();
    // Cap the pair count to keep this O(1e4) even for large center pools.
    let stride = (centers.len() * centers.len() / 8192).max(1);
    let mut count = 0usize;
    'outer: for i in 0..centers.len() {
        for j in (i + 1)..centers.len() {
            count += 1;
            if !count.is_multiple_of(stride) {
                continue;
            }
            let d2: f64 = centers[i]
                .iter()
                .zip(&centers[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            if d2 > 0.0 {
                dists.push(d2.sqrt());
            }
            if dists.len() > 8192 {
                break 'outer;
            }
        }
    }
    if dists.is_empty() {
        return 1.0;
    }
    // Partial selection instead of a full sort: only the middle order
    // statistic matters, and `dists` is a throwaway buffer.
    let med = numkit::stats::median_inplace(&mut dists);
    (med * scale).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_net() -> RbfNetwork {
        RbfNetwork::from_parts(
            2,
            vec![vec![0.0, 0.0], vec![1.0, 1.0]],
            vec![0.5, 0.5],
            vec![2.0, -1.0],
            0.1,
            vec![0.3, -0.2],
        )
        .unwrap()
    }

    #[test]
    fn eval_at_center() {
        let net = simple_net();
        // At center 0: phi0 = 1, phi1 = exp(-2/(2*0.25)) = exp(-4).
        let expect = 0.1 + 0.0 + 2.0 * 1.0 - 1.0 * (-4.0_f64).exp();
        assert!((net.eval(&[0.0, 0.0]) - expect).abs() < 1e-12);
    }

    #[test]
    fn affine_network() {
        let net = RbfNetwork::affine(1.0, vec![2.0, 3.0]);
        assert_eq!(net.eval(&[1.0, 1.0]), 6.0);
        assert_eq!(net.grad(&[0.0, 0.0]), vec![2.0, 3.0]);
        assert_eq!(net.n_centers(), 0);
        assert_eq!(net.dim(), 2);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let net = simple_net();
        let h = 1e-6;
        for x in [[0.2, 0.7], [1.5, -0.3], [0.0, 0.0]] {
            for j in 0..2 {
                let mut xp = x;
                xp[j] += h;
                let fd = (net.eval(&xp) - net.eval(&x)) / h;
                let an = net.grad_component(&x, j);
                assert!((fd - an).abs() < 1e-5, "fd {fd} vs analytic {an}");
            }
        }
    }

    #[test]
    fn gaussians_vanish_far_away() {
        let net = simple_net();
        // Far from all centers the affine tail dominates.
        let x = [100.0, 100.0];
        let affine = 0.1 + 0.3 * 100.0 - 0.2 * 100.0;
        assert!((net.eval(&x) - affine).abs() < 1e-12);
    }

    #[test]
    fn from_parts_validation() {
        assert!(RbfNetwork::from_parts(2, vec![], vec![], vec![], 0.0, vec![0.0]).is_err());
        assert!(RbfNetwork::from_parts(
            1,
            vec![vec![0.0]],
            vec![1.0],
            vec![1.0, 2.0],
            0.0,
            vec![0.0]
        )
        .is_err());
        assert!(RbfNetwork::from_parts(
            2,
            vec![vec![0.0]],
            vec![1.0],
            vec![1.0],
            0.0,
            vec![0.0, 0.0]
        )
        .is_err());
        assert!(
            RbfNetwork::from_parts(1, vec![vec![0.0]], vec![0.0], vec![1.0], 0.0, vec![0.0])
                .is_err()
        );
        // Zero centers is fine (widths unused).
        assert!(RbfNetwork::from_parts(1, vec![], vec![], vec![], 0.0, vec![0.0]).is_ok());
        // Non-finite parameters are structural errors (the exchange loader
        // depends on this rejection).
        assert!(RbfNetwork::from_parts(1, vec![], vec![], vec![], f64::NAN, vec![0.0]).is_err());
        assert!(
            RbfNetwork::from_parts(1, vec![], vec![], vec![], 0.0, vec![f64::INFINITY]).is_err()
        );
        assert!(RbfNetwork::from_parts(
            1,
            vec![vec![f64::NAN]],
            vec![1.0],
            vec![1.0],
            0.0,
            vec![0.0]
        )
        .is_err());
        assert!(RbfNetwork::from_parts(
            1,
            vec![vec![0.0]],
            vec![1.0],
            vec![f64::NEG_INFINITY],
            0.0,
            vec![0.0]
        )
        .is_err());
    }

    #[test]
    fn accessors_expose_parts() {
        let net = simple_net();
        assert_eq!(net.centers().len(), 2);
        assert_eq!(net.weights(), &[2.0, -1.0]);
        assert_eq!(net.bias(), 0.1);
        assert_eq!(net.linear(), &[0.3, -0.2]);
        assert_eq!(net.widths(), &[0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn affine_rejects_non_finite() {
        RbfNetwork::affine(f64::NAN, vec![0.0]);
    }

    #[test]
    fn width_heuristic_values() {
        let centers = vec![vec![0.0], vec![1.0], vec![2.0]];
        let w = width_heuristic(&centers, 1.0);
        assert!((w - 1.0).abs() < 0.5, "median-based width {w}");
        assert_eq!(width_heuristic(&centers[..1], 1.0), 1.0);
        // Identical centers degenerate to the fallback.
        let same = vec![vec![1.0], vec![1.0]];
        assert_eq!(width_heuristic(&same, 1.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn eval_checks_dim() {
        simple_net().eval(&[0.0]);
    }

    #[test]
    fn width_heuristic_equals_sort_based_median() {
        // The selection-based quantile must reproduce the full-sort median
        // exactly. Recompute the capped pairwise-distance collection here
        // (same stride/cap logic) and compare against `stats::median`.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        };
        for n in [2usize, 3, 7, 40, 150] {
            let centers: Vec<Vec<f64>> = (0..n).map(|_| vec![next(), next(), next()]).collect();
            let stride = (n * n / 8192).max(1);
            let mut dists = Vec::new();
            let mut count = 0usize;
            'outer: for i in 0..n {
                for j in (i + 1)..n {
                    count += 1;
                    if !count.is_multiple_of(stride) {
                        continue;
                    }
                    let d2: f64 = centers[i]
                        .iter()
                        .zip(&centers[j])
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    if d2 > 0.0 {
                        dists.push(d2.sqrt());
                    }
                    if dists.len() > 8192 {
                        break 'outer;
                    }
                }
            }
            let expect = (numkit::stats::median(&dists) * 1.3).max(1e-12);
            let got = width_heuristic(&centers, 1.3);
            assert_eq!(got.to_bits(), expect.to_bits(), "n={n}");
        }
    }

    #[test]
    fn grad_into_matches_grad_components() {
        let net = simple_net();
        for x in [[0.2, 0.7], [1.5, -0.3], [0.0, 0.0], [-2.0, 4.0]] {
            let mut out = [0.0; 2];
            net.grad_into(&x, &mut out);
            let g = net.grad(&x);
            for j in 0..2 {
                let gc = net.grad_component(&x, j);
                assert_eq!(out[j].to_bits(), gc.to_bits());
                assert_eq!(g[j].to_bits(), gc.to_bits());
            }
        }
    }
}
