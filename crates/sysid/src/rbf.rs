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
///
/// The centers live in one row-major slab, and each unit's exponent scale
/// `-1/(2σ²)` and gradient factor `1/σ²` are computed once at construction,
/// so every evaluation — scalar or batched over lanes — walks contiguous
/// memory and allocates nothing.
///
/// ```
/// use sysid::rbf::RbfNetwork;
///
/// let net = RbfNetwork::from_parts(
///     1,
///     vec![vec![0.0], vec![1.0]],
///     vec![0.7, 0.4],
///     vec![2.0, -1.0],
///     0.1,
///     vec![0.3],
/// )
/// .unwrap();
/// let (value, slope) = net.eval_grad0(&[0.25]);
/// assert_eq!(value, net.eval(&[0.25]));
/// assert!(slope.is_finite());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RbfNetwork {
    dim: usize,
    /// Row-major center slab, `n_centers x dim`.
    centers: Vec<f64>,
    /// Per-center isotropic widths sigma_i.
    widths: Vec<f64>,
    /// Per-center Gaussian exponent scale `-1/(2σ²)`.
    kscale: Vec<f64>,
    /// Per-center `1/σ²` (gradient factor).
    inv_s2: Vec<f64>,
    /// Gaussian weights, one per center.
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
            centers: centers.concat(),
            kscale: widths.iter().map(|w| -1.0 / (2.0 * w * w)).collect(),
            inv_s2: widths.iter().map(|w| 1.0 / (w * w)).collect(),
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
        RbfNetwork {
            dim: linear.len(),
            centers: Vec::new(),
            widths: Vec::new(),
            kscale: Vec::new(),
            inv_s2: Vec::new(),
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
        self.weights.len()
    }

    /// Per-center Gaussian widths.
    pub fn widths(&self) -> &[f64] {
        &self.widths
    }

    /// Center of Gaussian unit `i` (length [`RbfNetwork::dim`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_centers`.
    #[inline]
    pub fn center(&self, i: usize) -> &[f64] {
        &self.centers[i * self.dim..(i + 1) * self.dim]
    }

    /// Gaussian centers in unit order (each of length [`RbfNetwork::dim`]).
    pub fn centers(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        (0..self.n_centers()).map(move |i| self.center(i))
    }

    /// Gaussian weights, one per center.
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

    /// Evaluates the network at `x`.
    ///
    /// Terms are added in a fixed order — bias, linear tail, then the
    /// Gaussian units in index order — and every other kernel of this type
    /// keeps that order per lane, so they all agree bit for bit.
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
        for i in 0..self.n_centers() {
            let mut d2 = 0.0;
            for (xj, cj) in x.iter().zip(self.center(i)) {
                let d = xj - cj;
                d2 += d * d;
            }
            acc += self.weights[i] * (d2 * self.kscale[i]).exp();
        }
        acc
    }

    /// Fused value and derivative with respect to `x[0]` in one pass over
    /// the centers: the pair every Newton stamp needs, since `x[0]` is the
    /// present port voltage of a NARX regressor.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim`.
    pub fn eval_grad0(&self, x: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), self.dim, "input dimension mismatch");
        let mut acc = self.bias;
        for (wj, xj) in self.linear.iter().zip(x) {
            acc += wj * xj;
        }
        let mut g = self.linear[0];
        let x0 = x[0];
        for i in 0..self.n_centers() {
            let c = self.center(i);
            let mut d2 = 0.0;
            for (xj, cj) in x.iter().zip(c) {
                let d = xj - cj;
                d2 += d * d;
            }
            let wphi = self.weights[i] * (d2 * self.kscale[i]).exp();
            acc += wphi;
            g += wphi * ((c[0] - x0) * self.inv_s2[i]);
        }
        (acc, g)
    }

    /// Batched fused value + `∂/∂x[0]` over `n_lanes` lanes.
    ///
    /// `x` is lane-major, `dim` rows of `n_lanes` values (`x[j*n_lanes + l]`
    /// is component `j` of lane `l`); `d2` is scratch of length `n_lanes`;
    /// `out_val`/`out_g0` receive per-lane value and derivative. Each lane's
    /// result is bit-identical to [`RbfNetwork::eval_grad0`] on that lane's
    /// regressor: the inner loops run over lanes, but per-lane accumulation
    /// order is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if any slice is shorter than required.
    pub fn eval_grad0_lanes(
        &self,
        x: &[f64],
        n_lanes: usize,
        d2: &mut [f64],
        out_val: &mut [f64],
        out_g0: &mut [f64],
    ) {
        assert!(x.len() >= self.dim * n_lanes, "lane regressor too short");
        assert!(
            d2.len() >= n_lanes && out_val.len() >= n_lanes && out_g0.len() >= n_lanes,
            "lane output buffers too short"
        );
        // A single lane's lane-major regressor IS a contiguous scalar
        // regressor; the scalar kernel keeps its accumulators in registers
        // instead of round-tripping per-center sums through the staging
        // rows, which is several times faster at this width (and
        // bit-identical — same terms, same order).
        if n_lanes == 1 {
            let (v, g) = self.eval_grad0(&x[..self.dim]);
            out_val[0] = v;
            out_g0[0] = g;
            return;
        }
        let d2 = &mut d2[..n_lanes];
        let out_val = &mut out_val[..n_lanes];
        let out_g0 = &mut out_g0[..n_lanes];
        self.affine_lanes(x, n_lanes, out_val);
        out_g0.fill(self.linear[0]);
        let x0 = &x[..n_lanes];
        for i in 0..self.n_centers() {
            let c = self.center(i);
            self.dist2_lanes(c, x, n_lanes, d2);
            let (wi, ki, inv, c0) = (self.weights[i], self.kscale[i], self.inv_s2[i], c[0]);
            for l in 0..n_lanes {
                let wphi = wi * (d2[l] * ki).exp();
                out_val[l] += wphi;
                out_g0[l] += wphi * ((c0 - x0[l]) * inv);
            }
        }
    }

    /// Batched value-only evaluation over `n_lanes` lanes (layout as in
    /// [`RbfNetwork::eval_grad0_lanes`]).
    ///
    /// # Panics
    ///
    /// Panics if any slice is shorter than required.
    pub fn eval_lanes(&self, x: &[f64], n_lanes: usize, d2: &mut [f64], out_val: &mut [f64]) {
        assert!(x.len() >= self.dim * n_lanes, "lane regressor too short");
        assert!(
            d2.len() >= n_lanes && out_val.len() >= n_lanes,
            "lane output buffers too short"
        );
        // Single lane: the scalar kernel (see eval_grad0_lanes).
        if n_lanes == 1 {
            out_val[0] = self.eval(&x[..self.dim]);
            return;
        }
        let d2 = &mut d2[..n_lanes];
        let out_val = &mut out_val[..n_lanes];
        self.affine_lanes(x, n_lanes, out_val);
        for i in 0..self.n_centers() {
            self.dist2_lanes(self.center(i), x, n_lanes, d2);
            let (wi, ki) = (self.weights[i], self.kscale[i]);
            for (o, dl) in out_val.iter_mut().zip(d2.iter()) {
                *o += wi * (dl * ki).exp();
            }
        }
    }

    /// Bias plus linear tail of every lane into `out`.
    #[inline]
    fn affine_lanes(&self, x: &[f64], n_lanes: usize, out: &mut [f64]) {
        out.fill(self.bias);
        for (j, wj) in self.linear.iter().enumerate() {
            let row = &x[j * n_lanes..(j + 1) * n_lanes];
            for (o, xl) in out.iter_mut().zip(row) {
                *o += wj * xl;
            }
        }
    }

    /// Squared distance of every lane's regressor to center `c` into `d2`.
    #[inline]
    fn dist2_lanes(&self, c: &[f64], x: &[f64], n_lanes: usize, d2: &mut [f64]) {
        d2.fill(0.0);
        for (j, cj) in c.iter().enumerate() {
            let row = &x[j * n_lanes..(j + 1) * n_lanes];
            for (dl, xl) in d2.iter_mut().zip(row) {
                let d = xl - cj;
                *dl += d * d;
            }
        }
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
        assert_eq!(net.eval_grad0(&[0.0, 0.0]), (1.0, 2.0));
        assert_eq!(net.n_centers(), 0);
        assert_eq!(net.dim(), 2);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let net = simple_net();
        let h = 1e-6;
        for x in [[0.2, 0.7], [1.5, -0.3], [0.0, 0.0]] {
            let fd = (net.eval(&[x[0] + h, x[1]]) - net.eval(&x)) / h;
            let (value, an) = net.eval_grad0(&x);
            assert_eq!(value.to_bits(), net.eval(&x).to_bits());
            assert!((fd - an).abs() < 1e-5, "fd {fd} vs analytic {an}");
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

    fn net_2d() -> RbfNetwork {
        RbfNetwork::from_parts(
            2,
            vec![vec![0.1, -0.4], vec![1.2, 0.8], vec![-0.7, 0.3]],
            vec![0.5, 0.9, 1.3],
            vec![2.0, -1.0, 0.4],
            0.1,
            vec![0.3, -0.2],
        )
        .unwrap()
    }

    /// The kernels against a Gaussian sum written out here from the public
    /// parameters, forming `-1/(2σ²)` per call as the network did before it
    /// precomputed the scales: bit-identical, not just close.
    #[test]
    fn kernels_match_reference_sum_bitwise() {
        let net = net_2d();
        assert_eq!(net.center(1), &[1.2, 0.8]);
        for x in [[0.0, 0.0], [0.3, -0.9], [2.0, 1.5], [-4.0, 0.2]] {
            let mut value = net.bias();
            for (wj, xj) in net.linear().iter().zip(&x) {
                value += wj * xj;
            }
            let mut g0 = net.linear()[0];
            for (i, c) in net.centers().enumerate() {
                let w = net.widths()[i];
                let d2 = (x[0] - c[0]) * (x[0] - c[0]) + (x[1] - c[1]) * (x[1] - c[1]);
                let wphi = net.weights()[i] * (d2 * (-1.0 / (2.0 * w * w))).exp();
                value += wphi;
                g0 += wphi * ((c[0] - x[0]) * (1.0 / (w * w)));
            }
            assert_eq!(net.eval(&x).to_bits(), value.to_bits());
            let (v, g) = net.eval_grad0(&x);
            assert_eq!(v.to_bits(), value.to_bits());
            assert_eq!(g.to_bits(), g0.to_bits());
        }
    }

    #[test]
    fn lanes_match_single_lane_bitwise() {
        let net = net_2d();
        // 5 lanes (deliberately not a power of two), lane-major regressor.
        let lanes = 5usize;
        let xs = [
            [0.0, 0.0],
            [0.3, -0.9],
            [2.0, 1.5],
            [-4.0, 0.2],
            [0.77, 0.13],
        ];
        let mut x = vec![0.0; 2 * lanes];
        for (l, xi) in xs.iter().enumerate() {
            x[l] = xi[0];
            x[lanes + l] = xi[1];
        }
        let mut d2 = vec![0.0; lanes];
        let mut val = vec![0.0; lanes];
        let mut g0 = vec![0.0; lanes];
        net.eval_grad0_lanes(&x, lanes, &mut d2, &mut val, &mut g0);
        for (l, xi) in xs.iter().enumerate() {
            let (v, g) = net.eval_grad0(xi);
            assert_eq!(val[l].to_bits(), v.to_bits(), "lane {l}");
            assert_eq!(g0[l].to_bits(), g.to_bits(), "lane {l}");
        }
        net.eval_lanes(&x, lanes, &mut d2, &mut val);
        for (l, xi) in xs.iter().enumerate() {
            assert_eq!(val[l].to_bits(), net.eval(xi).to_bits(), "lane {l}");
        }
    }
}
