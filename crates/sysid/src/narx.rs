//! Nonlinear ARX models: Gaussian RBF networks over lagged signals.
//!
//! A NARX model of dynamic order `r` computes
//!
//! ```text
//! y(k) = F( u(k), u(k-1), ..., u(k-r),  y(k-1), ..., y(k-r) )
//! ```
//!
//! with `F` a [`RbfNetwork`]. This is exactly the submodel structure of the
//! PW-RBF driver model (port current as a function of present + past port
//! voltages and past port currents) and of the receiver protection-circuit
//! submodels in Stievano et al. (DATE 2002).

use crate::lanes::LaneRing;
use crate::ols::{self, OlsStop};
use crate::rbf::{width_heuristic, RbfNetwork};
use crate::{Error, Result};
use numkit::{lstsq, Matrix};

/// Structural orders of a NARX model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NarxOrders {
    /// Number of *past* input samples (the present `u(k)` is always used).
    pub input_lags: usize,
    /// Number of past output samples.
    pub output_lags: usize,
}

impl NarxOrders {
    /// The paper's symmetric choice: dynamic order `r` on both signals.
    pub fn dynamic(r: usize) -> Self {
        NarxOrders {
            input_lags: r,
            output_lags: r,
        }
    }

    /// Regressor dimension.
    pub fn dim(&self) -> usize {
        self.input_lags + 1 + self.output_lags
    }

    /// First index with a complete regressor.
    pub fn start(&self) -> usize {
        self.input_lags.max(self.output_lags)
    }
}

/// Training configuration for [`NarxModel::fit`].
#[derive(Debug, Clone, Copy)]
pub struct RbfTrainConfig {
    /// Maximum number of Gaussian centers selected by OLS.
    pub max_centers: usize,
    /// Maximum number of candidate centers drawn from the training rows.
    pub candidate_pool: usize,
    /// Width heuristic scale (σ = scale × median candidate distance).
    pub width_scale: f64,
    /// OLS stopping tolerance on the unexplained energy fraction.
    pub ols_tolerance: f64,
}

impl Default for RbfTrainConfig {
    fn default() -> Self {
        RbfTrainConfig {
            max_centers: 15,
            candidate_pool: 160,
            width_scale: 1.0,
            ols_tolerance: 1e-7,
        }
    }
}

/// A trained NARX model.
#[derive(Debug, Clone, PartialEq)]
pub struct NarxModel {
    orders: NarxOrders,
    net: RbfNetwork,
}

impl NarxModel {
    /// Wraps an existing network (dimension must match the orders).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidStructure`] on dimension mismatch.
    pub fn from_network(orders: NarxOrders, net: RbfNetwork) -> Result<Self> {
        if net.dim() != orders.dim() {
            return Err(Error::InvalidStructure {
                message: format!(
                    "network dimension {} != regressor dimension {}",
                    net.dim(),
                    orders.dim()
                ),
            });
        }
        Ok(NarxModel { orders, net })
    }

    /// Structural orders.
    pub fn orders(&self) -> NarxOrders {
        self.orders
    }

    /// The underlying network.
    pub fn network(&self) -> &RbfNetwork {
        &self.net
    }

    /// Builds the regressor vector from newest-first histories:
    /// `u_hist[0] = u(k)`, `u_hist[1] = u(k-1)`, ...;
    /// `y_hist[0] = y(k-1)`, `y_hist[1] = y(k-2)`, ...
    ///
    /// # Panics
    ///
    /// Panics if the histories are shorter than the orders require.
    pub fn regressor(&self, u_hist: &[f64], y_hist: &[f64]) -> Vec<f64> {
        let o = self.orders;
        assert!(u_hist.len() > o.input_lags, "input history too short");
        assert!(y_hist.len() >= o.output_lags, "output history too short");
        let mut x = Vec::with_capacity(o.dim());
        x.extend_from_slice(&u_hist[..=o.input_lags]);
        x.extend_from_slice(&y_hist[..o.output_lags]);
        x
    }

    /// One-step prediction from newest-first histories (see
    /// [`NarxModel::regressor`] for the layout).
    pub fn one_step(&self, u_hist: &[f64], y_hist: &[f64]) -> f64 {
        self.net.eval(&self.regressor(u_hist, y_hist))
    }

    /// Gathers the lane-major regressor `[u(k); u(k-1)..; y(k-1)..]` of
    /// every lane into `x` (length ≥ `dim * n_lanes`): row 0 is `u_now`,
    /// then the past-input ring rows, then the past-output ring rows, each
    /// a contiguous copy. [`RbfNetwork::eval_lanes`] and
    /// [`NarxModel::step_lanes`] read it.
    ///
    /// # Panics
    ///
    /// Panics on lane-count mismatches or rings shallower than the orders.
    pub fn gather_lanes(&self, u_now: &[f64], u_past: &LaneRing, y_past: &LaneRing, x: &mut [f64]) {
        let o = self.orders;
        let n_lanes = u_now.len();
        assert!(x.len() >= o.dim() * n_lanes, "regressor buffer too short");
        assert!(
            o.input_lags == 0 || u_past.lags() >= o.input_lags,
            "u ring too shallow"
        );
        assert!(
            o.output_lags == 0 || y_past.lags() >= o.output_lags,
            "y ring too shallow"
        );
        x[..n_lanes].copy_from_slice(u_now);
        for j in 0..o.input_lags {
            x[(1 + j) * n_lanes..(2 + j) * n_lanes].copy_from_slice(u_past.row(j));
        }
        let base = o.input_lags + 1;
        for j in 0..o.output_lags {
            x[(base + j) * n_lanes..(base + j + 1) * n_lanes].copy_from_slice(y_past.row(j));
        }
    }

    /// Batched one-step value and `∂/∂u(k)` — the derivative a circuit
    /// solver needs for its Jacobian — over a regressor gathered by
    /// [`NarxModel::gather_lanes`]; see [`RbfNetwork::eval_grad0_lanes`].
    pub fn step_lanes(
        &self,
        x: &[f64],
        n_lanes: usize,
        d2: &mut [f64],
        out_val: &mut [f64],
        out_g0: &mut [f64],
    ) {
        self.net.eval_grad0_lanes(x, n_lanes, d2, out_val, out_g0);
    }

    /// Free-run simulation: the model is fed its own outputs. The first
    /// `orders.start()` outputs are copied from `y_init` (zeros if shorter).
    pub fn simulate(&self, u: &[f64], y_init: &[f64]) -> Vec<f64> {
        let o = self.orders;
        let start = o.start();
        let n = u.len();
        let mut y = vec![0.0; n];
        for (k, yk) in y.iter_mut().enumerate().take(start.min(n)) {
            *yk = y_init.get(k).copied().unwrap_or(0.0);
        }
        let mut x = vec![0.0; o.dim()];
        for k in start..n {
            for j in 0..=o.input_lags {
                x[j] = u[k - j];
            }
            for j in 0..o.output_lags {
                x[o.input_lags + 1 + j] = y[k - 1 - j];
            }
            y[k] = self.net.eval(&x);
        }
        y
    }

    /// Estimates a NARX model from data.
    ///
    /// Pipeline (following Chen–Cowan–Grant + affine augmentation):
    /// 1. build regressor rows;
    /// 2. fit the affine tail by least squares;
    /// 3. draw candidate centers from the rows (uniform stride subsample);
    /// 4. set the shared width by the median-distance heuristic;
    /// 5. OLS-select Gaussian units on the affine residual;
    /// 6. refit all weights (bias + linear + Gaussian) jointly.
    ///
    /// # Errors
    ///
    /// * [`Error::LengthMismatch`] if `u` and `y` differ in length.
    /// * [`Error::InsufficientData`] if too few rows are available.
    /// * [`Error::InvalidStructure`] for a degenerate configuration.
    pub fn fit(u: &[f64], y: &[f64], orders: NarxOrders, cfg: RbfTrainConfig) -> Result<Self> {
        if u.len() != y.len() {
            return Err(Error::LengthMismatch {
                message: format!("u has {} samples, y has {}", u.len(), y.len()),
            });
        }
        if cfg.max_centers == 0 || cfg.candidate_pool == 0 {
            return Err(Error::InvalidStructure {
                message: "max_centers and candidate_pool must be positive".into(),
            });
        }
        // `is_finite` also rejects NaN, which a `<= 0.0` check lets through.
        if !(cfg.width_scale.is_finite() && cfg.width_scale > 0.0) {
            return Err(Error::InvalidStructure {
                message: format!(
                    "width_scale must be finite and positive, got {}",
                    cfg.width_scale
                ),
            });
        }
        if !(cfg.ols_tolerance.is_finite() && cfg.ols_tolerance >= 0.0) {
            return Err(Error::InvalidStructure {
                message: format!(
                    "ols_tolerance must be finite and non-negative, got {}",
                    cfg.ols_tolerance
                ),
            });
        }
        let start = orders.start();
        let dim = orders.dim();
        let n_rows = y.len().saturating_sub(start);
        if n_rows < dim + 2 {
            return Err(Error::InsufficientData {
                needed: start + dim + 2,
                got: y.len(),
            });
        }

        // 1. Regressor rows and targets.
        let mut rows = Vec::with_capacity(n_rows);
        let mut targets = Vec::with_capacity(n_rows);
        for k in start..y.len() {
            let mut x = Vec::with_capacity(dim);
            for j in 0..=orders.input_lags {
                x.push(u[k - j]);
            }
            for j in 1..=orders.output_lags {
                x.push(y[k - j]);
            }
            rows.push(x);
            targets.push(y[k]);
        }

        // 2. Affine pre-fit.
        let mut a_aff = Matrix::zeros(n_rows, dim + 1);
        for (r, row) in rows.iter().enumerate() {
            a_aff.set(r, 0, 1.0);
            for (c, v) in row.iter().enumerate() {
                a_aff.set(r, c + 1, *v);
            }
        }
        let aff = lstsq::robust_ls(&a_aff, &targets)?;
        let resid: Vec<f64> = a_aff
            .matvec(&aff.coeffs)?
            .iter()
            .zip(&targets)
            .map(|(p, t)| t - p)
            .collect();

        // 3. Candidate centers: uniform stride over the rows, each offered
        // at several widths (multi-scale RBF). Sharp features such as diode
        // knees need narrow units while the broad trend wants wide ones;
        // OLS picks whichever scale reduces the residual most (`SCALES`).
        let stride = (n_rows / cfg.candidate_pool).max(1);
        let base_centers: Vec<Vec<f64>> = rows.iter().step_by(stride).cloned().collect();
        let base_width = width_heuristic(&base_centers, cfg.width_scale);

        // 4–5. OLS selection on the residual, over one column-major slab of
        // Gaussian candidates (`candidate_slab`): candidate `i` is base
        // center `i / 3` at width `base_width * SCALES[i % 3]`, and its
        // column is `slab[i * n_rows..(i + 1) * n_rows]`.
        let slab = candidate_slab(&rows, &base_centers, base_width);
        let sel = ols::select(
            &slab,
            n_rows,
            &resid,
            OlsStop {
                max_terms: cfg.max_centers,
                tolerance: cfg.ols_tolerance,
            },
        )?;
        let centers: Vec<Vec<f64>> = sel
            .selected
            .iter()
            .map(|&i| base_centers[i / SCALES.len()].clone())
            .collect();
        let widths: Vec<f64> = sel
            .selected
            .iter()
            .map(|&i| base_width * SCALES[i % SCALES.len()])
            .collect();

        // 6. Joint refit: [1 | x | phi_selected], the Gaussian columns read
        // straight from the slab.
        let n_cols = 1 + dim + centers.len();
        let mut a_full = Matrix::zeros(n_rows, n_cols);
        for (r, row) in rows.iter().enumerate() {
            a_full.set(r, 0, 1.0);
            for (c, v) in row.iter().enumerate() {
                a_full.set(r, c + 1, *v);
            }
        }
        for (c, &sel_idx) in sel.selected.iter().enumerate() {
            let col = &slab[sel_idx * n_rows..(sel_idx + 1) * n_rows];
            for (r, v) in col.iter().enumerate() {
                a_full.set(r, 1 + dim + c, *v);
            }
        }
        let full = lstsq::robust_ls(&a_full, &targets)?;
        let bias = full.coeffs[0];
        let linear = full.coeffs[1..=dim].to_vec();
        let weights = full.coeffs[dim + 1..].to_vec();
        let net = RbfNetwork::from_parts(dim, centers, widths, weights, bias, linear)?;
        Ok(NarxModel { orders, net })
    }
}

/// Width scales at which every base center is offered to OLS.
const SCALES: [f64; 3] = [1.0, 0.3, 0.1];

/// Gaussian responses of every (base center, width scale) candidate at
/// every regressor row, as one column-major slab: candidate
/// `i = b * SCALES.len() + s` (center `b` at width `base_width * SCALES[s]`)
/// occupies `slab[i * rows.len()..(i + 1) * rows.len()]`.
///
/// The squared distance is computed once per (row, center) and shared by
/// the three width scales, whose columns are written together. Far-field
/// responses (exponent beyond ~1e-20) skip the `exp` call and stay `+0.0`;
/// that is about half of each narrowest-scale column.
///
/// Each base center's block of columns is filled by one
/// [`numkit::par::map`] item writing into its own part of the one slab
/// allocated here, so the workers allocate nothing and every value is
/// computed exactly as a serial loop would compute it.
fn candidate_slab(rows: &[Vec<f64>], base_centers: &[Vec<f64>], base_width: f64) -> Vec<f64> {
    let n = rows.len();
    let mut slab = vec![0.0; base_centers.len() * SCALES.len() * n];
    let blocks: Vec<_> = base_centers
        .iter()
        .zip(slab.chunks_exact_mut(SCALES.len() * n))
        .collect();
    numkit::par::map(blocks, |(cand, block)| {
        for (r, row) in rows.iter().enumerate() {
            let d2: f64 = row.iter().zip(cand).map(|(a, b)| (a - b) * (a - b)).sum();
            for (si, s) in SCALES.iter().enumerate() {
                let w = base_width * s;
                let arg = d2 / (2.0 * w * w);
                if arg < 46.0 {
                    block[si * n + r] = (-arg).exp();
                }
            }
        }
    });
    slab
}

/// Fits models of dynamic order `1..=max_r` and returns the one with the
/// lowest free-run NMSE on `(u_val, y_val)` together with that NMSE.
///
/// This is the model-order selection step the paper attributes to Judd &
/// Mees (1995), implemented as validation-based structure selection.
///
/// # Errors
///
/// Propagates fitting errors; returns [`Error::InvalidStructure`] if
/// `max_r == 0`.
pub fn select_order(
    u_est: &[f64],
    y_est: &[f64],
    u_val: &[f64],
    y_val: &[f64],
    max_r: usize,
    cfg: RbfTrainConfig,
) -> Result<(NarxModel, f64)> {
    if max_r == 0 {
        return Err(Error::InvalidStructure {
            message: "max_r must be at least 1".into(),
        });
    }
    let mut best: Option<(NarxModel, f64)> = None;
    for r in 1..=max_r {
        let model = match NarxModel::fit(u_est, y_est, NarxOrders::dynamic(r), cfg) {
            Ok(m) => m,
            Err(Error::InsufficientData { .. }) => break,
            Err(e) => return Err(e),
        };
        let y_sim = model.simulate(u_val, y_val);
        let nmse = numkit::stats::nmse(&y_sim, y_val);
        if best.as_ref().is_none_or(|(_, b)| nmse < *b) {
            best = Some((model, nmse));
        }
    }
    best.ok_or(Error::InsufficientData {
        needed: 4,
        got: u_est.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A mildly nonlinear first-order system the model must capture.
    fn nonlinear_system(u: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; u.len()];
        for k in 1..u.len() {
            y[k] = 0.6 * y[k - 1] + u[k] + 0.3 * u[k].tanh() * u[k];
        }
        y
    }

    fn rich_input(n: usize, seed: f64) -> Vec<f64> {
        (0..n)
            .map(|k| {
                let t = k as f64;
                (0.21 * t + seed).sin() + 0.6 * (0.047 * t).cos() + 0.3 * (0.013 * t + 1.0).sin()
            })
            .collect()
    }

    #[test]
    fn orders_helpers() {
        let o = NarxOrders::dynamic(2);
        assert_eq!(o.dim(), 5);
        assert_eq!(o.start(), 2);
    }

    #[test]
    fn fit_and_free_run_accuracy() {
        let u = rich_input(600, 0.0);
        let y = nonlinear_system(&u);
        let model =
            NarxModel::fit(&u, &y, NarxOrders::dynamic(1), RbfTrainConfig::default()).unwrap();
        // Validate on a different input.
        let uv = rich_input(300, 2.0);
        let yv = nonlinear_system(&uv);
        let ys = model.simulate(&uv, &yv[..1]);
        let nmse = numkit::stats::nmse(&ys, &yv);
        assert!(nmse < 1e-2, "free-run NMSE {nmse}");
    }

    #[test]
    fn one_step_gradient_matches_fd() {
        let u = rich_input(400, 0.5);
        let y = nonlinear_system(&u);
        let model =
            NarxModel::fit(&u, &y, NarxOrders::dynamic(1), RbfTrainConfig::default()).unwrap();
        let u_hist = [0.4, -0.2];
        let y_hist = [0.1];
        let (f0, g) = model
            .network()
            .eval_grad0(&model.regressor(&u_hist, &y_hist));
        let h = 1e-6;
        let f1 = model.one_step(&[0.4 + h, -0.2], &y_hist);
        let fd = (f1 - f0) / h;
        assert!((fd - g).abs() < 1e-4, "fd {fd} vs analytic {g}");
    }

    #[test]
    fn regressor_layout() {
        let net = RbfNetwork::affine(0.0, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let model = NarxModel::from_network(NarxOrders::dynamic(2), net).unwrap();
        let x = model.regressor(&[10.0, 20.0, 30.0], &[40.0, 50.0]);
        assert_eq!(x, vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(model.orders().dim(), 5);
        assert_eq!(model.network().dim(), 5);
    }

    #[test]
    fn from_network_validates_dim() {
        let net = RbfNetwork::affine(0.0, vec![1.0]);
        assert!(NarxModel::from_network(NarxOrders::dynamic(1), net).is_err());
    }

    #[test]
    fn fit_validations() {
        let cfg = RbfTrainConfig::default();
        assert!(NarxModel::fit(&[0.0; 5], &[0.0; 4], NarxOrders::dynamic(1), cfg).is_err());
        assert!(NarxModel::fit(&[0.0; 3], &[0.0; 3], NarxOrders::dynamic(2), cfg).is_err());
        let bad = RbfTrainConfig {
            max_centers: 0,
            ..cfg
        };
        assert!(NarxModel::fit(&[0.0; 50], &[0.0; 50], NarxOrders::dynamic(1), bad).is_err());
    }

    /// A NaN width scale used to pass the `<= 0.0` check and train a model
    /// of 1e-12-wide units; NaN or negative OLS tolerances silently ran to
    /// `max_centers`. All are rejected before any work.
    #[test]
    fn fit_rejects_non_finite_or_negative_scales() {
        let u: Vec<f64> = (0..200).map(|k| (0.1 * k as f64).sin()).collect();
        let mut y = vec![0.0; u.len()];
        for k in 1..u.len() {
            y[k] = 0.5 * y[k - 1] + u[k];
        }
        let cfg = RbfTrainConfig::default();
        for bad in [
            RbfTrainConfig {
                width_scale: f64::NAN,
                ..cfg
            },
            RbfTrainConfig {
                width_scale: f64::INFINITY,
                ..cfg
            },
            RbfTrainConfig {
                ols_tolerance: f64::NAN,
                ..cfg
            },
            RbfTrainConfig {
                ols_tolerance: -1.0,
                ..cfg
            },
        ] {
            let e = NarxModel::fit(&u, &y, NarxOrders::dynamic(1), bad);
            assert!(
                matches!(e, Err(Error::InvalidStructure { .. })),
                "{bad:?} gave {e:?}"
            );
        }
        assert!(NarxModel::fit(&u, &y, NarxOrders::dynamic(1), cfg).is_ok());
    }

    /// Training series of `fit_golden_bits`: 899 rows, 180 base centers.
    fn golden_series() -> (Vec<f64>, Vec<f64>) {
        let u = rich_input(900, 0.3);
        let y = nonlinear_system(&u);
        (u, y)
    }

    /// Bits of every parameter of one default-config fit, recorded before
    /// the candidate slab and the four-wide OLS kernel replaced the dense
    /// row-major candidate matrix. Any change to candidate values, their
    /// order or the OLS arithmetic shows up here.
    #[test]
    fn fit_golden_bits() {
        let (u, y) = golden_series();
        let model =
            NarxModel::fit(&u, &y, NarxOrders::dynamic(1), RbfTrainConfig::default()).unwrap();
        let net = model.network();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(net.bias().to_bits(), 0x3fae20368256f34d);
        assert_eq!(
            bits(net.linear()),
            [0x3ff7c8c79e417626, 0xbfe8d3f4e6a0c408, 0x3fe8483c81382699]
        );
        assert_eq!(
            bits(net.weights()),
            [
                0xbfd29cb312602bd2,
                0x40013ed880c2e920,
                0xbfff5428fe4e5074,
                0x3fe0f20c30a3a945,
                0x3fd9f739cbc78d21,
                0x3f931c10d8fa10a0,
                0x3fbee832e74d1561,
                0xbfdb5ab2b46b252b,
                0xbf9438796477aa29,
                0x3fd2dc221ee04a6e,
                0xbfcdaaab927d03ba,
                0x3fd44335fe2517bd,
                0x3fcc8e5fff559ac9,
                0xbfba2c0da4b247fb,
                0x3fc996632c038fe8,
            ]
        );
        // Every selected unit is at scale 1.0 (`wide`) or 0.3 (`mid`).
        let wide = 0x3fe4e8459ca8e388;
        let mid = 0x3fcbe05cd0e12f60;
        assert_eq!(
            bits(net.widths()),
            [wide, wide, wide, mid, wide, mid, wide, wide, mid, wide, wide, wide, wide, mid, mid]
        );
        let centers: Vec<Vec<u64>> = net.centers().map(bits).collect();
        assert_eq!(
            centers,
            [
                [0xbfbc793cfd71933a, 0xbfd359d65d4bbd0a, 0xbff3b23a3830f768],
                [0xbff1baec8f2552b4, 0xbfedcea0e92b8b8d, 0xbff2fbd78c0e4cf3],
                [0xbff0709c45337633, 0xbfebd723a530fa2b, 0xbff3c1d63eb83a6f],
                [0x3ff57900c5ed4e5c, 0x3ff25e0ce149a3b0, 0x0000000000000000],
                [0xbffbe367d14f37ce, 0xbffbd928d8a1b709, 0xc006fc607c048f08],
                [0x3fc39b95035305c4, 0x3fd615a9ac1e9be8, 0x3ffe698ff86ed7d7],
                [0x3ff3429294898cbb, 0x3ff0104bea9e3702, 0x4000b781e8a26f5f],
                [0x3fcc90d1b8b9f6b6, 0x3fdbadeb048c3547, 0x4001e17b69aa47be],
                [0x3fe563c1f6980223, 0x3fec1153425a1b52, 0x400b0cf783dd60de],
                [0x3ff98752b73726a2, 0x3ff71c895426b507, 0x400d336a420adbb4],
                [0x3fec6148d94d13a2, 0x3ff12e5d39b23542, 0x400f09ec6bb0fc09],
                [0xbfd19e2a32971ddb, 0xbfdd373358d9e40e, 0xbff53d0c16ccb264],
                [0x3fd7cd9a4f83ef01, 0x3fe197e49de7cb7a, 0x40011db9401f2a62],
                [0xbfc0644e38632622, 0x3fac11a8056f50c8, 0x3ff18d622d1bdb17],
                [0x3ffd72e097b54f05, 0x3ffd258e0458c4b7, 0x40145ccd50a31ffa],
            ]
        );
    }

    /// FNV-1a over the bits of every parameter of `net`.
    fn network_digest(net: &RbfNetwork) -> u64 {
        let all = std::iter::once(net.bias())
            .chain(net.linear().iter().copied())
            .chain(net.weights().iter().copied())
            .chain(net.widths().iter().copied())
            .chain(net.centers().flatten().copied());
        all.fold(0xcbf2_9ce4_8422_2325, |h, x| {
            x.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// Bits of a fit as large as the md4 receiver's `up` fit (2,558 rows,
    /// 699 candidates), recorded before candidate building and the OLS
    /// dot products were split across workers: 2,599 rows and 780
    /// candidates, so both run on the parallel path.
    #[test]
    fn split_size_fit_golden_bits() {
        let u = rich_input(2600, 0.7);
        let y = nonlinear_system(&u);
        let cfg = RbfTrainConfig {
            candidate_pool: 240,
            ..RbfTrainConfig::default()
        };
        let stride = (u.len() - 1) / cfg.candidate_pool;
        assert_eq!((u.len() - 1).div_ceil(stride) * SCALES.len(), 780);
        let model = NarxModel::fit(&u, &y, NarxOrders::dynamic(1), cfg).unwrap();
        assert_eq!(model.network().n_centers(), 15);
        assert_eq!(network_digest(model.network()), 0x489e_3093_138a_6eff);
    }

    /// The golden fit exercises the far-field skip: its narrowest-scale
    /// candidate columns hold exact zeros, the wide ones none.
    #[test]
    fn golden_candidates_are_partly_sparse() {
        let (u, y) = golden_series();
        let rows: Vec<Vec<f64>> = (1..y.len())
            .map(|k| vec![u[k], u[k - 1], y[k - 1]])
            .collect();
        let stride = rows.len() / RbfTrainConfig::default().candidate_pool;
        let base: Vec<Vec<f64>> = rows.iter().step_by(stride).cloned().collect();
        let slab = candidate_slab(&rows, &base, width_heuristic(&base, 1.0));
        let zeros = |scale: usize| {
            slab.chunks_exact(rows.len())
                .skip(scale)
                .step_by(SCALES.len())
                .map(|col| col.iter().filter(|v| **v == 0.0).count())
                .sum::<usize>()
        };
        assert_eq!(zeros(0), 0);
        assert!(zeros(2) > slab.len() / SCALES.len() / 10, "{}", zeros(2));
    }

    #[test]
    fn gather_and_step_lanes() {
        let net = RbfNetwork::from_parts(
            3,
            vec![vec![0.2, -0.1, 0.5]],
            vec![0.8],
            vec![1.5],
            0.05,
            vec![1.0, -0.5, 0.25],
        )
        .unwrap();
        let m = NarxModel::from_network(NarxOrders::dynamic(1), net).unwrap();
        let mut u_past = LaneRing::new(1, 2);
        let mut y_past = LaneRing::new(1, 2);
        u_past.push_row(&[0.4, -0.6]);
        y_past.push_row(&[0.1, 0.7]);
        let mut x = vec![0.0; 3 * 2];
        m.gather_lanes(&[1.0, 2.0], &u_past, &y_past, &mut x);
        assert_eq!(x, vec![1.0, 2.0, 0.4, -0.6, 0.1, 0.7]);
        let (mut d2, mut v, mut g) = (vec![0.0; 2], vec![0.0; 2], vec![0.0; 2]);
        m.step_lanes(&x, 2, &mut d2, &mut v, &mut g);
        for (l, (u, y)) in [([1.0, 0.4], [0.1]), ([2.0, -0.6], [0.7])]
            .iter()
            .enumerate()
        {
            let (vl, gl) = m.network().eval_grad0(&m.regressor(u, y));
            assert_eq!(v[l].to_bits(), m.one_step(u, y).to_bits());
            assert_eq!(v[l].to_bits(), vl.to_bits());
            assert_eq!(g[l].to_bits(), gl.to_bits());
        }
    }

    #[test]
    fn select_order_prefers_adequate_order() {
        // Second-order linear system: order 2 should beat order 1 clearly.
        let u = rich_input(500, 0.0);
        let mut y = vec![0.0; u.len()];
        for k in 2..u.len() {
            y[k] = 1.1 * y[k - 1] - 0.4 * y[k - 2] + u[k] - 0.5 * u[k - 1];
        }
        let uv = rich_input(250, 3.0);
        let mut yv = vec![0.0; uv.len()];
        for k in 2..uv.len() {
            yv[k] = 1.1 * yv[k - 1] - 0.4 * yv[k - 2] + uv[k] - 0.5 * uv[k - 1];
        }
        let (model, nmse) = select_order(&u, &y, &uv, &yv, 3, RbfTrainConfig::default()).unwrap();
        assert!(
            model.orders().output_lags >= 2,
            "picked order {}",
            model.orders().output_lags
        );
        assert!(nmse < 1e-3, "NMSE {nmse}");
    }

    #[test]
    fn select_order_zero_rejected() {
        assert!(select_order(&[], &[], &[], &[], 0, RbfTrainConfig::default()).is_err());
    }
}
