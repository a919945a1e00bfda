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

    /// One-step prediction plus the derivative with respect to the *present*
    /// input `u(k)` — the quantity a circuit solver needs for its Jacobian.
    pub fn one_step_with_gradient(&self, u_hist: &[f64], y_hist: &[f64]) -> (f64, f64) {
        let x = self.regressor(u_hist, y_hist);
        (self.net.eval(&x), self.net.grad_component(&x, 0))
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
        if cfg.max_centers == 0 || cfg.candidate_pool == 0 || cfg.width_scale <= 0.0 {
            return Err(Error::InvalidStructure {
                message: "max_centers, candidate_pool and width_scale must be positive".into(),
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
        // OLS picks whichever scale reduces the residual most.
        let stride = (n_rows / cfg.candidate_pool).max(1);
        let base_centers: Vec<Vec<f64>> = rows.iter().step_by(stride).cloned().collect();
        let base_width = width_heuristic(&base_centers, cfg.width_scale);
        const SCALES: [f64; 3] = [1.0, 0.3, 0.1];
        let mut candidates: Vec<(Vec<f64>, f64)> = Vec::with_capacity(base_centers.len() * 3);
        for c in &base_centers {
            for s in SCALES {
                candidates.push((c.clone(), base_width * s));
            }
        }

        // 4–5. OLS selection on the residual. The squared distance is
        // computed once per base center and shared by all width scales;
        // far-field responses (exponent beyond ~1e-20) skip the `exp` call
        // entirely — narrow scales zero out most of the matrix.
        let mut phi = Matrix::zeros(n_rows, candidates.len());
        for (r, row) in rows.iter().enumerate() {
            for (b, cand) in base_centers.iter().enumerate() {
                let d2: f64 = row.iter().zip(cand).map(|(a, b)| (a - b) * (a - b)).sum();
                for (si, s) in SCALES.iter().enumerate() {
                    let w = base_width * s;
                    let arg = d2 / (2.0 * w * w);
                    if arg < 46.0 {
                        phi.set(r, b * SCALES.len() + si, (-arg).exp());
                    }
                }
            }
        }
        let sel = ols::select(
            &phi,
            &resid,
            OlsStop {
                max_terms: cfg.max_centers,
                tolerance: cfg.ols_tolerance,
            },
        )?;
        let centers: Vec<Vec<f64>> = sel
            .selected
            .iter()
            .map(|&i| candidates[i].0.clone())
            .collect();
        let widths: Vec<f64> = sel.selected.iter().map(|&i| candidates[i].1).collect();

        // 6. Joint refit: [1 | x | phi_selected].
        let n_cols = 1 + dim + centers.len();
        let mut a_full = Matrix::zeros(n_rows, n_cols);
        for r in 0..n_rows {
            a_full.set(r, 0, 1.0);
            for c in 0..dim {
                a_full.set(r, c + 1, rows[r][c]);
            }
            for (c, &sel_idx) in sel.selected.iter().enumerate() {
                a_full.set(r, 1 + dim + c, phi.get(r, sel_idx));
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
        let (f0, g) = model.one_step_with_gradient(&u_hist, &y_hist);
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
