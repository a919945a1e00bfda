//! Linear ARX (AutoRegressive with eXtra input) models.
//!
//! The model structure is
//!
//! ```text
//! y(k) = sum_{i=1..na} a_i y(k-i) + sum_{j=0..nb} b_j u(k-j)
//! ```
//!
//! which is the receiver paper's linear submodel: the present output depends
//! on the present input sample `u(k)` (direct feed-through, essential for a
//! capacitive port current) plus `na` output lags and `nb` extra input lags.

use crate::lanes::LaneRing;
use crate::{Error, Result};
use numkit::{lstsq, Matrix};

/// ARX structural orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArxOrders {
    /// Number of output lags (`na >= 0`).
    pub na: usize,
    /// Number of *extra* input lags beyond the direct `u(k)` term
    /// (`nb >= 0`; the model always includes `b_0 u(k)`).
    pub nb: usize,
}

impl ArxOrders {
    /// The common symmetric choice used by the paper: `r` lags on both the
    /// input and the output.
    pub fn symmetric(r: usize) -> Self {
        ArxOrders { na: r, nb: r }
    }

    /// First sample index with a complete regressor.
    pub fn start(&self) -> usize {
        self.na.max(self.nb)
    }

    /// Number of model parameters.
    pub fn n_params(&self) -> usize {
        self.na + self.nb + 1
    }
}

/// Numerical diagnostics of an identification fit. Kept out of the
/// serialized model: they describe the estimation run, not the system.
#[derive(Debug, Clone, Copy)]
pub struct FitDiagnostics {
    /// Reciprocal condition estimate of the regression matrix (from the
    /// R diagonal of its QR factorization).
    pub r_cond: f64,
    /// Whether the condition-derived ridge fallback produced the estimate.
    /// Healthy excitation must leave this `false`; tests assert on it.
    pub ridge_fallback: bool,
    /// Root-mean-square one-step residual of the fit.
    pub rms: f64,
}

/// An estimated ARX model.
#[derive(Debug, Clone, PartialEq)]
pub struct ArxModel {
    orders: ArxOrders,
    /// Output-lag coefficients `a_1..a_na`.
    a: Vec<f64>,
    /// Input coefficients `b_0..b_nb` (`b_0` multiplies `u(k)`).
    b: Vec<f64>,
}

impl ArxModel {
    /// Builds a model directly from coefficients (for tests and synthesis).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidStructure`] if the coefficient counts do not
    /// match the orders.
    pub fn from_coefficients(orders: ArxOrders, a: Vec<f64>, b: Vec<f64>) -> Result<Self> {
        if a.len() != orders.na || b.len() != orders.nb + 1 {
            return Err(Error::InvalidStructure {
                message: format!(
                    "expected {} a-coefficients and {} b-coefficients, got {} and {}",
                    orders.na,
                    orders.nb + 1,
                    a.len(),
                    b.len()
                ),
            });
        }
        Ok(ArxModel { orders, a, b })
    }

    /// Estimates an ARX model from input/output data by least squares.
    ///
    /// # Errors
    ///
    /// * [`Error::LengthMismatch`] if `u` and `y` differ in length.
    /// * [`Error::InsufficientData`] if there are fewer usable rows than
    ///   parameters.
    pub fn fit(u: &[f64], y: &[f64], orders: ArxOrders) -> Result<Self> {
        Ok(Self::fit_with_diagnostics(u, y, orders)?.0)
    }

    /// [`ArxModel::fit`] returning the numerical diagnostics of the
    /// least-squares solve alongside the model, so identification harnesses
    /// can assert the ridge fallback never fires on healthy captures.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ArxModel::fit`].
    pub fn fit_with_diagnostics(
        u: &[f64],
        y: &[f64],
        orders: ArxOrders,
    ) -> Result<(Self, FitDiagnostics)> {
        if u.len() != y.len() {
            return Err(Error::LengthMismatch {
                message: format!("u has {} samples, y has {}", u.len(), y.len()),
            });
        }
        let start = orders.start();
        let n_rows = y.len().saturating_sub(start);
        let n_cols = orders.n_params();
        if n_rows < n_cols {
            return Err(Error::InsufficientData {
                needed: start + n_cols,
                got: y.len(),
            });
        }
        let mut phi = Matrix::zeros(n_rows, n_cols);
        let mut rhs = Vec::with_capacity(n_rows);
        for (row, k) in (start..y.len()).enumerate() {
            let mut c = 0;
            for i in 1..=orders.na {
                phi.set(row, c, y[k - i]);
                c += 1;
            }
            for j in 0..=orders.nb {
                phi.set(row, c, u[k - j]);
                c += 1;
            }
            rhs.push(y[k]);
        }
        let fit = lstsq::robust_ls(&phi, &rhs)?;
        let a = fit.coeffs[..orders.na].to_vec();
        let b = fit.coeffs[orders.na..].to_vec();
        let diag = FitDiagnostics {
            r_cond: fit.r_cond,
            ridge_fallback: fit.ridge_fallback,
            rms: fit.rms(),
        };
        Ok((ArxModel { orders, a, b }, diag))
    }

    /// Structural orders.
    pub fn orders(&self) -> ArxOrders {
        self.orders
    }

    /// Output-lag coefficients `a_1..a_na`.
    pub fn a(&self) -> &[f64] {
        &self.a
    }

    /// Input coefficients `b_0..b_nb`.
    pub fn b(&self) -> &[f64] {
        &self.b
    }

    /// Direct feed-through coefficient `b_0 = ∂y(k)/∂u(k)`.
    pub fn feedthrough(&self) -> f64 {
        self.b[0]
    }

    /// One-step output given lag buffers ordered newest-first:
    /// `y_hist[0] = y(k-1)`, `u_hist[0] = u(k)`.
    ///
    /// # Panics
    ///
    /// Panics if the histories are shorter than the model orders.
    pub fn one_step(&self, u_hist: &[f64], y_hist: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (i, ai) in self.a.iter().enumerate() {
            acc += ai * y_hist[i];
        }
        for (j, bj) in self.b.iter().enumerate() {
            acc += bj * u_hist[j];
        }
        acc
    }

    /// One batched step: `out[l] = Σ a_i y(k-1-i) + b_0 u_now[l] + Σ b_j
    /// u(k-j)`, with the histories read from lane rings (`u_past` holds past
    /// inputs and `y_past` past outputs, newest first). The rings are not
    /// advanced: push the accepted step with [`LaneRing::push_row`].
    ///
    /// Each lane's result is bit-identical to [`ArxModel::one_step`] on the
    /// same histories: `a` taps are added before `b` taps, in index order.
    ///
    /// ```
    /// use sysid::arx::{ArxModel, ArxOrders};
    /// use sysid::lanes::LaneRing;
    ///
    /// let m = ArxModel::from_coefficients(ArxOrders { na: 1, nb: 1 }, vec![0.9], vec![1.0, -0.4])
    ///     .unwrap();
    /// let (u_past, y_past) = (LaneRing::new(1, 1), LaneRing::new(1, 1));
    /// let mut out = [0.0];
    /// m.step_lanes(&[2.0], &u_past, &y_past, &mut out);
    /// assert_eq!(out[0], m.one_step(&[2.0, 0.0], &[0.0]));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on a lane-count mismatch or rings shallower than the orders.
    pub fn step_lanes(&self, u_now: &[f64], u_past: &LaneRing, y_past: &LaneRing, out: &mut [f64]) {
        let ArxOrders { na, nb } = self.orders;
        assert_eq!(out.len(), u_now.len(), "output lane count mismatch");
        assert!(na == 0 || y_past.lags() >= na, "y ring too shallow");
        assert!(nb == 0 || u_past.lags() >= nb, "u ring too shallow");
        out.fill(0.0);
        for (i, ai) in self.a.iter().enumerate() {
            for (o, yl) in out.iter_mut().zip(y_past.row(i)) {
                *o += ai * yl;
            }
        }
        let b0 = self.b[0];
        for (o, ul) in out.iter_mut().zip(u_now) {
            *o += b0 * ul;
        }
        for (j, bj) in self.b.iter().enumerate().skip(1) {
            for (o, ul) in out.iter_mut().zip(u_past.row(j - 1)) {
                *o += bj * ul;
            }
        }
    }

    /// Free-run simulation from zero initial conditions: feeds the model its
    /// own outputs. Returns a vector the same length as `u`.
    pub fn simulate(&self, u: &[f64]) -> Vec<f64> {
        let n = u.len();
        let mut y = vec![0.0; n];
        for k in 0..n {
            let mut acc = 0.0;
            for (i, ai) in self.a.iter().enumerate() {
                if k > i {
                    acc += ai * y[k - 1 - i];
                }
            }
            for (j, bj) in self.b.iter().enumerate() {
                if k >= j {
                    acc += bj * u[k - j];
                }
            }
            y[k] = acc;
        }
        y
    }

    /// Spectral radius of the autoregressive companion matrix (the largest
    /// pole magnitude), estimated by power iteration. Zero for `na == 0`.
    pub fn spectral_radius(&self) -> f64 {
        let na = self.orders.na;
        if na == 0 {
            return 0.0;
        }
        // Power iteration on the companion matrix of
        // z^na - a1 z^(na-1) - ... - a_na. For complex pole pairs the norm
        // ratio oscillates, so we track a smoothed estimate over the final
        // iterations.
        let mut v = vec![1.0 / (na as f64).sqrt(); na];
        let mut radius = 0.0;
        let mut acc = 0.0;
        let mut acc_n = 0;
        for it in 0..256 {
            let mut w = vec![0.0; na];
            // First row: a coefficients.
            w[0] = self.a.iter().zip(&v).map(|(ai, vi)| ai * vi).sum();
            w[1..na].copy_from_slice(&v[..na - 1]);
            let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm == 0.0 {
                return 0.0;
            }
            radius = norm;
            if it >= 192 {
                acc += norm;
                acc_n += 1;
            }
            for (vi, wi) in v.iter_mut().zip(&w) {
                *vi = wi / norm;
            }
        }
        if acc_n > 0 {
            acc / acc_n as f64
        } else {
            radius
        }
    }

    /// Whether the autoregressive part is (strictly) stable.
    pub fn is_stable(&self) -> bool {
        self.spectral_radius() < 1.0 + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(a: &[f64], b: &[f64], u: &[f64]) -> Vec<f64> {
        let model = ArxModel::from_coefficients(
            ArxOrders {
                na: a.len(),
                nb: b.len() - 1,
            },
            a.to_vec(),
            b.to_vec(),
        )
        .unwrap();
        model.simulate(u)
    }

    fn test_input(n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| (0.3 * k as f64).sin() + 0.5 * (0.11 * k as f64).cos())
            .collect()
    }

    #[test]
    fn orders_helpers() {
        let o = ArxOrders::symmetric(2);
        assert_eq!(o, ArxOrders { na: 2, nb: 2 });
        assert_eq!(o.start(), 2);
        assert_eq!(o.n_params(), 5);
    }

    #[test]
    fn fit_recovers_second_order_system() {
        let a = [1.2, -0.5];
        let b = [0.3, 0.2, 0.1];
        let u = test_input(400);
        let y = synth(&a, &b, &u);
        let m = ArxModel::fit(&u, &y, ArxOrders { na: 2, nb: 2 }).unwrap();
        for (est, truth) in m.a().iter().zip(&a) {
            assert!((est - truth).abs() < 1e-8, "{est} vs {truth}");
        }
        for (est, truth) in m.b().iter().zip(&b) {
            assert!((est - truth).abs() < 1e-8);
        }
        assert!((m.feedthrough() - 0.3).abs() < 1e-8);
        assert_eq!(m.orders().na, 2);
    }

    #[test]
    fn healthy_identification_never_takes_ridge_fallback() {
        // A persistently exciting input gives a well-conditioned regression;
        // the robust-LS ridge fallback must stay untouched and the reported
        // conditioning must be sane.
        let a = [1.2, -0.5];
        let b = [0.3, 0.2, 0.1];
        let u = test_input(400);
        let y = synth(&a, &b, &u);
        let (m, diag) = ArxModel::fit_with_diagnostics(&u, &y, ArxOrders { na: 2, nb: 2 }).unwrap();
        assert!(!diag.ridge_fallback, "healthy data hit the ridge fallback");
        assert!(diag.r_cond > 1e-8, "r_cond {} too small", diag.r_cond);
        assert!(diag.rms < 1e-10, "exact synthetic data must fit exactly");
        assert!((m.a()[0] - 1.2).abs() < 1e-8);
    }

    #[test]
    fn duplicated_regressor_surfaces_ridge_fallback() {
        // u(k) == y(k) duplication makes the regression rank deficient; the
        // fit must survive (ridge) and report that it did so.
        let u = test_input(200);
        let y = u.clone();
        let (_, diag) = ArxModel::fit_with_diagnostics(&u, &y, ArxOrders { na: 1, nb: 1 }).unwrap();
        assert!(diag.ridge_fallback, "rank-deficient fit must be flagged");
    }

    #[test]
    fn simulate_matches_one_step_on_true_system() {
        let a = vec![0.9];
        let b = vec![1.0, -0.4];
        let m = ArxModel::from_coefficients(ArxOrders { na: 1, nb: 1 }, a, b).unwrap();
        let u = test_input(50);
        let y = m.simulate(&u);
        // one_step with exact histories reproduces the simulation.
        for k in 2..u.len() {
            let pred = m.one_step(&[u[k], u[k - 1]], &[y[k - 1]]);
            assert!((pred - y[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn step_lanes_matches_one_step() {
        let m = ArxModel::from_coefficients(
            ArxOrders { na: 2, nb: 1 },
            vec![1.1, -0.4],
            vec![0.7, 0.2],
        )
        .unwrap();
        let mut u_past = LaneRing::new(1, 2);
        let mut y_past = LaneRing::new(2, 2);
        u_past.push_row(&[0.5, -0.1]);
        y_past.push_row(&[0.2, 0.0]);
        y_past.push_row(&[0.3, 0.9]); // newest
        let mut out = [0.0; 2];
        m.step_lanes(&[1.0, 2.0], &u_past, &y_past, &mut out);
        let lane0 = m.one_step(&[1.0, 0.5], &[0.3, 0.2]);
        let lane1 = m.one_step(&[2.0, -0.1], &[0.9, 0.0]);
        assert_eq!(out[0].to_bits(), lane0.to_bits());
        assert_eq!(out[1].to_bits(), lane1.to_bits());
    }

    #[test]
    fn fit_validations() {
        let u = vec![0.0; 10];
        let y = vec![0.0; 9];
        assert!(matches!(
            ArxModel::fit(&u, &y, ArxOrders::symmetric(1)),
            Err(Error::LengthMismatch { .. })
        ));
        let u = vec![0.0; 3];
        let y = vec![0.0; 3];
        assert!(matches!(
            ArxModel::fit(&u, &y, ArxOrders::symmetric(2)),
            Err(Error::InsufficientData { .. })
        ));
    }

    #[test]
    fn from_coefficients_validates() {
        assert!(
            ArxModel::from_coefficients(ArxOrders { na: 1, nb: 0 }, vec![], vec![1.0]).is_err()
        );
        assert!(ArxModel::from_coefficients(ArxOrders { na: 0, nb: 0 }, vec![], vec![1.0]).is_ok());
    }

    #[test]
    fn stability_check() {
        let stable =
            ArxModel::from_coefficients(ArxOrders { na: 1, nb: 0 }, vec![0.9], vec![1.0]).unwrap();
        assert!(stable.is_stable());
        let unstable =
            ArxModel::from_coefficients(ArxOrders { na: 1, nb: 0 }, vec![1.1], vec![1.0]).unwrap();
        assert!(!unstable.is_stable());
        let second = ArxModel::from_coefficients(
            ArxOrders { na: 2, nb: 0 },
            vec![1.2, -0.5], // poles inside the unit circle
            vec![1.0],
        )
        .unwrap();
        assert!(second.is_stable());
        let static_model =
            ArxModel::from_coefficients(ArxOrders { na: 0, nb: 0 }, vec![], vec![2.0]).unwrap();
        assert!(static_model.is_stable());
    }

    #[test]
    fn capacitor_like_behavior() {
        // Discrete derivative i = C (v(k) - v(k-1)) / Ts is an ARX model
        // with na = 0, nb = 1: the fit must recover the derivative weights.
        let c_over_ts = 3.0;
        let v = test_input(300);
        let i: Vec<f64> = v
            .iter()
            .enumerate()
            .map(|(k, &vk)| {
                if k == 0 {
                    0.0
                } else {
                    c_over_ts * (vk - v[k - 1])
                }
            })
            .collect();
        let m = ArxModel::fit(&v, &i[..], ArxOrders { na: 0, nb: 1 }).unwrap();
        assert!((m.b()[0] - c_over_ts).abs() < 1e-6);
        assert!((m.b()[1] + c_over_ts).abs() < 1e-6);
    }
}
