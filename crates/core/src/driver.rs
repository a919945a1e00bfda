//! The PW-RBF driver model (paper equation 1).
//!
//! ```text
//! i(k) = w_H(k) · i_H(k) + w_L(k) · i_L(k)
//! ```
//!
//! `i_H`/`i_L` are NARX-RBF submodels describing the port current while the
//! driver sits in the High/Low logic state; `w_H`/`w_L` are time-indexed
//! switching weights that blend the submodels during Up (low→high) and Down
//! (high→low) transitions. The weights are *not* assumed complementary —
//! they are estimated independently by inverting equation (1) on waveforms
//! recorded on two different identification loads (see
//! [`estimate_switching_weights`]).

use crate::evalrt::LaneStim;
use crate::{Error, Result};
use sysid::narx::NarxModel;

/// A time-indexed switching weight pair sampled at the model's `ts`.
///
/// The samples are private: a `WeightSequence` can only be built through
/// [`WeightSequence::new`], so every instance in the program satisfies the
/// invariants the model-exchange loader and the circuit devices rely on —
/// matching lengths, at least one sample, finite values.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightSequence {
    /// `w_H(k)` samples, starting at the logic edge.
    w_high: Vec<f64>,
    /// `w_L(k)` samples.
    w_low: Vec<f64>,
}

impl WeightSequence {
    /// Builds a weight sequence, enforcing the structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidModel`] when the sequences differ in length,
    /// are empty, or contain non-finite samples.
    pub fn new(w_high: Vec<f64>, w_low: Vec<f64>) -> Result<Self> {
        if w_high.len() != w_low.len() {
            return Err(Error::InvalidModel {
                message: format!(
                    "weight sequences differ in length: {} vs {}",
                    w_high.len(),
                    w_low.len()
                ),
            });
        }
        if w_high.is_empty() {
            return Err(Error::InvalidModel {
                message: "weight sequences must not be empty".into(),
            });
        }
        if w_high.iter().chain(&w_low).any(|w| !w.is_finite()) {
            return Err(Error::InvalidModel {
                message: "weight sequences must be finite".into(),
            });
        }
        Ok(WeightSequence { w_high, w_low })
    }

    /// `w_H(k)` samples, starting at the logic edge.
    pub fn w_high(&self) -> &[f64] {
        &self.w_high
    }

    /// `w_L(k)` samples.
    pub fn w_low(&self) -> &[f64] {
        &self.w_low
    }

    /// Number of samples in the transition window.
    pub fn len(&self) -> usize {
        self.w_high.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.w_high.is_empty()
    }

    /// Weight pair at sample offset `k` past the edge; clamps to the final
    /// value after the window.
    pub fn at(&self, k: usize) -> (f64, f64) {
        if self.w_high.is_empty() {
            return (0.0, 0.0);
        }
        let i = k.min(self.w_high.len() - 1);
        (self.w_high[i], self.w_low[i])
    }

    fn validate(&self) -> Result<()> {
        // `new` enforces these and the samples are private, so this is a
        // defensive re-check for `PwRbfDriverModel::validate`.
        if self.w_high.len() != self.w_low.len() {
            return Err(Error::InvalidModel {
                message: format!(
                    "weight sequences differ in length: {} vs {}",
                    self.w_high.len(),
                    self.w_low.len()
                ),
            });
        }
        if self.w_high.is_empty() {
            return Err(Error::InvalidModel {
                message: "weight sequences must not be empty".into(),
            });
        }
        if self
            .w_high
            .iter()
            .chain(&self.w_low)
            .any(|w| !w.is_finite())
        {
            return Err(Error::InvalidModel {
                message: "weight sequences must be finite".into(),
            });
        }
        Ok(())
    }
}

/// A complete estimated PW-RBF driver model.
#[derive(Debug, Clone)]
pub struct PwRbfDriverModel {
    /// Source device name.
    pub name: String,
    /// Sample time of the discrete-time model (s).
    pub ts: f64,
    /// Supply voltage of the modeled device (V); informational.
    pub vdd: f64,
    /// High-state submodel `i_H` (input: port voltage, output: delivered
    /// current).
    pub i_high: NarxModel,
    /// Low-state submodel `i_L`.
    pub i_low: NarxModel,
    /// Up-transition (low → high) switching weights.
    pub up: WeightSequence,
    /// Down-transition weights.
    pub down: WeightSequence,
}

impl PwRbfDriverModel {
    /// Validates internal consistency (lengths, sample time, orders).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidModel`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        if self.ts <= 0.0 || !self.ts.is_finite() {
            return Err(Error::InvalidModel {
                message: format!("sample time must be positive, got {}", self.ts),
            });
        }
        if !self.vdd.is_finite() {
            return Err(Error::InvalidModel {
                message: format!("supply voltage must be finite, got {}", self.vdd),
            });
        }
        self.up.validate()?;
        self.down.validate()?;
        Ok(())
    }

    /// Total number of Gaussian units across both submodels (model size
    /// metric reported in the paper's examples).
    pub fn total_basis_functions(&self) -> usize {
        self.i_high.network().n_centers() + self.i_low.network().n_centers()
    }

    /// Switching weights `(w_H, w_L)` of one stimulus at absolute time `t`:
    /// the transition window of the latest edge at or before `t` while it
    /// lasts, then the settled logic state.
    pub fn weights_at(&self, stim: &LaneStim, t: f64) -> (f64, f64) {
        // The edges are in time order, so those at or before `t` are a
        // prefix: a binary search, not a scan from the first edge on every
        // Newton iteration.
        let n = stim.edges.partition_point(|e| e.t <= t + 1e-18);
        let high = match stim.edges[..n].last() {
            Some(e) => {
                let k = ((t - e.t) / self.ts).round() as usize;
                let seq = if e.rising { &self.up } else { &self.down };
                if k < seq.len() {
                    return seq.at(k);
                }
                e.rising
            }
            None => stim.initial_high,
        };
        if high {
            (1.0, 0.0)
        } else {
            (0.0, 1.0)
        }
    }

    /// A one-line human summary: name, sample time, dynamic order, basis
    /// function counts and switching-window lengths. The exchange format
    /// (see [`crate::exchange`]) is the model's serialization.
    pub fn summary(&self) -> String {
        format!(
            "PW-RBF '{}': Ts = {:.3e} s, r = {}, {} + {} basis functions, \
             up window {} samples, down window {} samples",
            self.name,
            self.ts,
            self.i_high.orders().output_lags,
            self.i_high.network().n_centers(),
            self.i_low.network().n_centers(),
            self.up.len(),
            self.down.len()
        )
    }
}

/// Solves the two-load linear inversion of equation (1) for the switching
/// weights.
///
/// Inputs are, per load `a`/`b`, the submodel free-run current sequences
/// `i_h`, `i_l` (obtained by feeding the recorded port voltage into each
/// submodel) and the recorded port current `i_meas`, all aligned to the
/// logic edge and sampled at `ts`. `(start, end)` are the known steady
/// weight pairs before and after the transition, used to anchor endpoints
/// and to regularize samples where the two loads provide (nearly) collinear
/// information.
///
/// # Errors
///
/// Returns [`Error::InvalidModel`] on inconsistent sequence lengths.
pub fn estimate_switching_weights(
    i_h_a: &[f64],
    i_l_a: &[f64],
    i_meas_a: &[f64],
    i_h_b: &[f64],
    i_l_b: &[f64],
    i_meas_b: &[f64],
    (start, end): ((f64, f64), (f64, f64)),
) -> Result<WeightSequence> {
    let n = i_h_a.len();
    if [
        i_l_a.len(),
        i_meas_a.len(),
        i_h_b.len(),
        i_l_b.len(),
        i_meas_b.len(),
    ]
    .iter()
    .any(|&l| l != n)
    {
        return Err(Error::InvalidModel {
            message: "weight-inversion sequences differ in length".into(),
        });
    }
    if n == 0 {
        return Err(Error::InvalidModel {
            message: "weight-inversion sequences are empty".into(),
        });
    }
    let mut w_high = Vec::with_capacity(n);
    let mut w_low = Vec::with_capacity(n);
    let mut prev = start;
    for k in 0..n {
        let (a11, a12, b1) = (i_h_a[k], i_l_a[k], i_meas_a[k]);
        let (a21, a22, b2) = (i_h_b[k], i_l_b[k], i_meas_b[k]);
        let det = a11 * a22 - a12 * a21;
        let scale = a11.abs().max(a12.abs()).max(a21.abs()).max(a22.abs());
        let (wh, wl) = if scale > 0.0 && det.abs() > 1e-4 * scale * scale {
            let wh = (b1 * a22 - a12 * b2) / det;
            let wl = (a11 * b2 - b1 * a21) / det;
            // The physical weights live in [0, 1]; allow modest excursions
            // that the estimation data genuinely asks for.
            (wh.clamp(-0.25, 1.25), wl.clamp(-0.25, 1.25))
        } else {
            prev
        };
        prev = (wh, wl);
        w_high.push(wh);
        w_low.push(wl);
    }
    // Anchor the endpoints at the exact steady logic-state values.
    w_high[0] = start.0;
    w_low[0] = start.1;
    let last = n - 1;
    w_high[last] = end.0;
    w_low[last] = end.1;
    WeightSequence::new(w_high, w_low)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysid::narx::NarxOrders;
    use sysid::rbf::RbfNetwork;

    fn dummy_narx() -> NarxModel {
        NarxModel::from_network(
            NarxOrders::dynamic(1),
            RbfNetwork::affine(0.0, vec![0.01, 0.0, 0.0]),
        )
        .unwrap()
    }

    fn dummy_model() -> PwRbfDriverModel {
        PwRbfDriverModel {
            name: "test".into(),
            ts: 25e-12,
            vdd: 1.8,
            i_high: dummy_narx(),
            i_low: dummy_narx(),
            up: WeightSequence {
                w_high: vec![0.0, 0.5, 1.0],
                w_low: vec![1.0, 0.5, 0.0],
            },
            down: WeightSequence {
                w_high: vec![1.0, 0.5, 0.0],
                w_low: vec![0.0, 0.5, 1.0],
            },
        }
    }

    #[test]
    fn model_validation_and_accessors() {
        let m = dummy_model();
        assert!(m.validate().is_ok());
        assert_eq!(m.total_basis_functions(), 0);
        assert!(m.summary().contains("PW-RBF 'test'"));
        let mut bad = dummy_model();
        bad.ts = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = dummy_model();
        bad.up.w_low.pop();
        assert!(bad.validate().is_err());
        let mut bad = dummy_model();
        bad.down.w_high.clear();
        bad.down.w_low.clear();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_rejects_non_finite_fields() {
        // Regression for the `!(x > 0.0)` class of gap: NaN/Inf sneaking
        // through checks written as range comparisons.
        let mut bad = dummy_model();
        bad.vdd = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = dummy_model();
        bad.vdd = f64::INFINITY;
        assert!(bad.validate().is_err());
        // Field-assembled weight sequences with non-finite samples must be
        // caught by validate even though the constructor also rejects them.
        let mut bad = dummy_model();
        bad.up.w_high[0] = f64::NAN;
        assert!(bad.validate().is_err());
        assert!(WeightSequence::new(vec![f64::INFINITY], vec![0.0]).is_err());
    }

    #[test]
    fn weight_sequence_lookup() {
        let w = WeightSequence {
            w_high: vec![0.0, 0.4, 1.0],
            w_low: vec![1.0, 0.6, 0.0],
        };
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
        assert_eq!(w.at(0), (0.0, 1.0));
        assert_eq!(w.at(1), (0.4, 0.6));
        // Past the window: clamps to the final entry.
        assert_eq!(w.at(99), (1.0, 0.0));
    }

    /// Exact recovery: synthesize currents from known weights and invert.
    #[test]
    fn weight_inversion_exact_recovery() {
        let n = 40;
        // Known smooth weight trajectories.
        let wh_true: Vec<f64> = (0..n)
            .map(|k| (k as f64 / (n - 1) as f64).powi(2))
            .collect();
        let wl_true: Vec<f64> = wh_true.iter().map(|w| 1.0 - w).collect();
        // Two independent submodel current patterns per load.
        let i_h_a: Vec<f64> = (0..n)
            .map(|k| 0.02 + 0.01 * (k as f64 * 0.3).sin())
            .collect();
        let i_l_a: Vec<f64> = (0..n)
            .map(|k| -0.015 + 0.004 * (k as f64 * 0.21).cos())
            .collect();
        let i_h_b: Vec<f64> = (0..n)
            .map(|k| 0.03 - 0.008 * (k as f64 * 0.17).cos())
            .collect();
        let i_l_b: Vec<f64> = (0..n)
            .map(|k| -0.02 - 0.006 * (k as f64 * 0.4).sin())
            .collect();
        let meas_a: Vec<f64> = (0..n)
            .map(|k| wh_true[k] * i_h_a[k] + wl_true[k] * i_l_a[k])
            .collect();
        let meas_b: Vec<f64> = (0..n)
            .map(|k| wh_true[k] * i_h_b[k] + wl_true[k] * i_l_b[k])
            .collect();
        let w = estimate_switching_weights(
            &i_h_a,
            &i_l_a,
            &meas_a,
            &i_h_b,
            &i_l_b,
            &meas_b,
            ((0.0, 1.0), (1.0, 0.0)),
        )
        .unwrap();
        for k in 1..n - 1 {
            assert!(
                (w.w_high[k] - wh_true[k]).abs() < 1e-9,
                "k={k}: {} vs {}",
                w.w_high[k],
                wh_true[k]
            );
            assert!((w.w_low[k] - wl_true[k]).abs() < 1e-9);
        }
        // Anchors.
        assert_eq!(w.at(0), (0.0, 1.0));
        assert_eq!(w.at(n - 1), (1.0, 0.0));
    }

    /// Near-singular samples fall back to the previous estimate instead of
    /// blowing up.
    #[test]
    fn weight_inversion_handles_collinear_loads() {
        let n = 10;
        // Both loads see identical submodel currents: the 2x2 system is
        // singular everywhere.
        let i_h = vec![0.01; n];
        let i_l = vec![-0.01; n];
        let meas = vec![0.0; n];
        let w = estimate_switching_weights(
            &i_h,
            &i_l,
            &meas,
            &i_h,
            &i_l,
            &meas,
            ((0.0, 1.0), (1.0, 0.0)),
        )
        .unwrap();
        // Interior samples carry the start values; endpoints anchored.
        assert_eq!(w.at(1), (0.0, 1.0));
        assert_eq!(w.at(n - 1), (1.0, 0.0));
    }

    #[test]
    fn weight_inversion_validations() {
        let e = estimate_switching_weights(
            &[1.0],
            &[1.0, 2.0],
            &[0.0],
            &[1.0],
            &[1.0],
            &[0.0],
            ((0.0, 1.0), (1.0, 0.0)),
        );
        assert!(e.is_err());
        let e = estimate_switching_weights(&[], &[], &[], &[], &[], &[], ((0.0, 1.0), (1.0, 0.0)));
        assert!(e.is_err());
    }
}
