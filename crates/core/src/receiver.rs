//! Receiver parametric model (paper equation 2) and the C–R̂ baseline.
//!
//! ```text
//! i(k) = i_lin(k) + i_up(k) + i_down(k)
//! ```
//!
//! `i_lin` is a linear ARX submodel capturing the (mostly capacitive)
//! behaviour inside the supply rails; `i_up`/`i_down` are RBF submodels
//! capturing the up/down protection circuits. The simple baseline — a shunt
//! capacitor plus a shunt nonlinear static resistor (the paper's "C–R̂
//! model") — belongs to the same class with the crudest possible submodels
//! and is implemented here as [`CrModel`] for the Fig. 5/6 comparisons.

use crate::{Error, Result};
use numkit::interp::Pwl;
use sysid::arx::ArxModel;
use sysid::narx::NarxModel;

/// A complete estimated receiver model.
#[derive(Debug, Clone)]
pub struct ReceiverModel {
    /// Source device name.
    pub name: String,
    /// Sample time (s).
    pub ts: f64,
    /// Supply voltage (V); informational.
    pub vdd: f64,
    /// Linear ARX submodel: port voltage → port current.
    pub linear: ArxModel,
    /// Up-protection RBF submodel (dominates above VDD).
    pub up: NarxModel,
    /// Down-protection RBF submodel (dominates below ground).
    pub down: NarxModel,
}

impl ReceiverModel {
    /// Validates internal consistency.
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
        if !self.linear.is_stable() {
            return Err(Error::InvalidModel {
                message: "linear ARX submodel is unstable".into(),
            });
        }
        Ok(())
    }

    /// Largest dynamic order across the three submodels (determines how
    /// much history the circuit device must keep).
    pub fn max_order(&self) -> usize {
        let lin = self.linear.orders().na.max(self.linear.orders().nb);
        let up = self.up.orders().start();
        let down = self.down.orders().start();
        lin.max(up).max(down)
    }

    /// Free-run simulation of the full model on a sampled voltage record:
    /// each submodel is fed the voltage and its own past outputs.
    pub fn simulate(&self, v: &[f64]) -> Vec<f64> {
        let i_lin = self.linear.simulate(v);
        let i_up = self.up.simulate(v, &[]);
        let i_dn = self.down.simulate(v, &[]);
        i_lin
            .iter()
            .zip(&i_up)
            .zip(&i_dn)
            .map(|((a, b), c)| a + b + c)
            .collect()
    }

    /// One-line structural summary (orders and basis-function counts).
    pub fn summary(&self) -> String {
        format!(
            "Receiver '{}': Ts = {:.3e} s, ARX({},{}), up {} centers (r={}), down {} centers (r={})",
            self.name,
            self.ts,
            self.linear.orders().na,
            self.linear.orders().nb,
            self.up.network().n_centers(),
            self.up.orders().input_lags,
            self.down.network().n_centers(),
            self.down.orders().input_lags,
        )
    }
}

/// The paper's simple baseline: a shunt capacitor `C` in parallel with a
/// static nonlinear resistor `i = R̂(v)` tabulated from a DC sweep.
#[derive(Debug, Clone)]
pub struct CrModel {
    /// Source device name.
    pub name: String,
    /// Shunt capacitance (F).
    pub c: f64,
    /// Static current–voltage characteristic of the nonlinear resistor:
    /// current *into* the port versus port voltage.
    pub static_iv: Pwl,
}

impl CrModel {
    /// Creates a C–R̂ model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidModel`] for non-positive capacitance.
    pub fn new(name: impl Into<String>, c: f64, static_iv: Pwl) -> Result<Self> {
        if c <= 0.0 || !c.is_finite() {
            return Err(Error::InvalidModel {
                message: format!("capacitance must be positive, got {c}"),
            });
        }
        Ok(CrModel {
            name: name.into(),
            c,
            static_iv,
        })
    }

    /// Sampled-time simulation `i(k) = C (v(k) - v(k-1)) / ts + R̂(v(k))`.
    pub fn simulate(&self, v: &[f64], ts: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(v.len());
        for k in 0..v.len() {
            let dv = if k == 0 { 0.0 } else { v[k] - v[k - 1] };
            out.push(self.c * dv / ts + self.static_iv.eval(v[k]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysid::arx::ArxOrders;
    use sysid::narx::NarxOrders;
    use sysid::rbf::RbfNetwork;

    fn dummy_receiver() -> ReceiverModel {
        let linear =
            ArxModel::from_coefficients(ArxOrders { na: 1, nb: 1 }, vec![0.5], vec![0.1, -0.1])
                .unwrap();
        let up = NarxModel::from_network(
            NarxOrders::dynamic(1),
            RbfNetwork::affine(0.0, vec![0.0, 0.0, 0.0]),
        )
        .unwrap();
        let down = up.clone();
        ReceiverModel {
            name: "rx".into(),
            ts: 25e-12,
            vdd: 1.8,
            linear,
            up,
            down,
        }
    }

    #[test]
    fn receiver_validation() {
        let m = dummy_receiver();
        assert!(m.validate().is_ok());
        assert_eq!(m.max_order(), 1);
        assert!(m.summary().contains("ARX(1,1)"));
        let mut bad = dummy_receiver();
        bad.ts = -1.0;
        assert!(bad.validate().is_err());
        let mut bad = dummy_receiver();
        bad.linear =
            ArxModel::from_coefficients(ArxOrders { na: 1, nb: 0 }, vec![1.5], vec![1.0]).unwrap();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn receiver_validate_rejects_non_finite_vdd() {
        let mut bad = dummy_receiver();
        bad.vdd = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = dummy_receiver();
        bad.vdd = f64::NEG_INFINITY;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn receiver_simulate_adds_submodels() {
        let m = dummy_receiver();
        let v: Vec<f64> = (0..50).map(|k| (k as f64 * 0.2).sin()).collect();
        let i = m.simulate(&v);
        // With zero up/down submodels, the output equals the ARX free run.
        let lin = m.linear.simulate(&v);
        for (a, b) in i.iter().zip(&lin) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn cr_model_simulation() {
        let iv = Pwl::new(vec![-1.0, 0.0, 1.0], vec![-0.1, 0.0, 0.1]).unwrap();
        let m = CrModel::new("cr", 1e-12, iv).unwrap();
        let ts = 1e-10;
        // Ramp: constant dv/dt plus the static term.
        let v: Vec<f64> = (0..10).map(|k| 0.1 * k as f64).collect();
        let i = m.simulate(&v, ts);
        // k >= 1: i = C * 0.1/ts + 0.1 * 0.1 * k
        for (k, ik) in i.iter().enumerate().skip(1) {
            let expect = 1e-12 * 0.1 / ts + 0.01 * k as f64;
            assert!((ik - expect).abs() < 1e-12, "k={k}");
        }
        assert_eq!(i[0], 0.0);
    }

    #[test]
    fn cr_model_validation() {
        let iv = Pwl::new(vec![0.0, 1.0], vec![0.0, 1.0]).unwrap();
        assert!(CrModel::new("bad", 0.0, iv.clone()).is_err());
        assert!(CrModel::new("bad", f64::NAN, iv).is_err());
    }
}
