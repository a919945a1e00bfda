//! `sysid` — system-identification toolkit for port macromodeling.
//!
//! Implements the estimation machinery referenced by Stievano et al.
//! (DATE 2002):
//!
//! * [`arx`] — linear AutoRegressive models with eXtra input, estimated by
//!   least squares (Ljung, *System Identification*, 1987);
//! * [`rbf`] — Gaussian radial-basis-function networks with an analytic
//!   input gradient (Sjöberg et al., *Automatica* 1995);
//! * [`ols`] — orthogonal-least-squares forward center selection
//!   (Chen, Cowan & Grant, IEEE TNN 1991);
//! * [`narx`] — nonlinear ARX models: an RBF network over lagged inputs and
//!   outputs, with one-step and free-run simulation;
//! * [`lanes`] — lane-major history rings, so several instances of one
//!   model step together;
//! * [`jury`] — the Jury (Schur–Cohn) stability criterion: exact unit-circle
//!   root containment by pure arithmetic, used by the static lint rules;
//! * [`signals`] — identification signal generators (multilevel staircases,
//!   step trains, trapezoids);
//! * [`metrics`] — fit metrics used to select model orders.
//!
//! Each model type is also its own runtime: the structures that fitting
//! produces are the ones circuit simulation steps. An [`rbf::RbfNetwork`]
//! keeps its centers in one row-major slab with the Gaussian scales
//! precomputed, and its scalar and lane-batched kernels allocate nothing
//! and agree bit for bit. [`narx::NarxModel::step_lanes`] and
//! [`arx::ArxModel::step_lanes`] advance many lanes over [`lanes::LaneRing`]
//! histories.
//!
//! # Example: identify a linear system with ARX
//!
//! ```
//! use sysid::arx::{ArxModel, ArxOrders};
//!
//! # fn main() -> Result<(), sysid::Error> {
//! // y(k) = 0.5 y(k-1) + u(k)
//! let u: Vec<f64> = (0..200).map(|k| ((k as f64) * 0.7).sin()).collect();
//! let mut y = vec![0.0];
//! for k in 1..u.len() {
//!     y.push(0.5 * y[k - 1] + u[k]);
//! }
//! let model = ArxModel::fit(&u, &y, ArxOrders { na: 1, nb: 0 })?;
//! assert!((model.a()[0] - 0.5).abs() < 1e-8);
//! assert!((model.b()[0] - 1.0).abs() < 1e-8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod arx;
pub mod jury;
pub mod lanes;
pub mod metrics;
pub mod narx;
pub mod ols;
pub mod rbf;
pub mod signals;

/// Errors produced by identification routines.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Not enough samples for the requested model structure.
    InsufficientData {
        /// Samples required.
        needed: usize,
        /// Samples available.
        got: usize,
    },
    /// Inconsistent input/output lengths.
    LengthMismatch {
        /// Description of the offending pair.
        message: String,
    },
    /// Invalid structural parameter (orders, center counts, widths...).
    InvalidStructure {
        /// Description of the violated constraint.
        message: String,
    },
    /// The underlying numerical routine failed.
    Numeric(numkit::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InsufficientData { needed, got } => {
                write!(
                    f,
                    "insufficient data: need at least {needed} samples, got {got}"
                )
            }
            Error::LengthMismatch { message } => write!(f, "length mismatch: {message}"),
            Error::InvalidStructure { message } => write!(f, "invalid structure: {message}"),
            Error::Numeric(e) => write!(f, "numeric error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<numkit::Error> for Error {
    fn from(e: numkit::Error) -> Self {
        Error::Numeric(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(Error::InsufficientData { needed: 10, got: 2 }
            .to_string()
            .contains("10"));
        assert!(Error::LengthMismatch {
            message: "u vs y".into()
        }
        .to_string()
        .contains("u vs y"));
        assert!(Error::InvalidStructure {
            message: "bad".into()
        }
        .to_string()
        .contains("bad"));
        let e: Error = numkit::Error::EmptyInput.into();
        assert!(e.to_string().contains("numeric"));
    }
}
