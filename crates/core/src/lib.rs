//! `macromodel` — behavioral macromodels of digital I/O ports.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Stievano, Chen, Becker, Canavero, Katopis, Maio, *"Macromodeling of
//! Digital I/O Ports for System EMC Assessment"*, DATE 2002):
//!
//! * [`driver`] — the **PW-RBF driver model** (paper eq. 1):
//!   `i(k) = w_H(k) i_H(k) + w_L(k) i_L(k)`, with RBF submodels for the
//!   High/Low logic states and switching weight sequences obtained by
//!   linear inversion on two identification loads;
//! * [`receiver`] — the **receiver parametric model** (paper eq. 2):
//!   `i(k) = i_lin(k) + i_up(k) + i_down(k)` (linear ARX + two RBF
//!   protection submodels), plus the simple **C–R̂ baseline**;
//! * [`device`] — implementations of [`circuit::Device`] that install the
//!   estimated discrete-time models into the circuit simulator (the paper's
//!   "SPICE implementation" step);
//! * [`evalrt`] — allocation-free, batched multi-lane stepping of the
//!   sampled models, shared through `Arc` (the hot path behind every
//!   device above);
//! * [`json`] — the one JSON writer and reader behind every report,
//!   daemon response and bench record;
//! * [`lint`] — the static diagnostic engine behind `mdl lint`: stable
//!   `M00x`/`C00x` codes covering model semantics (stability, center
//!   placement, I–V monotonicity, provenance) and circuit structure
//!   (structural rank, pattern consistency);
//! * [`pipeline`] — the estimation configs and stages: identification-signal
//!   synthesis, waveform capture, submodel training, weight inversion;
//! * [`session`] — [`ExtractionSession`], the one entry point that runs the
//!   pipeline on a transistor-level reference device;
//! * [`validate`] — reference-vs-model comparison on a [`TestFixture`] and
//!   the Section-5 accuracy metrics (threshold-crossing timing error).
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` at the workspace root, or:
//!
//! ```no_run
//! use macromodel::{AnyModel, ExtractionSession, PortStimulus, TestFixture};
//!
//! # fn main() -> Result<(), macromodel::Error> {
//! let estimated = ExtractionSession::for_driver(refdev::md1()).run()?;
//! if let AnyModel::PwRbfDriver(model) = estimated.model() {
//!     println!("{} centers in the high submodel", model.i_high.network().n_centers());
//! }
//! let check = estimated.validate_against_reference(
//!     &TestFixture::line_cap(50.0, 0.8e-9, 10e-12),
//!     Some(&PortStimulus::new("01", 4e-9)),
//!     12e-9,
//!     None,
//! )?;
//! println!("timing error: {:?} s", check.metrics.timing_error);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod driver;
pub mod evalrt;
pub mod exchange;
pub mod json;
pub mod lint;
pub mod macromodel;
pub mod modelstore;
pub mod pipeline;
pub mod receiver;
pub mod session;
pub mod validate;

pub use driver::PwRbfDriverModel;
pub use evalrt::{compile, CompiledModel, DriverLanes, EvalScratch, LaneStim, ReceiverLanes};
pub use exchange::binary::{
    load_artifact_bin, load_artifact_bin_from_path, save_artifact_bin, save_artifact_bin_to_path,
};
pub use exchange::{
    artifact_digest, content_digest, load_artifact, load_artifact_auto_from_path,
    load_artifact_bytes, load_artifact_from_path, load_model, load_model_from_path, save_artifact,
    save_artifact_to_path, save_model, save_model_to_path, AnyModel, Artifact, Provenance,
};
pub use lint::{lint_artifact, lint_model, lint_model_full, LintConfig, LintReport, Severity};
pub use macromodel::{Macromodel, ModelKind, PortStimulus, TestFixture};
pub use modelstore::{
    ArtifactFormat, EntryIndex, FileFingerprint, ModelStore, StoreEntry, StoreFailure, StoreRefresh,
};
pub use receiver::{CrModel, ReceiverModel};
pub use session::{EstimatedModel, ExtractionSession};

/// Errors produced by macromodel estimation and installation.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Estimation failed in a sub-step.
    Estimation {
        /// Which stage of the pipeline failed.
        stage: String,
        /// Human-readable cause.
        message: String,
    },
    /// Model structure inconsistency (orders, lengths, sample times).
    InvalidModel {
        /// Description of the violated constraint.
        message: String,
    },
    /// Underlying circuit simulation failure.
    Circuit(circuit::Error),
    /// Underlying identification failure.
    Sysid(sysid::Error),
    /// Underlying reference-device failure.
    Refdev(refdev::Error),
    /// Underlying numeric failure.
    Numeric(numkit::Error),
    /// Model-exchange (save/load) failure.
    Exchange(exchange::ExchangeError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Estimation { stage, message } => {
                write!(f, "estimation failed during {stage}: {message}")
            }
            Error::InvalidModel { message } => write!(f, "invalid model: {message}"),
            Error::Circuit(e) => write!(f, "circuit simulation failed: {e}"),
            Error::Sysid(e) => write!(f, "identification failed: {e}"),
            Error::Refdev(e) => write!(f, "reference device failed: {e}"),
            Error::Numeric(e) => write!(f, "numeric error: {e}"),
            Error::Exchange(e) => write!(f, "model exchange failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Circuit(e) => Some(e),
            Error::Sysid(e) => Some(e),
            Error::Refdev(e) => Some(e),
            Error::Numeric(e) => Some(e),
            Error::Exchange(e) => Some(e),
            _ => None,
        }
    }
}

impl From<circuit::Error> for Error {
    fn from(e: circuit::Error) -> Self {
        Error::Circuit(e)
    }
}

impl From<sysid::Error> for Error {
    fn from(e: sysid::Error) -> Self {
        Error::Sysid(e)
    }
}

impl From<refdev::Error> for Error {
    fn from(e: refdev::Error) -> Self {
        Error::Refdev(e)
    }
}

impl From<numkit::Error> for Error {
    fn from(e: numkit::Error) -> Self {
        Error::Numeric(e)
    }
}

impl From<exchange::ExchangeError> for Error {
    fn from(e: exchange::ExchangeError) -> Self {
        Error::Exchange(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_sources() {
        use std::error::Error as _;
        let e = Error::Estimation {
            stage: "weights".into(),
            message: "singular".into(),
        };
        assert!(e.to_string().contains("weights"));
        assert!(e.source().is_none());
        let e: Error = sysid::Error::InsufficientData { needed: 2, got: 1 }.into();
        assert!(e.source().is_some());
        let e: Error = refdev::Error::InvalidSpec {
            message: "x".into(),
        }
        .into();
        assert!(e.to_string().contains("reference"));
        let e: Error = circuit::Error::InvalidAnalysis {
            message: "x".into(),
        }
        .into();
        assert!(e.to_string().contains("circuit"));
        let e: Error = numkit::Error::EmptyInput.into();
        assert!(e.to_string().contains("numeric"));
        assert!(Error::InvalidModel {
            message: "m".into()
        }
        .to_string()
        .contains("m"));
    }
}
