//! `circuit` — a small SPICE-like transient circuit simulator.
//!
//! The simulator implements Modified Nodal Analysis (MNA) with per-timestep
//! Newton–Raphson iteration and trapezoidal companion models for reactive
//! elements. It supports the device set needed to reproduce the experiments
//! of Stievano et al., DATE 2002:
//!
//! * linear elements: [`devices::Resistor`], [`devices::Capacitor`],
//!   [`devices::Inductor`], [`devices::CoupledInductors`]
//! * sources: [`devices::VoltageSource`], [`devices::CurrentSource`] driven
//!   by [`devices::SourceWaveform`] (DC, trapezoidal pulse, PWL, bit pattern)
//! * nonlinear devices: [`devices::Diode`], [`devices::Mosfet`] (Level 1)
//! * distributed elements: [`devices::IdealLine`] (method of characteristics)
//!   and lossy coupled multiconductor lines via [`mtl`] ladder expansion
//! * user-defined behavioral elements through the public [`Device`] trait
//!   (used by the `macromodel` crate to install PW-RBF port models)
//!
//! # Quickstart: an RC low-pass step response
//!
//! ```
//! use circuit::{Circuit, GROUND, TranParams};
//! use circuit::devices::{Capacitor, Resistor, SourceWaveform, VoltageSource};
//!
//! # fn main() -> Result<(), circuit::Error> {
//! let mut ckt = Circuit::new();
//! let n_in = ckt.node("in");
//! let n_out = ckt.node("out");
//! ckt.add(VoltageSource::new("vin", n_in, GROUND, SourceWaveform::dc(1.0)));
//! ckt.add(Resistor::new("r1", n_in, n_out, 1e3));
//! ckt.add(Capacitor::new("c1", n_out, GROUND, 1e-9));
//! let result = ckt.transient(TranParams::new(1e-8, 5e-6))?;
//! let v_end = *result.voltage(n_out).values().last().unwrap();
//! assert!((v_end - 1.0).abs() < 1e-3); // fully charged after 5 tau
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod devices;
pub mod lint;
pub mod mna;
pub mod mtl;
pub mod netlist;
pub mod solver;
pub mod transient;
pub mod waveform;
pub mod workspace;

pub use mna::{EvalCtx, Mode};
pub use netlist::{Circuit, DeviceId, Node, GROUND};
pub use transient::{ProbedResult, TranParams, TranResult};
pub use waveform::Waveform;
pub use workspace::{PatternBuilder, SolveStats, StampWorkspace};

/// Errors produced by circuit construction and analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The Newton iteration failed to converge.
    NonConvergence {
        /// Analysis during which the failure happened.
        analysis: String,
        /// Simulation time of the failing step (seconds; 0 for DC).
        time: f64,
        /// Iterations attempted.
        iterations: usize,
    },
    /// The MNA matrix is singular (e.g. floating subcircuit without gmin).
    SingularMatrix {
        /// Analysis during which the failure happened.
        analysis: String,
    },
    /// A device parameter is out of its valid range.
    InvalidParameter {
        /// Device label.
        device: String,
        /// Description of the violated constraint.
        message: String,
    },
    /// Invalid analysis setup (non-positive timestep, empty circuit, ...).
    InvalidAnalysis {
        /// Description of the problem.
        message: String,
    },
    /// A transient step differs from the sample clock of a discrete-time
    /// device ([`Device::sample_clock`]).
    SampleClock {
        /// Device label.
        device: String,
        /// The analysis timestep (seconds).
        dt: f64,
        /// The device's sample time (seconds).
        ts: f64,
    },
    /// A numerical kernel error that could not be mapped to a more specific
    /// simulator error.
    Numeric(numkit::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::NonConvergence {
                analysis,
                time,
                iterations,
            } => write!(
                f,
                "newton iteration did not converge in {analysis} at t = {time:.4e} s after {iterations} iterations"
            ),
            Error::SingularMatrix { analysis } => {
                write!(f, "singular MNA matrix in {analysis} (floating node?)")
            }
            Error::InvalidParameter { device, message } => {
                write!(f, "invalid parameter on device '{device}': {message}")
            }
            Error::InvalidAnalysis { message } => write!(f, "invalid analysis: {message}"),
            Error::SampleClock { device, dt, ts } => write!(
                f,
                "device '{device}': transient dt = {dt:.3e} s must equal the model sample time Ts = {ts:.3e} s"
            ),
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

/// The device abstraction: anything that can stamp itself into the MNA
/// system. External crates implement this to add behavioral elements.
///
/// # Contract
///
/// * `register` declares every matrix position the device may ever write,
///   across all analysis modes. It is called once when a solver workspace is
///   built ([`Circuit::make_workspace`]); the positions become cached value
///   slots. Writing to an undeclared position still works — the pattern
///   grows dynamically — but costs an extra symbolic analysis.
/// * `stamp` must add the device's linearized contributions for the
///   candidate solution in `ctx` to the workspace. It is called once per
///   Newton iteration and must not mutate logical state (interior
///   mutability for iteration-local limiting caches is permitted).
/// * `is_nonlinear` states the linearity contract the transient relies on
///   to freeze linear devices' matrix values and stamp their right-hand
///   side once per step (see the method docs). It is read once, when the
///   device is added to a [`Circuit`].
/// * `stamp_rhs` stamps a linear device's right-hand side alone, where its
///   matrix values are already in place (see the method docs).
/// * `sample_clock` names the fixed step of a discrete-time device; a
///   transient at any other step fails with [`Error::SampleClock`].
/// * `init_state` is called once after the DC operating point with the DC
///   solution; `accept_step` after every accepted transient step.
/// * Devices requiring branch unknowns report the count via `num_branches`
///   and receive their first absolute unknown index via `set_branch_base`.
///
/// The `Any` supertrait allows typed access to installed devices through
/// [`Circuit::device_mut`] (e.g. updating a source value between sweep
/// points without rebuilding the netlist).
pub trait Device: std::any::Any {
    /// Human-readable instance label (used in error messages).
    fn label(&self) -> &str;

    /// Number of extra branch-current unknowns this device needs.
    fn num_branches(&self) -> usize {
        0
    }

    /// Receives the absolute index of the first branch unknown.
    fn set_branch_base(&mut self, base: usize) {
        let _ = base;
    }

    /// Whether the device is nonlinear. A device is *linear* iff both hold:
    ///
    /// * for a fixed mode and step `dt`, every matrix value its `stamp`
    ///   writes is independent of the candidate solution `x` and of the
    ///   time `t`;
    /// * at a fixed mode (`t` and `dt`) and accepted state (the history set
    ///   by `init_state` / `accept_step`), its right-hand side is
    ///   independent of `x`. It may depend on `t`, `dt` and that state
    ///   (sources, companion history).
    ///
    /// A transient freezes the linear devices' matrix into one
    /// factorization and stamps their right-hand side once per timestep,
    /// not once per Newton iteration. Every row and column a nonlinear
    /// device registers becomes a port, and nonlinear devices must write
    /// matrix values and right-hand-side entries only there (see
    /// [`workspace`]). Claiming linearity falsely gives wrong results;
    /// claiming nonlinearity falsely only costs speed.
    fn is_nonlinear(&self) -> bool {
        false
    }

    /// Declares the device's potential matrix positions (see the contract).
    fn register(&self, pb: &mut PatternBuilder) {
        let _ = pb;
    }

    /// Adds the device's linearized MNA contributions.
    fn stamp(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace);

    /// Adds only the right-hand side of [`Device::stamp`] at the same
    /// `ctx`: exactly the [`StampWorkspace::rhs_add`] calls `stamp` makes,
    /// in the same order and with bit-identical values, and no matrix
    /// writes. The solver calls it only on linear devices, and only where
    /// their matrix values are already in place: the full path's saved
    /// linear prefix, and each port-path step.
    ///
    /// The default calls `stamp`. The solver discards matrix writes at both
    /// call sites, so a device that does not override this stays correct;
    /// overriding it only saves the matrix arithmetic.
    fn stamp_rhs(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        self.stamp(ctx, ws);
    }

    /// The fixed sample time `Ts` (seconds) of a discrete-time device, which
    /// only a transient with `dt == Ts` (to a relative `1e-6`) may run;
    /// `None` (the default) for a device that accepts any step.
    fn sample_clock(&self) -> Option<f64> {
        None
    }

    /// Called once with the converged DC operating point.
    fn init_state(&mut self, ctx: &EvalCtx<'_>) {
        let _ = ctx;
    }

    /// Called with the converged solution after each accepted timestep.
    fn accept_step(&mut self, ctx: &EvalCtx<'_>) {
        let _ = ctx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = Error::NonConvergence {
            analysis: "tran".into(),
            time: 1e-9,
            iterations: 50,
        };
        assert!(e.to_string().contains("converge"));
        assert!(Error::SingularMatrix {
            analysis: "dc".into()
        }
        .to_string()
        .contains("singular"));
        assert!(Error::InvalidParameter {
            device: "r1".into(),
            message: "negative resistance".into()
        }
        .to_string()
        .contains("r1"));
        assert!(Error::InvalidAnalysis {
            message: "dt".into()
        }
        .to_string()
        .contains("dt"));
        assert!(Error::SampleClock {
            device: "drv".into(),
            dt: 5e-11,
            ts: 2.5e-11
        }
        .to_string()
        .contains("must equal the model sample time"));
        let ne: Error = numkit::Error::EmptyInput.into();
        assert!(ne.to_string().contains("numeric"));
        use std::error::Error as _;
        assert!(ne.source().is_some());
    }
}
