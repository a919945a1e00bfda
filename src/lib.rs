//! `emc-io-macromodel` — behavioral macromodels of digital I/O ports for
//! EMC / signal-integrity simulation.
//!
//! This is the umbrella crate of the workspace reproducing Stievano et al.,
//! *"Macromodeling of Digital I/O Ports for System EMC Assessment"*
//! (DATE 2002). It re-exports the member crates:
//!
//! * [`numkit`] — dense linear algebra, interpolation, statistics;
//! * [`circuit`] — the MNA transient circuit simulator;
//! * [`refdev`] — transistor-level reference drivers/receivers and the IBIS
//!   baseline;
//! * [`sysid`] — ARX / RBF / OLS identification machinery;
//! * [`macromodel`] — the PW-RBF driver and parametric receiver models;
//! * [`si`] — signal-integrity workloads: PRBS stimulus, eye-diagram
//!   analysis, channel topologies, and Monte-Carlo sweeps.
//!
//! # Quickstart
//!
//! ```no_run
//! use emc_io_macromodel::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Take a transistor-level reference device and estimate its
//! //    PW-RBF macromodel.
//! let estimated = ExtractionSession::for_driver(md1())
//!     .config(DriverEstimationConfig::default())
//!     .run()?;
//! // 2. Validate it against the reference on a transmission-line load.
//! let run = estimated.validate_against_reference(
//!     &TestFixture::line_cap(50.0, 0.8e-9, 10e-12),
//!     Some(&PortStimulus::new("01", 4e-9)),
//!     12e-9,
//!     None,
//! )?;
//! println!("timing error: {:?} s", run.metrics.timing_error);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use circuit;
pub use macromodel;
pub use numkit;
pub use refdev;
pub use si;
pub use sysid;

/// Commonly used items, one `use` away.
pub mod prelude {
    pub use circuit::devices::{
        Capacitor, CurrentSource, Diode, IdealLine, Inductor, Mosfet, Resistor, SourceWaveform,
        VoltageSource,
    };
    pub use circuit::{Circuit, TranParams, Waveform, GROUND};
    pub use macromodel::exchange::{
        load_artifact_bytes, load_artifact_from_path, save_artifact_as, save_artifact_bytes,
        Artifact, ArtifactFormat, Provenance,
    };
    pub use macromodel::modelstore::ModelStore;
    pub use macromodel::pipeline::{DriverEstimationConfig, ReceiverEstimationConfig};
    pub use macromodel::validate::{validate_macromodel, ValidationMetrics};
    pub use macromodel::{
        AnyModel, CrModel, EstimatedModel, ExtractionSession, Macromodel, ModelKind, PortStimulus,
        PwRbfDriverModel, ReceiverModel, TestFixture,
    };
    pub use refdev::{md1, md2, md3, md4, IbisCorner, IbisModel};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links() {
        use crate::prelude::*;
        let _ = md1();
        let _ = md4();
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        ckt.add(Resistor::new("r", n, GROUND, 1.0));
    }
}
