//! Builder-style extraction sessions: the one entry point of model
//! estimation, one reusable object per estimation campaign.
//!
//! A session answers the whole workflow — estimate, inspect, tweak a
//! hyperparameter, re-estimate, validate, save. [`DriverSession::config`]
//! and [`ReceiverSession::config`] take the whole estimation config, and
//! [`DriverSession::run`] rejects a bad one with [`crate::Error::InvalidModel`]
//! before any capture runs:
//!
//! ```no_run
//! use macromodel::pipeline::DriverEstimationConfig;
//! use macromodel::{ExtractionSession, PortStimulus, TestFixture};
//!
//! # fn main() -> Result<(), macromodel::Error> {
//! let cfg = DriverEstimationConfig {
//!     t_pre: 2e-9,
//!     t_window: 4e-9,
//!     ..Default::default()
//! };
//! let mut session = ExtractionSession::for_driver(refdev::md1()).config(cfg);
//! let estimated = session.run()?;
//! let check = estimated.validate_against_reference(
//!     &TestFixture::resistive(50.0),
//!     Some(&PortStimulus::new("010", 4e-9)),
//!     12e-9,
//!     None,
//! )?;
//! println!("rms {} V", check.metrics.rms_error);
//! estimated.save("md1.mdlx")?;
//!
//! // A fit-only change (here the OLS stop) reuses the captures.
//! let mut rbf = cfg.rbf;
//! rbf.ols_tolerance = 1e-6;
//! let mut session = session.config(DriverEstimationConfig { rbf, ..cfg });
//! let refit = session.run()?;
//! assert_eq!(session.capture_runs(), 1);
//! println!("{}", refit.summary());
//! # Ok(())
//! # }
//! ```
//!
//! Sessions separate the *capture* phase (transistor-level transients — the
//! expensive half, seconds of simulation) from the *fit* phase (RBF/ARX
//! training — milliseconds). The captured waveforms are cached inside the
//! session keyed by the capture-determining parameters, so re-running after
//! changing only fit parameters (orders, center budgets, OLS thresholds)
//! skips every circuit simulation. Within one capture pass the underlying
//! machinery already shares solver workspaces: DC sweeps build their
//! circuit once and warm-start each point from the previous solution, and
//! each transient holds a single factorization workspace for its whole run.

use crate::exchange::{
    config_digest, save_artifact_to_path, save_model_to_path, AnyModel, Artifact, Provenance,
};
use crate::macromodel::{Macromodel, PortStimulus, TestFixture};
use crate::pipeline::{
    check_driver_config, check_receiver_config, fit_cr_from_captures, fit_driver_from_captures,
    fit_receiver_from_captures, run_cr_captures, run_driver_captures, run_receiver_captures,
    CrCaptures, DriverCaptureKey, DriverCaptures, DriverEstimationConfig, ReceiverCaptureKey,
    ReceiverCaptures, ReceiverEstimationConfig, StateIdRecord,
};
use crate::validate::{validate_macromodel, DriverValidation, ReferencePort};
use crate::{Error, Result};
use refdev::ibis::IbisExtractConfig;
use refdev::{CmosDriverSpec, IbisModel, ReceiverSpec};
use std::path::Path;

/// Entry point of the builder API: picks the estimation target.
pub struct ExtractionSession;

impl ExtractionSession {
    /// Starts a PW-RBF driver extraction session.
    pub fn for_driver(spec: CmosDriverSpec) -> DriverSession {
        DriverSession {
            spec,
            cfg: DriverEstimationConfig::default(),
            cache: None,
            capture_runs: 0,
        }
    }

    /// Starts a receiver parametric-model extraction session.
    pub fn for_receiver(spec: ReceiverSpec) -> ReceiverSession {
        ReceiverSession {
            spec,
            cfg: ReceiverEstimationConfig::default(),
            cache: None,
            capture_runs: 0,
        }
    }

    /// Starts a C–R̂ baseline extraction session.
    pub fn for_cr_baseline(spec: ReceiverSpec) -> CrSession {
        CrSession {
            spec,
            ts: 25e-12,
            cache: None,
            capture_runs: 0,
        }
    }

    /// Starts an IBIS baseline extraction session.
    pub fn for_ibis(spec: CmosDriverSpec) -> IbisSession {
        IbisSession {
            spec,
            cfg: IbisExtractConfig::default(),
            cache: None,
        }
    }
}

/// An estimated model bound to the reference it came from: the handle a
/// session returns, ready to be validated, saved, or instantiated.
#[derive(Debug, Clone)]
pub struct EstimatedModel {
    model: AnyModel,
    reference: ReferencePort,
    records: Option<(StateIdRecord, StateIdRecord)>,
    provenance: Provenance,
}

/// Provenance stamp shared by every session: the extraction-config digest
/// plus the parameters that identify the estimation run.
fn session_provenance(cfg: &impl std::fmt::Debug, device: &str, kind: &str) -> Provenance {
    Provenance::new(config_digest(cfg))
        .with_param("device", device)
        .with_param("kind", kind)
}

impl EstimatedModel {
    /// The estimated artifact.
    pub fn model(&self) -> &AnyModel {
        &self.model
    }

    /// The artifact behind the unified trait.
    pub fn as_dyn(&self) -> &dyn Macromodel {
        self.model.as_dyn()
    }

    /// Unwraps the artifact.
    pub fn into_model(self) -> AnyModel {
        self.model
    }

    /// The transistor-level reference this model was estimated from.
    pub fn reference(&self) -> &ReferencePort {
        &self.reference
    }

    /// High/Low identification records (driver sessions only).
    pub fn records(&self) -> Option<(&StateIdRecord, &StateIdRecord)> {
        self.records.as_ref().map(|(h, l)| (h, l))
    }

    /// One-line structural summary of the artifact.
    pub fn summary(&self) -> String {
        self.model.summary()
    }

    /// Saves the artifact to a `.mdlx` file in the v1 single-model format.
    ///
    /// # Errors
    ///
    /// See [`save_model_to_path`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        save_model_to_path(&self.model, path)
    }

    /// Provenance of the estimation run: extraction-config digest, tool
    /// version, device and kind parameters.
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// Wraps the model into a v2 single-model bundle carrying the session's
    /// provenance.
    pub fn to_artifact(&self) -> Artifact {
        Artifact::bundle(vec![self.model.clone()], Some(self.provenance.clone()))
    }

    /// Saves the artifact as a provenance-stamped `mdlx 2` bundle.
    ///
    /// # Errors
    ///
    /// See [`crate::exchange::save_artifact_to_path`].
    pub fn save_v2(&self, path: impl AsRef<Path>) -> Result<()> {
        save_artifact_to_path(&self.to_artifact(), path)
    }

    /// Runs the transistor-level reference and the estimated model against
    /// the same fixture and compares pad voltages. `threshold` defaults to
    /// half the reference supply.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures from either run.
    pub fn validate_against_reference(
        &self,
        fixture: &TestFixture,
        stim: Option<&PortStimulus>,
        t_stop: f64,
        threshold: Option<f64>,
    ) -> Result<DriverValidation> {
        let threshold = threshold.unwrap_or(0.5 * self.reference.vdd());
        let dt = self
            .model
            .sample_time()
            .unwrap_or(crate::validate::DEFAULT_VALIDATION_DT);
        validate_macromodel(
            &self.reference,
            self.model.as_dyn(),
            fixture,
            stim,
            dt,
            t_stop,
            threshold,
        )
    }
}

/// Builder/session for PW-RBF driver extraction.
///
/// Setters are consuming (chainable); [`DriverSession::run`] borrows, so a
/// session can run repeatedly while its capture cache persists.
pub struct DriverSession {
    spec: CmosDriverSpec,
    cfg: DriverEstimationConfig,
    cache: Option<(DriverCaptureKey, DriverCaptures)>,
    capture_runs: usize,
}

impl DriverSession {
    /// Replaces the whole configuration.
    pub fn config(mut self, cfg: DriverEstimationConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Switching-capture windows: settling time before the edge and
    /// captured transition window after it (s).
    pub fn windows(mut self, t_pre: f64, t_window: f64) -> Self {
        self.cfg.t_pre = t_pre;
        self.cfg.t_window = t_window;
        self
    }

    /// Multilevel identification-signal shape.
    pub fn excitation(mut self, n_levels: usize, dwell: usize, edge_samples: usize) -> Self {
        self.cfg.n_levels = n_levels;
        self.cfg.dwell = dwell;
        self.cfg.edge_samples = edge_samples;
        self
    }

    /// Number of fresh capture passes performed so far (diagnostic: stays
    /// at 1 across re-runs that only change fit parameters).
    pub fn capture_runs(&self) -> usize {
        self.capture_runs
    }

    /// Runs (or re-runs) the estimation. Captures are reused whenever the
    /// capture-determining parameters are unchanged since the last run.
    ///
    /// # Errors
    ///
    /// Propagates configuration, simulation and identification failures.
    pub fn run(&mut self) -> Result<EstimatedModel> {
        check_driver_config(&self.cfg, self.spec.vdd)?;
        let key = DriverCaptureKey::of(&self.cfg);
        if !matches!(&self.cache, Some((k, _)) if *k == key) {
            let caps = run_driver_captures(&self.spec, &self.cfg)?;
            self.cache = Some((key, caps));
            self.capture_runs += 1;
        }
        let caps = &self.cache.as_ref().expect("captures just ensured").1;
        let (model, rec_h, rec_l) = fit_driver_from_captures(&self.spec, &self.cfg, caps)?;
        Ok(EstimatedModel {
            model: AnyModel::PwRbfDriver(model),
            reference: ReferencePort::Driver(self.spec.clone()),
            records: Some((rec_h, rec_l)),
            provenance: session_provenance(&self.cfg, self.spec.name, "pwrbf-driver"),
        })
    }
}

/// Builder/session for receiver parametric-model extraction.
pub struct ReceiverSession {
    spec: ReceiverSpec,
    cfg: ReceiverEstimationConfig,
    cache: Option<(ReceiverCaptureKey, ReceiverCaptures)>,
    capture_runs: usize,
}

impl ReceiverSession {
    /// Replaces the whole configuration.
    pub fn config(mut self, cfg: ReceiverEstimationConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Submodel orders: linear ARX, up-protection, down-protection.
    pub fn orders(mut self, r_lin: usize, r_up: usize, r_down: usize) -> Self {
        self.cfg.r_lin = r_lin;
        self.cfg.r_up = r_up;
        self.cfg.r_down = r_down;
        self
    }

    /// Multilevel identification-signal shape.
    pub fn excitation(mut self, n_levels: usize, dwell: usize, edge_samples: usize) -> Self {
        self.cfg.n_levels = n_levels;
        self.cfg.dwell = dwell;
        self.cfg.edge_samples = edge_samples;
        self
    }

    /// Number of fresh capture passes performed so far.
    pub fn capture_runs(&self) -> usize {
        self.capture_runs
    }

    /// Runs (or re-runs) the estimation, reusing captures when possible.
    ///
    /// # Errors
    ///
    /// Propagates configuration, simulation and identification failures.
    pub fn run(&mut self) -> Result<EstimatedModel> {
        check_receiver_config(&self.cfg, self.spec.vdd)?;
        let key = ReceiverCaptureKey::of(&self.cfg);
        if !matches!(&self.cache, Some((k, _)) if *k == key) {
            let caps = run_receiver_captures(&self.spec, &self.cfg)?;
            self.cache = Some((key, caps));
            self.capture_runs += 1;
        }
        let caps = &self.cache.as_ref().expect("captures just ensured").1;
        let model = fit_receiver_from_captures(&self.spec, &self.cfg, caps)?;
        Ok(EstimatedModel {
            model: AnyModel::Receiver(model),
            reference: ReferencePort::Receiver(self.spec.clone()),
            records: None,
            provenance: session_provenance(&self.cfg, self.spec.name, "receiver"),
        })
    }
}

/// Builder/session for the C–R̂ baseline.
pub struct CrSession {
    spec: ReceiverSpec,
    ts: f64,
    cache: Option<(f64, CrCaptures)>,
    capture_runs: usize,
}

impl CrSession {
    /// Sample time of the step capture the capacitance is fitted on (s).
    pub fn sample_time(mut self, ts: f64) -> Self {
        self.ts = ts;
        self
    }

    /// Number of fresh capture passes performed so far.
    pub fn capture_runs(&self) -> usize {
        self.capture_runs
    }

    /// Runs (or re-runs) the estimation, reusing captures when possible.
    ///
    /// # Errors
    ///
    /// Propagates configuration, simulation and fit failures.
    pub fn run(&mut self) -> Result<EstimatedModel> {
        if self.ts <= 0.0 || !self.ts.is_finite() {
            return Err(Error::InvalidModel {
                message: format!("sample time must be positive, got {}", self.ts),
            });
        }
        if !matches!(&self.cache, Some((t, _)) if *t == self.ts) {
            let caps = run_cr_captures(&self.spec, self.ts)?;
            self.cache = Some((self.ts, caps));
            self.capture_runs += 1;
        }
        let caps = &self.cache.as_ref().expect("captures just ensured").1;
        let model = fit_cr_from_captures(&self.spec, self.ts, caps)?;
        Ok(EstimatedModel {
            model: AnyModel::Cr(model),
            reference: ReferencePort::Receiver(self.spec.clone()),
            records: None,
            provenance: session_provenance(&self.ts, self.spec.name, "cr-baseline"),
        })
    }
}

/// Builder/session for the IBIS comparison baseline.
pub struct IbisSession {
    spec: CmosDriverSpec,
    cfg: IbisExtractConfig,
    /// IBIS extraction has no cheap fit phase to re-run, so the cache holds
    /// the finished model per configuration.
    cache: Option<(IbisExtractConfig, IbisModel)>,
}

impl IbisSession {
    /// Replaces the whole configuration.
    pub fn config(mut self, cfg: IbisExtractConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Number of points in the I–V tables.
    pub fn iv_points(mut self, n: usize) -> Self {
        self.cfg.iv_points = n;
        self
    }

    /// Switching-table resolution and captured edge duration (s).
    pub fn tables(mut self, dt: f64, t_table: f64) -> Self {
        self.cfg.dt = dt;
        self.cfg.t_table = t_table;
        self
    }

    /// Runs (or re-runs) the extraction; an unchanged configuration returns
    /// the cached model without re-simulating.
    ///
    /// # Errors
    ///
    /// Propagates extraction failures.
    pub fn run(&mut self) -> Result<EstimatedModel> {
        if !matches!(&self.cache, Some((c, _)) if *c == self.cfg) {
            let model = IbisModel::extract(&self.spec, self.cfg)?;
            self.cache = Some((self.cfg, model));
        }
        let model = self.cache.as_ref().expect("model just ensured").1.clone();
        Ok(EstimatedModel {
            model: AnyModel::Ibis(model),
            reference: ReferencePort::Driver(self.spec.clone()),
            records: None,
            provenance: session_provenance(&self.cfg, self.spec.name, "ibis"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macromodel::ModelKind;
    use sysid::narx::RbfTrainConfig;

    fn fast_cfg() -> DriverEstimationConfig {
        DriverEstimationConfig {
            n_levels: 20,
            dwell: 14,
            rbf: RbfTrainConfig {
                max_centers: 6,
                candidate_pool: 40,
                width_scale: 1.0,
                ols_tolerance: 1e-6,
            },
            t_pre: 1.5e-9,
            t_window: 2.5e-9,
            ..Default::default()
        }
    }

    #[test]
    fn driver_session_caches_captures_across_fit_changes() {
        let mut session = ExtractionSession::for_driver(refdev::md1()).config(fast_cfg());
        let est1 = session.run().unwrap();
        assert_eq!(session.capture_runs(), 1);
        assert_eq!(est1.as_dyn().kind(), ModelKind::PwRbfDriver);
        assert!(est1.records().is_some());

        // Fit-only change: the OLS threshold. No new captures.
        let cfg = fast_cfg();
        session = session.config(DriverEstimationConfig {
            rbf: RbfTrainConfig {
                ols_tolerance: 1e-5,
                ..cfg.rbf
            },
            ..cfg
        });
        let est2 = session.run().unwrap();
        assert_eq!(session.capture_runs(), 1);
        // A looser stop can only shrink the center set.
        let n1 = est1.as_dyn().metadata()["basis_functions"].clone();
        let n2 = est2.as_dyn().metadata()["basis_functions"].clone();
        assert!(n2.parse::<usize>().unwrap() <= n1.parse::<usize>().unwrap());

        // Capture-determining change: new windows force a fresh pass.
        session = session.windows(1.5e-9, 3e-9);
        session.run().unwrap();
        assert_eq!(session.capture_runs(), 2);
    }

    #[test]
    fn identical_reruns_reproduce_the_model() {
        let mut session = ExtractionSession::for_driver(refdev::md1()).config(fast_cfg());
        let a = session.run().unwrap();
        let b = session.run().unwrap();
        assert_eq!(session.capture_runs(), 1);
        let (AnyModel::PwRbfDriver(ma), AnyModel::PwRbfDriver(mb)) =
            (a.into_model(), b.into_model())
        else {
            panic!("driver kind expected");
        };
        assert_eq!(ma.up.w_high(), mb.up.w_high());
        assert_eq!(ma.i_high.network().weights(), mb.i_high.network().weights());
    }

    #[test]
    fn session_artifact_saves_and_validates() {
        let mut session = ExtractionSession::for_driver(refdev::md1()).config(fast_cfg());
        let est = session.run().unwrap();
        // Exchange text round-trips.
        let text = crate::exchange::save_model(est.model()).unwrap();
        let loaded = crate::exchange::load_model(&text).unwrap();
        assert_eq!(loaded.name(), est.as_dyn().name());
        // Reference validation runs end-to-end on a resistive fixture.
        let run = est
            .validate_against_reference(
                &TestFixture::resistive(50.0),
                Some(&PortStimulus::new("01", 3e-9)),
                6e-9,
                None,
            )
            .unwrap();
        assert!(
            run.metrics.rms_error < 0.3,
            "rms {} V",
            run.metrics.rms_error
        );
    }

    #[test]
    fn cr_session_runs_and_caches() {
        let mut session = ExtractionSession::for_cr_baseline(refdev::md4()).sample_time(25e-12);
        let est = session.run().unwrap();
        assert_eq!(est.as_dyn().kind(), ModelKind::CrBaseline);
        session.run().unwrap();
        assert_eq!(session.capture_runs(), 1);
        let mut session = session.sample_time(50e-12);
        session.run().unwrap();
        assert_eq!(session.capture_runs(), 2);
    }

    #[test]
    fn sessions_reject_bad_configs() {
        let mut s = ExtractionSession::for_driver(refdev::md1()).config(DriverEstimationConfig {
            ts: 0.0,
            ..Default::default()
        });
        assert!(s.run().is_err());
        let mut s =
            ExtractionSession::for_receiver(refdev::md4()).config(ReceiverEstimationConfig {
                ts: -1.0,
                ..Default::default()
            });
        assert!(s.run().is_err());
        let mut s = ExtractionSession::for_cr_baseline(refdev::md4()).sample_time(f64::NAN);
        assert!(s.run().is_err());
    }

    /// Runs a driver and a receiver session on configs edited by `drv` and
    /// `rx` and expects both to stop with a typed error before any capture.
    fn assert_rejected(
        drv: impl FnOnce(&mut DriverEstimationConfig),
        rx: impl FnOnce(&mut ReceiverEstimationConfig),
    ) {
        let mut cfg = DriverEstimationConfig::default();
        drv(&mut cfg);
        let mut s = ExtractionSession::for_driver(refdev::md1()).config(cfg);
        assert!(
            matches!(s.run(), Err(Error::InvalidModel { .. })),
            "driver config {cfg:?} accepted"
        );
        assert_eq!(s.capture_runs(), 0);
        let mut cfg = ReceiverEstimationConfig::default();
        rx(&mut cfg);
        let mut s = ExtractionSession::for_receiver(refdev::md4()).config(cfg);
        assert!(
            matches!(s.run(), Err(Error::InvalidModel { .. })),
            "receiver config {cfg:?} accepted"
        );
        assert_eq!(s.capture_runs(), 0);
    }

    #[test]
    fn zero_dwell_is_a_typed_error() {
        assert_rejected(|c| c.dwell = 0, |c| c.dwell = 0);
    }

    #[test]
    fn edges_as_long_as_the_dwell_are_a_typed_error() {
        assert_rejected(
            |c| c.edge_samples = c.dwell,
            |c| c.edge_samples = c.dwell + 3,
        );
    }

    #[test]
    fn zero_levels_are_a_typed_error() {
        assert_rejected(|c| c.n_levels = 0, |c| c.n_levels = 0);
    }

    #[test]
    fn an_empty_excitation_range_is_a_typed_error() {
        // md1 runs at 3.3 V, so a -2 V margin turns the excitation range
        // `[-v_margin, vdd + v_margin]` into the empty [2, 1.3] V; a
        // non-positive overdrive leaves no protection region to excite.
        assert_rejected(|c| c.v_margin = -2.0, |c| c.v_over = 0.0);
        assert_rejected(|c| c.v_margin = f64::NAN, |c| c.v_over = -0.5);
    }

    #[test]
    fn a_negative_switching_window_is_a_typed_error() {
        for (t_pre, t_window) in [(2e-9, -1e-9), (f64::NAN, 4e-9)] {
            let mut s =
                ExtractionSession::for_driver(refdev::md1()).config(DriverEstimationConfig {
                    t_pre,
                    t_window,
                    ..Default::default()
                });
            assert!(matches!(s.run(), Err(Error::InvalidModel { .. })));
            assert_eq!(s.capture_runs(), 0);
        }
    }

    #[test]
    fn non_finite_sample_times_are_a_typed_error() {
        assert_rejected(|c| c.ts = f64::NAN, |c| c.ts = f64::NAN);
        assert_rejected(|c| c.ts = f64::INFINITY, |c| c.ts = f64::INFINITY);
    }
}
