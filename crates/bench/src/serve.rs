//! The model-serving harness: scenario-matrix sweeps and batch validation
//! over a [`ModelStore`].
//!
//! The paper's deployment story is "estimate once, serve everywhere": a
//! library of `.mdlx` artifacts stands in for transistor-level devices
//! across many signal-integrity scenarios. This module is that serving
//! layer. [`sweep_store`] takes the cartesian product of {stored models} ×
//! {scenarios that apply to their port direction} and runs every cell as a
//! transient on [`numkit::par`] workers (at most one per CPU), collecting
//! per-cell pass/fail, waveform sanity, and solver diagnostics
//! ([`circuit::SolveStats`]).
//! [`validate_store`] re-certifies every model against its transistor-level
//! reference with per-kind accuracy gates — the CI re-certification pass.
//! Both produce a [`FleetReport`] that serializes to machine-readable JSON
//! ([`FleetReport::to_json`]) for workflow artifacts and trend tooling.
//!
//! Scenarios come in two shapes: standard one-port [`TestFixture`] networks
//! (driver kinds produce the stimulus; load kinds are driven by the
//! fixture's source), and multi-lane coupled **bus ladders** where each
//! lane is driven by a macromodel instance — including a mixed-backend lane
//! assignment when the store holds several driver models, the "many
//! backends in one net" serving case.

use circuit::devices::Resistor;
use circuit::mtl::{expand_coupled_line, CoupledLineSpec};
use circuit::{Circuit, ProbedResult, TranParams, Waveform, GROUND};
use macromodel::json::{self, Layout, Raw};
use macromodel::validate::{validate_macromodel, ReferencePort, DEFAULT_VALIDATION_DT};
use macromodel::{Macromodel, ModelKind, ModelStore, PortStimulus, TestFixture};
use numkit::par;
use refdev::{CmosDriverSpec, ReceiverSpec};
use si::{
    prbs_pattern, ChannelSpec, EyeAnalyzer, EyeConfig, EyeMetrics, McGates, McParam, McPlan,
    McSummary, PrbsOrder, Termination,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Bound on plausible pad voltages (V): every reference device is a 1.8 V
/// or 3.3 V part, so anything beyond this is a solver or model blow-up,
/// not a waveform.
const SANE_VOLTAGE_BOUND: f64 = 25.0;

/// Schema version of [`FleetReport::to_json`]. Bump on any
/// field-level change so trend tooling can dispatch on the shape it is
/// reading. Version 2 added `schema` itself plus the `eyes` and `mc`
/// signal-integrity aggregate blocks.
pub const FLEET_REPORT_SCHEMA: u32 = 2;

// ---------------------------------------------------------------------
// Reference resolution
// ---------------------------------------------------------------------

/// Resolves a driver device of the standard family by name.
pub fn driver_spec(device: &str) -> Option<CmosDriverSpec> {
    match device {
        "md1" => Some(refdev::md1()),
        "md2" => Some(refdev::md2()),
        "md3" => Some(refdev::md3()),
        _ => None,
    }
}

/// Resolves a receiver device of the standard family by name.
pub fn receiver_spec(device: &str) -> Option<ReceiverSpec> {
    (device == "md4").then(refdev::md4)
}

/// Resolves the transistor-level reference a loaded artifact stands in
/// for, from its model name: C–R̂ artifacts are named `<device>_cr`, IBIS
/// corner variants `<device>_<Corner>`.
pub fn reference_for(model: &dyn Macromodel) -> Option<ReferencePort> {
    let base = ["_cr", "_Slow", "_Typical", "_Fast"]
        .iter()
        .fold(model.name(), |n, suf| n.strip_suffix(suf).unwrap_or(n));
    if model.kind().is_driver() {
        driver_spec(base).map(ReferencePort::Driver)
    } else {
        receiver_spec(base).map(ReferencePort::Receiver)
    }
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// Which port direction a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applicability {
    /// Output ports: the model produces the stimulus.
    Drivers,
    /// Input ports: the fixture carries the source, the model is the load.
    Loads,
}

/// The network a scenario cell simulates.
#[derive(Debug, Clone)]
pub enum ScenarioKind {
    /// A standard one-port [`TestFixture`] around the model's pad.
    Fixture {
        /// The validation network.
        fixture: TestFixture,
        /// Bit pattern driver kinds produce (ignored by load kinds).
        stim: Option<PortStimulus>,
        /// Simulated window (s).
        t_stop: f64,
    },
    /// A `conductors`-lane lossy coupled bus expanded into `segments` RLGC
    /// cells; every lane is driven by a macromodel instance (the lane's bit
    /// pattern is the base pattern rotated by the lane index) and
    /// terminated at the far end.
    BusLadder {
        /// Coupled lanes.
        conductors: usize,
        /// RLGC segments per lane.
        segments: usize,
        /// Base bit pattern.
        pattern: String,
        /// Bit time (s).
        bit_time: f64,
        /// Simulated window (s).
        t_stop: f64,
    },
    /// A PRBS eye-diagram cell: every lane of a generated
    /// [`si::ChannelSpec`] channel is driven by a macromodel instance with
    /// a seed-offset PRBS stream, and the far-end waveforms are folded
    /// into eye metrics ([`si::eye`]).
    Eye(EyeWorkload),
    /// A Monte-Carlo statistical sweep: the model drives a 2-lane channel
    /// whose parameters are Latin-hypercube sampled per trial, gated on
    /// population eye statistics ([`si::mc`]).
    MonteCarlo(McWorkload),
}

/// Parameters of one PRBS eye-diagram cell.
#[derive(Debug, Clone)]
pub struct EyeWorkload {
    /// PRBS order tag (7, 15 or 31).
    pub prbs: u32,
    /// Bits simulated per lane.
    pub bits: usize,
    /// Master seed; lane `k` streams from `seed + k`.
    pub seed: u64,
    /// Unit interval (s).
    pub bit_time: f64,
    /// Channel lanes (one driven macromodel instance each).
    pub lanes: usize,
    /// RLGC segments of the channel expansion.
    pub segments: usize,
}

impl EyeWorkload {
    /// Fewest bits an eye or Monte-Carlo request may simulate per stream;
    /// the `mdl` CLI and the daemon protocol both reject smaller values.
    pub const MIN_BITS: u64 = 4;

    /// Most bits an eye or Monte-Carlo request may simulate per stream
    /// (about two PRBS-15 periods); the `mdl` CLI and the daemon protocol both
    /// reject larger values, so one request cannot occupy or exhaust the
    /// process.
    pub const MAX_BITS: u64 = 1 << 16;

    /// Most channel lanes an eye request may drive; the `mdl` CLI rejects
    /// larger values. Memory and time grow with the lane count (64 lanes
    /// of the standard stream run in about a second), so one request
    /// cannot exhaust the process.
    pub const MAX_LANES: u64 = 64;

    /// The standard workload: a 4-lane PRBS-7 stream (2 lanes and a
    /// shorter stream under `fast`).
    pub fn standard(fast: bool) -> Self {
        EyeWorkload {
            prbs: 7,
            bits: if fast { 12 } else { 24 },
            seed: 1,
            bit_time: 2e-9,
            lanes: if fast { 2 } else { 4 },
            segments: 3,
        }
    }

    /// Simulated window (s): one unit interval per bit.
    pub fn t_stop(&self) -> f64 {
        self.bits as f64 * self.bit_time
    }

    /// Checks `bits` and `lanes` against the bounds above and `bit_time`
    /// for a positive, finite unit interval.
    fn check(&self) -> crate::Result<()> {
        check_count("bits", self.bits, Self::MIN_BITS, Self::MAX_BITS)?;
        check_count("lanes", self.lanes, 1, Self::MAX_LANES)?;
        check_bit_time(self.bit_time)
    }
}

/// Parameters of one Monte-Carlo channel sweep.
#[derive(Debug, Clone)]
pub struct McWorkload {
    /// Trials in the Latin-hypercube plan.
    pub trials: usize,
    /// Master seed; every stochastic choice (trial parameters, per-trial
    /// PRBS streams) derives from it.
    pub seed: u64,
    /// PRBS order tag of the per-trial stimulus.
    pub prbs: u32,
    /// Bits simulated per trial.
    pub bits: usize,
    /// Unit interval (s).
    pub bit_time: f64,
    /// Statistical pass gates over the trial population.
    pub gates: McGates,
}

impl McWorkload {
    /// Fewest trials a Monte-Carlo request may ask for; the `mdl` CLI and
    /// the daemon protocol both reject smaller values.
    pub const MIN_TRIALS: u64 = 1;

    /// Most trials a Monte-Carlo request may ask for; the `mdl` CLI and the
    /// daemon protocol both reject larger values, so one request cannot
    /// occupy or exhaust the process.
    pub const MAX_TRIALS: u64 = 1 << 12;

    /// The standard sweep: 8 trials (4 under `fast`) of a PRBS-7 stream
    /// over the 2-lane channel parameter space.
    pub fn standard(fast: bool) -> Self {
        McWorkload {
            trials: if fast { 4 } else { 8 },
            seed: 0xec0_5eed,
            prbs: 7,
            bits: if fast { 10 } else { 16 },
            bit_time: 2e-9,
            gates: McGates::default(),
        }
    }

    /// Checks `trials` and `bits` against their bounds (those of
    /// [`EyeWorkload`] for `bits`) and `bit_time` for a positive, finite
    /// unit interval.
    fn check(&self) -> crate::Result<()> {
        check_count("trials", self.trials, Self::MIN_TRIALS, Self::MAX_TRIALS)?;
        check_count(
            "bits",
            self.bits,
            EyeWorkload::MIN_BITS,
            EyeWorkload::MAX_BITS,
        )?;
        check_bit_time(self.bit_time)
    }
}

/// `value`, the workload's `field`, must lie in `min..=max`.
fn check_count(field: &str, value: usize, min: u64, max: u64) -> crate::Result<()> {
    if (min..=max).contains(&(value as u64)) {
        Ok(())
    } else {
        Err(format!("{field}: expected a whole number in {min}..={max}, got {value}").into())
    }
}

/// A workload's unit interval must be finite and positive.
fn check_bit_time(bit_time: f64) -> crate::Result<()> {
    if bit_time.is_finite() && bit_time > 0.0 {
        Ok(())
    } else {
        Err(format!("bit_time: expected a finite number > 0 s, got {bit_time}").into())
    }
}

/// One named column of the scenario matrix.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable scenario name (report key).
    pub name: String,
    /// Port direction this scenario exercises.
    pub applies_to: Applicability,
    /// The simulated network.
    pub kind: ScenarioKind,
}

impl Scenario {
    /// Whether the scenario applies to a model of `kind`.
    pub fn applies(&self, kind: ModelKind) -> bool {
        match self.applies_to {
            Applicability::Drivers => kind.is_driver(),
            Applicability::Loads => !kind.is_driver(),
        }
    }
}

/// The standard serving matrix: two driver fixtures + a coupled bus ladder
/// for output ports, a pulsed line fixture for input ports. `fast` shrinks
/// windows and ladder size for smoke-test budgets.
pub fn standard_scenarios(fast: bool) -> Vec<Scenario> {
    let bit = if fast { 3e-9 } else { 4e-9 };
    vec![
        Scenario {
            name: "r50".into(),
            applies_to: Applicability::Drivers,
            kind: ScenarioKind::Fixture {
                fixture: TestFixture::resistive(50.0),
                stim: Some(PortStimulus::new("010", bit)),
                t_stop: 3.0 * bit,
            },
        },
        Scenario {
            name: "linecap".into(),
            applies_to: Applicability::Drivers,
            kind: ScenarioKind::Fixture {
                fixture: TestFixture::line_cap(50.0, 0.8e-9, 10e-12),
                stim: Some(PortStimulus::new("01", bit)),
                t_stop: if fast { 5e-9 } else { 8e-9 },
            },
        },
        Scenario {
            name: "bus-ladder".into(),
            applies_to: Applicability::Drivers,
            kind: ScenarioKind::BusLadder {
                conductors: if fast { 2 } else { 3 },
                segments: if fast { 4 } else { 6 },
                pattern: "0110".into(),
                bit_time: 2e-9,
                t_stop: if fast { 5e-9 } else { 8e-9 },
            },
        },
        Scenario {
            name: "eye-prbs7".into(),
            applies_to: Applicability::Drivers,
            kind: ScenarioKind::Eye(EyeWorkload::standard(fast)),
        },
        Scenario {
            name: "mc-channel".into(),
            applies_to: Applicability::Drivers,
            kind: ScenarioKind::MonteCarlo(McWorkload::standard(fast)),
        },
        Scenario {
            name: "pulse".into(),
            applies_to: Applicability::Loads,
            kind: ScenarioKind::Fixture {
                fixture: TestFixture::series_pulse(60.0, 0.0, 1.0, 0.4e-9, 0.1e-9, 2e-9, 0.1e-9),
                stim: None,
                t_stop: 3e-9,
            },
        },
    ]
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// Solver diagnostics of one cell's transient.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellStats {
    /// Symbolic analyses (a well-behaved cell needs exactly one).
    pub symbolic_analyses: usize,
    /// Numeric factorizations.
    pub factorizations: usize,
    /// Structural nonzeros of the `L + U` factors.
    pub factor_nnz: usize,
    /// Cumulative factorization multiply–adds.
    pub flops: u64,
    /// Newton iterations summed over all steps.
    pub newton_iterations: usize,
    /// MNA unknowns of the cell circuit.
    pub unknowns: usize,
}

impl CellStats {
    /// The diagnostics of a finished probed transient `res` of `ckt`.
    fn of(res: &ProbedResult, ckt: &Circuit) -> Self {
        let s = res.solve_stats;
        CellStats {
            symbolic_analyses: s.symbolic_analyses,
            factorizations: s.factorizations,
            factor_nnz: s.factor_nnz,
            flops: s.flops,
            newton_iterations: res.total_newton_iterations,
            unknowns: ckt.unknown_count(),
        }
    }

    /// Folds in another transient's diagnostics: counts add, sizes
    /// (`factor_nnz`, `unknowns`) keep the larger.
    fn merge(&mut self, other: &CellStats) {
        self.symbolic_analyses += other.symbolic_analyses;
        self.factorizations += other.factorizations;
        self.factor_nnz = self.factor_nnz.max(other.factor_nnz);
        self.flops += other.flops;
        self.newton_iterations += other.newton_iterations;
        self.unknowns = self.unknowns.max(other.unknowns);
    }
}

/// One cell of the scenario matrix: a (model, scenario) pair's outcome.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Model name (or a `mixed:`-prefixed lane list for the mixed-bus
    /// cell).
    pub model: String,
    /// Model kind tag.
    pub kind: String,
    /// Scenario name.
    pub scenario: String,
    /// Whether the cell passed its gate.
    pub pass: bool,
    /// Failure description (empty when passing).
    pub detail: String,
    /// RMS voltage error vs the reference (validation cells).
    pub rms_error: Option<f64>,
    /// Max voltage error vs the reference (validation cells).
    pub max_error: Option<f64>,
    /// Threshold-crossing timing error (validation cells, s).
    pub timing_error_s: Option<f64>,
    /// The RMS gate the cell was held to (validation cells, V).
    pub rms_limit: Option<f64>,
    /// Samples of the probed waveform(s).
    pub samples: usize,
    /// Smallest probed voltage (V).
    pub v_min: f64,
    /// Largest probed voltage (V).
    pub v_max: f64,
    /// Solver diagnostics of the model-side transient.
    pub stats: Option<CellStats>,
    /// Eye-diagram outcome (eye cells only).
    pub eye: Option<EyeOutcome>,
    /// Monte-Carlo population aggregates (MC cells only).
    pub mc: Option<McSummary>,
    /// Wall-clock seconds of the cell.
    pub elapsed_s: f64,
}

impl CellReport {
    /// A cell of `model` that failed with `detail` before it measured
    /// anything.
    pub(crate) fn failed(model: &dyn Macromodel, scenario: &str, detail: String) -> Self {
        Self::of(model, scenario, Err(detail))
    }

    /// A cell of `model` without measurements that passes or fails on
    /// `gate`; callers fill in what they measured.
    fn of(model: &dyn Macromodel, scenario: &str, gate: std::result::Result<(), String>) -> Self {
        Self::gated(model.name().to_string(), model.kind().tag(), scenario, gate)
    }

    /// Writes the cell's fields, as a fleet report lists them.
    fn write_json(&self, o: &mut json::Object<'_>) {
        o.field("model", &self.model)
            .field("kind", &self.kind)
            .field("scenario", &self.scenario)
            .field("pass", self.pass)
            .field("detail", &self.detail)
            .field("rms_error", self.rms_error)
            .field("max_error", self.max_error)
            .field("timing_error_s", self.timing_error_s)
            .field("rms_limit", self.rms_limit)
            .field("samples", self.samples)
            .field("v_min", self.v_min)
            .field("v_max", self.v_max);
        match &self.stats {
            Some(s) => o.object("stats", Layout::Spaced, |o| {
                o.field("symbolic_analyses", s.symbolic_analyses)
                    .field("factorizations", s.factorizations)
                    .field("factor_nnz", s.factor_nnz)
                    .field("flops", s.flops)
                    .field("newton_iterations", s.newton_iterations)
                    .field("unknowns", s.unknowns);
            }),
            None => o.field("stats", None::<f64>),
        };
        o.field("eye", self.eye.as_ref().map(|e| Raw(e.json())))
            .field("mc", self.mc.as_ref().map(|m| Raw(mc_summary_json(m))))
            .field("elapsed_s", self.elapsed_s);
    }

    /// A cell without measurements that passes or fails on `gate` (`Err`
    /// carries the failure detail).
    fn gated(
        model: String,
        kind: &str,
        scenario: &str,
        gate: std::result::Result<(), String>,
    ) -> Self {
        CellReport {
            model,
            kind: kind.to_string(),
            scenario: scenario.to_string(),
            pass: gate.is_ok(),
            detail: gate.err().unwrap_or_default(),
            rms_error: None,
            max_error: None,
            timing_error_s: None,
            rms_limit: None,
            samples: 0,
            v_min: 0.0,
            v_max: 0.0,
            stats: None,
            eye: None,
            mc: None,
            elapsed_s: 0.0,
        }
    }
}

/// Eye-diagram outcome of one eye cell: the workload identity plus the
/// worst lane's metrics (the gate subject — a link budget is only as good
/// as its weakest lane).
#[derive(Debug, Clone)]
pub struct EyeOutcome {
    /// PRBS order tag.
    pub prbs: u32,
    /// Bits simulated per lane.
    pub bits: usize,
    /// Master seed of the lane streams.
    pub seed: u64,
    /// Channel lanes simulated.
    pub lanes: usize,
    /// Lane with the smallest eye opening (metrics below are its).
    pub worst_lane: usize,
    /// Worst-lane eye metrics.
    pub metrics: EyeMetrics,
}

impl EyeOutcome {
    /// The outcome as one spaced JSON object (the `eye` block of cell and
    /// fleet reports; the `mdl eye --json` payload).
    pub fn json(&self) -> String {
        let m = &self.metrics;
        json::object(Layout::Spaced, |o| {
            o.field("prbs", self.prbs)
                .field("bits", self.bits)
                .field("seed", self.seed)
                .field("lanes", self.lanes)
                .field("worst_lane", self.worst_lane)
                .field("open", m.open)
                .field("eye_height", m.eye_height)
                .field("eye_width_ui", m.eye_width_ui)
                .field("jitter_pp_s", m.jitter_pp_s)
                .field("jitter_rms_s", m.jitter_rms_s)
                .field("overshoot", m.overshoot)
                .field("undershoot", m.undershoot)
                .field("v_high", m.v_high)
                .field("v_low", m.v_low)
                .field("crossings", m.crossings);
        })
    }
}

/// Serializes a Monte-Carlo population summary as one spaced JSON object
/// (the `mc` block of cell and fleet reports; the `mdl mc --json` payload).
pub fn mc_summary_json(s: &McSummary) -> String {
    json::object(Layout::Spaced, |o| {
        o.field("trials", s.trials)
            .field("seed", s.seed)
            .field("closed_eyes", s.closed_eyes)
            .field("eye_height_min", s.eye_height_min)
            .field("eye_height_mean", s.eye_height_mean)
            .field("eye_height_q05", s.eye_height_q05)
            .field("eye_width_min_ui", s.eye_width_min_ui)
            .field("jitter_pp_q_s", s.jitter_pp_q_s)
            .field("jitter_pp_max_s", s.jitter_pp_max_s)
            .field("pass", s.pass);
    })
}

/// One eye-diagram aggregate of a fleet report: the cell identity plus
/// its [`EyeOutcome`].
#[derive(Debug, Clone)]
pub struct EyeSummary {
    /// Model name.
    pub model: String,
    /// Scenario name.
    pub scenario: String,
    /// The eye outcome.
    pub outcome: EyeOutcome,
}

/// One Monte-Carlo aggregate of a fleet report.
#[derive(Debug, Clone)]
pub struct McCellSummary {
    /// Model name.
    pub model: String,
    /// Scenario name.
    pub scenario: String,
    /// The population aggregates.
    pub summary: McSummary,
}

/// Static-analysis summary of one served model (see [`macromodel::lint`]).
#[derive(Debug, Clone)]
pub struct ModelLint {
    /// Model name.
    pub model: String,
    /// Error-severity findings.
    pub errors: usize,
    /// Warning-severity findings.
    pub warnings: usize,
    /// Info-severity findings.
    pub infos: usize,
    /// Distinct diagnostic codes observed, in code order.
    pub codes: Vec<String>,
}

impl ModelLint {
    /// Lints one model (semantic rules plus the structural audit) and
    /// summarizes the outcome under the default severity policy.
    pub fn of(name: &str, model: &macromodel::AnyModel) -> Self {
        let cfg = macromodel::LintConfig::default();
        let report = macromodel::LintReport {
            diagnostics: macromodel::lint_model_full(model),
        };
        let (errors, warnings, infos) = report.counts(&cfg);
        let mut codes: Vec<String> = report
            .diagnostics
            .iter()
            .map(|d| d.code.to_string())
            .collect();
        codes.sort();
        codes.dedup();
        ModelLint {
            model: name.to_string(),
            errors,
            warnings,
            infos,
            codes,
        }
    }
}

/// The whole matrix outcome: one report per store sweep or validation run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// JSON schema version ([`FLEET_REPORT_SCHEMA`]).
    pub schema: u32,
    /// Store directory the models came from.
    pub store_root: String,
    /// `"sweep"` or `"validate"`.
    pub mode: String,
    /// `.mdlx` files scanned.
    pub artifacts: usize,
    /// Models served (bundles flattened).
    pub models: usize,
    /// Files that failed to load: `(path, error)`.
    pub load_failures: Vec<(String, String)>,
    /// Per-model static-analysis summaries (default severity policy).
    pub lints: Vec<ModelLint>,
    /// Every matrix cell.
    pub cells: Vec<CellReport>,
    /// Eye-diagram aggregates, one per eye cell (sweep mode).
    pub eyes: Vec<EyeSummary>,
    /// Monte-Carlo aggregates, one per MC cell (sweep mode).
    pub mc: Vec<McCellSummary>,
}

impl FleetReport {
    /// Number of passing cells.
    pub fn passed(&self) -> usize {
        self.cells.iter().filter(|c| c.pass).count()
    }

    /// Number of failing cells.
    pub fn failed(&self) -> usize {
        self.cells.len() - self.passed()
    }

    /// Whether the fleet is healthy: every cell passed and every artifact
    /// loaded.
    pub fn all_passed(&self) -> bool {
        self.failed() == 0 && self.load_failures.is_empty()
    }

    /// Serializes the report as one JSON document, one top-level key per
    /// line (the exact schema the CI trend tooling consumes).
    pub fn to_json(&self) -> String {
        let mut out = json::object(Layout::Lines, |o| {
            o.field("schema", self.schema)
                .field("store", &self.store_root)
                .field("mode", &self.mode)
                .field("artifacts", self.artifacts)
                .field("models", self.models)
                .field("passed", self.passed())
                .field("failed", self.failed())
                .field("all_passed", self.all_passed());
            o.array("load_failures", Layout::Lines, |a| {
                for (path, error) in &self.load_failures {
                    a.object(Layout::Spaced, |o| {
                        o.field("path", path).field("error", error);
                    });
                }
            });
            o.array("lints", Layout::Lines, |a| {
                for l in &self.lints {
                    a.object(Layout::Spaced, |o| {
                        o.field("model", &l.model)
                            .field("errors", l.errors)
                            .field("warnings", l.warnings)
                            .field("infos", l.infos)
                            .array("codes", Layout::Spaced, |a| {
                                for code in &l.codes {
                                    a.push(code);
                                }
                            });
                    });
                }
            });
            o.array("cells", Layout::Lines, |a| {
                for c in &self.cells {
                    a.object(Layout::Spaced, |o| c.write_json(o));
                }
            });
            o.array("eyes", Layout::Lines, |a| {
                for e in &self.eyes {
                    a.object(Layout::Spaced, |o| {
                        o.field("model", &e.model)
                            .field("scenario", &e.scenario)
                            .field("outcome", Raw(e.outcome.json()));
                    });
                }
            });
            o.array("mc", Layout::Lines, |a| {
                for m in &self.mc {
                    a.object(Layout::Spaced, |o| {
                        o.field("model", &m.model)
                            .field("scenario", &m.scenario)
                            .field("summary", Raw(mc_summary_json(&m.summary)));
                    });
                }
            });
        });
        out.push('\n');
        out
    }
}

// ---------------------------------------------------------------------
// Cell runners
// ---------------------------------------------------------------------

fn waveform_extrema(waves: &[Waveform]) -> (usize, f64, f64) {
    let mut n = 0;
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for w in waves {
        for &v in w.values() {
            n += 1;
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if n == 0 {
        (0, 0.0, 0.0)
    } else {
        (n, lo, hi)
    }
}

/// The sweep-mode gate: a cell passes when its transient completed and the
/// probed waveforms are finite and physically plausible.
fn sanity_gate(waves: &[Waveform]) -> std::result::Result<(), String> {
    if waves.iter().any(|w| w.values().is_empty()) {
        return Err("empty waveform".into());
    }
    for w in waves {
        for &v in w.values() {
            if !v.is_finite() {
                return Err("non-finite sample in waveform".into());
            }
            if v.abs() > SANE_VOLTAGE_BOUND {
                return Err(format!("|v| = {:.1} V exceeds sanity bound", v.abs()));
            }
        }
    }
    Ok(())
}

/// Rotates a bit pattern left by `by` — gives each bus lane a distinct but
/// equally busy stimulus.
fn rotate_pattern(pattern: &str, by: usize) -> String {
    let n = pattern.len();
    if n == 0 {
        return String::new();
    }
    let by = by % n;
    format!("{}{}", &pattern[by..], &pattern[..by])
}

/// Runs one driver model (or several, round-robin across lanes) on the
/// coupled bus ladder and returns the far-end waveforms plus diagnostics.
fn run_bus_cell(
    drivers: &[&dyn Macromodel],
    conductors: usize,
    segments: usize,
    pattern: &str,
    bit_time: f64,
    t_stop: f64,
    dt: f64,
) -> crate::Result<(Vec<Waveform>, CellStats)> {
    let spec = CoupledLineSpec::bus(conductors, 0.1);
    let mut ckt = Circuit::new();
    let line = expand_coupled_line(&mut ckt, &spec, segments, (1e7, 2e10))?;
    // After the expansion, which rejects a bus without conductors.
    let z0 = spec.z0(0);
    // Lanes are assigned round-robin to the drivers; lanes sharing a model
    // are installed through `instantiate_lanes`, so backends with a batched
    // evaluation runtime (the PW-RBF driver) step all their lanes together
    // as one multi-lane device.
    for (di, model) in drivers.iter().enumerate() {
        let mut pads = Vec::new();
        let mut stims = Vec::new();
        for lane in (di..conductors).step_by(drivers.len()) {
            let pad = ckt.node(format!("serve_pad{lane}"));
            pads.push(pad);
            stims.push(PortStimulus::new(rotate_pattern(pattern, lane), bit_time));
            ckt.add(Resistor::new(
                format!("jn{lane}"),
                pad,
                line.near[lane],
                1e-3,
            ));
            ckt.add(Resistor::new(
                format!("rl{lane}"),
                line.far[lane],
                GROUND,
                z0,
            ));
        }
        if pads.is_empty() {
            continue;
        }
        let lanes: Vec<(circuit::Node, Option<&PortStimulus>)> = pads
            .iter()
            .zip(&stims)
            .map(|(&pad, stim)| (pad, Some(stim)))
            .collect();
        model.instantiate_lanes(&mut ckt, &lanes)?;
    }
    let res = ckt.transient_probed(TranParams::new(dt, t_stop), &line.far)?;
    let stats = CellStats::of(&res, &ckt);
    Ok((res.voltages, stats))
}

/// Runs the eye workload: every channel lane driven by an instance of
/// `model` with a seed-offset PRBS stream, far-end waveforms folded by
/// `analyzer`. On return the analyzer's raster holds the *worst* lane's
/// fold (callers render it; the fleet path reads only the metrics).
///
/// # Errors
///
/// `bits` or `lanes` outside [`EyeWorkload::MIN_BITS`]`..=`
/// [`EyeWorkload::MAX_BITS`] or `1..=`[`EyeWorkload::MAX_LANES`], a
/// `bit_time` that is not finite and positive, an unknown PRBS tag, a
/// degenerate channel, or a failed transient.
pub fn run_eye_workload(
    model: &dyn Macromodel,
    w: &EyeWorkload,
    dt: f64,
    analyzer: &mut EyeAnalyzer,
) -> crate::Result<(Vec<Waveform>, CellStats, EyeOutcome)> {
    w.check()?;
    let order = PrbsOrder::from_tag(w.prbs)
        .ok_or_else(|| format!("unknown PRBS order tag {} (expected 7, 15 or 31)", w.prbs))?;
    let mut spec = ChannelSpec::new(w.lanes);
    spec.segments = w.segments;
    let mut ckt = Circuit::new();
    let f_band = (1.0 / (w.bits as f64 * w.bit_time), 10.0 / w.bit_time);
    let ports = spec.build(&mut ckt, f_band)?;
    let stims: Vec<PortStimulus> = (0..w.lanes)
        .map(|lane| {
            PortStimulus::new(
                prbs_pattern(order, w.bits, w.seed.wrapping_add(lane as u64)),
                w.bit_time,
            )
        })
        .collect();
    let mut pads = Vec::with_capacity(w.lanes);
    for (lane, &near) in ports.near.iter().enumerate() {
        let pad = ckt.node(format!("eye_pad{lane}"));
        ckt.add(Resistor::new(format!("eye_jn{lane}"), pad, near, 1e-3));
        pads.push(pad);
    }
    let lanes: Vec<(circuit::Node, Option<&PortStimulus>)> = pads
        .iter()
        .zip(&stims)
        .map(|(&pad, stim)| (pad, Some(stim)))
        .collect();
    model.instantiate_lanes(&mut ckt, &lanes)?;
    let res = ckt.transient_probed(TranParams::new(dt, w.t_stop()), &ports.far)?;
    let stats = CellStats::of(&res, &ckt);
    let waves = res.voltages;
    // Worst lane: any closed eye beats every open one; among open eyes the
    // smallest height. Re-analyze it last so the analyzer's raster matches
    // the reported metrics.
    let metrics: Vec<EyeMetrics> = waves.iter().map(|wave| analyzer.analyze(wave)).collect();
    let worst_lane = (0..metrics.len())
        .min_by(|&a, &b| {
            let key = |m: &EyeMetrics| if m.open { m.eye_height } else { -1.0 };
            key(&metrics[a]).total_cmp(&key(&metrics[b]))
        })
        .unwrap_or(0);
    let metrics = analyzer.analyze(&waves[worst_lane]);
    Ok((
        waves,
        stats,
        EyeOutcome {
            prbs: w.prbs,
            bits: w.bits,
            seed: w.seed,
            lanes: w.lanes,
            worst_lane,
            metrics,
        },
    ))
}

/// Runs the Monte-Carlo workload: `trials` Latin-hypercube draws over the
/// 2-lane channel parameter space (pad load, coupling, termination,
/// segment length), the model driving lane 0 with a per-trial PRBS stream,
/// lane 1 a passively terminated victim. Returns the driven lane's far-end
/// waveform per trial plus the gated population aggregates.
///
/// # Errors
///
/// `trials` outside [`McWorkload::MIN_TRIALS`]`..=`
/// [`McWorkload::MAX_TRIALS`], `bits` outside the [`EyeWorkload`] bounds,
/// a `bit_time` that is not finite and positive, an unknown PRBS tag, a
/// degenerate plan, or a failed trial transient.
pub fn run_mc_workload(
    model: &dyn Macromodel,
    w: &McWorkload,
    dt: f64,
) -> crate::Result<(Vec<Waveform>, CellStats, McSummary)> {
    w.check()?;
    let order = PrbsOrder::from_tag(w.prbs)
        .ok_or_else(|| format!("unknown PRBS order tag {} (expected 7, 15 or 31)", w.prbs))?;
    let plan = McPlan::new(
        w.trials,
        w.seed,
        vec![
            McParam::new("load_cap", 1e-12, 5e-12),
            McParam::new("coupling", 0.25, 1.25),
            McParam::new("r_term", 35.0, 65.0),
            McParam::new("segment_length", 0.015, 0.03),
        ],
    );
    let trials = plan.sample();
    let mut analyzer = EyeAnalyzer::new(EyeConfig::new(w.bit_time));
    let mut waves = Vec::with_capacity(trials.len());
    let mut metrics = Vec::with_capacity(trials.len());
    let mut stats = CellStats::default();
    for trial in &trials {
        let mut spec = ChannelSpec::new(2);
        spec.segments = 2;
        spec.load_cap = trial.value(&plan, "load_cap").unwrap_or(spec.load_cap);
        spec.coupling = trial.value(&plan, "coupling").unwrap_or(spec.coupling);
        spec.termination = Termination::Resistive(trial.value(&plan, "r_term").unwrap_or(50.0));
        spec.segment_length = trial
            .value(&plan, "segment_length")
            .unwrap_or(spec.segment_length);
        let mut ckt = Circuit::new();
        let f_band = (1.0 / (w.bits as f64 * w.bit_time), 10.0 / w.bit_time);
        let ports = spec.build(&mut ckt, f_band)?;
        let pad = ckt.node("mc_pad0");
        ckt.add(Resistor::new("mc_jn0", pad, ports.near[0], 1e-3));
        // The victim lane is near-end terminated, not driven.
        ckt.add(Resistor::new("mc_rv1", ports.near[1], GROUND, ports.z0));
        let stim = PortStimulus::new(prbs_pattern(order, w.bits, trial.seed), w.bit_time);
        model.instantiate_lanes(&mut ckt, &[(pad, Some(&stim))])?;
        let t_stop = w.bits as f64 * w.bit_time;
        let mut res = ckt.transient_probed(TranParams::new(dt, t_stop), &ports.far[..1])?;
        stats.merge(&CellStats::of(&res, &ckt));
        metrics.push(analyzer.analyze(&res.voltages[0]));
        waves.append(&mut res.voltages);
    }
    let summary = McSummary::from_metrics(&metrics, &w.gates, w.seed);
    Ok((waves, stats, summary))
}

/// Runs one (model, scenario) sweep cell.
pub(crate) fn run_sweep_cell(model: &dyn Macromodel, scenario: &Scenario) -> CellReport {
    let t0 = std::time::Instant::now();
    let dt = model.sample_time().unwrap_or(DEFAULT_VALIDATION_DT);
    let mut eye = None;
    let mut mc = None;
    let outcome: crate::Result<(Vec<Waveform>, CellStats)> = match &scenario.kind {
        ScenarioKind::Fixture {
            fixture,
            stim,
            t_stop,
        } => (|| {
            let mut ckt = Circuit::new();
            let pad = ckt.node(format!("{}_pad", model.name()));
            fixture.install(&mut ckt, pad);
            model.instantiate(&mut ckt, pad, stim.as_ref())?;
            let res = ckt.transient_probed(TranParams::new(dt, *t_stop), &[pad])?;
            let stats = CellStats::of(&res, &ckt);
            Ok((res.voltages, stats))
        })(),
        ScenarioKind::BusLadder {
            conductors,
            segments,
            pattern,
            bit_time,
            t_stop,
        } => run_bus_cell(
            &[model],
            *conductors,
            *segments,
            pattern,
            *bit_time,
            *t_stop,
            dt,
        ),
        // Checked before the analyzer, which panics on a bad `bit_time`.
        ScenarioKind::Eye(w) => w.check().and_then(|()| {
            let mut analyzer = EyeAnalyzer::new(EyeConfig::new(w.bit_time));
            run_eye_workload(model, w, dt, &mut analyzer).map(|(waves, stats, outcome)| {
                eye = Some(outcome);
                (waves, stats)
            })
        }),
        ScenarioKind::MonteCarlo(w) => {
            run_mc_workload(model, w, dt).map(|(waves, stats, summary)| {
                mc = Some(summary);
                (waves, stats)
            })
        }
    };
    let elapsed_s = t0.elapsed().as_secs_f64();
    match outcome {
        Ok((waves, stats)) => {
            let (samples, v_min, v_max) = waveform_extrema(&waves);
            // Waveform sanity first; eye and MC cells additionally gate on
            // their signal-integrity outcome.
            let mut gate = sanity_gate(&waves);
            if gate.is_ok() {
                if let Some(o) = &eye {
                    if !o.metrics.open {
                        gate = Err(format!("lane {} eye closed", o.worst_lane));
                    }
                }
                if let Some(s) = &mc {
                    if !s.pass {
                        gate = Err(format!(
                            "mc gates failed: {} closed eyes, min eye height {:.4} V, \
                             q-jitter {:.3e} s over {} trials",
                            s.closed_eyes, s.eye_height_min, s.jitter_pp_q_s, s.trials
                        ));
                    }
                }
            }
            CellReport {
                samples,
                v_min,
                v_max,
                stats: Some(stats),
                eye,
                mc,
                elapsed_s,
                ..CellReport::of(model, &scenario.name, gate)
            }
        }
        Err(e) => CellReport {
            elapsed_s,
            ..CellReport::failed(model, &scenario.name, e.to_string())
        },
    }
}

/// Scenario name of a [`validate_model`] report.
pub(crate) const VALIDATE_SCENARIO: &str = "reference-validate";

/// Validates one model against its transistor-level reference with the
/// standard per-kind fixture and accuracy gate. `rms_limit` / `timing_limit`
/// override the kind defaults.
pub fn validate_model(
    model: &dyn Macromodel,
    fast: bool,
    rms_limit: Option<f64>,
    timing_limit: Option<f64>,
) -> CellReport {
    let scenario = VALIDATE_SCENARIO;
    let t0 = std::time::Instant::now();
    let Some(reference) = reference_for(model) else {
        return CellReport::failed(
            model,
            scenario,
            format!("no reference device known for '{}'", model.name()),
        );
    };
    let vdd = reference.vdd();
    let dt = model.sample_time().unwrap_or(DEFAULT_VALIDATION_DT);
    let (fixture, stim, t_stop) = if model.kind().is_driver() {
        let bit = if fast { 3e-9 } else { 4e-9 };
        (
            TestFixture::resistive(50.0),
            Some(PortStimulus::new("010", bit)),
            3.0 * bit,
        )
    } else {
        (
            TestFixture::series_pulse(60.0, 0.0, 0.9 * vdd, 0.4e-9, 0.1e-9, 2e-9, 0.1e-9),
            None,
            3e-9,
        )
    };
    // The estimated models track the reference closely; the baselines
    // (IBIS, C–R̂) only get a sanity bound.
    let default_rms = match model.kind() {
        ModelKind::PwRbfDriver | ModelKind::Receiver => 0.08 * vdd,
        ModelKind::Ibis | ModelKind::CrBaseline => 0.5 * vdd,
    };
    let rms_limit = rms_limit.unwrap_or(default_rms);
    let run = match validate_macromodel(
        &reference,
        model,
        &fixture,
        stim.as_ref(),
        dt,
        t_stop,
        0.5 * vdd,
    ) {
        Ok(run) => run,
        Err(e) => {
            return CellReport {
                elapsed_s: t0.elapsed().as_secs_f64(),
                ..CellReport::failed(model, scenario, e.to_string())
            }
        }
    };
    let m = run.metrics;
    let mut gate = Ok(());
    if m.rms_error > rms_limit {
        gate = Err(format!(
            "rms error {:.4} V exceeds limit {:.4} V",
            m.rms_error, rms_limit
        ));
    } else if let (Some(limit), Some(te)) = (timing_limit, m.timing_error) {
        if te > limit {
            gate = Err(format!(
                "timing error {te:.3e} s exceeds limit {limit:.3e} s"
            ));
        }
    }
    let (samples, v_min, v_max) = waveform_extrema(std::slice::from_ref(&run.model));
    CellReport {
        rms_error: Some(m.rms_error),
        max_error: Some(m.max_error),
        timing_error_s: m.timing_error,
        rms_limit: Some(rms_limit),
        samples,
        v_min,
        v_max,
        elapsed_s: t0.elapsed().as_secs_f64(),
        ..CellReport::of(model, scenario, gate)
    }
}

// ---------------------------------------------------------------------
// Store-level engines
// ---------------------------------------------------------------------

/// Runs one cell and catches a panic inside it: the panic becomes the
/// failed cell `failed` builds from `panic: <message>`, so a bad cell fails
/// alone instead of unwinding the fan-out that runs it (a store run, or
/// the daemon scheduler).
pub(crate) fn run_contained(
    run: impl FnOnce() -> CellReport,
    failed: impl FnOnce(String) -> CellReport,
) -> CellReport {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string payload".into());
        failed(format!("panic: {message}"))
    })
}

/// The head every store engine runs first: it hands the fit scratch back
/// ([`sysid::narx::release_slab`]; a store run never fits, so a slab kept
/// from extraction would only sit under the run's cells) and loads and
/// lints every entry.
fn store_header(store: &ModelStore, mode: &str) -> FleetReport {
    sysid::narx::release_slab();
    // Force every entry to parse first: a lazily opened store reports an
    // empty failure list until its entries are touched, and a fleet report
    // must never call a store healthy it hasn't actually loaded.
    let load_failures = store
        .load_all()
        .into_iter()
        .map(|f| (f.path.display().to_string(), f.error.to_string()))
        .collect();
    let lints = store
        .models()
        .iter()
        .map(|(_, m)| ModelLint::of(m.name(), m))
        .collect();
    FleetReport {
        schema: FLEET_REPORT_SCHEMA,
        store_root: store.root().display().to_string(),
        mode: mode.to_string(),
        artifacts: store.len(),
        models: store.models().len(),
        load_failures,
        lints,
        cells: Vec::new(),
        eyes: Vec::new(),
        mc: Vec::new(),
    }
}

/// Runs the full scenario matrix over every model in the store on parallel
/// workers. When the store holds two or more driver models with a common
/// sample clock, one extra mixed-backend bus cell runs with the drivers
/// assigned round-robin to lanes; it is reported last.
pub fn sweep_store(store: &ModelStore, scenarios: &[Scenario]) -> FleetReport {
    let mut report = store_header(store, "sweep");
    let models: Vec<&dyn Macromodel> = store
        .models()
        .into_iter()
        .map(|(_, m)| m.as_dyn())
        .collect();
    let mixed = mixed_bus_cell(&models, scenarios);
    // One fan-out. The mixed-bus cell (`None`), the longest, is claimed
    // first so it overlaps the matrix instead of trailing it.
    let jobs: Vec<Option<(&dyn Macromodel, &Scenario)>> = mixed
        .is_some()
        .then_some(None)
        .into_iter()
        .chain(models.iter().flat_map(|&m| {
            scenarios
                .iter()
                .filter(move |s| s.applies(m.kind()))
                .map(move |s| Some((m, s)))
        }))
        .collect();
    report.cells = par::map(jobs, |job| match job {
        Some((m, s)) => run_contained(
            || run_sweep_cell(m, s),
            |detail| CellReport::failed(m, &s.name, detail),
        ),
        None => mixed.as_ref().expect("queued only when planned")(),
    });
    if mixed.is_some() {
        report.cells.rotate_left(1);
    }
    collect_si_aggregates(&mut report);
    report
}

/// Most driver models one mixed-bus cell puts on its net, the same cap as
/// [`EyeWorkload::MAX_LANES`]: the cell's lane count, and so its cost, stays
/// bounded however many drivers the store holds.
pub const MIXED_BUS_MAX_DRIVERS: usize = 64;

/// The mixed-backend bus cell: the store's driver models on one net, at
/// most [`MIXED_BUS_MAX_DRIVERS`] of them. Above the cap the first drivers
/// in store order (sorted artifact paths, then each artifact's model
/// order) are kept, so the choice is deterministic. `None` unless two or
/// more of the kept drivers share a sample clock and a bus-ladder scenario
/// is swept.
fn mixed_bus_cell<'a>(
    models: &[&'a dyn Macromodel],
    scenarios: &[Scenario],
) -> Option<impl Fn() -> CellReport + Sync + 'a> {
    let drivers: Vec<&dyn Macromodel> = models
        .iter()
        .copied()
        .filter(|m| m.kind().is_driver())
        .take(MIXED_BUS_MAX_DRIVERS)
        .collect();
    let clocks: Vec<f64> = drivers.iter().filter_map(|m| m.sample_time()).collect();
    let common_clock = clocks
        .windows(2)
        .all(|w| ((w[0] - w[1]) / w[0]).abs() < 1e-9);
    if drivers.len() < 2 || !common_clock {
        return None;
    }
    let Some(ScenarioKind::BusLadder {
        conductors,
        segments,
        pattern,
        bit_time,
        t_stop,
    }) = scenarios
        .iter()
        .find_map(|s| matches!(s.kind, ScenarioKind::BusLadder { .. }).then(|| s.kind.clone()))
    else {
        return None;
    };
    let dt = clocks.first().copied().unwrap_or(DEFAULT_VALIDATION_DT);
    let lanes = conductors.max(drivers.len());
    let names: Vec<&str> = drivers.iter().map(|m| m.name()).collect();
    let model = format!("mixed:{}", names.join("+"));
    Some(move || {
        let mixed = |gate| CellReport::gated(model.clone(), "mixed", "bus-mixed", gate);
        let run = || {
            let t0 = std::time::Instant::now();
            let outcome = run_bus_cell(&drivers, lanes, segments, &pattern, bit_time, t_stop, dt);
            let elapsed_s = t0.elapsed().as_secs_f64();
            match outcome {
                Ok((waves, stats)) => {
                    let (samples, v_min, v_max) = waveform_extrema(&waves);
                    CellReport {
                        samples,
                        v_min,
                        v_max,
                        stats: Some(stats),
                        elapsed_s,
                        ..mixed(sanity_gate(&waves))
                    }
                }
                Err(e) => CellReport {
                    elapsed_s,
                    ..mixed(Err(e.to_string()))
                },
            }
        };
        run_contained(run, |detail| mixed(Err(detail)))
    })
}

/// Lifts the per-cell eye and MC outcomes into the report's top-level
/// aggregate blocks (the trend-tooling view: one row per signal-integrity
/// cell without walking the full matrix).
fn collect_si_aggregates(report: &mut FleetReport) {
    report.eyes = report
        .cells
        .iter()
        .filter_map(|c| {
            c.eye.clone().map(|outcome| EyeSummary {
                model: c.model.clone(),
                scenario: c.scenario.clone(),
                outcome,
            })
        })
        .collect();
    report.mc = report
        .cells
        .iter()
        .filter_map(|c| {
            c.mc.map(|summary| McCellSummary {
                model: c.model.clone(),
                scenario: c.scenario.clone(),
                summary,
            })
        })
        .collect();
}

/// Re-certifies every model in the store against its transistor-level
/// reference on parallel workers (the CI batch-validation pass).
pub fn validate_store(store: &ModelStore, fast: bool) -> FleetReport {
    let mut report = store_header(store, "validate");
    let models = store.models();
    let duts: Vec<&dyn Macromodel> = models.iter().map(|(_, m)| m.as_dyn()).collect();
    report.cells = par::map(duts, |m| {
        run_contained(
            || validate_model(m, fast, None, None),
            |detail| CellReport::failed(m, VALIDATE_SCENARIO, detail),
        )
    });
    report
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use macromodel::driver::{PwRbfDriverModel, WeightSequence};
    use macromodel::exchange::{save_model_to_path, AnyModel};
    use macromodel::receiver::CrModel;
    use numkit::interp::Pwl;
    use sysid::narx::{NarxModel, NarxOrders};
    use sysid::rbf::RbfNetwork;

    /// A cheap switching PW-RBF driver: the high state pulls the pad to
    /// 1.8 V and the low state to 0 V, each through 20 Ω — pattern-
    /// dependent output, so eye cells see an open eye.
    fn dummy_driver(name: &str) -> AnyModel {
        let narx = |bias: f64| {
            NarxModel::from_network(
                NarxOrders::dynamic(1),
                RbfNetwork::affine(bias, vec![-0.05, 0.0, 0.0]),
            )
            .unwrap()
        };
        AnyModel::PwRbfDriver(PwRbfDriverModel {
            name: name.into(),
            ts: 25e-12,
            vdd: 1.8,
            i_high: narx(0.09),
            i_low: narx(0.0),
            up: WeightSequence::new(vec![0.0, 1.0], vec![1.0, 0.0]).unwrap(),
            down: WeightSequence::new(vec![1.0, 0.0], vec![0.0, 1.0]).unwrap(),
        })
    }

    fn dummy_cr(name: &str) -> AnyModel {
        AnyModel::Cr(
            CrModel::new(
                name,
                1e-12,
                Pwl::new(vec![-1.0, 0.0, 1.0], vec![-0.1, 0.0, 0.1]).unwrap(),
            )
            .unwrap(),
        )
    }

    fn tmp_store(tag: &str, models: &[AnyModel]) -> ModelStore {
        let dir = std::env::temp_dir().join(format!("serve_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for (i, m) in models.iter().enumerate() {
            save_model_to_path(m, dir.join(format!("m{i}.mdlx"))).unwrap();
        }
        ModelStore::open(&dir).unwrap()
    }

    #[test]
    fn scenario_applicability_matches_port_direction() {
        let scenarios = standard_scenarios(true);
        let driver_cols = scenarios
            .iter()
            .filter(|s| s.applies(ModelKind::PwRbfDriver))
            .count();
        let load_cols = scenarios
            .iter()
            .filter(|s| s.applies(ModelKind::CrBaseline))
            .count();
        assert_eq!(driver_cols, 5);
        assert_eq!(load_cols, 1);
        assert!(
            scenarios
                .iter()
                .filter(|s| s.applies(ModelKind::Ibis))
                .count()
                >= 5
        );
    }

    #[test]
    fn rotate_pattern_rotates() {
        assert_eq!(rotate_pattern("0110", 0), "0110");
        assert_eq!(rotate_pattern("0110", 1), "1100");
        assert_eq!(rotate_pattern("0110", 5), "1100");
        assert_eq!(rotate_pattern("", 3), "");
    }

    #[test]
    fn reference_resolution_strips_suffixes() {
        let AnyModel::Cr(cr) = dummy_cr("md4_cr") else {
            unreachable!()
        };
        assert!(reference_for(&cr).is_some());
        let AnyModel::PwRbfDriver(d) = dummy_driver("md1_Typical") else {
            unreachable!()
        };
        assert!(reference_for(&d).is_some());
        let AnyModel::PwRbfDriver(d) = dummy_driver("unknown_device") else {
            unreachable!()
        };
        assert!(reference_for(&d).is_none());
    }

    #[test]
    fn sweep_covers_the_cartesian_product_and_mixed_bus() {
        let store = tmp_store(
            "matrix",
            &[dummy_driver("d1"), dummy_driver("d2"), dummy_cr("c1")],
        );
        let scenarios = standard_scenarios(true);
        let report = sweep_store(&store, &scenarios);
        // 2 drivers × 5 driver scenarios + 1 load × 1 load scenario + mixed.
        assert_eq!(report.cells.len(), 2 * 5 + 1 + 1);
        assert!(report.all_passed(), "failures: {:?}", report.cells);
        assert_eq!(report.schema, FLEET_REPORT_SCHEMA);
        // The signal-integrity cells surface their aggregates: one eye and
        // one MC block per driver.
        assert_eq!(report.eyes.len(), 2);
        assert_eq!(report.mc.len(), 2);
        assert!(report.eyes.iter().all(|e| {
            e.scenario == "eye-prbs7"
                && e.outcome.metrics.open
                && e.outcome.metrics.eye_height > 0.0
        }));
        assert!(report
            .mc
            .iter()
            .all(|m| m.scenario == "mc-channel" && m.summary.pass && m.summary.closed_eyes == 0));
        assert_eq!(report.models, 3);
        // Healthy dummies carry clean per-model lint summaries.
        assert_eq!(report.lints.len(), 3);
        assert!(report
            .lints
            .iter()
            .all(|l| l.errors == 0 && l.warnings == 0 && l.codes.is_empty()));
        // The mixed-bus cell runs first but is reported last.
        let mixed = report.cells.last().unwrap();
        assert_eq!(mixed.scenario, "bus-mixed");
        assert!(mixed.model.contains("d1") && mixed.model.contains("d2"));
        let ladder = report
            .cells
            .iter()
            .find(|c| c.scenario == "bus-ladder")
            .unwrap();
        let stats = ladder.stats.expect("ladder cell carries SolveStats");
        assert!(stats.unknowns > 20);
        assert!(stats.factorizations >= 1);
        std::fs::remove_dir_all(store.root()).ok();
    }

    /// A store of 100 drivers gets a mixed-bus cell over exactly the first
    /// 64 of them in store order, and the same 64 on every open.
    #[test]
    fn mixed_bus_keeps_the_first_drivers_up_to_the_cap() {
        let models: Vec<AnyModel> = (0..100).map(|i| dummy_driver(&format!("d{i}"))).collect();
        let store = tmp_store("mixedcap", &models);
        let scenarios = vec![Scenario {
            name: "bus-tiny".into(),
            applies_to: Applicability::Drivers,
            kind: ScenarioKind::BusLadder {
                conductors: 2,
                segments: 1,
                pattern: "01".into(),
                bit_time: 2e-9,
                t_stop: 1e-10,
            },
        }];
        let expected: Vec<String> = store
            .models()
            .iter()
            .take(MIXED_BUS_MAX_DRIVERS)
            .map(|(_, m)| m.name().to_string())
            .collect();
        // Store order is sorted by path ("m10.mdlx" before "m2.mdlx"), not
        // by the order the files were written.
        assert_eq!(expected[..3], ["d0", "d1", "d10"]);
        let report = sweep_store(&store, &scenarios);
        let mixed = report.cells.last().unwrap();
        assert_eq!(mixed.scenario, "bus-mixed");
        assert!(mixed.pass, "{mixed:?}");
        assert_eq!(mixed.model, format!("mixed:{}", expected.join("+")));
        let reopened = ModelStore::open(store.root()).unwrap();
        let again = sweep_store(&reopened, &scenarios);
        assert_eq!(again.cells.last().unwrap().model, mixed.model);
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn eight_lane_eye_workload_sweeps_through_the_fleet_engine() {
        let store = tmp_store("wide", &[dummy_driver("wide1")]);
        let scenarios = vec![Scenario {
            name: "eye-wide".into(),
            applies_to: Applicability::Drivers,
            kind: ScenarioKind::Eye(EyeWorkload {
                prbs: 7,
                bits: 12,
                seed: 3,
                bit_time: 2e-9,
                lanes: 8,
                segments: 2,
            }),
        }];
        let report = sweep_store(&store, &scenarios);
        assert!(report.all_passed(), "failures: {:?}", report.cells);
        assert_eq!(report.eyes.len(), 1);
        let outcome = &report.eyes[0].outcome;
        assert_eq!(outcome.lanes, 8);
        assert!(outcome.worst_lane < 8);
        assert!(outcome.metrics.open && outcome.metrics.eye_height > 0.0);
        assert!(outcome.metrics.eye_width_ui > 0.5);
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn eye_and_mc_workloads_are_seed_reproducible() {
        let AnyModel::PwRbfDriver(d) = dummy_driver("det") else {
            unreachable!()
        };
        let w = EyeWorkload::standard(true);
        let dt = 25e-12;
        let mut analyzer = EyeAnalyzer::new(EyeConfig::new(w.bit_time));
        let (_, _, a) = run_eye_workload(&d, &w, dt, &mut analyzer).unwrap();
        let (_, _, b) = run_eye_workload(&d, &w, dt, &mut analyzer).unwrap();
        assert_eq!(a.worst_lane, b.worst_lane);
        assert_eq!(
            a.metrics.eye_height.to_bits(),
            b.metrics.eye_height.to_bits()
        );
        assert_eq!(
            a.metrics.jitter_pp_s.to_bits(),
            b.metrics.jitter_pp_s.to_bits()
        );
        // A different seed steers every lane onto a different PRBS stream.
        let mut other = w.clone();
        other.seed = 99;
        let (_, _, c) = run_eye_workload(&d, &other, dt, &mut analyzer).unwrap();
        assert_eq!(c.seed, 99);

        let mw = McWorkload::standard(true);
        let (_, _, s1) = run_mc_workload(&d, &mw, dt).unwrap();
        let (_, _, s2) = run_mc_workload(&d, &mw, dt).unwrap();
        assert_eq!(s1.eye_height_min.to_bits(), s2.eye_height_min.to_bits());
        assert_eq!(s1.jitter_pp_q_s.to_bits(), s2.jitter_pp_q_s.to_bits());
        assert_eq!(s1.trials, mw.trials);
    }

    /// The error `run_eye_workload` refuses `w` with (on a valid driver and
    /// analyzer, so only the workload can be at fault).
    fn eye_error(w: EyeWorkload) -> String {
        let AnyModel::PwRbfDriver(d) = dummy_driver("degenerate") else {
            unreachable!()
        };
        let mut analyzer = EyeAnalyzer::new(EyeConfig::new(2e-9));
        run_eye_workload(&d, &w, 25e-12, &mut analyzer)
            .unwrap_err()
            .to_string()
    }

    /// The error `run_mc_workload` refuses `w` with.
    fn mc_error(w: McWorkload) -> String {
        let AnyModel::PwRbfDriver(d) = dummy_driver("degenerate") else {
            unreachable!()
        };
        run_mc_workload(&d, &w, 25e-12).unwrap_err().to_string()
    }

    #[test]
    fn mc_workload_rejects_trials_out_of_bounds() {
        for trials in [0, 4097] {
            let w = McWorkload {
                trials,
                ..McWorkload::standard(true)
            };
            assert_eq!(
                mc_error(w),
                format!("trials: expected a whole number in 1..=4096, got {trials}")
            );
        }
    }

    #[test]
    fn workloads_reject_bits_out_of_bounds() {
        for bits in [0, 3, 65537] {
            let want = format!("bits: expected a whole number in 4..=65536, got {bits}");
            let eye = EyeWorkload {
                bits,
                ..EyeWorkload::standard(true)
            };
            assert_eq!(eye_error(eye), want);
            let mc = McWorkload {
                bits,
                ..McWorkload::standard(true)
            };
            assert_eq!(mc_error(mc), want);
        }
    }

    #[test]
    fn eye_workload_rejects_lanes_out_of_bounds() {
        for lanes in [0, 65] {
            let w = EyeWorkload {
                lanes,
                ..EyeWorkload::standard(true)
            };
            assert_eq!(
                eye_error(w),
                format!("lanes: expected a whole number in 1..=64, got {lanes}")
            );
        }
    }

    #[test]
    fn workloads_reject_a_degenerate_bit_time() {
        let AnyModel::PwRbfDriver(d) = dummy_driver("degenerate") else {
            unreachable!()
        };
        for bit_time in [f64::NAN, 0.0, -2e-9, f64::INFINITY] {
            let want = format!("bit_time: expected a finite number > 0 s, got {bit_time}");
            let eye = EyeWorkload {
                bit_time,
                ..EyeWorkload::standard(true)
            };
            // A sweep cell fails with the same message, not a panic.
            let scenario = Scenario {
                name: "eye".into(),
                applies_to: Applicability::Drivers,
                kind: ScenarioKind::Eye(eye.clone()),
            };
            assert_eq!(run_sweep_cell(&d, &scenario).detail, want);
            assert_eq!(eye_error(eye), want);
            let mc = McWorkload {
                bit_time,
                ..McWorkload::standard(true)
            };
            assert_eq!(mc_error(mc), want);
        }
    }

    /// An eye outcome whose floats cover every class the encoder
    /// distinguishes: finite, NaN, +inf, -inf and -0.
    pub(crate) fn golden_eye() -> EyeOutcome {
        EyeOutcome {
            prbs: 7,
            bits: 24,
            seed: u64::MAX,
            lanes: 4,
            worst_lane: 2,
            metrics: EyeMetrics {
                open: true,
                eye_height: 0.8125,
                eye_width_ui: 0.1 + 0.2,
                jitter_pp_s: 1.5e-11,
                jitter_rms_s: f64::NAN,
                overshoot: f64::INFINITY,
                undershoot: f64::NEG_INFINITY,
                v_high: 1.8,
                v_low: -0.0,
                crossings: 17,
                samples: 960,
            },
        }
    }

    pub(crate) fn golden_mc() -> McSummary {
        McSummary {
            trials: 8,
            seed: 0xec0_5eed,
            closed_eyes: 1,
            eye_height_min: 5e-324,
            eye_height_mean: f64::NAN,
            eye_height_q05: 0.25,
            eye_width_min_ui: f64::INFINITY,
            jitter_pp_q_s: 1e-300,
            jitter_pp_max_s: f64::NEG_INFINITY,
            pass: false,
        }
    }

    /// A failed eye cell with every optional block present and names that
    /// need escaping.
    pub(crate) fn golden_cell() -> CellReport {
        CellReport {
            rms_error: Some(0.0125),
            max_error: Some(f64::NAN),
            timing_error_s: None,
            rms_limit: Some(f64::INFINITY),
            samples: 321,
            v_min: f64::NEG_INFINITY,
            v_max: 1.8,
            stats: Some(CellStats {
                symbolic_analyses: 1,
                factorizations: 12,
                factor_nnz: 40,
                flops: u64::MAX,
                newton_iterations: 30,
                unknowns: 9,
            }),
            eye: Some(golden_eye()),
            mc: Some(golden_mc()),
            elapsed_s: 0.5,
            ..CellReport::gated(
                "drv \"q\" \\ é".into(),
                "pwrbf-driver",
                "eye-prbs7",
                Err("line1\nline2\t\u{1}\u{7f}✓".into()),
            )
        }
    }

    fn golden_fleet(populated: bool) -> FleetReport {
        let mut report = FleetReport {
            schema: FLEET_REPORT_SCHEMA,
            store_root: "st\"ore\\dir\n".into(),
            mode: "sweep".into(),
            artifacts: 3,
            models: 2,
            load_failures: Vec::new(),
            lints: Vec::new(),
            cells: Vec::new(),
            eyes: Vec::new(),
            mc: Vec::new(),
        };
        if populated {
            report.load_failures = vec![
                ("bad\u{1}.mdlx".into(), "línea \"3\"".into()),
                ("b2".into(), "e2".into()),
            ];
            let lint = |model: &str, errors, codes: &[&str]| ModelLint {
                model: model.into(),
                errors,
                warnings: 0,
                infos: 2,
                codes: codes.iter().map(|c| c.to_string()).collect(),
            };
            report.lints = vec![lint("m\"1", 1, &["M001", "M007"]), lint("m2", 0, &[])];
            report.cells = vec![
                golden_cell(),
                CellReport::gated("c\\r".into(), "cr", "pulse", Ok(())),
            ];
            collect_si_aggregates(&mut report);
        }
        report
    }

    #[test]
    fn json_emitters_match_golden_bytes() {
        assert_eq!(
            golden_eye().json(),
            concat!(
                "{\"prbs\": 7, \"bits\": 24, \"seed\": 18446744073709551615, \"lanes\": 4, ",
                "\"worst_lane\": 2, \"open\": true, \"eye_height\": 8.125e-1, ",
                "\"eye_width_ui\": 3.0000000000000004e-1, \"jitter_pp_s\": 1.5e-11, ",
                "\"jitter_rms_s\": null, \"overshoot\": null, \"undershoot\": null, ",
                "\"v_high\": 1.8e0, \"v_low\": -0e0, \"crossings\": 17}",
            )
        );
        assert_eq!(
            mc_summary_json(&golden_mc()),
            concat!(
                "{\"trials\": 8, \"seed\": 247488237, \"closed_eyes\": 1, ",
                "\"eye_height_min\": 5e-324, \"eye_height_mean\": null, ",
                "\"eye_height_q05\": 2.5e-1, \"eye_width_min_ui\": null, ",
                "\"jitter_pp_q_s\": 1e-300, \"jitter_pp_max_s\": null, \"pass\": false}",
            )
        );
        assert_eq!(
            golden_fleet(false).to_json(),
            concat!(
                "{\n",
                "  \"schema\": 2,\n",
                "  \"store\": \"st\\\"ore\\\\dir\\n\",\n",
                "  \"mode\": \"sweep\",\n",
                "  \"artifacts\": 3,\n",
                "  \"models\": 2,\n",
                "  \"passed\": 0,\n",
                "  \"failed\": 0,\n",
                "  \"all_passed\": true,\n",
                "  \"load_failures\": [],\n",
                "  \"lints\": [],\n",
                "  \"cells\": [],\n",
                "  \"eyes\": [],\n",
                "  \"mc\": []\n",
                "}\n",
            )
        );
        assert_eq!(
            golden_fleet(true).to_json(),
            concat!(
                "{\n",
                "  \"schema\": 2,\n",
                "  \"store\": \"st\\\"ore\\\\dir\\n\",\n",
                "  \"mode\": \"sweep\",\n",
                "  \"artifacts\": 3,\n",
                "  \"models\": 2,\n",
                "  \"passed\": 1,\n",
                "  \"failed\": 1,\n",
                "  \"all_passed\": false,\n",
                "  \"load_failures\": [\n",
                "    {\"path\": \"bad\\u0001.mdlx\", \"error\": \"línea \\\"3\\\"\"},\n",
                "    {\"path\": \"b2\", \"error\": \"e2\"}\n",
                "  ],\n",
                "  \"lints\": [\n",
                "    {\"model\": \"m\\\"1\", \"errors\": 1, \"warnings\": 0, \"infos\": 2, ",
                "\"codes\": [\"M001\", \"M007\"]},\n",
                "    {\"model\": \"m2\", \"errors\": 0, \"warnings\": 0, \"infos\": 2, ",
                "\"codes\": []}\n",
                "  ],\n",
                "  \"cells\": [\n",
                "    {\"model\": \"drv \\\"q\\\" \\\\ é\", \"kind\": \"pwrbf-driver\", ",
                "\"scenario\": \"eye-prbs7\", \"pass\": false, ",
                "\"detail\": \"line1\\nline2\\t\\u0001\u{7f}✓\", \"rms_error\": 1.25e-2, ",
                "\"max_error\": null, \"timing_error_s\": null, \"rms_limit\": null, ",
                "\"samples\": 321, \"v_min\": null, \"v_max\": 1.8e0, ",
                "\"stats\": {\"symbolic_analyses\": 1, \"factorizations\": 12, ",
                "\"factor_nnz\": 40, \"flops\": 18446744073709551615, ",
                "\"newton_iterations\": 30, \"unknowns\": 9}, \"eye\": {\"prbs\": 7, ",
                "\"bits\": 24, \"seed\": 18446744073709551615, \"lanes\": 4, \"worst_lane\": 2, ",
                "\"open\": true, \"eye_height\": 8.125e-1, ",
                "\"eye_width_ui\": 3.0000000000000004e-1, \"jitter_pp_s\": 1.5e-11, ",
                "\"jitter_rms_s\": null, \"overshoot\": null, \"undershoot\": null, ",
                "\"v_high\": 1.8e0, \"v_low\": -0e0, \"crossings\": 17}, \"mc\": {\"trials\": 8, ",
                "\"seed\": 247488237, \"closed_eyes\": 1, \"eye_height_min\": 5e-324, ",
                "\"eye_height_mean\": null, \"eye_height_q05\": 2.5e-1, ",
                "\"eye_width_min_ui\": null, \"jitter_pp_q_s\": 1e-300, ",
                "\"jitter_pp_max_s\": null, \"pass\": false}, \"elapsed_s\": 5e-1},\n",
                "    {\"model\": \"c\\\\r\", \"kind\": \"cr\", \"scenario\": \"pulse\", \"pass\": true, ",
                "\"detail\": \"\", \"rms_error\": null, \"max_error\": null, ",
                "\"timing_error_s\": null, \"rms_limit\": null, \"samples\": 0, \"v_min\": 0e0, ",
                "\"v_max\": 0e0, \"stats\": null, \"eye\": null, \"mc\": null, ",
                "\"elapsed_s\": 0e0}\n",
                "  ],\n",
                "  \"eyes\": [\n",
                "    {\"model\": \"drv \\\"q\\\" \\\\ é\", \"scenario\": \"eye-prbs7\", ",
                "\"outcome\": {\"prbs\": 7, \"bits\": 24, \"seed\": 18446744073709551615, ",
                "\"lanes\": 4, \"worst_lane\": 2, \"open\": true, \"eye_height\": 8.125e-1, ",
                "\"eye_width_ui\": 3.0000000000000004e-1, \"jitter_pp_s\": 1.5e-11, ",
                "\"jitter_rms_s\": null, \"overshoot\": null, \"undershoot\": null, ",
                "\"v_high\": 1.8e0, \"v_low\": -0e0, \"crossings\": 17}}\n",
                "  ],\n",
                "  \"mc\": [\n",
                "    {\"model\": \"drv \\\"q\\\" \\\\ é\", \"scenario\": \"eye-prbs7\", ",
                "\"summary\": {\"trials\": 8, \"seed\": 247488237, \"closed_eyes\": 1, ",
                "\"eye_height_min\": 5e-324, \"eye_height_mean\": null, ",
                "\"eye_height_q05\": 2.5e-1, \"eye_width_min_ui\": null, ",
                "\"jitter_pp_q_s\": 1e-300, \"jitter_pp_max_s\": null, \"pass\": false}}\n",
                "  ]\n",
                "}\n",
            )
        );
    }

    /// Truncated and byte-flipped goldens parse to `Ok` or a typed error,
    /// never a panic, and so does nesting past the reader's depth bound.
    #[test]
    fn json_reader_survives_mutated_goldens() {
        let deep = json::MAX_DEPTH + 8;
        let goldens = [
            golden_fleet(true).to_json(),
            golden_fleet(false).to_json(),
            golden_eye().json(),
            mc_summary_json(&golden_mc()),
            "[".repeat(deep) + &"]".repeat(deep),
        ];
        let too_deep = json::parse(&goldens[4]).map_err(|e| e.kind);
        assert_eq!(too_deep, Err(json::JsonErrorKind::TooDeep));
        let bytes_to_insert = b"\"\\{}[],:-+.eE0u\n\x01\xc3\xa9";
        let mut rng = numkit::rng::SplitMix64::new(0x15_0e);
        let (mut ok, mut rejected) = (0, 0);
        for golden in &goldens {
            for _ in 0..1000 {
                let mut bytes = golden.clone().into_bytes();
                let pick = |rng: &mut numkit::rng::SplitMix64| {
                    bytes_to_insert[rng.below(bytes_to_insert.len())]
                };
                match rng.below(3) {
                    0 => bytes.truncate(rng.below(bytes.len())),
                    1 => {
                        for _ in 0..=rng.below(4) {
                            let at = rng.below(bytes.len());
                            bytes[at] = pick(&mut rng);
                        }
                    }
                    _ => {
                        let at = rng.below(bytes.len());
                        bytes.insert(at, pick(&mut rng));
                    }
                }
                match json::parse(&String::from_utf8_lossy(&bytes)) {
                    Ok(_) => ok += 1,
                    Err(_) => rejected += 1,
                }
            }
        }
        assert!(ok > 0 && rejected > 0, "{ok} accepted, {rejected} rejected");
    }

    #[test]
    fn json_report_is_well_formed() {
        let store = tmp_store("json", &[dummy_driver("d1"), dummy_cr("c\"quote")]);
        let report = sweep_store(&store, &standard_scenarios(true));
        let doc = json::parse(&report.to_json()).expect("the report is valid JSON");
        let get = |key| doc.get(key).unwrap_or_else(|| panic!("missing {key}"));
        assert_eq!(get("mode").as_str(), Some("sweep"));
        assert_eq!(get("all_passed").as_bool(), Some(true));
        assert_eq!(get("schema").as_u64(), Some(u64::from(FLEET_REPORT_SCHEMA)));
        let lints = get("lints").as_array().unwrap();
        let names: Vec<_> = lints.iter().map(|l| l.get("model").unwrap()).collect();
        assert!(
            names.iter().any(|n| n.as_str() == Some("c\"quote")),
            "{names:?}"
        );
        let cells = get("cells").as_array().unwrap();
        assert_eq!(cells.len(), report.cells.len());
        let eyes = get("eyes").as_array().unwrap();
        assert_eq!(eyes.len(), 1, "top-level eye aggregates");
        let height = eyes[0].get("outcome").and_then(|o| o.get("eye_height"));
        assert_eq!(
            height.and_then(json::Value::as_f64).map(f64::to_bits),
            Some(report.eyes[0].outcome.metrics.eye_height.to_bits())
        );
        let mc = get("mc").as_array().unwrap();
        assert_eq!(mc.len(), 1, "top-level MC aggregates");
        let jitter = mc[0].get("summary").and_then(|s| s.get("jitter_pp_q_s"));
        assert_eq!(
            jitter.and_then(json::Value::as_f64).map(f64::to_bits),
            Some(report.mc[0].summary.jitter_pp_q_s.to_bits())
        );
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn panicking_sweep_cell_fails_only_itself() {
        let store = tmp_store("panic", &[dummy_driver("d1")]);
        // '2' is no bit: the install rejects the stimulus with a typed
        // error, so the cell fails without panicking.
        let bad = Scenario {
            name: "bad-pattern".into(),
            applies_to: Applicability::Drivers,
            kind: ScenarioKind::Fixture {
                fixture: TestFixture::resistive(50.0),
                stim: Some(PortStimulus::new("012", 1e-9)),
                t_stop: 3e-9,
            },
        };
        // A conductor-less bus is rejected by the line expansion: a typed
        // failure, no panic.
        let empty_bus = Scenario {
            name: "empty-bus".into(),
            applies_to: Applicability::Drivers,
            kind: ScenarioKind::BusLadder {
                conductors: 0,
                segments: 1,
                pattern: "01".into(),
                bit_time: 1e-9,
                t_stop: 3e-9,
            },
        };
        // A zero-ohm load trips `Resistor::new`'s assertion: the cell panics.
        let zero_ohm = Scenario {
            name: "zero-ohm".into(),
            applies_to: Applicability::Drivers,
            kind: ScenarioKind::Fixture {
                fixture: TestFixture::resistive(0.0),
                stim: Some(PortStimulus::new("01", 1e-9)),
                t_stop: 3e-9,
            },
        };
        let r50 = standard_scenarios(true)
            .into_iter()
            .find(|s| s.name == "r50")
            .unwrap();
        let report = sweep_store(&store, &[bad, empty_bus, zero_ohm, r50]);
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.failed(), 3);
        let bad = &report.cells[0];
        assert_eq!(bad.scenario, "bad-pattern");
        assert!(
            !bad.detail.starts_with("panic: ") && bad.detail.contains("\"012\""),
            "{}",
            bad.detail
        );
        let empty = &report.cells[1];
        assert_eq!(empty.scenario, "empty-bus");
        assert!(
            !empty.detail.starts_with("panic: ") && empty.detail.contains("coupled line"),
            "{}",
            empty.detail
        );
        let panicked = &report.cells[2];
        assert_eq!(panicked.scenario, "zero-ohm");
        assert!(
            panicked.detail.starts_with("panic: ")
                && panicked.detail.contains("resistance must be positive"),
            "{}",
            panicked.detail
        );
        assert!(report.cells[3].pass, "{}", report.cells[3].detail);
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn load_failures_fail_the_fleet() {
        let dir = std::env::temp_dir().join(format!("serve_store_bad_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        save_model_to_path(&dummy_driver("d1"), dir.join("ok.mdlx")).unwrap();
        std::fs::write(dir.join("bad.mdlx"), "mdlx 1 pwrbf-driver\njunk\n").unwrap();
        let store = ModelStore::open(&dir).unwrap();
        let report = sweep_store(&store, &standard_scenarios(true));
        assert_eq!(report.load_failures.len(), 1);
        assert!(!report.all_passed(), "load failure must fail the fleet");
        assert_eq!(report.failed(), 0, "the loadable model's cells still pass");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_reference_fails_validation_cell() {
        let store = tmp_store("noref", &[dummy_driver("mystery")]);
        let report = validate_store(&store, true);
        assert_eq!(report.cells.len(), 1);
        assert!(!report.cells[0].pass);
        assert!(report.cells[0].detail.contains("no reference"));
        std::fs::remove_dir_all(store.root()).ok();
    }
}
