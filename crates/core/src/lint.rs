//! Static diagnostic engine for macromodel artifacts (`mdl lint`).
//!
//! This module is the analysis layer between `validate()` — which rejects
//! models that are structurally *broken* — and the simulator, which only
//! discovers problems at runtime. Lint rules look for models that are
//! well-formed but *suspicious*: marginally stable feedback polynomials,
//! degenerate RBF center placements, non-monotone or implausibly steep I–V
//! tables, switching weights far outside their physical range, and missing
//! provenance. A second rule pack instantiates each model into a reference
//! test fixture and audits the resulting MNA structure (structural rank,
//! floating nodes, `register()`-vs-`stamp()` pattern consistency).
//!
//! Every finding carries a stable code (`M00x` for model-semantic rules,
//! `C00x` for circuit-structural rules) so severities can be tuned per code
//! via [`LintConfig`] without parsing messages.
//!
//! # Example
//!
//! ```
//! use macromodel::lint::{lint_artifact, LintConfig};
//! use macromodel::exchange::{AnyModel, Artifact};
//! use macromodel::receiver::CrModel;
//! use numkit::interp::Pwl;
//!
//! let iv = Pwl::new(vec![-1.0, 0.0, 1.0], vec![-0.1, 0.0, 0.1]).unwrap();
//! let model = CrModel::new("rx", 1e-12, iv).unwrap();
//! let report = lint_artifact(&Artifact::single(AnyModel::Cr(model)));
//! assert!(report.is_clean(&LintConfig::default()));
//! ```

use crate::exchange::{AnyModel, Artifact};
use crate::json::{self, Layout};
use crate::macromodel::{PortStimulus, TestFixture};
use circuit::Circuit;
use numkit::interp::Pwl;
use std::collections::BTreeSet;
use sysid::jury::feedback_stability;
use sysid::narx::NarxModel;
use sysid::rbf::RbfNetwork;

/// How severe a diagnostic is. Ordered: `Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; never affects exit status.
    Info,
    /// Suspicious but not necessarily wrong.
    Warn,
    /// Almost certainly a defect; fails `mdl lint` by default.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        })
    }
}

/// A single lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`M001`…, `C001`…).
    pub code: &'static str,
    /// Default severity of the code (before [`LintConfig`] overrides).
    pub severity: Severity,
    /// What the finding is about (model or artifact identifier).
    pub subject: String,
    /// Human-readable description with the offending values.
    pub message: String,
}

/// Registry entry describing one diagnostic code.
#[derive(Debug, Clone, Copy)]
pub struct CodeSpec {
    /// Stable code.
    pub code: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line summary of what the rule detects.
    pub summary: &'static str,
    /// How to fix or further investigate a finding.
    pub hint: &'static str,
}

/// Every diagnostic code the engine can emit, in code order.
pub const CODES: &[CodeSpec] = &[
    CodeSpec {
        code: "M001",
        severity: Severity::Error,
        summary: "receiver linear ARX submodel fails the Jury stability test",
        hint: "re-run estimation with more data or a lower order; an unstable \
               linear core diverges in free-run simulation",
    },
    CodeSpec {
        code: "M002",
        severity: Severity::Warn,
        summary: "NARX linear output-feedback tail is unstable",
        hint: "the Gaussian units may stabilize the loop in-range, but \
               extrapolation outside the training region can diverge",
    },
    CodeSpec {
        code: "M003",
        severity: Severity::Warn,
        summary: "RBF network has near-duplicate centers at matching widths",
        hint: "coincident same-width centers make the basis ill-conditioned; \
               re-cluster or prune the smaller-weight duplicate",
    },
    CodeSpec {
        code: "M004",
        severity: Severity::Warn,
        summary: "driver RBF centers cover a small fraction of the supply range",
        hint: "the model extrapolates outside its center span; extend the \
               identification signal toward the rails",
    },
    CodeSpec {
        code: "M005",
        severity: Severity::Error,
        summary: "static I-V table is not monotonic",
        hint: "a non-monotone characteristic creates spurious equilibria and \
               breaks Newton convergence; re-sweep the DC characteristic",
    },
    CodeSpec {
        code: "M006",
        severity: Severity::Warn,
        summary: "static I-V table has an implausibly steep segment",
        hint: "a segment steeper than 1 kS usually indicates a sweep artifact \
               or unit error; check the table near the reported voltage",
    },
    CodeSpec {
        code: "M007",
        severity: Severity::Warn,
        summary: "switching weights stray far outside [0, 1]",
        hint: "weights are physical blending factors; values outside \
               [-0.5, 1.5] suggest the two identification loads were nearly \
               collinear at those samples",
    },
    CodeSpec {
        code: "M008",
        severity: Severity::Warn,
        summary: "bundle provenance is missing or carries a malformed digest",
        hint: "re-save the artifact with `Provenance::new(content_digest(..))` \
               so extraction runs stay reproducible",
    },
    CodeSpec {
        code: "C001",
        severity: Severity::Error,
        summary: "MNA pattern is structurally singular",
        hint: "some equation row or unknown column is not covered by any \
               stamp; the matrix is singular for every parameter value",
    },
    CodeSpec {
        code: "C002",
        severity: Severity::Warn,
        summary: "node is only grounded through gmin",
        hint: "a floating node solves only via the gmin regularizer; check \
               for a missing device connection",
    },
    CodeSpec {
        code: "C003",
        severity: Severity::Warn,
        summary: "device stamps positions it never registered",
        hint: "writes at unregistered positions fall into the slow overflow \
               path and can reorder fill-in; add the positions in register()",
    },
    CodeSpec {
        code: "C004",
        severity: Severity::Info,
        summary: "device registers positions it never stamps",
        hint: "harmless but wastes pattern slots; drop the unused positions \
               from register()",
    },
];

/// Looks up the [`CodeSpec`] for a code.
pub fn code_spec(code: &str) -> Option<&'static CodeSpec> {
    CODES.iter().find(|spec| spec.code == code)
}

/// Per-code severity overrides applied when reporting.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    allowed: BTreeSet<String>,
    denied: BTreeSet<String>,
}

impl LintConfig {
    /// Suppresses a code entirely.
    pub fn allow(&mut self, code: impl Into<String>) {
        let code = code.into();
        self.denied.remove(&code);
        self.allowed.insert(code);
    }

    /// Promotes a code to [`Severity::Error`].
    pub fn deny(&mut self, code: impl Into<String>) {
        let code = code.into();
        self.allowed.remove(&code);
        self.denied.insert(code);
    }

    /// The severity a diagnostic reports at under this configuration, or
    /// `None` when the code is allowed (suppressed).
    pub fn effective(&self, diag: &Diagnostic) -> Option<Severity> {
        if self.allowed.contains(diag.code) {
            return None;
        }
        if self.denied.contains(diag.code) {
            return Some(Severity::Error);
        }
        Some(diag.severity)
    }
}

/// The collected findings of one lint run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, in rule order per subject.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Counts of `(errors, warnings, infos)` under `cfg`; suppressed
    /// diagnostics count toward none.
    pub fn counts(&self, cfg: &LintConfig) -> (usize, usize, usize) {
        let mut n = (0, 0, 0);
        for diag in &self.diagnostics {
            match cfg.effective(diag) {
                Some(Severity::Error) => n.0 += 1,
                Some(Severity::Warn) => n.1 += 1,
                Some(Severity::Info) => n.2 += 1,
                None => {}
            }
        }
        n
    }

    /// Number of findings that are errors under `cfg` (what fails the CLI).
    pub fn deny_count(&self, cfg: &LintConfig) -> usize {
        self.counts(cfg).0
    }

    /// Whether no finding survives suppression.
    pub fn is_clean(&self, cfg: &LintConfig) -> bool {
        let (e, w, i) = self.counts(cfg);
        e + w + i == 0
    }

    /// Renders the report as one line per finding plus a fix hint, ending
    /// with a summary line.
    pub fn render_human(&self, cfg: &LintConfig) -> String {
        let mut out = String::new();
        for diag in &self.diagnostics {
            let Some(sev) = cfg.effective(diag) else {
                continue;
            };
            out.push_str(&format!(
                "{sev}[{}] {}: {}\n",
                diag.code, diag.subject, diag.message
            ));
            if let Some(spec) = code_spec(diag.code) {
                out.push_str(&format!("  hint: {}\n", spec.hint));
            }
        }
        let (e, w, i) = self.counts(cfg);
        out.push_str(&format!(
            "lint: {e} error(s), {w} warning(s), {i} info(s)\n"
        ));
        out
    }

    /// Renders the report as a compact JSON object.
    pub fn to_json(&self, cfg: &LintConfig) -> String {
        json::object(Layout::Compact, |o| {
            o.array("diagnostics", Layout::Compact, |a| {
                for diag in &self.diagnostics {
                    let Some(sev) = cfg.effective(diag) else {
                        continue;
                    };
                    a.object(Layout::Compact, |o| {
                        o.field("code", diag.code)
                            .field("severity", sev.to_string())
                            .field("subject", &diag.subject)
                            .field("message", &diag.message);
                    });
                }
            });
            let (e, w, i) = self.counts(cfg);
            o.field("errors", e).field("warnings", w).field("infos", i);
        })
    }
}

fn diag(code: &'static str, subject: &str, message: String) -> Diagnostic {
    let spec = code_spec(code).expect("diagnostic emitted with unregistered code");
    Diagnostic {
        code,
        severity: spec.severity,
        subject: subject.to_string(),
        message,
    }
}

fn model_subject(model: &AnyModel) -> String {
    let dynm = model.as_dyn();
    format!("{} '{}'", dynm.kind().tag(), dynm.name())
}

// ---------------------------------------------------------------------------
// Model-semantic rules (M-codes)
// ---------------------------------------------------------------------------

/// M002: the linear output-feedback tail of a NARX model — the `y(k-j)`
/// coefficients of its affine part — forms a linear recursion that must be
/// stable for the model to be safe under extrapolation.
fn check_narx_tail(net: &NarxModel, subject: &str, label: &str, out: &mut Vec<Diagnostic>) {
    let orders = net.orders();
    let linear = net.network().linear();
    if orders.output_lags == 0 || linear.len() != orders.dim() {
        return;
    }
    let tail = &linear[orders.input_lags + 1..];
    if tail.iter().all(|c| c.abs() == 0.0) {
        return;
    }
    let result = feedback_stability(tail);
    if !result.stable {
        out.push(diag(
            "M002",
            subject,
            format!(
                "{label} linear output-feedback tail {tail:?} is unstable \
                 (Jury margin {:.3})",
                result.margin
            ),
        ));
    }
}

/// M003: near-duplicate RBF centers at (nearly) the same width — minimum
/// pairwise distance below `1e-3 ×` the mean width among width-matched
/// pairs.
fn check_center_spacing(net: &RbfNetwork, subject: &str, label: &str, out: &mut Vec<Diagnostic>) {
    let centers = net.centers();
    if centers.len() < 2 {
        return;
    }
    let mean_width = net.widths().iter().sum::<f64>() / net.widths().len() as f64;
    if !(mean_width > 0.0 && mean_width.is_finite()) {
        return;
    }
    // Two basis functions are redundant only when both their centers AND
    // their widths (nearly) coincide: the multi-scale trainer deliberately
    // reuses one center at several widths, and those are independent
    // regressors. Flag the closest truly-duplicate pair.
    let widths = net.widths();
    let mut min_dist = f64::INFINITY;
    let mut pair = (0, 0);
    for i in 0..centers.len() {
        for j in (i + 1)..centers.len() {
            let dw = (widths[i] - widths[j]).abs();
            if dw > 1e-3 * widths[i].abs().max(widths[j].abs()) {
                continue;
            }
            let d = centers[i]
                .iter()
                .zip(&centers[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            if d < min_dist {
                min_dist = d;
                pair = (i, j);
            }
        }
    }
    if min_dist < 1e-3 * mean_width {
        out.push(diag(
            "M003",
            subject,
            format!(
                "{label} centers {} and {} are {min_dist:.3e} apart \
                 with matching widths (mean width {mean_width:.3e})",
                pair.0, pair.1
            ),
        ));
    }
}

/// M004: a driver submodel whose centers span a small fraction of the
/// supply range in the present-voltage coordinate extrapolates over most of
/// the operating region.
fn check_center_coverage(
    net: &RbfNetwork,
    vdd: f64,
    subject: &str,
    label: &str,
    out: &mut Vec<Diagnostic>,
) {
    let centers = net.centers();
    if centers.len() < 2 || !vdd.is_finite() || vdd <= 0.0 {
        return;
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for c in centers {
        if let Some(&v) = c.first() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let span = hi - lo;
    if span.is_finite() && span < 0.35 * vdd {
        out.push(diag(
            "M004",
            subject,
            format!(
                "{label} centers span only {span:.3} V of the {vdd:.3} V \
                 supply range (coverage {:.0}%)",
                100.0 * span / vdd
            ),
        ));
    }
}

/// M005/M006: direction-agnostic monotonicity and slope sanity of a static
/// I-V table.
fn check_iv_table(pwl: &Pwl, subject: &str, label: &str, out: &mut Vec<Diagnostic>) {
    let y = pwl.y();
    let x = pwl.x();
    let mut rises = false;
    let mut falls = false;
    for w in y.windows(2) {
        if w[1] > w[0] {
            rises = true;
        }
        if w[1] < w[0] {
            falls = true;
        }
    }
    if rises && falls {
        out.push(diag(
            "M005",
            subject,
            format!(
                "{label} current is not monotonic in voltage ({} points)",
                y.len()
            ),
        ));
    }
    const MAX_SLOPE: f64 = 1e3; // siemens
    for (k, (wx, wy)) in x.windows(2).zip(y.windows(2)).enumerate() {
        let slope = (wy[1] - wy[0]) / (wx[1] - wx[0]);
        if slope.abs() > MAX_SLOPE {
            out.push(diag(
                "M006",
                subject,
                format!(
                    "{label} segment {k} near {:.3} V has slope {slope:.3e} S \
                     (limit {MAX_SLOPE:.0e} S)",
                    wx[0]
                ),
            ));
            break; // one finding per table is enough
        }
    }
}

/// M007: switching weights or IBIS k-coefficients far outside the physical
/// blending range `[0, 1]`.
fn check_weight_range(values: &[f64], subject: &str, label: &str, out: &mut Vec<Diagnostic>) {
    const LO: f64 = -0.5;
    const HI: f64 = 1.5;
    if let Some((k, &w)) = values
        .iter()
        .enumerate()
        .find(|(_, w)| !(LO..=HI).contains(*w))
    {
        out.push(diag(
            "M007",
            subject,
            format!("{label} sample {k} is {w:.3}, outside [{LO}, {HI}]"),
        ));
    }
}

/// Runs the model-semantic rule pack on one model.
pub fn lint_model(model: &AnyModel) -> Vec<Diagnostic> {
    let subject = model_subject(model);
    let mut out = Vec::new();
    match model {
        AnyModel::PwRbfDriver(m) => {
            check_narx_tail(&m.i_high, &subject, "i_high", &mut out);
            check_narx_tail(&m.i_low, &subject, "i_low", &mut out);
            check_center_spacing(m.i_high.network(), &subject, "i_high", &mut out);
            check_center_spacing(m.i_low.network(), &subject, "i_low", &mut out);
            check_center_coverage(m.i_high.network(), m.vdd, &subject, "i_high", &mut out);
            check_center_coverage(m.i_low.network(), m.vdd, &subject, "i_low", &mut out);
            check_weight_range(m.up.w_high(), &subject, "up w_high", &mut out);
            check_weight_range(m.up.w_low(), &subject, "up w_low", &mut out);
            check_weight_range(m.down.w_high(), &subject, "down w_high", &mut out);
            check_weight_range(m.down.w_low(), &subject, "down w_low", &mut out);
        }
        AnyModel::Receiver(m) => {
            let result = feedback_stability(m.linear.a());
            if !result.stable {
                out.push(diag(
                    "M001",
                    &subject,
                    format!(
                        "linear ARX submodel a = {:?} fails the Jury test \
                         (margin {:.3}, spectral radius {:.4})",
                        m.linear.a(),
                        result.margin,
                        m.linear.spectral_radius()
                    ),
                ));
            }
            check_narx_tail(&m.up, &subject, "up", &mut out);
            check_narx_tail(&m.down, &subject, "down", &mut out);
            check_center_spacing(m.up.network(), &subject, "up", &mut out);
            check_center_spacing(m.down.network(), &subject, "down", &mut out);
        }
        AnyModel::Cr(m) => {
            check_iv_table(&m.static_iv, &subject, "static I-V", &mut out);
        }
        AnyModel::Ibis(m) => {
            check_iv_table(&m.pullup, &subject, "pullup", &mut out);
            check_iv_table(&m.pulldown, &subject, "pulldown", &mut out);
            check_weight_range(&m.ku_rise, &subject, "ku_rise", &mut out);
            check_weight_range(&m.kd_rise, &subject, "kd_rise", &mut out);
            check_weight_range(&m.ku_fall, &subject, "ku_fall", &mut out);
            check_weight_range(&m.kd_fall, &subject, "kd_fall", &mut out);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Circuit-structural rules (C-codes)
// ---------------------------------------------------------------------------

/// Instantiates the model into a reference fixture (50 Ω resistive load,
/// `01` pattern for drivers) and audits the MNA structure, mapping
/// [`circuit::lint::StructuralIssue`]s onto the shared diagnostic codes.
fn structural_audit(model: &AnyModel, out: &mut Vec<Diagnostic>) {
    let subject = model_subject(model);
    let dynm = model.as_dyn();
    let mut ckt = Circuit::new();
    let pad = ckt.node("pad");
    TestFixture::resistive(50.0).install(&mut ckt, pad);
    // Sampled devices assert the transient step equals their sample clock.
    let dt = dynm.sample_time().filter(|ts| *ts > 0.0).unwrap_or(1e-9);
    let stim = PortStimulus::new("01", 64.0 * dt);
    let stim = dynm.kind().is_driver().then_some(&stim);
    if dynm.instantiate(&mut ckt, pad, stim).is_err() {
        // Instantiation failures are validate()-level problems the loader
        // reports on its own; nothing structural to audit.
        return;
    }
    for issue in circuit::lint::audit_circuit_with_dt(&mut ckt, dt) {
        let spec = code_spec(issue.code).expect("audit issued unknown code");
        out.push(Diagnostic {
            code: spec.code,
            severity: spec.severity,
            subject: format!("{subject} [{}]", issue.subject),
            message: issue.message,
        });
    }
}

/// Runs the model-semantic rules plus the circuit-structural audit.
pub fn lint_model_full(model: &AnyModel) -> Vec<Diagnostic> {
    let mut out = lint_model(model);
    structural_audit(model, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Artifact-level rules
// ---------------------------------------------------------------------------

fn digest_is_well_formed(digest: &str) -> bool {
    digest == "-"
        || (digest.len() == 16
            && digest
                .chars()
                .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()))
}

/// Lints a whole artifact: provenance checks plus the full per-model rule
/// packs.
pub fn lint_artifact(artifact: &Artifact) -> LintReport {
    let mut report = LintReport::default();
    if artifact.version >= 2 {
        match &artifact.provenance {
            None => report.diagnostics.push(diag(
                "M008",
                "<artifact>",
                "v2 bundle has no provenance block".to_string(),
            )),
            Some(p) if !digest_is_well_formed(&p.config_digest) => report.diagnostics.push(diag(
                "M008",
                "<artifact>",
                format!(
                    "config digest {:?} is neither '-' nor 16 lowercase hex digits",
                    p.config_digest
                ),
            )),
            Some(_) => {}
        }
    }
    for model in &artifact.models {
        report.diagnostics.extend(lint_model_full(model));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{PwRbfDriverModel, WeightSequence};
    use crate::exchange::Provenance;
    use crate::receiver::{CrModel, ReceiverModel};
    use sysid::arx::{ArxModel, ArxOrders};
    use sysid::narx::NarxOrders;

    fn stable_narx() -> NarxModel {
        NarxModel::from_network(
            NarxOrders::dynamic(1),
            RbfNetwork::affine(0.0, vec![0.01, 0.0, 0.2]),
        )
        .unwrap()
    }

    fn healthy_driver() -> PwRbfDriverModel {
        PwRbfDriverModel {
            name: "drv".into(),
            ts: 25e-12,
            vdd: 1.8,
            i_high: stable_narx(),
            i_low: stable_narx(),
            up: WeightSequence::new(vec![0.0, 0.5, 1.0], vec![1.0, 0.5, 0.0]).unwrap(),
            down: WeightSequence::new(vec![1.0, 0.5, 0.0], vec![0.0, 0.5, 1.0]).unwrap(),
        }
    }

    fn healthy_receiver() -> ReceiverModel {
        let linear =
            ArxModel::from_coefficients(ArxOrders { na: 1, nb: 1 }, vec![0.5], vec![0.1, -0.1])
                .unwrap();
        ReceiverModel {
            name: "rx".into(),
            ts: 25e-12,
            vdd: 1.8,
            linear,
            up: stable_narx(),
            down: stable_narx(),
        }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn code_registry_is_consistent() {
        let mut seen = BTreeSet::new();
        for spec in CODES {
            assert!(seen.insert(spec.code), "duplicate code {}", spec.code);
            assert!(!spec.summary.is_empty() && !spec.hint.is_empty());
            assert!(spec.code.starts_with('M') || spec.code.starts_with('C'));
        }
        assert_eq!(code_spec("M001").unwrap().severity, Severity::Error);
        assert_eq!(code_spec("C004").unwrap().severity, Severity::Info);
        assert!(code_spec("Z999").is_none());
    }

    #[test]
    fn severity_ordering_and_display() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        assert_eq!(Severity::Warn.to_string(), "warning");
    }

    #[test]
    fn healthy_models_lint_clean_including_structure() {
        for model in [
            AnyModel::PwRbfDriver(healthy_driver()),
            AnyModel::Receiver(healthy_receiver()),
        ] {
            let diags = lint_model_full(&model);
            assert!(diags.is_empty(), "unexpected findings: {diags:?}");
        }
    }

    #[test]
    fn m001_unstable_receiver_linear_core() {
        let mut m = healthy_receiver();
        m.linear =
            ArxModel::from_coefficients(ArxOrders { na: 1, nb: 0 }, vec![1.5], vec![1.0]).unwrap();
        let diags = lint_model(&AnyModel::Receiver(m));
        assert_eq!(codes(&diags), vec!["M001"]);
        // Marginally stable (rho exactly 1) passes validate() but trips lint:
        // the Jury margin is zero.
        let mut m = healthy_receiver();
        m.linear =
            ArxModel::from_coefficients(ArxOrders { na: 1, nb: 0 }, vec![1.0], vec![1.0]).unwrap();
        assert!(m.validate().is_ok());
        let diags = lint_model(&AnyModel::Receiver(m));
        assert_eq!(codes(&diags), vec!["M001"]);
    }

    #[test]
    fn m002_unstable_narx_tail() {
        let bad = NarxModel::from_network(
            NarxOrders::dynamic(1),
            RbfNetwork::affine(0.0, vec![0.01, 0.0, 1.2]),
        )
        .unwrap();
        let mut m = healthy_driver();
        m.i_high = bad;
        let diags = lint_model(&AnyModel::PwRbfDriver(m));
        assert_eq!(codes(&diags), vec!["M002"]);
        assert!(diags[0].message.contains("i_high"));
    }

    #[test]
    fn m003_duplicate_centers() {
        let net = RbfNetwork::from_parts(
            3,
            vec![vec![0.9, 0.0, 0.0], vec![0.9, 0.0, 1e-9]],
            vec![0.5, 0.5],
            vec![1.0, -1.0],
            0.0,
            vec![0.01, 0.0, 0.0],
        )
        .unwrap();
        let mut m = healthy_driver();
        m.i_low = NarxModel::from_network(NarxOrders::dynamic(1), net).unwrap();
        let diags = lint_model(&AnyModel::PwRbfDriver(m));
        // The two centers sit at v ~ 0.9 of a 1.8 V supply: spacing trips,
        // and their dim-0 span (~0) also trips coverage.
        assert!(codes(&diags).contains(&"M003"));

        // Same center positions at clearly different widths are the
        // multi-scale trainer's deliberate output, not duplicates.
        let multiscale = RbfNetwork::from_parts(
            3,
            vec![vec![0.9, 0.0, 0.0], vec![0.9, 0.0, 1e-9]],
            vec![0.5, 1.0],
            vec![1.0, -1.0],
            0.0,
            vec![0.01, 0.0, 0.0],
        )
        .unwrap();
        let mut m = healthy_driver();
        m.i_low = NarxModel::from_network(NarxOrders::dynamic(1), multiscale).unwrap();
        let diags = lint_model(&AnyModel::PwRbfDriver(m));
        assert!(!codes(&diags).contains(&"M003"), "got {diags:?}");
    }

    #[test]
    fn m004_poor_center_coverage() {
        let net = RbfNetwork::from_parts(
            3,
            vec![vec![0.8, 0.0, 0.0], vec![1.0, 0.5, 0.0]],
            vec![0.5, 0.5],
            vec![1.0, -1.0],
            0.0,
            vec![0.01, 0.0, 0.0],
        )
        .unwrap();
        let mut m = healthy_driver();
        m.i_high = NarxModel::from_network(NarxOrders::dynamic(1), net).unwrap();
        let diags = lint_model(&AnyModel::PwRbfDriver(m));
        // Span 0.2 V < 0.35 * 1.8 V.
        assert_eq!(codes(&diags), vec!["M004"]);
        // Wide-span centers are fine.
        let net = RbfNetwork::from_parts(
            3,
            vec![vec![0.0, 0.0, 0.0], vec![1.8, 0.5, 0.0]],
            vec![0.5, 0.5],
            vec![1.0, -1.0],
            0.0,
            vec![0.01, 0.0, 0.0],
        )
        .unwrap();
        let mut m = healthy_driver();
        m.i_high = NarxModel::from_network(NarxOrders::dynamic(1), net).unwrap();
        assert!(lint_model(&AnyModel::PwRbfDriver(m)).is_empty());
    }

    #[test]
    fn m005_non_monotone_iv_table() {
        let iv = Pwl::new(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 0.5]).unwrap();
        let m = CrModel::new("cr", 1e-12, iv).unwrap();
        let diags = lint_model(&AnyModel::Cr(m));
        assert_eq!(codes(&diags), vec!["M005"]);
        // Decreasing tables are legitimate (current into vs. out of the pad).
        let iv = Pwl::new(vec![0.0, 1.0, 2.0], vec![0.5, 0.0, -0.5]).unwrap();
        let m = CrModel::new("cr", 1e-12, iv).unwrap();
        assert!(lint_model(&AnyModel::Cr(m)).is_empty());
    }

    #[test]
    fn m006_steep_iv_segment() {
        let iv = Pwl::new(vec![0.0, 1e-6, 1.0], vec![0.0, 0.1, 0.2]).unwrap();
        let m = CrModel::new("cr", 1e-12, iv).unwrap();
        let diags = lint_model(&AnyModel::Cr(m));
        assert_eq!(codes(&diags), vec!["M006"]);
        assert!(diags[0].message.contains("slope"));
    }

    #[test]
    fn m007_out_of_range_weights() {
        let mut m = healthy_driver();
        m.up = WeightSequence::new(vec![0.0, 3.0, 1.0], vec![1.0, 0.5, 0.0]).unwrap();
        let diags = lint_model(&AnyModel::PwRbfDriver(m));
        assert_eq!(codes(&diags), vec!["M007"]);
        assert!(diags[0].message.contains("3.000"));
    }

    #[test]
    fn m008_provenance_checks() {
        let model = AnyModel::Cr(
            CrModel::new(
                "cr",
                1e-12,
                Pwl::new(vec![-1.0, 1.0], vec![-0.1, 0.1]).unwrap(),
            )
            .unwrap(),
        );
        // v1 single-model artifacts never carry provenance: no finding.
        let report = lint_artifact(&Artifact::single(model.clone()));
        assert!(report.is_clean(&LintConfig::default()));
        // v2 without provenance: M008.
        let report = lint_artifact(&Artifact::bundle(vec![model.clone()], None));
        assert_eq!(codes(&report.diagnostics), vec!["M008"]);
        // Malformed digest: M008.
        let report = lint_artifact(&Artifact::bundle(
            vec![model.clone()],
            Some(Provenance::new("NOT-A-DIGEST")),
        ));
        assert_eq!(codes(&report.diagnostics), vec!["M008"]);
        // Placeholder and proper digests are fine.
        for digest in ["-", "0123456789abcdef"] {
            let report = lint_artifact(&Artifact::bundle(
                vec![model.clone()],
                Some(Provenance::new(digest)),
            ));
            assert!(report.is_clean(&LintConfig::default()), "digest {digest}");
        }
    }

    #[test]
    fn config_allow_and_deny_override_severity() {
        let iv = Pwl::new(vec![0.0, 1e-6, 1.0], vec![0.0, 0.1, 0.2]).unwrap();
        let m = CrModel::new("cr", 1e-12, iv).unwrap();
        let report = lint_artifact(&Artifact::single(AnyModel::Cr(m)));
        let mut cfg = LintConfig::default();
        assert_eq!(report.counts(&cfg), (0, 1, 0));
        assert_eq!(report.deny_count(&cfg), 0);
        cfg.deny("M006");
        assert_eq!(report.deny_count(&cfg), 1);
        cfg.allow("M006");
        assert!(report.is_clean(&cfg));
        // allow() after deny() wins and vice versa.
        cfg.deny("M006");
        assert_eq!(report.deny_count(&cfg), 1);
    }

    #[test]
    fn renderers_include_codes_and_hints() {
        let iv = Pwl::new(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 0.5]).unwrap();
        let m = CrModel::new("cr\"quoted\"", 1e-12, iv).unwrap();
        let report = lint_artifact(&Artifact::single(AnyModel::Cr(m)));
        let cfg = LintConfig::default();
        let human = report.render_human(&cfg);
        assert!(human.contains("error[M005]"));
        assert!(human.contains("hint:"));
        assert!(human.contains("1 error(s)"));
        let json = report.to_json(&cfg);
        assert!(json.contains("\"code\":\"M005\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"errors\":1"));
        // Suppressed findings disappear from both renderings.
        let mut cfg = LintConfig::default();
        cfg.allow("M005");
        assert!(!report.render_human(&cfg).contains("M005"));
        assert!(!report.to_json(&cfg).contains("M005"));
    }

    #[test]
    fn json_report_matches_golden_bytes() {
        let diag = |code, severity, subject: &str, message: &str| Diagnostic {
            code,
            severity,
            subject: subject.into(),
            message: message.into(),
        };
        let report = LintReport {
            diagnostics: vec![
                diag("M001", Severity::Error, "md\"1\\x", "line\nnext\u{1b}\té"),
                diag("M007", Severity::Warn, "w ✓", "weight \"3.0\""),
                diag("M006", Severity::Info, "", "\r"),
            ],
        };
        let mut cfg = LintConfig::default();
        assert_eq!(
            report.to_json(&cfg),
            concat!(
                "{\"diagnostics\":[{\"code\":\"M001\",\"severity\":\"error\",",
                "\"subject\":\"md\\\"1\\\\x\",\"message\":\"line\\nnext\\u001b\\té\"},{\"code\":\"M007\",",
                "\"severity\":\"warning\",\"subject\":\"w ✓\",",
                "\"message\":\"weight \\\"3.0\\\"\"},{\"code\":\"M006\",\"severity\":\"info\",",
                "\"subject\":\"\",\"message\":\"\\r\"}],\"errors\":1,\"warnings\":1,\"infos\":1}",
            )
        );
        cfg.allow("M007");
        cfg.deny("M006");
        assert_eq!(
            report.to_json(&cfg),
            concat!(
                "{\"diagnostics\":[{\"code\":\"M001\",\"severity\":\"error\",",
                "\"subject\":\"md\\\"1\\\\x\",\"message\":\"line\\nnext\\u001b\\té\"},{\"code\":\"M006\",",
                "\"severity\":\"error\",\"subject\":\"\",\"message\":\"\\r\"}],\"errors\":2,",
                "\"warnings\":0,\"infos\":0}",
            )
        );
        assert_eq!(
            LintReport::default().to_json(&cfg),
            "{\"diagnostics\":[],\"errors\":0,\"warnings\":0,\"infos\":0}"
        );
    }

    #[test]
    fn structural_audit_runs_on_all_model_kinds() {
        // The fixture-instantiation path must at minimum not report a
        // structurally singular system for any healthy model kind.
        let iv = Pwl::new(vec![-1.0, 0.0, 1.0], vec![-0.1, 0.0, 0.1]).unwrap();
        let cr = CrModel::new("cr", 1e-12, iv).unwrap();
        for model in [
            AnyModel::PwRbfDriver(healthy_driver()),
            AnyModel::Receiver(healthy_receiver()),
            AnyModel::Cr(cr),
        ] {
            let diags = lint_model_full(&model);
            assert!(
                diags.iter().all(|d| d.code != "C001"),
                "{}: {diags:?}",
                model_subject(&model)
            );
        }
    }
}
