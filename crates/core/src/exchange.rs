//! Versioned, self-contained model-exchange format (`mdlx`).
//!
//! An estimated macromodel is only useful if it can be shipped: extracted
//! once, saved, and loaded by a downstream simulation that never sees the
//! transistor-level device. This module defines the on-disk artifact —
//! a line-oriented, human-auditable text format and a length-framed binary
//! container — with one way in and one way out: [`load_artifact_bytes`] /
//! [`load_artifact_from_path`] read either container, deciding which from
//! the leading bytes ([`ArtifactFormat::of`]), and [`save_artifact_bytes`] /
//! [`save_artifact_as`] write the container an [`ArtifactFormat`] names.
//! Loading validates strictly.
//!
//! # Format
//!
//! ```text
//! mdlx <version> <kind-tag>
//! name <device name>
//! <kind-specific records>
//! end
//! ```
//!
//! * every record is one line: a key followed by space-separated values;
//! * vectors carry an explicit length (`wh 3 0e0 5e-1 1e0`), so truncation
//!   is always detectable;
//! * floats are written in shortest round-trip scientific notation
//!   (`2.5e-11`), which makes **save → load → save byte-identical**;
//! * the record sequence per kind is fixed; any unexpected key is rejected
//!   ([`ExchangeError::UnknownField`]) — there are no optional or ignored
//!   fields;
//! * every numeric value must be finite ([`ExchangeError::NonFinite`])
//!   and the assembled model must pass its structural validation before
//!   the loader returns.
//!
//! Each kind's record sequence is declared once, as a fields struct and
//! its `KindFields::walk`; the text codec here and the binary codec in
//! [`binary`] both walk that declaration to save and to load, so the two
//! encodings cannot disagree on a field's order, key or type.
//!
//! # Format versions
//!
//! * **`mdlx 1`** — one model per file, exactly the grammar above. This is
//!   what an [`Artifact::single`] saves as, so existing artifacts remain
//!   byte-identical under save → load → save.
//! * **`mdlx 2`** — a *bundle*: an optional provenance block (extraction
//!   config digest, tool version, creation parameters) followed by one or
//!   more embedded models (driver + receiver + corner variants in one
//!   file). Written for [`Artifact::bundle`] values:
//!
//! ```text
//! mdlx 2 bundle
//! provenance
//! tool emc-io-macromodel
//! toolver 0.1.0
//! digest 9a3fb2c41d70e655
//! params 1
//! param device md1
//! endprovenance
//! models 2
//! model pwrbf-driver
//! name md1
//! <kind-specific records>
//! endmodel
//! model ibis
//! name md1_Typical
//! <kind-specific records>
//! endmodel
//! end
//! ```
//!
//! The loaders read both versions (v1 files load as single-model
//! artifacts); a version tag beyond `2` fails with
//! [`ExchangeError::UnsupportedVersion`] instead of being misparsed. The
//! lexer tolerates CRLF line endings and trailing blank lines — artifacts
//! that crossed a Windows checkout or an editor that appends a final
//! newline load cleanly (the *canonical* byte form, which re-save
//! produces and `mdl validate` enforces, remains LF with no trailing
//! blank line).
//!
//! # Binary container
//!
//! The same artifacts also ship in a length-framed binary container
//! (**`mdlx-bin 1`**, extension `.mdlxb`) defined in the [`binary`]
//! submodule: a fixed 32-byte file header, then one section per
//! provenance block / model, each framed by its byte length and guarded
//! by an FNV-1a 64 digest, so a reader can inventory or verify a file
//! without decoding payloads. The loaders dispatch on the leading magic
//! and accept either encoding; text ⇄ binary conversion
//! is lossless and byte-exact in both directions because text floats use
//! shortest round-trip notation and binary floats are the raw IEEE-754
//! bits. The normative specification of all three encodings — grammar,
//! field tables, error taxonomy, version migration — is
//! `docs/FORMAT.md` at the repository root.
//!
//! # Example
//!
//! ```no_run
//! use macromodel::exchange::{load_artifact_from_path, save_artifact_as, ArtifactFormat};
//! use macromodel::ExtractionSession;
//!
//! # fn main() -> Result<(), macromodel::Error> {
//! let artifact = ExtractionSession::for_driver(refdev::md1()).run()?.to_artifact();
//! save_artifact_as(&artifact, ArtifactFormat::Text, "md1.mdlx")?;
//! let loaded = load_artifact_from_path("md1.mdlx")?.into_single()?;
//! println!("{}", macromodel::Macromodel::summary(&loaded));
//!
//! // The same artifact in binary framing; the loader decides the container
//! // from the leading bytes, so both files read back identically.
//! save_artifact_as(&artifact, ArtifactFormat::Binary, "md1.mdlxb")?;
//! assert_eq!(load_artifact_from_path("md1.mdlxb")?.models.len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod binary;

use crate::driver::{PwRbfDriverModel, WeightSequence};
use crate::macromodel::{Macromodel, ModelKind, PortStimulus, TestFixture};
use crate::receiver::{CrModel, ReceiverModel};
use crate::Result;
use circuit::{Circuit, Node, Waveform};
use numkit::interp::Pwl;
use refdev::IbisModel;
use std::collections::BTreeMap;
use std::path::Path;
use sysid::arx::{ArxModel, ArxOrders};
use sysid::narx::{NarxModel, NarxOrders};
use sysid::rbf::RbfNetwork;

/// Version written for single-model artifacts (the `mdlx 1` grammar).
pub const FORMAT_VERSION: u32 = 1;

/// Version written for bundles with provenance (the `mdlx 2` grammar).
pub const BUNDLE_FORMAT_VERSION: u32 = 2;

/// Typed failure modes of the exchange layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ExchangeError {
    /// The file declares a version this reader does not understand.
    UnsupportedVersion {
        /// The version token found in the header.
        found: String,
    },
    /// The file declares an unknown model kind.
    UnknownKind {
        /// The kind tag found in the header.
        tag: String,
    },
    /// A line failed to parse (malformed tokens, wrong count).
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A record key other than the one the grammar expects next.
    UnknownField {
        /// 1-based line number.
        line: usize,
        /// The unexpected key.
        field: String,
    },
    /// A numeric value parsed to NaN or infinity.
    NonFinite {
        /// 1-based line number.
        line: usize,
        /// The record key holding the value.
        field: String,
    },
    /// The file ended before the grammar was complete.
    Truncated {
        /// The record key that was expected next.
        expected: String,
    },
    /// The records parsed but assemble into an invalid model, or the
    /// artifact handed to a saver is not serializable (e.g. a multi-line
    /// name).
    Invalid {
        /// Description of the violation.
        message: String,
    },
    /// Filesystem failure.
    Io {
        /// The offending path.
        path: String,
        /// The OS error text.
        message: String,
    },
    /// A binary container whose leading bytes are not the `mdlxb` magic.
    BadMagic {
        /// Hex rendering of the bytes found where the magic was expected.
        found: String,
    },
    /// A binary section whose stored FNV-1a digest does not match its
    /// bytes — the container was corrupted after writing.
    DigestMismatch {
        /// Which section failed (`body`, or `model <name>`).
        section: String,
        /// The digest stored in the container, hex.
        expected: String,
        /// The digest recomputed over the bytes, hex.
        found: String,
    },
    /// A binary record failed to decode (impossible count, trailing
    /// bytes, malformed string).
    Corrupt {
        /// Byte offset of the offending record.
        offset: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported format version '{found}' (reader understands \
                     {FORMAT_VERSION}..={BUNDLE_FORMAT_VERSION})"
                )
            }
            ExchangeError::UnknownKind { tag } => write!(f, "unknown model kind '{tag}'"),
            ExchangeError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ExchangeError::UnknownField { line, field } => {
                write!(f, "line {line}: unknown field '{field}'")
            }
            ExchangeError::NonFinite { line, field } => {
                write!(f, "line {line}: non-finite value in '{field}'")
            }
            ExchangeError::Truncated { expected } => {
                write!(f, "file truncated: expected '{expected}'")
            }
            ExchangeError::Invalid { message } => write!(f, "invalid model data: {message}"),
            ExchangeError::Io { path, message } => write!(f, "{path}: {message}"),
            ExchangeError::BadMagic { found } => {
                write!(f, "not an mdlxb container (leading bytes {found})")
            }
            ExchangeError::DigestMismatch {
                section,
                expected,
                found,
            } => write!(
                f,
                "digest mismatch in {section}: stored {expected}, computed {found}"
            ),
            ExchangeError::Corrupt { offset, message } => {
                write!(f, "byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for ExchangeError {}

/// A macromodel of any supported kind — the unit of exchange.
///
/// Wraps the concrete model types so heterogeneous artifacts share one
/// save/load path; implements [`Macromodel`] by delegation, so a loaded
/// model plugs into every trait-generic consumer directly.
#[derive(Debug, Clone)]
pub enum AnyModel {
    /// PW-RBF driver model.
    PwRbfDriver(PwRbfDriverModel),
    /// Receiver parametric model.
    Receiver(ReceiverModel),
    /// C–R̂ baseline.
    Cr(CrModel),
    /// IBIS-style driver baseline.
    Ibis(IbisModel),
}

impl From<PwRbfDriverModel> for AnyModel {
    fn from(m: PwRbfDriverModel) -> Self {
        AnyModel::PwRbfDriver(m)
    }
}

impl From<ReceiverModel> for AnyModel {
    fn from(m: ReceiverModel) -> Self {
        AnyModel::Receiver(m)
    }
}

impl From<CrModel> for AnyModel {
    fn from(m: CrModel) -> Self {
        AnyModel::Cr(m)
    }
}

impl From<IbisModel> for AnyModel {
    fn from(m: IbisModel) -> Self {
        AnyModel::Ibis(m)
    }
}

impl AnyModel {
    /// The model behind the unified trait.
    pub fn as_dyn(&self) -> &dyn Macromodel {
        match self {
            AnyModel::PwRbfDriver(m) => m,
            AnyModel::Receiver(m) => m,
            AnyModel::Cr(m) => m,
            AnyModel::Ibis(m) => m,
        }
    }
}

impl Macromodel for AnyModel {
    fn kind(&self) -> ModelKind {
        self.as_dyn().kind()
    }

    fn name(&self) -> &str {
        self.as_dyn().name()
    }

    fn sample_time(&self) -> Option<f64> {
        self.as_dyn().sample_time()
    }

    fn summary(&self) -> String {
        self.as_dyn().summary()
    }

    fn metadata(&self) -> BTreeMap<String, String> {
        self.as_dyn().metadata()
    }

    fn validate(&self) -> Result<()> {
        self.as_dyn().validate()
    }

    fn instantiate(&self, ckt: &mut Circuit, pad: Node, stim: Option<&PortStimulus>) -> Result<()> {
        self.as_dyn().instantiate(ckt, pad, stim)
    }

    fn simulate_on_load(
        &self,
        fixture: &TestFixture,
        stim: Option<&PortStimulus>,
        dt: f64,
        t_stop: f64,
    ) -> Result<Waveform> {
        self.as_dyn().simulate_on_load(fixture, stim, dt, t_stop)
    }
}

// ---------------------------------------------------------------------
// Provenance and artifacts (format v2)
// ---------------------------------------------------------------------

/// FNV-1a 64-bit digest of a byte string, hex-encoded.
///
/// This is the digest a *serving* layer keys caches with: two artifact
/// files with equal content digests parse into identical models, so a
/// parsed instance can be reused across file touches and hot-reloads
/// without re-reading the grammar. (Contrast [`config_digest`], which
/// identifies the extraction *configuration* embedded in provenance.)
pub fn content_digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

/// The raw FNV-1a 64-bit hash behind every digest of the exchange layer —
/// [`content_digest`], [`config_digest`], and the per-section digests of
/// the binary container ([`binary`]).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The digest a serving layer should key caches with, for a file of
/// *either* container: the embedded body digest of a binary `mdlxb` file
/// (read from its header, no hashing), or [`content_digest`] over the raw
/// bytes of a text artifact.
///
/// Two files with equal digests parse into identical models (binary body
/// digests cover every section, and parsing verifies them), so a parsed
/// instance can be reused across touches and hot-reloads.
pub fn artifact_digest(bytes: &[u8]) -> String {
    binary::embedded_digest(bytes).unwrap_or_else(|| content_digest(bytes))
}

/// FNV-1a 64-bit digest of a configuration's `Debug` rendering, hex-encoded.
///
/// The digest ties an artifact to the extraction configuration that
/// produced it: two artifacts with equal digests came from identical
/// estimation settings (same struct layout and values), without the format
/// having to serialize every config field.
pub fn config_digest(cfg: &impl std::fmt::Debug) -> String {
    content_digest(format!("{cfg:?}").as_bytes())
}

/// Embedded provenance of a `mdlx 2` artifact: where the models came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Producing tool name.
    pub tool: String,
    /// Producing tool version.
    pub tool_version: String,
    /// Digest of the extraction configuration (see [`config_digest`]);
    /// `-` when unknown.
    pub config_digest: String,
    /// Ordered creation parameters (key must be a single whitespace-free
    /// token, value one line).
    pub params: Vec<(String, String)>,
}

impl Provenance {
    /// Provenance stamped with this crate's name and version.
    pub fn new(config_digest: impl Into<String>) -> Self {
        Provenance {
            tool: env!("CARGO_PKG_NAME").to_string(),
            tool_version: env!("CARGO_PKG_VERSION").to_string(),
            config_digest: config_digest.into(),
            params: Vec::new(),
        }
    }

    /// Appends a creation parameter (builder-style).
    #[must_use]
    pub fn with_param(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.params.push((key.into(), value.into()));
        self
    }

    /// The provenance block's fields, in on-disk order (text: the records
    /// between `provenance` and `endprovenance`; binary: the `PROV`
    /// payload).
    fn walk(&mut self, c: &mut impl Codec) -> ExResult<()> {
        c.string("tool", &mut self.tool)?;
        c.string("toolver", &mut self.tool_version)?;
        c.string("digest", &mut self.config_digest)?;
        c.params("params", "param", &mut self.params)
    }
}

impl Default for Provenance {
    fn default() -> Self {
        Provenance::new("-")
    }
}

/// A parsed `.mdlx` artifact of either format version: one model (v1) or a
/// provenance-stamped multi-model bundle (v2). The unit the model store
/// works with.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Format version this artifact serializes as (1 or 2).
    pub version: u32,
    /// Embedded provenance (v2 only; `None` for v1 artifacts).
    pub provenance: Option<Provenance>,
    /// The models; exactly one for v1, one or more for v2.
    pub models: Vec<AnyModel>,
}

impl Artifact {
    /// A v1 single-model artifact (the `mdlx 1` grammar).
    pub fn single(model: AnyModel) -> Self {
        Artifact {
            version: FORMAT_VERSION,
            provenance: None,
            models: vec![model],
        }
    }

    /// A v2 bundle of one or more models with optional provenance.
    pub fn bundle(models: Vec<AnyModel>, provenance: Option<Provenance>) -> Self {
        Artifact {
            version: BUNDLE_FORMAT_VERSION,
            provenance,
            models,
        }
    }

    /// The first model — the whole artifact for v1 files.
    pub fn primary(&self) -> Option<&AnyModel> {
        self.models.first()
    }

    /// Unwraps a single-model artifact.
    ///
    /// # Errors
    ///
    /// [`ExchangeError::Invalid`] when the artifact bundles several models.
    pub fn into_single(mut self) -> Result<AnyModel> {
        if self.models.len() != 1 {
            return Err(ExchangeError::Invalid {
                message: format!(
                    "artifact bundles {} models; use the whole artifact",
                    self.models.len()
                ),
            }
            .into());
        }
        Ok(self.models.pop().expect("length checked"))
    }
}

// ---------------------------------------------------------------------
// Field schema: the one declaration of every model body
// ---------------------------------------------------------------------

type ExResult<T> = std::result::Result<T, ExchangeError>;

/// Upper bound on any count a file can declare (vector lengths, center
/// counts, model orders). Far above every legitimate model size, and low
/// enough that a corrupted length can neither overflow arithmetic nor
/// drive a pathological allocation — corruption must surface as a typed
/// error, never a panic or abort.
const MAX_DECLARED_COUNT: usize = 1 << 20;

/// The field primitives of the exchange formats. The text and binary
/// encoders and decoders each implement it once, and the field
/// declarations ([`KindFields::walk`], [`Provenance::walk`]) drive all
/// four, so a field's key, position and type are written down in one
/// place. An encoder reads each `&mut` value; a decoder overwrites it.
trait Codec {
    /// A section header (`transition up`); binary payloads carry none.
    fn header(&mut self, key: &str, label: &str) -> ExResult<()>;
    /// One finite float.
    fn f64(&mut self, key: &str, v: &mut f64) -> ExResult<()>;
    /// Two bounded counts.
    fn pair(&mut self, key: &str, v: &mut (usize, usize)) -> ExResult<()>;
    /// A length-prefixed float vector.
    fn vector(&mut self, key: &str, v: &mut Vec<f64>) -> ExResult<()>;
    /// The center count of an RBF network of dimension `dim` (text states
    /// `dim` too; binary implies it).
    fn rbf(&mut self, key: &str, dim: usize, n: &mut usize) -> ExResult<()>;
    /// `n` center rows of `dim` floats (text: one vector record per row;
    /// binary: `n × dim` flat floats).
    fn rows(&mut self, key: &str, n: usize, dim: usize, v: &mut Vec<Vec<f64>>) -> ExResult<()>;
    /// One single-line string.
    fn string(&mut self, key: &str, v: &mut String) -> ExResult<()>;
    /// A counted list of provenance parameters.
    fn params(&mut self, count_key: &str, key: &str, v: &mut Vec<(String, String)>)
        -> ExResult<()>;
}

/// The fields of one model kind, in on-disk order: what the text grammar
/// holds between `name` and the terminator, and what a binary `MODL`
/// payload holds. Adding a field to a kind means changing its `walk` (and
/// `docs/FORMAT.md`, which a test checks against it) — nothing else in
/// either codec.
trait KindFields: Default {
    /// The model this kind assembles into.
    type Model: Into<AnyModel>;
    /// The fields of an existing model, for encoding.
    fn of(m: &Self::Model) -> Self;
    /// Visits every field in order.
    fn walk(&mut self, c: &mut impl Codec) -> ExResult<()>;
    /// Assembles the model through its validating constructors.
    fn build(self, name: String) -> ExResult<Self::Model>;
}

/// Encodes the body of `model` (name excluded) through `c`.
fn encode_body(model: &AnyModel, c: &mut impl Codec) -> ExResult<()> {
    match model {
        AnyModel::PwRbfDriver(m) => DriverFields::of(m).walk(c),
        AnyModel::Receiver(m) => ReceiverFields::of(m).walk(c),
        AnyModel::Cr(m) => CrFields::of(m).walk(c),
        AnyModel::Ibis(m) => IbisFields::of(m).walk(c),
    }
}

/// Decodes a model body of `kind` from `c`. The structural constructors
/// reject inconsistent data; the assembled model's own validation runs in
/// the callers.
fn decode_body(kind: ModelKind, name: String, c: &mut impl Codec) -> ExResult<AnyModel> {
    fn decode<F: KindFields>(name: String, c: &mut impl Codec) -> ExResult<AnyModel> {
        let mut fields = F::default();
        fields.walk(c)?;
        Ok(fields.build(name)?.into())
    }
    match kind {
        ModelKind::PwRbfDriver => decode::<DriverFields>(name, c),
        ModelKind::Receiver => decode::<ReceiverFields>(name, c),
        ModelKind::CrBaseline => decode::<CrFields>(name, c),
        ModelKind::Ibis => decode::<IbisFields>(name, c),
    }
}

/// A NARX sub-model: the RBF network of paper eqs. 1–2 plus its orders.
#[derive(Default)]
struct NarxFields {
    orders: (usize, usize),
    n_centers: usize,
    bias: f64,
    linear: Vec<f64>,
    centers: Vec<Vec<f64>>,
    widths: Vec<f64>,
    weights: Vec<f64>,
}

impl NarxFields {
    fn of(m: &NarxModel) -> Self {
        let net = m.network();
        NarxFields {
            orders: (m.orders().input_lags, m.orders().output_lags),
            n_centers: net.n_centers(),
            bias: net.bias(),
            linear: net.linear().to_vec(),
            centers: net.centers().map(<[f64]>::to_vec).collect(),
            widths: net.widths().to_vec(),
            weights: net.weights().to_vec(),
        }
    }

    fn narx_orders(&self) -> NarxOrders {
        NarxOrders {
            input_lags: self.orders.0,
            output_lags: self.orders.1,
        }
    }

    fn walk(&mut self, c: &mut impl Codec, label: &str) -> ExResult<()> {
        c.header("submodel", label)?;
        c.pair("orders", &mut self.orders)?;
        let dim = self.narx_orders().dim();
        c.rbf("rbf", dim, &mut self.n_centers)?;
        c.f64("bias", &mut self.bias)?;
        c.vector("linear", &mut self.linear)?;
        c.rows("center", self.n_centers, dim, &mut self.centers)?;
        c.vector("widths", &mut self.widths)?;
        c.vector("gweights", &mut self.weights)
    }

    fn build(self) -> ExResult<NarxModel> {
        let orders = self.narx_orders();
        let net = RbfNetwork::from_parts(
            orders.dim(),
            self.centers,
            self.widths,
            self.weights,
            self.bias,
            self.linear,
        )
        .map_err(invalid)?;
        NarxModel::from_network(orders, net).map_err(invalid)
    }
}

/// A PWL table as its `(x, y)` breakpoint vectors.
fn pwl_fields(p: &Pwl) -> (Vec<f64>, Vec<f64>) {
    (p.x().to_vec(), p.y().to_vec())
}

fn pwl_build((x, y): (Vec<f64>, Vec<f64>)) -> ExResult<Pwl> {
    Pwl::new(x, y).map_err(invalid)
}

/// PW-RBF driver (paper eq. 1).
#[derive(Default)]
struct DriverFields {
    ts: f64,
    vdd: f64,
    i_high: NarxFields,
    i_low: NarxFields,
    /// `(w_high, w_low)` of the up and down transitions.
    up: (Vec<f64>, Vec<f64>),
    down: (Vec<f64>, Vec<f64>),
}

impl KindFields for DriverFields {
    type Model = PwRbfDriverModel;

    fn of(m: &PwRbfDriverModel) -> Self {
        let seq = |s: &WeightSequence| (s.w_high().to_vec(), s.w_low().to_vec());
        DriverFields {
            ts: m.ts,
            vdd: m.vdd,
            i_high: NarxFields::of(&m.i_high),
            i_low: NarxFields::of(&m.i_low),
            up: seq(&m.up),
            down: seq(&m.down),
        }
    }

    fn walk(&mut self, c: &mut impl Codec) -> ExResult<()> {
        c.f64("ts", &mut self.ts)?;
        c.f64("vdd", &mut self.vdd)?;
        self.i_high.walk(c, "i_high")?;
        self.i_low.walk(c, "i_low")?;
        for (label, (wh, wl)) in [("up", &mut self.up), ("down", &mut self.down)] {
            c.header("transition", label)?;
            c.vector("wh", wh)?;
            c.vector("wl", wl)?;
        }
        Ok(())
    }

    fn build(self, name: String) -> ExResult<PwRbfDriverModel> {
        let seq = |(wh, wl)| WeightSequence::new(wh, wl).map_err(invalid);
        Ok(PwRbfDriverModel {
            name,
            ts: self.ts,
            vdd: self.vdd,
            i_high: self.i_high.build()?,
            i_low: self.i_low.build()?,
            up: seq(self.up)?,
            down: seq(self.down)?,
        })
    }
}

/// Parametric receiver (paper eq. 2).
#[derive(Default)]
struct ReceiverFields {
    ts: f64,
    vdd: f64,
    /// ARX orders `(na, nb)`.
    arx: (usize, usize),
    a: Vec<f64>,
    b: Vec<f64>,
    up: NarxFields,
    down: NarxFields,
}

impl KindFields for ReceiverFields {
    type Model = ReceiverModel;

    fn of(m: &ReceiverModel) -> Self {
        ReceiverFields {
            ts: m.ts,
            vdd: m.vdd,
            arx: (m.linear.orders().na, m.linear.orders().nb),
            a: m.linear.a().to_vec(),
            b: m.linear.b().to_vec(),
            up: NarxFields::of(&m.up),
            down: NarxFields::of(&m.down),
        }
    }

    fn walk(&mut self, c: &mut impl Codec) -> ExResult<()> {
        c.f64("ts", &mut self.ts)?;
        c.f64("vdd", &mut self.vdd)?;
        c.pair("arx", &mut self.arx)?;
        c.vector("a", &mut self.a)?;
        c.vector("b", &mut self.b)?;
        self.up.walk(c, "up")?;
        self.down.walk(c, "down")
    }

    fn build(self, name: String) -> ExResult<ReceiverModel> {
        let (na, nb) = self.arx;
        Ok(ReceiverModel {
            name,
            ts: self.ts,
            vdd: self.vdd,
            linear: ArxModel::from_coefficients(ArxOrders { na, nb }, self.a, self.b)
                .map_err(invalid)?,
            up: self.up.build()?,
            down: self.down.build()?,
        })
    }
}

/// C–R̂ baseline.
#[derive(Default)]
struct CrFields {
    c: f64,
    static_iv: (Vec<f64>, Vec<f64>),
}

impl KindFields for CrFields {
    type Model = CrModel;

    fn of(m: &CrModel) -> Self {
        CrFields {
            c: m.c,
            static_iv: pwl_fields(&m.static_iv),
        }
    }

    fn walk(&mut self, c: &mut impl Codec) -> ExResult<()> {
        c.f64("c", &mut self.c)?;
        c.vector("iv_x", &mut self.static_iv.0)?;
        c.vector("iv_y", &mut self.static_iv.1)
    }

    fn build(self, name: String) -> ExResult<CrModel> {
        CrModel::new(name, self.c, pwl_build(self.static_iv)?).map_err(invalid)
    }
}

/// IBIS-style driver baseline.
#[derive(Default)]
struct IbisFields {
    vdd: f64,
    c_comp: f64,
    dt: f64,
    pullup: (Vec<f64>, Vec<f64>),
    pulldown: (Vec<f64>, Vec<f64>),
    ku_rise: Vec<f64>,
    kd_rise: Vec<f64>,
    ku_fall: Vec<f64>,
    kd_fall: Vec<f64>,
}

impl KindFields for IbisFields {
    type Model = IbisModel;

    fn of(m: &IbisModel) -> Self {
        IbisFields {
            vdd: m.vdd,
            c_comp: m.c_comp,
            dt: m.dt,
            pullup: pwl_fields(&m.pullup),
            pulldown: pwl_fields(&m.pulldown),
            ku_rise: m.ku_rise.clone(),
            kd_rise: m.kd_rise.clone(),
            ku_fall: m.ku_fall.clone(),
            kd_fall: m.kd_fall.clone(),
        }
    }

    fn walk(&mut self, c: &mut impl Codec) -> ExResult<()> {
        c.f64("vdd", &mut self.vdd)?;
        c.f64("c_comp", &mut self.c_comp)?;
        c.f64("dt", &mut self.dt)?;
        c.vector("pullup_x", &mut self.pullup.0)?;
        c.vector("pullup_y", &mut self.pullup.1)?;
        c.vector("pulldown_x", &mut self.pulldown.0)?;
        c.vector("pulldown_y", &mut self.pulldown.1)?;
        c.vector("ku_rise", &mut self.ku_rise)?;
        c.vector("kd_rise", &mut self.kd_rise)?;
        c.vector("ku_fall", &mut self.ku_fall)?;
        c.vector("kd_fall", &mut self.kd_fall)
    }

    fn build(self, name: String) -> ExResult<IbisModel> {
        Ok(IbisModel {
            name,
            vdd: self.vdd,
            pullup: pwl_build(self.pullup)?,
            pulldown: pwl_build(self.pulldown)?,
            c_comp: self.c_comp,
            dt: self.dt,
            ku_rise: self.ku_rise,
            kd_rise: self.kd_rise,
            ku_fall: self.ku_fall,
            kd_fall: self.kd_fall,
        })
    }
}

fn invalid(e: impl std::fmt::Display) -> ExchangeError {
    ExchangeError::Invalid {
        message: e.to_string(),
    }
}

/// Write-side check: every float of every container is finite.
fn finite(key: &str, v: f64) -> ExResult<f64> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(invalid(format!("'{key}' is not finite: {v}")))
    }
}

/// Write-side check: strings must not break the text line form.
fn one_line(key: &str, s: &str) -> ExResult<()> {
    if s.contains(['\n', '\r']) {
        return Err(invalid(format!("'{key}' must not contain line breaks")));
    }
    Ok(())
}

/// A provenance parameter key is one non-empty, whitespace-free token.
fn is_param_key(key: &str) -> bool {
    !key.is_empty() && !key.contains(char::is_whitespace)
}

/// Write-side check of one provenance parameter.
fn check_param(key: &str, value: &str) -> ExResult<()> {
    if !is_param_key(key) {
        return Err(invalid(format!(
            "provenance param key '{key}' must be one non-empty token"
        )));
    }
    one_line("param", value)
}

/// The v1/v2 shape rules (`docs/FORMAT.md` §1.1), enforced by every
/// writer and reader of both containers.
fn check_shape(version: u32, has_provenance: bool, n_models: usize) -> ExResult<()> {
    match version {
        FORMAT_VERSION if has_provenance => {
            Err(invalid("format v1 cannot carry a provenance block"))
        }
        FORMAT_VERSION if n_models != 1 => Err(invalid(format!(
            "format v1 holds exactly one model, got {n_models}"
        ))),
        BUNDLE_FORMAT_VERSION if n_models == 0 => {
            Err(invalid("a bundle must hold at least one model"))
        }
        FORMAT_VERSION | BUNDLE_FORMAT_VERSION => Ok(()),
        other => Err(invalid(format!("unknown format version {other}"))),
    }
}

/// Maps a filesystem failure on `path` to [`ExchangeError::Io`].
fn io_error(path: &Path) -> impl Fn(std::io::Error) -> ExchangeError + '_ {
    move |e| ExchangeError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

// ---------------------------------------------------------------------
// Text writer
// ---------------------------------------------------------------------

/// Shortest round-trip scientific form; the single float syntax of the
/// format (both ends of the byte-identity guarantee).
fn fmt_f64(v: f64) -> String {
    format!("{v:e}")
}

#[derive(Default)]
struct TextWriter {
    out: String,
}

impl TextWriter {
    fn raw(&mut self, line: &str) {
        self.out.push_str(line);
        self.out.push('\n');
    }

    /// The name line plus every field of `model` — the body shared by the
    /// v1 grammar and each `model … endmodel` section of a v2 bundle.
    fn model(&mut self, model: &AnyModel) -> ExResult<()> {
        one_line("name", model.name())?;
        self.raw(&format!("name {}", model.name()));
        encode_body(model, self)
    }
}

impl Codec for TextWriter {
    fn header(&mut self, key: &str, label: &str) -> ExResult<()> {
        self.raw(&format!("{key} {label}"));
        Ok(())
    }

    fn f64(&mut self, key: &str, v: &mut f64) -> ExResult<()> {
        self.raw(&format!("{key} {}", fmt_f64(finite(key, *v)?)));
        Ok(())
    }

    fn pair(&mut self, key: &str, v: &mut (usize, usize)) -> ExResult<()> {
        self.raw(&format!("{key} {} {}", v.0, v.1));
        Ok(())
    }

    fn vector(&mut self, key: &str, v: &mut Vec<f64>) -> ExResult<()> {
        let mut line = format!("{key} {}", v.len());
        for &x in v.iter() {
            line.push(' ');
            line.push_str(&fmt_f64(finite(key, x)?));
        }
        self.raw(&line);
        Ok(())
    }

    fn rbf(&mut self, key: &str, dim: usize, n: &mut usize) -> ExResult<()> {
        self.pair(key, &mut (dim, *n))
    }

    fn rows(&mut self, key: &str, _: usize, _: usize, v: &mut Vec<Vec<f64>>) -> ExResult<()> {
        v.iter_mut().try_for_each(|row| self.vector(key, row))
    }

    fn string(&mut self, key: &str, v: &mut String) -> ExResult<()> {
        one_line(key, v)?;
        self.raw(&format!("{key} {v}"));
        Ok(())
    }

    fn params(
        &mut self,
        count_key: &str,
        key: &str,
        v: &mut Vec<(String, String)>,
    ) -> ExResult<()> {
        self.raw(&format!("{count_key} {}", v.len()));
        for (k, value) in v.iter() {
            check_param(k, value)?;
            self.raw(&format!("{key} {k} {value}"));
        }
        Ok(())
    }
}

/// The text serializer: the [`ArtifactFormat::Text`] arm of [`encode`].
fn save_text(version: u32, provenance: Option<&Provenance>, models: &[AnyModel]) -> Result<String> {
    let mut w = TextWriter::default();
    if version == FORMAT_VERSION {
        w.raw(&format!("mdlx {version} {}", models[0].kind().tag()));
        w.model(&models[0])?;
    } else {
        w.raw(&format!("mdlx {version} bundle"));
        if let Some(p) = provenance {
            w.raw("provenance");
            p.clone().walk(&mut w)?;
            w.raw("endprovenance");
        }
        w.raw(&format!("models {}", models.len()));
        for model in models {
            w.raw(&format!("model {}", model.kind().tag()));
            w.model(model)?;
            w.raw("endmodel");
        }
    }
    w.raw("end");
    Ok(w.out)
}

// ---------------------------------------------------------------------
// Containers: the one encoder and the one decoder
// ---------------------------------------------------------------------

/// The container of an artifact's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactFormat {
    /// Line-oriented `mdlx` text (conventionally `.mdlx`).
    Text,
    /// The length-framed binary container (conventionally `.mdlxb`).
    Binary,
}

impl ArtifactFormat {
    /// The container `bytes` are in, decided by their leading bytes alone:
    /// the [`binary::MAGIC`] makes them binary, anything else is text (or
    /// bytes the text reader rejects). The file name plays no part.
    pub fn of(bytes: &[u8]) -> Self {
        if bytes.starts_with(&binary::MAGIC) {
            ArtifactFormat::Binary
        } else {
            ArtifactFormat::Text
        }
    }
}

impl std::fmt::Display for ArtifactFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ArtifactFormat::Text => "text",
            ArtifactFormat::Binary => "binary",
        })
    }
}

/// The one encoder behind every saver: the v1/v2 shape rules and each
/// model's own validation, then the container `format` names.
fn encode(
    version: u32,
    provenance: Option<&Provenance>,
    models: &[AnyModel],
    format: ArtifactFormat,
) -> Result<Vec<u8>> {
    check_shape(version, provenance.is_some(), models.len())?;
    for model in models {
        model.validate()?;
    }
    Ok(match format {
        ArtifactFormat::Text => save_text(version, provenance, models)?.into_bytes(),
        ArtifactFormat::Binary => binary::encode(version, provenance, models)?,
    })
}

/// Writes encoded bytes to `path`; a failure is [`ExchangeError::Io`]
/// naming the path.
fn write_file(path: &Path, bytes: Vec<u8>) -> Result<()> {
    std::fs::write(path, bytes).map_err(io_error(path))?;
    Ok(())
}

/// Serializes an artifact in the container `format` names: a v1
/// [`Artifact::single`] as the `mdlx 1` grammar, a v2 [`Artifact::bundle`]
/// as the `mdlx 2` grammar, either one in the binary container when
/// `format` is [`ArtifactFormat::Binary`]. The binary header records the
/// text version, so converting between the containers is byte-exact both
/// ways.
///
/// # Errors
///
/// [`ExchangeError::Invalid`] for an empty bundle, a v1 artifact that is
/// not exactly one provenance-free model, an unknown version, non-finite
/// values or multi-line names and provenance values;
/// [`crate::Error::InvalidModel`] when a model fails its own validation —
/// nothing invalid is ever written.
pub fn save_artifact_bytes(artifact: &Artifact, format: ArtifactFormat) -> Result<Vec<u8>> {
    encode(
        artifact.version,
        artifact.provenance.as_ref(),
        &artifact.models,
        format,
    )
}

/// Saves an artifact to a file in the container `format` names (see
/// [`save_artifact_bytes`]).
///
/// # Errors
///
/// [`save_artifact_bytes`] failures plus [`ExchangeError::Io`] with the
/// path.
pub fn save_artifact_as(
    artifact: &Artifact,
    format: ArtifactFormat,
    path: impl AsRef<Path>,
) -> Result<()> {
    write_file(path.as_ref(), save_artifact_bytes(artifact, format)?)
}

/// [`save_artifact_as`] in text. Kept for perfbench until ROADMAP item 4;
/// call [`save_artifact_as`].
///
/// # Errors
///
/// See [`save_artifact_as`].
pub fn save_artifact_to_path(artifact: &Artifact, path: impl AsRef<Path>) -> Result<()> {
    save_artifact_as(artifact, ArtifactFormat::Text, path)
}

/// One model saved as a v1 text artifact, without cloning it into an
/// [`Artifact`]. Kept for perfbench until ROADMAP item 4; call
/// [`save_artifact_as`].
///
/// # Errors
///
/// See [`save_artifact_as`].
pub fn save_model_to_path(model: &AnyModel, path: impl AsRef<Path>) -> Result<()> {
    let models = std::slice::from_ref(model);
    write_file(
        path.as_ref(),
        encode(FORMAT_VERSION, None, models, ArtifactFormat::Text)?,
    )
}

// ---------------------------------------------------------------------
// Text reader
// ---------------------------------------------------------------------

struct TextReader<'a> {
    lines: Vec<&'a str>,
    pos: usize,
}

impl<'a> TextReader<'a> {
    fn new(text: &'a str) -> Self {
        // Normalize line endings: `str::lines` already splits `\r\n`, but a
        // lone trailing `\r` (mixed-ending files) is stripped here too, and
        // trailing blank lines — the final-newline convention of many
        // editors and CRLF checkouts — are dropped so `end` stays the last
        // line of the grammar. Interior blank lines remain syntax errors.
        let mut lines: Vec<&str> = text
            .lines()
            .map(|l| l.strip_suffix('\r').unwrap_or(l))
            .collect();
        while lines.last().is_some_and(|l| l.trim_ascii().is_empty()) {
            lines.pop();
        }
        TextReader { lines, pos: 0 }
    }

    /// A syntax error on the line most recently consumed.
    fn syntax(&self, message: String) -> ExchangeError {
        ExchangeError::Syntax {
            line: self.pos,
            message,
        }
    }

    /// Key of the next line without consuming it.
    fn peek_key(&self) -> Option<&'a str> {
        let line = self.lines.get(self.pos)?;
        Some(line.split_once(' ').map_or(*line, |(k, _)| k))
    }

    /// Consumes the next line, splitting off its leading key; fails with
    /// [`ExchangeError::UnknownField`] when the key is not `key`.
    fn expect(&mut self, key: &str) -> ExResult<&'a str> {
        let Some(line) = self.lines.get(self.pos) else {
            return Err(ExchangeError::Truncated {
                expected: key.to_string(),
            });
        };
        self.pos += 1;
        let (found, rest) = line.split_once(' ').unwrap_or((line, ""));
        if found != key {
            return Err(ExchangeError::UnknownField {
                line: self.pos,
                field: found.to_string(),
            });
        }
        Ok(rest)
    }

    /// Consumes a `key` record carrying exactly `N` operand tokens.
    fn operands<const N: usize>(&mut self, key: &str) -> ExResult<[&'a str; N]> {
        let toks: Vec<&str> = self.expect(key)?.split_ascii_whitespace().collect();
        toks.try_into()
            .map_err(|_| self.syntax(format!("'{key}' expects exactly {N} value(s)")))
    }

    fn parse_f64(&self, tok: &str, key: &str) -> ExResult<f64> {
        let v: f64 = tok
            .parse()
            .map_err(|_| self.syntax(format!("'{tok}' is not a number in '{key}'")))?;
        if !v.is_finite() {
            return Err(ExchangeError::NonFinite {
                line: self.pos,
                field: key.to_string(),
            });
        }
        Ok(v)
    }

    fn parse_count(&self, tok: &str, key: &str) -> ExResult<usize> {
        tok.parse()
            .ok()
            .filter(|&v| v <= MAX_DECLARED_COUNT)
            .ok_or_else(|| {
                self.syntax(format!("'{key}' expects counts below {MAX_DECLARED_COUNT}"))
            })
    }

    /// A record carrying exactly one bounded count, e.g. `models 3`.
    fn count(&mut self, key: &str) -> ExResult<usize> {
        let [n] = self.operands(key)?;
        self.parse_count(n, key)
    }

    /// A bare keyword line with no operands, e.g. `endmodel`.
    fn keyword(&mut self, key: &str) -> ExResult<()> {
        if !self.expect(key)?.is_empty() {
            return Err(self.syntax(format!("trailing content after '{key}'")));
        }
        Ok(())
    }

    /// The `name` line plus every field of one model of kind `tag`,
    /// stopping before the terminator (`end` for v1, `endmodel` for v2).
    fn model(&mut self, tag: &str) -> ExResult<AnyModel> {
        let kind = ModelKind::from_tag(tag).ok_or(ExchangeError::UnknownKind {
            tag: tag.to_string(),
        })?;
        let name = self.expect("name")?.to_string();
        decode_body(kind, name, self)
    }

    fn end(&mut self) -> ExResult<()> {
        self.keyword("end")?;
        if self.pos != self.lines.len() {
            return Err(ExchangeError::Syntax {
                line: self.pos + 1,
                message: "content after 'end'".into(),
            });
        }
        Ok(())
    }
}

impl Codec for TextReader<'_> {
    fn header(&mut self, key: &str, label: &str) -> ExResult<()> {
        let rest = self.expect(key)?;
        if rest != label {
            return Err(self.syntax(format!("expected '{key} {label}', found '{key} {rest}'")));
        }
        Ok(())
    }

    fn f64(&mut self, key: &str, v: &mut f64) -> ExResult<()> {
        let [tok] = self.operands(key)?;
        *v = self.parse_f64(tok, key)?;
        Ok(())
    }

    fn pair(&mut self, key: &str, v: &mut (usize, usize)) -> ExResult<()> {
        let [a, b] = self.operands(key)?;
        *v = (self.parse_count(a, key)?, self.parse_count(b, key)?);
        Ok(())
    }

    fn vector(&mut self, key: &str, v: &mut Vec<f64>) -> ExResult<()> {
        let rest = self.expect(key)?;
        let mut toks = rest.split_ascii_whitespace();
        let len = self.parse_count(toks.next().unwrap_or_default(), key)?;
        // Reserve from the *actual* payload size, not the declared length —
        // a lying prefix must fail the length check below, not allocate.
        let mut vs = Vec::with_capacity(len.min(rest.len() / 2 + 1));
        for tok in toks {
            vs.push(self.parse_f64(tok, key)?);
        }
        if vs.len() != len {
            return Err(self.syntax(format!(
                "'{key}' declares {len} values but carries {}",
                vs.len()
            )));
        }
        *v = vs;
        Ok(())
    }

    fn rbf(&mut self, key: &str, dim: usize, n: &mut usize) -> ExResult<()> {
        let mut declared = (0, 0);
        self.pair(key, &mut declared)?;
        if declared.0 != dim {
            return Err(self.syntax(format!(
                "{key} dimension {} contradicts orders ({dim} expected)",
                declared.0
            )));
        }
        *n = declared.1;
        Ok(())
    }

    fn rows(&mut self, key: &str, n: usize, _: usize, v: &mut Vec<Vec<f64>>) -> ExResult<()> {
        // A corrupt row count runs into a missing record (typed error) long
        // before the vector grows; don't pre-reserve from it.
        *v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let mut row = Vec::new();
            self.vector(key, &mut row)?;
            v.push(row);
        }
        Ok(())
    }

    fn string(&mut self, key: &str, v: &mut String) -> ExResult<()> {
        *v = self.expect(key)?.to_string();
        Ok(())
    }

    fn params(
        &mut self,
        count_key: &str,
        key: &str,
        v: &mut Vec<(String, String)>,
    ) -> ExResult<()> {
        let n = self.count(count_key)?;
        *v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let rest = self.expect(key)?;
            let (k, value) = rest.split_once(' ').unwrap_or((rest, ""));
            if !is_param_key(k) {
                return Err(self.syntax(format!("'{key}' expects a key token")));
            }
            v.push((k.to_string(), value.to_string()));
        }
        Ok(())
    }
}

/// The text reader: the [`ArtifactFormat::Text`] arm of
/// [`load_artifact_bytes`]. Either format version; anything malformed,
/// non-finite, truncated, structurally inconsistent, or of a future format
/// version is rejected with the precise [`ExchangeError`], and a model that
/// assembles but fails its own validation is [`ExchangeError::Invalid`].
fn load_text(text: &str) -> Result<Artifact> {
    let mut r = TextReader::new(text);
    let header = r.expect("mdlx")?;
    let (version, tag) = header.split_once(' ').ok_or(ExchangeError::Syntax {
        line: 1,
        message: "header must be 'mdlx <version> <kind>'".into(),
    })?;
    let artifact = match version {
        "1" => {
            let model = r.model(tag)?;
            r.end()?;
            Artifact::single(model)
        }
        "2" => {
            if tag != "bundle" {
                return Err(ExchangeError::Syntax {
                    line: 1,
                    message: format!("version 2 artifacts are bundles; found kind '{tag}'"),
                }
                .into());
            }
            let mut provenance = None;
            if r.peek_key() == Some("provenance") {
                r.keyword("provenance")?;
                let mut p = Provenance::default();
                p.walk(&mut r)?;
                r.keyword("endprovenance")?;
                provenance = Some(p);
            }
            let n_models = r.count("models")?;
            check_shape(BUNDLE_FORMAT_VERSION, provenance.is_some(), n_models)?;
            let mut models = Vec::with_capacity(n_models.min(1024));
            for _ in 0..n_models {
                let tag = r.expect("model")?;
                models.push(r.model(tag)?);
                r.keyword("endmodel")?;
            }
            r.end()?;
            Artifact::bundle(models, provenance)
        }
        other => {
            return Err(ExchangeError::UnsupportedVersion {
                found: other.to_string(),
            }
            .into())
        }
    };
    for model in &artifact.models {
        model.validate().map_err(invalid)?;
    }
    Ok(artifact)
}

/// Deserializes an artifact from the bytes of either container — the one
/// loader. [`ArtifactFormat::of`] decides the container from the leading
/// bytes: the binary reader verifies every digest, the text reader parses
/// the grammar. Both validate every model before returning.
///
/// # Errors
///
/// The container's typed [`ExchangeError`]; non-UTF-8 bytes without the
/// binary magic are [`ExchangeError::Corrupt`].
pub fn load_artifact_bytes(bytes: &[u8]) -> Result<Artifact> {
    if ArtifactFormat::of(bytes) == ArtifactFormat::Binary {
        return binary::load_bin(bytes);
    }
    let text = std::str::from_utf8(bytes).map_err(|e| ExchangeError::Corrupt {
        offset: e.valid_up_to(),
        message: "artifact is neither an mdlxb container nor UTF-8 exchange text".into(),
    })?;
    load_text(text)
}

/// Loads an artifact of either container from a file (see
/// [`load_artifact_bytes`]); the file name does not decide the container.
///
/// # Errors
///
/// [`load_artifact_bytes`] failures plus [`ExchangeError::Io`] with the
/// path.
pub fn load_artifact_from_path(path: impl AsRef<Path>) -> Result<Artifact> {
    let path = path.as_ref();
    load_artifact_bytes(&std::fs::read(path).map_err(io_error(path))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Error;

    fn narx(order: usize, scale: f64) -> NarxModel {
        let orders = NarxOrders::dynamic(order);
        let dim = orders.dim();
        let centers: Vec<Vec<f64>> = (0..3)
            .map(|i| {
                (0..dim)
                    .map(|j| scale * (i as f64 + 0.1 * j as f64))
                    .collect()
            })
            .collect();
        let net = RbfNetwork::from_parts(
            dim,
            centers,
            vec![0.5, 0.25, 1.5],
            vec![1e-3, -2e-3, 0.7e-3],
            1e-4,
            (0..dim).map(|j| 1e-2 / (j + 1) as f64).collect(),
        )
        .unwrap();
        NarxModel::from_network(orders, net).unwrap()
    }

    fn driver_model() -> PwRbfDriverModel {
        PwRbfDriverModel {
            name: "md_test".into(),
            ts: 25e-12,
            vdd: 3.3,
            i_high: narx(2, 1.0),
            i_low: narx(2, -0.5),
            up: WeightSequence::new(vec![0.0, 0.3, 1.0], vec![1.0, 0.6, 0.0]).unwrap(),
            down: WeightSequence::new(vec![1.0, 0.4, 0.0], vec![0.0, 0.7, 1.0]).unwrap(),
        }
    }

    fn receiver_model() -> ReceiverModel {
        ReceiverModel {
            name: "rx_test".into(),
            ts: 25e-12,
            vdd: 1.8,
            linear: ArxModel::from_coefficients(
                ArxOrders { na: 2, nb: 1 },
                vec![0.4, -0.1],
                vec![0.08, -0.07],
            )
            .unwrap(),
            up: narx(1, 2.0),
            down: narx(1, -2.0),
        }
    }

    fn cr_model() -> CrModel {
        CrModel::new(
            "cr_test",
            2.5e-12,
            Pwl::new(vec![-1.0, 0.0, 1.0], vec![-0.1, 0.0, 0.1]).unwrap(),
        )
        .unwrap()
    }

    fn ibis_model() -> IbisModel {
        IbisModel {
            name: "ibis_test".into(),
            vdd: 3.3,
            pullup: Pwl::new(vec![-1.0, 1.0, 4.0], vec![0.08, 0.04, -0.05]).unwrap(),
            pulldown: Pwl::new(vec![-1.0, 1.0, 4.0], vec![-0.06, 0.01, 0.09]).unwrap(),
            c_comp: 3e-12,
            dt: 50e-12,
            ku_rise: vec![0.0, 0.5, 1.0],
            kd_rise: vec![1.0, 0.5, 0.0],
            ku_fall: vec![1.0, 0.4, 0.0],
            kd_fall: vec![0.0, 0.6, 1.0],
        }
    }

    /// The text of an artifact, as the one encoder writes it.
    fn artifact_text(artifact: &Artifact) -> Result<String> {
        let bytes = save_artifact_bytes(artifact, ArtifactFormat::Text)?;
        Ok(String::from_utf8(bytes).expect("the text container is UTF-8"))
    }

    /// The binary container of an artifact.
    fn artifact_bin(artifact: &Artifact) -> Result<Vec<u8>> {
        save_artifact_bytes(artifact, ArtifactFormat::Binary)
    }

    /// The v1 text of one model.
    fn model_text(model: &AnyModel) -> Result<String> {
        artifact_text(&Artifact::single(model.clone()))
    }

    fn parse_artifact(text: &str) -> Result<Artifact> {
        load_artifact_bytes(text.as_bytes())
    }

    fn parse_model(text: &str) -> Result<AnyModel> {
        parse_artifact(text)?.into_single()
    }

    fn all_models() -> Vec<AnyModel> {
        vec![
            driver_model().into(),
            receiver_model().into(),
            cr_model().into(),
            ibis_model().into(),
        ]
    }

    #[test]
    fn round_trip_every_kind_byte_identical() {
        for model in all_models() {
            let text = model_text(&model).unwrap();
            let loaded = parse_model(&text).unwrap();
            assert_eq!(loaded.kind(), model.kind());
            assert_eq!(loaded.name(), model.name());
            let re_saved = model_text(&loaded).unwrap();
            assert_eq!(text, re_saved, "{} re-save differs", model.kind());
        }
    }

    #[test]
    fn driver_round_trip_preserves_structure() {
        let m = driver_model();
        let text = model_text(&AnyModel::from(m.clone())).unwrap();
        let AnyModel::PwRbfDriver(l) = parse_model(&text).unwrap() else {
            panic!("kind changed");
        };
        assert_eq!(l.ts, m.ts);
        assert_eq!(l.up.w_high(), m.up.w_high());
        assert!(l
            .i_high
            .network()
            .centers()
            .eq(m.i_high.network().centers()));
        assert_eq!(l.i_high.network().weights(), m.i_high.network().weights());
        assert_eq!(l.i_high.network().bias(), m.i_high.network().bias());
        // Loaded and original produce bit-identical predictions.
        let u = [0.3, 0.1, -0.2];
        let y = [0.01, 0.02];
        assert_eq!(l.i_high.one_step(&u, &y), m.i_high.one_step(&u, &y));
    }

    #[test]
    fn future_version_rejected() {
        let text = model_text(&all_models()[0]).unwrap();
        let bumped = text.replacen("mdlx 1 ", "mdlx 3 ", 1);
        match parse_model(&bumped) {
            Err(Error::Exchange(ExchangeError::UnsupportedVersion { found })) => {
                assert_eq!(found, "3")
            }
            other => panic!("expected version error, got {other:?}"),
        }
        // `mdlx 2` is understood, but only as the bundle grammar.
        let v2_kind = text.replacen("mdlx 1 ", "mdlx 2 ", 1);
        assert!(matches!(
            parse_model(&v2_kind),
            Err(Error::Exchange(ExchangeError::Syntax { line: 1, .. }))
        ));
    }

    #[test]
    fn crlf_and_trailing_blank_lines_load_cleanly() {
        for model in all_models() {
            let text = model_text(&model).unwrap();
            // CRLF endings (Windows checkout).
            let crlf = text.replace('\n', "\r\n");
            let loaded = parse_model(&crlf)
                .unwrap_or_else(|e| panic!("{}: CRLF artifact failed to load: {e}", model.kind()));
            assert_eq!(model_text(&loaded).unwrap(), text, "{}", model.kind());
            // Trailing blank line(s), both conventions.
            for suffix in ["\n", "\n\n", "\r\n", "  \n"] {
                let padded = format!("{text}{suffix}");
                let loaded = parse_model(&padded).unwrap_or_else(|e| {
                    panic!(
                        "{}: artifact with trailing {suffix:?} failed to load: {e}",
                        model.kind()
                    )
                });
                assert_eq!(model_text(&loaded).unwrap(), text);
            }
            // A lone trailing '\r' after the final newline.
            let loaded = parse_model(&format!("{text}\r")).unwrap();
            assert_eq!(model_text(&loaded).unwrap(), text);
        }
        // Interior blank lines are still rejected.
        let text = model_text(&all_models()[0]).unwrap();
        let interior = text.replacen("ts ", "\nts ", 1);
        assert!(parse_model(&interior).is_err());
    }

    fn sample_provenance() -> Provenance {
        Provenance::new("9a3fb2c41d70e655")
            .with_param("device", "md1")
            .with_param("note", "fast extraction, two words")
    }

    #[test]
    fn bundle_round_trip_byte_identical() {
        let bundle = Artifact::bundle(all_models(), Some(sample_provenance()));
        let text = artifact_text(&bundle).unwrap();
        assert!(text.starts_with("mdlx 2 bundle\n"));
        let loaded = parse_artifact(&text).unwrap();
        assert_eq!(loaded.version, BUNDLE_FORMAT_VERSION);
        assert_eq!(loaded.models.len(), 4);
        assert_eq!(loaded.provenance, Some(sample_provenance()));
        assert_eq!(artifact_text(&loaded).unwrap(), text);
    }

    #[test]
    fn bundle_without_provenance_round_trips() {
        let bundle = Artifact::bundle(vec![all_models().remove(2)], None);
        let text = artifact_text(&bundle).unwrap();
        let loaded = parse_artifact(&text).unwrap();
        assert!(loaded.provenance.is_none());
        assert_eq!(artifact_text(&loaded).unwrap(), text);
        // A single-model v2 bundle unwraps to its model.
        assert_eq!(parse_model(&text).unwrap().name(), "cr_test");
    }

    #[test]
    fn v1_artifact_round_trips_as_v1() {
        let model = all_models().remove(0);
        let v1_text = model_text(&model).unwrap();
        let artifact = parse_artifact(&v1_text).unwrap();
        assert_eq!(artifact.version, FORMAT_VERSION);
        assert!(artifact.provenance.is_none());
        // Re-saving through the artifact path stays on the v1 byte form.
        assert_eq!(artifact_text(&artifact).unwrap(), v1_text);
    }

    #[test]
    fn multi_model_bundle_rejected_by_load_model() {
        let text = artifact_text(&Artifact::bundle(all_models(), None)).unwrap();
        assert!(matches!(
            parse_model(&text),
            Err(Error::Exchange(ExchangeError::Invalid { .. }))
        ));
    }

    #[test]
    fn invalid_bundles_rejected_on_save() {
        // Empty bundle.
        let e = artifact_text(&Artifact::bundle(vec![], None)).unwrap_err();
        assert!(matches!(e, Error::Exchange(ExchangeError::Invalid { .. })));
        // v1 cannot carry provenance.
        let mut artifact = Artifact::single(all_models().remove(0));
        artifact.provenance = Some(sample_provenance());
        assert!(artifact_text(&artifact).is_err());
        // v1 holds exactly one model.
        let mut artifact = Artifact::single(all_models().remove(0));
        artifact.models.push(all_models().remove(1));
        assert!(artifact_text(&artifact).is_err());
        // Unknown version.
        let mut artifact = Artifact::single(all_models().remove(0));
        artifact.version = 7;
        assert!(artifact_text(&artifact).is_err());
        // Multi-line provenance values.
        let mut p = sample_provenance();
        p.tool = "two\nlines".into();
        let e = artifact_text(&Artifact::bundle(all_models(), Some(p))).unwrap_err();
        assert!(matches!(e, Error::Exchange(ExchangeError::Invalid { .. })));
        // Param key with whitespace.
        let p = sample_provenance().with_param("", "x");
        assert!(artifact_text(&Artifact::bundle(all_models(), Some(p))).is_err());
    }

    #[test]
    fn corrupted_bundles_rejected_per_section() {
        let text =
            artifact_text(&Artifact::bundle(all_models(), Some(sample_provenance()))).unwrap();
        // Truncation inside the provenance block.
        let cut = text.find("endprovenance").unwrap();
        assert!(parse_artifact(&text[..cut]).is_err());
        // Wrong model count.
        let lying = text.replacen("models 4", "models 5", 1);
        assert!(parse_artifact(&lying).is_err());
        let lying = text.replacen("models 4", "models 2", 1);
        assert!(parse_artifact(&lying).is_err());
        // Zero-model bundle.
        let empty = "mdlx 2 bundle\nmodels 0\nend\n";
        assert!(matches!(
            parse_artifact(empty),
            Err(Error::Exchange(ExchangeError::Invalid { .. }))
        ));
        // Unknown embedded kind.
        let unknown = text.replacen("model pwrbf-driver", "model hologram", 1);
        assert!(matches!(
            parse_artifact(&unknown),
            Err(Error::Exchange(ExchangeError::UnknownKind { .. }))
        ));
        // Dropped section terminator.
        let dropped = text.replacen("endmodel\n", "", 1);
        assert!(parse_artifact(&dropped).is_err());
        // Content after 'end'.
        let trailing = format!("{text}junk\n");
        assert!(parse_artifact(&trailing).is_err());
    }

    #[test]
    fn config_digest_is_stable_and_value_sensitive() {
        #[derive(Debug)]
        struct Cfg {
            // Read only through the derived Debug rendering the digest
            // hashes — which is exactly the property under test.
            #[allow(dead_code)]
            n: usize,
        }
        let a = config_digest(&Cfg { n: 40 });
        assert_eq!(a.len(), 16);
        assert_eq!(a, config_digest(&Cfg { n: 40 }));
        assert_ne!(a, config_digest(&Cfg { n: 41 }));
    }

    #[test]
    fn unknown_kind_rejected() {
        let e = parse_model("mdlx 1 hologram\nname x\nend\n").unwrap_err();
        assert!(matches!(
            e,
            Error::Exchange(ExchangeError::UnknownKind { .. })
        ));
    }

    #[test]
    fn truncation_rejected() {
        for model in all_models() {
            let text = model_text(&model).unwrap();
            // Drop the final 'end' line.
            let truncated = text.trim_end_matches("end\n");
            let e = parse_model(truncated).unwrap_err();
            assert!(
                matches!(
                    e,
                    Error::Exchange(ExchangeError::Truncated { .. } | ExchangeError::Syntax { .. })
                ),
                "{}: {e:?}",
                model.kind()
            );
            // Drop half the file.
            let half = &text[..text.len() / 2];
            assert!(parse_model(half).is_err(), "{}", model.kind());
        }
    }

    #[test]
    fn non_finite_values_rejected() {
        let text = model_text(&all_models()[0]).unwrap();
        // Corrupt one weight value into NaN.
        let corrupted = text.replacen("wh 3 0e0", "wh 3 NaN", 1);
        assert_ne!(text, corrupted, "corruption target must exist");
        let e = parse_model(&corrupted).unwrap_err();
        assert!(
            matches!(e, Error::Exchange(ExchangeError::NonFinite { .. })),
            "{e:?}"
        );
        let corrupted = text.replacen("bias 1e-4", "bias inf", 1);
        assert_ne!(text, corrupted);
        let e = parse_model(&corrupted).unwrap_err();
        assert!(matches!(
            e,
            Error::Exchange(ExchangeError::NonFinite { .. })
        ));
    }

    #[test]
    fn unknown_field_rejected() {
        let text = model_text(&all_models()[0]).unwrap();
        let with_extra = text.replacen("ts ", "temperature 300\nts ", 1);
        let e = parse_model(&with_extra).unwrap_err();
        match e {
            Error::Exchange(ExchangeError::UnknownField { line, field }) => {
                assert_eq!(line, 3);
                assert_eq!(field, "temperature");
            }
            other => panic!("expected unknown-field error, got {other:?}"),
        }
    }

    #[test]
    fn length_mismatch_rejected() {
        let text = model_text(&all_models()[0]).unwrap();
        // Declare 4 samples but carry 3.
        let corrupted = text.replacen("wh 3 ", "wh 4 ", 1);
        let e = parse_model(&corrupted).unwrap_err();
        assert!(matches!(e, Error::Exchange(ExchangeError::Syntax { .. })));
    }

    /// Absurd declared counts must fail as syntax errors, never drive an
    /// allocation or arithmetic overflow (the strict-loading contract).
    #[test]
    fn pathological_declared_counts_rejected() {
        let text = model_text(&all_models()[0]).unwrap();
        for corrupted in [
            text.replacen("wh 3 ", &format!("wh {} ", usize::MAX), 1),
            text.replacen("wh 3 ", "wh 999999999999999999 ", 1),
            text.replacen("rbf 5 3", "rbf 5 999999999999999999", 1),
            text.replacen("orders 2 2", &format!("orders {} 2", usize::MAX), 1),
        ] {
            assert_ne!(text, corrupted, "corruption target must exist");
            let e = parse_model(&corrupted).unwrap_err();
            assert!(
                matches!(e, Error::Exchange(ExchangeError::Syntax { .. })),
                "{e:?}"
            );
        }
    }

    #[test]
    fn non_serializable_models_rejected() {
        let mut m = driver_model();
        m.name = "two\nlines".into();
        let e = model_text(&AnyModel::from(m)).unwrap_err();
        assert!(matches!(e, Error::Exchange(ExchangeError::Invalid { .. })));
        let mut m = driver_model();
        m.ts = f64::NAN;
        // Caught by the model's own validation before writing.
        assert!(model_text(&AnyModel::from(m)).is_err());
    }

    #[test]
    fn path_round_trip_and_io_errors() {
        let dir = std::env::temp_dir().join("mdlx_exchange_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.mdlx");
        let artifact = Artifact::single(cr_model().into());
        save_artifact_as(&artifact, ArtifactFormat::Text, &path).unwrap();
        let loaded = load_artifact_from_path(&path)
            .unwrap()
            .into_single()
            .unwrap();
        assert_eq!(loaded.name(), "cr_test");
        let missing = dir.join("nope.mdlx");
        assert!(matches!(
            load_artifact_from_path(&missing).unwrap_err(),
            Error::Exchange(ExchangeError::Io { .. })
        ));
        let unwritable = dir.join("no-such-dir").join("model.mdlx");
        match save_artifact_as(&artifact, ArtifactFormat::Binary, &unwritable).unwrap_err() {
            Error::Exchange(ExchangeError::Io { path, .. }) => {
                assert_eq!(path, unwritable.display().to_string())
            }
            other => panic!("expected an I/O error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_display_is_informative() {
        let e = ExchangeError::UnsupportedVersion { found: "9".into() };
        assert!(e.to_string().contains('9'));
        let e = ExchangeError::NonFinite {
            line: 7,
            field: "wh".into(),
        };
        assert!(e.to_string().contains("wh"));
        let e = ExchangeError::Truncated {
            expected: "end".into(),
        };
        assert!(e.to_string().contains("end"));
    }

    /// Records the keys a decoder asks for, in order: the text record
    /// keys (§2.4 of `docs/FORMAT.md`) and the typed binary fields
    /// (§3.4).
    #[derive(Default)]
    struct KeyRecorder {
        text: Vec<String>,
        binary: Vec<String>,
    }

    impl KeyRecorder {
        fn field(&mut self, ty: &str, key: &str) -> ExResult<()> {
            self.text.push(key.to_string());
            self.binary.push(format!("{ty} {key}"));
            Ok(())
        }
    }

    impl Codec for KeyRecorder {
        fn header(&mut self, key: &str, label: &str) -> ExResult<()> {
            self.text.push(format!("{key} {label}"));
            Ok(())
        }
        fn f64(&mut self, key: &str, _: &mut f64) -> ExResult<()> {
            self.field("f64", key)
        }
        fn pair(&mut self, key: &str, _: &mut (usize, usize)) -> ExResult<()> {
            self.field("pair", key)
        }
        fn vector(&mut self, key: &str, _: &mut Vec<f64>) -> ExResult<()> {
            self.field("vector", key)
        }
        fn rbf(&mut self, key: &str, _: usize, _: &mut usize) -> ExResult<()> {
            self.field("u32", key)
        }
        fn rows(&mut self, key: &str, _: usize, _: usize, _: &mut Vec<Vec<f64>>) -> ExResult<()> {
            self.field("rows", key)
        }
        fn string(&mut self, key: &str, _: &mut String) -> ExResult<()> {
            self.field("string", key)
        }
        fn params(&mut self, key: &str, _: &str, _: &mut Vec<(String, String)>) -> ExResult<()> {
            self.field("params", key)
        }
    }

    /// The body of the first fenced block after `heading` in `doc`.
    fn block_after<'a>(doc: &'a str, heading: &str) -> Vec<&'a str> {
        let start = doc
            .find(heading)
            .unwrap_or_else(|| panic!("no '{heading}'"));
        let body = &doc[start..];
        let open = body.find("```text\n").unwrap() + "```text\n".len();
        let close = open + body[open..].find("```").unwrap();
        body[open..close]
            .lines()
            .map(|l| l.split('#').next().unwrap().trim())
            .filter(|l| !l.is_empty())
            .collect()
    }

    /// A §2.4 grammar line as the recorder names it: the key, plus the
    /// label of a section header (`transition up`).
    fn text_key(line: &str) -> String {
        let mut toks = line.split_whitespace();
        let key = toks.next().unwrap();
        match toks.next() {
            Some(label) if !label.starts_with('<') => format!("{key} {label}"),
            _ => key.to_string(),
        }
    }

    /// `docs/FORMAT.md` §2.4 (text record grammars) and §3.4 (`MODL`
    /// payload table) list every kind's fields in exactly the order of
    /// the field schema both codecs walk.
    #[test]
    fn format_spec_matches_field_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/FORMAT.md");
        let doc = std::fs::read_to_string(path).unwrap();
        let text_spec = &doc[doc.find("### 2.4").unwrap()..doc.find("## 3.").unwrap()];
        let bin_spec = &doc[doc.find("### 3.4").unwrap()..doc.find("## 4.").unwrap()];
        let narx_text = block_after(text_spec, "NARX submodel");
        let narx_bin = block_after(bin_spec, "**NARX sub-block**");
        for kind in ModelKind::ALL {
            let mut recorder = KeyRecorder::default();
            // Default fields assemble into no model; only the walk matters.
            let _ = decode_body(kind, String::new(), &mut recorder);

            let grammar = block_after(text_spec, &format!("**`{}`:**", kind.tag()));
            assert_eq!(grammar[0], "name <name>", "{kind}: the name record leads");
            let mut expected = Vec::new();
            for line in &grammar[1..] {
                expected.push(text_key(line));
                if line.starts_with("submodel ") {
                    expected.extend(narx_text[1..].iter().map(|l| text_key(l)));
                }
            }
            assert_eq!(recorder.text, expected, "{kind}: §2.4 vs schema");

            let row_start = format!("| `{}` (", kind.tag());
            let row = bin_spec
                .lines()
                .find(|l| l.starts_with(&row_start))
                .unwrap_or_else(|| panic!("{kind}: no §3.4 row"));
            let fields = row.trim_end_matches('|').rsplit('|').next().unwrap();
            let mut expected = Vec::new();
            for field in fields.split(',').map(str::trim) {
                if field.starts_with("NARX ") {
                    expected.extend(narx_bin.iter().map(|l| l.to_string()));
                } else {
                    expected.push(field.to_string());
                }
            }
            assert_eq!(recorder.binary, expected, "{kind}: §3.4 vs schema");
        }
    }

    mod binary_tests {
        use super::*;

        fn v2_bundle() -> Artifact {
            Artifact::bundle(
                all_models(),
                Some(Provenance {
                    tool: "mdl-extract".into(),
                    tool_version: "0.9".into(),
                    config_digest: content_digest(b"cfg"),
                    params: vec![
                        ("order".into(), "2".into()),
                        ("note".into(), "two words fine".into()),
                    ],
                }),
            )
        }

        #[test]
        fn text_binary_text_byte_identical_v1() {
            for model in all_models() {
                let artifact = Artifact::single(model);
                let text = artifact_text(&artifact).unwrap();
                let bin = artifact_bin(&artifact).unwrap();
                let back = binary::load_bin(&bin).unwrap();
                assert_eq!(back.version, FORMAT_VERSION);
                assert_eq!(artifact_text(&back).unwrap(), text);
            }
        }

        #[test]
        fn text_binary_text_byte_identical_v2() {
            let artifact = v2_bundle();
            let text = artifact_text(&artifact).unwrap();
            let bin = artifact_bin(&artifact).unwrap();
            let back = binary::load_bin(&bin).unwrap();
            assert_eq!(back.version, BUNDLE_FORMAT_VERSION);
            assert_eq!(back.provenance, artifact.provenance);
            assert_eq!(artifact_text(&back).unwrap(), text);
        }

        #[test]
        fn binary_save_is_deterministic() {
            let artifact = v2_bundle();
            let a = artifact_bin(&artifact).unwrap();
            let b = artifact_bin(&artifact).unwrap();
            assert_eq!(a, b);
        }

        #[test]
        fn embedded_digest_matches_body_hash() {
            let bin = artifact_bin(&v2_bundle()).unwrap();
            let embedded = binary::embedded_digest(&bin).unwrap();
            let computed = format!("{:016x}", fnv1a(&bin[binary::FILE_HEADER_LEN..]));
            assert_eq!(embedded, computed);
            assert_eq!(artifact_digest(&bin), embedded);
            assert!(binary::embedded_digest(b"mdlx 1\n").is_none());
        }

        #[test]
        fn index_lists_models_without_decoding() {
            let bin = artifact_bin(&v2_bundle()).unwrap();
            let index = binary::index_bytes(&bin).unwrap();
            assert_eq!(index.text_version, BUNDLE_FORMAT_VERSION);
            assert_eq!(index.sections.len(), 5);
            assert!(index.sections[0].kind.is_none());
            let names: Vec<&str> = index.models().map(|s| s.name.as_str()).collect();
            assert_eq!(names, ["md_test", "rx_test", "cr_test", "ibis_test"]);
            let kinds: Vec<ModelKind> = index.models().map(|s| s.kind.unwrap()).collect();
            assert_eq!(kinds, ModelKind::ALL);
        }

        #[test]
        fn single_section_decodes_independently() {
            let bin = artifact_bin(&v2_bundle()).unwrap();
            let index = binary::index_bytes(&bin).unwrap();
            let section = index.models().find(|s| s.name == "cr_test").unwrap();
            let model = binary::decode_model(&bin, section).unwrap();
            assert_eq!(model.kind(), ModelKind::CrBaseline);
            let prov = binary::decode_provenance_section(&bin, &index.sections[0]).unwrap();
            assert_eq!(prov.tool, "mdl-extract");
        }

        #[test]
        fn index_path_matches_index_bytes() {
            let dir = std::env::temp_dir().join("mdlxb_index_test");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("bundle.mdlxb");
            let artifact = v2_bundle();
            save_artifact_as(&artifact, ArtifactFormat::Binary, &path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let binary::Probe::Binary(from_path) = binary::probe_path(&path, None).unwrap() else {
                panic!("a binary container probes as binary");
            };
            let from_bytes = binary::index_bytes(&bytes).unwrap();
            assert_eq!(from_path.unwrap(), from_bytes);
            let loaded = load_artifact_from_path(&path).unwrap();
            assert_eq!(loaded.models.len(), 4);
            std::fs::remove_dir_all(&dir).ok();
        }

        /// Both loaders read both containers, and neither looks at the file
        /// name: binary bytes under a `.mdlx` name load as binary.
        #[test]
        fn both_loaders_read_both_containers_whatever_the_name() {
            let dir = std::env::temp_dir().join(format!("mdlx_loaders_{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let artifact = v2_bundle();
            let text = artifact_text(&artifact).unwrap();
            let bin = artifact_bin(&artifact).unwrap();
            assert_eq!(ArtifactFormat::of(text.as_bytes()), ArtifactFormat::Text);
            assert_eq!(ArtifactFormat::of(&bin), ArtifactFormat::Binary);
            for (name, bytes) in [
                ("bundle.mdlx", text.as_bytes()),
                ("bundle.mdlxb", &bin[..]),
                ("binary-named-text.mdlx", &bin[..]),
            ] {
                let path = dir.join(name);
                std::fs::write(&path, bytes).unwrap();
                for loaded in [
                    load_artifact_bytes(bytes).unwrap(),
                    load_artifact_from_path(&path).unwrap(),
                ] {
                    assert_eq!(artifact_text(&loaded).unwrap(), text, "{name}");
                    assert_eq!(artifact_bin(&loaded).unwrap(), bin, "{name}");
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn bad_magic_rejected() {
            let e = load_artifact_bytes(&[0xff, 0xfe, 0x00, 0x01]).unwrap_err();
            match e {
                Error::Exchange(ExchangeError::Corrupt { .. }) => {}
                other => panic!("expected corrupt (not UTF-8), got {other:?}"),
            }
            let mut bin = artifact_bin(&v2_bundle()).unwrap();
            bin[0] ^= 0x20;
            let e = binary::load_bin(&bin).unwrap_err();
            assert!(matches!(e, Error::Exchange(ExchangeError::BadMagic { .. })));
        }

        #[test]
        fn truncated_container_rejected() {
            let bin = artifact_bin(&v2_bundle()).unwrap();
            for cut in [10, binary::FILE_HEADER_LEN + 5, bin.len() - 3] {
                let e = binary::load_bin(&bin[..cut]).unwrap_err();
                assert!(
                    matches!(e, Error::Exchange(ExchangeError::Truncated { .. })),
                    "cut at {cut}: {e:?}"
                );
            }
        }

        #[test]
        fn flipped_payload_byte_fails_digest() {
            let mut bin = artifact_bin(&v2_bundle()).unwrap();
            let index = binary::index_bytes(&bin).unwrap();
            let target = index.models().next().unwrap().payload_offset + 3;
            bin[target] ^= 0x01;
            let e = binary::load_bin(&bin).unwrap_err();
            match e {
                Error::Exchange(ExchangeError::DigestMismatch { section, .. }) => {
                    // The body digest covers everything, so it trips first.
                    assert_eq!(section, "body");
                }
                other => panic!("expected digest mismatch, got {other:?}"),
            }
        }

        #[test]
        fn flipped_digest_byte_fails_section_check() {
            let bin = artifact_bin(&v2_bundle()).unwrap();
            let index = binary::index_bytes(&bin).unwrap();
            let section = index.models().next().unwrap().clone();
            let mut corrupted = section.clone();
            corrupted.digest = {
                let mut d = section.digest.clone().into_bytes();
                d[0] = if d[0] == b'0' { b'1' } else { b'0' };
                String::from_utf8(d).unwrap()
            };
            let e = binary::decode_model(&bin, &corrupted).unwrap_err();
            assert!(matches!(
                e,
                Error::Exchange(ExchangeError::DigestMismatch { .. })
            ));
        }

        #[test]
        fn unknown_kind_code_rejected() {
            let mut bin = artifact_bin(&v2_bundle()).unwrap();
            let index = binary::index_bytes(&bin).unwrap();
            let section = index.models().next().unwrap();
            // Kind code byte sits 20 bytes before the name start
            // (section header is 24 bytes, kind at +4).
            let header_start =
                section.payload_offset - section.name.len() - binary::SECTION_HEADER_LEN;
            bin[header_start + 4] = 99;
            let e = binary::index_bytes(&bin).unwrap_err();
            assert!(matches!(
                e,
                Error::Exchange(ExchangeError::UnknownKind { .. })
            ));
        }

        #[test]
        fn unsupported_versions_rejected() {
            let mut bin = artifact_bin(&v2_bundle()).unwrap();
            bin[8] = 9;
            assert!(matches!(
                binary::load_bin(&bin).unwrap_err(),
                Error::Exchange(ExchangeError::UnsupportedVersion { .. })
            ));
            let mut bin = artifact_bin(&v2_bundle()).unwrap();
            bin[12] = 7;
            assert!(matches!(
                binary::load_bin(&bin).unwrap_err(),
                Error::Exchange(ExchangeError::UnsupportedVersion { .. })
            ));
        }

        #[test]
        fn v1_shape_enforced_in_binary() {
            let mut artifact = Artifact::single(all_models().remove(2));
            artifact.provenance = Some(Provenance {
                tool: "t".into(),
                tool_version: "1".into(),
                config_digest: content_digest(b"x"),
                params: vec![],
            });
            assert!(artifact_bin(&artifact).is_err());
        }

        #[test]
        fn auto_loader_dispatches_on_magic() {
            let artifact = v2_bundle();
            let text = artifact_text(&artifact).unwrap();
            let bin = artifact_bin(&artifact).unwrap();
            let from_text = load_artifact_bytes(text.as_bytes()).unwrap();
            let from_bin = load_artifact_bytes(&bin).unwrap();
            assert_eq!(
                artifact_text(&from_text).unwrap(),
                artifact_text(&from_bin).unwrap()
            );
        }
    }
}
