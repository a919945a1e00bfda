//! The binary `mdlx` container (`mdlx-bin 1`, conventional extension
//! `.mdlxb`): a length-framed, sectioned byte layout that round-trips the
//! exact information content of the text format while letting a reader
//! **skip or verify any section without parsing it**.
//!
//! Text artifacts are human-auditable but pay a full lexer pass per load;
//! a store of thousands of models pays that linearly even for entries it
//! never touches. The binary container moves every model behind a
//! fixed-width section header carrying the model's kind, name, byte
//! length and FNV-1a content digest — so an index of the whole file costs
//! a handful of small reads ([`index_path`]) and a single model
//! materializes by slicing and decoding one section ([`decode_model`]).
//!
//! # Layout
//!
//! All integers are **little-endian**; all floats are IEEE-754 binary64
//! written as their raw bit pattern (`f64::to_bits`), so text → binary →
//! text conversion is byte-identical (the text float syntax is the
//! shortest round-trip form of the same bits). The normative field tables
//! live in `docs/FORMAT.md`; in summary:
//!
//! ```text
//! file header (32 bytes)
//!   0..8    magic  "mdlxbin\0"
//!   8..12   u32    container version (1)
//!   12..16  u32    text format version the artifact round-trips to (1|2)
//!   16..20  u32    section count
//!   20..28  u64    body digest: FNV-1a over every byte from offset 32
//!   28..32  u32    reserved (0)
//! section (repeated; 24-byte header + name + payload)
//!   0..4    tag    "PROV" | "MODL"
//!   4..5    u8     model kind code (PROV: 0)
//!   5..6    u8     reserved (0)
//!   6..8    u16    name length n (PROV: 0)
//!   8..16   u64    payload length
//!   16..24  u64    section digest: FNV-1a over name bytes ++ payload
//!   24..    name bytes, then payload
//! ```
//!
//! A `PROV` section (at most one, first) carries the v2 provenance block;
//! each `MODL` section carries one model body in the same record order as
//! the text grammar, with `u32` length prefixes in place of decimal
//! counts. Loading is as strict as the text reader: bad magic, digest
//! mismatches, truncation, impossible counts, non-finite floats, unknown
//! kind codes and trailing bytes all fail with typed [`ExchangeError`]s,
//! and every assembled model passes its own validation.
//!
//! # Example
//!
//! ```no_run
//! use macromodel::exchange::binary::{load_artifact_bin_from_path, save_artifact_bin_to_path};
//! use macromodel::exchange::load_artifact_from_path;
//!
//! # fn main() -> Result<(), macromodel::Error> {
//! let artifact = load_artifact_from_path("md1.mdlx")?;         // text in
//! save_artifact_bin_to_path(&artifact, "md1.mdlxb")?;          // binary out
//! let back = load_artifact_bin_from_path("md1.mdlxb")?;        // binary in
//! assert_eq!(back.models.len(), artifact.models.len());
//! # Ok(())
//! # }
//! ```

use super::{
    check_param, check_shape, decode_body, encode_body, finite, fnv1a, invalid, io_error,
    is_param_key, one_line, AnyModel, Artifact, Codec, ExResult, ExchangeError, Provenance,
    BUNDLE_FORMAT_VERSION, FORMAT_VERSION, MAX_DECLARED_COUNT,
};
use crate::macromodel::{Macromodel, ModelKind};
use crate::Result;
use std::io::{BufRead, Read, Seek};
use std::path::Path;

/// Leading magic of every binary container.
pub const MAGIC: [u8; 8] = *b"mdlxbin\0";

/// Container revision this module writes and reads.
pub const BIN_FORMAT_VERSION: u32 = 1;

/// Byte length of the file header.
pub const FILE_HEADER_LEN: usize = 32;

/// Byte length of a section header, name excluded.
pub const SECTION_HEADER_LEN: usize = 24;

/// Section tag of the provenance block.
const TAG_PROV: [u8; 4] = *b"PROV";

/// Section tag of a model body.
const TAG_MODL: [u8; 4] = *b"MODL";

/// Whether `bytes` begin with the binary-container magic.
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// The body digest stored in a binary container's file header, hex — read
/// from the fixed header offset without hashing or parsing anything.
/// `None` when the bytes are not a binary container (or are shorter than
/// the header). The digest is *trusted* here; [`load_artifact_bin`]
/// verifies it.
pub fn embedded_digest(bytes: &[u8]) -> Option<String> {
    if !is_binary(bytes) || bytes.len() < FILE_HEADER_LEN {
        return None;
    }
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[20..28]);
    Some(format!("{:016x}", u64::from_le_bytes(raw)))
}

/// Wire code of a model kind inside a `MODL` section header.
fn kind_code(kind: ModelKind) -> u8 {
    match kind {
        ModelKind::PwRbfDriver => 1,
        ModelKind::Receiver => 2,
        ModelKind::CrBaseline => 3,
        ModelKind::Ibis => 4,
    }
}

/// Parses a wire kind code.
fn kind_from_code(code: u8) -> Option<ModelKind> {
    match code {
        1 => Some(ModelKind::PwRbfDriver),
        2 => Some(ModelKind::Receiver),
        3 => Some(ModelKind::CrBaseline),
        4 => Some(ModelKind::Ibis),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Little-endian record writer for one section payload.
#[derive(Default)]
struct BinWriter {
    out: Vec<u8>,
}

impl BinWriter {
    fn count(&mut self, key: &str, v: usize) -> ExResult<()> {
        if v > MAX_DECLARED_COUNT {
            return Err(invalid(format!(
                "'{key}' count {v} exceeds the format bound"
            )));
        }
        self.out.extend_from_slice(&(v as u32).to_le_bytes());
        Ok(())
    }

    fn float(&mut self, key: &str, v: f64) -> ExResult<()> {
        self.out
            .extend_from_slice(&finite(key, v)?.to_bits().to_le_bytes());
        Ok(())
    }
}

impl Codec for BinWriter {
    fn header(&mut self, _: &str, _: &str) -> ExResult<()> {
        Ok(())
    }

    fn f64(&mut self, key: &str, v: &mut f64) -> ExResult<()> {
        self.float(key, *v)
    }

    fn pair(&mut self, key: &str, v: &mut (usize, usize)) -> ExResult<()> {
        self.count(key, v.0)?;
        self.count(key, v.1)
    }

    fn vector(&mut self, key: &str, v: &mut Vec<f64>) -> ExResult<()> {
        self.count(key, v.len())?;
        v.iter().try_for_each(|&x| self.float(key, x))
    }

    fn rbf(&mut self, key: &str, _: usize, n: &mut usize) -> ExResult<()> {
        self.count(key, *n)
    }

    fn rows(&mut self, key: &str, _: usize, _: usize, v: &mut Vec<Vec<f64>>) -> ExResult<()> {
        v.iter().flatten().try_for_each(|&x| self.float(key, x))
    }

    fn string(&mut self, key: &str, v: &mut String) -> ExResult<()> {
        one_line(key, v)?;
        self.count(key, v.len())?;
        self.out.extend_from_slice(v.as_bytes());
        Ok(())
    }

    fn params(
        &mut self,
        count_key: &str,
        key: &str,
        v: &mut Vec<(String, String)>,
    ) -> ExResult<()> {
        self.count(count_key, v.len())?;
        for (k, value) in v.iter_mut() {
            check_param(k, value)?;
            self.string(key, k)?;
            self.string(key, value)?;
        }
        Ok(())
    }
}

/// FNV-1a over a section's name bytes followed by its payload.
fn section_digest(name: &str, payload: &[u8]) -> u64 {
    let mut input = Vec::with_capacity(name.len() + payload.len());
    input.extend_from_slice(name.as_bytes());
    input.extend_from_slice(payload);
    fnv1a(&input)
}

/// Appends one section (header + name + payload) to `body`.
fn push_section(body: &mut Vec<u8>, tag: [u8; 4], kind: u8, name: &str, payload: &[u8]) {
    body.extend_from_slice(&tag);
    body.push(kind);
    body.push(0);
    body.extend_from_slice(&(name.len() as u16).to_le_bytes());
    body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    body.extend_from_slice(&section_digest(name, payload).to_le_bytes());
    body.extend_from_slice(name.as_bytes());
    body.extend_from_slice(payload);
}

/// Serializes an artifact into the binary container.
///
/// The same artifacts that [`super::save_artifact`] accepts are accepted
/// here — v1 is exactly one provenance-free model, v2 is one or more
/// models with optional provenance — and the text version is recorded in
/// the header, so converting back to text re-saves the original version.
///
/// # Errors
///
/// [`ExchangeError::Invalid`] for empty bundles, v1 shape violations,
/// non-finite values, over-long names, or models failing their own
/// validation.
pub fn save_artifact_bin(artifact: &Artifact) -> Result<Vec<u8>> {
    check_shape(
        artifact.version,
        artifact.provenance.is_some(),
        artifact.models.len(),
    )?;
    let mut body = Vec::new();
    let mut sections = 0u32;
    if let Some(p) = &artifact.provenance {
        let mut w = BinWriter::default();
        p.clone().walk(&mut w)?;
        push_section(&mut body, TAG_PROV, 0, "", &w.out);
        sections += 1;
    }
    for model in &artifact.models {
        model.validate()?;
        let name = model.name();
        if name.len() > u16::MAX as usize {
            return Err(invalid(format!(
                "model name is {} bytes; the format caps 65535",
                name.len()
            ))
            .into());
        }
        one_line("name", name)?;
        let mut w = BinWriter::default();
        encode_body(model, &mut w)?;
        push_section(&mut body, TAG_MODL, kind_code(model.kind()), name, &w.out);
        sections += 1;
    }
    let mut out = Vec::with_capacity(FILE_HEADER_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&BIN_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&artifact.version.to_le_bytes());
    out.extend_from_slice(&sections.to_le_bytes());
    out.extend_from_slice(&fnv1a(&body).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Saves an artifact as a binary container file (see
/// [`save_artifact_bin`]); the conventional extension is `.mdlxb`.
///
/// # Errors
///
/// [`save_artifact_bin`] failures plus [`ExchangeError::Io`].
pub fn save_artifact_bin_to_path(artifact: &Artifact, path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    std::fs::write(path, save_artifact_bin(artifact)?).map_err(io_error(path))?;
    Ok(())
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Little-endian cursor over one section payload, reporting absolute
/// offsets in its errors (`base` is the payload's offset in the file).
struct BinReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: usize,
}

impl<'a> BinReader<'a> {
    fn new(bytes: &'a [u8], base: usize) -> Self {
        BinReader {
            bytes,
            pos: 0,
            base,
        }
    }

    fn offset(&self) -> usize {
        self.base + self.pos
    }

    fn take(&mut self, n: usize, key: &str) -> ExResult<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(ExchangeError::Truncated {
                expected: key.to_string(),
            });
        };
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn count(&mut self, key: &str) -> ExResult<usize> {
        let offset = self.offset();
        let raw = self.take(4, key)?;
        let v = u32::from_le_bytes(raw.try_into().expect("4 bytes taken")) as usize;
        if v > MAX_DECLARED_COUNT {
            return Err(ExchangeError::Corrupt {
                offset,
                message: format!("'{key}' count {v} exceeds the format bound"),
            });
        }
        Ok(v)
    }

    fn float(&mut self, key: &str) -> ExResult<f64> {
        let offset = self.offset();
        let raw = self.take(8, key)?;
        let v = f64::from_bits(u64::from_le_bytes(raw.try_into().expect("8 bytes taken")));
        if !v.is_finite() {
            return Err(ExchangeError::NonFinite {
                line: offset,
                field: key.to_string(),
            });
        }
        Ok(v)
    }

    fn floats(&mut self, n: usize, key: &str) -> ExResult<Vec<f64>> {
        // Bound the pre-allocation by the bytes actually present; a lying
        // count runs into Truncated, never a pathological allocation.
        let mut vs = Vec::with_capacity(n.min(self.bytes.len() / 8 + 1));
        for _ in 0..n {
            vs.push(self.float(key)?);
        }
        Ok(vs)
    }

    fn text(&mut self, key: &str) -> ExResult<String> {
        let offset = self.offset();
        let n = self.count(key)?;
        let raw = self.take(n, key)?;
        let s = std::str::from_utf8(raw).map_err(|_| ExchangeError::Corrupt {
            offset,
            message: format!("'{key}' is not valid UTF-8"),
        })?;
        if s.contains(['\n', '\r']) {
            return Err(ExchangeError::Corrupt {
                offset,
                message: format!("'{key}' contains line breaks"),
            });
        }
        Ok(s.to_string())
    }

    /// Fails unless every byte has been consumed.
    fn finish(&self, what: &str) -> ExResult<()> {
        if self.pos != self.bytes.len() {
            return Err(ExchangeError::Corrupt {
                offset: self.offset(),
                message: format!(
                    "{} trailing bytes after {what}",
                    self.bytes.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

impl Codec for BinReader<'_> {
    fn header(&mut self, _: &str, _: &str) -> ExResult<()> {
        Ok(())
    }

    fn f64(&mut self, key: &str, v: &mut f64) -> ExResult<()> {
        *v = self.float(key)?;
        Ok(())
    }

    fn pair(&mut self, key: &str, v: &mut (usize, usize)) -> ExResult<()> {
        *v = (self.count(key)?, self.count(key)?);
        Ok(())
    }

    fn vector(&mut self, key: &str, v: &mut Vec<f64>) -> ExResult<()> {
        let n = self.count(key)?;
        *v = self.floats(n, key)?;
        Ok(())
    }

    fn rbf(&mut self, key: &str, dim: usize, n: &mut usize) -> ExResult<()> {
        *n = self.count(key)?;
        if dim
            .checked_mul(*n)
            .is_none_or(|cells| cells > MAX_DECLARED_COUNT)
        {
            return Err(ExchangeError::Corrupt {
                offset: self.offset(),
                message: format!("'{key}' declares an impossible center block"),
            });
        }
        Ok(())
    }

    fn rows(&mut self, key: &str, n: usize, dim: usize, v: &mut Vec<Vec<f64>>) -> ExResult<()> {
        *v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(self.floats(dim, key)?);
        }
        Ok(())
    }

    fn string(&mut self, key: &str, v: &mut String) -> ExResult<()> {
        *v = self.text(key)?;
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
            let offset = self.offset();
            let k = self.text(key)?;
            if !is_param_key(&k) {
                return Err(ExchangeError::Corrupt {
                    offset,
                    message: format!("provenance param key '{k}' must be one non-empty token"),
                });
            }
            v.push((k, self.text(key)?));
        }
        Ok(())
    }
}

/// One section located inside a binary container: everything a reader
/// needs to skip it, verify it, or materialize it — without decoding its
/// payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinSection {
    /// Model kind (`None` for the provenance section).
    pub kind: Option<ModelKind>,
    /// Model name (empty for the provenance section).
    pub name: String,
    /// Stored section digest (FNV-1a over name bytes ++ payload), hex.
    pub digest: String,
    /// Absolute byte offset of the payload within the file.
    pub payload_offset: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
}

/// The section directory of a binary container: the text version it
/// round-trips to, the embedded body digest, and one [`BinSection`] per
/// section — model names and kinds included, payloads untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinIndex {
    /// Text format version the artifact converts back to (1 or 2).
    pub text_version: u32,
    /// Embedded body digest, hex (trusted at index time; verified on
    /// full load).
    pub body_digest: String,
    /// Every section, in file order (`PROV` first when present).
    pub sections: Vec<BinSection>,
}

impl BinIndex {
    /// The model sections only, in file order.
    pub fn models(&self) -> impl Iterator<Item = &BinSection> {
        self.sections.iter().filter(|s| s.kind.is_some())
    }
}

/// Reads exactly `buf.len()` bytes at the reader's current position.
fn read_exact_or_truncated<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> ExResult<()> {
    r.read_exact(buf).map_err(|_| ExchangeError::Truncated {
        expected: what.to_string(),
    })
}

fn bad_magic(found: &[u8]) -> ExchangeError {
    ExchangeError::BadMagic {
        found: found.iter().map(|b| format!("{b:02x}")).collect(),
    }
}

/// Parses the fixed file header from its 32 bytes.
fn parse_file_header(header: &[u8; FILE_HEADER_LEN]) -> ExResult<(u32, u64, u32)> {
    if header[..MAGIC.len()] != MAGIC {
        return Err(bad_magic(&header[..MAGIC.len()]));
    }
    let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    let container = word(8);
    if container != BIN_FORMAT_VERSION {
        return Err(ExchangeError::UnsupportedVersion {
            found: format!("mdlx-bin {container}"),
        });
    }
    let text_version = word(12);
    if text_version != FORMAT_VERSION && text_version != BUNDLE_FORMAT_VERSION {
        return Err(ExchangeError::UnsupportedVersion {
            found: format!("mdlx {text_version}"),
        });
    }
    let n_sections = word(16);
    if n_sections as usize > MAX_DECLARED_COUNT {
        return Err(ExchangeError::Corrupt {
            offset: 16,
            message: format!("section count {n_sections} exceeds the format bound"),
        });
    }
    if word(28) != 0 {
        return Err(ExchangeError::Corrupt {
            offset: 28,
            message: "reserved header word is not zero".into(),
        });
    }
    let digest = u64::from_le_bytes(header[20..28].try_into().expect("8 bytes"));
    Ok((text_version, digest, n_sections))
}

/// Parses one section header (+ name) and returns the section meta; the
/// caller positions past the payload itself.
fn parse_section_header(
    header: &[u8; SECTION_HEADER_LEN],
    name: &[u8],
    offset: usize,
    payload_offset: usize,
) -> ExResult<BinSection> {
    let tag: [u8; 4] = header[..4].try_into().expect("4 bytes");
    let kind = match tag {
        TAG_PROV => {
            if header[4] != 0 {
                return Err(ExchangeError::Corrupt {
                    offset,
                    message: "provenance section carries a model kind code".into(),
                });
            }
            None
        }
        TAG_MODL => Some(kind_from_code(header[4]).ok_or(ExchangeError::UnknownKind {
            tag: format!("#{}", header[4]),
        })?),
        other => {
            return Err(ExchangeError::UnknownField {
                line: offset,
                field: String::from_utf8_lossy(&other).into_owned(),
            })
        }
    };
    if header[5] != 0 {
        return Err(ExchangeError::Corrupt {
            offset,
            message: "reserved section byte is not zero".into(),
        });
    }
    let name = std::str::from_utf8(name).map_err(|_| ExchangeError::Corrupt {
        offset,
        message: "section name is not valid UTF-8".into(),
    })?;
    if kind.is_none() && !name.is_empty() {
        return Err(ExchangeError::Corrupt {
            offset,
            message: "provenance section carries a name".into(),
        });
    }
    let payload_len = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let digest = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    Ok(BinSection {
        kind,
        name: name.to_string(),
        digest: format!("{digest:016x}"),
        payload_offset,
        payload_len: payload_len as usize,
    })
}

/// The section walk behind every index: reads the file header, then each
/// section header and name from `src`, skipping payloads, and validates
/// the framing against the container length `len` without touching
/// payload bytes. `io_err` maps a failed skip.
fn read_index<R: Read + Seek>(
    src: &mut R,
    len: u64,
    io_err: impl Fn(std::io::Error) -> ExchangeError,
) -> ExResult<BinIndex> {
    let mut header = [0u8; FILE_HEADER_LEN];
    read_exact_or_truncated(src, &mut header, "the 32-byte file header")?;
    let (text_version, body_digest, n_sections) = parse_file_header(&header)?;
    let mut sections = Vec::with_capacity((n_sections as usize).min(1024));
    let mut pos = FILE_HEADER_LEN as u64;
    for i in 0..n_sections {
        let mut sh = [0u8; SECTION_HEADER_LEN];
        read_exact_or_truncated(src, &mut sh, "a section header")?;
        let name_len = u16::from_le_bytes(sh[6..8].try_into().expect("2 bytes")) as usize;
        let payload_len = u64::from_le_bytes(sh[8..16].try_into().expect("8 bytes"));
        let mut name = vec![0u8; name_len];
        read_exact_or_truncated(src, &mut name, "a section name")?;
        let payload_offset = pos + (SECTION_HEADER_LEN + name_len) as u64;
        let end = payload_offset.checked_add(payload_len);
        if end.is_none_or(|e| e > len) {
            return Err(ExchangeError::Truncated {
                expected: format!("{payload_len} payload bytes of section {i}"),
            });
        }
        let section = parse_section_header(&sh, &name, pos as usize, payload_offset as usize)?;
        // This also rejects a second provenance section.
        if section.kind.is_none() && i != 0 {
            return Err(ExchangeError::Corrupt {
                offset: pos as usize,
                message: "provenance must be the first section".into(),
            });
        }
        pos = payload_offset + payload_len;
        if i + 1 < n_sections {
            // The last payload needs no skip: the trailing-bytes check
            // below compares the declared end against the length.
            src.seek_relative(payload_len as i64).map_err(&io_err)?;
        }
        sections.push(section);
    }
    if pos != len {
        return Err(ExchangeError::Corrupt {
            offset: pos as usize,
            message: format!("{} trailing bytes after the last section", len - pos),
        });
    }
    let has_provenance = sections.first().is_some_and(|s| s.kind.is_none());
    let n_models = sections.len() - usize::from(has_provenance);
    check_shape(text_version, has_provenance, n_models)?;
    Ok(BinIndex {
        text_version,
        body_digest: format!("{body_digest:016x}"),
        sections,
    })
}

/// [`read_index`] over a container held in memory.
fn index_from_bytes(bytes: &[u8]) -> ExResult<BinIndex> {
    if bytes.len() < FILE_HEADER_LEN && !bytes.is_empty() && !is_binary(bytes) {
        return Err(bad_magic(&bytes[..bytes.len().min(MAGIC.len())]));
    }
    // An in-memory cursor seeks forward without failing.
    read_index(
        &mut std::io::Cursor::new(bytes),
        bytes.len() as u64,
        invalid,
    )
}

/// Builds the section directory of a binary container held in memory.
/// Validates framing (magic, versions, section bounds, v1/v2 shape) but
/// does **not** hash or decode payloads — that is the point: indexing a
/// file costs O(sections), not O(bytes parsed).
///
/// # Errors
///
/// [`ExchangeError::BadMagic`], [`ExchangeError::UnsupportedVersion`],
/// [`ExchangeError::Truncated`], [`ExchangeError::Corrupt`],
/// [`ExchangeError::UnknownKind`] / [`ExchangeError::UnknownField`] for
/// unknown codes and tags.
pub fn index_bytes(bytes: &[u8]) -> Result<BinIndex> {
    Ok(index_from_bytes(bytes)?)
}

/// Builds the section directory of a binary container file using seeks:
/// only the file header and each section header (+ name) are read, and
/// payloads are skipped over — a 1 000-model store indexes with a few KiB
/// of I/O per file regardless of model sizes.
///
/// # Errors
///
/// See [`index_bytes`], plus [`ExchangeError::Io`].
pub fn index_path(path: impl AsRef<Path>) -> Result<BinIndex> {
    match probe_path(path, None)? {
        Probe::Binary(index) => index,
        Probe::Other(bytes) => index_bytes(&bytes),
    }
}

/// What [`probe_path`] found in a file.
#[derive(Debug)]
pub enum Probe {
    /// The file starts with [`MAGIC`]: its section directory, or the
    /// framing error that stopped the walk.
    Binary(Result<BinIndex>),
    /// Any other file, read whole: exchange text, or bytes no loader
    /// accepts.
    Other(Vec<u8>),
}

/// Opens `path` once and decides on its leading bytes, as
/// [`super::load_artifact_bytes`] does: a binary container is indexed as
/// [`index_path`] indexes it, anything else is read whole for the text
/// loader. `known_len` is the file length from a caller that already
/// statted the file (a store scan captures it in the fingerprint); it
/// saves the `fstat` per binary file, a measurable share of a 1 000-entry
/// store index. The length is only a framing bound — a wrong value
/// surfaces as [`ExchangeError::Truncated`] / [`ExchangeError::Corrupt`],
/// exactly as if the file had changed size underneath.
///
/// # Errors
///
/// [`ExchangeError::Io`] when the file cannot be opened or read before
/// the format is decided.
pub fn probe_path(path: impl AsRef<Path>, known_len: Option<u64>) -> Result<Probe> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(io_error(path))?;
    // One buffered reader sized so a typical single-model container's
    // whole header run (file header + section header + name) arrives in
    // the read that peeks at the magic, without copying kilobytes of
    // payload along with it; `seek_relative` skips payloads without a
    // syscall while the target stays inside the buffer, so indexing a
    // small file costs an open and a single sub-KiB read.
    let mut src = std::io::BufReader::with_capacity(512, file);
    if !is_binary(src.fill_buf().map_err(io_error(path))?) {
        let mut bytes = Vec::with_capacity(known_len.unwrap_or(0) as usize);
        src.read_to_end(&mut bytes).map_err(io_error(path))?;
        // A first read shorter than the magic does not decide the format.
        if is_binary(&bytes) {
            return Ok(Probe::Binary(index_bytes(&bytes)));
        }
        return Ok(Probe::Other(bytes));
    }
    let len = known_len.map_or_else(|| src.get_ref().metadata().map(|m| m.len()), Ok);
    let index = read_index(&mut src, len.map_err(io_error(path))?, io_error(path));
    Ok(Probe::Binary(index.map_err(Into::into)))
}

/// Verifies one section's digest against the file bytes, then decodes its
/// payload: a model for `MODL` sections, an error for `PROV` (use
/// [`decode_provenance_section`]). The decoded model passes its own
/// validation.
///
/// # Errors
///
/// [`ExchangeError::DigestMismatch`] on corruption, the decode failures
/// of the payload grammar, or [`ExchangeError::Invalid`] when the model
/// fails its own validation.
pub fn decode_model(bytes: &[u8], section: &BinSection) -> Result<AnyModel> {
    let Some(kind) = section.kind else {
        return Err(ExchangeError::Invalid {
            message: "cannot decode the provenance section as a model".into(),
        }
        .into());
    };
    let mut r = section_reader(bytes, section)?;
    let model = decode_body(kind, section.name.clone(), &mut r)?;
    r.finish("the model body")?;
    model.validate().map_err(invalid)?;
    Ok(model)
}

/// Verifies and decodes the provenance section.
///
/// # Errors
///
/// See [`decode_model`].
pub fn decode_provenance_section(bytes: &[u8], section: &BinSection) -> Result<Provenance> {
    if section.kind.is_some() {
        return Err(ExchangeError::Invalid {
            message: "cannot decode a model section as provenance".into(),
        }
        .into());
    }
    let mut r = section_reader(bytes, section)?;
    let mut provenance = Provenance::default();
    provenance.walk(&mut r)?;
    r.finish("the provenance block")?;
    Ok(provenance)
}

/// A reader over one section's payload, after verifying its digest.
fn section_reader<'a>(bytes: &'a [u8], section: &BinSection) -> ExResult<BinReader<'a>> {
    let end = section
        .payload_offset
        .checked_add(section.payload_len)
        .filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err(ExchangeError::Truncated {
            expected: format!("{} payload bytes", section.payload_len),
        });
    };
    let payload = &bytes[section.payload_offset..end];
    let found = format!("{:016x}", section_digest(&section.name, payload));
    if found != section.digest {
        return Err(ExchangeError::DigestMismatch {
            section: match section.kind {
                Some(_) => format!("model {}", section.name),
                None => "provenance".to_string(),
            },
            expected: section.digest.clone(),
            found,
        });
    }
    Ok(BinReader::new(payload, section.payload_offset))
}

/// Deserializes a whole binary container, verifying the body digest and
/// every section digest, decoding every model, and running each model's
/// own validation — the strict mirror of [`super::load_artifact`].
///
/// # Errors
///
/// All of [`index_bytes`]'s framing errors, plus
/// [`ExchangeError::DigestMismatch`], the payload decode failures, and
/// model validation failures.
pub fn load_artifact_bin(bytes: &[u8]) -> Result<Artifact> {
    let index = index_from_bytes(bytes)?;
    let found = format!("{:016x}", fnv1a(&bytes[FILE_HEADER_LEN..]));
    if found != index.body_digest {
        return Err(ExchangeError::DigestMismatch {
            section: "body".into(),
            expected: index.body_digest,
            found,
        }
        .into());
    }
    let mut provenance = None;
    let mut models = Vec::with_capacity(index.models().count().min(1024));
    for section in &index.sections {
        if section.kind.is_some() {
            models.push(decode_model(bytes, section)?);
        } else {
            provenance = Some(decode_provenance_section(bytes, section)?);
        }
    }
    Ok(Artifact {
        version: index.text_version,
        provenance,
        models,
    })
}

/// Loads a binary container from a file (see [`load_artifact_bin`]).
///
/// # Errors
///
/// [`load_artifact_bin`] failures plus [`ExchangeError::Io`].
pub fn load_artifact_bin_from_path(path: impl AsRef<Path>) -> Result<Artifact> {
    let path = path.as_ref();
    load_artifact_bin(&std::fs::read(path).map_err(io_error(path))?)
}
