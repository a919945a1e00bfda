//! The model library layer: a directory tree of `.mdlx` / `.mdlxb`
//! artifacts served as one queryable collection.
//!
//! [`ModelStore::open`] scans a directory (recursively, in a deterministic
//! sorted order) for text `.mdlx` and binary `.mdlxb` files side by side
//! — v1 single-model files, v2 provenance-stamped bundles, and binary
//! containers in one tree — and records their paths. Each artifact is
//! parsed on first touch ([`StoreEntry::artifact`]) and memoized; the
//! loader picks the container by the file's leading bytes, not its
//! extension. A file that fails to load does **not** take the rest of the
//! fleet down with it: its typed error is memoized and reported by
//! [`ModelStore::failures`]. [`ModelStore::load_all`] parses every entry
//! and returns the complete failure list.
//!
//! Parsing on touch pairs with the binary container: [`StoreEntry::index`]
//! reads only a binary file's section headers (a few dozen bytes per
//! model, via seeks — payloads are never touched), so [`ModelStore::get`]
//! can route a name lookup straight to the one file holding the model and
//! leave every other entry unopened. A text entry's index is a full parse
//! of the bytes it read, memoized as the entry's artifact, so a
//! 1 000-artifact binary tree indexes orders of magnitude faster than the
//! same tree in text — `cargo bench --bench store`
//! (`scripts/bench-baseline.sh store`) measures exactly this gap.
//!
//! The store indexes by model name ([`ModelStore::get`]) and kind
//! ([`ModelStore::of_kind`]) across every model of every artifact;
//! [`ModelStore::models`] hands trait-generic harnesses every model.
//!
//! # Example
//!
//! ```no_run
//! use macromodel::{Macromodel, ModelKind, ModelStore};
//!
//! # fn main() -> Result<(), macromodel::Error> {
//! let store = ModelStore::open("artifacts/")?;
//! for failure in store.load_all() {
//!     eprintln!("skipping {}: {}", failure.path.display(), failure.error);
//! }
//! for (path, model) in store.models() {
//!     println!("{} [{}] from {}", model.name(), model.kind(), path.display());
//! }
//! let drivers = store.of_kind(ModelKind::PwRbfDriver);
//! println!("{} PW-RBF drivers on the shelf", drivers.len());
//! # Ok(())
//! # }
//! ```

use crate::exchange::binary::{self, Probe};
use crate::exchange::{
    content_digest, load_artifact_auto_from_path, load_artifact_bytes, AnyModel, Artifact,
    ExchangeError,
};
use crate::macromodel::{Macromodel, ModelKind};
use crate::{Error, Result};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::SystemTime;

/// Directory-nesting bound of the store scan — far deeper than any sane
/// artifact layout, shallow enough to break symlink cycles.
const MAX_SCAN_DEPTH: usize = 32;

/// An artifact file that failed to index or load, with its typed error.
#[derive(Debug, Clone)]
pub struct StoreFailure {
    /// Path of the offending file.
    pub path: PathBuf,
    /// The load failure.
    pub error: Error,
}

/// Cheap change-detection fingerprint of an artifact file: byte length plus
/// modification time. The polling hot-reload watcher compares fingerprints
/// between scans — no inotify or other platform watcher dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileFingerprint {
    /// File length in bytes.
    pub len: u64,
    /// Modification time (`None` on filesystems that do not report one).
    pub mtime: Option<SystemTime>,
}

impl FileFingerprint {
    /// Stats `path` and captures its fingerprint.
    ///
    /// # Errors
    ///
    /// The underlying `stat` failure (vanished file, permissions).
    pub fn of(path: &Path) -> std::io::Result<FileFingerprint> {
        let meta = std::fs::metadata(path)?;
        Ok(FileFingerprint {
            len: meta.len(),
            mtime: meta.modified().ok(),
        })
    }
}

/// On-disk representation of a store entry, decided by its leading bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactFormat {
    /// Line-oriented `mdlx` text (conventionally `.mdlx`).
    Text,
    /// The length-framed binary container (conventionally `.mdlxb`).
    Binary,
}

impl std::fmt::Display for ArtifactFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ArtifactFormat::Text => "text",
            ArtifactFormat::Binary => "binary",
        })
    }
}

/// The cheap per-entry catalog: which models a file holds and how to
/// identify its bytes, built **without decoding model payloads** for
/// binary entries (section headers only, read with seeks). Text entries
/// derive the same catalog from a full parse — the text grammar has no
/// skippable framing — so the index is only as lazy as the format allows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryIndex {
    /// Text or binary container.
    pub format: ArtifactFormat,
    /// Text format version the artifact carries (1 or 2).
    pub version: u32,
    /// File length in bytes.
    pub bytes: u64,
    /// Content identity: the embedded body digest for binary entries
    /// (read, not computed), the FNV-1a digest of the file bytes for text.
    pub digest: String,
    /// `(kind, name)` of every model in the artifact, in file order.
    pub models: Vec<(ModelKind, String)>,
}

impl EntryIndex {
    /// Whether the artifact holds a model with this name.
    pub fn contains(&self, name: &str) -> bool {
        self.models.iter().any(|(_, n)| n == name)
    }
}

/// One `.mdlx` / `.mdlxb` file in the store.
pub struct StoreEntry {
    path: PathBuf,
    /// Fingerprint captured at scan time (`None` when the stat failed —
    /// the parse will surface the real error on access).
    fingerprint: Option<FileFingerprint>,
    /// The container the leading bytes announce, set when indexing opened
    /// the file.
    format: OnceLock<ArtifactFormat>,
    /// Section-header catalog, memoized on first access.
    index: OnceLock<std::result::Result<EntryIndex, Error>>,
    /// Parse result, memoized on first access.
    slot: OnceLock<std::result::Result<Artifact, Error>>,
}

impl StoreEntry {
    fn new(path: PathBuf) -> Self {
        StoreEntry {
            fingerprint: FileFingerprint::of(&path).ok(),
            path,
            format: OnceLock::new(),
            index: OnceLock::new(),
            slot: OnceLock::new(),
        }
    }

    /// Path of the artifact file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fingerprint captured when the entry was scanned.
    pub fn fingerprint(&self) -> Option<FileFingerprint> {
        self.fingerprint
    }

    /// Text or binary, judged by the file's leading bytes as the loader
    /// judges them, whatever the extension says. Indexes the entry first;
    /// `None` when the file could not be read.
    pub fn format(&self) -> Option<ArtifactFormat> {
        let _ = self.index();
        self.format.get().copied()
    }

    /// The memoized failure of this entry, if indexing or parsing was
    /// attempted and failed. `None` means "fine so far" *or* "not touched
    /// yet" — the store cannot know a file is corrupt before touching it.
    pub fn failure(&self) -> Option<StoreFailure> {
        let error = match (self.slot.get(), self.index.get()) {
            (Some(Err(e)), _) => e,
            (_, Some(Err(e))) => e,
            _ => return None,
        };
        Some(StoreFailure {
            path: self.path.clone(),
            error: error.clone(),
        })
    }

    /// Whether the artifact has been parsed yet: true after the first
    /// [`StoreEntry::artifact`] call, or after indexing a text entry (its
    /// index is a full parse). Indexing a binary entry does not count as
    /// loaded.
    pub fn is_loaded(&self) -> bool {
        self.slot.get().is_some()
    }

    /// The entry's cheap catalog — model names/kinds, byte length, digest
    /// — memoized on first access. The file's leading bytes decide the
    /// container, as they do for the loader. For a binary entry this reads
    /// only the file and section headers (seeking past payloads, no
    /// decoding, no hashing: the digest is the one embedded in the
    /// header). For a text entry it reads the whole file once, hashes the
    /// bytes and parses them, memoizing the parse as the entry's artifact.
    ///
    /// # Errors
    ///
    /// The index/load failure, replayed on every access.
    pub fn index(&self) -> Result<&EntryIndex> {
        self.index
            .get_or_init(|| {
                let len = self.fingerprint.map(|f| f.len);
                match binary::probe_path(&self.path, len)? {
                    Probe::Binary(index) => {
                        let _ = self.format.set(ArtifactFormat::Binary);
                        let index = index?;
                        Ok(EntryIndex {
                            format: ArtifactFormat::Binary,
                            version: index.text_version,
                            bytes: len
                                .or_else(|| FileFingerprint::of(&self.path).ok().map(|f| f.len))
                                .unwrap_or(0),
                            digest: index.body_digest,
                            models: index
                                .sections
                                .iter()
                                .filter_map(|s| s.kind.map(|k| (k, s.name.clone())))
                                .collect(),
                        })
                    }
                    Probe::Other(raw) => {
                        let _ = self.format.set(ArtifactFormat::Text);
                        let artifact = self
                            .slot
                            .get_or_init(|| load_artifact_bytes(&raw))
                            .as_ref()
                            .map_err(Error::clone)?;
                        Ok(EntryIndex {
                            format: ArtifactFormat::Text,
                            version: artifact.version,
                            bytes: raw.len() as u64,
                            digest: content_digest(&raw),
                            models: artifact
                                .models
                                .iter()
                                .map(|m| (m.kind(), m.name().to_string()))
                                .collect(),
                        })
                    }
                }
            })
            .as_ref()
            .map_err(Error::clone)
    }

    /// The parsed artifact, loading and memoizing it on first access.
    /// Dispatches on content: text and binary files both load here.
    ///
    /// # Errors
    ///
    /// The file's load failure, replayed on every access.
    pub fn artifact(&self) -> Result<&Artifact> {
        self.slot
            .get_or_init(|| load_artifact_auto_from_path(&self.path))
            .as_ref()
            .map_err(Error::clone)
    }
}

impl std::fmt::Debug for StoreEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreEntry")
            .field("path", &self.path)
            .field("loaded", &self.is_loaded())
            .finish()
    }
}

/// A directory tree of `.mdlx` / `.mdlxb` artifacts, scanned into one
/// collection.
///
/// See the [module docs](self) for the serving model.
#[derive(Debug)]
pub struct ModelStore {
    root: PathBuf,
    entries: Vec<StoreEntry>,
    /// Subdirectories that could not be scanned (vanished mounts,
    /// permission failures) — collected, like per-file load errors, so one
    /// bad branch never hides sibling artifacts.
    scan_failures: Vec<StoreFailure>,
}

impl ModelStore {
    /// Opens a store: scans `dir` recursively for `.mdlx` and `.mdlxb`
    /// files and records them; each is parsed on first touch, and
    /// [`ModelStore::load_all`] parses them all. Per-file load errors are
    /// collected, not fatal.
    ///
    /// # Errors
    ///
    /// [`ExchangeError::Io`] when the root directory itself cannot be read
    /// (unreadable *sub*directories degrade to [`ModelStore::failures`]
    /// entries instead).
    pub fn open(dir: impl AsRef<Path>) -> Result<ModelStore> {
        let root = dir.as_ref().to_path_buf();
        // The root must be readable — an unopenable store is an error, not
        // an empty one.
        std::fs::read_dir(&root).map_err(|e| ExchangeError::Io {
            path: root.display().to_string(),
            message: e.to_string(),
        })?;
        let mut store = ModelStore {
            root,
            entries: Vec::new(),
            scan_failures: Vec::new(),
        };
        store.refresh();
        Ok(store)
    }

    /// The scanned directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of artifact files found (loadable or not).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the scan found no artifact files at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every scanned file, in sorted path order.
    pub fn entries(&self) -> impl Iterator<Item = &StoreEntry> {
        self.entries.iter()
    }

    /// The scan failures plus the load failures among the entries touched
    /// so far, collected from the memoized [`StoreEntry`] slots. A store
    /// therefore reports an empty list right after open even when
    /// artifacts are corrupt: health checks (`mdl store ls`, fleet report
    /// headers) must force parsing first via [`ModelStore::load_all`] or by
    /// iterating [`StoreEntry::artifact`], or the fleet looks misleadingly
    /// healthy.
    pub fn failures(&self) -> Vec<StoreFailure> {
        self.scan_failures
            .iter()
            .cloned()
            .chain(self.entries.iter().filter_map(StoreEntry::failure))
            .collect()
    }

    /// Forces every entry to parse and returns the complete failure list.
    pub fn load_all(&self) -> Vec<StoreFailure> {
        for e in &self.entries {
            let _ = e.artifact();
        }
        self.failures()
    }

    /// Re-scans the directory tree and reconciles the entry list against
    /// the filesystem: new artifact files are added, vanished ones removed,
    /// and entries whose [`FileFingerprint`] (length/mtime) changed get a
    /// fresh unparsed slot, so the next [`StoreEntry::artifact`] access
    /// re-reads the file. Unchanged entries keep their memoized parse.
    ///
    /// This is the store side of daemon hot-reload: a watcher thread calls
    /// `refresh` on a poll interval and re-serves whatever changed, while
    /// in-flight requests keep whatever `Arc`-cloned instances they already
    /// hold. New and changed entries are parsed on their next touch, as
    /// after [`ModelStore::open`] — the caller decides what to touch.
    pub fn refresh(&mut self) -> StoreRefresh {
        let mut files = Vec::new();
        let mut scan_failures = Vec::new();
        scan_dir(&self.root, 0, &mut files, &mut scan_failures);
        files.sort();
        let mut outcome = StoreRefresh::default();
        let mut kept: std::collections::BTreeMap<PathBuf, StoreEntry> =
            std::mem::take(&mut self.entries)
                .into_iter()
                .map(|e| (e.path.clone(), e))
                .collect();
        for path in files {
            let entry = match kept.remove(&path) {
                Some(entry)
                    if entry.fingerprint.is_some()
                        && FileFingerprint::of(&path).ok() == entry.fingerprint =>
                {
                    entry
                }
                Some(_) => {
                    outcome.changed.push(path.clone());
                    StoreEntry::new(path)
                }
                None => {
                    outcome.added.push(path.clone());
                    StoreEntry::new(path)
                }
            };
            self.entries.push(entry);
        }
        outcome.removed = kept.into_keys().collect();
        self.scan_failures = scan_failures;
        outcome
    }

    /// Every successfully loaded model, flattened across artifacts (a v2
    /// bundle contributes each of its members), with its source path.
    /// Forces every entry to load.
    pub fn models(&self) -> Vec<(&Path, &AnyModel)> {
        let mut out = Vec::new();
        for e in &self.entries {
            if let Ok(artifact) = e.artifact() {
                out.extend(artifact.models.iter().map(|m| (e.path(), m)));
            }
        }
        out
    }

    /// Looks a model up by [`Macromodel::name`] across every artifact,
    /// consulting each entry's cheap [`StoreEntry::index`] first and
    /// materializing only the artifact that actually holds the name. In a
    /// binary store this touches model payloads in exactly one file;
    /// text entries still parse while being indexed (their format has no
    /// skippable framing), stopping at the first match.
    pub fn get(&self, name: &str) -> Option<&AnyModel> {
        self.entries.iter().find_map(|e| {
            if !e.index().is_ok_and(|i| i.contains(name)) {
                return None;
            }
            e.artifact()
                .ok()
                .and_then(|a| a.models.iter().find(|m| m.name() == name))
        })
    }

    /// The models of one kind, in scan order. Forces every entry to load.
    pub fn of_kind(&self, kind: ModelKind) -> Vec<&AnyModel> {
        self.models()
            .into_iter()
            .map(|(_, m)| m)
            .filter(|m| m.kind() == kind)
            .collect()
    }
}

/// Outcome of one [`ModelStore::refresh`] reconciliation pass, in sorted
/// path order. Empty vectors all around mean the filesystem matched the
/// store exactly.
#[derive(Debug, Clone, Default)]
pub struct StoreRefresh {
    /// Files that appeared since the last scan.
    pub added: Vec<PathBuf>,
    /// Files that vanished.
    pub removed: Vec<PathBuf>,
    /// Files whose fingerprint (length/mtime) changed; their entries were
    /// reset to unparsed.
    pub changed: Vec<PathBuf>,
}

impl StoreRefresh {
    /// Whether anything on disk differed from the store.
    pub fn any(&self) -> bool {
        !(self.added.is_empty() && self.removed.is_empty() && self.changed.is_empty())
    }
}

/// Recursive scan collecting `.mdlx` / `.mdlxb` paths. A vanished or unreadable
/// directory degrades to a [`StoreFailure`] so one bad mount never hides
/// sibling artifacts.
fn scan_dir(dir: &Path, depth: usize, out: &mut Vec<PathBuf>, failures: &mut Vec<StoreFailure>) {
    fn fail(dir: &Path, e: std::io::Error, failures: &mut Vec<StoreFailure>) {
        failures.push(StoreFailure {
            path: dir.to_path_buf(),
            error: ExchangeError::Io {
                path: dir.display().to_string(),
                message: e.to_string(),
            }
            .into(),
        });
    }
    if depth >= MAX_SCAN_DEPTH {
        return;
    }
    let reader = match std::fs::read_dir(dir) {
        Ok(reader) => reader,
        Err(e) => return fail(dir, e, failures),
    };
    for entry in reader {
        let entry = match entry {
            Ok(entry) => entry,
            Err(e) => return fail(dir, e, failures),
        };
        let path = entry.path();
        // DirEntry::file_type comes straight from the directory read on
        // Unix — asking the path would re-stat every file, which at
        // thousands of entries is a measurable share of an index pass.
        let is_dir = entry
            .file_type()
            .map(|t| t.is_dir())
            .unwrap_or_else(|_| path.is_dir());
        if is_dir {
            scan_dir(&path, depth + 1, out, failures);
        } else if path
            .extension()
            .is_some_and(|ext| ext == "mdlx" || ext == "mdlxb")
        {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{PwRbfDriverModel, WeightSequence};
    use crate::exchange::{save_artifact_to_path, save_model_to_path, Provenance};
    use crate::receiver::CrModel;
    use numkit::interp::Pwl;
    use sysid::narx::{NarxModel, NarxOrders};
    use sysid::rbf::RbfNetwork;

    fn dummy_driver(name: &str) -> AnyModel {
        let narx = || {
            NarxModel::from_network(
                NarxOrders::dynamic(1),
                RbfNetwork::affine(0.0, vec![0.01, 0.0, 0.0]),
            )
            .unwrap()
        };
        AnyModel::PwRbfDriver(PwRbfDriverModel {
            name: name.into(),
            ts: 25e-12,
            vdd: 1.8,
            i_high: narx(),
            i_low: narx(),
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

    /// Builds a store directory: two v1 files (one nested), a v2 bundle,
    /// one corrupt artifact, and one non-mdlx bystander.
    fn build_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mdlx_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        save_model_to_path(&dummy_driver("drv_a"), dir.join("a.mdlx")).unwrap();
        save_model_to_path(&dummy_cr("cr_b"), dir.join("sub/b.mdlx")).unwrap();
        save_artifact_to_path(
            &Artifact::bundle(
                vec![dummy_driver("drv_c"), dummy_driver("drv_d")],
                Some(Provenance::new("feedc0de".to_string())),
            ),
            dir.join("c-bundle.mdlx"),
        )
        .unwrap();
        std::fs::write(dir.join("broken.mdlx"), "mdlx 1 pwrbf-driver\ngarbage\n").unwrap();
        std::fs::write(dir.join("README.txt"), "not an artifact").unwrap();
        dir
    }

    #[test]
    fn load_all_collects_models_and_failures() {
        let dir = build_store("loadall");
        let store = ModelStore::open(&dir).unwrap();
        assert_eq!(store.len(), 4, "four .mdlx files scanned");
        let failures = store.load_all();
        assert!(store.entries().all(StoreEntry::is_loaded));
        assert_eq!(failures.len(), 1);
        assert!(failures[0].path.ends_with("broken.mdlx"));
        assert!(matches!(failures[0].error, Error::Exchange(_)));
        // Four models across three loadable artifacts, bundle flattened.
        let models = store.models();
        assert_eq!(models.len(), 4);
        assert!(store.get("drv_d").is_some());
        assert!(store.get("nope").is_none());
        assert_eq!(store.of_kind(ModelKind::PwRbfDriver).len(), 3);
        assert_eq!(store.of_kind(ModelKind::CrBaseline).len(), 1);
        assert_eq!(store.of_kind(ModelKind::Ibis).len(), 0);
        assert!(store.get("cr_b").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lazy_open_defers_parsing() {
        let dir = build_store("lazy");
        let store = ModelStore::open(&dir).unwrap();
        assert_eq!(store.len(), 4);
        assert!(store.entries().all(|e| !e.is_loaded()));
        assert!(store.failures().is_empty(), "nothing parsed yet");
        // First access parses and memoizes one entry only.
        let first = store.entries().next().unwrap();
        first.artifact().unwrap();
        assert!(first.is_loaded());
        assert_eq!(store.entries().filter(|e| e.is_loaded()).count(), 1);
        // load_all forces the rest and surfaces the broken file.
        let failures = store.load_all();
        assert_eq!(failures.len(), 1);
        assert!(store.entries().all(StoreEntry::is_loaded));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lazy_get_stops_at_first_match() {
        let dir = build_store("lazyget");
        let store = ModelStore::open(&dir).unwrap();
        // "a.mdlx" sorts first and holds drv_a: the lookup parses only it.
        assert!(store.get("drv_a").is_some());
        assert_eq!(store.entries().filter(|e| e.is_loaded()).count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn entries_are_sorted_and_errors_replay() {
        let dir = build_store("sorted");
        let store = ModelStore::open(&dir).unwrap();
        let paths: Vec<_> = store.entries().map(|e| e.path().to_path_buf()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted);
        let broken = store
            .entries()
            .find(|e| e.path().ends_with("broken.mdlx"))
            .unwrap();
        assert!(broken.artifact().is_err());
        assert!(broken.artifact().is_err(), "error is memoized, not retried");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refresh_reconciles_added_changed_and_removed_files() {
        let dir = std::env::temp_dir().join(format!("mdlx_store_refresh_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        save_model_to_path(&dummy_driver("drv_a"), dir.join("a.mdlx")).unwrap();
        save_model_to_path(&dummy_cr("cr_b"), dir.join("b.mdlx")).unwrap();

        let mut store = ModelStore::open(&dir).unwrap();
        store.load_all();
        assert!(!store.refresh().any(), "no churn, no outcome");
        assert!(
            store.entries().all(StoreEntry::is_loaded),
            "a no-op refresh keeps memoized entries"
        );

        // One added, one rewritten (a longer model name changes the byte
        // length, so the fingerprint flips even within mtime granularity),
        // one removed.
        save_model_to_path(&dummy_driver("drv_c"), dir.join("c.mdlx")).unwrap();
        save_model_to_path(&dummy_driver("drv_a_regrown"), dir.join("a.mdlx")).unwrap();
        std::fs::remove_file(dir.join("b.mdlx")).unwrap();

        let outcome = store.refresh();
        assert!(outcome.any());
        assert_eq!(outcome.added, vec![dir.join("c.mdlx")]);
        assert_eq!(outcome.changed, vec![dir.join("a.mdlx")]);
        assert_eq!(outcome.removed, vec![dir.join("b.mdlx")]);
        assert_eq!(store.len(), 2);
        assert!(
            store.get("drv_a_regrown").is_some(),
            "changed file re-parses"
        );
        assert!(store.get("cr_b").is_none(), "removed file is gone");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Builds a mixed tree: one text v1, one binary v1, one binary v2
    /// bundle (nested), and one corrupt binary file.
    fn build_mixed_store(tag: &str) -> PathBuf {
        use crate::exchange::binary::save_artifact_bin_to_path;
        let dir = std::env::temp_dir().join(format!("mdlxb_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        save_model_to_path(&dummy_driver("drv_text"), dir.join("a.mdlx")).unwrap();
        save_artifact_bin_to_path(&Artifact::single(dummy_cr("cr_bin")), dir.join("b.mdlxb"))
            .unwrap();
        save_artifact_bin_to_path(
            &Artifact::bundle(
                vec![dummy_driver("drv_bin_c"), dummy_driver("drv_bin_d")],
                Some(Provenance::new("feedc0de".to_string())),
            ),
            dir.join("sub/c.mdlxb"),
        )
        .unwrap();
        let mut corrupt =
            crate::exchange::binary::save_artifact_bin(&Artifact::single(dummy_cr("cr_bad")))
                .unwrap();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        std::fs::write(dir.join("broken.mdlxb"), corrupt).unwrap();
        dir
    }

    #[test]
    fn mixed_tree_serves_text_and_binary_together() {
        let dir = build_mixed_store("mixed");
        let store = ModelStore::open(&dir).unwrap();
        assert_eq!(store.len(), 4);
        assert_eq!(store.models().len(), 4);
        assert!(store.get("drv_text").is_some());
        assert!(store.get("cr_bin").is_some());
        assert!(store.get("drv_bin_d").is_some());
        let failures = store.failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].path.ends_with("broken.mdlxb"));
        assert!(matches!(
            failures[0].error,
            Error::Exchange(ExchangeError::DigestMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lazy_binary_lookup_touches_only_the_matching_file() {
        let dir = build_mixed_store("lazybin");
        let store = ModelStore::open(&dir).unwrap();
        // The bundle sorts last (sub/c.mdlxb); finding one of its models
        // must index the earlier binaries without materializing them, and
        // may only fully parse files whose index lists the name.
        assert!(store.get("drv_bin_d").is_some());
        let loaded: Vec<_> = store
            .entries()
            .filter(|e| e.is_loaded())
            .map(|e| e.path().file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert!(loaded.contains(&"c.mdlxb".to_string()));
        assert!(
            !loaded.contains(&"b.mdlxb".to_string()),
            "healthy binary entries index without materializing, got {loaded:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn entry_index_reports_format_version_digest_and_models() {
        let dir = build_mixed_store("index");
        let store = ModelStore::open(&dir).unwrap();
        let by_name = |name: &str| {
            store
                .entries()
                .find(|e| e.path().file_name().unwrap().to_string_lossy() == name)
                .unwrap()
        };
        let text = by_name("a.mdlx").index().unwrap();
        assert_eq!(text.format, ArtifactFormat::Text);
        assert_eq!(text.version, 1);
        assert_eq!(text.models.len(), 1);
        assert_eq!(text.models[0].1, "drv_text");
        assert_eq!(text.digest.len(), 16);
        assert!(text.bytes > 0);
        let bin = by_name("c.mdlxb").index().unwrap();
        assert_eq!(bin.format, ArtifactFormat::Binary);
        assert_eq!(bin.version, 2);
        assert_eq!(
            bin.models,
            vec![
                (ModelKind::PwRbfDriver, "drv_bin_c".to_string()),
                (ModelKind::PwRbfDriver, "drv_bin_d".to_string()),
            ]
        );
        // The binary digest is the embedded body digest, byte-for-byte.
        let raw = std::fs::read(dir.join("sub/c.mdlxb")).unwrap();
        assert_eq!(bin.digest, binary::embedded_digest(&raw).unwrap());
        assert_eq!(bin.bytes, raw.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn broken_binary_surfaces_through_index_and_failures() {
        let dir = build_mixed_store("brokenbin");
        let store = ModelStore::open(&dir).unwrap();
        assert!(store.failures().is_empty(), "untouched store reports clean");
        let broken = store
            .entries()
            .find(|e| e.path().ends_with("broken.mdlxb"))
            .unwrap();
        assert_eq!(broken.format(), Some(ArtifactFormat::Binary));
        // The flipped byte lives in a payload, so the cheap index still
        // succeeds — materialization is what checks digests.
        assert!(broken.index().is_ok());
        assert!(broken.artifact().is_err());
        assert_eq!(store.failures().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mislabeled_containers_index_as_their_bytes() {
        use crate::exchange::binary::save_artifact_bin_to_path;
        let dir = std::env::temp_dir().join(format!("mdlx_store_labels_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Text under the binary extension, binary under the text one.
        save_model_to_path(&dummy_driver("drv_m"), dir.join("m.mdlxb")).unwrap();
        save_artifact_bin_to_path(&Artifact::single(dummy_cr("cr_n")), dir.join("n.mdlx")).unwrap();
        let store = ModelStore::open(&dir).unwrap();
        assert!(store.get("drv_m").is_some());
        assert!(store.get("cr_n").is_some());
        assert!(store.failures().is_empty(), "{:?}", store.failures());
        let entry = |name: &str| store.entries().find(|e| e.path().ends_with(name)).unwrap();
        let text = entry("m.mdlxb");
        assert_eq!(text.format(), Some(ArtifactFormat::Text));
        let index = text.index().unwrap();
        assert_eq!(index.format, ArtifactFormat::Text);
        let raw = std::fs::read(dir.join("m.mdlxb")).unwrap();
        assert_eq!(index.digest, content_digest(&raw));
        let bin = entry("n.mdlx");
        assert_eq!(bin.format(), Some(ArtifactFormat::Binary));
        let index = bin.index().unwrap();
        assert_eq!(index.format, ArtifactFormat::Binary);
        let raw = std::fs::read(dir.join("n.mdlx")).unwrap();
        assert_eq!(index.digest, binary::embedded_digest(&raw).unwrap());
        assert!(store.load_all().is_empty());
        assert_eq!(store.models().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_a_typed_error() {
        let missing = std::env::temp_dir().join("mdlx_store_definitely_missing");
        std::fs::remove_dir_all(&missing).ok();
        assert!(matches!(
            ModelStore::open(&missing),
            Err(Error::Exchange(ExchangeError::Io { .. }))
        ));
    }

    #[test]
    fn empty_directory_is_an_empty_store() {
        let dir = std::env::temp_dir().join(format!("mdlx_store_empty_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let store = ModelStore::open(&dir).unwrap();
        assert!(store.is_empty());
        assert!(store.models().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
