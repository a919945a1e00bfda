//! `mdl bench-store` — the artifact-I/O benchmark behind the binary
//! container.
//!
//! Builds two equivalent synthetic stores — the same PW-RBF driver fleet
//! once as text `.mdlx` and once as binary `.mdlxb` — and times three
//! ways of opening them:
//!
//! * `store/open_eager_text` — [`ModelStore::open`] on the text tree:
//!   every file fully parsed up front (the pre-container status quo);
//! * `store/open_lazy_bin` — a lazy open of the binary tree plus
//!   [`macromodel::StoreEntry::index`] on every entry: the whole
//!   inventory (names,
//!   kinds, digests, byte sizes) from section headers alone, no model
//!   payload ever decoded;
//! * `store/touch_one_bin` — a lazy binary open followed by one
//!   [`ModelStore::get`]: the time-to-first-model, materializing exactly
//!   one artifact out of the whole tree.
//!
//! `median_s` is **seconds per entry** for the two open benches (so the
//! record is comparable across store sizes) and seconds per lookup for
//! `touch_one`. Records are JSON lines in the `scripts/bench-baseline.sh`
//! schema (`{"bench", "median_s", "samples"}`), committed to
//! `BENCH_store.json` and gated like the other benches. The tentpole
//! claim — a 1 000-entry binary store opens lazily ≥ 10× faster than the
//! eager text parse — is checked by [`speedup`] and enforced in CI via
//! `mdl bench-store --min-speedup`.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use macromodel::driver::{PwRbfDriverModel, WeightSequence};
use macromodel::exchange::binary::save_artifact_bin_to_path;
use macromodel::exchange::save_model_to_path;
use macromodel::{AnyModel, Artifact, LoadMode, ModelStore};

use crate::evalbench::bench_model;
use crate::BenchRecord;

/// Benchmark knobs. [`StoreBenchConfig::default`] matches the committed
/// `BENCH_store.json` trajectory — change the defaults and the baseline
/// gate compares unlike workloads.
#[derive(Debug, Clone, Copy)]
pub struct StoreBenchConfig {
    /// Artifact files per store (the acceptance scenario is 1 000).
    pub entries: usize,
    /// RBF centers per NARX submodel — sizes each text artifact in the
    /// ~20 kB range the real extractions produce.
    pub centers: usize,
    /// Measured repetitions; the reported time is the best of them.
    pub reps: usize,
}

impl Default for StoreBenchConfig {
    fn default() -> Self {
        StoreBenchConfig {
            entries: 1000,
            centers: 24,
            reps: 3,
        }
    }
}

/// The two synthetic store trees, torn down on drop.
struct BenchStores {
    root: PathBuf,
    text_dir: PathBuf,
    bin_dir: PathBuf,
    /// Name of the last model in scan order — the lookup target that
    /// forces `touch_one` to index every file before its single decode.
    probe: String,
}

impl Drop for BenchStores {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

/// The `bench-eval` workload model dressed up to real-extraction size:
/// actual estimations carry ~160-sample switching-weight records (one
/// per sample of the transition window), while the eval bench's model
/// makes do with an 8-sample ramp. The text-parse cost this bench gates
/// is proportional to file bytes, so the synthetic fleet must match the
/// ~20 kB text artifacts the real pipeline produces.
fn store_model(centers: usize) -> PwRbfDriverModel {
    let mut model = bench_model(centers);
    let n = 160;
    let ramp: Vec<f64> = (0..n)
        .map(|k| {
            let x = k as f64 / (n - 1) as f64;
            0.5 - 0.5 * (std::f64::consts::PI * x).cos()
        })
        .collect();
    let inv: Vec<f64> = ramp.iter().map(|w| 1.0 - w).collect();
    model.up = WeightSequence::new(ramp.clone(), inv.clone()).expect("ramp weights are valid");
    model.down = WeightSequence::new(inv, ramp).expect("ramp weights are valid");
    model
}

/// Writes `entries` driver artifacts under `root/text` and `root/bin` —
/// identical fleets, one per format. The driver is the `bench-eval`
/// workload model at extraction-realistic size, renamed per entry.
fn build_stores(cfg: &StoreBenchConfig) -> crate::Result<BenchStores> {
    let root = std::env::temp_dir().join(format!("mdl-bench-store-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let text_dir = root.join("text");
    let bin_dir = root.join("bin");
    std::fs::create_dir_all(&text_dir)?;
    std::fs::create_dir_all(&bin_dir)?;
    let base = store_model(cfg.centers);
    let mut probe = String::new();
    for i in 0..cfg.entries {
        let mut model = base.clone();
        model.name = format!("drv_{i:05}");
        probe = model.name.clone();
        let model = AnyModel::PwRbfDriver(model);
        save_model_to_path(&model, text_dir.join(format!("drv_{i:05}.mdlx")))?;
        save_artifact_bin_to_path(
            &Artifact::single(model),
            bin_dir.join(format!("drv_{i:05}.mdlxb")),
        )?;
    }
    Ok(BenchStores {
        root,
        text_dir,
        bin_dir,
        probe,
    })
}

/// Times one eager text open: every file parsed during the scan.
fn time_eager_text(dir: &Path, entries: usize) -> crate::Result<f64> {
    let start = Instant::now();
    let store = ModelStore::open(dir)?;
    black_box(store.len());
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(store.len(), entries, "text store scanned short");
    assert!(store.failures().is_empty(), "text store has load failures");
    Ok(elapsed / entries as f64)
}

/// Times one lazy binary open plus a full section-header index pass —
/// the complete inventory with zero payload decodes.
fn time_lazy_bin(dir: &Path, entries: usize) -> crate::Result<f64> {
    let start = Instant::now();
    let store = ModelStore::open_with_mode(dir, LoadMode::Lazy)?;
    let mut models = 0usize;
    for entry in store.entries() {
        models += entry.index()?.models.len();
    }
    black_box(models);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(models, entries, "binary index missed models");
    assert!(
        store.entries().all(|e| !e.is_loaded()),
        "indexing must not materialize artifacts"
    );
    Ok(elapsed / entries as f64)
}

/// Times a lazy binary open followed by one name lookup: the index pass
/// routes the lookup and exactly one artifact decodes.
fn time_touch_one(dir: &Path, probe: &str) -> crate::Result<f64> {
    let start = Instant::now();
    let store = ModelStore::open_with_mode(dir, LoadMode::Lazy)?;
    let model = store.get(probe);
    black_box(model.is_some());
    let elapsed = start.elapsed().as_secs_f64();
    if model.is_none() {
        return Err(format!("probe model '{probe}' not found in the binary store").into());
    }
    assert_eq!(
        store.entries().filter(|e| e.is_loaded()).count(),
        1,
        "touch-one must materialize exactly one artifact"
    );
    Ok(elapsed)
}

/// Runs the three benches and returns their records (eager text, lazy
/// binary index, touch-one — in that order).
///
/// Each repetition runs all three paths back to back and the reported
/// time is the minimum over repetitions (the uncontended cost is what
/// the regression gate should track); one untimed warmup repetition
/// precedes the measured ones to populate the page cache for every path
/// alike.
///
/// # Errors
///
/// Filesystem failures while building the synthetic stores, or a store
/// that fails its own sanity checks.
pub fn run_store_bench(cfg: &StoreBenchConfig) -> crate::Result<Vec<BenchRecord>> {
    let stores = build_stores(cfg)?;
    let mut best = [f64::INFINITY; 3];
    for rep in 0..=cfg.reps {
        let t = [
            time_eager_text(&stores.text_dir, cfg.entries)?,
            time_lazy_bin(&stores.bin_dir, cfg.entries)?,
            time_touch_one(&stores.bin_dir, &stores.probe)?,
        ];
        if rep > 0 {
            for (b, t) in best.iter_mut().zip(t) {
                *b = b.min(t);
            }
        }
    }
    Ok(vec![
        BenchRecord {
            bench: "store/open_eager_text".into(),
            median_s: best[0],
            samples: cfg.entries,
        },
        BenchRecord {
            bench: "store/open_lazy_bin".into(),
            median_s: best[1],
            samples: cfg.entries,
        },
        BenchRecord {
            bench: "store/touch_one_bin".into(),
            median_s: best[2],
            samples: 1,
        },
    ])
}

/// Lazy-binary-open speedup over the eager text parse (per entry) — the
/// tentpole acceptance number.
pub fn speedup(records: &[BenchRecord]) -> Option<f64> {
    let eager = records.iter().find(|r| r.bench.ends_with("eager_text"))?;
    let lazy = records.iter().find(|r| r.bench.ends_with("lazy_bin"))?;
    (lazy.median_s > 0.0).then(|| eager.median_s / lazy.median_s)
}

/// The human-readable summary: µs/entry per path plus the lazy speedup.
pub fn summarize(records: &[BenchRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in records {
        let _ = writeln!(
            out,
            "{:<24} {:>10.2} us/{}  ({} samples)",
            r.bench,
            r.median_s * 1e6,
            if r.samples == 1 { "lookup" } else { "entry" },
            r.samples
        );
    }
    if let Some(s) = speedup(records) {
        let _ = writeln!(out, "lazy binary open speedup vs eager text: {s:.1}x");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_store_bench_produces_three_records() {
        let cfg = StoreBenchConfig {
            entries: 6,
            centers: 4,
            reps: 1,
        };
        let records = run_store_bench(&cfg).unwrap();
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| r.median_s > 0.0));
        assert_eq!(records[0].bench, "store/open_eager_text");
        assert_eq!(records[1].samples, 6);
        assert_eq!(records[2].samples, 1);
        assert!(speedup(&records).is_some());
        let summary = summarize(&records);
        assert!(summary.contains("speedup"));
        let line = records[0].to_json();
        assert!(line.contains("\"bench\": \"store/open_eager_text\""));
        assert!(line.contains("\"samples\": 6"));
    }
}
