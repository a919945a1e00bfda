//! Workload of the `store` microbench (`cargo bench --bench store`): two
//! equivalent synthetic stores — the same PW-RBF driver fleet once as
//! text `.mdlx` and once as binary `.mdlxb` — and the three ways of
//! opening them that one sample times:
//!
//! * [`BenchStores::open_eager_text`] — [`ModelStore::open`] plus
//!   [`ModelStore::load_all`] on the text tree: every file fully parsed up
//!   front (the pre-container status quo);
//! * [`BenchStores::open_lazy_bin`] — an open of the binary tree plus
//!   [`macromodel::StoreEntry::index`] on every entry: the whole
//!   inventory (names, kinds, digests, byte sizes) from section headers
//!   alone, no model payload ever decoded;
//! * [`BenchStores::touch_one_bin`] — a binary open followed by one
//!   [`ModelStore::get`]: the time-to-first-model, materializing exactly
//!   one artifact out of the whole tree.

use std::hint::black_box;
use std::path::PathBuf;

use macromodel::driver::{PwRbfDriverModel, WeightSequence};
use macromodel::exchange::{save_artifact_as, ArtifactFormat};
use macromodel::{AnyModel, Artifact, ModelStore};

use crate::evalbench::bench_model;

/// The `eval` workload model dressed up to real-extraction size:
/// actual estimations carry ~160-sample switching-weight records (one
/// per sample of the transition window), while the eval bench's model
/// makes do with an 8-sample ramp. The text-parse cost this bench times
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

/// The two synthetic store trees, torn down on drop.
pub struct BenchStores {
    root: PathBuf,
    text_dir: PathBuf,
    bin_dir: PathBuf,
    entries: usize,
    /// Name of the last model in scan order — the lookup target that
    /// forces `touch_one` to index every file before its single decode.
    probe: String,
}

impl Drop for BenchStores {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

impl BenchStores {
    /// Writes `entries` driver artifacts under a fresh temporary `text`
    /// and `bin` tree — identical fleets, one per format. Each driver is
    /// the `eval` workload model with `centers` units per submodel at
    /// extraction-realistic size, renamed per entry.
    ///
    /// # Errors
    ///
    /// Filesystem failures while writing the stores.
    pub fn build(entries: usize, centers: usize) -> crate::Result<BenchStores> {
        let root = std::env::temp_dir().join(format!("emc-store-bench-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let stores = BenchStores {
            text_dir: root.join("text"),
            bin_dir: root.join("bin"),
            root,
            entries,
            probe: format!("drv_{:05}", entries.saturating_sub(1)),
        };
        std::fs::create_dir_all(&stores.text_dir)?;
        std::fs::create_dir_all(&stores.bin_dir)?;
        let base = store_model(centers);
        for i in 0..entries {
            let mut model = base.clone();
            model.name = format!("drv_{i:05}");
            let artifact = Artifact::single(AnyModel::PwRbfDriver(model));
            let text = stores.text_dir.join(format!("drv_{i:05}.mdlx"));
            save_artifact_as(&artifact, ArtifactFormat::Text, text)?;
            let bin = stores.bin_dir.join(format!("drv_{i:05}.mdlxb"));
            save_artifact_as(&artifact, ArtifactFormat::Binary, bin)?;
        }
        Ok(stores)
    }

    /// One text open plus [`ModelStore::load_all`]: every file parsed.
    pub fn open_eager_text(&self) -> ModelStore {
        let store = ModelStore::open(&self.text_dir).expect("text store opens");
        black_box(store.load_all().len());
        store
    }

    /// One binary open plus a full section-header index pass — the
    /// complete inventory with zero payload decodes. Returns the store and
    /// the number of models indexed.
    pub fn open_lazy_bin(&self) -> (ModelStore, usize) {
        let store = ModelStore::open(&self.bin_dir).expect("binary store opens");
        let mut models = 0usize;
        for entry in store.entries() {
            models += entry.index().expect("binary entry indexes").models.len();
        }
        (store, black_box(models))
    }

    /// One binary open followed by one name lookup: the index pass
    /// routes the lookup and exactly one artifact decodes. Returns the
    /// store and whether the probe was found.
    pub fn touch_one_bin(&self) -> (ModelStore, bool) {
        let store = ModelStore::open(&self.bin_dir).expect("binary store opens");
        let found = black_box(store.get(&self.probe).is_some());
        (store, found)
    }

    /// Runs each operation once and checks what it opened: the full
    /// fleet with no load failure, an index that materializes nothing,
    /// and a lookup that materializes exactly one artifact.
    pub fn check(&self) {
        let store = self.open_eager_text();
        assert_eq!(store.len(), self.entries, "text store scanned short");
        assert!(store.failures().is_empty(), "text store has load failures");

        let (store, models) = self.open_lazy_bin();
        assert_eq!(models, self.entries, "binary index missed models");
        assert!(
            store.entries().all(|e| !e.is_loaded()),
            "indexing must not materialize artifacts"
        );

        let (store, found) = self.touch_one_bin();
        assert!(
            found,
            "probe model '{}' not found in the binary store",
            self.probe
        );
        assert_eq!(
            store.entries().filter(|e| e.is_loaded()).count(),
            1,
            "touch-one must materialize exactly one artifact"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_stores_pass_their_checks() {
        let stores = BenchStores::build(6, 4).unwrap();
        stores.check();
        let root = stores.root.clone();
        drop(stores);
        assert!(!root.exists(), "the stores are torn down on drop");
    }
}
