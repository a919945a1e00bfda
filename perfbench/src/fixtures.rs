//! Store fixtures: the models every store is built from, and the seeded
//! layout that writes copies of them as text and binary artifacts.

use std::path::{Path, PathBuf};

use macromodel::exchange::binary::save_artifact_bin_to_path;
use macromodel::{
    save_artifact_to_path, AnyModel, Artifact, EstimatedModel, ExtractionSession, Macromodel,
    Provenance,
};
use refdev::IbisCorner;

use crate::stats::Rng;
use crate::Result;

/// The six distinct models a store is made of, extracted with the
/// settings of `mdl extract` (the paper's models, not the `--fast` ones).
pub struct Fixtures {
    /// md1, md2 and md3 PW-RBF drivers.
    pub drivers: Vec<EstimatedModel>,
    /// md1 IBIS baseline (bundled as its three corners).
    pub ibis: EstimatedModel,
    /// md4 receiver.
    pub receiver: EstimatedModel,
    /// md4 C–R̂ baseline.
    pub cr: EstimatedModel,
}

impl Fixtures {
    /// Extracts the fixture models.
    pub fn extract() -> Result<Fixtures> {
        let drivers = [refdev::md1(), refdev::md2(), refdev::md3()]
            .into_iter()
            .map(|spec| ExtractionSession::for_driver(spec).run())
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let ibis = ExtractionSession::for_ibis(refdev::md1()).run()?;
        let receiver = ExtractionSession::for_receiver(refdev::md4())
            .orders(3, 2, 3)
            .excitation(40, 64, 6)
            .run()?;
        let cr = ExtractionSession::for_cr_baseline(refdev::md4()).run()?;
        Ok(Fixtures {
            drivers,
            ibis,
            receiver,
            cr,
        })
    }

    /// The three IBIS corner models.
    fn ibis_corners(&self) -> Result<Vec<AnyModel>> {
        let AnyModel::Ibis(base) = self.ibis.model() else {
            return Err("IBIS session returned another model kind".into());
        };
        [IbisCorner::Typical, IbisCorner::Slow, IbisCorner::Fast]
            .into_iter()
            .map(|c| Ok(AnyModel::Ibis(base.with_corner(c)?)))
            .collect()
    }
}

/// How many copies of each fixture a store holds.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// Copies of each of md1, md2 and md3 PW-RBF.
    pub per_driver: usize,
    /// md1 IBIS corner bundles (three models each).
    pub ibis_bundles: usize,
    /// md4 receivers.
    pub receivers: usize,
    /// md4 C–R̂ baselines.
    pub crs: usize,
}

impl Layout {
    /// Models in a store of this layout.
    pub fn models(&self) -> usize {
        3 * self.per_driver + 3 * self.ibis_bundles + self.receivers + self.crs
    }
}

/// One artifact file of a written store.
#[derive(Debug, Clone)]
pub struct StoredArtifact {
    /// Path of the file.
    pub path: PathBuf,
    /// Whether the file is a binary `.mdlxb` container.
    pub binary: bool,
    /// The artifact as written.
    pub artifact: Artifact,
}

impl StoredArtifact {
    /// Writes the artifact to its path, replacing the file atomically.
    pub fn write(&self) -> Result<()> {
        let tmp = self.path.with_extension("tmp");
        if self.binary {
            save_artifact_bin_to_path(&self.artifact, &tmp)?;
        } else {
            save_artifact_to_path(&self.artifact, &tmp)?;
        }
        std::fs::rename(&tmp, &self.path)?;
        Ok(())
    }
}

/// The model with its name replaced.
pub fn renamed(model: &AnyModel, name: String) -> AnyModel {
    let mut m = model.clone();
    match &mut m {
        AnyModel::PwRbfDriver(x) => x.name = name,
        AnyModel::Receiver(x) => x.name = name,
        AnyModel::Cr(x) => x.name = name,
        AnyModel::Ibis(x) => x.name = name,
    }
    m
}

fn copy_of(e: &EstimatedModel, copy: usize) -> Artifact {
    Artifact::bundle(
        vec![renamed(e.model(), format!("{}-c{copy}", e.model().name()))],
        Some(e.provenance().clone().with_param("copy", copy.to_string())),
    )
}

/// Writes a store of `layout` into `dir` (created fresh). The seeded
/// shuffle decides the scan order of the artifacts and which half of them
/// are binary. Every model name is unique.
pub fn write_store(
    dir: &Path,
    fx: &Fixtures,
    layout: Layout,
    rng: &mut Rng,
) -> Result<Vec<StoredArtifact>> {
    let mut artifacts = Vec::new();
    for copy in 0..layout.per_driver {
        for d in &fx.drivers {
            artifacts.push(copy_of(d, copy));
        }
    }
    let corners = fx.ibis_corners()?;
    for copy in 0..layout.ibis_bundles {
        let models = corners
            .iter()
            .map(|m| renamed(m, format!("{}-c{copy}", m.name())))
            .collect();
        let prov: Provenance = fx
            .ibis
            .provenance()
            .clone()
            .with_param("corners", "Typical,Slow,Fast")
            .with_param("copy", copy.to_string());
        artifacts.push(Artifact::bundle(models, Some(prov)));
    }
    artifacts.extend((0..layout.receivers).map(|c| copy_of(&fx.receiver, c)));
    artifacts.extend((0..layout.crs).map(|c| copy_of(&fx.cr, c)));
    rng.shuffle(&mut artifacts);
    let mut binary: Vec<bool> = (0..artifacts.len())
        .map(|i| i < artifacts.len() / 2)
        .collect();
    rng.shuffle(&mut binary);

    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let stored: Vec<StoredArtifact> = artifacts
        .into_iter()
        .zip(binary)
        .enumerate()
        .map(|(i, (artifact, binary))| StoredArtifact {
            path: dir.join(format!("a{i:02}.{}", if binary { "mdlxb" } else { "mdlx" })),
            binary,
            artifact,
        })
        .collect();
    for s in &stored {
        s.write()?;
    }
    Ok(stored)
}
