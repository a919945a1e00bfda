//! The model-server daemon: `mdl serve` as a long-running process.
//!
//! The one-shot `mdl store` commands re-scan and re-parse the artifact
//! library on every invocation — fine for CI, wasteful for interactive
//! serving. This module keeps a [`macromodel::ModelStore`] resident behind
//! a Unix-domain socket:
//!
//! * [`protocol`] — the length-framed request/response codec;
//! * [`scheduler`] — the batched cell scheduler mapping queued requests
//!   onto the [`numkit::par`] workers (at most one per CPU), grouping
//!   same-model cells so one worker steps a model's cells back to back;
//! * [`daemon`] — the daemon itself: generation-swapped inventory, whose
//!   live generation is the parse memo of the next reload (an artifact at
//!   the same path with the same content digest keeps its parsed models),
//!   mtime/len polling hot reload, and the connection loops, plus
//!   [`daemon::Client`], the framed-protocol client behind `mdl request`.
//!
//! Hot reload is drop-free by construction: the inventory is an immutable
//! generation behind an `RwLock<Arc<_>>`, every in-flight request holds
//! `Arc` references into the generation it resolved against, and a reload
//! publishes a *new* generation without touching the old one. Requests
//! admitted before the swap finish on the artifacts they started with;
//! requests after it see the fresh bytes.

pub mod daemon;
pub mod protocol;
pub mod scheduler;

pub use daemon::{start, ServeConfig, ServerHandle};

use crate::serve::ModelLint;
use macromodel::AnyModel;
use std::path::PathBuf;

/// One model as the daemon serves it: the parsed model plus the identity
/// of the artifact bytes it came from.
#[derive(Debug, Clone)]
pub struct ServedModel {
    /// The parsed model.
    pub model: AnyModel,
    /// Content digest of the source artifact's raw bytes — with `path`,
    /// the reload's reuse key, computable without parsing.
    pub digest: String,
    /// Provenance `config_digest` of the artifact (v2 bundles only).
    pub config_digest: Option<String>,
    /// Source artifact path.
    pub path: PathBuf,
    /// Static-analysis summary, computed once when the bytes were parsed
    /// (cache hits reuse it — same bytes, same findings).
    pub lint: ModelLint,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::ServedModel;
    use macromodel::driver::{PwRbfDriverModel, WeightSequence};
    use macromodel::AnyModel;
    use sysid::narx::{NarxModel, NarxOrders};
    use sysid::rbf::RbfNetwork;

    /// A cheap switching PW-RBF driver for daemon and scheduler tests —
    /// one affine RBF per state (1.8 V pull-up / 0 V pull-down through
    /// 20 Ω), millisecond-scale transients with pattern-dependent output.
    pub(crate) fn dummy_driver(name: &str) -> AnyModel {
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

    pub(crate) fn served_dummy(name: &str) -> ServedModel {
        let model = dummy_driver(name);
        ServedModel {
            lint: crate::serve::ModelLint::of(name, &model),
            model,
            digest: "0123456789abcdef".into(),
            config_digest: None,
            path: std::path::PathBuf::from(format!("{name}.mdlx")),
        }
    }
}
