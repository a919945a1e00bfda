//! Property-based tests of the model-exchange format: save → load → save
//! must be byte-identical for *any* valid model, and corrupted artifacts
//! (NaN/inf values, truncation, future version tags) must fail with typed
//! errors — never load silently.

use macromodel::driver::{PwRbfDriverModel, WeightSequence};
use macromodel::exchange::{
    load_artifact_bytes, save_artifact_bytes, AnyModel, Artifact, ArtifactFormat, ExchangeError,
    Provenance,
};
use macromodel::receiver::{CrModel, ReceiverModel};
use macromodel::Error;
use numkit::interp::Pwl;
use proptest::prelude::*;
use sysid::arx::{ArxModel, ArxOrders};
use sysid::narx::{NarxModel, NarxOrders};
use sysid::rbf::RbfNetwork;

/// The text container of an artifact.
fn artifact_text(artifact: &Artifact) -> macromodel::Result<String> {
    let bytes = save_artifact_bytes(artifact, ArtifactFormat::Text)?;
    Ok(String::from_utf8(bytes).expect("the text container is UTF-8"))
}

/// The v1 text of one model.
fn model_text(model: &AnyModel) -> macromodel::Result<String> {
    artifact_text(&Artifact::single(model.clone()))
}

fn parse_artifact(text: &str) -> macromodel::Result<Artifact> {
    load_artifact_bytes(text.as_bytes())
}

fn parse_model(text: &str) -> macromodel::Result<AnyModel> {
    parse_artifact(text)?.into_single()
}

/// Deterministic synthetic NARX submodel from sampled scalars.
fn synth_narx(order: usize, n_centers: usize, scale: f64, bias: f64) -> NarxModel {
    let orders = NarxOrders::dynamic(order);
    let dim = orders.dim();
    let centers: Vec<Vec<f64>> = (0..n_centers)
        .map(|i| {
            (0..dim)
                .map(|j| scale * ((i + 1) as f64) * 0.3 - 0.05 * j as f64)
                .collect()
        })
        .collect();
    let widths: Vec<f64> = (0..n_centers)
        .map(|i| 0.1 + scale.abs() * (i + 1) as f64)
        .collect();
    let weights: Vec<f64> = (0..n_centers)
        .map(|i| bias * 0.5 + 1e-3 * (i as f64 + 1.0))
        .collect();
    let linear: Vec<f64> = (0..dim).map(|j| 1e-2 * (j as f64 - 0.5) * scale).collect();
    let net = RbfNetwork::from_parts(dim, centers, widths, weights, bias, linear).unwrap();
    NarxModel::from_network(orders, net).unwrap()
}

fn synth_driver(
    n_win: usize,
    order: usize,
    n_centers: usize,
    scale: f64,
    bias: f64,
) -> PwRbfDriverModel {
    let ramp: Vec<f64> = (0..n_win)
        .map(|k| k as f64 / (n_win - 1).max(1) as f64)
        .collect();
    let inv: Vec<f64> = ramp.iter().map(|w| 1.0 - w).collect();
    PwRbfDriverModel {
        name: "prop_drv".into(),
        ts: 25e-12 * scale.max(0.01),
        vdd: 3.3,
        i_high: synth_narx(order, n_centers, scale, bias),
        i_low: synth_narx(order, n_centers, -scale, -bias),
        up: WeightSequence::new(ramp.clone(), inv.clone()).unwrap(),
        down: WeightSequence::new(inv, ramp).unwrap(),
    }
}

fn synth_receiver(order: usize, n_centers: usize, a1: f64, scale: f64) -> ReceiverModel {
    ReceiverModel {
        name: "prop_rx".into(),
        ts: 25e-12,
        vdd: 1.8,
        // |a1| < 0.9 keeps the AR part strictly stable, as the model's own
        // validation requires.
        linear: ArxModel::from_coefficients(
            ArxOrders { na: 1, nb: 1 },
            vec![a1],
            vec![0.1 * scale, -0.09 * scale],
        )
        .unwrap(),
        up: synth_narx(order, n_centers, scale, 0.1),
        down: synth_narx(order, n_centers, -scale, -0.1),
    }
}

fn synth_cr(n_pts: usize, c: f64, slope: f64) -> CrModel {
    let x: Vec<f64> = (0..n_pts).map(|k| k as f64 * 0.25 - 1.0).collect();
    let y: Vec<f64> = x.iter().map(|v| slope * v).collect();
    CrModel::new("prop_cr", c, Pwl::new(x, y).unwrap()).unwrap()
}

fn assert_byte_identical(model: AnyModel) {
    let text = model_text(&model).unwrap();
    let loaded = parse_model(&text).unwrap();
    let re_saved = model_text(&loaded).unwrap();
    assert_eq!(text, re_saved);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// save → load → save is byte-identical for random valid driver models.
    #[test]
    fn driver_round_trip_byte_identical(
        n_win in 2usize..24,
        order in 1usize..4,
        n_centers in 0usize..5,
        scale in 0.001f64..10.0,
        bias in -1.0f64..1.0,
    ) {
        assert_byte_identical(synth_driver(n_win, order, n_centers, scale, bias).into());
    }

    /// ... and for random receiver and C–R̂ models.
    #[test]
    fn receiver_and_cr_round_trip_byte_identical(
        order in 1usize..3,
        n_centers in 0usize..4,
        a1 in -0.85f64..0.85,
        scale in 0.01f64..5.0,
        n_pts in 2usize..30,
        c in 1e-13f64..1e-10,
    ) {
        assert_byte_identical(synth_receiver(order, n_centers, a1, scale).into());
        assert_byte_identical(synth_cr(n_pts, c, scale).into());
    }

    /// Truncating a valid artifact anywhere must fail with a typed error,
    /// never load a partial model.
    #[test]
    fn truncated_artifacts_rejected(
        n_win in 2usize..16,
        keep_frac in 0.0f64..1.0,
    ) {
        let model: AnyModel = synth_driver(n_win, 1, 2, 0.5, 0.2).into();
        let text = model_text(&model).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let keep = ((lines.len() - 1) as f64 * keep_frac) as usize;
        let truncated = lines[..keep].join("\n");
        let err = parse_model(&truncated).unwrap_err();
        prop_assert!(
            matches!(
                err,
                Error::Exchange(
                    ExchangeError::Truncated { .. }
                        | ExchangeError::Syntax { .. }
                        | ExchangeError::UnknownField { .. }
                )
            ),
            "unexpected error class: {:?}", err
        );
    }

    /// NaN / infinity injected into any numeric record must be rejected
    /// with the NonFinite error.
    #[test]
    fn non_finite_values_rejected(
        n_win in 3usize..16,
        line_frac in 0.0f64..1.0,
        use_inf in any::<bool>(),
    ) {
        let model: AnyModel = synth_driver(n_win, 1, 2, 0.5, 0.2).into();
        let text = model_text(&model).unwrap();
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        // Pick a record carrying float payloads and poison its last token.
        let float_keys = ["bias", "linear", "center", "widths", "gweights", "wh", "wl", "ts", "vdd"];
        let candidates: Vec<usize> = lines
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                float_keys.iter().any(|k| l.starts_with(&format!("{k} ")))
            })
            .map(|(i, _)| i)
            .collect();
        prop_assert!(!candidates.is_empty());
        let idx = candidates[((candidates.len() - 1) as f64 * line_frac) as usize];
        let mut poisoned = lines.clone();
        let mut toks: Vec<String> = poisoned[idx]
            .split_ascii_whitespace()
            .map(str::to_string)
            .collect();
        let last = toks.len() - 1;
        toks[last] = if use_inf { "inf".into() } else { "NaN".into() };
        poisoned[idx] = toks.join(" ");
        let corrupted = poisoned.join("\n") + "\n";
        let err = parse_model(&corrupted).unwrap_err();
        prop_assert!(
            matches!(err, Error::Exchange(ExchangeError::NonFinite { .. })),
            "line {}: unexpected error {:?}", idx + 1, err
        );
    }

    /// Every future version tag is rejected up front (2 is understood, but
    /// only with the bundle grammar — a v1 body under a v2 header is a
    /// syntax error, not a model).
    #[test]
    fn future_versions_rejected(version in 3u32..1000) {
        let model: AnyModel = synth_cr(3, 1e-12, 0.1).into();
        let text = model_text(&model).unwrap();
        let bumped = text.replacen("mdlx 1 ", &format!("mdlx {version} "), 1);
        let err = parse_model(&bumped).unwrap_err();
        prop_assert!(matches!(
            err,
            Error::Exchange(ExchangeError::UnsupportedVersion { .. })
        ));
        let v2 = text.replacen("mdlx 1 ", "mdlx 2 ", 1);
        prop_assert!(matches!(
            parse_model(&v2).unwrap_err(),
            Error::Exchange(ExchangeError::Syntax { line: 1, .. })
        ));
    }

    /// A random mdlx 2 bundle (random model mix, random provenance) is
    /// byte-identical under save → load → save, and a v1 file re-saved
    /// through the artifact path stays on its v1 byte form.
    #[test]
    fn bundle_round_trip_byte_identical(
        n_models in 1usize..5,
        order in 1usize..3,
        n_centers in 0usize..4,
        scale in 0.01f64..5.0,
        n_params in 0usize..4,
        digest_seed in any::<u64>(),
    ) {
        let digest = format!("{digest_seed:016x}");
        let models: Vec<AnyModel> = (0..n_models)
            .map(|i| match i % 3 {
                0 => synth_driver(4 + i, order, n_centers, scale, 0.2).into(),
                1 => synth_receiver(order, n_centers, 0.3, scale).into(),
                _ => synth_cr(5 + i, 1e-12, scale).into(),
            })
            .collect();
        let mut prov = Provenance::new(digest);
        for k in 0..n_params {
            prov = prov.with_param(format!("key{k}"), format!("value {k} with spaces"));
        }
        let bundle = Artifact::bundle(models, Some(prov.clone()));
        let text = artifact_text(&bundle).unwrap();
        prop_assert!(text.starts_with("mdlx 2 bundle\n"));
        let loaded = parse_artifact(&text).unwrap();
        prop_assert_eq!(loaded.models.len(), n_models);
        prop_assert_eq!(loaded.provenance.as_ref(), Some(&prov));
        prop_assert_eq!(artifact_text(&loaded).unwrap(), text);

        // v1 re-saved as v1.
        let v1_text = model_text(&synth_cr(4, 1e-12, scale).into()).unwrap();
        let v1_artifact = parse_artifact(&v1_text).unwrap();
        prop_assert_eq!(v1_artifact.version, 1);
        prop_assert_eq!(artifact_text(&v1_artifact).unwrap(), v1_text);
    }

    /// Truncating a v2 bundle anywhere — inside the provenance block, a
    /// model section, or between sections — fails with a typed error.
    #[test]
    fn truncated_bundles_rejected(
        keep_frac in 0.0f64..1.0,
        n_models in 1usize..4,
    ) {
        let models: Vec<AnyModel> = (0..n_models)
            .map(|i| synth_driver(3 + i, 1, 2, 0.5, 0.2).into())
            .collect();
        let bundle = Artifact::bundle(
            models,
            Some(Provenance::new("feedc0defeedc0de").with_param("device", "prop")),
        );
        let text = artifact_text(&bundle).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let keep = ((lines.len() - 1) as f64 * keep_frac) as usize;
        let truncated = lines[..keep].join("\n");
        let err = parse_artifact(&truncated).unwrap_err();
        prop_assert!(
            matches!(
                err,
                Error::Exchange(
                    ExchangeError::Truncated { .. }
                        | ExchangeError::Syntax { .. }
                        | ExchangeError::UnknownField { .. }
                )
            ),
            "unexpected error class: {:?}", err
        );
    }

    /// CRLF endings and trailing blank lines never change what loads: the
    /// normalized artifact re-saves to the canonical LF bytes.
    #[test]
    fn crlf_and_trailing_blank_lines_are_normalized(
        n_win in 2usize..12,
        trailing_newlines in 0usize..4,
        crlf in any::<bool>(),
    ) {
        let model: AnyModel = synth_driver(n_win, 1, 2, 0.5, 0.2).into();
        let text = model_text(&model).unwrap();
        let mut mangled = if crlf { text.replace('\n', "\r\n") } else { text.clone() };
        for _ in 0..trailing_newlines {
            mangled.push_str(if crlf { "\r\n" } else { "\n" });
        }
        let loaded = parse_model(&mangled).unwrap();
        prop_assert_eq!(model_text(&loaded).unwrap(), text);
    }
}
