//! Artifact-lifecycle integration tests: every estimated model kind
//! round-trips through the versioned exchange format, and the loaded
//! artifact reproduces the in-memory model's validation waveform exactly.

use macromodel::exchange::{
    load_artifact_bytes, save_artifact_bytes, AnyModel, Artifact, ArtifactFormat, Provenance,
};
use macromodel::pipeline::DriverEstimationConfig;
use macromodel::{ExtractionSession, Macromodel, PortStimulus, TestFixture};
use refdev::ibis::IbisExtractConfig;
use refdev::IbisModel;
use sysid::narx::RbfTrainConfig;

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

fn fast_cfg() -> DriverEstimationConfig {
    DriverEstimationConfig {
        n_levels: 24,
        dwell: 16,
        rbf: RbfTrainConfig {
            max_centers: 8,
            candidate_pool: 60,
            width_scale: 1.0,
            ols_tolerance: 1e-6,
        },
        t_pre: 1.5e-9,
        t_window: 3e-9,
        ..Default::default()
    }
}

/// Saves, loads, re-saves; asserts byte identity and returns the loaded
/// model.
fn round_trip(model: &AnyModel) -> AnyModel {
    let text = model_text(model).expect("save");
    let loaded = parse_model(&text).expect("load");
    let re_saved = model_text(&loaded).expect("re-save");
    assert_eq!(
        text,
        re_saved,
        "{} re-save must be byte-identical",
        model.kind()
    );
    loaded
}

/// Max absolute difference between two waveforms on the same grid.
fn max_diff(a: &circuit::Waveform, b: &circuit::Waveform) -> f64 {
    assert_eq!(a.values().len(), b.values().len(), "grids must match");
    a.values()
        .iter()
        .zip(b.values())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// An estimated PW-RBF driver survives the exchange format and the loaded
/// artifact reproduces the validation waveform to <= 1e-12.
#[test]
fn estimated_driver_round_trips_and_replays() {
    let mut session = ExtractionSession::for_driver(refdev::md1()).config(fast_cfg());
    let est = session.run().expect("estimation");
    let model = est.into_model();
    let loaded = round_trip(&model);

    let fixture = TestFixture::line_cap(50.0, 0.8e-9, 10e-12);
    let stim = PortStimulus::new("01", 4e-9);
    let ts = model.sample_time().expect("sampled model");
    let wave_mem = model
        .simulate_on_load(&fixture, Some(&stim), ts, 12e-9)
        .expect("in-memory run");
    let wave_loaded = loaded
        .simulate_on_load(&fixture, Some(&stim), ts, 12e-9)
        .expect("loaded run");
    let err = max_diff(&wave_mem, &wave_loaded);
    assert!(err <= 1e-12, "loaded-model waveform differs by {err}");
}

/// Same lifecycle for the extracted IBIS baseline (and its corner set:
/// corner scaling applied to the loaded artifact matches the in-memory
/// model's corners).
#[test]
fn extracted_ibis_round_trips_and_replays() {
    let cfg = IbisExtractConfig {
        iv_points: 21,
        r_fixture: 50.0,
        dt: 50e-12,
        t_table: 3e-9,
    };
    let mut session = ExtractionSession::for_ibis(refdev::md1()).config(cfg);
    let model = session.run().expect("extraction").into_model();
    let loaded = round_trip(&model);

    let fixture = TestFixture::resistive(50.0);
    let stim = PortStimulus::new("01", 3e-9);
    let wave_mem = model
        .simulate_on_load(&fixture, Some(&stim), 50e-12, 6e-9)
        .expect("in-memory run");
    let wave_loaded = loaded
        .simulate_on_load(&fixture, Some(&stim), 50e-12, 6e-9)
        .expect("loaded run");
    assert!(max_diff(&wave_mem, &wave_loaded) <= 1e-12);

    // Corner set survives: derive corners from the loaded artifact.
    let (AnyModel::Ibis(m), AnyModel::Ibis(l)) = (&model, &loaded) else {
        panic!("ibis kind expected");
    };
    for corner in [refdev::IbisCorner::Slow, refdev::IbisCorner::Fast] {
        let a = m.with_corner(corner).unwrap();
        let b = l.with_corner(corner).unwrap();
        assert_eq!(a.c_comp, b.c_comp);
        assert_eq!(a.pullup.y(), b.pullup.y());
    }
    // A loaded IBIS model also round-trips after corner scaling.
    let fast: IbisModel = l.with_corner(refdev::IbisCorner::Fast).unwrap();
    round_trip(&AnyModel::from(fast));
}

/// Receiver parametric model and the C–R̂ baseline: byte-identical re-save
/// plus exact replay of the discrete-time response.
#[test]
fn estimated_receiver_and_cr_round_trip_and_replay() {
    let mut rx_session = ExtractionSession::for_receiver(refdev::md4())
        .orders(3, 2, 3)
        .excitation(24, 16, 6);
    let rx = rx_session.run().expect("receiver estimation").into_model();
    let rx_loaded = round_trip(&rx);

    let mut cr_session = ExtractionSession::for_cr_baseline(refdev::md4());
    let cr = cr_session.run().expect("cr estimation").into_model();
    let cr_loaded = round_trip(&cr);

    // Exact replay on a sampled record through the trait-level fixture run.
    let fixture = TestFixture::series_pulse(60.0, 0.0, 2.2, 0.4e-9, 0.1e-9, 2e-9, 0.1e-9);
    for (orig, loaded, dt) in [
        (&rx, &rx_loaded, rx.sample_time().unwrap()),
        (&cr, &cr_loaded, 25e-12),
    ] {
        let a = orig
            .simulate_on_load(&fixture, None, dt, 3e-9)
            .expect("in-memory run");
        let b = loaded
            .simulate_on_load(&fixture, None, dt, 3e-9)
            .expect("loaded run");
        let err = max_diff(&a, &b);
        assert!(err <= 1e-12, "{}: waveform differs by {err}", orig.kind());
    }
}

/// v1 ↔ v2 compatibility on estimated artifacts: a v1 byte stream loads
/// through the artifact path and re-saves as v1 unchanged; the same model
/// wrapped into a v2 bundle replays identically; and a v1 file that picked
/// up CRLF endings or trailing blank lines (Windows checkout, final-newline
/// editors) still loads and replays exactly.
#[test]
fn v1_compatibility_and_crlf_normalization_on_estimated_artifacts() {
    let mut session = ExtractionSession::for_driver(refdev::md1()).config(fast_cfg());
    let est = session.run().expect("estimation");
    let model = est.model().clone();
    let v1_text = model_text(&model).expect("save v1");

    // v1 byte stream reads unchanged through the v2-aware artifact path.
    let artifact = parse_artifact(&v1_text).expect("v1 via the artifact loader");
    assert_eq!(artifact.version, 1);
    assert_eq!(artifact_text(&artifact).expect("re-save"), v1_text);

    // The same model in a v2 bundle replays the validation waveform.
    let bundle = Artifact::bundle(
        vec![model.clone()],
        Some(Provenance::new("cafe".to_string()).with_param("device", "md1")),
    );
    let v2_text = artifact_text(&bundle).expect("save v2");
    let from_v2 = parse_model(&v2_text).expect("single-model v2 unwraps");

    // CRLF + trailing blank line on the v1 stream.
    let mangled = format!("{}\r\n", v1_text.replace('\n', "\r\n"));
    let from_crlf = parse_model(&mangled).expect("CRLF artifact loads");
    assert_eq!(model_text(&from_crlf).expect("re-save"), v1_text);

    let fixture = TestFixture::resistive(50.0);
    let stim = PortStimulus::new("010", 4e-9);
    let ts = model.sample_time().expect("sampled model");
    let reference_wave = model
        .simulate_on_load(&fixture, Some(&stim), ts, 8e-9)
        .expect("in-memory run");
    for loaded in [from_v2, from_crlf] {
        let wave = loaded
            .simulate_on_load(&fixture, Some(&stim), ts, 8e-9)
            .expect("loaded run");
        assert!(max_diff(&reference_wave, &wave) <= 1e-12);
    }
}

/// A loaded artifact drives the generic validation harness exactly like the
/// in-memory model (acceptance: `validate_macromodel` is backend-generic).
#[test]
fn loaded_artifact_validates_like_the_original() {
    use macromodel::validate::{validate_macromodel, ReferencePort};
    let spec = refdev::md1();
    let est = ExtractionSession::for_driver(spec.clone())
        .config(fast_cfg())
        .run()
        .expect("estimation");
    let loaded = round_trip(est.model());

    let run_a = est
        .validate_against_reference(
            &TestFixture::resistive(75.0),
            Some(&PortStimulus::new("010", 4e-9)),
            12e-9,
            None,
        )
        .expect("in-memory validation");
    let run_b = validate_macromodel(
        &ReferencePort::Driver(spec.clone()),
        &loaded,
        &TestFixture::resistive(75.0),
        Some(&PortStimulus::new("010", 4e-9)),
        loaded.sample_time().expect("sampled model"),
        12e-9,
        0.5 * spec.vdd,
    )
    .expect("loaded validation");
    assert!(max_diff(&run_a.model, &run_b.model) <= 1e-12);
    assert!((run_a.metrics.rms_error - run_b.metrics.rms_error).abs() <= 1e-12);
}
