//! Integration test of the paper's central claim: on a reactive load the
//! PW-RBF macromodel is substantially more accurate than the IBIS-style
//! baseline extracted from the same device.

use emc_io_macromodel::prelude::*;
use refdev::ibis::IbisExtractConfig;

#[test]
fn pwrbf_beats_ibis_on_reactive_load() {
    let spec = refdev::md1();
    // Full estimation configuration: this test asserts the paper's headline
    // accuracy ordering, so both models get their best-quality extraction.
    let pwrbf = ExtractionSession::for_driver(spec.clone())
        .config(DriverEstimationConfig::default())
        .run()
        .expect("pwrbf estimation");
    let ts = pwrbf
        .as_dyn()
        .sample_time()
        .expect("PW-RBF models are sampled");
    let ibis = IbisModel::extract(&spec, IbisExtractConfig::default()).expect("ibis extraction");

    let (z0, td, c_load) = (50.0, 0.8e-9, 10e-12);
    let (bit_time, t_stop) = (4e-9, 12e-9);

    // PW-RBF validation (also produces the shared reference waveform).
    let run = pwrbf
        .validate_against_reference(
            &TestFixture::line_cap(z0, td, c_load),
            Some(&PortStimulus::new("01", bit_time)),
            t_stop,
            None,
        )
        .expect("pwrbf validation");

    // IBIS typical corner through the same fixture.
    let v_ibis = {
        let mut ckt = Circuit::new();
        let out = ckt.node(format!("{}_out", ibis.name));
        ibis.instantiate(&mut ckt, out, Some(&PortStimulus::new("01", bit_time)))
            .expect("ibis install");
        let far = ckt.node("far");
        ckt.add(IdealLine::new("line", out, GROUND, far, GROUND, z0, td));
        ckt.add(Capacitor::new("cl", far, GROUND, c_load));
        let res = ckt
            .transient(TranParams::new(ts, t_stop))
            .expect("ibis tran");
        res.voltage(out)
    };
    let m_ibis = ValidationMetrics::between(&v_ibis, &run.reference, 0.5 * spec.vdd);

    // The ordering is the paper's conclusion; the margins are generous so
    // the test is robust to estimation noise.
    assert!(
        run.metrics.rms_error < 0.6 * m_ibis.rms_error,
        "PW-RBF rms {:.3} V should clearly beat IBIS rms {:.3} V",
        run.metrics.rms_error,
        m_ibis.rms_error
    );
    let te_pwrbf = run.metrics.timing_error.expect("pwrbf crossings");
    let te_ibis = m_ibis.timing_error.expect("ibis crossings");
    assert!(
        te_pwrbf < te_ibis,
        "PW-RBF timing {:.1} ps should beat IBIS {:.1} ps",
        te_pwrbf * 1e12,
        te_ibis * 1e12
    );
    // Section-5 band for the macromodel (generous factor for the reduced
    // estimation config).
    assert!(te_pwrbf < 60e-12, "PW-RBF timing {:.1} ps", te_pwrbf * 1e12);
}

/// IBIS corner ordering sanity: fast switches earlier than slow on the
/// same fixture.
#[test]
fn ibis_corners_are_ordered() {
    let spec = refdev::md1();
    let ibis = IbisModel::extract(
        &spec,
        IbisExtractConfig {
            iv_points: 21,
            dt: 50e-12,
            t_table: 3e-9,
            ..Default::default()
        },
    )
    .expect("extraction");

    let cross = |corner: IbisCorner| -> f64 {
        let model = ibis.with_corner(corner).expect("corner");
        let mut ckt = Circuit::new();
        let out = ckt.node(format!("{}_out", model.name));
        model
            .instantiate(&mut ckt, out, Some(&PortStimulus::new("01", 3e-9)))
            .expect("ibis install");
        ckt.add(Resistor::new("rl", out, GROUND, 50.0));
        let res = ckt.transient(TranParams::new(25e-12, 6e-9)).expect("tran");
        let v = res.voltage(out);
        v.threshold_crossings(0.5 * spec.vdd * 50.0 / 58.0)
            .first()
            .expect("crossing")
            .time
    };
    let t_fast = cross(IbisCorner::Fast);
    let t_typ = cross(IbisCorner::Typical);
    let t_slow = cross(IbisCorner::Slow);
    assert!(
        t_fast <= t_typ && t_typ <= t_slow,
        "corner ordering violated: fast {t_fast:.3e}, typ {t_typ:.3e}, slow {t_slow:.3e}"
    );
}
