//! The paper's core comparison (Fig. 1): PW-RBF macromodel vs an IBIS-style
//! model of the same driver, both judged against the transistor-level
//! reference on a reactive load.
//!
//! IBIS blends static I–V tables with fixed switching templates, so it
//! cannot react to reflections arriving *during* an edge; the PW-RBF model
//! keeps the full nonlinear dynamics. This example prints the error of both
//! models side by side.
//!
//! Run with: `cargo run --example driver_vs_ibis --release`

use emc_io_macromodel::prelude::*;
use refdev::ibis::IbisExtractConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = refdev::md1();

    println!("estimating PW-RBF model of {} ...", spec.name);
    let pwrbf = ExtractionSession::for_driver(spec.clone()).run()?;
    let ts = pwrbf
        .as_dyn()
        .sample_time()
        .expect("PW-RBF models are sampled");

    println!("extracting IBIS model (I-V sweeps + two V-T waveforms) ...");
    let ibis = IbisModel::extract(&spec, IbisExtractConfig::default())?;

    // Validation fixture: 50 ohm / 0.8 ns ideal line + 10 pF far-end cap.
    let (z0, td, c_load) = (50.0, 0.8e-9, 10e-12);
    let (bit_time, t_stop) = (4e-9, 12e-9);

    // PW-RBF against the transistor-level reference (also the reference
    // waveform the IBIS corners are scored against).
    let reference = pwrbf.validate_against_reference(
        &TestFixture::line_cap(z0, td, c_load),
        Some(&PortStimulus::new("01", bit_time)),
        t_stop,
        None,
    )?;
    println!(
        "PW-RBF        : rms {:.1} mV, max {:.1} mV, timing {}",
        reference.metrics.rms_error * 1e3,
        reference.metrics.max_error * 1e3,
        fmt_timing(reference.metrics.timing_error),
    );

    for corner in [IbisCorner::Slow, IbisCorner::Typical, IbisCorner::Fast] {
        let model = ibis.with_corner(corner)?;
        let mut ckt = Circuit::new();
        let out = ckt.node(format!("{}_out", model.name));
        model.instantiate(&mut ckt, out, Some(&PortStimulus::new("01", bit_time)))?;
        let far = ckt.node("far");
        ckt.add(IdealLine::new("line", out, GROUND, far, GROUND, z0, td));
        ckt.add(Capacitor::new("cl", far, GROUND, c_load));
        let res = ckt.transient(TranParams::new(ts, t_stop))?;
        let v = res.voltage(out);
        let m = ValidationMetrics::between(&v, &reference.reference, 0.5 * spec.vdd);
        println!(
            "IBIS {corner:<9?}: rms {:.1} mV, max {:.1} mV, timing {}",
            m.rms_error * 1e3,
            m.max_error * 1e3,
            fmt_timing(m.timing_error),
        );
    }
    println!("(compare: the PW-RBF error stays an order of magnitude below IBIS)");
    Ok(())
}

fn fmt_timing(t: Option<f64>) -> String {
    match t {
        Some(t) => format!("{:.1} ps", t * 1e12),
        None => "n/a".into(),
    }
}
