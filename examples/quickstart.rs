//! Quickstart: estimate a PW-RBF macromodel of a 3.3 V driver and validate
//! it on a transmission-line load — the full modeling flow of the paper in
//! ~30 lines.
//!
//! Run with: `cargo run --example quickstart --release`

use emc_io_macromodel::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The "device under modeling": a transistor-level reference of a
    //    74LVC244-class output buffer (see `refdev::md1`).
    let spec = refdev::md1();
    println!("reference device: {} ({} V supply)", spec.name, spec.vdd);

    // 2. Estimate the PW-RBF macromodel (paper eq. 1): two RBF state
    //    submodels from multilevel identification signals, switching
    //    weights by two-load linear inversion.
    let t0 = std::time::Instant::now();
    let estimated = ExtractionSession::for_driver(spec)
        .config(DriverEstimationConfig::default())
        .run()?;
    println!(
        "estimated in {:.2} s: {}",
        t0.elapsed().as_secs_f64(),
        estimated.summary()
    );

    // 3. Validate on a load the model has never seen: an ideal 50 Ω,
    //    0.8 ns transmission line terminated by 10 pF (the Fig. 1 fixture),
    //    against the transistor-level reference the model came from.
    let run = estimated.validate_against_reference(
        &TestFixture::line_cap(50.0, 0.8e-9, 10e-12),
        Some(&PortStimulus::new("01", 4e-9)),
        12e-9,
        None,
    )?;
    println!(
        "validation vs transistor level: rms {:.1} mV, max {:.1} mV",
        run.metrics.rms_error * 1e3,
        run.metrics.max_error * 1e3
    );
    if let Some(te) = run.metrics.timing_error {
        println!("threshold-crossing timing error: {:.1} ps", te * 1e12);
    }
    Ok(())
}
