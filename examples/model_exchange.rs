//! The model-artifact lifecycle: extract a macromodel through a builder
//! session, save it as a versioned `.mdlx` file, load it back, and drive a
//! validation fixture from the loaded artifact alone — the "portable
//! behavioral model" workflow the paper is about.
//!
//! Run with: `cargo run --release --example model_exchange`

use emc_io_macromodel::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Extract the PW-RBF macromodel of the MD1 driver with a builder
    //    session. Re-running the session after a `config` change that
    //    touches only fit parameters (orders, centers, the OLS threshold)
    //    reuses the transistor-level captures.
    let mut session = ExtractionSession::for_driver(md1())
        .excitation(40, 20, 6)
        .windows(1.5e-9, 3.5e-9);
    let estimated = session.run()?;
    println!("estimated: {}", estimated.summary());

    // 2. Ship it: a self-contained, versioned text artifact.
    let path = std::env::temp_dir().join("md1-pwrbf.mdlx");
    estimated.save(&path)?;
    println!("saved to {}", path.display());

    // 3. A downstream consumer loads the artifact — no reference device,
    //    no re-estimation — and uses it through the unified trait.
    let loaded = load_model_from_path(&path)?;
    println!("loaded:    {}", loaded.summary());
    for (k, v) in loaded.metadata() {
        println!("  {k:<16} {v}");
    }

    // 4. The loaded artifact drives the paper's Fig. 1 fixture.
    let wave = loaded.simulate_on_load(
        &TestFixture::line_cap(50.0, 0.8e-9, 10e-12),
        Some(&PortStimulus::new("01", 4e-9)),
        loaded.sample_time().expect("sampled model"),
        12e-9,
    )?;
    println!(
        "simulated {} samples; v(t_end) = {:.3} V",
        wave.values().len(),
        wave.values().last().unwrap()
    );

    // 5. And validates against the transistor-level reference.
    let check = estimated.validate_against_reference(
        &TestFixture::resistive(50.0),
        Some(&PortStimulus::new("010", 4e-9)),
        12e-9,
        None,
    )?;
    println!(
        "validation: rms {:.4} V, timing {:?}",
        check.metrics.rms_error, check.metrics.timing_error
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
