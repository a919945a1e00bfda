//! Receiver modeling (Fig. 5/6): estimate the parametric receiver model
//! (linear ARX + up/down RBF protection submodels) and the simple C–R̂
//! baseline with extraction sessions, validate both on the standard
//! pulse-through-resistor [`TestFixture`], then compare them against the
//! transistor-level reference on a lossy-line fixture that exercises the
//! protection circuits.
//!
//! Run with: `cargo run --example receiver_modeling --release`

use circuit::mtl::{expand_coupled_line, CoupledLineSpec};
use emc_io_macromodel::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = refdev::md4();
    println!("estimating parametric receiver model of {} ...", spec.name);
    let model = ExtractionSession::for_receiver(spec.clone())
        .config(ReceiverEstimationConfig {
            n_levels: 40,
            dwell: 64,
            r_lin: 3,
            ..Default::default()
        })
        .run()?;
    println!("  {}", model.summary());
    let ts = model
        .as_dyn()
        .sample_time()
        .expect("receiver models are sampled");
    let cr = ExtractionSession::for_cr_baseline(spec.clone())
        .sample_time(ts)
        .run()?;
    println!("  {}", cr.summary());

    // Both models against their reference on a 60 ohm series pulse that
    // reaches above VDD.
    let fixture = TestFixture::series_pulse(60.0, 0.0, 2.4, 0.4e-9, 0.1e-9, 2e-9, 0.1e-9);
    for est in [&model, &cr] {
        let m = est
            .validate_against_reference(&fixture, None, 4e-9, None)?
            .metrics;
        println!(
            "  {:<12} on the series-pulse fixture: rms {:.1} mV, max {:.1} mV",
            est.as_dyn().kind(),
            m.rms_error * 1e3,
            m.max_error * 1e3
        );
    }

    // Fixture: 10 cm lossy line driven through 50 ohms by a pulse whose
    // amplitude exceeds VDD, so the up-protection circuit conducts.
    let amplitude = 2.6;
    let line_spec = CoupledLineSpec::lossy_single(0.1);
    let stim = SourceWaveform::Pulse {
        low: 0.0,
        high: amplitude,
        delay: 0.5e-9,
        rise: 100e-12,
        width: 3e-9,
        fall: 100e-12,
    };
    let t_stop = 8e-9;

    let run = |dut: &dyn Fn(
        &mut Circuit,
        circuit::Node,
    ) -> Result<(), Box<dyn std::error::Error>>|
     -> Result<Waveform, Box<dyn std::error::Error>> {
        let mut ckt = Circuit::new();
        let s = ckt.node("src");
        ckt.add(VoltageSource::new("vs", s, GROUND, stim.clone()));
        let line = expand_coupled_line(&mut ckt, &line_spec, 12, (1e8, 2e10))?;
        ckt.add(Resistor::new("rs", s, line.near[0], 50.0));
        let far = line.far[0];
        dut(&mut ckt, far)?;
        let res = ckt.transient(TranParams::new(ts, t_stop))?;
        Ok(res.voltage(far))
    };

    let reference = run(&|ckt, far| {
        let ports = spec.instantiate(ckt)?;
        ckt.add(Resistor::new("j", far, ports.pad, 1e-3));
        Ok(())
    })?;
    let parametric = run(&|ckt, far| Ok(model.as_dyn().instantiate(ckt, far, None)?))?;
    let cr_wave = run(&|ckt, far| Ok(cr.as_dyn().instantiate(ckt, far, None)?))?;

    let mp = ValidationMetrics::between(&parametric, &reference, 0.5 * spec.vdd);
    let mc = ValidationMetrics::between(&cr_wave, &reference, 0.5 * spec.vdd);
    println!("far-end voltage with a {amplitude} V pulse (clamp region):");
    println!(
        "  parametric model: rms {:.1} mV, max {:.1} mV",
        mp.rms_error * 1e3,
        mp.max_error * 1e3
    );
    println!(
        "  C-R baseline    : rms {:.1} mV, max {:.1} mV",
        mc.rms_error * 1e3,
        mc.max_error * 1e3
    );
    println!("(the parametric model follows the protection dynamics the C-R misses)");
    Ok(())
}
