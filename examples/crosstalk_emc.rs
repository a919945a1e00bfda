//! EMC scenario (Fig. 3/4): two drivers on a coupled lossy MCM
//! interconnect; the quiet line's far-end crosstalk is predicted with
//! PW-RBF macromodels and compared against the transistor-level reference.
//!
//! Run with: `cargo run --example crosstalk_emc --release`

use circuit::mtl::{expand_coupled_line, CoupledLineSpec};
use emc_io_macromodel::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = refdev::md3();
    println!("estimating PW-RBF model of {} ...", spec.name);
    let AnyModel::PwRbfDriver(model) = ExtractionSession::for_driver(spec.clone())
        .run()?
        .into_model()
    else {
        unreachable!("a driver session yields a driver model");
    };
    let ts = model.ts;

    let line_spec = CoupledLineSpec::mcm_date02();
    println!(
        "coupled line: Z0 = {:.1} Ω, Td = {:.0} ps over {} m",
        line_spec.z0(0),
        line_spec.delay(0) * 1e12,
        line_spec.length
    );

    let pattern_active = "0110111010";
    let pattern_quiet = "0000000000";
    let (bit_time, t_stop) = (2e-9, 20e-9);
    let segments = 10;

    // --- transistor-level reference ---
    let run_reference = || -> Result<(Waveform, Waveform), Box<dyn std::error::Error>> {
        let mut ckt = Circuit::new();
        let line = expand_coupled_line(&mut ckt, &line_spec, segments, (1e8, 2e10))?;
        let p1 = spec.instantiate(&mut ckt, spec.pattern(pattern_active, bit_time))?;
        let p2 = spec.instantiate(&mut ckt, spec.pattern(pattern_quiet, bit_time))?;
        ckt.add(Resistor::new("j1", p1.pad, line.near[0], 1e-3));
        ckt.add(Resistor::new("j2", p2.pad, line.near[1], 1e-3));
        ckt.add(Capacitor::new("c1", line.far[0], GROUND, 1e-12));
        ckt.add(Capacitor::new("c2", line.far[1], GROUND, 1e-12));
        let res = ckt.transient(TranParams::new(5e-12, t_stop))?;
        Ok((res.voltage(line.far[0]), res.voltage(line.far[1])))
    };
    println!("running transistor-level reference ...");
    let (v21_ref, v22_ref) = run_reference()?;

    // --- PW-RBF macromodels ---
    println!("running PW-RBF macromodels ...");
    let mut ckt = Circuit::new();
    let line = expand_coupled_line(&mut ckt, &line_spec, segments, (1e8, 2e10))?;
    let d1 = ckt.node("drv1");
    model.instantiate(
        &mut ckt,
        d1,
        Some(&PortStimulus::new(pattern_active, bit_time)),
    )?;
    let d2 = ckt.node("drv2");
    model.instantiate(
        &mut ckt,
        d2,
        Some(&PortStimulus::new(pattern_quiet, bit_time)),
    )?;
    ckt.add(Resistor::new("j1", d1, line.near[0], 1e-3));
    ckt.add(Resistor::new("j2", d2, line.near[1], 1e-3));
    ckt.add(Capacitor::new("c1", line.far[0], GROUND, 1e-12));
    ckt.add(Capacitor::new("c2", line.far[1], GROUND, 1e-12));
    let res = ckt.transient(TranParams::new(ts, t_stop))?;
    let v21 = res.voltage(line.far[0]);
    let v22 = res.voltage(line.far[1]);

    let m_active = ValidationMetrics::between(&v21, &v21_ref, 0.5 * spec.vdd);
    let m_quiet = ValidationMetrics::between(&v22, &v22_ref, 25e-3);
    println!(
        "active land : rms {:.1} mV, max {:.1} mV, timing {:?} ps",
        m_active.rms_error * 1e3,
        m_active.max_error * 1e3,
        m_active
            .timing_error
            .map(|t| (t * 1e12 * 10.0).round() / 10.0)
    );
    let xtalk_peak = v22_ref
        .values()
        .iter()
        .fold(0.0_f64, |m, &v| m.max(v.abs()));
    println!(
        "quiet land  : crosstalk peak {:.1} mV, model rms error {:.1} mV",
        xtalk_peak * 1e3,
        m_quiet.rms_error * 1e3
    );
    Ok(())
}
