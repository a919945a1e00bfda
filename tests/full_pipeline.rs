//! Cross-crate integration tests: the complete modeling flow from
//! transistor-level reference device to validated macromodel.

use emc_io_macromodel::prelude::*;
use sysid::narx::RbfTrainConfig;

/// A reduced-cost estimation config used across the integration tests.
fn fast_cfg() -> DriverEstimationConfig {
    DriverEstimationConfig {
        n_levels: 40,
        dwell: 20,
        rbf: RbfTrainConfig {
            max_centers: 14,
            candidate_pool: 120,
            width_scale: 1.0,
            ols_tolerance: 1e-7,
        },
        t_pre: 1.5e-9,
        t_window: 3.5e-9,
        ..Default::default()
    }
}

/// Driver flow: estimate from MD1 and validate on a resistive load that was
/// never part of identification. The paper's Section-5 claim is a timing
/// error below ~30 ps; we assert a conservative 60 ps for the reduced
/// config plus tight amplitude tracking.
#[test]
fn driver_pipeline_md1_resistive() {
    let spec = refdev::md1();
    let model = estimate_driver(&spec, fast_cfg()).expect("estimation");
    let run = validate_driver(&spec, &model, "010", 4e-9, 12e-9, resistive_load(75.0))
        .expect("validation");
    assert!(
        run.metrics.rms_error < 0.05 * spec.vdd,
        "rms {} V",
        run.metrics.rms_error
    );
    let te = run.metrics.timing_error.expect("crossings exist");
    assert!(te < 60e-12, "timing error {:.1} ps", te * 1e12);
}

/// Driver flow on a reactive load (the Fig. 1 fixture): the macromodel must
/// track reflections it never saw during identification.
#[test]
fn driver_pipeline_md1_line_cap() {
    let spec = refdev::md1();
    let model = estimate_driver(&spec, fast_cfg()).expect("estimation");
    let run = validate_driver(
        &spec,
        &model,
        "01",
        4e-9,
        12e-9,
        line_cap_load(50.0, 0.8e-9, 10e-12),
    )
    .expect("validation");
    assert!(
        run.metrics.rms_error < 0.06 * spec.vdd,
        "rms {} V",
        run.metrics.rms_error
    );
    assert!(
        run.metrics.max_error < 0.25 * spec.vdd,
        "max {} V",
        run.metrics.max_error
    );
}

/// The same pipeline must work across supply voltages (MD2, 1.8 V).
#[test]
fn driver_pipeline_md2() {
    let spec = refdev::md2();
    let model = estimate_driver(&spec, fast_cfg()).expect("estimation");
    assert_eq!(model.vdd, 1.8);
    let run = validate_driver(&spec, &model, "010", 2e-9, 6e-9, resistive_load(60.0))
        .expect("validation");
    assert!(
        run.metrics.rms_error < 0.05 * spec.vdd,
        "rms {} V",
        run.metrics.rms_error
    );
}

/// Receiver flow: the estimated parametric model reproduces the reference
/// pad voltage through a series resistor within tens of millivolts, both
/// inside the rails and into the clamp region.
#[test]
fn receiver_pipeline_md4() {
    let spec = refdev::md4();
    let model = estimate_receiver(
        &spec,
        ReceiverEstimationConfig {
            n_levels: 30,
            dwell: 48,
            r_lin: 3,
            ..Default::default()
        },
    )
    .expect("estimation");
    let ts = model.ts;

    let run = |with_model: bool| -> Waveform {
        let stim = SourceWaveform::Pulse {
            low: 0.0,
            high: 2.4, // exceeds VDD: clamp region
            delay: 0.4e-9,
            rise: 100e-12,
            width: 2e-9,
            fall: 100e-12,
        };
        if with_model {
            let mut ckt = Circuit::new();
            let s = ckt.node("src");
            ckt.add(VoltageSource::new("vs", s, GROUND, stim));
            let pad = ckt.node("pad");
            ckt.add(Resistor::new("rs", s, pad, 60.0));
            ckt.add(ReceiverModelDevice::new(model.clone(), pad));
            let res = ckt.transient(TranParams::new(ts, 4e-9)).expect("tran");
            res.voltage(pad)
        } else {
            let cap = refdev::extraction::capture_receiver(
                &spec,
                |ckt, pad| {
                    let s = ckt.node("src");
                    ckt.add(VoltageSource::new(
                        "vs",
                        s,
                        GROUND,
                        SourceWaveform::Pulse {
                            low: 0.0,
                            high: 2.4,
                            delay: 0.4e-9,
                            rise: 100e-12,
                            width: 2e-9,
                            fall: 100e-12,
                        },
                    ));
                    ckt.add(Resistor::new("rs", s, pad, 60.0));
                    Ok(())
                },
                ts,
                4e-9,
            )
            .expect("capture");
            cap.voltage
        }
    };
    let reference = run(false);
    let predicted = run(true);
    let m = ValidationMetrics::between(&predicted, &reference, 0.5 * spec.vdd);
    assert!(m.rms_error < 0.08, "rms {} V", m.rms_error);
    assert!(m.max_error < 0.25, "max {} V", m.max_error);
}

/// The C–R̂ baseline must be *worse* than the parametric model on a
/// dynamic fixture — this ordering is the point of the paper's Fig. 5/6.
#[test]
fn parametric_beats_cr_baseline() {
    let spec = refdev::md4();
    let model = estimate_receiver(
        &spec,
        ReceiverEstimationConfig {
            n_levels: 30,
            dwell: 48,
            r_lin: 3,
            ..Default::default()
        },
    )
    .expect("estimation");
    let cr = estimate_cr_baseline(&spec, model.ts).expect("cr estimation");
    let ts = model.ts;

    let stim = || SourceWaveform::Pulse {
        low: 0.0,
        high: 1.0,
        delay: 0.4e-9,
        rise: 100e-12,
        width: 2e-9,
        fall: 100e-12,
    };
    // Reference current.
    let reference = refdev::extraction::capture_receiver(
        &spec,
        |ckt, pad| {
            let s = ckt.node("src");
            ckt.add(VoltageSource::new("vs", s, GROUND, stim()));
            ckt.add(Resistor::new("rs", s, pad, 60.0));
            Ok(())
        },
        ts,
        3e-9,
    )
    .expect("capture")
    .current;

    let run = |install: &dyn Fn(&mut Circuit, circuit::Node)| -> Waveform {
        let mut ckt = Circuit::new();
        let s = ckt.node("src");
        ckt.add(VoltageSource::new("vs", s, GROUND, stim()));
        let pad = ckt.node("pad");
        ckt.add(Resistor::new("rs", s, pad, 60.0));
        install(&mut ckt, pad);
        let res = ckt.transient(TranParams::new(ts, 3e-9)).expect("tran");
        let vs = res.voltage(s);
        let vp = res.voltage(pad);
        let i: Vec<f64> = vs
            .values()
            .iter()
            .zip(vp.values())
            .map(|(a, b)| (a - b) / 60.0)
            .collect();
        Waveform::from_parts(vs.times().to_vec(), i)
    };
    let m = model.clone();
    let i_param = run(&move |ckt, pad| {
        ckt.add(ReceiverModelDevice::new(m.clone(), pad));
    });
    let c = cr.clone();
    let i_cr = run(&move |ckt, pad| {
        c.instantiate(ckt, pad);
    });
    let err_param = circuit::waveform::rms_difference(&reference, &i_param);
    let err_cr = circuit::waveform::rms_difference(&reference, &i_cr);
    assert!(
        err_param < err_cr,
        "parametric {err_param:.3e} A should beat C-R {err_cr:.3e} A"
    );
}

/// An estimated model validates, survives `Clone` and `Debug`, and its
/// switching windows are anchored at the logic steady states. (Exchange
/// round trips are covered by the `exchange` tests.)
#[test]
fn model_structural_invariants() {
    let spec = refdev::md1();
    let model = estimate_driver(&spec, fast_cfg()).expect("estimation");
    assert!(model.validate().is_ok());
    let copy = model.clone();
    assert_eq!(copy.up.len(), model.up.len());
    assert_eq!(copy.total_basis_functions(), model.total_basis_functions());
    assert!(format!("{model:?}").contains("PwRbfDriverModel"));
    // Weight windows are anchored at logic steady states.
    assert_eq!(model.up.at(0), (0.0, 1.0));
    assert_eq!(model.up.at(model.up.len() - 1), (1.0, 0.0));
    assert_eq!(model.down.at(0), (1.0, 0.0));
    assert_eq!(model.down.at(model.down.len() - 1), (0.0, 1.0));
}
