//! Criterion benches: the per-figure simulation cost with pre-estimated
//! models (reduced fixtures so the bench suite finishes quickly).

use circuit::devices::{Capacitor, IdealLine, Resistor, SourceWaveform, VoltageSource};
use circuit::{Circuit, TranParams, GROUND};
use criterion::{criterion_group, criterion_main, Criterion};
use emc_bench::{cr_model, driver_model, receiver_model, TS};
use macromodel::{Macromodel, PortStimulus};

fn bench_figures(c: &mut Criterion) {
    let md1 = driver_model(&refdev::md1()).expect("md1 estimation");
    let md2 = driver_model(&refdev::md2()).expect("md2 estimation");
    let rx = receiver_model(&refdev::md4()).expect("md4 estimation");
    let cr = cr_model(&refdev::md4()).expect("cr estimation");

    let mut g = c.benchmark_group("figures");
    g.sample_size(10);

    // Fig. 1 fixture: PW-RBF + ideal line + cap.
    g.bench_function("fig1_pwrbf_sim", |b| {
        b.iter(|| {
            let mut ckt = Circuit::new();
            let out = ckt.node("out");
            md1.instantiate(&mut ckt, out, Some(&PortStimulus::new("01", 4e-9)))
                .expect("install");
            let far = ckt.node("far");
            ckt.add(IdealLine::new("l", out, GROUND, far, GROUND, 50.0, 0.8e-9));
            ckt.add(Capacitor::new("c", far, GROUND, 10e-12));
            ckt.transient(TranParams::new(TS, 12e-9)).expect("tran")
        })
    });

    // Fig. 2 panel (b): the hardest line (120 ohm, strong reflections).
    g.bench_function("fig2b_pwrbf_sim", |b| {
        b.iter(|| {
            let mut ckt = Circuit::new();
            let out = ckt.node("out");
            md2.instantiate(&mut ckt, out, Some(&PortStimulus::new("010", 1e-9)))
                .expect("install");
            let far = ckt.node("far");
            ckt.add(IdealLine::new("l", out, GROUND, far, GROUND, 120.0, 0.5e-9));
            ckt.add(Capacitor::new("c", far, GROUND, 5e-12));
            ckt.transient(TranParams::new(TS, 8e-9)).expect("tran")
        })
    });

    // Fig. 5 fixture: receiver model under trapezoidal drive.
    g.bench_function("fig5_parametric_sim", |b| {
        b.iter(|| {
            let mut ckt = Circuit::new();
            let s = ckt.node("src");
            ckt.add(VoltageSource::new(
                "vs",
                s,
                GROUND,
                SourceWaveform::Pulse {
                    low: 0.0,
                    high: 1.0,
                    delay: 0.4e-9,
                    rise: 100e-12,
                    width: 2e-9,
                    fall: 100e-12,
                },
            ));
            let pad = ckt.node("pad");
            ckt.add(Resistor::new("rs", s, pad, 60.0));
            rx.instantiate(&mut ckt, pad, None).expect("install");
            ckt.transient(TranParams::new(TS, 3e-9)).expect("tran")
        })
    });

    // Fig. 5 baseline for comparison.
    g.bench_function("fig5_cr_sim", |b| {
        b.iter(|| {
            let mut ckt = Circuit::new();
            let s = ckt.node("src");
            ckt.add(VoltageSource::new(
                "vs",
                s,
                GROUND,
                SourceWaveform::Pulse {
                    low: 0.0,
                    high: 1.0,
                    delay: 0.4e-9,
                    rise: 100e-12,
                    width: 2e-9,
                    fall: 100e-12,
                },
            ));
            let pad = ckt.node("pad");
            ckt.add(Resistor::new("rs", s, pad, 60.0));
            cr.instantiate(&mut ckt, pad, None).expect("install");
            ckt.transient(TranParams::new(TS, 3e-9)).expect("tran")
        })
    });

    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
