//! `paper`: the paper's own flow, one model at a time. Each pass extracts
//! md1–md3 as PW-RBF drivers and md4 as a receiver and validates each one
//! against its transistor-level reference, then runs Table 1 (the coupled
//! structure of Fig. 3, transistor level and PW-RBF).

use std::time::Instant;

use emc_bench::{fig4, Fig4Config};
use macromodel::validate::DriverValidation;
use macromodel::{
    AnyModel, EstimatedModel, ExtractionSession, Macromodel, PortStimulus, PwRbfDriverModel,
    TestFixture,
};

use crate::stats::{median, Rng};
use crate::trace::{durations, SpanId, Tracer};
use crate::{Budget, Ctx, FlowOut, Metric};

/// Reference-validation gate of an estimated model: rms pad-voltage error
/// as a share of the supply (the fleet's gate for PW-RBF and receivers).
const RMS_GATE: f64 = 0.08;
/// Table 1 gates on the PW-RBF run against the transistor-level run: rms
/// error on the active land as a share of the supply, and rms crosstalk
/// error on the quiet land in volts (the reproduction reads 27 mV and
/// 25 mV). The PW-RBF run must also be the faster one.
const TABLE1_ACTIVE_RMS: f64 = 0.05;
const TABLE1_QUIET_RMS: f64 = 0.04;

enum Device {
    Driver(refdev::CmosDriverSpec),
    Receiver(refdev::ReceiverSpec),
}

fn devices() -> Vec<Device> {
    vec![
        Device::Driver(refdev::md1()),
        Device::Driver(refdev::md2()),
        Device::Driver(refdev::md3()),
        Device::Receiver(refdev::md4()),
    ]
}

/// Extracts one device with the paper's settings.
fn extract(dev: &Device, tr: &Tracer, parent: Option<SpanId>) -> crate::Result<EstimatedModel> {
    Ok(match dev {
        Device::Driver(spec) => tr.span("core.session.driver", parent, || {
            ExtractionSession::for_driver(spec.clone()).run()
        })?,
        Device::Receiver(spec) => tr.span("core.session.receiver", parent, || {
            ExtractionSession::for_receiver(spec.clone())
                .orders(3, 2, 3)
                .excitation(40, 64, 6)
                .run()
        })?,
    })
}

/// Validates with the fleet's standard per-kind fixture.
fn validate(
    est: &EstimatedModel,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> crate::Result<DriverValidation> {
    let vdd = est.reference().vdd();
    let run = tr.span("core.validate", parent, || match est.model() {
        AnyModel::PwRbfDriver(_) => est.validate_against_reference(
            &TestFixture::resistive(50.0),
            Some(&PortStimulus::new("010", 4e-9)),
            12e-9,
            None,
        ),
        _ => est.validate_against_reference(
            &TestFixture::series_pulse(60.0, 0.0, 0.9 * vdd, 0.4e-9, 0.1e-9, 2e-9, 0.1e-9),
            None,
            3e-9,
            None,
        ),
    })?;
    Ok(run)
}

struct Samples {
    pass_s: Vec<f64>,
    ref_s: Vec<f64>,
    pwrbf_s: Vec<f64>,
    iter_traced: Vec<f64>,
    iter_plain: Vec<f64>,
}

/// One pass: extract and validate md1–md4 in a seeded order, then Table 1.
fn iteration(
    tr: &Tracer,
    md3: &PwRbfDriverModel,
    rng: &mut Rng,
    out: &mut FlowOut,
) -> (f64, f64, Option<(f64, f64)>) {
    let t0 = Instant::now();
    let it = tr.open("paper.iteration", None);
    let pass = tr.open("paper.extract_pass", it);
    let mut devs = devices();
    rng.shuffle(&mut devs);
    for dev in &devs {
        out.attempted += 1;
        let checked = extract(dev, tr, pass).and_then(|est| {
            let v = validate(&est, tr, pass)?;
            let limit = RMS_GATE * est.reference().vdd();
            if v.metrics.rms_error > limit {
                return Err(format!(
                    "{}: rms error {:.4} V over the {limit:.4} V gate",
                    est.model().name(),
                    v.metrics.rms_error
                )
                .into());
            }
            Ok(())
        });
        if let Err(e) = checked {
            out.fail(format!("paper extraction: {e}"));
        }
    }
    tr.close(pass);
    let pass_s = t0.elapsed().as_secs_f64();

    out.attempted += 1;
    let table1 = tr.span("bench.table1", it, || {
        fig4(&Fig4Config::default(), Some(md3.clone()))
    });
    tr.close(it);
    let iter_s = t0.elapsed().as_secs_f64();
    let times = match table1 {
        Ok(d) => {
            let vdd = refdev::md3().vdd;
            if d.metrics_active.rms_error > TABLE1_ACTIVE_RMS * vdd
                || d.metrics_quiet.rms_error > TABLE1_QUIET_RMS
                || d.cpu_pwrbf >= d.cpu_reference
            {
                out.fail(format!(
                    "Table 1: active rms {:.4} V, quiet rms {:.4} V, {:.3} s PW-RBF vs \
                     {:.3} s transistor level",
                    d.metrics_active.rms_error,
                    d.metrics_quiet.rms_error,
                    d.cpu_pwrbf,
                    d.cpu_reference
                ));
            }
            Some((d.cpu_reference, d.cpu_pwrbf))
        }
        Err(e) => {
            out.fail(format!("Table 1: {e}"));
            None
        }
    };
    (iter_s, pass_s, times)
}

/// Runs the flow.
pub fn run(ctx: &Ctx, budget: Budget) -> FlowOut {
    let mut out = FlowOut::default();
    let mut rng = Rng::new(ctx.seed, 1);
    let plain = Tracer::new(false);

    // Set-up: the md3 model Table 1 runs with, estimated outside the
    // timed region as `gen_table1` does.
    let mut setup = Vec::new();
    let mut md3 = None;
    for _ in 0..budget.setups() {
        let t0 = Instant::now();
        let est = ctx.tr.span("setup.extract", None, || {
            ExtractionSession::for_driver(refdev::md3()).run()
        });
        setup.push(t0.elapsed().as_secs_f64());
        match est.map(EstimatedModel::into_model) {
            Ok(AnyModel::PwRbfDriver(m)) => md3 = Some(m),
            Ok(_) => out.fail("md3 session returned another model kind".into()),
            Err(e) => out.fail(format!("md3 set-up: {e}")),
        }
    }
    out.attempted += setup.len() as u64;
    let Some(md3) = md3 else {
        return out;
    };
    out.setup_s = median(&setup).unwrap_or(0.0);

    if budget.warm_up() {
        iteration(&plain, &md3, &mut rng, &mut out);
    }
    let mut s = Samples {
        pass_s: Vec::new(),
        ref_s: Vec::new(),
        pwrbf_s: Vec::new(),
        iter_traced: Vec::new(),
        iter_plain: Vec::new(),
    };
    let t0 = Instant::now();
    let mut n = 0usize;
    while budget.more(n, t0) {
        // Traced runs alternate traced and plain passes, so the tracing
        // overhead is measured inside one run.
        let traced = ctx.tr.on() && n.is_multiple_of(2);
        let tr = if traced { &ctx.tr } else { &plain };
        let (iter_s, pass_s, times) = iteration(tr, &md3, &mut rng, &mut out);
        if traced {
            s.iter_traced.push(iter_s);
        } else {
            s.iter_plain.push(iter_s);
        }
        s.pass_s.push(pass_s);
        if let Some((r, p)) = times {
            s.ref_s.push(r);
            s.pwrbf_s.push(p);
        }
        n += 1;
    }
    let all: Vec<f64> = s.iter_traced.iter().chain(&s.iter_plain).copied().collect();
    out.op_s = median(&all).unwrap_or(0.0);
    out.overhead_pct = crate::overhead_pct(&s.iter_traced, &s.iter_plain);

    let spans = ctx.tr.spans();
    let m = |name: &str| median(&durations(&spans, name)).unwrap_or(0.0);
    out.layer = vec![
        Metric::s("core.session.driver_s", m("core.session.driver")),
        Metric::s("core.session.receiver_s", m("core.session.receiver")),
        Metric::s("core.validate_s", m("core.validate")),
        Metric::s("paper.extract_pass_s", median(&s.pass_s).unwrap_or(0.0)),
        Metric::s("bench.table1.ref_s", median(&s.ref_s).unwrap_or(0.0)),
        Metric::s("bench.table1.pwrbf_s", median(&s.pwrbf_s).unwrap_or(0.0)),
    ];
    out.lines.push(format!(
        "paper: {n} passes; extract_s {:.4}  table1_ref_s {:.4}  table1_pwrbf_s {:.5}  (medians)",
        median(&s.pass_s).unwrap_or(0.0),
        median(&s.ref_s).unwrap_or(0.0),
        median(&s.pwrbf_s).unwrap_or(0.0),
    ));
    out
}
