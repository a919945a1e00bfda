//! Experiment definitions reproducing every table and figure of the paper.
//!
//! Each `figN` function builds the paper's validation fixture, runs the
//! transistor-level reference and the macromodels through it, and returns
//! the waveform sets the figure plots. The `gen_*` binaries print them as
//! CSV; the criterion benches time the underlying simulations (Table 1 and
//! the Section-5 cost claims).
//!
//! Reconstructed parameters (the available scan of the paper corrupts many
//! numbers) are listed per experiment in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]

use circuit::devices::{Capacitor, IdealLine, Resistor, SourceWaveform, VoltageSource};
use circuit::mtl::{expand_coupled_line, CoupledLineSpec};
use circuit::{Circuit, TranParams, Waveform, GROUND};
use macromodel::validate::ValidationMetrics;
use macromodel::{
    AnyModel, CrModel, ExtractionSession, Macromodel, PortStimulus, PwRbfDriverModel,
    ReceiverModel, TestFixture,
};
use numkit::par;
use refdev::extraction::{capture_driver, capture_receiver};
use refdev::ibis::IbisExtractConfig;
use refdev::{CmosDriverSpec, IbisCorner, IbisModel, ReceiverSpec};

pub mod evalbench;
pub mod eyebench;
pub mod serve;
pub mod server;
pub mod storebench;

/// Shared result alias (boxed error keeps the harness code terse; `Send +
/// Sync` so experiment results can cross scoped-worker boundaries).
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// The model sample time used across all experiments (s).
pub const TS: f64 = 25e-12;

/// Parses `v`, the value of `key`, as a whole number in `min..=max`: plain
/// digits or a finite, integral float (`1e3`). This is the one count
/// grammar of `mdl` flags and daemon request lines; negative, fractional,
/// non-finite and out-of-range values are errors, never clamped.
///
/// # Errors
///
/// A usage message naming `key`, the bounds and the rejected value.
pub fn parse_count(key: &str, v: &str, min: u64, max: u64) -> std::result::Result<u64, String> {
    let n = v.parse::<u64>().ok().or_else(|| {
        let f: f64 = v.parse().ok()?;
        (f.is_finite() && f >= 0.0 && f.fract() == 0.0 && f < u64::MAX as f64).then_some(f as u64)
    });
    match n {
        Some(n) if (min..=max).contains(&n) => Ok(n),
        _ if max == u64::MAX => Err(format!(
            "{key}: expected a whole number >= {min}, got '{v}'"
        )),
        _ => Err(format!(
            "{key}: expected a whole number in {min}..={max}, got '{v}'"
        )),
    }
}

/// Parses `v`, the value of `--prbs`, as a PRBS order tag: 7, 15 or 31,
/// written in [`parse_count`]'s grammar. The one tag check of `mdl` flags
/// and daemon request lines.
///
/// # Errors
///
/// A usage message naming `--prbs` and the rejected value.
pub fn parse_prbs(v: &str) -> std::result::Result<u32, String> {
    let p = parse_count("--prbs", v, 0, u64::MAX)?;
    u32::try_from(p)
        .ok()
        .filter(|&t| si::PrbsOrder::from_tag(t).is_some())
        .ok_or_else(|| format!("--prbs: expected 7, 15 or 31, got {p}"))
}

/// Estimates the PW-RBF model of a driver with the experiment defaults.
pub fn driver_model(spec: &CmosDriverSpec) -> Result<PwRbfDriverModel> {
    match ExtractionSession::for_driver(spec.clone())
        .run()?
        .into_model()
    {
        AnyModel::PwRbfDriver(m) => Ok(m),
        _ => unreachable!("a driver session yields a driver model"),
    }
}

/// Estimates the receiver parametric model with the experiment defaults:
/// ARX order 3 and 40 levels of 64 samples.
pub fn receiver_model(spec: &ReceiverSpec) -> Result<ReceiverModel> {
    let est = ExtractionSession::for_receiver(spec.clone())
        .orders(3, 2, 3)
        .excitation(40, 64, 6)
        .run()?;
    match est.into_model() {
        AnyModel::Receiver(m) => Ok(m),
        _ => unreachable!("a receiver session yields a receiver model"),
    }
}

/// Estimates the C–R̂ baseline with the experiment defaults.
pub fn cr_model(spec: &ReceiverSpec) -> Result<CrModel> {
    let est = ExtractionSession::for_cr_baseline(spec.clone())
        .sample_time(TS)
        .run()?;
    match est.into_model() {
        AnyModel::Cr(m) => Ok(m),
        _ => unreachable!("a C-R session yields a C-R model"),
    }
}

// ---------------------------------------------------------------------
// Figure 1 — MD1 near-end voltage on an ideal line + capacitive load,
// PW-RBF vs IBIS slow/typ/fast vs transistor-level reference.
// ---------------------------------------------------------------------

/// Fixture parameters of Fig. 1 (reconstructed: Z0 = 50 Ω, Td = 0.8 ns,
/// C_load = 10 pF, bit "01", 4 ns bit time, 12 ns window).
pub struct Fig1Config {
    /// Line impedance (Ω).
    pub z0: f64,
    /// Line delay (s).
    pub td: f64,
    /// Far-end capacitor (F).
    pub c_load: f64,
    /// Bit time (s).
    pub bit_time: f64,
    /// Simulated window (s).
    pub t_stop: f64,
}

impl Default for Fig1Config {
    fn default() -> Self {
        Fig1Config {
            z0: 50.0,
            td: 0.8e-9,
            c_load: 10e-12,
            bit_time: 4e-9,
            t_stop: 12e-9,
        }
    }
}

/// Waveform set of Fig. 1.
pub struct Fig1Data {
    /// Transistor-level reference `v_out(t)`.
    pub reference: Waveform,
    /// PW-RBF prediction.
    pub pwrbf: Waveform,
    /// IBIS typical prediction.
    pub ibis_typ: Waveform,
    /// IBIS slow corner.
    pub ibis_slow: Waveform,
    /// IBIS fast corner.
    pub ibis_fast: Waveform,
    /// PW-RBF accuracy metrics vs the reference.
    pub metrics_pwrbf: ValidationMetrics,
    /// IBIS typical accuracy metrics vs the reference.
    pub metrics_ibis: ValidationMetrics,
}

/// Runs the Fig. 1 experiment.
///
/// # Errors
///
/// Propagates estimation and simulation failures.
pub fn fig1(cfg: &Fig1Config) -> Result<Fig1Data> {
    let spec = refdev::md1();
    let model = driver_model(&spec)?;
    let ibis = IbisModel::extract(&spec, IbisExtractConfig::default())?;
    let stim = PortStimulus::new("01", cfg.bit_time);
    let fixture = TestFixture::line_cap(cfg.z0, cfg.td, cfg.c_load);

    // The reference next to every macromodel backend — the PW-RBF model
    // and the three IBIS corners — through the one trait-generic fixture
    // runner, swept in parallel.
    let backends: Vec<Box<dyn Macromodel>> = vec![
        Box::new(model.clone()),
        Box::new(ibis.with_corner(IbisCorner::Typical)?),
        Box::new(ibis.with_corner(IbisCorner::Slow)?),
        Box::new(ibis.with_corner(IbisCorner::Fast)?),
    ];
    let (reference, model_waves) = par::join(
        || -> Result<Waveform> {
            Ok(capture_driver(
                &spec,
                spec.pattern("01", cfg.bit_time),
                |ckt, pad| {
                    fixture.install(ckt, pad);
                    Ok(())
                },
                TS,
                cfg.t_stop,
            )?
            .voltage)
        },
        || {
            par::map(backends, |m| -> Result<Waveform> {
                Ok(m.simulate_on_load(&fixture, Some(&stim), TS, cfg.t_stop)?)
            })
        },
    );
    let reference = reference?;
    let mut model_waves = model_waves.into_iter();
    let pwrbf = model_waves.next().expect("four backends")?;
    let ibis_typ = model_waves.next().expect("four backends")?;
    let ibis_slow = model_waves.next().expect("four backends")?;
    let ibis_fast = model_waves.next().expect("four backends")?;

    let threshold = 0.5 * spec.vdd;
    Ok(Fig1Data {
        metrics_pwrbf: ValidationMetrics::between(&pwrbf, &reference, threshold),
        metrics_ibis: ValidationMetrics::between(&ibis_typ, &reference, threshold),
        reference,
        pwrbf,
        ibis_typ,
        ibis_slow,
        ibis_fast,
    })
}

// ---------------------------------------------------------------------
// Figure 2 — MD2 far-end voltage, 1 ns pulse into three ideal lines.
// ---------------------------------------------------------------------

/// One panel of Fig. 2.
pub struct Fig2Panel {
    /// Panel label (`a`, `b`, `c`).
    pub label: &'static str,
    /// Line impedance (Ω).
    pub z0: f64,
    /// Line delay (s).
    pub td: f64,
    /// Reference far-end waveform.
    pub reference: Waveform,
    /// PW-RBF far-end waveform.
    pub pwrbf: Waveform,
    /// Accuracy metrics.
    pub metrics: ValidationMetrics,
}

/// Runs Fig. 2: panels (a) 30 Ω / 0.5 ns, (b) 120 Ω / 0.5 ns,
/// (c) 75 Ω / 60 ps; far ends loaded by 5 pF; pattern "010", 1 ns bit.
///
/// # Errors
///
/// Propagates estimation and simulation failures.
pub fn fig2() -> Result<Vec<Fig2Panel>> {
    let spec = refdev::md2();
    let model = driver_model(&spec)?;
    let c_load = 5e-12;
    let bit = 1e-9;
    let t_stop = 8e-9;
    // The three panels are independent fixture sweeps: run them in parallel.
    let spec = &spec;
    let model = &model;
    let panel_results = par::map(
        vec![
            ("a", 30.0, 0.5e-9),
            ("b", 120.0, 0.5e-9),
            ("c", 75.0, 60e-12),
        ],
        move |(label, z0, td)| -> Result<Fig2Panel> {
            let build = |ckt: &mut Circuit, pad: circuit::Node| -> circuit::Node {
                let far = ckt.node("fig2_far");
                ckt.add(IdealLine::new(
                    "fig2_line",
                    pad,
                    GROUND,
                    far,
                    GROUND,
                    z0,
                    td,
                ));
                ckt.add(Capacitor::new("fig2_cl", far, GROUND, c_load));
                far
            };
            // Reference: need the far-end node voltage, so build manually.
            let reference = {
                let mut ckt = Circuit::new();
                let ports = spec.instantiate(&mut ckt, spec.pattern("010", bit))?;
                let far = build(&mut ckt, ports.pad);
                let res = ckt.transient(TranParams::new(TS, t_stop))?;
                res.voltage(far)
            };
            let pwrbf = {
                let mut ckt = Circuit::new();
                let out = ckt.node("out");
                model.instantiate(&mut ckt, out, Some(&PortStimulus::new("010", bit)))?;
                let far = build(&mut ckt, out);
                let res = ckt.transient(TranParams::new(TS, t_stop))?;
                res.voltage(far)
            };
            Ok(Fig2Panel {
                label,
                z0,
                td,
                metrics: ValidationMetrics::between(&pwrbf, &reference, 0.5 * spec.vdd),
                reference,
                pwrbf,
            })
        },
    );
    panel_results.into_iter().collect()
}

// ---------------------------------------------------------------------
// Figures 3/4 — coupled lossy MCM structure, crosstalk validation.
// ---------------------------------------------------------------------

/// Configuration of the Fig. 3 coupled-interconnect testbench.
pub struct Fig4Config {
    /// Active-line bit pattern (paper: `011011101010000`).
    pub pattern_active: &'static str,
    /// Bit time (s).
    pub bit_time: f64,
    /// Ladder segments for the 0.1 m coupled line.
    pub segments: usize,
    /// Far-end termination capacitors (F).
    pub c_term: f64,
    /// Simulated window (s).
    pub t_stop: f64,
    /// Timestep of the transistor-level reference run (s). The reference
    /// needs a finer grid than the macromodel clock to resolve the
    /// pre-driver edges — this asymmetry is the substance of Table 1.
    pub dt_reference: f64,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Fig4Config {
            pattern_active: "011011101010000",
            bit_time: 2e-9,
            segments: 10,
            c_term: 1e-12,
            t_stop: 30e-9,
            dt_reference: 5e-12,
        }
    }
}

/// Waveform set of Fig. 4 plus the Table 1 CPU times.
pub struct Fig4Data {
    /// Far-end voltage of the active land, reference.
    pub v21_reference: Waveform,
    /// Far-end voltage of the active land, PW-RBF.
    pub v21_pwrbf: Waveform,
    /// Far-end voltage of the quiet land, reference.
    pub v22_reference: Waveform,
    /// Far-end voltage of the quiet land (crosstalk), PW-RBF.
    pub v22_pwrbf: Waveform,
    /// Wall-clock seconds of the transistor-level simulation, timed by
    /// that run alone. It overlaps the PW-RBF run when two CPUs are free.
    pub cpu_reference: f64,
    /// Wall-clock seconds of the PW-RBF simulation, timed by that run
    /// alone. It overlaps the transistor-level run when two CPUs are free.
    pub cpu_pwrbf: f64,
    /// Metrics on the active land.
    pub metrics_active: ValidationMetrics,
    /// Metrics on the quiet land (crosstalk), threshold at 25 mV.
    pub metrics_quiet: ValidationMetrics,
}

/// Runs the Fig. 3/4 experiment (also produces the Table 1 timings).
///
/// `model` must be the PW-RBF model of [`refdev::md3`]; pass `None` to
/// estimate it in place.
///
/// # Errors
///
/// Propagates estimation and simulation failures.
pub fn fig4(cfg: &Fig4Config, model: Option<PwRbfDriverModel>) -> Result<Fig4Data> {
    let spec = refdev::md3();
    let model = match model {
        Some(m) => m,
        None => driver_model(&spec)?,
    };
    let quiet_pattern: String = "0".repeat(cfg.pattern_active.len());
    let line_spec = CoupledLineSpec::mcm_date02();
    let f_band = (1e8, 2e10);

    // The two runs are independent: the transistor-level reference on the
    // calling thread, the PW-RBF run on the `join` worker. Each times
    // itself, so either time is its own run's wall time.
    let reference = || -> Result<_> {
        let t0 = std::time::Instant::now();
        let mut ckt = Circuit::new();
        let line = expand_coupled_line(&mut ckt, &line_spec, cfg.segments, f_band)?;
        let p1 = spec.instantiate(&mut ckt, spec.pattern(cfg.pattern_active, cfg.bit_time))?;
        let p2 = spec.instantiate(&mut ckt, spec.pattern(&quiet_pattern, cfg.bit_time))?;
        // Drivers at the near ends; far ends terminated by capacitors.
        ckt.add(Resistor::new("j1", p1.pad, line.near[0], 1e-3));
        ckt.add(Resistor::new("j2", p2.pad, line.near[1], 1e-3));
        ckt.add(Capacitor::new("ct1", line.far[0], GROUND, cfg.c_term));
        ckt.add(Capacitor::new("ct2", line.far[1], GROUND, cfg.c_term));
        // Only the two far ends are read, so only they are stored.
        let params = TranParams::new(cfg.dt_reference, cfg.t_stop);
        let res = ckt.transient_probed(params, &[line.far[0], line.far[1]])?;
        let [v21, v22]: [Waveform; 2] = res.voltages.try_into().expect("two probes");
        Ok(((v21, v22), t0.elapsed().as_secs_f64()))
    };
    let pwrbf = || -> Result<_> {
        let t1 = std::time::Instant::now();
        let mut ckt = Circuit::new();
        let line = expand_coupled_line(&mut ckt, &line_spec, cfg.segments, f_band)?;
        let out1 = ckt.node("drv1");
        let active = PortStimulus::new(cfg.pattern_active, cfg.bit_time);
        model.instantiate(&mut ckt, out1, Some(&active))?;
        let out2 = ckt.node("drv2");
        let quiet = PortStimulus::new(quiet_pattern.as_str(), cfg.bit_time);
        model.instantiate(&mut ckt, out2, Some(&quiet))?;
        ckt.add(Resistor::new("j1", out1, line.near[0], 1e-3));
        ckt.add(Resistor::new("j2", out2, line.near[1], 1e-3));
        ckt.add(Capacitor::new("ct1", line.far[0], GROUND, cfg.c_term));
        ckt.add(Capacitor::new("ct2", line.far[1], GROUND, cfg.c_term));
        let res = ckt.transient(TranParams::new(TS, cfg.t_stop))?;
        let waves = (res.voltage(line.far[0]), res.voltage(line.far[1]));
        Ok((waves, t1.elapsed().as_secs_f64()))
    };
    let (pwrbf, reference) = par::join(pwrbf, reference);
    let ((v21_reference, v22_reference), cpu_reference) = reference?;
    let ((v21_pwrbf, v22_pwrbf), cpu_pwrbf) = pwrbf?;

    let spec_vdd = refdev::md3().vdd;
    Ok(Fig4Data {
        metrics_active: ValidationMetrics::between(&v21_pwrbf, &v21_reference, 0.5 * spec_vdd),
        metrics_quiet: ValidationMetrics::between(&v22_pwrbf, &v22_reference, 25e-3),
        v21_reference,
        v21_pwrbf,
        v22_reference,
        v22_pwrbf,
        cpu_reference,
        cpu_pwrbf,
    })
}

// ---------------------------------------------------------------------
// Figure 5 — receiver input current under direct trapezoidal drive.
// ---------------------------------------------------------------------

/// Waveform set of Fig. 5 (input currents).
pub struct Fig5Data {
    /// Reference input current.
    pub reference: Waveform,
    /// Parametric-model input current.
    pub parametric: Waveform,
    /// C–R̂ baseline input current.
    pub cr: Waveform,
    /// RMS current error of the parametric model (A).
    pub rms_parametric: f64,
    /// RMS current error of the C–R̂ model (A).
    pub rms_cr: f64,
}

/// Runs Fig. 5: MD4 driven through 60 Ω by a 1 V trapezoid with 100 ps
/// edges; the figure plots `i_in(t)` around the rising edge.
///
/// # Errors
///
/// Propagates estimation and simulation failures.
pub fn fig5(model: Option<ReceiverModel>, cr: Option<CrModel>) -> Result<Fig5Data> {
    let spec = refdev::md4();
    let model = match model {
        Some(m) => m,
        None => receiver_model(&spec)?,
    };
    let cr = match cr {
        Some(c) => c,
        None => cr_model(&spec)?,
    };
    let r_src = 60.0;
    let stim = SourceWaveform::Pulse {
        low: 0.0,
        high: 1.0,
        delay: 0.4e-9,
        rise: 100e-12,
        width: 2e-9,
        fall: 100e-12,
    };
    let t_stop = 3e-9;

    // Reference: probe current directly.
    let reference = capture_receiver(
        &spec,
        |ckt, pad| {
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
            ckt.add(Resistor::new("rs", s, pad, r_src));
            Ok(())
        },
        TS,
        t_stop,
    )?
    .current;

    // Model runs — any backend through the unified trait; the current is
    // recovered from the source resistor drop.
    let run = |dut: &dyn Macromodel| -> Result<Waveform> {
        let mut ckt = Circuit::new();
        let s = ckt.node("src");
        ckt.add(VoltageSource::new("vs", s, GROUND, stim.clone()));
        let pad = ckt.node("pad");
        ckt.add(Resistor::new("rs", s, pad, r_src));
        dut.instantiate(&mut ckt, pad, None)?;
        let res = ckt.transient(TranParams::new(TS, t_stop))?;
        let vs = res.voltage(s);
        let vp = res.voltage(pad);
        let i: Vec<f64> = vs
            .values()
            .iter()
            .zip(vp.values())
            .map(|(a, b)| (a - b) / r_src)
            .collect();
        Ok(Waveform::from_parts(vs.times().to_vec(), i))
    };
    let parametric = run(&model)?;
    let cr_wave = run(&cr)?;

    let rms_parametric = circuit::waveform::rms_difference(&reference, &parametric);
    let rms_cr = circuit::waveform::rms_difference(&reference, &cr_wave);
    Ok(Fig5Data {
        reference,
        parametric,
        cr: cr_wave,
        rms_parametric,
        rms_cr,
    })
}

// ---------------------------------------------------------------------
// Figure 6 — receiver at the end of a 10 cm lossy line, three amplitudes.
// ---------------------------------------------------------------------

/// One panel of Fig. 6.
pub struct Fig6Panel {
    /// Pulse amplitude (V).
    pub amplitude: f64,
    /// Reference far-end voltage.
    pub reference: Waveform,
    /// Parametric model far-end voltage.
    pub parametric: Waveform,
    /// C–R̂ far-end voltage.
    pub cr: Waveform,
    /// Parametric-model metrics.
    pub metrics_parametric: ValidationMetrics,
    /// C–R̂ metrics.
    pub metrics_cr: ValidationMetrics,
}

/// Runs Fig. 6: 10 cm lossy line driven through 50 Ω by a 3 ns trapezoidal
/// pulse (100 ps edges) of amplitude 1.9 / 2.2 / 2.6 V, loaded by MD4.
///
/// # Errors
///
/// Propagates estimation and simulation failures.
pub fn fig6(model: Option<ReceiverModel>, cr: Option<CrModel>) -> Result<Vec<Fig6Panel>> {
    let spec = refdev::md4();
    let model = match model {
        Some(m) => m,
        None => receiver_model(&spec)?,
    };
    let cr = match cr {
        Some(c) => c,
        None => cr_model(&spec)?,
    };
    let line_spec = CoupledLineSpec::lossy_single(0.1);
    let segments = 12;
    let f_band = (1e8, 2e10);
    let t_stop = 8e-9;
    let r_src = 50.0;

    // The three amplitude panels are independent: sweep them in parallel.
    let (spec, model, cr, line_spec) = (&spec, &model, &cr, &line_spec);
    let panels = par::map(vec![1.9, 2.2, 2.6], move |amplitude| -> Result<Fig6Panel> {
        let stim = SourceWaveform::Pulse {
            low: 0.0,
            high: amplitude,
            delay: 0.5e-9,
            rise: 100e-12,
            width: 3e-9,
            fall: 100e-12,
        };
        // One fixture builder shared by the transistor-level reference and
        // every macromodel backend (trait-generic device installation).
        let run = |dut: Option<&dyn Macromodel>, dt: f64| -> Result<Waveform> {
            let mut ckt = Circuit::new();
            let s = ckt.node("src");
            ckt.add(VoltageSource::new("vs", s, GROUND, stim.clone()));
            let line = expand_coupled_line(&mut ckt, line_spec, segments, f_band)?;
            ckt.add(Resistor::new("rs", s, line.near[0], r_src));
            let far = line.far[0];
            match dut {
                Some(m) => m.instantiate(&mut ckt, far, None)?,
                None => {
                    let ports = spec.instantiate(&mut ckt)?;
                    ckt.add(Resistor::new("jrx", far, ports.pad, 1e-3));
                }
            }
            let res = ckt.transient(TranParams::new(dt, t_stop))?;
            Ok(res.voltage(far))
        };
        let reference = run(None, TS)?;
        let parametric = run(Some(model), TS)?;
        let cr_wave = run(Some(cr), TS)?;
        let threshold = 0.5 * spec.vdd;
        Ok(Fig6Panel {
            amplitude,
            metrics_parametric: ValidationMetrics::between(&parametric, &reference, threshold),
            metrics_cr: ValidationMetrics::between(&cr_wave, &reference, threshold),
            reference,
            parametric,
            cr: cr_wave,
        })
    });
    panels.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Scaling workload: N-segment lossy multi-driver bus ladder
// ---------------------------------------------------------------------------

/// One completed bus-ladder transient plus the numbers the smoke harness
/// and CI logs care about.
#[derive(Debug)]
pub struct BusLadderRun {
    /// MNA unknowns of the expanded ladder.
    pub unknowns: usize,
    /// Far-end voltage waveform per conductor.
    pub far_voltages: Vec<Waveform>,
    /// Solver diagnostics of the whole analysis (DC + every step).
    pub solve_stats: circuit::SolveStats,
    /// Newton iterations summed over all steps.
    pub newton_iterations: usize,
    /// Wall-clock seconds of the transient run.
    pub elapsed_s: f64,
}

/// Builds and runs the sparse-solver scaling scenario: a `conductors`-lane
/// lossy coupled bus (`CoupledLineSpec::bus`), expanded into `segments`
/// RLGC cells, with every lane driven by its own staggered step source
/// through a matched source resistor and terminated at the far end — a
/// multi-driver bus whose unknown count grows as ~9·`conductors`·`segments`.
///
/// `dense_reference` switches the transient to the dense O(n³) backend for
/// golden-agreement comparisons; leave it `false` for real sizes.
///
/// # Errors
///
/// Propagates circuit construction and solver failures.
pub fn run_bus_ladder(
    conductors: usize,
    segments: usize,
    dense_reference: bool,
) -> Result<BusLadderRun> {
    let spec = CoupledLineSpec::bus(conductors, 0.2);
    let mut ckt = Circuit::new();
    let line = expand_coupled_line(&mut ckt, &spec, segments, (1e7, 2e10))?;
    // After the expansion, which rejects a bus without conductors.
    let z0 = spec.z0(0);
    for j in 0..conductors {
        let src = ckt.node(format!("src{j}"));
        // Staggered edges so every driver actually switches within the
        // window (worst-case simultaneous-switching is a different study).
        let delay = 50e-12 * j as f64;
        ckt.add(VoltageSource::new(
            format!("v{j}"),
            src,
            GROUND,
            SourceWaveform::Step {
                from: 0.0,
                to: 1.0,
                delay,
                rise: 100e-12,
            },
        ));
        ckt.add(Resistor::new(format!("rs{j}"), src, line.near[j], z0));
        ckt.add(Resistor::new(format!("rl{j}"), line.far[j], GROUND, z0));
    }
    // ~2 line delays of observation at a step fine enough for the edges.
    let td = spec.delay(0);
    let params = TranParams::new(20e-12, 2.2 * td + 1e-9);
    let params = if dense_reference {
        params.with_dense_solver()
    } else {
        params
    };
    let t0 = std::time::Instant::now();
    let res = ckt.transient(params)?;
    let elapsed_s = t0.elapsed().as_secs_f64();
    Ok(BusLadderRun {
        unknowns: ckt.unknown_count(),
        far_voltages: (0..conductors).map(|j| res.voltage(line.far[j])).collect(),
        solve_stats: res.solve_stats,
        newton_iterations: res.total_newton_iterations,
        elapsed_s,
    })
}

/// Maximum relative disagreement between two ladder runs on a downsampled
/// grid (every `stride`-th sample), normalized by the peak amplitude of
/// `reference`. The golden check between the sparse solver and the dense
/// reference backend.
pub fn ladder_disagreement(a: &BusLadderRun, reference: &BusLadderRun, stride: usize) -> f64 {
    let mut worst = 0.0f64;
    for (wa, wr) in a.far_voltages.iter().zip(&reference.far_voltages) {
        let peak = wr.values().iter().fold(1e-30f64, |m, &v| m.max(v.abs()));
        for (va, vr) in wa.values().iter().zip(wr.values()).step_by(stride.max(1)) {
            worst = worst.max((va - vr).abs() / peak);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts that `r` writes the criterion stand-in's baseline-gate
    /// line, every field reading back bit for bit, from a real timing.
    pub(crate) fn assert_gate_json(r: &criterion::Record) {
        let line = r.to_json();
        let fields = line
            .strip_prefix(&format!("{{\"bench\":\"{}\",", r.bench))
            .and_then(|rest| rest.strip_suffix(&format!(",\"samples\":{}}}", r.samples)))
            .unwrap_or_else(|| panic!("not a baseline-gate line: {line}"));
        let stats: Vec<(&str, f64)> = fields
            .split(',')
            .map(|kv| {
                let (k, v) = kv.split_once(':').unwrap();
                (k, v.parse().unwrap())
            })
            .collect();
        assert_eq!(
            stats,
            [
                ("\"median_s\"", r.median_s),
                ("\"min_s\"", r.min_s),
                ("\"max_s\"", r.max_s)
            ],
            "{line}"
        );
        assert!(
            0.0 < r.min_s && r.min_s <= r.median_s && r.median_s <= r.max_s,
            "{line}"
        );
    }

    #[test]
    fn prbs_tags_are_7_15_or_31_in_the_count_grammar() {
        for (v, tag) in [("7", 7), ("15", 15), ("31", 31), ("3.1e1", 31)] {
            assert_eq!(parse_prbs(v), Ok(tag), "{v}");
        }
        for v in ["0", "8", "4294967303", "-7", "7.5", "nine", ""] {
            let e = parse_prbs(v).unwrap_err();
            assert!(e.starts_with("--prbs: expected "), "{v}: {e}");
        }
        // 2^32 + 7 must not wrap to the valid tag 7.
        assert_eq!(
            parse_prbs("4294967303").unwrap_err(),
            "--prbs: expected 7, 15 or 31, got 4294967303"
        );
    }

    #[test]
    fn fig1_config_default() {
        let c = Fig1Config::default();
        assert_eq!(c.z0, 50.0);
        assert!(c.t_stop > c.bit_time);
    }

    #[test]
    fn fig4_config_default() {
        let c = Fig4Config::default();
        assert_eq!(c.pattern_active.len(), 15);
        assert!(c.dt_reference < TS);
    }
}
