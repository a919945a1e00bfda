//! End-to-end estimation pipelines: reference device → macromodel.
//!
//! The modeling process follows the paper:
//!
//! **Drivers** (Section 2):
//! 1. hold the port in each logic state and excite the pad with a
//!    multilevel voltage waveform spanning the output range
//!    (identification signals);
//! 2. estimate the RBF submodels `i_H`, `i_L` from the recorded port
//!    voltage/current (OLS center selection, affine augmentation);
//! 3. record complete Up and Down state switchings on **two identification
//!    loads** and obtain the weight sequences `w_H(k)`, `w_L(k)` by linear
//!    inversion of equation (1).
//!
//! **Receivers** (Section 3):
//! 1. estimate the linear ARX submodel from a step waveform spanning the
//!    supply range inside the rails;
//! 2. estimate the up/down RBF submodels from multilevel waveforms reaching
//!    into the protection regions, on the residual after the linear part;
//! 3. the C–R̂ baseline takes `C` from the linear fit and `R̂(v)` from a DC
//!    sweep.

use crate::driver::{estimate_switching_weights, PwRbfDriverModel};
use crate::receiver::{CrModel, ReceiverModel};
use crate::{Error, Result};
use circuit::devices::{Resistor, SourceWaveform, VoltageSource};
use circuit::{Waveform, GROUND};
use numkit::interp::Pwl;
use refdev::extraction::{capture_driver, capture_receiver, receiver_input_iv, PortCapture};
use refdev::{CmosDriverSpec, ReceiverSpec};
use sysid::arx::{ArxModel, ArxOrders};
use sysid::narx::{NarxModel, NarxOrders, RbfTrainConfig};
use sysid::signals;

/// Configuration of the driver estimation pipeline.
#[derive(Debug, Clone, Copy)]
pub struct DriverEstimationConfig {
    /// Model sample time (s). The paper reports Ts in the 25–50 ps range.
    pub ts: f64,
    /// Dynamic order `r` of the submodels.
    pub order: usize,
    /// RBF training configuration (centers, width, OLS stop).
    pub rbf: RbfTrainConfig,
    /// Excitation margin beyond the rails (V).
    pub v_margin: f64,
    /// Number of levels in the multilevel identification signal.
    pub n_levels: usize,
    /// Samples per level.
    pub dwell: usize,
    /// Edge samples of the identification signal.
    pub edge_samples: usize,
    /// First identification load: resistance to ground (Ω).
    pub r_load_a: f64,
    /// Second identification load: resistance to VDD (Ω).
    pub r_load_b: f64,
    /// Pre-edge settling time in the switching captures (s).
    pub t_pre: f64,
    /// Transition window captured after the edge (s).
    pub t_window: f64,
    /// Seed of the multilevel signal generator.
    pub seed: u64,
}

impl Default for DriverEstimationConfig {
    fn default() -> Self {
        DriverEstimationConfig {
            ts: 25e-12,
            order: 2,
            rbf: RbfTrainConfig {
                max_centers: 15,
                candidate_pool: 160,
                width_scale: 1.0,
                ols_tolerance: 1e-7,
            },
            v_margin: 0.3,
            n_levels: 60,
            dwell: 24,
            edge_samples: 6,
            r_load_a: 50.0,
            r_load_b: 50.0,
            t_pre: 2e-9,
            t_window: 4e-9,
            seed: 0x5eed,
        }
    }
}

/// Identification record of one state submodel (kept for diagnostics).
#[derive(Debug, Clone)]
pub struct StateIdRecord {
    /// Port voltage identification signal.
    pub voltage: Waveform,
    /// Recorded port current.
    pub current: Waveform,
    /// Free-run NMSE of the fitted submodel on its own identification data.
    pub nmse: f64,
}

/// The subset of [`DriverEstimationConfig`] that determines the
/// transistor-level captures. Two configs with equal keys record identical
/// waveforms, so an [`crate::ExtractionSession`] can reuse the captures and
/// only re-run the (cheap) fitting stages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DriverCaptureKey {
    ts: f64,
    v_margin: f64,
    n_levels: usize,
    dwell: usize,
    edge_samples: usize,
    r_load_a: f64,
    r_load_b: f64,
    t_pre: f64,
    t_window: f64,
    seed: u64,
}

impl DriverCaptureKey {
    pub(crate) fn of(cfg: &DriverEstimationConfig) -> Self {
        DriverCaptureKey {
            ts: cfg.ts,
            v_margin: cfg.v_margin,
            n_levels: cfg.n_levels,
            dwell: cfg.dwell,
            edge_samples: cfg.edge_samples,
            r_load_a: cfg.r_load_a,
            r_load_b: cfg.r_load_b,
            t_pre: cfg.t_pre,
            t_window: cfg.t_window,
            seed: cfg.seed,
        }
    }
}

/// Every transistor-level waveform the driver estimation needs: the two
/// state identifications plus the four switching captures (two patterns ×
/// two identification loads).
#[derive(Debug, Clone)]
pub(crate) struct DriverCaptures {
    pub(crate) high: PortCapture,
    pub(crate) low: PortCapture,
    /// The switching captures: `01` on load A / load B, then `10` on
    /// load A / load B.
    pub(crate) c01a: PortCapture,
    pub(crate) c01b: PortCapture,
    pub(crate) c10a: PortCapture,
    pub(crate) c10b: PortCapture,
}

/// Runs the six independent transistor-level captures of the driver
/// estimation on [`numkit::par`] workers (the expensive half of the
/// pipeline).
pub(crate) fn run_driver_captures(
    spec: &CmosDriverSpec,
    cfg: &DriverEstimationConfig,
) -> Result<DriverCaptures> {
    /// One capture: a held logic state (`true` is High), or a switching
    /// pattern into a resistor to ground or (`true`) to VDD.
    enum Job {
        State(bool),
        Switching(&'static str, bool, f64),
    }
    let switching = |pattern: &'static str, to_vdd: bool, r: f64| -> Result<PortCapture> {
        let t_stop = cfg.t_pre + cfg.t_window;
        capture_driver(
            spec,
            spec.pattern(pattern, cfg.t_pre),
            |ckt, pad| {
                if to_vdd {
                    let nv = ckt.node("idl_vdd");
                    ckt.add(VoltageSource::new(
                        "idl_vsrc",
                        nv,
                        GROUND,
                        SourceWaveform::dc(spec.vdd),
                    ));
                    ckt.add(Resistor::new("idl_r", pad, nv, r));
                } else {
                    ckt.add(Resistor::new("idl_r", pad, GROUND, r));
                }
                Ok(())
            },
            cfg.ts,
            t_stop,
        )
        .map_err(Error::from)
    };
    // Longest first: the multilevel state identifications outlast the
    // switching records.
    let (r_a, r_b) = (cfg.r_load_a, cfg.r_load_b);
    let jobs = vec![
        Job::State(true),
        Job::State(false),
        Job::Switching("01", false, r_a),
        Job::Switching("01", true, r_b),
        Job::Switching("10", false, r_a),
        Job::Switching("10", true, r_b),
    ];
    let caps = numkit::par::map(jobs, |job| match job {
        Job::State(high) => capture_state(spec, high, cfg),
        Job::Switching(pattern, to_vdd, r) => switching(pattern, to_vdd, r),
    });
    let caps: Vec<PortCapture> = caps.into_iter().collect::<Result<_>>()?;
    let [high, low, c01a, c01b, c10a, c10b] = caps.try_into().expect("six jobs");
    Ok(DriverCaptures {
        high,
        low,
        c01a,
        c01b,
        c10a,
        c10b,
    })
}

/// Fits the PW-RBF model from recorded captures (the cheap half: RBF
/// training and weight inversion, no circuit simulation).
pub(crate) fn fit_driver_from_captures(
    spec: &CmosDriverSpec,
    cfg: &DriverEstimationConfig,
    caps: &DriverCaptures,
) -> Result<(PwRbfDriverModel, StateIdRecord, StateIdRecord)> {
    // --- 1. state submodels (independent fits) ---
    let (high, low) = numkit::par::join(
        || fit_state_submodel(&caps.high, cfg),
        || fit_state_submodel(&caps.low, cfg),
    );
    let (i_high, rec_high) = high?;
    let (i_low, rec_low) = low?;

    // --- 2. switching-weight inversion on the two identification loads ---
    let k_edge = (cfg.t_pre / cfg.ts).round() as usize;
    let mut weights = Vec::with_capacity(2);
    for ((a, b), anchors) in [
        ((&caps.c01a, &caps.c01b), ((0.0, 1.0), (1.0, 0.0))),
        ((&caps.c10a, &caps.c10b), ((1.0, 0.0), (0.0, 1.0))),
    ] {
        let (v_a, i_a) = (a.voltage.values(), a.current.values());
        let (v_b, i_b) = (b.voltage.values(), b.current.values());
        // Submodel free runs on the recorded voltages, from settled initial
        // conditions at the first sample.
        let run = |m: &NarxModel, v: &[f64]| -> Vec<f64> {
            let y0 = crate::evalrt::settle_narx(m, v[0], &mut vec![0.0; m.orders().dim()]);
            let init = vec![y0; m.orders().start().max(1)];
            m.simulate(v, &init)
        };
        let slice = |s: &[f64]| s[k_edge..].to_vec();
        let ih_a = slice(&run(&i_high, v_a));
        let il_a = slice(&run(&i_low, v_a));
        let ih_b = slice(&run(&i_high, v_b));
        let il_b = slice(&run(&i_low, v_b));
        let meas_a = slice(i_a);
        let meas_b = slice(i_b);
        let w = estimate_switching_weights(&ih_a, &il_a, &meas_a, &ih_b, &il_b, &meas_b, anchors)?;
        weights.push(w);
    }
    let down = weights.pop().expect("two transitions captured");
    let up = weights.pop().expect("two transitions captured");

    let model = PwRbfDriverModel {
        name: spec.name.to_string(),
        ts: cfg.ts,
        vdd: spec.vdd,
        i_high,
        i_low,
        up,
        down,
    };
    model.validate()?;
    Ok((model, rec_high, rec_low))
}

/// Validates the non-capture configuration fields of a driver estimation.
pub(crate) fn check_driver_config(cfg: &DriverEstimationConfig) -> Result<()> {
    if cfg.ts <= 0.0 || cfg.order == 0 {
        return Err(Error::InvalidModel {
            message: "ts must be positive and order at least 1".into(),
        });
    }
    Ok(())
}

/// Estimates a PW-RBF driver model from a transistor-level reference.
///
/// Thin wrapper over [`crate::ExtractionSession::for_driver`]; prefer the
/// session builder, which can also reuse captures between runs, validate,
/// and save the result.
///
/// # Errors
///
/// Returns [`Error::Estimation`] with the failing stage, or propagates
/// simulation/identification errors.
pub fn estimate_driver(
    spec: &CmosDriverSpec,
    cfg: DriverEstimationConfig,
) -> Result<PwRbfDriverModel> {
    let (model, _, _) = estimate_driver_with_records(spec, cfg)?;
    Ok(model)
}

/// Like [`estimate_driver`], additionally returning the identification
/// records of the High and Low submodels.
///
/// Thin wrapper over [`crate::ExtractionSession::for_driver`].
///
/// # Errors
///
/// See [`estimate_driver`].
pub fn estimate_driver_with_records(
    spec: &CmosDriverSpec,
    cfg: DriverEstimationConfig,
) -> Result<(PwRbfDriverModel, StateIdRecord, StateIdRecord)> {
    crate::session::ExtractionSession::for_driver(spec.clone())
        .config(cfg)
        .run()?
        .into_driver_parts()
}

/// Captures one state identification (driver held High or Low, pad excited
/// by a multilevel source).
fn capture_state(
    spec: &CmosDriverSpec,
    high: bool,
    cfg: &DriverEstimationConfig,
) -> Result<PortCapture> {
    let lo = -cfg.v_margin;
    let hi = spec.vdd + cfg.v_margin;
    let sig = signals::multilevel(
        lo,
        hi,
        cfg.n_levels,
        cfg.dwell,
        cfg.edge_samples,
        cfg.seed ^ (high as u64),
    );
    let times: Vec<f64> = (0..sig.len()).map(|k| k as f64 * cfg.ts).collect();
    let pwl = Pwl::new(times.clone(), sig).map_err(|e| Error::Estimation {
        stage: "identification signal".into(),
        message: e.to_string(),
    })?;
    let t_stop = *times.last().expect("non-empty signal");
    let input_level = if high { spec.vdd } else { 0.0 };
    Ok(capture_driver(
        spec,
        SourceWaveform::dc(input_level),
        move |ckt, pad| {
            ckt.add(VoltageSource::new(
                "id_src",
                pad,
                GROUND,
                SourceWaveform::Pwl(pwl),
            ));
            Ok(())
        },
        cfg.ts,
        t_stop,
    )?)
}

/// Fits one state submodel from its recorded capture.
fn fit_state_submodel(
    capture: &PortCapture,
    cfg: &DriverEstimationConfig,
) -> Result<(NarxModel, StateIdRecord)> {
    let v = capture.voltage.values();
    let i = capture.current.values();
    let narx = NarxModel::fit(v, i, NarxOrders::dynamic(cfg.order), cfg.rbf)?;
    // Self-consistency metric on the identification data.
    let sim = narx.simulate(v, &i[..cfg.order.max(1)]);
    let nmse = numkit::stats::nmse(&sim, i);
    Ok((
        narx,
        StateIdRecord {
            voltage: capture.voltage.clone(),
            current: capture.current.clone(),
            nmse,
        },
    ))
}

/// Configuration of the receiver estimation pipeline.
#[derive(Debug, Clone, Copy)]
pub struct ReceiverEstimationConfig {
    /// Model sample time (s).
    pub ts: f64,
    /// ARX order of the linear submodel (`na = nb = r_lin`).
    pub r_lin: usize,
    /// Dynamic order of the up-protection submodel.
    pub r_up: usize,
    /// Dynamic order of the down-protection submodel.
    pub r_down: usize,
    /// RBF training configuration.
    pub rbf: RbfTrainConfig,
    /// Overdrive beyond the rails for the protection signals (V).
    pub v_over: f64,
    /// Number of levels in protection identification signals.
    pub n_levels: usize,
    /// Samples per level.
    pub dwell: usize,
    /// Edge samples.
    pub edge_samples: usize,
    /// Seed of the multilevel generator.
    pub seed: u64,
}

impl Default for ReceiverEstimationConfig {
    fn default() -> Self {
        ReceiverEstimationConfig {
            ts: 25e-12,
            r_lin: 2,
            r_up: 2,
            r_down: 3,
            rbf: RbfTrainConfig {
                max_centers: 18,
                candidate_pool: 220,
                width_scale: 1.0,
                ols_tolerance: 1e-8,
            },
            v_over: 0.9,
            n_levels: 50,
            dwell: 24,
            edge_samples: 6,
            seed: 0xace,
        }
    }
}

/// Fits an ARX model and guards against spurious marginal poles: smooth
/// identification steps under-determine the AR part of nearly capacitive
/// ports, so least squares occasionally parks a pole on the unit circle.
/// The AR order is reduced until the spectral radius is safely inside.
fn fit_stable_arx(v: &[f64], i: &[f64], r_lin: usize) -> Result<ArxModel> {
    let mut last_err: Option<Error> = None;
    for na in (0..=r_lin).rev() {
        match ArxModel::fit(v, i, ArxOrders { na, nb: r_lin }) {
            Ok(m) if m.spectral_radius() < 0.99 => return Ok(m),
            Ok(_) => continue,
            Err(e) => last_err = Some(e.into()),
        }
    }
    Err(last_err.unwrap_or(Error::Estimation {
        stage: "linear receiver submodel".into(),
        message: "no stable ARX structure found".into(),
    }))
}

/// Captures a receiver excited directly by a sampled voltage waveform.
fn capture_rx(spec: &ReceiverSpec, sig: Vec<f64>, ts: f64) -> Result<(Vec<f64>, Vec<f64>)> {
    let times: Vec<f64> = (0..sig.len()).map(|k| k as f64 * ts).collect();
    let t_stop = *times.last().expect("non-empty signal");
    let pwl = Pwl::new(times, sig).map_err(|e| Error::Estimation {
        stage: "receiver identification signal".into(),
        message: e.to_string(),
    })?;
    let cap = capture_receiver(
        spec,
        move |ckt, pad| {
            ckt.add(VoltageSource::new(
                "id_src",
                pad,
                GROUND,
                SourceWaveform::Pwl(pwl),
            ));
            Ok(())
        },
        ts,
        t_stop,
    )?;
    Ok((cap.voltage.values().to_vec(), cap.current.values().to_vec()))
}

/// The subset of [`ReceiverEstimationConfig`] that determines the
/// transistor-level captures (see [`DriverCaptureKey`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ReceiverCaptureKey {
    ts: f64,
    v_over: f64,
    n_levels: usize,
    dwell: usize,
    edge_samples: usize,
    seed: u64,
}

impl ReceiverCaptureKey {
    pub(crate) fn of(cfg: &ReceiverEstimationConfig) -> Self {
        ReceiverCaptureKey {
            ts: cfg.ts,
            v_over: cfg.v_over,
            n_levels: cfg.n_levels,
            dwell: cfg.dwell,
            edge_samples: cfg.edge_samples,
            seed: cfg.seed,
        }
    }
}

/// The three transistor-level identification captures of the receiver
/// estimation: linear steps, up-protection and down-protection multilevel
/// excursions.
#[derive(Debug, Clone)]
pub(crate) struct ReceiverCaptures {
    pub(crate) lin: (Vec<f64>, Vec<f64>),
    pub(crate) up: (Vec<f64>, Vec<f64>),
    pub(crate) dn: (Vec<f64>, Vec<f64>),
}

/// Share of protection-excitation levels stratified *inside* the
/// protection-conducting region (beyond the rail the submodel covers). A
/// plain full-range staircase would leave the region only
/// `v_over / (vdd + 2 v_over)` of the levels in expectation (≈ 18 % at the
/// defaults) — too sparse exactly where the protection current is largest.
const PROTECTION_FOCUS_SHARE: f64 = 0.35;

/// Builds the up/down protection identification signals: multilevel
/// staircases over the full excursion range with a guaranteed stratified
/// share of levels inside the respective protection-conducting region
/// (above VDD for `up`, below ground for `down`) — stratified sampling per
/// region, so neither the rails interior nor the diode knees are left with
/// coverage gaps.
pub(crate) fn protection_signals(vdd: f64, cfg: &ReceiverEstimationConfig) -> (Vec<f64>, Vec<f64>) {
    let lo = -cfg.v_over;
    let hi = vdd + cfg.v_over;
    let sig_up = signals::multilevel_focus(
        lo,
        hi,
        signals::Focus::new(vdd, hi, PROTECTION_FOCUS_SHARE),
        cfg.n_levels,
        cfg.dwell,
        cfg.edge_samples,
        cfg.seed,
    );
    let sig_dn = signals::multilevel_focus(
        lo,
        hi,
        signals::Focus::new(lo, 0.0, PROTECTION_FOCUS_SHARE),
        cfg.n_levels,
        cfg.dwell,
        cfg.edge_samples,
        cfg.seed ^ 0xffff,
    );
    (sig_up, sig_dn)
}

/// Runs the three independent receiver captures on [`numkit::par`]
/// workers.
pub(crate) fn run_receiver_captures(
    spec: &ReceiverSpec,
    cfg: &ReceiverEstimationConfig,
) -> Result<ReceiverCaptures> {
    let lin_sig = signals::step_train(
        0.1 * spec.vdd,
        0.9 * spec.vdd,
        6,
        cfg.dwell * 2,
        cfg.edge_samples,
    );
    let (sig_up, sig_dn) = protection_signals(spec.vdd, cfg);
    // Longest first: the protection staircases outlast the linear steps.
    let caps = numkit::par::map(vec![sig_up, sig_dn, lin_sig], |sig| {
        capture_rx(spec, sig, cfg.ts)
    });
    let [up, dn, lin]: [_; 3] = caps.try_into().expect("three jobs");
    Ok(ReceiverCaptures {
        lin: lin?,
        up: up?,
        dn: dn?,
    })
}

/// Validates the non-capture configuration fields of a receiver estimation.
pub(crate) fn check_receiver_config(cfg: &ReceiverEstimationConfig) -> Result<()> {
    if cfg.ts <= 0.0 {
        return Err(Error::InvalidModel {
            message: "ts must be positive".into(),
        });
    }
    Ok(())
}

/// Estimates the full receiver parametric model (equation 2).
///
/// Thin wrapper over [`crate::ExtractionSession::for_receiver`]; prefer the
/// session builder, which can also reuse captures between runs, validate,
/// and save the result.
///
/// # Errors
///
/// Returns [`Error::Estimation`] / identification errors from the stages.
pub fn estimate_receiver(
    spec: &ReceiverSpec,
    cfg: ReceiverEstimationConfig,
) -> Result<ReceiverModel> {
    match crate::session::ExtractionSession::for_receiver(spec.clone())
        .config(cfg)
        .run()?
        .into_model()
    {
        crate::AnyModel::Receiver(m) => Ok(m),
        _ => unreachable!("receiver session produces a receiver model"),
    }
}

/// Fits the receiver model from recorded captures. The fits stay
/// sequential — each protection submodel trains on the residual of the
/// previous stages.
pub(crate) fn fit_receiver_from_captures(
    spec: &ReceiverSpec,
    cfg: &ReceiverEstimationConfig,
    caps: &ReceiverCaptures,
) -> Result<ReceiverModel> {
    // --- 1. linear submodel: steps inside the rails ---
    let (v_lin, i_lin) = &caps.lin;
    let linear = fit_stable_arx(v_lin, i_lin, cfg.r_lin)?;

    // --- 2. protection submodels on the residual ---
    // Protection submodels are estimated without output feedback (NFIR
    // structure: present + past voltages only). The protection network is a
    // voltage-driven one-port, so its current is determined by the voltage
    // history; removing the output lags eliminates the free-run instability
    // that teacher-forced training can otherwise bake into the feedback
    // path when the residual is near zero over most of the record.
    //
    // Both submodels are trained over the *full* excursion range so that
    // their (small) affine tails are constrained everywhere; the split into
    // `up` and `down` is realized by sequential residual fitting: `up`
    // absorbs the residual after the linear part, `down` what remains.
    // Inside the rails both are taught to be (near) zero by construction.
    let (v_up, i_up) = &caps.up;
    let lin_up = linear.simulate(v_up);
    let resid_up: Vec<f64> = i_up.iter().zip(&lin_up).map(|(a, b)| a - b).collect();
    let up = NarxModel::fit(
        v_up,
        &resid_up,
        NarxOrders {
            input_lags: cfg.r_up,
            output_lags: 0,
        },
        cfg.rbf,
    )?;

    let (v_dn, i_dn) = &caps.dn;
    let lin_dn = linear.simulate(v_dn);
    let up_dn = up.simulate(v_dn, &[]);
    let resid_dn: Vec<f64> = i_dn
        .iter()
        .zip(&lin_dn)
        .zip(&up_dn)
        .map(|((a, b), c)| a - b - c)
        .collect();
    let down = NarxModel::fit(
        v_dn,
        &resid_dn,
        NarxOrders {
            input_lags: cfg.r_down,
            output_lags: 0,
        },
        cfg.rbf,
    )?;

    let model = ReceiverModel {
        name: spec.name.to_string(),
        ts: cfg.ts,
        vdd: spec.vdd,
        linear,
        up,
        down,
    };
    model.validate()?;
    Ok(model)
}

/// The step capture and DC sweep behind the C–R̂ baseline.
#[derive(Debug, Clone)]
pub(crate) struct CrCaptures {
    pub(crate) step: (Vec<f64>, Vec<f64>),
    pub(crate) sweep: (Vec<f64>, Vec<f64>),
}

/// Runs the two independent C–R̂ captures.
pub(crate) fn run_cr_captures(spec: &ReceiverSpec, ts: f64) -> Result<CrCaptures> {
    // The step capture (for C) and the DC sweep (for R̂) are independent.
    let sig = signals::step_train(0.1 * spec.vdd, 0.9 * spec.vdd, 6, 40, 6);
    let (cap, sweep) = numkit::par::join(
        || capture_rx(spec, sig, ts),
        || receiver_input_iv(spec, (-1.2, spec.vdd + 1.2), 49),
    );
    let sweep = sweep?;
    Ok(CrCaptures {
        step: cap?,
        sweep: (sweep.voltages, sweep.currents),
    })
}

/// Fits the C–R̂ baseline from its captures.
pub(crate) fn fit_cr_from_captures(
    spec: &ReceiverSpec,
    ts: f64,
    caps: &CrCaptures,
) -> Result<CrModel> {
    // C from an ARX(0,1) fit: i = (C/ts) v(k) - (C/ts) v(k-1).
    let (v, i) = &caps.step;
    let fit = ArxModel::fit(v, i, ArxOrders { na: 0, nb: 1 })?;
    let c = (fit.b()[0] - fit.b()[1]) * 0.5 * ts;
    let c = c.max(1e-15);
    // Static resistor from the DC sweep.
    let static_iv =
        Pwl::new(caps.sweep.0.clone(), caps.sweep.1.clone()).map_err(|e| Error::Estimation {
            stage: "C-R baseline DC sweep".into(),
            message: e.to_string(),
        })?;
    CrModel::new(format!("{}_cr", spec.name), c, static_iv)
}

/// Builds the paper's C–R̂ baseline for a receiver: `C` from a low-order
/// linear fit inside the rails, `R̂(v)` from a DC sweep.
///
/// Thin wrapper over [`crate::ExtractionSession::for_cr_baseline`].
///
/// # Errors
///
/// Propagates capture and fit failures.
pub fn estimate_cr_baseline(spec: &ReceiverSpec, ts: f64) -> Result<CrModel> {
    match crate::session::ExtractionSession::for_cr_baseline(spec.clone())
        .sample_time(ts)
        .run()?
        .into_model()
    {
        crate::AnyModel::Cr(m) => Ok(m),
        _ => unreachable!("C-R session produces a C-R model"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refdev::{md1, md4};

    fn fast_driver_cfg() -> DriverEstimationConfig {
        DriverEstimationConfig {
            n_levels: 24,
            dwell: 16,
            rbf: RbfTrainConfig {
                max_centers: 8,
                candidate_pool: 60,
                width_scale: 1.0,
                ols_tolerance: 1e-6,
            },
            t_pre: 1.5e-9,
            t_window: 3e-9,
            ..Default::default()
        }
    }

    #[test]
    fn driver_estimation_end_to_end() {
        let spec = md1();
        let (model, rec_h, rec_l) = estimate_driver_with_records(&spec, fast_driver_cfg()).unwrap();
        assert!(model.validate().is_ok());
        // Submodels fit their own identification data well.
        assert!(rec_h.nmse < 0.05, "high NMSE {}", rec_h.nmse);
        assert!(rec_l.nmse < 0.05, "low NMSE {}", rec_l.nmse);
        // Weight windows are anchored at the steady states.
        assert_eq!(model.up.at(0), (0.0, 1.0));
        assert_eq!(model.up.at(model.up.len() - 1), (1.0, 0.0));
        assert_eq!(model.down.at(0), (1.0, 0.0));
        assert!(model.total_basis_functions() > 0);
    }

    #[test]
    fn driver_estimation_rejects_bad_config() {
        let cfg = DriverEstimationConfig {
            ts: 0.0,
            ..Default::default()
        };
        assert!(estimate_driver(&md1(), cfg).is_err());
        let cfg = DriverEstimationConfig {
            order: 0,
            ..Default::default()
        };
        assert!(estimate_driver(&md1(), cfg).is_err());
    }

    #[test]
    fn receiver_estimation_end_to_end() {
        let spec = md4();
        let cfg = ReceiverEstimationConfig {
            n_levels: 24,
            dwell: 16,
            ..Default::default()
        };
        let model = estimate_receiver(&spec, cfg).unwrap();
        assert!(model.validate().is_ok());
        // Static behaviour: inside the rails the total current at steady
        // state is (near) zero; above VDD the up model dominates.
        let n = 400;
        let v_hold = vec![0.5 * spec.vdd; n];
        let i = model.simulate(&v_hold);
        assert!(i[n - 1].abs() < 2e-3, "mid-rail leakage {}", i[n - 1]);
        let v_over = vec![spec.vdd + 0.8; n];
        let i = model.simulate(&v_over);
        assert!(i[n - 1] > 5e-3, "clamp current {}", i[n - 1]);
    }

    #[test]
    fn protection_signals_cover_the_conducting_regions() {
        let cfg = ReceiverEstimationConfig::default();
        let vdd = 3.3;
        let (sig_up, sig_dn) = protection_signals(vdd, &cfg);
        // The focused share guarantees a solid fraction of *dwell* samples
        // inside each protection-conducting region — far more than the
        // v_over/(vdd + 2 v_over) ≈ 18 % a plain full-range staircase
        // leaves there in expectation.
        let above = sig_up.iter().filter(|&&v| v > vdd).count() as f64 / sig_up.len() as f64;
        let below = sig_dn.iter().filter(|&&v| v < 0.0).count() as f64 / sig_dn.len() as f64;
        assert!(above > 0.28, "only {above:.2} of up-signal beyond VDD");
        assert!(below > 0.28, "only {below:.2} of down-signal below ground");
        // Stratified coverage inside the regions: every third of each
        // region sees samples (no clustering gap).
        let hi = vdd + cfg.v_over;
        for k in 0..3 {
            let (a, b) = (
                vdd + cfg.v_over * k as f64 / 3.0,
                vdd + cfg.v_over * (k + 1) as f64 / 3.0,
            );
            assert!(
                sig_up.iter().any(|&v| v >= a && v <= b),
                "up region slice [{a:.2},{b:.2}] V unexcited"
            );
            let (a, b) = (
                -cfg.v_over * (k + 1) as f64 / 3.0,
                -cfg.v_over * k as f64 / 3.0,
            );
            assert!(
                sig_dn.iter().any(|&v| v >= a && v <= b),
                "down region slice [{a:.2},{b:.2}] V unexcited"
            );
        }
        // Full range still spanned (rails interior keeps its coverage).
        assert!(sig_up.iter().cloned().fold(f64::INFINITY, f64::min) < -0.8 * cfg.v_over);
        assert!(sig_up.iter().cloned().fold(f64::NEG_INFINITY, f64::max) > hi - 1e-9);
    }

    #[test]
    fn cr_baseline_extraction() {
        let spec = md4();
        let cr = estimate_cr_baseline(&spec, 25e-12).unwrap();
        // The estimated C is within a factor of two of the physical total
        // (the gate RC hides part of it at this sample rate).
        let c_phys = spec.total_capacitance();
        assert!(
            cr.c > 0.3 * c_phys && cr.c < 2.0 * c_phys,
            "C {} vs physical {}",
            cr.c,
            c_phys
        );
        // Static curve: conducting above the rail.
        assert!(cr.static_iv.eval(spec.vdd + 1.0) > 1e-3);
        assert!(cr.static_iv.eval(0.5 * spec.vdd).abs() < 1e-4);
    }
}
