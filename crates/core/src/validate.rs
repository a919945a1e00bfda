//! Reference-vs-model validation harness and Section-5 accuracy metrics.
//!
//! The harness is backend-generic: [`validate_macromodel`] compares *any*
//! [`Macromodel`] implementation (PW-RBF, receiver parametric, C–R̂, IBIS)
//! against its transistor-level reference on the same [`TestFixture`].
//! [`crate::EstimatedModel::validate_against_reference`] calls it with the
//! reference the model was estimated from.

use crate::macromodel::{Macromodel, PortStimulus, TestFixture};
use crate::{Error, Result};
use circuit::waveform::{max_difference, rms_difference, timing_error};
use circuit::Waveform;
use refdev::extraction::{capture_driver, capture_receiver};
use refdev::{CmosDriverSpec, ReceiverSpec};

/// Transient step used when a model has no sample clock of its own (e.g.
/// the IBIS baseline): the experiments' standard 25 ps grid.
pub const DEFAULT_VALIDATION_DT: f64 = 25e-12;

/// Accuracy metrics between a model waveform and its reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationMetrics {
    /// Root-mean-square voltage difference (V).
    pub rms_error: f64,
    /// Maximum absolute voltage difference (V).
    pub max_error: f64,
    /// Maximum threshold-crossing timing error (s); `None` when either
    /// waveform never crosses the threshold.
    pub timing_error: Option<f64>,
    /// Threshold used for the timing measurement (V).
    pub threshold: f64,
}

impl ValidationMetrics {
    /// Computes the metric set between `model` and `reference` waveforms.
    pub fn between(model: &Waveform, reference: &Waveform, threshold: f64) -> Self {
        ValidationMetrics {
            rms_error: rms_difference(reference, model),
            max_error: max_difference(reference, model),
            timing_error: timing_error(reference, model, threshold),
            threshold,
        }
    }
}

/// Result of one validation run: both waveforms plus metrics.
#[derive(Debug, Clone)]
pub struct DriverValidation {
    /// Pad voltage of the transistor-level reference.
    pub reference: Waveform,
    /// Pad voltage predicted by the macromodel.
    pub model: Waveform,
    /// Comparison metrics at `vdd/2`.
    pub metrics: ValidationMetrics,
}

/// The transistor-level source a macromodel stands in for.
#[derive(Debug, Clone)]
pub enum ReferencePort {
    /// A CMOS output buffer.
    Driver(CmosDriverSpec),
    /// An input port.
    Receiver(ReceiverSpec),
}

impl ReferencePort {
    /// Supply voltage of the reference device (V).
    pub fn vdd(&self) -> f64 {
        match self {
            ReferencePort::Driver(s) => s.vdd,
            ReferencePort::Receiver(s) => s.vdd,
        }
    }

    /// Device name of the reference.
    pub fn name(&self) -> &str {
        match self {
            ReferencePort::Driver(s) => s.name,
            ReferencePort::Receiver(s) => s.name,
        }
    }
}

/// Runs the transistor-level reference and *any* macromodel backend against
/// the same [`TestFixture`] and compares pad voltages — the backend-generic
/// core of the validation harness.
///
/// Driver references require `stim` (the bit pattern the port produces);
/// receiver references take their excitation from the fixture itself.
///
/// # Errors
///
/// Propagates simulation failures from either run; a driver reference
/// without a stimulus is [`Error::InvalidModel`].
pub fn validate_macromodel(
    reference: &ReferencePort,
    model: &dyn Macromodel,
    fixture: &TestFixture,
    stim: Option<&PortStimulus>,
    dt: f64,
    t_stop: f64,
    threshold: f64,
) -> Result<DriverValidation> {
    let ref_wave = match reference {
        ReferencePort::Driver(spec) => {
            let stim = stim.ok_or_else(|| Error::InvalidModel {
                message: format!(
                    "validating driver reference '{}' needs a PortStimulus",
                    spec.name
                ),
            })?;
            capture_driver(
                spec,
                spec.pattern(&stim.pattern, stim.bit_time),
                |ckt, pad| {
                    fixture.install(ckt, pad);
                    Ok(())
                },
                dt,
                t_stop,
            )?
            .voltage
        }
        ReferencePort::Receiver(spec) => {
            capture_receiver(
                spec,
                |ckt, pad| {
                    fixture.install(ckt, pad);
                    Ok(())
                },
                dt,
                t_stop,
            )?
            .voltage
        }
    };
    let model_wave = model.simulate_on_load(fixture, stim, dt, t_stop)?;
    let metrics = ValidationMetrics::between(&model_wave, &ref_wave, threshold);
    Ok(DriverValidation {
        reference: ref_wave,
        model: model_wave,
        metrics,
    })
}

/// Per-experiment accuracy summary row (EXPERIMENTS.md bookkeeping).
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Experiment label (e.g. "fig1", "fig4-active").
    pub label: String,
    /// Metrics of the PW-RBF (or receiver parametric) model.
    pub metrics: ValidationMetrics,
}

impl std::fmt::Display for AccuracyRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<16} rms = {:.4} V, max = {:.4} V, timing = {}",
            self.label,
            self.metrics.rms_error,
            self.metrics.max_error,
            match self.metrics.timing_error {
                Some(te) => format!("{:.1} ps", te * 1e12),
                None => "n/a".to_string(),
            }
        )
    }
}

/// Helper for figure binaries: prints aligned CSV rows of several waveforms
/// on the time axis of the first.
pub fn print_csv(header: &[&str], waveforms: &[&Waveform]) {
    println!("{}", header.join(","));
    if waveforms.is_empty() {
        return;
    }
    let t_axis = waveforms[0].times();
    for (idx, &t) in t_axis.iter().enumerate() {
        let mut row = Vec::with_capacity(waveforms.len() + 1);
        row.push(format!("{:.6e}", t));
        for w in waveforms {
            let v = if std::ptr::eq(*w, waveforms[0]) {
                w.values()[idx]
            } else {
                w.sample_at(t)
            };
            row.push(format!("{:.6e}", v));
        }
        println!("{}", row.join(","));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_between_identical_waveforms() {
        let t: Vec<f64> = (0..100).map(|k| k as f64 * 1e-11).collect();
        let y: Vec<f64> = t.iter().map(|&x| (x * 1e10).tanh()).collect();
        let w = Waveform::from_parts(t, y);
        let m = ValidationMetrics::between(&w, &w, 0.5);
        assert_eq!(m.rms_error, 0.0);
        assert_eq!(m.max_error, 0.0);
        assert_eq!(m.timing_error, Some(0.0));
        assert_eq!(m.threshold, 0.5);
    }

    #[test]
    fn accuracy_row_display() {
        let row = AccuracyRow {
            label: "fig1".into(),
            metrics: ValidationMetrics {
                rms_error: 0.01,
                max_error: 0.05,
                timing_error: Some(5e-12),
                threshold: 1.65,
            },
        };
        let s = row.to_string();
        assert!(s.contains("fig1"));
        assert!(s.contains("5.0 ps"));
        let row = AccuracyRow {
            label: "x".into(),
            metrics: ValidationMetrics {
                rms_error: 0.0,
                max_error: 0.0,
                timing_error: None,
                threshold: 0.0,
            },
        };
        assert!(row.to_string().contains("n/a"));
    }
}
