//! Sampled waveforms and signal-integrity measurements.

use numkit::interp;

/// A sampled real-valued waveform `y(t)` on a strictly increasing time axis.
///
/// Waveforms are the lingua franca between the simulator, the identification
/// code and the validation metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    t: Vec<f64>,
    y: Vec<f64>,
}

impl Waveform {
    /// Builds a waveform from parallel time/value vectors.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ (internal construction error).
    pub fn from_parts(t: Vec<f64>, y: Vec<f64>) -> Self {
        assert_eq!(t.len(), y.len(), "time and value lengths differ");
        Waveform { t, y }
    }

    /// An empty waveform.
    pub fn empty() -> Self {
        Waveform {
            t: Vec::new(),
            y: Vec::new(),
        }
    }

    /// Time axis.
    pub fn times(&self) -> &[f64] {
        &self.t
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.y
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Whether the waveform has no samples.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Linear interpolation at time `t` (clamped outside the range).
    pub fn sample_at(&self, t: f64) -> f64 {
        interp::lerp_at(&self.t, &self.y, t)
    }

    /// Returns the sub-waveform on `[t0, t1]` (inclusive of samples inside).
    pub fn window(&self, t0: f64, t1: f64) -> Waveform {
        let mut t = Vec::new();
        let mut y = Vec::new();
        for (tk, yk) in self.t.iter().zip(&self.y) {
            if *tk >= t0 && *tk <= t1 {
                t.push(*tk);
                y.push(*yk);
            }
        }
        Waveform { t, y }
    }

    /// Applies a function to every sample, returning a new waveform.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Waveform {
        Waveform {
            t: self.t.clone(),
            y: self.y.iter().map(|&v| f(v)).collect(),
        }
    }

    /// All times at which the waveform crosses `threshold`, found by linear
    /// interpolation between adjacent samples. Each crossing is annotated
    /// with its direction.
    pub fn threshold_crossings(&self, threshold: f64) -> Vec<Crossing> {
        let mut out = Vec::new();
        for k in 1..self.t.len() {
            let (y0, y1) = (self.y[k - 1], self.y[k]);
            let below0 = y0 < threshold;
            let below1 = y1 < threshold;
            if below0 != below1 {
                let frac = (threshold - y0) / (y1 - y0);
                let t = self.t[k - 1] + frac * (self.t[k] - self.t[k - 1]);
                out.push(Crossing {
                    time: t,
                    rising: below0,
                });
            }
        }
        out
    }
}

/// A threshold crossing event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// Interpolated crossing time (seconds).
    pub time: f64,
    /// `true` for a rising crossing (below → above).
    pub rising: bool,
}

/// Maximum timing error between two waveforms measured at the crossings of
/// `threshold`: each crossing of `a` is matched to the nearest same-direction
/// crossing of `b` and the largest |Δt| is returned.
///
/// This is the accuracy metric of the paper's Section 5 ("timing errors ...
/// measured at the crossing of a suitable voltage threshold").
///
/// Returns `None` when either waveform has no crossing of the threshold.
pub fn timing_error(a: &Waveform, b: &Waveform, threshold: f64) -> Option<f64> {
    let ca = a.threshold_crossings(threshold);
    let cb = b.threshold_crossings(threshold);
    if ca.is_empty() || cb.is_empty() {
        return None;
    }
    let mut worst = 0.0_f64;
    for xa in &ca {
        let best = cb
            .iter()
            .filter(|xb| xb.rising == xa.rising)
            .map(|xb| (xb.time - xa.time).abs())
            .fold(f64::INFINITY, f64::min);
        if best.is_finite() {
            worst = worst.max(best);
        }
    }
    if worst == 0.0 && ca.len() != cb.len() {
        // Different crossing counts with zero matched error still means the
        // waveforms disagree; report the mismatch conservatively.
        return Some(f64::INFINITY);
    }
    Some(worst)
}

/// Root-mean-square difference between two waveforms compared on the time
/// axis of `a` (values of `b` are interpolated).
pub fn rms_difference(a: &Waveform, b: &Waveform) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let ss: f64 = a
        .times()
        .iter()
        .zip(a.values())
        .map(|(&t, &ya)| {
            let yb = b.sample_at(t);
            (ya - yb) * (ya - yb)
        })
        .sum();
    (ss / a.len() as f64).sqrt()
}

/// Maximum absolute difference between two waveforms on the axis of `a`.
pub fn max_difference(a: &Waveform, b: &Waveform) -> f64 {
    a.times()
        .iter()
        .zip(a.values())
        .map(|(&t, &ya)| (ya - b.sample_at(t)).abs())
        .fold(0.0_f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Waveform {
        let t: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let y = t.clone();
        Waveform::from_parts(t, y)
    }

    #[test]
    fn basic_accessors() {
        let w = ramp();
        assert_eq!(w.len(), 11);
        assert!(!w.is_empty());
        assert!(Waveform::empty().is_empty());
        assert_eq!(w.sample_at(2.5), 2.5);
        assert_eq!(w.sample_at(-1.0), 0.0);
        assert_eq!(w.sample_at(99.0), 10.0);
    }

    #[test]
    fn window_and_map() {
        let w = ramp();
        let sub = w.window(2.0, 4.0);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.values(), &[2.0, 3.0, 4.0]);
        let neg = w.map(|v| -v);
        assert_eq!(neg.values()[10], -10.0);
    }

    #[test]
    fn crossings_rising_falling() {
        let t: Vec<f64> = (0..=4).map(|i| i as f64).collect();
        let y = vec![0.0, 1.0, 0.0, 1.0, 0.0];
        let w = Waveform::from_parts(t, y);
        let c = w.threshold_crossings(0.5);
        assert_eq!(c.len(), 4);
        assert!(c[0].rising && !c[1].rising && c[2].rising && !c[3].rising);
        assert!((c[0].time - 0.5).abs() < 1e-12);
        assert!((c[1].time - 1.5).abs() < 1e-12);
    }

    #[test]
    fn timing_error_of_shifted_copy() {
        let t: Vec<f64> = (0..200).map(|i| i as f64 * 0.01).collect();
        let y: Vec<f64> = t.iter().map(|&x| ((x - 0.5) * 10.0).tanh()).collect();
        let a = Waveform::from_parts(t.clone(), y);
        let y2: Vec<f64> = t.iter().map(|&x| ((x - 0.53) * 10.0).tanh()).collect();
        let b = Waveform::from_parts(t, y2);
        let te = timing_error(&a, &b, 0.0).unwrap();
        assert!((te - 0.03).abs() < 1e-3, "timing error {te}");
    }

    #[test]
    fn timing_error_none_without_crossings() {
        let w = ramp();
        let flat = w.map(|_| 0.0);
        assert!(timing_error(&flat, &w, 100.0).is_none());
    }

    #[test]
    fn rms_and_max_difference() {
        let a = ramp();
        let b = a.map(|v| v + 1.0);
        assert!((rms_difference(&a, &b) - 1.0).abs() < 1e-12);
        assert!((max_difference(&a, &b) - 1.0).abs() < 1e-12);
        assert_eq!(rms_difference(&Waveform::empty(), &a), 0.0);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn from_parts_checks_lengths() {
        Waveform::from_parts(vec![0.0], vec![]);
    }
}
