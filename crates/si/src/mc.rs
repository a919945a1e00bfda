//! Monte-Carlo sweep plans and statistical pass gates.
//!
//! Fleet-scale acceptance should rest on population statistics with
//! explicit thresholds, not on a single golden trace. [`McPlan`] turns a
//! `u64` seed and a set of parameter ranges into a deterministic
//! Latin-hypercube trial list: each parameter column is drawn with
//! [`sysid::signals::stratified_samples`] (one draw per equal-width
//! stratum, shuffled) under an independently derived seed, so `N` trials
//! cover every stratum of every parameter — plain uniform draws can
//! cluster and leave corners untested. [`McSummary`] reduces the per-trial
//! eye metrics to the aggregates a gate consumes: minimum/quantile eye
//! height, quantile jitter, closed-eye count.
//!
//! Everything downstream of the seed is bit-reproducible: same seed, same
//! trials, same aggregates.

use numkit::rng::SplitMix64;
use numkit::stats::percentile_nearest_rank;
use sysid::signals::stratified_samples;

use crate::eye::EyeMetrics;

/// Derives stream-independent child seeds from one master seed: the first
/// draw of a SplitMix64 stream offset by `stream` times an odd constant.
fn mix(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed.wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))).next_u64()
}

/// One swept parameter: a named uniform range.
#[derive(Debug, Clone)]
pub struct McParam {
    /// Stable parameter name (report key).
    pub name: String,
    /// Lower range edge.
    pub lo: f64,
    /// Upper range edge.
    pub hi: f64,
}

impl McParam {
    /// A parameter spanning `[lo, hi]`.
    pub fn new(name: impl Into<String>, lo: f64, hi: f64) -> Self {
        McParam {
            name: name.into(),
            lo,
            hi,
        }
    }
}

/// One sampled trial: the parameter values plus a derived per-trial seed
/// for any further stochastic choice (the trial's PRBS seed).
#[derive(Debug, Clone)]
pub struct McTrial {
    /// Trial index in `[0, trials)`.
    pub index: usize,
    /// Per-trial child seed, derived deterministically from the master.
    pub seed: u64,
    /// Sampled value per plan parameter, in plan order.
    pub values: Vec<f64>,
}

impl McTrial {
    /// The sampled value of the parameter named `name`, if the plan
    /// carries it.
    pub fn value(&self, plan: &McPlan, name: &str) -> Option<f64> {
        plan.params
            .iter()
            .position(|p| p.name == name)
            .map(|i| self.values[i])
    }
}

/// A deterministic Monte-Carlo sweep plan.
#[derive(Debug, Clone)]
pub struct McPlan {
    /// Trials to run.
    pub trials: usize,
    /// Master seed; every stochastic choice derives from it.
    pub seed: u64,
    /// Swept parameters.
    pub params: Vec<McParam>,
}

impl McPlan {
    /// A plan of `trials` trials over `params`, seeded by `seed`.
    pub fn new(trials: usize, seed: u64, params: Vec<McParam>) -> Self {
        McPlan {
            trials,
            seed,
            params,
        }
    }

    /// Samples the trial list: a Latin hypercube with one stratified,
    /// independently shuffled column per parameter.
    ///
    /// # Panics
    ///
    /// Panics when the plan is degenerate (zero trials, or a parameter
    /// with `hi <= lo`) — plan misconfiguration is a programming error in
    /// the workload definition.
    pub fn sample(&self) -> Vec<McTrial> {
        assert!(self.trials > 0, "trial count must be positive");
        let columns: Vec<Vec<f64>> = self
            .params
            .iter()
            .enumerate()
            .map(|(k, p)| stratified_samples(p.lo, p.hi, self.trials, mix(self.seed, k as u64)))
            .collect();
        (0..self.trials)
            .map(|i| McTrial {
                index: i,
                seed: mix(self.seed, 0x5eed_0000 + i as u64),
                values: columns.iter().map(|col| col[i]).collect(),
            })
            .collect()
    }
}

/// Statistical pass gates over a Monte-Carlo population.
#[derive(Debug, Clone, Copy)]
pub struct McGates {
    /// Every trial's eye height must reach this (V).
    pub min_eye_height: f64,
    /// The `jitter_quantile`-quantile of peak-to-peak jitter must stay
    /// below this (s); `f64::INFINITY` disables the bound.
    pub max_jitter_pp_s: f64,
    /// Quantile at which the jitter bound is enforced.
    pub jitter_quantile: f64,
}

impl Default for McGates {
    /// The standard gate: every eye ≥ 0.1 V open, 95th-percentile
    /// peak-to-peak jitter under half a nanosecond.
    fn default() -> Self {
        McGates {
            min_eye_height: 0.1,
            max_jitter_pp_s: 0.5e-9,
            jitter_quantile: 0.95,
        }
    }
}

/// Aggregate outcome of a Monte-Carlo sweep.
#[derive(Debug, Clone, Copy)]
pub struct McSummary {
    /// Trials aggregated.
    pub trials: usize,
    /// Master seed of the sweep.
    pub seed: u64,
    /// Trials whose eye never opened.
    pub closed_eyes: usize,
    /// Worst (minimum) eye height over the population (V).
    pub eye_height_min: f64,
    /// Mean eye height (V).
    pub eye_height_mean: f64,
    /// 5th-percentile eye height (V) — the statistical floor.
    pub eye_height_q05: f64,
    /// Worst (minimum) eye width (UI).
    pub eye_width_min_ui: f64,
    /// Jitter at the gate quantile (s).
    pub jitter_pp_q_s: f64,
    /// Worst peak-to-peak jitter (s).
    pub jitter_pp_max_s: f64,
    /// Whether the population passed every gate.
    pub pass: bool,
}

impl McSummary {
    /// Reduces per-trial eye metrics under `gates`.
    ///
    /// An empty population fails: a sweep that produced no trials cannot
    /// certify anything.
    pub fn from_metrics(metrics: &[EyeMetrics], gates: &McGates, seed: u64) -> Self {
        if metrics.is_empty() {
            return McSummary {
                trials: 0,
                seed,
                closed_eyes: 0,
                eye_height_min: 0.0,
                eye_height_mean: 0.0,
                eye_height_q05: 0.0,
                eye_width_min_ui: 0.0,
                jitter_pp_q_s: 0.0,
                jitter_pp_max_s: 0.0,
                pass: false,
            };
        }
        let closed_eyes = metrics.iter().filter(|m| !m.open).count();
        let mut heights: Vec<f64> = metrics.iter().map(|m| m.eye_height).collect();
        let mut jitters: Vec<f64> = metrics.iter().map(|m| m.jitter_pp_s).collect();
        heights.sort_by(f64::total_cmp);
        jitters.sort_by(f64::total_cmp);
        let eye_height_min = heights[0];
        let eye_height_mean = heights.iter().sum::<f64>() / heights.len() as f64;
        let eye_height_q05 = percentile_nearest_rank(&heights, 0.05);
        let eye_width_min_ui = metrics
            .iter()
            .map(|m| m.eye_width_ui)
            .fold(f64::INFINITY, f64::min);
        let jitter_pp_q_s = percentile_nearest_rank(&jitters, gates.jitter_quantile);
        let jitter_pp_max_s = jitters[jitters.len() - 1];
        let pass = closed_eyes == 0
            && eye_height_min >= gates.min_eye_height
            && jitter_pp_q_s <= gates.max_jitter_pp_s;
        McSummary {
            trials: metrics.len(),
            seed,
            closed_eyes,
            eye_height_min,
            eye_height_mean,
            eye_height_q05,
            eye_width_min_ui,
            jitter_pp_q_s,
            jitter_pp_max_s,
            pass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> McPlan {
        McPlan::new(
            16,
            0xfeed,
            vec![
                McParam::new("load_cap", 1e-12, 6e-12),
                McParam::new("coupling", 0.5, 1.5),
            ],
        )
    }

    #[test]
    fn sampling_is_a_reproducible_latin_hypercube() {
        let a = plan().sample();
        let b = plan().sample();
        assert_eq!(a.len(), 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.values, y.values);
        }
        // Different master seed, different trials.
        let mut other = plan();
        other.seed = 0xfeee;
        assert_ne!(a[0].values, other.sample()[0].values);
        // Every stratum of every parameter is covered.
        for (k, p) in plan().params.iter().enumerate() {
            let width = (p.hi - p.lo) / 16.0;
            for s in 0..16 {
                let (lo, hi) = (p.lo + s as f64 * width, p.lo + (s + 1) as f64 * width);
                assert!(
                    a.iter().any(|t| t.values[k] >= lo && t.values[k] <= hi),
                    "param {} stratum {s} empty",
                    p.name
                );
            }
        }
        // Per-trial seeds are distinct streams.
        let mut seeds: Vec<u64> = a.iter().map(|t| t.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 16);
    }

    /// The per-parameter and per-trial child seeds, pinned bit for bit:
    /// the reproducibility test above cannot notice a drifted derivation.
    #[test]
    fn child_seeds_match_golden_values() {
        let p = McPlan::new(
            5,
            0xfeed,
            vec![
                McParam::new("a", 0.0, 1.0),
                McParam::new("b", -1.0, 1.0),
                McParam::new("c", 2.0, 3.0),
            ],
        );
        let param_seeds = [0x3365e73ff6c1e17b, 0x9c9b58477462d369, 0x4804e06d59cf6830];
        let trials = p.sample();
        for (k, (param, &seed)) in p.params.iter().zip(&param_seeds).enumerate() {
            assert_eq!(mix(p.seed, k as u64), seed, "param {k}");
            let column: Vec<f64> = trials.iter().map(|t| t.values[k]).collect();
            assert_eq!(column, stratified_samples(param.lo, param.hi, 5, seed));
        }
        let trial_seeds: Vec<u64> = trials.iter().take(3).map(|t| t.seed).collect();
        assert_eq!(
            trial_seeds,
            [0x0c9bf74139e6dbc7, 0xb2257585d824787c, 0xe362f405ae7ceab7]
        );
    }

    #[test]
    fn trial_value_lookup_by_name() {
        let p = plan();
        let trials = p.sample();
        let v = trials[3].value(&p, "coupling").unwrap();
        assert!((0.5..=1.5).contains(&v));
        assert!(trials[3].value(&p, "missing").is_none());
    }

    fn open_eye(height: f64, jitter: f64) -> EyeMetrics {
        EyeMetrics {
            open: true,
            eye_height: height,
            eye_width_ui: 0.9,
            jitter_pp_s: jitter,
            jitter_rms_s: jitter / 4.0,
            overshoot: 0.0,
            undershoot: 0.0,
            v_high: 1.0,
            v_low: 0.0,
            crossings: 50,
            samples: 1000,
        }
    }

    #[test]
    fn summary_gates_on_min_height_and_quantile_jitter() {
        let gates = McGates {
            min_eye_height: 0.4,
            max_jitter_pp_s: 100e-12,
            jitter_quantile: 0.95,
        };
        let healthy: Vec<EyeMetrics> = (0..20).map(|_| open_eye(0.8, 20e-12)).collect();
        let s = McSummary::from_metrics(&healthy, &gates, 7);
        assert!(s.pass);
        assert_eq!(s.trials, 20);
        assert_eq!(s.closed_eyes, 0);
        assert!((s.eye_height_min - 0.8).abs() < 1e-12);

        // One marginal trial under the height gate fails the population.
        let mut weak = healthy.clone();
        weak[7] = open_eye(0.2, 20e-12);
        let s = McSummary::from_metrics(&weak, &gates, 7);
        assert!(!s.pass);
        assert!((s.eye_height_min - 0.2).abs() < 1e-12);

        // A single jitter outlier beyond the 95th percentile is tolerated…
        let mut outlier = healthy.clone();
        outlier[3] = open_eye(0.8, 500e-12);
        let s = McSummary::from_metrics(&outlier, &gates, 7);
        assert!(s.pass, "q95 jitter {} s", s.jitter_pp_q_s);
        assert!((s.jitter_pp_max_s - 500e-12).abs() < 1e-15);

        // …but a population-wide jitter shift is not.
        let shifted: Vec<EyeMetrics> = (0..20).map(|_| open_eye(0.8, 200e-12)).collect();
        assert!(!McSummary::from_metrics(&shifted, &gates, 7).pass);

        // Closed eyes always fail.
        let mut dead = healthy;
        dead[0].open = false;
        assert!(!McSummary::from_metrics(&dead, &gates, 7).pass);
        assert_eq!(McSummary::from_metrics(&dead, &gates, 7).closed_eyes, 1);
    }

    #[test]
    fn empty_population_fails() {
        assert!(!McSummary::from_metrics(&[], &McGates::default(), 0).pass);
    }
}
