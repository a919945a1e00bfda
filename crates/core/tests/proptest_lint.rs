//! Property-based coverage of the static diagnostic engine
//! ([`macromodel::lint`]): randomly generated *healthy* models — stable
//! feedback polynomials built from roots inside the unit disc, well-spread
//! RBF centers, in-range switching weights — must lint clean, and seeding a
//! single defect (a pole outside the unit circle) must trip exactly the
//! documented code.

use macromodel::driver::{PwRbfDriverModel, WeightSequence};
use macromodel::exchange::AnyModel;
use macromodel::lint::{lint_model, lint_model_full};
use macromodel::receiver::ReceiverModel;
use numkit::rng::SplitMix64;
use proptest::prelude::*;
use sysid::arx::{ArxModel, ArxOrders};
use sysid::narx::{NarxModel, NarxOrders};
use sysid::rbf::RbfNetwork;

/// Monic polynomial with the given real roots, as the coefficient list
/// `[1, c1, ..., cn]` of `z^n + c1 z^(n-1) + ... + cn`.
fn poly_from_roots(roots: &[f64]) -> Vec<f64> {
    let mut coeffs = vec![1.0];
    for &r in roots {
        coeffs.push(0.0);
        for i in (1..coeffs.len()).rev() {
            coeffs[i] -= r * coeffs[i - 1];
        }
    }
    coeffs
}

/// ARX model whose characteristic polynomial has exactly these roots:
/// `y(k) = sum a_i y(k-i) + b_0 u(k)` with `a_i = -c_i`.
fn arx_with_roots(roots: &[f64]) -> ArxModel {
    let coeffs = poly_from_roots(roots);
    let a: Vec<f64> = coeffs[1..].iter().map(|c| -c).collect();
    let orders = ArxOrders { na: a.len(), nb: 1 };
    ArxModel::from_coefficients(orders, a, vec![0.1, -0.05]).unwrap()
}

fn stable_narx(s: &mut SplitMix64, r: usize) -> NarxModel {
    let orders = NarxOrders::dynamic(r);
    // Input-side weights free, output-feedback tail well inside stability:
    // a single small coefficient per lag keeps the Jury margin comfortable.
    let mut linear = Vec::with_capacity(orders.dim());
    for _ in 0..orders.input_lags + 1 {
        linear.push(s.range(-0.05, 0.05));
    }
    for _ in 0..orders.output_lags {
        linear.push(s.range(-0.3, 0.3) / orders.output_lags as f64);
    }
    NarxModel::from_network(orders, RbfNetwork::affine(s.range(-0.01, 0.01), linear)).unwrap()
}

/// Driver submodel with centers spread across the full supply range, so
/// coverage and spacing rules stay quiet.
fn covered_narx(s: &mut SplitMix64, r: usize, vdd: f64, n_centers: usize) -> NarxModel {
    let orders = NarxOrders::dynamic(r);
    let dim = orders.dim();
    let mut centers = Vec::with_capacity(n_centers);
    for i in 0..n_centers {
        let mut c = vec![vdd * i as f64 / (n_centers - 1) as f64];
        for _ in 1..dim {
            c.push(s.range(-0.5, 0.5));
        }
        centers.push(c);
    }
    let widths = (0..n_centers).map(|_| s.range(0.3, 1.0)).collect();
    let weights = (0..n_centers).map(|_| s.range(-0.01, 0.01)).collect();
    let mut linear = vec![0.0; dim];
    linear[0] = s.range(0.005, 0.02);
    let net = RbfNetwork::from_parts(dim, centers, widths, weights, 0.0, linear).unwrap();
    NarxModel::from_network(orders, net).unwrap()
}

fn weight_ramp(s: &mut SplitMix64, n: usize, rising: bool) -> WeightSequence {
    let mut w_high = Vec::with_capacity(n);
    let mut w_low = Vec::with_capacity(n);
    for k in 0..n {
        let frac = k as f64 / (n - 1) as f64;
        let w = if rising { frac } else { 1.0 - frac };
        // Modest in-range jitter keeps the sequences physical.
        let jitter = s.range(-0.05, 0.05);
        w_high.push((w + jitter).clamp(0.0, 1.0));
        w_low.push((1.0 - w + jitter).clamp(0.0, 1.0));
    }
    WeightSequence::new(w_high, w_low).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Receivers whose linear core has all poles strictly inside the unit
    /// disc, with gently-fed-back protection submodels, produce zero
    /// findings — semantic and structural rules both.
    #[test]
    fn healthy_receivers_lint_clean(
        seed in any::<u64>(),
        na in 1usize..5,
        r in 1usize..3,
    ) {
        let mut s = SplitMix64::new(seed);
        let roots: Vec<f64> = (0..na).map(|_| s.range(-0.85, 0.85)).collect();
        let model = ReceiverModel {
            name: "rx".into(),
            ts: 25e-12,
            vdd: 1.8,
            linear: arx_with_roots(&roots),
            up: stable_narx(&mut s, r),
            down: stable_narx(&mut s, r),
        };
        prop_assert!(model.validate().is_ok());
        let diags = lint_model_full(&AnyModel::Receiver(model));
        prop_assert!(diags.is_empty(), "unexpected findings: {diags:?}");
    }

    /// One pole pushed outside the unit circle trips M001 — and nothing
    /// else, for any placement of the remaining (stable) poles.
    #[test]
    fn unstable_pole_trips_m001(
        seed in any::<u64>(),
        na in 1usize..4,
        bad_mag in 0usize..2,
    ) {
        let mut s = SplitMix64::new(seed);
        let mut roots: Vec<f64> = (0..na).map(|_| s.range(-0.8, 0.8)).collect();
        let bad = s.range(1.05, 1.5) * if bad_mag == 0 { 1.0 } else { -1.0 };
        roots.push(bad);
        let model = ReceiverModel {
            name: "rx".into(),
            ts: 25e-12,
            vdd: 1.8,
            linear: arx_with_roots(&roots),
            up: stable_narx(&mut s, 1),
            down: stable_narx(&mut s, 1),
        };
        let diags = lint_model(&AnyModel::Receiver(model));
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        prop_assert_eq!(codes, vec!["M001"]);
    }

    /// Random healthy drivers — full-range center coverage, distinct
    /// centers, in-range ramped weights, stable tails — lint clean through
    /// the full rule pack including the fixture structural audit.
    #[test]
    fn healthy_drivers_lint_clean(
        seed in any::<u64>(),
        r in 1usize..3,
        n_centers in 2usize..6,
        window in 2usize..8,
    ) {
        let mut s = SplitMix64::new(seed);
        let vdd = if s.next_f64() < 0.5 { 1.8 } else { 3.3 };
        let model = PwRbfDriverModel {
            name: "drv".into(),
            ts: 25e-12,
            vdd,
            i_high: covered_narx(&mut s, r, vdd, n_centers),
            i_low: covered_narx(&mut s, r, vdd, n_centers),
            up: weight_ramp(&mut s, window, true),
            down: weight_ramp(&mut s, window, false),
        };
        prop_assert!(model.validate().is_ok());
        let diags = lint_model_full(&AnyModel::PwRbfDriver(model));
        prop_assert!(diags.is_empty(), "unexpected findings: {diags:?}");
    }
}
