//! Property-based tests of the identification machinery.

use numkit::rng::SplitMix64;
use numkit::Matrix;
use proptest::prelude::*;
use sysid::arx::{ArxModel, ArxOrders};
use sysid::lanes::LaneRing;
use sysid::narx::{NarxModel, NarxOrders, RbfTrainConfig};
use sysid::ols::{self, OlsSelection, OlsStop};
use sysid::rbf::RbfNetwork;
use sysid::signals;

fn rand_narx(s: &mut SplitMix64, r: usize, n_centers: usize) -> NarxModel {
    let orders = NarxOrders::dynamic(r);
    let dim = orders.dim();
    let centers: Vec<Vec<f64>> = (0..n_centers)
        .map(|_| (0..dim).map(|_| s.range(-1.0, 2.5)).collect())
        .collect();
    let widths: Vec<f64> = (0..n_centers).map(|_| s.range(0.3, 1.8)).collect();
    let weights: Vec<f64> = (0..n_centers).map(|_| s.range(-0.05, 0.05)).collect();
    let linear: Vec<f64> = (0..dim).map(|_| s.range(-0.3, 0.3)).collect();
    let net = RbfNetwork::from_parts(dim, centers, widths, weights, s.range(-0.01, 0.01), linear)
        .unwrap();
    NarxModel::from_network(orders, net).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ARX estimation is consistent: data generated by a stable ARX system
    /// is recovered to numerical precision, for random stable poles.
    #[test]
    fn arx_identification_consistent(
        p1 in -0.9f64..0.9,
        p2 in -0.9f64..0.9,
        b0 in 0.2f64..2.0,
        b1 in -1.0f64..1.0,
    ) {
        // Poles p1, p2 -> a1 = p1 + p2, a2 = -p1 p2.
        let a = vec![p1 + p2, -p1 * p2];
        let b = vec![b0, b1];
        let truth = ArxModel::from_coefficients(ArxOrders { na: 2, nb: 1 }, a.clone(), b.clone())
            .unwrap();
        let u: Vec<f64> = (0..500)
            .map(|k| (0.13 * k as f64).sin() + 0.7 * (0.041 * k as f64 + 1.0).cos())
            .collect();
        let y = truth.simulate(&u);
        let est = ArxModel::fit(&u, &y, ArxOrders { na: 2, nb: 1 }).unwrap();
        for (e, t) in est.a().iter().zip(&a) {
            prop_assert!((e - t).abs() < 1e-6, "a: {} vs {}", e, t);
        }
        for (e, t) in est.b().iter().zip(&b) {
            prop_assert!((e - t).abs() < 1e-6, "b: {} vs {}", e, t);
        }
    }

    /// The spectral radius estimate brackets stability correctly for known
    /// first-order poles.
    #[test]
    fn spectral_radius_first_order(pole in -1.5f64..1.5) {
        let m = ArxModel::from_coefficients(
            ArxOrders { na: 1, nb: 0 },
            vec![pole],
            vec![1.0],
        ).unwrap();
        let r = m.spectral_radius();
        prop_assert!((r - pole.abs()).abs() < 1e-6, "radius {} vs |pole| {}", r, pole.abs());
    }

    /// NARX fitting of a static nonlinearity: the model reproduces the
    /// function on fresh inputs within a small NMSE for random smooth maps.
    #[test]
    fn narx_static_map_generalizes(a in 0.5f64..2.0, c in -1.0f64..1.0) {
        let f = |v: f64| a * (v - c).tanh() * 0.1;
        let u = signals::multilevel(-2.0, 2.0, 40, 12, 3, 7);
        let y: Vec<f64> = u.iter().map(|&v| f(v)).collect();
        let model = NarxModel::fit(
            &u,
            &y,
            NarxOrders { input_lags: 0, output_lags: 0 },
            RbfTrainConfig::default(),
        ).unwrap();
        // Fresh evaluation grid.
        let mut worst = 0.0_f64;
        for k in 0..40 {
            let v = -1.8 + 3.6 * k as f64 / 39.0;
            let pred = model.one_step(&[v], &[]);
            worst = worst.max((pred - f(v)).abs());
        }
        prop_assert!(worst < 0.02 * 0.1 * a + 5e-4, "worst error {}", worst);
    }

    /// Multilevel signals honour their configured range for any seed.
    #[test]
    fn multilevel_respects_range(seed in any::<u64>(), lo in -3.0f64..0.0, span in 0.5f64..4.0) {
        let hi = lo + span;
        let s = signals::multilevel(lo, hi, 20, 16, 4, seed);
        for v in &s {
            prop_assert!(*v >= lo - 1e-9 && *v <= hi + 1e-9);
        }
        // Extremes visited (first two levels are pinned to lo/hi).
        let min = s.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((min - lo).abs() < 1e-9 && (max - hi).abs() < 1e-9);
    }

    /// A multi-lane [`NarxModel::step_lanes`] free-run reproduces the scalar
    /// [`NarxModel::simulate`] path ≤ 1e-15 for random models, lane counts
    /// (including counts that do not divide any SIMD batch width), and
    /// per-lane input sequences.
    #[test]
    fn flat_narx_free_run_matches_simulate(
        seed in any::<u64>(),
        r in 1usize..3,
        n_centers in 1usize..6,
        n_lanes in 1usize..10,
    ) {
        let mut s = SplitMix64::new(seed);
        let model = rand_narx(&mut s, r, n_centers);
        let steps = 60;
        let u: Vec<Vec<f64>> = (0..n_lanes)
            .map(|_| (0..steps).map(|_| s.range(-1.0, 2.0)).collect())
            .collect();
        // Scalar reference: per-lane free-run with zero initial history.
        let reference: Vec<Vec<f64>> = u.iter().map(|ul| model.simulate(ul, &[])).collect();

        let o = model.orders();
        let start = o.start();
        let mut u_past = LaneRing::new(o.input_lags, n_lanes);
        let mut y_past = LaneRing::new(o.output_lags, n_lanes);
        let mut x = vec![0.0; o.dim() * n_lanes];
        let mut d2 = vec![0.0; n_lanes];
        let mut y = vec![0.0; n_lanes];
        let mut g = vec![0.0; n_lanes];
        let mut u_now = vec![0.0; n_lanes];
        for k in 0..steps {
            for (l, ul) in u.iter().enumerate() {
                u_now[l] = ul[k];
            }
            if k < start {
                // simulate() takes these samples from y_init (zeros here).
                y.fill(0.0);
            } else {
                model.gather_lanes(&u_now, &u_past, &y_past, &mut x);
                model.step_lanes(&x, n_lanes, &mut d2, &mut y, &mut g);
            }
            for (l, refl) in reference.iter().enumerate() {
                let e = (y[l] - refl[k]).abs();
                prop_assert!(
                    e <= 1e-15 * refl[k].abs().max(1.0),
                    "lane {l} step {k}: {} vs {}", y[l], refl[k]
                );
            }
            u_past.push_row(&u_now);
            y_past.push_row(&y);
        }
    }

    /// A multi-lane [`ArxModel::step_lanes`] free-run reproduces the scalar
    /// [`ArxModel::simulate`] path (zero-padded implicit histories) ≤ 1e-15.
    #[test]
    fn flat_arx_free_run_matches_simulate(
        seed in any::<u64>(),
        na in 0usize..4,
        nb in 0usize..4,
        n_lanes in 1usize..10,
    ) {
        let mut s = SplitMix64::new(seed);
        // Σ|a| < 0.9: the free-run stays bounded over the window.
        let a: Vec<f64> = (0..na).map(|_| s.range(-0.3, 0.3)).collect();
        let b: Vec<f64> = (0..=nb).map(|_| s.range(-0.5, 0.5)).collect();
        let model = ArxModel::from_coefficients(ArxOrders { na, nb }, a, b).unwrap();
        let steps = 60;
        let u: Vec<Vec<f64>> = (0..n_lanes)
            .map(|_| (0..steps).map(|_| s.range(-1.5, 1.5)).collect())
            .collect();
        let reference: Vec<Vec<f64>> = u.iter().map(|ul| model.simulate(ul)).collect();

        let mut u_past = LaneRing::new(nb, n_lanes);
        let mut y_past = LaneRing::new(na, n_lanes);
        let mut y = vec![0.0; n_lanes];
        let mut u_now = vec![0.0; n_lanes];
        for k in 0..steps {
            for (l, ul) in u.iter().enumerate() {
                u_now[l] = ul[k];
            }
            model.step_lanes(&u_now, &u_past, &y_past, &mut y);
            for (l, refl) in reference.iter().enumerate() {
                let e = (y[l] - refl[k]).abs();
                prop_assert!(
                    e <= 1e-15 * refl[k].abs().max(1.0),
                    "lane {l} step {k}: {} vs {}", y[l], refl[k]
                );
            }
            u_past.push_row(&u_now);
            y_past.push_row(&y);
        }
    }
}

/// Forward selection as `ols::select` computed it over a dense row-major
/// candidate matrix: an owned copy of every column and one sequential dot
/// product per statistic. The oracle for the slab and its four-wide kernel.
fn select_reference(p: &Matrix, y: &[f64], stop: OlsStop) -> OlsSelection {
    let (n, m) = (p.rows(), p.cols());
    let yty: f64 = y.iter().map(|v| v * v).sum();
    if yty == 0.0 {
        return OlsSelection {
            selected: Vec::new(),
            err: Vec::new(),
            residual_ratio: 0.0,
        };
    }
    let dot = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
    let cols: Vec<Vec<f64>> = (0..m)
        .map(|c| (0..n).map(|r| p.get(r, c)).collect())
        .collect();
    let mut wty: Vec<f64> = cols.iter().map(|c| dot(c, y)).collect();
    let mut wtw: Vec<f64> = cols.iter().map(|c| dot(c, c)).collect();
    let mut available = vec![true; m];
    let mut basis: Vec<Vec<f64>> = Vec::new();
    let mut basis_wtw: Vec<f64> = Vec::new();
    let (mut selected, mut errs, mut explained) = (Vec::new(), Vec::new(), 0.0);
    let max_terms = stop.max_terms.min(m).min(n);
    while selected.len() < max_terms {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..m {
            if !available[i] || wtw[i] < 1e-20 {
                continue;
            }
            let err = wty[i] * wty[i] / (wtw[i] * yty);
            if best.is_none_or(|(_, e)| err > e) {
                best = Some((i, err));
            }
        }
        let Some((idx, _)) = best else {
            break;
        };
        available[idx] = false;
        let mut w_sel = cols[idx].clone();
        for (wj, &wjw) in basis.iter().zip(&basis_wtw) {
            let proj = dot(wj, &w_sel) / wjw;
            for (wv, bj) in w_sel.iter_mut().zip(wj) {
                *wv -= proj * bj;
            }
        }
        let wtw_sel = dot(&w_sel, &w_sel);
        if wtw_sel < 1e-20 {
            wtw[idx] = 0.0;
            continue;
        }
        let wty_sel = dot(&w_sel, y);
        let err = wty_sel * wty_sel / (wtw_sel * yty);
        explained += err;
        selected.push(idx);
        errs.push(err);
        if 1.0 - explained < stop.tolerance {
            break;
        }
        for i in 0..m {
            if !available[i] || wtw[i] < 1e-20 {
                continue;
            }
            let proj = dot(&w_sel, &cols[i]) / wtw_sel;
            wty[i] -= proj * wty_sel;
            wtw[i] = (wtw[i] - proj * proj * wtw_sel).max(0.0);
        }
        basis.push(w_sel);
        basis_wtw.push(wtw_sel);
    }
    OlsSelection {
        selected,
        err: errs,
        residual_ratio: (1.0 - explained).max(0.0),
    }
}

/// One seeded candidate set: `m` columns over `n` rows mixing dense,
/// Gaussian-bump (far field left at `+0.0`), signed-zero-riddled,
/// all-zero and duplicated columns.
fn rand_candidates(s: &mut SplitMix64, n: usize, m: usize) -> Matrix {
    let mut p = Matrix::zeros(n, m);
    for c in 0..m {
        match s.below(5) {
            0 => (0..n).for_each(|r| p.set(r, c, s.range(-2.0, 2.0))),
            1 => {
                let (center, w) = (s.range(0.0, n as f64), s.range(0.5, 6.0));
                for r in 0..n {
                    let arg = (r as f64 - center).powi(2) / (2.0 * w * w);
                    if arg < 46.0 {
                        p.set(r, c, (-arg).exp());
                    }
                }
            }
            2 => (0..n).for_each(|r| {
                let v = match s.below(3) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => s.range(-1.0, 1.0),
                };
                p.set(r, c, v);
            }),
            3 => (0..n).for_each(|r| p.set(r, c, if s.below(2) == 0 { 0.0 } else { -0.0 })),
            _ if c > 0 => {
                let src = s.below(c);
                (0..n).for_each(|r| p.set(r, c, p.get(r, src)));
            }
            _ => {}
        }
    }
    p
}

/// `ols::select` over the column-major slab, with its four-wide kernel,
/// reproduces the sequential row-major selection bit for bit: the same
/// indices, the same error ratios and the same residual, for candidate
/// counts of every residue mod 4, signed zeros, zero and duplicated
/// columns, tolerance stops and `max_terms` at or beyond the count.
#[test]
fn ols_select_matches_sequential_reference_bitwise() {
    let mut s = SplitMix64::new(0x0150_1ec7);
    let (mut early_stops, mut saturated) = (0, 0);
    for case in 0..96 {
        let n = 1 + s.below(48);
        let m = match 4 * s.below(6) + case % 4 {
            0 => 4,
            m => m,
        };
        let p = rand_candidates(&mut s, n, m);
        let y: Vec<f64> = match s.below(3) {
            // Dense noise: selection runs to max_terms.
            0 => (0..n).map(|_| s.range(-1.0, 1.0)).collect(),
            // A combination of a few candidates plus a little noise.
            1 => {
                let picks: Vec<(usize, f64)> =
                    (0..3).map(|_| (s.below(m), s.range(-2.0, 2.0))).collect();
                (0..n)
                    .map(|r| {
                        let v: f64 = picks.iter().map(|&(c, a)| a * p.get(r, c)).sum();
                        v + 1e-4 * s.range(-1.0, 1.0)
                    })
                    .collect()
            }
            // Exactly one candidate (possibly an all-zero one).
            _ => {
                let c = s.below(m);
                (0..n).map(|r| p.get(r, c)).collect()
            }
        };
        let stop = OlsStop {
            max_terms: [1, m / 2 + 1, m, m + 3][s.below(4)],
            tolerance: [0.0, 1e-12, 1e-3, 1e-1][s.below(4)],
        };
        let slab: Vec<f64> = (0..m)
            .flat_map(|c| (0..n).map(move |r| (r, c)))
            .map(|(r, c)| p.get(r, c))
            .collect();
        let got = ols::select(&slab, n, &y, stop).unwrap();
        let want = select_reference(&p, &y, stop);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.selected, want.selected, "case {case}: n {n} m {m}");
        assert_eq!(bits(&got.err), bits(&want.err), "case {case}");
        assert_eq!(
            got.residual_ratio.to_bits(),
            want.residual_ratio.to_bits(),
            "case {case}"
        );
        if want.selected.len() < stop.max_terms.min(m).min(n)
            && want.residual_ratio < stop.tolerance
        {
            early_stops += 1;
        }
        if stop.max_terms >= m {
            saturated += 1;
        }
    }
    assert!(
        early_stops > 0 && saturated > 0,
        "{early_stops} {saturated}"
    );
}

/// A selection over a slab large enough that `ols::select` splits its
/// column dot products across workers (600 rows × 480 candidates, about
/// 2.9e5 multiply-adds per pass), pinned to the bits recorded before the
/// split existed and checked against the sequential reference.
#[test]
fn ols_select_above_split_threshold_golden() {
    let mut s = SplitMix64::new(0x5b11_7ed0);
    let (n, m) = (600, 480);
    let p = rand_candidates(&mut s, n, m);
    let y: Vec<f64> = (0..n)
        .map(|r| {
            let t = r as f64 * 0.01;
            t.sin() + 0.5 * (3.0 * t).cos() * p.get(r, 7) + 1e-3 * s.range(-1.0, 1.0)
        })
        .collect();
    let slab: Vec<f64> = (0..m)
        .flat_map(|c| (0..n).map(move |r| (r, c)))
        .map(|(r, c)| p.get(r, c))
        .collect();
    let stop = OlsStop {
        max_terms: 40,
        tolerance: 0.0,
    };
    let got = ols::select(&slab, n, &y, stop).unwrap();
    let want = select_reference(&p, &y, stop);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(got.selected, want.selected);
    assert_eq!(bits(&got.err), bits(&want.err));
    assert_eq!(got.residual_ratio.to_bits(), want.residual_ratio.to_bits());
    let digest = got
        .selected
        .iter()
        .map(|&i| i as u64)
        .chain(got.err.iter().map(|e| e.to_bits()))
        .chain([got.residual_ratio.to_bits()])
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, x| {
            (h ^ x).wrapping_mul(0x0100_0000_01b3)
        });
    assert_eq!(got.selected.len(), 40);
    assert_eq!(digest, 0x5c34_fff2_24a5_03d8);
}
