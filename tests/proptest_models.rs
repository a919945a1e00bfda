//! Property-based tests on macromodel invariants that must hold for *any*
//! model the estimation pipeline can produce.

use macromodel::driver::{estimate_switching_weights, WeightSequence};
use proptest::prelude::*;
use sysid::narx::{NarxModel, NarxOrders};
use sysid::rbf::RbfNetwork;

fn smooth_weights(n: usize) -> (Vec<f64>, Vec<f64>) {
    let wh: Vec<f64> = (0..n)
        .map(|k| {
            let x = k as f64 / (n - 1) as f64;
            x * x * (3.0 - 2.0 * x) // smoothstep
        })
        .collect();
    let wl = wh.iter().map(|w| 1.0 - w).collect();
    (wh, wl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Weight inversion recovers arbitrary smooth weight trajectories from
    /// synthetic two-load data whenever the loads are independent.
    #[test]
    fn weight_inversion_recovers(
        n in 8usize..40,
        amp_a in 0.01f64..0.1,
        amp_b in 0.01f64..0.1,
        phase in 0.0f64..3.0,
    ) {
        let (wh, wl) = smooth_weights(n);
        let i_h_a: Vec<f64> = (0..n).map(|k| amp_a * (0.3 * k as f64 + phase).sin() + 0.05).collect();
        let i_l_a: Vec<f64> = (0..n).map(|k| -amp_a * (0.2 * k as f64).cos() - 0.04).collect();
        let i_h_b: Vec<f64> = (0..n).map(|k| amp_b * (0.15 * k as f64).cos() + 0.07).collect();
        let i_l_b: Vec<f64> = (0..n).map(|k| -amp_b * (0.4 * k as f64 + phase).sin() - 0.06).collect();
        let meas_a: Vec<f64> = (0..n).map(|k| wh[k] * i_h_a[k] + wl[k] * i_l_a[k]).collect();
        let meas_b: Vec<f64> = (0..n).map(|k| wh[k] * i_h_b[k] + wl[k] * i_l_b[k]).collect();
        let w = estimate_switching_weights(
            &i_h_a, &i_l_a, &meas_a, &i_h_b, &i_l_b, &meas_b,
            ((0.0, 1.0), (1.0, 0.0)),
        ).unwrap();
        for k in 1..n - 1 {
            // Interior samples recovered when the 2x2 system is well posed;
            // regularized samples fall back within the clamp range.
            prop_assert!(w.w_high()[k] >= -0.25 && w.w_high()[k] <= 1.25);
            let det = i_h_a[k] * i_l_b[k] - i_l_a[k] * i_h_b[k];
            let scale = i_h_a[k].abs().max(i_l_a[k].abs()).max(i_h_b[k].abs()).max(i_l_b[k].abs());
            if det.abs() > 1e-3 * scale * scale {
                prop_assert!((w.w_high()[k] - wh[k]).abs() < 1e-6,
                    "k={}: {} vs {}", k, w.w_high()[k], wh[k]);
            }
        }
    }

    /// Weight lookup clamps to the window and stays within physical bounds.
    #[test]
    fn weight_sequence_lookup_total(n in 1usize..50, k in 0usize..200) {
        let (wh, wl) = if n == 1 {
            (vec![1.0], vec![0.0])
        } else {
            smooth_weights(n)
        };
        let seq = WeightSequence::new(wh, wl).unwrap();
        let (a, b) = seq.at(k);
        prop_assert!((0.0..=1.0).contains(&a));
        prop_assert!((0.0..=1.0).contains(&b));
    }

    /// NARX free-run output of a contraction-stable affine model is bounded
    /// for bounded inputs (no surprise divergence in the device wrapper).
    #[test]
    fn narx_affine_free_run_bounded(
        gain in -0.9f64..0.9,
        b0 in -1.0f64..1.0,
        u_amp in 0.0f64..2.0,
    ) {
        let net = RbfNetwork::affine(0.0, vec![b0, 0.0, gain]);
        let model = NarxModel::from_network(NarxOrders::dynamic(1), net).unwrap();
        let u: Vec<f64> = (0..200).map(|k| u_amp * (0.1 * k as f64).sin()).collect();
        let y = model.simulate(&u, &[0.0]);
        let bound = (b0.abs() * u_amp + 1e-9) / (1.0 - gain.abs()) + 1.0;
        for v in y {
            prop_assert!(v.abs() <= bound, "output {} exceeds bound {}", v, bound);
        }
    }

    /// The RBF gradient is consistent with finite differences for random
    /// small networks (the Newton Jacobian of every macromodel device).
    #[test]
    fn rbf_gradient_consistency(
        c1 in -2.0f64..2.0,
        c2 in -2.0f64..2.0,
        w1 in -1.0f64..1.0,
        w2 in -1.0f64..1.0,
        width in 0.1f64..2.0,
        x in -3.0f64..3.0,
    ) {
        let net = RbfNetwork::from_parts(
            1,
            vec![vec![c1], vec![c2]],
            vec![width, width * 0.5],
            vec![w1, w2],
            0.3,
            vec![0.7],
        ).unwrap();
        let h = 1e-6;
        let fd = (net.eval(&[x + h]) - net.eval(&[x - h])) / (2.0 * h);
        let an = net.eval_grad0(&[x]).1;
        prop_assert!((fd - an).abs() < 1e-5 * (1.0 + an.abs()), "fd {} vs {}", fd, an);
    }
}
