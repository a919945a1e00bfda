//! The linearity contract behind the port-partitioned transient path: a
//! device is linear (`is_nonlinear() == false`) iff, for a fixed mode and
//! step, its matrix contribution depends on neither the candidate solution
//! `x` nor the time `t`, and, at a fixed mode and accepted state, its
//! right-hand side does not depend on `x`. The transient freezes linear
//! devices' matrix into one factorization and stamps their right-hand side
//! once per step, so every linear device in `circuit::devices` must stamp
//! bit-identical matrix values at any two `(x, t)` — even after its history
//! state has moved on — and a bit-identical right-hand side at any two `x`
//! within one step.
//!
//! Where the linear matrix is already in place, the solver stamps only the
//! right-hand side, through `Device::stamp_rhs`. Its contract is checked
//! here too: the same `rhs_add` calls as `stamp`, in the same order and
//! with the same bits, and no matrix writes.

use circuit::devices::{
    Capacitor, CoupledInductors, CurrentSource, Diode, DiodeParams, IdealLine, Inductor, Resistor,
    SourceWaveform, VoltageSource,
};
use circuit::{Device, EvalCtx, Mode, Node, StampWorkspace, GROUND};
use numkit::Matrix;

/// Two nodes plus up to three branch unknowns.
const N_NODES: usize = 3;
const N: usize = 5;
const BRANCH: usize = N_NODES - 1;
const DT: f64 = 1e-11;

fn node(i: usize) -> Node {
    Node::from_raw(i)
}

/// Matrix and right-hand side `dev` stamps at `(x, t)`.
fn stamp(dev: &dyn Device, x: &[f64], t: f64) -> (Vec<u64>, Vec<f64>) {
    let mut ws = StampWorkspace::dense(N);
    let ctx = EvalCtx {
        x,
        n_nodes: N_NODES,
        mode: Mode::Tran { t, dt: DT },
    };
    dev.stamp(&ctx, &mut ws);
    let matrix = (0..N * N)
        .map(|k| ws.value_at(k / N, k % N).to_bits())
        .collect();
    (matrix, ws.rhs().to_vec())
}

const X1: [f64; N] = [0.3, -0.2, 1e-3, -2e-3, 4e-4];
const X2: [f64; N] = [1.7, 0.9, -5e-3, 3e-3, -1e-3];

/// Wires `dev` into the test system and initializes its state from a DC
/// solution.
fn init(dev: &mut dyn Device) {
    dev.set_branch_base(BRANCH);
    dev.init_state(&EvalCtx {
        x: &X1,
        n_nodes: N_NODES,
        mode: Mode::Dc,
    });
}

/// Stamps at one `(x, t)`, advances the device's history with a different
/// solution, and stamps again at another `(x, t)`. Returns whether the
/// matrix and the right-hand side changed.
fn matrix_and_rhs_change(dev: &mut dyn Device) -> (bool, bool) {
    init(dev);
    let (m1, r1) = stamp(dev, &X1, 3.0 * DT);
    dev.accept_step(&EvalCtx {
        x: &X2,
        n_nodes: N_NODES,
        mode: Mode::Tran {
            t: 3.0 * DT,
            dt: DT,
        },
    });
    let (m2, r2) = stamp(dev, &X2, 40.0 * DT);
    (m1 != m2, r1 != r2)
}

/// Stamps twice within one step (same `(t, dt)`, same accepted state) at
/// the two iterates `X1` and `X2`. Returns whether the right-hand side
/// changed in any bit.
fn rhs_moves_with_the_iterate(dev: &mut dyn Device) -> bool {
    init(dev);
    let bits = |rhs: Vec<f64>| rhs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let (_, r1) = stamp(dev, &X1, 5.0 * DT);
    let (_, r2) = stamp(dev, &X2, 5.0 * DT);
    bits(r1) != bits(r2)
}

fn linear_devices() -> Vec<Box<dyn Device>> {
    let ramp = SourceWaveform::step(0.0, 1.0, 1e-10);
    vec![
        Box::new(Resistor::new("r", node(1), node(2), 50.0)),
        Box::new(Capacitor::new("c", node(1), node(2), 1e-12)),
        Box::new(Inductor::new("l", node(1), node(2), 1e-9)),
        Box::new(CoupledInductors::new(
            "k",
            vec![node(1), node(2)],
            vec![GROUND, GROUND],
            Matrix::from_rows(&[&[1e-9, 2e-10], &[2e-10, 1e-9]]).unwrap(),
        )),
        Box::new(IdealLine::new(
            "t",
            node(1),
            GROUND,
            node(2),
            GROUND,
            50.0,
            2e-10,
        )),
        Box::new(VoltageSource::new("v", node(1), GROUND, ramp.clone())),
        Box::new(CurrentSource::new("i", node(1), node(2), ramp)),
    ]
}

#[test]
fn linear_devices_stamp_a_constant_matrix() {
    for mut dev in linear_devices() {
        assert!(
            !dev.is_nonlinear(),
            "{} must declare itself linear",
            dev.label()
        );
        let (matrix_changed, _) = matrix_and_rhs_change(dev.as_mut());
        assert!(
            !matrix_changed,
            "{}: matrix values moved with (x, t) at a fixed dt",
            dev.label()
        );
    }
}

#[test]
fn history_and_time_reach_the_right_hand_side() {
    // The contract is about the matrix only: the right-hand side carries
    // sources and companion history, and the test above must not pass
    // merely because nothing varied between the two stamps.
    for mut dev in linear_devices() {
        if dev.label() == "r" {
            continue; // a resistor has no right-hand side at all
        }
        let (_, rhs_changed) = matrix_and_rhs_change(dev.as_mut());
        assert!(rhs_changed, "{}: right-hand side did not vary", dev.label());
    }
}

#[test]
fn linear_devices_stamp_an_iterate_independent_rhs() {
    for mut dev in linear_devices() {
        assert!(
            !rhs_moves_with_the_iterate(dev.as_mut()),
            "{}: right-hand side moved with x within one step",
            dev.label()
        );
    }
}

#[test]
fn a_nonlinear_device_fails_the_same_check() {
    let mut d = Diode::new("d", node(1), node(2), DiodeParams::default());
    assert!(d.is_nonlinear());
    let (matrix_changed, _) = matrix_and_rhs_change(&mut d);
    assert!(
        matrix_changed,
        "the check must detect an x-dependent matrix"
    );
    assert!(
        rhs_moves_with_the_iterate(&mut d),
        "the check must detect an x-dependent right-hand side"
    );
}

/// Every linear device above, plus coupled banks of order 1 and 3 (the list
/// holds one of order 2).
fn rhs_devices() -> Vec<Box<dyn Device>> {
    let bank = |order: usize| {
        let l = (0..order * order)
            .map(|k| match (k / order, k % order) {
                (j, m) if j == m => 1e-9 * (1.0 + j as f64 / 7.0),
                (j, m) => 1.3e-10 / (1.0 + (j + m) as f64),
            })
            .collect();
        let l = Matrix::from_vec(order, order, l).unwrap();
        let a = [node(1), node(2), node(1)];
        let b = [GROUND, node(1), node(2)];
        CoupledInductors::new(
            format!("k{order}"),
            a[..order].to_vec(),
            b[..order].to_vec(),
            l,
        )
    };
    let mut devices = linear_devices();
    devices.push(Box::new(bank(1)));
    devices.push(Box::new(bank(3)));
    devices
}

/// Right-hand-side bits left by `stamp` (or by `stamp_rhs`, when
/// `rhs_only`) at `(x, mode)` on a dense workspace whose right-hand side
/// starts non-zero, so that a change of addition order within a row shows;
/// plus whether the matrix stayed zero.
fn rhs_after(dev: &dyn Device, x: &[f64], mode: Mode, rhs_only: bool) -> (Vec<u64>, bool) {
    let mut ws = StampWorkspace::dense(N);
    for r in 0..N {
        ws.rhs_add(r, (r as f64 + 2.0).sqrt() / 7.0);
    }
    let ctx = EvalCtx {
        x,
        n_nodes: N_NODES,
        mode,
    };
    if rhs_only {
        dev.stamp_rhs(&ctx, &mut ws);
    } else {
        dev.stamp(&ctx, &mut ws);
    }
    let matrix_zero = (0..N * N).all(|k| ws.value_at(k / N, k % N) == 0.0);
    (ws.rhs().iter().map(|v| v.to_bits()).collect(), matrix_zero)
}

/// Checks the `stamp_rhs` contract of `dev` in its present state, at DC
/// and at two transient times.
fn assert_rhs_contract(dev: &dyn Device, state: &str) {
    let modes = [
        Mode::Dc,
        Mode::Tran {
            t: 5.0 * DT,
            dt: DT,
        },
        Mode::Tran {
            t: 40.0 * DT,
            dt: DT,
        },
    ];
    for mode in modes {
        let (full, _) = rhs_after(dev, &X2, mode, false);
        let (rhs, matrix_zero) = rhs_after(dev, &X2, mode, true);
        assert_eq!(
            rhs,
            full,
            "{} {state} at {mode:?}: stamp_rhs differs from stamp",
            dev.label()
        );
        assert!(
            matrix_zero,
            "{} {state} at {mode:?}: stamp_rhs wrote the matrix",
            dev.label()
        );
    }
}

#[test]
fn stamp_rhs_is_the_right_hand_side_of_stamp() {
    for mut dev in rhs_devices() {
        init(dev.as_mut());
        assert_rhs_contract(dev.as_ref(), "after init_state");
        dev.accept_step(&EvalCtx {
            x: &X2,
            n_nodes: N_NODES,
            mode: Mode::Tran {
                t: 3.0 * DT,
                dt: DT,
            },
        });
        assert_rhs_contract(dev.as_ref(), "after accept_step");
    }
}
