//! Newton–Raphson solver and DC operating point with gmin stepping.
//!
//! All solves run through a persistent [`StampWorkspace`]: the stamp pattern
//! and the LU symbolic structure are computed once per circuit and reused
//! across Newton iterations, timesteps, and (for sweep harnesses) entire
//! analyses. A transient may additionally freeze its linear part once;
//! Newton iterations then solve only the port Schur complement (see
//! [`crate::workspace`]).

use crate::mna::{EvalCtx, Mode};
use crate::netlist::Circuit;
use crate::workspace::{PortFallback, StampWorkspace};
use crate::{Error, Result};

/// Absolute voltage convergence tolerance (volts).
const VNTOL: f64 = 1e-6;
/// Absolute current convergence tolerance (amperes), used for branch unknowns.
const ABSTOL: f64 = 1e-9;
/// Relative convergence tolerance.
const RELTOL: f64 = 1e-3;
/// Maximum Newton iterations per solve.
const MAX_ITER: usize = 200;
/// Per-iteration clamp on node-voltage updates (volts); damps MOSFET chains.
const MAX_DV: f64 = 1.0;

/// Result of a Newton solve, with iteration diagnostics.
#[derive(Debug, Clone)]
pub struct NewtonOutcome {
    /// Converged solution vector.
    pub x: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
    /// Sparse factorizations performed during this solve: one per iteration
    /// on the full path, none on the port path (whose interior factor is
    /// computed once per transient).
    pub factorizations: usize,
}

/// Solves the nonlinear MNA system at the given mode by Newton iteration.
///
/// `x0` is the initial guess (length must equal `circuit.unknown_count()`).
/// `gmin` is added from every node to ground for numerical robustness.
/// `ws` is the persistent solver workspace built by
/// [`Circuit::make_workspace`]; reusing one workspace across calls is what
/// caches the symbolic LU structure. Every call stamps the whole netlist
/// afresh, so the caller may change devices between calls.
///
/// # Errors
///
/// * [`Error::NonConvergence`] when iterations are exhausted.
/// * [`Error::SingularMatrix`] when the Jacobian cannot be factored.
/// * [`Error::SampleClock`] when a transient `mode`'s `dt` differs from a
///   device's sample clock.
pub fn solve_newton(
    circuit: &Circuit,
    mode: Mode,
    x0: &[f64],
    gmin: f64,
    analysis: &str,
    ws: &mut StampWorkspace,
) -> Result<NewtonOutcome> {
    if let Mode::Tran { dt, .. } = mode {
        circuit.check_sample_clocks(dt)?;
    }
    ws.forget_prefix();
    solve_step(circuit, mode, x0, gmin, analysis, ws)
}

/// [`solve_newton`] for one step of a transient: keeps the linear prefix's
/// matrix that an earlier step of the same analysis saved (see
/// [`crate::workspace`]), since no device changes between its steps.
pub(crate) fn solve_step(
    circuit: &Circuit,
    mode: Mode,
    x0: &[f64],
    gmin: f64,
    analysis: &str,
    ws: &mut StampWorkspace,
) -> Result<NewtonOutcome> {
    let n = circuit.unknown_count();
    let n_v = circuit.n_nodes() - 1;
    debug_assert_eq!(x0.len(), n);
    debug_assert_eq!(ws.n(), n);
    let mut x = x0.to_vec();
    let fac_before = ws.stats().factorizations;
    // Whether this solve's step has been reduced to the ports.
    let mut step_reduced = false;
    // Whether this solve saved the prefix's right-hand side.
    let mut prefix_saved = false;
    let (prefix, rest) = circuit.devices().split_at(circuit.linear_prefix());

    for it in 0..MAX_ITER {
        let ctx = EvalCtx {
            x: &x,
            n_nodes: circuit.n_nodes(),
            mode,
        };
        let on_ports = ws.on_ports(mode, gmin) && {
            let solved = port_iteration(circuit, &ctx, !step_reduced, ws);
            step_reduced = solved.is_ok();
            solved.map_err(|reason| ws.leave_ports(reason)).is_ok()
        };
        if !on_ports {
            // The prefix stamps the same values on every iteration of this
            // solve: stamp it once, then restore the snapshot. When an
            // earlier step saved its matrix values at this `dt`, only its
            // right-hand side is stamped again.
            if !(prefix_saved && ws.restore_prefix()) {
                if ws.begin_prefix(mode, gmin) {
                    for dev in prefix {
                        dev.stamp_rhs(&ctx, ws);
                    }
                } else {
                    // gmin from every node to ground.
                    for i in 0..n_v {
                        ws.add(i, i, gmin);
                    }
                    for dev in prefix {
                        dev.stamp(&ctx, ws);
                    }
                }
                prefix_saved = ws.save_prefix(mode, gmin);
            }
            for dev in rest {
                dev.stamp(&ctx, ws);
            }
            ws.solve().map_err(|_| Error::SingularMatrix {
                analysis: analysis.to_string(),
            })?;
        }
        let x_new = ws.solution();

        // Damped update: clamp the largest node-voltage change.
        let mut max_dv = 0.0_f64;
        for i in 0..n_v {
            max_dv = max_dv.max((x_new[i] - x[i]).abs());
        }
        let alpha = if max_dv > MAX_DV {
            MAX_DV / max_dv
        } else {
            1.0
        };

        let mut converged = alpha == 1.0;
        for i in 0..n {
            let dx = x_new[i] - x[i];
            let tol = if i < n_v {
                VNTOL + RELTOL * x_new[i].abs()
            } else {
                ABSTOL + RELTOL * x_new[i].abs()
            };
            if dx.abs() > tol {
                converged = false;
            }
            x[i] += alpha * dx;
        }
        if converged {
            return Ok(NewtonOutcome {
                x,
                iterations: it + 1,
                factorizations: ws.stats().factorizations - fac_before,
            });
        }
    }
    Err(Error::NonConvergence {
        analysis: analysis.to_string(),
        time: mode.time(),
        iterations: MAX_ITER,
    })
}

/// One Newton iteration on the port path. A linear device's right-hand side
/// does not depend on the iterate (the contract of
/// [`crate::Device::is_nonlinear`]), so the linear devices stamp their
/// right-hand side, and the interior is swept, only on a step's first
/// iteration (`first`); their matrix is already in the frozen factor. Every
/// iteration stamps the nonlinear devices into the port system and solves
/// it.
fn port_iteration(
    circuit: &Circuit,
    ctx: &EvalCtx<'_>,
    first: bool,
    ws: &mut StampWorkspace,
) -> std::result::Result<(), PortFallback> {
    if first {
        ws.begin_port_step();
        for dev in circuit.linear_devices() {
            dev.stamp_rhs(ctx, ws);
        }
        ws.finish_port_step()?;
    }
    ws.begin_ports();
    for dev in circuit.nonlinear_devices() {
        dev.stamp(ctx, ws);
    }
    ws.solve_ports()
}

/// Moves the rest of a transient onto the port-partitioned path when the
/// flop counts favor it over `steps` timesteps (see
/// [`StampWorkspace`]'s module docs): stamps the linear devices and gmin at
/// `mode`, then factors the interior and forms the port Schur complement.
///
/// Returns whether the path was entered.
///
/// # Errors
///
/// [`PortFallback::SingularInterior`] when the interior cannot be factored.
/// This does not fail the transient: it stays on the full path, and the
/// workspace counts the fallback.
pub(crate) fn enter_port_path(
    circuit: &Circuit,
    mode: Mode,
    x: &[f64],
    gmin: f64,
    steps: usize,
    ws: &mut StampWorkspace,
) -> std::result::Result<bool, PortFallback> {
    let Mode::Tran { dt, .. } = mode else {
        return Ok(false);
    };
    if !ws.ports_pay_off(steps) {
        return Ok(false);
    }
    ws.begin();
    for i in 0..circuit.n_nodes() - 1 {
        ws.add(i, i, gmin);
    }
    let ctx = EvalCtx {
        x,
        n_nodes: circuit.n_nodes(),
        mode,
    };
    for dev in circuit.linear_devices() {
        dev.stamp(&ctx, ws);
    }
    ws.freeze_linear(dt, gmin)?;
    Ok(true)
}

/// Computes the DC operating point with gmin stepping.
///
/// First tries a direct Newton solve at the circuit's gmin. On failure,
/// starts from a heavily damped system (`gmin = 1e-2`) and relaxes it decade
/// by decade, reusing each solution as the next initial guess.
///
/// # Errors
///
/// * [`Error::NonConvergence`] if even the stepped continuation fails.
/// * [`Error::SingularMatrix`] for structurally singular circuits.
pub fn dc_operating_point(circuit: &mut Circuit) -> Result<Vec<f64>> {
    let mut ws = circuit.make_workspace();
    dc_operating_point_ws(circuit, &mut ws, None)
}

/// [`dc_operating_point`] against a caller-held workspace, optionally
/// warm-started from a previous solution (`x0`).
///
/// Sweep harnesses use this to change one source value between solves while
/// keeping the cached stamp pattern and LU structure, and to start each
/// point's Newton iteration from the neighboring point's solution (voltage
/// continuation). A failed warm start falls back to the cold-start gmin
/// stepping path.
///
/// # Errors
///
/// Same failure modes as [`dc_operating_point`].
pub fn dc_operating_point_ws(
    circuit: &mut Circuit,
    ws: &mut StampWorkspace,
    x0: Option<&[f64]>,
) -> Result<Vec<f64>> {
    circuit.finalize();
    let n = circuit.unknown_count();
    if n == 0 {
        return Err(Error::InvalidAnalysis {
            message: "circuit has no unknowns (add nodes and devices first)".into(),
        });
    }
    let target_gmin = circuit.gmin();
    let start = match x0 {
        Some(prev) => prev.to_vec(),
        None => vec![0.0; n],
    };

    match solve_newton(
        circuit,
        Mode::Dc,
        &start,
        target_gmin,
        "dc operating point",
        ws,
    ) {
        Ok(out) => return Ok(out.x),
        Err(Error::SingularMatrix { .. }) => {
            return Err(Error::SingularMatrix {
                analysis: "dc operating point".into(),
            })
        }
        Err(_) => { /* fall through to gmin stepping */ }
    }

    let mut x = vec![0.0; n];
    let mut gmin = 1e-2;
    loop {
        let out = solve_newton(circuit, Mode::Dc, &x, gmin, "dc gmin stepping", ws)?;
        x = out.x;
        if gmin <= target_gmin {
            return Ok(x);
        }
        gmin = (gmin * 0.1).max(target_gmin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{
        CurrentSource, Diode, DiodeParams, Resistor, SourceWaveform, VoltageSource,
    };
    use crate::netlist::GROUND;

    #[test]
    fn resistive_divider_dc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(VoltageSource::new("v", a, GROUND, SourceWaveform::dc(3.0)));
        ckt.add(Resistor::new("r1", a, b, 1e3));
        ckt.add(Resistor::new("r2", b, GROUND, 2e3));
        let x = ckt.dc_operating_point().unwrap();
        assert!((x[0] - 3.0).abs() < 1e-9);
        assert!((x[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(CurrentSource::new("i", GROUND, a, SourceWaveform::dc(1e-3)));
        ckt.add(Resistor::new("r", a, GROUND, 1e3));
        let x = ckt.dc_operating_point().unwrap();
        assert!((x[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn diode_forward_drop() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(VoltageSource::new("v", a, GROUND, SourceWaveform::dc(5.0)));
        ckt.add(Resistor::new("r", a, b, 1e3));
        ckt.add(Diode::new("d", b, GROUND, DiodeParams::default()));
        let x = ckt.dc_operating_point().unwrap();
        let vd = x[1];
        assert!(vd > 0.4 && vd < 0.9, "diode drop {vd} out of range");
        // Current through R must equal diode current.
        let ir = (5.0 - vd) / 1e3;
        assert!(ir > 3e-3 && ir < 5e-3);
    }

    #[test]
    fn floating_node_held_by_gmin() {
        // A node connected only through a capacitor would be floating at DC;
        // gmin keeps the matrix solvable and pins it near ground.
        use crate::devices::Capacitor;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(VoltageSource::new("v", a, GROUND, SourceWaveform::dc(1.0)));
        ckt.add(Capacitor::new("c", a, b, 1e-12));
        let x = ckt.dc_operating_point().unwrap();
        assert!(x[1].abs() < 1e-6);
    }

    /// A 12-section RC ladder with a diode to ground at node 6; `clamp`
    /// also puts a DC source straight across that node.
    fn diode_ladder(clamp: bool) -> Circuit {
        use crate::devices::Capacitor;
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        ckt.add(VoltageSource::new(
            "vs",
            src,
            GROUND,
            SourceWaveform::dc(1.0),
        ));
        let mut prev = src;
        for k in 0..12 {
            let n = ckt.node(format!("n{k}"));
            ckt.add(Resistor::new(format!("r{k}"), prev, n, 20.0));
            ckt.add(Capacitor::new(format!("c{k}"), n, GROUND, 1e-12));
            if k == 6 {
                ckt.add(Diode::new("d", n, GROUND, DiodeParams::default()));
                if clamp {
                    ckt.add(VoltageSource::new("vc", n, GROUND, SourceWaveform::dc(0.4)));
                }
            }
            prev = n;
        }
        ckt
    }

    /// Enters the port path for the first transient step after the DC
    /// operating point.
    fn try_port_path(
        ckt: &mut Circuit,
    ) -> (std::result::Result<bool, PortFallback>, StampWorkspace) {
        let mut ws = ckt.make_workspace();
        let x = ckt.dc_operating_point_ws(&mut ws, None).unwrap();
        let mode = Mode::Tran {
            t: 1e-11,
            dt: 1e-11,
        };
        let entered = enter_port_path(ckt, mode, &x, ckt.gmin(), 300, &mut ws);
        (entered, ws)
    }

    #[test]
    fn port_path_entered_on_a_regular_interior() {
        let (entered, ws) = try_port_path(&mut diode_ladder(false));
        assert_eq!(entered, Ok(true));
        assert_eq!(ws.stats().interior_factorizations, 1);
        assert_eq!(ws.stats().port_fallbacks, 0);
    }

    #[test]
    fn source_across_a_port_is_a_typed_singular_interior() {
        // The clamp's branch row couples only to the port node, so the
        // interior block has an empty row.
        let (entered, ws) = try_port_path(&mut diode_ladder(true));
        assert_eq!(entered, Err(PortFallback::SingularInterior));
        assert_eq!(ws.stats().interior_factorizations, 0);
        assert_eq!(ws.stats().port_fallbacks, 1);
    }

    #[test]
    fn stray_port_writes_are_typed() {
        // Unknown 0 is the source node (interior), 7 the diode's node (a
        // port).
        let (entered, mut ws) = try_port_path(&mut diode_ladder(false));
        assert_eq!(entered, Ok(true));
        ws.begin_ports();
        ws.add(7, 7, 1.0);
        ws.rhs_add(7, 1.0);
        ws.rhs_add(0, 1.0);
        assert_eq!(ws.solve_ports(), Err(PortFallback::StrayWrite));
        ws.begin_ports();
        ws.add(7, 0, 1.0);
        assert_eq!(ws.solve_ports(), Err(PortFallback::StrayWrite));
    }

    /// FNV-1a over the little-endian bit patterns of `values`.
    fn fnv1a_bits<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        }
        hash
    }

    /// Digest of every stored solution of a 300-step transient, plus its
    /// Newton iteration count; asserts the run stayed on the full path.
    fn full_path_transient(ckt: &mut Circuit, params: crate::TranParams) -> (u64, usize) {
        let res = ckt.transient(params).unwrap();
        assert_eq!(res.solve_stats.port_solves, 0, "{:?}", res.solve_stats);
        let digest = fnv1a_bits((0..res.len()).flat_map(|k| res.solution(k)));
        (digest, res.total_newton_iterations)
    }

    // Bit-level goldens of the full Newton path. Its stamping and
    // refactorization may skip work whose inputs did not change, but every
    // iterate must keep the exact bits of a from-scratch evaluation.

    #[test]
    fn full_path_golden_clamped_ladder() {
        // The clamp makes the interior singular, so the port path is
        // refused and every step restamps and refactors the full system.
        // Starting discharged makes the early steps take several iterations.
        let params = crate::TranParams::new(1e-11, 3e-9).with_skip_dc();
        let (digest, iterations) = full_path_transient(&mut diode_ladder(true), params);
        assert_eq!(
            (digest, iterations),
            (0x39bb_c3c7_64de_7e61, 600),
            "{digest:#018x}"
        );
    }

    #[test]
    fn full_path_golden_nonlinear_first_device() {
        use crate::devices::Capacitor;
        // Same clamped ladder, but the diode is the netlist's first device,
        // so no linear device precedes a nonlinear one.
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let nodes: Vec<_> = (0..12).map(|k| ckt.node(format!("n{k}"))).collect();
        ckt.add(Diode::new("d", nodes[6], GROUND, DiodeParams::default()));
        ckt.add(VoltageSource::new(
            "vs",
            src,
            GROUND,
            SourceWaveform::step(0.0, 1.0, 1e-10),
        ));
        ckt.add(VoltageSource::new(
            "vc",
            nodes[6],
            GROUND,
            SourceWaveform::dc(0.4),
        ));
        let mut prev = src;
        for (k, &n) in nodes.iter().enumerate() {
            ckt.add(Resistor::new(format!("r{k}"), prev, n, 20.0));
            ckt.add(Capacitor::new(format!("c{k}"), n, GROUND, 1e-12));
            prev = n;
        }
        let params = crate::TranParams::new(1e-11, 3e-9);
        let (digest, iterations) = full_path_transient(&mut ckt, params);
        assert_eq!(
            (digest, iterations),
            (0xcea0_deeb_65a6_32bd, 364),
            "{digest:#018x}"
        );
    }

    #[test]
    fn full_path_golden_linear_dc() {
        // No nonlinear device: every device precedes the first nonlinear
        // one. DC always takes the full path.
        let mut ckt = Circuit::new();
        let nodes: Vec<_> = (0..10).map(|k| ckt.node(format!("n{k}"))).collect();
        ckt.add(VoltageSource::new(
            "v",
            nodes[0],
            GROUND,
            SourceWaveform::dc(1.7),
        ));
        for k in 1..nodes.len() {
            ckt.add(Resistor::new(
                format!("r{k}"),
                nodes[k - 1],
                nodes[k],
                10.0 + k as f64,
            ));
            ckt.add(Resistor::new(
                format!("g{k}"),
                nodes[k],
                GROUND,
                3e3 / k as f64,
            ));
        }
        ckt.add(CurrentSource::new(
            "i",
            GROUND,
            nodes[5],
            SourceWaveform::dc(1e-3),
        ));
        let x = ckt.dc_operating_point().unwrap();
        let digest = fnv1a_bits(&x);
        assert_eq!(digest, 0x524c_084a_2d42_853c, "{digest:#018x}");
    }

    /// A linear conductance to ground that a test can change through
    /// `Circuit::device_mut`.
    struct Leak {
        node: crate::Node,
        g: f64,
    }

    impl crate::Device for Leak {
        fn label(&self) -> &str {
            "leak"
        }

        fn register(&self, pb: &mut crate::PatternBuilder) {
            crate::mna::register_conductance(pb, self.node, GROUND);
        }

        fn stamp(&self, _ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
            crate::mna::stamp_conductance(ws, self.node, GROUND, self.g);
        }
    }

    #[test]
    fn held_workspace_restamps_a_changed_device() {
        // The leak sits in the linear prefix, before the diode. Changing it
        // between two solves at the same transient mode on one held
        // workspace must give the bits of a fresh workspace: no prefix
        // matrix saved by the first solve may be reused.
        let mut ckt = Circuit::new();
        let (a, b, c) = (ckt.node("a"), ckt.node("b"), ckt.node("c"));
        ckt.add(VoltageSource::new("v", a, GROUND, SourceWaveform::dc(1.0)));
        ckt.add(Resistor::new("r1", a, b, 100.0));
        let leak = ckt.add(Leak { node: b, g: 1e-3 });
        ckt.add(Resistor::new("r2", b, c, 50.0));
        ckt.add(Diode::new("d", c, GROUND, DiodeParams::default()));
        let mut ws = ckt.make_workspace();
        let x0 = ckt.dc_operating_point_ws(&mut ws, None).unwrap();
        let mode = Mode::Tran {
            t: 1e-11,
            dt: 1e-11,
        };
        let gmin = ckt.gmin();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let before = solve_newton(&ckt, mode, &x0, gmin, "t", &mut ws).unwrap();
        ckt.device_mut::<Leak>(leak).unwrap().g = 2e-2;
        let held = solve_newton(&ckt, mode, &x0, gmin, "t", &mut ws).unwrap();
        let mut ws_fresh = ckt.make_workspace();
        let fresh = solve_newton(&ckt, mode, &x0, gmin, "t", &mut ws_fresh).unwrap();
        assert_ne!(bits(&before.x), bits(&fresh.x), "the change matters");
        assert_eq!(bits(&held.x), bits(&fresh.x));
        assert_eq!(held.iterations, fresh.iterations);
    }

    #[test]
    fn empty_circuit_rejected() {
        let mut ckt = Circuit::new();
        assert!(matches!(
            ckt.dc_operating_point(),
            Err(Error::InvalidAnalysis { .. })
        ));
    }
}
