//! Fixed-step transient analysis.

use crate::mna::{EvalCtx, Mode};
use crate::netlist::{Circuit, DeviceId, Node};
use crate::waveform::Waveform;
use crate::workspace::SolveStats;
use crate::{solver, Error, Result};

/// Most solution values one transient may store: `(steps + 1) × unknowns`
/// for a full history ([`run`]), `(steps + 1) × probes` for a probed one
/// ([`run_probed`]); 2^27 values, 1 GiB of `f64`. The stored history stays
/// in memory, so a stop time far beyond the timestep would otherwise abort
/// the process on a failed allocation; both reject such an analysis before
/// allocating. The Table 1 reference probes 2 nodes over 6,001 steps.
pub const MAX_STORED_VALUES: usize = 1 << 27;

/// Transient analysis parameters.
#[derive(Debug, Clone, Copy)]
pub struct TranParams {
    /// Fixed timestep (seconds).
    pub dt: f64,
    /// Stop time (seconds); the analysis covers `0..=t_stop`.
    pub t_stop: f64,
    /// Skip the initial DC operating point and start from all-zeros
    /// (useful for circuits that are known to start discharged). Note that
    /// the stored `t = 0` snapshot is then the all-zero vector; device
    /// initial conditions (e.g. `Capacitor::with_ic`) take effect from the
    /// first step.
    pub skip_dc: bool,
    /// Force the dense O(n³) solver backend instead of the sparse LU — the
    /// reference path for golden-agreement comparisons. Far too slow for
    /// large circuits; leave `false` outside validation harnesses.
    pub dense_solver: bool,
}

impl TranParams {
    /// Creates parameters with the given step and stop time.
    pub fn new(dt: f64, t_stop: f64) -> Self {
        TranParams {
            dt,
            t_stop,
            skip_dc: false,
            dense_solver: false,
        }
    }

    /// Returns a copy that skips the initial operating point.
    pub fn with_skip_dc(mut self) -> Self {
        self.skip_dc = true;
        self
    }

    /// Returns a copy that runs on the dense reference backend (golden
    /// comparisons against the sparse solver).
    pub fn with_dense_solver(mut self) -> Self {
        self.dense_solver = true;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.dt <= 0.0 || !self.dt.is_finite() {
            return Err(Error::InvalidAnalysis {
                message: format!("timestep must be positive, got {}", self.dt),
            });
        }
        if self.t_stop <= 0.0 || self.t_stop < self.dt || !self.t_stop.is_finite() {
            return Err(Error::InvalidAnalysis {
                message: format!(
                    "stop time must be positive and at least one step, got {}",
                    self.t_stop
                ),
            });
        }
        Ok(())
    }
}

/// Result of a transient analysis: the full solution history, in one flat
/// buffer reserved once (`(steps + 1) × unknowns` values, at most
/// [`MAX_STORED_VALUES`]) so that storing a step allocates nothing.
#[derive(Debug, Clone)]
pub struct TranResult {
    time: Vec<f64>,
    /// Values per stored step (every unknown, unless probed).
    n: usize,
    /// `solutions[k * n..(k + 1) * n]` is the full unknown vector at
    /// `time[k]`.
    solutions: Vec<f64>,
    /// Newton iterations summed over all steps (efficiency metric).
    pub total_newton_iterations: usize,
    /// Workspace diagnostics accumulated over the whole analysis (including
    /// the initial DC operating point). A well-behaved circuit shows exactly
    /// one symbolic analysis here.
    pub solve_stats: SolveStats,
}

impl TranResult {
    /// Time axis (seconds), including `t = 0`.
    pub fn time(&self) -> &[f64] {
        &self.time
    }

    /// Number of stored time points.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// Whether the result is empty (never true for a successful analysis).
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Voltage waveform of `node`.
    pub fn voltage(&self, node: Node) -> Waveform {
        let vals = if node.is_ground() {
            vec![0.0; self.time.len()]
        } else {
            self.column(node.index() - 1)
        };
        Waveform::from_parts(self.time.clone(), vals)
    }

    /// Branch-current waveform for branch `k` of device `id`.
    ///
    /// The caller provides the circuit to resolve the branch index.
    ///
    /// # Panics
    ///
    /// Panics if the device has no branch `k`.
    pub fn branch_current(&self, circuit: &Circuit, id: DeviceId, k: usize) -> Waveform {
        let vals = self.column(circuit.branch_index(id, k));
        Waveform::from_parts(self.time.clone(), vals)
    }

    /// Raw solution vector at step `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    pub fn solution(&self, k: usize) -> &[f64] {
        &self.solutions[k * self.n..(k + 1) * self.n]
    }

    /// Unknown `i` at every stored step.
    fn column(&self, i: usize) -> Vec<f64> {
        self.solutions.chunks_exact(self.n).map(|x| x[i]).collect()
    }
}

/// Result of a probed transient ([`run_probed`]): the voltage of each
/// probed node, and nothing else, so a node that was not kept cannot be
/// asked for.
#[derive(Debug, Clone)]
pub struct ProbedResult {
    /// Voltage waveform of each probe, in the order the probes were given.
    pub voltages: Vec<Waveform>,
    /// Newton iterations summed over all steps (efficiency metric).
    pub total_newton_iterations: usize,
    /// Workspace diagnostics accumulated over the whole analysis, as in
    /// [`TranResult::solve_stats`].
    pub solve_stats: SolveStats,
}

/// Runs the transient analysis on `circuit` and keeps the full solution
/// history.
///
/// Sequence: DC operating point (unless skipped) → device state
/// initialization → fixed-step trapezoidal time stepping with per-step
/// Newton iteration.
///
/// # Errors
///
/// * [`Error::InvalidAnalysis`] for invalid parameters, an empty circuit,
///   or a history above [`MAX_STORED_VALUES`].
/// * [`Error::SampleClock`] when `dt` differs from a device's sample clock.
/// * Solver failures annotated with the failing time.
pub fn run(circuit: &mut Circuit, params: TranParams) -> Result<TranResult> {
    step(circuit, params, None)
}

/// Runs the same analysis as [`run`] but stores only the voltages of
/// `probes`, `(steps + 1) × probes.len()` values. Every stored sample is
/// bit-identical to the matching sample of the full history.
///
/// # Errors
///
/// Those of [`run`], and [`Error::InvalidAnalysis`] for a probe that is
/// not a node of `circuit`.
pub fn run_probed(
    circuit: &mut Circuit,
    params: TranParams,
    probes: &[Node],
) -> Result<ProbedResult> {
    // The stored "solutions" are the probes' voltages, one column each;
    // this history never leaves the function.
    let res = step(circuit, params, Some(probes))?;
    let voltages = (0..probes.len())
        .map(|p| Waveform::from_parts(res.time.clone(), res.column(p)))
        .collect();
    Ok(ProbedResult {
        voltages,
        total_newton_iterations: res.total_newton_iterations,
        solve_stats: res.solve_stats,
    })
}

/// The one stepping loop behind [`run`] and [`run_probed`]. It stores the
/// whole unknown vector at every step, or with `probes` only the voltage
/// of each probe (in probe order; ground reads `0.0`), as the columns of
/// the returned history.
fn step(circuit: &mut Circuit, params: TranParams, probes: Option<&[Node]>) -> Result<TranResult> {
    params.validate()?;
    circuit.check_sample_clocks(params.dt)?;
    circuit.finalize();
    let n = circuit.unknown_count();
    if n == 0 {
        return Err(Error::InvalidAnalysis {
            message: "circuit has no unknowns".into(),
        });
    }
    let n_nodes = circuit.n_nodes();
    // The unknown each probe reads; `None` is ground.
    let kept: Option<Vec<Option<usize>>> = probes
        .map(|probes| {
            probes
                .iter()
                .map(|node| match node.index() {
                    0 => Ok(None),
                    i if i < n_nodes => Ok(Some(i - 1)),
                    i => Err(Error::InvalidAnalysis {
                        message: format!(
                            "probe node {i} is not a node of this circuit ({n_nodes} nodes)"
                        ),
                    }),
                })
                .collect()
        })
        .transpose()?;
    let per_step = kept.as_ref().map_or(n, Vec::len);
    let steps = (params.t_stop / params.dt).round();
    if (steps + 1.0) * per_step as f64 > MAX_STORED_VALUES as f64 {
        return Err(Error::InvalidAnalysis {
            message: format!(
                "{steps:e} steps of {per_step} values exceed the limit of {MAX_STORED_VALUES} stored values"
            ),
        });
    }
    let n_steps = steps as usize;
    let store = |solutions: &mut Vec<f64>, x: &[f64]| match &kept {
        None => solutions.extend_from_slice(x),
        Some(kept) => solutions.extend(kept.iter().map(|i| i.map_or(0.0, |i| x[i]))),
    };
    // One persistent workspace for the whole analysis: the stamp pattern and
    // the LU symbolic structure are shared between the DC operating point
    // and every timestep.
    let mut ws = if params.dense_solver {
        circuit.make_workspace_dense()
    } else {
        circuit.make_workspace()
    };

    // 1. Initial condition.
    let x0 = if params.skip_dc {
        vec![0.0; n]
    } else {
        solver::dc_operating_point_ws(circuit, &mut ws, None)?
    };
    {
        let ctx = EvalCtx {
            x: &x0,
            n_nodes,
            mode: Mode::Dc,
        };
        for dev in circuit.devices_mut() {
            dev.init_state(&ctx);
        }
    }

    let mut time = Vec::with_capacity(n_steps + 1);
    let mut solutions = Vec::with_capacity((n_steps + 1) * per_step);
    time.push(0.0);
    store(&mut solutions, &x0);

    let gmin = circuit.gmin();
    let mut x_prev = x0;
    let mut total_iters = 0;
    // The port path is chosen once, as soon as a full factorization has
    // priced the full path: before step 1 after the DC operating point,
    // before step 2 with `skip_dc`.
    let mut path_chosen = false;

    for k in 1..=n_steps {
        let t = k as f64 * params.dt;
        let mode = Mode::Tran { t, dt: params.dt };
        if !path_chosen && ws.stats().factorizations > 0 {
            path_chosen = true;
            // A singular interior is counted in the solve stats; the
            // transient then stays on the full path.
            let _ = solver::enter_port_path(circuit, mode, &x_prev, gmin, n_steps + 1 - k, &mut ws);
        }
        let out = solver::solve_step(circuit, mode, &x_prev, gmin, "transient", &mut ws)?;
        total_iters += out.iterations;
        let ctx = EvalCtx {
            x: &out.x,
            n_nodes,
            mode,
        };
        for dev in circuit.devices_mut() {
            dev.accept_step(&ctx);
        }
        time.push(t);
        store(&mut solutions, &out.x);
        x_prev = out.x;
    }

    Ok(TranResult {
        time,
        n: per_step,
        solutions,
        total_newton_iterations: total_iters,
        solve_stats: ws.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Capacitor, Inductor, Resistor, SourceWaveform, VoltageSource};
    use crate::netlist::GROUND;

    #[test]
    fn params_validation() {
        assert!(TranParams::new(0.0, 1.0).validate().is_err());
        assert!(TranParams::new(1e-9, 0.0).validate().is_err());
        assert!(TranParams::new(1e-9, 1e-10).validate().is_err());
        assert!(TranParams::new(1e-9, 1e-6).validate().is_ok());
        assert!(TranParams::new(1e-9, 1e-6).with_skip_dc().skip_dc);
        assert!(TranParams::new(1e-9, 1e-6).with_dense_solver().dense_solver);
    }

    #[test]
    fn oversized_history_is_rejected_before_allocating() {
        let build = || {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            ckt.add(VoltageSource::new("v", a, GROUND, SourceWaveform::dc(1.0)));
            ckt.add(Resistor::new("r", a, GROUND, 1.0));
            ckt
        };
        // Two unknowns: 2^26 steps store 2^27 + 2 values, one step less is
        // within the limit (not run: it would allocate 1 GiB).
        let too_long = TranParams::new(1.0, (1u64 << 26) as f64);
        assert!(matches!(
            build().transient(too_long),
            Err(Error::InvalidAnalysis { .. })
        ));
        // Stop times whose step count overflows `usize` are rejected too,
        // not wrapped or saturated.
        for t_stop in [1e300, f64::MAX] {
            let err = build()
                .transient(TranParams::new(1e-12, t_stop))
                .unwrap_err();
            assert!(err.to_string().contains("stored values"), "{err}");
        }
    }

    /// A source-driven RC ladder with a diode to ground at node 6; with
    /// `clamp` a DC source straight across the diode pushes the transient
    /// off the port path onto the full path. Returns the ladder's nodes.
    fn diode_ladder(clamp: bool) -> (Circuit, Vec<Node>) {
        use crate::devices::{Diode, DiodeParams};
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        ckt.add(VoltageSource::new(
            "vs",
            src,
            GROUND,
            SourceWaveform::step(0.0, 1.0, 1e-10),
        ));
        let mut nodes = vec![src];
        for k in 0..12 {
            let n = ckt.node(format!("n{k}"));
            ckt.add(Resistor::new(format!("r{k}"), nodes[k], n, 20.0));
            ckt.add(Capacitor::new(format!("c{k}"), n, GROUND, 1e-12));
            if k == 6 {
                ckt.add(Diode::new("d", n, GROUND, DiodeParams::default()));
                if clamp {
                    ckt.add(VoltageSource::new("vc", n, GROUND, SourceWaveform::dc(0.4)));
                }
            }
            nodes.push(n);
        }
        (ckt, nodes)
    }

    /// A probed run stores exactly the full history's columns of its
    /// probes, bit for bit, on both solve paths; ground reads zero and a
    /// probe may repeat.
    #[test]
    fn probed_waveforms_equal_full_history_columns() {
        let params = TranParams::new(1e-11, 3e-9);
        for (clamp, port_path) in [(false, true), (true, false)] {
            let (mut full_ckt, nodes) = diode_ladder(clamp);
            let full = full_ckt.transient(params).unwrap();
            assert_eq!(
                full.solve_stats.port_solves > 0,
                port_path,
                "{:?}",
                full.solve_stats
            );
            let probes = [nodes[12], GROUND, nodes[7], nodes[0], nodes[12]];
            let probed = diode_ladder(clamp)
                .0
                .transient_probed(params, &probes)
                .unwrap();
            assert_eq!(probed.solve_stats, full.solve_stats);
            assert_eq!(probed.total_newton_iterations, full.total_newton_iterations);
            assert_eq!(probed.voltages.len(), probes.len());
            let bits =
                |w: &Waveform| -> Vec<u64> { w.values().iter().map(|v| v.to_bits()).collect() };
            for (wave, &node) in probed.voltages.iter().zip(&probes) {
                let want = full.voltage(node);
                assert_eq!(wave.times(), want.times());
                assert_eq!(bits(wave), bits(&want), "clamp {clamp}, node {node}");
            }
            assert!(probed.voltages[0].values().iter().any(|&v| v > 0.1));
        }
    }

    /// A probe must be a node of the analysed circuit, and the storage
    /// limit counts probes, not unknowns.
    #[test]
    fn probes_are_checked_and_counted_before_allocating() {
        let build = || {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            ckt.add(VoltageSource::new("v", a, GROUND, SourceWaveform::dc(1.0)));
            ckt.add(Resistor::new("r", a, GROUND, 1.0));
            (ckt, a)
        };
        let (mut ckt, a) = build();
        let err = ckt
            .transient_probed(TranParams::new(1e-9, 1e-8), &[a, Node::from_raw(2)])
            .unwrap_err();
        assert!(matches!(err, Error::InvalidAnalysis { .. }), "{err}");
        // Two unknowns over 5e7 steps fit the limit (not run); three probes
        // of the same length do not.
        let long = TranParams::new(1.0, 5e7);
        assert!(2.0 * 5e7 < MAX_STORED_VALUES as f64);
        let err = build().0.transient_probed(long, &[a, a, a]).unwrap_err();
        assert!(err.to_string().contains("stored values"), "{err}");
        let ok = build()
            .0
            .transient_probed(TranParams::new(1e-9, 1e-8), &[])
            .unwrap();
        assert!(ok.voltages.is_empty());
    }

    #[test]
    fn dense_backend_matches_sparse_backend() {
        let build = || {
            let mut ckt = Circuit::new();
            let nin = ckt.node("in");
            let mut prev = nin;
            ckt.add(VoltageSource::new(
                "v",
                nin,
                GROUND,
                SourceWaveform::step(0.0, 1.0, 1e-10),
            ));
            for k in 0..6 {
                let next = ckt.node(format!("n{k}"));
                ckt.add(Resistor::new(format!("r{k}"), prev, next, 50.0));
                ckt.add(Capacitor::new(format!("c{k}"), next, GROUND, 2e-12));
                prev = next;
            }
            (ckt, prev)
        };
        let params = TranParams::new(2e-11, 2e-9);
        let (mut ckt_s, out_s) = build();
        let sparse = ckt_s.transient(params).unwrap();
        let (mut ckt_d, out_d) = build();
        let dense = ckt_d.transient(params.with_dense_solver()).unwrap();
        let vs = sparse.voltage(out_s);
        let vd = dense.voltage(out_d);
        for (a, b) in vs.values().iter().zip(vd.values()) {
            assert!((a - b).abs() < 1e-9, "backend mismatch: {a} vs {b}");
        }
    }

    #[test]
    fn rc_charge_matches_analytic() {
        let (r, c) = (1e3, 1e-9);
        let tau = r * c;
        let mut ckt = Circuit::new();
        let nin = ckt.node("in");
        let nout = ckt.node("out");
        // Source steps from 0 to 1 V at t = 0+ via pulse with tiny rise.
        ckt.add(VoltageSource::new(
            "v",
            nin,
            GROUND,
            SourceWaveform::step(0.0, 1.0, 1e-12),
        ));
        ckt.add(Resistor::new("r", nin, nout, r));
        ckt.add(Capacitor::new("c", nout, GROUND, c));
        let res = ckt
            .transient(TranParams::new(tau / 200.0, 5.0 * tau))
            .unwrap();
        let v = res.voltage(nout);
        // Compare against 1 - exp(-t/tau) at a few points.
        for frac in [0.5, 1.0, 2.0, 4.0] {
            let t = frac * tau;
            let expect = 1.0 - (-t / tau).exp();
            let got = v.sample_at(t);
            assert!(
                (got - expect).abs() < 5e-3,
                "t={t:.3e}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn rl_current_rise() {
        let (r, l) = (10.0, 1e-6);
        let tau = l / r;
        let mut ckt = Circuit::new();
        let nin = ckt.node("in");
        let nmid = ckt.node("mid");
        ckt.add(VoltageSource::new(
            "v",
            nin,
            GROUND,
            SourceWaveform::step(0.0, 1.0, 1e-12),
        ));
        ckt.add(Resistor::new("r", nin, nmid, r));
        let ind = ckt.add(Inductor::new("l", nmid, GROUND, l));
        let res = ckt
            .transient(TranParams::new(tau / 200.0, 5.0 * tau))
            .unwrap();
        let i = res.branch_current(&ckt, ind, 0);
        let i_final = *i.values().last().unwrap();
        assert!((i_final - 0.1).abs() < 1e-3, "final current {i_final}");
        let at_tau = i.sample_at(tau);
        let expect = 0.1 * (1.0 - (-1.0_f64).exp());
        assert!((at_tau - expect).abs() < 1e-3);
    }

    #[test]
    fn lc_oscillator_energy_bounded() {
        // Trapezoidal integration preserves the amplitude of an LC tank.
        let (l, c) = (1e-6, 1e-9);
        let mut ckt = Circuit::new();
        let n1 = ckt.node("tank");
        ckt.add(Capacitor::new("c", n1, GROUND, c).with_ic(1.0));
        ckt.add(Inductor::new("l", n1, GROUND, l));
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (l * c).sqrt());
        let period = 1.0 / f0;
        let res = ckt
            .transient(TranParams::new(period / 400.0, 10.0 * period).with_skip_dc())
            .unwrap();
        let v = res.voltage(n1);
        let max_late: f64 = v
            .values()
            .iter()
            .skip(v.len() * 9 / 10)
            .fold(0.0_f64, |m, &x| m.max(x.abs()));
        // Amplitude after 9 periods still close to 1 V (no numerical damping).
        assert!(max_late > 0.95 && max_late < 1.05, "amplitude {max_late}");
    }

    #[test]
    fn result_accessors() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(VoltageSource::new("v", a, GROUND, SourceWaveform::dc(1.0)));
        ckt.add(Resistor::new("r", a, GROUND, 1.0));
        let res = ckt.transient(TranParams::new(1e-9, 1e-8)).unwrap();
        assert_eq!(res.len(), 11);
        assert!(!res.is_empty());
        assert_eq!(res.voltage(GROUND).values()[0], 0.0);
        assert_eq!(res.solution(0).len(), ckt.unknown_count());
        assert!(res.total_newton_iterations >= 10);
    }
}
