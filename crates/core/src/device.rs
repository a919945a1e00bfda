//! Circuit-simulator devices wrapping the estimated macromodels.
//!
//! This is the paper's "implementation in a circuit simulation environment"
//! step. The discrete-time models advance on their own sample clock `Ts`;
//! the hosting transient analysis must run with `dt = Ts` (the paper's
//! models are estimated and exercised at the same fixed sampling time).
//! Each sampled device reports `Ts` through [`Device::sample_clock`], and a
//! transient at any other step fails with [`circuit::Error::SampleClock`]
//! before it solves anything.
//! Within each step the present port voltage participates in the Newton
//! iteration through the analytic RBF input gradient.
//!
//! All sampled devices step through the lane banks of [`crate::evalrt`]
//! over the model itself, shared through `Arc`; the per-iteration
//! `stamp`/`accept_step` path performs **zero allocations**. One
//! [`PwRbfDriver`] advances every pad of one model as parallel lanes of a
//! single batched evaluation.
//!
//! Models enter a circuit through [`Macromodel::instantiate`] (one pad) or
//! [`Macromodel::instantiate_lanes`] (several pads), which validate the
//! model and its stimulus and add the devices below; there is one device
//! per model family.
//!
//! [`Macromodel::instantiate`]: crate::Macromodel::instantiate
//! [`Macromodel::instantiate_lanes`]: crate::Macromodel::instantiate_lanes

use std::cell::RefCell;
use std::sync::Arc;

use crate::driver::PwRbfDriverModel;
use crate::evalrt::{DriverLanes, LaneStim, ReceiverLanes};
use crate::receiver::ReceiverModel;
use circuit::mna::{register_conductance, stamp_linearized_current, EvalCtx};
use circuit::{Device, Node, PatternBuilder, StampWorkspace, GROUND};
use numkit::interp::Pwl;

/// Mutable driver state: the lane bank plus the per-stamp staging rows, all
/// behind one `RefCell` so `stamp(&self)` can step without allocating.
#[derive(Debug, Clone)]
struct DriverState {
    lanes: DriverLanes,
    v: Vec<f64>,
    i: Vec<f64>,
    g: Vec<f64>,
}

/// The PW-RBF driver installed as a behavioral element at one or more pads
/// of **one** model, each pad a lane of a single batched evaluation (see
/// [`DriverLanes`]).
///
/// Each lane delivers `i(k) = w_H(k) i_H(k) + w_L(k) i_L(k)` into its pad,
/// where both submodels free-run on that pad's voltage history and their
/// own current histories. The lanes share the model's parameter slabs and
/// step together, so the inner loops stay in cache and auto-vectorize
/// across pads; a single pad is a one-lane driver.
#[derive(Debug, Clone)]
pub struct PwRbfDriver {
    label: String,
    ts: f64,
    pads: Vec<Node>,
    state: RefCell<DriverState>,
}

impl PwRbfDriver {
    /// Creates a driver stepping each `(pad, stimulus)` lane.
    ///
    /// # Panics
    ///
    /// Panics on an invalid model or an empty lane list.
    pub fn new(model: Arc<PwRbfDriverModel>, lanes: Vec<(Node, LaneStim)>) -> Self {
        model.validate().expect("invalid PW-RBF model");
        assert!(
            !lanes.is_empty(),
            "PW-RBF driver requires at least one lane"
        );
        let n = lanes.len();
        let (pads, stims): (Vec<Node>, Vec<LaneStim>) = lanes.into_iter().unzip();
        PwRbfDriver {
            label: format!("{}_pwrbf", model.name),
            ts: model.ts,
            pads,
            state: RefCell::new(DriverState {
                lanes: DriverLanes::new(model, stims),
                v: vec![0.0; n],
                i: vec![0.0; n],
                g: vec![0.0; n],
            }),
        }
    }
}

impl Device for PwRbfDriver {
    fn label(&self) -> &str {
        &self.label
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn sample_clock(&self) -> Option<f64> {
        Some(self.ts)
    }

    fn register(&self, pb: &mut PatternBuilder) {
        for &pad in &self.pads {
            register_conductance(pb, pad, GROUND);
        }
    }

    fn stamp(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        let st = &mut *self.state.borrow_mut();
        for (l, &pad) in self.pads.iter().enumerate() {
            st.v[l] = ctx.v(pad);
        }
        st.lanes.step(ctx.mode.time(), &st.v, &mut st.i, &mut st.g);
        for (l, &pad) in self.pads.iter().enumerate() {
            stamp_linearized_current(ws, pad, GROUND, -st.i[l], -st.g[l], st.v[l]);
        }
    }

    fn init_state(&mut self, ctx: &EvalCtx<'_>) {
        let st = self.state.get_mut();
        for (l, &pad) in self.pads.iter().enumerate() {
            st.v[l] = ctx.v(pad);
        }
        st.lanes.init_dc(&st.v);
    }

    fn accept_step(&mut self, ctx: &EvalCtx<'_>) {
        if !ctx.mode.is_tran() {
            return;
        }
        let st = self.state.get_mut();
        for (l, &pad) in self.pads.iter().enumerate() {
            st.v[l] = ctx.v(pad);
        }
        st.lanes.commit(&st.v);
    }
}

/// The receiver parametric model installed as a one-port load. Internally a
/// single-lane [`ReceiverLanes`] over the model.
#[derive(Debug, Clone)]
pub struct ReceiverModelDevice {
    label: String,
    ts: f64,
    pad: Node,
    lanes: RefCell<ReceiverLanes>,
}

impl ReceiverModelDevice {
    /// Creates the device at `pad`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid model.
    pub fn new(model: ReceiverModel, pad: Node) -> Self {
        model.validate().expect("invalid receiver model");
        ReceiverModelDevice {
            label: format!("{}_rxmodel", model.name),
            ts: model.ts,
            pad,
            lanes: RefCell::new(ReceiverLanes::new(Arc::new(model), 1)),
        }
    }
}

impl Device for ReceiverModelDevice {
    fn label(&self) -> &str {
        &self.label
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn sample_clock(&self) -> Option<f64> {
        Some(self.ts)
    }

    fn register(&self, pb: &mut PatternBuilder) {
        register_conductance(pb, self.pad, GROUND);
    }

    fn stamp(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        let v = [ctx.v(self.pad)];
        let (mut i, mut g) = ([0.0], [0.0]);
        self.lanes.borrow_mut().step(&v, &mut i, &mut g);
        // i flows from the pad into the device (to ground).
        stamp_linearized_current(ws, self.pad, GROUND, i[0], g[0], v[0]);
    }

    fn init_state(&mut self, ctx: &EvalCtx<'_>) {
        let v0 = [ctx.v(self.pad)];
        self.lanes.get_mut().init_dc(&v0);
    }

    fn accept_step(&mut self, ctx: &EvalCtx<'_>) {
        if !ctx.mode.is_tran() {
            return;
        }
        let v = [ctx.v(self.pad)];
        self.lanes.get_mut().commit(&v);
    }
}

/// A static nonlinear resistor defined by a PWL I–V table (current into the
/// device versus port voltage). Together with a shunt capacitor this realizes
/// the paper's C–R̂ baseline receiver.
#[derive(Debug, Clone)]
pub struct PwlResistor {
    label: String,
    a: Node,
    iv: Pwl,
}

impl PwlResistor {
    /// Creates the resistor between `a` and ground.
    pub fn new(label: impl Into<String>, a: Node, iv: Pwl) -> Self {
        PwlResistor {
            label: label.into(),
            a,
            iv,
        }
    }
}

impl Device for PwlResistor {
    fn label(&self) -> &str {
        &self.label
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn register(&self, pb: &mut PatternBuilder) {
        register_conductance(pb, self.a, GROUND);
    }

    fn stamp(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        let v = ctx.v(self.a);
        let i = self.iv.eval(v);
        let g = self.iv.slope(v).max(0.0);
        stamp_linearized_current(ws, self.a, GROUND, i, g, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::WeightSequence;
    use crate::macromodel::{Macromodel, PortStimulus};
    use crate::receiver::CrModel;
    use circuit::devices::{Resistor, SourceWaveform, VoltageSource};
    use circuit::{Circuit, Mode, TranParams};
    use sysid::arx::{ArxModel, ArxOrders};
    use sysid::narx::{NarxModel, NarxOrders};
    use sysid::rbf::RbfNetwork;

    /// A synthetic PW-RBF model with affine submodels mimicking ideal
    /// switched conductances:
    ///   i_H(v) = g (vdd - v)   (sources current when below vdd)
    ///   i_L(v) = -g v          (sinks current when above 0)
    fn synthetic_model(g: f64, vdd: f64, n_win: usize) -> PwRbfDriverModel {
        // dim = input_lags + 1 + output_lags = 3 for r = 1.
        let high = NarxModel::from_network(
            NarxOrders::dynamic(1),
            RbfNetwork::affine(g * vdd, vec![-g, 0.0, 0.0]),
        )
        .unwrap();
        let low = NarxModel::from_network(
            NarxOrders::dynamic(1),
            RbfNetwork::affine(0.0, vec![-g, 0.0, 0.0]),
        )
        .unwrap();
        let ramp: Vec<f64> = (0..n_win).map(|k| k as f64 / (n_win - 1) as f64).collect();
        let inv: Vec<f64> = ramp.iter().map(|w| 1.0 - w).collect();
        PwRbfDriverModel {
            name: "synth".into(),
            ts: 25e-12,
            vdd,
            i_high: high,
            i_low: low,
            up: WeightSequence::new(ramp.clone(), inv.clone()).unwrap(),
            down: WeightSequence::new(inv, ramp).unwrap(),
        }
    }

    #[test]
    fn synthetic_driver_drives_resistive_load() {
        let vdd = 1.8;
        let g = 0.05; // 20 Ω output impedance
        let model = synthetic_model(g, vdd, 20);
        let ts = model.ts;
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        model
            .instantiate(&mut ckt, out, Some(&PortStimulus::new("01", 2e-9)))
            .unwrap();
        ckt.add(Resistor::new("rl", out, GROUND, 100.0));
        let res = ckt.transient(TranParams::new(ts, 6e-9)).unwrap();
        let v = res.voltage(out);
        // Low state: 0 V; high state: divider vdd * R/(R + 1/g).
        assert!(v.sample_at(1.5e-9).abs() < 1e-3);
        let expect = vdd * 100.0 / (100.0 + 1.0 / g);
        let v_end = v.sample_at(5.9e-9);
        assert!(
            (v_end - expect).abs() < 0.02,
            "v_end {v_end} vs divider {expect}"
        );
        // The transition is spread over the 20-sample weight window.
        let t10 = v.threshold_crossings(0.1 * expect);
        let t90 = v.threshold_crossings(0.9 * expect);
        assert!(!t10.is_empty() && !t90.is_empty());
        let rise = t90[0].time - t10[0].time;
        assert!(rise > 3.0 * ts && rise < 25.0 * ts, "rise {rise:.3e}");
    }

    /// Runs a transient of `ckt` at twice the sample time `ts` and returns
    /// its error, which must be the typed sample-clock mismatch.
    fn run_at_double_ts(mut ckt: Circuit, ts: f64) -> circuit::Error {
        let err = ckt
            .transient(TranParams::new(2.0 * ts, 2e-9))
            .expect_err("dt != Ts must fail");
        match &err {
            circuit::Error::SampleClock { dt, ts: got, .. } => {
                assert_eq!((*dt, *got), (2.0 * ts, ts));
            }
            other => panic!("expected SampleClock, got {other:?}"),
        }
        err
    }

    #[test]
    fn driver_rejects_wrong_dt() {
        let model = synthetic_model(0.05, 1.8, 10);
        let ts = model.ts;
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        model
            .instantiate(&mut ckt, out, Some(&PortStimulus::new("01", 1e-9)))
            .unwrap();
        ckt.add(Resistor::new("rl", out, GROUND, 100.0));
        let err = run_at_double_ts(ckt, ts);
        assert!(err.to_string().contains("synth_pwrbf"), "{err}");
    }

    #[test]
    fn receiver_rejects_wrong_dt() {
        let ts = 25e-12;
        let mut ckt = Circuit::new();
        let pad = ckt.node("pad");
        ckt.add(Resistor::new("rl", pad, GROUND, 100.0));
        ckt.add(ReceiverModelDevice::new(
            synthetic_receiver(2e-12 / ts),
            pad,
        ));
        let err = run_at_double_ts(ckt, ts);
        assert!(err.to_string().contains("rx_synth_rxmodel"), "{err}");
    }

    #[test]
    fn newton_rejects_wrong_dt() {
        let model = synthetic_model(0.05, 1.8, 10);
        let ts = model.ts;
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        model
            .instantiate(&mut ckt, out, Some(&PortStimulus::new("01", 1e-9)))
            .unwrap();
        ckt.add(Resistor::new("rl", out, GROUND, 100.0));
        let mut ws = ckt.make_workspace();
        let x0 = vec![0.0; ckt.unknown_count()];
        let mode = Mode::Tran {
            t: 2.0 * ts,
            dt: 2.0 * ts,
        };
        let res = circuit::solver::solve_newton(&ckt, mode, &x0, ckt.gmin(), "t", &mut ws);
        assert!(
            matches!(res, Err(circuit::Error::SampleClock { .. })),
            "{res:?}"
        );
    }

    #[test]
    fn driver_bank_matches_individual_devices() {
        let model = synthetic_model(0.05, 1.8, 12);
        let ts = model.ts;
        let patterns = ["0110", "1001", "0011"];
        let bit_time = 1e-9;
        let t_stop = 4e-9;

        let stims: Vec<PortStimulus> = patterns
            .iter()
            .map(|p| PortStimulus::new(*p, bit_time))
            .collect();

        // Reference: one single-pad install per line.
        let mut ref_ckt = Circuit::new();
        let mut ref_pads = Vec::new();
        for (k, stim) in stims.iter().enumerate() {
            let pad = ref_ckt.node(format!("p{k}"));
            model.instantiate(&mut ref_ckt, pad, Some(stim)).unwrap();
            ref_ckt.add(Resistor::new(format!("r{k}"), pad, GROUND, 75.0));
            ref_pads.push(pad);
        }
        let ref_res = ref_ckt.transient(TranParams::new(ts, t_stop)).unwrap();

        // The same three lines as lanes of one multi-pad install.
        let mut ckt = Circuit::new();
        let mut lanes = Vec::new();
        for (k, stim) in stims.iter().enumerate() {
            let pad = ckt.node(format!("p{k}"));
            lanes.push((pad, Some(stim)));
            ckt.add(Resistor::new(format!("r{k}"), pad, GROUND, 75.0));
        }
        model.instantiate_lanes(&mut ckt, &lanes).unwrap();
        assert_eq!(ckt.n_devices(), 4, "one resistor per line plus one driver");
        let pads: Vec<Node> = lanes.iter().map(|(p, _)| *p).collect();
        let res = ckt.transient(TranParams::new(ts, t_stop)).unwrap();

        for (k, (&pad, &ref_pad)) in pads.iter().zip(&ref_pads).enumerate() {
            let v = res.voltage(pad);
            let vr = ref_res.voltage(ref_pad);
            for i in 0..((t_stop / ts) as usize) {
                let t = i as f64 * ts;
                let d = (v.sample_at(t) - vr.sample_at(t)).abs();
                assert!(d < 1e-12, "lane {k} diverges at t={t:.3e}: {d:.3e}");
            }
        }
    }

    fn synthetic_receiver(c_over_ts: f64) -> ReceiverModel {
        // i_lin = C/ts (v(k) - v(k-1)): ARX with na = 0, nb = 1.
        let linear = ArxModel::from_coefficients(
            ArxOrders { na: 0, nb: 1 },
            vec![],
            vec![c_over_ts, -c_over_ts],
        )
        .unwrap();
        let zero = NarxModel::from_network(
            NarxOrders::dynamic(1),
            RbfNetwork::affine(0.0, vec![0.0, 0.0, 0.0]),
        )
        .unwrap();
        ReceiverModel {
            name: "rx_synth".into(),
            ts: 25e-12,
            vdd: 1.8,
            linear,
            up: zero.clone(),
            down: zero,
        }
    }

    #[test]
    fn receiver_device_behaves_capacitively() {
        let ts = 25e-12;
        let c = 2e-12;
        let model = synthetic_receiver(c / ts);
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let pad = ckt.node("pad");
        ckt.add(VoltageSource::new(
            "v",
            src,
            GROUND,
            SourceWaveform::step(0.0, 1.0, 0.5e-9),
        ));
        ckt.add(Resistor::new("rs", src, pad, 50.0));
        ckt.add(ReceiverModelDevice::new(model, pad));
        let res = ckt.transient(TranParams::new(ts, 3e-9)).unwrap();
        let v = res.voltage(pad);
        // The pad follows the source with an RC lag; final value ~1 V.
        let v_end = v.sample_at(2.9e-9);
        assert!((v_end - 1.0).abs() < 0.02, "v_end {v_end}");
        // During the ramp the pad lags the source (capacitive loading).
        let v_mid = v.sample_at(0.25e-9);
        assert!(v_mid < 0.5, "pad should lag, got {v_mid}");
    }

    #[test]
    fn pwl_resistor_clamps() {
        let iv = Pwl::new(vec![-1.0, 0.0, 1.0, 2.0], vec![-0.1, 0.0, 0.0, 0.2]).unwrap();
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        let src = ckt.node("src");
        ckt.add(VoltageSource::new(
            "v",
            src,
            GROUND,
            SourceWaveform::dc(3.0),
        ));
        ckt.add(Resistor::new("rs", src, n, 10.0));
        ckt.add(PwlResistor::new("rhat", n, iv));
        let x = ckt.dc_operating_point().unwrap();
        let v = x[n.index() - 1];
        // Solves (3 - v)/10 = iv(v): in the top segment i = 0.2 (v - 1).
        // (3 - v)/10 = 0.2 v - 0.2 -> 3 - v = 2 v - 2 -> v = 5/3.
        assert!((v - 5.0 / 3.0).abs() < 1e-6, "v = {v}");
    }

    #[test]
    fn cr_model_instantiate() {
        let iv = Pwl::new(vec![-1.0, 0.0, 1.0], vec![-0.1, 0.0, 0.1]).unwrap();
        let model = CrModel::new("cr", 1e-12, iv).unwrap();
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let pad = ckt.node("pad");
        ckt.add(VoltageSource::new(
            "v",
            src,
            GROUND,
            SourceWaveform::step(0.0, 0.5, 0.2e-9),
        ));
        ckt.add(Resistor::new("rs", src, pad, 50.0));
        model.instantiate(&mut ckt, pad, None).unwrap();
        let res = ckt.transient(TranParams::new(10e-12, 2e-9)).unwrap();
        let v_end = res.voltage(pad).sample_at(1.9e-9);
        // Static resistor draws 0.1 A/V * v; divider with the 50 Ω source:
        // (0.5 - v)/50 = 0.1 v -> 0.5 - v = 5 v -> v = 0.5/6.
        assert!((v_end - 0.5 / 6.0).abs() < 5e-3, "v_end {v_end}");
    }
}
