//! The unified macromodel API: one object-safe trait in front of every
//! estimated-model backend.
//!
//! The point of the reproduced paper is that an estimated behavioral model
//! is a *portable artifact*: extracted once, then shipped to downstream
//! simulations in place of the transistor-level device. Portability needs a
//! single surface — [`Macromodel`] — implemented by
//!
//! * the PW-RBF driver model ([`crate::PwRbfDriverModel`]),
//! * the receiver parametric model ([`crate::ReceiverModel`]),
//! * the C–R̂ baseline ([`crate::CrModel`]),
//! * the IBIS comparison baseline ([`refdev::IbisModel`]).
//!
//! Consumers (the validation harness, the figure/bench generators, the
//! `mdl` CLI) hold `&dyn Macromodel` and never special-case a backend; a
//! sweep over backends iterates a `Vec<Box<dyn Macromodel>>` or a
//! [`crate::ModelStore`]. [`TestFixture`] describes the standard one-port
//! validation networks as data, which keeps
//! [`Macromodel::simulate_on_load`] object-safe.
//!
//! # Example
//!
//! ```no_run
//! use macromodel::macromodel::{Macromodel, PortStimulus, TestFixture};
//! use macromodel::ExtractionSession;
//!
//! # fn main() -> Result<(), macromodel::Error> {
//! let estimated = ExtractionSession::for_driver(refdev::md1()).run()?;
//! // Any backend behind the same calls:
//! let m: &dyn Macromodel = estimated.as_dyn();
//! println!("{} [{}]", m.summary(), m.kind());
//! let wave = m.simulate_on_load(
//!     &TestFixture::resistive(50.0),
//!     Some(&PortStimulus::new("010", 4e-9)),
//!     m.sample_time().unwrap(),
//!     12e-9,
//! )?;
//! println!("{} samples", wave.values().len());
//! # Ok(())
//! # }
//! ```

use crate::device::{PwRbfDriver, PwlResistor, ReceiverModelDevice};
use crate::driver::PwRbfDriverModel;
use crate::evalrt::LaneStim;
use crate::receiver::{CrModel, ReceiverModel};
use crate::{Error, Result};
use circuit::devices::{Capacitor, IdealLine, Resistor, SourceWaveform, VoltageSource};
use circuit::{Circuit, Node, TranParams, Waveform, GROUND};
use refdev::IbisModel;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The model families the workspace can estimate and exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// PW-RBF driver model (paper equation 1).
    PwRbfDriver,
    /// Receiver parametric model (paper equation 2).
    Receiver,
    /// C–R̂ baseline receiver.
    CrBaseline,
    /// IBIS 2.1-style driver baseline.
    Ibis,
}

impl ModelKind {
    /// Every kind, in exchange-format tag order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::PwRbfDriver,
        ModelKind::Receiver,
        ModelKind::CrBaseline,
        ModelKind::Ibis,
    ];

    /// The stable identifier used in the on-disk exchange format.
    pub fn tag(self) -> &'static str {
        match self {
            ModelKind::PwRbfDriver => "pwrbf-driver",
            ModelKind::Receiver => "receiver",
            ModelKind::CrBaseline => "cr-baseline",
            ModelKind::Ibis => "ibis",
        }
    }

    /// Parses an exchange-format tag.
    pub fn from_tag(tag: &str) -> Option<ModelKind> {
        ModelKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// Whether this kind models an output port (needs a bit-pattern
    /// stimulus to be instantiated).
    pub fn is_driver(self) -> bool {
        matches!(self, ModelKind::PwRbfDriver | ModelKind::Ibis)
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Logic stimulus for driver-kind models: the bit pattern the output port
/// produces and its bit time.
#[derive(Debug, Clone, PartialEq)]
pub struct PortStimulus {
    /// Bit pattern, e.g. `"010"`.
    pub pattern: String,
    /// Bit time (s).
    pub bit_time: f64,
}

impl PortStimulus {
    /// Creates a stimulus.
    pub fn new(pattern: impl Into<String>, bit_time: f64) -> Self {
        PortStimulus {
            pattern: pattern.into(),
            bit_time,
        }
    }
}

/// A standard one-port validation network, described as data so backends
/// and harnesses can exchange it without closures.
#[derive(Debug, Clone, PartialEq)]
pub enum TestFixture {
    /// Resistor from the pad to ground.
    Resistive {
        /// Load resistance (Ω).
        r: f64,
    },
    /// Ideal transmission line from the pad, far end loaded by a capacitor
    /// (the paper's Fig. 1 fixture).
    LineCap {
        /// Line impedance (Ω).
        z0: f64,
        /// Line delay (s).
        td: f64,
        /// Far-end capacitance (F).
        c_load: f64,
    },
    /// Trapezoidal pulse source driving the pad through a series resistor
    /// (the receiver validation drive).
    SeriesPulse {
        /// Source resistance (Ω).
        r: f64,
        /// Pulse low level (V).
        low: f64,
        /// Pulse high level (V).
        high: f64,
        /// Pulse delay (s).
        delay: f64,
        /// Rise time (s).
        rise: f64,
        /// Pulse width (s).
        width: f64,
        /// Fall time (s).
        fall: f64,
    },
}

impl TestFixture {
    /// Resistive load to ground.
    pub fn resistive(r: f64) -> Self {
        TestFixture::Resistive { r }
    }

    /// Ideal line plus far-end capacitor.
    pub fn line_cap(z0: f64, td: f64, c_load: f64) -> Self {
        TestFixture::LineCap { z0, td, c_load }
    }

    /// Pulse source through a series resistor.
    pub fn series_pulse(
        r: f64,
        low: f64,
        high: f64,
        delay: f64,
        rise: f64,
        width: f64,
        fall: f64,
    ) -> Self {
        TestFixture::SeriesPulse {
            r,
            low,
            high,
            delay,
            rise,
            width,
            fall,
        }
    }

    /// Installs the fixture network around an existing `pad` node.
    pub fn install(&self, ckt: &mut Circuit, pad: Node) {
        match *self {
            TestFixture::Resistive { r } => {
                ckt.add(Resistor::new("fix_rload", pad, GROUND, r));
            }
            TestFixture::LineCap { z0, td, c_load } => {
                let far = ckt.node("fix_far");
                ckt.add(IdealLine::new("fix_line", pad, GROUND, far, GROUND, z0, td));
                ckt.add(Capacitor::new("fix_cload", far, GROUND, c_load));
            }
            TestFixture::SeriesPulse {
                r,
                low,
                high,
                delay,
                rise,
                width,
                fall,
            } => {
                let src = ckt.node("fix_src");
                ckt.add(VoltageSource::new(
                    "fix_vs",
                    src,
                    GROUND,
                    SourceWaveform::Pulse {
                        low,
                        high,
                        delay,
                        rise,
                        width,
                        fall,
                    },
                ));
                ckt.add(Resistor::new("fix_rs", src, pad, r));
            }
        }
    }
}

/// The stimulus a driver model `name` runs, checked: present, a non-empty
/// `0`/`1` pattern and a positive, finite bit time.
fn driver_stimulus<'a>(name: &str, stim: Option<&'a PortStimulus>) -> Result<&'a PortStimulus> {
    let invalid = |what: String| Error::InvalidModel {
        message: format!("driver model '{name}': {what}"),
    };
    let stim = stim.ok_or_else(|| invalid("needs a PortStimulus to be instantiated".into()))?;
    if stim.pattern.is_empty() || stim.pattern.bytes().any(|b| b != b'0' && b != b'1') {
        return Err(invalid(format!(
            "stimulus pattern {:?} must be a non-empty string of '0'/'1'",
            stim.pattern
        )));
    }
    if !(stim.bit_time.is_finite() && stim.bit_time > 0.0) {
        return Err(invalid(format!(
            "stimulus bit_time {} must be positive and finite",
            stim.bit_time
        )));
    }
    Ok(stim)
}

/// The unified, object-safe interface every estimated macromodel backend
/// implements.
///
/// Consumers hold `&dyn Macromodel`; the trait is deliberately narrow so the
/// validation harness, the figure generators and the `mdl` CLI work with any
/// backend. See the [module docs](self) for an example.
pub trait Macromodel: Send + Sync {
    /// Which model family this is.
    fn kind(&self) -> ModelKind;

    /// Source device name (e.g. `"md1"`).
    fn name(&self) -> &str;

    /// Discrete-time sample clock of the model, if it has one. A hosting
    /// transient analysis must run at this step; `None` for continuous
    /// models (the C–R̂ baseline).
    fn sample_time(&self) -> Option<f64>;

    /// One-line structural summary.
    fn summary(&self) -> String;

    /// Structured key → value description (sizes, orders, clocks) for
    /// inventories and the `mdl info` subcommand.
    fn metadata(&self) -> BTreeMap<String, String>;

    /// Checks the model's internal invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    fn validate(&self) -> Result<()>;

    /// Installs the model as a one-port device at `pad`. This (with
    /// [`Macromodel::instantiate_lanes`]) is the only way a macromodel enters
    /// a circuit. Driver kinds ([`ModelKind::is_driver`]) require a
    /// stimulus; load kinds ignore it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidModel`] for an invalid model, or for a driver
    /// stimulus that is missing, has an empty or non-`0`/`1` pattern, or a
    /// bit time that is not positive and finite.
    fn instantiate(&self, ckt: &mut Circuit, pad: Node, stim: Option<&PortStimulus>) -> Result<()>;

    /// Installs the model at several pads of one circuit. Backends with a
    /// batched runtime (the PW-RBF driver) share the model once and add a
    /// single multi-lane device stepping every pad together; the default
    /// falls back to one [`Macromodel::instantiate`] call per pad.
    ///
    /// # Errors
    ///
    /// As [`Macromodel::instantiate`], for any lane.
    fn instantiate_lanes(
        &self,
        ckt: &mut Circuit,
        lanes: &[(Node, Option<&PortStimulus>)],
    ) -> Result<()> {
        for &(pad, stim) in lanes {
            self.instantiate(ckt, pad, stim)?;
        }
        Ok(())
    }

    /// Runs the model against a standard fixture and returns the pad
    /// voltage: a fresh circuit with the fixture installed around the pad,
    /// the model instantiated at it, and a transient of `t_stop` seconds at
    /// step `dt` (which must match [`Macromodel::sample_time`] for sampled
    /// models).
    ///
    /// # Errors
    ///
    /// Propagates instantiation and simulation failures.
    fn simulate_on_load(
        &self,
        fixture: &TestFixture,
        stim: Option<&PortStimulus>,
        dt: f64,
        t_stop: f64,
    ) -> Result<Waveform> {
        let mut ckt = Circuit::new();
        let pad = ckt.node(format!("{}_pad", self.name()));
        fixture.install(&mut ckt, pad);
        self.instantiate(&mut ckt, pad, stim)?;
        let res = ckt.transient(TranParams::new(dt, t_stop))?;
        Ok(res.voltage(pad))
    }
}

impl Macromodel for PwRbfDriverModel {
    fn kind(&self) -> ModelKind {
        ModelKind::PwRbfDriver
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn sample_time(&self) -> Option<f64> {
        Some(self.ts)
    }

    fn summary(&self) -> String {
        PwRbfDriverModel::summary(self)
    }

    fn metadata(&self) -> BTreeMap<String, String> {
        BTreeMap::from([
            ("ts".into(), format!("{:e}", self.ts)),
            ("vdd".into(), format!("{}", self.vdd)),
            (
                "order".into(),
                format!("{}", self.i_high.orders().output_lags),
            ),
            (
                "basis_functions".into(),
                format!("{}", self.total_basis_functions()),
            ),
            ("up_window".into(), format!("{}", self.up.len())),
            ("down_window".into(), format!("{}", self.down.len())),
        ])
    }

    fn validate(&self) -> Result<()> {
        PwRbfDriverModel::validate(self)
    }

    fn instantiate(&self, ckt: &mut Circuit, pad: Node, stim: Option<&PortStimulus>) -> Result<()> {
        self.instantiate_lanes(ckt, &[(pad, stim)])
    }

    fn instantiate_lanes(
        &self,
        ckt: &mut Circuit,
        lanes: &[(Node, Option<&PortStimulus>)],
    ) -> Result<()> {
        if lanes.is_empty() {
            return Ok(());
        }
        PwRbfDriverModel::validate(self)?;
        let lanes = lanes
            .iter()
            .map(|&(pad, stim)| {
                let stim = driver_stimulus(&self.name, stim)?;
                Ok((pad, LaneStim::from_pattern(&stim.pattern, stim.bit_time)))
            })
            .collect::<Result<Vec<_>>>()?;
        ckt.add(PwRbfDriver::new(Arc::new(self.clone()), lanes));
        Ok(())
    }
}

impl Macromodel for ReceiverModel {
    fn kind(&self) -> ModelKind {
        ModelKind::Receiver
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn sample_time(&self) -> Option<f64> {
        Some(self.ts)
    }

    fn summary(&self) -> String {
        ReceiverModel::summary(self)
    }

    fn metadata(&self) -> BTreeMap<String, String> {
        BTreeMap::from([
            ("ts".into(), format!("{:e}", self.ts)),
            ("vdd".into(), format!("{}", self.vdd)),
            (
                "arx_orders".into(),
                format!("{},{}", self.linear.orders().na, self.linear.orders().nb),
            ),
            (
                "up_centers".into(),
                format!("{}", self.up.network().n_centers()),
            ),
            (
                "down_centers".into(),
                format!("{}", self.down.network().n_centers()),
            ),
        ])
    }

    fn validate(&self) -> Result<()> {
        ReceiverModel::validate(self)
    }

    fn instantiate(
        &self,
        ckt: &mut Circuit,
        pad: Node,
        _stim: Option<&PortStimulus>,
    ) -> Result<()> {
        ReceiverModel::validate(self)?;
        ckt.add(ReceiverModelDevice::new(self.clone(), pad));
        Ok(())
    }
}

impl Macromodel for CrModel {
    fn kind(&self) -> ModelKind {
        ModelKind::CrBaseline
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn sample_time(&self) -> Option<f64> {
        None
    }

    fn summary(&self) -> String {
        format!(
            "C-R '{}': C = {:.3e} F, {} I-V points",
            self.name,
            self.c,
            self.static_iv.x().len()
        )
    }

    fn metadata(&self) -> BTreeMap<String, String> {
        BTreeMap::from([
            ("c".into(), format!("{:e}", self.c)),
            ("iv_points".into(), format!("{}", self.static_iv.x().len())),
        ])
    }

    fn validate(&self) -> Result<()> {
        if self.c <= 0.0 || !self.c.is_finite() {
            return Err(Error::InvalidModel {
                message: format!("capacitance must be positive, got {}", self.c),
            });
        }
        Ok(())
    }

    fn instantiate(
        &self,
        ckt: &mut Circuit,
        pad: Node,
        _stim: Option<&PortStimulus>,
    ) -> Result<()> {
        Macromodel::validate(self)?;
        ckt.add(Capacitor::new(
            format!("{}_c", self.name),
            pad,
            GROUND,
            self.c,
        ));
        ckt.add(PwlResistor::new(
            format!("{}_rhat", self.name),
            pad,
            self.static_iv.clone(),
        ));
        Ok(())
    }
}

impl Macromodel for IbisModel {
    fn kind(&self) -> ModelKind {
        ModelKind::Ibis
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn sample_time(&self) -> Option<f64> {
        // The IBIS tables interpolate in time, so the model runs at any
        // transient step; `dt` is the table resolution, not a clock.
        None
    }

    fn summary(&self) -> String {
        IbisModel::summary(self)
    }

    fn metadata(&self) -> BTreeMap<String, String> {
        BTreeMap::from([
            ("vdd".into(), format!("{}", self.vdd)),
            ("c_comp".into(), format!("{:e}", self.c_comp)),
            ("table_dt".into(), format!("{:e}", self.dt)),
            ("table_samples".into(), format!("{}", self.ku_rise.len())),
            ("iv_points".into(), format!("{}", self.pullup.x().len())),
        ])
    }

    fn validate(&self) -> Result<()> {
        IbisModel::validate(self)?;
        Ok(())
    }

    fn instantiate(&self, ckt: &mut Circuit, pad: Node, stim: Option<&PortStimulus>) -> Result<()> {
        IbisModel::validate(self)?;
        let stim = driver_stimulus(&self.name, stim)?;
        self.instantiate_at(ckt, pad, &stim.pattern, stim.bit_time);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::WeightSequence;
    use numkit::interp::Pwl;
    use sysid::narx::{NarxModel, NarxOrders};
    use sysid::rbf::RbfNetwork;

    fn dummy_driver(name: &str) -> PwRbfDriverModel {
        let narx = || {
            NarxModel::from_network(
                NarxOrders::dynamic(1),
                RbfNetwork::affine(0.0, vec![0.01, 0.0, 0.0]),
            )
            .unwrap()
        };
        PwRbfDriverModel {
            name: name.into(),
            ts: 25e-12,
            vdd: 1.8,
            i_high: narx(),
            i_low: narx(),
            up: WeightSequence::new(vec![0.0, 1.0], vec![1.0, 0.0]).unwrap(),
            down: WeightSequence::new(vec![1.0, 0.0], vec![0.0, 1.0]).unwrap(),
        }
    }

    #[test]
    fn kind_tags_round_trip() {
        for k in ModelKind::ALL {
            assert_eq!(ModelKind::from_tag(k.tag()), Some(k));
            assert_eq!(k.to_string(), k.tag());
        }
        assert_eq!(ModelKind::from_tag("nope"), None);
        assert!(ModelKind::PwRbfDriver.is_driver());
        assert!(ModelKind::Ibis.is_driver());
        assert!(!ModelKind::Receiver.is_driver());
        assert!(!ModelKind::CrBaseline.is_driver());
    }

    #[test]
    fn trait_surface_on_driver() {
        let model = dummy_driver("t1");
        let m: &dyn Macromodel = &model;
        assert_eq!(m.kind(), ModelKind::PwRbfDriver);
        assert_eq!(m.name(), "t1");
        assert_eq!(m.sample_time(), Some(25e-12));
        assert!(m.summary().contains("PW-RBF"));
        assert!(m.metadata().contains_key("ts"));
        assert!(m.validate().is_ok());
        // Instantiation without a stimulus is a typed error.
        let mut ckt = Circuit::new();
        let pad = ckt.node("pad");
        assert!(matches!(
            m.instantiate(&mut ckt, pad, None),
            Err(Error::InvalidModel { .. })
        ));
    }

    fn dummy_ibis(name: &str) -> IbisModel {
        IbisModel {
            name: name.into(),
            vdd: 3.3,
            pullup: Pwl::new(vec![-1.0, 1.0, 4.0], vec![0.08, 0.04, -0.05]).unwrap(),
            pulldown: Pwl::new(vec![-1.0, 1.0, 4.0], vec![-0.06, 0.01, 0.09]).unwrap(),
            c_comp: 3e-12,
            dt: 50e-12,
            ku_rise: vec![0.0, 0.5, 1.0],
            kd_rise: vec![1.0, 0.5, 0.0],
            ku_fall: vec![1.0, 0.4, 0.0],
            kd_fall: vec![0.0, 0.6, 1.0],
        }
    }

    #[test]
    fn malformed_stimulus_is_a_typed_error() {
        let cases = [
            ("", 1e-9, "pattern"),
            ("01x", 1e-9, "pattern"),
            ("01", 0.0, "bit_time"),
            ("01", -1e-9, "bit_time"),
            ("01", f64::NAN, "bit_time"),
            ("01", f64::INFINITY, "bit_time"),
        ];
        let driver = dummy_driver("drv_bad");
        let ibis = dummy_ibis("ibis_bad");
        let models: [&dyn Macromodel; 2] = [&driver, &ibis];
        for m in models {
            for (pattern, bit_time, field) in cases {
                let stim = PortStimulus::new(pattern, bit_time);
                let mut ckt = Circuit::new();
                let pad = ckt.node("pad");
                match m.instantiate(&mut ckt, pad, Some(&stim)) {
                    Err(Error::InvalidModel { message }) => assert!(
                        message.contains(m.name()) && message.contains(field),
                        "{}: {pattern:?} @ {bit_time}: {message}",
                        m.name()
                    ),
                    other => panic!("{}: {pattern:?} @ {bit_time}: {other:?}", m.name()),
                }
                assert_eq!(ckt.n_devices(), 0, "nothing installed on error");
            }
        }
    }

    #[test]
    fn simulate_on_load_drives_fixture() {
        let model = dummy_driver("t2");
        let m: &dyn Macromodel = &model;
        let wave = m
            .simulate_on_load(
                &TestFixture::resistive(100.0),
                Some(&PortStimulus::new("01", 1e-9)),
                25e-12,
                2e-9,
            )
            .unwrap();
        assert!(!wave.values().is_empty());
    }

    #[test]
    fn cr_model_through_trait() {
        let iv = Pwl::new(vec![-1.0, 0.0, 1.0], vec![-0.1, 0.0, 0.1]).unwrap();
        let cr = CrModel::new("crx", 1e-12, iv).unwrap();
        let m: &dyn Macromodel = &cr;
        assert_eq!(m.kind(), ModelKind::CrBaseline);
        assert_eq!(m.sample_time(), None);
        assert!(m.validate().is_ok());
        let wave = m
            .simulate_on_load(
                &TestFixture::series_pulse(50.0, 0.0, 0.5, 0.2e-9, 0.1e-9, 1e-9, 0.1e-9),
                None,
                10e-12,
                2e-9,
            )
            .unwrap();
        // Divider against the 0.1 A/V static resistor: v = 0.5/6 at the top.
        let v_end = wave.sample_at(1.3e-9);
        assert!((v_end - 0.5 / 6.0).abs() < 5e-3, "v_end {v_end}");
    }
}
