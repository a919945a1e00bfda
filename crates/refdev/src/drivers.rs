//! Transistor-level CMOS output-buffer reference devices.
//!
//! Each driver is a tapered chain of CMOS inverters feeding a wide final
//! stage, with ESD clamp diodes and package parasitics at the pad:
//!
//! ```text
//!  in ──▷ inv1 ──▷ inv2 ──▷ final stage ──R_pkg──L_pkg──● pad
//!                                 │                     │
//!                             C_drain              C_pad, clamps
//! ```
//!
//! The pre-driver chain reshapes the (idealized) core signal so the pad edge
//! rate is set by the device, not by the stimulus — the property that makes
//! driver macromodeling nontrivial.

use crate::{Error, Result};
use circuit::devices::{
    Capacitor, Diode, DiodeParams, Inductor, MosPolarity, Mosfet, MosfetParams, Resistor,
    SourceWaveform, VoltageSource,
};
use circuit::{Circuit, DeviceId, Node, GROUND};

/// Complete specification of a reference CMOS driver.
#[derive(Debug, Clone)]
pub struct CmosDriverSpec {
    /// Human-readable device name (used in labels).
    pub name: &'static str,
    /// Supply voltage (V).
    pub vdd: f64,
    /// NMOS process parameters of a unit (W/L = 1) device.
    pub nmos_unit: MosfetParams,
    /// PMOS process parameters of a unit device.
    pub pmos_unit: MosfetParams,
    /// W/L of the final-stage NMOS.
    pub wl_final_n: f64,
    /// W/L ratio of PMOS to NMOS (mobility compensation).
    pub p_over_n: f64,
    /// Taper factor between pre-driver stages.
    pub taper: f64,
    /// Number of pre-driver stages (≥ 1; parity is adjusted internally so
    /// the pad is non-inverting with respect to the logic input).
    pub stages: usize,
    /// Gate capacitance per unit W/L (F).
    pub c_gate_unit: f64,
    /// Drain junction capacitance per unit W/L of the final stage (F).
    pub c_drain_unit: f64,
    /// Package series resistance (Ω).
    pub r_pkg: f64,
    /// Package series inductance (H).
    pub l_pkg: f64,
    /// Pad capacitance (F).
    pub c_pad: f64,
    /// Series resistance of each ESD clamp branch (Ω).
    pub r_esd: f64,
    /// Input edge time of the idealized core signal (s).
    pub t_edge_core: f64,
}

/// Nodes of an instantiated driver.
#[derive(Debug, Clone, Copy)]
pub struct DriverPorts {
    /// Supply node (driven by an internal ideal source).
    pub vdd: Node,
    /// Output pad node — connect the load here.
    pub pad: Node,
    /// Handle of the series probe source; branch 0 carries the current
    /// delivered by the driver into the external circuit.
    pub probe: DeviceId,
}

impl CmosDriverSpec {
    fn validate(&self) -> Result<()> {
        if self.vdd <= 0.0 {
            return Err(Error::InvalidSpec {
                message: format!("vdd must be positive, got {}", self.vdd),
            });
        }
        if self.stages == 0 {
            return Err(Error::InvalidSpec {
                message: "at least one pre-driver stage is required".into(),
            });
        }
        if self.wl_final_n <= 0.0 || self.p_over_n <= 0.0 || self.taper <= 0.0 {
            return Err(Error::InvalidSpec {
                message: "sizing factors must be positive".into(),
            });
        }
        Ok(())
    }

    /// Instantiates the driver into `ckt`, driving the logic input with
    /// `input`. Returns the port nodes.
    ///
    /// The input waveform uses logic levels `0..vdd` (use
    /// [`SourceWaveform::bit_pattern`] with `low = 0`, `high = vdd`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSpec`] for inconsistent specs.
    pub fn instantiate(&self, ckt: &mut Circuit, input: SourceWaveform) -> Result<DriverPorts> {
        self.validate()?;
        let nm = self.name;
        let vdd = ckt.node(format!("{nm}_vdd"));
        ckt.add(VoltageSource::new(
            format!("{nm}_vdd_src"),
            vdd,
            GROUND,
            SourceWaveform::dc(self.vdd),
        ));

        let n_in = ckt.node(format!("{nm}_core_in"));
        ckt.add(VoltageSource::new(
            format!("{nm}_core"),
            n_in,
            GROUND,
            input,
        ));

        // Pre-driver chain. An even total inversion count keeps the pad
        // non-inverting: chain stages + final stage must be even.
        let mut stages = self.stages;
        if !(stages + 1).is_multiple_of(2) {
            stages += 1;
        }
        // Smallest stage W/L so that the chain tapers up to the final stage.
        let wl_first = (self.wl_final_n / self.taper.powi(stages as i32)).max(1.0);

        let mut prev = n_in;
        for s in 0..stages {
            let wl_n = wl_first * self.taper.powi(s as i32);
            let out = ckt.node(format!("{nm}_st{s}"));
            self.add_inverter(ckt, &format!("{nm}_inv{s}"), prev, out, vdd, wl_n)?;
            prev = out;
        }

        // Final stage.
        let drain = ckt.node(format!("{nm}_drain"));
        self.add_inverter(ckt, &format!("{nm}_fin"), prev, drain, vdd, self.wl_final_n)?;
        ckt.add(Capacitor::new(
            format!("{nm}_cdb"),
            drain,
            GROUND,
            (self.c_drain_unit * self.wl_final_n).max(1e-16),
        ));

        // Package and pad.
        let mid = ckt.node(format!("{nm}_pkg"));
        ckt.add(Resistor::new(
            format!("{nm}_rpkg"),
            drain,
            mid,
            self.r_pkg.max(1e-3),
        ));
        let pad_int = ckt.node(format!("{nm}_pad_i"));
        ckt.add(Inductor::new(
            format!("{nm}_lpkg"),
            mid,
            pad_int,
            self.l_pkg.max(1e-13),
        ));
        ckt.add(Capacitor::new(
            format!("{nm}_cpad"),
            pad_int,
            GROUND,
            self.c_pad.max(1e-16),
        ));
        // ESD clamps: pad above VDD or below GND turns a diode on. Each
        // branch carries a series resistance that bounds the clamp current.
        let n_esd_hi = ckt.node(format!("{nm}_esd_hi"));
        ckt.add(Diode::new(
            format!("{nm}_dclamp_hi"),
            pad_int,
            n_esd_hi,
            DiodeParams::esd_clamp(),
        ));
        ckt.add(Resistor::new(
            format!("{nm}_resd_hi"),
            n_esd_hi,
            vdd,
            self.r_esd.max(0.1),
        ));
        let n_esd_lo = ckt.node(format!("{nm}_esd_lo"));
        ckt.add(Diode::new(
            format!("{nm}_dclamp_lo"),
            n_esd_lo,
            pad_int,
            DiodeParams::esd_clamp(),
        ));
        ckt.add(Resistor::new(
            format!("{nm}_resd_lo"),
            GROUND,
            n_esd_lo,
            self.r_esd.max(0.1),
        ));

        // Series probe: branch current = current delivered into the load.
        let pad = ckt.node(format!("{nm}_pad"));
        let probe = ckt.add(VoltageSource::probe(format!("{nm}_iprobe"), pad_int, pad));

        Ok(DriverPorts { vdd, pad, probe })
    }

    fn add_inverter(
        &self,
        ckt: &mut Circuit,
        label: &str,
        input: Node,
        output: Node,
        vdd: Node,
        wl_n: f64,
    ) -> Result<()> {
        let wl_p = wl_n * self.p_over_n;
        let mut np = self.nmos_unit;
        np.w = self.nmos_unit.w * wl_n;
        let mut pp = self.pmos_unit;
        pp.w = self.pmos_unit.w * wl_p;
        ckt.add(Mosfet::new(
            format!("{label}_n"),
            output,
            input,
            GROUND,
            MosPolarity::Nmos,
            np,
        ));
        ckt.add(Mosfet::new(
            format!("{label}_p"),
            output,
            input,
            vdd,
            MosPolarity::Pmos,
            pp,
        ));
        // Lumped gate capacitance at the input, output junction cap at out.
        ckt.add(Capacitor::new(
            format!("{label}_cg"),
            input,
            GROUND,
            (self.c_gate_unit * (wl_n + wl_p)).max(1e-17),
        ));
        ckt.add(Capacitor::new(
            format!("{label}_cj"),
            output,
            GROUND,
            (0.4 * self.c_gate_unit * (wl_n + wl_p)).max(1e-17),
        ));
        Ok(())
    }

    /// Convenience: the bit-pattern waveform for this driver's logic levels.
    pub fn pattern(&self, bits: &str, bit_time: f64) -> SourceWaveform {
        SourceWaveform::bit_pattern(bits, bit_time, self.t_edge_core, 0.0, self.vdd, 0.0)
    }
}

fn unit_mos(vt0: f64, kp: f64, _nmos: bool) -> MosfetParams {
    MosfetParams {
        vt0,
        kp,
        w: 1e-6,
        l: 1e-6,
        lambda: 0.05,
    }
}

/// MD1: a 3.3 V LVC-class octal-buffer output (74LVC244 stand-in).
///
/// Sized for roughly ±24 mA drive at the rails and ~1.5 ns pad edges.
pub fn md1() -> CmosDriverSpec {
    CmosDriverSpec {
        name: "md1",
        vdd: 3.3,
        nmos_unit: unit_mos(0.6, 150e-6, true),
        pmos_unit: unit_mos(-0.6, 65e-6, false),
        wl_final_n: 150.0,
        p_over_n: 2.5,
        taper: 3.0,
        stages: 2,
        c_gate_unit: 2e-15,
        c_drain_unit: 1.5e-15,
        r_pkg: 1.0,
        l_pkg: 2.5e-9,
        c_pad: 1.5e-12,
        r_esd: 4.0,
        t_edge_core: 300e-12,
    }
}

/// MD2: a 1.8 V high-speed CMOS driver (IBM mainframe class).
pub fn md2() -> CmosDriverSpec {
    CmosDriverSpec {
        name: "md2",
        vdd: 1.8,
        nmos_unit: unit_mos(0.42, 300e-6, true),
        pmos_unit: unit_mos(-0.42, 130e-6, false),
        wl_final_n: 200.0,
        p_over_n: 2.3,
        taper: 3.5,
        stages: 2,
        c_gate_unit: 1.2e-15,
        c_drain_unit: 1.0e-15,
        r_pkg: 0.6,
        l_pkg: 1.2e-9,
        c_pad: 1.0e-12,
        r_esd: 3.0,
        t_edge_core: 150e-12,
    }
}

/// MD3: a 1.5 V CMOS driver used on the coupled-MCM experiment.
pub fn md3() -> CmosDriverSpec {
    CmosDriverSpec {
        name: "md3",
        vdd: 1.5,
        nmos_unit: unit_mos(0.38, 320e-6, true),
        pmos_unit: unit_mos(-0.38, 140e-6, false),
        wl_final_n: 180.0,
        p_over_n: 2.3,
        taper: 3.0,
        stages: 2,
        c_gate_unit: 1.0e-15,
        c_drain_unit: 0.8e-15,
        r_pkg: 0.5,
        l_pkg: 1.0e-9,
        c_pad: 0.8e-12,
        r_esd: 3.0,
        t_edge_core: 120e-12,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::TranParams;

    #[test]
    fn presets_validate() {
        for spec in [md1(), md2(), md3()] {
            assert!(spec.validate().is_ok(), "{} invalid", spec.name);
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut s = md1();
        s.vdd = 0.0;
        assert!(s.validate().is_err());
        let mut s = md1();
        s.stages = 0;
        assert!(s.validate().is_err());
        let mut s = md1();
        s.taper = 0.0;
        assert!(s.validate().is_err());
    }

    /// Static levels: with the input held low/high the pad must sit at the
    /// rails (non-inverting buffer).
    #[test]
    fn static_levels_rail_to_rail() {
        for (input, expect) in [(0.0, 0.0), (3.3, 3.3)] {
            let spec = md1();
            let mut ckt = Circuit::new();
            let ports = spec
                .instantiate(&mut ckt, SourceWaveform::dc(input))
                .unwrap();
            // Light load keeps the pad from floating.
            ckt.add(Resistor::new("rload", ports.pad, GROUND, 1e6));
            let x = ckt.dc_operating_point().unwrap();
            let vpad = x[ports.pad.index() - 1];
            assert!(
                (vpad - expect).abs() < 0.05,
                "input {input}: pad at {vpad}, expected {expect}"
            );
        }
    }

    /// Dynamic switching into a resistive load: the pad must perform a
    /// full-swing transition with finite, device-limited edge time.
    #[test]
    fn switching_edge_is_device_limited() {
        let spec = md2();
        let mut ckt = Circuit::new();
        let ports = spec
            .instantiate(&mut ckt, spec.pattern("01", 3e-9))
            .unwrap();
        ckt.add(Resistor::new("rload", ports.pad, GROUND, 100.0));
        let res = ckt.transient(TranParams::new(10e-12, 6e-9)).unwrap();
        let v = res.voltage(ports.pad);
        // Starts low, ends high.
        assert!(v.sample_at(2.5e-9) < 0.2);
        assert!(v.sample_at(5.8e-9) > 0.9 * 1.8 * 100.0 / 100.6 - 0.1);
        // 20–80% rise time within a plausible device range (not the 150 ps
        // core edge, not slower than 2 ns).
        let lo = v.threshold_crossings(0.2 * 1.8);
        let hi = v.threshold_crossings(0.8 * 1.8);
        assert!(!lo.is_empty() && !hi.is_empty());
        let tr = hi[0].time - lo[0].time;
        assert!(tr > 30e-12 && tr < 2e-9, "rise time {tr:.3e}");
    }

    /// The current probe measures the load current.
    #[test]
    fn probe_reads_load_current() {
        let spec = md1();
        let mut ckt = Circuit::new();
        let ports = spec.instantiate(&mut ckt, SourceWaveform::dc(3.3)).unwrap();
        ckt.add(Resistor::new("rload", ports.pad, GROUND, 330.0));
        let res = ckt.transient(TranParams::new(50e-12, 3e-9)).unwrap();
        let i = res.branch_current(&ckt, ports.probe, 0);
        let v = res.voltage(ports.pad);
        let i_end = *i.values().last().unwrap();
        let v_end = *v.values().last().unwrap();
        assert!(
            (i_end - v_end / 330.0).abs() < 1e-4,
            "probe {i_end} vs v/R {}",
            v_end / 330.0
        );
        assert!(i_end > 5e-3, "driver should source several mA, got {i_end}");
    }

    /// ESD clamps engage when the pad is driven beyond the rails.
    #[test]
    fn clamps_conduct_beyond_rails() {
        let spec = md3();
        let mut ckt = Circuit::new();
        let ports = spec.instantiate(&mut ckt, SourceWaveform::dc(0.0)).unwrap();
        let next = ckt.node("ext");
        ckt.add(Resistor::new("rext", ports.pad, next, 10.0));
        ckt.add(VoltageSource::new(
            "vext",
            next,
            GROUND,
            SourceWaveform::dc(spec.vdd + 1.0),
        ));
        let x = ckt.dc_operating_point().unwrap();
        let vpad = x[ports.pad.index() - 1];
        // Clamp holds the pad within a diode drop of the rail even though
        // the external source pulls a volt higher.
        assert!(
            vpad < spec.vdd + 0.95,
            "pad {vpad} should be clamped near vdd {}",
            spec.vdd
        );
    }
}
