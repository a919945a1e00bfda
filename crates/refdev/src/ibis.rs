//! IBIS-style behavioral driver model: the paper's comparison baseline.
//!
//! The model follows the structure of the Input/output Buffer Information
//! Specification (IBIS 2.1): static pullup/pulldown I–V tables, a fixed die
//! capacitance `C_comp`, and switching-coefficient waveforms `Ku(t)`,
//! `Kd(t)` that blend the two tables during an edge:
//!
//! ```text
//! i_out(v, t) = Ku(t) · I_pu(v) + Kd(t) · I_pd(v)
//! ```
//!
//! `Ku/Kd` are recovered from *two* rising and two falling V–T waveforms
//! captured into different resistive fixtures (the "two-waveform method"):
//! at each instant the two load equations form a 2×2 system in `(Ku, Kd)`.
//!
//! The essential limitation the paper demonstrates: the I–V tables are
//! one-dimensional and `Ku/Kd` are fixed time templates, so the model cannot
//! react to load dynamics during a transition — which is exactly where the
//! PW-RBF model wins.

use crate::drivers::CmosDriverSpec;
use crate::extraction::{capture_driver, driver_output_iv};
use crate::{Error, Result};
use circuit::devices::{Capacitor, Resistor, SourceWaveform, VoltageSource};
use circuit::mna::{register_conductance, stamp_linearized_current, EvalCtx};
use circuit::{Circuit, Device, Node, PatternBuilder, StampWorkspace, GROUND};
use numkit::interp::Pwl;

/// Process corner of an IBIS model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IbisCorner {
    /// Weak process, high C, slow edges.
    Slow,
    /// Nominal.
    Typical,
    /// Strong process, low C, fast edges.
    Fast,
}

impl IbisCorner {
    /// `(current scale, capacitance scale, time scale)` relative to typical.
    pub fn scales(&self) -> (f64, f64, f64) {
        match self {
            IbisCorner::Slow => (0.80, 1.15, 1.25),
            IbisCorner::Typical => (1.0, 1.0, 1.0),
            IbisCorner::Fast => (1.25, 0.85, 0.80),
        }
    }
}

/// An extracted IBIS-style model.
#[derive(Debug, Clone)]
pub struct IbisModel {
    /// Source device name.
    pub name: String,
    /// Supply voltage (V).
    pub vdd: f64,
    /// Current delivered by the output vs. pad voltage, logic high.
    pub pullup: Pwl,
    /// Current delivered vs. pad voltage, logic low.
    pub pulldown: Pwl,
    /// Die capacitance (F).
    pub c_comp: f64,
    /// Switching-table timestep (s).
    pub dt: f64,
    /// Rising-edge pullup coefficient over time.
    pub ku_rise: Vec<f64>,
    /// Rising-edge pulldown coefficient.
    pub kd_rise: Vec<f64>,
    /// Falling-edge pullup coefficient.
    pub ku_fall: Vec<f64>,
    /// Falling-edge pulldown coefficient.
    pub kd_fall: Vec<f64>,
}

/// Extraction configuration for [`IbisModel::extract`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IbisExtractConfig {
    /// Number of points in the I–V tables.
    pub iv_points: usize,
    /// Fixture resistance for the V–T waveforms (Ω).
    pub r_fixture: f64,
    /// Sampling step of the switching tables (s).
    pub dt: f64,
    /// Captured edge duration (s).
    pub t_table: f64,
}

impl Default for IbisExtractConfig {
    fn default() -> Self {
        IbisExtractConfig {
            iv_points: 41,
            r_fixture: 50.0,
            dt: 25e-12,
            t_table: 4e-9,
        }
    }
}

impl IbisModel {
    /// Extracts an IBIS model from a transistor-level driver spec.
    ///
    /// Sequence: pullup/pulldown DC sweeps over `[-vdd/2, 1.5 vdd]`, then
    /// rising and falling transitions into `r_fixture`-to-ground and
    /// `r_fixture`-to-VDD fixtures, and finally the per-sample 2×2 solve for
    /// `Ku/Kd`.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures from the extraction runs.
    pub fn extract(spec: &CmosDriverSpec, cfg: IbisExtractConfig) -> Result<IbisModel> {
        let vdd = spec.vdd;
        let v_range = (-0.5 * vdd, 1.5 * vdd);
        // The pullup and pulldown table sweeps are independent.
        let (pu, pd) = numkit::par::join(
            || driver_output_iv(spec, true, v_range, cfg.iv_points),
            || driver_output_iv(spec, false, v_range, cfg.iv_points),
        );
        let (pu, pd) = (pu?, pd?);
        let pullup = Pwl::new(pu.voltages.clone(), pu.currents)?;
        let pulldown = Pwl::new(pd.voltages.clone(), pd.currents)?;

        // Switching waveforms: settle for one bit, transition at t_bit.
        let t_bit = cfg.t_table;
        let capture = |rising: bool, to_vdd: bool| -> Result<(Vec<f64>, Vec<f64>)> {
            let pattern = if rising { "01" } else { "10" };
            let cap = capture_driver(
                spec,
                spec.pattern(pattern, t_bit),
                |ckt, pad| {
                    if to_vdd {
                        let vt = ckt.node("fix_v");
                        ckt.add(VoltageSource::new(
                            "v_fix",
                            vt,
                            GROUND,
                            SourceWaveform::dc(vdd),
                        ));
                        ckt.add(Resistor::new("r_fix", pad, vt, cfg.r_fixture));
                    } else {
                        ckt.add(Resistor::new("r_fix", pad, GROUND, cfg.r_fixture));
                    }
                    Ok(())
                },
                cfg.dt,
                2.0 * t_bit,
            )?;
            // Align the table to the logic edge at t_bit.
            let n = (cfg.t_table / cfg.dt).round() as usize;
            let mut v = Vec::with_capacity(n);
            let mut i = Vec::with_capacity(n);
            for k in 0..n {
                let t = t_bit + k as f64 * cfg.dt;
                v.push(cap.voltage.sample_at(t));
                i.push(cap.current.sample_at(t));
            }
            Ok((v, i))
        };

        // Four independent V–T waveform captures (rise/fall × two fixtures).
        let fixtures = vec![(true, false), (true, true), (false, false), (false, true)];
        let caps = numkit::par::map(fixtures, |(rising, to_vdd)| capture(rising, to_vdd));
        let caps: Vec<_> = caps.into_iter().collect::<Result<_>>()?;
        let [(v1r, i1r), (v2r, i2r), (v1f, i1f), (v2f, i2f)] = caps.try_into().expect("four jobs");

        let (ku_rise, kd_rise) =
            solve_switching(&pullup, &pulldown, &v1r, &i1r, &v2r, &i2r, (0.0, 1.0))?;
        let (ku_fall, kd_fall) =
            solve_switching(&pullup, &pulldown, &v1f, &i1f, &v2f, &i2f, (1.0, 0.0))?;

        Ok(IbisModel {
            name: spec.name.to_string(),
            vdd,
            pullup,
            pulldown,
            c_comp: spec.c_pad + 0.5e-12,
            dt: cfg.dt,
            ku_rise,
            kd_rise,
            ku_fall,
            kd_fall,
        })
    }

    /// Returns a corner-scaled copy (currents, capacitance, edge time).
    ///
    /// # Errors
    ///
    /// Never fails for valid models; propagates internal table rebuilds.
    pub fn with_corner(&self, corner: IbisCorner) -> Result<IbisModel> {
        let (si, sc, st) = corner.scales();
        let scale_pwl = |p: &Pwl| -> Result<Pwl> {
            Ok(Pwl::new(
                p.x().to_vec(),
                p.y().iter().map(|&y| y * si).collect(),
            )?)
        };
        Ok(IbisModel {
            name: format!("{}_{:?}", self.name, corner),
            vdd: self.vdd,
            pullup: scale_pwl(&self.pullup)?,
            pulldown: scale_pwl(&self.pulldown)?,
            c_comp: self.c_comp * sc,
            dt: self.dt * st,
            ku_rise: self.ku_rise.clone(),
            kd_rise: self.kd_rise.clone(),
            ku_fall: self.ku_fall.clone(),
            kd_fall: self.kd_fall.clone(),
        })
    }

    /// Duration of the switching tables (s).
    pub fn table_duration(&self) -> f64 {
        self.dt * self.ku_rise.len().max(1) as f64
    }

    /// Checks the structural invariants a consumer (circuit device or
    /// model-exchange loader) relies on: positive finite `dt` and `c_comp`,
    /// equal-length coefficient tables with at least one sample, finite
    /// coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSpec`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        if self.dt <= 0.0 || !self.dt.is_finite() {
            return Err(Error::InvalidSpec {
                message: format!("switching-table timestep must be positive, got {}", self.dt),
            });
        }
        if !self.vdd.is_finite() {
            return Err(Error::InvalidSpec {
                message: format!("supply voltage must be finite, got {}", self.vdd),
            });
        }
        if self.c_comp <= 0.0 || !self.c_comp.is_finite() {
            return Err(Error::InvalidSpec {
                message: format!("die capacitance must be positive, got {}", self.c_comp),
            });
        }
        let n = self.ku_rise.len();
        if n == 0 || self.kd_rise.len() != n || self.ku_fall.len() != n || self.kd_fall.len() != n {
            return Err(Error::InvalidSpec {
                message: "switching tables must be non-empty and equal in length".into(),
            });
        }
        let tables = [&self.ku_rise, &self.kd_rise, &self.ku_fall, &self.kd_fall];
        if tables.iter().any(|t| t.iter().any(|k| !k.is_finite())) {
            return Err(Error::InvalidSpec {
                message: "switching coefficients must be finite".into(),
            });
        }
        Ok(())
    }

    /// One-line structural summary (table sizes and die capacitance).
    pub fn summary(&self) -> String {
        format!(
            "IBIS '{}': {} I-V points (pu) / {} (pd), C_comp = {:.3e} F, \
             {} switching samples at dt = {:.3e} s",
            self.name,
            self.pullup.x().len(),
            self.pulldown.x().len(),
            self.c_comp,
            self.ku_rise.len(),
            self.dt
        )
    }

    /// Installs the output stage and `C_comp` at an existing node `pad`.
    /// Outside this crate the model enters a circuit through the
    /// macromodel trait, which checks the pattern and bit time first.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-`0`/`1` pattern or a bit time that is not
    /// positive (see [`IbisDriver::new`]).
    pub fn instantiate_at(&self, ckt: &mut Circuit, pad: Node, pattern: &str, bit_time: f64) {
        ckt.add(IbisDriver::new(self.clone(), pad, pattern, bit_time));
        ckt.add(Capacitor::new(
            format!("{}_ccomp", self.name),
            pad,
            GROUND,
            self.c_comp,
        ));
    }
}

/// Per-sample 2×2 solve for the switching coefficients.
///
/// `(k_start, k_end)` are the known steady-state values of `Ku` before and
/// after the edge, used to regularize near-singular samples (start/end of
/// the transition where both fixtures see the same conditions).
#[allow(clippy::too_many_arguments)]
fn solve_switching(
    pullup: &Pwl,
    pulldown: &Pwl,
    v1: &[f64],
    i1: &[f64],
    v2: &[f64],
    i2: &[f64],
    (k_start, k_end): (f64, f64),
) -> Result<(Vec<f64>, Vec<f64>)> {
    if v1.len() != i1.len() || v2.len() != i2.len() || v1.len() != v2.len() {
        return Err(Error::InvalidSpec {
            message: "switching waveform lengths differ".into(),
        });
    }
    let n = v1.len();
    let mut ku = Vec::with_capacity(n);
    let mut kd = Vec::with_capacity(n);
    let mut prev = (k_start, 1.0 - k_start);
    for k in 0..n {
        let a11 = pullup.eval(v1[k]);
        let a12 = pulldown.eval(v1[k]);
        let a21 = pullup.eval(v2[k]);
        let a22 = pulldown.eval(v2[k]);
        let det = a11 * a22 - a12 * a21;
        let scale = a11.abs().max(a12.abs()).max(a21.abs()).max(a22.abs());
        let (u, d) = if det.abs() > 1e-6 * scale * scale && scale > 0.0 {
            let u = (i1[k] * a22 - a12 * i2[k]) / det;
            let d = (a11 * i2[k] - i1[k] * a21) / det;
            (u.clamp(-0.2, 1.4), d.clamp(-0.2, 1.4))
        } else {
            prev
        };
        prev = (u, d);
        ku.push(u);
        kd.push(d);
    }
    // Anchor the endpoints at the exact steady-state values.
    if n > 0 {
        ku[0] = k_start;
        kd[0] = 1.0 - k_start;
        ku[n - 1] = k_end;
        kd[n - 1] = 1.0 - k_end;
    }
    Ok((ku, kd))
}

/// A scheduled logic edge of the IBIS driver.
#[derive(Debug, Clone, Copy)]
struct Edge {
    t: f64,
    rising: bool,
}

/// The IBIS output stage as a circuit device (static tables + switching
/// coefficients). [`IbisModel::instantiate_at`] adds it together with the
/// model's `C_comp` capacitor.
#[derive(Debug, Clone)]
pub struct IbisDriver {
    label: String,
    model: IbisModel,
    out: Node,
    edges: Vec<Edge>,
    initial_high: bool,
}

impl IbisDriver {
    /// Creates a driver producing `pattern` with the given bit time.
    ///
    /// # Panics
    ///
    /// Panics on an invalid pattern string (see
    /// [`SourceWaveform::bit_pattern`] for the convention) or a bit time
    /// that is not positive: the edge lookup needs the edges in time order.
    pub fn new(model: IbisModel, out: Node, pattern: &str, bit_time: f64) -> Self {
        assert!(bit_time > 0.0, "bit time must be positive, got {bit_time}");
        let bits: Vec<bool> = pattern
            .chars()
            .map(|c| match c {
                '0' => false,
                '1' => true,
                other => panic!("invalid bit character '{other}' in pattern"),
            })
            .collect();
        assert!(!bits.is_empty(), "pattern must not be empty");
        let mut edges = Vec::new();
        for k in 1..bits.len() {
            if bits[k] != bits[k - 1] {
                edges.push(Edge {
                    t: k as f64 * bit_time,
                    rising: bits[k],
                });
            }
        }
        IbisDriver {
            label: format!("{}_ibis_drv", model.name),
            model,
            out,
            edges,
            initial_high: bits[0],
        }
    }

    /// Switching coefficients at absolute time `t`.
    fn ku_kd_at(&self, t: f64) -> (f64, f64) {
        // The most recent edge at or before t; the edges are in time order.
        let n = self.edges.partition_point(|e| e.t <= t);
        let high = match self.edges[..n].last() {
            Some(e) => {
                let tau = t - e.t;
                if tau < self.model.table_duration() {
                    let (ku_tab, kd_tab) = if e.rising {
                        (&self.model.ku_rise, &self.model.kd_rise)
                    } else {
                        (&self.model.ku_fall, &self.model.kd_fall)
                    };
                    let idx = tau / self.model.dt;
                    let k0 = (idx.floor() as usize).min(ku_tab.len() - 1);
                    let k1 = (k0 + 1).min(ku_tab.len() - 1);
                    let f = (idx - k0 as f64).clamp(0.0, 1.0);
                    return (
                        ku_tab[k0] + f * (ku_tab[k1] - ku_tab[k0]),
                        kd_tab[k0] + f * (kd_tab[k1] - kd_tab[k0]),
                    );
                }
                e.rising
            }
            None => self.initial_high,
        };
        if high {
            (1.0, 0.0)
        } else {
            (0.0, 1.0)
        }
    }
}

impl Device for IbisDriver {
    fn label(&self) -> &str {
        &self.label
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn register(&self, pb: &mut PatternBuilder) {
        register_conductance(pb, self.out, GROUND);
    }

    fn stamp(&self, ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        let t = ctx.mode.time();
        let (ku, kd) = self.ku_kd_at(t);
        let v = ctx.v(self.out);
        // Delivered current and its slope from the PWL tables.
        let i_del = ku * self.model.pullup.eval(v) + kd * self.model.pulldown.eval(v);
        let g_del = ku * self.model.pullup.slope(v) + kd * self.model.pulldown.slope(v);
        // The device *injects* i_del into the node: current leaving = -i_del.
        stamp_linearized_current(ws, self.out, GROUND, -i_del, -g_del, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::md1;
    use circuit::TranParams;

    fn small_cfg() -> IbisExtractConfig {
        IbisExtractConfig {
            iv_points: 21,
            r_fixture: 50.0,
            dt: 50e-12,
            t_table: 3e-9,
        }
    }

    fn tiny_model() -> IbisModel {
        IbisModel {
            name: "tiny".into(),
            vdd: 3.3,
            pullup: Pwl::new(vec![0.0, 3.3], vec![0.05, 0.0]).unwrap(),
            pulldown: Pwl::new(vec![0.0, 3.3], vec![0.0, -0.05]).unwrap(),
            c_comp: 1e-12,
            dt: 50e-12,
            ku_rise: vec![0.0, 1.0],
            kd_rise: vec![1.0, 0.0],
            ku_fall: vec![1.0, 0.0],
            kd_fall: vec![0.0, 1.0],
        }
    }

    #[test]
    fn validate_rejects_non_finite_vdd() {
        // Regression: vdd had no finiteness check at all.
        assert!(tiny_model().validate().is_ok());
        let mut bad = tiny_model();
        bad.vdd = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = tiny_model();
        bad.vdd = f64::INFINITY;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn corner_scales() {
        assert_eq!(IbisCorner::Typical.scales(), (1.0, 1.0, 1.0));
        let (si, sc, st) = IbisCorner::Fast.scales();
        assert!(si > 1.0 && sc < 1.0 && st < 1.0);
        let (si, sc, st) = IbisCorner::Slow.scales();
        assert!(si < 1.0 && sc > 1.0 && st > 1.0);
    }

    #[test]
    fn extraction_produces_consistent_model() {
        let model = IbisModel::extract(&md1(), small_cfg()).unwrap();
        // Pullup sources current at v = 0, pulldown sinks at v = vdd.
        assert!(model.pullup.eval(0.0) > 10e-3);
        assert!(model.pulldown.eval(3.3) < -10e-3);
        // Steady-state coefficient anchors.
        assert_eq!(model.ku_rise[0], 0.0);
        assert_eq!(*model.ku_rise.last().unwrap(), 1.0);
        assert_eq!(model.ku_fall[0], 1.0);
        assert_eq!(*model.ku_fall.last().unwrap(), 0.0);
        // Coefficients stay within the clamped range.
        for k in model.ku_rise.iter().chain(&model.kd_rise) {
            assert!(*k >= -0.2 && *k <= 1.4);
        }
        assert!(model.table_duration() > 1e-9);
    }

    #[test]
    fn corner_model_scales_tables() {
        let model = IbisModel::extract(&md1(), small_cfg()).unwrap();
        let fast = model.with_corner(IbisCorner::Fast).unwrap();
        assert!(fast.pullup.eval(0.0) > model.pullup.eval(0.0));
        assert!(fast.c_comp < model.c_comp);
        assert!(fast.table_duration() < model.table_duration());
        let slow = model.with_corner(IbisCorner::Slow).unwrap();
        assert!(slow.pullup.eval(0.0) < model.pullup.eval(0.0));
    }

    /// The IBIS model must reproduce the reference behaviour on the very
    /// fixture it was extracted from (sanity of the two-waveform method).
    #[test]
    fn ibis_reproduces_extraction_fixture() {
        let spec = md1();
        let model = IbisModel::extract(&spec, small_cfg()).unwrap();
        // Reference: transistor-level into 50 Ω.
        let ref_cap = crate::extraction::capture_driver(
            &spec,
            spec.pattern("01", 3e-9),
            |ckt, pad| {
                ckt.add(Resistor::new("r", pad, GROUND, 50.0));
                Ok(())
            },
            50e-12,
            6e-9,
        )
        .unwrap();
        // IBIS model into the same fixture.
        let mut ckt = Circuit::new();
        let out = ckt.node(format!("{}_out", model.name));
        model.instantiate_at(&mut ckt, out, "01", 3e-9);
        ckt.add(Resistor::new("r", out, GROUND, 50.0));
        let res = ckt.transient(TranParams::new(50e-12, 6e-9)).unwrap();
        let v_ibis = res.voltage(out);
        // Compare after the edge has begun.
        let err = circuit::waveform::rms_difference(&v_ibis.window(2.5e-9, 6e-9), &ref_cap.voltage);
        assert!(err < 0.25, "rms error on extraction fixture {err}");
    }

    #[test]
    fn driver_schedule_states() {
        let model = IbisModel::extract(&md1(), small_cfg()).unwrap();
        let d = IbisDriver::new(model.clone(), Node::from_raw(1), "010", 5e-9);
        // Before the first edge: low.
        assert_eq!(d.ku_kd_at(1e-9), (0.0, 1.0));
        // Long after the rising edge at 5 ns: high.
        let (ku, kd) = d.ku_kd_at(5e-9 + model.table_duration() + 1e-9);
        assert_eq!((ku, kd), (1.0, 0.0));
        // Long after the falling edge at 10 ns: low again.
        let (ku, kd) = d.ku_kd_at(10e-9 + model.table_duration() + 1e-9);
        assert_eq!((ku, kd), (0.0, 1.0));
    }

    /// The edge lookup of `ku_kd_at` as the linear scan it replaced.
    fn ku_kd_by_scan(d: &IbisDriver, t: f64) -> (f64, f64) {
        let mut state_high = d.initial_high;
        let mut active: Option<(f64, bool)> = None;
        for e in &d.edges {
            if e.t <= t {
                state_high = e.rising;
                active = Some((e.t, e.rising));
            } else {
                break;
            }
        }
        if let Some((t0, rising)) = active {
            let tau = t - t0;
            if tau < d.model.table_duration() {
                let (ku_tab, kd_tab) = if rising {
                    (&d.model.ku_rise, &d.model.kd_rise)
                } else {
                    (&d.model.ku_fall, &d.model.kd_fall)
                };
                let idx = tau / d.model.dt;
                let k0 = (idx.floor() as usize).min(ku_tab.len() - 1);
                let k1 = (k0 + 1).min(ku_tab.len() - 1);
                let f = (idx - k0 as f64).clamp(0.0, 1.0);
                return (
                    ku_tab[k0] + f * (ku_tab[k1] - ku_tab[k0]),
                    kd_tab[k0] + f * (kd_tab[k1] - kd_tab[k0]),
                );
            }
        }
        if state_high {
            (1.0, 0.0)
        } else {
            (0.0, 1.0)
        }
    }

    #[test]
    fn ku_kd_at_matches_a_linear_scan() {
        let model = IbisModel::extract(&md1(), small_cfg()).unwrap();
        let dt = model.dt;
        for pattern in ["0110100111010001", "1011000"] {
            let d = IbisDriver::new(model.clone(), Node::from_raw(1), pattern, 0.7e-9 / 3.0);
            let mut times = vec![-1e-9, 0.0, 1e-18];
            for e in &d.edges {
                for off in [-2e-18, -1e-18, -0.5e-18, 0.0, 0.5e-18, 1e-18] {
                    times.push(e.t + off);
                }
                times.extend((1..12).map(|k| e.t + k as f64 * 0.37 * dt));
            }
            times.push(20e-9);
            for t in times {
                let (got, want) = (d.ku_kd_at(t), ku_kd_by_scan(&d, t));
                assert_eq!(got.0.to_bits(), want.0.to_bits(), "{pattern} at {t:e}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "{pattern} at {t:e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid bit character")]
    fn driver_rejects_bad_pattern() {
        let model = IbisModel::extract(&md1(), small_cfg()).unwrap();
        IbisDriver::new(model, Node::from_raw(1), "0z", 1e-9);
    }
}
