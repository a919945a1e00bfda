//! Circuit container: nodes, devices and analysis entry points.

use crate::workspace::{PatternBuilder, StampWorkspace};
use crate::{solver, transient, Device, Error, ProbedResult, Result, TranParams, TranResult};

/// A circuit node handle.
///
/// Node 0 is always ground ([`GROUND`]). Nodes are created through
/// [`Circuit::node`] and are only meaningful for the circuit that created
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node(usize);

/// The ground (reference) node.
pub const GROUND: Node = Node(0);

impl Node {
    /// Constructs a node from a raw index. Intended for tests and internal
    /// use; regular code should obtain nodes from [`Circuit::node`].
    pub fn from_raw(i: usize) -> Self {
        Node(i)
    }

    /// Raw index of the node (0 = ground).
    #[inline]
    pub fn index(&self) -> usize {
        self.0
    }

    /// Whether this is the ground node.
    #[inline]
    pub fn is_ground(&self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_ground() {
            write!(f, "gnd")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// Relative tolerance of a transient step against a device's sample clock
/// (see [`Device::sample_clock`]).
const SAMPLE_CLOCK_TOL: f64 = 1e-6;

/// Handle to a device added to a [`Circuit`], used to query branch currents
/// from analysis results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceId(pub(crate) usize);

/// A netlist: a set of nodes and devices, plus analysis entry points.
///
/// See the [crate-level documentation](crate) for a usage example.
pub struct Circuit {
    n_nodes: usize,
    node_names: Vec<String>,
    devices: Vec<Box<dyn Device>>,
    /// Branch base per device, relative to the start of the branch block
    /// (parallel to `devices`).
    branch_bases: Vec<usize>,
    n_branches: usize,
    /// Number of devices before the first nonlinear one, in netlist order.
    linear_prefix: usize,
    /// Indices of the linear and of the nonlinear devices, each in netlist
    /// order.
    linear: Vec<usize>,
    nonlinear: Vec<usize>,
    /// Minimum conductance from every node to ground (numerical safety net).
    gmin: f64,
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Circuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Circuit")
            .field("n_nodes", &self.n_nodes)
            .field("n_devices", &self.devices.len())
            .field("n_branches", &self.n_branches)
            .finish()
    }
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Circuit {
            n_nodes: 1,
            node_names: vec!["gnd".to_string()],
            devices: Vec::new(),
            branch_bases: Vec::new(),
            n_branches: 0,
            linear_prefix: 0,
            linear: Vec::new(),
            nonlinear: Vec::new(),
            gmin: 1e-12,
        }
    }

    /// Creates a new named node and returns its handle.
    pub fn node(&mut self, name: impl Into<String>) -> Node {
        let n = Node(self.n_nodes);
        self.n_nodes += 1;
        self.node_names.push(name.into());
        n
    }

    /// Adds a device and returns its handle.
    ///
    /// Branch unknowns are laid out lazily (see `Circuit::finalize`), so
    /// nodes and devices may be interleaved freely during construction.
    /// The device's [`Device::is_nonlinear`] is read here, once: the
    /// solvers walk the linear and nonlinear devices from lists built here.
    pub fn add<D: Device + 'static>(&mut self, device: D) -> DeviceId {
        let id = DeviceId(self.devices.len());
        if device.is_nonlinear() {
            self.nonlinear.push(id.0);
        } else {
            self.linear.push(id.0);
            if self.linear_prefix == id.0 {
                self.linear_prefix += 1;
            }
        }
        self.branch_bases.push(self.n_branches);
        self.n_branches += device.num_branches();
        self.devices.push(Box::new(device));
        id
    }

    /// Assigns every device its absolute branch-unknown base. Called by the
    /// analyses before solving; safe to call repeatedly.
    pub(crate) fn finalize(&mut self) {
        let n_v = self.n_nodes - 1;
        for (dev, &rel) in self.devices.iter_mut().zip(&self.branch_bases) {
            dev.set_branch_base(n_v + rel);
        }
    }

    /// Number of nodes including ground.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Name of a node (for diagnostics).
    pub fn node_name(&self, node: Node) -> &str {
        &self.node_names[node.index()]
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// Total number of MNA unknowns (node voltages + branch currents).
    pub fn unknown_count(&self) -> usize {
        (self.n_nodes - 1) + self.n_branches
    }

    /// Absolute unknown index of branch `k` of device `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a device of this circuit.
    pub fn branch_index(&self, id: DeviceId, k: usize) -> usize {
        (self.n_nodes - 1) + self.branch_bases[id.0] + k
    }

    /// Sets the minimum node-to-ground conductance (default `1e-12` S).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAnalysis`] for non-positive values.
    pub fn set_gmin(&mut self, gmin: f64) -> Result<()> {
        if gmin <= 0.0 || !gmin.is_finite() {
            return Err(Error::InvalidAnalysis {
                message: format!("gmin must be positive and finite, got {gmin}"),
            });
        }
        self.gmin = gmin;
        Ok(())
    }

    /// Current gmin value.
    pub fn gmin(&self) -> f64 {
        self.gmin
    }

    /// Read access to the device list (for solvers).
    pub(crate) fn devices(&self) -> &[Box<dyn Device>] {
        &self.devices
    }

    /// Number of devices before the first nonlinear one: within one Newton
    /// solve their stamps do not change (the contract of
    /// [`Device::is_nonlinear`]), so the full path stamps them once.
    pub(crate) fn linear_prefix(&self) -> usize {
        self.linear_prefix
    }

    /// Checks a transient step `dt` against every device's sample clock.
    ///
    /// # Errors
    ///
    /// [`Error::SampleClock`] for the first device whose sample time
    /// differs from `dt` by more than a relative `1e-6`.
    pub(crate) fn check_sample_clocks(&self, dt: f64) -> Result<()> {
        for dev in &self.devices {
            if let Some(ts) = dev.sample_clock() {
                // A NaN fails the comparison, and with it the check.
                let on_clock = ((dt - ts) / ts).abs() < SAMPLE_CLOCK_TOL;
                if !on_clock {
                    return Err(Error::SampleClock {
                        device: dev.label().to_string(),
                        dt,
                        ts,
                    });
                }
            }
        }
        Ok(())
    }

    /// The linear devices, in netlist order.
    pub(crate) fn linear_devices(&self) -> impl Iterator<Item = &dyn Device> {
        self.linear.iter().map(|&k| &*self.devices[k])
    }

    /// The nonlinear devices, in netlist order.
    pub(crate) fn nonlinear_devices(&self) -> impl Iterator<Item = &dyn Device> {
        self.nonlinear.iter().map(|&k| &*self.devices[k])
    }

    /// Mutable access to the device list (for solvers).
    pub(crate) fn devices_mut(&mut self) -> &mut [Box<dyn Device>] {
        &mut self.devices
    }

    /// Typed mutable access to an installed device, e.g. to update a source
    /// value between sweep points without rebuilding the netlist. Returns
    /// `None` if `D` does not match the installed device type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a device of this circuit.
    pub fn device_mut<D: Device>(&mut self, id: DeviceId) -> Option<&mut D> {
        let dev: &mut dyn Device = self.devices[id.0].as_mut();
        let any: &mut dyn std::any::Any = dev;
        any.downcast_mut::<D>()
    }

    /// Builds the persistent solver workspace for this circuit: finalizes
    /// branch layout, collects every device's stamp pattern and sets up the
    /// slot-cached sparse (or small-system dense) backend. Every row and
    /// column a nonlinear device registers becomes a port of the
    /// port-partitioned transient path (see [`crate::workspace`]).
    ///
    /// Reuse one workspace across repeated solves of the same circuit — the
    /// symbolic LU analysis is performed once and shared.
    pub fn make_workspace(&mut self) -> StampWorkspace {
        self.finalize();
        let n = self.unknown_count();
        let mut pb = PatternBuilder::new(n);
        // The solver's gmin safety net touches every node diagonal.
        for i in 0..self.n_nodes.saturating_sub(1) {
            pb.add(i, i);
        }
        let mut ports = Vec::new();
        for (k, dev) in self.devices.iter().enumerate() {
            let start = pb.entries().len();
            dev.register(&mut pb);
            if self.nonlinear.binary_search(&k).is_ok() {
                ports.extend(pb.entries()[start..].iter().flat_map(|&(r, c)| [r, c]));
            }
        }
        ports.sort_unstable();
        ports.dedup();
        StampWorkspace::from_pattern(pb).with_ports(ports)
    }

    /// Builds a workspace that forces the dense O(n³) backend regardless of
    /// system size — the reference solver for golden-agreement checks
    /// against the sparse path (see `TranParams::with_dense_solver`). Not
    /// for production use above a few hundred unknowns.
    pub fn make_workspace_dense(&mut self) -> StampWorkspace {
        self.finalize();
        StampWorkspace::dense(self.unknown_count())
    }

    /// Computes the DC operating point.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonConvergence`] or [`Error::SingularMatrix`] if the
    /// Newton iteration (with gmin stepping) fails.
    pub fn dc_operating_point(&mut self) -> Result<Vec<f64>> {
        solver::dc_operating_point(self)
    }

    /// Computes the DC operating point against a caller-held workspace,
    /// optionally warm-started from a previous solution — the fast path for
    /// DC sweeps (see [`solver::dc_operating_point_ws`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Circuit::dc_operating_point`].
    pub fn dc_operating_point_ws(
        &mut self,
        ws: &mut StampWorkspace,
        x0: Option<&[f64]>,
    ) -> Result<Vec<f64>> {
        solver::dc_operating_point_ws(self, ws, x0)
    }

    /// Runs a transient analysis (includes the initial DC operating point).
    ///
    /// # Errors
    ///
    /// Propagates DC/Newton failures and invalid parameter errors.
    pub fn transient(&mut self, params: TranParams) -> Result<TranResult> {
        transient::run(self, params)
    }

    /// Runs the same transient analysis as [`Circuit::transient`] but keeps
    /// only the voltages of `probes`, one waveform per probe in probe order
    /// (see [`transient::run_probed`]).
    ///
    /// # Errors
    ///
    /// Those of [`Circuit::transient`], and [`Error::InvalidAnalysis`] for
    /// a probe that is not a node of this circuit.
    pub fn transient_probed(
        &mut self,
        params: TranParams,
        probes: &[Node],
    ) -> Result<ProbedResult> {
        transient::run_probed(self, params, probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Resistor, SourceWaveform, VoltageSource};

    #[test]
    fn node_handles() {
        assert!(GROUND.is_ground());
        assert_eq!(GROUND.to_string(), "gnd");
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        assert_eq!(a.index(), 1);
        assert!(!a.is_ground());
        assert_eq!(a.to_string(), "n1");
        assert_eq!(ckt.node_name(a), "a");
        assert_eq!(ckt.n_nodes(), 2);
    }

    #[test]
    fn unknown_counting_with_branches() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(Resistor::new("r", a, b, 1.0));
        assert_eq!(ckt.unknown_count(), 2);
        let v = ckt.add(VoltageSource::new("v", a, GROUND, SourceWaveform::dc(1.0)));
        assert_eq!(ckt.unknown_count(), 3);
        assert_eq!(ckt.branch_index(v, 0), 2);
        assert_eq!(ckt.n_devices(), 2);
    }

    #[test]
    fn gmin_validation() {
        let mut ckt = Circuit::new();
        assert!(ckt.set_gmin(0.0).is_err());
        assert!(ckt.set_gmin(-1.0).is_err());
        assert!(ckt.set_gmin(f64::NAN).is_err());
        assert!(ckt.set_gmin(1e-9).is_ok());
        assert_eq!(ckt.gmin(), 1e-9);
    }

    #[test]
    fn debug_impl_nonempty() {
        let ckt = Circuit::new();
        assert!(format!("{ckt:?}").contains("Circuit"));
    }
}
