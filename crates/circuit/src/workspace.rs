//! Persistent solver workspace: slot-cached sparse stamping plus a reusable
//! LU structure.
//!
//! The numeric values of a circuit's MNA matrix change from one Newton
//! iteration to the next, but its *sparsity pattern never changes*: device
//! terminals are fixed at netlist construction time. The
//! [`StampWorkspace`] exploits this:
//!
//! * at build time ([`crate::Circuit::make_workspace`]) every device
//!   registers its potential nonzero positions once via
//!   [`crate::Device::register`], producing a column-compressed pattern;
//! * on the *full path*, every Newton iteration stamps the devices
//!   through [`StampWorkspace::add`], which resolves `(row, col)` to a
//!   cached value slot — no per-iteration allocation, no dense `n × n`
//!   zero-fill. The devices before the circuit's first nonlinear one (its
//!   *linear prefix*, e.g. a whole coupled line) stamp the same values on
//!   every iteration of one Newton solve, and their matrix values depend
//!   only on the mode and `dt` (the contract of
//!   [`crate::Device::is_nonlinear`]). So the first full-path iteration of
//!   a solve stamps gmin and the prefix and saves the values and
//!   right-hand side; later iterations restore that snapshot and stamp
//!   only the rest of the netlist. Within one transient the values,
//!   keyed by `(dt, gmin)`, also serve every later step: its first
//!   iteration restores them, zeroes the right-hand side and has the
//!   prefix devices stamp only their right-hand side
//!   ([`crate::Device::stamp_rhs`]; any matrix write they still make is
//!   discarded). Every slot receives the same
//!   additions in the same order as a full restamp, so the result is
//!   bit-identical. No snapshot is taken on the dense backend or when a
//!   prefix write overflowed the pattern, and pattern growth drops it.
//!   Only the steps of one transient share it: every other solve,
//!   including each DC operating point, goes through
//!   [`crate::solver::solve_newton`], which starts from a full stamp since
//!   a caller may change a device between calls;
//! * [`StampWorkspace::solve`] then factors the system with
//!   [`numkit::sparse::SparseLu`]: one symbolic analysis per circuit, then
//!   one numeric-only refactorization per iteration, which recomputes only
//!   the columns whose inputs changed (bit-identical to a full one).
//!
//! Very small systems (`n <` [`DENSE_LIMIT`]) keep the dense
//! [`numkit::lu::LuFactor`] path — the sparse bookkeeping would cost more
//! than it saves. That factor is refactored in place, so the dense path
//! allocates nothing per iteration either.
//!
//! A device that writes to a position it never registered does not break
//! anything: the write lands in an overflow list and the pattern grows at
//! the next [`StampWorkspace::solve`], at the cost of one extra symbolic
//! analysis (visible in [`SolveStats::symbolic_analyses`]).
//!
//! # The port-partitioned path
//!
//! DC operating points always take the full path; a transient may leave
//! it for a second one. The workspace knows its *ports*: every unknown a
//! nonlinear device ([`crate::Device::is_nonlinear`]) registers. Everything
//! else is *interior*. With a fixed mode and step, the linear devices'
//! matrix never changes, so the transient can freeze it once
//! (the `ports` submodule): factor the interior block `A_ii`, form the
//! dense port Schur complement `S0` and the coupling `W = A_ii⁻¹ A_ip`.
//! Within a timestep a linear device's right-hand side is fixed too (the
//! contract of [`crate::Device::is_nonlinear`]), so the work splits in two:
//!
//! * **once per step**, the linear devices write only their right-hand
//!   side `b` through [`crate::Device::stamp_rhs`] (any matrix write is
//!   dropped — the values are already in the frozen factor), and one
//!   interior sweep gives `y = A_ii⁻¹ b_i` and the reduced port right-hand
//!   side `r0 = b_p − A_pi y`;
//! * **each Newton iteration**, only the nonlinear devices stamp: matrix
//!   and right-hand side go into a `p × p` port accumulator through an O(1)
//!   unknown→port table, a dense LU refactored in place solves
//!   `(S0 + G) x_p = r0 + b_nl`, and `x_i = y − W x_p` gives the interior —
//!   no sparse refactorization, no interior sweep, no allocation.
//!
//! The transient takes this path only when the flop counts of the last
//! full factorization say it is cheaper (see
//! `StampWorkspace::ports_pay_off`). A singular interior, a nonlinear write
//! outside the port block (matrix position or right-hand-side row), or a
//! singular port system sends the analysis back to the full path (a typed
//! `PortFallback`, counted in [`SolveStats::port_fallbacks`]).

mod ports;

use numkit::sparse::{CscPattern, SparseLu};
use numkit::{lu::LuFactor, Matrix};

pub(crate) use ports::PortFallback;
use ports::PortSolver;

/// Below this unknown count the workspace uses the dense LU path.
pub const DENSE_LIMIT: usize = 4;

/// Newton iterations `StampWorkspace::ports_pay_off` prices per timestep.
/// Convergence compares two successive iterates, so any step whose
/// solution moves takes at least two.
const STEP_ITERATIONS: u64 = 2;

/// Open-addressing `(row, col) → value-slot` map over the structural
/// nonzeros of a [`CscPattern`].
///
/// Stamping resolves a matrix position to its value slot on *every* device
/// write of every Newton iteration, so the lookup must be O(1) regardless of
/// circuit size. The previous design kept a dense `n × n` slot array (O(n²)
/// memory) and degraded to per-column binary search above n = 1024; this
/// table stores only O(nnz) entries — keys packed as `row << 32 | col`,
/// linear probing, load factor ≤ 0.5 — and stays O(1) at any size.
#[derive(Debug)]
struct SlotMap {
    /// Power-of-two capacity minus one.
    mask: usize,
    /// Packed `(row << 32) | col` keys; `u64::MAX` marks an empty bucket
    /// (unreachable as a real key: rows and cols are `< n ≤ u32::MAX`).
    keys: Vec<u64>,
    /// Value-slot index parallel to `keys`.
    slots: Vec<u32>,
}

const SLOT_EMPTY: u64 = u64::MAX;

#[inline]
fn slot_key(r: usize, c: usize) -> u64 {
    ((r as u64) << 32) | c as u64
}

#[inline]
fn slot_hash(key: u64) -> usize {
    // Fibonacci multiplicative hash; the high bits carry the mix.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
}

impl SlotMap {
    fn build(pattern: &CscPattern) -> Self {
        let cap = (pattern.nnz().max(1) * 2).next_power_of_two();
        let mut map = SlotMap {
            mask: cap - 1,
            keys: vec![SLOT_EMPTY; cap],
            slots: vec![0; cap],
        };
        for c in 0..pattern.n() {
            for (r, s) in pattern.col_entries(c) {
                let key = slot_key(r, c);
                let mut i = slot_hash(key) & map.mask;
                while map.keys[i] != SLOT_EMPTY {
                    debug_assert_ne!(map.keys[i], key, "pattern entries are unique");
                    i = (i + 1) & map.mask;
                }
                map.keys[i] = key;
                map.slots[i] = s as u32;
            }
        }
        map
    }

    #[inline]
    fn get(&self, r: usize, c: usize) -> Option<usize> {
        let key = slot_key(r, c);
        let mut i = slot_hash(key) & self.mask;
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.slots[i] as usize);
            }
            if k == SLOT_EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }
}

/// Collects the structural nonzero positions of a circuit's MNA matrix.
/// Devices receive one in [`crate::Device::register`] and add every `(row,
/// column)` they may ever touch, across all analysis modes.
#[derive(Debug)]
pub struct PatternBuilder {
    n: usize,
    entries: Vec<(usize, usize)>,
}

impl PatternBuilder {
    /// Creates a builder for an `n`-unknown system.
    pub fn new(n: usize) -> Self {
        PatternBuilder {
            n,
            entries: Vec::new(),
        }
    }

    /// Registers a potential nonzero at `(r, c)`. Duplicates are merged.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range — registering a position outside
    /// the system is a device implementation bug.
    pub fn add(&mut self, r: usize, c: usize) {
        assert!(
            r < self.n && c < self.n,
            "pattern position ({r}, {c}) out of range for {} unknowns",
            self.n
        );
        self.entries.push((r, c));
    }

    /// System dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Positions registered so far, in insertion order (duplicates
    /// preserved). Used by the structural lint rules to compare a device's
    /// declared pattern against what its `stamp` actually writes.
    pub fn entries(&self) -> &[(usize, usize)] {
        &self.entries
    }
}

/// Cumulative solver diagnostics of a workspace.
///
/// Which path a transient ran shows here: on the port-partitioned path
/// `interior_factorizations` is 1 and `port_solves` equals the Newton
/// iterations solved there; on the full path both stay 0 and
/// `factorizations` grows by one per Newton iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Symbolic analyses of the full system (fill ordering +
    /// Gilbert–Peierls pivot discovery). A well-behaved circuit needs
    /// exactly one. The interior factorization of the port path carries its
    /// own analysis and is counted in `interior_factorizations` instead.
    pub symbolic_analyses: usize,
    /// Sparse (or dense-backend) factorizations: full-system
    /// refactorizations plus interior factorizations. The dense `p × p`
    /// port factorizations are not counted here (see `port_solves`).
    pub factorizations: usize,
    /// Structural nonzeros of the current factors, diagonal included — the
    /// fill-in diagnostic (dense backend: `n²`; port path: the interior
    /// factor plus `p²`).
    pub factor_nnz: usize,
    /// Cumulative numeric factorization work actually performed:
    /// multiply–adds plus divides, summed over every factorization
    /// including discarded re-pivot attempts. A sparse refactorization
    /// counts only the columns it recomputed, so repeated values cost
    /// nothing here (dense factors, including the port matrix: an `n³/3`
    /// estimate per factorization).
    pub flops: u64,
    /// Interior-block factorizations of the port path: one per analysis
    /// that took it.
    pub interior_factorizations: usize,
    /// Newton iterations solved on the port Schur complement.
    pub port_solves: usize,
    /// Times an analysis left (or could not enter) the port path for the
    /// full path: a singular interior, a nonlinear write outside the port
    /// block, or a singular port system.
    pub port_fallbacks: usize,
}

/// Where [`StampWorkspace::add`] and [`StampWorkspace::rhs_add`] send
/// writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StampTarget {
    /// The full system (the full path, and freezing the linear part).
    Matrix,
    /// A linear device's right-hand-side stamp, where its matrix values
    /// are already in place (a port-path step, or a restored prefix):
    /// matrix writes go nowhere, right-hand-side writes to the full
    /// right-hand side.
    Discard,
    /// The port accumulator: a nonlinear device on the port path.
    Ports,
}

struct SparseState {
    pattern: CscPattern,
    values: Vec<f64>,
    /// O(1) `(r, c) -> slot` resolution over the registered pattern.
    slot: SlotMap,
    lu: Option<SparseLu>,
    /// Writes to unregistered positions, merged at the next solve.
    overflow: Vec<(usize, usize, f64)>,
}

enum Backend {
    Dense { mat: Matrix, lu: LuFactor },
    Sparse(Box<SparseState>),
}

/// The per-analysis stamping and solving workspace. See the [module
/// docs](self) for the lifecycle.
pub struct StampWorkspace {
    n: usize,
    rhs: Vec<f64>,
    backend: Backend,
    stats: SolveStats,
    /// Flops not held by the live full-system `SparseLu`: replaced objects
    /// (pattern growth or pivot-decay re-analysis), the interior factor and
    /// the port factorizations; added to the live object's counter when
    /// reporting [`SolveStats::flops`].
    flops_base: u64,
    /// Unknowns registered by nonlinear devices, sorted and unique.
    ports: Vec<usize>,
    target: StampTarget,
    port: Option<Box<PortSolver>>,
    x_out: Vec<f64>,
    scratch: Vec<f64>,
    /// Values and right-hand side saved by [`StampWorkspace::save_prefix`].
    prefix_values: Vec<f64>,
    prefix_rhs: Vec<f64>,
    /// The `(dt, gmin)` bits `prefix_values` were stamped at (`dt` is
    /// `None` at DC), while they are valid.
    prefix_key: Option<PrefixKey>,
}

/// `(dt, gmin)` bits of a gmin + linear-prefix stamp; `dt` is `None` at DC.
type PrefixKey = (Option<u64>, u64);

fn prefix_key(mode: crate::Mode, gmin: f64) -> PrefixKey {
    let dt = match mode {
        crate::Mode::Dc => None,
        crate::Mode::Tran { dt, .. } => Some(dt.to_bits()),
    };
    (dt, gmin.to_bits())
}

impl std::fmt::Debug for StampWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StampWorkspace")
            .field("n", &self.n)
            .field("dense", &matches!(self.backend, Backend::Dense { .. }))
            .field("stats", &self.stats)
            .finish()
    }
}

impl Backend {
    fn dense(n: usize) -> Self {
        Backend::Dense {
            mat: Matrix::zeros(n, n),
            lu: LuFactor::default(),
        }
    }

    fn sparse(pattern: CscPattern) -> Self {
        Backend::Sparse(Box::new(SparseState {
            values: vec![0.0; pattern.nnz()],
            slot: SlotMap::build(&pattern),
            pattern,
            lu: None,
            overflow: Vec::new(),
        }))
    }
}

impl StampWorkspace {
    fn with_backend(n: usize, backend: Backend) -> Self {
        StampWorkspace {
            n,
            rhs: vec![0.0; n],
            backend,
            stats: SolveStats::default(),
            flops_base: 0,
            ports: Vec::new(),
            target: StampTarget::Matrix,
            port: None,
            x_out: vec![0.0; n],
            scratch: vec![0.0; n],
            prefix_values: Vec::new(),
            prefix_rhs: Vec::new(),
            prefix_key: None,
        }
    }

    /// Builds a workspace from a registered pattern. Falls back to the
    /// dense path for `n <` [`DENSE_LIMIT`].
    pub fn from_pattern(pb: PatternBuilder) -> Self {
        let n = pb.n;
        let backend = if n < DENSE_LIMIT {
            Backend::dense(n)
        } else {
            let pattern = CscPattern::from_entries(n, &pb.entries)
                .expect("PatternBuilder validated every entry");
            Backend::sparse(pattern)
        };
        Self::with_backend(n, backend)
    }

    /// A dense workspace with no registered pattern — the O(n³) reference
    /// backend. Used by unit tests that stamp a device in isolation and by
    /// golden-agreement runs that compare the sparse solver against the
    /// dense one on the same circuit (see `TranParams::with_dense_solver`).
    pub fn dense(n: usize) -> Self {
        Self::with_backend(n, Backend::dense(n))
    }

    /// A recording workspace: the sparse backend with an *empty* registered
    /// pattern, so that every [`StampWorkspace::add`] lands in the overflow
    /// list. The structural lint audit uses this to observe exactly which
    /// positions a device's `stamp` writes (read back via
    /// [`StampWorkspace::overflow_entries`]) without touching the stamping
    /// hot path. Not intended for solving.
    pub fn recording(n: usize) -> Self {
        let pattern =
            CscPattern::from_entries(n, &[]).expect("empty pattern is valid at any dimension");
        Self::with_backend(n, Backend::sparse(pattern))
    }

    /// Writes that landed outside the registered pattern since the last
    /// [`StampWorkspace::begin`], in write order. On a workspace built by
    /// [`StampWorkspace::recording`] this is the complete set of stamped
    /// matrix positions.
    pub fn overflow_entries(&self) -> &[(usize, usize, f64)] {
        match &self.backend {
            Backend::Dense { .. } => &[],
            Backend::Sparse(state) => &state.overflow,
        }
    }

    /// Number of unknowns.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Zeroes values and right-hand side for a fresh stamping pass.
    pub fn begin(&mut self) {
        self.rhs.iter_mut().for_each(|v| *v = 0.0);
        match &mut self.backend {
            Backend::Dense { mat, .. } => mat.fill_zero(),
            Backend::Sparse(state) => {
                state.values.iter_mut().for_each(|v| *v = 0.0);
                state.overflow.clear();
            }
        }
    }

    /// Accumulates `v` into matrix position `(r, c)`.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(
            r < self.n && c < self.n,
            "stamp position ({r}, {c}) out of range for {} unknowns",
            self.n
        );
        match self.target {
            StampTarget::Matrix => match &mut self.backend {
                Backend::Dense { mat, .. } => mat.add_at(r, c, v),
                Backend::Sparse(state) => match state.slot.get(r, c) {
                    Some(s) => state.values[s] += v,
                    None => state.overflow.push((r, c, v)),
                },
            },
            StampTarget::Discard => {}
            StampTarget::Ports => {
                if let Some(ps) = self.port.as_deref_mut() {
                    ps.add(r, c, v);
                }
            }
        }
    }

    /// Accumulates `v` into right-hand-side row `r`.
    #[inline]
    pub fn rhs_add(&mut self, r: usize, v: f64) {
        match (self.target, self.port.as_deref_mut()) {
            (StampTarget::Ports, Some(ps)) => ps.rhs_add(r, v),
            _ => self.rhs[r] += v,
        }
    }

    /// Read access to the right-hand side (diagnostics and tests).
    pub fn rhs(&self) -> &[f64] {
        &self.rhs
    }

    /// Current numeric value at `(r, c)` (0 for structural zeros) —
    /// diagnostics and tests.
    pub fn value_at(&self, r: usize, c: usize) -> f64 {
        match &self.backend {
            Backend::Dense { mat, .. } => mat.get(r, c),
            Backend::Sparse(state) => {
                let mut v = state
                    .pattern
                    .index_of(r, c)
                    .map_or(0.0, |s| state.values[s]);
                for &(orow, ocol, ov) in &state.overflow {
                    if orow == r && ocol == c {
                        v += ov;
                    }
                }
                v
            }
        }
    }

    /// Cumulative diagnostics.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Sets the port list (see [`crate::Circuit::make_workspace`]).
    pub(crate) fn with_ports(mut self, ports: Vec<usize>) -> Self {
        debug_assert!(ports.windows(2).all(|w| w[0] < w[1]) && ports.iter().all(|&i| i < self.n));
        self.ports = ports;
        self
    }

    /// Starts a full-path iteration at `mode` with `gmin`: the caller
    /// stamps gmin (only when this returns false), then the circuit's linear
    /// prefix, then calls [`StampWorkspace::save_prefix`].
    ///
    /// When the values saved by an earlier step hold for this `dt` and
    /// `gmin` — a transient's matrix prefix, which depends only on them
    /// (the contract of [`crate::Device::is_nonlinear`]) — restores them,
    /// zeroes the right-hand side and discards matrix writes, so that the
    /// caller stamps only the prefix's right-hand side
    /// ([`crate::Device::stamp_rhs`]); returns true.
    /// Otherwise acts as [`StampWorkspace::begin`] and returns false.
    pub(crate) fn begin_prefix(&mut self, mode: crate::Mode, gmin: f64) -> bool {
        match &mut self.backend {
            Backend::Sparse(state) if self.prefix_key == Some(prefix_key(mode, gmin)) => {
                state.values.copy_from_slice(&self.prefix_values);
                self.rhs.iter_mut().for_each(|v| *v = 0.0);
                self.target = StampTarget::Discard;
                true
            }
            _ => {
                self.begin();
                false
            }
        }
    }

    /// Ends the prefix stamping of [`StampWorkspace::begin_prefix`] and
    /// saves the right-hand side for [`StampWorkspace::restore_prefix`],
    /// plus the values unless they were just restored. Returns whether a
    /// snapshot was taken: none on the dense backend or when a write
    /// overflowed the pattern.
    pub(crate) fn save_prefix(&mut self, mode: crate::Mode, gmin: f64) -> bool {
        let restored = self.target == StampTarget::Discard;
        self.target = StampTarget::Matrix;
        match &self.backend {
            Backend::Sparse(state) if state.overflow.is_empty() => {
                if !restored {
                    self.prefix_values.clone_from(&state.values);
                    self.prefix_key = Some(prefix_key(mode, gmin));
                }
                self.prefix_rhs.clone_from(&self.rhs);
                true
            }
            _ => {
                self.prefix_key = None;
                false
            }
        }
    }

    /// Puts back the snapshot of [`StampWorkspace::save_prefix`], leaving
    /// the workspace exactly as `begin` plus the prefix stamps would. The
    /// caller vouches that the right-hand side was saved in the current
    /// Newton solve. Returns false, and changes nothing, when there is no
    /// valid snapshot (none taken, or the pattern has grown since).
    pub(crate) fn restore_prefix(&mut self) -> bool {
        match &mut self.backend {
            Backend::Sparse(state) if self.prefix_key.is_some() => {
                state.values.copy_from_slice(&self.prefix_values);
                self.rhs.copy_from_slice(&self.prefix_rhs);
                true
            }
            _ => false,
        }
    }

    /// Drops the saved prefix: the devices may have changed since it was
    /// stamped.
    pub(crate) fn forget_prefix(&mut self) {
        self.prefix_key = None;
    }

    /// Whether factoring the interior once and solving `steps` timesteps on
    /// the port Schur complement costs fewer flops than a full
    /// refactorization per Newton iteration, pricing each step at
    /// [`STEP_ITERATIONS`] iterations.
    ///
    /// The counts come from the live full factorization. A full-path
    /// iteration assembles every structural entry, refactors
    /// ([`SparseLu::refactor_cost`]) and solves over the factor nonzeros. A
    /// port iteration assembles, factors and solves the dense port matrix
    /// (`p³/3 + 2p²`) and forms `x_i = y − W x_p` (`ni·p`); each step adds
    /// one interior sweep (bounded by the full factor's nonzeros) and the
    /// coupling blocks. Setup costs one factorization plus one sweep per
    /// port. False on the dense backend, before any factorization, and when
    /// every unknown is a port.
    pub(crate) fn ports_pay_off(&self, steps: usize) -> bool {
        let Backend::Sparse(state) = &self.backend else {
            return false;
        };
        let (n, p) = (self.n as u64, self.ports.len() as u64);
        let Some(lu) = state.lu.as_ref().filter(|_| p < n) else {
            return false;
        };
        let is_port = |i: usize| self.ports.binary_search(&i).is_ok();
        let mut coupling = 0u64;
        for c in 0..self.n {
            let pc = is_port(c);
            coupling += state
                .pattern
                .col_entries(c)
                .filter(|&(r, _)| is_port(r) != pc)
                .count() as u64;
        }
        let (refactor, nnz) = (lu.refactor_cost(), lu.factor_nnz() as u64);
        let full = state.pattern.nnz() as u64 + refactor + nnz;
        let port = p * p * p / 3 + 2 * p * p + (n - p) * p;
        let step = nnz + coupling;
        let setup = refactor + p * (nnz + coupling);
        let (steps, k) = (steps as u64, STEP_ITERATIONS);
        setup + steps * (step + k * port) < steps * k * full
    }

    /// Freezes the matrix stamped since [`StampWorkspace::begin`] — the
    /// linear devices plus gmin, for a transient step `dt` — into the
    /// port path: factors its interior block and forms `S0`. Call only
    /// after [`StampWorkspace::ports_pay_off`] accepted the path.
    ///
    /// # Errors
    ///
    /// [`PortFallback::SingularInterior`] (also counted as a fallback); the
    /// workspace then stays on the full path.
    pub(crate) fn freeze_linear(&mut self, dt: f64, gmin: f64) -> Result<(), PortFallback> {
        if !self.overflow_entries().is_empty() {
            self.grow_pattern();
        }
        let Backend::Sparse(state) = &self.backend else {
            unreachable!("ports_pay_off admits only the sparse backend");
        };
        match PortSolver::build(&state.pattern, &state.values, &self.ports, dt, gmin) {
            Ok(ps) => {
                self.stats.interior_factorizations += 1;
                self.stats.factorizations += 1;
                self.stats.factor_nnz = ps.factor_nnz();
                self.flops_base += ps.interior_flops();
                self.sync_flops();
                self.port = Some(Box::new(ps));
                Ok(())
            }
            Err(reason) => Err(self.leave_ports(reason)),
        }
    }

    /// Whether a Newton iteration at `mode` with `gmin` runs on the frozen
    /// port path.
    pub(crate) fn on_ports(&self, mode: crate::Mode, gmin: f64) -> bool {
        match (&self.port, mode) {
            (Some(ps), crate::Mode::Tran { dt, .. }) => ps.dt == dt && ps.gmin == gmin,
            _ => false,
        }
    }

    /// Zeroes the right-hand side for a port-path step: the linear devices
    /// stamp their right-hand side next, any matrix write dropped.
    pub(crate) fn begin_port_step(&mut self) {
        self.rhs.iter_mut().for_each(|v| *v = 0.0);
        self.target = StampTarget::Discard;
    }

    /// Finishes a port-path step's linear stamping: one interior sweep
    /// reduces the linear right-hand side to the ports.
    ///
    /// # Errors
    ///
    /// The [`PortFallback`] that makes the step unusable; the caller hands
    /// it to [`StampWorkspace::leave_ports`] and re-solves on the full path.
    pub(crate) fn finish_port_step(&mut self) -> Result<(), PortFallback> {
        self.target = StampTarget::Matrix;
        let ps = self.port.as_deref_mut().expect("port path entered");
        ps.step(&self.rhs)
    }

    /// Resets the port matrix to `S0` and the nonlinear right-hand side to
    /// zero: the nonlinear devices stamp next.
    pub(crate) fn begin_ports(&mut self) {
        self.port.as_deref_mut().expect("port path entered").begin();
        self.target = StampTarget::Ports;
    }

    /// Solves a port-path iteration into [`StampWorkspace::solution`].
    ///
    /// # Errors
    ///
    /// As [`StampWorkspace::finish_port_step`].
    pub(crate) fn solve_ports(&mut self) -> Result<(), PortFallback> {
        self.target = StampTarget::Matrix;
        let ps = self.port.as_deref_mut().expect("port path entered");
        ps.solve(&mut self.x_out)?;
        let p = ps.n_ports() as u64;
        self.stats.port_solves += 1;
        self.flops_base += p * p * p / 3;
        self.sync_flops();
        Ok(())
    }

    /// Drops the port path for the rest of the analysis and counts the
    /// fallback.
    pub(crate) fn leave_ports(&mut self, reason: PortFallback) -> PortFallback {
        self.port = None;
        self.target = StampTarget::Matrix;
        self.stats.port_fallbacks += 1;
        reason
    }

    /// The solution of the last [`StampWorkspace::solve`] or port solve.
    pub(crate) fn solution(&self) -> &[f64] {
        &self.x_out
    }

    /// Recomputes [`SolveStats::flops`] from the base and the live factor.
    fn sync_flops(&mut self) {
        let live = match &self.backend {
            Backend::Sparse(state) => state.lu.as_ref().map_or(0, SparseLu::total_flops),
            Backend::Dense { .. } => 0,
        };
        self.stats.flops = self.flops_base + live;
    }

    /// Merges overflowed (unregistered) positions into the pattern,
    /// invalidating the symbolic structure.
    fn grow_pattern(&mut self) {
        let Backend::Sparse(state) = &mut self.backend else {
            return;
        };
        let SparseState {
            pattern,
            values,
            slot,
            lu,
            overflow,
        } = state.as_mut();
        let n = pattern.n();
        let mut entries: Vec<(usize, usize)> = Vec::with_capacity(pattern.nnz() + overflow.len());
        let mut vals: Vec<(usize, usize, f64)> = Vec::with_capacity(entries.capacity());
        for c in 0..n {
            for (r, s) in pattern.col_entries(c) {
                entries.push((r, c));
                vals.push((r, c, values[s]));
            }
        }
        for &(r, c, v) in overflow.iter() {
            entries.push((r, c));
            vals.push((r, c, v));
        }
        let grown = CscPattern::from_entries(n, &entries).expect("positions validated on add");
        let mut new_values = vec![0.0; grown.nnz()];
        for (r, c, v) in vals {
            let s = grown.index_of(r, c).expect("entry just inserted");
            new_values[s] += v;
        }
        *slot = SlotMap::build(&grown);
        *pattern = grown;
        *values = new_values;
        *lu = None;
        overflow.clear();
        self.prefix_key = None;
    }

    /// Factors the stamped system and solves it against the stamped
    /// right-hand side. Reuses the symbolic structure whenever possible.
    ///
    /// # Errors
    ///
    /// Propagates [`numkit::Error`] for singular systems.
    pub fn solve(&mut self) -> numkit::Result<&[f64]> {
        if let Backend::Sparse(state) = &self.backend {
            if !state.overflow.is_empty() {
                self.grow_pattern();
            }
        }
        match &mut self.backend {
            Backend::Dense { mat, lu } => {
                lu.refactor(mat)?;
                self.stats.factorizations += 1;
                if self.stats.symbolic_analyses == 0 {
                    self.stats.symbolic_analyses = 1;
                }
                let n = self.n as u64;
                self.stats.factor_nnz = self.n * self.n;
                self.stats.flops += n * n * n / 3;
                lu.solve_into(&self.rhs, &mut self.x_out)?;
            }
            Backend::Sparse(state) => {
                let SparseState {
                    pattern,
                    values,
                    lu,
                    ..
                } = state.as_mut();
                let refreshed = match lu {
                    Some(f) => f.refactor(values).is_ok(),
                    None => false,
                };
                if !refreshed {
                    // First factorization, grown pattern, or a frozen pivot
                    // decayed: re-run the sparse Gilbert–Peierls analysis
                    // (O(flops into L·U), same as a refactorization up to
                    // the ordering + reach overhead — no dense fallback).
                    if let Some(old) = lu.take() {
                        self.flops_base += old.total_flops();
                    }
                    *lu = Some(SparseLu::factor(pattern, values)?);
                    self.stats.symbolic_analyses += 1;
                }
                self.stats.factorizations += 1;
                let f = lu.as_ref().expect("factorization just ensured");
                self.stats.factor_nnz = f.factor_nnz();
                self.stats.flops = self.flops_base + f.total_flops();
                f.solve_into(&self.rhs, &mut self.x_out, &mut self.scratch)?;
            }
        }
        Ok(&self.x_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_pattern(n: usize) -> PatternBuilder {
        let mut pb = PatternBuilder::new(n);
        for i in 0..n {
            pb.add(i, i);
        }
        pb
    }

    #[test]
    fn dense_path_for_tiny_systems() {
        let ws = StampWorkspace::from_pattern(diag_pattern(2));
        assert!(matches!(ws.backend, Backend::Dense { .. }));
        let ws = StampWorkspace::from_pattern(diag_pattern(DENSE_LIMIT));
        assert!(matches!(ws.backend, Backend::Sparse(_)));
    }

    #[test]
    fn sparse_solve_reuses_symbolic() {
        let n = 5;
        let mut pb = diag_pattern(n);
        for i in 1..n {
            pb.add(i - 1, i);
            pb.add(i, i - 1);
        }
        let mut ws = StampWorkspace::from_pattern(pb);
        for pass in 0..3 {
            ws.begin();
            let d = 4.0 + pass as f64;
            for i in 0..n {
                ws.add(i, i, d);
            }
            for i in 1..n {
                ws.add(i - 1, i, -1.0);
                ws.add(i, i - 1, -1.0);
            }
            ws.rhs_add(0, 1.0);
            let x = ws.solve().unwrap().to_vec();
            // Residual check of the tridiagonal solve.
            for i in 0..n {
                let mut r = d * x[i];
                if i > 0 {
                    r -= x[i - 1];
                }
                if i + 1 < n {
                    r -= x[i + 1];
                }
                let b = if i == 0 { 1.0 } else { 0.0 };
                assert!((r - b).abs() < 1e-12, "pass {pass} row {i}");
            }
        }
        let stats = ws.stats();
        assert_eq!(stats.symbolic_analyses, 1, "one symbolic analysis total");
        assert_eq!(stats.factorizations, 3);
        // A tridiagonal system factors with zero fill: 2(n-1) off-diagonals
        // plus the n pivots.
        assert_eq!(stats.factor_nnz, 3 * n - 2);
        assert!(stats.flops > 0, "flop counter must accumulate");
    }

    #[test]
    fn unregistered_write_grows_pattern() {
        let n = 4;
        let mut ws = StampWorkspace::from_pattern(diag_pattern(n));
        ws.begin();
        for i in 0..n {
            ws.add(i, i, 2.0);
        }
        // Position (0, 3) was never registered.
        ws.add(0, 3, 1.0);
        assert_eq!(ws.value_at(0, 3), 1.0);
        ws.rhs_add(3, 2.0);
        let x = ws.solve().unwrap().to_vec();
        // Row 0: 2 x0 + x3 = 0, row 3: 2 x3 = 2.
        assert!((x[3] - 1.0).abs() < 1e-12);
        assert!((x[0] + 0.5).abs() < 1e-12);
        assert_eq!(ws.stats().symbolic_analyses, 1);
        // Next pass stamps the same position without growing again.
        ws.begin();
        for i in 0..n {
            ws.add(i, i, 2.0);
        }
        ws.add(0, 3, 1.0);
        ws.rhs_add(0, 2.0);
        ws.solve().unwrap();
        assert_eq!(ws.stats().symbolic_analyses, 1);
        assert_eq!(ws.stats().factorizations, 2);
    }

    #[test]
    fn singular_system_reported() {
        let mut ws = StampWorkspace::from_pattern(diag_pattern(5));
        ws.begin();
        // Leave every value zero: structurally present diagonal, numerically
        // singular.
        assert!(ws.solve().is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pattern_rejects_out_of_range() {
        let mut pb = PatternBuilder::new(2);
        pb.add(2, 0);
    }

    /// The hash slot map must resolve every registered position (and no
    /// unregistered one) well past the old dense-map / binary-search
    /// crossover dimension.
    #[test]
    fn slot_map_resolves_large_patterns() {
        let n = 3000;
        let mut pb = PatternBuilder::new(n);
        for i in 0..n {
            pb.add(i, i);
            if i > 0 {
                pb.add(i, i - 1);
                pb.add(i - 1, i);
            }
            // A few long-range couplings to exercise probe collisions.
            pb.add(i, (i * 7 + 13) % n);
        }
        let pattern = CscPattern::from_entries(n, &pb.entries).unwrap();
        let map = SlotMap::build(&pattern);
        for c in 0..n {
            for (r, s) in pattern.col_entries(c) {
                assert_eq!(map.get(r, c), Some(s), "({r}, {c})");
            }
        }
        // Spot-check structural zeros.
        for i in 0..n {
            let r = (i * 31 + 5) % n;
            let c = (i * 17 + 2) % n;
            assert_eq!(map.get(r, c), pattern.index_of(r, c), "({r}, {c})");
        }
    }

    /// A large tridiagonal solve through the workspace exercises the hash
    /// slot path end-to-end (every stamp above the old dense-map limit).
    #[test]
    fn large_sparse_stamp_and_solve() {
        let n = 2048;
        let mut pb = PatternBuilder::new(n);
        for i in 0..n {
            pb.add(i, i);
            if i > 0 {
                pb.add(i - 1, i);
                pb.add(i, i - 1);
            }
        }
        let mut ws = StampWorkspace::from_pattern(pb);
        ws.begin();
        for i in 0..n {
            ws.add(i, i, 4.0);
            if i > 0 {
                ws.add(i - 1, i, -1.0);
                ws.add(i, i - 1, -1.0);
            }
        }
        ws.rhs_add(0, 1.0);
        let x = ws.solve().unwrap().to_vec();
        for i in 0..n {
            let mut r = 4.0 * x[i];
            if i > 0 {
                r -= x[i - 1];
            }
            if i + 1 < n {
                r -= x[i + 1];
            }
            let b = if i == 0 { 1.0 } else { 0.0 };
            assert!((r - b).abs() < 1e-10, "row {i}");
        }
        assert_eq!(ws.stats().symbolic_analyses, 1);
    }
}
