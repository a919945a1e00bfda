//! Proof that the evaluation runtime's hot path is allocation-free: a
//! counting global allocator wraps the system allocator, and the
//! step/commit loops of the driver and receiver lane banks run with the
//! counter pinned.
//!
//! The counter is per thread: the harness's own threads allocate while a
//! test runs (a process-wide count failed about one run in five on a debug
//! build), and only the allocations of the thread stepping the lanes are
//! under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use macromodel::driver::{PwRbfDriverModel, WeightSequence};
use macromodel::evalrt::{DriverLanes, LaneStim, ReceiverLanes};
use macromodel::receiver::ReceiverModel;
use sysid::arx::{ArxModel, ArxOrders};
use sysid::narx::{NarxModel, NarxOrders};
use sysid::rbf::RbfNetwork;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Const-initialised with no
    /// destructor, so reading it from inside the allocator allocates
    /// nothing.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter beside it neither
// allocates nor panics (a thread-local `Cell` with no destructor).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn narx(seed: f64) -> NarxModel {
    let net = RbfNetwork::from_parts(
        3,
        vec![
            vec![0.2 + seed, -0.1, 0.5],
            vec![-0.6, 0.9, 0.1 - seed],
            vec![1.1, 0.4, -0.3],
        ],
        vec![0.8, 1.1, 0.6],
        vec![0.02, -0.015, 0.01],
        0.001 * seed,
        vec![-0.04, 0.005, 0.3],
    )
    .unwrap();
    NarxModel::from_network(NarxOrders::dynamic(1), net).unwrap()
}

fn driver_model() -> PwRbfDriverModel {
    let ramp: Vec<f64> = (0..8).map(|k| k as f64 / 7.0).collect();
    let inv: Vec<f64> = ramp.iter().map(|w| 1.0 - w).collect();
    PwRbfDriverModel {
        name: "drv".into(),
        ts: 25e-12,
        vdd: 1.8,
        i_high: narx(0.1),
        i_low: narx(-0.2),
        up: WeightSequence::new(ramp.clone(), inv.clone()).unwrap(),
        down: WeightSequence::new(inv, ramp).unwrap(),
    }
}

fn receiver_model() -> ReceiverModel {
    let linear =
        ArxModel::from_coefficients(ArxOrders { na: 1, nb: 1 }, vec![0.35], vec![0.08, -0.06])
            .unwrap();
    ReceiverModel {
        name: "rx".into(),
        ts: 25e-12,
        vdd: 1.8,
        linear,
        up: narx(0.05),
        down: narx(-0.15),
    }
}

/// Runs `f` and returns how many allocations this thread performed in it.
fn allocations_during<F: FnMut()>(mut f: F) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn compiled_stepping_never_allocates() {
    // --- PW-RBF driver, single lane and a 3-lane bank ---
    for n_lanes in [1usize, 3] {
        let model = driver_model();
        let ts = model.ts;
        let stims: Vec<LaneStim> = (0..n_lanes)
            .map(|l| LaneStim::from_pattern(if l % 2 == 0 { "0110" } else { "1001" }, 1e-9))
            .collect();
        let mut lanes = DriverLanes::new(Arc::new(model), stims);
        let v0 = vec![0.0; n_lanes];
        lanes.init_dc(&v0);
        let mut v = v0;
        let mut i = vec![0.0; n_lanes];
        let mut g = vec![0.0; n_lanes];
        let count = allocations_during(|| {
            for k in 0..500 {
                let t = k as f64 * ts;
                for (l, vl) in v.iter_mut().enumerate() {
                    *vl = 0.9 + 0.9 * ((0.13 * k as f64) + l as f64).sin();
                }
                // Two Newton evaluations per timestep, then the commit —
                // the shape of the real device loop, including a commit at
                // a voltage differing from the last step (cache miss).
                lanes.step(t, &v, &mut i, &mut g);
                lanes.step(t, &v, &mut i, &mut g);
                lanes.commit(&v);
                if k % 7 == 0 {
                    v[0] += 1e-6;
                    lanes.commit(&v);
                }
            }
        });
        assert_eq!(count, 0, "driver lanes={n_lanes} allocated {count} times");
    }

    // --- Receiver, 2 lanes ---
    let mut lanes = ReceiverLanes::new(Arc::new(receiver_model()), 2);
    lanes.init_dc(&[0.0, 1.2]);
    let (mut i, mut g) = ([0.0; 2], [0.0; 2]);
    let count = allocations_during(|| {
        for k in 0..500 {
            let v = [
                0.9 + 0.9 * (0.21 * k as f64).sin(),
                0.9 - 0.9 * (0.17 * k as f64).cos(),
            ];
            lanes.step(&v, &mut i, &mut g);
            lanes.commit(&v);
        }
    });
    assert_eq!(count, 0, "receiver lanes allocated {count} times");
}
