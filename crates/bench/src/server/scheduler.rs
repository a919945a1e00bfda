//! The batched request scheduler: connection threads enqueue scenario
//! cells, one runner thread drains the queue in batches and maps each
//! batch onto the [`numkit::par`] workers, at most one per CPU.
//!
//! Batching is what turns N concurrent single-cell requests into one
//! parallel sweep instead of N serialized transients: every drain takes
//! whatever has accumulated (up to [`MAX_BATCH`]) so queued cells from
//! different connections share a worker fan-out. Each drained batch is
//! grouped by model digest so cells of one model run back to back on a
//! worker (warm model state). Replies travel back over per-job
//! `mpsc` channels and are sent the moment each cell finishes, so a slow
//! bus-ladder cell never holds a quick `r50` cell's response hostage
//! beyond the shared batch.
//!
//! A cell that panics is caught on its worker: its client gets a failed
//! [`CellReport`] (`panic: <message>`), the `panics` counter grows, and the
//! runner keeps serving.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::serve::{run_contained, run_sweep_cell, validate_model, CellReport, Scenario};

use super::ServedModel;

/// Upper bound on cells one drain takes from the queue. It does not bound
/// threads: [`numkit::par::map`] runs a batch on at most one worker per
/// CPU.
pub const MAX_BATCH: usize = 16;

/// The work a queued cell performs.
#[derive(Debug, Clone)]
pub enum CellTask {
    /// One scenario-matrix cell.
    Scenario(Scenario),
    /// Re-certification against the transistor-level reference.
    Validate {
        /// Shrink the validation window to smoke-test budgets.
        fast: bool,
    },
}

/// One queued unit: a model, its task, and the reply channel.
pub struct Job {
    /// The served model the cell runs against (kept alive across reloads
    /// by this reference).
    pub model: Arc<ServedModel>,
    /// What to run.
    pub task: CellTask,
    /// Where the finished [`CellReport`] goes.
    pub reply: Sender<CellReport>,
}

/// Monotonic scheduler counters (exposed through the daemon's `stats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerSnapshot {
    /// Batches drained.
    pub batches: u64,
    /// Cells executed.
    pub cells: u64,
    /// Largest single batch.
    pub max_batch: u64,
    /// Cells that panicked (each answered with a failed report).
    pub panics: u64,
}

/// The shared queue + runner state.
pub struct Scheduler {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    stop: AtomicBool,
    batches: AtomicU64,
    cells: AtomicU64,
    max_batch: AtomicU64,
    panics: AtomicU64,
}

impl Scheduler {
    /// A fresh scheduler behind an [`Arc`] (the runner thread and every
    /// connection thread share it).
    pub fn new() -> Arc<Scheduler> {
        Arc::new(Scheduler {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
            batches: AtomicU64::new(0),
            cells: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        })
    }

    /// Enqueues one job and wakes the runner. Returns `false` (dropping
    /// the job) when [`shutdown`] already landed — the stop check happens
    /// under the queue lock, so a `true` return guarantees the runner will
    /// execute the job before exiting.
    ///
    /// [`shutdown`]: Scheduler::shutdown
    #[must_use]
    pub fn submit(&self, job: Job) -> bool {
        let mut q = self.queue.lock().expect("scheduler queue poisoned");
        if self.stop.load(Ordering::SeqCst) {
            return false;
        }
        q.push_back(job);
        self.ready.notify_all();
        true
    }

    /// Asks the runner to exit once the queue drains.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.ready.notify_all();
    }

    /// Current counter values.
    pub fn snapshot(&self) -> SchedulerSnapshot {
        SchedulerSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            cells: self.cells.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }

    /// The runner loop: drain batches onto [`numkit::par::map`] until
    /// [`shutdown`] lands *and* the queue is empty (queued work always
    /// completes).
    ///
    /// [`shutdown`]: Scheduler::shutdown
    pub fn run(&self) {
        loop {
            let batch: Vec<Job> = {
                let mut q = self.queue.lock().expect("scheduler queue poisoned");
                loop {
                    if !q.is_empty() {
                        break;
                    }
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let (guard, _timeout) = self
                        .ready
                        .wait_timeout(q, Duration::from_millis(100))
                        .expect("scheduler queue poisoned");
                    q = guard;
                }
                let n = q.len().min(MAX_BATCH);
                let mut batch: Vec<Job> = q.drain(..n).collect();
                // Group same-model cells (stable, by artifact digest) so a
                // worker sweeping its slice of the batch steps one model's
                // cells back to back over the same model parameter slabs
                // instead of bouncing between models.
                batch.sort_by(|a, b| a.model.digest.cmp(&b.model.digest));
                batch
            };
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.cells.fetch_add(batch.len() as u64, Ordering::Relaxed);
            self.max_batch
                .fetch_max(batch.len() as u64, Ordering::Relaxed);
            numkit::par::map(batch, |job| {
                let report = run_contained(
                    || run_cell(&job.model, &job.task),
                    |detail| {
                        self.panics.fetch_add(1, Ordering::Relaxed);
                        CellReport::failed(job.model.model.as_dyn(), job.task.name(), detail)
                    },
                );
                // A dropped receiver means the connection died mid-flight;
                // the cell still ran to completion, nothing to unwind.
                job.reply.send(report).ok();
            });
        }
    }
}

impl CellTask {
    /// The scenario name the task's [`CellReport`] carries.
    fn name(&self) -> &str {
        match self {
            CellTask::Scenario(scenario) => &scenario.name,
            CellTask::Validate { .. } => crate::serve::VALIDATE_SCENARIO,
        }
    }
}

/// Executes one cell against a served model.
fn run_cell(model: &ServedModel, task: &CellTask) -> CellReport {
    match task {
        CellTask::Scenario(scenario) => run_sweep_cell(model.model.as_dyn(), scenario),
        CellTask::Validate { fast } => validate_model(model.model.as_dyn(), *fast, None, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{standard_scenarios, Applicability, ScenarioKind};
    use macromodel::{Macromodel, PortStimulus, TestFixture};
    use std::sync::mpsc;

    #[test]
    fn scheduler_batches_and_replies() {
        let scheduler = Scheduler::new();
        let runner = {
            let s = Arc::clone(&scheduler);
            std::thread::spawn(move || s.run())
        };
        let model = Arc::new(super::super::tests::served_dummy("drv"));
        let scenario = standard_scenarios(true)
            .into_iter()
            .find(|s| s.applies_to == Applicability::Drivers)
            .unwrap();
        let n = 24;
        let (tx, rx) = mpsc::channel();
        for _ in 0..n {
            assert!(scheduler.submit(Job {
                model: Arc::clone(&model),
                task: CellTask::Scenario(scenario.clone()),
                reply: tx.clone(),
            }));
        }
        drop(tx);
        let reports: Vec<CellReport> = rx.iter().collect();
        assert_eq!(reports.len(), n);
        assert!(reports.iter().all(|r| r.pass), "dummy driver cells pass");
        assert!(reports.iter().all(|r| r.model == model.model.name()));
        let snap = scheduler.snapshot();
        assert_eq!(snap.cells, n as u64);
        assert!(snap.batches >= 2, "24 cells cannot fit one MAX_BATCH drain");
        assert!(snap.max_batch <= MAX_BATCH as u64);
        scheduler.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn panicking_cell_is_reported_and_the_runner_keeps_serving() {
        let scheduler = Scheduler::new();
        let runner = {
            let s = Arc::clone(&scheduler);
            std::thread::spawn(move || s.run())
        };
        let model = Arc::new(super::super::tests::served_dummy("drv"));
        // A zero-ohm load trips `Resistor::new`'s assertion: the cell panics.
        let panicking = Scenario {
            name: "zero-ohm".into(),
            applies_to: Applicability::Drivers,
            kind: ScenarioKind::Fixture {
                fixture: TestFixture::resistive(0.0),
                stim: Some(PortStimulus::new("01", 1e-9)),
                t_stop: 3e-9,
            },
        };
        // A conductor-less bus is a typed failure, no panic.
        let empty_bus = Scenario {
            name: "empty-bus".into(),
            applies_to: Applicability::Drivers,
            kind: ScenarioKind::BusLadder {
                conductors: 0,
                segments: 1,
                pattern: "01".into(),
                bit_time: 1e-9,
                t_stop: 3e-9,
            },
        };
        let good = standard_scenarios(true)
            .into_iter()
            .find(|s| s.name == "r50")
            .unwrap();
        let (tx, rx) = mpsc::channel();
        for scenario in [panicking, empty_bus, good] {
            assert!(scheduler.submit(Job {
                model: Arc::clone(&model),
                task: CellTask::Scenario(scenario),
                reply: tx.clone(),
            }));
            // One job per batch: each cell is submitted after the previous
            // one was handled.
            let report = rx.recv().expect("the runner replies");
            match report.scenario.as_str() {
                "zero-ohm" => assert!(
                    !report.pass
                        && report.detail.starts_with("panic: ")
                        && report.detail.contains("resistance must be positive"),
                    "{}",
                    report.detail
                ),
                "empty-bus" => assert!(
                    !report.pass
                        && !report.detail.starts_with("panic: ")
                        && report.detail.contains("coupled line"),
                    "{}",
                    report.detail
                ),
                _ => assert!(report.pass, "{}", report.detail),
            }
        }
        assert_eq!(scheduler.snapshot().panics, 1);
        scheduler.shutdown();
        runner.join().expect("the runner survives a panicking cell");
    }

    #[test]
    fn shutdown_completes_queued_work() {
        let scheduler = Scheduler::new();
        let model = Arc::new(super::super::tests::served_dummy("drv"));
        let scenario = standard_scenarios(true)
            .into_iter()
            .find(|s| s.applies_to == Applicability::Drivers)
            .unwrap();
        let (tx, rx) = mpsc::channel();
        for _ in 0..3 {
            assert!(scheduler.submit(Job {
                model: Arc::clone(&model),
                task: CellTask::Scenario(scenario.clone()),
                reply: tx.clone(),
            }));
        }
        drop(tx);
        // Stop is requested before the runner ever starts: the queued jobs
        // must still execute before the runner exits.
        scheduler.shutdown();
        let runner = {
            let s = Arc::clone(&scheduler);
            std::thread::spawn(move || s.run())
        };
        assert_eq!(rx.iter().count(), 3);
        runner.join().unwrap();
    }
}
