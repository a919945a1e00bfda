//! The `mdl serve` daemon: a resident model store behind a Unix socket.
//!
//! Three long-lived threads plus one thread per connection:
//!
//! * the **listener** accepts connections on the socket and spawns a
//!   handler per client;
//! * the **watcher** polls artifact [`FileFingerprint`]s through
//!   [`ModelStore::refresh`] and publishes a new `Generation` when
//!   anything on disk changed;
//! * the **scheduler runner** drains the batched cell queue
//!   ([`super::scheduler`]).
//!
//! The inventory is an immutable `Generation` behind `RwLock<Arc<_>>`.
//! Requests resolve their model to an `Arc<ServedModel>` and drop the
//! lock before simulating, so a reload mid-cell swaps the published
//! generation without invalidating anything in flight — the old instance
//! lives until its last request releases it.
//!
//! Parsing is keyed by **artifact digest**
//! ([`macromodel::artifact_digest`]): for text files the FNV-1a hash of
//! the raw bytes, for binary `.mdlxb` containers the body digest embedded
//! in the file header (a fixed-offset read — no hash pass at all). A
//! reload therefore only re-parses artifacts whose bytes actually
//! changed; a `touch`ed but identical file is a cache hit, and the
//! `stats` request reports the hit/miss counters.
//!
//! [`FileFingerprint`]: macromodel::FileFingerprint

use std::collections::HashMap;
use std::io::BufReader;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use macromodel::json::{self, Layout, Raw};
use macromodel::{
    artifact_digest, load_artifact_bytes, LoadMode, Macromodel, ModelKind, ModelStore,
};

use crate::serve::{
    mc_summary_json, standard_scenarios, Applicability, CellReport, EyeWorkload, McWorkload,
    Scenario, ScenarioKind,
};

use super::cache::DigestCache;
use super::protocol::{self, Request};
use super::scheduler::{CellTask, Job, Scheduler};
use super::ServedModel;

/// Bound on live digest-cache entries; least-recently-used digests are
/// evicted past this.
const CACHE_CAP: usize = 128;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Artifact directory to serve (scanned recursively).
    pub store_dir: PathBuf,
    /// Unix-domain socket path; a stale file at this path is replaced.
    pub socket_path: PathBuf,
    /// Fingerprint polling interval of the hot-reload watcher.
    pub poll_interval: Duration,
    /// Use the shrunken smoke-test scenario set for `simulate` and as the
    /// `sweep` default.
    pub fast: bool,
    /// How long a connection may stay silent before the daemon closes it.
    /// Without a bound, a client that connects and never sends holds a
    /// handler thread for the daemon's lifetime.
    pub idle_timeout: Duration,
}

impl ServeConfig {
    /// A config with the default 500 ms poll interval, full scenarios and
    /// a 300 s idle-connection timeout.
    pub fn new(store_dir: impl Into<PathBuf>, socket_path: impl Into<PathBuf>) -> Self {
        ServeConfig {
            store_dir: store_dir.into(),
            socket_path: socket_path.into(),
            poll_interval: Duration::from_millis(500),
            fast: false,
            idle_timeout: Duration::from_secs(300),
        }
    }
}

/// One published inventory snapshot. Immutable once behind the `RwLock`.
struct Generation {
    /// Every served model, flattened across artifacts in path order.
    models: Vec<Arc<ServedModel>>,
    /// Name → index into `models` (duplicate names: later path wins).
    by_name: HashMap<String, usize>,
    /// `.mdlx` files scanned.
    artifacts: usize,
    /// Unreadable or unparsable files: `(path, error)`.
    failures: Vec<(String, String)>,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    errors: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    reloads: AtomicU64,
    generation: AtomicU64,
    op_ls: AtomicU64,
    op_info: AtomicU64,
    op_validate: AtomicU64,
    op_simulate: AtomicU64,
    op_sweep: AtomicU64,
    op_eye: AtomicU64,
    op_mc: AtomicU64,
    op_stats: AtomicU64,
}

struct Inner {
    cfg: ServeConfig,
    store: Mutex<ModelStore>,
    generation: RwLock<Arc<Generation>>,
    /// Content digest → parsed artifact models, LRU-bounded. Shared across
    /// generations: the hot-reload path only pays a parse for bytes it has
    /// never seen recently.
    cache: Mutex<DigestCache>,
    scheduler: Arc<Scheduler>,
    stop: AtomicBool,
    counters: Counters,
    started: Instant,
    /// Live connections: each handler thread with a clone of its stream,
    /// shut down on stop to unblock a handler parked in `read_frame`.
    /// Finished pairs are pruned on every accept, which closes the clone.
    conns: Mutex<Vec<(JoinHandle<()>, UnixStream)>>,
}

/// A started daemon: join it (runs until a `shutdown` request) or stop it
/// programmatically. Dropping the handle without either leaks the daemon
/// threads for the process lifetime.
pub struct ServerHandle {
    inner: Arc<Inner>,
    core_threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The socket the daemon listens on.
    pub fn socket_path(&self) -> PathBuf {
        self.inner.cfg.socket_path.clone()
    }

    /// Blocks until the daemon exits (a client sent `shutdown`), then
    /// tears down the remaining threads and the socket file.
    pub fn join(mut self) {
        self.finish();
    }

    /// Stops the daemon from this side and tears it down.
    pub fn stop(mut self) {
        self.inner.begin_shutdown();
        self.finish();
    }

    fn finish(&mut self) {
        for t in self.core_threads.drain(..) {
            t.join().ok();
        }
        let conns: Vec<_> = self
            .inner
            .conns
            .lock()
            .expect("connection registry poisoned")
            .drain(..)
            .collect();
        for (_, stream) in &conns {
            stream.shutdown(std::net::Shutdown::Both).ok();
        }
        for (thread, _) in conns {
            thread.join().ok();
        }
        std::fs::remove_file(&self.inner.cfg.socket_path).ok();
    }
}

impl Inner {
    fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.scheduler.shutdown();
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// Starts the daemon: scans the store, publishes the first generation,
/// binds the socket, and spawns the listener/watcher/scheduler threads.
/// Returns once the socket accepts connections.
///
/// # Errors
///
/// Unreadable store directory, an unbindable socket path, or a zero
/// `idle_timeout` (sockets reject a zero read timeout, so no connection
/// could be served).
pub fn start(cfg: ServeConfig) -> crate::Result<ServerHandle> {
    if cfg.idle_timeout.is_zero() {
        return Err("idle_timeout must be positive".into());
    }
    let store = ModelStore::open_with_mode(&cfg.store_dir, LoadMode::Lazy)?;
    if cfg.socket_path.exists() {
        std::fs::remove_file(&cfg.socket_path)?;
    }
    let listener = UnixListener::bind(&cfg.socket_path)?;
    listener.set_nonblocking(true)?;

    let inner = Arc::new(Inner {
        cfg,
        store: Mutex::new(store),
        generation: RwLock::new(Arc::new(Generation {
            models: Vec::new(),
            by_name: HashMap::new(),
            artifacts: 0,
            failures: Vec::new(),
        })),
        cache: Mutex::new(DigestCache::new(CACHE_CAP)),
        scheduler: Scheduler::new(),
        stop: AtomicBool::new(false),
        counters: Counters::default(),
        started: Instant::now(),
        conns: Mutex::new(Vec::new()),
    });
    publish_generation(&inner);

    let mut core_threads = Vec::with_capacity(3);
    {
        let scheduler = Arc::clone(&inner.scheduler);
        core_threads.push(std::thread::spawn(move || scheduler.run()));
    }
    {
        let inner = Arc::clone(&inner);
        core_threads.push(std::thread::spawn(move || watcher_loop(&inner)));
    }
    {
        let inner = Arc::clone(&inner);
        core_threads.push(std::thread::spawn(move || listener_loop(&inner, listener)));
    }
    Ok(ServerHandle {
        inner,
        core_threads,
    })
}

// ---------------------------------------------------------------------
// Generation building — the digest-keyed cache
// ---------------------------------------------------------------------

/// Builds a generation from the store's current entry list and swaps it
/// into place. Parse work is skipped for every file whose content digest
/// is already cached.
fn publish_generation(inner: &Inner) {
    let (paths, mut failures) = {
        let store = inner.store.lock().expect("store poisoned");
        let paths: Vec<PathBuf> = store.entries().map(|e| e.path().to_path_buf()).collect();
        // Scan-level failures (unreadable subdirectories); per-file load
        // errors are collected below from the daemon's own read+parse.
        let failures: Vec<(String, String)> = store
            .failures()
            .into_iter()
            .map(|f| (f.path.display().to_string(), f.error.to_string()))
            .collect();
        (paths, failures)
    };

    let mut models: Vec<Arc<ServedModel>> = Vec::new();
    let mut by_name = HashMap::new();
    let artifacts = paths.len();
    let mut cache = inner.cache.lock().expect("artifact cache poisoned");
    for path in paths {
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                failures.push((path.display().to_string(), e.to_string()));
                continue;
            }
        };
        // Binary containers carry their body digest in the header, so a
        // cache key costs a fixed-offset read instead of a hash pass.
        let digest = artifact_digest(&bytes);
        let served = if let Some(cached) = cache.get(&digest) {
            inner.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            cached
        } else {
            let parsed = load_artifact_bytes(&bytes).map_err(|e| e.to_string());
            let artifact = match parsed {
                Ok(a) => a,
                Err(e) => {
                    failures.push((path.display().to_string(), e));
                    continue;
                }
            };
            inner.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
            let config_digest = artifact
                .provenance
                .as_ref()
                .map(|p| p.config_digest.clone());
            let served: Vec<Arc<ServedModel>> = artifact
                .models
                .into_iter()
                .map(|model| {
                    // Lint once per parse; cache hits carry the summary
                    // along with the models (same bytes, same findings).
                    let lint = crate::serve::ModelLint::of(model.name(), &model);
                    Arc::new(ServedModel {
                        lint,
                        model,
                        digest: digest.clone(),
                        config_digest: config_digest.clone(),
                        path: path.clone(),
                    })
                })
                .collect();
            cache.insert(digest.clone(), served.clone());
            served
        };
        for m in served {
            by_name.insert(m.model.name().to_string(), models.len());
            models.push(m);
        }
    }
    drop(cache);

    *inner.generation.write().expect("generation lock poisoned") = Arc::new(Generation {
        models,
        by_name,
        artifacts,
        failures,
    });
    inner.counters.generation.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Daemon loops
// ---------------------------------------------------------------------

/// Polls artifact fingerprints and republishes on any filesystem change.
fn watcher_loop(inner: &Arc<Inner>) {
    while !inner.stopped() {
        let deadline = Instant::now() + inner.cfg.poll_interval;
        while Instant::now() < deadline && !inner.stopped() {
            std::thread::sleep(Duration::from_millis(10));
        }
        if inner.stopped() {
            return;
        }
        let outcome = inner.store.lock().expect("store poisoned").refresh();
        if outcome.any() {
            inner.counters.reloads.fetch_add(1, Ordering::Relaxed);
            publish_generation(inner);
        }
    }
}

/// Accepts connections until shutdown; one handler thread per client.
fn listener_loop(inner: &Arc<Inner>, listener: UnixListener) {
    while !inner.stopped() {
        match listener.accept() {
            Ok((stream, _addr)) => {
                stream.set_nonblocking(false).ok();
                // Without a clone to shut down, stop could not unblock the
                // handler: refuse the connection instead.
                let Ok(clone) = stream.try_clone() else {
                    continue;
                };
                let handler_inner = Arc::clone(inner);
                let handle = std::thread::spawn(move || handle_conn(&handler_inner, stream));
                let mut conns = inner.conns.lock().expect("connection registry poisoned");
                conns.retain(|(thread, _)| !thread.is_finished());
                conns.push((handle, clone));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// One connection: read framed request lines, answer each with one JSON
/// frame, until EOF, error, a `shutdown` request, or
/// [`ServeConfig::idle_timeout`] without a byte from the client (the
/// timed-out read is an error). The socket is then shut down, so the client
/// sees EOF at once even though the registry still holds a clone of the
/// stream until the next accept prunes it.
fn handle_conn(inner: &Arc<Inner>, stream: UnixStream) {
    if stream
        .set_read_timeout(Some(inner.cfg.idle_timeout))
        .is_ok()
    {
        serve_conn(inner, &stream);
    }
    stream.shutdown(std::net::Shutdown::Both).ok();
}

fn serve_conn(inner: &Arc<Inner>, stream: &UnixStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let line = match protocol::read_frame(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) | Err(_) => return,
        };
        inner.counters.requests.fetch_add(1, Ordering::Relaxed);
        let (response, close) = respond(inner, &line);
        if protocol::write_frame(&mut writer, &response).is_err() {
            return;
        }
        if close {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------

fn error_json(op: &str, message: &str) -> String {
    json::object(Layout::Compact, |o| {
        o.field("ok", false).field("op", op).field("error", message);
    })
}

fn respond(inner: &Arc<Inner>, line: &str) -> (String, bool) {
    let request = match protocol::parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            inner.counters.errors.fetch_add(1, Ordering::Relaxed);
            return (error_json("parse", &e), false);
        }
    };
    let response = match request {
        Request::Ls => {
            inner.counters.op_ls.fetch_add(1, Ordering::Relaxed);
            Ok(ls_json(inner))
        }
        Request::Info { name } => {
            inner.counters.op_info.fetch_add(1, Ordering::Relaxed);
            let generation =
                Arc::clone(&inner.generation.read().expect("generation lock poisoned"));
            match generation.by_name.get(&name) {
                Some(&idx) => Ok(info_json(&generation.models[idx])),
                None => Err(("info", format!("no model named '{name}' in the store"))),
            }
        }
        Request::Validate { name, fast } => {
            inner.counters.op_validate.fetch_add(1, Ordering::Relaxed);
            run_one(
                inner,
                &name,
                |_| Ok(CellTask::Validate { fast }),
                "validate",
            )
        }
        Request::Simulate { name, scenario } => {
            inner.counters.op_simulate.fetch_add(1, Ordering::Relaxed);
            let fast = inner.cfg.fast;
            run_one(
                inner,
                &name,
                |kind| resolve_scenario(fast, kind, &scenario).map(CellTask::Scenario),
                "simulate",
            )
        }
        Request::Sweep { fast } => {
            inner.counters.op_sweep.fetch_add(1, Ordering::Relaxed);
            sweep_json(inner, fast)
        }
        Request::Eye {
            name,
            prbs,
            bits,
            seed,
        } => {
            inner.counters.op_eye.fetch_add(1, Ordering::Relaxed);
            let mut w = EyeWorkload::standard(inner.cfg.fast);
            if let Some(p) = prbs {
                w.prbs = p;
            }
            if let Some(b) = bits {
                w.bits = b;
            }
            if let Some(s) = seed {
                w.seed = s;
            }
            run_one(
                inner,
                &name,
                |kind| {
                    if !kind.is_driver() {
                        return Err(format!("eye requires a driver model, got {}", kind.tag()));
                    }
                    Ok(CellTask::Scenario(Scenario {
                        name: "eye".into(),
                        applies_to: Applicability::Drivers,
                        kind: ScenarioKind::Eye(w),
                    }))
                },
                "eye",
            )
        }
        Request::Mc { name, trials, seed } => {
            inner.counters.op_mc.fetch_add(1, Ordering::Relaxed);
            let mut w = McWorkload::standard(inner.cfg.fast);
            if let Some(t) = trials {
                w.trials = t;
            }
            if let Some(s) = seed {
                w.seed = s;
            }
            run_one(
                inner,
                &name,
                |kind| {
                    if !kind.is_driver() {
                        return Err(format!("mc requires a driver model, got {}", kind.tag()));
                    }
                    Ok(CellTask::Scenario(Scenario {
                        name: "mc".into(),
                        applies_to: Applicability::Drivers,
                        kind: ScenarioKind::MonteCarlo(w),
                    }))
                },
                "mc",
            )
        }
        Request::Stats => {
            inner.counters.op_stats.fetch_add(1, Ordering::Relaxed);
            Ok(stats_json(inner))
        }
        Request::Shutdown => {
            inner.begin_shutdown();
            let ack = json::object(Layout::Compact, |o| {
                o.field("ok", true).field("op", "shutdown");
            });
            return (ack, true);
        }
    };
    match response {
        Ok(json) => (json, false),
        Err((op, message)) => {
            inner.counters.errors.fetch_add(1, Ordering::Relaxed);
            (error_json(op, &message), false)
        }
    }
}

type RespResult = std::result::Result<String, (&'static str, String)>;

fn resolve_scenario(fast: bool, kind: ModelKind, wanted: &str) -> Result<Scenario, String> {
    let wanted = if wanted == "auto" {
        if kind.is_driver() {
            "r50"
        } else {
            "pulse"
        }
    } else {
        wanted
    };
    let scenario = standard_scenarios(fast)
        .into_iter()
        .find(|s| s.name == wanted)
        .ok_or_else(|| format!("unknown scenario '{wanted}'"))?;
    if !scenario.applies(kind) {
        return Err(format!(
            "scenario '{}' does not apply to {} models",
            scenario.name,
            kind.tag()
        ));
    }
    Ok(scenario)
}

/// Resolves a model, builds its task, schedules the cell, and waits for
/// the report.
fn run_one(
    inner: &Arc<Inner>,
    name: &str,
    task: impl FnOnce(ModelKind) -> Result<CellTask, String>,
    op: &'static str,
) -> RespResult {
    let model = {
        let generation = inner.generation.read().expect("generation lock poisoned");
        let generation = Arc::clone(&generation);
        generation
            .by_name
            .get(name)
            .map(|&i| Arc::clone(&generation.models[i]))
    };
    let Some(model) = model else {
        return Err((op, format!("no model named '{name}' in the store")));
    };
    let task = task(model.model.kind()).map_err(|e| (op, e))?;
    let (tx, rx) = mpsc::channel();
    if !inner.scheduler.submit(Job {
        model: Arc::clone(&model),
        task,
        reply: tx,
    }) {
        return Err((op, "daemon is shutting down".into()));
    }
    let report = rx
        .recv()
        .map_err(|_| (op, "scheduler dropped the cell".to_string()))?;
    Ok(cell_json(op, &model, &report))
}

fn cell_json(op: &str, model: &ServedModel, c: &CellReport) -> String {
    json::object(Layout::Compact, |o| {
        o.field("ok", true)
            .field("op", op)
            .field("model", &c.model)
            .field("kind", &c.kind)
            .field("scenario", &c.scenario)
            .field("pass", c.pass)
            .field("detail", &c.detail)
            .field("digest", &model.digest)
            .field("config_digest", &model.config_digest)
            .field("rms_error", c.rms_error)
            .field("samples", c.samples)
            .field("v_min", c.v_min)
            .field("v_max", c.v_max)
            .field("eye", c.eye.as_ref().map(|e| Raw(e.json())))
            .field("mc", c.mc.as_ref().map(|m| Raw(mc_summary_json(m))))
            .field("elapsed_s", c.elapsed_s);
    })
}

fn ls_json(inner: &Arc<Inner>) -> String {
    let generation = Arc::clone(&inner.generation.read().expect("generation lock poisoned"));
    json::object(Layout::Compact, |o| {
        o.field("ok", true)
            .field("op", "ls")
            .field(
                "generation",
                inner.counters.generation.load(Ordering::Relaxed),
            )
            .field("artifacts", generation.artifacts)
            .array("models", Layout::Compact, |a| {
                for m in &generation.models {
                    a.object(Layout::Compact, |o| {
                        o.field("name", m.model.name())
                            .field("kind", m.model.kind().tag())
                            .field("digest", &m.digest)
                            .field("config_digest", &m.config_digest)
                            .field("path", m.path.display().to_string());
                    });
                }
            })
            .array("failures", Layout::Compact, |a| {
                for (path, error) in &generation.failures {
                    a.object(Layout::Compact, |o| {
                        o.field("path", path).field("error", error);
                    });
                }
            });
    })
}

fn lint_json(l: &crate::serve::ModelLint) -> String {
    json::object(Layout::Compact, |o| {
        o.field("errors", l.errors)
            .field("warnings", l.warnings)
            .field("infos", l.infos)
            .array("codes", Layout::Compact, |a| {
                for code in &l.codes {
                    a.push(code);
                }
            });
    })
}

fn info_json(m: &ServedModel) -> String {
    json::object(Layout::Compact, |o| {
        o.field("ok", true)
            .field("op", "info")
            .field("name", m.model.name())
            .field("kind", m.model.kind().tag())
            .field("digest", &m.digest)
            .field("config_digest", &m.config_digest)
            .field("path", m.path.display().to_string())
            .field("sample_time_s", m.model.sample_time())
            .field("summary", m.model.summary())
            .field("lint", Raw(lint_json(&m.lint)));
    })
}

fn sweep_json(inner: &Arc<Inner>, fast: bool) -> RespResult {
    let generation = Arc::clone(&inner.generation.read().expect("generation lock poisoned"));
    let scenarios = standard_scenarios(fast);
    let (tx, rx) = mpsc::channel();
    let mut submitted = 0usize;
    for model in &generation.models {
        for scenario in scenarios.iter().filter(|s| s.applies(model.model.kind())) {
            if !inner.scheduler.submit(Job {
                model: Arc::clone(model),
                task: CellTask::Scenario(scenario.clone()),
                reply: tx.clone(),
            }) {
                return Err(("sweep", "daemon is shutting down".into()));
            }
            submitted += 1;
        }
    }
    drop(tx);
    let reports: Vec<CellReport> = rx.iter().collect();
    if reports.len() != submitted {
        return Err(("sweep", "scheduler dropped sweep cells".into()));
    }
    let passed = reports.iter().filter(|c| c.pass).count();
    Ok(json::object(Layout::Compact, |o| {
        o.field("ok", true)
            .field("op", "sweep")
            .field(
                "generation",
                inner.counters.generation.load(Ordering::Relaxed),
            )
            .field("cells", reports.len())
            .field("passed", passed)
            .field("failed", reports.len() - passed)
            .array("failing", Layout::Compact, |a| {
                for c in reports.iter().filter(|c| !c.pass) {
                    a.object(Layout::Compact, |o| {
                        o.field("model", &c.model)
                            .field("scenario", &c.scenario)
                            .field("detail", &c.detail);
                    });
                }
            });
    }))
}

fn stats_json(inner: &Arc<Inner>) -> String {
    let generation = Arc::clone(&inner.generation.read().expect("generation lock poisoned"));
    let c = &inner.counters;
    let hits = c.cache_hits.load(Ordering::Relaxed);
    let misses = c.cache_misses.load(Ordering::Relaxed);
    let hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    let sched = inner.scheduler.snapshot();
    // Static-analysis totals of the published generation: a hot reload that
    // swaps in a defective artifact shows up here without any new request.
    let (lint_e, lint_w, lint_i) = generation.models.iter().fold((0, 0, 0), |acc, m| {
        (
            acc.0 + m.lint.errors,
            acc.1 + m.lint.warnings,
            acc.2 + m.lint.infos,
        )
    });
    let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    json::object(Layout::Compact, |o| {
        o.field("ok", true)
            .field("op", "stats")
            .field("generation", load(&c.generation))
            .field("models", generation.models.len())
            .field("artifacts", generation.artifacts)
            .field("requests", load(&c.requests))
            .field("errors", load(&c.errors))
            .object("ops", Layout::Compact, |o| {
                o.field("ls", load(&c.op_ls))
                    .field("info", load(&c.op_info))
                    .field("validate", load(&c.op_validate))
                    .field("simulate", load(&c.op_simulate))
                    .field("sweep", load(&c.op_sweep))
                    .field("eye", load(&c.op_eye))
                    .field("mc", load(&c.op_mc))
                    .field("stats", load(&c.op_stats));
            })
            .object("cache", Layout::Compact, |o| {
                o.field("hits", hits)
                    .field("misses", misses)
                    .field("hit_rate", hit_rate)
                    .field(
                        "entries",
                        inner.cache.lock().expect("artifact cache poisoned").len(),
                    );
            })
            .object("lint", Layout::Compact, |o| {
                o.field("errors", lint_e)
                    .field("warnings", lint_w)
                    .field("infos", lint_i);
            })
            .field("reloads", load(&c.reloads))
            .object("scheduler", Layout::Compact, |o| {
                o.field("batches", sched.batches)
                    .field("cells", sched.cells)
                    .field("max_batch", sched.max_batch)
                    .field("panics", sched.panics);
            })
            .field("uptime_s", inner.started.elapsed().as_secs_f64());
    })
}

/// Connects to a running daemon and performs one framed request/response
/// round trip: the one-shot client behind `mdl request`.
///
/// # Errors
///
/// Connection and framing failures; an early-closed server surfaces as
/// `UnexpectedEof`.
pub fn request_once(socket: &Path, line: &str) -> std::io::Result<String> {
    let stream = UnixStream::connect(socket)?;
    let mut client = Client::new(stream)?;
    client.request(line)
}

/// A connected daemon client speaking the framed protocol.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connects to the daemon socket.
    ///
    /// # Errors
    ///
    /// Socket connection failures.
    pub fn connect(socket: &Path) -> std::io::Result<Client> {
        Client::new(UnixStream::connect(socket)?)
    }

    fn new(stream: UnixStream) -> std::io::Result<Client> {
        let read_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: stream,
        })
    }

    /// One request/response round trip.
    ///
    /// # Errors
    ///
    /// Framing and I/O failures; a server that closed without answering
    /// surfaces as `UnexpectedEof`.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        protocol::write_frame(&mut self.writer, line)?;
        protocol::read_frame(&mut self.reader)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before answering",
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::tests::golden_cell;
    use crate::serve::ModelLint;

    #[test]
    fn closed_connections_leave_the_registry() {
        let dir = std::env::temp_dir().join(format!("daemon_conns_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let handle = start(ServeConfig::new(&dir, dir.join("d.sock"))).unwrap();
        for _ in 0..100 {
            let response = request_once(&handle.socket_path(), "ls").unwrap();
            assert!(response.starts_with("{\"ok\":true"), "{response}");
        }
        // A handler exits on its client's EOF and is pruned, with its
        // stream clone, at a later accept: only the last few can be left.
        let live = handle.inner.conns.lock().unwrap().len();
        assert!(live <= 10, "{live} connections still registered");
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn responses_match_golden_bytes() {
        assert_eq!(
            error_json("parse", "bad \"line\"\n\\ é\u{2}"),
            "{\"ok\":false,\"op\":\"parse\",\"error\":\"bad \\\"line\\\"\\n\\\\ é\\u0002\"}"
        );
        let mut model = super::super::tests::served_dummy("d\"1\\é\n");
        assert_eq!(
            cell_json("simulate", &model, &golden_cell()),
            concat!(
                "{\"ok\":true,\"op\":\"simulate\",\"model\":\"drv \\\"q\\\" \\\\ é\",",
                "\"kind\":\"pwrbf-driver\",\"scenario\":\"eye-prbs7\",\"pass\":false,",
                "\"detail\":\"line1\\nline2\\t\\u0001\u{7f}✓\",\"digest\":\"0123456789abcdef\",",
                "\"config_digest\":null,\"rms_error\":1.25e-2,\"samples\":321,\"v_min\":null,",
                "\"v_max\":1.8e0,\"eye\":{\"prbs\": 7, \"bits\": 24, ",
                "\"seed\": 18446744073709551615, \"lanes\": 4, \"worst_lane\": 2, ",
                "\"open\": true, \"eye_height\": 8.125e-1, ",
                "\"eye_width_ui\": 3.0000000000000004e-1, \"jitter_pp_s\": 1.5e-11, ",
                "\"jitter_rms_s\": null, \"overshoot\": null, \"undershoot\": null, ",
                "\"v_high\": 1.8e0, \"v_low\": -0e0, \"crossings\": 17},\"mc\":{\"trials\": 8, ",
                "\"seed\": 247488237, \"closed_eyes\": 1, \"eye_height_min\": 5e-324, ",
                "\"eye_height_mean\": null, \"eye_height_q05\": 2.5e-1, ",
                "\"eye_width_min_ui\": null, \"jitter_pp_q_s\": 1e-300, ",
                "\"jitter_pp_max_s\": null, \"pass\": false},\"elapsed_s\":5e-1}",
            )
        );
        assert_eq!(
            info_json(&model),
            concat!(
                "{\"ok\":true,\"op\":\"info\",\"name\":\"d\\\"1\\\\é\\n\",\"kind\":\"pwrbf-driver\",",
                "\"digest\":\"0123456789abcdef\",\"config_digest\":null,",
                "\"path\":\"d\\\"1\\\\é\\n.mdlx\",\"sample_time_s\":2.5e-11,",
                "\"summary\":\"PW-RBF 'd\\\"1\\\\é\\n': Ts = 2.500e-11 s, r = 1, 0 + 0 basis functions, up window 2 samples, down window 2 samples\",\"lint\":{\"errors\":0,\"warnings\":0,\"infos\":0,\"codes\":[]}}",
            )
        );
        model.config_digest = Some("cfg\"d".into());
        model.lint = ModelLint {
            model: "x".into(),
            errors: 1,
            warnings: 2,
            infos: 3,
            codes: vec!["M001".into(), "M\"7".into()],
        };
        assert_eq!(
            cell_json("eye", &model, &golden_cell()),
            concat!(
                "{\"ok\":true,\"op\":\"eye\",\"model\":\"drv \\\"q\\\" \\\\ é\",\"kind\":\"pwrbf-driver\",",
                "\"scenario\":\"eye-prbs7\",\"pass\":false,\"detail\":\"line1\\nline2\\t\\u0001\u{7f}✓\",",
                "\"digest\":\"0123456789abcdef\",\"config_digest\":\"cfg\\\"d\",",
                "\"rms_error\":1.25e-2,\"samples\":321,\"v_min\":null,\"v_max\":1.8e0,",
                "\"eye\":{\"prbs\": 7, \"bits\": 24, \"seed\": 18446744073709551615, ",
                "\"lanes\": 4, \"worst_lane\": 2, \"open\": true, \"eye_height\": 8.125e-1, ",
                "\"eye_width_ui\": 3.0000000000000004e-1, \"jitter_pp_s\": 1.5e-11, ",
                "\"jitter_rms_s\": null, \"overshoot\": null, \"undershoot\": null, ",
                "\"v_high\": 1.8e0, \"v_low\": -0e0, \"crossings\": 17},\"mc\":{\"trials\": 8, ",
                "\"seed\": 247488237, \"closed_eyes\": 1, \"eye_height_min\": 5e-324, ",
                "\"eye_height_mean\": null, \"eye_height_q05\": 2.5e-1, ",
                "\"eye_width_min_ui\": null, \"jitter_pp_q_s\": 1e-300, ",
                "\"jitter_pp_max_s\": null, \"pass\": false},\"elapsed_s\":5e-1}",
            )
        );
        assert_eq!(
            info_json(&model),
            concat!(
                "{\"ok\":true,\"op\":\"info\",\"name\":\"d\\\"1\\\\é\\n\",\"kind\":\"pwrbf-driver\",",
                "\"digest\":\"0123456789abcdef\",\"config_digest\":\"cfg\\\"d\",",
                "\"path\":\"d\\\"1\\\\é\\n.mdlx\",\"sample_time_s\":2.5e-11,",
                "\"summary\":\"PW-RBF 'd\\\"1\\\\é\\n': Ts = 2.500e-11 s, r = 1, 0 + 0 basis functions, up window 2 samples, down window 2 samples\",\"lint\":{\"errors\":1,\"warnings\":2,\"infos\":3,\"codes\":[\"M001\",\"M\\\"7\"]}}",
            )
        );
        assert_eq!(
            lint_json(&model.lint),
            "{\"errors\":1,\"warnings\":2,\"infos\":3,\"codes\":[\"M001\",\"M\\\"7\"]}"
        );
    }
}
