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

use macromodel::lint::json_str;
use macromodel::{
    artifact_digest, load_artifact_bytes, LoadMode, Macromodel, ModelKind, ModelStore,
};

use crate::serve::{
    json_f64, json_opt, mc_summary_json, standard_scenarios, Applicability, CellReport,
    EyeWorkload, McWorkload, Scenario, ScenarioKind,
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
}

impl ServeConfig {
    /// A config with the default 500 ms poll interval and full scenarios.
    pub fn new(store_dir: impl Into<PathBuf>, socket_path: impl Into<PathBuf>) -> Self {
        ServeConfig {
            store_dir: store_dir.into(),
            socket_path: socket_path.into(),
            poll_interval: Duration::from_millis(500),
            fast: false,
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
    /// Reader clones of live connections, shut down on stop to unblock
    /// handler threads parked in `read_frame`.
    conns: Mutex<Vec<UnixStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
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
        for s in self
            .inner
            .conns
            .lock()
            .expect("connection registry poisoned")
            .drain(..)
        {
            s.shutdown(std::net::Shutdown::Both).ok();
        }
        let handles: Vec<_> = self
            .inner
            .conn_threads
            .lock()
            .expect("connection threads poisoned")
            .drain(..)
            .collect();
        for t in handles {
            t.join().ok();
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
/// Unreadable store directory or an unbindable socket path.
pub fn start(cfg: ServeConfig) -> crate::Result<ServerHandle> {
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
        conn_threads: Mutex::new(Vec::new()),
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
                if let Ok(clone) = stream.try_clone() {
                    inner
                        .conns
                        .lock()
                        .expect("connection registry poisoned")
                        .push(clone);
                }
                let handler_inner = Arc::clone(inner);
                let handle = std::thread::spawn(move || handle_conn(&handler_inner, stream));
                let mut threads = inner
                    .conn_threads
                    .lock()
                    .expect("connection threads poisoned");
                threads.retain(|t| !t.is_finished());
                threads.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// One connection: read framed request lines, answer each with one JSON
/// frame, until EOF, error, or a `shutdown` request.
fn handle_conn(inner: &Arc<Inner>, stream: UnixStream) {
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
    format!(
        "{{\"ok\":false,\"op\":{},\"error\":{}}}",
        json_str(op),
        json_str(message)
    )
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
            info_json(inner, &name)
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
            return ("{\"ok\":true,\"op\":\"shutdown\"}".to_string(), true);
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
    format!(
        "{{\"ok\":true,\"op\":{},\"model\":{},\"kind\":{},\"scenario\":{},\"pass\":{},\
         \"detail\":{},\"digest\":{},\"config_digest\":{},\"rms_error\":{},\"samples\":{},\
         \"v_min\":{},\"v_max\":{},\"eye\":{},\"mc\":{},\"elapsed_s\":{}}}",
        json_str(op),
        json_str(&c.model),
        json_str(&c.kind),
        json_str(&c.scenario),
        c.pass,
        json_str(&c.detail),
        json_str(&model.digest),
        model
            .config_digest
            .as_deref()
            .map_or_else(|| "null".to_string(), json_str),
        json_opt(c.rms_error),
        c.samples,
        json_f64(c.v_min),
        json_f64(c.v_max),
        c.eye
            .as_ref()
            .map_or_else(|| "null".to_string(), |e| e.json()),
        c.mc.as_ref()
            .map_or_else(|| "null".to_string(), mc_summary_json),
        json_f64(c.elapsed_s),
    )
}

fn ls_json(inner: &Arc<Inner>) -> String {
    let generation = Arc::clone(&inner.generation.read().expect("generation lock poisoned"));
    let mut out = format!(
        "{{\"ok\":true,\"op\":\"ls\",\"generation\":{},\"artifacts\":{},\"models\":[",
        inner.counters.generation.load(Ordering::Relaxed),
        generation.artifacts
    );
    for (i, m) in generation.models.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"kind\":{},\"digest\":{},\"config_digest\":{},\"path\":{}}}",
            json_str(m.model.name()),
            json_str(m.model.kind().tag()),
            json_str(&m.digest),
            m.config_digest
                .as_deref()
                .map_or_else(|| "null".to_string(), json_str),
            json_str(&m.path.display().to_string()),
        ));
    }
    out.push_str("],\"failures\":[");
    for (i, (path, error)) in generation.failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"path\":{},\"error\":{}}}",
            json_str(path),
            json_str(error)
        ));
    }
    out.push_str("]}");
    out
}

fn lint_json(l: &crate::serve::ModelLint) -> String {
    let codes: Vec<String> = l.codes.iter().map(|c| json_str(c)).collect();
    format!(
        "{{\"errors\":{},\"warnings\":{},\"infos\":{},\"codes\":[{}]}}",
        l.errors,
        l.warnings,
        l.infos,
        codes.join(",")
    )
}

fn info_json(inner: &Arc<Inner>, name: &str) -> RespResult {
    let generation = Arc::clone(&inner.generation.read().expect("generation lock poisoned"));
    let Some(&idx) = generation.by_name.get(name) else {
        return Err(("info", format!("no model named '{name}' in the store")));
    };
    let m = &generation.models[idx];
    Ok(format!(
        "{{\"ok\":true,\"op\":\"info\",\"name\":{},\"kind\":{},\"digest\":{},\
         \"config_digest\":{},\"path\":{},\"sample_time_s\":{},\"summary\":{},\"lint\":{}}}",
        json_str(m.model.name()),
        json_str(m.model.kind().tag()),
        json_str(&m.digest),
        m.config_digest
            .as_deref()
            .map_or_else(|| "null".to_string(), json_str),
        json_str(&m.path.display().to_string()),
        json_opt(m.model.sample_time()),
        json_str(&m.model.summary()),
        lint_json(&m.lint),
    ))
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
    let mut out = format!(
        "{{\"ok\":true,\"op\":\"sweep\",\"generation\":{},\"cells\":{},\"passed\":{},\
         \"failed\":{},\"failing\":[",
        inner.counters.generation.load(Ordering::Relaxed),
        reports.len(),
        passed,
        reports.len() - passed
    );
    for (i, c) in reports.iter().filter(|c| !c.pass).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"model\":{},\"scenario\":{},\"detail\":{}}}",
            json_str(&c.model),
            json_str(&c.scenario),
            json_str(&c.detail)
        ));
    }
    out.push_str("]}");
    Ok(out)
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
    format!(
        "{{\"ok\":true,\"op\":\"stats\",\"generation\":{},\"models\":{},\"artifacts\":{},\
         \"requests\":{},\"errors\":{},\
         \"ops\":{{\"ls\":{},\"info\":{},\"validate\":{},\"simulate\":{},\"sweep\":{},\
         \"eye\":{},\"mc\":{},\"stats\":{}}},\
         \"cache\":{{\"hits\":{},\"misses\":{},\"hit_rate\":{},\"entries\":{}}},\
         \"lint\":{{\"errors\":{lint_e},\"warnings\":{lint_w},\"infos\":{lint_i}}},\
         \"reloads\":{},\
         \"scheduler\":{{\"batches\":{},\"cells\":{},\"max_batch\":{},\"panics\":{}}},\
         \"uptime_s\":{}}}",
        c.generation.load(Ordering::Relaxed),
        generation.models.len(),
        generation.artifacts,
        c.requests.load(Ordering::Relaxed),
        c.errors.load(Ordering::Relaxed),
        c.op_ls.load(Ordering::Relaxed),
        c.op_info.load(Ordering::Relaxed),
        c.op_validate.load(Ordering::Relaxed),
        c.op_simulate.load(Ordering::Relaxed),
        c.op_sweep.load(Ordering::Relaxed),
        c.op_eye.load(Ordering::Relaxed),
        c.op_mc.load(Ordering::Relaxed),
        c.op_stats.load(Ordering::Relaxed),
        hits,
        misses,
        json_f64(hit_rate),
        inner.cache.lock().expect("artifact cache poisoned").len(),
        c.reloads.load(Ordering::Relaxed),
        sched.batches,
        sched.cells,
        sched.max_batch,
        sched.panics,
        json_f64(inner.started.elapsed().as_secs_f64()),
    )
}

/// Connects to a running daemon and performs one framed request/response
/// round trip (shared by the CLI one-shot client and the load generator).
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
