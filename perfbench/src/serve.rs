//! `serve`: the `mdl serve` daemon with its default configuration over a
//! 16-model store. One generator sends an open-loop schedule of
//! `simulate` and `info` requests over two connections, closed-loop
//! windows on the same connections measure throughput, and the main
//! thread rewrites one artifact about once a second, so every write forces
//! a hot reload that misses the digest cache.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use emc_bench::server::daemon::Client;
use emc_bench::server::{start, ServeConfig, ServerHandle};
use macromodel::Macromodel;

use crate::fixtures::{write_store, Fixtures, Layout, StoredArtifact};
use crate::stats::{median, percentile, Rng, Sent};
use crate::trace::Tracer;
use crate::{Budget, Ctx, FlowOut, Metric};

/// 3 each of md1/md2/md3 PW-RBF, one md1 IBIS corner bundle, 2 md4
/// receivers and 2 md4 C–R̂: 16 models.
const LAYOUT: Layout = Layout {
    per_driver: 3,
    ibis_bundles: 1,
    receivers: 2,
    crs: 2,
};
/// Open-loop rate (requests/s), well below saturation on 2 CPUs.
const RATE: f64 = 100.0;
/// Length of one open-loop window (s).
const OPEN_S: f64 = 2.0;
/// Length of one closed-loop window (s).
const CLOSED_S: f64 = 0.5;
/// Interval between artifact rewrites (s); the watcher polls every 0.5 s,
/// so each write is seen as its own reload.
const WRITE_EVERY_S: f64 = 1.0;
/// Share of `info` requests in the mix; the rest are `simulate`.
const INFO_SHARE: u64 = 4;

#[derive(Clone)]
struct Target {
    name: String,
    driver: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Info,
    Simulate,
}

/// The next request of the seeded mix.
fn next_request(rng: &mut Rng, targets: &[Target]) -> (Op, String) {
    let t = &targets[rng.below(targets.len())];
    if rng.next_u64().is_multiple_of(INFO_SHARE) {
        return (Op::Info, format!("info {}", t.name));
    }
    let scenario = match (t.driver, rng.next_u64() % 2) {
        (false, _) => "pulse",
        (true, 0) => "r50",
        (true, _) => "linecap",
    };
    (
        Op::Simulate,
        format!("simulate {} --scenario {scenario}", t.name),
    )
}

/// A numeric field of a flat daemon JSON response.
fn field(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Whether a response reports success (and, for a cell, a passing one).
fn response_ok(op: Op, resp: &str) -> bool {
    resp.contains("\"ok\":true") && (op == Op::Info || resp.contains("\"pass\":true"))
}

struct Rec {
    op: Op,
    sent: Sent,
    elapsed_s: Option<f64>,
}

#[derive(Default)]
struct Tally {
    open: Vec<Rec>,
    traced_lat: Vec<f64>,
    plain_lat: Vec<f64>,
    rps: Vec<f64>,
}

/// The writer: rewrites its target artifact every [`WRITE_EVERY_S`].
struct Writer<'a> {
    target: &'a StoredArtifact,
    next: Instant,
    writes: u64,
}

impl Writer<'_> {
    /// Writes on the calling thread until `end`.
    fn run_until(&mut self, end: Instant, tr: &Tracer, out: &mut FlowOut) {
        loop {
            let now = Instant::now();
            if now >= end {
                return;
            }
            if now >= self.next {
                self.writes += 1;
                out.attempted += 1;
                if let Err(e) = tr.span("serve.write", None, || rewrite(self.target, self.writes)) {
                    out.fail(format!("artifact rewrite: {e}"));
                }
                self.next += Duration::from_secs_f64(WRITE_EVERY_S);
            }
            std::thread::sleep(self.next.min(end).saturating_duration_since(Instant::now()));
        }
    }
}

/// Sleeps until shortly before `t`, then spins: a plain sleep overshoots
/// by a timer slack that would count as latency of the system.
fn wait_until(t: Instant) {
    let slack = Duration::from_micros(300);
    std::thread::sleep(t.saturating_duration_since(Instant::now() + slack));
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// One open-loop request: index, timing, response.
type Reply = (usize, Sent, Result<String, String>);

struct Daemon {
    handle: ServerHandle,
    dir: PathBuf,
    stored: Vec<StoredArtifact>,
}

impl Daemon {
    fn stop(self) {
        self.handle.stop();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn set_up(ctx: &Ctx, k: usize) -> crate::Result<Daemon> {
    let dir = ctx.dir.join(format!("serve-{k}"));
    let fx = ctx.tr.span("setup.fixtures", None, Fixtures::extract)?;
    let stored = ctx.tr.span("setup.write_store", None, || {
        write_store(&dir, &fx, LAYOUT, &mut Rng::new(ctx.seed, 4))
    })?;
    let sock = ctx.dir.join(format!("serve-{k}.sock"));
    let handle = ctx.tr.span("setup.daemon_start", None, || {
        start(ServeConfig::new(&dir, sock))
    })?;
    Ok(Daemon {
        handle,
        dir,
        stored,
    })
}

/// Rewrites the writer's target with a fresh provenance parameter.
fn rewrite(target: &StoredArtifact, rev: u64) -> crate::Result<()> {
    let mut a = target.clone();
    a.artifact.provenance = a
        .artifact
        .provenance
        .map(|p| p.with_param("rev", rev.to_string()));
    a.write()
}

/// One open-loop window: request `i` is due at `i / RATE`; connection
/// `i % 2` writes it at its due time or as soon as its previous request
/// returned, whichever is later.
fn open_window(
    clients: &mut [Client; 2],
    reqs: &[(Op, String)],
    tr: &Tracer,
    next_id: &mut u64,
    writer: &mut Writer,
    tally: &mut Tally,
    out: &mut FlowOut,
) {
    let start = Instant::now();
    let base_id = *next_id;
    *next_id += reqs.len() as u64;
    let results: Vec<Vec<Reply>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(j, client)| {
                s.spawn(move || {
                    let mut recs = Vec::new();
                    for (i, (_, line)) in reqs.iter().enumerate().skip(j).step_by(2) {
                        let due = i as f64 / RATE;
                        wait_until(start + Duration::from_secs_f64(due));
                        let sent = start.elapsed().as_secs_f64();
                        let resp = client.request(line).map_err(|e| e.to_string());
                        let done = start.elapsed().as_secs_f64();
                        recs.push((i, Sent { due, sent, done }, resp));
                    }
                    recs
                })
            })
            .collect();
        let end = start + Duration::from_secs_f64(reqs.len() as f64 / RATE);
        writer.run_until(end, tr, out);
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop connection thread panicked"))
            .collect()
    });
    let t0 = tr.at(start);
    for (i, sent, resp) in results.into_iter().flatten() {
        let op = reqs[i].0;
        out.attempted += 1;
        let elapsed_s = match &resp {
            Ok(r) if response_ok(op, r) => field(r, "elapsed_s"),
            Ok(r) => {
                out.fail(format!("{}: {r}", reqs[i].1));
                continue;
            }
            Err(e) => {
                out.fail(format!("{}: {e}", reqs[i].1));
                continue;
            }
        };
        if tr.on() {
            let id = Some(base_id + i as u64);
            let parent = tr.record("serve.request", t0 + sent.due, t0 + sent.done, None, id);
            tr.record("serve.late", t0 + sent.due, t0 + sent.sent, parent, id);
            let name = match op {
                Op::Info => "server.info",
                Op::Simulate => "server.simulate",
            };
            tr.record(name, t0 + sent.sent, t0 + sent.done, parent, id);
            tally.traced_lat.push(sent.latency());
        } else {
            tally.plain_lat.push(sent.latency());
        }
        tally.open.push(Rec {
            op,
            sent,
            elapsed_s,
        });
    }
}

/// One closed-loop window: each connection sends its next request as soon
/// as the previous one returns. Returns completed requests per second.
fn closed_window(
    clients: &mut [Client; 2],
    rngs: &mut [Rng; 2],
    targets: &[Target],
    tr: &Tracer,
    writer: &mut Writer,
    out: &mut FlowOut,
) -> f64 {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(CLOSED_S);
    let results: Vec<(u64, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(rngs.iter_mut())
            .map(|(client, rng)| {
                s.spawn(move || {
                    let (mut n, mut errors) = (0u64, Vec::new());
                    while Instant::now() < end {
                        let (op, line) = next_request(rng, targets);
                        n += 1;
                        match client.request(&line) {
                            Ok(r) if response_ok(op, &r) => {}
                            Ok(r) => errors.push(format!("{line}: {r}")),
                            Err(e) => errors.push(format!("{line}: {e}")),
                        }
                    }
                    (n, errors)
                })
            })
            .collect();
        writer.run_until(end, tr, out);
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut done = 0;
    for (n, errors) in results {
        out.attempted += n;
        done += n;
        for e in errors {
            out.fail(e);
        }
    }
    done as f64 / wall
}

/// Daemon counters from the `stats` op.
#[derive(Default, Clone, Copy)]
struct Stats {
    hits: f64,
    misses: f64,
    reloads: f64,
    batches: f64,
    cells: f64,
    max_batch: f64,
}

fn stats(client: &mut Client) -> crate::Result<Stats> {
    let r = client.request("stats")?;
    let f = |k: &str| field(&r, k).ok_or_else(|| format!("stats lacks {k}: {r}"));
    Ok(Stats {
        hits: f("hits")?,
        misses: f("misses")?,
        reloads: f("reloads")?,
        batches: f("batches")?,
        cells: f("cells")?,
        max_batch: f("max_batch")?,
    })
}

/// Runs the flow.
pub fn run(ctx: &Ctx, budget: Budget) -> FlowOut {
    let mut out = FlowOut::default();
    let mut setup = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for k in 0..budget.setups() {
        let t0 = Instant::now();
        let made = set_up(ctx, k);
        setup.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        match made {
            Ok(d) => {
                if let Some(old) = daemon.replace(d) {
                    old.stop();
                }
            }
            Err(e) => out.fail(format!("serve set-up: {e}")),
        }
    }
    let Some(daemon) = daemon else {
        return out;
    };
    out.setup_s = median(&setup).unwrap_or(0.0);
    measure(ctx, budget, &daemon, &mut out);
    daemon.stop();
    out
}

fn measure(ctx: &Ctx, budget: Budget, daemon: &Daemon, out: &mut FlowOut) {
    let targets: Vec<Target> = daemon
        .stored
        .iter()
        .flat_map(|a| a.artifact.models.iter())
        .map(|m| Target {
            name: m.name().to_string(),
            driver: m.kind().is_driver(),
        })
        .collect();
    let mut rng = Rng::new(ctx.seed, 5);
    let target = &daemon.stored[rng.below(daemon.stored.len())];
    let sock = daemon.handle.socket_path();
    let connect = || Client::connect(&sock);
    let mut clients = match (connect(), connect()) {
        (Ok(a), Ok(b)) => [a, b],
        (Err(e), _) | (_, Err(e)) => {
            out.attempted += 1;
            out.fail(format!("connect: {e}"));
            return;
        }
    };
    // Warm-up: every target once through each of its request kinds.
    for t in &targets {
        let scenarios: &[&str] = if t.driver {
            &["r50", "linecap"]
        } else {
            &["pulse"]
        };
        let lines = std::iter::once((Op::Info, format!("info {}", t.name))).chain(
            scenarios
                .iter()
                .map(|s| (Op::Simulate, format!("simulate {} --scenario {s}", t.name))),
        );
        for (op, line) in lines {
            out.attempted += 1;
            match clients[0].request(&line) {
                Ok(r) if response_ok(op, &r) => {}
                Ok(r) => out.fail(format!("warm-up {line}: {r}")),
                Err(e) => out.fail(format!("warm-up {line}: {e}")),
            }
        }
    }
    let before = match stats(&mut clients[0]) {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("stats: {e}"));
            return;
        }
    };

    let plain = Tracer::new(false);
    let mut tally = Tally::default();
    let mut closed_rngs = [Rng::new(ctx.seed, 6), Rng::new(ctx.seed, 7)];
    let mut next_id = 0u64;
    let t0 = Instant::now();
    let mut writer = Writer {
        target,
        next: t0 + Duration::from_secs_f64(WRITE_EVERY_S / 2.0),
        writes: 0,
    };
    let mut n = 0usize;
    while budget.more(n, t0) {
        let traced = ctx.tr.on() && n.is_multiple_of(2);
        let tr = if traced { &ctx.tr } else { &plain };
        let reqs: Vec<(Op, String)> = (0..(RATE * OPEN_S) as usize)
            .map(|_| next_request(&mut rng, &targets))
            .collect();
        open_window(
            &mut clients,
            &reqs,
            tr,
            &mut next_id,
            &mut writer,
            &mut tally,
            out,
        );
        let rps = closed_window(
            &mut clients,
            &mut closed_rngs,
            &targets,
            tr,
            &mut writer,
            out,
        );
        tally.rps.push(rps);
        n += 1;
    }

    // Every write must show up as exactly one reload.
    let deadline = Instant::now() + Duration::from_secs(5);
    let after = loop {
        std::thread::sleep(Duration::from_millis(100));
        match stats(&mut clients[0]) {
            Ok(s) if s.reloads - before.reloads >= writer.writes as f64 => break Some(s),
            Ok(s) if Instant::now() >= deadline => break Some(s),
            Ok(_) => {}
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("stats: {e}"));
                break None;
            }
        }
    };
    let after = after.unwrap_or(before);
    let reloads = after.reloads - before.reloads;
    out.attempted += 1;
    if reloads != writer.writes as f64 {
        out.fail(format!("{} writes but {reloads} reloads", writer.writes));
    }

    let lat: Vec<f64> = tally.open.iter().map(|r| r.sent.latency()).collect();
    let late: Vec<f64> = tally.open.iter().map(|r| r.sent.late()).collect();
    let of = |op: Op| tally.open.iter().filter(move |r| r.op == op);
    let info: Vec<f64> = of(Op::Info).map(|r| r.sent.service()).collect();
    let run: Vec<f64> = of(Op::Simulate).filter_map(|r| r.elapsed_s).collect();
    let queue: Vec<f64> = of(Op::Simulate)
        .filter_map(|r| r.elapsed_s.map(|e| r.sent.service() - e))
        .collect();
    let p50 = median(&lat).unwrap_or(0.0);
    let p90 = percentile(&lat, 90.0, 10).unwrap_or(0.0);
    let late_p90 = percentile(&late, 90.0, 10).unwrap_or(0.0);
    out.op_s = p50;
    let rps = median(&tally.rps).unwrap_or(0.0);
    out.overhead_pct = crate::overhead_pct(&tally.traced_lat, &tally.plain_lat);
    out.lines.push(format!(
        "serve: {} open-loop requests at {RATE} req/s: p50 {:.6} s  p90 {:.6} s; \
         generator late p50 {:.6} s p90 {late_p90:.6} s max {:.6} s; closed loop {:.1} req/s; \
         {} writes, {reloads} reloads",
        lat.len(),
        p50,
        p90,
        median(&late).unwrap_or(0.0),
        late.iter().copied().fold(0.0, f64::max),
        rps,
        writer.writes,
    ));

    let d = |f: fn(&Stats) -> f64| f(&after) - f(&before);
    let batches = d(|s| s.batches);
    let lookups = d(|s| s.hits) + d(|s| s.misses);
    out.layer = vec![
        Metric::s("server.p50_s", p50),
        Metric::s("server.p90_s", p90),
        Metric::per_s("server.rps", rps),
        Metric::s("server.generator_late_p90_s", late_p90),
        Metric::s("server.info_s", median(&info).unwrap_or(0.0)),
        Metric::s("server.run_s", median(&run).unwrap_or(0.0)),
        Metric::s("server.queue_s", median(&queue).unwrap_or(0.0)),
        Metric::count("server.batches", batches as u64),
        Metric::ratio(
            "server.cells_per_batch",
            if batches > 0.0 {
                d(|s| s.cells) / batches
            } else {
                0.0
            },
        ),
        Metric::count("server.max_batch", after.max_batch as u64),
        Metric::ratio(
            "server.cache_hit_ratio",
            if lookups > 0.0 {
                d(|s| s.hits) / lookups
            } else {
                0.0
            },
        ),
        Metric::count("server.reloads", reloads as u64),
    ];
}
