//! End-to-end daemon integration: a real store directory served over a
//! real Unix socket, exercised through the framed protocol — inventory,
//! scheduled cells, reuse of unchanged artifacts across reloads, drop-free
//! hot reload — plus the lazy-store concurrency guarantees the daemon
//! builds on.

use emc_bench::server::daemon::Client;
use emc_bench::server::{start, ServeConfig};
use macromodel::driver::{PwRbfDriverModel, WeightSequence};
use macromodel::exchange::{save_artifact_as, AnyModel, Artifact, ArtifactFormat, Provenance};
use macromodel::json::{self, Value};
use macromodel::ModelStore;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use sysid::narx::{NarxModel, NarxOrders};
use sysid::rbf::RbfNetwork;

/// A cheap switching PW-RBF driver (pull-up to 1.8 V / pull-down to 0 V
/// through `1/gain` Ω, so eye cells see an open eye); `gain` also varies
/// the artifact bytes so two calls with different gains produce different
/// content digests.
fn dummy_driver(name: &str, gain: f64) -> AnyModel {
    let narx = |bias: f64| {
        NarxModel::from_network(
            NarxOrders::dynamic(1),
            RbfNetwork::affine(bias, vec![-gain, 0.0, 0.0]),
        )
        .unwrap()
    };
    AnyModel::PwRbfDriver(PwRbfDriverModel {
        name: name.into(),
        ts: 25e-12,
        vdd: 1.8,
        i_high: narx(1.8 * gain),
        i_low: narx(0.0),
        up: WeightSequence::new(vec![0.0, 1.0], vec![1.0, 0.0]).unwrap(),
        down: WeightSequence::new(vec![1.0, 0.0], vec![0.0, 1.0]).unwrap(),
    })
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve_daemon_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn serve_cfg(dir: &std::path::Path, tag: &str, poll_ms: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(
        dir,
        std::env::temp_dir().join(format!("serve_daemon_{tag}_{}.sock", std::process::id())),
    );
    cfg.poll_interval = Duration::from_millis(poll_ms);
    cfg.fast = true;
    cfg
}

/// The value at `path` (object keys, outermost first) of a daemon
/// response.
fn lookup(response: &str, path: &[&str]) -> Value {
    let doc = json::parse(response).unwrap_or_else(|e| panic!("{e}: {response}"));
    path.iter()
        .try_fold(&doc, |v, key| v.get(key))
        .unwrap_or_else(|| panic!("no {path:?} in {response}"))
        .clone()
}

fn digest_of(info: &str) -> String {
    lookup(info, &["digest"]).as_str().unwrap().to_string()
}

#[test]
fn daemon_serves_schedules_and_reports_cache_stats() {
    let dir = temp_dir("basic");
    save_artifact_as(
        &Artifact::single(dummy_driver("drv_a", 0.02)),
        ArtifactFormat::Text,
        dir.join("a.mdlx"),
    )
    .unwrap();
    save_artifact_as(
        &Artifact::bundle(
            vec![dummy_driver("drv_b", 0.03)],
            Some(Provenance::new("cfg-digest-b")),
        ),
        ArtifactFormat::Text,
        dir.join("b.mdlx"),
    )
    .unwrap();

    let handle = start(serve_cfg(&dir, "basic", 200)).unwrap();
    let socket = handle.socket_path();
    let mut client = Client::connect(&socket).unwrap();

    // Inventory: both artifacts served, bundle provenance digest exposed.
    let ls = client.request("ls").unwrap();
    assert!(ls.contains("\"ok\":true"), "ls failed: {ls}");
    assert!(ls.contains("\"name\":\"drv_a\"") && ls.contains("\"name\":\"drv_b\""));
    assert!(ls.contains("\"config_digest\":\"cfg-digest-b\""));
    assert!(ls.contains("\"artifacts\":2"));
    assert!(ls.contains("\"failures\":[]"));

    let info = client.request("info drv_a").unwrap();
    assert!(info.contains("\"ok\":true"), "info failed: {info}");
    let digest = digest_of(&info);
    assert_eq!(digest.len(), 16, "content digest is 16 hex chars: {digest}");

    // Scheduled cells: simulate through the batched scheduler.
    let sim = client.request("simulate drv_a").unwrap();
    assert!(
        sim.contains("\"ok\":true") && sim.contains("\"pass\":true"),
        "{sim}"
    );
    assert!(
        sim.contains("\"scenario\":\"r50\""),
        "auto picks r50: {sim}"
    );
    let sim2 = client
        .request("simulate drv_b --scenario bus-ladder")
        .unwrap();
    assert!(
        sim2.contains("\"ok\":true") && sim2.contains("\"pass\":true"),
        "{sim2}"
    );

    // Request-level failures answer with ok:false, connection stays up.
    let missing = client.request("simulate nosuch").unwrap();
    assert!(missing.contains("\"ok\":false") && missing.contains("nosuch"));
    let inapplicable = client.request("simulate drv_a --scenario pulse").unwrap();
    assert!(inapplicable.contains("\"ok\":false"), "{inapplicable}");
    let garbage = client.request("frobnicate").unwrap();
    assert!(garbage.contains("\"ok\":false"));
    // Out-of-range counts are protocol errors, not cells: a zero-trial
    // Monte-Carlo plan would panic the scheduler's runner, after which
    // every scheduled request below would wait forever.
    for bad in ["mc drv_a --trials 0", "eye drv_a --bits 0"] {
        let reply = client.request(bad).unwrap();
        assert!(reply.contains("\"ok\":false"), "{bad}: {reply}");
    }
    let after = client.request("simulate drv_a").unwrap();
    assert!(after.contains("\"ok\":true"), "still serving: {after}");

    // A validate cell runs end to end; the dummy has no transistor-level
    // reference, so the request succeeds and the cell reports its failure.
    let val = client.request("validate drv_a --fast").unwrap();
    assert!(
        val.contains("\"ok\":true") && val.contains("\"pass\":false"),
        "{val}"
    );
    assert!(val.contains("no reference"));

    // Eye and Monte-Carlo cells run through the same scheduler; the
    // switching dummy keeps the eye open, and a repeated request with the
    // same seed folds bit-identical metrics.
    let eye = client.request("eye drv_a --bits 12 --seed 5").unwrap();
    assert!(
        eye.contains("\"ok\":true") && eye.contains("\"pass\":true"),
        "{eye}"
    );
    assert!(eye.contains("\"open\": true"), "{eye}");
    let height = |eye: &str| {
        lookup(eye, &["eye", "eye_height"])
            .as_f64()
            .map(f64::to_bits)
    };
    let eye2 = client.request("eye drv_a --bits 12 --seed 5").unwrap();
    assert_eq!(height(&eye2), height(&eye), "same seed, same eye");
    let mc = client.request("mc drv_a --trials 3 --seed 9").unwrap();
    assert!(
        mc.contains("\"ok\":true") && mc.contains("\"pass\":true"),
        "{mc}"
    );
    assert!(
        mc.contains("\"trials\": 3") && mc.contains("\"closed_eyes\": 0"),
        "{mc}"
    );
    let inapplicable_eye = client.request("eye nosuch").unwrap();
    assert!(inapplicable_eye.contains("\"ok\":false"));

    // Sweep: 2 drivers × 5 driver scenarios (incl. the PRBS eye and the
    // Monte-Carlo channel cells), all green.
    let sweep = client.request("sweep --fast").unwrap();
    assert!(sweep.contains("\"ok\":true"), "sweep failed: {sweep}");
    assert_eq!(lookup(&sweep, &["cells"]).as_u64(), Some(10));
    assert_eq!(lookup(&sweep, &["failed"]).as_u64(), Some(0));

    // Stats: both artifacts were parse misses at startup, scheduler saw
    // the cells, request counter covers this whole conversation.
    let stats = client.request("stats").unwrap();
    assert!(stats.contains("\"ok\":true"));
    assert_eq!(lookup(&stats, &["cache", "misses"]).as_u64(), Some(2));
    assert!(lookup(&stats, &["requests"]).as_u64().unwrap() >= 9);
    assert!(
        lookup(&stats, &["scheduler", "cells"]).as_u64().unwrap() >= 9,
        "sweep + singles: {stats}"
    );
    assert_eq!(
        lookup(&stats, &["scheduler", "panics"]).as_u64(),
        Some(0),
        "{stats}"
    );
    assert!(stats.contains("\"hit_rate\":"));

    // Clean remote shutdown: acknowledged, then the daemon exits.
    let bye = client.request("shutdown").unwrap();
    assert!(bye.contains("\"ok\":true"));
    handle.join();
    assert!(!socket.exists(), "socket file removed on shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_requests_get_error_replies_and_the_daemon_keeps_serving() {
    let dir = temp_dir("oversized");
    save_artifact_as(
        &Artifact::single(dummy_driver("drv_a", 0.02)),
        ArtifactFormat::Text,
        dir.join("a.mdlx"),
    )
    .unwrap();
    let handle = start(serve_cfg(&dir, "oversized", 200)).unwrap();
    let mut client = Client::connect(&handle.socket_path()).unwrap();
    // Unbounded, the first allocates 800 GB and aborts the process; the
    // second runs for hours.
    for bad in [
        "mc drv_a --trials 100000000000",
        "eye drv_a --bits 1000000000000",
    ] {
        let reply = client.request(bad).unwrap();
        assert!(reply.contains("\"ok\":false"), "{bad}: {reply}");
    }
    let ls = client.request("ls").unwrap();
    assert!(ls.contains("\"ok\":true"), "still serving: {ls}");
    assert!(client.request("shutdown").unwrap().contains("\"ok\":true"));
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A client that connects and stays silent is dropped after the idle
/// timeout (it reads EOF), while an active connection keeps being served.
#[test]
fn idle_connections_are_closed_and_active_ones_keep_serving() {
    use std::io::Read;
    let dir = temp_dir("idle");
    save_artifact_as(
        &Artifact::single(dummy_driver("drv_a", 0.02)),
        ArtifactFormat::Text,
        dir.join("a.mdlx"),
    )
    .unwrap();
    let mut cfg = serve_cfg(&dir, "idle", 200);
    cfg.idle_timeout = Duration::ZERO;
    assert!(start(cfg.clone()).is_err(), "a zero timeout is rejected");
    cfg.idle_timeout = Duration::from_millis(200);
    let handle = start(cfg).unwrap();
    let mut silent = std::os::unix::net::UnixStream::connect(handle.socket_path()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let t0 = Instant::now();
    let eof = std::thread::spawn(move || {
        let mut buf = [0u8; 16];
        let n = silent.read(&mut buf).expect("EOF, not a read timeout");
        (n, t0.elapsed())
    });
    // Requests 20 ms apart, well inside the timeout, keep the active
    // connection open past the point where the silent one is dropped.
    let mut active = Client::connect(&handle.socket_path()).unwrap();
    while t0.elapsed() < Duration::from_millis(800) {
        let ls = active.request("ls").unwrap();
        assert!(ls.contains("\"ok\":true"), "{ls}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (n, waited) = eof.join().unwrap();
    assert_eq!(n, 0, "the silent client reads EOF");
    assert!(waited < Duration::from_secs(2), "{waited:?}");
    assert!(active.request("shutdown").unwrap().contains("\"ok\":true"));
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_reload_swaps_digests_without_dropping_requests() {
    let dir = temp_dir("reload");
    let artifact = dir.join("drv.mdlx");
    save_artifact_as(
        &Artifact::single(dummy_driver("drv", 0.02)),
        ArtifactFormat::Text,
        &artifact,
    )
    .unwrap();

    let handle = start(serve_cfg(&dir, "reload", 30)).unwrap();
    let socket = handle.socket_path();
    let mut client = Client::connect(&socket).unwrap();
    let digest0 = digest_of(&client.request("info drv").unwrap());

    // Continuous simulate burst on its own connection while the artifact
    // is overwritten mid-flight.
    let burst_socket = socket.clone();
    let burst = std::thread::spawn(move || {
        let mut conn = Client::connect(&burst_socket).unwrap();
        let mut failures = Vec::new();
        for i in 0..40 {
            let resp = match conn.request("simulate drv") {
                Ok(r) => r,
                Err(e) => {
                    failures.push(format!("request {i}: {e}"));
                    continue;
                }
            };
            if !(resp.contains("\"ok\":true") && resp.contains("\"pass\":true")) {
                failures.push(format!("request {i}: {resp}"));
            }
        }
        failures
    });

    // Overwrite with different content mid-burst: the next generation must
    // serve the new digest.
    std::thread::sleep(Duration::from_millis(100));
    save_artifact_as(
        &Artifact::single(dummy_driver("drv", 0.05)),
        ArtifactFormat::Text,
        &artifact,
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let digest1 = loop {
        let digest = digest_of(&client.request("info drv").unwrap());
        if digest != digest0 {
            break digest;
        }
        assert!(
            Instant::now() < deadline,
            "reload never served the new digest"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_ne!(digest1, digest0);

    let failures = burst.join().unwrap();
    assert!(
        failures.is_empty(),
        "hot reload dropped requests: {failures:?}"
    );
    let stats = client.request("stats").unwrap();
    assert!(
        lookup(&stats, &["reloads"]).as_u64().unwrap() >= 1,
        "{stats}"
    );

    // Touch without a content change: the fingerprint poll fires, but the
    // digest cache answers — a reload with zero re-parses.
    let bytes = std::fs::read(&artifact).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        std::fs::write(&artifact, &bytes).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        let stats = client.request("stats").unwrap();
        if lookup(&stats, &["cache", "hits"]).as_u64().unwrap() >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "identical rewrite never produced a cache hit: {stats}"
        );
    }

    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Polls `stats` until the daemon has published generation `n`.
fn await_generation(client: &mut Client, n: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.request("stats").unwrap();
        if lookup(&stats, &["generation"]).as_u64().unwrap() >= n {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "generation {n} never published: {stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The `path` of every model in an `ls` reply, in inventory order.
fn ls_paths(client: &mut Client) -> Vec<String> {
    let ls = client.request("ls").unwrap();
    lookup(&ls, &["models"])
        .as_array()
        .unwrap()
        .iter()
        .map(|m| m.get("path").unwrap().as_str().unwrap().to_string())
        .collect()
}

#[test]
fn renamed_artifact_is_served_from_its_new_path() {
    let dir = temp_dir("rename");
    save_artifact_as(
        &Artifact::single(dummy_driver("drv_a", 0.02)),
        ArtifactFormat::Text,
        dir.join("a.mdlx"),
    )
    .unwrap();
    let handle = start(serve_cfg(&dir, "rename", 30)).unwrap();
    let mut client = Client::connect(&handle.socket_path()).unwrap();
    let path_of = |client: &mut Client| {
        let info = client.request("info drv_a").unwrap();
        lookup(&info, &["path"]).as_str().unwrap().to_string()
    };
    assert!(path_of(&mut client).ends_with("a.mdlx"));

    // Same bytes, new path: the model must not be served from a file that
    // no longer exists.
    std::fs::rename(dir.join("a.mdlx"), dir.join("z.mdlx")).unwrap();
    let stats = await_generation(&mut client, 2);
    let z = dir.join("z.mdlx").display().to_string();
    assert_eq!(path_of(&mut client), z);
    assert_eq!(ls_paths(&mut client), std::slice::from_ref(&z));
    assert_eq!(
        lookup(&stats, &["cache", "hits"]).as_u64(),
        Some(0),
        "{stats}"
    );
    assert_eq!(
        lookup(&stats, &["cache", "misses"]).as_u64(),
        Some(2),
        "{stats}"
    );
    assert_eq!(
        lookup(&stats, &["cache", "entries"]).as_u64(),
        Some(1),
        "{stats}"
    );

    // A copy of the same bytes is served from its own path.
    std::fs::copy(dir.join("z.mdlx"), dir.join("c.mdlx")).unwrap();
    await_generation(&mut client, 3);
    let c = dir.join("c.mdlx").display().to_string();
    assert_eq!(ls_paths(&mut client), [c, z.clone()]);
    assert_eq!(path_of(&mut client), z, "the later path wins the name");

    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn client_reaches_models_whose_names_need_escaping() {
    // The protocol splits request lines on whitespace, so the name holds a
    // quote but no space.
    let name = "md1\"q";
    let dir = temp_dir("quoted");
    save_artifact_as(
        &Artifact::single(dummy_driver(name, 0.02)),
        ArtifactFormat::Text,
        dir.join("q.mdlx"),
    )
    .unwrap();
    let handle = start(serve_cfg(&dir, "quoted", 200)).unwrap();
    let mut client = Client::connect(&handle.socket_path()).unwrap();

    // The inventory escapes the quote, and the reader gets the name back.
    let ls = client.request("ls").unwrap();
    let models = lookup(&ls, &["models"]);
    let names: Vec<&str> = models
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|m| m.get("name")?.as_str())
        .collect();
    assert_eq!(names, [name], "{ls}");

    for line in [format!("info {name}"), format!("simulate {name}")] {
        let reply = client.request(&line).unwrap();
        assert_eq!(
            lookup(&reply, &["ok"]).as_bool(),
            Some(true),
            "{line}: {reply}"
        );
    }
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the built `mdl request` against `socket` and returns its exit
/// status.
fn mdl_request(socket: &std::path::Path, line: &[&str]) -> Option<i32> {
    std::process::Command::new(env!("CARGO_BIN_EXE_mdl"))
        .arg("request")
        .arg("--socket")
        .arg(socket)
        .args(line)
        .output()
        .unwrap()
        .status
        .code()
}

#[test]
fn mdl_request_exit_status_follows_the_reply() {
    // Scripts (`scripts/serve-smoke.sh`) fail on the exit status alone.
    let dir = temp_dir("request_cli");
    save_artifact_as(
        &Artifact::single(dummy_driver("drv_a", 0.02)),
        ArtifactFormat::Text,
        dir.join("a.mdlx"),
    )
    .unwrap();
    let handle = start(serve_cfg(&dir, "request_cli", 200)).unwrap();
    let socket = handle.socket_path();
    assert_eq!(mdl_request(&socket, &["info", "drv_a"]), Some(0));
    assert_eq!(mdl_request(&socket, &["info", "nosuch"]), Some(1));
    handle.stop();
    // Nothing listens on the socket any more.
    assert_eq!(mdl_request(&socket, &["ls"]), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

/// `dummy_driver` with one switching weight pushed outside the plausible
/// [-0.5, 1.5] range: still loads (the clamp lives in extraction), so a
/// hot reload swaps it in — and the parse-time lint must flag M007.
fn hot_weight_driver(name: &str) -> AnyModel {
    let AnyModel::PwRbfDriver(mut m) = dummy_driver(name, 0.02) else {
        unreachable!()
    };
    m.up = WeightSequence::new(vec![0.0, 3.0], vec![1.0, 0.0]).unwrap();
    AnyModel::PwRbfDriver(m)
}

#[test]
fn hot_reload_surfaces_lint_findings_without_dropping_requests() {
    let dir = temp_dir("lint");
    save_artifact_as(
        &Artifact::single(dummy_driver("drv_ok", 0.02)),
        ArtifactFormat::Text,
        dir.join("ok.mdlx"),
    )
    .unwrap();
    let bad_path = dir.join("bad.mdlx");
    save_artifact_as(
        &Artifact::single(dummy_driver("drv_bad", 0.03)),
        ArtifactFormat::Text,
        &bad_path,
    )
    .unwrap();

    let handle = start(serve_cfg(&dir, "lint", 30)).unwrap();
    let socket = handle.socket_path();
    let mut client = Client::connect(&socket).unwrap();

    // Healthy generation: per-model and aggregate lint totals are zero.
    let info = client.request("info drv_bad").unwrap();
    assert!(
        info.contains("\"lint\":{\"errors\":0,\"warnings\":0,\"infos\":0,\"codes\":[]}"),
        "clean model must report an empty lint summary: {info}"
    );
    let stats = client.request("stats").unwrap();
    assert!(
        stats.contains("\"lint\":{\"errors\":0,\"warnings\":0,\"infos\":0}"),
        "clean fleet must aggregate to zero: {stats}"
    );

    // Keep traffic on the *other* model flowing through the swap.
    let burst_socket = socket.clone();
    let burst = std::thread::spawn(move || {
        let mut conn = Client::connect(&burst_socket).unwrap();
        let mut failures = Vec::new();
        for i in 0..40 {
            match conn.request("simulate drv_ok") {
                Ok(r) if r.contains("\"ok\":true") && r.contains("\"pass\":true") => {}
                Ok(r) => failures.push(format!("request {i}: {r}")),
                Err(e) => failures.push(format!("request {i}: {e}")),
            }
        }
        failures
    });

    // Swap the defective artifact in mid-burst and wait for the daemon to
    // republish with its lint findings.
    std::thread::sleep(Duration::from_millis(100));
    save_artifact_as(
        &Artifact::single(hot_weight_driver("drv_bad")),
        ArtifactFormat::Text,
        &bad_path,
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.request("stats").unwrap();
        if stats.contains("\"lint\":{\"errors\":0,\"warnings\":1,\"infos\":0}") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reload never surfaced the lint warning: {stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let info = client.request("info drv_bad").unwrap();
    assert!(
        info.contains("\"codes\":[\"M007\"]"),
        "defective model must name its code: {info}"
    );

    let failures = burst.join().unwrap();
    assert!(
        failures.is_empty(),
        "hot reload dropped requests: {failures:?}"
    );
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Lazy-store guarantees the daemon builds on
// ---------------------------------------------------------------------

#[test]
fn lazy_store_surfaces_failures_once_entries_are_touched() {
    let dir = temp_dir("lazyfail");
    save_artifact_as(
        &Artifact::single(dummy_driver("good", 0.02)),
        ArtifactFormat::Text,
        dir.join("good.mdlx"),
    )
    .unwrap();
    std::fs::write(dir.join("broken.mdlx"), "mdlx 1 pwrbf-driver\njunk\n").unwrap();

    let store = ModelStore::open(&dir).unwrap();
    // The documented (and previously misleading) behavior: nothing parsed,
    // so nothing reported yet — the store *looks* healthy.
    assert!(
        store.failures().is_empty(),
        "unparsed lazy store reports nothing"
    );

    // The `store ls` path: iterate entries, forcing each parse; the
    // memoized failure must surface afterwards.
    let mut seen_err = 0;
    for entry in store.entries() {
        if entry.artifact().is_err() {
            seen_err += 1;
            assert!(entry.failure().is_some(), "memoized failure per entry");
        }
    }
    assert_eq!(seen_err, 1);
    let failures = store.failures();
    assert_eq!(failures.len(), 1, "failures now visible without load_all");
    assert!(failures[0].path.ends_with("broken.mdlx"));

    // load_all is idempotent and returns the same list.
    assert_eq!(store.load_all().len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_lazy_access_parses_once_and_replays_errors() {
    let dir = temp_dir("lazyconc");
    save_artifact_as(
        &Artifact::single(dummy_driver("good", 0.02)),
        ArtifactFormat::Text,
        dir.join("good.mdlx"),
    )
    .unwrap();
    std::fs::write(dir.join("broken.mdlx"), "mdlx 1 pwrbf-driver\njunk\n").unwrap();

    let store = ModelStore::open(&dir).unwrap();
    let entries: Vec<_> = store.entries().collect();
    let broken = entries
        .iter()
        .find(|e| e.path().ends_with("broken.mdlx"))
        .unwrap();
    let good = entries
        .iter()
        .find(|e| e.path().ends_with("good.mdlx"))
        .unwrap();

    // Hammer both entries from parallel threads: the OnceLock slot must
    // parse each file exactly once and hand every thread the same memoized
    // result — identical &Artifact for the good file, an identical
    // replayed error for the corrupt one. One thread per item, not
    // `numkit::par`: a per-CPU bound would leave fewer threads racing.
    let outcomes: Vec<Result<usize, String>> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..16)
            .map(|i| {
                s.spawn(move || {
                    let entry = if i % 2 == 0 { good } else { broken };
                    entry
                        .artifact()
                        .map(|a| a as *const _ as usize)
                        .map_err(|e| e.to_string())
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    let oks: Vec<usize> = outcomes
        .iter()
        .filter_map(|o| o.as_ref().ok().copied())
        .collect();
    let errs: Vec<&String> = outcomes.iter().filter_map(|o| o.as_ref().err()).collect();
    assert_eq!(oks.len(), 8);
    assert_eq!(errs.len(), 8);
    assert!(
        oks.windows(2).all(|w| w[0] == w[1]),
        "every thread sees the same memoized Artifact"
    );
    assert!(
        errs.windows(2).all(|w| w[0] == w[1]),
        "the load error replays identically"
    );
    assert_eq!(store.failures().len(), 1, "one failure after the stampede");
    std::fs::remove_dir_all(&dir).ok();
}
