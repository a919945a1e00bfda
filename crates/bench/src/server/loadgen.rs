//! `mdl bench-serve` — the daemon load generator.
//!
//! Opens `clients` concurrent connections against a running daemon and
//! fires a deterministic mixed traffic pattern (simulate cells with
//! periodic validate and sweep requests folded in), timing every
//! request/response round trip. The report carries p50/p95/p99/max
//! latency and mean per operation, overall throughput, and the daemon's
//! own final `stats` payload (cache hit rate, scheduler batching) — the
//! numbers `BENCH_serve.json` records and the serve-smoke CI step uploads.
//!
//! Request failures (`"ok":false`) and cell failures (`"pass":false`) are
//! counted separately: the former means the daemon mishandled traffic,
//! the latter that a model failed its gate — a load test cares about the
//! first and reports the second.

use std::path::PathBuf;
use std::time::Instant;

use macromodel::json::{self, Layout, Raw, Value};
use numkit::stats::percentile_nearest_rank as percentile;

use crate::BenchRecord;

use super::daemon::Client;

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Socket of the daemon under test.
    pub socket_path: PathBuf,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// Every `sweep_every`-th request per client is a full `sweep`
    /// (0 disables sweeps).
    pub sweep_every: usize,
    /// Every `validate_every`-th request per client is a reference
    /// `validate` (0 disables — required when the served models have no
    /// transistor-level reference).
    pub validate_every: usize,
    /// Pass `--fast` on sweep and validate requests.
    pub fast: bool,
}

impl LoadGenConfig {
    /// The standard mixed burst: 4 clients × 32 requests, a sweep every
    /// 16th and a validate every 8th request, fast windows.
    pub fn new(socket_path: impl Into<PathBuf>) -> Self {
        LoadGenConfig {
            socket_path: socket_path.into(),
            clients: 4,
            requests_per_client: 32,
            sweep_every: 16,
            validate_every: 8,
            fast: true,
        }
    }
}

/// Latency summary of one operation class (seconds).
#[derive(Debug, Clone)]
pub struct OpSummary {
    /// Operation name (`simulate`, `validate`, `sweep`, or `all`).
    pub op: String,
    /// Requests issued.
    pub count: usize,
    /// Median latency.
    pub p50_s: f64,
    /// 95th percentile latency.
    pub p95_s: f64,
    /// 99th percentile latency.
    pub p99_s: f64,
    /// Mean latency.
    pub mean_s: f64,
    /// Worst latency.
    pub max_s: f64,
}

/// The finished load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Total requests issued across all clients.
    pub total: usize,
    /// Responses with `"ok":false` (or transport failures).
    pub request_failures: usize,
    /// Responses with `"pass":false` (cell gate failures).
    pub cell_failures: usize,
    /// Wall-clock seconds of the whole burst.
    pub elapsed_s: f64,
    /// Requests per second over the burst.
    pub throughput_rps: f64,
    /// Latency summary over every request.
    pub overall: OpSummary,
    /// Per-operation latency summaries.
    pub per_op: Vec<OpSummary>,
    /// The daemon's final `stats` response payload (raw JSON).
    pub server_stats: Option<String>,
}

impl LoadReport {
    /// Serializes the report as one JSON document, one top-level key per
    /// line.
    pub fn to_json(&self) -> String {
        fn write_op(o: &mut json::Object<'_>, s: &OpSummary) {
            o.field("op", &s.op)
                .field("count", s.count)
                .field("p50_s", s.p50_s)
                .field("p95_s", s.p95_s)
                .field("p99_s", s.p99_s)
                .field("mean_s", s.mean_s)
                .field("max_s", s.max_s);
        }
        let mut out = json::object(Layout::Lines, |o| {
            o.field("total", self.total)
                .field("request_failures", self.request_failures)
                .field("cell_failures", self.cell_failures)
                .field("elapsed_s", self.elapsed_s)
                .field("throughput_rps", self.throughput_rps)
                .object("overall", Layout::Compact, |o| write_op(o, &self.overall))
                .array("per_op", Layout::Lines, |a| {
                    for s in &self.per_op {
                        a.object(Layout::Compact, |o| write_op(o, s));
                    }
                })
                // The stats payload is itself JSON: embed it verbatim.
                .field("server_stats", self.server_stats.as_deref().map(Raw));
        });
        out.push('\n');
        out
    }

    /// Records in the `scripts/bench-baseline.sh` schema, one per tracked
    /// percentile.
    pub fn baseline_records(&self) -> Vec<BenchRecord> {
        let mut records = Vec::new();
        let mut push = |name: &str, value: f64| {
            if value.is_finite() && value > 0.0 {
                records.push(BenchRecord {
                    bench: name.to_string(),
                    median_s: value,
                    samples: self.total,
                });
            }
        };
        for s in std::iter::once(&self.overall).chain(&self.per_op) {
            push(&format!("serve/{}/p50", s.op), s.p50_s);
            push(&format!("serve/{}/p95", s.op), s.p95_s);
            push(&format!("serve/{}/p99", s.op), s.p99_s);
        }
        if self.throughput_rps > 0.0 {
            push("serve/seconds_per_request", 1.0 / self.throughput_rps);
        }
        records
    }
}

/// One timed request.
struct Sample {
    op: &'static str,
    seconds: f64,
    ok: bool,
    pass: bool,
}

fn summarize(op: &str, latencies: &[f64]) -> OpSummary {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mean = if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().sum::<f64>() / sorted.len() as f64
    };
    OpSummary {
        op: op.to_string(),
        count: sorted.len(),
        p50_s: percentile(&sorted, 0.50),
        p95_s: percentile(&sorted, 0.95),
        p99_s: percentile(&sorted, 0.99),
        mean_s: mean,
        max_s: sorted.last().copied().unwrap_or(0.0),
    }
}

/// Runs the load burst against a daemon at `cfg.socket_path`.
///
/// # Errors
///
/// Connection failures during setup, and an inventory with no served
/// models (nothing to load-test).
pub fn run_load(cfg: &LoadGenConfig) -> crate::Result<LoadReport> {
    // Discover the served inventory first — the burst round-robins
    // simulate/validate targets across every model.
    let inventory = super::daemon::request_once(&cfg.socket_path, "ls")?;
    let parsed = json::parse(&inventory)?;
    if parsed.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("daemon rejected ls: {inventory}").into());
    }
    let names: Vec<String> = parsed
        .get("models")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name").and_then(Value::as_str).map(String::from))
        .collect();
    if names.is_empty() {
        return Err("daemon serves no models; nothing to bench".into());
    }

    let t0 = Instant::now();
    let names = &names;
    // One thread per client, not `numkit::par`: each blocks on its socket,
    // so a per-CPU bound would shrink the offered concurrency.
    let per_client: Vec<std::io::Result<Vec<Sample>>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..cfg.clients.max(1))
            .map(|client| {
                scope.spawn(move || -> std::io::Result<Vec<Sample>> {
                    let mut conn = Client::connect(&cfg.socket_path)?;
                    let mut samples = Vec::with_capacity(cfg.requests_per_client);
                    let fast = if cfg.fast { " --fast" } else { "" };
                    for k in 0..cfg.requests_per_client {
                        let serial = k + 1;
                        let target = &names[(client + k) % names.len()];
                        let (op, line): (&'static str, String) =
                            if cfg.sweep_every > 0 && serial % cfg.sweep_every == 0 {
                                ("sweep", format!("sweep{fast}"))
                            } else if cfg.validate_every > 0 && serial % cfg.validate_every == 0 {
                                ("validate", format!("validate {target}{fast}"))
                            } else {
                                ("simulate", format!("simulate {target}"))
                            };
                        let t = Instant::now();
                        let response = conn.request(&line)?;
                        let seconds = t.elapsed().as_secs_f64();
                        let response = json::parse(&response).ok();
                        let flag = |key| response.as_ref()?.get(key)?.as_bool();
                        samples.push(Sample {
                            op,
                            seconds,
                            ok: flag("ok") == Some(true),
                            pass: flag("pass") != Some(false),
                        });
                    }
                    Ok(samples)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();

    let mut samples = Vec::new();
    for client in per_client {
        samples.extend(client?);
    }
    let server_stats = super::daemon::request_once(&cfg.socket_path, "stats").ok();

    let total = samples.len();
    let request_failures = samples.iter().filter(|s| !s.ok).count();
    let cell_failures = samples.iter().filter(|s| s.ok && !s.pass).count();
    let all: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
    let per_op: Vec<OpSummary> = ["simulate", "validate", "sweep"]
        .iter()
        .filter_map(|op| {
            let lat: Vec<f64> = samples
                .iter()
                .filter(|s| s.op == *op)
                .map(|s| s.seconds)
                .collect();
            (!lat.is_empty()).then(|| summarize(op, &lat))
        })
        .collect();
    Ok(LoadReport {
        total,
        request_failures,
        cell_failures,
        elapsed_s,
        throughput_rps: if elapsed_s > 0.0 {
            total as f64 / elapsed_s
        } else {
            0.0
        },
        overall: summarize("all", &all),
        per_op,
        server_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.95), 95.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn report_json_and_baseline_records_are_well_formed() {
        let summary = |op: &str, p50_s| OpSummary {
            op: op.into(),
            count: 10,
            p50_s,
            p95_s: 2e-3,
            p99_s: f64::INFINITY,
            mean_s: 1.2e-3,
            max_s: 4e-3,
        };
        let mut report = LoadReport {
            total: 20,
            request_failures: 0,
            cell_failures: 1,
            elapsed_s: 0.5,
            throughput_rps: 40.0,
            overall: summary("all", 1e-3),
            per_op: vec![
                summary("simulate", f64::NAN),
                summary("s\"w\\é\n\u{1}", 0.0),
            ],
            server_stats: Some("{\"ok\":true,\"op\":\"stats\"}".into()),
        };
        assert_eq!(
            report.to_json(),
            concat!(
                "{\n",
                "  \"total\": 20,\n",
                "  \"request_failures\": 0,\n",
                "  \"cell_failures\": 1,\n",
                "  \"elapsed_s\": 5e-1,\n",
                "  \"throughput_rps\": 4e1,\n",
                "  \"overall\": {\"op\":\"all\",\"count\":10,\"p50_s\":1e-3,\"p95_s\":2e-3,",
                "\"p99_s\":null,\"mean_s\":1.2e-3,\"max_s\":4e-3},\n",
                "  \"per_op\": [\n",
                "    {\"op\":\"simulate\",\"count\":10,\"p50_s\":null,\"p95_s\":2e-3,",
                "\"p99_s\":null,\"mean_s\":1.2e-3,\"max_s\":4e-3},\n",
                "    {\"op\":\"s\\\"w\\\\é\\n\\u0001\",\"count\":10,\"p50_s\":0e0,\"p95_s\":2e-3,\"p99_s\":null,",
                "\"mean_s\":1.2e-3,\"max_s\":4e-3}\n",
                "  ],\n",
                "  \"server_stats\": {\"ok\":true,\"op\":\"stats\"}\n",
                "}\n",
            )
        );
        let lines: Vec<String> = report
            .baseline_records()
            .iter()
            .map(BenchRecord::to_json)
            .collect();
        assert_eq!(
            lines.join("\n"),
            concat!(
                "{\"bench\": \"serve/all/p50\", \"median_s\": 1e-3, \"samples\": 20}\n",
                "{\"bench\": \"serve/all/p95\", \"median_s\": 2e-3, \"samples\": 20}\n",
                "{\"bench\": \"serve/simulate/p95\", \"median_s\": 2e-3, \"samples\": 20}\n",
                "{\"bench\": \"serve/s\\\"w\\\\é\\n\\u0001/p95\", \"median_s\": 2e-3, \"samples\": 20}\n",
                "{\"bench\": \"serve/seconds_per_request\", \"median_s\": 2.5e-2, ",
                "\"samples\": 20}",
            )
        );
        report.per_op.clear();
        report.server_stats = None;
        report.elapsed_s = f64::NAN;
        report.throughput_rps = f64::NEG_INFINITY;
        assert_eq!(
            report.to_json(),
            concat!(
                "{\n",
                "  \"total\": 20,\n",
                "  \"request_failures\": 0,\n",
                "  \"cell_failures\": 1,\n",
                "  \"elapsed_s\": null,\n",
                "  \"throughput_rps\": null,\n",
                "  \"overall\": {\"op\":\"all\",\"count\":10,\"p50_s\":1e-3,\"p95_s\":2e-3,",
                "\"p99_s\":null,\"mean_s\":1.2e-3,\"max_s\":4e-3},\n",
                "  \"per_op\": [],\n",
                "  \"server_stats\": null\n",
                "}\n",
            )
        );
    }
}
