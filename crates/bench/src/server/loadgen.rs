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

use macromodel::lint::json_str;
use numkit::stats::percentile_nearest_rank as percentile;

use crate::par_map;
use crate::serve::json_f64;

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
    /// Serializes the report as one JSON object (same dependency-free
    /// emitter discipline as [`crate::serve::FleetReport::to_json`]).
    pub fn to_json(&self) -> String {
        fn op_json(s: &OpSummary) -> String {
            format!(
                "{{\"op\":{},\"count\":{},\"p50_s\":{},\"p95_s\":{},\"p99_s\":{},\
                 \"mean_s\":{},\"max_s\":{}}}",
                json_str(&s.op),
                s.count,
                json_f64(s.p50_s),
                json_f64(s.p95_s),
                json_f64(s.p99_s),
                json_f64(s.mean_s),
                json_f64(s.max_s),
            )
        }
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"total\": {},\n", self.total));
        out.push_str(&format!(
            "  \"request_failures\": {},\n",
            self.request_failures
        ));
        out.push_str(&format!("  \"cell_failures\": {},\n", self.cell_failures));
        out.push_str(&format!("  \"elapsed_s\": {},\n", json_f64(self.elapsed_s)));
        out.push_str(&format!(
            "  \"throughput_rps\": {},\n",
            json_f64(self.throughput_rps)
        ));
        out.push_str(&format!("  \"overall\": {},\n", op_json(&self.overall)));
        out.push_str("  \"per_op\": [");
        for (i, s) in self.per_op.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&op_json(s));
        }
        if !self.per_op.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        match &self.server_stats {
            // The stats payload is itself JSON — embed it verbatim.
            Some(stats) => out.push_str(&format!("  \"server_stats\": {stats}\n")),
            None => out.push_str("  \"server_stats\": null\n"),
        }
        out.push_str("}\n");
        out
    }

    /// JSON-lines records in the `scripts/bench-baseline.sh` schema
    /// (`bench` + `median_s`), one per tracked percentile.
    pub fn baseline_records(&self) -> Vec<String> {
        let mut records = Vec::new();
        let mut push = |name: &str, value: f64| {
            if value.is_finite() && value > 0.0 {
                records.push(format!(
                    "{{\"bench\": {}, \"median_s\": {}, \"samples\": {}}}",
                    json_str(name),
                    json_f64(value),
                    self.total
                ));
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

/// Pulls every string value of `"key":"..."` pairs out of a compact JSON
/// payload — enough of a parser for the daemon's own responses, without a
/// JSON dependency.
fn json_string_values(payload: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\":\"");
    let mut out = Vec::new();
    let mut rest = payload;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        if let Some(end) = rest.find('"') {
            out.push(rest[..end].to_string());
            rest = &rest[end + 1..];
        } else {
            break;
        }
    }
    out
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
    if !inventory.contains("\"ok\":true") {
        return Err(format!("daemon rejected ls: {inventory}").into());
    }
    let names = json_string_values(&inventory, "name");
    if names.is_empty() {
        return Err("daemon serves no models; nothing to bench".into());
    }

    let t0 = Instant::now();
    let names = &names;
    let per_client: Vec<std::io::Result<Vec<Sample>>> =
        par_map((0..cfg.clients.max(1)).collect(), move |client| {
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
                samples.push(Sample {
                    op,
                    seconds: t.elapsed().as_secs_f64(),
                    ok: response.contains("\"ok\":true"),
                    pass: !response.contains("\"pass\":false"),
                });
            }
            Ok(samples)
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
    fn json_string_values_extracts_names() {
        let payload = r#"{"ok":true,"models":[{"name":"d1","kind":"x"},{"name":"d2"}]}"#;
        assert_eq!(json_string_values(payload, "name"), vec!["d1", "d2"]);
        assert!(json_string_values(payload, "missing").is_empty());
    }

    #[test]
    fn report_json_and_baseline_records_are_well_formed() {
        let summary = |op: &str| OpSummary {
            op: op.into(),
            count: 10,
            p50_s: 1e-3,
            p95_s: 2e-3,
            p99_s: 3e-3,
            mean_s: 1.2e-3,
            max_s: 4e-3,
        };
        let report = LoadReport {
            total: 20,
            request_failures: 0,
            cell_failures: 1,
            elapsed_s: 0.5,
            throughput_rps: 40.0,
            overall: summary("all"),
            per_op: vec![summary("simulate"), summary("sweep")],
            server_stats: Some("{\"ok\":true,\"op\":\"stats\"}".into()),
        };
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"throughput_rps\""));
        assert!(json.contains("\"server_stats\": {\"ok\":true"));
        let records = report.baseline_records();
        assert!(records.iter().any(|r| r.contains("serve/all/p50")));
        assert!(records
            .iter()
            .any(|r| r.contains("serve/seconds_per_request")));
        for r in &records {
            assert!(r.contains("\"median_s\""), "baseline schema key: {r}");
        }
    }
}
