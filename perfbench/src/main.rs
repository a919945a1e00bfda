//! End-to-end and per-layer benchmark of the macromodeling stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper|fleet|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of
//! standard output is a JSON object with the end-to-end metrics of the
//! workload; with `--trace 1` it carries the per-layer metrics of a
//! separate traced run. The process exits nonzero when any correctness
//! check fails. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod fixtures;
mod fleet;
mod paper;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use stats::median;
use trace::Tracer;

/// Error type of the benchmark.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Directory (relative to the repository root) for stores, sockets and
/// span dumps.
const WORK_DIR: &str = ".perfbench";

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }

    /// A time in seconds.
    pub fn s(name: impl Into<String>, value: f64) -> Metric {
        Metric::new(name, value, "s")
    }

    /// An event or work count.
    pub fn count(name: impl Into<String>, value: u64) -> Metric {
        Metric::new(name, value as f64, "count")
    }

    /// A dimensionless ratio.
    pub fn ratio(name: impl Into<String>, value: f64) -> Metric {
        Metric::new(name, value, "ratio")
    }

    /// A rate per second.
    pub fn per_s(name: impl Into<String>, value: f64) -> Metric {
        Metric::new(name, value, "1/s")
    }

    fn json(&self) -> String {
        let value = if self.unit == "count" {
            format!("{}", self.value as u64)
        } else if self.value.is_finite() {
            format!("{}", self.value)
        } else {
            "null".into()
        };
        format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            self.name, self.unit
        )
    }
}

/// How much of a flow to run.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Set up [`SETUPS`] times, warm up once, then measure for this many
    /// seconds.
    Seconds(f64),
    /// Set up once and run one iteration (the traced run's pass over the
    /// layers another workload owns).
    Once,
}

impl Budget {
    /// Set-ups to make.
    pub fn setups(&self) -> usize {
        match self {
            Budget::Seconds(_) => SETUPS,
            Budget::Once => 1,
        }
    }

    /// Whether to run one untimed iteration first.
    pub fn warm_up(&self) -> bool {
        matches!(self, Budget::Seconds(_))
    }

    /// Whether to start iteration `n` of a phase begun at `t0`.
    pub fn more(&self, n: usize, t0: Instant) -> bool {
        match self {
            Budget::Seconds(s) => n < 2 || t0.elapsed().as_secs_f64() < *s,
            Budget::Once => n < 1,
        }
    }
}

/// What every flow shares.
pub struct Ctx {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Span recorder (off in untraced runs).
    pub tr: Tracer,
    /// Directory for stores, sockets and span dumps.
    pub dir: PathBuf,
}

/// What a flow measured and checked.
#[derive(Default)]
pub struct FlowOut {
    /// Median set-up time.
    pub setup_s: f64,
    /// Median latency of the flow's unit of work.
    pub op_s: f64,
    /// Per-layer metrics (meaningful in traced runs).
    pub layer: Vec<Metric>,
    /// Traced vs plain iterations of the same run, in percent.
    pub overhead_pct: Option<f64>,
    /// Checked operations.
    pub attempted: u64,
    /// Failed checks.
    pub failed: u64,
    /// Human-readable summary lines.
    pub lines: Vec<String>,
}

impl FlowOut {
    /// Counts a failed check and reports it on stderr.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("check failed: {msg}");
        }
    }
}

/// Median of traced samples over median of plain ones, as a percentage
/// above 0 when tracing slows the work down.
pub fn overhead_pct(traced: &[f64], plain: &[f64]) -> Option<f64> {
    Some((median(traced)? / median(plain)? - 1.0) * 100.0)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Paper,
    Fleet,
    Serve,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("paper", Workload::Paper),
    ("fleet", Workload::Fleet),
    ("serve", Workload::Serve),
];

fn run_flow(w: Workload, ctx: &Ctx, budget: Budget) -> FlowOut {
    match w {
        Workload::Paper => paper::run(ctx, budget),
        Workload::Fleet => fleet::run(ctx, budget),
        Workload::Serve => serve::run(ctx, budget),
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(n, _)| *n == value)
                        .map(|(_, w)| *w)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper|fleet|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {WORK_DIR}: {e}");
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        tr: Tracer::new(args.trace),
        dir,
    };
    let budget = Budget::Seconds(args.seconds);
    let name = WORKLOADS
        .iter()
        .find(|(_, w)| *w == args.workload)
        .map_or("?", |(n, _)| n);

    let main_flow = run_flow(args.workload, &ctx, budget);
    let mut attempted = main_flow.attempted;
    let mut failed = main_flow.failed;
    let mut lines = main_flow.lines.clone();
    let metrics = if args.trace {
        // Every per-layer metric in every traced run: the layers this
        // workload does not own come from one pass of their owner flow.
        let mut layer = Vec::new();
        for (_, w) in WORKLOADS {
            let flow = if w == args.workload {
                None
            } else {
                Some(run_flow(w, &ctx, Budget::Once))
            };
            let f = flow.as_ref().unwrap_or(&main_flow);
            if let Some(f) = &flow {
                attempted += f.attempted;
                failed += f.failed;
                lines.extend(f.lines.iter().map(|l| format!("(one pass) {l}")));
            }
            layer.extend(f.layer.iter().cloned());
        }
        layer.push(Metric::new(
            "trace.overhead_pct",
            main_flow.overhead_pct.unwrap_or(f64::NAN),
            "%",
        ));
        let spans = ctx.tr.spans();
        lines.push("self time by span (s, spans):".into());
        for (n, t, c) in trace::self_time_by_name(&spans).iter().take(24) {
            lines.push(format!("  {n:<32} {t:>10.4} {c:>7}"));
        }
        let path = ctx.dir.join(format!("trace-{name}-{}.jsonl", args.seed));
        match std::fs::write(&path, trace::to_json_lines(&spans)) {
            Ok(()) => lines.push(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        layer
    } else {
        vec![
            Metric::s("setup_s", main_flow.setup_s),
            Metric::new("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MB"),
            Metric::s("op_s", main_flow.op_s),
        ]
    };
    if !args.trace && main_flow.op_s <= 0.0 {
        attempted += 1;
        failed += 1;
        eprintln!("check failed: no samples measured");
    }

    for l in &lines {
        println!("{l}");
    }
    for m in &metrics {
        println!("  {:<40} {:>16.6e} {}", m.name, m.value, m.unit);
    }
    println!("{name}: {attempted} checked operations, {failed} failed");
    let body: Vec<String> = metrics.iter().map(Metric::json).collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
