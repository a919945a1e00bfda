//! `fleet`: the `mdl store sweep --fast --json` path over a 48-model
//! store — open, sweep every model through the fast scenario matrix on the
//! `par_map` fan-out, then encode the report.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use emc_bench::serve::{
    mc_summary_json, standard_scenarios, sweep_store, CellReport, CellStats, FleetReport, Scenario,
};
use macromodel::{compile, lint_model, load_artifact_bytes, Macromodel, ModelStore};

use crate::fixtures::{write_store, Fixtures, Layout, StoredArtifact};
use crate::stats::{median, thread_count, Rng};
use crate::trace::{durations, Tracer};
use crate::{Budget, Ctx, FlowOut, Metric};

/// 8 each of md1/md2/md3 PW-RBF, 4 md1 IBIS corner bundles, 8 md4
/// receivers and 4 md4 C–R̂: 48 models, 36 of them drivers.
const LAYOUT: Layout = Layout {
    per_driver: 8,
    ibis_bundles: 4,
    receivers: 8,
    crs: 4,
};

/// Cells a sweep of [`LAYOUT`] yields: five scenarios per driver, one per
/// load, plus the mixed-bus cell.
fn expected_cells() -> usize {
    let drivers = 3 * LAYOUT.per_driver + 3 * LAYOUT.ibis_bundles;
    5 * drivers + (LAYOUT.receivers + LAYOUT.crs) + 1
}

/// Model name without the `-c<copy>` suffix the store layout adds.
fn base_name(model: &str) -> &str {
    model.rsplit_once("-c").map_or(model, |(b, _)| b)
}

fn cell_span(scenario: &str) -> &'static str {
    match scenario {
        "r50" => "bench.cell.r50",
        "linecap" => "bench.cell.linecap",
        "bus-ladder" => "bench.cell.bus-ladder",
        "eye-prbs7" => "bench.cell.eye-prbs7",
        "mc-channel" => "bench.cell.mc-channel",
        "pulse" => "bench.cell.pulse",
        _ => "bench.cell.other",
    }
}

/// Checks that one cell passed.
fn check_cell(c: &CellReport, what: &str, out: &mut FlowOut) {
    out.attempted += 1;
    if !c.pass {
        out.fail(format!("{what} {}/{}: {}", c.model, c.scenario, c.detail));
    }
}

/// Solver work of a set of cells, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    factorizations: u64,
    symbolic: u64,
    newton: u64,
    flops: u64,
    nnz: u64,
}

impl Counts {
    fn add(&mut self, s: &CellStats) {
        self.factorizations += s.factorizations as u64;
        self.symbolic += s.symbolic_analyses as u64;
        self.newton += s.newton_iterations as u64;
        self.flops += s.flops;
        self.nnz += s.factor_nnz as u64;
    }

    fn metrics(&self, suffix: &str) -> Vec<Metric> {
        vec![
            Metric::count(
                format!("circuit.factorizations{suffix}"),
                self.factorizations,
            ),
            Metric::count(format!("circuit.symbolic_analyses{suffix}"), self.symbolic),
            Metric::count(format!("circuit.newton_iterations{suffix}"), self.newton),
            Metric::count(format!("numkit.lu_flops{suffix}"), self.flops),
            Metric::count(format!("numkit.factor_nnz{suffix}"), self.nnz),
        ]
    }
}

/// What one sweep produced that later sweeps must reproduce bit for bit.
#[derive(PartialEq)]
struct Fingerprint {
    si: BTreeMap<(String, String), String>,
    all: Counts,
    mixed: Counts,
}

impl Fingerprint {
    /// Whether every copy of a model produced the same eye and Monte Carlo
    /// outcome (copies differ only in name).
    fn copies_agree(&self) -> bool {
        let mut by_base: BTreeMap<(&str, &str), &str> = BTreeMap::new();
        self.si.iter().all(|((model, scenario), json)| {
            *by_base
                .entry((base_name(model), scenario.as_str()))
                .or_insert(json.as_str())
                == json.as_str()
        })
    }
}

fn fingerprint(report: &FleetReport) -> Fingerprint {
    let mut si = BTreeMap::new();
    for e in &report.eyes {
        si.insert((e.model.clone(), e.scenario.clone()), e.outcome.json());
    }
    for m in &report.mc {
        si.insert(
            (m.model.clone(), m.scenario.clone()),
            mc_summary_json(&m.summary),
        );
    }
    let (mut all, mut mixed) = (Counts::default(), Counts::default());
    for c in &report.cells {
        if let Some(s) = &c.stats {
            all.add(s);
            if c.scenario == "bus-mixed" {
                mixed.add(s);
            }
        }
    }
    Fingerprint { si, all, mixed }
}

/// Runs `f` while a sampler thread records the peak live thread count.
fn with_thread_peak<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let stop = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let out = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(thread_count().unwrap_or(0), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    });
    (out, peak.load(Ordering::Relaxed))
}

/// Per-layer probes of the traced run: decode, compile and lint every
/// artifact of the store, and each distinct model's cells run alone.
struct Probes {
    /// One-model stores, one per distinct fixture model, with the number
    /// of copies of that model in the fleet store.
    single: Vec<(String, ModelStore, usize)>,
    /// `(model, scenario)` → isolated cell times.
    iso: BTreeMap<(String, String), Vec<f64>>,
}

impl Probes {
    fn new(ctx: &Ctx, stored: &[StoredArtifact]) -> crate::Result<Probes> {
        let mut copies: BTreeMap<&str, (usize, &macromodel::AnyModel)> = BTreeMap::new();
        for m in stored.iter().flat_map(|a| &a.artifact.models) {
            copies.entry(base_name(m.name())).or_insert((0, m)).0 += 1;
        }
        let mut single = Vec::new();
        for (base, (n, m)) in copies {
            let dir = ctx.dir.join("cells").join(base);
            if dir.exists() {
                std::fs::remove_dir_all(&dir)?;
            }
            std::fs::create_dir_all(&dir)?;
            macromodel::save_model_to_path(m, dir.join("m.mdlx"))?;
            single.push((base.to_string(), ModelStore::open(&dir)?, n));
        }
        Ok(Probes {
            single,
            iso: BTreeMap::new(),
        })
    }

    fn round(
        &mut self,
        tr: &Tracer,
        stored: &[StoredArtifact],
        store: &ModelStore,
        scen: &[Scenario],
        out: &mut FlowOut,
    ) {
        for a in stored {
            out.attempted += 1;
            let Ok(bytes) = std::fs::read(&a.path) else {
                out.fail(format!("cannot read {}", a.path.display()));
                continue;
            };
            let name = if a.binary {
                "core.exchange.decode_bin"
            } else {
                "core.exchange.decode_text"
            };
            if let Err(e) = tr.span(name, None, || load_artifact_bytes(&bytes)) {
                out.fail(format!("decode {}: {e}", a.path.display()));
            }
        }
        for (_, m) in store.models() {
            std::hint::black_box(tr.span("core.evalrt.compile", None, || compile(m)));
            std::hint::black_box(tr.span("core.lint", None, || lint_model(m)));
        }
        for (base, one, _) in &self.single {
            let kind = one.models()[0].1.kind();
            for sc in scen.iter().filter(|s| s.applies(kind)) {
                let r = tr.span(cell_span(&sc.name), None, || {
                    sweep_store(one, std::slice::from_ref(sc))
                });
                for c in &r.cells {
                    check_cell(c, "isolated", out);
                    self.iso
                        .entry((base.clone(), c.scenario.clone()))
                        .or_default()
                        .push(c.elapsed_s);
                }
            }
        }
    }

    fn median(&self, model: &str, scenario: &str) -> f64 {
        self.iso
            .get(&(model.to_string(), scenario.to_string()))
            .and_then(|v| median(v))
            .unwrap_or(0.0)
    }
}

/// Runs the flow.
pub fn run(ctx: &Ctx, budget: Budget) -> FlowOut {
    let mut out = FlowOut::default();
    // The standard eye and Monte Carlo seeds: with other seeds the 12-bit
    // PRBS window or the 4-trial channel plan can close the eye of every
    // driver, and those gate verdicts would fail the sweep.
    let scen = standard_scenarios(true);

    // Set-up: extract the fixture models and write the store.
    let mut setup = Vec::new();
    let mut stored: Option<(PathBuf, Vec<StoredArtifact>)> = None;
    for k in 0..budget.setups() {
        let dir = ctx.dir.join(format!("fleet-{k}"));
        let t0 = Instant::now();
        let made = ctx
            .tr
            .span("setup.fixtures", None, Fixtures::extract)
            .and_then(|fx| {
                ctx.tr.span("setup.write_store", None, || {
                    write_store(&dir, &fx, LAYOUT, &mut Rng::new(ctx.seed, 2))
                })
            });
        setup.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        match made {
            Ok(files) => {
                if let Some((old, _)) = stored.replace((dir, files)) {
                    std::fs::remove_dir_all(old).ok();
                }
            }
            Err(e) => out.fail(format!("fleet set-up: {e}")),
        }
    }
    let Some((dir, stored)) = stored else {
        return out;
    };
    out.setup_s = median(&setup).unwrap_or(0.0);

    let mut probes = None;
    if ctx.tr.on() {
        match Probes::new(ctx, &stored) {
            Ok(p) => probes = Some(p),
            Err(e) => out.fail(format!("probe stores: {e}")),
        }
    }

    let plain = Tracer::new(false);
    let mut reference: Option<Fingerprint> = None;
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let (mut json_s, mut mixed_s, mut fanout_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_threads = 0;
    let mut iteration = |tr: &Tracer, out: &mut FlowOut| -> Option<(f64, ModelStore)> {
        let t0 = Instant::now();
        let it = tr.open("fleet.iteration", None);
        let store = match tr.span("core.store.open", it, || ModelStore::open(&dir)) {
            Ok(s) => s,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("store open: {e}"));
                return None;
            }
        };
        let t_sweep = Instant::now();
        let (report, peak) = if tr.on() {
            with_thread_peak(|| tr.span("bench.sweep", it, || sweep_store(&store, &scen)))
        } else {
            (sweep_store(&store, &scen), 0)
        };
        let sweep_wall = t_sweep.elapsed().as_secs_f64();
        let t_json = Instant::now();
        let json = tr.span("bench.report_json", it, || report.to_json());
        let json_wall = t_json.elapsed().as_secs_f64();
        tr.close(it);
        let total = t0.elapsed().as_secs_f64();

        for c in &report.cells {
            check_cell(c, "cell", out);
        }
        out.attempted += 1;
        if report.cells.len() != expected_cells()
            || !report.load_failures.is_empty()
            || !json.contains("\"all_passed\": true")
        {
            out.fail(format!(
                "sweep: {} cells (want {}), {} load failures, or JSON lacks all_passed: true",
                report.cells.len(),
                expected_cells(),
                report.load_failures.len(),
            ));
        }
        let fp = fingerprint(&report);
        out.attempted += 1;
        if !fp.copies_agree() {
            out.fail("copies of one model disagree on eye or Monte Carlo outcome".into());
        }
        match &reference {
            None => reference = Some(fp),
            Some(r) if *r != fp => {
                out.fail("eye/Monte Carlo outcomes or solver counts differ between sweeps".into())
            }
            Some(_) => {}
        }
        if tr.on() {
            let mixed = report
                .cells
                .iter()
                .find(|c| c.scenario == "bus-mixed")
                .map_or(0.0, |c| c.elapsed_s);
            mixed_s.push(mixed);
            fanout_s.push(sweep_wall - mixed);
            json_s.push(json_wall);
            peak_threads = peak_threads.max(peak);
        }
        Some((total, store))
    };

    if budget.warm_up() {
        iteration(&plain, &mut out);
    }
    let t0 = Instant::now();
    let mut n = 0usize;
    while budget.more(n, t0) {
        let traced = ctx.tr.on() && n.is_multiple_of(2);
        let tr = if traced { &ctx.tr } else { &plain };
        if let Some((s, store)) = iteration(tr, &mut out) {
            if traced {
                traced_s.push(s);
            } else {
                plain_s.push(s);
            }
            // Probe rounds sit between sweeps, outside the timed region.
            if let Some(p) = probes.as_mut().filter(|_| traced) {
                p.round(&ctx.tr, &stored, &store, &scen, &mut out);
            }
        }
        n += 1;
    }
    let all: Vec<f64> = traced_s.iter().chain(&plain_s).copied().collect();
    out.op_s = median(&all).unwrap_or(0.0);
    out.overhead_pct = crate::overhead_pct(&traced_s, &plain_s);
    out.lines.push(format!(
        "fleet: {} sweeps of {} cells over {} models; sweep_s {:.4} (median)",
        all.len(),
        expected_cells(),
        LAYOUT.models(),
        out.op_s
    ));

    let spans = ctx.tr.spans();
    let m = |name: &str| median(&durations(&spans, name)).unwrap_or(0.0);
    let mut layer = vec![
        Metric::s("bench.sweep_s", out.op_s),
        Metric::s("core.store.open_s", m("core.store.open")),
        Metric::s("core.evalrt.compile_s", m("core.evalrt.compile")),
        Metric::s(
            "core.exchange.decode_text_s",
            m("core.exchange.decode_text"),
        ),
        Metric::s("core.exchange.decode_bin_s", m("core.exchange.decode_bin")),
        Metric::s("core.lint_s", m("core.lint")),
        Metric::s("bench.report_json_s", median(&json_s).unwrap_or(0.0)),
        Metric::s("bench.cell.bus-mixed_s", median(&mixed_s).unwrap_or(0.0)),
        Metric::count("bench.sweep.peak_threads", peak_threads),
    ];
    let (mut eff, mut cells) = (0.0, Vec::new());
    if let Some(p) = &probes {
        for sc in &scen {
            let model = if sc.name == "pulse" { "md4" } else { "md1" };
            cells.push(Metric::s(
                format!("bench.cell.{}_s", sc.name),
                p.median(model, &sc.name),
            ));
        }
        // Sum of isolated cell times over the sweep's cells, against the
        // processors' capacity during the fan-out.
        let sum_iso: f64 = p
            .single
            .iter()
            .flat_map(|(b, one, n)| {
                let kind = one.models()[0].1.kind();
                scen.iter()
                    .filter(move |s| s.applies(kind))
                    .map(move |s| *n as f64 * p.median(b, &s.name))
            })
            .sum();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        if let Some(f) = median(&fanout_s) {
            eff = sum_iso / (nproc * f);
        }
    }
    layer.extend(cells);
    layer.push(Metric::ratio("bench.sweep.parallel_efficiency", eff));
    if let Some(r) = &reference {
        layer.extend(r.all.metrics(""));
        layer.extend(r.mixed.metrics(".bus-mixed"));
    }
    out.layer = layer;
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(ctx.dir.join("cells")).ok();
    out
}
