//! `mdl` — the macromodel artifact tool: the full lifecycle of an
//! estimated model as a durable on-disk artifact, from extraction to
//! serving a whole library.
//!
//! ```text
//! mdl extract <md1|md2|md3|md4> [--kind pwrbf|ibis|receiver|cr]
//!             [--out PATH] [--fast] [--v2] [--corners] [--bin]
//! mdl convert <in.mdlx|in.mdlxb> <out> [--to text|binary]
//! mdl info <file.mdlx|file.mdlxb>
//! mdl lint <file.mdlx|file.mdlxb>|<dir> [--json] [--deny CODE] [--allow CODE]
//! mdl validate <file.mdlx|file.mdlxb> [--rms-limit V] [--timing-limit S] [--fast]
//! mdl simulate <file.mdlx|file.mdlxb> [--fixture r50|linecap|pulse]
//!              [--pattern BITS] [--bit-time S] [--t-stop S]
//! mdl eye <file.mdlx|file.mdlxb> [--prbs 7|15|31] [--bits N] [--seed S]
//!         [--lanes N] [--bit-time S] [--json]
//! mdl mc <file.mdlx|file.mdlxb> [--trials N] [--seed S] [--prbs 7|15|31]
//!        [--bits N] [--json]
//! mdl store ls <dir> [--json]
//! mdl store validate <dir> [--fast] [--json PATH]
//! mdl store sweep <dir> [--fast] [--json PATH]
//! mdl serve <dir> --socket PATH [--poll-ms N] [--fast]
//! mdl request --socket PATH <request line...>
//! ```
//!
//! `eye` drives every lane of a generated channel ([`si::channel`]) with a
//! seed-offset PRBS stream from the artifact's driver model and folds the
//! far-end waveforms into an eye diagram — metrics plus an ASCII raster of
//! the worst lane; the exit status is nonzero when the eye is closed. `mc`
//! runs the Latin-hypercube Monte-Carlo channel sweep ([`si::mc`]) and
//! gates on population eye statistics. Both are deterministic in `--seed`.
//!
//! `lint` runs the static diagnostic engine ([`macromodel::lint`]) over one
//! artifact or a whole store directory: model-semantic rules (`M00x`) plus
//! the circuit-structural audit (`C00x`), with per-code `--allow`/`--deny`
//! overrides; the exit status is nonzero exactly when an error-severity
//! finding (or a load failure) survives.
//!
//! `extract` runs a builder-style [`ExtractionSession`] and saves the
//! artifact (`--v2` writes a provenance-stamped `mdlx 2` bundle;
//! `--corners` bundles the three IBIS corner variants into one file);
//! `info` prints summaries, metadata and provenance; `validate` checks the
//! bit-exact re-save guarantee and re-simulates every model in the
//! artifact against its transistor-level reference, failing on accuracy
//! regressions; `simulate` prints the pad voltage on a standard fixture as
//! CSV. The `store` family serves a *directory* of artifacts: `ls` prints
//! the inventory (load failures included), `validate` batch-certifies
//! every model against its reference, and `sweep` runs the scenario
//! matrix ([`emc_bench::serve`]) — both write machine-readable JSON
//! reports with `--json` and exit nonzero on any failing cell. Everything
//! after `extract` works from the files alone — no re-estimation.
//!
//! `serve` keeps a store resident behind a Unix socket with hot reload
//! that re-parses only the artifacts whose path or bytes changed
//! ([`emc_bench::server`]); `request` is the one-shot protocol client for
//! scripts, exiting 0 on an `"ok":true` reply and 1 otherwise. Daemon latency is measured by `perfbench
//! --workload serve`. The microbenches (evaluation runtime, eye layers,
//! store I/O) are `cargo bench` targets, run through
//! `scripts/bench-baseline.sh NAME`.

use emc_bench::serve::{
    driver_spec, mc_summary_json, receiver_spec, run_eye_workload, run_mc_workload,
    standard_scenarios, sweep_store, validate_model, validate_store, EyeWorkload, FleetReport,
    McWorkload,
};
use emc_bench::server::{self, ServeConfig};
use macromodel::exchange::{
    load_artifact_bytes, load_artifact_from_path, save_artifact_as, save_artifact_bytes, AnyModel,
    Artifact, ArtifactFormat,
};
use macromodel::json::{self, Layout, Raw};
use macromodel::validate::{print_csv, DEFAULT_VALIDATION_DT};
use macromodel::{ExtractionSession, Macromodel, ModelStore, PortStimulus, TestFixture};

type CliResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

fn usage() -> ! {
    eprintln!(
        "usage:\n  mdl extract <md1|md2|md3|md4> [--kind pwrbf|ibis|receiver|cr] [--out PATH] [--fast] [--v2] [--corners] [--bin]\n  mdl convert <in.mdlx|in.mdlxb> <out> [--to text|binary]\n  mdl info <file.mdlx|file.mdlxb>\n  mdl lint <file.mdlx|file.mdlxb>|<dir> [--json] [--deny CODE] [--allow CODE]\n  mdl validate <file.mdlx|file.mdlxb> [--rms-limit V] [--timing-limit S] [--fast]\n  mdl simulate <file.mdlx|file.mdlxb> [--fixture r50|linecap|pulse] [--pattern BITS] [--bit-time S] [--t-stop S]\n  mdl eye <file.mdlx|file.mdlxb> [--prbs 7|15|31] [--bits N] [--seed S] [--lanes N] [--bit-time S] [--json]\n  mdl mc <file.mdlx|file.mdlxb> [--trials N] [--seed S] [--prbs 7|15|31] [--bits N] [--json]\n  mdl store ls <dir> [--json]\n  mdl store validate <dir> [--fast] [--json PATH]\n  mdl store sweep <dir> [--fast] [--json PATH]\n  mdl serve <dir> --socket PATH [--poll-ms N] [--fast]\n  mdl request --socket PATH <request line...>"
    );
    std::process::exit(2);
}

fn parse_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn parse_opt(args: &mut Vec<String>, key: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == key)?;
    if pos + 1 >= args.len() {
        eprintln!("{key} needs a value");
        usage();
    }
    args.remove(pos);
    Some(args.remove(pos))
}

/// Parses `key` as a finite number > 0. Zero, negative, non-finite and
/// non-numeric values are usage errors.
fn parse_positive_opt(args: &mut Vec<String>, key: &str) -> Option<f64> {
    let v = parse_opt(args, key)?;
    match v.parse::<f64>() {
        Ok(f) if f.is_finite() && f > 0.0 => Some(f),
        _ => {
            eprintln!("{key}: expected a finite number > 0, got '{v}'");
            usage();
        }
    }
}

/// Parses `key` as a whole number of at least `min`. Negative, fractional,
/// non-finite and too-small values are usage errors, never clamped.
fn parse_count_opt(args: &mut Vec<String>, key: &str, min: u64) -> Option<u64> {
    parse_bounded_count_opt(args, key, min, u64::MAX)
}

/// [`parse_count_opt`] with an upper bound too: values above `max` are
/// usage errors as well.
fn parse_bounded_count_opt(args: &mut Vec<String>, key: &str, min: u64, max: u64) -> Option<u64> {
    let v = parse_opt(args, key)?;
    match emc_bench::parse_count(key, &v, min, max) {
        Ok(n) => Some(n),
        Err(msg) => {
            eprintln!("{msg}");
            usage();
        }
    }
}

/// Parses `--bits` within the eye and Monte-Carlo bounds.
fn parse_bits_opt(args: &mut Vec<String>) -> Option<usize> {
    parse_bounded_count_opt(args, "--bits", EyeWorkload::MIN_BITS, EyeWorkload::MAX_BITS)
        .map(|b| b as usize)
}

/// Parses a PRBS order tag (7, 15 or 31).
fn parse_prbs_opt(args: &mut Vec<String>) -> Option<u32> {
    parse_opt(args, "--prbs").map(|v| {
        emc_bench::parse_prbs(&v).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            usage();
        })
    })
}

fn parse_multi_opt(args: &mut Vec<String>, key: &str) -> Vec<String> {
    let mut out = Vec::new();
    while let Some(v) = parse_opt(args, key) {
        out.push(v);
    }
    out
}

fn cmd_convert(mut args: Vec<String>) -> CliResult<()> {
    let to = parse_opt(&mut args, "--to");
    let [input, output] = args.as_slice() else {
        usage()
    };
    let original = std::fs::read(input)?;
    let artifact = load_artifact_bytes(&original)?;
    let to = match to.as_deref() {
        Some("binary" | "bin") => ArtifactFormat::Binary,
        Some("text") => ArtifactFormat::Text,
        Some(other) => {
            eprintln!("--to must be 'text' or 'binary', got '{other}'");
            usage();
        }
        None if std::path::Path::new(output)
            .extension()
            .is_some_and(|ext| ext == "mdlxb") =>
        {
            ArtifactFormat::Binary
        }
        None => ArtifactFormat::Text,
    };
    save_artifact_as(&artifact, to, output)?;

    // Prove the detour is lossless before reporting success: load the
    // converted file back and re-save it in the *source* container — the
    // bytes must reproduce the input exactly (both writers are
    // deterministic and floats travel as identical bit patterns).
    let from = ArtifactFormat::of(&original);
    let converted = std::fs::read(output)?;
    let back = load_artifact_bytes(&converted)?;
    if save_artifact_bytes(&back, from)? != original {
        return Err(format!(
            "round-trip through {output} is not byte-identical to {input}; not trusting the conversion"
        )
        .into());
    }
    println!(
        "converted {input} ({} bytes, {from}) -> {output} ({} bytes, {to}); round-trip verified",
        original.len(),
        converted.len(),
    );
    Ok(())
}

fn cmd_extract(mut args: Vec<String>) -> CliResult<()> {
    let fast = parse_flag(&mut args, "--fast");
    let v2 = parse_flag(&mut args, "--v2");
    let corners = parse_flag(&mut args, "--corners");
    let format = if parse_flag(&mut args, "--bin") {
        ArtifactFormat::Binary
    } else {
        ArtifactFormat::Text
    };
    let kind = parse_opt(&mut args, "--kind");
    let out = parse_opt(&mut args, "--out");
    let [device] = args.as_slice() else { usage() };
    let kind = kind.as_deref().unwrap_or(if driver_spec(device).is_some() {
        "pwrbf"
    } else {
        "receiver"
    });
    // Fail flag mismatches before spending seconds on the extraction.
    if corners && kind != "ibis" {
        return Err("--corners requires --kind ibis".into());
    }
    let ext = match format {
        ArtifactFormat::Binary => "mdlxb",
        ArtifactFormat::Text => "mdlx",
    };
    let out = out.unwrap_or_else(|| format!("{device}-{kind}.{ext}"));

    let t0 = std::time::Instant::now();
    let estimated = match kind {
        "pwrbf" => {
            let spec = driver_spec(device).unwrap_or_else(|| {
                eprintln!("'{device}' is not a driver device");
                usage();
            });
            let mut session = ExtractionSession::for_driver(spec);
            if fast {
                session = session.excitation(24, 16, 6).windows(1.5e-9, 3e-9);
            }
            session.run()?
        }
        "ibis" => {
            let spec = driver_spec(device).unwrap_or_else(|| {
                eprintln!("'{device}' is not a driver device");
                usage();
            });
            let mut session = ExtractionSession::for_ibis(spec);
            if fast {
                session = session.iv_points(21).tables(50e-12, 3e-9);
            }
            session.run()?
        }
        "receiver" => {
            let spec = receiver_spec(device).unwrap_or_else(|| {
                eprintln!("'{device}' is not a receiver device");
                usage();
            });
            let mut session = ExtractionSession::for_receiver(spec).orders(3, 2, 3);
            if fast {
                session = session.excitation(24, 16, 6);
            } else {
                session = session.excitation(40, 64, 6);
            }
            session.run()?
        }
        "cr" => {
            let spec = receiver_spec(device).unwrap_or_else(|| {
                eprintln!("'{device}' is not a receiver device");
                usage();
            });
            ExtractionSession::for_cr_baseline(spec).run()?
        }
        other => {
            eprintln!("unknown kind '{other}'");
            usage();
        }
    };
    let est_s = t0.elapsed().as_secs_f64();
    if corners {
        // Bundle the three IBIS corner variants into one v2 artifact.
        let AnyModel::Ibis(base) = estimated.model() else {
            unreachable!("--corners was gated on --kind ibis above");
        };
        let mut models = Vec::with_capacity(3);
        for corner in [
            refdev::IbisCorner::Typical,
            refdev::IbisCorner::Slow,
            refdev::IbisCorner::Fast,
        ] {
            models.push(AnyModel::Ibis(base.with_corner(corner)?));
        }
        let provenance = estimated
            .provenance()
            .clone()
            .with_param("corners", "Typical,Slow,Fast");
        save_artifact_as(&Artifact::bundle(models, Some(provenance)), format, &out)?;
    } else if v2 {
        save_artifact_as(&estimated.to_artifact(), format, &out)?;
    } else {
        save_artifact_as(&Artifact::single(estimated.model().clone()), format, &out)?;
    }
    println!("extracted {} in {est_s:.2} s", estimated.summary());
    println!("saved {out}");
    Ok(())
}

fn cmd_info(args: Vec<String>) -> CliResult<()> {
    let [path] = args.as_slice() else { usage() };
    let bytes = std::fs::read(path)?;
    let artifact = load_artifact_bytes(&bytes)?;
    println!(
        "format    mdlx {}{}",
        artifact.version,
        match ArtifactFormat::of(&bytes) {
            ArtifactFormat::Binary => " (binary container)",
            ArtifactFormat::Text => "",
        }
    );
    if let Some(p) = &artifact.provenance {
        println!("tool      {} {}", p.tool, p.tool_version);
        println!("digest    {}", p.config_digest);
        for (k, v) in &p.params {
            println!("  param {k:<10} {v}");
        }
    }
    for model in &artifact.models {
        println!("kind      {}", model.kind());
        println!("name      {}", model.name());
        match model.sample_time() {
            Some(ts) => println!("ts        {ts:e} s"),
            None => println!("ts        - (continuous)"),
        }
        println!("summary   {}", model.summary());
        for (k, v) in model.metadata() {
            println!("  {k:<16} {v}");
        }
    }
    Ok(())
}

fn cmd_lint(mut args: Vec<String>) -> CliResult<()> {
    use macromodel::lint::{code_spec, lint_artifact, LintConfig, LintReport};

    let json = parse_flag(&mut args, "--json");
    let mut cfg = LintConfig::default();
    for (key, deny) in [("--deny", true), ("--allow", false)] {
        for code in parse_multi_opt(&mut args, key) {
            if code_spec(&code).is_none() {
                eprintln!("{key}: unknown diagnostic code '{code}'");
                usage();
            }
            if deny {
                cfg.deny(code);
            } else {
                cfg.allow(code);
            }
        }
    }
    let [path] = args.as_slice() else { usage() };

    let mut report = LintReport::default();
    let mut load_failures: Vec<(String, String)> = Vec::new();
    if std::fs::metadata(path)?.is_dir() {
        let store = ModelStore::open(path)?;
        for entry in store.entries() {
            let file = entry.path().display().to_string();
            match entry.artifact() {
                Ok(artifact) => {
                    for mut diag in lint_artifact(artifact).diagnostics {
                        diag.subject = format!("{file}: {}", diag.subject);
                        report.diagnostics.push(diag);
                    }
                }
                Err(e) => load_failures.push((file, e.to_string())),
            }
        }
    } else {
        report = lint_artifact(&load_artifact_from_path(path)?);
    }

    if json {
        let out = json::object(Layout::Compact, |o| {
            o.array("load_failures", Layout::Compact, |a| {
                for (file, error) in &load_failures {
                    a.object(Layout::Compact, |o| {
                        o.field("path", file).field("error", error);
                    });
                }
            })
            .field("report", Raw(report.to_json(&cfg)));
        });
        println!("{out}");
    } else {
        for (file, error) in &load_failures {
            println!("LOAD FAIL  {file}: {error}");
        }
        print!("{}", report.render_human(&cfg));
    }
    let denied = report.deny_count(&cfg);
    if denied > 0 || !load_failures.is_empty() {
        return Err(format!(
            "{denied} error-severity finding(s), {} load failure(s)",
            load_failures.len()
        )
        .into());
    }
    Ok(())
}

fn cmd_validate(mut args: Vec<String>) -> CliResult<()> {
    let fast = parse_flag(&mut args, "--fast");
    let rms_limit = parse_positive_opt(&mut args, "--rms-limit");
    let timing_limit = parse_positive_opt(&mut args, "--timing-limit");
    let [path] = args.as_slice() else { usage() };

    // 1. Load with strict validation, then check the bit-exact re-save
    // guarantee against the original file bytes (either format version,
    // text or binary container alike).
    let original = std::fs::read(path)?;
    let artifact = load_artifact_bytes(&original)?;
    let format = ArtifactFormat::of(&original);
    if save_artifact_bytes(&artifact, format)? != original {
        return Err(format!("{path}: re-save is not byte-identical to the artifact").into());
    }
    println!(
        "round-trip  ok ({} bytes, mdlx {}{}, bit-exact re-save)",
        original.len(),
        artifact.version,
        match format {
            ArtifactFormat::Binary => " binary",
            ArtifactFormat::Text => "",
        }
    );

    // 2. Re-simulate every bundled model against its transistor-level
    // reference and enforce the per-kind regression gates.
    for model in &artifact.models {
        let cell = validate_model(model.as_dyn(), fast, rms_limit, timing_limit);
        println!(
            "accuracy    {} rms {} V, max {} V, timing {}",
            cell.model,
            cell.rms_error.map_or("n/a".into(), |v| format!("{v:.4}")),
            cell.max_error.map_or("n/a".into(), |v| format!("{v:.4}")),
            cell.timing_error_s
                .map_or("n/a".into(), |te| format!("{:.1} ps", te * 1e12)),
        );
        if !cell.pass {
            return Err(format!("{}: {}", cell.model, cell.detail).into());
        }
        println!(
            "validate    {} ok (rms limit {:.4} V)",
            cell.model,
            cell.rms_limit.unwrap_or(f64::NAN)
        );
    }
    Ok(())
}

/// Prints a fleet report as an aligned table, optionally writes the JSON
/// form, and converts failing cells into a CLI error.
fn finish_fleet(report: &FleetReport, json: Option<String>) -> CliResult<()> {
    for (path, error) in &report.load_failures {
        println!("LOAD FAIL  {path}: {error}");
    }
    for c in &report.cells {
        let metrics = match (c.rms_error, &c.stats) {
            (Some(rms), _) => format!("rms {rms:.4} V"),
            (None, Some(s)) => format!(
                "{} unknowns, {} factorizations, {:.1e} flops",
                s.unknowns, s.factorizations, s.flops as f64
            ),
            _ => String::new(),
        };
        println!(
            "{:<4} {:<28} {:<14} {:<12} {metrics} {}",
            if c.pass { "ok" } else { "FAIL" },
            c.model,
            c.kind,
            c.scenario,
            if c.pass { "" } else { c.detail.as_str() },
        );
    }
    println!(
        "fleet: {}/{} cells passed, {} artifacts, {} models, {} load failures",
        report.passed(),
        report.cells.len(),
        report.artifacts,
        report.models,
        report.load_failures.len()
    );
    if let Some(path) = json {
        std::fs::write(&path, report.to_json())?;
        println!("report written to {path}");
    }
    if !report.all_passed() {
        return Err(format!(
            "{} failing cells, {} unloadable artifacts",
            report.failed(),
            report.load_failures.len()
        )
        .into());
    }
    Ok(())
}

/// Renders `store ls` as one JSON document (shape asserted by the CLI
/// tests): load mode, per-entry format/version/bytes/digest, flattened
/// model list, and the error string of unloadable entries.
fn store_ls_json(store: &ModelStore) -> String {
    let mut models = 0usize;
    json::object(Layout::Compact, |o| {
        o.field("root", store.root().display().to_string())
            .field("mode", "lazy")
            .array("entries", Layout::Compact, |a| {
                for entry in store.entries() {
                    a.object(Layout::Compact, |o| {
                        o.field("path", entry.path().display().to_string())
                            .field("format", entry.format().map(|f| f.to_string()));
                        match (entry.index(), entry.artifact()) {
                            (Ok(index), Ok(artifact)) => {
                                models += index.models.len();
                                o.field("version", index.version)
                                    .field("bytes", index.bytes)
                                    .field("digest", &index.digest)
                                    .array("models", Layout::Compact, |a| {
                                        for (kind, name) in &index.models {
                                            a.object(Layout::Compact, |o| {
                                                o.field("kind", kind.tag()).field("name", name);
                                            });
                                        }
                                    })
                                    .field(
                                        "provenance_digest",
                                        artifact.provenance.as_ref().map(|p| &p.config_digest),
                                    )
                                    .field("error", None::<&str>);
                            }
                            (index, artifact) => {
                                let error = index
                                    .err()
                                    .or(artifact.err())
                                    .expect("one side failed in this branch");
                                o.field("error", error.to_string());
                            }
                        }
                    });
                }
            })
            .field("artifacts", store.len())
            .field("models", models)
            .field("load_failures", store.failures().len());
    })
}

fn cmd_store(mut args: Vec<String>) -> CliResult<()> {
    if args.is_empty() {
        usage();
    }
    let sub = args.remove(0);
    let fast = parse_flag(&mut args, "--fast");
    // For `ls`, --json is a flag (print the listing as JSON); the fleet
    // subcommands take --json PATH to write their report file.
    let json_flag = sub == "ls" && parse_flag(&mut args, "--json");
    let json = if sub == "ls" {
        None
    } else {
        parse_opt(&mut args, "--json")
    };
    let [dir] = args.as_slice() else { usage() };
    // The open only scans: `ls` inventories binary entries from their
    // section headers, then forces a full integrity pass entry by entry (a
    // listing that hides corrupt artifacts is worse than a slow one); the
    // fleet engines force a full load in their report header.
    let store = ModelStore::open(dir)?;
    match sub.as_str() {
        "ls" => {
            if json_flag {
                println!("{}", store_ls_json(&store));
            } else {
                println!("mode lazy (entries indexed from headers, verified on touch)");
                for entry in store.entries() {
                    match (entry.index(), entry.artifact()) {
                        (Ok(index), Ok(artifact)) => {
                            let prov = artifact
                                .provenance
                                .as_ref()
                                .map(|p| format!(" prov {}", p.config_digest))
                                .unwrap_or_default();
                            for (kind, name) in &index.models {
                                println!(
                                    "{:<40} {:<6} mdlx {} {:>8} B {} {:<14} {}{prov}",
                                    entry.path().display(),
                                    index.format,
                                    index.version,
                                    index.bytes,
                                    index.digest,
                                    kind.tag(),
                                    name,
                                );
                            }
                        }
                        (index, artifact) => {
                            let error = index
                                .err()
                                .or(artifact.err())
                                .expect("one side failed in this branch");
                            println!("{:<40} LOAD FAIL: {error}", entry.path().display());
                        }
                    }
                }
            }
            let failures = store.failures();
            if !json_flag {
                println!(
                    "{} artifacts, {} models, {} load failures",
                    store.len(),
                    store.models().len(),
                    failures.len()
                );
            }
            if !failures.is_empty() {
                return Err(format!("{} artifacts failed to load", failures.len()).into());
            }
            Ok(())
        }
        "validate" => finish_fleet(&validate_store(&store, fast), json),
        "sweep" => finish_fleet(&sweep_store(&store, &standard_scenarios(fast)), json),
        _ => usage(),
    }
}

fn cmd_simulate(mut args: Vec<String>) -> CliResult<()> {
    let fixture = parse_opt(&mut args, "--fixture");
    let pattern = parse_opt(&mut args, "--pattern").unwrap_or_else(|| "010".into());
    if pattern.is_empty() || pattern.chars().any(|c| c != '0' && c != '1') {
        eprintln!("--pattern: expected a non-empty string of 0s and 1s, got '{pattern}'");
        usage();
    }
    let bit_time = parse_positive_opt(&mut args, "--bit-time").unwrap_or(4e-9);
    let t_stop = parse_positive_opt(&mut args, "--t-stop").unwrap_or(12e-9);
    let [path] = args.as_slice() else { usage() };
    let model = load_artifact_from_path(path)?.into_single()?;

    let fixture = match fixture.as_deref() {
        None | Some("r50") => TestFixture::resistive(50.0),
        Some("linecap") => TestFixture::line_cap(50.0, 0.8e-9, 10e-12),
        Some("pulse") => TestFixture::series_pulse(60.0, 0.0, 1.0, 0.4e-9, 0.1e-9, 2e-9, 0.1e-9),
        Some(other) => {
            eprintln!("unknown fixture '{other}'");
            usage();
        }
    };
    let stim = model
        .kind()
        .is_driver()
        .then(|| PortStimulus::new(pattern, bit_time));
    let dt = model.sample_time().unwrap_or(DEFAULT_VALIDATION_DT);
    let wave = model.simulate_on_load(&fixture, stim.as_ref(), dt, t_stop)?;
    print_csv(&["t", "v_pad"], &[&wave]);
    Ok(())
}

fn cmd_eye(mut args: Vec<String>) -> CliResult<()> {
    use si::{EyeAnalyzer, EyeConfig};

    let json = parse_flag(&mut args, "--json");
    let mut w = EyeWorkload::standard(false);
    if let Some(p) = parse_prbs_opt(&mut args) {
        w.prbs = p;
    }
    if let Some(b) = parse_bits_opt(&mut args) {
        w.bits = b;
    }
    if let Some(s) = parse_count_opt(&mut args, "--seed", 0) {
        w.seed = s;
    }
    if let Some(l) = parse_bounded_count_opt(&mut args, "--lanes", 1, EyeWorkload::MAX_LANES) {
        w.lanes = l as usize;
    }
    if let Some(bt) = parse_positive_opt(&mut args, "--bit-time") {
        w.bit_time = bt;
    }
    let [path] = args.as_slice() else { usage() };
    let model = load_artifact_from_path(path)?.into_single()?;
    if !model.kind().is_driver() {
        return Err(format!("eye requires a driver model, got {}", model.kind().tag()).into());
    }
    let dt = model.sample_time().unwrap_or(DEFAULT_VALIDATION_DT);
    let mut analyzer = EyeAnalyzer::new(EyeConfig::new(w.bit_time));
    let (_, stats, outcome) = run_eye_workload(model.as_dyn(), &w, dt, &mut analyzer)?;
    if json {
        println!("{}", outcome.json());
    } else {
        let m = &outcome.metrics;
        print!("{}", analyzer.raster().render_ascii());
        println!(
            "eye {} prbs{} bits {} seed {} lanes {} (worst lane {})",
            model.name(),
            outcome.prbs,
            outcome.bits,
            outcome.seed,
            outcome.lanes,
            outcome.worst_lane
        );
        println!(
            "  open {}  height {:.4} V  width {:.3} UI",
            m.open, m.eye_height, m.eye_width_ui
        );
        println!(
            "  jitter pp {:.1} ps  rms {:.1} ps  crossings {}",
            m.jitter_pp_s * 1e12,
            m.jitter_rms_s * 1e12,
            m.crossings
        );
        println!(
            "  rails {:.3} / {:.3} V  overshoot {:.1}%  undershoot {:.1}%",
            m.v_low,
            m.v_high,
            m.overshoot * 100.0,
            m.undershoot * 100.0
        );
        println!(
            "  solver: {} unknowns, {} newton iterations",
            stats.unknowns, stats.newton_iterations
        );
    }
    if !outcome.metrics.open {
        return Err(format!("lane {} eye closed", outcome.worst_lane).into());
    }
    Ok(())
}

fn cmd_mc(mut args: Vec<String>) -> CliResult<()> {
    let json = parse_flag(&mut args, "--json");
    let mut w = McWorkload::standard(false);
    if let Some(t) = parse_bounded_count_opt(
        &mut args,
        "--trials",
        McWorkload::MIN_TRIALS,
        McWorkload::MAX_TRIALS,
    ) {
        w.trials = t as usize;
    }
    if let Some(s) = parse_count_opt(&mut args, "--seed", 0) {
        w.seed = s;
    }
    if let Some(p) = parse_prbs_opt(&mut args) {
        w.prbs = p;
    }
    if let Some(b) = parse_bits_opt(&mut args) {
        w.bits = b;
    }
    let [path] = args.as_slice() else { usage() };
    let model = load_artifact_from_path(path)?.into_single()?;
    if !model.kind().is_driver() {
        return Err(format!("mc requires a driver model, got {}", model.kind().tag()).into());
    }
    let dt = model.sample_time().unwrap_or(DEFAULT_VALIDATION_DT);
    let (_, _, s) = run_mc_workload(model.as_dyn(), &w, dt)?;
    if json {
        println!("{}", mc_summary_json(&s));
    } else {
        println!(
            "mc {} trials {} seed {} prbs{} bits {}",
            model.name(),
            s.trials,
            s.seed,
            w.prbs,
            w.bits
        );
        println!(
            "  eye height min {:.4} V  mean {:.4} V  q05 {:.4} V",
            s.eye_height_min, s.eye_height_mean, s.eye_height_q05
        );
        println!(
            "  eye width min {:.3} UI  jitter q{:.0} {:.1} ps  max {:.1} ps",
            s.eye_width_min_ui,
            w.gates.jitter_quantile * 100.0,
            s.jitter_pp_q_s * 1e12,
            s.jitter_pp_max_s * 1e12
        );
        println!(
            "  closed eyes {}  gates: height >= {:.3} V, q-jitter <= {:.1} ps",
            s.closed_eyes,
            w.gates.min_eye_height,
            w.gates.max_jitter_pp_s * 1e12
        );
        println!("  population {}", if s.pass { "PASS" } else { "FAIL" });
    }
    if !s.pass {
        return Err(format!(
            "mc gates failed: {} closed eyes, min eye height {:.4} V over {} trials",
            s.closed_eyes, s.eye_height_min, s.trials
        )
        .into());
    }
    Ok(())
}

fn cmd_serve(mut args: Vec<String>) -> CliResult<()> {
    let fast = parse_flag(&mut args, "--fast");
    let socket = parse_opt(&mut args, "--socket").unwrap_or_else(|| {
        eprintln!("serve needs --socket PATH");
        usage();
    });
    let poll_ms = parse_count_opt(&mut args, "--poll-ms", 1).unwrap_or(500);
    let [dir] = args.as_slice() else { usage() };
    let mut cfg = ServeConfig::new(dir, &socket);
    cfg.poll_interval = std::time::Duration::from_millis(poll_ms);
    cfg.fast = fast;
    let handle = server::start(cfg)?;
    println!("serving {dir} on {socket} (send 'shutdown' to stop)");
    handle.join();
    println!("daemon stopped");
    Ok(())
}

fn cmd_request(mut args: Vec<String>) -> CliResult<()> {
    let socket = parse_opt(&mut args, "--socket").unwrap_or_else(|| {
        eprintln!("request needs --socket PATH");
        usage();
    });
    if args.is_empty() {
        usage();
    }
    let line = args.join(" ");
    let response = server::daemon::request_once(socket.as_ref(), &line)?;
    println!("{response}");
    let ok = json::parse(&response)
        .ok()
        .and_then(|v| v.get("ok")?.as_bool());
    if ok != Some(true) {
        return Err("daemon reported an error".into());
    }
    Ok(())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "extract" => cmd_extract(args),
        "convert" => cmd_convert(args),
        "info" => cmd_info(args),
        "lint" => cmd_lint(args),
        "validate" => cmd_validate(args),
        "simulate" => cmd_simulate(args),
        "eye" => cmd_eye(args),
        "mc" => cmd_mc(args),
        "store" => cmd_store(args),
        "serve" => cmd_serve(args),
        "request" => cmd_request(args),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("mdl {cmd}: {e}");
        std::process::exit(1);
    }
}
