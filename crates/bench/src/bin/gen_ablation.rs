//! Ablation study of the PW-RBF design choices called out in DESIGN.md:
//! dynamic order `r`, Gaussian center budget, and the transition-window
//! length used for the switching weights. Each variant is scored on the
//! Fig.-1 fixture (timing error + rms voltage error vs the transistor
//! reference).

use emc_bench::Result;
use macromodel::pipeline::DriverEstimationConfig;
use macromodel::{ExtractionSession, PortStimulus, TestFixture};
use sysid::narx::RbfTrainConfig;

fn main() -> Result<()> {
    let spec = refdev::md1();
    println!("PW-RBF ablation on the Fig. 1 fixture (MD1, 50 Ω / 0.8 ns line + 10 pF)");
    println!(
        "{:<34} {:>9} {:>9} {:>10}",
        "variant", "rms [mV]", "max [mV]", "timing"
    );

    // A badly configured variant may produce a model that makes the Newton
    // iteration diverge — that is itself an ablation result, so report it
    // instead of aborting the sweep.
    let fixture = TestFixture::line_cap(50.0, 0.8e-9, 10e-12);
    let stim = PortStimulus::new("01", 4e-9);
    let run = |label: &str, cfg: DriverEstimationConfig| -> Result<()> {
        let outcome = ExtractionSession::for_driver(spec.clone())
            .config(cfg)
            .run()
            .and_then(|est| est.validate_against_reference(&fixture, Some(&stim), 12e-9, None));
        match outcome {
            Ok(v) => println!(
                "{:<34} {:>9.1} {:>9.1} {:>10}",
                label,
                v.metrics.rms_error * 1e3,
                v.metrics.max_error * 1e3,
                match v.metrics.timing_error {
                    Some(t) => format!("{:.1} ps", t * 1e12),
                    None => "n/a".into(),
                }
            ),
            Err(e) => println!("{label:<34} simulation diverged ({e})"),
        }
        Ok(())
    };

    let base = DriverEstimationConfig::default();

    // Dynamic order sweep (paper reports r = 2 for MD1).
    for r in [1usize, 2, 3] {
        run(
            &format!("order r = {r}"),
            DriverEstimationConfig { order: r, ..base },
        )?;
    }

    // Center budget sweep.
    for mc in [4usize, 8, 15, 25] {
        run(
            &format!("max centers = {mc}"),
            DriverEstimationConfig {
                rbf: RbfTrainConfig {
                    max_centers: mc,
                    ..base.rbf
                },
                ..base
            },
        )?;
    }

    // Transition-window length for the switching weights.
    for (label, t_window) in [
        ("window 2 ns", 2e-9),
        ("window 4 ns", 4e-9),
        ("window 6 ns", 6e-9),
    ] {
        run(label, DriverEstimationConfig { t_window, ..base })?;
    }

    // Identification-signal richness.
    for (label, n_levels) in [
        ("20 levels", 20usize),
        ("60 levels", 60),
        ("120 levels", 120),
    ] {
        run(
            &format!("excitation {label}"),
            DriverEstimationConfig { n_levels, ..base },
        )?;
    }
    Ok(())
}
