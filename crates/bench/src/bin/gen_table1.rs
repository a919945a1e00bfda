//! Regenerates Table 1: CPU time of the coupled-structure simulation,
//! transistor-level vs PW-RBF (paper rule-of-thumb: > 20x speedup; the
//! exact ratio depends on how much finer the transistor-level timestep
//! must be than the macromodel sample clock).
//!
//! Each time is its own run's wall time. The two runs are independent and
//! overlap when two CPUs are free (the PW-RBF run on a second thread), so
//! the program's wall time is about the transistor-level time alone.

use emc_bench::{driver_model, fig4, Fig4Config};

fn main() -> emc_bench::Result<()> {
    // Estimate once, outside the timed region (estimation cost is reported
    // separately by gen_sec5_accuracy / the `estimation` bench).
    let t0 = std::time::Instant::now();
    let model = driver_model(&refdev::md3())?;
    let t_est = t0.elapsed().as_secs_f64();
    let data = fig4(&Fig4Config::default(), Some(model))?;
    println!("Table 1 — CPU time, coupled structure of Fig. 3");
    println!("  model estimation (one-off) : {:>8.2} s", t_est);
    println!(
        "  transistor level           : {:>8.2} s",
        data.cpu_reference
    );
    println!("  PW-RBF                     : {:>8.2} s", data.cpu_pwrbf);
    println!(
        "  speedup                    : {:>8.1} x (paper: >20x rule of thumb)",
        data.cpu_reference / data.cpu_pwrbf
    );
    Ok(())
}
