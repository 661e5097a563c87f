//! Regenerates Fig. 5: fan-speed stability of the coordinated stack under
//! dynamic CPU load with Gaussian noise (sigma = 0.04).
//!
//! Usage: `cargo run -p gfsc-bench --bin fig5 [--csv]`
//!
//! Any other argument prints the usage line to stderr and exits 2 before
//! the experiment runs.

use gfsc::experiments::fig5::{run, Fig5Config};

fn main() {
    let csv = gfsc_bench::artifact_args("fig5", Some("--csv"));
    let config = Fig5Config::default();
    let fig = run(&config);

    if csv {
        fig.traces.write_csv(std::io::stdout()).expect("stdout");
        return;
    }

    println!("Fig. 5 reproduction — coordinated stack under noisy dynamic load\n");
    println!("paper: fan speed remains stable alongside the CPU load controller");
    println!(
        "ours : stable = {} (worst within-phase oscillation amplitude {:.0} rpm)",
        fig.stable, fig.worst_oscillation.amplitude
    );
    println!("       deadline violations over the run: {:.2} %", fig.violation_percent);
    println!("\ndemand / fan speed every 25 s over the paper's ~700 s window:");
    let u = fig.traces.require("u_demand").unwrap();
    let fan = fig.traces.require("fan_rpm").unwrap();
    for k in (0..=700).step_by(25) {
        println!(
            "t={:>4}  u={:>4.2}  fan={:>5.0} rpm",
            u.times()[k],
            u.values()[k],
            fan.values()[k]
        );
    }
    println!("\n(run with --csv for the full traces)");
}
