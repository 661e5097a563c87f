//! Regenerates Fig. 4: fan-speed oscillation of a deadzone controller
//! under a fixed workload, with the adaptive PID as a stable control.
//!
//! Usage: `cargo run -p gfsc-bench --bin fig4 [--csv]`
//!
//! Any other argument prints the usage line to stderr and exits 2 before
//! the experiment runs.

use gfsc::experiments::fig4::{run, Fig4Config};

fn main() {
    let csv = gfsc_bench::artifact_args("fig4", Some("--csv"));
    let config = Fig4Config::default();
    let fig = run(&config);

    if csv {
        fig.traces.write_csv(std::io::stdout()).expect("stdout");
        return;
    }

    println!("Fig. 4 reproduction — deadzone fan control under a stable workload\n");
    println!("paper: fan speed oscillates (~2000–5000 rpm band shown) due to lag + quantization\n");
    println!(
        "deadzone: oscillates = {} (amplitude {:.0} rpm, period {:.0} s, {} reversals)",
        fig.oscillates,
        fig.oscillation.amplitude,
        fig.oscillation.period.map_or(f64::NAN, |p| p.value()),
        fig.oscillation.reversals
    );
    println!(
        "adaptive: oscillates = {} (amplitude {:.0} rpm)",
        fig.adaptive_oscillates, fig.adaptive_oscillation.amplitude
    );
    println!("\nfan speed every 10 s over the paper's ~230 s window:");
    let fan = fig.traces.require("fan_rpm").unwrap();
    for k in (300..=530).step_by(10) {
        println!("t={:>4}  {:>5.0} rpm", fan.times()[k], fan.values()[k]);
    }
    println!("\n(run with --csv for the full traces)");
}
