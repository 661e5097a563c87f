//! Regenerates Fig. 1: normalized power-sensor trace lagging the CPU
//! utilization by ~10 s, plus the I2C mechanistic account of the lag.
//!
//! Usage: `cargo run -p gfsc-bench --bin fig1 [--csv]`
//!
//! Any other argument prints the usage line to stderr and exits 2 before
//! the experiment runs.

use gfsc::experiments::fig1::{run, Fig1Config};

fn main() {
    let csv = gfsc_bench::artifact_args("fig1", Some("--csv"));
    let config = Fig1Config::default();
    let fig = run(&config);
    if csv {
        fig.traces.write_csv(std::io::stdout()).expect("stdout");
        return;
    }
    println!("Fig. 1 reproduction — telemetry lag under workload changes\n");
    println!("paper: ~10 s lag between CPU activity and sensor readings (I2C path)");
    println!("ours : measured lag = {} (cross-correlation)", fig.measured_lag);
    println!(
        "mechanism: 64 sensors x {:.1} ms slots -> {:.2} s scan round",
        gfsc_sensors::TelemetryScanner::date14().slot_time().value() * 1e3,
        fig.scan_round_time.value()
    );
    println!("\ntime_s  u_cpu  p_true  p_sensor (normalized, every 20 s around the first step)");
    let u = fig.traces.require("cpu_utilization").unwrap();
    let pt = fig.traces.require("power_true_norm").unwrap();
    let ps = fig.traces.require("power_sensor_norm").unwrap();
    for k in (80..=320).step_by(20) {
        println!(
            "{:>6}  {:>5.2}  {:>6.2}  {:>8.2}",
            u.times()[k],
            u.values()[k],
            pt.values()[k],
            ps.values()[k]
        );
    }
    println!("\n(run with --csv for the full series)");
}
