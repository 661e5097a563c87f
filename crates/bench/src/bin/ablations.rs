//! Runs the ablation sweeps (extensions beyond the paper's tables):
//! telemetry-lag sweep, ADC-step sweep, gain-region sweep, noise sweep.
//!
//! Usage: `cargo run --release -p gfsc-bench --bin ablations [lag|quant|regions|noise|all]`
//!
//! Any other subcommand, or a second argument, prints the usage line to
//! stderr and exits 2.

use gfsc::experiments::ablations;
use gfsc_units::Seconds;

fn main() {
    let mut args = std::env::args().skip(1);
    let which = args.next().unwrap_or_else(|| "all".to_owned());
    if args.next().is_some()
        || !["lag", "quant", "regions", "noise", "all"].contains(&which.as_str())
    {
        eprintln!("usage: ablations [lag|quant|regions|noise|all]");
        std::process::exit(2);
    }

    if which == "lag" || which == "all" {
        println!("== Telemetry-lag sweep (square workload, fan-only, re-tuned per lag)");
        let lags: Vec<Seconds> =
            [0.0, 5.0, 10.0, 20.0, 30.0].into_iter().map(Seconds::new).collect();
        for row in ablations::lag_sweep(&lags, Seconds::new(1600.0)) {
            println!(
                "lag {:>4}  adaptive: stable={:<5} amp={:>6.0} rms={:>5.2}   fixed@6000: stable={:<5} amp={:>6.0}",
                row.lag.value(),
                row.adaptive.stable,
                row.adaptive.oscillation_amplitude,
                row.adaptive.temperature_rms_error,
                row.fixed_high.stable,
                row.fixed_high.oscillation_amplitude,
            );
        }
        println!();
    }

    if which == "quant" || which == "all" {
        println!("== ADC-step sweep (steady 0.7 load, Eq. 10 hold on vs off)");
        for row in ablations::quantization_sweep(&[0.25, 0.5, 1.0, 2.0, 4.0], Seconds::new(900.0)) {
            println!(
                "step {:>4.2} K  command changes: {:>4} (hold) vs {:>4} (no hold)   temp rms: {:>5.2} vs {:>5.2} K",
                row.step,
                row.command_changes_with_hold,
                row.command_changes_without_hold,
                row.rms_with_hold,
                row.rms_without_hold,
            );
        }
        println!();
    }

    if which == "regions" || which == "all" {
        println!("== Gain-region sweep (square workload, fan-only)");
        let sets: Vec<Vec<f64>> = vec![
            vec![2000.0],
            vec![6000.0],
            vec![2000.0, 6000.0],
            vec![2000.0, 3500.0, 5000.0, 7000.0],
        ];
        for row in ablations::region_sweep(&sets, Seconds::new(1600.0)) {
            println!(
                "regions {:?}: stable={:<5} amp={:>6.0} rpm  temp rms {:>5.2} K",
                row.regions,
                row.probe.stable,
                row.probe.oscillation_amplitude,
                row.probe.temperature_rms_error,
            );
        }
        println!();
    }

    if which == "noise" || which == "all" {
        println!("== Workload-noise sweep (full proposal)");
        for row in ablations::noise_sweep(&[0.0, 0.02, 0.04, 0.08, 0.16], Seconds::new(1600.0), 11)
        {
            println!(
                "sigma {:>4.2}: violations {:>5.2} %  worst fan oscillation {:>6.0} rpm",
                row.sigma, row.violation_percent, row.fan_oscillation_amplitude,
            );
        }
    }
}
