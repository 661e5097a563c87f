//! Regenerates Fig. 3: fan-speed and temperature traces for the adaptive
//! PID vs the fixed parameter sets tuned at 2000 and 6000 rpm.
//!
//! Usage: `cargo run -p gfsc-bench --bin fig3 [--csv]`
//!
//! Any other argument prints the usage line to stderr and exits 2 before
//! the experiment runs.

use gfsc::experiments::fig3::{run, Fig3Config};

fn main() {
    let csv = gfsc_bench::artifact_args("fig3", Some("--csv"));
    let config = Fig3Config::default();
    let fig = run(&config);
    let schemes = [&fig.adaptive, &fig.fixed_low, &fig.fixed_high];

    if csv {
        // Wide CSV: one fan/temperature column pair per scheme.
        println!(
            "time_s,fan_adaptive,t_adaptive,fan_fixed2000,t_fixed2000,fan_fixed6000,t_fixed6000"
        );
        let len = schemes[0].traces.require("fan_rpm").unwrap().len();
        for k in 0..len {
            let t = schemes[0].traces.require("fan_rpm").unwrap().times()[k];
            print!("{t}");
            for s in schemes {
                let fan = s.traces.require("fan_rpm").unwrap().values()[k];
                let tj = s.traces.require("t_junction_c").unwrap().values()[k];
                print!(",{fan},{tj}");
            }
            println!();
        }
        return;
    }

    println!("Fig. 3 reproduction — adaptive vs fixed-gain PID fan control\n");
    println!(
        "paper: params@2000 rpm stable but slow (~210 s); params@6000 rpm unstable at low\n\
         speeds; adaptive PID stable with drastically improved convergence\n"
    );
    for s in schemes {
        let conv = match s.convergence_time {
            Some(t) => format!("{:.0} s", t.value()),
            None => "did not settle within the phase".to_owned(),
        };
        println!("{:<26} stable: {:<5} convergence after load step: {conv}", s.name, s.stable);
        println!(
            "{:<26} worst within-phase fan oscillation: amplitude {:.0} rpm, {} reversals",
            "", s.fan_oscillation.amplitude, s.fan_oscillation.reversals
        );
    }
    println!("\n(run with --csv for the full traces)");
}
