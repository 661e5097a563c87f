//! Regenerates Table III: deadline violations and normalized fan energy
//! for the five coordination solutions.
//!
//! Usage: `table3 [HORIZON_S] [SEED ...]` — more than one seed reports
//! mean ± 95 % CI over the seed axis. A horizon that is not a positive
//! number of seconds, or a seed that is not an integer, prints the usage
//! line to stderr and exits 2.

use gfsc::experiments::table3::{run, Table3Config};
use gfsc_units::Seconds;

fn usage() -> ! {
    eprintln!("usage: table3 [HORIZON_S] [SEED ...]");
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let horizon = args.next().map_or(7200.0, |s| {
        s.parse::<f64>().ok().filter(|h| h.is_finite() && *h > 0.0).unwrap_or_else(|| usage())
    });
    let seeds: Vec<u64> = args.map(|s| s.parse().unwrap_or_else(|_| usage())).collect();
    let seeds = if seeds.is_empty() { vec![42] } else { seeds };
    let config = Table3Config { horizon: Seconds::new(horizon), seeds };
    let table = run(&config);
    println!("Table III reproduction (horizon {horizon} s, seeds {:?})\n", config.seeds);
    println!("{}", table.to_markdown());
}
