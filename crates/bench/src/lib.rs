//! Benchmark harness for the `gfsc` reproduction.
//!
//! - `src/bin/`: one binary per paper artifact (`fig1` … `fig5`,
//!   `table1` … `table3`, `ablations`) that prints the reproduced
//!   rows/series next to the paper's published values, plus `perf_report`
//!   (see below).
//! - `benches/`: Criterion benchmarks timing the regeneration of each
//!   artifact (at reduced horizons) plus microbenchmarks of the simulation
//!   substrates, including `hot_paths` — the regression guards for the
//!   cached-factorization `RcNetwork::step` and handle-based
//!   `TraceSet` recording.
//!
//! # Running the sweep engine
//!
//! `table3` runs through the batch scenario-sweep engine
//! ([`gfsc::sweep::ScenarioGrid`] over `gfsc_sim::sweep::parallel_map`);
//! the four `ablations` sweeps and Ziegler–Nichols gain tuning call
//! `gfsc_sim::sweep::parallel_map` directly. Both fan independent runs out
//! across every core while keeping results bit-identical to a serial
//! walk:
//!
//! ```text
//! cargo run --release -p gfsc-bench --bin table3          # 5 solutions, parallel
//! cargo run --release -p gfsc-bench --bin ablations all   # 4 sweeps, parallel
//! GFSC_SWEEP_THREADS=1 cargo run --release -p gfsc-bench --bin table3
//!                                                         # serial reference
//! ```
//!
//! `GFSC_SWEEP_THREADS` caps the worker count (1 forces the serial path);
//! the default is `std::thread::available_parallelism()`.
//!
//! # Running the benches and the perf snapshot
//!
//! ```text
//! cargo bench -p gfsc-bench --bench hot_paths      # hot-path guards
//! cargo bench -p gfsc-bench                        # everything
//! GFSC_BENCH_FAST=1 cargo bench -p gfsc-bench      # smoke mode (CI)
//! cargo run --release -p gfsc-bench --bin perf_report [--out BENCH_custom.json]
//! ```
//!
//! `perf_report` times the thermal step (cached vs uncached), 8-channel
//! trace recording (by name vs by handle), the closed-loop epoch rate, the
//! batched 64-cell sweep at several worker counts (asserting bit-identity
//! against the serial path at each), a reduced ablation sweep, and
//! two-region gain tuning, then writes a `BENCH_<date>.json` snapshot next
//! to the existing ones so the perf trajectory stays in-repo.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gfsc_thermal::{RcNetwork, RcNetworkBuilder};
use gfsc_units::{Celsius, JoulesPerKelvin, KelvinPerWatt, Watts};

/// The eight channels `ClosedLoopSim` records per CPU epoch, in recording
/// order — shared by the `hot_paths` bench and `perf_report` so both
/// measure the same workload.
pub const EPOCH_CHANNELS: [&str; 8] = [
    "u_demand",
    "u_cap",
    "u_executed",
    "t_measured_c",
    "t_junction_c",
    "fan_rpm",
    "fan_target_rpm",
    "t_ref_c",
];

/// A chain of `n` capacitive nodes ending at an ambient boundary, with the
/// last link playing the fan-dependent sink→ambient role and 120 W
/// injected at the hot end — the shared benchmark topology for
/// `RcNetwork::step` measurements (one definition, so the criterion guard
/// and the `BENCH_*.json` snapshot stay comparable).
///
/// # Panics
///
/// Panics if `n` is zero.
#[must_use]
pub fn chain_network(n: usize) -> RcNetwork {
    let mut builder = RcNetworkBuilder::new();
    for i in 0..n {
        builder = builder.node(
            format!("n{i}"),
            JoulesPerKelvin::new(1.0 + 40.0 * i as f64),
            Celsius::new(30.0),
        );
    }
    builder = builder.boundary("ambient", Celsius::new(30.0));
    for i in 0..n {
        let to = if i + 1 == n { "ambient".to_owned() } else { format!("n{}", i + 1) };
        builder = builder.link(format!("n{i}"), to, KelvinPerWatt::new(0.1 + 0.02 * i as f64));
    }
    let mut net = builder.build().expect("valid chain");
    let hot = net.node_id("n0").expect("exists");
    net.set_power(hot, Watts::new(120.0));
    net
}

/// Reads a paper-artifact binary's command line before any experiment
/// runs: it may be empty or, when `flag` is given, hold that one flag.
/// Returns whether the flag was given. Anything else prints
/// `usage: <bin> [<flag>]` (or `usage: <bin>`) to stderr and exits 2.
pub fn artifact_args(bin: &str, flag: Option<&str>) -> bool {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match (args.as_slice(), flag) {
        ([], _) => false,
        ([arg], Some(flag)) if arg == flag => true,
        _ => {
            match flag {
                Some(flag) => eprintln!("usage: {bin} [{flag}]"),
                None => eprintln!("usage: {bin}"),
            }
            std::process::exit(2)
        }
    }
}
