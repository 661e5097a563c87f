//! Benchmark harness for the `gfsc` reproduction.
//!
//! `src/bin/` holds one binary per paper artifact (`fig1` … `fig5`,
//! `table1` … `table3`, `ablations`) that prints the reproduced
//! rows/series next to the paper's published values, plus `perf_report`
//! (see below).
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
//! # Running the perf snapshot
//!
//! ```text
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
