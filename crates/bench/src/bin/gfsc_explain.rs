//! `gfsc-explain`: render the causal decision timeline behind a run.
//!
//! Three input shapes, one output — the per-epoch story of what the
//! controllers did and why ("epoch 412: s7 measured 79.3 °C, capper
//! proposed cap 0.620 for s7, coordinator granted cap 0.700 to s7"):
//!
//! - a `.events` file (a [`FlightSnapshot`] serialized with `to_text`,
//!   e.g. the `target/daemon-hil/<scenario>.events` CI artifacts),
//! - a spilled trace directory (a sweep cell written by
//!   `TraceSet::spill_to` — decisions are *reconstructed* from channel
//!   deltas, see `gfsc::experiments::explain::events_from_traces`),
//! - `--demo`, which flies the default recorded run (global energy
//!   descent on the 1U×8 rack under the paper's spiking workload) and
//!   explains it.
//!
//! Usage: `cargo run --release -p gfsc-bench --bin gfsc_explain --
//! (<run.events> | <spill-dir> | --demo) [--out PATH]`
//!
//! A malformed command line (an unknown flag, a second input, `--out`
//! without a path, no input at all) prints the usage line to stderr and
//! exits 2; an input it cannot read, or an output it cannot write, exits
//! 1.

use gfsc::experiments::explain::{events_from_traces, run, ExplainConfig};
use gfsc_obs::explain::render_timeline;
use gfsc_obs::FlightSnapshot;
use gfsc_sim::SpilledTraces;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: gfsc_explain (<run.events> | <spill-dir> | --demo) [--out PATH]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut input: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut demo = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--demo" => demo = true,
            "--out" => match args.next() {
                Some(path) => out_path = Some(path),
                None => return usage(),
            },
            other if input.is_none() && !other.starts_with("--") => {
                input = Some(other.to_owned());
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    let timeline = match (demo, input) {
        (true, _) => {
            let config = ExplainConfig::default();
            let report = run(&config);
            format!(
                "demo run: {} on {}, {:.2} % violated socket-epochs\n{}",
                config.control.label(),
                config.rack.label(),
                report.violation_percent,
                report.timeline
            )
        }
        (false, Some(path)) => match explain_path(Path::new(&path)) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("gfsc-explain: {path}: {err}");
                return ExitCode::FAILURE;
            }
        },
        (false, None) => return usage(),
    };
    match out_path {
        Some(path) => {
            if let Err(err) = std::fs::write(&path, &timeline) {
                eprintln!("gfsc-explain: write {path}: {err}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{timeline}"),
    }
    ExitCode::SUCCESS
}

/// Explains one input path: a spilled trace directory or a `.events`
/// file.
fn explain_path(path: &Path) -> Result<String, String> {
    let snapshot = if path.is_dir() {
        let traces = SpilledTraces::open(path)
            .and_then(|spilled| spilled.load_all())
            .map_err(|e| format!("not a spilled trace dir: {e:?}"))?;
        events_from_traces(&traces)
    } else {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        FlightSnapshot::from_text(&text)?
    };
    Ok(render_timeline(&snapshot))
}
