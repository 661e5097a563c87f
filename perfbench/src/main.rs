//! The repository benchmark: end-to-end and per-layer cost of the rack
//! control epoch, the deployed IPMI daemon cycle, and scenario sweeps.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rack-ecoord|rack-pid|daemon-ipmi|sweep> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing instrumented;
//! `--trace 1` runs the traced passes and reports the per-layer metrics
//! (see `README.md` for every definition). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

#![forbid(unsafe_code)]

mod common;
mod daemon;
mod rack;
mod sweep;
mod trace;

use common::{Checks, EndToEnd, Layer};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["rack-ecoord", "rack-pid", "daemon-ipmi", "sweep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Every per-layer metric with its unit, in report order.
fn per_layer_units() -> Vec<(String, &'static str)> {
    let mut units: Vec<(String, &'static str)> = [
        ("coord.epoch_fan.us", "us"),
        ("coord.epoch_fan.calls", "count"),
        ("coord.epoch_cpu.us", "us"),
        ("coord.epoch_cpu.calls", "count"),
        ("coord.descent.sweeps_per_decision", "count"),
        ("coord.min_safe.us", "us"),
        ("coord.min_safe.calls", "count"),
        ("thermal.min_safe_zone_fan.us", "us"),
        ("thermal.probe.us", "us"),
        ("rack.step.ns", "ns"),
        ("rack.step.calls", "count"),
        ("rack.step.share", "frac"),
        ("workload.sample.ns", "ns"),
        ("daemon.spawn.ms", "ms"),
        ("daemon.spawns_per_cycle", "1/cycle"),
        ("daemon.parse.us", "us"),
        ("daemon.write_fan.ms", "ms"),
        ("daemon.writes_per_cycle", "1/cycle"),
        ("daemon.decide.us", "us"),
        ("sweep.batched.s", "s"),
        ("sweep.batched.cells", "count"),
        ("sweep.scalar.s", "s"),
        ("sweep.scalar.cells", "count"),
        ("sweep.batch_speedup", "x"),
        ("sweep.gain_tuning.s", "s"),
        ("quality.fan_energy_kj", "kJ"),
        ("quality.violation_pct", "%"),
        ("trace.unattributed_frac", "frac"),
        ("trace.overhead_frac", "frac"),
    ]
    .into_iter()
    .map(|(name, unit)| (name.to_owned(), unit))
    .collect();
    for mode in rack::ECOORD.iter().chain(&rack::PID) {
        units.push((format!("{}.sim_s_per_wall_s", mode.metric_prefix()), "s/s"));
    }
    units
}

/// The scratch directory of this run, inside the build directory the
/// binary lives in (`<target>/perfbench-work`), so the benchmark writes
/// nothing outside its checkout.
fn work_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let target = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or_else(|| format!("unexpected binary location {}", exe.display()))?;
    Ok(target.join("perfbench-work"))
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// Reported metrics: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

/// Share of a traced run's window spent on its own workload; the rest is
/// split evenly over the other workloads, so every layer is measured.
const OWN_TRACE_SHARE: f64 = 0.55;

/// One workload's traced passes: the per-layer metrics of every layer it
/// exercises.
fn traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    root: &Path,
) -> Result<(Vec<Layer>, Checks), String> {
    let spans_path = root.join(format!("spans-{workload}-seed{seed}.tsv"));
    let result = match workload {
        "rack-ecoord" => rack::measure_traced(&rack::ECOORD, seed, seconds, true, &spans_path),
        "rack-pid" => rack::measure_traced(&rack::PID, seed, seconds, false, &spans_path),
        "daemon-ipmi" => daemon::measure_traced(root, seed, seconds, &spans_path)?,
        _ => sweep::measure_traced(seed, seconds, &spans_path),
    };
    println!("spans of the last traced {workload} round: {}", spans_path.display());
    Ok(result)
}

fn run(args: &Args) -> Result<(Metrics, Checks), String> {
    let root = work_root()?;
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    if !args.trace {
        let (e2e, checks): (EndToEnd, Checks) = match args.workload.as_str() {
            "rack-ecoord" => rack::measure(&rack::ECOORD, args.seed, args.seconds),
            "rack-pid" => rack::measure(&rack::PID, args.seed, args.seconds),
            "daemon-ipmi" => daemon::measure(&root, args.seed, args.seconds)?,
            _ => sweep::measure(args.seed, args.seconds),
        };
        let rss = common::peak_rss_mb().ok_or("reading VmHWM from /proc/self/status")?;
        let metrics = [
            ("sim_s_per_wall_s", e2e.sim_s_per_wall_s, "s/s"),
            ("cells_per_s", e2e.cells_per_s, "1/s"),
            ("cycle_p50_ms", e2e.cycle_p50_ms, "ms"),
            ("cycle_p99_ms", e2e.cycle_p99_ms, "ms"),
            ("setup_s", e2e.setup_s, "s"),
            ("peak_rss_mb", rss, "MB"),
        ];
        let metrics = metrics.map(|(name, value, unit)| (name.to_owned(), value, unit)).to_vec();
        return Ok((metrics, checks));
    }
    // The named workload's layers, its quality and its tracing overhead
    // come from its own passes; every layer it does not exercise is
    // measured on the workload that does.
    let own_seconds = OWN_TRACE_SHARE * args.seconds;
    let (mut layers, mut checks) = traced(&args.workload, args.seed, own_seconds, &root)?;
    let other_seconds = (1.0 - OWN_TRACE_SHARE) * args.seconds / (WORKLOADS.len() - 1) as f64;
    for other in WORKLOADS.iter().filter(|&&w| w != args.workload) {
        let (more, more_checks) = traced(other, args.seed, other_seconds, &root)?;
        checks.attempted += more_checks.attempted;
        checks.failed += more_checks.failed;
        for layer in more {
            let own_only = layer.name.starts_with("quality.") || layer.name.starts_with("trace.");
            if !own_only && layers.iter().all(|l| l.name != layer.name) {
                layers.push(layer);
            }
        }
    }
    let units = per_layer_units();
    for layer in &layers {
        checks.check(units.iter().any(|(name, _)| *name == layer.name), || {
            format!("unregistered per-layer metric {}", layer.name)
        });
    }
    for (name, _) in &units {
        checks.check(layers.iter().any(|l| l.name == *name), || {
            format!("no traced pass measured {name}")
        });
    }
    let metrics = units
        .into_iter()
        .map(|(name, unit)| {
            let value = layers.iter().find(|l| l.name == name).map_or(0.0, |l| l.value);
            (name, value, unit)
        })
        .collect();
    Ok((metrics, checks))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Sweeps use every available core; a pinned worker count from the
    // environment would change what the sweep workload measures.
    std::env::remove_var("GFSC_SWEEP_THREADS");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} on {cores} core(s)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (metrics, checks) = match run(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut checks = checks;
    for (name, value, unit) in &metrics {
        println!("  {name:<48} {value:>16.6} {unit}");
        checks.check(value.is_finite(), || format!("{name} is not finite"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
