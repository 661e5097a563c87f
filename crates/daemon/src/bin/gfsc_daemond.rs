//! `gfsc-daemond` — the deployable wall-clock runtime around the
//! `gfsc-daemon` control loop.
//!
//! One binary, three modes, all driven by a TOML-subset config file
//! (see the README's "Running as a daemon" section):
//!
//! - **run** (default): pace the configured backend on the monotonic
//!   clock (or `--mock-clock` for a deterministic dry run), print a
//!   summary, optionally spill `.metrics`/`.events`/`.timeline`
//!   artifacts;
//! - **`--check-parity`**: run the unpaced library loop and the paced
//!   loop under a mock clock and require bit-identical traces — the
//!   deployment-shaped proof that pacing never touches the control
//!   path;
//! - **`--drill overruns`**: inject a scripted overrun burst through
//!   the mock clock and assert the deadline-miss/overrun accounting
//!   and the overrun-streak fallback round trip. CI runs this.
//!
//! Exit code 0 on success, 1 with a one-line `gfsc-daemond: <why>` on
//! stderr otherwise. The binary never panics on bad input — config
//! and CLI errors are diagnostics, not backtraces.

use gfsc_daemon::{
    BackendKind, Daemon, DaemonRunOutcome, DaemondSpec, FallbackReason, FanActuator, MockClock,
    MonotonicClock, TelemetrySource,
};
use gfsc_obs::{explain, EventKind};
use gfsc_sim::TraceSet;
use gfsc_units::Seconds;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
gfsc-daemond — wall-clock runtime for the gfsc rack controllers

USAGE:
    gfsc-daemond --config <file> [--mock-clock] [--artifacts <dir>]
    gfsc-daemond --config <file> --check-parity [--artifacts <dir>]
    gfsc-daemond --config <file> --drill overruns [--artifacts <dir>]

FLAGS:
    --config <file>     TOML-subset config (README: \"Running as a daemon\")
    --mock-clock        pace on the deterministic test clock (instant sleeps)
    --check-parity      paced loop must be bit-identical to the library loop
    --drill overruns    inject a 10-cycle overrun burst, assert the accounting
    --artifacts <dir>   write <mode>.metrics/.events/.timeline into <dir>
    --help              this text";

/// The overrun drill's scripted burst: cycles `[START, END)` each cost
/// 1.5 wall periods of work.
const DRILL_START: u64 = 120;
const DRILL_END: u64 = 130;

#[derive(Debug, Default)]
struct Cli {
    help: bool,
    config: Option<PathBuf>,
    mock_clock: bool,
    check_parity: bool,
    drill_overruns: bool,
    artifacts: Option<PathBuf>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("gfsc-daemond: {why}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let cli = parse_args(args)?;
    if cli.help {
        return Ok(USAGE.to_string());
    }
    let config = cli.config.as_deref().ok_or("a --config file is required (see --help)")?;
    let spec = DaemondSpec::load(config)?;
    if cli.check_parity && cli.drill_overruns {
        return Err("--check-parity and --drill are mutually exclusive".into());
    }
    if cli.check_parity {
        check_parity(&spec, cli.artifacts.as_deref())
    } else if cli.drill_overruns {
        drill_overruns(&spec, cli.artifacts.as_deref())
    } else {
        run_once(&spec, cli.mock_clock, cli.artifacts.as_deref())
    }
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => cli.help = true,
            "--config" => {
                cli.config = Some(PathBuf::from(it.next().ok_or("--config needs a path")?));
            }
            "--mock-clock" => cli.mock_clock = true,
            "--check-parity" => cli.check_parity = true,
            "--drill" => {
                let name = it.next().ok_or("--drill needs a drill name")?;
                if name != "overruns" {
                    return Err(format!("unknown drill `{name}` (only `overruns` exists)"));
                }
                cli.drill_overruns = true;
            }
            "--artifacts" => {
                cli.artifacts = Some(PathBuf::from(it.next().ok_or("--artifacts needs a dir")?));
            }
            other => return Err(format!("unknown flag `{other}` (see --help)")),
        }
    }
    Ok(cli)
}

/// One compared channel: its name plus sample times and values as bit
/// patterns.
type ChannelBits = (String, Vec<u64>, Vec<u64>);

/// The compared trace channels, flattened to bit patterns — the same
/// set the parity test suite pins (`u_demand`, per-zone rpm and
/// measured temperature, per-socket cap).
fn channel_bits(
    traces: &TraceSet,
    zones: usize,
    sockets: usize,
) -> Result<Vec<ChannelBits>, String> {
    let mut channels = vec!["u_demand".to_owned()];
    for z in 0..zones {
        channels.push(format!("z{z}_fan_rpm"));
        channels.push(format!("z{z}_t_meas_c"));
    }
    for i in 0..sockets {
        channels.push(format!("s{i}_cap"));
    }
    channels
        .into_iter()
        .map(|name| {
            let trace = traces.require(&name).map_err(|e| e.to_string())?;
            let times = trace.times().iter().map(|v| v.to_bits()).collect();
            let values = trace.values().iter().map(|v| v.to_bits()).collect();
            Ok((name, times, values))
        })
        .collect()
}

fn check_parity(spec: &DaemondSpec, artifacts: Option<&Path>) -> Result<String, String> {
    let rack = spec.rack_spec()?;
    let zones = rack.rack.zones().len();
    let sockets = rack.rack.total_sockets();
    let mut library = spec.build_sim_daemon()?;
    let reference = library.run(spec.horizon);
    let mut deployed = spec.build_sim_daemon()?;
    let mut clock = MockClock::new();
    let paced = deployed.run_paced(spec.horizon, &mut clock, spec.pacing);
    if paced.metrics.deadline_misses != 0 || paced.metrics.cycle_overruns != 0 {
        return Err(format!(
            "paced run under an idle mock clock reported pacing trouble: \
             {} misses, {} overruns",
            paced.metrics.deadline_misses, paced.metrics.cycle_overruns
        ));
    }
    let lhs = channel_bits(&reference.traces, zones, sockets)?;
    let rhs = channel_bits(&paced.traces, zones, sockets)?;
    for ((name, lib_t, lib_v), (_, paced_t, paced_v)) in lhs.iter().zip(rhs.iter()) {
        if lib_t != paced_t || lib_v != paced_v {
            return Err(format!("parity broken: channel `{name}` diverges from the library loop"));
        }
    }
    if let Some(dir) = artifacts {
        write_artifacts(dir, "parity", &paced)?;
    }
    Ok(format!(
        "parity ok: {} channels bit-identical to the library loop over {} sim s",
        lhs.len(),
        spec.horizon.value()
    ))
}

fn drill_overruns(spec: &DaemondSpec, artifacts: Option<&Path>) -> Result<String, String> {
    let rack = spec.rack_spec()?;
    let interval = rack.server.cpu_control_interval;
    let needed = (DRILL_END as f64 + 30.0) * interval.value() + spec.recovery_window.value();
    if spec.horizon.value() < needed {
        return Err(format!(
            "the overrun drill needs horizon_s >= {needed} to cover the burst and the recovery \
             window (config says {})",
            spec.horizon.value()
        ));
    }
    let period_wall = interval.value() * spec.pacing.time_scale;
    let mut daemon = spec.build_sim_daemon()?;
    let mut clock = MockClock::new();
    clock.inject_overrun(DRILL_START..DRILL_END, Seconds::new(1.5 * period_wall));
    let outcome = daemon.run_paced(spec.horizon, &mut clock, spec.pacing);
    let m = &outcome.metrics;
    let injected = DRILL_END - DRILL_START;
    if m.cycle_overruns != injected {
        return Err(format!("expected {injected} overruns, counted {}", m.cycle_overruns));
    }
    if m.deadline_misses < injected {
        return Err(format!(
            "expected at least {injected} deadline misses from the burst, counted {}",
            m.deadline_misses
        ));
    }
    // The round trip is read off the flight recorder: its stamps are
    // CPU epochs, fallback cycles included.
    let flight = outcome.flight.as_ref().filter(|f| f.dropped == 0).ok_or(
        "the overrun drill reads the fallback round trip off the flight recorder: \
         set [daemon] recorder_capacity large enough to hold the whole run",
    )?;
    let mut events = flight.events.iter();
    let streak = FallbackReason::OverrunStreak.code();
    let entry = events
        .find(|e| e.kind == EventKind::FallbackEntered && e.value == streak)
        .ok_or("the overrun streak never tripped firmware fallback")?;
    let exit = events
        .find(|e| e.kind == EventKind::FallbackExited)
        .ok_or("the loop never recovered from the overrun fallback")?;
    if m.in_fallback {
        return Err("the daemon is still in fallback at the horizon".into());
    }
    if let Some(dir) = artifacts {
        write_artifacts(dir, "drill-overruns", &outcome)?;
    }
    Ok(format!(
        "overrun drill ok: {injected} overruns, {} misses (worst lateness {:.2} wall s), \
         fallback held [{:.1}, {:.1}] sim s",
        m.deadline_misses,
        m.worst_lateness_s,
        f64::from(entry.epoch) * interval.value(),
        f64::from(exit.epoch) * interval.value()
    ))
}

fn run_once(
    spec: &DaemondSpec,
    mock_clock: bool,
    artifacts: Option<&Path>,
) -> Result<String, String> {
    let outcome = match spec.backend {
        BackendKind::Sim => {
            let mut daemon = spec.build_sim_daemon()?;
            run_with_clock(&mut daemon, spec, mock_clock)
        }
        BackendKind::Ipmi => {
            let mut daemon = spec.build_ipmi_daemon()?;
            run_with_clock(&mut daemon, spec, mock_clock)
        }
    };
    if let Some(dir) = artifacts {
        write_artifacts(dir, "daemond", &outcome)?;
    }
    let m = &outcome.metrics;
    Ok(format!(
        "run complete: {} cycles over {} sim s; {} misses, {} overruns, {} fallback entries \
         ({} exits); {}/{} violated socket-epochs",
        m.loop_cycles,
        spec.horizon.value(),
        m.deadline_misses,
        m.cycle_overruns,
        m.fallback_entries,
        m.fallback_exits,
        outcome.total_violations,
        outcome.total_epochs
    ))
}

fn run_with_clock<B: TelemetrySource + FanActuator>(
    daemon: &mut Daemon<B>,
    spec: &DaemondSpec,
    mock_clock: bool,
) -> DaemonRunOutcome {
    if mock_clock {
        let mut clock = MockClock::new();
        daemon.run_paced(spec.horizon, &mut clock, spec.pacing)
    } else {
        let mut clock = MonotonicClock::new();
        daemon.run_paced(spec.horizon, &mut clock, spec.pacing)
    }
}

fn write_artifacts(dir: &Path, stem: &str, outcome: &DaemonRunOutcome) -> Result<(), String> {
    let fail = |path: &Path, e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(dir).map_err(|e| fail(dir, e))?;
    let metrics = dir.join(format!("{stem}.metrics"));
    std::fs::write(&metrics, outcome.metrics.render()).map_err(|e| fail(&metrics, e))?;
    if let Some(flight) = &outcome.flight {
        let events = dir.join(format!("{stem}.events"));
        std::fs::write(&events, flight.to_text()).map_err(|e| fail(&events, e))?;
        let timeline = dir.join(format!("{stem}.timeline"));
        std::fs::write(&timeline, explain::render_timeline(flight))
            .map_err(|e| fail(&timeline, e))?;
    }
    Ok(())
}
