//! Wall-clock pacing drills — the `daemon-paced` CI stage.
//!
//! Three contracts, all fully deterministic under [`MockClock`]:
//!
//! 1. **Pacing is transparent.** A config-file-built daemon run under
//!    `run_paced` with an idle mock clock replays the hand-built
//!    library `Daemon::run` bit for bit — pacing may only ever *wait*,
//!    never touch the control path.
//! 2. **Pacing trouble is accounted.** A scripted overrun burst is
//!    counted (misses, overruns, worst lateness), recorded on the
//!    flight event stream, and a persistent streak hands the rack to
//!    firmware exactly like sensor loss — including the recovery
//!    round-trip once cycles land on time again.
//! 3. **The horizon boundary is parity, not an off-by-one.** The daemon
//!    and `RackLoopSim::run` walk the same `gfsc_sim::plant_steps`
//!    instants and poll the same `gfsc_sim::Cadence`, advancing the plant
//!    after each instant's control cycle, so the backend ends one sim
//!    step past the last instant in both worlds — on and off the step
//!    grid. Pinned here so a well-meaning "fix" shows up as a red test,
//!    not a shifted golden trace.
//!
//! Artifacts land in `target/daemon-paced/` for CI upload.

use gfsc_coord::{RackControl, RackControlConfig, RackLoopSim};
use gfsc_daemon::{
    Daemon, DaemonConfig, DaemondSpec, FallbackReason, FaultPlan, MockClock, SimTelemetry,
};
use gfsc_obs::{explain, EventKind, Recorder};
use gfsc_rack::{RackSpec, RackTopology};
use gfsc_sim::TraceSet;
use gfsc_units::Seconds;
use gfsc_workload::{SquareWave, Workload};

const HORIZON: f64 = 600.0;

fn fixture_spec() -> DaemondSpec {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/daemond_sim.toml");
    DaemondSpec::load(std::path::Path::new(path)).expect("parity fixture parses")
}

/// The rack_golden evaluation workload — what `preset = "rack-golden"`
/// must expand to.
fn golden_workload() -> Workload {
    Workload::builder(SquareWave::date14())
        .gaussian_noise(0.04, 42)
        .spikes(1.0 / 240.0, Seconds::new(30.0), 0.8, 43)
        .build()
}

/// Every compared channel of one run, flattened to bit patterns.
fn bits_of(traces: &TraceSet, zones: usize, sockets: usize) -> Vec<(String, Vec<u64>, Vec<u64>)> {
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
            let trace = traces.require(&name).expect("channel present in both runs");
            let times = trace.times().iter().map(|v| v.to_bits()).collect();
            let values = trace.values().iter().map(|v| v.to_bits()).collect();
            (name, times, values)
        })
        .collect()
}

fn write_artifacts(stem: &str, outcome: &gfsc_daemon::DaemonRunOutcome) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/daemon-paced");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let _ = std::fs::write(format!("{dir}/{stem}.metrics"), outcome.metrics.render());
    if let Some(flight) = &outcome.flight {
        let _ = std::fs::write(format!("{dir}/{stem}.events"), flight.to_text());
        let _ = std::fs::write(format!("{dir}/{stem}.timeline"), explain::render_timeline(flight));
    }
}

#[test]
fn config_built_paced_run_replays_the_library_loop_bit_for_bit() {
    let spec = fixture_spec();
    assert_eq!(spec.horizon, Seconds::new(HORIZON), "fixture pins the golden horizon");

    // The reference: the hand-built library daemon, unpaced, exactly as
    // tests/parity.rs constructs it (recorder armed to match the
    // fixture — recording must not matter, and this proves it).
    let rack = RackSpec::new(RackTopology::rack_2u_x4());
    let mut cfg = DaemonConfig::new(RackControlConfig::new(RackControl::Coordinated {
        adaptive_reference: true,
    }));
    cfg.control.recorder = Recorder::armed(4096);
    let backend = SimTelemetry::new(
        rack.clone(),
        golden_workload(),
        cfg.start_utilization,
        cfg.start_fan,
        FaultPlan::none(),
    );
    let zones = backend.server().zone_count();
    let sockets = backend.server().socket_count();
    let mut library = Daemon::new(backend, rack, cfg);
    let reference = library.run(Seconds::new(HORIZON));

    // The deployment shape: config file → daemon → run_paced on a mock
    // wall clock with no scripted trouble.
    let mut deployed = spec.build_sim_daemon().expect("fixture builds");
    let mut clock = MockClock::new();
    let paced = deployed.run_paced(spec.horizon, &mut clock, spec.pacing);

    assert_eq!(paced.metrics.deadline_misses, 0, "an idle mock clock never misses");
    assert_eq!(paced.metrics.cycle_overruns, 0, "an idle mock clock never overruns");
    assert_eq!(paced.metrics.worst_lateness_s, 0.0);
    assert_eq!(paced.metrics.fallback_entries, 0);

    let want = bits_of(&reference.traces, zones, sockets);
    let got = bits_of(&paced.traces, zones, sockets);
    for ((name, want_t, want_v), (_, got_t, got_v)) in want.iter().zip(&got) {
        assert_eq!(want_t, got_t, "{name}: sample times diverge under pacing");
        assert_eq!(want_v, got_v, "{name}: sample values diverge under pacing");
    }
    assert_eq!(paced.total_violations, reference.total_violations);
    assert_eq!(paced.total_epochs, reference.total_epochs);
    write_artifacts("parity", &paced);
}

#[test]
fn overrun_burst_is_accounted_and_streak_fallback_round_trips() {
    let spec = fixture_spec();
    let mut daemon = spec.build_sim_daemon().expect("fixture builds");
    let mut clock = MockClock::new();
    // Cycles 120..130 each cost 1.5 wall periods: ten overruns, the
    // streak budget (5) trips at cycle 124, and the loop finishes the
    // burst 5 s behind the wall — misses persist until the grid catches
    // up at cycle 135, then the 10 s recovery window runs.
    clock.inject_overrun(120..130, Seconds::new(1.5));
    let outcome = daemon.run_paced(spec.horizon, &mut clock, spec.pacing);
    let m = &outcome.metrics;

    assert_eq!(m.cycle_overruns, 10, "one overrun per injected cycle");
    assert_eq!(m.deadline_misses, 14, "cycles 121..=134 start late");
    assert_eq!(m.worst_lateness_s, 5.0, "the burst ends 5 wall s behind");
    assert_eq!(m.overrun_streak, 0, "streak gauge cleared after the burst");
    assert_eq!(m.fallback_entries, 1);
    assert_eq!(m.fallback_exits, 1);
    assert!(!m.in_fallback, "recovered by the horizon");

    // The round trip on the flight event stream, with deterministic
    // windows: the streak budget trips on the 5th consecutive overrun
    // (cycle 124), and recovery = grid catch-up (cycle 135) + the 10 s
    // clean window. Stamps are CPU epochs, fallback cycles included.
    let flight = outcome.flight.as_ref().expect("recorder armed by the fixture");
    assert_eq!(flight.dropped, 0, "the ring holds the whole run");
    let interval = spec.rack_spec().expect("fixture topology").server.cpu_control_interval;
    let recorded = |kind: EventKind| -> Vec<(f64, f64)> {
        flight
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| (f64::from(e.epoch) * interval.value(), e.value))
            .collect()
    };
    let entries = recorded(EventKind::FallbackEntered);
    let exits = recorded(EventKind::FallbackExited);
    assert_eq!(entries.len(), 1, "one fallback entry: {entries:?}");
    assert_eq!(entries[0].1, FallbackReason::OverrunStreak.code());
    assert!(
        (123.0..=127.0).contains(&entries[0].0),
        "streak fallback due at ~124 s, got {} s",
        entries[0].0
    );
    assert_eq!(exits.len(), 1, "one fallback exit: {exits:?}");
    assert!((143.0..=148.0).contains(&exits[0].0), "recovery due at ~145 s, got {} s", exits[0].0);

    // Every miss and overrun is on the same stream.
    assert_eq!(recorded(EventKind::DeadlineMissed).len(), 14, "recorded deadline misses");
    assert_eq!(recorded(EventKind::CycleOverrun).len(), 10, "recorded overruns");

    // And the human-facing timeline narrates the whole chain.
    let timeline = explain::render_timeline(flight);
    assert!(
        timeline.contains("watchdog entered firmware fallback (overrun-streak)"),
        "timeline misses the streak fallback:\n{timeline}"
    );
    assert!(
        timeline.contains("past its wall deadline"),
        "timeline misses the lateness:\n{timeline}"
    );
    assert!(
        timeline.contains("overran its period"),
        "timeline misses the overrun narration:\n{timeline}"
    );
    write_artifacts("drill-overruns", &outcome);
}

#[test]
fn horizon_boundary_is_parity_with_the_batch_loop_not_an_off_by_one() {
    // Both loops step the plant at k · sim_dt for k = 0..=ceil(horizon /
    // sim_dt), advancing it once more after the final control cycle. On
    // the 0.5 s step grid the backend ends at horizon + sim_dt; a horizon
    // between steps runs the instants to the first step at or past it
    // (61 s for 60.7 s), so the backend ends at 61.5 s. Both worlds must
    // land on the same (bit-identical) end time and traces.
    let rack = RackSpec::new(RackTopology::rack_2u_x4());
    let zones = rack.rack.zones().len();
    let sockets = rack.rack.total_sockets();
    for (horizon, expected_end, expected_epochs) in [(60.0, 60.5, 61), (60.7, 61.5, 62)] {
        let horizon = Seconds::new(horizon);
        let mut batch = RackLoopSim::builder(rack.clone())
            .workload(golden_workload())
            .control(RackControl::Coordinated { adaptive_reference: true })
            .build();
        let batch_out = batch.run(horizon);
        let batch_end = batch.server().now();

        let cfg = DaemonConfig::new(RackControlConfig::new(RackControl::Coordinated {
            adaptive_reference: true,
        }));
        let backend = SimTelemetry::new(
            rack.clone(),
            golden_workload(),
            cfg.start_utilization,
            cfg.start_fan,
            FaultPlan::none(),
        );
        let mut daemon = Daemon::new(backend, rack.clone(), cfg);
        let daemon_out = daemon.run(horizon);
        let daemon_end = daemon.backend().now();

        assert_eq!(
            daemon_end.value().to_bits(),
            batch_end.value().to_bits(),
            "horizon {horizon:?}: daemon ends at {} s, batch loop at {} s",
            daemon_end.value(),
            batch_end.value()
        );
        assert!(
            (daemon_end.value() - expected_end).abs() < 1e-9,
            "horizon {horizon:?}: both loops end at {expected_end} s, got {} s",
            daemon_end.value()
        );
        let epochs = batch_out.traces.require("u_demand").expect("u_demand recorded").len();
        assert_eq!(epochs, expected_epochs, "horizon {horizon:?}: batch-loop epochs");
        assert_eq!(
            bits_of(&daemon_out.traces, zones, sockets),
            bits_of(&batch_out.traces, zones, sockets),
            "horizon {horizon:?}: daemon and batch-loop traces diverge"
        );
    }
}

#[test]
fn paced_and_unpaced_runs_agree_from_the_same_config() {
    // Same config, both code paths, shorter horizon: the cheap
    // always-on guard next to the full 600 s parity drill.
    let mut spec = fixture_spec();
    spec.horizon = Seconds::new(120.0);
    let mut unpaced = spec.build_sim_daemon().expect("fixture builds");
    let reference = unpaced.run(spec.horizon);
    let mut paced_daemon = spec.build_sim_daemon().expect("fixture builds");
    let mut clock = MockClock::new();
    let paced = paced_daemon.run_paced(spec.horizon, &mut clock, spec.pacing);
    let rack = spec.rack_spec().expect("fixture topology");
    let zones = rack.rack.zones().len();
    let sockets = rack.rack.total_sockets();
    assert_eq!(
        bits_of(&reference.traces, zones, sockets),
        bits_of(&paced.traces, zones, sockets),
        "run() and run_paced() diverge from the same config"
    );
}
