//! Hardware-in-the-loop fault drills — the `daemon-hil` CI stage.
//!
//! Each scenario runs the daemon over [`SimTelemetry`] on the 2U×4
//! preset with one injected fault and asserts the watchdog contract:
//! firmware fallback engages within its deadline, the transition is
//! exported in the metrics, closed-loop control re-engages after the
//! fault clears plus the recovery window, and the rack's *true*
//! junction temperatures stay bounded throughout. Everything is
//! deterministic (pinned seeds, simulated clock), so a failure replays
//! exactly.
//!
//! Each scenario reads its fallback round trip off the flight
//! recorder, the daemon's one record of its transitions: every event
//! is stamped with its cycle's CPU epoch, fallback cycles included.
//! Each also writes its final metric snapshot to
//! `target/daemon-hil/<scenario>.log` and its recording to
//! `<scenario>.events` — the artifacts the nightly workflow uploads.

use gfsc_coord::{RackControl, RackControlConfig};
use gfsc_daemon::{
    Daemon, DaemonConfig, DaemonRunOutcome, FallbackReason, FaultPlan, SimTelemetry,
};
use gfsc_obs::{explain, EventKind, Recorder};
use gfsc_rack::{RackSpec, RackTopology};
use gfsc_sim::FaultSchedule;
use gfsc_units::Seconds;
use gfsc_workload::{SquareWave, Workload};

/// Junction ceiling for every drill: the 80 °C safe limit plus the
/// transient margin a fault window is allowed to consume.
const JUNCTION_CEILING_C: f64 = 90.0;

/// A 60 s square wave with per-epoch noise: natural readings change at
/// least at every phase flip, so a freeze budget above half a period
/// can never false-trip on a healthy sensor.
fn workload() -> Workload {
    Workload::builder(SquareWave::new(0.25, 0.65, Seconds::new(60.0), 0.5))
        .gaussian_noise(0.04, 7)
        .build()
}

fn run_scenario(name: &str, faults: FaultPlan, cfg_tune: impl FnOnce(&mut DaemonConfig)) -> Drill {
    let spec = RackSpec::new(RackTopology::rack_2u_x4());
    let mut cfg = DaemonConfig::new(RackControlConfig::new(RackControl::Coordinated {
        adaptive_reference: true,
    }));
    // Every drill flies with the recorder armed: the `.events` artifact
    // is what `gfsc-explain` turns into a causal timeline in CI.
    cfg.control.recorder = Recorder::armed(4096);
    cfg.stale_after = Seconds::new(5.0);
    cfg_tune(&mut cfg);
    let cpu_interval = spec.server.cpu_control_interval.value();
    let backend =
        SimTelemetry::new(spec.clone(), workload(), cfg.start_utilization, cfg.start_fan, faults);
    let mut daemon = Daemon::new(backend, spec, cfg);
    let outcome = daemon.run(Seconds::new(480.0));
    let max_junction = daemon.backend().max_junction();
    write_log(name, &outcome, max_junction.value());
    assert!(
        max_junction.value() < JUNCTION_CEILING_C,
        "{name}: true junction peaked at {:.1} °C (ceiling {JUNCTION_CEILING_C} °C)",
        max_junction.value()
    );
    assert!(
        !daemon.backend().in_firmware_fallback(),
        "{name}: firmware still holds the rack at the end of the run"
    );
    Drill { outcome, cpu_interval }
}

struct Drill {
    outcome: DaemonRunOutcome,
    /// Seconds per flight-recorder stamp.
    cpu_interval: f64,
}

impl Drill {
    /// The `(seconds, payload)` of every recorded `kind` event.
    fn recorded(&self, kind: EventKind) -> Vec<(f64, f64)> {
        let flight = self.outcome.flight.as_ref().expect("every drill arms the recorder");
        assert_eq!(flight.dropped, 0, "the ring holds the whole run");
        flight
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| (f64::from(e.epoch) * self.cpu_interval, e.value))
            .collect()
    }

    /// Asserts exactly one fallback round-trip: entered for `reason`
    /// within `[from, deadline]`, exited within `[exit_from, exit_by]`.
    fn assert_round_trip(
        &self,
        reason: FallbackReason,
        from: f64,
        deadline: f64,
        exit_from: f64,
        exit_by: f64,
    ) {
        let entries = self.recorded(EventKind::FallbackEntered);
        let exits = self.recorded(EventKind::FallbackExited);
        assert_eq!(entries.len(), 1, "one fallback entry, got {entries:?}");
        assert_eq!(exits.len(), 1, "one fallback exit, got {exits:?}");
        let (entered_at, entered_for) = entries[0];
        assert_eq!(entered_for, reason.code(), "fallback reason");
        assert!(
            (from..=deadline).contains(&entered_at),
            "fallback entered at {entered_at} s, watchdog deadline was [{from}, {deadline}] s"
        );
        let (exited_at, exited_from) = exits[0];
        assert_eq!(exited_from, reason.code(), "the exit names what it recovered from");
        assert!(
            (exit_from..=exit_by).contains(&exited_at),
            "closed loop re-engaged at {exited_at} s, expected [{exit_from}, {exit_by}] s"
        );

        // The transitions are exported, not just logged.
        let metrics = &self.outcome.metrics;
        assert_eq!(metrics.fallback_entries, 1);
        assert_eq!(metrics.fallback_exits, 1);
        assert!(!metrics.in_fallback);
        let rendered = metrics.render();
        assert!(rendered.contains("fallback_entries=1u"), "metrics export: {rendered}");
        assert!(rendered.contains("fallback_exits=1u"), "metrics export: {rendered}");
        assert!(rendered.contains("in_fallback=false"), "metrics export: {rendered}");
    }
}

/// Writes the scenario's metric snapshot under `target/daemon-hil/`
/// for CI artifact upload, plus the flight recorder snapshot as
/// `<name>.events` (the `gfsc-explain` input).
fn write_log(name: &str, outcome: &DaemonRunOutcome, max_junction_c: f64) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/daemon-hil");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let log = format!(
        "# daemon-hil scenario: {name}\n\
         # horizon: {} s, max true junction: {max_junction_c:.2} C\n{}",
        outcome.horizon.value(),
        outcome.metrics.render()
    );
    let _ = std::fs::write(format!("{dir}/{name}.log"), log);
    if let Some(flight) = &outcome.flight {
        let _ = std::fs::write(format!("{dir}/{name}.events"), flight.to_text());
    }
}

#[test]
fn frozen_sensor_trips_freeze_budget_then_recovers() {
    let faults = FaultPlan {
        frozen_sensor: Some((3, FaultSchedule::once(Seconds::new(120.0), Seconds::new(300.0)))),
        ..FaultPlan::none()
    };
    let drill = run_scenario("frozen-sensor", faults, |cfg| {
        cfg.freeze_after = Some(Seconds::new(45.0));
    });
    // The latched value can only be noticed once it has not moved for
    // the 45 s freeze budget; recovery needs the 10 s clean window
    // after the fault clears at 300 s.
    drill.assert_round_trip(FallbackReason::SensorLoss, 120.0, 170.0, 300.0, 315.0);
    assert_eq!(drill.outcome.metrics.controller_panics, 0);

    // The round trip is the causal chain `gfsc-explain` renders from the
    // uploaded `.events` artifact, with the reason encoded.
    let flight = drill.outcome.flight.as_ref().expect("recorder was armed");
    let timeline = explain::render_timeline(flight);
    assert!(
        timeline.contains("watchdog entered firmware fallback (sensor-loss)"),
        "timeline misses the fallback-entry chain:\n{timeline}"
    );
    assert!(
        timeline.contains("closed loop re-engaged (after sensor-loss)"),
        "timeline misses the recovery:\n{timeline}"
    );
}

#[test]
fn dropped_reads_burst_exhausts_retries_then_recovers() {
    let faults = FaultPlan {
        dropped_reads: FaultSchedule::once(Seconds::new(120.0), Seconds::new(140.0)),
        ..FaultPlan::none()
    };
    let drill = run_scenario("dropped-reads", faults, |_| {});
    // Whichever budget trips first — three retries on the 1 s cadence
    // or the 5 s staleness budget — fallback is due within ~6 s.
    drill.assert_round_trip(FallbackReason::ReadFailures, 120.0, 126.0, 140.0, 155.0);
    assert!(drill.outcome.metrics.read_failures >= 4, "every burst cycle counted");
}

#[test]
fn nan_poisoned_sensor_goes_stale_then_recovers() {
    let faults = FaultPlan {
        nan_sensor: Some((2, FaultSchedule::once(Seconds::new(120.0), Seconds::new(200.0)))),
        ..FaultPlan::none()
    };
    let drill = run_scenario("nan-sensor", faults, |_| {});
    // The NaN never reaches a controller: `Celsius::try_new` turns the
    // poisoned wire value into a *missing* reading at the telemetry
    // boundary, so socket 2 simply stops reading and the 5 s staleness
    // budget trips sensor-loss — the same path a dead sensor takes.
    drill.assert_round_trip(FallbackReason::SensorLoss, 120.0, 127.0, 200.0, 215.0);
    // Poisoned data must degrade, never crash.
    assert_eq!(drill.outcome.metrics.controller_panics, 0);
}

#[test]
fn actuator_nack_exhausts_retries_then_recovers() {
    let faults = FaultPlan {
        actuation_nack: FaultSchedule::once(Seconds::new(120.0), Seconds::new(200.0)),
        ..FaultPlan::none()
    };
    let drill = run_scenario("actuator-nack", faults, |_| {});
    // Cap writes run every epoch, so NACKs burn the retry budget in
    // max_retries + 1 cycles even if no fan write is due; resume itself
    // NACKs until the window closes at 200 s.
    drill.assert_round_trip(FallbackReason::ActuationFailures, 120.0, 126.0, 200.0, 215.0);
    assert!(drill.outcome.metrics.write_failures >= 4, "every NACKed cycle counted");
}

#[test]
fn poll_panic_is_caught_and_falls_back() {
    let faults = FaultPlan { panic_poll_at: Some(Seconds::new(120.0)), ..FaultPlan::none() };
    let drill = run_scenario("poll-panic", faults, |_| {});
    // The panic is one-shot: the very next cycle polls cleanly, so the
    // recovery window starts immediately after the trip.
    drill.assert_round_trip(FallbackReason::ControllerPanic, 120.0, 121.0, 130.0, 140.0);
    assert_eq!(drill.outcome.metrics.controller_panics, 1);
    let rendered = drill.outcome.metrics.render();
    assert!(rendered.contains("controller_panics=1u"), "metrics export: {rendered}");
}

#[test]
fn fault_free_run_never_trips_the_watchdog() {
    let drill = run_scenario("fault-free", FaultPlan::none(), |cfg| {
        cfg.freeze_after = Some(Seconds::new(45.0));
    });
    for kind in [EventKind::FallbackEntered, EventKind::FallbackExited] {
        let recorded = drill.recorded(kind);
        assert!(recorded.is_empty(), "{}: {recorded:?}", kind.label());
    }
    assert_eq!(drill.outcome.metrics.fallback_entries, 0);
    assert!(drill.outcome.total_epochs > 0, "closed loop actually ran");
    // Fans were actually driven: at least one write per fan epoch.
    assert!(drill.outcome.metrics.zones.iter().any(|z| z.writes > 0));
}
