//! The watchdog-safe daemon loop: poll → classify → decide → actuate,
//! with firmware fallback as the unconditional safe state.
//!
//! [`Daemon::run`] drives the exact multi-rate schedule of the batch
//! `RackLoopSim` — plant time advanced by the backend at `sim_dt`, one
//! control cycle per CPU epoch, fan decisions at the fan interval — so
//! a fault-free run over [`crate::SimTelemetry`] replays the batch loop
//! bit-for-bit (fan/cap/measured traces; `tests/parity.rs`).
//! [`Daemon::run_paced`] is the same loop paced on a [`WallClock`]:
//! cycles start on a real-time grid, late starts and overrunning work
//! are counted and recorded, and a persistent overrun streak is treated
//! as a watchdog matter like any other telemetry failure.
//!
//! The watchdog wraps every cycle:
//!
//! - each sensor runs a [`SensorHealth`] staleness/freeze budget; any
//!   non-fresh sensor is sensor loss,
//! - failed polls and NACKed writes retry next cycle (the actuation
//!   simply holds — a safe backoff on a 1 s cadence) up to a bounded
//!   count,
//! - the controller itself runs under `catch_unwind`,
//!
//! and any of those tripping enters **firmware fallback**: fans handed
//! back to platform auto-control (max cooling), caps released. The
//! daemon keeps polling; after `recovery_window` of clean, fresh
//! telemetry it takes manual control back and re-arms the bank
//! bumplessly ([`gfsc_coord::RackControlBank::reset_after_fallback`]).
//! Every transition is counted in [`DaemonMetrics`] and, when the
//! control config arms the flight recorder, recorded on the controllers'
//! decision stream ([`gfsc_coord::RackControlBank::record`]), stamped
//! with its cycle's CPU epoch, fallback cycles included. That stream is
//! the daemon's one record of its transitions.

use crate::{
    DaemonMetrics, DaemonRackView, FanActuator, MetricsEndpoint, PacingConfig, TelemetrySource,
    WallClock,
};
use gfsc_coord::{RackChannels, RackControlBank, RackControlConfig, RackView};
use gfsc_obs::{EventKind, FlightSnapshot};
use gfsc_rack::RackSpec;
use gfsc_sensors::{SensorHealth, SensorStatus};
use gfsc_sim::{plant_steps, Cadence, TraceSet};
use gfsc_units::{Celsius, Rpm, Seconds, Utilization};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Why the watchdog engaged firmware fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// A sensor went stale or frozen past its budget.
    SensorLoss,
    /// Polls kept failing past the retry bound.
    ReadFailures,
    /// Writes kept NACKing past the retry bound.
    ActuationFailures,
    /// The poll or control path panicked.
    ControllerPanic,
    /// Paced cycles kept overrunning their wall period past the streak
    /// budget — the loop cannot keep the control cadence, so the rack
    /// goes back to firmware until cycles land on time again.
    OverrunStreak,
}

impl FallbackReason {
    /// The stable numeric code this reason carries on the flight-
    /// recorder event stream (decoded by
    /// [`gfsc_obs::fallback_reason_label`]).
    #[must_use]
    pub fn code(self) -> f64 {
        match self {
            Self::SensorLoss => 0.0,
            Self::ReadFailures => 1.0,
            Self::ActuationFailures => 2.0,
            Self::ControllerPanic => 3.0,
            Self::OverrunStreak => 4.0,
        }
    }
}

/// Everything that parameterizes a daemon beyond the rack spec: the
/// control mode and the watchdog budgets.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The control bank configuration (mode + controller tunables).
    pub control: RackControlConfig,
    /// The assumed starting operating point (must match the plant's).
    pub start_utilization: Utilization,
    /// The assumed starting fan speed (must match the plant's).
    pub start_fan: Rpm,
    /// A sensor with no successful read for this long is stale.
    pub stale_after: Seconds,
    /// A sensor whose value has not moved for this long is frozen
    /// (`None` disables freeze detection — required for bit-for-bit
    /// parity, where quantized steady-state readings legitimately hold).
    pub freeze_after: Option<Seconds>,
    /// Fan writes smaller than this many rpm from the last
    /// acknowledged target are skipped (0 = write on any change, the
    /// parity setting).
    pub deadzone_rpm: f64,
    /// Consecutive failed cycles tolerated before fallback (each retry
    /// waits one cycle — the backoff on a fixed cadence).
    pub max_retries: u32,
    /// Clean, all-fresh telemetry required before leaving fallback.
    pub recovery_window: Seconds,
}

impl DaemonConfig {
    /// Watchdog defaults around a control configuration: 3-epoch
    /// staleness budget, freeze detection off, no deadzone, 3 retries,
    /// 10 s recovery window.
    #[must_use]
    pub fn new(control: RackControlConfig) -> Self {
        Self {
            control,
            start_utilization: Utilization::new(0.1),
            start_fan: Rpm::new(1500.0),
            stale_after: Seconds::new(3.0),
            freeze_after: None,
            deadzone_rpm: 0.0,
            max_retries: 3,
            recovery_window: Seconds::new(10.0),
        }
    }
}

/// Everything a finished daemon run reports.
#[derive(Debug)]
pub struct DaemonRunOutcome {
    /// Epoch-rate traces, recorded by the bank with the same channel
    /// set as `RackLoopSim` (`u_demand`, per-zone `z{z}_fan_rpm` / …,
    /// per-socket `s{i}_cap` / …). Fallback cycles record nothing —
    /// the bank was not consulted.
    pub traces: TraceSet,
    /// Final metric snapshot.
    pub metrics: DaemonMetrics,
    /// Violated socket-epochs (closed-loop cycles only).
    pub total_violations: u64,
    /// Total socket-epochs (closed-loop cycles only).
    pub total_epochs: u64,
    /// Simulated duration.
    pub horizon: Seconds,
    /// The decision-event recording, when the control config armed the
    /// flight recorder (`None` otherwise): the controllers' decisions and
    /// the daemon's one record of its watchdog and pacing transitions,
    /// each stamped with its cycle's CPU epoch, fallback cycles included.
    pub flight: Option<FlightSnapshot>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LoopState {
    Closed,
    Fallback { clean_since: Option<Seconds> },
}

/// The daemon: one backend, one mirror, one control bank, one watchdog.
pub struct Daemon<B: TelemetrySource + FanActuator> {
    backend: B,
    view: DaemonRackView,
    bank: RackControlBank,
    cfg: DaemonConfig,
    health: Vec<SensorHealth>,
    metrics: DaemonMetrics,
    state: LoopState,
    endpoint: Option<MetricsEndpoint>,
    temp_scratch: Vec<Option<Celsius>>,
    tach_scratch: Vec<Rpm>,
    /// Last acknowledged per-zone target (the deadzone reference).
    last_acked: Vec<Rpm>,
    consecutive_failures: u32,
    /// The reason behind the current/most recent fallback, so the exit
    /// event can name what it recovered from.
    fallback_reason: Option<FallbackReason>,
}

impl<B: TelemetrySource + FanActuator> std::fmt::Debug for Daemon<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon").field("control", &self.bank.control()).finish_non_exhaustive()
    }
}

impl<B: TelemetrySource + FanActuator> Daemon<B> {
    /// Assembles a daemon for `spec` over `backend`.
    ///
    /// # Panics
    ///
    /// Panics if the backend's structure disagrees with the spec or the
    /// config is inconsistent.
    #[must_use]
    pub fn new(backend: B, spec: RackSpec, cfg: DaemonConfig) -> Self {
        let view = DaemonRackView::new(spec, cfg.start_utilization, cfg.start_fan);
        assert_eq!(backend.socket_count(), view.socket_count(), "backend/spec socket mismatch");
        assert_eq!(backend.zone_count(), view.zone_count(), "backend/spec zone mismatch");
        let bank = RackControlBank::new(
            cfg.control.clone(),
            view.spec(),
            view.plant(),
            cfg.start_utilization,
        );
        let sockets = view.socket_count();
        let zones = view.zone_count();
        let start = view.spec().server.fan_bounds.clamp(cfg.start_fan);
        let mut metrics = DaemonMetrics::new(zones);
        for (slot, zone) in metrics.zones.iter_mut().zip(view.spec().rack.zones()) {
            slot.label = zone.name.clone();
        }
        Self {
            backend,
            bank,
            health: (0..sockets)
                .map(|_| SensorHealth::new(cfg.stale_after, cfg.freeze_after))
                .collect(),
            metrics,
            state: LoopState::Closed,
            endpoint: None,
            temp_scratch: vec![None; sockets],
            tach_scratch: vec![start; zones],
            last_acked: vec![start; zones],
            consecutive_failures: 0,
            fallback_reason: None,
            cfg,
            view,
        }
    }

    /// Attaches a metrics endpoint, served once per control cycle.
    pub fn serve_metrics(&mut self, endpoint: MetricsEndpoint) {
        self.endpoint = Some(endpoint);
    }

    /// The backend (read-only) — HIL tests inspect the plant through
    /// it.
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The current metric snapshot.
    #[must_use]
    pub fn metrics(&self) -> &DaemonMetrics {
        &self.metrics
    }

    /// Runs the loop for `horizon` simulated seconds, as fast as the
    /// CPU allows (no wall-clock pacing — the batch-parity mode).
    pub fn run(&mut self, horizon: Seconds) -> DaemonRunOutcome {
        self.run_inner(horizon, None)
    }

    /// Runs the **identical** loop, but paced on `wall`: control cycle
    /// `k` starts at wall time `k · cpu_control_interval · time_scale`,
    /// with deadline misses and overruns accounted into the metrics and
    /// the flight recorder, and a persistent overrun streak driving
    /// firmware fallback ([`FallbackReason::OverrunStreak`]).
    ///
    /// Pacing never touches the control path — under a
    /// [`crate::MockClock`] with no injected overruns the traces are
    /// bit-identical to [`Self::run`] (pinned by `tests/paced.rs`).
    pub fn run_paced(
        &mut self,
        horizon: Seconds,
        wall: &mut dyn WallClock,
        pacing: PacingConfig,
    ) -> DaemonRunOutcome {
        self.run_inner(horizon, Some((wall, pacing)))
    }

    /// The shared loop behind [`Self::run`] / [`Self::run_paced`].
    ///
    /// Loop-boundary note, pinned by `tests/paced.rs`: the loop walks the
    /// same [`plant_steps`] instants and polls the same [`Cadence`] as
    /// `RackLoopSim::run`, advancing the backend after each instant's
    /// cycle, so both end one `sim_dt` past the last instant (see
    /// [`plant_steps`] for where that falls). The bit-for-bit parity
    /// contract rests on that shared schedule — a hand-rolled loop here
    /// that drifted from it would shift every golden trace.
    fn run_inner(
        &mut self,
        horizon: Seconds,
        mut pacing: Option<(&mut dyn WallClock, PacingConfig)>,
    ) -> DaemonRunOutcome {
        let spec = &self.view.spec().server;
        let (sim_dt, cpu_interval) = (spec.sim_dt, spec.cpu_control_interval);
        let mut cadence = Cadence::new(cpu_interval, spec.fan_control_interval);
        let mut traces = TraceSet::new();
        let channels = RackChannels::resolve(
            &mut traces,
            cadence.trace_capacity(horizon),
            self.view.zone_count(),
            self.view.socket_count(),
        );

        // Wall-pacing state: cycle k's deadline is origin + k periods.
        let period_wall =
            pacing.as_ref().map_or(0.0, |(_, cfg)| cpu_interval.value() * cfg.time_scale);
        let wall_origin = pacing.as_mut().map_or(0.0, |(wall, _)| wall.now().value());
        let mut overrun_streak: u32 = 0;

        let mut cycle_idx = 0u64;
        for now in plant_steps(sim_dt, horizon) {
            if let Some(fan_due) = cadence.poll(now) {
                // Sleep to this cycle's wall deadline; how late the
                // cycle actually starts is the miss statistic.
                let mut wall_start = 0.0;
                if let Some((wall, _)) = pacing.as_mut() {
                    let deadline = wall_origin + cycle_idx as f64 * period_wall;
                    wall.sleep_until(Seconds::new(deadline));
                    wall_start = wall.now().value();
                }
                // Latency is sampled (every 16th cycle, or every cycle
                // while an endpoint is attached so each snapshot carries
                // a fresh reading): observability must not tax the loop
                // it observes — the clock pair is a measurable slice of
                // the <5 % front-end overhead budget `perf_report` gates.
                let started =
                    (self.endpoint.is_some() || cycle_idx.trailing_zeros() >= 4).then(Instant::now);
                self.cycle(now, fan_due, &mut traces, &channels);
                if let Some(started) = started {
                    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    self.metrics.observe_latency(ns);
                }
                if let Some((wall, cfg)) = pacing.as_mut() {
                    wall.on_cycle_complete(cycle_idx);
                    let deadline = wall_origin + cycle_idx as f64 * period_wall;
                    let lateness = Seconds::new(wall_start - deadline);
                    let duration = Seconds::new(wall.now().value() - wall_start);
                    let cfg = *cfg;
                    self.account_pacing(
                        now,
                        lateness,
                        duration,
                        Seconds::new(period_wall),
                        cfg,
                        &mut overrun_streak,
                    );
                }
                if let Some(endpoint) = &self.endpoint {
                    let mut snapshot = self.metrics.render();
                    if let Some(flight) = self.bank.recorder().flight() {
                        flight.render_counters(&mut snapshot);
                    }
                    endpoint.poll_serve(&snapshot);
                }
                cycle_idx += 1;
            }
            self.backend.advance(sim_dt);
        }

        DaemonRunOutcome {
            traces,
            metrics: self.metrics.clone(),
            total_violations: self.bank.violations(),
            total_epochs: self.bank.socket_epochs(),
            horizon,
            flight: self.bank.recorder().snapshot(),
        }
    }

    /// One control cycle: poll, classify, (maybe) decide, actuate.
    fn cycle(
        &mut self,
        now: Seconds,
        fan_due: bool,
        traces: &mut TraceSet,
        channels: &RackChannels,
    ) {
        self.metrics.loop_cycles += 1;

        // --- poll (panic-guarded: a poisoned read must not kill the
        // daemon — it must hand the rack to firmware). -----------------
        let backend = &mut self.backend;
        let temp_scratch = &mut self.temp_scratch;
        let tach_scratch = &mut self.tach_scratch;
        let polled = catch_unwind(AssertUnwindSafe(|| {
            let temps = backend.poll_temperatures(temp_scratch);
            let tachs = backend.poll_fan_speeds(tach_scratch);
            let demand = backend.poll_demand();
            (temps, tachs, demand)
        }));
        let Ok((temps, tachs, demand)) = polled else {
            self.metrics.controller_panics += 1;
            self.enter_fallback(now, FallbackReason::ControllerPanic);
            return;
        };

        // --- classify every sensor against its budgets. ---------------
        let temps_ok = temps.is_ok();
        let mut stale = 0u64;
        let mut frozen = 0u64;
        for (i, health) in self.health.iter_mut().enumerate() {
            let reading = if temps_ok { self.temp_scratch[i].map(|c| c.value()) } else { None };
            match health.observe(now, reading) {
                SensorStatus::Fresh => {}
                SensorStatus::Stale => stale += 1,
                SensorStatus::Frozen => {
                    stale += 1;
                    frozen += 1;
                }
            }
        }
        self.metrics.stale_sensors = stale;
        self.metrics.frozen_sensors = frozen;

        // --- refresh the mirror with whatever arrived. ----------------
        if temps_ok {
            self.view.ingest_temperatures(&self.temp_scratch);
        }
        if tachs.is_ok() {
            self.view.ingest_fan_speeds(&self.tach_scratch);
        }
        let read_err = !temps_ok || tachs.is_err() || demand.is_err();
        if read_err {
            self.metrics.read_failures += 1;
        }

        match self.state {
            LoopState::Fallback { clean_since } => {
                // Firmware holds the rack; watch for a clean window.
                if read_err || stale > 0 {
                    self.state = LoopState::Fallback { clean_since: None };
                    return;
                }
                let since = clean_since.unwrap_or(now);
                self.state = LoopState::Fallback { clean_since: Some(since) };
                if now - since >= self.cfg.recovery_window.value()
                    && self.backend.resume_manual_control().is_ok()
                {
                    // Re-arm bumplessly: caps released, fan integrators
                    // reset, mirror targets at what firmware commanded.
                    self.bank.reset_after_fallback();
                    let hi = self.view.spec().server.fan_bounds.hi();
                    self.view.set_all_fan_targets(hi);
                    for (acked, z) in self.last_acked.iter_mut().zip(0usize..) {
                        *acked = self.view.zone_fan_target(z);
                    }
                    self.state = LoopState::Closed;
                    self.consecutive_failures = 0;
                    self.metrics.fallback_exits += 1;
                    self.metrics.in_fallback = false;
                    let code = self.fallback_reason.take().map_or(0.0, FallbackReason::code);
                    self.bank.record(now, EventKind::FallbackExited, code);
                }
            }
            LoopState::Closed => {
                if stale > 0 {
                    self.enter_fallback(now, FallbackReason::SensorLoss);
                    return;
                }
                if read_err {
                    // Hold the previous actuation and retry next cycle.
                    self.consecutive_failures += 1;
                    if self.consecutive_failures > self.cfg.max_retries {
                        self.enter_fallback(now, FallbackReason::ReadFailures);
                    }
                    return;
                }
                // `read_err` returned above for the Err case; if that
                // coupling ever breaks, holding the actuation (the same
                // response as a read failure) beats panicking the loop.
                let Ok(demand) = demand else { return };

                // --- decide (panic-guarded like the polls). -----------
                let bank = &mut self.bank;
                let view = &mut self.view;
                let decided = catch_unwind(AssertUnwindSafe(|| {
                    bank.epoch(view, now, demand, fan_due, traces, channels);
                }));
                if decided.is_err() {
                    self.metrics.controller_panics += 1;
                    self.enter_fallback(now, FallbackReason::ControllerPanic);
                    return;
                }

                // --- actuate: migrations, fan targets (deadzoned),
                // caps. ------------------------------------------------
                let mut write_err = false;
                for shift in self.view.take_shifts() {
                    if self.backend.migrate_load(shift.from, shift.to, shift.amount).is_err() {
                        write_err = true;
                    }
                }
                for z in 0..self.view.zone_count() {
                    let desired = self.view.zone_fan_target(z);
                    if (desired.value() - self.last_acked[z].value()).abs() <= self.cfg.deadzone_rpm
                    {
                        continue;
                    }
                    self.metrics.zones[z].commanded_rpm = desired.value();
                    match self.backend.write_fan_target(z, desired) {
                        Ok(acked) => {
                            self.last_acked[z] = acked;
                            self.metrics.zones[z].acked_rpm = acked.value();
                            self.metrics.zones[z].writes += 1;
                        }
                        Err(_) => {
                            write_err = true;
                            self.metrics.zones[z].nacks += 1;
                        }
                    }
                }
                if self.backend.write_caps(self.bank.caps()).is_err() {
                    write_err = true;
                }
                self.view.mirror_executed(self.bank.executed());

                if write_err {
                    self.metrics.write_failures += 1;
                    self.consecutive_failures += 1;
                    if self.consecutive_failures > self.cfg.max_retries {
                        self.enter_fallback(now, FallbackReason::ActuationFailures);
                    }
                } else {
                    self.consecutive_failures = 0;
                }
            }
        }
    }

    /// Books one paced cycle's timing: deadline-miss and overrun
    /// counters, flight-recorder events, the overrun-streak fallback
    /// trigger, and the clean-recovery reset — a disturbed cycle must
    /// not count toward leaving fallback.
    fn account_pacing(
        &mut self,
        now: Seconds,
        lateness: Seconds,
        duration: Seconds,
        period_wall: Seconds,
        cfg: PacingConfig,
        overrun_streak: &mut u32,
    ) {
        let missed = lateness.value() > cfg.miss_tolerance.value();
        if missed {
            self.metrics.deadline_misses += 1;
            if lateness.value() > self.metrics.worst_lateness_s {
                self.metrics.worst_lateness_s = lateness.value();
            }
            self.bank.record(now, EventKind::DeadlineMissed, lateness.value());
        }
        let overran = duration.value() > period_wall.value();
        if overran {
            self.metrics.cycle_overruns += 1;
            *overrun_streak += 1;
            self.bank.record(now, EventKind::CycleOverrun, duration.value());
            if *overrun_streak >= cfg.max_overrun_streak {
                self.enter_fallback(now, FallbackReason::OverrunStreak);
            }
        } else {
            *overrun_streak = 0;
        }
        self.metrics.overrun_streak = u64::from(*overrun_streak);
        if (missed || overran) && matches!(self.state, LoopState::Fallback { .. }) {
            // Pacing is still disturbed: the recovery window restarts
            // from the next on-time cycle with clean telemetry.
            self.state = LoopState::Fallback { clean_since: None };
        }
    }

    /// Engages firmware fallback (idempotent).
    fn enter_fallback(&mut self, now: Seconds, reason: FallbackReason) {
        if matches!(self.state, LoopState::Fallback { .. }) {
            return;
        }
        // The safe switch is firmware-internal and deliberately not
        // retried through the failing command path; `SimTelemetry`
        // models it as infallible and a real BMC reasserts
        // auto-control on its own watchdog anyway.
        let _ = self.backend.enter_firmware_fallback();
        self.state = LoopState::Fallback { clean_since: None };
        self.consecutive_failures = 0;
        self.metrics.fallback_entries += 1;
        self.metrics.in_fallback = true;
        self.fallback_reason = Some(reason);
        self.bank.record(now, EventKind::FallbackEntered, reason.code());
    }
}
