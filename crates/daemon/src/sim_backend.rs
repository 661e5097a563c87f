//! The simulated telemetry backend: the rack plant behind the streamed
//! traits, with deterministic fault injection.
//!
//! [`SimTelemetry`] owns a `gfsc_rack::RackServer` and a workload and
//! exposes them through [`TelemetrySource`] / [`FanActuator`] — the
//! hardware-in-the-loop stand-in. With [`FaultPlan::none`] the daemon
//! loop over this backend replays the batch `RackLoopSim` bit-for-bit
//! (fan/cap/measured traces; pinned by `tests/parity.rs`). With faults
//! armed, each fault is a deterministic [`FaultSchedule`] on the
//! simulation clock, so a failing HIL scenario replays exactly:
//!
//! - **frozen sensor** — one socket's reads keep succeeding but latch
//!   the value held at window entry (the failure mode
//!   `gfsc_sensors::SensorHealth` freeze detection exists for),
//! - **dropped reads** — temperature polls fail wholesale for the
//!   window (bus burst loss),
//! - **NaN sensor** — one socket's wire value goes NaN for the window;
//!   [`gfsc_units::Celsius::try_new`] maps the poison to a *missing*
//!   reading at the boundary, so it drains the same staleness budget a
//!   dead sensor would instead of flowing into the selection loops,
//! - **actuation NACK** — fan/cap/migration writes are rejected for
//!   the window,
//! - **poll panic** — one poisoned poll panics once (the daemon's
//!   `catch_unwind` watchdog path).

use crate::{FanActuator, TelemetryError, TelemetrySource};
use gfsc_rack::{RackServer, RackSpec};
use gfsc_sim::FaultSchedule;
use gfsc_units::{Celsius, Rpm, Seconds, Utilization};
use gfsc_workload::Workload;

/// The deterministic fault program of one HIL scenario.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Latch this socket's sensor at its window-entry value while any
    /// window is active.
    pub frozen_sensor: Option<(usize, FaultSchedule)>,
    /// Deliver NaN from this socket's sensor while any window is
    /// active (arrives as a missing reading; see the module docs).
    pub nan_sensor: Option<(usize, FaultSchedule)>,
    /// Fail every temperature poll while active.
    pub dropped_reads: FaultSchedule,
    /// Reject every actuation write while active.
    pub actuation_nack: FaultSchedule,
    /// Panic (once) inside the first temperature poll at or after this
    /// instant.
    pub panic_poll_at: Option<Seconds>,
}

impl FaultPlan {
    /// No faults: the bit-for-bit parity configuration.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }
}

/// The simulated rack behind the streamed traits.
#[derive(Debug)]
pub struct SimTelemetry {
    server: RackServer,
    workload: Workload,
    faults: FaultPlan,
    /// The last sampled rack demand — what the CPUs run between epochs.
    last_demand: Utilization,
    /// The enforced utilizations the plant steps with.
    executed: Vec<Utilization>,
    /// The frozen sensor's latched value while its window is active.
    frozen_latch: Option<f64>,
    /// Firmware auto-control engaged (fans pinned at max, caps
    /// released, demand runs uncapped).
    fallback: bool,
    panicked: bool,
    /// Hottest true junction seen over the run — the HIL safety bound.
    max_junction: Celsius,
}

impl SimTelemetry {
    /// Builds the backend at thermal equilibrium at `start_utilization`
    /// / `start_fan` — the same starting point `RackLoopSim`'s builder
    /// uses.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation.
    #[must_use]
    pub fn new(
        spec: RackSpec,
        workload: Workload,
        start_utilization: Utilization,
        start_fan: Rpm,
        faults: FaultPlan,
    ) -> Self {
        let mut server = RackServer::new(spec);
        let zones = server.zone_count();
        server.equilibrate(start_utilization, &vec![start_fan; zones]);
        let executed = server.executed().to_vec();
        let max_junction = server.true_junction();
        Self {
            server,
            workload,
            faults,
            last_demand: start_utilization,
            executed,
            frozen_latch: None,
            fallback: false,
            panicked: false,
            max_junction,
        }
    }

    /// The simulated rack (read-only) — lets HIL assertions see the
    /// *true* junction temperatures no real telemetry exposes.
    #[must_use]
    pub fn server(&self) -> &RackServer {
        &self.server
    }

    /// Simulation time.
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.server.now()
    }

    /// Hottest true junction seen since construction.
    #[must_use]
    pub fn max_junction(&self) -> Celsius {
        self.max_junction
    }

    /// Whether firmware auto-control is currently engaged.
    #[must_use]
    pub fn in_firmware_fallback(&self) -> bool {
        self.fallback
    }

    fn nack_active(&self) -> bool {
        self.faults.actuation_nack.is_active(self.server.now())
    }
}

impl TelemetrySource for SimTelemetry {
    fn socket_count(&self) -> usize {
        self.server.socket_count()
    }

    fn zone_count(&self) -> usize {
        self.server.zone_count()
    }

    fn poll_temperatures(&mut self, out: &mut [Option<Celsius>]) -> Result<(), TelemetryError> {
        let now = self.server.now();
        if let Some(at) = self.faults.panic_poll_at {
            if !self.panicked && now.value() >= at.value() {
                self.panicked = true;
                // gfsc-lint: allow(panic) deliberate fault injection: the daemon's watchdog drills depend on this panic firing
                panic!("injected sensor-poll panic at t={} s", now.value());
            }
        }
        if self.faults.dropped_reads.is_active(now) {
            return Err(TelemetryError::Read("injected dropped-reads burst".into()));
        }
        assert_eq!(out.len(), self.server.socket_count(), "one reading slot per socket");
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = Some(self.server.measured_socket(i));
        }
        if let Some((socket, schedule)) = &self.faults.frozen_sensor {
            if schedule.is_active(now) {
                let held = *self
                    .frozen_latch
                    .get_or_insert_with(|| self.server.measured_socket(*socket).value());
                out[*socket] = Some(Celsius::new(held));
            } else {
                self.frozen_latch = None;
            }
        }
        if let Some((socket, schedule)) = &self.faults.nan_sensor {
            if schedule.is_active(now) {
                // The poisoned wire value. `try_new` is the NaN boundary
                // guard: the reading arrives *missing*, the daemon's
                // staleness budget decides, and nothing downstream ever
                // holds a NaN temperature.
                out[*socket] = Celsius::try_new(f64::NAN);
            }
        }
        Ok(())
    }

    fn poll_fan_speeds(&mut self, out: &mut [Rpm]) -> Result<(), TelemetryError> {
        assert_eq!(out.len(), self.server.zone_count(), "one tachometer per zone");
        for (z, slot) in out.iter_mut().enumerate() {
            *slot = self.server.zone_fan_speed(z);
        }
        Ok(())
    }

    fn poll_demand(&mut self) -> Result<Utilization, TelemetryError> {
        let demand = self.workload.sample(self.server.now());
        self.last_demand = demand;
        Ok(demand)
    }

    fn advance(&mut self, dt: Seconds) {
        if self.fallback {
            // Firmware auto-control: demand runs uncapped.
            self.server.socket_demands(self.last_demand, &mut self.executed);
        }
        let executed = core::mem::take(&mut self.executed);
        self.server.step(dt, &executed);
        self.executed = executed;
        self.max_junction = self.max_junction.max(self.server.true_junction());
    }
}

impl FanActuator for SimTelemetry {
    fn write_fan_target(&mut self, z: usize, target: Rpm) -> Result<Rpm, TelemetryError> {
        if self.nack_active() {
            return Err(TelemetryError::Nack("injected fan-write NACK".into()));
        }
        self.server.set_zone_fan_target(z, target);
        Ok(self.server.zone_fan_target(z))
    }

    fn write_caps(&mut self, caps: &[Utilization]) -> Result<(), TelemetryError> {
        if self.nack_active() {
            return Err(TelemetryError::Nack("injected cap-write NACK".into()));
        }
        assert_eq!(caps.len(), self.executed.len(), "one cap per socket");
        // The enforced point until the next epoch: min(demand, cap),
        // computed exactly as the control bank computes its `executed`
        // (same weights, same demand sample) — the parity contract.
        for (i, &cap) in caps.iter().enumerate() {
            self.executed[i] = self.server.socket_demand(i, self.last_demand).min(cap);
        }
        Ok(())
    }

    fn migrate_load(&mut self, from: usize, to: usize, amount: f64) -> Result<(), TelemetryError> {
        if self.nack_active() {
            return Err(TelemetryError::Nack("injected migration NACK".into()));
        }
        self.server.shift_load_weight(from, to, amount);
        Ok(())
    }

    fn enter_firmware_fallback(&mut self) -> Result<(), TelemetryError> {
        // The safe state is firmware-internal: it must not depend on
        // the (possibly NACKing) command path, so it never fails here.
        self.fallback = true;
        let hi = self.server.spec().server.fan_bounds.hi();
        self.server.set_all_fan_targets(hi);
        self.server.socket_demands(self.last_demand, &mut self.executed);
        Ok(())
    }

    fn resume_manual_control(&mut self) -> Result<(), TelemetryError> {
        if self.nack_active() {
            return Err(TelemetryError::Nack("injected resume NACK".into()));
        }
        self.fallback = false;
        Ok(())
    }
}
