//! Telemetry daemon front-end for the gfsc rack controllers.
//!
//! The batch simulator answers the paper's questions; this crate makes
//! the same controllers *deployable*. Every `gfsc_coord::RackControl`
//! mode already runs against the [`gfsc_coord::RackView`] seam — here
//! the view is a polled mirror ([`DaemonRackView`]) fed through a
//! [`TelemetrySource`] and flushed through a [`FanActuator`], with a
//! watchdog ([`Daemon`]) around the loop:
//!
//! - per-sensor staleness/freeze budgets ([`gfsc_sensors::SensorHealth`]),
//! - deadzone/hysteresis on fan writes, bounded retry on failures,
//! - hard fallback to firmware auto-control (max fans, caps released)
//!   on sensor loss, persistent NACKs, or a controller panic — and
//!   bumpless re-engagement after a clean recovery window,
//! - every transition counted and exported as line-protocol metrics
//!   ([`DaemonMetrics`], [`MetricsEndpoint`]).
//!
//! Two backends ship: [`SimTelemetry`] wraps the simulated rack plant
//! (bit-for-bit with the batch loop when no [`FaultPlan`] is armed —
//! the hardware-in-the-loop CI gate injects faults through it), and
//! [`IpmiAdapter`] speaks `ipmitool`-shaped text for real BMCs.
//!
//! On top of the library loop sits the deployable runtime: a
//! [`WallClock`]-paced scheduler ([`Daemon::run_paced`]) that holds each
//! control cycle to its wall deadline and accounts every miss and
//! overrun, cap enforcement on the hardware path ([`CapEnforcer`]),
//! sensor auto-discovery ([`discover_socket_sensors`]), and a
//! config-file front door ([`DaemondSpec`]) consumed by the
//! `gfsc-daemond` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod daemon;
mod discover;
mod enforce;
mod ipmi;
mod metrics;
mod sim_backend;
mod traits;
mod view;
mod wallclock;

pub use config::{BackendKind, CapsSpec, DaemondSpec, IpmiSpec, WorkloadSpec};
pub use daemon::{Daemon, DaemonConfig, DaemonRunOutcome, FallbackReason};
pub use discover::discover_socket_sensors;
pub use enforce::{CapEnforcer, EnforceLog, NullEnforcer, RaplEnforcer, RecordingEnforcer};
pub use ipmi::{
    parse_sdr_temperatures, parse_sensors_temperatures, CommandRunner, IpmiAdapter, IpmiReading,
    IpmiTelemetry, ProcessRunner,
};
pub use metrics::{DaemonMetrics, MetricsEndpoint, ZoneActuation};
pub use sim_backend::{FaultPlan, SimTelemetry};
pub use traits::{FanActuator, TelemetryError, TelemetrySource};
pub use view::{DaemonRackView, LoadShift};
pub use wallclock::{MockClock, MonotonicClock, PacingConfig, WallClock};
