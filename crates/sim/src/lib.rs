//! Discrete-time simulation kernel for the `gfsc` workspace.
//!
//! The paper evaluates its controllers on a simulated enterprise server with
//! several periodic activities running at different rates: the plant
//! (thermal/power state) advances at a fine fixed step, the CPU-cap
//! controller fires every 1 s, the fan controller every 30 s, and the sensor
//! chain samples every 1 s. This crate provides the scaffolding for that
//! style of simulation:
//!
//! - [`plant_steps`] / [`Cadence`]: the multi-rate epoch schedule every
//!   closed loop runs — the plant-step instants of a run, and the CPU and
//!   fan control epochs due at each of them,
//! - [`Clock`]: a drift-free fixed-step simulation clock,
//! - [`Periodic`]: a multi-rate scheduler primitive ("is this controller due
//!   at the current time?"),
//! - [`Trace`] / [`TraceSet`]: named time series with CSV export,
//! - [`spill`]: columnar on-disk trace spill ([`TraceSet::spill_to`],
//!   selective [`SpilledTraces`] reads) so large sweeps keep full traces
//!   without keeping them resident,
//! - [`stats`]: step-response and stability metrics (settling time,
//!   overshoot, sustained-oscillation detection) used to evaluate the
//!   paper's claims quantitatively.
//!
//! # Examples
//!
//! A closed loop visits each plant-step instant, runs a control epoch
//! when its cadence says one is due, and then steps its plant:
//!
//! ```
//! use gfsc_sim::{plant_steps, Cadence, TraceSet};
//! use gfsc_units::Seconds;
//!
//! let horizon = Seconds::new(120.0);
//! let mut cadence = Cadence::new(Seconds::new(1.0), Seconds::new(30.0));
//! let mut traces = TraceSet::new();
//! let fan = traces.channel_with_capacity("fan_speed_rpm", cadence.trace_capacity(horizon));
//! let mut fan_decisions = 0;
//! for now in plant_steps(Seconds::new(0.5), horizon) {
//!     if let Some(fan_due) = cadence.poll(now) {
//!         if fan_due {
//!             fan_decisions += 1;
//!         }
//!         traces.record_by_id(fan, now, 2000.0);
//!     }
//!     // ... step the plant by 0.5 s ...
//! }
//! assert_eq!(fan_decisions, 5); // t = 0, 30, 60, 90, 120
//! assert_eq!(traces.require("fan_speed_rpm").unwrap().len(), 121); // t = 0..=120
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod fault;
mod schedule;
pub mod spill;
pub mod stats;
pub mod sweep;
mod trace;

pub use clock::Clock;
pub use fault::{FaultSchedule, FaultWindow};
pub use schedule::{plant_steps, Cadence, Periodic};
pub use spill::SpilledTraces;
pub use trace::{ChannelId, Trace, TraceError, TraceSet};
