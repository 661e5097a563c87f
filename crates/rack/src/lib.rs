//! Rack-scale simulation: multi-fan zones, shared plenum, per-zone plant
//! views.
//!
//! The paper controls one fan in one server. A rack is the same physics
//! one level up: N servers in a shared plenum, cooled by *zones* of fans
//! (front/rear walls), every zone's fans driving many airflow-dependent
//! thermal paths at once. The rack structure ([`RackTopology`]) and its
//! thermal plant ([`RackPlant`], per-zone [`ZonePlant`] views) live in
//! `gfsc_thermal`, next to the board [`gfsc_thermal::Topology`]; the
//! closed rack lives in `gfsc_server`, next to the `Server` that is its
//! one-slot case — servers and racks share one plant and one body. This
//! crate re-exports them under their rack names:
//!
//! - [`RackServer`]: the closed physical rack — per-zone slew-limited fan
//!   walls ([`FanActuator`]), per-socket non-ideal sensor chains, per-zone
//!   max aggregation ([`hottest_reading`]), demand weights
//!   ([`LoadWeights`]), rack-wide energy metering.
//!
//! The control layer on top (per-socket cappers, the capping coordinator,
//! the rack closed loop) lives in `gfsc_coord`.
//!
//! # Examples
//!
//! ```
//! use gfsc_rack::{RackServer, RackSpec, RackTopology};
//! use gfsc_units::{Rpm, Seconds, Utilization};
//!
//! let mut rack = RackServer::new(RackSpec::new(RackTopology::rack_2u_x4()));
//! let executed = vec![Utilization::new(0.6); rack.socket_count()];
//! for _ in 0..120 {
//!     rack.step(Seconds::new(0.5), &executed);
//! }
//! // Each fan zone has its own aggregated firmware view.
//! assert!(rack.measured_zone(0).value() >= rack.spec().server.ambient.value());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod server;

pub use gfsc_server::{hottest_reading, FanActuator, LoadWeights, RackServer, RackSpec};
pub use gfsc_thermal::{PlenumDef, RackPlant, RackTopology, RackZoneDef, ServerSlot, ZonePlant};
