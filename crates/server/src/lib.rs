//! The enterprise-server simulator substrate.
//!
//! The paper validates its controllers on "a presently shipping commercial
//! enterprise server" plus a simulation environment calibrated to it
//! (Section VI-A, Table I). That server is confidential; this crate *is*
//! the substitute: a forced-air server assembled from the workspace
//! substrates and calibrated with the published Table I constants (see
//! `DESIGN.md` §5 for the substitution rationale). The default is the
//! paper's single-socket machine; `gfsc_thermal::Topology` variants put
//! the same calibration on 2S/4S boards, a blade chassis or finned sinks,
//! all behind one shared fan. A rack is the same body one level up, so
//! it lives here too (`gfsc_rack` re-exports it).
//!
//! - [`ServerSpec`]: every physical and firmware parameter in one place
//!   ([`ServerSpec::enterprise_default`] = Table I),
//! - [`FanActuator`]: slew-rate-limited variable-speed fan,
//! - [`Server`]: the closed plant — CPU power → thermal topology →
//!   per-socket sensor chains → aggregation — stepped at a fixed
//!   simulation interval,
//! - [`RackServer`] / [`RackSpec`]: the closed rack, whose one-slot case
//!   a multi-socket `Server` is — both wear one chassis (fan actuators,
//!   sensor chains, energy meters, clock), split demand with
//!   [`LoadWeights`] and fold readings with [`hottest_reading`],
//! - [`Plant`]: the thermal backend — the exact two-node model for the
//!   paper's server, the board compiled as a one-slot
//!   `gfsc_thermal::RackPlant` for everything else,
//! - [`TempAggregation`]: how per-socket readings fold into the one
//!   temperature the global controllers act on,
//! - [`FanPlant`]: a server's fan→measured-temperature loop as a
//!   `gfsc_control::Plant` for Ziegler–Nichols tuning,
//! - [`PerformanceMonitor`]: deadline-violation accounting (the Table III
//!   performance metric).
//!
//! # Examples
//!
//! ```
//! use gfsc_server::{Server, ServerSpec};
//! use gfsc_units::{Rpm, Seconds, Utilization};
//!
//! let mut server = Server::new(ServerSpec::enterprise_default());
//! server.set_fan_target(Rpm::new(4000.0));
//! for _ in 0..120 {
//!     server.step(Seconds::new(0.5), Utilization::new(0.7));
//! }
//! assert!(server.true_junction() > server.spec().ambient);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actuator;
mod chassis;
mod monitor;
mod plant;
mod rack;
mod server;
mod spec;

pub use actuator::FanActuator;
pub use chassis::{hottest_reading, LoadWeights};
pub use monitor::PerformanceMonitor;
pub use plant::FanPlant;
pub use rack::{RackServer, RackSpec};
pub use server::{Plant, Server};
pub use spec::{ServerSpec, TempAggregation};
