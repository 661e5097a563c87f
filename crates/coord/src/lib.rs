//! Local controllers and global coordination (paper Sections III & V).
//!
//! An enterprise server runs several independent thermal actors: the fan
//! controller, the CPU capper (P-state/power capping), and — in the paper's
//! motivation — OS-level scheduling. Each is individually stable, yet run
//! together they can fight each other into instability. This crate
//! implements the paper's answer:
//!
//! - [`CpuCapController`]: the deadzone-like CPU capper of Section III-A,
//! - [`FanController`]: the fan-policy abstraction, implemented for the
//!   adaptive PID, fixed-gain PID and deadzone baselines,
//! - [`RuleBasedCoordinator`]: Table II — exactly one knob actuated per
//!   epoch, biased toward performance,
//! - [`EnergyAwareCoordinator`]: the E-coord baseline (Ayoub et al., JETC):
//!   pick the most energy-efficient corrective action, ignoring the
//!   performance cost,
//! - [`Uncoordinated`]: both local controllers applied blindly (the
//!   paper's `w/o coordination` baseline),
//! - [`AdaptiveReference`]: predictive set-point adjustment (Section V-B),
//! - [`SingleStepFanScaling`]: emergency max-fan escalation (Section V-C),
//! - [`ClosedLoopSim`]: the multi-rate closed-loop runner tying workload,
//!   plant, local controllers and a coordinator together.
//!
//! The same structure scales one level up to racks (`gfsc_rack`):
//! [`IntegralCapper`] banks per socket, [`CappingCoordinator`] arbitrating
//! which socket to cap, [`ZoneReferences`] setting topology-aware per-zone
//! fan references, [`ZoneSsFanBank`] lifting single-step fan scaling to
//! per-zone fan walls, one [`EnergyAwareCoordinator`] rule set for both
//! rack E-coord modes (zone caps and the emergency pin; its
//! [`EnergyAwareCoordinator::fan_command`] sizes one wall at a time by the
//! rack's min-safe inversion), [`RackEnergyDescent`] holding that rule
//! set and sizing every wall jointly against the full coupled rack,
//! [`WorkMigrator`] moving work away from hot servers
//! instead of capping it (Van Damme-style thermal-aware scheduling), and
//! [`RackLoopSim`] closing the loop — the full [`RackControl`] solution
//! matrix against the deliberately-naive [`RackControl::GlobalLockstep`]
//! baseline.
//!
//! # Examples
//!
//! ```
//! use gfsc_coord::rule_matrix;
//! use gfsc_units::{Rpm, Utilization};
//!
//! // Table II, conflicting proposals: cap wants up, fan wants down.
//! let (cap, fan) = rule_matrix(
//!     Utilization::new(0.5), Utilization::new(0.6), // cap: raise
//!     Rpm::new(4000.0), Rpm::new(3000.0),           // fan: lower
//! );
//! assert_eq!(cap, Utilization::new(0.6)); // ucpu ↑ wins…
//! assert_eq!(fan, Rpm::new(4000.0));      // …fan lowering is cancelled
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod capper;
mod coordinator;
mod fanctl;
mod global_ecoord;
mod migrate;
mod rack;
mod reference;
mod runner;
mod ssfan;
mod view;
mod zone_ssfan;

pub use bank::{RackChannels, RackControlBank, RackControlConfig};
pub use capper::CpuCapController;
pub use coordinator::{
    rule_matrix, CoordinationInputs, CoordinationOutcome, Coordinator, EnergyAwareCoordinator,
    FanDirection, RuleBasedCoordinator, Uncoordinated,
};
pub use fanctl::{DeadzoneFan, FanController, FixedPidFan};
pub use global_ecoord::RackEnergyDescent;
pub use migrate::{Migration, WorkMigrator};
pub use rack::{
    CappingCoordinator, IntegralCapper, RackControl, RackLoopSim, RackLoopSimBuilder,
    ZoneReferences,
};
pub use reference::{AdaptiveReference, FIXED_REFERENCE};
pub use runner::{run_batch, ClosedLoopSim, ClosedLoopSimBuilder, RunOutcome};
pub use ssfan::{SingleStepFanScaling, SsFanAction};
pub use view::RackView;
pub use zone_ssfan::ZoneSsFanBank;

/// The flight-recorder layer every decision point records into — see
/// [`RackControlConfig::recorder`] for arming and `gfsc_obs::explain`
/// for reading a recorded run back.
pub use gfsc_obs as obs;
