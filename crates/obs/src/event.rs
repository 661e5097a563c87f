//! The compact decision-event model.
//!
//! An [`Event`] is 24 bytes: the controller epoch it happened in, the
//! [`Source`] that acted or was acted upon, a pre-registered
//! [`EventKind`], and one `f64` payload whose meaning is fixed per kind
//! (a temperature, a cap, an rpm, a count, a reason code). Everything
//! is `Copy`, so recording is a store, not an allocation.

use std::fmt;

/// Where an event originated: the rack as a whole, a fan-wall zone, a
/// capped socket, or a server sled (migration endpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Source {
    /// Rack-global decisions (arbitration budget, descent, watchdog).
    #[default]
    Rack,
    /// A fan-wall zone.
    Zone(u16),
    /// A capped socket.
    Socket(u16),
    /// A server sled (work-migration endpoint).
    Server(u16),
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Rack => write!(f, "rack"),
            Self::Zone(z) => write!(f, "z{z}"),
            Self::Socket(s) => write!(f, "s{s}"),
            Self::Server(s) => write!(f, "srv{s}"),
        }
    }
}

impl Source {
    /// Parses the `Display` form back (`rack`, `z3`, `s7`, `srv2`).
    ///
    /// # Errors
    ///
    /// Returns the unparseable token.
    pub fn parse(token: &str) -> Result<Self, String> {
        let index = |rest: &str| rest.parse::<u16>().map_err(|_| format!("bad source: {token}"));
        if token == "rack" {
            Ok(Self::Rack)
        } else if let Some(rest) = token.strip_prefix("srv") {
            Ok(Self::Server(index(rest)?))
        } else if let Some(rest) = token.strip_prefix('z') {
            Ok(Self::Zone(index(rest)?))
        } else if let Some(rest) = token.strip_prefix('s') {
            Ok(Self::Socket(index(rest)?))
        } else {
            Err(format!("bad source: {token}"))
        }
    }
}

/// Pre-registered event kinds — the fixed vocabulary of controller
/// decisions. Each kind documents what its `f64` payload means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum EventKind {
    /// A socket's (possibly lag-filtered) reading crossed into the
    /// capper's attention. Payload: measured °C.
    #[default]
    SocketHot,
    /// The integral capper proposed a cut. Payload: proposed cap (0–1).
    CapProposal,
    /// A cap was granted. A socket: the coordinator granted its capper's
    /// cut. A zone: an E-coord mode moved the cap every socket in the
    /// zone runs under. The rack: the lockstep baseline's aggregate
    /// capper moved the one cap every socket runs under. Payload: the
    /// granted cap (0–1).
    CapGrant,
    /// The coordinator's per-epoch cut budget ran out before this
    /// proposal. Payload: the proposal that was held (0–1).
    CapDenied,
    /// An emergency forced a knob. A socket: the coordinator's cut
    /// bypassed the budget (reading past the emergency threshold);
    /// payload: enforced cap (0–1). A zone: E-coord pinned the wall at
    /// its maximum because the zone cap sat at its floor; payload: the
    /// pinned speed, rpm.
    EmergencyClamp,
    /// Rack-level marker that the cut budget was exhausted this epoch.
    /// Payload: number of held proposals.
    BudgetExhausted,
    /// The migrator shifted load away from a hot source. Payload:
    /// source temperature, °C.
    MigrationShift,
    /// The absorbing sled accepted migrated load. Payload: absorber
    /// temperature, °C.
    MigrationAbsorb,
    /// A ledgered migration was reversed (source cooled or absorber
    /// refluxed). Payload: source temperature, °C.
    MigrationReverse,
    /// Gauss–Seidel descent finished an epoch. Payload: sweeps used.
    DescentSweeps,
    /// Descent convergence residual — the largest single-zone move in
    /// the final sweep. Payload: rpm.
    DescentResidual,
    /// A zone's descent target after the sweep. Payload: rpm.
    DescentTarget,
    /// Descent pinned a zone at its upper bound because no safe speed
    /// exists within bounds. Payload: rpm (the bound).
    DescentPinned,
    /// A single-step zone entered boost. Payload: measured °C.
    SsBoost,
    /// A boosting zone held its raised speed. Payload: measured °C.
    SsHold,
    /// A zone released boost on its own thermal verdict. Payload:
    /// measured °C.
    SsRelease,
    /// The rack-level plenum guard released a zone that was only hot
    /// from a neighbour's borrowed heat. Payload: measured °C.
    SsGuardRelease,
    /// The daemon watchdog handed the rack to firmware. Payload:
    /// reason code (see [`crate::fallback_reason_label`]).
    FallbackEntered,
    /// Closed-loop control re-engaged. Payload: reason code of the
    /// fallback being exited.
    FallbackExited,
    /// A paced control cycle started past its wall-clock deadline.
    /// Payload: lateness, wall seconds.
    DeadlineMissed,
    /// A paced control cycle's work ran longer than its period.
    /// Payload: cycle duration, wall seconds.
    CycleOverrun,
}

impl EventKind {
    /// Number of registered kinds (sizes per-kind counter arrays).
    pub const COUNT: usize = 21;

    /// Every kind, in declaration order (indexable by `self as usize`).
    pub const ALL: [Self; Self::COUNT] = [
        Self::SocketHot,
        Self::CapProposal,
        Self::CapGrant,
        Self::CapDenied,
        Self::EmergencyClamp,
        Self::BudgetExhausted,
        Self::MigrationShift,
        Self::MigrationAbsorb,
        Self::MigrationReverse,
        Self::DescentSweeps,
        Self::DescentResidual,
        Self::DescentTarget,
        Self::DescentPinned,
        Self::SsBoost,
        Self::SsHold,
        Self::SsRelease,
        Self::SsGuardRelease,
        Self::FallbackEntered,
        Self::FallbackExited,
        Self::DeadlineMissed,
        Self::CycleOverrun,
    ];

    /// Stable kebab-case slug (text serialisation + line-protocol tag).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::SocketHot => "socket-hot",
            Self::CapProposal => "cap-proposal",
            Self::CapGrant => "cap-grant",
            Self::CapDenied => "cap-denied",
            Self::EmergencyClamp => "emergency-clamp",
            Self::BudgetExhausted => "budget-exhausted",
            Self::MigrationShift => "migration-shift",
            Self::MigrationAbsorb => "migration-absorb",
            Self::MigrationReverse => "migration-reverse",
            Self::DescentSweeps => "descent-sweeps",
            Self::DescentResidual => "descent-residual",
            Self::DescentTarget => "descent-target",
            Self::DescentPinned => "descent-pinned",
            Self::SsBoost => "ss-boost",
            Self::SsHold => "ss-hold",
            Self::SsRelease => "ss-release",
            Self::SsGuardRelease => "ss-guard-release",
            Self::FallbackEntered => "fallback-entered",
            Self::FallbackExited => "fallback-exited",
            Self::DeadlineMissed => "deadline-missed",
            Self::CycleOverrun => "cycle-overrun",
        }
    }

    /// Parses a [`label`](Self::label) back into its kind.
    ///
    /// # Errors
    ///
    /// Returns the unknown label.
    pub fn from_label(label: &str) -> Result<Self, String> {
        Self::ALL
            .iter()
            .copied()
            .find(|k| k.label() == label)
            .ok_or_else(|| format!("unknown event kind: {label}"))
    }
}

/// One recorded controller decision.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Event {
    /// The CPU control epoch the event happened in: its instant over
    /// the CPU control interval, so stamp × interval is the time.
    pub epoch: u32,
    /// Who decided / was decided about.
    pub source: Source,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (see each [`EventKind`] variant).
    pub value: f64,
}

impl Event {
    /// Convenience constructor.
    #[must_use]
    pub fn new(epoch: u32, source: Source, kind: EventKind, value: f64) -> Self {
        Self { epoch, source, kind, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_every_kind() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_label(kind.label()).unwrap(), kind);
        }
        assert!(EventKind::from_label("not-a-kind").is_err());
    }

    #[test]
    fn all_is_in_declaration_order() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "ALL[{i}] = {kind:?} out of order");
        }
    }

    #[test]
    fn sources_round_trip() {
        for source in [Source::Rack, Source::Zone(3), Source::Socket(11), Source::Server(2)] {
            assert_eq!(Source::parse(&source.to_string()).unwrap(), source);
        }
        assert!(Source::parse("q9").is_err());
        assert!(Source::parse("sx").is_err());
    }
}
