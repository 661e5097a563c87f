//! Causal timeline rendering — the human-readable face of a
//! [`FlightSnapshot`].
//!
//! Groups events by epoch and narrates each one ("epoch 412: s7
//! measured 79.3 °C, capper proposed cap 0.62, …"), so a fault drill or
//! a diverging sweep cell can be read as a story instead of diffed as
//! raw trace channels. The renderer is deliberately dependency-free: it
//! works on snapshots parsed back from `.events` files just as well as
//! on live recorders.

use crate::event::{Event, EventKind, Source};
use crate::fallback_reason_label;
use crate::recorder::FlightSnapshot;
use std::fmt::Write as _;

/// Narrates one event (without its epoch — the timeline groups those).
#[must_use]
pub fn narrate(event: &Event) -> String {
    let src = event.source;
    let v = event.value;
    match event.kind {
        EventKind::SocketHot => format!("{src} measured {v:.1} °C"),
        EventKind::CapProposal => format!("capper proposed cap {v:.3} for {src}"),
        EventKind::CapGrant => match src {
            Source::Zone(_) => format!("zone cap of {src} set to {v:.3}"),
            Source::Rack => format!("rack capper set every cap to {v:.3}"),
            Source::Socket(_) | Source::Server(_) => {
                format!("coordinator granted cap {v:.3} to {src}")
            }
        },
        EventKind::CapDenied => format!("budget held {src}'s proposal at {v:.3}"),
        EventKind::EmergencyClamp => match src {
            Source::Zone(_) => format!("emergency clamp pinned {src}'s wall at {v:.0} rpm"),
            _ => format!("emergency clamp forced {src} to {v:.3}"),
        },
        EventKind::BudgetExhausted => format!("cut budget exhausted ({v:.0} proposals held)"),
        EventKind::MigrationShift => format!("migrator shifted load off {src} ({v:.1} °C)"),
        EventKind::MigrationAbsorb => format!("{src} absorbed migrated load ({v:.1} °C)"),
        EventKind::MigrationReverse => format!("migration at {src} reversed ({v:.1} °C)"),
        EventKind::DescentSweeps => format!("energy descent ran {v:.0} Gauss–Seidel sweeps"),
        EventKind::DescentResidual => format!("descent convergence residual {v:.2} rpm"),
        EventKind::DescentTarget => format!("descent set {src} to {v:.0} rpm"),
        EventKind::DescentPinned => format!("descent pinned {src} at its {v:.0} rpm bound"),
        EventKind::SsBoost => format!("{src} boosted its wall ({v:.1} °C)"),
        EventKind::SsHold => format!("{src} held its boost ({v:.1} °C)"),
        EventKind::SsRelease => format!("{src} released its boost ({v:.1} °C)"),
        EventKind::SsGuardRelease => {
            format!("plenum guard released {src} ({v:.1} °C is a neighbour's borrowed heat)")
        }
        EventKind::FallbackEntered => {
            format!("watchdog entered firmware fallback ({})", fallback_reason_label(v))
        }
        EventKind::FallbackExited => {
            format!("closed loop re-engaged (after {})", fallback_reason_label(v))
        }
        EventKind::DeadlineMissed => {
            format!("control cycle started {v:.3} s past its wall deadline")
        }
        EventKind::CycleOverrun => format!("control cycle overran its period ({v:.3} s of work)"),
    }
}

/// Renders the snapshot as a per-epoch causal timeline: a loss-
/// accounting header, then one `epoch N:` block per epoch that has
/// events, each event narrated on its own indented line.
#[must_use]
pub fn render_timeline(snapshot: &FlightSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight recorder: {} events kept (capacity {}), {} recorded, {} dropped",
        snapshot.events.len(),
        snapshot.capacity,
        snapshot.recorded,
        snapshot.dropped,
    );
    if snapshot.dropped > 0 {
        let _ = writeln!(
            out,
            "  (ring saturated — the {} oldest events were evicted; timeline starts mid-run)",
            snapshot.dropped
        );
    }
    let mut current: Option<u32> = None;
    for event in &snapshot.events {
        if current != Some(event.epoch) {
            current = Some(event.epoch);
            let _ = writeln!(out, "\nepoch {}:", event.epoch);
        }
        let _ = writeln!(out, "  {}", narrate(event));
    }
    if snapshot.events.is_empty() {
        let _ = writeln!(out, "(no events recorded)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_groups_by_epoch_and_narrates_causally() {
        let snap = FlightSnapshot {
            capacity: 64,
            recorded: 4,
            dropped: 0,
            events: vec![
                Event::new(412, Source::Socket(7), EventKind::SocketHot, 79.3),
                Event::new(412, Source::Socket(7), EventKind::CapProposal, 0.62),
                Event::new(412, Source::Socket(7), EventKind::CapGrant, 0.7),
                Event::new(413, Source::Rack, EventKind::BudgetExhausted, 2.0),
            ],
        };
        let text = render_timeline(&snap);
        assert!(text.contains("epoch 412:"), "{text}");
        assert!(text.contains("s7 measured 79.3 °C"), "{text}");
        assert!(text.contains("capper proposed cap 0.620 for s7"), "{text}");
        assert!(text.contains("coordinator granted cap 0.700 to s7"), "{text}");
        assert!(text.contains("epoch 413:"), "{text}");
        assert!(text.contains("cut budget exhausted (2 proposals held)"), "{text}");
        // One heading per distinct epoch, in order.
        let headings: Vec<&str> = text.lines().filter(|l| l.starts_with("epoch ")).collect();
        assert_eq!(headings, vec!["epoch 412:", "epoch 413:"]);
    }

    #[test]
    fn saturated_ring_is_called_out() {
        let snap = FlightSnapshot { capacity: 2, recorded: 9, dropped: 7, events: vec![] };
        let text = render_timeline(&snap);
        assert!(text.contains("7 dropped"), "{text}");
        assert!(text.contains("ring saturated"), "{text}");
    }

    #[test]
    fn cap_grants_and_clamps_narrate_by_source() {
        let narrated = |source, kind, value| narrate(&Event::new(7, source, kind, value));
        assert_eq!(
            narrated(Source::Zone(1), EventKind::CapGrant, 0.9),
            "zone cap of z1 set to 0.900"
        );
        assert_eq!(
            narrated(Source::Rack, EventKind::CapGrant, 0.9),
            "rack capper set every cap to 0.900"
        );
        assert_eq!(
            narrated(Source::Zone(1), EventKind::EmergencyClamp, 8500.0),
            "emergency clamp pinned z1's wall at 8500 rpm"
        );
        assert_eq!(
            narrated(Source::Socket(3), EventKind::EmergencyClamp, 0.98),
            "emergency clamp forced s3 to 0.980"
        );
    }

    #[test]
    fn fallback_events_narrate_their_reason() {
        let entered = Event::new(120, Source::Rack, EventKind::FallbackEntered, 0.0);
        let exited = Event::new(310, Source::Rack, EventKind::FallbackExited, 0.0);
        assert_eq!(narrate(&entered), "watchdog entered firmware fallback (sensor-loss)");
        assert_eq!(narrate(&exited), "closed loop re-engaged (after sensor-loss)");
    }
}
