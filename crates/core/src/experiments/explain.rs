//! Decision explanation (extension): causal timelines from recorded
//! rack runs and from spilled sweep cells.
//!
//! Two entry points feed the same renderer
//! ([`gfsc_obs::explain::render_timeline`]):
//!
//! - [`run`] flies a rack simulation with the flight recorder armed and
//!   returns the recorded decision stream plus its rendered timeline —
//!   "epoch 412: s7 measured 79.3 °C, capper proposed cap 0.620 for s7,
//!   coordinator granted cap 0.700 to s7" — straight from the
//!   controllers' own instrumentation.
//! - [`events_from_traces`] reconstructs a best-effort pseudo-event
//!   stream from an epoch-rate [`TraceSet`] (e.g. a sweep cell spilled
//!   to disk by the batched engine, reopened with
//!   [`gfsc_sim::SpilledTraces`]), so cells recorded *without* the
//!   recorder can still be read as a story: cap-channel moves become
//!   cap grants, fan-channel retargets become descent targets.
//!
//! The `gfsc-explain` binary in `gfsc-bench` wraps both paths for the
//! command line; the daemon's HIL drills exercise the recorded path
//! over fault injections.

use gfsc_coord::{RackControl, RackLoopSim};
use gfsc_obs::explain::render_timeline;
use gfsc_obs::{Event, EventKind, FlightSnapshot, Source};
use gfsc_rack::{RackSpec, RackTopology};
use gfsc_sim::TraceSet;
use gfsc_units::Seconds;

/// Configuration of a recorded explanation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainConfig {
    /// The rack to fly.
    pub rack: RackTopology,
    /// The control mode whose decisions get recorded.
    pub control: RackControl,
    /// Simulated duration.
    pub horizon: Seconds,
    /// Seed of the paper's workload ([`crate::date14_workload`]); the
    /// run is deterministic given the seed.
    pub seed: u64,
    /// Flight-recorder ring capacity, in events.
    pub capacity: usize,
}

impl Default for ExplainConfig {
    /// The global energy descent on the 1U×8 rack under the paper's
    /// spiking workload: the load spikes drive walls to their maximum
    /// (emergency clamps) and zone caps down and back up (cap grants),
    /// between the descent's sweeps, residuals and per-zone targets.
    fn default() -> Self {
        Self {
            rack: RackTopology::rack_1u_x8(),
            control: RackControl::GlobalECoord,
            horizon: Seconds::new(600.0),
            seed: 42,
            capacity: 4096,
        }
    }
}

/// A recorded run and its rendered story.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReport {
    /// The raw decision stream (serialize with
    /// [`FlightSnapshot::to_text`]).
    pub flight: FlightSnapshot,
    /// The per-epoch causal timeline.
    pub timeline: String,
    /// Violated socket-epochs percentage, for the report header.
    pub violation_percent: f64,
}

/// Flies `config` with the recorder armed and renders the timeline.
///
/// # Panics
///
/// Panics if `config.capacity` is zero.
#[must_use]
pub fn run(config: &ExplainConfig) -> ExplainReport {
    let mut sim = RackLoopSim::builder(RackSpec::new(config.rack.clone()))
        .workload(crate::date14_workload(config.seed))
        .control(config.control)
        .flight_recorder(config.capacity)
        .build();
    let outcome = sim.run(config.horizon);
    let flight = outcome.flight.expect("recorder was armed");
    let timeline = render_timeline(&flight);
    ExplainReport { flight, timeline, violation_percent: outcome.violation_percent }
}

/// Reconstructs a pseudo-event stream from an epoch-rate trace set.
///
/// Spilled cells carry outcomes, not decision provenance, so the
/// mapping is the best the channels support: every `s{i}_cap` move
/// becomes a cap grant at that socket (preceded by the socket's
/// junction reading when `s{i}_t_junction_c` is present), every
/// `z{z}_fan_rpm` retarget becomes a descent target at that zone. The
/// sample index is the epoch stamp. Channels that don't match the rack
/// naming scheme are ignored.
#[must_use]
pub fn events_from_traces(traces: &TraceSet) -> FlightSnapshot {
    let junctions: Vec<(u16, &[f64])> = traces
        .iter()
        .filter_map(|t| {
            let id = t.name().strip_prefix('s')?.strip_suffix("_t_junction_c")?;
            Some((id.parse().ok()?, t.values()))
        })
        .collect();
    let mut events = Vec::new();
    for trace in traces.iter() {
        let name = trace.name();
        let values = trace.values();
        if let Some(i) =
            name.strip_prefix('s').and_then(|n| n.strip_suffix("_cap")).and_then(|n| n.parse().ok())
        {
            for (k, pair) in values.windows(2).enumerate() {
                if pair[1] != pair[0] {
                    let epoch = u32::try_from(k + 1).unwrap_or(u32::MAX);
                    if let Some(hot) =
                        junctions.iter().find(|(j, _)| *j == i).and_then(|(_, t)| t.get(k + 1))
                    {
                        events.push(Event::new(
                            epoch,
                            Source::Socket(i),
                            EventKind::SocketHot,
                            *hot,
                        ));
                    }
                    events.push(Event::new(epoch, Source::Socket(i), EventKind::CapGrant, pair[1]));
                }
            }
        } else if let Some(z) = name
            .strip_prefix('z')
            .and_then(|n| n.strip_suffix("_fan_rpm"))
            .and_then(|n| n.parse().ok())
        {
            for (k, pair) in values.windows(2).enumerate() {
                if pair[1] != pair[0] {
                    let epoch = u32::try_from(k + 1).unwrap_or(u32::MAX);
                    events.push(Event::new(
                        epoch,
                        Source::Zone(z),
                        EventKind::DescentTarget,
                        pair[1],
                    ));
                }
            }
        }
    }
    events.sort_by_key(|e| e.epoch);
    let recorded = events.len() as u64;
    FlightSnapshot { capacity: events.len().max(1), recorded, dropped: 0, events }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_run_narrates_its_decisions() {
        let report =
            run(&ExplainConfig { horizon: Seconds::new(240.0), ..ExplainConfig::default() });
        assert!(!report.flight.events.is_empty(), "descent run recorded nothing");
        // The descent's own instrumentation is on the stream, and the
        // load spikes show the rule set at work: a wall pinned at its
        // maximum and a zone cap moved.
        for kind in [EventKind::DescentSweeps, EventKind::EmergencyClamp, EventKind::CapGrant] {
            assert!(
                report.flight.events.iter().any(|e| e.kind == kind),
                "no {} events: {:?}",
                kind.label(),
                report.flight.events
            );
        }
        // …and the timeline narrates it grouped by epoch.
        assert!(report.timeline.contains("epoch "), "{}", report.timeline);
        assert!(report.timeline.contains("Gauss–Seidel sweeps"), "{}", report.timeline);
        // Deterministic given the seed.
        let again =
            run(&ExplainConfig { horizon: Seconds::new(240.0), ..ExplainConfig::default() });
        assert_eq!(report, again);
    }

    #[test]
    fn trace_deltas_become_pseudo_events_in_epoch_order() {
        let mut traces = TraceSet::new();
        let cap = traces.channel("s2_cap");
        traces.record_by_id(cap, Seconds::new(0.0), 1.0);
        traces.record_by_id(cap, Seconds::new(1.0), 1.0);
        traces.record_by_id(cap, Seconds::new(2.0), 0.8);
        let hot = traces.channel("s2_t_junction_c");
        traces.record_by_id(hot, Seconds::new(0.0), 70.0);
        traces.record_by_id(hot, Seconds::new(1.0), 79.0);
        traces.record_by_id(hot, Seconds::new(2.0), 81.5);
        let fan = traces.channel("z1_fan_rpm");
        traces.record_by_id(fan, Seconds::new(0.0), 1500.0);
        traces.record_by_id(fan, Seconds::new(1.0), 2400.0);
        traces.record_by_id(fan, Seconds::new(2.0), 2400.0);
        let snap = events_from_traces(&traces);
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.events[0].epoch, 1);
        assert_eq!(snap.events[0].kind, EventKind::DescentTarget);
        assert_eq!(snap.events[1], Event::new(2, Source::Socket(2), EventKind::SocketHot, 81.5));
        assert_eq!(snap.events[2], Event::new(2, Source::Socket(2), EventKind::CapGrant, 0.8));
        let text = render_timeline(&snap);
        assert!(text.contains("s2 measured 81.5 °C"), "{text}");
        assert!(text.contains("coordinator granted cap 0.800 to s2"), "{text}");
        assert!(text.contains("descent set z1 to 2400 rpm"), "{text}");
    }
}
