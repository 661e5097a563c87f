//! The two-layer rack controller: per-socket capping under a rack
//! coordinator, per-zone fan loops (paper machinery, one level up).
//!
//! The single-server stack couples one fan loop with one capper. A rack
//! couples a *bank* of both: every fan zone runs its own PID loop on its
//! own aggregated measurement, every socket runs its own adjustable-gain
//! integral capper (after Rao et al.'s adjustable-gain integral thermal
//! controllers, PAPERS.md), and a [`CappingCoordinator`] arbitrates the
//! layer in between — which sockets' cuts are honored this epoch, and
//! what reference each zone's fan loop regulates to
//! (topology-aware: zones breathing worse air get earlier airflow).
//!
//! [`RackLoopSim`] closes the loop over `gfsc_rack::RackServer` across
//! the full rack solution matrix:
//!
//! - [`RackControl::GlobalLockstep`] — the deliberately-naive baseline:
//!   one PID on the rack-wide max measurement commands *every* zone in
//!   lockstep (reading the *fastest* wall's speed as "the" fan speed),
//!   one deadzone capper caps *every* socket on the same aggregate. This
//!   is the single-server controller scaled without thought, and it
//!   overpays exactly where the paper's intuition says: the cool wall
//!   spins as fast as the hot one (cubic fan power), and a single hot
//!   socket caps the whole rack.
//! - [`RackControl::Coordinated`] — the two-layer controller this crate
//!   proposes for racks.
//! - [`RackControl::CoordinatedSsFan`] — plus a per-zone single-step
//!   fan-scaling bank ([`ZoneSsFanBank`], Section V-C per zone).
//! - [`RackControl::CoordinatedECoord`] — the E-coord baseline lifted to
//!   zones ([`crate::EnergyAwareCoordinator::fan_command`]): per-zone
//!   energy-first caps and model-minimal airflow, each wall sized by the
//!   rack's min-safe inversion.

use crate::{AdaptiveReference, RackChannels, RackControlBank, RackControlConfig, RunOutcome};
use gfsc_control::GainSchedule;
use gfsc_obs::{EventKind, Recorder, Source};
use gfsc_rack::{RackServer, RackSpec};
use gfsc_sim::{plant_steps, Cadence, TraceSet};
use gfsc_units::{total_max, total_min, Bounds, Celsius, Rpm, Seconds, Utilization};
use gfsc_workload::Workload;

/// A per-socket adjustable-gain integral cap controller (after Rao et
/// al.): the cap *is* the integral state, stepped by `−gain · error` each
/// epoch, with the gain boosted when the error is large.
///
/// Against the deadzone capper of Section III-A this trades the fixed
/// step for error-proportional correction: small overshoots shave the cap
/// gently (less lost work), deep excursions cut hard (the adjustable
/// gain), and the cap recovers smoothly as the socket cools below its
/// reference.
///
/// # Examples
///
/// ```
/// use gfsc_coord::IntegralCapper;
/// use gfsc_units::{Celsius, Utilization};
///
/// let capper = IntegralCapper::date14_rack();
/// let cap = Utilization::new(0.8);
/// // Hot socket: the proposal cuts in proportion to the excess.
/// assert!(capper.propose(Celsius::new(81.0), cap) < cap);
/// // Cool socket: the integral action restores performance.
/// assert!(capper.propose(Celsius::new(70.0), cap) > cap);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IntegralCapper {
    reference: Celsius,
    gain: f64,
    boost: f64,
    boost_band: f64,
    bounds: Bounds<Utilization>,
}

impl IntegralCapper {
    /// Creates a capper regulating the socket measurement to `reference`.
    ///
    /// # Panics
    ///
    /// Panics if `gain` is not positive, `boost < 1`, or `boost_band` is
    /// negative.
    #[must_use]
    pub fn new(
        reference: Celsius,
        gain: f64,
        boost: f64,
        boost_band: f64,
        bounds: Bounds<Utilization>,
    ) -> Self {
        assert!(gain > 0.0, "integral gain must be positive");
        assert!(boost >= 1.0, "gain boost must be at least 1");
        assert!(boost_band >= 0.0, "boost band must be non-negative");
        Self { reference, gain, boost, boost_band, bounds }
    }

    /// The rack calibration: regulate each socket to 79 °C (one kelvin
    /// under the 80 °C safe limit), 2 %/K·epoch base gain boosted 3× past
    /// a 2 K excursion, cap range 10–100 %.
    #[must_use]
    pub fn date14_rack() -> Self {
        Self::new(
            Celsius::new(79.0),
            0.02,
            3.0,
            2.0,
            Bounds::new(Utilization::new(0.10), Utilization::FULL),
        )
    }

    /// The cap reference temperature.
    #[must_use]
    pub fn reference(&self) -> Celsius {
        self.reference
    }

    /// One decision: the proposed next cap for this socket's measurement.
    #[must_use]
    pub fn propose(&self, measured: Celsius, current: Utilization) -> Utilization {
        let error = measured - self.reference;
        let gain = if error.abs() > self.boost_band { self.gain * self.boost } else { self.gain };
        self.bounds.clamp(current.saturating_add(-gain * error))
    }
}

/// The rack arbitration layer: which sockets' proposed cap cuts are
/// honored this epoch.
///
/// Raises always pass (restoring performance costs nothing thermally).
/// Cuts compete for a per-epoch budget: only the `max_cuts_per_epoch`
/// hottest cut-proposing sockets are granted, the rest hold — one knob at
/// a time, rack edition, biased toward performance exactly like Table II.
/// A socket at or above the emergency limit bypasses the budget — but an
/// emergency only fast-tracks *cuts*: a socket proposing a raise while at
/// the limit (possible right after a reference change, or with a
/// boosted-gain overshoot) is clamped to its current cap, never raised.
#[derive(Debug, Clone)]
pub struct CappingCoordinator {
    max_cuts_per_epoch: usize,
    t_emergency: Celsius,
    /// Per-socket grant marks, reused every epoch (no allocation).
    granted: Vec<bool>,
    /// Per-socket emergency marks, reused every epoch (no allocation).
    emergency: Vec<bool>,
}

impl CappingCoordinator {
    /// Creates the coordinator for `sockets` sockets with a per-epoch cut
    /// budget and the DTM emergency limit.
    ///
    /// # Panics
    ///
    /// Panics if `max_cuts_per_epoch` or `sockets` is zero.
    #[must_use]
    pub fn new(sockets: usize, max_cuts_per_epoch: usize, t_emergency: Celsius) -> Self {
        assert!(sockets > 0, "coordinator needs at least one socket");
        assert!(max_cuts_per_epoch > 0, "cut budget must be positive");
        Self {
            max_cuts_per_epoch,
            t_emergency,
            granted: vec![false; sockets],
            emergency: vec![false; sockets],
        }
    }

    /// The per-epoch cut budget.
    #[must_use]
    pub fn max_cuts_per_epoch(&self) -> usize {
        self.max_cuts_per_epoch
    }

    /// Arbitrates one epoch in place: `caps[i]` becomes the enforced cap
    /// for socket `i`, given the capper proposals and per-socket
    /// measurements. Every granted cut, its triggering measurement,
    /// emergency clamps, and held (budget-denied) proposals land in `rec`
    /// as `epoch`-stamped events (pass [`Recorder::disarmed`] to trace
    /// nothing). Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the socket count.
    pub fn arbitrate(
        &mut self,
        measured: &[Celsius],
        caps: &mut [Utilization],
        proposed: &[Utilization],
        epoch: u32,
        rec: &mut Recorder,
    ) {
        assert_eq!(measured.len(), self.granted.len(), "one measurement per socket");
        assert_eq!(caps.len(), self.granted.len(), "one cap per socket");
        assert_eq!(proposed.len(), self.granted.len(), "one proposal per socket");
        self.granted.fill(false);
        // Emergencies and raises first: both always pass the budget. An
        // emergency grant is applied clamped below — it may only cut.
        for i in 0..caps.len() {
            self.emergency[i] = measured[i] >= self.t_emergency;
            if proposed[i] >= caps[i] || self.emergency[i] {
                self.granted[i] = true;
            }
        }
        // Grant the budgeted cuts hottest-first (stable: lowest index wins
        // ties, so arbitration is deterministic).
        for _ in 0..self.max_cuts_per_epoch {
            let mut pick: Option<usize> = None;
            for i in 0..caps.len() {
                if self.granted[i] || proposed[i] >= caps[i] {
                    continue;
                }
                // Total order, not PartialOrd: bit-identical for the
                // (never-NaN) Celsius values, and the selection stays
                // well-defined if the invariant is ever violated.
                if pick.is_none_or(|p| measured[i].total_cmp(&measured[p]).is_gt()) {
                    pick = Some(i);
                }
            }
            match pick {
                Some(i) => self.granted[i] = true,
                None => break,
            }
        }
        let mut denied = 0u32;
        for i in 0..caps.len() {
            let src = Source::Socket(i as u16);
            let cut = proposed[i] < caps[i];
            if self.granted[i] {
                if cut {
                    rec.record(epoch, src, EventKind::SocketHot, measured[i].value());
                    rec.record(epoch, src, EventKind::CapProposal, proposed[i].value());
                }
                // The emergency fast-track only honors the cut direction:
                // granting a *raise* to a socket already at the limit
                // would feed the excursion it is supposed to stop.
                // gfsc-lint: allow(nan-maxmin) Utilization is NaN-free by construction (asserting constructor) and its min() folds with a total order internally
                caps[i] = if self.emergency[i] { proposed[i].min(caps[i]) } else { proposed[i] };
                if cut {
                    let kind = if self.emergency[i] {
                        EventKind::EmergencyClamp
                    } else {
                        EventKind::CapGrant
                    };
                    rec.record(epoch, src, kind, caps[i].value());
                }
            } else if cut {
                denied += 1;
                rec.record(epoch, src, EventKind::CapDenied, proposed[i].value());
            }
        }
        if denied > 0 {
            rec.record(epoch, Source::Rack, EventKind::BudgetExhausted, f64::from(denied));
        }
    }
}

/// Per-zone fan references, topology-aware: each zone runs the predictive
/// set-point scheme of Section V-B on *its own* predicted demand, shifted
/// down by a margin proportional to how much worse than the best zone its
/// air is (worse-breathing zones heat faster, so they get headroom
/// earlier).
#[derive(Debug, Clone)]
pub struct ZoneReferences {
    schedulers: Vec<AdaptiveReference>,
    offsets: Vec<f64>,
}

impl ZoneReferences {
    /// Builds one scheduler per zone from the rack structure.
    /// `derate_shading` is the reference penalty in kelvin per unit of
    /// excess airflow derate over the best *populated* zone (0 disables
    /// the topology-aware shift).
    ///
    /// A slotless zone is not a thermal participant: it contributes no
    /// derate to the "best zone" anchor (its worst-derate accumulator
    /// would otherwise sit at 0 and shade every populated zone by its
    /// *absolute* derate) and gets a zero offset of its own.
    ///
    /// # Panics
    ///
    /// Panics if `derate_shading` is negative.
    #[must_use]
    pub fn for_rack(spec: &RackSpec, derate_shading: f64) -> Self {
        assert!(derate_shading >= 0.0, "derate shading must be non-negative");
        let zones = spec.rack.zones().len();
        let mut worst = vec![f64::NAN; zones];
        for slot in spec.rack.servers() {
            for socket in slot.board.sockets() {
                let derate = slot.airflow_derate * socket.airflow_derate;
                let entry = &mut worst[slot.zone];
                *entry = if entry.is_nan() { derate } else { total_max(*entry, derate) };
            }
        }
        // The anchor is the best populated zone; NaN (slotless) entries
        // fall out of both the fold and the offsets.
        let best = worst.iter().copied().filter(|w| !w.is_nan()).fold(f64::INFINITY, total_min);
        let offsets = worst
            .iter()
            .map(|w| if w.is_nan() { 0.0 } else { -derate_shading * (w - best) })
            .collect();
        let schedulers = (0..zones).map(|_| AdaptiveReference::date14()).collect();
        Self { schedulers, offsets }
    }

    /// Feeds one epoch of zone demand into zone `z`'s predictor.
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    pub fn observe(&mut self, z: usize, demand: Utilization) {
        self.schedulers[z].observe(demand);
    }

    /// Zone `z`'s current fan reference.
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    #[must_use]
    pub fn reference(&self, z: usize) -> Celsius {
        self.schedulers[z].reference() + self.offsets[z]
    }

    /// The static topology offset of zone `z` (0 for the best-breathing
    /// zone, negative for the rest).
    #[must_use]
    pub fn offset(&self, z: usize) -> f64 {
        self.offsets[z]
    }
}

/// How the rack is controlled — the rack-scale solution matrix, mirroring
/// the single-server [`crate::Coordinator`] line-up one level up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RackControl {
    /// The naive baseline: one fan loop on the rack-wide aggregate drives
    /// every zone in lockstep; one deadzone capper caps every socket.
    GlobalLockstep,
    /// The two-layer controller: per-zone fan loops, per-socket integral
    /// cappers, arbitration and (optionally) topology-aware adaptive
    /// per-zone references.
    Coordinated {
        /// Adapt each zone's fan reference to its predicted demand
        /// (Section V-B per zone); `false` pins every zone to the fixed
        /// reference.
        adaptive_reference: bool,
    },
    /// [`RackControl::Coordinated`] plus a per-zone single-step fan
    /// scaling bank (Section V-C per zone): each zone boosts its own wall
    /// on its own sockets' recent violation rate and, on release,
    /// descends straight to the zone's minimum safe speed for the
    /// predicted load.
    CoordinatedSsFan {
        /// Adapt each zone's fan reference to its predicted demand.
        adaptive_reference: bool,
    },
    /// The E-coord baseline lifted to zones: each zone's cap follows the
    /// energy-first policy on the zone measurement, and each wall runs
    /// the model-minimal airflow, sized by the rack's min-safe inversion
    /// with every other wall at its actual speed. In an emergency the cap
    /// cut wins; once the zone cap sits at its floor the wall is pinned
    /// at its maximum, recorded as an `EmergencyClamp` carrying the pinned
    /// speed. The integral capper bank is bypassed — E-coord brings its
    /// own cap policy, exactly as it does on a single server.
    CoordinatedECoord,
    /// The rack-global energy descent ([`crate::RackEnergyDescent`]): the
    /// same rule set as [`RackControl::CoordinatedECoord`] for zone caps
    /// and emergency pins, run by the same arm of the rack bank, but every
    /// wall outside an emergency is sized *jointly* against the full
    /// coupled rack (Gauss–Seidel over the whole-rack min-safe probes)
    /// instead of one at a time against its neighbours' actual speeds —
    /// one zone's boost traded against a plenum-coupled neighbour's
    /// release inside the solver.
    GlobalECoord,
    /// [`RackControl::Coordinated`] plus the [`crate::WorkMigrator`]: before the
    /// capper bank cuts a hot socket, a slice of its server's demand
    /// weight is shifted to a thermally-headroomed server behind another
    /// fan wall (budgeted, hottest-first, reversed on cool-down) — move
    /// the job, not the cap.
    MigratingCoordinated {
        /// Adapt each zone's fan reference to its predicted demand.
        adaptive_reference: bool,
    },
}

impl RackControl {
    /// Every control mode, matrix order (baseline first, the two
    /// rack-native extensions last).
    pub const ALL: [RackControl; 7] = [
        RackControl::GlobalLockstep,
        RackControl::Coordinated { adaptive_reference: false },
        RackControl::Coordinated { adaptive_reference: true },
        RackControl::CoordinatedSsFan { adaptive_reference: true },
        RackControl::CoordinatedECoord,
        RackControl::GlobalECoord,
        RackControl::MigratingCoordinated { adaptive_reference: true },
    ];

    /// Every mode with its label — all nine, including the two
    /// `adaptive_reference: false` variants [`Self::ALL`] omits. The one
    /// source [`Self::label`] and [`Self::from_label`] read.
    const LABELS: [(RackControl, &'static str); 9] = [
        (RackControl::GlobalLockstep, "lockstep"),
        (RackControl::Coordinated { adaptive_reference: false }, "coordinated"),
        (RackControl::Coordinated { adaptive_reference: true }, "coordinated+adaptive"),
        (RackControl::CoordinatedSsFan { adaptive_reference: false }, "coordinated+ss-fixed"),
        (RackControl::CoordinatedSsFan { adaptive_reference: true }, "coordinated+ss"),
        (RackControl::CoordinatedECoord, "coordinated+e-coord"),
        (RackControl::GlobalECoord, "global-e-coord"),
        (
            RackControl::MigratingCoordinated { adaptive_reference: false },
            "coordinated+migrate-fixed",
        ),
        (RackControl::MigratingCoordinated { adaptive_reference: true }, "coordinated+migrate"),
    ];

    /// The short display name used in study tables and sweep labels.
    #[must_use]
    pub fn label(self) -> &'static str {
        // Every variant has a row (the round-trip test walks them all).
        Self::LABELS.iter().find(|(mode, _)| *mode == self).map_or("", |&(_, label)| label)
    }

    /// Parses a [`label`](Self::label) back into its mode — the
    /// config-file boundary (`gfsc-daemond` names its control mode by
    /// label).
    ///
    /// # Errors
    ///
    /// Returns the unknown label.
    pub fn from_label(label: &str) -> Result<Self, String> {
        Self::LABELS
            .iter()
            .find(|(_, known)| *known == label)
            .map(|&(mode, _)| mode)
            .ok_or_else(|| format!("unknown control mode: {label}"))
    }
}

/// Builder for [`RackLoopSim`].
pub struct RackLoopSimBuilder {
    spec: RackSpec,
    workload: Option<Workload>,
    config: RackControlConfig,
}

impl std::fmt::Debug for RackLoopSimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RackLoopSimBuilder")
            .field("control", &self.config.control)
            .finish_non_exhaustive()
    }
}

impl RackLoopSimBuilder {
    /// Sets the demand workload (required). Rack-wide demand; each socket
    /// executes its weighted share.
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Selects the control mode (default:
    /// `Coordinated { adaptive_reference: true }`).
    #[must_use]
    pub fn control(mut self, control: RackControl) -> Self {
        self.config.control = control;
        self
    }

    /// Supplies a pre-tuned gain schedule for the (adaptive PID) fan
    /// loops. Without one, the loops fall back to the paper's published
    /// fixed gain set.
    #[must_use]
    pub fn gain_schedule(mut self, schedule: GainSchedule) -> Self {
        self.config.gain_schedule = Some(schedule);
        self
    }

    /// Arms the decision flight recorder with a ring of `capacity`
    /// events (default: disarmed — recording is a no-op). The recording
    /// comes back in [`RunOutcome::flight`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn flight_recorder(mut self, capacity: usize) -> Self {
        self.config.recorder = Recorder::armed(capacity);
        self
    }

    /// Builds the simulation.
    ///
    /// # Panics
    ///
    /// Panics if the workload is missing or the spec is inconsistent.
    #[must_use]
    pub fn build(self) -> RackLoopSim {
        // gfsc-lint: allow(panic) builder contract, pinned by the missing_workload_rejected should_panic test
        let workload = self.workload.expect("a workload is required");
        let mut server = RackServer::new(self.spec.clone());
        // Every rack run starts from thermal equilibrium at u = 0.1 with
        // every zone at 1500 rpm: the operating point the daemon
        // front-end's `DaemonConfig::new` assumes too.
        let start = Utilization::new(0.1);
        server.equilibrate(start, &vec![Rpm::new(1500.0); server.zone_count()]);
        let bank = RackControlBank::new(self.config, &self.spec, server.plant(), start);
        RackLoopSim { server, workload, bank }
    }
}

/// The assembled rack closed loop: workload → capper bank / zone fan
/// loops / coordinator → rack.
///
/// One instance runs one experiment on the multi-rate schedule of the
/// server spec (plant at `sim_dt`, cappers at the CPU interval, fan loops
/// at the fan interval).
///
/// # Examples
///
/// ```
/// use gfsc_coord::{RackControl, RackLoopSim};
/// use gfsc_rack::{RackSpec, RackTopology};
/// use gfsc_units::Seconds;
/// use gfsc_workload::{SquareWave, Workload};
///
/// let mut sim = RackLoopSim::builder(RackSpec::new(RackTopology::rack_1u_x8()))
///     .workload(Workload::builder(SquareWave::date14()).build())
///     .control(RackControl::Coordinated { adaptive_reference: true })
///     .build();
/// let outcome = sim.run(Seconds::new(120.0));
/// assert_eq!(outcome.total_epochs, 121 * 8); // socket-epochs
/// ```
pub struct RackLoopSim {
    server: RackServer,
    workload: Workload,
    /// The full controller bank, shared verbatim with the daemon
    /// front-end (`gfsc-daemon`) through the [`crate::RackView`] seam.
    bank: RackControlBank,
}

impl std::fmt::Debug for RackLoopSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RackLoopSim").field("control", &self.bank.control()).finish_non_exhaustive()
    }
}

impl RackLoopSim {
    /// Starts building a rack simulation on the given spec.
    #[must_use]
    pub fn builder(spec: RackSpec) -> RackLoopSimBuilder {
        RackLoopSimBuilder {
            spec,
            workload: None,
            config: RackControlConfig::new(RackControl::Coordinated { adaptive_reference: true }),
        }
    }

    /// The rack under control (read-only).
    #[must_use]
    pub fn server(&self) -> &RackServer {
        &self.server
    }

    /// Runs the closed loop for `horizon` simulated seconds.
    pub fn run(&mut self, horizon: Seconds) -> RunOutcome {
        let spec = &self.server.spec().server;
        let sim_dt = spec.sim_dt;
        let mut cadence = Cadence::new(spec.cpu_control_interval, spec.fan_control_interval);
        let mut traces = TraceSet::new();
        let channels = RackChannels::resolve(
            &mut traces,
            cadence.trace_capacity(horizon),
            self.server.zone_count(),
            self.server.socket_count(),
        );

        for now in plant_steps(sim_dt, horizon) {
            if let Some(fan_due) = cadence.poll(now) {
                let demand = self.workload.sample(now);
                self.bank.epoch(&mut self.server, now, demand, fan_due, &mut traces, &channels);
            }
            self.server.step(sim_dt, self.bank.executed());
        }

        RunOutcome {
            traces,
            violation_percent: if self.bank.socket_epochs() == 0 {
                0.0
            } else {
                100.0 * self.bank.violations() as f64 / self.bank.socket_epochs() as f64
            },
            total_violations: self.bank.violations(),
            total_epochs: self.bank.socket_epochs(),
            lost_utilization: self.bank.lost_utilization(),
            fan_energy: self.server.fan_energy(),
            cpu_energy: self.server.cpu_energy(),
            horizon,
            flight: self.bank.recorder().snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfsc_rack::RackTopology;
    use gfsc_workload::{Constant, SquareWave};

    fn sim(control: RackControl) -> RackLoopSim {
        RackLoopSim::builder(RackSpec::new(RackTopology::rack_1u_x8()))
            .workload(Workload::builder(SquareWave::date14()).build())
            .control(control)
            .build()
    }

    #[test]
    fn control_labels_round_trip_every_mode() {
        for (i, (control, label)) in RackControl::LABELS.into_iter().enumerate() {
            assert_eq!(control.label(), label);
            assert_eq!(RackControl::from_label(label), Ok(control));
            for (other, other_label) in &RackControl::LABELS[..i] {
                assert_ne!(*other, control, "{label} listed twice");
                assert_ne!(*other_label, label, "label {label} names two modes");
            }
        }
        for control in RackControl::ALL {
            assert!(RackControl::LABELS.iter().any(|&(mode, _)| mode == control));
        }
        assert!(RackControl::from_label("not-a-mode").is_err());
    }

    #[test]
    fn integral_capper_is_proportional_and_bounded() {
        let c = IntegralCapper::date14_rack();
        let cap = Utilization::new(0.8);
        let mild = c.propose(Celsius::new(80.0), cap);
        let deep = c.propose(Celsius::new(83.0), cap);
        assert!(mild < cap);
        assert!(deep < mild, "larger excursion must cut harder");
        // Boost: 4 K over at 3× gain = 0.24 cut; 1 K over = 0.02.
        assert!((cap - mild - 0.02).abs() < 1e-12);
        assert!((cap - deep - 0.24).abs() < 1e-12);
        // Bounds clamp.
        assert_eq!(c.propose(Celsius::new(120.0), Utilization::new(0.12)), Utilization::new(0.10));
        assert_eq!(c.propose(Celsius::new(40.0), Utilization::new(0.999)), Utilization::FULL);
        assert_eq!(c.reference(), Celsius::new(79.0));
    }

    #[test]
    fn coordinator_grants_hottest_cuts_first() {
        let mut coord = CappingCoordinator::new(4, 1, Celsius::new(80.0));
        let measured = [79.2, 79.6, 78.0, 79.4].map(Celsius::new);
        let mut caps = [0.8, 0.8, 0.8, 0.8].map(Utilization::new);
        let proposed = [0.7, 0.7, 0.9, 0.7].map(Utilization::new);
        coord.arbitrate(&measured, &mut caps, &proposed, 0, &mut Recorder::disarmed());
        // Budget 1: only the hottest cut (socket 1) lands; the raise on
        // socket 2 passes; sockets 0 and 3 hold.
        assert_eq!(caps[0], Utilization::new(0.8));
        assert_eq!(caps[1], Utilization::new(0.7));
        assert_eq!(caps[2], Utilization::new(0.9));
        assert_eq!(caps[3], Utilization::new(0.8));
        assert_eq!(coord.max_cuts_per_epoch(), 1);
    }

    #[test]
    fn coordinator_emergency_bypasses_the_budget() {
        let mut coord = CappingCoordinator::new(3, 1, Celsius::new(80.0));
        let measured = [80.5, 80.2, 79.5].map(Celsius::new);
        let mut caps = [0.8, 0.8, 0.8].map(Utilization::new);
        let proposed = [0.5, 0.6, 0.7].map(Utilization::new);
        coord.arbitrate(&measured, &mut caps, &proposed, 0, &mut Recorder::disarmed());
        // Both emergencies cut; the sub-emergency socket is also granted
        // (it is the budgeted pick once emergencies are already marked).
        assert_eq!(caps[0], Utilization::new(0.5));
        assert_eq!(caps[1], Utilization::new(0.6));
        assert_eq!(caps[2], Utilization::new(0.7));
    }

    #[test]
    fn coordinator_emergency_only_fast_tracks_cuts() {
        // A socket at/above the emergency limit proposing a *raise*
        // (possible right after a reference change or with a boosted-gain
        // overshoot) must not be raised: the emergency path clamps the
        // grant to min(proposed, current).
        let mut coord = CappingCoordinator::new(2, 1, Celsius::new(80.0));
        let measured = [80.4, 70.0].map(Celsius::new);
        let mut caps = [0.6, 0.8].map(Utilization::new);
        let proposed = [0.8, 0.8].map(Utilization::new);
        coord.arbitrate(&measured, &mut caps, &proposed, 0, &mut Recorder::disarmed());
        assert_eq!(caps[0], Utilization::new(0.6), "hot socket must not raise");
        assert_eq!(caps[1], Utilization::new(0.8));
        // The same proposal below the limit is an ordinary raise and passes.
        let measured = [79.0, 70.0].map(Celsius::new);
        coord.arbitrate(&measured, &mut caps, &proposed, 0, &mut Recorder::disarmed());
        assert_eq!(caps[0], Utilization::new(0.8));
    }

    #[test]
    fn coordinator_emergency_cuts_still_bypass_the_budget() {
        let mut coord = CappingCoordinator::new(2, 1, Celsius::new(80.0));
        let measured = [80.4, 79.8].map(Celsius::new);
        let mut caps = [0.8, 0.8].map(Utilization::new);
        let proposed = [0.5, 0.6].map(Utilization::new);
        coord.arbitrate(&measured, &mut caps, &proposed, 0, &mut Recorder::disarmed());
        // Emergency cut on 0 outside the budget; budget grants 1's cut.
        assert_eq!(caps[0], Utilization::new(0.5));
        assert_eq!(caps[1], Utilization::new(0.6));
    }

    fn partial_rack() -> RackSpec {
        // Zone 1 is a fan wall over empty bays (partially-populated rack).
        RackSpec::new(gfsc_rack::RackTopology::new(
            "partial",
            vec![
                gfsc_rack::RackZoneDef { name: "z0".to_owned(), fans: 2 },
                gfsc_rack::RackZoneDef { name: "z1".to_owned(), fans: 2 },
            ],
            vec![
                gfsc_rack::ServerSlot {
                    name: "srv0".to_owned(),
                    zone: 0,
                    board: gfsc_thermal::Topology::single_socket(),
                    airflow_derate: 1.3,
                    load_weight: 1.0,
                },
                gfsc_rack::ServerSlot {
                    name: "srv1".to_owned(),
                    zone: 0,
                    board: gfsc_thermal::Topology::single_socket(),
                    airflow_derate: 1.5,
                    load_weight: 1.0,
                },
            ],
            Some(gfsc_rack::PlenumDef::default()),
        ))
    }

    #[test]
    fn zone_references_ignore_slotless_zones() {
        // The slotless zone's zero accumulator must not become the "best
        // zone" anchor: the populated zone is the best *populated* zone,
        // so its offset is 0, not −shading × its absolute derate.
        let refs = ZoneReferences::for_rack(&partial_rack(), 2.0);
        assert_eq!(refs.offset(0), 0.0, "sole populated zone is its own anchor");
        assert_eq!(refs.offset(1), 0.0, "slotless zone gets a zero offset");
    }

    #[test]
    fn partially_populated_rack_runs_every_mode() {
        for control in [
            RackControl::GlobalLockstep,
            RackControl::Coordinated { adaptive_reference: true },
            RackControl::CoordinatedSsFan { adaptive_reference: true },
            RackControl::CoordinatedECoord,
            RackControl::GlobalECoord,
            RackControl::MigratingCoordinated { adaptive_reference: true },
        ] {
            let mut sim = RackLoopSim::builder(partial_rack())
                .workload(Workload::builder(Constant::new(0.6)).build())
                .control(control)
                .build();
            let out = sim.run(Seconds::new(600.0));
            assert_eq!(out.total_epochs, 601 * 2, "{control:?}");
            let empty_wall = out.traces.require("z1_fan_rpm").unwrap().values();
            assert!(
                empty_wall.iter().all(|v| v.is_finite()),
                "{control:?}: slotless wall went non-finite"
            );
            let tref = out.traces.require("z1_t_ref_c").unwrap().values();
            assert!(tref.iter().all(|v| v.is_finite()), "{control:?}: reference went NaN");
        }
    }

    #[test]
    fn zone_references_shade_the_worse_wall() {
        let spec = RackSpec::new(RackTopology::rack_1u_x8());
        let refs = ZoneReferences::for_rack(&spec, 2.0);
        assert_eq!(refs.offset(0), 0.0, "best zone is the anchor");
        assert!(refs.offset(1) < 0.0, "rear wall must be shaded");
        // References move with zone demand.
        let mut refs = refs;
        for _ in 0..200 {
            refs.observe(0, Utilization::new(0.9));
            refs.observe(1, Utilization::new(0.1));
        }
        assert!(refs.reference(0) > refs.reference(1));
    }

    #[test]
    fn coordinated_run_executes_and_records() {
        let mut sim = sim(RackControl::Coordinated { adaptive_reference: true });
        let out = sim.run(Seconds::new(300.0));
        assert_eq!(out.total_epochs, 301 * 8);
        for name in ["u_demand", "z0_fan_rpm", "z1_t_ref_c", "s0_cap", "s7_t_junction_c"] {
            assert_eq!(out.traces.require(name).unwrap().len(), 301, "trace {name}");
        }
        assert!(out.fan_energy.value() > 0.0);
        assert!(out.cpu_energy > out.fan_energy);
    }

    #[test]
    fn lockstep_drives_every_zone_identically() {
        let mut sim = sim(RackControl::GlobalLockstep);
        let out = sim.run(Seconds::new(600.0));
        let z0 = out.traces.require("z0_fan_rpm").unwrap();
        let z1 = out.traces.require("z1_fan_rpm").unwrap();
        assert_eq!(z0.values(), z1.values(), "lockstep zones must match");
    }

    #[test]
    fn coordinated_zones_decouple() {
        // Load only the front wall's servers: its fans must spin faster
        // than the rear's under coordinated control.
        let spec = RackSpec::new(
            RackTopology::rack_1u_x8()
                .with_load_weights(&[1.75, 1.75, 1.75, 1.75, 0.25, 0.25, 0.25, 0.25]),
        );
        let mut sim = RackLoopSim::builder(spec)
            .workload(Workload::builder(Constant::new(0.55)).build())
            .control(RackControl::Coordinated { adaptive_reference: false })
            .build();
        let out = sim.run(Seconds::new(1800.0));
        let z0 = out.traces.require("z0_fan_rpm").unwrap().values();
        let z1 = out.traces.require("z1_fan_rpm").unwrap().values();
        let tail = z0.len() - 300;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&z0[tail..]) > mean(&z1[tail..]) + 200.0,
            "front {} vs rear {}",
            mean(&z0[tail..]),
            mean(&z1[tail..])
        );
    }

    #[test]
    fn keeps_the_rack_near_the_reference_under_steady_load() {
        let mut sim = RackLoopSim::builder(RackSpec::new(RackTopology::rack_1u_x8()))
            .workload(Workload::builder(Constant::new(0.7)).build())
            .control(RackControl::Coordinated { adaptive_reference: false })
            .build();
        let out = sim.run(Seconds::new(1800.0));
        let t = out.traces.require("z1_t_hot_c").unwrap();
        let tail = &t.values()[t.len() - 300..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!((mean - 75.0).abs() < 3.0, "tail mean {mean}");
        // And the safe limit holds.
        assert!(tail.iter().all(|&v| v < 80.5), "thermal runaway in tail");
    }

    #[test]
    #[should_panic(expected = "workload is required")]
    fn missing_workload_rejected() {
        let _ = RackLoopSim::builder(RackSpec::new(RackTopology::rack_2u_x4())).build();
    }

    #[test]
    fn ss_mode_runs_and_boosts_on_demand_spikes() {
        let workload = Workload::builder(SquareWave::date14())
            .gaussian_noise(0.04, 11)
            .spikes(1.0 / 180.0, Seconds::new(30.0), 0.8, 12)
            .build();
        let mut sim = RackLoopSim::builder(RackSpec::new(RackTopology::rack_1u_x8()))
            .workload(workload)
            .control(RackControl::CoordinatedSsFan { adaptive_reference: true })
            .build();
        let out = sim.run(Seconds::new(1800.0));
        assert_eq!(out.total_epochs, 1801 * 8);
        // Somewhere in the run a wall must have been driven to its
        // maximum in a single step — the overlay's signature.
        let hi = sim.server().spec().server.fan_bounds.hi().value();
        let boosted = ["z0_fan_rpm", "z1_fan_rpm"]
            .iter()
            .any(|name| out.traces.require(name).unwrap().values().iter().any(|&v| v >= hi - 1.0));
        assert!(boosted, "no zone ever boosted under a spiking workload");
    }

    #[test]
    fn ecoord_modes_record_every_max_pin_as_an_emergency_clamp() {
        for control in [RackControl::CoordinatedECoord, RackControl::GlobalECoord] {
            // Spikes drive zones into emergencies until their caps reach
            // the floor, the only state in which E-coord pins a wall.
            let workload = Workload::builder(SquareWave::date14())
                .gaussian_noise(0.04, 5)
                .spikes(1.0 / 180.0, Seconds::new(30.0), 0.8, 6)
                .build();
            let mut sim = RackLoopSim::builder(RackSpec::new(RackTopology::rack_1u_x8()))
                .workload(workload)
                .control(control)
                .flight_recorder(65_536)
                .build();
            let flight = sim.run(Seconds::new(1200.0)).flight.expect("recorder was armed");
            assert_eq!(flight.dropped, 0, "{control:?}: the ring overflowed");
            let hi = sim.server().spec().server.fan_bounds.hi().value();
            let clamps: Vec<f64> = flight
                .events
                .iter()
                .filter(|e| e.kind == EventKind::EmergencyClamp)
                .filter(|e| matches!(e.source, Source::Zone(_)))
                .map(|e| e.value)
                .collect();
            assert!(!clamps.is_empty(), "{control:?}: no wall was ever pinned");
            assert!(
                clamps.iter().all(|&v| v == hi),
                "{control:?}: a clamp payload is not the pinned speed {hi}: {clamps:?}"
            );
        }
    }

    #[test]
    fn ecoord_mode_runs_lean_and_near_its_sizing_limit() {
        let mut sim = RackLoopSim::builder(RackSpec::new(RackTopology::rack_1u_x8()))
            .workload(Workload::builder(Constant::new(0.7)).build())
            .control(RackControl::CoordinatedECoord)
            .build();
        let out = sim.run(Seconds::new(1800.0));
        // The energy-first policy parks each zone near the `date14_rack`
        // sizing limit (76 °C), above the 75 °C the PID modes regulate to.
        let t = out.traces.require("z1_t_hot_c").unwrap();
        let tail = &t.values()[t.len() - 300..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!((76.0..=80.0).contains(&mean), "tail mean {mean}");
        // And it spends less fan energy than the fixed-75 °C coordinated
        // loop on the same steady load.
        let mut pid = RackLoopSim::builder(RackSpec::new(RackTopology::rack_1u_x8()))
            .workload(Workload::builder(Constant::new(0.7)).build())
            .control(RackControl::Coordinated { adaptive_reference: false })
            .build();
        let pid_out = pid.run(Seconds::new(1800.0));
        assert!(
            out.fan_energy < pid_out.fan_energy,
            "e-coord {} J vs coordinated {} J",
            out.fan_energy.value(),
            pid_out.fan_energy.value()
        );
    }
}
