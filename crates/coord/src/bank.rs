//! The rack control bank: every controller in the [`RackControl`] matrix,
//! extracted from the simulation loop so it can drive any [`RackView`].
//!
//! [`RackControlBank`] holds the *controller* state of a rack run — the
//! per-zone fan loops, per-socket cappers, arbitration layers, E-coord
//! policies, descent and migrator — and advances it one CPU epoch at a
//! time against whatever backs the view: the simulated
//! `gfsc_rack::RackServer` ([`crate::RackLoopSim`]) or a telemetry mirror
//! of real hardware (the `gfsc-daemon` crate). The epoch logic is the
//! exact code that used to live inside `RackLoopSim::control_epoch`;
//! extracting it is pure code motion, pinned by the golden traces in
//! `tests/rack_golden.rs` and the bit-for-bit daemon parity test.

use crate::runner::MONITOR_WINDOW;
use crate::{
    CappingCoordinator, EnergyAwareCoordinator, FanController, FixedPidFan, IntegralCapper,
    RackControl, RackEnergyDescent, RackView, SingleStepFanScaling, SsFanAction, WorkMigrator,
    ZoneReferences, ZoneSsFanBank, FIXED_REFERENCE,
};
use gfsc_control::{AdaptivePid, GainSchedule, PidGains};
use gfsc_obs::{EventKind, Recorder, Source};
use gfsc_power::CpuPowerModel;
use gfsc_rack::{RackPlant, RackSpec};
use gfsc_sensors::MovingAverage;
use gfsc_sim::{ChannelId, TraceSet};
use gfsc_units::{Bounds, Celsius, Rpm, Seconds, Utilization, Watts};

/// What parameterizes a [`RackControlBank`] beyond the rack spec itself:
/// the control mode, the fan gains and the flight recorder.
///
/// Everything else is the one rack calibration every run uses, built by
/// [`RackControlBank::new`]: the [`IntegralCapper::date14_rack`] capper
/// per socket, a coordinator cut budget of 2 sockets per epoch, the
/// [`FIXED_REFERENCE`] for non-adaptive fan loops, 2 K of reference
/// shading per unit of excess airflow derate, the single-server
/// single-step scheme ([`SingleStepFanScaling::new`]`(0.3)` over a
/// 10-epoch violation window), the [`EnergyAwareCoordinator::date14_rack`]
/// E-coord rule set, the [`RackEnergyDescent::date14_rack`] descent and
/// the [`WorkMigrator::date14_rack`] migrator. A daemon constructing its
/// bank from a fresh config therefore replays the simulation bit-for-bit.
#[derive(Debug, Clone)]
pub struct RackControlConfig {
    /// The control mode.
    pub control: RackControl,
    /// Pre-tuned gain schedule for adaptive-PID fan loops (`None` falls
    /// back to the paper's fixed gain set).
    pub gain_schedule: Option<GainSchedule>,
    /// The decision flight recorder — disarmed by default, so every
    /// record call in the epoch path is a no-op branch. Arm it
    /// (`Recorder::armed(capacity)`) to keep an event trail of every
    /// controller action.
    pub recorder: Recorder,
}

impl RackControlConfig {
    /// The standard calibration for `control` — identical to the
    /// [`crate::RackLoopSim`] builder defaults.
    #[must_use]
    pub fn new(control: RackControl) -> Self {
        Self { control, gain_schedule: None, recorder: Recorder::disarmed() }
    }
}

/// The full controller bank for one rack run: per-zone fan loops,
/// per-socket integral cappers, the arbitration coordinator, and the
/// mode-specific machinery (single-step bank, E-coord policies, global
/// descent, work migrator), plus the enforcement accounting.
///
/// One [`RackControlBank::epoch`] call is one CPU control epoch of the
/// multi-rate schedule. The caller supplies time, the sampled rack demand
/// and whether a fan decision is due; the bank reads measurements and
/// issues actuation through the [`RackView`].
pub struct RackControlBank {
    control: RackControl,
    /// One controller per zone (coordinated modes) or a single controller
    /// (GlobalLockstep).
    fans: Vec<Box<dyn FanController>>,
    capper: IntegralCapper,
    coordinator: CappingCoordinator,
    /// The naive mode's single deadzone capper.
    global_capper: crate::CpuCapController,
    references: ZoneReferences,
    /// The per-zone single-step bank (CoordinatedSsFan only).
    ss: Option<ZoneSsFanBank>,
    /// The per-zone E-coord rule set (CoordinatedECoord only).
    ecoord: EnergyAwareCoordinator,
    /// The rack-global fan descent (GlobalECoord only).
    descent: Option<RackEnergyDescent>,
    /// The load-weight migrator (MigratingCoordinated only).
    migrator: Option<WorkMigrator>,
    /// Predicted rack demand (the single-server 30-sample filter) feeding
    /// the single-step release descent.
    demand_filter: MovingAverage,
    caps: Vec<Utilization>,
    /// Per-zone caps (CoordinatedECoord: one cap per zone, applied to
    /// every socket the zone serves).
    zone_caps: Vec<Utilization>,
    proposed: Vec<Utilization>,
    demands: Vec<Utilization>,
    executed: Vec<Utilization>,
    measured: Vec<Celsius>,
    /// Whole-rack executing-power scratch for the E-coord inversions.
    rack_powers: Vec<Watts>,
    /// Per-zone actual-speed scratch for the per-zone E-coord inversions.
    zone_fans: Vec<Rpm>,
    /// Per-zone violated-socket scratch for the single-step windows.
    zone_violated: Vec<usize>,
    /// Flat socket → zone map, resolved once.
    socket_zone: Vec<usize>,
    /// Spec constants the epoch logic needs, captured at construction.
    cpu_power: CpuPowerModel,
    fan_bounds: Bounds<Rpm>,
    violations: u64,
    socket_epochs: u64,
    lost_utilization: f64,
    /// The decision flight recorder (disarmed unless the config armed it).
    recorder: Recorder,
    /// CPU epochs run — the stamp every recorded event carries.
    epoch_index: u32,
}

impl std::fmt::Debug for RackControlBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RackControlBank").field("control", &self.control).finish_non_exhaustive()
    }
}

impl RackControlBank {
    /// Builds the bank for `config` on a rack described by `spec`, with
    /// `plant` supplying the compiled structure (zone/socket maps) and
    /// `start_utilization` seeding the executed vector at the equilibrium
    /// operating point.
    ///
    /// # Panics
    ///
    /// Panics if the config is inconsistent with the spec.
    #[must_use]
    pub fn new(
        config: RackControlConfig,
        spec: &RackSpec,
        plant: &RackPlant,
        start_utilization: Utilization,
    ) -> Self {
        let zones = plant.zone_count();
        let sockets = plant.socket_count();
        let server = &spec.server;
        let make_fan = || -> Box<dyn FanController> {
            match &config.gain_schedule {
                // The same standard configuration every server loop runs.
                Some(schedule) => Box::new(AdaptivePid::date14_configured(
                    schedule.clone(),
                    FIXED_REFERENCE,
                    server.fan_bounds,
                    server.quantization_step,
                )),
                // The paper's published fixed gain set — robust everywhere,
                // just not retuned per region.
                None => Box::new(FixedPidFan::new(
                    PidGains::new(696.0, 464.0, 261.0),
                    FIXED_REFERENCE,
                    server.fan_bounds,
                    (server.quantization_step > 0.0).then_some(server.quantization_step),
                )),
            }
        };
        let fan_count = match config.control {
            RackControl::GlobalLockstep => 1,
            _ => zones,
        };
        let fans: Vec<Box<dyn FanController>> = (0..fan_count).map(|_| make_fan()).collect();
        // 2 K of reference shading per unit of excess airflow derate.
        let references = ZoneReferences::for_rack(spec, 2.0);
        let ss = matches!(config.control, RackControl::CoordinatedSsFan { .. }).then(|| {
            ZoneSsFanBank::new(
                zones,
                SingleStepFanScaling::new(0.3),
                MONITOR_WINDOW,
                spec.rack.plenum().is_some(),
            )
        });
        let socket_zone: Vec<usize> = (0..sockets).map(|i| plant.zone_of_socket(i)).collect();
        let descent = matches!(config.control, RackControl::GlobalECoord).then(|| {
            let mut descent = RackEnergyDescent::date14_rack();
            descent.bind(zones);
            descent
        });
        let migrator = matches!(config.control, RackControl::MigratingCoordinated { .. })
            .then(WorkMigrator::date14_rack);

        Self {
            control: config.control,
            fans,
            capper: IntegralCapper::date14_rack(),
            // At most two sockets' cuts honored per epoch.
            coordinator: CappingCoordinator::new(sockets, 2, spec.server.t_safe),
            global_capper: crate::CpuCapController::date14(),
            references,
            ss,
            ecoord: EnergyAwareCoordinator::date14_rack(),
            descent,
            migrator,
            demand_filter: MovingAverage::new(30),
            caps: vec![Utilization::FULL; sockets],
            zone_caps: vec![Utilization::FULL; zones],
            proposed: vec![Utilization::FULL; sockets],
            demands: vec![Utilization::IDLE; sockets],
            executed: vec![start_utilization; sockets],
            measured: vec![spec.server.ambient; sockets],
            rack_powers: vec![Watts::new(0.0); sockets],
            zone_fans: vec![Rpm::new(0.0); zones],
            zone_violated: vec![0; zones],
            socket_zone,
            cpu_power: server.cpu_power,
            fan_bounds: server.fan_bounds,
            violations: 0,
            socket_epochs: 0,
            lost_utilization: 0.0,
            recorder: config.recorder,
            epoch_index: 0,
        }
    }

    /// The control mode this bank runs.
    #[must_use]
    pub fn control(&self) -> RackControl {
        self.control
    }

    /// The decision flight recorder (armed or not).
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The decision flight recorder, writable — the daemon records its
    /// watchdog transitions (fallback entry/exit) onto the same stream
    /// the controllers use.
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// CPU epochs run so far — the stamp the next recorded event will
    /// carry.
    #[must_use]
    pub fn epoch_index(&self) -> u32 {
        self.epoch_index
    }

    /// The enforced per-socket executed utilizations of the latest epoch
    /// (`min(demand, cap)`): what the plant should run until the next
    /// epoch.
    #[must_use]
    pub fn executed(&self) -> &[Utilization] {
        &self.executed
    }

    /// The per-socket caps currently in force.
    #[must_use]
    pub fn caps(&self) -> &[Utilization] {
        &self.caps
    }

    /// Violated socket-epochs so far.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Total socket-epochs so far.
    #[must_use]
    pub fn socket_epochs(&self) -> u64 {
        self.socket_epochs
    }

    /// Work lost to capping so far, in utilization-epochs summed over
    /// sockets.
    #[must_use]
    pub fn lost_utilization(&self) -> f64 {
        self.lost_utilization
    }

    /// Re-arms the bank after a firmware-fallback excursion: caps
    /// released, every fan loop's integral state reset so the first
    /// closed-loop decision re-bases bumplessly at whatever speed the
    /// firmware left the walls at. Counters and references are *kept* —
    /// the run continues, it does not restart.
    pub fn reset_after_fallback(&mut self) {
        for fan in &mut self.fans {
            fan.reset();
        }
        self.caps.fill(Utilization::FULL);
        self.zone_caps.fill(Utilization::FULL);
        self.proposed.fill(Utilization::FULL);
    }

    /// One CPU control epoch against `rack`: read measurements, run the
    /// mode's layered decision, enforce caps, account violations, record
    /// the epoch-rate traces.
    ///
    /// # Panics
    ///
    /// Panics if `rack`'s structure disagrees with the spec the bank was
    /// built for.
    pub fn epoch(
        &mut self,
        rack: &mut dyn RackView,
        now: Seconds,
        demand: Utilization,
        fan_due: bool,
        traces: &mut TraceSet,
        channels: &RackChannels,
    ) {
        let sockets = rack.socket_count();
        let zones = rack.zone_count();
        let epoch = self.epoch_index;
        self.epoch_index = self.epoch_index.wrapping_add(1);

        let mut demands = core::mem::take(&mut self.demands);
        rack.socket_demands(demand, &mut demands);
        for i in 0..sockets {
            self.measured[i] = rack.measured_socket(i);
        }

        match self.control {
            RackControl::GlobalLockstep => {
                // One capper on the aggregate, applied to every socket.
                // A zero-socket rack has nothing to cap; `first` keeps the
                // arm panic-free without inventing a default cap.
                let aggregate = rack.measured_rack();
                if let Some(&prev) = self.caps.first() {
                    let cap = self.global_capper.propose(aggregate, prev);
                    if cap != prev {
                        // The lockstep baseline has exactly one decision to
                        // explain: the aggregate capper moving the rack cap.
                        self.recorder.record(
                            epoch,
                            Source::Rack,
                            EventKind::SocketHot,
                            aggregate.value(),
                        );
                        self.recorder.record(epoch, Source::Rack, EventKind::CapGrant, cap.value());
                    }
                    self.caps.fill(cap);
                }
                if fan_due {
                    // The naive pairing: the rack-wide max measurement
                    // against the *fastest* wall's speed (not the hottest
                    // zone's — the two coincide only by luck).
                    let current = Self::fastest_zone_speed(rack);
                    if let Some(lockstep) = self.fans.first_mut() {
                        let cmd = lockstep.decide(aggregate, current);
                        rack.set_all_fan_targets(cmd);
                    }
                }
            }
            RackControl::Coordinated { adaptive_reference }
            | RackControl::CoordinatedSsFan { adaptive_reference }
            | RackControl::MigratingCoordinated { adaptive_reference } => {
                // Layer 0 (MigratingCoordinated): before anything is cut,
                // try *moving* the hottest server's work to a headroomed
                // server behind another wall; demands re-derive from the
                // shifted weights.
                if let Some(migrator) = &mut self.migrator {
                    migrator.rebalance(&mut *rack, &self.measured, epoch, &mut self.recorder);
                    rack.socket_demands(demand, &mut demands);
                }
                // Layer 1: per-socket integral capper proposals.
                for i in 0..sockets {
                    self.proposed[i] = self.capper.propose(self.measured[i], self.caps[i]);
                }
                // Layer 2: the coordinator grants raises freely and cuts
                // against the per-epoch budget, hottest sockets first.
                self.coordinator.arbitrate(
                    &self.measured,
                    &mut self.caps,
                    &self.proposed,
                    epoch,
                    &mut self.recorder,
                );
                // Zone demand prediction feeds the per-zone references.
                if adaptive_reference {
                    for z in 0..zones {
                        let zone_sockets = rack.plant().zone_sockets(z);
                        let mut sum = 0.0;
                        for &i in zone_sockets {
                            sum += demands[i].value();
                        }
                        let mean = if zone_sockets.is_empty() {
                            0.0 // slotless wall: no demand to predict
                        } else {
                            sum / zone_sockets.len() as f64
                        };
                        self.references.observe(z, Utilization::new(mean));
                    }
                }
                // Layer 3 (CoordinatedSsFan): the per-zone single-step
                // bank owns each wall while a boost is in force, exactly
                // as the single-server overlay owns the fan. (Taken out
                // of its slot so the PID fallback can borrow `self`.)
                let mut bank = self.ss.take();
                match &mut bank {
                    Some(bank) => {
                        self.demand_filter.update(demand.value());
                        let predicted = Utilization::new(self.demand_filter.value().unwrap_or(0.0));
                        let bounds = self.fan_bounds;
                        bank.begin_epoch();
                        for z in 0..zones {
                            let reference = self.fans[z].reference();
                            let action = bank.evaluate(
                                z,
                                rack.measured_zone(z),
                                reference,
                                epoch,
                                &mut self.recorder,
                            );
                            match action {
                                SsFanAction::Hold => {
                                    if rack.zone_fan_target(z) < bounds.hi() {
                                        rack.set_zone_fan_target(z, bounds.hi());
                                    }
                                }
                                SsFanAction::Release => {
                                    // Descend straight to the zone's lowest
                                    // safe speed for the predicted load, the
                                    // PID re-based bumplessly at the descent
                                    // speed (Section V-C, per zone).
                                    self.fans[z].reset();
                                    let safe = rack
                                        .min_safe_zone_fan(z, predicted, reference)
                                        .unwrap_or(bounds.hi());
                                    rack.set_zone_fan_target(z, bounds.clamp(safe));
                                }
                                SsFanAction::None => {
                                    if fan_due {
                                        self.zone_fan_decision(rack, z, adaptive_reference);
                                    }
                                }
                            }
                        }
                    }
                    None => {
                        if fan_due {
                            for z in 0..zones {
                                self.zone_fan_decision(rack, z, adaptive_reference);
                            }
                        }
                    }
                }
                self.ss = bank;
            }
            RackControl::CoordinatedECoord => {
                // Per zone: the energy-first policy on the zone
                // measurement, each wall sized alone by the min-safe
                // inversion at the powers every socket is currently
                // executing, every other wall at its actual speed.
                let cpu_power = self.cpu_power;
                let bounds = self.fan_bounds;
                for i in 0..sockets {
                    self.rack_powers[i] = cpu_power.power(rack.executed()[i]);
                }
                for z in 0..zones {
                    self.zone_fans[z] = rack.zone_fan_speed(z);
                }
                let (powers, fans) = (&self.rack_powers, &self.zone_fans);
                for z in 0..zones {
                    let zone_measured = rack.measured_zone(z);
                    let current = self.zone_caps[z];
                    let fan_cmd =
                        self.ecoord.fan_command(zone_measured, current, fan_due, bounds, |limit| {
                            rack.plant().min_safe_zone_fan(z, powers, fans, limit)
                        });
                    if let Some(target) = fan_cmd {
                        rack.set_zone_fan_target(z, target);
                    }
                    let next = self.ecoord.next_cap(zone_measured, current);
                    if next != current {
                        self.recorder.record(
                            epoch,
                            Source::Zone(z as u16),
                            EventKind::SocketHot,
                            zone_measured.value(),
                        );
                        self.recorder.record(
                            epoch,
                            Source::Zone(z as u16),
                            EventKind::CapGrant,
                            next.value(),
                        );
                    }
                    self.zone_caps[z] = next;
                }
                for i in 0..sockets {
                    self.caps[i] = self.zone_caps[self.socket_zone[i]];
                }
            }
            RackControl::GlobalECoord => {
                // The per-zone E-coord policy on every zone's cap, but the
                // fan side solved jointly: every wall sized at once
                // against the full coupled rack at the powers currently
                // executing.
                let cpu_power = self.cpu_power;
                let bounds = self.fan_bounds;
                // `new` pairs the descent solver with GlobalECoord, so this
                // arm always finds one; if that invariant ever breaks, hold
                // the current caps and fans instead of panicking mid-epoch.
                let Some(descent) = self.descent.as_mut() else {
                    debug_assert!(false, "GlobalECoord bank built without a descent solver");
                    self.demands = demands;
                    return;
                };
                for i in 0..sockets {
                    self.rack_powers[i] = cpu_power.power(rack.executed()[i]);
                }
                descent.begin_epoch();
                for z in 0..zones {
                    descent.seed(z, rack.zone_fan_speed(z));
                    let zone_measured = rack.measured_zone(z);
                    if descent.policy().is_emergency(zone_measured) {
                        if self.zone_caps[z] <= descent.policy().cap_floor() {
                            // Cap pinned at its floor: the wall is the only
                            // knob left — to maximum, every epoch, exactly
                            // like the per-zone mode; the neighbours size
                            // against that fact.
                            descent.seed(z, bounds.hi());
                            rack.set_zone_fan_target(z, bounds.hi());
                            self.recorder.record(
                                epoch,
                                Source::Zone(z as u16),
                                EventKind::EmergencyClamp,
                                zone_measured.value(),
                            );
                        }
                        // An emergency wall (pinned or holding) does not
                        // join the descent this epoch.
                        descent.freeze(z);
                    }
                }
                if fan_due {
                    descent.descend(
                        rack.plant(),
                        &self.rack_powers,
                        bounds,
                        epoch,
                        &mut self.recorder,
                    );
                    for z in 0..zones {
                        if !descent.is_frozen(z) {
                            rack.set_zone_fan_target(z, descent.target(z));
                        }
                    }
                }
                for z in 0..zones {
                    let current = self.zone_caps[z];
                    let next = descent.next_cap(rack.measured_zone(z), current);
                    if next != current {
                        self.recorder.record(
                            epoch,
                            Source::Zone(z as u16),
                            EventKind::SocketHot,
                            rack.measured_zone(z).value(),
                        );
                        self.recorder.record(
                            epoch,
                            Source::Zone(z as u16),
                            EventKind::CapGrant,
                            next.value(),
                        );
                    }
                    self.zone_caps[z] = next;
                }
                for i in 0..sockets {
                    self.caps[i] = self.zone_caps[self.socket_zone[i]];
                }
            }
        }

        // Enforce, account, record.
        self.zone_violated.fill(0);
        for (i, ((&d, &cap), executed)) in
            demands.iter().zip(&self.caps).zip(&mut self.executed).enumerate()
        {
            *executed = d.min(cap);
            self.socket_epochs += 1;
            // Strict inequality with a small tolerance, as the
            // single-server monitor counts it: demand exactly at the cap
            // executes completely.
            if d.value() > cap.value() + 1e-12 {
                self.violations += 1;
                self.lost_utilization += d - cap;
                self.zone_violated[self.socket_zone[i]] += 1;
            }
        }
        if let Some(bank) = &mut self.ss {
            for z in 0..zones {
                let sockets_in_zone = rack.plant().zone_sockets(z).len();
                bank.record(z, self.zone_violated[z], sockets_in_zone);
            }
        }
        self.demands = demands;

        traces.record_by_id(channels.u_demand, now, demand.value());
        for (z, &(fan_rpm, t_hot, t_meas, t_ref)) in channels.per_zone.iter().enumerate() {
            traces.record_by_id(fan_rpm, now, rack.zone_fan_speed(z).value());
            traces.record_by_id(t_hot, now, rack.plant().hottest_in_zone(z).value());
            traces.record_by_id(t_meas, now, rack.measured_zone(z).value());
            // Lockstep runs a single fan loop; every other mode runs one
            // per zone. `get` covers both shapes without an index panic.
            let loop_index = match self.control {
                RackControl::GlobalLockstep => 0,
                _ => z,
            };
            if let Some(fan) = self.fans.get(loop_index) {
                traces.record_by_id(t_ref, now, fan.reference().value());
            }
        }
        for (i, &(cap, junction)) in channels.per_socket.iter().enumerate() {
            traces.record_by_id(cap, now, self.caps[i].value());
            traces.record_by_id(junction, now, rack.plant().junction(i).value());
        }
    }

    /// One regular fan decision for zone `z`: move the reference if the
    /// zone adapts it, then run the zone's PID on its own aggregate.
    fn zone_fan_decision(&mut self, rack: &mut dyn RackView, z: usize, adaptive_reference: bool) {
        if adaptive_reference {
            self.fans[z].set_reference(self.references.reference(z));
        }
        let cmd = self.fans[z].decide(rack.measured_zone(z), rack.zone_fan_speed(z));
        rack.set_zone_fan_target(z, cmd);
    }

    /// The *fastest* zone's actual speed — what the lockstep controller
    /// feeds its single PID as "the" fan speed. It is not the hottest
    /// zone's speed: under lockstep every wall shares one target, and the
    /// fastest wall is simply the one whose slew got furthest, regardless
    /// of where the heat is.
    fn fastest_zone_speed(rack: &dyn RackView) -> Rpm {
        let mut speed = rack.zone_fan_speed(0);
        for z in 1..rack.zone_count() {
            speed = speed.max(rack.zone_fan_speed(z));
        }
        speed
    }
}

/// The epoch-rate channels, resolved once per run.
#[derive(Debug, Clone)]
pub struct RackChannels {
    u_demand: ChannelId,
    /// Per zone: `(fan_rpm, t_hot, t_meas, t_ref)`.
    per_zone: Vec<(ChannelId, ChannelId, ChannelId, ChannelId)>,
    /// Per socket: `(cap, junction)`.
    per_socket: Vec<(ChannelId, ChannelId)>,
}

impl RackChannels {
    /// Resolves the standard rack channel set (`u_demand`, per-zone
    /// `z{z}_fan_rpm` / `z{z}_t_hot_c` / `z{z}_t_meas_c` / `z{z}_t_ref_c`,
    /// per-socket `s{i}_cap` / `s{i}_t_junction_c`) with the given
    /// per-channel capacity.
    #[must_use]
    pub fn resolve(traces: &mut TraceSet, capacity: usize, zones: usize, sockets: usize) -> Self {
        Self {
            u_demand: traces.channel_with_capacity("u_demand", capacity),
            per_zone: (0..zones)
                .map(|z| {
                    (
                        traces.channel_with_capacity(&format!("z{z}_fan_rpm"), capacity),
                        traces.channel_with_capacity(&format!("z{z}_t_hot_c"), capacity),
                        traces.channel_with_capacity(&format!("z{z}_t_meas_c"), capacity),
                        traces.channel_with_capacity(&format!("z{z}_t_ref_c"), capacity),
                    )
                })
                .collect(),
            per_socket: (0..sockets)
                .map(|i| {
                    (
                        traces.channel_with_capacity(&format!("s{i}_cap"), capacity),
                        traces.channel_with_capacity(&format!("s{i}_t_junction_c"), capacity),
                    )
                })
                .collect(),
        }
    }
}
