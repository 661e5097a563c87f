//! The multi-rate closed-loop simulation runner.

use crate::{
    AdaptiveReference, CoordinationInputs, Coordinator, CpuCapController, FanController,
    SingleStepFanScaling, SsFanAction, Uncoordinated,
};
use gfsc_obs::FlightSnapshot;
use gfsc_sensors::MovingAverage;
use gfsc_server::{PerformanceMonitor, Server, ServerSpec};
use gfsc_sim::{plant_steps, Cadence, ChannelId, TraceSet};
use gfsc_units::{Joules, Rpm, Seconds, Utilization};
use gfsc_workload::Workload;

/// Everything a finished run reports — a single server's
/// [`ClosedLoopSim`] or a rack's [`crate::RackLoopSim`]: full traces plus
/// the Table III metrics. A rack counts socket-epochs where a server
/// counts CPU epochs, and sums its metrics over every socket and fan wall.
#[derive(Debug)]
pub struct RunOutcome {
    /// Time series recorded at the CPU epoch rate (1 s): `u_demand`,
    /// `u_cap`, `u_executed`, `t_measured_c`, `t_junction_c`, `fan_rpm`,
    /// `fan_target_rpm`, `t_ref_c`. Multi-socket plants additionally
    /// record `t_junction_s{i}_c` and `t_measured_s{i}_c` per socket; a
    /// rack records the [`crate::RackChannels`] set instead.
    pub traces: TraceSet,
    /// Fraction of (socket-)epochs whose demand exceeded the cap, in percent.
    pub violation_percent: f64,
    /// Violated (socket-)epochs.
    pub total_violations: u64,
    /// Total (socket-)epochs.
    pub total_epochs: u64,
    /// Work lost to capping, in utilization-epochs.
    pub lost_utilization: f64,
    /// Energy consumed by the fan subsystem over the run.
    pub fan_energy: Joules,
    /// Energy consumed by the CPU over the run.
    pub cpu_energy: Joules,
    /// Simulated duration.
    pub horizon: Seconds,
    /// The decision-event recording of a rack run armed with
    /// [`crate::RackLoopSimBuilder::flight_recorder`]; `None` otherwise,
    /// and always from [`ClosedLoopSim`].
    pub flight: Option<FlightSnapshot>,
}

/// The sliding window, in CPU epochs, of the violation monitor that feeds
/// single-step fan scaling — the single-server calibration, which every
/// rack zone's window repeats.
pub(crate) const MONITOR_WINDOW: usize = 10;

/// Builder for [`ClosedLoopSim`].
///
/// Only the fan controller and workload are mandatory; every other
/// component defaults to the paper's calibration (the
/// [`CpuCapController::date14`] deadzone capper, uncoordinated
/// arbitration, fixed reference, no single-step scaling, a 10-epoch
/// violation window).
pub struct ClosedLoopSimBuilder {
    spec: ServerSpec,
    workload: Option<Workload>,
    fan: Option<Box<dyn FanController>>,
    capper: Option<CpuCapController>,
    coordinator: Box<dyn Coordinator>,
    adaptive_reference: Option<AdaptiveReference>,
    single_step: Option<SingleStepFanScaling>,
    start_utilization: Utilization,
    start_fan: Rpm,
}

impl std::fmt::Debug for ClosedLoopSimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosedLoopSimBuilder").finish_non_exhaustive()
    }
}

impl ClosedLoopSimBuilder {
    /// Sets the server calibration (default: Table I).
    #[must_use]
    pub fn spec(mut self, spec: ServerSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the demand workload (required).
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Sets the fan policy (required).
    #[must_use]
    pub fn fan(mut self, fan: impl FanController + 'static) -> Self {
        self.fan = Some(Box::new(fan));
        self
    }

    /// Disables CPU capping entirely (the cap is pinned at 100 %) — used by
    /// the fan-only stability experiments (Figs. 3 and 4).
    #[must_use]
    pub fn without_capper(mut self) -> Self {
        self.capper = None;
        self
    }

    /// Sets the global coordinator (default: [`Uncoordinated`]).
    #[must_use]
    pub fn coordinator(mut self, coordinator: impl Coordinator + 'static) -> Self {
        self.coordinator = Box::new(coordinator);
        self
    }

    /// Enables predictive set-point adjustment (Section V-B).
    #[must_use]
    pub fn adaptive_reference(mut self, reference: AdaptiveReference) -> Self {
        self.adaptive_reference = Some(reference);
        self
    }

    /// Enables single-step fan scaling (Section V-C).
    #[must_use]
    pub fn single_step(mut self, single_step: SingleStepFanScaling) -> Self {
        self.single_step = Some(single_step);
        self
    }

    /// Starts the run from thermal equilibrium at this operating point
    /// (default: `u = 0.1` at the minimum fan speed).
    #[must_use]
    pub fn start_at(mut self, utilization: Utilization, fan: Rpm) -> Self {
        self.start_utilization = utilization;
        self.start_fan = fan;
        self
    }

    /// Builds the simulation.
    ///
    /// # Panics
    ///
    /// Panics if the workload or fan controller is missing, or the spec is
    /// inconsistent.
    #[must_use]
    pub fn build(self) -> ClosedLoopSim {
        // gfsc-lint: allow(panic) builder contract, pinned by the missing_workload_rejected should_panic test
        let workload = self.workload.expect("a workload is required");
        // gfsc-lint: allow(panic) builder contract, pinned by the missing_fan_rejected should_panic test
        let fan = self.fan.expect("a fan controller is required");
        let mut server = Server::new(self.spec.clone());
        server.equilibrate(self.start_utilization, self.start_fan);
        let monitor = PerformanceMonitor::new(MONITOR_WINDOW);
        ClosedLoopSim {
            spec: self.spec,
            server,
            workload,
            fan,
            capper: self.capper,
            coordinator: self.coordinator,
            adaptive_reference: self.adaptive_reference,
            single_step: self.single_step,
            monitor,
            demand_filter: MovingAverage::new(30),
            cap: Utilization::FULL,
            executed: self.start_utilization,
        }
    }
}

/// The assembled closed loop: workload → capper/fan/coordinator → server.
///
/// One instance runs one experiment; the multi-rate schedule follows the
/// spec (plant at `sim_dt`, CPU capper at 1 s, fan controller at 30 s, all
/// Table I values by default).
///
/// # Examples
///
/// ```
/// use gfsc_coord::{ClosedLoopSim, FixedPidFan, RuleBasedCoordinator};
/// use gfsc_control::PidGains;
/// use gfsc_units::{Bounds, Celsius, Rpm, Seconds};
/// use gfsc_workload::{SquareWave, Workload};
///
/// let mut sim = ClosedLoopSim::builder()
///     .workload(Workload::builder(SquareWave::date14()).build())
///     .fan(FixedPidFan::new(
///         PidGains::new(696.0, 464.0, 261.0),
///         Celsius::new(75.0),
///         Bounds::new(Rpm::new(1000.0), Rpm::new(8500.0)),
///         Some(1.0),
///     ))
///     .coordinator(RuleBasedCoordinator::new(Celsius::new(80.0)))
///     .build();
/// let outcome = sim.run(Seconds::new(120.0));
/// assert_eq!(outcome.total_epochs, 121); // t = 0..=120 inclusive
/// ```
pub struct ClosedLoopSim {
    spec: ServerSpec,
    server: Server,
    workload: Workload,
    fan: Box<dyn FanController>,
    capper: Option<CpuCapController>,
    coordinator: Box<dyn Coordinator>,
    adaptive_reference: Option<AdaptiveReference>,
    single_step: Option<SingleStepFanScaling>,
    monitor: PerformanceMonitor,
    demand_filter: MovingAverage,
    cap: Utilization,
    executed: Utilization,
}

impl std::fmt::Debug for ClosedLoopSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosedLoopSim")
            .field("cap", &self.cap)
            .field("executed", &self.executed)
            .finish_non_exhaustive()
    }
}

impl ClosedLoopSim {
    /// Starts building a simulation.
    #[must_use]
    pub fn builder() -> ClosedLoopSimBuilder {
        ClosedLoopSimBuilder {
            spec: ServerSpec::enterprise_default(),
            workload: None,
            fan: None,
            capper: Some(CpuCapController::date14()),
            coordinator: Box::new(Uncoordinated),
            adaptive_reference: None,
            single_step: None,
            start_utilization: Utilization::new(0.1),
            start_fan: Rpm::new(1000.0),
        }
    }

    /// Runs the closed loop for `horizon` simulated seconds and returns
    /// traces and metrics.
    pub fn run(&mut self, horizon: Seconds) -> RunOutcome {
        let (mut cadence, mut traces, channels) = self.start(horizon);
        for now in plant_steps(self.spec.sim_dt, horizon) {
            if let Some(fan_due) = cadence.poll(now) {
                self.control_epoch(now, fan_due, &mut traces, &channels);
            }
            self.server.step(self.spec.sim_dt, self.executed);
        }
        self.outcome(traces, horizon)
    }

    /// A run's schedule and recording state: the spec's cadence, and the
    /// epoch channels resolved once and sized for the whole run, so the
    /// epoch path records by index into pre-allocated storage — zero
    /// string scans, zero allocations in steady state.
    fn start(&self, horizon: Seconds) -> (Cadence, TraceSet, EpochChannels) {
        let cadence = Cadence::new(self.spec.cpu_control_interval, self.spec.fan_control_interval);
        let mut traces = TraceSet::new();
        let channels = EpochChannels::resolve(
            &mut traces,
            cadence.trace_capacity(horizon),
            self.server.socket_count(),
        );
        (cadence, traces, channels)
    }

    /// The run's report: `traces` plus the metrics accumulated so far.
    fn outcome(&self, traces: TraceSet, horizon: Seconds) -> RunOutcome {
        RunOutcome {
            traces,
            violation_percent: self.monitor.violation_percent(),
            total_violations: self.monitor.total_violations(),
            total_epochs: self.monitor.total_epochs(),
            lost_utilization: self.monitor.lost_utilization(),
            fan_energy: self.server.fan_energy(),
            cpu_energy: self.server.cpu_energy(),
            horizon,
            flight: None,
        }
    }

    /// One CPU control epoch: sample demand, collect proposals, arbitrate,
    /// enforce, account, record.
    fn control_epoch(
        &mut self,
        now: Seconds,
        fan_due: bool,
        traces: &mut TraceSet,
        channels: &EpochChannels,
    ) {
        let demand = self.workload.sample(now);
        let measured = self.server.measured_temperature();
        self.demand_filter.update(demand.value());
        let predicted = Utilization::new(self.demand_filter.value().unwrap_or(0.0));

        // Predictive set-point adjustment feeds on raw demand.
        if let Some(ar) = &mut self.adaptive_reference {
            ar.observe(demand);
        }

        // Single-step overlay: while a boost is in force it owns the fan,
        // suppressing regular PID decisions until release.
        let overlay = self.single_step.as_mut().map(|ss| {
            ss.evaluate(self.monitor.recent_violation_rate(), measured, self.fan.reference())
        });

        let proposed_fan = match overlay {
            // Propose max only while the target is still below it; once
            // commanded, the latched fan↑ direction keeps protecting the
            // cap mid-window (safety override still applies at T_safe).
            Some(SsFanAction::Hold) => {
                let hi = self.spec.fan_bounds.hi();
                (self.server.fan_target() < hi).then_some(hi)
            }
            Some(SsFanAction::Release) => {
                // Descend directly to the lowest safe speed for the
                // predicted demand, as Section V-C prescribes, and restart
                // the PID so it re-bases bumplessly at the descent speed
                // instead of carrying integral state wound up during the
                // boost excursion.
                self.fan.reset();
                let safe = self
                    .server
                    .min_safe_fan_speed(predicted, self.fan.reference())
                    .unwrap_or(self.spec.fan_bounds.hi());
                Some(self.spec.fan_bounds.clamp(safe))
            }
            Some(SsFanAction::None) | None if fan_due => {
                if let Some(ar) = &self.adaptive_reference {
                    self.fan.set_reference(ar.reference());
                }
                Some(self.fan.decide(measured, self.server.fan_speed()))
            }
            _ => None,
        };

        // Capper proposal (or a pinned cap when disabled).
        let proposed_cap = match &self.capper {
            Some(capper) => capper.propose(measured, self.cap),
            None => Utilization::FULL,
        };

        let outcome = self.coordinator.coordinate(&CoordinationInputs {
            server: &self.server,
            measured,
            current_cap: self.cap,
            proposed_cap,
            current_fan_target: self.server.fan_target(),
            proposed_fan,
            predicted_demand: predicted,
        });

        self.cap = outcome.cap;
        if let Some(target) = outcome.fan_target {
            self.server.set_fan_target(target);
        }

        self.executed = demand.min(self.cap);
        self.monitor.record(demand, self.cap);

        traces.record_by_id(channels.u_demand, now, demand.value());
        traces.record_by_id(channels.u_cap, now, self.cap.value());
        traces.record_by_id(channels.u_executed, now, self.executed.value());
        traces.record_by_id(channels.t_measured_c, now, measured.value());
        traces.record_by_id(channels.t_junction_c, now, self.server.true_junction().value());
        traces.record_by_id(channels.fan_rpm, now, self.server.fan_speed().value());
        traces.record_by_id(channels.fan_target_rpm, now, self.server.fan_target().value());
        traces.record_by_id(channels.t_ref_c, now, self.fan.reference().value());
        for (i, &(junction, measured)) in channels.per_socket.iter().enumerate() {
            traces.record_by_id(junction, now, self.server.junction_socket(i).value());
            traces.record_by_id(measured, now, self.server.measured_socket(i).value());
        }
    }
}

/// Runs several compatible closed loops in lockstep for `horizon`
/// simulated seconds, solving all lanes' thermal networks through one
/// [`gfsc_thermal::BatchRcNetwork`] per step.
///
/// Per lane, this replays [`ClosedLoopSim::run`] operation for
/// operation: each lane runs `ClosedLoopSim::run`'s [`Cadence`] on the
/// shared plant-step instants, with its own control epochs, server
/// stepping and trace recording. Only the thermal solve is hoisted into
/// the shared batch, whose factorization memo is the point: lanes ramping
/// through the same fan lattice share LU factors across lanes *and* steps
/// instead of each refactorizing privately. Outcomes are **bitwise
/// identical** to running every lane alone.
///
/// Compatibility is the caller's contract (the sweep engine groups cells
/// before calling): every lane needs the same `sim_dt` and the same plant
/// topology, and lanes must run RC-network plants (multi-socket
/// topologies). Control intervals, workloads, seeds, controllers, ambient
/// and sensor models are free to differ per lane.
///
/// # Panics
///
/// Panics if `sims` is empty, a lane has a two-node plant, `sim_dt`
/// differs across lanes, or the plant topologies differ.
pub fn run_batch(sims: &mut [ClosedLoopSim], horizon: Seconds) -> Vec<RunOutcome> {
    use gfsc_thermal::{BatchRcNetwork, RcNetwork};

    assert!(!sims.is_empty(), "a batch needs at least one lane");
    let Some(first_lane) = sims.first() else { return Vec::new() };
    let sim_dt = first_lane.spec.sim_dt;
    for (i, sim) in sims.iter().enumerate() {
        assert_eq!(sim.spec.sim_dt, sim_dt, "lane {i}: lockstep lanes must share sim_dt");
        assert!(
            sim.server.batch_network().is_some(),
            "lane {i}: batched stepping requires an RC-network plant"
        );
    }
    let mut batch = {
        // The per-lane assert above guarantees every lane is
        // RC-network-backed, so the filter drops nothing.
        let nets: Vec<&RcNetwork> = sims.iter().filter_map(|s| s.server.batch_network()).collect();
        // gfsc-lint: allow(panic) documented API contract (lanes must share one topology), part of this fn's `# Panics` section
        BatchRcNetwork::new(&nets).expect("lockstep lanes must share one topology")
    };

    let mut lanes: Vec<_> = sims.iter().map(|sim| sim.start(horizon)).collect();
    for now in plant_steps(sim_dt, horizon) {
        for (sim, (cadence, traces, channels)) in sims.iter_mut().zip(&mut lanes) {
            if let Some(fan_due) = cadence.poll(now) {
                sim.control_epoch(now, fan_due, traces, channels);
            }
            sim.server.begin_step(sim_dt, sim.executed);
        }
        {
            // Same invariant as the construction above: every lane is
            // RC-network-backed, so the filter is a no-op.
            let mut nets: Vec<&mut RcNetwork> =
                sims.iter_mut().filter_map(|s| s.server.batch_network_mut()).collect();
            batch.step(&mut nets, sim_dt);
        }
        for sim in sims.iter_mut() {
            sim.server.finish_step(sim_dt);
        }
    }

    sims.iter().zip(lanes).map(|(sim, (_, traces, _))| sim.outcome(traces, horizon)).collect()
}

/// The epoch-rate channels, resolved to [`ChannelId`]s once per run: the
/// eight aggregate channels plus, on multi-socket plants, one
/// `(t_junction_s{i}_c, t_measured_s{i}_c)` pair per socket. Single-socket
/// runs create exactly the historical eight channels, so paper-reproduction
/// trace sets are unchanged.
#[derive(Debug, Clone)]
struct EpochChannels {
    u_demand: ChannelId,
    u_cap: ChannelId,
    u_executed: ChannelId,
    t_measured_c: ChannelId,
    t_junction_c: ChannelId,
    fan_rpm: ChannelId,
    fan_target_rpm: ChannelId,
    t_ref_c: ChannelId,
    per_socket: Vec<(ChannelId, ChannelId)>,
}

impl EpochChannels {
    /// Creates the channels in the documented order, each pre-sized for
    /// `capacity` samples.
    fn resolve(traces: &mut TraceSet, capacity: usize, sockets: usize) -> Self {
        Self {
            u_demand: traces.channel_with_capacity("u_demand", capacity),
            u_cap: traces.channel_with_capacity("u_cap", capacity),
            u_executed: traces.channel_with_capacity("u_executed", capacity),
            t_measured_c: traces.channel_with_capacity("t_measured_c", capacity),
            t_junction_c: traces.channel_with_capacity("t_junction_c", capacity),
            fan_rpm: traces.channel_with_capacity("fan_rpm", capacity),
            fan_target_rpm: traces.channel_with_capacity("fan_target_rpm", capacity),
            t_ref_c: traces.channel_with_capacity("t_ref_c", capacity),
            per_socket: if sockets > 1 {
                (0..sockets)
                    .map(|i| {
                        (
                            traces.channel_with_capacity(&format!("t_junction_s{i}_c"), capacity),
                            traces.channel_with_capacity(&format!("t_measured_s{i}_c"), capacity),
                        )
                    })
                    .collect()
            } else {
                Vec::new()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FixedPidFan, RuleBasedCoordinator};
    use gfsc_control::PidGains;
    use gfsc_units::{Bounds, Celsius};
    use gfsc_workload::{Constant, SquareWave};

    fn pid_fan() -> FixedPidFan {
        FixedPidFan::new(
            PidGains::new(696.0, 464.0, 261.0),
            Celsius::new(75.0),
            Bounds::new(Rpm::new(1000.0), Rpm::new(8500.0)),
            Some(1.0),
        )
    }

    fn basic_sim(workload: Workload) -> ClosedLoopSim {
        ClosedLoopSim::builder().workload(workload).fan(pid_fan()).build()
    }

    #[test]
    fn records_all_trace_channels() {
        let mut sim = basic_sim(Workload::builder(Constant::new(0.5)).build());
        let out = sim.run(Seconds::new(60.0));
        for name in [
            "u_demand",
            "u_cap",
            "u_executed",
            "t_measured_c",
            "t_junction_c",
            "fan_rpm",
            "fan_target_rpm",
            "t_ref_c",
        ] {
            let tr = out.traces.require(name).unwrap();
            assert_eq!(tr.len(), 61, "trace {name}");
        }
        // Single socket: no per-socket channels (historical trace shape).
        assert!(out.traces.require("t_junction_s0_c").is_err());
    }

    #[test]
    fn multi_socket_run_records_per_socket_channels() {
        let spec = gfsc_server::ServerSpec::with_topology(gfsc_thermal::Topology::dual_socket());
        let mut sim = ClosedLoopSim::builder()
            .spec(spec)
            .workload(Workload::builder(Constant::new(0.6)).build())
            .fan(pid_fan())
            .build();
        let out = sim.run(Seconds::new(60.0));
        for name in ["t_junction_s0_c", "t_junction_s1_c", "t_measured_s0_c", "t_measured_s1_c"] {
            assert_eq!(out.traces.require(name).unwrap().len(), 61, "trace {name}");
        }
        // The aggregate junction channel tracks the hottest socket.
        let agg = out.traces.require("t_junction_c").unwrap();
        let s0 = out.traces.require("t_junction_s0_c").unwrap();
        let s1 = out.traces.require("t_junction_s1_c").unwrap();
        for ((a, x), y) in agg.values().iter().zip(s0.values()).zip(s1.values()) {
            assert_eq!(*a, x.max(*y));
        }
    }

    #[test]
    fn epochs_match_horizon() {
        let mut sim = basic_sim(Workload::builder(Constant::new(0.3)).build());
        let out = sim.run(Seconds::new(300.0));
        assert_eq!(out.total_epochs, 301);
        assert_eq!(out.horizon, Seconds::new(300.0));

        // A horizon between plant steps: the 0.5 s step instants run to
        // 61 s (the first at or past 60.7 s), so the loop makes one CPU
        // epoch per second at t = 0, 1, …, 61.
        let mut sim = basic_sim(Workload::builder(Constant::new(0.3)).build());
        let out = sim.run(Seconds::new(60.7));
        assert_eq!(out.total_epochs, 62);
        let stamps = out.traces.require("u_demand").unwrap().times();
        let expected: Vec<f64> = (0..=61).map(f64::from).collect();
        assert_eq!(stamps, expected.as_slice());
    }

    #[test]
    fn no_violations_under_light_load() {
        let mut sim = basic_sim(Workload::builder(Constant::new(0.2)).build());
        let out = sim.run(Seconds::new(600.0));
        assert_eq!(out.total_violations, 0, "violations {}", out.violation_percent);
    }

    #[test]
    fn fan_regulates_toward_reference_under_steady_load() {
        let mut sim = basic_sim(Workload::builder(Constant::new(0.7)).build());
        let out = sim.run(Seconds::new(1800.0));
        let t = out.traces.require("t_junction_c").unwrap();
        // The tail should sit within a couple of kelvin of the 75 °C
        // reference (quantization keeps it from exact convergence).
        let tail = &t.values()[t.len() - 300..];
        let mean = gfsc_sim::stats::mean(tail);
        assert!((mean - 75.0).abs() < 2.5, "tail mean {mean}");
    }

    #[test]
    fn energy_meters_report() {
        let mut sim = basic_sim(Workload::builder(Constant::new(0.5)).build());
        let out = sim.run(Seconds::new(120.0));
        assert!(out.cpu_energy.value() > 0.0);
        assert!(out.fan_energy.value() > 0.0);
        // CPU dominates: 128 W × 120 s ≈ 15.4 kJ vs a few hundred J of fan.
        assert!(out.cpu_energy > out.fan_energy);
    }

    #[test]
    fn without_capper_pins_cap_at_full() {
        let mut sim = ClosedLoopSim::builder()
            .workload(Workload::builder(SquareWave::date14()).build())
            .fan(pid_fan())
            .without_capper()
            .build();
        let out = sim.run(Seconds::new(900.0));
        let cap = out.traces.require("u_cap").unwrap();
        assert!(cap.values().iter().all(|&c| c == 1.0));
        assert_eq!(out.total_violations, 0);
    }

    #[test]
    fn coordinated_run_executes() {
        let mut sim = ClosedLoopSim::builder()
            .workload(Workload::builder(SquareWave::date14()).gaussian_noise(0.04, 1).build())
            .fan(pid_fan())
            .coordinator(RuleBasedCoordinator::new(Celsius::new(80.0)))
            .adaptive_reference(AdaptiveReference::date14())
            .single_step(SingleStepFanScaling::new(0.3))
            .build();
        let out = sim.run(Seconds::new(900.0));
        assert_eq!(out.total_epochs, 901);
        // The adaptive reference must actually move with the load.
        let tref = out.traces.require("t_ref_c").unwrap();
        let spread = gfsc_sim::stats::peak_to_peak(tref.values());
        assert!(spread > 2.0, "reference never adapted: spread {spread}");
    }

    #[test]
    fn start_at_sets_initial_operating_point() {
        let mut sim = ClosedLoopSim::builder()
            .workload(Workload::builder(Constant::new(0.7)).build())
            .fan(pid_fan())
            .start_at(Utilization::new(0.7), Rpm::new(4000.0))
            .build();
        let out = sim.run(Seconds::new(10.0));
        let fan = out.traces.require("fan_rpm").unwrap();
        assert!((fan.values()[0] - 4000.0).abs() < 1e-6);
    }

    /// Lane configurations for the batched/scalar parity tests: same
    /// dual-socket topology, deliberately different workloads, seeds, and
    /// controller stacks per lane.
    fn parity_lane(i: usize) -> ClosedLoopSim {
        let spec = gfsc_server::ServerSpec::with_topology(gfsc_thermal::Topology::dual_socket());
        let builder = ClosedLoopSim::builder().spec(spec).fan(pid_fan());
        match i % 4 {
            0 => builder.workload(Workload::builder(Constant::new(0.55)).build()).build(),
            1 => builder
                .workload(Workload::builder(SquareWave::date14()).gaussian_noise(0.04, 7).build())
                .build(),
            2 => builder
                .workload(Workload::builder(Constant::new(0.8)).gaussian_noise(0.02, 11).build())
                .coordinator(RuleBasedCoordinator::new(Celsius::new(80.0)))
                .adaptive_reference(AdaptiveReference::date14())
                .single_step(SingleStepFanScaling::new(0.3))
                .build(),
            _ => builder
                .workload(Workload::builder(SquareWave::date14()).gaussian_noise(0.03, 3).build())
                .without_capper()
                .build(),
        }
    }

    fn assert_outcomes_bitwise_eq(batched: &RunOutcome, scalar: &RunOutcome, lane: usize) {
        assert_eq!(batched.total_epochs, scalar.total_epochs, "lane {lane}: epochs");
        assert_eq!(batched.total_violations, scalar.total_violations, "lane {lane}: violations");
        assert_eq!(
            batched.violation_percent.to_bits(),
            scalar.violation_percent.to_bits(),
            "lane {lane}: violation percent"
        );
        assert_eq!(
            batched.lost_utilization.to_bits(),
            scalar.lost_utilization.to_bits(),
            "lane {lane}: lost utilization"
        );
        assert_eq!(
            batched.fan_energy.value().to_bits(),
            scalar.fan_energy.value().to_bits(),
            "lane {lane}: fan energy"
        );
        assert_eq!(
            batched.cpu_energy.value().to_bits(),
            scalar.cpu_energy.value().to_bits(),
            "lane {lane}: cpu energy"
        );
        for b in batched.traces.iter() {
            let name = b.name();
            let s = scalar.traces.require(name).unwrap();
            assert_eq!(b.len(), s.len(), "lane {lane}: trace {name} length");
            for (step, (bt, st)) in b.times().iter().zip(s.times()).enumerate() {
                assert_eq!(
                    bt.to_bits(),
                    st.to_bits(),
                    "lane {lane}: trace {name} stamped differently at sample {step}: {bt} vs {st}"
                );
            }
            for (step, (bv, sv)) in b.values().iter().zip(s.values()).enumerate() {
                assert_eq!(
                    bv.to_bits(),
                    sv.to_bits(),
                    "lane {lane}: trace {name} diverges at sample {step}: {bv} vs {sv}"
                );
            }
        }
    }

    #[test]
    fn batched_lanes_match_scalar_runs_bitwise() {
        let horizon = Seconds::new(240.0);
        let mut lanes: Vec<ClosedLoopSim> = (0..6).map(parity_lane).collect();
        let batched = run_batch(&mut lanes, horizon);

        for (i, batched) in batched.iter().enumerate() {
            let scalar = parity_lane(i).run(horizon);
            assert_outcomes_bitwise_eq(batched, &scalar, i);
        }
    }

    #[test]
    fn single_lane_batch_matches_scalar_run_bitwise() {
        // Off the 0.5 s step grid, so both loops must agree on where the
        // horizon falls between plant steps.
        let horizon = Seconds::new(180.7);
        let mut lanes = vec![parity_lane(2)];
        let batched = run_batch(&mut lanes, horizon);
        let scalar = parity_lane(2).run(horizon);
        assert_outcomes_bitwise_eq(&batched[0], &scalar, 0);
    }

    #[test]
    #[should_panic(expected = "RC-network plant")]
    fn batch_rejects_two_node_plants() {
        let mut lanes = vec![basic_sim(Workload::builder(Constant::new(0.5)).build())];
        let _ = run_batch(&mut lanes, Seconds::new(10.0));
    }

    #[test]
    #[should_panic(expected = "workload is required")]
    fn missing_workload_rejected() {
        let _ = ClosedLoopSim::builder().fan(pid_fan()).build();
    }

    #[test]
    #[should_panic(expected = "fan controller is required")]
    fn missing_fan_rejected() {
        let _ = ClosedLoopSim::builder()
            .workload(Workload::builder(Constant::new(0.1)).build())
            .build();
    }
}
