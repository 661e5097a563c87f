//! The degenerate case for the lifted controllers: on a single-zone,
//! no-plenum rack the new rack modes must replay the *single-server*
//! machinery bit for bit — the same contract `tests/properties.rs` pins
//! for the plant, one layer up at the controllers.
//!
//! - `CoordinatedECoord` vs the single-server closed loop running
//!   [`EnergyAwareCoordinator`]: the whole stack (plant, sensor chains,
//!   actuator, cap policy, model-based fan sizing) must produce
//!   bit-identical traces, because the zone lift *is* the single-server
//!   decision logic evaluated against the zone's `PlantModel` view.
//! - `CoordinatedSsFan` vs a transparent single-fan loop driving the
//!   single-server [`SingleStepFanScaling`] state machine directly: the
//!   bank's windows, guard and release descent must add nothing on a
//!   rack with one zone and no neighbours.

use gfsc_control::PidGains;
use gfsc_coord::obs::Recorder;
use gfsc_coord::{
    AdaptiveReference, CappingCoordinator, ClosedLoopSim, EnergyAwareCoordinator, FanController,
    FixedPidFan, IntegralCapper, RackControl, RackLoopSim, SingleStepFanScaling, SsFanAction,
    ZoneEnergyCoordinator,
};
use gfsc_rack::{RackServer, RackSpec, RackTopology};
use gfsc_sensors::MovingAverage;
use gfsc_server::ServerSpec;
use gfsc_sim::{plant_steps, Cadence};
use gfsc_thermal::Topology;
use gfsc_units::{Celsius, Rpm, Seconds, Utilization};
use gfsc_workload::{SquareWave, Workload};
use std::collections::VecDeque;

/// The evaluation-style workload (square wave + noise + spikes), built
/// fresh per call — deterministic under the fixed seeds.
fn workload() -> Workload {
    Workload::builder(SquareWave::date14())
        .gaussian_noise(0.04, 21)
        .spikes(1.0 / 180.0, Seconds::new(30.0), 0.8, 22)
        .build()
}

fn spec() -> ServerSpec {
    ServerSpec::with_topology(Topology::dual_socket())
}

fn degenerate_rack_spec() -> RackSpec {
    RackSpec { server: spec(), rack: RackTopology::single_server(Topology::dual_socket()) }
}

fn pid_fan(spec: &ServerSpec) -> FixedPidFan {
    // The same controller RackLoopSim builds without a gain schedule.
    FixedPidFan::new(
        PidGains::new(696.0, 464.0, 261.0),
        Celsius::new(75.0),
        spec.fan_bounds,
        (spec.quantization_step > 0.0).then_some(spec.quantization_step),
    )
}

fn assert_bitwise(name: &str, rack: &[f64], single: &[f64]) {
    assert_eq!(rack.len(), single.len(), "{name}: length mismatch");
    for (k, (a, b)) in rack.iter().zip(single).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{name} diverged at epoch {k}: {a} vs {b}");
    }
}

#[test]
fn ecoord_degenerate_rack_replays_the_single_server_closed_loop() {
    let horizon = Seconds::new(2400.0);

    let mut single = ClosedLoopSim::builder()
        .spec(spec())
        .workload(workload())
        .fan(pid_fan(&spec()))
        .coordinator(EnergyAwareCoordinator::date14())
        .start_at(Utilization::new(0.1), Rpm::new(1500.0))
        .build();
    let single_out = single.run(horizon);

    let mut rack = RackLoopSim::builder(degenerate_rack_spec())
        .workload(workload())
        .control(RackControl::CoordinatedECoord)
        .energy_coordinator(ZoneEnergyCoordinator::new(EnergyAwareCoordinator::date14()))
        .build();
    let rack_out = rack.run(horizon);

    // The run must exercise the interesting paths, or the parity is
    // vacuous: model-sized fan moves and at least one thermal event.
    let caps = single_out.traces.require("u_cap").unwrap().values();
    assert!(caps.iter().any(|&c| c < 1.0), "no thermal event: the cap never moved");

    for (rack_name, single_name) in [
        ("z0_fan_rpm", "fan_rpm"),
        ("z0_t_meas_c", "t_measured_c"),
        ("s0_cap", "u_cap"),
        ("s1_cap", "u_cap"),
        ("s0_t_junction_c", "t_junction_s0_c"),
        ("s1_t_junction_c", "t_junction_s1_c"),
    ] {
        assert_bitwise(
            rack_name,
            rack_out.traces.require(rack_name).unwrap().values(),
            single_out.traces.require(single_name).unwrap().values(),
        );
    }
    assert_eq!(
        rack_out.fan_energy.value().to_bits(),
        single_out.fan_energy.value().to_bits(),
        "fan energy diverged"
    );
    assert_eq!(
        rack_out.cpu_energy.value().to_bits(),
        single_out.cpu_energy.value().to_bits(),
        "CPU energy diverged"
    );
    // Per-socket vs per-epoch accounting scale by the same factor 2.
    assert_eq!(
        rack_out.violation_percent.to_bits(),
        single_out.violation_percent.to_bits(),
        "violation percentage diverged"
    );
}

#[test]
fn global_descent_degenerate_rack_replays_the_per_zone_descent() {
    // One zone, no plenum: the Gauss–Seidel joint descent has a single
    // coordinate and nothing to iterate against, so `GlobalECoord` must
    // replay `CoordinatedECoord` — and therefore, transitively through
    // the test above, the single-server E-coord closed loop — bit for
    // bit. The same `date14` policy on both sides so the thermal events
    // actually fire.
    let horizon = Seconds::new(2400.0);
    let run = |control: RackControl| {
        let mut sim = RackLoopSim::builder(degenerate_rack_spec())
            .workload(workload())
            .control(control)
            .energy_coordinator(ZoneEnergyCoordinator::new(EnergyAwareCoordinator::date14()))
            .energy_descent(gfsc_coord::RackEnergyDescent::new(
                ZoneEnergyCoordinator::new(EnergyAwareCoordinator::date14()),
                6,
                Rpm::new(0.5),
            ))
            .build();
        sim.run(horizon)
    };
    let zone = run(RackControl::CoordinatedECoord);
    let global = run(RackControl::GlobalECoord);

    let caps = zone.traces.require("s0_cap").unwrap().values();
    assert!(caps.iter().any(|&c| c < 1.0), "no thermal event: the parity is vacuous");

    for name in ["z0_fan_rpm", "z0_t_meas_c", "s0_cap", "s1_cap", "s0_t_junction_c"] {
        assert_bitwise(
            name,
            global.traces.require(name).unwrap().values(),
            zone.traces.require(name).unwrap().values(),
        );
    }
    assert_eq!(global.fan_energy.value().to_bits(), zone.fan_energy.value().to_bits());
    assert_eq!(global.cpu_energy.value().to_bits(), zone.cpu_energy.value().to_bits());
    assert_eq!(global.violation_percent.to_bits(), zone.violation_percent.to_bits());
}

/// A transparent single-fan loop built from the single-server components
/// themselves — [`SingleStepFanScaling`], [`AdaptiveReference`], the
/// capper bank — driving the same physical rack. What
/// `RackControl::CoordinatedSsFan` must degenerate to.
struct SingleFanSsLoop {
    server: RackServer,
    fan: FixedPidFan,
    capper: IntegralCapper,
    coordinator: CappingCoordinator,
    reference: AdaptiveReference,
    ss: SingleStepFanScaling,
    demand_filter: MovingAverage,
    window: VecDeque<f64>,
    window_len: usize,
    caps: Vec<Utilization>,
    proposed: Vec<Utilization>,
    demands: Vec<Utilization>,
    executed: Vec<Utilization>,
    measured: Vec<Celsius>,
    fan_trace: Vec<f64>,
    cap_trace: Vec<f64>,
    meas_trace: Vec<f64>,
}

impl SingleFanSsLoop {
    fn new(spec: RackSpec) -> Self {
        let mut server = RackServer::new(spec.clone());
        let sockets = server.socket_count();
        server.equilibrate(Utilization::new(0.1), &[Rpm::new(1500.0)]);
        Self {
            server,
            fan: pid_fan(&spec.server),
            capper: IntegralCapper::date14_rack(),
            coordinator: CappingCoordinator::new(sockets, 2, spec.server.t_safe),
            reference: AdaptiveReference::date14(),
            ss: SingleStepFanScaling::new(0.3),
            demand_filter: MovingAverage::new(30),
            window: VecDeque::new(),
            window_len: 10,
            caps: vec![Utilization::FULL; sockets],
            proposed: vec![Utilization::FULL; sockets],
            demands: vec![Utilization::IDLE; sockets],
            executed: vec![Utilization::new(0.1); sockets],
            measured: vec![spec.server.ambient; sockets],
            fan_trace: Vec::new(),
            cap_trace: Vec::new(),
            meas_trace: Vec::new(),
        }
    }

    fn run(&mut self, workload: &mut Workload, horizon: Seconds) {
        let spec = self.server.spec().server.clone();
        let mut cadence = Cadence::new(spec.cpu_control_interval, spec.fan_control_interval);
        for now in plant_steps(spec.sim_dt, horizon) {
            if let Some(fan_due) = cadence.poll(now) {
                self.epoch(workload.sample(now), fan_due, spec.fan_bounds.hi());
            }
            let executed = core::mem::take(&mut self.executed);
            self.server.step(spec.sim_dt, &executed);
            self.executed = executed;
        }
    }

    fn epoch(&mut self, demand: Utilization, fan_due: bool, hi: Rpm) {
        let sockets = self.server.socket_count();
        self.server.socket_demands(demand, &mut self.demands);
        for i in 0..sockets {
            self.measured[i] = self.server.measured_socket(i);
        }
        for i in 0..sockets {
            self.proposed[i] = self.capper.propose(self.measured[i], self.caps[i]);
        }
        self.coordinator.arbitrate(
            &self.measured,
            &mut self.caps,
            &self.proposed,
            0,
            &mut Recorder::disarmed(),
        );
        let mut sum = 0.0;
        for d in &self.demands {
            sum += d.value();
        }
        self.reference.observe(Utilization::new(sum / sockets as f64));
        self.demand_filter.update(demand.value());
        let predicted = Utilization::new(self.demand_filter.value().unwrap_or(0.0));

        let rate = if self.window.is_empty() {
            0.0
        } else {
            self.window.iter().sum::<f64>() / self.window.len() as f64
        };
        let reference = self.fan.reference();
        match self.ss.evaluate(rate, self.server.measured_zone(0), reference) {
            SsFanAction::Hold => {
                if self.server.zone_fan_target(0) < hi {
                    self.server.set_zone_fan_target(0, hi);
                }
            }
            SsFanAction::Release => {
                FanController::reset(&mut self.fan);
                let bounds = self.server.spec().server.fan_bounds;
                let safe = self.server.min_safe_zone_fan(0, predicted, reference).unwrap_or(hi);
                self.server.set_zone_fan_target(0, bounds.clamp(safe));
            }
            SsFanAction::None => {
                if fan_due {
                    self.fan.set_reference(self.reference.reference());
                    let cmd = self
                        .fan
                        .decide(self.server.measured_zone(0), self.server.zone_fan_speed(0));
                    self.server.set_zone_fan_target(0, cmd);
                }
            }
        }

        let mut violated = 0usize;
        for i in 0..sockets {
            self.executed[i] = self.demands[i].min(self.caps[i]);
            if self.demands[i].value() > self.caps[i].value() + 1e-12 {
                violated += 1;
            }
        }
        if self.window.len() == self.window_len {
            self.window.pop_front();
        }
        self.window.push_back(violated as f64 / sockets as f64);

        self.fan_trace.push(self.server.zone_fan_speed(0).value());
        self.cap_trace.push(self.caps[0].value());
        self.meas_trace.push(self.server.measured_zone(0).value());
    }
}

#[test]
fn ssfan_degenerate_rack_replays_the_single_server_state_machine() {
    let horizon = Seconds::new(2400.0);

    let mut rack = RackLoopSim::builder(degenerate_rack_spec())
        .workload(workload())
        .control(RackControl::CoordinatedSsFan { adaptive_reference: true })
        .build();
    let rack_out = rack.run(horizon);

    let mut reference = SingleFanSsLoop::new(degenerate_rack_spec());
    reference.run(&mut workload(), horizon);

    // The boost path must actually fire, or the parity says nothing about
    // the state machine.
    let hi = degenerate_rack_spec().server.fan_bounds.hi().value();
    assert!(
        reference.fan_trace.iter().any(|&v| v >= hi - 1.0),
        "the single-step boost never fired"
    );

    assert_bitwise(
        "z0_fan_rpm",
        rack_out.traces.require("z0_fan_rpm").unwrap().values(),
        &reference.fan_trace,
    );
    assert_bitwise(
        "s0_cap",
        rack_out.traces.require("s0_cap").unwrap().values(),
        &reference.cap_trace,
    );
    assert_bitwise(
        "z0_t_meas_c",
        rack_out.traces.require("z0_t_meas_c").unwrap().values(),
        &reference.meas_trace,
    );
}
