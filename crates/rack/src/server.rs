//! The assembled rack: plant + per-zone fan actuators + per-socket sensor
//! chains + energy metering — the rack-level analogue of
//! `gfsc_server::Server`.

use crate::{RackPlant, RackTopology};
use gfsc_power::EnergyMeter;
use gfsc_sensors::MeasurementPipeline;
use gfsc_server::{build_measurement_pipeline, FanActuator, ServerSpec};
use gfsc_units::{Celsius, Joules, Rpm, Seconds, Utilization, Watts};

/// The complete parameterization of a simulated rack: one per-server
/// calibration (Table I constants, sensor chain, firmware intervals)
/// shared by every slot, plus the rack structure.
///
/// The spec's own `topology` field is ignored — each [`RackTopology`] slot
/// carries its own board.
#[derive(Debug, Clone, PartialEq)]
pub struct RackSpec {
    /// Per-server calibration (thermal constants, sensor chain, fan
    /// bounds, control intervals), shared by every slot.
    pub server: ServerSpec,
    /// The rack structure: fan zones, server slots, plenum coupling.
    pub rack: RackTopology,
}

impl RackSpec {
    /// The default Table I calibration on the given rack structure.
    #[must_use]
    pub fn new(rack: RackTopology) -> Self {
        Self { server: ServerSpec::enterprise_default(), rack }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if either part fails its own validation.
    pub fn validate(&self) {
        self.server.validate();
        self.rack.validate();
    }
}

/// The closed physical rack: per-socket CPU power → coupled rack thermal
/// network → per-zone fans → per-socket non-ideal sensor chains → per-zone
/// max aggregation, with rack-wide CPU and fan energy metering.
///
/// The rack knows nothing about control policy; controllers read
/// [`RackServer::measured_zone`] / [`RackServer::measured_socket`] and
/// command [`RackServer::set_zone_fan_target`], while the coordination
/// layer decides the per-socket *executed* utilizations passed to
/// [`RackServer::step`].
///
/// # Examples
///
/// ```
/// use gfsc_rack::{RackServer, RackSpec, RackTopology};
/// use gfsc_units::{Rpm, Seconds, Utilization};
///
/// let mut rack = RackServer::new(RackSpec::new(RackTopology::rack_1u_x8()));
/// let executed = vec![Utilization::new(0.7); rack.socket_count()];
/// rack.set_zone_fan_target(0, Rpm::new(4000.0));
/// rack.set_zone_fan_target(1, Rpm::new(4000.0));
/// for _ in 0..240 {
///     rack.step(Seconds::new(0.5), &executed);
/// }
/// assert!(rack.true_junction() > rack.spec().server.ambient);
/// ```
#[derive(Debug, Clone)]
pub struct RackServer {
    spec: RackSpec,
    plant: RackPlant,
    fans: Vec<FanActuator>,
    /// One measurement chain per flat socket.
    pipelines: Vec<MeasurementPipeline>,
    cpu_energy: EnergyMeter,
    fan_energy: EnergyMeter,
    now: Seconds,
    /// Per-zone max-aggregated firmware view, refreshed every step.
    measured_zone: Vec<Celsius>,
    /// Per-server demand weights. Starts at the topology's slot weights;
    /// a work migrator may shift weight between servers at run time.
    server_weights: Vec<f64>,
    /// Flat per-socket base weights (the socket's own load weight,
    /// immutable — migration moves *server* weight).
    socket_base_weights: Vec<f64>,
    /// Flat per-socket demand weights: server weight × socket base
    /// weight, re-derived whenever server weights move.
    socket_weights: Vec<f64>,
    /// Per-socket power scratch (no per-step allocation).
    socket_powers: Vec<Watts>,
    /// Per-zone fan-speed scratch.
    zone_speeds: Vec<Rpm>,
    /// The executed utilizations of the latest step.
    executed: Vec<Utilization>,
    /// Probe scratch for [`RackServer::min_safe_zone_fan`] (no per-call
    /// allocation).
    probe_powers: Vec<Watts>,
    /// Probe scratch: the frozen other-zone fan speeds.
    probe_fans: Vec<Rpm>,
}

impl RackServer {
    /// Builds a rack at thermal equilibrium with its ambient, every zone
    /// fan at the minimum speed.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`RackSpec::validate`] or the topology
    /// cannot be compiled into a network.
    #[must_use]
    pub fn new(spec: RackSpec) -> Self {
        spec.validate();
        let plant = RackPlant::new(&spec.server.calibration(), &spec.rack)
            // gfsc-lint: allow(panic) construction-time only (spec.validate() just ran); documented in this fn's `# Panics` section
            .expect("stock rack topologies compile");
        let server = &spec.server;
        let fans = (0..plant.zone_count())
            .map(|_| {
                FanActuator::new(server.fan_bounds.lo(), server.fan_bounds, server.fan_slew)
                    .with_cmd_step(server.fan_cmd_step)
            })
            .collect();
        let pipelines: Vec<MeasurementPipeline> = (0..plant.socket_count())
            .map(|_| build_measurement_pipeline(server, server.ambient))
            .collect();
        let server_weights: Vec<f64> = spec.rack.servers().iter().map(|s| s.load_weight).collect();
        let socket_base_weights: Vec<f64> = spec
            .rack
            .servers()
            .iter()
            .flat_map(|slot| slot.board.sockets().iter().map(|socket| socket.load_weight))
            .collect();
        let socket_weights = spec
            .rack
            .servers()
            .iter()
            .flat_map(|slot| {
                slot.board.sockets().iter().map(|socket| slot.load_weight * socket.load_weight)
            })
            .collect();
        let measured_zone = vec![server.ambient; plant.zone_count()];
        let socket_powers = vec![Watts::new(0.0); plant.socket_count()];
        let zone_speeds = vec![server.fan_bounds.lo(); plant.zone_count()];
        let executed = vec![Utilization::IDLE; plant.socket_count()];
        let probe_powers = vec![Watts::new(0.0); plant.socket_count()];
        let probe_fans = vec![server.fan_bounds.lo(); plant.zone_count()];
        let mut rack = Self {
            spec,
            plant,
            fans,
            pipelines,
            cpu_energy: EnergyMeter::new(),
            fan_energy: EnergyMeter::new(),
            now: Seconds::new(0.0),
            measured_zone,
            server_weights,
            socket_base_weights,
            socket_weights,
            socket_powers,
            zone_speeds,
            executed,
            probe_powers,
            probe_fans,
        };
        rack.refresh_measured();
        rack
    }

    /// The calibration in use.
    #[must_use]
    pub fn spec(&self) -> &RackSpec {
        &self.spec
    }

    /// The rack thermal plant (for model-based controllers and per-zone
    /// [`gfsc_thermal::PlantModel`] views).
    #[must_use]
    pub fn plant(&self) -> &RackPlant {
        &self.plant
    }

    /// Mutable plant access (per-zone views are mutable by construction).
    #[must_use]
    pub fn plant_mut(&mut self) -> &mut RackPlant {
        &mut self.plant
    }

    /// Simulation time accumulated by this rack.
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Number of fan zones.
    #[must_use]
    pub fn zone_count(&self) -> usize {
        self.fans.len()
    }

    /// Total socket count (the length of every per-socket slice).
    #[must_use]
    pub fn socket_count(&self) -> usize {
        self.pipelines.len()
    }

    /// Number of servers.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.plant.server_count()
    }

    /// Socket `i`'s demand under rack-wide demand `u`:
    /// `clamp(u × slot weight × socket weight)`.
    #[must_use]
    pub fn socket_demand(&self, i: usize, u: Utilization) -> Utilization {
        Utilization::new(u.value() * self.socket_weights[i])
    }

    /// Fills `out` with every socket's demand under rack-wide demand `u`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not one entry per socket.
    pub fn socket_demands(&self, u: Utilization, out: &mut [Utilization]) {
        assert_eq!(out.len(), self.socket_weights.len(), "one demand per socket");
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.socket_demand(i, u);
        }
    }

    /// Server `s`'s current demand weight (the topology's slot weight,
    /// possibly shifted at run time by [`RackServer::shift_load_weight`]).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn server_load_weight(&self, s: usize) -> f64 {
        self.server_weights[s]
    }

    /// Socket `i`'s effective demand weight (server weight × socket base
    /// weight).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn socket_load_weight(&self, i: usize) -> f64 {
        self.socket_weights[i]
    }

    /// Moves `amount` of demand weight from server `from` to server `to` —
    /// the load-weight mutation hook a work migrator drives. The rack-wide
    /// weight sum is conserved, so (absent cap saturation) total demand
    /// is too; only its placement changes. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the indices coincide or are out of range, `amount` is not
    /// positive, or the transfer would drain `from` to zero (a server
    /// keeps a strictly positive share of its own work).
    pub fn shift_load_weight(&mut self, from: usize, to: usize, amount: f64) {
        assert!(from != to, "cannot migrate a server's work onto itself");
        assert!(amount > 0.0, "migrated weight must be positive");
        assert!(
            self.server_weights[from] - amount > 0.0,
            "migration would drain server {from} (weight {}, amount {amount})",
            self.server_weights[from]
        );
        self.server_weights[from] -= amount;
        self.server_weights[to] += amount;
        for s in [from, to] {
            let weight = self.server_weights[s];
            for i in self.plant.server_sockets(s) {
                self.socket_weights[i] = weight * self.socket_base_weights[i];
            }
        }
    }

    /// Hottest true junction temperature across the rack (invisible to
    /// firmware).
    #[must_use]
    pub fn true_junction(&self) -> Celsius {
        self.plant.hottest_junction()
    }

    /// True junction temperature of flat socket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn junction_socket(&self, i: usize) -> Celsius {
        self.plant.junction(i)
    }

    /// The firmware's (lagged, quantized) view of socket `i`'s junction.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn measured_socket(&self, i: usize) -> Celsius {
        Celsius::new(self.pipelines[i].current())
    }

    /// Zone `z`'s aggregated firmware view: the hottest of its sockets'
    /// measurement chains (max aggregation — the fan must satisfy the
    /// worst socket it serves).
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    #[must_use]
    pub fn measured_zone(&self, z: usize) -> Celsius {
        self.measured_zone[z]
    }

    /// The rack-wide aggregated view: the hottest zone aggregate — what a
    /// naive global controller acts on.
    #[must_use]
    pub fn measured_rack(&self) -> Celsius {
        let Some((&first, rest)) = self.measured_zone.split_first() else {
            // A zoneless rack cannot be built (the spec validates), but
            // reading ambient beats indexing into an empty aggregate.
            return self.spec.server.ambient;
        };
        let mut hottest = first;
        for &m in rest {
            hottest = hottest.hotter(m);
        }
        hottest
    }

    /// Actual fan speed of zone `z`.
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    #[must_use]
    pub fn zone_fan_speed(&self, z: usize) -> Rpm {
        self.fans[z].speed()
    }

    /// Commanded fan target of zone `z`.
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    #[must_use]
    pub fn zone_fan_target(&self, z: usize) -> Rpm {
        self.fans[z].target()
    }

    /// Commands zone `z`'s fans toward `target` (clamped to the mechanical
    /// range).
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    pub fn set_zone_fan_target(&mut self, z: usize, target: Rpm) {
        self.fans[z].set_target(target);
    }

    /// Commands every zone to the same target — the naive global rule.
    pub fn set_all_fan_targets(&mut self, target: Rpm) {
        for fan in &mut self.fans {
            fan.set_target(target);
        }
    }

    /// The executed utilizations of the latest step.
    #[must_use]
    pub fn executed(&self) -> &[Utilization] {
        &self.executed
    }

    /// Total CPU energy so far, summed over every socket.
    #[must_use]
    pub fn cpu_energy(&self) -> Joules {
        self.cpu_energy.total()
    }

    /// Total fan energy so far, summed over every zone's fan wall — the
    /// rack study's cost metric.
    #[must_use]
    pub fn fan_energy(&self) -> Joules {
        self.fan_energy.total()
    }

    /// Instantaneous fan power: each zone's wall draws
    /// `fans × FanPowerModel::power(speed)`.
    #[must_use]
    pub fn fan_power(&self) -> Watts {
        let mut total = 0.0;
        for (z, fan) in self.fans.iter().enumerate() {
            let per_fan = self.spec.server.fan_power.power(fan.speed()).value();
            total += per_fan * self.spec.rack.zones()[z].fans as f64;
        }
        Watts::new(total)
    }

    /// The minimum fan speed for zone `z` keeping its steady-state
    /// junctions at or below `limit` while every socket executes its share
    /// of rack demand `u`, other zones held at their current speeds.
    /// Allocation-free (scratch-buffered): safe to call from the epoch
    /// loop, e.g. on a single-step descent.
    #[must_use]
    pub fn min_safe_zone_fan(&mut self, z: usize, u: Utilization, limit: Celsius) -> Option<Rpm> {
        for i in 0..self.probe_powers.len() {
            self.probe_powers[i] = self.spec.server.cpu_power.power(self.socket_demand(i, u));
        }
        for (slot, fan) in self.probe_fans.iter_mut().zip(&self.fans) {
            *slot = fan.speed();
        }
        self.plant.min_safe_zone_fan(z, &self.probe_powers, &self.probe_fans, limit)
    }

    /// Advances the rack by `dt` with per-socket executed utilizations:
    /// fan mechanics → coupled thermal step → energy metering → sensor
    /// chains → per-zone aggregation. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `executed` is not one entry per socket.
    pub fn step(&mut self, dt: Seconds, executed: &[Utilization]) {
        assert_eq!(executed.len(), self.socket_powers.len(), "one utilization per socket");
        self.executed.copy_from_slice(executed);
        let mut p_cpu = 0.0;
        for (slot, &u) in self.socket_powers.iter_mut().zip(executed) {
            let p = self.spec.server.cpu_power.power(u);
            *slot = p;
            p_cpu += p.value();
        }
        for (slot, fan) in self.zone_speeds.iter_mut().zip(&mut self.fans) {
            *slot = fan.step(dt);
        }
        self.plant.step(dt, &self.socket_powers, &self.zone_speeds);

        self.cpu_energy.accumulate(Watts::new(p_cpu), dt);
        self.fan_energy.accumulate(self.fan_power(), dt);

        self.now += dt;
        for (i, pipeline) in self.pipelines.iter_mut().enumerate() {
            let _ = pipeline.observe_celsius(self.now, self.plant.junction(i));
        }
        self.refresh_measured();
    }

    /// Recomputes the per-zone max aggregates from the chain outputs. A
    /// slotless zone has no sensors; it reads the ambient.
    fn refresh_measured(&mut self) {
        for z in 0..self.measured_zone.len() {
            let sockets = self.plant.zone_sockets(z);
            let Some((&first, rest)) = sockets.split_first() else {
                self.measured_zone[z] = self.spec.server.ambient;
                continue;
            };
            let mut hottest = self.pipelines[first].current();
            for &i in rest {
                hottest = hottest.max(self.pipelines[i].current());
            }
            self.measured_zone[z] = Celsius::new(hottest);
        }
    }

    /// Re-initializes the rack in steady state at rack demand `u` and the
    /// given per-zone fan speeds: thermal nodes at their equilibria,
    /// actuators settled, sensor chains reporting the (quantized)
    /// equilibrium temperatures, meters and clock zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `fans` is not one entry per zone.
    pub fn equilibrate(&mut self, u: Utilization, fans: &[Rpm]) {
        assert_eq!(fans.len(), self.fans.len(), "one fan speed per zone");
        for (z, (&fan, actuator)) in fans.iter().zip(&mut self.fans).enumerate() {
            let clamped = self.spec.server.fan_bounds.clamp(fan);
            actuator.snap_to(clamped);
            self.zone_speeds[z] = clamped;
        }
        for i in 0..self.socket_count() {
            let demand = self.socket_demand(i, u);
            self.socket_powers[i] = self.spec.server.cpu_power.power(demand);
            self.executed[i] = demand;
        }
        let powers = core::mem::take(&mut self.socket_powers);
        let speeds = core::mem::take(&mut self.zone_speeds);
        self.plant.equilibrate(&powers, &speeds);
        self.socket_powers = powers;
        self.zone_speeds = speeds;
        for i in 0..self.socket_count() {
            self.pipelines[i] =
                build_measurement_pipeline(&self.spec.server, self.plant.junction(i));
        }
        self.refresh_measured();
        self.cpu_energy.reset();
        self.fan_energy.reset();
        self.now = Seconds::new(0.0);
    }
}

/// Adapter exposing one zone's fan → measured-temperature loop as a
/// `gfsc_control::Plant` for Ziegler–Nichols tuning — the rack analogue of
/// `gfsc_server::FanPlant`, so zone fan loops are tuned with exactly the
/// machinery the paper's controller uses.
///
/// Each [`gfsc_control::Plant::step`] applies a zone fan command, holds it
/// for one fan decision period while the whole rack integrates (other
/// zones at their operating speeds), and returns the zone's aggregated
/// measurement — lag and quantization included.
#[derive(Debug, Clone)]
pub struct ZoneFanPlant {
    rack: RackServer,
    zone: usize,
    utilization: Utilization,
    operating: Vec<Rpm>,
    executed: Vec<Utilization>,
    /// The zone's measurement at the (fixed) operating-point equilibrium,
    /// captured at construction.
    equilibrium: f64,
}

impl ZoneFanPlant {
    /// Creates the adapter around a fresh rack, equilibrated at
    /// `(utilization, operating)` with zone `zone` under tuning.
    ///
    /// # Panics
    ///
    /// Panics if `zone` is out of range or `operating` is not one speed
    /// per zone.
    #[must_use]
    pub fn new(spec: RackSpec, zone: usize, utilization: Utilization, operating: Vec<Rpm>) -> Self {
        let mut rack = RackServer::new(spec);
        assert!(zone < rack.zone_count(), "zone {zone} out of range");
        assert_eq!(operating.len(), rack.zone_count(), "one operating speed per zone");
        rack.equilibrate(utilization, &operating);
        let mut executed = vec![Utilization::IDLE; rack.socket_count()];
        rack.socket_demands(utilization, &mut executed);
        let equilibrium = rack.measured_zone(zone).value();
        Self { rack, zone, utilization, operating, executed, equilibrium }
    }

    /// The zone under tuning.
    #[must_use]
    pub fn zone(&self) -> usize {
        self.zone
    }

    /// The equilibrium zone measurement at the operating point — the
    /// natural set-point for tuning probes.
    #[must_use]
    pub fn equilibrium_temperature(&self) -> f64 {
        self.equilibrium
    }
}

impl gfsc_control::Plant for ZoneFanPlant {
    fn reset(&mut self) {
        self.rack.equilibrate(self.utilization, &self.operating);
    }

    fn step(&mut self, input: f64) -> f64 {
        self.rack.set_zone_fan_target(self.zone, Rpm::saturating_new(input.max(0.0)));
        let dt = self.rack.spec().server.sim_dt;
        let period = self.rack.spec().server.fan_control_interval;
        let substeps = (period / dt).round() as usize;
        for _ in 0..substeps {
            self.rack.step(dt, &self.executed);
        }
        self.rack.measured_zone(self.zone).value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rack() -> RackServer {
        RackServer::new(RackSpec::new(RackTopology::rack_1u_x8()))
    }

    #[test]
    fn starts_at_ambient_equilibrium() {
        let r = rack();
        assert_eq!(r.true_junction(), r.spec().server.ambient);
        assert_eq!(r.zone_fan_speed(0), r.spec().server.fan_bounds.lo());
        assert_eq!(r.now(), Seconds::new(0.0));
        assert_eq!(r.cpu_energy(), Joules::new(0.0));
        assert_eq!(r.socket_count(), 8);
        assert_eq!(r.zone_count(), 2);
        assert_eq!(r.server_count(), 8);
    }

    #[test]
    fn heats_under_load_and_cools_with_zone_fans() {
        let mut r = rack();
        let executed = vec![Utilization::new(0.7); 8];
        for _ in 0..1200 {
            r.step(Seconds::new(0.5), &executed);
        }
        let hot = r.true_junction();
        assert!(hot > Celsius::new(60.0), "hot {hot}");
        r.set_all_fan_targets(Rpm::new(8500.0));
        for _ in 0..1200 {
            r.step(Seconds::new(0.5), &executed);
        }
        assert!(r.true_junction() < hot - 5.0);
    }

    #[test]
    fn starved_rear_zone_reads_hotter() {
        let mut r = rack();
        r.set_zone_fan_target(0, Rpm::new(6000.0));
        r.set_zone_fan_target(1, Rpm::new(2000.0));
        let executed = vec![Utilization::new(0.7); 8];
        for _ in 0..2400 {
            r.step(Seconds::new(0.5), &executed);
        }
        assert!(r.measured_zone(1) > r.measured_zone(0));
        assert_eq!(r.measured_rack(), r.measured_zone(1));
    }

    #[test]
    fn equilibrate_settles_everything() {
        let mut r = rack();
        let fans = [Rpm::new(4000.0), Rpm::new(4000.0)];
        r.equilibrate(Utilization::new(0.7), &fans);
        assert_eq!(r.now(), Seconds::new(0.0));
        assert_eq!(r.zone_fan_speed(0), Rpm::new(4000.0));
        // The measurement chains report the quantized equilibrium
        // immediately and stepping from equilibrium stays there.
        let before = r.true_junction();
        assert!((r.measured_rack() - before).abs() <= 1.0);
        let executed: Vec<Utilization> =
            (0..8).map(|i| r.socket_demand(i, Utilization::new(0.7))).collect();
        for _ in 0..240 {
            r.step(Seconds::new(0.5), &executed);
        }
        assert!((r.true_junction() - before).abs() < 0.01, "drifted from equilibrium");
    }

    #[test]
    fn fan_energy_counts_the_whole_wall() {
        let mut r = rack();
        r.equilibrate(Utilization::new(0.5), &[Rpm::new(4000.0), Rpm::new(4000.0)]);
        let executed = vec![Utilization::new(0.5); 8];
        for _ in 0..120 {
            r.step(Seconds::new(0.5), &executed);
        }
        // 8 fans at 4000 rpm for 60 s; per fan ~29.4·(4000/8500)³ W.
        let per_fan = r.spec().server.fan_power.power(Rpm::new(4000.0)).value();
        let expected = 8.0 * per_fan * 60.0;
        assert!((r.fan_energy().value() - expected).abs() / expected < 0.05);
    }

    #[test]
    fn socket_demands_follow_weights() {
        let spec =
            RackSpec::new(RackTopology::rack_2u_x4().with_load_weights(&[1.6, 0.8, 0.8, 0.8]));
        let r = RackServer::new(spec);
        let mut out = vec![Utilization::IDLE; r.socket_count()];
        r.socket_demands(Utilization::new(0.5), &mut out);
        // Server 0's two sockets carry 1.6× the demand share.
        assert!((out[0].value() - 0.8).abs() < 1e-12);
        assert!((out[2].value() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn shift_load_weight_moves_demand_and_conserves_the_sum() {
        let spec =
            RackSpec::new(RackTopology::rack_2u_x4().with_load_weights(&[1.6, 0.8, 0.8, 0.8]));
        let mut r = RackServer::new(spec);
        let total_before: f64 = (0..r.server_count()).map(|s| r.server_load_weight(s)).sum();
        r.shift_load_weight(0, 2, 0.4);
        assert!((r.server_load_weight(0) - 1.2).abs() < 1e-12);
        assert!((r.server_load_weight(2) - 1.2).abs() < 1e-12);
        let total_after: f64 = (0..r.server_count()).map(|s| r.server_load_weight(s)).sum();
        assert!((total_after - total_before).abs() < 1e-12, "weight sum must be conserved");
        // Socket demands follow: server 0's two sockets now carry 1.2×.
        let mut out = vec![Utilization::IDLE; r.socket_count()];
        r.socket_demands(Utilization::new(0.5), &mut out);
        assert!((out[0].value() - 0.6).abs() < 1e-12);
        assert!((out[4].value() - 0.6).abs() < 1e-12);
        // And the shift reverses exactly.
        r.shift_load_weight(2, 0, 0.4);
        assert!((r.server_load_weight(0) - 1.6).abs() < 1e-12);
        assert!((r.socket_load_weight(0) - 1.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "drain")]
    fn shift_load_weight_rejects_draining_a_server() {
        let mut r = rack();
        r.shift_load_weight(0, 1, 1.0);
    }

    #[test]
    fn min_safe_zone_fan_guards_the_zone() {
        let mut r = rack();
        r.equilibrate(Utilization::new(0.7), &[Rpm::new(4000.0), Rpm::new(4000.0)]);
        let v = r.min_safe_zone_fan(1, Utilization::new(0.7), Celsius::new(75.0)).unwrap();
        assert!(v > Rpm::new(0.0));
    }

    #[test]
    fn zone_fan_plant_tunes_like_a_server_plant() {
        let mut plant = ZoneFanPlant::new(
            RackSpec::new(RackTopology::rack_1u_x8()),
            1,
            Utilization::new(0.7),
            vec![Rpm::new(3000.0), Rpm::new(3000.0)],
        );
        assert_eq!(plant.zone(), 1);
        gfsc_control::Plant::reset(&mut plant);
        let before = gfsc_control::Plant::step(&mut plant, 3000.0);
        let mut after = before;
        for _ in 0..4 {
            after = gfsc_control::Plant::step(&mut plant, 8000.0);
        }
        assert!(after < before - 3.0, "before {before} after {after}");
    }
}
