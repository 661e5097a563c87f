//! The assembled rack: plant + per-zone fan actuators + per-socket sensor
//! chains + energy metering — the [`Chassis`] a [`crate::Server`] wears
//! too, around a whole-rack plant.

use crate::chassis::{hottest_reading, Chassis, LoadWeights};
use crate::ServerSpec;
use gfsc_thermal::{RackPlant, RackTopology};
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
/// use gfsc_server::{RackServer, RackSpec};
/// use gfsc_thermal::RackTopology;
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
    chassis: Chassis,
    /// Per-server and per-socket demand weights; a work migrator may
    /// shift server weight at run time.
    weights: LoadWeights,
    /// Probe scratch for [`RackServer::min_safe_zone_fan`] (no per-call
    /// allocation).
    probe_powers: Vec<Watts>,
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
        let sockets = plant.socket_count();
        let walls = spec.rack.zones().iter().map(|zone| zone.fans);
        Self {
            chassis: Chassis::new(&spec.server, sockets, walls),
            weights: LoadWeights::new(&spec.rack),
            probe_powers: vec![Watts::new(0.0); sockets],
            plant,
            spec,
        }
    }

    /// The calibration in use.
    #[must_use]
    pub fn spec(&self) -> &RackSpec {
        &self.spec
    }

    /// The rack thermal plant (structure and steady-state probes for the
    /// model-based controllers).
    #[must_use]
    pub fn plant(&self) -> &RackPlant {
        &self.plant
    }

    /// Mutable plant access.
    #[must_use]
    pub fn plant_mut(&mut self) -> &mut RackPlant {
        &mut self.plant
    }

    /// Simulation time accumulated by this rack.
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.chassis.now
    }

    /// Number of fan zones.
    #[must_use]
    pub fn zone_count(&self) -> usize {
        self.chassis.fan_speeds().len()
    }

    /// Total socket count (the length of every per-socket slice).
    #[must_use]
    pub fn socket_count(&self) -> usize {
        self.chassis.executed.len()
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
        self.weights.socket_demand(i, u)
    }

    /// Fills `out` with every socket's demand under rack-wide demand `u`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not one entry per socket.
    pub fn socket_demands(&self, u: Utilization, out: &mut [Utilization]) {
        self.weights.socket_demands(u, out);
    }

    /// Server `s`'s current demand weight (the topology's slot weight,
    /// possibly shifted at run time by [`RackServer::shift_load_weight`]).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn server_load_weight(&self, s: usize) -> f64 {
        self.weights.server(s)
    }

    /// Socket `i`'s effective demand weight (server weight × socket base
    /// weight).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn socket_load_weight(&self, i: usize) -> f64 {
        self.weights.socket(i)
    }

    /// Moves `amount` of demand weight from server `from` to server `to` —
    /// the load-weight mutation hook a work migrator drives; see
    /// [`LoadWeights::shift`].
    ///
    /// # Panics
    ///
    /// Panics if the indices coincide or are out of range, `amount` is not
    /// positive, or the transfer would drain `from` to zero.
    pub fn shift_load_weight(&mut self, from: usize, to: usize, amount: f64) {
        self.weights.shift(from, to, amount);
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
        self.chassis.measured(i)
    }

    /// Zone `z`'s aggregated firmware view: the hottest of its sockets'
    /// measurement chains (max aggregation — the fan must satisfy the
    /// worst socket it serves). A slotless zone has no sensors; it reads
    /// the ambient.
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    #[must_use]
    pub fn measured_zone(&self, z: usize) -> Celsius {
        let readings = self.plant.zone_sockets(z).iter().map(|&i| self.chassis.measured(i));
        hottest_reading(readings, self.spec.server.ambient)
    }

    /// The rack-wide aggregated view: the hottest zone aggregate — what a
    /// naive global controller acts on.
    #[must_use]
    pub fn measured_rack(&self) -> Celsius {
        let zones = (0..self.zone_count()).map(|z| self.measured_zone(z));
        hottest_reading(zones, self.spec.server.ambient)
    }

    /// Actual fan speed of zone `z`.
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    #[must_use]
    pub fn zone_fan_speed(&self, z: usize) -> Rpm {
        self.chassis.fan(z).speed()
    }

    /// Commanded fan target of zone `z`.
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    #[must_use]
    pub fn zone_fan_target(&self, z: usize) -> Rpm {
        self.chassis.fan(z).target()
    }

    /// Commands zone `z`'s fans toward `target` (clamped to the mechanical
    /// range).
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    pub fn set_zone_fan_target(&mut self, z: usize, target: Rpm) {
        self.chassis.set_fan_target(z, target);
    }

    /// Commands every zone to the same target — the naive global rule.
    pub fn set_all_fan_targets(&mut self, target: Rpm) {
        for z in 0..self.zone_count() {
            self.chassis.set_fan_target(z, target);
        }
    }

    /// The executed utilizations of the latest step.
    #[must_use]
    pub fn executed(&self) -> &[Utilization] {
        &self.chassis.executed
    }

    /// Total CPU energy so far, summed over every socket.
    #[must_use]
    pub fn cpu_energy(&self) -> Joules {
        self.chassis.cpu_energy.total()
    }

    /// Total fan energy so far, summed over every zone's fan wall — the
    /// rack study's cost metric.
    #[must_use]
    pub fn fan_energy(&self) -> Joules {
        self.chassis.fan_energy.total()
    }

    /// Instantaneous fan power: each zone's wall draws
    /// `fans × FanPowerModel::power(speed)`.
    #[must_use]
    pub fn fan_power(&self) -> Watts {
        self.chassis.fan_power(&self.spec.server)
    }

    /// The minimum fan speed for zone `z` keeping its steady-state
    /// junctions at or below `limit` while every socket executes its share
    /// of rack demand `u`, other zones held at their current speeds.
    /// Allocation-free (scratch-buffered): safe to call from the epoch
    /// loop, e.g. on a single-step descent.
    #[must_use]
    pub fn min_safe_zone_fan(&mut self, z: usize, u: Utilization, limit: Celsius) -> Option<Rpm> {
        self.weights.socket_powers(&self.spec.server.cpu_power, u, &mut self.probe_powers);
        self.plant.min_safe_zone_fan(z, &self.probe_powers, self.chassis.fan_speeds(), limit)
    }

    /// Advances the rack by `dt` with per-socket executed utilizations:
    /// fan mechanics → coupled thermal step → energy metering → sensor
    /// chains. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `executed` is not one entry per socket.
    pub fn step(&mut self, dt: Seconds, executed: &[Utilization]) {
        assert_eq!(executed.len(), self.chassis.executed.len(), "one utilization per socket");
        self.chassis.executed.copy_from_slice(executed);
        let (powers, fans) = self.chassis.begin(&self.spec.server, dt);
        self.plant.step(dt, powers, fans);
        self.chassis.finish(dt, |i| self.plant.junction(i));
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
        self.weights.socket_demands(u, &mut self.chassis.executed);
        let (powers, speeds) = self.chassis.settle(&self.spec.server, fans);
        self.plant.equilibrate(powers, speeds);
        self.chassis.restart(&self.spec.server, |i| self.plant.junction(i));
    }
}
