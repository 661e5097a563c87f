//! The assembled server plant.

use crate::chassis::{hottest_reading, Chassis, LoadWeights};
use crate::{ServerSpec, TempAggregation};
use gfsc_thermal::{DieNode, HeatSinkNode, RackPlant, RackTopology, RcNetwork, ServerThermalModel};
use gfsc_units::{Celsius, Joules, Rpm, Seconds, Utilization, Watts};

/// The server's one fan zone: a server is the one-zone, one-slot rack.
const ZONE: usize = 0;

/// The thermal plant behind a [`Server`]: either the paper's exact
/// two-node model or a topology compiled onto the cached RC network.
///
/// The single-socket default stays on [`ServerThermalModel`]'s exact
/// exponential integrator so the paper-reproduction traces are
/// bit-identical to the pre-abstraction code; every other topology steps
/// the backward-Euler [`RackPlant`] of a one-slot rack
/// ([`RackTopology::single_server`]) — the same plant racks run on, whose
/// LU cache makes N-node stepping affordable at the controller rate.
#[derive(Debug, Clone)]
pub enum Plant {
    /// The paper's two-node single-socket server (exact exponential
    /// updates, bit-compatible with the pre-abstraction simulator).
    TwoNode(ServerThermalModel),
    /// An N-socket topology on the cached RC network: the one-zone,
    /// one-slot rack (boxed: the network owns several buffers and would
    /// otherwise dwarf the two-node variant).
    Network(Box<RackPlant>),
}

impl Plant {
    /// Number of sockets (dies) in the plant.
    #[must_use]
    pub fn socket_count(&self) -> usize {
        match self {
            Plant::TwoNode(_) => 1,
            Plant::Network(p) => p.socket_count(),
        }
    }

    /// Junction temperature of socket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn junction(&self, i: usize) -> Celsius {
        match self {
            Plant::TwoNode(m) => {
                assert_eq!(i, 0, "single-socket plant has only socket 0");
                m.junction()
            }
            Plant::Network(p) => p.junction(i),
        }
    }

    /// The hottest junction across all sockets.
    #[must_use]
    pub fn hottest_junction(&self) -> Celsius {
        match self {
            Plant::TwoNode(m) => m.junction(),
            Plant::Network(p) => p.hottest_junction(),
        }
    }

    /// The hottest heat-sink temperature.
    #[must_use]
    pub fn hottest_heat_sink(&self) -> Celsius {
        match self {
            Plant::TwoNode(m) => m.heat_sink(),
            Plant::Network(p) => {
                hottest_reading((0..p.socket_count()).map(|i| p.heat_sink(i)), p.ambient())
            }
        }
    }

    /// Advances the plant by `dt` under per-socket CPU powers `powers`
    /// (one entry per socket) and fan speed `fan`.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` differs from the socket count.
    pub fn step(&mut self, dt: Seconds, powers: &[Watts], fan: Rpm) {
        match self {
            Plant::TwoNode(m) => {
                assert_eq!(powers.len(), 1, "single-socket plant takes one power");
                m.step(dt, powers.first().copied().unwrap_or_default(), fan);
            }
            Plant::Network(p) => p.step(dt, powers, &[fan]),
        }
    }

    /// The hottest steady-state junction at `(powers, fan)` — the model
    /// inversion target for E-coord and single-step descent.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` differs from the socket count.
    #[must_use]
    pub fn steady_state_junction(&self, powers: &[Watts], fan: Rpm) -> Celsius {
        match self {
            Plant::TwoNode(m) => {
                assert_eq!(powers.len(), 1, "single-socket plant takes one power");
                m.steady_state_junction(powers.first().copied().unwrap_or_default(), fan)
            }
            Plant::Network(p) => p.steady_state_hottest_in_zone(0, powers, &[fan]),
        }
    }

    /// The minimum fan speed keeping every steady-state junction at or
    /// below `limit` under per-socket `powers`, or `None` if unreachable at
    /// any airflow (analytic inversion on the two-node model, deterministic
    /// bisection on the network). All-idle powers need no airflow: 0 rpm,
    /// whatever the limit.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` differs from the socket count.
    #[must_use]
    pub fn min_safe_fan_speed(&self, powers: &[Watts], limit: Celsius) -> Option<Rpm> {
        match self {
            Plant::TwoNode(m) => {
                assert_eq!(powers.len(), 1, "single-socket plant takes one power");
                m.min_safe_fan_speed(powers.first().copied().unwrap_or_default(), limit)
            }
            Plant::Network(p) => {
                if powers.iter().all(|p| p.value() <= 0.0) {
                    return Some(Rpm::new(0.0));
                }
                // One zone: its live fan is the sweep's warm start.
                p.min_safe_zone_fan(0, powers, &[p.fan_speed(0)], limit)
            }
        }
    }

    /// Snaps the plant to its equilibrium at `(powers, fan)`. The two-node
    /// model resets and takes one 1e9 s step: both exact exponentials
    /// decay to zero, landing bit for bit on the analytic steady state.
    fn equilibrate(&mut self, powers: &[Watts], fan: Rpm) {
        match self {
            Plant::TwoNode(m) => {
                m.reset();
                m.step(Seconds::new(1e9), powers.first().copied().unwrap_or_default(), fan);
            }
            Plant::Network(p) => p.equilibrate(powers, &[fan]),
        }
    }
}

/// The closed physical plant: CPU power → thermal topology → fan →
/// per-socket non-ideal sensor chains → aggregation, with CPU and fan
/// energy metering. A multi-socket server is the one-slot
/// [`crate::RackServer`]: both wear the same chassis around their plants.
///
/// The server knows nothing about control policy; controllers read
/// [`Server::measured_temperature`] and command [`Server::set_fan_target`],
/// while the workload/coordination layer decides the *executed* utilization
/// passed to [`Server::step`].
///
/// # Examples
///
/// ```
/// use gfsc_server::{Server, ServerSpec};
/// use gfsc_units::{Rpm, Seconds, Utilization};
///
/// let mut server = Server::new(ServerSpec::enterprise_default());
/// server.set_fan_target(Rpm::new(3000.0));
/// for _ in 0..240 {
///     server.step(Seconds::new(0.5), Utilization::new(0.7));
/// }
/// // The firmware view lags and quantizes the true junction temperature.
/// let seen = server.measured_temperature();
/// let truth = server.true_junction();
/// assert!((seen.value() - truth.value()).abs() < 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct Server {
    spec: ServerSpec,
    plant: Plant,
    chassis: Chassis,
    /// The one-slot demand split: socket `i` executes
    /// `clamp(u × load_weight_i)` (balanced SMP at weight 1).
    weights: LoadWeights,
    executed: Utilization,
}

impl Server {
    /// Builds a server at thermal equilibrium with its ambient, fan at the
    /// minimum speed.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`ServerSpec::validate`] or the topology
    /// cannot be compiled into a network.
    #[must_use]
    pub fn new(spec: ServerSpec) -> Self {
        spec.validate();
        let board = RackTopology::single_server(spec.topology.clone());
        let plant = if spec.topology.is_single() {
            Plant::TwoNode(ServerThermalModel::new(
                spec.ambient,
                HeatSinkNode::new(
                    spec.heatsink_law,
                    spec.heatsink_tau,
                    spec.fan_power.max_speed(),
                    spec.ambient,
                ),
                DieNode::new(spec.r_jc, spec.die_tau, spec.ambient),
            ))
        } else {
            Plant::Network(Box::new(
                RackPlant::new(&spec.calibration(), &board)
                    // gfsc-lint: allow(panic) construction-time only (spec.validate() just ran); documented in this fn's `# Panics` section
                    .expect("stock topologies compile"),
            ))
        };
        let chassis = Chassis::new(&spec, plant.socket_count(), [1]);
        let weights = LoadWeights::new(&board);
        Self { spec, plant, chassis, weights, executed: Utilization::IDLE }
    }

    /// Sets server-wide demand `u` as the executed load: socket `i` runs
    /// its weighted share.
    fn load(&mut self, u: Utilization) {
        self.executed = u;
        self.weights.socket_demands(u, &mut self.chassis.executed);
    }

    /// The calibration in use.
    #[must_use]
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// Simulation time accumulated by this server.
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.chassis.now
    }

    /// Hottest true junction temperature across sockets (invisible to
    /// firmware).
    #[must_use]
    pub fn true_junction(&self) -> Celsius {
        self.plant.hottest_junction()
    }

    /// Hottest true heat-sink temperature.
    #[must_use]
    pub fn heat_sink(&self) -> Celsius {
        self.plant.hottest_heat_sink()
    }

    /// Number of sockets in the plant topology.
    #[must_use]
    pub fn socket_count(&self) -> usize {
        self.plant.socket_count()
    }

    /// True junction temperature of socket `i`.
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

    /// The firmware's aggregated (lagged, quantized) view of the junction
    /// temperature — what every controller acts on: the per-socket chain
    /// outputs folded by [`ServerSpec::aggregation`]. A socketless spec
    /// cannot validate; ambient is the honest reading for "no sensors",
    /// not a panic.
    #[must_use]
    pub fn measured_temperature(&self) -> Celsius {
        match self.spec.aggregation {
            TempAggregation::Max => hottest_reading(self.chassis.readings(), self.spec.ambient),
            TempAggregation::LoadWeightedMean => {
                let (mut sum, mut weight_sum) = (0.0, 0.0);
                for (t, socket) in self.chassis.readings().zip(self.spec.topology.sockets()) {
                    sum += socket.load_weight * t.value();
                    weight_sum += socket.load_weight;
                }
                Celsius::new(sum / weight_sum)
            }
        }
    }

    /// Actual fan speed.
    #[must_use]
    pub fn fan_speed(&self) -> Rpm {
        self.chassis.fan(ZONE).speed()
    }

    /// Commanded fan target.
    #[must_use]
    pub fn fan_target(&self) -> Rpm {
        self.chassis.fan(ZONE).target()
    }

    /// The utilization executed during the latest step.
    #[must_use]
    pub fn executed_utilization(&self) -> Utilization {
        self.executed
    }

    /// Commands the fan toward `target` (clamped to the mechanical range).
    pub fn set_fan_target(&mut self, target: Rpm) {
        self.chassis.set_fan_target(ZONE, target);
    }

    /// Total CPU energy so far.
    #[must_use]
    pub fn cpu_energy(&self) -> Joules {
        self.chassis.cpu_energy.total()
    }

    /// Total fan energy so far — the Table III metric.
    #[must_use]
    pub fn fan_energy(&self) -> Joules {
        self.chassis.fan_energy.total()
    }

    /// Instantaneous CPU power at the executed utilization, summed over
    /// all sockets.
    #[must_use]
    pub fn cpu_power(&self) -> Watts {
        self.chassis.cpu_power()
    }

    /// Instantaneous fan power at the actual fan speed.
    #[must_use]
    pub fn fan_power(&self) -> Watts {
        self.chassis.fan_power(&self.spec)
    }

    /// The thermal plant (for model-based controllers such as E-coord and
    /// single-step descent).
    #[must_use]
    pub fn plant(&self) -> &Plant {
        &self.plant
    }

    /// The minimum fan speed keeping the steady-state junction of every
    /// socket at or below `limit` while the server executes `demand`, or
    /// `None` if even unbounded airflow cannot. Per-socket powers follow
    /// the topology's load weights, so the inversion guards the hottest
    /// socket.
    #[must_use]
    pub fn min_safe_fan_speed(&self, demand: Utilization, limit: Celsius) -> Option<Rpm> {
        match &self.plant {
            // Identical arithmetic to the pre-abstraction path: one affine
            // power evaluation, then the analytic inversion.
            Plant::TwoNode(m) => m.min_safe_fan_speed(self.spec.cpu_power.power(demand), limit),
            Plant::Network(_) => self.plant.min_safe_fan_speed(&self.demand_powers(demand), limit),
        }
    }

    /// Per-socket powers while executing `demand`, for the network probes.
    fn demand_powers(&self, demand: Utilization) -> Vec<Watts> {
        let mut powers = vec![Watts::new(0.0); self.plant.socket_count()];
        self.weights.socket_powers(&self.spec.cpu_power, demand, &mut powers);
        powers
    }

    /// The hottest steady-state junction while executing `demand` at fan
    /// speed `fan`.
    #[must_use]
    pub fn steady_state_junction(&self, demand: Utilization, fan: Rpm) -> Celsius {
        match &self.plant {
            Plant::TwoNode(m) => m.steady_state_junction(self.spec.cpu_power.power(demand), fan),
            Plant::Network(_) => self.plant.steady_state_junction(&self.demand_powers(demand), fan),
        }
    }

    /// Advances the plant by `dt` executing `utilization`:
    /// fan mechanics → thermal step → energy metering → sensor chains.
    /// Returns the new firmware-visible (aggregated) temperature.
    pub fn step(&mut self, dt: Seconds, utilization: Utilization) -> Celsius {
        self.load(utilization);
        let (powers, fans) = self.chassis.begin(&self.spec, dt);
        self.plant.step(dt, powers, fans[ZONE]);
        self.finish_step(dt)
    }

    /// The first half of [`Server::step`] for batched lockstep stepping:
    /// everything up to (but not including) the thermal solve — executed
    /// utilization, per-socket powers, fan mechanics, energy metering, and
    /// the powers' and fan speed's effect on the network.
    ///
    /// The caller must advance [`Server::batch_network_mut`] by `dt`
    /// (typically through a `gfsc_thermal::BatchRcNetwork` shared with
    /// other lanes) and then call [`Server::finish_step`] with the same
    /// `dt`. `begin_step` → network step → `finish_step` is bitwise
    /// identical to one [`Server::step`] call.
    ///
    /// # Panics
    ///
    /// Panics on a single-socket (two-node) plant — the exact-exponential
    /// model has no RC network to batch; batch runners must fall back to
    /// the scalar path for those.
    pub fn begin_step(&mut self, dt: Seconds, utilization: Utilization) {
        self.load(utilization);
        let (powers, fans) = self.chassis.begin(&self.spec, dt);
        match &mut self.plant {
            Plant::TwoNode(_) => {
                // gfsc-lint: allow(panic) documented API contract: the batch halves are only reachable through run_batch, which asserts RC-network lanes up front
                panic!("batched stepping requires an RC-network plant (multi-socket topology)")
            }
            Plant::Network(p) => p.prepare_step(powers, fans),
        }
    }

    /// The second half of [`Server::step`] for batched lockstep stepping:
    /// clock advance, per-socket sensor chains, aggregation. Returns the
    /// new firmware-visible temperature, exactly as [`Server::step`] does.
    pub fn finish_step(&mut self, dt: Seconds) -> Celsius {
        self.chassis.finish(dt, |i| self.plant.junction(i));
        self.measured_temperature()
    }

    /// The plant's RC network, if this server runs one (`None` on the
    /// two-node single-socket plant) — the lane handle a batched stepper
    /// registers and solves.
    #[must_use]
    pub fn batch_network(&self) -> Option<&RcNetwork> {
        match &self.plant {
            Plant::TwoNode(_) => None,
            Plant::Network(p) => Some(p.network()),
        }
    }

    /// Mutable counterpart of [`Server::batch_network`], for the batched
    /// solve between [`Server::begin_step`] and [`Server::finish_step`].
    #[must_use]
    pub fn batch_network_mut(&mut self) -> Option<&mut RcNetwork> {
        match &mut self.plant {
            Plant::TwoNode(_) => None,
            Plant::Network(p) => Some(p.network_mut()),
        }
    }

    /// Re-initializes the server in steady state at `(utilization, fan)`:
    /// thermal nodes at their equilibria, actuator settled, sensor chains
    /// reporting the (quantized) equilibrium temperatures, meters and clock
    /// zeroed.
    ///
    /// Used by the Ziegler–Nichols plant adapter to replay tuning probes
    /// from identical initial conditions.
    pub fn equilibrate(&mut self, utilization: Utilization, fan: Rpm) {
        self.load(utilization);
        let (powers, fans) = self.chassis.settle(&self.spec, &[fan]);
        self.plant.equilibrate(powers, fans[ZONE]);
        self.chassis.restart(&self.spec, |i| self.plant.junction(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfsc_thermal::Topology;

    fn server() -> Server {
        Server::new(ServerSpec::enterprise_default())
    }

    #[test]
    fn starts_at_ambient_equilibrium() {
        let s = server();
        assert_eq!(s.true_junction(), s.spec().ambient);
        assert_eq!(s.fan_speed(), s.spec().fan_bounds.lo());
        assert_eq!(s.now(), Seconds::new(0.0));
        assert_eq!(s.cpu_energy(), Joules::new(0.0));
        assert_eq!(s.socket_count(), 1);
    }

    #[test]
    fn heats_under_load_and_cools_with_fan() {
        let mut s = server();
        for _ in 0..1200 {
            s.step(Seconds::new(0.5), Utilization::new(0.7));
        }
        let hot = s.true_junction();
        assert!(hot > Celsius::new(60.0), "hot {hot}");
        s.set_fan_target(Rpm::new(8500.0));
        for _ in 0..1200 {
            s.step(Seconds::new(0.5), Utilization::new(0.7));
        }
        assert!(s.true_junction() < hot - 5.0);
    }

    #[test]
    fn measured_lags_truth_by_configured_delay() {
        let mut s = server();
        // Equilibrate cold, then slam the load; watch when the measurement
        // starts moving vs when the truth does.
        s.equilibrate(Utilization::new(0.1), Rpm::new(3000.0));
        let t0_meas = s.measured_temperature();
        let mut first_truth_move = None;
        let mut first_meas_move = None;
        for k in 0..200 {
            s.step(Seconds::new(0.5), Utilization::FULL);
            let t = 0.5 * (k + 1) as f64;
            if first_truth_move.is_none() && (s.true_junction() - t0_meas).abs() > 1.5 {
                first_truth_move = Some(t);
            }
            if first_meas_move.is_none() && (s.measured_temperature() - t0_meas).abs() >= 1.0 {
                first_meas_move = Some(t);
            }
        }
        let truth_t = first_truth_move.expect("truth moved");
        let meas_t = first_meas_move.expect("measurement moved");
        let lag = meas_t - truth_t;
        assert!(
            (8.0..=12.5).contains(&lag),
            "observed lag {lag}s (truth at {truth_t}, measured at {meas_t})"
        );
    }

    #[test]
    fn measured_is_quantized_to_whole_degrees() {
        let mut s = server();
        for _ in 0..600 {
            s.step(Seconds::new(0.5), Utilization::new(0.6));
        }
        let m = s.measured_temperature().value();
        assert_eq!(m, m.floor(), "measured {m} not on the 1 °C grid");
    }

    #[test]
    fn ideal_sensing_tracks_truth() {
        let mut s = Server::new(ServerSpec::ideal_sensing());
        for _ in 0..600 {
            s.step(Seconds::new(0.5), Utilization::new(0.7));
        }
        let err = (s.measured_temperature() - s.true_junction()).abs();
        // Only the 1 s sampling interval separates them.
        assert!(err < 0.5, "err {err}");
    }

    #[test]
    fn energy_meters_accumulate() {
        let mut s = server();
        s.set_fan_target(Rpm::new(8500.0));
        for _ in 0..120 {
            s.step(Seconds::new(0.5), Utilization::FULL);
        }
        // 60 s at 160 W = 9600 J CPU.
        assert!((s.cpu_energy().value() - 9600.0).abs() < 1.0);
        // Fan ramps from 1000 to 8500 then holds: energy below the
        // 60 s × 29.4 W ceiling but clearly positive.
        assert!(s.fan_energy().value() > 500.0);
        assert!(s.fan_energy().value() < 29.4 * 60.0);
    }

    #[test]
    fn power_accessors_are_consistent() {
        let mut s = server();
        s.step(Seconds::new(0.5), Utilization::new(0.5));
        assert_eq!(s.executed_utilization(), Utilization::new(0.5));
        assert_eq!(s.cpu_power(), Watts::new(128.0));
        assert_eq!(s.fan_power(), s.spec().fan_power.power(s.fan_speed()));
    }

    #[test]
    fn equilibrate_settles_everything() {
        let mut s = server();
        s.equilibrate(Utilization::new(0.7), Rpm::new(4000.0));
        let expected = s.steady_state_junction(Utilization::new(0.7), Rpm::new(4000.0));
        assert!((s.true_junction() - expected).abs() < 1e-6);
        // The measurement chain reports the quantized equilibrium from the
        // first instant (no transient).
        assert!((s.measured_temperature() - expected).abs() <= 1.0);
        assert_eq!(s.fan_speed(), Rpm::new(4000.0));
        assert_eq!(s.now(), Seconds::new(0.0));
        // Stepping from equilibrium stays there.
        let before = s.true_junction();
        for _ in 0..120 {
            s.step(Seconds::new(0.5), Utilization::new(0.7));
        }
        assert!((s.true_junction() - before).abs() < 0.01);
    }

    #[test]
    fn fan_target_command_is_clamped() {
        let mut s = server();
        s.set_fan_target(Rpm::new(99_999.0));
        assert_eq!(s.fan_target(), Rpm::new(8500.0));
    }

    // ------------------------------------------------------------------
    // Multi-socket plant
    // ------------------------------------------------------------------

    fn dual_socket_server() -> Server {
        Server::new(ServerSpec::with_topology(Topology::dual_socket()))
    }

    #[test]
    fn multi_socket_server_reports_per_socket_state() {
        let mut s = dual_socket_server();
        assert_eq!(s.socket_count(), 2);
        s.set_fan_target(Rpm::new(3000.0));
        for _ in 0..2400 {
            s.step(Seconds::new(0.5), Utilization::new(0.7));
        }
        // Downstream socket (derated airflow) is the hot one.
        assert!(s.junction_socket(1) > s.junction_socket(0));
        assert_eq!(s.true_junction(), s.junction_socket(1));
        // Max aggregation follows the hottest chain.
        let hot = s.measured_socket(0).value().max(s.measured_socket(1).value());
        assert_eq!(s.measured_temperature().value(), hot);
    }

    #[test]
    fn multi_socket_equilibrate_settles_everything() {
        let mut s = dual_socket_server();
        s.equilibrate(Utilization::new(0.7), Rpm::new(4000.0));
        let expected = s.steady_state_junction(Utilization::new(0.7), Rpm::new(4000.0));
        assert!((s.true_junction() - expected).abs() < 1e-6);
        assert!((s.measured_temperature() - expected).abs() <= 1.0);
        let before = s.true_junction();
        for _ in 0..240 {
            s.step(Seconds::new(0.5), Utilization::new(0.7));
        }
        assert!((s.true_junction() - before).abs() < 0.01, "drifted from equilibrium");
    }

    #[test]
    fn weighted_aggregation_sits_between_sockets() {
        let spec = ServerSpec {
            aggregation: TempAggregation::LoadWeightedMean,
            ..ServerSpec::with_topology(Topology::dual_socket())
        };
        let mut s = Server::new(spec);
        s.equilibrate(Utilization::new(0.7), Rpm::new(3000.0));
        for _ in 0..120 {
            s.step(Seconds::new(0.5), Utilization::new(0.7));
        }
        let (a, b) = (s.measured_socket(0).value(), s.measured_socket(1).value());
        let m = s.measured_temperature().value();
        assert!(m >= a.min(b) && m <= a.max(b), "mean {m} outside [{a}, {b}]");
        assert!(m < a.max(b), "weighted mean must sit below the hottest socket");
    }

    #[test]
    fn split_step_matches_monolithic_step_bitwise() {
        // begin_step → scalar network step → finish_step must be the same
        // trajectory, bit for bit, as Server::step — the contract the
        // batched sweep engine stands on.
        let mut whole = dual_socket_server();
        let mut split = dual_socket_server();
        let dt = Seconds::new(0.5);
        for k in 0..600 {
            let u = Utilization::new(0.1 + 0.8 * f64::from(k % 10) / 10.0);
            if k % 60 == 0 {
                let target = Rpm::new(1500.0 + 500.0 * f64::from(k / 60));
                whole.set_fan_target(target);
                split.set_fan_target(target);
            }
            let a = whole.step(dt, u);
            split.begin_step(dt, u);
            split.batch_network_mut().expect("network plant").step(dt);
            let b = split.finish_step(dt);
            assert_eq!(a.value().to_bits(), b.value().to_bits(), "measured diverged at {k}");
            assert_eq!(
                whole.true_junction().value().to_bits(),
                split.true_junction().value().to_bits(),
                "junction diverged at {k}"
            );
            assert_eq!(whole.fan_energy(), split.fan_energy());
            assert_eq!(whole.cpu_energy(), split.cpu_energy());
            assert_eq!(whole.now(), split.now());
        }
    }

    #[test]
    fn two_node_plant_has_no_batch_network() {
        assert!(server().batch_network().is_none());
        assert!(dual_socket_server().batch_network().is_some());
    }

    #[test]
    fn multi_socket_min_safe_speed_guards_the_hottest_socket() {
        let s = dual_socket_server();
        let u = Utilization::new(0.7);
        let v = s.min_safe_fan_speed(u, Celsius::new(75.0)).expect("reachable");
        assert!((s.steady_state_junction(u, v) - Celsius::new(75.0)).abs() < 0.01);
        assert!(s.steady_state_junction(u, v + 100.0) < Celsius::new(75.0));
        assert!(s.steady_state_junction(u, v - 100.0) > Celsius::new(75.0));
    }

    #[test]
    fn min_safe_fan_speed_edge_cases() {
        let s = dual_socket_server();
        let plant = s.plant();
        // All-idle powers need no airflow, even under a limit below the
        // 35 °C ambient.
        for limit in [20.0, 40.0] {
            assert_eq!(
                plant.min_safe_fan_speed(&[Watts::new(0.0); 2], Celsius::new(limit)),
                Some(Rpm::new(0.0))
            );
        }
        // 160 W per socket through the shared floor cannot hold 40 °C.
        assert!(plant.min_safe_fan_speed(&[Watts::new(160.0); 2], Celsius::new(40.0)).is_none());
        // Trivially safe limit: even a stopped fan suffices.
        assert_eq!(
            plant.min_safe_fan_speed(&[Watts::new(0.5); 2], Celsius::new(90.0)),
            Some(Rpm::new(0.0))
        );
    }
}
