//! The RC-network thermal plant: a [`RackTopology`] compiled onto one
//! cached-factorization [`RcNetwork`], with a multi-zone fan→link
//! mapping. A single server is the degenerate one-slot rack
//! ([`RackTopology::single_server`]): one zone, one fan, no plenum.
//!
//! Structure per server socket: a die node on a sink node, the sink
//! exhausting to ambient through its airflow-dependent link (driven by the
//! *zone's* fan, derated by slot position × socket position). A finned
//! board ([`crate::Topology::finned`]) expands each sink into a base plate
//! plus mutually-coupled fin nodes, each fin exhausting through its own
//! share of the fan law; a board chassis couples its sinks through a
//! spreader node. With a plenum, each sink additionally leaks into its
//! zone's shared air node, which exhausts through a zone-fan-driven path
//! of its own and optionally recirculates into the adjacent zone — that is
//! the inlet-temperature coupling a single-server model cannot express.
//!
//! The per-step cost is one forward/backward substitution over the cached
//! LU factor's entries, which follow the network's elimination pattern
//! (see [`RcNetwork`]): a rack's servers couple only through their
//! plenum, so an 8-server rack steps in time proportional to its links,
//! not to the square of its node count.

use crate::heatsink::ResistanceAt;
use crate::network::{Endpoint, Link, Nodes};
use crate::{
    BoundaryId, FanZoneMap, HeatSinkLaw, LinkId, NetworkError, NodeId, RackTopology, RcNetwork,
    SteadyStateScratch, ZoneId,
};
use gfsc_units::{total_max, Celsius, JoulesPerKelvin, KelvinPerWatt, Rpm, Seconds, Watts};

/// The base per-socket calibration shared by every socket before topology
/// scaling — the same constants [`crate::ServerThermalModel::date14`] uses,
/// lifted out so the server spec can supply its own values.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantCalibration {
    /// Inlet air temperature.
    pub ambient: Celsius,
    /// The heat-sink resistance law before any airflow derate (Table I).
    pub law: HeatSinkLaw,
    /// Heat-sink time constant at `tau_speed`.
    pub sink_tau: Seconds,
    /// The fan speed `sink_tau` is quoted at (Table I: maximum airflow).
    pub tau_speed: Rpm,
    /// Junction-to-sink resistance before per-socket scaling.
    pub r_jc: KelvinPerWatt,
    /// Die thermal time constant.
    pub die_tau: Seconds,
}

/// Handles of one socket, resolved once at build time (no name scans on
/// the step path).
#[derive(Debug, Clone)]
struct SocketHandles {
    die: NodeId,
    sink: NodeId,
    /// Flat zone index (into [`RackPlant`]'s zone vectors).
    zone: usize,
}

/// Reusable buffers behind the non-mutating steady-state probes, so a
/// min-safe inversion (a handful of probes per decision) runs without
/// per-probe heap allocation — the rack epoch loop's allocation-free
/// contract extends to the model-based controllers
/// (`tests/alloc_free_rack.rs`).
struct ProbeScratch {
    tables: SteadyStateScratch,
    /// During an inversion, the swept zone's links with their laws: the
    /// only table entries its probes rewrite.
    swept: Vec<(LinkId, HeatSinkLaw)>,
}

std::thread_local! {
    /// One probe scratch per thread, shared by every plant probed on it
    /// and sized by the first probe of the largest one. Plants carry no
    /// scratch of their own, so a plant that is only ever stepped (a
    /// batch-sweep lane) pays nothing for it, and plants stay `Sync` (the
    /// parallel gain tuner shares a server across worker threads).
    static SCRATCH: core::cell::RefCell<ProbeScratch> = const {
        core::cell::RefCell::new(ProbeScratch {
            tables: SteadyStateScratch::new(),
            swept: Vec::new(),
        })
    };
}

/// An N-server, multi-fan-zone thermal plant on the cached RC network.
///
/// # Examples
///
/// ```
/// use gfsc_thermal::{HeatSinkLaw, PlantCalibration, RackPlant, RackTopology};
/// use gfsc_units::{Celsius, KelvinPerWatt, Rpm, Seconds, Watts};
///
/// let cal = PlantCalibration {
///     ambient: Celsius::new(30.0),
///     law: HeatSinkLaw::date14(),
///     sink_tau: Seconds::new(60.0),
///     tau_speed: Rpm::new(8500.0),
///     r_jc: KelvinPerWatt::new(0.10),
///     die_tau: Seconds::new(0.1),
/// };
/// let mut rack = RackPlant::new(&cal, &RackTopology::rack_1u_x8()).unwrap();
/// let powers = vec![Watts::new(140.8); rack.socket_count()];
/// // Starve the rear wall: its sockets must settle hotter than the front.
/// let fans = [Rpm::new(6000.0), Rpm::new(2000.0)];
/// rack.equilibrate(&powers, &fans);
/// assert!(rack.hottest_in_zone(1) > rack.hottest_in_zone(0));
/// ```
#[derive(Debug, Clone)]
pub struct RackPlant {
    net: RcNetwork,
    zones: FanZoneMap,
    zone_ids: Vec<ZoneId>,
    sockets: Vec<SocketHandles>,
    /// Flat socket indices per zone, build order.
    zone_sockets: Vec<Vec<usize>>,
    /// Flat socket range per server: `server_ranges[s]` = `start..end`.
    server_ranges: Vec<(usize, usize)>,
    /// Zone plenum air nodes (empty when the topology has no plenum).
    plenums: Vec<NodeId>,
    ambient: Celsius,
    /// The ambient boundary handle, resolved once at build time so
    /// `set_ambient` needs no name lookup (and no panic path).
    ambient_boundary: BoundaryId,
}

impl RackPlant {
    /// Compiles `topology` against the per-socket base calibration,
    /// starting in equilibrium with the ambient at `cal.tau_speed` airflow
    /// on every zone.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the compiled network is inconsistent
    /// (cannot happen for the stock rack builders).
    ///
    /// # Panics
    ///
    /// Panics if `topology` fails [`RackTopology::validate`].
    pub fn new(cal: &PlantCalibration, topology: &RackTopology) -> Result<Self, NetworkError> {
        topology.validate();
        let fan0 = cal.tau_speed;
        // One pass in build order: every node and link is added by handle,
        // and every airflow-dependent link is attached to its zone as it is
        // added (each socket's sink→ambient path or its fins', then each
        // zone's plenum exhaust).
        let mut nodes = Nodes::default();
        let ambient_boundary = nodes.boundary("ambient".to_owned(), cal.ambient);
        let ambient = Endpoint::from(ambient_boundary);
        let mut links: Vec<Link> = Vec::new();
        let mut link = |a: NodeId, b: Endpoint, resistance: KelvinPerWatt| {
            links.push(Link { a: a.into(), b, conductance: 1.0 / resistance.value() });
            LinkId(links.len() - 1)
        };
        let mut zones = FanZoneMap::new();
        let zone_ids: Vec<ZoneId> =
            topology.zones().iter().map(|zone| zones.add_zone(zone.name.clone(), fan0)).collect();
        let mut sockets = Vec::with_capacity(topology.total_sockets());
        let mut zone_sockets = vec![Vec::new(); topology.zones().len()];
        let mut server_ranges = Vec::with_capacity(topology.servers().len());
        let mut zone_sink_caps: Vec<(f64, usize)> = vec![(0.0, 0); topology.zones().len()];
        // Server nodes/links first, in slot order; the plenum comes after
        // every server.
        for slot in topology.servers() {
            let segments = slot.board.sink_segments();
            let zone = zone_ids[slot.zone];
            let start = sockets.len();
            let mut fins = Vec::with_capacity(segments);
            let mut sink_cap_sum = 0.0;
            for socket in slot.board.sockets() {
                // The base law derated by slot position × socket position.
                let law = cal.law.with_airflow_derate(slot.airflow_derate * socket.airflow_derate);
                let r_jc = KelvinPerWatt::new(cal.r_jc.value() * socket.r_jc_scale);
                // Capacitances from the quoted time constants, exactly as
                // the hand-rolled nodes calibrate them: C = tau / R(tau_speed)
                // for the sink, C = die_tau / R_jc for the die.
                let sink_cap =
                    JoulesPerKelvin::from_time_constant(cal.sink_tau, law.resistance(fan0));
                let die_cap = JoulesPerKelvin::from_time_constant(cal.die_tau, r_jc);
                sink_cap_sum += sink_cap.value();
                let entry = &mut zone_sink_caps[slot.zone];
                entry.0 += sink_cap.value();
                entry.1 += 1;
                let die =
                    nodes.node(format!("die-{}-{}", slot.name, socket.name), die_cap, cal.ambient);
                let sink_name = format!("sink-{}-{}", slot.name, socket.name);
                zone_sockets[slot.zone].push(sockets.len());
                if segments == 0 {
                    let sink = nodes.node(sink_name, sink_cap, cal.ambient);
                    link(die, sink.into(), r_jc);
                    zones.attach(zone, link(sink, ambient, law.resistance(fan0)), law);
                    sockets.push(SocketHandles { die, sink, zone: slot.zone });
                    continue;
                }
                // Folded fin-array sink: the lumped capacitance splits
                // evenly between base plate and fins, each fin carries
                // `segments`× the sink law's resistance (so the fins in
                // parallel reproduce the lumped convective path), the base
                // spreads into every fin, and the fins couple pairwise —
                // the dense Schur-complement remnant of eliminating the
                // fast shared-air node from a detailed model. Every fin
                // breathes the zone fan; identical laws per socket let the
                // zone evaluate the law once per socket.
                let fin_law = law.with_airflow_derate(segments as f64);
                let node_cap = JoulesPerKelvin::new(sink_cap.value() / (segments + 1) as f64);
                let spread = KelvinPerWatt::new(0.2);
                let mix = KelvinPerWatt::new(0.8);
                let sink = nodes.node(sink_name, node_cap, cal.ambient);
                link(die, sink.into(), r_jc);
                fins.clear();
                for j in 0..segments {
                    let name = format!("fin{j}-{}-{}", slot.name, socket.name);
                    let fin = nodes.node(name, node_cap, cal.ambient);
                    link(sink, fin.into(), spread);
                    zones.attach(zone, link(fin, ambient, fin_law.resistance(fan0)), fin_law);
                    for &earlier in &fins {
                        link(earlier, fin.into(), mix);
                    }
                    fins.push(fin);
                }
                sockets.push(SocketHandles { die, sink, zone: slot.zone });
            }
            if let Some(chassis) = slot.board.chassis() {
                let cap = JoulesPerKelvin::new(
                    chassis.capacitance_scale * sink_cap_sum / slot.board.sockets().len() as f64,
                );
                let node = nodes.node(format!("chassis-{}", slot.name), cap, cal.ambient);
                for socket in &sockets[start..] {
                    link(socket.sink, node.into(), chassis.coupling);
                }
                link(node, ambient, chassis.exhaust);
            }
            server_ranges.push((start, sockets.len()));
        }
        // Plenum air nodes after every server, one per zone, then the
        // coupling/exhaust/recirculation paths.
        let mut plenums = Vec::new();
        if let Some(plenum) = topology.plenum() {
            // A slotless zone still has an air volume; size it from the
            // rack-wide mean sink capacitance (its own mean is 0/0).
            let (rack_cap_sum, rack_sockets) =
                zone_sink_caps.iter().fold((0.0, 0usize), |(c, k), &(cs, ks)| (c + cs, k + ks));
            for (z, zone) in topology.zones().iter().enumerate() {
                let (cap_sum, sockets) = zone_sink_caps[z];
                let cap = if sockets == 0 {
                    JoulesPerKelvin::new(
                        plenum.capacitance_scale * rack_cap_sum / rack_sockets as f64,
                    )
                } else {
                    JoulesPerKelvin::new(plenum.capacitance_scale * cap_sum / sockets as f64)
                };
                plenums.push(nodes.node(format!("plenum-{}", zone.name), cap, cal.ambient));
            }
            for socket in &sockets {
                link(socket.sink, plenums[socket.zone].into(), plenum.coupling);
            }
            for (z, zone) in topology.zones().iter().enumerate() {
                // The base law derated by `exhaust_derate / fans`: a whole
                // wall of fans pushes the shared air out proportionally
                // more freely than one.
                let law = cal.law.with_airflow_derate(plenum.exhaust_derate / zone.fans as f64);
                zones.attach(zone_ids[z], link(plenums[z], ambient, law.resistance(fan0)), law);
            }
            if let Some(recirculation) = plenum.recirculation {
                for pair in plenums.windows(2) {
                    let &[upstream, downstream] = pair else { continue };
                    link(upstream, downstream.into(), recirculation);
                }
            }
        }
        let net = RcNetwork::new(nodes, links.into_iter().map(Ok))?;
        Ok(Self {
            net,
            zones,
            zone_ids,
            sockets,
            zone_sockets,
            server_ranges,
            plenums,
            ambient: cal.ambient,
            ambient_boundary,
        })
    }

    /// Number of fan zones.
    #[must_use]
    pub fn zone_count(&self) -> usize {
        self.zone_ids.len()
    }

    /// Number of servers.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.server_ranges.len()
    }

    /// Total socket count (the length of every per-socket slice this plant
    /// takes and returns).
    #[must_use]
    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// The flat socket indices of zone `z`, build order.
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    #[must_use]
    pub fn zone_sockets(&self, z: usize) -> &[usize] {
        &self.zone_sockets[z]
    }

    /// The flat socket range `start..end` of server `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn server_sockets(&self, s: usize) -> core::ops::Range<usize> {
        let (start, end) = self.server_ranges[s];
        start..end
    }

    /// The zone socket `i` breathes from.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn zone_of_socket(&self, i: usize) -> usize {
        self.sockets[i].zone
    }

    /// Junction temperature of flat socket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn junction(&self, i: usize) -> Celsius {
        self.net.temperature(self.sockets[i].die)
    }

    /// Heat-sink (base plate, for a finned sink) temperature of flat
    /// socket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn heat_sink(&self, i: usize) -> Celsius {
        self.net.temperature(self.sockets[i].sink)
    }

    /// The hottest junction across the whole rack.
    #[must_use]
    pub fn hottest_junction(&self) -> Celsius {
        let mut hottest = self.junction(0);
        for i in 1..self.sockets.len() {
            hottest = hottest.hotter(self.junction(i));
        }
        hottest
    }

    /// The hottest junction among zone `z`'s sockets, or the ambient for a
    /// slotless zone (no thermal participants).
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    #[must_use]
    pub fn hottest_in_zone(&self, z: usize) -> Celsius {
        let sockets = &self.zone_sockets[z];
        let Some((&first, rest)) = sockets.split_first() else {
            return self.ambient;
        };
        let mut hottest = self.junction(first);
        for &i in rest {
            hottest = hottest.hotter(self.junction(i));
        }
        hottest
    }

    /// Zone `z`'s shared-air (plenum) temperature, or `None` when the
    /// topology has no plenum.
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range for a plenum rack.
    #[must_use]
    pub fn plenum_temperature(&self, z: usize) -> Option<Celsius> {
        if self.plenums.is_empty() {
            None
        } else {
            Some(self.net.temperature(self.plenums[z]))
        }
    }

    /// Inlet air temperature.
    #[must_use]
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// Changes the inlet air temperature (right-hand-side only; the cached
    /// factorization stays warm).
    pub fn set_ambient(&mut self, ambient: Celsius) {
        self.ambient = ambient;
        self.net.set_boundary_by_id(self.ambient_boundary, ambient);
    }

    /// The fan speed most recently applied to zone `z`.
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    #[must_use]
    pub fn fan_speed(&self, z: usize) -> Rpm {
        self.zones.fan(self.zone_ids[z])
    }

    /// Advances the rack by `dt` under per-socket CPU powers (flattened,
    /// [`RackPlant::socket_count`] entries) and per-zone fan speeds.
    /// Allocation-free; held fan speeds keep the LU cache warm.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the topology.
    pub fn step(&mut self, dt: Seconds, powers: &[Watts], fans: &[Rpm]) {
        self.prepare_step(powers, fans);
        self.net.step(dt);
    }

    /// Everything [`RackPlant::step`] does *except* solving the network:
    /// applies per-socket powers and the fan speeds' conductances. The
    /// batched sweep engine calls this per lane, then advances all lanes'
    /// networks together through one [`crate::BatchRcNetwork::step`] —
    /// bitwise identical to calling [`RackPlant::step`] on each plant
    /// alone.
    ///
    /// After preparing, the caller **must** step [`Self::network_mut`]
    /// (scalar or batched) to complete the plant step.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the topology.
    pub fn prepare_step(&mut self, powers: &[Watts], fans: &[Rpm]) {
        self.check_lengths(powers, fans);
        for (socket, &power) in self.sockets.iter().zip(powers) {
            self.net.set_power(socket.die, power);
        }
        // Unchanged fan speeds keep the factorization warm (the setter
        // skips identical conductances).
        for (&zone, &fan) in self.zone_ids.iter().zip(fans) {
            self.zones.set_fan(&mut self.net, zone, fan);
        }
    }

    /// The plant's RC network — read access for batch-lane registration
    /// and structure checks.
    #[must_use]
    pub fn network(&self) -> &RcNetwork {
        &self.net
    }

    /// Mutable access to the plant's RC network, for the batched stepper
    /// to solve after [`RackPlant::prepare_step`]. Mutating anything but
    /// the step state through this handle voids the plant's handles; it
    /// exists for the batch engine, not for re-plumbing.
    #[must_use]
    pub fn network_mut(&mut self) -> &mut RcNetwork {
        &mut self.net
    }

    /// Non-mutating steady-state probe of the whole rack at `(powers,
    /// fans)`: the junction temperature of every flat socket.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the topology.
    #[must_use]
    pub fn steady_state_junctions(&self, powers: &[Watts], fans: &[Rpm]) -> Vec<Celsius> {
        self.check_lengths(powers, fans);
        self.probe_with(
            powers,
            |z| fans[z],
            |plant, temps| {
                plant.sockets.iter().map(|s| Celsius::new(temps[s.die.index()])).collect()
            },
        )
    }

    /// The hottest steady-state junction in zone `z` at `(powers, fans)`,
    /// or the ambient for a slotless zone.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the topology or `z` is
    /// out of range.
    #[must_use]
    pub fn steady_state_hottest_in_zone(
        &self,
        z: usize,
        powers: &[Watts],
        fans: &[Rpm],
    ) -> Celsius {
        self.check_lengths(powers, fans);
        if self.zone_sockets[z].is_empty() {
            return self.ambient;
        }
        self.probe_with(powers, |zone| fans[zone], |plant, temps| plant.zone_hottest(z, temps))
    }

    /// Non-mutating whole-rack probe at `(powers, fans)`: fills `out` with
    /// every zone's hottest steady-state junction (the ambient for a
    /// slotless zone) from **one** solve, at a fraction of the cost of
    /// probing the zones one by one. The descent itself inverts through
    /// [`RackPlant::min_safe_zone_fan`]; this is the audit view of a
    /// joint fan vector — how the descent's output is *verified* to be
    /// feasible and tight (`gfsc_coord`'s descent tests, the dominance
    /// study) and the probe a whole-rack feasibility check would build
    /// on. Allocation-free once the probe scratch is warm.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the topology.
    pub fn steady_state_hottest_per_zone_into(
        &self,
        powers: &[Watts],
        fans: &[Rpm],
        out: &mut [Celsius],
    ) {
        assert_eq!(out.len(), self.zone_sockets.len(), "one output slot per zone");
        self.check_lengths(powers, fans);
        self.probe_with(
            powers,
            |z| fans[z],
            |plant, temps| {
                for (z, slot) in out.iter_mut().enumerate() {
                    *slot = plant.zone_hottest(z, temps);
                }
            },
        );
    }

    /// Zone `z`'s hottest junction in a solved node-temperature vector,
    /// or the ambient for a slotless zone.
    fn zone_hottest(&self, z: usize, temps: &[f64]) -> Celsius {
        let Some((&first, rest)) = self.zone_sockets[z].split_first() else {
            return self.ambient;
        };
        let mut hottest = temps[self.sockets[first].die.index()];
        for &i in rest {
            hottest = total_max(hottest, temps[self.sockets[i].die.index()]);
        }
        Celsius::new(hottest)
    }

    /// The slice-length contract of every whole-rack entry point.
    fn check_lengths(&self, powers: &[Watts], fans: &[Rpm]) {
        assert_eq!(powers.len(), self.sockets.len(), "one power per socket");
        assert_eq!(fans.len(), self.zone_ids.len(), "one fan speed per zone");
    }

    /// Runs one non-mutating steady-state probe of the whole rack at
    /// `powers` with zone `z`'s fan at `fan(z)`, in the thread's scratch
    /// (loaded with the live network's conductances and powers), and
    /// reduces the solved node temperatures. Allocation-free once the
    /// buffers are warm.
    fn probe_with<R>(
        &self,
        powers: &[Watts],
        fan: impl Fn(usize) -> Rpm,
        reduce: impl FnOnce(&Self, &[f64]) -> R,
    ) -> R {
        SCRATCH.with(|scratch| {
            let tables = &mut scratch.borrow_mut().tables;
            tables.load(&self.net);
            for (z, &zone) in self.zone_ids.iter().enumerate() {
                self.zones.override_probe(zone, fan(z), tables);
            }
            self.override_powers(tables, powers);
            reduce(self, self.net.solve_steady_state(tables))
        })
    }

    /// Overrides every socket's power in a probe's tables.
    fn override_powers(&self, tables: &mut SteadyStateScratch, powers: &[Watts]) {
        for (socket, &power) in self.sockets.iter().zip(powers) {
            tables.set_power(socket.die, power);
        }
    }

    /// The minimum fan speed for zone `z` keeping every steady-state
    /// junction *in that zone* at or below `limit`, with every other
    /// zone's fan held at its entry in `fans`, or `None` if even unbounded
    /// airflow cannot (e.g. recirculated heat from a starved neighbour).
    /// A slotless zone has nothing to guard: any speed is safe, so the
    /// answer is 0 rpm.
    ///
    /// The answer is exactly that of a 40-halving bisection of the
    /// monotone zone-hottest curve over [100, 1e6] rpm; `fans[z]` is only
    /// the warm start that lets most of its probes be skipped, so the
    /// call typically costs a handful of steady-state solves.
    /// Allocation-free once the probe scratch is warm.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the topology or `z` is
    /// out of range.
    #[must_use]
    pub fn min_safe_zone_fan(
        &self,
        z: usize,
        powers: &[Watts],
        fans: &[Rpm],
        limit: Celsius,
    ) -> Option<Rpm> {
        self.check_lengths(powers, fans);
        if self.zone_sockets[z].is_empty() {
            return Some(Rpm::new(0.0));
        }
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let ProbeScratch { tables, swept } = &mut *scratch;
            // Set up the tables once for the whole sweep: every other
            // zone held at its entry in `fans`, every power applied, and
            // the swept zone's links claimed in override order. Each
            // probe then rewrites only those links.
            tables.load(&self.net);
            swept.clear();
            for (zi, &zone) in self.zone_ids.iter().enumerate() {
                if zi == z {
                    self.zones.claim_for_sweep(zone, tables, swept);
                } else {
                    self.zones.override_probe(zone, fans[zi], tables);
                }
            }
            self.override_powers(tables, powers);
            let exponent = swept.first().map_or(1.0, |(_, law)| law.airflow_exponent());
            min_safe(limit, fans[z], exponent, |v| {
                let mut at = ResistanceAt::new(v);
                for (link, law) in swept.iter() {
                    tables.set_link(*link, at.of(law));
                }
                self.zone_hottest(z, self.net.solve_steady_state(tables))
            })
        })
    }

    /// Snaps the whole rack (dies, sinks, chassis, plenums) to its
    /// equilibrium at `(powers, fans)` and makes that the active operating
    /// point.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the topology.
    pub fn equilibrate(&mut self, powers: &[Watts], fans: &[Rpm]) {
        self.prepare_step(powers, fans);
        self.net.snap_to_steady_state();
    }
}

/// The bracket every min-safe inversion bisects. The law saturates below
/// 100 rpm, so 100 rpm is the stopped-fan envelope; 1e6 rpm is
/// numerically indistinguishable from the infinite-airflow asymptote.
const BRACKET: (f64, f64) = (100.0, 1e6);

/// Halvings of [`BRACKET`]: 40 take it to ~1e-6 rpm, far past any fan
/// actuator's resolution.
const HALVINGS: usize = 40;

/// Rounding noise of a steady-state probe, K. A probe whose residual
/// `hottest − limit` clears it decides every speed on its side of the
/// monotone curve; one inside it decides only its own speed. Rounding
/// breaks monotonicity between close probes by a few ulps: 1.4e-14 K at
/// worst over 190 k pairs 1e-6…1e-3 rpm apart on every rack preset.
const RESIDUAL_FLOOR: f64 = 1e-12;

/// Probes the warm-start secant may spend before the bisection replay.
const WARM_START_PROBES: usize = 12;

/// A secant step this small (rpm) ends the warm start. The secant
/// converges superlinearly, so the estimate after such a step typically
/// sits within the bisection's final ~1e-6 rpm cell of the root.
const SETTLED: f64 = 1e-2;

/// What the probes so far decide of the bisection's `hottest > limit`
/// test — and nothing more.
struct Decided {
    limit: Celsius,
    /// Fastest speed certified too hot: its residual cleared the noise
    /// floor, so every speed at or below it is too hot.
    hot: f64,
    /// Slowest speed certified safe: every speed at or above it is safe.
    safe: f64,
    /// Every warm-start probe with its own outcome (too hot?), exact for
    /// that one speed whatever its residual.
    probes: [(f64, bool); WARM_START_PROBES],
    len: usize,
}

impl Decided {
    fn new(limit: Celsius) -> Self {
        Self {
            limit,
            hot: f64::NEG_INFINITY,
            safe: f64::INFINITY,
            probes: [(0.0, false); WARM_START_PROBES],
            len: 0,
        }
    }

    /// Whether another warm-start probe fits the budget.
    fn has_room(&self) -> bool {
        self.len < WARM_START_PROBES
    }

    /// Records a warm-start probe of `hottest` at `v`; returns its
    /// residual.
    fn record(&mut self, v: f64, hottest: Celsius) -> f64 {
        let residual = hottest - self.limit;
        if residual > RESIDUAL_FLOOR && v > self.hot {
            self.hot = v;
        }
        if residual < -RESIDUAL_FLOOR && v < self.safe {
            self.safe = v;
        }
        if let Some(slot) = self.probes.get_mut(self.len) {
            *slot = (v, hottest > self.limit);
            self.len += 1;
        }
        residual
    }

    /// The bisection's decision at `v`, if the probes so far fix it.
    /// Crossed certificates would mean a curve that is not monotone past
    /// the noise floor; then only exact repeats decide.
    fn decide(&self, v: f64) -> Option<bool> {
        if self.hot < self.safe {
            if v <= self.hot {
                return Some(true);
            }
            if v >= self.safe {
                return Some(false);
            }
        }
        self.probes.iter().take(self.len).find(|&&(at, _)| at == v).map(|&(_, too_hot)| too_hot)
    }
}

/// The min-safe inversion behind [`RackPlant::min_safe_zone_fan`]: the
/// lowest fan speed at which `hottest_at` (a steady-state probe, monotone
/// decreasing in airflow) stays at or below `limit`, or `None` if even
/// unbounded airflow cannot hold it. An N-socket plant with chassis or
/// plenum coupling has no closed form, so the answer is defined by a
/// deterministic bisection: 40 halvings of [`BRACKET`] on the test
/// `hottest > limit`, `Some(0 rpm)` exactly when 100 rpm is safe and
/// `None` exactly when 1e6 rpm is too hot.
///
/// Most of that bisection's probes are foregone conclusions, so it is
/// replayed, not rerun. A short secant from `warm` (the swept fan's
/// current speed, in `s = v^-exponent` where the curve is nearly linear)
/// first closes in on the root and probes the two speeds the bisection
/// would finish between ([`warm_start`]). The bisection then takes every
/// one of its steps, probing only the speeds those probes leave
/// undecided. The answer is bit-identical to the plain bisection's
/// whatever `warm` is; `warm` only sets the cost: typically under ten
/// probes, never more than `WARM_START_PROBES + 2 + HALVINGS`.
fn min_safe(
    limit: Celsius,
    warm: Rpm,
    exponent: f64,
    mut hottest_at: impl FnMut(Rpm) -> Celsius,
) -> Option<Rpm> {
    let mut decided = Decided::new(limit);
    warm_start(warm.value(), exponent, &mut hottest_at, &mut decided);
    let mut too_hot = |v: f64| decided.decide(v).unwrap_or_else(|| hottest_at(Rpm::new(v)) > limit);
    let (mut lo, mut hi) = BRACKET;
    if !too_hot(lo) {
        return Some(Rpm::new(0.0));
    }
    if too_hot(hi) {
        return None;
    }
    for _ in 0..HALVINGS {
        let mid = 0.5 * (lo + hi);
        if too_hot(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(Rpm::new(hi))
}

/// The warm start of [`min_safe`]: a secant on the residual over
/// `s = v^-exponent` from `warm`, kept inside the certified bracket
/// (falling back to halving it in `s`), clamped to [`BRACKET`] so that an
/// endpoint is probed only when the estimate leaves it. Once the estimate
/// settles, [`probe_final_cell`] probes either side of it. Spends at most
/// [`WARM_START_PROBES`]; every probe lands in `decided`.
fn warm_start(
    warm: f64,
    exponent: f64,
    hottest_at: &mut impl FnMut(Rpm) -> Celsius,
    decided: &mut Decided,
) {
    let (lo, hi) = BRACKET;
    let to_s = |v: f64| v.powf(-exponent);
    let to_v = |s: f64| s.powf(-1.0 / exponent);
    let mut v = warm.clamp(lo, hi);
    // The previous probe's speed and residual, and the residual's slope
    // per rpm between the last two probes.
    let mut previous: Option<(f64, f64)> = None;
    let mut slope = f64::NAN;
    // Keep two probes for the final cell.
    while decided.len + 2 < WARM_START_PROBES {
        let residual = decided.record(v, hottest_at(Rpm::new(v)));
        let exit_settled = (v == lo && decided.decide(lo) == Some(false))
            || (v == hi && decided.decide(hi) == Some(true));
        if exit_settled || decided.hot >= decided.safe {
            return;
        }
        let s = to_s(v);
        let estimate = match previous {
            Some((v0, r0)) if residual != r0 => {
                slope = (residual - r0) / (v - v0);
                let s0 = to_s(v0);
                s - residual * (s - s0) / (residual - r0)
            }
            // Too hot wants more airflow, a smaller `s`.
            _ => s * if residual > 0.0 { 0.995 } else { 1.005 },
        };
        let mut next = to_v(estimate);
        // Outside the certified bracket, or NaN: fall back to a finite
        // speed on the root's side.
        if !(next > decided.hot && next < decided.safe) {
            next = match (decided.hot >= lo, decided.safe <= hi) {
                (true, true) => to_v(0.5 * (to_s(decided.hot) + to_s(decided.safe))),
                (true, false) => 4.0 * decided.hot,
                (false, true) => 0.25 * decided.safe,
                (false, false) => v,
            };
        }
        next = next.clamp(lo, hi);
        let step = (next - v).abs();
        previous = Some((v, residual));
        v = next;
        if step <= SETTLED {
            break;
        }
    }
    probe_final_cell(v, RESIDUAL_FLOOR / slope.abs(), hottest_at, decided);
}

/// Probes the ends of a cell on the path the bisection would take if the
/// root sat at `estimate` — speeds it visits — so that when the estimate
/// is right the replay finds every step above that cell decided. The cell
/// is the final one unless the curve is so flat that speeds within
/// `noise` rpm of the root cannot clear the residual floor; then it is
/// the smallest cell at least eight times `noise` wide, whose ends can.
/// A probe that contradicts the estimate redraws the path; the probes stop
/// once the cell's ends are decided or the budget is spent.
fn probe_final_cell(
    estimate: f64,
    noise: f64,
    hottest_at: &mut impl FnMut(Rpm) -> Celsius,
    decided: &mut Decided,
) {
    // An unknown slope (NaN) leaves the whole bracket.
    let narrowest = if noise.is_nan() { f64::INFINITY } else { 8.0 * noise };
    while decided.has_room() {
        let (mut lo, mut hi) = BRACKET;
        for _ in 0..HALVINGS {
            if 0.5 * (hi - lo) < narrowest {
                break;
            }
            let mid = 0.5 * (lo + hi);
            if decided.decide(mid).unwrap_or(mid < estimate) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let Some(v) = [lo, hi].into_iter().find(|&v| decided.decide(v).is_none()) else {
            return;
        };
        decided.record(v, hottest_at(Rpm::new(v)));
    }
}

/// The plain min-safe bisection: the lowest fan speed at which
/// `hottest_at` (a steady-state probe, monotone decreasing in airflow)
/// stays at or below `limit`, or `None` if even unbounded airflow cannot
/// hold it. An N-socket plant with chassis or plenum coupling has no
/// closed form, so this bisects — deterministically: fixed bracket,
/// fixed iteration count.
///
/// The reference [`min_safe`] is tested against, verbatim: the runtime
/// inversion must return exactly what this returns.
#[cfg(test)]
fn bisect_min_safe(limit: Celsius, mut hottest_at: impl FnMut(Rpm) -> Celsius) -> Option<Rpm> {
    // The law saturates below 100 rpm, so v = 100 is the stopped-fan
    // envelope; 1e6 rpm is numerically indistinguishable from the
    // infinite-airflow asymptote.
    let (lo, hi) = (100.0, 1e6);
    if hottest_at(Rpm::new(lo)) <= limit {
        return Some(Rpm::new(0.0));
    }
    if hottest_at(Rpm::new(hi)) > limit {
        return None;
    }
    // 40 halvings take the 1e6-wide bracket to ~1e-6 rpm — far past any
    // fan actuator's resolution; more iterations cannot change the
    // commanded speed and each costs a dense steady-state solve.
    let (mut lo, mut hi) = (lo, hi);
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if hottest_at(Rpm::new(mid)) > limit {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(Rpm::new(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServerThermalModel, Topology};

    fn cal() -> PlantCalibration {
        PlantCalibration {
            ambient: Celsius::new(30.0),
            law: HeatSinkLaw::date14(),
            sink_tau: Seconds::new(60.0),
            tau_speed: Rpm::new(8500.0),
            r_jc: KelvinPerWatt::new(0.10),
            die_tau: Seconds::new(0.1),
        }
    }

    fn rack_1u8() -> RackPlant {
        RackPlant::new(&cal(), &RackTopology::rack_1u_x8()).unwrap()
    }

    /// One server on `board`: the degenerate one-slot rack.
    fn board(board: Topology) -> RackPlant {
        RackPlant::new(&cal(), &RackTopology::single_server(board)).unwrap()
    }

    #[test]
    fn shapes_and_indices() {
        let rack = rack_1u8();
        assert_eq!(rack.zone_count(), 2);
        assert_eq!(rack.server_count(), 8);
        assert_eq!(rack.socket_count(), 8);
        assert_eq!(rack.zone_sockets(0), &[0, 1, 2, 3]);
        assert_eq!(rack.zone_sockets(1), &[4, 5, 6, 7]);
        assert_eq!(rack.server_sockets(3), 3..4);
        assert_eq!(rack.zone_of_socket(5), 1);
        let r4 = RackPlant::new(&cal(), &RackTopology::rack_2u_x4()).unwrap();
        assert_eq!(r4.socket_count(), 8);
        assert_eq!(r4.server_sockets(1), 2..4);
    }

    #[test]
    fn starved_zone_runs_hotter_and_warms_its_plenum() {
        let mut rack = rack_1u8();
        let powers = vec![Watts::new(140.8); 8];
        rack.equilibrate(&powers, &[Rpm::new(6000.0), Rpm::new(2500.0)]);
        assert!(rack.hottest_in_zone(1) > rack.hottest_in_zone(0) + 3.0);
        let front = rack.plenum_temperature(0).unwrap();
        let rear = rack.plenum_temperature(1).unwrap();
        assert!(rear > front, "rear plenum {rear} not hotter than front {front}");
        assert!(front > rack.ambient(), "plenum must sit above ambient under load");
        assert_eq!(rack.fan_speed(1), Rpm::new(2500.0));
    }

    #[test]
    fn plenum_couples_servers_within_a_zone() {
        // All the load on server 0: with a shared plenum, idle server 1's
        // sink (same wall) must sit measurably above ambient purely through
        // the air.
        let mut rack = RackPlant::new(&cal(), &RackTopology::shared_plenum(4)).unwrap();
        let powers = [Watts::new(160.0), Watts::new(0.0), Watts::new(0.0), Watts::new(0.0)];
        rack.equilibrate(&powers, &[Rpm::new(3000.0), Rpm::new(3000.0)]);
        assert!(
            rack.heat_sink(1) > Celsius::new(30.3),
            "no cross-server coupling: idle sink at {}",
            rack.heat_sink(1)
        );
        // The shared volume reaches across the walls too: the idle right
        // wall's servers also breathe server 0's heat.
        assert!(
            rack.heat_sink(2) > Celsius::new(30.2),
            "no cross-wall coupling: idle sink at {}",
            rack.heat_sink(2)
        );
    }

    #[test]
    fn chassis_couples_the_sockets() {
        // All power on socket 0: with the chassis spreader, socket 1's sink
        // must sit measurably above ambient purely through coupling.
        let hot_idle = [Watts::new(160.0), Watts::new(0.0)];
        let mut plant = board(Topology::blade_chassis());
        plant.equilibrate(&hot_idle, &[Rpm::new(3000.0)]);
        assert!(
            plant.heat_sink(1) > Celsius::new(30.5),
            "no cross-socket coupling: sink1 at {}",
            plant.heat_sink(1)
        );
        // Without a chassis (or a plenum) the idle socket stays at ambient.
        let mut plant = board(Topology::dual_socket());
        plant.equilibrate(&hot_idle, &[Rpm::new(3000.0)]);
        assert!(plant.heat_sink(1) < Celsius::new(30.1));
    }

    #[test]
    fn downstream_socket_runs_hotter() {
        let mut plant = board(Topology::quad_socket());
        plant.equilibrate(&[Watts::new(140.8); 4], &[Rpm::new(4000.0)]);
        for i in 1..4 {
            assert!(
                plant.junction(i) > plant.junction(i - 1),
                "socket {i} not hotter: {} vs {}",
                plant.junction(i),
                plant.junction(i - 1)
            );
        }
        assert_eq!(plant.hottest_junction(), plant.junction(3));
    }

    #[test]
    fn single_socket_steady_state_matches_two_node_model() {
        let plant = board(Topology::single_socket());
        let model = ServerThermalModel::date14(Celsius::new(30.0));
        for (p, v) in [(96.0, 2000.0), (140.8, 4000.0), (160.0, 8500.0)] {
            let net = plant.steady_state_hottest_in_zone(0, &[Watts::new(p)], &[Rpm::new(v)]);
            let exact = model.steady_state_junction(Watts::new(p), Rpm::new(v));
            assert!((net - exact).abs() < 1e-9, "p={p} v={v}: {net} vs {exact}");
        }
    }

    #[test]
    fn per_zone_probe_matches_the_single_zone_probes() {
        let rack = rack_1u8();
        let powers = vec![Watts::new(140.8); 8];
        let fans = [Rpm::new(5000.0), Rpm::new(2500.0)];
        let mut per_zone = [Celsius::new(0.0); 2];
        rack.steady_state_hottest_per_zone_into(&powers, &fans, &mut per_zone);
        for (z, hottest) in per_zone.iter().enumerate() {
            assert_eq!(
                hottest.value().to_bits(),
                rack.steady_state_hottest_in_zone(z, &powers, &fans).value().to_bits(),
                "zone {z}"
            );
        }
    }

    #[test]
    fn recirculation_couples_the_walls() {
        // Load only the front wall; the rear plenum must still warm up
        // through the recirculation path.
        let mut rack = rack_1u8();
        let mut powers = vec![Watts::new(0.0); 8];
        for p in powers.iter_mut().take(4) {
            *p = Watts::new(160.0);
        }
        rack.equilibrate(&powers, &[Rpm::new(3000.0), Rpm::new(3000.0)]);
        let rear = rack.plenum_temperature(1).unwrap();
        assert!(rear > Celsius::new(30.2), "rear plenum at {rear} despite recirculation");
    }

    #[test]
    fn transient_converges_to_probed_steady_state() {
        let mut rack = rack_1u8();
        let powers = vec![Watts::new(140.8); 8];
        let fans = [Rpm::new(4000.0), Rpm::new(4000.0)];
        let ss = rack.steady_state_junctions(&powers, &fans);
        for _ in 0..200_000 {
            rack.step(Seconds::new(1.0), &powers, &fans);
        }
        for (i, &ss_i) in ss.iter().enumerate() {
            assert!((rack.junction(i) - ss_i).abs() < 1e-6, "socket {i}");
        }
    }

    #[test]
    fn finned_plant_behaves_like_a_server() {
        // The fin-array expansion changes the matrix structure, not the
        // physics: downstream sockets still run hotter, more airflow still
        // cools, and the min-safe probe still lands tight on the limit.
        let mut plant = board(Topology::finned(2, 8));
        let p = [Watts::new(140.8); 2];
        plant.equilibrate(&p, &[Rpm::new(4000.0)]);
        assert!(plant.junction(1) > plant.junction(0), "downstream socket not hotter");
        assert!(plant.hottest_junction() > plant.ambient());
        let at = |v: Rpm| plant.steady_state_hottest_in_zone(0, &p, &[v]);
        let (slow, fast) = (at(Rpm::new(3000.0)), at(Rpm::new(6000.0)));
        assert!(fast < slow, "more airflow must cool the fins: {fast} vs {slow}");
        let limit = Celsius::new(75.0);
        let v = plant.min_safe_zone_fan(0, &p, &[Rpm::new(4000.0)], limit).expect("reachable");
        assert!((at(v) - limit).abs() < 0.01, "at {}", at(v));
        assert!(at(v + 100.0) < limit);
        assert!(at(v - 100.0) > limit);
    }

    #[test]
    fn finned_transient_converges_to_probed_steady_state() {
        let mut plant = board(Topology::finned(2, 8));
        let (p, v) = ([Watts::new(140.8); 2], [Rpm::new(4000.0)]);
        let ss = plant.steady_state_junctions(&p, &v);
        for _ in 0..100_000 {
            plant.step(Seconds::new(1.0), &p, &v);
        }
        for (i, &ss_i) in ss.iter().enumerate() {
            assert!((plant.junction(i) - ss_i).abs() < 1e-6, "socket {i}");
        }
    }

    #[test]
    fn min_safe_zone_fan_is_tight_and_respects_the_other_wall() {
        let rack = rack_1u8();
        let powers = vec![Watts::new(140.8); 8];
        let fans = [Rpm::new(4000.0), Rpm::new(4000.0)];
        let limit = Celsius::new(75.0);
        let v = rack.min_safe_zone_fan(1, &powers, &fans, limit).expect("reachable");
        let mut at = fans;
        at[1] = v;
        let t = rack.steady_state_hottest_in_zone(1, &powers, &at);
        assert!((t - limit).abs() < 0.01, "at {t}");
        at[1] = v - 100.0;
        assert!(rack.steady_state_hottest_in_zone(1, &powers, &at) > limit);
    }

    #[test]
    fn min_safe_zone_fan_edge_cases() {
        let rack = rack_1u8();
        let idle = vec![Watts::new(0.0); 8];
        let fans = [Rpm::new(3000.0), Rpm::new(3000.0)];
        assert_eq!(
            rack.min_safe_zone_fan(0, &idle, &fans, Celsius::new(35.0)),
            Some(Rpm::new(0.0))
        );
        let hot = vec![Watts::new(160.0); 8];
        assert!(rack.min_safe_zone_fan(0, &hot, &fans, Celsius::new(32.0)).is_none());
    }

    #[test]
    fn ambient_shift_moves_equilibrium() {
        let mut rack = rack_1u8();
        let powers = vec![Watts::new(100.0); 8];
        let fans = [Rpm::new(4000.0); 2];
        let a = rack.steady_state_hottest_in_zone(0, &powers, &fans);
        rack.set_ambient(Celsius::new(40.0));
        let b = rack.steady_state_hottest_in_zone(0, &powers, &fans);
        assert!((b - a - 10.0).abs() < 1e-9);
        assert_eq!(rack.ambient(), Celsius::new(40.0));
    }

    /// A small deterministic generator (xorshift64*) for the inversion's
    /// randomized checks, so a failing state reproduces from its seed.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Self {
            Self(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
        }

        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.unit()
        }

        /// Log-uniform on `[lo, hi)`.
        fn log_range(&mut self, lo: f64, hi: f64) -> f64 {
            lo * (hi / lo).powf(self.unit())
        }

        fn sign(&mut self) -> f64 {
            if self.next() & 1 == 0 {
                1.0
            } else {
                -1.0
            }
        }
    }

    /// Every rack shape the inversion is checked on: each preset, the
    /// one-slot dual, quad, blade and finned(2,8) boards, and `plenum-1`,
    /// whose right wall stands over empty bays (a slotless zone).
    fn inversion_rack(pick: usize, rng: &mut Rng) -> RackPlant {
        let topology = match pick % 10 {
            0 => RackTopology::rack_1u_x8(),
            1 => RackTopology::rack_2u_x4(),
            2 => RackTopology::shared_plenum(2 + rng.below(5)),
            3 => RackTopology::front_rear(2 + rng.below(5)),
            4 => RackTopology::choked_rear_x4(),
            5 => RackTopology::single_server(Topology::dual_socket()),
            6 => RackTopology::single_server(Topology::quad_socket()),
            7 => RackTopology::single_server(Topology::blade_chassis()),
            8 => RackTopology::single_server(Topology::finned(2, 8)),
            _ => RackTopology::shared_plenum(1),
        };
        RackPlant::new(&cal(), &topology).unwrap()
    }

    /// A random inversion input for zone `z`: per-socket powers (now and
    /// then an all-idle zone), held fans, and a sizing limit — mostly
    /// interior, sometimes within 1e-9…1e-3 K of the 100 rpm or the
    /// 1e6 rpm envelope.
    fn inversion_case(
        rack: &RackPlant,
        z: usize,
        rng: &mut Rng,
    ) -> (Vec<Watts>, Vec<Rpm>, Celsius) {
        let mut powers: Vec<Watts> =
            (0..rack.socket_count()).map(|_| Watts::new(rng.range(0.0, 200.0))).collect();
        if rng.below(8) == 0 {
            for &i in rack.zone_sockets(z) {
                powers[i] = Watts::new(0.0);
            }
        }
        let mut fans: Vec<Rpm> =
            (0..rack.zone_count()).map(|_| Rpm::new(rng.log_range(300.0, 12_000.0))).collect();
        let mut envelope = |v: f64| {
            fans[z] = Rpm::new(v);
            rack.steady_state_hottest_in_zone(z, &powers, &fans)
        };
        let limit = match rng.below(4) {
            0 => envelope(100.0) + rng.sign() * rng.log_range(1e-9, 1e-3),
            1 => envelope(1e6) + rng.sign() * rng.log_range(1e-9, 1e-3),
            _ => rack.ambient() + rng.range(2.0, 90.0),
        };
        (powers, fans, limit)
    }

    /// Warm starts around the oracle's answer: at it, near it, far from
    /// it, 0 rpm, and above the 1e6 rpm bracket.
    fn warm_starts(answer: Option<Rpm>, rng: &mut Rng) -> [Rpm; 5] {
        let at = answer.map_or(1e6, Rpm::value);
        [
            Rpm::new(at),
            Rpm::new(at * (1.0 + rng.sign() * rng.log_range(1e-9, 1e-2))),
            Rpm::new(rng.log_range(100.0, 1e6)),
            Rpm::new(0.0),
            Rpm::new(rng.range(1.0e6, 3.0e6)),
        ]
    }

    fn bits(v: Option<Rpm>) -> Option<u64> {
        v.map(|v| v.value().to_bits())
    }

    /// The oracle for [`RackPlant::min_safe_zone_fan`]: the 40-halving
    /// bisection over the whole-rack probe.
    fn oracle_zone_fan(
        rack: &RackPlant,
        z: usize,
        powers: &[Watts],
        fans: &[Rpm],
        limit: Celsius,
    ) -> Option<Rpm> {
        if rack.zone_sockets(z).is_empty() {
            return Some(Rpm::new(0.0));
        }
        let mut at = fans.to_vec();
        bisect_min_safe(limit, |v| {
            at[z] = v;
            rack.steady_state_hottest_in_zone(z, powers, &at)
        })
    }

    proptest::proptest! {
        /// The whole-rack inversion returns exactly the 40-halving
        /// oracle's answer, whatever warm start the swept zone's held fan
        /// supplies.
        #[test]
        fn min_safe_matches_the_bisection_oracle_bit_for_bit(
            pick in 0usize..10,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = Rng::new(seed);
            let rack = inversion_rack(pick, &mut rng);
            for z in 0..rack.zone_count() {
                let (powers, mut fans, limit) = inversion_case(&rack, z, &mut rng);
                let expected = oracle_zone_fan(&rack, z, &powers, &fans, limit);
                for warm in warm_starts(expected, &mut rng) {
                    fans[z] = warm;
                    let got = rack.min_safe_zone_fan(z, &powers, &fans, limit);
                    proptest::prop_assert_eq!(
                        bits(got),
                        bits(expected),
                        "{} zone {} limit {:?} warm {:?}: {:?} vs oracle {:?}",
                        rack.zone_count(), z, limit, warm, got, expected
                    );
                }
            }
        }
    }

    /// The probe cost of the inversion, counted by wrapping the probe: no
    /// call exceeds the warm start's budget plus a full bisection, and
    /// reachable states clear of both envelopes average a handful. Counts
    /// are deterministic, so this guards the gain without a timing gate.
    #[test]
    fn min_safe_probe_count_is_bounded_and_small() {
        let exponent = HeatSinkLaw::date14().airflow_exponent();
        let most = WARM_START_PROBES + 2 + HALVINGS;
        // (calls, probes) per outcome: reachable clear of both envelopes,
        // reachable near one, unreachable, all-idle zone.
        let mut tally = [(0usize, 0usize); 4];
        let mut rng = Rng::new(14);
        for pick in 0..1000 {
            let rack = inversion_rack(pick, &mut rng);
            for z in 0..rack.zone_count() {
                if rack.zone_sockets(z).is_empty() {
                    continue;
                }
                let (powers, mut fans, limit) = inversion_case(&rack, z, &mut rng);
                let expected = oracle_zone_fan(&rack, z, &powers, &fans, limit);
                let mut envelope = |v: f64| {
                    fans[z] = Rpm::new(v);
                    (rack.steady_state_hottest_in_zone(z, &powers, &fans) - limit).abs()
                };
                let clear = envelope(100.0) >= 0.01 && envelope(1e6) >= 0.01;
                let outcome = if rack.zone_sockets(z).iter().all(|&i| powers[i].value() == 0.0) {
                    3
                } else if expected.is_none() {
                    2
                } else if clear {
                    0
                } else {
                    1
                };
                for warm in warm_starts(expected, &mut rng) {
                    let mut probes = 0;
                    let got = min_safe(limit, warm, exponent, |v| {
                        probes += 1;
                        fans[z] = v;
                        rack.steady_state_hottest_in_zone(z, &powers, &fans)
                    });
                    assert_eq!(bits(got), bits(expected), "warm {warm:?}");
                    assert!(probes <= most, "{probes} probes from warm {warm:?}");
                    tally[outcome].0 += 1;
                    tally[outcome].1 += probes;
                }
            }
        }
        let mean = |(calls, probes): (usize, usize)| probes as f64 / calls.max(1) as f64;
        for (name, &t) in ["reachable", "reachable near an envelope", "unreachable", "all-idle"]
            .iter()
            .zip(&tally)
        {
            println!("{name}: {} calls, {:.2} probes per call", t.0, mean(t));
        }
        assert!(tally[0].0 >= 1000, "too few reachable states: {}", tally[0].0);
        assert!(mean(tally[0]) <= 10.0, "reachable states average {:.2} probes", mean(tally[0]));
    }
}
