//! Thermal topologies: how many heat sources share which fan.
//!
//! The paper's global fan controller exists because a single fan serves
//! several coupled heat sources. A [`Topology`] describes that structure for
//! one server board as plain data — per-socket load weights, airflow
//! derates for downstream sockets in the shared plenum, and an optional
//! chassis spreader that couples the sockets thermally — and the builders
//! below provide the variants the experiments sweep:
//!
//! - [`Topology::single_socket`]: the paper's 2-node server (the
//!   bit-compatible default — simulated by the exact-exponential
//!   [`crate::ServerThermalModel`], not the RC network),
//! - [`Topology::dual_socket`] / [`Topology::quad_socket`]: 2S/4S boards
//!   where downstream sockets see pre-heated air,
//! - [`Topology::dual_socket_imbalanced`]: a 2S board with a skewed
//!   per-socket load split (NUMA-pinned workloads),
//! - [`Topology::blade_chassis`]: two sockets coupled through a shared
//!   chassis spreader — the strongest inter-source coupling.
//!
//! A [`RackTopology`] is the same description one level up: several
//! servers — each with its own board — breathe from a shared plenum, split
//! into *fan zones* (front/rear fan walls, or one wall for a small rack).
//! Each zone's fans drive every airflow-dependent path of the servers in
//! that zone plus the zone's own plenum exhaust, which is what makes the
//! fan→link mapping ([`crate::FanZoneMap`]) genuinely many-to-one. The
//! plenum node per zone models inlet-temperature coupling: heat leaked by
//! any server warms the air every other server in the zone breathes, and
//! an optional recirculation path couples adjacent zones (hot-aisle air
//! finding its way back to the other wall). A single server is the
//! degenerate one-slot rack ([`RackTopology::single_server`]).
//!
//! Adding a new variant is a constructor returning a value; the plant
//! ([`crate::RackPlant`]), the server and rack simulators and the
//! scenario grid all consume the same descriptions.

use gfsc_units::KelvinPerWatt;

/// One socket's placement in the shared-fan airflow and load balance.
#[derive(Debug, Clone, PartialEq)]
pub struct SocketDef {
    /// Node-name stem (`die-{slot}-{name}` / `sink-{slot}-{name}` in the
    /// network).
    pub name: String,
    /// Relative load multiplier: socket `i` executes
    /// `clamp(u × load_weight)` of the server-wide demand `u`, so each
    /// socket dissipates its *own* CPU power (an N-socket board under the
    /// same demand burns ~N× the single-socket power — that is what makes
    /// the shared fan contended). 1.0 everywhere = balanced SMP; the
    /// builders keep the weights averaging 1 so total work stays
    /// comparable across topologies.
    pub load_weight: f64,
    /// Multiplier on the heat-sink law's airflow coefficient: 1.0 for the
    /// socket facing the inlet, > 1.0 for sockets breathing pre-heated or
    /// shadowed air further down the plenum.
    pub airflow_derate: f64,
    /// Multiplier on the junction-to-sink resistance (die/package spread
    /// across sockets).
    pub r_jc_scale: f64,
}

impl SocketDef {
    fn new(name: &str, load_weight: f64, airflow_derate: f64, r_jc_scale: f64) -> Self {
        Self { name: name.to_owned(), load_weight, airflow_derate, r_jc_scale }
    }
}

/// A shared chassis/spreader node coupling every socket's heat sink.
#[derive(Debug, Clone, PartialEq)]
pub struct ChassisDef {
    /// Sink-to-chassis coupling resistance, per socket.
    pub coupling: KelvinPerWatt,
    /// Chassis-to-ambient exhaust resistance (the fan-independent leak
    /// path through the enclosure walls).
    pub exhaust: KelvinPerWatt,
    /// Chassis thermal capacitance as a multiple of one socket's sink
    /// capacitance.
    pub capacitance_scale: f64,
}

/// The thermal structure of the simulated server: which heat sources share
/// the fan, and how they couple.
///
/// # Examples
///
/// ```
/// use gfsc_thermal::Topology;
///
/// let topo = Topology::quad_socket();
/// assert_eq!(topo.sockets().len(), 4);
/// assert!(!topo.is_single());
/// let mean: f64 = topo.sockets().iter().map(|s| s.load_weight).sum::<f64>() / 4.0;
/// assert!((mean - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    label: String,
    sockets: Vec<SocketDef>,
    chassis: Option<ChassisDef>,
    /// Fin segments per heat sink: 0 keeps the classic lumped sink, `k > 0`
    /// expands each sink into a base plate plus `k` mutually-coupled fin
    /// nodes (see [`Topology::finned`]).
    sink_segments: usize,
}

impl Topology {
    /// The paper's single-socket server: one die on one heat sink. This is
    /// the bit-compatible default — the server simulator steps it through
    /// the exact-exponential [`crate::ServerThermalModel`], not the
    /// backward-Euler network.
    #[must_use]
    pub fn single_socket() -> Self {
        Self {
            label: "1S".to_owned(),
            sockets: vec![SocketDef::new("cpu0", 1.0, 1.0, 1.0)],
            chassis: None,
            sink_segments: 0,
        }
    }

    /// A balanced dual-socket board: both sockets execute the full demand,
    /// the downstream socket breathing pre-heated air (+25 % on the
    /// convective term).
    #[must_use]
    pub fn dual_socket() -> Self {
        Self {
            label: "2S".to_owned(),
            sockets: vec![
                SocketDef::new("cpu0", 1.0, 1.0, 1.0),
                SocketDef::new("cpu1", 1.0, 1.25, 1.0),
            ],
            chassis: None,
            sink_segments: 0,
        }
    }

    /// A dual-socket board with a NUMA-skewed 130/70 load split — the hot
    /// socket sits upstream, so airflow and load imbalance fight.
    #[must_use]
    pub fn dual_socket_imbalanced() -> Self {
        Self {
            label: "2S-imb".to_owned(),
            sockets: vec![
                SocketDef::new("cpu0", 1.3, 1.0, 1.0),
                SocketDef::new("cpu1", 0.7, 1.25, 1.0),
            ],
            chassis: None,
            sink_segments: 0,
        }
    }

    /// A quad-socket board: balanced load, progressively derated airflow
    /// down the plenum.
    #[must_use]
    pub fn quad_socket() -> Self {
        Self {
            label: "4S".to_owned(),
            sockets: vec![
                SocketDef::new("cpu0", 1.0, 1.0, 1.0),
                SocketDef::new("cpu1", 1.0, 1.12, 1.0),
                SocketDef::new("cpu2", 1.0, 1.25, 1.0),
                SocketDef::new("cpu3", 1.0, 1.4, 1.0),
            ],
            chassis: None,
            sink_segments: 0,
        }
    }

    /// A blade enclosure: two sockets whose sinks couple through a shared
    /// chassis spreader (0.5 K/W per sink) with a weak fan-independent
    /// exhaust (2 K/W) — heat produced by one socket measurably warms the
    /// other, the strongest version of the many-sources/one-fan structure.
    #[must_use]
    pub fn blade_chassis() -> Self {
        Self {
            label: "blade".to_owned(),
            sockets: vec![
                SocketDef::new("cpu0", 1.0, 1.0, 1.0),
                SocketDef::new("cpu1", 1.0, 1.25, 1.0),
            ],
            chassis: Some(ChassisDef {
                coupling: KelvinPerWatt::new(0.5),
                exhaust: KelvinPerWatt::new(2.0),
                capacitance_scale: 2.0,
            }),
            sink_segments: 0,
        }
    }

    /// An N-socket board whose heat sinks are modeled as folded fin arrays:
    /// each sink becomes a base plate plus `segments` fin nodes that couple
    /// to the base, to *each other* (the reduced-order remnant of the air
    /// volume shared by the fins — eliminating the fast air node from a
    /// detailed model leaves exactly this dense fin-to-fin coupling), and
    /// each to ambient through its own share of the fan law.
    ///
    /// This is the detailed-plant variant: its backward-Euler matrix has a
    /// dense `(segments + 1)²` block per socket, so re-factorization — not
    /// substitution — dominates stepping whenever the fan is in motion.
    /// That makes it the stress topology for the batched sweep engine,
    /// whose cross-lane/cross-step factor memo exists to absorb exactly
    /// that cost.
    ///
    /// # Panics
    ///
    /// Panics if `sockets` or `segments` is zero.
    #[must_use]
    pub fn finned(sockets: usize, segments: usize) -> Self {
        assert!(sockets > 0, "finned topology needs at least one socket");
        assert!(segments > 0, "finned topology needs at least one fin segment");
        let defs = (0..sockets)
            .map(|i| {
                // Same progressive plenum derate slope as `quad_socket`.
                let derate = 1.0 + 0.13 * i as f64;
                SocketDef::new(&format!("cpu{i}"), 1.0, derate, 1.0)
            })
            .collect();
        let topo = Self {
            label: format!("{sockets}Sx{segments}f"),
            sockets: defs,
            chassis: None,
            sink_segments: segments,
        };
        topo.validate();
        topo
    }

    /// Fin segments per heat sink (0 = classic lumped sink).
    #[must_use]
    pub fn sink_segments(&self) -> usize {
        self.sink_segments
    }

    /// Replaces the per-socket load weights (must match the socket count
    /// and average 1, so total work stays comparable across topologies).
    ///
    /// # Panics
    ///
    /// Panics if the weight count differs from the socket count, any
    /// weight is not positive, or the weights do not average 1.
    #[must_use]
    pub fn with_load_weights(mut self, weights: &[f64]) -> Self {
        assert_eq!(weights.len(), self.sockets.len(), "one weight per socket");
        for (socket, &weight) in self.sockets.iter_mut().zip(weights) {
            socket.load_weight = weight;
        }
        self.validate();
        self
    }

    /// The topology's short display label (`1S`, `2S`, `4S`, `blade`, …).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The sockets, inlet-first.
    #[must_use]
    pub fn sockets(&self) -> &[SocketDef] {
        &self.sockets
    }

    /// The chassis spreader, if this topology has one.
    #[must_use]
    pub fn chassis(&self) -> Option<&ChassisDef> {
        self.chassis.as_ref()
    }

    /// Whether this is the paper's plain single-socket server (no derate,
    /// no chassis) — the shape the exact two-node model covers.
    #[must_use]
    pub fn is_single(&self) -> bool {
        self.sockets.len() == 1 && self.chassis.is_none() && self.sink_segments == 0
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if there are no sockets, weights/derates/scales are not
    /// positive, or the load weights do not average 1.
    pub fn validate(&self) {
        assert!(!self.sockets.is_empty(), "topology needs at least one socket");
        let mut sum = 0.0;
        for s in &self.sockets {
            assert!(s.load_weight > 0.0, "socket `{}` load weight must be positive", s.name);
            assert!(s.airflow_derate > 0.0, "socket `{}` airflow derate must be positive", s.name);
            assert!(s.r_jc_scale > 0.0, "socket `{}` r_jc scale must be positive", s.name);
            sum += s.load_weight;
        }
        let mean = sum / self.sockets.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9, "load weights must average 1, got mean {mean}");
        if let Some(ch) = &self.chassis {
            assert!(ch.capacitance_scale > 0.0, "chassis capacitance scale must be positive");
        }
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::single_socket()
    }
}

/// One fan zone: a wall of identical fans serving a set of servers.
#[derive(Debug, Clone, PartialEq)]
pub struct RackZoneDef {
    /// Zone display name (`front`, `rear`, `z0`, …).
    pub name: String,
    /// Number of physical fans in the wall; the zone's electrical power is
    /// `fans × FanPowerModel::power(speed)`.
    pub fans: usize,
}

/// One server's slot in the rack.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSlot {
    /// Slot name (`srv0`, …) — node names are prefixed with it.
    pub name: String,
    /// Index of the fan zone this server breathes from.
    pub zone: usize,
    /// The server's own socket structure (1S/2S/… boards, optional
    /// chassis).
    pub board: Topology,
    /// Airflow derate for the slot's position in the zone plenum
    /// (multiplies each socket's own derate): 1.0 at the zone inlet,
    /// higher further downstream.
    pub airflow_derate: f64,
    /// Relative share of the rack-wide demand this server executes
    /// (averages 1 across slots, like socket load weights).
    pub load_weight: f64,
}

/// The shared-plenum coupling parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PlenumDef {
    /// Sink→zone-plenum leak resistance, per socket: the fraction of each
    /// socket's heat dumped into the shared air volume instead of straight
    /// out the back.
    pub coupling: KelvinPerWatt,
    /// Airflow derate of the zone-plenum→ambient exhaust path (evaluated
    /// on the zone fan through the base heat-sink law, divided by the
    /// zone's fan count — more fans, proportionally freer exhaust).
    pub exhaust_derate: f64,
    /// Plenum air capacitance as a multiple of one socket's sink
    /// capacitance.
    pub capacitance_scale: f64,
    /// Recirculation resistance between *adjacent* zone plenums (rack
    /// order), or `None` for isolated zones.
    pub recirculation: Option<KelvinPerWatt>,
}

impl Default for PlenumDef {
    fn default() -> Self {
        Self {
            coupling: KelvinPerWatt::new(0.8),
            exhaust_derate: 1.0,
            capacitance_scale: 4.0,
            recirculation: Some(KelvinPerWatt::new(1.5)),
        }
    }
}

/// The thermal structure of a rack: fan zones, server slots, plenum
/// coupling.
///
/// # Examples
///
/// ```
/// use gfsc_thermal::RackTopology;
///
/// let rack = RackTopology::rack_1u_x8();
/// assert_eq!(rack.zones().len(), 2);
/// assert_eq!(rack.servers().len(), 8);
/// assert_eq!(rack.total_sockets(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RackTopology {
    label: String,
    zones: Vec<RackZoneDef>,
    servers: Vec<ServerSlot>,
    plenum: Option<PlenumDef>,
}

impl RackTopology {
    /// Builds a rack from parts.
    ///
    /// # Panics
    ///
    /// Panics if the description fails [`RackTopology::validate`].
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        zones: Vec<RackZoneDef>,
        servers: Vec<ServerSlot>,
        plenum: Option<PlenumDef>,
    ) -> Self {
        let rack = Self { label: label.into(), zones, servers, plenum };
        rack.validate();
        rack
    }

    /// The degenerate one-server "rack": a single zone with one fan, no
    /// plenum — the legacy one-fan rule as the single-zone special case.
    /// This is how a server's multi-socket board reaches the RC network
    /// (`gfsc_server::Server` compiles `single_server(spec.topology)`).
    #[must_use]
    pub fn single_server(board: Topology) -> Self {
        let label = format!("1x{}", board.label());
        Self::new(
            label,
            vec![RackZoneDef { name: "z0".to_owned(), fans: 1 }],
            vec![ServerSlot {
                name: "srv0".to_owned(),
                zone: 0,
                board,
                airflow_derate: 1.0,
                load_weight: 1.0,
            }],
            None,
        )
    }

    /// `n` single-socket servers breathing one *genuinely shared* air
    /// volume, split across two fan walls (one fan per server; with one
    /// server the right wall stands over empty bays). The per-zone plenum
    /// nodes are tied by a deliberately low recirculation resistance —
    /// the closest thing to a single air volume the per-zone plenum
    /// discretization expresses — so either wall's airflow moves *every*
    /// server's inlet temperature. This is the preset where cross-zone
    /// coupling matters most: sizing one wall while the other is frozen
    /// (the per-zone descent) is maximally wrong here, which is exactly
    /// what the rack-global energy descent is asserted against. Both walls
    /// breathe symmetrically (slots derate with in-wall position only).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn shared_plenum(n: usize) -> Self {
        assert!(n > 0, "a rack needs at least one server");
        let left = n.div_ceil(2);
        let servers = (0..n)
            .map(|i| {
                let (zone, pos) = if i < left { (0, i) } else { (1, i - left) };
                ServerSlot {
                    name: format!("srv{i}"),
                    zone,
                    board: Topology::single_socket(),
                    airflow_derate: 1.0 + 0.06 * pos as f64,
                    load_weight: 1.0,
                }
            })
            .collect();
        Self::new(
            format!("plenum-{n}"),
            vec![
                RackZoneDef { name: "left".to_owned(), fans: left },
                RackZoneDef { name: "right".to_owned(), fans: (n - left).max(1) },
            ],
            servers,
            Some(PlenumDef {
                // Most of each sink's heat rides the shared air (low
                // coupling resistance), the exhaust is deliberately hard
                // (a dense rack's back-pressure), and the two per-zone
                // plenum nodes are tied almost rigidly — each wall's
                // min-safe speed moves by hundreds of rpm with the other
                // wall's speed, which is the regime the rack-global
                // descent exists for.
                coupling: KelvinPerWatt::new(0.3),
                exhaust_derate: 2.0,
                capacitance_scale: 4.0,
                recirculation: Some(KelvinPerWatt::new(0.1)),
            }),
        )
    }

    /// `n` single-socket servers split across a front and a rear fan wall,
    /// with plenum recirculation between the walls. The rear zone breathes
    /// pre-heated air (higher slot derates).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn front_rear(n: usize) -> Self {
        assert!(n >= 2, "front/rear needs at least one server per wall");
        Self::front_rear_boards(
            format!("fr-{n}"),
            (0..n).map(|_| Topology::single_socket()).collect(),
        )
    }

    /// The 1U×8 preset: eight 1U single-socket servers, four per wall.
    #[must_use]
    pub fn rack_1u_x8() -> Self {
        Self::front_rear_boards(
            "1Ux8".to_owned(),
            (0..8).map(|_| Topology::single_socket()).collect(),
        )
    }

    /// The 2U×4 preset: four 2U dual-socket servers, two per wall — fewer,
    /// hotter boxes, each with its own downstream-socket derate on top of
    /// the slot derate.
    #[must_use]
    pub fn rack_2u_x4() -> Self {
        Self::front_rear_boards(
            "2Ux4".to_owned(),
            (0..4).map(|_| Topology::dual_socket()).collect(),
        )
    }

    /// The choked-rear preset: four 2U dual-socket servers split across a
    /// free-breathing front wall (derates 1.0, 1.06) and a badly choked
    /// rear wall (derates 1.6, 1.66 — a rack backed close to a hot-aisle
    /// wall), with *isolated* per-zone plenums (no recirculation). The
    /// same heat costs far more airflow to remove behind the rear wall
    /// than the front one, and the walls share no air — so *where* work
    /// runs matters enormously. This is the geometry work migration is
    /// evaluated on: capping a hot rear server throws work away, while
    /// shifting its load weight to the headroomed front wall removes the
    /// violation *and* moves the heat to where removing it is cheap.
    #[must_use]
    pub fn choked_rear_x4() -> Self {
        let servers = (0..4)
            .map(|i| ServerSlot {
                name: format!("srv{i}"),
                zone: usize::from(i >= 2),
                board: Topology::dual_socket(),
                airflow_derate: if i < 2 {
                    1.0 + 0.06 * i as f64
                } else {
                    1.6 + 0.06 * (i - 2) as f64
                },
                load_weight: 1.0,
            })
            .collect();
        Self::new(
            "choked-rear",
            vec![
                RackZoneDef { name: "front".to_owned(), fans: 4 },
                RackZoneDef { name: "rear".to_owned(), fans: 4 },
            ],
            servers,
            Some(PlenumDef { recirculation: None, ..PlenumDef::default() }),
        )
    }

    /// Front/rear split over an explicit list of server boards.
    fn front_rear_boards(label: String, boards: Vec<Topology>) -> Self {
        let n = boards.len();
        let front = n.div_ceil(2);
        let servers = boards
            .into_iter()
            .enumerate()
            .map(|(i, board)| {
                let (zone, pos) = if i < front { (0, i) } else { (1, i - front) };
                // Rear-wall slots start pre-derated past the worst front
                // slot: they breathe air the front half already warmed.
                let base = if zone == 0 { 1.0 } else { 1.2 };
                ServerSlot {
                    name: format!("srv{i}"),
                    zone,
                    board,
                    airflow_derate: base + 0.06 * pos as f64,
                    load_weight: 1.0,
                }
            })
            .collect();
        Self::new(
            label,
            vec![
                RackZoneDef { name: "front".to_owned(), fans: front },
                RackZoneDef { name: "rear".to_owned(), fans: n - front },
            ],
            servers,
            Some(PlenumDef::default()),
        )
    }

    /// Replaces the per-server load weights (must match the server count
    /// and average 1).
    ///
    /// # Panics
    ///
    /// Panics if the weight count differs from the server count or the
    /// result fails validation.
    #[must_use]
    pub fn with_load_weights(mut self, weights: &[f64]) -> Self {
        assert_eq!(weights.len(), self.servers.len(), "one weight per server");
        for (slot, &weight) in self.servers.iter_mut().zip(weights) {
            slot.load_weight = weight;
        }
        self.validate();
        self
    }

    /// The rack's display label (`1Ux8`, `2Ux4`, `plenum-4`, …).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The fan zones, rack order.
    #[must_use]
    pub fn zones(&self) -> &[RackZoneDef] {
        &self.zones
    }

    /// The server slots, inlet-first within each zone.
    #[must_use]
    pub fn servers(&self) -> &[ServerSlot] {
        &self.servers
    }

    /// The plenum coupling, if this rack models one.
    #[must_use]
    pub fn plenum(&self) -> Option<&PlenumDef> {
        self.plenum.as_ref()
    }

    /// Total socket count across every server.
    #[must_use]
    pub fn total_sockets(&self) -> usize {
        self.servers.iter().map(|s| s.board.sockets().len()).sum()
    }

    /// Whether zone `z` has at least one server slot. Partially-populated
    /// racks legitimately carry *slotless* zones (a fan wall whose bays are
    /// empty); controllers and reference schedulers must not treat such a
    /// zone as a thermal participant.
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    #[must_use]
    pub fn zone_is_populated(&self, z: usize) -> bool {
        assert!(z < self.zones.len(), "zone {z} out of range");
        self.servers.iter().any(|slot| slot.zone == z)
    }

    /// Validates internal consistency.
    ///
    /// A zone with no server slots is *allowed* (a fan wall over empty
    /// bays in a partially-populated rack); it still needs at least one
    /// fan.
    ///
    /// # Panics
    ///
    /// Panics if there are no zones or servers, a slot references an
    /// unknown zone, a zone has no fans, derates/weights are not positive,
    /// the load weights do not average 1, or a board fails its own
    /// validation.
    pub fn validate(&self) {
        assert!(!self.zones.is_empty(), "rack needs at least one zone");
        assert!(!self.servers.is_empty(), "rack needs at least one server");
        let mut weight_sum = 0.0;
        for slot in &self.servers {
            assert!(slot.zone < self.zones.len(), "slot `{}` references unknown zone", slot.name);
            assert!(slot.airflow_derate > 0.0, "slot `{}` derate must be positive", slot.name);
            assert!(slot.load_weight > 0.0, "slot `{}` load weight must be positive", slot.name);
            weight_sum += slot.load_weight;
            slot.board.validate();
        }
        for zone in &self.zones {
            assert!(zone.fans > 0, "zone `{}` needs at least one fan", zone.name);
        }
        let mean = weight_sum / self.servers.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9, "server load weights must average 1, got mean {mean}");
        if let Some(plenum) = &self.plenum {
            assert!(
                plenum.exhaust_derate > 0.0 && plenum.capacitance_scale > 0.0,
                "plenum parameters must be positive"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_validate() {
        for topo in [
            Topology::single_socket(),
            Topology::dual_socket(),
            Topology::dual_socket_imbalanced(),
            Topology::quad_socket(),
            Topology::blade_chassis(),
        ] {
            topo.validate();
        }
    }

    #[test]
    fn single_socket_is_the_default_and_single() {
        assert_eq!(Topology::default(), Topology::single_socket());
        assert!(Topology::single_socket().is_single());
        assert!(!Topology::dual_socket().is_single());
        assert!(!Topology::blade_chassis().is_single());
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            Topology::single_socket().label().to_owned(),
            Topology::dual_socket().label().to_owned(),
            Topology::dual_socket_imbalanced().label().to_owned(),
            Topology::quad_socket().label().to_owned(),
            Topology::blade_chassis().label().to_owned(),
            RackTopology::shared_plenum(4).label().to_owned(),
            RackTopology::front_rear(4).label().to_owned(),
            RackTopology::rack_1u_x8().label().to_owned(),
            RackTopology::rack_2u_x4().label().to_owned(),
        ];
        let mut dedup = labels.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn with_load_weights_replaces_split() {
        let topo = Topology::dual_socket().with_load_weights(&[1.4, 0.6]);
        assert_eq!(topo.sockets()[0].load_weight, 1.4);
        assert_eq!(topo.sockets()[1].load_weight, 0.6);
        let rack = RackTopology::rack_2u_x4().with_load_weights(&[1.6, 0.8, 0.8, 0.8]);
        assert_eq!(rack.servers()[0].load_weight, 1.6);
    }

    #[test]
    #[should_panic(expected = "average 1")]
    fn bad_weights_rejected() {
        let _ = Topology::dual_socket().with_load_weights(&[1.4, 1.4]);
    }

    #[test]
    fn blade_has_a_chassis() {
        assert!(Topology::blade_chassis().chassis().is_some());
        assert!(Topology::quad_socket().chassis().is_none());
    }

    #[test]
    fn finned_shape_and_labels() {
        let topo = Topology::finned(2, 32);
        topo.validate();
        assert_eq!(topo.sockets().len(), 2);
        assert_eq!(topo.sink_segments(), 32);
        assert_eq!(topo.label(), "2Sx32f");
        assert_ne!(Topology::finned(2, 32).label(), Topology::finned(2, 40).label());
        // Same plenum-derate shape as the lumped builders: inlet socket
        // at 1.0, downstream sockets progressively worse.
        let derates: Vec<f64> =
            Topology::finned(3, 8).sockets().iter().map(|s| s.airflow_derate).collect();
        assert_eq!(derates[0], 1.0);
        assert!(derates.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn finned_is_never_single() {
        // Even one finned socket needs the RC network: the exact two-node
        // model has no fin states, so is_single() must say "network path".
        assert!(!Topology::finned(1, 4).is_single());
        assert!(!Topology::finned(2, 32).is_single());
    }

    #[test]
    #[should_panic(expected = "at least one fin segment")]
    fn finned_rejects_zero_segments() {
        let _ = Topology::finned(2, 0);
    }

    #[test]
    #[should_panic(expected = "at least one socket")]
    fn finned_rejects_zero_sockets() {
        let _ = Topology::finned(0, 8);
    }

    #[test]
    fn presets_validate() {
        for rack in [
            RackTopology::single_server(Topology::single_socket()),
            RackTopology::single_server(Topology::blade_chassis()),
            RackTopology::shared_plenum(4),
            RackTopology::front_rear(6),
            RackTopology::rack_1u_x8(),
            RackTopology::rack_2u_x4(),
            RackTopology::choked_rear_x4(),
        ] {
            rack.validate();
        }
    }

    #[test]
    fn choked_rear_is_asymmetric_and_isolated() {
        let rack = RackTopology::choked_rear_x4();
        assert_eq!(rack.total_sockets(), 8);
        assert!(rack.servers()[2].airflow_derate > rack.servers()[1].airflow_derate + 0.4);
        assert!(rack.plenum().unwrap().recirculation.is_none(), "walls must not share air");
    }

    #[test]
    fn preset_shapes() {
        let r8 = RackTopology::rack_1u_x8();
        assert_eq!(r8.zones().len(), 2);
        assert_eq!(r8.servers().len(), 8);
        assert_eq!(r8.total_sockets(), 8);
        assert_eq!(r8.zones()[0].fans + r8.zones()[1].fans, 8);
        let r4 = RackTopology::rack_2u_x4();
        assert_eq!(r4.servers().len(), 4);
        assert_eq!(r4.total_sockets(), 8);
        assert!(r4.plenum().is_some());
        let sp = RackTopology::shared_plenum(3);
        assert_eq!(sp.zones().len(), 2, "shared plenum splits across two walls");
        assert_eq!(sp.zones()[0].fans, 2);
        assert_eq!(sp.zones()[1].fans, 1);
        // The shared volume: a recirculation path far stronger than the
        // front/rear default couples the two per-zone plenum nodes.
        let tie = sp.plenum().unwrap().recirculation.expect("shared volume is coupled");
        assert!(tie < PlenumDef::default().recirculation.unwrap());
        // Walls breathe symmetrically: derates depend on in-wall position.
        assert_eq!(sp.servers()[0].airflow_derate, sp.servers()[2].airflow_derate);
        // A one-server shared plenum leaves a legal slotless right wall.
        let solo = RackTopology::shared_plenum(1);
        assert!(solo.zone_is_populated(0));
        assert!(!solo.zone_is_populated(1));
        assert_eq!(solo.zones()[1].fans, 1);
    }

    #[test]
    fn rear_wall_breathes_worse_air() {
        let rack = RackTopology::rack_1u_x8();
        let front_max = rack.servers()[..4].iter().map(|s| s.airflow_derate).fold(0.0, f64::max);
        let rear_min =
            rack.servers()[4..].iter().map(|s| s.airflow_derate).fold(f64::INFINITY, f64::min);
        assert!(rear_min > front_max, "rear {rear_min} vs front {front_max}");
    }

    #[test]
    #[should_panic(expected = "average 1")]
    fn bad_rack_weights_rejected() {
        let _ = RackTopology::rack_2u_x4().with_load_weights(&[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "unknown zone")]
    fn unknown_zone_rejected() {
        let _ = RackTopology::new(
            "bad",
            vec![RackZoneDef { name: "z0".to_owned(), fans: 1 }],
            vec![ServerSlot {
                name: "srv0".to_owned(),
                zone: 3,
                board: Topology::single_socket(),
                airflow_derate: 1.0,
                load_weight: 1.0,
            }],
            None,
        );
    }

    #[test]
    fn slotless_zone_is_allowed_but_unpopulated() {
        // A fan wall over empty bays: legal (partially-populated rack),
        // but flagged unpopulated so controllers can skip it.
        let rack = RackTopology::new(
            "partial",
            vec![
                RackZoneDef { name: "z0".to_owned(), fans: 1 },
                RackZoneDef { name: "z1".to_owned(), fans: 2 },
            ],
            vec![ServerSlot {
                name: "srv0".to_owned(),
                zone: 0,
                board: Topology::single_socket(),
                airflow_derate: 1.0,
                load_weight: 1.0,
            }],
            None,
        );
        assert!(rack.zone_is_populated(0));
        assert!(!rack.zone_is_populated(1));
        assert_eq!(rack.total_sockets(), 1);
    }

    #[test]
    #[should_panic(expected = "needs at least one fan")]
    fn fanless_zone_rejected() {
        let _ = RackTopology::new(
            "bad",
            vec![RackZoneDef { name: "z0".to_owned(), fans: 0 }],
            vec![ServerSlot {
                name: "srv0".to_owned(),
                zone: 0,
                board: Topology::single_socket(),
                airflow_derate: 1.0,
                load_weight: 1.0,
            }],
            None,
        );
    }
}
