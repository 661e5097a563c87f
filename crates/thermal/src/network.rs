//! A general N-node RC thermal network.
//!
//! [`HeatSinkNode`](crate::HeatSinkNode)/[`DieNode`](crate::DieNode) hard-code
//! the paper's two-node topology. This module provides the general compact
//! thermal model in the HotSpot spirit (Huang et al., TVLSI'06): named
//! capacitive nodes, fixed-temperature boundary nodes (ambient), and
//! resistive links. Integration is unconditionally-stable backward Euler,
//! so stiff networks (0.1 s die next to a 60 s sink) can be stepped at the
//! controller rate without blowing up.

use core::cell::RefCell;
use core::fmt;
use gfsc_units::{Celsius, JoulesPerKelvin, KelvinPerWatt, Seconds, Watts};
use std::collections::HashMap;

/// Identifier of a capacitive node inside an [`RcNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// The node's position in [`RcNetwork::node_names`] order — the index
    /// of this node's entry in the vectors [`RcNetwork::steady_state`] and
    /// [`RcNetwork::steady_state_with`] return.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a resistive link inside an [`RcNetwork`], resolved once
/// via [`RcNetwork::link_id`] so per-step re-parameterization (e.g. the
/// sink→ambient conductance moving with fan speed) skips the name scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(usize);

/// Identifier of a boundary node inside an [`RcNetwork`], resolved once
/// via [`RcNetwork::boundary_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundaryId(usize);

/// Error produced while building or mutating an [`RcNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A node or boundary name was used twice.
    DuplicateName(String),
    /// A link or lookup referenced a name that does not exist.
    UnknownName(String),
    /// A link connects two boundaries, which has no effect on any node.
    BoundaryToBoundary(String, String),
    /// A node has no resistive path to any boundary, so its temperature
    /// would diverge under constant power injection.
    FloatingNode(String),
    /// The network has no capacitive nodes.
    Empty,
    /// No link exists between the two named endpoints.
    NoSuchLink(String, String),
    /// A lane handed to [`crate::BatchRcNetwork`] does not share the batch's
    /// node/link structure.
    BatchMismatch(String),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::DuplicateName(n) => write!(f, "duplicate node name `{n}`"),
            NetworkError::UnknownName(n) => write!(f, "unknown node name `{n}`"),
            NetworkError::BoundaryToBoundary(a, b) => {
                write!(f, "link `{a}`–`{b}` connects two boundaries")
            }
            NetworkError::FloatingNode(n) => {
                write!(f, "node `{n}` has no path to any boundary")
            }
            NetworkError::Empty => write!(f, "network has no capacitive nodes"),
            NetworkError::NoSuchLink(a, b) => write!(f, "no link between `{a}` and `{b}`"),
            NetworkError::BatchMismatch(why) => write!(f, "batch structure mismatch: {why}"),
        }
    }
}

impl std::error::Error for NetworkError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    Node(usize),
    Boundary(usize),
}

#[derive(Debug, Clone)]
pub(crate) struct Link {
    pub(crate) a: Endpoint,
    pub(crate) b: Endpoint,
    pub(crate) conductance: f64, // W/K
}

/// Builder for [`RcNetwork`].
///
/// # Examples
///
/// ```
/// use gfsc_thermal::RcNetworkBuilder;
/// use gfsc_units::{Celsius, JoulesPerKelvin, KelvinPerWatt, Seconds, Watts};
///
/// let mut net = RcNetworkBuilder::new()
///     .node("die", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
///     .node("sink", JoulesPerKelvin::new(300.0), Celsius::new(30.0))
///     .boundary("ambient", Celsius::new(30.0))
///     .link("die", "sink", KelvinPerWatt::new(0.1))
///     .link("sink", "ambient", KelvinPerWatt::new(0.2))
///     .build()?;
/// let die = net.node_id("die").unwrap();
/// net.set_power(die, Watts::new(100.0));
/// net.step(Seconds::new(1.0));
/// assert!(net.temperature(die) > Celsius::new(30.0));
/// # Ok::<(), gfsc_thermal::NetworkError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RcNetworkBuilder {
    node_names: Vec<String>,
    capacitances: Vec<f64>,
    initials: Vec<f64>,
    boundary_names: Vec<String>,
    boundary_temps: Vec<f64>,
    links: Vec<(String, String, f64)>,
}

impl RcNetworkBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a capacitive node.
    #[must_use]
    pub fn node(
        mut self,
        name: impl Into<String>,
        capacitance: JoulesPerKelvin,
        initial: Celsius,
    ) -> Self {
        self.node_names.push(name.into());
        self.capacitances.push(capacitance.value());
        self.initials.push(initial.value());
        self
    }

    /// Adds a fixed-temperature boundary node (e.g. ambient air).
    #[must_use]
    pub fn boundary(mut self, name: impl Into<String>, temperature: Celsius) -> Self {
        self.boundary_names.push(name.into());
        self.boundary_temps.push(temperature.value());
        self
    }

    /// Adds a resistive link between two named endpoints.
    #[must_use]
    pub fn link(
        mut self,
        a: impl Into<String>,
        b: impl Into<String>,
        resistance: KelvinPerWatt,
    ) -> Self {
        self.links.push((a.into(), b.into(), 1.0 / resistance.value()));
        self
    }

    /// Validates the topology and builds the network.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if names collide, a link references an
    /// unknown name or joins two boundaries, the network is empty, or any
    /// node lacks a path to a boundary.
    pub fn build(self) -> Result<RcNetwork, NetworkError> {
        if self.node_names.is_empty() {
            return Err(NetworkError::Empty);
        }
        // Name uniqueness across nodes *and* boundaries; of several
        // duplicated names the lexicographically first is reported.
        let mut names: HashMap<&str, Endpoint> =
            HashMap::with_capacity(self.node_names.len() + self.boundary_names.len());
        let mut duplicate: Option<&str> = None;
        let nodes =
            self.node_names.iter().enumerate().map(|(i, n)| (n.as_str(), Endpoint::Node(i)));
        let boundaries = self
            .boundary_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), Endpoint::Boundary(i)));
        for (name, endpoint) in nodes.chain(boundaries) {
            if names.insert(name, endpoint).is_some() && duplicate.is_none_or(|d| name < d) {
                duplicate = Some(name);
            }
        }
        if let Some(name) = duplicate {
            return Err(NetworkError::DuplicateName(name.to_owned()));
        }
        let resolve = |name: &str| -> Result<Endpoint, NetworkError> {
            names.get(name).copied().ok_or_else(|| NetworkError::UnknownName(name.to_owned()))
        };
        let mut links = Vec::with_capacity(self.links.len());
        for (a, b, g) in &self.links {
            let ea = resolve(a)?;
            let eb = resolve(b)?;
            if matches!((ea, eb), (Endpoint::Boundary(_), Endpoint::Boundary(_))) {
                return Err(NetworkError::BoundaryToBoundary(a.clone(), b.clone()));
            }
            links.push(Link { a: ea, b: eb, conductance: *g });
        }

        // Every node must reach a boundary (flood fill from boundaries).
        let n = self.node_names.len();
        let adjacency = Adjacency::new(n, &links);
        let mut reached = vec![false; n];
        let mut frontier: Vec<usize> = Vec::with_capacity(n);
        for link in &links {
            match (link.a, link.b) {
                (Endpoint::Node(i), Endpoint::Boundary(_))
                | (Endpoint::Boundary(_), Endpoint::Node(i))
                    if !reached[i] =>
                {
                    reached[i] = true;
                    frontier.push(i);
                }
                _ => {}
            }
        }
        while let Some(i) = frontier.pop() {
            for &o in adjacency.neighbours(i) {
                let o = o as usize;
                if !reached[o] {
                    reached[o] = true;
                    frontier.push(o);
                }
            }
        }
        if let Some(i) = reached.iter().position(|&r| !r) {
            return Err(NetworkError::FloatingNode(self.node_names[i].clone()));
        }

        let pattern = Pattern::new(&adjacency);
        // Every link not between two nodes joins a node to a boundary.
        let mut boundary_links = Vec::with_capacity(links.len() - adjacency.neighbours.len() / 2);
        boundary_links.extend(links.iter().enumerate().filter_map(|(l, link)| {
            match (link.a, link.b) {
                (Endpoint::Node(i), Endpoint::Boundary(k))
                | (Endpoint::Boundary(k), Endpoint::Node(i)) => Some((i, k, l)),
                _ => None,
            }
        }));
        Ok(RcNetwork {
            node_names: self.node_names,
            capacitances: self.capacitances,
            temperatures: self.initials,
            powers: vec![0.0; n],
            boundary_names: self.boundary_names,
            boundary_temps: self.boundary_temps,
            links,
            boundary_links,
            factor: LuFactor::new(),
            pattern,
            factored_dt: f64::NAN,
            matrix_dirty: true,
            params_version: 0,
            changed_links: Vec::new(),
            rhs: vec![0.0; n],
            batch_memo: (0, 0, 0, 0),
        })
    }
}

/// Node-to-node adjacency lists in flat form: node `i`'s neighbours are
/// `neighbours[starts[i]..starts[i + 1]]`, one entry per link end (so a
/// doubled link lists its neighbour twice).
struct Adjacency {
    starts: Vec<u32>,
    neighbours: Vec<u32>,
}

impl Adjacency {
    fn new(n: usize, links: &[Link]) -> Self {
        let node_pairs = || {
            links.iter().filter_map(|link| match (link.a, link.b) {
                (Endpoint::Node(i), Endpoint::Node(j)) => Some((i, j)),
                _ => None,
            })
        };
        // Count each node's link ends, turn the counts into end offsets,
        // then place every end by decrementing its node's offset, which
        // leaves each offset at its list's start.
        let mut starts = vec![0u32; n + 1];
        for (i, j) in node_pairs() {
            starts[i] += 1;
            starts[j] += 1;
        }
        let mut end = 0;
        for start in &mut starts {
            end += *start;
            *start = end;
        }
        let mut neighbours = vec![0u32; end as usize];
        for (i, j) in node_pairs() {
            starts[i] -= 1;
            neighbours[starts[i] as usize] = j as u32;
            starts[j] -= 1;
            neighbours[starts[j] as usize] = i as u32;
        }
        Self { starts, neighbours }
    }

    fn nodes(&self) -> usize {
        self.starts.len() - 1
    }

    fn neighbours(&self, i: usize) -> &[u32] {
        &self.neighbours[self.starts[i] as usize..self.starts[i + 1] as usize]
    }
}

/// An N-node RC thermal network integrated with backward Euler.
///
/// The backward-Euler system matrix `C/dt + G` depends only on `dt`, the
/// conductances and the capacitances — not on temperatures, powers or
/// boundary values — so [`RcNetwork::step`] caches its LU factorization
/// and re-factorizes only when `dt` changes or a conductance is
/// re-parameterized (the common case in the fan loop: only the
/// sink→ambient link moves with fan speed).
///
/// The matrix is sparse: a node couples only to the nodes it is linked
/// to. [`RcNetworkBuilder::build`] works out once where Gaussian
/// elimination (in node order, without row exchanges) can make an entry
/// nonzero — the *elimination pattern* — and every factorization, every
/// steady-state probe and the batched stepper then touch only those
/// entries, so a step costs time proportional to the pattern's fill
/// rather than `n²`. The first step sizes the network's factor storage
/// (and, on a thread that has not yet factorized a network this large, the
/// thread's elimination workspace); after that, steady-state stepping
/// performs **zero** heap allocations.
#[derive(Debug, Clone)]
pub struct RcNetwork {
    node_names: Vec<String>,
    capacitances: Vec<f64>,
    temperatures: Vec<f64>,
    powers: Vec<f64>,
    boundary_names: Vec<String>,
    boundary_temps: Vec<f64>,
    links: Vec<Link>,
    /// `(node, boundary, link)` for every node↔boundary link, in link
    /// order: the right-hand side's boundary terms without matching
    /// endpoints every step.
    boundary_links: Vec<(usize, usize, usize)>,
    /// Where elimination can produce nonzeros (see the type docs).
    pattern: Pattern,
    /// LU factors of `C/dt + G`.
    factor: LuFactor,
    /// The `dt` the cached factorization was assembled for (NaN = none).
    factored_dt: f64,
    /// Set by conductance mutators; forces re-factorization on next step.
    matrix_dirty: bool,
    /// Bumped by every *effective* conductance mutation. Capacitances are
    /// fixed at build and boundaries/powers are right-hand-side-only, so an
    /// unchanged version guarantees the system matrix at a given `dt` is
    /// bit-for-bit the one already seen — the batched stepper keys its
    /// per-lane signature memo on this.
    params_version: u64,
    /// Sorted indices of every link whose conductance has *effectively*
    /// changed since build. Conductances are the only matrix parameters
    /// with a mutation API, so links outside this set still hold their
    /// as-built values — the batched stepper exploits that to sign a
    /// lane's matrix by just these links instead of the full table.
    changed_links: Vec<u32>,
    /// Right-hand-side / solution scratch.
    rhs: Vec<f64>,
    /// [`crate::BatchRcNetwork`]'s per-lane factor memo, carried by the
    /// network itself so lanes may be dropped, cloned or re-ordered without
    /// aliasing another lane's factor: `(batch generation, factor index,
    /// params version at memo time, dt bits at memo time)`. Valid only
    /// while the generation matches the batch that wrote it *and* the
    /// version/dt still match.
    pub(crate) batch_memo: (u64, usize, u64, u64),
}

impl RcNetwork {
    /// Looks up a capacitive node by name.
    #[must_use]
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.node_names.iter().position(|n| n == name).map(NodeId)
    }

    /// The capacitive node names, in insertion order.
    #[must_use]
    pub fn node_names(&self) -> &[String] {
        &self.node_names
    }

    /// Current temperature of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    #[must_use]
    pub fn temperature(&self, id: NodeId) -> Celsius {
        Celsius::new(self.temperatures[id.0])
    }

    /// Sets the heat injected into a node (e.g. CPU dynamic power).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn set_power(&mut self, id: NodeId, power: Watts) {
        self.powers[id.0] = power.value();
    }

    /// Overrides a node's temperature directly (equilibration and test
    /// setup). State-only: the cached factorization is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn set_temperature(&mut self, id: NodeId, temperature: Celsius) {
        self.temperatures[id.0] = temperature.value();
    }

    /// Sets a boundary temperature by name.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownName`] for unknown boundaries.
    pub fn set_boundary(&mut self, name: &str, temperature: Celsius) -> Result<(), NetworkError> {
        match self.boundary_names.iter().position(|n| n == name) {
            Some(i) => {
                self.boundary_temps[i] = temperature.value();
                Ok(())
            }
            None => Err(NetworkError::UnknownName(name.to_owned())),
        }
    }

    /// Looks up a boundary node by name, for repeated
    /// [`RcNetwork::set_boundary_by_id`] calls without the name scan.
    #[must_use]
    pub fn boundary_id(&self, name: &str) -> Option<BoundaryId> {
        self.boundary_names.iter().position(|n| n == name).map(BoundaryId)
    }

    /// Sets a boundary temperature by pre-resolved handle.
    ///
    /// Boundary temperatures enter only the right-hand side, so this never
    /// invalidates the cached factorization.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn set_boundary_by_id(&mut self, id: BoundaryId, temperature: Celsius) {
        self.boundary_temps[id.0] = temperature.value();
    }

    /// Resolves the link between two named endpoints to a handle, for
    /// repeated re-parameterization without the O(links × names) scan —
    /// resolve once at build time, then call
    /// [`RcNetwork::set_link_resistance_by_id`] per step.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownName`] if a name is unknown or
    /// [`NetworkError::NoSuchLink`] if the endpoints are not linked.
    pub fn link_id(&self, a: &str, b: &str) -> Result<LinkId, NetworkError> {
        let ea = self.resolve(a)?;
        let eb = self.resolve(b)?;
        self.links
            .iter()
            .position(|link| (link.a == ea && link.b == eb) || (link.a == eb && link.b == ea))
            .map(LinkId)
            .ok_or_else(|| NetworkError::NoSuchLink(a.to_owned(), b.to_owned()))
    }

    /// The link's current resistance, by pre-resolved handle — the read
    /// side of [`RcNetwork::set_link_resistance_by_id`], letting tests
    /// and diagnostics audit what a fan-zone update actually applied.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    #[must_use]
    pub fn link_resistance_by_id(&self, id: LinkId) -> KelvinPerWatt {
        KelvinPerWatt::new(1.0 / self.links[id.0].conductance)
    }

    /// Re-parameterizes a link's resistance by pre-resolved handle,
    /// invalidating the cached factorization.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn set_link_resistance_by_id(&mut self, id: LinkId, resistance: KelvinPerWatt) {
        let conductance = 1.0 / resistance.value();
        // An unchanged conductance (fan speed held between controller
        // epochs) keeps the factorization warm.
        if self.links[id.0].conductance != conductance {
            self.links[id.0].conductance = conductance;
            self.matrix_dirty = true;
            self.params_version += 1;
            let idx = id.0 as u32;
            if let Err(pos) = self.changed_links.binary_search(&idx) {
                self.changed_links.insert(pos, idx);
            }
        }
    }

    /// Re-parameterizes the resistance of the link between two named
    /// endpoints (e.g. sink→ambient as fan speed changes). Convenience
    /// wrapper over [`RcNetwork::link_id`] +
    /// [`RcNetwork::set_link_resistance_by_id`]; resolve the handle once
    /// when calling in a loop.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownName`] if a name is unknown or
    /// [`NetworkError::NoSuchLink`] if the endpoints are not linked.
    pub fn set_link_resistance(
        &mut self,
        a: &str,
        b: &str,
        resistance: KelvinPerWatt,
    ) -> Result<(), NetworkError> {
        let id = self.link_id(a, b)?;
        self.set_link_resistance_by_id(id, resistance);
        Ok(())
    }

    fn resolve(&self, name: &str) -> Result<Endpoint, NetworkError> {
        if let Some(i) = self.node_names.iter().position(|n| n == name) {
            Ok(Endpoint::Node(i))
        } else if let Some(i) = self.boundary_names.iter().position(|n| n == name) {
            Ok(Endpoint::Boundary(i))
        } else {
            Err(NetworkError::UnknownName(name.to_owned()))
        }
    }

    /// Solves the backward-Euler system for one step of `dt`, updating all
    /// node temperatures.
    ///
    /// Backward Euler: `(C/dt + G) · T' = C/dt · T + P + G_b · T_b`, which is
    /// unconditionally stable — stiff node pairs (0.1 s die, 60 s sink) can
    /// be stepped at 1 s without oscillation, only with first-order damping
    /// error.
    ///
    /// The system matrix is factorized lazily and reused across steps (see
    /// the type-level docs); with an unchanged `dt` and conductances each
    /// step is one forward/backward substitution over the factor's
    /// entries in pre-allocated storage — no assembly, no elimination, no
    /// heap allocation. Results are bit-identical to
    /// [`RcNetwork::step_uncached`]: the cached path replays the dense
    /// elimination's arithmetic, in the same order, leaving out only the
    /// terms on structural zeros (entries the elimination pattern proves
    /// zero), which could show only through a signed zero or a non-finite
    /// operand.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero.
    pub fn step(&mut self, dt: Seconds) {
        assert!(!dt.is_zero(), "step size must be positive");
        if self.matrix_dirty || self.factored_dt != dt.value() {
            self.refactorize(dt.value());
        }
        let n = self.node_names.len();
        let inv_dt = 1.0 / dt.value();
        for i in 0..n {
            self.rhs[i] = self.capacitances[i] * inv_dt * self.temperatures[i] + self.powers[i];
        }
        for &(i, k, l) in &self.boundary_links {
            self.rhs[i] += self.links[l].conductance * self.boundary_temps[k];
        }
        self.factor.substitute(&mut self.rhs);
        self.temperatures.copy_from_slice(&self.rhs);
    }

    /// The reference integrator: assembles and eliminates the full system
    /// every call (the pre-caching behavior). Kept public as the oracle for
    /// the cached path — the property tests and `perf_report` compare
    /// [`RcNetwork::step`] against it.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero.
    pub fn step_uncached(&mut self, dt: Seconds) {
        assert!(!dt.is_zero(), "step size must be positive");
        let n = self.node_names.len();
        let inv_dt = 1.0 / dt.value();
        let mut a = vec![0.0; n * n];
        let mut b = vec![0.0; n];
        for i in 0..n {
            a[i * n + i] = self.capacitances[i] * inv_dt;
            b[i] = self.capacitances[i] * inv_dt * self.temperatures[i] + self.powers[i];
        }
        for link in &self.links {
            match (link.a, link.b) {
                (Endpoint::Node(i), Endpoint::Node(j)) => {
                    a[i * n + i] += link.conductance;
                    a[j * n + j] += link.conductance;
                    a[i * n + j] -= link.conductance;
                    a[j * n + i] -= link.conductance;
                }
                (Endpoint::Node(i), Endpoint::Boundary(k))
                | (Endpoint::Boundary(k), Endpoint::Node(i)) => {
                    a[i * n + i] += link.conductance;
                    b[i] += link.conductance * self.boundary_temps[k];
                }
                // Rejected at build (BoundaryToBoundary); such a link
                // couples no node, so skipping it is the faithful no-op.
                (Endpoint::Boundary(_), Endpoint::Boundary(_)) => {}
            }
        }
        solve_dense(&mut a, &mut b, n);
        self.temperatures.copy_from_slice(&b);
    }

    /// Assembles `C/dt + G` and LU-factorizes it on the pattern.
    fn refactorize(&mut self, dt: f64) {
        factorize(&self.pattern, &mut self.factor, |a| {
            assemble_matrix(&self.capacitances, &self.links, dt, a);
        });
        self.factored_dt = dt;
        self.matrix_dirty = false;
    }

    /// Solves for the steady-state temperatures under the current powers,
    /// boundaries and link conductances (the `dt → ∞` limit of
    /// [`RcNetwork::step`]).
    #[must_use]
    pub fn steady_state(&self) -> Vec<Celsius> {
        self.steady_state_with(&[], &[])
    }

    /// Snaps every node to its steady-state temperature under the current
    /// powers, boundaries and conductances — equilibration in one call.
    /// State-only: the cached factorization is untouched.
    pub fn snap_to_steady_state(&mut self) {
        let temps = self.steady_state();
        for (slot, t) in self.temperatures.iter_mut().zip(&temps) {
            *slot = t.value();
        }
    }

    /// [`RcNetwork::steady_state`] with temporary link-resistance and
    /// node-power overrides, **without mutating the network** — the current
    /// temperatures, powers, conductances and the cached factorization are
    /// all left untouched.
    ///
    /// This is the probe behind model inversions that ask "what would the
    /// equilibrium be at fan speed `v` / power `p`?" (e.g. the min-safe
    /// fan speed of a [`crate::RackPlant`] zone) while the transient
    /// simulation keeps running undisturbed. The first override of a link
    /// wins; later overrides of the same power win.
    ///
    /// # Panics
    ///
    /// Panics if an override handle does not belong to this network.
    #[must_use]
    pub fn steady_state_with(
        &self,
        link_overrides: &[(LinkId, KelvinPerWatt)],
        power_overrides: &[(NodeId, Watts)],
    ) -> Vec<Celsius> {
        let mut scratch = SteadyStateScratch::new();
        self.steady_state_with_into(link_overrides, power_overrides, &mut scratch)
            .iter()
            .map(|&t| Celsius::new(t))
            .collect()
    }

    /// [`RcNetwork::steady_state_with`] in caller-provided buffers,
    /// returning the solved temperatures (indexed by [`NodeId::index`]).
    /// Overrides resolve through the scratch's per-link conductance table,
    /// so a probe costs one pass over the overrides, not a search per link.
    /// With warm buffers the probe performs **zero** heap allocations.
    ///
    /// # Panics
    ///
    /// Panics if an override handle does not belong to this network.
    pub fn steady_state_with_into<'s>(
        &self,
        link_overrides: &[(LinkId, KelvinPerWatt)],
        power_overrides: &[(NodeId, Watts)],
        scratch: &'s mut SteadyStateScratch,
    ) -> &'s [f64] {
        scratch.load(self);
        for &(link, resistance) in link_overrides {
            scratch.override_link(link, resistance);
        }
        for &(node, power) in power_overrides {
            scratch.set_power(node, power);
        }
        self.solve_steady_state(scratch)
    }

    /// Solves the steady state at the scratch's conductance and power
    /// tables (loaded from this network by [`SteadyStateScratch::load`]),
    /// leaving the tables as they are — a sweep re-solves after rewriting
    /// only the links it moves.
    ///
    /// # Panics
    ///
    /// Panics if the tables do not match this network's link count.
    pub(crate) fn solve_steady_state<'s>(&self, scratch: &'s mut SteadyStateScratch) -> &'s [f64] {
        let n = self.node_names.len();
        let SteadyStateScratch { conductances, powers, factor, temps, .. } = scratch;
        assert_eq!(conductances.len(), self.links.len(), "probe tables from another network");
        temps.clear();
        temps.extend_from_slice(powers);
        factorize(&self.pattern, factor, |a| {
            for (link, &g) in self.links.iter().zip(conductances.iter()) {
                match (link.a, link.b) {
                    (Endpoint::Node(i), Endpoint::Node(j)) => {
                        a[i * n + i] += g;
                        a[j * n + j] += g;
                        a[i * n + j] -= g;
                        a[j * n + i] -= g;
                    }
                    (Endpoint::Node(i), Endpoint::Boundary(k))
                    | (Endpoint::Boundary(k), Endpoint::Node(i)) => {
                        a[i * n + i] += g;
                        temps[i] += g * self.boundary_temps[k];
                    }
                    // Rejected at build (BoundaryToBoundary); such a link
                    // couples no node, so skipping it is the faithful no-op.
                    (Endpoint::Boundary(_), Endpoint::Boundary(_)) => {}
                }
            }
        });
        factor.substitute(temps);
        temps
    }

    // ---- crate-internal raw views for the batched stepper ----------------
    //
    // `crate::BatchRcNetwork` replays `step`'s exact arithmetic across many
    // lanes at once; it needs the raw state vectors and the link table, but
    // nothing here widens the public mutation surface.

    /// Number of capacitive nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Node heat capacitances, J/K, indexed by [`NodeId::index`].
    pub(crate) fn capacitances_raw(&self) -> &[f64] {
        &self.capacitances
    }

    /// Node temperatures, °C, indexed by [`NodeId::index`].
    pub(crate) fn temperatures_raw(&self) -> &[f64] {
        &self.temperatures
    }

    /// Mutable node temperatures — the batched stepper's write-back path.
    /// State-only, exactly like [`RcNetwork::set_temperature`]: the cached
    /// factorization is untouched.
    pub(crate) fn temperatures_raw_mut(&mut self) -> &mut [f64] {
        &mut self.temperatures
    }

    /// Injected node powers, W, indexed by [`NodeId::index`].
    pub(crate) fn powers_raw(&self) -> &[f64] {
        &self.powers
    }

    /// Boundary temperatures, °C, in boundary insertion order.
    pub(crate) fn boundary_temps_raw(&self) -> &[f64] {
        &self.boundary_temps
    }

    /// The link table (endpoints + current conductances) in insertion order.
    pub(crate) fn links_raw(&self) -> &[Link] {
        &self.links
    }

    /// `(node, boundary, link index)` for every node↔boundary link, in
    /// link order.
    pub(crate) fn boundary_links(&self) -> &[(usize, usize, usize)] {
        &self.boundary_links
    }

    /// Matrix-parameter mutation counter (see the field docs) — the batched
    /// stepper's cheap "did anything change since I last looked?" probe.
    pub(crate) fn params_version(&self) -> u64 {
        self.params_version
    }

    /// Sorted indices of every link mutated since build (see the field
    /// docs).
    pub(crate) fn changed_links(&self) -> &[u32] {
        &self.changed_links
    }

    /// The elimination pattern (the same for every network of the same
    /// structure).
    pub(crate) fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Whether two networks share the same *structure*: node and boundary
    /// names in the same order and links joining the same endpoints in the
    /// same order. Capacitances, conductances, powers, temperatures and
    /// boundary values are free to differ — structure is what the batched
    /// stepper's SoA layout and signature grouping key on.
    pub(crate) fn structure_eq(&self, other: &RcNetwork) -> bool {
        self.node_names == other.node_names
            && self.boundary_names == other.boundary_names
            && self.links.len() == other.links.len()
            && self.links.iter().zip(&other.links).all(|(a, b)| a.a == b.a && a.b == b.b)
    }
}

/// The buffers of one non-mutating steady-state probe: a per-link
/// conductance table and a per-node power table, loaded from the live
/// network and then overridden, plus the factor and the solution. Warm
/// buffers make a probe allocation-free, and because solving leaves the
/// tables intact, a sweep that moves a few links between probes rewrites
/// only those.
#[derive(Debug, Clone, Default)]
pub struct SteadyStateScratch {
    conductances: Vec<f64>,
    /// Links an override has already set (the first override wins).
    claimed: Vec<bool>,
    powers: Vec<f64>,
    factor: LuFactor,
    temps: Vec<f64>,
}

impl SteadyStateScratch {
    /// Empty buffers; the first probe sizes them.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            conductances: Vec::new(),
            claimed: Vec::new(),
            powers: Vec::new(),
            factor: LuFactor::new(),
            temps: Vec::new(),
        }
    }

    /// Loads `net`'s live conductances and powers, no link claimed.
    pub(crate) fn load(&mut self, net: &RcNetwork) {
        self.conductances.clear();
        self.conductances.extend(net.links.iter().map(|link| link.conductance));
        self.claimed.clear();
        self.claimed.resize(net.links.len(), false);
        self.powers.clear();
        self.powers.extend_from_slice(&net.powers);
    }

    /// Claims `link` for an override: `false` if an earlier override
    /// already claimed it.
    pub(crate) fn claim(&mut self, link: LinkId) -> bool {
        !core::mem::replace(&mut self.claimed[link.0], true)
    }

    /// Sets `link`'s probe resistance, claimed or not.
    pub(crate) fn set_link(&mut self, link: LinkId, resistance: KelvinPerWatt) {
        self.conductances[link.0] = 1.0 / resistance.value();
    }

    /// Overrides `link`'s resistance unless an earlier override claimed it.
    pub(crate) fn override_link(&mut self, link: LinkId, resistance: KelvinPerWatt) {
        if self.claim(link) {
            self.set_link(link, resistance);
        }
    }

    /// Overrides `node`'s injected power.
    pub(crate) fn set_power(&mut self, node: NodeId, power: Watts) {
        self.powers[node.0] = power.value();
    }
}

/// Assembles the backward-Euler system matrix `C/dt + G` into `a`
/// (row-major `n × n` for `n = capacitances.len()`, all zero on entry, as
/// [`factorize`] hands it over). Shared by the scalar [`RcNetwork::step`]
/// cache and the batched stepper ([`crate::BatchRcNetwork`]): both must
/// produce bitwise-identical matrices from identical
/// capacitances/conductances, so there is exactly one assembly routine.
pub(crate) fn assemble_matrix(capacitances: &[f64], links: &[Link], dt: f64, a: &mut [f64]) {
    let n = capacitances.len();
    let inv_dt = 1.0 / dt;
    for (i, c) in capacitances.iter().enumerate() {
        a[i * n + i] = c * inv_dt;
    }
    for link in links {
        match (link.a, link.b) {
            (Endpoint::Node(i), Endpoint::Node(j)) => {
                a[i * n + i] += link.conductance;
                a[j * n + j] += link.conductance;
                a[i * n + j] -= link.conductance;
                a[j * n + i] -= link.conductance;
            }
            (Endpoint::Node(i), Endpoint::Boundary(_))
            | (Endpoint::Boundary(_), Endpoint::Node(i)) => {
                a[i * n + i] += link.conductance;
            }
            // Rejected at build (BoundaryToBoundary); such a link
            // couples no node, so skipping it is the faithful no-op.
            (Endpoint::Boundary(_), Endpoint::Boundary(_)) => {}
        }
    }
}

/// Where Gaussian elimination of a network's matrix, run in node order
/// without row exchanges, can leave a nonzero below the diagonal: column
/// `j`'s rows are `rows[starts[j]..starts[j + 1]]`, ascending. The matrix
/// is symmetric, so the same indices are row `j`'s entries right of the
/// diagonal. Entries outside the pattern are zero in the assembled matrix
/// and stay zero through every elimination step.
#[derive(Debug, Clone)]
pub(crate) struct Pattern {
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl Pattern {
    /// The symbolic elimination: column `j` holds `j`'s neighbours above
    /// it plus, from every column whose first entry is `j` (its children
    /// in the elimination tree), that column's other rows. Each column is
    /// merged into exactly one later column, so this runs in time
    /// proportional to the fill.
    fn new(adjacency: &Adjacency) -> Self {
        const NONE: u32 = u32::MAX;
        let n = adjacency.nodes();
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0u32);
        // Each link fills one entry unless elimination adds fill-in.
        let mut rows: Vec<u32> = Vec::with_capacity(adjacency.neighbours.len() / 2);
        let mut marks = vec![NONE; 3 * n];
        // `seen[k] == j` once row `k` is in column `j`; the children of
        // each column in the elimination tree, as linked lists.
        let (seen, children) = marks.split_at_mut(n);
        let (first_child, next_sibling) = children.split_at_mut(n);
        for j in 0..n {
            let col = j as u32;
            let start = rows.len();
            for &k in adjacency.neighbours(j) {
                if k > col && seen[k as usize] != col {
                    seen[k as usize] = col;
                    rows.push(k);
                }
            }
            let mut child = first_child[j];
            while child != NONE {
                let c = child as usize;
                for at in starts[c] as usize..starts[c + 1] as usize {
                    let k = rows[at];
                    if k > col && seen[k as usize] != col {
                        seen[k as usize] = col;
                        rows.push(k);
                    }
                }
                child = next_sibling[c];
            }
            rows[start..].sort_unstable();
            starts.push(rows.len() as u32);
            if let Some(&parent) = rows.get(start) {
                next_sibling[j] = first_child[parent as usize];
                first_child[parent as usize] = col;
            }
        }
        rows.shrink_to_fit();
        Self { starts, rows }
    }

    /// Column `j`'s rows below the diagonal (row `j`'s columns right of it).
    fn column(&self, j: usize) -> &[u32] {
        &self.rows[self.starts[j] as usize..self.starts[j + 1] as usize]
    }

    /// Number of nodes.
    fn order(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of below-diagonal entries.
    fn fill(&self) -> usize {
        self.rows.len()
    }
}

/// An LU factorization with partial pivoting, in compact form: the row
/// exchanges, the pivots and the entries elimination can have made
/// nonzero — the pattern's, or every entry once a row exchange sent the
/// elimination dense. Substitution walks exactly these, so it serves a
/// factor whichever elimination produced it.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuFactor {
    /// `(col, row)` for each column whose pivot search exchanged rows, in
    /// column order — usually none.
    swaps: Vec<(u32, u32)>,
    /// U's diagonal.
    diag: Vec<f64>,
    /// Offsets into `index`/`value`: L's column `c` (row, multiplier) is
    /// `starts[c]..starts[c + 1]`, U's row `r` (column, entry) right of
    /// the diagonal is `starts[n + r]..starts[n + r + 1]`.
    starts: Vec<u32>,
    index: Vec<u32>,
    value: Vec<f64>,
}

impl LuFactor {
    /// Empty storage; the first factorization sizes it.
    pub(crate) const fn new() -> Self {
        Self {
            swaps: Vec::new(),
            diag: Vec::new(),
            starts: Vec::new(),
            index: Vec::new(),
            value: Vec::new(),
        }
    }

    /// Empties the factor, keeping room for every factor of order `n` whose
    /// elimination stays on a pattern with `fill` entries below the
    /// diagonal, so refactorizing on one pattern reuses its storage.
    fn reset(&mut self, n: usize, fill: usize) {
        self.swaps.clear();
        self.diag.clear();
        self.diag.reserve_exact(n);
        self.starts.clear();
        self.starts.reserve_exact(2 * n + 1);
        self.starts.push(0);
        self.index.clear();
        self.index.reserve_exact(2 * fill);
        self.value.clear();
        self.value.reserve_exact(2 * fill);
    }

    /// Appends the next L column or U row: its entries at `index`, with
    /// values read by `value`.
    fn push_span<I>(&mut self, index: I, value: impl Fn(usize) -> f64)
    where
        I: Iterator<Item = usize> + Clone,
    {
        self.index.extend(index.clone().map(|i| i as u32));
        self.value.extend(index.map(value));
        self.starts.push(self.index.len() as u32);
    }

    /// Number of unknowns.
    pub(crate) fn order(&self) -> usize {
        self.diag.len()
    }

    /// The row exchanges, `(col, row)` in column order.
    pub(crate) fn swaps(&self) -> &[(u32, u32)] {
        &self.swaps
    }

    /// U's diagonal entry of row `r`.
    pub(crate) fn pivot(&self, r: usize) -> f64 {
        self.diag[r]
    }

    /// L's column `c`: the rows below the diagonal and their multipliers.
    pub(crate) fn lower(&self, c: usize) -> (&[u32], &[f64]) {
        self.span(c)
    }

    /// U's row `r`: the columns right of the diagonal and their entries.
    pub(crate) fn upper(&self, r: usize) -> (&[u32], &[f64]) {
        self.span(self.order() + r)
    }

    fn span(&self, at: usize) -> (&[u32], &[f64]) {
        let range = self.starts[at] as usize..self.starts[at + 1] as usize;
        (&self.index[range.clone()], &self.value[range])
    }

    /// Solves `L·U·x = P·b` in place. Forward substitution runs column by
    /// column, skipping zero multipliers, and back-substitution `k`
    /// ascending in each row: the dense solve's operations in its order,
    /// minus those on the structural zeros outside the factor's entries.
    ///
    /// Forward substitution skips zero multipliers anyway, so leaving out
    /// structural zeros is exact there. Back-substitution of a dense solve
    /// applies every term, and leaving out a term whose coefficient is a
    /// structural `+0.0` changes the sum only through a signed zero
    /// (`-0.0 - 0.0·x`) or a non-finite `x` (`0.0·∞`).
    pub(crate) fn substitute(&self, b: &mut [f64]) {
        for &(col, row) in &self.swaps {
            b.swap(col as usize, row as usize);
        }
        for col in 0..self.order() {
            let bc = b[col];
            let (rows, multipliers) = self.lower(col);
            for (&row, &m) in rows.iter().zip(multipliers) {
                if m != 0.0 {
                    b[row as usize] -= m * bc;
                }
            }
        }
        for row in (0..self.order()).rev() {
            let (cols, entries) = self.upper(row);
            let mut sum = b[row];
            for (&k, &u) in cols.iter().zip(entries) {
                sum -= u * b[k as usize];
            }
            b[row] = sum / self.diag[row];
        }
    }
}

/// The dense row-major matrix a thread's eliminations run in, sized by
/// the largest network the thread has factorized. Between factorizations
/// every entry is zero, so assembly only adds into the entries the links
/// touch and cleaning up only re-zeroes the pattern — neither pays for the
/// `n²` zeros in between.
struct Workspace {
    a: Vec<f64>,
    /// Set while a factorization is under way, so a matrix abandoned by a
    /// panic is wiped rather than reused.
    dirty: bool,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> =
        const { RefCell::new(Workspace { a: Vec::new(), dirty: false }) };
}

/// LU-factorizes, on `pattern`, the matrix `assemble` adds into a zero
/// row-major `n × n` buffer, writing the factor to `out` — the one
/// elimination behind the step cache, the steady-state probe and the
/// batch engine's factor arena. Allocation-free once the thread's
/// workspace and `out` have seen a network this size.
///
/// Elimination walks `pattern` and performs the dense partial-pivoting
/// elimination's operations in its order, minus those on structural
/// zeros — the entries outside the pattern. The dense loop skips a zero
/// multiplier, so the rows outside a column's pattern cost nothing there
/// either; what it does apply are updates `x -= m·0.0` whose pivot-row
/// entry is a structural `+0.0`, and leaving those out changes a result
/// only through a signed zero (`-0.0` becoming `+0.0`) or a non-finite
/// multiplier (`∞·0.0`). The pivot search keeps the dense strict `>`
/// over the column's pattern rows (the rows outside it hold zeros, which
/// never win). Should it pick another row, the rest of the elimination
/// runs densely from that column, exactly as the dense solve does, and
/// the factor keeps every entry.
///
/// # Panics
///
/// Panics if a pivot is (numerically) zero — the assembled thermal
/// matrices are diagonally dominant, so that signals a broken network.
pub(crate) fn factorize(pattern: &Pattern, out: &mut LuFactor, assemble: impl FnOnce(&mut [f64])) {
    let n = pattern.order();
    out.reset(n, pattern.fill());
    WORKSPACE.with(|work| {
        let work = &mut *work.borrow_mut();
        if work.dirty {
            work.a.fill(0.0);
        }
        if work.a.len() < n * n {
            work.a.resize(n * n, 0.0);
        }
        work.dirty = true;
        let a = &mut work.a[..n * n];
        assemble(a);
        if eliminate(a, n, pattern, out) {
            a.fill(0.0);
        } else {
            for j in 0..n {
                a[j * n + j] = 0.0;
                for &k in pattern.column(j) {
                    a[k as usize * n + j] = 0.0;
                    a[j * n + k as usize] = 0.0;
                }
            }
        }
        work.dirty = false;
    });
}

/// [`factorize`]'s elimination of the assembled `a` into `out`; returns
/// whether it exchanged rows (and so left entries outside the pattern
/// nonzero).
fn eliminate(a: &mut [f64], n: usize, pattern: &Pattern, out: &mut LuFactor) -> bool {
    for col in 0..n {
        let rows = pattern.column(col);
        let mut pivot = col;
        for &row in rows {
            let row = row as usize;
            if a[row * n + col].abs() > a[pivot * n + col].abs() {
                pivot = row;
            }
        }
        if pivot != col {
            eliminate_dense(a, n, col, out);
            return true;
        }
        let diag = a[col * n + col];
        assert!(diag.abs() > 1e-30, "singular thermal matrix");
        for &row in rows {
            let row = row as usize;
            let factor = a[row * n + col] / diag;
            a[row * n + col] = factor;
            if factor == 0.0 {
                continue;
            }
            for &k in rows {
                let k = k as usize;
                a[row * n + k] -= factor * a[col * n + k];
            }
        }
    }
    // Without an exchange, L's columns and U's rows are the pattern's.
    let fill = pattern.fill() as u32;
    out.starts.extend_from_slice(&pattern.starts[1..]);
    out.starts.extend(pattern.starts[1..].iter().map(|&s| fill + s));
    out.index.extend_from_slice(&pattern.rows);
    out.index.extend_from_slice(&pattern.rows);
    for col in 0..n {
        for &row in pattern.column(col) {
            out.value.push(a[row as usize * n + col]);
        }
    }
    for row in 0..n {
        for &k in pattern.column(row) {
            out.value.push(a[row * n + k as usize]);
        }
    }
    out.diag.extend((0..n).map(|j| a[j * n + j]));
    false
}

/// The dense partial-pivoting elimination of row-major `a` from column
/// `from` on (columns before it already eliminated without a row
/// exchange), gathered into `out`: each row exchange swaps whole rows,
/// multipliers included, as the dense solve's does.
fn eliminate_dense(a: &mut [f64], n: usize, from: usize, out: &mut LuFactor) {
    for col in from..n {
        let mut pivot = col;
        for row in (col + 1)..n {
            if a[row * n + col].abs() > a[pivot * n + col].abs() {
                pivot = row;
            }
        }
        if pivot != col {
            out.swaps.push((col as u32, pivot as u32));
            for k in 0..n {
                a.swap(col * n + k, pivot * n + k);
            }
        }
        let diag = a[col * n + col];
        assert!(diag.abs() > 1e-30, "singular thermal matrix");
        for row in (col + 1)..n {
            let factor = a[row * n + col] / diag;
            a[row * n + col] = factor;
            if factor == 0.0 {
                continue;
            }
            for k in (col + 1)..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
        }
    }
    for col in 0..n {
        out.push_span(col + 1..n, |row| a[row * n + col]);
    }
    for row in 0..n {
        out.push_span(row + 1..n, |k| a[row * n + k]);
    }
    out.diag.extend((0..n).map(|j| a[j * n + j]));
}

/// Solves `A·x = b` (row-major `a`, length `n²`) by Gaussian elimination
/// with partial pivoting, overwriting `b` with `x` — allocation-free. The
/// assembled thermal matrices are strictly diagonally dominant, hence
/// non-singular.
fn solve_dense(a: &mut [f64], b: &mut [f64], n: usize) {
    for col in 0..n {
        // Partial pivot.
        let mut pivot = col;
        for row in (col + 1)..n {
            if a[row * n + col].abs() > a[pivot * n + col].abs() {
                pivot = row;
            }
        }
        if pivot != col {
            for k in 0..n {
                a.swap(col * n + k, pivot * n + k);
            }
            b.swap(col, pivot);
        }
        let diag = a[col * n + col];
        assert!(diag.abs() > 1e-30, "singular thermal matrix");
        for row in (col + 1)..n {
            let factor = a[row * n + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back-substitution in place: `b[k]` for `k > row` already holds the
    // solved `x[k]`, so overwriting `b` reproduces the out-of-place
    // arithmetic bit for bit.
    for row in (0..n).rev() {
        let mut sum = b[row];
        for k in (row + 1)..n {
            sum -= a[row * n + k] * b[k];
        }
        b[row] = sum / a[row * n + row];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_two_node() -> RcNetwork {
        RcNetworkBuilder::new()
            .node("die", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
            .node("sink", JoulesPerKelvin::new(300.0), Celsius::new(30.0))
            .boundary("ambient", Celsius::new(30.0))
            .link("die", "sink", KelvinPerWatt::new(0.1))
            .link("sink", "ambient", KelvinPerWatt::new(0.25))
            .build()
            .unwrap()
    }

    #[test]
    fn steady_state_matches_hand_calculation() {
        let mut net = simple_two_node();
        let die = net.node_id("die").unwrap();
        net.set_power(die, Watts::new(100.0));
        let ss = net.steady_state();
        // T_sink = 30 + 0.25*100 = 55; T_die = 55 + 0.1*100 = 65.
        assert!((ss[0].value() - 65.0).abs() < 1e-9, "die {}", ss[0]);
        assert!((ss[1].value() - 55.0).abs() < 1e-9, "sink {}", ss[1]);
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let mut net = simple_two_node();
        let die = net.node_id("die").unwrap();
        net.set_power(die, Watts::new(100.0));
        let ss = net.steady_state();
        for _ in 0..100_000 {
            net.step(Seconds::new(0.5));
        }
        let sink = net.node_id("sink").unwrap();
        assert!((net.temperature(die) - ss[0]).abs() < 1e-6);
        assert!((net.temperature(sink) - ss[1]).abs() < 1e-6);
    }

    #[test]
    fn single_node_matches_exponential_solution_to_first_order() {
        // One node, R = 0.2, C = 300 -> tau = 60 s.
        let mut net = RcNetworkBuilder::new()
            .node("sink", JoulesPerKelvin::new(300.0), Celsius::new(30.0))
            .boundary("ambient", Celsius::new(30.0))
            .link("sink", "ambient", KelvinPerWatt::new(0.2))
            .build()
            .unwrap();
        let sink = net.node_id("sink").unwrap();
        net.set_power(sink, Watts::new(150.0));
        // Integrate 60 s at 0.1 s steps; backward Euler first-order error.
        for _ in 0..600 {
            net.step(Seconds::new(0.1));
        }
        let ss = 30.0 + 0.2 * 150.0;
        let expected = ss + (30.0 - ss) * (-1.0f64).exp();
        assert!(
            (net.temperature(sink).value() - expected).abs() < 0.05,
            "got {}, expected {expected}",
            net.temperature(sink)
        );
    }

    #[test]
    fn stiff_step_is_stable_at_coarse_dt() {
        // Die tau = 0.1 s stepped at 1 s: backward Euler must not oscillate.
        let mut net = simple_two_node();
        let die = net.node_id("die").unwrap();
        net.set_power(die, Watts::new(160.0));
        let mut prev = net.temperature(die).value();
        for _ in 0..200 {
            net.step(Seconds::new(1.0));
            let t = net.temperature(die).value();
            assert!(t >= prev - 1e-9, "non-monotonic heating: {t} after {prev}");
            prev = t;
        }
    }

    #[test]
    fn zero_power_relaxes_to_boundary() {
        let mut net = simple_two_node();
        let die = net.node_id("die").unwrap();
        let sink = net.node_id("sink").unwrap();
        // Heat it up first, then cut power and let it relax.
        net.set_power(die, Watts::new(150.0));
        for _ in 0..1000 {
            net.step(Seconds::new(1.0));
        }
        assert!(net.temperature(die) > Celsius::new(35.0));
        net.set_power(die, Watts::new(0.0));
        for _ in 0..100_000 {
            net.step(Seconds::new(1.0));
        }
        assert!((net.temperature(die).value() - 30.0).abs() < 1e-6);
        assert!((net.temperature(sink).value() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn set_boundary_and_link_resistance_take_effect() {
        let mut net = simple_two_node();
        let die = net.node_id("die").unwrap();
        net.set_power(die, Watts::new(100.0));
        net.set_boundary("ambient", Celsius::new(40.0)).unwrap();
        net.set_link_resistance("sink", "ambient", KelvinPerWatt::new(0.15)).unwrap();
        let ss = net.steady_state();
        assert!((ss[1].value() - (40.0 + 0.15 * 100.0)).abs() < 1e-9);
    }

    #[test]
    fn builder_rejects_duplicate_names() {
        let err = RcNetworkBuilder::new()
            .node("x", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
            .node("x", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
            .boundary("amb", Celsius::new(30.0))
            .link("x", "amb", KelvinPerWatt::new(1.0))
            .build()
            .unwrap_err();
        assert_eq!(err, NetworkError::DuplicateName("x".into()));
    }

    #[test]
    fn builder_reports_the_first_duplicate_in_name_order() {
        // `zeta` repeats across node and boundary, `alpha` between nodes:
        // the lexicographically first duplicate is the one reported.
        let err = RcNetworkBuilder::new()
            .node("zeta", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
            .node("alpha", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
            .node("alpha", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
            .boundary("zeta", Celsius::new(30.0))
            .link("zeta", "alpha", KelvinPerWatt::new(1.0))
            .build()
            .unwrap_err();
        assert_eq!(err, NetworkError::DuplicateName("alpha".into()));
    }

    #[test]
    fn builder_rejects_unknown_link_endpoint() {
        let err = RcNetworkBuilder::new()
            .node("x", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
            .boundary("amb", Celsius::new(30.0))
            .link("x", "nope", KelvinPerWatt::new(1.0))
            .build()
            .unwrap_err();
        assert_eq!(err, NetworkError::UnknownName("nope".into()));
    }

    #[test]
    fn builder_rejects_floating_node() {
        let err = RcNetworkBuilder::new()
            .node("x", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
            .node("orphan", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
            .boundary("amb", Celsius::new(30.0))
            .link("x", "amb", KelvinPerWatt::new(1.0))
            .build()
            .unwrap_err();
        assert_eq!(err, NetworkError::FloatingNode("orphan".into()));
    }

    #[test]
    fn builder_rejects_boundary_to_boundary_link() {
        let err = RcNetworkBuilder::new()
            .node("x", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
            .boundary("a", Celsius::new(30.0))
            .boundary("b", Celsius::new(30.0))
            .link("x", "a", KelvinPerWatt::new(1.0))
            .link("a", "b", KelvinPerWatt::new(1.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, NetworkError::BoundaryToBoundary(_, _)));
    }

    #[test]
    fn builder_rejects_empty_network() {
        assert_eq!(RcNetworkBuilder::new().build().unwrap_err(), NetworkError::Empty);
    }

    #[test]
    fn mutators_report_unknown_names() {
        let mut net = simple_two_node();
        assert!(net.set_boundary("nope", Celsius::new(1.0)).is_err());
        assert!(net.set_link_resistance("die", "ambient", KelvinPerWatt::new(1.0)).is_err()); // no direct die-ambient link
        assert!(net.node_id("nope").is_none());
        assert_eq!(net.node_names(), &["die".to_owned(), "sink".to_owned()]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = NetworkError::FloatingNode("sink2".into());
        assert!(e.to_string().contains("sink2"));
    }

    fn cal() -> crate::PlantCalibration {
        crate::PlantCalibration {
            ambient: Celsius::new(30.0),
            law: crate::HeatSinkLaw::date14(),
            sink_tau: Seconds::new(60.0),
            tau_speed: gfsc_units::Rpm::new(8500.0),
            r_jc: KelvinPerWatt::new(0.10),
            die_tau: Seconds::new(0.1),
        }
    }

    #[test]
    fn cached_step_matches_uncached_reference_bitwise() {
        use crate::{RackPlant, RackTopology, Topology};
        use gfsc_units::Rpm;
        // The plants' networks: fan moves re-parameterize every zone's
        // airflow links, so the cache refactorizes whenever a fan moves.
        for topology in [
            RackTopology::rack_1u_x8(),
            RackTopology::shared_plenum(4),
            RackTopology::single_server(Topology::finned(2, 8)),
        ] {
            let mut cached = RackPlant::new(&cal(), &topology).unwrap();
            let mut naive = RackPlant::new(&cal(), &topology).unwrap();
            let powers: Vec<Watts> =
                (0..cached.socket_count()).map(|i| Watts::new(60.0 + 13.0 * i as f64)).collect();
            for k in 0..500 {
                let fans: Vec<Rpm> = (0..cached.zone_count())
                    .map(|z| Rpm::new(1500.0 + 700.0 * f64::from((k / 50 + z as u32) % 9)))
                    .collect();
                let dt = Seconds::new(if (k / 200) % 2 == 0 { 0.5 } else { 2.0 });
                cached.prepare_step(&powers, &fans);
                naive.prepare_step(&powers, &fans);
                cached.network_mut().step(dt);
                naive.network_mut().step_uncached(dt);
                let bits = |net: &RcNetwork| {
                    net.temperatures.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(
                    bits(cached.network()),
                    bits(naive.network()),
                    "{} diverged at step {k}",
                    topology.label()
                );
            }
        }

        let mut cached = simple_two_node();
        let mut naive = simple_two_node();
        let die = cached.node_id("die").unwrap();
        let sink = cached.node_id("sink").unwrap();
        cached.set_power(die, Watts::new(120.0));
        naive.set_power(die, Watts::new(120.0));
        let link = cached.link_id("sink", "ambient").unwrap();
        for k in 0..500 {
            // Exercise every invalidation path mid-run: conductance moves
            // (fan-speed style) every 50 steps, dt switches every 200.
            if k % 50 == 0 {
                let r = KelvinPerWatt::new(0.25 + 0.1 * f64::from(k / 50));
                cached.set_link_resistance_by_id(link, r);
                naive.set_link_resistance("sink", "ambient", r).unwrap();
            }
            let dt = if (k / 200) % 2 == 0 { 0.5 } else { 2.0 };
            cached.step(Seconds::new(dt));
            naive.step_uncached(Seconds::new(dt));
            for id in [die, sink] {
                assert_eq!(
                    cached.temperature(id).value().to_bits(),
                    naive.temperature(id).value().to_bits(),
                    "diverged at step {k}"
                );
            }
        }
    }

    #[test]
    fn boundary_changes_take_effect_without_refactorization() {
        let mut net = simple_two_node();
        let die = net.node_id("die").unwrap();
        net.set_power(die, Watts::new(100.0));
        net.step(Seconds::new(1.0));
        let ambient = net.boundary_id("ambient").unwrap();
        net.set_boundary_by_id(ambient, Celsius::new(50.0));
        // Matrix untouched (boundary is rhs-only), yet the step sees it.
        assert!(!net.matrix_dirty);
        let before = net.temperature(die);
        for _ in 0..10_000 {
            net.step(Seconds::new(1.0));
        }
        assert!(net.temperature(die) > before + 10.0);
    }

    #[test]
    fn unchanged_resistance_keeps_factorization_warm() {
        let mut net = simple_two_node();
        net.step(Seconds::new(1.0));
        let link = net.link_id("sink", "ambient").unwrap();
        net.set_link_resistance_by_id(link, KelvinPerWatt::new(0.25)); // same value
        assert!(!net.matrix_dirty, "identical conductance must not dirty the cache");
        net.set_link_resistance_by_id(link, KelvinPerWatt::new(0.3));
        assert!(net.matrix_dirty);
    }

    /// The pre-table probe: each link's conductance from a linear search
    /// for its first override — the reference the indexed tables must
    /// reproduce bit for bit.
    fn first_match_steady_state(
        net: &RcNetwork,
        link_overrides: &[(LinkId, KelvinPerWatt)],
        power_overrides: &[(NodeId, Watts)],
    ) -> Vec<f64> {
        let n = net.node_names.len();
        let mut a = vec![0.0; n * n];
        let mut b = net.powers.clone();
        for (id, p) in power_overrides {
            b[id.0] = p.value();
        }
        for (idx, link) in net.links.iter().enumerate() {
            let g = link_overrides
                .iter()
                .find(|(id, _)| id.0 == idx)
                .map_or(link.conductance, |(_, r)| 1.0 / r.value());
            match (link.a, link.b) {
                (Endpoint::Node(i), Endpoint::Node(j)) => {
                    a[i * n + i] += g;
                    a[j * n + j] += g;
                    a[i * n + j] -= g;
                    a[j * n + i] -= g;
                }
                (Endpoint::Node(i), Endpoint::Boundary(k))
                | (Endpoint::Boundary(k), Endpoint::Node(i)) => {
                    a[i * n + i] += g;
                    b[i] += g * net.boundary_temps[k];
                }
                (Endpoint::Boundary(_), Endpoint::Boundary(_)) => {}
            }
        }
        solve_dense(&mut a, &mut b, n);
        b
    }

    #[test]
    fn probe_tables_resolve_overrides_like_a_first_match_search() {
        let mut net = RcNetworkBuilder::new()
            .node("die", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
            .node("sink", JoulesPerKelvin::new(300.0), Celsius::new(30.0))
            .node("air", JoulesPerKelvin::new(50.0), Celsius::new(30.0))
            .boundary("ambient", Celsius::new(25.0))
            .link("die", "sink", KelvinPerWatt::new(0.1))
            .link("sink", "ambient", KelvinPerWatt::new(0.25))
            .link("sink", "air", KelvinPerWatt::new(0.4))
            .link("air", "ambient", KelvinPerWatt::new(0.6))
            .build()
            .unwrap();
        let die = net.node_id("die").unwrap();
        let air = net.node_id("air").unwrap();
        net.set_power(die, Watts::new(90.0));
        let exhaust = net.link_id("sink", "ambient").unwrap();
        let vent = net.link_id("air", "ambient").unwrap();
        let mut scratch = SteadyStateScratch::new();
        let mut check = |links: &[(LinkId, KelvinPerWatt)], powers: &[(NodeId, Watts)]| {
            let reference = first_match_steady_state(&net, links, powers);
            let probed = net.steady_state_with_into(links, powers, &mut scratch);
            let bits = |t: &[f64]| t.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(probed), bits(&reference), "overrides {links:?} / {powers:?}");
        };
        check(&[], &[]);
        check(&[(exhaust, KelvinPerWatt::new(0.9))], &[(air, Watts::new(5.0))]);
        // Repeated overrides: the first of a link wins, the last of a power.
        check(
            &[
                (vent, KelvinPerWatt::new(0.3)),
                (exhaust, KelvinPerWatt::new(0.7)),
                (vent, KelvinPerWatt::new(2.0)),
            ],
            &[(die, Watts::new(10.0)), (die, Watts::new(140.0))],
        );
        // No overrides again on the same, warm scratch: nothing of the
        // previous probe's claims may leak.
        check(&[], &[]);
    }

    /// A random chain `n0 – n1 – … – ambient` with cross links and a
    /// second boundary: the steady-state matrices of such chains make
    /// partial pivoting exchange rows.
    fn random_chain(rng: &mut proptest::test_runner::TestRng) -> RcNetwork {
        let n = 2 + (rng.next_u64() % 7) as usize;
        let ohms = |rng: &mut proptest::test_runner::TestRng| {
            KelvinPerWatt::new(0.05 * 40f64.powf(rng.unit_f64()))
        };
        let mut builder = RcNetworkBuilder::new()
            .boundary("ambient", Celsius::new(20.0 + 20.0 * rng.unit_f64()))
            .boundary("inlet", Celsius::new(20.0 + 20.0 * rng.unit_f64()));
        for i in 0..n {
            builder = builder.node(format!("n{i}"), JoulesPerKelvin::new(1.0), Celsius::new(30.0));
        }
        for i in 0..n {
            let to = if i + 1 == n { "ambient".to_owned() } else { format!("n{}", i + 1) };
            builder = builder.link(format!("n{i}"), to, ohms(rng));
        }
        for _ in 0..rng.next_u64() % 4 {
            let a = (rng.next_u64() % n as u64) as usize;
            let b = (rng.next_u64() % n as u64) as usize;
            if a != b {
                builder = builder.link(format!("n{a}"), format!("n{b}"), ohms(rng));
            }
        }
        if rng.next_u64().is_multiple_of(2) {
            let a = rng.next_u64() % n as u64;
            builder = builder.link(format!("n{a}"), "inlet", ohms(rng));
        }
        let mut net = builder.build().unwrap();
        for i in 0..n {
            net.set_power(NodeId(i), Watts::new(200.0 * rng.unit_f64()));
        }
        net
    }

    /// The network of a stock rack or one-slot board, with random live
    /// powers.
    fn random_plant_network(pick: u64, rng: &mut proptest::test_runner::TestRng) -> RcNetwork {
        use crate::{RackPlant, RackTopology, Topology};
        let size = 2 + (rng.next_u64() % 5) as usize;
        let topology = match pick % 10 {
            0 => RackTopology::rack_1u_x8(),
            1 => RackTopology::rack_2u_x4(),
            2 => RackTopology::shared_plenum(size),
            3 => RackTopology::front_rear(size),
            4 => RackTopology::choked_rear_x4(),
            5 => RackTopology::shared_plenum(1),
            6 => RackTopology::single_server(Topology::dual_socket()),
            7 => RackTopology::single_server(Topology::quad_socket()),
            8 => RackTopology::single_server(Topology::blade_chassis()),
            _ => RackTopology::single_server(Topology::finned(2, 8)),
        };
        let mut net = RackPlant::new(&cal(), &topology).unwrap().network().clone();
        for i in 0..net.node_count() {
            if rng.next_u64().is_multiple_of(3) {
                net.set_power(NodeId(i), Watts::new(200.0 * rng.unit_f64()));
            }
        }
        net
    }

    /// `steady_state_with_into` answers exactly what a dense Gaussian
    /// elimination of the assembled system answers, bit for bit: on a
    /// fixed chain whose pivoting exchanges rows, on random chains with
    /// cross links, on every rack preset and on the one-slot dual, quad,
    /// blade and finned(2,8) boards, under random link and power
    /// overrides, with one warm scratch shared by every network size.
    #[test]
    fn steady_state_probe_matches_a_dense_solve_bitwise() {
        let mut scratch = SteadyStateScratch::new();
        let mut check = |net: &RcNetwork,
                         link_overrides: &[(LinkId, KelvinPerWatt)],
                         power_overrides: &[(NodeId, Watts)],
                         case: &str| {
            let reference = first_match_steady_state(net, link_overrides, power_overrides);
            let probed = net.steady_state_with_into(link_overrides, power_overrides, &mut scratch);
            let bits = |t: &[f64]| t.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(probed),
                bits(&reference),
                "{case}: {} nodes, overrides {link_overrides:?} / {power_overrides:?}",
                net.node_count()
            );
            !scratch.factor.swaps.is_empty()
        };

        // Eliminating n0 leaves n1's pivot, (10 + 5/3) - 10, rounded three
        // ulps below the 5/3 under it, so the pivot search exchanges rows.
        let mut chain = RcNetworkBuilder::new()
            .node("n0", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
            .node("n1", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
            .node("n2", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
            .boundary("ambient", Celsius::new(25.0))
            .link("n0", "n1", KelvinPerWatt::new(0.1))
            .link("n1", "n2", KelvinPerWatt::new(0.6))
            .link("n2", "ambient", KelvinPerWatt::new(0.25))
            .build()
            .unwrap();
        chain.set_power(NodeId(0), Watts::new(80.0));
        assert!(check(&chain, &[], &[], "fixed chain"), "the fixed chain did not exchange rows");

        let mut rng = proptest::test_runner::TestRng::from_name(
            "steady_state_probe_matches_a_dense_solve_bitwise",
        );
        for case in 0..proptest::test_runner::case_count() {
            let net = if case % 2 == 0 {
                random_chain(&mut rng)
            } else {
                random_plant_network(u64::from(case / 2), &mut rng)
            };
            let links = net.links.len() as u64;
            let nodes = net.node_count() as u64;
            let link_overrides: Vec<(LinkId, KelvinPerWatt)> = (0..rng.next_u64() % 6)
                .map(|_| {
                    let link = LinkId((rng.next_u64() % links) as usize);
                    (link, KelvinPerWatt::new(0.01 * 1000f64.powf(rng.unit_f64())))
                })
                .collect();
            let power_overrides: Vec<(NodeId, Watts)> = (0..rng.next_u64() % 4)
                .map(|_| {
                    let node = NodeId((rng.next_u64() % nodes) as usize);
                    (node, Watts::new(250.0 * rng.unit_f64()))
                })
                .collect();
            check(&net, &link_overrides, &power_overrides, &format!("case {case}"));
        }
    }

    /// Capacitances far below one ulp of the conductances make a transient
    /// matrix exactly its steady state, so chains exchange rows in the
    /// step too: the cached step and the batch engine must still replay
    /// the dense uncached step bit for bit.
    #[test]
    fn row_exchanging_steps_match_the_dense_step_bitwise() {
        let mut rng = proptest::test_runner::TestRng::from_name(
            "row_exchanging_steps_match_the_dense_step_bitwise",
        );
        let dt = Seconds::new(1e20);
        let mut exchanged = 0;
        for case in 0..64 {
            let mut cached = random_chain(&mut rng);
            let mut naive = cached.clone();
            let mut lanes = [cached.clone(), cached.clone()];
            let mut batch = crate::BatchRcNetwork::new(&[&lanes[0], &lanes[1]]).unwrap();
            for _ in 0..3 {
                cached.step(dt);
                naive.step_uncached(dt);
                let [first, second] = &mut lanes;
                batch.step(&mut [first, second], dt);
                let bits = |net: &RcNetwork| {
                    net.temperatures.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(bits(&cached), bits(&naive), "case {case}: cached vs dense");
                for lane in &lanes {
                    assert_eq!(bits(lane), bits(&cached), "case {case}: batch vs cached");
                }
            }
            exchanged += usize::from(!cached.factor.swaps.is_empty());
        }
        assert!(exchanged > 0, "no chain made the step exchange rows");
    }

    #[test]
    fn link_id_reports_unknown_and_missing_links() {
        let net = simple_two_node();
        assert!(matches!(net.link_id("die", "nope"), Err(NetworkError::UnknownName(_))));
        assert!(matches!(net.link_id("die", "ambient"), Err(NetworkError::NoSuchLink(_, _))));
        assert!(net.boundary_id("nope").is_none());
        // Handles are order-insensitive.
        assert_eq!(
            net.link_id("sink", "ambient").unwrap(),
            net.link_id("ambient", "sink").unwrap()
        );
    }
}
