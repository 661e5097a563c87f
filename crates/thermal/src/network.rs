//! A general N-node RC thermal network.
//!
//! [`HeatSinkNode`](crate::HeatSinkNode)/[`DieNode`](crate::DieNode) hard-code
//! the paper's two-node topology. This module provides the general compact
//! thermal model in the HotSpot spirit (Huang et al., TVLSI'06): named
//! capacitive nodes, fixed-temperature boundary nodes (ambient), and
//! resistive links. Integration is unconditionally-stable backward Euler,
//! so stiff networks (0.1 s die next to a 60 s sink) can be stepped at the
//! controller rate without blowing up.

use core::fmt;
use gfsc_units::{Celsius, JoulesPerKelvin, KelvinPerWatt, Seconds, Watts};

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
        // Name uniqueness across nodes *and* boundaries.
        let mut all: Vec<&str> = self
            .node_names
            .iter()
            .map(String::as_str)
            .chain(self.boundary_names.iter().map(String::as_str))
            .collect();
        all.sort_unstable();
        for pair in all.windows(2) {
            let [first, second] = pair else { continue };
            if first == second {
                return Err(NetworkError::DuplicateName((*first).to_owned()));
            }
        }

        let resolve = |name: &str| -> Result<Endpoint, NetworkError> {
            if let Some(i) = self.node_names.iter().position(|n| n == name) {
                Ok(Endpoint::Node(i))
            } else if let Some(i) = self.boundary_names.iter().position(|n| n == name) {
                Ok(Endpoint::Boundary(i))
            } else {
                Err(NetworkError::UnknownName(name.to_owned()))
            }
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
        let mut reached = vec![false; n];
        let mut frontier: Vec<usize> = Vec::new();
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
            for link in &links {
                if let (Endpoint::Node(p), Endpoint::Node(q)) = (link.a, link.b) {
                    let other = if p == i {
                        Some(q)
                    } else if q == i {
                        Some(p)
                    } else {
                        None
                    };
                    if let Some(o) = other {
                        if !reached[o] {
                            reached[o] = true;
                            frontier.push(o);
                        }
                    }
                }
            }
        }
        if let Some(i) = reached.iter().position(|&r| !r) {
            return Err(NetworkError::FloatingNode(self.node_names[i].clone()));
        }

        Ok(RcNetwork {
            node_names: self.node_names,
            capacitances: self.capacitances,
            temperatures: self.initials,
            powers: vec![0.0; n],
            boundary_names: self.boundary_names,
            boundary_temps: self.boundary_temps,
            links,
            factor: vec![0.0; n * n],
            pivots: vec![0; n],
            factored_dt: f64::NAN,
            matrix_dirty: true,
            params_version: 0,
            changed_links: Vec::new(),
            rhs: vec![0.0; n],
            batch_memo: (0, 0, 0, 0),
        })
    }
}

/// An N-node RC thermal network integrated with backward Euler.
///
/// The backward-Euler system matrix `C/dt + G` depends only on `dt`, the
/// conductances and the capacitances — not on temperatures, powers or
/// boundary values — so [`RcNetwork::step`] caches its LU factorization
/// and re-factorizes only when `dt` changes or a conductance is
/// re-parameterized (the common case in the fan loop: only the
/// sink→ambient link moves with fan speed). All per-step work runs in
/// pre-allocated scratch buffers; steady-state stepping performs **zero**
/// heap allocations.
#[derive(Debug, Clone)]
pub struct RcNetwork {
    node_names: Vec<String>,
    capacitances: Vec<f64>,
    temperatures: Vec<f64>,
    powers: Vec<f64>,
    boundary_names: Vec<String>,
    boundary_temps: Vec<f64>,
    links: Vec<Link>,
    /// LU factors of `C/dt + G` (unit-lower multipliers below the
    /// diagonal, upper triangle above), row-major `n × n`.
    factor: Vec<f64>,
    /// Partial-pivoting row swaps recorded during factorization.
    pivots: Vec<usize>,
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
    /// step is one forward/backward substitution in pre-allocated scratch —
    /// no assembly, no elimination, no heap allocation. Results are
    /// identical to [`RcNetwork::step_uncached`]: the cached path replays
    /// the exact same elimination arithmetic from the stored factors.
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
        for link in &self.links {
            if let (Endpoint::Node(i), Endpoint::Boundary(k))
            | (Endpoint::Boundary(k), Endpoint::Node(i)) = (link.a, link.b)
            {
                self.rhs[i] += link.conductance * self.boundary_temps[k];
            }
        }
        lu_solve(&self.factor, &self.pivots, &mut self.rhs, n);
        self.temperatures.copy_from_slice(&self.rhs);
    }

    /// The reference integrator: assembles and eliminates the full system
    /// every call (the pre-caching behavior). Kept public as the oracle for
    /// the cached path — the property tests and the `hot_paths` benchmarks
    /// compare [`RcNetwork::step`] against it.
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

    /// Assembles `C/dt + G` into the factor buffer and LU-factorizes it in
    /// place with partial pivoting.
    fn refactorize(&mut self, dt: f64) {
        let n = self.node_names.len();
        assemble_matrix(&self.capacitances, &self.links, dt, &mut self.factor);
        lu_factorize(&mut self.factor, &mut self.pivots, n);
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
        let SteadyStateScratch { conductances, powers, matrix, temps, .. } = scratch;
        assert_eq!(conductances.len(), self.links.len(), "probe tables from another network");
        matrix.clear();
        matrix.resize(n * n, 0.0);
        temps.clear();
        temps.extend_from_slice(powers);
        let (a, b) = (&mut matrix[..], &mut temps[..]);
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
                    b[i] += g * self.boundary_temps[k];
                }
                // Rejected at build (BoundaryToBoundary); such a link
                // couples no node, so skipping it is the faithful no-op.
                (Endpoint::Boundary(_), Endpoint::Boundary(_)) => {}
            }
        }
        solve_dense(a, b, n);
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
/// network and then overridden, plus the dense system and its solution.
/// Warm buffers make a probe allocation-free, and because solving leaves
/// the tables intact, a sweep that moves a few links between probes
/// rewrites only those.
#[derive(Debug, Clone, Default)]
pub struct SteadyStateScratch {
    conductances: Vec<f64>,
    /// Links an override has already set (the first override wins).
    claimed: Vec<bool>,
    powers: Vec<f64>,
    matrix: Vec<f64>,
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
            matrix: Vec::new(),
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

/// Assembles the backward-Euler system matrix `C/dt + G` (row-major, the
/// length of `a` must be `n²` for `n = capacitances.len()`). Shared by the
/// scalar [`RcNetwork::step`] cache and the batched stepper
/// ([`crate::BatchRcNetwork`]): both must produce bitwise-identical
/// matrices from identical capacitances/conductances, so there is exactly
/// one assembly routine.
pub(crate) fn assemble_matrix(capacitances: &[f64], links: &[Link], dt: f64, a: &mut [f64]) {
    let n = capacitances.len();
    let inv_dt = 1.0 / dt;
    a.fill(0.0);
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

/// LU-factorizes row-major `a` (length `n²`) in place with partial
/// pivoting: unit-lower multipliers land below the diagonal, the upper
/// triangle above; `piv[col]` records the row swapped into `col`. The
/// assembled thermal matrices are strictly diagonally dominant, hence
/// non-singular.
pub(crate) fn lu_factorize(a: &mut [f64], piv: &mut [usize], n: usize) {
    for col in 0..n {
        let mut pivot = col;
        for row in (col + 1)..n {
            if a[row * n + col].abs() > a[pivot * n + col].abs() {
                pivot = row;
            }
        }
        piv[col] = pivot;
        if pivot != col {
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
}

/// Solves `L·U·x = P·b` from [`lu_factorize`]'s output, overwriting `b`
/// with `x`. Allocation-free; the substitution applies the same arithmetic,
/// in the same order, as eliminating `b` alongside the matrix would.
fn lu_solve(a: &[f64], piv: &[usize], b: &mut [f64], n: usize) {
    for (col, &pivot) in piv.iter().enumerate() {
        if pivot != col {
            b.swap(col, pivot);
        }
    }
    // Forward substitution through the unit-lower multipliers, column-major
    // to mirror the elimination order of `solve_dense` exactly.
    for col in 0..n {
        let bc = b[col];
        if bc == 0.0 {
            continue;
        }
        for row in (col + 1)..n {
            let factor = a[row * n + col];
            if factor != 0.0 {
                b[row] -= factor * bc;
            }
        }
    }
    for row in (0..n).rev() {
        let mut sum = b[row];
        for k in (row + 1)..n {
            sum -= a[row * n + k] * b[k];
        }
        b[row] = sum / a[row * n + row];
    }
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

    #[test]
    fn cached_step_matches_uncached_reference_bitwise() {
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
