//! Lockstep batch stepping of same-structure RC networks.
//!
//! A scenario sweep runs B copies of the *same* thermal topology whose
//! parameters (fan-dependent conductances, powers, boundaries) differ per
//! cell. Stepped one by one, every cell pays its own LU factorization each
//! time its fan speed moves; stepped in lockstep through a
//! [`BatchRcNetwork`], lanes whose backward-Euler matrices are bitwise
//! identical share one factorization, and factors are memoized across steps
//! — fan slews walk a small lattice of speeds (±slew·dt from a common
//! start) and quantized fan commands revisit a handful of grid speeds, so
//! the same matrices recur constantly both across lanes and across time.
//!
//! State is column-major structure-of-arrays, `[node][slot]`, with lanes
//! packed in factor-group order each step: every group's columns are
//! contiguous, so the multi-lane substitution reads each factor entry once
//! per *group* and streams dense slot runs underneath it. A memoized
//! factor holds only its entries on the network's elimination pattern
//! (see [`RcNetwork`]), never a dense `n × n` matrix. The per-lane
//! arithmetic replays [`RcNetwork::step`]'s exact operation order — same
//! assembly, same factorization, same substitution — so a batched
//! trajectory is **bitwise identical** to stepping each lane's network
//! alone. That contract is what lets the sweep engine swap the batched
//! path in underneath the repo's parallel==serial determinism guarantee.
//!
//! Factor resolution is two-tier. Each lane's network carries a memo of the
//! factor it used last (generation-stamped, validated against the network's
//! matrix-parameter version and the step's `dt` bits), so a lane whose fan
//! held still since its previous batch step re-joins its factor in O(1).
//! Only lanes whose parameters actually moved rebuild their signature and
//! consult the factor arena — and the signature is *compact*: capacitances
//! have no mutation API and the batch verifies at construction which links
//! differ across lanes, so a matrix is fully determined by `dt` plus the
//! conductances of the links that vary (construction differences ∪ links
//! any lane has mutated, a set the batch widens on the fly if a lane
//! touches a new one). A fin-array plant with hundreds of static
//! fin-to-fin links signs its matrix by its handful of fan-driven links.
//!
//! Steady-state probes ([`RcNetwork::steady_state_with`], the
//! `min_safe_fan_speed` inversions) never touch the step cache, so a lane
//! being batch-stepped can still be probed freely between steps.
//!
//! # Examples
//!
//! ```
//! use gfsc_thermal::{BatchRcNetwork, RcNetworkBuilder};
//! use gfsc_units::{Celsius, JoulesPerKelvin, KelvinPerWatt, Seconds, Watts};
//!
//! let build = || {
//!     RcNetworkBuilder::new()
//!         .node("die", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
//!         .boundary("ambient", Celsius::new(30.0))
//!         .link("die", "ambient", KelvinPerWatt::new(0.2))
//!         .build()
//!         .unwrap()
//! };
//! let mut lanes = vec![build(), build()];
//! let die = lanes[0].node_id("die").unwrap();
//! lanes[1].set_power(die, Watts::new(100.0));
//! let mut batch = BatchRcNetwork::new(&lanes.iter().collect::<Vec<_>>())?;
//! let mut refs: Vec<&mut _> = lanes.iter_mut().collect();
//! batch.step(&mut refs, Seconds::new(0.5));
//! assert!(lanes[1].temperature(die) > lanes[0].temperature(die));
//! # Ok::<(), gfsc_thermal::NetworkError>(())
//! ```

use crate::network::{assemble_matrix, factorize, Endpoint, LuFactor, NetworkError, RcNetwork};
use gfsc_units::Seconds;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bound on memoized factorizations. Factors are small (their entries on
/// the elimination pattern, about twice its fill), but an adversarial
/// sweep could mint a fresh matrix every step; past the cap
/// the arena is dropped wholesale and the batch generation bumped (which
/// invalidates every lane memo) — deterministic, and the next step simply
/// refactorizes (performance changes, results never do).
const FACTOR_CACHE_CAP: usize = 512;

/// Source of unique batch generations: lane memos written by a dropped or
/// cleared batch must never validate against another, so each
/// [`BatchRcNetwork`] (and each post-clear incarnation) draws a fresh one.
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// One memoized LU factorization: a pure function of the assembled matrix,
/// so any lane whose (dt, varying-parameter) bits match may reuse it and
/// still land on scalar-identical temperatures — the non-varying
/// parameters were proven shared at batch construction. The compact
/// signature is kept alongside for exact confirmation on arena lookups.
#[derive(Debug, Clone)]
struct CachedFactor {
    sig: Vec<u64>,
    factor: LuFactor,
}

/// Steps B same-structure [`RcNetwork`]s in lockstep through shared,
/// memoized LU factorizations (see the module docs for the layout and the
/// bitwise contract).
///
/// The batch does not own the lane networks: each [`BatchRcNetwork::step`]
/// borrows them, reads their state into the SoA right-hand sides, solves,
/// and writes the temperatures back. All scratch is pre-allocated at
/// construction; a step with warm factor memos performs **zero** heap
/// allocations.
#[derive(Debug)]
pub struct BatchRcNetwork {
    /// Generation stamp lane memos are validated against; bumped whenever
    /// the factor arena is cleared.
    generation: u64,
    /// Nodes per lane (identical across lanes by construction).
    nodes: usize,
    /// Lane count B.
    lanes: usize,
    /// Link endpoint structure captured at construction; every `step`
    /// asserts the borrowed lanes still match it.
    links: Vec<(Endpoint, Endpoint)>,
    boundaries: usize,
    /// Capacitance indices that differ across lanes (rare — capacitances
    /// are fixed at build, so this only captures lanes from differently
    /// parameterized builders). Part of the signature.
    sig_caps: Vec<u32>,
    /// Link indices whose conductances may differ between two matrices the
    /// batch compares: construction-time differences plus every link some
    /// lane has mutated since build. Grows monotonically; growing it
    /// invalidates the arena (previously cached signatures said nothing
    /// about the new link).
    sig_links: Vec<u32>,
    /// Membership mask over link indices for `sig_links`.
    in_sig: Vec<bool>,
    /// SoA right-hand-side / solution columns, `[node * lanes + slot]`.
    state: Vec<f64>,
    /// Back-substitution accumulators, one per slot.
    sums: Vec<f64>,
    /// Signature scratch: dt bits + varying capacitance bits + varying
    /// link conductance bits.
    sig: Vec<u64>,
    /// Arena index of each lane's factor for the current step.
    lane_factor: Vec<usize>,
    /// Lane → group index for the current step.
    group_of: Vec<usize>,
    /// Each group's factor arena index, in first-seen lane order.
    group_factor: Vec<usize>,
    /// Lanes counting-sorted by group, then `group_bounds[g]` slices them.
    members: Vec<usize>,
    group_bounds: Vec<(usize, usize)>,
    group_sizes: Vec<usize>,
    /// Counting-sort write positions, one per group.
    cursor: Vec<usize>,
    /// Factor arena, shared across lanes *and* steps.
    factors: Vec<CachedFactor>,
    /// Signature hash → arena indices (collision candidates confirmed by
    /// exact signature comparison).
    index: HashMap<u64, Vec<usize>>,
}

impl BatchRcNetwork {
    /// Builds a batch stepper over the given lanes, validating that every
    /// lane shares lane 0's structure (node/boundary names and link
    /// endpoints, in order — parameters are free to differ: any parameter
    /// differing across lanes is folded into the matrix signature).
    ///
    /// # Errors
    ///
    /// [`NetworkError::Empty`] with no lanes;
    /// [`NetworkError::BatchMismatch`] if a lane's structure differs.
    pub fn new(nets: &[&RcNetwork]) -> Result<Self, NetworkError> {
        let template = *nets.first().ok_or(NetworkError::Empty)?;
        for (i, net) in nets.iter().enumerate().skip(1) {
            if !template.structure_eq(net) {
                return Err(NetworkError::BatchMismatch(format!(
                    "lane {i} does not share lane 0's node/link structure"
                )));
            }
        }
        let nodes = template.node_count();
        let lanes = nets.len();
        let links = template.links_raw().iter().map(|l| (l.a, l.b)).collect::<Vec<_>>();

        // Varying-parameter census: a capacitance or conductance belongs in
        // the signature iff it differs across lanes now (different
        // builders) or might start differing later (some lane has a
        // mutation on record; links touched after this point are absorbed
        // on the fly by `step`). Everything else is bitwise-shared and
        // immutable, so equal signatures imply equal matrices.
        let mut sig_caps: Vec<u32> = Vec::new();
        for i in 0..nodes {
            let bits = template.capacitances_raw()[i].to_bits();
            if nets.iter().any(|n| n.capacitances_raw()[i].to_bits() != bits) {
                sig_caps.push(i as u32);
            }
        }
        let mut in_sig = vec![false; links.len()];
        for (l, link) in template.links_raw().iter().enumerate() {
            let bits = link.conductance.to_bits();
            if nets.iter().any(|n| n.links_raw()[l].conductance.to_bits() != bits) {
                in_sig[l] = true;
            }
        }
        for net in nets {
            for &l in net.changed_links() {
                in_sig[l as usize] = true;
            }
        }
        let sig_links: Vec<u32> = (0..links.len() as u32).filter(|&l| in_sig[l as usize]).collect();

        let sig_len = 1 + sig_caps.len() + sig_links.len();
        Ok(Self {
            generation: GENERATION.fetch_add(1, Ordering::Relaxed),
            nodes,
            lanes,
            links,
            boundaries: template.boundary_temps_raw().len(),
            sig_caps,
            sig_links,
            in_sig,
            state: vec![0.0; nodes * lanes],
            sums: vec![0.0; lanes],
            sig: vec![0; sig_len],
            lane_factor: vec![0; lanes],
            group_of: vec![0; lanes],
            group_factor: Vec::with_capacity(lanes),
            members: vec![0; lanes],
            group_bounds: Vec::with_capacity(lanes),
            group_sizes: Vec::with_capacity(lanes),
            cursor: Vec::with_capacity(lanes),
            factors: Vec::new(),
            index: HashMap::new(),
        })
    }

    /// Nodes per lane.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Distinct factorizations currently memoized (diagnostics; the batch
    /// throughput story is "this stays small while scalar refactorizes").
    #[must_use]
    pub fn cached_factor_count(&self) -> usize {
        self.factors.len()
    }

    /// Widens the signature with any link this lane has mutated that the
    /// batch is not yet signing. Returns `true` (after clearing the arena
    /// and bumping the generation) if the signature grew — previously
    /// cached signatures said nothing about the new links, so neither the
    /// arena nor any lane memo may survive.
    fn absorb_changed_links(&mut self, net: &RcNetwork) -> bool {
        let mut grew = false;
        for &l in net.changed_links() {
            if !self.in_sig[l as usize] {
                self.in_sig[l as usize] = true;
                grew = true;
            }
        }
        if grew {
            self.sig_links =
                (0..self.links.len() as u32).filter(|&l| self.in_sig[l as usize]).collect();
            self.sig.resize(1 + self.sig_caps.len() + self.sig_links.len(), 0);
            self.factors.clear();
            self.index.clear();
            self.generation = GENERATION.fetch_add(1, Ordering::Relaxed);
        }
        grew
    }

    /// Resolves the factor for a lane whose memo went stale: rebuilds the
    /// lane's compact matrix signature, finds or builds the matching arena
    /// entry, and returns the arena index.
    fn resolve_factor(&mut self, net: &RcNetwork, dt: f64) -> usize {
        let caps = net.capacitances_raw();
        let links = net.links_raw();
        // `sig` is sized `1 + caps + links` at construction; `first_mut`
        // keeps the signature write index-panic-free regardless.
        if let Some(slot) = self.sig.first_mut() {
            *slot = dt.to_bits();
        }
        let mut w = 1;
        for &i in &self.sig_caps {
            self.sig[w] = caps[i as usize].to_bits();
            w += 1;
        }
        for &l in &self.sig_links {
            self.sig[w] = links[l as usize].conductance.to_bits();
            w += 1;
        }
        let hash = fnv64(&self.sig);
        if let Some(candidates) = self.index.get(&hash) {
            for &idx in candidates {
                if self.factors[idx].sig == self.sig {
                    return idx;
                }
            }
        }
        let mut factor = LuFactor::new();
        factorize(net.pattern(), &mut factor, |a| assemble_matrix(caps, links, dt, a));
        let idx = self.factors.len();
        self.factors.push(CachedFactor { sig: self.sig.clone(), factor });
        self.index.entry(hash).or_default().push(idx);
        idx
    }

    /// Advances every lane by one backward-Euler step of `dt`, bitwise
    /// identical to calling [`RcNetwork::step`] on each lane alone.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero, the lane count differs from construction,
    /// or a lane's structure no longer matches (structure is fixed after
    /// [`RcNetworkBuilder::build`](crate::RcNetworkBuilder::build), so the
    /// latter indicates lanes were reordered or swapped out).
    pub fn step(&mut self, nets: &mut [&mut RcNetwork], dt: Seconds) {
        assert!(!dt.is_zero(), "step size must be positive");
        assert_eq!(nets.len(), self.lanes, "lane count is fixed at construction");
        let (n, b) = (self.nodes, self.lanes);
        for net in nets.iter() {
            assert!(
                net.node_count() == n
                    && net.links_raw().len() == self.links.len()
                    && net.boundary_temps_raw().len() == self.boundaries,
                "lane structure changed since construction"
            );
            debug_assert!(net
                .links_raw()
                .iter()
                .zip(&self.links)
                .all(|(l, (a, b))| l.a == *a && l.b == *b));
        }
        let dt_bits = dt.value().to_bits();
        let inv_dt = 1.0 / dt.value();

        // Evict between steps, never inside the lane loop: a mid-loop clear
        // would strand the arena indices already recorded for earlier lanes
        // this step. The arena can overshoot the cap by at most B entries.
        if self.factors.len() >= FACTOR_CACHE_CAP {
            self.factors.clear();
            self.index.clear();
            self.generation = GENERATION.fetch_add(1, Ordering::Relaxed);
        }

        // 1. Per-lane factor resolution. The network-resident memo settles
        //    lanes whose matrix parameters and dt are unchanged since their
        //    last batch step in O(1); everyone else rebuilds a signature
        //    (the bits the system matrix is a pure function of, given the
        //    construction census — equal signature ⇒ bitwise-equal matrix ⇒
        //    the factorization, itself a pure function of the matrix, is
        //    shareable without perturbing a single result bit) and consults
        //    the arena. If a lane mutated a link the signature doesn't
        //    cover yet, the signature widens, the arena drops, and the loop
        //    restarts — every memo just died with the old generation.
        'resolve: loop {
            for (lane, net) in nets.iter_mut().enumerate() {
                let net = &mut **net;
                let (generation, idx, version, memo_dt) = net.batch_memo;
                let idx = if generation == self.generation
                    && version == net.params_version()
                    && memo_dt == dt_bits
                {
                    idx
                } else {
                    if self.absorb_changed_links(net) {
                        continue 'resolve;
                    }
                    let idx = self.resolve_factor(net, dt.value());
                    net.batch_memo = (self.generation, idx, net.params_version(), dt_bits);
                    idx
                };
                self.lane_factor[lane] = idx;
            }
            break;
        }

        // 2. Group lanes by factor (plain integer identity now).
        self.group_factor.clear();
        for lane in 0..b {
            let f = self.lane_factor[lane];
            self.group_of[lane] = match self.group_factor.iter().position(|&g| g == f) {
                Some(g) => g,
                None => {
                    self.group_factor.push(f);
                    self.group_factor.len() - 1
                }
            };
        }
        let groups = self.group_factor.len();

        // Counting sort: lanes ordered by group, lane order kept in-group.
        self.group_sizes.clear();
        self.group_sizes.resize(groups, 0);
        for lane in 0..b {
            self.group_sizes[self.group_of[lane]] += 1;
        }
        self.group_bounds.clear();
        let mut start = 0;
        for &size in &self.group_sizes {
            self.group_bounds.push((start, start + size));
            start += size;
        }
        self.cursor.clear();
        self.cursor.extend(self.group_bounds.iter().map(|&(s, _)| s));
        for lane in 0..b {
            let g = self.group_of[lane];
            self.members[self.cursor[g]] = lane;
            self.cursor[g] += 1;
        }

        // 3. Assemble every lane's right-hand side into the SoA columns in
        //    *member* order, so each group's columns are contiguous and the
        //    substitution inner loops sweep dense slot ranges. The per-lane
        //    expression sequence is exactly the scalar step's (the
        //    boundary-link list preserves link order, so the additions land
        //    in the scalar order); where a lane's column lives does not
        //    touch its arithmetic.
        for (slot, &lane) in self.members.iter().enumerate() {
            let net = &nets[lane];
            let caps = net.capacitances_raw();
            let temps = net.temperatures_raw();
            let powers = net.powers_raw();
            for i in 0..n {
                self.state[i * b + slot] = caps[i] * inv_dt * temps[i] + powers[i];
            }
            let bt = net.boundary_temps_raw();
            let links = net.links_raw();
            for &(i, k, l) in net.boundary_links() {
                self.state[i * b + slot] += links[l].conductance * bt[k];
            }
        }

        // 4. Substitute each group's columns through its shared factors.
        for g in 0..groups {
            let (lo, hi) = self.group_bounds[g];
            solve_columns(
                &self.factors[self.group_factor[g]].factor,
                &mut self.state,
                &mut self.sums,
                lo..hi,
                b,
            );
        }

        // 5. Write the solved columns back as the lanes' new temperatures.
        for (slot, &lane) in self.members.iter().enumerate() {
            for (i, t) in nets[lane].temperatures_raw_mut().iter_mut().enumerate() {
                *t = self.state[i * b + slot];
            }
        }
    }
}

/// Multi-column forward/back substitution: solves `L·U·x = P·b` for every
/// column in the contiguous slot range `slots` over the factor's entries,
/// replaying the scalar step's [`LuFactor::substitute`] per column — same
/// operation order (columns ascending in the forward pass, `k` ascending
/// in each back-substitution row) and the same zero-multiplier skip.
/// Contiguity is the point: every factor entry is read once per *group*
/// while the inner loops stream dense slot runs.
fn solve_columns(
    factor: &LuFactor,
    state: &mut [f64],
    sums: &mut [f64],
    slots: core::ops::Range<usize>,
    b: usize,
) {
    let (lo, hi) = (slots.start, slots.end);
    for &(col, row) in factor.swaps() {
        let (col, row) = (col as usize, row as usize);
        for s in lo..hi {
            state.swap(col * b + s, row * b + s);
        }
    }
    // Forward substitution: for each (col, row) pair in lexicographic
    // order apply `b[row] -= factor · b[col]`, skipped when `factor == 0`.
    // L's rows lie below its column, so `b[col]` sits before `b[row]`.
    for col in 0..factor.order() {
        let (rows, multipliers) = factor.lower(col);
        for (&row, &m) in rows.iter().zip(multipliers) {
            if m == 0.0 {
                continue;
            }
            let (above, from_row) = state.split_at_mut(row as usize * b);
            let src = &above[col * b + lo..col * b + hi];
            for (d, &bc) in from_row[lo..hi].iter_mut().zip(src) {
                *d -= m * bc;
            }
        }
    }
    // Back-substitution over U's entries, `k` ascending per row exactly
    // as the scalar path (which applies every entry, zero or not).
    for row in (0..factor.order()).rev() {
        sums[lo..hi].copy_from_slice(&state[row * b + lo..row * b + hi]);
        let (cols, entries) = factor.upper(row);
        for (&k, &u) in cols.iter().zip(entries) {
            let k = k as usize;
            let sk = &state[k * b + lo..k * b + hi];
            for (s, &x) in sums[lo..hi].iter_mut().zip(sk) {
                *s -= u * x;
            }
        }
        let diag = factor.pivot(row);
        for s in lo..hi {
            state[row * b + s] = sums[s] / diag;
        }
    }
}

/// FNV-1a over signature words — a cheap, deterministic pre-filter for the
/// factor arena's index (exact signature comparison confirms every match,
/// so the hash influences performance only, never results).
fn fnv64(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HeatSinkLaw, RcNetworkBuilder};
    use gfsc_units::{Celsius, JoulesPerKelvin, KelvinPerWatt, Rpm, Watts};

    fn two_node() -> RcNetwork {
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
    fn single_lane_matches_scalar_step_bitwise() {
        let mut batched = two_node();
        let mut scalar = two_node();
        let die = scalar.node_id("die").unwrap();
        let sink = scalar.node_id("sink").unwrap();
        let link = scalar.link_id("sink", "ambient").unwrap();
        let mut batch = BatchRcNetwork::new(&[&batched]).unwrap();
        let law = HeatSinkLaw::date14();
        for k in 0..400 {
            // Fan-style conductance motion plus power steps: every
            // invalidation path the scalar cache has.
            let fan = Rpm::new(1500.0 + 500.0 * f64::from(k % 12));
            let p = Watts::new(40.0 + f64::from(k % 7) * 20.0);
            for net in [&mut batched, &mut scalar] {
                net.set_link_resistance_by_id(link, law.resistance(fan));
                net.set_power(die, p);
            }
            let dt = Seconds::new(if k % 2 == 0 { 0.5 } else { 1.0 });
            batch.step(&mut [&mut batched], dt);
            scalar.step(dt);
            for id in [die, sink] {
                assert_eq!(
                    batched.temperature(id).value().to_bits(),
                    scalar.temperature(id).value().to_bits(),
                    "diverged at step {k}"
                );
            }
        }
    }

    #[test]
    fn mixed_lanes_match_per_lane_scalar_stepping() {
        // 8 lanes, three distinct conductance groups, per-lane powers and
        // boundaries: the grouped solve must replay each lane's scalar
        // trajectory bit for bit.
        let b = 8;
        let mut batched: Vec<RcNetwork> = (0..b).map(|_| two_node()).collect();
        let mut scalar: Vec<RcNetwork> = (0..b).map(|_| two_node()).collect();
        let die = scalar[0].node_id("die").unwrap();
        let sink = scalar[0].node_id("sink").unwrap();
        let link = scalar[0].link_id("sink", "ambient").unwrap();
        for lane in 0..b {
            let p = Watts::new(30.0 + 17.0 * lane as f64);
            let amb = Celsius::new(25.0 + lane as f64);
            let r = KelvinPerWatt::new(0.2 + 0.05 * (lane % 3) as f64);
            for net in [&mut batched[lane], &mut scalar[lane]] {
                net.set_power(die, p);
                net.set_boundary("ambient", amb).unwrap();
                net.set_link_resistance_by_id(link, r);
            }
        }
        let mut batch = BatchRcNetwork::new(&batched.iter().collect::<Vec<_>>()).unwrap();
        let dt = Seconds::new(0.5);
        for k in 0..300 {
            if k % 40 == 0 {
                // Regroup mid-flight: lanes migrate between conductance
                // groups as a fan sweep would move them.
                for lane in 0..b {
                    let r = KelvinPerWatt::new(0.2 + 0.05 * ((lane + k / 40) % 3) as f64);
                    batched[lane].set_link_resistance_by_id(link, r);
                    scalar[lane].set_link_resistance_by_id(link, r);
                }
            }
            let mut refs: Vec<&mut RcNetwork> = batched.iter_mut().collect();
            batch.step(&mut refs, dt);
            for lane in 0..b {
                scalar[lane].step(dt);
                for id in [die, sink] {
                    assert_eq!(
                        batched[lane].temperature(id).value().to_bits(),
                        scalar[lane].temperature(id).value().to_bits(),
                        "lane {lane} diverged at step {k}"
                    );
                }
            }
        }
        // Three conductance groups over a shared dt: the memo holds one
        // factor per distinct matrix, not one per lane per step.
        assert!(batch.cached_factor_count() <= 9, "memo grew past the distinct-matrix count");
    }

    #[test]
    fn factors_are_shared_across_lanes_and_steps() {
        let mut lanes: Vec<RcNetwork> = (0..4).map(|_| two_node()).collect();
        let mut batch = BatchRcNetwork::new(&lanes.iter().collect::<Vec<_>>()).unwrap();
        let dt = Seconds::new(0.5);
        for _ in 0..10 {
            let mut refs: Vec<&mut RcNetwork> = lanes.iter_mut().collect();
            batch.step(&mut refs, dt);
        }
        // Identical lanes, fixed dt: exactly one factorization ever built.
        assert_eq!(batch.cached_factor_count(), 1);
    }

    #[test]
    fn lane_memos_survive_scalar_interleaving_and_batch_swaps() {
        // A lane stepped by batch A, then scalar-stepped, then handed to
        // batch B must never reuse A's arena index: the generation stamp
        // forces a clean re-resolve, and results stay scalar-identical.
        let mut lane = two_node();
        let mut scalar = two_node();
        let die = scalar.node_id("die").unwrap();
        let sink = scalar.node_id("sink").unwrap();
        for net in [&mut lane, &mut scalar] {
            net.set_power(die, Watts::new(120.0));
        }
        let dt = Seconds::new(0.5);
        let mut batch_a = BatchRcNetwork::new(&[&lane]).unwrap();
        batch_a.step(&mut [&mut lane], dt);
        scalar.step(dt);
        lane.step(dt); // scalar interleave on the batched lane
        scalar.step(dt);
        let mut batch_b = BatchRcNetwork::new(&[&lane]).unwrap();
        for _ in 0..5 {
            batch_b.step(&mut [&mut lane], dt);
            scalar.step(dt);
        }
        for id in [die, sink] {
            assert_eq!(
                lane.temperature(id).value().to_bits(),
                scalar.temperature(id).value().to_bits()
            );
        }
    }

    #[test]
    fn signature_widens_when_an_unsigned_link_moves_mid_run() {
        // The fan link is signed from construction; the die→sink link is
        // static until one lane suddenly re-parameterizes it mid-run. The
        // batch must widen its signature (and drop the arena) rather than
        // keep sharing factors that no longer agree on that link.
        let b = 4;
        let mut batched: Vec<RcNetwork> = (0..b).map(|_| two_node()).collect();
        let mut scalar: Vec<RcNetwork> = (0..b).map(|_| two_node()).collect();
        let die = scalar[0].node_id("die").unwrap();
        let sink = scalar[0].node_id("sink").unwrap();
        let jc = scalar[0].link_id("die", "sink").unwrap();
        for lane in 0..b {
            let p = Watts::new(50.0 + 10.0 * lane as f64);
            batched[lane].set_power(die, p);
            scalar[lane].set_power(die, p);
        }
        let mut batch = BatchRcNetwork::new(&batched.iter().collect::<Vec<_>>()).unwrap();
        let dt = Seconds::new(0.5);
        for k in 0..100 {
            if k == 37 {
                batched[2].set_link_resistance_by_id(jc, KelvinPerWatt::new(0.17));
                scalar[2].set_link_resistance_by_id(jc, KelvinPerWatt::new(0.17));
            }
            let mut refs: Vec<&mut RcNetwork> = batched.iter_mut().collect();
            batch.step(&mut refs, dt);
            for lane in 0..b {
                scalar[lane].step(dt);
                for id in [die, sink] {
                    assert_eq!(
                        batched[lane].temperature(id).value().to_bits(),
                        scalar[lane].temperature(id).value().to_bits(),
                        "lane {lane} diverged at step {k}"
                    );
                }
            }
        }
        // Post-widening: one factor for the mutated lane, one shared by
        // the other three.
        assert_eq!(batch.cached_factor_count(), 2);
    }

    #[test]
    fn construction_census_catches_differently_built_lanes() {
        // Lane 1 is built with a different static die→sink resistance (no
        // post-build mutation, so `changed_links` is empty): the
        // construction census must fold that link into the signature, and
        // both lanes must still replay their scalar trajectories exactly.
        let build = |r_jc: f64| {
            RcNetworkBuilder::new()
                .node("die", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
                .node("sink", JoulesPerKelvin::new(300.0), Celsius::new(30.0))
                .boundary("ambient", Celsius::new(30.0))
                .link("die", "sink", KelvinPerWatt::new(r_jc))
                .link("sink", "ambient", KelvinPerWatt::new(0.25))
                .build()
                .unwrap()
        };
        let mut batched = [build(0.1), build(0.2)];
        let mut scalar = [build(0.1), build(0.2)];
        let die = scalar[0].node_id("die").unwrap();
        for lane in 0..2 {
            batched[lane].set_power(die, Watts::new(100.0));
            scalar[lane].set_power(die, Watts::new(100.0));
        }
        let mut batch = BatchRcNetwork::new(&batched.iter().collect::<Vec<_>>()).unwrap();
        let dt = Seconds::new(0.5);
        for _ in 0..50 {
            let mut refs: Vec<&mut RcNetwork> = batched.iter_mut().collect();
            batch.step(&mut refs, dt);
            for lane in 0..2 {
                scalar[lane].step(dt);
                assert_eq!(
                    batched[lane].temperature(die).value().to_bits(),
                    scalar[lane].temperature(die).value().to_bits()
                );
            }
        }
        assert_eq!(batch.cached_factor_count(), 2);
    }

    #[test]
    fn rejects_structure_mismatch() {
        let a = two_node();
        let b = RcNetworkBuilder::new()
            .node("die", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
            .boundary("ambient", Celsius::new(30.0))
            .link("die", "ambient", KelvinPerWatt::new(0.3))
            .build()
            .unwrap();
        assert!(matches!(BatchRcNetwork::new(&[&a, &b]), Err(NetworkError::BatchMismatch(_))));
        assert!(matches!(BatchRcNetwork::new(&[]), Err(NetworkError::Empty)));
    }

    #[test]
    fn probes_between_batch_steps_leave_trajectories_untouched() {
        // steady_state_with runs beside the batch exactly as beside the
        // scalar cache: read-only.
        let mut batched = two_node();
        let mut scalar = two_node();
        let die = scalar.node_id("die").unwrap();
        scalar.set_power(die, Watts::new(90.0));
        batched.set_power(die, Watts::new(90.0));
        let mut batch = BatchRcNetwork::new(&[&batched]).unwrap();
        let dt = Seconds::new(0.5);
        for _ in 0..50 {
            batch.step(&mut [&mut batched], dt);
            let _ = batched.steady_state_with(&[], &[(die, Watts::new(500.0))]);
            scalar.step(dt);
            assert_eq!(
                batched.temperature(die).value().to_bits(),
                scalar.temperature(die).value().to_bits()
            );
        }
    }
}
