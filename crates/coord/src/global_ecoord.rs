//! Rack-global energy descent: every fan wall sized *jointly* against the
//! full coupled [`RackPlant`], not one wall at a time.
//!
//! The per-zone E-coord mode ([`crate::RackControl::CoordinatedECoord`])
//! sizes each wall with every *other* wall held at its momentary actual
//! speed. On a plenum-coupled rack that holding is exactly wrong: wall
//! airflows are antitone-coupled (a neighbour slowing down makes *your*
//! minimum safe speed higher), so per-zone decisions chase each other's
//! slewing actuals — each wall sizes against a neighbour state that is
//! already moving away — and the pair oscillates around the joint
//! operating point instead of sitting on it. Fan power is cubic in speed,
//! so oscillating *around* a point costs strictly more than holding it
//! (Jensen), and the low half of each swing under-provides airflow.
//!
//! [`RackEnergyDescent`] removes the inconsistency: at each fan epoch it
//! runs a Gauss–Seidel coordinate descent over *all* walls at once —
//! repeatedly re-inverting each zone's minimum safe speed given the
//! *current iterate* of every other wall ([`RackPlant::min_safe_zone_fan`],
//! warm-started from the zone's own iterate, so a sweep that barely moves
//! costs a handful of probes) until the vector stops moving. Because
//! raising any wall's airflow only ever relaxes the others' constraints
//! (the feasible set is upward closed), the sweeps converge to the
//! **least feasible fan vector** — the component-wise minimum, which
//! minimizes any monotone cost including total fan power. One zone's
//! boost is traded against a plenum-coupled neighbour's release inside
//! the solver, not through the plant a fan period later.
//!
//! Everything else is shared: the rack bank runs both E-coord modes
//! through one arm over the one rule set this descent holds
//! ([`RackEnergyDescent::policy`]) — the zone cap
//! ([`EnergyAwareCoordinator::next_cap`] on the zone measurement) and the
//! emergency pin at maximum ([`EnergyAwareCoordinator::fan_command`]) —
//! so a GlobalECoord-vs-CoordinatedECoord comparison isolates the
//! fan-sizing question. On a single-zone rack the joint descent
//! degenerates to exactly the per-zone inversion (one coordinate, nothing
//! to iterate against), which pins the mode into the degenerate parity
//! contract (`crates/coord/tests/rack_degenerate.rs`).
//!
//! All scratch (the target vector, the freeze marks) is sized once at
//! [`RackEnergyDescent::bind`], which the rack bank calls for every mode;
//! the inversion reuses the plant's per-thread probe scratch, so the rack
//! epoch loop stays allocation-free in this mode too
//! (`tests/alloc_free_rack.rs`).

use crate::EnergyAwareCoordinator;
use gfsc_obs::{EventKind, Recorder, Source};
use gfsc_rack::RackPlant;
use gfsc_units::{total_max, Bounds, Rpm, Watts};

/// The rack-global fan-sizing descent around the E-coord rule set — the
/// whole-rack counterpart of the per-zone sizing in
/// [`EnergyAwareCoordinator::fan_command`]. The rule set
/// ([`Self::policy`]) is the one both rack E-coord modes run for zone caps
/// and emergency pins; the descent replaces only the per-zone sizing.
///
/// # Examples
///
/// ```
/// use gfsc_coord::RackEnergyDescent;
/// use gfsc_units::{Celsius, Utilization};
///
/// let mut descent = RackEnergyDescent::date14_rack();
/// descent.bind(2);
/// // One rule set: walls sized for 76 °C, caps cut at an 80 °C emergency.
/// let policy = descent.policy();
/// assert_eq!(policy.fan_sizing_limit(), Celsius::new(76.0));
/// let cap = policy.next_cap(Celsius::new(80.5), Utilization::new(0.7));
/// assert!(cap < Utilization::new(0.7));
/// ```
#[derive(Debug, Clone)]
pub struct RackEnergyDescent {
    policy: EnergyAwareCoordinator,
    /// The fan-vector iterate, one entry per zone.
    targets: Vec<Rpm>,
    /// Zones excluded from the descent this epoch (emergency holds and
    /// max-pins participate in the others' probes at their seeded speed).
    frozen: Vec<bool>,
    /// Zones whose last probe found no feasible speed (pinned at the
    /// upper bound) — tracing scratch, sized at [`Self::bind`].
    pinned: Vec<bool>,
}

/// Gauss–Seidel sweeps per descent, at most.
const MAX_SWEEPS: usize = 6;
/// Convergence tolerance of a sweep, rpm — far below any actuator's
/// quantization step.
const TOLERANCE_RPM: f64 = 0.5;

impl RackEnergyDescent {
    /// The rack calibration: the [`EnergyAwareCoordinator::date14_rack`]
    /// rule set (4 K sizing margin, recovery reachable by the zone's own
    /// airflow), six Gauss–Seidel sweeps, 0.5 rpm convergence tolerance.
    /// [`RackEnergyDescent::bind`] must size it before the first epoch.
    #[must_use]
    pub fn date14_rack() -> Self {
        Self {
            policy: EnergyAwareCoordinator::date14_rack(),
            targets: Vec::new(),
            frozen: Vec::new(),
            pinned: Vec::new(),
        }
    }

    /// Sizes the scratch for `zones` fan walls (one-time; the epoch loop
    /// itself never allocates).
    pub fn bind(&mut self, zones: usize) {
        self.targets.clear();
        self.targets.resize(zones, Rpm::new(0.0));
        self.frozen.clear();
        self.frozen.resize(zones, false);
        self.pinned.clear();
        self.pinned.resize(zones, false);
    }

    /// The underlying single-server rule set: the one both rack E-coord
    /// modes run for zone caps and emergency pins, so the two differ only
    /// in fan sizing.
    #[must_use]
    pub fn policy(&self) -> &EnergyAwareCoordinator {
        &self.policy
    }

    /// Clears the epoch's freeze marks. Call once per control epoch,
    /// before seeding.
    pub fn begin_epoch(&mut self) {
        self.frozen.fill(false);
    }

    /// Seeds zone `z`'s iterate (warm start: the wall's current actual
    /// speed; in steady state the descent then converges in one sweep).
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    pub fn seed(&mut self, z: usize, speed: Rpm) {
        self.targets[z] = speed;
    }

    /// Excludes zone `z` from this epoch's descent; its seeded speed still
    /// participates in the other zones' probes (an emergency wall holding
    /// its speed, or pinned at maximum, is a fact the neighbours should
    /// size against).
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    pub fn freeze(&mut self, z: usize) {
        self.frozen[z] = true;
    }

    /// Whether zone `z` is excluded from this epoch's descent.
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    #[must_use]
    pub fn is_frozen(&self, z: usize) -> bool {
        self.frozen[z]
    }

    /// Zone `z`'s current fan target (after [`RackEnergyDescent::descend`],
    /// the jointly-sized speed).
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    #[must_use]
    pub fn target(&self, z: usize) -> Rpm {
        self.targets[z]
    }

    /// Runs the joint descent: Gauss–Seidel sweeps of the per-zone
    /// min-safe inversion against the full rack at the current iterate,
    /// until no wall moves by more than the tolerance (or the sweep budget
    /// runs out). Unreachable zones (even unbounded airflow cannot hold the
    /// sizing limit — e.g. recirculated heat from a frozen, starved
    /// neighbour) pin at the upper bound, exactly like the per-zone mode.
    /// The sweep count, the final convergence residual, and every
    /// unfrozen zone's converged target (or its pin at the upper bound)
    /// land in `rec` as `epoch`-stamped events (pass
    /// [`Recorder::disarmed`] to trace nothing). Allocation-free once the
    /// thread's probe scratch is warm.
    ///
    /// # Panics
    ///
    /// Panics if the bound zone count disagrees with `plant` or `powers`
    /// is not one entry per socket.
    pub fn descend(
        &mut self,
        plant: &RackPlant,
        powers: &[Watts],
        bounds: Bounds<Rpm>,
        epoch: u32,
        rec: &mut Recorder,
    ) {
        assert_eq!(self.targets.len(), plant.zone_count(), "descent bound to a different rack");
        let limit = self.policy.fan_sizing_limit();
        let mut sweeps = 0u32;
        let mut residual = 0.0f64;
        for _ in 0..MAX_SWEEPS {
            let mut moved = 0.0f64;
            for z in 0..self.targets.len() {
                if self.frozen[z] {
                    continue;
                }
                let safe = plant.min_safe_zone_fan(z, powers, &self.targets, limit);
                self.pinned[z] = safe.is_none();
                let speed = safe.map_or(bounds.hi(), |v| bounds.clamp(v));
                moved = total_max(moved, (speed - self.targets[z]).abs());
                self.targets[z] = speed;
            }
            sweeps += 1;
            residual = moved;
            if moved <= TOLERANCE_RPM {
                break;
            }
        }
        if rec.is_armed() {
            rec.record(epoch, Source::Rack, EventKind::DescentSweeps, f64::from(sweeps));
            rec.record(epoch, Source::Rack, EventKind::DescentResidual, residual);
            for z in 0..self.targets.len() {
                if self.frozen[z] {
                    continue;
                }
                let kind = if self.pinned[z] {
                    EventKind::DescentPinned
                } else {
                    EventKind::DescentTarget
                };
                rec.record(epoch, Source::Zone(z as u16), kind, self.targets[z].value());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfsc_rack::{RackPlant, RackTopology};
    use gfsc_thermal::{HeatSinkLaw, PlantCalibration, Topology};
    use gfsc_units::{Celsius, KelvinPerWatt, Seconds};

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

    fn bounds() -> Bounds<Rpm> {
        Bounds::new(Rpm::new(1000.0), Rpm::new(8500.0))
    }

    fn seeded(descent: &mut RackEnergyDescent, rack: &RackPlant) {
        descent.bind(rack.zone_count());
        descent.begin_epoch();
        for z in 0..rack.zone_count() {
            descent.seed(z, rack.fan_speed(z));
        }
    }

    #[test]
    fn descends_to_a_jointly_tight_feasible_point() {
        let mut rack = RackPlant::new(&cal(), &RackTopology::shared_plenum(4)).unwrap();
        let powers = vec![Watts::new(140.8); 4];
        rack.equilibrate(&powers, &[Rpm::new(6000.0), Rpm::new(6000.0)]);
        let mut descent = RackEnergyDescent::date14_rack();
        seeded(&mut descent, &rack);
        descent.descend(&rack, &powers, bounds(), 0, &mut Recorder::disarmed());
        let limit = descent.policy().fan_sizing_limit();
        let fans = [descent.target(0), descent.target(1)];
        let mut hottest = [Celsius::new(0.0); 2];
        rack.steady_state_hottest_per_zone_into(&powers, &fans, &mut hottest);
        for (z, &t) in hottest.iter().enumerate() {
            // Feasible, and tight: the joint point rides the sizing limit.
            assert!(t <= limit + 0.01, "zone {z} at {t} vs {limit}");
            assert!(t >= limit - 0.5, "zone {z} over-provisioned at {t}");
        }
        // And it is a genuine joint answer: perturbing either wall below
        // its target breaks that wall's own constraint.
        for z in 0..2 {
            let mut lower = fans;
            lower[z] = descent.target(z) - 150.0;
            rack.steady_state_hottest_per_zone_into(&powers, &lower, &mut hottest);
            assert!(hottest[z] > limit, "zone {z} not tight");
        }
    }

    #[test]
    fn single_zone_descent_matches_the_per_zone_bisection_bitwise() {
        // One coordinate, nothing to iterate against: the joint descent
        // must reproduce the single-zone inversion exactly — the
        // degenerate contract that keeps GlobalECoord bit-compatible with
        // CoordinatedECoord on a single-zone rack.
        let mut rack =
            RackPlant::new(&cal(), &RackTopology::single_server(Topology::dual_socket())).unwrap();
        let powers = vec![Watts::new(140.8); 2];
        rack.equilibrate(&powers, &[Rpm::new(3000.0)]);
        let mut descent = RackEnergyDescent::date14_rack();
        seeded(&mut descent, &rack);
        descent.descend(&rack, &powers, bounds(), 0, &mut Recorder::disarmed());
        let limit = descent.policy().fan_sizing_limit();
        let safe = rack.min_safe_zone_fan(0, &powers, &[rack.fan_speed(0)], limit);
        let expected = bounds().clamp(safe.unwrap());
        assert_eq!(descent.target(0).value().to_bits(), expected.value().to_bits());
    }

    #[test]
    fn frozen_walls_hold_and_shape_the_others() {
        let mut rack = RackPlant::new(&cal(), &RackTopology::shared_plenum(4)).unwrap();
        let powers = vec![Watts::new(140.8); 4];
        rack.equilibrate(&powers, &[Rpm::new(4000.0), Rpm::new(4000.0)]);
        let mut descent = RackEnergyDescent::date14_rack();

        // Freeze the right wall at a starved speed: the left wall must be
        // sized higher than it would be with the right wall free, because
        // the shared air arrives hotter.
        seeded(&mut descent, &rack);
        descent.descend(&rack, &powers, bounds(), 0, &mut Recorder::disarmed());
        let free_left = descent.target(0);

        seeded(&mut descent, &rack);
        descent.seed(1, Rpm::new(1000.0));
        descent.freeze(1);
        descent.descend(&rack, &powers, bounds(), 0, &mut Recorder::disarmed());
        assert!(descent.is_frozen(1));
        assert_eq!(descent.target(1), Rpm::new(1000.0), "frozen wall must not move");
        assert!(
            descent.target(0) > free_left + 50.0,
            "left wall ignored the starved neighbour: {} vs free {}",
            descent.target(0),
            free_left
        );
    }

    #[test]
    fn slotless_zone_descends_to_the_lower_bound() {
        let topo = RackTopology::shared_plenum(1); // right wall over empty bays
        let mut rack = RackPlant::new(&cal(), &topo).unwrap();
        let powers = vec![Watts::new(140.8); 1];
        rack.equilibrate(&powers, &[Rpm::new(4000.0), Rpm::new(4000.0)]);
        let mut descent = RackEnergyDescent::date14_rack();
        seeded(&mut descent, &rack);
        descent.descend(&rack, &powers, bounds(), 0, &mut Recorder::disarmed());
        assert_eq!(descent.target(1), bounds().lo(), "empty wall idles at the lower bound");
    }
}
