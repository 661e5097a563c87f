//! The explicit fan→link mapping: which airflow-dependent links follow
//! which fan.
//!
//! The original multi-socket plant hard-coded the rule "every sink→ambient
//! link follows *the* fan" — fine for one server with one fan, wrong for a
//! rack where front and rear fan walls each drive their own set of
//! convective paths. A [`FanZoneMap`] makes the association data: each
//! [`ZoneId`] owns a fan speed and the set of [`crate::RcNetwork`] links
//! whose resistance moves with that fan (each through its own, possibly
//! derated, [`HeatSinkLaw`]). The single-zone map reproduces the legacy
//! behavior exactly; a server's board, compiled as the one-slot
//! [`crate::RackPlant`], is routed through it.
//!
//! # Examples
//!
//! ```
//! use gfsc_thermal::{FanZoneMap, HeatSinkLaw, RcNetworkBuilder};
//! use gfsc_units::{Celsius, JoulesPerKelvin, KelvinPerWatt, Rpm, Seconds, Watts};
//!
//! let law = HeatSinkLaw::date14();
//! let mut net = RcNetworkBuilder::new()
//!     .node("sink", JoulesPerKelvin::new(300.0), Celsius::new(30.0))
//!     .boundary("ambient", Celsius::new(30.0))
//!     .link("sink", "ambient", law.resistance(Rpm::new(8500.0)))
//!     .build()?;
//! let mut zones = FanZoneMap::new();
//! let front = zones.add_zone("front", Rpm::new(8500.0));
//! zones.attach(front, net.link_id("sink", "ambient")?, law);
//! // Slowing the zone fan re-parameterizes every attached link.
//! zones.set_fan(&mut net, front, Rpm::new(2000.0));
//! # Ok::<(), gfsc_thermal::NetworkError>(())
//! ```

use crate::heatsink::ResistanceAt;
use crate::{HeatSinkLaw, LinkId, RcNetwork, SteadyStateScratch};
use gfsc_units::{KelvinPerWatt, Rpm};

/// Identifier of a fan zone inside a [`FanZoneMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ZoneId(usize);

impl ZoneId {
    /// The zone's position in [`FanZoneMap`] insertion order.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
struct ZoneEntry {
    name: String,
    /// Every airflow-dependent link this zone's fan drives, each through
    /// its own (derated) resistance law.
    links: Vec<(LinkId, HeatSinkLaw)>,
    fan: Rpm,
}

/// The fan→link mapping of a zoned thermal network.
///
/// Owns no network state beyond the association; [`FanZoneMap::set_fan`]
/// pushes a zone's speed into the network by re-parameterizing every
/// attached link (the setter skips unchanged conductances, so a held fan
/// speed keeps the network's LU factorization warm).
#[derive(Debug, Clone, Default)]
pub struct FanZoneMap {
    zones: Vec<ZoneEntry>,
}

impl FanZoneMap {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a zone whose fan starts at `initial_fan`.
    pub fn add_zone(&mut self, name: impl Into<String>, initial_fan: Rpm) -> ZoneId {
        self.zones.push(ZoneEntry { name: name.into(), links: Vec::new(), fan: initial_fan });
        ZoneId(self.zones.len() - 1)
    }

    /// Attaches an airflow-dependent link to a zone: from now on the link's
    /// resistance is `law.resistance(zone fan speed)`.
    ///
    /// # Panics
    ///
    /// Panics if `zone` does not belong to this map.
    pub fn attach(&mut self, zone: ZoneId, link: LinkId, law: HeatSinkLaw) {
        self.zones[zone.0].links.push((link, law));
    }

    /// Number of zones.
    #[must_use]
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// The zone's display name.
    ///
    /// # Panics
    ///
    /// Panics if `zone` does not belong to this map.
    #[must_use]
    pub fn zone_name(&self, zone: ZoneId) -> &str {
        &self.zones[zone.0].name
    }

    /// Number of links the zone's fan drives.
    ///
    /// # Panics
    ///
    /// Panics if `zone` does not belong to this map.
    #[must_use]
    pub fn link_count(&self, zone: ZoneId) -> usize {
        self.zones[zone.0].links.len()
    }

    /// The fan speed most recently applied to (or declared for) the zone.
    ///
    /// # Panics
    ///
    /// Panics if `zone` does not belong to this map.
    #[must_use]
    pub fn fan(&self, zone: ZoneId) -> Rpm {
        self.zones[zone.0].fan
    }

    /// Sets the zone's fan speed, re-parameterizing every attached link in
    /// `net`. Allocation-free; unchanged speeds leave the network's cached
    /// factorization untouched.
    ///
    /// # Panics
    ///
    /// Panics if `zone` does not belong to this map or a link handle does
    /// not belong to `net`.
    pub fn set_fan(&mut self, net: &mut RcNetwork, zone: ZoneId, fan: Rpm) {
        let entry = &mut self.zones[zone.0];
        if entry.fan == fan {
            // The attached links already hold `law.resistance(fan)` for this
            // exact speed; re-deriving them would set identical resistances.
            return;
        }
        entry.fan = fan;
        // Consecutive links often share one law (a fin array breathing the
        // same derated airflow): evaluate the power law once per run.
        let mut last: Option<(HeatSinkLaw, KelvinPerWatt)> = None;
        for (link, law) in &entry.links {
            let r = match last {
                Some((cached_law, r)) if cached_law == *law => r,
                _ => {
                    let r = law.resistance(fan);
                    last = Some((*law, r));
                    r
                }
            };
            net.set_link_resistance_by_id(*link, r);
        }
    }

    /// Appends the link-resistance overrides a steady-state probe would
    /// need to evaluate the zone at a hypothetical fan speed, without
    /// touching the live network (pairs with
    /// [`RcNetwork::steady_state_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `zone` does not belong to this map.
    pub fn extend_overrides(&self, zone: ZoneId, fan: Rpm, out: &mut Vec<(LinkId, KelvinPerWatt)>) {
        // Every link of a zone breathes the same fan, and laws derated
        // from one base share its exponent: one `powf` serves the run.
        let mut at = ResistanceAt::new(fan);
        for (link, law) in &self.zones[zone.0].links {
            out.push((*link, at.of(law)));
        }
    }

    /// Applies the zone's links at `fan` to a probe's conductance table,
    /// each unless an earlier override claimed it — what
    /// [`Self::extend_overrides`] followed by
    /// [`RcNetwork::steady_state_with_into`] would resolve, without the
    /// list.
    pub(crate) fn override_probe(&self, zone: ZoneId, fan: Rpm, probe: &mut SteadyStateScratch) {
        let mut at = ResistanceAt::new(fan);
        for (link, law) in &self.zones[zone.0].links {
            if probe.claim(*link) {
                probe.set_link(*link, at.of(law));
            }
        }
    }

    /// Claims the zone's links in a probe's conductance table for a fan
    /// sweep, appending to `swept` each link (with its law) this zone's
    /// override would win — the links every probe of the sweep rewrites.
    pub(crate) fn claim_for_sweep(
        &self,
        zone: ZoneId,
        probe: &mut SteadyStateScratch,
        swept: &mut Vec<(LinkId, HeatSinkLaw)>,
    ) {
        for &(link, law) in &self.zones[zone.0].links {
            if probe.claim(link) {
                swept.push((link, law));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RcNetworkBuilder;
    use gfsc_units::{Celsius, JoulesPerKelvin, Seconds, Watts};

    fn law() -> HeatSinkLaw {
        HeatSinkLaw::date14()
    }

    /// Two sinks behind one boundary; front zone drives sink-a, rear zone
    /// drives sink-b.
    fn two_zone_world() -> (RcNetwork, FanZoneMap, ZoneId, ZoneId) {
        let net = RcNetworkBuilder::new()
            .node("sink-a", JoulesPerKelvin::new(300.0), Celsius::new(30.0))
            .node("sink-b", JoulesPerKelvin::new(300.0), Celsius::new(30.0))
            .boundary("ambient", Celsius::new(30.0))
            .link("sink-a", "ambient", law().resistance(Rpm::new(8500.0)))
            .link("sink-b", "ambient", law().resistance(Rpm::new(8500.0)))
            .build()
            .unwrap();
        let mut zones = FanZoneMap::new();
        let front = zones.add_zone("front", Rpm::new(8500.0));
        let rear = zones.add_zone("rear", Rpm::new(8500.0));
        let mut zones2 = zones;
        zones2.attach(front, net.link_id("sink-a", "ambient").unwrap(), law());
        zones2.attach(rear, net.link_id("sink-b", "ambient").unwrap(), law());
        (net, zones2, front, rear)
    }

    #[test]
    fn zones_drive_only_their_own_links() {
        let (mut net, mut zones, front, rear) = two_zone_world();
        let a = net.node_id("sink-a").unwrap();
        let b = net.node_id("sink-b").unwrap();
        net.set_power(a, Watts::new(100.0));
        net.set_power(b, Watts::new(100.0));
        // Slow the front fan only: sink-a must settle hotter than sink-b.
        zones.set_fan(&mut net, front, Rpm::new(1500.0));
        zones.set_fan(&mut net, rear, Rpm::new(8500.0));
        let ss = net.steady_state();
        assert!(
            ss[a.index()].value() > ss[b.index()].value() + 3.0,
            "front sink {} not hotter than rear {}",
            ss[a.index()],
            ss[b.index()]
        );
        assert_eq!(zones.fan(front), Rpm::new(1500.0));
        assert_eq!(zones.fan(rear), Rpm::new(8500.0));
    }

    #[test]
    fn accessors_and_ids() {
        let (_, zones, front, rear) = two_zone_world();
        assert_eq!(zones.zone_count(), 2);
        assert_eq!(zones.zone_name(front), "front");
        assert_eq!(zones.zone_name(rear), "rear");
        assert_eq!(zones.link_count(front), 1);
        assert_eq!(front.index(), 0);
    }

    #[test]
    fn single_zone_matches_direct_link_updates() {
        // The legacy rule as a one-zone map: bitwise-identical trajectories
        // to re-parameterizing the link by hand.
        let build = || {
            RcNetworkBuilder::new()
                .node("die", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
                .node("sink", JoulesPerKelvin::new(300.0), Celsius::new(30.0))
                .boundary("ambient", Celsius::new(30.0))
                .link("die", "sink", KelvinPerWatt::new(0.1))
                .link("sink", "ambient", law().resistance(Rpm::new(8500.0)))
                .build()
                .unwrap()
        };
        let mut zoned = build();
        let mut manual = build();
        let die = zoned.node_id("die").unwrap();
        zoned.set_power(die, Watts::new(120.0));
        manual.set_power(die, Watts::new(120.0));
        let link = zoned.link_id("sink", "ambient").unwrap();
        let mut zones = FanZoneMap::new();
        let z0 = zones.add_zone("z0", Rpm::new(8500.0));
        zones.attach(z0, link, law());
        for k in 0..400 {
            let fan = Rpm::new(2000.0 + 10.0 * f64::from(k % 100));
            zones.set_fan(&mut zoned, z0, fan);
            manual.set_link_resistance_by_id(link, law().resistance(fan));
            zoned.step(Seconds::new(0.5));
            manual.step(Seconds::new(0.5));
            assert_eq!(
                zoned.temperature(die).value().to_bits(),
                manual.temperature(die).value().to_bits(),
                "diverged at step {k}"
            );
        }
    }

    #[test]
    fn overrides_match_attached_laws() {
        let (net, zones, front, _) = two_zone_world();
        let mut overrides = Vec::new();
        zones.extend_overrides(front, Rpm::new(3000.0), &mut overrides);
        assert_eq!(overrides.len(), 1);
        assert_eq!(overrides[0].0, net.link_id("sink-a", "ambient").unwrap());
        assert_eq!(overrides[0].1, law().resistance(Rpm::new(3000.0)));
    }
}
