//! Per-zone E-coord descent: the energy-first baseline lifted to fan
//! zones.
//!
//! The single-server [`EnergyAwareCoordinator`] picks the cheapest
//! corrective knob from one measurement and one thermal model. A rack
//! runs the same policy per fan zone: each zone's measurement drives the
//! zone's cap (applied to every socket the zone serves), and each zone's
//! fan wall is sized by model inversion **through the zone's own
//! [`PlantModel`] view** (`RackPlant::zone_plant` — steady-state probes
//! plus the min-safe inversion, the rest of the rack frozen at its
//! current operating point). The decision logic is the single-server
//! coordinator's own methods ([`EnergyAwareCoordinator::
//! next_cap`], `is_emergency`, `fan_sizing_limit`), not a copy — a
//! single-zone, no-plenum rack therefore replays the single-server
//! E-coord trace bit for bit (`crates/coord/tests/rack_degenerate.rs`).

use crate::EnergyAwareCoordinator;
use gfsc_thermal::PlantModel;
use gfsc_units::{Bounds, Celsius, Rpm, Utilization, Watts};

/// The per-zone E-coord policy: one [`EnergyAwareCoordinator`] rule set
/// evaluated against every zone's measurement and plant view.
///
/// # Examples
///
/// ```
/// use gfsc_coord::ZoneEnergyCoordinator;
/// use gfsc_units::{Celsius, Utilization};
///
/// let zc = ZoneEnergyCoordinator::date14();
/// // A zone at its emergency limit cuts its cap…
/// let cap = zc.next_cap(Celsius::new(80.0), Utilization::new(0.7));
/// assert!(cap < Utilization::new(0.7));
/// // …a cool zone restores performance.
/// assert!(zc.next_cap(Celsius::new(77.0), cap) > cap);
/// ```
#[derive(Debug, Clone)]
pub struct ZoneEnergyCoordinator {
    policy: EnergyAwareCoordinator,
}

impl ZoneEnergyCoordinator {
    /// Wraps the given single-server rule set.
    #[must_use]
    pub fn new(policy: EnergyAwareCoordinator) -> Self {
        Self { policy }
    }

    /// The Table III calibration ([`EnergyAwareCoordinator::date14`]) per
    /// zone, verbatim — including the structural trap the paper
    /// criticizes (fan sized for 79 °C, recovery only below 78 °C, so a
    /// capped zone stays capped until the load itself drops).
    #[must_use]
    pub fn date14() -> Self {
        Self::new(EnergyAwareCoordinator::date14())
    }

    /// The rack calibration: the same rule set with the fan margin opened
    /// to 4 K, so each wall is sized for 76 °C — *below* the 78 °C
    /// recovery threshold. The zone's own airflow then produces the
    /// recovery state after a thermal event and caps restore without
    /// waiting for the load to drop, which is what lets the zone descent
    /// hold equal-or-fewer violations than the lockstep baseline (on the
    /// 2U boards too, whose downstream sockets overshoot hardest) while
    /// still running far leaner than a 75 °C PID on every wall. (The
    /// single-server `date14` margin of 1 K is kept for the Table III
    /// reproduction, trap included.)
    #[must_use]
    pub fn date14_rack() -> Self {
        Self::new(EnergyAwareCoordinator::new(
            Celsius::new(80.0),
            4.0,
            Celsius::new(78.0),
            0.03,
            0.10,
            Utilization::new(0.10),
        ))
    }

    /// The underlying rule set.
    #[must_use]
    pub fn policy(&self) -> &EnergyAwareCoordinator {
        &self.policy
    }

    /// The zone's cap for the next epoch — [`EnergyAwareCoordinator::
    /// next_cap`] on the zone measurement, verbatim.
    #[must_use]
    pub fn next_cap(&self, measured: Celsius, current: Utilization) -> Utilization {
        self.policy.next_cap(measured, current)
    }

    /// The zone's fan command this epoch, if any: during an emergency the
    /// fan only moves (to maximum) once the zone cap is pinned at its
    /// floor; otherwise, at fan epochs, the wall runs the cheapest speed
    /// whose steady state keeps the zone's hottest junction at the sizing
    /// limit — the min-safe inversion through the zone view, at the
    /// powers the zone's sockets are *currently executing*. A slotless
    /// zone idles its wall at the lower bound (nothing to cool).
    ///
    /// `current_cap` is the cap in force *before* [`Self::next_cap`] is
    /// applied, matching the single-server arbitration order.
    #[must_use]
    pub fn fan_command<M: PlantModel>(
        &self,
        view: &M,
        executing_powers: &[Watts],
        measured: Celsius,
        current_cap: Utilization,
        fan_epoch: bool,
        fan_bounds: Bounds<Rpm>,
    ) -> Option<Rpm> {
        if self.policy.is_emergency(measured) {
            (current_cap <= self.policy.cap_floor()).then(|| fan_bounds.hi())
        } else if fan_epoch {
            if view.socket_count() == 0 {
                return Some(fan_bounds.lo());
            }
            let speed = view
                .min_safe_fan_speed(executing_powers, self.policy.fan_sizing_limit())
                .unwrap_or(fan_bounds.hi());
            Some(fan_bounds.clamp(speed))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfsc_rack::{RackPlant, RackTopology};
    use gfsc_thermal::{HeatSinkLaw, PlantCalibration, Topology};
    use gfsc_units::{KelvinPerWatt, Seconds};

    fn rpm_bounds() -> Bounds<Rpm> {
        Bounds::new(Rpm::new(1000.0), Rpm::new(8500.0))
    }

    fn rack() -> RackPlant {
        let cal = PlantCalibration {
            ambient: Celsius::new(30.0),
            law: HeatSinkLaw::date14(),
            sink_tau: Seconds::new(60.0),
            tau_speed: Rpm::new(8500.0),
            r_jc: KelvinPerWatt::new(0.10),
            die_tau: Seconds::new(0.1),
        };
        RackPlant::new(&cal, &RackTopology::rack_1u_x8()).unwrap()
    }

    #[test]
    fn cap_policy_is_the_single_server_policy() {
        let zc = ZoneEnergyCoordinator::date14();
        let single = EnergyAwareCoordinator::date14();
        for (t, cap) in [(80.0, 0.7), (80.0, 0.10), (77.0, 0.5), (79.0, 0.5), (95.0, 0.9)] {
            let (t, cap) = (Celsius::new(t), Utilization::new(cap));
            assert_eq!(
                zc.next_cap(t, cap).value().to_bits(),
                single.next_cap(t, cap).value().to_bits(),
                "at {t} / {cap:?}"
            );
        }
    }

    #[test]
    fn emergency_raises_fan_only_at_the_cap_floor() {
        let mut rack = rack();
        let powers = vec![Watts::new(140.8); 4];
        let zc = ZoneEnergyCoordinator::date14();
        let view = rack.zone_plant(1);
        // Cap can still move: no fan action.
        let cmd = zc.fan_command(
            &view,
            &powers,
            Celsius::new(81.0),
            Utilization::new(0.7),
            true,
            rpm_bounds(),
        );
        assert_eq!(cmd, None);
        // Cap at the floor: the fan is the only knob left, every epoch.
        let cmd = zc.fan_command(
            &view,
            &powers,
            Celsius::new(81.0),
            Utilization::new(0.10),
            false,
            rpm_bounds(),
        );
        assert_eq!(cmd, Some(Rpm::new(8500.0)));
    }

    #[test]
    fn sizes_the_zone_fan_from_the_view_at_fan_epochs() {
        let mut rack = rack();
        let all = vec![Watts::new(140.8); 8];
        rack.equilibrate(&all, &[Rpm::new(4000.0), Rpm::new(4000.0)]);
        let powers = vec![Watts::new(140.8); 4];
        let zc = ZoneEnergyCoordinator::date14();
        let view = rack.zone_plant(1);
        let expected = view.min_safe_fan_speed(&powers, zc.policy().fan_sizing_limit()).unwrap();
        let cmd = zc
            .fan_command(&view, &powers, Celsius::new(76.0), Utilization::FULL, true, rpm_bounds())
            .expect("fan epoch");
        assert_eq!(cmd.value().to_bits(), rpm_bounds().clamp(expected).value().to_bits());
        // Not a fan epoch, not an emergency: the fan holds.
        let none = zc.fan_command(
            &view,
            &powers,
            Celsius::new(76.0),
            Utilization::FULL,
            false,
            rpm_bounds(),
        );
        assert_eq!(none, None);
    }

    #[test]
    fn slotless_zone_idles_its_wall() {
        let cal = PlantCalibration {
            ambient: Celsius::new(30.0),
            law: HeatSinkLaw::date14(),
            sink_tau: Seconds::new(60.0),
            tau_speed: Rpm::new(8500.0),
            r_jc: KelvinPerWatt::new(0.10),
            die_tau: Seconds::new(0.1),
        };
        let topo = RackTopology::new(
            "partial",
            vec![
                gfsc_rack::RackZoneDef { name: "z0".to_owned(), fans: 1 },
                gfsc_rack::RackZoneDef { name: "z1".to_owned(), fans: 1 },
            ],
            vec![gfsc_rack::ServerSlot {
                name: "srv0".to_owned(),
                zone: 0,
                board: Topology::single_socket(),
                airflow_derate: 1.0,
                load_weight: 1.0,
            }],
            None,
        );
        let mut rack = RackPlant::new(&cal, &topo).unwrap();
        let zc = ZoneEnergyCoordinator::date14();
        let view = rack.zone_plant(1);
        let cmd =
            zc.fan_command(&view, &[], Celsius::new(30.0), Utilization::FULL, true, rpm_bounds());
        assert_eq!(cmd, Some(Rpm::new(1000.0)), "empty wall idles at the lower bound");
    }
}
