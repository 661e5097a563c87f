//! Rack study (extension): the full rack control matrix — global lockstep
//! vs the coordinated two-layer controller, its single-step / E-coord
//! lifts, and the two rack-native modes (rack-global energy descent, work
//! migration) — on rack-scale plants.
//!
//! The paper's global controller manages one fan from one aggregated,
//! non-ideal reading. Scaled to a rack without thought — one PID pairing
//! the rack-wide max measurement with the *fastest* wall's speed (not the
//! hottest zone's; under lockstep the fastest wall is simply the one
//! whose slew got furthest) and driving every wall to the same target,
//! one deadzone capper capping *every* socket — it overpays twice: the
//! cool wall spins as fast as the hot one (fan power is cubic in speed),
//! and one hot socket caps the whole rack. The coordinated modes
//! (`gfsc_coord::RackLoopSim`) run each zone's fan loop on its own
//! aggregate and each socket's adjustable-gain integral capper under a
//! rack coordinator; `coordinated+ss` adds the per-zone single-step bank
//! (Section V-C per zone) and `coordinated+e-coord` replaces the PID/
//! capper pair with the energy-first per-zone descent, each wall sized by
//! the rack's min-safe inversion with the other walls at their actual
//! speeds. Two modes go beyond lifting the paper: `global-e-coord` sizes
//! *all* walls jointly against the full coupled rack
//! (`gfsc_coord::RackEnergyDescent`) instead of one at a time, and
//! `coordinated+migrate` shifts a hot server's demand weight to a
//! headroomed server behind another wall before the capper bank cuts
//! anything (`gfsc_coord::WorkMigrator`, after Van Damme's thermal-aware
//! scheduling). This study quantifies the matrix, mean ± 95 % CI over
//! seeds.

use crate::markdown_table;
use crate::sweep::{aggregate_over_seeds, ScenarioGrid, SeedStats};
use gfsc_coord::RackControl;
use gfsc_rack::RackTopology;
use gfsc_units::Seconds;

/// Configuration of the rack study.
#[derive(Debug, Clone, PartialEq)]
pub struct RackStudyConfig {
    /// Simulated duration per cell.
    pub horizon: Seconds,
    /// Workload seeds (metrics aggregate to mean ± 95 % CI over this axis).
    pub seeds: Vec<u64>,
    /// The rack structures to compare.
    pub racks: Vec<RackTopology>,
    /// The control modes, matrix order. The default reports the full
    /// seven-row matrix ([`RackControl::ALL`]).
    pub controls: Vec<RackControl>,
}

impl Default for RackStudyConfig {
    fn default() -> Self {
        Self {
            horizon: Seconds::new(1800.0),
            seeds: vec![42, 43, 44],
            racks: vec![RackTopology::rack_1u_x8(), RackTopology::rack_2u_x4()],
            controls: RackControl::ALL.to_vec(),
        }
    }
}

/// One (rack, control) cell's aggregated outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RackRow {
    /// The rack's display label.
    pub rack: String,
    /// The control mode this row ran.
    pub control: RackControl,
    /// Human-readable control-mode name ([`RackControl::label`]).
    pub name: &'static str,
    /// Violated socket-epochs percentage across seeds.
    pub violation_percent: SeedStats,
    /// Fan-wall energy (joules) across seeds.
    pub fan_energy_j: SeedStats,
    /// CPU energy (joules) across seeds.
    pub cpu_energy_j: SeedStats,
    /// Lost utilization across seeds.
    pub lost_utilization: SeedStats,
}

impl RackRow {
    /// Mean total (fan + CPU) energy across seeds — what the migration
    /// study trades violations against.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.fan_energy_j.mean + self.cpu_energy_j.mean
    }
}

/// Runs the study: one grid per rack, every control × seed cell fanned
/// out by the sweep engine through the rack-control axis.
///
/// # Panics
///
/// Panics if any config axis is empty.
#[must_use]
pub fn run(config: &RackStudyConfig) -> Vec<RackRow> {
    assert!(!config.racks.is_empty(), "need at least one rack");
    assert!(!config.controls.is_empty(), "need at least one control mode");
    let mut rows = Vec::new();
    for rack in &config.racks {
        let results = ScenarioGrid::builder()
            .horizon(config.horizon)
            .seeds(&config.seeds)
            .rack_variant(rack.clone())
            .rack_controls(&config.controls)
            .build()
            .run();
        let aggregated = aggregate_over_seeds(&results);
        assert_eq!(aggregated.len(), config.controls.len(), "one aggregate per control");
        for (cell, &control) in aggregated.into_iter().zip(&config.controls) {
            rows.push(RackRow {
                rack: rack.label().to_owned(),
                control,
                name: control.label(),
                violation_percent: cell.violation_percent,
                fan_energy_j: cell.fan_energy_j,
                cpu_energy_j: cell.cpu_energy_j,
                lost_utilization: cell.lost_utilization,
            });
        }
    }
    rows
}

/// Renders the study as a markdown table.
#[must_use]
pub fn to_markdown(rows: &[RackRow]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.rack.clone(),
                r.name.to_owned(),
                format!("{:.2} ± {:.2}", r.violation_percent.mean, r.violation_percent.ci95),
                format!("{:.0} ± {:.0}", r.fan_energy_j.mean, r.fan_energy_j.ci95),
                format!("{:.0} ± {:.0}", r.cpu_energy_j.mean, r.cpu_energy_j.ci95),
                format!("{:.0}", r.total_energy_j()),
                format!("{:.2} ± {:.2}", r.lost_utilization.mean, r.lost_utilization.ci95),
            ]
        })
        .collect();
    markdown_table(
        &[
            "Rack",
            "Control",
            "Violation %",
            "Fan energy (J)",
            "CPU energy (J)",
            "Total (J)",
            "Lost util (u·epochs)",
        ],
        &cells,
    )
}

/// The imbalanced-load rack the migration study runs on: the choked-rear
/// geometry with the overload parked on the worst-breathing (rear) wall —
/// `with_load_weights` shifts 40 % extra demand onto one rear 2U server.
#[must_use]
pub fn imbalanced_choked_rack() -> RackTopology {
    let spread = (4.0 - 1.4) / 3.0;
    RackTopology::choked_rear_x4().with_load_weights(&[spread, spread, 1.4, spread])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinated_beats_the_naive_global_loop() {
        // The acceptance contract of the rack subsystem: on a ≥2-zone,
        // ≥4-server rack the coordinated controller spends less fan energy
        // at equal-or-fewer violations than the global lockstep loop.
        let rows = run(&RackStudyConfig {
            horizon: Seconds::new(900.0),
            seeds: vec![42, 43],
            racks: vec![RackTopology::rack_1u_x8()],
            controls: vec![
                RackControl::GlobalLockstep,
                RackControl::Coordinated { adaptive_reference: true },
            ],
        });
        assert_eq!(rows.len(), 2);
        let global = rows.iter().find(|r| r.name == "lockstep").unwrap();
        let coord = rows.iter().find(|r| r.name == "coordinated+adaptive").unwrap();
        assert!(
            coord.fan_energy_j.mean < global.fan_energy_j.mean,
            "coordinated {} J not below global {} J",
            coord.fan_energy_j.mean,
            global.fan_energy_j.mean
        );
        assert!(
            coord.violation_percent.mean <= global.violation_percent.mean + 1e-9,
            "coordinated {}% vs global {}%",
            coord.violation_percent.mean,
            global.violation_percent.mean
        );
        // The CI is reported (non-NaN) for every metric.
        assert!(coord.fan_energy_j.ci95.is_finite());
        let md = to_markdown(&rows);
        assert_eq!(md.lines().count(), 4);
    }

    #[test]
    fn ss_and_ecoord_modes_dominate_the_lockstep_baseline() {
        // The lifted solutions must each strictly dominate global lockstep
        // on fan energy at equal-or-fewer violated socket-epochs — the
        // full-matrix acceptance contract, on both stock racks.
        let rows = run(&RackStudyConfig {
            horizon: Seconds::new(1800.0),
            seeds: vec![42, 43],
            racks: vec![RackTopology::rack_1u_x8(), RackTopology::rack_2u_x4()],
            controls: vec![
                RackControl::GlobalLockstep,
                RackControl::CoordinatedSsFan { adaptive_reference: true },
                RackControl::CoordinatedECoord,
            ],
        });
        for rack in ["1Ux8", "2Ux4"] {
            let lockstep = rows.iter().find(|r| r.rack == rack && r.name == "lockstep").unwrap();
            for name in ["coordinated+ss", "coordinated+e-coord"] {
                let row = rows.iter().find(|r| r.rack == rack && r.name == name).unwrap();
                assert!(
                    row.fan_energy_j.mean < lockstep.fan_energy_j.mean,
                    "{rack}/{name} {} J not strictly below lockstep {} J",
                    row.fan_energy_j.mean,
                    lockstep.fan_energy_j.mean
                );
                assert!(
                    row.violation_percent.mean <= lockstep.violation_percent.mean + 1e-9,
                    "{rack}/{name} {}% vs lockstep {}%",
                    row.violation_percent.mean,
                    lockstep.violation_percent.mean
                );
            }
        }
    }

    #[test]
    fn global_descent_dominates_the_per_zone_descent_where_walls_couple() {
        // The rack-global tentpole contract: on the shared-plenum rack —
        // whose two walls breathe one strongly-tied air volume, so each
        // wall's minimum safe speed moves by hundreds of rpm with the
        // other wall's speed — sizing all walls jointly must strictly beat
        // sizing each against a frozen snapshot of the other, on fan
        // energy at equal-or-fewer violated socket-epochs (mean over
        // seeds).
        let rows = run(&RackStudyConfig {
            horizon: Seconds::new(1800.0),
            seeds: vec![42, 43, 44],
            racks: vec![RackTopology::shared_plenum(4)],
            controls: vec![RackControl::CoordinatedECoord, RackControl::GlobalECoord],
        });
        let zone = rows.iter().find(|r| r.name == "coordinated+e-coord").unwrap();
        let global = rows.iter().find(|r| r.name == "global-e-coord").unwrap();
        assert!(
            global.fan_energy_j.mean < zone.fan_energy_j.mean,
            "global descent {} J not strictly below per-zone {} J",
            global.fan_energy_j.mean,
            zone.fan_energy_j.mean
        );
        assert!(
            global.violation_percent.mean <= zone.violation_percent.mean + 1e-9,
            "global descent {}% vs per-zone {}%",
            global.violation_percent.mean,
            zone.violation_percent.mean
        );
    }

    #[test]
    fn migration_moves_work_instead_of_capping_it() {
        // The migration tentpole contract: on the imbalanced choked-rear
        // rack, shifting the hot rear server's weight to the headroomed
        // front wall must reduce violated socket-epochs at equal-or-less
        // total (fan + CPU) energy vs the purely-capping coordinated
        // controller (mean over seeds) — the work gets *done*, cheaper.
        let rows = run(&RackStudyConfig {
            horizon: Seconds::new(1800.0),
            seeds: vec![42, 43, 44],
            racks: vec![imbalanced_choked_rack()],
            controls: vec![
                RackControl::Coordinated { adaptive_reference: true },
                RackControl::MigratingCoordinated { adaptive_reference: true },
            ],
        });
        let coord = rows.iter().find(|r| r.name == "coordinated+adaptive").unwrap();
        let migrate = rows.iter().find(|r| r.name == "coordinated+migrate").unwrap();
        assert!(
            migrate.violation_percent.mean < coord.violation_percent.mean,
            "migration {}% not below coordinated {}%",
            migrate.violation_percent.mean,
            coord.violation_percent.mean
        );
        assert!(
            migrate.total_energy_j() <= coord.total_energy_j(),
            "migration total {} J above coordinated {} J",
            migrate.total_energy_j(),
            coord.total_energy_j()
        );
        // And it loses strictly less work to capping.
        assert!(migrate.lost_utilization.mean < coord.lost_utilization.mean);
    }
}
