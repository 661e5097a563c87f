//! Work migration: move the job, not the cap (after Van Damme et al.'s
//! thermal-aware scheduling, PAPERS.md).
//!
//! Every capping path in this crate answers a hot socket the same way: cut
//! its utilization and eat the lost work. A rack has a cheaper knob that a
//! single server does not — *placement*. When one server runs hot while a
//! server behind another fan wall has thermal headroom, shifting a slice
//! of the hot server's demand weight to the cool one removes the heat from
//! where removing it is expensive (a derated, plenum-loaded wall spinning
//! cubically-priced fans) and re-creates it where it is cheap, without
//! dropping the work at all.
//!
//! [`WorkMigrator`] is the budgeted, reversible version of that idea,
//! layered *in front of* the capper bank: it acts at most
//! `migrations_per_epoch` times per control epoch, always from the hottest
//! over-threshold server (mirroring the [`crate::CappingCoordinator`]'s
//! hottest-first discipline), only into a server in a *different* fan zone
//! with at least `headroom` kelvin of margin, and it keeps a ledger so
//! every shift is undone once the source has genuinely cooled — a
//! transient spike migrates out and migrates back, it does not silently
//! rebalance the rack forever. The weight moves through
//! [`gfsc_rack::RackServer::shift_load_weight`], which conserves the
//! rack-wide weight sum: total demand is unchanged, only its placement.
//!
//! The ledger is a fixed-capacity vector sized at construction, so the
//! epoch loop stays allocation-free in the migrating mode
//! (`tests/alloc_free_rack.rs`).

use crate::RackView;
use gfsc_obs::{EventKind, Recorder, Source};
use gfsc_units::Celsius;

/// One outstanding weight shift (recorded so it can be reversed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Migration {
    /// The (then-hot) server that shed the weight.
    pub from: usize,
    /// The headroomed server that absorbed it.
    pub to: usize,
    /// The demand weight moved.
    pub weight: f64,
}

/// The budgeted, reversible load-weight migrator.
///
/// # Examples
///
/// ```
/// use gfsc_coord::WorkMigrator;
///
/// let migrator = WorkMigrator::date14_rack();
/// assert_eq!(migrator.outstanding().len(), 0);
/// ```
#[derive(Debug)]
pub struct WorkMigrator {
    /// A server at or above this (measured) temperature is a migration
    /// source candidate.
    hot_threshold: Celsius,
    /// A target must read at least this many kelvin below `hot_threshold`.
    headroom: f64,
    /// A source that has cooled to or below this reclaims its weight.
    cool_threshold: Celsius,
    /// Demand weight moved per migration.
    step: f64,
    /// At most this many shifts are outstanding at once (the ledger
    /// capacity — and therefore the allocation-free bound).
    max_outstanding: usize,
    /// At most this many new shifts per control epoch.
    migrations_per_epoch: usize,
    ledger: Vec<Migration>,
}

impl Clone for WorkMigrator {
    /// Hand-written so the clone keeps the ledger's *capacity*, not just
    /// its contents — `Vec::clone` allocates only for the current length,
    /// which would void the allocation-free contract the first time a
    /// cloned migrator (e.g. the one `RackLoopSimBuilder::build` takes
    /// from the builder) pushes its first shift mid-run.
    fn clone(&self) -> Self {
        let mut ledger = Vec::with_capacity(self.max_outstanding);
        ledger.extend_from_slice(&self.ledger);
        Self {
            hot_threshold: self.hot_threshold,
            headroom: self.headroom,
            cool_threshold: self.cool_threshold,
            step: self.step,
            max_outstanding: self.max_outstanding,
            migrations_per_epoch: self.migrations_per_epoch,
            ledger,
        }
    }
}

impl WorkMigrator {
    /// Creates the migrator.
    ///
    /// # Panics
    ///
    /// Panics if `headroom` or `step` is not positive, `cool_threshold`
    /// is not below `hot_threshold`, or either budget is zero.
    #[must_use]
    pub fn new(
        hot_threshold: Celsius,
        headroom: f64,
        cool_threshold: Celsius,
        step: f64,
        max_outstanding: usize,
        migrations_per_epoch: usize,
    ) -> Self {
        assert!(headroom > 0.0, "target headroom must be positive");
        assert!(step > 0.0, "migration step must be positive");
        assert!(
            cool_threshold < hot_threshold,
            "cool-down threshold must sit below the hot threshold (hysteresis)"
        );
        assert!(max_outstanding > 0, "ledger capacity must be positive");
        assert!(migrations_per_epoch > 0, "per-epoch budget must be positive");
        Self {
            hot_threshold,
            headroom,
            cool_threshold,
            step,
            max_outstanding,
            migrations_per_epoch,
            ledger: Vec::with_capacity(max_outstanding),
        }
    }

    /// The rack calibration: sources at the capper bank's 79 °C reference
    /// (migration fires exactly where capping otherwise would), targets
    /// with 3 K of headroom, reclaim below 76 °C, 0.2 weight per step,
    /// at most **two** outstanding shifts and one new shift per epoch.
    /// The tight ledger is deliberate: a displaced slice costs the
    /// receiving wall cubically-priced airflow for as long as it is
    /// outstanding, so the calibration shifts just enough to keep the hot
    /// server's demand under its cap through a load phase and no more —
    /// one knob at a time, like every arbitration layer in this crate.
    #[must_use]
    pub fn date14_rack() -> Self {
        Self::new(Celsius::new(79.0), 3.0, Celsius::new(76.0), 0.2, 2, 1)
    }

    /// The currently outstanding (not yet reverted) shifts, oldest first.
    #[must_use]
    pub fn outstanding(&self) -> &[Migration] {
        &self.ledger
    }

    /// The hottest measured socket of server `s`.
    fn server_hotness(server: &dyn RackView, measured: &[Celsius], s: usize) -> Celsius {
        let range = server.plant().server_sockets(s);
        let mut hottest = measured[range.start];
        for i in range {
            hottest = hottest.hotter(measured[i]);
        }
        hottest
    }

    /// The fan zone server `s` breathes from.
    fn zone_of_server(server: &dyn RackView, s: usize) -> usize {
        let range = server.plant().server_sockets(s);
        server.plant().zone_of_socket(range.start)
    }

    /// One control epoch: first reclaim every outstanding shift whose
    /// source has cooled below the reclaim threshold, then — within the
    /// per-epoch and ledger budgets — shed one step of weight from the
    /// hottest over-threshold server to the coolest headroomed server in
    /// another fan zone. Deterministic (ties break toward the lowest
    /// index) and allocation-free. Every shift (source and absorber
    /// temperatures) and every reversal lands in `rec` as `epoch`-stamped
    /// events (pass [`Recorder::disarmed`] to trace nothing).
    ///
    /// # Panics
    ///
    /// Panics if `measured` is not one entry per socket.
    pub fn rebalance(
        &mut self,
        server: &mut dyn RackView,
        measured: &[Celsius],
        epoch: u32,
        rec: &mut Recorder,
    ) {
        assert_eq!(measured.len(), server.socket_count(), "one measurement per socket");
        // Reclaim pass. A shift comes home when its source has genuinely
        // cooled — or when the *absorber* has itself crossed the hot
        // threshold (keeping the weight there would just hand the
        // violation to the target; undo it before the capper bank cuts a
        // server that was cool an epoch ago). Skipped only if the absorber
        // has since been drained by shifts of its own — then the entry
        // waits for a later epoch.
        let mut keep = 0;
        for k in 0..self.ledger.len() {
            let entry = self.ledger[k];
            let cooled = Self::server_hotness(server, measured, entry.from) <= self.cool_threshold;
            let refluxed = Self::server_hotness(server, measured, entry.to) >= self.hot_threshold;
            if (cooled || refluxed) && server.server_load_weight(entry.to) - entry.weight > 0.0 {
                server.shift_load_weight(entry.to, entry.from, entry.weight);
                rec.record(
                    epoch,
                    Source::Server(entry.from as u16),
                    EventKind::MigrationReverse,
                    Self::server_hotness(server, measured, entry.from).value(),
                );
            } else {
                self.ledger[keep] = entry;
                keep += 1;
            }
        }
        self.ledger.truncate(keep);

        // Migration pass, hottest source first.
        for _ in 0..self.migrations_per_epoch {
            if self.ledger.len() >= self.max_outstanding {
                break;
            }
            let mut source: Option<usize> = None;
            for s in 0..server.server_count() {
                let hotness = Self::server_hotness(server, measured, s);
                if hotness < self.hot_threshold || server.server_load_weight(s) - self.step <= 0.0 {
                    continue;
                }
                // Total order: a poisoned (NaN) hotness ranks above +∞,
                // so a blind server is shed *from* first, never hidden.
                if source.is_none_or(|best| {
                    hotness.total_cmp(&Self::server_hotness(server, measured, best)).is_gt()
                }) {
                    source = Some(s);
                }
            }
            let Some(from) = source else { break };
            let from_zone = Self::zone_of_server(server, from);
            let ceiling = self.hot_threshold - self.headroom;
            let mut target: Option<usize> = None;
            for s in 0..server.server_count() {
                if s == from || Self::zone_of_server(server, s) == from_zone {
                    continue;
                }
                // One outstanding shift per absorber: the sensor chain
                // lags the thermal response, so piling shifts onto the
                // still-cool-reading target would overload it (and its
                // wall's cubically-priced fans) before the first shift
                // even shows in its measurement.
                if self.ledger.iter().any(|m| m.to == s) {
                    continue;
                }
                let hotness = Self::server_hotness(server, measured, s);
                if hotness > ceiling {
                    continue;
                }
                // Total order: NaN never wins a min-selection, so a
                // blind server is never picked as the "coolest" absorber.
                if target.is_none_or(|best| {
                    hotness.total_cmp(&Self::server_hotness(server, measured, best)).is_lt()
                }) {
                    target = Some(s);
                }
            }
            let Some(to) = target else { break };
            server.shift_load_weight(from, to, self.step);
            self.ledger.push(Migration { from, to, weight: self.step });
            rec.record(
                epoch,
                Source::Server(from as u16),
                EventKind::MigrationShift,
                Self::server_hotness(server, measured, from).value(),
            );
            rec.record(
                epoch,
                Source::Server(to as u16),
                EventKind::MigrationAbsorb,
                Self::server_hotness(server, measured, to).value(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfsc_rack::{RackServer, RackSpec, RackTopology};

    fn rack() -> RackServer {
        RackServer::new(RackSpec::new(RackTopology::rack_1u_x8()))
    }

    /// Per-socket measurements: everyone at `base`, socket `hot` elevated.
    fn measured(n: usize, base: f64, hot: usize, t_hot: f64) -> Vec<Celsius> {
        let mut m = vec![Celsius::new(base); n];
        m[hot] = Celsius::new(t_hot);
        m
    }

    #[test]
    fn migrates_hottest_first_into_the_coolest_other_zone_server() {
        let mut server = rack();
        let mut migrator = WorkMigrator::date14_rack();
        // Sockets 1 and 2 (front wall) are hot, 2 hotter; socket 6 (rear
        // wall) is the coolest candidate.
        let mut m = measured(8, 74.0, 2, 81.0);
        m[1] = Celsius::new(80.0);
        m[6] = Celsius::new(70.0);
        migrator.rebalance(&mut server, &m, 0, &mut Recorder::disarmed());
        assert_eq!(
            migrator.outstanding(),
            &[Migration { from: 2, to: 6, weight: 0.2 }],
            "hottest source, coolest cross-zone target"
        );
        assert!((server.server_load_weight(2) - 0.8).abs() < 1e-12);
        assert!((server.server_load_weight(6) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn reverts_once_the_source_cools() {
        let mut server = rack();
        let mut migrator = WorkMigrator::date14_rack();
        migrator.rebalance(&mut server, &measured(8, 74.0, 0, 81.0), 0, &mut Recorder::disarmed());
        assert_eq!(migrator.outstanding().len(), 1);
        // Still warm (above the reclaim threshold): the shift holds.
        migrator.rebalance(&mut server, &measured(8, 74.0, 0, 77.5), 0, &mut Recorder::disarmed());
        assert_eq!(migrator.outstanding().len(), 1, "hysteresis band must hold the shift");
        // Cooled: the weight comes home, exactly.
        migrator.rebalance(&mut server, &measured(8, 74.0, 0, 75.0), 0, &mut Recorder::disarmed());
        assert_eq!(migrator.outstanding().len(), 0);
        for s in 0..server.server_count() {
            assert!((server.server_load_weight(s) - 1.0).abs() < 1e-12, "server {s}");
        }
    }

    #[test]
    fn budgets_bound_the_shifts() {
        let mut server = rack();
        // Ledger capacity 2, one shift per epoch.
        let mut migrator =
            WorkMigrator::new(Celsius::new(79.0), 3.0, Celsius::new(76.0), 0.1, 2, 1);
        let hot = measured(8, 82.0, 0, 83.0); // whole front wall hot…
        let mut m = hot.clone();
        m[4..8].fill(Celsius::new(70.0)); // …rear wall cool
        migrator.rebalance(&mut server, &m, 0, &mut Recorder::disarmed());
        assert_eq!(migrator.outstanding().len(), 1, "one shift per epoch");
        migrator.rebalance(&mut server, &m, 0, &mut Recorder::disarmed());
        assert_eq!(migrator.outstanding().len(), 2);
        migrator.rebalance(&mut server, &m, 0, &mut Recorder::disarmed());
        assert_eq!(migrator.outstanding().len(), 2, "ledger capacity caps the exposure");
    }

    #[test]
    fn never_migrates_within_a_zone_or_without_headroom() {
        let mut server = rack();
        let mut migrator = WorkMigrator::date14_rack();
        // The only cool server shares the hot server's zone: no move.
        let mut m = measured(8, 79.5, 0, 82.0);
        m[1] = Celsius::new(70.0);
        migrator.rebalance(&mut server, &m, 0, &mut Recorder::disarmed());
        assert_eq!(migrator.outstanding().len(), 0, "same-zone target must be rejected");
        // Every other-zone server is warm (inside the headroom band): no move.
        let m = measured(8, 77.0, 0, 82.0);
        migrator.rebalance(&mut server, &m, 0, &mut Recorder::disarmed());
        assert_eq!(migrator.outstanding().len(), 0, "no headroomed target, no migration");
    }

    #[test]
    fn repeated_shifts_never_drain_a_source() {
        let mut server = rack();
        let mut migrator =
            WorkMigrator::new(Celsius::new(79.0), 3.0, Celsius::new(76.0), 0.3, 8, 1);
        let mut m = measured(8, 70.0, 0, 82.0);
        m[0] = Celsius::new(82.0);
        for _ in 0..10 {
            migrator.rebalance(&mut server, &m, 0, &mut Recorder::disarmed());
        }
        assert!(
            server.server_load_weight(0) > 0.0,
            "source drained to {}",
            server.server_load_weight(0)
        );
        // 1.0 − 3×0.3 = 0.1 > 0, a fourth step would drain: exactly 3 land.
        assert_eq!(migrator.outstanding().len(), 3);
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_thresholds_rejected() {
        let _ = WorkMigrator::new(Celsius::new(76.0), 3.0, Celsius::new(79.0), 0.1, 4, 1);
    }

    #[test]
    fn clone_preserves_the_ledger_capacity() {
        // The allocation-free contract survives the builder's clone: a
        // cloned migrator's ledger must already hold its full capacity.
        let migrator = WorkMigrator::new(Celsius::new(79.0), 3.0, Celsius::new(76.0), 0.1, 6, 1);
        let cloned = migrator.clone();
        assert!(cloned.ledger.capacity() >= 6, "capacity {}", cloned.ledger.capacity());
        assert_eq!(cloned.outstanding(), migrator.outstanding());
    }
}
