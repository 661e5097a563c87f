//! Per-zone single-step fan scaling (paper Section V-C, lifted to fan
//! zones).
//!
//! The single-server scheme watches one violation window and boosts one
//! fan. A rack runs a *bank* of them: each zone tracks the recent
//! violation rate over **its own** sockets and boosts/releases **its own**
//! fan wall, so a spike confined to the rear wall never spins the front
//! wall to maximum (cubic fan power).
//!
//! One rack-level concern has no single-server analogue: through a shared
//! plenum, a boosting neighbour dumps its (still-hot) recirculated air
//! into this zone, holding this zone's measurement above its release band
//! even when its own sockets are fine — the neighbour's boost *masks* the
//! release condition, and without a guard the zone pins its wall at
//! maximum until the hold safeguard expires. The guard attributes the
//! heat: while a plenum-coupled neighbour is mid-boost and this zone's
//! own recent violation rate is zero, the elevated reading is borrowed
//! heat (the neighbour's boost is already handling it), so the zone
//! releases.

use crate::{SingleStepFanScaling, SsFanAction};
use gfsc_obs::{EventKind, Recorder, Source};
use gfsc_units::Celsius;

/// A fixed-capacity sliding window of per-epoch violation fractions —
/// the zone analogue of the single-server performance monitor's recent
/// window, allocation-free after construction.
#[derive(Debug, Clone)]
struct ViolationWindow {
    /// Ring buffer of per-epoch violated-socket fractions.
    buf: Vec<f64>,
    head: usize,
    len: usize,
}

impl ViolationWindow {
    fn new(window: usize) -> Self {
        Self { buf: vec![0.0; window], head: 0, len: 0 }
    }

    fn record(&mut self, fraction: f64) {
        self.buf[self.head] = fraction;
        self.head = (self.head + 1) % self.buf.len();
        self.len = (self.len + 1).min(self.buf.len());
    }

    fn rate(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let mut sum = 0.0;
        // Oldest-first, matching the deque the single-server monitor
        // iterates, so a one-socket zone reproduces its arithmetic bitwise.
        let start = (self.head + self.buf.len() - self.len) % self.buf.len();
        for k in 0..self.len {
            sum += self.buf[(start + k) % self.buf.len()];
        }
        sum / self.len as f64
    }
}

/// A bank of [`SingleStepFanScaling`] state machines, one per fan zone,
/// with per-zone violation windows and the rack-level release guard.
///
/// On a single-zone rack the bank degenerates to exactly the
/// single-server scheme: one window, one state machine, a guard that can
/// never fire (no neighbours) — pinned bit-for-bit by
/// `crates/coord/tests/rack_degenerate.rs`.
///
/// # Examples
///
/// ```
/// use gfsc_coord::obs::Recorder;
/// use gfsc_coord::{SingleStepFanScaling, SsFanAction, ZoneSsFanBank};
/// use gfsc_units::Celsius;
///
/// let mut bank = ZoneSsFanBank::new(2, SingleStepFanScaling::new(0.3), 10, true);
/// // Rear zone violates hard: it boosts; the front zone stays quiet.
/// bank.record(1, 4, 4);
/// bank.begin_epoch();
/// assert_eq!(
///     bank.evaluate(1, Celsius::new(82.0), Celsius::new(75.0), 0, &mut Recorder::disarmed()),
///     SsFanAction::Hold,
/// );
/// assert_eq!(
///     bank.evaluate(0, Celsius::new(74.0), Celsius::new(75.0), 0, &mut Recorder::disarmed()),
///     SsFanAction::None,
/// );
/// ```
#[derive(Debug, Clone)]
pub struct ZoneSsFanBank {
    zones: Vec<SingleStepFanScaling>,
    windows: Vec<ViolationWindow>,
    /// Whether the rack couples zones through a shared plenum — the
    /// release guard only makes sense when borrowed heat is possible.
    plenum_coupled: bool,
    /// Activity snapshot taken at [`ZoneSsFanBank::begin_epoch`], so the
    /// guard's view of the neighbours is independent of the order zones
    /// are evaluated in (deterministic arbitration).
    prev_active: Vec<bool>,
}

impl ZoneSsFanBank {
    /// Creates the bank: `zones` copies of `scheme`, each with a
    /// `window`-epoch violation window. `plenum_coupled` enables the
    /// neighbour-boost release guard.
    ///
    /// # Panics
    ///
    /// Panics if `zones` or `window` is zero.
    #[must_use]
    pub fn new(
        zones: usize,
        scheme: SingleStepFanScaling,
        window: usize,
        plenum_coupled: bool,
    ) -> Self {
        assert!(zones > 0, "bank needs at least one zone");
        assert!(window > 0, "violation window must hold at least one epoch");
        Self {
            zones: vec![scheme; zones],
            windows: (0..zones).map(|_| ViolationWindow::new(window)).collect(),
            plenum_coupled,
            prev_active: vec![false; zones],
        }
    }

    /// Number of zones in the bank.
    #[must_use]
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// Whether zone `z` currently holds a boost.
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    #[must_use]
    pub fn is_active(&self, z: usize) -> bool {
        self.zones[z].is_active()
    }

    /// Zone `z`'s recent violation rate (violated socket-epochs over
    /// socket-epochs in the window).
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    #[must_use]
    pub fn recent_violation_rate(&self, z: usize) -> f64 {
        self.windows[z].rate()
    }

    /// Records one epoch of zone `z`: `violated` of its `sockets` sockets
    /// missed their demand. A slotless zone (`sockets == 0`) records a
    /// clean epoch.
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    pub fn record(&mut self, z: usize, violated: usize, sockets: usize) {
        let fraction = if sockets == 0 { 0.0 } else { violated as f64 / sockets as f64 };
        self.windows[z].record(fraction);
    }

    /// Snapshots every zone's activity for this epoch's guard decisions.
    /// Call once per control epoch, before the first [`Self::evaluate`].
    pub fn begin_epoch(&mut self) {
        for (slot, zone) in self.prev_active.iter_mut().zip(&self.zones) {
            *slot = zone.is_active();
        }
    }

    /// One epoch of zone `z`'s state machine, guard included. Boost
    /// entries, holds, thermal releases and guard releases (the
    /// rack-level borrowed-heat verdict) land in `rec` as `epoch`-stamped
    /// events (pass [`Recorder::disarmed`] to trace nothing).
    ///
    /// # Panics
    ///
    /// Panics if `z` is out of range.
    pub fn evaluate(
        &mut self,
        z: usize,
        measured: Celsius,
        reference: Celsius,
        epoch: u32,
        rec: &mut Recorder,
    ) -> SsFanAction {
        let rate = self.windows[z].rate();
        let was_active = self.zones[z].is_active();
        // Rack-level guard: this zone is holding, its own sockets are
        // clean, and a plenum-coupled neighbour is mid-boost — the
        // elevated reading is the neighbour's heat, which the neighbour's
        // own boost is already fighting. Release instead of riding the
        // hold safeguard.
        let neighbour_boosting = self.plenum_coupled
            && self.prev_active.iter().enumerate().any(|(other, &active)| other != z && active);
        if was_active && rate == 0.0 && neighbour_boosting {
            self.zones[z].reset();
            rec.record(epoch, Source::Zone(z as u16), EventKind::SsGuardRelease, measured.value());
            return SsFanAction::Release;
        }
        let action = self.zones[z].evaluate(rate, measured, reference);
        let kind = match action {
            SsFanAction::Hold if was_active => Some(EventKind::SsHold),
            SsFanAction::Hold => Some(EventKind::SsBoost),
            SsFanAction::Release => Some(EventKind::SsRelease),
            SsFanAction::None => None,
        };
        if let Some(kind) = kind {
            rec.record(epoch, Source::Zone(z as u16), kind, measured.value());
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(t: f64) -> Celsius {
        Celsius::new(t)
    }

    fn bank(plenum: bool) -> ZoneSsFanBank {
        ZoneSsFanBank::new(2, SingleStepFanScaling::new(0.3), 10, plenum)
    }

    #[test]
    fn zones_boost_independently() {
        let mut b = bank(true);
        b.record(1, 4, 4);
        b.begin_epoch();
        assert_eq!(
            b.evaluate(0, c(74.0), c(75.0), 0, &mut Recorder::disarmed()),
            SsFanAction::None
        );
        assert_eq!(
            b.evaluate(1, c(82.0), c(75.0), 0, &mut Recorder::disarmed()),
            SsFanAction::Hold
        );
        assert!(!b.is_active(0));
        assert!(b.is_active(1));
        assert_eq!(b.zone_count(), 2);
    }

    #[test]
    fn window_averages_socket_epochs() {
        let mut b = bank(false);
        b.record(0, 1, 4);
        b.record(0, 3, 4);
        assert!((b.recent_violation_rate(0) - 0.5).abs() < 1e-12);
        // Slotless zones record clean epochs, never NaN.
        b.record(1, 0, 0);
        assert_eq!(b.recent_violation_rate(1), 0.0);
    }

    #[test]
    fn window_slides() {
        let mut b = ZoneSsFanBank::new(1, SingleStepFanScaling::new(0.3), 4, false);
        for _ in 0..4 {
            b.record(0, 1, 1);
        }
        assert_eq!(b.recent_violation_rate(0), 1.0);
        for _ in 0..4 {
            b.record(0, 0, 1);
        }
        assert_eq!(b.recent_violation_rate(0), 0.0);
    }

    #[test]
    fn neighbour_boost_does_not_mask_release() {
        let mut b = bank(true);
        // Both zones boost on a shared spike.
        b.record(0, 4, 4);
        b.record(1, 4, 4);
        b.begin_epoch();
        assert_eq!(
            b.evaluate(0, c(83.0), c(75.0), 0, &mut Recorder::disarmed()),
            SsFanAction::Hold
        );
        assert_eq!(
            b.evaluate(1, c(83.0), c(75.0), 0, &mut Recorder::disarmed()),
            SsFanAction::Hold
        );
        // Zone 0's own sockets go clean, but the neighbour's hot
        // recirculated air keeps its measurement above the release band.
        for _ in 0..10 {
            b.record(0, 0, 4);
            b.record(1, 4, 4);
        }
        b.begin_epoch();
        // Without the guard this would Hold (measured far above the
        // band); with it, the borrowed heat is attributed to the
        // boosting neighbour and the zone releases.
        assert_eq!(
            b.evaluate(0, c(82.0), c(75.0), 0, &mut Recorder::disarmed()),
            SsFanAction::Release
        );
        assert!(!b.is_active(0));
        // The dirty neighbour keeps holding on its own merits.
        assert_eq!(
            b.evaluate(1, c(82.0), c(75.0), 0, &mut Recorder::disarmed()),
            SsFanAction::Hold
        );
    }

    #[test]
    fn guard_requires_plenum_coupling() {
        let mut b = bank(false);
        b.record(0, 4, 4);
        b.record(1, 4, 4);
        b.begin_epoch();
        b.evaluate(0, c(83.0), c(75.0), 0, &mut Recorder::disarmed());
        b.evaluate(1, c(83.0), c(75.0), 0, &mut Recorder::disarmed());
        for _ in 0..10 {
            b.record(0, 0, 4);
            b.record(1, 4, 4);
        }
        b.begin_epoch();
        // Isolated zones: a hot reading is this zone's own problem.
        assert_eq!(
            b.evaluate(0, c(82.0), c(75.0), 0, &mut Recorder::disarmed()),
            SsFanAction::Hold
        );
    }

    #[test]
    fn single_zone_guard_is_inert() {
        let mut b = ZoneSsFanBank::new(1, SingleStepFanScaling::new(0.3), 10, true);
        b.record(0, 1, 1);
        b.begin_epoch();
        assert_eq!(
            b.evaluate(0, c(83.0), c(75.0), 0, &mut Recorder::disarmed()),
            SsFanAction::Hold
        );
        for _ in 0..10 {
            b.record(0, 0, 1);
        }
        b.begin_epoch();
        // No neighbour exists, so only the thermal condition releases.
        assert_eq!(
            b.evaluate(0, c(82.0), c(75.0), 0, &mut Recorder::disarmed()),
            SsFanAction::Hold
        );
        assert_eq!(
            b.evaluate(0, c(76.0), c(75.0), 0, &mut Recorder::disarmed()),
            SsFanAction::Release
        );
    }

    #[test]
    #[should_panic(expected = "at least one zone")]
    fn zero_zones_rejected() {
        let _ = ZoneSsFanBank::new(0, SingleStepFanScaling::new(0.3), 10, false);
    }
}
