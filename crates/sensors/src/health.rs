//! Per-sensor staleness and validity tracking for streamed telemetry.
//!
//! A batch simulation always has a reading; a live daemon does not. Reads
//! drop (bus contention, BMC timeouts), and — worse — a failed sensor can
//! keep *answering* with the same latched value forever, which looks
//! exactly like a healthy sensor at steady state unless something watches
//! for it. [`SensorHealth`] is that something: a tiny per-sensor state
//! machine fed one `observe` per poll cycle that classifies the sensor as
//! [`SensorStatus::Fresh`], [`SensorStatus::Stale`] (no successful read
//! for longer than the staleness budget) or [`SensorStatus::Frozen`]
//! (successful reads whose value has not moved for longer than the freeze
//! budget). The daemon's watchdog treats anything non-fresh as sensor
//! loss (error magnitudes and failure modes grounded by the Intel sensor
//! characterization in PAPERS.md).
//!
//! Freeze detection is optional (`freeze_after = None` disables it):
//! a quantized sensor at thermal steady state legitimately reports the
//! same integer for minutes, so the freeze budget must be chosen against
//! the plant's time constants — or left off where a constant reading is
//! expected (e.g. the bit-for-bit daemon parity harness).

use gfsc_units::Seconds;

/// The classification of one sensor at the latest poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorStatus {
    /// A successful, recently-moving reading.
    Fresh,
    /// No successful reading for longer than the staleness budget.
    Stale,
    /// Readings arrive but the value has not moved for longer than the
    /// freeze budget — the latched-sensor failure mode.
    Frozen,
}

/// Per-sensor staleness/freeze tracker (one instance per sensor).
///
/// # Examples
///
/// ```
/// use gfsc_sensors::{SensorHealth, SensorStatus};
/// use gfsc_units::Seconds;
///
/// let mut health = SensorHealth::new(Seconds::new(3.0), None);
/// assert_eq!(health.observe(Seconds::new(0.0), Some(45.0)), SensorStatus::Fresh);
/// // Reads keep failing: fresh until the budget runs out, stale after.
/// assert_eq!(health.observe(Seconds::new(2.0), None), SensorStatus::Fresh);
/// assert_eq!(health.observe(Seconds::new(4.0), None), SensorStatus::Stale);
/// // One good reading recovers immediately.
/// assert_eq!(health.observe(Seconds::new(5.0), Some(46.0)), SensorStatus::Fresh);
/// ```
#[derive(Debug, Clone)]
pub struct SensorHealth {
    stale_after: Seconds,
    freeze_after: Option<Seconds>,
    /// Time of the last successful read, if any ever succeeded.
    last_read: Option<Seconds>,
    /// The last successfully read value and when it last *changed*.
    last_value: Option<(f64, Seconds)>,
    status: SensorStatus,
}

impl SensorHealth {
    /// Creates a tracker: a sensor with no successful read for
    /// `stale_after` is stale; one whose value has not changed for
    /// `freeze_after` (if given) is frozen.
    ///
    /// # Panics
    ///
    /// Panics if a budget is not positive.
    #[must_use]
    pub fn new(stale_after: Seconds, freeze_after: Option<Seconds>) -> Self {
        assert!(stale_after.value() > 0.0, "staleness budget must be positive");
        if let Some(freeze) = freeze_after {
            assert!(freeze.value() > 0.0, "freeze budget must be positive");
        }
        Self {
            stale_after,
            freeze_after,
            last_read: None,
            last_value: None,
            status: SensorStatus::Stale,
        }
    }

    /// Feeds one poll result: `Some(value)` for a successful read, `None`
    /// for a failed one. Returns the resulting classification.
    pub fn observe(&mut self, now: Seconds, reading: Option<f64>) -> SensorStatus {
        // A NaN reading is a *failed* read, not a fresh one: NaN != NaN,
        // so without this guard the change-detector below would count the
        // same garbage as "the value moved, the sensor is alive" on every
        // single poll — a poisoned sensor would never go stale.
        let reading = reading.filter(|v| !v.is_nan());
        if let Some(value) = reading {
            match self.last_value {
                // A changed value proves the sensor is alive end to end.
                Some((previous, _)) if value != previous => self.last_value = Some((value, now)),
                Some(_) => {}
                None => self.last_value = Some((value, now)),
            }
            self.last_read = Some(now);
        }
        self.status = match self.last_read {
            None => SensorStatus::Stale,
            Some(at) if now - at > self.stale_after.value() => SensorStatus::Stale,
            Some(_) => match (self.freeze_after, self.last_value) {
                (Some(freeze), Some((_, changed_at))) if now - changed_at > freeze.value() => {
                    SensorStatus::Frozen
                }
                _ => SensorStatus::Fresh,
            },
        };
        self.status
    }

    /// The classification after the most recent [`SensorHealth::observe`].
    #[must_use]
    pub fn status(&self) -> SensorStatus {
        self.status
    }

    /// The most recent successfully read value, if any.
    #[must_use]
    pub fn last_value(&self) -> Option<f64> {
        self.last_value.map(|(v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: f64) -> Seconds {
        Seconds::new(v)
    }

    #[test]
    fn starts_stale_until_the_first_read() {
        let mut h = SensorHealth::new(s(5.0), None);
        assert_eq!(h.status(), SensorStatus::Stale);
        assert_eq!(h.observe(s(0.0), None), SensorStatus::Stale);
        assert_eq!(h.observe(s(1.0), Some(40.0)), SensorStatus::Fresh);
        assert_eq!(h.last_value(), Some(40.0));
    }

    #[test]
    fn staleness_uses_the_budget_not_the_poll_count() {
        let mut h = SensorHealth::new(s(5.0), None);
        h.observe(s(0.0), Some(40.0));
        // Many failed polls inside the budget stay fresh…
        for k in 1..=5 {
            assert_eq!(h.observe(s(k as f64), None), SensorStatus::Fresh, "t={k}");
        }
        // …and the first poll past it is stale.
        assert_eq!(h.observe(s(5.5), None), SensorStatus::Stale);
        // Recovery is immediate on success.
        assert_eq!(h.observe(s(6.0), Some(41.0)), SensorStatus::Fresh);
    }

    #[test]
    fn frozen_value_is_detected_and_recovers_on_change() {
        let mut h = SensorHealth::new(s(100.0), Some(s(3.0)));
        h.observe(s(0.0), Some(50.0));
        assert_eq!(h.observe(s(2.0), Some(50.0)), SensorStatus::Fresh);
        // Same value past the freeze budget: frozen, even though every
        // read "succeeds".
        assert_eq!(h.observe(s(4.0), Some(50.0)), SensorStatus::Frozen);
        // Any movement proves life.
        assert_eq!(h.observe(s(5.0), Some(51.0)), SensorStatus::Fresh);
    }

    #[test]
    fn freeze_detection_can_be_disabled() {
        let mut h = SensorHealth::new(s(10.0), None);
        for k in 0..100 {
            assert_eq!(h.observe(s(k as f64 * 0.5), Some(50.0)), SensorStatus::Fresh);
        }
    }

    #[test]
    fn nan_readings_count_as_failed_reads() {
        let mut h = SensorHealth::new(s(5.0), None);
        h.observe(s(0.0), Some(40.0));
        // A poisoned sensor delivering NaN every poll must drain the
        // staleness budget exactly like a dead one — NaN != NaN would
        // otherwise read as "changed" (alive) forever.
        for k in 1..=5 {
            assert_eq!(h.observe(s(k as f64), Some(f64::NAN)), SensorStatus::Fresh, "t={k}");
        }
        assert_eq!(h.observe(s(5.5), Some(f64::NAN)), SensorStatus::Stale);
        // The last good value survives the poison.
        assert_eq!(h.last_value(), Some(40.0));
        // A real reading recovers immediately.
        assert_eq!(h.observe(s(6.0), Some(41.0)), SensorStatus::Fresh);
    }

    #[test]
    #[should_panic(expected = "staleness budget")]
    fn zero_stale_budget_rejected() {
        let _ = SensorHealth::new(s(0.0), None);
    }
}
