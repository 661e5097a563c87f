//! A drift-free fixed-step simulation clock.

use gfsc_units::Seconds;

/// A fixed-step simulation clock.
///
/// The current time is always computed as `step_count × dt` (rather than
/// accumulating `+= dt`), so long simulations do not accumulate floating
/// point drift — a 10-hour run at `dt = 0.1 s` stays exactly on the step
/// grid, which the multi-rate scheduler ([`crate::Periodic`]) relies on.
/// [`crate::plant_steps`] yields a whole run's instants from one clock.
///
/// # Examples
///
/// ```
/// use gfsc_sim::Clock;
/// use gfsc_units::Seconds;
///
/// let mut clock = Clock::new(Seconds::new(0.1));
/// for _ in 0..100 {
///     clock.tick();
/// }
/// assert_eq!(clock.now(), Seconds::new(10.0));
/// ```
#[derive(Debug, Clone)]
pub struct Clock {
    dt: Seconds,
    step: u64,
}

impl Clock {
    /// Creates a clock advancing by `dt` per tick, starting at `t = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero.
    #[must_use]
    pub fn new(dt: Seconds) -> Self {
        assert!(!dt.is_zero(), "simulation step must be positive");
        Self { dt, step: 0 }
    }

    /// The current simulation time (`step × dt`).
    #[must_use]
    pub fn now(&self) -> Seconds {
        Seconds::new(self.step as f64 * self.dt.value())
    }

    /// Advances the clock by one step and returns the new time.
    pub fn tick(&mut self) -> Seconds {
        self.step += 1;
        self.now()
    }

    /// Number of ticks needed to cover `duration` (rounded up).
    #[must_use]
    pub fn steps_for(&self, duration: Seconds) -> u64 {
        (duration / self.dt).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let clock = Clock::new(Seconds::new(1.0));
        assert_eq!(clock.now(), Seconds::new(0.0));
    }

    #[test]
    fn tick_advances_by_dt() {
        let mut clock = Clock::new(Seconds::new(0.5));
        assert_eq!(clock.tick(), Seconds::new(0.5));
        assert_eq!(clock.tick(), Seconds::new(1.0));
    }

    #[test]
    fn no_drift_over_many_steps() {
        // 0.1 is not representable in binary; naive `t += dt` accumulates
        // error, while `step * dt` stays within one ulp of the ideal value.
        let mut clock = Clock::new(Seconds::new(0.1));
        for _ in 0..1_000_000 {
            clock.tick();
        }
        assert!((clock.now().value() - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn steps_for_rounds_up() {
        let clock = Clock::new(Seconds::new(0.3));
        assert_eq!(clock.steps_for(Seconds::new(1.0)), 4);
        assert_eq!(clock.steps_for(Seconds::new(0.9)), 3);
        assert_eq!(clock.steps_for(Seconds::new(0.0)), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dt_rejected() {
        let _ = Clock::new(Seconds::new(0.0));
    }
}
