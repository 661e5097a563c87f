//! The multi-rate epoch schedule every closed loop runs: the plant-step
//! instants ([`plant_steps`]) and, polled at each of them, the CPU and fan
//! control cadence ([`Cadence`]).

use crate::Clock;
use gfsc_units::Seconds;

/// The plant-step instants of a run over `horizon`: `k · sim_dt` for
/// `k = 0..=ceil(horizon / sim_dt)`, the same products [`Clock::now`]
/// computes, so long runs stay on the step grid.
///
/// The last instant is the first step at or past `horizon`. A loop that
/// steps its plant after each instant's epoch therefore ends one
/// `sim_dt` past that instant: at `horizon + sim_dt` on the step grid,
/// at 61.5 s for a 60.7 s horizon on a 0.5 s step.
///
/// # Panics
///
/// Panics if `sim_dt` is zero.
pub fn plant_steps(sim_dt: Seconds, horizon: Seconds) -> impl Iterator<Item = Seconds> {
    let mut clock = Clock::new(sim_dt);
    let last = clock.steps_for(horizon);
    std::iter::once(clock.now()).chain((0..last).map(move |_| clock.tick()))
}

/// The control cadence of one closed loop: a CPU epoch every
/// `cpu_interval` and, inside a due CPU epoch, a fan decision every
/// `fan_interval` (the paper's 1 s and 30 s).
#[derive(Debug, Clone)]
pub struct Cadence {
    cpu: Periodic,
    fan: Periodic,
}

impl Cadence {
    /// Both schedules fire first at `t = 0`.
    ///
    /// # Panics
    ///
    /// Panics if either interval is zero.
    #[must_use]
    pub fn new(cpu_interval: Seconds, fan_interval: Seconds) -> Self {
        Self { cpu: Periodic::new(cpu_interval), fan: Periodic::new(fan_interval) }
    }

    /// `Some(fan_due)` when a CPU epoch is due at `now`, `None`
    /// otherwise. The fan schedule is consulted (and re-armed) only
    /// inside a due CPU epoch, so a fan deadline that falls between CPU
    /// epochs fires at the next one.
    pub fn poll(&mut self, now: Seconds) -> Option<bool> {
        if self.cpu.is_due(now) {
            Some(self.fan.is_due(now))
        } else {
            None
        }
    }

    /// Samples an epoch-rate trace channel needs over `horizon`:
    /// `floor(horizon / cpu_interval) + 2`, one per CPU epoch at
    /// `t = 0..=horizon` plus one for an epoch on the last plant step
    /// past the horizon.
    #[must_use]
    pub fn trace_capacity(&self, horizon: Seconds) -> usize {
        (horizon / self.cpu.period()).floor() as usize + 2
    }
}

/// A periodic activity in a fixed-step simulation.
///
/// `Periodic` answers "is this activity due now?" for controllers that run
/// slower than the simulation step — e.g. the paper's CPU-cap controller
/// (1 s) and fan-speed controller (30 s) on a 0.1 s plant step.
///
/// The schedule is tolerant of the caller polling *past* a deadline (it
/// fires once and re-arms relative to the nominal grid, not the polling
/// time, so late polls do not shift the phase).
///
/// # Examples
///
/// ```
/// use gfsc_sim::Periodic;
/// use gfsc_units::Seconds;
///
/// let mut p = Periodic::new(Seconds::new(30.0));
/// assert!(p.is_due(Seconds::new(0.0)));
/// assert!(!p.is_due(Seconds::new(15.0)));
/// assert!(p.is_due(Seconds::new(30.0)));
/// ```
#[derive(Debug, Clone)]
pub struct Periodic {
    period: Seconds,
    next: f64,
}

impl Periodic {
    /// Creates a schedule firing at `t = 0, period, 2·period, …`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn new(period: Seconds) -> Self {
        assert!(!period.is_zero(), "period must be positive");
        Self { period, next: 0.0 }
    }

    /// The firing period.
    #[must_use]
    pub fn period(&self) -> Seconds {
        self.period
    }

    /// Returns `true` (and re-arms) if the activity is due at time `now`.
    ///
    /// A small tolerance (1 ppm of the period) absorbs floating-point
    /// representation error in the caller's clock.
    pub fn is_due(&mut self, now: Seconds) -> bool {
        let tol = self.period.value() * 1e-6;
        if now.value() + tol >= self.next {
            // Re-arm on the nominal grid so late polls do not drift phase.
            self.next += self.period.value();
            // If the caller skipped far ahead (e.g. coarse stepping), catch
            // up without queueing a burst of stale firings.
            while self.next <= now.value() + tol {
                self.next += self.period.value();
            }
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(period: f64, dt: f64, horizon: f64) -> Vec<f64> {
        let mut p = Periodic::new(Seconds::new(period));
        let mut out = Vec::new();
        let steps = (horizon / dt).round() as u64;
        for k in 0..=steps {
            let now = Seconds::new(k as f64 * dt);
            if p.is_due(now) {
                out.push(now.value());
            }
        }
        out
    }

    #[test]
    fn fires_on_grid_from_zero() {
        assert_eq!(times(30.0, 1.0, 95.0), vec![0.0, 30.0, 60.0, 90.0]);
    }

    #[test]
    fn fine_steps_do_not_double_fire() {
        // dt = 0.1 with period 1.0: exactly one firing per second.
        let fired = times(1.0, 0.1, 10.05);
        assert_eq!(fired.len(), 11);
    }

    #[test]
    fn representation_error_does_not_skip_firings() {
        // 0.1 is inexact in binary; ensure the tolerance absorbs it over a
        // long horizon.
        let fired = times(1.0, 0.1, 1000.0);
        assert_eq!(fired.len(), 1001);
    }

    #[test]
    fn late_polls_catch_up_without_burst() {
        let mut p = Periodic::new(Seconds::new(10.0));
        assert!(p.is_due(Seconds::new(0.0)));
        // Jump straight to t = 35: exactly one firing, re-armed at 40.
        assert!(p.is_due(Seconds::new(35.0)));
        assert!(!p.is_due(Seconds::new(36.0)));
        assert!(!p.is_due(Seconds::new(39.9)));
        assert!(p.is_due(Seconds::new(40.0)));
    }

    #[test]
    fn accessors() {
        let p = Periodic::new(Seconds::new(30.0));
        assert_eq!(p.period(), Seconds::new(30.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        let _ = Periodic::new(Seconds::new(0.0));
    }

    #[test]
    fn plant_steps_are_the_clock_instants_to_the_first_step_at_or_past_the_horizon() {
        let (dt, horizon) = (Seconds::new(0.1), Seconds::new(100.0));
        let mut clock = Clock::new(dt);
        let mut count = 0u64;
        for now in plant_steps(dt, horizon) {
            assert_eq!(now.value().to_bits(), clock.now().value().to_bits(), "instant {count}");
            clock.tick();
            count += 1;
        }
        assert_eq!(count, clock.steps_for(horizon) + 1);

        let instants = |horizon: f64| -> Vec<f64> {
            plant_steps(Seconds::new(0.5), Seconds::new(horizon)).map(Seconds::value).collect()
        };
        assert_eq!(instants(60.0).len(), 121);
        let between = instants(60.7);
        assert_eq!((between.len(), between.last()), (123, Some(&61.0)));
        assert_eq!(instants(0.0), vec![0.0]);
    }

    #[test]
    fn cadence_consults_the_fan_only_inside_a_due_cpu_epoch() {
        // CPU every 2 s, fan every 3 s, polled every 1 s. The fan
        // deadlines at 3 and 9 s fall between CPU epochs, so they fire
        // at the next CPU epoch (4 and 10 s) instead.
        let mut cadence = Cadence::new(Seconds::new(2.0), Seconds::new(3.0));
        let polls: Vec<Option<bool>> =
            (0..=12).map(|t| cadence.poll(Seconds::new(f64::from(t)))).collect();
        let (t, f) = (Some(true), Some(false));
        assert_eq!(polls, vec![t, None, f, None, t, None, t, None, f, None, t, None, t]);
    }

    #[test]
    fn trace_capacity_holds_every_epoch() {
        let dt = Seconds::new(0.5);
        for horizon in [0.0, 0.3, 60.0, 60.2, 60.7] {
            let horizon = Seconds::new(horizon);
            let mut cadence = Cadence::new(Seconds::new(1.0), Seconds::new(30.0));
            let epochs =
                plant_steps(dt, horizon).filter(|&now| cadence.poll(now).is_some()).count();
            assert!(epochs <= cadence.trace_capacity(horizon), "horizon {horizon:?}: {epochs}");
        }
        let cadence = Cadence::new(Seconds::new(1.0), Seconds::new(30.0));
        assert_eq!(cadence.trace_capacity(Seconds::new(60.7)), 62);
    }
}
