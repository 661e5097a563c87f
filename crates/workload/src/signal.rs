//! Deterministic base utilization signals.

use gfsc_units::Seconds;

/// A deterministic scalar signal of time (the noise-free part of a
/// workload).
///
/// Implementations are pure functions of `t`, so they can be sampled at any
/// rate, re-sampled, or evaluated out of order (unlike the stochastic
/// stages, which are stateful).
pub trait Signal {
    /// The signal value at time `t`.
    fn at(&self, t: Seconds) -> f64;
}

/// A constant signal.
///
/// # Examples
///
/// ```
/// use gfsc_workload::{Constant, Signal};
/// use gfsc_units::Seconds;
///
/// assert_eq!(Constant::new(0.5).at(Seconds::new(123.0)), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(f64);

impl Constant {
    /// Creates a constant signal.
    #[must_use]
    pub fn new(level: f64) -> Self {
        Self(level)
    }
}

impl Signal for Constant {
    fn at(&self, _t: Seconds) -> f64 {
        self.0
    }
}

/// A square wave alternating between `low` and `high`.
///
/// The wave starts at `low`, switches to `high` after `duty · period`, and
/// repeats. The paper's synthetic trace alternates between 0.1 and 0.7
/// ([`SquareWave::date14`], 200 s half-periods matching the Fig. 3 traces).
///
/// # Examples
///
/// ```
/// use gfsc_workload::{Signal, SquareWave};
/// use gfsc_units::Seconds;
///
/// let w = SquareWave::date14();
/// assert_eq!(w.at(Seconds::new(0.0)), 0.1);
/// assert_eq!(w.at(Seconds::new(250.0)), 0.7);
/// assert_eq!(w.at(Seconds::new(400.0)), 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SquareWave {
    low: f64,
    high: f64,
    period: f64,
    duty: f64,
}

impl SquareWave {
    /// Creates a square wave with the given levels, full period and duty
    /// cycle (fraction of the period spent at `low` first).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `duty` is outside `(0, 1)`.
    #[must_use]
    pub fn new(low: f64, high: f64, period: Seconds, duty: f64) -> Self {
        assert!(!period.is_zero(), "square wave period must be positive");
        assert!(duty > 0.0 && duty < 1.0, "duty must lie strictly in (0, 1)");
        Self { low, high, period: period.value(), duty }
    }

    /// The paper's trace: 0.1 ↔ 0.7 with 200 s at each level.
    #[must_use]
    pub fn date14() -> Self {
        Self::new(0.1, 0.7, Seconds::new(400.0), 0.5)
    }

    /// The low level.
    #[must_use]
    pub fn low(&self) -> f64 {
        self.low
    }

    /// The high level.
    #[must_use]
    pub fn high(&self) -> f64 {
        self.high
    }

    /// The full period.
    #[must_use]
    pub fn period(&self) -> Seconds {
        Seconds::new(self.period)
    }
}

impl Signal for SquareWave {
    fn at(&self, t: Seconds) -> f64 {
        let phase = (t.value() / self.period).fract();
        if phase < self.duty {
            self.low
        } else {
            self.high
        }
    }
}

/// A sinusoid `offset + amplitude · sin(2πt / period)`.
///
/// Models smooth diurnal load variation in the data-center duty-cycle
/// example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sine {
    offset: f64,
    amplitude: f64,
    period: f64,
}

impl Sine {
    /// Creates a sinusoid.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn new(offset: f64, amplitude: f64, period: Seconds) -> Self {
        assert!(!period.is_zero(), "sine period must be positive");
        Self { offset, amplitude, period: period.value() }
    }
}

impl Signal for Sine {
    fn at(&self, t: Seconds) -> f64 {
        self.offset + self.amplitude * (2.0 * std::f64::consts::PI * t.value() / self.period).sin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(t: f64) -> Seconds {
        Seconds::new(t)
    }

    #[test]
    fn square_wave_date14_alternates() {
        let w = SquareWave::date14();
        assert_eq!(w.low(), 0.1);
        assert_eq!(w.high(), 0.7);
        assert_eq!(w.period(), secs(400.0));
        assert_eq!(w.at(secs(0.0)), 0.1);
        assert_eq!(w.at(secs(199.9)), 0.1);
        assert_eq!(w.at(secs(200.0)), 0.7);
        assert_eq!(w.at(secs(399.9)), 0.7);
        assert_eq!(w.at(secs(400.0)), 0.1);
        assert_eq!(w.at(secs(1000.0)), 0.7);
    }

    #[test]
    fn square_wave_asymmetric_duty() {
        let w = SquareWave::new(0.0, 1.0, secs(100.0), 0.25);
        assert_eq!(w.at(secs(10.0)), 0.0);
        assert_eq!(w.at(secs(25.0)), 1.0);
        assert_eq!(w.at(secs(99.0)), 1.0);
    }

    #[test]
    fn sine_hits_extremes() {
        let s = Sine::new(0.5, 0.3, secs(100.0));
        assert!((s.at(secs(0.0)) - 0.5).abs() < 1e-12);
        assert!((s.at(secs(25.0)) - 0.8).abs() < 1e-12);
        assert!((s.at(secs(75.0)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn constant_is_constant() {
        let c = Constant::new(0.42);
        assert_eq!(c.at(secs(0.0)), 0.42);
        assert_eq!(c.at(secs(1e6)), 0.42);
    }

    #[test]
    #[should_panic(expected = "duty")]
    fn degenerate_duty_rejected() {
        let _ = SquareWave::new(0.1, 0.7, secs(100.0), 1.0);
    }
}
