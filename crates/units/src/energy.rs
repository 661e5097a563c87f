//! Power (watts) and energy (joules).

use crate::Seconds;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// A power in watts.
///
/// # Examples
///
/// ```
/// use gfsc_units::{Watts, Seconds};
///
/// let cpu = Watts::new(96.0) + Watts::new(64.0);
/// assert_eq!(cpu, Watts::new(160.0));
/// let energy = cpu * Seconds::new(2.0);
/// assert_eq!(energy.value(), 320.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(f64);

impl Watts {
    /// Creates a power from a value in watts.
    ///
    /// # Panics
    ///
    /// Panics if `w` is negative or NaN; the models in this workspace only
    /// describe dissipated (positive) power.
    #[must_use]
    pub fn new(w: f64) -> Self {
        assert!(!w.is_nan(), "power must not be NaN");
        assert!(w >= 0.0, "power must be non-negative, got {w}");
        Self(w)
    }

    /// Returns the power value in watts.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} W", self.0)
    }
}

impl From<Watts> for f64 {
    fn from(w: Watts) -> f64 {
        w.0
    }
}

impl Add for Watts {
    type Output = Watts;

    fn add(self, other: Watts) -> Watts {
        Watts::new(self.0 + other.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, other: Watts) {
        *self = *self + other;
    }
}

/// `Watts - Watts` yields a bare watt delta (may be negative).
impl Sub for Watts {
    type Output = f64;

    fn sub(self, other: Watts) -> f64 {
        self.0 - other.0
    }
}

/// Scaling a power by a dimensionless factor.
impl Mul<f64> for Watts {
    type Output = Watts;

    fn mul(self, k: f64) -> Watts {
        Watts::new(self.0 * k)
    }
}

/// Power × time = energy.
impl Mul<Seconds> for Watts {
    type Output = Joules;

    fn mul(self, dt: Seconds) -> Joules {
        Joules::new(self.0 * dt.value())
    }
}

/// An energy in joules.
///
/// Produced by integrating [`Watts`] over [`Seconds`]; consumed by the
/// evaluation metrics (normalized fan energy in Table III of the paper).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(f64);

impl Joules {
    /// Creates an energy from a value in joules.
    ///
    /// # Panics
    ///
    /// Panics if `j` is negative or NaN.
    #[must_use]
    pub fn new(j: f64) -> Self {
        assert!(!j.is_nan(), "energy must not be NaN");
        assert!(j >= 0.0, "energy must be non-negative, got {j}");
        Self(j)
    }

    /// Returns the energy value in joules.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} J", self.0)
    }
}

impl From<Joules> for f64 {
    fn from(j: Joules) -> f64 {
        j.0
    }
}

impl Add for Joules {
    type Output = Joules;

    fn add(self, other: Joules) -> Joules {
        Joules::new(self.0 + other.0)
    }
}

impl AddAssign for Joules {
    fn add_assign(&mut self, other: Joules) {
        *self = *self + other;
    }
}

/// Energy ÷ time = average power.
impl Div<Seconds> for Joules {
    type Output = Watts;

    fn div(self, dt: Seconds) -> Watts {
        assert!(dt.value() > 0.0, "cannot average power over zero time");
        Watts::new(self.0 / dt.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_arithmetic() {
        let a = Watts::new(96.0);
        let b = Watts::new(64.0);
        assert_eq!(a + b, Watts::new(160.0));
        assert_eq!(b - a, -32.0);
        assert_eq!(a * 0.5, Watts::new(48.0));
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts::new(29.4) * Seconds::new(100.0);
        assert!((e.value() - 2940.0).abs() < 1e-9);
    }

    #[test]
    fn energy_accumulates() {
        let mut total = Joules::default();
        total += Watts::new(10.0) * Seconds::new(1.0);
        total += Watts::new(20.0) * Seconds::new(1.0);
        assert_eq!(total, Joules::new(30.0));
    }

    #[test]
    fn energy_over_time_is_average_power() {
        let avg = Joules::new(600.0) / Seconds::new(60.0);
        assert_eq!(avg, Watts::new(10.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Watts::new(29.4).to_string(), "29.40 W");
        assert_eq!(Joules::new(12.34).to_string(), "12.3 J");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_rejected() {
        let _ = Watts::new(-0.1);
    }
}
