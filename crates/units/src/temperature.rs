//! Absolute temperatures in degrees Celsius.

use crate::ordering::{total_max, total_min};
use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// An absolute temperature in degrees Celsius.
///
/// Differences between two [`Celsius`] values are bare `f64` kelvin deltas,
/// which is what control-error arithmetic wants: the PID controller in
/// `gfsc-control` computes `ΔT = T_meas − T_ref` and multiplies it by gains.
///
/// # Examples
///
/// ```
/// use gfsc_units::Celsius;
///
/// let t_ref = Celsius::new(75.0);
/// let t_meas = Celsius::new(77.5);
/// assert_eq!(t_meas - t_ref, 2.5);
/// assert_eq!(t_ref + 5.0, Celsius::new(80.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Celsius(f64);

impl Celsius {
    /// Creates a temperature from a value in degrees Celsius.
    ///
    /// # Panics
    ///
    /// Panics if `deg_c` is NaN; every temperature in the simulator must be
    /// comparable.
    #[must_use]
    pub const fn new(deg_c: f64) -> Self {
        assert!(!deg_c.is_nan(), "temperature must not be NaN");
        Self(deg_c)
    }

    /// Fallible constructor for untrusted boundary values (telemetry
    /// backends, text adapters): `None` for NaN instead of a panic, so
    /// a poisoned reading becomes a *missing* reading and flows into
    /// the sensor-health machinery rather than aborting the loop.
    #[must_use]
    pub fn try_new(deg_c: f64) -> Option<Self> {
        if deg_c.is_nan() {
            None
        } else {
            Some(Self(deg_c))
        }
    }

    /// Returns the temperature value in degrees Celsius.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Total order over temperatures. `Celsius` cannot hold NaN, so
    /// this agrees with `PartialOrd` everywhere — it exists so
    /// selection loops can be written against a total order (and pass
    /// the `nan-cmp` lint) without an `unwrap`.
    #[must_use]
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }

    /// Returns the larger of two temperatures (total order).
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        self.hotter(other)
    }

    /// Returns the smaller of two temperatures (total order).
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        self.cooler(other)
    }

    /// The hotter of two temperatures — the domain-named total-order
    /// fold the hottest-socket scans use (the `nan-maxmin` lint bans
    /// raw `.max(` in those files, since `f64::max` drops NaN and a
    /// lexical rule cannot tell a safe receiver from an `f64`).
    #[must_use]
    pub fn hotter(self, other: Self) -> Self {
        Self(total_max(self.0, other.0))
    }

    /// The cooler of two temperatures (total order; see
    /// [`Self::hotter`]).
    #[must_use]
    pub fn cooler(self, other: Self) -> Self {
        Self(total_min(self.0, other.0))
    }

    /// Clamps the temperature into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        assert!(lo.0 <= hi.0, "invalid clamp range: {lo} > {hi}");
        Self(self.0.clamp(lo.0, hi.0))
    }

    /// Linear interpolation between `self` (at `t = 0`) and `other`
    /// (at `t = 1`).
    #[must_use]
    pub fn lerp(self, other: Self, t: f64) -> Self {
        Self(self.0 + (other.0 - self.0) * t)
    }
}

impl fmt::Display for Celsius {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} °C", self.0)
    }
}

impl From<Celsius> for f64 {
    fn from(t: Celsius) -> f64 {
        t.0
    }
}

/// `Celsius + f64` shifts the temperature by a kelvin delta.
impl Add<f64> for Celsius {
    type Output = Celsius;

    fn add(self, delta_k: f64) -> Celsius {
        Celsius::new(self.0 + delta_k)
    }
}

impl AddAssign<f64> for Celsius {
    fn add_assign(&mut self, delta_k: f64) {
        *self = *self + delta_k;
    }
}

/// `Celsius - f64` shifts the temperature by a kelvin delta.
impl Sub<f64> for Celsius {
    type Output = Celsius;

    fn sub(self, delta_k: f64) -> Celsius {
        Celsius::new(self.0 - delta_k)
    }
}

impl SubAssign<f64> for Celsius {
    fn sub_assign(&mut self, delta_k: f64) {
        *self = *self - delta_k;
    }
}

/// `Celsius - Celsius` yields the difference as a bare kelvin delta.
impl Sub for Celsius {
    type Output = f64;

    fn sub(self, other: Celsius) -> f64 {
        self.0 - other.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_value_round_trip() {
        assert_eq!(Celsius::new(42.5).value(), 42.5);
    }

    #[test]
    fn delta_arithmetic_is_consistent() {
        let a = Celsius::new(70.0);
        let b = a + 10.0;
        assert_eq!(b.value(), 80.0);
        assert_eq!(b - a, 10.0);
        assert_eq!(b - 10.0, a);
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut t = Celsius::new(25.0);
        t += 5.0;
        assert_eq!(t, Celsius::new(30.0));
        t -= 10.0;
        assert_eq!(t, Celsius::new(20.0));
    }

    #[test]
    fn ordering_follows_value() {
        assert!(Celsius::new(79.9) < Celsius::new(80.0));
        assert!(Celsius::new(80.1) > Celsius::new(80.0));
    }

    #[test]
    fn min_max_clamp() {
        let lo = Celsius::new(70.0);
        let hi = Celsius::new(80.0);
        assert_eq!(Celsius::new(65.0).clamp(lo, hi), lo);
        assert_eq!(Celsius::new(85.0).clamp(lo, hi), hi);
        assert_eq!(Celsius::new(75.0).clamp(lo, hi), Celsius::new(75.0));
        assert_eq!(lo.max(hi), hi);
        assert_eq!(lo.min(hi), lo);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Celsius::new(70.0);
        let b = Celsius::new(80.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Celsius::new(75.0));
    }

    #[test]
    fn display_formats_with_unit() {
        assert_eq!(Celsius::new(75.0).to_string(), "75.00 °C");
    }

    #[test]
    fn try_new_maps_nan_to_none() {
        assert_eq!(Celsius::try_new(42.0), Some(Celsius::new(42.0)));
        assert!(Celsius::try_new(f64::NAN).is_none());
        assert_eq!(Celsius::try_new(f64::INFINITY), Some(Celsius::new(f64::INFINITY)));
    }

    #[test]
    fn total_cmp_agrees_with_partial_ord() {
        let pairs = [(70.0, 80.0), (80.0, 70.0), (75.0, 75.0), (-5.0, 3.0)];
        for (a, b) in pairs {
            let (a, b) = (Celsius::new(a), Celsius::new(b));
            assert_eq!(Some(a.total_cmp(&b)), a.partial_cmp(&b));
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = Celsius::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid clamp range")]
    fn clamp_rejects_inverted_range() {
        let _ = Celsius::new(75.0).clamp(Celsius::new(80.0), Celsius::new(70.0));
    }
}
