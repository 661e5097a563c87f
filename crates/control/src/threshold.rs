//! The deadzone fan controller — the conservative scheme shipping firmware
//! uses, reproduced as an instability baseline.
//!
//! The paper (footnote 2, Fig. 4) reports that threshold schemes like it
//! become oscillatory under the 10 s lag + 1 °C quantization measurement
//! chain: by the time a crossing is observed, the plant has already moved
//! far past it, so the controller perpetually overcorrects.

use gfsc_units::{Bounds, Celsius, Rpm};

/// Incremental deadzone control: step the fan up above `t_high`, step it
/// down below `t_low`, hold in between.
///
/// This is the "deadzone fan speed control scheme" whose oscillation under
/// a fixed workload the paper demonstrates in Fig. 4.
///
/// # Examples
///
/// ```
/// use gfsc_control::Deadzone;
/// use gfsc_units::{Bounds, Celsius, Rpm};
///
/// let mut c = Deadzone::new(
///     Celsius::new(70.0),
///     Celsius::new(78.0),
///     500.0,
///     Bounds::new(Rpm::new(1000.0), Rpm::new(8500.0)),
/// );
/// let s0 = Rpm::new(3000.0);
/// assert_eq!(c.decide(Celsius::new(80.0), s0), Rpm::new(3500.0)); // too hot
/// assert_eq!(c.decide(Celsius::new(74.0), s0), s0);               // in the zone
/// assert_eq!(c.decide(Celsius::new(65.0), s0), Rpm::new(2500.0)); // too cold
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deadzone {
    t_low: Celsius,
    t_high: Celsius,
    step: f64,
    bounds: Bounds<Rpm>,
}

impl Deadzone {
    /// Creates the controller with zone `[t_low, t_high]`, per-decision
    /// speed step `step` (rpm) and actuator `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if `t_low > t_high` or `step` is not positive.
    #[must_use]
    pub fn new(t_low: Celsius, t_high: Celsius, step: f64, bounds: Bounds<Rpm>) -> Self {
        assert!(t_low <= t_high, "deadzone must satisfy t_low <= t_high");
        assert!(step > 0.0, "speed step must be positive");
        Self { t_low, t_high, step, bounds }
    }

    /// The lower zone edge.
    #[must_use]
    pub fn t_low(&self) -> Celsius {
        self.t_low
    }

    /// The upper zone edge.
    #[must_use]
    pub fn t_high(&self) -> Celsius {
        self.t_high
    }

    /// One decision: step relative to `current` based on which side of the
    /// zone the measurement falls.
    #[must_use]
    pub fn decide(&mut self, measured: Celsius, current: Rpm) -> Rpm {
        let next = if measured > self.t_high {
            current + self.step
        } else if measured < self.t_low {
            current - self.step
        } else {
            current
        };
        self.bounds.clamp(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> Bounds<Rpm> {
        Bounds::new(Rpm::new(1000.0), Rpm::new(8500.0))
    }

    #[test]
    fn deadzone_holds_inside_zone() {
        let mut c = Deadzone::new(Celsius::new(70.0), Celsius::new(78.0), 250.0, bounds());
        for t in [70.0, 74.0, 78.0] {
            assert_eq!(c.decide(Celsius::new(t), Rpm::new(4000.0)), Rpm::new(4000.0));
        }
        assert_eq!(c.t_low(), Celsius::new(70.0));
        assert_eq!(c.t_high(), Celsius::new(78.0));
    }

    #[test]
    fn deadzone_steps_toward_relief() {
        let mut c = Deadzone::new(Celsius::new(70.0), Celsius::new(78.0), 250.0, bounds());
        assert_eq!(c.decide(Celsius::new(80.0), Rpm::new(4000.0)), Rpm::new(4250.0));
        assert_eq!(c.decide(Celsius::new(60.0), Rpm::new(4000.0)), Rpm::new(3750.0));
    }

    #[test]
    fn deadzone_respects_bounds() {
        let mut c = Deadzone::new(Celsius::new(70.0), Celsius::new(78.0), 1000.0, bounds());
        assert_eq!(c.decide(Celsius::new(90.0), Rpm::new(8200.0)), Rpm::new(8500.0));
        assert_eq!(c.decide(Celsius::new(50.0), Rpm::new(1200.0)), Rpm::new(1000.0));
    }

    #[test]
    #[should_panic(expected = "t_low <= t_high")]
    fn deadzone_rejects_inverted_zone() {
        let _ = Deadzone::new(Celsius::new(78.0), Celsius::new(70.0), 100.0, bounds());
    }
}
