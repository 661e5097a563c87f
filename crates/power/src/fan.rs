//! Cubic fan power law.

use gfsc_units::{Rpm, Watts};

/// Fan power as a cubic function of speed: `P_fan = P_max · (V / V_max)³`.
///
/// The cubic affinity law is why variable fan speed control saves so much
/// energy: halving the speed cuts fan power by 8×. Table I anchors the
/// curve at 29.4 W per socket at 8500 rpm.
///
/// # Examples
///
/// ```
/// use gfsc_power::FanPowerModel;
/// use gfsc_units::Rpm;
///
/// let fan = FanPowerModel::date14();
/// let half_speed = fan.power(Rpm::new(4250.0));
/// assert!((half_speed.value() - 29.4 / 8.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanPowerModel {
    max_power: Watts,
    max_speed: Rpm,
}

impl FanPowerModel {
    /// Creates a model peaking at `max_power` when running at `max_speed`.
    ///
    /// # Panics
    ///
    /// Panics if `max_speed` is zero.
    #[must_use]
    pub fn new(max_power: Watts, max_speed: Rpm) -> Self {
        assert!(max_speed.value() > 0.0, "max fan speed must be positive");
        Self { max_power, max_speed }
    }

    /// The DATE'14 Table I model: 29.4 W per socket at 8500 rpm.
    #[must_use]
    pub fn date14() -> Self {
        Self::new(Watts::new(29.4), Rpm::new(8500.0))
    }

    /// Power at the rated maximum speed.
    #[must_use]
    pub fn max_power(&self) -> Watts {
        self.max_power
    }

    /// The rated maximum speed.
    #[must_use]
    pub fn max_speed(&self) -> Rpm {
        self.max_speed
    }

    /// Power at speed `v` (clamped to the rated maximum).
    #[must_use]
    pub fn power(&self, v: Rpm) -> Watts {
        let ratio = v.min(self.max_speed).ratio_of(self.max_speed);
        self.max_power * (ratio * ratio * ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_match_table1() {
        let fan = FanPowerModel::date14();
        assert!((fan.power(Rpm::new(8500.0)).value() - 29.4).abs() < 1e-12);
        assert_eq!(fan.power(Rpm::new(0.0)), Watts::new(0.0));
        assert_eq!(fan.max_power(), Watts::new(29.4));
        assert_eq!(fan.max_speed(), Rpm::new(8500.0));
    }

    #[test]
    fn cubic_scaling() {
        let fan = FanPowerModel::date14();
        let p_half = fan.power(Rpm::new(4250.0)).value();
        assert!((p_half - 29.4 / 8.0).abs() < 1e-12);
        let p_tenth = fan.power(Rpm::new(850.0)).value();
        assert!((p_tenth - 29.4 / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn clamps_above_rated_speed() {
        let fan = FanPowerModel::date14();
        assert_eq!(fan.power(Rpm::new(20_000.0)), fan.power(Rpm::new(8500.0)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_max_speed_rejected() {
        let _ = FanPowerModel::new(Watts::new(29.4), Rpm::new(0.0));
    }
}
