//! Predictive set-point adjustment (paper Section V-B).

use gfsc_sensors::MovingAverage;
use gfsc_units::{Celsius, Utilization};

/// The fan reference of every fixed-reference loop: the paper's
/// `R-coord @ T_ref = 75 °C` solution, and each rack zone loop that runs
/// without an adaptive reference.
pub const FIXED_REFERENCE: Celsius = Celsius::new(75.0);

/// Scales the fan reference temperature linearly with the *predicted* CPU
/// utilization:
///
/// ```text
/// T_ref(k) = T_min + (T_max − T_min) · u_pred(k)
/// ```
///
/// following the paper's two observations: at low utilization, attenuate
/// `T_ref` (spin the fan a little faster, buying thermal headroom for an
/// unexpected load spike); at high utilization, amplify `T_ref` (the spike
/// potential is small — `u ≤ 1` — so run closer to the limit and harvest
/// the cubic fan-power saving). Prediction is a moving average of recent
/// demand, the noise filter of Coskun et al. (ref. \[19\]).
///
/// # Examples
///
/// ```
/// use gfsc_coord::AdaptiveReference;
/// use gfsc_units::{Celsius, Utilization};
///
/// let mut tref = AdaptiveReference::date14();
/// for _ in 0..32 {
///     tref.observe(Utilization::new(0.1));
/// }
/// // Low predicted load -> reference attenuated toward 70 °C.
/// assert!(tref.reference() < Celsius::new(72.0));
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveReference {
    t_min: Celsius,
    t_max: Celsius,
    filter: MovingAverage,
}

impl AdaptiveReference {
    /// Creates the scheduler mapping predicted utilization 0→`t_min`,
    /// 1→`t_max`, with a moving-average window of `window` demand samples.
    ///
    /// # Panics
    ///
    /// Panics if `t_min > t_max` or `window` is zero.
    #[must_use]
    pub fn new(t_min: Celsius, t_max: Celsius, window: usize) -> Self {
        assert!(t_min <= t_max, "reference window must satisfy t_min <= t_max");
        Self { t_min, t_max, filter: MovingAverage::new(window) }
    }

    /// The paper's range: 70–80 °C, predicted over a 120-sample (2 min)
    /// window.
    ///
    /// The window is the noise filter's memory: it must be long enough
    /// that a short load spike does not drag the reference *up* mid-spike
    /// (which would slow the fan exactly when headroom is needed), yet
    /// short enough to track the workload's phase changes. Four fan
    /// periods filters 30 s spikes to a ≤ 2 K reference shift while
    /// following the 200 s phases of the evaluation workload.
    #[must_use]
    pub fn date14() -> Self {
        Self::new(Celsius::new(70.0), Celsius::new(80.0), 120)
    }

    /// The attenuated (low-load) end of the range.
    #[must_use]
    pub fn t_min(&self) -> Celsius {
        self.t_min
    }

    /// The amplified (high-load) end of the range.
    #[must_use]
    pub fn t_max(&self) -> Celsius {
        self.t_max
    }

    /// Feeds one demand sample into the predictor.
    pub fn observe(&mut self, demand: Utilization) {
        self.filter.update(demand.value());
    }

    /// The current utilization prediction (0 before any sample).
    #[must_use]
    pub fn predicted_utilization(&self) -> Utilization {
        Utilization::new(self.filter.value().unwrap_or(0.0))
    }

    /// The reference temperature for the current prediction.
    #[must_use]
    pub fn reference(&self) -> Celsius {
        self.t_min.lerp(self.t_max, self.predicted_utilization().value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_of_the_linear_map() {
        let mut r = AdaptiveReference::date14();
        assert_eq!(r.t_min(), Celsius::new(70.0));
        assert_eq!(r.t_max(), Celsius::new(80.0));
        // No samples yet: predict 0 -> T_min.
        assert_eq!(r.reference(), Celsius::new(70.0));
        for _ in 0..60 {
            r.observe(Utilization::FULL);
        }
        assert_eq!(r.reference(), Celsius::new(80.0));
    }

    #[test]
    fn midpoint_load_gives_midpoint_reference() {
        let mut r = AdaptiveReference::new(Celsius::new(70.0), Celsius::new(80.0), 4);
        for _ in 0..8 {
            r.observe(Utilization::new(0.5));
        }
        assert!((r.reference() - Celsius::new(75.0)).abs() < 1e-9);
        assert!((r.predicted_utilization().value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn moving_average_smooths_noise() {
        let mut r = AdaptiveReference::new(Celsius::new(70.0), Celsius::new(80.0), 10);
        // Alternating 0.3/0.5 demand: prediction settles near 0.4.
        for k in 0..50 {
            r.observe(Utilization::new(if k % 2 == 0 { 0.3 } else { 0.5 }));
        }
        let p = r.predicted_utilization().value();
        assert!((p - 0.4).abs() < 0.02, "prediction {p}");
    }

    #[test]
    fn reacts_with_window_delay() {
        let mut r = AdaptiveReference::new(Celsius::new(70.0), Celsius::new(80.0), 10);
        for _ in 0..10 {
            r.observe(Utilization::new(0.1));
        }
        let before = r.reference();
        // Demand jumps; after 5 of 10 window samples the prediction is
        // halfway up.
        for _ in 0..5 {
            r.observe(Utilization::new(0.9));
        }
        let mid = r.reference();
        assert!(mid > before);
        assert!((mid.value() - 75.0).abs() < 0.5, "mid {mid}");
    }

    #[test]
    fn degenerate_fixed_window() {
        let mut r = AdaptiveReference::new(Celsius::new(75.0), Celsius::new(75.0), 3);
        r.observe(Utilization::FULL);
        assert_eq!(r.reference(), Celsius::new(75.0));
    }

    #[test]
    #[should_panic(expected = "t_min <= t_max")]
    fn inverted_range_rejected() {
        let _ = AdaptiveReference::new(Celsius::new(80.0), Celsius::new(70.0), 3);
    }
}
