//! The moving-average smoothing filter for noisy telemetry and utilization
//! prediction.

use std::collections::VecDeque;

/// A sliding-window moving-average filter.
///
/// The paper's predictive set-point scheme (Section V-B) "filters out the
/// noise term in the CPU utilization \[with\] a moving average filter for the
/// prediction" (after Coskun et al., TCAD'09). Until the window fills, the
/// average runs over the samples seen so far.
///
/// # Examples
///
/// ```
/// use gfsc_sensors::MovingAverage;
///
/// let mut f = MovingAverage::new(4);
/// f.update(1.0);
/// f.update(2.0);
/// assert_eq!(f.value(), Some(1.5));
/// f.update(3.0);
/// f.update(4.0);
/// f.update(5.0); // 1.0 falls out of the window
/// assert_eq!(f.value(), Some(3.5));
/// ```
#[derive(Debug, Clone)]
pub struct MovingAverage {
    window: usize,
    buf: VecDeque<f64>,
    sum: f64,
}

impl MovingAverage {
    /// Creates a filter averaging over the last `window` samples.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must hold at least one sample");
        Self { window, buf: VecDeque::with_capacity(window), sum: 0.0 }
    }

    /// The configured window length.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of samples currently in the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` before the first sample.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Feeds a sample and returns the updated average.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn update(&mut self, x: f64) -> f64 {
        assert!(!x.is_nan(), "filter input must not be NaN");
        self.buf.push_back(x);
        self.sum += x;
        if self.buf.len() > self.window {
            if let Some(evicted) = self.buf.pop_front() {
                self.sum -= evicted;
            }
        }
        // Recompute periodically to cancel accumulated rounding drift.
        if self.buf.len() == self.window && self.sum.abs() > 1e12 {
            self.sum = self.buf.iter().sum();
        }
        // `x` was just pushed, so `value()` is Some; and a one-sample
        // average *is* `x`, which makes it the natural fallback.
        self.value().unwrap_or(x)
    }

    /// The current average, or `None` before any sample.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.sum / self.buf.len() as f64)
        }
    }

    /// Clears the window.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.sum = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_partial_window() {
        let mut f = MovingAverage::new(5);
        assert_eq!(f.value(), None);
        assert!(f.is_empty());
        assert_eq!(f.update(2.0), 2.0);
        assert_eq!(f.update(4.0), 3.0);
        assert_eq!(f.len(), 2);
        assert_eq!(f.window(), 5);
    }

    #[test]
    fn moving_average_slides() {
        let mut f = MovingAverage::new(3);
        for x in [1.0, 2.0, 3.0] {
            f.update(x);
        }
        assert_eq!(f.value(), Some(2.0));
        f.update(10.0); // window now [2, 3, 10]
        assert_eq!(f.value(), Some(5.0));
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn moving_average_constant_signal_is_fixed_point() {
        let mut f = MovingAverage::new(8);
        for _ in 0..100 {
            // Within rounding, a constant input is a fixed point.
            assert!((f.update(0.7) - 0.7).abs() < 1e-12);
        }
    }

    #[test]
    fn moving_average_reset() {
        let mut f = MovingAverage::new(3);
        f.update(5.0);
        f.reset();
        assert_eq!(f.value(), None);
        assert_eq!(f.update(1.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = MovingAverage::new(0);
    }
}
