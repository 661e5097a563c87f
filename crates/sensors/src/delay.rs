//! Fixed transport delay as a sample ring buffer.

use gfsc_units::Seconds;
use std::collections::VecDeque;

/// A fixed transport delay of `n` samples.
///
/// Pushing a new sample returns the sample observed `n` pushes ago. When
/// pushed once per sample interval `Δt`, this realizes a pure transport
/// delay of `n·Δt` — the distilled form of the ~10 s I2C telemetry lag the
/// paper measures (Fig. 1). The line starts pre-filled with an initial
/// value, modeling a sensor chain that has been reporting a quiescent
/// value since before the experiment began.
///
/// # Examples
///
/// ```
/// use gfsc_sensors::DelayLine;
///
/// let mut line = DelayLine::new(3, 20.0);
/// assert_eq!(line.push(1.0), 20.0); // still draining the initial fill
/// assert_eq!(line.push(2.0), 20.0);
/// assert_eq!(line.push(3.0), 20.0);
/// assert_eq!(line.push(4.0), 1.0); // first real sample emerges
/// ```
#[derive(Debug, Clone)]
pub struct DelayLine<T = f64> {
    buf: VecDeque<T>,
    depth: usize,
}

impl<T: Copy> DelayLine<T> {
    /// Creates a delay of `depth` samples, pre-filled with `initial`.
    ///
    /// A depth of 0 is a pass-through (no delay).
    #[must_use]
    pub fn new(depth: usize, initial: T) -> Self {
        let mut buf = VecDeque::with_capacity(depth);
        for _ in 0..depth {
            buf.push_back(initial);
        }
        Self { buf, depth }
    }

    /// Creates a delay of `delay` seconds for a signal sampled every
    /// `sample_interval`, rounding the depth to the nearest whole sample.
    ///
    /// # Panics
    ///
    /// Panics if `sample_interval` is zero.
    #[must_use]
    pub fn with_delay(delay: Seconds, sample_interval: Seconds, initial: T) -> Self {
        assert!(!sample_interval.is_zero(), "sample interval must be positive");
        let depth = (delay / sample_interval).round() as usize;
        Self::new(depth, initial)
    }

    /// The delay depth in samples.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Pushes the newest sample and returns the delayed output.
    pub fn push(&mut self, sample: T) -> T {
        if self.depth == 0 {
            return sample;
        }
        self.buf.push_back(sample);
        // Just pushed, so the line cannot be empty; passing the input
        // through beats panicking if that invariant ever breaks.
        self.buf.pop_front().unwrap_or(sample)
    }

    /// The value that will be emitted on the next push (the oldest sample),
    /// or the input itself for a zero-depth line (`None` here, since there
    /// is no buffered sample).
    #[must_use]
    pub fn peek(&self) -> Option<T> {
        self.buf.front().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_depth_is_passthrough() {
        let mut line = DelayLine::new(0, 0.0);
        assert_eq!(line.push(5.0), 5.0);
        assert_eq!(line.depth(), 0);
        assert_eq!(line.peek(), None);
    }

    #[test]
    fn delays_by_exactly_depth_samples() {
        let mut line = DelayLine::new(10, 0.0);
        for k in 1..=10 {
            assert_eq!(line.push(k as f64), 0.0, "initial fill at k={k}");
        }
        for k in 11..=30 {
            assert_eq!(line.push(k as f64), (k - 10) as f64);
        }
    }

    #[test]
    fn with_delay_computes_depth() {
        let line = DelayLine::with_delay(Seconds::new(10.0), Seconds::new(1.0), 0.0f64);
        assert_eq!(line.depth(), 10);
        let line = DelayLine::with_delay(Seconds::new(10.0), Seconds::new(0.5), 0.0f64);
        assert_eq!(line.depth(), 20);
        let line = DelayLine::with_delay(Seconds::new(0.0), Seconds::new(1.0), 0.0f64);
        assert_eq!(line.depth(), 0);
        // Non-integral ratios round to the nearest sample.
        let line = DelayLine::with_delay(Seconds::new(10.0), Seconds::new(3.0), 0.0f64);
        assert_eq!(line.depth(), 3);
    }

    #[test]
    fn peek_previews_next_output() {
        let mut line = DelayLine::new(2, 7.0);
        assert_eq!(line.peek(), Some(7.0));
        line.push(1.0);
        line.push(2.0);
        assert_eq!(line.peek(), Some(1.0));
        assert_eq!(line.push(3.0), 1.0);
    }

    #[test]
    fn works_with_non_float_payloads() {
        let mut line: DelayLine<(u32, bool)> = DelayLine::new(1, (0, false));
        assert_eq!(line.push((1, true)), (0, false));
        assert_eq!(line.push((2, false)), (1, true));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_sample_interval_rejected() {
        let _ = DelayLine::with_delay(Seconds::new(1.0), Seconds::new(0.0), 0.0f64);
    }
}
