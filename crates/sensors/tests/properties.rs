//! Property-based tests for the measurement subsystem.

use gfsc_sensors::{AdcQuantizer, DelayLine, MeasurementPipeline, MovingAverage, Rounding};
use gfsc_units::Seconds;
use proptest::prelude::*;

proptest! {
    /// Quantization error is bounded by one step (floor mode: `[0, step)`).
    #[test]
    fn quantizer_error_bounded(x in 0.0f64..255.0) {
        let adc = AdcQuantizer::date14();
        let q = adc.quantize(x);
        prop_assert!(q <= x && x - q < adc.step() + 1e-12);
    }

    /// Nearest-mode error is bounded by half a step.
    #[test]
    fn nearest_error_bounded(x in 0.0f64..255.0) {
        let adc = AdcQuantizer::new(8, 0.0, 255.0, Rounding::Nearest);
        let q = adc.quantize(x);
        prop_assert!((q - x).abs() <= adc.step() / 2.0 + 1e-12);
    }

    /// Quantization is monotone: a hotter input never reads colder.
    #[test]
    fn quantizer_monotone(a in -50.0f64..300.0, b in -50.0f64..300.0) {
        let adc = AdcQuantizer::date14();
        if a <= b {
            prop_assert!(adc.quantize(a) <= adc.quantize(b));
        }
    }

    /// Quantization is idempotent.
    #[test]
    fn quantizer_idempotent(x in -50.0f64..300.0) {
        let adc = AdcQuantizer::date14();
        let q = adc.quantize(x);
        prop_assert_eq!(adc.quantize(q), q);
    }

    /// A delay line reproduces its input shifted by exactly `depth`.
    #[test]
    fn delay_line_shifts_exactly(depth in 0usize..50, n in 1usize..200) {
        let mut line = DelayLine::new(depth, f64::NEG_INFINITY);
        let inputs: Vec<f64> = (0..n).map(|k| k as f64).collect();
        let outputs: Vec<f64> = inputs.iter().map(|&x| line.push(x)).collect();
        for (k, &out) in outputs.iter().enumerate() {
            if k >= depth {
                prop_assert_eq!(out, inputs[k - depth]);
            } else {
                prop_assert_eq!(out, f64::NEG_INFINITY);
            }
        }
    }

    /// The moving average always lies within the range of its window.
    #[test]
    fn moving_average_within_window_range(
        window in 1usize..20,
        samples in proptest::collection::vec(-100.0f64..100.0, 1..100),
    ) {
        let mut f = MovingAverage::new(window);
        for chunk_end in 1..=samples.len() {
            let avg = f.update(samples[chunk_end - 1]);
            let start = chunk_end.saturating_sub(window);
            let lo = samples[start..chunk_end].iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = samples[start..chunk_end].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9);
        }
    }

    /// End-to-end: a constant input eventually reads back (quantized) and
    /// never produces values outside the ADC range.
    #[test]
    fn pipeline_converges_to_quantized_constant(value in 0.0f64..250.0, lag in 0.0f64..20.0) {
        let mut chain = MeasurementPipeline::builder()
            .sample_interval(Seconds::new(1.0))
            .adc(AdcQuantizer::date14())
            .delay(Seconds::new(lag))
            .initial(0.0)
            .build();
        let mut seen = 0.0;
        for k in 0..=(lag as usize + 2) {
            seen = chain.observe(Seconds::new(k as f64), value);
            prop_assert!((0.0..=255.0).contains(&seen));
        }
        prop_assert_eq!(seen, value.floor());
    }

    /// The pipeline's reported value is always a value the input actually
    /// took (quantized), never an interpolation artifact.
    #[test]
    fn pipeline_never_invents_values(lag in 0usize..15) {
        let mut chain = MeasurementPipeline::builder()
            .sample_interval(Seconds::new(1.0))
            .delay(Seconds::new(lag as f64))
            .initial(-1.0)
            .build();
        let inputs: Vec<f64> = (0..40).map(|k| (k * 7 % 13) as f64).collect();
        for (k, &x) in inputs.iter().enumerate() {
            let seen = chain.observe(Seconds::new(k as f64), x);
            prop_assert!(seen == -1.0 || inputs.contains(&seen));
        }
    }
}
