//! The non-ideal temperature measurement subsystem of an enterprise server.
//!
//! The paper's core premise is that the control firmware never sees the true
//! junction temperature. Two artifacts corrupt the signal on its way from
//! the physical transducer to the Service Processor / BMC:
//!
//! 1. **Quantization** — sensors are digitized by standardized 8-bit ADCs,
//!    so readings arrive in 1 °C steps ([`AdcQuantizer`]).
//! 2. **Time lag** — all sensors share an I2C management bus; with dozens of
//!    sensors polled round-robin by slow firmware, a fresh reading takes
//!    ~10 s to reach the control algorithm ([`I2cBusModel`],
//!    [`TelemetryScanner`], or the distilled [`DelayLine`]).
//!
//! [`MeasurementPipeline`] composes sampling, quantization and delay into
//! the single `observe(now, true_value)` call the simulator uses, and
//! [`MovingAverage`] provides the smoothing filter referenced for
//! utilization prediction (Coskun et al.).
//!
//! # Examples
//!
//! ```
//! use gfsc_sensors::MeasurementPipeline;
//! use gfsc_units::{Celsius, Seconds};
//!
//! // The DATE'14 chain: 1 s sampling, 1 °C ADC, 10 s transport lag.
//! let mut chain = MeasurementPipeline::date14();
//! let mut seen = Celsius::new(0.0);
//! for k in 0..=30 {
//!     let now = Seconds::new(k as f64);
//!     seen = chain.observe_celsius(now, Celsius::new(55.7));
//! }
//! // After the lag has elapsed the DTM sees the quantized value.
//! assert_eq!(seen, Celsius::new(55.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adc;
mod delay;
mod filter;
mod health;
mod i2c;
mod pipeline;

pub use adc::{AdcQuantizer, Rounding};
pub use delay::DelayLine;
pub use filter::MovingAverage;
pub use health::{SensorHealth, SensorStatus};
pub use i2c::{I2cBusModel, TelemetryScanner};
pub use pipeline::{MeasurementPipeline, MeasurementPipelineBuilder};
