//! Control algorithms for variable fan speed control (paper Section IV).
//!
//! The paper's first contribution is a fan-speed controller that stays
//! stable despite a 10 s measurement lag and 1 °C quantization. This crate
//! implements that controller and everything needed to derive and evaluate
//! it:
//!
//! - [`PidController`]: the discrete positional PID of Eq. (4), with output
//!   clamping and conditional anti-windup,
//! - [`ZieglerNichols`] + [`ZnTuner`]: closed-loop ultimate-gain tuning
//!   (Eq. 5–7) against any [`Plant`],
//! - [`GainSchedule`] + [`AdaptivePid`]: the adaptive PID that interpolates
//!   per-region gains by operating fan speed (Eq. 8–9) and resets the
//!   integrator on region changes,
//! - [`QuantizationHold`]: the quantization-error elimination rule
//!   (Eq. 10),
//! - [`Deadzone`]: the simple controller shipping firmware uses today,
//!   reproduced as a baseline (it oscillates under non-ideal
//!   measurement — Fig. 4).
//!
//! # Sign convention
//!
//! Throughout, the error is `e = measurement − setpoint` and the control
//! output is `offset + K_P·e + K_I·Σe + K_D·Δe`. With positive gains this
//! suits *reverse-acting* plants where pushing the actuator lowers the
//! measurement — exactly the fan/temperature pair (more rpm → lower °C).
//!
//! # Examples
//!
//! ```
//! use gfsc_control::{PidController, PidGains};
//! use gfsc_units::Bounds;
//!
//! let mut pid = PidController::new(PidGains::new(50.0, 5.0, 20.0))
//!     .with_output_bounds(Bounds::new(1000.0, 8500.0))
//!     .with_offset(2000.0);
//! // Temperature is 3 K above the reference: spin the fan up.
//! let cmd = pid.update(3.0);
//! assert!(cmd > 2000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod pid;
mod quantization;
mod threshold;
mod tuning;

pub use adaptive::{AdaptivePid, GainSchedule, Region};
pub use pid::{PidController, PidGains};
pub use quantization::QuantizationHold;
pub use threshold::Deadzone;
pub use tuning::{Plant, TuneError, UltimateGain, ZieglerNichols, ZnTuner, ZnTunerConfig};
