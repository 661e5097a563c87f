//! Synthetic CPU workload generation.
//!
//! The paper evaluates on "synthetic workload traces which alternate
//! between 0.1 and 0.7 while imposing a random Gaussian noise" (Section
//! VI-A), with Fig. 5 using noise of standard deviation 0.04, plus abrupt
//! utilization spikes that motivate the single-step fan scaling scheme
//! (Section V-C, citing Bhattacharya et al. on the speed of production load
//! spikes). This crate generates those traces deterministically from a
//! seed:
//!
//! - deterministic base [`Signal`]s: [`SquareWave`], [`Constant`],
//!   [`Sine`],
//! - [`GaussianNoise`] (Box–Muller over `rand` uniforms — `rand_distr` is
//!   not in the approved offline dependency set),
//! - [`SpikeProcess`]: Poisson-arriving rectangular utilization spikes,
//! - [`Workload`]: the composed, clamped sampler the simulator consumes.
//!
//! # Examples
//!
//! ```
//! use gfsc_workload::{SquareWave, Workload};
//! use gfsc_units::Seconds;
//!
//! // The paper's trace: 0.1 / 0.7 alternation with sigma = 0.04 noise.
//! let mut w = Workload::builder(SquareWave::date14())
//!     .gaussian_noise(0.04, 42)
//!     .build();
//! let u = w.sample(Seconds::new(130.0));
//! assert!(u.value() <= 1.0 && u.value() >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod noise;
mod signal;
mod spikes;
mod workload;

pub use noise::GaussianNoise;
pub use signal::{Constant, Signal, Sine, SquareWave};
pub use spikes::SpikeProcess;
pub use workload::{Workload, WorkloadBuilder};
