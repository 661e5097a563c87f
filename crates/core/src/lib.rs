//! `gfsc` — Global Fan Speed Control under non-ideal temperature
//! measurement.
//!
//! A full reproduction of *"Global Fan Speed Control Considering Non-Ideal
//! Temperature Measurements in Enterprise Servers"* (Kim, Sabry, Atienza,
//! Vaidyanathan, Gross — DATE 2014) as a Rust workspace. This facade crate
//! ties the substrates together and hosts the experiment layer that
//! regenerates every figure and table of the paper's evaluation.
//!
//! # The problem
//!
//! Enterprise-server firmware reads CPU temperatures through an 8-bit ADC
//! (1 °C quantization) and a contended I2C bus (~10 s lag). Naive variable
//! fan-speed control oscillates under those artifacts, and independent
//! thermal actors (fan controller, CPU power capping) destabilize each
//! other. The paper contributes (1) an adaptive, gain-scheduled PID fan
//! controller robust to both artifacts and (2) a rule-based global
//! coordinator that actuates one knob at a time, biased toward
//! performance.
//!
//! # Quickstart
//!
//! ```
//! use gfsc::{Simulation, Solution};
//! use gfsc_units::Seconds;
//!
//! // Run the paper's full proposal on the DATE'14 synthetic workload.
//! let outcome = Simulation::builder()
//!     .solution(Solution::RCoordAdaptiveTrefSsFan)
//!     .seed(42)
//!     .build()
//!     .run(Seconds::new(900.0));
//! assert!(outcome.violation_percent < 100.0);
//! ```
//!
//! # Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`gfsc_units`] | typed quantities (°C, rpm, W, J, s, utilization) |
//! | [`gfsc_sim`] | simulation kernel, traces, stability statistics |
//! | [`gfsc_thermal`] | RC thermal models, heat-sink law |
//! | [`gfsc_power`] | CPU/fan power models, energy metering |
//! | [`gfsc_sensors`] | ADC, delay line, I2C scanner, moving-average filter |
//! | [`gfsc_workload`] | synthetic demand traces |
//! | [`gfsc_control`] | PID, Ziegler–Nichols, adaptive PID, deadzone baseline |
//! | [`gfsc_server`] | the simulated enterprise server |
//! | [`gfsc_rack`] | rack-scale plant: fan zones, shared plenum |
//! | [`gfsc_coord`] | cappers, coordinators, server & rack closed-loop runners |
//! | `gfsc` (this crate) | solutions, experiments, figure/table harness |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod gains;
mod render;
mod simulation;
mod solution;
pub mod sweep;

pub use gains::{date14_gain_schedule, fine_gain_schedule, tune_gain_schedule, tune_single_region};
pub use render::{markdown_table, write_traces_csv};
pub use simulation::{date14_workload, Simulation, SimulationBuilder};
pub use solution::Solution;

// Re-export the workspace so downstream users need a single dependency.
pub use gfsc_control as control;
pub use gfsc_coord as coord;
pub use gfsc_power as power;
pub use gfsc_rack as rack;
pub use gfsc_sensors as sensors;
pub use gfsc_server as server;
pub use gfsc_sim as sim;
pub use gfsc_thermal as thermal;
pub use gfsc_units as units;
pub use gfsc_workload as workload;
