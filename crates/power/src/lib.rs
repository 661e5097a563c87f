//! Server power models (paper Section III-B).
//!
//! Total server power is `P_tot = P_cpu + P_fan` with
//!
//! - `P_cpu = P_static + P_dyn · u` — linear in CPU utilization
//!   (Economou et al., WMBS'06; Pedram & Hwang, ICPPW'10),
//! - `P_fan ∝ s_fan³` — the cubic fan affinity law, anchored at the Table I
//!   figure of 29.4 W per socket at 8500 rpm.
//!
//! The server chassis (`gfsc-server`) evaluates both models and meters
//! CPU and fan energy with one [`EnergyMeter`] each, which integrates
//! power over simulation steps; the Table III metric "normalized fan
//! energy" is the ratio of two meters' totals.
//!
//! # Examples
//!
//! ```
//! use gfsc_power::{CpuPowerModel, FanPowerModel};
//! use gfsc_units::{Rpm, Utilization};
//!
//! let cpu = CpuPowerModel::date14();
//! assert_eq!(cpu.power(Utilization::IDLE).value(), 96.0);
//! assert_eq!(cpu.power(Utilization::FULL).value(), 160.0);
//!
//! let fan = FanPowerModel::date14();
//! assert!((fan.power(Rpm::new(8500.0)).value() - 29.4).abs() < 1e-9);
//! assert!((fan.power(Rpm::new(4250.0)).value() - 29.4 / 8.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpu;
mod energy;
mod fan;

pub use cpu::CpuPowerModel;
pub use energy::EnergyMeter;
pub use fan::FanPowerModel;
