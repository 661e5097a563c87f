//! Compact thermal models for air-cooled server sockets.
//!
//! Implements the temperature modeling of Section III-B of the paper using
//! the well-known duality between thermal and electrical phenomena (HotSpot
//! methodology, Huang et al., IEEE TVLSI 2006):
//!
//! - [`HeatSinkLaw`]: the fan-speed-dependent heat-sink thermal resistance
//!   `R_hs(V) = 0.141 + 132.51 / V^0.923` K/W (paper Table I),
//! - [`HeatSinkNode`]: a single RC node integrated with the exact
//!   exponential update of Eq. (2)–(3),
//! - [`DieNode`]: the CPU die, whose 0.1 s time constant is far below the
//!   heat-sink's 60 s, justifying the paper's quasi-steady treatment,
//! - [`ServerThermalModel`]: die-on-heat-sink composition used by the
//!   `gfsc-server` simulator,
//! - [`RcNetwork`]: a general N-node RC thermal network (builder +
//!   backward-Euler integrator) for cross-validation and extensions,
//! - [`Topology`]: a plain-data description of how many heat sources share
//!   the one fan (1S/2S/4S boards, blade chassis with a coupled spreader),
//!   and [`RackTopology`], the same one level up (servers in fan zones
//!   over a shared plenum; a single server is the one-slot rack),
//! - [`RackPlant`]: a [`RackTopology`] compiled onto the cached
//!   [`RcNetwork`] — the one plant behind every multi-socket server and
//!   every rack, with per-zone [`PlantModel`] views ([`ZonePlant`]) for
//!   the model-based controllers,
//! - [`BatchRcNetwork`]: B same-structure [`RcNetwork`]s stepped in
//!   lockstep through shared, memoized LU factorizations — bitwise
//!   identical to scalar stepping, built for wide scenario sweeps,
//! - [`FanZoneMap`]: the explicit fan→link mapping — which
//!   airflow-dependent links follow which fan. The single-zone map is the
//!   legacy "every sink→ambient link follows the one fan" rule;
//!   multi-zone maps are what rack-scale plants build on.
//!
//! # Examples
//!
//! ```
//! use gfsc_thermal::{HeatSinkLaw, ServerThermalModel};
//! use gfsc_units::{Celsius, Rpm, Seconds, Watts};
//!
//! let mut model = ServerThermalModel::date14(Celsius::new(30.0));
//! // one minute at 140.8 W (u = 0.7) and 3000 rpm
//! for _ in 0..600 {
//!     model.step(Seconds::new(0.1), Watts::new(140.8), Rpm::new(3000.0));
//! }
//! let t = model.junction();
//! assert!(t > Celsius::new(40.0) && t < Celsius::new(100.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod die;
mod heatsink;
mod network;
mod plant;
mod server_model;
mod topology;
mod zone;

pub use batch::BatchRcNetwork;
pub use die::DieNode;
pub use heatsink::{HeatSinkLaw, HeatSinkNode};
pub use network::{
    BoundaryId, LinkId, NetworkError, NodeId, RcNetwork, RcNetworkBuilder, SteadyStateScratch,
};
pub use plant::{PlantCalibration, PlantModel, RackPlant, ZonePlant};
pub use server_model::ServerThermalModel;
pub use topology::{
    ChassisDef, PlenumDef, RackTopology, RackZoneDef, ServerSlot, SocketDef, Topology,
};
pub use zone::{FanZoneMap, ZoneId};

/// A multi-socket server is the one-slot [`RackPlant`]
/// ([`RackTopology::single_server`]); its server-level contract — probes
/// that leave the live state alone, a tight min-safe inversion, an
/// ambient-relative equilibrium — is pinned here on the 2S board.
#[cfg(test)]
mod multi_socket {
    use crate::{HeatSinkLaw, PlantCalibration, RackPlant, RackTopology, Topology};
    use gfsc_units::{Celsius, KelvinPerWatt, Rpm, Seconds, Watts};

    /// The dual-socket server at 30 °C ambient.
    fn dual_socket() -> RackPlant {
        let cal = PlantCalibration {
            ambient: Celsius::new(30.0),
            law: HeatSinkLaw::date14(),
            sink_tau: Seconds::new(60.0),
            tau_speed: Rpm::new(8500.0),
            r_jc: KelvinPerWatt::new(0.10),
            die_tau: Seconds::new(0.1),
        };
        RackPlant::new(&cal, &RackTopology::single_server(Topology::dual_socket())).unwrap()
    }

    mod tests {
        use super::*;

        #[test]
        fn transient_converges_to_probed_steady_state() {
            let mut plant = dual_socket();
            let (p, v) = ([Watts::new(140.8); 2], [Rpm::new(4000.0)]);
            let ss = plant.steady_state_junctions(&p, &v);
            // The probe itself never disturbed the live state.
            assert_eq!(plant.hottest_junction(), Celsius::new(30.0));
            for _ in 0..100_000 {
                plant.step(Seconds::new(1.0), &p, &v);
            }
            for (i, &ss_i) in ss.iter().enumerate() {
                assert!((plant.junction(i) - ss_i).abs() < 1e-6, "socket {i}");
            }
            assert_eq!(plant.fan_speed(0), v[0]);
        }

        #[test]
        fn min_safe_fan_speed_is_tight_and_monotone() {
            let plant = dual_socket();
            let p = [Watts::new(140.8); 2];
            let limit = Celsius::new(75.0);
            let v = plant.min_safe_zone_fan(0, &p, &[Rpm::new(0.0)], limit).expect("reachable");
            let at = |v: Rpm| plant.steady_state_hottest_in_zone(0, &p, &[v]);
            assert!((at(v) - limit).abs() < 0.01, "at {}", at(v));
            assert!(at(v + 100.0) < limit);
            assert!(at(v - 100.0) > limit);
        }

        #[test]
        fn ambient_shifts_equilibrium() {
            let mut plant = dual_socket();
            let (p, v) = ([Watts::new(100.0); 2], [Rpm::new(4000.0)]);
            let a = plant.steady_state_hottest_in_zone(0, &p, &v);
            plant.set_ambient(Celsius::new(40.0));
            let b = plant.steady_state_hottest_in_zone(0, &p, &v);
            assert!((b - a - 10.0).abs() < 1e-9);
            assert_eq!(plant.ambient(), Celsius::new(40.0));
        }
    }
}
