//! The single-zone special case: a multi-socket server's plant *is* the
//! one-server, no-plenum rack, step for step.
//!
//! [`Server::new`] compiles a multi-socket board into a one-slot
//! [`RackPlant`] from [`ServerSpec::calibration`]. Two entry points
//! reach that one network — the rack's per-zone slice API and the
//! server-level [`Plant`] — and each assembles its power and link
//! overrides its own way. They must never disagree by a single bit.
//!
//! The closed plant around the network follows the same rule: a
//! multi-socket [`Server`] is the one-slot [`RackServer`] — fan, sensor
//! chains, aggregation, meters and clock included.

use gfsc::thermal::Topology;
use gfsc_rack::{RackPlant, RackServer, RackSpec, RackTopology};
use gfsc_server::{Plant, Server, ServerSpec};
use gfsc_units::{Celsius, Rpm, Seconds, Utilization, Watts};
use proptest::prelude::*;

fn boards() -> Vec<Topology> {
    vec![
        Topology::dual_socket(),
        Topology::dual_socket_imbalanced(),
        Topology::quad_socket(),
        Topology::blade_chassis(),
        Topology::finned(2, 8),
    ]
}

/// The plant a multi-socket [`Server`] on `board` steps, and the same
/// board compiled directly as a one-slot rack.
fn server_and_rack(board: &Topology) -> (Plant, RackPlant) {
    let spec = ServerSpec::with_topology(board.clone());
    let rack = RackPlant::new(&spec.calibration(), &RackTopology::single_server(board.clone()))
        .expect("stock boards compile");
    let plant = Server::new(spec).plant().clone();
    assert!(
        matches!(plant, Plant::Network(_)),
        "{}: multi-socket boards step the network",
        board.label()
    );
    (plant, rack)
}

#[test]
fn single_zone_rack_matches_multi_socket_plant_step_for_step() {
    for board in boards() {
        let n = board.sockets().len();
        let (mut plant, mut rack) = server_and_rack(&board);
        let mut powers = vec![Watts::new(0.0); n];
        for k in 0..500u32 {
            // Exercise fan moves, dt switches and power ramps together.
            let fan = Rpm::new(1500.0 + 70.0 * f64::from(k % 100));
            for (i, p) in powers.iter_mut().enumerate() {
                *p = Watts::new(96.0 + f64::from((k + i as u32) % 64));
            }
            let dt = Seconds::new(if (k / 200) % 2 == 0 { 0.5 } else { 2.0 });
            rack.step(dt, &powers, &[fan]);
            plant.step(dt, &powers, fan);
            for i in 0..n {
                assert_eq!(
                    rack.junction(i).value().to_bits(),
                    plant.junction(i).value().to_bits(),
                    "{}: server junction {i} diverged at step {k}",
                    board.label()
                );
            }
            assert_eq!(plant.hottest_junction(), rack.hottest_junction(), "{}", board.label());
        }
    }
}

#[test]
fn single_zone_rack_matches_multi_socket_steady_state_and_inversion() {
    for board in boards() {
        let n = board.sockets().len();
        let (plant, rack) = server_and_rack(&board);
        let powers = vec![Watts::new(140.8); n];
        for fan in [1500.0, 3000.0, 6000.0, 8500.0] {
            let fan = Rpm::new(fan);
            let rack_ss = rack.steady_state_hottest_in_zone(0, &powers, &[fan]);
            let plant_ss = plant.steady_state_junction(&powers, fan);
            assert_eq!(rack_ss.value().to_bits(), plant_ss.value().to_bits(), "{}", board.label());
        }
        let limit = Celsius::new(78.0);
        let rack_min = rack.min_safe_zone_fan(0, &powers, &[Rpm::new(4000.0)], limit);
        assert!(rack_min.is_some(), "{}: 78 °C is reachable", board.label());
        assert_eq!(plant.min_safe_fan_speed(&powers, limit), rack_min, "{}", board.label());
    }
}

/// Per-socket junction and measured temperatures, then the aggregate
/// reading, fan speed, CPU and fan energy and clock — as bits, so a
/// [`Server`] and the [`RackServer`] on its one-slot rack compare exactly.
fn server_bits(s: &Server) -> Vec<u64> {
    let mut v: Vec<f64> = (0..s.socket_count())
        .flat_map(|i| [s.junction_socket(i).value(), s.measured_socket(i).value()])
        .collect();
    v.extend([s.measured_temperature().value(), s.fan_speed().value()]);
    v.extend([s.cpu_energy().value(), s.fan_energy().value(), s.now().value()]);
    v.into_iter().map(f64::to_bits).collect()
}

fn rack_bits(r: &RackServer) -> Vec<u64> {
    let mut v: Vec<f64> = (0..r.socket_count())
        .flat_map(|i| [r.junction_socket(i).value(), r.measured_socket(i).value()])
        .collect();
    v.extend([r.measured_zone(0).value(), r.zone_fan_speed(0).value()]);
    v.extend([r.cpu_energy().value(), r.fan_energy().value(), r.now().value()]);
    v.into_iter().map(f64::to_bits).collect()
}

#[test]
fn multi_socket_server_is_the_one_slot_rack_server() {
    for board in boards() {
        let label = board.label().to_owned();
        let spec = ServerSpec::with_topology(board.clone());
        let mut server = Server::new(spec.clone());
        let mut rack =
            RackServer::new(RackSpec { server: spec, rack: RackTopology::single_server(board) });
        assert_eq!(server_bits(&server), rack_bits(&rack), "{label}: at construction");

        // `plant_golden`'s schedule: a utilization ramp, a target move
        // every 45 steps, dt alternating 0.5 s / 1 s in 200-step blocks.
        let mut executed = vec![Utilization::IDLE; rack.socket_count()];
        for k in 0..600u32 {
            let u = Utilization::new(0.1 + 0.8 * f64::from((k * 7) % 10) / 10.0);
            if k.is_multiple_of(45) {
                let target = Rpm::new(1500.0 + 900.0 * f64::from((k / 45) % 8));
                server.set_fan_target(target);
                rack.set_zone_fan_target(0, target);
            }
            let dt = Seconds::new(if (k / 200).is_multiple_of(2) { 0.5 } else { 1.0 });
            server.step(dt, u);
            rack.socket_demands(u, &mut executed);
            rack.step(dt, &executed);
            assert_eq!(server_bits(&server), rack_bits(&rack), "{label}: step {k}");
        }

        server.equilibrate(Utilization::new(0.6), Rpm::new(3500.0));
        rack.equilibrate(Utilization::new(0.6), &[Rpm::new(3500.0)]);
        assert_eq!(server_bits(&server), rack_bits(&rack), "{label}: after equilibrate");

        for u in [0.2, 0.7, 1.0] {
            for limit in [60.0, 75.0, 80.0] {
                let (u, limit) = (Utilization::new(u), Celsius::new(limit));
                let server_min = server.min_safe_fan_speed(u, limit).map(|v| v.value().to_bits());
                let rack_min = rack.min_safe_zone_fan(0, u, limit).map(|v| v.value().to_bits());
                assert_eq!(server_min, rack_min, "{label}: min-safe at {u:?}, {limit}");
            }
        }
    }
}

proptest! {
    /// Random trajectories on the 2S board: the server's plant and the
    /// one-slot rack never diverge by a single bit.
    #[test]
    fn random_trajectories_never_diverge(
        seed in 0u64..1024,
        steps in 50usize..200,
    ) {
        let (mut plant, mut rack) = server_and_rack(&Topology::dual_socket());
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for k in 0..steps {
            let fan = Rpm::new(1500.0 + 7000.0 * next());
            let powers = [Watts::new(96.0 + 64.0 * next()), Watts::new(96.0 + 64.0 * next())];
            let dt = Seconds::new(0.25 + 1.75 * next());
            rack.step(dt, &powers, &[fan]);
            plant.step(dt, &powers, fan);
            for i in 0..2 {
                prop_assert_eq!(
                    rack.junction(i).value().to_bits(),
                    plant.junction(i).value().to_bits(),
                    "server junction {} diverged at step {}", i, k
                );
            }
        }
    }
}
