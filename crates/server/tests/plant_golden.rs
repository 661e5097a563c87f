//! Golden pins for the RC-network plant behind `Server`: every
//! multi-socket board a server runs on, bit for bit, through each entry
//! point that reaches the network — the whole step, the split
//! `begin_step` → network step → `finish_step` path the batch engine
//! drives, `equilibrate`, the steady-state probe and the min-safe
//! inversion (including the all-idle and unreachable edge answers).
//!
//! Each board folds its junction, measured and fan bits into one FNV-1a
//! hash per channel. A change to how a board compiles onto the network
//! (node or link order, capacitances, the fin array, the fan→link map)
//! or to how the plant is inverted trips the board it touched.
//!
//! If a change *intentionally* moves these numerics, re-capture with
//!
//! ```text
//! cargo test -p gfsc-server --test plant_golden -- --ignored --nocapture
//! ```
//!
//! paste the printed rows over `GOLDENS`, and say so in the commit
//! message.

use gfsc_server::{Server, ServerSpec};
use gfsc_thermal::Topology;
use gfsc_units::{Celsius, Rpm, Seconds, Utilization, Watts};

const STEPS: u32 = 600;

/// Running FNV-1a hashes over the little-endian bytes of each sample's
/// bit pattern, one per observable channel.
struct Hashes {
    junction: u64,
    measured: u64,
    fan: u64,
}

fn fnv_push(h: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl Hashes {
    fn new() -> Self {
        let offset = 0xcbf2_9ce4_8422_2325;
        Self { junction: offset, measured: offset, fan: offset }
    }

    /// Folds in every socket's true and measured junction, the
    /// aggregated reading, and the actual fan speed.
    fn observe(&mut self, server: &Server) {
        for i in 0..server.socket_count() {
            fnv_push(&mut self.junction, server.junction_socket(i).value().to_bits());
            fnv_push(&mut self.measured, server.measured_socket(i).value().to_bits());
        }
        fnv_push(&mut self.measured, server.measured_temperature().value().to_bits());
        fnv_push(&mut self.fan, server.fan_speed().value().to_bits());
    }

    /// A min-safe answer; `None` folds in as all-ones.
    fn min_safe(&mut self, answer: Option<Rpm>) {
        fnv_push(&mut self.fan, answer.map_or(u64::MAX, |v| v.value().to_bits()));
    }
}

/// Step `k`'s demand, fan target and step length: utilization ramps
/// through the load range, the target moves every 45 steps, and `dt`
/// alternates between the 0.5 s production step and 1 s in 200-step
/// blocks (so the LU cache re-factorizes on both triggers).
fn schedule(k: u32) -> (Utilization, Option<Rpm>, Seconds) {
    let u = Utilization::new(0.1 + 0.8 * f64::from((k * 7) % 10) / 10.0);
    let target = k.is_multiple_of(45).then(|| Rpm::new(1500.0 + 900.0 * f64::from((k / 45) % 8)));
    let dt = Seconds::new(if (k / 200).is_multiple_of(2) { 0.5 } else { 1.0 });
    (u, target, dt)
}

fn capture(board: Topology) -> [u64; 3] {
    let spec = ServerSpec::with_topology(board);
    let mut h = Hashes::new();

    let mut whole = Server::new(spec.clone());
    for k in 0..STEPS {
        let (u, target, dt) = schedule(k);
        if let Some(target) = target {
            whole.set_fan_target(target);
        }
        whole.step(dt, u);
        h.observe(&whole);
    }

    let mut split = Server::new(spec);
    for k in 0..STEPS {
        let (u, target, dt) = schedule(k);
        if let Some(target) = target {
            split.set_fan_target(target);
        }
        split.begin_step(dt, u);
        split.batch_network_mut().expect("multi-socket boards run the RC network").step(dt);
        split.finish_step(dt);
        h.observe(&split);
    }

    split.equilibrate(Utilization::new(0.6), Rpm::new(3500.0));
    h.observe(&split);
    split.set_fan_target(Rpm::new(2500.0));
    for _ in 0..120 {
        split.step(Seconds::new(0.5), Utilization::new(0.8));
        h.observe(&split);
    }

    for u in [0.2, 0.7, 1.0] {
        for fan in [1500.0, 4000.0, 8500.0] {
            let t = split.steady_state_junction(Utilization::new(u), Rpm::new(fan));
            fnv_push(&mut h.junction, t.value().to_bits());
        }
        for limit in [36.0, 60.0, 75.0, 80.0, 95.0] {
            h.min_safe(split.min_safe_fan_speed(Utilization::new(u), Celsius::new(limit)));
        }
    }

    // The plant entry points with explicit, uneven per-socket powers.
    let plant = split.plant();
    let n = plant.socket_count();
    let uneven: Vec<Watts> = (0..n).map(|i| Watts::new(100.0 + 17.0 * i as f64)).collect();
    for fan in [2000.0, 6000.0] {
        let t = plant.steady_state_junction(&uneven, Rpm::new(fan));
        fnv_push(&mut h.junction, t.value().to_bits());
    }
    for limit in [30.0, 70.0, 85.0] {
        h.min_safe(plant.min_safe_fan_speed(&uneven, Celsius::new(limit)));
    }
    // All-idle powers need no airflow at any limit, even one below the
    // ambient.
    let idle = vec![Watts::new(0.0); n];
    for limit in [20.0, 90.0] {
        h.min_safe(plant.min_safe_fan_speed(&idle, Celsius::new(limit)));
    }

    [h.junction, h.measured, h.fan]
}

fn boards() -> [(&'static str, Topology); 5] {
    [
        ("dual", Topology::dual_socket()),
        ("dual-imbalanced", Topology::dual_socket_imbalanced()),
        ("quad", Topology::quad_socket()),
        ("blade-chassis", Topology::blade_chassis()),
        ("finned-2x8", Topology::finned(2, 8)),
    ]
}

/// `[junction, measured, fan]` per board, in [`boards`] order.
const GOLDENS: [(&str, [u64; 3]); 5] = [
    ("dual", [0x77cafe1f2f325031, 0x339cd637c0beb871, 0xd0c2e14956597cdd]),
    ("dual-imbalanced", [0x621ce5f1b5970c45, 0x8ca4211fa08fb4ce, 0xd54ed30e87087720]),
    ("quad", [0x91f85d8baf036ea7, 0xe8e96b2565ed3999, 0xbf31c67c4b18e034]),
    ("blade-chassis", [0x2f64a2d8a6d3d173, 0x9b92b4cf132d5c66, 0xd9609c90b2c82328]),
    ("finned-2x8", [0xa1e0288f1a37a309, 0x0e56a0ec1c46e16c, 0x167771d243f6e0fd]),
];

#[test]
fn network_plant_is_bit_identical_to_the_goldens() {
    for ((label, board), (golden_label, golden)) in boards().into_iter().zip(GOLDENS) {
        assert_eq!(label, golden_label);
        let got = capture(board);
        for (channel, (g, w)) in ["junction", "measured", "fan"].iter().zip(got.iter().zip(golden))
        {
            assert_eq!(*g, w, "{label}: {channel} hash {g:#018x} != golden {w:#018x}");
        }
    }
}

#[test]
#[ignore = "prints fresh goldens; run deliberately when numerics change on purpose"]
fn print_goldens() {
    for (label, board) in boards() {
        let [j, m, f] = capture(board);
        println!("    (\"{label}\", [{j:#018x}, {m:#018x}, {f:#018x}]),");
    }
}
