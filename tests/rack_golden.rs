//! Golden-trace regression pins for the rack solutions matrix — the rack
//! counterpart of `tests/two_node_bit_compat.rs`.
//!
//! One fixed scenario (the 2U×4 preset, the DATE'14-style evaluation
//! workload at seed 42, 600 s, the paper's published fixed fan gains) is
//! run through **every** `RackControl` mode, and the complete observable
//! surface — violation percentage, fan and CPU energy, and FNV hashes of
//! the per-zone fan / per-socket cap / junction traces — is pinned bit
//! for bit. Any refactor that silently shifts rack behaviour in any mode
//! trips exactly the rows it shifted.
//!
//! If a future PR *intentionally* changes rack numerics, re-capture with
//!
//! ```text
//! cargo test --release --test rack_golden -- --ignored --nocapture
//! ```
//!
//! paste the printed table over `GOLDENS`, and say so in the commit
//! message.

use gfsc_coord::{RackControl, RackLoopSim, RunOutcome};
use gfsc_rack::{RackSpec, RackTopology};
use gfsc_units::Seconds;
use gfsc_workload::{SquareWave, Workload};

/// FNV-1a over the little-endian bytes of each sample's bit pattern.
fn fnv(bits: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn run(control: RackControl, rack: RackTopology) -> RunOutcome {
    let workload = Workload::builder(SquareWave::date14())
        .gaussian_noise(0.04, 42)
        .spikes(1.0 / 240.0, Seconds::new(30.0), 0.8, 43)
        .build();
    let mut sim =
        RackLoopSim::builder(RackSpec::new(rack)).workload(workload).control(control).build();
    sim.run(Seconds::new(600.0))
}

/// The pinned channels: zone fan walls, a front and a rear socket's cap,
/// and the rear-most junction (the 2U boards' downstream socket — the
/// first place regressions show).
const CHANNELS: [&str; 5] = ["z0_fan_rpm", "z1_fan_rpm", "s0_cap", "s7_cap", "s7_t_junction_c"];

struct Golden {
    control: RackControl,
    violation_bits: u64,
    fan_energy_bits: u64,
    cpu_energy_bits: u64,
    trace_fnv: [u64; 5],
}

fn capture(control: RackControl, rack: RackTopology) -> Golden {
    let out = run(control, rack);
    let hash_of = |channel: &str| {
        fnv(out.traces.require(channel).unwrap().values().iter().map(|v| v.to_bits()))
    };
    let mut trace_fnv = [0u64; 5];
    for (slot, channel) in trace_fnv.iter_mut().zip(CHANNELS) {
        *slot = hash_of(channel);
    }
    Golden {
        control,
        violation_bits: out.violation_percent.to_bits(),
        fan_energy_bits: out.fan_energy.value().to_bits(),
        cpu_energy_bits: out.cpu_energy.value().to_bits(),
        trace_fnv,
    }
}

/// Captured on the 2U×4 preset at seed 42; see the module docs.
const GOLDENS: [Golden; 7] = [
    Golden {
        control: RackControl::GlobalLockstep,
        violation_bits: 0x4024a1dd1250ee89,
        fan_energy_bits: 0x40d1592dc3e3d62f,
        cpu_energy_bits: 0x4120f63bb570ccd3,
        trace_fnv: [
            0xb463ec4f13d6ef3b,
            0xb463ec4f13d6ef3b,
            0x1095b44b77f022d5,
            0x1095b44b77f022d5,
            0xf3f4d5bed24798a8,
        ],
    },
    Golden {
        control: RackControl::Coordinated { adaptive_reference: false },
        violation_bits: 0x3ff3a24a1dd1250f,
        fan_energy_bits: 0x40d1cb35745b3aff,
        cpu_energy_bits: 0x41216604f3f669ca,
        trace_fnv: [
            0xd246203942bb388f,
            0x91e740729a2ec35b,
            0x9bded35556139238,
            0x27bb6b55293c6443,
            0xda6abbcae3c8f89f,
        ],
    },
    Golden {
        control: RackControl::Coordinated { adaptive_reference: true },
        violation_bits: 0x3fe7f5c6ebfae376,
        fan_energy_bits: 0x40c77f4a28b19b7e,
        cpu_energy_bits: 0x412167bb1f335427,
        trace_fnv: [
            0x6b70879124b66702,
            0xf0dfbaf43be44598,
            0x9bded35556139238,
            0x283ec383d49fa71a,
            0x9a7492e0e4bb9e00,
        ],
    },
    Golden {
        control: RackControl::CoordinatedSsFan { adaptive_reference: true },
        violation_bits: 0x3fe7f5c6ebfae376,
        fan_energy_bits: 0x40cd39f8af836fa8,
        cpu_energy_bits: 0x412167bb1f335427,
        trace_fnv: [
            0x6b70879124b66702,
            0xcd9f095fbc654994,
            0x9bded35556139238,
            0x283ec383d49fa71a,
            0xc77679074cb757fc,
        ],
    },
    Golden {
        control: RackControl::CoordinatedECoord,
        violation_bits: 0x400ff25e8ff92f48,
        fan_energy_bits: 0x40c17ffcb248fec3,
        cpu_energy_bits: 0x41213dfe66738835,
        trace_fnv: [
            0x2a2fe2db61d42978,
            0xb0d70b3e14cba8a0,
            0x24386687599995ce,
            0x82d7b49e1c62c35b,
            0x7982fa2caba568f6,
        ],
    },
    Golden {
        control: RackControl::GlobalECoord,
        violation_bits: 0x4010a3914051c8a0,
        fan_energy_bits: 0x40c17abafe7e1ec0,
        cpu_energy_bits: 0x412139675ad32116,
        trace_fnv: [
            0xafd000f03be32aac,
            0x237e9d9c805546ad,
            0x24386687599995ce,
            0xc2a555decacae9e8,
            0x946198ad29a76a91,
        ],
    },
    Golden {
        control: RackControl::MigratingCoordinated { adaptive_reference: true },
        violation_bits: 0x3fe7f5c6ebfae376,
        fan_energy_bits: 0x40c77f4a28b19b7e,
        cpu_energy_bits: 0x412167bb1f335427,
        trace_fnv: [
            0x6b70879124b66702,
            0xf0dfbaf43be44598,
            0x9bded35556139238,
            0x283ec383d49fa71a,
            0x9a7492e0e4bb9e00,
        ],
    },
];

/// On the balanced 2U×4 the migrator never fires (no server is imbalanced
/// enough to shed), so `GOLDENS` pins its *inertness*; this golden pins
/// the migrator actually *migrating*, on the imbalanced choked-rear rack
/// the migration study runs on.
const MIGRATING_IMBALANCED: Golden = Golden {
    control: RackControl::MigratingCoordinated { adaptive_reference: true },
    violation_bits: 0x3fd54c3f0aa61f85,
    fan_energy_bits: 0x40e200de5118ce11,
    cpu_energy_bits: 0x4121579124e0fd76,
    trace_fnv: [
        0x5ac27215e81092c4,
        0xb929a67b71c4340e,
        0x9bded35556139238,
        0xf5aa3e72c0733fe9,
        0x19c692aaf42cd4eb,
    ],
};

fn assert_matches(fresh: &Golden, golden: &Golden, scenario: &str) {
    let name = golden.control.label();
    assert_eq!(fresh.violation_bits, golden.violation_bits, "{scenario}/{name}: violation%");
    assert_eq!(fresh.fan_energy_bits, golden.fan_energy_bits, "{scenario}/{name}: fan energy");
    assert_eq!(fresh.cpu_energy_bits, golden.cpu_energy_bits, "{scenario}/{name}: cpu energy");
    for (k, channel) in CHANNELS.iter().enumerate() {
        assert_eq!(fresh.trace_fnv[k], golden.trace_fnv[k], "{scenario}/{name}: trace {channel}");
    }
}

#[test]
fn rack_matrix_is_bit_identical_to_goldens() {
    for g in &GOLDENS {
        let fresh = capture(g.control, RackTopology::rack_2u_x4());
        assert_matches(&fresh, g, "2Ux4");
    }
}

#[test]
fn migrating_run_on_the_imbalanced_rack_is_bit_identical_to_golden() {
    let fresh =
        capture(MIGRATING_IMBALANCED.control, gfsc::experiments::rack::imbalanced_choked_rack());
    assert_matches(&fresh, &MIGRATING_IMBALANCED, "imbalanced-choked");
}

fn print_golden(g: &Golden) {
    println!("    Golden {{");
    println!("        control: RackControl::{:?},", g.control);
    println!("        violation_bits: {:#018x},", g.violation_bits);
    println!("        fan_energy_bits: {:#018x},", g.fan_energy_bits);
    println!("        cpu_energy_bits: {:#018x},", g.cpu_energy_bits);
    print!("        trace_fnv: [");
    for (k, h) in g.trace_fnv.iter().enumerate() {
        print!("{}{h:#018x}", if k == 0 { "" } else { ", " });
    }
    println!("],");
    println!("    }},");
}

/// Regeneration helper: prints the `GOLDENS` body (and the imbalanced
/// migration golden) for re-capture after an intentional numerics change.
#[test]
#[ignore]
fn print_goldens() {
    for control in RackControl::ALL {
        print_golden(&capture(control, RackTopology::rack_2u_x4()));
    }
    println!("-- migrating on imbalanced_choked_rack --");
    print_golden(&capture(
        RackControl::MigratingCoordinated { adaptive_reference: true },
        gfsc::experiments::rack::imbalanced_choked_rack(),
    ));
}
