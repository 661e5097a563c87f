//! Rack-scale control: the full solution matrix — global lockstep vs the
//! coordinated two-layer controller, per-zone single-step fan scaling,
//! and per-zone E-coord.
//!
//! A rack couples everything a single server couples, one level up: fan
//! *zones* (front/rear walls) serve sets of servers through a shared
//! plenum, so the naive move — one PID pairing the rack-wide max
//! temperature with the fastest wall's speed and driving every wall in
//! lockstep, one capper capping every socket — overpays in fan energy
//! (the cool wall spins as fast as the hot one) and in performance (one
//! hot socket caps the whole rack). The lifted modes run the paper's
//! remaining solutions per zone: single-step scaling boosts only the wall
//! whose sockets are violating (Section V-C per zone), and E-coord runs
//! energy-first caps per zone with each wall sized alone by the rack's
//! min-safe inversion, every other wall at its actual speed. This example
//! runs the comparison study — including the two rack-native modes, the
//! rack-global energy descent and the work migrator, on the racks where
//! each one's advantage is structural — and then zooms into one
//! coordinated run's per-zone traces.
//!
//! Run with: `cargo run --release --example rack`

use gfsc::experiments::rack::{imbalanced_choked_rack, run, to_markdown, RackStudyConfig};
use gfsc::rack::RackTopology;
use gfsc::sweep::ScenarioGrid;
use gfsc::Solution;
use gfsc_coord::RackControl;
use gfsc_units::Seconds;

fn main() {
    println!("== gfsc rack study: the full control matrix, one coordinator ==\n");

    let rows = run(&RackStudyConfig::default());
    println!("{}", to_markdown(&rows));
    println!(
        "\nlockstep             = one PID, every wall in lockstep (naive baseline)\n\
         coordinated[+adaptive] = per-zone fan loops + capper bank under the rack coordinator\n\
         coordinated+ss       = + per-zone single-step fan scaling (paper Section V-C per zone)\n\
         coordinated+e-coord  = each wall sized alone by the rack's min-safe inversion, \
         every other wall at its actual speed\n\
         global-e-coord       = every wall sized jointly against the full coupled rack\n\
         coordinated+migrate  = hot servers shed load weight to headroomed walls before capping"
    );

    // Where the rack-native modes earn their keep: the global descent on
    // the strongly-coupled shared-plenum rack, the migrator on the
    // imbalanced choked-rear rack.
    println!("\n== rack-native modes on the racks that need them ==\n");
    let native = run(&RackStudyConfig {
        horizon: Seconds::new(1800.0),
        seeds: vec![42, 43, 44],
        racks: vec![RackTopology::shared_plenum(4)],
        controls: vec![RackControl::CoordinatedECoord, RackControl::GlobalECoord],
    });
    println!("{}", to_markdown(&native));
    let migration = run(&RackStudyConfig {
        horizon: Seconds::new(1800.0),
        seeds: vec![42, 43, 44],
        racks: vec![imbalanced_choked_rack()],
        controls: vec![
            RackControl::Coordinated { adaptive_reference: true },
            RackControl::MigratingCoordinated { adaptive_reference: true },
        ],
    });
    println!("{}", to_markdown(&migration));
    println!(
        "\nOn the shared-plenum rack the walls breathe one air volume, so per-zone\n\
         sizing chases its neighbour's slewing actuals; the joint descent holds\n\
         the least feasible fan vector instead. On the choked-rear rack the\n\
         migrator moves the hot server's work to the free-breathing wall —\n\
         fewer violated socket-epochs, less work lost, no extra total energy."
    );

    // Zoom: per-zone traces of one coordinated+SS 1U×8 run.
    let results = ScenarioGrid::builder()
        .horizon(Seconds::new(900.0))
        .solutions(&[Solution::RCoordAdaptiveTrefSsFan])
        .seeds(&[42])
        .rack_variant(RackTopology::rack_1u_x8())
        .keep_traces(true)
        .build()
        .run();
    let traces = results[0].traces.as_ref().expect("traces kept");
    let z0 = traces.require("z0_fan_rpm").expect("per-zone channel");
    let z1 = traces.require("z1_fan_rpm").expect("per-zone channel");
    let t0 = traces.require("z0_t_hot_c").expect("recorded");
    let t1 = traces.require("z1_t_hot_c").expect("recorded");
    println!("\n1Ux8 zoom ({}): front vs rear wall", results[0].label);
    println!("  time   front fan  rear fan   front hot  rear hot");
    for k in (0..z0.len()).step_by(90) {
        println!(
            "  {:4} s  {:5.0} rpm  {:5.0} rpm  {:6.2} °C  {:6.2} °C",
            k,
            z0.values()[k],
            z1.values()[k],
            t0.values()[k],
            t1.values()[k],
        );
    }
    println!(
        "\nThe rear wall breathes pre-heated, recirculated air, so its fans run\n\
         faster; the front wall is allowed to slow down — that asymmetry is\n\
         where the coordinated controller's fan-energy saving comes from. A\n\
         demand spike that caps only one wall's sockets boosts only that wall\n\
         (per-zone single-step), and the E-coord row shows the energy-first\n\
         floor: each wall at the cheapest speed its zone's model allows."
    );
}
