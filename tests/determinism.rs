//! Reproducibility: identical seeds replay identical experiments, and the
//! stochastic stages actually respond to the seed.

use gfsc::{Simulation, Solution};
use gfsc_units::Seconds;

fn run_once(seed: u64) -> (f64, f64, Vec<f64>) {
    let outcome = Simulation::builder()
        .solution(Solution::RCoordAdaptiveTrefSsFan)
        .seed(seed)
        .build()
        .run(Seconds::new(600.0));
    let fan = outcome.traces.require("fan_rpm").unwrap().values().to_vec();
    (outcome.violation_percent, outcome.fan_energy.value(), fan)
}

#[test]
fn same_seed_same_everything() {
    let (v1, e1, f1) = run_once(1234);
    let (v2, e2, f2) = run_once(1234);
    assert_eq!(v1, v2, "violation percent must replay exactly");
    assert_eq!(e1, e2, "fan energy must replay exactly");
    assert_eq!(f1, f2, "fan trace must replay sample for sample");
}

#[test]
fn different_seed_different_trajectory() {
    let (_, _, f1) = run_once(1);
    let (_, _, f2) = run_once(2);
    assert_ne!(f1, f2, "different seeds must produce different runs");
}

#[test]
fn every_solution_is_deterministic() {
    for solution in Solution::ALL {
        let a = Simulation::builder().solution(solution).seed(9).build().run(Seconds::new(300.0));
        let b = Simulation::builder().solution(solution).seed(9).build().run(Seconds::new(300.0));
        assert_eq!(a.violation_percent, b.violation_percent, "{solution} is not deterministic");
        assert_eq!(a.fan_energy, b.fan_energy, "{solution} energy differs");
    }
}

#[test]
fn parallel_sweep_matches_serial_byte_for_byte() {
    use gfsc::sweep::ScenarioGrid;
    // N seeded scenarios across two axes — enough jobs that the executor
    // actually interleaves work on a multi-core host.
    let grid = ScenarioGrid::builder()
        .horizon(Seconds::new(180.0))
        .solutions(&[
            Solution::WithoutCoordination,
            Solution::ECoord,
            Solution::RCoordAdaptiveTrefSsFan,
        ])
        .seeds(&[1, 2, 3, 4])
        .build();
    // Pin 4 workers so real thread interleaving happens even on hosts with
    // fewer cores (where the default policy would fall back to serial).
    let parallel = grid.run_with_workers(4);
    let serial = grid.run_serial();
    assert_eq!(parallel.len(), serial.len());
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.label, s.label, "scenario order must be the enumeration order");
        // RunSummary equality is exact f64 equality — bitwise, not
        // approximate.
        assert_eq!(p.summary, s.summary, "{}", p.label);
    }
}

#[test]
fn multi_socket_sweep_matches_serial_byte_for_byte() {
    use gfsc::sweep::ScenarioGrid;
    use gfsc::thermal::Topology;
    // The 2S topology exercises the RC-network plant (per-socket pipelines,
    // LU-cached stepping, bisection-based model inversion) across threads;
    // its results must still be bitwise equal to the serial walk.
    let grid = ScenarioGrid::builder()
        .horizon(Seconds::new(150.0))
        .solutions(&[Solution::ECoord, Solution::RCoordAdaptiveTrefSsFan])
        .seeds(&[1, 2])
        .topology_variant(Topology::dual_socket())
        .build();
    let parallel = grid.run_with_workers(4);
    let serial = grid.run_serial();
    assert_eq!(parallel.len(), 4);
    for (p, s) in parallel.iter().zip(&serial) {
        assert!(p.label.starts_with("2S/"), "topology axis missing from {}", p.label);
        assert_eq!(p.label, s.label);
        assert_eq!(p.summary, s.summary, "{}", p.label);
    }
}

#[test]
fn rack_sweep_matches_serial_byte_for_byte() {
    use gfsc::rack::RackTopology;
    use gfsc::sweep::ScenarioGrid;
    // Rack cells run the whole solution matrix (multi-zone plant, capper
    // bank, coordinator, per-zone fan loops, the single-step bank and the
    // E-coord zone descent) across threads; results must still be bitwise
    // equal to the serial walk.
    let grid = ScenarioGrid::builder()
        .horizon(Seconds::new(150.0))
        .solutions(&[
            Solution::WithoutCoordination,
            Solution::RCoordAdaptiveTref,
            Solution::RCoordAdaptiveTrefSsFan,
            Solution::ECoord,
        ])
        .seeds(&[1, 2])
        .rack_variant(RackTopology::rack_1u_x8())
        .rack_variant(RackTopology::rack_2u_x4())
        .build();
    let parallel = grid.run_with_workers(4);
    let serial = grid.run_serial();
    assert_eq!(parallel.len(), 16);
    for (p, s) in parallel.iter().zip(&serial) {
        assert!(p.label.starts_with("rack-"), "rack axis missing from {}", p.label);
        assert_eq!(p.label, s.label);
        assert_eq!(p.summary, s.summary, "{}", p.label);
    }
}

#[test]
fn rack_control_axis_sweep_matches_serial_byte_for_byte() {
    use gfsc::rack::RackTopology;
    use gfsc::sweep::ScenarioGrid;
    use gfsc_coord::RackControl;
    // The two rack-native modes (rack-global energy descent, work
    // migration) enter grids through the rack-control axis; across
    // threads their Gauss–Seidel probe sweeps and load-weight shifts must
    // still replay the serial walk bitwise. The imbalanced choked-rear
    // rack makes the migrator actually migrate (a balanced rack leaves it
    // inert and the test vacuous).
    let grid = ScenarioGrid::builder()
        .horizon(Seconds::new(150.0))
        .seeds(&[1, 2])
        .rack_variant(RackTopology::shared_plenum(4))
        .rack_variant(gfsc::experiments::rack::imbalanced_choked_rack())
        .rack_controls(&[
            RackControl::GlobalECoord,
            RackControl::MigratingCoordinated { adaptive_reference: true },
        ])
        .build();
    let parallel = grid.run_with_workers(4);
    let serial = grid.run_serial();
    assert_eq!(parallel.len(), 8);
    for (p, s) in parallel.iter().zip(&serial) {
        assert!(p.label.starts_with("rack-"), "rack axis missing from {}", p.label);
        assert_eq!(p.label, s.label);
        assert_eq!(p.summary, s.summary, "{}", p.label);
    }
}

#[test]
fn fan_interval_sweep_matches_serial_byte_for_byte() {
    use gfsc::sweep::ScenarioGrid;
    // The fan-control-interval axis derives specs (and re-tunes gains per
    // interval at grid build); the runs themselves must stay bitwise
    // deterministic across the parallel executor.
    let grid = ScenarioGrid::builder()
        .horizon(Seconds::new(150.0))
        .solutions(&[Solution::RCoordAdaptiveTrefSsFan])
        .seeds(&[1, 2])
        .fan_control_intervals(&[Seconds::new(15.0), Seconds::new(60.0)])
        .build();
    let parallel = grid.run_with_workers(4);
    let serial = grid.run_serial();
    assert_eq!(parallel.len(), 4);
    for (p, s) in parallel.iter().zip(&serial) {
        assert!(p.label.starts_with("fi"), "fan-interval axis missing from {}", p.label);
        assert_eq!(p.label, s.label);
        assert_eq!(p.summary, s.summary, "{}", p.label);
    }
    // The axis genuinely changes the closed loop: a 15 s fan period reacts
    // differently from a 60 s one.
    let fi15 = &serial[0].summary;
    let fi60 = &serial[2].summary;
    assert_ne!(fi15.fan_energy_j, fi60.fan_energy_j, "fan interval had no effect");
}

#[test]
fn batched_sweep_matches_serial_byte_for_byte_across_all_solutions() {
    use gfsc::sweep::ScenarioGrid;
    use gfsc::thermal::Topology;
    // The lockstep batch engine shares LU factorizations across every
    // compatible lane; all five solution modes (capper proposals, E-coord
    // descent probes, adaptive references, single-step scaling — each with
    // its own steady-state probing between batch steps) must still replay
    // the serial walk bitwise.
    let grid = ScenarioGrid::builder()
        .horizon(Seconds::new(150.0))
        .solutions(&Solution::ALL)
        .seeds(&[1, 2])
        .topology_variant(Topology::dual_socket())
        .build();
    let batched = grid.run();
    let serial = grid.run_serial();
    assert_eq!(batched.len(), 10);
    for (b, s) in batched.iter().zip(&serial) {
        assert_eq!(b.label, s.label, "batched order must be the enumeration order");
        assert_eq!(b.summary, s.summary, "{}", b.label);
    }
}

#[test]
fn batched_sweep_handles_mixed_compatibility_groups() {
    use gfsc::sweep::ScenarioGrid;
    use gfsc::thermal::Topology;
    // A grid mixing two batch groups with cells the batcher must leave
    // alone. 2S and 4S topologies never share a network structure, so
    // they form separate groups; the batch key is (topology, sim_dt,
    // horizon), so each group takes both fan intervals: 2 × 3 seeds = 6
    // lanes. Single-socket cells run the two-node plant, which never
    // batches, so the scalar fallback runs those six. The batcher must
    // partition correctly and the fallback cover the rest — order and
    // bits intact.
    let grid = ScenarioGrid::builder()
        .horizon(Seconds::new(120.0))
        .solutions(&[Solution::RCoordFixedTref])
        .seeds(&[1, 2, 3])
        .topology_variant(Topology::dual_socket())
        .topology_variant(Topology::quad_socket())
        .topology_variant(Topology::single_socket())
        .fan_control_intervals(&[Seconds::new(15.0), Seconds::new(30.0)])
        .build();
    let batchable = grid.scenarios().iter().filter(|s| s.is_batchable()).count();
    assert_eq!(batchable, 12);
    let batched = grid.run();
    let serial = grid.run_serial();
    assert_eq!(batched.len(), 18);
    for (b, s) in batched.iter().zip(&serial) {
        assert_eq!(b.label, s.label);
        assert_eq!(b.summary, s.summary, "{}", b.label);
    }
}

#[test]
fn sweep_respects_thread_count_override() {
    // GFSC_SWEEP_THREADS=1 must force the serial path; this is also the
    // escape hatch documented in ROADMAP.md for debugging.
    std::env::set_var("GFSC_SWEEP_THREADS", "1");
    let out = gfsc_sim::sweep::parallel_map(&[1u64, 2, 3], |&x| x * 10);
    std::env::remove_var("GFSC_SWEEP_THREADS");
    assert_eq!(out, vec![10, 20, 30]);
}

#[test]
fn one_worker_parallel_map_is_the_serial_path() {
    use gfsc::sweep::ScenarioGrid;
    // Regression guard for the single-core overhead fix: a 1-worker
    // parallel map must short-circuit to the serial walk (no thread spawn,
    // no channel) and return bitwise-serial results. On 1-core hosts the
    // default `run()` takes exactly this path, so "parallel" sweep numbers
    // there are the serial numbers, not serial-plus-threading-overhead.
    let jobs: Vec<u64> = (0..32).collect();
    let mapped = gfsc_sim::sweep::parallel_map_with_workers(&jobs, |&x| x * 3, 1);
    assert_eq!(mapped, jobs.iter().map(|&x| x * 3).collect::<Vec<_>>());
    let grid = ScenarioGrid::builder()
        .horizon(Seconds::new(90.0))
        .solutions(&[Solution::RCoordFixedTref])
        .seeds(&[1, 2])
        .build();
    let one_worker = grid.run_with_workers(1);
    let serial = grid.run_serial();
    for (p, s) in one_worker.iter().zip(&serial) {
        assert_eq!(p.label, s.label);
        assert_eq!(p.summary, s.summary, "{}", p.label);
    }
}

#[test]
#[ignore = "large-grid smoke test (10k cells): run explicitly or via scripts/ci.sh full"]
fn large_grid_smoke_with_spilled_traces() {
    use gfsc::sweep::{ScenarioGrid, WorkloadRecipe};
    use gfsc_sim::SpilledTraces;
    // 10 000 cells at a tiny horizon: the grid machinery (enumeration,
    // job fan-out, result reassembly) plus a spilled-trace pass must hold
    // up at three orders of magnitude above the unit tests' size.
    let grid = ScenarioGrid::builder()
        .horizon(Seconds::new(4.0))
        .solutions(&[Solution::WithoutCoordination])
        .workload(WorkloadRecipe::Constant(0.4))
        .seeds(&(0..10_000).collect::<Vec<u64>>())
        .build();
    assert_eq!(grid.scenarios().len(), 10_000);
    let results = grid.run();
    assert_eq!(results.len(), 10_000);
    let first = &results[0].summary;
    assert!(results.iter().all(|r| r.summary.total_epochs == first.total_epochs));

    // Spill one representative cell's traces through a tmpdir and read a
    // single column back.
    let dir = std::env::temp_dir().join(format!("gfsc-large-grid-smoke-{}", std::process::id()));
    let keep = ScenarioGrid::builder()
        .horizon(Seconds::new(60.0))
        .solutions(&[Solution::WithoutCoordination])
        .seeds(&[1])
        .keep_traces(true)
        .build();
    let results = keep.run();
    let traces = results[0].traces.as_ref().expect("keep_traces grid returns traces");
    traces.spill_to(&dir).unwrap();
    let spilled = SpilledTraces::open(&dir).unwrap();
    let fan = spilled.column("fan_rpm").unwrap();
    assert_eq!(fan.len(), traces.require("fan_rpm").unwrap().len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn experiments_replay_deterministically() {
    use gfsc::experiments::fig5::{run, Fig5Config};
    let config =
        Fig5Config { horizon: Seconds::new(600.0), seed: 3, solution: Solution::RCoordFixedTref };
    let a = run(&config);
    let b = run(&config);
    assert_eq!(a.violation_percent, b.violation_percent);
    assert_eq!(a.stable, b.stable);
}
