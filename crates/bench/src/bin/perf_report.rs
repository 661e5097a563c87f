//! Perf snapshot: times the workspace's hot paths and sweep engine and
//! emits a `BENCH_<date>.json` baseline so the perf trajectory is tracked
//! in-repo.
//!
//! Measured sections:
//!
//! - thermal-step: `ServerThermalModel::step` plus `RcNetwork::step`
//!   cached vs uncached (2- and 8-node chains), the 4S plant, and the
//!   1U×8 rack plant (8 servers, 2 fan zones, shared plenum),
//! - trace recording: 8 channels by name vs by pre-resolved handle,
//! - batch: the lockstep batch engine's per-scenario step cost at
//!   B ∈ {1, 8, 64} on the finned 2S plant under a moving fan (vs the
//!   scalar moving-fan reference, which refactorizes every step), the
//!   columnar trace-spill write bandwidth, and the tentpole 64-scenario
//!   same-topology sweep (finned plant, quantized fan commands), serial
//!   vs batched at 1, 2, 4, … workers up to the available cores, with a
//!   bit-identity check at every worker count (`batched_seconds` is the
//!   one-worker run),
//! - epoch rate: simulated seconds per wall-clock second of the full
//!   closed loop, of the coordinated rack loop (capper bank +
//!   coordinator + per-zone fan loops on the 1U×8 rack), of the
//!   lifted rack modes (per-zone single-step bank + per-zone E-coord
//!   descent, exercising the scratch-buffered steady-state probes), and
//!   of the rack-global energy descent (joint Gauss–Seidel fan sizing on
//!   the strongly-coupled shared-plenum rack),
//! - daemon: the telemetry daemon's trait-dispatch loop vs the direct
//!   `RackLoopSim` on the identical scenario — `daemon_epoch_overhead_ns`
//!   plus the overhead fraction, gated hard at 5 % in `--check` mode,
//! - recorder: the same rack loop with the decision flight recorder
//!   armed vs disarmed — `recorder_epoch_overhead_ns` plus the overhead
//!   fraction, gated hard at 3 % in `--check` mode,
//! - ablations: a reduced lag sweep, serial vs parallel,
//! - tuning: the two-region Ziegler–Nichols schedule tuned by one worker
//!   vs by all workers (the regions run concurrently, each by the serial
//!   search), with a bit-identity check between the two.
//!
//! Usage: `cargo run --release -p gfsc-bench --bin perf_report
//! [--out PATH] [--check BASELINE.json]`. An unknown argument or a flag
//! without its value prints the usage line to stderr and exits 2, and so
//! does a `--check` baseline that cannot be read.
//!
//! `--check` switches to regression-gate mode: instead of writing a new
//! snapshot, it re-measures the cached-step, rack-step, batch-step,
//! spill-bandwidth, batched-sweep (at one worker, as the baseline's
//! `batched_seconds` was taken) and closed-loop
//! throughput metrics (server, coordinated rack, the SS/E-coord rack
//! modes, and the global-E-coord rack loop; best of three), compares
//! them against the committed baseline,
//! and exits non-zero on any regression beyond the tolerance (default
//! 30 %, override with `GFSC_BENCH_TOLERANCE=0.5`). The daemon front-end
//! overhead is gated *absolutely* (≤ 5 % over the direct loop) regardless
//! of the tolerance. `scripts/bench_check.sh` wraps this for CI.

use gfsc::experiments::{ablations, fan_study_spec};
use gfsc::server::ServerSpec;
use gfsc::sweep::{ScenarioGrid, ScenarioResult, WorkloadRecipe};
use gfsc::{tune_gain_schedule, Solution};
use gfsc_coord::{RackControl, RackControlConfig, RackLoopSim};
use gfsc_daemon::{Daemon, DaemonConfig, FaultPlan, SimTelemetry};
use gfsc_rack::{RackPlant, RackSpec, RackTopology};
use gfsc_sim::sweep::thread_count;
use gfsc_thermal::{BatchRcNetwork, RcNetwork, RcNetworkBuilder, ServerThermalModel, Topology};
use gfsc_units::{Celsius, JoulesPerKelvin, KelvinPerWatt, Rpm, Seconds, Watts};
use gfsc_workload::{SquareWave, Workload};
use std::fmt::Write as _;
use std::time::Instant;

fn usage() -> ! {
    eprintln!("usage: perf_report [--out PATH] [--check BASELINE.json]");
    std::process::exit(2)
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut check_baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = Some(args.next().unwrap_or_else(|| usage())),
            "--check" => check_baseline = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if let Some(baseline) = check_baseline {
        std::process::exit(run_check(&baseline));
    }
    let out_path = out_path.unwrap_or_else(|| format!("BENCH_{}.json", today_utc()));
    let cores = thread_count();
    println!("perf_report: {cores} worker(s) available");

    // --- thermal-step ---------------------------------------------------
    let mut model = ServerThermalModel::date14(Celsius::new(30.0));
    let server_step_ns = time_per_iter(200_000, || {
        model.step(Seconds::new(0.5), Watts::new(140.8), Rpm::new(3000.0));
    });
    let rc = |n: usize| -> (f64, f64) {
        let mut cached = chain_network(n);
        cached.step(Seconds::new(0.5));
        let c = time_per_iter(200_000, || cached.step(Seconds::new(0.5)));
        let mut naive = chain_network(n);
        let u = time_per_iter(50_000, || naive.step_uncached(Seconds::new(0.5)));
        (c, u)
    };
    let (rc2_cached, rc2_uncached) = rc(2);
    let (rc8_cached, rc8_uncached) = rc(8);
    let mut plant_4s = board_plant(Topology::quad_socket());
    let powers_4s = [Watts::new(140.8); 4];
    let plant_4s_ns = time_per_iter(200_000, || {
        plant_4s.step(Seconds::new(0.5), &powers_4s, &[Rpm::new(4000.0)]);
    });
    let rack_8s_ns = time_rack_8s_step();
    println!(
        "thermal: server_model {server_step_ns:.0} ns; rc2 {rc2_cached:.0}/{rc2_uncached:.0} ns \
         (cached/uncached, {:.2}x); rc8 {rc8_cached:.0}/{rc8_uncached:.0} ns ({:.2}x); \
         4S plant {plant_4s_ns:.0} ns; 1Ux8 rack {rack_8s_ns:.0} ns",
        rc2_uncached / rc2_cached,
        rc8_uncached / rc8_cached,
    );

    // --- batched lockstep stepping ---------------------------------------
    // Moving-fan scalar reference: the fan pattern every batch width sees,
    // stepped one plant at a time — each speed change dirties the matrix,
    // so the scalar path refactorizes every step. On the finned 2S plant
    // the factorization is O(k³) in the fin blocks, which is exactly the
    // cost the batch engine's cross-lane/cross-step factor sharing deletes.
    let scalar_moving_ns = {
        let mut plant = finned_plant();
        let powers = [Watts::new(140.8); 2];
        let mut k = 0usize;
        time_per_iter(20_000, || {
            plant.step(Seconds::new(0.5), &powers, &[lattice_fan(k, 0)]);
            k += 1;
        })
    };
    let batch_b1_ns = batch_step_ns_per_scenario(1);
    let batch_b8_ns = batch_step_ns_per_scenario(8);
    let batch_b64_ns = batch_step_ns_per_scenario(64);
    println!(
        "batch finned-2S step/scenario: scalar moving-fan {scalar_moving_ns:.0} ns; \
         B=1 {batch_b1_ns:.0} ns, B=8 {batch_b8_ns:.0} ns, B=64 {batch_b64_ns:.0} ns \
         ({:.2}x at B=64)",
        scalar_moving_ns / batch_b64_ns,
    );

    // --- columnar trace spill --------------------------------------------
    let spill_mb_s = spill_write_mb_s();
    println!("trace spill: {spill_mb_s:.0} MB/s columnar write");

    // --- trace recording -------------------------------------------------
    let mut by_name = gfsc_sim::TraceSet::new();
    let mut t = 0.0;
    let record_by_name_ns = time_per_iter(100_000, || {
        t += 1.0;
        for name in EPOCH_CHANNELS {
            by_name.record(name, Seconds::new(t), 1.0);
        }
    });
    let mut by_id = gfsc_sim::TraceSet::new();
    let ids: Vec<_> =
        EPOCH_CHANNELS.iter().map(|n| by_id.channel_with_capacity(n, 1 << 20)).collect();
    let mut t = 0.0;
    let record_by_handle_ns = time_per_iter(100_000, || {
        t += 1.0;
        for &id in &ids {
            by_id.record_by_id(id, Seconds::new(t), 1.0);
        }
    });
    println!(
        "trace: 8ch epoch {record_by_name_ns:.0} ns by-name, {record_by_handle_ns:.0} ns by-handle"
    );

    // --- epoch rate -------------------------------------------------------
    // Warm the per-process gain-schedule cache so the timing below measures
    // the closed loop, not one-time Ziegler–Nichols tuning (reported
    // separately under `zn_tuning_2region`).
    let _ = gfsc::fine_gain_schedule();
    let sim_horizon = 600.0;
    let (_, epoch_secs) = time(|| {
        gfsc::Simulation::builder()
            .solution(Solution::RCoordAdaptiveTrefSsFan)
            .seed(7)
            .build()
            .run(Seconds::new(sim_horizon))
    });
    let sim_rate = sim_horizon / epoch_secs;
    println!("epoch rate: {sim_rate:.0} simulated s / wall s");
    let rack_rate = rack_coord_sim_rate();
    println!("rack coordinated loop: {rack_rate:.0} simulated s / wall s");
    let rack_ss_ecoord_rate = rack_ss_ecoord_sim_rate();
    println!("rack SS + E-coord loops: {rack_ss_ecoord_rate:.0} simulated s / wall s");
    let rack_global_ecoord_rate = rack_global_ecoord_sim_rate();
    println!("rack global E-coord loop: {rack_global_ecoord_rate:.0} simulated s / wall s");
    let (daemon_direct_s, daemon_streamed_s, daemon_epochs) = daemon_vs_direct_secs();
    let daemon_epoch_overhead_ns =
        (daemon_streamed_s - daemon_direct_s).max(0.0) * 1e9 / daemon_epochs;
    let daemon_overhead_fraction = daemon_streamed_s / daemon_direct_s - 1.0;
    println!(
        "daemon front-end: direct {daemon_direct_s:.3} s, streamed {daemon_streamed_s:.3} s \
         ({daemon_epoch_overhead_ns:.0} ns/epoch, {:.2} % overhead)",
        daemon_overhead_fraction * 100.0
    );
    let (recorder_disarmed_s, recorder_armed_s, recorder_epochs) = recorder_vs_disarmed_secs();
    let recorder_epoch_overhead_ns =
        (recorder_armed_s - recorder_disarmed_s).max(0.0) * 1e9 / recorder_epochs;
    let recorder_overhead_fraction = recorder_armed_s / recorder_disarmed_s - 1.0;
    println!(
        "flight recorder: disarmed {recorder_disarmed_s:.3} s, armed {recorder_armed_s:.3} s \
         ({recorder_epoch_overhead_ns:.0} ns/epoch, {:.2} % overhead)",
        recorder_overhead_fraction * 100.0
    );

    // --- 64-scenario lockstep batch sweep: serial vs batched per worker --
    let sweep64 = sweep64_grid();
    let (sweep64_serial, sweep64_serial_s) = time(|| sweep64.run_serial());
    let mut worker_rows = String::new();
    let mut sweep64_batched_s = f64::NAN;
    for workers in worker_ladder(cores) {
        let secs = batched_sweep64_secs(&sweep64, &sweep64_serial, workers);
        if workers == 1 {
            sweep64_batched_s = secs;
        }
        println!(
            "batched 64-scenario finned-2S sweep ({SWEEP64_HORIZON_S} s horizon) x{workers}: \
             {secs:.3} s ({:.2}x vs serial {sweep64_serial_s:.3} s, bit-identical)",
            sweep64_serial_s / secs
        );
        let _ = write!(
            worker_rows,
            "{}{{\"workers\": {workers}, \"seconds\": {secs:.4}}}",
            if worker_rows.is_empty() { "" } else { ", " },
        );
    }
    let sweep64_speedup = sweep64_serial_s / sweep64_batched_s;

    // --- ablation sweep: serial vs parallel ------------------------------
    let lags = [Seconds::new(0.0), Seconds::new(10.0), Seconds::new(20.0), Seconds::new(30.0)];
    let ablation = |threads: &str| {
        std::env::set_var("GFSC_SWEEP_THREADS", threads);
        let (_, secs) = time(|| ablations::lag_sweep(&lags, Seconds::new(800.0)));
        std::env::remove_var("GFSC_SWEEP_THREADS");
        secs
    };
    let ablation_serial_s = ablation("1");
    let ablation_parallel_s = ablation(&cores.to_string());
    println!(
        "ablation lag sweep (4 pts): serial {ablation_serial_s:.2} s, parallel {ablation_parallel_s:.2} s"
    );

    // --- gain tuning: one worker vs all workers over the regions ---------
    let spec = fan_study_spec();
    let regions = [Rpm::new(2000.0), Rpm::new(6000.0)];
    let tuning = |threads: &str| {
        std::env::set_var("GFSC_SWEEP_THREADS", threads);
        let (schedule, secs) = time(|| tune_gain_schedule(&spec, &regions));
        std::env::remove_var("GFSC_SWEEP_THREADS");
        (schedule, secs)
    };
    let (sched_serial, tuning_serial_s) = tuning("1");
    let (sched_parallel, tuning_parallel_s) = tuning(&cores.to_string());
    // Bit-identity across the whole schedule: every region, every gain.
    assert_eq!(sched_serial.regions().len(), sched_parallel.regions().len());
    for (s, p) in sched_serial.regions().iter().zip(sched_parallel.regions()) {
        for (a, b) in [
            (s.gains().kp(), p.gains().kp()),
            (s.gains().ki(), p.gains().ki()),
            (s.gains().kd(), p.gains().kd()),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "parallel tuning diverged from serial: {a} vs {b}"
            );
        }
    }
    println!(
        "tuning 2 regions: 1 worker {tuning_serial_s:.2} s, {cores} workers {tuning_parallel_s:.2} s"
    );

    // --- snapshot ---------------------------------------------------------
    let json = format!(
        "{{\n  \"date\": \"{date}\",\n  \"workers_available\": {cores},\n  \
         \"thermal\": {{\n    \"server_model_step_ns\": {server_step_ns:.1},\n    \
         \"rc2_cached_ns\": {rc2_cached:.1},\n    \"rc2_uncached_ns\": {rc2_uncached:.1},\n    \
         \"rc8_cached_ns\": {rc8_cached:.1},\n    \"rc8_uncached_ns\": {rc8_uncached:.1},\n    \
         \"rc8_cached_speedup\": {rc8_speedup:.3},\n    \
         \"plant_4s_step_ns\": {plant_4s_ns:.1},\n    \
         \"rack_8s_step_ns\": {rack_8s_ns:.1}\n  }},\n  \
         \"trace_record_8ch\": {{\n    \"by_name_ns\": {record_by_name_ns:.1},\n    \
         \"by_handle_ns\": {record_by_handle_ns:.1}\n  }},\n  \
         \"batch\": {{\n    \"scalar_moving_fan_step_ns\": {scalar_moving_ns:.1},\n    \
         \"step_ns_per_scenario_b1\": {batch_b1_ns:.1},\n    \
         \"step_ns_per_scenario_b8\": {batch_b8_ns:.1},\n    \
         \"step_ns_per_scenario_b64\": {batch_b64_ns:.1},\n    \
         \"spill_write_mb_s\": {spill_mb_s:.1},\n    \
         \"sweep64\": {{\n      \"horizon_s\": {SWEEP64_HORIZON_S},\n      \
         \"serial_seconds\": {sweep64_serial_s:.4},\n      \
         \"batched_seconds\": {sweep64_batched_s:.4},\n      \
         \"speedup\": {sweep64_speedup:.3},\n      \
         \"batched_by_workers\": [{worker_rows}],\n      \
         \"bit_identical_to_serial\": true\n    }}\n  }},\n  \
         \"closed_loop\": {{\n    \"sim_seconds_per_wall_second\": {sim_rate:.1}\n  }},\n  \
         \"rack_loop\": {{\n    \
         \"coordinated_sim_seconds_per_wall_second\": {rack_rate:.1},\n    \
         \"coordinated_ss_ecoord_sim_seconds_per_wall_second\": {rack_ss_ecoord_rate:.1},\n    \
         \"global_ecoord_sim_seconds_per_wall_second\": {rack_global_ecoord_rate:.1}\n  }},\n  \
         \"daemon\": {{\n    \"direct_seconds\": {daemon_direct_s:.4},\n    \
         \"streamed_seconds\": {daemon_streamed_s:.4},\n    \
         \"daemon_epoch_overhead_ns\": {daemon_epoch_overhead_ns:.1},\n    \
         \"overhead_fraction\": {daemon_overhead_fraction:.4}\n  }},\n  \
         \"recorder\": {{\n    \"disarmed_seconds\": {recorder_disarmed_s:.4},\n    \
         \"armed_seconds\": {recorder_armed_s:.4},\n    \
         \"recorder_epoch_overhead_ns\": {recorder_epoch_overhead_ns:.1},\n    \
         \"recorder_overhead_fraction\": {recorder_overhead_fraction:.4}\n  }},\n  \
         \"ablation_lag_sweep_4pt\": {{\n    \"serial_seconds\": {ablation_serial_s:.4},\n    \
         \"parallel_seconds\": {ablation_parallel_s:.4}\n  }},\n  \
         \"zn_tuning_2region\": {{\n    \"serial_seconds\": {tuning_serial_s:.4},\n    \
         \"parallel_seconds\": {tuning_parallel_s:.4}\n  }}\n}}\n",
        date = today_utc(),
        rc8_speedup = rc8_uncached / rc8_cached,
    );
    std::fs::write(&out_path, &json).expect("writing the snapshot");
    println!("wrote {out_path}");
}

/// The eight channels `ClosedLoopSim` records per CPU epoch, in recording
/// order: the workload of the trace-recording and spill-bandwidth rows.
const EPOCH_CHANNELS: [&str; 8] = [
    "u_demand",
    "u_cap",
    "u_executed",
    "t_measured_c",
    "t_junction_c",
    "fan_rpm",
    "fan_target_rpm",
    "t_ref_c",
];

/// A chain of `n` capacitive nodes ending at an ambient boundary, with the
/// last link playing the fan-dependent sink→ambient role and 120 W
/// injected at the hot end: the topology of the `RcNetwork::step` rows.
fn chain_network(n: usize) -> RcNetwork {
    let mut builder = RcNetworkBuilder::new();
    for i in 0..n {
        builder = builder.node(
            format!("n{i}"),
            JoulesPerKelvin::new(1.0 + 40.0 * i as f64),
            Celsius::new(30.0),
        );
    }
    builder = builder.boundary("ambient", Celsius::new(30.0));
    for i in 0..n {
        let to = if i + 1 == n { "ambient".to_owned() } else { format!("n{}", i + 1) };
        builder = builder.link(format!("n{i}"), to, KelvinPerWatt::new(0.1 + 0.02 * i as f64));
    }
    let mut net = builder.build().expect("valid chain");
    let hot = net.node_id("n0").expect("exists");
    net.set_power(hot, Watts::new(120.0));
    net
}

/// Mean nanoseconds per step of the 1U×8 rack plant (8 servers behind two
/// fan walls, shared plenum with recirculation — 18 capacitive nodes).
fn time_rack_8s_step() -> f64 {
    let cal = ServerSpec::enterprise_default().calibration();
    let mut rack = RackPlant::new(&cal, &RackTopology::rack_1u_x8()).expect("preset compiles");
    let powers = [Watts::new(140.8); 8];
    let fans = [Rpm::new(4000.0), Rpm::new(4500.0)];
    rack.step(Seconds::new(0.5), &powers, &fans);
    time_per_iter(200_000, || rack.step(Seconds::new(0.5), &powers, &fans))
}

/// Simulated seconds per wall second of the coordinated rack loop on the
/// 1U×8 preset (capper bank + coordinator + per-zone fan loops).
fn rack_coord_sim_rate() -> f64 {
    let horizon = 600.0;
    let mut sim = RackLoopSim::builder(RackSpec::new(RackTopology::rack_1u_x8()))
        .workload(Workload::builder(SquareWave::date14()).build())
        .control(RackControl::Coordinated { adaptive_reference: true })
        .build();
    let (_, secs) = time(|| sim.run(Seconds::new(horizon)));
    horizon / secs
}

/// Simulated seconds per wall second across the two lifted rack modes —
/// the per-zone single-step bank and the per-zone E-coord descent — on
/// the 1U×8 preset, under a spiking workload so the boost/release and
/// model-inversion paths (the scratch-buffered steady-state probes) are
/// actually on the measured path.
fn rack_ss_ecoord_sim_rate() -> f64 {
    let horizon = 600.0;
    let mut wall = 0.0;
    for control in
        [RackControl::CoordinatedSsFan { adaptive_reference: true }, RackControl::CoordinatedECoord]
    {
        let workload = Workload::builder(SquareWave::date14())
            .gaussian_noise(0.04, 5)
            .spikes(1.0 / 180.0, Seconds::new(30.0), 0.8, 6)
            .build();
        let mut sim = RackLoopSim::builder(RackSpec::new(RackTopology::rack_1u_x8()))
            .workload(workload)
            .control(control)
            .build();
        let (_, secs) = time(|| sim.run(Seconds::new(horizon)));
        wall += secs;
    }
    2.0 * horizon / wall
}

/// Simulated seconds per wall second of the rack-global energy descent on
/// the shared-plenum rack — the strongly-coupled geometry whose joint
/// Gauss–Seidel fan sizing (whole-rack min-safe probes, several sweeps
/// per fan epoch) is the mode's hot path — under the same spiking
/// workload as the per-zone probe.
fn rack_global_ecoord_sim_rate() -> f64 {
    let horizon = 600.0;
    let workload = Workload::builder(SquareWave::date14())
        .gaussian_noise(0.04, 5)
        .spikes(1.0 / 180.0, Seconds::new(30.0), 0.8, 6)
        .build();
    let mut sim = RackLoopSim::builder(RackSpec::new(RackTopology::shared_plenum(4)))
        .workload(workload)
        .control(RackControl::GlobalECoord)
        .build();
    let (_, secs) = time(|| sim.run(Seconds::new(horizon)));
    horizon / secs
}

/// Wall seconds of the direct batch loop vs the daemon's trait-dispatch
/// loop on the identical scenario (the 2U×4 preset under the rack-global
/// energy descent — the parity-pinned HIL configuration — on the DATE'14
/// square wave), plus the CPU-epoch count. The two paths run the same
/// plant, controllers, and workload samples — the difference is pure
/// front-end overhead: trait dispatch, the polled mirror, the watchdog
/// bookkeeping. Construction (equilibration) is excluded from both sides.
fn daemon_vs_direct_secs() -> (f64, f64, f64) {
    // The absolute 5 % gate below must measure front-end overhead, not
    // scheduler noise on a contended core. Every sample is a back-to-back
    // direct/streamed *pair*, so a load burst or frequency shift inflates
    // both sides of the pair it lands on and cancels in the ratio; the
    // median pair then discards the pairs a burst split down the middle.
    let horizon = 3_000.0;
    let control = RackControl::GlobalECoord;
    let spec = RackSpec::new(RackTopology::rack_2u_x4());
    let workload = || Workload::builder(SquareWave::date14()).build();
    let direct_run = || {
        let mut sim =
            RackLoopSim::builder(spec.clone()).workload(workload()).control(control).build();
        let (_, d) = time(|| sim.run(Seconds::new(horizon)));
        d
    };
    let streamed_run = || {
        let cfg = DaemonConfig::new(RackControlConfig::new(control));
        let backend = SimTelemetry::new(
            spec.clone(),
            workload(),
            cfg.start_utilization,
            cfg.start_fan,
            FaultPlan::none(),
        );
        let mut daemon = Daemon::new(backend, spec.clone(), cfg);
        let (outcome, s) = time(|| daemon.run(Seconds::new(horizon)));
        assert_eq!(outcome.metrics.fallback_entries, 0, "no fault may trip the overhead probe");
        s
    };
    // One untimed pair warms caches and lazily-initialized process state.
    let _ = (direct_run(), streamed_run());
    let pairs: Vec<(f64, f64)> = (0..9).map(|_| (direct_run(), streamed_run())).collect();
    let (direct_s, streamed_s) = median_ratio_pair(&pairs);
    (direct_s, streamed_s, horizon / spec.server.cpu_control_interval.value())
}

/// The pair whose second/first ratio is the median of the set. The
/// reported seconds come from one actual back-to-back measurement (not a
/// cross-sample composite), and the ratio — the only thing the absolute
/// gates consume — is robust to bursts that land on a minority of pairs.
fn median_ratio_pair(pairs: &[(f64, f64)]) -> (f64, f64) {
    let mut sorted = pairs.to_vec();
    sorted.sort_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)));
    sorted[sorted.len() / 2]
}

/// Wall seconds of the rack-global E-coord loop with the flight recorder
/// disarmed vs armed (same plant, controllers, and workload samples —
/// the difference is pure recording cost: the branch on the disarmed
/// side, ring writes on the armed side), plus the CPU-epoch count. The
/// GlobalECoord mode has the densest event stream (descent sweeps,
/// residuals, per-zone targets), so it bounds the others.
fn recorder_vs_disarmed_secs() -> (f64, f64, f64) {
    // Back-to-back disarmed/armed pairs, median ratio — same noise
    // discipline as `daemon_vs_direct_secs`; the 3 % gate is absolute.
    let horizon = 3_000.0;
    let spec = RackSpec::new(RackTopology::rack_2u_x4());
    let run = |armed: bool| {
        let builder = RackLoopSim::builder(spec.clone())
            .workload(Workload::builder(SquareWave::date14()).build())
            .control(RackControl::GlobalECoord);
        // Roomy enough that nothing drops over this horizon, small
        // enough (256 KiB) not to fight the controllers for cache —
        // ring size is a deployment knob, not overhead.
        let mut sim = if armed { builder.flight_recorder(8_192) } else { builder }.build();
        let (outcome, secs) = time(|| sim.run(Seconds::new(horizon)));
        if armed {
            assert!(
                outcome.flight.as_ref().is_some_and(|f| f.recorded > 0),
                "the armed probe must actually record"
            );
        }
        secs
    };
    let _ = (run(false), run(true));
    let pairs: Vec<(f64, f64)> = (0..9).map(|_| (run(false), run(true))).collect();
    let (disarmed_s, armed_s) = median_ratio_pair(&pairs);
    (disarmed_s, armed_s, horizon / spec.server.cpu_control_interval.value())
}

/// The moving-fan pattern shared by the scalar reference and every batch
/// width: an 8-speed lattice walked one notch per step (lane-shifted so
/// batch lanes disagree at any instant). Every step changes the
/// airflow-dependent conductances, which is exactly the regime sweeps
/// spend slew-limited fan ramps in.
fn lattice_fan(step: usize, lane: usize) -> Rpm {
    Rpm::new(1500.0 + 500.0 * ((step + lane) % 8) as f64)
}

/// Mean nanoseconds per scenario per step of the lockstep batch engine at
/// width `b`, on finned 2S plants under the moving-fan lattice. The scalar
/// comparison point is `scalar_moving_fan_step_ns`: same plant, same
/// pattern, one network at a time.
fn batch_step_ns_per_scenario(b: usize) -> f64 {
    let mut plants: Vec<RackPlant> = (0..b).map(|_| finned_plant()).collect();
    let mut batch = {
        let nets: Vec<&RcNetwork> = plants.iter().map(RackPlant::network).collect();
        BatchRcNetwork::new(&nets).expect("identical presets batch")
    };
    let powers = [Watts::new(140.8); 2];
    let iters = (40_000 / b as u64).max(1_000);
    let mut k = 0usize;
    let batch_step_ns = time_per_iter(iters, || {
        for (lane, plant) in plants.iter_mut().enumerate() {
            plant.prepare_step(&powers, &[lattice_fan(k, lane)]);
        }
        let mut nets: Vec<&mut RcNetwork> = plants.iter_mut().map(RackPlant::network_mut).collect();
        batch.step(&mut nets, Seconds::new(0.5));
        k += 1;
    });
    batch_step_ns / b as f64
}

/// Sequential columnar-spill write bandwidth in MB/s: 8 epoch channels ×
/// 200k samples (24.4 MiB of column data) through `TraceSet::spill_to`
/// into a tmpdir.
fn spill_write_mb_s() -> f64 {
    const SAMPLES: usize = 200_000;
    let mut set = gfsc_sim::TraceSet::new();
    let ids: Vec<_> =
        EPOCH_CHANNELS.iter().map(|n| set.channel_with_capacity(n, SAMPLES)).collect();
    for k in 0..SAMPLES {
        let t = Seconds::new(k as f64);
        for (j, &id) in ids.iter().enumerate() {
            set.record_by_id(id, t, (k * 8 + j) as f64);
        }
    }
    let dir = std::env::temp_dir().join(format!("gfsc-bench-spill-{}", std::process::id()));
    let (result, secs) = time(|| set.spill_to(&dir));
    result.expect("spill to tmpdir");
    std::fs::remove_dir_all(&dir).ok();
    // Two 8-byte columns (time + value) per sample per channel.
    let bytes = (EPOCH_CHANNELS.len() * SAMPLES * 16) as f64;
    bytes / (1024.0 * 1024.0) / secs
}

/// Simulated seconds of every cell of the 64-scenario sweep.
const SWEEP64_HORIZON_S: f64 = 300.0;

/// The tentpole workload: a 64-scenario same-topology sweep on the finned
/// 2S server with 500 rpm fan command quantization (PWM-granular targets
/// put every commanded speed on a shared rpm lattice, so batch lanes
/// share factorizations across lanes *and* steps), 64 seeds of a noisy
/// square wave, R-coord @ fixed Tref. Building it tunes the spec's gains.
fn sweep64_grid() -> ScenarioGrid {
    let spec = ServerSpec {
        fan_cmd_step: 500.0,
        fan_control_interval: Seconds::new(1.0),
        ..ServerSpec::with_topology(Topology::finned(2, 32))
    };
    ScenarioGrid::builder()
        .horizon(Seconds::new(SWEEP64_HORIZON_S))
        .solutions(&[Solution::RCoordFixedTref])
        .seeds(&(1..=64).collect::<Vec<u64>>())
        .workload(WorkloadRecipe::SquareWave { low: 0.1, high: 0.9, period_s: 14.0, sigma: 0.12 })
        .spec_variant("finned2x32-q500", spec)
        .build()
}

/// Wall seconds of one lockstep-batched run of `grid` on `workers` sweep
/// workers, asserting the results match `serial` bit for bit.
fn batched_sweep64_secs(grid: &ScenarioGrid, serial: &[ScenarioResult], workers: usize) -> f64 {
    let (batched, secs) = time(|| grid.run_with_workers(workers));
    let identical = serial.len() == batched.len()
        && serial.iter().zip(&batched).all(|(s, b)| s.label == b.label && s.summary == b.summary);
    assert!(identical, "batched sweep at {workers} worker(s) diverged from the serial reference");
    secs
}

/// One server on `board` (Table I calibration per socket): the one-slot
/// rack plant a multi-socket `Server` runs.
fn board_plant(board: Topology) -> RackPlant {
    let cal = ServerSpec::enterprise_default().calibration();
    RackPlant::new(&cal, &RackTopology::single_server(board)).expect("stock topology compiles")
}

/// The finned 2S batch-benchmark plant: two sockets whose heat sinks carry
/// 32 fin segments each — dense per-socket matrix blocks, so the scalar
/// path's per-speed-change refactorization is expensive and the batch
/// engine's shared factors have something real to delete.
fn finned_plant() -> RackPlant {
    board_plant(Topology::finned(2, 32))
}

/// `--check` mode: re-measures the gate metrics, compares them against the
/// committed baseline, prints a verdict table, and returns the process
/// exit code (0 = within tolerance).
fn run_check(baseline_path: &str) -> i32 {
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("perf_report: cannot read baseline `{baseline_path}`: {e}");
            return 2;
        }
    };
    let tolerance: f64 =
        std::env::var("GFSC_BENCH_TOLERANCE").ok().and_then(|v| v.parse().ok()).unwrap_or(0.30);
    println!("bench check vs {baseline_path} (tolerance {:.0} %)", tolerance * 100.0);

    // Best-of-three on every gate metric: the gate asks "has the code got
    // slower", and the minimum is the observation least polluted by
    // scheduler noise on a shared box.
    let best3 = |mut f: Box<dyn FnMut() -> f64>| (0..3).map(|_| f()).fold(f64::INFINITY, f64::min);
    // The two ns-scale rows take best-of-nine: each sample is only a few
    // milliseconds of wall, so a single scheduler burst can cover three
    // of them end to end.
    let best9 = |mut f: Box<dyn FnMut() -> f64>| (0..9).map(|_| f()).fold(f64::INFINITY, f64::min);
    let mut rc2 = chain_network(2);
    rc2.step(Seconds::new(0.5));
    let rc2_cached =
        best9(Box::new(move || time_per_iter(200_000, || rc2.step(Seconds::new(0.5)))));
    let mut rc8 = chain_network(8);
    rc8.step(Seconds::new(0.5));
    let rc8_cached =
        best9(Box::new(move || time_per_iter(200_000, || rc8.step(Seconds::new(0.5)))));
    // Warm the gain cache so the throughput probe times the loop, not
    // one-time tuning.
    let _ = gfsc::fine_gain_schedule();
    let sim_rate = best3(Box::new(|| {
        let horizon = 600.0;
        let (_, secs) = time(|| {
            gfsc::Simulation::builder()
                .solution(Solution::RCoordAdaptiveTrefSsFan)
                .seed(7)
                .build()
                .run(Seconds::new(horizon))
        });
        // Fold into "ns-like" cost so lower is better for every metric.
        secs / horizon
    }));
    let rack_8s = best3(Box::new(time_rack_8s_step));
    let batch64 = best3(Box::new(|| batch_step_ns_per_scenario(64)));
    let spill_cost = best3(Box::new(|| 1.0 / spill_write_mb_s()));
    // One worker: the baseline's `batched_seconds` was taken on a
    // one-worker host, and more workers would let a slower batch engine
    // hide behind the extra cores. Each sample builds the grid and runs
    // the serial reference before its timed run, the way the baseline's
    // samples were taken.
    let sweep64_batched = best3(Box::new(|| {
        let grid = sweep64_grid();
        let serial = grid.run_serial();
        batched_sweep64_secs(&grid, &serial, 1)
    }));
    let rack_rate_cost = best3(Box::new(|| 1.0 / rack_coord_sim_rate()));
    let rack_ss_ecoord_cost = best3(Box::new(|| 1.0 / rack_ss_ecoord_sim_rate()));
    let rack_global_ecoord_cost = best3(Box::new(|| 1.0 / rack_global_ecoord_sim_rate()));
    // Three median-of-pairs probes each; keep the cleanest one (smallest
    // overhead ratio). The gates are one-sided upper bounds, and a real
    // regression shows up in every probe's median, so the least-noisy
    // observation is the honest one.
    let min_by_ratio = |pairs: Vec<(f64, f64)>| {
        pairs.into_iter().min_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0))).expect("3 probes")
    };
    let (daemon_direct_s, daemon_streamed_s) = min_by_ratio(
        (0..3)
            .map(|_| {
                let (direct, streamed, _) = daemon_vs_direct_secs();
                (direct, streamed)
            })
            .collect(),
    );
    let (recorder_disarmed_s, recorder_armed_s) = min_by_ratio(
        (0..3)
            .map(|_| {
                let (disarmed, armed, _) = recorder_vs_disarmed_secs();
                (disarmed, armed)
            })
            .collect(),
    );

    let mut failed = false;
    let mut check =
        |name: &str, key: &str, measured_cost: f64, baseline_to_cost: fn(f64) -> f64| {
            let Some(raw) = json_number(&baseline, key) else {
                println!("  {name:<28} SKIP (no `{key}` in baseline)");
                return;
            };
            let baseline_cost = baseline_to_cost(raw);
            let ratio = measured_cost / baseline_cost;
            let verdict = if ratio <= 1.0 + tolerance { "ok" } else { "REGRESSED" };
            if ratio > 1.0 + tolerance {
                failed = true;
            }
            println!(
                "  {name:<28} {verdict:<9} cost ratio {ratio:.3} (measured {measured_cost:.3e}, \
             baseline {baseline_cost:.3e})"
            );
        };
    check("rc2 cached step", "rc2_cached_ns", rc2_cached, |ns| ns);
    check("rc8 cached step", "rc8_cached_ns", rc8_cached, |ns| ns);
    check("rack 1Ux8 step", "rack_8s_step_ns", rack_8s, |ns| ns);
    check("batch B=64 step/scenario", "step_ns_per_scenario_b64", batch64, |ns| ns);
    check("spill write bandwidth", "spill_write_mb_s", spill_cost, |rate| 1.0 / rate);
    check("batched 64-sweep", "batched_seconds", sweep64_batched, |s| s);
    // Throughput inverts: cost = wall seconds per simulated second.
    check("closed-loop throughput", "sim_seconds_per_wall_second", sim_rate, |rate| 1.0 / rate);
    check(
        "rack coordinated throughput",
        "coordinated_sim_seconds_per_wall_second",
        rack_rate_cost,
        |rate| 1.0 / rate,
    );
    check(
        "rack SS/E-coord throughput",
        "coordinated_ss_ecoord_sim_seconds_per_wall_second",
        rack_ss_ecoord_cost,
        |rate| 1.0 / rate,
    );
    check(
        "rack global-E-coord throughput",
        "global_ecoord_sim_seconds_per_wall_second",
        rack_global_ecoord_cost,
        |rate| 1.0 / rate,
    );

    // The daemon front-end gate is absolute, not baseline-relative: the
    // trait-dispatch loop may cost at most 5 % over the direct batch loop,
    // whatever GFSC_BENCH_TOLERANCE says about the other rows.
    const DAEMON_OVERHEAD_CAP: f64 = 0.05;
    let daemon_overhead = daemon_streamed_s / daemon_direct_s - 1.0;
    let daemon_ok = daemon_overhead <= DAEMON_OVERHEAD_CAP;
    if !daemon_ok {
        failed = true;
    }
    println!(
        "  {:<28} {:<9} overhead {:.2} % (hard cap {:.0} %; direct {daemon_direct_s:.3} s, \
         streamed {daemon_streamed_s:.3} s)",
        "daemon front-end overhead",
        if daemon_ok { "ok" } else { "REGRESSED" },
        daemon_overhead * 100.0,
        DAEMON_OVERHEAD_CAP * 100.0,
    );

    // So is the flight-recorder gate: arming the decision recorder may
    // cost at most 3 % over the disarmed loop — observability that slows
    // the control loop down gets rejected here, not in production.
    const RECORDER_OVERHEAD_CAP: f64 = 0.03;
    let recorder_overhead = recorder_armed_s / recorder_disarmed_s - 1.0;
    let recorder_ok = recorder_overhead <= RECORDER_OVERHEAD_CAP;
    if !recorder_ok {
        failed = true;
    }
    println!(
        "  {:<28} {:<9} overhead {:.2} % (hard cap {:.0} %; disarmed {recorder_disarmed_s:.3} s, \
         armed {recorder_armed_s:.3} s)",
        "flight recorder overhead",
        if recorder_ok { "ok" } else { "REGRESSED" },
        recorder_overhead * 100.0,
        RECORDER_OVERHEAD_CAP * 100.0,
    );

    if failed {
        println!("bench check FAILED: >{:.0} % regression", tolerance * 100.0);
        1
    } else {
        println!("bench check passed.");
        0
    }
}

/// Extracts `"key": <number>` from the baseline snapshot (the snapshot is
/// machine-written with unique keys, so a string scan is exact — no JSON
/// crate in the offline set).
fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Wall-clock seconds of one call.
fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Mean nanoseconds per iteration over `iters` calls.
fn time_per_iter(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// The worker counts to probe: 1, 2, 4, ... up to the available cores.
fn worker_ladder(cores: usize) -> Vec<usize> {
    let mut ladder = vec![1];
    let mut w = 2;
    while w < cores {
        ladder.push(w);
        w *= 2;
    }
    if cores > 1 {
        ladder.push(cores);
    }
    ladder
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, Hinnant's algorithm —
/// no calendar crate in the offline set).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("post-1970 clock")
        .as_secs();
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}
