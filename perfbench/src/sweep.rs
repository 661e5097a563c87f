//! The `sweep` workload: the 64-seed finned(2,32) q500 grid through
//! `ScenarioGrid::run_batched` (the lockstep batch engine) plus the rack
//! control matrix (`RackControl::ALL` × 3 seeds on the 2U×4 rack) through
//! `ScenarioGrid::run` (the parallel scalar executor) — the entry points
//! that serve each kind of cell today.

use crate::common::{median, quantile, secs_since, Checks, EndToEnd, Layer, SeedStream};
use crate::trace::{Accumulated, Kind, SpanLog};
use gfsc::coord::RackControl;
use gfsc::rack::RackTopology;
use gfsc::server::ServerSpec;
use gfsc::sweep::{RunSummary, ScenarioGrid, ScenarioResult, WorkloadRecipe};
use gfsc::thermal::Topology;
use gfsc::units::{Rpm, Seconds};
use gfsc::Solution;
use std::path::Path;
use std::time::Instant;

const FINNED_CELLS: usize = 64;
const FINNED_HORIZON_S: f64 = 300.0;
const RACK_SEEDS: usize = 3;
const RACK_HORIZON_S: f64 = 900.0;
/// Grid builds timed per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The finned 2S server with 500 rpm fan-command quantization and a 1 s
/// fan interval: every commanded speed lands on a shared rpm lattice, so
/// batch lanes share LU factorizations across lanes and steps.
fn finned_spec() -> ServerSpec {
    ServerSpec {
        fan_cmd_step: 500.0,
        fan_control_interval: Seconds::new(1.0),
        ..ServerSpec::with_topology(Topology::finned(2, 32))
    }
}

/// The gain-schedule regions the grid builder tunes for every derived
/// spec.
const REGIONS_RPM: [f64; 4] = [2000.0, 3500.0, 5000.0, 7000.0];

struct Grids {
    finned: ScenarioGrid,
    rack: ScenarioGrid,
}

impl Grids {
    fn build(finned_seeds: &[u64], rack_seeds: &[u64]) -> Self {
        let finned = ScenarioGrid::builder()
            .horizon(Seconds::new(FINNED_HORIZON_S))
            .solutions(&[Solution::RCoordFixedTref])
            .seeds(finned_seeds)
            .workload(WorkloadRecipe::SquareWave {
                low: 0.1,
                high: 0.9,
                period_s: 14.0,
                sigma: 0.12,
            })
            .spec_variant("finned2x32-q500", finned_spec())
            .build();
        let rack = ScenarioGrid::builder()
            .horizon(Seconds::new(RACK_HORIZON_S))
            .rack_variant(RackTopology::rack_2u_x4())
            .rack_controls(&RackControl::ALL)
            .seeds(rack_seeds)
            .build();
        Self { finned, rack }
    }

    fn cells(&self) -> usize {
        self.finned.scenarios().len() + self.rack.scenarios().len()
    }

    fn sim_seconds(&self) -> f64 {
        self.finned.scenarios().len() as f64 * FINNED_HORIZON_S
            + self.rack.scenarios().len() as f64 * RACK_HORIZON_S
    }
}

type Summaries = Vec<(String, RunSummary)>;

fn summaries(results: Vec<ScenarioResult>) -> Summaries {
    results.into_iter().map(|r| (r.label, r.summary)).collect()
}

struct Round {
    batched_s: f64,
    scalar_s: f64,
    finned: Summaries,
    rack: Summaries,
}

struct Bench {
    finned_seeds: Vec<u64>,
    rack_seeds: Vec<u64>,
    /// The first round's results: every later round must match bitwise.
    reference: Option<(Summaries, Summaries)>,
    checks: Checks,
}

impl Bench {
    fn new(seed: u64) -> Self {
        let mut stream = SeedStream::new(seed);
        // Small positive seeds keep the grid labels short.
        let mut draw = || stream.next_u64() % 1_000_000_007;
        let finned_seeds = (0..FINNED_CELLS).map(|_| draw()).collect();
        let rack_seeds = (0..RACK_SEEDS).map(|_| draw()).collect();
        // The default spec's gain schedule is a per-process cache: fill it
        // before anything is timed.
        let _ = gfsc::fine_gain_schedule();
        Self { finned_seeds, rack_seeds, reference: None, checks: Checks::default() }
    }

    /// Builds both grids, finned gain tuning included, timing each of
    /// `SETUPS` builds; returns the median set-up time and the last grids.
    fn setup(&self) -> (f64, Grids) {
        let mut times = vec![];
        let mut grids = None;
        for _ in 0..SETUPS {
            let start = Instant::now();
            grids = Some(Grids::build(&self.finned_seeds, &self.rack_seeds));
            times.push(secs_since(start));
        }
        (median(&times), grids.expect("SETUPS is positive"))
    }

    /// One pass over both grids, checked against the first pass.
    fn round(&mut self, grids: &Grids) -> Round {
        let start = Instant::now();
        let finned = summaries(grids.finned.run_batched());
        let batched_s = secs_since(start);
        let start = Instant::now();
        let rack = summaries(grids.rack.run());
        let scalar_s = secs_since(start);
        match &self.reference {
            None => self.reference = Some((finned.clone(), rack.clone())),
            Some((f, r)) => {
                let same = *f == finned && *r == rack;
                self.checks.check(same, || "sweep results differ between repeats".into());
            }
        }
        Round { batched_s, scalar_s, finned, rack }
    }
}

pub fn measure(seed: u64, seconds: f64) -> (EndToEnd, Checks) {
    let mut bench = Bench::new(seed);
    let (setup_s, grids) = bench.setup();
    let warm = bench.round(&grids);
    let (mut best_batched, mut best_scalar, mut rounds) = (f64::INFINITY, f64::INFINITY, 0);
    let window = Instant::now();
    while rounds < 3 || secs_since(window) < seconds {
        let round = bench.round(&grids);
        best_batched = best_batched.min(round.batched_s);
        best_scalar = best_scalar.min(round.scalar_s);
        rounds += 1;
    }
    // Batching is an execution strategy only: the serial reference path
    // must agree bitwise (checked once, outside the timed window).
    let serial = summaries(grids.finned.run_serial());
    bench.checks.check(serial == warm.finned, || "batched finned grid differs from serial".into());
    let wall = best_batched + best_scalar;
    let finned_cycles = grids.finned.scenarios().len() as f64 * (FINNED_HORIZON_S + 1.0);
    let rack_cycles = grids.rack.scenarios().len() as f64 * (RACK_HORIZON_S + 1.0);
    let cycles_ms = [1000.0 * best_batched / finned_cycles, 1000.0 * best_scalar / rack_cycles];
    let e2e = EndToEnd {
        sim_s_per_wall_s: grids.sim_seconds() / wall,
        cells_per_s: grids.cells() as f64 / wall,
        cycle_p50_ms: median(&cycles_ms),
        cycle_p99_ms: quantile(&cycles_ms, 0.99),
        setup_s,
    };
    (e2e, bench.checks)
}

pub fn measure_traced(seed: u64, seconds: f64, spans_path: &Path) -> (Vec<Layer>, Checks) {
    let mut bench = Bench::new(seed);
    let (_, grids) = bench.setup();
    let warm = bench.round(&grids);
    let mut log = SpanLog::with_capacity(16);
    let mut acc = Accumulated::default();
    let (mut batched, mut scalar, mut speedups, mut tuning, mut overheads) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut traced_wall = 0.0;
    let window = Instant::now();
    while overheads.is_empty() || secs_since(window) < seconds {
        let plain = bench.round(&grids);

        let start = Instant::now();
        let regions = REGIONS_RPM.map(Rpm::new);
        let _ = gfsc::tune_gain_schedule(&finned_spec(), &regions);
        tuning.push(secs_since(start));

        log.clear();
        let start = Instant::now();
        log.open(Kind::SweepBatched);
        let finned = summaries(grids.finned.run_batched());
        log.close();
        log.open(Kind::SweepScalar);
        let rack = summaries(grids.rack.run());
        log.close();
        let wall = secs_since(start);
        acc.add(&log);
        traced_wall += wall;
        let (t, _) = log.totals();
        batched.push(t[Kind::SweepBatched as usize].total_s);
        scalar.push(t[Kind::SweepScalar as usize].total_s);
        overheads.push(wall / (plain.batched_s + plain.scalar_s) - 1.0);
        bench.checks.check(finned == plain.finned && rack == plain.rack, || {
            "traced sweep results differ from the untraced round".into()
        });

        let start = Instant::now();
        let serial = summaries(grids.finned.run_serial());
        speedups.push(secs_since(start) / t[Kind::SweepBatched as usize].total_s);
        bench.checks.check(serial == finned, || "batched finned grid differs from serial".into());
        let rack_serial = summaries(grids.rack.run_serial());
        bench.checks.check(rack_serial == rack, || "parallel rack grid differs from serial".into());
    }
    if let Err(e) = log.write_tsv(spans_path) {
        eprintln!("perfbench: writing {}: {e}", spans_path.display());
    }

    let (mut fan_j, mut violations, mut epochs) = (0.0, 0u64, 0u64);
    for (_, s) in warm.finned.iter().chain(&warm.rack) {
        fan_j += s.fan_energy_j;
        violations += s.total_violations;
        epochs += s.total_epochs;
    }
    let layers = vec![
        Layer::new("sweep.batched.s", median(&batched)),
        Layer::new("sweep.batched.cells", grids.finned.scenarios().len() as f64),
        Layer::new("sweep.scalar.s", median(&scalar)),
        Layer::new("sweep.scalar.cells", grids.rack.scenarios().len() as f64),
        Layer::new("sweep.batch_speedup", median(&speedups)),
        Layer::new("sweep.gain_tuning.s", median(&tuning)),
        Layer::new("quality.fan_energy_kj", fan_j / 1000.0),
        Layer::new("quality.violation_pct", 100.0 * violations as f64 / epochs.max(1) as f64),
        Layer::new("trace.unattributed_frac", 1.0 - acc.top_level_s / traced_wall),
        Layer::new("trace.overhead_frac", median(&overheads)),
    ];
    (layers, bench.checks)
}
