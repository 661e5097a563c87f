//! The batch scenario-sweep engine: declarative grids of
//! `spec × topology × fan-interval × rack × solution × seed` on one
//! workload recipe, evaluated across all cores.
//!
//! The paper's whole evaluation is embarrassingly parallel — Table III runs
//! five independent solutions, the ablations run dozens of independent
//! plant variants, gain tuning tunes independent speed regions. This
//! module is the one place that parallelism lives:
//!
//! - [`Scenario`]: one fully-specified run (solution, seed, spec, horizon,
//!   workload recipe) — plain data, cheap to enumerate by the thousand,
//! - [`RunSummary`]: the compact per-run result derived from
//!   [`gfsc_coord::RunOutcome`] (traces are dropped by default so a
//!   10 000-scenario grid stays memory-bounded; opt back in with
//!   [`ScenarioGridBuilder::keep_traces`]),
//! - [`ScenarioGrid`]: the declarative cartesian grid plus its executor —
//!   [`ScenarioGrid::run`] fans lockstep batches of compatible
//!   multi-socket cells (each group cut into up to one batch per worker)
//!   and the remaining cells out over the [`gfsc_sim::sweep`] workers, and
//!   [`ScenarioGrid::run_serial`] is the bit-identical reference path.
//!
//! # Determinism
//!
//! Scenarios are enumerated in a fixed nested order (spec → topology →
//! fan-interval → rack → solution → seed) and every run is seeded
//! per-scenario, so the parallel result vector is byte-identical to the
//! serial one — asserted by `tests/determinism.rs`, for multi-socket
//! topologies and rack cells too.
//!
//! # Rack cells
//!
//! [`ScenarioGridBuilder::rack_variant`] adds rack-topology cells that run
//! the rack closed loop (`gfsc_coord::RackLoopSim`) instead of the
//! single-server `Simulation`. The solutions axis maps onto the full rack
//! control matrix: `WithoutCoordination` runs the naive global-lockstep
//! loop, `RCoordFixedTref` the coordinated loop with fixed zone
//! references, `RCoordAdaptiveTref` with per-zone adaptive references,
//! `RCoordAdaptiveTrefSsFan` adds the per-zone single-step bank, and
//! `ECoord` runs the per-zone E-coord descent (see
//! [`Scenario::rack_control`]). The rack-native modes with no
//! single-server equivalent — the rack-global energy descent and the
//! work-migrating coordinator — enter through the explicit rack-control
//! axis ([`ScenarioGridBuilder::rack_controls`]) instead.
//!
//! # Examples
//!
//! ```
//! use gfsc::sweep::ScenarioGrid;
//! use gfsc::Solution;
//! use gfsc_units::Seconds;
//!
//! let results = ScenarioGrid::builder()
//!     .horizon(Seconds::new(120.0))
//!     .solutions(&[Solution::WithoutCoordination, Solution::ECoord])
//!     .seeds(&[1, 2])
//!     .build()
//!     .run();
//! assert_eq!(results.len(), 4);
//! assert!(results.iter().all(|r| r.summary.total_epochs == 121));
//! ```

use crate::{Simulation, Solution};
use gfsc_coord::{RackControl, RackLoopSim, RunOutcome};
use gfsc_rack::{RackSpec, RackTopology};
use gfsc_server::ServerSpec;
use gfsc_sim::{sweep as executor, TraceSet};
use gfsc_thermal::Topology;
use gfsc_units::{Rpm, Seconds};
use std::ops::Range;

/// The workload recipe of a scenario (must be constructible on any worker
/// thread from plain data, hence a recipe rather than a built `Workload`).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadRecipe {
    /// The paper's evaluation trace: 0.1 ↔ 0.7 square wave, σ = 0.04
    /// Gaussian noise, Poisson spikes — [`crate::date14_workload`] under
    /// the scenario seed.
    Date14,
    /// The plain square wave with optional noise and no spikes (the
    /// fan-study workload of Figs. 3–4 and the ablations).
    SquareWave {
        /// Low-phase utilization.
        low: f64,
        /// High-phase utilization.
        high: f64,
        /// Full alternation period in seconds.
        period_s: f64,
        /// Gaussian noise sigma (0 disables the noise stage).
        sigma: f64,
    },
    /// A constant demand level.
    Constant(f64),
}

impl WorkloadRecipe {
    /// Builds the workload for `seed`.
    #[must_use]
    pub fn build(&self, seed: u64) -> gfsc_workload::Workload {
        match *self {
            WorkloadRecipe::Date14 => crate::date14_workload(seed),
            WorkloadRecipe::SquareWave { low, high, period_s, sigma } => {
                let base = gfsc_workload::SquareWave::new(low, high, Seconds::new(period_s), 0.5);
                let mut builder = gfsc_workload::Workload::builder(base);
                if sigma > 0.0 {
                    builder = builder.gaussian_noise(sigma, seed);
                }
                builder.build()
            }
            WorkloadRecipe::Constant(level) => {
                gfsc_workload::Workload::builder(gfsc_workload::Constant::new(level)).build()
            }
        }
    }
}

/// Lockstep-compatibility key: `(topology, sim_dt bits, horizon bits)` —
/// see [`Scenario::is_batchable`].
type BatchKey<'a> = (&'a Topology, u64, u64);

/// One fully-specified run of the closed loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable scenario label (`spec-label/solution/seed`).
    pub label: String,
    /// The server calibration (`None` = Table I default, which also enables
    /// the per-process cached gain schedule).
    pub spec: Option<ServerSpec>,
    /// The coordination solution under test.
    pub solution: Solution,
    /// Seed for the stochastic workload stages.
    pub seed: u64,
    /// Simulated duration.
    pub horizon: Seconds,
    /// Workload recipe.
    pub workload: WorkloadRecipe,
    /// The fan gain schedule, pre-tuned once per spec variant at grid
    /// build time (`None` = the default spec's per-process cache).
    pub gain_schedule: Option<gfsc_control::GainSchedule>,
    /// Rack-topology cell: when set, the scenario runs the rack closed
    /// loop on this structure (the per-server calibration comes from
    /// `spec`), with the solution mapped onto a [`RackControl`].
    pub rack: Option<RackTopology>,
    /// Explicit rack control mode for this cell, overriding the
    /// [`Scenario::rack_control`] solution mapping — how the rack-native
    /// modes with no single-server `Solution` equivalent
    /// ([`RackControl::GlobalECoord`],
    /// [`RackControl::MigratingCoordinated`]) enter a grid.
    pub rack_control_override: Option<RackControl>,
}

impl Scenario {
    /// Runs the scenario to completion, returning the full outcome.
    #[must_use]
    pub fn run(&self) -> RunOutcome {
        if let Some(rack) = &self.rack {
            return self.run_rack(rack);
        }
        self.build_simulation().run(self.horizon)
    }

    /// Assembles the single-server closed loop this scenario describes —
    /// the exact `Simulation` that [`Scenario::run`] would run.
    ///
    /// # Panics
    ///
    /// Panics on rack cells: a rack scenario runs `RackLoopSim`, not a
    /// single-server `Simulation`.
    fn build_simulation(&self) -> Simulation {
        assert!(self.rack.is_none(), "rack cells do not build a single-server simulation");
        let mut builder = Simulation::builder().solution(self.solution).seed(self.seed);
        if let Some(spec) = &self.spec {
            builder = builder.spec(spec.clone());
        }
        if let Some(schedule) = &self.gain_schedule {
            builder = builder.gain_schedule(schedule.clone());
        }
        builder.workload(self.workload.build(self.seed)).build()
    }

    /// Whether [`ScenarioGrid::run`] can step this cell in a lockstep
    /// batch: a single-server cell whose plant is the cached RC network
    /// (multi-socket topology). The single-socket default runs the
    /// exact-exponential two-node model, which has no shared-factorization
    /// structure to exploit; rack cells run their own closed loop, one
    /// cell per job.
    #[must_use]
    pub fn is_batchable(&self) -> bool {
        self.rack.is_none() && self.spec.as_ref().is_some_and(|s| !s.topology.is_single())
    }

    /// The lockstep-compatibility key: cells batch together only when
    /// their plants share a network structure and their loops share a
    /// step size and duration. Control intervals, ambients, sensor
    /// models, solutions, and seeds are free to differ within a batch.
    fn batch_key(&self) -> Option<BatchKey<'_>> {
        let spec = self.spec.as_ref()?;
        Some((&spec.topology, spec.sim_dt.value().to_bits(), self.horizon.value().to_bits()))
    }

    /// How the solutions axis reads on a rack cell: the full rack
    /// solution matrix.
    ///
    /// | Solution | Rack control |
    /// |----------|--------------|
    /// | `WithoutCoordination` | global lockstep (the naive baseline) |
    /// | `ECoord` | coordinated + per-zone E-coord descent |
    /// | `RCoordFixedTref` | coordinated, fixed zone references |
    /// | `RCoordAdaptiveTref` | coordinated, adaptive zone references |
    /// | `RCoordAdaptiveTrefSsFan` | coordinated + per-zone single-step scaling |
    #[must_use]
    pub fn rack_control(solution: Solution) -> RackControl {
        match solution {
            Solution::WithoutCoordination => RackControl::GlobalLockstep,
            Solution::ECoord => RackControl::CoordinatedECoord,
            Solution::RCoordFixedTref => RackControl::Coordinated { adaptive_reference: false },
            Solution::RCoordAdaptiveTref => RackControl::Coordinated { adaptive_reference: true },
            Solution::RCoordAdaptiveTrefSsFan => {
                RackControl::CoordinatedSsFan { adaptive_reference: true }
            }
        }
    }

    /// The solutions-matrix row a rack control mode extends — the
    /// `solution` reported for cells enumerated through the rack-control
    /// axis. The five paper solutions round-trip through
    /// [`Scenario::rack_control`]; the two rack-native modes report the
    /// row they refine (`GlobalECoord` is the E-coord row with joint fan
    /// sizing, `MigratingCoordinated` is the coordinated row with work
    /// migration in front of the capper bank).
    #[must_use]
    pub fn nearest_solution(control: RackControl) -> Solution {
        match control {
            RackControl::GlobalLockstep => Solution::WithoutCoordination,
            RackControl::Coordinated { adaptive_reference: false } => Solution::RCoordFixedTref,
            RackControl::Coordinated { adaptive_reference: true }
            | RackControl::MigratingCoordinated { .. } => Solution::RCoordAdaptiveTref,
            RackControl::CoordinatedSsFan { .. } => Solution::RCoordAdaptiveTrefSsFan,
            RackControl::CoordinatedECoord | RackControl::GlobalECoord => Solution::ECoord,
        }
    }

    fn run_rack(&self, rack: &RackTopology) -> RunOutcome {
        let server = self.spec.clone().unwrap_or_else(ServerSpec::enterprise_default);
        let spec = RackSpec { server, rack: rack.clone() };
        let schedule = match &self.gain_schedule {
            Some(schedule) => schedule.clone(),
            // Default calibration: the per-process fine schedule, the same
            // gains the single-server loops run.
            None => crate::fine_gain_schedule().clone(),
        };
        let control =
            self.rack_control_override.unwrap_or_else(|| Self::rack_control(self.solution));
        let mut sim = RackLoopSim::builder(spec)
            .workload(self.workload.build(self.seed))
            .control(control)
            .gain_schedule(schedule)
            .build();
        sim.run(self.horizon)
    }
}

/// The compact per-run result: every Table III metric, no traces.
///
/// Field-for-field exact equality (`PartialEq` over the raw `f64`s) is the
/// determinism contract: a parallel sweep must reproduce the serial
/// summaries *bitwise*, not approximately.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Percentage of CPU epochs whose demand exceeded the cap.
    pub violation_percent: f64,
    /// Violated epochs.
    pub total_violations: u64,
    /// Total CPU epochs.
    pub total_epochs: u64,
    /// Work lost to capping, in utilization-epochs.
    pub lost_utilization: f64,
    /// Fan subsystem energy over the run, joules.
    pub fan_energy_j: f64,
    /// CPU energy over the run, joules.
    pub cpu_energy_j: f64,
    /// Simulated duration, seconds.
    pub horizon_s: f64,
}

impl From<&RunOutcome> for RunSummary {
    fn from(outcome: &RunOutcome) -> Self {
        Self {
            violation_percent: outcome.violation_percent,
            total_violations: outcome.total_violations,
            total_epochs: outcome.total_epochs,
            lost_utilization: outcome.lost_utilization,
            fan_energy_j: outcome.fan_energy.value(),
            cpu_energy_j: outcome.cpu_energy.value(),
            horizon_s: outcome.horizon.value(),
        }
    }
}

/// One executed scenario: its label, summary, and (optionally) traces.
#[derive(Debug)]
pub struct ScenarioResult {
    /// The scenario's label (copied so results are self-describing).
    pub label: String,
    /// The solution that ran.
    pub solution: Solution,
    /// The scenario seed.
    pub seed: u64,
    /// Compact metrics.
    pub summary: RunSummary,
    /// Full traces, when the grid was built with `keep_traces(true)`.
    pub traces: Option<TraceSet>,
}

/// Builder for [`ScenarioGrid`].
#[derive(Debug, Clone)]
pub struct ScenarioGridBuilder {
    specs: Vec<(String, Option<ServerSpec>)>,
    topologies: Vec<Option<Topology>>,
    fan_intervals: Vec<Option<Seconds>>,
    racks: Vec<Option<RackTopology>>,
    rack_controls: Vec<RackControl>,
    workload: WorkloadRecipe,
    solutions: Vec<Solution>,
    seeds: Vec<u64>,
    horizon: Seconds,
    keep_traces: bool,
}

impl ScenarioGridBuilder {
    /// Sets the simulated duration of every scenario (default 900 s).
    #[must_use]
    pub fn horizon(mut self, horizon: Seconds) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the solutions axis (default: all five, Table III order).
    #[must_use]
    pub fn solutions(mut self, solutions: &[Solution]) -> Self {
        self.solutions = solutions.to_vec();
        self
    }

    /// Sets the seeds axis (default: `[42]`).
    #[must_use]
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Adds a named spec variant to the specs axis (the default axis is the
    /// single unnamed Table I spec; the first call replaces it).
    #[must_use]
    pub fn spec_variant(mut self, label: impl Into<String>, spec: ServerSpec) -> Self {
        if self.specs.len() == 1 && self.specs[0].1.is_none() {
            self.specs.clear();
        }
        self.specs.push((label.into(), Some(spec)));
        self
    }

    /// Adds a thermal topology to the topology axis (labelled by
    /// [`Topology::label`]; the default axis is the spec's own topology
    /// and the first call replaces it). This is the multi-socket axis:
    /// `ScenarioGrid::builder().topology_variant(Topology::dual_socket())`
    /// runs every solution × seed cell on a 2S board.
    #[must_use]
    pub fn topology_variant(mut self, topology: Topology) -> Self {
        if self.topologies.len() == 1 && self.topologies[0].is_none() {
            self.topologies.clear();
        }
        self.topologies.push(Some(topology));
        self
    }

    /// Sets the fan-control-interval axis: how often the fan loop decides
    /// (the default axis is the spec's own 30 s interval). Each value
    /// derives a spec — and pays one gain tuning — since the tuned gains
    /// bake the decision period in.
    #[must_use]
    pub fn fan_control_intervals(mut self, intervals: &[Seconds]) -> Self {
        self.fan_intervals = intervals.iter().copied().map(Some).collect();
        self
    }

    /// Adds a rack topology to the rack axis (labelled
    /// `rack-{label}`; the default axis is "no rack" — plain single-server
    /// scenarios — and the first call replaces it). Rack cells run the
    /// rack closed loop with the solution mapped onto a [`RackControl`]
    /// (see the module docs).
    #[must_use]
    pub fn rack_variant(mut self, rack: RackTopology) -> Self {
        if self.racks.len() == 1 && self.racks[0].is_none() {
            self.racks.clear();
        }
        self.racks.push(Some(rack));
        self
    }

    /// Sets the rack-control axis: rack cells enumerate exactly these
    /// control modes (labelled by [`RackControl::label`]) instead of
    /// mapping the solutions axis through [`Scenario::rack_control`] —
    /// the only way the rack-native modes (`GlobalECoord`,
    /// `MigratingCoordinated`) enter a grid, since they extend the
    /// solution matrix rather than mirror a single-server `Solution`.
    /// Each cell reports [`Scenario::nearest_solution`] as its solution.
    ///
    /// Requires a rack axis ([`Self::rack_variant`]); enforced at
    /// [`Self::build`].
    #[must_use]
    pub fn rack_controls(mut self, controls: &[RackControl]) -> Self {
        self.rack_controls = controls.to_vec();
        self
    }

    /// Sets the workload recipe shared by every scenario (default:
    /// [`WorkloadRecipe::Date14`]).
    #[must_use]
    pub fn workload(mut self, workload: WorkloadRecipe) -> Self {
        self.workload = workload;
        self
    }

    /// Keeps full traces on every result (default off — summaries only, so
    /// large grids stay memory-bounded).
    #[must_use]
    pub fn keep_traces(mut self, keep: bool) -> Self {
        self.keep_traces = keep;
        self
    }

    /// Enumerates the grid in the fixed nested order spec → topology →
    /// fan-interval → rack → solution → seed.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty, or if the rack axis is combined with
    /// the (single-server) topology axis — a rack cell's boards come from
    /// its slots, so the combination would silently ignore one axis.
    /// Every non-default plant combination pays its Ziegler–Nichols gain
    /// tuning here, **once per combination**, rather than once per scenario
    /// inside the sweep — a variant × solutions × seeds grid would
    /// otherwise re-tune the identical plant for every cell.
    #[must_use]
    pub fn build(self) -> ScenarioGrid {
        assert!(!self.specs.is_empty(), "grid needs at least one spec");
        assert!(!self.topologies.is_empty(), "grid needs at least one topology");
        assert!(!self.fan_intervals.is_empty(), "grid needs at least one fan interval");
        assert!(!self.racks.is_empty(), "grid needs at least one rack cell");
        assert!(!self.solutions.is_empty(), "grid needs at least one solution");
        assert!(!self.seeds.is_empty(), "grid needs at least one seed");
        let rack_axis = self.racks.iter().any(Option::is_some);
        let topology_axis = self.topologies.iter().any(Option::is_some);
        assert!(
            !(rack_axis && topology_axis),
            "the rack axis and the server-topology axis cannot combine: rack cells take their \
             boards from the rack's own slots"
        );
        assert!(
            self.rack_controls.is_empty() || rack_axis,
            "the rack-control axis needs a rack axis: control modes only apply to rack cells"
        );
        let cells =
            self.specs.len() * self.topologies.len() * self.fan_intervals.len() * self.racks.len();
        let mut scenarios = Vec::with_capacity(cells * self.solutions.len() * self.seeds.len());
        for (spec_label, base_spec) in &self.specs {
            for topology in &self.topologies {
                for fan_interval in &self.fan_intervals {
                    let (spec, prefix) =
                        Self::derive_spec(spec_label, base_spec, topology, fan_interval);
                    // The same 4-region recipe Simulation::build would run
                    // ad hoc; `None` keeps the default spec's per-process
                    // cache.
                    let schedule = spec.as_ref().map(|spec| {
                        crate::tune_gain_schedule(
                            spec,
                            &[
                                Rpm::new(2000.0),
                                Rpm::new(3500.0),
                                Rpm::new(5000.0),
                                Rpm::new(7000.0),
                            ],
                        )
                    });
                    self.push_cells(&mut scenarios, &spec, &prefix, &schedule);
                }
            }
        }
        ScenarioGrid { scenarios, keep_traces: self.keep_traces }
    }

    /// Emits the rack × solution × seed block of one derived spec cell.
    fn push_cells(
        &self,
        scenarios: &mut Vec<Scenario>,
        spec: &Option<ServerSpec>,
        prefix: &str,
        schedule: &Option<gfsc_control::GainSchedule>,
    ) {
        for rack in &self.racks {
            let rack_part = match rack {
                Some(rack) => format!("rack-{}/", rack.label()),
                None => String::new(),
            };
            let push = |label_part: &str,
                        solution: Solution,
                        control: Option<RackControl>,
                        scenarios: &mut Vec<Scenario>| {
                for &seed in &self.seeds {
                    scenarios.push(Scenario {
                        label: format!("{prefix}{rack_part}{label_part}/seed{seed}"),
                        spec: spec.clone(),
                        solution,
                        seed,
                        horizon: self.horizon,
                        workload: self.workload.clone(),
                        gain_schedule: schedule.clone(),
                        rack: rack.clone(),
                        rack_control_override: control,
                    });
                }
            };
            if rack.is_some() && !self.rack_controls.is_empty() {
                // The rack-control axis: enumerate the control modes
                // directly; the reported solution is the matrix row each
                // mode extends.
                for &control in &self.rack_controls {
                    push(
                        control.label(),
                        Scenario::nearest_solution(control),
                        Some(control),
                        scenarios,
                    );
                }
            } else {
                for &solution in &self.solutions {
                    push(&solution.to_string(), solution, None, scenarios);
                }
            }
        }
    }

    /// Applies the topology and fan-interval overrides of one grid cell to
    /// the base spec, returning the effective spec (`None` = the untouched
    /// Table I default) and the cell's label prefix.
    fn derive_spec(
        spec_label: &str,
        base_spec: &Option<ServerSpec>,
        topology: &Option<Topology>,
        fan_interval: &Option<Seconds>,
    ) -> (Option<ServerSpec>, String) {
        let mut spec = base_spec.clone();
        let mut prefix =
            if spec_label.is_empty() { String::new() } else { format!("{spec_label}/") };
        if let Some(topology) = topology {
            let base = spec.unwrap_or_else(ServerSpec::enterprise_default);
            spec = Some(ServerSpec { topology: topology.clone(), ..base });
            prefix.push_str(&format!("{}/", topology.label()));
        }
        if let Some(fan_control_interval) = *fan_interval {
            let base = spec.unwrap_or_else(ServerSpec::enterprise_default);
            spec = Some(ServerSpec { fan_control_interval, ..base });
            // Full-precision Display keeps labels injective: distinct
            // intervals must never collapse into one cell label, or
            // `aggregate_over_seeds` would silently pool different
            // conditions.
            prefix.push_str(&format!("fi{}s/", fan_control_interval.value()));
        }
        (spec, prefix)
    }
}

/// A declarative grid of scenarios plus its executor.
#[derive(Debug)]
pub struct ScenarioGrid {
    scenarios: Vec<Scenario>,
    keep_traces: bool,
}

impl ScenarioGrid {
    /// Starts building a grid.
    #[must_use]
    pub fn builder() -> ScenarioGridBuilder {
        ScenarioGridBuilder {
            specs: vec![(String::new(), None)],
            topologies: vec![None],
            fan_intervals: vec![None],
            racks: vec![None],
            rack_controls: Vec::new(),
            workload: WorkloadRecipe::Date14,
            solutions: Solution::ALL.to_vec(),
            seeds: vec![42],
            horizon: Seconds::new(900.0),
            keep_traces: false,
        }
    }

    /// The enumerated scenarios, in execution order.
    #[must_use]
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    fn execute(&self, scenario: &Scenario) -> ScenarioResult {
        self.package(scenario, scenario.run())
    }

    /// Folds a finished outcome into the grid's result shape (summary
    /// always, traces only when the grid keeps them).
    fn package(&self, scenario: &Scenario, outcome: RunOutcome) -> ScenarioResult {
        ScenarioResult {
            label: scenario.label.clone(),
            solution: scenario.solution,
            seed: scenario.seed,
            summary: RunSummary::from(&outcome),
            traces: self.keep_traces.then_some(outcome.traces),
        }
    }

    /// Runs every scenario across all cores, at
    /// [`gfsc_sim::sweep::thread_count`] workers (see
    /// [`ScenarioGrid::run_with_workers`] for the execution strategy).
    /// Results come back in enumeration order, bit-identical to
    /// [`ScenarioGrid::run_serial`].
    #[must_use]
    pub fn run(&self) -> Vec<ScenarioResult> {
        self.run_with_workers(executor::thread_count())
    }

    /// [`ScenarioGrid::run`] with an explicit worker count (the
    /// determinism tests pin worker counts with this; 0 runs as 1).
    ///
    /// Compatible multi-socket cells (same topology, step size, and
    /// horizon — see [`Scenario::is_batchable`]) step together through a
    /// [`gfsc_thermal::BatchRcNetwork`] whose memoized LU factorizations
    /// are shared across lanes *and* steps; everything else (single-socket
    /// cells, rack cells, singleton groups) runs the scalar path cell by
    /// cell. Each group of two or more compatible cells is cut into up to
    /// `workers` contiguous lockstep batches of at least two lanes each
    /// (sizes differ by at most one). The batches and the scalar cells
    /// share the workers as the jobs of one parallel map, so one worker
    /// runs one batch per group on the calling thread.
    ///
    /// Results come back in enumeration order, **bitwise identical** to
    /// [`ScenarioGrid::run_serial`] — batching is purely an execution
    /// strategy, never a numerical one, whatever the worker count.
    /// Asserted by `tests/determinism.rs` across every solution mode.
    #[must_use]
    pub fn run_with_workers(&self, workers: usize) -> Vec<ScenarioResult> {
        let workers = workers.max(1);
        // The gain-schedule caches (`OnceLock`) are warmed before the fan-out:
        // letting N workers race into `get_or_init` would serialize them all
        // behind one tuner anyway, while charging the wait to every scenario.
        if self.scenarios.iter().any(|s| s.spec.is_none()) {
            let _ = crate::fine_gain_schedule();
        }
        // Group batchable cells by compatibility key, first-seen order.
        let mut groups: Vec<(BatchKey<'_>, Vec<usize>)> = Vec::new();
        for (i, scenario) in self.scenarios.iter().enumerate() {
            if !scenario.is_batchable() {
                continue;
            }
            let key = scenario.batch_key().expect("batchable cells always derive a spec");
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(i),
                None => groups.push((key, vec![i])),
            }
        }

        // A job is a list of cell indices: two or more step in lockstep,
        // one runs the scalar path. Batches go first, so the cells left
        // over (singletons included) fill in behind them.
        let mut jobs: Vec<Vec<usize>> = Vec::new();
        let mut in_batch = vec![false; self.scenarios.len()];
        for (_, members) in groups.iter().filter(|(_, members)| members.len() >= 2) {
            for cut in split(members.len(), workers.min(members.len() / 2)) {
                jobs.push(members[cut].to_vec());
            }
            for &i in members {
                in_batch[i] = true;
            }
        }
        jobs.extend((0..self.scenarios.len()).filter(|&i| !in_batch[i]).map(|i| vec![i]));

        let done = executor::parallel_map_with_workers(&jobs, |cells| self.run_job(cells), workers);
        let mut results: Vec<Option<ScenarioResult>> = Vec::new();
        results.resize_with(self.scenarios.len(), || None);
        for (cells, outcomes) in jobs.iter().zip(done) {
            for (&i, result) in cells.iter().zip(outcomes) {
                results[i] = Some(result);
            }
        }
        results.into_iter().map(|r| r.expect("every cell ran")).collect()
    }

    /// Runs every scenario on the calling thread — the determinism
    /// reference for [`ScenarioGrid::run`].
    #[must_use]
    pub fn run_serial(&self) -> Vec<ScenarioResult> {
        executor::serial_map(&self.scenarios, |s| self.execute(s))
    }

    /// The same run as [`ScenarioGrid::run`], under the name the
    /// repository benchmark (`perfbench`) calls; nothing in the workspace
    /// calls it.
    #[must_use]
    pub fn run_batched(&self) -> Vec<ScenarioResult> {
        self.run()
    }

    /// Runs one job of [`ScenarioGrid::run_with_workers`]: a single cell
    /// on the scalar path, or two or more compatible cells as one lockstep
    /// batch (its own `BatchRcNetwork` and factor arena).
    fn run_job(&self, cells: &[usize]) -> Vec<ScenarioResult> {
        if let [i] = *cells {
            return vec![self.execute(&self.scenarios[i])];
        }
        let mut sims: Vec<gfsc_coord::ClosedLoopSim> = cells
            .iter()
            .map(|&i| self.scenarios[i].build_simulation().into_closed_loop())
            .collect();
        let outcomes = gfsc_coord::run_batch(&mut sims, self.scenarios[cells[0]].horizon);
        cells
            .iter()
            .zip(outcomes)
            .map(|(&i, outcome)| self.package(&self.scenarios[i], outcome))
            .collect()
    }
}

/// Cuts `total` items into `parts` contiguous index ranges in order; the
/// first `total % parts` ranges take one extra item.
///
/// # Panics
///
/// Panics if `parts` is zero.
fn split(total: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts > 0, "need at least one part");
    let (base, extra) = (total / parts, total % parts);
    let mut start = 0;
    (0..parts)
        .map(|part| {
            let len = base + usize::from(part < extra);
            start += len;
            start - len..start
        })
        .collect()
}

/// Mean and 95 % confidence half-width of one metric over the seed axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedStats {
    /// Sample mean.
    pub mean: f64,
    /// Two-sided 95 % confidence half-width (Student's t on the sample
    /// standard deviation); 0 for a single seed.
    pub ci95: f64,
    /// Number of seeds aggregated.
    pub n: usize,
}

/// Two-sided 95 % Student-t critical values for 1–30 degrees of freedom.
/// Beyond the table the df=30 value is reused: slightly conservative
/// (t decays from 2.042 toward 1.960 as df → ∞), never an underestimate.
const T_95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Computes mean ± 95 % CI over one metric's per-seed values.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn seed_stats(values: &[f64]) -> SeedStats {
    assert!(!values.is_empty(), "seed stats need at least one value");
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return SeedStats { mean, ci95: 0.0, n };
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let t = T_95.get(n - 2).copied().unwrap_or(T_95[T_95.len() - 1]);
    SeedStats { mean, ci95: t * (var / n as f64).sqrt(), n }
}

/// One grid cell aggregated over its seed axis.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedAggregate {
    /// The scenario label with its `/seed<n>` suffix stripped.
    pub label: String,
    /// The solution that ran.
    pub solution: Solution,
    /// Deadline-violation percentage across seeds.
    pub violation_percent: SeedStats,
    /// Fan energy (joules) across seeds.
    pub fan_energy_j: SeedStats,
    /// CPU energy (joules) across seeds — with the fan energy, the total
    /// the migration study trades violations against.
    pub cpu_energy_j: SeedStats,
    /// Lost utilization across seeds.
    pub lost_utilization: SeedStats,
}

/// Groups a grid's results by everything but the seed (label prefix before
/// `/seed<n>`) and reports mean ± 95 % CI per metric, in first-seen order.
#[must_use]
pub fn aggregate_over_seeds(results: &[ScenarioResult]) -> Vec<SeedAggregate> {
    let key_of = |label: &str| {
        label.rfind("/seed").map_or_else(|| label.to_owned(), |at| label[..at].to_owned())
    };
    let mut groups: Vec<(String, Solution, Vec<&RunSummary>)> = Vec::new();
    for result in results {
        let key = key_of(&result.label);
        match groups.iter_mut().find(|(k, s, _)| *k == key && *s == result.solution) {
            Some((_, _, members)) => members.push(&result.summary),
            None => groups.push((key, result.solution, vec![&result.summary])),
        }
    }
    groups
        .into_iter()
        .map(|(label, solution, members)| {
            let metric = |f: fn(&RunSummary) -> f64| {
                seed_stats(&members.iter().map(|m| f(m)).collect::<Vec<_>>())
            };
            SeedAggregate {
                label,
                solution,
                violation_percent: metric(|m| m.violation_percent),
                fan_energy_j: metric(|m| m.fan_energy_j),
                cpu_energy_j: metric(|m| m.cpu_energy_j),
                lost_utilization: metric(|m| m.lost_utilization),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_enumeration_order_is_spec_solution_seed() {
        let grid = ScenarioGrid::builder()
            .solutions(&[Solution::WithoutCoordination, Solution::ECoord])
            .seeds(&[1, 2])
            .build();
        let labels: Vec<&str> = grid.scenarios().iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "w/o coordination (baseline)/seed1",
                "w/o coordination (baseline)/seed2",
                "E-coord/seed1",
                "E-coord/seed2",
            ]
        );
    }

    #[test]
    fn traces_are_dropped_unless_requested() {
        let base = ScenarioGrid::builder()
            .horizon(Seconds::new(60.0))
            .solutions(&[Solution::WithoutCoordination])
            .seeds(&[7]);
        let without = base.clone().build().run();
        assert!(without[0].traces.is_none());
        let with = base.keep_traces(true).build().run();
        let traces = with[0].traces.as_ref().expect("traces kept");
        assert_eq!(traces.require("fan_rpm").unwrap().len(), 61);
    }

    #[test]
    fn workload_recipes_build_deterministically() {
        for recipe in [
            WorkloadRecipe::Date14,
            WorkloadRecipe::SquareWave { low: 0.1, high: 0.7, period_s: 600.0, sigma: 0.04 },
            WorkloadRecipe::Constant(0.5),
        ] {
            let mut a = recipe.build(3);
            let mut b = recipe.build(3);
            for k in 0..300 {
                let t = Seconds::new(f64::from(k));
                assert_eq!(a.sample(t), b.sample(t), "{recipe:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one solution")]
    fn empty_solutions_axis_rejected() {
        let _ = ScenarioGrid::builder().solutions(&[]).build();
    }

    #[test]
    fn default_axes_leave_the_spec_untouched() {
        // All-default axes must keep `spec: None` (per-process gain cache,
        // historical labels) — the bit-compat contract of the refactor.
        let grid = ScenarioGrid::builder()
            .horizon(Seconds::new(30.0))
            .solutions(&[Solution::WithoutCoordination])
            .build();
        assert!(grid.scenarios().iter().all(|s| s.spec.is_none()));
        assert_eq!(grid.scenarios()[0].label, "w/o coordination (baseline)/seed42");
    }

    #[test]
    fn topology_axis_is_first_class() {
        use gfsc_thermal::Topology;
        let grid = ScenarioGrid::builder()
            .horizon(Seconds::new(30.0))
            .solutions(&[Solution::WithoutCoordination])
            .seeds(&[1, 2])
            .topology_variant(Topology::dual_socket())
            .build();
        let labels: Vec<&str> = grid.scenarios().iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            ["2S/w/o coordination (baseline)/seed1", "2S/w/o coordination (baseline)/seed2"]
        );
        let spec = grid.scenarios()[0].spec.as_ref().expect("derived spec");
        assert_eq!(spec.topology, Topology::dual_socket());
        // One tuning for both seeds.
        assert_eq!(grid.scenarios()[0].gain_schedule, grid.scenarios()[1].gain_schedule);
    }

    #[test]
    fn fan_interval_axis_derives_specs() {
        let grid = ScenarioGrid::builder()
            .horizon(Seconds::new(30.0))
            .solutions(&[Solution::WithoutCoordination])
            .seeds(&[1])
            .fan_control_intervals(&[Seconds::new(15.0), Seconds::new(60.0)])
            .build();
        let labels: Vec<&str> = grid.scenarios().iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            ["fi15s/w/o coordination (baseline)/seed1", "fi60s/w/o coordination (baseline)/seed1",]
        );
        let spec = grid.scenarios()[1].spec.as_ref().expect("derived spec");
        assert_eq!(spec.fan_control_interval, Seconds::new(60.0));
        assert!(grid.scenarios().iter().all(|s| s.gain_schedule.is_some()));
    }

    #[test]
    fn rack_axis_runs_the_rack_loop() {
        use gfsc_rack::RackTopology;
        let grid = ScenarioGrid::builder()
            .horizon(Seconds::new(60.0))
            .solutions(&[Solution::WithoutCoordination, Solution::RCoordAdaptiveTref])
            .seeds(&[1])
            .rack_variant(RackTopology::rack_2u_x4())
            .build();
        let labels: Vec<&str> = grid.scenarios().iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            ["rack-2Ux4/w/o coordination (baseline)/seed1", "rack-2Ux4/R-coord + A-Tref/seed1",]
        );
        assert_eq!(
            Scenario::rack_control(Solution::WithoutCoordination),
            gfsc_coord::RackControl::GlobalLockstep
        );
        assert_eq!(
            Scenario::rack_control(Solution::RCoordAdaptiveTref),
            gfsc_coord::RackControl::Coordinated { adaptive_reference: true }
        );
        assert_eq!(
            Scenario::rack_control(Solution::RCoordFixedTref),
            gfsc_coord::RackControl::Coordinated { adaptive_reference: false }
        );
        assert_eq!(
            Scenario::rack_control(Solution::RCoordAdaptiveTrefSsFan),
            gfsc_coord::RackControl::CoordinatedSsFan { adaptive_reference: true }
        );
        assert_eq!(
            Scenario::rack_control(Solution::ECoord),
            gfsc_coord::RackControl::CoordinatedECoord
        );
        let results = grid.run();
        // 8 sockets × 61 epochs each.
        assert!(results.iter().all(|r| r.summary.total_epochs == 61 * 8));
    }

    #[test]
    fn rack_control_axis_enumerates_the_full_matrix() {
        use gfsc_coord::RackControl;
        use gfsc_rack::RackTopology;
        let grid = ScenarioGrid::builder()
            .horizon(Seconds::new(60.0))
            .seeds(&[1])
            .rack_variant(RackTopology::rack_2u_x4())
            .rack_controls(&[
                RackControl::CoordinatedECoord,
                RackControl::GlobalECoord,
                RackControl::MigratingCoordinated { adaptive_reference: true },
            ])
            .build();
        let labels: Vec<&str> = grid.scenarios().iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "rack-2Ux4/coordinated+e-coord/seed1",
                "rack-2Ux4/global-e-coord/seed1",
                "rack-2Ux4/coordinated+migrate/seed1",
            ]
        );
        // Each cell carries its explicit control and the matrix row it
        // extends as the reported solution.
        assert_eq!(grid.scenarios()[1].rack_control_override, Some(RackControl::GlobalECoord));
        assert_eq!(grid.scenarios()[1].solution, Solution::ECoord);
        assert_eq!(grid.scenarios()[2].solution, Solution::RCoordAdaptiveTref);
        // The five paper solutions round-trip through both mappings.
        for solution in Solution::ALL {
            assert_eq!(Scenario::nearest_solution(Scenario::rack_control(solution)), solution);
        }
        let results = grid.run();
        assert!(results.iter().all(|r| r.summary.total_epochs == 61 * 8));
    }

    #[test]
    #[should_panic(expected = "needs a rack axis")]
    fn rack_controls_require_a_rack_axis() {
        use gfsc_coord::RackControl;
        let _ = ScenarioGrid::builder().rack_controls(&[RackControl::GlobalECoord]).build();
    }

    #[test]
    #[should_panic(expected = "cannot combine")]
    fn rack_and_topology_axes_cannot_combine() {
        use gfsc_rack::RackTopology;
        let _ = ScenarioGrid::builder()
            .topology_variant(Topology::dual_socket())
            .rack_variant(RackTopology::rack_1u_x8())
            .build();
    }

    #[test]
    fn batched_run_matches_serial_bitwise_on_a_multi_socket_grid() {
        let grid = ScenarioGrid::builder()
            .horizon(Seconds::new(90.0))
            .solutions(&[Solution::WithoutCoordination, Solution::RCoordFixedTref])
            .seeds(&[1, 2])
            .topology_variant(Topology::dual_socket())
            .build();
        assert!(grid.scenarios().iter().all(Scenario::is_batchable));
        let serial = grid.run_serial();
        let batched = grid.run();
        assert_eq!(serial.len(), batched.len());
        for (s, b) in serial.iter().zip(&batched) {
            assert_eq!(s.label, b.label);
            assert_eq!(s.summary, b.summary, "{}", s.label);
        }
    }

    #[test]
    fn batched_run_falls_back_for_single_socket_cells() {
        // The default spec runs the two-node plant: nothing batches, the
        // scalar fallback covers every cell, results still line up.
        let grid = ScenarioGrid::builder()
            .horizon(Seconds::new(60.0))
            .solutions(&[Solution::WithoutCoordination])
            .seeds(&[1, 2])
            .build();
        assert!(grid.scenarios().iter().all(|s| !s.is_batchable()));
        let serial = grid.run_serial();
        let batched = grid.run();
        for (s, b) in serial.iter().zip(&batched) {
            assert_eq!((s.label.as_str(), &s.summary), (b.label.as_str(), &b.summary));
        }
    }

    #[test]
    fn batched_run_matches_serial_at_every_worker_count() {
        // Two 10-lane groups (2S and 4S; both fan intervals share a batch
        // key): 4 workers cut each into 3/3/2/2 lanes, 6 are clamped to 5
        // batches of 2, and 0 runs as 1 (one 10-lane batch per group). The
        // single-socket cells never batch and run as one-cell jobs
        // alongside the batches.
        let grid = ScenarioGrid::builder()
            .horizon(Seconds::new(60.0))
            .solutions(&[Solution::RCoordAdaptiveTref])
            .seeds(&[1, 2, 3, 4, 5])
            .topology_variant(Topology::dual_socket())
            .topology_variant(Topology::quad_socket())
            .topology_variant(Topology::single_socket())
            .fan_control_intervals(&[Seconds::new(15.0), Seconds::new(30.0)])
            .keep_traces(true)
            .build();
        assert_eq!(grid.scenarios().iter().filter(|s| s.is_batchable()).count(), 20);
        let serial = grid.run_serial();
        let bits = |traces: &TraceSet| -> Vec<(String, Vec<(u64, u64)>)> {
            traces
                .iter()
                .map(|trace| {
                    let samples = trace.iter().map(|(t, v)| (t.to_bits(), v.to_bits())).collect();
                    (trace.name().to_owned(), samples)
                })
                .collect()
        };
        for workers in 0..=6 {
            let batched = grid.run_with_workers(workers);
            assert_eq!(serial.len(), batched.len());
            for (s, b) in serial.iter().zip(&batched) {
                assert_eq!(s.label, b.label, "{workers} workers");
                assert_eq!(s.summary, b.summary, "{} at {workers} workers", s.label);
                let (s_traces, b_traces) =
                    (s.traces.as_ref().expect("traces kept"), b.traces.as_ref().expect("kept"));
                assert!(!s_traces.is_empty());
                assert!(
                    bits(s_traces) == bits(b_traces),
                    "{} traces at {workers} workers",
                    s.label
                );
            }
        }
    }

    #[test]
    fn rack_cells_match_serial_at_every_worker_count() {
        use gfsc_rack::RackTopology;
        // Rack cells run as one-cell jobs today; however they are later
        // batched, every worker count must replay the serial walk bitwise.
        let grid = ScenarioGrid::builder()
            .horizon(Seconds::new(60.0))
            .solutions(&[Solution::WithoutCoordination, Solution::ECoord])
            .seeds(&[1, 2])
            .rack_variant(RackTopology::rack_2u_x4())
            .build();
        let serial = grid.run_serial();
        for workers in 0..=6 {
            let parallel = grid.run_with_workers(workers);
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.label, p.label, "{workers} workers");
                assert_eq!(s.summary, p.summary, "{} at {workers} workers", s.label);
            }
        }
    }

    #[test]
    fn shard_split_covers_the_grid_exactly() {
        // The cut rule behind the lockstep batches: contiguous, in order,
        // sizes within one of each other.
        assert_eq!(split(10, 3), [0..4, 4..7, 7..10]);
        assert_eq!(split(4, 2), [0..2, 2..4]);
        // More parts than items: trailing parts go empty, coverage holds.
        assert_eq!(split(2, 4), [0..1, 1..2, 2..2, 2..2]);
    }

    #[test]
    fn seed_stats_mean_and_ci() {
        let one = seed_stats(&[7.0]);
        assert_eq!((one.mean, one.ci95, one.n), (7.0, 0.0, 1));
        let s = seed_stats(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        // s = 1, t(df=2) = 4.303: half-width 4.303/sqrt(3).
        assert!((s.ci95 - 4.303 / 3f64.sqrt()).abs() < 1e-9, "ci {}", s.ci95);
        assert_eq!(s.n, 3);
    }

    #[test]
    fn aggregate_over_seeds_groups_by_cell() {
        let results = ScenarioGrid::builder()
            .horizon(Seconds::new(60.0))
            .solutions(&[Solution::WithoutCoordination, Solution::ECoord])
            .seeds(&[1, 2, 3])
            .build()
            .run();
        let agg = aggregate_over_seeds(&results);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].label, "w/o coordination (baseline)");
        assert_eq!(agg[1].solution, Solution::ECoord);
        for cell in &agg {
            assert_eq!(cell.violation_percent.n, 3);
            assert!(cell.fan_energy_j.mean > 0.0);
            assert!(cell.fan_energy_j.ci95 >= 0.0);
        }
    }

    #[test]
    fn spec_variants_tune_once_per_variant() {
        let spec = crate::experiments::fan_study_spec();
        let grid = ScenarioGrid::builder()
            .horizon(Seconds::new(30.0))
            .solutions(&[Solution::WithoutCoordination, Solution::ECoord])
            .seeds(&[1, 2])
            .spec_variant("cold-aisle", spec)
            .build();
        // Four scenarios, one shared pre-tuned schedule (tuned at grid
        // build, not per run).
        let schedules: Vec<_> = grid.scenarios().iter().map(|s| s.gain_schedule.clone()).collect();
        assert_eq!(schedules.len(), 4);
        assert!(schedules[0].is_some());
        assert!(schedules.iter().all(|s| s == &schedules[0]));
        // Default-spec grids keep using the per-process cache.
        let default_grid = ScenarioGrid::builder().horizon(Seconds::new(30.0)).build();
        assert!(default_grid.scenarios().iter().all(|s| s.gain_schedule.is_none()));
    }
}
