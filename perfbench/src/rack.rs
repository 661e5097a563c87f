//! The `rack-ecoord` and `rack-pid` workloads: `RackLoopSim::run` under
//! the DATE'14 workload, one closed-loop run per control configuration.
//!
//! The traced pass re-runs `RackLoopSim::run`'s `0..=steps` schedule
//! through the same public boundaries (`Workload::sample`,
//! `RackControlBank::epoch`, `RackServer::step`), with the rack wrapped in
//! a timing `RackView`, and must reproduce the untraced run bit for bit.

use crate::common::{
    median, quantile, secs_since, Checks, EndToEnd, Fingerprint, Layer, SeedStream,
};
use crate::trace::{Accumulated, Kind, SpanLog};
use gfsc::coord::obs::{EventKind, Recorder};
use gfsc::coord::{
    RackChannels, RackControl, RackControlBank, RackControlConfig, RackEnergyDescent, RackLoopSim,
    RackView,
};
use gfsc::rack::{RackPlant, RackServer, RackSpec, RackTopology};
use gfsc::sim::{Clock, Periodic, TraceSet};
use gfsc::units::{Celsius, Rpm, Seconds, Utilization, Watts};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Simulated seconds per run: long enough that each run sees about 15
/// load spikes, so per-run cost varies little with the seed.
const HORIZON_S: f64 = 3600.0;
/// Workload seeds per benchmark seed; rounds cycle through them, so each
/// (configuration, seed) pair repeats and its statistics can be compared.
const SUBSEEDS: usize = 8;
/// `RackLoopSim::builder` defaults, which the traced replay reproduces.
const START_U: f64 = 0.1;
const START_FAN_RPM: f64 = 1500.0;
/// Flight-recorder ring of the traced pass: roomy enough for a whole run.
const RECORDER_CAPACITY: usize = 1 << 17;
/// Calls per zone per end state when timing the inversion probes.
const PROBE_REPS: usize = 8;

/// One control configuration: a mode on a rack preset.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    pub control: RackControl,
    pub topology: fn() -> RackTopology,
}

fn plenum4() -> RackTopology {
    RackTopology::shared_plenum(4)
}

/// The model-inversion-heavy configurations.
pub const ECOORD: [Mode; 3] = [
    Mode { control: RackControl::GlobalECoord, topology: RackTopology::rack_1u_x8 },
    Mode { control: RackControl::GlobalECoord, topology: plenum4 },
    Mode { control: RackControl::CoordinatedECoord, topology: RackTopology::rack_1u_x8 },
];

/// The plant-step-heavy PID configurations.
pub const PID: [Mode; 5] = [
    Mode { control: RackControl::GlobalLockstep, topology: RackTopology::rack_1u_x8 },
    Mode {
        control: RackControl::Coordinated { adaptive_reference: false },
        topology: RackTopology::rack_1u_x8,
    },
    Mode {
        control: RackControl::Coordinated { adaptive_reference: true },
        topology: RackTopology::rack_1u_x8,
    },
    Mode {
        control: RackControl::CoordinatedSsFan { adaptive_reference: true },
        topology: RackTopology::rack_1u_x8,
    },
    Mode {
        control: RackControl::MigratingCoordinated { adaptive_reference: true },
        topology: RackTopology::rack_1u_x8,
    },
];

impl Mode {
    /// `mode.<mode>.<rack>` with `+` spelled `-`.
    pub fn metric_prefix(&self) -> String {
        format!("mode.{}.{}", self.control.label().replace('+', "-"), (self.topology)().label())
    }
}

/// The simulated result of one run, reduced to what must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    fingerprint: u64,
    fan_energy_j: f64,
    violations: u64,
    socket_epochs: u64,
}

#[allow(clippy::too_many_arguments)]
fn summarize(
    traces: &TraceSet,
    violation_percent: f64,
    violations: u64,
    socket_epochs: u64,
    lost_utilization: f64,
    fan_energy_j: f64,
    cpu_energy_j: f64,
) -> Summary {
    let mut fp = Fingerprint::new();
    fp.traces(traces);
    for v in [violation_percent, lost_utilization, fan_energy_j, cpu_energy_j] {
        fp.f64(v);
    }
    fp.word(violations);
    fp.word(socket_epochs);
    Summary { fingerprint: fp.finish(), fan_energy_j, violations, socket_epochs }
}

struct Untraced {
    setup_s: f64,
    wall_s: f64,
    summary: Summary,
    sim: RackLoopSim,
}

fn run_untraced(mode: Mode, seed: u64) -> Untraced {
    let start = Instant::now();
    let mut sim = RackLoopSim::builder(RackSpec::new((mode.topology)()))
        .workload(gfsc::date14_workload(seed))
        .control(mode.control)
        .build();
    let setup_s = secs_since(start);
    let start = Instant::now();
    let out = sim.run(Seconds::new(HORIZON_S));
    let wall_s = secs_since(start);
    let summary = summarize(
        &out.traces,
        out.violation_percent,
        out.total_violations,
        out.total_epochs,
        out.lost_utilization,
        out.fan_energy.value(),
        out.cpu_energy.value(),
    );
    Untraced { setup_s, wall_s, summary, sim }
}

/// A [`RackView`] over the simulated rack that times every
/// `min_safe_zone_fan` call (the single-step release path).
struct TimedView<'a> {
    server: &'a mut RackServer,
    log: &'a mut SpanLog,
}

impl RackView for TimedView<'_> {
    fn zone_count(&self) -> usize {
        self.server.zone_count()
    }
    fn socket_count(&self) -> usize {
        self.server.socket_count()
    }
    fn server_count(&self) -> usize {
        self.server.server_count()
    }
    fn plant(&self) -> &RackPlant {
        self.server.plant()
    }
    fn plant_mut(&mut self) -> &mut RackPlant {
        self.server.plant_mut()
    }
    fn measured_socket(&self, i: usize) -> Celsius {
        self.server.measured_socket(i)
    }
    fn measured_zone(&self, z: usize) -> Celsius {
        self.server.measured_zone(z)
    }
    fn measured_rack(&self) -> Celsius {
        self.server.measured_rack()
    }
    fn zone_fan_speed(&self, z: usize) -> Rpm {
        self.server.zone_fan_speed(z)
    }
    fn zone_fan_target(&self, z: usize) -> Rpm {
        self.server.zone_fan_target(z)
    }
    fn set_zone_fan_target(&mut self, z: usize, target: Rpm) {
        self.server.set_zone_fan_target(z, target);
    }
    fn set_all_fan_targets(&mut self, target: Rpm) {
        self.server.set_all_fan_targets(target);
    }
    fn executed(&self) -> &[Utilization] {
        self.server.executed()
    }
    fn socket_demands(&self, u: Utilization, out: &mut [Utilization]) {
        self.server.socket_demands(u, out);
    }
    fn server_load_weight(&self, s: usize) -> f64 {
        self.server.server_load_weight(s)
    }
    fn shift_load_weight(&mut self, from: usize, to: usize, amount: f64) {
        self.server.shift_load_weight(from, to, amount);
    }
    fn min_safe_zone_fan(&mut self, z: usize, u: Utilization, limit: Celsius) -> Option<Rpm> {
        self.log.open(Kind::MinSafe);
        let safe = self.server.min_safe_zone_fan(z, u, limit);
        self.log.close();
        safe
    }
}

struct Traced {
    wall_s: f64,
    summary: Summary,
    descent_sweeps: f64,
    descent_decisions: u64,
}

/// `RackLoopSim::run`, replayed step for step with a span around every
/// layer call and the flight recorder armed.
fn run_traced(mode: Mode, seed: u64, log: &mut SpanLog) -> Traced {
    let spec = RackSpec::new((mode.topology)());
    let start_u = Utilization::new(START_U);
    let mut server = RackServer::new(spec.clone());
    let zones = server.zone_count();
    server.equilibrate(start_u, &vec![Rpm::new(START_FAN_RPM); zones]);
    let mut config = RackControlConfig::new(mode.control);
    config.recorder = Recorder::armed(RECORDER_CAPACITY);
    let mut bank = RackControlBank::new(config, &spec, server.plant(), start_u);
    let mut workload = gfsc::date14_workload(seed);

    let horizon = Seconds::new(HORIZON_S);
    let dt = spec.server.sim_dt;
    let mut clock = Clock::new(dt);
    let mut cpu_epoch = Periodic::new(spec.server.cpu_control_interval);
    let mut fan_epoch = Periodic::new(spec.server.fan_control_interval);
    let mut traces = TraceSet::new();
    let epochs = (horizon.value() / spec.server.cpu_control_interval.value()).floor() as usize + 2;
    let channels = RackChannels::resolve(&mut traces, epochs, zones, server.socket_count());
    let steps = clock.steps_for(horizon);

    let start = Instant::now();
    for _ in 0..=steps {
        let now = clock.now();
        if cpu_epoch.is_due(now) {
            let fan_due = fan_epoch.is_due(now);
            log.open(Kind::Sample);
            let demand = workload.sample(now);
            log.switch(if fan_due { Kind::EpochFan } else { Kind::EpochCpu });
            let mut view = TimedView { server: &mut server, log: &mut *log };
            bank.epoch(&mut view, now, demand, fan_due, &mut traces, &channels);
            log.switch(Kind::Step);
        } else {
            log.open(Kind::Step);
        }
        server.step(dt, bank.executed());
        log.close();
        clock.tick();
    }
    let wall_s = secs_since(start);

    let socket_epochs = bank.socket_epochs();
    let violation_percent = if socket_epochs == 0 {
        0.0
    } else {
        100.0 * bank.violations() as f64 / socket_epochs as f64
    };
    let summary = summarize(
        &traces,
        violation_percent,
        bank.violations(),
        socket_epochs,
        bank.lost_utilization(),
        server.fan_energy().value(),
        server.cpu_energy().value(),
    );
    let (mut descent_sweeps, mut descent_decisions) = (0.0, 0u64);
    if let Some(flight) = bank.recorder().flight() {
        for event in flight.iter().filter(|e| e.kind == EventKind::DescentSweeps) {
            descent_sweeps += event.value;
            descent_decisions += 1;
        }
    }
    Traced { wall_s, summary, descent_sweeps, descent_decisions }
}

/// Per-call seconds of `RackPlant::min_safe_zone_fan` and of
/// `steady_state_hottest_per_zone_into` at a run's end state: the powers
/// the sockets execute, the walls' actual speeds, the E-coord sizing
/// limit.
fn probe_inversion(server: &RackServer) -> (f64, f64) {
    let plant = server.plant();
    let cpu_power = server.spec().server.cpu_power;
    let powers: Vec<Watts> = server.executed().iter().map(|&u| cpu_power.power(u)).collect();
    let fans: Vec<Rpm> = (0..server.zone_count()).map(|z| server.zone_fan_speed(z)).collect();
    let limit = RackEnergyDescent::date14_rack().policy().fan_sizing_limit();
    let zones = fans.len();

    let start = Instant::now();
    for _ in 0..PROBE_REPS {
        for z in 0..zones {
            black_box(plant.min_safe_zone_fan(z, black_box(&powers), black_box(&fans), limit));
        }
    }
    let min_safe_s = secs_since(start) / (PROBE_REPS * zones) as f64;

    let mut out = vec![Celsius::new(0.0); zones];
    let start = Instant::now();
    for _ in 0..PROBE_REPS * zones {
        plant.steady_state_hottest_per_zone_into(black_box(&powers), black_box(&fans), &mut out);
        black_box(&out);
    }
    let probe_s = secs_since(start) / (PROBE_REPS * zones) as f64;
    (min_safe_s, probe_s)
}

/// The state shared by the untraced and traced runs of one workload.
struct Bench {
    modes: &'static [Mode],
    subseeds: Vec<u64>,
    /// First-seen summary per (mode, sub-seed): later repeats must match.
    reference: Vec<Option<Summary>>,
    checks: Checks,
}

impl Bench {
    fn new(modes: &'static [Mode], seed: u64) -> Self {
        let mut stream = SeedStream::new(seed);
        let subseeds = (0..SUBSEEDS).map(|_| stream.next_u64()).collect();
        Self {
            modes,
            subseeds,
            reference: vec![None; modes.len() * SUBSEEDS],
            checks: Checks::default(),
        }
    }

    /// One untraced run, checked against its expected shape and against
    /// every earlier run of the same configuration and seed.
    fn untraced(&mut self, m: usize, sub: usize) -> Untraced {
        let mode = self.modes[m];
        let run = run_untraced(mode, self.subseeds[sub]);
        let sockets = run.sim.server().socket_count() as u64;
        let expected_epochs = (HORIZON_S as u64 + 1) * sockets;
        self.checks.check(run.summary.socket_epochs == expected_epochs, || {
            format!(
                "{}: {} socket-epochs, expected {expected_epochs}",
                mode.metric_prefix(),
                run.summary.socket_epochs
            )
        });
        let slot = &mut self.reference[m * SUBSEEDS + sub];
        match slot {
            None => *slot = Some(run.summary),
            Some(first) => {
                let same = *first == run.summary;
                self.checks.check(same, || {
                    format!("{}: simulated statistics differ between repeats", mode.metric_prefix())
                });
            }
        }
        run
    }

    /// Fan energy (kJ) and violation percentage summed over the first
    /// sub-seed's runs of every configuration.
    fn quality(&self) -> (f64, f64) {
        let (mut fan_j, mut violations, mut epochs) = (0.0, 0u64, 0u64);
        for m in 0..self.modes.len() {
            if let Some(s) = self.reference[m * SUBSEEDS] {
                fan_j += s.fan_energy_j;
                violations += s.violations;
                epochs += s.socket_epochs;
            }
        }
        (fan_j / 1000.0, 100.0 * violations as f64 / epochs.max(1) as f64)
    }
}

/// Runs the untraced measurement window and returns the end-to-end
/// figures. Every (configuration, seed) unit repeats identical work, so
/// its host time is the fastest of its repeats: other tenants of a shared
/// host only ever slow a run down.
pub fn measure(modes: &'static [Mode], seed: u64, seconds: f64) -> (EndToEnd, Checks) {
    let mut bench = Bench::new(modes, seed);
    // Warm-up round: caches fill and lazy set-up finishes before timing.
    for m in 0..modes.len() {
        bench.untraced(m, 0);
    }
    let mut best = vec![f64::INFINITY; modes.len() * SUBSEEDS];
    let mut setups = vec![];
    let window = Instant::now();
    let mut round = 0usize;
    while round < 2 * SUBSEEDS || secs_since(window) < seconds {
        let sub = round % SUBSEEDS;
        let mut setup = 0.0;
        for m in 0..modes.len() {
            let run = bench.untraced(m, sub);
            let unit = &mut best[m * SUBSEEDS + sub];
            *unit = unit.min(run.wall_s);
            setup += run.setup_s;
        }
        setups.push(setup);
        round += 1;
    }
    let wall: f64 = best.iter().sum();
    // Host ms per control cycle of each configuration, over all its seeds.
    let cycles_ms: Vec<f64> = best
        .chunks(SUBSEEDS)
        .map(|mode| 1000.0 * mode.iter().sum::<f64>() / (SUBSEEDS as f64 * (HORIZON_S + 1.0)))
        .collect();
    let e2e = EndToEnd {
        sim_s_per_wall_s: best.len() as f64 * HORIZON_S / wall,
        cells_per_s: best.len() as f64 / wall,
        cycle_p50_ms: median(&cycles_ms),
        cycle_p99_ms: quantile(&cycles_ms, 0.99),
        setup_s: median(&setups),
    };
    (e2e, bench.checks)
}

/// Runs the traced window: each round runs every configuration untraced
/// and then traced, checks the two bit for bit, and adds the traced
/// pass's spans to the per-layer totals. The last round's spans are
/// written to `spans_path`.
pub fn measure_traced(
    modes: &'static [Mode],
    seed: u64,
    seconds: f64,
    probes: bool,
    spans_path: &Path,
) -> (Vec<Layer>, Checks) {
    let mut bench = Bench::new(modes, seed);
    for m in 0..modes.len() {
        bench.untraced(m, 0);
    }
    let mut log = SpanLog::with_capacity(1 << 16);
    let mut acc = Accumulated::default();
    let (mut untraced_wall, mut traced_wall) = (vec![0.0; modes.len()], 0.0);
    let mut overheads = vec![];
    let (mut sweeps, mut decisions) = (0.0, 0u64);
    let (mut min_safe_s, mut probe_s) = (vec![], vec![]);
    let window = Instant::now();
    let mut rounds = 0usize;
    while rounds < 1 || secs_since(window) < seconds {
        let sub = rounds % SUBSEEDS;
        log.clear();
        let (mut round_untraced, mut round_traced) = (0.0, 0.0);
        for (m, &mode) in modes.iter().enumerate() {
            let plain = bench.untraced(m, sub);
            let traced = run_traced(mode, bench.subseeds[sub], &mut log);
            bench.checks.check(traced.summary == plain.summary, || {
                format!("{}: traced replay differs from RackLoopSim::run", mode.metric_prefix())
            });
            if probes {
                let (a, b) = probe_inversion(plain.sim.server());
                min_safe_s.push(a);
                probe_s.push(b);
            }
            untraced_wall[m] += plain.wall_s;
            round_untraced += plain.wall_s;
            round_traced += traced.wall_s;
            sweeps += traced.descent_sweeps;
            decisions += traced.descent_decisions;
        }
        acc.add(&log);
        traced_wall += round_traced;
        overheads.push(round_traced / round_untraced - 1.0);
        rounds += 1;
    }
    if let Err(e) = log.write_tsv(spans_path) {
        eprintln!("perfbench: writing {}: {e}", spans_path.display());
    }

    let per_round = |kind: Kind| acc.get(kind).count as f64 / rounds as f64;
    let (fan_kj, violation_pct) = bench.quality();
    let mut layers = vec![
        Layer::new("coord.epoch_fan.us", 1e6 * acc.get(Kind::EpochFan).mean_s()),
        Layer::new("coord.epoch_fan.calls", per_round(Kind::EpochFan)),
        Layer::new("coord.epoch_cpu.us", 1e6 * acc.get(Kind::EpochCpu).mean_s()),
        Layer::new("coord.epoch_cpu.calls", per_round(Kind::EpochCpu)),
        Layer::new("rack.step.ns", 1e9 * acc.get(Kind::Step).mean_s()),
        Layer::new("rack.step.calls", per_round(Kind::Step)),
        Layer::new("rack.step.share", acc.get(Kind::Step).total_s / traced_wall),
        Layer::new("workload.sample.ns", 1e9 * acc.get(Kind::Sample).mean_s()),
        Layer::new("quality.fan_energy_kj", fan_kj),
        Layer::new("quality.violation_pct", violation_pct),
        Layer::new("trace.unattributed_frac", 1.0 - acc.top_level_s / traced_wall),
        Layer::new("trace.overhead_frac", median(&overheads)),
    ];
    // Layers only some configurations exercise are reported only when
    // exercised.
    if decisions > 0 {
        layers.push(Layer::new("coord.descent.sweeps_per_decision", sweeps / decisions as f64));
    }
    if acc.get(Kind::MinSafe).count > 0 {
        layers.push(Layer::new("coord.min_safe.us", 1e6 * acc.get(Kind::MinSafe).mean_s()));
        layers.push(Layer::new("coord.min_safe.calls", per_round(Kind::MinSafe)));
    }
    if probes {
        layers.push(Layer::new("thermal.min_safe_zone_fan.us", 1e6 * median(&min_safe_s)));
        layers.push(Layer::new("thermal.probe.us", 1e6 * median(&probe_s)));
    }
    for (m, mode) in modes.iter().enumerate() {
        layers.push(Layer::new(
            format!("{}.sim_s_per_wall_s", mode.metric_prefix()),
            HORIZON_S * rounds as f64 / untraced_wall[m],
        ));
    }
    (layers, bench.checks)
}
