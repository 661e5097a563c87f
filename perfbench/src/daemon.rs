//! The `daemon-ipmi` workload: `Daemon::run` (unpaced) over
//! `IpmiTelemetry<ProcessRunner>` on the 2U×4 rack under the rack-global
//! energy descent, with a fake `ipmitool` first on `PATH`. Every cycle
//! spawns the tool for an `sdr` poll and parses its text; fan-due cycles
//! spawn it again for each raw duty write.

use crate::common::{
    median, quantile, secs_since, Checks, EndToEnd, Fingerprint, Layer, SeedStream,
};
use crate::trace::{Accumulated, Kind, SpanLog};
use gfsc::coord::{RackControl, RackControlConfig};
use gfsc::rack::{RackSpec, RackTopology};
use gfsc::units::{Celsius, Rpm, Seconds, Utilization};
use gfsc_daemon::{
    CommandRunner, Daemon, DaemonConfig, FanActuator, IpmiAdapter, IpmiTelemetry, ProcessRunner,
    TelemetryError, TelemetrySource,
};
use std::cell::RefCell;
use std::os::unix::fs::PermissionsExt as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::rc::Rc;
use std::time::Instant;

/// Simulated seconds per daemon run: 1000 control cycles (34 of them
/// fan-due), so the 99th percentile has ten cycles beyond it.
const HORIZON_S: f64 = 999.0;
/// Distinct sdr snapshots the fake tool cycles through: one period of the
/// fake thermal pattern, two fan epochs long.
const SNAPSHOTS: usize = 60;
/// CPU temperature sensors of the 2U×4 rack (four dual-socket servers).
const SOCKETS: usize = 8;
/// The fixed rack-demand estimate the IPMI backend reports.
const DEMAND: f64 = 0.5;

const FAKE_IPMITOOL: &str = include_str!("../fake_ipmitool.sh");

/// The installed fake `ipmitool` and its snapshot set; removed on drop.
struct FakeIpmi {
    dir: PathBuf,
}

impl FakeIpmi {
    fn install(root: &Path, seed: u64) -> Result<Self, String> {
        let dir = root.join(format!("ipmi-{}", std::process::id()));
        let fake = Self { dir };
        let io = |e: std::io::Error| format!("{}: {e}", fake.dir.display());
        std::fs::create_dir_all(&fake.dir).map_err(io)?;
        let tool = fake.dir.join("ipmitool");
        std::fs::write(&tool, FAKE_IPMITOOL).map_err(io)?;
        std::fs::set_permissions(&tool, std::fs::Permissions::from_mode(0o755)).map_err(io)?;
        std::fs::write(fake.dir.join("count"), format!("{SNAPSHOTS}\n")).map_err(io)?;
        for (k, text) in snapshots(seed).iter().enumerate() {
            std::fs::write(fake.dir.join(format!("snap{k}.txt")), text).map_err(io)?;
        }
        let path = std::env::var_os("PATH").unwrap_or_default();
        let joined = std::env::join_paths(
            std::iter::once(fake.dir.clone()).chain(std::env::split_paths(&path)),
        )
        .map_err(|e| format!("PATH: {e}"))?;
        // Single-threaded here: nothing reads the environment concurrently.
        std::env::set_var("PATH", joined);
        Ok(fake)
    }

    /// Rewinds the snapshot sequence and empties the raw-write log.
    fn reset(&self) -> Result<(), String> {
        let io = |e: std::io::Error| format!("{}: {e}", self.dir.display());
        std::fs::write(self.dir.join("counter"), "0\n").map_err(io)?;
        std::fs::write(self.dir.join("raw.log"), "").map_err(io)
    }

    fn raw_log(&self) -> Result<String, String> {
        let path = self.dir.join("raw.log");
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    }
}

impl Drop for FakeIpmi {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The process pinned to the first CPU it may run on, with `taskset`, so
/// the daemon and every `ipmitool` it spawns share one CPU and a cycle
/// never waits on a cross-CPU wakeup, whose cost moves with the shared
/// host's load. The previous affinity is restored on drop.
struct CpuPin {
    pid: String,
    previous: String,
}

impl CpuPin {
    fn first_cpu() -> Option<Self> {
        let pid = std::process::id().to_string();
        let query = Command::new("taskset").args(["-cp", &pid]).output().ok()?;
        let text = String::from_utf8(query.stdout).ok()?;
        let previous = text.rsplit(": ").next()?.trim().to_owned();
        let first: String = previous.chars().take_while(char::is_ascii_digit).collect();
        let pinned = Command::new("taskset")
            .args(["-cp", &first, &pid])
            .stdout(Stdio::null())
            .status()
            .ok()?
            .success();
        pinned.then_some(Self { pid, previous })
    }

    fn pin() -> Option<Self> {
        let pin = Self::first_cpu();
        if pin.is_none() {
            eprintln!("perfbench: taskset failed; the daemon workload runs unpinned");
        }
        pin
    }
}

impl Drop for CpuPin {
    fn drop(&mut self) {
        let _ = Command::new("taskset")
            .args(["-cp", &self.previous, &self.pid])
            .stdout(Stdio::null())
            .status();
    }
}

/// `ipmitool sdr type temperature` listings generated from `seed`.
///
/// The CPU sensors follow one pattern per 60-cycle period, phased to the
/// 30-cycle fan epoch: a hot spell (81–84 °C, above the E-coord emergency
/// limit) cuts the zone caps from 100 % to 30–40 %, a 79 °C hold keeps
/// them there through the next fan epoch, and a cool spell (70–76 °C,
/// below the recovery threshold) restores them to 100 % before the epoch
/// after. Executing power therefore alternates between fan epochs, every
/// fan-due cycle rewrites both walls, and no other cycle writes — so the
/// cycle-time tail has the same shape for every seed. The seed draws the
/// spell lengths and every hot and cool reading. Inlet, exhaust and an
/// unreadable DIMM sensor ride along.
fn snapshots(seed: u64) -> Vec<String> {
    let mut rng = SeedStream::new(seed ^ 0x1A5E_D0C5_F00D_CAFE);
    // Cuts are 10 %/cycle and raises 3 %/cycle: 6–7 hot cycles leave the
    // cap at 30–40 % (below the 50 % demand, above the 10 % floor), and
    // 24–28 cool cycles bring it back to 100 %.
    let hot_len = 6 + (rng.next_u64() % 2) as usize;
    let cool_len = 24 + (rng.next_u64() % 5) as usize;
    (0..SNAPSHOTS)
        .map(|j| {
            // Snapshot 0 answers the discovery listing, so snapshot `j`
            // is read by daemon cycle `j - 1`.
            let phase = (j + SNAPSHOTS - 1) % SNAPSHOTS;
            let spell = |lo: f64, span: f64, rng: &mut SeedStream| lo + span * rng.next_f64();
            let mut text = String::new();
            let inlet = spell(24.0, 2.0, &mut rng);
            text.push_str(&format!("Inlet Temp       | 04h | ok  |  7.1 | {inlet:.0} degrees C\n"));
            for i in 0..SOCKETS {
                let t = if (1..=hot_len).contains(&phase) {
                    spell(81.0, 3.0, &mut rng)
                } else if (31..=30 + cool_len).contains(&phase) {
                    spell(70.0, 6.0, &mut rng)
                } else {
                    79.0
                };
                let name = format!("CPU{i} Temp");
                text.push_str(&format!(
                    "{name:<16} | {:02X}h | ok  |  3.{} | {} degrees C\n",
                    0x0E + i,
                    i + 1,
                    t.round()
                ));
            }
            let exhaust = spell(40.0, 4.0, &mut rng);
            text.push_str(&format!(
                "Exhaust Temp     | 01h | ok  |  7.1 | {exhaust:.0} degrees C\n"
            ));
            text.push_str("DIMMG0 Temp      | 20h | ns  |  8.1 | No Reading\n");
            text
        })
        .collect()
}

/// `ProcessRunner` with the start of every `sdr` poll (the first thing a
/// daemon cycle does) timestamped, and in the traced run a span around
/// every spawn.
struct BenchRunner {
    poll_starts: Rc<RefCell<Vec<Instant>>>,
    log: Option<Rc<RefCell<SpanLog>>>,
}

impl CommandRunner for BenchRunner {
    fn run(&mut self, cmd: &str, args: &[String]) -> Result<String, TelemetryError> {
        if args.first().is_some_and(|a| a == "sdr") {
            self.poll_starts.borrow_mut().push(Instant::now());
        }
        if let Some(log) = &self.log {
            log.borrow_mut().open(Kind::Spawn);
        }
        let out = ProcessRunner.run(cmd, args);
        if let Some(log) = &self.log {
            log.borrow_mut().close();
        }
        out
    }
}

/// The IPMI backend with a span around every `TelemetrySource` /
/// `FanActuator` call. A temperature poll starts a new cycle span.
struct TimedBackend<B> {
    inner: B,
    log: Rc<RefCell<SpanLog>>,
}

impl<B> TimedBackend<B> {
    fn timed<R>(&mut self, kind: Kind, f: impl FnOnce(&mut B) -> R) -> R {
        self.log.borrow_mut().open(kind);
        let out = f(&mut self.inner);
        self.log.borrow_mut().close();
        out
    }
}

impl<B: TelemetrySource> TelemetrySource for TimedBackend<B> {
    fn socket_count(&self) -> usize {
        self.inner.socket_count()
    }
    fn zone_count(&self) -> usize {
        self.inner.zone_count()
    }
    fn poll_temperatures(&mut self, out: &mut [Option<Celsius>]) -> Result<(), TelemetryError> {
        {
            let mut log = self.log.borrow_mut();
            if log.innermost_is(Kind::Cycle) {
                log.close();
            }
            log.open(Kind::Cycle);
        }
        self.timed(Kind::PollTemps, |b| b.poll_temperatures(out))
    }
    fn poll_fan_speeds(&mut self, out: &mut [Rpm]) -> Result<(), TelemetryError> {
        self.timed(Kind::PollOther, |b| b.poll_fan_speeds(out))
    }
    fn poll_demand(&mut self) -> Result<Utilization, TelemetryError> {
        self.timed(Kind::PollOther, |b| b.poll_demand())
    }
    fn advance(&mut self, dt: Seconds) {
        self.inner.advance(dt);
    }
}

impl<B: FanActuator> FanActuator for TimedBackend<B> {
    fn write_fan_target(&mut self, z: usize, target: Rpm) -> Result<Rpm, TelemetryError> {
        self.timed(Kind::WriteFan, |b| b.write_fan_target(z, target))
    }
    fn write_caps(&mut self, caps: &[Utilization]) -> Result<(), TelemetryError> {
        self.timed(Kind::WriteCaps, |b| b.write_caps(caps))
    }
    fn migrate_load(&mut self, from: usize, to: usize, amount: f64) -> Result<(), TelemetryError> {
        self.inner.migrate_load(from, to, amount)
    }
    fn enter_firmware_fallback(&mut self) -> Result<(), TelemetryError> {
        self.inner.enter_firmware_fallback()
    }
    fn resume_manual_control(&mut self) -> Result<(), TelemetryError> {
        self.inner.resume_manual_control()
    }
}

struct Session {
    setup_s: f64,
    wall_s: f64,
    cycle_ms: Vec<f64>,
    fingerprint: u64,
    fan_energy_j: f64,
    violations: u64,
    socket_epochs: u64,
}

/// One daemon run: discover the sensors and build the daemon (set-up),
/// run it, then check the raw-write log against the daemon's metrics.
fn session<B: TelemetrySource + FanActuator>(
    fake: &FakeIpmi,
    log: Option<&Rc<RefCell<SpanLog>>>,
    wrap: impl FnOnce(IpmiTelemetry<BenchRunner>) -> B,
    checks: &mut Checks,
) -> Result<Session, String> {
    fake.reset()?;
    let spec = RackSpec::new(RackTopology::rack_2u_x4());
    let zones = spec.rack.zones().len();
    let bounds = spec.server.fan_bounds;
    let poll_starts = Rc::new(RefCell::new(Vec::with_capacity(HORIZON_S as usize + 2)));
    let runner = BenchRunner { poll_starts: Rc::clone(&poll_starts), log: log.cloned() };

    let start = Instant::now();
    let adapter = IpmiAdapter::discover(runner, zones, bounds).map_err(|e| e.to_string())?;
    let expected: Vec<String> = (0..SOCKETS).map(|i| format!("CPU{i} Temp")).collect();
    checks.check(adapter.sensor_names() == expected.as_slice(), || {
        format!("discovered sensors {:?}", adapter.sensor_names())
    });
    let mut cfg = DaemonConfig::new(RackControlConfig::new(RackControl::GlobalECoord));
    // Skip writes that would round to the duty already acknowledged (half
    // of one duty-percent step), so only real changes reach the BMC.
    cfg.deadzone_rpm = 0.5 * (bounds.hi().value() - bounds.lo().value()) / 100.0;
    let backend = wrap(IpmiTelemetry::new(adapter, Utilization::new(DEMAND), cfg.start_fan));
    let mut daemon = Daemon::new(backend, spec.clone(), cfg);
    let setup_s = secs_since(start);

    poll_starts.borrow_mut().clear();
    if let Some(log) = log {
        log.borrow_mut().clear();
    }
    let start = Instant::now();
    let out = daemon.run(Seconds::new(HORIZON_S));
    let end = Instant::now();
    if let Some(log) = log {
        let mut log = log.borrow_mut();
        if log.innermost_is(Kind::Cycle) {
            log.close();
        }
    }
    let wall_s = end.duration_since(start).as_secs_f64();

    let starts = poll_starts.borrow();
    let cycle_ms: Vec<f64> = starts
        .iter()
        .zip(starts.iter().skip(1).copied().chain(std::iter::once(end)))
        .map(|(a, b)| 1000.0 * b.duration_since(*a).as_secs_f64())
        .collect();

    let m = &out.metrics;
    let cycles = HORIZON_S as u64 + 1;
    checks.check(m.loop_cycles == cycles && cycle_ms.len() as u64 == cycles, || {
        format!("{} cycles, {} polls, expected {cycles}", m.loop_cycles, cycle_ms.len())
    });
    checks.check(
        m.fallback_entries == 0
            && m.read_failures == 0
            && m.write_failures == 0
            && m.controller_panics == 0,
        || {
            format!(
                "fallbacks {} read failures {} write failures {} panics {}",
                m.fallback_entries, m.read_failures, m.write_failures, m.controller_panics
            )
        },
    );

    // The raw log must hold exactly the duty writes the metrics count,
    // ending on the duty each wall last acknowledged.
    let raw = fake.raw_log()?;
    let mut writes = vec![0u64; zones];
    let mut last_percent = vec![None; zones];
    let mut foreign = 0usize;
    for line in raw.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let parsed = match fields.as_slice() {
            ["0x30", "0x30", "0x02", zone, percent] => {
                let hex = |s: &str| u8::from_str_radix(s.trim_start_matches("0x"), 16).ok();
                hex(zone).zip(hex(percent)).filter(|&(z, _)| usize::from(z) < zones)
            }
            _ => None,
        };
        match parsed {
            Some((z, percent)) => {
                writes[usize::from(z)] += 1;
                last_percent[usize::from(z)] = Some(percent);
            }
            None => foreign += 1,
        }
    }
    checks.check(foreign == 0, || format!("{foreign} raw commands other than duty writes"));
    let (lo, hi) = (bounds.lo().value(), bounds.hi().value());
    for (z, wall) in m.zones.iter().enumerate() {
        let acked = last_percent[z].map(|p| lo + f64::from(p) / 100.0 * (hi - lo));
        let consistent = writes[z] == wall.writes
            && acked.is_none_or(|rpm| rpm.to_bits() == wall.acked_rpm.to_bits());
        checks.check(consistent, || {
            format!(
                "zone {z}: raw log has {} writes (last {:?} rpm), metrics {} writes ({} rpm acked)",
                writes[z], acked, wall.writes, wall.acked_rpm
            )
        });
    }
    checks.check(writes.iter().sum::<u64>() > 0, || "the run wrote no fan duty".into());

    let mut fp = Fingerprint::new();
    fp.traces(&out.traces);
    for &w in &writes {
        fp.word(w);
    }
    fp.word(out.total_violations);
    fp.word(out.total_epochs);
    let cpu_interval = spec.server.cpu_control_interval.value();
    let mut fan_energy_j = 0.0;
    for (z, zone) in spec.rack.zones().iter().enumerate() {
        if let Some(trace) = out.traces.get(&format!("z{z}_fan_rpm")) {
            for &rpm in trace.values() {
                let watts = spec.server.fan_power.power(Rpm::new(rpm)).value();
                fan_energy_j += watts * zone.fans as f64 * cpu_interval;
            }
        }
    }
    Ok(Session {
        setup_s,
        wall_s,
        cycle_ms,
        fingerprint: fp.finish(),
        fan_energy_j,
        violations: out.total_violations,
        socket_epochs: out.total_epochs,
    })
}

/// Checks that a run repeats the first run of this benchmark seed.
fn check_repeat(first: &Session, run: &Session, checks: &mut Checks) {
    checks.check(first.fingerprint == run.fingerprint, || {
        "daemon traces or writes differ between repeats".into()
    });
}

fn untraced(fake: &FakeIpmi, checks: &mut Checks) -> Result<Session, String> {
    session(fake, None, |backend| backend, checks)
}

/// Runs the untraced window. Every daemon run replays the same snapshot
/// sequence, so cycle `k` does identical work in every run: its host time
/// is the fastest of its repeats (other tenants of a shared host only ever
/// slow a cycle down), the percentiles range over cycles, and a run's
/// host time is the sum of its cycles.
pub fn measure(root: &Path, seed: u64, seconds: f64) -> Result<(EndToEnd, Checks), String> {
    let fake = FakeIpmi::install(root, seed)?;
    let _pin = CpuPin::pin();
    let mut checks = Checks::default();
    let first = untraced(&fake, &mut checks)?;
    let mut best_cycle = vec![f64::INFINITY; first.cycle_ms.len()];
    let mut setups = vec![];
    let window = Instant::now();
    while setups.len() < 3 || secs_since(window) < seconds {
        let run = untraced(&fake, &mut checks)?;
        check_repeat(&first, &run, &mut checks);
        for (best, &ms) in best_cycle.iter_mut().zip(&run.cycle_ms) {
            *best = best.min(ms);
        }
        setups.push(run.setup_s);
    }
    let best_wall_s = best_cycle.iter().sum::<f64>() / 1000.0;
    let e2e = EndToEnd {
        sim_s_per_wall_s: HORIZON_S / best_wall_s,
        cells_per_s: 1.0 / best_wall_s,
        cycle_p50_ms: median(&best_cycle),
        cycle_p99_ms: quantile(&best_cycle, 0.99),
        setup_s: median(&setups),
    };
    Ok((e2e, checks))
}

pub fn measure_traced(
    root: &Path,
    seed: u64,
    seconds: f64,
    spans_path: &Path,
) -> Result<(Vec<Layer>, Checks), String> {
    let fake = FakeIpmi::install(root, seed)?;
    let _pin = CpuPin::pin();
    let mut checks = Checks::default();
    let first = untraced(&fake, &mut checks)?;
    let log = Rc::new(RefCell::new(SpanLog::with_capacity(1 << 12)));
    let mut acc = Accumulated::default();
    let (mut traced_wall, mut overheads) = (0.0, vec![]);
    let window = Instant::now();
    while overheads.is_empty() || secs_since(window) < seconds {
        let plain = untraced(&fake, &mut checks)?;
        let wrap = |inner| TimedBackend { inner, log: Rc::clone(&log) };
        let traced = session(&fake, Some(&log), wrap, &mut checks)?;
        check_repeat(&first, &plain, &mut checks);
        check_repeat(&first, &traced, &mut checks);
        acc.add(&log.borrow());
        traced_wall += traced.wall_s;
        overheads.push(traced.wall_s / plain.wall_s - 1.0);
    }
    if let Err(e) = log.borrow().write_tsv(spans_path) {
        eprintln!("perfbench: writing {}: {e}", spans_path.display());
    }
    let cycles = acc.get(Kind::Cycle).count.max(1) as f64;
    let layers = vec![
        Layer::new("daemon.spawn.ms", 1e3 * acc.get(Kind::Spawn).mean_s()),
        Layer::new("daemon.spawns_per_cycle", acc.get(Kind::Spawn).count as f64 / cycles),
        Layer::new("daemon.parse.us", 1e6 * acc.get(Kind::PollTemps).mean_self_s()),
        Layer::new("daemon.write_fan.ms", 1e3 * acc.get(Kind::WriteFan).mean_s()),
        Layer::new("daemon.writes_per_cycle", acc.get(Kind::WriteFan).count as f64 / cycles),
        Layer::new("daemon.decide.us", 1e6 * acc.get(Kind::Cycle).mean_self_s()),
        Layer::new("quality.fan_energy_kj", first.fan_energy_j / 1000.0),
        Layer::new(
            "quality.violation_pct",
            100.0 * first.violations as f64 / first.socket_epochs.max(1) as f64,
        ),
        Layer::new("trace.unattributed_frac", 1.0 - acc.top_level_s / traced_wall),
        Layer::new("trace.overhead_frac", median(&overheads)),
    ];
    Ok((layers, checks))
}
