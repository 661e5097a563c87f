//! `gfsc-daemond` configuration, read through the TOML-subset reader
//! (`gfsc_obs::toml_subset`) `lint.toml` shares.
//!
//! The supported subset: `[section]` headers; `key = "string"`,
//! `key = 123`, `key = 1.5`; `key = ["a", "b"]` string arrays (which
//! may span lines); `#` comments outside quotes. Unknown sections or
//! keys are errors — a typo'd budget silently falling back to a
//! default is exactly the config failure a watchdog daemon cannot
//! afford.
//!
//! See the README's "Running as a daemon" section for the full schema;
//! `tests/fixtures/daemond_sim.toml` is the parity exemplar.

use crate::enforce::{CapEnforcer, NullEnforcer, RaplEnforcer};
use crate::{
    Daemon, DaemonConfig, FaultPlan, IpmiAdapter, IpmiTelemetry, MetricsEndpoint, PacingConfig,
    ProcessRunner, SimTelemetry,
};
use gfsc_coord::{RackControl, RackControlConfig};
use gfsc_obs::toml_subset::{self, parse_string, parse_string_array};
use gfsc_obs::Recorder;
use gfsc_rack::{RackSpec, RackTopology};
use gfsc_units::{Bounds, Rpm, Seconds, Utilization, Watts};
use gfsc_workload::{SquareWave, Workload};

/// Which backend the daemon drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The simulated rack plant (`SimTelemetry`) — HIL drills, parity
    /// checks, and dry runs.
    #[default]
    Sim,
    /// A real BMC through `ipmitool` (`IpmiTelemetry`).
    Ipmi,
}

/// The `[workload]` block (sim backend only).
#[derive(Debug, Clone, Default)]
pub struct WorkloadSpec {
    /// `preset = "rack-golden"` (the parity/evaluation workload:
    /// DATE'14 square wave + pinned-seed noise and spikes) or
    /// `"date14"` (the bare square wave).
    pub preset: Option<String>,
    /// Custom square wave low level (with `square_high` /
    /// `square_period_s` / `square_duty`; mutually exclusive with
    /// `preset`).
    pub square_low: Option<f64>,
    /// Custom square wave high level.
    pub square_high: Option<f64>,
    /// Custom square wave period.
    pub square_period: Option<Seconds>,
    /// Custom square wave duty fraction.
    pub square_duty: Option<f64>,
    /// Gaussian noise sigma (with `noise_seed`).
    pub noise_sigma: Option<f64>,
    /// Gaussian noise seed.
    pub noise_seed: Option<u64>,
    /// Spike arrival rate (with the other three `spike_*` keys).
    pub spike_rate_hz: Option<f64>,
    /// Spike duration.
    pub spike_len: Option<Seconds>,
    /// Spike amplitude.
    pub spike_amplitude: Option<f64>,
    /// Spike seed.
    pub spike_seed: Option<u64>,
}

/// The `[ipmi]` block (ipmi backend only).
#[derive(Debug, Clone)]
pub struct IpmiSpec {
    /// Socket→sensor-name map; empty means auto-discover from the sdr
    /// listing ([`IpmiAdapter::discover`]). A name listed k times maps k
    /// sockets to the first k sdr rows of that name, in listing order
    /// (Dell iDRACs name every CPU sensor `Temp`).
    pub sensors: Vec<String>,
    /// Fan-wall count (must match the topology's zone count).
    pub zones: usize,
    /// Mechanical fan floor.
    pub fan_min: Rpm,
    /// Mechanical fan ceiling.
    pub fan_max: Rpm,
    /// The fixed rack-demand estimate the thermal loop runs with.
    pub demand: f64,
}

impl Default for IpmiSpec {
    fn default() -> Self {
        Self {
            sensors: Vec::new(),
            zones: 0,
            fan_min: Rpm::new(1000.0),
            fan_max: Rpm::new(9000.0),
            demand: 0.5,
        }
    }
}

/// The `[caps]` block (ipmi backend only): cap enforcement.
#[derive(Debug, Clone)]
pub struct CapsSpec {
    /// `"null"` (accept-without-enforcing) or `"rapl"`.
    pub enforcer: String,
    /// Root of the powercap sysfs tree (RAPL enforcer).
    pub rapl_root: String,
    /// Power at cap 0 (RAPL enforcer).
    pub min_power: Watts,
    /// Power at cap 1 (RAPL enforcer).
    pub max_power: Watts,
}

impl Default for CapsSpec {
    fn default() -> Self {
        Self {
            enforcer: "null".into(),
            rapl_root: RaplEnforcer::POWERCAP_ROOT.into(),
            min_power: Watts::new(40.0),
            max_power: Watts::new(120.0),
        }
    }
}

/// Everything a `gfsc-daemond` run is parameterized by — the parsed
/// config file.
#[derive(Debug, Clone)]
pub struct DaemondSpec {
    /// Control mode ([`RackControl::from_label`] of `[daemon] control`).
    pub control: RackControl,
    /// Topology preset label (`rack-2u-x4`, `rack-1u-x8`,
    /// `choked-rear-x4`, `shared-plenum:<n>`, `front-rear:<n>`).
    pub topology: String,
    /// Simulated horizon of one run.
    pub horizon: Seconds,
    /// Watchdog staleness budget.
    pub stale_after: Seconds,
    /// Watchdog freeze budget (`None` = freeze detection off).
    pub freeze_after: Option<Seconds>,
    /// Fan-write deadzone, rpm.
    pub deadzone_rpm: f64,
    /// Watchdog retry budget.
    pub max_retries: u32,
    /// Clean-telemetry window required to leave fallback.
    pub recovery_window: Seconds,
    /// Flight-recorder ring capacity (0 = disarmed).
    pub recorder_capacity: usize,
    /// TCP metrics endpoint address (`None` = not served).
    pub metrics_addr: Option<String>,
    /// The `[pacing]` block.
    pub pacing: PacingConfig,
    /// The `[backend]` block.
    pub backend: BackendKind,
    /// The `[workload]` block.
    pub workload: WorkloadSpec,
    /// The `[ipmi]` block.
    pub ipmi: IpmiSpec,
    /// The `[caps]` block.
    pub caps: CapsSpec,
}

impl Default for DaemondSpec {
    /// The library `DaemonConfig::new` defaults on the 2U×4 preset with
    /// the golden workload, real-time pacing, recorder armed.
    fn default() -> Self {
        Self {
            control: RackControl::Coordinated { adaptive_reference: true },
            topology: "rack-2u-x4".into(),
            horizon: Seconds::new(600.0),
            stale_after: Seconds::new(3.0),
            freeze_after: None,
            deadzone_rpm: 0.0,
            max_retries: 3,
            recovery_window: Seconds::new(10.0),
            recorder_capacity: 4096,
            metrics_addr: None,
            pacing: PacingConfig::default(),
            backend: BackendKind::Sim,
            workload: WorkloadSpec::default(),
            ipmi: IpmiSpec::default(),
            caps: CapsSpec::default(),
        }
    }
}

impl DaemondSpec {
    /// Reads and parses a config file.
    ///
    /// # Errors
    ///
    /// I/O failures and every [`Self::parse`] error, prefixed with the
    /// path.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses config text; unknown sections/keys and malformed values
    /// are line-numbered errors.
    ///
    /// # Errors
    ///
    /// The first construct outside the supported subset or schema.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut spec = Self::default();
        toml_subset::read(
            text,
            |section| match section {
                "daemon" | "pacing" | "backend" | "workload" | "ipmi" | "caps" => Ok(()),
                other => Err(format!("unknown section `[{other}]`")),
            },
            |section, key, value| apply_key(&mut spec, section, key, value),
        )
        .map_err(|e| e.to_string())?;
        Ok(spec)
    }

    /// The rack spec the topology label names.
    ///
    /// # Errors
    ///
    /// Unknown preset labels.
    pub fn rack_spec(&self) -> Result<RackSpec, String> {
        let topology = match self.topology.as_str() {
            "rack-2u-x4" => RackTopology::rack_2u_x4(),
            "rack-1u-x8" => RackTopology::rack_1u_x8(),
            "choked-rear-x4" => RackTopology::choked_rear_x4(),
            other => {
                let parse_n = |rest: &str| {
                    rest.parse::<usize>()
                        .map_err(|_| format!("bad server count in topology `{other}`"))
                };
                if let Some(rest) = other.strip_prefix("shared-plenum:") {
                    RackTopology::shared_plenum(parse_n(rest)?)
                } else if let Some(rest) = other.strip_prefix("front-rear:") {
                    RackTopology::front_rear(parse_n(rest)?)
                } else {
                    return Err(format!("unknown topology `{other}`"));
                }
            }
        };
        Ok(RackSpec::new(topology))
    }

    /// The library-level daemon configuration this spec describes
    /// (control mode, watchdog budgets, recorder arming).
    #[must_use]
    pub fn daemon_config(&self) -> DaemonConfig {
        let mut control = RackControlConfig::new(self.control);
        if self.recorder_capacity > 0 {
            control.recorder = Recorder::armed(self.recorder_capacity);
        }
        let mut cfg = DaemonConfig::new(control);
        cfg.stale_after = self.stale_after;
        cfg.freeze_after = self.freeze_after;
        cfg.deadzone_rpm = self.deadzone_rpm;
        cfg.max_retries = self.max_retries;
        cfg.recovery_window = self.recovery_window;
        cfg
    }

    /// Builds the `[workload]` block into a demand signal.
    ///
    /// # Errors
    ///
    /// Contradictory or incomplete key combinations.
    pub fn build_workload(&self) -> Result<Workload, String> {
        let w = &self.workload;
        let noise_keys = [w.noise_sigma.is_some(), w.noise_seed.is_some()];
        let spike_keys = [
            w.spike_rate_hz.is_some(),
            w.spike_len.is_some(),
            w.spike_amplitude.is_some(),
            w.spike_seed.is_some(),
        ];
        let square_keys = [
            w.square_low.is_some(),
            w.square_high.is_some(),
            w.square_period.is_some(),
            w.square_duty.is_some(),
        ];
        if w.preset.as_deref() == Some("rack-golden") {
            if noise_keys.contains(&true)
                || spike_keys.contains(&true)
                || square_keys.contains(&true)
            {
                return Err("preset \"rack-golden\" is self-contained; drop the other \
                            [workload] keys"
                    .into());
            }
            // The rack_golden evaluation workload — exactly the chain
            // the parity tests pin, so a config-driven run can be
            // compared bit-for-bit against the library loop.
            return Ok(Workload::builder(SquareWave::date14())
                .gaussian_noise(0.04, 42)
                .spikes(1.0 / 240.0, Seconds::new(30.0), 0.8, 43)
                .build());
        }
        let base = match w.preset.as_deref() {
            Some("date14") => {
                if square_keys.contains(&true) {
                    return Err("preset \"date14\" and square_* keys are mutually exclusive".into());
                }
                SquareWave::date14()
            }
            Some(other) => return Err(format!("unknown workload preset `{other}`")),
            None => {
                if square_keys.contains(&false) {
                    return Err("a custom workload needs all four square_* keys \
                                (or a preset)"
                        .into());
                }
                SquareWave::new(
                    w.square_low.unwrap_or_default(),
                    w.square_high.unwrap_or_default(),
                    w.square_period.unwrap_or(Seconds::new(1.0)),
                    w.square_duty.unwrap_or_default(),
                )
            }
        };
        let mut builder = Workload::builder(base);
        match (w.noise_sigma, w.noise_seed) {
            (Some(sigma), Some(seed)) => builder = builder.gaussian_noise(sigma, seed),
            (None, None) => {}
            _ => return Err("noise_sigma and noise_seed must be set together".into()),
        }
        match (w.spike_rate_hz, w.spike_len, w.spike_amplitude, w.spike_seed) {
            (Some(rate), Some(len), Some(amplitude), Some(seed)) => {
                builder = builder.spikes(rate, len, amplitude, seed);
            }
            (None, None, None, None) => {}
            _ => return Err("the four spike_* keys must be set together".into()),
        }
        Ok(builder.build())
    }

    /// Assembles a fresh daemon over the simulated backend (fault-free
    /// plant, metrics endpoint attached when configured).
    ///
    /// # Errors
    ///
    /// Topology/workload build errors and endpoint bind failures.
    pub fn build_sim_daemon(&self) -> Result<Daemon<SimTelemetry>, String> {
        if self.backend != BackendKind::Sim {
            return Err("config selects the ipmi backend; use build_ipmi_daemon".into());
        }
        let spec = self.rack_spec()?;
        let cfg = self.daemon_config();
        let backend = SimTelemetry::new(
            spec.clone(),
            self.build_workload()?,
            cfg.start_utilization,
            cfg.start_fan,
            FaultPlan::none(),
        );
        let mut daemon = Daemon::new(backend, spec, cfg);
        self.attach_endpoint(&mut daemon)?;
        Ok(daemon)
    }

    /// Assembles a fresh daemon over a real BMC through `ipmitool`.
    ///
    /// # Errors
    ///
    /// Topology errors, `[ipmi]`/`[caps]` validation failures, sensor
    /// discovery failures, endpoint bind failures.
    pub fn build_ipmi_daemon(&self) -> Result<Daemon<IpmiTelemetry<ProcessRunner>>, String> {
        if self.backend != BackendKind::Ipmi {
            return Err("config selects the sim backend; use build_sim_daemon".into());
        }
        let spec = self.rack_spec()?;
        let sockets = spec.rack.total_sockets();
        let zones = spec.rack.zones().len();
        if self.ipmi.zones != zones {
            return Err(format!(
                "[ipmi] zones = {} but topology `{}` has {zones} fan walls",
                self.ipmi.zones, self.topology
            ));
        }
        if !self.ipmi.sensors.is_empty() && self.ipmi.sensors.len() != sockets {
            return Err(format!(
                "[ipmi] maps {} sensors but topology `{}` has {sockets} sockets",
                self.ipmi.sensors.len(),
                self.topology
            ));
        }
        if self.ipmi.fan_min.value() >= self.ipmi.fan_max.value() {
            return Err("[ipmi] fan_min_rpm must be below fan_max_rpm".into());
        }
        let bounds = Bounds::new(self.ipmi.fan_min, self.ipmi.fan_max);
        let enforcer: Box<dyn CapEnforcer> = match self.caps.enforcer.as_str() {
            "null" => Box::new(NullEnforcer),
            "rapl" => {
                if self.caps.min_power.value() >= self.caps.max_power.value() {
                    return Err("[caps] min_power_w must be below max_power_w".into());
                }
                Box::new(RaplEnforcer::new(
                    self.caps.rapl_root.clone(),
                    self.caps.min_power,
                    self.caps.max_power,
                ))
            }
            other => return Err(format!("unknown cap enforcer `{other}`")),
        };
        let adapter = if self.ipmi.sensors.is_empty() {
            IpmiAdapter::discover(ProcessRunner, zones, bounds).map_err(|e| e.to_string())?
        } else {
            IpmiAdapter::new(ProcessRunner, self.ipmi.sensors.clone(), zones, bounds)
        }
        .with_cap_enforcer(enforcer);
        let demand =
            Utilization::try_new(self.ipmi.demand).map_err(|e| format!("[ipmi] demand: {e}"))?;
        let cfg = self.daemon_config();
        let backend = IpmiTelemetry::new(adapter, demand, cfg.start_fan);
        let mut daemon = Daemon::new(backend, spec, cfg);
        self.attach_endpoint(&mut daemon)?;
        Ok(daemon)
    }

    fn attach_endpoint<B>(&self, daemon: &mut Daemon<B>) -> Result<(), String>
    where
        B: crate::TelemetrySource + crate::FanActuator,
    {
        if let Some(addr) = &self.metrics_addr {
            let endpoint =
                MetricsEndpoint::bind(addr).map_err(|e| format!("metrics bind {addr}: {e}"))?;
            daemon.serve_metrics(endpoint);
        }
        Ok(())
    }
}

fn apply_key(spec: &mut DaemondSpec, section: &str, key: &str, value: &str) -> Result<(), String> {
    match section {
        "daemon" => match key {
            "control" => spec.control = RackControl::from_label(&parse_string(value)?)?,
            "topology" => spec.topology = parse_string(value)?,
            "horizon_s" => spec.horizon = Seconds::new(parse_f64(value)?),
            "stale_after_s" => spec.stale_after = Seconds::new(parse_f64(value)?),
            "freeze_after_s" => spec.freeze_after = Some(Seconds::new(parse_f64(value)?)),
            "deadzone_rpm" => spec.deadzone_rpm = parse_f64(value)?,
            "max_retries" => spec.max_retries = parse_int(value)?,
            "recovery_window_s" => spec.recovery_window = Seconds::new(parse_f64(value)?),
            "recorder_capacity" => spec.recorder_capacity = parse_int(value)?,
            "metrics_addr" => spec.metrics_addr = Some(parse_string(value)?),
            other => return Err(format!("unknown key `{other}` in [daemon]")),
        },
        "pacing" => match key {
            "time_scale" => spec.pacing.time_scale = parse_f64(value)?,
            "miss_tolerance_s" => spec.pacing.miss_tolerance = Seconds::new(parse_f64(value)?),
            "max_overrun_streak" => spec.pacing.max_overrun_streak = parse_int(value)?,
            other => return Err(format!("unknown key `{other}` in [pacing]")),
        },
        "backend" => match key {
            "kind" => {
                spec.backend = match parse_string(value)?.as_str() {
                    "sim" => BackendKind::Sim,
                    "ipmi" => BackendKind::Ipmi,
                    other => return Err(format!("unknown backend kind `{other}`")),
                }
            }
            other => return Err(format!("unknown key `{other}` in [backend]")),
        },
        "workload" => match key {
            "preset" => spec.workload.preset = Some(parse_string(value)?),
            "square_low" => spec.workload.square_low = Some(parse_f64(value)?),
            "square_high" => spec.workload.square_high = Some(parse_f64(value)?),
            "square_period_s" => {
                spec.workload.square_period = Some(Seconds::new(parse_f64(value)?));
            }
            "square_duty" => spec.workload.square_duty = Some(parse_f64(value)?),
            "noise_sigma" => spec.workload.noise_sigma = Some(parse_f64(value)?),
            "noise_seed" => spec.workload.noise_seed = Some(parse_int(value)?),
            "spike_rate_hz" => spec.workload.spike_rate_hz = Some(parse_f64(value)?),
            "spike_len_s" => spec.workload.spike_len = Some(Seconds::new(parse_f64(value)?)),
            "spike_amplitude" => spec.workload.spike_amplitude = Some(parse_f64(value)?),
            "spike_seed" => spec.workload.spike_seed = Some(parse_int(value)?),
            other => return Err(format!("unknown key `{other}` in [workload]")),
        },
        "ipmi" => match key {
            "sensors" => spec.ipmi.sensors = parse_string_array(value)?,
            "zones" => spec.ipmi.zones = parse_int(value)?,
            "fan_min_rpm" => spec.ipmi.fan_min = Rpm::new(parse_f64(value)?),
            "fan_max_rpm" => spec.ipmi.fan_max = Rpm::new(parse_f64(value)?),
            "demand" => spec.ipmi.demand = parse_f64(value)?,
            other => return Err(format!("unknown key `{other}` in [ipmi]")),
        },
        "caps" => match key {
            "enforcer" => spec.caps.enforcer = parse_string(value)?,
            "rapl_root" => spec.caps.rapl_root = parse_string(value)?,
            "min_power_w" => spec.caps.min_power = Watts::new(parse_f64(value)?),
            "max_power_w" => spec.caps.max_power = Watts::new(parse_f64(value)?),
            other => return Err(format!("unknown key `{other}` in [caps]")),
        },
        "" => return Err(format!("key `{key}` before any [section]")),
        other => return Err(format!("unknown section `[{other}]`")),
    }
    Ok(())
}

fn parse_f64(value: &str) -> Result<f64, String> {
    value
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("expected a finite number, got `{value}`"))
}

fn parse_int<T: std::str::FromStr>(value: &str) -> Result<T, String> {
    value.parse::<T>().map_err(|_| format!("expected an integer, got `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_library_daemon_config() {
        let spec = DaemondSpec::default();
        let cfg = spec.daemon_config();
        let reference = DaemonConfig::new(RackControlConfig::new(spec.control));
        assert_eq!(cfg.stale_after, reference.stale_after);
        assert_eq!(cfg.freeze_after, reference.freeze_after);
        assert_eq!(cfg.max_retries, reference.max_retries);
        assert_eq!(cfg.recovery_window, reference.recovery_window);
    }

    #[test]
    fn parses_the_full_schema() {
        let spec = DaemondSpec::parse(
            r#"
# a daemond config exercising every section
[daemon]
control = "global-e-coord"
topology = "rack-1u-x8"
horizon_s = 120.0          # trailing comment
stale_after_s = 5.0
freeze_after_s = 45.0
deadzone_rpm = 25.0
max_retries = 2
recovery_window_s = 15.0
recorder_capacity = 512
metrics_addr = "127.0.0.1:0"

[pacing]
time_scale = 0.5
miss_tolerance_s = 0.1
max_overrun_streak = 3

[backend]
kind = "ipmi"

[ipmi]
sensors = [
    "CPU0 Temp",
    "CPU1 Temp",
]
zones = 2
fan_min_rpm = 1200.0
fan_max_rpm = 8000.0
demand = 0.4

[caps]
enforcer = "rapl"
rapl_root = "/tmp/powercap"
min_power_w = 50.0
max_power_w = 150.0
"#,
        )
        .expect("full schema parses");
        assert_eq!(spec.control, RackControl::GlobalECoord);
        assert_eq!(spec.topology, "rack-1u-x8");
        assert_eq!(spec.horizon, Seconds::new(120.0));
        assert_eq!(spec.freeze_after, Some(Seconds::new(45.0)));
        assert_eq!(spec.max_retries, 2);
        assert_eq!(spec.recorder_capacity, 512);
        assert_eq!(spec.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(spec.pacing.time_scale, 0.5);
        assert_eq!(spec.pacing.miss_tolerance, Seconds::new(0.1));
        assert_eq!(spec.pacing.max_overrun_streak, 3);
        assert_eq!(spec.backend, BackendKind::Ipmi);
        assert_eq!(spec.ipmi.sensors, vec!["CPU0 Temp", "CPU1 Temp"]);
        assert_eq!(spec.ipmi.zones, 2);
        assert_eq!(spec.caps.enforcer, "rapl");
        assert_eq!(spec.caps.min_power, Watts::new(50.0));
    }

    #[test]
    fn sensor_names_may_contain_commas() {
        let spec = DaemondSpec::parse("[ipmi]\nsensors = [\"CPU0, Die\", \"CPU1\"]\n").unwrap();
        assert_eq!(spec.ipmi.sensors, ["CPU0, Die", "CPU1"]);
    }

    #[test]
    fn unknown_keys_and_sections_are_errors_not_defaults() {
        let err = DaemondSpec::parse("[daemon]\nstale_after = 3.0\n").unwrap_err();
        assert!(err.contains("unknown key `stale_after`"), "{err}");
        let err = DaemondSpec::parse("[deamon]\n").unwrap_err();
        assert!(err.contains("unknown section"), "{err}");
        let err = DaemondSpec::parse("control = \"lockstep\"\n").unwrap_err();
        assert!(err.contains("before any [section]"), "{err}");
    }

    #[test]
    fn golden_preset_is_self_contained() {
        let spec = DaemondSpec::parse("[workload]\npreset = \"rack-golden\"\n").unwrap();
        spec.build_workload().expect("golden preset builds");
        let spec = DaemondSpec::parse("[workload]\npreset = \"rack-golden\"\nnoise_sigma = 0.1\n")
            .unwrap();
        // noise_seed missing *and* preset collision — the collision
        // must win with a clear message.
        let err = spec.build_workload().unwrap_err();
        assert!(err.contains("self-contained"), "{err}");
    }

    #[test]
    fn custom_workloads_demand_complete_key_sets() {
        let spec = DaemondSpec::parse("[workload]\nsquare_low = 0.2\n").unwrap();
        assert!(spec.build_workload().unwrap_err().contains("all four square_*"));
        let spec =
            DaemondSpec::parse("[workload]\npreset = \"date14\"\nnoise_sigma = 0.04\n").unwrap();
        assert!(spec.build_workload().unwrap_err().contains("noise_sigma and noise_seed"));
    }

    #[test]
    fn topology_labels_resolve_including_parameterized_presets() {
        for label in ["rack-2u-x4", "rack-1u-x8", "choked-rear-x4", "shared-plenum:4"] {
            let spec = DaemondSpec { topology: label.into(), ..DaemondSpec::default() };
            spec.rack_spec().unwrap_or_else(|e| panic!("{label}: {e}"));
        }
        let spec = DaemondSpec { topology: "mobius-rack".into(), ..DaemondSpec::default() };
        assert!(spec.rack_spec().is_err());
    }

    #[test]
    fn sim_daemon_builds_from_the_parity_fixture_shape() {
        let spec = DaemondSpec::parse(
            "[daemon]\ncontrol = \"coordinated+adaptive\"\n[workload]\npreset = \"rack-golden\"\n",
        )
        .unwrap();
        let daemon = spec.build_sim_daemon().expect("sim daemon builds");
        assert_eq!(daemon.metrics().loop_cycles, 0);
    }

    #[test]
    fn ipmi_daemon_validates_structure_against_the_topology() {
        let spec = DaemondSpec::parse(
            "[backend]\nkind = \"ipmi\"\n[ipmi]\nzones = 3\nsensors = [\"CPU0\"]\n",
        )
        .unwrap();
        let err = spec.build_ipmi_daemon().unwrap_err();
        assert!(err.contains("fan walls"), "{err}");
    }
}
