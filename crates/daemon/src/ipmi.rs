//! The IPMI-shaped text adapter: `ipmitool` / `sensors` output in,
//! raw fan-speed writes out.
//!
//! Real BMC telemetry arrives as line-oriented text from management
//! tools, and that text is *hostile*: truncated lines when the bus
//! times out mid-transfer, `no reading` / `ns` placeholders for dead
//! sensors, locale decimal commas from misconfigured firmware, stderr
//! diagnostics interleaved with stdout. The parsers here survive all of
//! it with one invariant: **an unreadable sensor yields `None`, never a
//! fabricated `0.0`** — a zero celsius reading would look like a
//! perfectly cooled socket and release every cap (the daemon maps
//! `None` to [`gfsc_sensors::SensorStatus::Stale`] instead).
//!
//! The actuation side emits the de-facto raw byte commands enterprise
//! BMCs use for manual fan control (`0x30 0x30 0x01 ...` to toggle
//! firmware auto-control, `0x30 0x30 0x02 <fan> <percent>` for a duty
//! write), through a [`CommandRunner`] so tests script the transport.

use crate::discover::discover_socket_sensors;
use crate::enforce::{CapEnforcer, NullEnforcer};
use crate::{FanActuator, TelemetryError, TelemetrySource};
use gfsc_units::{Bounds, Celsius, Rpm, Seconds, Utilization};

/// One named reading parsed from management-tool output.
#[derive(Debug, Clone, PartialEq)]
pub struct IpmiReading {
    /// The sensor name as printed (trimmed).
    pub name: String,
    /// The parsed temperature — `None` for any unreadable value.
    pub value: Option<Celsius>,
}

/// Parses `ipmitool sdr type temperature` output: pipe-separated rows
/// whose fifth field carries the reading (`45 degrees C`).
///
/// Garbage tolerance: rows with fewer than five fields (truncation,
/// interleaved stderr) are skipped; `no reading` / `ns` / `na` /
/// `n/a` / `disabled` / hex state words (`0x...`), unparseable values
/// and readings in any unit but `degrees C` become `None`; decimal
/// commas and thousands separators are accepted.
#[must_use]
pub fn parse_sdr_temperatures(text: &str) -> Vec<IpmiReading> {
    let mut readings = Vec::new();
    for line in text.lines() {
        let mut fields = line.split('|');
        let Some(name) = fields.next().map(str::trim) else { continue };
        if name.is_empty() {
            continue;
        }
        // name | hex id | status | entity | reading ...
        let Some(reading_field) = fields.nth(3) else { continue };
        readings.push(IpmiReading { name: name.to_owned(), value: parse_reading(reading_field) });
    }
    readings
}

/// The socket temperatures a die can report, °C. Some BMCs pass an
/// on-die sensor's distance below its throttle point through as a
/// temperature (Rotem et al., PAPERS.md), so `-42 degrees C` can mean a
/// socket 42 K short of throttling, not a cold one; and a die shuts down
/// at its thermal trip point long before 150 °C. A socket reading outside
/// this range is not a measurement.
const SOCKET_READABLE_C: core::ops::RangeInclusive<f64> = 0.0..=150.0;

/// Parses lm-sensors style output: `Core 0:  +45.0°C  (high = ...)`.
/// Any `label: +value°C` line yields a reading; everything else
/// (adapter headers, voltages, blank lines) is skipped.
#[must_use]
pub fn parse_sensors_temperatures(text: &str) -> Vec<IpmiReading> {
    let mut readings = Vec::new();
    for line in text.lines() {
        let Some((label, rest)) = line.split_once(':') else { continue };
        let label = label.trim();
        if label.is_empty() {
            continue;
        }
        // The value must actually be a temperature, not a voltage/fan row.
        let Some(degree_at) = rest.find("°C") else { continue };
        let token = rest[..degree_at].trim().trim_start_matches('+');
        readings.push(IpmiReading {
            name: label.to_owned(),
            value: parse_float_token(token).and_then(Celsius::try_new),
        });
    }
    readings
}

/// Parses one sdr reading field: a number in `degrees C`
/// (`45 degrees C` → 45.0). Anything else is `None`: placeholders
/// (`No Reading`, `ns`, `N/A`, `Disabled`), hex state words (`0x0180`),
/// other units (`113 degrees F`, `5400 RPM`, `45 percent`), units cut
/// short by a truncated listing (`113 degr` may have been
/// `113 degrees F`) and garbage. Read as °C, each would be exactly the
/// fabricated reading the module invariant forbids.
fn parse_reading(field: &str) -> Option<Celsius> {
    let field = field.trim();
    let token = field.split_whitespace().next()?;
    if field[token.len()..].trim_start() != "degrees C" {
        return None;
    }
    // `try_new` (not `new`): the wire is untrusted, and a NaN that slipped
    // past the token filter must become a missing reading, not a panic.
    parse_float_token(token).and_then(Celsius::try_new)
}

/// Parses one numeric token, tolerating both comma conventions:
///
/// - exactly one comma and no dot is a locale decimal comma
///   (`45,5` → 45.5);
/// - commas alongside a dot, or more than one comma, are thousands
///   separators (`1,234.5` → 1234.5, `1,234,567` → 1234567) — the old
///   blanket comma→dot rewrite turned these into unparseable
///   `1.234.5`, silently dropping valid readings.
///
/// Non-finite results count as unreadable.
fn parse_float_token(token: &str) -> Option<f64> {
    let commas = token.matches(',').count();
    let normalized = if commas == 0 {
        token.to_owned()
    } else if token.contains('.') || commas > 1 {
        token.replace(',', "")
    } else {
        token.replace(',', ".")
    };
    normalized.parse::<f64>().ok().filter(|v| v.is_finite())
}

/// The transport an [`IpmiAdapter`] issues management commands over.
/// Production uses [`ProcessRunner`]; tests script exact transcripts.
pub trait CommandRunner {
    /// Runs `cmd` with `args`, returning combined stdout on success.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError`] if the command cannot run or exits
    /// non-zero.
    fn run(&mut self, cmd: &str, args: &[String]) -> Result<String, TelemetryError>;
}

/// Runs commands through `std::process::Command`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProcessRunner;

impl CommandRunner for ProcessRunner {
    fn run(&mut self, cmd: &str, args: &[String]) -> Result<String, TelemetryError> {
        let output = std::process::Command::new(cmd)
            .args(args)
            .output()
            .map_err(|e| TelemetryError::Read(format!("{cmd}: {e}")))?;
        if !output.status.success() {
            return Err(TelemetryError::Nack(format!("{cmd} exited {}", output.status)));
        }
        Ok(String::from_utf8_lossy(&output.stdout).into_owned())
    }
}

/// The `ipmitool`-shaped front end: reads per-socket temperatures from
/// sdr output and drives fan walls with raw duty-cycle writes.
///
/// Socket mapping is by sensor name: `sensor_names[i]` is matched
/// (exact, after trimming) against the sdr rows; a socket whose sensor
/// is absent or unreadable polls as `None`. A name the map repeats reads
/// one row per use, in listing order: its k-th use reads the k-th row of
/// that name (Dell iDRACs print every CPU sensor as `Temp`), and a use
/// with no row of its own polls as `None` rather than another socket's
/// reading. Fan commands address zones as BMC fan indices and translate
/// rpm targets to duty percentages linearly across the mechanical
/// bounds. Cap writes delegate to a [`CapEnforcer`] ([`NullEnforcer`]
/// unless [`IpmiAdapter::with_cap_enforcer`] wires one), and firmware
/// fallback releases the caps alongside handing the fans back.
pub struct IpmiAdapter<R: CommandRunner> {
    runner: R,
    sensor_names: Vec<String>,
    zone_count: usize,
    fan_bounds: Bounds<Rpm>,
    enforcer: Box<dyn CapEnforcer>,
}

impl<R: CommandRunner> std::fmt::Debug for IpmiAdapter<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IpmiAdapter")
            .field("sensor_names", &self.sensor_names)
            .field("zone_count", &self.zone_count)
            .field("fan_bounds", &self.fan_bounds)
            .finish_non_exhaustive()
    }
}

impl<R: CommandRunner> IpmiAdapter<R> {
    /// Builds the adapter: one sdr sensor name per flat socket,
    /// `zone_count` fan walls within `fan_bounds`.
    ///
    /// # Panics
    ///
    /// Panics if `sensor_names` is empty or `zone_count` is zero.
    #[must_use]
    pub fn new(
        runner: R,
        sensor_names: Vec<String>,
        zone_count: usize,
        fan_bounds: Bounds<Rpm>,
    ) -> Self {
        assert!(!sensor_names.is_empty(), "at least one sensor");
        assert!(zone_count > 0, "at least one fan zone");
        Self { runner, sensor_names, zone_count, fan_bounds, enforcer: Box::new(NullEnforcer) }
    }

    /// Builds the adapter with the socket→sensor map **auto-discovered**
    /// from one `ipmitool sdr type temperature` listing (see
    /// [`discover_socket_sensors`] for the heuristic).
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::Read`] if the listing cannot be read
    /// or no CPU temperature sensors are found in it.
    pub fn discover(
        mut runner: R,
        zone_count: usize,
        fan_bounds: Bounds<Rpm>,
    ) -> Result<Self, TelemetryError> {
        let text = runner.run("ipmitool", &["sdr".into(), "type".into(), "temperature".into()])?;
        let names = discover_socket_sensors(&text);
        if names.is_empty() {
            return Err(TelemetryError::Read(
                "sensor discovery found no CPU temperature sensors in the sdr listing".into(),
            ));
        }
        Ok(Self::new(runner, names, zone_count, fan_bounds))
    }

    /// Replaces the cap enforcer (builder-style).
    #[must_use]
    pub fn with_cap_enforcer(mut self, enforcer: Box<dyn CapEnforcer>) -> Self {
        self.enforcer = enforcer;
        self
    }

    /// The socket→sensor map in use (discovery output, for logging).
    #[must_use]
    pub fn sensor_names(&self) -> &[String] {
        &self.sensor_names
    }

    /// Polls every mapped socket temperature from
    /// `ipmitool sdr type temperature`. A reading below 0 °C or above
    /// 150 °C is `None`, like an unreadable one.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::Read`] only if the command itself
    /// fails; unreadable *sensors* are `None` entries, never errors and
    /// never `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not one entry per mapped sensor.
    pub fn read_temperatures(&mut self, out: &mut [Option<Celsius>]) -> Result<(), TelemetryError> {
        assert_eq!(out.len(), self.sensor_names.len(), "one reading slot per mapped sensor");
        let text =
            self.runner.run("ipmitool", &["sdr".into(), "type".into(), "temperature".into()])?;
        let readings = parse_sdr_temperatures(&text);
        for (i, (slot, wanted)) in out.iter_mut().zip(&self.sensor_names).enumerate() {
            let earlier_uses = self.sensor_names[..i].iter().filter(|n| *n == wanted).count();
            *slot = readings
                .iter()
                .filter(|r| &r.name == wanted)
                .nth(earlier_uses)
                .and_then(|r| r.value)
                .filter(|t| SOCKET_READABLE_C.contains(&t.value()));
        }
        Ok(())
    }

    /// The duty percentage a target rpm maps to across the bounds.
    fn percent_for(&self, target: Rpm) -> u8 {
        let lo = self.fan_bounds.lo().value();
        let hi = self.fan_bounds.hi().value();
        let frac = ((target.value() - lo) / (hi - lo)).clamp(0.0, 1.0);
        (frac * 100.0).round() as u8
    }

    /// The rpm the platform runs at a given duty percentage (the
    /// adapter's acknowledgement value).
    fn rpm_for_percent(&self, percent: u8) -> Rpm {
        let lo = self.fan_bounds.lo().value();
        let hi = self.fan_bounds.hi().value();
        Rpm::new(lo + f64::from(percent) / 100.0 * (hi - lo))
    }

    /// Toggles firmware automatic fan control: `0x30 0x30 0x01 0x01`
    /// hands the fans back to firmware, `... 0x00` takes manual
    /// control.
    fn set_auto_control(&mut self, auto: bool) -> Result<(), TelemetryError> {
        let code = if auto { "0x01" } else { "0x00" };
        self.runner
            .run(
                "ipmitool",
                &["raw".into(), "0x30".into(), "0x30".into(), "0x01".into(), code.into()],
            )
            .map(|_| ())
    }
}

impl<R: CommandRunner> FanActuator for IpmiAdapter<R> {
    fn write_fan_target(&mut self, z: usize, target: Rpm) -> Result<Rpm, TelemetryError> {
        assert!(z < self.zone_count, "zone {z} out of range");
        let percent = self.percent_for(target);
        self.runner.run(
            "ipmitool",
            &[
                "raw".into(),
                "0x30".into(),
                "0x30".into(),
                "0x02".into(),
                format!("0x{z:02x}"),
                format!("0x{percent:02x}"),
            ],
        )?;
        Ok(self.rpm_for_percent(percent))
    }

    fn write_caps(&mut self, caps: &[Utilization]) -> Result<(), TelemetryError> {
        // Per-socket utilization capping is OS-side (RAPL / cgroup
        // quota), not a BMC command — the wired CapEnforcer carries it
        // (the default NullEnforcer accepts-without-enforcing, the
        // pre-enforcement behavior).
        self.enforcer.enforce(caps)
    }

    fn migrate_load(
        &mut self,
        _from: usize,
        _to: usize,
        _amount: f64,
    ) -> Result<(), TelemetryError> {
        Err(TelemetryError::Nack("load migration is not an IPMI operation".into()))
    }

    fn enter_firmware_fallback(&mut self) -> Result<(), TelemetryError> {
        // Fans back to firmware *and* caps released: a cap left pinned
        // while the daemon is out of the loop is an unwatched
        // performance fault.
        self.set_auto_control(true)?;
        self.enforcer.release()
    }

    fn resume_manual_control(&mut self) -> Result<(), TelemetryError> {
        self.set_auto_control(false)
    }
}

/// [`IpmiAdapter`] promoted to a full daemon backend: the missing
/// [`TelemetrySource`] half, so `gfsc-daemond` can run the paced loop
/// against a real BMC.
///
/// What the BMC cannot tell us is modeled explicitly:
///
/// - **tachometers** mirror the last acknowledged targets (the raw
///   duty-write protocol has no read-back; the daemon's deadzone logic
///   only needs the commanded reference),
/// - **demand** is a fixed configured utilization (rack-level demand
///   telemetry is deployment-specific; the thermal loop is driven by
///   the *measured temperatures* either way),
/// - **advance** is a no-op — real time passes on its own, and
///   [`crate::Daemon::run_paced`] owns the cadence.
#[derive(Debug)]
pub struct IpmiTelemetry<R: CommandRunner> {
    adapter: IpmiAdapter<R>,
    demand: Utilization,
    last_tach: Vec<Rpm>,
}

impl<R: CommandRunner> IpmiTelemetry<R> {
    /// Wraps `adapter`, assuming the fans currently run near
    /// `start_fan` and the rack demand holds at `demand`.
    #[must_use]
    pub fn new(adapter: IpmiAdapter<R>, demand: Utilization, start_fan: Rpm) -> Self {
        let start = adapter.fan_bounds.clamp(start_fan);
        let last_tach = vec![start; adapter.zone_count];
        Self { adapter, demand, last_tach }
    }

    /// The wrapped adapter (read-only, e.g. to log the sensor map).
    #[must_use]
    pub fn adapter(&self) -> &IpmiAdapter<R> {
        &self.adapter
    }
}

impl<R: CommandRunner> TelemetrySource for IpmiTelemetry<R> {
    fn socket_count(&self) -> usize {
        self.adapter.sensor_names.len()
    }

    fn zone_count(&self) -> usize {
        self.adapter.zone_count
    }

    fn poll_temperatures(&mut self, out: &mut [Option<Celsius>]) -> Result<(), TelemetryError> {
        self.adapter.read_temperatures(out)
    }

    fn poll_fan_speeds(&mut self, out: &mut [Rpm]) -> Result<(), TelemetryError> {
        for (slot, tach) in out.iter_mut().zip(&self.last_tach) {
            *slot = *tach;
        }
        Ok(())
    }

    fn poll_demand(&mut self) -> Result<Utilization, TelemetryError> {
        Ok(self.demand)
    }

    fn advance(&mut self, _dt: Seconds) {}
}

impl<R: CommandRunner> FanActuator for IpmiTelemetry<R> {
    fn write_fan_target(&mut self, z: usize, target: Rpm) -> Result<Rpm, TelemetryError> {
        let acked = self.adapter.write_fan_target(z, target)?;
        if let Some(tach) = self.last_tach.get_mut(z) {
            *tach = acked;
        }
        Ok(acked)
    }

    fn write_caps(&mut self, caps: &[Utilization]) -> Result<(), TelemetryError> {
        self.adapter.write_caps(caps)
    }

    fn migrate_load(&mut self, from: usize, to: usize, amount: f64) -> Result<(), TelemetryError> {
        self.adapter.migrate_load(from, to, amount)
    }

    fn enter_firmware_fallback(&mut self) -> Result<(), TelemetryError> {
        self.adapter.enter_firmware_fallback()
    }

    fn resume_manual_control(&mut self) -> Result<(), TelemetryError> {
        let result = self.adapter.resume_manual_control();
        if result.is_ok() {
            // Firmware ran the fans at max while it held the rack; the
            // daemon's bumpless re-arm forces its mirror there too.
            self.last_tach.fill(self.adapter.fan_bounds.hi());
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enforce::RecordingEnforcer;

    #[test]
    fn float_tokens_distinguish_decimal_commas_from_thousands_separators() {
        assert_eq!(parse_float_token("45.5"), Some(45.5));
        // One comma, no dot: locale decimal comma.
        assert_eq!(parse_float_token("45,5"), Some(45.5));
        // Comma + dot: thousands separator (used to normalize to the
        // unparseable `1.234.5` and silently drop the reading).
        assert_eq!(parse_float_token("1,234.5"), Some(1234.5));
        // Multiple commas: thousands separators.
        assert_eq!(parse_float_token("1,234,567"), Some(1_234_567.0));
        // Non-finite stays unreadable.
        assert_eq!(parse_float_token("nan"), None);
        assert_eq!(parse_float_token("inf"), None);
        assert_eq!(parse_float_token("garbage"), None);
    }

    #[test]
    fn placeholder_readings_stay_missing_never_fabricated() {
        for placeholder in
            ["na", "NA", "n/a", "N/A", "ns", "no reading", "disabled", "0x0000", "0X0180", ""]
        {
            assert_eq!(parse_reading(placeholder), None, "placeholder {placeholder:?}");
        }
        // …while real readings still parse.
        assert_eq!(parse_reading(" 45 degrees C "), Celsius::try_new(45.0));
        assert_eq!(parse_reading("1,234.5 degrees C"), Celsius::try_new(1234.5));
    }

    #[test]
    fn cap_writes_flow_through_the_enforcer_and_fallback_releases() {
        struct AckAll;
        impl CommandRunner for AckAll {
            fn run(&mut self, _cmd: &str, _args: &[String]) -> Result<String, TelemetryError> {
                Ok(String::new())
            }
        }
        let recorder = RecordingEnforcer::new();
        let mut adapter = IpmiAdapter::new(
            AckAll,
            vec!["CPU0 Temp".into()],
            1,
            Bounds::new(Rpm::new(1000.0), Rpm::new(9000.0)),
        )
        .with_cap_enforcer(Box::new(recorder.clone()));
        adapter.write_caps(&[Utilization::new(0.6)]).unwrap();
        adapter.enter_firmware_fallback().unwrap();
        let log = recorder.log();
        assert_eq!(log.enforced, vec![vec![Utilization::new(0.6)]]);
        assert_eq!(log.releases, 1, "fallback must release the caps");
    }

    #[test]
    fn sdr_percent_and_raw_commands() {
        #[derive(Default)]
        struct Script(Vec<String>);
        impl CommandRunner for Script {
            fn run(&mut self, cmd: &str, args: &[String]) -> Result<String, TelemetryError> {
                self.0.push(format!("{cmd} {}", args.join(" ")));
                Ok(String::new())
            }
        }
        let mut adapter = IpmiAdapter::new(
            Script::default(),
            vec!["CPU0 Temp".into()],
            2,
            Bounds::new(Rpm::new(1000.0), Rpm::new(9000.0)),
        );
        let acked = adapter.write_fan_target(1, Rpm::new(5000.0)).unwrap();
        // 50% duty acknowledges the mid-range rpm back.
        assert_eq!(acked, Rpm::new(5000.0));
        adapter.enter_firmware_fallback().unwrap();
        adapter.resume_manual_control().unwrap();
        assert_eq!(
            adapter.runner.0,
            vec![
                "ipmitool raw 0x30 0x30 0x02 0x01 0x32",
                "ipmitool raw 0x30 0x30 0x01 0x01",
                "ipmitool raw 0x30 0x30 0x01 0x00",
            ]
        );
    }
}
