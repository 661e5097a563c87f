//! The IPMI garbage-tolerance corpus: real-world-shaped `ipmitool` /
//! `sensors` output, including the hostile cases — truncated rows,
//! `No Reading` / `ns` / `Disabled` placeholders, locale decimal
//! commas, stderr interleaved with stdout, a Dell listing whose CPU
//! rows all share one name.
//!
//! The invariant under test: **an unreadable sensor is `None`, never a
//! fabricated `0.0`** — and through [`gfsc_sensors::SensorHealth`] a
//! `None` classifies as `Stale`, which is exactly what routes the
//! daemon to firmware fallback instead of releasing every cap against
//! a phantom 0 °C socket.

use gfsc_daemon::{
    discover_socket_sensors, parse_sdr_temperatures, parse_sensors_temperatures, CommandRunner,
    IpmiAdapter, IpmiReading, TelemetryError,
};
use gfsc_sensors::{SensorHealth, SensorStatus};
use gfsc_units::{Bounds, Celsius, Rpm, Seconds};
use std::cell::RefCell;
use std::rc::Rc;

fn value_of(readings: &[IpmiReading], name: &str) -> Option<Celsius> {
    readings.iter().find(|r| r.name == name).unwrap_or_else(|| panic!("row {name}")).value
}

/// Answers every command with one sdr listing and logs each call.
struct Scripted {
    listing: &'static str,
    calls: Rc<RefCell<Vec<String>>>,
}

impl Scripted {
    fn new(listing: &'static str) -> Self {
        Self { listing, calls: Rc::default() }
    }
}

impl CommandRunner for Scripted {
    fn run(&mut self, cmd: &str, args: &[String]) -> Result<String, TelemetryError> {
        self.calls.borrow_mut().push(format!("{cmd} {}", args.join(" ")));
        Ok(self.listing.to_owned())
    }
}

fn fan_bounds() -> Bounds<Rpm> {
    Bounds::new(Rpm::new(1000.0), Rpm::new(9000.0))
}

/// No parser output, on any fixture, may ever be a fabricated zero.
fn assert_no_fabricated_zero(readings: &[IpmiReading]) {
    for r in readings {
        if let Some(v) = r.value {
            assert_ne!(v.value(), 0.0, "{}: unreadable sensor surfaced as 0.0 C", r.name);
        }
    }
}

#[test]
fn clean_sdr_parses_every_row() {
    let readings = parse_sdr_temperatures(include_str!("fixtures/sdr_clean.txt"));
    assert_eq!(readings.len(), 4);
    assert_eq!(value_of(&readings, "Inlet Temp"), Some(Celsius::new(24.0)));
    assert_eq!(value_of(&readings, "CPU0 Temp"), Some(Celsius::new(45.0)));
    assert_eq!(value_of(&readings, "CPU1 Temp"), Some(Celsius::new(47.5)));
    assert_eq!(value_of(&readings, "Exhaust Temp"), Some(Celsius::new(38.0)));
}

#[test]
fn truncated_rows_are_skipped_not_zeroed() {
    let readings = parse_sdr_temperatures(include_str!("fixtures/sdr_truncated.txt"));
    // Only the intact first row and the row truncated *after* its
    // numeric reading survive; rows cut before the reading field (and
    // the row with a blank name) vanish entirely.
    assert_eq!(readings.len(), 2);
    assert_eq!(value_of(&readings, "Inlet Temp"), Some(Celsius::new(24.0)));
    assert_eq!(value_of(&readings, "Exhaust Temp"), Some(Celsius::new(38.0)));
    assert!(readings.iter().all(|r| !r.name.starts_with("CPU")), "truncated CPU rows dropped");
    assert_no_fabricated_zero(&readings);
}

#[test]
fn placeholder_readings_parse_as_none_never_zero() {
    let readings = parse_sdr_temperatures(include_str!("fixtures/sdr_no_reading.txt"));
    assert_eq!(readings.len(), 5);
    assert_eq!(value_of(&readings, "CPU0 Temp"), None, "'No Reading' must be None");
    assert_eq!(value_of(&readings, "CPU1 Temp"), None, "'ns' must be None");
    assert_eq!(value_of(&readings, "PCH Temp"), None, "'Disabled' must be None");
    assert_eq!(value_of(&readings, "Inlet Temp"), Some(Celsius::new(24.0)));
    assert_no_fabricated_zero(&readings);
}

#[test]
fn na_and_hex_state_placeholders_parse_as_none_never_zero() {
    // Vendor spellings beyond `No Reading`: bare `na` / `N/A`, and raw
    // hex state words (`0x0180`) some BMCs print for discrete sensors.
    // The thousands-separated reading exercises the shared float-token
    // parser (realistic on rpm/power rows that flow through it too).
    let readings = parse_sdr_temperatures(include_str!("fixtures/sdr_placeholders.txt"));
    assert_eq!(readings.len(), 7);
    assert_eq!(value_of(&readings, "CPU0 Temp"), None, "'N/A' must be None");
    assert_eq!(value_of(&readings, "CPU1 Temp"), None, "'na' must be None");
    assert_eq!(value_of(&readings, "PCH Temp"), None, "'0x0180' must be None");
    assert_eq!(value_of(&readings, "VR Temp"), None, "'0xFF' must be None");
    assert_eq!(
        value_of(&readings, "CPU2 Temp"),
        Some(Celsius::new(1234.5)),
        "1,234.5 is a thousands separator, not the locale decimal 1.2345"
    );
    assert_eq!(value_of(&readings, "Inlet Temp"), Some(Celsius::new(24.0)));
    assert_no_fabricated_zero(&readings);
}

#[test]
fn readings_in_other_units_parse_as_none_never_celsius() {
    // A listing can carry a Fahrenheit BMC's row, a fan tachometer or a
    // utilization sensor. None of them is a temperature in °C: each must
    // read as missing, not as 113, 5400 or 45 °C.
    let readings = parse_sdr_temperatures(include_str!("fixtures/sdr_units.txt"));
    assert_eq!(readings.len(), 4);
    assert_eq!(value_of(&readings, "Inlet Temp"), Some(Celsius::new(24.0)));
    assert_eq!(value_of(&readings, "CPU0 Temp"), None, "'degrees F' is not °C");
    assert_eq!(value_of(&readings, "Fan1"), None, "'RPM' is not a temperature");
    assert_eq!(value_of(&readings, "CPU Usage"), None, "'percent' is not a temperature");
}

#[test]
fn discovery_keeps_unreadable_sockets_in_numeric_order() {
    // The fixture lists CPU1 before CPU0 and leaves both unreadable:
    // discovery must still map socket i → `CPUi Temp` — readability is
    // the poll path's concern, and dropping a dead sensor would remap
    // every later socket.
    let names = discover_socket_sensors(include_str!("fixtures/sdr_placeholders.txt"));
    assert_eq!(names, vec!["CPU0 Temp", "CPU1 Temp", "CPU2 Temp"]);
}

#[test]
fn repeated_sensor_name_reads_one_row_per_socket() {
    // Dell iDRACs print every CPU sensor as `Temp`, so an explicit map
    // repeats the name. Socket k reads the k-th `Temp` row, and a socket
    // with no row of its own polls None, never another socket's reading.
    let dell = Scripted::new(include_str!("fixtures/sdr_dell.txt"));
    let mut adapter = IpmiAdapter::new(dell, vec!["Temp".into(); 3], 1, fan_bounds());
    let mut out = [None; 3];
    adapter.read_temperatures(&mut out).unwrap();
    assert_eq!(out, [Some(Celsius::new(40.0)), Some(Celsius::new(52.0)), None]);
}

#[test]
fn discovery_maps_cpu_rows_from_one_listing_or_fails() {
    let clean = Scripted::new(include_str!("fixtures/sdr_clean.txt"));
    let calls = Rc::clone(&clean.calls);
    let adapter = IpmiAdapter::discover(clean, 1, fan_bounds()).unwrap();
    assert_eq!(adapter.sensor_names(), ["CPU0 Temp", "CPU1 Temp"]);
    assert_eq!(*calls.borrow(), ["ipmitool sdr type temperature"]);

    // No Dell row name says CPU: discovery fails, which is what tells
    // the operator to write an explicit `[ipmi] sensors` map.
    let dell = Scripted::new(include_str!("fixtures/sdr_dell.txt"));
    let err = IpmiAdapter::discover(dell, 1, fan_bounds()).unwrap_err();
    assert!(matches!(err, TelemetryError::Read(_)), "{err:?}");
}

#[test]
fn locale_decimal_commas_are_accepted() {
    let readings = parse_sdr_temperatures(include_str!("fixtures/sdr_locale_commas.txt"));
    assert_eq!(value_of(&readings, "Inlet Temp"), Some(Celsius::new(24.0)));
    assert_eq!(value_of(&readings, "CPU0 Temp"), Some(Celsius::new(45.5)));
    assert_eq!(value_of(&readings, "CPU1 Temp"), Some(Celsius::new(47.25)));
}

#[test]
fn interleaved_stderr_lines_are_ignored() {
    let readings = parse_sdr_temperatures(include_str!("fixtures/sdr_interleaved_stderr.txt"));
    // The three diagnostics carry no pipes and are skipped outright;
    // the garbage reading stays a named row with value None.
    assert_eq!(readings.len(), 4);
    assert_eq!(value_of(&readings, "Inlet Temp"), Some(Celsius::new(24.0)));
    assert_eq!(value_of(&readings, "CPU0 Temp"), Some(Celsius::new(45.0)));
    assert_eq!(value_of(&readings, "CPU1 Temp"), None, "garbage token must be None");
    assert_eq!(value_of(&readings, "Exhaust Temp"), Some(Celsius::new(38.0)));
    assert_no_fabricated_zero(&readings);
}

#[test]
fn lm_sensors_temperature_rows_only() {
    let readings = parse_sensors_temperatures(include_str!("fixtures/sensors_lm.txt"));
    // Voltages, fans, and adapter headers are not temperatures.
    assert_eq!(readings.len(), 4);
    assert_eq!(value_of(&readings, "Package id 0"), Some(Celsius::new(52.0)));
    assert_eq!(value_of(&readings, "Core 0"), Some(Celsius::new(45.0)));
    assert_eq!(value_of(&readings, "Core 1"), Some(Celsius::new(47.5)), "comma locale");
    assert_eq!(value_of(&readings, "SYSTIN"), Some(Celsius::new(38.0)));
    assert!(readings.iter().all(|r| r.name != "Vcore" && r.name != "fan1"));
}

#[test]
fn unreadable_sensor_classifies_stale_through_health() {
    // The end-to-end contract: a placeholder reading (None) feeds the
    // daemon's per-sensor budget as a *missed* read, so it goes Stale
    // once the budget elapses — it never shows up as a cold socket.
    let readings = parse_sdr_temperatures(include_str!("fixtures/sdr_no_reading.txt"));
    let dead = value_of(&readings, "CPU0 Temp").map(|c| c.value());
    assert_eq!(dead, None);

    let mut health = SensorHealth::new(Seconds::new(3.0), None);
    assert_eq!(health.observe(Seconds::new(0.0), Some(45.0)), SensorStatus::Fresh);
    for t in 1..=3 {
        health.observe(Seconds::new(f64::from(t)), dead);
    }
    assert_eq!(health.observe(Seconds::new(4.0), dead), SensorStatus::Stale);
    assert_eq!(health.last_value(), Some(45.0), "the budget holds the last real value");
}
