//! Prints Table I: the design parameters used in power and temperature
//! modeling, echoed from the live `ServerSpec` (so a drift between code
//! and paper is visible immediately).
//!
//! Usage: `table1` — any argument prints the usage line to stderr and
//! exits 2.

use gfsc_server::ServerSpec;
use gfsc_units::{Rpm, Utilization};

fn main() {
    gfsc_bench::artifact_args("table1", None);
    let s = ServerSpec::enterprise_default();
    println!("Table I — design parameters (paper value vs ServerSpec)\n");
    let rows: Vec<(&str, String, &str)> = vec![
        ("CPU P_max", format!("{}", s.cpu_power.power(Utilization::FULL)), "160 W"),
        ("CPU P_idle", format!("{}", s.cpu_power.power(Utilization::IDLE)), "96 W"),
        ("Die thermal time constant", format!("{}", s.die_tau), "0.1 sec"),
        ("Fan power per socket", format!("{}", s.fan_power.max_power()), "29.4 W"),
        ("Max fan speed per socket", format!("{}", s.fan_power.max_speed()), "8500 rpm"),
        ("Fan sample interval", format!("{}", s.sensor_interval), "1 sec"),
        (
            "Heat sink R @ 2000 rpm",
            format!("{}", s.heatsink_law.resistance(Rpm::new(2000.0))),
            "0.141 + 132.51/V^0.923 K/W",
        ),
        (
            "Heat sink R @ 8500 rpm",
            format!("{}", s.heatsink_law.resistance(Rpm::new(8500.0))),
            "(same law)",
        ),
        ("Heat sink tau @ max airflow", format!("{}", s.heatsink_tau), "60 sec"),
    ];
    for (name, ours, paper) in rows {
        println!("{name:<30} ours: {ours:<16} paper: {paper}");
    }
    println!("\ncalibration constants not in Table I (see DESIGN.md §4):");
    println!("  ambient {}   R_jc {}   fan floor {}", s.ambient, s.r_jc, s.fan_bounds.lo());
    println!("  sensor lag {}   ADC step {} °C", s.sensor_lag, s.quantization_step);
}
