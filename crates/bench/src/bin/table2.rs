//! Prints Table II: the rule-based coordination matrix, evaluated live
//! from `rule_matrix` over all nine cases.
//!
//! Usage: `table2` — any argument prints the usage line to stderr and
//! exits 2.

use gfsc_coord::rule_matrix;
use gfsc_units::{Rpm, Utilization};

fn main() {
    gfsc_bench::artifact_args("table2", None);
    println!("Table II — rule-based coordination (evaluated from the live rule_matrix)\n");
    let cap_now = Utilization::new(0.5);
    let fan_now = Rpm::new(4000.0);
    let cap_props = [("u down", 0.4), ("u same", 0.5), ("u up", 0.6)];
    let fan_props = [("s down", 3500.0), ("s same", 4000.0), ("s up", 4500.0)];

    println!("{:<8} | {:<10} | {:<10} | {:<10}", "", "s_fan dn", "s_fan =", "s_fan up");
    println!("{:-<8}-+-{:-<10}-+-{:-<10}-+-{:-<10}", "", "", "", "");
    for (cap_label, cap_prop) in cap_props {
        let mut cells = Vec::new();
        for (_, fan_prop) in fan_props {
            let (cap, fan) =
                rule_matrix(cap_now, Utilization::new(cap_prop), fan_now, Rpm::new(fan_prop));
            let cell = if (fan - fan_now).abs() > 1e-6 {
                if fan > fan_now {
                    "s_fan up"
                } else {
                    "s_fan dn"
                }
            } else if (cap - cap_now).abs() > 1e-12 {
                if cap > cap_now {
                    "u_cpu up"
                } else {
                    "u_cpu dn"
                }
            } else {
                "-"
            };
            cells.push(cell);
        }
        println!("{:<8} | {:<10} | {:<10} | {:<10}", cap_label, cells[0], cells[1], cells[2]);
    }
    println!("\npaper Table II:");
    println!("  u dn  | s_fan dn | u_cpu dn | s_fan up");
    println!("  u =   | s_fan dn | -        | s_fan up");
    println!("  u up  | u_cpu up | u_cpu up | s_fan up");
}
