//! The command-line contract of the ten artifact binaries: a malformed
//! command line prints a `usage:` line to stderr and exits 2 before any
//! experiment runs, so nothing reaches stdout.

use std::process::Command;

/// Every artifact binary, by name and path.
const BINARIES: [(&str, &str); 10] = [
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("table3", env!("CARGO_BIN_EXE_table3")),
    ("fig1", env!("CARGO_BIN_EXE_fig1")),
    ("fig3", env!("CARGO_BIN_EXE_fig3")),
    ("fig4", env!("CARGO_BIN_EXE_fig4")),
    ("fig5", env!("CARGO_BIN_EXE_fig5")),
    ("ablations", env!("CARGO_BIN_EXE_ablations")),
    ("gfsc_explain", env!("CARGO_BIN_EXE_gfsc_explain")),
    ("perf_report", env!("CARGO_BIN_EXE_perf_report")),
];

fn path_of(name: &str) -> &'static str {
    BINARIES.iter().find(|(bin, _)| *bin == name).map(|&(_, path)| path).expect("known binary")
}

/// Runs `name` with `args` and asserts the usage exit: status 2, a stderr
/// line starting with `usage: <name>`, and an empty stdout.
fn assert_usage_exit(name: &str, args: &[&str]) {
    let out = Command::new(path_of(name)).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: status; stderr: {stderr}");
    assert!(
        stderr.lines().any(|line| line.starts_with(&format!("usage: {name}"))),
        "{name} {args:?}: no usage line in stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{name} {args:?}: printed to stdout before exiting");
}

#[test]
fn every_binary_rejects_an_unknown_flag() {
    for (name, _) in BINARIES {
        assert_usage_exit(name, &["--bogus"]);
    }
}

#[test]
fn figures_reject_a_misspelled_csv_flag_or_a_second_argument() {
    for name in ["fig1", "fig3", "fig4", "fig5"] {
        assert_usage_exit(name, &["--cvs"]);
        assert_usage_exit(name, &["--csv", "--csv"]);
    }
}

#[test]
fn tables_one_and_two_take_no_arguments() {
    for name in ["table1", "table2"] {
        assert_usage_exit(name, &["--csv"]);
        assert_usage_exit(name, &["extra"]);
    }
}

#[test]
fn table3_rejects_a_bad_horizon_or_seed() {
    assert_usage_exit("table3", &["-5"]);
    assert_usage_exit("table3", &["abc"]);
    assert_usage_exit("table3", &["0"]);
    assert_usage_exit("table3", &["600", "seven"]);
}

#[test]
fn ablations_rejects_an_unknown_subcommand_or_a_second_argument() {
    assert_usage_exit("ablations", &["bogus"]);
    assert_usage_exit("ablations", &["lag", "quant"]);
}

#[test]
fn gfsc_explain_rejects_a_missing_path_or_input() {
    assert_usage_exit("gfsc_explain", &["--out"]);
    assert_usage_exit("gfsc_explain", &[]);
    assert_usage_exit("gfsc_explain", &["a.events", "b.events"]);
}

#[test]
fn perf_report_rejects_a_flag_without_its_value() {
    assert_usage_exit("perf_report", &["--check"]);
    assert_usage_exit("perf_report", &["--out"]);
}
