//! The flight recorder end to end: arm it on a rack run, read the
//! decision stream back as a causal timeline, and round-trip it through
//! the `.events` text format that CI archives for every HIL drill.
//!
//! The run is the default explanation scenario — the rack-global energy
//! descent on the 1U×8 rack under the paper's spiking workload. Its
//! stream holds the descent's Gauss–Seidel sweep counts, convergence
//! residuals and per-zone fan targets, the walls the spikes pin at
//! their maximum (emergency clamps), and the zone caps the rule set
//! moves (each cap grant after the zone measurement behind it).
//!
//! Run with: `cargo run --release --example flight_recorder`

use gfsc::experiments::explain::{run, ExplainConfig};
use gfsc_obs::explain::render_timeline;
use gfsc_obs::{EventKind, FlightSnapshot};

fn main() {
    let config = ExplainConfig::default();
    println!(
        "== flying {:?} on {} with a {}-event recorder ==\n",
        config.control,
        config.rack.label(),
        config.capacity
    );
    let report = run(&config);

    // What the controllers actually did, per kind.
    println!("decision mix ({} events recorded):", report.flight.recorded);
    for kind in EventKind::ALL {
        let count = report.flight.events.iter().filter(|e| e.kind == kind).count();
        if count > 0 {
            println!("  {:>6} × {}", count, kind.label());
        }
    }

    // The first few epochs of the causal story.
    println!("\ntimeline (head):");
    for line in report.timeline.lines().take(24) {
        println!("  {line}");
    }

    // The `.events` text form is lossless — the same bytes CI uploads
    // from the HIL drills and `gfsc-explain` parses back.
    let text = report.flight.to_text();
    let reparsed = FlightSnapshot::from_text(&text).expect("own output parses");
    assert_eq!(reparsed, report.flight, "text round-trip must be lossless");
    assert_eq!(render_timeline(&reparsed), report.timeline);
    println!(
        "\n.events round-trip OK ({} bytes, {:.2} % violated socket-epochs over the run)",
        text.len(),
        report.violation_percent
    );
}
