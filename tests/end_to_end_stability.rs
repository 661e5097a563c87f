//! Cross-crate integration: the paper's headline stability claims hold on
//! the fully assembled stack (workload → coordinator → capper/fan →
//! server → non-ideal sensors → back).

use gfsc::experiments::fan_study_spec;
use gfsc::{date14_gain_schedule, Simulation, Solution};
use gfsc_control::AdaptivePid;
use gfsc_coord::{ClosedLoopSim, DeadzoneFan};
use gfsc_server::ServerSpec;
use gfsc_sim::stats;
use gfsc_units::{Celsius, Rpm, Seconds, Utilization};
use gfsc_workload::{Constant, Workload};

/// The proposed adaptive controller holds a steady load near the
/// reference despite 10 s lag and 1 °C quantization.
#[test]
fn adaptive_pid_regulates_steady_load_through_nonideal_chain() {
    let spec = fan_study_spec();
    let mut sim = ClosedLoopSim::builder()
        .spec(spec.clone())
        .workload(Workload::builder(Constant::new(0.7)).build())
        .fan(AdaptivePid::date14_configured(
            gfsc::tune_gain_schedule(&spec, &[Rpm::new(2000.0), Rpm::new(6000.0)]),
            Celsius::new(75.0),
            spec.fan_bounds,
            spec.quantization_step,
        ))
        .without_capper()
        .start_at(Utilization::new(0.7), Rpm::new(3000.0))
        .build();
    let outcome = sim.run(Seconds::new(900.0));
    let temp = outcome.traces.require("t_junction_c").unwrap();
    let (_, tail) = temp.tail_from(Seconds::new(300.0));
    let rms = stats::rms_error(tail, 75.0);
    assert!(rms < 3.5, "junction rms error {rms} K from the 75 °C reference");
    // And the fan is not slamming rail to rail.
    let fan = outcome.traces.require("fan_rpm").unwrap();
    let (t, v) = fan.tail_from(Seconds::new(300.0));
    let rep = stats::detect_oscillation(t, v, 150.0);
    assert!(!(rep.reversals >= 4 && rep.amplitude >= 6750.0), "rail-to-rail oscillation: {rep:?}");
}

/// The conventional deadzone scheme oscillates on the identical plant —
/// the Fig. 4 contrast, end to end.
#[test]
fn deadzone_oscillates_on_the_same_plant() {
    let spec = ServerSpec { fan_control_interval: Seconds::new(1.0), ..fan_study_spec() };
    let mut sim = ClosedLoopSim::builder()
        .spec(spec.clone())
        .workload(Workload::builder(Constant::new(0.7)).build())
        .fan(DeadzoneFan::new(Celsius::new(75.0), 1.0, 250.0, spec.fan_bounds))
        .without_capper()
        .start_at(Utilization::new(0.7), Rpm::new(2000.0))
        .build();
    let outcome = sim.run(Seconds::new(900.0));
    let fan = outcome.traces.require("fan_rpm").unwrap();
    let (t, v) = fan.tail_from(Seconds::new(300.0));
    let rep = stats::detect_oscillation(t, v, 150.0);
    assert!(
        rep.is_sustained(4000.0),
        "deadzone should limit-cycle on the non-ideal chain: {rep:?}"
    );
}

/// The full coordinated proposal runs the noisy dynamic workload without
/// fan instability and with bounded violations (the Fig. 5 claim).
#[test]
fn coordinated_stack_survives_noisy_dynamic_load() {
    let outcome = Simulation::builder()
        .solution(Solution::RCoordAdaptiveTrefSsFan)
        .seed(5)
        .build()
        .run(Seconds::new(1200.0));
    assert!(outcome.violation_percent < 20.0, "violations {}", outcome.violation_percent);
    // Junction must respect the DTM comfort zone except transient spikes:
    // 95th percentile below the 80 °C limit plus a small excursion band.
    let temp = outcome.traces.require("t_junction_c").unwrap();
    let mut sorted: Vec<f64> = temp.values().to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p95 = sorted[(sorted.len() as f64 * 0.95) as usize];
    assert!(p95 < 82.0, "p95 junction {p95} °C");
}

/// The two-region schedule used by the figure experiments really carries
/// the ~8x gain ratio between regions.
#[test]
fn cached_gain_schedule_reflects_plant_nonlinearity() {
    let schedule = date14_gain_schedule();
    let lo = schedule.regions()[0].gains().kp();
    let hi = schedule.regions()[1].gains().kp();
    assert!(hi / lo > 3.0, "gain ratio {}", hi / lo);
}
