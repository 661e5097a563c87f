//! Fig. 3: adaptive vs fixed-gain PID fan control.
//!
//! The paper's Fig. 3 compares three fan controllers under a CPU load
//! alternating between 0.1 and 0.7:
//!
//! - PID with the parameter set tuned at **2000 rpm**: stable but slow
//!   (~210 s convergence in the paper),
//! - PID with the set tuned at **6000 rpm**: faster but *unstable* in the
//!   low-fan-speed region (gains tuned where the plant is 8× less
//!   sensitive),
//! - the **adaptive PID** (Eq. 8–9): stable with fast convergence.
//!
//! The runs are fan-only (no CPU capper), noise-free, on the full
//! non-ideal measurement chain.

use super::{fan_study_spec, study_fixed_gains, study_gain_schedule};
use gfsc_control::AdaptivePid;
use gfsc_coord::{ClosedLoopSim, FanController, FixedPidFan};
use gfsc_sim::stats::{self, OscillationReport};
use gfsc_sim::TraceSet;
use gfsc_units::{Celsius, Rpm, Seconds, Utilization};
use gfsc_workload::{SquareWave, Workload};

/// Configuration of the Fig. 3 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Config {
    /// Run length (covers several full workload periods).
    pub horizon: Seconds,
    /// Full workload period (half low, half high). Phases must be long
    /// enough for the slow fixed-gain controller to demonstrate its
    /// ~200 s convergence, per the paper's own measurement.
    pub period: Seconds,
    /// Fan reference temperature (the paper regulates toward 75 °C).
    pub reference: Celsius,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Self {
            horizon: Seconds::new(3200.0),
            period: Seconds::new(800.0),
            reference: Celsius::new(75.0),
        }
    }
}

/// One controller's outcome.
#[derive(Debug)]
pub struct SchemeResult {
    /// Scheme label (paper terminology).
    pub name: String,
    /// Full traces (`fan_rpm`, `t_junction_c`, …).
    pub traces: TraceSet,
    /// Oscillation analysis of the fan trace over the steady tail.
    pub fan_oscillation: OscillationReport,
    /// `true` if no sustained large-amplitude fan oscillation was found.
    pub stable: bool,
    /// Time for the junction to settle into ±2.5 K of the reference after
    /// the *last* low→high load step, if it settles at all.
    pub convergence_time: Option<Seconds>,
}

/// The reproduced Fig. 3.
#[derive(Debug)]
pub struct Fig3 {
    /// Adaptive PID (the paper's proposal).
    pub adaptive: SchemeResult,
    /// Fixed gains tuned at 2000 rpm.
    pub fixed_low: SchemeResult,
    /// Fixed gains tuned at 6000 rpm.
    pub fixed_high: SchemeResult,
}

/// Amplitude (rpm) above which a within-phase fan oscillation counts as
/// instability: 90 % of the actuator span, i.e. the controller is slamming
/// rail to rail. Bounded hunting below this is classified marginal but
/// stable (see EXPERIMENTS.md for the deviation discussion).
const INSTABILITY_AMPLITUDE_RPM: f64 = 6750.0;

fn run_scheme(name: &str, fan: impl FanController + 'static, config: &Fig3Config) -> SchemeResult {
    let spec = fan_study_spec();
    let period = config.period;
    let half = period.value() / 2.0;
    let mut sim = ClosedLoopSim::builder()
        .spec(spec)
        .workload(Workload::builder(SquareWave::new(0.1, 0.7, period, 0.5)).build())
        .fan(fan)
        .without_capper()
        .start_at(Utilization::new(0.1), Rpm::new(2000.0))
        .build();
    let outcome = sim.run(config.horizon);
    let traces = outcome.traces;

    // Stability: worst within-phase fan oscillation across *all* phases
    // (both load levels), analyzing the second half of each phase — the
    // first half holds the legitimate step-response transient. A stable
    // controller has settled by then; an over-gained one keeps slamming
    // rail to rail on every residual kelvin of error.
    let fan_trace = traces.require("fan_rpm").expect("recorded");
    let mut fan_oscillation =
        gfsc_sim::stats::OscillationReport { reversals: 0, amplitude: 0.0, period: None };
    let mut phase_start = half; // skip the initial warm-up phase
    while phase_start + half <= config.horizon.value() {
        let from = phase_start + 100.0;
        let to = phase_start + half;
        let (times, values) = fan_trace.tail_from(Seconds::new(from));
        let n = times.partition_point(|&t| t < to);
        let rep = stats::detect_oscillation(&times[..n], &values[..n], 150.0);
        if rep.reversals >= 2 && rep.amplitude > fan_oscillation.amplitude {
            fan_oscillation = rep;
        }
        phase_start += half;
    }
    let stable = fan_oscillation.amplitude < INSTABILITY_AMPLITUDE_RPM;

    // Convergence after the last full low→high step: time for the junction
    // to settle into ±1.5 K of the reference within that high phase.
    let last_step = {
        let mut t = half;
        while t + period.value() + half <= config.horizon.value() {
            t += period.value();
        }
        t
    };
    let temp = traces.require("t_junction_c").expect("recorded");
    let (tt, tv) = temp.tail_from(Seconds::new(last_step));
    let n = tt.partition_point(|&t| t < last_step + half);
    // Settling band: the 1 °C ADC plus the inclusive Eq. 10 hold make any
    // point within ~2 K of the reference an admissible equilibrium.
    let resp = stats::step_response(&tt[..n], &tv[..n], tv[0], config.reference.value(), 2.5);
    let convergence_time = resp.settling_time;

    SchemeResult { name: name.to_owned(), traces, fan_oscillation, stable, convergence_time }
}

/// Runs all three schemes.
#[must_use]
pub fn run(config: &Fig3Config) -> Fig3 {
    let spec = fan_study_spec();
    let schedule = study_gain_schedule().clone();
    let quant = Some(spec.quantization_step);
    let bounds = spec.fan_bounds;

    // The proposed stack: gain schedule + Eq. 10 hold + the bounded
    // descent and trend gating this implementation adds for lag
    // robustness (DESIGN.md §5). The fixed-gain baselines represent the
    // conventional PID of prior work: plain PID + the same Eq. 10 hold.
    let adaptive =
        AdaptivePid::date14_configured(schedule, config.reference, bounds, spec.quantization_step);
    let (low_gains, high_gains) = study_fixed_gains();

    Fig3 {
        adaptive: run_scheme("adaptive PID (proposed)", adaptive, config),
        fixed_low: run_scheme(
            "fixed PID @ 2000 rpm",
            FixedPidFan::new(low_gains, config.reference, bounds, quant),
            config,
        ),
        fixed_high: run_scheme(
            "fixed PID @ 6000 rpm",
            FixedPidFan::new(high_gains, config.reference, bounds, quant),
            config,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One shared run for all assertions: the experiment is deterministic
    // and moderately expensive.
    fn fig() -> &'static Fig3 {
        use std::sync::OnceLock;
        static FIG: OnceLock<Fig3> = OnceLock::new();
        FIG.get_or_init(|| run(&Fig3Config::default()))
    }

    #[test]
    fn adaptive_is_stable() {
        let f = fig();
        assert!(
            f.adaptive.stable,
            "adaptive PID flagged unstable: {:?}",
            f.adaptive.fan_oscillation
        );
    }

    #[test]
    fn fixed_high_rails_rail_to_rail() {
        let f = fig();
        assert!(
            !f.fixed_high.stable,
            "fixed@6000 should oscillate: {:?}",
            f.fixed_high.fan_oscillation
        );
        assert!(
            f.fixed_high.fan_oscillation.amplitude > 4000.0,
            "expected rail-scale swings: {:?}",
            f.fixed_high.fan_oscillation
        );
    }

    #[test]
    fn oscillation_severity_ranks_as_in_the_paper() {
        // adaptive < fixed@2000 < fixed@6000. (On this plant the plain
        // ZN-tuned fixed@2000 set hunts visibly rather than being merely
        // slow — see EXPERIMENTS.md for the deviation note.)
        let f = fig();
        let a = f.adaptive.fan_oscillation.amplitude;
        let lo = f.fixed_low.fan_oscillation.amplitude;
        let hi = f.fixed_high.fan_oscillation.amplitude;
        assert!(a < lo, "adaptive {a} vs fixed@2000 {lo}");
        assert!(lo <= hi + 1e-9, "fixed@2000 {lo} vs fixed@6000 {hi}");
    }

    #[test]
    fn adaptive_converges_no_slower_than_fixed_low() {
        let f = fig();
        let adaptive = f.adaptive.convergence_time.expect("adaptive settles");
        // Not settling within the phase at all is the paper's "very slow".
        if let Some(slow) = f.fixed_low.convergence_time {
            assert!(
                adaptive.value() <= slow.value() + 30.0,
                "adaptive {adaptive} vs fixed@2000 {slow}"
            );
        }
    }
}
