//! High-level simulation assembly: spec + workload + solution → closed
//! loop.

use crate::{tune_gain_schedule, Solution};
use gfsc_control::{AdaptivePid, GainSchedule};
use gfsc_coord::RunOutcome;
use gfsc_coord::{
    AdaptiveReference, ClosedLoopSim, EnergyAwareCoordinator, RuleBasedCoordinator,
    SingleStepFanScaling, Uncoordinated, FIXED_REFERENCE,
};
use gfsc_server::ServerSpec;
use gfsc_units::{Rpm, Seconds, Utilization};
use gfsc_workload::{SquareWave, Workload};

/// The paper's evaluation workload: demand alternating 0.1 ↔ 0.7 with
/// Gaussian noise (σ = 0.04) and Poisson load spikes (+0.8 for 30 s, one
/// every ~4 minutes on average — the "abrupt spikes on required CPU
/// utilization" that motivate single-step fan scaling), all deterministic
/// under `seed`.
#[must_use]
pub fn date14_workload(seed: u64) -> Workload {
    Workload::builder(SquareWave::date14())
        .gaussian_noise(0.04, seed)
        .spikes(1.0 / 240.0, Seconds::new(30.0), 0.8, seed.wrapping_add(1))
        .build()
}

/// Builder for [`Simulation`].
#[derive(Debug)]
pub struct SimulationBuilder {
    spec: ServerSpec,
    solution: Solution,
    seed: u64,
    workload: Option<Workload>,
    gain_schedule: Option<GainSchedule>,
}

impl SimulationBuilder {
    /// Overrides the server calibration (default: Table I).
    #[must_use]
    pub fn spec(mut self, spec: ServerSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Selects the coordination solution (default: the full proposal).
    #[must_use]
    pub fn solution(mut self, solution: Solution) -> Self {
        self.solution = solution;
        self
    }

    /// Seeds the stochastic workload stages (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the default DATE'14 workload entirely.
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Supplies a pre-tuned fan gain schedule, skipping the per-build
    /// Ziegler–Nichols tuning for non-default specs. The scenario-sweep
    /// engine tunes once per distinct spec variant and passes the result
    /// through here, so an N-scenario grid doesn't tune N times.
    #[must_use]
    pub fn gain_schedule(mut self, schedule: GainSchedule) -> Self {
        self.gain_schedule = Some(schedule);
        self
    }

    /// Assembles the closed loop.
    #[must_use]
    pub fn build(self) -> Simulation {
        let spec = self.spec;
        let workload = self.workload.unwrap_or_else(|| date14_workload(self.seed));

        // Gain schedule: the finer four-region schedule re-bases the PID
        // linearization point across the whole speed range (cached for the
        // default plant, tuned ad hoc for modified specs unless a pre-tuned
        // schedule was supplied).
        let schedule = if let Some(schedule) = self.gain_schedule {
            schedule
        } else if spec == ServerSpec::enterprise_default() {
            crate::fine_gain_schedule().clone()
        } else {
            tune_gain_schedule(
                &spec,
                &[Rpm::new(2000.0), Rpm::new(3500.0), Rpm::new(5000.0), Rpm::new(7000.0)],
            )
        };
        let fan = AdaptivePid::date14_configured(
            schedule,
            FIXED_REFERENCE,
            spec.fan_bounds,
            spec.quantization_step,
        );

        let mut builder = ClosedLoopSim::builder()
            .spec(spec.clone())
            .workload(workload)
            .fan(fan)
            .start_at(Utilization::new(0.1), Rpm::new(1500.0));

        builder = match self.solution {
            Solution::WithoutCoordination => builder.coordinator(Uncoordinated),
            Solution::ECoord => builder.coordinator(EnergyAwareCoordinator::date14()),
            _ => builder.coordinator(RuleBasedCoordinator::new(spec.t_safe)),
        };
        if self.solution.uses_adaptive_reference() {
            builder = builder.adaptive_reference(AdaptiveReference::date14());
        }
        if self.solution.uses_single_step() {
            builder = builder.single_step(SingleStepFanScaling::new(0.3));
        }

        Simulation { inner: builder.build(), solution: self.solution }
    }
}

/// A ready-to-run reproduction scenario: one solution on one workload.
///
/// # Examples
///
/// ```
/// use gfsc::{Simulation, Solution};
/// use gfsc_units::Seconds;
///
/// let outcome = Simulation::builder()
///     .solution(Solution::RCoordFixedTref)
///     .seed(7)
///     .build()
///     .run(Seconds::new(600.0));
/// assert_eq!(outcome.total_epochs, 601);
/// ```
pub struct Simulation {
    inner: ClosedLoopSim,
    solution: Solution,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation").field("solution", &self.solution).finish_non_exhaustive()
    }
}

impl Simulation {
    /// Starts building a scenario.
    #[must_use]
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder {
            spec: ServerSpec::enterprise_default(),
            solution: Solution::RCoordAdaptiveTrefSsFan,
            seed: 0,
            workload: None,
            gain_schedule: None,
        }
    }

    /// The selected solution.
    #[must_use]
    pub fn solution(&self) -> Solution {
        self.solution
    }

    /// Runs the scenario for `horizon` simulated seconds.
    pub fn run(mut self, horizon: Seconds) -> RunOutcome {
        self.inner.run(horizon)
    }

    /// Unwraps the assembled closed loop, for executors that drive several
    /// simulations in lockstep (`gfsc_coord::run_batch`) instead of
    /// calling [`Simulation::run`] on each.
    pub(crate) fn into_closed_loop(self) -> ClosedLoopSim {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_solution_builds_and_runs() {
        for solution in Solution::ALL {
            let outcome =
                Simulation::builder().solution(solution).seed(3).build().run(Seconds::new(120.0));
            assert_eq!(outcome.total_epochs, 121, "{solution}");
        }
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let mut a = date14_workload(9);
        let mut b = date14_workload(9);
        for k in 0..600 {
            let t = Seconds::new(k as f64);
            assert_eq!(a.sample(t), b.sample(t));
        }
    }

    #[test]
    fn builder_accessors() {
        let sim = Simulation::builder().solution(Solution::ECoord).seed(1).build();
        assert_eq!(sim.solution(), Solution::ECoord);
        assert!(format!("{sim:?}").contains("ECoord"));
    }
}
