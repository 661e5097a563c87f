//! Ziegler–Nichols closed-loop (ultimate gain) tuning.
//!
//! The paper tunes its PID with the classic Ziegler–Nichols closed-loop
//! recipe: raise a proportional-only gain until the loop oscillates
//! indefinitely at steady state; the gain at that point is the ultimate
//! gain `K_u` and the oscillation period is `P_u`. The PID parameters then
//! follow Eq. (5)–(7):
//!
//! ```text
//! K_P = 0.6·K_u      K_I = K_P·(2/P_u)      K_D = K_P·(P_u/8)
//! ```
//!
//! [`ZnTuner`] automates the probing against any [`Plant`], using the
//! oscillation detector from `gfsc-sim` to classify closed-loop runs, and
//! a bisection to pin down the stability boundary.

use crate::PidGains;
use core::fmt;
use gfsc_sim::stats::{self, OscillationReport};

/// A single-input single-output plant stepped at the controller period.
///
/// `step` applies the control input held for one decision period and
/// returns the next measurement. `reset` restores the initial state so the
/// tuner can replay experiments from identical conditions.
///
/// The fan-controller plant (`gfsc-server`) returns the *measured* — i.e.
/// lagged and quantized — temperature, so tuning happens against the same
/// non-ideal loop the controller will face in production.
pub trait Plant {
    /// Restores the plant to its initial state.
    fn reset(&mut self);

    /// Applies `input` for one decision period; returns the measurement at
    /// the end of the period.
    fn step(&mut self, input: f64) -> f64;
}

/// The result of an ultimate-gain search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UltimateGain {
    /// The proportional gain at the edge of sustained oscillation.
    pub ku: f64,
    /// The oscillation period at `ku`, in decision periods.
    pub pu: f64,
}

/// Ziegler–Nichols gain formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZieglerNichols;

impl ZieglerNichols {
    /// The classic PID rule of Eq. (5)–(7). `pu` is in decision periods,
    /// matching the per-period error sum/difference of Eq. (4).
    ///
    /// # Panics
    ///
    /// Panics if `pu` is not positive.
    #[must_use]
    pub fn classic_pid(ultimate: UltimateGain) -> PidGains {
        assert!(ultimate.pu > 0.0, "ultimate period must be positive");
        let kp = 0.6 * ultimate.ku;
        PidGains::new(kp, kp * 2.0 / ultimate.pu, kp * ultimate.pu / 8.0)
    }

    /// The Tyreus–Luyben PID rule: `K_P = 0.45·K_u`,
    /// `K_I = K_P / (2.2·P_u)`, `K_D = K_P·P_u / 6.3`.
    ///
    /// Same closed-loop ultimate-gain measurement as the classic rule,
    /// but a far more conservative table — the standard choice when the
    /// loop is dominated by dead time (as the fan loop is: a 10 s sensor
    /// lag plus a 30 s zero-order hold), where quarter-amplitude ZN
    /// over-integrates and hunts.
    ///
    /// # Panics
    ///
    /// Panics if `pu` is not positive.
    #[must_use]
    pub fn tyreus_luyben(ultimate: UltimateGain) -> PidGains {
        assert!(ultimate.pu > 0.0, "ultimate period must be positive");
        let kp = 0.45 * ultimate.ku;
        PidGains::new(kp, kp / (2.2 * ultimate.pu), kp * ultimate.pu / 6.3)
    }
}

/// Why an ultimate-gain search failed.
#[derive(Debug, Clone, PartialEq)]
pub enum TuneError {
    /// The loop never oscillated up to the configured maximum gain.
    NoOscillationFound {
        /// The largest proportional gain probed.
        max_gain: f64,
    },
    /// The loop oscillated already at the smallest probed gain, so the
    /// boundary lies below the search range.
    AlwaysOscillating {
        /// The smallest proportional gain probed.
        min_gain: f64,
    },
    /// An oscillation was found but its period could not be measured.
    PeriodUndetectable,
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::NoOscillationFound { max_gain } => {
                write!(f, "no sustained oscillation up to gain {max_gain}")
            }
            TuneError::AlwaysOscillating { min_gain } => {
                write!(f, "loop already oscillates at minimum gain {min_gain}")
            }
            TuneError::PeriodUndetectable => write!(f, "oscillation period undetectable"),
        }
    }
}

impl std::error::Error for TuneError {}

/// Configuration of the ultimate-gain search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZnTunerConfig {
    /// Loop setpoint (the probing controller regulates toward this value).
    pub setpoint: f64,
    /// Constant actuator offset around which the P-probe acts.
    pub offset: f64,
    /// Smallest proportional gain probed.
    pub min_gain: f64,
    /// Largest proportional gain probed.
    pub max_gain: f64,
    /// Steps per probing run (should cover several plant time constants).
    pub steps_per_trial: usize,
    /// Fraction of the trial treated as steady state for oscillation
    /// detection (from the end).
    pub tail_fraction: f64,
    /// Oscillation-detector hysteresis in measurement units.
    pub hysteresis: f64,
    /// Minimum mean peak-to-trough amplitude to call the loop oscillating.
    pub min_amplitude: f64,
    /// Relative gain resolution at which the bisection stops.
    pub gain_tolerance: f64,
    /// Actuator kick added to the first probe step, exciting a loop that
    /// starts exactly at equilibrium (where the error — and hence the
    /// P-action — would otherwise be identically zero).
    pub excitation: f64,
}

impl Default for ZnTunerConfig {
    fn default() -> Self {
        Self {
            setpoint: 0.0,
            offset: 0.0,
            min_gain: 1e-3,
            max_gain: 1e6,
            steps_per_trial: 400,
            tail_fraction: 0.5,
            hysteresis: 0.05,
            min_amplitude: 0.1,
            gain_tolerance: 0.01,
            excitation: 0.0,
        }
    }
}

/// Closed-loop Ziegler–Nichols ultimate-gain tuner.
///
/// For each candidate gain the tuner resets the plant, runs a
/// proportional-only loop (`u = offset + k_p·(y − setpoint)`, the
/// reverse-acting convention of this crate), and classifies the tail of the
/// response with the turning-point oscillation detector. A geometric sweep
/// brackets the smallest oscillating gain; bisection refines it.
///
/// # Examples
///
/// See the crate-level tests; plants live in `gfsc-server`.
#[derive(Debug, Clone)]
pub struct ZnTuner {
    config: ZnTunerConfig,
}

impl ZnTuner {
    /// Creates a tuner with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the gain range or trial parameters are degenerate, if
    /// `hysteresis` is not positive, or if `gain_tolerance` is below
    /// `f64::EPSILON` (or NaN): the bisection can never resolve a finer
    /// relative step, so it would stop moving without ever finishing.
    #[must_use]
    pub fn new(config: ZnTunerConfig) -> Self {
        assert!(config.min_gain > 0.0, "min gain must be positive");
        assert!(config.max_gain > config.min_gain, "gain range must be non-empty");
        assert!(config.steps_per_trial >= 16, "trial too short to classify");
        assert!(
            config.tail_fraction > 0.0 && config.tail_fraction <= 1.0,
            "tail fraction must lie in (0, 1]"
        );
        assert!(config.hysteresis > 0.0, "hysteresis must be positive");
        assert!(
            config.gain_tolerance >= f64::EPSILON,
            "gain tolerance must be at least f64::EPSILON"
        );
        Self { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &ZnTunerConfig {
        &self.config
    }

    /// Runs one proportional-only trial and returns the oscillation report
    /// of its steady-state tail.
    pub fn probe<P: Plant>(&self, plant: &mut P, kp: f64) -> OscillationReport {
        plant.reset();
        let c = &self.config;
        let mut outputs = Vec::with_capacity(c.steps_per_trial);
        let mut u = c.offset + c.excitation;
        for _ in 0..c.steps_per_trial {
            let y = plant.step(u);
            outputs.push(y);
            u = c.offset + kp * (y - c.setpoint);
        }
        let tail_start = ((1.0 - c.tail_fraction) * c.steps_per_trial as f64) as usize;
        let tail = &outputs[tail_start..];
        let times: Vec<f64> = (0..tail.len()).map(|k| k as f64).collect();
        stats::detect_oscillation(&times, tail, c.hysteresis)
    }

    fn oscillates(&self, report: &OscillationReport) -> bool {
        report.is_sustained(self.config.min_amplitude)
    }

    /// Searches for the ultimate gain and period.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError`] if the loop never (or always) oscillates in
    /// the configured gain range, or the period cannot be measured.
    pub fn find_ultimate_gain<P: Plant>(&self, plant: &mut P) -> Result<UltimateGain, TuneError> {
        let c = &self.config;
        // Geometric sweep to bracket the boundary.
        if self.oscillates(&self.probe(plant, c.min_gain)) {
            return Err(TuneError::AlwaysOscillating { min_gain: c.min_gain });
        }
        let mut lo = c.min_gain;
        let mut hi = c.min_gain;
        // The report of the probe that last set `hi`: every probe starts
        // from `Plant::reset`, so it is the report at `K_u`.
        let mut at_hi = None;
        while hi < c.max_gain {
            hi = (hi * 2.0).min(c.max_gain);
            let report = self.probe(plant, hi);
            if self.oscillates(&report) {
                at_hi = Some(report);
                break;
            }
            lo = hi;
        }
        let Some(mut at_hi) = at_hi else {
            return Err(TuneError::NoOscillationFound { max_gain: c.max_gain });
        };
        // Bisection down to the requested resolution.
        while (hi - lo) / hi > c.gain_tolerance {
            let mid = f64::midpoint(lo, hi);
            let report = self.probe(plant, mid);
            if self.oscillates(&report) {
                hi = mid;
                at_hi = report;
            } else {
                lo = mid;
            }
        }
        let pu = at_hi.period.ok_or(TuneError::PeriodUndetectable)?.value();
        if pu <= 0.0 {
            return Err(TuneError::PeriodUndetectable);
        }
        Ok(UltimateGain { ku: hi, pu })
    }

    /// Convenience: ultimate-gain search followed by the classic PID rule.
    ///
    /// # Errors
    ///
    /// Propagates [`TuneError`] from the search.
    pub fn tune_pid<P: Plant>(&self, plant: &mut P) -> Result<PidGains, TuneError> {
        Ok(ZieglerNichols::classic_pid(self.find_ultimate_gain(plant)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reverse-acting first-order lag plant with transport delay:
    /// `y_ss(u) = bias − g·u`, `y ← y + λ·(y_ss(u_delayed) − y)`.
    ///
    /// With P-only control this is the textbook system whose closed loop
    /// goes unstable beyond a finite gain (because of the delay).
    #[derive(Clone)]
    struct DelayedLagPlant {
        bias: f64,
        gain: f64,
        lambda: f64,
        delay: usize,
        y: f64,
        inputs: Vec<f64>,
        y0: f64,
    }

    impl DelayedLagPlant {
        fn new(bias: f64, gain: f64, lambda: f64, delay: usize, y0: f64) -> Self {
            Self { bias, gain, lambda, delay, y: y0, inputs: vec![0.0; delay], y0 }
        }
    }

    impl Plant for DelayedLagPlant {
        fn reset(&mut self) {
            self.y = self.y0;
            self.inputs = vec![0.0; self.delay];
        }

        fn step(&mut self, input: f64) -> f64 {
            self.inputs.push(input);
            let applied = self.inputs.remove(0);
            let y_ss = self.bias - self.gain * applied;
            self.y += self.lambda * (y_ss - self.y);
            self.y
        }
    }

    fn test_plant() -> DelayedLagPlant {
        // bias 80, gain 0.01 (u in "rpm", y in "K"), lambda 0.2, delay 3.
        DelayedLagPlant::new(80.0, 0.01, 0.2, 3, 80.0)
    }

    fn tuner() -> ZnTuner {
        ZnTuner::new(ZnTunerConfig {
            setpoint: 60.0,
            offset: 2000.0,
            min_gain: 1.0,
            max_gain: 100_000.0,
            steps_per_trial: 600,
            tail_fraction: 0.5,
            hysteresis: 0.05,
            min_amplitude: 0.2,
            gain_tolerance: 0.005,
            excitation: 0.0,
        })
    }

    #[test]
    fn zn_formulas_match_paper() {
        let g = ZieglerNichols::classic_pid(UltimateGain { ku: 100.0, pu: 8.0 });
        assert_eq!(g.kp(), 60.0);
        assert_eq!(g.ki(), 15.0);
        assert_eq!(g.kd(), 60.0);
    }

    #[test]
    fn probe_classifies_low_gain_as_stable() {
        let mut plant = test_plant();
        let t = tuner();
        let report = t.probe(&mut plant, 5.0);
        assert!(!report.is_sustained(0.2), "low gain should be stable: {report:?}");
    }

    #[test]
    fn probe_classifies_high_gain_as_oscillating() {
        let mut plant = test_plant();
        let t = tuner();
        let report = t.probe(&mut plant, 50_000.0);
        assert!(report.is_sustained(0.2), "high gain should oscillate: {report:?}");
    }

    #[test]
    fn finds_ultimate_gain_of_delayed_lag() {
        let mut plant = test_plant();
        let t = tuner();
        let ug = t.find_ultimate_gain(&mut plant).expect("tunable plant");
        // The boundary is sharp: just below stable, just above oscillating.
        assert!(!t.oscillates(&t.probe(&mut plant, ug.ku * 0.9)), "0.9·Ku oscillates");
        assert!(t.oscillates(&t.probe(&mut plant, ug.ku * 1.1)), "1.1·Ku stable");
        // Period should be a few controller steps (delay-dominated loop).
        assert!(ug.pu > 2.0 && ug.pu < 50.0, "pu {}", ug.pu);
    }

    /// Records the input sequence of every probe; a probe starts at
    /// `reset`.
    struct RecordingPlant {
        inner: DelayedLagPlant,
        probes: Vec<Vec<f64>>,
    }

    impl Plant for RecordingPlant {
        fn reset(&mut self) {
            self.inner.reset();
            self.probes.push(Vec::new());
        }

        fn step(&mut self, input: f64) -> f64 {
            self.probes.last_mut().expect("a probe starts at reset").push(input);
            self.inner.step(input)
        }
    }

    #[test]
    fn each_gain_is_probed_once() {
        let mut plant = RecordingPlant { inner: test_plant(), probes: Vec::new() };
        let ug = tuner().find_ultimate_gain(&mut plant).expect("tunable");
        for (i, probe) in plant.probes.iter().enumerate() {
            assert!(!plant.probes[..i].contains(probe), "probe {i} replays an earlier probe");
        }
        // Ladder rungs 1, 2, 4, …, 256, then the bisection of [128, 256]
        // down to 0.5 % in seven midpoints; `P_u` comes from the probe
        // that last set `K_u`.
        assert_eq!(plant.probes.len(), 9 + 7, "K_u {}", ug.ku);
    }

    #[test]
    fn tuned_pid_is_stable_in_closed_loop() {
        let mut plant = test_plant();
        let t = tuner();
        let gains = t.tune_pid(&mut plant).expect("tunable");
        // Run the full PID in closed loop and verify convergence near the
        // setpoint with no sustained oscillation.
        plant.reset();
        let mut pid = crate::PidController::new(gains).with_offset(2000.0);
        let mut ys = Vec::new();
        let mut u = 2000.0;
        for _ in 0..1500 {
            let y = plant.step(u);
            ys.push(y);
            u = pid.update(y - 60.0);
        }
        let tail = &ys[1300..];
        let mean_tail = stats::mean(tail);
        assert!((mean_tail - 60.0).abs() < 0.5, "steady state {mean_tail}");
        let times: Vec<f64> = (0..tail.len()).map(|k| k as f64).collect();
        let rep = stats::detect_oscillation(&times, tail, 0.05);
        assert!(!rep.is_sustained(0.5), "tuned loop oscillates: {rep:?}");
    }

    #[test]
    fn error_when_plant_cannot_oscillate() {
        /// A pure first-order lag with no delay never truly oscillates.
        struct NoDelay {
            y: f64,
        }
        impl Plant for NoDelay {
            fn reset(&mut self) {
                self.y = 10.0;
            }
            fn step(&mut self, input: f64) -> f64 {
                // Heavy damping: y moves 1 % toward (5 - 0.001 u).
                self.y += 0.01 * ((5.0 - 0.001 * input) - self.y);
                self.y
            }
        }
        let t = ZnTuner::new(ZnTunerConfig {
            setpoint: 5.0,
            max_gain: 10.0,
            steps_per_trial: 100,
            ..ZnTunerConfig::default()
        });
        let mut plant = NoDelay { y: 10.0 };
        match t.find_ultimate_gain(&mut plant) {
            Err(TuneError::NoOscillationFound { max_gain }) => assert_eq!(max_gain, 10.0),
            other => panic!("expected NoOscillationFound, got {other:?}"),
        }
    }

    #[test]
    fn error_display() {
        assert!(TuneError::PeriodUndetectable.to_string().contains("period"));
        assert!(TuneError::NoOscillationFound { max_gain: 3.0 }.to_string().contains("3"));
        assert!(TuneError::AlwaysOscillating { min_gain: 0.5 }.to_string().contains("0.5"));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn degenerate_gain_range_rejected() {
        let _ = ZnTuner::new(ZnTunerConfig { min_gain: 1.0, max_gain: 1.0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "gain tolerance")]
    fn zero_gain_tolerance_rejected() {
        // Would bisect forever once `lo` and `hi` are adjacent floats.
        let _ = ZnTuner::new(ZnTunerConfig { gain_tolerance: 0.0, ..tuner().config });
    }

    #[test]
    #[should_panic(expected = "gain tolerance")]
    fn gain_tolerance_finer_than_a_float_step_rejected() {
        let _ = ZnTuner::new(ZnTunerConfig { gain_tolerance: 1e-20, ..tuner().config });
    }

    #[test]
    #[should_panic(expected = "gain tolerance")]
    fn nan_gain_tolerance_rejected() {
        // Would skip the bisection and report the bracketing rung as K_u.
        let _ = ZnTuner::new(ZnTunerConfig { gain_tolerance: f64::NAN, ..tuner().config });
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn non_positive_hysteresis_rejected() {
        let _ = ZnTuner::new(ZnTunerConfig { hysteresis: 0.0, ..tuner().config });
    }
}
