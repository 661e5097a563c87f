//! Global coordination of the two local controllers.

use gfsc_server::Server;
use gfsc_units::{Bounds, Celsius, Rpm, Utilization};

/// Direction of the most recent *applied* fan decision, latched for the
/// rest of the fan period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FanDirection {
    /// The last fan decision raised the target speed.
    Up,
    /// The last fan decision lowered the target speed.
    Down,
    /// The last fan decision kept the target speed (or none happened yet).
    #[default]
    Steady,
}

impl FanDirection {
    /// Classifies a fan transition with a small tolerance.
    #[must_use]
    pub fn of(current: Rpm, next: Rpm) -> Self {
        let delta = next - current;
        if delta > 1e-6 {
            FanDirection::Up
        } else if delta < -1e-6 {
            FanDirection::Down
        } else {
            FanDirection::Steady
        }
    }
}

/// Everything a coordinator may consult when arbitrating one epoch.
#[derive(Debug)]
pub struct CoordinationInputs<'a> {
    /// The plant (read-only): model-based coordinators use its thermal
    /// model and spec.
    pub server: &'a Server,
    /// The firmware-visible temperature this epoch.
    pub measured: Celsius,
    /// The CPU cap currently in force.
    pub current_cap: Utilization,
    /// The capper's proposal for the next epoch.
    pub proposed_cap: Utilization,
    /// The fan target currently in force.
    pub current_fan_target: Rpm,
    /// The fan controller's proposal, present only at fan decision epochs.
    pub proposed_fan: Option<Rpm>,
    /// Filtered demand prediction (for model-based fan sizing).
    pub predicted_demand: Utilization,
}

/// The arbitration result: the cap to enforce and, optionally, a new fan
/// target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoordinationOutcome {
    /// CPU cap to enforce for the next epoch.
    pub cap: Utilization,
    /// New fan target, or `None` to leave the fan command unchanged.
    pub fan_target: Option<Rpm>,
}

/// A global coordination policy over the two local control knobs.
pub trait Coordinator {
    /// Arbitrates one epoch.
    fn coordinate(&mut self, inputs: &CoordinationInputs<'_>) -> CoordinationOutcome;

    /// Clears internal state (latches, hysteresis).
    fn reset(&mut self) {}
}

/// The paper's Table II, verbatim: given current values and both local
/// proposals, actuate exactly one knob.
///
/// | cap \ fan | `s↓`     | `s=`     | `s↑`     |
/// |-----------|----------|----------|----------|
/// | `u↓`      | `s_fan↓` | `u_cpu↓` | `s_fan↑` |
/// | `u=`      | `s_fan↓` | —        | `s_fan↑` |
/// | `u↑`      | `u_cpu↑` | `u_cpu↑` | `s_fan↑` |
///
/// Returns the `(cap, fan_target)` pair after arbitration; the knob that
/// lost keeps its current value.
#[must_use]
pub fn rule_matrix(
    current_cap: Utilization,
    proposed_cap: Utilization,
    current_fan: Rpm,
    proposed_fan: Rpm,
) -> (Utilization, Rpm) {
    use core::cmp::Ordering::{Equal, Greater, Less};
    let cap_dir = match proposed_cap.value() - current_cap.value() {
        d if d > 1e-12 => Greater,
        d if d < -1e-12 => Less,
        _ => Equal,
    };
    let fan_dir = match proposed_fan - current_fan {
        d if d > 1e-6 => Greater,
        d if d < -1e-6 => Less,
        _ => Equal,
    };
    match (cap_dir, fan_dir) {
        // Fan increases always win (performance bias): a fan set too low
        // degrades performance until the *next* fan period.
        (_, Greater) => (current_cap, proposed_fan),
        // Single-knob proposals pass through.
        (Less, Equal) => (proposed_cap, current_fan),
        (Equal, Less) => (current_cap, proposed_fan),
        (Equal, Equal) => (current_cap, current_fan),
        // Conflicting non-increase proposals: prefer the performance-
        // friendly choice.
        (Less, Less) => (current_cap, proposed_fan), // s_fan↓ (don't cut cap)
        (Greater, Less) => (proposed_cap, current_fan), // u_cpu↑ (keep airflow)
        (Greater, Equal) => (proposed_cap, current_fan), // u_cpu↑
    }
}

/// Both local proposals applied blindly — the `w/o coordination` baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Uncoordinated;

impl Coordinator for Uncoordinated {
    fn coordinate(&mut self, inputs: &CoordinationInputs<'_>) -> CoordinationOutcome {
        CoordinationOutcome { cap: inputs.proposed_cap, fan_target: inputs.proposed_fan }
    }
}

/// The paper's rule-based global controller (Section V-A): Table II at
/// co-decision epochs plus in-flight protection between them.
///
/// Between fan decisions, cap *decreases* are suppressed while a fan
/// response is demonstrably in flight, meaning any of:
///
/// - the last fan decision raised the target (latched `Up`),
/// - the actuator is still slewing upward toward its target,
/// - a fan raise happened within the *measurement grace window*
///   (sensor lag + spin-up time): the telemetry physically cannot reflect
///   the raise yet, so over-threshold readings inside the window are the
///   transport lag replaying the past,
/// - the measured temperature is already falling — the excursion has
///   turned around; cutting the cap on the stale tail would pay the
///   performance price for heat that is already gone.
///
/// Cap increases always pass. A safety override re-enables cuts when the
/// measurement sits at the safety limit, the fan is already commanded to
/// its maximum, the grace window has expired, *and* the temperature is
/// not falling — i.e. when the maxed-out fan demonstrably does not cool
/// the junction below the limit.
#[derive(Debug, Clone)]
pub struct RuleBasedCoordinator {
    latched: FanDirection,
    t_safety: Celsius,
    last_measured: Option<Celsius>,
    falling_age: Option<u32>,
    falling_validity: u32,
    epochs_since_raise: Option<u32>,
}

impl RuleBasedCoordinator {
    /// Creates the coordinator with the DTM safety limit at which cap cuts
    /// are always honored (unless the temperature is already falling or a
    /// fan raise is inside its measurement grace window).
    #[must_use]
    pub fn new(t_safety: Celsius) -> Self {
        Self {
            latched: FanDirection::Steady,
            t_safety,
            last_measured: None,
            falling_age: None,
            falling_validity: 5,
            epochs_since_raise: None,
        }
    }

    /// The currently latched fan direction.
    #[must_use]
    pub fn latched(&self) -> FanDirection {
        self.latched
    }

    /// Updates the falling-trend tracker with this epoch's measurement and
    /// returns whether the temperature is considered falling.
    ///
    /// On the quantized grid a steady descent shows up as a −1 step every
    /// few epochs with plateaus in between, so a downward step stays valid
    /// for `falling_validity` epochs unless contradicted by a rise.
    fn update_trend(&mut self, measured: Celsius) -> bool {
        if let Some(last) = self.last_measured {
            if measured < last {
                self.falling_age = Some(0);
            } else if measured > last {
                self.falling_age = None;
            } else if let Some(age) = self.falling_age {
                self.falling_age = (age < self.falling_validity).then_some(age + 1);
            }
        }
        self.last_measured = Some(measured);
        self.falling_age.is_some()
    }
}

impl Coordinator for RuleBasedCoordinator {
    fn coordinate(&mut self, inputs: &CoordinationInputs<'_>) -> CoordinationOutcome {
        let falling = self.update_trend(inputs.measured);
        let spec = inputs.server.spec();
        // The measurement cannot reflect a fan raise earlier than the
        // sensor transport lag plus the spin-up time to the commanded
        // target (full range / slew as a conservative bound).
        let grace_epochs = (spec.sensor_lag.value()
            + (spec.fan_bounds.hi() - spec.fan_bounds.lo()) / spec.fan_slew.value())
            / spec.cpu_control_interval.value();
        let in_grace = self.epochs_since_raise.is_some_and(|age| f64::from(age) <= grace_epochs);
        if let Some(age) = &mut self.epochs_since_raise {
            *age = age.saturating_add(1);
        }

        match inputs.proposed_fan {
            Some(fan_prop) => {
                let (cap, fan) = rule_matrix(
                    inputs.current_cap,
                    inputs.proposed_cap,
                    inputs.current_fan_target,
                    fan_prop,
                );
                self.latched = FanDirection::of(inputs.current_fan_target, fan);
                if self.latched == FanDirection::Up {
                    self.epochs_since_raise = Some(0);
                }
                CoordinationOutcome { cap, fan_target: Some(fan) }
            }
            None => {
                let wants_cut = inputs.proposed_cap < inputs.current_cap;
                let fan_slewing_up = inputs.current_fan_target > inputs.server.fan_speed();
                let in_flight =
                    self.latched == FanDirection::Up || fan_slewing_up || in_grace || falling;
                let fan_maxed = inputs.current_fan_target >= spec.fan_bounds.hi();
                let safety = inputs.measured >= self.t_safety && fan_maxed && !falling && !in_grace;
                let cap = if wants_cut && in_flight && !safety {
                    inputs.current_cap
                } else {
                    inputs.proposed_cap
                };
                CoordinationOutcome { cap, fan_target: None }
            }
        }
    }

    fn reset(&mut self) {
        self.latched = FanDirection::Steady;
        self.last_measured = None;
        self.falling_age = None;
        self.epochs_since_raise = None;
    }
}

/// The E-coord baseline (after Ayoub et al., JETC/HPCA'11): choose control
/// actions by *energy efficiency*, ignoring the performance cost.
///
/// - **Fan policy** (model-based, replaces the PID proposal): at fan
///   epochs, command the lowest speed whose steady-state junction
///   temperature for what is currently executing stays at
///   `t_emergency − fan_margin` — the energy-optimal airflow.
/// - **Thermal events** (`T_meas ≥ t_emergency`): pick the corrective knob
///   with the best temperature-drop-per-extra-watt. Cutting the cap
///   *saves* power while cooling, so it always wins; the fan is raised
///   only if the cap has hit its floor.
/// - **Recovery**: the cap is restored (at the capper's raise step) once
///   the measurement is at or below the recovery threshold.
#[derive(Debug, Clone)]
pub struct EnergyAwareCoordinator {
    t_emergency: Celsius,
    fan_margin: f64,
    recovery_threshold: Celsius,
    cap_raise_step: f64,
    cap_cut_step: f64,
    cap_floor: Utilization,
}

impl EnergyAwareCoordinator {
    /// The calibration used in the Table III comparison: emergencies at
    /// 80 °C, fan sized for 79 °C (energy-first: run as close to the limit
    /// as the model allows), recovery only below 78 °C, 3 %/s raises and
    /// 10 %/s cuts, 10 % cap floor.
    ///
    /// Note the structural trap that the paper criticizes: the scheme
    /// regulates the junction to 79 °C with the *cheapest* airflow, but
    /// only restores capped performance below 78 °C — a state its own fan
    /// policy never produces under sustained load. After a thermal event
    /// the cap therefore stays down until the load itself drops, which is
    /// exactly the "huge performance degradation" behaviour of Table III.
    #[must_use]
    pub fn date14() -> Self {
        Self {
            t_emergency: Celsius::new(80.0),
            fan_margin: 1.0,
            recovery_threshold: Celsius::new(78.0),
            cap_raise_step: 0.03,
            cap_cut_step: 0.10,
            cap_floor: Utilization::new(0.10),
        }
    }

    /// The rack calibration: the [`Self::date14`] rule set with the fan
    /// margin opened to 4 K, so each wall is sized for 76 °C — *below* the
    /// 78 °C recovery threshold. The zone's own airflow then produces the
    /// recovery state after a thermal event and caps restore without
    /// waiting for the load to drop, which is what lets the zone descent
    /// hold equal-or-fewer violations than the lockstep baseline (on the
    /// 2U boards too, whose downstream sockets overshoot hardest) while
    /// still running far leaner than a 75 °C PID on every wall. (The
    /// single-server `date14` margin of 1 K is kept for the Table III
    /// reproduction, trap included.)
    #[must_use]
    pub fn date14_rack() -> Self {
        Self { fan_margin: 4.0, ..Self::date14() }
    }

    /// Whether `measured` is at or above the thermal-event threshold.
    #[must_use]
    pub fn is_emergency(&self, measured: Celsius) -> bool {
        measured >= self.t_emergency
    }

    /// The steady-state junction target the model-based fan sizing aims
    /// for (`t_emergency − fan_margin`).
    #[must_use]
    pub fn fan_sizing_limit(&self) -> Celsius {
        self.t_emergency - self.fan_margin
    }

    /// The scheme's cap policy, one epoch: emergency → cut toward the
    /// floor, cool enough → restore at the raise step, otherwise hold.
    ///
    /// This is the exact decision [`Coordinator::coordinate`] applies; the
    /// rack's E-coord modes call the same method against zone
    /// measurements instead of duplicating it.
    #[must_use]
    pub fn next_cap(&self, measured: Celsius, current: Utilization) -> Utilization {
        if self.is_emergency(measured) {
            if current > self.cap_floor {
                self.cap_floor.max(current.saturating_add(-self.cap_cut_step))
            } else {
                current
            }
        } else if measured <= self.recovery_threshold {
            current.saturating_add(self.cap_raise_step).min(Utilization::FULL)
        } else {
            current
        }
    }

    /// The fan command this epoch, if any. In an emergency the cap cut
    /// saves energy while cooling, so it wins whenever the cap can still
    /// move: the fan goes to the upper bound only once `current_cap` (the
    /// cap in force *before* [`Self::next_cap`] applies) sits at its
    /// floor. Otherwise, at a fan epoch, the energy-optimal airflow:
    /// `min_safe(limit)`, the model inversion at the sizing limit for what
    /// is *currently executing*, clamped to `bounds` — or the upper bound
    /// when no speed holds the limit. Sizing is reactive: the scheme
    /// optimizes the present operating point rather than anticipating
    /// demand it has already capped away.
    #[must_use]
    pub fn fan_command(
        &self,
        measured: Celsius,
        current_cap: Utilization,
        fan_epoch: bool,
        bounds: Bounds<Rpm>,
        min_safe: impl FnOnce(Celsius) -> Option<Rpm>,
    ) -> Option<Rpm> {
        if self.is_emergency(measured) {
            (current_cap <= self.cap_floor).then(|| bounds.hi())
        } else if fan_epoch {
            Some(bounds.clamp(min_safe(self.fan_sizing_limit()).unwrap_or(bounds.hi())))
        } else {
            None
        }
    }
}

impl Coordinator for EnergyAwareCoordinator {
    fn coordinate(&mut self, inputs: &CoordinationInputs<'_>) -> CoordinationOutcome {
        let server = inputs.server;
        let fan_target = self.fan_command(
            inputs.measured,
            inputs.current_cap,
            inputs.proposed_fan.is_some(),
            server.spec().fan_bounds,
            |limit| server.min_safe_fan_speed(server.executed_utilization(), limit),
        );
        CoordinationOutcome { cap: self.next_cap(inputs.measured, inputs.current_cap), fan_target }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfsc_rack::{RackPlant, RackSpec, RackTopology, RackZoneDef, ServerSlot};
    use gfsc_server::ServerSpec;
    use gfsc_thermal::Topology;
    use gfsc_units::Watts;

    fn u(x: f64) -> Utilization {
        Utilization::new(x)
    }

    fn rpm(x: f64) -> Rpm {
        Rpm::new(x)
    }

    // ------------------------------------------------------------------
    // Table II: all nine cells, exhaustively.
    // ------------------------------------------------------------------

    #[test]
    fn table2_cap_down_fan_down_lowers_fan_only() {
        let (cap, fan) = rule_matrix(u(0.5), u(0.4), rpm(4000.0), rpm(3500.0));
        assert_eq!((cap, fan), (u(0.5), rpm(3500.0)));
    }

    #[test]
    fn table2_cap_down_fan_equal_lowers_cap() {
        let (cap, fan) = rule_matrix(u(0.5), u(0.4), rpm(4000.0), rpm(4000.0));
        assert_eq!((cap, fan), (u(0.4), rpm(4000.0)));
    }

    #[test]
    fn table2_cap_down_fan_up_raises_fan_only() {
        let (cap, fan) = rule_matrix(u(0.5), u(0.4), rpm(4000.0), rpm(5000.0));
        assert_eq!((cap, fan), (u(0.5), rpm(5000.0)));
    }

    #[test]
    fn table2_cap_equal_fan_down_lowers_fan() {
        let (cap, fan) = rule_matrix(u(0.5), u(0.5), rpm(4000.0), rpm(3500.0));
        assert_eq!((cap, fan), (u(0.5), rpm(3500.0)));
    }

    #[test]
    fn table2_no_change_anywhere() {
        let (cap, fan) = rule_matrix(u(0.5), u(0.5), rpm(4000.0), rpm(4000.0));
        assert_eq!((cap, fan), (u(0.5), rpm(4000.0)));
    }

    #[test]
    fn table2_cap_equal_fan_up_raises_fan() {
        let (cap, fan) = rule_matrix(u(0.5), u(0.5), rpm(4000.0), rpm(5000.0));
        assert_eq!((cap, fan), (u(0.5), rpm(5000.0)));
    }

    #[test]
    fn table2_cap_up_fan_down_raises_cap_only() {
        let (cap, fan) = rule_matrix(u(0.5), u(0.6), rpm(4000.0), rpm(3500.0));
        assert_eq!((cap, fan), (u(0.6), rpm(4000.0)));
    }

    #[test]
    fn table2_cap_up_fan_equal_raises_cap() {
        let (cap, fan) = rule_matrix(u(0.5), u(0.6), rpm(4000.0), rpm(4000.0));
        assert_eq!((cap, fan), (u(0.6), rpm(4000.0)));
    }

    #[test]
    fn table2_cap_up_fan_up_raises_fan_only() {
        let (cap, fan) = rule_matrix(u(0.5), u(0.6), rpm(4000.0), rpm(5000.0));
        assert_eq!((cap, fan), (u(0.5), rpm(5000.0)));
    }

    #[test]
    fn rule_matrix_actuates_at_most_one_knob() {
        // Property spelled out: for any combination, at most one of the
        // two outputs differs from its current value.
        for cap_prop in [0.4, 0.5, 0.6] {
            for fan_prop in [3500.0, 4000.0, 4500.0] {
                let (cap, fan) = rule_matrix(u(0.5), u(cap_prop), rpm(4000.0), rpm(fan_prop));
                let cap_moved = (cap - u(0.5)).abs() > 1e-12;
                let fan_moved = (fan - rpm(4000.0)).abs() > 1e-6;
                assert!(!(cap_moved && fan_moved), "both knobs moved for ({cap_prop}, {fan_prop})");
            }
        }
    }

    // ------------------------------------------------------------------
    // Coordinators.
    // ------------------------------------------------------------------

    fn server() -> Server {
        Server::new(ServerSpec::enterprise_default())
    }

    fn inputs<'a>(
        server: &'a Server,
        measured: f64,
        cap: f64,
        cap_prop: f64,
        fan: f64,
        fan_prop: Option<f64>,
    ) -> CoordinationInputs<'a> {
        CoordinationInputs {
            server,
            measured: Celsius::new(measured),
            current_cap: u(cap),
            proposed_cap: u(cap_prop),
            current_fan_target: rpm(fan),
            proposed_fan: fan_prop.map(rpm),
            predicted_demand: u(0.7),
        }
    }

    #[test]
    fn uncoordinated_passes_everything_through() {
        let s = server();
        let mut c = Uncoordinated;
        let out = c.coordinate(&inputs(&s, 82.0, 0.7, 0.45, 3000.0, Some(5000.0)));
        assert_eq!(out.cap, u(0.45));
        assert_eq!(out.fan_target, Some(rpm(5000.0)));
        let out = c.coordinate(&inputs(&s, 82.0, 0.7, 0.45, 3000.0, None));
        assert_eq!(out.fan_target, None);
    }

    #[test]
    fn rule_based_applies_table2_at_fan_epochs() {
        let s = server();
        let mut c = RuleBasedCoordinator::new(Celsius::new(80.0));
        // Conflict: capper cuts, fan raises -> fan wins, cap untouched.
        let out = c.coordinate(&inputs(&s, 79.5, 0.7, 0.65, 3000.0, Some(5000.0)));
        assert_eq!(out.cap, u(0.7));
        assert_eq!(out.fan_target, Some(rpm(5000.0)));
        assert_eq!(c.latched(), FanDirection::Up);
    }

    #[test]
    fn rule_based_latch_suppresses_mid_window_cuts() {
        let s = server();
        let mut c = RuleBasedCoordinator::new(Celsius::new(80.0));
        // Latch an upward fan decision…
        c.coordinate(&inputs(&s, 79.5, 0.7, 0.7, 3000.0, Some(5000.0)));
        // …then a mid-window cut proposal is suppressed…
        let out = c.coordinate(&inputs(&s, 79.5, 0.7, 0.65, 5000.0, None));
        assert_eq!(out.cap, u(0.7));
        // …but a raise passes.
        let out = c.coordinate(&inputs(&s, 75.0, 0.7, 0.75, 5000.0, None));
        assert_eq!(out.cap, u(0.75));
    }

    #[test]
    fn rule_based_grace_window_suppresses_cuts_after_raise() {
        let s = server();
        let mut c = RuleBasedCoordinator::new(Celsius::new(80.0));
        c.coordinate(&inputs(&s, 79.5, 0.7, 0.7, 8000.0, Some(8500.0)));
        assert_eq!(c.latched(), FanDirection::Up);
        // Inside the measurement grace window the telemetry cannot yet
        // reflect the raise: even safety-level cuts are double-action.
        let out = c.coordinate(&inputs(&s, 80.0, 0.7, 0.45, 8500.0, None));
        assert_eq!(out.cap, u(0.7));
    }

    #[test]
    fn rule_based_safety_override_allows_cuts_after_grace() {
        let s = server();
        let mut c = RuleBasedCoordinator::new(Celsius::new(80.0));
        c.coordinate(&inputs(&s, 79.5, 0.7, 0.7, 8000.0, Some(8500.0)));
        // Grace window: sensor lag (10 s) + full-range spin-up (7 s) at
        // 1 s epochs. Let it expire with the measurement *pinned* at the
        // limit (a plateau, so the falling detector stays off).
        for _ in 0..20 {
            c.coordinate(&inputs(&s, 80.0, 0.7, 0.7, 8500.0, None));
        }
        // Fan maxed, limit reached, grace expired, not falling: cut.
        let out = c.coordinate(&inputs(&s, 80.0, 0.7, 0.45, 8500.0, None));
        assert_eq!(out.cap, u(0.45));
    }

    #[test]
    fn rule_based_falling_measurement_suppresses_cuts() {
        let s = server();
        let mut c = RuleBasedCoordinator::new(Celsius::new(80.0));
        // Prime the trend tracker, then show a falling edge.
        c.coordinate(&inputs(&s, 81.0, 0.7, 0.7, 1500.0, None));
        let out = c.coordinate(&inputs(&s, 80.0, 0.7, 0.45, 1500.0, None));
        assert_eq!(out.cap, u(0.7), "cut must be suppressed on a falling tail");
        // The suppression expires after the validity window on a plateau.
        for _ in 0..6 {
            c.coordinate(&inputs(&s, 80.0, 0.7, 0.7, 1500.0, None));
        }
        let out = c.coordinate(&inputs(&s, 80.0, 0.7, 0.45, 1500.0, None));
        assert_eq!(out.cap, u(0.45));
    }

    #[test]
    fn rule_based_no_latch_means_free_capper() {
        let s = server();
        let mut c = RuleBasedCoordinator::new(Celsius::new(80.0));
        // Steady latch (default), fan settled at the server's actual
        // speed, temperature not falling: mid-window cut passes.
        let settled = s.fan_speed().value();
        let out = c.coordinate(&inputs(&s, 79.5, 0.7, 0.65, settled, None));
        assert_eq!(out.cap, u(0.65));
        // Downward fan decision: capper stays free.
        c.coordinate(&inputs(&s, 79.5, 0.7, 0.7, settled, Some(settled - 500.0)));
        assert_eq!(c.latched(), FanDirection::Down);
        let out = c.coordinate(&inputs(&s, 79.5, 0.7, 0.65, settled - 500.0, None));
        assert_eq!(out.cap, u(0.65));
    }

    #[test]
    fn rule_based_reset_clears_latch() {
        let s = server();
        let mut c = RuleBasedCoordinator::new(Celsius::new(80.0));
        c.coordinate(&inputs(&s, 79.5, 0.7, 0.7, 3000.0, Some(5000.0)));
        c.reset();
        assert_eq!(c.latched(), FanDirection::Steady);
    }

    #[test]
    fn energy_aware_prefers_cap_cuts_at_emergencies() {
        let s = server();
        let mut c = EnergyAwareCoordinator::date14();
        let out = c.coordinate(&inputs(&s, 80.0, 0.7, 0.7, 3000.0, Some(5000.0)));
        assert!((out.cap.value() - 0.60).abs() < 1e-12, "cap {:?}", out.cap);
        assert_eq!(out.fan_target, None, "fan must not be raised while the cap can move");
    }

    #[test]
    fn energy_aware_raises_fan_only_at_cap_floor() {
        let s = server();
        let mut c = EnergyAwareCoordinator::date14();
        let out = c.coordinate(&inputs(&s, 81.0, 0.10, 0.10, 3000.0, None));
        assert_eq!(out.cap, u(0.10));
        assert_eq!(out.fan_target, Some(rpm(8500.0)));
    }

    #[test]
    fn energy_aware_sizes_fan_from_model_at_fan_epochs() {
        let mut s = server();
        // Run the plant at 0.7 so that is what currently executes.
        s.step(gfsc_units::Seconds::new(0.5), u(0.7));
        let mut c = EnergyAwareCoordinator::date14();
        // Cool conditions: fan proposal replaced by the model minimum for
        // the executing load (0.7 -> 140.8 W at the 78 °C target).
        let out = c.coordinate(&inputs(&s, 77.0, 0.7, 0.7, 3000.0, Some(6000.0)));
        let fan = out.fan_target.expect("fan epoch");
        let expected = s.min_safe_fan_speed(u(0.7), Celsius::new(79.0)).unwrap();
        assert!((fan - expected).abs() < 1.0, "fan {fan} expected {expected}");
        // And the energy-optimal speed is *below* what the PID proposed.
        assert!(fan < rpm(6000.0));
    }

    #[test]
    fn fan_command_idles_a_slotless_wall_at_the_lower_bound() {
        // Zone 1 is a fan wall over empty bays: nothing to cool, so its
        // inversion answers 0 rpm, which clamps to the lower bound.
        let zone = |name: &str| RackZoneDef { name: name.to_owned(), fans: 1 };
        let slot = ServerSlot {
            name: "srv0".to_owned(),
            zone: 0,
            board: Topology::single_socket(),
            airflow_derate: 1.0,
            load_weight: 1.0,
        };
        let topology = RackTopology::new("partial", vec![zone("z0"), zone("z1")], vec![slot], None);
        let spec = RackSpec::new(topology);
        let rack = RackPlant::new(&spec.server.calibration(), &spec.rack).unwrap();
        let (powers, fans) = ([Watts::new(140.8)], [Rpm::new(4000.0); 2]);
        let bounds = spec.server.fan_bounds;
        let c = EnergyAwareCoordinator::date14_rack();
        let cmd = c.fan_command(Celsius::new(30.0), Utilization::FULL, true, bounds, |limit| {
            rack.min_safe_zone_fan(1, &powers, &fans, limit)
        });
        assert_eq!(cmd, Some(bounds.lo()), "empty wall idles at the lower bound");
        // Not a fan epoch, not an emergency: the fan holds.
        let cmd = c.fan_command(Celsius::new(30.0), Utilization::FULL, false, bounds, |_| None);
        assert_eq!(cmd, None);
    }

    #[test]
    fn energy_aware_recovers_cap_when_cool() {
        let s = server();
        let mut c = EnergyAwareCoordinator::date14();
        let out = c.coordinate(&inputs(&s, 77.5, 0.5, 0.5, 3000.0, None));
        assert!((out.cap.value() - 0.53).abs() < 1e-12);
        // Warm but not emergency: hold.
        let out = c.coordinate(&inputs(&s, 79.5, 0.5, 0.5, 3000.0, None));
        assert_eq!(out.cap, u(0.5));
    }

    #[test]
    fn energy_aware_ignores_capper_proposals() {
        let s = server();
        let mut c = EnergyAwareCoordinator::date14();
        // The deadzone capper proposes a cut at 79.5 °C, but E-coord has
        // its own policy: not an emergency, no recovery -> hold.
        let out = c.coordinate(&inputs(&s, 79.5, 0.7, 0.65, 3000.0, None));
        assert_eq!(out.cap, u(0.7));
    }

    #[test]
    fn fan_direction_classification() {
        assert_eq!(FanDirection::of(rpm(3000.0), rpm(3001.0)), FanDirection::Up);
        assert_eq!(FanDirection::of(rpm(3000.0), rpm(2999.0)), FanDirection::Down);
        assert_eq!(FanDirection::of(rpm(3000.0), rpm(3000.0)), FanDirection::Steady);
        assert_eq!(FanDirection::default(), FanDirection::Steady);
    }
}
