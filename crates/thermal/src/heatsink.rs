//! Heat-sink thermal resistance law and RC node.

use gfsc_units::{Celsius, JoulesPerKelvin, KelvinPerWatt, Rpm, Seconds, Watts};

/// The fan-speed-dependent heat-sink thermal resistance law
/// `R_hs(V) = base + coeff / V^exponent` (K/W, V in rpm).
///
/// The defaults of [`HeatSinkLaw::date14`] are the paper's Table I values:
/// `R_hs = 0.141 + 132.51 / V^0.923`. Higher airflow (faster fan) lowers the
/// convective resistance, which is what makes the temperature–fan-speed
/// plant non-linear and motivates the adaptive PID scheme.
///
/// # Examples
///
/// ```
/// use gfsc_thermal::HeatSinkLaw;
/// use gfsc_units::Rpm;
///
/// let law = HeatSinkLaw::date14();
/// let slow = law.resistance(Rpm::new(2000.0));
/// let fast = law.resistance(Rpm::new(8500.0));
/// assert!(slow > fast);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeatSinkLaw {
    base: f64,
    coeff: f64,
    exponent: f64,
    min_speed: f64,
}

impl HeatSinkLaw {
    /// The DATE'14 Table I law: `0.141 + 132.51 / V^0.923` K/W.
    #[must_use]
    pub fn date14() -> Self {
        Self::new(0.141, 132.51, 0.923)
    }

    /// Creates a custom law `base + coeff / V^exponent`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not positive, `coeff` is negative, or `exponent`
    /// is not positive.
    #[must_use]
    pub fn new(base: f64, coeff: f64, exponent: f64) -> Self {
        assert!(base > 0.0, "base resistance must be positive");
        assert!(coeff >= 0.0, "airflow coefficient must be non-negative");
        assert!(exponent > 0.0, "airflow exponent must be positive");
        // Below ~100 rpm the power law diverges unphysically; callers never
        // operate fans that slow, so evaluate the law no lower than this.
        Self { base, coeff, exponent, min_speed: 100.0 }
    }

    /// Evaluates the thermal resistance at fan speed `v`.
    ///
    /// Speeds below 100 rpm are evaluated at 100 rpm: the fitted power law
    /// diverges as `V → 0` while a real heat sink still conducts passively.
    #[must_use]
    pub fn resistance(&self, v: Rpm) -> KelvinPerWatt {
        self.resistance_at_power(self.airflow_power(v))
    }

    /// `max(v, 100 rpm)^exponent`: the airflow term the coefficient is
    /// divided by. Laws sharing an exponent share it at any one speed.
    fn airflow_power(&self, v: Rpm) -> f64 {
        v.value().max(self.min_speed).powf(self.exponent)
    }

    /// The resistance at a speed whose [`Self::airflow_power`] is `power`.
    fn resistance_at_power(&self, power: f64) -> KelvinPerWatt {
        KelvinPerWatt::new(self.base + self.coeff / power)
    }

    /// Inverts the law: the fan speed at which the resistance equals `r`.
    ///
    /// Returns `None` when `r` is at or below the base (asymptotic)
    /// resistance, which no finite fan speed can reach. This inversion is
    /// what model-based descent schemes (E-coord, single-step scaling) use
    /// to pick the lowest thermally-safe fan speed.
    #[must_use]
    pub fn speed_for_resistance(&self, r: KelvinPerWatt) -> Option<Rpm> {
        let excess = r.value() - self.base;
        if excess <= 0.0 || self.coeff == 0.0 {
            return None;
        }
        let v = (self.coeff / excess).powf(1.0 / self.exponent);
        Some(Rpm::new(v.max(self.min_speed)))
    }

    /// The asymptotic (infinite-airflow) resistance floor in K/W.
    #[must_use]
    pub fn base_resistance(&self) -> KelvinPerWatt {
        KelvinPerWatt::new(self.base)
    }

    /// The airflow exponent of `base + coeff / V^exponent`.
    #[must_use]
    pub fn airflow_exponent(&self) -> f64 {
        self.exponent
    }

    /// The same law with the airflow coefficient scaled by `derate` — how a
    /// downstream socket in a shared plenum sees the common fan: the same
    /// asymptotic conduction floor, but pre-heated/starved air raises the
    /// convective term at every speed.
    ///
    /// # Panics
    ///
    /// Panics if `derate` is not positive.
    #[must_use]
    pub fn with_airflow_derate(&self, derate: f64) -> Self {
        assert!(derate > 0.0, "airflow derate must be positive");
        Self::new(self.base, self.coeff * derate, self.exponent)
    }
}

/// [`HeatSinkLaw::resistance`] of many laws at one fan speed, evaluating
/// the airflow power `v^exponent` once per run of laws that share an
/// exponent — bit for bit what calling `resistance` on each law returns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResistanceAt {
    fan: Rpm,
    /// The previous law's `(min_speed, exponent)` and airflow power.
    last: Option<(f64, f64, f64)>,
}

impl ResistanceAt {
    pub(crate) fn new(fan: Rpm) -> Self {
        Self { fan, last: None }
    }

    /// `law.resistance(fan)`.
    pub(crate) fn of(&mut self, law: &HeatSinkLaw) -> KelvinPerWatt {
        let power = match self.last {
            Some((min_speed, exponent, power))
                if min_speed == law.min_speed && exponent == law.exponent =>
            {
                power
            }
            _ => {
                let power = law.airflow_power(self.fan);
                self.last = Some((law.min_speed, law.exponent, power));
                power
            }
        };
        law.resistance_at_power(power)
    }
}

/// A heat-sink thermal node integrated with the exact exponential update of
/// the paper's Eq. (2)–(3):
///
/// ```text
/// T_hs(t+Δt) = T_hs^ss + (T_hs(t) − T_hs^ss) · exp(−Δt / (R_hs·C_hs))
/// T_hs^ss    = T_amb + R_hs · P_cpu
/// ```
///
/// The capacitance is calibrated from a quoted time constant at a reference
/// fan speed (Table I: 60 s at maximum airflow), so `τ(V) = R_hs(V) · C_hs`
/// *grows* as the fan slows — the slower the fan, the more sluggish the
/// sink.
#[derive(Debug, Clone)]
pub struct HeatSinkNode {
    law: HeatSinkLaw,
    capacitance: JoulesPerKelvin,
    temperature: Celsius,
}

impl HeatSinkNode {
    /// Creates a heat-sink node whose time constant is `tau` at fan speed
    /// `tau_speed`, starting at temperature `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is zero.
    #[must_use]
    pub fn new(law: HeatSinkLaw, tau: Seconds, tau_speed: Rpm, initial: Celsius) -> Self {
        let r_ref = law.resistance(tau_speed);
        let capacitance = JoulesPerKelvin::from_time_constant(tau, r_ref);
        Self { law, capacitance, temperature: initial }
    }

    /// The DATE'14 node: Table I law, τ = 60 s at 8500 rpm.
    #[must_use]
    pub fn date14(initial: Celsius) -> Self {
        Self::new(HeatSinkLaw::date14(), Seconds::new(60.0), Rpm::new(8500.0), initial)
    }

    /// Current heat-sink temperature.
    #[must_use]
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// The resistance law in use.
    #[must_use]
    pub fn law(&self) -> &HeatSinkLaw {
        &self.law
    }

    /// The calibrated thermal capacitance.
    #[must_use]
    pub fn capacitance(&self) -> JoulesPerKelvin {
        self.capacitance
    }

    /// Steady-state temperature at the given operating point (Eq. 3).
    #[must_use]
    pub fn steady_state(&self, ambient: Celsius, power: Watts, fan: Rpm) -> Celsius {
        ambient + self.law.resistance(fan) * power
    }

    /// Time constant `R_hs(V)·C_hs` at fan speed `fan`.
    #[must_use]
    pub fn time_constant(&self, fan: Rpm) -> Seconds {
        self.law.resistance(fan) * self.capacitance
    }

    /// Advances the node by `dt` with the exact exponential update (Eq. 2)
    /// and returns the new temperature.
    pub fn step(&mut self, dt: Seconds, ambient: Celsius, power: Watts, fan: Rpm) -> Celsius {
        let t_ss = self.steady_state(ambient, power, fan);
        let tau = self.time_constant(fan);
        let decay = (-(dt.value()) / tau.value()).exp();
        self.temperature = t_ss + (self.temperature - t_ss) * decay;
        self.temperature
    }

    /// Overrides the node temperature (for test setup and re-initialisation).
    pub fn set_temperature(&mut self, t: Celsius) {
        self.temperature = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resistance_at_shares_the_airflow_power_bit_for_bit() {
        // Runs of laws sharing an exponent, broken by another exponent, at
        // speeds on both sides of the 100 rpm floor.
        let base = HeatSinkLaw::date14();
        let laws = [
            base,
            base.with_airflow_derate(1.06),
            base.with_airflow_derate(2.0),
            HeatSinkLaw::new(0.2, 90.0, 0.8),
            base.with_airflow_derate(1.2),
        ];
        for v in [0.0, 57.0, 100.0, 1234.5, 8500.0, 2.5e6] {
            let mut at = ResistanceAt::new(Rpm::new(v));
            for law in &laws {
                assert_eq!(
                    at.of(law).value().to_bits(),
                    law.resistance(Rpm::new(v)).value().to_bits(),
                    "{law:?} at {v} rpm"
                );
            }
        }
    }

    #[test]
    fn date14_law_matches_published_points() {
        let law = HeatSinkLaw::date14();
        // Spot values computed directly from the formula.
        let at = |v: f64| law.resistance(Rpm::new(v)).value();
        assert!((at(8500.0) - (0.141 + 132.51 / 8500f64.powf(0.923))).abs() < 1e-12);
        assert!((at(2000.0) - (0.141 + 132.51 / 2000f64.powf(0.923))).abs() < 1e-12);
        // Sanity: resistance decreases with speed.
        assert!(at(1000.0) > at(2000.0));
        assert!(at(2000.0) > at(6000.0));
        assert!(at(6000.0) > at(8500.0));
    }

    #[test]
    fn law_saturates_below_min_speed() {
        let law = HeatSinkLaw::date14();
        assert_eq!(law.resistance(Rpm::new(0.0)), law.resistance(Rpm::new(100.0)));
        assert_eq!(law.resistance(Rpm::new(50.0)), law.resistance(Rpm::new(100.0)));
    }

    #[test]
    fn inversion_round_trips() {
        let law = HeatSinkLaw::date14();
        for v in [1000.0, 2000.0, 4000.0, 8500.0] {
            let r = law.resistance(Rpm::new(v));
            let back = law.speed_for_resistance(r).expect("invertible");
            assert!((back.value() - v).abs() / v < 1e-9, "v={v} back={back}");
        }
    }

    #[test]
    fn inversion_rejects_unreachable_resistance() {
        let law = HeatSinkLaw::date14();
        assert!(law.speed_for_resistance(KelvinPerWatt::new(0.141)).is_none());
        assert!(law.speed_for_resistance(KelvinPerWatt::new(0.05)).is_none());
        assert_eq!(law.base_resistance(), KelvinPerWatt::new(0.141));
    }

    #[test]
    fn steady_state_is_ambient_plus_ir_drop() {
        let node = HeatSinkNode::date14(Celsius::new(30.0));
        let ss = node.steady_state(Celsius::new(30.0), Watts::new(100.0), Rpm::new(8500.0));
        let r = node.law().resistance(Rpm::new(8500.0)).value();
        assert!((ss.value() - (30.0 + 100.0 * r)).abs() < 1e-9);
    }

    #[test]
    fn time_constant_is_60s_at_max_airflow() {
        let node = HeatSinkNode::date14(Celsius::new(30.0));
        let tau = node.time_constant(Rpm::new(8500.0));
        assert!((tau.value() - 60.0).abs() < 1e-9);
        // Slower fan -> higher R -> longer time constant.
        assert!(node.time_constant(Rpm::new(2000.0)) > tau);
    }

    #[test]
    fn step_converges_to_steady_state() {
        let mut node = HeatSinkNode::date14(Celsius::new(30.0));
        let amb = Celsius::new(30.0);
        let p = Watts::new(140.8);
        let fan = Rpm::new(3000.0);
        for _ in 0..10_000 {
            node.step(Seconds::new(0.5), amb, p, fan);
        }
        let ss = node.steady_state(amb, p, fan);
        assert!((node.temperature() - ss).abs() < 1e-6);
    }

    #[test]
    fn step_matches_analytic_solution() {
        let mut node = HeatSinkNode::date14(Celsius::new(30.0));
        let amb = Celsius::new(30.0);
        let p = Watts::new(160.0);
        let fan = Rpm::new(8500.0);
        let ss = node.steady_state(amb, p, fan).value();
        // Integrate 90 s in odd-sized steps; exact exponential must land on
        // the analytic value regardless of step partitioning.
        for dt in [1.0, 2.0, 7.0, 30.0, 50.0] {
            node.step(Seconds::new(dt), amb, p, fan);
        }
        let expected = ss + (30.0 - ss) * (-90.0f64 / 60.0).exp();
        assert!((node.temperature().value() - expected).abs() < 1e-9);
    }

    #[test]
    fn cooling_transient_descends_monotonically() {
        let mut node = HeatSinkNode::date14(Celsius::new(80.0));
        let mut prev = node.temperature();
        for _ in 0..100 {
            let t = node.step(
                Seconds::new(1.0),
                Celsius::new(30.0),
                Watts::new(96.0),
                Rpm::new(8500.0),
            );
            assert!(t <= prev);
            prev = t;
        }
    }

    #[test]
    fn set_temperature_overrides_state() {
        let mut node = HeatSinkNode::date14(Celsius::new(30.0));
        node.set_temperature(Celsius::new(55.0));
        assert_eq!(node.temperature(), Celsius::new(55.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_law_rejected() {
        let _ = HeatSinkLaw::new(0.0, 132.51, 0.923);
    }
}
