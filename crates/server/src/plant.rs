//! `gfsc_control::Plant` adapter for Ziegler–Nichols tuning, and the
//! server plant's side of the [`PlantModel`] contract.

use crate::{Server, ServerSpec};
use gfsc_control::Plant;
use gfsc_thermal::PlantModel;
use gfsc_units::{Celsius, Rpm, Seconds, Utilization, Watts};

impl PlantModel for crate::Plant {
    fn socket_count(&self) -> usize {
        crate::Plant::socket_count(self)
    }

    fn junction(&self, i: usize) -> Celsius {
        crate::Plant::junction(self, i)
    }

    fn hottest_junction(&self) -> Celsius {
        crate::Plant::hottest_junction(self)
    }

    fn step(&mut self, dt: Seconds, powers: &[Watts], fan: Rpm) {
        crate::Plant::step(self, dt, powers, fan);
    }

    fn steady_state_junction(&self, powers: &[Watts], fan: Rpm) -> Celsius {
        crate::Plant::steady_state_junction(self, powers, fan)
    }

    fn min_safe_fan_speed(&self, powers: &[Watts], limit: Celsius) -> Option<Rpm> {
        crate::Plant::min_safe_fan_speed(self, powers, limit)
    }
}

/// The fan → measured-temperature loop as seen by the fan controller, for
/// closed-loop tuning.
///
/// Each [`Plant::step`] applies a fan-speed command, holds it for one fan
/// decision period (30 s by default) while the plant integrates at
/// `sim_dt`, and returns the temperature *the firmware measures* at the end
/// of the period — lag and quantization included, so the tuned gains bake
/// in the non-ideal chain, exactly as the paper tunes on its real server.
///
/// [`Plant::reset`] re-equilibrates at the configured operating point
/// (utilization + reference fan speed). Tuning "at 2000 rpm" or "at
/// 6000 rpm" (Section IV-B) means choosing that operating point here.
///
/// # Examples
///
/// ```
/// use gfsc_control::Plant;
/// use gfsc_server::{FanPlant, ServerSpec};
/// use gfsc_units::{Rpm, Utilization};
///
/// let mut plant = FanPlant::new(
///     ServerSpec::enterprise_default(),
///     Utilization::new(0.7),
///     Rpm::new(2000.0),
/// );
/// plant.reset();
/// let before = plant.step(2000.0);
/// let after = plant.step(8500.0); // full airflow for one period
/// assert!(after < before);
/// ```
#[derive(Debug, Clone)]
pub struct FanPlant {
    server: Server,
    utilization: Utilization,
    operating_speed: Rpm,
}

impl FanPlant {
    /// Creates the adapter around a fresh server, equilibrated at
    /// `(utilization, operating_speed)`.
    #[must_use]
    pub fn new(spec: ServerSpec, utilization: Utilization, operating_speed: Rpm) -> Self {
        let mut server = Server::new(spec);
        server.equilibrate(utilization, operating_speed);
        Self { server, utilization, operating_speed }
    }

    /// The operating fan speed this plant linearizes around.
    #[must_use]
    pub fn operating_speed(&self) -> Rpm {
        self.operating_speed
    }

    /// The fixed utilization during tuning.
    #[must_use]
    pub fn utilization(&self) -> Utilization {
        self.utilization
    }

    /// The equilibrium measured temperature at the operating point — the
    /// natural set-point for tuning probes.
    #[must_use]
    pub fn equilibrium_temperature(&self) -> f64 {
        self.server.steady_state_junction(self.utilization, self.operating_speed).value()
    }

    /// Read-only access to the wrapped server.
    #[must_use]
    pub fn server(&self) -> &Server {
        &self.server
    }
}

impl Plant for FanPlant {
    fn reset(&mut self) {
        self.server.equilibrate(self.utilization, self.operating_speed);
    }

    fn step(&mut self, input: f64) -> f64 {
        self.server.set_fan_target(Rpm::saturating_new(input.max(0.0)));
        let dt = self.server.spec().sim_dt;
        let period = self.server.spec().fan_control_interval;
        let substeps = (period / dt).round() as usize;
        let mut measured = self.server.measured_temperature();
        for _ in 0..substeps {
            measured = self.server.step(dt, self.utilization);
        }
        measured.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plant_at(speed: f64) -> FanPlant {
        FanPlant::new(ServerSpec::enterprise_default(), Utilization::new(0.7), Rpm::new(speed))
    }

    #[test]
    fn equilibrium_temperature_matches_model() {
        let plant = plant_at(2000.0);
        let t = plant.equilibrium_temperature();
        // 140.8 W across (R_hs(2000) + 0.1) K/W above the spec ambient.
        let ambient = ServerSpec::enterprise_default().ambient.value();
        let r_hs = 0.141 + 132.51 / 2000f64.powf(0.923);
        let expected = ambient + (r_hs + 0.1) * 140.8;
        assert!((t - expected).abs() < 1e-9, "t {t} expected {expected}");
    }

    #[test]
    fn holding_the_operating_speed_holds_temperature() {
        let mut plant = plant_at(2000.0);
        plant.reset();
        let t0 = plant.equilibrium_temperature();
        for _ in 0..5 {
            let t = plant.step(2000.0);
            assert!((t - t0).abs() <= 1.0, "drifted to {t} from {t0}");
        }
    }

    #[test]
    fn raising_fan_cools_within_periods() {
        let mut plant = plant_at(2000.0);
        plant.reset();
        let before = plant.step(2000.0);
        // One period shows the onset (damped by the 10 s sensor lag)...
        let after_one = plant.step(6000.0);
        assert!(after_one < before, "before {before} after {after_one}");
        // ...three more let the heat sink (τ ≈ 64 s at 6000 rpm) settle.
        let mut after = after_one;
        for _ in 0..3 {
            after = plant.step(6000.0);
        }
        assert!(after < before - 7.0, "before {before} settled {after}");
    }

    #[test]
    fn reset_replays_identically() {
        let mut plant = plant_at(2000.0);
        plant.reset();
        let a: Vec<f64> = (0..4).map(|k| plant.step(2000.0 + 1000.0 * k as f64)).collect();
        plant.reset();
        let b: Vec<f64> = (0..4).map(|k| plant.step(2000.0 + 1000.0 * k as f64)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn accessors() {
        let plant = plant_at(6000.0);
        assert_eq!(plant.operating_speed(), Rpm::new(6000.0));
        assert_eq!(plant.utilization(), Utilization::new(0.7));
        assert_eq!(plant.server().fan_speed(), Rpm::new(6000.0));
    }

    #[test]
    fn temperature_sensitivity_is_higher_at_low_speed() {
        // The nonlinearity that motivates gain scheduling: a +500 rpm step
        // moves the settled junction temperature much more at 2000 rpm than
        // at 6000 rpm (measured on the true junction — the 1 °C ADC would
        // round the small high-speed response to the grid).
        let respond = |speed: f64| {
            let mut plant = plant_at(speed);
            plant.reset();
            let base = plant.server().true_junction();
            for _ in 0..10 {
                plant.step(speed + 500.0);
            }
            (base - plant.server().true_junction()).abs()
        };
        let low = respond(2000.0);
        let high = respond(6000.0);
        assert!(low > 2.0 * high, "sensitivity low {low} K vs high {high} K — expected ≥2× ratio");
    }
}
