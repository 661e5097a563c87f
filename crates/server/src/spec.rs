//! Server calibration: every model parameter in one value.

use gfsc_power::{CpuPowerModel, FanPowerModel};
use gfsc_thermal::{HeatSinkLaw, PlantCalibration, Topology};
use gfsc_units::{Bounds, Celsius, KelvinPerWatt, Rpm, RpmPerSecond, Seconds};

/// How the per-socket firmware readings are folded into the one
/// temperature the global controllers act on.
///
/// Single-socket servers have nothing to fold; multi-socket boards must
/// pick a policy, and the choice shapes the control problem: `Max` guards
/// the hottest socket (thermally safe, fan sized by the worst case), a
/// load-weighted mean tracks the busy dies (cheaper airflow, but the
/// hottest socket can exceed what the controller sees).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TempAggregation {
    /// The hottest socket's reading (the safe default).
    #[default]
    Max,
    /// Per-socket readings weighted by the topology's load weights
    /// (note: the weights are *load* multipliers, not power fractions —
    /// under the affine power model a socket's power share is flatter
    /// than its load share).
    LoadWeightedMean,
}

/// The complete parameterization of the simulated enterprise server.
///
/// [`ServerSpec::enterprise_default`] reproduces the paper's Table I plus
/// the calibration constants DESIGN.md documents (`R_jc`, fan slew rate,
/// minimum fan speed, ambient). All experiments start from this value and
/// override selectively, so sweeps and ablations are ordinary struct
/// updates:
///
/// ```
/// use gfsc_server::ServerSpec;
/// use gfsc_units::Seconds;
///
/// let spec = ServerSpec {
///     sensor_lag: Seconds::new(20.0), // double the measured I2C lag
///     ..ServerSpec::enterprise_default()
/// };
/// assert_eq!(spec.sensor_lag, Seconds::new(20.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Inlet air temperature.
    pub ambient: Celsius,
    /// CPU power model (Table I: 96 W idle, 160 W peak).
    pub cpu_power: CpuPowerModel,
    /// Per-socket fan power model (Table I: 29.4 W at 8500 rpm).
    pub fan_power: FanPowerModel,
    /// Heat-sink resistance law (Table I: `0.141 + 132.51/V^0.923` K/W).
    pub heatsink_law: HeatSinkLaw,
    /// Heat-sink time constant at maximum airflow (Table I: 60 s).
    pub heatsink_tau: Seconds,
    /// Junction-to-sink resistance (calibrated: 0.10 K/W, see DESIGN.md §4).
    pub r_jc: KelvinPerWatt,
    /// Die thermal time constant (Table I: 0.1 s).
    pub die_tau: Seconds,
    /// Commandable fan speed range. The maximum is the Table I rating;
    /// the minimum is a deployment constant chosen (as vendors do) so the
    /// worst sustained load cannot run away faster than one control
    /// blind-window (sensor lag + fan period) — see DESIGN.md §4.
    pub fan_bounds: Bounds<Rpm>,
    /// Fan mechanical slew rate.
    pub fan_slew: RpmPerSecond,
    /// Commanded-speed granularity in rpm: fan firmware exposes a PWM duty
    /// register, so targets land on a discrete grid. `0` models an ideal
    /// continuously-commandable fan (the Table I default — the paper's
    /// controllers emit continuous speeds).
    pub fan_cmd_step: f64,
    /// Sensor chain sampling interval (Table I fan sample interval: 1 s).
    pub sensor_interval: Seconds,
    /// Sensor transport lag (measured: ~10 s through the I2C chain).
    pub sensor_lag: Seconds,
    /// ADC quantization step in °C (8-bit converter: 1 °C).
    pub quantization_step: f64,
    /// CPU-cap controller decision interval (1 s).
    pub cpu_control_interval: Seconds,
    /// Fan controller decision interval (30 s).
    pub fan_control_interval: Seconds,
    /// Safe-operation junction limit (< 80 °C).
    pub t_safe: Celsius,
    /// Plant integration step.
    pub sim_dt: Seconds,
    /// Thermal topology: how many sockets share the fan. The single-socket
    /// default runs the paper's exact two-node model; anything else is
    /// compiled onto the cached RC network as a one-slot rack.
    pub topology: Topology,
    /// How per-socket readings aggregate into the controller input.
    pub aggregation: TempAggregation,
}

impl ServerSpec {
    /// The DATE'14 enterprise server (Table I + DESIGN.md calibration).
    #[must_use]
    pub fn enterprise_default() -> Self {
        Self {
            // Warm-aisle inlet: compresses the margin between the 75 °C
            // fan reference and the 80 °C safe limit so that load steps
            // and spikes genuinely contend for the thermal headroom, as in
            // the paper's evaluation (ambient is not in Table I; see
            // DESIGN.md §4).
            ambient: Celsius::new(35.0),
            cpu_power: CpuPowerModel::date14(),
            fan_power: FanPowerModel::date14(),
            heatsink_law: HeatSinkLaw::date14(),
            heatsink_tau: Seconds::new(60.0),
            r_jc: KelvinPerWatt::new(0.10),
            die_tau: Seconds::new(0.1),
            fan_bounds: Bounds::new(Rpm::new(1500.0), Rpm::new(8500.0)),
            fan_slew: RpmPerSecond::new(1000.0),
            fan_cmd_step: 0.0,
            sensor_interval: Seconds::new(1.0),
            sensor_lag: Seconds::new(10.0),
            quantization_step: 1.0,
            cpu_control_interval: Seconds::new(1.0),
            fan_control_interval: Seconds::new(30.0),
            t_safe: Celsius::new(80.0),
            sim_dt: Seconds::new(0.5),
            topology: Topology::single_socket(),
            aggregation: TempAggregation::Max,
        }
    }

    /// The default spec on a different thermal topology (2S/4S/blade) —
    /// the Table I calibration per socket, power shared per the topology.
    #[must_use]
    pub fn with_topology(topology: Topology) -> Self {
        Self { topology, ..Self::enterprise_default() }
    }

    /// An idealized variant with a perfect sensor chain (no lag, no
    /// quantization) — the world the prior work of Section II assumed.
    /// Used for ablations isolating the non-ideal effects.
    #[must_use]
    pub fn ideal_sensing() -> Self {
        Self { sensor_lag: Seconds::new(0.0), quantization_step: 0.0, ..Self::enterprise_default() }
    }

    /// The per-socket base calibration of the RC-network plant: the
    /// spec's thermal constants, with the sink time constant quoted at the
    /// fan's maximum speed.
    #[must_use]
    pub fn calibration(&self) -> PlantCalibration {
        PlantCalibration {
            ambient: self.ambient,
            law: self.heatsink_law,
            sink_tau: self.heatsink_tau,
            tau_speed: self.fan_power.max_speed(),
            r_jc: self.r_jc,
            die_tau: self.die_tau,
        }
    }

    /// Validates internal consistency (interval divisibility, positive
    /// rates). Called by [`crate::Server::new`].
    ///
    /// # Panics
    ///
    /// Panics if the simulation step does not evenly divide the control
    /// and sensing intervals, or the slew rate is not positive, or the
    /// quantization step is negative.
    pub fn validate(&self) {
        assert!(self.fan_slew.value() > 0.0, "fan slew rate must be positive");
        assert!(self.fan_cmd_step >= 0.0, "fan command step must be non-negative");
        assert!(self.quantization_step >= 0.0, "quantization step must be non-negative");
        self.topology.validate();
        let dt = self.sim_dt.value();
        for (name, iv) in [
            ("sensor_interval", self.sensor_interval),
            ("cpu_control_interval", self.cpu_control_interval),
            ("fan_control_interval", self.fan_control_interval),
        ] {
            let ratio = iv.value() / dt;
            assert!(
                (ratio - ratio.round()).abs() < 1e-9 && ratio >= 1.0,
                "sim_dt must evenly divide {name} ({iv} vs {dt})"
            );
        }
    }
}

impl Default for ServerSpec {
    fn default() -> Self {
        Self::enterprise_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_constants() {
        let s = ServerSpec::enterprise_default();
        assert_eq!(s.cpu_power.static_power().value(), 96.0);
        assert_eq!(s.cpu_power.peak_power().value(), 160.0);
        assert_eq!(s.fan_power.max_power().value(), 29.4);
        assert_eq!(s.fan_power.max_speed().value(), 8500.0);
        assert_eq!(s.heatsink_tau, Seconds::new(60.0));
        assert_eq!(s.die_tau, Seconds::new(0.1));
        assert_eq!(s.sensor_lag, Seconds::new(10.0));
        assert_eq!(s.quantization_step, 1.0);
        assert_eq!(s.cpu_control_interval, Seconds::new(1.0));
        assert_eq!(s.fan_control_interval, Seconds::new(30.0));
        assert_eq!(s.t_safe, Celsius::new(80.0));
    }

    #[test]
    fn default_is_enterprise() {
        assert_eq!(ServerSpec::default(), ServerSpec::enterprise_default());
    }

    #[test]
    fn ideal_sensing_removes_non_ideal_effects() {
        let s = ServerSpec::ideal_sensing();
        assert_eq!(s.sensor_lag, Seconds::new(0.0));
        assert_eq!(s.quantization_step, 0.0);
        // Everything else untouched.
        assert_eq!(s.t_safe, ServerSpec::enterprise_default().t_safe);
    }

    #[test]
    fn default_spec_validates() {
        ServerSpec::enterprise_default().validate();
        ServerSpec::ideal_sensing().validate();
    }

    #[test]
    fn fan_commands_are_continuous_by_default() {
        // Table I has no duty-register granularity: quantized commands are
        // an opt-in sweep axis, never a change to the paper's baseline.
        assert_eq!(ServerSpec::enterprise_default().fan_cmd_step, 0.0);
        let quantized = ServerSpec { fan_cmd_step: 500.0, ..ServerSpec::enterprise_default() };
        quantized.validate();
    }

    #[test]
    #[should_panic(expected = "fan command step")]
    fn negative_fan_cmd_step_rejected() {
        ServerSpec { fan_cmd_step: -1.0, ..ServerSpec::enterprise_default() }.validate();
    }

    #[test]
    #[should_panic(expected = "evenly divide")]
    fn misaligned_intervals_rejected() {
        let spec = ServerSpec { sim_dt: Seconds::new(0.7), ..ServerSpec::enterprise_default() };
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "slew")]
    fn non_positive_slew_rejected() {
        let spec =
            ServerSpec { fan_slew: RpmPerSecond::new(0.0), ..ServerSpec::enterprise_default() };
        spec.validate();
    }

    #[test]
    fn default_topology_is_single_socket_max_aggregation() {
        let s = ServerSpec::enterprise_default();
        assert!(s.topology.is_single());
        assert_eq!(s.aggregation, TempAggregation::Max);
        assert_eq!(TempAggregation::default(), TempAggregation::Max);
    }

    #[test]
    fn with_topology_overrides_only_the_topology() {
        let s = ServerSpec::with_topology(Topology::dual_socket());
        assert_eq!(s.topology, Topology::dual_socket());
        assert_eq!(s.t_safe, ServerSpec::enterprise_default().t_safe);
        s.validate();
    }
}
