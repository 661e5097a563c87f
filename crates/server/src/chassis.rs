//! The body every closed plant wears around its thermal solve — fan
//! actuators, sensor chains, energy meters, clock — plus the demand split
//! that feeds it and the max fold that reads it. [`crate::Server`] and
//! [`crate::RackServer`] each own one [`Chassis`]; only the solve inside
//! a step differs.

use crate::{FanActuator, ServerSpec};
use gfsc_power::{CpuPowerModel, EnergyMeter};
use gfsc_sensors::{AdcQuantizer, MeasurementPipeline, Rounding};
use gfsc_thermal::RackTopology;
use gfsc_units::{Celsius, Rpm, Seconds, Utilization, Watts};

/// The max aggregation every closed plant and the daemon's telemetry
/// mirror fold readings with: the hottest of `readings` under the total
/// order — a NaN reading outranks every temperature, so a poisoned
/// sensor surfaces instead of vanishing from the scan — or `empty` when
/// there is nothing to read (a zone without sockets).
#[must_use]
pub fn hottest_reading(readings: impl IntoIterator<Item = Celsius>, empty: Celsius) -> Celsius {
    readings.into_iter().reduce(Celsius::hotter).unwrap_or(empty)
}

/// How rack-wide demand splits over servers and sockets: socket `i` of
/// server `s` executes `clamp(u × server weight × socket weight)`.
///
/// Server weights start at the topology's slot weights and move at run
/// time through [`LoadWeights::shift`] (the work-migration hook); socket
/// weights are the board's own and never move. A single server is the
/// one-slot case, whose 1.0 slot weight leaves each socket's product
/// bit-identical to the bare socket weight.
#[derive(Debug, Clone)]
pub struct LoadWeights {
    /// Per-server demand weights.
    servers: Vec<f64>,
    /// Per flat socket: its server and its own (base) load weight.
    sockets: Vec<(usize, f64)>,
    /// Per flat socket: server weight × base weight, re-derived whenever
    /// server weights move.
    effective: Vec<f64>,
}

impl LoadWeights {
    /// The topology's weights, sockets flattened in build order.
    #[must_use]
    pub fn new(rack: &RackTopology) -> Self {
        let servers: Vec<f64> = rack.servers().iter().map(|slot| slot.load_weight).collect();
        let sockets: Vec<(usize, f64)> = rack
            .servers()
            .iter()
            .enumerate()
            .flat_map(|(s, slot)| slot.board.sockets().iter().map(move |c| (s, c.load_weight)))
            .collect();
        let effective = sockets.iter().map(|&(s, base)| servers[s] * base).collect();
        Self { servers, sockets, effective }
    }

    /// Server `s`'s current demand weight.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn server(&self, s: usize) -> f64 {
        self.servers[s]
    }

    /// Socket `i`'s effective demand weight (server weight × socket base
    /// weight).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn socket(&self, i: usize) -> f64 {
        self.effective[i]
    }

    /// Socket `i`'s demand under rack-wide demand `u`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn socket_demand(&self, i: usize, u: Utilization) -> Utilization {
        Utilization::new(u.value() * self.effective[i])
    }

    /// Fills `out` with every socket's demand under rack-wide demand `u`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not one entry per socket.
    pub fn socket_demands(&self, u: Utilization, out: &mut [Utilization]) {
        assert_eq!(out.len(), self.effective.len(), "one demand per socket");
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.socket_demand(i, u);
        }
    }

    /// Fills `out` with every socket's CPU power under rack-wide demand
    /// `u` — the powers a steady-state probe at that demand assumes.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not one entry per socket.
    pub fn socket_powers(&self, cpu: &CpuPowerModel, u: Utilization, out: &mut [Watts]) {
        assert_eq!(out.len(), self.effective.len(), "one power per socket");
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = cpu.power(self.socket_demand(i, u));
        }
    }

    /// Moves `amount` of demand weight from server `from` to server `to`.
    /// The weight sum is conserved, so (absent cap saturation) total
    /// demand is too; only its placement changes. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the indices coincide or are out of range, `amount` is not
    /// positive, or the transfer would drain `from` to zero (a server
    /// keeps a strictly positive share of its own work).
    pub fn shift(&mut self, from: usize, to: usize, amount: f64) {
        assert!(from != to, "cannot migrate a server's work onto itself");
        assert!(amount > 0.0, "migrated weight must be positive");
        assert!(
            self.servers[from] - amount > 0.0,
            "migration would drain server {from} (weight {}, amount {amount})",
            self.servers[from]
        );
        self.servers[from] -= amount;
        self.servers[to] += amount;
        for (slot, &(s, base)) in self.effective.iter_mut().zip(&self.sockets) {
            if s == from || s == to {
                *slot = self.servers[s] * base;
            }
        }
    }
}

/// Everything a closed plant owns around its thermal solve. A step is
/// [`Chassis::begin`] (executed utilizations → socket powers, fan slew,
/// metering), the plant's solve, then [`Chassis::finish`] (clock, sensor
/// chains); an equilibration is [`Chassis::settle`], the plant's snap to
/// steady state, then [`Chassis::restart`].
#[derive(Debug, Clone)]
pub(crate) struct Chassis {
    /// One slew-limited actuator per fan zone.
    fans: Vec<FanActuator>,
    /// Fans per zone wall: each draws the per-fan power.
    wall_sizes: Vec<f64>,
    /// One measurement chain per socket (the BMC polls every socket's
    /// sensor over the same contended bus).
    pipelines: Vec<MeasurementPipeline>,
    pub(crate) cpu_energy: EnergyMeter,
    pub(crate) fan_energy: EnergyMeter,
    pub(crate) now: Seconds,
    /// The per-socket utilizations the next step executes (and the
    /// latest step executed).
    pub(crate) executed: Vec<Utilization>,
    /// Per-socket powers at `executed` (no per-step allocation).
    powers: Vec<Watts>,
    /// Per-zone actual fan speeds, kept equal to the actuators' speeds
    /// (only [`Chassis::begin`] and [`Chassis::settle`] move either).
    speeds: Vec<Rpm>,
}

impl Chassis {
    /// A chassis at rest: every chain reading the ambient, every fan at
    /// its minimum speed, sockets idle, meters and clock at zero.
    /// `walls` gives each zone's fan count.
    pub(crate) fn new(
        spec: &ServerSpec,
        sockets: usize,
        walls: impl IntoIterator<Item = usize>,
    ) -> Self {
        let wall_sizes: Vec<f64> = walls.into_iter().map(|fans| fans as f64).collect();
        let lo = spec.fan_bounds.lo();
        let fan =
            FanActuator::new(lo, spec.fan_bounds, spec.fan_slew).with_cmd_step(spec.fan_cmd_step);
        Self {
            fans: vec![fan; wall_sizes.len()],
            speeds: vec![lo; wall_sizes.len()],
            wall_sizes,
            pipelines: (0..sockets).map(|_| measurement_pipeline(spec, spec.ambient)).collect(),
            cpu_energy: EnergyMeter::new(),
            fan_energy: EnergyMeter::new(),
            now: Seconds::new(0.0),
            executed: vec![Utilization::IDLE; sockets],
            powers: vec![spec.cpu_power.power(Utilization::IDLE); sockets],
        }
    }

    /// Zone `z`'s fan actuator.
    pub(crate) fn fan(&self, z: usize) -> &FanActuator {
        &self.fans[z]
    }

    /// Commands zone `z`'s fan toward `target`, snapped to the command
    /// grid and clamped to the mechanical range.
    pub(crate) fn set_fan_target(&mut self, z: usize, target: Rpm) {
        self.fans[z].set_target(target);
    }

    /// Every zone's actual fan speed, in zone order.
    pub(crate) fn fan_speeds(&self) -> &[Rpm] {
        &self.speeds
    }

    /// The firmware's (lagged, quantized) view of socket `i`'s junction.
    pub(crate) fn measured(&self, i: usize) -> Celsius {
        Celsius::new(self.pipelines[i].current())
    }

    /// Every socket's firmware view, in socket order.
    pub(crate) fn readings(&self) -> impl Iterator<Item = Celsius> + '_ {
        self.pipelines.iter().map(|p| Celsius::new(p.current()))
    }

    /// Instantaneous CPU power at the executed utilizations.
    pub(crate) fn cpu_power(&self) -> Watts {
        Watts::new(self.powers.iter().fold(0.0, |total, p| total + p.value()))
    }

    /// Instantaneous fan power: each wall draws `fans × power(speed)`.
    pub(crate) fn fan_power(&self, spec: &ServerSpec) -> Watts {
        let mut total = 0.0;
        for (fan, &size) in self.fans.iter().zip(&self.wall_sizes) {
            total += spec.fan_power.power(fan.speed()).value() * size;
        }
        Watts::new(total)
    }

    /// The half of a step before the thermal solve: socket powers at
    /// [`Chassis::executed`], fan slew, and metering (the meters read
    /// powers, never temperatures, so metering before the solve lands on
    /// the same bits as after it). Returns the powers and fan speeds the
    /// solve takes.
    pub(crate) fn begin(&mut self, spec: &ServerSpec, dt: Seconds) -> (&[Watts], &[Rpm]) {
        for (slot, &u) in self.powers.iter_mut().zip(&self.executed) {
            *slot = spec.cpu_power.power(u);
        }
        for (slot, fan) in self.speeds.iter_mut().zip(&mut self.fans) {
            *slot = fan.step(dt);
        }
        self.cpu_energy.accumulate(self.cpu_power(), dt);
        self.fan_energy.accumulate(self.fan_power(spec), dt);
        (&self.powers, &self.speeds)
    }

    /// The half of a step after the thermal solve: the clock advances
    /// and every sensor chain observes its socket's junction.
    pub(crate) fn finish(&mut self, dt: Seconds, junction: impl Fn(usize) -> Celsius) {
        self.now += dt;
        for (i, pipeline) in self.pipelines.iter_mut().enumerate() {
            let _ = pipeline.observe_celsius(self.now, junction(i));
        }
    }

    /// The half of an equilibration before the plant snaps to its steady
    /// state: zone `z`'s actuator settles at `fans[z]` (clamped to the
    /// mechanical range) and the socket powers follow
    /// [`Chassis::executed`]. Returns the powers and fan speeds the plant
    /// settles at.
    pub(crate) fn settle(&mut self, spec: &ServerSpec, fans: &[Rpm]) -> (&[Watts], &[Rpm]) {
        assert_eq!(fans.len(), self.fans.len(), "one fan speed per zone");
        for ((actuator, slot), &fan) in self.fans.iter_mut().zip(&mut self.speeds).zip(fans) {
            let clamped = spec.fan_bounds.clamp(fan);
            actuator.snap_to(clamped);
            *slot = clamped;
        }
        for (slot, &u) in self.powers.iter_mut().zip(&self.executed) {
            *slot = spec.cpu_power.power(u);
        }
        (&self.powers, &self.speeds)
    }

    /// The half of an equilibration after the plant settled: sensor
    /// chains report the (quantized) equilibrium junctions from the first
    /// instant, meters and clock restart at zero.
    pub(crate) fn restart(&mut self, spec: &ServerSpec, junction: impl Fn(usize) -> Celsius) {
        for (i, pipeline) in self.pipelines.iter_mut().enumerate() {
            *pipeline = measurement_pipeline(spec, junction(i));
        }
        self.cpu_energy.reset();
        self.fan_energy.reset();
        self.now = Seconds::new(0.0);
    }
}

/// The non-ideal measurement chain a spec implies, initialized to report
/// `initial` from the first instant: the configured sampling interval and
/// transport lag, plus (when `quantization_step > 0`) the ADC.
fn measurement_pipeline(spec: &ServerSpec, initial: Celsius) -> MeasurementPipeline {
    let mut builder = MeasurementPipeline::builder()
        .sample_interval(spec.sensor_interval)
        .delay(spec.sensor_lag)
        .initial(initial.value());
    if spec.quantization_step > 0.0 {
        // The full-scale range is fixed (0–255 °C, the 8-bit/1 °C
        // convention); a finer requested step means a deeper converter,
        // not a narrower range — otherwise fine steps would saturate
        // below the operating temperatures.
        let levels_needed = (255.0 / spec.quantization_step) + 1.0;
        let bits = (levels_needed.log2().ceil() as u8).clamp(2, 24);
        builder = builder.adc(AdcQuantizer::new(bits, 0.0, 255.0, Rounding::Floor));
    }
    builder.build()
}
