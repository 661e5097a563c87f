//! The daemon's telemetry mirror: a [`RackView`] built from polls.
//!
//! The control bank (`gfsc_coord::RackControlBank`) reads measurements
//! and issues actuation through the [`RackView`] trait. In the batch
//! loop the view *is* the simulated rack; here it is a mirror the
//! daemon refreshes from [`crate::TelemetrySource`] polls each cycle
//! and whose commanded state the daemon flushes to the
//! [`crate::FanActuator`] afterwards.
//!
//! The daemon parity contract (`tests/parity.rs`) is bit-for-bit, so the
//! mirror derives nothing by hand: it splits demand with the rack's
//! [`LoadWeights`], folds zone and rack readings with the rack's
//! [`hottest_reading`], and commands its walls through the rack's
//! slew-limited actuator type.

use gfsc_coord::RackView;
use gfsc_rack::{hottest_reading, LoadWeights, RackPlant, RackSpec};
use gfsc_units::{Celsius, Rpm, Utilization, Watts};

/// One recorded load migration, queued for the actuator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadShift {
    /// Donor server index.
    pub from: usize,
    /// Recipient server index.
    pub to: usize,
    /// Demand weight moved.
    pub amount: f64,
}

/// The mirror a daemon maintains of the rack it controls: polled
/// measurements and tachometers, commanded targets, demand weights, and
/// a calibrated model plant for the controllers' steady-state probes.
#[derive(Debug)]
pub struct DaemonRackView {
    spec: RackSpec,
    /// The calibrated thermal model — structure for zone/socket maps,
    /// state-independent steady-state probes for the model-based
    /// controllers.
    model: RackPlant,
    /// Last usable per-socket measurement (held across failed polls).
    measured: Vec<Celsius>,
    /// Polled tachometer speeds, one per zone.
    tach: Vec<Rpm>,
    /// The walls as commanded: the platform actuator's command grid and
    /// clamp, so a target equals the acknowledged hardware target. Never
    /// stepped — the tachometers report the actual speeds.
    walls: Vec<gfsc_rack::FanActuator>,
    /// The enforced utilizations of the previous epoch.
    executed: Vec<Utilization>,
    weights: LoadWeights,
    /// Load shifts commanded by the bank this epoch, awaiting the
    /// actuator.
    pending_shifts: Vec<LoadShift>,
    probe_powers: Vec<Watts>,
}

impl DaemonRackView {
    /// Builds the mirror for `spec`, with the model plant equilibrated
    /// at the same operating point the rack is assumed to start from
    /// (matching `RackServer::equilibrate` at `start_utilization` /
    /// `start_fan`).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation.
    #[must_use]
    pub fn new(spec: RackSpec, start_utilization: Utilization, start_fan: Rpm) -> Self {
        spec.validate();
        let mut model = RackPlant::new(&spec.server.calibration(), &spec.rack)
            // gfsc-lint: allow(panic) construction-time only (spec.validate() just ran); documented in this fn's `# Panics` section
            .expect("stock rack topologies compile");
        let server = &spec.server;
        let sockets = model.socket_count();
        let weights = LoadWeights::new(&spec.rack);
        let wall = gfsc_rack::FanActuator::new(start_fan, server.fan_bounds, server.fan_slew)
            .with_cmd_step(server.fan_cmd_step);
        let tach = vec![wall.speed(); model.zone_count()];
        let mut executed = vec![Utilization::IDLE; sockets];
        weights.socket_demands(start_utilization, &mut executed);
        let mut probe_powers = vec![Watts::new(0.0); sockets];
        weights.socket_powers(&server.cpu_power, start_utilization, &mut probe_powers);
        model.equilibrate(&probe_powers, &tach);
        Self {
            measured: (0..sockets).map(|i| model.junction(i)).collect(),
            walls: vec![wall; tach.len()],
            tach,
            executed,
            weights,
            pending_shifts: Vec::new(),
            probe_powers,
            model,
            spec,
        }
    }

    /// The spec the mirror was built for.
    #[must_use]
    pub fn spec(&self) -> &RackSpec {
        &self.spec
    }

    /// Ingests one temperature poll: `Some` values replace the mirror's
    /// readings, `None` holds the previous value (the daemon's health
    /// tracker decides separately whether the hold is still *usable*).
    ///
    /// # Panics
    ///
    /// Panics if `values` is not one entry per socket.
    pub fn ingest_temperatures(&mut self, values: &[Option<Celsius>]) {
        assert_eq!(values.len(), self.measured.len(), "one reading slot per socket");
        for (slot, value) in self.measured.iter_mut().zip(values) {
            if let Some(v) = value {
                *slot = *v;
            }
        }
    }

    /// Ingests one tachometer poll.
    ///
    /// # Panics
    ///
    /// Panics if `speeds` is not one entry per zone.
    pub fn ingest_fan_speeds(&mut self, speeds: &[Rpm]) {
        assert_eq!(speeds.len(), self.tach.len(), "one tachometer per zone");
        self.tach.copy_from_slice(speeds);
    }

    /// Mirrors the enforced utilizations the bank decided this epoch
    /// (what the rack executes until the next epoch).
    ///
    /// # Panics
    ///
    /// Panics if `executed` is not one entry per socket.
    pub fn mirror_executed(&mut self, executed: &[Utilization]) {
        assert_eq!(executed.len(), self.executed.len(), "one utilization per socket");
        self.executed.copy_from_slice(executed);
    }

    /// Takes the load shifts queued by the bank this epoch (empties the
    /// queue).
    pub fn take_shifts(&mut self) -> Vec<LoadShift> {
        core::mem::take(&mut self.pending_shifts)
    }
}

impl RackView for DaemonRackView {
    fn zone_count(&self) -> usize {
        self.tach.len()
    }

    fn socket_count(&self) -> usize {
        self.measured.len()
    }

    fn server_count(&self) -> usize {
        self.model.server_count()
    }

    fn plant(&self) -> &RackPlant {
        &self.model
    }

    fn plant_mut(&mut self) -> &mut RackPlant {
        &mut self.model
    }

    fn measured_socket(&self, i: usize) -> Celsius {
        self.measured[i]
    }

    /// Folded as the simulated rack folds it (a slotless zone reads the
    /// ambient).
    fn measured_zone(&self, z: usize) -> Celsius {
        let readings = self.model.zone_sockets(z).iter().map(|&i| self.measured[i]);
        hottest_reading(readings, self.spec.server.ambient)
    }

    fn measured_rack(&self) -> Celsius {
        let zones = (0..self.tach.len()).map(|z| self.measured_zone(z));
        hottest_reading(zones, self.spec.server.ambient)
    }

    fn zone_fan_speed(&self, z: usize) -> Rpm {
        self.tach[z]
    }

    fn zone_fan_target(&self, z: usize) -> Rpm {
        self.walls[z].target()
    }

    fn set_zone_fan_target(&mut self, z: usize, target: Rpm) {
        self.walls[z].set_target(target);
    }

    fn set_all_fan_targets(&mut self, target: Rpm) {
        for wall in &mut self.walls {
            wall.set_target(target);
        }
    }

    fn executed(&self) -> &[Utilization] {
        &self.executed
    }

    fn socket_demands(&self, u: Utilization, out: &mut [Utilization]) {
        self.weights.socket_demands(u, out);
    }

    fn server_load_weight(&self, s: usize) -> f64 {
        self.weights.server(s)
    }

    fn shift_load_weight(&mut self, from: usize, to: usize, amount: f64) {
        self.weights.shift(from, to, amount);
        self.pending_shifts.push(LoadShift { from, to, amount });
    }

    fn min_safe_zone_fan(&mut self, z: usize, u: Utilization, limit: Celsius) -> Option<Rpm> {
        self.weights.socket_powers(&self.spec.server.cpu_power, u, &mut self.probe_powers);
        self.model.min_safe_zone_fan(z, &self.probe_powers, &self.tach, limit)
    }
}
