//! The daemon's telemetry mirror: a [`RackView`] built from polls.
//!
//! The control bank (`gfsc_coord::RackControlBank`) reads measurements
//! and issues actuation through the [`RackView`] trait. In the batch
//! loop the view *is* the simulated rack; here it is a mirror the
//! daemon refreshes from [`crate::TelemetrySource`] polls each cycle
//! and whose commanded state the daemon flushes to the
//! [`crate::FanActuator`] afterwards.
//!
//! Every derived quantity replicates the `RackServer` arithmetic
//! operation-for-operation — zone aggregation order, demand-weight
//! products, the actuator's command-step rounding — because the daemon
//! parity contract (`tests/parity.rs`) is bit-for-bit, not "close".

use gfsc_coord::RackView;
use gfsc_rack::{RackPlant, RackSpec};
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
    /// Per-zone max aggregates, recomputed on ingest exactly as
    /// `RackServer::refresh_measured` does.
    measured_zone: Vec<Celsius>,
    /// Polled tachometer speeds, one per zone.
    tach: Vec<Rpm>,
    /// Commanded fan targets (the actuator's rounding replicated).
    targets: Vec<Rpm>,
    /// The enforced utilizations of the previous epoch.
    executed: Vec<Utilization>,
    server_weights: Vec<f64>,
    socket_base_weights: Vec<f64>,
    socket_weights: Vec<f64>,
    /// Load shifts commanded by the bank this epoch, awaiting the
    /// actuator.
    pending_shifts: Vec<LoadShift>,
    probe_powers: Vec<Watts>,
    probe_fans: Vec<Rpm>,
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
        let zones = model.zone_count();
        let sockets = model.socket_count();
        let server_weights: Vec<f64> = spec.rack.servers().iter().map(|s| s.load_weight).collect();
        let socket_base_weights: Vec<f64> = spec
            .rack
            .servers()
            .iter()
            .flat_map(|slot| slot.board.sockets().iter().map(|socket| socket.load_weight))
            .collect();
        let socket_weights: Vec<f64> = spec
            .rack
            .servers()
            .iter()
            .flat_map(|slot| {
                slot.board.sockets().iter().map(|socket| slot.load_weight * socket.load_weight)
            })
            .collect();
        let start = server.fan_bounds.clamp(start_fan);
        let fans = vec![start; zones];
        let executed: Vec<Utilization> = (0..sockets)
            .map(|i| Utilization::new(start_utilization.value() * socket_weights[i]))
            .collect();
        let powers: Vec<Watts> = executed.iter().map(|&u| server.cpu_power.power(u)).collect();
        model.equilibrate(&powers, &fans);
        let measured: Vec<Celsius> = (0..sockets).map(|i| model.junction(i)).collect();
        let mut view = Self {
            measured,
            measured_zone: vec![spec.server.ambient; zones],
            tach: fans.clone(),
            targets: fans,
            executed,
            server_weights,
            socket_base_weights,
            socket_weights,
            pending_shifts: Vec::new(),
            probe_powers: vec![Watts::new(0.0); sockets],
            probe_fans: vec![start; zones],
            model,
            spec,
        };
        view.refresh_zone_aggregates();
        view
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
        self.refresh_zone_aggregates();
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

    /// Forces every mirrored target to `target` — used when firmware
    /// took over the walls (fallback) so the mirror reflects what the
    /// platform is actually commanding.
    pub fn force_targets(&mut self, target: Rpm) {
        for z in 0..self.targets.len() {
            self.set_zone_fan_target(z, target);
        }
    }

    /// Recomputes the per-zone max aggregates — the exact
    /// `RackServer::refresh_measured` loop (first socket, then `max`
    /// over the rest; a slotless zone reads the ambient).
    fn refresh_zone_aggregates(&mut self) {
        for z in 0..self.measured_zone.len() {
            let sockets = self.model.zone_sockets(z);
            let Some((&first, rest)) = sockets.split_first() else {
                self.measured_zone[z] = self.spec.server.ambient;
                continue;
            };
            let mut hottest = self.measured[first].value();
            for &i in rest {
                hottest = hottest.max(self.measured[i].value());
            }
            self.measured_zone[z] = Celsius::new(hottest);
        }
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

    fn measured_zone(&self, z: usize) -> Celsius {
        self.measured_zone[z]
    }

    fn measured_rack(&self) -> Celsius {
        let Some((&first, rest)) = self.measured_zone.split_first() else {
            // A zoneless rack cannot be built (the spec validates), but
            // reading ambient beats indexing into an empty mirror.
            return self.spec.server.ambient;
        };
        let mut hottest = first;
        for &m in rest {
            hottest = hottest.hotter(m);
        }
        hottest
    }

    fn zone_fan_speed(&self, z: usize) -> Rpm {
        self.tach[z]
    }

    fn zone_fan_target(&self, z: usize) -> Rpm {
        self.targets[z]
    }

    fn set_zone_fan_target(&mut self, z: usize, target: Rpm) {
        // The platform actuator's command handling, replicated so the
        // mirror's target equals the acknowledged hardware target:
        // snap to the command grid, then clamp to the mechanical range.
        let step = self.spec.server.fan_cmd_step;
        let target =
            if step > 0.0 { Rpm::new((target.value() / step).round() * step) } else { target };
        self.targets[z] = self.spec.server.fan_bounds.clamp(target);
    }

    fn set_all_fan_targets(&mut self, target: Rpm) {
        for z in 0..self.targets.len() {
            self.set_zone_fan_target(z, target);
        }
    }

    fn executed(&self) -> &[Utilization] {
        &self.executed
    }

    fn socket_demands(&self, u: Utilization, out: &mut [Utilization]) {
        assert_eq!(out.len(), self.socket_weights.len(), "one demand per socket");
        for (slot, &w) in out.iter_mut().zip(&self.socket_weights) {
            *slot = Utilization::new(u.value() * w);
        }
    }

    fn server_load_weight(&self, s: usize) -> f64 {
        self.server_weights[s]
    }

    fn shift_load_weight(&mut self, from: usize, to: usize, amount: f64) {
        assert!(from != to, "cannot migrate a server's work onto itself");
        assert!(amount > 0.0, "migrated weight must be positive");
        assert!(
            self.server_weights[from] - amount > 0.0,
            "migration would drain server {from} (weight {}, amount {amount})",
            self.server_weights[from]
        );
        self.server_weights[from] -= amount;
        self.server_weights[to] += amount;
        for s in [from, to] {
            let weight = self.server_weights[s];
            for i in self.model.server_sockets(s) {
                self.socket_weights[i] = weight * self.socket_base_weights[i];
            }
        }
        self.pending_shifts.push(LoadShift { from, to, amount });
    }

    fn min_safe_zone_fan(&mut self, z: usize, u: Utilization, limit: Celsius) -> Option<Rpm> {
        for i in 0..self.probe_powers.len() {
            let demand = Utilization::new(u.value() * self.socket_weights[i]);
            self.probe_powers[i] = self.spec.server.cpu_power.power(demand);
        }
        self.probe_fans.copy_from_slice(&self.tach);
        self.model.min_safe_zone_fan(z, &self.probe_powers, &self.probe_fans, limit)
    }
}
