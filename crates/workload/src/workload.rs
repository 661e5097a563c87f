//! The composed workload sampler.

use crate::{GaussianNoise, Signal, SpikeProcess};
use gfsc_units::{Seconds, Utilization};

/// A complete utilization workload: deterministic base signal plus optional
/// Gaussian noise and Poisson spikes, clamped into `[0, 1]`.
///
/// This is the demand the server receives — "required CPU utilization" in
/// the paper's terms. Whether that demand can actually execute depends on
/// the CPU cap chosen by the controllers; the gap between the two is what
/// the deadline-violation metric (Table III) measures.
///
/// Sampling is causal: query times must be non-decreasing.
///
/// # Examples
///
/// ```
/// use gfsc_workload::{SquareWave, Workload};
/// use gfsc_units::Seconds;
///
/// let mut w = Workload::builder(SquareWave::date14())
///     .gaussian_noise(0.04, 1)
///     .spikes(1.0 / 600.0, Seconds::new(20.0), 0.4, 2)
///     .build();
/// let u = w.sample(Seconds::new(42.0));
/// assert!((0.0..=1.0).contains(&u.value()));
/// ```
pub struct Workload {
    base: Box<dyn Signal + Send>,
    noise: Option<GaussianNoise>,
    spikes: Option<SpikeProcess>,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("noise", &self.noise.as_ref().map(GaussianNoise::sigma))
            .field("spikes", &self.spikes.as_ref().map(SpikeProcess::rate_hz))
            .finish_non_exhaustive()
    }
}

impl Workload {
    /// Starts building a workload on the given base signal.
    #[must_use]
    pub fn builder<S: Signal + Send + 'static>(base: S) -> WorkloadBuilder {
        WorkloadBuilder { base: Box::new(base), noise: None, spikes: None }
    }

    /// The demanded utilization at time `t` (base + noise + spikes,
    /// clamped).
    ///
    /// # Panics
    ///
    /// Panics if `t` moves backwards relative to the spike process
    /// progress.
    pub fn sample(&mut self, t: Seconds) -> Utilization {
        let mut u = self.base.at(t);
        if let Some(noise) = &mut self.noise {
            u += noise.sample();
        }
        if let Some(spikes) = &mut self.spikes {
            u += spikes.level_at(t);
        }
        Utilization::new(u)
    }
}

/// Builder for [`Workload`] (see there for an example).
pub struct WorkloadBuilder {
    base: Box<dyn Signal + Send>,
    noise: Option<GaussianNoise>,
    spikes: Option<SpikeProcess>,
}

impl WorkloadBuilder {
    /// Adds zero-mean Gaussian noise with standard deviation `sigma`.
    #[must_use]
    pub fn gaussian_noise(mut self, sigma: f64, seed: u64) -> Self {
        self.noise = Some(GaussianNoise::new(sigma, seed));
        self
    }

    /// Adds Poisson-arriving spikes (see [`SpikeProcess::new`]).
    #[must_use]
    pub fn spikes(mut self, rate_hz: f64, duration: Seconds, amplitude: f64, seed: u64) -> Self {
        self.spikes = Some(SpikeProcess::new(rate_hz, duration, amplitude, seed));
        self
    }

    /// Builds the workload.
    #[must_use]
    pub fn build(self) -> Workload {
        Workload { base: self.base, noise: self.noise, spikes: self.spikes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Constant, SquareWave};

    #[test]
    fn noiseless_workload_equals_base() {
        let mut w = Workload::builder(SquareWave::date14()).build();
        assert_eq!(w.sample(Seconds::new(0.0)).value(), 0.1);
        assert_eq!(w.sample(Seconds::new(250.0)).value(), 0.7);
    }

    #[test]
    fn noise_perturbs_but_stays_clamped() {
        let mut w = Workload::builder(Constant::new(0.02)).gaussian_noise(0.5, 9).build();
        let mut saw_nonbase = false;
        for k in 0..1000 {
            let u = w.sample(Seconds::new(k as f64)).value();
            assert!((0.0..=1.0).contains(&u));
            if (u - 0.02).abs() > 1e-6 {
                saw_nonbase = true;
            }
        }
        assert!(saw_nonbase, "noise should perturb the base");
    }

    #[test]
    fn deterministic_for_fixed_seeds() {
        let make = || {
            Workload::builder(SquareWave::date14())
                .gaussian_noise(0.04, 77)
                .spikes(0.001, Seconds::new(15.0), 0.3, 78)
                .build()
        };
        let mut a = make();
        let mut b = make();
        for k in 0..2000 {
            let t = Seconds::new(k as f64);
            assert_eq!(a.sample(t), b.sample(t));
        }
    }

    #[test]
    fn spikes_lift_utilization() {
        let mut w =
            Workload::builder(Constant::new(0.1)).spikes(0.01, Seconds::new(10.0), 0.6, 4).build();
        let mut max_u: f64 = 0.0;
        for k in 0..5000 {
            max_u = max_u.max(w.sample(Seconds::new(k as f64)).value());
        }
        assert!((max_u - 0.7).abs() < 1e-9, "spike level {max_u}");
    }

    #[test]
    fn debug_does_not_leak_internals() {
        let w = Workload::builder(Constant::new(0.5)).gaussian_noise(0.04, 0).build();
        let s = format!("{w:?}");
        assert!(s.contains("Workload"));
        assert!(s.contains("0.04"));
    }
}
