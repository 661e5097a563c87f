//! Fan-controller gain derivation (Ziegler–Nichols at the two
//! linearization points).

use gfsc_control::{GainSchedule, PidGains, Region, ZnTuner, ZnTunerConfig};
use gfsc_server::{FanPlant, ServerSpec};
use gfsc_units::{Rpm, Utilization};
use std::sync::OnceLock;

/// Runs the closed-loop ultimate-gain recipe against the simulated fan
/// loop at each `region_speed` and assembles the gain schedule of the
/// adaptive PID (paper Section IV-B).
///
/// Tuning uses the *lagged but unquantized* loop — see DESIGN.md §5: the
/// 1 °C floor quantizer creates dead-band fixpoints that absorb probe
/// excitation entirely, while real tuning sessions operate at amplitudes
/// where the grid is negligible. The 10 s I2C lag, the 30 s zero-order
/// hold and the fan slew limit — the effects that actually set the
/// stability boundary — are all in the tuned loop.
///
/// The gain table applied to the measured `(K_u, P_u)` is the paper's
/// classic rule (Eq. 5–7). The controllers pair these gains with deadband
/// error shaping around the quantization hold, which removes the
/// discontinuous error step at the hold-band edge (see
/// [`gfsc_control::QuantizationHold`]).
///
/// The regions are tuned concurrently, each on its own plant by the serial
/// search ([`ZnTuner::tune_pid`]), so the gains do not depend on the
/// worker count.
///
/// # Panics
///
/// Panics if tuning fails at any region (the default plant is tunable at
/// every speed within the actuator range) or `region_speeds` is not
/// strictly increasing.
#[must_use]
pub fn tune_gain_schedule(spec: &ServerSpec, region_speeds: &[Rpm]) -> GainSchedule {
    let tuning_spec = ServerSpec { quantization_step: 0.0, ..spec.clone() };
    let regions: Vec<Region> = gfsc_sim::sweep::parallel_map(region_speeds, |&speed| {
        let mut plant = FanPlant::new(tuning_spec.clone(), Utilization::new(0.7), speed);
        let tuner = ZnTuner::new(ZnTunerConfig {
            setpoint: plant.equilibrium_temperature(),
            offset: speed.value(),
            min_gain: 10.0,
            max_gain: 1_000_000.0,
            steps_per_trial: 240,
            tail_fraction: 0.5,
            hysteresis: 0.05,
            min_amplitude: 0.15,
            gain_tolerance: 0.01,
            excitation: 1000.0,
        });
        let gains =
            tuner.tune_pid(&mut plant).unwrap_or_else(|e| panic!("tuning failed at {speed}: {e}"));
        Region::new(speed, gains)
    });
    GainSchedule::new(regions).expect("region speeds must be strictly increasing")
}

/// The gain schedule for the default enterprise server, tuned once per
/// process at the paper's two linearization points (2000 and 6000 rpm) and
/// cached.
///
/// On the Table I plant this lands at approximately
/// `K_P ≈ 700, K_I ≈ 460, K_D ≈ 260` (2000 rpm) and
/// `K_P ≈ 5400, K_I ≈ 4000, K_D ≈ 1800` (6000 rpm) — the ~8× gain ratio
/// that makes a single fixed set unusable across the speed range (Fig. 3).
#[must_use]
pub fn date14_gain_schedule() -> &'static GainSchedule {
    static SCHEDULE: OnceLock<GainSchedule> = OnceLock::new();
    SCHEDULE.get_or_init(|| {
        tune_gain_schedule(&ServerSpec::enterprise_default(), &[Rpm::new(2000.0), Rpm::new(6000.0)])
    })
}

/// Convenience: the fixed gain set tuned at a single speed (the Fig. 3
/// baselines "PID @ 2000 rpm" and "PID @ 6000 rpm").
#[must_use]
pub fn tune_single_region(spec: &ServerSpec, speed: Rpm) -> PidGains {
    tune_gain_schedule(spec, &[speed]).regions()[0].gains()
}

/// A finer four-region schedule (2000/3500/5000/7000 rpm) for the default
/// server, tuned once per process and cached.
///
/// The paper picks the region count by linearization error (two sufficed
/// for 5 % on its server). A finer schedule additionally re-bases the PID
/// linearization point (`s_ref`) at every segment crossing, which matters
/// when the operating speed swings across the whole actuator range — as it
/// does under the coordinated Table III workload. The region-count
/// ablation (`experiments::ablations`) quantifies the difference.
#[must_use]
pub fn fine_gain_schedule() -> &'static GainSchedule {
    static SCHEDULE: OnceLock<GainSchedule> = OnceLock::new();
    SCHEDULE.get_or_init(|| {
        tune_gain_schedule(
            &ServerSpec::enterprise_default(),
            &[Rpm::new(2000.0), Rpm::new(3500.0), Rpm::new(5000.0), Rpm::new(7000.0)],
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_has_the_expected_shape() {
        let schedule = date14_gain_schedule();
        assert_eq!(schedule.regions().len(), 2);
        let lo = schedule.regions()[0].gains();
        let hi = schedule.regions()[1].gains();
        // The high-speed region needs far larger gains (lower sensitivity).
        assert!(hi.kp() > 4.0 * lo.kp(), "kp ratio too small: {} vs {}", hi.kp(), lo.kp());
        // All gains positive.
        for g in [lo, hi] {
            assert!(g.kp() > 0.0 && g.ki() > 0.0 && g.kd() > 0.0, "{g:?}");
        }
        // And in the calibrated ballpark (wide tolerances: the exact value
        // depends on detector thresholds).
        assert!((300.0..2000.0).contains(&lo.kp()), "lo.kp {}", lo.kp());
        assert!((2500.0..20_000.0).contains(&hi.kp()), "hi.kp {}", hi.kp());
    }

    /// `(kp, ki, kd)` of every region, as raw bits.
    fn gain_bits(schedule: &GainSchedule) -> Vec<[u64; 3]> {
        schedule
            .regions()
            .iter()
            .map(|r| {
                let g = r.gains();
                [g.kp().to_bits(), g.ki().to_bits(), g.kd().to_bits()]
            })
            .collect()
    }

    /// Pins the tuned gains bit for bit. Every closed-loop result runs on
    /// them, so a change to the search that moves one bit shows here
    /// first. Re-capture only for a deliberate numeric change.
    #[test]
    fn tuned_gains_are_pinned_bit_for_bit() {
        use gfsc_thermal::Topology;
        use gfsc_units::Seconds;

        const LOW_2000: [u64; 3] =
            [0x408c_5000_0000_0000, 0x4086_0fca_ce21_3f2b, 0x4072_2acc_cccc_cccd];
        const HIGH_6000: [u64; 3] =
            [0x40b5_0000_0000_0000, 0x40af_2dd5_8507_d348, 0x409c_49c9_c9c9_c9ca];
        assert_eq!(gain_bits(date14_gain_schedule()), [LOW_2000, HIGH_6000]);
        assert_eq!(
            gain_bits(fine_gain_schedule()),
            [
                LOW_2000,
                [0x4099_e000_0000_0000, 0x4091_4000_0000_0000, 0x4083_6800_0000_0000],
                [0x40ab_0000_0000_0000, 0x40a4_4000_0000_0000, 0x4092_0000_0000_0000],
                [0x40bc_e000_0000_0000, 0x40b7_1999_9999_999a, 0x40a2_0c00_0000_0000],
            ]
        );
        let single = tune_single_region(&crate::experiments::fan_study_spec(), Rpm::new(6000.0));
        assert_eq!(
            [single.kp().to_bits(), single.ki().to_bits(), single.kd().to_bits()],
            HIGH_6000
        );

        // The sweep benchmark's spec shape (fan-command quantization, 1 s
        // fan interval), on a finned plant small enough for debug builds.
        let finned = ServerSpec {
            fan_cmd_step: 500.0,
            fan_control_interval: Seconds::new(1.0),
            ..ServerSpec::with_topology(Topology::finned(2, 8))
        };
        let regions = [2000.0, 3500.0, 5000.0, 7000.0].map(Rpm::new);
        assert_eq!(
            gain_bits(&tune_gain_schedule(&finned, &regions)),
            [
                [0x4090_8000_0000_0000, 0x4046_77d4_6cef_a8da, 0x40b8_3c00_0000_0000],
                [0x40a0_6800_0000_0000, 0x4058_6b29_aca6_b29b, 0x40c6_0bc0_0000_0000],
                [0x40a9_8000_0000_0000, 0x4063_6db6_db6d_b6db, 0x40d0_bc00_0000_0000],
                [0x40b3_e000_0000_0000, 0x406e_4924_9249_2492, 0x40da_1600_0000_0000],
            ]
        );
    }

    #[test]
    fn single_region_matches_schedule_region() {
        let spec = ServerSpec::enterprise_default();
        let single = tune_single_region(&spec, Rpm::new(2000.0));
        let schedule = date14_gain_schedule();
        let from_schedule = schedule.regions()[0].gains();
        // Same tuning procedure, same result (deterministic).
        assert!((single.kp() - from_schedule.kp()).abs() < 1e-9);
    }
}
