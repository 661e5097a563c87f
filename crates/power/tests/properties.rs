//! Property-based tests for the power models.

use gfsc_power::{CpuPowerModel, EnergyMeter, FanPowerModel};
use gfsc_units::{Rpm, Seconds, Utilization, Watts};
use proptest::prelude::*;

proptest! {
    /// CPU power is monotone in utilization and stays within rated bounds.
    #[test]
    fn cpu_power_monotone_and_bounded(u1 in 0.0f64..=1.0, u2 in 0.0f64..=1.0) {
        let cpu = CpuPowerModel::date14();
        let p1 = cpu.power(Utilization::new(u1));
        let p2 = cpu.power(Utilization::new(u2));
        if u1 <= u2 {
            prop_assert!(p1 <= p2);
        }
        prop_assert!(p1 >= cpu.static_power());
        prop_assert!(p1 <= cpu.peak_power());
    }

    /// Fan power is monotone in speed and bounded by the rated maximum.
    #[test]
    fn fan_power_monotone_and_bounded(v1 in 0.0f64..9000.0, v2 in 0.0f64..9000.0) {
        let fan = FanPowerModel::date14();
        let p1 = fan.power(Rpm::new(v1));
        let p2 = fan.power(Rpm::new(v2));
        if v1 <= v2 {
            prop_assert!(p1 <= p2);
        }
        prop_assert!(p1 <= fan.max_power());
    }

    /// The cubic law: doubling the speed multiplies power by 8 (within the
    /// rated range).
    #[test]
    fn fan_power_is_cubic(v in 100.0f64..4250.0) {
        let fan = FanPowerModel::date14();
        let p1 = fan.power(Rpm::new(v)).value();
        let p2 = fan.power(Rpm::new(2.0 * v)).value();
        prop_assert!((p2 - 8.0 * p1).abs() < 1e-9 * p2.max(1e-12));
    }

    /// Energy metering is additive: integrating in two chunks equals one.
    #[test]
    fn energy_meter_additive(
        p in 0.0f64..300.0,
        t1 in 0.0f64..100.0,
        t2 in 0.0f64..100.0,
    ) {
        let mut a = EnergyMeter::new();
        a.accumulate(Watts::new(p), Seconds::new(t1));
        a.accumulate(Watts::new(p), Seconds::new(t2));
        let mut b = EnergyMeter::new();
        b.accumulate(Watts::new(p), Seconds::new(t1 + t2));
        prop_assert!((a.total().value() - b.total().value()).abs() < 1e-6);
    }
}
