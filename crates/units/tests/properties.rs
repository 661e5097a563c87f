//! Property-based tests for the quantity newtypes.

use gfsc_units::{Bounds, Celsius, Rpm, Seconds, Utilization, Watts};
use proptest::prelude::*;

proptest! {
    #[test]
    fn celsius_add_sub_round_trip(t in -200.0f64..500.0, d in -100.0f64..100.0) {
        let a = Celsius::new(t);
        let b = a + d;
        prop_assert!((b - a - d).abs() < 1e-9);
        prop_assert!(((b - d) - a).abs() < 1e-9);
    }

    #[test]
    fn celsius_lerp_stays_between_endpoints(
        a in -50.0f64..150.0,
        b in -50.0f64..150.0,
        t in 0.0f64..=1.0,
    ) {
        let lo = Celsius::new(a.min(b));
        let hi = Celsius::new(a.max(b));
        let x = Celsius::new(a).lerp(Celsius::new(b), t);
        prop_assert!(x >= lo && x <= hi);
    }

    #[test]
    fn rpm_never_negative(start in 0.0f64..10_000.0, delta in -20_000.0f64..20_000.0) {
        let s = Rpm::new(start) + delta;
        prop_assert!(s.value() >= 0.0);
    }

    #[test]
    fn utilization_new_always_in_range(u in -10.0f64..10.0) {
        let v = Utilization::new(u).value();
        prop_assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn utilization_saturating_add_in_range(
        u in 0.0f64..=1.0,
        d in -5.0f64..5.0,
    ) {
        let v = Utilization::new(u).saturating_add(d).value();
        prop_assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn try_new_accepts_exactly_unit_interval(u in -2.0f64..2.0) {
        let ok = Utilization::try_new(u).is_ok();
        prop_assert_eq!(ok, (0.0..=1.0).contains(&u));
    }

    #[test]
    fn energy_integration_is_additive(
        p in 0.0f64..500.0,
        t1 in 0.0f64..1000.0,
        t2 in 0.0f64..1000.0,
    ) {
        let w = Watts::new(p);
        let whole = w * Seconds::new(t1 + t2);
        let split = w * Seconds::new(t1) + w * Seconds::new(t2);
        prop_assert!((whole.value() - split.value()).abs() < 1e-6);
    }

    #[test]
    fn bounds_clamp_always_contained(lo in -100.0f64..100.0, span in 0.0f64..100.0, x in -500.0f64..500.0) {
        let b = Bounds::new(lo, lo + span);
        let c = b.clamp(x);
        prop_assert!(b.contains(c));
        // Clamping is idempotent.
        prop_assert_eq!(b.clamp(c), c);
    }

    #[test]
    fn bounds_clamp_is_identity_inside(lo in -100.0f64..100.0, span in 0.1f64..100.0, t in 0.0f64..=1.0) {
        let b = Bounds::new(lo, lo + span);
        let x = lo + span * t;
        prop_assert_eq!(b.clamp(x), x);
    }
}
