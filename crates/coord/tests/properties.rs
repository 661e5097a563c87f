//! Property-based tests for the coordination layer.

use gfsc_coord::{rule_matrix, CpuCapController, SingleStepFanScaling, SsFanAction};
use gfsc_units::{Bounds, Celsius, Rpm, Utilization};
use proptest::prelude::*;

proptest! {
    /// Table II actuates at most one knob, for any combination of current
    /// values and proposals.
    #[test]
    fn rule_matrix_single_knob(
        cap_now in 0.0f64..=1.0,
        cap_prop in 0.0f64..=1.0,
        fan_now in 1000.0f64..8500.0,
        fan_prop in 1000.0f64..8500.0,
    ) {
        let (cap, fan) = rule_matrix(
            Utilization::new(cap_now),
            Utilization::new(cap_prop),
            Rpm::new(fan_now),
            Rpm::new(fan_prop),
        );
        let cap_moved = (cap.value() - cap_now).abs() > 1e-12;
        let fan_moved = (fan.value() - fan_now).abs() > 1e-6;
        prop_assert!(!(cap_moved && fan_moved), "both knobs moved");
        // The applied value is always either the current or the proposal.
        prop_assert!(
            (cap.value() - cap_now).abs() < 1e-12 || (cap.value() - cap_prop).abs() < 1e-12
        );
        prop_assert!(
            (fan.value() - fan_now).abs() < 1e-6 || (fan.value() - fan_prop).abs() < 1e-6
        );
    }

    /// Fan increases always win (the paper's performance bias).
    #[test]
    fn rule_matrix_fan_up_always_applied(
        cap_now in 0.0f64..=1.0,
        cap_prop in 0.0f64..=1.0,
        fan_now in 1000.0f64..8000.0,
        delta in 1.0f64..2000.0,
    ) {
        let fan_prop = fan_now + delta;
        let (_, fan) = rule_matrix(
            Utilization::new(cap_now),
            Utilization::new(cap_prop),
            Rpm::new(fan_now),
            Rpm::new(fan_prop),
        );
        prop_assert!((fan.value() - fan_prop).abs() < 1e-6, "fan raise dropped");
    }

    /// The capper proposal is always inside its bounds and moves by at
    /// most the emergency step.
    #[test]
    fn capper_proposals_bounded(
        t in 20.0f64..120.0,
        cap in 0.0f64..=1.0,
    ) {
        let capper = CpuCapController::date14();
        let current = Utilization::new(cap);
        let next = capper.propose(Celsius::new(t), current);
        prop_assert!(capper.bounds().contains(next) || next == current.clamp(capper.bounds().lo(), capper.bounds().hi()));
        prop_assert!((next.value() - current.value()).abs() <= 0.25 + 1e-12);
    }

    /// The capper is monotone in temperature: hotter readings never
    /// produce a higher cap.
    #[test]
    fn capper_monotone_in_temperature(
        t1 in 20.0f64..120.0,
        t2 in 20.0f64..120.0,
        cap in 0.0f64..=1.0,
    ) {
        let capper = CpuCapController::date14();
        let current = Utilization::new(cap);
        let n1 = capper.propose(Celsius::new(t1), current);
        let n2 = capper.propose(Celsius::new(t2), current);
        if t1 <= t2 {
            prop_assert!(n1 >= n2, "hotter gave higher cap: {n1:?} vs {n2:?}");
        }
    }

    /// The single-step state machine never emits two boost edges without a
    /// release between them.
    #[test]
    fn ssfan_alternates_boost_and_release(
        rates in proptest::collection::vec(0.0f64..=1.0, 1..200),
        temps in proptest::collection::vec(60.0f64..95.0, 1..200),
    ) {
        let mut ss = SingleStepFanScaling::new(0.3);
        let mut active = false;
        for (r, t) in rates.iter().zip(temps.iter().cycle()) {
            match ss.evaluate(*r, Celsius::new(*t), Celsius::new(75.0)) {
                SsFanAction::Hold => {
                    // A Hold either starts a boost or continues one.
                    active = true;
                }
                SsFanAction::Release => {
                    prop_assert!(active, "release without active boost");
                    active = false;
                }
                SsFanAction::None => {}
            }
            prop_assert_eq!(ss.is_active(), active);
        }
    }

    /// Fan bounds from the units crate interoperate with coordination
    /// outputs: clamped proposals stay inside.
    #[test]
    fn clamped_fan_targets_respect_bounds(v in 0.0f64..20_000.0) {
        let bounds = Bounds::new(Rpm::new(1500.0), Rpm::new(8500.0));
        let clamped = bounds.clamp(Rpm::saturating_new(v));
        prop_assert!(bounds.contains(clamped));
    }

    /// The rack arbitration layer's contract, fuzzed over socket counts,
    /// budgets, measurements and proposals:
    ///
    /// - the per-epoch cut budget is never exceeded (emergency cuts
    ///   excepted — they bypass the budget by design),
    /// - every enforced cap is granted *from the proposal* or held — the
    ///   coordinator never invents a value, and never moves a cap against
    ///   its proposal's direction (grants are monotone in proposals),
    /// - raises below the emergency limit always pass,
    /// - a socket at or above the emergency limit never ends the epoch
    ///   with a *higher* cap (emergencies only fast-track cuts),
    /// - budgeted cuts go to the hottest proposers first (stable: lowest
    ///   index wins ties).
    #[test]
    fn arbitrate_invariants(
        budget in 1usize..5,
        measured in proptest::collection::vec(70.0f64..=84.0, 1..10),
        cap_bits in proptest::collection::vec(0.05f64..=1.0, 1..10),
        prop_bits in proptest::collection::vec(0.05f64..=1.0, 1..10),
    ) {
        use gfsc_coord::obs::Recorder;
        use gfsc_coord::CappingCoordinator;
        let n = measured.len().min(cap_bits.len()).min(prop_bits.len());
        let t_emergency = Celsius::new(80.0);
        let measured: Vec<Celsius> = measured[..n].iter().map(|&t| Celsius::new(t)).collect();
        let before: Vec<Utilization> = cap_bits[..n].iter().map(|&c| Utilization::new(c)).collect();
        let proposed: Vec<Utilization> =
            prop_bits[..n].iter().map(|&p| Utilization::new(p)).collect();
        let mut caps = before.clone();
        let mut coord = CappingCoordinator::new(n, budget, t_emergency);
        coord.arbitrate(&measured, &mut caps, &proposed, 0, &mut Recorder::disarmed());

        let mut non_emergency_cuts = 0;
        for i in 0..n {
            let emergency = measured[i] >= t_emergency;
            // Enforced value is the hold, the proposal, or (emergency
            // raise) the clamp back to the current cap — never invented.
            prop_assert!(
                caps[i] == before[i] || caps[i] == proposed[i] || caps[i] == proposed[i].min(before[i]),
                "socket {i} got an invented cap {:?} (was {:?}, proposed {:?})",
                caps[i], before[i], proposed[i]
            );
            // Monotone in the proposal: never past it, never opposite it.
            if proposed[i] >= before[i] {
                prop_assert!(caps[i] >= before[i] && caps[i] <= proposed[i].max(before[i]));
            } else {
                prop_assert!(caps[i] <= before[i] && caps[i] >= proposed[i]);
            }
            if emergency {
                prop_assert!(caps[i] <= before[i], "emergency raised socket {i}");
            } else if proposed[i] >= before[i] {
                prop_assert_eq!(caps[i], proposed[i], "sub-emergency raise dropped");
            } else if caps[i] < before[i] {
                non_emergency_cuts += 1;
            }
        }
        prop_assert!(
            non_emergency_cuts <= budget,
            "{non_emergency_cuts} budgeted cuts granted with budget {budget}"
        );
        // Hottest-first: a granted budgeted cut is never cooler than a
        // denied one (stable ties: lower index wins).
        for i in 0..n {
            let i_granted = caps[i] < before[i] && measured[i] < t_emergency;
            if !i_granted {
                continue;
            }
            for j in 0..n {
                let j_denied =
                    proposed[j] < before[j] && caps[j] == before[j] && measured[j] < t_emergency;
                if j_denied {
                    prop_assert!(
                        measured[i] > measured[j] || (measured[i] == measured[j] && i < j),
                        "granted socket {i} ({:?}) is cooler than denied socket {j} ({:?})",
                        measured[i], measured[j]
                    );
                }
            }
        }
    }
}
