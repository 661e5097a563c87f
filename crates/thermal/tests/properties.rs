//! Property-based tests for the thermal models.

use gfsc_thermal::{
    FanZoneMap, HeatSinkLaw, HeatSinkNode, PlantCalibration, RackPlant, RackTopology,
    RcNetworkBuilder, ServerThermalModel, Topology, ZoneId,
};
use gfsc_units::{Celsius, JoulesPerKelvin, KelvinPerWatt, Rpm, Seconds, Watts};
use proptest::prelude::*;

/// The paper's single-socket server on the RC network: the one-slot rack.
fn network_single_socket() -> RackPlant {
    let cal = PlantCalibration {
        ambient: Celsius::new(30.0),
        law: HeatSinkLaw::date14(),
        sink_tau: Seconds::new(60.0),
        tau_speed: Rpm::new(8500.0),
        r_jc: KelvinPerWatt::new(0.10),
        die_tau: Seconds::new(0.1),
    };
    RackPlant::new(&cal, &RackTopology::single_server(Topology::single_socket())).unwrap()
}

proptest! {
    /// The resistance law is strictly decreasing in fan speed.
    #[test]
    fn law_is_monotonically_decreasing(v in 200.0f64..8400.0, dv in 1.0f64..500.0) {
        let law = HeatSinkLaw::date14();
        let r1 = law.resistance(Rpm::new(v)).value();
        let r2 = law.resistance(Rpm::new(v + dv)).value();
        prop_assert!(r2 < r1);
    }

    /// The law inversion is a right inverse over the operating range.
    #[test]
    fn law_inversion_round_trips(v in 150.0f64..20_000.0) {
        let law = HeatSinkLaw::date14();
        let r = law.resistance(Rpm::new(v));
        let back = law.speed_for_resistance(r).unwrap();
        prop_assert!((back.value() - v).abs() / v < 1e-6);
    }

    /// One exact-exponential step always lands between the starting
    /// temperature and the steady state (no overshoot, ever).
    #[test]
    fn heatsink_step_contracts_toward_steady_state(
        t0 in 10.0f64..120.0,
        p in 0.0f64..200.0,
        v in 500.0f64..8500.0,
        dt in 0.01f64..300.0,
    ) {
        let mut node = HeatSinkNode::date14(Celsius::new(t0));
        let amb = Celsius::new(30.0);
        let ss = node.steady_state(amb, Watts::new(p), Rpm::new(v));
        let before = node.temperature();
        let after = node.step(Seconds::new(dt), amb, Watts::new(p), Rpm::new(v));
        let lo = before.min(ss);
        let hi = before.max(ss);
        prop_assert!(after >= lo - 1e-9 && after <= hi + 1e-9,
            "step left [{lo}, {hi}]: {after}");
    }

    /// Splitting a step in two gives the same result as one big step
    /// (semigroup property of the exact exponential integrator).
    #[test]
    fn heatsink_step_is_a_semigroup(
        t0 in 10.0f64..120.0,
        p in 0.0f64..200.0,
        v in 500.0f64..8500.0,
        dt in 0.1f64..100.0,
    ) {
        let amb = Celsius::new(30.0);
        let mut one = HeatSinkNode::date14(Celsius::new(t0));
        one.step(Seconds::new(dt), amb, Watts::new(p), Rpm::new(v));
        let mut two = HeatSinkNode::date14(Celsius::new(t0));
        two.step(Seconds::new(dt / 2.0), amb, Watts::new(p), Rpm::new(v));
        two.step(Seconds::new(dt / 2.0), amb, Watts::new(p), Rpm::new(v));
        prop_assert!((one.temperature() - two.temperature()).abs() < 1e-9);
    }

    /// Steady-state junction temperature increases with power and decreases
    /// with fan speed.
    #[test]
    fn junction_monotone_in_power_and_fan(
        p in 96.0f64..159.0,
        v in 1000.0f64..8000.0,
    ) {
        let m = ServerThermalModel::date14(Celsius::new(30.0));
        let base = m.steady_state_junction(Watts::new(p), Rpm::new(v));
        let hotter = m.steady_state_junction(Watts::new(p + 1.0), Rpm::new(v));
        let cooler = m.steady_state_junction(Watts::new(p), Rpm::new(v + 500.0));
        prop_assert!(hotter > base);
        prop_assert!(cooler < base);
    }

    /// `min_safe_fan_speed` really is the boundary of safety when it exists.
    #[test]
    fn min_safe_fan_speed_is_tight(
        p in 100.0f64..160.0,
        limit in 60.0f64..95.0,
    ) {
        let m = ServerThermalModel::date14(Celsius::new(30.0));
        if let Some(v) = m.min_safe_fan_speed(Watts::new(p), Celsius::new(limit)) {
            if v.value() > 150.0 {
                let at = m.steady_state_junction(Watts::new(p), v);
                prop_assert!(at <= Celsius::new(limit + 0.01), "unsafe at v: {at}");
                let below = m.steady_state_junction(Watts::new(p), v - 50.0);
                prop_assert!(below >= Celsius::new(limit - 0.01), "not minimal: {below}");
            }
        }
    }

    /// The RC-network-backed two-node plant matches `ServerThermalModel`
    /// step for step: identical steady states (the equilibrium is
    /// integrator-independent, so agreement is to solver precision) and
    /// transient junction trajectories within the backward-Euler
    /// first-order error bound, across random power/fan operating
    /// sequences at the production 0.5 s step.
    #[test]
    fn network_two_node_plant_tracks_server_model_step_for_step(
        powers in proptest::collection::vec(96.0f64..160.0, 1..5),
        fans in proptest::collection::vec(1500.0f64..8500.0, 1..5),
    ) {
        let mut network = network_single_socket();
        let mut exact = ServerThermalModel::date14(Celsius::new(30.0));
        let phases = powers.len().min(fans.len());
        for k in 0..phases {
            let (p, v) = (Watts::new(powers[k]), Rpm::new(fans[k]));
            // Steady states agree to solver precision at every phase's
            // operating point.
            let ss_net = network.steady_state_hottest_in_zone(0, &[p], &[v]);
            let ss_exact = exact.steady_state_junction(p, v);
            prop_assert!((ss_net - ss_exact).abs() < 1e-9,
                "steady state diverged: {ss_net} vs {ss_exact}");
            // 400 s of transient per phase at the production step: the
            // integrators differ (backward Euler vs exact exponential) by
            // at most the first-order bound dt/(2 tau) of the 60 s sink —
            // well under 0.5 K on any Table I excursion. The first ~2 s
            // after a power/fan step are excluded: there the 0.1 s die
            // node's sub-step transient (which the exact model resolves and
            // a 0.5 s backward-Euler step legitimately smears over a few
            // steps) dominates, and no controller samples that fast.
            for s in 0..800 {
                network.step(Seconds::new(0.5), &[p], &[v]);
                exact.step(Seconds::new(0.5), p, v);
                let (a, b) = (network.hottest_junction(), exact.junction());
                prop_assert!(s < 4 || (a - b).abs() < 0.5,
                    "transient diverged at (p={p}, v={v}), step {s}: {a} vs {b}");
            }
        }
        // Hold the last operating point: both settle onto the *same*
        // equilibrium.
        let (p, v) = (Watts::new(powers[phases - 1]), Rpm::new(fans[phases - 1]));
        for _ in 0..40_000 {
            network.step(Seconds::new(0.5), &[p], &[v]);
            exact.step(Seconds::new(0.5), p, v);
        }
        let (a, b) = (network.hottest_junction(), exact.junction());
        prop_assert!((a - b).abs() < 1e-6, "settled states differ: {a} vs {b}");
    }

    /// The network plant's min-safe-speed bisection agrees with the
    /// analytic two-node inversion when the topology is the plain single
    /// socket.
    #[test]
    fn network_min_safe_speed_matches_analytic_inversion(
        p in 100.0f64..160.0,
        limit in 60.0f64..95.0,
    ) {
        let plant = network_single_socket();
        let exact = ServerThermalModel::date14(Celsius::new(30.0));
        let a = plant.min_safe_zone_fan(0, &[Watts::new(p)], &[Rpm::new(0.0)], Celsius::new(limit));
        let b = exact.min_safe_fan_speed(Watts::new(p), Celsius::new(limit));
        match (a, b) {
            (Some(va), Some(vb)) => {
                // Both clamp to the law floor below 100 rpm; above it the
                // bisection must land on the analytic root.
                if vb.value() > 150.0 {
                    prop_assert!((va - vb).abs() / vb.value() < 1e-6,
                        "roots differ: {va} vs {vb}");
                }
            }
            (None, None) => {}
            (a, b) => prop_assert!(false, "feasibility disagrees: {a:?} vs {b:?}"),
        }
    }

    /// Backward-Euler networks never escape the envelope spanned by the
    /// boundary temperature and the hottest steady state.
    #[test]
    fn network_temperatures_stay_in_physical_envelope(
        p in 0.0f64..200.0,
        steps in 1usize..200,
        dt in 0.1f64..10.0,
    ) {
        let mut net = RcNetworkBuilder::new()
            .node("die", JoulesPerKelvin::new(1.0), Celsius::new(30.0))
            .node("sink", JoulesPerKelvin::new(300.0), Celsius::new(30.0))
            .boundary("ambient", Celsius::new(30.0))
            .link("die", "sink", KelvinPerWatt::new(0.1))
            .link("sink", "ambient", KelvinPerWatt::new(0.25))
            .build()
            .unwrap();
        let die = net.node_id("die").unwrap();
        net.set_power(die, Watts::new(p));
        let ss = net.steady_state();
        let hi = ss[0].value().max(ss[1].value()).max(30.0) + 1e-6;
        for _ in 0..steps {
            net.step(Seconds::new(dt));
            for id in [net.node_id("die").unwrap(), net.node_id("sink").unwrap()] {
                let t = net.temperature(id).value();
                prop_assert!(t >= 30.0 - 1e-6 && t <= hi, "escaped envelope: {t}");
            }
        }
    }

    /// The cached-factorization `step` matches the naive assemble-and-solve
    /// reference bit for bit on random networks — random node counts,
    /// capacitances, resistances, powers and step sizes — including a
    /// mid-run conductance change and a mid-run `dt` change, the two events
    /// that invalidate the cache.
    #[test]
    fn cached_step_matches_naive_reference_on_random_networks(
        caps in proptest::collection::vec(0.5f64..500.0, 2..7),
        resistances in proptest::collection::vec(0.05f64..2.0, 2..7),
        powers in proptest::collection::vec(0.0f64..200.0, 2..7),
        dt1 in 0.05f64..5.0,
        dt2 in 0.05f64..5.0,
        new_r in 0.05f64..2.0,
        steps in 2usize..40,
    ) {
        // A chain topology: node0 - node1 - ... - ambient; length set by the
        // shortest generated vector.
        let n = caps.len().min(resistances.len()).min(powers.len());
        let mut builder = RcNetworkBuilder::new();
        for (i, &c) in caps.iter().take(n).enumerate() {
            builder = builder.node(format!("n{i}"), JoulesPerKelvin::new(c), Celsius::new(30.0));
        }
        builder = builder.boundary("ambient", Celsius::new(30.0));
        for (i, &r) in resistances.iter().take(n).enumerate() {
            let to = if i + 1 == n { "ambient".to_owned() } else { format!("n{}", i + 1) };
            builder = builder.link(format!("n{i}"), to, KelvinPerWatt::new(r));
        }
        let mut cached = builder.build().unwrap();
        let mut naive = cached.clone();
        for (i, &p) in powers.iter().take(n).enumerate() {
            let id = cached.node_id(&format!("n{i}")).unwrap();
            cached.set_power(id, Watts::new(p));
            naive.set_power(id, Watts::new(p));
        }
        let last_link = cached.link_id(&format!("n{}", n - 1), "ambient").unwrap();
        for k in 0..steps {
            // Mid-run invalidations: swap dt halfway, move the
            // sink→ambient-style conductance two thirds in.
            let dt = if k < steps / 2 { dt1 } else { dt2 };
            if k == (2 * steps) / 3 {
                cached.set_link_resistance_by_id(last_link, KelvinPerWatt::new(new_r));
                naive
                    .set_link_resistance(&format!("n{}", n - 1), "ambient", KelvinPerWatt::new(new_r))
                    .unwrap();
            }
            cached.step(Seconds::new(dt));
            naive.step_uncached(Seconds::new(dt));
            for i in 0..n {
                let id = cached.node_id(&format!("n{i}")).unwrap();
                let a = cached.temperature(id).value();
                let b = naive.temperature(id).value();
                prop_assert_eq!(a.to_bits(), b.to_bits(), "node {} diverged at step {}: {} vs {}", i, k, a, b);
            }
        }
    }
}

proptest! {
    /// The fan→link mapping is a true partition with a lossless round
    /// trip: for a random assignment of sink links across a random number
    /// of zones, (a) each zone's probe overrides are exactly its own
    /// attached links at its own law — the union covers every attached
    /// link, pairwise disjoint; (b) `set_fan` re-parameterizes exactly the
    /// zone's own links (bitwise equal to setting them by hand) and
    /// leaves every other zone's links untouched; (c) the zone's declared
    /// fan speed reads back exactly.
    #[test]
    fn fan_zone_map_link_partition_round_trips(
        sinks in 2usize..9,
        zone_count in 1usize..5,
        assignment_seed in 0u64..4096,
        fan in 500.0f64..9000.0,
    ) {
        let law = HeatSinkLaw::date14();
        let mut builder = RcNetworkBuilder::new().boundary("ambient", Celsius::new(30.0));
        for i in 0..sinks {
            builder = builder.node(format!("sink{i}"), JoulesPerKelvin::new(300.0), Celsius::new(30.0)).link(
                format!("sink{i}"),
                "ambient",
                law.with_airflow_derate(1.0 + 0.1 * i as f64).resistance(Rpm::new(8500.0)),
            );
        }
        let mut net = builder.build().unwrap();

        // Deterministic pseudo-random link→zone assignment.
        let mut state = assignment_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut zones = FanZoneMap::new();
        let ids: Vec<ZoneId> =
            (0..zone_count).map(|z| zones.add_zone(format!("z{z}"), Rpm::new(8500.0))).collect();
        let mut owner = vec![0usize; sinks];
        for (i, slot) in owner.iter_mut().enumerate() {
            *slot = (next() as usize) % zone_count;
            let link = net.link_id(&format!("sink{i}"), "ambient").unwrap();
            zones.attach(ids[*slot], link, law.with_airflow_derate(1.0 + 0.1 * i as f64));
        }

        // (a) Partition: per-zone overrides are exactly the zone's links,
        // the union is all attached links, and no link appears twice.
        let mut seen = vec![false; sinks];
        let mut total = 0usize;
        for (z, &zone) in ids.iter().enumerate() {
            let mut overrides = Vec::new();
            zones.extend_overrides(zone, Rpm::new(fan), &mut overrides);
            prop_assert_eq!(overrides.len(), zones.link_count(zone));
            for (link, resistance) in overrides {
                let i = (0..sinks)
                    .find(|&i| net.link_id(&format!("sink{i}"), "ambient").unwrap() == link)
                    .expect("override refers to an attached link");
                prop_assert_eq!(owner[i], z, "link {} surfaced in zone {}", i, z);
                prop_assert!(!seen[i], "link {} appeared in two zones", i);
                seen[i] = true;
                total += 1;
                // Each link is probed through its own derated law.
                let expected = law.with_airflow_derate(1.0 + 0.1 * i as f64)
                    .resistance(Rpm::new(fan));
                prop_assert_eq!(resistance.value().to_bits(), expected.value().to_bits());
            }
        }
        prop_assert_eq!(total, sinks, "some attached link surfaced in no zone");

        // (b) + (c) Round trip: set one zone's fan; exactly its links move
        // (bitwise to the hand-set value), everything else holds.
        let target = ids[(next() as usize) % zone_count];
        zones.set_fan(&mut net, target, Rpm::new(fan));
        prop_assert_eq!(zones.fan(target).value().to_bits(), fan.to_bits());
        for i in 0..sinks {
            let link = net.link_id(&format!("sink{i}"), "ambient").unwrap();
            let expected = if ids[owner[i]] == target {
                law.with_airflow_derate(1.0 + 0.1 * i as f64).resistance(Rpm::new(fan))
            } else {
                law.with_airflow_derate(1.0 + 0.1 * i as f64).resistance(Rpm::new(8500.0))
            };
            // The network stores conductances, so the read-back passes
            // through 1/(1/r): compare to double-rounding precision.
            let got = net.link_resistance_by_id(link).value();
            prop_assert!(
                (got - expected.value()).abs() <= 1e-12 * expected.value(),
                "link {} moved unexpectedly: {} vs {}", i, got, expected.value()
            );
        }
    }
}

proptest! {
    /// The batched stepper is a drop-in for the scalar integrator: over
    /// random chain-with-cross-link topologies, random capacitances and
    /// resistances, and a random power/conductance schedule, every lane of
    /// a [`gfsc_thermal::BatchRcNetwork`] (including the degenerate B=1
    /// batch) replays `RcNetwork::step` bit for bit.
    #[test]
    fn batch_lanes_match_scalar_step_bitwise(
        n in 2usize..6,
        lanes in 1usize..4,
        caps in proptest::collection::vec(0.5f64..400.0, 6..7),
        res in proptest::collection::vec(0.05f64..2.0, 8..9),
        powers in proptest::collection::vec(0.0f64..200.0, 24..25),
        dt in 0.05f64..5.0,
    ) {
        use gfsc_thermal::{BatchRcNetwork, RcNetwork};
        let build = || {
            let mut b = RcNetworkBuilder::new();
            for (i, &cap) in caps.iter().enumerate().take(n) {
                b = b.node(format!("n{i}"), JoulesPerKelvin::new(cap), Celsius::new(30.0));
            }
            b = b.boundary("amb", Celsius::new(30.0));
            for (i, &r) in res.iter().enumerate().take(n - 1) {
                b = b.link(format!("n{i}"), format!("n{}", i + 1), KelvinPerWatt::new(r));
            }
            b = b.link(format!("n{}", n - 1), "amb", KelvinPerWatt::new(res[n - 1]));
            if n >= 3 {
                // A cross link makes the matrix genuinely 2-D, not tridiagonal.
                b = b.link("n0", "n2", KelvinPerWatt::new(res[n]));
            }
            b.build().unwrap()
        };
        let mut batched: Vec<RcNetwork> = (0..lanes).map(|_| build()).collect();
        let mut scalar: Vec<RcNetwork> = (0..lanes).map(|_| build()).collect();
        let hot = batched[0].node_id("n0").unwrap();
        let tail_link = batched[0]
            .link_id(&format!("n{}", n - 1), "amb")
            .unwrap();
        let mut batch = BatchRcNetwork::new(&batched.iter().collect::<Vec<_>>()).unwrap();
        for (step, &p) in powers.iter().enumerate() {
            for lane in 0..lanes {
                // Per-lane power schedule plus a conductance move every
                // fourth step: the scalar caches refactorize, the batch
                // regroups — trajectories must stay identical.
                let lane_p = Watts::new(p + 11.0 * lane as f64);
                let r = KelvinPerWatt::new(res[(step / 4 + lane) % res.len()]);
                for net in [&mut batched[lane], &mut scalar[lane]] {
                    net.set_power(hot, lane_p);
                    if step % 4 == 0 {
                        net.set_link_resistance_by_id(tail_link, r);
                    }
                }
            }
            let mut refs: Vec<&mut RcNetwork> = batched.iter_mut().collect();
            batch.step(&mut refs, Seconds::new(dt));
            for lane in 0..lanes {
                scalar[lane].step(Seconds::new(dt));
                for i in 0..n {
                    let id = scalar[lane].node_id(&format!("n{i}")).unwrap();
                    prop_assert_eq!(
                        batched[lane].temperature(id).value().to_bits(),
                        scalar[lane].temperature(id).value().to_bits(),
                        "lane {} node {} diverged at step {}", lane, i, step
                    );
                }
            }
        }
    }
}
