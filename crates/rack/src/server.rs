//! `RackServer`'s unit tests. The rack body lives in `gfsc_server`
//! (re-exported here), where it shares one chassis with `Server`.

mod tests {
    use crate::{RackServer, RackSpec, RackTopology};
    use gfsc_units::{Celsius, Joules, Rpm, Seconds, Utilization};

    fn rack() -> RackServer {
        RackServer::new(RackSpec::new(RackTopology::rack_1u_x8()))
    }

    #[test]
    fn starts_at_ambient_equilibrium() {
        let r = rack();
        assert_eq!(r.true_junction(), r.spec().server.ambient);
        assert_eq!(r.zone_fan_speed(0), r.spec().server.fan_bounds.lo());
        assert_eq!(r.now(), Seconds::new(0.0));
        assert_eq!(r.cpu_energy(), Joules::new(0.0));
        assert_eq!(r.socket_count(), 8);
        assert_eq!(r.zone_count(), 2);
        assert_eq!(r.server_count(), 8);
    }

    #[test]
    fn heats_under_load_and_cools_with_zone_fans() {
        let mut r = rack();
        let executed = vec![Utilization::new(0.7); 8];
        for _ in 0..1200 {
            r.step(Seconds::new(0.5), &executed);
        }
        let hot = r.true_junction();
        assert!(hot > Celsius::new(60.0), "hot {hot}");
        r.set_all_fan_targets(Rpm::new(8500.0));
        for _ in 0..1200 {
            r.step(Seconds::new(0.5), &executed);
        }
        assert!(r.true_junction() < hot - 5.0);
    }

    #[test]
    fn starved_rear_zone_reads_hotter() {
        let mut r = rack();
        r.set_zone_fan_target(0, Rpm::new(6000.0));
        r.set_zone_fan_target(1, Rpm::new(2000.0));
        let executed = vec![Utilization::new(0.7); 8];
        for _ in 0..2400 {
            r.step(Seconds::new(0.5), &executed);
        }
        assert!(r.measured_zone(1) > r.measured_zone(0));
        assert_eq!(r.measured_rack(), r.measured_zone(1));
    }

    #[test]
    fn equilibrate_settles_everything() {
        let mut r = rack();
        let fans = [Rpm::new(4000.0), Rpm::new(4000.0)];
        r.equilibrate(Utilization::new(0.7), &fans);
        assert_eq!(r.now(), Seconds::new(0.0));
        assert_eq!(r.zone_fan_speed(0), Rpm::new(4000.0));
        // The measurement chains report the quantized equilibrium
        // immediately and stepping from equilibrium stays there.
        let before = r.true_junction();
        assert!((r.measured_rack() - before).abs() <= 1.0);
        let executed: Vec<Utilization> =
            (0..8).map(|i| r.socket_demand(i, Utilization::new(0.7))).collect();
        for _ in 0..240 {
            r.step(Seconds::new(0.5), &executed);
        }
        assert!((r.true_junction() - before).abs() < 0.01, "drifted from equilibrium");
    }

    #[test]
    fn fan_energy_counts_the_whole_wall() {
        let mut r = rack();
        r.equilibrate(Utilization::new(0.5), &[Rpm::new(4000.0), Rpm::new(4000.0)]);
        let executed = vec![Utilization::new(0.5); 8];
        for _ in 0..120 {
            r.step(Seconds::new(0.5), &executed);
        }
        // 8 fans at 4000 rpm for 60 s; per fan ~29.4·(4000/8500)³ W.
        let per_fan = r.spec().server.fan_power.power(Rpm::new(4000.0)).value();
        let expected = 8.0 * per_fan * 60.0;
        assert!((r.fan_energy().value() - expected).abs() / expected < 0.05);
    }

    #[test]
    fn socket_demands_follow_weights() {
        let spec =
            RackSpec::new(RackTopology::rack_2u_x4().with_load_weights(&[1.6, 0.8, 0.8, 0.8]));
        let r = RackServer::new(spec);
        let mut out = vec![Utilization::IDLE; r.socket_count()];
        r.socket_demands(Utilization::new(0.5), &mut out);
        // Server 0's two sockets carry 1.6× the demand share.
        assert!((out[0].value() - 0.8).abs() < 1e-12);
        assert!((out[2].value() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn shift_load_weight_moves_demand_and_conserves_the_sum() {
        let spec =
            RackSpec::new(RackTopology::rack_2u_x4().with_load_weights(&[1.6, 0.8, 0.8, 0.8]));
        let mut r = RackServer::new(spec);
        let total_before: f64 = (0..r.server_count()).map(|s| r.server_load_weight(s)).sum();
        r.shift_load_weight(0, 2, 0.4);
        assert!((r.server_load_weight(0) - 1.2).abs() < 1e-12);
        assert!((r.server_load_weight(2) - 1.2).abs() < 1e-12);
        let total_after: f64 = (0..r.server_count()).map(|s| r.server_load_weight(s)).sum();
        assert!((total_after - total_before).abs() < 1e-12, "weight sum must be conserved");
        // Socket demands follow: server 0's two sockets now carry 1.2×.
        let mut out = vec![Utilization::IDLE; r.socket_count()];
        r.socket_demands(Utilization::new(0.5), &mut out);
        assert!((out[0].value() - 0.6).abs() < 1e-12);
        assert!((out[4].value() - 0.6).abs() < 1e-12);
        // And the shift reverses exactly.
        r.shift_load_weight(2, 0, 0.4);
        assert!((r.server_load_weight(0) - 1.6).abs() < 1e-12);
        assert!((r.socket_load_weight(0) - 1.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "drain")]
    fn shift_load_weight_rejects_draining_a_server() {
        let mut r = rack();
        r.shift_load_weight(0, 1, 1.0);
    }

    #[test]
    fn min_safe_zone_fan_guards_the_zone() {
        let mut r = rack();
        r.equilibrate(Utilization::new(0.7), &[Rpm::new(4000.0), Rpm::new(4000.0)]);
        let v = r.min_safe_zone_fan(1, Utilization::new(0.7), Celsius::new(75.0)).unwrap();
        assert!(v > Rpm::new(0.0));
    }
}
