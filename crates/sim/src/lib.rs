//! Discrete-event simulator for metropolitan wireless mesh networks
//! running PEACE (paper §III network model, §V.A attack analysis).
//!
//! The simulator drives the *real* protocol stack — every handshake in the
//! event loop performs actual pairing-based group signatures — over a
//! city-scale topology (router grid, mobile users, multi-hop relays), plus
//! abstract cost-model experiments for DoS floods where wall-clock crypto
//! would dominate.
//!
//! # Examples
//!
//! ```
//! use peace_sim::{SimConfig, SimWorld};
//!
//! let mut world = SimWorld::new(SimConfig {
//!     users: 6,
//!     end_time: 4_000,
//!     ..SimConfig::default()
//! });
//! let metrics = world.run();
//! assert!(metrics.auth_attempts() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod chaos;
pub mod city;
pub mod metrics;
pub mod topology;
pub mod world;

pub use attacks::{
    run_dos_experiment, run_injection_matrix, run_linking_game, run_phishing_experiment,
    run_url_growth, DosCostModel, DosReport, InjectionOutcome, LinkingReport, PhishingReport,
    UrlGrowthPoint,
};
pub use chaos::{run_chaos_soak, ChaosConfig, ChaosReport};
pub use city::{run_city, CityConfig, CityReport, CityTotals, Scenario};
pub use metrics::SimMetrics;
pub use topology::{Position, Topology, TopologyConfig};
pub use world::{Event, SimConfig, SimWorld};

#[cfg(test)]
mod tests {
    use super::*;
    use peace_protocol::FaultPlan;

    #[test]
    fn small_city_runs_and_authenticates() {
        let mut world = SimWorld::new(SimConfig {
            users: 8,
            groups: 2,
            end_time: 6_000,
            ..SimConfig::default()
        });
        let m = world.run().clone();
        assert!(m.auth_success > 0, "metrics: {m:?}");
        assert!(m.data_delivered > 0);
        assert_eq!(m.auth_fail.values().sum::<u64>(), 0, "failures: {m:?}");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let cfg = SimConfig {
            users: 5,
            end_time: 3_000,
            ..SimConfig::default()
        };
        let a = SimWorld::new(cfg).run_owned();
        let b = SimWorld::new(cfg).run_owned();
        assert_eq!(a.auth_success, b.auth_success);
        assert_eq!(a.peer_success, b.peer_success);
        assert_eq!(a.data_delivered, b.data_delivered);
    }

    #[test]
    fn sparse_city_has_relays_or_disconnects() {
        let mut world = SimWorld::new(SimConfig {
            users: 16,
            topology: TopologyConfig {
                router_range: 220.0,
                user_range: 260.0,
                routers_per_side: 2,
                ..TopologyConfig::default()
            },
            end_time: 8_000,
            ..SimConfig::default()
        });
        let m = world.run().clone();
        // In a sparse layout something nontrivial must happen: either some
        // user is disconnected or relayed hops occurred.
        assert!(
            m.disconnected_users > 0 || m.relay_hops > 0,
            "metrics: {m:?}"
        );
    }

    #[test]
    fn dos_experiment_puzzle_shape() {
        let model = DosCostModel::default();
        // Without puzzles, a heavy flood starves legitimate users.
        let without = run_dos_experiment(&model, 500.0, 5.0, 10, false, 1);
        // With puzzles, the same flood is shed cheaply.
        let with = run_dos_experiment(&model, 500.0, 5.0, 10, true, 1);
        assert!(
            with.legit_success_rate > without.legit_success_rate,
            "with: {with:?}, without: {without:?}"
        );
        assert!(with.legit_success_rate > 0.9);
        assert!(without.legit_success_rate < 0.5);
        assert!(with.flood_shed > 0);
    }

    #[test]
    fn dos_no_flood_baseline_perfect() {
        let model = DosCostModel::default();
        for puzzles in [false, true] {
            let r = run_dos_experiment(&model, 0.0, 5.0, 10, puzzles, 2);
            assert!((r.legit_success_rate - 1.0).abs() < 1e-9, "{r:?}");
        }
    }

    #[test]
    fn phishing_window_bounded_by_list_age() {
        let max_age = 20_000;
        let report = run_phishing_experiment(max_age, 50_000, 1_000, 120_000, 3);
        // Some early phishes succeed…
        assert!(report.attempts.iter().any(|&(_, ok)| ok), "{report:?}");
        // …but the window is bounded by the list age (captured at
        // revocation time, so at most max_age after it).
        assert!(report.measured_window() <= max_age + 1_000);
        // and late attempts all fail
        assert!(report
            .attempts
            .iter()
            .filter(|&&(t, _)| t > report.revoked_at + max_age)
            .all(|&(_, ok)| !ok));
    }

    #[test]
    fn linking_game_is_coin_flip() {
        // Unlinkability (§V.B): a byte-similarity eavesdropper cannot beat
        // chance at matching sessions to users. 40 trials: binomial(40, .5)
        // lies in [12, 28] except with probability < 1e-4.
        let report = run_linking_game(40, 99);
        assert_eq!(report.trials, 40);
        let acc = report.accuracy();
        assert!(
            (0.3..=0.7).contains(&acc),
            "accuracy {acc} suggests linkability"
        );
    }

    #[test]
    fn radio_loss_degrades_and_recovers() {
        let lossy = SimWorld::new(SimConfig {
            users: 8,
            end_time: 8_000,
            fault: FaultPlan {
                drop_prob: 0.3,
                ..FaultPlan::NONE
            },
            ..SimConfig::default()
        })
        .run_owned();
        assert!(
            lossy.fault_stats.dropped > 0,
            "losses must occur: {lossy:?}"
        );
        assert!(
            lossy
                .auth_fail
                .keys()
                .any(|k| k.starts_with("channel_loss_")),
            "lost handshakes recorded: {lossy:?}"
        );
        // With three messages at 30% loss each, success ≈ 0.7³ ≈ 34%; the
        // network keeps functioning (retries land eventually).
        assert!(lossy.auth_success > 0);
        let clean = SimWorld::new(SimConfig {
            users: 8,
            end_time: 8_000,
            ..SimConfig::default()
        })
        .run_owned();
        assert!(clean.auth_success_rate() > lossy.auth_success_rate());
        assert_eq!(clean.fault_stats.dropped, 0);
    }

    #[test]
    fn router_load_distribution_recorded() {
        let m = SimWorld::new(SimConfig {
            users: 10,
            end_time: 6_000,
            ..SimConfig::default()
        })
        .run_owned();
        let sum: u64 = m.auths_by_router.values().sum();
        assert_eq!(sum, m.auth_success);
        assert!(!m.auths_by_router.is_empty());
    }

    #[test]
    fn url_growth_capped_by_rotation() {
        // 2 revocations/day for 12 days; rotate every 4 days.
        let points = run_url_growth(12, 2, 4, 5);
        assert_eq!(points.len(), 12);
        let last = points.last().unwrap();
        // Without renewal the URL accumulates every revocation.
        assert_eq!(last.url_len_accumulating, 24);
        // With rotation it never exceeds one rotation period's worth.
        let max_rotating = points
            .iter()
            .map(|p| p.url_len_with_rotation)
            .max()
            .unwrap();
        assert!(max_rotating <= 2 * 4, "rotation caps |URL|: {max_rotating}");
        // And immediately after a rotation day it resets to zero.
        assert_eq!(points[3].url_len_with_rotation, 0); // day 4
        assert_eq!(points[7].url_len_with_rotation, 0); // day 8
                                                        // Scan cost is 2|URL| by construction.
        assert_eq!(last.scan_pairings_accumulating, 48);
        // Delta sync fetches O(churn) tokens/day while the full list grows
        // without bound, and rotation days force a full fetch.
        assert!(points.iter().all(|p| p.delta_tokens_accumulating == 2));
        assert_eq!(points[3].delta_tokens_with_rotation, None); // day 4
        assert_eq!(points[4].delta_tokens_with_rotation, Some(2)); // day 5
    }

    #[test]
    fn injection_matrix_filters_all_attackers() {
        let outcomes = run_injection_matrix(4);
        assert_eq!(outcomes.len(), 4);
        for o in &outcomes {
            if o.attacker == "honest-control" {
                assert!(o.accepted, "honest control must pass: {o:?}");
            } else {
                assert!(!o.accepted, "attacker must be filtered: {o:?}");
                assert!(o.rejection.is_some());
            }
        }
    }
}
