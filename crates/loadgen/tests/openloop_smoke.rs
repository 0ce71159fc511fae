//! End-to-end smoke for the open-loop driver: a real router daemon on
//! loopback, three worker agents, a short Poisson schedule — every
//! arrival must complete and the latency distributions must be sane.

use std::time::Duration;

use peace_loadgen::{
    run_open_loop, ArrivalProcess, Latencies, LoadConfig, LoadOutcome, RampConfig,
};
use peace_net::{build_world, ConnConfig, DaemonConfig, RouterDaemon, UserAgent, WorldSpec};

fn test_cfg() -> DaemonConfig {
    DaemonConfig {
        conn: ConnConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            ..ConnConfig::default()
        },
        max_connections: 64,
        connect_timeout: Duration::from_secs(5),
        drain: Duration::from_secs(3),
        ..DaemonConfig::default()
    }
}

#[test]
fn open_loop_drives_real_daemon() {
    let spec = WorldSpec {
        seed: 0x10AD,
        users: 3,
        routers: 1,
    };
    let w = build_world(&spec).unwrap();
    let cfg = test_cfg();
    let mut router = w.routers.into_iter().next().unwrap();
    let now = peace_net::clock::wall_ms();
    router
        .update_lists(w.no.publish_crl(now), w.no.publish_url(now))
        .expect("lists admitted");
    let daemon = RouterDaemon::spawn(router, 1, "127.0.0.1:0", cfg).unwrap();
    let routers = vec![daemon.addr()];

    let agents: Vec<UserAgent> = w
        .users
        .into_iter()
        .enumerate()
        .map(|(i, u)| UserAgent::new(u, 0x5EED + i as u64, cfg))
        .collect();

    let load = LoadConfig {
        rate_per_sec: 25.0,
        duration_ms: 1_200,
        process: ArrivalProcess::Poisson,
        echo_per_session: 1,
        hold_sessions: false,
        ..LoadConfig::default()
    };
    let (outcome, agents_back) = run_open_loop(agents, &routers, &load);

    assert!(outcome.offered > 0, "schedule must offer arrivals");
    assert_eq!(
        outcome.completed, outcome.offered,
        "healthy daemon completes every arrival: {outcome:?}"
    );
    assert_eq!(outcome.failed, 0);
    assert_eq!(outcome.echoes, outcome.completed);
    assert_eq!(outcome.hs_total_us.count(), outcome.completed);
    assert_eq!(outcome.session_us.count(), outcome.completed);
    assert_eq!(outcome.check(), Ok(()));
    // Session latency (from scheduled arrival) can never undercut the
    // raw handshake, and percentiles must be ordered.
    assert!(outcome.session_us.percentile(0.5) > 0);
    let p50 = outcome.session_us.percentile(0.50);
    let p99 = outcome.session_us.percentile(0.99);
    assert!(p50 <= p99, "{p50} vs {p99}");
    // Worker telemetry merged across agents.
    assert_eq!(
        outcome
            .telemetry
            .counters
            .get("net.handshakes_ok")
            .copied()
            .unwrap_or(0),
        outcome.completed
    );
    assert_eq!(agents_back.len(), 3, "agents returned for reuse");

    assert_eq!(daemon.telemetry().counters["net.handler_panics"], 0);
    daemon.shutdown().unwrap();
}

#[test]
fn hold_mode_tracks_peak_concurrency() {
    let spec = WorldSpec {
        seed: 0x401D,
        users: 2,
        routers: 1,
    };
    let w = build_world(&spec).unwrap();
    let cfg = test_cfg();
    let mut router = w.routers.into_iter().next().unwrap();
    let now = peace_net::clock::wall_ms();
    router
        .update_lists(w.no.publish_crl(now), w.no.publish_url(now))
        .expect("lists admitted");
    let daemon = RouterDaemon::spawn(router, 2, "127.0.0.1:0", cfg).unwrap();
    let routers = vec![daemon.addr()];

    let agents: Vec<UserAgent> = w
        .users
        .into_iter()
        .enumerate()
        .map(|(i, u)| UserAgent::new(u, 0xA0 + i as u64, cfg))
        .collect();

    let load = LoadConfig {
        rate_per_sec: 20.0,
        duration_ms: 700,
        process: ArrivalProcess::Uniform,
        echo_per_session: 0,
        hold_sessions: true,
        ..LoadConfig::default()
    };
    let (outcome, _) = run_open_loop(agents, &routers, &load);
    assert!(outcome.completed > 0);
    // Nothing is closed until every worker has finished, so the peak is
    // every session, and each must still answer.
    assert_eq!(outcome.peak_concurrent, outcome.completed);
    assert_eq!(outcome.held_live, outcome.completed, "{outcome:?}");
    assert_eq!(outcome.check(), Ok(()));
    daemon.shutdown().unwrap();
}

/// 1000 sessions whose true p99 (rank 990) is 300 ms. Ranks 900–1000 all
/// fall in the telemetry grid's 262–524 ms bucket, where interpolating by
/// rank would read ~494 ms: the verdict must turn on the latency.
#[test]
fn ramp_verdict_reads_the_observed_p99() {
    let mut samples = vec![10_000u64; 899];
    samples.extend((0..91).map(|i| 270_000 + i * 30_000 / 90));
    samples.extend([520_000; 10]);
    let outcome = LoadOutcome {
        offered: 1_000,
        completed: 1_000,
        session_us: Latencies::new(samples),
        ..LoadOutcome::default()
    };
    assert_eq!(outcome.session_us.percentile(0.99), 300_000);
    assert_eq!(outcome.session_us.percentile(0.50), 10_000);
    assert_eq!(outcome.session_us.percentile(1.0), 520_000);
    let slo = |slo_p99_us| RampConfig {
        slo_p99_us,
        ..RampConfig::default()
    };
    assert!(slo(400_000).passed_by(&outcome));
    assert!(!slo(280_000).passed_by(&outcome));
    // The success floor still applies beside the SLO.
    let lossy = LoadOutcome {
        completed: 989,
        ..outcome
    };
    assert!(!slo(400_000).passed_by(&lossy));
}

/// The check `smoke`, `full` and `tcp` exit on: a killed held session, a
/// failed session and a missing one each fail it.
#[test]
fn a_run_fails_its_own_check_when_a_session_is_lost() {
    let healthy = LoadOutcome {
        offered: 240,
        completed: 240,
        peak_concurrent: 240,
        held_live: 240,
        ..LoadOutcome::default()
    };
    assert_eq!(healthy.check(), Ok(()));
    let not_held = LoadOutcome {
        peak_concurrent: 0,
        held_live: 0,
        ..healthy.clone()
    };
    assert_eq!(not_held.check(), Ok(()), "nothing held, nothing to lose");
    for (name, broken) in [
        (
            "held session killed",
            LoadOutcome {
                held_live: 239,
                ..healthy.clone()
            },
        ),
        (
            "session failed",
            LoadOutcome {
                completed: 239,
                failed: 1,
                ..healthy.clone()
            },
        ),
        (
            "session missing",
            LoadOutcome {
                completed: 239,
                ..healthy.clone()
            },
        ),
        ("nothing offered", LoadOutcome::default()),
    ] {
        assert!(broken.check().is_err(), "{name}");
    }
}
