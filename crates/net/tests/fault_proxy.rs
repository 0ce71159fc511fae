//! Adversarial-channel regression: the PR 2 chaos suite's claims —
//! handshakes converge under drops/corruption via retry, and no fault
//! pattern panics the stack — re-validated over real TCP through the
//! frame-aware fault proxy.

mod common;

use std::time::Duration;

use peace_net::{
    build_world, clock::wall_ms, ConnConfig, DaemonConfig, FaultProxy, NetError, NoDaemon,
    ProxyConfig, RouterDaemon, Transient, UserAgent, WorldSpec,
};
use peace_protocol::{FaultPlan, RetryPolicy};

use common::fresh_ledger;

fn fast_cfg() -> DaemonConfig {
    DaemonConfig {
        conn: ConnConfig {
            // Short read deadline so dropped frames surface as quick
            // timeouts instead of stalling each retry for seconds.
            read_timeout: Some(Duration::from_millis(400)),
            write_timeout: Some(Duration::from_millis(400)),
            ..ConnConfig::default()
        },
        max_connections: 16,
        connect_timeout: Duration::from_secs(2),
        drain: Duration::from_secs(2),
        ..DaemonConfig::default()
    }
}

fn spawn_router(seed: u64) -> (RouterDaemon, UserAgent) {
    let w = build_world(&WorldSpec {
        seed,
        users: 1,
        routers: 1,
    })
    .unwrap();
    let mut router = w.routers.into_iter().next().unwrap();
    let now = wall_ms();
    router
        .update_lists(w.no.publish_crl(now), w.no.publish_url(now))
        .expect("lists admitted");
    let daemon = RouterDaemon::spawn(router, seed ^ 0xDAE, "127.0.0.1:0", fast_cfg()).unwrap();
    let agent = UserAgent::new(
        w.users.into_iter().next().unwrap(),
        seed ^ 0xA6E,
        fast_cfg(),
    );
    (daemon, agent)
}

#[test]
fn handshake_converges_through_drops_and_bitflips() {
    let (daemon, mut agent) = spawn_router(0xFA117);
    let mut proxy = FaultProxy::spawn(
        daemon.addr(),
        ProxyConfig {
            plan: FaultPlan {
                drop_prob: 0.25,
                bit_flip_prob: 0.12,
                truncate_prob: 0.08,
                ..FaultPlan::NONE
            },
            seed: 0xBADCAB1E,
        },
    )
    .unwrap();

    let policy = RetryPolicy {
        base_delay: 10,
        max_delay: 80,
        max_attempts: 40,
    };
    let mut sess = agent
        .connect_with_retry(proxy.addr(), &policy)
        .expect("handshake must converge under a lossy channel");

    // Data traffic through the same hostile proxy: a mangled record kills
    // the strict in-order AEAD session, so echo until one round survives,
    // re-handshaking (fresh session) whenever the channel eats one.
    let mut echoed = false;
    for round in 0..40u32 {
        match sess.echo(format!("round-{round}").as_bytes()) {
            Ok(back) => {
                assert_eq!(back, format!("round-{round}").as_bytes());
                echoed = true;
                break;
            }
            Err(e) => {
                assert!(e.is_transient(), "only transient failures expected: {e:?}");
                sess = match agent.connect_with_retry(proxy.addr(), &policy) {
                    Ok(s) => s,
                    Err(e) => panic!("re-handshake failed to converge: {e:?}"),
                };
            }
        }
    }
    assert!(echoed, "an echo round must eventually survive the channel");

    // The channel really was hostile, and nothing panicked anywhere.
    assert!(proxy.stats().total_faults() > 0, "plan must have fired");
    assert_eq!(daemon.telemetry().counters["net.handler_panics"], 0);
    assert_eq!(agent.telemetry().counters["net.handler_panics"], 0);
    assert!(
        agent.telemetry().counters["net.handshakes_ok"] >= 1,
        "at least the converged handshake"
    );

    proxy.shutdown();
    daemon.shutdown().unwrap();
}

/// Retries a delta refresh through a hostile channel until it lands; only
/// transient failures (timeouts, mangled frames) are tolerated — a
/// signature or chain error would fail the test immediately.
fn refresh_delta_with_retry(daemon: &RouterDaemon, addr: std::net::SocketAddr) -> u64 {
    for _ in 0..60 {
        match daemon.refresh_lists_delta(addr) {
            Ok(v) => return v,
            Err(e) => {
                assert!(e.is_transient(), "only transient failures expected: {e:?}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    panic!("delta refresh failed to converge through the lossy channel");
}

/// The ISSUE's delta-convergence claim: URL_DELTA frames crossing a channel
/// that drops, duplicates, and reorders must leave the delta-synced router
/// enforcing *exactly* the list a full-fetch control router enforces — same
/// order-insensitive digest — with every retry/duplicate application
/// idempotent and nothing panicking.
#[test]
fn url_delta_sync_converges_through_lossy_channel() {
    let w = build_world(&WorldSpec {
        seed: 0x0DE17A,
        users: 4,
        routers: 2,
    })
    .unwrap();
    let tokens = w.tokens.clone();
    let mut routers = w.routers.into_iter();
    let delta_router = routers.next().unwrap();
    // Control router stays in-process and syncs by full signed bulletins.
    let mut control = routers.next().unwrap();

    let no_daemon = NoDaemon::spawn(
        w.no,
        fresh_ledger("fault-proxy-no"),
        None,
        "127.0.0.1:0",
        fast_cfg(),
    )
    .unwrap();
    let daemon =
        RouterDaemon::spawn(delta_router, 0x0DE17A ^ 0xDAE, "127.0.0.1:0", fast_cfg()).unwrap();
    // Drop/duplicate/reorder only: corruption is covered by the handshake
    // test above, and a flipped bit inside a delta or its re-stamp is *supposed* to
    // surface as a hard signature error, not converge.
    let mut proxy = FaultProxy::spawn(
        no_daemon.addr(),
        ProxyConfig {
            plan: FaultPlan {
                drop_prob: 0.20,
                duplicate_prob: 0.20,
                reorder_prob: 0.20,
                ..FaultPlan::NONE
            },
            seed: 0x0DE17A5EED,
        },
    )
    .unwrap();

    for (round, token) in tokens.iter().enumerate() {
        assert!(no_daemon.revoke_user(token), "token must be in grt");

        // O(churn) path through the faulty channel, retried to convergence;
        // an immediate second fetch exercises the duplicate/AlreadyCurrent
        // path end-to-end and must land on the same version.
        let v = refresh_delta_with_retry(&daemon, proxy.addr());
        let v2 = refresh_delta_with_retry(&daemon, proxy.addr());
        assert_eq!(v, v2, "duplicate delta fetch must be idempotent");
        assert_eq!(
            daemon.with_router(|r| r.revocation().url_len()),
            round + 1,
            "every revocation round must reach the enforcement engine"
        );

        // Full-fetch control path, straight from the operator.
        let now = wall_ms();
        let (crl, url) = no_daemon.with_operator(|op| (op.publish_crl(now), op.publish_url(now)));
        control.update_lists(crl, url).expect("lists admitted");
    }

    assert_eq!(
        daemon.with_router(|r| r.revocation().digest()),
        control.revocation().digest(),
        "delta-synced and full-synced routers must enforce identical lists"
    );
    // The channel really was hostile, the delta fast lane really ran (any
    // fallback to a full fetch still converges — that is the point — but at
    // least one diff must have chained), and nothing panicked.
    assert!(proxy.stats().total_faults() > 0, "plan must have fired");
    assert!(
        daemon.telemetry().counters["net.url_deltas_out"] >= 1,
        "at least one delta must have chained onto the engine"
    );
    assert_eq!(daemon.telemetry().counters["net.handler_panics"], 0);
    assert_eq!(no_daemon.telemetry().counters["net.handler_panics"], 0);

    proxy.shutdown();
    daemon.shutdown().unwrap();
    no_daemon.shutdown().unwrap();
}

#[test]
fn retry_gives_up_cleanly_under_total_blackout() {
    let (daemon, mut agent) = spawn_router(0xDEAD);
    let mut proxy = FaultProxy::spawn(
        daemon.addr(),
        ProxyConfig {
            plan: FaultPlan {
                drop_prob: 1.0,
                ..FaultPlan::NONE
            },
            seed: 1,
        },
    )
    .unwrap();

    let policy = RetryPolicy {
        base_delay: 5,
        max_delay: 20,
        max_attempts: 3,
    };
    let err = match agent.connect_with_retry(proxy.addr(), &policy) {
        Ok(_) => panic!("no handshake can cross a 100%-drop channel"),
        Err(e) => e,
    };
    assert_eq!(
        err,
        NetError::Timeout,
        "blackout surfaces as deadline misses"
    );
    // Initial attempt + max_attempts retries, then a clean give-up.
    assert_eq!(agent.telemetry().counters["net.handshakes_fail"], 4);
    assert_eq!(agent.telemetry().counters["net.handshakes_ok"], 0);
    assert!(proxy.stats().dropped > 0);
    assert_eq!(daemon.telemetry().counters["net.handler_panics"], 0);

    proxy.shutdown();
    daemon.shutdown().unwrap();
}
