//! Acceptance tests for the sharded event loop at explicit shard counts:
//! handshakes and AEAD echo across shards, deferred verify replies, the
//! router-side per-leg handshake histograms, connection-cap BUSY rejects
//! serviced by the loop itself, malformed frames, idle-timeout eviction,
//! an NO daemon served by the loop, the revocation sweep off the router
//! lock — and the readiness contract: a quiet
//! session's first byte wakes its shard, and a peer that hangs up while
//! its verify is in flight frees its slot — and the outbound queue bound: a
//! peer that never reads is dropped and counted, not queued for.

mod common;

use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use peace_net::{
    build_world, read_frame, reject_code, write_frame, ConnConfig, DaemonConfig, NetError,
    NoDaemon, NodeMessage, RouterDaemon, Transient, UserAgent, WorldSpec, DEFAULT_MAX_FRAME,
};
use peace_protocol::{ReplicaSet, RetryPolicy};
use peace_wire::{Decode, Encode};

use common::fresh_ledger;

fn event_cfg(shards: usize) -> DaemonConfig {
    DaemonConfig {
        conn: ConnConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            ..ConnConfig::default()
        },
        max_connections: 32,
        connect_timeout: Duration::from_secs(5),
        drain: Duration::from_secs(3),
        shards,
    }
}

/// Five users handshake and echo concurrently against a two-shard router
/// daemon, with the NO bulletin server also running on the reactor. The
/// router-side per-leg handshake histograms must be populated.
#[test]
fn concurrent_handshakes_and_echo_across_shards() {
    let spec = WorldSpec {
        seed: 0xE7E27,
        users: 5,
        routers: 1,
    };
    let w = build_world(&spec).unwrap();
    let cfg = event_cfg(2);

    let no = NoDaemon::spawn(
        w.no,
        fresh_ledger("event-loop-no-1"),
        None,
        "127.0.0.1:0",
        cfg,
    )
    .unwrap();
    let no_addr = no.addr();
    let router = w.routers.into_iter().next().unwrap();
    let daemon = RouterDaemon::spawn(router, spec.seed ^ 1, "127.0.0.1:0", cfg).unwrap();
    let addr = daemon.addr();
    daemon.refresh_lists(no_addr).expect("bootstrap list sync");

    let ok = Arc::new(AtomicUsize::new(0));
    let mut threads = Vec::new();
    for (i, user) in w.users.into_iter().enumerate() {
        let counter = Arc::clone(&ok);
        threads.push(std::thread::spawn(move || {
            let mut agent = UserAgent::new(user, 0x5EED_1000 + i as u64, event_cfg(2));
            agent.poll_bulletin(no_addr).expect("bulletin poll");
            let mut sess = agent.connect(addr).expect("handshake over event loop");
            for round in 0..3u32 {
                let payload = format!("user-{i} round-{round}");
                let echoed = sess.echo(payload.as_bytes()).expect("echo");
                assert_eq!(echoed, payload.as_bytes());
            }
            sess.close();
            counter.fetch_add(1, Ordering::SeqCst);
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(ok.load(Ordering::SeqCst), 5);

    let m = daemon.telemetry().counters;
    assert_eq!(m["net.handshakes_ok"], 5);
    assert_eq!(m["net.handshakes_fail"], 0);
    assert_eq!(m["net.handler_panics"], 0);
    assert!(m["net.connections_accepted"] >= 5);

    // The router-side per-leg handshake histograms are recorded by the
    // session machine, so the daemon exports non-empty latency legs.
    let t = daemon.telemetry();
    for leg in ["net.hs_beacon_us", "net.hs_confirm_us", "net.hs_total_us"] {
        let h = t.histograms.get(leg).unwrap_or_else(|| {
            panic!("missing router histogram {leg}");
        });
        assert_eq!(h.count, 5, "{leg} must record every handshake");
    }
    assert_eq!(
        t.histograms["net.access_verify_us"].count, 5,
        "verify pool records one verification time per access request"
    );

    // Shutdown hands the entities back: every shard and pool thread
    // joined, no Arc leaked.
    let mut router = daemon.shutdown().expect("router handed back");
    assert!(router.drain_log().len() >= 5, "sessions were logged");
    no.shutdown().expect("operator handed back");
}

/// A connection over the cap is serviced by the event loop itself: it
/// reads the client's first frame, writes the explicit BUSY reject, and
/// closes — no handler thread, and the client sees the transient
/// `ConnLimit`.
#[test]
fn over_cap_rejected_with_busy_by_the_loop() {
    let spec = WorldSpec {
        seed: 0xE7E29,
        users: 2,
        routers: 1,
    };
    let w = build_world(&spec).unwrap();
    let mut cfg = event_cfg(1);
    cfg.max_connections = 1;
    let mut router = w.routers.into_iter().next().unwrap();
    let now = peace_net::clock::wall_ms();
    router
        .update_lists(w.no.publish_crl(now), w.no.publish_url(now))
        .expect("lists admitted");
    let daemon = RouterDaemon::spawn(router, 1, "127.0.0.1:0", cfg).unwrap();
    let addr = daemon.addr();

    let mut users = w.users.into_iter();
    let mut holder = UserAgent::new(users.next().unwrap(), 21, cfg);
    let mut second = UserAgent::new(users.next().unwrap(), 22, cfg);

    let sess = holder
        .connect(addr)
        .expect("first connection holds the slot");
    let err = match second.connect(addr) {
        Ok(_) => panic!("second dial must be turned away at the cap"),
        Err(e) => e,
    };
    assert!(
        matches!(err, NetError::ConnLimit),
        "expected ConnLimit, got {err:?}"
    );
    assert!(err.is_transient(), "cap rejection is retryable");
    assert_eq!(daemon.telemetry().counters["net.connections_rejected"], 1);

    sess.close();
    drop(holder);
    // Slot freed: the next dial succeeds.
    let deadline = Instant::now() + Duration::from_secs(5);
    while daemon.live_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let sess2 = second.connect(addr).expect("slot freed");
    sess2.close();
    daemon.shutdown().unwrap();
}

/// A malformed frame: a router serves a
/// MALFORMED reject and keeps the connection open (pre-auth garbage is
/// not worth the slot); valid traffic may follow on the same socket.
#[test]
fn malformed_frame_gets_reject_and_connection_survives() {
    let spec = WorldSpec {
        seed: 0xE7E2A,
        users: 1,
        routers: 1,
    };
    let w = build_world(&spec).unwrap();
    let cfg = event_cfg(1);
    let mut router = w.routers.into_iter().next().unwrap();
    let now = peace_net::clock::wall_ms();
    router
        .update_lists(w.no.publish_crl(now), w.no.publish_url(now))
        .expect("lists admitted");
    let daemon = RouterDaemon::spawn(router, 1, "127.0.0.1:0", cfg).unwrap();

    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // Garbage payload in a well-formed frame: undecodable envelope.
    write_frame(&mut stream, &[0xDE, 0xAD, 0xBE, 0xEF], DEFAULT_MAX_FRAME).unwrap();
    let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    match NodeMessage::from_wire(&payload).unwrap() {
        NodeMessage::Reject { code, .. } => assert_eq!(code, reject_code::MALFORMED),
        other => panic!("expected MALFORMED reject, got {other:?}"),
    }

    // The connection survived: a real message still gets served.
    let get_beacon = NodeMessage::GetBeacon.try_to_wire().unwrap();
    write_frame(&mut stream, &get_beacon, DEFAULT_MAX_FRAME).unwrap();
    let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(
        NodeMessage::from_wire(&payload).unwrap(),
        NodeMessage::Beacon(_)
    ));
    assert_eq!(daemon.telemetry().counters["net.decode_failures"], 1);
    daemon.shutdown().unwrap();
}

/// A peer that asks and never reads: once its unread replies pass
/// `max_queue_bytes` the daemon counts a backpressure event and drops
/// that connection rather than queue for it without bound — and goes on
/// serving everyone else.
#[test]
fn a_peer_that_never_reads_is_dropped_at_the_queue_bound() {
    let spec = WorldSpec {
        seed: 0xE7E2F,
        users: 1,
        routers: 1,
    };
    let w = build_world(&spec).unwrap();
    let mut cfg = event_cfg(1);
    cfg.conn.max_queue_bytes = 2048; // a beacon or two
    let mut router = w.routers.into_iter().next().unwrap();
    let now = peace_net::clock::wall_ms();
    router
        .update_lists(w.no.publish_crl(now), w.no.publish_url(now))
        .expect("lists admitted");
    let daemon = RouterDaemon::spawn(router, 1, "127.0.0.1:0", cfg).unwrap();

    // Sixty-four beacon requests per write, so a single read hands the
    // daemon far more replies to queue than the bound allows.
    let get_beacon = NodeMessage::GetBeacon.try_to_wire().unwrap();
    let mut burst = Vec::new();
    for _ in 0..64 {
        write_frame(&mut burst, &get_beacon, DEFAULT_MAX_FRAME).unwrap();
    }
    let mut deaf = TcpStream::connect(daemon.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while daemon.telemetry().counters["net.backpressure_events"] == 0 && Instant::now() < deadline {
        // Once the daemon has hung up, writes fail; that is the point.
        let _ = std::io::Write::write_all(&mut deaf, &burst);
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(daemon.telemetry().counters["net.backpressure_events"] >= 1);
    let deadline = Instant::now() + Duration::from_secs(5);
    while daemon.live_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(daemon.live_connections(), 0, "the deaf peer was dropped");

    // The daemon is none the worse: a well-behaved client is served.
    let mut agent = UserAgent::new(w.users.into_iter().next().unwrap(), 31, cfg);
    let mut sess = agent.connect(daemon.addr()).expect("handshake after");
    assert_eq!(sess.echo(b"still here").unwrap(), b"still here");
    sess.close();
    assert_eq!(daemon.telemetry().counters["net.handler_panics"], 0);
    daemon.shutdown().unwrap();
}

/// Idle connections are evicted by the housekeeping pass once past the
/// configured read deadline — a quiet peer cannot pin its slot forever.
#[test]
fn idle_connection_evicted_on_timeout() {
    let spec = WorldSpec {
        seed: 0xE7E2B,
        users: 1,
        routers: 1,
    };
    let w = build_world(&spec).unwrap();
    let mut cfg = event_cfg(1);
    cfg.conn.read_timeout = Some(Duration::from_millis(300));
    let daemon =
        RouterDaemon::spawn(w.routers.into_iter().next().unwrap(), 1, "127.0.0.1:0", cfg).unwrap();

    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while daemon.live_connections() < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(daemon.live_connections(), 1);

    // Send nothing. Housekeeping must evict us and count the timeout.
    let deadline = Instant::now() + Duration::from_secs(5);
    while daemon.live_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(daemon.live_connections(), 0, "idle conn evicted");
    assert_eq!(daemon.telemetry().counters["net.timeouts"], 1);

    // The socket was really closed under the client.
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut buf = [0u8; 1];
    assert_eq!(stream.read(&mut buf).unwrap_or(0), 0, "server closed");
    daemon.shutdown().unwrap();
}

/// The NO daemon runs on the same loop: bulletins, session reports,
/// and the router's refresh path all work against a sharded NO.
#[test]
fn no_daemon_served_by_event_loop() {
    let spec = WorldSpec {
        seed: 0xE7E2C,
        users: 1,
        routers: 1,
    };
    let w = build_world(&spec).unwrap();
    let cfg = event_cfg(1);
    let no = NoDaemon::spawn(
        w.no,
        fresh_ledger("event-loop-no-2"),
        None,
        "127.0.0.1:0",
        cfg,
    )
    .unwrap();
    let daemon = RouterDaemon::spawn(
        w.routers.into_iter().next().unwrap(),
        spec.seed ^ 1,
        "127.0.0.1:0",
        cfg,
    )
    .unwrap();
    daemon
        .refresh_lists(no.addr())
        .expect("bulletin served by the reactor");

    let mut agent = UserAgent::new(w.users.into_iter().next().unwrap(), 31, cfg);
    agent.poll_bulletin(no.addr()).expect("user bulletin poll");
    let mut sess = agent.connect(daemon.addr()).expect("handshake");
    assert_eq!(sess.echo(b"over-reactor").unwrap(), b"over-reactor");
    sess.close();

    // Session transcripts flow router → NO across the reactor as well.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut accepted = 0;
    let mut nos = ReplicaSet::new([no.addr()], RetryPolicy::default());
    while accepted == 0 && Instant::now() < deadline {
        accepted = daemon.report_sessions(&mut nos).expect("report");
        if accepted == 0 {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    assert_eq!(accepted, 1, "NO accepted the session transcript");
    daemon.shutdown().unwrap();
    no.shutdown().unwrap();
}

/// A writer that floods garbage after the reject is dropped: the
/// ReplyClose path flushes the reject and closes even under the event
/// loop's non-blocking writes.
#[test]
fn unexpected_message_rejected_then_closed() {
    let spec = WorldSpec {
        seed: 0xE7E2D,
        users: 1,
        routers: 1,
    };
    let w = build_world(&spec).unwrap();
    let cfg = event_cfg(1);
    let daemon =
        RouterDaemon::spawn(w.routers.into_iter().next().unwrap(), 1, "127.0.0.1:0", cfg).unwrap();

    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // GetBulletin is an NO request — nonsense to a router.
    let msg = NodeMessage::GetBulletin.try_to_wire().unwrap();
    write_frame(&mut stream, &msg, DEFAULT_MAX_FRAME).unwrap();
    let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    match NodeMessage::from_wire(&payload).unwrap() {
        NodeMessage::Reject { code, .. } => assert_eq!(code, reject_code::MALFORMED),
        other => panic!("expected reject, got {other:?}"),
    }
    let mut buf = [0u8; 1];
    assert_eq!(stream.read(&mut buf).unwrap_or(0), 0, "closed after reject");
    daemon.shutdown().unwrap();
}

/// The readiness contract, from outside: an established session that has
/// gone quiet is answered as soon as its next byte arrives. (Before the
/// shard blocked in `epoll_wait`, a session quiet for 10 ms was visited
/// only every 100 ms, and its next frame waited for that sweep.)
#[test]
fn a_quiet_session_is_answered_promptly() {
    let spec = WorldSpec {
        seed: 0xE7E2E,
        users: 1,
        routers: 1,
    };
    let w = build_world(&spec).unwrap();
    let cfg = event_cfg(1);
    let mut router = w.routers.into_iter().next().unwrap();
    let now = peace_net::clock::wall_ms();
    router
        .update_lists(w.no.publish_crl(now), w.no.publish_url(now))
        .expect("lists admitted");
    let daemon = RouterDaemon::spawn(router, 1, "127.0.0.1:0", cfg).unwrap();

    let mut agent = UserAgent::new(w.users.into_iter().next().unwrap(), 41, cfg);
    let mut sess = agent.connect(daemon.addr()).expect("handshake");
    std::thread::sleep(Duration::from_millis(300));

    let mut round_trips = Vec::new();
    for i in 0..10u8 {
        std::thread::sleep(Duration::from_millis(30));
        let t0 = Instant::now();
        assert_eq!(sess.echo(&[i; 64]).expect("echo"), [i; 64]);
        round_trips.push(t0.elapsed());
    }
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "quiet-session echo median {median:?}, all {round_trips:?}"
    );
    sess.close();
    daemon.shutdown().unwrap();
}

/// On a 64-token URL every fresh handshake pays a 65-Miller-loop sweep —
/// with the router unlocked: what one request holds the router lock for
/// (`net.router_hold_us`: the gates, then admission) is a small fraction
/// of what it costs (`net.access_verify_us`), so a sweep stalls neither
/// the other worker's request nor a shard thread serving a beacon. Both
/// histograms are the daemon's own; their 2× buckets leave the margin.
#[test]
fn a_sweep_holds_the_router_for_a_fraction_of_its_own_time() {
    const URL: usize = 64;
    const CLIENTS: usize = 2;
    const ROUNDS: usize = 8;
    let spec = WorldSpec {
        seed: 0xE7E2B,
        users: CLIENTS + URL,
        routers: 1,
    };
    let mut w = build_world(&spec).unwrap();
    for token in &w.tokens[CLIENTS..] {
        assert!(w.no.revoke_member(token), "token must be in grt");
    }
    let cfg = event_cfg(2);
    let mut router = w.routers.remove(0);
    let now = peace_net::clock::wall_ms();
    router
        .update_lists(w.no.publish_crl(now), w.no.publish_url(now))
        .expect("lists admitted");
    assert_eq!(router.revocation().url_len(), URL);
    let daemon = RouterDaemon::spawn(router, 1, "127.0.0.1:0", cfg).unwrap();
    let addr = daemon.addr();

    let mut users = w.users.into_iter();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let mut agent = UserAgent::new(users.next().unwrap(), 51 + i as u64, cfg);
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let mut sess = agent.connect(addr).expect("unrevoked user admitted");
                    assert_eq!(
                        sess.echo(&[round as u8; 64]).expect("echo"),
                        [round as u8; 64]
                    );
                    sess.close();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mut probe = UserAgent::new(users.next().unwrap(), 59, cfg);
    match probe.connect(addr) {
        Err(NetError::Rejected { code, .. }) => assert_eq!(code, reject_code::REVOKED),
        Err(other) => panic!("expected Rejected{{REVOKED}}, got {other:?}"),
        Ok(_) => panic!("revoked user must be rejected"),
    }

    let m = daemon.telemetry().counters;
    assert_eq!(m["net.handshakes_ok"], (CLIENTS * ROUNDS) as u64);
    assert_eq!((m["net.handshakes_fail"], m["net.handler_panics"]), (1, 0));
    let t = daemon.telemetry();
    let (hold, verify) = (
        &t.histograms["net.router_hold_us"],
        &t.histograms["net.access_verify_us"],
    );
    // The probe's signature is good: it reaches the sweep like the rest.
    assert_eq!(verify.count, (CLIENTS * ROUNDS + 1) as u64);
    assert_eq!(hold.count, 2 * verify.count, "two holds per request");
    assert!(
        4 * hold.percentile(0.5) < verify.percentile(0.5),
        "router held for {} us (median) by requests costing {} us",
        hold.percentile(0.5),
        verify.percentile(0.5)
    );
    daemon.shutdown().unwrap();
}

/// A peer that resets its connection while its access request is with the
/// verify pool — when the shard watches the socket for nothing — frees
/// its slot at once rather than at the idle deadline, the discarded
/// verdict harms nobody, and the shard goes on serving.
#[test]
fn peer_hangup_mid_verify_frees_the_slot() {
    let spec = WorldSpec {
        seed: 0xE7E2F,
        users: 2,
        routers: 1,
    };
    let mut w = build_world(&spec).unwrap();
    let cfg = event_cfg(1);
    let mut router = w.routers.remove(0);
    let now = peace_net::clock::wall_ms();
    router
        .update_lists(w.no.publish_crl(now), w.no.publish_url(now))
        .expect("lists admitted");
    let daemon = RouterDaemon::spawn(router, 1, "127.0.0.1:0", cfg).unwrap();

    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let get_beacon = NodeMessage::GetBeacon.try_to_wire().unwrap();
    write_frame(&mut stream, &get_beacon, DEFAULT_MAX_FRAME).unwrap();
    // Peek the beacon instead of reading it: closing a socket with unread
    // bytes sends a reset, the hang-up no interest mask can hide.
    let mut peeked = vec![0u8; 64 * 1024];
    let beacon = loop {
        let n = stream.peek(&mut peeked).unwrap();
        assert!(n > 0, "server closed before the beacon");
        if let Ok(payload) = read_frame(&mut &peeked[..n], DEFAULT_MAX_FRAME) {
            match NodeMessage::from_wire(&payload).unwrap() {
                NodeMessage::Beacon(b) => break b,
                other => panic!("expected a beacon, got {other:?}"),
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let mut alice = w.users.remove(0);
    let req = alice
        .request_access(&beacon, peace_net::clock::wall_ms(), &mut w.rng)
        .unwrap();
    let msg = NodeMessage::AccessRequest(Box::new(req))
        .try_to_wire()
        .unwrap();
    // The verify worker needs the router mutex first, and this closure
    // holds it: the request stays in flight for as long as we like.
    daemon.with_router(|_held| {
        write_frame(&mut stream, &msg, DEFAULT_MAX_FRAME).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while daemon.telemetry().counters["net.frames_in"] < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            daemon.telemetry().counters["net.frames_in"],
            2,
            "request offloaded"
        );
        assert_eq!(daemon.live_connections(), 1);
        drop(stream);

        // Far inside the 10 s idle deadline of `event_cfg`.
        let deadline = Instant::now() + Duration::from_secs(2);
        while daemon.live_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(daemon.live_connections(), 0, "slot freed mid-verify");
    });

    let mut agent = UserAgent::new(w.users.remove(0), 51, cfg);
    let mut sess = agent.connect(daemon.addr()).expect("shard still serving");
    assert_eq!(sess.echo(b"after").unwrap(), b"after");
    sess.close();
    let m = daemon.telemetry().counters;
    assert_eq!(m["net.handler_panics"], 0);
    assert_eq!(
        m["net.timeouts"], 0,
        "freed by the hang-up, not by eviction"
    );
    daemon.shutdown().unwrap();
}
