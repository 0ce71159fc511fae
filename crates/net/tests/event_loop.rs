//! Acceptance tests for the sharded event-loop runtime (`cfg.shards >=
//! 1`): the same world, agents, and assertions as the blocking runtime —
//! handshakes and AEAD echo across shards, deferred verify replies, the
//! router-side per-leg handshake histograms, connection-cap BUSY rejects
//! serviced by the loop itself, malformed-frame parity, idle-timeout
//! eviction, and an NO daemon served by the reactor.

use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use peace_net::{
    build_world, read_frame, reject_code, write_frame, ConnConfig, DaemonConfig, NetError,
    NoDaemon, NodeMessage, RouterDaemon, Transient, UserAgent, WorldSpec, DEFAULT_MAX_FRAME,
};
use peace_wire::{Decode, Encode};

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
        ..DaemonConfig::default()
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

    let no = NoDaemon::spawn(w.no, "127.0.0.1:0", cfg).unwrap();
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

    let m = daemon.metrics();
    assert_eq!(m.handshakes_ok, 5);
    assert_eq!(m.handshakes_fail, 0);
    assert_eq!(m.handler_panics, 0);
    assert!(m.connections_accepted >= 5);

    // Satellite: the router-side per-leg handshake histograms are
    // recorded by the session machine, so the event-loop (and blocking)
    // runtime exports non-empty router-side latency legs.
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

/// The blocking runtime still works through the same session machines
/// (shards = 0), and the two runtimes agree on handshake metrics.
#[test]
fn blocking_runtime_parity_via_shared_session_machine() {
    let spec = WorldSpec {
        seed: 0xE7E28,
        users: 1,
        routers: 1,
    };
    let w = build_world(&spec).unwrap();
    let cfg = event_cfg(0); // blocking
    let no = NoDaemon::spawn(w.no, "127.0.0.1:0", cfg).unwrap();
    let daemon = RouterDaemon::spawn(
        w.routers.into_iter().next().unwrap(),
        spec.seed ^ 1,
        "127.0.0.1:0",
        cfg,
    )
    .unwrap();
    daemon.refresh_lists(no.addr()).unwrap();

    let mut agent = UserAgent::new(w.users.into_iter().next().unwrap(), 77, cfg);
    agent.poll_bulletin(no.addr()).unwrap();
    let mut sess = agent.connect(daemon.addr()).unwrap();
    assert_eq!(sess.echo(b"parity").unwrap(), b"parity");
    sess.close();

    // The per-leg histograms are recorded by the shared machine on the
    // blocking path too.
    let t = daemon.telemetry();
    for leg in ["net.hs_beacon_us", "net.hs_confirm_us", "net.hs_total_us"] {
        assert_eq!(t.histograms[leg].count, 1, "{leg} on the blocking runtime");
    }
    daemon.shutdown().unwrap();
    no.shutdown().unwrap();
}

/// A connection over the cap is serviced by the event loop itself: it
/// reads the client's first frame, writes the explicit BUSY reject, and
/// closes — no handler thread, and the client sees the same transient
/// `ConnLimit` the blocking runtime produces.
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
    router.update_lists(w.no.publish_crl(now), w.no.publish_url(now));
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
    assert_eq!(daemon.metrics().connections_rejected, 1);

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

/// Malformed-frame parity with the blocking runtime: a router serves a
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
    router.update_lists(w.no.publish_crl(now), w.no.publish_url(now));
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
    assert_eq!(daemon.metrics().decode_failures, 1);
    daemon.shutdown().unwrap();
}

/// Idle connections are evicted by the sweep at the configured read
/// deadline — a quiet peer cannot pin its slot forever.
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

    // Send nothing. The sweep must evict us and count the timeout.
    let deadline = Instant::now() + Duration::from_secs(5);
    while daemon.live_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(daemon.live_connections(), 0, "idle conn evicted");
    assert_eq!(daemon.metrics().timeouts, 1);

    // The socket was really closed under the client.
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut buf = [0u8; 1];
    assert_eq!(stream.read(&mut buf).unwrap_or(0), 0, "server closed");
    daemon.shutdown().unwrap();
}

/// The NO daemon runs on the reactor too: bulletins, session reports,
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
    let no = NoDaemon::spawn(w.no, "127.0.0.1:0", cfg).unwrap();
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
    while accepted == 0 && Instant::now() < deadline {
        accepted = daemon.report_sessions(no.addr()).expect("report");
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
