//! The runtime acceptance test: a full PEACE deployment on loopback —
//! one NO bulletin daemon, two mesh-router daemons, and five user agents
//! in concurrent threads — exercising bulletin polling, concurrent
//! anonymous handshakes, AEAD echo traffic, dynamic revocation with
//! propagation through list refresh + beacon re-broadcast, and graceful
//! shutdown, with zero handler panics anywhere.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use peace_groupsig::BasesMode;
use peace_net::{
    build_world, build_world_with, reject_code, ConnConfig, DaemonConfig, NetError, NoDaemon,
    NodeMessage, RouterDaemon, Transient, UserAgent, WorldSpec, DEFAULT_MAX_FRAME,
};
use peace_protocol::ProtocolConfig;
use peace_wire::{Decode, Encode};

use common::fresh_ledger;

fn test_cfg() -> DaemonConfig {
    DaemonConfig {
        conn: ConnConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            ..ConnConfig::default()
        },
        max_connections: 32,
        connect_timeout: Duration::from_secs(5),
        drain: Duration::from_secs(3),
        ..DaemonConfig::default()
    }
}

#[test]
fn full_mesh_on_loopback_with_revocation() {
    for mode in [BasesMode::PerMessage, BasesMode::FixedBases] {
        full_mesh_with_revocation(mode);
    }
}

fn full_mesh_with_revocation(mode: BasesMode) {
    let spec = WorldSpec {
        seed: 0xB00B1E5,
        users: 5,
        routers: 2,
    };
    let config = ProtocolConfig {
        bases_mode: mode,
        ..ProtocolConfig::default()
    };
    let w = build_world_with(&spec, config).unwrap();
    let tokens = w.tokens.clone();
    let cfg = test_cfg();

    let no = NoDaemon::spawn(
        w.no,
        fresh_ledger(&format!("loopback-{mode:?}")),
        None,
        "127.0.0.1:0",
        cfg,
    )
    .unwrap();
    let no_addr = no.addr();
    let mut routers = Vec::new();
    for (i, r) in w.routers.into_iter().enumerate() {
        routers
            .push(RouterDaemon::spawn(r, spec.seed ^ (i as u64 + 1), "127.0.0.1:0", cfg).unwrap());
    }
    let router_addrs: Vec<_> = routers.iter().map(|r| r.addr()).collect();

    // Bootstrap: routers sync their revocation lists from the NO bulletin
    // before serving. Provisioning-time lists are issued at t=0, and users
    // enforce `list_max_age` against the wall clock — a router that skips
    // this sync serves beacons every client rejects as stale.
    for r in &routers {
        assert_eq!(r.refresh_lists(no_addr).expect("bootstrap list sync"), 0);
    }

    // ------------------------------------------------------------------
    // Phase 1: all five users poll the bulletin and authenticate
    // concurrently — users 0,2,4 against router 0, users 1,3 against
    // router 1 — then run AEAD echo traffic on the established sessions.
    // ------------------------------------------------------------------
    let ok_sessions = Arc::new(AtomicUsize::new(0));
    let mut threads = Vec::new();
    let mut agents_back = Vec::new();
    for (i, user) in w.users.into_iter().enumerate() {
        let addr = router_addrs[i % router_addrs.len()];
        let counter = Arc::clone(&ok_sessions);
        threads.push(std::thread::spawn(move || {
            let mut agent = UserAgent::new(user, 0x5EED_0000 + i as u64, test_cfg());
            let url_version = agent.poll_bulletin(no_addr).expect("bulletin poll");
            assert_eq!(url_version, 0, "nothing revoked yet");
            let mut sess = agent.connect(addr).expect("handshake");
            for round in 0..3u32 {
                let payload = format!("user-{i} round-{round}");
                let echoed = sess.echo(payload.as_bytes()).expect("echo");
                assert_eq!(echoed, payload.as_bytes());
            }
            counter.fetch_add(1, Ordering::SeqCst);
            sess.close();
            agent
        }));
    }
    for t in threads {
        agents_back.push(t.join().expect("user thread must not panic"));
    }
    assert_eq!(ok_sessions.load(Ordering::SeqCst), 5);

    let handshakes: u64 = routers
        .iter()
        .map(|r| r.telemetry().counters["net.handshakes_ok"])
        .sum();
    assert_eq!(handshakes, 5, "each user authenticated exactly once");

    // ------------------------------------------------------------------
    // Phase 2: NO revokes user 0 at runtime; both routers refresh their
    // lists (under fixed bases router 1 by delta, which grows its
    // revocation table, and router 0 by a full fetch, which rebuilds it);
    // the revoked user is rejected by each with the terminal REVOKED code
    // while an unrevoked user still gets in — and adopts the bumped URL
    // version from the refreshed beacon.
    // ------------------------------------------------------------------
    assert!(no.revoke_user(&tokens[0]), "token must be in grt");
    for (i, r) in routers.iter().enumerate() {
        let v = if mode == BasesMode::FixedBases && i == 1 {
            r.refresh_lists_delta(no_addr)
        } else {
            r.refresh_lists(no_addr)
        };
        assert_eq!(
            v.expect("router list refresh"),
            1,
            "post-revocation URL version"
        );
    }
    assert_eq!(
        routers[1].telemetry().counters["net.url_delta_fallbacks"],
        0
    );

    let mut revoked = agents_back.remove(0); // user 0
    for &addr in &router_addrs {
        let err = match revoked.connect(addr) {
            Ok(_) => panic!("{mode:?}: revoked user must be rejected"),
            Err(e) => e,
        };
        match &err {
            NetError::Rejected { code, .. } => assert_eq!(*code, reject_code::REVOKED),
            other => panic!("{mode:?}: expected Rejected{{REVOKED}}, got {other:?}"),
        }
        assert!(!err.is_transient(), "revocation is terminal — no retry");
    }

    let mut survivor = agents_back.remove(0); // user 1
    assert_eq!(survivor.user().list_versions().1, 0, "before refresh");
    let mut sess = survivor
        .connect(router_addrs[0])
        .expect("unrevoked user unaffected");
    assert_eq!(sess.echo(b"still here").unwrap(), b"still here");
    sess.close();
    assert_eq!(
        survivor.user().list_versions().1,
        1,
        "beacon refresh propagated the revocation to the client"
    );

    // ------------------------------------------------------------------
    // Phase 3: teardown. No handler panicked anywhere, the routers saw
    // exactly two failed handshakes (the revoked attempts), and shutdown
    // returns the entities with their audit logs intact.
    // ------------------------------------------------------------------
    assert_eq!(no.telemetry().counters["net.handler_panics"], 0);
    let fails: u64 = routers
        .iter()
        .map(|r| r.telemetry().counters["net.handshakes_fail"])
        .sum();
    assert_eq!(fails, 2, "only the revoked user failed, once per router");
    for r in &routers {
        assert_eq!(r.telemetry().counters["net.handler_panics"], 0);
        assert_eq!(r.telemetry().counters["net.decode_failures"], 0);
    }

    let mut sessions_logged = 0;
    for r in routers {
        let mut entity = r.shutdown().expect("router shutdown");
        sessions_logged += entity.drain_log().len();
    }
    assert_eq!(sessions_logged, 6, "5 initial + 1 survivor session logged");
    let (operator, _) = no.shutdown().expect("NO shutdown");
    assert_eq!(operator.revoked_member_count(), 1);
}

/// M.1 is a broadcast: inside half a timestamp window every connection to
/// a router hears the one beacon it minted, and every handshake answering
/// that beacon establishes.
#[test]
fn sequential_connections_inside_one_window_share_one_beacon() {
    // A 40 s window, so the whole test fits in half of one on any box.
    let config = ProtocolConfig {
        timestamp_window: 40_000,
        ..ProtocolConfig::default()
    };
    let spec = WorldSpec {
        seed: 0xB0CA57,
        users: 2,
        routers: 1,
    };
    let w = build_world_with(&spec, config).unwrap();
    let cfg = test_cfg();
    let mut router = w.routers.into_iter().next().unwrap();
    let now = peace_net::clock::wall_ms();
    router
        .update_lists(w.no.publish_crl(now), w.no.publish_url(now))
        .expect("lists admitted");
    let daemon = RouterDaemon::spawn(router, 11, "127.0.0.1:0", cfg).unwrap();
    let addr = daemon.addr();

    // A bare `GetBeacon` on a connection of its own: the bytes served.
    let heard = || {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        peace_net::write_frame(
            &mut stream,
            &NodeMessage::GetBeacon.to_wire(),
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        let reply = peace_net::read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        match NodeMessage::from_wire(&reply).unwrap() {
            NodeMessage::Beacon(beacon) => beacon.to_wire(),
            other => panic!("expected a beacon, got {other:?}"),
        }
    };

    let first = heard();
    let mut agents: Vec<_> = w
        .users
        .into_iter()
        .enumerate()
        .map(|(i, user)| UserAgent::new(user, 0xA6E_0000 + i as u64, cfg))
        .collect();
    for round in 0..3 {
        for (i, agent) in agents.iter_mut().enumerate() {
            let mut sess = agent.connect(addr).expect("handshake");
            assert_eq!(sess.echo(b"on air").unwrap(), b"on air");
            sess.close();
            assert_eq!(heard(), first, "round {round}, user {i}");
        }
    }
    assert_eq!(daemon.telemetry().counters["net.handshakes_ok"], 6);
    assert_eq!(daemon.telemetry().counters["net.handshakes_fail"], 0);
    let router = daemon.shutdown().unwrap();
    assert_eq!(router.beacons_sent(), 1, "one beacon for every connection");
}

#[test]
fn connection_limit_and_oversize_frames_policed() {
    let spec = WorldSpec {
        seed: 77,
        users: 1,
        routers: 1,
    };
    let w = build_world(&spec).unwrap();
    let mut cfg = test_cfg();
    cfg.max_connections = 1;
    cfg.conn.max_frame = 1 << 16;
    let mut router = w.routers.into_iter().next().unwrap();
    // No NO daemon in this test: install wall-clock-fresh lists directly.
    let now = peace_net::clock::wall_ms();
    router
        .update_lists(w.no.publish_crl(now), w.no.publish_url(now))
        .expect("lists admitted");
    let daemon = RouterDaemon::spawn(router, 1, "127.0.0.1:0", cfg).unwrap();
    let addr = daemon.addr();

    // Hold one slot open with an established session.
    let mut agent = UserAgent::new(w.users.into_iter().next().unwrap(), 9, cfg);
    let sess = agent.connect(addr).expect("first connection");

    // The second connection is turned away at accept with an explicit
    // BUSY reject frame, then closed.
    let refused = std::net::TcpStream::connect(addr).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let mut probe = refused;
    use std::io::Read;
    let payload = peace_net::read_frame(&mut probe, peace_net::DEFAULT_MAX_FRAME)
        .expect("over-limit connection receives a reject frame");
    use peace_wire::Decode as _;
    match peace_net::NodeMessage::from_wire(&payload).unwrap() {
        peace_net::NodeMessage::Reject { code, .. } => assert_eq!(code, reject_code::BUSY),
        other => panic!("expected BUSY reject, got {other:?}"),
    }
    let mut buf = [0u8; 1];
    assert_eq!(
        probe.read(&mut buf).unwrap_or(0),
        0,
        "over-limit connection closed after the reject"
    );
    assert!(daemon.telemetry().counters["net.connections_rejected"] >= 1);

    sess.close();
    // Wait for the handler to release the slot, then an oversize frame on
    // a fresh connection is rejected at the header, before any allocation
    // or dispatch.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while daemon.live_connections() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(daemon.live_connections(), 0, "slot released after close");
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    use std::io::Write;
    let huge = (u32::MAX).to_be_bytes();
    stream.write_all(&huge).unwrap();
    stream.write_all(&[0u8; 64]).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let mut end = Vec::new();
    let _ = stream.read_to_end(&mut end); // daemon drops the connection
    assert_eq!(daemon.telemetry().counters["net.handler_panics"], 0);
    assert!(daemon.telemetry().counters["net.oversize_rejected"] >= 1);
    daemon.shutdown().unwrap();
}
