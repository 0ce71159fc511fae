//! Connection-cap backpressure semantics: a daemon at its connection
//! limit turns new dials away with an explicit BUSY reject, the client
//! maps that to the *transient* [`NetError::ConnLimit`] (counted as
//! `net.conn_rejected`), and `connect_with_retry` rides through the
//! rejection once a slot frees up — the contract the open-loop load
//! harness depends on to distinguish overload from hard failure. The
//! courtesy is bounded: at most 64 turned-away connections are held for
//! their reject at once, and a storm past that is simply closed.

mod common;

use std::io::ErrorKind;
use std::net::TcpStream;
use std::time::Duration;

use peace_net::{
    build_world, read_frame, reject_code, write_frame, ConnConfig, DaemonConfig, NetError,
    NoDaemon, NodeMessage, RouterDaemon, Transient, UserAgent, WorldSpec, DEFAULT_MAX_FRAME,
};
use peace_protocol::RetryPolicy;
use peace_wire::{Decode, Encode};

use common::fresh_ledger;

fn test_cfg() -> DaemonConfig {
    DaemonConfig {
        conn: ConnConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            ..ConnConfig::default()
        },
        max_connections: 1,
        connect_timeout: Duration::from_secs(5),
        drain: Duration::from_secs(3),
        ..DaemonConfig::default()
    }
}

#[test]
fn conn_cap_rejection_is_transient_and_counted() {
    let spec = WorldSpec {
        seed: 0xCAB,
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
    let daemon = RouterDaemon::spawn(router, 1, "127.0.0.1:0", cfg).unwrap();
    let addr = daemon.addr();

    let mut users = w.users.into_iter();
    let mut holder = UserAgent::new(users.next().unwrap(), 11, cfg);
    let mut second = UserAgent::new(users.next().unwrap(), 12, cfg);

    // Occupy the single slot with an established session.
    let sess = holder.connect(addr).expect("first connection");

    // A plain connect while the slot is held surfaces the BUSY reject as
    // the dedicated transient ConnLimit error and bumps the counter.
    let err = match second.connect(addr) {
        Ok(_) => panic!("second dial must be turned away at the cap"),
        Err(e) => e,
    };
    assert!(
        matches!(err, NetError::ConnLimit),
        "expected ConnLimit, got {err:?}"
    );
    assert!(err.is_transient(), "cap rejection must invite a retry");
    assert_eq!(second.telemetry().counters["net.conn_rejected"], 1);
    assert_eq!(second.telemetry().counters["net.handshakes_ok"], 0);
    assert!(daemon.telemetry().counters["net.connections_rejected"] >= 1);

    // Release the slot in the background; a retrying connect backs off
    // through the BUSY rejections and lands once capacity returns.
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(400));
        sess.close();
    });
    let policy = RetryPolicy {
        base_delay: 150,
        max_delay: 1000,
        max_attempts: 20,
    };
    let sess2 = second
        .connect_with_retry(addr, &policy)
        .expect("retry must succeed once the slot frees");
    releaser.join().unwrap();
    assert_eq!(second.telemetry().counters["net.handshakes_ok"], 1);
    assert!(
        second.telemetry().counters["net.conn_rejected"] >= 1,
        "at least the initial rejection was counted"
    );
    sess2.close();

    assert_eq!(daemon.telemetry().counters["net.handler_panics"], 0);
    daemon.shutdown().unwrap();
}

/// The daemons' own one-shot exchanges read a cap refusal the way a user
/// agent does: a NO at its connection cap is `ConnLimit` — transient,
/// counted — not "a non-bulletin".
#[test]
fn a_router_refreshing_from_a_no_at_its_cap_is_told_conn_limit() {
    let w = build_world(&WorldSpec {
        seed: 0xCAD,
        users: 1,
        routers: 1,
    })
    .unwrap();
    let cfg = test_cfg();
    let no = NoDaemon::spawn(w.no, fresh_ledger("conn-cap-no"), None, "127.0.0.1:0", cfg).unwrap();
    let router = w.routers.into_iter().next().unwrap();
    let daemon = RouterDaemon::spawn(router, 1, "127.0.0.1:0", cfg).unwrap();

    // Someone else holds the NO's single slot.
    let holder = TcpStream::connect(no.addr()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while no.live_connections() < 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(no.live_connections(), 1);

    let err = daemon.refresh_lists(no.addr()).unwrap_err();
    assert!(
        matches!(err, NetError::ConnLimit),
        "expected ConnLimit, got {err:?}"
    );
    assert!(err.is_transient());
    assert_eq!(daemon.telemetry().counters["net.conn_rejected"], 1);
    assert!(no.telemetry().counters["net.connections_rejected"] >= 1);

    // The slot frees; the same call goes through.
    drop(holder);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while no.live_connections() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    daemon
        .refresh_lists(no.addr())
        .expect("refresh once the slot is free");
    assert_eq!(daemon.telemetry().counters["net.conn_rejected"], 1);

    assert_eq!(no.telemetry().counters["net.handler_panics"], 0);
    daemon.shutdown().unwrap();
    no.shutdown().unwrap();
}

#[test]
fn reject_storm_is_bounded() {
    let spec = WorldSpec {
        seed: 0xCAC,
        users: 1,
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
    let mut holder = UserAgent::new(w.users.into_iter().next().unwrap(), 13, cfg);
    let sess = holder.connect(daemon.addr()).expect("the one slot");

    // 150 surplus dials that say nothing.
    let storm: Vec<TcpStream> = (0..150)
        .map(|_| TcpStream::connect(daemon.addr()).unwrap())
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while daemon.telemetry().counters["net.connections_rejected"] < 150
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        daemon.telemetry().counters["net.connections_rejected"],
        150,
        "all counted"
    );
    assert_eq!(daemon.live_connections(), 1);
    std::thread::sleep(Duration::from_millis(50));

    // A connection the daemon closed outright reads EOF (or a reset). One
    // it holds has nothing to read yet — this is still inside the 200 ms
    // a silent one is held for — and is told BUSY as soon as it asks; on
    // a box slow enough to have passed the 200 ms, it was told unasked.
    let get_beacon = NodeMessage::GetBeacon.try_to_wire().unwrap();
    let mut serviced = 0;
    for mut stream in storm {
        stream.set_nonblocking(true).unwrap();
        let silent = match stream.peek(&mut [0u8; 1]) {
            Err(e) if e.kind() == ErrorKind::WouldBlock => true,
            Ok(1) => false,
            _ => continue,
        };
        stream.set_nonblocking(false).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        if silent {
            write_frame(&mut stream, &get_beacon, DEFAULT_MAX_FRAME).unwrap();
        }
        let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("a reject, not a close");
        match NodeMessage::from_wire(&reply).unwrap() {
            NodeMessage::Reject { code, .. } => assert_eq!(code, reject_code::BUSY),
            other => panic!("expected BUSY, got {other:?}"),
        }
        serviced += 1;
    }
    assert!(
        (1..=64).contains(&serviced),
        "{serviced} of 150 held for a reject; the bound is 64"
    );
    assert_eq!(daemon.live_connections(), 1);
    assert_eq!(daemon.telemetry().counters["net.handler_panics"], 0);
    sess.close();
    daemon.shutdown().unwrap();
}
