//! A router's outbox of unreported transcripts (§IV.D step 1) is bounded
//! by count, whatever the handshake rate or NO outage: every push past
//! [`MAX_PENDING_TRANSCRIPTS`] drops the oldest, each drop is counted in
//! `net.transcripts_dropped`, and a full outbox goes to NO in one report.
//!
//! The outbox is filled to near its bound with copies of one real
//! transcript, each given its own session id and, as `established_at`, its
//! place in line, so that admissions over TCP can push it past the bound
//! in a few handshakes.

mod common;

use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use peace_ledger::{LedgerQuery, RecordKind};
use peace_net::{
    build_world, ConnConfig, DaemonConfig, NoDaemon, RouterDaemon, UserAgent, WorldSpec,
};
use peace_protocol::config::MAX_PENDING_TRANSCRIPTS;
use peace_protocol::{LoggedSession, ReplicaSet, RetryPolicy};

use common::fresh_ledger;

/// Short I/O timeouts: a report to a peer that never answers gives up
/// after one second.
fn test_cfg() -> DaemonConfig {
    DaemonConfig {
        conn: ConnConfig {
            read_timeout: Some(Duration::from_secs(1)),
            write_timeout: Some(Duration::from_secs(1)),
            ..ConnConfig::default()
        },
        max_connections: 32,
        connect_timeout: Duration::from_secs(1),
        drain: Duration::from_secs(1),
        ..DaemonConfig::default()
    }
}

/// A router daemon with fresh lists, an agent that can handshake with it,
/// the NO that served both lists, on a fresh ledger in `dir` (reports
/// never go to it unless a test says so), and `n` filler transcripts,
/// tagged `0..n`.
fn setup(
    seed: u64,
    n: usize,
    dir: &str,
) -> (NoDaemon, RouterDaemon, UserAgent, Vec<LoggedSession>) {
    let mut w = build_world(&WorldSpec {
        seed,
        users: 1,
        routers: 1,
    })
    .unwrap();
    let mut router = w.routers.remove(0);
    let mut user = w.users.remove(0);
    let beacon = router.beacon(1_000, &mut w.rng);
    let req = user.request_access(&beacon, 1_000, &mut w.rng).unwrap();
    router.process_access_request(&req, 1_000).unwrap();
    let real = router.drain_log().remove(0);
    let fillers = (0..n)
        .map(|tag| {
            let mut s = real.clone();
            s.session_id.responder_share[1..9].copy_from_slice(&(tag as u64).to_be_bytes());
            s.established_at = tag as u64;
            s
        })
        .collect();

    let cfg = test_cfg();
    let no = NoDaemon::spawn(w.no, fresh_ledger(dir), None, "127.0.0.1:0", cfg).unwrap();
    let daemon = RouterDaemon::spawn(router, seed ^ 1, "127.0.0.1:0", cfg).unwrap();
    daemon
        .refresh_lists(no.addr())
        .expect("bootstrap list sync");
    let mut agent = UserAgent::new(user, seed ^ 2, cfg);
    agent.poll_bulletin(no.addr()).expect("bulletin poll");
    (no, daemon, agent, fillers)
}

fn admit(agent: &mut UserAgent, daemon: &RouterDaemon, n: usize) {
    for _ in 0..n {
        let mut sess = agent.connect(daemon.addr()).expect("handshake");
        assert_eq!(sess.echo(b"outbox").unwrap(), b"outbox");
        sess.close();
    }
}

fn dropped(daemon: &RouterDaemon) -> u64 {
    daemon.telemetry().counters["net.transcripts_dropped"]
}

/// An address nothing listens on.
fn dead_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
}

#[test]
fn with_no_reachable_the_outbox_keeps_the_newest_cap_transcripts() {
    let (no, daemon, mut agent, fillers) =
        setup(0x0B01, MAX_PENDING_TRANSCRIPTS - 2, "outbox-unreachable");
    daemon.with_router(|r| r.requeue_log(fillers.clone()));

    // Four admissions past a bound two short: the two oldest go.
    admit(&mut agent, &daemon, 4);
    assert_eq!(
        daemon.with_router(|r| r.pending_log_len()),
        MAX_PENDING_TRANSCRIPTS
    );
    assert_eq!(dropped(&daemon), 2);

    // No NO answers: the refused report requeues all it drained.
    let mut gone = ReplicaSet::new([dead_addr()], RetryPolicy::default());
    assert!(daemon.report_sessions(&mut gone).is_err());
    assert_eq!(
        daemon.with_router(|r| r.pending_log_len()),
        MAX_PENDING_TRANSCRIPTS
    );
    assert_eq!(dropped(&daemon), 2);

    // A NO that takes the connection and never answers: three sessions
    // are admitted while the report waits, so its requeue meets an
    // outbox that already holds them and drops the three oldest.
    let silent = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut stalled = ReplicaSet::new([silent.local_addr().unwrap()], RetryPolicy::default());
    std::thread::scope(|s| {
        let report = s.spawn(|| daemon.report_sessions(&mut stalled));
        let deadline = Instant::now() + Duration::from_secs(5);
        while daemon.with_router(|r| r.pending_log_len()) > 0 {
            assert!(Instant::now() < deadline, "the report never drained");
            std::thread::yield_now();
        }
        admit(&mut agent, &daemon, 3);
        assert!(
            report.join().unwrap().is_err(),
            "a silent NO fails the report"
        );
    });
    assert_eq!(dropped(&daemon), 5, "every drop is counted");

    let outbox = daemon.shutdown().unwrap().drain_log();
    assert_eq!(outbox.len(), MAX_PENDING_TRANSCRIPTS);
    let (kept, admitted) = outbox.split_at(fillers.len() - 5);
    let tags: Vec<u64> = kept.iter().map(|s| s.established_at).collect();
    let newest: Vec<u64> = (5..fillers.len() as u64).collect();
    assert_eq!(tags, newest, "the oldest fillers went, the rest kept order");
    assert_eq!(admitted.len(), 7);
    assert!(
        admitted
            .windows(2)
            .all(|p| p[0].established_at <= p[1].established_at
                && p[0].session_id != p[1].session_id),
        "the seven admitted sessions are the newest, in admission order"
    );
    assert!(admitted[0].established_at >= fillers.len() as u64);
    no.shutdown().unwrap();
}

#[test]
fn a_full_outbox_is_reported_in_one_exchange() {
    let (no, daemon, _agent, fillers) =
        setup(0x0B02, MAX_PENDING_TRANSCRIPTS, "outbox-full-report");
    daemon.with_router(|r| r.requeue_log(fillers));

    // One exchange: the report frame out, one ack frame back.
    let frames = |d: &RouterDaemon| d.telemetry().counters["net.frames_in"];
    let before = frames(&daemon);
    let mut nos = ReplicaSet::new([no.addr()], RetryPolicy::default());
    let accepted = daemon
        .report_sessions(&mut nos)
        .expect("a full outbox fits one frame");
    assert_eq!(accepted as usize, MAX_PENDING_TRANSCRIPTS);
    assert_eq!(frames(&daemon) - before, 1, "one reply");
    assert_eq!(daemon.with_router(|r| r.pending_log_len()), 0);
    assert_eq!(dropped(&daemon), 0);

    let access = LedgerQuery {
        kind: Some(RecordKind::Access),
        ..LedgerQuery::default()
    };
    let stored = no.with_ledger(|rl| rl.local().query(&access).unwrap().len());
    assert_eq!(stored, MAX_PENDING_TRANSCRIPTS);
    daemon.shutdown().unwrap();
    no.shutdown().unwrap();
}
