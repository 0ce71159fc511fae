//! The operator's ledger is the one owner of its lists: a NO that restarts
//! from the same setup ceremony on the same ledger directory serves the
//! lists it served before, from its first bulletin, so every member
//! revoked before the restart stays out — at a router that refreshes by
//! delta and at one that fetches the full list. A key rollover is never
//! replayed (γ is in no record): routers keep the lists of the key they
//! hold, and a ledger past the operator's epoch, or one whose records the
//! operator does not reach, is refused at spawn with a code.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use peace_groupsig::RevocationToken;
use peace_ledger::{Ledger, LedgerConfig, LedgerQuery, LedgerRecord, RecordKind, ReplicatedLedger};
use peace_net::{
    build_world, clock::wall_ms, reject_code, BuiltWorld, ConnConfig, Connection, DaemonConfig,
    NetError, NetMetrics, NoDaemon, NodeMessage, RouterDaemon, UserAgent, WorldSpec,
};
use peace_protocol::entities::{MeshRouter, UserClient};
use rand::rngs::StdRng;

const SPEC: WorldSpec = WorldSpec {
    seed: 0x0E57_A127,
    users: 4,
    routers: 2,
};

fn test_cfg() -> DaemonConfig {
    DaemonConfig {
        conn: ConnConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            ..ConnConfig::default()
        },
        ..DaemonConfig::default()
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> ReplicatedLedger {
    ReplicatedLedger::from_single(Ledger::open(dir, LedgerConfig::default()).unwrap().0, "NO")
}

/// What a ceremony hands out besides the operator.
struct Rest {
    routers: Vec<MeshRouter>,
    users: Vec<UserClient>,
    tokens: Vec<RevocationToken>,
    rng: StdRng,
}

/// A NO from `spec`'s ceremony on the ledger at `dir`, and the rest of its
/// world.
fn operator(spec: &WorldSpec, dir: &Path) -> (NoDaemon, Rest) {
    let BuiltWorld {
        no,
        routers,
        users,
        tokens,
        rng,
        ..
    } = build_world(spec).unwrap();
    let no = NoDaemon::spawn(no, open(dir), None, "127.0.0.1:0", test_cfg())
        .unwrap_or_else(|e| panic!("the ledger replays: {e}"));
    let rest = Rest {
        routers,
        users,
        tokens,
        rng,
    };
    (no, rest)
}

/// Whether `agent`'s handshake at `router` is refused as revoked (else it
/// must succeed).
fn refused_as_revoked(agent: &mut UserAgent, router: &RouterDaemon) -> bool {
    match agent.connect(router.addr()) {
        Ok(session) => {
            session.close();
            false
        }
        Err(NetError::Rejected { code, .. }) if code == reject_code::REVOKED => true,
        Err(e) => panic!("handshake failed otherwise: {e}"),
    }
}

#[test]
fn a_restarted_operator_keeps_revoked_members_out() {
    let dir = tmpdir("operator-restart");
    let revoked = 3;

    // First life: revoke, then shut down. A duplicate of the first
    // revocation's record follows the two.
    let (no, w) = operator(&SPEC, &dir);
    assert!(no.revoke_user(&w.tokens[revoked]));
    assert!(no.revoke_user(&w.tokens[0]));
    let (_, mut ledger) = no.shutdown().unwrap();
    let duplicate = LedgerRecord::UserRevocation {
        token: w.tokens[revoked],
        url_version: 1,
    };
    ledger.local_mut().append(duplicate, wall_ms()).unwrap();
    ledger.flush().unwrap();
    drop(ledger);

    // Second life: the same ceremony, the same directory, fresh routers
    // still holding the provisioning lists (version 0). The duplicate
    // replays as a no-op.
    let (no, mut w) = operator(&SPEC, &dir);
    assert_eq!(no.with_operator(|op| op.url_version()), 2, "replayed");
    assert_eq!(no.with_operator(|op| op.revoked_member_count()), 2);
    let routers: Vec<RouterDaemon> = w
        .routers
        .drain(..)
        .enumerate()
        .map(|(k, r)| RouterDaemon::spawn(r, 0x5EED + k as u64, "127.0.0.1:0", test_cfg()).unwrap())
        .collect();
    let (by_delta, by_full) = (&routers[0], &routers[1]);
    assert_eq!(by_delta.refresh_lists_delta(no.addr()).unwrap(), 2);
    assert_eq!(by_full.refresh_lists(no.addr()).unwrap(), 2);
    let counters = by_delta.telemetry().counters;
    assert_eq!(counters["net.url_deltas_out"], 1, "a delta");
    assert_eq!(counters["net.url_delta_fallbacks"], 0, "not a full fetch");

    let mut agents: Vec<UserAgent> = w
        .users
        .drain(..)
        .enumerate()
        .map(|(i, u)| UserAgent::new(u, 0xA6E + i as u64, test_cfg()))
        .collect();
    for router in &routers {
        assert!(refused_as_revoked(&mut agents[revoked], router));
        assert!(refused_as_revoked(&mut agents[0], router));
        assert!(!refused_as_revoked(&mut agents[2], router));
    }

    // A revocation after the restart: the next version, at both routers.
    assert!(no.revoke_user(&w.tokens[1]));
    assert_eq!(by_delta.refresh_lists_delta(no.addr()).unwrap(), 3);
    assert_eq!(by_full.refresh_lists(no.addr()).unwrap(), 3);
    for router in &routers {
        assert!(refused_as_revoked(&mut agents[1], router));
        assert!(refused_as_revoked(&mut agents[revoked], router));
    }
    for r in routers {
        r.shutdown().unwrap();
    }
    no.shutdown().unwrap();
}

/// The restart leaves no window: the very first bulletin a restarted NO
/// serves carries the revocation its ledger holds, and the very first
/// report it takes lands in that ledger.
#[test]
fn a_restarted_operator_serves_its_ledger_from_the_first_bulletin() {
    let dir = tmpdir("operator-restart-window");
    let revoked = 1;
    let (no, w) = operator(&SPEC, &dir);
    assert!(no.revoke_user(&w.tokens[revoked]));
    no.shutdown().unwrap();

    // A transcript for the second life to take: user 0 at router 0, in
    // protocol time its provisioning lists are fresh at.
    let (no, mut w) = operator(&SPEC, &dir);
    let beacon = w.routers[0].beacon(1_000, &mut w.rng);
    let req = w.users[0]
        .request_access(&beacon, 1_000, &mut w.rng)
        .unwrap();
    w.routers[0].process_access_request(&req, 1_000).unwrap();
    let session = w.routers[0].drain_log().remove(0);

    let cfg = test_cfg();
    let metrics = Arc::new(NetMetrics::default());
    let mut conn = Connection::dial(no.addr(), cfg.connect_timeout, cfg.conn, metrics).unwrap();
    conn.send(&NodeMessage::GetBulletin).unwrap();
    let NodeMessage::Bulletin(bulletin) = conn.recv().unwrap() else {
        panic!("expected the bulletin");
    };
    assert_eq!(bulletin.url.version, 1);
    assert_eq!(bulletin.url.tokens, vec![w.tokens[revoked]]);

    conn.send(&NodeMessage::ReportSessions {
        router: "MR-0".into(),
        sessions: vec![session.clone()],
    })
    .unwrap();
    assert!(matches!(
        conn.recv().unwrap(),
        NodeMessage::ReportAck { accepted: 1 }
    ));
    conn.close();
    let access = LedgerQuery {
        kind: Some(RecordKind::Access),
        ..LedgerQuery::default()
    };
    let stored = no.with_ledger(|rl| rl.local().query(&access).unwrap());
    assert_eq!(stored.len(), 1);
    let LedgerRecord::Access(record) = &stored[0].record else {
        unreachable!()
    };
    assert_eq!(record.session, session);
    no.shutdown().unwrap();
}

#[test]
fn after_a_rotation_routers_keep_the_lists_of_their_key() {
    let dir = tmpdir("operator-rotation");
    let revoked = 2;
    let (no, mut w) = operator(&SPEC, &dir);
    let routers: Vec<RouterDaemon> = w
        .routers
        .drain(..)
        .enumerate()
        .map(|(k, r)| RouterDaemon::spawn(r, 0xD0 + k as u64, "127.0.0.1:0", test_cfg()).unwrap())
        .collect();
    let (by_delta, by_full) = (&routers[0], &routers[1]);
    assert!(no.revoke_user(&w.tokens[revoked]));
    assert_eq!(by_delta.refresh_lists_delta(no.addr()).unwrap(), 1);
    assert_eq!(by_full.refresh_lists(no.addr()).unwrap(), 1);

    // The operator rotates its key: the lists it now serves are issued for
    // a key neither router holds, and both refuse them with a code.
    assert_eq!(no.rotate_epoch(&mut w.rng).unwrap(), 1);
    for refresh in [
        by_delta.refresh_lists_delta(no.addr()),
        by_full.refresh_lists(no.addr()),
    ] {
        assert_eq!(refresh.unwrap_err().code(), "bad_url_signature");
    }
    let mut agent = UserAgent::new(w.users.remove(revoked), 0xBAD, test_cfg());
    for router in &routers {
        assert_eq!(router.with_router(|r| r.current_url().version), 1);
        assert!(refused_as_revoked(&mut agent, router));
    }
    for r in routers {
        r.shutdown().unwrap();
    }
    no.shutdown().unwrap();

    // A restarted operator is at epoch 0, and γ is in no record: a ledger
    // past its epoch is refused.
    let fresh = build_world(&SPEC).unwrap().no;
    let Err(refused) = NoDaemon::spawn(fresh, open(&dir), None, "127.0.0.1:0", test_cfg()) else {
        panic!("a ledger past the operator's epoch must be refused");
    };
    assert_eq!(refused.code(), "epoch_ahead");
}

#[test]
fn a_ledger_written_under_another_ceremony_is_refused() {
    let dir = tmpdir("operator-other-seed");
    let (no, w) = operator(&SPEC, &dir);
    assert!(no.revoke_user(&w.tokens[0]));
    no.shutdown().unwrap();

    let other = WorldSpec {
        seed: SPEC.seed + 1,
        ..SPEC
    };
    let w = build_world(&other).unwrap();
    let Err(refused) = NoDaemon::spawn(w.no, open(&dir), None, "127.0.0.1:0", test_cfg()) else {
        panic!("a ledger of another ceremony must be refused");
    };
    assert_eq!(refused.code(), "ledger_disagrees");
}

/// A NO spawned without a peer-key resolver is no replica: it refuses to
/// gossip, or to sync once, with a code and before any dial.
#[test]
fn an_operator_without_a_resolver_refuses_federation() {
    let (no, _) = operator(&SPEC, &tmpdir("restart-unfederated"));
    let peer = "127.0.0.1:9".parse().unwrap();
    let gossip = no.start_gossip(vec![peer], Duration::from_millis(1));
    for refused in [gossip.map(|()| 0), no.sync_once(peer)] {
        assert_eq!(refused.unwrap_err().code(), "not_federated");
    }
    no.shutdown().unwrap();
}
