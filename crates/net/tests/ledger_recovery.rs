//! Kill-recover acceptance test for the accountability ledger: a loopback
//! deployment writes session records through the NO daemon's ledger, the
//! process state is dropped mid-run with a torn half-frame on disk, and a
//! fresh daemon recovers the ledger, passes offline chain verification,
//! and batch-audits every session back to the correct user group.
//!
//! Two groups are enrolled (unlike [`peace_net::build_world`]'s single
//! group) so the attribution sweep has something to distinguish: group-A
//! users authenticate through `MR-0`, group-B users through `MR-1`, and
//! every resolved finding must name the group matching the reporting
//! router.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use peace_ledger::{
    attribute_sweep, audit_sweep, verify_chain, Ledger, LedgerConfig, LedgerQuery, LedgerRecord,
    RecordKind, SyncPolicy,
};
use peace_net::{ConnConfig, DaemonConfig, NoDaemon, RouterDaemon, UserAgent};
use peace_protocol::entities::{GroupManager, MeshRouter, NetworkOperator, Ttp, UserClient};
use peace_protocol::ids::{GroupId, UserId};
use peace_protocol::ProtocolConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

struct TwoGroupWorld {
    no: NetworkOperator,
    routers: Vec<MeshRouter>,
    /// `(user, its group)` in enrollment order: a-0, a-1, b-0, b-1.
    users: Vec<(UserClient, GroupId)>,
    tokens: Vec<peace_groupsig::RevocationToken>,
    rng: StdRng,
}

/// The setup ceremony with TWO user groups of two members each, and one
/// router per group.
fn build_two_groups(seed: u64) -> TwoGroupWorld {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let mut ttp = Ttp::new();
    let mut users = Vec::new();
    let mut tokens = Vec::new();
    for (tag, name) in [("a", "metro-a"), ("b", "metro-b")] {
        let gid = no.register_group(name, &mut rng);
        let (gm_bundle, ttp_bundle) = no.issue_shares(gid, 2, &mut rng).unwrap();
        let mut gm = GroupManager::new(gid);
        gm.receive_bundle(&gm_bundle, no.npk()).unwrap();
        ttp.receive_bundle(&ttp_bundle, no.npk()).unwrap();
        for n in 0..2 {
            let uid = UserId(format!("{tag}-{n}"));
            let mut user = UserClient::new(
                uid.clone(),
                no.prepared_gpk(),
                *no.npk(),
                *no.config(),
                &mut rng,
            );
            let assignment = gm.assign(&uid).unwrap();
            let delivery = ttp.deliver(assignment.index, &uid).unwrap();
            let receipt = user.enroll(&assignment, &delivery).unwrap();
            gm.store_receipt(&uid, receipt);
            tokens.push(user.active_credential().unwrap().key.revocation_token());
            users.push((user, gid));
        }
    }
    let routers = (0..2)
        .map(|n| no.provision_router(&format!("MR-{n}"), u64::MAX / 2, &mut rng))
        .collect();
    TwoGroupWorld {
        no,
        routers,
        users,
        tokens,
        rng,
    }
}

/// Path of the highest-numbered (active) segment file.
fn last_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "pls"))
        .collect();
    segs.sort();
    segs.pop().expect("ledger has at least one segment")
}

#[test]
fn kill_recover_verify_and_batch_audit() {
    let mut w = build_two_groups(0xACC7_0B1E);
    let gid_a = w.users[0].1;
    let gid_b = w.users[2].1;
    assert_ne!(gid_a, gid_b);
    let npk = *w.no.npk();
    let router_keys: Vec<(String, peace_ecdsa::VerifyingKey)> = w
        .routers
        .iter()
        .map(|r| (r.id().0.clone(), *r.signing_key().verifying_key()))
        .collect();
    let resolver = |signer: &str| {
        if signer == "NO" {
            return Some(npk);
        }
        router_keys
            .iter()
            .find(|(name, _)| name == signer)
            .map(|(_, k)| *k)
    };
    let cfg = test_cfg();
    let ledger_dir = tmpdir("ledger-kill-recover");

    // ------------------------------------------------------------------
    // Phase 1: live deployment. NO daemon owns the ledger; each user
    // authenticates through its group's router; routers report their
    // transcripts to NO over the wire.
    // ------------------------------------------------------------------
    let (ledger, report) = Ledger::open(
        &ledger_dir,
        LedgerConfig {
            sync: SyncPolicy::Always,
            ..LedgerConfig::default()
        },
    )
    .unwrap();
    assert!(report.tail_flaw.is_none());
    let no_daemon = NoDaemon::spawn(w.no, "127.0.0.1:0", cfg).unwrap();
    no_daemon.attach_ledger(ledger);
    let no_addr = no_daemon.addr();

    let mut router_daemons = Vec::new();
    for (i, r) in w.routers.into_iter().enumerate() {
        router_daemons
            .push(RouterDaemon::spawn(r, 0xD0_0D + i as u64, "127.0.0.1:0", cfg).unwrap());
    }
    for r in &router_daemons {
        r.refresh_lists(no_addr).expect("bootstrap list sync");
    }

    let mut agents = Vec::new();
    for (i, (user, _gid)) in w.users.into_iter().enumerate() {
        // Group A (users 0,1) through MR-0; group B (users 2,3) through MR-1.
        let daemon = &router_daemons[i / 2];
        let mut agent = UserAgent::new(user, 0x5EED + i as u64, cfg);
        agent.poll_bulletin(no_addr).expect("bulletin poll");
        let mut sess = agent.connect(daemon.addr()).expect("handshake");
        assert_eq!(sess.echo(b"hello ledger").unwrap(), b"hello ledger");
        sess.close();
        agents.push(agent);
    }
    let reported: u32 = router_daemons
        .iter()
        .map(|r| r.report_sessions(no_addr).expect("session report"))
        .sum();
    assert_eq!(reported, 4, "every transcript accepted by NO");
    // A duplicate report is idempotent: nothing to drain, nothing re-accepted.
    assert_eq!(router_daemons[0].report_sessions(no_addr).unwrap(), 0);

    // Runtime revocation + an epoch rollover also land in the ledger, and
    // the rollover forces the later batch audit through `gpk_history`.
    assert!(no_daemon.revoke_user(&w.tokens[3]), "b-1 revoked");
    let epoch = no_daemon.rotate_epoch(&mut w.rng);
    assert_eq!(epoch, 1);
    let ck = no_daemon
        .checkpoint_now()
        .expect("ledger attached")
        .expect("checkpoint signs");
    assert_eq!(ck.seq, 6, "4 access + revocation + rollover");

    // ------------------------------------------------------------------
    // Phase 2: kill. Drop the daemons, then fake the crash artifact a
    // mid-write power cut would leave: a half-written frame (its header
    // promises 64 payload bytes; only 5 made it to disk).
    // ------------------------------------------------------------------
    let mut routers_back = Vec::new();
    for r in router_daemons {
        routers_back.push(r.shutdown().unwrap());
    }
    drop(no_daemon.detach_ledger());
    let operator = no_daemon.shutdown().unwrap();

    let seg = last_segment(&ledger_dir);
    let mut bytes = fs::read(&seg).unwrap();
    let intact = bytes.len();
    bytes.extend_from_slice(&64u32.to_be_bytes());
    bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x05, 0x01, 0x02]);
    let torn = bytes.len() - intact;
    fs::write(&seg, &bytes).unwrap();

    // ------------------------------------------------------------------
    // Phase 3: recover. A fresh daemon reopens the ledger, sheds exactly
    // the torn bytes, and keeps serving: one more session flows through
    // the recovered chain.
    // ------------------------------------------------------------------
    let (ledger, report) = Ledger::open(&ledger_dir, LedgerConfig::default()).unwrap();
    assert!(report.tail_flaw.is_some(), "torn tail detected");
    assert_eq!(report.torn_bytes, torn as u64);
    assert_eq!(ledger.len(), 7, "every completed record survived");

    let no_daemon = NoDaemon::spawn(operator, "127.0.0.1:0", cfg).unwrap();
    no_daemon.attach_ledger(ledger);
    let no_addr = no_daemon.addr();
    let router0 = RouterDaemon::spawn(routers_back.remove(0), 0xF00D, "127.0.0.1:0", cfg).unwrap();
    router0.refresh_lists(no_addr).expect("post-recovery sync");
    let mut sess = agents[0].connect(router0.addr()).expect("a-0 reconnects");
    assert_eq!(sess.echo(b"back online").unwrap(), b"back online");
    sess.close();
    assert_eq!(router0.report_sessions(no_addr).unwrap(), 1);
    router0.shutdown().unwrap();

    let mut ledger = no_daemon.detach_ledger().expect("still attached");
    let operator = no_daemon.shutdown().unwrap();
    assert_eq!(ledger.len(), 8, "recovered chain kept appending");

    // ------------------------------------------------------------------
    // Phase 4: offline verification + the batch Open/Audit sweep. Every
    // session resolves — including the revoked user's and those signed
    // under the rotated-away gpk — to the group its router implies.
    // ------------------------------------------------------------------
    let outcome = audit_sweep(&operator, &ledger, 0, u64::MAX).unwrap();
    assert_eq!(outcome.examined, 5);
    assert_eq!(outcome.resolved.len(), 5, "no session escapes the audit");
    assert!(outcome.unresolved.is_empty());
    for (seq, finding) in &outcome.resolved {
        let entry = ledger.get(*seq).unwrap().expect("resolved seq exists");
        let LedgerRecord::Access(access) = &entry.record else {
            panic!("sweep resolved a non-access record at seq {seq}");
        };
        let expect = if access.router == "MR-0" {
            gid_a
        } else {
            gid_b
        };
        assert_eq!(
            finding.group, expect,
            "session at seq {seq} (via {}) attributed to the wrong group",
            access.router
        );
    }

    let appended = attribute_sweep(&mut ledger, &outcome, 9_000).unwrap();
    assert_eq!(appended, 5);
    ledger
        .checkpoint(operator.signing_key(), "NO", 9_001)
        .unwrap();

    // Attribution is persistent: a second sweep finds nothing to do.
    let again = audit_sweep(&operator, &ledger, 0, u64::MAX).unwrap();
    assert_eq!(again.examined, 0, "attributed sessions are not re-opened");

    // Group-indexed queries expose the post-audit boundary: the access
    // records now attributed to each group — three group-A sessions (two
    // pre-crash + the reconnect), two group-B — and name no user.
    let by_a = ledger
        .query(&LedgerQuery {
            group: Some(gid_a.0),
            ..LedgerQuery::default()
        })
        .unwrap();
    let by_b = ledger
        .query(&LedgerQuery {
            group: Some(gid_b.0),
            ..LedgerQuery::default()
        })
        .unwrap();
    assert_eq!((by_a.len(), by_b.len()), (3, 2));
    for (entries, router) in [(&by_a, "MR-0"), (&by_b, "MR-1")] {
        for e in entries {
            assert_eq!(e.record.kind(), RecordKind::Access);
            let LedgerRecord::Access(a) = &e.record else {
                unreachable!()
            };
            assert_eq!(a.router, router);
        }
    }

    // The full chain — pre-crash records, recovery, post-recovery appends,
    // attributions — verifies offline against the ceremony's public keys.
    drop(ledger);
    let chain = verify_chain(&ledger_dir, resolver).unwrap();
    assert_eq!(chain.records, 14, "8 + 5 attributions + final checkpoint");
    assert_eq!(chain.checkpoints_verified, 2);
    assert!(chain.anchored, "final checkpoint anchors the head");
    assert_eq!(chain.torn_bytes, 0, "recovery already shed the torn tail");
}

/// With a ledger attached it is the NO daemon's one session store: reported
/// transcripts go to the ledger and not to the operator's in-memory log,
/// and each one is found by session id and audits to its signer's group.
#[test]
fn an_attached_ledger_is_the_one_session_store() {
    let mut w = build_two_groups(0x0E5_5709);
    let mut router = w.routers.remove(0);
    let mut groups = Vec::new();
    for (user, gid) in &mut w.users {
        for round in 0..2u64 {
            let now = 1_000 + round;
            let beacon = router.beacon(now, &mut w.rng);
            let req = user.request_access(&beacon, now, &mut w.rng).unwrap();
            router.process_access_request(&req, now).unwrap();
            groups.push(*gid);
        }
    }
    let sessions = router.drain_log();
    assert_eq!(sessions.len(), groups.len());
    router.requeue_log(sessions.clone());

    let (ledger, _) = Ledger::open(tmpdir("ledger-one-store"), LedgerConfig::default()).unwrap();
    let no = NoDaemon::spawn(w.no, "127.0.0.1:0", test_cfg()).unwrap();
    no.attach_ledger(ledger);
    let daemon = RouterDaemon::spawn(router, 0x5E55, "127.0.0.1:0", test_cfg()).unwrap();
    assert_eq!(
        daemon.report_sessions(no.addr()).unwrap() as usize,
        sessions.len()
    );
    daemon.shutdown().unwrap();

    assert_eq!(no.with_operator(|op| op.logged_session_count()), 0);
    for (session, gid) in sessions.iter().zip(&groups) {
        let entry = no
            .with_ledger(|l| {
                let seq = l.find_session(&session.session_id.to_bytes())?;
                l.get(seq).unwrap()
            })
            .expect("ledger attached")
            .expect("every reported session is in the ledger");
        let LedgerRecord::Access(access) = entry.record else {
            panic!("session id found on a non-access record");
        };
        let finding = no
            .with_operator(|op| op.audit_raw(&access.session.signed_payload, &access.session.gsig))
            .unwrap();
        assert_eq!(finding.group, *gid);
    }
    drop(no.detach_ledger());
    no.shutdown().unwrap();
}
