//! Federated-NO chaos acceptance test: three NO replicas gossip
//! checkpointed ledger ranges; routers report transcripts through a
//! health-tracked replica set. One replica is killed mid-run — zero
//! transcripts may be lost on the survivors, the routers must fail over,
//! and the rejoined replica must catch up to a byte-identical merged
//! view, with every shard chain and cross-replica checkpoint verifying
//! offline. A replica stopped with half a frame on its live segment
//! resumes and converges the same way.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use peace_ledger::{
    verify_replica, LedgerConfig, LedgerRecord, ReplicaRecovery, ReplicatedLedger, SyncPolicy,
};
use peace_net::{
    build_world, ConnConfig, DaemonConfig, NoDaemon, PeerKeyResolver, RouterDaemon, UserAgent,
    WorldSpec,
};
use peace_protocol::{ReplicaSet, RetryPolicy};

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

fn ledger_cfg() -> LedgerConfig {
    LedgerConfig {
        sync: SyncPolicy::OnFlush,
        ..LedgerConfig::default()
    }
}

const SPEC: WorldSpec = WorldSpec {
    seed: 0xFE0,
    users: 4,
    routers: 2,
};

/// Spawns NO replica `idx` over `dir`: the operator is replayed from the
/// shared world seed (all replicas hold the same NSK — the paper's single
/// logical NO, made crash-tolerant), the replica store is opened with
/// O(tail) resume, and federation is enabled. Returns what the open
/// recovered per shard alongside the daemon.
fn spawn_replica(idx: usize, dir: &Path, resolve: PeerKeyResolver) -> (NoDaemon, ReplicaRecovery) {
    let no = build_world(&SPEC).unwrap().no;
    let id = format!("NO-{idx}");
    let (replica, recovery) =
        ReplicatedLedger::open(dir, &id, ledger_cfg(), &|s| resolve(s)).unwrap();
    let daemon = NoDaemon::spawn(no, replica, Some(resolve), "127.0.0.1:0", test_cfg())
        .unwrap_or_else(|e| panic!("replica replayed: {e}"));
    (daemon, recovery)
}

fn merged_digest(d: &NoDaemon) -> [u8; 32] {
    d.with_ledger(|rl| rl.merged_digest().unwrap())
}

fn access_count(d: &NoDaemon) -> usize {
    d.with_ledger(|rl| {
        rl.merged()
            .unwrap()
            .iter()
            .filter(|m| matches!(m.entry.record, LedgerRecord::Access(_)))
            .count()
    })
}

#[test]
fn kill_one_of_three_replicas_loses_nothing() {
    let w = build_world(&SPEC).unwrap();
    let npk = *w.no.npk();
    let resolve: PeerKeyResolver =
        Arc::new(move |s: &str| (s == "NO" || s.starts_with("NO-")).then_some(npk));
    let cfg = test_cfg();

    let dirs: Vec<PathBuf> = (0..3).map(|i| tmpdir(&format!("fed-no-{i}"))).collect();
    let mut nos: Vec<Option<NoDaemon>> = dirs
        .iter()
        .enumerate()
        .map(|(i, d)| Some(spawn_replica(i, d, Arc::clone(&resolve)).0))
        .collect();
    let addrs: Vec<_> = nos.iter().map(|d| d.as_ref().unwrap().addr()).collect();

    // Routers report through a replica set: NO-0 is primary.
    let retry = RetryPolicy {
        base_delay: 10,
        max_delay: 100,
        max_attempts: 4,
    };
    let mut set = ReplicaSet::new(addrs.clone(), retry);

    let mut router_daemons = Vec::new();
    for (i, r) in w.routers.into_iter().enumerate() {
        router_daemons.push(RouterDaemon::spawn(r, 0xAB + i as u64, "127.0.0.1:0", cfg).unwrap());
    }
    for r in &router_daemons {
        r.refresh_lists(addrs[0]).expect("bootstrap list sync");
    }

    // Phase 1: four sessions land on the primary.
    let mut agents = Vec::new();
    for (i, user) in w.users.into_iter().enumerate() {
        let daemon = &router_daemons[i % 2];
        let mut agent = UserAgent::new(user, 0x5EED + i as u64, cfg);
        agent.poll_bulletin(addrs[0]).expect("bulletin poll");
        let mut sess = agent.connect(daemon.addr()).expect("handshake");
        assert_eq!(sess.echo(b"fed").unwrap(), b"fed");
        sess.close();
        agents.push(agent);
    }
    let reported: u32 = router_daemons
        .iter()
        .map(|r| r.report_sessions(&mut set).expect("report"))
        .sum();
    assert_eq!(reported, 4);
    assert_eq!(
        router_daemons[0].telemetry().counters["net.failovers"],
        0,
        "primary alive: no failover yet"
    );

    // Gossip: the secondaries pull the primary's checkpointed shard.
    for i in [1, 2] {
        let pulled = nos[i].as_ref().unwrap().sync_once(addrs[0]).expect("sync");
        assert!(pulled > 0, "replica {i} ingested the primary's records");
    }
    assert_eq!(access_count(nos[1].as_ref().unwrap()), 4);
    assert_eq!(
        merged_digest(nos[1].as_ref().unwrap()),
        merged_digest(nos[2].as_ref().unwrap()),
        "secondaries converge"
    );

    // Phase 2: kill the primary mid-run (its disk state stays put).
    nos[0].take().unwrap().shutdown().unwrap();

    // Two users reconnect; the routers' reports must fail over.
    for (i, agent) in agents.iter_mut().take(2).enumerate() {
        let mut sess = agent
            .connect(router_daemons[i % 2].addr())
            .expect("reconnect");
        assert_eq!(sess.echo(b"survivor").unwrap(), b"survivor");
        sess.close();
    }
    let reported: u32 = router_daemons
        .iter()
        .map(|r| r.report_sessions(&mut set).expect("failover report"))
        .sum();
    assert_eq!(reported, 2, "no transcript lost with the primary dead");
    let failovers: u64 = router_daemons
        .iter()
        .map(|r| r.telemetry().counters["net.failovers"])
        .sum();
    assert!(failovers >= 1, "success came from a backup replica");

    // The survivors converge on everything: NO-2 pulls the failover
    // batch from whichever survivor took it.
    let n1 = nos[1].as_ref().unwrap();
    let n2 = nos[2].as_ref().unwrap();
    let _ = n2.sync_once(n1.addr()).expect("survivor gossip");
    let _ = n1.sync_once(n2.addr()).expect("survivor gossip back");
    assert_eq!(access_count(n1), 6, "4 original + 2 failover sessions");
    assert_eq!(merged_digest(n1), merged_digest(n2));

    // Phase 3: the killed replica rejoins from its old directory (O(tail)
    // resume, then idempotent catch-up) and converges byte-identically.
    let (rejoined, recovery) = spawn_replica(0, &dirs[0], Arc::clone(&resolve));
    assert!(
        recovery
            .shards
            .iter()
            .any(|(_, r)| r.resumed_from.is_some()),
        "rejoin resumed from a signed checkpoint, not a full replay: {recovery:?}"
    );
    let caught_up = rejoined.sync_once(n1.addr()).expect("catch-up");
    assert!(caught_up > 0, "rejoined replica pulled what it missed");
    // A second round is a no-op: catch-up is idempotent.
    assert_eq!(rejoined.sync_once(n1.addr()).unwrap(), 0);
    assert_eq!(access_count(&rejoined), 6);
    assert_eq!(merged_digest(&rejoined), merged_digest(n1));
    assert_eq!(merged_digest(&rejoined), merged_digest(n2));

    // Teardown, then offline cross-replica verification: every shard
    // chain and every pulled checkpoint signature verifies in every
    // replica directory.
    for r in router_daemons {
        r.shutdown().unwrap();
    }
    rejoined.shutdown().unwrap();
    nos[1].take().unwrap().shutdown().unwrap();
    nos[2].take().unwrap().shutdown().unwrap();
    for dir in &dirs {
        let report = verify_replica(dir, &|s| resolve(s)).unwrap();
        assert!(
            report.checkpoints_verified() >= 2,
            "{dir:?}: cross-replica checkpoints verify"
        );
        assert!(report.records() >= 6, "{dir:?}: transcripts present");
    }
}

/// Path of the highest-numbered (live) segment of `shard`.
fn live_segment(shard: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = fs::read_dir(shard)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "pls"))
        .collect();
    segs.sort();
    segs.pop().expect("shard has a segment")
}

/// A replica stopped mid-write resumes: a partial frame on its local
/// shard's live segment is shed as a torn tail when it reopens, it
/// catches up by gossip, and its merged view equals the survivor's byte
/// for byte, with `verify_replica` passing on its directory.
#[test]
fn a_replica_with_a_torn_tail_resumes_and_converges() {
    let w = build_world(&SPEC).unwrap();
    let npk = *w.no.npk();
    let resolve: PeerKeyResolver =
        Arc::new(move |s: &str| (s == "NO" || s.starts_with("NO-")).then_some(npk));
    let cfg = test_cfg();
    let dirs: Vec<PathBuf> = (0..2).map(|i| tmpdir(&format!("torn-no-{i}"))).collect();
    let survivor = spawn_replica(0, &dirs[0], Arc::clone(&resolve)).0;
    let torn = spawn_replica(1, &dirs[1], Arc::clone(&resolve)).0;

    // Each replica takes one router's reports, so each writes a shard of
    // its own; then they mirror each other.
    let mut agents = Vec::new();
    let mut routers = Vec::new();
    for (i, r) in w.routers.into_iter().enumerate() {
        let d = RouterDaemon::spawn(r, 0x70 + i as u64, "127.0.0.1:0", cfg).unwrap();
        d.refresh_lists(survivor.addr())
            .expect("bootstrap list sync");
        routers.push(d);
    }
    for (i, user) in w.users.into_iter().enumerate() {
        let mut agent = UserAgent::new(user, 0x7EA2 + i as u64, cfg);
        agent.poll_bulletin(survivor.addr()).expect("bulletin poll");
        let sess = agent.connect(routers[i % 2].addr()).expect("handshake");
        sess.close();
        agents.push(agent);
    }
    let retry = RetryPolicy::default();
    let mut to_survivor = ReplicaSet::new([survivor.addr()], retry);
    let mut to_torn = ReplicaSet::new([torn.addr()], retry);
    assert_eq!(routers[0].report_sessions(&mut to_survivor).unwrap(), 2);
    assert_eq!(routers[1].report_sessions(&mut to_torn).unwrap(), 2);
    assert!(torn.sync_once(survivor.addr()).unwrap() > 0);
    assert!(survivor.sync_once(torn.addr()).unwrap() > 0);
    assert_eq!(merged_digest(&survivor), merged_digest(&torn));

    // Stop the replica and leave half a frame on its live segment: the
    // header promises 64 payload bytes, five made it to disk.
    torn.shutdown().unwrap();
    let seg = live_segment(&dirs[1].join("shard-NO-1"));
    let mut bytes = fs::read(&seg).unwrap();
    bytes.extend_from_slice(&64u32.to_be_bytes());
    bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x05, 0x01, 0x02]);
    fs::write(&seg, &bytes).unwrap();

    // While it is down the survivor takes two more sessions.
    for agent in agents.iter_mut().take(2) {
        let sess = agent.connect(routers[0].addr()).expect("reconnect");
        sess.close();
    }
    assert_eq!(routers[0].report_sessions(&mut to_survivor).unwrap(), 2);

    let (rejoined, recovery) = spawn_replica(1, &dirs[1], Arc::clone(&resolve));
    let (_, local) = recovery
        .shards
        .iter()
        .find(|(writer, _)| writer == "NO-1")
        .expect("local shard recovered");
    assert!(
        local.tail_flaw.is_some(),
        "the partial frame is a torn tail"
    );
    assert_eq!(local.torn_bytes, 11);
    assert!(
        rejoined.sync_once(survivor.addr()).unwrap() > 0,
        "caught up"
    );
    assert_eq!(
        survivor.sync_once(rejoined.addr()).unwrap(),
        0,
        "nothing new"
    );
    assert_eq!(access_count(&rejoined), 6);
    assert_eq!(merged_digest(&rejoined), merged_digest(&survivor));

    for r in routers {
        r.shutdown().unwrap();
    }
    rejoined.shutdown().unwrap();
    survivor.shutdown().unwrap();
    for dir in &dirs {
        let report = verify_replica(dir, &|s| resolve(s)).unwrap();
        assert!(report.records() >= 6, "{dir:?}: transcripts present");
    }
}
