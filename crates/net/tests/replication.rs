//! Federated-NO chaos acceptance test: three NO replicas gossip
//! checkpointed ledger ranges; routers report transcripts through a
//! health-tracked replica set. One replica is killed mid-run — zero
//! transcripts may be lost on the survivors, the routers must fail over,
//! and the rejoined replica must catch up to a byte-identical merged
//! view, with every shard chain and cross-replica checkpoint verifying
//! offline.

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
    let daemon = NoDaemon::spawn(no, "127.0.0.1:0", test_cfg()).unwrap();
    daemon.attach_replica(replica, resolve);
    (daemon, recovery)
}

fn merged_digest(d: &NoDaemon) -> [u8; 32] {
    d.with_replica(|rl| rl.merged_digest().unwrap()).unwrap()
}

fn access_count(d: &NoDaemon) -> usize {
    d.with_replica(|rl| {
        rl.merged()
            .unwrap()
            .iter()
            .filter(|m| matches!(m.entry.record, LedgerRecord::Access(_)))
            .count()
    })
    .unwrap()
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
        .map(|r| r.report_sessions_failover(&mut set).expect("report"))
        .sum();
    assert_eq!(reported, 4);
    assert_eq!(
        router_daemons[0].metrics().failovers,
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
        .map(|r| {
            r.report_sessions_failover(&mut set)
                .expect("failover report")
        })
        .sum();
    assert_eq!(reported, 2, "no transcript lost with the primary dead");
    let failovers: u64 = router_daemons.iter().map(|r| r.metrics().failovers).sum();
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
