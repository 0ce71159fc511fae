//! Federated-NO soak: the city simulation with its accountability ledger
//! replicated across several NO replicas, one of which is killed mid-run.
//!
//! The harness interleaves the discrete-event simulation with reporting
//! epochs: every `report_interval` the routers drain their transcript
//! logs to the first *alive* replica (failover order is replica index),
//! the accepting replica checkpoints the batch, and all alive replicas
//! gossip checkpoint-bounded ranges pairwise. At `kill_at` one replica is
//! dropped (its directory stays on disk); at the end of the run it
//! rejoins through the O(tail) resume path, catches up idempotently, and
//! the report asserts the federation invariant: no transcript lost, every
//! surviving replica byte-identical.

use std::path::Path;

use peace_ledger::{
    verify_replica, AccessRecord, LedgerConfig, LedgerRecord, ReplicatedLedger, SyncPolicy,
};

use crate::world::{SimConfig, SimWorld};

/// Parameters of a federated-NO soak.
#[derive(Clone, Copy, Debug)]
pub struct FederationConfig {
    /// Base simulation parameters (users, topology, faults, seed).
    pub sim: SimConfig,
    /// Number of NO replicas (must be ≥ 2; the soak kills one).
    pub replicas: usize,
    /// Index of the replica to kill.
    pub kill: usize,
    /// Simulation time at which the victim replica dies.
    pub kill_at: u64,
    /// Reporting/gossip epoch length (ms of simulation time).
    pub report_interval: u64,
}

impl Default for FederationConfig {
    fn default() -> Self {
        Self {
            sim: SimConfig::default(),
            replicas: 3,
            kill: 0,
            kill_at: 20_000,
            report_interval: 4_000,
        }
    }
}

/// The outcome of a federated-NO soak.
#[derive(Clone, Debug)]
pub struct FederationReport {
    /// Transcripts drained from routers and accepted by some replica.
    pub transcripts_reported: u64,
    /// Report batches that landed on a non-primary replica (the primary
    /// was dead at the time).
    pub failovers: u64,
    /// Access transcripts in each replica's merged view at the end (the
    /// killed replica, rejoined and caught up, included).
    pub merged_access: Vec<u64>,
    /// Whether every replica converged to the same merged digest.
    pub converged: bool,
    /// Offline verification: checkpoints verified per replica directory.
    pub checkpoints_verified: Vec<usize>,
    /// Shards the rejoining replica recovered via the checkpoint-resume
    /// fast path (no full chain replay).
    pub rejoin_resumed_shards: usize,
}

fn ledger_cfg() -> LedgerConfig {
    LedgerConfig {
        sync: SyncPolicy::OnFlush,
        ..LedgerConfig::default()
    }
}

/// Runs the soak. `dir` holds one `replica-<i>` subdirectory per replica
/// and must outlive the call (pass a test temp dir).
///
/// # Panics
///
/// On ledger I/O failure (a soak harness, not production code) or a
/// config with fewer than two replicas.
pub fn run_federation_soak(cfg: &FederationConfig, dir: &Path) -> FederationReport {
    assert!(cfg.replicas >= 2, "need a survivor");
    assert!(cfg.kill < cfg.replicas);
    let mut world = SimWorld::new(cfg.sim);
    // This harness owns transcript reporting: routers ship to the
    // replicated ledgers below, not to the in-sim NO.
    world.auto_report = false;
    let npk = *world.no.npk();
    let resolve = move |s: &str| (s == "NO" || s.starts_with("NO-")).then_some(npk);

    let mut replicas: Vec<Option<ReplicatedLedger>> = (0..cfg.replicas)
        .map(|i| {
            let (rl, _) = ReplicatedLedger::open(
                dir.join(format!("replica-{i}")),
                &format!("NO-{i}"),
                ledger_cfg(),
                &resolve,
            )
            .expect("replica opens");
            Some(rl)
        })
        .collect();

    let mut transcripts_reported = 0u64;
    let mut failovers = 0u64;
    let mut killed = false;

    let mut epoch_end = cfg.report_interval;
    loop {
        let last = epoch_end >= cfg.sim.end_time;
        if last {
            world.run();
        } else {
            world.run_until(epoch_end);
        }
        epoch_end += cfg.report_interval;
        if !killed && world.now >= cfg.kill_at {
            // Kill: drop the in-memory replica (flushes on drop); its
            // directory survives for the rejoin below.
            replicas[cfg.kill] = None;
            killed = true;
        }

        // Routers drain to the first alive replica (failover order).
        let primary = replicas
            .iter()
            .position(Option::is_some)
            .expect("a survivor");
        let now = world.now;
        let mut batch = Vec::new();
        for r in &mut world.routers {
            let name = r.id().0.clone();
            for session in r.drain_log() {
                batch.push((name.clone(), session));
            }
        }
        if !batch.is_empty() {
            let rl = replicas[primary].as_mut().expect("alive");
            let mut accepted = 0u64;
            for (router, session) in batch {
                if rl.find_session(&session.session_id.to_bytes()).is_some() {
                    continue;
                }
                rl.local_mut()
                    .append(LedgerRecord::Access(AccessRecord { router, session }), now)
                    .expect("append");
                accepted += 1;
            }
            if accepted > 0 {
                let signer = rl.local_id().to_owned();
                rl.local_mut()
                    .checkpoint(world.no.signing_key(), &signer, now)
                    .expect("checkpoint");
                transcripts_reported += accepted;
                if killed && primary != cfg.kill {
                    failovers += 1;
                }
            }
            rl.flush().expect("flush");
        }

        // Pairwise gossip among the alive replicas.
        gossip_all(&mut replicas, &resolve);
        if last {
            break;
        }
    }

    // Rejoin: reopen the killed replica's directory — the O(tail) resume
    // path recovers every shard from its last signed checkpoint — then
    // catch up from the survivors.
    let (mut rejoined, recovery) = ReplicatedLedger::open(
        dir.join(format!("replica-{}", cfg.kill)),
        &format!("NO-{}", cfg.kill),
        ledger_cfg(),
        &resolve,
    )
    .expect("rejoin");
    let rejoin_resumed_shards = recovery
        .shards
        .iter()
        .filter(|(_, r)| r.resumed_from.is_some())
        .count();
    for src in replicas.iter().flatten() {
        rejoined.pull_from(src, &resolve);
    }
    rejoined.flush().expect("flush");
    replicas[cfg.kill] = Some(rejoined);
    // One more full round so survivors also mirror anything only the
    // rejoined replica's local shard held from before the kill.
    gossip_all(&mut replicas, &resolve);

    let mut merged_access = Vec::new();
    let mut digests = Vec::new();
    for rl in replicas.iter().flatten() {
        let merged = rl.merged().expect("merged view");
        merged_access.push(
            merged
                .iter()
                .filter(|m| matches!(m.entry.record, LedgerRecord::Access(_)))
                .count() as u64,
        );
        digests.push(rl.merged_digest().expect("digest"));
    }
    let converged = digests.windows(2).all(|w| w[0] == w[1]);
    drop(replicas);

    let checkpoints_verified = (0..cfg.replicas)
        .map(|i| {
            verify_replica(dir.join(format!("replica-{i}")), &resolve)
                .expect("offline verification")
                .checkpoints_verified()
        })
        .collect();

    FederationReport {
        transcripts_reported,
        failovers,
        merged_access,
        converged,
        checkpoints_verified,
        rejoin_resumed_shards,
    }
}

/// One all-pairs gossip round among the alive replicas: each in turn
/// steps out of the slice and pulls from everyone left in it. A refused
/// writer is skipped; the rest still sync.
fn gossip_all(
    replicas: &mut [Option<ReplicatedLedger>],
    resolve: &dyn Fn(&str) -> Option<peace_ecdsa::VerifyingKey>,
) {
    for dst in 0..replicas.len() {
        let Some(mut d) = replicas[dst].take() else {
            continue;
        };
        for src in replicas.iter().flatten() {
            d.pull_from(src, resolve);
        }
        replicas[dst] = Some(d);
    }
}
