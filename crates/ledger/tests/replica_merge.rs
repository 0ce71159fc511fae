//! Merge determinism: the federated ledger's merged view is a pure
//! function of shard *contents* — never of the order ranges happened to
//! arrive in, which replica ingested them, or how often a range was
//! redelivered. Two followers fed the same writer histories through
//! arbitrary interleavings must converge to byte-identical merged
//! digests, with access-transcript dedup picking the same winner.

use std::collections::VecDeque;
use std::fs;
use std::path::{Path, PathBuf};

use peace_ecdsa::{SigningKey, VerifyingKey};
use peace_ledger::{
    AccessRecord, Ledger, LedgerConfig, LedgerRecord, RangeData, ReplicatedLedger, SyncPolicy,
};
use peace_protocol::audit::LoggedSession;
use peace_protocol::entities::{NetworkOperator, Ttp, UserClient};
use peace_protocol::ids::UserId;
use peace_protocol::ProtocolConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const WRITERS: [&str; 3] = ["NO-0", "NO-1", "NO-2"];

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> LedgerConfig {
    LedgerConfig {
        sync: SyncPolicy::OnFlush,
        ..LedgerConfig::default()
    }
}

fn keys() -> Vec<SigningKey> {
    (0..WRITERS.len() as u64)
        .map(|i| SigningKey::random(&mut StdRng::seed_from_u64(0xFEDE + i)))
        .collect()
}

fn resolve_with(keys: &[SigningKey]) -> impl Fn(&str) -> Option<VerifyingKey> + '_ {
    move |s: &str| {
        WRITERS
            .iter()
            .position(|w| *w == s)
            .map(|i| *keys[i].verifying_key())
    }
}

/// Builds writer `idx`'s replica with `counts` epoch-rollover records
/// split across two signed checkpoints, and drains it into its full list
/// of checkpoint-bounded ranges.
fn writer_ranges(
    name: &str,
    idx: usize,
    counts: (u64, u64),
    keys: &[SigningKey],
) -> Vec<RangeData> {
    let id = WRITERS[idx];
    let (mut rl, _) = ReplicatedLedger::open(
        tmpdir(&format!("{name}-w{idx}")),
        id,
        cfg(),
        &resolve_with(keys),
    )
    .unwrap();
    let mut at = 1_000;
    for half in [counts.0, counts.1] {
        for e in 0..half {
            at += 1;
            rl.local_mut()
                .append(LedgerRecord::EpochRollover { epoch: e }, at)
                .unwrap();
        }
        at += 1;
        rl.local_mut().checkpoint(&keys[idx], id, at).unwrap();
    }
    let mut ranges = Vec::new();
    let mut from = 0;
    while let Some(r) = rl.serve_range(id, from).unwrap() {
        from = r.ck.seq + 1;
        ranges.push(r);
    }
    ranges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary per-writer record counts, an arbitrary interleaving of
    /// range deliveries, and gratuitous redelivery: the merged digest is
    /// identical to the canonical in-order ingest.
    #[test]
    fn merged_digest_is_order_independent(
        c0 in 0u64..6, c1 in 0u64..6, c2 in 0u64..6,
        d0 in 0u64..6, d1 in 0u64..6, d2 in 0u64..6,
        order_seed in any::<u64>(),
    ) {
        let keys = keys();
        let resolve = resolve_with(&keys);
        let case = format!("merge-{c0}{c1}{c2}{d0}{d1}{d2}-{order_seed:x}");
        let all: Vec<Vec<RangeData>> = [(c0, d0), (c1, d1), (c2, d2)]
            .iter()
            .enumerate()
            .map(|(i, &counts)| writer_ranges(&case, i, counts, &keys))
            .collect();

        // Follower A: seeded interleaving across writers (per-writer order
        // preserved — replication never reorders within a shard).
        let (mut a, _) =
            ReplicatedLedger::open(tmpdir(&format!("{case}-fa")), "F-A", cfg(), &resolve).unwrap();
        let mut pending: Vec<VecDeque<RangeData>> =
            all.iter().map(|rs| rs.iter().cloned().collect()).collect();
        let mut s = order_seed;
        while pending.iter().any(|q| !q.is_empty()) {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pick = ((s >> 33) as usize) % pending.len();
            if let Some(r) = pending[pick].pop_front() {
                a.ingest_range(&r, &resolve).unwrap();
                if s & 1 == 0 {
                    // Redelivery must be a no-op.
                    prop_assert_eq!(a.ingest_range(&r, &resolve).unwrap(), 0);
                }
            }
        }

        // Follower B: canonical writer-by-writer order.
        let (mut b, _) =
            ReplicatedLedger::open(tmpdir(&format!("{case}-fb")), "F-B", cfg(), &resolve).unwrap();
        for rs in &all {
            for r in rs {
                b.ingest_range(r, &resolve).unwrap();
            }
        }

        prop_assert_eq!(a.merged_digest().unwrap(), b.merged_digest().unwrap());
        prop_assert_eq!(a.total_records(), b.total_records());

        // The merged view is (writer, seq)-ordered.
        let merged = a.merged().unwrap();
        for pair in merged.windows(2) {
            let key = |m: &peace_ledger::MergedEntry| (m.writer.clone(), m.entry.seq);
            prop_assert!(key(&pair[0]) <= key(&pair[1]));
        }
    }
}

/// A real group-signed access transcript (the only record kind carrying a
/// session id, which drives merge dedup).
fn real_session() -> LoggedSession {
    let mut rng = StdRng::seed_from_u64(0x5E55);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let mut ttp = Ttp::new();
    let mut gm = no.found_group("org", 2, &mut ttp, &mut rng).unwrap();
    let uid = UserId("alice".into());
    let mut alice = UserClient::new(uid, no.prepared_gpk(), *no.npk(), *no.config(), &mut rng);
    gm.enroll(&mut ttp, &mut alice).unwrap();
    let mut router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);
    let beacon = router.beacon(1_000, &mut rng);
    let req = alice.request_access(&beacon, 1_050, &mut rng).unwrap();
    router.process_access_request(&req, 1_100).unwrap();
    router.drain_log().remove(0)
}

/// The same session reported through two different NOs (a router that
/// failed over mid-ack): both followers keep exactly one copy, and both
/// pick the same winner — the lexicographically first writer.
#[test]
fn duplicate_session_dedup_is_deterministic() {
    let keys = keys();
    let resolve = resolve_with(&keys);
    let session = real_session();

    let mut ranges = Vec::new();
    for idx in [0usize, 1] {
        let id = WRITERS[idx];
        let (mut rl, _) =
            ReplicatedLedger::open(tmpdir(&format!("dedup-w{idx}")), id, cfg(), &resolve).unwrap();
        rl.local_mut()
            .append(
                LedgerRecord::Access(AccessRecord {
                    router: "MR-1".into(),
                    session: session.clone(),
                }),
                2_000 + idx as u64,
            )
            .unwrap();
        rl.local_mut().checkpoint(&keys[idx], id, 3_000).unwrap();
        ranges.push(rl.serve_range(id, 0).unwrap().unwrap());
    }

    let digest_for = |name: &str, order: [usize; 2]| {
        let (mut f, _) = ReplicatedLedger::open(tmpdir(name), "F-X", cfg(), &resolve).unwrap();
        for i in order {
            f.ingest_range(&ranges[i], &resolve).unwrap();
        }
        let merged = f.merged().unwrap();
        let access: Vec<_> = merged
            .iter()
            .filter(|m| matches!(m.entry.record, LedgerRecord::Access(_)))
            .collect();
        assert_eq!(access.len(), 1, "dedup keeps exactly one transcript");
        assert_eq!(access[0].writer, "NO-0", "first writer in merge order wins");
        f.merged_digest().unwrap()
    };

    assert_eq!(
        digest_for("dedup-fwd", [0, 1]),
        digest_for("dedup-rev", [1, 0])
    );
}

/// The digest sees through the writable/mirror distinction: a writer's
/// own replica and a follower holding its mirrored shard agree once the
/// follower also lacks nothing.
#[test]
fn writer_and_follower_agree_on_single_shard_digest() {
    let keys = keys();
    let resolve = resolve_with(&keys);
    let id = WRITERS[0];
    let (mut w, _) = ReplicatedLedger::open(tmpdir("agree-writer"), id, cfg(), &resolve).unwrap();
    for e in 0..4 {
        w.local_mut()
            .append(LedgerRecord::EpochRollover { epoch: e }, 1_000 + e)
            .unwrap();
    }
    w.local_mut().checkpoint(&keys[0], id, 2_000).unwrap();
    let range = w.serve_range(id, 0).unwrap().unwrap();

    let (mut f, _) =
        ReplicatedLedger::open(tmpdir("agree-follower"), "F-A", cfg(), &resolve).unwrap();
    f.ingest_range(&range, &resolve).unwrap();
    assert_eq!(w.merged_digest().unwrap(), f.merged_digest().unwrap());

    // And the mirror shard survives a close/reopen byte-for-byte.
    let dir = f.dir().to_path_buf();
    drop(f);
    let (f2, _) = ReplicatedLedger::open(&dir, "F-A", cfg(), &resolve).unwrap();
    assert_eq!(w.merged_digest().unwrap(), f2.merged_digest().unwrap());

    let report = peace_ledger::verify_replica(&dir, &resolve).unwrap();
    assert!(report.checkpoints_verified() >= 1);
    let _ = Ledger::open(dir.join(format!("shard-{id}")), cfg()).unwrap();
}
