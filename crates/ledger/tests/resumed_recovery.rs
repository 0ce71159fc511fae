//! Checkpoint-resumed recovery contract: `open_resumed` must agree with
//! the full from-the-head replay on every observable (head, indexes,
//! read-back), resume only when the sidecar hint survives CRC + ECDSA
//! verification and matches the log, and still catch damage after the
//! trusted checkpoint.

use std::fs;
use std::path::{Path, PathBuf};

use peace_ecdsa::{SigningKey, VerifyingKey};
use peace_ledger::{Ledger, LedgerConfig, LedgerQuery, LedgerRecord, SyncPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> LedgerConfig {
    LedgerConfig {
        // Tiny segments force a multi-segment log so the resume point
        // sits in a middle segment with trusted segments before it and
        // replayed ones after.
        segment_max_bytes: 256,
        sync: SyncPolicy::Always,
    }
}

fn rollover(epoch: u64) -> LedgerRecord {
    LedgerRecord::EpochRollover { epoch }
}

/// Builds a multi-segment ledger with a signed checkpoint in the middle
/// and more records after it; returns the signing key.
fn build(dir: &Path) -> SigningKey {
    let mut rng = StdRng::seed_from_u64(0xC4EC);
    let key = SigningKey::random(&mut rng);
    let (mut ledger, _) = Ledger::open(dir, cfg()).unwrap();
    for i in 0..8 {
        ledger.append(rollover(i), 1_000 + i).unwrap();
    }
    ledger.checkpoint(&key, "NO", 2_000).unwrap();
    for i in 8..14 {
        ledger.append(rollover(i), 3_000 + i).unwrap();
    }
    assert!(ledger.head().segments >= 3, "want a multi-segment log");
    key
}

fn resolver(key: &SigningKey) -> impl Fn(&str) -> Option<VerifyingKey> {
    let vk = *key.verifying_key();
    move |s: &str| (s == "NO").then_some(vk)
}

#[test]
fn resumed_open_matches_full_open() {
    let dir = tmpdir("resume-match");
    let key = build(&dir);

    let (full, full_report) = Ledger::open(&dir, cfg()).unwrap();
    assert_eq!(full_report.resumed_from, None);

    let (resumed, report) = Ledger::open_resumed(&dir, cfg(), resolver(&key)).unwrap();
    assert_eq!(
        report.resumed_from,
        Some(8),
        "chain replay starts at the checkpoint"
    );
    assert_eq!(report.records, full_report.records);
    assert_eq!(resumed.head(), full.head());
    assert_eq!(resumed.last_checkpoint_seq(), full.last_checkpoint_seq());

    // Indexes agree: every record reads back identically.
    let q = LedgerQuery::default();
    assert_eq!(resumed.query(&q).unwrap(), full.query(&q).unwrap());
    drop(full);

    // The resumed instance continues the chain correctly: append,
    // checkpoint, and offline-verify the whole log.
    let mut resumed = resumed;
    resumed.append(rollover(99), 5_000).unwrap();
    resumed.checkpoint(&key, "NO", 5_001).unwrap();
    drop(resumed);
    let vk = *key.verifying_key();
    let chain = peace_ledger::verify_chain(&dir, |s| (s == "NO").then_some(vk)).unwrap();
    assert_eq!(chain.checkpoints_verified, 2);
    assert!(chain.anchored);
}

#[test]
fn missing_or_damaged_hint_falls_back_to_full_replay() {
    let dir = tmpdir("resume-fallback");
    let key = build(&dir);

    // Remove the sidecar: open_resumed silently does the full replay.
    fs::remove_file(dir.join("resume.pch")).unwrap();
    let (ledger, report) = Ledger::open_resumed(&dir, cfg(), resolver(&key)).unwrap();
    assert_eq!(report.resumed_from, None);
    assert_eq!(ledger.len(), 15);
    drop(ledger);

    // A corrupted sidecar (bad CRC) is ignored the same way.
    let dir2 = tmpdir("resume-fallback-crc");
    let key2 = build(&dir2);
    let hint_path = dir2.join("resume.pch");
    let mut bytes = fs::read(&hint_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x55;
    fs::write(&hint_path, &bytes).unwrap();
    let (ledger, report) = Ledger::open_resumed(&dir2, cfg(), resolver(&key2)).unwrap();
    assert_eq!(report.resumed_from, None);
    assert_eq!(ledger.len(), 15);
}

#[test]
fn unknown_signer_forces_full_replay() {
    let dir = tmpdir("resume-unknown-signer");
    let _key = build(&dir);
    // A resolver that trusts nobody: the signed hint cannot be used.
    let (ledger, report) = Ledger::open_resumed(&dir, cfg(), |_| None).unwrap();
    assert_eq!(report.resumed_from, None);
    assert_eq!(ledger.len(), 15);
}

#[test]
fn wrong_key_forces_full_replay() {
    let dir = tmpdir("resume-wrong-key");
    let _key = build(&dir);
    let mut rng = StdRng::seed_from_u64(7);
    let imposter = SigningKey::random(&mut rng);
    let (ledger, report) = Ledger::open_resumed(&dir, cfg(), resolver(&imposter)).unwrap();
    assert_eq!(report.resumed_from, None);
    assert_eq!(ledger.len(), 15);
}

#[test]
fn damage_after_the_checkpoint_is_still_caught() {
    let dir = tmpdir("resume-tail-damage");
    let key = build(&dir);

    // Flip a payload byte in the LAST segment (after the checkpoint):
    // resumed recovery replays that region, so the damage is a torn
    // tail there, truncated exactly as a full open would.
    let mut segs: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "pls"))
        .collect();
    segs.sort();
    let last = segs.last().unwrap().clone();
    let mut bytes = fs::read(&last).unwrap();
    let n = bytes.len();
    bytes[n - 3] ^= 0x20;
    fs::write(&last, &bytes).unwrap();

    let (full_copy_len, full_flaw) = {
        let snapshot = tmpdir("resume-tail-damage-full");
        fs::create_dir_all(&snapshot).unwrap();
        for s in &segs {
            fs::copy(s, snapshot.join(s.file_name().unwrap())).unwrap();
        }
        let (ledger, report) = Ledger::open(&snapshot, cfg()).unwrap();
        (ledger.len(), report.tail_flaw)
    };

    let (resumed, report) = Ledger::open_resumed(&dir, cfg(), resolver(&key)).unwrap();
    assert!(report.resumed_from.is_some());
    assert_eq!(report.tail_flaw, full_flaw);
    assert_eq!(resumed.len(), full_copy_len);
}

#[test]
fn truncation_destroying_the_checkpoint_falls_back() {
    let dir = tmpdir("resume-truncate-ck");
    let key = build(&dir);

    // Truncate the whole log down to its first segment: the hint now
    // names a segment that no longer exists, so the resumed open must
    // fall back to a full replay of what is left.
    let mut segs: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "pls"))
        .collect();
    segs.sort();
    for s in &segs[1..] {
        fs::remove_file(s).unwrap();
    }
    let (ledger, report) = Ledger::open_resumed(&dir, cfg(), resolver(&key)).unwrap();
    assert_eq!(report.resumed_from, None);
    assert!(ledger.len() < 15);
}
