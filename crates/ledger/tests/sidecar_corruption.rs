//! `resume.pch` sidecar damage contract: every way the hint can rot —
//! truncation, bit flips, a stale head naming vanished segments, a bad
//! magic, an untrusted or forged signature — must produce a clean full
//! replay (identical observable state to `Ledger::open`) *and* surface
//! the rejection reason in `RecoveryReport::resume_fallback` plus the
//! `ledger.resume_fallback` counter, never a silent slow open.

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
        segment_max_bytes: 256,
        sync: SyncPolicy::Always,
    }
}

/// Builds a multi-segment ledger with a signed checkpoint (which writes
/// the `resume.pch` sidecar) and a post-checkpoint tail.
fn build(dir: &Path) -> SigningKey {
    let mut rng = StdRng::seed_from_u64(0x51DE);
    let key = SigningKey::random(&mut rng);
    let (mut ledger, _) = Ledger::open(dir, cfg()).unwrap();
    for i in 0..8 {
        ledger
            .append(LedgerRecord::EpochRollover { epoch: i }, 1_000 + i)
            .unwrap();
    }
    ledger.checkpoint(&key, "NO", 2_000).unwrap();
    for i in 8..14 {
        ledger
            .append(LedgerRecord::EpochRollover { epoch: i }, 3_000 + i)
            .unwrap();
    }
    key
}

fn resolver(key: &SigningKey) -> impl Fn(&str) -> Option<VerifyingKey> {
    let vk = *key.verifying_key();
    move |s: &str| (s == "NO").then_some(vk)
}

/// Opens with the damaged hint and asserts (a) the fallback produced the
/// exact same observable ledger as a trusting-nothing full open, (b) the
/// report carries `reason`, (c) the process-wide fallback counter moved.
fn assert_clean_fallback(dir: &Path, key: &SigningKey, reason: &'static str) {
    let fallbacks_before = peace_ledger::timing::resume_fallback().get();
    let (resumed, report) = Ledger::open_resumed(dir, cfg(), resolver(key)).unwrap();
    assert_eq!(report.resumed_from, None, "hint must not be trusted");
    assert_eq!(report.resume_fallback, Some(reason));
    assert!(
        peace_ledger::timing::resume_fallback().get() > fallbacks_before,
        "fallback must be counted"
    );

    let (full, full_report) = Ledger::open(dir, cfg()).unwrap();
    assert_eq!(
        full_report.resume_fallback, None,
        "plain open never falls back"
    );
    assert_eq!(resumed.head(), full.head());
    let q = LedgerQuery::default();
    assert_eq!(resumed.query(&q).unwrap(), full.query(&q).unwrap());
}

#[test]
fn truncated_sidecar_is_observable() {
    // Cut below the 4-byte CRC trailer: unreadably short.
    let dir = tmpdir("sidecar-trunc-short");
    let key = build(&dir);
    let hint = dir.join("resume.pch");
    let bytes = fs::read(&hint).unwrap();
    fs::write(&hint, &bytes[..3]).unwrap();
    assert_clean_fallback(&dir, &key, "hint_truncated");

    // Cut mid-body: the CRC no longer matches what is left.
    let dir = tmpdir("sidecar-trunc-mid");
    let key = build(&dir);
    let hint = dir.join("resume.pch");
    let bytes = fs::read(&hint).unwrap();
    fs::write(&hint, &bytes[..bytes.len() / 2]).unwrap();
    assert_clean_fallback(&dir, &key, "hint_crc_mismatch");
}

#[test]
fn bit_flipped_sidecar_is_observable() {
    let dir = tmpdir("sidecar-bitflip");
    let key = build(&dir);
    let hint = dir.join("resume.pch");
    let mut bytes = fs::read(&hint).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&hint, &bytes).unwrap();
    assert_clean_fallback(&dir, &key, "hint_crc_mismatch");
}

#[test]
fn bad_magic_is_observable() {
    // Rewrite the sidecar wholesale with a wrong magic but a *valid* CRC,
    // so the magic check itself is what rejects it.
    let dir = tmpdir("sidecar-bad-magic");
    let key = build(&dir);
    let hint = dir.join("resume.pch");
    let mut bytes = fs::read(&hint).unwrap();
    bytes[0] ^= 0xFF;
    let body_len = bytes.len() - 4;
    let crc = peace_ledger::crc::crc32(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&crc.to_be_bytes());
    fs::write(&hint, &bytes).unwrap();
    assert_clean_fallback(&dir, &key, "hint_bad_magic");
}

#[test]
fn stale_head_hint_is_observable() {
    // Delete every segment after the first: the hint still verifies but
    // names a base segment that no longer exists on disk.
    let dir = tmpdir("sidecar-stale-head");
    let key = build(&dir);
    let mut segs: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "pls"))
        .collect();
    segs.sort();
    assert!(segs.len() >= 3, "want a multi-segment log");
    for s in &segs[1..] {
        fs::remove_file(s).unwrap();
    }
    assert_clean_fallback(&dir, &key, "hint_stale_segment");
}

#[test]
fn forged_and_untrusted_signatures_are_observable() {
    let dir = tmpdir("sidecar-forged");
    let _key = build(&dir);

    // A resolver that trusts nobody.
    let fallbacks_before = peace_ledger::timing::resume_fallback().get();
    let (_l, report) = Ledger::open_resumed(&dir, cfg(), |_| None).unwrap();
    assert_eq!(report.resume_fallback, Some("hint_unknown_signer"));
    assert!(peace_ledger::timing::resume_fallback().get() > fallbacks_before);

    // A resolver that hands back the wrong key.
    let mut rng = StdRng::seed_from_u64(9);
    let imposter = SigningKey::random(&mut rng);
    let (_l, report) = Ledger::open_resumed(&dir, cfg(), resolver(&imposter)).unwrap();
    assert_eq!(report.resume_fallback, Some("hint_bad_signature"));
}

#[test]
fn absent_sidecar_is_silent() {
    // A first-ever open has no hint; that is not damage and must not
    // pollute the fallback signal.
    let dir = tmpdir("sidecar-absent");
    let key = build(&dir);
    fs::remove_file(dir.join("resume.pch")).unwrap();
    let (_l, report) = Ledger::open_resumed(&dir, cfg(), resolver(&key)).unwrap();
    assert_eq!(report.resumed_from, None);
    assert_eq!(report.resume_fallback, None);
}
