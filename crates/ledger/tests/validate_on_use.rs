//! What the ledger does with points it carries but does not compute with.
//!
//! Replication mirrors bytes a writer attested; reads decode structure;
//! the audit sweep and the offline verifier are where a group signature's
//! points are needed as points. A record whose signature carries a
//! canonically encoded non-element therefore travels and reads back like
//! any other, is reported (never panicked on) by the first use, and is
//! flagged at segment and offset by `verify_chain` / `verify_replica`.
//! And a record body that does not decode at all is an error from every
//! full read — never a silently shorter view.

use std::fs;
use std::path::{Path, PathBuf};

use peace_curve::{AffinePoint, PointError, G1};
use peace_ecdsa::{SigningKey, VerifyingKey};
use peace_groupsig::{GroupSignature, OpSnapshot, RevocationToken};
use peace_ledger::segment::{extend_chain, genesis_chain};
use peace_ledger::{
    audit_sweep, verify_chain, verify_replica, AccessRecord, Checkpoint, Entry, Ledger,
    LedgerConfig, LedgerError, LedgerRecord, RangeData, ReplicatedLedger, FRAME_OVERHEAD,
    SEGMENT_HEADER_LEN,
};
use peace_protocol::audit::LoggedSession;
use peace_protocol::entities::{NetworkOperator, Ttp, UserClient};
use peace_protocol::ids::UserId;
use peace_protocol::ProtocolConfig;
use peace_wire::{Decode, Encode};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn seg0(dir: &Path) -> PathBuf {
    dir.join(format!("seg-{:016x}.pls", 0))
}

/// `n` real group-signed access transcripts and the operator that can
/// open them.
fn real_sessions(n: usize) -> (Vec<LoggedSession>, NetworkOperator) {
    let mut rng = StdRng::seed_from_u64(0x0B5E_55ED);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let mut ttp = Ttp::new();
    let mut gm = no.found_group("org", 2, &mut ttp, &mut rng).unwrap();
    let uid = UserId("alice".into());
    let mut alice = UserClient::new(uid, no.prepared_gpk(), *no.npk(), *no.config(), &mut rng);
    gm.enroll(&mut ttp, &mut alice).unwrap();
    let mut router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);
    for i in 0..n as u64 {
        let beacon = router.beacon(1_000 + i, &mut rng);
        let req = alice.request_access(&beacon, 1_000 + i, &mut rng).unwrap();
        router.process_access_request(&req, 1_000 + i).unwrap();
    }
    (router.drain_log(), no)
}

/// Canonical encodings that name no group element.
fn bad_points() -> (Vec<u8>, Vec<u8>) {
    let encode = |x: u64| {
        let mut bytes = vec![0u8; G1::ENCODED_LEN];
        bytes[0] = 2;
        bytes[G1::ENCODED_LEN - 8..].copy_from_slice(&x.to_be_bytes());
        bytes
    };
    let off_curve = (1..)
        .map(encode)
        .find(|b| AffinePoint::from_compressed(b).is_none())
        .unwrap();
    let out_of_subgroup = (1..)
        .map(encode)
        .find(|b| AffinePoint::from_compressed(b).is_some_and(|p| !p.is_in_subgroup()))
        .unwrap();
    (off_curve, out_of_subgroup)
}

// A signature on the wire: r ‖ T₁ ‖ T₂ ‖ …
const SIG_T1: usize = 20;
const SIG_T2: usize = 20 + 65;

/// `session` with the 65 signature bytes at `at` replaced by `point`.
fn with_point(session: &LoggedSession, at: usize, point: &[u8]) -> LoggedSession {
    let mut sig = session.gsig.to_bytes();
    sig[at..at + G1::ENCODED_LEN].copy_from_slice(point);
    LoggedSession {
        gsig: GroupSignature::from_wire(&sig).expect("canonical bytes decode"),
        ..session.clone()
    }
}

fn access(session: LoggedSession) -> LedgerRecord {
    LedgerRecord::Access(AccessRecord {
        router: "MR-1".into(),
        session,
    })
}

#[test]
fn attested_records_with_bad_points_are_mirrored_read_and_flagged() {
    let (sessions, no) = real_sessions(4);
    let (off_curve, out_of_subgroup) = bad_points();
    let key = SigningKey::random(&mut StdRng::seed_from_u64(0xA77E));
    let resolve = |s: &str| -> Option<VerifyingKey> { (s == "NO-0").then(|| *key.verifying_key()) };
    let cfg = LedgerConfig::default();

    // The writer's key is valid and it signs a checkpoint over a shard in
    // which two transcripts carry a point that is no group element.
    let (mut writer, _) =
        ReplicatedLedger::open(tmpdir("vou-writer"), "NO-0", cfg, &resolve).unwrap();
    let records = [
        access(sessions[0].clone()),
        access(with_point(&sessions[1], SIG_T1, &off_curve)),
        access(sessions[2].clone()),
        access(with_point(&sessions[3], SIG_T2, &out_of_subgroup)),
    ];
    for (i, record) in records.iter().enumerate() {
        writer
            .local_mut()
            .append(record.clone(), 2_000 + i as u64)
            .unwrap();
    }
    writer.local_mut().checkpoint(&key, "NO-0", 3_000).unwrap();
    let range = writer.serve_range("NO-0", 0).unwrap().unwrap();

    // Ingest mirrors them byte for byte — and decompresses nothing.
    let follower_dir = tmpdir("vou-follower");
    let (mut follower, _) = ReplicatedLedger::open(&follower_dir, "NO-1", cfg, &resolve).unwrap();
    let scope = OpSnapshot::scope();
    assert_eq!(follower.ingest_range(&range, &resolve).unwrap(), 5);
    assert_eq!(scope.counts().g1_decompressions, 0);
    let mirror = follower.shard("NO-0").unwrap();
    assert_eq!(mirror.head().chain, writer.local().head().chain);
    assert_eq!(
        follower.merged_digest().unwrap(),
        writer.merged_digest().unwrap()
    );
    assert_eq!(follower.serve_range("NO-0", 0).unwrap().unwrap(), range);

    // Reads decode; the first use of the point names what is wrong with it.
    for (seq, why) in [(1, PointError::NotOnCurve), (3, PointError::NotInSubgroup)] {
        let entry = mirror.get(seq).unwrap().unwrap();
        assert_eq!(entry.record, records[seq as usize]);
        let LedgerRecord::Access(a) = &entry.record else {
            panic!("access record expected");
        };
        assert_eq!(a.session.gsig.commitments(), Err(why));
        assert_eq!(a.session.gsig.commitments().unwrap_err().code(), why.code());
    }

    // The audit sweep resolves the honest transcripts and lists the other
    // two as unresolved.
    let outcome = audit_sweep(&no, mirror, 0, u64::MAX).unwrap();
    assert_eq!(outcome.examined, 4);
    let resolved: Vec<u64> = outcome.resolved.iter().map(|(seq, _)| *seq).collect();
    assert_eq!(resolved, vec![0, 2]);
    assert_eq!(outcome.unresolved, vec![1, 3]);

    // The offline verifier flags the first of them, on either replica, at
    // its segment and offset.
    drop(follower);
    for dir in [follower_dir.as_path(), writer.dir()] {
        let err = verify_replica(dir, &resolve).unwrap_err();
        assert_eq!(err.code(), "corrupt");
        let LedgerError::Corrupt {
            segment, offset, ..
        } = err
        else {
            panic!("corrupt expected");
        };
        let first = records[0].clone();
        let first_frame = FRAME_OVERHEAD
            + Entry {
                seq: 0,
                at_ms: 2_000,
                record: first,
            }
            .to_wire()
            .len();
        assert_eq!(
            (segment, offset),
            (0, (SEGMENT_HEADER_LEN + first_frame) as u64)
        );
    }
    let err = verify_chain(follower_dir.join("shard-NO-0"), resolve).unwrap_err();
    assert_eq!(err.code(), "corrupt");
}

#[test]
fn an_attested_non_canonical_point_is_refused_at_ingest() {
    let (sessions, _) = real_sessions(1);
    let key = SigningKey::random(&mut StdRng::seed_from_u64(0xA77F));
    let resolve = |s: &str| -> Option<VerifyingKey> { (s == "NO-0").then(|| *key.verifying_key()) };

    // No API builds this record: the payload is patched by hand (T₁'s x
    // set to all ones, ≥ p) and the writer's valid key signs a checkpoint
    // over the resulting chain.
    let mut payload = Entry {
        seq: 0,
        at_ms: 2_000,
        record: access(sessions[0].clone()),
    }
    .to_wire();
    let sig = sessions[0].gsig.to_bytes();
    let sig_at = payload
        .windows(sig.len())
        .position(|w| w == sig)
        .expect("the signature is in the payload");
    payload[sig_at + SIG_T1 + 1..sig_at + SIG_T2].fill(0xFF);
    let ck = Checkpoint::sign(
        &key,
        "NO-0",
        1,
        extend_chain(&genesis_chain(), &payload),
        3_000,
    );
    let ck_payload = Entry {
        seq: 1,
        at_ms: 3_000,
        record: LedgerRecord::Checkpoint(ck.clone()),
    }
    .to_wire();
    let range = RangeData {
        writer: "NO-0".into(),
        from_seq: 0,
        payloads: vec![payload, ck_payload],
        ck,
    };

    let (mut follower, _) = ReplicatedLedger::open(
        tmpdir("vou-noncanonical"),
        "NO-1",
        LedgerConfig::default(),
        &resolve,
    )
    .unwrap();
    let err = follower.ingest_range(&range, &resolve).unwrap_err();
    assert_eq!(err.code(), "wire");
    assert_eq!(follower.shard_next_seq("NO-0"), 0, "nothing was appended");
    assert!(!follower.is_quarantined("NO-0"));
}

#[test]
fn a_record_that_does_not_decode_is_an_error_not_a_shorter_view() {
    let dir = tmpdir("vou-undecodable");
    let shard = dir.join("shard-NO-0");
    let token = RevocationToken(G1::random(&mut StdRng::seed_from_u64(5)));
    {
        let (mut ledger, _) = Ledger::open(&shard, LedgerConfig::default()).unwrap();
        ledger
            .append(LedgerRecord::EpochRollover { epoch: 1 }, 1_000)
            .unwrap();
        ledger
            .append(
                LedgerRecord::UserRevocation {
                    token,
                    url_version: 1,
                },
                1_001,
            )
            .unwrap();
        ledger
            .append(LedgerRecord::EpochRollover { epoch: 2 }, 1_002)
            .unwrap();
    }
    // Give the token an unknown tag and re-seal the frame: the CRC holds
    // and the index-only parse (which never reads a revocation body) is
    // satisfied, but the record no longer decodes.
    let mut image = fs::read(seg0(&shard)).unwrap();
    let frame_len = |image: &[u8], at: usize| {
        FRAME_OVERHEAD + u32::from_be_bytes(image[at..at + 4].try_into().unwrap()) as usize
    };
    let second = SEGMENT_HEADER_LEN + frame_len(&image, SEGMENT_HEADER_LEN);
    let end = second + frame_len(&image, second);
    let token_at = image[second..end]
        .windows(G1::ENCODED_LEN)
        .position(|w| w == token.to_bytes())
        .expect("the token is in the frame");
    image[second + token_at] = 7;
    let crc = peace_ledger::crc::crc32(&image[second + FRAME_OVERHEAD..end]);
    image[second + 4..second + 8].copy_from_slice(&crc.to_be_bytes());
    fs::write(seg0(&shard), &image).unwrap();

    let (ledger, report) = Ledger::open(&shard, LedgerConfig::default()).unwrap();
    assert_eq!((report.records, report.torn_bytes), (3, 0));
    assert!(ledger.get(0).unwrap().is_some());
    assert_eq!(ledger.get(1).unwrap_err().code(), "wire");
    let err = ledger.iter_all().unwrap_err();
    assert_eq!(err.code(), "corrupt");
    assert!(
        matches!(err, LedgerError::Corrupt { segment: 0, offset, .. } if offset == second as u64),
        "{err}"
    );
    drop(ledger);

    // The merged view and its digest are computed from `iter_all`: two
    // replicas must not "converge" on the prefix before the bad record.
    let (replica, _) =
        ReplicatedLedger::open(&dir, "NO-0", LedgerConfig::default(), &|_| None).unwrap();
    assert_eq!(replica.merged().unwrap_err().code(), "corrupt");
    assert_eq!(replica.merged_digest().unwrap_err().code(), "corrupt");
    drop(replica);
    assert_eq!(
        verify_chain(&shard, |_| None).unwrap_err().code(),
        "corrupt"
    );
}
