//! Crash-recovery contract: truncating the log at *every* byte offset of
//! the final records must recover the longest valid prefix,
//! deterministically, and leave the ledger appendable; damage anywhere
//! except the tail of the last segment must refuse to open, and so must
//! damage in the last segment that a whole frame follows.

use std::fs;
use std::path::{Path, PathBuf};

use peace_ecdsa::{SigningKey, VerifyingKey};
use peace_ledger::{
    verify_chain, Ledger, LedgerConfig, LedgerError, LedgerRecord, SyncPolicy, FRAME_OVERHEAD,
    SEGMENT_HEADER_LEN,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> LedgerConfig {
    LedgerConfig {
        sync: SyncPolicy::Always,
        ..LedgerConfig::default()
    }
}

fn rollover(epoch: u64) -> LedgerRecord {
    LedgerRecord::EpochRollover { epoch }
}

fn seg0(dir: &Path) -> PathBuf {
    dir.join(format!("seg-{:016x}.pls", 0))
}

#[test]
fn truncation_at_every_offset_recovers_longest_valid_prefix() {
    let pristine = tmpdir("crash-pristine");
    // Record the file length after each append: `ends[i]` is the valid
    // prefix holding exactly i records.
    let mut ends = vec![SEGMENT_HEADER_LEN as u64];
    {
        let (mut ledger, _) = Ledger::open(&pristine, cfg()).unwrap();
        for i in 0..4 {
            ledger.append(rollover(i), 1_000 + i).unwrap();
            ends.push(fs::metadata(seg0(&pristine)).unwrap().len());
        }
    }
    let full = fs::read(seg0(&pristine)).unwrap();
    assert_eq!(*ends.last().unwrap(), full.len() as u64);

    let work = tmpdir("crash-truncate");
    for cut in SEGMENT_HEADER_LEN..=full.len() {
        let _ = fs::remove_dir_all(&work);
        fs::create_dir_all(&work).unwrap();
        fs::write(seg0(&work), &full[..cut]).unwrap();

        let (ledger, report) = Ledger::open(&work, cfg()).unwrap();
        // Longest valid prefix: every record whose frame ends at or
        // before the cut survives; everything after is torn away.
        let expect = ends.iter().filter(|&&e| e <= cut as u64).count() as u64 - 1;
        assert_eq!(ledger.len(), expect, "cut at {cut}");
        assert_eq!(ledger.head().next_seq, expect, "cut at {cut}");
        let clean = ends.contains(&(cut as u64));
        assert_eq!(report.tail_flaw.is_none(), clean, "cut at {cut}");
        assert_eq!(
            report.torn_bytes,
            cut as u64 - ends[expect as usize],
            "cut at {cut}"
        );
        // Recovery truncated the file: a second open must be clean and
        // identical (determinism).
        drop(ledger);
        let (again, report2) = Ledger::open(&work, cfg()).unwrap();
        assert_eq!(report2.tail_flaw, None, "cut at {cut} not repaired");
        assert_eq!(again.len(), expect);
    }
}

#[test]
fn recovered_ledger_stays_appendable_and_verifiable() {
    let dir = tmpdir("crash-append-after");
    {
        let (mut ledger, _) = Ledger::open(&dir, cfg()).unwrap();
        for i in 0..3 {
            ledger.append(rollover(i), 2_000 + i).unwrap();
        }
    }
    // Tear the tail mid-record.
    let path = seg0(&dir);
    let len = fs::metadata(&path).unwrap().len();
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..len as usize - 5]).unwrap();

    let (mut ledger, report) = Ledger::open(&dir, cfg()).unwrap();
    assert_eq!(ledger.len(), 2);
    assert!(report.tail_flaw.is_some());

    // Appends continue the chain from the recovered head.
    let seq = ledger.append(rollover(9), 3_000).unwrap();
    assert_eq!(seq, 2);
    let mut rng = StdRng::seed_from_u64(42);
    let key = SigningKey::random(&mut rng);
    ledger.checkpoint(&key, "NO", 3_001).unwrap();
    drop(ledger);

    let vk = *key.verifying_key();
    let report = verify_chain(&dir, |s| (s == "NO").then_some(vk)).unwrap();
    assert_eq!(report.records, 4);
    assert_eq!(report.checkpoints_verified, 1);
    assert!(report.anchored);
}

#[test]
fn interior_damage_refuses_to_open() {
    let dir = tmpdir("crash-interior");
    // Tiny segments: force at least 3 segment files.
    let small = LedgerConfig {
        segment_max_bytes: 128,
        sync: SyncPolicy::Always,
    };
    {
        let (mut ledger, _) = Ledger::open(&dir, small).unwrap();
        for i in 0..12 {
            ledger.append(rollover(i), 4_000 + i).unwrap();
        }
        assert!(ledger.head().segments >= 3, "want multiple segments");
    }
    // Flip one payload byte in the middle of the FIRST segment.
    let path = seg0(&dir);
    let mut bytes = fs::read(&path).unwrap();
    let mid = SEGMENT_HEADER_LEN + (bytes.len() - SEGMENT_HEADER_LEN) / 2;
    bytes[mid] ^= 0x10;
    fs::write(&path, &bytes).unwrap();

    match Ledger::open(&dir, small) {
        Err(LedgerError::Corrupt { .. }) | Err(LedgerError::ChainBroken { .. }) => {}
        Err(e) => panic!("interior damage: wrong error {e:?}"),
        Ok(_) => panic!("interior damage must refuse to open"),
    }
    // verify_chain refuses too.
    assert!(verify_chain(&dir, |_| None).is_err());
}

#[test]
fn damaged_header_is_tampering_not_crash() {
    let dir = tmpdir("crash-header");
    {
        let (mut ledger, _) = Ledger::open(&dir, cfg()).unwrap();
        ledger.append(rollover(0), 5_000).unwrap();
    }
    let path = seg0(&dir);
    let mut bytes = fs::read(&path).unwrap();
    bytes[10] ^= 0x01; // inside the header
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        Ledger::open(&dir, cfg()),
        Err(LedgerError::Corrupt { .. })
    ));
}

#[test]
fn partial_header_segment_is_discarded() {
    let dir = tmpdir("crash-partial-header");
    let small = LedgerConfig {
        segment_max_bytes: 128,
        sync: SyncPolicy::Always,
    };
    let (records, next_base) = {
        let (mut ledger, _) = Ledger::open(&dir, small).unwrap();
        for i in 0..6 {
            ledger.append(rollover(i), 6_000 + i).unwrap();
        }
        (ledger.len(), ledger.head().next_seq)
    };
    // Simulate a crash between creating the next segment file and writing
    // its header: a short junk file with the right name.
    let torn = dir.join(format!("seg-{next_base:016x}.pls"));
    fs::write(&torn, [0xAAu8; 7]).unwrap();

    let (ledger, report) = Ledger::open(&dir, small).unwrap();
    assert_eq!(ledger.len(), records);
    assert_eq!(report.tail_flaw, Some("partial segment header"));
    assert!(!torn.exists(), "partial-header segment must be removed");
}

#[test]
fn rotation_compaction_and_queries_survive_reopen() {
    let dir = tmpdir("crash-compact");
    let small = LedgerConfig {
        segment_max_bytes: 160,
        sync: SyncPolicy::Always,
    };
    let mut rng = StdRng::seed_from_u64(7);
    let key = SigningKey::random(&mut rng);
    {
        let (mut ledger, _) = Ledger::open(&dir, small).unwrap();
        for i in 0..10 {
            ledger.append(rollover(i), 7_000 + i).unwrap();
        }
        // Without a checkpoint, compaction must refuse.
        assert!(matches!(
            ledger.compact(8),
            Err(LedgerError::CannotCompact(_))
        ));
        ledger.checkpoint(&key, "NO", 7_100).unwrap();
        let report = ledger.compact(8).unwrap();
        assert!(report.segments_removed > 0);
        assert!(ledger.head().first_seq > 0);
        // Retained records still readable; dropped ones are gone.
        assert!(ledger.get(ledger.head().first_seq).unwrap().is_some());
        assert_eq!(ledger.get(0).unwrap(), None);
    }
    // Reopen: the compacted ledger recovers from its own segments.
    let (ledger, report) = Ledger::open(&dir, small).unwrap();
    assert_eq!(report.tail_flaw, None);
    assert!(ledger.head().first_seq > 0);
    let vk = *key.verifying_key();
    let chain = verify_chain(&dir, |s| (s == "NO").then_some(vk)).unwrap();
    assert_eq!(chain.next_seq, ledger.head().next_seq);
    assert_eq!(chain.checkpoints_verified, 1);
}

/// A single-segment ledger synced record by record: six records, a signed
/// checkpoint, two more. Returns the key and each frame's start offset.
fn fsynced_log_with_checkpoint(dir: &Path) -> (SigningKey, Vec<usize>) {
    let key = SigningKey::random(&mut StdRng::seed_from_u64(0xF11B));
    let (mut ledger, _) = Ledger::open(dir, cfg()).unwrap();
    let end = || fs::metadata(seg0(dir)).unwrap().len() as usize;
    let mut starts = Vec::new();
    for i in 0..6 {
        starts.push(end());
        ledger.append(rollover(i), 8_000 + i).unwrap();
    }
    starts.push(end());
    ledger.checkpoint(&key, "NO", 8_100).unwrap();
    for i in 6..8 {
        starts.push(end());
        ledger.append(rollover(i), 8_200 + i).unwrap();
    }
    assert_eq!(ledger.len(), 9);
    (key, starts)
}

#[test]
fn a_flipped_bit_before_whole_frames_refuses_and_leaves_the_file() {
    let dir = tmpdir("crash-flip-live");
    let (key, starts) = fsynced_log_with_checkpoint(&dir);
    let vk: VerifyingKey = *key.verifying_key();
    let pristine = fs::read(seg0(&dir)).unwrap();
    // Record 2 (before the checkpoint) and record 7 (after it, before the
    // last): every frame was synced, so no crash can leave either flip.
    for victim in [2usize, 7] {
        let mut image = pristine.clone();
        // A byte of the entry's `seq` field, as in a flipped disk bit.
        image[starts[victim] + FRAME_OVERHEAD + 4] ^= 0xff;
        fs::write(seg0(&dir), &image).unwrap();
        let refused = |r: peace_ledger::Result<()>, who: &str| match r {
            Err(LedgerError::Corrupt {
                segment, offset, ..
            }) => {
                assert_eq!(
                    (segment, offset),
                    (0, starts[victim] as u64),
                    "{who} at {victim}"
                )
            }
            other => panic!("{who} at {victim}: want Corrupt, got {other:?}"),
        };
        refused(Ledger::open(&dir, cfg()).map(drop), "open");
        refused(
            Ledger::open_resumed(&dir, cfg(), |s| (s == "NO").then_some(vk)).map(drop),
            "open_resumed",
        );
        refused(
            verify_chain(&dir, |s| (s == "NO").then_some(vk)).map(drop),
            "verify_chain",
        );
        assert_eq!(
            fs::read(seg0(&dir)).unwrap(),
            image,
            "the file is left as it was"
        );
    }
}

#[test]
fn zero_filled_tail_is_a_torn_tail() {
    let dir = tmpdir("crash-zero-tail");
    fsynced_log_with_checkpoint(&dir);
    // A crash can leave the file extended over blocks never written: a
    // zero frame passes its CRC (CRC-32 of nothing is 0) but does not
    // decode.
    let mut image = fs::read(seg0(&dir)).unwrap();
    let intact = image.len();
    image.resize(intact + 4096, 0);
    fs::write(seg0(&dir), &image).unwrap();

    let (ledger, report) = Ledger::open(&dir, cfg()).unwrap();
    assert_eq!(ledger.len(), 9, "every record survives");
    assert_eq!(report.torn_bytes, 4096);
    assert!(report.tail_flaw.is_some());
    assert_eq!(fs::metadata(seg0(&dir)).unwrap().len(), intact as u64);
}

/// A crash between creating the next segment file and writing its header
/// leaves a few bytes under the next name. Every reader keeps every record
/// and counts the stub as torn bytes, with the live segment whole and with
/// its last frame torn too: `verify_chain` reads both files as they are,
/// and `open` and `open_resumed` discard the stub.
#[test]
fn a_four_byte_last_segment_is_a_torn_tail_for_every_reader() {
    let dir = tmpdir("crash-stub-segment");
    let (key, starts) = fsynced_log_with_checkpoint(&dir);
    let vk: VerifyingKey = *key.verifying_key();
    let resolve = |s: &str| (s == "NO").then_some(vk);
    let pristine = fs::read(seg0(&dir)).unwrap();
    let stub = dir.join(format!("seg-{:016x}.pls", 0xff));
    // (live segment's length, records kept, bytes of its torn last frame)
    for (cut, records, torn_frame) in [(pristine.len(), 9u64, 0u64), (starts[8] + 3, 8, 3)] {
        let torn = 4 + torn_frame;
        let reset = || {
            fs::write(seg0(&dir), &pristine[..cut]).unwrap();
            fs::write(&stub, [0xAA; 4]).unwrap();
        };
        let case = format!("live segment cut at {cut}");

        reset();
        let chain = verify_chain(&dir, resolve).unwrap();
        assert_eq!((chain.records, chain.torn_bytes), (records, torn), "{case}");
        assert_eq!(chain.segments, 1, "{case}");
        assert_eq!(fs::metadata(&stub).unwrap().len(), 4, "{case}: stub kept");
        assert_eq!(fs::read(seg0(&dir)).unwrap(), &pristine[..cut], "{case}");

        let (ledger, report) = Ledger::open(&dir, cfg()).unwrap();
        assert_eq!(
            (ledger.len(), report.torn_bytes),
            (records, torn),
            "open, {case}"
        );
        drop(ledger);
        assert!(!stub.exists(), "open, {case}: stub discarded");

        reset();
        let (ledger, report) = Ledger::open_resumed(&dir, cfg(), resolve).unwrap();
        assert_eq!(
            (ledger.len(), report.torn_bytes),
            (records, torn),
            "open_resumed, {case}"
        );
        drop(ledger);
        assert!(!stub.exists(), "open_resumed, {case}: stub discarded");
    }
}

/// How a reader took a damaged log: the records it kept past a torn tail,
/// or where it found the log corrupt.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Torn { records: u64 },
    Corrupt { segment: u64, offset: u64 },
}

fn verdict<T>(r: peace_ledger::Result<T>, records: impl Fn(&T) -> u64, who: &str) -> Verdict {
    match r {
        Ok(t) => Verdict::Torn {
            records: records(&t),
        },
        Err(LedgerError::Corrupt {
            segment, offset, ..
        }) => Verdict::Corrupt { segment, offset },
        Err(e) => panic!("{who}: want a torn tail or Corrupt, got {e:?}"),
    }
}

/// One torn-tail rule for every reader. At each offset of the live
/// segment's frames, a cut, a zero-fill to the file's length, a zero-fill
/// to the next 4 KiB boundary and a flipped byte, each on a fresh copy:
/// `open`, `open_resumed` and `verify_chain` give the same verdict. A
/// crash state (cut or zeros) is a torn tail that keeps every record
/// whose bytes it left as they were, so every one ending at or before the
/// offset; a flipped byte is `Corrupt` at its frame, unless that frame is
/// the last.
#[test]
fn every_reader_takes_each_damaged_tail_the_same_way() {
    let dir = tmpdir("crash-matrix");
    let (key, starts) = fsynced_log_with_checkpoint(&dir);
    let vk: VerifyingKey = *key.verifying_key();
    let resolve = |s: &str| (s == "NO").then_some(vk);
    let pristine = fs::read(seg0(&dir)).unwrap();
    let ends: Vec<usize> = starts[1..]
        .iter()
        .copied()
        .chain([pristine.len()])
        .collect();
    let kinds = ["cut", "zero-fill", "zero-fill to 4 KiB", "flipped byte"];
    for at in SEGMENT_HEADER_LEN..=pristine.len() {
        for kind in kinds {
            let mut image = pristine.clone();
            match kind {
                "cut" => image.truncate(at),
                "zero-fill" => image[at..].fill(0),
                "zero-fill to 4 KiB" => {
                    image.truncate(at);
                    image.resize((at / 4096 + 1) * 4096, 0);
                }
                _ if at == pristine.len() => continue,
                _ => image[at] ^= 0x5a,
            }
            let survivors = ends
                .iter()
                .take_while(|&&e| image.get(..e) == Some(&pristine[..e]))
                .count();
            assert!(survivors >= ends.iter().filter(|&&e| e <= at).count());
            let want = match starts.iter().rposition(|&s| s <= at) {
                Some(frame) if kind == "flipped byte" && frame + 1 < starts.len() => {
                    Verdict::Corrupt {
                        segment: 0,
                        offset: starts[frame] as u64,
                    }
                }
                _ => Verdict::Torn {
                    records: survivors as u64,
                },
            };
            let case = format!("{kind} at {at}");
            fs::write(seg0(&dir), &image).unwrap();
            let chain = verdict(verify_chain(&dir, resolve), |r| r.records, &case);
            let opened = verdict(Ledger::open(&dir, cfg()), |(l, _)| l.len(), &case);
            fs::write(seg0(&dir), &image).unwrap();
            let resumed = verdict(
                Ledger::open_resumed(&dir, cfg(), resolve),
                |(l, _)| l.len(),
                &case,
            );
            assert_eq!(chain, want, "verify_chain, {case}");
            assert_eq!(opened, want, "open, {case}");
            assert_eq!(resumed, want, "open_resumed, {case}");
        }
    }
}
