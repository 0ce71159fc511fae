//! The durable ledger: segment management, crash recovery, rotation,
//! compaction, signed checkpoints, and indexed queries.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use peace_ecdsa::{SigningKey, VerifyingKey};
use peace_groupsig::GroupSignature;
use peace_wire::{Decode, Encode, Reader, Writer};

use crate::checkpoint::Checkpoint;
use crate::record::{Entry, IndexFacts, LedgerRecord, RecordKind, ShallowEntry};
use crate::segment::{
    extend_chain, frame, genesis_chain, walk, ChainMode, Framed, ScanFlaw, SegmentHeader, Walk,
    FRAME_OVERHEAD, MAX_RECORD_BYTES, SEGMENT_HEADER_LEN,
};
use crate::{LedgerError, Result};

/// When appended frames hit the disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fdatasync` after every append — maximum durability, one syscall
    /// per record.
    Always,
    /// Sync only on [`Ledger::flush`], rotation, checkpoints, and drop.
    /// A crash may lose the unsynced tail, but recovery still yields a
    /// valid prefix (frames are single-`write_all`, so the tail tears
    /// cleanly).
    #[default]
    OnFlush,
}

/// Ledger tunables.
#[derive(Clone, Copy, Debug)]
pub struct LedgerConfig {
    /// Rotate to a fresh segment once the current file would exceed this.
    pub segment_max_bytes: u64,
    /// Durability policy for appends.
    pub sync: SyncPolicy,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        Self {
            segment_max_bytes: 256 * 1024,
            sync: SyncPolicy::OnFlush,
        }
    }
}

/// What [`Ledger::open`] found and repaired.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Segments on disk after recovery.
    pub segments: usize,
    /// Records recovered.
    pub records: u64,
    /// Bytes of torn tail discarded from the last segment (0 on a clean
    /// open).
    pub torn_bytes: u64,
    /// Description of the tail flaw, if one was repaired.
    pub tail_flaw: Option<&'static str>,
    /// When [`Ledger::open_resumed`] trusted an ECDSA-signed checkpoint,
    /// the sequence number the chain replay resumed from; `None` on a
    /// full from-the-head replay.
    pub resumed_from: Option<u64>,
    /// When [`Ledger::open_resumed`] found a `resume.pch` sidecar but had
    /// to reject it and fall back to a full replay, the rejection reason
    /// (`hint_crc_mismatch`, `hint_bad_signature`, `hint_frame_not_found`,
    /// …). `None` when the hint was used or simply absent.
    pub resume_fallback: Option<&'static str>,
}

/// A point-in-time description of the chain head.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LedgerHead {
    /// Sequence number the next append will get.
    pub next_seq: u64,
    /// First retained sequence number (> 0 after compaction).
    pub first_seq: u64,
    /// Running chain value over all retained records.
    pub chain: [u8; 32],
    /// Number of segment files.
    pub segments: usize,
}

/// Outcome of [`Ledger::compact`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactReport {
    /// Whole segment files removed.
    pub segments_removed: usize,
    /// Records dropped with them.
    pub records_removed: u64,
}

/// An indexed query over the ledger. All criteria are conjunctive; unset
/// fields match everything.
#[derive(Clone, Debug, Default)]
pub struct LedgerQuery {
    /// Restrict to records stamped in this key epoch.
    pub epoch: Option<u64>,
    /// Restrict to access records reported by this router.
    pub router: Option<String>,
    /// Restrict to access records attributed (by a prior audit sweep) to
    /// this user group. NO-only boundary: the result still names no user.
    pub group: Option<u32>,
    /// Inclusive lower bound on the record wall-clock stamp.
    pub since_ms: Option<u64>,
    /// Inclusive upper bound on the record wall-clock stamp.
    pub until_ms: Option<u64>,
    /// Restrict to one record kind.
    pub kind: Option<RecordKind>,
}

struct SegmentMeta {
    base_seq: u64,
    path: PathBuf,
}

struct EntryMeta {
    at_ms: u64,
    kind: RecordKind,
    seg: usize,
    offset: u64,
    frame_len: usize,
}

/// The durable, hash-chained accountability ledger.
///
/// See the crate docs for the format; in short: append-only CRC-guarded
/// frames in rotating segment files, a SHA-256 running chain, ECDSA
/// checkpoints, and deterministic torn-tail recovery on open.
pub struct Ledger {
    dir: PathBuf,
    cfg: LedgerConfig,
    segments: Vec<SegmentMeta>,
    file: File,
    seg_bytes: u64,
    first_seq: u64,
    next_seq: u64,
    chain: [u8; 32],
    locs: Vec<EntryMeta>,
    by_router: HashMap<String, Vec<u64>>,
    by_group: HashMap<u32, Vec<u64>>,
    by_session: HashMap<Vec<u8>, u64>,
    epoch_marks: Vec<(u64, u64)>,
    attributed: HashSet<u64>,
    last_checkpoint: Option<(u64, [u8; 32])>,
    dirty: bool,
}

fn segment_path(dir: &Path, base_seq: u64) -> PathBuf {
    dir.join(format!("seg-{base_seq:016x}.pls"))
}

fn list_segments(dir: &Path) -> Result<Vec<SegmentMeta>> {
    let mut out = Vec::new();
    for ent in std::fs::read_dir(dir)? {
        let ent = ent?;
        let name = ent.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(hex) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".pls"))
        else {
            continue;
        };
        let Ok(base_seq) = u64::from_str_radix(hex, 16) else {
            continue;
        };
        out.push(SegmentMeta {
            base_seq,
            path: ent.path(),
        });
    }
    out.sort_by_key(|s| s.base_seq);
    Ok(out)
}

/// A crash between segment-file creation and the (synced) header write
/// can leave a final segment with a *short* header. It holds no records, so
/// every reader takes it as a torn tail: this takes it off `segments`, with
/// its length. A full-length header that fails its CRC is damage, not a
/// crash artifact — that case stays for the strict pass, which refuses it.
fn pop_partial_segment(segments: &mut Vec<SegmentMeta>) -> Result<Option<(SegmentMeta, u64)>> {
    let Some(last) = segments.last() else {
        return Ok(None);
    };
    let len = std::fs::metadata(&last.path)?.len();
    if len >= SEGMENT_HEADER_LEN as u64 {
        return Ok(None);
    }
    Ok(segments.pop().map(|seg| (seg, len)))
}

/// One segment read: parsed header, the walk of its frames, file size.
struct SegScan<E> {
    header: SegmentHeader,
    walk: Walk<E>,
    file_len: u64,
}

/// The one per-segment read: the header (which must name the file's base)
/// and a [`walk`] of the frames after it.
fn scan_segment<E: Framed>(seg: &SegmentMeta, mode: ChainMode) -> Result<SegScan<E>> {
    let bytes = std::fs::read(&seg.path)?;
    let header = SegmentHeader::parse(&bytes).ok_or(LedgerError::Corrupt {
        segment: seg.base_seq,
        offset: 0,
        what: "segment header unreadable",
    })?;
    if header.base_seq != seg.base_seq {
        return Err(LedgerError::Corrupt {
            segment: seg.base_seq,
            offset: 0,
            what: "segment header/filename base mismatch",
        });
    }
    Ok(SegScan {
        walk: walk(&bytes, &header, mode),
        header,
        file_len: bytes.len() as u64,
    })
}

/// The cross-segment stitch: each segment must start at the sequence
/// number where the one before it ended and, while the chain is replayed,
/// at its chain value; and only the live segment may end in a torn tail.
struct Stitch {
    next_seq: Option<u64>,
    chain: [u8; 32],
    chain_live: bool,
}

impl Stitch {
    fn new() -> Self {
        Self {
            next_seq: None,
            chain: genesis_chain(),
            chain_live: true,
        }
    }

    /// Checks that the segment's header continues the segments stitched
    /// so far.
    fn start<E>(&self, scan: &SegScan<E>) -> Result<()> {
        let header = &scan.header;
        let broken = match self.next_seq {
            None => header.base_seq == 0 && header.prev_chain != genesis_chain(),
            Some(next) => {
                header.base_seq != next || (self.chain_live && header.prev_chain != self.chain)
            }
        };
        if broken {
            return Err(LedgerError::ChainBroken {
                segment: header.base_seq,
            });
        }
        Ok(())
    }

    /// Takes the segment's walk into the stitch. Its flaw is fatal unless
    /// `tail` (this is the live segment, where a crash may tear the end)
    /// and nothing whole follows it; the tolerated flaw is returned.
    fn end<E>(&mut self, scan: &SegScan<E>, tail: bool) -> Result<Option<ScanFlaw>> {
        let walk = &scan.walk;
        if let Some(flaw) = walk.flaw {
            if !tail || walk.valid_after {
                return Err(LedgerError::Corrupt {
                    segment: scan.header.base_seq,
                    offset: walk.valid_len as u64,
                    what: flaw.describe(),
                });
            }
        }
        self.next_seq = Some(scan.header.base_seq + walk.entries.len() as u64);
        self.chain = walk.chain;
        self.chain_live = walk.chain_live;
        Ok(walk.flaw)
    }
}

/// Scans every segment, fanning the independent per-segment work
/// (read + CRC + shallow decode + chunked SHA-256 chain replay from each
/// header's pinned seed) across threads when the machine and the log are
/// both big enough. Cross-segment chain stitching happens afterwards in
/// sequence order.
fn scan_segments(
    segments: &[SegmentMeta],
    modes: &[ChainMode],
) -> Vec<Result<SegScan<ShallowEntry>>> {
    let n = segments.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if workers <= 1 || n < 2 {
        return segments
            .iter()
            .zip(modes)
            .map(|(s, m)| scan_segment(s, *m))
            .collect();
    }
    let mut out: Vec<Result<SegScan<ShallowEntry>>> = (0..n)
        .map(|_| {
            Err(LedgerError::Corrupt {
                segment: 0,
                offset: 0,
                what: "segment scan worker never ran",
            })
        })
        .collect();
    let chunk = n.div_ceil(workers);
    std::thread::scope(|sc| {
        for (ci, out_chunk) in out.chunks_mut(chunk).enumerate() {
            sc.spawn(move || {
                for (off, slot) in out_chunk.iter_mut().enumerate() {
                    let i = ci * chunk + off;
                    *slot = scan_segment(&segments[i], modes[i]);
                }
            });
        }
    });
    out
}

/// Advisory sidecar naming the latest signed checkpoint's frame, written
/// on every [`Ledger::checkpoint`] so [`Ledger::open_resumed`] can find
/// its resume point without scanning. Self-checked (magic + CRC) and
/// cross-checked against the log before use; stale or damaged hints just
/// fall back to a full from-the-head replay.
const RESUME_HINT_FILE: &str = "resume.pch";
const HINT_MAGIC: [u8; 4] = *b"PRH1";

struct ResumeHint {
    base_seq: u64,
    offset: u64,
    ck: Checkpoint,
}

fn write_resume_hint(dir: &Path, base_seq: u64, offset: u64, ck: &Checkpoint) -> Result<()> {
    let mut w = Writer::new();
    w.put_fixed(&HINT_MAGIC);
    w.put_u64(base_seq);
    w.put_u64(offset);
    ck.encode(&mut w);
    let crc = crate::crc::crc32(w.as_bytes());
    w.put_u32(crc);
    std::fs::write(dir.join(RESUME_HINT_FILE), w.into_bytes())?;
    Ok(())
}

/// Maps a checkpoint signer name to its trusted verifying key.
type KeyResolver<'a> = &'a dyn Fn(&str) -> Option<VerifyingKey>;

/// Reason the sidecar hint was absent — distinguished from damage so the
/// caller can skip fallback accounting on a first-ever open.
const HINT_ABSENT: &str = "hint_absent";

fn read_resume_hint(
    dir: &Path,
    resolve: KeyResolver<'_>,
) -> core::result::Result<ResumeHint, &'static str> {
    let bytes = match std::fs::read(dir.join(RESUME_HINT_FILE)) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(HINT_ABSENT),
        Err(_) => return Err("hint_unreadable"),
    };
    if bytes.len() < 4 {
        return Err("hint_truncated");
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_be_bytes(crc_bytes.try_into().map_err(|_| "hint_truncated")?);
    if crate::crc::crc32(body) != stored {
        return Err("hint_crc_mismatch");
    }
    let mut r = Reader::new(body);
    if r.get_fixed(4).map_err(|_| "hint_truncated")? != HINT_MAGIC {
        return Err("hint_bad_magic");
    }
    let base_seq = r.get_u64().map_err(|_| "hint_undecodable")?;
    let offset = r.get_u64().map_err(|_| "hint_undecodable")?;
    let ck = Checkpoint::decode(&mut r).map_err(|_| "hint_undecodable")?;
    let key = resolve(&ck.signer).ok_or("hint_unknown_signer")?;
    if !ck.verify(&key) {
        return Err("hint_bad_signature");
    }
    Ok(ResumeHint {
        base_seq,
        offset,
        ck,
    })
}

/// Records a resumed-open fallback in the process-wide registry: counter
/// bump plus an event naming the rejection reason, so a fleet operator
/// can see hint damage instead of just a silently slower open.
fn note_resume_fallback(reason: &'static str) {
    crate::timing::resume_fallback().inc();
    crate::timing::replication_event("ledger.resume_fallback", reason);
}

impl Ledger {
    /// Opens (or creates) the ledger in `dir`, running crash recovery:
    /// segments are validated in order, the chain is replayed across
    /// segment boundaries, and a torn tail in the *last* segment is
    /// truncated away — if nothing whole follows the flaw (see
    /// [`crate::segment`]). Damage anywhere else is refused with
    /// [`LedgerError::Corrupt`] / [`LedgerError::ChainBroken`] and the
    /// files are left as they were — a crash can only tear the end of the
    /// log, so any other damage is tampering or media corruption.
    pub fn open(dir: impl AsRef<Path>, cfg: LedgerConfig) -> Result<(Self, RecoveryReport)> {
        Self::open_inner(dir.as_ref(), cfg, None)
    }

    /// Like [`open`](Self::open), but O(tail) on the hash chain: when the
    /// `resume.pch` sidecar names a checkpoint whose ECDSA signature
    /// verifies under `resolve`, the SHA-256 chain replay starts at that
    /// checkpoint's frame instead of the log head. Every frame is still
    /// CRC-checked and shallow-decoded for the indexes; only the hashing
    /// of the attested prefix is skipped — the signature vouches for it.
    /// A missing, damaged, or stale hint falls back to the full replay
    /// of [`open`](Self::open), so this is always safe to prefer when a
    /// trusted verifying key is available.
    pub fn open_resumed(
        dir: impl AsRef<Path>,
        cfg: LedgerConfig,
        resolve: impl Fn(&str) -> Option<VerifyingKey>,
    ) -> Result<(Self, RecoveryReport)> {
        Self::open_inner(dir.as_ref(), cfg, Some(&resolve))
    }

    fn open_inner(
        dir: &Path,
        cfg: LedgerConfig,
        resolve: Option<KeyResolver<'_>>,
    ) -> Result<(Self, RecoveryReport)> {
        let recover_start = std::time::Instant::now();
        let dir = dir.to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut segments = list_segments(&dir)?;
        let mut report = RecoveryReport::default();

        if let Some((partial, len)) = pop_partial_segment(&mut segments)? {
            report.torn_bytes += len;
            report.tail_flaw = Some("partial segment header");
            std::fs::remove_file(&partial.path)?;
        }

        if segments.is_empty() {
            let header = SegmentHeader {
                base_seq: 0,
                created_at: 0,
                prev_chain: genesis_chain(),
            };
            let path = segment_path(&dir, 0);
            let mut f = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&path)?;
            f.write_all(&header.to_bytes())?;
            f.sync_data()?;
            segments.push(SegmentMeta { base_seq: 0, path });
        }

        // An ECDSA-verified resume hint (when the caller supplied a key
        // resolver) lets the chain replay start at the attested
        // checkpoint instead of the log head. A damaged, stale, or
        // unverifiable hint falls back to the full replay — observably:
        // the reason lands in the report, a counter, and an event.
        let hint = match resolve {
            Some(res) => match read_resume_hint(&dir, res) {
                Ok(h) if segments.iter().any(|s| s.base_seq == h.base_seq) => Some(h),
                Ok(_) => {
                    report.resume_fallback = Some("hint_stale_segment");
                    note_resume_fallback("hint_stale_segment");
                    None
                }
                Err(HINT_ABSENT) => None,
                Err(reason) => {
                    report.resume_fallback = Some(reason);
                    note_resume_fallback(reason);
                    None
                }
            },
            None => None,
        };
        let modes: Vec<ChainMode> = segments
            .iter()
            .map(|s| match &hint {
                Some(h) if s.base_seq < h.base_seq => ChainMode::Skip,
                Some(h) if s.base_seq == h.base_seq => ChainMode::Resume {
                    offset: h.offset as usize,
                    chain: h.ck.chain,
                },
                _ => ChainMode::Replay,
            })
            .collect();
        let scans = scan_segments(&segments, &modes);

        // The hint is advisory: if the scan did not find the exact
        // checkpoint frame it names (stale sidecar, torn tail before
        // it, compacted-away segment contents), redo a full replay.
        if let Some(h) = &hint {
            let found = scans
                .iter()
                .flatten()
                .filter(|s| s.header.base_seq == h.base_seq)
                .flat_map(|s| &s.walk.entries)
                .any(|se| se.offset as u64 == h.offset && se.entry.checkpoint() == Some(&h.ck));
            if !found {
                note_resume_fallback("hint_frame_not_found");
                let (ledger, mut rep) = Self::open_inner(&dir, cfg, None)?;
                rep.resume_fallback = Some("hint_frame_not_found");
                return Ok((ledger, rep));
            }
            report.resumed_from = Some(h.ck.seq);
        }

        let mut stitch = Stitch::new();
        let mut locs: Vec<EntryMeta> = Vec::new();
        let mut by_router: HashMap<String, Vec<u64>> = HashMap::new();
        let mut by_group: HashMap<u32, Vec<u64>> = HashMap::new();
        let mut by_session: HashMap<Vec<u8>, u64> = HashMap::new();
        let mut epoch_marks: Vec<(u64, u64)> = Vec::new();
        let mut attributed: HashSet<u64> = HashSet::new();
        let mut last_checkpoint = None;
        let mut seg_bytes = 0u64;

        let count = segments.len();
        for (i, (seg, scan)) in segments.iter().zip(scans).enumerate() {
            let scan = scan?;
            stitch.start(&scan)?;
            if let Some(flaw) = stitch.end(&scan, i + 1 == count)? {
                // Torn tail of the live segment: truncate it away.
                report.torn_bytes += scan.file_len - scan.walk.valid_len as u64;
                report.tail_flaw = Some(flaw.describe());
                let f = OpenOptions::new().write(true).open(&seg.path)?;
                f.set_len(scan.walk.valid_len as u64)?;
                f.sync_data()?;
            }
            if i + 1 == count {
                seg_bytes = scan.walk.valid_len as u64;
            }
            // Consumed: each entry's keys move into the indexes.
            for se in scan.walk.entries {
                locs.push(EntryMeta {
                    at_ms: se.entry.at_ms,
                    kind: se.entry.kind,
                    seg: i,
                    offset: se.offset as u64,
                    frame_len: se.frame_len,
                });
                index_shallow(
                    se.entry,
                    &mut by_router,
                    &mut by_group,
                    &mut by_session,
                    &mut epoch_marks,
                    &mut attributed,
                    &mut last_checkpoint,
                );
            }
        }
        let first_seq = segments[0].base_seq;
        let next_seq = stitch.next_seq.unwrap_or(first_seq);

        let last_path = segments
            .last()
            .map(|s| s.path.clone())
            .unwrap_or_else(|| segment_path(&dir, 0));
        let mut file = OpenOptions::new().write(true).open(&last_path)?;
        file.seek(SeekFrom::Start(seg_bytes))?;

        report.segments = segments.len();
        report.records = locs.len() as u64;
        crate::timing::recover_us().record_since(recover_start);
        Ok((
            Self {
                dir,
                cfg,
                segments,
                file,
                seg_bytes,
                first_seq,
                next_seq,
                chain: stitch.chain,
                locs,
                by_router,
                by_group,
                by_session,
                epoch_marks,
                attributed,
                last_checkpoint,
                dirty: false,
            },
            report,
        ))
    }

    /// The ledger directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The chain head.
    pub fn head(&self) -> LedgerHead {
        LedgerHead {
            next_seq: self.next_seq,
            first_seq: self.first_seq,
            chain: self.chain,
            segments: self.segments.len(),
        }
    }

    /// Number of retained records.
    pub fn len(&self) -> u64 {
        self.locs.len() as u64
    }

    /// Whether the ledger holds no records.
    pub fn is_empty(&self) -> bool {
        self.locs.is_empty()
    }

    /// Appends one record, returning its sequence number. The frame is
    /// written with a single `write_all`, so an abort mid-append can only
    /// leave a trailing partial frame, which the next open skips.
    pub fn append(&mut self, record: LedgerRecord, at_ms: u64) -> Result<u64> {
        let append_start = std::time::Instant::now();
        let entry = Entry {
            seq: self.next_seq,
            at_ms,
            record,
        };
        let payload = entry.try_to_wire()?;
        let chain = extend_chain(&self.chain, &payload);
        self.append_encoded(&entry, &payload, chain, append_start)
    }

    /// [`Self::append`] of an entry already encoded and chained, as a
    /// mirror's catch-up has them once it has validated a range
    /// ([`crate::ReplicatedLedger::ingest_range`]): `entry.seq` is the next
    /// sequence number, `payload` its canonical encoding and `chain` the
    /// head after it, so neither the encoding nor the hash is computed
    /// twice. `append_start` is where `ledger.append_us` starts timing.
    pub(crate) fn append_encoded(
        &mut self,
        entry: &Entry,
        payload: &[u8],
        chain: [u8; 32],
        append_start: std::time::Instant,
    ) -> Result<u64> {
        debug_assert_eq!(entry.seq, self.next_seq);
        debug_assert_eq!(chain, extend_chain(&self.chain, payload));
        if payload.len() > MAX_RECORD_BYTES as usize {
            return Err(LedgerError::RecordTooLarge { len: payload.len() });
        }
        let framed = frame(payload);
        if self.seg_bytes > SEGMENT_HEADER_LEN as u64
            && self.seg_bytes + framed.len() as u64 > self.cfg.segment_max_bytes
        {
            self.rotate(entry.at_ms)?;
        }
        self.file.write_all(&framed)?;
        match self.cfg.sync {
            SyncPolicy::Always => {
                let fsync_start = std::time::Instant::now();
                self.file.sync_data()?;
                crate::timing::fsync_us().record_since(fsync_start);
            }
            SyncPolicy::OnFlush => self.dirty = true,
        }
        let seq = entry.seq;
        index_shallow(
            entry.to_shallow(),
            &mut self.by_router,
            &mut self.by_group,
            &mut self.by_session,
            &mut self.epoch_marks,
            &mut self.attributed,
            &mut self.last_checkpoint,
        );
        self.locs.push(EntryMeta {
            at_ms: entry.at_ms,
            kind: entry.record.kind(),
            seg: self.segments.len() - 1,
            offset: self.seg_bytes,
            frame_len: framed.len(),
        });
        self.chain = chain;
        self.seg_bytes += framed.len() as u64;
        self.next_seq += 1;
        crate::timing::append_us().record_since(append_start);
        Ok(seq)
    }

    /// Forces buffered appends to stable storage.
    pub fn flush(&mut self) -> Result<()> {
        if self.dirty {
            let fsync_start = std::time::Instant::now();
            self.file.sync_data()?;
            crate::timing::fsync_us().record_since(fsync_start);
            self.dirty = false;
        }
        Ok(())
    }

    /// Closes the current segment and starts a fresh one whose header pins
    /// the running chain.
    fn rotate(&mut self, at_ms: u64) -> Result<()> {
        self.file.sync_data()?;
        let header = SegmentHeader {
            base_seq: self.next_seq,
            created_at: at_ms,
            prev_chain: self.chain,
        };
        let path = segment_path(&self.dir, self.next_seq);
        let mut f = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)?;
        f.write_all(&header.to_bytes())?;
        f.sync_data()?;
        // Make the new directory entry durable before writing records
        // into it.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.segments.push(SegmentMeta {
            base_seq: self.next_seq,
            path,
        });
        self.file = f;
        self.seg_bytes = SEGMENT_HEADER_LEN as u64;
        self.dirty = false;
        Ok(())
    }

    /// Appends a signed checkpoint over the current head and syncs it to
    /// disk. The checkpoint covers every record before it; an auditor who
    /// trusts the signer's key can verify the whole retained chain from
    /// it.
    pub fn checkpoint(&mut self, key: &SigningKey, signer: &str, at_ms: u64) -> Result<Checkpoint> {
        let ck = Checkpoint::sign(key, signer, self.next_seq, self.chain, at_ms);
        self.append(LedgerRecord::Checkpoint(ck.clone()), at_ms)?;
        self.dirty = true;
        self.flush()?;
        // Name the checkpoint's frame in the advisory resume sidecar so
        // the next open can replay the chain from here instead of the
        // log head (see [`Ledger::open_resumed`]).
        if let Some(meta) = self.locs.last() {
            write_resume_hint(
                &self.dir,
                self.segments[meta.seg].base_seq,
                meta.offset,
                &ck,
            )?;
        }
        Ok(ck)
    }

    /// Sequence number covered by the most recent checkpoint, if any.
    pub fn last_checkpoint_seq(&self) -> Option<u64> {
        self.last_checkpoint.map(|(s, _)| s)
    }

    /// Drops whole leading segments whose records all precede `up_to`,
    /// provided a later signed checkpoint anchors the retained suffix
    /// (otherwise offline verification would have nothing to trust the
    /// first retained header against). The live segment is never dropped.
    pub fn compact(&mut self, up_to: u64) -> Result<CompactReport> {
        let mut cut = 0usize;
        while cut + 1 < self.segments.len() && self.segments[cut + 1].base_seq <= up_to {
            cut += 1;
        }
        if cut == 0 {
            return Ok(CompactReport {
                segments_removed: 0,
                records_removed: 0,
            });
        }
        let new_first = self.segments[cut].base_seq;
        match self.last_checkpoint {
            Some((seq, _)) if seq >= new_first => {}
            _ => {
                return Err(LedgerError::CannotCompact(
                    "no signed checkpoint anchors the retained suffix",
                ))
            }
        }
        for seg in &self.segments[..cut] {
            std::fs::remove_file(&seg.path)?;
        }
        self.segments.drain(..cut);
        let removed = (new_first - self.first_seq) as usize;
        self.locs.drain(..removed);
        for m in &mut self.locs {
            m.seg -= cut;
        }
        self.first_seq = new_first;
        self.by_router.retain(|_, v| {
            v.retain(|&s| s >= new_first);
            !v.is_empty()
        });
        self.by_group.retain(|_, v| {
            v.retain(|&s| s >= new_first);
            !v.is_empty()
        });
        self.by_session.retain(|_, &mut s| s >= new_first);
        self.attributed.retain(|&s| s >= new_first);
        Ok(CompactReport {
            segments_removed: cut,
            records_removed: removed as u64,
        })
    }

    /// The key epoch a sequence number falls in (per the rollover records
    /// retained in the ledger).
    pub fn epoch_of(&self, seq: u64) -> u64 {
        let idx = self.epoch_marks.partition_point(|&(s, _)| s <= seq);
        if idx == 0 {
            0
        } else {
            self.epoch_marks[idx - 1].1
        }
    }

    /// Reads one entry back from disk, re-checking its frame guards.
    pub fn get(&self, seq: u64) -> Result<Option<Entry>> {
        if seq < self.first_seq || seq >= self.next_seq {
            return Ok(None);
        }
        let meta = &self.locs[(seq - self.first_seq) as usize];
        let f = File::open(&self.segments[meta.seg].path)?;
        Ok(Some(Entry::from_wire(&self.read_back(&f, meta)?)?))
    }

    /// The one frame read-back: the payload of the frame `meta` names,
    /// read from `f` (its segment file) with the frame CRC re-checked.
    fn read_back(&self, mut f: &File, meta: &EntryMeta) -> Result<Vec<u8>> {
        f.seek(SeekFrom::Start(meta.offset))?;
        let mut buf = vec![0u8; meta.frame_len];
        f.read_exact(&mut buf)?;
        let stored = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]);
        buf.drain(..FRAME_OVERHEAD);
        if crate::crc::crc32(&buf) != stored {
            return Err(LedgerError::Corrupt {
                segment: self.segments[meta.seg].base_seq,
                offset: meta.offset,
                what: "frame CRC mismatch on read-back",
            });
        }
        Ok(buf)
    }

    /// First retained checkpoint record at or after `seq`, if any.
    /// Replication serves ranges whose last entry is a signed checkpoint;
    /// this locates the boundary without decoding records.
    pub fn next_checkpoint_at_or_after(&self, seq: u64) -> Option<u64> {
        let start = seq.max(self.first_seq);
        if start >= self.next_seq {
            return None;
        }
        self.locs[(start - self.first_seq) as usize..]
            .iter()
            .position(|m| m.kind == RecordKind::Checkpoint)
            .map(|i| start + i as u64)
    }

    /// Reads the raw (CRC-checked) entry payload bytes for the inclusive
    /// sequence range, one segment-file handle per run of records in the
    /// same segment. These are the exact bytes the hash chain covers, so a
    /// replica can replay the chain over them without re-encoding.
    pub fn payloads_range(&self, from: u64, to_incl: u64) -> Result<Vec<Vec<u8>>> {
        if from > to_incl {
            return Ok(Vec::new());
        }
        if from < self.first_seq {
            return Err(LedgerError::NoSuchRecord(from));
        }
        if to_incl >= self.next_seq {
            return Err(LedgerError::NoSuchRecord(to_incl));
        }
        let mut out = Vec::with_capacity((to_incl - from + 1) as usize);
        let lo = (from - self.first_seq) as usize;
        let hi = (to_incl - self.first_seq) as usize;
        for run in self.locs[lo..=hi].chunk_by(|a, b| a.seg == b.seg) {
            let f = File::open(&self.segments[run[0].seg].path)?;
            for meta in run {
                out.push(self.read_back(&f, meta)?);
            }
        }
        Ok(out)
    }

    /// The sequence number of the access record for a session id, if that
    /// session is in the ledger.
    pub fn find_session(&self, session_id_bytes: &[u8]) -> Option<u64> {
        self.by_session.get(session_id_bytes).copied()
    }

    /// Whether an access record has already been attributed by a sweep.
    pub fn is_attributed(&self, seq: u64) -> bool {
        self.attributed.contains(&seq)
    }

    /// Runs an indexed query, returning matching entries in sequence
    /// order. Uses the router/group indexes to avoid full scans when
    /// those criteria are present.
    pub fn query(&self, q: &LedgerQuery) -> Result<Vec<Entry>> {
        let candidates: Vec<u64> = if let Some(g) = q.group {
            self.by_group.get(&g).cloned().unwrap_or_default()
        } else if let Some(r) = &q.router {
            self.by_router.get(r).cloned().unwrap_or_default()
        } else {
            (self.first_seq..self.next_seq).collect()
        };
        let mut out = Vec::new();
        for seq in candidates {
            if seq < self.first_seq || seq >= self.next_seq {
                continue;
            }
            let meta = &self.locs[(seq - self.first_seq) as usize];
            if let Some(k) = q.kind {
                // Group/router hits point at access records by construction.
                if meta.kind != k {
                    continue;
                }
            }
            if q.since_ms.is_some_and(|t| meta.at_ms < t)
                || q.until_ms.is_some_and(|t| meta.at_ms > t)
                || q.epoch.is_some_and(|e| self.epoch_of(seq) != e)
            {
                continue;
            }
            if let Some(e) = self.get(seq)? {
                out.push(e);
            }
        }
        Ok(out)
    }

    /// Reads every retained entry in order (exports, sweeps over the full
    /// log). Streams segment-by-segment rather than seeking per record.
    ///
    /// # Errors
    ///
    /// [`LedgerError::Corrupt`], naming segment and offset, at the first
    /// frame the walk refuses, torn or not; a record the full decoder
    /// refuses among them. [`Ledger::open`] admits records on
    /// their frame and index facts alone, so this is where a body that does
    /// not decode surfaces — as an error, never as a shorter view.
    pub fn iter_all(&self) -> Result<Vec<Entry>> {
        let mut out = Vec::with_capacity(self.locs.len());
        let mut stitch = Stitch::new();
        for seg in &self.segments {
            let scan = scan_segment::<Entry>(seg, ChainMode::Replay)?;
            stitch.start(&scan)?;
            stitch.end(&scan, false)?;
            out.extend(scan.walk.entries.into_iter().map(|s| s.entry));
        }
        Ok(out)
    }
}

impl Drop for Ledger {
    /// Drop-guard: best-effort flush so buffered appends reach the disk
    /// even on an unwinding exit. (A hard kill skips this — recovery then
    /// truncates whatever tail tore.)
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Files one entry in the recovery indexes, taking its keys by move.
fn index_shallow(
    entry: ShallowEntry,
    by_router: &mut HashMap<String, Vec<u64>>,
    by_group: &mut HashMap<u32, Vec<u64>>,
    by_session: &mut HashMap<Vec<u8>, u64>,
    epoch_marks: &mut Vec<(u64, u64)>,
    attributed: &mut HashSet<u64>,
    last_checkpoint: &mut Option<(u64, [u8; 32])>,
) {
    match entry.facts {
        IndexFacts::Access { router, session_id } => {
            by_router.entry(router).or_default().push(entry.seq);
            by_session.insert(session_id, entry.seq);
        }
        IndexFacts::EpochRollover { epoch } => epoch_marks.push((entry.seq, epoch)),
        IndexFacts::Checkpoint(ck) => *last_checkpoint = Some((ck.seq, ck.chain)),
        IndexFacts::Attribution { session_seq, group } => {
            by_group.entry(group).or_default().push(session_seq);
            attributed.insert(session_seq);
        }
        IndexFacts::Revocation => {}
    }
}

/// Offline chain verification report.
#[derive(Clone, Debug)]
pub struct ChainReport {
    /// Segment files examined, a last one shorter than its header aside.
    pub segments: usize,
    /// Records whose frames and chain replayed cleanly.
    pub records: u64,
    /// Checkpoints whose ECDSA signatures verified.
    pub checkpoints_verified: usize,
    /// Sequence number after the last valid record.
    pub next_seq: u64,
    /// The replayed chain value.
    pub chain: [u8; 32],
    /// Bytes of torn tail found (and ignored): the last segment's, and a
    /// whole segment shorter than its header after it.
    pub torn_bytes: u64,
    /// Whether the newest checkpoint covers every record before the head
    /// (i.e. the final record is a checkpoint over the rest).
    pub anchored: bool,
}

/// Walks a ledger directory read-only: replays the hash chain across all
/// segments, validates every frame, verifies every checkpoint signature
/// via `resolve` (mapping a signer name to its verifying key), and
/// decompresses every group element of every record — the one reader that
/// promises the whole log is well-formed, since the write, recovery and
/// replication paths carry signatures as bytes.
///
/// Interior damage, broken chains, bad checkpoints and records carrying a
/// point outside the group are errors; so is a flaw in the last segment
/// that a whole frame follows, which [`Ledger::open`] refuses too. A torn
/// tail there, a zero-filled one included, is reported but tolerated, as
/// [`Ledger::open`] truncates it; so is a last segment shorter than its
/// header, which [`Ledger::open`] discards and this leaves in place.
pub fn verify_chain(
    dir: impl AsRef<Path>,
    resolve: impl Fn(&str) -> Option<VerifyingKey>,
) -> Result<ChainReport> {
    let dir = dir.as_ref();
    let mut segments = list_segments(dir)?;
    // Read, never removed: this reader changes nothing.
    let partial = pop_partial_segment(&mut segments)?;
    let mut stitch = Stitch::new();
    let mut records = 0u64;
    let mut checkpoints_verified = 0usize;
    let mut torn_bytes = partial.map_or(0, |(_, len)| len);
    let mut last_ck_seq = None;
    let count = segments.len();
    for (i, seg) in segments.iter().enumerate() {
        let scan = scan_segment::<Entry>(seg, ChainMode::Replay)?;
        stitch.start(&scan)?;
        let sigs: Vec<&GroupSignature> = scan
            .walk
            .entries
            .iter()
            .filter_map(|se| match &se.entry.record {
                LedgerRecord::Access(a) => Some(&a.session.gsig),
                _ => None,
            })
            .collect();
        // The segment's points in one batch; the walk below reads verdicts.
        GroupSignature::decompress_all(&sigs);
        for se in &scan.walk.entries {
            if let LedgerRecord::Access(a) = &se.entry.record {
                // The one reader that needs no point still checks them all.
                if a.session.gsig.commitments().is_err() {
                    return Err(LedgerError::Corrupt {
                        segment: seg.base_seq,
                        offset: se.offset as u64,
                        what: "access record carries a point outside the group",
                    });
                }
            } else if let LedgerRecord::Checkpoint(ck) = &se.entry.record {
                // The walk already matched (seq, chain); here we verify the
                // signature against the claimed signer's key.
                let Some(key) = resolve(&ck.signer) else {
                    return Err(LedgerError::CheckpointInvalid {
                        seq: se.entry.seq,
                        what: "unknown checkpoint signer",
                    });
                };
                if !ck.verify(&key) {
                    return Err(LedgerError::CheckpointInvalid {
                        seq: se.entry.seq,
                        what: "checkpoint signature invalid",
                    });
                }
                checkpoints_verified += 1;
                last_ck_seq = Some(se.entry.seq);
            }
        }
        // Every accepted entry has been checked; what stopped the walk, if
        // anything, comes after them all.
        if stitch.end(&scan, i + 1 == count)?.is_some() {
            torn_bytes += scan.file_len - scan.walk.valid_len as u64;
        }
        records += scan.walk.entries.len() as u64;
    }
    let next_seq = stitch.next_seq.unwrap_or(0);
    Ok(ChainReport {
        segments: count,
        records,
        checkpoints_verified,
        next_seq,
        chain: stitch.chain,
        torn_bytes,
        anchored: last_ck_seq.is_some_and(|s| s + 1 == next_seq),
    })
}
