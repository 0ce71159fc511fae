//! Multi-writer ledger replication: the substrate of the federated NO.
//!
//! A single [`Ledger`](crate::Ledger) is one writer's hash chain. A
//! federation of NO replicas needs every replica to hold everybody's
//! records without ever merging two writers into one chain (that would
//! destroy the per-writer tamper evidence the checkpoints sign). This
//! module keeps each writer's records in its own *shard* — a full
//! [`Ledger`] in a per-writer subdirectory — and replicates shards
//! between replicas as verified ranges:
//!
//! * **shards** — `shard-<writer>/` under the replica root. Exactly one
//!   shard (the replica's own writer id) is writable; the rest are
//!   mirrors appended to only by [`ReplicatedLedger::ingest_range`].
//! * **digests** — [`WriterDigest`] summarises one shard (head sequence,
//!   chain value, last signed checkpoint). Replicas gossip digest
//!   vectors to discover who is behind.
//! * **ranges** — a pulled range always ends at a signed checkpoint of
//!   the originating writer. The puller replays the hash chain over the
//!   pushed payload bytes from its own mirror head and accepts the range
//!   only if the replayed chain equals the checkpoint's attested chain
//!   and the checkpoint's ECDSA signature verifies under the writer's
//!   key. Anything a peer serves is therefore exactly as trustworthy as
//!   if the writer had served it — mirrors can re-serve ranges, so a
//!   rejoining replica catches up even when the original writer is dead.
//! * **quarantine** — a range whose replayed chain conflicts with a
//!   signed checkpoint, or whose overlap disagrees byte-for-byte with
//!   what the mirror already holds, is evidence of writer equivocation
//!   (or a tampering peer). The shard is refused, marked quarantined,
//!   and excluded from the merged view until an operator intervenes.
//! * **merge** — the merged view is deterministic: entries ordered by
//!   `(writer_id, seq)` with duplicate access transcripts (same session
//!   id, reported to two replicas by a failing-over router) dropped in
//!   that same order. Any two replicas holding the same shard contents
//!   produce byte-identical merged views regardless of how deliveries
//!   interleaved — pinned by a proptest in `tests/replica_merge.rs`.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};

use peace_ecdsa::VerifyingKey;
use peace_hash::sha256;
use peace_wire::{Decode, Encode, Reader, Writer};

use crate::checkpoint::Checkpoint;
use crate::record::{Entry, LedgerRecord};
use crate::segment::extend_chain;
use crate::store::{verify_chain, ChainReport, Ledger, LedgerConfig, RecoveryReport};
use crate::{LedgerError, Result};

/// Maps a writer/checkpoint-signer name to its trusted verifying key.
pub type WriterKeyResolver<'a> = &'a dyn Fn(&str) -> Option<VerifyingKey>;

/// One shard's replication summary, as gossiped between replicas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriterDigest {
    /// The writer id owning the shard's chain.
    pub writer: String,
    /// Sequence number the shard's next append would get (records held).
    pub next_seq: u64,
    /// The shard's running chain value at `next_seq`.
    pub chain: [u8; 32],
    /// Position of the last signed checkpoint record, if any. Only
    /// entries at or before this are served to pullers — the unattested
    /// tail stays private to the writer until it checkpoints.
    pub ckpt_seq: Option<u64>,
    /// Whether the holder has quarantined this shard (conflict found).
    pub quarantined: bool,
}

impl Encode for WriterDigest {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.writer);
        w.put_u64(self.next_seq);
        w.put_fixed(&self.chain);
        match self.ckpt_seq {
            Some(s) => {
                w.put_u8(1);
                w.put_u64(s);
            }
            None => w.put_u8(0),
        }
        w.put_u8(u8::from(self.quarantined));
    }
}

impl Decode for WriterDigest {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        let writer = r.get_str()?;
        let next_seq = r.get_u64()?;
        let mut chain = [0u8; 32];
        chain.copy_from_slice(r.get_fixed(32)?);
        let ckpt_seq = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_u64()?),
            _ => return Err(peace_wire::WireError::Invalid("digest ckpt flag")),
        };
        let quarantined = match r.get_u8()? {
            0 => false,
            1 => true,
            _ => return Err(peace_wire::WireError::Invalid("digest quarantine flag")),
        };
        Ok(Self {
            writer,
            next_seq,
            chain,
            ckpt_seq,
            quarantined,
        })
    }
}

/// A verified-on-arrival range of one writer's shard: the raw entry
/// payload bytes for sequences `from_seq ..= ck.seq`, where the final
/// entry is the checkpoint record for `ck` itself.
#[derive(Clone, Debug, PartialEq)]
pub struct RangeData {
    /// The shard's writer id.
    pub writer: String,
    /// Sequence number of the first payload.
    pub from_seq: u64,
    /// Canonical entry payload bytes, one per sequence number.
    pub payloads: Vec<Vec<u8>>,
    /// The writer-signed checkpoint the range ends at. Its `chain`
    /// attests every entry before `ck.seq`; its signature makes the
    /// range as trustworthy from a mirror as from the writer.
    pub ck: Checkpoint,
}

impl Encode for RangeData {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.writer);
        w.put_u64(self.from_seq);
        w.put_u32(self.payloads.len() as u32);
        for p in &self.payloads {
            w.put_bytes(p);
        }
        self.ck.encode(w);
    }
}

impl Decode for RangeData {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        let writer = r.get_str()?;
        let from_seq = r.get_u64()?;
        let n = r.get_u32()?;
        // Bound preallocation by what a frame could plausibly hold.
        let mut payloads = Vec::with_capacity((n as usize).min(4096));
        for _ in 0..n {
            payloads.push(r.get_bytes()?.to_vec());
        }
        let ck = Checkpoint::decode(r)?;
        Ok(Self {
            writer,
            from_seq,
            payloads,
            ck,
        })
    }
}

/// Ceiling on the encoded size of one served range. A writer that
/// checkpoints regularly never comes near it; hitting it means the
/// inter-checkpoint gap is too large to ship in one framed message, and
/// the fix is to checkpoint more often.
pub const MAX_RANGE_BYTES: usize = 768 * 1024;

/// One merged-view element: the entry plus the writer whose chain it
/// lives in.
#[derive(Clone, Debug, PartialEq)]
pub struct MergedEntry {
    /// The writer id of the shard holding the entry.
    pub writer: String,
    /// The entry itself (its `seq` is per-writer, not global).
    pub entry: Entry,
}

/// What [`ReplicatedLedger::open`] found per shard.
#[derive(Debug, Default)]
pub struct ReplicaRecovery {
    /// Per-shard recovery reports, writer-sorted.
    pub shards: Vec<(String, RecoveryReport)>,
}

/// The federated accountability store of one NO replica: a writable
/// local shard plus verified mirrors of every peer writer.
pub struct ReplicatedLedger {
    dir: PathBuf,
    local_id: String,
    cfg: LedgerConfig,
    local: Ledger,
    mirrors: BTreeMap<String, Ledger>,
    quarantined: HashSet<String>,
}

/// Whether `id` is usable as a writer id (and thus a shard directory
/// component): short, non-empty, filesystem-inert characters only.
pub fn valid_writer_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

fn shard_dir(root: &Path, writer: &str) -> PathBuf {
    root.join(format!("shard-{writer}"))
}

fn require_writer_id(id: &str) -> Result<()> {
    if valid_writer_id(id) {
        Ok(())
    } else {
        Err(LedgerError::Replication {
            writer: id.to_owned(),
            what: "invalid writer id",
        })
    }
}

impl ReplicatedLedger {
    /// Opens (or creates) a replica store at `dir`, writing as
    /// `local_id`. Every existing `shard-*` subdirectory is recovered
    /// with the O(tail) checkpoint-resume machinery (`resolve` supplies
    /// the trusted checkpoint-signer keys), so a rejoining replica pays
    /// for its tail, not its history.
    pub fn open(
        dir: impl AsRef<Path>,
        local_id: &str,
        cfg: LedgerConfig,
        resolve: WriterKeyResolver<'_>,
    ) -> Result<(Self, ReplicaRecovery)> {
        require_writer_id(local_id)?;
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut recovery = ReplicaRecovery::default();
        let mut mirrors = BTreeMap::new();
        let mut local = None;
        let mut shard_ids: Vec<String> = Vec::new();
        for ent in std::fs::read_dir(&dir)? {
            let ent = ent?;
            if !ent.file_type()?.is_dir() {
                continue;
            }
            let name = ent.file_name();
            let Some(writer) = name.to_str().and_then(|n| n.strip_prefix("shard-")) else {
                continue;
            };
            if valid_writer_id(writer) {
                shard_ids.push(writer.to_owned());
            }
        }
        shard_ids.sort();
        for writer in shard_ids {
            let (ledger, report) =
                Ledger::open_resumed(shard_dir(&dir, &writer), cfg, |s| resolve(s))?;
            recovery.shards.push((writer.clone(), report));
            if writer == local_id {
                local = Some(ledger);
            } else {
                mirrors.insert(writer, ledger);
            }
        }
        let local = match local {
            Some(l) => l,
            None => {
                let (l, report) = Ledger::open(shard_dir(&dir, local_id), cfg)?;
                recovery.shards.push((local_id.to_owned(), report));
                recovery.shards.sort_by(|a, b| a.0.cmp(&b.0));
                l
            }
        };
        Ok((
            Self {
                dir,
                local_id: local_id.to_owned(),
                cfg,
                local,
                mirrors,
                quarantined: HashSet::new(),
            },
            recovery,
        ))
    }

    /// Wraps a standalone ledger as a single-writer replica store (the
    /// pre-federation layout: the ledger stays at its own directory and
    /// mirrors, if any ever arrive, nest under it).
    pub fn from_single(ledger: Ledger, local_id: &str) -> Self {
        Self {
            dir: ledger.dir().to_path_buf(),
            local_id: local_id.to_owned(),
            cfg: LedgerConfig::default(),
            local: ledger,
            mirrors: BTreeMap::new(),
            quarantined: HashSet::new(),
        }
    }

    /// Hands the writable local shard back, dropping the mirrors (each
    /// is flushed by its own drop guard).
    pub fn into_local(self) -> Ledger {
        self.local
    }

    /// The replica root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The local writer id.
    pub fn local_id(&self) -> &str {
        &self.local_id
    }

    /// The writable local shard.
    pub fn local(&self) -> &Ledger {
        &self.local
    }

    /// The writable local shard, mutably.
    pub fn local_mut(&mut self) -> &mut Ledger {
        &mut self.local
    }

    /// Every writer id held (local + mirrors), sorted.
    pub fn writers(&self) -> Vec<String> {
        let mut out: Vec<String> = self.mirrors.keys().cloned().collect();
        out.push(self.local_id.clone());
        out.sort();
        out
    }

    /// The shard for `writer`, if held.
    pub fn shard(&self, writer: &str) -> Option<&Ledger> {
        if writer == self.local_id {
            Some(&self.local)
        } else {
            self.mirrors.get(writer)
        }
    }

    /// Sequence number the next ingested entry for `writer` must carry
    /// (0 for a writer not yet mirrored).
    pub fn shard_next_seq(&self, writer: &str) -> u64 {
        self.shard(writer).map_or(0, |l| l.head().next_seq)
    }

    /// Looks a session id up across every held shard (local first),
    /// returning the owning writer and sequence number. Used for
    /// cross-replica transcript dedup: a router failing over re-reports
    /// a batch another replica may already have mirrored here.
    pub fn find_session(&self, session_id_bytes: &[u8]) -> Option<(String, u64)> {
        if let Some(seq) = self.local.find_session(session_id_bytes) {
            return Some((self.local_id.clone(), seq));
        }
        for (w, m) in &self.mirrors {
            if let Some(seq) = m.find_session(session_id_bytes) {
                return Some((w.clone(), seq));
            }
        }
        None
    }

    /// Whether `writer` is quarantined (conflict evidence held).
    pub fn is_quarantined(&self, writer: &str) -> bool {
        self.quarantined.contains(writer)
    }

    /// Writers currently quarantined, sorted.
    pub fn quarantined(&self) -> Vec<String> {
        let mut out: Vec<String> = self.quarantined.iter().cloned().collect();
        out.sort();
        out
    }

    /// Operator override: lifts a quarantine (after offline forensics).
    pub fn clear_quarantine(&mut self, writer: &str) -> bool {
        self.quarantined.remove(writer)
    }

    fn quarantine(&mut self, writer: &str, what: &'static str) -> LedgerError {
        self.quarantined.insert(writer.to_owned());
        crate::timing::quarantine_total().inc();
        crate::timing::replication_event("ledger.quarantine", what);
        LedgerError::Quarantined {
            writer: writer.to_owned(),
            what,
        }
    }

    /// Replication digests for every held shard, writer-sorted.
    pub fn digests(&self) -> Vec<WriterDigest> {
        self.writers()
            .into_iter()
            .filter_map(|w| {
                let shard = self.shard(&w)?;
                let head = shard.head();
                Some(WriterDigest {
                    next_seq: head.next_seq,
                    chain: head.chain,
                    ckpt_seq: shard.last_checkpoint_seq(),
                    quarantined: self.is_quarantined(&w),
                    writer: w,
                })
            })
            .collect()
    }

    /// Serves one replication range of `writer`'s shard starting at
    /// `from_seq`: the raw payloads up to (and including) the first
    /// signed checkpoint at or after `from_seq`. Returns `Ok(None)` when
    /// nothing attested lies at or past `from_seq` — the puller is as
    /// caught up as attestation allows.
    pub fn serve_range(&self, writer: &str, from_seq: u64) -> Result<Option<RangeData>> {
        if self.is_quarantined(writer) {
            return Err(LedgerError::Quarantined {
                writer: writer.to_owned(),
                what: "shard quarantined; range refused",
            });
        }
        let Some(shard) = self.shard(writer) else {
            return Err(LedgerError::Replication {
                writer: writer.to_owned(),
                what: "unknown writer",
            });
        };
        let head = shard.head();
        if from_seq < head.first_seq {
            return Err(LedgerError::Replication {
                writer: writer.to_owned(),
                what: "requested range compacted away",
            });
        }
        let Some(ck_seq) = shard.next_checkpoint_at_or_after(from_seq) else {
            return Ok(None);
        };
        let payloads = shard.payloads_range(from_seq, ck_seq)?;
        // The range ends on the checkpoint it was cut at: decode it from
        // the payload already read rather than reading the frame twice.
        let Some(Ok(Entry {
            record: LedgerRecord::Checkpoint(ck),
            ..
        })) = payloads.last().map(|p| Entry::from_wire(p))
        else {
            return Err(LedgerError::Replication {
                writer: writer.to_owned(),
                what: "checkpoint index out of sync",
            });
        };
        let bytes: usize = payloads.iter().map(|p| p.len() + 8).sum();
        if bytes > MAX_RANGE_BYTES {
            return Err(LedgerError::Replication {
                writer: writer.to_owned(),
                what: "inter-checkpoint gap exceeds the range size bound",
            });
        }
        Ok(Some(RangeData {
            writer: writer.to_owned(),
            from_seq,
            payloads,
            ck,
        }))
    }

    /// Ingests a pulled range into the mirror for `range.writer`,
    /// verifying before any byte becomes durable:
    ///
    /// 1. the checkpoint's signer is the writer and its ECDSA signature
    ///    verifies under the key `resolve` maps the writer to;
    /// 2. every payload decodes to a canonically encoded [`Entry`] with
    ///    the expected dense sequence number;
    /// 3. replaying the hash chain from the mirror head over the new
    ///    payloads reaches exactly the checkpoint's attested chain at
    ///    `ck.seq`;
    /// 4. any overlap with already-mirrored entries matches byte for
    ///    byte (idempotent redelivery is a no-op).
    ///
    /// A chain conflict (3) or overlap divergence (4) is equivocation
    /// evidence: the writer is quarantined and the range refused.
    /// Returns the number of records newly appended.
    ///
    /// Check 2 is structural: a group signature's `T₁`/`T₂` must be
    /// canonically encoded, but are not decompressed here — the bytes are
    /// what the chain and the writer's checkpoint attest, and a mirror is a
    /// copy of them. Whether they name group elements is established where
    /// someone computes with them (an audit sweep reports such a record
    /// unresolved) and by [`verify_replica`], which checks every one.
    pub fn ingest_range(
        &mut self,
        range: &RangeData,
        resolve: WriterKeyResolver<'_>,
    ) -> Result<u64> {
        let ingest_start = std::time::Instant::now();
        let writer = range.writer.clone();
        require_writer_id(&writer)?;
        if writer == self.local_id {
            return Err(LedgerError::Replication {
                writer,
                what: "a replica never mirrors its own writer id",
            });
        }
        if self.is_quarantined(&writer) {
            return Err(LedgerError::Quarantined {
                writer,
                what: "shard quarantined; ingest refused",
            });
        }
        if range.ck.signer != writer {
            return Err(LedgerError::Replication {
                writer,
                what: "checkpoint signer is not the shard writer",
            });
        }
        let Some(key) = resolve(&writer) else {
            return Err(LedgerError::Replication {
                writer,
                what: "no trusted key for writer",
            });
        };
        if !range.ck.verify(&key) {
            return Err(LedgerError::Replication {
                writer,
                what: "checkpoint signature invalid",
            });
        }

        // Open (or create) the mirror shard before validating against
        // its head.
        if !self.mirrors.contains_key(&writer) {
            let (ledger, _) = Ledger::open(shard_dir(&self.dir, &writer), self.cfg)?;
            self.mirrors.insert(writer.clone(), ledger);
        }
        let mirror = match self.mirrors.get_mut(&writer) {
            Some(m) => m,
            None => {
                return Err(LedgerError::Replication {
                    writer,
                    what: "mirror shard unavailable",
                })
            }
        };
        let head = mirror.head();
        if range.from_seq > head.next_seq {
            return Err(LedgerError::Replication {
                writer,
                what: "range leaves a gap before the mirror head",
            });
        }
        let end_seq = range.from_seq + range.payloads.len() as u64;
        if end_seq != range.ck.seq + 1 {
            return Err(LedgerError::Replication {
                writer,
                what: "range does not end at its checkpoint record",
            });
        }
        if range.ck.seq < head.next_seq {
            // Fully stale redelivery: cross-check the recorded
            // checkpoint at that position — a different signed
            // checkpoint for the same seq is equivocation.
            if let Some(entry) = mirror.get(range.ck.seq)? {
                match &entry.record {
                    LedgerRecord::Checkpoint(stored) if *stored == range.ck => return Ok(0),
                    _ => return Err(self.quarantine(&writer, "conflicting signed checkpoint")),
                }
            }
            return Ok(0);
        }

        // Decode + canonicality + chain replay over the genuinely new
        // suffix; byte-compare the overlap. Each new entry is staged with
        // its payload and the chain after it, which is what the mirror
        // writes: validation's encoding and hash are not redone.
        let mut chain = head.chain;
        let mut staged: Vec<(Entry, &[u8], [u8; 32])> = Vec::new();
        for (i, payload) in range.payloads.iter().enumerate() {
            let seq = range.from_seq + i as u64;
            if seq < head.next_seq {
                let Some(stored) = mirror.get(seq)? else {
                    return Err(LedgerError::Replication {
                        writer,
                        what: "overlap reaches below the mirror's first retained record",
                    });
                };
                if stored.try_to_wire()? != *payload {
                    return Err(self.quarantine(&writer, "overlap diverges from mirrored bytes"));
                }
                continue;
            }
            let entry = Entry::from_wire(payload)?;
            if entry.seq != seq {
                return Err(LedgerError::Replication {
                    writer,
                    what: "entry sequence number out of order",
                });
            }
            if entry.try_to_wire()? != *payload {
                return Err(LedgerError::Replication {
                    writer,
                    what: "entry encoding is not canonical",
                });
            }
            if seq == range.ck.seq {
                // The chain value a checkpoint signs covers everything
                // before it — which is exactly `chain` here.
                if chain != range.ck.chain {
                    return Err(self.quarantine(&writer, "chain conflicts with signed checkpoint"));
                }
                match &entry.record {
                    LedgerRecord::Checkpoint(ck) if *ck == range.ck => {}
                    _ => {
                        return Err(LedgerError::Replication {
                            writer,
                            what: "final entry is not the attached checkpoint",
                        })
                    }
                }
            }
            chain = extend_chain(&chain, payload);
            staged.push((entry, payload, chain));
        }

        // All checks passed: make the range durable.
        let appended = staged.len() as u64;
        for (entry, payload, chain) in staged {
            mirror.append_encoded(&entry, payload, chain, std::time::Instant::now())?;
        }
        mirror.flush()?;
        crate::timing::catchup_records().add(appended);
        crate::timing::catchup_us().record_since(ingest_start);
        Ok(appended)
    }

    /// One in-process pull round: for every writer `src` holds a signed
    /// checkpoint for, pulls checkpoint-bounded ranges until this replica
    /// reaches that checkpoint, each range verified by
    /// [`Self::ingest_range`] before it lands. Mirrors re-serve, so
    /// knowledge spreads transitively. A writer quarantined on either side
    /// is skipped; a refusal (to serve or to ingest) ends that writer's
    /// pull and is returned, the other writers still sync. Returns the
    /// records newly appended and the refusals.
    pub fn pull_from(
        &mut self,
        src: &ReplicatedLedger,
        resolve: WriterKeyResolver<'_>,
    ) -> (u64, Vec<LedgerError>) {
        let mut total = 0;
        let mut refused = Vec::new();
        for d in src.digests() {
            if d.writer == self.local_id || d.quarantined || self.is_quarantined(&d.writer) {
                continue;
            }
            // Only attested history travels.
            let Some(target) = d.ckpt_seq else { continue };
            loop {
                let from = self.shard_next_seq(&d.writer);
                if from > target {
                    break;
                }
                let pulled = match src.serve_range(&d.writer, from) {
                    Ok(Some(range)) => self.ingest_range(&range, resolve),
                    Ok(None) => break,
                    Err(e) => Err(e),
                };
                match pulled {
                    Ok(n) => total += n,
                    Err(e) => {
                        refused.push(e);
                        break;
                    }
                }
            }
        }
        (total, refused)
    }

    /// The deterministic merged view: every non-quarantined shard's
    /// entries in `(writer_id, seq)` order, with duplicate access
    /// transcripts (same session id seen earlier in that order) dropped.
    pub fn merged(&self) -> Result<Vec<MergedEntry>> {
        let mut out = Vec::new();
        let mut seen_sessions: HashSet<Vec<u8>> = HashSet::new();
        for writer in self.writers() {
            if self.is_quarantined(&writer) {
                continue;
            }
            let Some(shard) = self.shard(&writer) else {
                continue;
            };
            for entry in shard.iter_all()? {
                if let LedgerRecord::Access(a) = &entry.record {
                    if !seen_sessions.insert(a.session.session_id.to_bytes()) {
                        continue;
                    }
                }
                out.push(MergedEntry {
                    writer: writer.clone(),
                    entry,
                });
            }
        }
        Ok(out)
    }

    /// SHA-256 over the canonical encoding of the merged view. Two
    /// replicas holding the same shard contents produce the same digest
    /// byte for byte — the convergence check of the federation.
    pub fn merged_digest(&self) -> Result<[u8; 32]> {
        let mut w = Writer::new();
        for me in self.merged()? {
            w.put_str(&me.writer);
            let bytes = me.entry.try_to_wire()?;
            w.put_bytes(&bytes);
        }
        Ok(sha256(w.as_bytes()))
    }

    /// Records-held count across all shards (mirrors included).
    pub fn total_records(&self) -> u64 {
        self.writers()
            .iter()
            .filter_map(|w| self.shard(w))
            .map(Ledger::len)
            .sum()
    }

    /// Flushes the local shard (mirrors are flushed at ingest time).
    pub fn flush(&mut self) -> Result<()> {
        self.local.flush()
    }
}

/// Per-writer chain verification of one replica directory.
#[derive(Clone, Debug)]
pub struct ReplicaVerifyReport {
    /// `(writer, chain report)` for each shard, writer-sorted.
    pub shards: Vec<(String, ChainReport)>,
}

impl ReplicaVerifyReport {
    /// Total records across all shard chains.
    pub fn records(&self) -> u64 {
        self.shards.iter().map(|(_, r)| r.records).sum()
    }

    /// Total verified checkpoint signatures across all shard chains.
    pub fn checkpoints_verified(&self) -> usize {
        self.shards
            .iter()
            .map(|(_, r)| r.checkpoints_verified)
            .sum()
    }
}

/// Walks a replica directory read-only and verifies every shard chain
/// (frames, hash chain, and all checkpoint signatures via `resolve`).
/// Fails on the first shard whose chain does not verify.
pub fn verify_replica(
    dir: impl AsRef<Path>,
    resolve: WriterKeyResolver<'_>,
) -> Result<ReplicaVerifyReport> {
    let dir = dir.as_ref();
    let mut shard_ids = Vec::new();
    for ent in std::fs::read_dir(dir)? {
        let ent = ent?;
        if !ent.file_type()?.is_dir() {
            continue;
        }
        let name = ent.file_name();
        if let Some(writer) = name.to_str().and_then(|n| n.strip_prefix("shard-")) {
            if valid_writer_id(writer) {
                shard_ids.push(writer.to_owned());
            }
        }
    }
    shard_ids.sort();
    if shard_ids.is_empty() {
        return Err(LedgerError::Replication {
            writer: String::new(),
            what: "no shard directories found",
        });
    }
    let mut shards = Vec::with_capacity(shard_ids.len());
    for writer in shard_ids {
        let report = verify_chain(shard_dir(dir, &writer), |s| resolve(s))?;
        shards.push((writer, report));
    }
    Ok(ReplicaVerifyReport { shards })
}

#[cfg(test)]
mod tests {
    use super::*;
    use peace_ecdsa::SigningKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("peace-replica-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(seed: u64) -> SigningKey {
        SigningKey::random(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn writer_id_validation() {
        assert!(valid_writer_id("NO-0"));
        assert!(valid_writer_id("no_1.a"));
        assert!(!valid_writer_id(""));
        assert!(!valid_writer_id("a/b"));
        assert!(!valid_writer_id("a b"));
        assert!(!valid_writer_id(&"x".repeat(65)));
    }

    #[test]
    fn digest_and_range_roundtrip() {
        let d = WriterDigest {
            writer: "NO-1".into(),
            next_seq: 42,
            chain: [9u8; 32],
            ckpt_seq: Some(40),
            quarantined: false,
        };
        assert_eq!(WriterDigest::from_wire(&d.to_wire()).unwrap(), d);
        let d2 = WriterDigest {
            ckpt_seq: None,
            quarantined: true,
            ..d.clone()
        };
        assert_eq!(WriterDigest::from_wire(&d2.to_wire()).unwrap(), d2);

        let ck = Checkpoint::sign(&key(1), "NO-1", 2, [3u8; 32], 7);
        let r = RangeData {
            writer: "NO-1".into(),
            from_seq: 0,
            payloads: vec![vec![1, 2, 3], vec![]],
            ck,
        };
        assert_eq!(RangeData::from_wire(&r.to_wire()).unwrap(), r);
    }

    /// Builds a writer replica with `n` epoch-rollover records and a
    /// final signed checkpoint.
    fn writer_replica(name: &str, id: &str, k: &SigningKey, n: u64) -> ReplicatedLedger {
        let (mut rl, _) =
            ReplicatedLedger::open(tmp(name), id, LedgerConfig::default(), &|_| None).unwrap();
        for e in 0..n {
            rl.local_mut()
                .append(LedgerRecord::EpochRollover { epoch: e }, 100 + e)
                .unwrap();
        }
        rl.local_mut().checkpoint(k, id, 1_000).unwrap();
        rl
    }

    #[test]
    fn pull_ingest_converges_and_is_idempotent() {
        let k = key(7);
        let writer = writer_replica("src", "NO-0", &k, 5);
        let resolve = |s: &str| (s == "NO-0").then(|| *k.verifying_key());

        let (mut follower, _) =
            ReplicatedLedger::open(tmp("dst"), "NO-1", LedgerConfig::default(), &resolve).unwrap();
        let range = writer.serve_range("NO-0", 0).unwrap().unwrap();
        assert_eq!(follower.ingest_range(&range, &resolve).unwrap(), 6);
        assert_eq!(follower.shard_next_seq("NO-0"), 6);
        // Redelivery is a no-op.
        assert_eq!(follower.ingest_range(&range, &resolve).unwrap(), 0);
        // Nothing further attested.
        assert!(writer.serve_range("NO-0", 6).unwrap().is_none());
        // The follower can re-serve the same range from its mirror.
        let reserved = follower.serve_range("NO-0", 0).unwrap().unwrap();
        assert_eq!(reserved, range);
    }

    #[test]
    fn bad_signature_and_unknown_key_are_refused_without_quarantine() {
        let k = key(8);
        let writer = writer_replica("badsig-src", "NO-0", &k, 2);
        let range = writer.serve_range("NO-0", 0).unwrap().unwrap();

        let resolve = |s: &str| (s == "NO-0").then(|| *k.verifying_key());
        let (mut follower, _) =
            ReplicatedLedger::open(tmp("badsig-dst"), "NO-1", LedgerConfig::default(), &resolve)
                .unwrap();

        let wrong = key(9);
        let bad_key = |s: &str| (s == "NO-0").then(|| *wrong.verifying_key());
        let err = follower.ingest_range(&range, &bad_key).unwrap_err();
        assert_eq!(err.code(), "replication");
        let err = follower.ingest_range(&range, &|_| None).unwrap_err();
        assert_eq!(err.code(), "replication");
        assert!(!follower.is_quarantined("NO-0"));
        // With the right key it still goes through afterwards.
        assert_eq!(follower.ingest_range(&range, &resolve).unwrap(), 3);
    }

    #[test]
    fn chain_conflict_quarantines_the_writer() {
        let k = key(10);
        let writer = writer_replica("conflict-src", "NO-0", &k, 3);
        let mut range = writer.serve_range("NO-0", 0).unwrap().unwrap();
        // Equivocation: a validly signed checkpoint over a different
        // chain, with a tampered payload to match the length.
        range.payloads[1] = {
            let e = Entry {
                seq: 1,
                at_ms: 101,
                record: LedgerRecord::EpochRollover { epoch: 99 },
            };
            e.try_to_wire().unwrap()
        };
        let resolve = |s: &str| (s == "NO-0").then(|| *k.verifying_key());
        let (mut follower, _) = ReplicatedLedger::open(
            tmp("conflict-dst"),
            "NO-1",
            LedgerConfig::default(),
            &resolve,
        )
        .unwrap();
        let err = follower.ingest_range(&range, &resolve).unwrap_err();
        assert_eq!(err.code(), "quarantined");
        assert!(follower.is_quarantined("NO-0"));
        // Quarantine sticks: even the honest range is now refused, and
        // the merged view excludes the writer.
        let honest = writer.serve_range("NO-0", 0).unwrap().unwrap();
        assert!(follower.ingest_range(&honest, &resolve).is_err());
        assert!(follower.merged().unwrap().is_empty());
        // Operator override lifts it.
        assert!(follower.clear_quarantine("NO-0"));
        assert_eq!(follower.ingest_range(&honest, &resolve).unwrap(), 4);
    }

    #[test]
    fn pull_round_syncs_every_writer_and_reports_refusals() {
        let (ka, kb) = (key(30), key(31));
        let resolve = |s: &str| match s {
            "NO-0" => Some(*ka.verifying_key()),
            "NO-1" => Some(*kb.verifying_key()),
            _ => None,
        };
        /// A round that appended `n` records and met no refusal.
        fn clean(round: (u64, Vec<LedgerError>), n: u64) {
            assert!(round.1.is_empty(), "refused: {:?}", round.1);
            assert_eq!(round.0, n);
        }
        // `hub` writes NO-0 and mirrors NO-1, so one pull carries both.
        let mut hub = writer_replica("pull-hub", "NO-0", &ka, 3);
        let other = writer_replica("pull-other", "NO-1", &kb, 2);
        clean(hub.pull_from(&other, &resolve), 3);

        // A puller that trusts no key for NO-1 is refused that writer,
        // hears why, and still gets the rest.
        let only_a = |s: &str| (s == "NO-0").then(|| *ka.verifying_key());
        let (mut c, _) =
            ReplicatedLedger::open(tmp("pull-c"), "NO-2", LedgerConfig::default(), &only_a)
                .unwrap();
        let (n, refused) = c.pull_from(&hub, &only_a);
        assert_eq!(n, 4);
        assert_eq!(refused.len(), 1);
        assert_eq!(refused[0].code(), "replication");
        assert_eq!((c.shard_next_seq("NO-0"), c.shard_next_seq("NO-1")), (4, 0));
        // With the key, the next round completes it; a third is a no-op.
        clean(c.pull_from(&hub, &resolve), 3);
        clean(c.pull_from(&hub, &resolve), 0);

        // A writer quarantined at the puller is skipped, not reported.
        let (mut d, _) =
            ReplicatedLedger::open(tmp("pull-d"), "NO-3", LedgerConfig::default(), &resolve)
                .unwrap();
        d.quarantined.insert("NO-1".into());
        clean(d.pull_from(&hub, &resolve), 4);
        assert_eq!(d.shard_next_seq("NO-1"), 0);
    }

    #[test]
    fn merged_view_is_writer_seq_ordered() {
        let ka = key(20);
        let kb = key(21);
        let a = writer_replica("merge-a", "NO-0", &ka, 2);
        let b = writer_replica("merge-b", "NO-1", &kb, 1);
        let resolve = |s: &str| match s {
            "NO-0" => Some(*ka.verifying_key()),
            "NO-1" => Some(*kb.verifying_key()),
            _ => None,
        };
        let (mut c, _) =
            ReplicatedLedger::open(tmp("merge-c"), "NO-2", LedgerConfig::default(), &resolve)
                .unwrap();
        // Deliver b's range before a's: order must not matter.
        let rb = b.serve_range("NO-1", 0).unwrap().unwrap();
        let ra = a.serve_range("NO-0", 0).unwrap().unwrap();
        c.ingest_range(&rb, &resolve).unwrap();
        c.ingest_range(&ra, &resolve).unwrap();
        let merged = c.merged().unwrap();
        let order: Vec<(String, u64)> = merged
            .iter()
            .map(|m| (m.writer.clone(), m.entry.seq))
            .collect();
        assert_eq!(
            order,
            vec![
                ("NO-0".into(), 0),
                ("NO-0".into(), 1),
                ("NO-0".into(), 2),
                ("NO-1".into(), 0),
                ("NO-1".into(), 1),
            ]
        );
    }

    /// Segment files of `dir` and their bytes, by name.
    fn segment_files(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "pls"))
            .map(|p| {
                (
                    p.file_name().unwrap().to_owned(),
                    std::fs::read(&p).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    /// Catch-up writes what validation staged — each payload and the chain
    /// after it — and the mirror is, file for file and byte for byte, the
    /// ledger its writer built by `append`: over segment rotations and
    /// across two attested ranges.
    #[test]
    fn an_ingested_mirror_is_the_appended_ledger_byte_for_byte() {
        let k = key(40);
        let cfg = LedgerConfig {
            segment_max_bytes: 256,
            ..LedgerConfig::default()
        };
        let resolve = |s: &str| (s == "NO-0").then(|| *k.verifying_key());
        let (mut writer, _) =
            ReplicatedLedger::open(tmp("bytes-src"), "NO-0", cfg, &|_| None).unwrap();
        let (mut follower, _) =
            ReplicatedLedger::open(tmp("bytes-dst"), "NO-1", cfg, &resolve).unwrap();
        for round in 0..2u64 {
            for e in 0..6 {
                let record = if e % 2 == 0 {
                    LedgerRecord::EpochRollover { epoch: e }
                } else {
                    LedgerRecord::RouterRevocation {
                        serial: e,
                        crl_version: round,
                    }
                };
                writer.local_mut().append(record, 100 * round + e).unwrap();
            }
            writer
                .local_mut()
                .checkpoint(&k, "NO-0", 1_000 + round)
                .unwrap();
            let from = follower.shard_next_seq("NO-0");
            let range = writer.serve_range("NO-0", from).unwrap().unwrap();
            assert_eq!(follower.ingest_range(&range, &resolve).unwrap(), 7);
        }
        let (src, dst) = (writer.local(), follower.shard("NO-0").unwrap());
        assert!(src.head().segments > 2, "the ranges cross rotations");
        assert_eq!(dst.head(), src.head());
        assert_eq!(segment_files(dst.dir()), segment_files(src.dir()));
    }

    /// Validation ends before the first write: a range refused at its last
    /// record before the checkpoint leaves the mirror empty, whether that
    /// record is not an entry's canonical encoding or the chain through it
    /// is not the one the checkpoint signed.
    #[test]
    fn a_range_refused_at_its_last_record_appends_nothing() {
        let k = key(41);
        let writer = writer_replica("late-src", "NO-0", &k, 6);
        let honest = writer.serve_range("NO-0", 0).unwrap().unwrap();
        let resolve = |s: &str| (s == "NO-0").then(|| *k.verifying_key());
        // The writer's own key attests whatever the payloads say.
        let attested = |mut payloads: Vec<Vec<u8>>| {
            let last = payloads.len() - 1;
            let chain = payloads[..last]
                .iter()
                .fold(crate::segment::genesis_chain(), |c, p| extend_chain(&c, p));
            let ck = Checkpoint::sign(&k, "NO-0", last as u64, chain, 1_000);
            payloads[last] = Entry {
                seq: last as u64,
                at_ms: 1_000,
                record: LedgerRecord::Checkpoint(ck.clone()),
            }
            .try_to_wire()
            .unwrap();
            RangeData {
                payloads,
                ck,
                ..honest.clone()
            }
        };
        let mut trailing = honest.payloads.clone();
        trailing[5].push(0);
        let mut conflicting = honest.clone();
        conflicting.payloads[5] = Entry {
            seq: 5,
            at_ms: 105,
            record: LedgerRecord::EpochRollover { epoch: 99 },
        }
        .try_to_wire()
        .unwrap();
        for (why, range, code) in [
            ("one byte past the entry", attested(trailing), "wire"),
            ("chain not the signed one", conflicting, "quarantined"),
        ] {
            let (mut follower, _) = ReplicatedLedger::open(
                tmp(&format!("late-dst-{code}")),
                "NO-1",
                LedgerConfig::default(),
                &resolve,
            )
            .unwrap();
            let err = follower.ingest_range(&range, &resolve).unwrap_err();
            assert_eq!(err.code(), code, "{why}");
            assert_eq!(follower.shard_next_seq("NO-0"), 0, "{why}");
            assert_eq!(follower.shard("NO-0").map(Ledger::len), Some(0), "{why}");
        }
    }

    #[test]
    fn rejoin_reopens_mirrors_durably() {
        let k = key(30);
        let writer = writer_replica("rejoin-src", "NO-0", &k, 4);
        let resolve = |s: &str| (s == "NO-0").then(|| *k.verifying_key());
        let dir = tmp("rejoin-dst");
        {
            let (mut f, _) =
                ReplicatedLedger::open(&dir, "NO-1", LedgerConfig::default(), &resolve).unwrap();
            let r = writer.serve_range("NO-0", 0).unwrap().unwrap();
            f.ingest_range(&r, &resolve).unwrap();
        }
        let (f, rec) =
            ReplicatedLedger::open(&dir, "NO-1", LedgerConfig::default(), &resolve).unwrap();
        assert_eq!(f.shard_next_seq("NO-0"), 5);
        assert!(rec.shards.iter().any(|(w, _)| w == "NO-0"));
        let report = verify_replica(&dir, &resolve).unwrap();
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.records(), 5);
        assert_eq!(report.checkpoints_verified(), 1);
    }
}
