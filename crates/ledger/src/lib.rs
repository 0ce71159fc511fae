//! peace-ledger: the durable accountability layer of PEACE.
//!
//! PEACE's second pillar is *accountability*: the network operator must be
//! able to audit any past session down to the responsible user group
//! (§IV.D), hours or days after the fact, even across daemon crashes. This
//! crate provides the persistent evidence layer that makes that possible:
//!
//! * **append-only segment log** ([`store::Ledger`]) — accountability
//!   records (access transcripts, user/router revocations, epoch
//!   rollovers, audit attributions) in CRC-guarded frames, hash-chained
//!   record to record and segment to segment;
//! * **crash recovery** — one frame walker ([`segment`]) reads every
//!   segment for recovery, full reads and offline verification. On open, a
//!   torn tail (a half-written or zero-filled end of the live segment with
//!   no whole frame after the flaw) is truncated away deterministically;
//!   any other flaw refuses to open and leaves the files as they were;
//! * **signed checkpoints** ([`checkpoint::Checkpoint`]) — periodic ECDSA
//!   signatures over `(seq, chain)` by NO or a router key, so an auditor
//!   can verify ledger integrity fully offline ([`store::verify_chain`]);
//! * **segment rotation + compaction** — old segments can be dropped once
//!   a later signed checkpoint anchors the retained suffix;
//! * **indexed queries** — by epoch, router, time range, and (after an
//!   audit sweep has appended attribution records) by user group;
//! * **batch Open/Audit** ([`sweep`]) — replays a time range through
//!   `open_batch`: records readied eight at a time in IFMA lanes, tokens
//!   evaluated until each record's row matches.
//!
//! The NO-only versus NO+GM boundary of the paper is preserved: ledger
//! records never contain user identities — an audit sweep attributes a
//! session to a *group* (and a share index); mapping the share to a user
//! still requires the group manager's receipts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use core::fmt;

pub mod checkpoint;
pub mod crc;
pub mod record;
pub mod replica;
pub mod segment;
pub mod store;
pub mod sweep;
pub mod timing;

pub use checkpoint::Checkpoint;
pub use record::{AccessRecord, Entry, IndexFacts, LedgerRecord, RecordKind, ShallowEntry};
pub use replica::{
    valid_writer_id, verify_replica, MergedEntry, RangeData, ReplicaRecovery, ReplicaVerifyReport,
    ReplicatedLedger, WriterDigest, MAX_RANGE_BYTES,
};
pub use segment::{SegmentHeader, FRAME_OVERHEAD, SEGMENT_HEADER_LEN};
pub use store::{
    verify_chain, ChainReport, CompactReport, Ledger, LedgerConfig, LedgerHead, LedgerQuery,
    RecoveryReport, SyncPolicy,
};
pub use sweep::{attribute_sweep, audit_sweep, SweepOutcome};

/// Errors surfaced by the ledger.
#[derive(Debug)]
pub enum LedgerError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A record failed to encode or decode.
    Wire(peace_wire::WireError),
    /// Structural damage before the tail of the last segment — a crash can
    /// only tear the end of the log, so mid-ledger damage means tampering
    /// or media corruption and is never silently repaired.
    Corrupt {
        /// The segment file (base sequence number) holding the damage.
        segment: u64,
        /// Byte offset of the first invalid frame within that segment.
        offset: u64,
        /// What the scanner tripped over.
        what: &'static str,
    },
    /// Segment files do not chain together (header/prev-chain mismatch).
    ChainBroken {
        /// The segment whose header disagrees with its predecessor.
        segment: u64,
    },
    /// A checkpoint record does not match the chain state at its position,
    /// or its signature failed verification.
    CheckpointInvalid {
        /// Sequence number of the offending checkpoint record.
        seq: u64,
        /// Why it was rejected.
        what: &'static str,
    },
    /// A record exceeded the configured maximum encoded size.
    RecordTooLarge {
        /// The encoded length that was rejected.
        len: usize,
    },
    /// The requested compaction point is not anchored by a later signed
    /// checkpoint, or would cut into the live segment.
    CannotCompact(&'static str),
    /// A query or sweep referenced a sequence number outside the ledger.
    NoSuchRecord(u64),
    /// A replication range was refused without implicating the writer:
    /// unknown writer, sequence gap, bad signature, non-canonical
    /// encoding, oversized range, or a missing trusted key. Retrying
    /// after state changes (a key arrives, the gap fills) can succeed.
    Replication {
        /// The shard writer the refused range belonged to.
        writer: String,
        /// Why it was refused.
        what: &'static str,
    },
    /// A replication range carried equivocation evidence — a replayed
    /// chain conflicting with a validly signed checkpoint, or overlap
    /// bytes diverging from the mirrored history. The writer's shard is
    /// quarantined and excluded from the merged view until an operator
    /// clears it.
    Quarantined {
        /// The quarantined shard writer.
        writer: String,
        /// The conflict found.
        what: &'static str,
    },
}

impl LedgerError {
    /// Stable machine-readable identifier for this failure class (metrics
    /// key / event code; must never change once released).
    pub fn code(&self) -> &'static str {
        match self {
            LedgerError::Io(_) => "io",
            LedgerError::Wire(_) => "wire",
            LedgerError::Corrupt { .. } => "corrupt",
            LedgerError::ChainBroken { .. } => "chain_broken",
            LedgerError::CheckpointInvalid { .. } => "checkpoint_invalid",
            LedgerError::RecordTooLarge { .. } => "record_too_large",
            LedgerError::CannotCompact(_) => "cannot_compact",
            LedgerError::NoSuchRecord(_) => "no_such_record",
            LedgerError::Replication { .. } => "replication",
            LedgerError::Quarantined { .. } => "quarantined",
        }
    }
}

impl peace_protocol::Transient for LedgerError {
    /// Only I/O failures are worth retrying: the filesystem can recover
    /// (disk pressure, interrupted syscall). Everything else is either
    /// structural damage (corrupt, chain broken, bad checkpoint) that a
    /// retry would faithfully re-detect, or a caller error.
    fn is_transient(&self) -> bool {
        matches!(self, LedgerError::Io(_))
    }
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Io(e) => write!(f, "ledger I/O error: {e}"),
            LedgerError::Wire(e) => write!(f, "ledger record codec error: {e}"),
            LedgerError::Corrupt {
                segment,
                offset,
                what,
            } => write!(
                f,
                "ledger corrupt: segment {segment:#x} offset {offset}: {what}"
            ),
            LedgerError::ChainBroken { segment } => {
                write!(f, "ledger chain broken at segment {segment:#x}")
            }
            LedgerError::CheckpointInvalid { seq, what } => {
                write!(f, "checkpoint at seq {seq} invalid: {what}")
            }
            LedgerError::RecordTooLarge { len } => {
                write!(f, "record of {len} encoded bytes exceeds the frame bound")
            }
            LedgerError::CannotCompact(why) => write!(f, "cannot compact: {why}"),
            LedgerError::NoSuchRecord(seq) => write!(f, "no ledger record with seq {seq}"),
            LedgerError::Replication { writer, what } => {
                write!(f, "replication refused for writer {writer:?}: {what}")
            }
            LedgerError::Quarantined { writer, what } => {
                write!(f, "writer {writer:?} quarantined: {what}")
            }
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<std::io::Error> for LedgerError {
    fn from(e: std::io::Error) -> Self {
        LedgerError::Io(e)
    }
}

impl From<peace_wire::WireError> for LedgerError {
    fn from(e: peace_wire::WireError) -> Self {
        LedgerError::Wire(e)
    }
}

/// Result alias for ledger operations.
pub type Result<T> = core::result::Result<T, LedgerError>;
