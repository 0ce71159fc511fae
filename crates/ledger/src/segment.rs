//! Segment file format: header, frames, and the recovery scanner.
//!
//! ```text
//! segment  := header frame*
//! header   := magic("PLG1") version:u16 base_seq:u64 created_at:u64
//!             prev_chain:[32] header_crc:u32
//! frame    := len:u32 payload_crc:u32 payload[len]
//! payload  := Entry wire encoding (seq, at_ms, record)
//! ```
//!
//! The running chain is `chainᵢ = SHA-256(chainᵢ₋₁ ‖ payloadᵢ)`; it is not
//! stored per frame — each segment header pins the chain value at its
//! start, and signed [`Checkpoint`](crate::Checkpoint) records pin it at
//! arbitrary points, so any mutation of any byte of any payload is caught
//! when the chain is replayed.
//!
//! The scanner implements crash recovery: it accepts frames until the
//! first one that is short, oversized, CRC-damaged, undecodable, or
//! out-of-sequence, and reports the byte length of the valid prefix. A
//! torn tail — the only damage a crash can cause, because frames are
//! written with a single `write_all` — is therefore skipped
//! deterministically, byte-for-byte identically on every open.

use peace_hash::{sha256, Sha256};
use peace_wire::Decode;

use crate::crc::crc32;
use crate::record::{Entry, IndexFacts, ShallowEntry};

/// Segment file magic.
pub const SEG_MAGIC: [u8; 4] = *b"PLG1";

/// Segment format version.
pub const SEG_VERSION: u16 = 1;

/// Encoded header length in bytes.
pub const SEGMENT_HEADER_LEN: usize = 4 + 2 + 8 + 8 + 32 + 4;

/// Per-frame overhead (length prefix + CRC).
pub const FRAME_OVERHEAD: usize = 8;

/// The chain value before the first record of a fresh ledger.
pub fn genesis_chain() -> [u8; 32] {
    sha256(b"PEACE-LEDGER-GENESIS-v1")
}

/// Extends the running chain with one frame payload.
pub fn extend_chain(chain: &[u8; 32], payload: &[u8]) -> [u8; 32] {
    Sha256::new().chain(chain).chain(payload).finalize()
}

/// A parsed segment header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Sequence number of the first record in this segment.
    pub base_seq: u64,
    /// Wall-clock milliseconds when the segment was created.
    pub created_at: u64,
    /// The running chain value at the start of this segment.
    pub prev_chain: [u8; 32],
}

impl SegmentHeader {
    /// Serializes the header (including its CRC).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SEGMENT_HEADER_LEN);
        out.extend_from_slice(&SEG_MAGIC);
        out.extend_from_slice(&SEG_VERSION.to_be_bytes());
        out.extend_from_slice(&self.base_seq.to_be_bytes());
        out.extend_from_slice(&self.created_at.to_be_bytes());
        out.extend_from_slice(&self.prev_chain);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_be_bytes());
        out
    }

    /// Parses and validates a header from the start of a segment file.
    pub fn parse(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < SEGMENT_HEADER_LEN {
            return None;
        }
        let body = &bytes[..SEGMENT_HEADER_LEN - 4];
        let crc = u32::from_be_bytes([
            bytes[SEGMENT_HEADER_LEN - 4],
            bytes[SEGMENT_HEADER_LEN - 3],
            bytes[SEGMENT_HEADER_LEN - 2],
            bytes[SEGMENT_HEADER_LEN - 1],
        ]);
        if crc32(body) != crc || body[..4] != SEG_MAGIC {
            return None;
        }
        if u16::from_be_bytes([body[4], body[5]]) != SEG_VERSION {
            return None;
        }
        let u64_at = |off: usize| {
            let mut a = [0u8; 8];
            a.copy_from_slice(&body[off..off + 8]);
            u64::from_be_bytes(a)
        };
        let base_seq = u64_at(6);
        let created_at = u64_at(14);
        let mut prev_chain = [0u8; 32];
        prev_chain.copy_from_slice(&body[22..54]);
        Some(Self {
            base_seq,
            created_at,
            prev_chain,
        })
    }
}

/// Frames one entry payload: `len ‖ crc ‖ payload`, produced as a single
/// buffer so the append path issues exactly one `write_all` — an abort
/// mid-write can only leave a *trailing* partial frame, never an interior
/// hole.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Why a scan stopped before the end of the segment bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanFlaw {
    /// The remaining bytes are shorter than a frame header, or the frame's
    /// claimed length runs past the end of the file (torn write).
    TornFrame,
    /// The frame's payload CRC did not match (torn write or bit rot).
    CrcMismatch,
    /// The payload passed its CRC but failed to decode as an [`Entry`].
    Undecodable,
    /// The entry decoded but its sequence number broke the dense order.
    SequenceBreak,
    /// The frame's claimed length exceeds the configured record bound.
    Oversized,
    /// A checkpoint record disagrees with the replayed chain state.
    CheckpointMismatch,
}

impl ScanFlaw {
    /// Human-readable description.
    pub fn describe(self) -> &'static str {
        match self {
            ScanFlaw::TornFrame => "torn frame (short header or truncated payload)",
            ScanFlaw::CrcMismatch => "frame CRC mismatch",
            ScanFlaw::Undecodable => "payload undecodable as a ledger entry",
            ScanFlaw::SequenceBreak => "entry sequence number out of order",
            ScanFlaw::Oversized => "frame exceeds the record size bound",
            ScanFlaw::CheckpointMismatch => "checkpoint disagrees with replayed chain",
        }
    }
}

/// One accepted entry plus its frame location within the segment.
#[derive(Clone, Debug)]
pub struct ScannedEntry {
    /// The decoded entry.
    pub entry: Entry,
    /// Byte offset of the frame (its length prefix) within the segment.
    pub offset: usize,
    /// Total frame length including the 8-byte overhead.
    pub frame_len: usize,
}

/// The outcome of scanning a segment's frame region.
#[derive(Clone, Debug)]
pub struct ScanResult {
    /// Entries accepted, in order.
    pub entries: Vec<ScannedEntry>,
    /// Byte length of the valid prefix (header included).
    pub valid_len: usize,
    /// The running chain value after the last accepted entry.
    pub chain: [u8; 32],
    /// Why the scan stopped early, if it did.
    pub flaw: Option<ScanFlaw>,
}

/// Scans the frames of one segment (bytes *after* the header), starting
/// from `base_seq` / `prev_chain`, accepting at most `max_record` payload
/// bytes per frame. Checkpoint records are structurally validated against
/// the replayed chain as they are encountered (their signatures are
/// checked separately, where keys are available).
pub fn scan(
    bytes: &[u8],
    header_len: usize,
    base_seq: u64,
    prev_chain: [u8; 32],
    max_record: u32,
) -> ScanResult {
    let mut entries = Vec::new();
    let mut chain = prev_chain;
    let mut seq = base_seq;
    let mut pos = header_len;
    let mut flaw = None;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_OVERHEAD {
            flaw = Some(ScanFlaw::TornFrame);
            break;
        }
        let len = u32::from_be_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        if len > max_record as usize {
            flaw = Some(ScanFlaw::Oversized);
            break;
        }
        if remaining < FRAME_OVERHEAD + len {
            flaw = Some(ScanFlaw::TornFrame);
            break;
        }
        let crc = u32::from_be_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let payload = &bytes[pos + FRAME_OVERHEAD..pos + FRAME_OVERHEAD + len];
        if crc32(payload) != crc {
            flaw = Some(ScanFlaw::CrcMismatch);
            break;
        }
        let Ok(entry) = Entry::from_wire(payload) else {
            flaw = Some(ScanFlaw::Undecodable);
            break;
        };
        if entry.seq != seq {
            flaw = Some(ScanFlaw::SequenceBreak);
            break;
        }
        if let crate::record::LedgerRecord::Checkpoint(ck) = &entry.record {
            // A checkpoint at seq S must attest to exactly the chain state
            // reached after the S records before it.
            if ck.seq != seq || ck.chain != chain {
                flaw = Some(ScanFlaw::CheckpointMismatch);
                break;
            }
        }
        chain = extend_chain(&chain, payload);
        entries.push(ScannedEntry {
            entry,
            offset: pos,
            frame_len: FRAME_OVERHEAD + len,
        });
        seq += 1;
        pos += FRAME_OVERHEAD + len;
    }
    ScanResult {
        entries,
        valid_len: pos,
        chain,
        flaw,
    }
}

/// How [`scan_shallow`] treats the SHA-256 record chain.
#[derive(Clone, Copy, Debug)]
pub enum ChainMode {
    /// Replay the chain from this seed (the segment header's
    /// `prev_chain`) and pin every checkpoint record against it.
    Replay([u8; 32]),
    /// Skip hashing entirely — a later ECDSA-signed checkpoint attests
    /// this segment. The result's `chain` is dead (`chain_live` false).
    Skip,
    /// Skip hashing until the frame at `offset`, which must hold the
    /// signed checkpoint attesting the skipped prefix; seed the chain
    /// with the checkpoint's attested value there and replay onward.
    Resume {
        /// Byte offset (within the segment) of the checkpoint frame.
        offset: usize,
        /// The checkpoint's attested chain value at that frame.
        chain: [u8; 32],
    },
}

/// One shallowly-decoded entry plus its frame location.
#[derive(Clone, Debug)]
pub struct ShallowScanned {
    /// Envelope + index facts (no group elements decoded).
    pub entry: ShallowEntry,
    /// Byte offset of the frame (its length prefix) within the segment.
    pub offset: usize,
    /// Total frame length including the 8-byte overhead.
    pub frame_len: usize,
}

/// The outcome of a shallow scan.
#[derive(Clone, Debug)]
pub struct ShallowScanResult {
    /// Entries accepted, in order.
    pub entries: Vec<ShallowScanned>,
    /// Byte length of the valid prefix (header included).
    pub valid_len: usize,
    /// The running chain value after the last accepted entry; only
    /// meaningful when `chain_live` is true.
    pub chain: [u8; 32],
    /// Whether `chain` was actually replayed (always for
    /// [`ChainMode::Replay`]; for [`ChainMode::Resume`] only once the
    /// resume frame was reached; never for [`ChainMode::Skip`]).
    pub chain_live: bool,
    /// Why the scan stopped early, if it did.
    pub flaw: Option<ScanFlaw>,
}

/// The recovery scanner: identical frame validation to [`scan`] (length,
/// CRC, dense sequence numbers, torn-tail detection) but decodes only the
/// entry envelope and index facts — no curve points — and can resume the
/// SHA-256 chain replay from a signed checkpoint instead of the segment
/// head (see [`ChainMode`]).
pub fn scan_shallow(
    bytes: &[u8],
    header_len: usize,
    base_seq: u64,
    mode: ChainMode,
    max_record: u32,
) -> ShallowScanResult {
    let mut entries = Vec::new();
    let (mut live, mut chain, resume_at) = match mode {
        ChainMode::Replay(c) => (true, c, None),
        ChainMode::Skip => (false, [0u8; 32], None),
        ChainMode::Resume { offset, chain } => (false, chain, Some(offset)),
    };
    let mut seq = base_seq;
    let mut pos = header_len;
    let mut flaw = None;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_OVERHEAD {
            flaw = Some(ScanFlaw::TornFrame);
            break;
        }
        let len = u32::from_be_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        if len > max_record as usize {
            flaw = Some(ScanFlaw::Oversized);
            break;
        }
        if remaining < FRAME_OVERHEAD + len {
            flaw = Some(ScanFlaw::TornFrame);
            break;
        }
        let crc = u32::from_be_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let payload = &bytes[pos + FRAME_OVERHEAD..pos + FRAME_OVERHEAD + len];
        if crc32(payload) != crc {
            flaw = Some(ScanFlaw::CrcMismatch);
            break;
        }
        let Ok(entry) = ShallowEntry::parse(payload) else {
            flaw = Some(ScanFlaw::Undecodable);
            break;
        };
        if entry.seq != seq {
            flaw = Some(ScanFlaw::SequenceBreak);
            break;
        }
        if resume_at == Some(pos) {
            // `chain` already holds the checkpoint's attested value; the
            // pinning check below verifies the frame really is that
            // checkpoint.
            live = true;
        }
        if live {
            if let IndexFacts::Checkpoint(ck) = &entry.facts {
                if ck.seq != seq || ck.chain != chain {
                    flaw = Some(ScanFlaw::CheckpointMismatch);
                    break;
                }
            }
            chain = extend_chain(&chain, payload);
        }
        entries.push(ShallowScanned {
            entry,
            offset: pos,
            frame_len: FRAME_OVERHEAD + len,
        });
        seq += 1;
        pos += FRAME_OVERHEAD + len;
    }
    ShallowScanResult {
        entries,
        valid_len: pos,
        chain,
        chain_live: live,
        flaw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LedgerRecord;
    use peace_wire::Encode;

    fn entry(seq: u64) -> Entry {
        Entry {
            seq,
            at_ms: 100 + seq,
            record: LedgerRecord::EpochRollover { epoch: seq },
        }
    }

    #[test]
    fn the_chain_is_the_hash_of_chain_then_payload() {
        // Streamed, never copied — on either side of a block boundary.
        let chain = genesis_chain();
        for len in [0usize, 1, 31, 32, 33, 95, 96, 97, 543] {
            let payload = vec![0xA5u8; len];
            let joined = [&chain[..], &payload].concat();
            assert_eq!(extend_chain(&chain, &payload), sha256(&joined), "{len}");
        }
    }

    fn build_segment(n: u64) -> (Vec<u8>, [u8; 32]) {
        let header = SegmentHeader {
            base_seq: 0,
            created_at: 1,
            prev_chain: genesis_chain(),
        };
        let mut bytes = header.to_bytes();
        let mut chain = genesis_chain();
        for s in 0..n {
            let payload = entry(s).to_wire();
            chain = extend_chain(&chain, &payload);
            bytes.extend_from_slice(&frame(&payload));
        }
        (bytes, chain)
    }

    #[test]
    fn header_roundtrip_and_damage() {
        let h = SegmentHeader {
            base_seq: 42,
            created_at: 777,
            prev_chain: [9u8; 32],
        };
        let bytes = h.to_bytes();
        assert_eq!(bytes.len(), SEGMENT_HEADER_LEN);
        assert_eq!(SegmentHeader::parse(&bytes), Some(h));
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 1;
            assert_eq!(SegmentHeader::parse(&m), None, "byte {i} flip undetected");
        }
        assert_eq!(SegmentHeader::parse(&bytes[..bytes.len() - 1]), None);
    }

    #[test]
    fn clean_scan_accepts_everything() {
        let (bytes, chain) = build_segment(5);
        let res = scan(&bytes, SEGMENT_HEADER_LEN, 0, genesis_chain(), 1 << 20);
        assert_eq!(res.entries.len(), 5);
        assert_eq!(res.valid_len, bytes.len());
        assert_eq!(res.chain, chain);
        assert_eq!(res.flaw, None);
    }

    #[test]
    fn torn_tail_is_skipped_at_every_truncation_point() {
        let (bytes, _) = build_segment(3);
        let res = scan(&bytes, SEGMENT_HEADER_LEN, 0, genesis_chain(), 1 << 20);
        let frame_ends: Vec<usize> = res.entries.iter().map(|e| e.offset + e.frame_len).collect();
        for cut in SEGMENT_HEADER_LEN..bytes.len() {
            let r = scan(
                &bytes[..cut],
                SEGMENT_HEADER_LEN,
                0,
                genesis_chain(),
                1 << 20,
            );
            let expect = frame_ends.iter().filter(|&&b| b <= cut).count();
            assert_eq!(r.entries.len(), expect, "cut at {cut}");
            // A cut at the bare header or on a frame end is clean; anything
            // else is a torn frame.
            if cut == SEGMENT_HEADER_LEN || frame_ends.contains(&cut) {
                assert_eq!(r.flaw, None, "cut at {cut}");
            } else {
                assert_eq!(r.flaw, Some(ScanFlaw::TornFrame), "cut at {cut}");
            }
        }
    }

    #[test]
    fn crc_damage_stops_the_scan() {
        let (mut bytes, _) = build_segment(3);
        // Flip a payload byte of the second frame.
        let res = scan(&bytes, SEGMENT_HEADER_LEN, 0, genesis_chain(), 1 << 20);
        let second = res.entries[1].offset + FRAME_OVERHEAD;
        bytes[second] ^= 0x40;
        let r = scan(&bytes, SEGMENT_HEADER_LEN, 0, genesis_chain(), 1 << 20);
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.flaw, Some(ScanFlaw::CrcMismatch));
    }

    #[test]
    fn oversized_length_stops_the_scan() {
        let (mut bytes, _) = build_segment(2);
        let res = scan(&bytes, SEGMENT_HEADER_LEN, 0, genesis_chain(), 1 << 20);
        let first = res.entries[0].offset;
        bytes[first] = 0xFF; // claimed length now huge
        let r = scan(&bytes, SEGMENT_HEADER_LEN, 0, genesis_chain(), 1 << 20);
        assert_eq!(r.entries.len(), 0);
        assert_eq!(r.flaw, Some(ScanFlaw::Oversized));
    }
}
