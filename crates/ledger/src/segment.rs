//! Segment file format: header, frames, and the one frame walker.
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
//! start, and signed [`Checkpoint`] records pin it at
//! arbitrary points, so any mutation of any byte of any payload is caught
//! when the chain is replayed.
//!
//! `walk` is the one reader of a segment's frames: recovery, the full
//! read of [`iter_all`](crate::Ledger::iter_all) and the offline
//! [`verify_chain`](crate::verify_chain) all run it, differing only in the
//! payload decoding (`Framed`: shallow index facts or the full
//! [`Entry`]) and in how much of the chain they replay (`ChainMode`). It accepts frames until the first one that
//! is short, oversized, CRC-damaged, undecodable, out-of-sequence or
//! disagrees with the replayed chain, and reports the valid prefix.
//!
//! Torn-tail rule: frames are written with a single `write_all`, so a
//! crash can only leave a partial frame (or a zero-filled stretch) at the
//! end of the live segment. A flaw is therefore a torn tail — truncated
//! on open, byte-for-byte identically every time — only if no complete
//! frame that passes its CRC and decodes starts anywhere after it.
//! Otherwise it is damage to records that were written whole, and the
//! ledger refuses to open rather than cut them away.

use peace_hash::{sha256, Sha256};
use peace_wire::Decode;

use crate::checkpoint::Checkpoint;
use crate::crc::crc32;
use crate::record::{Entry, IndexFacts, LedgerRecord, ShallowEntry};

/// Segment file magic.
pub const SEG_MAGIC: [u8; 4] = *b"PLG1";

/// Segment format version.
pub const SEG_VERSION: u16 = 1;

/// Encoded header length in bytes.
pub const SEGMENT_HEADER_LEN: usize = 4 + 2 + 8 + 8 + 32 + 4;

/// Per-frame overhead (length prefix + CRC).
pub const FRAME_OVERHEAD: usize = 8;

/// Reject records whose encoded payload exceeds this.
pub const MAX_RECORD_BYTES: u32 = 1 << 20;

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
        let (body, crc) = bytes[..SEGMENT_HEADER_LEN].split_at(SEGMENT_HEADER_LEN - 4);
        let crc = u32::from_be_bytes(crc.try_into().ok()?);
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

/// Why a walk stopped before the end of the segment bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ScanFlaw {
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

/// How [`walk`] treats the SHA-256 record chain: the per-segment plan
/// recovery decides before the (possibly parallel) fan-out.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ChainMode {
    /// Replay the chain from the segment header's `prev_chain` and pin
    /// every checkpoint record against it.
    Replay,
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

/// A payload decoding [`walk`] can check: the dense sequence number, and
/// the checkpoint (if the entry is one) that pins the replayed chain.
/// [`ShallowEntry`] serves recovery, [`Entry`] the full readers.
pub(crate) trait Framed: Sized {
    /// Decodes one frame payload.
    fn parse(payload: &[u8]) -> peace_wire::Result<Self>;
    /// The entry's sequence number.
    fn seq(&self) -> u64;
    /// The checkpoint the entry carries, if it is one.
    fn checkpoint(&self) -> Option<&Checkpoint>;
}

impl Framed for ShallowEntry {
    fn parse(payload: &[u8]) -> peace_wire::Result<Self> {
        ShallowEntry::parse(payload)
    }
    fn seq(&self) -> u64 {
        self.seq
    }
    fn checkpoint(&self) -> Option<&Checkpoint> {
        match &self.facts {
            IndexFacts::Checkpoint(ck) => Some(ck),
            _ => None,
        }
    }
}

impl Framed for Entry {
    fn parse(payload: &[u8]) -> peace_wire::Result<Self> {
        Entry::from_wire(payload)
    }
    fn seq(&self) -> u64 {
        self.seq
    }
    fn checkpoint(&self) -> Option<&Checkpoint> {
        match &self.record {
            LedgerRecord::Checkpoint(ck) => Some(ck),
            _ => None,
        }
    }
}

/// One accepted entry plus its frame location.
pub(crate) struct Walked<E> {
    /// The decoded entry.
    pub entry: E,
    /// Byte offset of the frame (its length prefix) within the segment.
    pub offset: usize,
    /// Total frame length including the 8-byte overhead.
    pub frame_len: usize,
}

/// The outcome of [`walk`].
pub(crate) struct Walk<E> {
    /// Entries accepted, in order.
    pub entries: Vec<Walked<E>>,
    /// Byte length of the valid prefix (header included).
    pub valid_len: usize,
    /// The running chain value after the last accepted entry; only
    /// meaningful when `chain_live` is true.
    pub chain: [u8; 32],
    /// Whether `chain` was actually replayed (always for
    /// [`ChainMode::Replay`]; for [`ChainMode::Resume`] only once the
    /// resume frame was reached; never for [`ChainMode::Skip`]).
    pub chain_live: bool,
    /// Why the walk stopped early, if it did.
    pub flaw: Option<ScanFlaw>,
    /// Whether a complete frame that passes its CRC and decodes starts
    /// somewhere after the flaw. A crash only tears the end of the file,
    /// so such a flaw is no torn tail.
    pub valid_after: bool,
}

/// The payload of the frame at `pos`, if the frame is complete, its
/// length within [`MAX_RECORD_BYTES`] and its CRC good.
fn frame_at(bytes: &[u8], pos: usize) -> Result<&[u8], ScanFlaw> {
    let rest = &bytes[pos..];
    if rest.len() < FRAME_OVERHEAD {
        return Err(ScanFlaw::TornFrame);
    }
    let word = |i: usize| u32::from_be_bytes([rest[i], rest[i + 1], rest[i + 2], rest[i + 3]]);
    let len = word(0) as usize;
    if len > MAX_RECORD_BYTES as usize {
        return Err(ScanFlaw::Oversized);
    }
    let Some(payload) = rest.get(FRAME_OVERHEAD..FRAME_OVERHEAD + len) else {
        return Err(ScanFlaw::TornFrame);
    };
    if crc32(payload) != word(4) {
        return Err(ScanFlaw::CrcMismatch);
    }
    Ok(payload)
}

/// The one frame walker: checks the frames of a segment (`bytes` holds
/// the whole file, `header` its parsed header) for length, CRC, decoding
/// as `E` and dense sequence numbers, replays the SHA-256 chain as `mode`
/// says and pins every checkpoint met on the replayed stretch. It stops
/// at the first flaw and reports the valid prefix, and whether anything
/// valid follows the flaw (see [`Walk::valid_after`]).
pub(crate) fn walk<E: Framed>(bytes: &[u8], header: &SegmentHeader, mode: ChainMode) -> Walk<E> {
    let (mut live, mut chain, resume_at) = match mode {
        ChainMode::Replay => (true, header.prev_chain, None),
        ChainMode::Skip => (false, [0u8; 32], None),
        ChainMode::Resume { offset, chain } => (false, chain, Some(offset)),
    };
    let mut entries = Vec::new();
    let mut pos = SEGMENT_HEADER_LEN;
    let flaw = loop {
        if pos >= bytes.len() {
            break None;
        }
        let payload = match frame_at(bytes, pos) {
            Ok(payload) => payload,
            Err(flaw) => break Some(flaw),
        };
        let Ok(entry) = E::parse(payload) else {
            break Some(ScanFlaw::Undecodable);
        };
        let seq = header.base_seq + entries.len() as u64;
        if entry.seq() != seq {
            break Some(ScanFlaw::SequenceBreak);
        }
        if resume_at == Some(pos) {
            // `chain` already holds the checkpoint's attested value; the
            // pinning check below verifies the frame really is that
            // checkpoint.
            live = true;
        }
        if live {
            // A checkpoint at seq S must attest to exactly the chain state
            // reached after the S records before it.
            if entry
                .checkpoint()
                .is_some_and(|ck| ck.seq != seq || ck.chain != chain)
            {
                break Some(ScanFlaw::CheckpointMismatch);
            }
            chain = extend_chain(&chain, payload);
        }
        let frame_len = FRAME_OVERHEAD + payload.len();
        entries.push(Walked {
            entry,
            offset: pos,
            frame_len,
        });
        pos += frame_len;
    };
    let valid_after = flaw.is_some()
        && (pos + 1..bytes.len()).any(|at| frame_at(bytes, at).is_ok_and(|p| E::parse(p).is_ok()));
    Walk {
        entries,
        valid_len: pos,
        chain,
        chain_live: live,
        flaw,
        valid_after,
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

    /// The three chain plans over a segment holding no checkpoint: full
    /// replay, no hashing, and a resume seeded at the first frame with the
    /// header's chain (which must replay exactly like `Replay`).
    fn modes() -> [ChainMode; 3] {
        [
            ChainMode::Replay,
            ChainMode::Skip,
            ChainMode::Resume {
                offset: SEGMENT_HEADER_LEN,
                chain: genesis_chain(),
            },
        ]
    }

    fn walk_all(bytes: &[u8], mode: ChainMode) -> Walk<Entry> {
        let header = SegmentHeader::parse(bytes).unwrap();
        walk(bytes, &header, mode)
    }

    #[test]
    fn clean_scan_accepts_everything() {
        let (bytes, chain) = build_segment(5);
        for mode in modes() {
            let res = walk_all(&bytes, mode);
            assert_eq!(res.entries.len(), 5);
            assert_eq!(res.valid_len, bytes.len());
            if res.chain_live {
                assert_eq!(res.chain, chain);
            } else {
                assert!(matches!(mode, ChainMode::Skip));
            }
            assert_eq!(res.flaw, None);
        }
    }

    #[test]
    fn torn_tail_is_skipped_at_every_truncation_point() {
        let (bytes, _) = build_segment(3);
        for mode in modes() {
            let res = walk_all(&bytes, mode);
            let frame_ends: Vec<usize> =
                res.entries.iter().map(|e| e.offset + e.frame_len).collect();
            for cut in SEGMENT_HEADER_LEN..bytes.len() {
                let r = walk_all(&bytes[..cut], mode);
                let expect = frame_ends.iter().filter(|&&b| b <= cut).count();
                assert_eq!(r.entries.len(), expect, "cut at {cut}");
                // A cut at the bare header or on a frame end is clean;
                // anything else is a torn frame.
                if cut == SEGMENT_HEADER_LEN || frame_ends.contains(&cut) {
                    assert_eq!(r.flaw, None, "cut at {cut}");
                } else {
                    assert_eq!(r.flaw, Some(ScanFlaw::TornFrame), "cut at {cut}");
                }
            }
        }
    }

    #[test]
    fn crc_damage_stops_the_scan() {
        for mode in modes() {
            let (mut bytes, _) = build_segment(3);
            // Flip a payload byte of the second frame.
            let res = walk_all(&bytes, mode);
            let second = res.entries[1].offset + FRAME_OVERHEAD;
            bytes[second] ^= 0x40;
            let r = walk_all(&bytes, mode);
            assert_eq!(r.entries.len(), 1);
            assert_eq!(r.flaw, Some(ScanFlaw::CrcMismatch));
        }
    }

    #[test]
    fn oversized_length_stops_the_scan() {
        for mode in modes() {
            let (mut bytes, _) = build_segment(2);
            let res = walk_all(&bytes, mode);
            let first = res.entries[0].offset;
            bytes[first] = 0xFF; // claimed length now huge
            let r = walk_all(&bytes, mode);
            assert_eq!(r.entries.len(), 0);
            assert_eq!(r.flaw, Some(ScanFlaw::Oversized));
        }
    }

    #[test]
    fn only_a_flaw_with_nothing_whole_after_it_is_a_torn_tail() {
        let (bytes, _) = build_segment(3);
        let frames = walk_all(&bytes, ChainMode::Replay).entries;
        for mode in modes() {
            // Damage in the first or second frame: a whole frame follows.
            for victim in &frames[..2] {
                let mut m = bytes.clone();
                m[victim.offset + FRAME_OVERHEAD] ^= 0x40;
                let r = walk_all(&m, mode);
                assert_eq!(r.flaw, Some(ScanFlaw::CrcMismatch));
                assert!(r.valid_after, "flaw at {}", victim.offset);
            }
            // Damage in the last frame, a cut, or a zero-filled stretch
            // (a zero frame passes its CRC but does not decode): nothing
            // whole follows.
            let mut last = bytes.clone();
            last[frames[2].offset + FRAME_OVERHEAD] ^= 0x40;
            let mut zeros = bytes.clone();
            zeros.extend_from_slice(&[0u8; 64]);
            for (m, flaw) in [
                (last, ScanFlaw::CrcMismatch),
                (bytes[..bytes.len() - 1].to_vec(), ScanFlaw::TornFrame),
                (zeros, ScanFlaw::Undecodable),
            ] {
                let r = walk_all(&m, mode);
                assert_eq!(r.flaw, Some(flaw));
                assert!(!r.valid_after, "{flaw:?}");
            }
        }
    }
}
