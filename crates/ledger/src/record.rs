//! Ledger record types and their canonical wire encoding.
//!
//! Every accountability-relevant event in a PEACE deployment becomes one
//! [`LedgerRecord`] wrapped in an [`Entry`] (sequence number + wall-clock
//! stamp). Records carry only privacy-safe material: session transcripts
//! hold the signed payload and group signature (what NO needs for an
//! audit), never a user identity; post-audit attributions name a *group*
//! and share index, which is exactly the NO-side boundary of §IV.D.

use peace_groupsig::RevocationToken;
use peace_protocol::audit::LoggedSession;
use peace_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::checkpoint::Checkpoint;

/// The index-relevant facts of one record, extracted without reading the
/// record body.
///
/// Recovery builds its in-memory indexes from these; the body stays on
/// disk until [`get`](crate::Ledger::get) reads it. The frame CRC and the
/// hash chain still cover every byte, so a shallow scan keeps the full
/// crash-recovery and tamper-evidence guarantees. What it does not do is
/// decode the body: that happens at read time (structure, canonical point
/// encodings, revocation tokens in full), and the points of a group
/// signature are validated later still — when an audit opens the
/// signature, or when [`verify_chain`](crate::verify_chain) walks the log.
#[derive(Clone, Debug, PartialEq)]
pub enum IndexFacts {
    /// An access transcript: reporting router + canonical session-id
    /// bytes (the log key).
    Access {
        /// The reporting router.
        router: String,
        /// `SessionId::to_bytes()` of the logged session.
        session_id: Vec<u8>,
    },
    /// User/router revocations carry nothing the indexes need.
    Revocation,
    /// An epoch rollover mark.
    EpochRollover {
        /// The new epoch number.
        epoch: u64,
    },
    /// A full checkpoint (cheap to decode: no group elements).
    Checkpoint(Checkpoint),
    /// A post-audit attribution.
    Attribution {
        /// Sequence number of the attributed access record.
        session_seq: u64,
        /// The responsible user group.
        group: u32,
    },
}

/// The envelope and index facts of one entry, decoded shallowly from its
/// frame payload (see [`IndexFacts`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ShallowEntry {
    /// Ledger-wide sequence number.
    pub seq: u64,
    /// Wall-clock milliseconds when the record was appended.
    pub at_ms: u64,
    /// Coarse record classification.
    pub kind: RecordKind,
    /// What the recovery indexes need from the record body.
    pub facts: IndexFacts,
}

impl ShallowEntry {
    /// Parses the envelope and index facts from an entry payload without
    /// touching any group-element bytes. Trailing payload bytes past the
    /// facts are intentionally left unread — the frame CRC already
    /// guards them.
    pub fn parse(payload: &[u8]) -> peace_wire::Result<Self> {
        let mut r = Reader::new(payload);
        let seq = r.get_u64()?;
        let at_ms = r.get_u64()?;
        let (kind, facts) = match r.get_u8()? {
            tag::ACCESS => {
                let router = r.get_str()?;
                // SessionId encodes as its two DH-share byte strings;
                // its canonical bytes are their concatenation.
                let responder = r.get_bytes()?;
                let mut session_id = responder.to_vec();
                session_id.extend_from_slice(r.get_bytes()?);
                (
                    RecordKind::Access,
                    IndexFacts::Access { router, session_id },
                )
            }
            tag::USER_REVOCATION => (RecordKind::UserRevocation, IndexFacts::Revocation),
            tag::ROUTER_REVOCATION => (RecordKind::RouterRevocation, IndexFacts::Revocation),
            tag::EPOCH_ROLLOVER => (
                RecordKind::EpochRollover,
                IndexFacts::EpochRollover {
                    epoch: r.get_u64()?,
                },
            ),
            tag::CHECKPOINT => (
                RecordKind::Checkpoint,
                IndexFacts::Checkpoint(Checkpoint::decode(&mut r)?),
            ),
            tag::ATTRIBUTION => (
                RecordKind::Attribution,
                IndexFacts::Attribution {
                    session_seq: r.get_u64()?,
                    group: r.get_u32()?,
                },
            ),
            _ => return Err(WireError::Invalid("ledger record tag")),
        };
        Ok(Self {
            seq,
            at_ms,
            kind,
            facts,
        })
    }
}

mod tag {
    pub const ACCESS: u8 = 1;
    pub const USER_REVOCATION: u8 = 2;
    pub const ROUTER_REVOCATION: u8 = 3;
    pub const EPOCH_ROLLOVER: u8 = 4;
    pub const CHECKPOINT: u8 = 5;
    pub const ATTRIBUTION: u8 = 6;
}

/// An access transcript: which router logged the session, plus the full
/// audit material (M.2 payload + group signature).
#[derive(Clone, Debug, PartialEq)]
pub struct AccessRecord {
    /// The reporting router (`MR_k`).
    pub router: String,
    /// The logged session exactly as the router recorded it.
    pub session: LoggedSession,
}

/// The accountability events a ledger persists.
// Access dominates both the size and the frequency of real logs, so
// boxing it would put a heap allocation on the append hot path to save
// stack bytes on the rare small variants.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum LedgerRecord {
    /// A session access transcript reported by a mesh router.
    Access(AccessRecord),
    /// A member key was revoked (URL grew).
    UserRevocation {
        /// The revoked token `A_{i,j}`.
        token: RevocationToken,
        /// URL version after the revocation.
        url_version: u64,
    },
    /// A router certificate was revoked (CRL grew).
    RouterRevocation {
        /// The revoked certificate serial.
        serial: u64,
        /// CRL version after the revocation.
        crl_version: u64,
    },
    /// The system key was rotated (all member keys invalidated, URL reset).
    EpochRollover {
        /// The new epoch number.
        epoch: u64,
    },
    /// A signed integrity checkpoint (see [`Checkpoint`]).
    Checkpoint(Checkpoint),
    /// A post-audit attribution: the Open/Audit sweep matched the access
    /// transcript at `session_seq` to a group and share index. Appending
    /// these (rather than mutating anything) keeps the log append-only
    /// while enabling group-indexed queries.
    Attribution {
        /// Sequence number of the attributed [`LedgerRecord::Access`].
        session_seq: u64,
        /// The responsible user group.
        group: u32,
        /// The share slot within the group (`[i, j]`).
        slot: u32,
    },
}

/// Coarse record classification for indexes, queries, and exports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// [`LedgerRecord::Access`].
    Access,
    /// [`LedgerRecord::UserRevocation`].
    UserRevocation,
    /// [`LedgerRecord::RouterRevocation`].
    RouterRevocation,
    /// [`LedgerRecord::EpochRollover`].
    EpochRollover,
    /// [`LedgerRecord::Checkpoint`].
    Checkpoint,
    /// [`LedgerRecord::Attribution`].
    Attribution,
}

impl RecordKind {
    /// Stable lowercase name (JSON exports, CLI filters).
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::Access => "access",
            RecordKind::UserRevocation => "user-revocation",
            RecordKind::RouterRevocation => "router-revocation",
            RecordKind::EpochRollover => "epoch-rollover",
            RecordKind::Checkpoint => "checkpoint",
            RecordKind::Attribution => "attribution",
        }
    }

    /// Parses a CLI filter name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "access" => RecordKind::Access,
            "user-revocation" => RecordKind::UserRevocation,
            "router-revocation" => RecordKind::RouterRevocation,
            "epoch-rollover" => RecordKind::EpochRollover,
            "checkpoint" => RecordKind::Checkpoint,
            "attribution" => RecordKind::Attribution,
            _ => return None,
        })
    }
}

impl LedgerRecord {
    /// The record's [`RecordKind`].
    pub fn kind(&self) -> RecordKind {
        match self {
            LedgerRecord::Access(_) => RecordKind::Access,
            LedgerRecord::UserRevocation { .. } => RecordKind::UserRevocation,
            LedgerRecord::RouterRevocation { .. } => RecordKind::RouterRevocation,
            LedgerRecord::EpochRollover { .. } => RecordKind::EpochRollover,
            LedgerRecord::Checkpoint(_) => RecordKind::Checkpoint,
            LedgerRecord::Attribution { .. } => RecordKind::Attribution,
        }
    }
}

impl Encode for LedgerRecord {
    fn encode(&self, w: &mut Writer) {
        match self {
            LedgerRecord::Access(a) => {
                w.put_u8(tag::ACCESS);
                w.put_str(&a.router);
                a.session.encode(w);
            }
            LedgerRecord::UserRevocation { token, url_version } => {
                w.put_u8(tag::USER_REVOCATION);
                w.put_bytes(&token.to_bytes());
                w.put_u64(*url_version);
            }
            LedgerRecord::RouterRevocation {
                serial,
                crl_version,
            } => {
                w.put_u8(tag::ROUTER_REVOCATION);
                w.put_u64(*serial);
                w.put_u64(*crl_version);
            }
            LedgerRecord::EpochRollover { epoch } => {
                w.put_u8(tag::EPOCH_ROLLOVER);
                w.put_u64(*epoch);
            }
            LedgerRecord::Checkpoint(c) => {
                w.put_u8(tag::CHECKPOINT);
                c.encode(w);
            }
            LedgerRecord::Attribution {
                session_seq,
                group,
                slot,
            } => {
                w.put_u8(tag::ATTRIBUTION);
                w.put_u64(*session_seq);
                w.put_u32(*group);
                w.put_u32(*slot);
            }
        }
    }
}

impl Decode for LedgerRecord {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(match r.get_u8()? {
            tag::ACCESS => LedgerRecord::Access(AccessRecord {
                router: r.get_str()?,
                session: LoggedSession::decode(r)?,
            }),
            tag::USER_REVOCATION => LedgerRecord::UserRevocation {
                token: RevocationToken::from_bytes(r.get_bytes()?)
                    .ok_or(WireError::Invalid("revocation token"))?,
                url_version: r.get_u64()?,
            },
            tag::ROUTER_REVOCATION => LedgerRecord::RouterRevocation {
                serial: r.get_u64()?,
                crl_version: r.get_u64()?,
            },
            tag::EPOCH_ROLLOVER => LedgerRecord::EpochRollover {
                epoch: r.get_u64()?,
            },
            tag::CHECKPOINT => LedgerRecord::Checkpoint(Checkpoint::decode(r)?),
            tag::ATTRIBUTION => LedgerRecord::Attribution {
                session_seq: r.get_u64()?,
                group: r.get_u32()?,
                slot: r.get_u32()?,
            },
            _ => return Err(WireError::Invalid("ledger record tag")),
        })
    }
}

/// One ledger entry: a record plus its position and wall-clock stamp.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Ledger-wide sequence number (dense, starting at 0).
    pub seq: u64,
    /// Wall-clock milliseconds when the record was appended.
    pub at_ms: u64,
    /// The accountability record.
    pub record: LedgerRecord,
}

impl Entry {
    /// The same facts [`ShallowEntry::parse`] extracts from this entry's
    /// wire form, derived from the decoded record (append-path indexing).
    pub fn to_shallow(&self) -> ShallowEntry {
        let facts = match &self.record {
            LedgerRecord::Access(a) => IndexFacts::Access {
                router: a.router.clone(),
                session_id: a.session.session_id.to_bytes(),
            },
            LedgerRecord::UserRevocation { .. } | LedgerRecord::RouterRevocation { .. } => {
                IndexFacts::Revocation
            }
            LedgerRecord::EpochRollover { epoch } => IndexFacts::EpochRollover { epoch: *epoch },
            LedgerRecord::Checkpoint(ck) => IndexFacts::Checkpoint(ck.clone()),
            LedgerRecord::Attribution {
                session_seq, group, ..
            } => IndexFacts::Attribution {
                session_seq: *session_seq,
                group: *group,
            },
        };
        ShallowEntry {
            seq: self.seq,
            at_ms: self.at_ms,
            kind: self.record.kind(),
            facts,
        }
    }
}

impl Encode for Entry {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.seq);
        w.put_u64(self.at_ms);
        self.record.encode(w);
    }
}

impl Decode for Entry {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(Self {
            seq: r.get_u64()?,
            at_ms: r.get_u64()?,
            record: LedgerRecord::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peace_wire::{Decode, Encode};

    #[test]
    fn simple_records_roundtrip() {
        let records = [
            LedgerRecord::RouterRevocation {
                serial: 7,
                crl_version: 3,
            },
            LedgerRecord::EpochRollover { epoch: 2 },
            LedgerRecord::Attribution {
                session_seq: 11,
                group: 4,
                slot: 9,
            },
        ];
        for rec in records {
            let e = Entry {
                seq: 5,
                at_ms: 123,
                record: rec,
            };
            assert_eq!(Entry::from_wire(&e.to_wire()).unwrap(), e);
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut w = Writer::new();
        w.put_u64(0);
        w.put_u64(0);
        w.put_u8(99);
        assert!(Entry::from_wire(&w.into_bytes()).is_err());
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in [
            RecordKind::Access,
            RecordKind::UserRevocation,
            RecordKind::RouterRevocation,
            RecordKind::EpochRollover,
            RecordKind::Checkpoint,
            RecordKind::Attribution,
        ] {
            assert_eq!(RecordKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(RecordKind::parse("bogus"), None);
    }
}
