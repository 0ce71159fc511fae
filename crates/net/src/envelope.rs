//! The typed message envelope carried inside every frame.
//!
//! An envelope is `magic ‖ version ‖ kind ‖ body`, all encoded with the
//! deterministic `peace-wire` codec; the bodies reuse the canonical
//! encodings of the protocol messages themselves (M.1–M.3 travel on the
//! wire byte-identical to how they are hashed and signed). Unknown magic,
//! versions, or kinds are clean decode errors, never panics.

use peace_ledger::{RangeData, WriterDigest};
use peace_protocol::audit::LoggedSession;
use peace_protocol::{AccessConfirm, AccessRequest, Beacon, SignedCrl, SignedUrl, UrlRestamp};
use peace_revoke::UrlDelta;
use peace_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::error::{NetError, Result};
use crate::metrics::NetMetrics;

/// Envelope magic: "PCN" + format revision.
pub const MAGIC: [u8; 4] = *b"PCN1";

/// Envelope version (bumped on incompatible envelope changes).
pub const VERSION: u16 = 1;

/// Machine-readable codes carried by [`NodeMessage::Reject`].
pub mod reject_code {
    /// The daemon is at capacity; try again later.
    pub const BUSY: u16 = 1;
    /// The request failed to decode or was not valid for this role.
    pub const MALFORMED: u16 = 2;
    /// Authentication failed (bad signature, stale timestamp, …).
    pub const AUTH_FAILED: u16 = 3;
    /// The signer's group private key is on the current URL.
    pub const REVOKED: u16 = 4;
    /// No established session exists for data traffic on this connection.
    pub const NO_SESSION: u16 = 5;
    /// An internal daemon error (should not happen; counted).
    pub const INTERNAL: u16 = 6;
}

mod kind {
    pub const GET_BULLETIN: u8 = 1;
    pub const BULLETIN: u8 = 2;
    pub const GET_BEACON: u8 = 3;
    pub const BEACON: u8 = 4;
    pub const ACCESS_REQUEST: u8 = 5;
    pub const ACCESS_CONFIRM: u8 = 6;
    pub const DATA: u8 = 7;
    pub const REJECT: u8 = 8;
    pub const BYE: u8 = 9;
    pub const REPORT_SESSIONS: u8 = 10;
    pub const REPORT_ACK: u8 = 11;
    pub const CKPT_GOSSIP: u8 = 12;
    pub const RANGE_PULL: u8 = 13;
    pub const RANGE_PUSH: u8 = 14;
    pub const GET_URL_DELTA: u8 = 15;
    pub const URL_DELTA: u8 = 16;
}

/// The revocation bulletin served by the NO daemon: the currently signed
/// CRL and URL. Routers poll it to refresh the lists they re-broadcast in
/// beacons; users may poll it directly to tighten their freshness floor
/// between beacons.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Bulletin {
    /// Current signed certificate revocation list.
    pub crl: SignedCrl,
    /// Current signed user revocation list.
    pub url: SignedUrl,
}

impl Encode for Bulletin {
    fn encode(&self, w: &mut Writer) {
        self.crl.encode(w);
        self.url.encode(w);
    }
}

impl Decode for Bulletin {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(Self {
            crl: SignedCrl::decode(r)?,
            url: SignedUrl::decode(r)?,
        })
    }
}

/// Every message a PEACE node daemon sends or receives.
#[derive(Clone, PartialEq, Debug)]
pub enum NodeMessage {
    /// Poll the NO daemon for the current revocation bulletin.
    GetBulletin,
    /// The NO daemon's bulletin response.
    Bulletin(Bulletin),
    /// Ask a router daemon for its current beacon (M.1). On radio this is a
    /// broadcast; over TCP the poll stands in for tuning to the channel,
    /// and every poll inside half a timestamp window hears the same one.
    GetBeacon,
    /// A router beacon (M.1).
    Beacon(Box<Beacon>),
    /// The anonymous access request (M.2).
    AccessRequest(Box<AccessRequest>),
    /// The access confirmation (M.3).
    AccessConfirm(Box<AccessConfirm>),
    /// AEAD-sealed application data on an established session.
    Data(Vec<u8>),
    /// Explicit rejection with a machine-readable code.
    Reject {
        /// One of [`reject_code`].
        code: u16,
        /// Human-readable detail (not relied on by machines).
        detail: String,
    },
    /// Graceful close: the sender will write nothing further.
    Bye,
    /// A router reporting its logged session transcripts to the NO daemon
    /// for durable ledger persistence (the paper's accountability trail).
    ReportSessions {
        /// The reporting router's display name (`MR_k`).
        router: String,
        /// The transcripts, exactly as the router logged them.
        sessions: Vec<LoggedSession>,
    },
    /// The NO daemon's acknowledgement: how many reported transcripts were
    /// durably appended to the ledger (duplicates are skipped).
    ReportAck {
        /// Number of transcripts newly persisted.
        accepted: u32,
    },
    /// Federation: one NO replica advertising (or answering with) the
    /// signed-checkpoint digests of every ledger shard it holds. Sent
    /// both ways — the opener's digests prompt the responder's, and each
    /// side pulls whatever the other is ahead on.
    CkptGossip {
        /// The advertising replica's NO writer id.
        from_no: String,
        /// Per-shard replication summaries.
        digests: Vec<WriterDigest>,
    },
    /// Federation: ask a peer replica for one writer's entries starting
    /// at `from_seq`, up to that writer's next signed checkpoint.
    RangePull {
        /// The shard writer id to pull.
        writer: String,
        /// First sequence number wanted.
        from_seq: u64,
    },
    /// Federation: the answer to a [`NodeMessage::RangePull`] — a
    /// checkpoint-terminated entry range, or `None` when nothing attested
    /// lies at or past the requested sequence.
    RangePush {
        /// The served range (boxed: ranges dwarf every other body).
        range: Option<Box<RangeData>>,
    },
    /// Ask the NO daemon for a delta-compressed URL diff from the caller's
    /// current `(epoch, have_version)` — O(churn) bytes instead of the
    /// full bulletin.
    GetUrlDelta {
        /// The caller's URL epoch partition.
        epoch: u64,
        /// The caller's current URL version.
        have_version: u64,
    },
    /// The NO daemon's delta response: the diff, or `None` when no
    /// delta can chain from the requested point (wrong epoch or behind
    /// the retained diff log) — fall back to a full bulletin fetch.
    UrlDelta {
        /// A freshly-signed CRL, always included: the CRL is O(revoked
        /// routers) — small — and beacons must carry one younger than
        /// `list_max_age`, so delta-only refresh cycles re-ship it whole
        /// while the user-scale URL travels as a diff.
        crl: Box<SignedCrl>,
        /// A detached URL freshness re-stamp (O(1) bytes): the caller
        /// materializes a fresh beacon-carried `SignedUrl` from its
        /// delta-synced token set plus this signature.
        restamp: UrlRestamp,
        /// The diff (boxed: carries token lists), attested by `restamp`.
        delta: Option<Box<UrlDelta>>,
    },
}

impl NodeMessage {
    /// Short name of the message kind (metrics/log labels).
    pub fn kind_name(&self) -> &'static str {
        match self {
            NodeMessage::GetBulletin => "get-bulletin",
            NodeMessage::Bulletin(_) => "bulletin",
            NodeMessage::GetBeacon => "get-beacon",
            NodeMessage::Beacon(_) => "beacon",
            NodeMessage::AccessRequest(_) => "access-request",
            NodeMessage::AccessConfirm(_) => "access-confirm",
            NodeMessage::Data(_) => "data",
            NodeMessage::Reject { .. } => "reject",
            NodeMessage::Bye => "bye",
            NodeMessage::ReportSessions { .. } => "report-sessions",
            NodeMessage::ReportAck { .. } => "report-ack",
            NodeMessage::CkptGossip { .. } => "ckpt-gossip",
            NodeMessage::RangePull { .. } => "range-pull",
            NodeMessage::RangePush { .. } => "range-push",
            NodeMessage::GetUrlDelta { .. } => "get-url-delta",
            NodeMessage::UrlDelta { .. } => "url-delta",
        }
    }

    /// What a reply means to the client that was waiting for it, and the
    /// only place that is decided: a [`reject_code::BUSY`] refusal is the
    /// transient [`NetError::ConnLimit`] (counted in `net.conn_rejected`,
    /// so retry policies and load workers read it as backpressure), any
    /// other `Reject` is [`NetError::Rejected`], and everything else is
    /// handed back for the caller to match the one variant it asked for.
    pub(crate) fn into_reply(self, metrics: &NetMetrics) -> Result<Self> {
        match self {
            NodeMessage::Reject {
                code: reject_code::BUSY,
                ..
            } => {
                metrics.conn_rejected.inc();
                Err(NetError::ConnLimit)
            }
            NodeMessage::Reject { code, detail } => Err(NetError::Rejected { code, detail }),
            reply => Ok(reply),
        }
    }
}

impl Encode for NodeMessage {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(&MAGIC);
        w.put_u16(VERSION);
        match self {
            NodeMessage::GetBulletin => w.put_u8(kind::GET_BULLETIN),
            NodeMessage::Bulletin(b) => {
                w.put_u8(kind::BULLETIN);
                b.encode(w);
            }
            NodeMessage::GetBeacon => w.put_u8(kind::GET_BEACON),
            NodeMessage::Beacon(b) => {
                w.put_u8(kind::BEACON);
                b.encode(w);
            }
            NodeMessage::AccessRequest(m) => {
                w.put_u8(kind::ACCESS_REQUEST);
                m.encode(w);
            }
            NodeMessage::AccessConfirm(m) => {
                w.put_u8(kind::ACCESS_CONFIRM);
                m.encode(w);
            }
            NodeMessage::Data(d) => {
                w.put_u8(kind::DATA);
                w.put_bytes(d);
            }
            NodeMessage::Reject { code, detail } => {
                w.put_u8(kind::REJECT);
                w.put_u16(*code);
                w.put_str(detail);
            }
            NodeMessage::Bye => w.put_u8(kind::BYE),
            NodeMessage::ReportSessions { router, sessions } => {
                w.put_u8(kind::REPORT_SESSIONS);
                w.put_str(router);
                w.put_u32(sessions.len() as u32);
                for s in sessions {
                    s.encode(w);
                }
            }
            NodeMessage::ReportAck { accepted } => {
                w.put_u8(kind::REPORT_ACK);
                w.put_u32(*accepted);
            }
            NodeMessage::CkptGossip { from_no, digests } => {
                w.put_u8(kind::CKPT_GOSSIP);
                w.put_str(from_no);
                w.put_seq(digests);
            }
            NodeMessage::RangePull { writer, from_seq } => {
                w.put_u8(kind::RANGE_PULL);
                w.put_str(writer);
                w.put_u64(*from_seq);
            }
            NodeMessage::RangePush { range } => {
                w.put_u8(kind::RANGE_PUSH);
                match range {
                    Some(r) => {
                        w.put_u8(1);
                        r.encode(w);
                    }
                    None => w.put_u8(0),
                }
            }
            NodeMessage::GetUrlDelta {
                epoch,
                have_version,
            } => {
                w.put_u8(kind::GET_URL_DELTA);
                w.put_u64(*epoch);
                w.put_u64(*have_version);
            }
            NodeMessage::UrlDelta {
                crl,
                restamp,
                delta,
            } => {
                w.put_u8(kind::URL_DELTA);
                crl.encode(w);
                restamp.encode(w);
                match delta {
                    Some(d) => {
                        w.put_u8(1);
                        d.encode(w);
                    }
                    None => w.put_u8(0),
                }
            }
        }
    }
}

impl Decode for NodeMessage {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        if r.get_fixed(MAGIC.len())? != MAGIC {
            return Err(WireError::Invalid("envelope.magic"));
        }
        if r.get_u16()? != VERSION {
            return Err(WireError::Invalid("envelope.version"));
        }
        match r.get_u8()? {
            kind::GET_BULLETIN => Ok(NodeMessage::GetBulletin),
            kind::BULLETIN => Ok(NodeMessage::Bulletin(Bulletin::decode(r)?)),
            kind::GET_BEACON => Ok(NodeMessage::GetBeacon),
            kind::BEACON => Ok(NodeMessage::Beacon(Box::new(Beacon::decode(r)?))),
            kind::ACCESS_REQUEST => Ok(NodeMessage::AccessRequest(Box::new(
                AccessRequest::decode(r)?,
            ))),
            kind::ACCESS_CONFIRM => Ok(NodeMessage::AccessConfirm(Box::new(
                AccessConfirm::decode(r)?,
            ))),
            kind::DATA => Ok(NodeMessage::Data(r.get_bytes()?.to_vec())),
            kind::REJECT => Ok(NodeMessage::Reject {
                code: r.get_u16()?,
                detail: r.get_str()?,
            }),
            kind::BYE => Ok(NodeMessage::Bye),
            kind::REPORT_SESSIONS => {
                let router = r.get_str()?;
                let n = r.get_u32()?;
                // Bound preallocation by what the frame could actually hold.
                let mut sessions = Vec::with_capacity((n as usize).min(1024));
                for _ in 0..n {
                    sessions.push(LoggedSession::decode(r)?);
                }
                Ok(NodeMessage::ReportSessions { router, sessions })
            }
            kind::REPORT_ACK => Ok(NodeMessage::ReportAck {
                accepted: r.get_u32()?,
            }),
            kind::CKPT_GOSSIP => Ok(NodeMessage::CkptGossip {
                from_no: r.get_str()?,
                digests: r.get_seq()?,
            }),
            kind::RANGE_PULL => Ok(NodeMessage::RangePull {
                writer: r.get_str()?,
                from_seq: r.get_u64()?,
            }),
            kind::RANGE_PUSH => {
                let range = match r.get_u8()? {
                    0 => None,
                    1 => Some(Box::new(RangeData::decode(r)?)),
                    _ => return Err(WireError::Invalid("envelope.range flag")),
                };
                Ok(NodeMessage::RangePush { range })
            }
            kind::GET_URL_DELTA => Ok(NodeMessage::GetUrlDelta {
                epoch: r.get_u64()?,
                have_version: r.get_u64()?,
            }),
            kind::URL_DELTA => {
                let crl = Box::new(SignedCrl::decode(r)?);
                let restamp = UrlRestamp::decode(r)?;
                let delta = match r.get_u8()? {
                    0 => None,
                    1 => Some(Box::new(UrlDelta::decode(r)?)),
                    _ => return Err(WireError::Invalid("envelope.delta flag")),
                };
                Ok(NodeMessage::UrlDelta {
                    crl,
                    restamp,
                    delta,
                })
            }
            _ => Err(WireError::Invalid("envelope.kind")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &NodeMessage) {
        let bytes = msg.to_wire();
        let back = NodeMessage::from_wire(&bytes).unwrap();
        assert_eq!(&back, msg);
    }

    #[test]
    fn plain_kinds_roundtrip() {
        roundtrip(&NodeMessage::GetBulletin);
        roundtrip(&NodeMessage::GetBeacon);
        roundtrip(&NodeMessage::Bye);
        roundtrip(&NodeMessage::Data(b"sealed bytes".to_vec()));
        roundtrip(&NodeMessage::Data(Vec::new()));
        roundtrip(&NodeMessage::Reject {
            code: reject_code::REVOKED,
            detail: "signer on URL".into(),
        });
        roundtrip(&NodeMessage::ReportSessions {
            router: "MR-1".into(),
            sessions: Vec::new(),
        });
        roundtrip(&NodeMessage::ReportAck { accepted: 17 });
    }

    #[test]
    fn federation_kinds_roundtrip() {
        roundtrip(&NodeMessage::CkptGossip {
            from_no: "NO-1".into(),
            digests: vec![WriterDigest {
                writer: "NO-0".into(),
                next_seq: 9,
                chain: [4u8; 32],
                ckpt_seq: Some(8),
                quarantined: false,
            }],
        });
        roundtrip(&NodeMessage::CkptGossip {
            from_no: "NO-2".into(),
            digests: Vec::new(),
        });
        roundtrip(&NodeMessage::RangePull {
            writer: "NO-0".into(),
            from_seq: 3,
        });
        roundtrip(&NodeMessage::RangePush { range: None });
        // A populated push needs a real signed checkpoint.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let key = peace_ecdsa::SigningKey::random(&mut StdRng::seed_from_u64(5));
        let ck = peace_ledger::Checkpoint::sign(&key, "NO-0", 2, [7u8; 32], 99);
        roundtrip(&NodeMessage::RangePush {
            range: Some(Box::new(RangeData {
                writer: "NO-0".into(),
                from_seq: 0,
                payloads: vec![vec![1, 2], vec![3]],
                ck,
            })),
        });
    }

    #[test]
    fn url_delta_kinds_roundtrip() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        roundtrip(&NodeMessage::GetUrlDelta {
            epoch: 2,
            have_version: 41,
        });
        let mut rng = StdRng::seed_from_u64(6);
        let key = peace_ecdsa::SigningKey::random(&mut rng);
        let crl = SignedCrl::issue(&key, 3, 1_200, vec![9, 11]);
        let tok = peace_groupsig::RevocationToken(peace_curve::G1::random(&mut rng));
        let gpk = peace_groupsig::IssuerKey::generate(&mut rng);
        let restamp = UrlRestamp::issue(
            &key,
            gpk.public_key(),
            43,
            1_200,
            std::slice::from_ref(&tok),
        );
        roundtrip(&NodeMessage::UrlDelta {
            crl: Box::new(crl.clone()),
            restamp: restamp.clone(),
            delta: None,
        });
        roundtrip(&NodeMessage::UrlDelta {
            crl: Box::new(crl),
            restamp,
            delta: Some(Box::new(UrlDelta {
                epoch: 2,
                from_version: 41,
                to_version: 43,
                added: vec![tok],
                removed: vec![],
            })),
        });
    }

    #[test]
    fn bad_magic_version_kind_rejected() {
        let mut bytes = NodeMessage::GetBeacon.to_wire();
        bytes[0] ^= 0xFF;
        assert_eq!(
            NodeMessage::from_wire(&bytes),
            Err(WireError::Invalid("envelope.magic"))
        );

        let mut bytes = NodeMessage::GetBeacon.to_wire();
        bytes[5] ^= 0xFF; // version low byte
        assert_eq!(
            NodeMessage::from_wire(&bytes),
            Err(WireError::Invalid("envelope.version"))
        );

        let mut bytes = NodeMessage::GetBeacon.to_wire();
        bytes[6] = 0xEE; // unknown kind
        assert_eq!(
            NodeMessage::from_wire(&bytes),
            Err(WireError::Invalid("envelope.kind"))
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = NodeMessage::Bye.to_wire();
        bytes.push(0);
        assert_eq!(
            NodeMessage::from_wire(&bytes),
            Err(WireError::TrailingBytes)
        );
    }

    #[test]
    fn kind_names_distinct() {
        let msgs = [
            NodeMessage::GetBulletin,
            NodeMessage::GetBeacon,
            NodeMessage::Data(vec![]),
            NodeMessage::Reject {
                code: 0,
                detail: String::new(),
            },
            NodeMessage::Bye,
            NodeMessage::ReportSessions {
                router: String::new(),
                sessions: Vec::new(),
            },
            NodeMessage::ReportAck { accepted: 0 },
            NodeMessage::CkptGossip {
                from_no: String::new(),
                digests: Vec::new(),
            },
            NodeMessage::RangePull {
                writer: String::new(),
                from_seq: 0,
            },
            NodeMessage::RangePush { range: None },
            NodeMessage::GetUrlDelta {
                epoch: 0,
                have_version: 0,
            },
            {
                let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
                let key = peace_ecdsa::SigningKey::random(&mut rng);
                let gpk = peace_groupsig::IssuerKey::generate(&mut rng);
                NodeMessage::UrlDelta {
                    crl: Box::new(SignedCrl::issue(&key, 0, 0, vec![])),
                    restamp: UrlRestamp::issue(&key, gpk.public_key(), 0, 0, &[]),
                    delta: None,
                }
            },
        ];
        let names: std::collections::HashSet<_> = msgs.iter().map(|m| m.kind_name()).collect();
        assert_eq!(names.len(), msgs.len());
    }
}
