//! Network logging and the privacy-preserving audit of §IV.D.
//!
//! Mesh routers log the authentication message (M.2) of every session and
//! report it to NO, whose daemon keeps it in the accountability ledger.
//! Given a disputed transcript, NO scans its full revocation-token set
//! `grt` with Eq.3 and learns *which user group* the signer belongs to —
//! nothing more. Full identification requires the group manager's
//! cooperation (see [`crate::entities::LawAuthority`]).

use peace_groupsig::{GroupSignature, RevocationToken};
use peace_wire::{Decode, Encode, Reader, Writer};

use crate::ids::{GroupId, SessionId, ShareIndex};

/// A logged authentication record: everything NO needs to audit a session.
#[derive(Clone, Debug, PartialEq)]
pub struct LoggedSession {
    /// The session identifier `(g^{r_R}, g^{r_j})`.
    pub session_id: SessionId,
    /// The exact byte string the group signature covers.
    pub signed_payload: Vec<u8>,
    /// The group signature from M.2 / M̃.1.
    pub gsig: GroupSignature,
    /// When the session was established (protocol ms).
    pub established_at: u64,
}

impl Encode for LoggedSession {
    fn encode(&self, w: &mut Writer) {
        self.session_id.encode(w);
        w.put_bytes(&self.signed_payload);
        self.gsig.encode(w);
        w.put_u64(self.established_at);
    }
}

impl Decode for LoggedSession {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(Self {
            session_id: SessionId::decode(r)?,
            signed_payload: r.get_bytes()?.to_vec(),
            gsig: GroupSignature::decode(r)?,
            established_at: r.get_u64()?,
        })
    }
}

/// The outcome of NO's audit: the responsible *user group* and the matching
/// revocation token — the user's nonessential attribute information only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditFinding {
    /// The user group the signer belongs to.
    pub group: GroupId,
    /// The share index `[i, j]` of the signing key (NO-internal).
    pub index: ShareIndex,
    /// The revocation token `A_{i,j}` (forwarded to the group manager for
    /// law-authority tracing).
    pub token: RevocationToken,
}
