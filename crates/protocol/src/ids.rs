//! Identifiers used across the PEACE protocol.

use core::fmt;

use peace_curve::G1Encoded;
use peace_wire::{Decode, Encode, Reader, Writer};

/// A user's essential attribute information (`uid_j`). Never transmitted in
/// any protocol message; held only by the user, the group manager, and the
/// TTP per §IV.A.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct UserId(pub String);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A user group (society entity) identifier — the *nonessential* attribute
/// the operator learns from an audit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group-{}", self.0)
    }
}

/// A mesh router identifier (`MR_k`).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RouterId(pub String);

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The index `[i, j]` of a member key share during setup: group `i`,
/// member slot `j`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ShareIndex {
    /// The user group `i`.
    pub group: GroupId,
    /// The member slot `j` within the group.
    pub slot: u32,
}

impl fmt::Display for ShareIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.group.0, self.slot)
    }
}

impl Encode for ShareIndex {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.group.0);
        w.put_u32(self.slot);
    }
}

impl Decode for ShareIndex {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(Self {
            group: GroupId(r.get_u32()?),
            slot: r.get_u32()?,
        })
    }
}

/// A communication session identifier: the pair of fresh DH shares
/// `(g^{r_R}, g^{r_j})` (or `(g^{r_j}, g^{r_l})` for user–user sessions)
/// that the paper uses to identify a session without revealing anything
/// about user identity.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SessionId {
    /// The responder-side share (`g^{r_R}` for user↔router).
    pub responder_share: Vec<u8>,
    /// The initiator-side share (`g^{r_j}`).
    pub initiator_share: Vec<u8>,
}

impl SessionId {
    /// Builds the identifier from the two DH shares, in either form: only
    /// their encodings enter it.
    pub fn from_points(responder: &impl G1Encoded, initiator: &impl G1Encoded) -> Self {
        Self {
            responder_share: responder.g1_bytes().to_vec(),
            initiator_share: initiator.g1_bytes().to_vec(),
        }
    }

    /// Canonical bytes (used as AEAD context and log key).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.responder_share.clone();
        out.extend_from_slice(&self.initiator_share);
        out
    }
}

impl Encode for SessionId {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.responder_share);
        w.put_bytes(&self.initiator_share);
    }
}

impl Decode for SessionId {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(Self {
            responder_share: r.get_bytes()?.to_vec(),
            initiator_share: r.get_bytes()?.to_vec(),
        })
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Short digest-style rendering.
        let d = peace_hash::sha256(&self.to_bytes());
        write!(f, "sess-{:02x}{:02x}{:02x}{:02x}", d[0], d[1], d[2], d[3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peace_wire::{Decode, Encode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn share_index_wire_roundtrip_and_display() {
        let idx = ShareIndex {
            group: GroupId(3),
            slot: 17,
        };
        assert_eq!(ShareIndex::from_wire(&idx.to_wire()).unwrap(), idx);
        assert_eq!(idx.to_string(), "[3, 17]");
        assert_eq!(GroupId(3).to_string(), "group-3");
    }

    #[test]
    fn session_id_bytes_and_display() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = peace_curve::G1::random(&mut rng);
        let b = peace_curve::G1::random(&mut rng);
        let id = SessionId::from_points(&a, &b);
        assert_eq!(id.to_bytes().len(), 130);
        // order matters: (a, b) and (b, a) are different sessions
        let swapped = SessionId::from_points(&b, &a);
        assert_ne!(id, swapped);
        assert_ne!(id.to_string(), swapped.to_string());
        assert!(id.to_string().starts_with("sess-"));
    }

    #[test]
    fn user_and_router_ids_display() {
        assert_eq!(UserId("alice".into()).to_string(), "alice");
        assert_eq!(RouterId("MR-1".into()).to_string(), "MR-1");
    }
}
