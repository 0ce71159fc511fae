//! Established sessions: key material, AEAD data exchange, MAC-based
//! per-packet authentication, and key refresh.
//!
//! Implements the paper's hybrid design (§V.C): the expensive group
//! signature runs once per session; every subsequent packet is protected by
//! symmetric primitives keyed from the DH secret.

use peace_curve::G1;
use peace_symmetric::{SessionCipher, SessionMac};

use crate::error::{ProtocolError, Result};
use crate::ids::SessionId;

/// Which side of the session this endpoint is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// The party that sent the first DH share (router in M.1, user in M̃.1).
    Responder,
    /// The party that replied with the second share.
    Initiator,
}

/// An established, keyed communication session.
#[derive(Clone, Debug)]
pub struct Session {
    id: SessionId,
    role: Role,
    cipher: SessionCipher,
    mac: SessionMac,
    send_seq: u64,
    recv_seq: u64,
    chain_key: Vec<u8>,
    generation: u64,
}

impl Session {
    /// Derives a session from the raw DH secret and the session identifier.
    /// Both directions use distinct sequence-number spaces (even = responder
    /// → initiator, odd = initiator → responder) to keep the AEAD nonces
    /// disjoint.
    pub fn establish(dh_secret: &G1, id: SessionId, role: Role) -> Self {
        let secret_bytes = dh_secret.to_bytes();
        let ctx = id.to_bytes();
        let chain_key = peace_hash::hkdf(b"peace-session-chain", &secret_bytes, &ctx, 32);
        Self {
            cipher: SessionCipher::new(&chain_key, &ctx),
            mac: SessionMac::new(&chain_key, &ctx),
            id,
            role,
            send_seq: 0,
            recv_seq: 0,
            chain_key,
            generation: 0,
        }
    }

    /// Ratchets the session keys forward (the paper's requirement that
    /// users "refresh session identifiers and the shared symmetric keys for
    /// each different session" extended to long-lived links): the chain key
    /// is hashed one-way, old keys become unrecoverable, and sequence
    /// numbers reset. Both endpoints must rekey in lockstep (e.g. every N
    /// packets or on a timer).
    pub fn rekey(&mut self) {
        self.chain_key = peace_hash::xof(b"peace-session-ratchet", &self.chain_key, 32);
        self.generation += 1;
        let mut ctx = self.id.to_bytes();
        ctx.extend_from_slice(&self.generation.to_be_bytes());
        self.cipher = SessionCipher::new(&self.chain_key, &ctx);
        self.mac = SessionMac::new(&self.chain_key, &ctx);
        self.send_seq = 0;
        self.recv_seq = 0;
    }

    /// The current rekey generation (0 = initial keys).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The session identifier `(g^{r_R}, g^{r_j})`.
    pub fn id(&self) -> &SessionId {
        &self.id
    }

    /// This endpoint's role.
    pub fn role(&self) -> Role {
        self.role
    }

    fn direction_seq(seq: u64, role: Role) -> u64 {
        match role {
            Role::Responder => seq * 2,
            Role::Initiator => seq * 2 + 1,
        }
    }

    /// Encrypts and authenticates an application payload.
    pub fn seal_data(&mut self, payload: &[u8]) -> Vec<u8> {
        let seq = Self::direction_seq(self.send_seq, self.role);
        self.send_seq += 1;
        self.cipher.seal(seq, &self.id.to_bytes(), payload)
    }

    /// Decrypts the peer's next payload (in order).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::DecryptFailed`] on tampering, truncation, replay, or
    /// out-of-order delivery.
    pub fn open_data(&mut self, sealed: &[u8]) -> Result<Vec<u8>> {
        let peer_role = match self.role {
            Role::Responder => Role::Initiator,
            Role::Initiator => Role::Responder,
        };
        let seq = Self::direction_seq(self.recv_seq, peer_role);
        let plain = self
            .cipher
            .open(seq, &self.id.to_bytes(), sealed)
            .map_err(|_| ProtocolError::DecryptFailed)?;
        self.recv_seq += 1;
        Ok(plain)
    }

    /// MAC-tags a relayed packet (the paper's cheap per-packet session
    /// authentication for traffic that is relayed, not encrypted).
    pub fn tag_packet(&self, seq: u64, packet: &[u8]) -> [u8; 32] {
        self.mac.tag(seq, packet)
    }

    /// Verifies a relayed packet's tag.
    pub fn verify_packet(&self, seq: u64, packet: &[u8], tag: &[u8]) -> bool {
        self.mac.verify(seq, packet, tag)
    }

    /// Number of payloads sent so far.
    pub fn sent_count(&self) -> u64 {
        self.send_seq
    }

    /// Number of payloads received so far.
    pub fn received_count(&self) -> u64 {
        self.recv_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peace_field::Fq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup_pair() -> (Session, Session) {
        let mut rng = StdRng::seed_from_u64(21);
        let g = G1::random(&mut rng);
        let a = Fq::random_nonzero(&mut rng);
        let b = Fq::random_nonzero(&mut rng);
        let ga = g.mul(&a);
        let gb = g.mul(&b);
        let secret = ga.mul(&b);
        assert_eq!(secret, gb.mul(&a));
        let id = SessionId::from_points(&ga, &gb);
        (
            Session::establish(&secret, id.clone(), Role::Responder),
            Session::establish(&secret, id, Role::Initiator),
        )
    }

    #[test]
    fn bidirectional_data_exchange() {
        let (mut r, mut u) = setup_pair();
        let c1 = r.seal_data(b"welcome");
        assert_eq!(u.open_data(&c1).unwrap(), b"welcome");
        let c2 = u.seal_data(b"thanks");
        assert_eq!(r.open_data(&c2).unwrap(), b"thanks");
        assert_eq!(r.sent_count(), 1);
        assert_eq!(r.received_count(), 1);
    }

    #[test]
    fn replay_rejected() {
        let (mut r, mut u) = setup_pair();
        let c1 = r.seal_data(b"one");
        assert!(u.open_data(&c1).is_ok());
        assert_eq!(u.open_data(&c1), Err(ProtocolError::DecryptFailed));
    }

    #[test]
    fn out_of_order_rejected() {
        let (mut r, mut u) = setup_pair();
        let _c1 = r.seal_data(b"one");
        let c2 = r.seal_data(b"two");
        assert_eq!(u.open_data(&c2), Err(ProtocolError::DecryptFailed));
    }

    #[test]
    fn cross_direction_nonces_disjoint() {
        let (mut r, mut u) = setup_pair();
        let from_r = r.seal_data(b"same");
        let from_u = u.seal_data(b"same");
        assert_ne!(from_r, from_u);
        // a message can never be reflected back to its sender
        assert!(r.open_data(&from_r).is_err());
    }

    #[test]
    fn packet_macs() {
        let (r, u) = setup_pair();
        let tag = r.tag_packet(5, b"relayed");
        assert!(u.verify_packet(5, b"relayed", &tag));
        assert!(!u.verify_packet(6, b"relayed", &tag));
    }

    #[test]
    fn sessions_with_different_ids_incompatible() {
        let (mut r, _) = setup_pair();
        let mut rng = StdRng::seed_from_u64(22);
        let g = G1::random(&mut rng);
        let other_id = SessionId::from_points(&g, &g);
        // Same DH secret, different session id → keys differ.
        let mut other = Session::establish(&g, other_id, Role::Initiator);
        let sealed = r.seal_data(b"x");
        assert!(other.open_data(&sealed).is_err());
    }
}
