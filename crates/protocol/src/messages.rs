//! Wire messages of the PEACE authentication and key-agreement protocols
//! (paper §IV.B and §IV.C).

use peace_curve::G1;
use peace_ecdsa::{Certificate, Signature};
use peace_groupsig::GroupSignature;
use peace_puzzle::{Puzzle, Solution};
use peace_wire::{Decode, Encode, Reader, Writer};

use crate::revocation::{SignedCrl, UrlSection};

fn get_g1(r: &mut Reader<'_>, what: &'static str) -> peace_wire::Result<G1> {
    G1::from_bytes(r.get_fixed(G1::ENCODED_LEN)?).ok_or(peace_wire::WireError::Invalid(what))
}

/// Beacon message (M.1): `g, g^{r_R}, ts₁, Sig_RSK, Cert_k, CRL, URL`
/// plus an optional client puzzle when the router is under suspected DoS.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Beacon {
    /// The session generator `g` picked by the router.
    pub g: G1,
    /// The router's DH share `g^{r_R}`.
    pub g_rr: G1,
    /// Beacon timestamp `ts₁`.
    pub ts1: u64,
    /// ECDSA signature by the router over `(g, g^{r_R}, ts₁)`.
    pub sig: Signature,
    /// The router certificate `Cert_k`.
    pub cert: Certificate,
    /// Signed certificate revocation list.
    pub crl: SignedCrl,
    /// Signed user revocation list, as the bytes the operator signed: a
    /// receiver decodes the tokens only when the list differs from the one
    /// it already holds.
    pub url: UrlSection,
    /// Client puzzle demanded under suspected DoS attack (§V.A).
    pub puzzle: Option<Puzzle>,
}

impl Beacon {
    /// The byte string covered by the router's beacon signature.
    pub fn signed_payload(g: &G1, g_rr: &G1, ts1: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("peace-beacon-v1");
        w.put_fixed(&g.to_bytes());
        w.put_fixed(&g_rr.to_bytes());
        w.put_u64(ts1);
        w.into_bytes()
    }
}

impl Encode for Beacon {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(&self.g.to_bytes());
        w.put_fixed(&self.g_rr.to_bytes());
        w.put_u64(self.ts1);
        self.sig.encode(w);
        self.cert.encode(w);
        self.crl.encode(w);
        self.url.encode(w);
        match &self.puzzle {
            Some(p) => {
                w.put_bool(true);
                p.encode(w);
            }
            None => w.put_bool(false),
        }
    }
}

impl Decode for Beacon {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(Self {
            g: get_g1(r, "beacon.g")?,
            g_rr: get_g1(r, "beacon.g_rr")?,
            ts1: r.get_u64()?,
            sig: Signature::decode(r)?,
            cert: Certificate::decode(r)?,
            crl: SignedCrl::decode(r)?,
            url: UrlSection::decode(r)?,
            puzzle: if r.get_bool()? {
                Some(Puzzle::decode(r)?)
            } else {
                None
            },
        })
    }
}

/// Access request (M.2): `g^{r_j}, g^{r_R}, ts₂, SIG_gsk`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AccessRequest {
    /// The user's DH share `g^{r_j}`.
    pub g_rj: G1,
    /// Echo of the router's DH share (beacon correlation).
    pub g_rr: G1,
    /// Request timestamp `ts₂`.
    pub ts2: u64,
    /// Anonymous group signature over `(g^{r_j}, g^{r_R}, ts₂)`.
    pub gsig: GroupSignature,
    /// Puzzle solution when the beacon demanded one.
    pub puzzle_solution: Option<Solution>,
}

impl AccessRequest {
    /// The byte string covered by the group signature
    /// (`{g^{r_j}, g^{r_R}, ts₂}` per step 2.2.4).
    pub fn signed_payload(g_rj: &G1, g_rr: &G1, ts2: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("peace-m2-v1");
        w.put_fixed(&g_rj.to_bytes());
        w.put_fixed(&g_rr.to_bytes());
        w.put_u64(ts2);
        w.into_bytes()
    }
}

impl Encode for AccessRequest {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(&self.g_rj.to_bytes());
        w.put_fixed(&self.g_rr.to_bytes());
        w.put_u64(self.ts2);
        self.gsig.encode(w);
        match &self.puzzle_solution {
            Some(s) => {
                w.put_bool(true);
                s.encode(w);
            }
            None => w.put_bool(false),
        }
    }
}

impl Decode for AccessRequest {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(Self {
            g_rj: get_g1(r, "m2.g_rj")?,
            g_rr: get_g1(r, "m2.g_rr")?,
            ts2: r.get_u64()?,
            gsig: GroupSignature::decode(r)?,
            puzzle_solution: if r.get_bool()? {
                Some(Solution::decode(r)?)
            } else {
                None
            },
        })
    }
}

/// Access confirmation (M.3):
/// `g^{r_j}, g^{r_R}, E_K(MR_k, g^{r_j}, g^{r_R})`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AccessConfirm {
    /// Echo of the user's DH share.
    pub g_rj: G1,
    /// Echo of the router's DH share.
    pub g_rr: G1,
    /// Ciphertext under the fresh session key.
    pub ciphertext: Vec<u8>,
}

impl Encode for AccessConfirm {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(&self.g_rj.to_bytes());
        w.put_fixed(&self.g_rr.to_bytes());
        w.put_bytes(&self.ciphertext);
    }
}

impl Decode for AccessConfirm {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(Self {
            g_rj: get_g1(r, "m3.g_rj")?,
            g_rr: get_g1(r, "m3.g_rr")?,
            ciphertext: r.get_bytes()?.to_vec(),
        })
    }
}

/// Peer hello (M̃.1): `g, g^{r_j}, ts₁, SIG_gsk[i,j]`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PeerHello {
    /// The generator obtained from the current beacon.
    pub g: G1,
    /// The initiator's DH share `g^{r_j}`.
    pub g_rj: G1,
    /// Hello timestamp `ts₁`.
    pub ts1: u64,
    /// Group signature over `(g, g^{r_j}, ts₁)`.
    pub gsig: GroupSignature,
}

impl PeerHello {
    /// Signed payload of M̃.1.
    pub fn signed_payload(g: &G1, g_rj: &G1, ts1: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("peace-peer1-v1");
        w.put_fixed(&g.to_bytes());
        w.put_fixed(&g_rj.to_bytes());
        w.put_u64(ts1);
        w.into_bytes()
    }
}

impl Encode for PeerHello {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(&self.g.to_bytes());
        w.put_fixed(&self.g_rj.to_bytes());
        w.put_u64(self.ts1);
        self.gsig.encode(w);
    }
}

impl Decode for PeerHello {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(Self {
            g: get_g1(r, "peer1.g")?,
            g_rj: get_g1(r, "peer1.g_rj")?,
            ts1: r.get_u64()?,
            gsig: GroupSignature::decode(r)?,
        })
    }
}

/// Peer response (M̃.2): `g^{r_j}, g^{r_l}, ts₂, SIG_gsk[t,l]`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PeerResponse {
    /// Echo of the initiator's share.
    pub g_rj: G1,
    /// The responder's DH share `g^{r_l}`.
    pub g_rl: G1,
    /// Response timestamp `ts₂`.
    pub ts2: u64,
    /// Group signature over `(g^{r_j}, g^{r_l}, ts₂)`.
    pub gsig: GroupSignature,
}

impl PeerResponse {
    /// Signed payload of M̃.2.
    pub fn signed_payload(g_rj: &G1, g_rl: &G1, ts2: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("peace-peer2-v1");
        w.put_fixed(&g_rj.to_bytes());
        w.put_fixed(&g_rl.to_bytes());
        w.put_u64(ts2);
        w.into_bytes()
    }
}

impl Encode for PeerResponse {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(&self.g_rj.to_bytes());
        w.put_fixed(&self.g_rl.to_bytes());
        w.put_u64(self.ts2);
        self.gsig.encode(w);
    }
}

impl Decode for PeerResponse {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(Self {
            g_rj: get_g1(r, "peer2.g_rj")?,
            g_rl: get_g1(r, "peer2.g_rl")?,
            ts2: r.get_u64()?,
            gsig: GroupSignature::decode(r)?,
        })
    }
}

/// Peer confirmation (M̃.3):
/// `g^{r_j}, g^{r_l}, E_K(g^{r_j}, g^{r_l}, ts₁, ts₂)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PeerConfirm {
    /// Echo of the initiator's share.
    pub g_rj: G1,
    /// Echo of the responder's share.
    pub g_rl: G1,
    /// Ciphertext under the fresh pairwise key.
    pub ciphertext: Vec<u8>,
}

impl Encode for PeerConfirm {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(&self.g_rj.to_bytes());
        w.put_fixed(&self.g_rl.to_bytes());
        w.put_bytes(&self.ciphertext);
    }
}

impl Decode for PeerConfirm {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(Self {
            g_rj: get_g1(r, "peer3.g_rj")?,
            g_rl: get_g1(r, "peer3.g_rl")?,
            ciphertext: r.get_bytes()?.to_vec(),
        })
    }
}
