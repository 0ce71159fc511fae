//! Wire messages of the PEACE authentication and key-agreement protocols
//! (paper §IV.B and §IV.C).

use peace_curve::{G1Encoded, G1Wire, G1};
use peace_ecdsa::{Certificate, Signature};
use peace_groupsig::GroupSignature;
use peace_puzzle::{Puzzle, Solution};
use peace_wire::{Decode, Encode, Reader, Writer};

use crate::revocation::{SignedCrl, UrlSection};

/// Reads one point field: canonical form is checked here, curve and
/// subgroup membership when (and if) the receiver needs the point.
fn get_g1(r: &mut Reader<'_>, what: &'static str) -> peace_wire::Result<G1Wire> {
    G1Wire::parse(r.get_fixed(G1Wire::ENCODED_LEN)?).ok_or(peace_wire::WireError::Invalid(what))
}

/// The group element behind a message field, validated now if it has not
/// been already. A field that fails gets the error its decoder gave when
/// decoders validated eagerly.
pub(crate) fn point(field: &G1Wire, what: &'static str) -> crate::Result<G1> {
    field
        .decompress()
        .map_err(|_| peace_wire::WireError::Invalid(what).into())
}

/// `label ‖ a ‖ b ‖ ts` — the shape of every signed handshake payload.
fn payload(label: &str, a: &impl G1Encoded, b: &impl G1Encoded, ts: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str(label);
    w.put_fixed(&a.g1_bytes());
    w.put_fixed(&b.g1_bytes());
    w.put_u64(ts);
    w.into_bytes()
}

/// Beacon message (M.1): `g, g^{r_R}, ts₁, Sig_RSK, Cert_k, CRL, URL`
/// plus an optional client puzzle when the router is under suspected DoS.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Beacon {
    /// The session generator `g` picked by the router.
    pub g: G1Wire,
    /// The router's DH share `g^{r_R}`.
    pub g_rr: G1Wire,
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
    pub fn signed_payload(g: &impl G1Encoded, g_rr: &impl G1Encoded, ts1: u64) -> Vec<u8> {
        payload("peace-beacon-v1", g, g_rr, ts1)
    }
}

impl Encode for Beacon {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(self.g.as_bytes());
        w.put_fixed(self.g_rr.as_bytes());
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
    pub g_rj: G1Wire,
    /// Echo of the router's DH share (beacon correlation).
    pub g_rr: G1Wire,
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
    pub fn signed_payload(g_rj: &impl G1Encoded, g_rr: &impl G1Encoded, ts2: u64) -> Vec<u8> {
        payload("peace-m2-v1", g_rj, g_rr, ts2)
    }
}

impl Encode for AccessRequest {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(self.g_rj.as_bytes());
        w.put_fixed(self.g_rr.as_bytes());
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
    pub g_rj: G1Wire,
    /// Echo of the router's DH share.
    pub g_rr: G1Wire,
    /// Ciphertext under the fresh session key.
    pub ciphertext: Vec<u8>,
}

impl Encode for AccessConfirm {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(self.g_rj.as_bytes());
        w.put_fixed(self.g_rr.as_bytes());
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
    pub g: G1Wire,
    /// The initiator's DH share `g^{r_j}`.
    pub g_rj: G1Wire,
    /// Hello timestamp `ts₁`.
    pub ts1: u64,
    /// Group signature over `(g, g^{r_j}, ts₁)`.
    pub gsig: GroupSignature,
}

impl PeerHello {
    /// Signed payload of M̃.1.
    pub fn signed_payload(g: &impl G1Encoded, g_rj: &impl G1Encoded, ts1: u64) -> Vec<u8> {
        payload("peace-peer1-v1", g, g_rj, ts1)
    }
}

impl Encode for PeerHello {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(self.g.as_bytes());
        w.put_fixed(self.g_rj.as_bytes());
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
    pub g_rj: G1Wire,
    /// The responder's DH share `g^{r_l}`.
    pub g_rl: G1Wire,
    /// Response timestamp `ts₂`.
    pub ts2: u64,
    /// Group signature over `(g^{r_j}, g^{r_l}, ts₂)`.
    pub gsig: GroupSignature,
}

impl PeerResponse {
    /// Signed payload of M̃.2.
    pub fn signed_payload(g_rj: &impl G1Encoded, g_rl: &impl G1Encoded, ts2: u64) -> Vec<u8> {
        payload("peace-peer2-v1", g_rj, g_rl, ts2)
    }
}

impl Encode for PeerResponse {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(self.g_rj.as_bytes());
        w.put_fixed(self.g_rl.as_bytes());
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
    pub g_rj: G1Wire,
    /// Echo of the responder's share.
    pub g_rl: G1Wire,
    /// Ciphertext under the fresh pairwise key.
    pub ciphertext: Vec<u8>,
}

impl Encode for PeerConfirm {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(self.g_rj.as_bytes());
        w.put_fixed(self.g_rl.as_bytes());
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
