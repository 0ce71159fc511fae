//! Key material for the PEACE group signature (paper §IV.A).
//!
//! The scheme is the Boneh–Shacham VLR group signature with the key
//! generation *variation* introduced by PEACE: the SDH exponent is split
//! into a per-user-group component `grp_i` and a per-member component
//! `x_j`, so a member key is the SDH tuple
//!
//! ```text
//! A_{i,j} = g₁^(1 / (γ + grp_i + x_j))
//! ```
//!
//! Opening a signature with the revocation token `A_{i,j}` therefore
//! identifies only the *user group* `i` (via `grp_i`), never the member —
//! the heart of the paper's "sophisticated privacy".

use core::fmt;

use peace_curve::{psi, G1, G2};
use peace_field::Fq;
use peace_wire::{Decode, Encode, Reader, Writer};
use rand::RngCore;

/// The group public key `gpk = (g₁, g₂, w = g₂^γ)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GroupPublicKey {
    /// Generator of 𝔾₁ (`g₁ = ψ(g₂)`).
    pub g1: G1,
    /// Generator of 𝔾₂.
    pub g2: G2,
    /// `w = g₂^γ`.
    pub w: G2,
}

impl GroupPublicKey {
    /// Canonical encoding used inside hash inputs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.g1.to_bytes();
        out.extend_from_slice(&self.g2.to_bytes());
        out.extend_from_slice(&self.w.to_bytes());
        out
    }
}

impl Encode for GroupPublicKey {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(&self.g1.to_bytes());
        w.put_fixed(&self.g2.to_bytes());
        w.put_fixed(&self.w.to_bytes());
    }
}

impl Decode for GroupPublicKey {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        let g1 = G1::from_bytes(r.get_fixed(G1::ENCODED_LEN)?)
            .ok_or(peace_wire::WireError::Invalid("gpk.g1"))?;
        let g2 = G2::from_bytes(r.get_fixed(G2::ENCODED_LEN)?)
            .ok_or(peace_wire::WireError::Invalid("gpk.g2"))?;
        let w = G2::from_bytes(r.get_fixed(G2::ENCODED_LEN)?)
            .ok_or(peace_wire::WireError::Invalid("gpk.w"))?;
        Ok(Self { g1, g2, w })
    }
}

/// The issuer secret `γ`, held only by the network operator.
#[derive(Clone)]
pub struct IssuerKey {
    gamma: Fq,
    gpk: GroupPublicKey,
}

impl fmt::Debug for IssuerKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The system secret is never printed.
        write!(f, "IssuerKey(gpk: {:?})", self.gpk)
    }
}

/// A user-group secret `grp_i` (known to NO and the group manager `GM_i`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupSecret(pub Fq);

impl fmt::Debug for GroupSecret {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GroupSecret(..)")
    }
}

/// A member's group private key `gsk[i,j] = (A_{i,j}, grp_i, x_j)`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct MemberKey {
    /// The SDH point `A_{i,j}` — doubles as the revocation token.
    pub a: G1,
    /// The group component `grp_i`.
    pub grp: Fq,
    /// The member component `x_j`.
    pub x: Fq,
}

impl fmt::Debug for MemberKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MemberKey(..)")
    }
}

impl MemberKey {
    /// The effective SDH exponent `grp_i + x_j`.
    pub fn exponent(&self) -> Fq {
        self.grp.add(&self.x)
    }

    /// The revocation token for this key.
    pub fn revocation_token(&self) -> RevocationToken {
        RevocationToken(self.a)
    }

    /// Checks the SDH relation `ê(A, w·g₂^(grp+x)) = ê(g₁, g₂)` against a
    /// public key — detects corrupted or mismatched key shares during the
    /// three-party assembly of §IV.A.
    pub fn is_valid_for(&self, gpk: &GroupPublicKey) -> bool {
        let rhs = peace_pairing::pairing(&gpk.g1, &gpk.g2);
        let wx = gpk.w.add(&gpk.g2.mul(&self.exponent()));
        peace_pairing::pairing(&self.a, &wx) == rhs
    }
}

/// A revocation token `grt[i,j] = A_{i,j}` (an element of the URL).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RevocationToken(pub G1);

impl RevocationToken {
    /// Canonical 65-byte encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    /// Decodes and validates.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        G1::from_bytes(bytes).map(Self)
    }
}

impl Encode for RevocationToken {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(&self.to_bytes());
    }
}

impl Decode for RevocationToken {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Self::from_bytes(r.get_fixed(G1::ENCODED_LEN)?)
            .ok_or(peace_wire::WireError::Invalid("revocation token"))
    }
}

impl IssuerKey {
    /// Key generation (paper §IV.A step 1): picks `γ`, sets
    /// `gpk = (g₁, g₂, w = g₂^γ)`.
    pub fn generate(rng: &mut impl RngCore) -> Self {
        let gamma = Fq::random_nonzero(rng);
        let g2 = G2::generator();
        let g1 = psi(&g2);
        let w = g2.mul(&gamma);
        Self {
            gamma,
            gpk: GroupPublicKey { g1, g2, w },
        }
    }

    /// The group public key.
    pub fn public_key(&self) -> &GroupPublicKey {
        &self.gpk
    }

    /// Picks a fresh user-group secret `grp_i` (paper §IV.A step 2).
    pub fn new_group_secret(&self, rng: &mut impl RngCore) -> GroupSecret {
        GroupSecret(Fq::random_nonzero(rng))
    }

    /// Issues one member key for group secret `grp` (paper §IV.A step 3):
    /// samples `x_j` with `γ + grp_i + x_j ≠ 0` and computes
    /// `A_{i,j} = g₁^(1/(γ + grp_i + x_j))`.
    pub fn issue(&self, grp: &GroupSecret, rng: &mut impl RngCore) -> MemberKey {
        loop {
            let x = Fq::random_nonzero(rng);
            let denom = self.gamma.add(&grp.0).add(&x);
            let Some(inv) = denom.invert() else {
                continue; // γ + grp + x = 0: resample
            };
            let a = self.gpk.g1.mul(&inv);
            return MemberKey { a, grp: grp.0, x };
        }
    }

    /// Issues `count` member keys for one user group (paper §IV.A step 4:
    /// "repeat for a predetermined number of times").
    pub fn issue_batch(
        &self,
        grp: &GroupSecret,
        count: usize,
        rng: &mut impl RngCore,
    ) -> Vec<MemberKey> {
        (0..count).map(|_| self.issue(grp, rng)).collect()
    }
}
