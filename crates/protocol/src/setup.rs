//! The off-line system setup of §IV.A: three-party distribution of group
//! private keys such that no single party can link a key to a user. This
//! module holds the signed bundles, deliveries and receipts; the hand-off
//! runs in [`NetworkOperator::found_group`] and [`GroupManager::enroll`],
//! whose docs say who holds what.
//!
//! [`NetworkOperator::found_group`]: crate::entities::NetworkOperator::found_group
//! [`GroupManager::enroll`]: crate::entities::GroupManager::enroll
//!
//! The paper XORs `x_j` directly into the point encoding; we expand `x_j`
//! through the domain-separated XOF first so the pad covers the full
//! 65-byte compressed point (a strictly stronger blinding with the same
//! trust structure; see DESIGN.md).

use peace_curve::G1;
use peace_ecdsa::{Signature, SigningKey, VerifyingKey};
use peace_field::Fq;
use peace_groupsig::GroupSecret;
use peace_hash::xof;
use peace_wire::{Decode, Encode, Reader, Writer};

use crate::error::{ProtocolError, Result};
use crate::ids::ShareIndex;

/// Computes the blinding pad for a member scalar `x`.
fn pad_for(x: &Fq) -> Vec<u8> {
    xof(
        b"peace-setup-blind",
        &x.to_canonical_bytes(),
        G1::ENCODED_LEN,
    )
}

/// Blinds `A` under `x` for transport to the TTP.
pub fn blind_a(a: &G1, x: &Fq) -> Vec<u8> {
    a.to_bytes()
        .iter()
        .zip(pad_for(x))
        .map(|(b, p)| b ^ p)
        .collect()
}

/// Unblinds a TTP share with the member scalar. Returns `None` if the
/// result is not a valid subgroup point (corrupted or mismatched shares).
pub fn unblind_a(blinded: &[u8], x: &Fq) -> Option<G1> {
    if blinded.len() != G1::ENCODED_LEN {
        return None;
    }
    let bytes: Vec<u8> = blinded.iter().zip(pad_for(x)).map(|(b, p)| b ^ p).collect();
    G1::from_bytes(&bytes)
}

/// The scalar share sent to a group manager: `([i,j], grp_i, x_j)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GmShare {
    /// The share index `[i, j]`.
    pub index: ShareIndex,
    /// The group secret `grp_i`.
    pub grp: Fq,
    /// The member scalar `x_j`.
    pub x: Fq,
}

impl GmShare {
    /// The group secret as the groupsig-layer type.
    pub fn group_secret(&self) -> GroupSecret {
        GroupSecret(self.grp)
    }
}

impl Encode for GmShare {
    fn encode(&self, w: &mut Writer) {
        self.index.encode(w);
        w.put_fixed(&self.grp.to_canonical_bytes());
        w.put_fixed(&self.x.to_canonical_bytes());
    }
}

impl Decode for GmShare {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        let inv = peace_wire::WireError::Invalid("gm share");
        Ok(Self {
            index: ShareIndex::decode(r)?,
            grp: Fq::from_canonical_bytes(r.get_fixed(20)?).ok_or(inv)?,
            x: Fq::from_canonical_bytes(r.get_fixed(20)?).ok_or(inv)?,
        })
    }
}

/// The blinded point share sent to the TTP: `([i,j], A_{i,j} ⊕ pad(x_j))`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TtpShare {
    /// The share index `[i, j]`.
    pub index: ShareIndex,
    /// The blinded compressed point.
    pub blinded_a: Vec<u8>,
}

impl Encode for TtpShare {
    fn encode(&self, w: &mut Writer) {
        self.index.encode(w);
        w.put_bytes(&self.blinded_a);
    }
}

impl Decode for TtpShare {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(Self {
            index: ShareIndex::decode(r)?,
            blinded_a: r.get_bytes()?.to_vec(),
        })
    }
}

/// A signed batch of GM shares (NO → GM, §IV.A step 5).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GmBundle {
    /// The shares.
    pub shares: Vec<GmShare>,
    /// NO's signature over the shares (non-repudiation).
    pub signature: Signature,
}

impl GmBundle {
    fn tbs(shares: &[GmShare]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("peace-gm-bundle-v1");
        w.put_seq(shares);
        w.into_bytes()
    }

    /// Signs a batch of shares.
    pub fn issue(signer: &SigningKey, shares: Vec<GmShare>) -> Self {
        let signature = signer.sign(&Self::tbs(&shares));
        Self { shares, signature }
    }

    /// Verifies NO's signature.
    pub fn validate(&self, npk: &VerifyingKey) -> Result<()> {
        if npk.verify(&Self::tbs(&self.shares), &self.signature) {
            Ok(())
        } else {
            Err(ProtocolError::Setup("GM bundle signature invalid"))
        }
    }
}

/// A signed batch of TTP shares (NO → TTP, §IV.A step 7).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TtpBundle {
    /// The blinded shares.
    pub shares: Vec<TtpShare>,
    /// NO's signature.
    pub signature: Signature,
}

impl TtpBundle {
    fn tbs(shares: &[TtpShare]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("peace-ttp-bundle-v1");
        w.put_seq(shares);
        w.into_bytes()
    }

    /// Signs a batch of blinded shares.
    pub fn issue(signer: &SigningKey, shares: Vec<TtpShare>) -> Self {
        let signature = signer.sign(&Self::tbs(&shares));
        Self { shares, signature }
    }

    /// Verifies NO's signature.
    pub fn validate(&self, npk: &VerifyingKey) -> Result<()> {
        if npk.verify(&Self::tbs(&self.shares), &self.signature) {
            Ok(())
        } else {
            Err(ProtocolError::Setup("TTP bundle signature invalid"))
        }
    }
}

/// A signed receipt acknowledging receipt of key material (used for the
/// non-repudiation argument of §IV.D).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Receipt {
    /// Human-readable description of what was received.
    pub what: String,
    /// Digest of the received payload.
    pub payload_digest: [u8; 32],
    /// Receiver's ECDSA signature.
    pub signature: Signature,
}

impl Receipt {
    fn tbs(what: &str, digest: &[u8; 32]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("peace-receipt-v1");
        w.put_str(what);
        w.put_fixed(digest);
        w.into_bytes()
    }

    /// Signs a receipt over `payload`.
    pub fn sign(signer: &SigningKey, what: &str, payload: &[u8]) -> Self {
        let payload_digest = peace_hash::sha256(payload);
        Self {
            what: what.to_owned(),
            payload_digest,
            signature: signer.sign(&Self::tbs(what, &payload_digest)),
        }
    }

    /// Verifies the receipt against the signer's key and the payload.
    pub fn verify(&self, signer: &VerifyingKey, payload: &[u8]) -> bool {
        self.payload_digest == peace_hash::sha256(payload)
            && signer.verify(
                &Self::tbs(&self.what, &self.payload_digest),
                &self.signature,
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peace_wire::{Decode, Encode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::ids::GroupId;

    #[test]
    fn blind_unblind_roundtrip() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = G1::random(&mut rng);
        let x = Fq::random(&mut rng);
        let blinded = blind_a(&a, &x);
        assert_ne!(blinded, a.to_bytes());
        assert_eq!(unblind_a(&blinded, &x).unwrap(), a);
    }

    #[test]
    fn unblind_with_wrong_scalar_fails() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = G1::random(&mut rng);
        let x = Fq::random(&mut rng);
        let y = Fq::random(&mut rng);
        let blinded = blind_a(&a, &x);
        // Wrong pad yields an invalid tag byte or off-curve x with
        // overwhelming probability.
        assert!(unblind_a(&blinded, &y).is_none());
        assert!(unblind_a(&blinded[..10], &x).is_none());
    }

    #[test]
    fn bundles_sign_and_validate() {
        let mut rng = StdRng::seed_from_u64(10);
        let no_key = SigningKey::random(&mut rng);
        let share = GmShare {
            index: ShareIndex {
                group: GroupId(1),
                slot: 0,
            },
            grp: Fq::random(&mut rng),
            x: Fq::random(&mut rng),
        };
        let bundle = GmBundle::issue(&no_key, vec![share.clone()]);
        assert!(bundle.validate(no_key.verifying_key()).is_ok());

        let mut tampered = bundle.clone();
        tampered.shares[0].x = Fq::random(&mut rng);
        assert!(tampered.validate(no_key.verifying_key()).is_err());

        let ttp_bundle = TtpBundle::issue(
            &no_key,
            vec![TtpShare {
                index: share.index,
                blinded_a: vec![0u8; 65],
            }],
        );
        assert!(ttp_bundle.validate(no_key.verifying_key()).is_ok());
        let other = SigningKey::random(&mut rng);
        assert!(ttp_bundle.validate(other.verifying_key()).is_err());
    }

    #[test]
    fn receipts_bind_payload_and_signer() {
        let mut rng = StdRng::seed_from_u64(11);
        let user_key = SigningKey::random(&mut rng);
        let receipt = Receipt::sign(&user_key, "gsk delivery", b"payload");
        assert!(receipt.verify(user_key.verifying_key(), b"payload"));
        assert!(!receipt.verify(user_key.verifying_key(), b"other"));
        let other = SigningKey::random(&mut rng);
        assert!(!receipt.verify(other.verifying_key(), b"payload"));
    }

    #[test]
    fn shares_wire_roundtrip() {
        let mut rng = StdRng::seed_from_u64(12);
        let share = GmShare {
            index: ShareIndex {
                group: GroupId(3),
                slot: 9,
            },
            grp: Fq::random(&mut rng),
            x: Fq::random(&mut rng),
        };
        assert_eq!(GmShare::from_wire(&share.to_wire()).unwrap(), share);
        let t = TtpShare {
            index: share.index,
            blinded_a: vec![1, 2, 3],
        };
        assert_eq!(TtpShare::from_wire(&t.to_wire()).unwrap(), t);
    }
}
