//! ECDSA-160 for PEACE infrastructure signatures.
//!
//! The paper uses ECDSA-160 for all *non-anonymous* signatures: mesh-router
//! beacons (`Sig_RSK`), router certificates (`Cert_k`), CRL/URL signing by
//! the network operator, and the non-repudiation receipts exchanged during
//! setup. We instantiate it over the same 160-bit prime-order subgroup used
//! by the pairing (group order `q`), which gives exactly the 2×160-bit
//! signature size of ECDSA-160.
//!
//! Nonces are derived deterministically (RFC 6979 style, via HKDF from the
//! secret key and message digest), so signing never needs an RNG and is
//! immune to nonce-reuse failures.
//!
//! # Examples
//!
//! ```
//! use peace_ecdsa::SigningKey;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let sk = SigningKey::random(&mut rng);
//! let sig = sk.sign(b"beacon payload");
//! assert!(sk.verifying_key().verify(b"beacon payload", &sig));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cert;

pub use cert::{Certificate, CertificateError};

use core::fmt;

use peace_curve::{generator, AffinePoint, G1Wire, PointError, G1};
use peace_field::Fq;
use peace_hash::xof;
use peace_wire::{Decode, Encode, Reader, Writer};
use rand::RngCore;

/// Maps a message to a scalar: `e = XOF("peace-ecdsa-h", msg) mod q`.
fn hash_to_scalar(msg: &[u8]) -> Fq {
    Fq::from_wide_bytes(&xof(b"peace-ecdsa-h", msg, 40))
}

/// Maps a curve x-coordinate to a scalar (the ECDSA `r = x mod q` step).
fn x_to_scalar(p: &AffinePoint) -> Fq {
    Fq::from_wide_bytes(&p.x.to_canonical_bytes())
}

/// An ECDSA-160 signature `(r, s)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    r: Fq,
    s: Fq,
}

impl Signature {
    /// Encoded length in bytes (two 20-byte scalars).
    pub const ENCODED_LEN: usize = 40;

    /// Canonical 40-byte encoding `r ‖ s`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.r.to_canonical_bytes();
        out.extend_from_slice(&self.s.to_canonical_bytes());
        out
    }

    /// Parses the canonical encoding, rejecting zero components.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::ENCODED_LEN {
            return None;
        }
        let r = Fq::from_canonical_bytes(&bytes[..20])?;
        let s = Fq::from_canonical_bytes(&bytes[20..])?;
        if r.is_zero() || s.is_zero() {
            return None;
        }
        Some(Self { r, s })
    }
}

impl Encode for Signature {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(&self.to_bytes());
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        let b = r.get_fixed(Self::ENCODED_LEN)?;
        Self::from_bytes(b).ok_or(peace_wire::WireError::Invalid("ecdsa signature"))
    }
}

/// An ECDSA-160 private key.
#[derive(Clone)]
pub struct SigningKey {
    d: Fq,
    public: VerifyingKey,
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SigningKey(public: {:?})", self.public)
    }
}

impl SigningKey {
    /// Generates a fresh key pair.
    pub fn random(rng: &mut impl RngCore) -> Self {
        let d = Fq::random_nonzero(rng);
        Self::from_scalar(d)
    }

    /// Builds a key pair from a known scalar (tests, deterministic setups).
    pub fn from_scalar(d: Fq) -> Self {
        assert!(!d.is_zero(), "secret key must be nonzero");
        let public = VerifyingKey {
            point: peace_curve::mul_generator(&d),
        };
        Self { d, public }
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.public
    }

    /// Signs `msg` with a deterministic (RFC 6979-style) nonce.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let e = hash_to_scalar(msg);
        let mut attempt: u32 = 0;
        loop {
            // k = XOF(d ‖ e ‖ attempt) mod q — deterministic, secret-keyed.
            let mut seed = self.d.to_canonical_bytes();
            seed.extend_from_slice(&e.to_canonical_bytes());
            seed.extend_from_slice(&attempt.to_be_bytes());
            let k = Fq::from_wide_bytes(&xof(b"peace-ecdsa-k", &seed, 40));
            attempt += 1;
            if k.is_zero() {
                continue;
            }
            let big_r = peace_curve::mul_generator(&k);
            let r = x_to_scalar(&big_r);
            if r.is_zero() {
                continue;
            }
            let k_inv = k.invert().expect("k nonzero");
            let s = k_inv.mul(&e.add(&r.mul(&self.d)));
            if s.is_zero() {
                continue;
            }
            return Signature { r, s };
        }
    }
}

/// An ECDSA-160 public key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey {
    point: AffinePoint,
}

impl fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VerifyingKey({:?})", self.point)
    }
}

impl VerifyingKey {
    /// Encoded length (compressed point).
    pub const ENCODED_LEN: usize = 65;

    /// Verifies `sig` over `msg`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        if sig.r.is_zero() || sig.s.is_zero() {
            return false;
        }
        let e = hash_to_scalar(msg);
        let Some(w) = sig.s.invert() else {
            return false;
        };
        let u1 = e.mul(&w);
        let u2 = sig.r.mul(&w);
        // Shamir's trick: one shared doubling chain for u1·G + u2·Q.
        let point = generator().double_mul_scalar(&u1, &self.point, &u2);
        if point.is_identity() {
            return false;
        }
        x_to_scalar(&point) == sig.r
    }

    /// Compressed 65-byte encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.point.to_compressed()
    }

    /// Parses and validates a compressed public key (on-curve, in-subgroup,
    /// not the identity).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let point = AffinePoint::from_compressed(bytes)?;
        if point.is_identity() || !point.is_in_subgroup() {
            return None;
        }
        Some(Self { point })
    }
}

impl Encode for VerifyingKey {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(&self.to_bytes());
    }
}

impl Decode for VerifyingKey {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        let b = r.get_fixed(Self::ENCODED_LEN)?;
        Self::from_bytes(b).ok_or(peace_wire::WireError::Invalid("ecdsa public key"))
    }
}

/// A [`VerifyingKey`] as its canonical compressed encoding, validated on
/// use — the [`G1Wire`] rule for a key that arrives in a router's
/// certificate with every beacon, and is compared far more often than it
/// verifies anything. Decoding checks the form (canonical, not the
/// identity); the square root and subgroup check run in [`Self::key`] the
/// first time the key is needed, once per value (clones carry the result).
/// Equality, hashing and encoding are by the bytes.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct VerifyingKeyWire {
    point: G1Wire,
}

impl VerifyingKeyWire {
    /// Accepts `bytes` if they are the canonical compressed encoding of a
    /// point other than the identity. No curve arithmetic happens here.
    pub fn parse(bytes: &[u8]) -> Option<Self> {
        G1Wire::parse(bytes)
            .filter(|point| !point.is_identity())
            .map(|point| Self { point })
    }

    /// The key these bytes name.
    ///
    /// # Errors
    ///
    /// [`PointError`] if the bytes, though canonical, name no element of
    /// the order-`q` subgroup.
    pub fn key(&self) -> Result<VerifyingKey, PointError> {
        self.point
            .decompress()
            .map(|p| VerifyingKey { point: *p.point() })
    }

    /// Compressed 65-byte encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.point.to_bytes()
    }
}

impl From<VerifyingKey> for VerifyingKeyWire {
    /// Starts out decompressed.
    fn from(key: VerifyingKey) -> Self {
        Self {
            point: G1::from_point_unchecked(key.point).into(),
        }
    }
}

impl fmt::Debug for VerifyingKeyWire {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VerifyingKeyWire({:?})", self.point)
    }
}

impl Encode for VerifyingKeyWire {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(self.point.as_bytes());
    }
}

impl Decode for VerifyingKeyWire {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        let b = r.get_fixed(VerifyingKey::ENCODED_LEN)?;
        Self::parse(b).ok_or(peace_wire::WireError::Invalid("ecdsa public key"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> SigningKey {
        let mut rng = StdRng::seed_from_u64(5);
        SigningKey::random(&mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = key();
        let sig = sk.sign(b"message");
        assert!(sk.verifying_key().verify(b"message", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let sk = key();
        let sig = sk.sign(b"message");
        assert!(!sk.verifying_key().verify(b"other", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(6);
        let other = SigningKey::random(&mut rng);
        let sig = sk.sign(b"message");
        assert!(!other.verifying_key().verify(b"message", &sig));
    }

    #[test]
    fn deterministic_signing() {
        let sk = key();
        assert_eq!(sk.sign(b"m"), sk.sign(b"m"));
        assert_ne!(sk.sign(b"m"), sk.sign(b"n"));
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let sk = key();
        let sig = sk.sign(b"message");
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), Signature::ENCODED_LEN);
        assert_eq!(Signature::from_bytes(&bytes).unwrap(), sig);
        assert!(Signature::from_bytes(&bytes[1..]).is_none());
        assert!(Signature::from_bytes(&[0u8; 40]).is_none()); // zero r,s
    }

    #[test]
    fn verifying_key_bytes_roundtrip() {
        let sk = key();
        let vk = *sk.verifying_key();
        let bytes = vk.to_bytes();
        assert_eq!(VerifyingKey::from_bytes(&bytes).unwrap(), vk);
        assert!(VerifyingKey::from_bytes(&AffinePoint::IDENTITY.to_compressed()).is_none());
    }

    #[test]
    fn a_key_on_the_wire_is_checked_by_form_and_decompressed_on_use() {
        let sk = key();
        let wire = VerifyingKeyWire::from_wire(&sk.verifying_key().to_wire()).unwrap();
        assert_eq!(wire, VerifyingKeyWire::from(*sk.verifying_key()));
        assert_eq!(wire.key(), Ok(*sk.verifying_key()));
        assert_eq!(wire.to_wire(), sk.verifying_key().to_wire());

        // Canonical, but no subgroup element: parsed, never a key.
        let encode = |x: u64| {
            let mut bytes = vec![0u8; VerifyingKey::ENCODED_LEN];
            bytes[0] = 2;
            bytes[VerifyingKey::ENCODED_LEN - 8..].copy_from_slice(&x.to_be_bytes());
            bytes
        };
        let off_curve = (1..)
            .map(encode)
            .find(|b| AffinePoint::from_compressed(b).is_none())
            .unwrap();
        let outside = (1..)
            .map(encode)
            .find(|b| AffinePoint::from_compressed(b).is_some_and(|p| !p.is_in_subgroup()))
            .unwrap();
        for (bytes, err) in [
            (off_curve, PointError::NotOnCurve),
            (outside, PointError::NotInSubgroup),
        ] {
            let wire = VerifyingKeyWire::parse(&bytes).expect("canonical");
            assert_eq!(wire.key(), Err(err));
            assert!(VerifyingKey::from_bytes(&bytes).is_none());
        }
        // Not canonical, or the identity: refused by the decoder.
        let mut bad_tag = sk.verifying_key().to_bytes();
        bad_tag[0] = 7;
        let mut x_not_reduced = vec![0xFF; VerifyingKey::ENCODED_LEN];
        x_not_reduced[0] = 2;
        for bytes in [
            bad_tag,
            x_not_reduced,
            AffinePoint::IDENTITY.to_compressed(),
        ] {
            assert!(VerifyingKeyWire::parse(&bytes).is_none());
            let mut w = Writer::new();
            w.put_fixed(&bytes);
            assert!(VerifyingKeyWire::from_wire(w.as_bytes()).is_err());
        }
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = key();
        let sig = sk.sign(b"message");
        let mut b = sig.to_bytes();
        b[0] ^= 1;
        if let Some(bad) = Signature::from_bytes(&b) {
            assert!(!sk.verifying_key().verify(b"message", &bad));
        }
    }

    #[test]
    fn signature_size_is_ecdsa_160() {
        // Paper §V.C compares against ECDSA-160 / RSA-1024 sizes.
        let sk = key();
        assert_eq!(sk.sign(b"x").to_bytes().len(), 40);
    }

    #[test]
    fn wire_roundtrip() {
        let sk = key();
        let sig = sk.sign(b"wire");
        let enc = sig.to_wire();
        assert_eq!(Signature::from_wire(&enc).unwrap(), sig);
        let vk = *sk.verifying_key();
        assert_eq!(VerifyingKey::from_wire(&vk.to_wire()).unwrap(), vk);
    }
}
