//! Mesh-router public-key certificates (the paper's `Cert_k`).
//!
//! `Cert_k = { MR_k, RPK_k, ExpT, Sig_NSK }` — subject identifier, router
//! public key, expiration time, and the network operator's ECDSA signature.
//! A serial number is added so certificates can be listed on a CRL.

use core::fmt;

use peace_wire::{Decode, Encode, Reader, Writer};

use crate::{Signature, SigningKey, VerifyingKey, VerifyingKeyWire};

/// Why certificate validation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertificateError {
    /// The operator signature did not verify.
    BadSignature,
    /// The certificate expired before the supplied time.
    Expired,
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::BadSignature => write!(f, "certificate signature invalid"),
            CertificateError::Expired => write!(f, "certificate expired"),
        }
    }
}

impl std::error::Error for CertificateError {}

/// A router certificate signed by the network operator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Certificate {
    /// Serial number (referenced by the CRL).
    pub serial: u64,
    /// Subject identifier (`MR_k`).
    pub subject: String,
    /// The router's public key (`RPK_k`), as the bytes the operator
    /// signed: decoding a certificate costs no curve arithmetic, and a
    /// client that holds this certificate verifies under the key it has
    /// already decompressed.
    pub public_key: VerifyingKeyWire,
    /// Expiration time (`ExpT`), in protocol time units (ms).
    pub expires_at: u64,
    /// Operator signature (`Sig_NSK`) over the fields above.
    pub signature: Signature,
}

impl Certificate {
    fn tbs(serial: u64, subject: &str, public_key: &VerifyingKeyWire, expires_at: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("peace-cert-v1");
        w.put_u64(serial);
        w.put_str(subject);
        public_key.encode(&mut w);
        w.put_u64(expires_at);
        w.into_bytes()
    }

    /// Issues a certificate signed by `issuer` (the network operator).
    pub fn issue(
        issuer: &SigningKey,
        serial: u64,
        subject: &str,
        public_key: impl Into<VerifyingKeyWire>,
        expires_at: u64,
    ) -> Self {
        let public_key = public_key.into();
        let signature = issuer.sign(&Self::tbs(serial, subject, &public_key, expires_at));
        Self {
            serial,
            subject: subject.to_owned(),
            public_key,
            expires_at,
            signature,
        }
    }

    /// Validates the certificate against the issuer public key at time `now`.
    ///
    /// # Errors
    ///
    /// [`CertificateError::BadSignature`] if the signature fails,
    /// [`CertificateError::Expired`] if `now > expires_at`.
    pub fn validate(&self, issuer: &VerifyingKey, now: u64) -> Result<(), CertificateError> {
        let tbs = Self::tbs(
            self.serial,
            &self.subject,
            &self.public_key,
            self.expires_at,
        );
        if !issuer.verify(&tbs, &self.signature) {
            return Err(CertificateError::BadSignature);
        }
        self.check_unexpired(now)
    }

    /// The half of [`Self::validate`] that time can change — all that needs
    /// re-checking on a certificate whose signature has been verified.
    ///
    /// # Errors
    ///
    /// [`CertificateError::Expired`] if `now > expires_at`.
    pub fn check_unexpired(&self, now: u64) -> Result<(), CertificateError> {
        if now > self.expires_at {
            return Err(CertificateError::Expired);
        }
        Ok(())
    }
}

impl Encode for Certificate {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.serial);
        w.put_str(&self.subject);
        self.public_key.encode(w);
        w.put_u64(self.expires_at);
        self.signature.encode(w);
    }
}

impl Decode for Certificate {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(Self {
            serial: r.get_u64()?,
            subject: r.get_str()?,
            public_key: VerifyingKeyWire::decode(r)?,
            expires_at: r.get_u64()?,
            signature: Signature::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keys() -> (SigningKey, SigningKey) {
        let mut rng = StdRng::seed_from_u64(11);
        (SigningKey::random(&mut rng), SigningKey::random(&mut rng))
    }

    #[test]
    fn issue_and_validate() {
        let (ca, router) = keys();
        let cert = Certificate::issue(&ca, 1, "MR-17", *router.verifying_key(), 10_000);
        assert!(cert.validate(ca.verifying_key(), 5_000).is_ok());
    }

    #[test]
    fn expired_certificate_rejected() {
        let (ca, router) = keys();
        let cert = Certificate::issue(&ca, 1, "MR-17", *router.verifying_key(), 10_000);
        assert_eq!(
            cert.validate(ca.verifying_key(), 10_001),
            Err(CertificateError::Expired)
        );
        // boundary: exactly at expiry is still valid
        assert!(cert.validate(ca.verifying_key(), 10_000).is_ok());
    }

    #[test]
    fn forged_certificate_rejected() {
        let (ca, router) = keys();
        let mut cert = Certificate::issue(&ca, 1, "MR-17", *router.verifying_key(), 10_000);
        cert.subject = "MR-99".into(); // tamper after signing
        assert_eq!(
            cert.validate(ca.verifying_key(), 0),
            Err(CertificateError::BadSignature)
        );
    }

    #[test]
    fn wrong_issuer_rejected() {
        let (ca, router) = keys();
        let cert = Certificate::issue(&ca, 1, "MR-17", *router.verifying_key(), 10_000);
        assert_eq!(
            cert.validate(router.verifying_key(), 0),
            Err(CertificateError::BadSignature)
        );
    }

    #[test]
    fn wire_roundtrip() {
        let (ca, router) = keys();
        let cert = Certificate::issue(&ca, 77, "MR-x", *router.verifying_key(), 123);
        let enc = cert.to_wire();
        let back = Certificate::from_wire(&enc).unwrap();
        assert_eq!(back, cert);
        assert!(back.validate(ca.verifying_key(), 0).is_ok());
    }
}
