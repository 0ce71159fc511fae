//! Signed revocation lists: the router-certificate CRL and the user
//! revocation list URL (both broadcast in beacons, both signed by NO).
//!
//! Each list carries a monotonically increasing `version` and an
//! `issued_at` timestamp. Clients enforce a maximum age — the paper's §V.A
//! phishing analysis bounds the window in which a freshly revoked router
//! can still phish by the CRL update period.
//!
//! Routers and clients install lists by one rule, [`admit`].
//!
//! The URL has two forms. [`SignedUrl`] holds decoded tokens, each checked
//! to lie on the curve and in the subgroup: the form a list is enforced
//! from. [`UrlSection`] holds the same list as the bytes the operator
//! signed: the form a beacon carries, so that receiving a beacon costs no
//! point decompression and a client decodes a list once, when it changes.

use peace_ecdsa::{Signature, SigningKey, VerifyingKey};
use peace_groupsig::{GroupPublicKey, RevocationToken};
use peace_wire::{Decode, Encode, Reader, Writer};

use crate::error::{ProtocolError, Result};

/// A list a holder installs by [`admit`]: the CRL or the URL.
pub trait SignedList {
    /// What [`admit`] refuses the list with: a signature the operator did
    /// not make over this holder's transcript, and an older version.
    const REFUSALS: (ProtocolError, ProtocolError);
    /// The list's version.
    fn version(&self) -> u64;
    /// Whether `npk` signed this list for holders of `gpk`'s epoch.
    fn signed_by(&self, npk: &VerifyingKey, gpk: &GroupPublicKey) -> bool;
}

/// The one rule by which a router or a client installs `offered` in place
/// of the list it holds at version `held` (0 for none): `npk` signed it —
/// a URL over a transcript naming `gpk`, so a list issued for another
/// epoch verifies for no holder of this one — and its version is not
/// older. A refusal leaves the held list in force. Age is not part of it:
/// a client checks that where it uses a list.
///
/// # Errors
///
/// `L::REFUSALS`: `Bad{Crl,Url}Signature`, then `Stale{Crl,Url}`.
pub fn admit<L: SignedList>(
    offered: &L,
    held: u64,
    npk: &VerifyingKey,
    gpk: &GroupPublicKey,
) -> Result<()> {
    let (forged, older) = L::REFUSALS;
    if !offered.signed_by(npk, gpk) {
        return Err(forged);
    }
    if offered.version() < held {
        return Err(older);
    }
    Ok(())
}

/// Signed certificate revocation list (revoked router certificate serials).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignedCrl {
    /// Monotone version number.
    pub version: u64,
    /// Issue time (protocol ms).
    pub issued_at: u64,
    /// Revoked certificate serials.
    pub serials: Vec<u64>,
    /// Operator signature.
    pub signature: Signature,
}

impl SignedCrl {
    fn tbs(version: u64, issued_at: u64, serials: &[u64]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("peace-crl-v1");
        w.put_u64(version);
        w.put_u64(issued_at);
        w.put_seq(serials);
        w.into_bytes()
    }

    /// Issues a signed CRL.
    pub fn issue(signer: &SigningKey, version: u64, issued_at: u64, serials: Vec<u64>) -> Self {
        let signature = signer.sign(&Self::tbs(version, issued_at, &serials));
        Self {
            version,
            issued_at,
            serials,
            signature,
        }
    }

    /// Whether the list is still within `max_age` (the CRL update period)
    /// at `now`.
    pub(crate) fn check_fresh(&self, now: u64, max_age: u64) -> Result<()> {
        if now > self.issued_at.saturating_add(max_age) {
            return Err(ProtocolError::StaleCrl);
        }
        Ok(())
    }

    /// Whether a certificate serial has been revoked.
    pub fn contains(&self, serial: u64) -> bool {
        self.serials.contains(&serial)
    }
}

impl SignedList for SignedCrl {
    const REFUSALS: (ProtocolError, ProtocolError) =
        (ProtocolError::BadCrlSignature, ProtocolError::StaleCrl);

    fn version(&self) -> u64 {
        self.version
    }

    fn signed_by(&self, npk: &VerifyingKey, _: &GroupPublicKey) -> bool {
        npk.verify(
            &Self::tbs(self.version, self.issued_at, &self.serials),
            &self.signature,
        )
    }
}

impl Encode for SignedCrl {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.version);
        w.put_u64(self.issued_at);
        w.put_seq(&self.serials);
        self.signature.encode(w);
    }
}

impl Decode for SignedCrl {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(Self {
            version: r.get_u64()?,
            issued_at: r.get_u64()?,
            serials: r.get_seq()?,
            signature: Signature::decode(r)?,
        })
    }
}

/// Signed user revocation list — the subset of `grt` whose keys have been
/// revoked (paper: `URL ⊆ grt`, broadcast in beacons).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignedUrl {
    /// Monotone version number.
    pub version: u64,
    /// Issue time (protocol ms).
    pub issued_at: u64,
    /// Revocation tokens of revoked group private keys.
    pub tokens: Vec<RevocationToken>,
    /// Operator signature.
    pub signature: Signature,
}

/// Encoded size of one revocation token (a compressed 𝔾₁ point).
const TOKEN_LEN: usize = peace_curve::G1::ENCODED_LEN;

/// The concatenated 65-byte encodings of `tokens` — the body of the
/// sequence as both wire forms and the signed transcript carry it.
fn encode_tokens(tokens: &[RevocationToken]) -> Vec<u8> {
    let mut w = Writer::with_capacity(tokens.len() * TOKEN_LEN);
    for t in tokens {
        t.encode(&mut w);
    }
    w.into_bytes()
}

/// The digest of `gpk` a URL's transcript names.
pub fn gpk_digest(gpk: &GroupPublicKey) -> [u8; 32] {
    peace_hash::sha256(&gpk.to_bytes())
}

/// The transcript the operator signs: behind a domain label, the digest of
/// the group key the list is issued for, then the list's wire encoding
/// (minus the signature). `token_bytes` is a whole number of token
/// encodings.
fn url_tbs(gpk: &GroupPublicKey, version: u64, issued_at: u64, token_bytes: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(72 + token_bytes.len());
    w.put_str("peace-url-v2");
    w.put_fixed(&gpk_digest(gpk));
    w.put_u64(version);
    w.put_u64(issued_at);
    w.put_len(token_bytes.len() / TOKEN_LEN);
    w.put_fixed(token_bytes);
    w.into_bytes()
}

impl SignedUrl {
    /// Issues a signed URL for holders of `gpk`.
    pub fn issue(
        signer: &SigningKey,
        gpk: &GroupPublicKey,
        version: u64,
        issued_at: u64,
        tokens: Vec<RevocationToken>,
    ) -> Self {
        let signature = signer.sign(&url_tbs(gpk, version, issued_at, &encode_tokens(&tokens)));
        Self {
            version,
            issued_at,
            tokens,
            signature,
        }
    }
}

impl Encode for SignedUrl {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.version);
        w.put_u64(self.issued_at);
        w.put_seq(&self.tokens);
        self.signature.encode(w);
    }
}

impl Decode for SignedUrl {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(Self {
            version: r.get_u64()?,
            issued_at: r.get_u64()?,
            tokens: r.get_seq()?,
            signature: Signature::decode(r)?,
        })
    }
}

/// A [`SignedUrl`] with its tokens left as the bytes the operator signed —
/// byte for byte the same wire encoding. The operator's signature is
/// checked over those bytes directly; [`Self::open`] is the only way to the
/// tokens, and it checks every one.
#[derive(Clone, PartialEq, Eq)]
pub struct UrlSection {
    /// Monotone version number.
    pub version: u64,
    /// Issue time (protocol ms).
    pub issued_at: u64,
    /// The token encodings, concatenated, undecoded.
    token_bytes: Vec<u8>,
    /// Operator signature.
    pub signature: Signature,
}

impl UrlSection {
    fn token_count(&self) -> usize {
        self.token_bytes.len() / TOKEN_LEN
    }

    /// Whether the list is still within `max_age` at `now`.
    pub(crate) fn check_fresh(&self, now: u64, max_age: u64) -> Result<()> {
        if now > self.issued_at.saturating_add(max_age) {
            return Err(ProtocolError::StaleUrl);
        }
        Ok(())
    }

    /// Decodes the list, checking every token for canonical encoding, curve
    /// and subgroup membership.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Wire`] at the first token that fails.
    pub fn open(&self) -> Result<SignedUrl> {
        Ok(self.with_tokens(self.open_tokens()?))
    }

    /// The decoding half of [`Self::open`].
    pub(crate) fn open_tokens(&self) -> Result<Vec<RevocationToken>> {
        Ok(self
            .token_bytes
            .chunks(TOKEN_LEN)
            .map(RevocationToken::from_wire)
            .collect::<peace_wire::Result<_>>()?)
    }

    /// Whether `other` lists the same tokens byte for byte, whatever its
    /// version, issue time and signature say.
    pub(crate) fn same_tokens(&self, other: &Self) -> bool {
        self.token_bytes == other.token_bytes
    }

    /// This section over `tokens`, which must be what its bytes decode to:
    /// freshly decoded, or kept from a section with the
    /// [same token bytes](Self::same_tokens).
    pub(crate) fn with_tokens(&self, tokens: Vec<RevocationToken>) -> SignedUrl {
        SignedUrl {
            version: self.version,
            issued_at: self.issued_at,
            tokens,
            signature: self.signature,
        }
    }
}

/// Checks the operator's signature over the token bytes: decodes no token.
impl SignedList for UrlSection {
    const REFUSALS: (ProtocolError, ProtocolError) =
        (ProtocolError::BadUrlSignature, ProtocolError::StaleUrl);

    fn version(&self) -> u64 {
        self.version
    }

    fn signed_by(&self, npk: &VerifyingKey, gpk: &GroupPublicKey) -> bool {
        npk.verify(
            &url_tbs(gpk, self.version, self.issued_at, &self.token_bytes),
            &self.signature,
        )
    }
}

impl From<&SignedUrl> for UrlSection {
    fn from(url: &SignedUrl) -> Self {
        Self {
            version: url.version,
            issued_at: url.issued_at,
            token_bytes: encode_tokens(&url.tokens),
            signature: url.signature,
        }
    }
}

impl std::fmt::Debug for UrlSection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UrlSection")
            .field("version", &self.version)
            .field("issued_at", &self.issued_at)
            .field("tokens", &self.token_count())
            .finish()
    }
}

impl Encode for UrlSection {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.version);
        w.put_u64(self.issued_at);
        w.put_len(self.token_count());
        w.put_fixed(&self.token_bytes);
        self.signature.encode(w);
    }
}

impl Decode for UrlSection {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        let version = r.get_u64()?;
        let issued_at = r.get_u64()?;
        let len = (r.get_u32()? as usize)
            .checked_mul(TOKEN_LEN)
            .filter(|&len| len <= r.remaining())
            .ok_or(peace_wire::WireError::LengthOutOfRange)?;
        Ok(Self {
            version,
            issued_at,
            token_bytes: r.get_fixed(len)?.to_vec(),
            signature: Signature::decode(r)?,
        })
    }
}

/// The canonical (sorted-by-encoding) ordering of a token set — the
/// order-insensitive form both sides of a re-stamp can reconstruct.
fn canonical_tokens(tokens: &[RevocationToken]) -> Vec<RevocationToken> {
    let mut v = tokens.to_vec();
    v.sort_unstable_by_key(RevocationToken::to_bytes);
    v
}

/// A detached URL freshness re-stamp: the operator's signature over the
/// *same* transcript as [`SignedUrl`], with the token sequence in
/// canonical order. A delta-synced consumer already holds the token set,
/// so it reconstructs the canonical sequence locally and materializes a
/// fresh, fully-valid [`SignedUrl`] from O(1) wire bytes — this is what
/// keeps beacons' URL freshness alive across delta-only refresh cycles.
/// (Canonical order matters: stores on the two sides may hold the same
/// set in different `swap_remove` orders after interleaved churn.)
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UrlRestamp {
    /// The URL version this re-stamp attests.
    pub version: u64,
    /// Issue time (protocol ms).
    pub issued_at: u64,
    /// Operator signature over the canonical-order [`SignedUrl`] transcript.
    pub signature: Signature,
}

impl UrlRestamp {
    /// Issues a re-stamp over the canonical ordering of `tokens`, for
    /// holders of `gpk`.
    pub fn issue(
        signer: &SigningKey,
        gpk: &GroupPublicKey,
        version: u64,
        issued_at: u64,
        tokens: &[RevocationToken],
    ) -> Self {
        let signature = signer.sign(&url_tbs(
            gpk,
            version,
            issued_at,
            &encode_tokens(&canonical_tokens(tokens)),
        ));
        Self {
            version,
            issued_at,
            signature,
        }
    }

    /// Materializes the full [`SignedUrl`] this re-stamp attests, given
    /// the token set the consumer holds (any order). The result passes
    /// [`admit`] iff the set matches what the operator signed.
    pub fn into_signed_url(&self, tokens: &[RevocationToken]) -> SignedUrl {
        SignedUrl {
            version: self.version,
            issued_at: self.issued_at,
            tokens: canonical_tokens(tokens),
            signature: self.signature,
        }
    }
}

impl Encode for UrlRestamp {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.version);
        w.put_u64(self.issued_at);
        self.signature.encode(w);
    }
}

impl Decode for UrlRestamp {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(Self {
            version: r.get_u64()?,
            issued_at: r.get_u64()?,
            signature: Signature::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peace_groupsig::IssuerKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn signer() -> SigningKey {
        let mut rng = StdRng::seed_from_u64(3);
        SigningKey::random(&mut rng)
    }

    fn gpk(seed: u64) -> GroupPublicKey {
        *IssuerKey::generate(&mut StdRng::seed_from_u64(seed)).public_key()
    }

    #[test]
    fn crl_validate_and_lookup() {
        let sk = signer();
        let crl = SignedCrl::issue(&sk, 1, 100, vec![5, 9]);
        assert!(admit(&crl, 1, sk.verifying_key(), &gpk(1)).is_ok());
        assert!(crl.check_fresh(150, 1000).is_ok());
        assert!(crl.contains(5));
        assert!(!crl.contains(6));
    }

    #[test]
    fn crl_stale_rejected() {
        let sk = signer();
        let crl = SignedCrl::issue(&sk, 1, 100, vec![]);
        assert_eq!(
            crl.check_fresh(100 + 1001, 1000),
            Err(ProtocolError::StaleCrl)
        );
        // boundary: exactly max_age old is acceptable
        assert!(crl.check_fresh(1100, 1000).is_ok());
        // older than the held list: refused whatever its age
        assert_eq!(
            admit(&crl, 2, sk.verifying_key(), &gpk(1)),
            Err(ProtocolError::StaleCrl)
        );
    }

    #[test]
    fn crl_tamper_rejected() {
        let sk = signer();
        let mut crl = SignedCrl::issue(&sk, 1, 100, vec![5]);
        crl.serials.push(6);
        assert_eq!(
            admit(&crl, 0, sk.verifying_key(), &gpk(1)),
            Err(ProtocolError::BadCrlSignature)
        );
    }

    #[test]
    fn crl_wire_roundtrip() {
        let sk = signer();
        let crl = SignedCrl::issue(&sk, 7, 100, vec![1, 2, 3]);
        assert_eq!(SignedCrl::from_wire(&crl.to_wire()).unwrap(), crl);
    }

    #[test]
    fn url_restamp_order_insensitive_and_set_bound() {
        let mut rng = StdRng::seed_from_u64(8);
        let sk = signer();
        let gpk = gpk(1);
        let tokens: Vec<RevocationToken> = (0..5)
            .map(|_| RevocationToken(peace_curve::G1::random(&mut rng)))
            .collect();
        let restamp = UrlRestamp::issue(&sk, &gpk, 7, 500, &tokens);
        assert_eq!(UrlRestamp::from_wire(&restamp.to_wire()).unwrap(), restamp);
        let admit_url =
            |url: &SignedUrl| admit(&UrlSection::from(url), 7, sk.verifying_key(), &gpk);

        // The consumer may hold the same set in any order (swap_remove
        // divergence): the materialized SignedUrl still verifies.
        let mut shuffled = tokens.clone();
        shuffled.reverse();
        shuffled.swap(0, 2);
        let url = restamp.into_signed_url(&shuffled);
        assert!(admit_url(&url).is_ok());
        assert_eq!(url.version, 7);

        // A different set must not verify — the re-stamp binds the set.
        let mut other = tokens.clone();
        other[0] = RevocationToken(peace_curve::G1::random(&mut rng));
        assert_eq!(
            admit_url(&restamp.into_signed_url(&other)),
            Err(ProtocolError::BadUrlSignature)
        );
    }

    #[test]
    fn url_validate_tamper_and_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        let sk = signer();
        let issuer = IssuerKey::generate(&mut rng);
        let grp = issuer.new_group_secret(&mut rng);
        let tok = issuer.issue(&grp, &mut rng).revocation_token();
        let gpk = issuer.public_key();
        let url = SignedUrl::issue(&sk, gpk, 2, 50, vec![tok]);
        let section = UrlSection::from(&url);
        assert!(admit(&section, 2, sk.verifying_key(), gpk).is_ok());
        assert!(section.check_fresh(60, 500).is_ok());
        assert_eq!(SignedUrl::from_wire(&url.to_wire()).unwrap(), url);

        let mut bad = url.clone();
        bad.version = 3;
        assert_eq!(
            admit(&UrlSection::from(&bad), 0, sk.verifying_key(), gpk),
            Err(ProtocolError::BadUrlSignature)
        );
        // Issued for another epoch's key: verifies for no holder of this one.
        assert_eq!(
            admit(&section, 0, sk.verifying_key(), &super::tests::gpk(9)),
            Err(ProtocolError::BadUrlSignature)
        );
        assert_eq!(
            section.check_fresh(551 + 50, 500),
            Err(ProtocolError::StaleUrl)
        );
    }
}
