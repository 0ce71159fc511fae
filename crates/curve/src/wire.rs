//! The compressed form of a 𝔾₁ element as a value of its own.
//!
//! A point that arrives as bytes — off a socket, out of a ledger segment —
//! is often only hashed, chained, forwarded or compared. Turning it into a
//! [`G1`] costs a field square root and a subgroup check (a full scalar
//! multiplication), so [`G1Wire`] holds the 65 bytes, checks their *form*
//! when it is built, and does the expensive part in [`G1Wire::decompress`],
//! the first time someone needs the point, once.
//!
//! The predicate is stated once: a 65-byte string names a 𝔾₁ element iff
//! it is **canonical** ([`G1Wire::parse`]), **on the curve** and **in the
//! order-`q` subgroup** ([`G1Wire::decompress`]). `G1::from_bytes` is the
//! composition of the two and nothing else.

use core::fmt;
use std::sync::OnceLock;

use peace_field::Fp;

use crate::groups::{hash_to_g2, hash_to_g2_preimage, G2Preimage, G1, G2};
use crate::point::AffinePoint;

/// Why canonical bytes do not name a group element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointError {
    /// `x³ + x` is not a square: no curve point has this x-coordinate.
    NotOnCurve,
    /// The point is on the curve but outside the order-`q` subgroup.
    NotInSubgroup,
}

impl PointError {
    /// Stable machine-readable identifier for this failure class.
    pub fn code(&self) -> &'static str {
        match self {
            PointError::NotOnCurve => "point_not_on_curve",
            PointError::NotInSubgroup => "point_not_in_subgroup",
        }
    }
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointError::NotOnCurve => write!(f, "compressed point is not on the curve"),
            PointError::NotInSubgroup => write!(f, "point is outside the order-q subgroup"),
        }
    }
}

impl std::error::Error for PointError {}

/// Square root, parity and subgroup check of a compressed point — the
/// whole cost of admitting bytes into the group.
fn decompress(bytes: &[u8]) -> Result<AffinePoint, PointError> {
    let p = AffinePoint::from_compressed(bytes).ok_or(PointError::NotOnCurve)?;
    if p.is_in_subgroup() {
        Ok(p)
    } else {
        Err(PointError::NotInSubgroup)
    }
}

/// Whether `bytes` is the canonical compressed form of *some* x-coordinate
/// and sign: 65 bytes; tag 0 with an all-zero body (the identity), or tag
/// 2/3 with `0 < x < p`. `x = 0` is refused here: it is the 2-torsion point
/// `(0, 0)`, outside every odd-order subgroup, and the one x-coordinate
/// whose two tags name the same point.
fn is_canonical(bytes: &[u8]) -> bool {
    if bytes.len() != G1::ENCODED_LEN {
        return false;
    }
    let body_is_zero = bytes[1..].iter().all(|&b| b == 0);
    match bytes[0] {
        0 => body_is_zero,
        2 | 3 => !body_is_zero && Fp::from_canonical_bytes(&bytes[1..]).is_some(),
        _ => false,
    }
}

/// A 𝔾₁ element as its canonical 65-byte compressed encoding, validated on
/// use.
///
/// Equality, hashing and encoding are all by the bytes; the point
/// behind them is computed by [`Self::decompress`] at most once per value
/// (clones carry the result along). A value built [`From`] a [`G1`] starts
/// out decompressed.
#[derive(Clone)]
pub struct G1Wire {
    bytes: [u8; G1::ENCODED_LEN],
    point: OnceLock<Result<G1, PointError>>,
}

impl G1Wire {
    /// Size of the encoding in bytes.
    pub const ENCODED_LEN: usize = G1::ENCODED_LEN;

    /// Accepts `bytes` if they are canonical (see the module docs). No
    /// field arithmetic beyond the `x < p` comparison happens here.
    pub fn parse(bytes: &[u8]) -> Option<Self> {
        is_canonical(bytes).then(|| {
            let mut own = [0u8; G1::ENCODED_LEN];
            own.copy_from_slice(bytes);
            Self {
                bytes: own,
                point: OnceLock::new(),
            }
        })
    }

    /// The group element these bytes name: square root, parity, subgroup
    /// check — on the first call; later calls (and clones made after it)
    /// return the remembered answer.
    ///
    /// # Errors
    ///
    /// [`PointError`] if the bytes, though canonical, name no element of
    /// the subgroup.
    pub fn decompress(&self) -> Result<G1, PointError> {
        *self.point.get_or_init(|| decompress(&self.bytes).map(G1))
    }

    /// Decompresses every encoding not yet decompressed, so that each
    /// later [`Self::decompress`] is a lookup giving what it would have
    /// computed, counted as it would have counted: [`decompress_and_hash`]
    /// with nothing to hash.
    pub fn decompress_all(wires: &[&G1Wire]) {
        decompress_and_hash(wires, &[], &[]);
    }

    /// The encoding.
    pub fn as_bytes(&self) -> &[u8; G1::ENCODED_LEN] {
        &self.bytes
    }

    /// The encoding, owned (mirrors [`G1::to_bytes`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.to_vec()
    }

    /// Whether this is the encoding of the identity.
    pub fn is_identity(&self) -> bool {
        self.bytes[0] == 0
    }
}

impl From<G1> for G1Wire {
    fn from(p: G1) -> Self {
        Self {
            bytes: p.g1_bytes(),
            point: OnceLock::from(Ok(p)),
        }
    }
}

impl PartialEq for G1Wire {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for G1Wire {}

impl core::hash::Hash for G1Wire {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.bytes.hash(state);
    }
}

impl fmt::Debug for G1Wire {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G1Wire({:02x}:", self.bytes[0])?;
        for b in &self.bytes[1..9] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

/// What admitting a request's points costs, in one call: every wire of
/// `wires` not yet decompressed is decompressed ([`G1Wire::decompress_all`]:
/// each later [`G1Wire::decompress`] is a lookup), and H₀ is taken of
/// each input ([`hash_to_g2_many`](crate::hash_to_g2_many): [`hash_to_g2`]
/// of each of `cleared`, [`hash_to_g2_preimage`] of each of `preimages`).
/// With AVX-512 IFMA the square roots of both kinds share one chain per
/// eight, and the subgroup checks and cofactor clearings one ladder per
/// eight; elsewhere, and for a lone value, they run one by one. Byte for
/// byte the same points and refusals, counted the same.
pub fn decompress_and_hash(
    wires: &[&G1Wire],
    cleared: &[(&[u8], &[u8])],
    preimages: &[(&[u8], &[u8])],
) -> (Vec<G2>, Vec<G2Preimage>) {
    let pending: Vec<&G1Wire> = wires
        .iter()
        .copied()
        .filter(|w| w.point.get().is_none() && !w.is_identity())
        .collect();
    #[cfg(target_arch = "x86_64")]
    {
        let encodings: Vec<&[u8; G1::ENCODED_LEN]> = pending.iter().map(|w| &w.bytes).collect();
        if let Some((points, cleared, preimages)) =
            crate::lanes::admit(&encodings, cleared, preimages)
        {
            for (w, point) in pending.iter().zip(points) {
                // Another thread may have decided first: same answer.
                let _ = w.point.set(point);
            }
            return (
                cleared.into_iter().map(G2).collect(),
                preimages.into_iter().map(G2Preimage).collect(),
            );
        }
    }
    for w in pending {
        let _ = w.decompress();
    }
    (
        cleared
            .iter()
            .map(|(label, msg)| hash_to_g2(label, msg))
            .collect(),
        preimages
            .iter()
            .map(|(label, msg)| hash_to_g2_preimage(label, msg))
            .collect(),
    )
}

/// A 𝔾₁ element that can state its 65-byte encoding without any validation
/// work: a [`G1`] encodes itself, a [`G1Wire`] already is the bytes. What a
/// transcript, a session id or a signed payload is built from.
pub trait G1Encoded {
    /// The canonical compressed encoding.
    fn g1_bytes(&self) -> [u8; G1::ENCODED_LEN];
}

impl G1Encoded for G1 {
    fn g1_bytes(&self) -> [u8; G1::ENCODED_LEN] {
        let mut bytes = [0u8; G1::ENCODED_LEN];
        bytes.copy_from_slice(&self.to_bytes());
        bytes
    }
}

impl G1Encoded for G1Wire {
    fn g1_bytes(&self) -> [u8; G1::ENCODED_LEN] {
        self.bytes
    }
}
