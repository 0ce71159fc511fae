//! The bilinear groups 𝔾₁ and 𝔾₂ and the isomorphism ψ.
//!
//! The paper works with asymmetric groups `(𝔾₁, 𝔾₂)` linked by an
//! efficiently computable isomorphism `ψ : 𝔾₂ → 𝔾₁` with `ψ(g₂) = g₁`.
//! On our supersingular (Type-1) instantiation both groups are the same
//! order-`q` subgroup of `E(F_p)`, and ψ is the identity on coordinates —
//! the newtypes below keep the paper's formal distinction so the protocol
//! code reads exactly like §IV.

use core::fmt;
use std::sync::OnceLock;

use peace_field::Fq;
use rand::RngCore;

use crate::point::{generator, AffinePoint};
use crate::wire::G1Wire;

/// An element of 𝔾₁ (order-`q` subgroup of `E(F_p)`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct G1(pub(crate) AffinePoint);

/// An element of 𝔾₂. Same underlying group on a Type-1 pairing; kept as a
/// distinct type so protocol code mirrors the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct G2(pub(crate) AffinePoint);

macro_rules! group_impl {
    ($name:ident, $gen_doc:literal) => {
        impl $name {
            /// The identity element.
            pub const IDENTITY: Self = Self(AffinePoint::IDENTITY);

            #[doc = $gen_doc]
            pub fn generator() -> Self {
                Self(generator())
            }

            /// Wraps a subgroup point.
            ///
            /// Returns `None` if the point is not on the curve or not in the
            /// order-`q` subgroup.
            pub fn from_point(p: AffinePoint) -> Option<Self> {
                if p.is_on_curve() && p.is_in_subgroup() {
                    Some(Self(p))
                } else {
                    None
                }
            }

            /// Wraps a point without subgroup checking (trusted internal use).
            pub fn from_point_unchecked(p: AffinePoint) -> Self {
                Self(p)
            }

            /// The underlying curve point.
            pub fn point(&self) -> &AffinePoint {
                &self.0
            }

            /// Whether this is the identity.
            pub fn is_identity(&self) -> bool {
                self.0.is_identity()
            }

            /// Group operation.
            pub fn add(&self, rhs: &Self) -> Self {
                Self(self.0.add(&rhs.0))
            }

            /// Inverse element.
            pub fn neg(&self) -> Self {
                Self(self.0.neg())
            }

            /// Subtraction (`self + (−rhs)`); the paper's `T₂ / A`.
            pub fn sub(&self, rhs: &Self) -> Self {
                Self(self.0.add(&rhs.0.neg()))
            }

            /// Scalar multiplication — the paper's exponentiation `g^k`.
            pub fn mul(&self, k: &Fq) -> Self {
                Self(self.0.mul_scalar(k))
            }

            /// Simultaneous `self^a · other^b` via a shared doubling chain
            /// (Shamir's trick) — cheaper than two separate exponentiations.
            pub fn mul_mul(&self, a: &Fq, other: &Self, b: &Fq) -> Self {
                Self(self.0.double_mul_scalar(a, &other.0, b))
            }

            /// `self^k` for every `k` in `scalars` over one shared doubling
            /// chain and one normalization — cheaper than `scalars.len()`
            /// separate exponentiations from the second scalar on, and
            /// counted as that many.
            pub fn mul_many(&self, scalars: &[Fq]) -> Vec<Self> {
                let powers = self.0.to_projective().mul_many(scalars);
                powers.into_iter().map(Self).collect()
            }

            /// `g^k` for the fixed generator `g`, from the process-wide
            /// comb table (additions only, no doublings).
            pub fn mul_generator(k: &Fq) -> Self {
                Self(crate::fixed_base::mul_generator(k))
            }

            /// A uniformly random non-identity element:
            /// [`Self::mul_generator`] of one `Fq::random_nonzero` draw.
            pub fn random(rng: &mut impl RngCore) -> Self {
                Self(AffinePoint::random_subgroup(rng))
            }

            /// Compressed 65-byte encoding.
            pub fn to_bytes(&self) -> Vec<u8> {
                self.0.to_compressed()
            }

            /// Decodes and validates, eagerly: [`G1Wire::parse`] (canonical
            /// form) then [`G1Wire::decompress`] (curve and subgroup
            /// membership) — the one predicate, composed.
            pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
                let point = G1Wire::parse(bytes)?.decompress().ok()?;
                Some(Self(point.0))
            }

            /// Size of the compressed encoding in bytes.
            pub const ENCODED_LEN: usize = 65;
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({:?})", stringify!($name), self.0)
            }
        }
    };
}

group_impl!(G1, "The fixed generator `g₁ = ψ(g₂)`.");
group_impl!(G2, "The fixed generator `g₂`.");

/// The isomorphism `ψ : 𝔾₂ → 𝔾₁` with `ψ(g₂) = g₁`.
///
/// On this Type-1 instantiation ψ is the identity on coordinates; it exists
/// as a function so the protocol code matches the paper's notation.
pub fn psi(q: &G2) -> G1 {
    G1(q.0)
}

/// Hashes a message to a 𝔾₁ element (try-and-increment, then cofactor
/// clearing by the x-only ladder). Deterministic in `(label, msg)`.
pub fn hash_to_g1(label: &[u8], msg: &[u8]) -> G1 {
    G1(hash_to_point(label, msg))
}

/// Hashes a message to a 𝔾₂ element.
pub fn hash_to_g2(label: &[u8], msg: &[u8]) -> G2 {
    G2(hash_to_point(label, msg))
}

/// A point of `E(F_p)` that [`hash_to_g2_preimage`] found and whose
/// cofactor is never cleared: it stands for the 𝔾₂ element `[c]Q` that
/// [`hash_to_g2`] returns for the same input. Not a `G2` — it lies outside
/// the order-`q` subgroup — so it can only be handed to what takes it: a
/// pairing's second argument, where by bilinearity
/// `ê(P, [c]Q) = ê(P, Q)^c̄` with `c̄ = c mod q` ([`Self::exponent`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct G2Preimage(AffinePoint);

impl G2Preimage {
    /// The curve point `Q`.
    pub fn point(&self) -> &AffinePoint {
        &self.0
    }

    /// `c̄ = c mod q`, the exponent that carries the uncleared cofactor
    /// through a pairing (reduced pairing values lie in `μ_q`).
    pub fn exponent() -> &'static Fq {
        static C_MOD_Q: OnceLock<Fq> = OnceLock::new();
        C_MOD_Q.get_or_init(|| Fq::from_wide_bytes(&peace_field::cofactor().to_be_bytes()))
    }
}

/// H₀ stopped before its cofactor clearing: the first try-and-increment
/// candidate on the curve, whose multiple by `c` is [`hash_to_g2`]'s output.
///
/// The two differ only where [`hash_to_g2`] skips a candidate whose
/// cleared point is the identity — a point of order dividing `c`, found
/// with probability about `1/q`.
pub fn hash_to_g2_preimage(label: &[u8], msg: &[u8]) -> G2Preimage {
    G2Preimage(try_and_increment(label, msg, 0).0)
}

pub(crate) fn hash_to_point(label: &[u8], msg: &[u8]) -> AffinePoint {
    let mut ctr = 0;
    loop {
        let (candidate, at) = try_and_increment(label, msg, ctr);
        let p = candidate.clear_cofactor();
        if !p.is_identity() {
            return p;
        }
        ctr = at + 1;
    }
}

/// The first curve point H₀ finds from counter `ctr` on, and its counter.
fn try_and_increment(label: &[u8], msg: &[u8], ctr: u32) -> (AffinePoint, u32) {
    let c = Candidate::first(label, msg, ctr);
    let root = c.rhs.sqrt().expect("the Jacobi symbol is not −1");
    (c.point(&root), c.ctr)
}

/// H₀'s first candidate on the curve: its counter, `x`, `x³ + x` (a
/// residue or zero) and the sign bit its `y` takes.
pub(crate) struct Candidate {
    pub(crate) ctr: u32,
    pub(crate) x: peace_field::Fp,
    pub(crate) rhs: peace_field::Fp,
    sign_bit: bool,
}

impl Candidate {
    /// The first candidate from counter `ctr` on whose `x³ + x` is not a
    /// non-residue: the square root is what remains to be paid.
    pub(crate) fn first(label: &[u8], msg: &[u8], mut ctr: u32) -> Self {
        use peace_field::Fp;
        loop {
            let mut input = Vec::with_capacity(msg.len() + 4);
            input.extend_from_slice(&ctr.to_be_bytes());
            input.extend_from_slice(msg);
            // 96 bytes -> negligible bias after reduction mod the 64-byte prime.
            let wide = peace_hash::xof(label, &input, 97);
            let x = Fp::from_wide_bytes(&wide[..96]);
            let rhs = x.square().mul(&x).add(&x);
            // Half the candidates are non-residues: the Jacobi symbol refuses
            // them at a tenth of the price of a failed square root.
            if rhs.legendre() != -1 {
                return Self {
                    ctr,
                    x,
                    rhs,
                    sign_bit: wide[96] & 1 == 1,
                };
            }
            ctr += 1;
        }
    }

    /// The point, given a square root of `rhs`.
    pub(crate) fn point(&self, root: &peace_field::Fp) -> AffinePoint {
        let y = if root.is_odd() != self.sign_bit {
            root.neg()
        } else {
            *root
        };
        AffinePoint::new_unchecked(self.x, y)
    }
}

/// H₀ of many inputs at once: [`hash_to_g2`] of each `(label, msg)` of
/// `cleared`, and [`hash_to_g2_preimage`] of each of `preimages`. What a
/// signature's bases cost (a signer's `û` and `v̂`, a verifier's `û` and
/// `Q_v`), or a batch of signatures' bases. With AVX-512 IFMA, eight square
/// roots of either kind and eight cofactor ladders run at once; elsewhere,
/// and for a lone input, one by one. Byte for byte the same points,
/// counted the same.
pub fn hash_to_g2_many(
    cleared: &[(&[u8], &[u8])],
    preimages: &[(&[u8], &[u8])],
) -> (Vec<G2>, Vec<G2Preimage>) {
    #[cfg(target_arch = "x86_64")]
    if let Some((cleared, preimages)) = crate::lanes::hash_to_points(cleared, preimages) {
        return (
            cleared.into_iter().map(G2).collect(),
            preimages.into_iter().map(G2Preimage).collect(),
        );
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
