//! The quadratic extension `F_p² = F_p[i] / (i² + 1)`.
//!
//! Since `p ≡ 3 (mod 4)`, `−1` is a non-residue and `i² = −1` defines a
//! field. Elements are `c0 + c1·i`. This is the target field of the Tate
//! pairing (embedding degree 2).

use core::fmt;

use peace_bigint::Uint;
use rand::RngCore;

use crate::Fp;

/// An element `c0 + c1·i` of `F_p²`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp2 {
    /// Real coefficient.
    pub c0: Fp,
    /// Imaginary coefficient (of `i`).
    pub c1: Fp,
}

impl Fp2 {
    /// The additive identity.
    pub const ZERO: Self = Self {
        c0: Fp::ZERO,
        c1: Fp::ZERO,
    };

    /// The multiplicative identity.
    pub const ONE: Self = Self {
        c0: Fp::ONE,
        c1: Fp::ZERO,
    };

    /// Constructs `c0 + c1·i`.
    pub const fn new(c0: Fp, c1: Fp) -> Self {
        Self { c0, c1 }
    }

    /// Embeds a base-field element.
    pub const fn from_base(c0: Fp) -> Self {
        Self { c0, c1: Fp::ZERO }
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// Whether this lies in the base field (imaginary part zero).
    pub fn is_in_base_field(&self) -> bool {
        self.c1.is_zero()
    }

    /// Addition.
    pub fn add(&self, rhs: &Self) -> Self {
        Self {
            c0: self.c0.add(&rhs.c0),
            c1: self.c1.add(&rhs.c1),
        }
    }

    /// Subtraction.
    pub fn sub(&self, rhs: &Self) -> Self {
        Self {
            c0: self.c0.sub(&rhs.c0),
            c1: self.c1.sub(&rhs.c1),
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self {
            c0: self.c0.neg(),
            c1: self.c1.neg(),
        }
    }

    /// Multiplication: Karatsuba over three Montgomery multiplications.
    ///
    /// With `i² = −1`:
    ///
    /// ```text
    /// c0 = a0·b0 − a1·b1
    /// c1 = (a0+a1)·(b0+b1) − a0·b0 − a1·b1
    /// ```
    ///
    /// Each product is a full CIOS pass. Deferring the reductions (three
    /// widening multiplies and two wide reductions) measured slower than
    /// this once the CIOS skipped the modulus's zero limbs (EXPERIMENTS.md).
    pub fn mul(&self, rhs: &Self) -> Self {
        let aa = self.c0.mul(&rhs.c0);
        let bb = self.c1.mul(&rhs.c1);
        let sum = self.c0.add(&self.c1).mul(&rhs.c0.add(&rhs.c1));
        Self {
            c0: aa.sub(&bb),
            c1: sum.sub(&aa).sub(&bb),
        }
    }

    /// Squaring: complex squaring, two Montgomery multiplications —
    /// `(a + bi)² = (a+b)(a−b) + 2ab·i`.
    pub fn square(&self) -> Self {
        let a = self.c0;
        let b = self.c1;
        Self {
            c0: a.add(&b).mul(&a.sub(&b)),
            c1: a.mul(&b).double(),
        }
    }

    /// Complex conjugate `c0 − c1·i`; equals the Frobenius map `x ↦ x^p`.
    pub fn conjugate(&self) -> Self {
        Self {
            c0: self.c0,
            c1: self.c1.neg(),
        }
    }

    /// The field norm `c0² + c1² ∈ F_p`.
    pub fn norm(&self) -> Fp {
        self.c0.square().add(&self.c1.square())
    }

    /// Whether the norm is 1, i.e. the element lies in the cyclotomic
    /// subgroup `μ_{p+1} ⊂ F_p²*`. For such elements the inverse is the
    /// conjugate, which makes signed-digit exponentiation essentially free
    /// of inversions. Every reduced-pairing output is unitary.
    pub fn is_unitary(&self) -> bool {
        self.norm() == Fp::ONE
    }

    /// Multiplicative inverse. Returns `None` for zero.
    pub fn invert(&self) -> Option<Self> {
        let norm_inv = self.norm().invert()?;
        Some(Self {
            c0: self.c0.mul(&norm_inv),
            c1: self.c1.neg().mul(&norm_inv),
        })
    }

    /// Exponentiation by a `Uint` of any width.
    pub fn pow<const M: usize>(&self, exp: &Uint<M>) -> Self {
        self.pow_limbs(exp.as_limbs())
    }

    /// Exponentiation by a little-endian limb slice.
    pub fn pow_limbs(&self, exp: &[u64]) -> Self {
        let mut top = None;
        for (i, &l) in exp.iter().enumerate().rev() {
            if l != 0 {
                top = Some(64 * i as u32 + 63 - l.leading_zeros());
                break;
            }
        }
        let Some(top) = top else { return Self::ONE };
        let mut acc = Self::ONE;
        for i in (0..=top).rev() {
            acc = acc.square();
            if (exp[(i / 64) as usize] >> (i % 64)) & 1 == 1 {
                acc = acc.mul(self);
            }
        }
        acc
    }

    /// Exponentiation of a *unitary* element by a precomputed width-5 wNAF
    /// digit schedule (LSB first, as produced by [`Uint::wnaf`]).
    ///
    /// Negative digits are handled by multiplying with the conjugate of the
    /// tabulated odd power, so the signed-digit recoding costs no field
    /// inversions. With density `1/(w+1)` this does ~`bits/6`
    /// multiplications versus `bits/2` for the binary ladder.
    ///
    /// The caller must guarantee `self.is_unitary()`; the result is
    /// incorrect otherwise (debug builds assert).
    pub fn pow_wnaf_unitary(&self, digits: &[i8]) -> Self {
        debug_assert!(self.is_unitary(), "pow_wnaf_unitary needs norm 1");
        // Odd powers x¹, x³, …, x¹⁵ (indexed by d >> 1).
        let x2 = self.square();
        let mut table = [*self; 8];
        for i in 1..8 {
            table[i] = table[i - 1].mul(&x2);
        }
        let mut acc = Self::ONE;
        for &d in digits.iter().rev() {
            acc = acc.square();
            if d > 0 {
                acc = acc.mul(&table[(d >> 1) as usize]);
            } else if d < 0 {
                acc = acc.mul(&table[((-d) >> 1) as usize].conjugate());
            }
        }
        acc
    }

    /// Exponentiation of a unitary element by an arbitrary exponent,
    /// choosing wNAF when the exponent has recoding headroom and falling
    /// back to the binary ladder otherwise.
    pub fn pow_unitary<const M: usize>(&self, exp: &Uint<M>) -> Self {
        const W: u32 = 5;
        if self.is_unitary() && exp.bits() + W <= Uint::<M>::BITS {
            self.pow_wnaf_unitary(&exp.wnaf(W))
        } else {
            self.pow(exp)
        }
    }

    /// Uniformly random element.
    pub fn random(rng: &mut impl RngCore) -> Self {
        Self {
            c0: Fp::random(rng),
            c1: Fp::random(rng),
        }
    }

    /// Canonical encoding: `c0 || c1`, each 64 bytes (128 bytes total).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.c0.to_canonical_bytes();
        out.extend_from_slice(&self.c1.to_canonical_bytes());
        out
    }

    /// Parses the canonical 128-byte encoding.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 128 {
            return None;
        }
        Some(Self {
            c0: Fp::from_canonical_bytes(&bytes[..64])?,
            c1: Fp::from_canonical_bytes(&bytes[64..])?,
        })
    }
}

impl fmt::Debug for Fp2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp2({:?} + {:?}·i)", self.c0, self.c1)
    }
}

impl fmt::Display for Fp2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl core::ops::Add for Fp2 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Fp2::add(&self, &rhs)
    }
}
impl core::ops::Sub for Fp2 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Fp2::sub(&self, &rhs)
    }
}
impl core::ops::Mul for Fp2 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Fp2::mul(&self, &rhs)
    }
}
impl core::ops::Neg for Fp2 {
    type Output = Self;
    fn neg(self) -> Self {
        Fp2::neg(&self)
    }
}
