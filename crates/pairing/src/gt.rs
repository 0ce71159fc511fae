//! The pairing target group `𝔾_T` — the order-`q` subgroup of `F_p²*`.

use core::fmt;

use peace_bigint::Uint;
use peace_field::{Fp2, Fq};

use crate::ops;

/// An element of `𝔾_T`, the order-`q` multiplicative subgroup of `F_p²`.
///
/// Elements produced by the reduced Tate pairing are *unitary*
/// (norm 1), so inversion is conjugation.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gt(pub(crate) Fp2);

impl Gt {
    /// The identity element.
    pub const ONE: Self = Self(Fp2::ONE);

    /// Wraps a raw `F_p²` element (internal; used by the pairing).
    pub(crate) fn from_fp2(v: Fp2) -> Self {
        Self(v)
    }

    /// The underlying `F_p²` element.
    pub fn as_fp2(&self) -> &Fp2 {
        &self.0
    }

    /// Whether this is the identity.
    pub fn is_one(&self) -> bool {
        self.0 == Fp2::ONE
    }

    /// Group operation (multiplication in `F_p²`).
    pub fn mul(&self, rhs: &Self) -> Self {
        Self(self.0.mul(&rhs.0))
    }

    /// Division `self · rhs⁻¹` — the paper's `e(T₂, w)/e(g₁, g₂)`.
    pub fn div(&self, rhs: &Self) -> Self {
        self.mul(&rhs.invert())
    }

    /// Squaring.
    pub fn square(&self) -> Self {
        Self(self.0.square())
    }

    /// Inversion. For unitary elements this is conjugation (cheap).
    pub fn invert(&self) -> Self {
        // Conjugation inverts exactly when the norm is 1, which holds for
        // all elements of the order-q subgroup (q | p+1 divides the norm-1
        // subgroup order). Fall back to a field inversion defensively for
        // raw decoded elements.
        if self.0.is_unitary() {
            Self(self.0.conjugate())
        } else {
            Self(self.0.invert().expect("Gt element is nonzero"))
        }
    }

    /// Exponentiation by a scalar — the paper's `e(·,·)^s`.
    ///
    /// Pairing outputs are unitary, so this normally runs as a width-5 wNAF
    /// ladder with conjugation standing in for inversion (~27 muls for 160
    /// bits instead of ~80); non-unitary elements (raw `from_bytes` input)
    /// fall back to the binary ladder.
    ///
    /// Increments the 𝔾_T-exponentiation counter used by experiment E2.
    pub fn pow(&self, k: &Fq) -> Self {
        ops::record_gt_exp();
        Self(self.0.pow_unitary(&k.to_uint()))
    }

    /// Exponentiation by an arbitrary-width integer (no counter; internal).
    pub fn pow_uint<const M: usize>(&self, k: &Uint<M>) -> Self {
        Self(self.0.pow_unitary(k))
    }

    /// Canonical 128-byte encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    /// Parses the canonical encoding. Does not check subgroup membership
    /// (callers compare against pairing outputs, never trust raw Gt input).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        Fp2::from_bytes(bytes).map(Self)
    }
}

impl Default for Gt {
    fn default() -> Self {
        Self::ONE
    }
}

/// Fixed-base exponentiation table for a `𝔾_T` element (radix-16 comb).
///
/// `windows[j][d-1] = base^(d·16^j)`, so `base^k = Πⱼ windows[j][kⱼ − 1]`
/// where `kⱼ` is the j-th radix-16 digit of `k` — at most `⌈bits/4⌉`
/// multiplications and **zero squarings**. The verifier's fixed bases
/// `ê(g₁, g₂)` and `ê(h, w)` are exponentiated once per signature, so a
/// prepared key amortizes this table across its lifetime.
#[derive(Clone, Debug)]
pub struct GtPowTable {
    windows: Vec<[Fp2; 15]>,
}

impl GtPowTable {
    /// Builds the table for exponents up to `max_bits` bits.
    pub fn new(base: &Gt, max_bits: u32) -> Self {
        let n_windows = max_bits.div_ceil(4).max(1) as usize;
        let mut windows = Vec::with_capacity(n_windows);
        // cur = base^(16^j) at the top of each iteration.
        let mut cur = base.0;
        for _ in 0..n_windows {
            let mut row = [cur; 15];
            for d in 1..15 {
                row[d] = row[d - 1].mul(&cur);
            }
            cur = row[14].mul(&cur);
            windows.push(row);
        }
        Self { windows }
    }

    /// Exponent capacity in bits.
    pub fn max_bits(&self) -> u32 {
        self.windows.len() as u32 * 4
    }

    /// The base the table was built for (its first entry).
    pub fn base(&self) -> Gt {
        Gt::from_fp2(self.windows[0][0])
    }

    /// `base^k` by table lookup — multiplications only.
    ///
    /// Counts as one 𝔾_T exponentiation (it replaces one).
    pub fn pow(&self, k: &Fq) -> Gt {
        ops::record_gt_exp();
        let exp = k.to_uint();
        assert!(
            exp.bits() <= self.max_bits(),
            "exponent exceeds Gt table capacity"
        );
        let limbs = exp.as_limbs();
        let mut acc = Fp2::ONE;
        for (j, row) in self.windows.iter().enumerate() {
            let bit = j as u32 * 4;
            let digit = (limbs[(bit / 64) as usize] >> (bit % 64)) & 0xF;
            if digit != 0 {
                acc = acc.mul(&row[digit as usize - 1]);
            }
        }
        Gt::from_fp2(acc)
    }
}

impl fmt::Debug for Gt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gt({:?})", self.0)
    }
}
