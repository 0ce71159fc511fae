//! Fixed-width unsigned big integers for the PEACE cryptographic stack.
//!
//! [`Uint<N>`] is an `N`-limb (64-bit limbs, little-endian) unsigned integer
//! with the exact set of operations the field, curve, and signature layers
//! need: carry-propagating add/sub, widening multiplication, shifts, bit
//! access, byte conversions, and reduction of double-width values modulo an
//! odd modulus (used for hash-to-field and setup, not in hot paths).
//!
//! The crate is dependency-free. Montgomery arithmetic lives one layer up in
//! `peace-field`; this crate supplies only plain integer arithmetic.
//!
//! # Examples
//!
//! ```
//! use peace_bigint::Uint;
//!
//! let a = Uint::<4>::from_u64(7);
//! let b = Uint::<4>::from_u64(9);
//! let (sum, carry) = a.overflowing_add(&b);
//! assert_eq!(sum, Uint::from_u64(16));
//! assert!(!carry);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // carry-chain loops read clearest with explicit indices

use core::cmp::Ordering;
use core::fmt;

/// Add with carry: returns `(a + b + carry) mod 2^64` and the new carry.
#[inline(always)]
pub const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = (a as u128) + (b as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

/// Subtract with borrow: returns `(a - b - borrow) mod 2^64` and the new
/// borrow (0 or 1).
#[inline(always)]
pub const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub((b as u128) + (borrow as u128));
    (t as u64, ((t >> 64) as u64) & 1)
}

/// Multiply-accumulate: returns `(acc + a*b + carry) mod 2^64` and the carry.
#[inline(always)]
pub const fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = (acc as u128) + (a as u128) * (b as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

/// A fixed-width unsigned integer with `N` 64-bit limbs, stored
/// little-endian (limb 0 is least significant).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uint<const N: usize> {
    limbs: [u64; N],
}

impl<const N: usize> Uint<N> {
    /// The value zero.
    pub const ZERO: Self = Self { limbs: [0; N] };

    /// The value one.
    pub const ONE: Self = {
        let mut l = [0u64; N];
        l[0] = 1;
        Self { limbs: l }
    };

    /// The maximum representable value (all bits set).
    pub const MAX: Self = Self {
        limbs: [u64::MAX; N],
    };

    /// Number of bits in the representation.
    pub const BITS: u32 = 64 * N as u32;

    /// Constructs from little-endian limbs.
    #[inline]
    pub const fn from_limbs(limbs: [u64; N]) -> Self {
        Self { limbs }
    }

    /// Returns the little-endian limbs.
    #[inline]
    pub const fn as_limbs(&self) -> &[u64; N] {
        &self.limbs
    }

    /// Consumes self, returning the little-endian limbs.
    #[inline]
    pub const fn into_limbs(self) -> [u64; N] {
        self.limbs
    }

    /// Constructs from a single `u64`.
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        let mut l = [0u64; N];
        l[0] = v;
        Self { limbs: l }
    }

    /// Constructs from a `u128`.
    ///
    /// # Panics
    ///
    /// Panics if `N < 2`.
    #[inline]
    pub const fn from_u128(v: u128) -> Self {
        assert!(N >= 2, "u128 needs at least two limbs");
        let mut l = [0u64; N];
        l[0] = v as u64;
        l[1] = (v >> 64) as u64;
        Self { limbs: l }
    }

    /// Whether the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Whether the value is even.
    #[inline]
    pub const fn is_even(&self) -> bool {
        self.limbs[0] & 1 == 0
    }

    /// Whether the value is odd.
    #[inline]
    pub const fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// Returns bit `i` (0 = least significant). Bits beyond the width are 0.
    #[inline]
    pub fn bit(&self, i: u32) -> bool {
        if i >= Self::BITS {
            return false;
        }
        (self.limbs[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (position of the highest set bit + 1);
    /// zero has 0 bits.
    pub fn bits(&self) -> u32 {
        for i in (0..N).rev() {
            if self.limbs[i] != 0 {
                return 64 * i as u32 + (64 - self.limbs[i].leading_zeros());
            }
        }
        0
    }

    /// `self + rhs`, returning the result and whether a carry occurred.
    #[inline]
    pub fn overflowing_add(&self, rhs: &Self) -> (Self, bool) {
        let mut out = [0u64; N];
        let mut carry = 0u64;
        for i in 0..N {
            let (v, c) = adc(self.limbs[i], rhs.limbs[i], carry);
            out[i] = v;
            carry = c;
        }
        (Self { limbs: out }, carry != 0)
    }

    /// `self - rhs`, returning the result and whether a borrow occurred.
    #[inline]
    pub fn overflowing_sub(&self, rhs: &Self) -> (Self, bool) {
        let mut out = [0u64; N];
        let mut borrow = 0u64;
        for i in 0..N {
            let (v, b) = sbb(self.limbs[i], rhs.limbs[i], borrow);
            out[i] = v;
            borrow = b;
        }
        (Self { limbs: out }, borrow != 0)
    }

    /// `self + rhs` wrapping on overflow.
    #[inline]
    pub fn wrapping_add(&self, rhs: &Self) -> Self {
        self.overflowing_add(rhs).0
    }

    /// `self - rhs` wrapping on underflow.
    #[inline]
    pub fn wrapping_sub(&self, rhs: &Self) -> Self {
        self.overflowing_sub(rhs).0
    }

    /// Widening multiplication: returns `(lo, hi)` with `self * rhs = hi·2^(64N) + lo`.
    ///
    /// Allocation-free: the double-width accumulator is split across two
    /// fixed `N`-limb halves (stable Rust cannot spell `[u64; 2*N]`), with
    /// each row's inner loop split at the half boundary so no per-limb
    /// branch survives into the carry chain.
    pub fn mul_wide(&self, rhs: &Self) -> (Self, Self) {
        let mut lo = [0u64; N];
        let mut hi = [0u64; N];
        for i in 0..N {
            let a = self.limbs[i];
            let mut carry = 0u64;
            for j in 0..N - i {
                let (v, c) = mac(lo[i + j], a, rhs.limbs[j], carry);
                lo[i + j] = v;
                carry = c;
            }
            for j in N - i..N {
                let (v, c) = mac(hi[i + j - N], a, rhs.limbs[j], carry);
                hi[i + j - N] = v;
                carry = c;
            }
            hi[i] = carry;
        }
        (Self { limbs: lo }, Self { limbs: hi })
    }

    /// Shift left by one bit, discarding the top bit.
    #[inline]
    pub fn shl1(&self) -> Self {
        let mut out = [0u64; N];
        let mut carry = 0u64;
        for i in 0..N {
            out[i] = (self.limbs[i] << 1) | carry;
            carry = self.limbs[i] >> 63;
        }
        Self { limbs: out }
    }

    /// Shift right by one bit.
    #[inline]
    pub fn shr1(&self) -> Self {
        let mut out = [0u64; N];
        let mut carry = 0u64;
        for i in (0..N).rev() {
            out[i] = (self.limbs[i] >> 1) | (carry << 63);
            carry = self.limbs[i] & 1;
        }
        Self { limbs: out }
    }

    /// Width-`w` non-adjacent-form recoding (wNAF).
    ///
    /// Returns signed digits `d`, least-significant first, with
    /// `self = Σ dᵢ·2^i`, every nonzero `dᵢ` odd and `|dᵢ| < 2^(w−1)`, and
    /// at most one nonzero digit in any `w` consecutive positions. Scalar
    /// multiplication consumes this to trade table size (`2^(w−2)` odd
    /// multiples) against add count (≈ `bits/(w+1)` instead of `bits/2`).
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ w ≤ 8` and `self` has at least `w` clear high
    /// bits (the carry from a negative digit must not overflow the width).
    pub fn wnaf(&self, w: u32) -> Vec<i8> {
        assert!((2..=8).contains(&w), "wnaf width out of range");
        assert!(
            self.bits() <= Self::BITS - w,
            "wnaf needs {w} bits of headroom"
        );
        let mask = (1u64 << w) - 1;
        let sign_bound = 1i64 << (w - 1);
        let mut v = *self;
        let mut digits = Vec::with_capacity(self.bits() as usize + 1);
        while !v.is_zero() {
            if v.is_odd() {
                let mut d = (v.limbs[0] & mask) as i64;
                if d >= sign_bound {
                    d -= 1 << w;
                }
                if d > 0 {
                    v = v.wrapping_sub(&Self::from_u64(d as u64));
                } else {
                    v = v.wrapping_add(&Self::from_u64(d.unsigned_abs()));
                }
                digits.push(d as i8);
            } else {
                digits.push(0);
            }
            v = v.shr1();
        }
        digits
    }

    /// Constant-time-style conditional select: returns `b` if `choice` else `a`.
    #[inline]
    pub fn select(a: &Self, b: &Self, choice: bool) -> Self {
        let mask = if choice { u64::MAX } else { 0 };
        let mut out = [0u64; N];
        for i in 0..N {
            out[i] = (a.limbs[i] & !mask) | (b.limbs[i] & mask);
        }
        Self { limbs: out }
    }

    /// Big-endian byte encoding (`8*N` bytes).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * N);
        for i in (0..N).rev() {
            out.extend_from_slice(&self.limbs[i].to_be_bytes());
        }
        out
    }

    /// Parses a big-endian byte string of exactly `8*N` bytes.
    ///
    /// Returns `None` if the length is wrong.
    pub fn from_be_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 8 * N {
            return None;
        }
        let mut limbs = [0u64; N];
        for i in 0..N {
            let start = 8 * (N - 1 - i);
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[start..start + 8]);
            limbs[i] = u64::from_be_bytes(b);
        }
        Some(Self { limbs })
    }

    /// Parses a big-endian byte string of at most `8*N` bytes
    /// (shorter inputs are zero-extended on the left).
    pub fn from_be_bytes_padded(bytes: &[u8]) -> Option<Self> {
        if bytes.len() > 8 * N {
            return None;
        }
        let mut full = vec![0u8; 8 * N];
        full[8 * N - bytes.len()..].copy_from_slice(bytes);
        Self::from_be_bytes(&full)
    }

    /// Reduces a double-width value `hi·2^(64N) + lo` modulo `modulus`.
    ///
    /// Uses simple bitwise long division: slow (O(bits²/64)) but only used in
    /// hash-to-field and setup paths, never per-operation.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn reduce_wide(lo: &Self, hi: &Self, modulus: &Self) -> Self {
        assert!(!modulus.is_zero(), "reduction modulo zero");
        // Remainder accumulator, one limb wider than the modulus to absorb
        // the shifted-in bit before comparison.
        let mut rem = vec![0u64; N + 1];
        let total_bits = 2 * Self::BITS;
        for step in 0..total_bits {
            let bit_index = total_bits - 1 - step;
            let bit = if bit_index >= Self::BITS {
                hi.bit(bit_index - Self::BITS)
            } else {
                lo.bit(bit_index)
            };
            // rem = (rem << 1) | bit
            let mut carry = u64::from(bit);
            for limb in rem.iter_mut() {
                let new_carry = *limb >> 63;
                *limb = (*limb << 1) | carry;
                carry = new_carry;
            }
            // if rem >= modulus { rem -= modulus }
            let ge = {
                if rem[N] != 0 {
                    true
                } else {
                    let mut ord = Ordering::Equal;
                    for i in (0..N).rev() {
                        if rem[i] != modulus.limbs[i] {
                            ord = rem[i].cmp(&modulus.limbs[i]);
                            break;
                        }
                    }
                    ord != Ordering::Less
                }
            };
            if ge {
                let mut borrow = 0u64;
                for i in 0..N {
                    let (v, b) = sbb(rem[i], modulus.limbs[i], borrow);
                    rem[i] = v;
                    borrow = b;
                }
                let (v, _) = sbb(rem[N], 0, borrow);
                rem[N] = v;
            }
        }
        let mut out = [0u64; N];
        out.copy_from_slice(&rem[..N]);
        Self { limbs: out }
    }

    /// `self mod modulus` (single-width convenience over [`Self::reduce_wide`]).
    pub fn rem(&self, modulus: &Self) -> Self {
        Self::reduce_wide(self, &Self::ZERO, modulus)
    }

    /// Modular addition `(self + rhs) mod modulus`, assuming both inputs are
    /// already reduced.
    pub fn add_mod(&self, rhs: &Self, modulus: &Self) -> Self {
        let (sum, carry) = self.overflowing_add(rhs);
        let (diff, borrow) = sum.overflowing_sub(modulus);
        // If addition carried or sum >= modulus, take the subtracted value.
        if carry || !borrow {
            diff
        } else {
            sum
        }
    }

    /// Modular subtraction `(self - rhs) mod modulus`, assuming both inputs
    /// are already reduced.
    pub fn sub_mod(&self, rhs: &Self, modulus: &Self) -> Self {
        let (diff, borrow) = self.overflowing_sub(rhs);
        if borrow {
            diff.wrapping_add(modulus)
        } else {
            diff
        }
    }
}

impl<const N: usize> Default for Uint<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: usize> Ord for Uint<N> {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..N).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }
}

impl<const N: usize> PartialOrd for Uint<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> fmt::Debug for Uint<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uint(0x")?;
        let mut leading = true;
        for i in (0..N).rev() {
            if leading && self.limbs[i] == 0 && i != 0 {
                continue;
            }
            if leading {
                write!(f, "{:x}", self.limbs[i])?;
                leading = false;
            } else {
                write!(f, "{:016x}", self.limbs[i])?;
            }
        }
        write!(f, ")")
    }
}

impl<const N: usize> fmt::Display for Uint<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<const N: usize> fmt::LowerHex for Uint<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..N).rev() {
            write!(f, "{:016x}", self.limbs[i])?;
        }
        Ok(())
    }
}

impl<const N: usize> From<u64> for Uint<N> {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type U256 = Uint<4>;

    #[test]
    fn zero_one_constants() {
        assert!(U256::ZERO.is_zero());
        assert!(!U256::ONE.is_zero());
        assert!(U256::ZERO.is_even());
        assert!(U256::ONE.is_odd());
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::MAX.bits(), 256);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = U256::from_u128(0xdeadbeef_cafebabe_12345678_9abcdef0);
        let b = U256::from_u128(0x0f0f0f0f_f0f0f0f0_55555555_aaaaaaaa);
        let (s, c) = a.overflowing_add(&b);
        assert!(!c);
        let (d, bo) = s.overflowing_sub(&b);
        assert!(!bo);
        assert_eq!(d, a);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = U256::from_limbs([u64::MAX, u64::MAX, 0, 0]);
        let (s, c) = a.overflowing_add(&U256::ONE);
        assert!(!c);
        assert_eq!(s, U256::from_limbs([0, 0, 1, 0]));
    }

    #[test]
    fn full_overflow_carry() {
        let (s, c) = U256::MAX.overflowing_add(&U256::ONE);
        assert!(c);
        assert!(s.is_zero());
    }

    #[test]
    fn sub_borrows() {
        let (d, b) = U256::ZERO.overflowing_sub(&U256::ONE);
        assert!(b);
        assert_eq!(d, U256::MAX);
    }

    #[test]
    fn mul_wide_small() {
        let a = U256::from_u64(0xffff_ffff_ffff_ffff);
        let (lo, hi) = a.mul_wide(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(lo, U256::from_u128((1u128 << 64).wrapping_sub(2) << 64 | 1));
        assert!(hi.is_zero());
    }

    #[test]
    fn mul_wide_max() {
        let (lo, hi) = U256::MAX.mul_wide(&U256::MAX);
        // MAX^2 = 2^512 - 2^257 + 1 -> lo = 1, hi = MAX - 1
        assert_eq!(lo, U256::ONE);
        assert_eq!(hi, U256::MAX.wrapping_sub(&U256::ONE));
    }

    #[test]
    fn shifts() {
        let a = U256::from_u64(1);
        let mut x = a;
        for _ in 0..200 {
            x = x.shl1();
        }
        assert_eq!(x.bits(), 201);
        for _ in 0..200 {
            x = x.shr1();
        }
        assert_eq!(x, a);
    }

    #[test]
    fn byte_roundtrip() {
        let a = U256::from_limbs([1, 2, 3, 4]);
        let b = a.to_be_bytes();
        assert_eq!(b.len(), 32);
        assert_eq!(U256::from_be_bytes(&b).unwrap(), a);
        assert_eq!(U256::from_be_bytes(&b[1..]), None);
    }

    #[test]
    fn padded_bytes() {
        let a = U256::from_be_bytes_padded(&[0x12, 0x34]).unwrap();
        assert_eq!(a, U256::from_u64(0x1234));
        assert!(U256::from_be_bytes_padded(&[0u8; 33]).is_none());
    }

    #[test]
    fn reduce_wide_matches_u128() {
        let m = U256::from_u64(1_000_000_007);
        let lo = U256::from_u128(123456789012345678901234567890u128);
        let r = U256::reduce_wide(&lo, &U256::ZERO, &m);
        assert_eq!(
            r,
            U256::from_u64((123456789012345678901234567890u128 % 1_000_000_007) as u64)
        );
    }

    #[test]
    fn reduce_wide_hi_part() {
        // value = 2^256 mod 97: 2^256 = (2^48)^5 * 2^16; easier: compute via pow mod
        let m = U256::from_u64(97);
        let r = U256::reduce_wide(&U256::ZERO, &U256::ONE, &m);
        // 2^256 mod 97 computed independently
        let mut v: u64 = 1;
        for _ in 0..256 {
            v = (v * 2) % 97;
        }
        assert_eq!(r, U256::from_u64(v));
    }

    #[test]
    fn add_mod_wraps() {
        let m = U256::from_u64(1000);
        let a = U256::from_u64(900);
        let b = U256::from_u64(300);
        assert_eq!(a.add_mod(&b, &m), U256::from_u64(200));
        assert_eq!(a.sub_mod(&b, &m), U256::from_u64(600));
        assert_eq!(b.sub_mod(&a, &m), U256::from_u64(400));
    }

    #[test]
    fn add_mod_near_full_width() {
        // modulus with top bit set, operands just below it
        let m = U256::from_limbs([3, 0, 0, 1u64 << 63]);
        let a = m.wrapping_sub(&U256::ONE);
        let s = a.add_mod(&a, &m);
        // (m-1)+(m-1) mod m = m-2
        assert_eq!(s, m.wrapping_sub(&U256::from_u64(2)));
    }

    #[test]
    fn ordering() {
        let a = U256::from_limbs([5, 0, 0, 1]);
        let b = U256::from_limbs([9, 9, 9, 0]);
        assert!(a > b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn bit_access() {
        let a = U256::from_limbs([0, 1, 0, 0]);
        assert!(a.bit(64));
        assert!(!a.bit(63));
        assert!(!a.bit(65));
        assert!(!a.bit(10_000));
    }

    #[test]
    fn select_behaves() {
        let a = U256::from_u64(1);
        let b = U256::from_u64(2);
        assert_eq!(U256::select(&a, &b, false), a);
        assert_eq!(U256::select(&a, &b, true), b);
    }

    // Reference school-book multiplication over 32-bit digits, used to
    // cross-check mul_wide.
    fn reference_mul(a: &U256, b: &U256) -> Vec<u32> {
        let to_digits = |u: &U256| -> Vec<u32> {
            u.as_limbs()
                .iter()
                .flat_map(|&l| [l as u32, (l >> 32) as u32])
                .collect()
        };
        let (da, db) = (to_digits(a), to_digits(b));
        let mut out = vec![0u32; da.len() + db.len()];
        for (i, &x) in da.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &y) in db.iter().enumerate() {
                let t = out[i + j] as u64 + (x as u64) * (y as u64) + carry;
                out[i + j] = t as u32;
                carry = t >> 32;
            }
            out[i + db.len()] = carry as u32;
        }
        out
    }

    fn digits_of(lo: &U256, hi: &U256) -> Vec<u32> {
        lo.as_limbs()
            .iter()
            .chain(hi.as_limbs().iter())
            .flat_map(|&l| [l as u32, (l >> 32) as u32])
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn prop_mul_wide_matches_reference(
            a in proptest::array::uniform4(proptest::prelude::any::<u64>()),
            b in proptest::array::uniform4(proptest::prelude::any::<u64>()),
        ) {
            let a = U256::from_limbs(a);
            let b = U256::from_limbs(b);
            let (lo, hi) = a.mul_wide(&b);
            proptest::prop_assert_eq!(digits_of(&lo, &hi), reference_mul(&a, &b));
            // commutativity
            let (lo2, hi2) = b.mul_wide(&a);
            proptest::prop_assert_eq!(lo, lo2);
            proptest::prop_assert_eq!(hi, hi2);
        }

        #[test]
        fn prop_add_sub_inverse(
            a in proptest::array::uniform4(proptest::prelude::any::<u64>()),
            b in proptest::array::uniform4(proptest::prelude::any::<u64>()),
        ) {
            let a = U256::from_limbs(a);
            let b = U256::from_limbs(b);
            proptest::prop_assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
            proptest::prop_assert_eq!(a.wrapping_sub(&b).wrapping_add(&b), a);
        }

        #[test]
        fn prop_reduce_wide_bounds_and_consistency(
            lo in proptest::array::uniform4(proptest::prelude::any::<u64>()),
            hi in proptest::array::uniform4(proptest::prelude::any::<u64>()),
            m in 2u64..u64::MAX,
        ) {
            let lo = U256::from_limbs(lo);
            let hi = U256::from_limbs(hi);
            let modulus = U256::from_u64(m);
            let r = U256::reduce_wide(&lo, &hi, &modulus);
            proptest::prop_assert!(r < modulus);
            // adding a multiple of the modulus to lo (when it fits) keeps
            // the residue: (lo + m) mod m == lo mod m
            let (lo2, carry) = lo.overflowing_add(&modulus);
            if !carry {
                let r2 = U256::reduce_wide(&lo2, &hi, &modulus);
                proptest::prop_assert_eq!(r, r2);
            }
        }

        #[test]
        fn prop_byte_roundtrip(a in proptest::array::uniform4(proptest::prelude::any::<u64>())) {
            let a = U256::from_limbs(a);
            proptest::prop_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()).unwrap(), a);
        }

        #[test]
        fn prop_bits_shift_consistency(a in proptest::array::uniform4(proptest::prelude::any::<u64>())) {
            let a = U256::from_limbs(a);
            let bits = a.bits();
            if bits > 0 {
                proptest::prop_assert!(a.bit(bits - 1));
            }
            proptest::prop_assert!(!a.bit(bits));
            proptest::prop_assert_eq!(a.shl1().shr1().bit(255), false);
        }
    }

    fn wnaf_reconstruct(digits: &[i8]) -> U256 {
        // Σ dᵢ·2^i, folded MSB-down: acc = 2·acc + d.
        let mut acc = U256::ZERO;
        for &d in digits.iter().rev() {
            acc = acc.shl1();
            if d > 0 {
                acc = acc.wrapping_add(&U256::from_u64(d as u64));
            } else if d < 0 {
                acc = acc.wrapping_sub(&U256::from_u64((-(d as i64)) as u64));
            }
        }
        acc
    }

    #[test]
    fn wnaf_digit_invariants() {
        let a = U256::from_limbs([
            0x243F6A8885A308D3,
            0x13198A2E03707344,
            0xA4093822299F31D0,
            0,
        ]);
        for w in 2..=8u32 {
            let digits = a.wnaf(w);
            assert_eq!(wnaf_reconstruct(&digits), a, "width {w}");
            let bound = 1i16 << (w - 1);
            for (i, &d) in digits.iter().enumerate() {
                if d != 0 {
                    assert!(d as i16 % 2 != 0, "digit {i} even at width {w}");
                    assert!((d as i16).abs() < bound, "digit {i} too big at width {w}");
                    // Non-adjacency: next w−1 digits are zero.
                    for &z in digits.iter().skip(i + 1).take(w as usize - 1) {
                        assert_eq!(z, 0, "adjacent nonzero near {i} at width {w}");
                    }
                }
            }
        }
    }

    #[test]
    fn wnaf_edge_values() {
        assert!(U256::ZERO.wnaf(4).is_empty());
        assert_eq!(U256::ONE.wnaf(4), vec![1]);
        // 2^200 has exactly one digit, at position 200.
        let mut v = U256::ONE;
        for _ in 0..200 {
            v = v.shl1();
        }
        let digits = v.wnaf(5);
        assert_eq!(digits.len(), 201);
        assert_eq!(digits[200], 1);
        assert!(digits[..200].iter().all(|&d| d == 0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn prop_wnaf_roundtrip(
            a in proptest::array::uniform4(proptest::prelude::any::<u64>()),
        ) {
            // Clear the top byte to leave the required headroom.
            let mut limbs = a;
            limbs[3] &= 0x00FF_FFFF_FFFF_FFFF;
            let a = U256::from_limbs(limbs);
            for w in [2u32, 4, 5] {
                proptest::prop_assert_eq!(wnaf_reconstruct(&a.wnaf(w)), a);
            }
        }
    }

    #[test]
    fn debug_not_empty() {
        assert!(!format!("{:?}", U256::ZERO).is_empty());
        assert_eq!(format!("{:?}", U256::from_u64(0xab)), "Uint(0xab)");
    }
}
