//! Generic Montgomery-form prime-field elements.
//!
//! [`Fe<P, N>`] is an element of the prime field defined by the parameter
//! type `P` (an implementation of [`FieldParams`]), stored in Montgomery
//! form over `N` 64-bit limbs. Multiplication uses the CIOS algorithm.

use core::cmp::Ordering;
use core::fmt;
use core::marker::PhantomData;

use peace_bigint::{adc, mac, Uint};
use rand::RngCore;

/// Compile-time parameters describing a prime field.
///
/// This trait is sealed in spirit: it is implemented only by the parameter
/// marker types in this crate ([`PMod`](crate::PMod), [`QMod`](crate::QMod)).
pub trait FieldParams<const N: usize>: Copy + Clone + Eq + Send + Sync + 'static {
    /// The field modulus (an odd prime).
    const MODULUS: Uint<N>;
    /// `2^(64·N) mod MODULUS` — the Montgomery form of 1.
    const R: Uint<N>;
    /// `R² mod MODULUS` — used to enter Montgomery form.
    const R2: Uint<N>;
    /// `-MODULUS⁻¹ mod 2^64`.
    const INV: u64;
    /// Bit length of the modulus.
    const NUM_BITS: u32;
    /// Canonical byte-encoding length: `ceil(NUM_BITS / 8)`.
    const NUM_BYTES: usize;
    /// Short human-readable field name used in `Debug` output.
    const NAME: &'static str;
}

/// A prime-field element in Montgomery form.
pub struct Fe<P: FieldParams<N>, const N: usize> {
    mont: Uint<N>,
    _p: PhantomData<P>,
}

impl<P: FieldParams<N>, const N: usize> Fe<P, N> {
    /// The additive identity.
    pub const ZERO: Self = Self {
        mont: Uint::ZERO,
        _p: PhantomData,
    };

    /// The multiplicative identity.
    pub const ONE: Self = Self {
        mont: P::R,
        _p: PhantomData,
    };

    /// Bit length of the field modulus (re-exported from the parameters so
    /// callers need not name the marker type).
    pub const NUM_BITS: u32 = P::NUM_BITS;

    #[inline]
    pub(crate) const fn from_mont(mont: Uint<N>) -> Self {
        Self {
            mont,
            _p: PhantomData,
        }
    }

    /// The raw Montgomery representation (for the tests that hold the CIOS
    /// kernel to [`Self::mont_mul_generic`]).
    #[cfg(test)]
    pub(crate) const fn mont_repr(&self) -> &Uint<N> {
        &self.mont
    }

    /// Montgomery multiplication: CIOS with a zero-limb skip in the
    /// reduction phase.
    ///
    /// `P::MODULUS.as_limbs()[j]` is a compile-time constant after
    /// monomorphization, so the `ml[j] == 0` branch folds away entirely:
    /// a sparse modulus (the 512-bit `p` has four nonzero limbs) pays only
    /// a carry propagation for each zero limb instead of a multiply.
    ///
    /// Accepts any `a < 2^(64N)` as long as `b < MODULUS` (or vice versa):
    /// the accumulator then stays below `2·MODULUS` and the single final
    /// conditional subtraction still canonicalizes — which is what lets
    /// [`Self::from_uint`] and [`Self::from_wide`] skip long division.
    #[allow(clippy::needless_range_loop)]
    fn mont_mul(a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        let al = a.as_limbs();
        let bl = b.as_limbs();
        let ml = P::MODULUS.as_limbs();
        let mut t = [0u64; N];
        let mut t_n = 0u64;
        for i in 0..N {
            // t += a * b[i]
            let mut carry = 0u64;
            for j in 0..N {
                let (v, c) = mac(t[j], al[j], bl[i], carry);
                t[j] = v;
                carry = c;
            }
            let (v, t_np1) = adc(t_n, carry, 0);
            t_n = v;
            // m = t[0] * INV mod 2^64; t += m * MODULUS; t >>= 64
            let m = t[0].wrapping_mul(P::INV);
            let (_, mut carry) = mac(t[0], m, ml[0], 0);
            for j in 1..N {
                let (v, c) = if ml[j] == 0 {
                    adc(t[j], carry, 0)
                } else {
                    mac(t[j], m, ml[j], carry)
                };
                t[j - 1] = v;
                carry = c;
            }
            let (v, c) = adc(t_n, carry, 0);
            t[N - 1] = v;
            t_n = t_np1.wrapping_add(c);
        }
        // Final conditional subtraction.
        let mut res = Uint::from_limbs(t);
        let (sub, borrow) = res.overflowing_sub(&P::MODULUS);
        if t_n != 0 || !borrow {
            res = sub;
        }
        res
    }

    /// Reference CIOS without the zero-limb skip: the oracle for the
    /// kernel-equivalence proptests, built for tests only.
    #[cfg(test)]
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn mont_mul_generic(a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        let al = a.as_limbs();
        let bl = b.as_limbs();
        let ml = P::MODULUS.as_limbs();
        let mut t = [0u64; N];
        let mut t_n = 0u64;
        for i in 0..N {
            let mut carry = 0u64;
            for j in 0..N {
                let (v, c) = mac(t[j], al[j], bl[i], carry);
                t[j] = v;
                carry = c;
            }
            let (v, t_np1) = adc(t_n, carry, 0);
            t_n = v;
            let m = t[0].wrapping_mul(P::INV);
            let (_, mut carry) = mac(t[0], m, ml[0], 0);
            for j in 1..N {
                let (v, c) = mac(t[j], m, ml[j], carry);
                t[j - 1] = v;
                carry = c;
            }
            let (v, c) = adc(t_n, carry, 0);
            t[N - 1] = v;
            t_n = t_np1.wrapping_add(c);
        }
        let mut res = Uint::from_limbs(t);
        let (sub, borrow) = res.overflowing_sub(&P::MODULUS);
        if t_n != 0 || !borrow {
            res = sub;
        }
        res
    }

    /// Constructs a field element from an integer, reducing mod the modulus.
    ///
    /// No long division: CIOS against `R²` accepts a full-width (unreduced)
    /// multiplicand directly — see `mont_mul`'s relaxed input bound.
    pub fn from_uint(v: &Uint<N>) -> Self {
        Self::from_mont(Self::mont_mul(v, &P::R2))
    }

    /// Reduces a double-width integer `hi·2^(64N) + lo` into the field.
    ///
    /// Three CIOS passes (`mont(lo)` plus `mont(hi·2^(64N)) =
    /// mont_mul(mont_mul(hi, R²), R²)`) replace the bitwise long division of
    /// [`Uint::reduce_wide`] — this is what hash-to-field and rejection-free
    /// random sampling run per draw, so it must not cost O(bits²).
    pub fn from_wide(lo: &Uint<N>, hi: &Uint<N>) -> Self {
        let lo_m = Self::mont_mul(lo, &P::R2);
        let hi_m = Self::mont_mul(&Self::mont_mul(hi, &P::R2), &P::R2);
        Self::from_mont(lo_m.add_mod(&hi_m, &P::MODULUS))
    }

    /// Constructs from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        Self::from_uint(&Uint::from_u64(v))
    }

    /// Returns the canonical integer representative in `[0, MODULUS)`.
    pub fn to_uint(&self) -> Uint<N> {
        Self::mont_mul(&self.mont, &Uint::ONE)
    }

    /// Whether this is the additive identity.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.mont.is_zero()
    }

    /// Whether the canonical representative is odd (used for point-compression signs).
    pub fn is_odd(&self) -> bool {
        self.to_uint().is_odd()
    }

    /// Field addition.
    pub fn add(&self, rhs: &Self) -> Self {
        Self::from_mont(self.mont.add_mod(&rhs.mont, &P::MODULUS))
    }

    /// Field subtraction.
    pub fn sub(&self, rhs: &Self) -> Self {
        Self::from_mont(self.mont.sub_mod(&rhs.mont, &P::MODULUS))
    }

    /// Additive inverse.
    pub fn neg(&self) -> Self {
        if self.is_zero() {
            *self
        } else {
            Self::from_mont(P::MODULUS.wrapping_sub(&self.mont))
        }
    }

    /// Field multiplication.
    pub fn mul(&self, rhs: &Self) -> Self {
        Self::from_mont(Self::mont_mul(&self.mont, &rhs.mont))
    }

    /// Squaring, as a multiplication: a symmetric widening square with a
    /// separate wide reduction was built and measured slower than the
    /// interleaved CIOS multiply on this portable backend — the fused
    /// reduction keeps the accumulator in registers, which outweighs
    /// halving the limb products — so squaring has no kernel of its own.
    pub fn square(&self) -> Self {
        Self::from_mont(Self::mont_mul(&self.mont, &self.mont))
    }

    /// Doubling.
    pub fn double(&self) -> Self {
        self.add(self)
    }

    /// Exponentiation by a little-endian limb slice: left-to-right sliding
    /// window (width 4) over a table of the 8 odd powers `self^1 … self^15`.
    ///
    /// Versus plain binary, the multiply count for a `b`-bit exponent drops
    /// from ≈`b/2` to ≈`b/5` (+7 table setup) while the square count is
    /// unchanged — square-root extraction (a fixed 510-bit exponent on the
    /// hash-to-curve path) is the main beneficiary.
    pub fn pow_limbs(&self, exp: &[u64]) -> Self {
        #[inline]
        fn bit(exp: &[u64], i: u32) -> bool {
            (exp[(i / 64) as usize] >> (i % 64)) & 1 == 1
        }
        // Find the highest set bit.
        let mut top = None;
        for (i, &l) in exp.iter().enumerate().rev() {
            if l != 0 {
                top = Some(64 * i as u32 + 63 - l.leading_zeros());
                break;
            }
        }
        let Some(top) = top else { return Self::ONE };
        // Odd powers: table[i] = self^(2i+1).
        let sq = self.square();
        let mut table = [*self; 8];
        for i in 1..8 {
            table[i] = table[i - 1].mul(&sq);
        }
        let mut acc = Self::ONE;
        let mut i = top as i64;
        while i >= 0 {
            if !bit(exp, i as u32) {
                acc = acc.square();
                i -= 1;
                continue;
            }
            // Longest window ending on a set bit, at most 4 bits wide.
            let mut j = (i - 3).max(0);
            while !bit(exp, j as u32) {
                j += 1;
            }
            let mut window = 0usize;
            for k in (j..=i).rev() {
                acc = acc.square();
                window = (window << 1) | usize::from(bit(exp, k as u32));
            }
            acc = acc.mul(&table[window >> 1]);
            i = j - 1;
        }
        acc
    }

    /// Exponentiation by a `Uint` of any width.
    pub fn pow<const M: usize>(&self, exp: &Uint<M>) -> Self {
        self.pow_limbs(exp.as_limbs())
    }

    /// The Lucas function `V_n(t)`: `V₀ = 2`, `V₁ = t`,
    /// `V_{k+1} = t·V_k − V_{k−1}`, so that `V_n(y + y⁻¹) = yⁿ + y⁻ⁿ` for
    /// `y` in any extension. A ladder over `(V_k, V_{k+1})` with
    /// `V_{2k} = V_k² − 2` and `V_{2k+1} = V_k·V_{k+1} − t`: two
    /// multiplications per bit of `n` down to its lowest set bit, one per
    /// trailing zero.
    ///
    /// This is how an exponentiation of a norm-1 element of the quadratic
    /// extension is *tested* without being carried out: `yⁿ = 1` exactly
    /// when `V_n(y + y⁻¹) = 2`.
    pub fn lucas_v<const M: usize>(&self, n: &Uint<M>) -> Self {
        let two = Self::ONE.double();
        if n.is_zero() {
            return two;
        }
        let top = n.bits() - 1;
        let low = (0..=top).find(|&i| n.bit(i)).unwrap_or(top);
        // (V_k, V_{k+1}) for k the bits of n consumed so far: the top one.
        let (mut lo, mut hi) = (*self, self.square().sub(&two));
        for i in (low + 1..top).rev() {
            let cross = lo.mul(&hi).sub(self);
            if n.bit(i) {
                lo = cross;
                hi = hi.square().sub(&two);
            } else {
                hi = cross;
                lo = lo.square().sub(&two);
            }
        }
        if top > low {
            // The lowest set bit: V_{2k+1}, and V_{2k+2} is never needed.
            lo = lo.mul(&hi).sub(self);
        }
        for _ in 0..low {
            lo = lo.square().sub(&two);
        }
        lo
    }

    /// Replaces every nonzero element of `values` by its inverse at the
    /// price of one field inversion and three multiplications per element
    /// (Montgomery's trick). Zeros stay zero and disturb nothing else.
    pub fn batch_invert(values: &mut [Self]) {
        // prefix[i] = product of the nonzero values before i.
        let mut prefix = Vec::with_capacity(values.len());
        let mut acc = Self::ONE;
        for v in values.iter() {
            prefix.push(acc);
            if !v.is_zero() {
                acc = acc.mul(v);
            }
        }
        let Some(mut inv) = acc.invert() else {
            return; // unreachable: a product of nonzero field elements
        };
        for (v, before) in values.iter_mut().zip(&prefix).rev() {
            if !v.is_zero() {
                let rest = inv.mul(v);
                *v = inv.mul(before);
                inv = rest;
            }
        }
    }

    /// Multiplicative inverse via the binary extended Euclidean algorithm
    /// (~10× faster than the Fermat exponentiation it replaced, which the
    /// equivalence proptests keep as their oracle).
    ///
    /// Runs in time dependent on the value (fine here: inversions touch
    /// projective z-coordinates and pairing values, never long-term keys).
    ///
    /// Returns `None` for zero.
    pub fn invert(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        // The stored representation is m = a·R mod p. Binary xgcd gives
        // z ≡ m⁻¹ = a⁻¹·R⁻¹; two ladder steps by R² lift it back to
        // Montgomery form: (z·R²·R⁻¹)·R²·R⁻¹ = a⁻¹·R.
        let z = Self::inv_mod_binary(&self.mont);
        let t = Self::mont_mul(&z, &P::R2);
        Some(Self::from_mont(Self::mont_mul(&t, &P::R2)))
    }

    /// Reference Fermat-exponentiation inverse (`self^(p−2)`): the oracle
    /// for the binary-GCD kernel, built for tests only. `None` for zero.
    #[cfg(test)]
    pub(crate) fn invert_fermat(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        let exp = P::MODULUS.wrapping_sub(&Uint::from_u64(2));
        Some(self.pow(&exp))
    }

    /// `m⁻¹ mod p` for `m ≢ 0` via binary extended GCD (p odd prime).
    ///
    /// Invariants: `u·m ≡ a` and `v·m ≡ b (mod p)`; when `a` reaches 0,
    /// `b = gcd(m, p) = 1` and `v` is the inverse.
    fn inv_mod_binary(m: &Uint<N>) -> Uint<N> {
        // Halves `x` mod p: even values shift, odd values add the (odd)
        // modulus first; the add may carry one bit past the top limb.
        #[inline]
        fn half_mod<const N: usize>(x: &Uint<N>, p: &Uint<N>) -> Uint<N> {
            if x.is_even() {
                x.shr1()
            } else {
                let (s, carry) = x.overflowing_add(p);
                let mut h = s.shr1().into_limbs();
                if carry {
                    h[N - 1] |= 1 << 63;
                }
                Uint::from_limbs(h)
            }
        }
        let p = P::MODULUS;
        let mut a = *m;
        let mut b = p;
        let mut u = Uint::<N>::ONE;
        let mut v = Uint::<N>::ZERO;
        while !a.is_zero() {
            while a.is_even() {
                a = a.shr1();
                u = half_mod(&u, &p);
            }
            while b.is_even() {
                b = b.shr1();
                v = half_mod(&v, &p);
            }
            let (d, borrow) = a.overflowing_sub(&b);
            if !borrow {
                a = d;
                u = u.sub_mod(&v, &p);
            } else {
                b = b.wrapping_sub(&a);
                v = v.sub_mod(&u, &p);
            }
        }
        debug_assert_eq!(b, Uint::ONE, "modulus is prime, input nonzero");
        v
    }

    /// Legendre symbol: `1` for quadratic residues, `-1` for non-residues,
    /// `0` for zero.
    ///
    /// The binary Jacobi algorithm on the canonical integers: halvings,
    /// subtractions and quadratic reciprocity, no field multiplication —
    /// about a tenth of the Euler exponentiation `a^((p−1)/2)` it replaced
    /// (the tests keep that as the oracle). Runs in time dependent on the
    /// value, like [`Self::invert`].
    pub fn legendre(&self) -> i8 {
        let mut a = self.to_uint();
        let mut n = P::MODULUS;
        // The answer is `sign · (a / n)`, `n` odd throughout.
        let mut sign = 1i8;
        while !a.is_zero() {
            // (2 / n) = −1 exactly when n ≡ 3, 5 (mod 8).
            let n_mod_8 = n.as_limbs()[0] & 7;
            while a.is_even() {
                a = a.shr1();
                if n_mod_8 == 3 || n_mod_8 == 5 {
                    sign = -sign;
                }
            }
            // Both odd: reciprocity puts the larger on top, and the
            // difference is even (zero once a = n = gcd).
            if a < n {
                if a.as_limbs()[0] & n.as_limbs()[0] & 3 == 3 {
                    sign = -sign;
                }
                core::mem::swap(&mut a, &mut n);
            }
            a = a.wrapping_sub(&n);
        }
        if n == Uint::ONE {
            sign
        } else {
            0
        }
    }

    /// Swaps `a` and `b` when `choice` is set, by masking every limb rather
    /// than branching on `choice` (a Montgomery ladder's conditional swap).
    pub fn conditional_swap(a: &mut Self, b: &mut Self, choice: bool) {
        let (x, y) = (
            Uint::select(&a.mont, &b.mont, choice),
            Uint::select(&b.mont, &a.mont, choice),
        );
        a.mont = x;
        b.mont = y;
    }

    /// Square root for moduli `≡ 3 (mod 4)`: `self^((p+1)/4)`, verified.
    ///
    /// Returns `None` if `self` is not a quadratic residue.
    pub fn sqrt(&self) -> Option<Self> {
        debug_assert!(
            P::MODULUS.as_limbs()[0] & 3 == 3,
            "sqrt shortcut requires p ≡ 3 (mod 4)"
        );
        let exp = P::MODULUS.wrapping_add(&Uint::ONE).shr1().shr1();
        let r = self.pow(&exp);
        if r.square() == *self {
            Some(r)
        } else {
            None
        }
    }

    /// Uniformly random field element.
    pub fn random(rng: &mut impl RngCore) -> Self {
        // Sample double-width and reduce: bias is 2^-(64N), negligible.
        let mut bytes = vec![0u8; 16 * N];
        rng.fill_bytes(&mut bytes);
        let lo = Uint::from_be_bytes(&bytes[..8 * N]).expect("exact length");
        let hi = Uint::from_be_bytes(&bytes[8 * N..]).expect("exact length");
        Self::from_wide(&lo, &hi)
    }

    /// Uniformly random *nonzero* field element.
    pub fn random_nonzero(rng: &mut impl RngCore) -> Self {
        loop {
            let v = Self::random(rng);
            if !v.is_zero() {
                return v;
            }
        }
    }

    /// Derives a field element from a byte string of any length
    /// (≥ `2·NUM_BYTES` recommended for negligible bias), interpreting it as
    /// a big-endian integer reduced mod the modulus.
    pub fn from_wide_bytes(bytes: &[u8]) -> Self {
        if bytes.len() <= 16 * N {
            let mut full = vec![0u8; 16 * N];
            full[16 * N - bytes.len()..].copy_from_slice(bytes);
            let hi = Uint::from_be_bytes(&full[..8 * N]).expect("exact length");
            let lo = Uint::from_be_bytes(&full[8 * N..]).expect("exact length");
            return Self::from_wide(&lo, &hi);
        }
        // Longer inputs: Horner evaluation base 2^(64·N) over N-limb chunks.
        let chunk_bytes = 8 * N;
        // 2^(64·N) mod m in Montgomery form is mont(R) = R·R mod m = mont_mul(R2, R)…
        // simplest correct route: R as a plain integer equals 2^(64N) mod m.
        let shift = Self::from_uint(&P::R);
        let mut acc = Self::ZERO;
        let mut rest = bytes;
        // Leading partial chunk first.
        let lead = rest.len() % chunk_bytes;
        if lead != 0 {
            acc = Self::from_uint(
                &Uint::from_be_bytes_padded(&rest[..lead]).expect("fits in N limbs"),
            );
            rest = &rest[lead..];
        }
        while !rest.is_empty() {
            let chunk = Uint::from_be_bytes(&rest[..chunk_bytes]).expect("exact length");
            acc = acc.mul(&shift).add(&Self::from_uint(&chunk));
            rest = &rest[chunk_bytes..];
        }
        acc
    }

    /// Canonical big-endian encoding, `P::NUM_BYTES` long.
    pub fn to_canonical_bytes(&self) -> Vec<u8> {
        let full = self.to_uint().to_be_bytes();
        full[full.len() - P::NUM_BYTES..].to_vec()
    }

    /// Parses a canonical encoding (exactly `P::NUM_BYTES`, value < modulus).
    pub fn from_canonical_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != P::NUM_BYTES {
            return None;
        }
        let v = Uint::from_be_bytes_padded(bytes)?;
        if v.cmp(&P::MODULUS) == Ordering::Less {
            Some(Self::from_uint(&v))
        } else {
            None
        }
    }
}

impl<P: FieldParams<N>, const N: usize> Clone for Fe<P, N> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: FieldParams<N>, const N: usize> Copy for Fe<P, N> {}

impl<P: FieldParams<N>, const N: usize> PartialEq for Fe<P, N> {
    fn eq(&self, other: &Self) -> bool {
        self.mont == other.mont
    }
}
impl<P: FieldParams<N>, const N: usize> Eq for Fe<P, N> {}

impl<P: FieldParams<N>, const N: usize> core::hash::Hash for Fe<P, N> {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.mont.hash(state);
    }
}

impl<P: FieldParams<N>, const N: usize> Default for Fe<P, N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<P: FieldParams<N>, const N: usize> fmt::Debug for Fe<P, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({:?})", P::NAME, self.to_uint())
    }
}

impl<P: FieldParams<N>, const N: usize> fmt::Display for Fe<P, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<P: FieldParams<N>, const N: usize> core::ops::Add for Fe<P, N> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Fe::add(&self, &rhs)
    }
}
impl<P: FieldParams<N>, const N: usize> core::ops::Sub for Fe<P, N> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Fe::sub(&self, &rhs)
    }
}
impl<P: FieldParams<N>, const N: usize> core::ops::Mul for Fe<P, N> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Fe::mul(&self, &rhs)
    }
}
impl<P: FieldParams<N>, const N: usize> core::ops::Neg for Fe<P, N> {
    type Output = Self;
    fn neg(self) -> Self {
        Fe::neg(&self)
    }
}
