//! `F_p` in eight AVX-512 IFMA lanes: the arithmetic that the curve's
//! batch decompression and hash-to-curve, and the pairing's revocation
//! walk, run eight independent values through at once.
//!
//! An element is ten 52-bit limbs, limb `k` of all eight lanes in one
//! 512-bit register, in Montgomery form with `R = 2^520`. `vpmadd52luq` and
//! `vpmadd52huq` add the low and the high 52 bits of a 104-bit product to a
//! 64-bit accumulator, so a product is a 10×10 schoolbook of 200 of them
//! (a square, 110) with no carry handling until the end. The reduction
//! adds `m·p` limb by limb per row and skips `p`'s five zero limbs (4 to
//! 8), as the scalar CIOS kernel skips its zero words.
//!
//! Bounds. A product of two inputs below `16p` is below `2p` with no final
//! subtraction: `p < 2^512`, so `R > 256p` and the result `a·b/R + m·p/R`
//! is below `p + p`. Every value handed from one step to the next is below
//! `2p`; the sums and differences inside a step stay below `8p`. Limbs are
//! normalised (below `2^52`) after every operation, since the multiplier
//! reads only the low 52 bits of each.
//!
//! Every function here that touches a register is a safe
//! `#[target_feature]` function, callable without `unsafe` only from
//! another one. A crate enters them from ordinary code at one dispatch
//! site, which takes an [`Ifma`]: a value that only [`Ifma::detect`]
//! constructs, and only on a CPU that has the features.

// Clippy reads every public `#[target_feature]` function as an unsafe one
// to be documented one by one; their one requirement, the CPU feature, is
// the one above, and [`Ifma`] is how a caller meets it.
#![allow(clippy::missing_safety_doc)]

use core::arch::x86_64::{
    __m512i, _mm256_extract_epi64, _mm512_add_epi64, _mm512_and_si512, _mm512_cmpeq_epi64_mask,
    _mm512_cmplt_epi64_mask, _mm512_extracti64x4_epi64, _mm512_madd52hi_epu64,
    _mm512_madd52lo_epu64, _mm512_mask_blend_epi64, _mm512_permutexvar_epi64, _mm512_set1_epi64,
    _mm512_set_epi64, _mm512_setzero_si512, _mm512_srai_epi64, _mm512_srli_epi64, _mm512_sub_epi64,
};
use std::sync::OnceLock;

use peace_bigint::Uint;

use crate::Fp;

/// Elements per register.
pub const LANES: usize = 8;
/// Limbs per element.
pub const LIMBS: usize = 10;
/// One element as plain radix-2^52 limbs, outside a register: how lane
/// tables are stored (a `Vec` of registers is a 64-byte-aligned
/// allocation, and one per call on a long-lived thread fragments its
/// malloc arena).
pub type Limbs = [u64; LIMBS];
/// One bit per lane, lane `k` in bit `k`.
pub type Mask = u8;

const MASK: u64 = (1 << 52) - 1;

/// `p` in radix 2^52.
pub const P: Limbs = [
    0x799a340e3d293,
    0xa6c50b9a21f5b,
    0x583da26addcf6,
    0x2016,
    0,
    0,
    0,
    0,
    0,
    0x80000000000,
];
/// `2p` in radix 2^52: [`sub`] adds it, and [`reduce`] by it takes a value
/// below `4p` to one below `2p`.
pub const P2: Limbs = p_times(2);
/// `4p`: [`tidy`] subtracts it first.
const P4: Limbs = p_times(4);
/// The limbs of `p` the reduction multiplies by; the others are zero.
const P_NONZERO: [usize; 5] = [0, 1, 2, 3, 9];
/// `−p⁻¹ mod 2^52`.
const INV: u64 = 0xef8042401e465;
/// `R² mod p`: a product with it enters Montgomery form.
const R2: Limbs = [
    0xa779e01a40000,
    0x1a2159c1ba44e,
    0xa74eaf318daa2,
    0xbb90abf891f8,
    0x8cb27641bee5c,
    0x414902e46899a,
    0x1016600ac674,
    0,
    0,
    0,
];
/// `R mod p`: one in Montgomery form.
const ONE: Limbs = [
    0x45321793eac93,
    0x1cadd75636868,
    0xdcf8ccaf3efa9,
    0xfffffffbff365,
    0xfffffffffffff,
    0xfffffffffffff,
    0xfffffffffffff,
    0xfffffffffffff,
    0xfffffffffffff,
    0x7ffffffffff,
];
/// The integer 1: a product with it leaves Montgomery form.
const UNIT: Limbs = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0];

/// `k·p` in normalised radix-2^52 limbs.
const fn p_times(k: u64) -> Limbs {
    let mut out = [0; LIMBS];
    let mut carry = 0;
    let mut i = 0;
    while i < LIMBS {
        let v = P[i] * k + carry;
        out[i] = v & MASK;
        carry = v >> 52;
        i += 1;
    }
    out
}

/// Proof that this CPU runs the lane kernels: `avx512ifma` and the
/// `avx512f` it implies. Only [`Self::detect`] makes one, so a dispatch
/// site that is handed one may enter a `#[target_feature]` kernel.
#[derive(Clone, Copy, Debug)]
pub struct Ifma(());

impl Ifma {
    /// The capability, where the CPU has the features; `None` elsewhere,
    /// where every caller takes its scalar path. A build with
    /// `RUSTFLAGS='--cfg peace_scalar'` takes the scalar path on every CPU,
    /// so that path can be tested whole where the lanes would run.
    pub fn detect() -> Option<Self> {
        if cfg!(peace_scalar) {
            return None;
        }
        (std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512ifma"))
            .then_some(Self(()))
    }
}

/// Eight elements of `F_p`, one per lane.
#[derive(Clone, Copy)]
pub struct Fp8([__m512i; LIMBS]);

/// The same element in every lane.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn splat(limbs: &Limbs) -> Fp8 {
    let mut out = [_mm512_setzero_si512(); LIMBS];
    for (o, &l) in out.iter_mut().zip(limbs) {
        *o = _mm512_set1_epi64(l as i64);
    }
    Fp8(out)
}

/// One, in every lane.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn one() -> Fp8 {
    splat(&ONE)
}

/// Zero, in every lane.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn zero() -> Fp8 {
    splat(&[0; LIMBS])
}

/// Lane `k` of the register is `lanes[k][limb]`, for every limb.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn pack(lanes: &[Limbs; LANES]) -> Fp8 {
    let mut out = [_mm512_setzero_si512(); LIMBS];
    for (limb, o) in out.iter_mut().enumerate() {
        let l = |k: usize| lanes[k][limb] as i64;
        *o = _mm512_set_epi64(l(7), l(6), l(5), l(4), l(3), l(2), l(1), l(0));
    }
    Fp8(out)
}

/// The inverse of [`pack`].
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn unpack(x: &Fp8) -> [Limbs; LANES] {
    let mut out = [[0; LIMBS]; LANES];
    for (limb, v) in x.0.iter().enumerate() {
        let (lo, hi) = (
            _mm512_extracti64x4_epi64::<0>(*v),
            _mm512_extracti64x4_epi64::<1>(*v),
        );
        let words = [
            _mm256_extract_epi64::<0>(lo),
            _mm256_extract_epi64::<1>(lo),
            _mm256_extract_epi64::<2>(lo),
            _mm256_extract_epi64::<3>(lo),
            _mm256_extract_epi64::<0>(hi),
            _mm256_extract_epi64::<1>(hi),
            _mm256_extract_epi64::<2>(hi),
            _mm256_extract_epi64::<3>(hi),
        ];
        for (lane, w) in out.iter_mut().zip(words) {
            lane[limb] = w as u64;
        }
    }
    out
}

/// Bits `52k .. 52k + 52` of `x`, for each `k`.
fn radix52(x: &Uint<8>) -> Limbs {
    let w = x.as_limbs();
    let mut out = [0; LIMBS];
    for (k, limb) in out.iter_mut().enumerate() {
        let (i, s) = (52 * k / 64, 52 * k % 64);
        let mut v = w[i] >> s;
        if s > 12 && i + 1 < w.len() {
            v |= w[i + 1] << (64 - s);
        }
        *limb = v & MASK;
    }
    out
}

/// The inverse of [`radix52`], for a value below `2^512`.
fn radix64(limbs: &Limbs) -> Uint<8> {
    let mut w = [0u64; 8];
    for (k, &limb) in limbs.iter().enumerate() {
        let (i, s) = (52 * k / 64, 52 * k % 64);
        w[i] |= limb << s;
        if s > 12 && i + 1 < w.len() {
            w[i + 1] |= limb >> (64 - s);
        }
    }
    Uint::from_limbs(w)
}

/// `x` in lane Montgomery form, as plain limbs: those of `x·R mod p`.
/// Scalar code, for tables built where no register is at hand.
pub fn limbs(x: &Fp) -> Limbs {
    static R: OnceLock<Fp> = OnceLock::new();
    let r = R.get_or_init(|| Fp::from_uint(&radix64(&ONE)));
    radix52(&x.mul(r).to_uint())
}

/// The inverse of [`limbs`], for canonical limbs.
pub fn from_limbs(l: &Limbs) -> Fp {
    static R_INV: OnceLock<Fp> = OnceLock::new();
    let r_inv = R_INV.get_or_init(|| Fp::from_uint(&radix64(&ONE)).invert().expect("R is a unit"));
    Fp::from_uint(&radix64(l)).mul(r_inv)
}

/// Up to eight field elements in lane Montgomery form; missing lanes are 0.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn from_fps(xs: &[Fp]) -> Fp8 {
    let mut lanes = [[0; LIMBS]; LANES];
    for (lane, x) in lanes.iter_mut().zip(xs) {
        *lane = radix52(&x.to_uint());
    }
    mul(&pack(&lanes), &splat(&R2))
}

/// The eight lanes as field elements.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn to_fps(x: &Fp8) -> [Fp; LANES] {
    // Below `p + 1`: at most `p`, which `from_uint` reduces to 0.
    unpack(&mul(x, &splat(&UNIT))).map(|limbs| Fp::from_uint(&radix64(&limbs)))
}

/// Propagates carries (and borrows: the shift is arithmetic) from each limb
/// into the next, leaving limbs 0 to 8 in `[0, 2^52)` and the sign in 9.
#[target_feature(enable = "avx512ifma")]
#[inline]
fn carry(mut t: [__m512i; LIMBS]) -> Fp8 {
    let mask = _mm512_set1_epi64(MASK as i64);
    for j in 0..LIMBS - 1 {
        let c = _mm512_srai_epi64::<52>(t[j]);
        t[j] = _mm512_and_si512(t[j], mask);
        t[j + 1] = _mm512_add_epi64(t[j + 1], c);
    }
    Fp8(t)
}

/// `a + b`, unreduced.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn add(a: &Fp8, b: &Fp8) -> Fp8 {
    let mut t = a.0;
    for (t, b) in t.iter_mut().zip(&b.0) {
        *t = _mm512_add_epi64(*t, *b);
    }
    carry(t)
}

/// `a − b + 2p`, for `b < 2p`: below `a + 2p`.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn sub(a: &Fp8, b: &Fp8) -> Fp8 {
    let mut t = a.0;
    for ((t, b), &k) in t.iter_mut().zip(&b.0).zip(&P2) {
        *t = _mm512_sub_epi64(_mm512_add_epi64(*t, _mm512_set1_epi64(k as i64)), *b);
    }
    carry(t)
}

/// `x − k` where that is not negative, else `x`: for `x < 2k`, below `k`.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn reduce(x: &Fp8, k: &Limbs) -> Fp8 {
    let mut t = x.0;
    for (t, &k) in t.iter_mut().zip(k) {
        *t = _mm512_sub_epi64(*t, _mm512_set1_epi64(k as i64));
    }
    let d = carry(t);
    let negative = _mm512_cmplt_epi64_mask(d.0[LIMBS - 1], _mm512_setzero_si512());
    select(negative, x, &d)
}

/// `if_set` in the lanes of `mask`, `otherwise` in the rest.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn select(mask: Mask, if_set: &Fp8, otherwise: &Fp8) -> Fp8 {
    let mut out = otherwise.0;
    for (o, s) in out.iter_mut().zip(&if_set.0) {
        *o = _mm512_mask_blend_epi64(mask, *o, *s);
    }
    Fp8(out)
}

/// Lane `k` of the result is lane `idx[k]` of `x`: how a lane group moves
/// one ladder's values between the lanes it spans.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn permute(x: &Fp8, idx: &[u8; LANES]) -> Fp8 {
    let i = |k: usize| i64::from(idx[k]);
    let idx = _mm512_set_epi64(i(7), i(6), i(5), i(4), i(3), i(2), i(1), i(0));
    let mut out = x.0;
    for o in &mut out {
        *o = _mm512_permutexvar_epi64(idx, *o);
    }
    Fp8(out)
}

/// The lanes where `a` and `b`, both canonical, are equal.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn eq(a: &Fp8, b: &Fp8) -> Mask {
    a.0.iter()
        .zip(&b.0)
        .fold(0xff, |m, (a, b)| m & _mm512_cmpeq_epi64_mask(*a, *b))
}

/// `x` below `2p` again, for `x < 8p`: a sum or difference made ready to
/// be subtracted.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn tidy(x: &Fp8) -> Fp8 {
    reduce(&reduce(x, &P4), &P2)
}

/// The lanes where `x < 4p` is `0 mod p`.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn is_zero(x: &Fp8) -> Mask {
    eq(&canonical(x), &zero())
}

/// The canonical form of `x < 4p`.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn canonical(x: &Fp8) -> Fp8 {
    reduce(&reduce(x, &P2), &P)
}

/// Montgomery product `a·b/R mod p` of inputs below `16p`: below `2p`.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn mul(a: &Fp8, b: &Fp8) -> Fp8 {
    dot([(a, b)])
}

/// `Σ aₖ·bₖ/R mod p`, one reduction for all the products, below `2p` when
/// `Σ aₖ·bₖ < 256p²` (so for two products of inputs below `8p`).
///
/// Row `i` adds every `aₖ·bₖ[i]` at limb `i` and then `m·p` to clear limb
/// `i`, whose high bits carry into limb `i + 1`; the result is limbs 10 to
/// 19. A limb receives at most `11·(2N + 2)` halves of products, below
/// `2^59` for `N ≤ 2`.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn dot<const N: usize>(terms: [(&Fp8, &Fp8); N]) -> Fp8 {
    let zero = _mm512_setzero_si512();
    let inv = _mm512_set1_epi64(INV as i64);
    let p = splat(&P).0;
    let mut t = [zero; 2 * LIMBS];
    // Rows spelled out: with every index a constant, `t` stays in registers
    // (a loop over rows kept it on the stack, at 1.7× the time).
    macro_rules! rows {
        ($($i:literal)*) => {$(
            for (a, b) in terms {
                let bi = b.0[$i];
                for (j, &aj) in a.0.iter().enumerate() {
                    t[$i + j] = _mm512_madd52lo_epu64(t[$i + j], aj, bi);
                    t[$i + j + 1] = _mm512_madd52hi_epu64(t[$i + j + 1], aj, bi);
                }
            }
            let m = _mm512_madd52lo_epu64(zero, t[$i], inv);
            for j in P_NONZERO {
                t[$i + j] = _mm512_madd52lo_epu64(t[$i + j], m, p[j]);
                t[$i + j + 1] = _mm512_madd52hi_epu64(t[$i + j + 1], m, p[j]);
            }
            t[$i + 1] = _mm512_add_epi64(t[$i + 1], _mm512_srli_epi64::<52>(t[$i]));
        )*};
    }
    rows!(0 1 2 3 4 5 6 7 8 9);
    let mut out = [zero; LIMBS];
    out.copy_from_slice(&t[LIMBS..]);
    carry(out)
}

/// `a²/R mod p` of an input below `16p`: below `2p`, the value of
/// [`mul`]`(a, a)`, with each cross product `aᵢ·aⱼ` formed once and the
/// sum doubled (55 products, not 100) before the same reduction. A limb
/// receives at most 32 halves of products, below `2^57`.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn square(a: &Fp8) -> Fp8 {
    let zero = _mm512_setzero_si512();
    let inv = _mm512_set1_epi64(INV as i64);
    let p = splat(&P).0;
    let a = &a.0;
    let mut t = [zero; 2 * LIMBS];
    for i in 0..LIMBS {
        for j in i + 1..LIMBS {
            t[i + j] = _mm512_madd52lo_epu64(t[i + j], a[i], a[j]);
            t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], a[i], a[j]);
        }
    }
    for t in t.iter_mut() {
        *t = _mm512_add_epi64(*t, *t);
    }
    for i in 0..LIMBS {
        t[2 * i] = _mm512_madd52lo_epu64(t[2 * i], a[i], a[i]);
        t[2 * i + 1] = _mm512_madd52hi_epu64(t[2 * i + 1], a[i], a[i]);
    }
    for i in 0..LIMBS {
        let m = _mm512_madd52lo_epu64(zero, t[i], inv);
        for j in P_NONZERO {
            t[i + j] = _mm512_madd52lo_epu64(t[i + j], m, p[j]);
            t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], m, p[j]);
        }
        t[i + 1] = _mm512_add_epi64(t[i + 1], _mm512_srli_epi64::<52>(t[i]));
    }
    let mut out = [zero; LIMBS];
    out.copy_from_slice(&t[LIMBS..]);
    carry(out)
}

/// `x^e` in every lane for one exponent `e` (little-endian limbs), by the
/// sliding window of [`Fp::pow_limbs`](crate::Fe::pow_limbs): the window
/// boundaries depend on `e` alone, so every lane takes the same steps.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn pow(x: &Fp8, e: &[u64]) -> Fp8 {
    let bit = |i: usize| (e[i / 64] >> (i % 64)) & 1 == 1;
    let Some(top) = (0..64 * e.len()).rev().find(|&i| bit(i)) else {
        return one();
    };
    let sq = square(x);
    let mut odd = [*x; 8];
    for i in 1..8 {
        odd[i] = mul(&odd[i - 1], &sq);
    }
    let mut acc = one();
    let mut i = top as isize;
    while i >= 0 {
        if !bit(i as usize) {
            acc = square(&acc);
            i -= 1;
            continue;
        }
        let mut j = (i - 3).max(0);
        while !bit(j as usize) {
            j += 1;
        }
        let mut window = 0;
        for k in (j..=i).rev() {
            acc = square(&acc);
            window = (window << 1) | usize::from(bit(k as usize));
        }
        acc = mul(&acc, &odd[window >> 1]);
        i = j - 1;
    }
    acc
}

/// `x^(p−2)` in every lane: the inverse of a nonzero `x`, and 0 for 0.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn invert(x: &Fp8) -> Fp8 {
    pow(
        x,
        crate::base_modulus()
            .wrapping_sub(&Uint::from_u64(2))
            .as_limbs(),
    )
}

/// `F_p²` products, an element held as its two coordinates `(re, im)`
/// with `i² = −1`: `(a + bi)(c + di) = (ac − bd) + (ad + bc)i`.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn mul2(x: &(Fp8, Fp8), y: &(Fp8, Fp8)) -> (Fp8, Fp8) {
    let ((a, b), (c, d)) = (x, y);
    (sub(&mul(a, c), &mul(b, d)), add(&mul(a, d), &mul(b, c)))
}

/// `(re + im·i)² = (re + im)(re − im) + (2·re·im)·i`, as
/// [`Fp2::square`](crate::Fp2::square) writes it.
#[target_feature(enable = "avx512ifma")]
#[inline]
pub fn square2(re: &Fp8, im: &Fp8) -> (Fp8, Fp8) {
    (mul(&add(re, im), &sub(re, im)), mul(&add(re, re), im))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constants_are_the_field_s() {
        let p = crate::base_modulus();
        assert_eq!(radix52(&p), P);
        assert_eq!(radix64(&P), p);
        assert!(P_NONZERO.iter().all(|&j| P[j] != 0));
        assert_eq!(P.iter().filter(|&&l| l != 0).count(), P_NONZERO.len());
        assert_eq!(P[0].wrapping_mul(INV) & MASK, MASK, "p·INV ≡ −1 mod 2^52");
        let r = Fp::from_u64(2).pow(&Uint::<1>::from_u64(520));
        assert_eq!(radix64(&ONE), r.to_uint());
        assert_eq!(radix64(&R2), r.square().to_uint());
        assert_eq!(radix64(&P2), p.shl1());
    }

    /// A limb string as the integer it stands for, in 64-bit words (ten
    /// 52-bit limbs fit in nine words).
    fn value(limbs: &Limbs) -> [u64; 9] {
        let mut w = [0u64; 9];
        for (k, &limb) in limbs.iter().enumerate() {
            let (i, s) = (52 * k / 64, 52 * k % 64);
            w[i] |= limb << s;
            if s > 12 {
                w[i + 1] |= limb >> (64 - s);
            }
        }
        w
    }

    /// `a − b` on normalised limbs, for `a ≥ b`.
    fn minus(a: &Limbs, b: &Limbs) -> Limbs {
        let mut out = [0; LIMBS];
        let mut borrow = 0i64;
        for k in 0..LIMBS {
            let v = a[k] as i64 - b[k] as i64 - borrow;
            borrow = i64::from(v < 0);
            out[k] = (v + (borrow << 52)) as u64;
        }
        assert_eq!(borrow, 0, "a ≥ b");
        out
    }

    /// `a < b` as integers.
    fn below(a: &Limbs, b: &Limbs) -> bool {
        value(a).iter().rev().cmp(value(b).iter().rev()).is_lt()
    }

    /// The field element a lane value stands for, whatever multiple of `p`
    /// it carries: `x/R mod p`, reduced by scalar code alone.
    fn element(x: &Limbs) -> Fp {
        let w = value(x);
        let lo = Uint::<8>::from_limbs(w[..8].try_into().unwrap());
        let hi = Uint::<8>::from_u64(w[8]);
        let r_inv = Fp::from_uint(&radix64(&ONE)).invert().unwrap();
        Fp::from_wide(&lo, &hi).mul(&r_inv)
    }

    /// Random lane values below `kp` and within `p` of it: `kp − 1 − r`
    /// for `r < p`, and `kp − 1` itself in lane 0.
    fn just_below(k: u64, rng: &mut StdRng) -> [Limbs; LANES] {
        let top = minus(&p_times(k), &UNIT);
        let mut out = [top; LANES];
        for lane in &mut out[1..] {
            *lane = minus(&top, &radix52(&Fp::random(rng).to_uint()));
        }
        out
    }

    /// Canonical random values, and 0 in lane 0.
    fn small(rng: &mut StdRng) -> [Limbs; LANES] {
        let mut out = [[0; LIMBS]; LANES];
        for lane in &mut out[1..] {
            *lane = radix52(&Fp::random(rng).to_uint());
        }
        out
    }

    /// The inputs of one round, as plain limbs.
    struct Inputs {
        /// Two factors just below `16p`.
        a16: [Limbs; LANES],
        b16: [Limbs; LANES],
        /// Two addends just below `4p`.
        a4: [Limbs; LANES],
        b4: [Limbs; LANES],
        /// A minuend just below `6p`, and a canonical subtrahend.
        a6: [Limbs; LANES],
        b: [Limbs; LANES],
    }

    /// What the kernels make of them, as limbs.
    struct Outputs {
        product: [Limbs; LANES],
        /// `square` of the first factor.
        squared: [Limbs; LANES],
        sum: [Limbs; LANES],
        difference: [Limbs; LANES],
        square: ([Limbs; LANES], [Limbs; LANES]),
        /// `tidy` of the sum and of the difference.
        tidied: ([Limbs; LANES], [Limbs; LANES]),
        /// `is_zero` of `kp` for `k` in 0..4, and of `kp − 1`.
        zeros: [Mask; 5],
        /// `reduce` by `p` and by `2p` of `2k − 1`, `k`, `k − 1` and 0.
        reduced: [[[Limbs; LANES]; 4]; 2],
        /// The first factor with its lanes rotated by three.
        rotated: [Limbs; LANES],
    }

    #[target_feature(enable = "avx512ifma")]
    fn run(i: &Inputs) -> Outputs {
        let reduced = [(P, 2), (P2, 4)].map(|(k, twice)| {
            let cases = [
                minus(&p_times(twice), &UNIT),
                k,
                minus(&k, &UNIT),
                [0; LIMBS],
            ];
            cases.map(|c| unpack(&reduce(&splat(&c), &k)))
        });
        let (re, im) = square2(&reduce(&pack(&i.a4), &P2), &pack(&i.b));
        let (sum, difference) = (
            add(&pack(&i.a4), &pack(&i.b4)),
            sub(&pack(&i.a6), &pack(&i.b)),
        );
        let zeros = [0, 1, 2, 3].map(|k| is_zero(&splat(&p_times(k))));
        Outputs {
            product: unpack(&mul(&pack(&i.a16), &pack(&i.b16))),
            squared: unpack(&square(&pack(&i.a16))),
            sum: unpack(&sum),
            difference: unpack(&difference),
            square: (unpack(&re), unpack(&im)),
            tidied: (unpack(&tidy(&sum)), unpack(&tidy(&difference))),
            zeros: [
                zeros[0],
                zeros[1],
                zeros[2],
                zeros[3],
                is_zero(&splat(&minus(&P, &UNIT))),
            ],
            reduced,
            rotated: unpack(&permute(&pack(&i.a16), &[3, 4, 5, 6, 7, 0, 1, 2])),
        }
    }

    /// The kernels against the scalar field at their stated bounds:
    /// products and squares of inputs just below `16p`, sums and differences up to
    /// `8p` and their `tidy`, `reduce` by `k` just below `2k`, `is_zero`
    /// of multiples of `p` below `4p`, and a `permute` moves whole lanes.
    /// Each result is the field's
    /// answer and within its bound. A one-bit change to `INV`, `P_NONZERO`
    /// or `P2` fails here.
    #[test]
    #[allow(unsafe_code)]
    fn kernels_hold_at_their_stated_bounds() {
        let Some(_cap) = Ifma::detect() else {
            println!("lane F_p bounds: scalar CPU, no avx512ifma; nothing to check");
            return;
        };
        println!("lane F_p bounds: avx512ifma lanes");
        let mut rng = StdRng::seed_from_u64(52);
        let (p2, p8) = (P2, p_times(8));
        for _ in 0..8 {
            let i = Inputs {
                a16: just_below(16, &mut rng),
                b16: just_below(16, &mut rng),
                a4: just_below(4, &mut rng),
                b4: just_below(4, &mut rng),
                a6: just_below(6, &mut rng),
                b: small(&mut rng),
            };
            // SAFETY: `_cap` exists, so `Ifma::detect` found avx512ifma and
            // avx512f, the only features `run` enables.
            let got = unsafe { run(&i) };
            for k in 0..LANES {
                let product = element(&i.a16[k]).mul(&element(&i.b16[k]));
                assert_eq!(element(&got.product[k]), product, "lane {k}");
                assert!(below(&got.product[k], &p2), "a product is below 2p");
                let squared = element(&i.a16[k]).square();
                assert_eq!(element(&got.squared[k]), squared, "lane {k}");
                assert!(below(&got.squared[k], &p2), "a square is below 2p");
                let sum = element(&i.a4[k]).add(&element(&i.b4[k]));
                assert_eq!(element(&got.sum[k]), sum, "lane {k}");
                assert!(below(&got.sum[k], &p8), "a sum is below 8p");
                let difference = element(&i.a6[k]).sub(&element(&i.b[k]));
                assert_eq!(element(&got.difference[k]), difference, "lane {k}");
                assert!(below(&got.difference[k], &p8), "a difference is below 8p");
                for (tidied, want) in [(&got.tidied.0, sum), (&got.tidied.1, difference)] {
                    assert_eq!(element(&tidied[k]), want, "lane {k}");
                    assert!(below(&tidied[k], &p2), "tidy is below 2p");
                }
                let z = crate::Fp2::new(element(&i.a4[k]), element(&i.b[k])).square();
                let square = (element(&got.square.0[k]), element(&got.square.1[k]));
                assert_eq!(square, (z.c0, z.c1), "lane {k}");
            }
            assert_eq!(got.zeros, [0xff, 0xff, 0xff, 0xff, 0]);
            for (k, lane) in got.rotated.iter().enumerate() {
                assert_eq!(lane, &i.a16[(k + 3) % LANES], "lane {k}");
            }
            for ((k, twice), got) in [(P, 2), (P2, 4)].into_iter().zip(&got.reduced) {
                let top = minus(&p_times(twice), &UNIT);
                let want = [minus(&top, &k), [0; LIMBS], minus(&k, &UNIT), [0; LIMBS]];
                for (got, want) in got.iter().zip(want) {
                    assert!(got.iter().all(|lane| *lane == want), "{got:x?} ≠ {want:x?}");
                }
            }
        }
    }
}
