//! `F_p` in eight AVX-512 IFMA lanes, and the per-token work of the
//! revocation check on it: a [`MillerLines`](crate::MillerLines) walk at
//! eight points at once, the product with the shared value, and the Lucas
//! trace test of [`MillerValue::reduces_to_one`](crate::MillerValue::reduces_to_one).
//!
//! An element is ten 52-bit limbs, limb `k` of all eight lanes in one
//! 512-bit register, in Montgomery form with `R = 2^520`. `vpmadd52luq` and
//! `vpmadd52huq` add the low and the high 52 bits of a 104-bit product to a
//! 64-bit accumulator, so a product is a 10×10 schoolbook of 200 of them
//! with no carry handling until the end. The reduction adds `m·p` limb by
//! limb per row and skips `p`'s five zero limbs (4 to 8), as the scalar
//! CIOS kernel skips its zero words.
//!
//! Bounds. A product of two inputs below `16p` is below `2p` with no final
//! subtraction: `p < 2^512`, so `R > 256p` and the result `a·b/R + m·p/R`
//! is below `p + p`. Every value handed from one step to the next is below
//! `2p`; the sums and differences inside a step stay below `8p`. Limbs are
//! normalised (below `2^52`) after every operation, since the multiplier
//! reads only the low 52 bits of each.
//!
//! Every function here that touches a register is a safe
//! `#[target_feature]` function. The one call from code compiled without
//! the feature is the dispatch in
//! [`MillerLines::reduces_to_one_at`](crate::MillerLines::reduces_to_one_at),
//! made after `is_x86_feature_detected!`.

use core::arch::x86_64::{
    __m512i, __mmask8, _mm256_extract_epi64, _mm512_add_epi64, _mm512_and_si512,
    _mm512_cmpeq_epi64_mask, _mm512_cmplt_epi64_mask, _mm512_extracti64x4_epi64,
    _mm512_madd52hi_epu64, _mm512_madd52lo_epu64, _mm512_mask_blend_epi64, _mm512_set1_epi64,
    _mm512_set_epi64, _mm512_setzero_si512, _mm512_srai_epi64, _mm512_srli_epi64, _mm512_sub_epi64,
};

use peace_bigint::Uint;
use peace_field::{cofactor, Fp, Fp2};

use crate::miller::Step;

/// Elements per register.
const LANES: usize = crate::MillerLines::LANES;

const LIMBS: usize = 10;
const MASK: u64 = (1 << 52) - 1;

/// `p` in radix 2^52.
const P: [u64; LIMBS] = [
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
/// The limbs of `p` the reduction multiplies by; the others are zero.
const P_NONZERO: [usize; 5] = [0, 1, 2, 3, 9];
/// `−p⁻¹ mod 2^52`.
const INV: u64 = 0xef8042401e465;
/// `R² mod p`: a product with it enters Montgomery form.
const R2: [u64; LIMBS] = [
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
const ONE: [u64; LIMBS] = [
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
const UNIT: [u64; LIMBS] = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0];
const P2: [u64; LIMBS] = p_times(2);

/// `k·p` in normalised radix-2^52 limbs.
const fn p_times(k: u64) -> [u64; LIMBS] {
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

/// One table line `(c0, c1)` in lane Montgomery form, the same in every
/// lane, kept as plain limbs and broadcast when walked.
pub(crate) type LaneLine = [[u64; LIMBS]; 2];

/// Eight elements of `F_p`, one per lane.
#[derive(Clone, Copy)]
struct Fe([__m512i; LIMBS]);

#[target_feature(enable = "avx512ifma")]
fn splat(limbs: &[u64; LIMBS]) -> Fe {
    let mut out = [_mm512_setzero_si512(); LIMBS];
    for (o, &l) in out.iter_mut().zip(limbs) {
        *o = _mm512_set1_epi64(l as i64);
    }
    Fe(out)
}

/// Lane `k` of the register is `lanes[k][limb]`, for every limb.
#[target_feature(enable = "avx512ifma")]
fn pack(lanes: &[[u64; LIMBS]; LANES]) -> Fe {
    let mut out = [_mm512_setzero_si512(); LIMBS];
    for (limb, o) in out.iter_mut().enumerate() {
        let l = |k: usize| lanes[k][limb] as i64;
        *o = _mm512_set_epi64(l(7), l(6), l(5), l(4), l(3), l(2), l(1), l(0));
    }
    Fe(out)
}

/// The inverse of [`pack`].
#[target_feature(enable = "avx512ifma")]
fn unpack(x: &Fe) -> [[u64; LIMBS]; LANES] {
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
fn radix52(x: &Uint<8>) -> [u64; LIMBS] {
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
fn radix64(limbs: &[u64; LIMBS]) -> Uint<8> {
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

/// Up to eight field elements in lane Montgomery form; missing lanes are 0.
#[target_feature(enable = "avx512ifma")]
fn from_fps(xs: &[Fp]) -> Fe {
    let mut lanes = [[0; LIMBS]; LANES];
    for (lane, x) in lanes.iter_mut().zip(xs) {
        *lane = radix52(&x.to_uint());
    }
    mul(&pack(&lanes), &splat(&R2))
}

/// The eight lanes as field elements.
#[target_feature(enable = "avx512ifma")]
fn to_fps(x: &Fe) -> [Fp; LANES] {
    // Below `p + 1`: at most `p`, which `from_uint` reduces to 0.
    unpack(&mul(x, &splat(&UNIT))).map(|limbs| Fp::from_uint(&radix64(&limbs)))
}

/// Propagates carries (and borrows: the shift is arithmetic) from each limb
/// into the next, leaving limbs 0 to 8 in `[0, 2^52)` and the sign in 9.
#[target_feature(enable = "avx512ifma")]
fn carry(mut t: [__m512i; LIMBS]) -> Fe {
    let mask = _mm512_set1_epi64(MASK as i64);
    for j in 0..LIMBS - 1 {
        let c = _mm512_srai_epi64::<52>(t[j]);
        t[j] = _mm512_and_si512(t[j], mask);
        t[j + 1] = _mm512_add_epi64(t[j + 1], c);
    }
    Fe(t)
}

#[target_feature(enable = "avx512ifma")]
fn add(a: &Fe, b: &Fe) -> Fe {
    let mut t = a.0;
    for (t, b) in t.iter_mut().zip(&b.0) {
        *t = _mm512_add_epi64(*t, *b);
    }
    carry(t)
}

/// `a − b + 2p`, for `b < 2p`: below `a + 2p`.
#[target_feature(enable = "avx512ifma")]
fn sub(a: &Fe, b: &Fe) -> Fe {
    let mut t = a.0;
    for ((t, b), &k) in t.iter_mut().zip(&b.0).zip(&P2) {
        *t = _mm512_sub_epi64(_mm512_add_epi64(*t, _mm512_set1_epi64(k as i64)), *b);
    }
    carry(t)
}

/// `x − k` where that is not negative, else `x`: for `x < 2k`, below `k`.
#[target_feature(enable = "avx512ifma")]
fn reduce(x: &Fe, k: &[u64; LIMBS]) -> Fe {
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
fn select(mask: __mmask8, if_set: &Fe, otherwise: &Fe) -> Fe {
    let mut out = otherwise.0;
    for (o, s) in out.iter_mut().zip(&if_set.0) {
        *o = _mm512_mask_blend_epi64(mask, *o, *s);
    }
    Fe(out)
}

/// The lanes where `a` and `b`, both canonical, are equal.
#[target_feature(enable = "avx512ifma")]
fn eq(a: &Fe, b: &Fe) -> __mmask8 {
    a.0.iter()
        .zip(&b.0)
        .fold(0xff, |m, (a, b)| m & _mm512_cmpeq_epi64_mask(*a, *b))
}

/// The canonical form of `x < 4p`.
#[target_feature(enable = "avx512ifma")]
fn canonical(x: &Fe) -> Fe {
    reduce(&reduce(x, &P2), &P)
}

/// Montgomery product `a·b/R mod p` of inputs below `16p`: below `2p`.
#[target_feature(enable = "avx512ifma")]
fn mul(a: &Fe, b: &Fe) -> Fe {
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
fn dot<const N: usize>(terms: [(&Fe, &Fe); N]) -> Fe {
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

/// `f ← f²`, as [`MillerLines::eval_at`](crate::MillerLines::eval_at)
/// writes it: `(re + im)(re − im) + (2·re·im)·i`.
#[target_feature(enable = "avx512ifma")]
fn square(re: &Fe, im: &Fe) -> (Fe, Fe) {
    (mul(&add(re, im), &sub(re, im)), mul(&add(re, re), im))
}

/// `f ← f·(b + i) = (re·b − im) + (im·b + re)·i`, `b = c0·(1/y) + c1·(x/y)`.
#[target_feature(enable = "avx512ifma")]
fn line(re: &Fe, im: &Fe, l: &LaneLine, x_over_y: &Fe, inv_y: &Fe) -> (Fe, Fe) {
    let b = dot([(&splat(&l[0]), inv_y), (&splat(&l[1]), x_over_y)]);
    (
        reduce(&sub(&mul(re, &b), im), &P2),
        reduce(&add(&mul(im, &b), re), &P2),
    )
}

/// The table at eight points, step for step the arithmetic of `eval_at`.
#[target_feature(enable = "avx512ifma")]
fn walk(steps: &[Step], table: &[LaneLine], x_over_y: &Fe, inv_y: &Fe, one: &Fe) -> (Fe, Fe) {
    let mut lines = table.iter();
    let (mut re, mut im) = (*one, splat(&[0; LIMBS]));
    for step in steps {
        if !matches!(step, Step::Mul(_)) {
            (re, im) = square(&re, &im);
        }
        if !matches!(step, Step::Square) {
            let l = lines.next().expect("one lane line per table line");
            (re, im) = line(&re, &im, l, x_over_y, inv_y);
        }
    }
    (re, im)
}

/// `V_c(t)` over the cofactor `c`, the ladder of [`Fp::lucas_v`] with the
/// same steps: the bits of `c` are the same in every lane.
#[target_feature(enable = "avx512ifma")]
fn lucas_v(t: &Fe, two: &Fe) -> Fe {
    let c = cofactor();
    let top = c.bits() - 1;
    let low = (0..=top).find(|&i| c.bit(i)).unwrap_or(top);
    let (mut lo, mut hi) = (*t, sub(&mul(t, t), two));
    for i in (low + 1..top).rev() {
        let cross = sub(&mul(&lo, &hi), t);
        if c.bit(i) {
            lo = cross;
            hi = sub(&mul(&hi, &hi), two);
        } else {
            hi = cross;
            lo = sub(&mul(&lo, &lo), two);
        }
    }
    if top > low {
        lo = sub(&mul(&lo, &hi), t);
    }
    for _ in 0..low {
        lo = sub(&mul(&lo, &lo), two);
    }
    lo
}

/// The table's lines in lane form, in step order: each coefficient `c` as
/// the limbs of `c·R mod p`. Scalar code, so the table is built, and its
/// memory taken, where the scalar one is, by the thread that owns both.
pub(crate) fn lane_lines(steps: &[Step]) -> Vec<LaneLine> {
    let r = Fp::from_uint(&radix64(&ONE));
    let limbs = |c: &Fp| radix52(&c.mul(&r).to_uint());
    steps
        .iter()
        .filter_map(|step| match step {
            Step::Square => None,
            Step::SquareMul(l) | Step::Mul(l) => Some([limbs(&l.c0), limbs(&l.c1)]),
        })
        .collect()
}

/// `f·shared` for the table's value `f` at each point of one group, the
/// identity's value being 1.
#[target_feature(enable = "avx512ifma")]
fn group_values(
    steps: &[Step],
    table: &[LaneLine],
    group: &[Option<(Fp, Fp)>],
    shared: &(Fe, Fe),
    one: &Fe,
) -> (Fe, Fe) {
    let (mut x_over_y, mut inv_y) = ([Fp::ZERO; LANES], [Fp::ZERO; LANES]);
    let mut live: __mmask8 = 0;
    for (k, at) in group.iter().enumerate() {
        if let Some((x, y)) = at {
            (x_over_y[k], inv_y[k]) = (*x, *y);
            live |= 1 << k;
        }
    }
    let (re, im) = walk(steps, table, &from_fps(&x_over_y), &from_fps(&inv_y), one);
    let (re, im) = (
        select(live, &re, one),
        select(live, &im, &splat(&[0; LIMBS])),
    );
    let (sr, si) = shared;
    (
        sub(&mul(&re, sr), &mul(&im, si)),
        add(&mul(&re, si), &mul(&im, sr)),
    )
}

/// What `reduces_to_one` says of `eval_at(p)·shared` for each point `p`:
/// the walk, the product and `a² ± b²` in lanes, one scalar batch inversion
/// of the norms, then `t = 2(a² − b²)/(a² + b²)` and `V_c(t) = 2` in lanes.
/// The last group is padded with the identity. `table` is
/// [`lane_lines`] of `steps`.
#[target_feature(enable = "avx512ifma")]
pub(crate) fn reduces_to_one_at(
    steps: &[Step],
    table: &[LaneLine],
    at: &[Option<(Fp, Fp)>],
    shared: &Fp2,
) -> Vec<bool> {
    let one = splat(&ONE);
    let two = canonical(&add(&one, &one));
    let shared = (from_fps(&[shared.c0; LANES]), from_fps(&[shared.c1; LANES]));

    // Held as plain limbs, like the table's lines: a `Vec<Fe>` is a
    // 64-byte-aligned allocation, and one per sweep on a long-lived thread
    // fragments its malloc arena (EXPERIMENTS.md E3).
    let mut diffs = Vec::with_capacity(at.len().div_ceil(LANES));
    let mut norms = Vec::with_capacity(at.len());
    for group in at.chunks(LANES) {
        let (a, b) = group_values(steps, table, group, &shared, &one);
        let (aa, bb) = (mul(&a, &a), mul(&b, &b));
        norms.extend_from_slice(&to_fps(&add(&aa, &bb))[..group.len()]);
        diffs.push(unpack(&sub(&aa, &bb)));
    }
    Fp::batch_invert(&mut norms);

    let mut hits = Vec::with_capacity(at.len());
    for (diff, norm_inv) in diffs.iter().zip(norms.chunks(LANES)) {
        let diff = pack(diff);
        let t = mul(&add(&diff, &diff), &from_fps(norm_inv));
        let one_mask = eq(&canonical(&lucas_v(&t, &two)), &two);
        hits.extend(
            norm_inv
                .iter()
                .enumerate()
                .map(|(k, n)| one_mask >> k & 1 == 1 && !n.is_zero()),
        );
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    // The kernel itself is held to the scalar arithmetic through the
    // dispatch, by `prop_lane_verdicts_match_the_scalar_composition`.
    #[test]
    fn constants_are_the_field_s() {
        let p = peace_field::base_modulus();
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
}
