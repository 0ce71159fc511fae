//! Admission of points eight at a time, in AVX-512 IFMA lanes
//! ([`peace_field::lanes`]): the square roots of compressed points and of
//! H₀ candidates, of either kind, as one `(p+1)/4` chain per eight; the
//! subgroup checks and cofactor clearings as one x-only ladder group per
//! eight; and `[kᵢ]Pᵢ` for up to eight pairs as one such group. The group
//! takes a scalar per ladder and runs every lane over the same steps,
//! exchanging each ladder's pair by a blend on that ladder's bit. A group
//! of one or two ladders spreads each over four lanes, one of three or
//! four over two, so that a small group does not pay for idle lanes.
//!
//! Each entry returns `None` where the scalar path is the one to take: no
//! IFMA, or nothing to ladder and a lone root (a root chain in lanes costs
//! about one scalar chain, so a lone root gains nothing; see
//! [`lanes_for`]). A value the lanes cannot
//! finish, such as a base or an H₀ candidate at `x = 0`, or an H₀
//! candidate whose cleared point is `O` (probability about `1/q`), is
//! recomputed on the scalar path, which is also the oracle the lanes are
//! tested against.

use peace_bigint::Uint;
use peace_field::lanes::{
    add, from_fps, mul, one, permute, pow, select, square, sub, to_fps, zero, Fp8, Ifma, Mask,
    LANES,
};
use peace_field::{base_modulus, cofactor, subgroup_order, Fp, Fq};

use crate::groups::{hash_to_point, Candidate, G1};
use crate::ops;
use crate::point::{AffinePoint, LadderEnd, XOnly};
use crate::wire::PointError;

/// `(p+1)/4`: a residue's square root is its power by this.
fn sqrt_exponent() -> Uint<8> {
    base_modulus().wrapping_add(&Uint::ONE).shr1().shr1()
}

/// A scalar at the cofactor's width, which the lane ladder takes.
fn wide<const M: usize>(k: &Uint<M>) -> Uint<6> {
    let mut limbs = [0; 6];
    limbs[..M].copy_from_slice(k.as_limbs());
    Uint::from_limbs(limbs)
}

/// The steps every ladder of a group takes: its longest scalar's bits, and
/// at least [`Fq::NUM_BITS`].
fn steps(k: &[Uint<6>]) -> u32 {
    k.iter().map(Uint::bits).fold(Fq::NUM_BITS, u32::max)
}

/// The lanes to exchange at bit `i`: all `width` lanes of ladder `j`
/// where `k[j]`'s bit is set, the mask made by a product with the bit
/// rather than a branch on it.
fn swap_bits(k: &[Uint<6>], i: u32, width: usize) -> Mask {
    let all: Mask = (1 << width) - 1;
    k.iter().enumerate().fold(0, |m, (j, k)| {
        m | (Mask::from(k.bit(i)) * all) << (width * j)
    })
}

/// [`x_ladder`](crate::point::x_ladder) over eight `x`, step for step, lane
/// `j` with scalar `k[j]` (a missing one is 0): every lane takes every
/// step, over the longest scalar and at least [`Fq::NUM_BITS`] bits, and
/// exchanges its pair where its own bit says so, by a blend.
#[target_feature(enable = "avx512ifma")]
fn x_ladder(x: &Fp8, k: &[Uint<6>]) -> [Fp8; 4] {
    let (mut x0, mut z0) = (one(), zero());
    let (mut x1, mut z1) = (*x, one());
    let mut swapped: Mask = 0;
    for i in (0..steps(k)).rev() {
        let bits = swap_bits(k, i, 1);
        let swap = swapped ^ bits;
        (x0, x1) = (select(swap, &x1, &x0), select(swap, &x0, &x1));
        (z0, z1) = (select(swap, &z1, &z0), select(swap, &z0, &z1));
        swapped = bits;
        let (a, b) = (add(&x0, &z0), sub(&x0, &z0));
        let (aa, bb) = (square(&a), square(&b));
        let da = mul(&sub(&x1, &z1), &a);
        let cb = mul(&add(&x1, &z1), &b);
        let (s, d) = (add(&da, &cb), sub(&da, &cb));
        x1 = square(&s);
        z1 = mul(&square(&d), x);
        let ab = mul(&aa, &bb);
        x0 = add(&ab, &ab);
        z0 = mul(&sub(&aa, &bb), &add(&aa, &bb));
    }
    (x0, x1) = (select(swapped, &x1, &x0), select(swapped, &x0, &x1));
    (z0, z1) = (select(swapped, &z1, &z0), select(swapped, &z0, &z1));
    [x0, z0, x1, z1]
}

/// A ladder's four values, `x₀, z₀, z₁, x₁`, as slots 0 to 3 of a group
/// that spreads each of up to `2R` ladders over `4 / R` lanes: slot `s` of
/// ladder `g` is lane `(4 / R)·g + s / R` of register `s % R`.
struct Spread<const R: usize>;

impl<const R: usize> Spread<R> {
    /// Lanes per ladder.
    const WIDTH: usize = 4 / R;

    /// The register and the lane of slot `s` of ladder `g`.
    fn place(g: usize, s: usize) -> (usize, usize) {
        (s % R, Self::WIDTH * g + s / R)
    }

    /// For each register, the lanes that hold the slots of `slots` (slot
    /// `s` in bit `s`), in every ladder.
    fn mask(slots: u8) -> [Mask; R] {
        let mut out = [0; R];
        for g in 0..2 * R {
            for s in (0..4).filter(|s| slots >> s & 1 == 1) {
                let (r, lane) = Self::place(g, s);
                out[r] |= 1 << lane;
            }
        }
        out
    }

    /// For each register, the register and the [`permute`] indices that
    /// bring slot `from[s]` of every ladder to its slot `s`. Each move the
    /// step makes fills a register from one register.
    fn moves(from: [usize; 4]) -> [(usize, [u8; LANES]); R] {
        let mut out = [(0, [0; LANES]); R];
        for g in 0..2 * R {
            for (s, &f) in from.iter().enumerate() {
                let ((r, lane), (src, src_lane)) = (Self::place(g, s), Self::place(g, f));
                out[r].0 = src;
                out[r].1[lane] = src_lane as u8;
            }
        }
        out
    }
}

/// `v` with its slots moved as [`Spread::moves`] says.
#[target_feature(enable = "avx512ifma")]
#[inline]
fn moved<const R: usize>(v: &[Fp8; R], moves: &[(usize, [u8; LANES]); R]) -> [Fp8; R] {
    let mut out = *v;
    for (o, (src, idx)) in out.iter_mut().zip(moves) {
        *o = permute(&v[*src], idx);
    }
    out
}

/// `if_set` in each register's lanes of `mask`, `otherwise` elsewhere.
#[target_feature(enable = "avx512ifma")]
#[inline]
fn picked<const R: usize>(mask: &[Mask; R], if_set: &[Fp8; R], otherwise: &[Fp8; R]) -> [Fp8; R] {
    let mut out = *otherwise;
    for ((o, m), s) in out.iter_mut().zip(mask).zip(if_set) {
        *o = select(*m, s, o);
    }
    out
}

/// `f` of each register pair.
#[target_feature(enable = "avx512ifma")]
#[inline]
fn each<const R: usize>(a: &[Fp8; R], b: &[Fp8; R], f: impl Fn(&Fp8, &Fp8) -> Fp8) -> [Fp8; R] {
    let mut out = *a;
    for (o, b) in out.iter_mut().zip(b) {
        *o = f(o, b);
    }
    out
}

/// [`x_ladder`](crate::point::x_ladder) at each `(x[j], k[j])`, up to `2R`
/// of them, each spread over `4 / R` lanes ([`Spread`]): a step's nine
/// products fall in three rounds of independent ones, which fill the
/// ladder's lanes rather than one lane nine times.
///
/// 1. `a², b², (z₁ − x₁)·a, (x₁ + z₁)·(−b)` for `a = x₀ + z₀`,
///    `b = x₀ − z₀`: `AA, BB, −DA, −CB`;
/// 2. `AA·BB, (BB − AA)(AA + BB), d², s²` for `s = DA + CB`,
///    `d = DA − CB`, from sums and differences of round 1's slots;
/// 3. slots 0 and 2 times `−2` and `x`: `2R₀ = (−2·AA·BB :
///    −(AA − BB)(AA + BB))`, the scalar ladder's pair times −1 (the same
///    point), and `R₀ + R₁ = (s² : x·d²)`, in slots `(x₀, z₀, z₁, x₁)`.
///
/// Slots 0 and 2 are register 0 at both widths, so round 3 is one product:
/// four lanes pay 3 lane products a step, two lanes 5, against eight
/// lanes' 4 squares and 5 products. Every lane takes every step, over the
/// longest scalar and at least [`Fq::NUM_BITS`] bits, and a ladder's pairs
/// are exchanged across all its lanes by a blend on its bit.
#[target_feature(enable = "avx512ifma")]
fn spread_ladder<const R: usize>(x: &[Fp], k: &[Uint<6>]) -> Vec<(XOnly, XOnly)> {
    let (pair, reversed, low_pair) = (
        Spread::<R>::moves([1, 0, 3, 2]),
        Spread::<R>::moves([3, 2, 1, 0]),
        Spread::<R>::moves([0, 1, 0, 1]),
    );
    let (first, middle, third) = (
        Spread::<R>::mask(0b0001),
        Spread::<R>::mask(0b0110),
        Spread::<R>::mask(0b0100),
    );
    // The state, one ladder from `x`: (x₀, z₀, z₁, x₁) = (1, 0, 1, x).
    let mut state = [[Fp::ZERO; LANES]; R];
    let mut factor = [Fp::ONE; LANES];
    for (g, &x) in x.iter().enumerate() {
        for (s, v) in [Fp::ONE, Fp::ZERO, Fp::ONE, x].into_iter().enumerate() {
            let (r, lane) = Spread::<R>::place(g, s);
            state[r][lane] = v;
        }
        factor[Spread::<R>::place(g, 0).1] = Fp::from_u64(2).neg();
        factor[Spread::<R>::place(g, 2).1] = x;
    }
    let mut state = state.map(|v| from_fps(&v));
    let factor = from_fps(&factor);

    let mut swapped: Mask = 0;
    for i in (0..steps(k)).rev() {
        let bits = swap_bits(k, i, Spread::<R>::WIDTH);
        state = picked(&[swapped ^ bits; R], &moved(&state, &reversed), &state);
        swapped = bits;
        let t = moved(&state, &pair);
        let sum = each(&state, &t, |a, b| add(a, b));
        let diff = each(&state, &t, |a, b| sub(a, b));
        let left = picked(&middle, &diff, &sum);
        let p1 = each(&left, &moved(&left, &low_pair), |a, b| mul(a, b));
        let q = moved(&p1, &pair);
        let sum = each(&p1, &q, |a, b| add(a, b));
        let diff = each(&p1, &q, |a, b| sub(a, b));
        let left = picked(&first, &p1, &picked(&middle, &diff, &sum));
        let right = picked(&first, &q, &picked(&third, &diff, &sum));
        state = each(&left, &right, |a, b| mul(a, b));
        state[0] = mul(&state[0], &factor);
    }
    state = picked(&[swapped; R], &moved(&state, &reversed), &state);

    let lanes = state.map(|v| to_fps(&v));
    let slot = |g, s| {
        let (r, lane) = Spread::<R>::place(g, s);
        lanes[r][lane]
    };
    (0..x.len())
        .map(|g| {
            let end = |x_slot, z_slot| XOnly {
                x: slot(g, x_slot),
                z: slot(g, z_slot),
            };
            (end(0, 1), end(3, 2))
        })
        .collect()
}

/// The ends `([kⱼ]P, [kⱼ+1]P)` at each `xⱼ` of one lane group of up to
/// eight ladders, at the width its size sets: one or two ladders on four
/// lanes each, three or four on two, and five to eight on one lane each,
/// where the squarings of [`x_ladder`] beat spread products.
#[target_feature(enable = "avx512ifma")]
fn ladder_group(x: &[Fp], k: &[Uint<6>]) -> Vec<(XOnly, XOnly)> {
    let width = match x.len() {
        0..=2 => 4,
        3..=4 => 2,
        _ => 1,
    };
    #[cfg(test)]
    tests::LADDER_WIDTHS.with(|widths| widths.borrow_mut().push((steps(k), width)));
    match width {
        4 => spread_ladder::<1>(x, k),
        2 => spread_ladder::<2>(x, k),
        _ => {
            let [x0, z0, x1, z1] = x_ladder(&from_fps(x), k).map(|v| to_fps(&v));
            (0..x.len())
                .map(|j| (XOnly { x: x0[j], z: z0[j] }, XOnly { x: x1[j], z: z1[j] }))
                .collect()
        }
    }
}

/// `rhs^((p+1)/4)` for each value, eight per chain, and the ladder's ends
/// `([kᵢ]P, [kᵢ+1]P)` at each `xᵢ`, eight per [`ladder_group`]. A group
/// runs its longest scalar, so the ladders are grouped widest first: a
/// narrow one shares a group with a wide one only where that group runs
/// the wide width anyway. The two lists need not line up: a caller ladders only the
/// roots it clears or checks.
#[target_feature(enable = "avx512ifma")]
fn roots_and_ends(rhs: &[Fp], x: &[Fp], k: &[Uint<6>]) -> (Vec<Fp>, Vec<(XOnly, XOnly)>) {
    let e = sqrt_exponent();
    let mut roots = Vec::with_capacity(rhs.len());
    for group in rhs.chunks(LANES) {
        roots.extend_from_slice(&to_fps(&pow(&from_fps(group), e.as_limbs()))[..group.len()]);
    }
    let mut widest_first: Vec<usize> = (0..x.len()).collect();
    widest_first.sort_by_key(|&i| core::cmp::Reverse(k[i].bits()));
    let mut ends: Vec<Option<(XOnly, XOnly)>> = x.iter().map(|_| None).collect();
    for group in widest_first.chunks(LANES) {
        let xs: Vec<Fp> = group.iter().map(|&i| x[i]).collect();
        let ks: Vec<Uint<6>> = group.iter().map(|&i| k[i]).collect();
        for (&i, end) in group.iter().zip(ladder_group(&xs, &ks)) {
            ends[i] = Some(end);
        }
    }
    (
        roots,
        ends.into_iter()
            .map(|end| end.expect("every ladder ran"))
            .collect(),
    )
}

/// The one entry from ordinary code into this crate's lane kernels. `x`
/// and `k` pair up: one ladder end per `(xᵢ, kᵢ)`.
fn in_lanes(cap: Ifma, rhs: &[Fp], x: &[Fp], k: &[Uint<6>]) -> (Vec<Fp>, Vec<(XOnly, XOnly)>) {
    let _ = cap;
    assert_eq!(x.len(), k.len(), "a scalar per ladder");
    // SAFETY: the callee's only requirement is the target features it
    // enables, avx512ifma and the avx512f it implies, and `cap` exists
    // only where `Ifma::detect` found both.
    #[allow(unsafe_code)]
    unsafe {
        roots_and_ends(rhs, x, k)
    }
}

/// The capability, where the lanes beat the scalar path for `roots`
/// square roots and `ladders` ladders. A root chain in lanes costs about
/// one scalar chain, so a lone root stays scalar; one ladder spread over
/// four lanes costs under half of a scalar ladder (≈ 70 against ≈ 150 µs
/// at 160 bits), so a single ladder already gains.
pub(crate) fn lanes_for(roots: usize, ladders: usize) -> Option<Ifma> {
    Ifma::detect().filter(|_| ladders >= 1 || roots >= 2)
}

/// The point of each end, with one inversion for every `y` recovered.
fn finish_all(ends: Vec<LadderEnd>) -> Vec<AffinePoint> {
    let mut dens: Vec<Fp> = ends
        .iter()
        .map(|end| match end {
            LadderEnd::Scaled { den, .. } => *den,
            LadderEnd::Point(_) => Fp::ZERO,
        })
        .collect();
    Fp::batch_invert(&mut dens);
    ends.into_iter()
        .zip(&dens)
        .map(|(end, inv)| match end {
            LadderEnd::Scaled { x, y, .. } => LadderEnd::finish(&x, &y, inv),
            LadderEnd::Point(p) => p,
        })
        .collect()
}

/// What [`G1::mul`] says of each `(P, k)`, uncounted: one ladder group per
/// eight pairs, a scalar per ladder, and one inversion for every `y`
/// recovered. A base at `O` or at `x = 0`, which the ladder cannot take, is
/// multiplied on the scalar path.
pub(crate) fn mul_each(pairs: &[(G1, Fq)]) -> Option<Vec<G1>> {
    let cap = lanes_for(0, pairs.len())?;
    let xs: Vec<Fp> = pairs.iter().map(|(p, _)| p.0.x).collect();
    let ks: Vec<Uint<6>> = pairs.iter().map(|(_, k)| wide(&k.to_uint())).collect();
    let (_, ends) = in_lanes(cap, &[], &xs, &ks);
    let ends = pairs
        .iter()
        .zip(&ends)
        .zip(&ks)
        .map(|(((p, _), (kp, next)), k)| {
            if p.0.infinity || p.0.x.is_zero() {
                LadderEnd::Point(p.0.ladder_mul(k))
            } else {
                LadderEnd::of(&p.0, kp, next)
            }
        })
        .collect();
    Some(finish_all(ends).into_iter().map(G1).collect())
}

/// What one admission yields: each encoding's point or refusal, H₀ of
/// each cleared input, and H₀'s pre-image of each other input.
pub(crate) type Admitted = (
    Vec<Result<G1, PointError>>,
    Vec<AffinePoint>,
    Vec<AffinePoint>,
);

/// What [`G1Wire::decompress`](crate::G1Wire::decompress) says of each
/// canonical, non-identity encoding, and H₀ of each `(label, msg)` of
/// `cleared` and H₀'s pre-image of each of `preimages`, counted as the
/// scalar decoder and H₀ count: one root chain per eight roots of any
/// kind, and one ladder group per eight subgroup checks (`[q]`, 160 bits)
/// and cofactor clearings (`[c]`, 352 bits), widest first, each at the
/// width its size sets ([`ladder_group`]). A candidate at
/// `x = 0`, or one that clears to `O`, is hashed again on the scalar path.
pub(crate) fn admit(
    encodings: &[&[u8; G1::ENCODED_LEN]],
    cleared: &[(&[u8], &[u8])],
    preimages: &[(&[u8], &[u8])],
) -> Option<Admitted> {
    let cap = lanes_for(
        encodings.len() + cleared.len() + preimages.len(),
        encodings.len() + cleared.len(),
    )?;
    let xs: Vec<Fp> = encodings
        .iter()
        .map(|b| Fp::from_canonical_bytes(&b[1..]).expect("a parsed encoding"))
        .collect();
    let found: Vec<Candidate> = cleared
        .iter()
        .chain(preimages)
        .map(|(label, msg)| Candidate::first(label, msg, 0))
        .collect();
    let found_cleared = &found[..cleared.len()];
    let decode_rhs: Vec<Fp> = xs.iter().map(|x| x.square().mul(x).add(x)).collect();
    let rhs: Vec<Fp> = decode_rhs
        .iter()
        .copied()
        .chain(found.iter().map(|c| c.rhs))
        .collect();
    let ladder_x: Vec<Fp> = xs
        .iter()
        .copied()
        .chain(found_cleared.iter().map(|c| c.x))
        .collect();
    let ks: Vec<Uint<6>> = xs
        .iter()
        .map(|_| wide(&subgroup_order()))
        .chain(found_cleared.iter().map(|_| cofactor()))
        .collect();
    let (roots, ends) = in_lanes(cap, &rhs, &ladder_x, &ks);
    let (decode_roots, h0_roots) = roots.split_at(xs.len());
    let (decode_ends, h0_ends) = ends.split_at(xs.len());

    let decoded = encodings
        .iter()
        .zip(&xs)
        .zip(&decode_rhs)
        .zip(decode_roots)
        .zip(decode_ends);
    let decoded = decoded
        .map(|((((bytes, &x), rhs), root), (qp, _))| {
            ops::record_g1_decompress();
            if root.square() != *rhs {
                return Err(PointError::NotOnCurve);
            }
            let y = if root.is_odd() != (bytes[0] == 3) {
                root.neg()
            } else {
                *root
            };
            // The subgroup check the scalar decoder counts.
            ops::record_g1_mul();
            if qp.z.is_zero() {
                Ok(G1(AffinePoint::new_unchecked(x, y)))
            } else {
                Err(PointError::NotInSubgroup)
            }
        })
        .collect();

    let mut points: Vec<AffinePoint> = found
        .iter()
        .zip(h0_roots)
        .map(|(c, r)| c.point(r))
        .collect();
    let preimages = points.split_off(cleared.len());
    let ends = points
        .iter()
        .zip(found_cleared)
        .zip(h0_ends)
        .zip(cleared)
        .map(|(((p, c), (kp, next)), (label, msg))| {
            let scalar = || LadderEnd::Point(hash_to_point(label, msg));
            if c.x.is_zero() {
                return scalar();
            }
            match LadderEnd::of(p, kp, next) {
                LadderEnd::Point(p) if p.is_identity() => scalar(),
                end => {
                    // The clearing the scalar hash counts.
                    ops::record_g1_mul();
                    end
                }
            }
        })
        .collect();
    Some((decoded, finish_all(ends), preimages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::{hash_to_g2, hash_to_g2_preimage, G2};
    use crate::tests::mixed_encodings;
    use crate::{decompress_and_hash, hash_to_g2_many, G1Wire};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::RefCell;

    thread_local! {
        /// Each lane group this thread has laddered, in order: the steps
        /// it ran and the lanes it gave each ladder.
        pub(super) static LADDER_WIDTHS: RefCell<Vec<(u32, usize)>> = const { RefCell::new(Vec::new()) };
    }

    /// Lanes per ladder in a group of `n` ladders: the width rule.
    fn width_for(n: usize) -> usize {
        [4, 4, 2, 2, 1, 1, 1, 1][n - 1]
    }

    /// The lane groups `f` ladders, as `(steps, lanes per ladder)`.
    fn groups_of<T>(f: impl FnOnce() -> T) -> (T, Vec<(u32, usize)>) {
        LADDER_WIDTHS.with(|w| w.borrow_mut().clear());
        let out = f();
        (out, LADDER_WIDTHS.with(|w| w.take()))
    }

    /// What the oracle log says of a call: the path, and each group's
    /// lanes per ladder where it ran in lanes.
    fn path(widths: &[(u32, usize)]) -> String {
        if widths.is_empty() {
            return "scalar".into();
        }
        let lanes: Vec<String> = widths.iter().map(|(_, w)| w.to_string()).collect();
        format!("avx512ifma lanes, {} per ladder", lanes.join(" + "))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// Each lane of [`G1::mul_each`] is [`G1::mul`] of its pair, with
        /// scalars 0, 1, q − 1, a one-bit scalar and random ones mixed in
        /// one group, over the bases P, another point, −P, `O` and the
        /// 2-torsion point at `x = 0` (the last two redone on the scalar
        /// path; neighbours have distinct `x`), for groups of 1 to 9
        /// pairs: four lanes per ladder up to two, two up to four, one up
        /// to eight, and nine as eight and a lone spread ladder. The group
        /// records no exponentiation: its caller does.
        #[test]
        fn prop_lane_ladders_are_mul(seed in any::<u64>(), bit in 0u64..160) {
            let mut r = StdRng::seed_from_u64(seed);
            let p = G1::random(&mut r);
            let two_torsion = AffinePoint::new(Fp::ZERO, Fp::ZERO).expect("(0, 0) is on the curve");
            let bases = [p, G1::random(&mut r), p.neg(), G1::IDENTITY, G1(two_torsion)];
            let mut scalars = vec![
                Fq::ZERO,
                Fq::ONE,
                Fq::ZERO.sub(&Fq::ONE),
                Fq::from_u64(2).pow(&Uint::<1>::from_u64(bit)),
            ];
            scalars.extend((0..5).map(|_| Fq::random(&mut r)));
            let shift = seed as usize % scalars.len();
            let mut hit = Vec::new();
            for n in 1..=9 {
                scalars.rotate_left(shift);
                let pairs: Vec<(G1, Fq)> = (0..n)
                    .map(|j| (bases[j % bases.len()], scalars[j % scalars.len()]))
                    .collect();
                let before = ops::g1_mul_count();
                let (got, widths) = groups_of(|| G1::mul_each(&pairs));
                println!("mul_each over {n}: {}", path(&widths));
                prop_assert_eq!(ops::g1_mul_count(), before);
                prop_assert_eq!(got.is_some(), lanes_for(0, n).is_some());
                if let Some(got) = got {
                    let want: Vec<G1> = pairs.iter().map(|(p, k)| p.mul(k)).collect();
                    prop_assert_eq!(got, want, "{:?}", pairs);
                    let sizes = if n > LANES { vec![LANES, n - LANES] } else { vec![n] };
                    let rule: Vec<usize> = sizes.into_iter().map(width_for).collect();
                    let got: Vec<usize> = widths.iter().map(|&(_, w)| w).collect();
                    prop_assert_eq!(got, rule, "n = {}", n);
                    prop_assert!(widths.iter().all(|&(bits, _)| bits == Fq::NUM_BITS));
                    hit.extend(widths.iter().map(|&(_, w)| w));
                }
            }
            if lanes_for(0, 1).is_some() {
                hit.sort_unstable();
                hit.dedup();
                prop_assert_eq!(hit, vec![1, 2, 4], "every width ran");
            }
        }

        /// One admission of wires of every kind (subgroup points, an x
        /// with no curve point, a point outside the subgroup, the
        /// identity) and H₀ inputs, cleared and not, says what the scalar
        /// decoder and `hash_to_g2`/`hash_to_g2_preimage` say of each value,
        /// leaves each wire's answer behind, and counts the same. Its
        /// ladders run widest first, eight to a group: the `[c]` clearings
        /// first, the `[q]` checks filling the last of their groups before
        /// a group of their own opens, and each group at the width its
        /// size sets.
        #[test]
        fn prop_lane_admission_is_the_scalar_one(
            seed in any::<u64>(),
            lens in proptest::collection::vec(0usize..48, 17..18),
        ) {
            let mut r = StdRng::seed_from_u64(seed);
            let msgs: Vec<Vec<u8>> = lens
                .iter()
                .map(|&len| (0..len).map(|_| rand::Rng::gen::<u8>(&mut r)).collect())
                .collect();
            let labels: [&[u8]; 2] = [b"other", b"test"];
            let (c_bits, q_bits) = (cofactor().bits(), subgroup_order().bits().max(Fq::NUM_BITS));
            for n in (1..=9).chain([17]) {
                // Wires, cleared and pre-image inputs, split by the seed,
                // but for a router's split at n = 5 (three wires, û, Q_v)
                // and one at n = 17 whose [c] lanes would spill into a
                // second wide group if the [q] lanes went first.
                let (wires_n, cleared_n) = match n {
                    5 => (3, 1),
                    17 => (7, 4),
                    _ => {
                        let wires_n = (seed as usize >> 8) % (n + 1);
                        (wires_n, (seed as usize >> 16) % (n - wires_n + 1))
                    }
                };
                let mut bytes = mixed_encodings(wires_n, &mut r);
                bytes.rotate_left(seed as usize % wires_n.max(1));
                let items: Vec<(&[u8], &[u8])> = msgs[..n - wires_n]
                    .iter()
                    .enumerate()
                    .map(|(k, m)| (labels[k % 2], m.as_slice()))
                    .collect();
                let (cleared, preimages) = items.split_at(cleared_n);
                let parse = || -> Vec<G1Wire> { bytes.iter().map(|b| G1Wire::parse(b).unwrap()).collect() };
                let (one_by_one, batch) = (parse(), parse());
                let counts = || (ops::g1_decompress_count(), ops::g1_mul_count());

                let before = counts();
                let want: Vec<_> = one_by_one.iter().map(G1Wire::decompress).collect();
                let want_h0: Vec<G2> = cleared.iter().map(|(l, m)| hash_to_g2(l, m)).collect();
                let want_pre: Vec<_> = preimages.iter().map(|(l, m)| hash_to_g2_preimage(l, m)).collect();
                let scalar_cost = (counts().0 - before.0, counts().1 - before.1);

                let pending = bytes.iter().filter(|b| b[0] != 0).count();
                let ladders = pending + cleared.len();
                let before = counts();
                let ((got_h0, got_pre), widths) = groups_of(|| {
                    decompress_and_hash(&batch.iter().collect::<Vec<_>>(), cleared, preimages)
                });
                let batch_cost = (counts().0 - before.0, counts().1 - before.1);
                println!(
                    "decompress_and_hash over {pending} + {} + {}: {}",
                    cleared.len(),
                    preimages.len(),
                    path(&widths)
                );

                prop_assert_eq!(batch_cost, scalar_cost, "n = {}", n);
                let got: Vec<_> = batch.iter().map(G1Wire::decompress).collect();
                prop_assert_eq!(counts(), (before.0 + batch_cost.0, before.1 + batch_cost.1));
                prop_assert_eq!(&got, &want, "n = {}", n);
                let encode = |v: &[G2]| -> Vec<Vec<u8>> { v.iter().map(G2::to_bytes).collect() };
                prop_assert_eq!(encode(&got_h0), encode(&want_h0), "n = {}", n);
                prop_assert_eq!(got_pre, want_pre, "n = {}", n);

                let rule: Vec<(u32, usize)> = if lanes_for(pending + n - wires_n, ladders).is_some() {
                    (0..ladders)
                        .step_by(LANES)
                        .map(|start| {
                            let bits = if start < cleared.len() { c_bits } else { q_bits };
                            (bits, width_for((ladders - start).min(LANES)))
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                prop_assert_eq!(&widths, &rule, "n = {}", n);
            }
        }
    }

    /// The lane groups of one §IV.B handshake, by the shapes its callers
    /// hand the lanes: the client's H₀ clearings (`h0_bases`: two `[c]`)
    /// and DH pair (`share_and_secret`: two ladders) on four lanes per
    /// ladder, the signer's four powers (`sign_with`) on two; the router's
    /// decodes and û (`decoding_verify_bases`: three `[q]` and a `[c]`)
    /// on two, and R₁/R₃ with its DH lane (five ladders) on one.
    #[test]
    fn lanes_pin_a_handshake_s_groups() {
        let mut r = StdRng::seed_from_u64(47);
        let (c_bits, q_bits) = (cofactor().bits(), Fq::NUM_BITS);
        let input = b"a request's challenge input".as_slice();
        let mut pairs = |n| -> Vec<(G1, Fq)> {
            (0..n)
                .map(|_| (G1::random(&mut r), Fq::random(&mut r)))
                .collect()
        };
        let (dh, powers, rider) = (pairs(2), pairs(4), pairs(5));
        let wires: Vec<G1Wire> = (0..3)
            .map(|_| G1Wire::parse(&G1::random(&mut r).to_bytes()).unwrap())
            .collect();
        let shapes: [(&str, Vec<(u32, usize)>); 5] = [
            (
                "client H₀ clearings",
                groups_of(|| hash_to_g2_many(&[(b"u", input), (b"v", input)], &[])).1,
            ),
            ("client DH pair", groups_of(|| G1::mul_each(&dh)).1),
            ("signer's powers", groups_of(|| G1::mul_each(&powers)).1),
            (
                "router decodes and û",
                groups_of(|| {
                    decompress_and_hash(
                        &wires.iter().collect::<Vec<_>>(),
                        &[(b"u", input)],
                        &[(b"v", input)],
                    )
                })
                .1,
            ),
            ("router R₁/R₃ and DH", groups_of(|| G1::mul_each(&rider)).1),
        ];
        let lanes = Ifma::detect().is_some();
        let want: [Vec<(u32, usize)>; 5] = [
            vec![(c_bits, 4)],
            vec![(q_bits, 4)],
            vec![(q_bits, 2)],
            vec![(c_bits, 2)],
            vec![(q_bits, 1)],
        ];
        for ((what, got), want) in shapes.iter().zip(want) {
            println!("{what}: {}", path(got));
            assert_eq!(got, &if lanes { want } else { Vec::new() }, "{what}");
        }
    }
}
