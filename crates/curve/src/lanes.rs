//! Admission of points eight at a time, in AVX-512 IFMA lanes
//! ([`peace_field::lanes`]): the square roots of a lane group of
//! compressed points or H₀ candidates as one `(p+1)/4` chain, their
//! subgroup checks or cofactor clearings as one x-only ladder, and
//! `[kᵢ]Pᵢ` for up to eight pairs as one such ladder. The ladder takes a
//! scalar per lane and runs every lane over the same steps, exchanging
//! each lane's pair by a blend on that lane's bit.
//!
//! Each entry returns `None` where the scalar path is the one to take: no
//! IFMA, or fewer than two values (a lane group costs at least one scalar
//! chain, so a lone value gains nothing). A value the lanes cannot
//! finish, such as a base or an H₀ candidate at `x = 0`, or an H₀
//! candidate whose cleared point is `O` (probability about `1/q`), is
//! recomputed on the scalar path, which is also the oracle the lanes are
//! tested against.

use peace_bigint::Uint;
use peace_field::lanes::{
    add, from_fps, mul, one, pow, select, square, sub, to_fps, zero, Fp8, Ifma, Mask, LANES,
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

/// [`x_ladder`](crate::point::x_ladder) over eight `x`, step for step, lane
/// `j` with scalar `k[j]` (a missing one is 0): every lane takes every
/// step, over the longest scalar and at least [`Fq::NUM_BITS`] bits, and
/// exchanges its pair where its own bit says so, by a blend.
#[target_feature(enable = "avx512ifma")]
fn x_ladder(x: &Fp8, k: &[Uint<6>]) -> [Fp8; 4] {
    let len = k.iter().map(Uint::bits).fold(Fq::NUM_BITS, u32::max);
    let (mut x0, mut z0) = (one(), zero());
    let (mut x1, mut z1) = (*x, one());
    let mut swapped: Mask = 0;
    for i in (0..len).rev() {
        let bits = k
            .iter()
            .enumerate()
            .fold(0, |m: Mask, (j, k)| m | (Mask::from(k.bit(i)) << j));
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

/// `rhs^((p+1)/4)` for each value, and the ladder's ends
/// `([kᵢ]P, [kᵢ+1]P)` at each `xᵢ`; eight values per chain and per
/// ladder, each list's last group padded. The two lists need not line
/// up: a caller ladders only the roots it clears.
#[target_feature(enable = "avx512ifma")]
fn roots_and_ends(rhs: &[Fp], x: &[Fp], k: &[Uint<6>]) -> (Vec<Fp>, Vec<(XOnly, XOnly)>) {
    let e = sqrt_exponent();
    let mut roots = Vec::with_capacity(rhs.len());
    for group in rhs.chunks(LANES) {
        roots.extend_from_slice(&to_fps(&pow(&from_fps(group), e.as_limbs()))[..group.len()]);
    }
    let mut ends = Vec::with_capacity(x.len());
    for (xs, ks) in x.chunks(LANES).zip(k.chunks(LANES)) {
        let [x0, z0, x1, z1] = x_ladder(&from_fps(xs), ks).map(|v| to_fps(&v));
        ends.extend((0..xs.len()).map(|j| {
            let end = |x: &[Fp; LANES], z: &[Fp; LANES]| XOnly { x: x[j], z: z[j] };
            (end(&x0, &z0), end(&x1, &z1))
        }));
    }
    (roots, ends)
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

/// The capability, where there is a group to fill.
fn lanes_for(n: usize) -> Option<Ifma> {
    Ifma::detect().filter(|_| n >= 2)
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

/// What [`G1::mul`] says of each `(P, k)`, uncounted: one ladder per eight
/// pairs, a scalar per lane, and one inversion for every `y` recovered. A
/// base at `O` or at `x = 0`, which the ladder cannot take, is multiplied
/// on the scalar path.
pub(crate) fn mul_each(pairs: &[(G1, Fq)]) -> Option<Vec<G1>> {
    let cap = lanes_for(pairs.len())?;
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

/// What [`G1Wire::decompress`](crate::G1Wire::decompress) says of each
/// canonical, non-identity encoding: one root chain and one `[q]` ladder
/// per eight, counted as the scalar decoder counts.
pub(crate) fn decompress(
    encodings: &[&[u8; G1::ENCODED_LEN]],
) -> Option<Vec<Result<G1, PointError>>> {
    let cap = lanes_for(encodings.len())?;
    let xs: Vec<Fp> = encodings
        .iter()
        .map(|b| Fp::from_canonical_bytes(&b[1..]).expect("a parsed encoding"))
        .collect();
    let rhs: Vec<Fp> = xs.iter().map(|x| x.square().mul(x).add(x)).collect();
    let (roots, ends) = in_lanes(cap, &rhs, &xs, &vec![wide(&subgroup_order()); xs.len()]);
    let decoded = encodings.iter().zip(xs).zip(rhs).zip(roots).zip(ends);
    Some(
        decoded
            .map(|((((bytes, x), rhs), root), (qp, _))| {
                ops::record_g1_decompress();
                if root.square() != rhs {
                    return Err(PointError::NotOnCurve);
                }
                let y = if root.is_odd() != (bytes[0] == 3) {
                    root.neg()
                } else {
                    root
                };
                // The subgroup check the scalar decoder counts.
                ops::record_g1_mul();
                if qp.z.is_zero() {
                    Ok(G1(AffinePoint::new_unchecked(x, y)))
                } else {
                    Err(PointError::NotInSubgroup)
                }
            })
            .collect(),
    )
}

/// H₀ of each `(label, msg)` of `cleared` and H₀'s pre-image of each of
/// `preimages`: one root chain per eight roots of either kind, one
/// cofactor ladder per eight of `cleared`, and one inversion for every `y`
/// recovered. A candidate at `x = 0`, or one that clears to `O`, is hashed
/// again on the scalar path.
pub(crate) fn hash_to_points(
    cleared: &[(&[u8], &[u8])],
    preimages: &[(&[u8], &[u8])],
) -> Option<(Vec<AffinePoint>, Vec<AffinePoint>)> {
    let cap = lanes_for(cleared.len() + preimages.len())?;
    let found: Vec<Candidate> = cleared
        .iter()
        .chain(preimages)
        .map(|(label, msg)| Candidate::first(label, msg, 0))
        .collect();
    let rhs: Vec<Fp> = found.iter().map(|c| c.rhs).collect();
    let xs: Vec<Fp> = found[..cleared.len()].iter().map(|c| c.x).collect();
    let (roots, ends) = in_lanes(cap, &rhs, &xs, &vec![cofactor(); xs.len()]);
    let mut points: Vec<AffinePoint> = found.iter().zip(&roots).map(|(c, r)| c.point(r)).collect();
    let preimages = points.split_off(cleared.len());
    let ends = points
        .iter()
        .zip(&found)
        .zip(&ends)
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
    Some((finish_all(ends), preimages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Each lane of [`G1::mul_each`] is [`G1::mul`] of its pair, with
        /// scalars 0, 1, q − 1, a one-bit scalar and random ones mixed in
        /// one group, over the bases P, −P, another point, `O` and the
        /// 2-torsion point at `x = 0` (the last two redone on the scalar
        /// path); groups of 2 to 8 pairs, and 9 (a padded second group).
        /// The group records no exponentiation: its caller does.
        #[test]
        fn prop_lane_ladders_are_mul(seed in any::<u64>(), n in 2usize..10, bit in 0u64..160) {
            let mut r = StdRng::seed_from_u64(seed);
            let p = G1::random(&mut r);
            let two_torsion = AffinePoint::new(Fp::ZERO, Fp::ZERO).expect("(0, 0) is on the curve");
            let bases = [p, p.neg(), G1::random(&mut r), G1::IDENTITY, G1(two_torsion)];
            let mut scalars = vec![
                Fq::ZERO,
                Fq::ONE,
                Fq::ZERO.sub(&Fq::ONE),
                Fq::from_u64(2).pow(&Uint::<1>::from_u64(bit)),
            ];
            scalars.extend((0..5).map(|_| Fq::random(&mut r)));
            let shift = seed as usize % scalars.len();
            scalars.rotate_left(shift);
            let pairs: Vec<(G1, Fq)> = (0..n)
                .map(|j| (bases[j % bases.len()], scalars[j % scalars.len()]))
                .collect();
            let lanes = lanes_for(n).is_some();
            println!("mul_each over {n}: {}", if lanes { "avx512ifma lanes" } else { "scalar" });
            let before = ops::g1_mul_count();
            let got = G1::mul_each(&pairs);
            prop_assert_eq!(ops::g1_mul_count(), before);
            prop_assert_eq!(got.is_some(), lanes);
            if let Some(got) = got {
                let want: Vec<G1> = pairs.iter().map(|(p, k)| p.mul(k)).collect();
                prop_assert_eq!(got, want, "{:?}", pairs);
            }
        }
    }
}
