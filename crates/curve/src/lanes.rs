//! Admission of points eight at a time, in AVX-512 IFMA lanes
//! ([`peace_field::lanes`]): the square roots of compressed points and of
//! H₀ candidates, of either kind, as one `(p+1)/4` chain per eight; the
//! subgroup checks and cofactor clearings as one x-only ladder per eight;
//! and `[kᵢ]Pᵢ` for up to eight pairs as one such ladder. The ladder takes
//! a scalar per lane and runs every lane over the same steps, exchanging
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
    #[cfg(test)]
    tests::LADDER_WIDTHS.with(|widths| widths.borrow_mut().push(len));
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

/// `rhs^((p+1)/4)` for each value, eight per chain, and the ladder's ends
/// `([kᵢ]P, [kᵢ+1]P)` at each `xᵢ`, eight per ladder. A ladder runs its
/// longest scalar, so the ladders are grouped widest first: a narrow one
/// shares a group with a wide one only where that group runs the wide
/// width anyway. The two lists need not line up: a caller ladders only the
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
        let [x0, z0, x1, z1] = x_ladder(&from_fps(&xs), &ks).map(|v| to_fps(&v));
        for (j, &i) in group.iter().enumerate() {
            let end = |x: &[Fp; LANES], z: &[Fp; LANES]| XOnly { x: x[j], z: z[j] };
            ends[i] = Some((end(&x0, &z0), end(&x1, &z1)));
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
/// kind, and one ladder per eight subgroup checks (`[q]`, 160 bits) and
/// cofactor clearings (`[c]`, 352 bits), widest first. A candidate at
/// `x = 0`, or one that clears to `O`, is hashed again on the scalar path.
pub(crate) fn admit(
    encodings: &[&[u8; G1::ENCODED_LEN]],
    cleared: &[(&[u8], &[u8])],
    preimages: &[(&[u8], &[u8])],
) -> Option<Admitted> {
    let cap = lanes_for(encodings.len() + cleared.len() + preimages.len())?;
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
    use crate::tests::{batch_path, mixed_encodings};
    use crate::{decompress_and_hash, G1Wire};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::RefCell;

    thread_local! {
        /// The width of each lane ladder this thread has run, in order.
        pub(super) static LADDER_WIDTHS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    }

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

        /// One admission of wires of every kind (subgroup points, an x
        /// with no curve point, a point outside the subgroup, the
        /// identity) and H₀ inputs, cleared and not, says what the scalar
        /// decoder and `hash_to_g2`/`hash_to_g2_preimage` say of each value,
        /// leaves each wire's answer behind, and counts the same. Its
        /// ladders run widest first: one `[c]` group per eight clearings,
        /// the `[q]` checks filling the last of them before a group of
        /// their own opens.
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
            for n in (2..=9).chain([17]) {
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
                println!(
                    "decompress_and_hash over {pending} + {} + {}: {}",
                    cleared.len(),
                    preimages.len(),
                    batch_path(pending + n - wires_n)
                );
                LADDER_WIDTHS.with(|w| w.borrow_mut().clear());
                let before = counts();
                let (got_h0, got_pre) =
                    decompress_and_hash(&batch.iter().collect::<Vec<_>>(), cleared, preimages);
                let batch_cost = (counts().0 - before.0, counts().1 - before.1);
                let widths = LADDER_WIDTHS.with(|w| w.take());

                prop_assert_eq!(batch_cost, scalar_cost, "n = {}", n);
                let got: Vec<_> = batch.iter().map(G1Wire::decompress).collect();
                prop_assert_eq!(counts(), (before.0 + batch_cost.0, before.1 + batch_cost.1));
                prop_assert_eq!(&got, &want, "n = {}", n);
                let encode = |v: &[G2]| -> Vec<Vec<u8>> { v.iter().map(G2::to_bytes).collect() };
                prop_assert_eq!(encode(&got_h0), encode(&want_h0), "n = {}", n);
                prop_assert_eq!(got_pre, want_pre, "n = {}", n);

                let lanes = lanes_for(pending + n - wires_n).is_some();
                let ladders = pending + cleared.len();
                let (wide_groups, groups) = if lanes {
                    (cleared.len().div_ceil(LANES), ladders.div_ceil(LANES))
                } else {
                    (0, 0)
                };
                let count = |bits| widths.iter().filter(|&&w| w == bits).count();
                prop_assert_eq!(widths.len(), groups, "n = {}: {:?}", n, widths);
                prop_assert_eq!(count(c_bits), wide_groups, "n = {}: {:?}", n, widths);
                prop_assert_eq!(count(q_bits), groups - wide_groups, "n = {}: {:?}", n, widths);
                if lanes && n == 5 && pending == 3 {
                    prop_assert_eq!(&widths[..], &[c_bits], "a router's admission is one group");
                }
            }
        }
    }
}
