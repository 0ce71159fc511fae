//! Admission of points eight at a time, in AVX-512 IFMA lanes
//! ([`peace_field::lanes`]): the square roots of a lane group of
//! compressed points or H₀ candidates as one `(p+1)/4` chain, and their
//! subgroup checks or cofactor clearings as one x-only ladder whose scalar
//! is the same in every lane, so every lane takes the same steps.
//!
//! Each entry returns `None` where the scalar path is the one to take: no
//! IFMA, or fewer than two values (a lane group costs at least one scalar
//! chain, so a lone value gains nothing). A value the lanes cannot
//! finish, such as an H₀ candidate at `x = 0` or one whose cleared point
//! is `O` (probability about `1/q`), is recomputed on the scalar path,
//! which is also the oracle the lanes are tested against.

use peace_bigint::Uint;
use peace_field::lanes::{add, from_fps, mul, one, pow, sub, to_fps, zero, Fp8, Ifma, LANES};
use peace_field::{base_modulus, cofactor, subgroup_order, Fp, Fq};

use crate::groups::{hash_to_point, Candidate, G1};
use crate::ops;
use crate::point::{AffinePoint, LadderEnd, XOnly};
use crate::wire::PointError;

/// `(p+1)/4`: a residue's square root is its power by this.
fn sqrt_exponent() -> Uint<8> {
    base_modulus().wrapping_add(&Uint::ONE).shr1().shr1()
}

/// `q`, at the cofactor's width.
fn q_wide() -> Uint<6> {
    let mut limbs = [0; 6];
    limbs[..3].copy_from_slice(subgroup_order().as_limbs());
    Uint::from_limbs(limbs)
}

/// [`x_ladder`](crate::point::x_ladder) over eight `x`, step for step: the
/// bits of `k` are the same in every lane, so the swaps are moves.
#[target_feature(enable = "avx512ifma")]
fn x_ladder(x: &Fp8, k: &Uint<6>) -> [Fp8; 4] {
    let (mut x0, mut z0) = (one(), zero());
    let (mut x1, mut z1) = (*x, one());
    let mut swapped = false;
    for i in (0..k.bits().max(Fq::NUM_BITS)).rev() {
        let bit = k.bit(i);
        if swapped ^ bit {
            (x0, x1, z0, z1) = (x1, x0, z1, z0);
        }
        swapped = bit;
        let (a, b) = (add(&x0, &z0), sub(&x0, &z0));
        let (aa, bb) = (mul(&a, &a), mul(&b, &b));
        let da = mul(&sub(&x1, &z1), &a);
        let cb = mul(&add(&x1, &z1), &b);
        let (s, d) = (add(&da, &cb), sub(&da, &cb));
        x1 = mul(&s, &s);
        z1 = mul(&mul(&d, &d), x);
        let ab = mul(&aa, &bb);
        x0 = add(&ab, &ab);
        z0 = mul(&sub(&aa, &bb), &add(&aa, &bb));
    }
    if swapped {
        (x0, x1, z0, z1) = (x1, x0, z1, z0);
    }
    [x0, z0, x1, z1]
}

/// `rhs^((p+1)/4)` for each value, and given `k` the ladder's ends
/// `([k]P, [k+1]P)` at each `x`; eight values per chain and per ladder,
/// each list's last group padded. The two lists need not line up: a
/// caller ladders only the roots it clears.
#[target_feature(enable = "avx512ifma")]
fn roots_and_ends(rhs: &[Fp], x: &[Fp], k: Option<&Uint<6>>) -> (Vec<Fp>, Vec<(XOnly, XOnly)>) {
    let e = sqrt_exponent();
    let mut roots = Vec::with_capacity(rhs.len());
    for group in rhs.chunks(LANES) {
        roots.extend_from_slice(&to_fps(&pow(&from_fps(group), e.as_limbs()))[..group.len()]);
    }
    let mut ends = Vec::with_capacity(x.len());
    if let Some(k) = k {
        for xs in x.chunks(LANES) {
            let [x0, z0, x1, z1] = x_ladder(&from_fps(xs), k).map(|v| to_fps(&v));
            ends.extend((0..xs.len()).map(|j| {
                let end = |x: &[Fp; LANES], z: &[Fp; LANES]| XOnly { x: x[j], z: z[j] };
                (end(&x0, &z0), end(&x1, &z1))
            }));
        }
    }
    (roots, ends)
}

/// The one entry from ordinary code into this crate's lane kernels.
fn in_lanes(
    cap: Ifma,
    rhs: &[Fp],
    x: &[Fp],
    k: Option<&Uint<6>>,
) -> (Vec<Fp>, Vec<(XOnly, XOnly)>) {
    let _ = cap;
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
    let (roots, ends) = in_lanes(cap, &rhs, &xs, Some(&q_wide()));
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
    let (roots, ends) = in_lanes(cap, &rhs, &xs, Some(&cofactor()));
    let mut points: Vec<AffinePoint> = found.iter().zip(&roots).map(|(c, r)| c.point(r)).collect();
    let preimages = points.split_off(cleared.len());
    let mut out: Vec<LadderEnd> = points
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
    let mut dens: Vec<Fp> = out
        .iter()
        .map(|end| match end {
            LadderEnd::Scaled { den, .. } => *den,
            LadderEnd::Point(_) => Fp::ZERO,
        })
        .collect();
    Fp::batch_invert(&mut dens);
    let cleared = out
        .drain(..)
        .zip(&dens)
        .map(|(end, inv)| match end {
            LadderEnd::Scaled { x, y, .. } => LadderEnd::finish(&x, &y, inv),
            LadderEnd::Point(p) => p,
        })
        .collect();
    Some((cleared, preimages))
}
