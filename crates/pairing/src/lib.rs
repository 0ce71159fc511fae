//! The bilinear map `ê : 𝔾₁ × 𝔾₂ → 𝔾_T` for PEACE.
//!
//! This is the reduced Tate pairing on the supersingular curve
//! `E: y² = x³ + x` (embedding degree 2) composed with the distortion map
//! `φ(x,y) = (−x, i·y)` — a Type-1 pairing where the paper's isomorphism
//! `ψ : 𝔾₂ → 𝔾₁` is the identity. It satisfies the three properties of
//! §II.A: bilinearity, non-degeneracy, computability.
//!
//! # Examples
//!
//! ```
//! use peace_curve::{G1, G2};
//! use peace_field::Fq;
//! use peace_pairing::pairing;
//!
//! let a = Fq::from_u64(6);
//! let b = Fq::from_u64(7);
//! let lhs = pairing(&G1::generator().mul(&a), &G2::generator().mul(&b));
//! let rhs = pairing(&G1::generator(), &G2::generator()).pow(&a.mul(&b));
//! assert_eq!(lhs, rhs);
//! ```

// `deny`, not `forbid`: the one call into the AVX-512 IFMA lane kernel
// (`MillerLines::reduces_to_one_in_lanes`) opts out, with its SAFETY note.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod gt;
#[cfg(target_arch = "x86_64")]
mod lanes;
mod miller;
pub mod ops;

pub use gt::{Gt, GtPowTable};
pub use miller::{MillerLines, MillerValue};
pub use ops::{OpScope, OpSnapshot};

use peace_curve::{G2Preimage, G1, G2};

/// What a pairing's second slot takes: an element of 𝔾₂, or an H₀
/// pre-image ([`G2Preimage`]) standing for the 𝔾₂ element that is its
/// cofactor multiple.
pub trait G2Arg {
    /// A Miller value that reduces to `ê(P, Q)` for the 𝔾₂ element `Q`
    /// that `self` is or stands for.
    fn miller_from(&self, p: &G1) -> MillerValue;
}

impl G2Arg for G2 {
    fn miller_from(&self, p: &G1) -> MillerValue {
        miller::miller(p.point(), self.point())
    }
}

/// `f_{q,P}(φ(Q))^c̄`, one Miller loop and one unreduced 160-bit power in
/// place of the 352-bit cofactor ladder. Exact: `φ` is a homomorphism, the
/// reduced Tate pairing is bilinear in its second argument on all of
/// `E(F_p)` (denominator elimination needs only `x(φ(Q)) ∈ F_p`), so
/// `ê(P, [c]Q) = ê(P, Q)^c`, and reduced values lie in `μ_q`.
impl G2Arg for G2Preimage {
    fn miller_from(&self, p: &G1) -> MillerValue {
        miller::miller(p.point(), self.point()).pow(G2Preimage::exponent())
    }
}

/// The bilinear pairing `ê(P, Q)`.
pub fn pairing(p: &G1, q: &G2) -> Gt {
    miller::tate_pairing(p.point(), q.point())
}

/// Runs the Miller loop for `(P, Q)` without the final exponentiation.
///
/// Miller values multiply in `F_p²` and are reduced to `𝔾_T` by
/// [`MillerValue::finalize`] (or in bulk by [`MillerValue::finalize_batch`]).
/// This is the building block of the shared-Miller revocation sweep:
/// `miller(a, c).mul(&miller(b, d)).finalize() == Some(ê(a,c)·ê(b,d))`.
/// A caller that pairs one `P` against many `Q` prepares `P` once instead
/// ([`MillerLines`]); and because `ψ` is the identity on this Type-1
/// pairing, `ê(P, Q) = ê(Q, P)`, so either argument can be the prepared one
/// — when both are 𝔾₂ elements: an H₀ pre-image only ever goes second.
pub fn miller(p: &G1, q: &impl G2Arg) -> MillerValue {
    q.miller_from(p)
}

/// Product of pairings `∏ ê(Pᵢ, Qᵢ)` with a single shared final
/// exponentiation (cheaper than multiplying individual pairings).
pub fn pairing_product(pairs: &[(G1, G2)]) -> Gt {
    let raw: Vec<_> = pairs
        .iter()
        .map(|(p, q)| (*p.point(), *q.point()))
        .collect();
    miller::tate_pairing_product(&raw)
}

/// Pairing ratio `ê(P₁, Q₁) · ê(P₂, Q₂)⁻¹` with a single shared final
/// exponentiation.
///
/// The second Miller value is conjugated *before* reduction
/// ([`MillerValue::conjugate`]), so the quotient reduces as one product —
/// one field inversion and one hard-part pass instead of two of each plus a
/// `𝔾_T` inversion. Counts as two logical bilinear-map evaluations (the
/// paper's unit). `None` only for a zero Miller value
/// ([`MillerValue::finalize`]) — the verify path turns that into a reject.
pub fn pairing_ratio(p1: &G1, q1: &G2, p2: &G1, q2: &G2) -> Option<Gt> {
    ops::record_pairing();
    ops::record_pairing();
    miller(p1, q1).mul(&miller(p2, q2).conjugate()).finalize()
}

/// Evaluates two pairings whose reductions share one batched final
/// exponentiation (one field inversion via Montgomery's trick, one
/// hard-part pass in lock-step). Counts as two logical bilinear-map
/// evaluations.
pub fn pairing_pair(p1: &G1, q1: &G2, p2: &G1, q2: &G2) -> (Gt, Gt) {
    ops::record_pairing();
    ops::record_pairing();
    let reduced = MillerValue::finalize_batch(&[miller(p1, q1), miller(p2, q2)]);
    // Total like `pairing`: the arguments are subgroup points by type.
    (reduced[0].unwrap_or(Gt::ONE), reduced[1].unwrap_or(Gt::ONE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use peace_field::Fq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn g1() -> G1 {
        G1::generator()
    }
    fn g2() -> G2 {
        G2::generator()
    }

    #[test]
    fn non_degenerate() {
        let e = pairing(&g1(), &g2());
        assert!(!e.is_one(), "ê(g1, g2) must not be 1");
    }

    #[test]
    fn output_has_order_q() {
        let e = pairing(&g1(), &g2());
        assert!(e.pow_uint(&peace_field::subgroup_order()).is_one());
        // and not smaller order dividing q (q prime, so any non-one element
        // has exact order q)
        assert!(!e.is_one());
    }

    #[test]
    fn bilinear_in_first_argument() {
        let mut r = rng();
        let a = Fq::random(&mut r);
        let lhs = pairing(&g1().mul(&a), &g2());
        let rhs = pairing(&g1(), &g2()).pow(&a);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn bilinear_in_second_argument() {
        let mut r = rng();
        let b = Fq::random(&mut r);
        let lhs = pairing(&g1(), &g2().mul(&b));
        let rhs = pairing(&g1(), &g2()).pow(&b);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn bilinear_both_arguments() {
        let mut r = rng();
        let a = Fq::random(&mut r);
        let b = Fq::random(&mut r);
        let lhs = pairing(&g1().mul(&a), &g2().mul(&b));
        let rhs = pairing(&g1().mul(&b), &g2().mul(&a));
        assert_eq!(lhs, rhs);
        assert_eq!(lhs, pairing(&g1(), &g2()).pow(&a.mul(&b)));
    }

    #[test]
    fn additive_in_first_argument() {
        let mut r = rng();
        let p1 = G1::random(&mut r);
        let p2 = G1::random(&mut r);
        let q = G2::random(&mut r);
        let lhs = pairing(&p1.add(&p2), &q);
        let rhs = pairing(&p1, &q).mul(&pairing(&p2, &q));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn identity_pairs_to_one() {
        let mut r = rng();
        let p = G1::random(&mut r);
        assert!(pairing(&G1::IDENTITY, &g2()).is_one());
        assert!(pairing(&p, &G2::IDENTITY).is_one());
    }

    #[test]
    fn negation_inverts() {
        let mut r = rng();
        let p = G1::random(&mut r);
        let q = G2::random(&mut r);
        let e = pairing(&p, &q);
        assert_eq!(pairing(&p.neg(), &q), e.invert());
        assert!(pairing(&p, &q).mul(&pairing(&p.neg(), &q)).is_one());
    }

    #[test]
    fn symmetric_on_type1() {
        // ê(aG, bG) = ê(bG, aG) — needed by the paper's revocation check
        // (Eq.3): ê(v, û) = ê(u, v̂) when u = ψ(û), v = ψ(v̂).
        let mut r = rng();
        let a = Fq::random(&mut r);
        let b = Fq::random(&mut r);
        let lhs = pairing(&g1().mul(&a), &g2().mul(&b));
        let rhs = pairing(&g1().mul(&b), &g2().mul(&a));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pairing_product_matches_individual() {
        let mut r = rng();
        let pairs: Vec<(G1, G2)> = (0..3)
            .map(|_| (G1::random(&mut r), G2::random(&mut r)))
            .collect();
        let prod = pairing_product(&pairs);
        let mut expect = Gt::ONE;
        for (p, q) in &pairs {
            expect = expect.mul(&pairing(p, q));
        }
        assert_eq!(prod, expect);
    }

    #[test]
    fn pairing_product_empty_and_identity() {
        assert!(pairing_product(&[]).is_one());
        let mut r = rng();
        let p = G1::random(&mut r);
        assert!(pairing_product(&[(p, G2::IDENTITY)]).is_one());
    }

    #[test]
    fn gt_div_and_pow() {
        let mut r = rng();
        let e = pairing(&G1::random(&mut r), &g2());
        assert!(e.div(&e).is_one());
        let a = Fq::from_u64(3);
        assert_eq!(e.pow(&a), e.mul(&e).mul(&e));
    }

    #[test]
    fn gt_bytes_roundtrip() {
        let mut r = rng();
        let e = pairing(&G1::random(&mut r), &g2());
        let bytes = e.to_bytes();
        assert_eq!(bytes.len(), 128);
        assert_eq!(Gt::from_bytes(&bytes).unwrap(), e);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        #[test]
        fn prop_bilinearity_small_scalars(a in 1u64..1000, b in 1u64..1000) {
            let fa = Fq::from_u64(a);
            let fb = Fq::from_u64(b);
            let lhs = pairing(&g1().mul(&fa), &g2().mul(&fb));
            let rhs = pairing(&g1(), &g2()).pow(&fa.mul(&fb));
            proptest::prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn prop_pairing_product_two(a in 1u64..500, b in 1u64..500) {
            let p1 = g1().mul(&Fq::from_u64(a));
            let p2 = g1().mul(&Fq::from_u64(b));
            let q = g2();
            // ê(P1,Q)·ê(P2,Q) = ê(P1+P2, Q)
            let prod = pairing_product(&[(p1, q), (p2, q)]);
            proptest::prop_assert_eq!(prod, pairing(&p1.add(&p2), &q));
        }
    }

    #[test]
    fn op_counters_track_pairings() {
        let scope = OpSnapshot::scope();
        let _ = pairing(&g1(), &g2());
        let _ = pairing(&g1(), &g2());
        let cost = scope.counts();
        assert_eq!(cost.pairings, 2);
        assert_eq!(cost.miller_loops, 2);
        assert_eq!(cost.final_exps, 2);
    }

    #[test]
    fn miller_value_finalize_matches_pairing() {
        let mut r = rng();
        let p = G1::random(&mut r);
        let q = G2::random(&mut r);
        assert_eq!(miller(&p, &q).finalize(), Some(pairing(&p, &q)));
        assert_eq!(miller(&G1::IDENTITY, &q).finalize(), Some(Gt::ONE));
        assert_eq!(MillerValue::ONE.finalize(), Some(Gt::ONE));
    }

    #[test]
    fn miller_value_product_matches_pairing_product() {
        let mut r = rng();
        let (p1, q1) = (G1::random(&mut r), G2::random(&mut r));
        let (p2, q2) = (G1::random(&mut r), G2::random(&mut r));
        let composed = miller(&p1, &q1).mul(&miller(&p2, &q2)).finalize();
        assert_eq!(composed, Some(pairing(&p1, &q1).mul(&pairing(&p2, &q2))));
    }

    #[test]
    fn finalize_batch_matches_individual() {
        let mut r = rng();
        let values: Vec<MillerValue> = (0..4)
            .map(|_| miller(&G1::random(&mut r), &G2::random(&mut r)))
            .collect();
        let batch = MillerValue::finalize_batch(&values);
        assert_eq!(batch.len(), values.len());
        for (v, g) in values.iter().zip(&batch) {
            assert_eq!(v.finalize(), *g);
        }
        // Including the neutral value (exercises the batch-inversion path
        // with f = 1).
        let with_one = [values[0], MillerValue::ONE, values[1]];
        let batch = MillerValue::finalize_batch(&with_one);
        assert_eq!(batch[1], Some(Gt::ONE));
        assert_eq!(batch[0], values[0].finalize());
        assert!(MillerValue::finalize_batch(&[]).is_empty());
    }

    #[test]
    fn conjugate_finalizes_to_inverse() {
        let mut r = rng();
        let p = G1::random(&mut r);
        let q = G2::random(&mut r);
        let m = miller(&p, &q);
        assert_eq!(m.conjugate().finalize(), Some(pairing(&p, &q).invert()));
        assert_eq!(m.mul(&m.conjugate()).finalize(), Some(Gt::ONE));
        assert_eq!(MillerValue::ONE.conjugate().finalize(), Some(Gt::ONE));
    }

    #[test]
    fn pairing_ratio_matches_quotient() {
        let mut r = rng();
        let (p1, q1) = (G1::random(&mut r), G2::random(&mut r));
        let (p2, q2) = (G1::random(&mut r), G2::random(&mut r));
        let expect = pairing(&p1, &q1).div(&pairing(&p2, &q2));
        let scope = OpSnapshot::scope();
        let got = pairing_ratio(&p1, &q1, &p2, &q2);
        let cost = scope.counts();
        assert_eq!(got, Some(expect));
        assert_eq!(cost.pairings, 2, "two logical bilinear maps");
        assert_eq!(cost.miller_loops, 2);
        assert_eq!(cost.final_exps, 1, "shared reduction");
        // Identity slots collapse to the plain inverse / plain value.
        assert_eq!(
            pairing_ratio(&G1::IDENTITY, &q1, &p2, &q2),
            Some(pairing(&p2, &q2).invert())
        );
        assert_eq!(
            pairing_ratio(&p1, &q1, &p2, &G2::IDENTITY),
            Some(pairing(&p1, &q1))
        );
    }

    #[test]
    fn pairing_pair_matches_individual() {
        let mut r = rng();
        let (p1, q1) = (G1::random(&mut r), G2::random(&mut r));
        let (p2, q2) = (G1::random(&mut r), G2::random(&mut r));
        let (a, b) = pairing_pair(&p1, &q1, &p2, &q2);
        assert_eq!(a, pairing(&p1, &q1));
        assert_eq!(b, pairing(&p2, &q2));
    }

    #[test]
    fn finalize_batch_counts_one_final_exp() {
        let mut r = rng();
        let values: Vec<MillerValue> = (0..5)
            .map(|_| miller(&G1::random(&mut r), &G2::random(&mut r)))
            .collect();
        let scope = OpSnapshot::scope();
        let _ = MillerValue::finalize_batch(&values);
        let cost = scope.counts();
        assert_eq!(cost.final_exps, 1);
        assert_eq!(cost.miller_loops, 0);
        assert_eq!(cost.pairings, 0);
    }

    /// The same point seen from the other group (`ψ` is the identity).
    fn as_g2(p: &G1) -> G2 {
        G2::from_point_unchecked(*p.point())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        #[test]
        fn prop_prepared_eval_matches_miller_with_swapped_arguments(seed in proptest::prelude::any::<u64>()) {
            // What the revocation sweep relies on: ê(P, Q) = ê(Q, P) on
            // random subgroup points, and evaluating P against the lines
            // prepared for Q reduces to what `miller(Q, P)` reduces to. The
            // unreduced values differ — by the product of the factors the
            // lines were scaled by, which lies in F_p* — and that is the
            // point of the table.
            let mut r = StdRng::seed_from_u64(seed);
            let (p, q) = (G1::random(&mut r), G2::random(&mut r));
            let (q_first, p_second) = (peace_curve::psi(&q), as_g2(&p));
            proptest::prop_assert_eq!(pairing(&p, &q), pairing(&q_first, &p_second));
            let lines = MillerLines::new(&q_first);
            let (prepared, direct) = (lines.eval(&p_second), miller(&q_first, &p_second));
            proptest::prop_assert_eq!(prepared.finalize(), direct.finalize());
            proptest::prop_assert_eq!(prepared.finalize(), Some(pairing(&p, &q)));
            let ratio = prepared.0.mul(&direct.0.invert().unwrap());
            proptest::prop_assert!(ratio.is_in_base_field() && !ratio.is_zero());
            // One table serves any number of second arguments.
            let other = G2::random(&mut r);
            proptest::prop_assert_eq!(lines.eval(&other).finalize(), miller(&q_first, &other).finalize());
        }

        #[test]
        fn prop_reduces_to_one_is_final_exponentiation_equal_to_one(seed in proptest::prelude::any::<u64>()) {
            // The trace test is an equivalence over all of F_p², not only
            // over Miller values: on q-th powers (exactly the values the
            // final exponentiation sends to 1), on F_p* multiples of them,
            // and on arbitrary values.
            let mut r = StdRng::seed_from_u64(seed);
            let g = peace_field::Fp2::random(&mut r);
            let power = g.pow(&peace_field::subgroup_order());
            let scaled = power.mul(&peace_field::Fp2::from_base(peace_field::Fp::random_nonzero(&mut r)));
            let values = [
                MillerValue(power),
                MillerValue(g),
                MillerValue(scaled),
                MillerValue(peace_field::Fp2::random(&mut r)),
                MillerValue(peace_field::Fp2::ZERO),
                MillerValue::ONE,
            ];
            let scope = OpSnapshot::scope();
            let fast = MillerValue::reduces_to_one(&values);
            proptest::prop_assert_eq!(scope.counts(), OpSnapshot::default(), "not counted");
            let slow: Vec<bool> = values
                .iter()
                .map(|v| v.finalize().is_some_and(|g| g.is_one()))
                .collect();
            proptest::prop_assert_eq!(&fast, &slow);
            proptest::prop_assert!(fast[0] && fast[2] && !fast[4] && fast[5]);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// What every verifier path relies on: for `P ∈ 𝔾₁` and H₀'s
        /// pre-image `Q` (off the subgroup), `ê(P, Q)^c̄ = ê(P, [c]Q)` —
        /// the power taken after the reduction, before it
        /// ([`MillerValue::pow`]), through [`miller`], and folded into a
        /// table evaluation's exponent.
        #[test]
        fn prop_a_preimage_pairs_as_its_cleared_point(
            seed in proptest::prelude::any::<u64>(),
            msg in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
        ) {
            let mut r = StdRng::seed_from_u64(seed);
            let p = G1::random(&mut r);
            let pre = peace_curve::hash_to_g2_preimage(b"prop-H0", &msg);
            let want = pairing(&p, &peace_curve::hash_to_g2(b"prop-H0", &msg));
            proptest::prop_assert!(!pre.point().is_in_subgroup());
            let c_bar = G2Preimage::exponent();
            let raw = miller::miller(p.point(), pre.point());
            proptest::prop_assert_eq!(raw.finalize().map(|g| g.pow(c_bar)), Some(want));
            proptest::prop_assert_eq!(raw.pow(c_bar).finalize(), Some(want));
            proptest::prop_assert_eq!(miller(&p, &pre).finalize(), Some(want));
            let at = peace_curve::ProjectivePoint::batch_to_xy_ratios(&[pre.point().to_projective()]);
            let value = MillerLines::new(&p).eval_at(at[0].as_ref());
            let e = Fq::random(&mut r);
            proptest::prop_assert_eq!(
                MillerValue::reduce_powers(&[(value, e.mul(c_bar), true)]),
                Some(want.pow(&e).invert())
            );
        }

        /// An unreduced power reduces to the power of the reduction, for
        /// any exponent (negative wNAF digits included) and any nonzero
        /// value, Miller value or not; it counts as one 𝔾_T exponentiation.
        #[test]
        fn prop_unreduced_power_reduces_to_the_power(seed in proptest::prelude::any::<u64>()) {
            let mut r = StdRng::seed_from_u64(seed);
            let values = [
                miller(&G1::random(&mut r), &G2::random(&mut r)),
                MillerValue(peace_field::Fp2::random(&mut r)),
            ];
            for m in values {
                for e in [Fq::random(&mut r), Fq::ZERO, Fq::ONE, Fq::ONE.neg()] {
                    let scope = OpSnapshot::scope();
                    let powered = m.pow(&e);
                    proptest::prop_assert_eq!(scope.counts().gt_exps, 1);
                    proptest::prop_assert_eq!(powered.finalize(), m.finalize().map(|g| g.pow(&e)));
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The lane kernel, where the CPU has one, against the scalar
        /// composition it replaces: same verdict for every point, same
        /// count. Random tables and points (on the curve or not), identity
        /// points, a zero shared value, and hits forced by sharing the
        /// conjugate of one point's evaluation, copied into several lanes.
        #[test]
        fn prop_lane_verdicts_match_the_scalar_composition(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..41,
            identities in proptest::collection::vec(0usize..41, 0..4),
            copies in proptest::collection::vec(0usize..41, 0..4),
            shared_kind in 0u8..4,
        ) {
            use peace_field::{Fp, Fp2};
            let lanes = lanes_available() && len >= 2;
            println!(
                "reduces_to_one_at over {len} points: {}",
                if lanes { "avx512ifma lanes" } else { "scalar" }
            );
            let mut r = StdRng::seed_from_u64(seed);
            let lines = MillerLines::new(&G1::random(&mut r));
            let curve: Vec<_> = (0..len).map(|_| G2::random(&mut r).point().to_projective()).collect();
            let mut at = peace_curve::ProjectivePoint::batch_to_xy_ratios(&curve);
            for (k, a) in at.iter_mut().enumerate() {
                if k % 3 == 1 {
                    *a = Some((Fp::random(&mut r), Fp::random(&mut r)));
                }
            }
            for &k in identities.iter().filter(|&&k| k < len) {
                at[k] = None;
            }
            let forced = copies.first().filter(|&&k| k < len).copied();
            for &k in copies.iter().filter(|&&k| k < len) {
                at[k] = forced.and_then(|f| at[f]);
            }
            let shared = match (shared_kind, forced) {
                (0, _) => MillerValue(Fp2::ZERO),
                (1, _) => MillerValue::ONE,
                (_, Some(f)) => lines.eval_at(at[f].as_ref()).conjugate(),
                (_, None) => MillerValue(Fp2::random(&mut r)),
            };
            let scope = OpSnapshot::scope();
            let got = lines.reduces_to_one_at(&at, &shared);
            let lane_cost = scope.counts();
            drop(scope);
            let scope = OpSnapshot::scope();
            let values: Vec<MillerValue> = at.iter().map(|a| lines.eval_at(a.as_ref()).mul(&shared)).collect();
            let want = MillerValue::reduces_to_one(&values);
            proptest::prop_assert_eq!(lane_cost, scope.counts());
            proptest::prop_assert_eq!(&got, &want);
            // The empty slice and a lone point, whatever `len` came up.
            for n in 0..len.min(2) {
                proptest::prop_assert_eq!(lines.reduces_to_one_at(&at[..n], &shared), &want[..n]);
            }
            if let (2.., Some(f)) = (shared_kind, forced) {
                proptest::prop_assert!(got[f], "a forced hit is a hit");
            }
            if shared_kind == 0 {
                proptest::prop_assert!(got.iter().all(|&hit| !hit));
            }
        }
    }

    /// Whether the CPU runs [`MillerLines::reduces_to_one_at`] in lanes.
    fn lanes_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        return miller::lanes_available();
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    #[test]
    fn prepared_identity_slots_yield_one_uncounted() {
        // A hostile signature with T₂ = Aᵢ makes the evaluation point the
        // identity; û may be the identity too. Both mirror `miller`.
        let mut r = rng();
        let p = G1::random(&mut r);
        let q = G2::random(&mut r);
        let scope = OpSnapshot::scope();
        let lines = MillerLines::new(&p);
        assert_eq!(lines.eval(&G2::IDENTITY), MillerValue::ONE);
        assert_eq!(MillerLines::new(&G1::IDENTITY).eval(&q), MillerValue::ONE);
        let cost = scope.counts();
        assert_eq!(cost.miller_loops, 0, "identity slots run no loop");
        assert_eq!(cost.miller_prepares, 1, "the identity prepares no table");
    }

    #[test]
    fn prepared_evaluations_count_as_miller_loops() {
        let mut r = rng();
        let p = G1::random(&mut r);
        let qs: Vec<G2> = (0..3).map(|_| G2::random(&mut r)).collect();
        let scope = OpSnapshot::scope();
        let lines = MillerLines::new(&p);
        for q in &qs {
            let _ = lines.eval(q);
        }
        let cost = scope.counts();
        assert_eq!(cost.miller_prepares, 1);
        assert_eq!(cost.miller_loops, qs.len() as u64);
        assert_eq!(cost.final_exps, 0);
        assert_eq!(cost.pairings, 0);
    }

    #[test]
    fn zero_miller_value_reduces_to_none_not_a_panic() {
        // Unreachable through subgroup points, so built directly.
        let zero = MillerValue(peace_field::Fp2::ZERO);
        assert_eq!(zero.finalize(), None);
        let mut r = rng();
        let live = miller(&G1::random(&mut r), &G2::random(&mut r));
        let batch = MillerValue::finalize_batch(&[live, zero, MillerValue::ONE]);
        assert_eq!(batch, vec![live.finalize(), None, Some(Gt::ONE)]);
        assert_eq!(MillerValue::finalize_batch(&[zero]), vec![None]);
        // The is-it-1 reduction gives the zero its own `false` too.
        let one = MillerValue::ONE;
        assert_eq!(
            MillerValue::reduces_to_one(&[one, zero, live, one]),
            vec![true, false, false, true]
        );
        assert_eq!(MillerValue::reduces_to_one(&[zero]), vec![false]);
        assert!(MillerValue::reduces_to_one(&[]).is_empty());
    }

    /// `Π finalize(mᵢ).pow(eᵢ)`, inverted for negated terms, term by term.
    fn powers_one_by_one(terms: &[(MillerValue, Fq, bool)]) -> Option<Gt> {
        terms.iter().try_fold(Gt::ONE, |acc, (m, e, negate)| {
            let power = m.finalize()?.pow(e);
            Some(acc.mul(&if *negate { power.invert() } else { power }))
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        #[test]
        fn prop_reduce_powers_is_the_product_of_finalized_powers(
            seed in proptest::prelude::any::<u64>(),
            k in 1usize..5,
            exponents in proptest::array::uniform4(0u8..4),
            values in proptest::array::uniform4(0u8..4),
            negate in proptest::array::uniform4(proptest::prelude::any::<bool>()),
        ) {
            // Exponents 0, 1, q − 1 or random; a quarter of the values are
            // the neutral one.
            let mut r = StdRng::seed_from_u64(seed);
            let terms: Vec<(MillerValue, Fq, bool)> = (0..k)
                .map(|i| {
                    let m = match values[i] {
                        0 => MillerValue::ONE,
                        _ => miller(&G1::random(&mut r), &G2::random(&mut r)),
                    };
                    let e = match exponents[i] {
                        0 => Fq::ZERO,
                        1 => Fq::ONE,
                        2 => Fq::ZERO.sub(&Fq::ONE),
                        _ => Fq::random(&mut r),
                    };
                    (m, e, negate[i])
                })
                .collect();
            let expect = powers_one_by_one(&terms);
            let scope = OpSnapshot::scope();
            let got = MillerValue::reduce_powers(&terms);
            let cost = scope.counts();
            proptest::prop_assert!(expect.is_some());
            proptest::prop_assert_eq!(got, expect);
            proptest::prop_assert_eq!(
                (cost.final_exps, cost.gt_exps, cost.miller_loops, cost.pairings),
                (1, k.div_ceil(2) as u64, 0, 0)
            );
        }

        #[test]
        fn prop_key_member_tables_reduce_to_the_pairing(seed in proptest::prelude::any::<u64>()) {
            // A group key's g₂ and w = g₂^γ prepared first (ψ is the
            // identity, so ê(P, g₂) = ê(g₂, P)), evaluated at random
            // subgroup points and at a member's A = g₁^{1/(γ+x)}.
            let mut r = StdRng::seed_from_u64(seed);
            let gamma = Fq::random_nonzero(&mut r);
            let w = g2().mul(&gamma);
            let a = g1().mul(&gamma.add(&Fq::random(&mut r)).invert().unwrap());
            let (g2_lines, w_lines) = (
                MillerLines::new(&peace_curve::psi(&g2())),
                MillerLines::new(&peace_curve::psi(&w)),
            );
            for p in [G1::random(&mut r), G1::random(&mut r), a] {
                proptest::prop_assert_eq!(g2_lines.eval(&as_g2(&p)).finalize(), Some(pairing(&p, &g2())));
                proptest::prop_assert_eq!(w_lines.eval(&as_g2(&p)).finalize(), Some(pairing(&p, &w)));
            }
        }
    }

    #[test]
    fn reduce_powers_covers_every_exponent_kind_and_sign() {
        let mut r = rng();
        let m = miller(&G1::random(&mut r), &G2::random(&mut r));
        let top = Fq::ZERO.sub(&Fq::ONE);
        for e in [Fq::ZERO, Fq::ONE, top, Fq::random(&mut r)] {
            for negate in [false, true] {
                let terms = [(m, e, negate), (MillerValue::ONE, e, !negate)];
                assert_eq!(
                    MillerValue::reduce_powers(&terms),
                    powers_one_by_one(&terms),
                    "e = {e:?}, negate = {negate}"
                );
            }
        }
        // q − 1 ≡ −1: the power is the inverse, and cancels its negation.
        assert_eq!(
            MillerValue::reduce_powers(&[(m, top, false), (m, Fq::ONE, false)]),
            Some(Gt::ONE)
        );
        assert_eq!(MillerValue::reduce_powers(&[]), Some(Gt::ONE));
    }

    #[test]
    fn reduce_powers_of_a_zero_value_is_none_not_a_panic() {
        let zero = MillerValue(peace_field::Fp2::ZERO);
        let mut r = rng();
        let live = miller(&G1::random(&mut r), &G2::random(&mut r));
        for negate in [false, true] {
            for e in [Fq::ZERO, Fq::ONE, Fq::random(&mut r)] {
                assert_eq!(MillerValue::reduce_powers(&[(zero, e, negate)]), None);
                let mixed = [
                    (live, e, false),
                    (zero, e, negate),
                    (MillerValue::ONE, e, true),
                ];
                let scope = OpSnapshot::scope();
                assert_eq!(MillerValue::reduce_powers(&mixed), None);
                let cost = scope.counts();
                assert_eq!(
                    (cost.final_exps, cost.gt_exps),
                    (1, 2),
                    "counted all the same"
                );
            }
        }
    }

    #[test]
    fn gt_pow_table_matches_pow() {
        let mut r = rng();
        let e = pairing(&G1::random(&mut r), &g2());
        let table = GtPowTable::new(&e, 160);
        assert_eq!(table.max_bits(), 160);
        assert_eq!(table.base(), e);
        for _ in 0..4 {
            let k = Fq::random(&mut r);
            assert_eq!(table.pow(&k), e.pow(&k));
        }
        for k in [0u64, 1, 15, 16, 257] {
            let k = Fq::from_u64(k);
            assert_eq!(table.pow(&k), e.pow(&k), "k = {k:?}");
        }
        let top = Fq::ZERO.sub(&Fq::ONE);
        assert_eq!(table.pow(&top), e.pow(&top));
    }

    #[test]
    fn gt_pow_handles_non_unitary_elements() {
        // from_bytes can yield arbitrary Fp2 elements; pow must stay correct
        // on them via the binary-ladder fallback.
        let mut bytes = vec![0u8; 128];
        bytes[63] = 7; // c0 = 7, c1 = 0 — norm 49 ≠ 1
        let e = Gt::from_bytes(&bytes).unwrap();
        let cubed = e.pow(&Fq::from_u64(3));
        assert_eq!(cubed, e.mul(&e).mul(&e));
        assert!(e.invert().mul(&e).is_one());
    }
}
