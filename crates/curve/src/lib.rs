//! The PEACE pairing curve: `E : y² = x³ + x` over the 512-bit prime `p`.
//!
//! `E` is supersingular with `#E(F_p) = p + 1 = c·q` (`q` a 160-bit prime),
//! embedding degree 2. This crate provides:
//!
//! * [`AffinePoint`] / [`ProjectivePoint`] — raw curve arithmetic;
//! * [`G1`] / [`G2`] — the paper's bilinear groups (order-`q` subgroup), with
//!   the isomorphism [`psi`] (`ψ(g₂) = g₁`);
//! * [`hash_to_g1`] / [`hash_to_g2`] — deterministic hash-to-subgroup, and
//!   [`hash_to_g2_preimage`] — the same hash before its cofactor clearing;
//! * compressed 65-byte point encodings, and [`G1Wire`] — that encoding
//!   as a value, validated when the point is first needed.
//!
//! # Examples
//!
//! ```
//! use peace_curve::G1;
//! use peace_field::Fq;
//!
//! let g = G1::generator();
//! let a = Fq::from_u64(3);
//! let b = Fq::from_u64(5);
//! // (g^a)^b = g^(ab)
//! assert_eq!(g.mul(&a).mul(&b), g.mul(&a.mul(&b)));
//! ```

// `deny`, not `forbid`: the one call into the AVX-512 IFMA lane kernels
// (`lanes::in_lanes`) opts out, with its SAFETY note.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod fixed_base;
mod groups;
#[cfg(target_arch = "x86_64")]
mod lanes;
pub mod ops;
mod point;
mod wire;

pub use fixed_base::mul_generator;
pub use groups::{
    hash_to_g1, hash_to_g2, hash_to_g2_many, hash_to_g2_preimage, psi, G2Preimage, G1, G2,
};
pub use point::{generator, AffinePoint, ProjectivePoint};
pub use wire::{G1Encoded, G1Wire, PointError};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_base::{generator_table, FixedBaseTable};
    use peace_bigint::Uint;
    use peace_field::{params, subgroup_order, Fp, Fq};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn generator_on_curve_and_in_subgroup() {
        let g = generator();
        assert!(g.is_on_curve());
        assert!(g.is_in_subgroup());
        assert!(g.mul_uint(&subgroup_order()).is_identity());
    }

    #[test]
    fn generator_matches_python_reference() {
        // 2G and 5G computed independently by tools/genparams.py.
        let g = generator();
        let g2_expect = AffinePoint::new_unchecked(
            Fp::from_uint(&Uint::from_limbs(params::GEN2_X)),
            Fp::from_uint(&Uint::from_limbs(params::GEN2_Y)),
        );
        assert_eq!(g.double(), g2_expect);
        let g5_expect = AffinePoint::new_unchecked(
            Fp::from_uint(&Uint::from_limbs(params::GEN5_X)),
            Fp::from_uint(&Uint::from_limbs(params::GEN5_Y)),
        );
        assert_eq!(g.mul_scalar(&Fq::from_u64(5)), g5_expect);
    }

    #[test]
    fn add_commutative_associative() {
        let mut r = rng();
        let a = AffinePoint::random_subgroup(&mut r);
        let b = AffinePoint::random_subgroup(&mut r);
        let c = AffinePoint::random_subgroup(&mut r);
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn identity_laws() {
        let mut r = rng();
        let a = AffinePoint::random_subgroup(&mut r);
        assert_eq!(a.add(&AffinePoint::IDENTITY), a);
        assert_eq!(AffinePoint::IDENTITY.add(&a), a);
        assert!(a.add(&a.neg()).is_identity());
        assert!(AffinePoint::IDENTITY.double().is_identity());
    }

    #[test]
    fn double_equals_add_self() {
        let mut r = rng();
        let a = AffinePoint::random_subgroup(&mut r);
        assert_eq!(a.double(), a.add(&a));
    }

    #[test]
    fn scalar_mult_distributes() {
        let mut r = rng();
        let g = generator();
        let a = Fq::random(&mut r);
        let b = Fq::random(&mut r);
        // g^(a+b) = g^a · g^b
        assert_eq!(
            g.mul_scalar(&a.add(&b)),
            g.mul_scalar(&a).add(&g.mul_scalar(&b))
        );
        // (g^a)^b = g^(ab)
        assert_eq!(g.mul_scalar(&a).mul_scalar(&b), g.mul_scalar(&a.mul(&b)));
    }

    #[test]
    fn mul_by_zero_and_one() {
        let g = generator();
        assert!(g.mul_scalar(&Fq::ZERO).is_identity());
        assert_eq!(g.mul_scalar(&Fq::ONE), g);
    }

    #[test]
    fn mul_order_minus_one_is_neg() {
        let g = generator();
        let qm1 = Fq::ZERO.sub(&Fq::ONE);
        assert_eq!(g.mul_scalar(&qm1), g.neg());
    }

    #[test]
    fn compression_roundtrip() {
        let mut r = rng();
        for _ in 0..8 {
            let a = AffinePoint::random_subgroup(&mut r);
            let bytes = a.to_compressed();
            assert_eq!(bytes.len(), 65);
            assert_eq!(AffinePoint::from_compressed(&bytes).unwrap(), a);
        }
        // identity
        let id = AffinePoint::IDENTITY.to_compressed();
        assert_eq!(
            AffinePoint::from_compressed(&id).unwrap(),
            AffinePoint::IDENTITY
        );
    }

    #[test]
    fn compression_rejects_garbage() {
        assert!(AffinePoint::from_compressed(&[]).is_none());
        assert!(AffinePoint::from_compressed(&[9u8; 65]).is_none());
        let mut bad_inf = vec![0u8; 65];
        bad_inf[10] = 1;
        assert!(AffinePoint::from_compressed(&bad_inf).is_none());
        // x = p (non-canonical)
        let mut enc = vec![2u8];
        enc.extend_from_slice(&peace_field::base_modulus().to_be_bytes());
        assert!(AffinePoint::from_compressed(&enc).is_none());
    }

    #[test]
    fn new_rejects_off_curve() {
        assert!(AffinePoint::new(Fp::from_u64(1), Fp::from_u64(1)).is_none());
    }

    #[test]
    fn hash_to_g1_deterministic_and_valid() {
        let a = hash_to_g1(b"test", b"message");
        let b = hash_to_g1(b"test", b"message");
        assert_eq!(a, b);
        assert!(a.point().is_on_curve());
        assert!(a.point().is_in_subgroup());
        assert!(!a.is_identity());
        let c = hash_to_g1(b"test", b"other message");
        assert_ne!(a, c);
        let d = hash_to_g1(b"other label", b"message");
        assert_ne!(a, d);
    }

    #[test]
    fn psi_maps_g2_generator_to_g1_generator() {
        assert_eq!(psi(&G2::generator()), G1::generator());
        let mut r = rng();
        let x = Fq::random(&mut r);
        assert_eq!(psi(&G2::generator().mul(&x)), G1::generator().mul(&x));
    }

    #[test]
    fn g1_wrapper_bytes_roundtrip() {
        let mut r = rng();
        let a = G1::random(&mut r);
        assert_eq!(G1::from_bytes(&a.to_bytes()).unwrap(), a);
        assert_eq!(G1::ENCODED_LEN, 65);
    }

    /// What `G1::from_bytes` computed before the compressed form became a
    /// type: decompress, then the subgroup check — here by binary
    /// double-and-add, so the ladder behind the decoder is not checking
    /// itself. The reference the one predicate is differentially checked
    /// against.
    fn reference_decode(bytes: &[u8]) -> Option<G1> {
        AffinePoint::from_compressed(bytes)
            .filter(|p| binary_mul(p, &subgroup_order()).is_identity())
            .map(G1::from_point_unchecked)
    }

    /// Both roads from bytes to a point agree with the reference, and an
    /// accepted encoding re-encodes to the same bytes.
    fn assert_one_predicate(bytes: &[u8]) {
        let want = reference_decode(bytes);
        assert_eq!(G1::from_bytes(bytes), want, "{bytes:02x?}");
        let lazy = G1Wire::parse(bytes).and_then(|w| w.decompress().ok());
        assert_eq!(lazy, want, "{bytes:02x?}");
        if let Some(p) = want {
            assert_eq!(p.to_bytes(), bytes);
            assert_eq!(G1Wire::parse(bytes).unwrap().as_bytes()[..], *bytes);
        }
    }

    #[test]
    fn wire_form_edge_encodings() {
        // Identity: canonical, decompresses to the identity.
        let id = G1::IDENTITY.to_bytes();
        assert_one_predicate(&id);
        assert!(G1Wire::parse(&id).unwrap().is_identity());
        // x = 0 is the 2-torsion point under either tag: refused as
        // non-canonical, and by the reference through the subgroup check.
        for tag in [2u8, 3] {
            let mut zero_x = vec![0u8; 65];
            zero_x[0] = tag;
            assert!(G1Wire::parse(&zero_x).is_none());
            assert_one_predicate(&zero_x);
        }
        // x = p, wrong length, unknown tag, identity tag with a body.
        let mut x_is_p = vec![2u8];
        x_is_p.extend_from_slice(&peace_field::base_modulus().to_be_bytes());
        let mut inf_with_body = vec![0u8; 65];
        inf_with_body[64] = 1;
        for bad in [&x_is_p[..], &id[..64], &[4u8; 65], &inf_with_body] {
            assert!(G1Wire::parse(bad).is_none());
            assert_one_predicate(bad);
        }
    }

    #[test]
    fn wire_form_names_why_canonical_bytes_fail() {
        let encode = |x: u64| {
            let mut bytes = vec![0u8; 65];
            bytes[0] = 2;
            bytes[57..].copy_from_slice(&x.to_be_bytes());
            bytes
        };
        let off_curve = (1..)
            .map(encode)
            .find(|b| AffinePoint::from_compressed(b).is_none())
            .unwrap();
        let out_of_subgroup = (1..)
            .map(encode)
            .find(|b| AffinePoint::from_compressed(b).is_some_and(|p| !p.is_in_subgroup()))
            .unwrap();
        for (bytes, why) in [
            (off_curve, PointError::NotOnCurve),
            (out_of_subgroup, PointError::NotInSubgroup),
        ] {
            let wire = G1Wire::parse(&bytes).expect("canonical");
            assert_eq!(wire.decompress(), Err(why));
            // The refusal is remembered like a success is.
            let before = ops::g1_decompress_count();
            assert_eq!(wire.clone().decompress(), Err(why));
            assert_eq!(ops::g1_decompress_count(), before);
            assert_one_predicate(&bytes);
        }
        assert_ne!(
            PointError::NotOnCurve.code(),
            PointError::NotInSubgroup.code()
        );
    }

    #[test]
    fn wire_form_decompresses_at_most_once() {
        let mut r = rng();
        let p = G1::random(&mut r);
        let before = ops::g1_decompress_count();
        // Built from a point: nothing to decompress, ever.
        let own = G1Wire::from(p);
        assert_eq!(own.decompress(), Ok(p));
        assert_eq!(ops::g1_decompress_count(), before);
        // Parsed: free until used, then paid once, clones included.
        let parsed = G1Wire::parse(&p.to_bytes()).unwrap();
        assert_eq!(parsed, own);
        assert_eq!(parsed.g1_bytes(), p.g1_bytes());
        assert_eq!(ops::g1_decompress_count(), before);
        assert_eq!(parsed.decompress(), Ok(p));
        assert_eq!(parsed.clone().decompress(), Ok(p));
        assert_eq!(ops::g1_decompress_count(), before + 1);
        // The eager decoder is the same work, counted the same way.
        assert_eq!(G1::from_bytes(&p.to_bytes()), Some(p));
        assert_eq!(ops::g1_decompress_count(), before + 2);
    }

    #[test]
    fn g1_sub_is_add_neg() {
        let mut r = rng();
        let a = G1::random(&mut r);
        let b = G1::random(&mut r);
        assert_eq!(a.sub(&b).add(&b), a);
    }

    #[test]
    fn from_point_rejects_non_subgroup() {
        // Find an on-curve point not in the subgroup: hash to curve WITHOUT
        // cofactor clearing.
        use peace_field::Fp;
        let mut ctr = 0u64;
        loop {
            let wide = peace_hash::xof(b"nsg", &ctr.to_be_bytes(), 96);
            let x = Fp::from_wide_bytes(&wide);
            let rhs = x.square().mul(&x).add(&x);
            if let Some(y) = rhs.sqrt() {
                let p = AffinePoint::new_unchecked(x, y);
                if !p.is_in_subgroup() {
                    assert!(G1::from_point(p).is_none());
                    return;
                }
            }
            ctr += 1;
        }
    }

    #[test]
    fn ops_counter_increments() {
        let before = ops::g1_mul_count();
        let g = generator();
        let _ = g.mul_scalar(&Fq::from_u64(3));
        let _ = g.mul_scalar(&Fq::from_u64(4));
        assert_eq!(ops::g1_mul_count() - before, 2);
    }

    /// `[k]P` by plain double-and-add: the oracle the ladder answers to.
    fn binary_mul<const M: usize>(p: &AffinePoint, k: &Uint<M>) -> AffinePoint {
        p.to_projective().mul_uint_binary(k).to_affine()
    }

    /// Curve points outside the order-`q` subgroup: try-and-increment with
    /// no cofactor clearing.
    fn non_subgroup_points(n: usize) -> Vec<AffinePoint> {
        (0u64..)
            .filter_map(|ctr| {
                let x = Fp::from_wide_bytes(&peace_hash::xof(b"nsg", &ctr.to_be_bytes(), 96));
                let y = x.square().mul(&x).add(&x).sqrt()?;
                let p = AffinePoint::new_unchecked(x, y);
                (!binary_mul(&p, &subgroup_order()).is_identity()).then_some(p)
            })
            .take(n)
            .collect()
    }

    /// (0, 0): the 2-torsion point, the one x-coordinate the ladder's
    /// differential addition cannot take as its difference.
    fn two_torsion() -> AffinePoint {
        AffinePoint::new(Fp::ZERO, Fp::ZERO).expect("(0, 0) is on the curve")
    }

    #[test]
    fn ladder_matches_binary_mul() {
        let mut r = rng();
        let g = generator();
        for _ in 0..6 {
            let k = Fq::random(&mut r).to_uint();
            assert_eq!(g.mul_uint(&k), binary_mul(&g, &k));
        }
        // Edge scalars: 0, 1, 2, q − 1 (where [k+1]P = O), q, q + 1, and
        // the 352-bit cofactor c and c + 1, at full width.
        let mut q = [0u64; 6];
        q[..3].copy_from_slice(subgroup_order().as_limbs());
        let (q, c, one) = (Uint::from_limbs(q), peace_field::cofactor(), Uint::ONE);
        let scalars = [
            Uint::ZERO,
            one,
            Uint::from_u64(2),
            q.wrapping_sub(&one),
            q,
            q.wrapping_add(&one),
            c,
            c.wrapping_add(&one),
        ];
        let p = AffinePoint::random_subgroup(&mut r);
        let odd = non_subgroup_points(1)[0];
        // (0, 0) is kept out of the ladder, and still multiplies right.
        let bases = [
            g,
            g.neg(),
            p,
            p.neg(),
            odd,
            odd.neg(),
            AffinePoint::IDENTITY,
            two_torsion(),
        ];
        for base in bases {
            for k in &scalars {
                assert_eq!(base.mul_uint(k), binary_mul(&base, k), "{base:?} · {k:?}");
            }
        }
        // A result that is (0, 0) itself: [q]((0, 0) + P) for P in the subgroup.
        let shifted = two_torsion().add(&p);
        assert_eq!(shifted.mul_uint(&subgroup_order()), two_torsion());
    }

    #[test]
    fn clear_cofactor_matches_binary_on_points_outside_the_subgroup() {
        let c = peace_field::cofactor();
        for p in non_subgroup_points(4) {
            let cleared = p.clear_cofactor();
            assert_eq!(cleared, binary_mul(&p, &c));
            assert!(binary_mul(&cleared, &subgroup_order()).is_identity());
        }
        assert!(two_torsion().clear_cofactor().is_identity());
        assert!(AffinePoint::IDENTITY.clear_cofactor().is_identity());
    }

    #[test]
    fn is_in_subgroup_agrees_with_binary_order_check() {
        let mut r = rng();
        let q = subgroup_order();
        let mut points: Vec<AffinePoint> = (0..4)
            .map(|_| AffinePoint::random_subgroup(&mut r))
            .collect();
        points.extend(non_subgroup_points(4));
        points.extend([two_torsion(), two_torsion().add(&points[0])]);
        points.push(AffinePoint::IDENTITY);
        for p in points {
            let expect = binary_mul(&p, &q).is_identity();
            let before = ops::g1_mul_count();
            assert_eq!(p.is_in_subgroup(), expect, "{p:?}");
            // One ladder, one exponentiation on the E2 counter (none for O).
            assert_eq!(ops::g1_mul_count() - before, u64::from(!p.is_identity()));
        }
        assert!(!two_torsion().is_in_subgroup());
    }

    #[test]
    fn the_preimage_is_h0_before_its_cofactor_clearing() {
        // The pinned inputs, the two-counter one among them: the pre-image
        // lies on the curve, off the subgroup, and clears to H₀'s output.
        let inputs: [(&[u8], &[u8]); 4] = [
            (b"test", b"message"),
            (b"bench", b"payload"),
            (b"PEACE-H0", b""),
            (b"test", b"two-counters-0"),
        ];
        for (label, msg) in inputs {
            let pre = hash_to_g2_preimage(label, msg);
            assert!(pre.point().is_on_curve() && !pre.point().is_in_subgroup());
            assert_eq!(
                pre.point().clear_cofactor(),
                *hash_to_g2(label, msg).point()
            );
        }
        // c̄ = c mod q acts on the subgroup as c does.
        let p = AffinePoint::random_subgroup(&mut rng());
        let c_bar = G2Preimage::exponent();
        assert_eq!(p.mul_scalar(c_bar), p.mul_uint(&peace_field::cofactor()));
        assert!(!c_bar.is_zero());
    }

    #[test]
    fn hash_to_curve_output_is_pinned() {
        // Bytes recorded before the ladder and the Jacobi pre-check: both
        // must leave H₀ unchanged. Type-1, so 𝔾₁ and 𝔾₂ hash alike.
        // "two-counters-0" is found by searching "two-counters-{i}": its
        // counter-0 candidate is a non-residue, so it needs two counters.
        let pinned: [(&[u8], &[u8], &str); 4] = [
            (b"test", b"message", "030d0885142ba942359704d36623172db4567d945a7e9674f29288c1fbb214fd8597f7ca18b9d2fe3bb4a32d2909a40e45b4785e06003a6ce271929687e37aca26"),
            (b"bench", b"payload", "02393088d611c3ee53a061edb86da924c09b280b2fe19009e2e8fba75fd0520dc0ef449117fff59952e2030464f11f28ff07bef89b5689f3af9a2b9b46b3c74f10"),
            (b"PEACE-H0", b"", "0325a62915d8c62698a5a09a0eb8743714a8a58163f2edbb90eead78e452d2354dc9ed0111aeb5d55e06968bc808c31a2d5220c00dfa84db85c1d6f3be5f949874"),
            (b"test", b"two-counters-0", "034c52fd1d00551e94ee9a21a6b8a6598db347fe52f0870445a5920aeaa55bcdade798f003186753428359a428667d3f70b6ab285f8b6d5e474f8fa909a46833fc"),
        ];
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        for (label, msg, want) in pinned {
            assert_eq!(hex(&hash_to_g1(label, msg).to_bytes()), want);
            assert_eq!(hex(&hash_to_g2(label, msg).to_bytes()), want);
        }
        // The two-counter input's first candidate really is refused.
        let wide = peace_hash::xof(b"test", b"\0\0\0\0two-counters-0", 97);
        let x = Fp::from_wide_bytes(&wide[..96]);
        let rhs = x.square().mul(&x).add(&x);
        assert_eq!(rhs.legendre(), -1);
        assert!(rhs.sqrt().is_none());
    }

    #[test]
    fn double_mul_matches_separate() {
        let mut r = rng();
        let p = AffinePoint::random_subgroup(&mut r);
        let q = AffinePoint::random_subgroup(&mut r);
        for _ in 0..4 {
            let a = Fq::random(&mut r);
            let b = Fq::random(&mut r);
            let fused = p.double_mul_scalar(&a, &q, &b);
            let separate = p.mul_scalar(&a).add(&q.mul_scalar(&b));
            assert_eq!(fused, separate);
        }
        // degenerate cases
        assert_eq!(
            p.double_mul_scalar(&Fq::ZERO, &q, &Fq::ZERO),
            AffinePoint::IDENTITY
        );
        assert_eq!(p.double_mul_scalar(&Fq::ONE, &q, &Fq::ZERO), p);
        // P == Q (the shared-chain precompute must handle doubling)
        let a = Fq::from_u64(3);
        let b = Fq::from_u64(4);
        assert_eq!(
            p.double_mul_scalar(&a, &p, &b),
            p.mul_scalar(&Fq::from_u64(7))
        );
    }

    #[test]
    fn g1_mul_mul_matches() {
        let mut r = rng();
        let x = G1::random(&mut r);
        let y = G1::random(&mut r);
        let a = Fq::random(&mut r);
        let b = Fq::random(&mut r);
        assert_eq!(x.mul_mul(&a, &y, &b), x.mul(&a).add(&y.mul(&b)));
    }

    #[test]
    fn double_mul_wnaf_matches_binary() {
        let mut r = rng();
        let p = AffinePoint::random_subgroup(&mut r).to_projective();
        let q = AffinePoint::random_subgroup(&mut r).to_projective();
        for _ in 0..4 {
            let a = Fq::random(&mut r).to_uint();
            let b = Fq::random(&mut r).to_uint();
            assert_eq!(
                ProjectivePoint::double_mul(&p, &a, &q, &b),
                ProjectivePoint::double_mul_binary(&p, &a, &q, &b)
            );
        }
        // Asymmetric digit-stream lengths.
        let long = Fq::random(&mut r).to_uint();
        for small in [0u64, 1, 2, 7] {
            let small = Uint::<3>::from_u64(small);
            assert_eq!(
                ProjectivePoint::double_mul(&p, &long, &q, &small),
                ProjectivePoint::double_mul_binary(&p, &long, &q, &small)
            );
            assert_eq!(
                ProjectivePoint::double_mul(&p, &small, &q, &long),
                ProjectivePoint::double_mul_binary(&p, &small, &q, &long)
            );
        }
    }

    /// The shared-chain entry is `mul`, scalar by scalar — results and
    /// the E2 counter both.
    fn assert_mul_many_is_mul(base: &G1, scalars: &[Fq]) {
        let before = ops::g1_mul_count();
        let many = base.mul_many(scalars);
        assert_eq!(ops::g1_mul_count() - before, scalars.len() as u64);
        let each: Vec<G1> = scalars.iter().map(|k| base.mul(k)).collect();
        assert_eq!(many, each, "{scalars:?}");
    }

    #[test]
    fn mul_many_edge_scalars() {
        let mut r = rng();
        let base = G1::random(&mut r);
        let q_minus_1 = Fq::ZERO.sub(&Fq::ONE);
        let k = Fq::random(&mut r);
        assert_mul_many_is_mul(&base, &[]);
        assert_mul_many_is_mul(&base, &[Fq::ZERO]);
        assert_mul_many_is_mul(&base, &[Fq::ZERO, Fq::ONE, q_minus_1]);
        assert_mul_many_is_mul(&base, &[k, k, k.neg(), k]);
        // Every digit magnitude of the recoding, and 2¹⁵⁹ (a lone top bit).
        let small: Vec<Fq> = (0..=16).map(Fq::from_u64).collect();
        assert_mul_many_is_mul(&base, &small);
        let top_bit = Fq::from_u64(1 << 63).square().mul(&Fq::from_u64(1 << 33));
        assert_mul_many_is_mul(&base, &[top_bit, Fq::ONE]);
        assert_mul_many_is_mul(&G1::IDENTITY, &[Fq::ZERO, Fq::ONE, k]);
        assert_eq!(G2::generator().mul_many(&[k]), [G2::mul_generator(&k)]);
    }

    #[test]
    fn fixed_base_table_matches_generic_mul() {
        let mut r = rng();
        let base = AffinePoint::random_subgroup(&mut r);
        let table = FixedBaseTable::new(&base, 160);
        for _ in 0..6 {
            let k = Fq::random(&mut r);
            assert_eq!(table.mul(&k), base.mul_scalar(&k));
        }
        for k in [0u64, 1, 2, 15, 16, 255, 256] {
            let k = Fq::from_u64(k);
            assert_eq!(table.mul(&k), base.mul_scalar(&k), "k = {k:?}");
        }
        // Top-window digits (scalars near 2^160).
        let near_top = Fq::ZERO.sub(&Fq::ONE);
        assert_eq!(table.mul(&near_top), base.mul_scalar(&near_top));
    }

    #[test]
    fn generator_table_matches_generator() {
        let mut r = rng();
        let k = Fq::random(&mut r);
        assert_eq!(mul_generator(&k), generator().mul_scalar(&k));
        assert_eq!(generator_table().max_bits(), 160);
    }

    #[test]
    fn fixed_base_table_identity_base() {
        let table = FixedBaseTable::new(&AffinePoint::IDENTITY, 160);
        assert!(table.mul(&Fq::from_u64(12345)).is_identity());
    }

    #[test]
    fn batch_to_affine_matches_individual() {
        let mut r = rng();
        let mut points = vec![ProjectivePoint::IDENTITY];
        for _ in 0..5 {
            // Non-trivial z coordinates via projective sums.
            let a = AffinePoint::random_subgroup(&mut r).to_projective();
            let b = AffinePoint::random_subgroup(&mut r);
            points.push(a.add_affine(&b));
            points.push(ProjectivePoint::IDENTITY);
        }
        let batch = ProjectivePoint::batch_to_affine(&points);
        assert_eq!(batch.len(), points.len());
        for (p, a) in points.iter().zip(&batch) {
            assert_eq!(p.to_affine(), *a);
        }
        // All-identity batch (the inversion-of-zero corner).
        let ids = vec![ProjectivePoint::IDENTITY; 3];
        assert!(ProjectivePoint::batch_to_affine(&ids)
            .iter()
            .all(|p| p.is_identity()));
        assert!(ProjectivePoint::batch_to_affine(&[]).is_empty());
    }

    #[test]
    fn batch_to_xy_ratios_matches_affine_division() {
        let mut r = rng();
        let two_torsion = AffinePoint::new(Fp::ZERO, Fp::ZERO).expect("(0, 0) is on the curve");
        let mut points = vec![ProjectivePoint::IDENTITY, two_torsion.to_projective()];
        for _ in 0..4 {
            let a = AffinePoint::random_subgroup(&mut r).to_projective();
            points.push(a.add_affine(&AffinePoint::random_subgroup(&mut r)));
            points.push(ProjectivePoint::IDENTITY);
        }
        let ratios = ProjectivePoint::batch_to_xy_ratios(&points);
        assert_eq!(ratios.len(), points.len());
        for (p, ratio) in points.iter().zip(&ratios) {
            let a = p.to_affine();
            let expect =
                a.y.invert()
                    .filter(|_| !a.is_identity())
                    .map(|yinv| (a.x.mul(&yinv), yinv));
            assert_eq!(*ratio, expect);
        }
        assert_eq!(ratios[0], None, "identity");
        assert_eq!(ratios[1], None, "y = 0");
        assert!(ProjectivePoint::batch_to_xy_ratios(&[]).is_empty());
    }

    #[test]
    fn mixed_addition_cases() {
        let mut r = rng();
        let a = AffinePoint::random_subgroup(&mut r);
        let b = AffinePoint::random_subgroup(&mut r);
        // Give the accumulator a non-one z.
        let acc = a.to_projective().add_affine(&b);
        assert_eq!(acc.add_affine(&a).to_affine(), a.double().add(&b));
        // P + (−P) through the mixed path.
        let neg = acc.to_affine().neg();
        assert!(acc.add_affine(&neg).is_identity());
        // Doubling through the mixed path.
        let aff = acc.to_affine();
        assert_eq!(acc.add_affine(&aff).to_affine(), aff.double());
        // Identity operands.
        assert_eq!(acc.add_affine(&AffinePoint::IDENTITY), acc);
        assert_eq!(ProjectivePoint::IDENTITY.add_affine(&a).to_affine(), a);
    }

    /// Which path a batch of `n` takes here, printed by the tests that hold
    /// the lanes to the scalar path (a CPU without IFMA runs both sides on
    /// the scalar one).
    fn batch_path(n: usize) -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if n >= 2 && peace_field::lanes::Ifma::detect().is_some() {
            return "avx512ifma lanes";
        }
        "scalar"
    }

    /// The batch sizes around a lane group's edges.
    const BATCH_SIZES: [usize; 8] = [1, 2, 7, 8, 9, 15, 16, 17];

    /// Canonical encodings of every kind, cycled: subgroup points (either
    /// sign), an x with no curve point, a curve point outside the
    /// subgroup, and the identity.
    fn mixed_encodings(n: usize, r: &mut StdRng) -> Vec<Vec<u8>> {
        let encode = |x: u64, tag: u8| {
            let mut bytes = vec![0u8; 65];
            bytes[0] = tag;
            bytes[57..].copy_from_slice(&x.to_be_bytes());
            bytes
        };
        let off_curve = (1..)
            .map(|x| encode(x, 2))
            .find(|b| AffinePoint::from_compressed(b).is_none())
            .unwrap();
        let outside: Vec<Vec<u8>> = non_subgroup_points(2)
            .iter()
            .map(AffinePoint::to_compressed)
            .collect();
        (0..n)
            .map(|k| match k % 6 {
                0 | 1 => G1::random(r).to_bytes(),
                2 => off_curve.clone(),
                3 => outside[k % 2].clone(),
                4 => G1::IDENTITY.to_bytes(),
                _ => G1::random(r).neg().to_bytes(),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Batch decompression says what `decompress` says of each
        /// encoding, error codes included, with the same counts; and the
        /// wires it filled answer without another decompression.
        #[test]
        fn prop_batch_decompression_is_decompress(seed in any::<u64>()) {
            let mut r = StdRng::seed_from_u64(seed);
            for n in BATCH_SIZES {
                let mut bytes = mixed_encodings(n, &mut r);
                bytes.rotate_left(n % 6);
                let pending = bytes.iter().filter(|b| b[0] != 0).count();
                println!("decompress_all over {pending}: {}", batch_path(pending));
                let parse = || -> Vec<G1Wire> { bytes.iter().map(|b| G1Wire::parse(b).unwrap()).collect() };
                let (one_by_one, batch) = (parse(), parse());
                let counts = || (ops::g1_decompress_count(), ops::g1_mul_count());
                let before = counts();
                let want: Vec<_> = one_by_one.iter().map(G1Wire::decompress).collect();
                let scalar_cost = (counts().0 - before.0, counts().1 - before.1);
                let before = counts();
                G1Wire::decompress_all(&batch.iter().collect::<Vec<_>>());
                let batch_cost = (counts().0 - before.0, counts().1 - before.1);
                prop_assert_eq!(batch_cost, scalar_cost, "n = {}", n);
                let got: Vec<_> = batch.iter().map(G1Wire::decompress).collect();
                prop_assert_eq!(counts(), (before.0 + batch_cost.0, before.1 + batch_cost.1));
                prop_assert_eq!(&got, &want, "n = {}", n);
                // Already decided: a second batch does nothing.
                G1Wire::decompress_all(&batch.iter().collect::<Vec<_>>());
                prop_assert_eq!(counts(), (before.0 + batch_cost.0, before.1 + batch_cost.1));
            }
        }

        /// Batch H₀ is `hash_to_g2` and `hash_to_g2_preimage`, input by
        /// input, byte for byte and count for count: under a label per
        /// input, with the cleared points and the pre-images of one batch
        /// split anywhere; the two-counter input among them.
        #[test]
        fn prop_batch_h0_is_h0(
            seed in any::<u64>(),
            lens in proptest::collection::vec(0usize..48, 17..18),
        ) {
            let mut r = StdRng::seed_from_u64(seed);
            let mut msgs: Vec<Vec<u8>> = lens
                .iter()
                .map(|&len| (0..len).map(|_| rand::Rng::gen::<u8>(&mut r)).collect())
                .collect();
            msgs[3] = b"two-counters-0".to_vec();
            let labels: [&[u8]; 2] = [b"other", b"test"];
            for n in BATCH_SIZES {
                let items: Vec<(&[u8], &[u8])> = msgs[..n]
                    .iter()
                    .enumerate()
                    .map(|(k, m)| (labels[k % 2], m.as_slice()))
                    .collect();
                for split in [0, n / 2, n] {
                    println!("hash_to_g2_many over {n}, {split} cleared: {}", batch_path(n));
                    let (cleared, preimages) = items.split_at(split);
                    let before = ops::g1_mul_count();
                    let want: Vec<G2> = cleared.iter().map(|(l, m)| hash_to_g2(l, m)).collect();
                    let want_pre: Vec<G2Preimage> =
                        preimages.iter().map(|(l, m)| hash_to_g2_preimage(l, m)).collect();
                    let scalar_muls = ops::g1_mul_count() - before;
                    let before = ops::g1_mul_count();
                    let (got, got_pre) = hash_to_g2_many(cleared, preimages);
                    prop_assert_eq!(ops::g1_mul_count() - before, scalar_muls);
                    let bytes = |v: &[G2]| -> Vec<Vec<u8>> { v.iter().map(G2::to_bytes).collect() };
                    prop_assert_eq!(bytes(&got), bytes(&want), "n = {}, split {}", n, split);
                    prop_assert_eq!(got_pre, want_pre, "n = {}, split {}", n, split);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn prop_scalar_mul_small_matches_repeated_add(k in 0u64..40) {
            let g = generator();
            let mut expect = AffinePoint::IDENTITY;
            for _ in 0..k {
                expect = expect.add(&g);
            }
            prop_assert_eq!(g.mul_scalar(&Fq::from_u64(k)), expect);
        }

        #[test]
        fn prop_one_predicate_on_random_bytes(
            tag in 0u8..5,
            body in proptest::collection::vec(any::<u8>(), 64..65),
            top in 0u8..2,
        ) {
            // Random bodies are almost never below p in their top byte, so
            // half the cases clear it to reach the square-root and subgroup
            // branches.
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&body);
            if top == 0 {
                bytes[1] = 0;
            }
            assert_one_predicate(&bytes);
        }

        #[test]
        fn prop_one_predicate_on_mutated_encodings(
            seed in any::<u64>(),
            at in 0usize..65,
            xor in 1u8..255,
        ) {
            let mut r = StdRng::seed_from_u64(seed);
            let mut bytes = G1::random(&mut r).to_bytes();
            assert_one_predicate(&bytes);
            bytes[at] ^= xor;
            assert_one_predicate(&bytes);
            // Every tag value over an otherwise valid encoding.
            for tag in 0..=255u8 {
                bytes[0] = tag;
                assert_one_predicate(&bytes);
            }
        }

        #[test]
        fn prop_ladder_mul_matches_binary(seed in any::<u64>()) {
            let mut r = StdRng::seed_from_u64(seed);
            let p = AffinePoint::random_subgroup(&mut r);
            let k = Fq::random(&mut r).to_uint();
            prop_assert_eq!(p.mul_uint(&k), binary_mul(&p, &k));
            prop_assert_eq!(p.neg().mul_uint(&k), binary_mul(&p, &k).neg());
        }

        #[test]
        fn prop_double_mul_matches_binary(seed in any::<u64>()) {
            let mut r = StdRng::seed_from_u64(seed);
            let p = AffinePoint::random_subgroup(&mut r).to_projective();
            let q = AffinePoint::random_subgroup(&mut r).to_projective();
            let a = Fq::random(&mut r).to_uint();
            let b = Fq::random(&mut r).to_uint();
            prop_assert_eq!(
                ProjectivePoint::double_mul(&p, &a, &q, &b).to_affine(),
                ProjectivePoint::double_mul_binary(&p, &a, &q, &b).to_affine()
            );
        }

        #[test]
        fn prop_mul_many_matches_mul(seed in any::<u64>(), n in 1usize..5) {
            let mut r = StdRng::seed_from_u64(seed);
            let base = G1::random(&mut r);
            let scalars: Vec<Fq> = (0..n).map(|_| Fq::random(&mut r)).collect();
            assert_mul_many_is_mul(&base, &scalars);
        }

        #[test]
        fn prop_fixed_base_table_matches_generic_mul(seed in any::<u64>()) {
            let mut r = StdRng::seed_from_u64(seed);
            let base = AffinePoint::random_subgroup(&mut r);
            let table = FixedBaseTable::new(&base, Fq::NUM_BITS);
            let k = Fq::random(&mut r).to_uint();
            prop_assert_eq!(table.mul_uint(&k), base.mul_uint(&k));
        }
    }
}
