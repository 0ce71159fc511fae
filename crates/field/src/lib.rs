//! Prime-field arithmetic for the PEACE pairing group.
//!
//! Three fields are exposed:
//!
//! * [`Fp`] — the 512-bit base field of the supersingular curve
//!   `E: y² = x³ + x` (with `p ≡ 3 (mod 4)`, `p + 1 = c·q`).
//! * [`Fq`] — the 160-bit scalar field (the order of the pairing subgroup);
//!   this is the paper's `ℤ_p` exponent ring.
//! * [`Fp2`] — the quadratic extension, target field of the Tate pairing.
//!
//! On x86-64, [`lanes`] holds `F_p` in eight AVX-512 IFMA lanes.
//!
//! All arithmetic is Montgomery-form with CIOS multiplication, built on
//! [`peace_bigint::Uint`]. Parameters are generated deterministically by
//! `tools/genparams.py` and committed in [`params`].
//!
//! # Examples
//!
//! ```
//! use peace_field::Fq;
//!
//! let a = Fq::from_u64(42);
//! let inv = a.invert().expect("nonzero");
//! assert_eq!(a.mul(&inv), Fq::ONE);
//! ```

// `deny`, not `forbid`: the lane kernels' bound test enters them at one
// dispatch site, with its SAFETY note.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod params;

#[cfg(target_arch = "x86_64")]
pub mod lanes;

mod fp2;
mod monty;

pub use fp2::Fp2;
pub use monty::{Fe, FieldParams};

use peace_bigint::Uint;

/// Marker type carrying the base-field (`p`) parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PMod;

impl FieldParams<8> for PMod {
    const MODULUS: Uint<8> = Uint::from_limbs(params::P_LIMBS);
    const R: Uint<8> = Uint::from_limbs(params::P_R);
    const R2: Uint<8> = Uint::from_limbs(params::P_R2);
    const INV: u64 = params::P_INV;
    const NUM_BITS: u32 = 512;
    const NUM_BYTES: usize = 64;
    const NAME: &'static str = "Fp";
}

/// Marker type carrying the scalar-field (`q`) parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QMod;

impl FieldParams<3> for QMod {
    const MODULUS: Uint<3> = Uint::from_limbs(params::Q_LIMBS);
    const R: Uint<3> = Uint::from_limbs(params::Q_R);
    const R2: Uint<3> = Uint::from_limbs(params::Q_R2);
    const INV: u64 = params::Q_INV;
    const NUM_BITS: u32 = 160;
    const NUM_BYTES: usize = 20;
    const NAME: &'static str = "Fq";
}

/// The 512-bit base field of the pairing curve.
pub type Fp = Fe<PMod, 8>;

/// The 160-bit scalar field (order of the pairing subgroup). This plays the
/// role of the paper's exponent ring `ℤ_p`.
pub type Fq = Fe<QMod, 3>;

/// The subgroup order `q` as an integer.
pub const fn subgroup_order() -> Uint<3> {
    Uint::from_limbs(params::Q_LIMBS)
}

/// The base-field modulus `p` as an integer.
pub const fn base_modulus() -> Uint<8> {
    Uint::from_limbs(params::P_LIMBS)
}

/// The cofactor `c = (p + 1) / q` as an integer (352 bits).
pub const fn cofactor() -> Uint<6> {
    Uint::from_limbs(params::COFACTOR)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn fp_one_times_one() {
        assert_eq!(Fp::ONE.mul(&Fp::ONE), Fp::ONE);
        assert_eq!(Fp::ONE.to_uint(), Uint::ONE);
    }

    #[test]
    fn fp_add_neg_is_zero() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp::random(&mut r);
            assert!(a.add(&a.neg()).is_zero());
        }
    }

    #[test]
    fn fp_mul_inverse() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp::random_nonzero(&mut r);
            assert_eq!(a.mul(&a.invert().unwrap()), Fp::ONE);
        }
        assert!(Fp::ZERO.invert().is_none());
    }

    #[test]
    fn fq_mul_inverse() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fq::random_nonzero(&mut r);
            assert_eq!(a.mul(&a.invert().unwrap()), Fq::ONE);
        }
        assert!(Fq::ZERO.invert().is_none());
    }

    #[test]
    fn fp_sqrt_roundtrip() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp::random(&mut r);
            let sq = a.square();
            let root = sq.sqrt().expect("square must have a root");
            assert!(root == a || root == a.neg());
        }
    }

    #[test]
    fn fp_nonresidue_has_no_root() {
        // -1 is a non-residue since p ≡ 3 (mod 4)
        let minus_one = Fp::ONE.neg();
        assert_eq!(minus_one.legendre(), -1);
        assert!(minus_one.sqrt().is_none());
    }

    #[test]
    fn fp_legendre_of_squares() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp::random_nonzero(&mut r);
            assert_eq!(a.square().legendre(), 1);
        }
        assert_eq!(Fp::ZERO.legendre(), 0);
    }

    #[test]
    fn fq_fermat() {
        // a^(q-1) = 1
        let mut r = rng();
        let a = Fq::random_nonzero(&mut r);
        let qm1 = subgroup_order().wrapping_sub(&Uint::ONE);
        assert_eq!(a.pow(&qm1), Fq::ONE);
    }

    #[test]
    fn fp_fermat() {
        let mut r = rng();
        let a = Fp::random_nonzero(&mut r);
        let pm1 = base_modulus().wrapping_sub(&Uint::ONE);
        assert_eq!(a.pow(&pm1), Fp::ONE);
    }

    #[test]
    fn canonical_bytes_roundtrip() {
        let mut r = rng();
        let a = Fp::random(&mut r);
        let b = a.to_canonical_bytes();
        assert_eq!(b.len(), 64);
        assert_eq!(Fp::from_canonical_bytes(&b).unwrap(), a);

        let x = Fq::random(&mut r);
        let xb = x.to_canonical_bytes();
        assert_eq!(xb.len(), 20);
        assert_eq!(Fq::from_canonical_bytes(&xb).unwrap(), x);
    }

    #[test]
    fn canonical_bytes_reject_modulus() {
        let m = base_modulus().to_be_bytes();
        assert!(Fp::from_canonical_bytes(&m).is_none());
        let q = subgroup_order().to_be_bytes();
        assert!(Fq::from_canonical_bytes(&q[4..]).is_none());
        assert!(Fq::from_canonical_bytes(&[0u8; 19]).is_none());
    }

    #[test]
    fn from_wide_bytes_reduces() {
        let wide = [0xFFu8; 40];
        let a = Fq::from_wide_bytes(&wide);
        // Must equal the value mod q computed through Uint reduction.
        let mut full = [0u8; 48];
        full[8..].copy_from_slice(&wide);
        let hi = Uint::<3>::from_be_bytes(&full[..24]).unwrap();
        let lo = Uint::<3>::from_be_bytes(&full[24..]).unwrap();
        let expect = Fq::from_uint(&Uint::reduce_wide(&lo, &hi, &subgroup_order()));
        assert_eq!(a, expect);
    }

    #[test]
    fn fp2_mul_commutes_and_inverts() {
        let mut r = rng();
        let a = Fp2::random(&mut r);
        let b = Fp2::random(&mut r);
        assert_eq!(a.mul(&b), b.mul(&a));
        let ai = a.invert().unwrap();
        assert_eq!(a.mul(&ai), Fp2::ONE);
        assert!(Fp2::ZERO.invert().is_none());
    }

    #[test]
    fn fp2_square_matches_mul() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp2::random(&mut r);
            assert_eq!(a.square(), a.mul(&a));
        }
    }

    #[test]
    fn fp2_i_squared_is_minus_one() {
        let i = Fp2::new(Fp::ZERO, Fp::ONE);
        assert_eq!(i.square(), Fp2::from_base(Fp::ONE.neg()));
    }

    #[test]
    fn fp2_conjugate_is_frobenius() {
        let mut r = rng();
        let a = Fp2::random(&mut r);
        let frob = a.pow(&base_modulus());
        assert_eq!(frob, a.conjugate());
    }

    #[test]
    fn fp2_norm_multiplicative() {
        let mut r = rng();
        let a = Fp2::random(&mut r);
        let b = Fp2::random(&mut r);
        assert_eq!(a.mul(&b).norm(), a.norm().mul(&b.norm()));
    }

    #[test]
    fn fp2_bytes_roundtrip() {
        let mut r = rng();
        let a = Fp2::random(&mut r);
        let bytes = a.to_bytes();
        assert_eq!(bytes.len(), 128);
        assert_eq!(Fp2::from_bytes(&bytes).unwrap(), a);
        assert!(Fp2::from_bytes(&bytes[1..]).is_none());
    }

    #[test]
    fn p_plus_one_is_cofactor_times_q() {
        // sanity-check the generated parameters: c * q == p + 1
        let c = cofactor();
        let q = subgroup_order();
        // widen both to 8 limbs and multiply
        let mut cl = [0u64; 8];
        cl[..6].copy_from_slice(c.as_limbs());
        let mut ql = [0u64; 8];
        ql[..3].copy_from_slice(q.as_limbs());
        let (lo, hi) = Uint::<8>::from_limbs(cl).mul_wide(&Uint::from_limbs(ql));
        assert!(hi.is_zero());
        assert_eq!(lo, base_modulus().wrapping_add(&Uint::ONE));
    }

    #[test]
    fn p_is_3_mod_4() {
        assert_eq!(base_modulus().as_limbs()[0] & 3, 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_fq_ring_axioms(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
            let (a, b, c) = (Fq::from_u64(a), Fq::from_u64(b), Fq::from_u64(c));
            prop_assert_eq!(a.add(&b), b.add(&a));
            prop_assert_eq!(a.mul(&b), b.mul(&a));
            prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
            prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
            prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        }

        #[test]
        fn prop_fp_sub_add_inverse(a in any::<u64>(), b in any::<u64>()) {
            let (a, b) = (Fp::from_u64(a), Fp::from_u64(b));
            prop_assert_eq!(a.sub(&b).add(&b), a);
        }

        #[test]
        fn prop_sparse_cios_matches_generic_reference(
            a in proptest::array::uniform8(any::<u64>()),
            b in proptest::array::uniform8(any::<u64>()),
        ) {
            // Random full 512-bit inputs, reduced into the field; the hot
            // zero-limb-skip CIOS must agree with the retained generic
            // reference limb-for-limb.
            let a = Fp::from_uint(&Uint::from_limbs(a));
            let b = Fp::from_uint(&Uint::from_limbs(b));
            let reference = Fp::from_mont(Fp::mont_mul_generic(a.mont_repr(), b.mont_repr()));
            prop_assert_eq!(a.mul(&b), reference);
        }

        #[test]
        fn prop_square_kernel_matches_mul(
            a in proptest::array::uniform8(any::<u64>()),
        ) {
            let a = Fp::from_uint(&Uint::from_limbs(a));
            prop_assert_eq!(a.square(), a.mul(&a));
            let generic = Fp::from_mont(Fp::mont_mul_generic(a.mont_repr(), a.mont_repr()));
            prop_assert_eq!(a.square(), generic);
        }

        #[test]
        fn prop_binary_gcd_inverse_matches_fermat(
            a in proptest::array::uniform8(any::<u64>()),
            b in proptest::array::uniform3(any::<u64>()),
        ) {
            // The binary-xgcd inversion kernel must agree with the retained
            // Fermat-exponentiation oracle over both moduli (sparse 512-bit
            // p and dense 160-bit q), zero included.
            let a = Fp::from_uint(&Uint::from_limbs(a));
            prop_assert_eq!(a.invert(), a.invert_fermat());
            let b = Fq::from_uint(&Uint::from_limbs(b));
            prop_assert_eq!(b.invert(), b.invert_fermat());
            prop_assert_eq!(Fp::ZERO.invert(), None);
        }

        #[test]
        fn prop_from_wide_matches_long_division(
            lo in proptest::array::uniform8(any::<u64>()),
            hi in proptest::array::uniform8(any::<u64>()),
        ) {
            let lo = Uint::from_limbs(lo);
            let hi = Uint::from_limbs(hi);
            let fast = Fp::from_wide(&lo, &hi);
            let slow = Fp::from_uint(&Uint::reduce_wide(&lo, &hi, &base_modulus()));
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn prop_fq_sparse_and_wide_consistency(
            lo in proptest::array::uniform3(any::<u64>()),
            hi in proptest::array::uniform3(any::<u64>()),
        ) {
            // Same checks over the dense 160-bit modulus: the zero-limb skip
            // must be a no-op there and the wide reduction exact.
            let a = Fq::from_uint(&Uint::from_limbs(lo));
            let b = Fq::from_uint(&Uint::from_limbs(hi));
            let reference = Fq::from_mont(Fq::mont_mul_generic(a.mont_repr(), b.mont_repr()));
            prop_assert_eq!(a.mul(&b), reference);
            prop_assert_eq!(a.square(), a.mul(&a));
            let (lo, hi) = (Uint::from_limbs(lo), Uint::from_limbs(hi));
            let fast = Fq::from_wide(&lo, &hi);
            let slow = Fq::from_uint(&Uint::reduce_wide(&lo, &hi, &subgroup_order()));
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn prop_fp2_mul_matches_the_textbook_product(
            a0 in proptest::array::uniform8(any::<u64>()),
            a1 in proptest::array::uniform8(any::<u64>()),
            b0 in proptest::array::uniform8(any::<u64>()),
            b1 in proptest::array::uniform8(any::<u64>()),
        ) {
            let a = Fp2::new(
                Fp::from_uint(&Uint::from_limbs(a0)),
                Fp::from_uint(&Uint::from_limbs(a1)),
            );
            let b = Fp2::new(
                Fp::from_uint(&Uint::from_limbs(b0)),
                Fp::from_uint(&Uint::from_limbs(b1)),
            );
            // (x0 + x1·i)(y0 + y1·i) with i² = −1, four products.
            let textbook = |x: &Fp2, y: &Fp2| Fp2::new(
                x.c0.mul(&y.c0).sub(&x.c1.mul(&y.c1)),
                x.c0.mul(&y.c1).add(&x.c1.mul(&y.c0)),
            );
            prop_assert_eq!(a.mul(&b), textbook(&a, &b));
            prop_assert_eq!(b.mul(&a), textbook(&a, &b));
            prop_assert_eq!(a.square(), textbook(&a, &a));
            prop_assert_eq!(Fp2::ZERO.square(), Fp2::ZERO);
        }

        #[test]
        fn prop_lucas_v_is_the_trace_of_a_power(
            a0 in proptest::array::uniform8(any::<u64>()),
            a1 in proptest::array::uniform8(any::<u64>()),
            n in proptest::array::uniform8(any::<u64>()),
            shift in 0u32..70,
        ) {
            // V_n(y + y⁻¹) = yⁿ + y⁻ⁿ for a norm-1 y (y⁻¹ = conj y, so both
            // sides are twice a real part), at exponents with and without
            // trailing zeros, and at the ladder's corner cases.
            let f = Fp2::new(
                Fp::from_uint(&Uint::from_limbs(a0)),
                Fp::from_uint(&Uint::from_limbs(a1)),
            );
            let y = f.conjugate().mul(&f.invert().unwrap_or(Fp2::ONE));
            prop_assert!(y.is_unitary());
            let t = y.c0.double();
            let mut n = Uint::<8>::from_limbs(n);
            for _ in 0..shift {
                n = n.shl1();
            }
            prop_assert_eq!(t.lucas_v(&n), y.pow(&n).c0.double());
            for small in [0u64, 1, 2, 3, 4, 6, 8] {
                let n = Uint::<1>::from_u64(small);
                prop_assert_eq!(t.lucas_v(&n), y.pow(&n).c0.double(), "n = {}", small);
            }
        }

        #[test]
        fn prop_batch_invert_matches_invert_and_skips_zeros(
            vals in proptest::collection::vec(proptest::array::uniform8(any::<u64>()), 0..6),
            zero_at in 0usize..8,
        ) {
            let mut vals: Vec<Fp> = vals
                .iter()
                .map(|l| Fp::from_uint(&Uint::from_limbs(*l)))
                .collect();
            if zero_at < vals.len() {
                vals[zero_at] = Fp::ZERO;
            }
            let expect: Vec<Fp> = vals
                .iter()
                .map(|v| v.invert().unwrap_or(Fp::ZERO))
                .collect();
            Fp::batch_invert(&mut vals);
            prop_assert_eq!(vals, expect);
        }

        #[test]
        fn prop_legendre_matches_the_euler_criterion(
            a in proptest::array::uniform8(any::<u64>()),
            b in proptest::array::uniform3(any::<u64>()),
        ) {
            // a^((m−1)/2) is 1, m − 1 or 0 as a is a residue, a non-residue
            // or zero: the oracle the binary Jacobi symbol must agree with,
            // over both moduli, at random values, their squares and the
            // edges 0, 1 and m − 1.
            fn euler<P: FieldParams<N>, const N: usize>(a: &Fe<P, N>) -> i8 {
                let r = a.pow(&P::MODULUS.wrapping_sub(&Uint::ONE).shr1());
                if r == Fe::ONE {
                    1
                } else if r.is_zero() {
                    0
                } else {
                    -1
                }
            }
            let a = Fp::from_uint(&Uint::from_limbs(a));
            for v in [a, a.square(), Fp::ZERO, Fp::ONE, Fp::ONE.neg()] {
                prop_assert_eq!(v.legendre(), euler(&v), "{:?}", v);
            }
            let b = Fq::from_uint(&Uint::from_limbs(b));
            for v in [b, b.square(), Fq::ZERO, Fq::ONE, Fq::ONE.neg()] {
                prop_assert_eq!(v.legendre(), euler(&v), "{:?}", v);
            }
        }

        #[test]
        fn prop_conditional_swap_swaps_exactly_when_chosen(
            a in proptest::array::uniform8(any::<u64>()),
            b in proptest::array::uniform8(any::<u64>()),
            choice in any::<bool>(),
        ) {
            let (a, b) = (Fp::from_uint(&Uint::from_limbs(a)), Fp::from_uint(&Uint::from_limbs(b)));
            let (mut x, mut y) = (a, b);
            Fp::conditional_swap(&mut x, &mut y, choice);
            prop_assert_eq!((x, y), if choice { (b, a) } else { (a, b) });
        }

        #[test]
        fn prop_fq_pow_small(a in 1u64..1000, e in 0u32..16) {
            let base = Fq::from_u64(a);
            let mut expect = Fq::ONE;
            for _ in 0..e {
                expect = expect.mul(&base);
            }
            prop_assert_eq!(base.pow(&Uint::<3>::from_u64(e as u64)), expect);
        }
    }
}
