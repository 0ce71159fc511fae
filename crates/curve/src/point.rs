//! Point arithmetic on the supersingular curve `E: y² = x³ + x` over `F_p`.
//!
//! Affine and Jacobian-projective representations with complete-by-case
//! addition, doubling, and double-and-add scalar multiplication. The curve
//! coefficient is `a = 1, b = 0`.

use core::fmt;

use peace_bigint::Uint;
use peace_field::{cofactor, Fp, Fq};
use rand::RngCore;

use crate::ops;

/// A point on `E(F_p)` in affine coordinates, or the point at infinity.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct AffinePoint {
    /// x-coordinate (meaningless when `infinity`).
    pub x: Fp,
    /// y-coordinate (meaningless when `infinity`).
    pub y: Fp,
    /// Whether this is the identity element.
    pub infinity: bool,
}

/// A point on `E(F_p)` in Jacobian projective coordinates `(X : Y : Z)`
/// with `x = X/Z²`, `y = Y/Z³`; `Z = 0` encodes infinity.
#[derive(Clone, Copy)]
pub struct ProjectivePoint {
    x: Fp,
    y: Fp,
    z: Fp,
}

impl AffinePoint {
    /// The identity (point at infinity).
    pub const IDENTITY: Self = Self {
        x: Fp::ZERO,
        y: Fp::ZERO,
        infinity: true,
    };

    /// Constructs a point from coordinates, verifying the curve equation.
    ///
    /// Returns `None` if `(x, y)` is not on the curve.
    pub fn new(x: Fp, y: Fp) -> Option<Self> {
        let p = Self {
            x,
            y,
            infinity: false,
        };
        if p.is_on_curve() {
            Some(p)
        } else {
            None
        }
    }

    /// Constructs without checking the curve equation (for trusted constants).
    pub const fn new_unchecked(x: Fp, y: Fp) -> Self {
        Self {
            x,
            y,
            infinity: false,
        }
    }

    /// Whether the point satisfies `y² = x³ + x` (infinity counts as on-curve).
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        let lhs = self.y.square();
        let rhs = self.x.square().mul(&self.x).add(&self.x);
        lhs == rhs
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Point negation `(x, −y)`.
    pub fn neg(&self) -> Self {
        if self.infinity {
            *self
        } else {
            Self {
                x: self.x,
                y: self.y.neg(),
                infinity: false,
            }
        }
    }

    /// Converts to Jacobian coordinates.
    pub fn to_projective(&self) -> ProjectivePoint {
        if self.infinity {
            ProjectivePoint::IDENTITY
        } else {
            ProjectivePoint {
                x: self.x,
                y: self.y,
                z: Fp::ONE,
            }
        }
    }

    /// Point addition via projective arithmetic.
    pub fn add(&self, rhs: &Self) -> Self {
        self.to_projective().add_affine(rhs).to_affine()
    }

    /// Point doubling.
    pub fn double(&self) -> Self {
        self.to_projective().double().to_affine()
    }

    /// Scalar multiplication by a field scalar (mod q).
    pub fn mul_scalar(&self, k: &Fq) -> Self {
        self.to_projective().mul_uint(&k.to_uint()).to_affine()
    }

    /// Scalar multiplication by an arbitrary-width integer.
    pub fn mul_uint<const M: usize>(&self, k: &Uint<M>) -> Self {
        self.to_projective().mul_uint(k).to_affine()
    }

    /// Simultaneous `a·self + b·other` (Shamir's trick; see
    /// [`ProjectivePoint::double_mul`]).
    pub fn double_mul_scalar(&self, a: &Fq, other: &Self, b: &Fq) -> Self {
        ProjectivePoint::double_mul(
            &self.to_projective(),
            &a.to_uint(),
            &other.to_projective(),
            &b.to_uint(),
        )
        .to_affine()
    }

    /// Multiplies by the curve cofactor `c = (p+1)/q`, mapping any curve
    /// point into the order-`q` subgroup. The 352-bit cofactor is fixed for
    /// the lifetime of the process, so its wNAF recoding is computed once
    /// and shared by every hash-to-curve call.
    pub fn clear_cofactor(&self) -> Self {
        self.to_projective()
            .mul_wnaf_digits(cofactor_wnaf())
            .to_affine()
    }

    /// Whether the point lies in the order-`q` subgroup.
    pub fn is_in_subgroup(&self) -> bool {
        if self.infinity {
            return true;
        }
        self.mul_uint(&peace_field::subgroup_order()).is_identity()
    }

    /// Compressed encoding: 1 tag byte (`0` infinity, `2` even y, `3` odd y)
    /// followed by the 64-byte big-endian x-coordinate. 65 bytes total.
    pub fn to_compressed(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(65);
        if self.infinity {
            out.push(0);
            out.extend_from_slice(&[0u8; 64]);
        } else {
            out.push(if self.y.is_odd() { 3 } else { 2 });
            out.extend_from_slice(&self.x.to_canonical_bytes());
        }
        out
    }

    /// Decodes a compressed point, verifying it is on the curve.
    ///
    /// Returns `None` on malformed input or if `x³ + x` is a non-residue.
    pub fn from_compressed(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 65 {
            return None;
        }
        match bytes[0] {
            0 => {
                if bytes[1..].iter().all(|&b| b == 0) {
                    Some(Self::IDENTITY)
                } else {
                    None
                }
            }
            tag @ (2 | 3) => {
                let x = Fp::from_canonical_bytes(&bytes[1..])?;
                ops::record_g1_decompress();
                let rhs = x.square().mul(&x).add(&x);
                let mut y = rhs.sqrt()?;
                if y.is_odd() != (tag == 3) {
                    y = y.neg();
                }
                Some(Self {
                    x,
                    y,
                    infinity: false,
                })
            }
            _ => None,
        }
    }

    /// A uniformly random point in the order-`q` subgroup.
    pub fn random_subgroup(rng: &mut impl RngCore) -> Self {
        let k = Fq::random_nonzero(rng);
        crate::fixed_base::mul_generator(&k)
    }
}

impl fmt::Debug for AffinePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infinity {
            write!(f, "AffinePoint(∞)")
        } else {
            write!(f, "AffinePoint({:?}, {:?})", self.x, self.y)
        }
    }
}

impl Default for AffinePoint {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl ProjectivePoint {
    /// The identity element.
    pub const IDENTITY: Self = Self {
        x: Fp::ONE,
        y: Fp::ONE,
        z: Fp::ZERO,
    };

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Converts to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> AffinePoint {
        if self.is_identity() {
            return AffinePoint::IDENTITY;
        }
        let zinv = self.z.invert().expect("nonzero z");
        let zinv2 = zinv.square();
        let zinv3 = zinv2.mul(&zinv);
        AffinePoint {
            x: self.x.mul(&zinv2),
            y: self.y.mul(&zinv3),
            infinity: false,
        }
    }

    /// Point doubling (Jacobian, `a = 1`).
    pub fn double(&self) -> Self {
        if self.is_identity() || self.y.is_zero() {
            return Self::IDENTITY;
        }
        let xx = self.x.square();
        let yy = self.y.square();
        let yyyy = yy.square();
        let zz = self.z.square();
        // S = 2·((X+YY)² − XX − YYYY)
        let s = self.x.add(&yy).square().sub(&xx).sub(&yyyy).double();
        // M = 3·XX + a·ZZ², with a = 1
        let m = xx.double().add(&xx).add(&zz.square());
        let x3 = m.square().sub(&s.double());
        let y3 = m.mul(&s.sub(&x3)).sub(&yyyy.double().double().double());
        let z3 = self.y.add(&self.z).square().sub(&yy).sub(&zz);
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General point addition (Jacobian).
    pub fn add(&self, rhs: &Self) -> Self {
        if self.is_identity() {
            return *rhs;
        }
        if rhs.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x.mul(&z2z2);
        let u2 = rhs.x.mul(&z1z1);
        let s1 = self.y.mul(&rhs.z).mul(&z2z2);
        let s2 = rhs.y.mul(&self.z).mul(&z1z1);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Self::IDENTITY;
        }
        let h = u2.sub(&u1);
        let i = h.double().square();
        let j = h.mul(&i);
        let r = s2.sub(&s1).double();
        let v = u1.mul(&i);
        let x3 = r.square().sub(&j).sub(&v.double());
        let y3 = r.mul(&v.sub(&x3)).sub(&s1.mul(&j).double());
        let z3 = self.z.add(&rhs.z).square().sub(&z1z1).sub(&z2z2).mul(&h);
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point (`Z₂ = 1` shortcuts: saves one
    /// squaring and three multiplications over the general formula — this is
    /// what makes precomputed-table lookups cheap).
    pub fn add_affine(&self, rhs: &AffinePoint) -> Self {
        if rhs.infinity {
            return *self;
        }
        if self.is_identity() {
            return rhs.to_projective();
        }
        let z1z1 = self.z.square();
        let u2 = rhs.x.mul(&z1z1);
        let s2 = rhs.y.mul(&self.z).mul(&z1z1);
        if self.x == u2 {
            if self.y == s2 {
                return self.double();
            }
            return Self::IDENTITY;
        }
        let h = u2.sub(&self.x);
        let hh = h.square();
        let i = hh.double().double();
        let j = h.mul(&i);
        let r = s2.sub(&self.y).double();
        let v = self.x.mul(&i);
        let x3 = r.square().sub(&j).sub(&v.double());
        let y3 = r.mul(&v.sub(&x3)).sub(&self.y.mul(&j).double());
        let z3 = self.z.add(&h).square().sub(&z1z1).sub(&hh);
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Converts a batch of points to affine with a single field inversion
    /// (Montgomery's trick): the workhorse behind fixed-base table
    /// construction, where normalizing hundreds of entries one inversion at
    /// a time would dominate the setup cost.
    pub fn batch_to_affine(points: &[Self]) -> Vec<AffinePoint> {
        // The identity has z = 0, which the batch inversion leaves alone.
        let mut zinv: Vec<Fp> = points.iter().map(|p| p.z).collect();
        Fp::batch_invert(&mut zinv);
        points
            .iter()
            .zip(&zinv)
            .map(|(p, zinv)| {
                if p.is_identity() {
                    return AffinePoint::IDENTITY;
                }
                let zinv2 = zinv.square();
                AffinePoint {
                    x: p.x.mul(&zinv2),
                    y: p.y.mul(&zinv2.mul(zinv)),
                    infinity: false,
                }
            })
            .collect()
    }

    /// `(x/y, 1/y)` of each point's affine form, with a single field
    /// inversion for the batch: the coordinates a pairing line scaled to
    /// unit imaginary part is evaluated at (`peace_pairing::MillerLines`).
    /// In Jacobian terms `x/y = X·Z/Y` and `1/y = Z³/Y`, so it is the `Y`s
    /// that are inverted and the affine form is never built.
    ///
    /// `None` for the identity and for a point with `y = 0` (the 2-torsion
    /// point, which no odd-order subgroup contains).
    pub fn batch_to_xy_ratios(points: &[Self]) -> Vec<Option<(Fp, Fp)>> {
        let mut yinv: Vec<Fp> = points
            .iter()
            .map(|p| if p.is_identity() { Fp::ZERO } else { p.y })
            .collect();
        Fp::batch_invert(&mut yinv);
        points
            .iter()
            .zip(&yinv)
            .map(|(p, yinv)| {
                if yinv.is_zero() {
                    return None;
                }
                let z_yinv = p.z.mul(yinv);
                Some((p.x.mul(&z_yinv), p.z.square().mul(&z_yinv)))
            })
            .collect()
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: self.y.neg(),
            z: self.z,
        }
    }

    /// Scalar multiplication by an arbitrary-width integer using width-5
    /// wNAF (signed digits exploit the free negation `(x, −y)`: 8 odd
    /// multiples replace a 15-entry window table, and nonzero-digit density
    /// drops from 15/16 per window to ≈1/6 per bit).
    ///
    /// Increments the global 𝔾₁-exponentiation counter used by the E2
    /// experiment (`ops::g1_mul_count`).
    pub fn mul_uint<const M: usize>(&self, k: &Uint<M>) -> Self {
        ops::record_g1_mul();
        let bits = k.bits();
        if bits == 0 {
            return Self::IDENTITY;
        }
        if bits + WNAF_WIDTH > Uint::<M>::BITS {
            // Not enough headroom for signed-digit recoding at full width
            // (never hit by the ≤352-bit scalars the scheme uses).
            return self.mul_uint_fixed_window(k);
        }
        let table = self.odd_multiples::<8>();
        let digits = k.wnaf(WNAF_WIDTH);
        let mut acc = Self::IDENTITY;
        for &d in digits.iter().rev() {
            acc = acc.double();
            acc = add_digit(&acc, &table, d);
        }
        acc
    }

    /// Scalar multiplication driven by a precomputed width-5 wNAF digit
    /// schedule — lets fixed scalars (the cofactor) share one recoding.
    fn mul_wnaf_digits(&self, digits: &[i8]) -> Self {
        ops::record_g1_mul();
        let table = self.odd_multiples::<8>();
        let mut acc = Self::IDENTITY;
        for &d in digits.iter().rev() {
            acc = acc.double();
            acc = add_digit(&acc, &table, d);
        }
        acc
    }

    /// The odd multiples `P, 3P, 5P, …, (2T−1)P` (wNAF lookup table).
    fn odd_multiples<const T: usize>(&self) -> [Self; T] {
        let twice = self.double();
        let mut table = [*self; T];
        for i in 1..T {
            table[i] = table[i - 1].add(&twice);
        }
        table
    }

    /// 4-bit fixed-window ladder (fallback for scalars with no wNAF
    /// headroom; also the reference the wNAF equivalence test pins against).
    fn mul_uint_fixed_window<const M: usize>(&self, k: &Uint<M>) -> Self {
        let bits = k.bits();
        // Precompute 1·P … 15·P.
        let mut table = [Self::IDENTITY; 16];
        table[1] = *self;
        for i in 2..16 {
            table[i] = table[i - 1].add(self);
        }
        let mut acc = Self::IDENTITY;
        // Process the scalar in 4-bit windows, most significant first.
        let windows = bits.div_ceil(4);
        for w in (0..windows).rev() {
            for _ in 0..4 {
                acc = acc.double();
            }
            let mut digit = 0usize;
            for b in 0..4 {
                let bit_index = w * 4 + (3 - b);
                digit <<= 1;
                if k.bit(bit_index) {
                    digit |= 1;
                }
            }
            if digit != 0 {
                acc = acc.add(&table[digit]);
            }
        }
        acc
    }

    /// Plain double-and-add scalar multiplication (reference/ablation
    /// implementation; compare against [`Self::mul_uint`]).
    pub fn mul_uint_binary<const M: usize>(&self, k: &Uint<M>) -> Self {
        ops::record_g1_mul();
        let bits = k.bits();
        if bits == 0 {
            return Self::IDENTITY;
        }
        let mut acc = Self::IDENTITY;
        for i in (0..bits).rev() {
            acc = acc.double();
            if k.bit(i) {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// Simultaneous double-scalar multiplication `a·P + b·Q` over one shared
    /// doubling chain — the shape used by ECDSA verification and the
    /// group-signature helper values `u^{s}·T^{−c}`.
    ///
    /// Both scalars are recoded to width-4 wNAF and their digit streams
    /// interleaved: joint nonzero density falls from 3/4 per bit (binary
    /// Shamir) to ≈2/5, at the cost of 4 precomputed odd multiples per base.
    pub fn double_mul<const M: usize>(p: &Self, a: &Uint<M>, q: &Self, b: &Uint<M>) -> Self {
        ops::record_g1_mul();
        let bits = a.bits().max(b.bits());
        if bits == 0 {
            return Self::IDENTITY;
        }
        if bits + DOUBLE_MUL_WIDTH > Uint::<M>::BITS {
            return Self::double_mul_binary_inner(p, a, q, b);
        }
        let tp = p.odd_multiples::<4>();
        let tq = q.odd_multiples::<4>();
        let da = a.wnaf(DOUBLE_MUL_WIDTH);
        let db = b.wnaf(DOUBLE_MUL_WIDTH);
        let mut acc = Self::IDENTITY;
        for i in (0..da.len().max(db.len())).rev() {
            acc = acc.double();
            if let Some(&d) = da.get(i) {
                acc = add_digit(&acc, &tp, d);
            }
            if let Some(&d) = db.get(i) {
                acc = add_digit(&acc, &tq, d);
            }
        }
        acc
    }

    /// `k·self` for every `k` in `scalars`, over **one** doubling chain of
    /// `self` — the shape of a signer's `T₁ = u^α`, `R₁ = u^{r_α}`,
    /// `R₃ = u^{α·r_x − r_δ}`, three powers of one fresh base.
    ///
    /// Right to left: the running base `2ⁱ·self` is doubled once per bit
    /// whatever the number of scalars, and each scalar's width-4 signed
    /// digit at position `i` adds `±2ⁱ·self` into that scalar's bucket for
    /// `|digit|` (four buckets: 1, 3, 5, 7); a scalar's result is the
    /// weighted sum of its buckets. Per scalar that is ≈ 32 + 9 additions
    /// and no doublings of its own. The results are normalized together
    /// (one field inversion), and each is recorded as one 𝔾₁ exponentiation
    /// — it replaces one.
    pub fn mul_many(&self, scalars: &[Fq]) -> Vec<AffinePoint> {
        let digits: Vec<Vec<i8>> = scalars
            .iter()
            .map(|k| {
                ops::record_g1_mul();
                k.to_uint().wnaf(MUL_MANY_WIDTH)
            })
            .collect();
        let len = digits.iter().map(Vec::len).max().unwrap_or(0);
        let mut buckets = vec![[Self::IDENTITY; MUL_MANY_BUCKETS]; scalars.len()];
        let mut base = *self;
        for i in 0..len {
            if i > 0 {
                base = base.double();
            }
            for (digits, buckets) in digits.iter().zip(&mut buckets) {
                let d = digits.get(i).copied().unwrap_or(0);
                if d != 0 {
                    let signed = if d > 0 { base } else { base.neg() };
                    let bucket = &mut buckets[(d.unsigned_abs() as usize) >> 1];
                    *bucket = bucket.add(&signed);
                }
            }
        }
        let sums: Vec<Self> = buckets.iter().map(odd_weighted_sum).collect();
        Self::batch_to_affine(&sums)
    }

    /// Binary Shamir ladder (reference/ablation implementation; compare
    /// against [`Self::double_mul`]).
    pub fn double_mul_binary<const M: usize>(p: &Self, a: &Uint<M>, q: &Self, b: &Uint<M>) -> Self {
        ops::record_g1_mul();
        Self::double_mul_binary_inner(p, a, q, b)
    }

    fn double_mul_binary_inner<const M: usize>(
        p: &Self,
        a: &Uint<M>,
        q: &Self,
        b: &Uint<M>,
    ) -> Self {
        let pq = p.add(q);
        let bits = a.bits().max(b.bits());
        if bits == 0 {
            return Self::IDENTITY;
        }
        let mut acc = Self::IDENTITY;
        for i in (0..bits).rev() {
            acc = acc.double();
            match (a.bit(i), b.bit(i)) {
                (true, true) => acc = acc.add(&pq),
                (true, false) => acc = acc.add(p),
                (false, true) => acc = acc.add(q),
                (false, false) => {}
            }
        }
        acc
    }
}

/// wNAF window width for single-scalar multiplication.
const WNAF_WIDTH: u32 = 5;

/// Width-5 wNAF digit schedule of the fixed curve cofactor, recoded once
/// per process (hash-to-curve clears the cofactor on every call).
fn cofactor_wnaf() -> &'static [i8] {
    static DIGITS: std::sync::OnceLock<Vec<i8>> = std::sync::OnceLock::new();
    DIGITS.get_or_init(|| cofactor().wnaf(WNAF_WIDTH))
}

/// wNAF window width per scalar in interleaved double-mul (smaller: two
/// tables are built per call).
const DOUBLE_MUL_WIDTH: u32 = 4;

/// wNAF window width per scalar in [`ProjectivePoint::mul_many`], and the
/// buckets it needs (one per odd digit magnitude). Width 4 is where the
/// digit additions (≈ bits/5) and the bucket sum (≈ 2 per bucket) balance.
const MUL_MANY_WIDTH: u32 = 4;
const MUL_MANY_BUCKETS: usize = 1 << (MUL_MANY_WIDTH - 2);

/// `Σⱼ (2j+1)·buckets[j]` by running sums: `2·Σⱼ j·buckets[j]` comes from
/// adding the suffix sums, the rest is the sum of all buckets.
fn odd_weighted_sum(buckets: &[ProjectivePoint; MUL_MANY_BUCKETS]) -> ProjectivePoint {
    let mut suffix = ProjectivePoint::IDENTITY;
    let mut weighted = ProjectivePoint::IDENTITY;
    for bucket in buckets[1..].iter().rev() {
        suffix = suffix.add(bucket);
        weighted = weighted.add(&suffix);
    }
    weighted.double().add(&suffix).add(&buckets[0])
}

/// Adds the table entry for a signed wNAF digit (`d` odd, `|d| < 2T`);
/// zero digits are a no-op.
#[inline]
fn add_digit<const T: usize>(
    acc: &ProjectivePoint,
    odd_multiples: &[ProjectivePoint; T],
    d: i8,
) -> ProjectivePoint {
    match d.cmp(&0) {
        core::cmp::Ordering::Greater => acc.add(&odd_multiples[(d as usize) >> 1]),
        core::cmp::Ordering::Less => {
            acc.add(&odd_multiples[(d.unsigned_abs() as usize) >> 1].neg())
        }
        core::cmp::Ordering::Equal => *acc,
    }
}

impl fmt::Debug for ProjectivePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Projective({:?})", self.to_affine())
    }
}

impl Default for ProjectivePoint {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl PartialEq for ProjectivePoint {
    fn eq(&self, other: &Self) -> bool {
        self.to_affine() == other.to_affine()
    }
}
impl Eq for ProjectivePoint {}

/// The fixed generator of the order-`q` subgroup (from the generated params).
pub fn generator() -> AffinePoint {
    AffinePoint::new_unchecked(
        Fp::from_uint(&Uint::from_limbs(peace_field::params::GEN_X)),
        Fp::from_uint(&Uint::from_limbs(peace_field::params::GEN_Y)),
    )
}
