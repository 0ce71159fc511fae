//! Point arithmetic on the supersingular curve `E: y² = x³ + x` over `F_p`.
//!
//! Affine and Jacobian-projective representations with complete-by-case
//! addition and doubling. One scalar times a variable base is an x-only
//! Montgomery ladder; `a·P + b·Q` for public scalars is wNAF over Jacobian
//! points. The curve coefficient is `a = 1, b = 0`.

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
        self.mul_uint(&k.to_uint())
    }

    /// Scalar multiplication by an arbitrary-width integer: the x-only
    /// Montgomery ladder (`x_ladder`) ends on `[k]P` and `[k+1]P`, and
    /// Okeya–Sakurai recovers `y` of the first from them — 9 field
    /// multiplications per bit and one inversion, where a Jacobian wNAF
    /// pays about 11.7 per bit. Takes a point on the curve.
    ///
    /// Increments the global 𝔾₁-exponentiation counter used by the E2
    /// experiment (`ops::g1_mul_count`).
    pub fn mul_uint<const M: usize>(&self, k: &Uint<M>) -> Self {
        ops::record_g1_mul();
        self.ladder_mul(k)
    }

    /// [`Self::mul_uint`], not counted: for a caller that records the
    /// exponentiation this stands in for.
    pub(crate) fn ladder_mul<const M: usize>(&self, k: &Uint<M>) -> Self {
        if self.infinity {
            return Self::IDENTITY;
        }
        if self.x.is_zero() {
            // The 2-torsion point (0, 0): a ladder whose difference has
            // x = 0 degenerates to (0 : 0).
            return if k.is_odd() { *self } else { Self::IDENTITY };
        }
        let (kp, next) = x_ladder(&self.x, k);
        match LadderEnd::of(self, &kp, &next) {
            LadderEnd::Point(p) => p,
            LadderEnd::Scaled { x, y, den } => {
                let inv = den.invert().expect("y_P and both Z nonzero");
                LadderEnd::finish(&x, &y, &inv)
            }
        }
    }

    /// Simultaneous `a·self + b·other` (Shamir's trick; see
    /// [`ProjectivePoint::double_mul`]). Variable-time: for public scalars
    /// only.
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
    /// point into the order-`q` subgroup.
    pub fn clear_cofactor(&self) -> Self {
        self.mul_uint(&cofactor())
    }

    /// Whether the point — which must be on the curve: `G1::from_point`
    /// checks that first — lies in the order-`q` subgroup.
    ///
    /// `[q]P = O` read off the x-only ladder's `Z`: no y-recovery, no
    /// inversion. Counted as one 𝔾₁ exponentiation.
    pub fn is_in_subgroup(&self) -> bool {
        if self.infinity {
            return true;
        }
        ops::record_g1_mul();
        if self.x.is_zero() {
            // (0, 0) has order 2, and x = 0 would degenerate the ladder.
            return false;
        }
        let (qp, _) = x_ladder(&self.x, &peace_field::subgroup_order());
        qp.z.is_zero()
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

    /// The odd multiples `P, 3P, 5P, …, (2T−1)P` (wNAF lookup table).
    fn odd_multiples<const T: usize>(&self) -> [Self; T] {
        let twice = self.double();
        let mut table = [*self; T];
        for i in 1..T {
            table[i] = table[i - 1].add(&twice);
        }
        table
    }

    /// Plain double-and-add scalar multiplication: the oracle the ladder
    /// ([`AffinePoint::mul_uint`]) is tested against, built for tests only.
    #[cfg(test)]
    pub(crate) fn mul_uint_binary<const M: usize>(&self, k: &Uint<M>) -> Self {
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

    /// Binary Shamir ladder: the oracle [`Self::double_mul`] is tested
    /// against, built for tests only.
    #[cfg(test)]
    pub(crate) fn double_mul_binary<const M: usize>(
        p: &Self,
        a: &Uint<M>,
        q: &Self,
        b: &Uint<M>,
    ) -> Self {
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

/// A curve point by its x-coordinate alone, projectively: `x = X/Z`, with
/// `Z = 0` the identity. `P` and `−P` share one.
pub(crate) struct XOnly {
    pub(crate) x: Fp,
    pub(crate) z: Fp,
}

/// `[k]P` from `P` and the ladder's ends `[k]P`, `[k+1]P` in x-only form.
pub(crate) enum LadderEnd {
    /// `[k]P` is `O` or `−P`, read off a zero `Z`.
    Point(AffinePoint),
    /// `[k]P = (x/den, y/den)`: one inversion from affine, which a batch
    /// of ladders shares.
    Scaled { x: Fp, y: Fp, den: Fp },
}

impl LadderEnd {
    /// Okeya–Sakurai recovery of `y` for `P = (x_P, y_P)` with `x_P ≠ 0`.
    pub(crate) fn of(p: &AffinePoint, kp: &XOnly, next: &XOnly) -> Self {
        if kp.z.is_zero() {
            return Self::Point(AffinePoint::IDENTITY);
        }
        if next.z.is_zero() {
            // [k+1]P = O, where the recovery below would divide by zero.
            return Self::Point(p.neg());
        }
        // y of Q = [k]P from x_P, y_P, x_Q and x_{Q+P} (A = 0, B = 1):
        // y_Q = ((x_P·x_Q + 1)(x_P + x_Q) − (x_P − x_Q)²·x_{Q+P}) / 2y_P,
        // over the denominators Z_Q² and Z_{Q+P}.
        let xz = p.x.mul(&kp.z);
        let cross = kp.x.sub(&xz).square().mul(&next.x);
        let sum = kp.x.add(&xz).mul(&p.x.mul(&kp.x).add(&kp.z));
        let y_num = sum.mul(&next.z).sub(&cross);
        // d = 2·y_P·Z_Q·Z_{Q+P}; x_Q = X_Q·d / (d·Z_Q), y_Q = y_num / (d·Z_Q).
        let d = p.y.double().mul(&kp.z).mul(&next.z);
        Self::Scaled {
            x: kp.x.mul(&d),
            y: y_num,
            den: d.mul(&kp.z),
        }
    }

    /// The point of a [`Self::Scaled`] end, given `1/den`.
    pub(crate) fn finish(x: &Fp, y: &Fp, den_inv: &Fp) -> AffinePoint {
        AffinePoint {
            x: x.mul(den_inv),
            y: y.mul(den_inv),
            infinity: false,
        }
    }
}

/// `([k]P, [k+1]P)` in x-only form, for `P = (x, ·)` on the curve with
/// `x ≠ 0`: the Montgomery ladder on `E`, a Montgomery curve with `A = 0`.
///
/// Each bit maps `(R₀, R₁)` with `R₁ − R₀ = P` to `(2R₀, R₀ + R₁)` or
/// `(R₀ + R₁, 2R₁)`: a doubling (2M + 2S) and a differential addition
/// whose difference is `x` (3M + 2S). The pair is exchanged by masked
/// [`Fp::conditional_swap`]s rather than a branch, and the ladder runs over
/// at least [`Fq::NUM_BITS`] bits, so for every ℤ_q scalar the sequence of
/// field operations is the same. The field operations themselves remain
/// variable-time.
pub(crate) fn x_ladder<const M: usize>(x: &Fp, k: &Uint<M>) -> (XOnly, XOnly) {
    let (mut x0, mut z0) = (Fp::ONE, Fp::ZERO);
    let (mut x1, mut z1) = (*x, Fp::ONE);
    let mut swapped = false;
    for i in (0..k.bits().max(Fq::NUM_BITS)).rev() {
        let bit = k.bit(i);
        Fp::conditional_swap(&mut x0, &mut x1, swapped ^ bit);
        Fp::conditional_swap(&mut z0, &mut z1, swapped ^ bit);
        swapped = bit;
        let (a, b) = (x0.add(&z0), x0.sub(&z0));
        let (aa, bb) = (a.square(), b.square());
        // R₀ + R₁: X = 4(X₀X₁ − Z₀Z₁)², Z = 4x(X₁Z₀ − X₀Z₁)².
        let da = x1.sub(&z1).mul(&a);
        let cb = x1.add(&z1).mul(&b);
        x1 = da.add(&cb).square();
        z1 = da.sub(&cb).square().mul(x);
        // 2R₀, scaled by 2 so that (A + 2)/4 = 1/2 costs nothing:
        // X = 2·AA·BB, Z = (AA − BB)(AA + BB).
        x0 = aa.mul(&bb).double();
        z0 = aa.sub(&bb).mul(&aa.add(&bb));
    }
    Fp::conditional_swap(&mut x0, &mut x1, swapped);
    Fp::conditional_swap(&mut z0, &mut z1, swapped);
    (XOnly { x: x0, z: z0 }, XOnly { x: x1, z: z1 })
}

/// wNAF window width per scalar in interleaved double-mul (smaller: two
/// tables are built per call).
const DOUBLE_MUL_WIDTH: u32 = 4;

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
