//! The reduced Tate pairing `ê : 𝔾₁ × 𝔾₂ → 𝔾_T` via the BKLS algorithm.
//!
//! For the supersingular curve `E: y² = x³ + x` over `p ≡ 3 (mod 4)` the
//! distortion map is `φ(x, y) = (−x, i·y)` with `i² = −1` in `F_p²`. The
//! modified pairing is
//!
//! ```text
//! ê(P, Q) = f_{q,P}(φ(Q))^((p²−1)/q)
//! ```
//!
//! Because the embedding degree is even, *denominator elimination* applies:
//! all vertical-line factors lie in `F_p` and are killed by the final
//! exponentiation (`(p²−1)/q = (p−1)·(p+1)/q` and `a^(p−1) = 1` for
//! `a ∈ F_p*`), so the Miller loop multiplies only slope-line values. Line
//! values at `φ(Q)` have the sparse shape `l = l_r + l_i·i` with `l_i`
//! proportional to `y_Q`, which keeps each step cheap.
//!
//! The loop runs over the 160-bit subgroup order `q` with Jacobian
//! coordinates (inversion-free).
//!
//! Beyond the one-shot [`tate_pairing`], the [`MillerValue`] API exposes the
//! two pairing phases separately so callers can share work across many
//! evaluations: products of Miller values multiply in `F_p²`, and
//! [`MillerValue::finalize_batch`] reduces a whole batch with one field
//! inversion (Montgomery's trick for the easy parts) and a single shared
//! hard-part sweep over the cached cofactor wNAF schedule.
//! [`MillerValue::reduce_powers`] reduces a product of *powers* of Miller
//! values the same way: one inversion, one shared squaring chain for the
//! exponents, one hard part.
//!
//! [`MillerLines`] splits the loop itself: the point arithmetic depends on
//! the first argument only, so a caller that pairs one `P` against many
//! `Q` runs the double/add schedule once and pays only the `F_p²`
//! accumulation per `Q`. The stored lines are scaled to **unit imaginary
//! part**: a line `(c₀ + c₁·x_Q) + (c₂·y_Q)·i` divided by `c₂·y_Q ∈ F_p*`
//! is `(c₀/c₂)·(1/y_Q) + (c₁/c₂)·(x_Q/y_Q) + i`, and the factor is free for
//! the same reason denominators are — the final exponentiation kills it.
//! Two coefficients per step instead of three, and multiplying by `b + i`
//! costs two `F_p` multiplications instead of a general one in `F_p²`.
//!
//! A caller that only asks *whether* a value reduces to 1 — the revocation
//! check — never runs the hard part: for a norm-1 `y`, `y^c = 1` exactly
//! when `V_c(y + y⁻¹) = 2` ([`MillerValue::reduces_to_one`]), a Lucas
//! ladder in `F_p` on the trace alone. The revocation check over `n` tokens
//! is `n + 1` Miller loops (`n` of them table evaluations) and `n` such
//! ladders, against `2n` full pairings.

use std::sync::OnceLock;

use peace_curve::ProjectivePoint;
#[cfg(target_arch = "x86_64")]
use peace_field::lanes::Ifma;
use peace_field::{cofactor, subgroup_order, Fp, Fp2, Fq};

use crate::gt::Gt;
use crate::ops;

/// Raw affine input to the Miller loop.
#[derive(Clone, Copy)]
struct Affine {
    x: Fp,
    y: Fp,
}

/// Jacobian accumulator inside the Miller loop.
struct Jac {
    x: Fp,
    y: Fp,
    z: Fp,
}

/// Cached Miller-loop schedule: the NAF (width-2 wNAF) recoding of the
/// 160-bit subgroup order `q`, computed once.
///
/// NAF digit density is 1/3 versus 1/2 for plain binary, so the loop runs
/// ~`bits/3` add steps instead of `popcount(q)`. Negative digits cost the
/// same as positive ones: the chord line through `T` and `−P` is what
/// [`add_step`] computes when handed the (free) affine negation of `P`, and
/// the extra vertical factors introduced by the subtraction lie in `F_p`,
/// where the final exponentiation kills them — the same denominator
/// elimination that discards vertical lines in the doubling steps.
pub(crate) fn loop_naf() -> &'static [i8] {
    static SCHEDULE: OnceLock<Vec<i8>> = OnceLock::new();
    SCHEDULE.get_or_init(|| {
        let digits = subgroup_order().wnaf(2);
        debug_assert_eq!(digits.last(), Some(&1), "top NAF digit of q is 1");
        digits
    })
}

/// Cached width-5 wNAF of the hard-part cofactor `c = (p+1)/q` (352 bits),
/// shared by every final exponentiation.
fn cofactor_naf() -> &'static [i8] {
    static NAF: OnceLock<Vec<i8>> = OnceLock::new();
    NAF.get_or_init(|| cofactor().wnaf(5))
}

/// An unreduced pairing value: `f_{q,P}(φ(Q)) ∈ F_p²` up to a factor in
/// `F_p*` — the output of a Miller loop *before* the final exponentiation,
/// which sends that factor to 1.
///
/// Miller values compose multiplicatively: `miller(P₁,Q₁).mul(&miller(P₂,Q₂))
/// .finalize() == ê(P₁,Q₁)·ê(P₂,Q₂)`. This is what lets the revocation sweep
/// compute the shared factor `f_{q,−T₁}(φ(v̂))` once and reuse it across
/// every token. Two values that reduce alike need not be equal: compare
/// reductions ([`Self::finalize`]), never the values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MillerValue(pub(crate) Fp2);

impl MillerValue {
    /// The neutral value (finalizes to `Gt::ONE`).
    pub const ONE: Self = Self(Fp2::ONE);

    /// Multiplies two Miller values (one `F_p²` multiplication).
    pub fn mul(&self, rhs: &Self) -> Self {
        Self(self.0.mul(&rhs.0))
    }

    /// Conjugates the unreduced value, so that
    /// `m.conjugate().finalize() == m.finalize().invert()`.
    ///
    /// Frobenius commutes with the final power — `(f^p)^e = (f^e)^p` — and
    /// the reduced value is unitary, where Frobenius (conjugation) *is*
    /// inversion. This turns a pairing **quotient** into a pairing product
    /// of Miller values before reduction: `ê(P₁,Q₁)·ê(P₂,Q₂)⁻¹` costs one
    /// final exponentiation instead of two plus a `𝔾_T` inversion.
    pub fn conjugate(&self) -> Self {
        Self(self.0.conjugate())
    }

    /// Raises the unreduced value to `e`: `m.pow(e).finalize() ==
    /// m.finalize().map(|g| g.pow(e))`, the exponent taken as its residue
    /// mod `q`. A width-5 wNAF chain whose negative digits multiply by a
    /// conjugate — an inverse up to a factor in `F_p*`, which the
    /// reduction kills ([`Self::conjugate`]) — so no field inversion is
    /// paid: 160 `F_p²` squarings and about 35 multiplications. Recorded
    /// as one `𝔾_T` exponentiation.
    pub fn pow(&self, e: &Fq) -> Self {
        ops::record_gt_exp();
        let odd = odd_powers(&self.0);
        let mut acc = Fp2::ONE;
        for &d in e.to_uint().wnaf(5).iter().rev() {
            acc = mul_digit(&acc.square(), &odd, d);
        }
        Self(acc)
    }

    /// Applies the final exponentiation, producing a `𝔾_T` element.
    ///
    /// `None` for the zero value, where the pairing is undefined. Points
    /// of the order-`q` subgroup never produce it (every line's imaginary
    /// part is a nonzero multiple of `y_Q ≠ 0`); a wrapper built with
    /// `from_point_unchecked` from a point outside the subgroup can.
    pub fn finalize(&self) -> Option<Gt> {
        ops::record_final_exp();
        final_exponentiation(&self.0)
    }

    /// Finalizes a batch of Miller values, sharing the expensive pieces:
    ///
    /// * the easy parts `yᵢ = f̄ᵢ/fᵢ = f̄ᵢ²/N(fᵢ)` cost **one** field
    ///   inversion for the whole batch;
    /// * the hard parts run in lock-step over the single cached cofactor
    ///   wNAF schedule (all accumulators advance digit by digit).
    ///
    /// A zero value reduces to `None` in its own slot (see
    /// [`Self::finalize`]) and leaves the rest of the batch intact.
    ///
    /// The batch is recorded as **one** final exponentiation in the op
    /// counters.
    pub fn finalize_batch(values: &[Self]) -> Vec<Option<Gt>> {
        if !values.is_empty() {
            ops::record_final_exp();
        }
        let easy = easy_parts(values.iter().map(|v| &v.0));
        // A zero's slot runs on 1 and is dropped at the end.
        let tables: Vec<[Fp2; 8]> = easy
            .iter()
            .map(|y| odd_powers(&y.unwrap_or(Fp2::ONE)))
            .collect();
        let mut accs = vec![Fp2::ONE; values.len()];
        for &d in cofactor_naf().iter().rev() {
            for (a, odd) in accs.iter_mut().zip(&tables) {
                *a = mul_digit(&a.square(), odd, d);
            }
        }
        easy.iter()
            .zip(accs)
            .map(|(y, a)| y.map(|_| Gt::from_fp2(a)))
            .collect()
    }

    /// `Π finalize(mᵢ)^{±eᵢ}` — each term `(mᵢ, eᵢ, negate)` raised to
    /// `eᵢ`, inverted where `negate` is set — with one reduction for all of
    /// them:
    ///
    /// 1. the easy parts `yᵢ = f̄ᵢ/fᵢ = f̄ᵢ²/N(fᵢ)`, with one `F_p`
    ///    inversion for the batch; a negated term takes `ȳᵢ = yᵢ⁻¹` instead;
    /// 2. one interleaved width-5 wNAF multi-exponentiation over those
    ///    norm-1 values — one shared squaring chain, conjugation standing in
    ///    for inversion on negative digits;
    /// 3. one hard part.
    ///
    /// The order is sound because the hard part is a homomorphism into
    /// `μ_q`: `(Π yᵢ^{eᵢ})^c = Π (yᵢ^c)^{eᵢ}`, so an exponent is only ever
    /// taken as its canonical residue mod `q`. Before the hard part `yᵢ`
    /// has order dividing `p + 1`, which is why negation is conjugation and
    /// never `q − e` of anything else.
    ///
    /// `None` if any value is zero (see [`Self::finalize`]). Recorded as one
    /// final exponentiation and `⌈k/2⌉` `𝔾_T` exponentiations for `k` terms —
    /// a fused pair counts once, as a two-table 𝔾₁ sweep did.
    pub fn reduce_powers(terms: &[(Self, Fq, bool)]) -> Option<Gt> {
        const W: u32 = 5;
        ops::record_final_exp();
        for _ in 0..terms.len().div_ceil(2) {
            ops::record_gt_exp();
        }
        let easy: Option<Vec<Fp2>> = easy_parts(terms.iter().map(|(m, _, _)| &m.0))
            .into_iter()
            .collect();
        // Per term: its odd-power table and its exponent's digits, LSB first.
        let rows: Vec<([Fp2; 8], Vec<i8>)> = easy?
            .iter()
            .zip(terms)
            .map(|(y, (_, e, negate))| {
                let y = if *negate { y.conjugate() } else { *y };
                (odd_powers(&y), e.to_uint().wnaf(W))
            })
            .collect();
        let len = rows.iter().map(|(_, d)| d.len()).max().unwrap_or(0);
        let mut acc = Fp2::ONE;
        for i in (0..len).rev() {
            acc = acc.square();
            for (odd, digits) in &rows {
                acc = mul_digit(&acc, odd, digits.get(i).copied().unwrap_or(0));
            }
        }
        Some(Gt::from_fp2(acc.pow_wnaf_unitary(cofactor_naf())))
    }

    /// Whether each value reduces to `𝔾_T`'s identity — what
    /// `v.finalize().is_some_and(|g| g.is_one())` answers, without the
    /// exponentiation. The zero value, whose reduction is undefined, is
    /// `false` in its own slot and disturbs no other.
    ///
    /// The easy part of `f = a + b·i` is `y = conj(f)/f`, of norm 1 and
    /// trace `2(a² − b²)/(a² + b²)` — one inversion for the whole batch, in
    /// `F_p`. The hard part `y^c` is 1 exactly when its trace
    /// `y^c + y^{−c} = V_c(y + y⁻¹)` is 2 (a norm-1 element of real part 1
    /// has imaginary part 0), and `V_c` is a ladder of two `F_p`
    /// multiplications per bit of the 352-bit cofactor
    /// ([`Fp::lucas_v`]). An equivalence, not a filter: a hit needs no
    /// confirmation and a miss is final.
    ///
    /// Not counted: a caller that splits one logical batch across threads
    /// records it once with [`ops::record_final_exp`].
    pub fn reduces_to_one(values: &[Self]) -> Vec<bool> {
        let (mut norm_inv, diff): (Vec<Fp>, Vec<Fp>) = values
            .iter()
            .map(|v| {
                let (aa, bb) = (v.0.c0.square(), v.0.c1.square());
                (aa.add(&bb), aa.sub(&bb))
            })
            .unzip();
        Fp::batch_invert(&mut norm_inv);
        let two = Fp::ONE.double();
        norm_inv
            .iter()
            .zip(&diff)
            .map(|(norm_inv, diff)| {
                !norm_inv.is_zero() && diff.mul(norm_inv).double().lucas_v(&cofactor()) == two
            })
            .collect()
    }
}

/// The easy parts `f̄/f = f̄²/N(f)` of a batch of Miller values, norm 1,
/// with one `F_p` inversion for every norm; `None` in the slot of a zero
/// value (the only one of norm 0, since `−1` is a non-residue).
fn easy_parts<'a>(values: impl Iterator<Item = &'a Fp2> + Clone) -> Vec<Option<Fp2>> {
    let mut norm_inv: Vec<Fp> = values.clone().map(Fp2::norm).collect();
    Fp::batch_invert(&mut norm_inv);
    values
        .zip(&norm_inv)
        .map(|(f, n)| {
            let ff = f.conjugate().square();
            (!n.is_zero()).then(|| Fp2::new(ff.c0.mul(n), ff.c1.mul(n)))
        })
        .collect()
}

/// The odd powers `y¹, y³, …, y¹⁵` of `y`, indexed by `d >> 1` for a
/// width-5 wNAF digit `d`.
fn odd_powers(y: &Fp2) -> [Fp2; 8] {
    let y2 = y.square();
    let mut odd = [*y; 8];
    for i in 1..8 {
        odd[i] = odd[i - 1].mul(&y2);
    }
    odd
}

/// `acc · y^d` for a signed digit `d` over `y`'s [`odd_powers`]: the
/// conjugate of a norm-1 value is its inverse, and of any other nonzero
/// value its inverse times the norm, a factor in `F_p*`.
fn mul_digit(acc: &Fp2, odd: &[Fp2; 8], d: i8) -> Fp2 {
    match d {
        0 => *acc,
        d if d > 0 => acc.mul(&odd[(d >> 1) as usize]),
        d => acc.mul(&odd[((-d) >> 1) as usize].conjugate()),
    }
}

/// Runs one Miller loop `f_{q,P}(φ(Q))` without reducing it.
///
/// Identity in either slot yields [`MillerValue::ONE`] without running (and
/// without counting) a loop.
pub fn miller(p: &peace_curve::AffinePoint, q: &peace_curve::AffinePoint) -> MillerValue {
    if p.is_identity() || q.is_identity() {
        return MillerValue::ONE;
    }
    MillerValue(miller_loop(
        &Affine { x: p.x, y: p.y },
        &Affine { x: q.x, y: q.y },
    ))
}

/// Computes the reduced Tate pairing of raw curve points.
///
/// Callers pass points of the order-`q` subgroup (the `G1`/`G2` wrappers
/// guarantee this). Identity in either slot yields `Gt::ONE`.
pub fn tate_pairing(p: &peace_curve::AffinePoint, q: &peace_curve::AffinePoint) -> Gt {
    ops::record_pairing();
    if p.is_identity() || q.is_identity() {
        return Gt::ONE;
    }
    let f = miller_loop(&Affine { x: p.x, y: p.y }, &Affine { x: q.x, y: q.y });
    reduce_or_one(&f)
}

/// Computes `∏ ê(Pᵢ, Qᵢ)` sharing one final exponentiation.
pub fn tate_pairing_product(pairs: &[(peace_curve::AffinePoint, peace_curve::AffinePoint)]) -> Gt {
    let mut f = Fp2::ONE;
    let mut any = false;
    for (p, q) in pairs {
        ops::record_pairing();
        if p.is_identity() || q.is_identity() {
            continue;
        }
        any = true;
        let fi = miller_loop(&Affine { x: p.x, y: p.y }, &Affine { x: q.x, y: q.y });
        f = f.mul(&fi);
    }
    if !any {
        return Gt::ONE;
    }
    reduce_or_one(&f)
}

/// The form a Miller step hands its line out in: its value at one fixed
/// `φ(Q)` ([`At`]), or its coefficients for evaluation at many points later
/// ([`Coefficients`]). The point arithmetic of a step is the same for both.
trait LineForm {
    type Line;
    /// A line whose value lies in `F_p` (vertical, or through `O`): the
    /// final exponentiation kills it, so it stands for 1.
    fn unit(&self) -> Self::Line;
    /// The tangent at `T = (X, Y, Z)`, scaled by `2YZ³ ∈ F_p`:
    /// `l = [M·(X + Z²·x_Q) − 2Y²] + [Z₃·Z²·y_Q]·i`.
    fn tangent(&self, m: &Fp, x: &Fp, yy: &Fp, zz: &Fp, z3: &Fp) -> Self::Line;
    /// The chord through `T` and affine `P` with slope `A/(Z·B)`, scaled by
    /// `Z·B ∈ F_p`: `l = [A·(x_P + x_Q) − Z·B·y_P] + [Z·B·y_Q]·i`.
    fn chord(&self, a: &Fp, zb: &Fp, p: &Affine) -> Self::Line;
}

/// Lines evaluated at `φ(Q)` as they are computed (the one-shot loop).
struct At<'a>(&'a Affine);

impl LineForm for At<'_> {
    type Line = Fp2;

    fn unit(&self) -> Fp2 {
        Fp2::ONE
    }

    fn tangent(&self, m: &Fp, x: &Fp, yy: &Fp, zz: &Fp, z3: &Fp) -> Fp2 {
        let q = self.0;
        Fp2::new(
            m.mul(&x.add(&zz.mul(&q.x))).sub(&yy.double()),
            z3.mul(zz).mul(&q.y),
        )
    }

    fn chord(&self, a: &Fp, zb: &Fp, p: &Affine) -> Fp2 {
        let q = self.0;
        Fp2::new(a.mul(&p.x.add(&q.x)).sub(&zb.mul(&p.y)), zb.mul(&q.y))
    }
}

/// Lines kept as coefficients (the prepared loop): `(c₀, c₁, c₂)` of
/// `l(Q) = (c₀ + c₁·x_Q) + (c₂·y_Q)·i` with `c₂ ≠ 0`, or `None` for a line
/// whose value lies in `F_p`.
struct Coefficients;

impl LineForm for Coefficients {
    type Line = Option<(Fp, Fp, Fp)>;

    fn unit(&self) -> Self::Line {
        None
    }

    fn tangent(&self, m: &Fp, x: &Fp, yy: &Fp, zz: &Fp, z3: &Fp) -> Self::Line {
        Some((m.mul(x).sub(&yy.double()), m.mul(zz), z3.mul(zz)))
    }

    fn chord(&self, a: &Fp, zb: &Fp, p: &Affine) -> Self::Line {
        Some((a.mul(&p.x).sub(&zb.mul(&p.y)), *a, *zb))
    }
}

/// One stored line, scaled by `1/(c₂·y_Q)` to unit imaginary part:
/// `(c0·(1/y_Q) + c1·(x_Q/y_Q)) + i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct UnitLine {
    pub(crate) c0: Fp,
    pub(crate) c1: Fp,
}

/// One step of a prepared loop: a doubling step squares the accumulator
/// and multiplies its line in, an addition step only multiplies. Where a
/// doubling step's line lies in `F_p` it is a bare squaring; an addition
/// step with such a line is no step at all. The lines themselves are kept
/// apart, one per step but a bare squaring, in step order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    Square,
    SquareMul,
    Mul,
}

/// Walks the cached NAF schedule of `q` over `P`, slope lines only, handing
/// each step's line to `step(doubling, line)`: a doubling step contributes
/// `f ← f²·l`, an addition step `f ← f·l`.
fn walk<F: LineForm>(p: &Affine, form: &F, mut step: impl FnMut(bool, F::Line)) {
    let digits = loop_naf();
    let neg_p = Affine {
        x: p.x,
        y: p.y.neg(),
    };
    let mut t = Jac {
        x: p.x,
        y: p.y,
        z: Fp::ONE,
    };
    // The top digit is 1 (it seeds T = P, f = 1); walk the rest MSB-first.
    for &d in digits[..digits.len() - 1].iter().rev() {
        step(true, double_step(&mut t, form));
        if d == 1 {
            step(false, add_step(&mut t, p, form));
        } else if d == -1 {
            step(false, add_step(&mut t, &neg_p, form));
        }
    }
}

/// Miller loop computing `f_{q,P}(φ(Q))`.
fn miller_loop(p: &Affine, q: &Affine) -> Fp2 {
    ops::record_miller_loop();
    let mut f = Fp2::ONE;
    walk(p, &At(q), |doubling, l| {
        f = if doubling {
            f.square().mul(&l)
        } else {
            f.mul(&l)
        };
    });
    f
}

/// The Miller loop of a fixed first argument `P`, run once and kept as
/// unit-imaginary lines (see the module docs): an evaluation at `Q` then
/// costs four `F_p` multiplications per line and two per squaring, with no
/// point arithmetic. Two `F_p` coefficients per step, ~29 KB; building the
/// table costs one loop's point arithmetic and one field inversion.
///
/// An evaluation reduces to what [`miller`] reduces to. The unreduced
/// values differ by the product of the scale factors, which lies in `F_p*`.
#[derive(Clone, Debug)]
pub struct MillerLines {
    /// Empty when `P` is the identity.
    steps: Vec<Step>,
    /// The lines as field elements. A table built on its own keeps them; one
    /// built eight at a time ([`Self::new_many`]) derives them from `lanes`
    /// on its first scalar walk (`eval_at`, or a lone point), if any.
    lines: OnceLock<Vec<UnitLine>>,
    /// The lines in the lane kernel's form. A table built eight at a time
    /// keeps them; one built on its own derives them from `lines` on its
    /// first lane walk, if any.
    #[cfg(target_arch = "x86_64")]
    lanes: OnceLock<Vec<crate::lanes::LaneLine>>,
}

/// Two tables are equal when they take the same steps with the same lines.
#[cfg(test)]
impl PartialEq for MillerLines {
    fn eq(&self, other: &Self) -> bool {
        #[cfg(target_arch = "x86_64")]
        if self.lane_lines() != other.lane_lines() {
            return false;
        }
        self.steps == other.steps && self.unit_lines() == other.unit_lines()
    }
}

impl MillerLines {
    /// Runs the double/add schedule over `P`. The identity prepares to a
    /// table every evaluation of which is [`MillerValue::ONE`].
    pub fn new(p: &peace_curve::G1) -> Self {
        let p = p.point();
        if p.is_identity() {
            return Self::from_lines(Vec::new(), Vec::new());
        }
        ops::record_miller_prepare();
        let mut steps = Vec::with_capacity(loop_naf().len() * 3 / 2);
        let mut lines = Vec::with_capacity(steps.capacity());
        let mut scales = Vec::with_capacity(steps.capacity());
        walk(
            &Affine { x: p.x, y: p.y },
            &Coefficients,
            |doubling, line| {
                if let Some((c0, c1, c2)) = line {
                    scales.push(c2);
                    lines.push(UnitLine { c0, c1 });
                }
                match (doubling, line.is_some()) {
                    (true, true) => steps.push(Step::SquareMul),
                    (true, false) => steps.push(Step::Square),
                    (false, true) => steps.push(Step::Mul),
                    (false, false) => {}
                }
            },
        );
        Fp::batch_invert(&mut scales);
        for (line, scale) in lines.iter_mut().zip(&scales) {
            line.c0 = line.c0.mul(scale);
            line.c1 = line.c1.mul(scale);
        }
        Self::from_lines(steps, lines)
    }

    fn from_lines(steps: Vec<Step>, lines: Vec<UnitLine>) -> Self {
        Self {
            #[cfg(target_arch = "x86_64")]
            lanes: OnceLock::new(),
            lines: OnceLock::from(lines),
            steps,
        }
    }

    /// The lines as field elements, in step order.
    fn unit_lines(&self) -> &[UnitLine] {
        #[cfg(target_arch = "x86_64")]
        return self.lines.get_or_init(|| {
            crate::lanes::unit_lines(self.lanes.get().expect("built with one form"))
        });
        #[cfg(not(target_arch = "x86_64"))]
        self.lines.get().expect("built with its lines")
    }

    /// The lines in the lane kernel's form, in step order.
    #[cfg(target_arch = "x86_64")]
    fn lane_lines(&self) -> &[crate::lanes::LaneLine] {
        self.lanes
            .get_or_init(|| crate::lanes::lane_lines(self.unit_lines()))
    }

    /// Whether the table holds its lines in the lane kernel's form: built
    /// eight at a time, or walked in lanes since.
    pub fn holds_lane_form(&self) -> bool {
        #[cfg(target_arch = "x86_64")]
        return self.lanes.get().is_some();
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    /// The table evaluated at `Q`, paying one field inversion for
    /// `(x_Q/y_Q, 1/y_Q)`; a caller with many points batches that
    /// ([`ProjectivePoint::batch_to_xy_ratios`]) and calls
    /// [`Self::eval_at`].
    pub fn eval(&self, q: &peace_curve::G2) -> MillerValue {
        let at = ProjectivePoint::batch_to_xy_ratios(&[q.point().to_projective()]);
        self.eval_at(at[0].as_ref())
    }

    /// The table evaluated at the point given as `(x/y, 1/y)`; `None` is a
    /// point that has no such form — the identity — where every line's
    /// value lies in `F_p`. Counts as one Miller loop; the identity in
    /// either slot yields [`MillerValue::ONE`] and is not counted, as in
    /// [`miller`].
    pub fn eval_at(&self, at: Option<&(Fp, Fp)>) -> MillerValue {
        let Some((x_over_y, inv_y)) = at else {
            return MillerValue::ONE;
        };
        if self.steps.is_empty() {
            return MillerValue::ONE;
        }
        ops::record_miller_loop();
        // f = re + im·i, kept as its two coordinates: every operation of
        // the walk is written in F_p multiplications — two for a squaring,
        // `(re + im)(re − im) + (2·re·im)·i`, and four for a line,
        // `f·(b + i) = (re·b − im) + (im·b + re)·i` with
        // `b = c0·(1/y) + c1·(x/y)`.
        let square = |re: &Fp, im: &Fp| (re.add(im).mul(&re.sub(im)), re.mul(im).double());
        let mul = |re: &Fp, im: &Fp, line: &UnitLine| {
            let b = line.c0.mul(inv_y).add(&line.c1.mul(x_over_y));
            (re.mul(&b).sub(im), im.mul(&b).add(re))
        };
        let (mut re, mut im) = (Fp::ONE, Fp::ZERO);
        let mut lines = self.unit_lines().iter();
        let mut line = || lines.next().expect("a line per step but a bare squaring");
        for step in &self.steps {
            (re, im) = match step {
                Step::Square => square(&re, &im),
                Step::SquareMul => {
                    let (re, im) = square(&re, &im);
                    mul(&re, &im, line())
                }
                Step::Mul => mul(&re, &im, line()),
            };
        }
        MillerValue(Fp2::new(re, im))
    }

    /// `table.eval_at(at)` for each `(table, at)` of `evals`, counted as
    /// those calls count: the few evaluations one signature's `R₂` makes of
    /// the group key's two tables.
    ///
    /// On an x86-64 CPU with AVX-512 IFMA, where at least two evaluations
    /// are at a point and they use at most two tables, both taking the same
    /// steps, they run a lane each, eight per walk, each lane picking its
    /// table's lines; a walk costs about one scalar walk. Every other call
    /// is a loop of [`Self::eval_at`], which is what the lanes are tested
    /// against. The values are the same field elements either way.
    pub fn eval_many(evals: &[(&MillerLines, Option<&(Fp, Fp)>)]) -> Vec<MillerValue> {
        #[cfg(target_arch = "x86_64")]
        if let Some(values) = Self::eval_many_in_lanes(evals) {
            return values;
        }
        evals.iter().map(|(table, at)| table.eval_at(*at)).collect()
    }

    #[cfg(target_arch = "x86_64")]
    fn eval_many_in_lanes(evals: &[(&MillerLines, Option<&(Fp, Fp)>)]) -> Option<Vec<MillerValue>> {
        let cap = Ifma::detect()?;
        let live: Vec<(&MillerLines, &(Fp, Fp))> = evals
            .iter()
            .filter_map(|&(table, at)| Some((table, at?)))
            .filter(|(table, _)| !table.steps.is_empty())
            .collect();
        let first = live.first()?.0;
        let second = live
            .iter()
            .map(|&(table, _)| table)
            .find(|&table| !core::ptr::eq(table, first))
            .unwrap_or(first);
        let two_tables = live
            .iter()
            .all(|&(table, _)| core::ptr::eq(table, first) || core::ptr::eq(table, second));
        if live.len() < 2 || !two_tables || second.steps != first.steps {
            return None;
        }
        let at: Vec<(bool, (Fp, Fp))> = live
            .iter()
            .map(|&(table, at)| (!core::ptr::eq(table, first), *at))
            .collect();
        let kernel = crate::lanes::Kernel::Values {
            steps: &first.steps,
            tables: [first.lane_lines(), second.lane_lines()],
            at: &at,
        };
        let crate::lanes::Output::Values(values) = in_lanes(cap, kernel) else {
            unreachable!("evaluations return values");
        };
        let mut values = values.into_iter();
        Some(
            evals
                .iter()
                .map(|&(table, at)| match at {
                    Some(_) if !table.steps.is_empty() => {
                        ops::record_miller_loop();
                        let value = values.next().flatten();
                        MillerValue(value.expect("a lane per live evaluation"))
                    }
                    _ => MillerValue::ONE,
                })
                .collect(),
        )
    }

    /// Points [`Self::reduces_to_one_at`] evaluates per instruction on a CPU
    /// with AVX-512 IFMA. A caller that splits a batch rounds its blocks to
    /// whole groups of this many: a short group costs as much as a full one.
    pub const LANES: usize = 8;

    /// Whether `eval_at(p)·shared` reduces to 1, for each point `p` of `at`:
    /// what [`MillerValue::reduces_to_one`] says of those values. Counted
    /// as those calls count: a Miller loop per point other than the
    /// identity, and no final exponentiation.
    ///
    /// On an x86-64 CPU with AVX-512 IFMA the walk, the product and the
    /// trace test run in eight lanes of radix-2^52 arithmetic, and the last
    /// group is padded; the norms' inversion is one scalar batch inversion
    /// either way. Elsewhere, and for a lone point (a padded group costs
    /// about one and a half scalar walks), the values are composed one by
    /// one, and that composition is what the lanes are tested against.
    pub fn reduces_to_one_at(&self, at: &[Option<(Fp, Fp)>], shared: &MillerValue) -> Vec<bool> {
        #[cfg(target_arch = "x86_64")]
        if let Some(hits) = self.reduces_to_one_in_lanes(at, shared) {
            return hits;
        }
        let values: Vec<MillerValue> = at
            .iter()
            .map(|at| self.eval_at(at.as_ref()).mul(shared))
            .collect();
        MillerValue::reduces_to_one(&values)
    }

    /// The lane kernel, where the CPU has it and the table has lines.
    #[cfg(target_arch = "x86_64")]
    fn reduces_to_one_in_lanes(
        &self,
        at: &[Option<(Fp, Fp)>],
        shared: &MillerValue,
    ) -> Option<Vec<bool>> {
        let cap = Ifma::detect()?;
        if self.steps.is_empty() || at.len() < 2 {
            return None;
        }
        for _ in at.iter().flatten() {
            ops::record_miller_loop();
        }
        let kernel = crate::lanes::Kernel::Sweep {
            steps: &self.steps,
            table: self.lane_lines(),
            at,
            shared: &shared.0,
        };
        let crate::lanes::Output::Hits(hits) = in_lanes(cap, kernel) else {
            unreachable!("a sweep returns hits");
        };
        Some(hits)
    }

    /// [`Self::new`] of each point. With AVX-512 IFMA, eight tables are
    /// built at once, each line computed and scaled in lanes and kept in
    /// lane form only (the field-element form follows on first use);
    /// elsewhere, and for a lone point, one by one. The same tables,
    /// counted the same.
    pub fn new_many(ps: &[peace_curve::G1]) -> Vec<Self> {
        #[cfg(target_arch = "x86_64")]
        if let Some(tables) = Self::new_many_in_lanes(ps) {
            return tables;
        }
        ps.iter().map(Self::new).collect()
    }

    #[cfg(target_arch = "x86_64")]
    fn new_many_in_lanes(ps: &[peace_curve::G1]) -> Option<Vec<Self>> {
        let cap = Ifma::detect()?;
        let live: Vec<(Fp, Fp)> = ps
            .iter()
            .filter(|p| !p.is_identity())
            .map(|p| (p.point().x, p.point().y))
            .collect();
        if live.len() < 2 {
            return None;
        }
        let kernel = crate::lanes::Kernel::LineTables {
            ps: &live,
            naf: loop_naf(),
        };
        let crate::lanes::Output::Tables { steps, tables } = in_lanes(cap, kernel) else {
            unreachable!("line tables return tables");
        };
        let mut tables = tables.into_iter();
        Some(
            ps.iter()
                .map(|p| {
                    let lanes = if p.is_identity() {
                        None
                    } else {
                        tables.next().expect("one table per live point")
                    };
                    let Some(lanes) = lanes else {
                        return Self::new(p);
                    };
                    ops::record_miller_prepare();
                    Self {
                        steps: steps.clone(),
                        lines: OnceLock::new(),
                        lanes: OnceLock::from(lanes),
                    }
                })
                .collect(),
        )
    }
}

/// [`miller`]`(P, Q).pow(e)` for each `(P, Q)` with `P` in 𝔾₁ and `Q` any
/// curve point: eight Miller loops and eight powers at once, counted as
/// the scalar calls count. `None` where the lanes do not pay — no IFMA,
/// or fewer than two loops to run.
#[cfg(target_arch = "x86_64")]
pub(crate) fn miller_powers_in_lanes(
    pairs: &[(&peace_curve::AffinePoint, &peace_curve::AffinePoint)],
    e: &Fq,
) -> Option<Vec<MillerValue>> {
    let cap = Ifma::detect()?;
    let live: Vec<usize> = (0..pairs.len())
        .filter(|&k| !pairs[k].0.is_identity() && !pairs[k].1.is_identity())
        .collect();
    if live.len() < 2 {
        return None;
    }
    let coords = |pick: fn(&(&peace_curve::AffinePoint, &peace_curve::AffinePoint)) -> (Fp, Fp)| {
        live.iter().map(|&k| pick(&pairs[k])).collect::<Vec<_>>()
    };
    let (ps, qs) = (coords(|(p, _)| (p.x, p.y)), coords(|(_, q)| (q.x, q.y)));
    let e_digits = e.to_uint().wnaf(5);
    let kernel = crate::lanes::Kernel::MillerPowers {
        ps: &ps,
        qs: &qs,
        naf: loop_naf(),
        e: &e_digits,
    };
    let crate::lanes::Output::Values(values) = in_lanes(cap, kernel) else {
        unreachable!("Miller powers return values");
    };
    let mut out = Vec::with_capacity(pairs.len());
    let mut values = live.iter().zip(values).peekable();
    for (k, (p, q)) in pairs.iter().enumerate() {
        let lane = values.next_if(|(&at, _)| at == k).and_then(|(_, v)| v);
        out.push(match lane {
            Some(f) => {
                ops::record_miller_loop();
                ops::record_gt_exp();
                MillerValue(f)
            }
            None => miller(p, q).pow(e),
        });
    }
    Some(out)
}

/// The one entry from ordinary code into this crate's lane kernels.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn in_lanes(cap: Ifma, kernel: crate::lanes::Kernel<'_>) -> crate::lanes::Output {
    let _ = cap;
    // SAFETY: the callee's only requirement is the target features it
    // enables, avx512ifma and the avx512f it implies, and `cap` exists
    // only where `Ifma::detect` found both.
    unsafe { crate::lanes::run(kernel) }
}

/// Doubles `t` in place and returns the tangent line.
fn double_step<F: LineForm>(t: &mut Jac, form: &F) -> F::Line {
    if t.z.is_zero() {
        return form.unit();
    }
    // y = 0 cannot occur for points of odd prime order, but guard anyway.
    if t.y.is_zero() {
        t.z = Fp::ZERO;
        return form.unit();
    }
    let xx = t.x.square();
    let yy = t.y.square();
    let yyyy = yy.square();
    let zz = t.z.square();
    // M = 3·X² + Z⁴   (curve a = 1)
    let m = xx.double().add(&xx).add(&zz.square());
    // S = 4·X·Y²
    let s = t.x.mul(&yy).double().double();
    let x3 = m.square().sub(&s.double());
    let y3 = m.mul(&s.sub(&x3)).sub(&yyyy.double().double().double());
    let z3 = t.y.mul(&t.z).double();
    let line = form.tangent(&m, &t.x, &yy, &zz, &z3);
    t.x = x3;
    t.y = y3;
    t.z = z3;
    line
}

/// Adds affine `p` to `t` in place and returns the chord line.
fn add_step<F: LineForm>(t: &mut Jac, p: &Affine, form: &F) -> F::Line {
    if t.z.is_zero() {
        // T = O: "line" through O and P is vertical — value in F_p, skip.
        t.x = p.x;
        t.y = p.y;
        t.z = Fp::ONE;
        return form.unit();
    }
    let zz = t.z.square();
    let u2 = p.x.mul(&zz); // x_P·Z²
    let s2 = p.y.mul(&t.z).mul(&zz); // y_P·Z³
    let h = u2.sub(&t.x); // B
    let r = s2.sub(&t.y); // A
    if h.is_zero() {
        if r.is_zero() {
            // T == P: tangent line (degenerate chord) — double instead.
            return double_step(t, form);
        }
        // T == −P: vertical line, value in F_p → eliminated; result is O.
        t.z = Fp::ZERO;
        return form.unit();
    }
    let hh = h.square();
    let hhh = h.mul(&hh);
    let v = t.x.mul(&hh);
    let x3 = r.square().sub(&hhh).sub(&v.double());
    let y3 = r.mul(&v.sub(&x3)).sub(&t.y.mul(&hhh));
    // Z·B serves both as the new Z coordinate and the line scale factor.
    let zb = t.z.mul(&h);
    let line = form.chord(&r, &zb, p);
    t.x = x3;
    t.y = y3;
    t.z = zb;
    line
}

/// Final exponentiation `f ↦ f^((p²−1)/q) = (f^(p−1))^((p+1)/q)`; `None`
/// for `f = 0`.
///
/// `f^(p−1) = conj(f)·f⁻¹` (Frobenius is conjugation in `F_p²`) lands in the
/// norm-1 cyclotomic subgroup, so the 352-bit hard part runs as a unitary
/// wNAF exponentiation over the cached cofactor schedule — conjugation
/// replaces inversion on negative digits.
fn final_exponentiation(f: &Fp2) -> Option<Gt> {
    let easy = f.conjugate().mul(&f.invert()?);
    Some(Gt::from_fp2(easy.pow_wnaf_unitary(cofactor_naf())))
}

/// The reduction behind the total [`tate_pairing`] entry points, whose
/// arguments are subgroup points by type: a zero Miller value (see
/// [`MillerValue::finalize`]) pairs to `Gt::ONE`, as the identity does.
fn reduce_or_one(f: &Fp2) -> Gt {
    ops::record_final_exp();
    final_exponentiation(f).unwrap_or(Gt::ONE)
}
