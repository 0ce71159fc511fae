//! Pairing work in eight AVX-512 IFMA lanes ([`peace_field::lanes`]):
//!
//! * the per-token work of the revocation check — a
//!   [`MillerLines`](crate::MillerLines) walk at eight points at once, the
//!   product with the shared value, and the Lucas trace test of
//!   [`MillerValue::reduces_to_one`](crate::MillerValue::reduces_to_one);
//! * a few evaluations of two tables side by side, a lane each — a
//!   signature's `R₂` from the group key's `g₂` and `w` tables;
//! * eight Miller loops `f_{q,P}(φ(Q))` at once, each raised to one
//!   exponent — an Open's shared values `f_{q,−T₁}(φ(Q_v))^c̄`;
//! * eight prepared tables at once, their lines scaled in lanes and kept
//!   in lane form — an Open's `û` tables.
//!
//! The loops and tables run one schedule for every lane, which is exact
//! for first arguments of order `q`: a lane that leaves it is reported,
//! and its caller redoes that one on the scalar path.
//!
//! Every function here is a safe `#[target_feature]` function. The one
//! call from code compiled without the feature is the crate's dispatch
//! site (`miller::in_lanes`), made with an
//! [`Ifma`](peace_field::lanes::Ifma) in hand.

use peace_field::lanes::{
    add, canonical, dot, eq, from_fps, from_limbs, invert, is_zero, limbs, mul, mul2, one, pack,
    reduce, select, splat, square2, sub, tidy, to_fps, unpack, zero, Fp8, Limbs, Mask, LANES,
    LIMBS, P2,
};
use peace_field::{cofactor, Fp, Fp2};

use crate::miller::{Step, UnitLine};

/// A lane kernel and its inputs: what the crate's one dispatch site runs.
pub(crate) enum Kernel<'a> {
    /// [`reduces_to_one_at`].
    Sweep {
        steps: &'a [Step],
        table: &'a [LaneLine],
        at: &'a [Option<(Fp, Fp)>],
        shared: &'a Fp2,
    },
    /// [`values_at`].
    Values {
        steps: &'a [Step],
        tables: [&'a [LaneLine]; 2],
        at: &'a [(bool, (Fp, Fp))],
    },
    /// [`miller_powers`].
    MillerPowers {
        ps: &'a [(Fp, Fp)],
        qs: &'a [(Fp, Fp)],
        naf: &'a [i8],
        e: &'a [i8],
    },
    /// [`line_tables`].
    LineTables { ps: &'a [(Fp, Fp)], naf: &'a [i8] },
}

/// What a [`Kernel`] returns.
pub(crate) enum Output {
    Hits(Vec<bool>),
    Values(Vec<Option<Fp2>>),
    /// The steps every table takes, and each table's lines.
    Tables {
        steps: Vec<Step>,
        tables: Vec<Option<Vec<LaneLine>>>,
    },
}

/// Runs `kernel`.
#[target_feature(enable = "avx512ifma")]
pub(crate) fn run(kernel: Kernel<'_>) -> Output {
    match kernel {
        Kernel::Sweep {
            steps,
            table,
            at,
            shared,
        } => Output::Hits(reduces_to_one_at(steps, table, at, shared)),
        Kernel::Values { steps, tables, at } => Output::Values(values_at(steps, tables, at)),
        Kernel::MillerPowers { ps, qs, naf, e } => Output::Values(miller_powers(ps, qs, naf, e)),
        Kernel::LineTables { ps, naf } => {
            let (steps, tables) = line_tables(ps, naf);
            Output::Tables { steps, tables }
        }
    }
}

/// One table line `(c0, c1)` in lane Montgomery form, the same in every
/// lane, kept as plain limbs and broadcast when walked.
pub(crate) type LaneLine = [Limbs; 2];

/// `f ← f·(b + i) = (re·b − im) + (im·b + re)·i`, `b = c0·(1/y) + c1·(x/y)`.
#[target_feature(enable = "avx512ifma")]
fn line(re: &Fp8, im: &Fp8, [c0, c1]: &[Fp8; 2], x_over_y: &Fp8, inv_y: &Fp8) -> (Fp8, Fp8) {
    let b = dot([(c0, inv_y), (c1, x_over_y)]);
    (
        reduce(&sub(&mul(re, &b), im), &P2),
        reduce(&add(&mul(im, &b), re), &P2),
    )
}

/// Two tables of the same steps at eight points, step for step the
/// arithmetic of `eval_at`: a lane in `second` takes `tables[1]`'s lines,
/// the others `tables[0]`'s. A line is broadcast from the table it is
/// stored in, or picked from both broadcasts by the mask, so no table is
/// copied per lane.
#[target_feature(enable = "avx512ifma")]
fn walk(
    steps: &[Step],
    tables: [&[LaneLine]; 2],
    second: Mask,
    x_over_y: &Fp8,
    inv_y: &Fp8,
) -> (Fp8, Fp8) {
    let mut lines = tables[0].iter().zip(tables[1]);
    let (mut re, mut im) = (one(), zero());
    for step in steps {
        if *step != Step::Mul {
            (re, im) = square2(&re, &im);
        }
        if *step != Step::Square {
            let (l0, l1) = lines.next().expect("one lane line per table line");
            let coefficient = |c: usize| match second {
                0 => splat(&l0[c]),
                _ => select(second, &splat(&l1[c]), &splat(&l0[c])),
            };
            (re, im) = line(&re, &im, &[coefficient(0), coefficient(1)], x_over_y, inv_y);
        }
    }
    (re, im)
}

/// `V_c(t)` over the cofactor `c`, the ladder of [`Fp::lucas_v`] with the
/// same steps: the bits of `c` are the same in every lane.
#[target_feature(enable = "avx512ifma")]
fn lucas_v(t: &Fp8, two: &Fp8) -> Fp8 {
    let c = cofactor();
    let top = c.bits() - 1;
    let low = (0..=top).find(|&i| c.bit(i)).unwrap_or(top);
    let (mut lo, mut hi) = (*t, sub(&mul(t, t), two));
    for i in (low + 1..top).rev() {
        let cross = sub(&mul(&lo, &hi), t);
        if c.bit(i) {
            lo = cross;
            hi = sub(&mul(&hi, &hi), two);
        } else {
            hi = cross;
            lo = sub(&mul(&lo, &lo), two);
        }
    }
    if top > low {
        lo = sub(&mul(&lo, &hi), t);
    }
    for _ in 0..low {
        lo = sub(&mul(&lo, &lo), two);
    }
    lo
}

/// Lines in lane form: each coefficient `c` as the limbs of `c·R mod p`.
/// Scalar code, so the table is built, and its memory taken, where the
/// scalar one is, by the thread that owns both.
pub(crate) fn lane_lines(lines: &[UnitLine]) -> Vec<LaneLine> {
    lines.iter().map(|l| [limbs(&l.c0), limbs(&l.c1)]).collect()
}

/// The inverse of [`lane_lines`].
pub(crate) fn unit_lines(lines: &[LaneLine]) -> Vec<UnitLine> {
    lines
        .iter()
        .map(|[c0, c1]| UnitLine {
            c0: from_limbs(c0),
            c1: from_limbs(c1),
        })
        .collect()
}

/// `f·shared` for the table's value `f` at each point of one group, the
/// identity's value being 1.
#[target_feature(enable = "avx512ifma")]
fn group_values(
    steps: &[Step],
    table: &[LaneLine],
    group: &[Option<(Fp, Fp)>],
    shared: &(Fp8, Fp8),
) -> (Fp8, Fp8) {
    let (mut x_over_y, mut inv_y) = ([Fp::ZERO; LANES], [Fp::ZERO; LANES]);
    let mut live: Mask = 0;
    for (k, at) in group.iter().enumerate() {
        if let Some((x, y)) = at {
            (x_over_y[k], inv_y[k]) = (*x, *y);
            live |= 1 << k;
        }
    }
    let (re, im) = walk(
        steps,
        [table; 2],
        0,
        &from_fps(&x_over_y),
        &from_fps(&inv_y),
    );
    let value = (select(live, &re, &one()), select(live, &im, &zero()));
    mul2(&value, shared)
}

/// The value at `P` of `tables[1]` where the flag is set and of
/// `tables[0]` where it is not, for each `(flag, P)` of `at`, `P` given as
/// `(x/y, 1/y)`: eight evaluations per walk, the last group padded with its
/// first. Every slot is `Some`: a walk at a point cannot leave its shape.
#[target_feature(enable = "avx512ifma")]
fn values_at(
    steps: &[Step],
    tables: [&[LaneLine]; 2],
    at: &[(bool, (Fp, Fp))],
) -> Vec<Option<Fp2>> {
    let mut out = Vec::with_capacity(at.len());
    for group in at.chunks(LANES) {
        let (_, first) = group[0];
        let (mut x_over_y, mut inv_y) = ([first.0; LANES], [first.1; LANES]);
        let mut second: Mask = 0;
        for (k, &(flag, (x, y))) in group.iter().enumerate() {
            (x_over_y[k], inv_y[k]) = (x, y);
            second |= Mask::from(flag) << k;
        }
        let (re, im) = walk(
            steps,
            tables,
            second,
            &from_fps(&x_over_y),
            &from_fps(&inv_y),
        );
        let (re, im) = (to_fps(&re), to_fps(&im));
        out.extend((0..group.len()).map(|k| Some(Fp2::new(re[k], im[k]))));
    }
    out
}

/// What `reduces_to_one` says of `eval_at(p)·shared` for each point `p`:
/// the walk, the product and `a² ± b²` in lanes, one scalar batch inversion
/// of the norms, then `t = 2(a² − b²)/(a² + b²)` and `V_c(t) = 2` in lanes.
/// The last group is padded with the identity. `table` is
/// [`lane_lines`] of `steps`.
#[target_feature(enable = "avx512ifma")]
fn reduces_to_one_at(
    steps: &[Step],
    table: &[LaneLine],
    at: &[Option<(Fp, Fp)>],
    shared: &Fp2,
) -> Vec<bool> {
    let two = canonical(&add(&one(), &one()));
    let shared = (from_fps(&[shared.c0; LANES]), from_fps(&[shared.c1; LANES]));

    // Held as plain limbs, like the table's lines: a `Vec<Fp8>` is a
    // 64-byte-aligned allocation, and one per sweep on a long-lived thread
    // fragments its malloc arena (EXPERIMENTS.md E3).
    let mut diffs = Vec::with_capacity(at.len().div_ceil(LANES));
    let mut norms = Vec::with_capacity(at.len());
    for group in at.chunks(LANES) {
        let (a, b) = group_values(steps, table, group, &shared);
        let (aa, bb) = (mul(&a, &a), mul(&b, &b));
        norms.extend_from_slice(&to_fps(&add(&aa, &bb))[..group.len()]);
        diffs.push(unpack(&sub(&aa, &bb)));
    }
    Fp::batch_invert(&mut norms);

    let mut hits = Vec::with_capacity(at.len());
    for (diff, norm_inv) in diffs.iter().zip(norms.chunks(LANES)) {
        let diff = pack(diff);
        let t = mul(&add(&diff, &diff), &from_fps(norm_inv));
        let one_mask = eq(&canonical(&lucas_v(&t, &two)), &two);
        hits.extend(
            norm_inv
                .iter()
                .enumerate()
                .map(|(k, n)| one_mask >> k & 1 == 1 && !n.is_zero()),
        );
    }
    hits
}

/// A Jacobian point `(X : Y : Z)` in each lane, every coordinate below `2p`.
struct Jac8 {
    x: Fp8,
    y: Fp8,
    z: Fp8,
}

/// A line as the prepared loop keeps it, `(c₀ + c₁·x_Q) + (c₂·y_Q)·i`:
/// `c₀ < 6p`, `c₁ < 4p`, `c₂ < 2p`.
type Coefficients = [Fp8; 3];

/// The miller module's `double_step` where `T` is not `O` and `y ≠ 0`:
/// doubles `t` and returns the tangent, and the lanes where `2T = O`
/// after all (`Z₃ ≡ 0`), whose results are void.
#[target_feature(enable = "avx512ifma")]
fn double_step(t: &mut Jac8) -> (Coefficients, Mask) {
    let xx = mul(&t.x, &t.x);
    let yy = mul(&t.y, &t.y);
    let zz = mul(&t.z, &t.z);
    // M = 3·X² + Z⁴, below 8p.
    let m = add(&add(&add(&xx, &xx), &xx), &mul(&zz, &zz));
    // S = 4·X·Y², and 8·Y⁴ as Y²·8Y².
    let x2 = add(&t.x, &t.x);
    let s = mul(&add(&x2, &x2), &yy);
    let yy2 = add(&yy, &yy);
    let yy4 = add(&yy2, &yy2);
    let yyyy8 = mul(&yy, &add(&yy4, &yy4));
    let x3 = tidy(&sub(&sub(&mul(&m, &m), &s), &s));
    let y3 = reduce(&sub(&mul(&m, &sub(&s, &x3)), &yyyy8), &P2);
    let z3 = mul(&add(&t.y, &t.y), &t.z);
    let line = [
        sub(&sub(&mul(&m, &t.x), &yy), &yy),
        mul(&m, &zz),
        mul(&z3, &zz),
    ];
    let degenerate = is_zero(&z3);
    *t = Jac8 {
        x: x3,
        y: y3,
        z: z3,
    };
    (line, degenerate)
}

/// The miller module's `add_step` of affine `(px, py)` where `T ≠ ±P`:
/// adds it to `t` and returns the chord, and the lanes where `T = ±P`
/// after all (`H ≡ 0`), whose results are void.
#[target_feature(enable = "avx512ifma")]
fn add_step(t: &mut Jac8, px: &Fp8, py: &Fp8) -> (Coefficients, Mask) {
    let zz = mul(&t.z, &t.z);
    let u2 = mul(px, &zz);
    let s2 = mul(&mul(py, &t.z), &zz);
    let h = sub(&u2, &t.x);
    let r = sub(&s2, &t.y);
    let hh = mul(&h, &h);
    let hhh = mul(&h, &hh);
    let v = mul(&t.x, &hh);
    let x3 = tidy(&sub(&sub(&sub(&mul(&r, &r), &hhh), &v), &v));
    let y3 = reduce(&sub(&mul(&r, &sub(&v, &x3)), &mul(&t.y, &hhh)), &P2);
    let zb = mul(&t.z, &h);
    let line = [sub(&mul(&r, px), &mul(&zb, py)), r, zb];
    let degenerate = is_zero(&h);
    *t = Jac8 {
        x: x3,
        y: y3,
        z: zb,
    };
    (line, degenerate)
}

/// Eight `(x, y)` in lane form, the group padded with its first point so
/// every lane stays regular.
#[target_feature(enable = "avx512ifma")]
fn coords(xs: &[(Fp, Fp)]) -> (Fp8, Fp8) {
    let all: [(Fp, Fp); LANES] = core::array::from_fn(|k| *xs.get(k).unwrap_or(&xs[0]));
    (from_fps(&all.map(|c| c.0)), from_fps(&all.map(|c| c.1)))
}

/// The prepared loop over eight `P = (px, py)`: hands each line to
/// `line(doubling, coefficients)` in step order, and returns the lanes
/// that left the shape every `P` of order `q` has (see [`miller_powers`]):
/// `T = O` before the end, `T = ±P` at an addition but the last, or no
/// vertical line at the last.
#[target_feature(enable = "avx512ifma")]
fn walk_lines(px: &Fp8, py: &Fp8, naf: &[i8], mut line: impl FnMut(bool, &Coefficients)) -> Mask {
    let neg_py = reduce(&sub(&zero(), py), &P2);
    let mut t = Jac8 {
        x: *px,
        y: *py,
        z: one(),
    };
    let mut void: Mask = 0;
    for (i, &d) in naf[..naf.len() - 1].iter().enumerate().rev() {
        let (l, at_infinity) = double_step(&mut t);
        void |= at_infinity;
        line(true, &l);
        if d != 0 {
            let (l, vertical) = add_step(&mut t, px, if d == 1 { py } else { &neg_py });
            if i == 0 {
                void |= !vertical;
            } else {
                void |= vertical;
                line(false, &l);
            }
        }
    }
    void
}

/// Lines a [`line_tables`] segment scales with one inversion: a table's
/// 212 in two segments.
const SEGMENT: usize = 108;

/// The [`MillerLines`](crate::MillerLines) table of each `P` of order
/// `q`, eight at once, with the steps they all take: the loop of
/// [`walk_lines`], and every line scaled to unit imaginary part,
/// `(c₀/c₂, c₁/c₂)`, with one lane inversion per [`SEGMENT`] lines. That
/// is Montgomery's trick, run forward as the products `cᵢ·Π` with `Π` the
/// product of the segment's earlier `c₂`, which wait in the tables' own
/// slots, so the backward pass holds only the `c₂`. `None` for a `P` off
/// the shape, which its caller prepares on the scalar path.
#[target_feature(enable = "avx512ifma")]
fn line_tables(ps: &[(Fp, Fp)], naf: &[i8]) -> (Vec<Step>, Vec<Option<Vec<LaneLine>>>) {
    let count: usize = naf[..naf.len() - 1]
        .iter()
        .enumerate()
        .map(|(i, &d)| 1 + usize::from(d != 0 && i != 0))
        .sum();
    let mut steps = Vec::with_capacity(count);
    let mut out = Vec::with_capacity(ps.len());
    // Each segment's c₂, as plain limbs (see `reduces_to_one_at`).
    let mut scales: Vec<[Limbs; LANES]> = Vec::with_capacity(SEGMENT);
    for (g, group) in ps.chunks(LANES).enumerate() {
        let (px, py) = coords(group);
        let mut tables = vec![vec![[[0; LIMBS]; 2]; count]; group.len()];
        let mut prefix = one();
        let mut done = 0;
        let void = walk_lines(&px, &py, naf, |doubling, [c0, c1, c2]| {
            if g == 0 {
                steps.push(if doubling { Step::SquareMul } else { Step::Mul });
            }
            let slot = done + scales.len();
            let (a0, a1) = (unpack(&mul(c0, &prefix)), unpack(&mul(c1, &prefix)));
            for ((table, a0), a1) in tables.iter_mut().zip(a0).zip(a1) {
                table[slot] = [a0, a1];
            }
            scales.push(unpack(c2));
            prefix = mul(&prefix, c2);
            if scales.len() == SEGMENT {
                scale_segment(&mut tables, &mut scales, &mut prefix, &mut done);
            }
        });
        if !scales.is_empty() {
            scale_segment(&mut tables, &mut scales, &mut prefix, &mut done);
        }
        out.extend(
            tables
                .into_iter()
                .enumerate()
                .map(|(k, table)| (void >> k & 1 == 0).then_some(table)),
        );
    }
    (steps, out)
}

/// The backward pass of one [`line_tables`] segment, whose lines start at
/// `done`: each slot's `cᵢ·Π` becomes `cᵢ/c₂` in canonical lane form.
#[target_feature(enable = "avx512ifma")]
fn scale_segment(
    tables: &mut [Vec<LaneLine>],
    scales: &mut Vec<[Limbs; LANES]>,
    prefix: &mut Fp8,
    done: &mut usize,
) {
    let mut inv = invert(prefix);
    for (j, c2) in scales.iter().enumerate().rev() {
        let slot = *done + j;
        for c in 0..2 {
            let mut held = [[0; LIMBS]; LANES];
            for (h, table) in held.iter_mut().zip(tables.iter()) {
                *h = table[slot][c];
            }
            let scaled = unpack(&canonical(&mul(&pack(&held), &inv)));
            for (table, line) in tables.iter_mut().zip(scaled) {
                table[slot][c] = line;
            }
        }
        inv = mul(&inv, &pack(c2));
    }
    *done += scales.len();
    scales.clear();
    *prefix = one();
}

/// `f ← f·l` for the line at `φ(Q)`, `l = (c₀ + c₁·x_Q) + (c₂·y_Q)·i`.
#[target_feature(enable = "avx512ifma")]
fn times_line(f: &(Fp8, Fp8), l: &Coefficients, qx: &Fp8, qy: &Fp8) -> (Fp8, Fp8) {
    let at = (add(&l[0], &mul(&l[1], qx)), mul(&l[2], qy));
    let (re, im) = mul2(f, &at);
    (reduce(&re, &P2), reduce(&im, &P2))
}

/// `x^e` of a unitary-or-not `F_p²` value by the signed digits `e` (least
/// significant first) of [`MillerValue::pow`](crate::MillerValue::pow):
/// a negative digit multiplies by a conjugate.
#[target_feature(enable = "avx512ifma")]
fn pow2(x: &(Fp8, Fp8), e: &[i8]) -> (Fp8, Fp8) {
    let times = |a: &(Fp8, Fp8), b: &(Fp8, Fp8)| {
        let (re, im) = mul2(a, b);
        (reduce(&re, &P2), reduce(&im, &P2))
    };
    let x2 = square2(&x.0, &x.1);
    let mut odd = [*x; 8];
    for i in 1..8 {
        odd[i] = times(&odd[i - 1], &x2);
    }
    let mut acc = (one(), zero());
    for &d in e.iter().rev() {
        acc = square2(&acc.0, &acc.1);
        if d > 0 {
            acc = times(&acc, &odd[(d >> 1) as usize]);
        } else if d < 0 {
            let (re, im) = odd[((-d) >> 1) as usize];
            acc = times(&acc, &(re, reduce(&sub(&zero(), &im), &P2)));
        }
    }
    acc
}

/// `f_{q,P}(φ(Q))^e` for each `(P, Q)`, eight Miller loops at once: the
/// schedule `naf` of `q` (least significant digit first, top digit 1) is
/// the same in every lane, and for `P` of order `q` so is the shape of
/// every step — the last addition is the vertical line through `−P` and
/// `P`, whose value lies in `F_p` and is dropped. `None` for a `P` that
/// leaves that shape, which its caller recomputes on the scalar path.
#[target_feature(enable = "avx512ifma")]
fn miller_powers(ps: &[(Fp, Fp)], qs: &[(Fp, Fp)], naf: &[i8], e: &[i8]) -> Vec<Option<Fp2>> {
    let mut out = Vec::with_capacity(ps.len());
    for (group, qs) in ps.chunks(LANES).zip(qs.chunks(LANES)) {
        let ((px, py), (qx, qy)) = (coords(group), coords(qs));
        let mut f = (one(), zero());
        let void = walk_lines(&px, &py, naf, |doubling, l| {
            if doubling {
                f = square2(&f.0, &f.1);
            }
            f = times_line(&f, l, &qx, &qy);
        });
        let (re, im) = pow2(&f, e);
        let (re, im) = (to_fps(&re), to_fps(&im));
        out.extend((0..group.len()).map(|k| (void >> k & 1 == 0).then(|| Fp2::new(re[k], im[k]))));
    }
    out
}
