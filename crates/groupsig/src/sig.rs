//! Sign / verify / revocation-check / open for the PEACE group signature
//! (paper §IV.B steps 2.2 and 3.2–3.3, §IV.D audit protocol).

use core::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use peace_curve::{psi, AffinePoint, G1Wire, G2Preimage, PointError, ProjectivePoint, G1, G2};
use peace_field::{Fp, Fq};
use peace_pairing::{
    miller, ops, pairing, pairing_pair, pairing_product, pairing_ratio, G2Arg, Gt, GtPowTable,
    MillerLines, MillerValue, OpSnapshot,
};
use peace_wire::{Decode, Encode, Reader, Writer};
use rand::RngCore;

use crate::keys::{GroupPublicKey, MemberKey, RevocationToken};

/// How the per-signature bases `(û, v̂)` are derived.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BasesMode {
    /// Paper default (Eq.1): `(û, v̂) ← H₀(gpk, msg, r)` — fresh bases per
    /// signature, full unlinkability, revocation check is `O(|URL|)`
    /// pairings.
    #[default]
    PerMessage,
    /// BS04's speed-up mentioned in §V.C: fixed system-wide bases
    /// `(û, v̂) ← H₀(gpk)`, enabling a precomputed revocation table with
    /// `O(1)` pairings per check "with a little bit sacrifice on user
    /// privacy": signatures by one key share `ê(A, û)`, which anyone
    /// holding gpk computes from a signature, so *every* member's sessions
    /// link within an epoch — revoked or not (BS04's caveat for fixed
    /// bases); the table only adds identification of listed keys.
    FixedBases,
}

/// The group signature
/// `SIG = (r, T₁, T₂, c, s_α, s_x, s_δ)` (paper step 2.2.4).
///
/// `T₁` and `T₂` are held as their encodings ([`G1Wire`]): a signature that
/// is stored, forwarded, hashed or compared costs no curve arithmetic, and
/// every function here that computes with them goes through
/// [`Self::commitments`], which validates them once per signature value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GroupSignature {
    /// Freshness scalar `r` mixed into the H₀ bases.
    pub r: Fq,
    /// `T₁ = u^α`.
    pub t1: G1Wire,
    /// `T₂ = A·v^α`.
    pub t2: G1Wire,
    /// Fiat–Shamir challenge `c`.
    pub c: Fq,
    /// Response `s_α = r_α + c·α`.
    pub s_alpha: Fq,
    /// Response `s_x = r_x + c·(grp + x)`.
    pub s_x: Fq,
    /// Response `s_δ = r_δ + c·δ`.
    pub s_delta: Fq,
}

impl GroupSignature {
    /// Encoded size: 2 𝔾₁ elements (65 B compressed) + 5 ℤ_q scalars (20 B).
    pub const ENCODED_LEN: usize = 2 * G1::ENCODED_LEN + 5 * 20;

    /// Canonical encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_wire()
    }

    /// `(T₁, T₂)` as group elements — decompressed and subgroup-checked the
    /// first time this is called on a signature (or a clone of it), looked
    /// up afterwards.
    ///
    /// # Errors
    ///
    /// [`PointError`] if either encoding names no element of 𝔾₁.
    pub fn commitments(&self) -> Result<(G1, G1), PointError> {
        Ok((self.t1.decompress()?, self.t2.decompress()?))
    }

    /// Readies [`Self::commitments`] of every signature at once: the `T₁`s
    /// in one batch ([`G1Wire::decompress_all`]), then the `T₂`s of the
    /// signatures whose `T₁` is a group element, as `commitments` stops at
    /// the first failure. Each later call is a lookup that answers, and
    /// was counted, as it would have computed.
    pub fn decompress_all(sigs: &[&GroupSignature]) {
        G1Wire::decompress_all(&sigs.iter().map(|sig| &sig.t1).collect::<Vec<_>>());
        let t2s: Vec<&G1Wire> = sigs
            .iter()
            .filter(|sig| sig.t1.decompress().is_ok())
            .map(|sig| &sig.t2)
            .collect();
        G1Wire::decompress_all(&t2s);
    }
}

impl Encode for GroupSignature {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(&self.r.to_canonical_bytes());
        w.put_fixed(self.t1.as_bytes());
        w.put_fixed(self.t2.as_bytes());
        w.put_fixed(&self.c.to_canonical_bytes());
        w.put_fixed(&self.s_alpha.to_canonical_bytes());
        w.put_fixed(&self.s_x.to_canonical_bytes());
        w.put_fixed(&self.s_delta.to_canonical_bytes());
    }
}

impl Decode for GroupSignature {
    fn decode(rd: &mut Reader<'_>) -> peace_wire::Result<Self> {
        let inv = peace_wire::WireError::Invalid("group signature");
        let r = Fq::from_canonical_bytes(rd.get_fixed(20)?).ok_or(inv)?;
        let t1 = G1Wire::parse(rd.get_fixed(G1::ENCODED_LEN)?).ok_or(inv)?;
        let t2 = G1Wire::parse(rd.get_fixed(G1::ENCODED_LEN)?).ok_or(inv)?;
        let c = Fq::from_canonical_bytes(rd.get_fixed(20)?).ok_or(inv)?;
        let s_alpha = Fq::from_canonical_bytes(rd.get_fixed(20)?).ok_or(inv)?;
        let s_x = Fq::from_canonical_bytes(rd.get_fixed(20)?).ok_or(inv)?;
        let s_delta = Fq::from_canonical_bytes(rd.get_fixed(20)?).ok_or(inv)?;
        Ok(Self {
            r,
            t1,
            t2,
            c,
            s_alpha,
            s_x,
            s_delta,
        })
    }
}

/// Verification failure reasons.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The Fiat–Shamir challenge did not match (forged/corrupted signature).
    BadChallenge,
    /// `T₁` or `T₂` is the identity, or pairs to an undefined value
    /// (degenerate, never produced by `sign`).
    DegenerateCommitment,
    /// `T₁` or `T₂` is canonically encoded but names no element of 𝔾₁
    /// (off the curve, or outside the subgroup).
    InvalidPoint(PointError),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BadChallenge => write!(f, "group signature challenge mismatch"),
            VerifyError::DegenerateCommitment => write!(f, "degenerate signature commitment"),
            VerifyError::InvalidPoint(e) => write!(f, "signature commitment invalid: {e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Derives the bases `(û, v̂) ∈ 𝔾₂²` per Eq.1 (or the fixed variant): what
/// a signer uses, since `T₂ = A·v^α` needs `v` as a point. Both bases in
/// one batch ([`peace_curve::hash_to_g2_many`]): one square-root chain and
/// one cofactor ladder for the two, where the CPU has IFMA lanes.
pub fn h0_bases(gpk: &GroupPublicKey, msg: &[u8], r: &Fq, mode: BasesMode) -> (G2, G2) {
    let input = h0_input(gpk, msg, r, mode);
    let (bases, _) = peace_curve::hash_to_g2_many(&[(H0_U, &input), (H0_V, &input)], &[]);
    (bases[0], bases[1])
}

/// The same bases as a verifier takes them: `û` as the 𝔾₂ point (`R₁`,
/// `R₃` and the sweep's line table use it as one) and `v̂` as its H₀
/// pre-image, whose cofactor is never cleared — every verifier path uses
/// `v̂` only as a pairing's second argument, where the cofactor rides in an
/// exponent ([`G2Preimage`]). One cofactor ladder instead of two, and the
/// two square roots in one batch, as in [`h0_bases`].
pub fn h0_verify_bases(
    gpk: &GroupPublicKey,
    msg: &[u8],
    r: &Fq,
    mode: BasesMode,
) -> (G2, G2Preimage) {
    let input = h0_input(gpk, msg, r, mode);
    let (u_hat, v_pre) = peace_curve::hash_to_g2_many(&[(H0_U, &input)], &[(H0_V, &input)]);
    (u_hat[0], v_pre[0])
}

/// H₀'s domain labels for `û` and `v̂`.
const H0_U: &[u8] = b"peace-H0-u";
const H0_V: &[u8] = b"peace-H0-v";

/// H₀'s input: `gpk`, and `(msg, r)` for per-message bases.
fn h0_input(gpk: &GroupPublicKey, msg: &[u8], r: &Fq, mode: BasesMode) -> Vec<u8> {
    let mut input = gpk.to_bytes();
    if mode == BasesMode::PerMessage {
        input.extend_from_slice(msg);
        input.extend_from_slice(&r.to_canonical_bytes());
    }
    input
}

/// The challenge hash `H : … → ℤ_q` (paper step 2.2.3).
#[allow(clippy::too_many_arguments)]
fn challenge(
    gpk: &GroupPublicKey,
    msg: &[u8],
    r: &Fq,
    t1: &G1Wire,
    t2: &G1Wire,
    r1: &G1,
    r2: &Gt,
    r3: &G1,
) -> Fq {
    let mut w = Writer::with_capacity(1024);
    w.put_bytes(&gpk.to_bytes());
    w.put_bytes(msg);
    w.put_fixed(&r.to_canonical_bytes());
    w.put_fixed(t1.as_bytes());
    w.put_fixed(t2.as_bytes());
    w.put_fixed(&r1.to_bytes());
    w.put_fixed(&r2.to_bytes());
    w.put_fixed(&r3.to_bytes());
    Fq::from_wide_bytes(&peace_hash::xof(b"peace-H-challenge", w.as_bytes(), 40))
}

/// Signs `msg` under `gsk` (paper steps 2.2.1–2.2.4).
pub fn sign(
    gpk: &GroupPublicKey,
    gsk: &MemberKey,
    msg: &[u8],
    mode: BasesMode,
    rng: &mut impl RngCore,
) -> GroupSignature {
    let r = Fq::random(rng);
    let (u_hat, v_hat) = h0_bases(gpk, msg, &r, mode);
    let u = psi(&u_hat);
    let v = psi(&v_hat);

    // 2.2.2
    let alpha = Fq::random(rng);
    let t1 = u.mul(&alpha);
    let t2 = gsk.a.add(&v.mul(&alpha));
    let x_eff = gsk.exponent();
    let delta = x_eff.mul(&alpha);
    let r_alpha = Fq::random(rng);
    let r_x = Fq::random(rng);
    let r_delta = Fq::random(rng);

    // 2.2.3 helper values. Pairings are merged as in BS04's accounting
    // ("about 8 exponentiations and 2 bilinear map computations"):
    //   ê(v,w)^{−r_α} · ê(v,g₂)^{−r_δ} = ê(v, w^{r_α}·g₂^{r_δ})⁻¹
    // and the two evaluations share one batched reduction.
    let r1 = u.mul(&r_alpha);
    let merged = gpk.w.mul_mul(&r_alpha, &gpk.g2, &r_delta);
    let (e_t2_g2, e_v_merged) = pairing_pair(&t2, &gpk.g2, &v, &merged);
    let r2 = e_t2_g2.pow(&r_x).mul(&e_v_merged.invert());
    let r3 = t1.mul_mul(&r_x, &u, &r_delta.neg());
    let (t1, t2) = (G1Wire::from(t1), G1Wire::from(t2));
    let c = challenge(gpk, msg, &r, &t1, &t2, &r1, &r2, &r3);

    // 2.2.4 responses
    GroupSignature {
        r,
        t1,
        t2,
        c,
        s_alpha: r_alpha.add(&c.mul(&alpha)),
        s_x: r_x.add(&c.mul(&x_eff)),
        s_delta: r_delta.add(&c.mul(&delta)),
    }
}

/// A group public key prepared for the hot path: the key members `g₂`
/// and `w` as Miller-line tables ([`MillerLines`]), and the
/// system-constant pairing `ê(g₁, g₂)` with a fixed-base power table in
/// `𝔾_T`.
///
/// Every bilinear map of a signature's `R₂`, and both of a member key's
/// SDH check, has `g₂` or `w` in one slot. `ψ` is the identity on this
/// Type-1 pairing, so `ê(P, g₂) = ê(g₂, P)`: the key member goes first,
/// its double/add schedule is stored once per epoch, and a pairing with it
/// is one evaluation of the table at `P` — no point arithmetic. `R₂` is
/// written by bilinearity as a product of powers of such evaluations and
/// reduced once ([`MillerValue::reduce_powers`]).
///
/// One table set (≈ 142 KB: the 77 KB `𝔾_T` table and two ≈ 33 KB line
/// tables, ≈ 1.2 ms to build; ≈ 210 KB once a signature has walked the
/// line tables in lanes, each adding its ≈ 34 KB lane form) serves every
/// signer and verifier of a gpk epoch in a process: whoever mints the key
/// builds it once and hands out `Arc<PreparedGpk>` clones. It is
/// deliberately not `Clone` — a second copy of the tables is never what a
/// caller wants.
#[derive(Debug)]
pub struct PreparedGpk {
    gpk: GroupPublicKey,
    e_g1_g2_table: GtPowTable,
    g2_lines: MillerLines,
    w_lines: MillerLines,
}

impl PreparedGpk {
    /// Prepares `g₂` and `w` and tabulates `ê(g₁, g₂)` (one-time cost per
    /// gpk).
    pub fn new(gpk: &GroupPublicKey) -> Self {
        let g2_lines = MillerLines::new(&psi(&gpk.g2));
        let e_g1_g2 = pairing_with(&g2_lines, &gpk.g1);
        Self {
            gpk: *gpk,
            e_g1_g2_table: GtPowTable::new(&e_g1_g2, Fq::NUM_BITS),
            g2_lines,
            w_lines: MillerLines::new(&psi(&gpk.w)),
        }
    }

    /// The underlying public key.
    pub fn gpk(&self) -> &GroupPublicKey {
        &self.gpk
    }

    /// `ê(P, g₂)` and `ê(P, w)` unreduced for each `P` given as its
    /// `(x/y, 1/y)` ([`xy_ratios`]): one evaluation of each table per
    /// point, all of them side by side ([`MillerLines::eval_many`]).
    fn key_values(&self, at: &[Option<(Fp, Fp)>]) -> Vec<(MillerValue, MillerValue)> {
        let evals: Vec<(&MillerLines, Option<&(Fp, Fp)>)> = at
            .iter()
            .flat_map(|p| [(&self.g2_lines, p.as_ref()), (&self.w_lines, p.as_ref())])
            .collect();
        MillerLines::eval_many(&evals)
            .chunks(2)
            .map(|pair| (pair[0], pair[1]))
            .collect()
    }

    /// Checks the SDH relation `ê(A, w)·ê(A, g₂)^(grp+x) = ê(g₁, g₂)` of a
    /// freshly assembled member key (what [`MemberKey::is_valid_for`]
    /// checks) and, if it holds, returns `ê(A, g₂)` — the one value of a
    /// signature's `R₂` that depends on the signer alone, which
    /// [`Self::sign_as`] takes instead of a pairing per signature. Two
    /// table evaluations at `A` reduced together, and one `𝔾_T` power.
    ///
    /// The value identifies the member exactly as `A` does; whoever keeps
    /// it keeps it as secret as the key.
    pub fn member_pairing(&self, gsk: &MemberKey) -> Option<Gt> {
        ops::record_pairing();
        ops::record_pairing();
        let (a_g2, a_w) = self.key_values(&xy_ratios(&[gsk.a.point()]))[0];
        let reduced = MillerValue::finalize_batch(&[a_g2, a_w]);
        let (e_a_g2, e_a_w) = (reduced[0]?, reduced[1]?);
        let lhs = e_a_w.mul(&e_a_g2.pow(&gsk.exponent()));
        (lhs == self.e_g1_g2_table.base()).then_some(e_a_g2)
    }

    /// Signs `msg` under `gsk`, paying for `ê(A, g₂)` here (one table
    /// evaluation and its reduction): what a caller without the value from
    /// [`Self::member_pairing`] uses. Two bilinear maps, as the paper
    /// counts them.
    ///
    /// Draws from `rng` in exactly the same order as the free-standing
    /// [`sign`] and computes identical values, so the produced signature is
    /// byte-for-byte the same for the same RNG state (the golden-vector
    /// test pins this).
    pub fn sign(
        &self,
        gsk: &MemberKey,
        msg: &[u8],
        mode: BasesMode,
        rng: &mut impl RngCore,
    ) -> GroupSignature {
        self.sign_as(gsk, &pairing_with(&self.g2_lines, &gsk.a), msg, mode, rng)
    }

    /// Signs `msg` under `gsk`, given `e_a_g2 = ê(A, g₂)` for that key
    /// ([`Self::member_pairing`]; any other value yields a signature that
    /// does not verify). The signature is the one [`sign`] produces, by
    /// three identities the signer alone can use, knowing `α`:
    ///
    /// * `T₂ = A·v^α`, so `ê(T₂, g₂)^{r_x} = ê(A, g₂)^{r_x}·ê(v, g₂)^{α·r_x}`
    ///   and `R₂ = ê(A, g₂)^{r_x} · ê(g₂, v)^{e} · ê(w, v)^{−r_α}` with
    ///   `e = α·r_x − r_δ` — one bilinear map on the books, paid as two
    ///   table evaluations at `v` and one reduction, not two pairings;
    /// * `T₁ = u^α`, so `R₃ = T₁^{r_x}·u^{−r_δ} = u^{α·r_x − r_δ}` — one
    ///   exponentiation, not a double one;
    /// * `T₁`, `R₁ = u^{r_α}` and `R₃` are then three powers of `u`, and
    ///   share its doubling chain ([`G1::mul_many`]).
    pub fn sign_as(
        &self,
        gsk: &MemberKey,
        e_a_g2: &Gt,
        msg: &[u8],
        mode: BasesMode,
        rng: &mut impl RngCore,
    ) -> GroupSignature {
        let r = Fq::random(rng);
        let (u_hat, v_hat) = h0_bases(&self.gpk, msg, &r, mode);
        let u = psi(&u_hat);
        let v = psi(&v_hat);

        // 2.2.2
        let alpha = Fq::random(rng);
        let x_eff = gsk.exponent();
        let delta = x_eff.mul(&alpha);
        let r_alpha = Fq::random(rng);
        let r_x = Fq::random(rng);
        let r_delta = Fq::random(rng);

        // 2.2.2–2.2.3, with every exponent of u and of ê(v, ·) collected.
        let e = alpha.mul(&r_x).sub(&r_delta);
        let powers = u.mul_many(&[alpha, r_alpha, e]);
        let (t1, r1, r3) = (powers[0], powers[1], powers[2]);
        let t2 = gsk.a.add(&v.mul(&alpha));
        ops::record_pairing();
        let (g2_v, w_v) = self.key_values(&xy_ratios(&[v.point()]))[0];
        // v is a subgroup point, so no value is zero (see `pairing_with`).
        let r2 = MillerValue::reduce_powers(&[(g2_v, e, false), (w_v, r_alpha, true)])
            .unwrap_or(Gt::ONE);
        let r2 = e_a_g2.pow(&r_x).mul(&r2);
        let (t1, t2) = (G1Wire::from(t1), G1Wire::from(t2));
        let c = challenge(&self.gpk, msg, &r, &t1, &t2, &r1, &r2, &r3);

        // 2.2.4 responses
        GroupSignature {
            r,
            t1,
            t2,
            c,
            s_alpha: r_alpha.add(&c.mul(&alpha)),
            s_x: r_x.add(&c.mul(&x_eff)),
            s_delta: r_delta.add(&c.mul(&delta)),
        }
    }

    /// Verifies a signature with `R₂` from the key members' line tables
    /// and the cached constant pairing: 2 bilinear maps instead of 3, four
    /// table evaluations and one reduction for `R₂`.
    ///
    /// # Errors
    ///
    /// Same contract as [`verify`].
    pub fn verify(
        &self,
        msg: &[u8],
        sig: &GroupSignature,
        mode: BasesMode,
    ) -> Result<(), VerifyError> {
        let (u_hat, v_pre) = h0_verify_bases(&self.gpk, msg, &sig.r, mode);
        self.verify_with_bases(msg, sig, &u_hat, &v_pre)
    }

    /// Verification + revocation check with one shared `(û, v̂)` derivation
    /// ([`h0_verify_bases`]) feeding both the Σ-protocol check and the
    /// shared-Miller revocation sweep.
    ///
    /// Returns `Ok(None)` if the signature is valid and unrevoked,
    /// `Ok(Some(i))` if valid but matching URL token `i`.
    ///
    /// # Errors
    ///
    /// [`VerifyError`] if the signature is invalid (the URL is not consulted
    /// in that case).
    pub fn verify_and_check(
        &self,
        msg: &[u8],
        sig: &GroupSignature,
        url: &[RevocationToken],
        mode: BasesMode,
    ) -> Result<Option<usize>, VerifyError> {
        let (u_hat, v_pre) = h0_verify_bases(&self.gpk, msg, &sig.r, mode);
        self.verify_with_bases(msg, sig, &u_hat, &v_pre)?;
        Ok(revocation_sweep(sig, url, &u_hat, &v_pre))
    }

    /// Σ-protocol verification that **returns the derived H₀ bases**
    /// ([`h0_verify_bases`]) on success, so a staged revocation pipeline
    /// (cache → sweep; see `peace-revoke`) can reuse them without hashing
    /// again, as [`Self::verify_and_check`] does internally.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::verify`].
    pub fn verify_bases(
        &self,
        msg: &[u8],
        sig: &GroupSignature,
        mode: BasesMode,
    ) -> Result<(G2, G2Preimage), VerifyError> {
        let (u_hat, v_pre) = h0_verify_bases(&self.gpk, msg, &sig.r, mode);
        self.verify_with_bases(msg, sig, &u_hat, &v_pre)?;
        Ok((u_hat, v_pre))
    }

    fn verify_with_bases(
        &self,
        msg: &[u8],
        sig: &GroupSignature,
        u_hat: &G2,
        v_pre: &G2Preimage,
    ) -> Result<(), VerifyError> {
        let (t1, t2) = checked_commitments(sig)?;
        let u = psi(u_hat);
        // Same equations as the free `verify`, with R₂ from the tables.
        let neg_c = sig.c.neg();
        let r1 = u.mul_mul(&sig.s_alpha, &t1, &neg_c);
        let r2 = self.r2(sig, &t2, v_pre)?;
        let neg_s_delta = sig.s_delta.neg();
        let r3 = t1.mul_mul(&sig.s_x, &u, &neg_s_delta);
        if challenge(&self.gpk, msg, &sig.r, &sig.t1, &sig.t2, &r1, &r2, &r3) == sig.c {
            Ok(())
        } else {
            Err(VerifyError::BadChallenge)
        }
    }

    /// The verifier's `R̃₂`, which the free [`verify`] computes as
    /// `ê(T₂, g₂^{s_x}·w^{c}) · ê(v, w^{s_α}·g₂^{s_δ})⁻¹ · ê(g₁,g₂)^{−c}`,
    /// rewritten by bilinearity so that `g₂` and `w` sit in the tables:
    ///
    /// `R̃₂ = ê(g₂,T₂)^{s_x} · ê(w,T₂)^{c} · ê(w,v)^{−s_α} · ê(g₂,v)^{−s_δ} · ê(g₁,g₂)^{−c}`
    ///
    /// `v` enters as its H₀ pre-image `Q_v` with `v = [c]Q_v`, and always
    /// second: `ê(w, v) = ê(w, Q_v)^c̄`, so its exponents are `s_α·c̄` and
    /// `s_δ·c̄`, and the cofactor costs two scalar multiplications.
    ///
    /// Four evaluations at `(x/y, 1/y)` of `T₂` and of `Q_v` (one field
    /// inversion), one reduction of their powers, one lookup in the `𝔾_T`
    /// table. Two bilinear maps on the books, as the ratio it replaces.
    fn r2(&self, sig: &GroupSignature, t2: &G1, v_pre: &G2Preimage) -> Result<Gt, VerifyError> {
        ops::record_pairing();
        ops::record_pairing();
        let values = self.key_values(&xy_ratios(&[t2.point(), v_pre.point()]));
        let ((g2_t2, w_t2), (g2_v, w_v)) = (values[0], values[1]);
        let c_bar = G2Preimage::exponent();
        let r2 = MillerValue::reduce_powers(&[
            (g2_t2, sig.s_x, false),
            (w_t2, sig.c, false),
            (w_v, sig.s_alpha.mul(c_bar), true),
            (g2_v, sig.s_delta.mul(c_bar), true),
        ])
        .ok_or(VerifyError::DegenerateCommitment)?;
        Ok(r2.mul(&self.e_g1_g2_table.pow(&sig.c).invert()))
    }

    /// Verifies each `(msg, sig)` pair in turn: `out[i]` is what
    /// [`Self::verify`] returns for `items[i]`.
    pub fn verify_batch(
        &self,
        items: &[(&[u8], &GroupSignature)],
        mode: BasesMode,
    ) -> Vec<Result<(), VerifyError>> {
        items
            .iter()
            .map(|&(msg, sig)| self.verify(msg, sig, mode))
            .collect()
    }
}

/// A key that arrives bare is prepared on the spot: a function taking
/// `impl Into<Arc<PreparedGpk>>` accepts the shared handle or the key.
impl From<GroupPublicKey> for Arc<PreparedGpk> {
    fn from(gpk: GroupPublicKey) -> Self {
        Arc::new(PreparedGpk::new(&gpk))
    }
}

/// `(x/y, 1/y)` of each point, with one field inversion for all of them:
/// where a [`MillerLines`] table is evaluated (`None` for the identity).
fn xy_ratios(points: &[&AffinePoint]) -> Vec<Option<(Fp, Fp)>> {
    let points: Vec<ProjectivePoint> = points.iter().map(|p| p.to_projective()).collect();
    ProjectivePoint::batch_to_xy_ratios(&points)
}

/// `ê(P, Q)` for the `Q` a table was prepared for: one evaluation, one final
/// exponentiation, one bilinear map on the books. Total like [`pairing`]:
/// `P` is a subgroup point by type, which no evaluation sends to zero.
fn pairing_with(lines: &MillerLines, p: &G1) -> Gt {
    ops::record_pairing();
    lines
        .eval(&G2::from_point_unchecked(*p.point()))
        .finalize()
        .unwrap_or(Gt::ONE)
}

/// The commitments a verifier computes with: neither the identity (checked
/// on the bytes, before any arithmetic), both in 𝔾₁. Both are decoded in
/// one batch ([`G1Wire::decompress_all`]) and read in order, so `T₁` is
/// the refusal when neither names a group element.
fn checked_commitments(sig: &GroupSignature) -> Result<(G1, G1), VerifyError> {
    if sig.t1.is_identity() || sig.t2.is_identity() {
        return Err(VerifyError::DegenerateCommitment);
    }
    G1Wire::decompress_all(&[&sig.t1, &sig.t2]);
    sig.commitments().map_err(VerifyError::InvalidPoint)
}

/// Verifies a signature against the group public key (paper step 3.2).
///
/// # Errors
///
/// [`VerifyError`] if the signature is invalid. Revocation is a *separate*
/// check ([`revocation_index`]) per the paper's step 3.3.
pub fn verify(
    gpk: &GroupPublicKey,
    msg: &[u8],
    sig: &GroupSignature,
    mode: BasesMode,
) -> Result<(), VerifyError> {
    let (t1, t2) = checked_commitments(sig)?;
    // 3.2.1
    let (u_hat, v_hat) = h0_bases(gpk, msg, &sig.r, mode);
    let u = psi(&u_hat);
    let v = psi(&v_hat);
    // 3.2.2 — pairings merged as in BS04's accounting ("6 exponentiations
    // and 3 + 2|URL| computations of the bilinear map"):
    //   R̃₂ = ê(T₂, g₂^{s_x}·w^{c}) · ê(v, w^{s_α}·g₂^{s_δ})⁻¹ · ê(g₁,g₂)^{−c}
    // The quotient reduces with one shared final exponentiation
    // (see `pairing_ratio`).
    let neg_c = sig.c.neg();
    let r1 = u.mul_mul(&sig.s_alpha, &t1, &neg_c);
    let r2 = paper_r2(gpk, sig, &t2, &v)?;
    let neg_s_delta = sig.s_delta.neg();
    let r3 = t1.mul_mul(&sig.s_x, &u, &neg_s_delta);
    // 3.2.3
    if challenge(gpk, msg, &sig.r, &sig.t1, &sig.t2, &r1, &r2, &r3) == sig.c {
        Ok(())
    } else {
        Err(VerifyError::BadChallenge)
    }
}

/// `R̃₂` as §V.C prices it: two double exponentiations in 𝔾₂ and a pairing
/// ratio with one shared final exponentiation ([`pairing_ratio`]).
fn paper_r2(
    gpk: &GroupPublicKey,
    sig: &GroupSignature,
    t2: &G1,
    v: &G1,
) -> Result<Gt, VerifyError> {
    let t2_side = gpk.g2.mul_mul(&sig.s_x, &gpk.w, &sig.c);
    let v_side = gpk.w.mul_mul(&sig.s_alpha, &gpk.g2, &sig.s_delta);
    Ok(pairing_ratio(t2, &t2_side, v, &v_side)
        .ok_or(VerifyError::DegenerateCommitment)?
        .mul(&pairing(&gpk.g1, &gpk.g2).pow(&sig.c).invert()))
}

/// Checks one revocation token against a signature (paper Eq.3):
/// `ê(T₂/A, û) = ê(T₁, v̂)`. A signature whose commitments are not group
/// elements verifies under no key and matches no token.
pub fn token_matches(
    sig: &GroupSignature,
    token: &RevocationToken,
    u_hat: &G2,
    v_hat: &G2,
) -> bool {
    let Ok((t1, t2)) = sig.commitments() else {
        return false;
    };
    // ê(T₂/A, û) · ê(T₁, v̂)⁻¹ = 1  — one product, shared final exponentiation.
    let lhs = t2.sub(&token.0);
    pairing_product(&[(lhs, *u_hat), (t1.neg(), *v_hat)]).is_one()
}

/// Lane groups at and above which [`open_batch`] fans them out across OS
/// threads. A group's records cost milliseconds each (two hash-to-curve
/// runs, two decompressions, a line table, a Miller loop and a walk of
/// `grt`), so the fan-out pays for itself as soon as there are two.
const PARALLEL_OPEN_THRESHOLD: usize = 2;

/// Computes `f(i)` over `0..len`, in index order. Below `threshold`, and
/// always for a single index, that is a loop on the calling thread.
/// Otherwise one OS thread per processor (at most one per index) claims
/// blocks of ⌈len / 4·workers⌉ contiguous indices from a shared cursor
/// until none are left, so a worker whose indices came cheap takes more of
/// them and no core idles while another finishes a dear block. Blocks are
/// put back in order of their first index, so the output is positional and
/// deterministic however the claims fell.
///
/// Its one caller is [`open_batch`]: the NO's audit has no pool of its own,
/// where a router's verify pool already runs a request per processor.
fn fill_indexed<T: Send>(len: usize, threshold: usize, f: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
    if len < threshold || len <= 1 {
        return (0..len).map(f).collect();
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(len);
    let block = len.div_ceil(4 * workers);
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            // `Relaxed`: the cursor only hands out disjoint ranges and
            // publishes nothing; results travel back through `join`.
            let lo = cursor.fetch_add(block, Ordering::Relaxed);
            if lo >= len {
                return done;
            }
            done.push((lo, (lo..(lo + block).min(len)).map(f).collect::<Vec<T>>()));
        }
    };
    let mut blocks: Vec<(usize, Vec<T>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let ops = OpSnapshot::scope();
                    (claim(), ops.counts())
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                // The workers' operations are this call's operations.
                let (done, ops) = h.join().expect("fan-out worker panicked");
                ops.absorb();
                done
            })
            .collect()
    });
    blocks.sort_unstable_by_key(|&(lo, _)| lo);
    blocks.into_iter().flat_map(|(_, out)| out).collect()
}

/// One signature readied for Eq.3 checks against any number of tokens —
/// the single per-token loop behind [`revocation_sweep`] and
/// [`open_batch`].
///
/// The check for token `Aᵢ` is `ê(T₂−Aᵢ, û)·ê(−T₁, v̂) = 1`. The second
/// factor is token-independent: its Miller value is computed once —
/// `f_{q,−T₁}(φ(v̂))`, or `f_{q,−T₁}(φ(Q_v))^c̄` for `v̂`'s H₀ pre-image
/// ([`G2Arg`]). The first has the *fixed* argument in the wrong slot for
/// sharing Miller-loop work — but `ψ` is the identity on this Type-1
/// pairing, so `ê(T₂−Aᵢ, û) = ê(û, T₂−Aᵢ)`, and with `û` first the
/// double/add schedule runs once per signature ([`MillerLines`]) and each
/// token costs only an evaluation against the stored lines.
struct SweepRow {
    t2: ProjectivePoint,
    lines: MillerLines,
    shared: MillerValue,
}

impl SweepRow {
    /// One line table, one Miller loop. `None` for a signature whose
    /// commitments are not group elements: it matches no token.
    fn new(sig: &GroupSignature, u_hat: &G2, v_hat: &impl G2Arg) -> Option<Self> {
        let (t1, t2) = sig.commitments().ok()?;
        Some(Self {
            t2: t2.point().to_projective(),
            lines: MillerLines::new(&psi(u_hat)),
            shared: miller(&t1.neg(), v_hat),
        })
    }

    /// Whether each of `tokens` passes Eq.3 against this signature: one
    /// table evaluation per token at `(x/y, 1/y)` of `T₂ − Aᵢ` (one field
    /// inversion for the slice), then one is-it-1 reduction per token (one
    /// more; not counted — the public entry points record one final
    /// exponentiation per call). `T₂ = Aᵢ` evaluates at the identity, which
    /// contributes 1 and cannot match.
    fn matches(&self, tokens: &[RevocationToken]) -> Vec<bool> {
        let diffs: Vec<ProjectivePoint> = tokens
            .iter()
            .map(|t| self.t2.add_affine(&t.0.point().neg()))
            .collect();
        self.lines
            .reduces_to_one_at(&ProjectivePoint::batch_to_xy_ratios(&diffs), &self.shared)
    }

    /// The first of `grt` that matches, walked in blocks of [`OPEN_BLOCK`]
    /// tokens, each recorded as one final exponentiation.
    fn first_match(&self, grt: &[RevocationToken]) -> Option<usize> {
        grt.chunks(OPEN_BLOCK).enumerate().find_map(|(b, block)| {
            ops::record_final_exp();
            let hit = self.matches(block).iter().position(|&hit| hit)?;
            Some(b * OPEN_BLOCK + hit)
        })
    }
}

/// Shared-Miller revocation sweep over a whole URL (paper step 3.3,
/// restructured; see [`SweepRow`]). `v_hat` is `v̂` or, as every verifier
/// derives it ([`h0_verify_bases`]), its pre-image.
///
/// Total cost for `n` tokens: one line table, `n + 1` Miller loops (`n` of
/// them evaluations against the table) and `1` final exponentiation,
/// versus `2n` full pairings for the naive [`token_matches`] scan.
///
/// The whole URL is one `SweepRow::matches` call on the calling thread,
/// so one inversion normalises every token's point and one reduces every
/// value. A router runs one request per verify-pool worker, and that pool
/// is where its parallelism is set; a sweep spawns nothing.
pub fn revocation_sweep(
    sig: &GroupSignature,
    tokens: &[RevocationToken],
    u_hat: &G2,
    v_hat: &impl G2Arg,
) -> Option<usize> {
    if tokens.is_empty() {
        return None;
    }
    let row = SweepRow::new(sig, u_hat, v_hat)?;
    ops::record_final_exp();
    row.matches(tokens).iter().position(|&hit| hit)
}

/// Scans the URL for a token encoded in `(T₁, T₂)` (paper step 3.3).
/// Returns the index of the matching token, or `None` if the signer has not
/// been revoked.
///
/// Runs as a [`revocation_sweep`]: `|URL| + 1` Miller loops and one batched
/// final exponentiation (the naive per-token scan costs `2·|URL|` pairings).
pub fn revocation_index(
    gpk: &GroupPublicKey,
    msg: &[u8],
    sig: &GroupSignature,
    url: &[RevocationToken],
    mode: BasesMode,
) -> Option<usize> {
    let (u_hat, v_pre) = h0_verify_bases(gpk, msg, &sig.r, mode);
    revocation_sweep(sig, url, &u_hat, &v_pre)
}

/// The NO's audit (paper §IV.D): identical mechanics to the revocation scan
/// but run over the *full* token set `grt` — the index identifies which
/// `gsk[i,j]` produced the signature.
pub fn open(
    gpk: &GroupPublicKey,
    msg: &[u8],
    sig: &GroupSignature,
    grt: &[RevocationToken],
    mode: BasesMode,
) -> Option<usize> {
    revocation_index(gpk, msg, sig, grt, mode)
}

/// Tokens an [`open_batch`] record evaluates and reduces together: one lane
/// group ([`MillerLines::LANES`]), which costs as much padded as full. A
/// block shares one field inversion, and evaluates at most seven tokens
/// past the one that matches.
const OPEN_BLOCK: usize = MillerLines::LANES;

/// Batched Open over many records at once (the accountability ledger's
/// audit sweep).
///
/// Records are readied a lane group ([`MillerLines::LANES`]) at a time
/// ([`sweep_rows`]): for eight records, H₀'s bases cost one square-root
/// chain per base and one cofactor ladder, the commitments one chain and
/// one subgroup ladder per eight, and the line tables and shared values
/// eight Miller loops each — in AVX-512 IFMA lanes where the CPU has them,
/// one record at a time elsewhere. Each record then walks `grt` in blocks
/// of [`OPEN_BLOCK`] tokens, **stopping at the first block that matches**.
/// Since an honest transcript matches exactly one `grt` row, a record
/// whose signer sits at column `m` pays for `m + 1` tokens rounded up to a
/// block instead of the full `n` a per-record [`open`] pays — about half
/// on average, with the worst case (a forged record no token matches)
/// identical to [`open`].
///
/// With `G` groups, group `g` holds records `g, g + G, g + 2G, …`, so a
/// time-ordered ledger, whose later records walk further, spreads its dear
/// records over every group; workers claim whole groups ([`fill_indexed`])
/// and each holds one group's tables at a time. Verdicts and op tallies
/// are per record those of [`open`]'s path, every block recorded as one
/// final exponentiation. Output is positionally ordered: `out[k]` is the
/// matching token index for `items[k]`, or `None` if no registry token
/// matches.
pub fn open_batch(
    gpk: &GroupPublicKey,
    items: &[(&[u8], &GroupSignature)],
    grt: &[RevocationToken],
    mode: BasesMode,
) -> Vec<Option<usize>> {
    if grt.is_empty() {
        return vec![None; items.len()];
    }
    let groups = items.len().div_ceil(MillerLines::LANES);
    let found = fill_indexed(groups, PARALLEL_OPEN_THRESHOLD, &|g| {
        let group: Vec<(&[u8], &GroupSignature)> =
            items.iter().skip(g).step_by(groups).copied().collect();
        sweep_rows(gpk, &group, mode)
            .into_iter()
            .map(|row| row?.first_match(grt))
            .collect::<Vec<_>>()
    });
    (0..items.len())
        .map(|k| found[k % groups][k / groups])
        .collect()
}

/// [`SweepRow::new`] on the verifier's bases ([`h0_verify_bases`]) for
/// each record of one lane group, eight of a kind at once: `û` and `Q_v`;
/// the commitments ([`GroupSignature::decompress_all`]); then the line
/// tables and shared values of records whose commitments both are group
/// elements.
/// `None` for a record that matches no token.
fn sweep_rows(
    gpk: &GroupPublicKey,
    group: &[(&[u8], &GroupSignature)],
    mode: BasesMode,
) -> Vec<Option<SweepRow>> {
    let inputs: Vec<Vec<u8>> = group
        .iter()
        .map(|(msg, sig)| h0_input(gpk, msg, &sig.r, mode))
        .collect();
    let labelled = |label| -> Vec<(&[u8], &[u8])> {
        inputs
            .iter()
            .map(|input| (label, input.as_slice()))
            .collect()
    };
    let (u_hats, v_pres) = peace_curve::hash_to_g2_many(&labelled(H0_U), &labelled(H0_V));
    GroupSignature::decompress_all(&group.iter().map(|(_, sig)| *sig).collect::<Vec<_>>());
    let admitted: Vec<(G1, G1, G2, G2Preimage)> = group
        .iter()
        .zip(u_hats.iter().zip(&v_pres))
        .filter_map(|((_, sig), (u_hat, v_pre))| {
            let (t1, t2) = sig.commitments().ok()?;
            Some((t1, t2, *u_hat, *v_pre))
        })
        .collect();
    let u_points: Vec<G1> = admitted.iter().map(|(_, _, u_hat, _)| psi(u_hat)).collect();
    let pairs: Vec<(G1, G2Preimage)> = admitted
        .iter()
        .map(|(t1, _, _, v_pre)| (t1.neg(), *v_pre))
        .collect();
    let shared = peace_pairing::miller_preimages(&pairs);
    let mut rows = admitted
        .iter()
        .zip(MillerLines::new_many(&u_points))
        .zip(shared)
        .map(|((&(_, t2, _, _), lines), shared)| SweepRow {
            t2: t2.point().to_projective(),
            lines,
            shared,
        });
    group
        .iter()
        .map(|(_, sig)| sig.commitments().ok().and_then(|_| rows.next()))
        .collect()
}

/// Precomputed revocation table for [`BasesMode::FixedBases`] (§V.C's
/// "far more efficient revocation check algorithm, whose running time is
/// independent of |URL|"): `SHA-256(ê(Aᵢ, û)) → i`.
#[derive(Clone, Debug)]
pub struct RevocationTable {
    entries: std::collections::HashMap<[u8; 32], usize>,
    /// The fixed bases `(û, v̂) = H₀(gpk)`.
    bases: (G2, G2),
    next_index: usize,
}

impl RevocationTable {
    /// Builds the table over `tokens`, indexed by position.
    pub fn build(gpk: &GroupPublicKey, tokens: &[RevocationToken]) -> Self {
        let mut table = Self {
            entries: std::collections::HashMap::with_capacity(tokens.len()),
            bases: h0_bases(gpk, &[], &Fq::ZERO, BasesMode::FixedBases),
            next_index: 0,
        };
        for t in tokens {
            table.insert(t);
        }
        table
    }

    fn key(&self, token: &RevocationToken) -> [u8; 32] {
        peace_hash::sha256(&pairing(&token.0, &self.bases.0).to_bytes())
    }

    /// Adds one token incrementally (one pairing) — the operator's URL
    /// grows by single revocations, so rebuilding the whole table per
    /// update would waste |URL| pairings. Returns the token's index.
    pub fn insert(&mut self, token: &RevocationToken) -> usize {
        let idx = self.next_index;
        self.next_index += 1;
        self.entries.insert(self.key(token), idx);
        idx
    }

    /// Removes a token (e.g. a revocation lifted by dispute resolution).
    /// Returns whether it was present.
    pub fn remove(&mut self, token: &RevocationToken) -> bool {
        self.entries.remove(&self.key(token)).is_some()
    }

    /// Number of tokens in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// O(1)-in-|URL| revocation check: computes
    /// `D = ê(T₂, û) / ê(T₁, v̂) = ê(A, û)` (two Miller loops, one final
    /// exponentiation) and looks it up.
    ///
    /// Only sound for signatures produced with [`BasesMode::FixedBases`].
    pub fn lookup(&self, sig: &GroupSignature) -> Option<usize> {
        let (u_hat, v_hat) = &self.bases;
        let (t1, t2) = sig.commitments().ok()?;
        let d = pairing_ratio(&t2, u_hat, &t1, v_hat)?;
        self.entries
            .get(&peace_hash::sha256(&d.to_bytes()))
            .copied()
    }
}

#[cfg(test)]
mod threshold_tests {
    use super::*;

    /// A one-record batch never spawns threads, however low the fan-out
    /// threshold: there is nothing to share out.
    #[test]
    fn one_element_fill_never_spawns() {
        let main_id = std::thread::current().id();
        for threshold in [0usize, 1, 2] {
            let ids = fill_indexed(1, threshold, &|_| Some(std::thread::current().id()));
            assert_eq!(ids, vec![Some(main_id)], "threshold {threshold} spawned");
        }
        // Zero elements: nothing runs, nothing spawns.
        let empty: Vec<std::thread::ThreadId> =
            fill_indexed(0, 0, &|_| unreachable!("no elements to fill"));
        assert!(empty.is_empty());
    }

    /// Two elements at a permissive threshold *do* fan out (the guard is
    /// specifically about the 1-element case, not a blanket serialization).
    #[test]
    fn two_elements_fan_out_at_low_threshold() {
        let main_id = std::thread::current().id();
        let ids = fill_indexed(2, 2, &|_| Some(std::thread::current().id()));
        assert_eq!(ids.len(), 2);
        assert!(
            ids.iter().all(|id| id.is_some() && *id != Some(main_id)),
            "a met threshold must spawn workers"
        );
    }

    /// However the claims fall, the output is the sequential map, position
    /// by position: every length to 200, on both sides of the threshold.
    #[test]
    fn claimed_blocks_reassemble_the_sequential_map() {
        let g = |i: usize| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i >> 3);
        for len in 0..=200 {
            let expect: Vec<usize> = (0..len).map(g).collect();
            for threshold in [0, 1, 8, len + 1] {
                assert_eq!(
                    fill_indexed(len, threshold, &g),
                    expect,
                    "len {len}, threshold {threshold}"
                );
            }
        }
    }

    /// No block is claimed twice and none is skipped.
    #[test]
    fn every_index_is_evaluated_exactly_once() {
        for len in [2, 3, 7, 8, 9, 16, 17, 64, 65, 200] {
            let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            let before = fill_indexed(len, 0, &|i| hits[i].fetch_add(1, Ordering::Relaxed));
            assert!(before.iter().all(|&n| n == 0), "len {len}");
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "len {len}"
            );
        }
    }

    /// What the workers counted is the caller's, to the operation: the
    /// same tallies as the sequential run.
    #[test]
    fn the_workers_operations_are_the_callers() {
        let f = |i: usize| {
            for _ in 0..=i % 3 {
                ops::record_final_exp();
            }
            i
        };
        for len in [2, 16, 65] {
            let scope = OpSnapshot::scope();
            fill_indexed(len, len + 1, &f);
            let sequential = scope.counts();
            assert!(sequential.final_exps >= len as u64);
            let scope = OpSnapshot::scope();
            fill_indexed(len, 0, &f);
            assert_eq!(scope.counts(), sequential, "len {len}");
        }
    }

    /// A worker that panics takes the call down with it, under the one
    /// message the fan-out gives.
    #[test]
    fn a_panicking_worker_surfaces_as_the_fan_out_panic() {
        let caught = std::panic::catch_unwind(|| {
            fill_indexed(64, 0, &|i| {
                assert_ne!(i, 37, "a worker fault");
                i
            })
        });
        let payload = caught.expect_err("the worker's panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.starts_with("fan-out worker panicked"), "{msg}");
    }
}

#[cfg(test)]
mod sweep_soundness {
    use super::*;
    use crate::keys::IssuerKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// |URL| on both sides of a lane group's edge ([`MillerLines::LANES`],
    /// which is also [`OPEN_BLOCK`]) at 8, 16 and the benchmark's list
    /// (64), and of half a group.
    const URL_SIZES: [usize; 12] = [1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 65];

    /// Where the signer's token sits: first, last, either side of the
    /// midpoint and of the first two [`OPEN_BLOCK`] edges — or nowhere.
    fn signer_slots(n: usize) -> Vec<Option<usize>> {
        let half = n.div_ceil(2);
        let edges = [
            OPEN_BLOCK - 1,
            OPEN_BLOCK,
            2 * OPEN_BLOCK - 1,
            2 * OPEN_BLOCK,
        ];
        let mut slots: Vec<usize> = [0, n - 1, half - 1, half]
            .into_iter()
            .chain(edges)
            .filter(|&slot| slot < n)
            .collect();
        slots.sort_unstable();
        slots.dedup();
        slots.into_iter().map(Some).chain([None]).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2))]

        /// No false negative, and no false positive, through the prepared
        /// loop on the verifier's bases ([`h0_verify_bases`]: `v̂` as its
        /// uncleared pre-image): per token, [`SweepRow::matches`] says what
        /// the naive two-pairing [`token_matches`] says on the signer's
        /// cleared bases, and the entry points built on it report the
        /// oracle's index — in both bases modes, and with the sweep handed
        /// either form of `v̂`.
        #[test]
        fn prop_sweep_row_agrees_with_the_oracle_token_by_token(
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let issuer = IssuerKey::generate(&mut rng);
            let gpk = *issuer.public_key();
            let grp = issuer.new_group_secret(&mut rng);
            let signer = issuer.issue(&grp, &mut rng);
            let pool: Vec<RevocationToken> = (0..*URL_SIZES.iter().max().unwrap())
                .map(|_| issuer.issue(&grp, &mut rng).revocation_token())
                .collect();
            for mode in [BasesMode::PerMessage, BasesMode::FixedBases] {
                let msg: &[u8] = b"soundness";
                let sig = sign(&gpk, &signer, msg, mode, &mut rng);
                let (u_hat, v_hat) = h0_bases(&gpk, msg, &sig.r, mode);
                let (verifier_u, v_pre) = h0_verify_bases(&gpk, msg, &sig.r, mode);
                proptest::prop_assert_eq!(verifier_u, u_hat);
                // The oracle, once per token: a verdict does not depend on
                // where in a list the token sits.
                let oracle =
                    |token: &RevocationToken| token_matches(&sig, token, &u_hat, &v_hat);
                proptest::prop_assert!(oracle(&signer.revocation_token()));
                let others: Vec<bool> = pool.iter().map(oracle).collect();
                proptest::prop_assert!(others.iter().all(|&hit| !hit));

                let row = SweepRow::new(&sig, &u_hat, &v_pre).expect("signed commitments");
                for n in URL_SIZES {
                    for slot in signer_slots(n) {
                        let mut url = pool[..n].to_vec();
                        let mut expect = others[..n].to_vec();
                        if let Some(slot) = slot {
                            url[slot] = signer.revocation_token();
                            expect[slot] = true;
                        }
                        let at = format!("{mode:?}, |URL| = {n}, signer at {slot:?}");
                        proptest::prop_assert_eq!(&row.matches(&url), &expect, "{}", at);
                        proptest::prop_assert_eq!(
                            revocation_sweep(&sig, &url, &u_hat, &v_pre), slot, "{}", at
                        );
                        proptest::prop_assert_eq!(
                            revocation_sweep(&sig, &url, &u_hat, &v_hat), slot, "{}", at
                        );
                        proptest::prop_assert_eq!(open(&gpk, msg, &sig, &url, mode), slot, "{}", at);
                        proptest::prop_assert_eq!(
                            open_batch(&gpk, &[(msg, &sig)], &url, mode), vec![slot], "{}", at
                        );
                    }
                }
            }
        }

        /// The skew that left a core idle under two fixed halves: record
        /// `k` is signed by the member at `grt` column `k`, so each record
        /// walks further than the one before, and the last is signed by
        /// someone `grt` does not list. Over the fan-out threshold, the
        /// batch reports what a per-record [`open`] does.
        #[test]
        fn prop_open_batch_with_ascending_signers_matches_open(
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let issuer = IssuerKey::generate(&mut rng);
            let gpk = *issuer.public_key();
            let grp = issuer.new_group_secret(&mut rng);
            let n = PARALLEL_OPEN_THRESHOLD * OPEN_BLOCK + 3;
            let members: Vec<_> = (0..n).map(|_| issuer.issue(&grp, &mut rng)).collect();
            let grt: Vec<RevocationToken> =
                members.iter().map(|m| m.revocation_token()).collect();
            let stranger = issuer.issue(&grp, &mut rng);
            let msgs: Vec<Vec<u8>> = (0..=n).map(|k| format!("record {k}").into_bytes()).collect();
            for mode in [BasesMode::PerMessage, BasesMode::FixedBases] {
                let sigs: Vec<GroupSignature> = members
                    .iter()
                    .chain([&stranger])
                    .zip(&msgs)
                    .map(|(signer, msg)| sign(&gpk, signer, msg, mode, &mut rng))
                    .collect();
                let items: Vec<(&[u8], &GroupSignature)> =
                    msgs.iter().map(Vec::as_slice).zip(&sigs).collect();
                let per_record: Vec<Option<usize>> = items
                    .iter()
                    .map(|&(msg, sig)| open(&gpk, msg, sig, &grt, mode))
                    .collect();
                let expect: Vec<Option<usize>> = (0..n).map(Some).chain([None]).collect();
                proptest::prop_assert_eq!(&per_record, &expect, "{:?}", mode);
                proptest::prop_assert_eq!(open_batch(&gpk, &items, &grt, mode), expect, "{:?}", mode);
            }
        }
    }
}

#[cfg(test)]
mod lane_open {
    use super::*;
    use crate::keys::IssuerKey;
    use peace_curve::AffinePoint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// What [`open_batch`] computed before records were readied a lane
    /// group at a time, and what it still computes on a CPU without IFMA:
    /// one record after another, on the calling thread.
    fn open_one_by_one(
        gpk: &GroupPublicKey,
        items: &[(&[u8], &GroupSignature)],
        grt: &[RevocationToken],
        mode: BasesMode,
    ) -> Vec<Option<usize>> {
        items
            .iter()
            .map(|&(msg, sig)| {
                let (u_hat, v_pre) = h0_verify_bases(gpk, msg, &sig.r, mode);
                SweepRow::new(sig, &u_hat, &v_pre)?.first_match(grt)
            })
            .collect()
    }

    /// A signature's bytes with `T₁` (`slot` 0) or `T₂` (1) replaced.
    pub(super) fn with_commitment(sig: &GroupSignature, slot: usize, encoding: &[u8]) -> Vec<u8> {
        let mut bytes = sig.to_bytes();
        let at = 20 + slot * G1::ENCODED_LEN;
        bytes[at..at + G1::ENCODED_LEN].copy_from_slice(encoding);
        bytes
    }

    /// Canonical encodings that name no element of 𝔾₁: a point off the
    /// curve, one outside the subgroup, and the identity.
    pub(super) fn bad_encodings(seed: u64) -> [Vec<u8>; 3] {
        let off_curve = (1u8..)
            .map(|x| {
                let mut bytes = vec![0u8; G1::ENCODED_LEN];
                (bytes[0], bytes[64]) = (2, x);
                bytes
            })
            .find(|b| AffinePoint::from_compressed(b).is_none())
            .unwrap();
        let outside = peace_curve::hash_to_g2_preimage(b"outside", &seed.to_be_bytes())
            .point()
            .to_compressed();
        [off_curve, outside, G1::IDENTITY.to_bytes()]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2))]

        /// The lane-group path against the one-by-one path, on freshly
        /// decoded signatures (so both pay every decompression): the same
        /// index per record and the same op tallies. A batch mixes signers
        /// at every `grt` column (both blocks), a stranger, a token's
        /// forgery, and commitments off the curve, outside the subgroup and
        /// at the identity, in either slot, shuffled; it is cut at sizes
        /// around a lane group's edges.
        #[test]
        fn prop_lane_open_batch_is_the_one_by_one_open(
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let issuer = IssuerKey::generate(&mut rng);
            let gpk = *issuer.public_key();
            let grp = issuer.new_group_secret(&mut rng);
            let members: Vec<_> = (0..OPEN_BLOCK + 1).map(|_| issuer.issue(&grp, &mut rng)).collect();
            let grt: Vec<RevocationToken> = members.iter().map(|m| m.revocation_token()).collect();
            let stranger = issuer.issue(&grp, &mut rng);
            let bad = bad_encodings(seed);
            let msgs: Vec<Vec<u8>> = (0..17).map(|k| format!("record {k}").into_bytes()).collect();
            for mode in [BasesMode::PerMessage, BasesMode::FixedBases] {
                let mut sign_as = |k: usize, signer: &MemberKey| sign(&gpk, signer, &msgs[k], mode, &mut rng);
                let mut records: Vec<(usize, Vec<u8>)> = members
                    .iter()
                    .enumerate()
                    .map(|(k, m)| (k, sign_as(k, m).to_bytes()))
                    .collect();
                for (j, encoding) in bad.iter().enumerate() {
                    for slot in 0..2 {
                        let k = records.len();
                        let sig = sign_as(k, &members[(j + slot) % members.len()]);
                        records.push((k, with_commitment(&sig, slot, encoding)));
                    }
                }
                let k = records.len();
                records.push((k, sign_as(k, &stranger).to_bytes()));
                // A token's forgery (Eq.3 holds, the Σ-proof does not).
                let k = records.len();
                let template = sign_as(k, &stranger);
                let (u_hat, v_hat) = h0_bases(&gpk, &msgs[k], &template.r, mode);
                let alpha = template.s_x;
                let forged = GroupSignature {
                    t1: psi(&u_hat).mul(&alpha).into(),
                    t2: grt[3].0.add(&psi(&v_hat).mul(&alpha)).into(),
                    ..template
                };
                records.push((k, forged.to_bytes()));
                for i in (1..records.len()).rev() {
                    records.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
                }
                let decode = || -> Vec<GroupSignature> {
                    records.iter().map(|(_, b)| GroupSignature::from_wire(b).unwrap()).collect()
                };
                let (lane_sigs, scalar_sigs) = (decode(), decode());
                let mut got = Vec::new();
                for n in [1, 2, 7, 8, 9, 15, 16, 17] {
                    let items = |sigs| -> Vec<(&[u8], &GroupSignature)> {
                        records[..n].iter().zip(sigs).map(|((k, _), s)| (msgs[*k].as_slice(), s)).collect()
                    };
                    let lanes = peace_field::lanes::Ifma::detect().is_some() && n >= 2;
                    println!("open_batch over {n}: {}", if lanes { "avx512ifma lanes" } else { "scalar" });
                    let scope = OpSnapshot::scope();
                    got = open_batch(&gpk, &items(lane_sigs.iter()), &grt, mode);
                    let lane_cost = scope.counts();
                    drop(scope);
                    let scope = OpSnapshot::scope();
                    let want = open_one_by_one(&gpk, &items(scalar_sigs.iter()), &grt, mode);
                    proptest::prop_assert_eq!(&got, &want, "{:?}, n = {}", mode, n);
                    proptest::prop_assert_eq!(lane_cost, scope.counts(), "{:?}, n = {}", mode, n);
                }
                // The whole batch found a signer at every column.
                let columns: Vec<usize> = got.iter().flatten().copied().collect();
                proptest::prop_assert!((0..grt.len()).all(|c| columns.contains(&c)), "{:?}", columns);
            }
        }
    }

    /// Only a table walked in lanes holds the lane form: the group key's
    /// g₂ and w tables build it on the first paired evaluation (sign and
    /// verify walk them side by side), not before, and a sweep row's û
    /// table builds it on its first lane walk.
    #[test]
    fn only_lane_walked_tables_hold_the_lane_form() {
        let mut rng = StdRng::seed_from_u64(7);
        let issuer = IssuerKey::generate(&mut rng);
        let gpk = *issuer.public_key();
        let grp = issuer.new_group_secret(&mut rng);
        let member = issuer.issue(&grp, &mut rng);
        let url: Vec<RevocationToken> = (0..4)
            .map(|_| issuer.issue(&grp, &mut rng).revocation_token())
            .collect();
        let prepared = PreparedGpk::new(&gpk);
        assert!(!prepared.g2_lines.holds_lane_form());
        assert!(!prepared.w_lines.holds_lane_form());
        let lanes = peace_field::lanes::Ifma::detect().is_some();
        println!(
            "sweep over {}: {}",
            url.len(),
            if lanes { "avx512ifma lanes" } else { "scalar" }
        );
        for mode in [BasesMode::PerMessage, BasesMode::FixedBases] {
            let sig = prepared.sign(&member, b"msg", mode, &mut rng);
            prepared.verify(b"msg", &sig, mode).unwrap();
            assert_eq!(
                prepared.verify_and_check(b"msg", &sig, &url, mode),
                Ok(None)
            );
            let (u_hat, v_pre) = h0_verify_bases(&gpk, b"msg", &sig.r, mode);
            let row = SweepRow::new(&sig, &u_hat, &v_pre).unwrap();
            assert!(!row.lines.holds_lane_form(), "{mode:?}");
            assert_eq!(row.matches(&url), vec![false; url.len()]);
            assert_eq!(row.lines.holds_lane_form(), lanes, "{mode:?}");
        }
        assert_eq!(prepared.g2_lines.holds_lane_form(), lanes);
        assert_eq!(prepared.w_lines.holds_lane_form(), lanes);
    }
}

#[cfg(test)]
mod lane_sigma {
    use super::lane_open::{bad_encodings, with_commitment};
    use super::*;
    use crate::keys::IssuerKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// What [`PreparedGpk::sign_as`] computes, one item at a time: H₀'s
    /// bases one after the other, each table evaluated on its own. What a
    /// CPU without IFMA runs.
    fn sign_one_by_one(
        prepared: &PreparedGpk,
        gsk: &MemberKey,
        e_a_g2: &Gt,
        msg: &[u8],
        mode: BasesMode,
        rng: &mut impl RngCore,
    ) -> GroupSignature {
        let r = Fq::random(rng);
        let input = h0_input(&prepared.gpk, msg, &r, mode);
        let u = psi(&peace_curve::hash_to_g2(H0_U, &input));
        let v = psi(&peace_curve::hash_to_g2(H0_V, &input));
        let alpha = Fq::random(rng);
        let x_eff = gsk.exponent();
        let (r_alpha, r_x, r_delta) = (Fq::random(rng), Fq::random(rng), Fq::random(rng));
        let e = alpha.mul(&r_x).sub(&r_delta);
        let powers = u.mul_many(&[alpha, r_alpha, e]);
        let t2 = gsk.a.add(&v.mul(&alpha));
        ops::record_pairing();
        let at = xy_ratios(&[v.point()]);
        let r2 = MillerValue::reduce_powers(&[
            (prepared.g2_lines.eval_at(at[0].as_ref()), e, false),
            (prepared.w_lines.eval_at(at[0].as_ref()), r_alpha, true),
        ])
        .unwrap_or(Gt::ONE);
        let r2 = e_a_g2.pow(&r_x).mul(&r2);
        let (t1, t2) = (G1Wire::from(powers[0]), G1Wire::from(t2));
        let c = challenge(
            &prepared.gpk,
            msg,
            &r,
            &t1,
            &t2,
            &powers[1],
            &r2,
            &powers[2],
        );
        GroupSignature {
            r,
            t1,
            t2,
            c,
            s_alpha: r_alpha.add(&c.mul(&alpha)),
            s_x: r_x.add(&c.mul(&x_eff)),
            s_delta: r_delta.add(&c.mul(&x_eff.mul(&alpha))),
        }
    }

    /// What [`PreparedGpk::verify`] computes, one item at a time.
    fn verify_one_by_one(
        prepared: &PreparedGpk,
        msg: &[u8],
        sig: &GroupSignature,
        mode: BasesMode,
    ) -> Result<(), VerifyError> {
        let input = h0_input(&prepared.gpk, msg, &sig.r, mode);
        let u_hat = peace_curve::hash_to_g2(H0_U, &input);
        let v_pre = peace_curve::hash_to_g2_preimage(H0_V, &input);
        if sig.t1.is_identity() || sig.t2.is_identity() {
            return Err(VerifyError::DegenerateCommitment);
        }
        let (t1, t2) = sig.commitments().map_err(VerifyError::InvalidPoint)?;
        let u = psi(&u_hat);
        let r1 = u.mul_mul(&sig.s_alpha, &t1, &sig.c.neg());
        ops::record_pairing();
        ops::record_pairing();
        let at = xy_ratios(&[t2.point(), v_pre.point()]);
        let c_bar = G2Preimage::exponent();
        let r2 = MillerValue::reduce_powers(&[
            (prepared.g2_lines.eval_at(at[0].as_ref()), sig.s_x, false),
            (prepared.w_lines.eval_at(at[0].as_ref()), sig.c, false),
            (
                prepared.w_lines.eval_at(at[1].as_ref()),
                sig.s_alpha.mul(c_bar),
                true,
            ),
            (
                prepared.g2_lines.eval_at(at[1].as_ref()),
                sig.s_delta.mul(c_bar),
                true,
            ),
        ])
        .ok_or(VerifyError::DegenerateCommitment)?
        .mul(&prepared.e_g1_g2_table.pow(&sig.c).invert());
        let r3 = t1.mul_mul(&sig.s_x, &u, &sig.s_delta.neg());
        if challenge(&prepared.gpk, msg, &sig.r, &sig.t1, &sig.t2, &r1, &r2, &r3) == sig.c {
            Ok(())
        } else {
            Err(VerifyError::BadChallenge)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2))]

        /// A signature's paired work in lanes (H₀'s two bases in one batch,
        /// the key tables side by side, `T₁` and `T₂` decoded together)
        /// against the same work one item at a time: byte-identical
        /// signatures with the same op tallies, and on freshly decoded bytes
        /// the same verdict and refusal — and for an accepted signature the
        /// same op tallies — for honest signatures, forged challenges, and
        /// `T₁` or `T₂` off the curve, outside the subgroup or at the
        /// identity.
        #[test]
        fn prop_lane_sigma_check_is_the_scalar_one(
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let issuer = IssuerKey::generate(&mut rng);
            let member = issuer.issue(&issuer.new_group_secret(&mut rng), &mut rng);
            let prepared = PreparedGpk::new(issuer.public_key());
            let e_a_g2 = prepared.member_pairing(&member).expect("issued key");
            let lanes = peace_field::lanes::Ifma::detect().is_some();
            println!("sign and verify: {}", if lanes { "avx512ifma lanes" } else { "scalar" });
            let msg: &[u8] = b"sigma";
            for mode in [BasesMode::PerMessage, BasesMode::FixedBases] {
                let mut oracle_rng = rng.clone();
                let scope = OpSnapshot::scope();
                let sig = prepared.sign_as(&member, &e_a_g2, msg, mode, &mut rng);
                let lane_cost = scope.counts();
                drop(scope);
                let scope = OpSnapshot::scope();
                let want = sign_one_by_one(&prepared, &member, &e_a_g2, msg, mode, &mut oracle_rng);
                proptest::prop_assert_eq!(sig.to_bytes(), want.to_bytes(), "{:?}", mode);
                proptest::prop_assert_eq!(lane_cost, scope.counts(), "{:?}", mode);
                drop(scope);

                let forged = GroupSignature { c: sig.c.add(&Fq::ONE), ..sig.clone() };
                let mut cases = vec![("honest", sig.to_bytes()), ("forged c", forged.to_bytes())];
                for (kind, encoding) in ["off the curve", "outside", "identity"].iter().zip(bad_encodings(seed)) {
                    cases.push((kind, with_commitment(&sig, 0, &encoding)));
                    cases.push((kind, with_commitment(&sig, 1, &encoding)));
                }
                for (k, (kind, bytes)) in cases.iter().enumerate() {
                    let at = format!("{mode:?}, {kind} (case {k})");
                    let decode = || GroupSignature::from_wire(bytes).unwrap();
                    let scope = OpSnapshot::scope();
                    let got = prepared.verify(msg, &decode(), mode);
                    let lane_cost = scope.counts();
                    drop(scope);
                    let scope = OpSnapshot::scope();
                    let want = verify_one_by_one(&prepared, msg, &decode(), mode);
                    proptest::prop_assert_eq!(got, want, "{}", at);
                    proptest::prop_assert_eq!(got.is_ok(), k == 0, "{}", at);
                    if got.is_ok() {
                        proptest::prop_assert_eq!(lane_cost, scope.counts(), "{}", at);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod r2_pins {
    use super::*;
    use crate::keys::IssuerKey;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// The one R₂ path against the paper's shape, in both bases modes:
        /// the prepared verifier's R̃₂ (four table evaluations at `T₂` and
        /// at `v̂`'s uncleared pre-image, one reduction) is the
        /// `pairing_ratio` R̃₂ on the cleared `v` byte for byte, on the
        /// honest signature and with each response or T₂ tampered; the
        /// product signer emits the free `sign`'s bytes; and both verifiers
        /// refuse every tampering with the same error.
        #[test]
        fn prop_prepared_r2_is_the_paper_r2(
            seed in any::<u64>(),
            msg in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let issuer = IssuerKey::generate(&mut rng);
            let gpk = *issuer.public_key();
            let member = issuer.issue(&issuer.new_group_secret(&mut rng), &mut rng);
            let prepared = PreparedGpk::new(&gpk);
            let e_a_g2 = prepared.member_pairing(&member).expect("issued key");
            let bump = |x: &Fq| x.add(&Fq::ONE);
            for mode in [BasesMode::PerMessage, BasesMode::FixedBases] {
                let mut product_rng = rng.clone();
                let sig = sign(&gpk, &member, &msg, mode, &mut rng);
                let fast = prepared.sign_as(&member, &e_a_g2, &msg, mode, &mut product_rng);
                prop_assert_eq!(fast.to_bytes(), sig.to_bytes(), "{:?}", mode);

                let moved_t2 = sig.t2.decompress().unwrap().add(&gpk.g1).into();
                let cases = [
                    ("honest", sig.clone()),
                    ("s_x", GroupSignature { s_x: bump(&sig.s_x), ..sig.clone() }),
                    ("c", GroupSignature { c: bump(&sig.c), ..sig.clone() }),
                    ("s_alpha", GroupSignature { s_alpha: bump(&sig.s_alpha), ..sig.clone() }),
                    ("s_delta", GroupSignature { s_delta: bump(&sig.s_delta), ..sig.clone() }),
                    ("T2", GroupSignature { t2: moved_t2, ..sig.clone() }),
                ];
                let v = psi(&h0_bases(&gpk, &msg, &sig.r, mode).1);
                let v_pre = h0_verify_bases(&gpk, &msg, &sig.r, mode).1;
                for (what, s) in cases {
                    let (_, t2) = s.commitments().unwrap();
                    let prepared_r2 = prepared.r2(&s, &t2, &v_pre).map(|g| g.to_bytes());
                    let paper = paper_r2(&gpk, &s, &t2, &v).map(|g| g.to_bytes());
                    prop_assert_eq!(prepared_r2, paper, "{:?} {}", mode, what);
                    let want = if what == "honest" { Ok(()) } else { Err(VerifyError::BadChallenge) };
                    prop_assert_eq!(verify(&gpk, &msg, &s, mode), want, "{:?} {}", mode, what);
                    prop_assert_eq!(prepared.verify(&msg, &s, mode), want, "{:?} {}", mode, what);
                }
            }
        }
    }
}
