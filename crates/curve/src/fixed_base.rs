//! The fixed-base scalar-multiplication table of the subgroup generator
//! (windowed precomputation).
//!
//! `k·G` for a fresh scalar — random subgroup points, beacon shares, ECDSA
//! keys and nonces, member keys — is the one exponentiation whose base is
//! fixed for the life of the process. A [`FixedBaseTable`] precomputes every
//! multiple `d·2^{4j}·G` (`d ∈ 1..16`) once, after which a 160-bit scalar
//! multiplication is ≈40 *mixed additions* and zero doublings, roughly 3×
//! cheaper than the variable-base Montgomery ladder.
//!
//! Table entries are normalized to affine in one batched inversion
//! ([`ProjectivePoint::batch_to_affine`]), so building the table costs about
//! as much as three generic scalar multiplications.

use std::sync::OnceLock;

use peace_bigint::Uint;
use peace_field::Fq;

use crate::ops;
use crate::point::{generator, AffinePoint, ProjectivePoint};

/// Radix-16 digits per window; 4 bits each, aligned so windows never
/// straddle a limb boundary.
const WINDOW_BITS: u32 = 4;
const DIGITS_PER_WINDOW: usize = 15; // 1..=15 (0 contributes nothing)

/// Precomputed multiples of a fixed base point.
///
/// `windows[j][d-1] = d·2^{4j}·P`, so `k·P = Σⱼ windows[j][kⱼ − 1]` where
/// `kⱼ` is the j-th radix-16 digit of `k` — a sum of at most
/// `⌈bits/4⌉` mixed additions.
#[derive(Clone, Debug)]
pub(crate) struct FixedBaseTable {
    windows: Vec<[AffinePoint; DIGITS_PER_WINDOW]>,
}

impl FixedBaseTable {
    /// Builds the table for scalars up to `max_bits` bits.
    pub fn new(base: &AffinePoint, max_bits: u32) -> Self {
        let n_windows = max_bits.div_ceil(WINDOW_BITS).max(1) as usize;
        let mut proj = Vec::with_capacity(n_windows * DIGITS_PER_WINDOW);
        // cur = 2^{4j}·P at the top of each iteration.
        let mut cur = base.to_projective();
        for _ in 0..n_windows {
            let mut multiple = cur;
            proj.push(multiple); // 1·cur
            for _ in 2..=DIGITS_PER_WINDOW {
                multiple = multiple.add(&cur);
                proj.push(multiple);
            }
            cur = multiple.add(&cur); // 16·cur
        }
        let affine = ProjectivePoint::batch_to_affine(&proj);
        let windows = affine
            .chunks_exact(DIGITS_PER_WINDOW)
            .map(|chunk| {
                let mut row = [AffinePoint::IDENTITY; DIGITS_PER_WINDOW];
                row.copy_from_slice(chunk);
                row
            })
            .collect();
        Self { windows }
    }

    /// Scalar capacity in bits.
    pub fn max_bits(&self) -> u32 {
        self.windows.len() as u32 * WINDOW_BITS
    }

    /// `k·P` by table lookup — additions only, no doublings.
    ///
    /// Counts as one 𝔾₁ exponentiation in the op-counter layer (it replaces
    /// one, and E2's "8 exponentiations" accounting must keep matching).
    ///
    /// # Panics
    ///
    /// Panics if `k` needs more bits than the table holds.
    pub fn mul_uint<const M: usize>(&self, k: &Uint<M>) -> AffinePoint {
        ops::record_g1_mul();
        assert!(
            k.bits() <= self.max_bits(),
            "scalar exceeds fixed-base table capacity"
        );
        let limbs = k.as_limbs();
        let mut acc = ProjectivePoint::IDENTITY;
        for (j, row) in self.windows.iter().enumerate() {
            let bit = j as u32 * WINDOW_BITS;
            let digit = (limbs[(bit / 64) as usize] >> (bit % 64)) & 0xF;
            if digit != 0 {
                acc = acc.add_affine(&row[digit as usize - 1]);
            }
        }
        acc.to_affine()
    }

    /// `k·P` for a scalar-field exponent.
    pub fn mul(&self, k: &Fq) -> AffinePoint {
        self.mul_uint(&k.to_uint())
    }
}

/// The process-wide table for the subgroup generator, built on first use.
pub(crate) fn generator_table() -> &'static FixedBaseTable {
    static TABLE: OnceLock<FixedBaseTable> = OnceLock::new();
    TABLE.get_or_init(|| FixedBaseTable::new(&generator(), Fq::NUM_BITS))
}

/// `k·G` via the shared generator table (the hot path for random subgroup
/// points, beacons, and key generation).
pub fn mul_generator(k: &Fq) -> AffinePoint {
    generator_table().mul(k)
}
