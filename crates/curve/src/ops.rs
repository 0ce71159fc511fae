//! Operation counters for the curve layer (experiment E2: §V.C
//! computational overhead, "signature generation requires about 8
//! exponentiations … and 2 bilinear map computations").
//!
//! Every record lands twice: in the process-wide `peace-telemetry`
//! registry under `crypto.*` (what daemons export), and in a tally owned by
//! the recording thread (what measurements read). A count taken around a
//! region therefore holds exactly that region's operations, whatever other
//! threads are doing; `peace_pairing::ops::OpScope` brackets such regions.

use std::cell::Cell;
use std::sync::{Arc, OnceLock};

use peace_telemetry::{global, Counter};

/// Registry name of the 𝔾₁/𝔾₂ scalar-multiplication counter.
pub const G1_MUL: &str = "crypto.g1_mul";
/// Registry name of the point-decompression counter.
pub const G1_DECOMPRESS: &str = "crypto.g1_decompress";

fn g1_muls() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| global().counter(G1_MUL))
}

fn g1_decompressions() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| global().counter(G1_DECOMPRESS))
}

thread_local! {
    static LOCAL_G1_MULS: Cell<u64> = const { Cell::new(0) };
    static LOCAL_G1_DECOMPRESSIONS: Cell<u64> = const { Cell::new(0) };
}

/// Records one scalar multiplication in 𝔾₁/𝔾₂ (the paper's "exponentiation").
#[inline]
pub fn record_g1_mul() {
    g1_muls().inc();
    absorb_g1_muls(1);
}

/// Group exponentiations recorded by (or absorbed into) this thread so far.
pub fn g1_mul_count() -> u64 {
    LOCAL_G1_MULS.with(Cell::get)
}

/// Adds `n` to this thread's tally only — for a thread that joins workers
/// and takes over the counts they recorded on its behalf.
pub fn absorb_g1_muls(n: u64) {
    LOCAL_G1_MULS.with(|c| c.set(c.get() + n));
}

/// Records one point decompression: a compressed encoding lifted to a
/// curve point by a field square root (the subgroup check that follows it
/// counts as a scalar multiplication of its own).
#[inline]
pub fn record_g1_decompress() {
    g1_decompressions().inc();
    absorb_g1_decompressions(1);
}

/// Decompressions recorded by (or absorbed into) this thread so far.
pub fn g1_decompress_count() -> u64 {
    LOCAL_G1_DECOMPRESSIONS.with(Cell::get)
}

/// [`absorb_g1_muls`] for the decompression tally.
pub fn absorb_g1_decompressions(n: u64) {
    LOCAL_G1_DECOMPRESSIONS.with(|c| c.set(c.get() + n));
}
