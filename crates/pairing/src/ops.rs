//! Operation counters for the pairing layer (experiment E2).
//!
//! Every record lands twice: in the process-wide `peace-telemetry`
//! registry under `crypto.*`, which `peace-noded --metrics-json` and the
//! bench emitters export, and in a tally owned by the recording thread,
//! which is what [`OpSnapshot`] and [`OpScope`] read. A measurement
//! bracketed on one thread therefore counts that thread's operations and
//! nothing else, with no lock and no reset; code that fans work out to
//! worker threads hands their counts back with [`OpSnapshot::absorb`].

use std::cell::Cell;
use std::sync::{Arc, OnceLock};

use peace_telemetry::{global, Counter};

/// Registry name of the bilinear-map counter.
pub const PAIRING: &str = "crypto.pairing";
/// Registry name of the 𝔾_T exponentiation counter.
pub const GT_EXP: &str = "crypto.gt_exp";
/// Registry name of the Miller-loop counter.
pub const MILLER_LOOP: &str = "crypto.miller_loop";
/// Registry name of the final-exponentiation counter.
pub const FINAL_EXP: &str = "crypto.final_exp";
/// Registry name of the prepared-line-table counter.
pub const MILLER_PREPARE: &str = "crypto.miller_prepare";

/// One counted operation: its registry name and its slot in the
/// per-thread tally.
#[derive(Clone, Copy)]
enum Op {
    Pairing,
    GtExp,
    MillerLoop,
    FinalExp,
    MillerPrepare,
}

const OPS: usize = 5;

thread_local! {
    static LOCAL: Cell<[u64; OPS]> = const { Cell::new([0; OPS]) };
}

fn local_add(op: Op, n: u64) {
    LOCAL.with(|c| {
        let mut tally = c.get();
        tally[op as usize] += n;
        c.set(tally);
    });
}

fn local(op: Op) -> u64 {
    LOCAL.with(|c| c.get()[op as usize])
}

fn record(op: Op) {
    static HANDLES: OnceLock<[Arc<Counter>; OPS]> = OnceLock::new();
    let handles = HANDLES.get_or_init(|| {
        [PAIRING, GT_EXP, MILLER_LOOP, FINAL_EXP, MILLER_PREPARE].map(|name| global().counter(name))
    });
    handles[op as usize].inc();
    local_add(op, 1);
}

/// Records one bilinear-map evaluation.
#[inline]
pub fn record_pairing() {
    record(Op::Pairing);
}

/// Records one exponentiation in `𝔾_T`.
#[inline]
pub fn record_gt_exp() {
    record(Op::GtExp);
}

/// Records one Miller loop (the `f_{q,P}(φ(Q))` evaluation).
#[inline]
pub fn record_miller_loop() {
    record(Op::MillerLoop);
}

/// Records one final exponentiation (one `f ↦ f^((p²−1)/q)` pass; a batch
/// sharing a single hard-part sweep counts once).
#[inline]
pub fn record_final_exp() {
    record(Op::FinalExp);
}

/// Records one line table prepared (the point-arithmetic half of a Miller
/// loop, run once for a fixed first argument; see `MillerLines`). Each
/// evaluation against the table counts as a Miller loop.
#[inline]
pub fn record_miller_prepare() {
    record(Op::MillerPrepare);
}

/// A counted measurement region on the current thread: remembers the
/// thread's tallies on entry, and [`Self::counts`] reports what has been
/// added since — this thread's operations plus whatever it absorbed from
/// workers it joined. Regions on different threads never see each other.
#[must_use = "a scope measures from where it was entered"]
#[derive(Debug)]
pub struct OpScope {
    start: OpSnapshot,
}

impl OpScope {
    /// Starts measuring from here.
    pub fn enter() -> Self {
        Self {
            start: OpSnapshot::capture(),
        }
    }

    /// Counts recorded since this scope was entered.
    pub fn counts(&self) -> OpSnapshot {
        OpSnapshot::capture().since(&self.start)
    }
}

/// Snapshot of every operation counter in the crypto stack, for the E2
/// experiment ("signature generation requires about 8 exponentiations and 2
/// bilinear map computations").
///
/// `pairings` counts *logical* bilinear-map evaluations (the paper's unit);
/// `miller_loops`/`final_exps` break those down into their two phases, which
/// is what the shared-Miller revocation sweep actually saves: a sweep over
/// `n` tokens costs `n + 1` Miller loops (`n` of them evaluations against
/// one prepared line table) and `1` final exponentiation instead of `2n`
/// of each.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Scalar multiplications in 𝔾₁/𝔾₂ (the paper's group exponentiations).
    pub g1_muls: u64,
    /// Exponentiations in 𝔾_T.
    pub gt_exps: u64,
    /// Bilinear map evaluations.
    pub pairings: u64,
    /// Miller loops (including those inside `pairings`).
    pub miller_loops: u64,
    /// Final exponentiations (batched sweeps count once).
    pub final_exps: u64,
    /// Line tables prepared (one per signature a sweep runs for).
    pub miller_prepares: u64,
    /// Compressed points lifted to the curve (one square root each; the
    /// subgroup check that follows is one of `g1_muls`).
    pub g1_decompressions: u64,
}

impl OpSnapshot {
    /// This thread's tallies so far (monotone; compare two captures with
    /// [`Self::since`]).
    pub fn capture() -> Self {
        Self {
            g1_muls: peace_curve::ops::g1_mul_count(),
            gt_exps: local(Op::GtExp),
            pairings: local(Op::Pairing),
            miller_loops: local(Op::MillerLoop),
            final_exps: local(Op::FinalExp),
            miller_prepares: local(Op::MillerPrepare),
            g1_decompressions: peace_curve::ops::g1_decompress_count(),
        }
    }

    /// Starts a measurement region on this thread ([`OpScope::enter`]).
    pub fn scope() -> OpScope {
        OpScope::enter()
    }

    /// Adds these counts to the current thread's tallies (the registry
    /// already has them): a thread that fans work out calls this with what
    /// each worker recorded, so a scope around the fan-out sees the work.
    pub fn absorb(&self) {
        peace_curve::ops::absorb_g1_muls(self.g1_muls);
        local_add(Op::GtExp, self.gt_exps);
        local_add(Op::Pairing, self.pairings);
        local_add(Op::MillerLoop, self.miller_loops);
        local_add(Op::FinalExp, self.final_exps);
        local_add(Op::MillerPrepare, self.miller_prepares);
        peace_curve::ops::absorb_g1_decompressions(self.g1_decompressions);
    }

    /// Difference `self − earlier` (counts in a bracketed region).
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            g1_muls: self.g1_muls - earlier.g1_muls,
            gt_exps: self.gt_exps - earlier.gt_exps,
            pairings: self.pairings - earlier.pairings,
            miller_loops: self.miller_loops - earlier.miller_loops,
            final_exps: self.final_exps - earlier.final_exps,
            miller_prepares: self.miller_prepares - earlier.miller_prepares,
            g1_decompressions: self.g1_decompressions - earlier.g1_decompressions,
        }
    }

    /// Total "exponentiation-like" operations (group muls + Gt exps).
    pub fn total_exps(&self) -> u64 {
        self.g1_muls + self.gt_exps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_starts_at_zero_and_counts() {
        let scope = OpScope::enter();
        assert_eq!(scope.counts(), OpSnapshot::default());
        record_pairing();
        record_gt_exp();
        record_gt_exp();
        peace_curve::ops::record_g1_mul();
        let got = scope.counts();
        assert_eq!(got.pairings, 1);
        assert_eq!(got.gt_exps, 2);
        assert_eq!(got.g1_muls, 1);
        assert_eq!(got.total_exps(), 3);
    }

    #[test]
    fn scopes_do_not_interleave() {
        // Threads bracket their own regions at the same time; each must
        // observe exactly its own operations.
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (1..=4u64)
            .map(|n| {
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let scope = OpScope::enter();
                    barrier.wait();
                    for _ in 0..n {
                        record_miller_loop();
                    }
                    barrier.wait();
                    scope.counts().miller_loops == n
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap_or(false));
        }
    }

    #[test]
    fn absorbed_worker_counts_reach_the_parent_scope() {
        let scope = OpScope::enter();
        let worker = std::thread::spawn(|| {
            let scope = OpScope::enter();
            record_miller_loop();
            record_final_exp();
            scope.counts()
        })
        .join()
        .unwrap();
        assert_eq!(scope.counts(), OpSnapshot::default());
        worker.absorb();
        let got = scope.counts();
        assert_eq!((got.miller_loops, got.final_exps), (1, 1));
    }
}
