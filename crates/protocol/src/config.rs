//! Protocol timing and mode parameters.

use peace_groupsig::BasesMode;

/// Maximum delay between M̃.1 and M̃.2 (`ts₂ − ts₁` window, ms).
pub const HANDSHAKE_WINDOW: u64 = 10_000;

/// How long a router keeps beacon DH state before pruning (ms). A
/// broadcast beacon is served for at most half of this.
pub const BEACON_LIFETIME: u64 = 30_000;

/// Sliding window for counting verification failures (ms).
pub const DOS_WINDOW: u64 = 10_000;

/// Failures within [`DOS_WINDOW`] that trigger puzzle mode: routers detect
/// floods automatically and toggle puzzle mode (§V.A: "when there is no
/// evidence of attack, a mesh router processes (M.2) normally. But when
/// under a suspected DoS attack…").
pub const DOS_THRESHOLD: usize = 8;

/// Bound on a user's simultaneous half-open handshakes (pending DH
/// state); excess entries are LRU-evicted (state-exhaustion defense).
pub const MAX_PENDING_HANDSHAKES: usize = 64;

/// Bound on a router's live beacon DH states; excess entries are
/// LRU-evicted before the lifetime prune would reach them.
pub const MAX_ACTIVE_BEACONS: usize = 128;

/// Bound on a router's outbox of transcripts not yet reported to the NO
/// (§IV.D step 1). Every push past it drops the oldest, so the outbox
/// holds at most ≈ 1 MiB whatever the handshake rate or NO outage, and a
/// full outbox (≈ 533 B per encoded transcript) fits one report frame.
pub const MAX_PENDING_TRANSCRIPTS: usize = 1024;

/// Transcripts a router daemon reports as soon as its outbox holds them,
/// besides its periodic report: a lane group's multiple, below the cap.
pub const REPORT_BATCH: usize = 256;

const _: () = assert!(MAX_PENDING_HANDSHAKES > 0 && MAX_ACTIVE_BEACONS > 0);
const _: () = assert!(REPORT_BATCH.is_multiple_of(8) && REPORT_BATCH < MAX_PENDING_TRANSCRIPTS);

/// Tunable parameters shared by users and routers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Maximum clock skew / message age accepted for `ts` fields (ms).
    pub timestamp_window: u64,
    /// Maximum age of a CRL/URL before a client rejects the beacon (ms) —
    /// the revocation-list update period of §V.A.
    pub list_max_age: u64,
    /// Group-signature bases mode (per-message = paper default).
    pub bases_mode: BasesMode,
    /// Puzzle parameters used when a router is under suspected DoS attack:
    /// `(sub_puzzles, difficulty_bits)`.
    pub puzzle_params: (u8, u8),
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            timestamp_window: 5_000,
            list_max_age: 60_000,
            bases_mode: BasesMode::PerMessage,
            puzzle_params: (2, 10),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = ProtocolConfig::default();
        assert!(c.timestamp_window > 0);
        assert!(c.list_max_age >= c.timestamp_window);
        // A broadcast beacon is held for half of the shorter of the two.
        assert!(BEACON_LIFETIME >= c.timestamp_window);
        assert_eq!(c.bases_mode, BasesMode::PerMessage);
        assert!(crate::RetryPolicy::default().max_attempts > 0);
    }
}
