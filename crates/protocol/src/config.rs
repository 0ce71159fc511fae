//! Protocol timing and mode parameters.

use peace_groupsig::BasesMode;

use crate::transport::RetryPolicy;

/// Tunable parameters shared by users and routers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Maximum clock skew / message age accepted for `ts` fields (ms).
    pub timestamp_window: u64,
    /// Maximum age of a CRL/URL before a client rejects the beacon (ms) —
    /// the revocation-list update period of §V.A.
    pub list_max_age: u64,
    /// Maximum delay between M̃.1 and M̃.2 (`ts₂ − ts₁` window, ms).
    pub handshake_window: u64,
    /// How long a router keeps beacon DH state before pruning (ms). A
    /// broadcast beacon is served for at most half of this.
    pub beacon_lifetime: u64,
    /// Group-signature bases mode (per-message = paper default).
    pub bases_mode: BasesMode,
    /// Puzzle parameters used when a router is under suspected DoS attack:
    /// `(sub_puzzles, difficulty_bits)`.
    pub puzzle_params: (u8, u8),
    /// Whether routers detect floods automatically and toggle puzzle mode
    /// (§V.A: "when there is no evidence of attack, a mesh router processes
    /// (M.2) normally. But when under a suspected DoS attack…").
    pub dos_auto_defense: bool,
    /// Sliding window for counting verification failures (ms).
    pub dos_window: u64,
    /// Failures within the window that trigger puzzle mode.
    pub dos_threshold: usize,
    /// Bound on a user's simultaneous half-open handshakes (pending DH
    /// state); excess entries are LRU-evicted (state-exhaustion defense).
    pub max_pending_handshakes: usize,
    /// Bound on a router's live beacon DH states; excess entries are
    /// LRU-evicted before the lifetime prune would reach them.
    pub max_active_beacons: usize,
    /// Retry/backoff policy for handshakes lost to the channel.
    pub retry: RetryPolicy,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            timestamp_window: 5_000,
            list_max_age: 60_000,
            handshake_window: 10_000,
            beacon_lifetime: 30_000,
            bases_mode: BasesMode::PerMessage,
            puzzle_params: (2, 10),
            dos_auto_defense: true,
            dos_window: 10_000,
            dos_threshold: 8,
            max_pending_handshakes: 64,
            max_active_beacons: 128,
            retry: RetryPolicy::default(),
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
        assert!(c.beacon_lifetime >= c.timestamp_window);
        assert_eq!(c.bases_mode, BasesMode::PerMessage);
        assert!(c.max_pending_handshakes > 0);
        assert!(c.max_active_beacons > 0);
        assert!(c.retry.max_attempts > 0);
    }
}
