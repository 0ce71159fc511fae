//! Simulation metrics collected across experiments.

use std::collections::BTreeMap;

use peace_protocol::FaultStats;

/// Canonical failure-reason codes for losses the *simulator* observes
/// (as opposed to protocol rejections, which are keyed by
/// [`peace_protocol::ProtocolError::code`]). Same contract: snake_case,
/// stable once released, shared by every map in [`SimMetrics`].
pub mod reasons {
    /// A relay on the uplink path failed its pairwise handshake.
    pub const RELAY_CHAIN_FAILED: &str = "relay_chain_failed";
    /// Every delivery of the beacon (M.1) was dropped or undecodable.
    pub const CHANNEL_LOSS_M1: &str = "channel_loss_m1";
    /// Every delivery of the access request (M.2) was lost.
    pub const CHANNEL_LOSS_M2: &str = "channel_loss_m2";
    /// Every delivery of the access confirm (M.3) was lost.
    pub const CHANNEL_LOSS_M3: &str = "channel_loss_m3";
    /// Every delivery of the peer hello (M̃.1) was lost.
    pub const CHANNEL_LOSS_MT1: &str = "channel_loss_mt1";
    /// Every delivery of the peer response (M̃.2) was lost.
    pub const CHANNEL_LOSS_MT2: &str = "channel_loss_mt2";
    /// Every delivery of the peer confirm (M̃.3) was lost.
    pub const CHANNEL_LOSS_MT3: &str = "channel_loss_mt3";
}

/// Counters accumulated over a simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimMetrics {
    /// Successful user↔router authentications.
    pub auth_success: u64,
    /// Failed authentications by rejection reason.
    pub auth_fail: BTreeMap<String, u64>,
    /// Successful user↔user pairwise handshakes.
    pub peer_success: u64,
    /// Failed peer handshakes by reason.
    pub peer_fail: BTreeMap<String, u64>,
    /// Application payloads delivered end-to-end.
    pub data_delivered: u64,
    /// Total relay hops used by delivered uplink traffic.
    pub relay_hops: u64,
    /// Authentication attempts skipped because the user had no uplink
    /// path to any router (one per attempt, not per user).
    pub disconnected_users: u64,
    /// Successful authentications per router (load distribution).
    pub auths_by_router: BTreeMap<String, u64>,
    /// Duplicated/replayed handshake messages rejected idempotently
    /// (exactly-one-session guarantee held).
    pub duplicate_rejects: u64,
    /// Wire decode failures by message kind and error (mangled deliveries
    /// rejected before any crypto ran).
    pub decode_failures: BTreeMap<String, u64>,
    /// Handshake retries scheduled after transient failures.
    pub retries: u64,
    /// Handshakes abandoned after exhausting the retry budget.
    pub retries_exhausted: u64,
    /// Total simulation events processed.
    pub events_processed: u64,
    /// Faults the adversarial channel injected.
    pub fault_stats: FaultStats,
    /// Largest pending-state table observed on any endpoint (bounded-memory
    /// evidence).
    pub pending_high_water: usize,
    /// Half-open handshake entries shed by LRU pressure across endpoints.
    pub pending_evictions: u64,
}

impl SimMetrics {
    /// Records an authentication failure with its canonical reason code
    /// ([`peace_protocol::ProtocolError::code`] or a [`reasons`] constant —
    /// never a `Debug` rendering, which would drift with refactors).
    pub fn record_auth_fail(&mut self, code: &str) {
        *self.auth_fail.entry(code.to_owned()).or_insert(0) += 1;
    }

    /// Records a peer-handshake failure with its canonical reason code.
    pub fn record_peer_fail(&mut self, code: &str) {
        *self.peer_fail.entry(code.to_owned()).or_insert(0) += 1;
    }

    /// Records a wire decode failure for one message kind (`M1`…`Mt3`),
    /// keyed `<kind>/<WireError code>`.
    pub fn record_decode_fail(&mut self, kind: &str, err: &peace_wire::WireError) {
        *self
            .decode_failures
            .entry(format!("{kind}/{}", err.code()))
            .or_insert(0) += 1;
    }

    /// Total mangled deliveries rejected at the wire layer.
    pub fn decode_failure_total(&self) -> u64 {
        self.decode_failures.values().sum()
    }

    /// Total authentication attempts.
    pub fn auth_attempts(&self) -> u64 {
        self.auth_success + self.auth_fail.values().sum::<u64>()
    }

    /// Success rate over all attempts (1.0 when no attempts).
    pub fn auth_success_rate(&self) -> f64 {
        let attempts = self.auth_attempts();
        if attempts == 0 {
            1.0
        } else {
            self.auth_success as f64 / attempts as f64
        }
    }
}
