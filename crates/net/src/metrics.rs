//! Net-layer observability: per-daemon counters, handshake-leg latency
//! histograms, and per-connection statistics.
//!
//! Each daemon owns one [`NetMetrics`], which is a view over a private
//! `peace-telemetry` [`Registry`] (private so several daemons in one
//! process — the loopback tests, `peace-noded demo` — never collide).
//! The hot path holds pre-resolved `Arc` handles: an increment is one
//! relaxed atomic add, exactly as cheap as the bare `AtomicU64` fields
//! this module used to carry. [`NetMetrics::telemetry`] exports the whole
//! registry as a schema-versioned [`Snapshot`] for `--metrics-json`.

use std::sync::Arc;

use peace_telemetry::{Counter, Histogram, Registry, Snapshot, Timer};

use crate::clock::wall_ms;

/// Shared per-daemon counters and latency histograms. One instance is
/// owned by each daemon and cloned (via `Arc`) into every connection
/// handler; all increments are relaxed atomics — the counters are
/// monotone and read only in snapshots.
#[derive(Debug)]
pub struct NetMetrics {
    registry: Registry,
    /// Frames successfully read.
    pub frames_in: Arc<Counter>,
    /// Frames successfully written.
    pub frames_out: Arc<Counter>,
    /// Payload bytes read (excluding frame headers).
    pub bytes_in: Arc<Counter>,
    /// Payload bytes written (excluding frame headers).
    pub bytes_out: Arc<Counter>,
    /// Handshakes completed (M.3 issued / session established).
    pub handshakes_ok: Arc<Counter>,
    /// Handshakes rejected or failed.
    pub handshakes_fail: Arc<Counter>,
    /// Read/write deadline misses.
    pub timeouts: Arc<Counter>,
    /// Inbound frames rejected for exceeding the size bound.
    pub oversize_rejected: Arc<Counter>,
    /// Frames that failed envelope decoding.
    pub decode_failures: Arc<Counter>,
    /// Connections accepted.
    pub connections_accepted: Arc<Counter>,
    /// Connections turned away at the connection-count limit.
    pub connections_rejected: Arc<Counter>,
    /// Client side: dials this endpoint made that the *peer* turned away
    /// at its connection cap (an explicit BUSY reject, or an accept-queue
    /// overflow surfacing as a refused/reset dial). Always a transient
    /// outcome — open-loop load workers back off and retry instead of
    /// counting a hard failure.
    pub conn_rejected: Arc<Counter>,
    /// Work refused at a full bounded queue, at either of two sites: a
    /// reply past a connection's outbound bound (`max_queue_frames` /
    /// `max_queue_bytes` — the peer is not reading, and is dropped; pinned
    /// by `tests/event_loop.rs`), and an M.2 arriving at a full verify
    /// queue (answered BUSY; no recorded run has reached it, and a test of
    /// it stays with ROADMAP item 6, defined behaviour under overload).
    pub backpressure_events: Arc<Counter>,
    /// Handler threads that panicked (must stay 0; asserted by tests).
    pub handler_panics: Arc<Counter>,
    /// Ledger appends/flushes that failed (durability degraded, not fatal).
    pub ledger_errors: Arc<Counter>,
    /// Session transcripts durably appended to the ledger.
    pub ledger_sessions: Arc<Counter>,
    /// Completed checkpoint-gossip sync rounds with a peer replica.
    pub repl_rounds: Arc<Counter>,
    /// Replication ranges served to pulling peers.
    pub repl_ranges_out: Arc<Counter>,
    /// Records ingested into mirror shards from peer replicas.
    pub repl_records_in: Arc<Counter>,
    /// Transcript reports that succeeded only on a non-primary NO replica.
    pub failovers: Arc<Counter>,
    /// Pending transcripts dropped (oldest-first) at the outbox cap after
    /// every configured NO replica refused a report.
    pub transcripts_dropped: Arc<Counter>,
    /// Signed URL deltas served (NO side) or applied (router side).
    pub url_deltas_out: Arc<Counter>,
    /// Router delta refreshes that had to fall back to a full bulletin
    /// fetch (stale epoch, behind the diff log, or a chain refusal).
    pub url_delta_fallbacks: Arc<Counter>,
    /// User side: URL tokens decoded (curve and subgroup checked) while
    /// processing beacons. A count only: nothing about which list.
    pub url_tokens_decoded: Arc<Counter>,
    /// User side: beacons whose URL section was byte-identical to the list
    /// already held, and so cost no decoding.
    pub url_sections_reused: Arc<Counter>,
    /// User side: GetBeacon → Beacon leg of the handshake (µs).
    pub hs_beacon_us: Arc<Histogram>,
    /// User side: AccessRequest → AccessConfirm leg (µs).
    pub hs_confirm_us: Arc<Histogram>,
    /// User side: whole handshake, connect to session key (µs).
    pub hs_total_us: Arc<Histogram>,
    /// Router side: one record per access request that reaches the
    /// Σ-check — the group-signature check and the revocation stage, both
    /// with the router unlocked, then the hold that acts on them
    /// (admission; the revocation stage again if the list changed
    /// meanwhile). Lock waits excluded (µs).
    pub access_verify_us: Arc<Histogram>,
    /// Router side: how long one access request held the router lock —
    /// one record for the §IV.B gates before its checks, one for the step
    /// after them (µs). Neither runs a pairing unless a list update landed
    /// between them, so this is what one request costs every other.
    pub router_hold_us: Arc<Histogram>,
    /// Application echo round-trip over an established session (µs).
    pub frame_rtt_us: Arc<Histogram>,
}

impl NetMetrics {
    /// Creates a fresh metrics view over its own private registry.
    pub fn new() -> Self {
        let registry = Registry::new();
        let c = |name: &str| registry.counter(name);
        let h = |name: &str| registry.histogram(name);
        Self {
            frames_in: c("net.frames_in"),
            frames_out: c("net.frames_out"),
            bytes_in: c("net.bytes_in"),
            bytes_out: c("net.bytes_out"),
            handshakes_ok: c("net.handshakes_ok"),
            handshakes_fail: c("net.handshakes_fail"),
            timeouts: c("net.timeouts"),
            oversize_rejected: c("net.oversize_rejected"),
            decode_failures: c("net.decode_failures"),
            connections_accepted: c("net.connections_accepted"),
            connections_rejected: c("net.connections_rejected"),
            conn_rejected: c("net.conn_rejected"),
            backpressure_events: c("net.backpressure_events"),
            handler_panics: c("net.handler_panics"),
            ledger_errors: c("net.ledger_errors"),
            ledger_sessions: c("net.ledger_sessions"),
            repl_rounds: c("net.repl_rounds"),
            repl_ranges_out: c("net.repl_ranges_out"),
            repl_records_in: c("net.repl_records_in"),
            failovers: c("net.failovers"),
            transcripts_dropped: c("net.transcripts_dropped"),
            url_deltas_out: c("net.url_deltas_out"),
            url_delta_fallbacks: c("net.url_delta_fallbacks"),
            url_tokens_decoded: c("net.url_tokens_decoded"),
            url_sections_reused: c("net.url_sections_reused"),
            hs_beacon_us: h("net.hs_beacon_us"),
            hs_confirm_us: h("net.hs_confirm_us"),
            hs_total_us: h("net.hs_total_us"),
            access_verify_us: h("net.access_verify_us"),
            router_hold_us: h("net.router_hold_us"),
            frame_rtt_us: h("net.frame_rtt_us"),
            registry,
        }
    }

    /// Starts a RAII timer that records into `hist` (one of this
    /// view's histograms) when dropped.
    pub fn start_timer(&self, hist: &Arc<Histogram>) -> Timer {
        Registry::start_timer(hist)
    }

    /// Records a structured event (wall-clock stamped) into the bounded
    /// ring, e.g. `handshake_fail` with the error's stable code.
    pub fn event(&self, code: &str, detail: &str) {
        self.registry.event(code, detail, wall_ms());
    }

    /// Takes a consistent-enough snapshot (counters are independent).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            frames_in: self.frames_in.get(),
            frames_out: self.frames_out.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            handshakes_ok: self.handshakes_ok.get(),
            handshakes_fail: self.handshakes_fail.get(),
            timeouts: self.timeouts.get(),
            oversize_rejected: self.oversize_rejected.get(),
            decode_failures: self.decode_failures.get(),
            connections_accepted: self.connections_accepted.get(),
            connections_rejected: self.connections_rejected.get(),
            conn_rejected: self.conn_rejected.get(),
            backpressure_events: self.backpressure_events.get(),
            handler_panics: self.handler_panics.get(),
            ledger_errors: self.ledger_errors.get(),
            ledger_sessions: self.ledger_sessions.get(),
            repl_rounds: self.repl_rounds.get(),
            repl_ranges_out: self.repl_ranges_out.get(),
            repl_records_in: self.repl_records_in.get(),
            failovers: self.failovers.get(),
            transcripts_dropped: self.transcripts_dropped.get(),
            url_deltas_out: self.url_deltas_out.get(),
            url_delta_fallbacks: self.url_delta_fallbacks.get(),
            url_tokens_decoded: self.url_tokens_decoded.get(),
            url_sections_reused: self.url_sections_reused.get(),
        }
    }

    /// Exports everything this daemon recorded — counters, histograms,
    /// events — as one schema-versioned telemetry snapshot.
    pub fn telemetry(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

impl Default for NetMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of the [`NetMetrics`] counters (histograms and
/// events live in [`NetMetrics::telemetry`] snapshots).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Frames successfully read.
    pub frames_in: u64,
    /// Frames successfully written.
    pub frames_out: u64,
    /// Payload bytes read.
    pub bytes_in: u64,
    /// Payload bytes written.
    pub bytes_out: u64,
    /// Handshakes completed.
    pub handshakes_ok: u64,
    /// Handshakes rejected or failed.
    pub handshakes_fail: u64,
    /// Deadline misses.
    pub timeouts: u64,
    /// Oversize frames rejected.
    pub oversize_rejected: u64,
    /// Envelope decode failures.
    pub decode_failures: u64,
    /// Connections accepted.
    pub connections_accepted: u64,
    /// Connections rejected at the limit.
    pub connections_rejected: u64,
    /// Client side: dials the peer turned away at its connection cap.
    pub conn_rejected: u64,
    /// Backpressure refusals.
    pub backpressure_events: u64,
    /// Handler panics (must be 0).
    pub handler_panics: u64,
    /// Failed ledger appends/flushes.
    pub ledger_errors: u64,
    /// Session transcripts durably appended.
    pub ledger_sessions: u64,
    /// Completed gossip sync rounds.
    pub repl_rounds: u64,
    /// Replication ranges served to peers.
    pub repl_ranges_out: u64,
    /// Records ingested from peer replicas.
    pub repl_records_in: u64,
    /// Reports that failed over to a non-primary replica.
    pub failovers: u64,
    /// Transcripts dropped at the bounded outbox cap.
    pub transcripts_dropped: u64,
    /// Signed URL deltas served/applied.
    pub url_deltas_out: u64,
    /// Delta refreshes that fell back to a full bulletin fetch.
    pub url_delta_fallbacks: u64,
    /// URL tokens decoded while processing beacons.
    pub url_tokens_decoded: u64,
    /// Beacons whose URL section was the list already held.
    pub url_sections_reused: u64,
}

impl MetricsSnapshot {
    /// Sums `other` into `self`, field by field. The sharded event-loop
    /// runtime keeps one [`NetMetrics`] per I/O shard (plus one for the
    /// verify pool and one for daemon-initiated outbound dials) and
    /// presents their sum as the daemon's counter view.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.handshakes_ok += other.handshakes_ok;
        self.handshakes_fail += other.handshakes_fail;
        self.timeouts += other.timeouts;
        self.oversize_rejected += other.oversize_rejected;
        self.decode_failures += other.decode_failures;
        self.connections_accepted += other.connections_accepted;
        self.connections_rejected += other.connections_rejected;
        self.conn_rejected += other.conn_rejected;
        self.backpressure_events += other.backpressure_events;
        self.handler_panics += other.handler_panics;
        self.ledger_errors += other.ledger_errors;
        self.ledger_sessions += other.ledger_sessions;
        self.repl_rounds += other.repl_rounds;
        self.repl_ranges_out += other.repl_ranges_out;
        self.repl_records_in += other.repl_records_in;
        self.failovers += other.failovers;
        self.transcripts_dropped += other.transcripts_dropped;
        self.url_deltas_out += other.url_deltas_out;
        self.url_delta_fallbacks += other.url_delta_fallbacks;
        self.url_tokens_decoded += other.url_tokens_decoded;
        self.url_sections_reused += other.url_sections_reused;
    }
}

/// Per-connection statistics, kept as plain integers on the connection
/// (single-threaded by construction) and snapshotted on demand.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Frames read on this connection.
    pub frames_in: u64,
    /// Frames written on this connection.
    pub frames_out: u64,
    /// Payload bytes read.
    pub bytes_in: u64,
    /// Payload bytes written.
    pub bytes_out: u64,
    /// Deadline misses observed.
    pub timeouts: u64,
    /// Envelope decode failures observed.
    pub decode_failures: u64,
}

impl ConnStats {
    /// Serializes the per-connection counters as JSON.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"frames_in\":{},\"frames_out\":{},\"bytes_in\":{},",
                "\"bytes_out\":{},\"timeouts\":{},\"decode_failures\":{}}}"
            ),
            self.frames_in,
            self.frames_out,
            self.bytes_in,
            self.bytes_out,
            self.timeouts,
            self.decode_failures,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_increments() {
        let m = NetMetrics::default();
        m.frames_in.inc();
        m.bytes_in.add(100);
        m.handshakes_ok.inc();
        let s = m.snapshot();
        assert_eq!(s.frames_in, 1);
        assert_eq!(s.bytes_in, 100);
        assert_eq!(s.handshakes_ok, 1);
        assert_eq!(s.handler_panics, 0);
    }

    #[test]
    fn telemetry_snapshot_carries_histograms_and_events() {
        let m = NetMetrics::new();
        m.handshakes_fail.inc();
        m.hs_total_us.record(1500);
        m.event("handshake_fail", "signer_revoked");
        let snap = m.telemetry();
        assert_eq!(snap.counters["net.handshakes_fail"], 1);
        assert_eq!(snap.histograms["net.hs_total_us"].count, 1);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].code, "handshake_fail");
        let json = snap.to_json();
        assert!(json.contains("\"net.hs_total_us\""));
        assert!(json.contains("\"schema\":\"peace-telemetry-v1\""));
    }

    #[test]
    fn instances_are_independent() {
        let a = NetMetrics::new();
        let b = NetMetrics::new();
        a.frames_in.inc();
        assert_eq!(a.snapshot().frames_in, 1);
        assert_eq!(b.snapshot().frames_in, 0);

        let c = ConnStats::default().to_json();
        assert!(c.contains("\"frames_in\":0"));
    }
}
