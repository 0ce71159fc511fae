//! Transport-agnostic session state machines: message in, step out.
//!
//! Per-connection protocol behavior is factored here as pure state
//! machines that touch no socket. The server roles ([`RouterSm`],
//! [`NoSm`]) are fed decoded frames by the event loop
//! ([`crate::reactor`]) from its
//! [`FrameDecoder`](crate::frame::FrameDecoder), which hands
//! [`Step::Offload`] to the worker pool (one request per task) and resumes
//! the machine with [`RouterSm::on_verify`] when the deferred outcome
//! comes back. The client role ([`UserSm`]) is fed by whoever holds the
//! connection — today the blocking loop in
//! [`UserAgent`](crate::UserAgent).
//!
//! The offload is one call to [`RouterShared::verify_access`], the only
//! place the access path (M.2 → verdict) is driven from: the router mutex
//! is held twice, briefly — for the §IV.B gates and for admission — and
//! **not** across the Σ-protocol check and the revocation sweep between
//! them, so concurrent requests run all of their pairings in parallel on
//! however many workers the pool has, and a beacon is never served behind
//! someone's sweep (`net.router_hold_us` is the two holds).
//!
//! The machines also own the **per-leg handshake histograms**
//! (`net.hs_beacon_us`, `net.hs_confirm_us`, `net.hs_total_us`), each
//! side recording into its own registry. Router side: beacon service
//! time, access-verify turnaround (request receipt → confirm ready,
//! queueing included), and the whole router-observed handshake (beacon
//! request receipt → confirm ready). Client side: `GetBeacon` out →
//! beacon in, M.2 out → M.3 accepted, and attempt begun (before the dial)
//! → session established.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use peace_ledger::{AccessRecord, LedgerRecord, ReplicatedLedger};
use peace_protocol::entities::{MeshRouter, NetworkOperator, UserClient};
use peace_protocol::{AccessConfirm, AccessRequest, ProtocolError, Session};
use rand::rngs::StdRng;
use rand::RngCore;

use crate::clock::wall_ms;
use crate::envelope::{reject_code, Bulletin, NodeMessage};
use crate::error::NetError;
use crate::metrics::NetMetrics;

use crate::daemon::lock_recover;

/// What the runtime must do next with a connection after feeding its
/// state machine one event.
#[derive(Debug)]
pub(crate) enum Step {
    /// Send the reply; keep the connection open.
    Reply(NodeMessage),
    /// Send the reply, then close the connection.
    ReplyClose(NodeMessage),
    /// Hand the access request to the verify pool; the machine is now
    /// awaiting [`RouterSm::on_verify`] and must not be fed further
    /// messages until it fires.
    Offload(Box<AccessRequest>),
    /// Close the connection without sending anything.
    Close,
}

/// The verdict on one access request, as produced by
/// [`RouterShared::verify_access`].
pub(crate) type VerifyOutcome = Result<(AccessConfirm, Session), ProtocolError>;

/// Shared router-daemon state the machine needs: the entity behind its
/// mutex and the daemon RNG for beacon nonces.
#[derive(Clone)]
pub(crate) struct RouterShared {
    pub(crate) router: Arc<Mutex<MeshRouter>>,
    pub(crate) rng: Arc<Mutex<StdRng>>,
    /// Test hook for panic containment: the next call at the armed
    /// [`trip`](Self::trip) point panics, once.
    #[cfg(test)]
    pub(crate) panic_at: Arc<std::sync::atomic::AtomicU8>,
}

#[cfg(test)]
impl RouterShared {
    pub(crate) const PANIC_ON_MESSAGE: u8 = 1;
    pub(crate) const PANIC_ON_VERIFY: u8 = 2;

    fn trip(&self, point: u8) {
        let armed = self
            .panic_at
            .compare_exchange(point, 0, Ordering::SeqCst, Ordering::SeqCst);
        assert!(armed.is_err(), "injected panic at point {point}");
    }
}

impl RouterShared {
    /// Runs one access request (M.2) to its verdict on the calling thread
    /// (see the module docs for the locking). `net.access_verify_us` gets
    /// one record per request that reaches the Σ-check, covering that
    /// check, the revocation stage after it and the router-state step that
    /// acts on both, but not the wait for the lock.
    pub(crate) fn verify_access(&self, req: &AccessRequest, metrics: &NetMetrics) -> VerifyOutcome {
        #[cfg(test)]
        self.trip(Self::PANIC_ON_VERIFY);
        let mut router = lock_recover(&self.router);
        let t0 = Instant::now();
        let pending = router.begin_access_request(req, wall_ms());
        drop(router);
        metrics.router_hold_us.record_since(t0);
        let t0 = Instant::now();
        let checked = pending?.verify();
        let unlocked = t0.elapsed();
        let mut router = lock_recover(&self.router);
        let t1 = Instant::now();
        let outcome = router.finish_access_request(checked, wall_ms());
        drop(router);
        let hold = t1.elapsed();
        metrics.router_hold_us.record_duration(hold);
        metrics.access_verify_us.record_duration(unlocked + hold);
        outcome
    }
}

/// Maps a protocol failure to the wire reject code the user agent keys
/// its retry decision on: revocation is terminal, everything else is
/// worth a fresh handshake (the request may simply have been mangled in
/// flight).
pub(crate) fn code_for(err: &ProtocolError) -> u16 {
    match err {
        ProtocolError::SignerRevoked | ProtocolError::CertificateRevoked => reject_code::REVOKED,
        _ => reject_code::AUTH_FAILED,
    }
}

/// Router-side per-connection machine: beacon requests and one M.2 →
/// M.3 handshake, then AEAD echo service on the established session.
pub(crate) struct RouterSm {
    shared: RouterShared,
    session: Option<Session>,
    /// Set when the connection's `GetBeacon` arrives; anchors
    /// `net.hs_total_us`.
    hs_started: Option<Instant>,
    /// Set when an `AccessRequest` is offloaded; anchors
    /// `net.hs_confirm_us` and marks the machine as awaiting a deferred
    /// verify outcome.
    verify_sent: Option<Instant>,
}

impl RouterSm {
    pub(crate) fn new(shared: RouterShared) -> Self {
        Self {
            shared,
            session: None,
            hs_started: None,
            verify_sent: None,
        }
    }

    /// True while an offloaded verification is in flight: the runtime
    /// must hold inbound frames until [`Self::on_verify`] resolves it.
    pub(crate) fn awaiting_verify(&self) -> bool {
        self.verify_sent.is_some()
    }

    /// Abandons an in-flight offload without an outcome: the runtime
    /// could not enqueue the job (verify pool saturated) and will send
    /// its own transient BUSY reject. The machine returns to the
    /// pre-request state so the peer may retry on the same connection.
    pub(crate) fn abort_verify(&mut self) {
        self.verify_sent = None;
        self.hs_started = None;
    }

    /// An undecodable frame before/after any message: not worth killing
    /// the connection over before authentication (fault proxy, hostile
    /// peer); tell the peer and keep listening.
    pub(crate) fn on_decode_error(&self) -> Step {
        Step::Reply(NodeMessage::Reject {
            code: reject_code::MALFORMED,
            detail: "undecodable envelope".to_owned(),
        })
    }

    pub(crate) fn on_message(&mut self, msg: NodeMessage, metrics: &NetMetrics) -> Step {
        #[cfg(test)]
        self.shared.trip(RouterShared::PANIC_ON_MESSAGE);
        match msg {
            NodeMessage::GetBeacon => {
                let t0 = Instant::now();
                self.hs_started = Some(t0);
                let beacon = {
                    let mut r = lock_recover(&self.shared.router);
                    let mut g = lock_recover(&self.shared.rng);
                    r.current_beacon(wall_ms(), &mut *g)
                };
                metrics.hs_beacon_us.record_since(t0);
                Step::Reply(NodeMessage::Beacon(Box::new(beacon)))
            }
            NodeMessage::AccessRequest(req) => {
                self.verify_sent = Some(Instant::now());
                Step::Offload(req)
            }
            NodeMessage::Data(ciphertext) => match self.session.as_mut() {
                Some(sess) => match sess.open_data(&ciphertext) {
                    Ok(plain) => {
                        let echo = sess.seal_data(&plain);
                        Step::Reply(NodeMessage::Data(echo))
                    }
                    Err(_) => {
                        // Strict in-order AEAD: a bad record is fatal to
                        // the session (no resync point).
                        Step::ReplyClose(NodeMessage::Reject {
                            code: reject_code::MALFORMED,
                            detail: "AEAD record rejected".to_owned(),
                        })
                    }
                },
                None => Step::Reply(NodeMessage::Reject {
                    code: reject_code::NO_SESSION,
                    detail: "data before handshake".to_owned(),
                }),
            },
            NodeMessage::Bye => Step::Close,
            _ => Step::ReplyClose(NodeMessage::Reject {
                code: reject_code::MALFORMED,
                detail: "unexpected message for a router".to_owned(),
            }),
        }
    }

    /// Resumes the machine with the deferred verification outcome.
    pub(crate) fn on_verify(&mut self, outcome: VerifyOutcome, metrics: &NetMetrics) -> Step {
        if let Some(sent) = self.verify_sent.take() {
            metrics.hs_confirm_us.record_since(sent);
        }
        match outcome {
            Ok((confirm, sess)) => {
                metrics.handshakes_ok.inc();
                if let Some(t0) = self.hs_started.take() {
                    metrics.hs_total_us.record_since(t0);
                }
                self.session = Some(sess);
                Step::Reply(NodeMessage::AccessConfirm(Box::new(confirm)))
            }
            Err(e) => {
                metrics.handshakes_fail.inc();
                metrics.event("handshake_fail", e.code());
                Step::Reply(NodeMessage::Reject {
                    code: code_for(&e),
                    detail: e.code().to_owned(),
                })
            }
        }
    }
}

/// What whoever drives a [`UserSm`] must do next.
#[derive(Debug)]
pub(crate) enum UserStep {
    /// Send this and feed the machine the reply.
    Send(NodeMessage),
    /// The handshake is complete; the connection now carries this session.
    Established(Session),
    /// The attempt is over. The machine is at rest again and
    /// [`UserSm::start`] begins a fresh one (on a fresh connection).
    Failed(NetError),
}

/// Where a [`UserSm`] is in M.1 → M.2 → M.3, i.e. which reply it expects.
/// `since` anchors `net.hs_total_us`; `sent` is when the outstanding
/// message was handed out for sending.
#[derive(Debug, Default)]
enum Awaiting {
    /// At rest: not started, established, or failed.
    #[default]
    Nothing,
    /// `GetBeacon` is out; M.1 is due.
    Beacon { since: Instant, sent: Instant },
    /// M.2 is out; M.3 is due.
    Confirm { since: Instant, sent: Instant },
}

/// Client-side per-connection machine, the mirror of [`RouterSm`]: one
/// M.1 → M.2 → M.3 handshake against the [`UserClient`] it is lent.
///
/// Protocol time is an input (`now_ms`), never read here: the blocking
/// driver passes the wall clock, a driver that signs ahead of schedule or
/// relays for someone else passes the time that applies, and a test
/// passes whatever the case needs. (The `Instant`s only feed the leg
/// histograms.)
#[derive(Debug, Default)]
pub(crate) struct UserSm {
    awaiting: Awaiting,
}

impl UserSm {
    /// Begins a handshake: returns the `GetBeacon` to send. `since` is
    /// when the caller began the attempt (before dialing, if it dials).
    pub(crate) fn start(&mut self, since: Instant) -> NodeMessage {
        self.awaiting = Awaiting::Beacon {
            since,
            sent: Instant::now(),
        };
        NodeMessage::GetBeacon
    }

    /// Feeds the machine the reply to what it last sent.
    pub(crate) fn on_message(
        &mut self,
        msg: NodeMessage,
        user: &mut UserClient,
        rng: &mut impl RngCore,
        now_ms: u64,
        metrics: &NetMetrics,
    ) -> UserStep {
        // At rest again unless the step below says otherwise.
        let awaiting = std::mem::take(&mut self.awaiting);
        let step = msg
            .into_reply(metrics)
            .and_then(|reply| match (awaiting, reply) {
                (Awaiting::Beacon { since, sent }, NodeMessage::Beacon(beacon)) => {
                    metrics.hs_beacon_us.record_since(sent);
                    let (decoded, reused) = user.url_decode_counts();
                    let req = user.request_access(&beacon, now_ms, rng);
                    let (decoded_now, reused_now) = user.url_decode_counts();
                    metrics.url_tokens_decoded.add(decoded_now - decoded);
                    metrics.url_sections_reused.add(reused_now - reused);
                    let req = NodeMessage::AccessRequest(Box::new(req?));
                    let sent = Instant::now();
                    self.awaiting = Awaiting::Confirm { since, sent };
                    Ok(UserStep::Send(req))
                }
                (Awaiting::Confirm { since, sent }, NodeMessage::AccessConfirm(confirm)) => {
                    let session = user.handle_access_confirm(&confirm, now_ms)?;
                    metrics.hs_confirm_us.record_since(sent);
                    metrics.hs_total_us.record_since(since);
                    Ok(UserStep::Established(session))
                }
                (Awaiting::Beacon { .. }, _) => Err(NetError::Unexpected("expected a beacon")),
                (Awaiting::Confirm { .. }, _) => {
                    Err(NetError::Unexpected("expected an access confirm"))
                }
                (Awaiting::Nothing, _) => Err(NetError::Unexpected("no handshake in progress")),
            });
        step.unwrap_or_else(UserStep::Failed)
    }
}

/// Shared NO-daemon state the machine needs.
#[derive(Clone)]
pub(crate) struct NoShared {
    pub(crate) no: Arc<Mutex<NetworkOperator>>,
    pub(crate) ledger: Arc<Mutex<Option<ReplicatedLedger>>>,
    pub(crate) auto_checkpoint: Arc<AtomicBool>,
}

/// NO-side per-connection machine: any number of bulletin requests,
/// session reports, gossip digests, range pulls, and URL deltas until
/// the peer says `Bye` or misbehaves. Stateless between messages — all
/// durable state lives in the shared operator and ledger.
pub(crate) struct NoSm {
    shared: NoShared,
}

impl NoSm {
    pub(crate) fn new(shared: NoShared) -> Self {
        Self { shared }
    }

    /// NO drops peers that send garbage.
    pub(crate) fn on_decode_error(&self) -> Step {
        Step::Close
    }

    pub(crate) fn on_message(&mut self, msg: NodeMessage, metrics: &NetMetrics) -> Step {
        match msg {
            NodeMessage::GetBulletin => {
                let bulletin = {
                    let op = lock_recover(&self.shared.no);
                    let now = wall_ms();
                    Bulletin {
                        epoch: op.epoch(),
                        crl: op.publish_crl(now),
                        url: op.publish_url(now),
                    }
                };
                Step::Reply(NodeMessage::Bulletin(bulletin))
            }
            NodeMessage::ReportSessions { router, sessions } => {
                let now = wall_ms();
                let mut accepted: u32 = 0;
                {
                    // Lock order: operator, then ledger (same as the
                    // daemon-side methods).
                    let mut op = lock_recover(&self.shared.no);
                    let mut slot = lock_recover(&self.shared.ledger);
                    for session in sessions {
                        // With a ledger attached it is the one session
                        // store (audit by `find_session` → `audit_raw`);
                        // the operator's in-memory log serves only a NO
                        // without one.
                        let Some(rl) = slot.as_mut() else {
                            op.record_session(session);
                            accepted += 1;
                            continue;
                        };
                        // Idempotent ingestion: a router that retries a
                        // report after a lost ack — or fails over to this
                        // replica with a batch another replica already
                        // mirrored here — must not duplicate transcripts.
                        // Checked across every shard.
                        if rl.find_session(&session.session_id.to_bytes()).is_some() {
                            continue;
                        }
                        let rec = LedgerRecord::Access(AccessRecord {
                            router: router.clone(),
                            session,
                        });
                        if let Err(e) = rl.local_mut().append(rec, now) {
                            metrics.ledger_errors.inc();
                            metrics.event("ledger_error", e.code());
                            continue;
                        }
                        metrics.ledger_sessions.inc();
                        accepted += 1;
                    }
                    if let Some(rl) = slot.as_mut() {
                        // One durability point per report, not per record.
                        if let Err(e) = rl.flush() {
                            metrics.ledger_errors.inc();
                            metrics.event("ledger_error", e.code());
                        }
                        // Federated mode: checkpoint the accepted batch so
                        // peers can pull it on the next gossip round
                        // (ranges only travel up to a signed checkpoint).
                        if accepted > 0 && self.shared.auto_checkpoint.load(Ordering::Relaxed) {
                            let signer = rl.local_id().to_owned();
                            if let Err(e) =
                                rl.local_mut().checkpoint(op.signing_key(), &signer, now)
                            {
                                metrics.ledger_errors.inc();
                                metrics.event("ledger_error", e.code());
                            }
                        }
                    }
                }
                Step::Reply(NodeMessage::ReportAck { accepted })
            }
            NodeMessage::CkptGossip { .. } => {
                let digests = {
                    let slot = lock_recover(&self.shared.ledger);
                    slot.as_ref()
                        .map(|rl| (rl.local_id().to_owned(), rl.digests()))
                };
                Step::Reply(match digests {
                    Some((from_no, digests)) => NodeMessage::CkptGossip { from_no, digests },
                    None => NodeMessage::Reject {
                        code: reject_code::INTERNAL,
                        detail: "no replica ledger attached".to_owned(),
                    },
                })
            }
            NodeMessage::RangePull { writer, from_seq } => {
                let served = {
                    let slot = lock_recover(&self.shared.ledger);
                    slot.as_ref().map(|rl| rl.serve_range(&writer, from_seq))
                };
                Step::Reply(match served {
                    Some(Ok(range)) => {
                        if range.is_some() {
                            metrics.repl_ranges_out.inc();
                        }
                        NodeMessage::RangePush {
                            range: range.map(Box::new),
                        }
                    }
                    Some(Err(e)) => {
                        metrics.event("repl_refuse", e.code());
                        NodeMessage::Reject {
                            code: reject_code::INTERNAL,
                            detail: e.code().to_owned(),
                        }
                    }
                    None => NodeMessage::Reject {
                        code: reject_code::INTERNAL,
                        detail: "no replica ledger attached".to_owned(),
                    },
                })
            }
            NodeMessage::GetUrlDelta {
                epoch,
                have_version,
            } => {
                // O(churn) fast lane: a signed diff when one chains from
                // the caller's (epoch, version), else None → full bulletin.
                // A freshly-signed CRL and a detached URL re-stamp ride
                // along either way: the CRL is router-scale (small) and
                // the re-stamp is O(1), and the caller's beacons need
                // both lists younger than list_max_age between full
                // fetches.
                let now = wall_ms();
                let (crl, restamp, delta) = {
                    let op = lock_recover(&self.shared.no);
                    (
                        op.publish_crl(now),
                        op.restamp_url(now),
                        op.publish_url_delta(epoch, have_version, now),
                    )
                };
                if delta.is_some() {
                    metrics.url_deltas_out.inc();
                }
                Step::Reply(NodeMessage::UrlDelta {
                    crl: Box::new(crl),
                    restamp,
                    delta: delta.map(Box::new),
                })
            }
            NodeMessage::Bye => Step::Close,
            _ => Step::ReplyClose(NodeMessage::Reject {
                code: reject_code::MALFORMED,
                detail: "NO serves bulletins and session reports only".to_owned(),
            }),
        }
    }
}

/// A role-generic machine, so the event loop can serve either daemon.
/// The router machine carries per-handshake DH and timing state
/// (~250 bytes), so it is boxed to keep the enum — and everything that
/// embeds it per connection — small for the common established case.
pub(crate) enum SessionSm {
    Router(Box<RouterSm>),
    No(NoSm),
}

impl SessionSm {
    pub(crate) fn awaiting_verify(&self) -> bool {
        match self {
            SessionSm::Router(sm) => sm.awaiting_verify(),
            SessionSm::No(_) => false,
        }
    }

    pub(crate) fn abort_verify(&mut self) {
        if let SessionSm::Router(sm) = self {
            sm.abort_verify();
        }
    }

    pub(crate) fn on_decode_error(&self) -> Step {
        match self {
            SessionSm::Router(sm) => sm.on_decode_error(),
            SessionSm::No(sm) => sm.on_decode_error(),
        }
    }

    pub(crate) fn on_message(&mut self, msg: NodeMessage, metrics: &NetMetrics) -> Step {
        match self {
            SessionSm::Router(sm) => sm.on_message(msg, metrics),
            SessionSm::No(sm) => sm.on_message(msg, metrics),
        }
    }

    pub(crate) fn on_verify(&mut self, outcome: VerifyOutcome, metrics: &NetMetrics) -> Step {
        match self {
            SessionSm::Router(sm) => sm.on_verify(outcome, metrics),
            // NO never offloads; a stray completion closes the conn.
            SessionSm::No(_) => Step::Close,
        }
    }
}

/// The role a listener serves; [`Service::new_session`] mints the
/// per-connection machine.
#[derive(Clone)]
pub(crate) enum Service {
    Router(RouterShared),
    No(NoShared),
}

impl Service {
    pub(crate) fn new_session(&self) -> SessionSm {
        match self {
            Service::Router(shared) => SessionSm::Router(Box::new(RouterSm::new(shared.clone()))),
            Service::No(shared) => SessionSm::No(NoSm::new(shared.clone())),
        }
    }
}

#[cfg(test)]
mod tests;
