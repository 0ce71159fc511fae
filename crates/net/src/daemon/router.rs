//! The mesh-router daemon: serves beacons (M.1), runs the router side of
//! the anonymous access protocol (M.2 → M.3), and echoes AEAD traffic on
//! established sessions.
//!
//! All per-connection protocol behavior lives in the
//! [`RouterSm`](crate::session::RouterSm) state machine, driven by the
//! event loop ([`crate::reactor`]): I/O shard threads plus a verify pool.
//! Shared router state (beacon DH table, revocation lists, DoS detector)
//! lives behind one mutex on the [`MeshRouter`] entity; how an access
//! request takes it is described in [`crate::session`].

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use peace_protocol::entities::MeshRouter;
use peace_protocol::{LoggedSession, ReplicaSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::clock::wall_ms;
use crate::conn::Connection;
use crate::envelope::NodeMessage;
use crate::error::{NetError, Result};
use crate::metrics::NetMetrics;
use crate::reactor::EventLoop;
use crate::session::{RouterShared, Service};
use peace_telemetry::Snapshot;

use super::{lock_recover, DaemonConfig};

/// Cap on a router's pending-transcript outbox: after a failed report
/// requeue, the oldest overflow is dropped (and counted) so a long NO
/// outage cannot grow router memory without limit.
const MAX_PENDING_TRANSCRIPTS: usize = 1024;

/// A running mesh-router daemon.
pub struct RouterDaemon {
    router: Arc<Mutex<MeshRouter>>,
    /// Daemon-initiated outbound connections (bulletin refresh, session
    /// reports) and the verify pool record here; the listener side
    /// records into the event loop's per-shard registries, merged at
    /// export.
    metrics: Arc<NetMetrics>,
    cfg: DaemonConfig,
    runtime: EventLoop,
}

impl RouterDaemon {
    /// Takes ownership of the router entity and starts serving on `bind`.
    /// `rng_seed` feeds the daemon's beacon/nonce randomness.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the listener cannot bind.
    pub fn spawn(router: MeshRouter, rng_seed: u64, bind: &str, cfg: DaemonConfig) -> Result<Self> {
        let router = Arc::new(Mutex::new(router));
        let shared = RouterShared {
            router: Arc::clone(&router),
            rng: Arc::new(Mutex::new(StdRng::seed_from_u64(rng_seed))),
            #[cfg(test)]
            panic_at: Arc::default(),
        };
        let metrics = Arc::new(NetMetrics::default());
        Ok(Self {
            runtime: EventLoop::spawn(bind, cfg, Service::Router(shared), Arc::clone(&metrics))?,
            router,
            metrics,
            cfg,
        })
    }

    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.runtime.addr()
    }

    /// Full telemetry export: counters, the handshake-leg and
    /// `net.access_verify_us` histograms, and failure events — merged
    /// across shards.
    pub fn telemetry(&self) -> Snapshot {
        self.runtime.telemetry()
    }

    /// Live connection count.
    pub fn live_connections(&self) -> usize {
        self.runtime.live_connections()
    }

    /// Polls the NO bulletin server once and installs the served lists,
    /// after verifying NO's signatures and freshness locally (the daemon
    /// does not blindly trust the transport). Returns the installed URL
    /// version.
    ///
    /// # Errors
    ///
    /// Transport errors from the poll; [`NetError::ConnLimit`] (transient)
    /// when the NO is at its connection cap and [`NetError::Rejected`] for
    /// any other refusal — here and in every other exchange with the NO
    /// below; [`NetError::Protocol`] if either list fails validation;
    /// [`NetError::Unexpected`] on a non-bulletin reply.
    pub fn refresh_lists(&self, no_addr: SocketAddr) -> Result<u64> {
        let reply = Connection::ask(no_addr, &self.cfg, &self.metrics, &NodeMessage::GetBulletin)?;
        let NodeMessage::Bulletin(b) = reply else {
            return Err(NetError::Unexpected("NO replied with a non-bulletin"));
        };
        let now = wall_ms();
        let mut router = lock_recover(&self.router);
        let max_age = router.config().list_max_age;
        let npk = *router.npk();
        b.crl
            .validate(&npk, now, max_age)
            .map_err(NetError::Protocol)?;
        b.url
            .validate(&npk, now, max_age)
            .map_err(NetError::Protocol)?;
        let version = b.url.version;
        router.update_lists(b.crl, b.url);
        Ok(version)
    }

    /// Refreshes the router's URL by the O(churn) delta path: asks NO for
    /// a signed diff from the router's current `(epoch, version)` and
    /// chains it onto the enforcement engine. Falls back to a full
    /// [`Self::refresh_lists`] when NO cannot serve a chaining delta, or
    /// when the served delta fails to chain locally (both counted in
    /// `url_delta_fallbacks`). Returns the URL version now in force.
    ///
    /// # Errors
    ///
    /// Transport errors from the poll; [`NetError::Protocol`] if the delta
    /// signature/freshness check fails; [`NetError::Unexpected`] on a
    /// non-delta reply.
    pub fn refresh_lists_delta(&self, no_addr: SocketAddr) -> Result<u64> {
        let (epoch, have_version) = {
            let router = lock_recover(&self.router);
            (
                router.revocation().epoch(),
                router.revocation().url_version(),
            )
        };
        let ask = NodeMessage::GetUrlDelta {
            epoch,
            have_version,
        };
        let NodeMessage::UrlDelta {
            crl,
            restamp,
            delta,
        } = Connection::ask(no_addr, &self.cfg, &self.metrics, &ask)?
        else {
            return Err(NetError::Unexpected("NO replied with a non-delta"));
        };
        let Some(signed) = delta else {
            // NO cannot chain from our state (epoch rotated away, or we
            // are behind the retained diff log): full fetch.
            self.metrics.url_delta_fallbacks.inc();
            return self.refresh_lists(no_addr);
        };
        let applied = {
            let now = wall_ms();
            let mut router = lock_recover(&self.router);
            // The piggybacked CRL and URL re-stamp keep beacons fresh
            // across delta-only refresh cycles; without them clients
            // reject beacons as stale once the provisioning lists age
            // past list_max_age.
            router.update_crl(*crl, now).map_err(NetError::Protocol)?;
            router
                .apply_url_delta(&signed, now)
                .and_then(|outcome| router.adopt_url_restamp(&restamp, now).map(|()| outcome))
        };
        match applied {
            Ok(_) => {
                self.metrics.url_deltas_out.inc();
                Ok(lock_recover(&self.router).revocation().url_version())
            }
            Err(peace_protocol::ProtocolError::UrlDeltaChain) => {
                // Chain refusal is transient by contract: resync in full.
                self.metrics.url_delta_fallbacks.inc();
                self.refresh_lists(no_addr)
            }
            Err(e) => Err(NetError::Protocol(e)),
        }
    }

    /// Runs `f` against the live router entity (log draining, attack-mode
    /// overrides).
    pub fn with_router<R>(&self, f: impl FnOnce(&mut MeshRouter) -> R) -> R {
        f(&mut lock_recover(&self.router))
    }

    /// Drains the router's session log and reports it to the NO daemon for
    /// durable ledger persistence (§IV.D step 1: routers hand transcripts
    /// to NO). Returns how many transcripts NO newly accepted; `Ok(0)`
    /// without dialing when the log is empty. On any transport failure the
    /// drained transcripts are requeued, so nothing is lost — the next
    /// report retries them, and NO deduplicates by session id.
    ///
    /// # Errors
    ///
    /// Transport errors from the dial/send/recv; [`NetError::Unexpected`]
    /// if NO replies with something other than an ack.
    pub fn report_sessions(&self, no_addr: SocketAddr) -> Result<u32> {
        let Some((router_name, sessions)) = self.drain_report() else {
            return Ok(0);
        };
        let attempt = self.ship(no_addr, &router_name, &sessions);
        if attempt.is_err() {
            self.requeue_bounded(sessions);
        }
        attempt
    }

    /// Like [`report_sessions`](Self::report_sessions), but against a
    /// health-tracked NO replica set: tries each candidate in the set's
    /// priority order (alive first, benched last) until one accepts the
    /// batch, recording success/failure back into the set so the next call
    /// prefers proven-alive replicas. A success on a non-primary replica
    /// counts as a failover. Only if *every* replica refuses is the batch
    /// requeued (bounded) and the last error returned.
    ///
    /// # Errors
    ///
    /// The last replica's transport error when all candidates failed;
    /// [`NetError::Unexpected`] for an empty replica set.
    pub fn report_sessions_failover(&self, set: &mut ReplicaSet<SocketAddr>) -> Result<u32> {
        if set.is_empty() {
            return Err(NetError::Unexpected("empty NO replica set"));
        }
        let Some((router_name, sessions)) = self.drain_report() else {
            return Ok(0);
        };
        let mut last_err = NetError::Unexpected("empty NO replica set");
        for (i, addr) in set.candidates(wall_ms()) {
            match self.ship(addr, &router_name, &sessions) {
                Ok(accepted) => {
                    set.report_ok(i);
                    if i != 0 {
                        // The primary was skipped or had failed: this batch
                        // landed on a backup replica.
                        self.metrics.failovers.inc();
                        self.metrics
                            .event("report_failover", &format!("replica_{i}"));
                    }
                    return Ok(accepted);
                }
                Err(e) => {
                    set.report_failure(i, wall_ms());
                    self.metrics.event("report_fail", e.code());
                    last_err = e;
                }
            }
        }
        self.requeue_bounded(sessions);
        Err(last_err)
    }

    /// The router's name and the transcripts logged since the last report,
    /// drained from the outbox; `None` when there are none to ship.
    fn drain_report(&self) -> Option<(String, Vec<LoggedSession>)> {
        let mut router = lock_recover(&self.router);
        let sessions = router.drain_log();
        (!sessions.is_empty()).then(|| (router.id().0.clone(), sessions))
    }

    /// One report exchange with one NO replica: dial, send the batch, wait
    /// for the ack.
    fn ship(
        &self,
        no_addr: SocketAddr,
        router_name: &str,
        sessions: &[LoggedSession],
    ) -> Result<u32> {
        let report = NodeMessage::ReportSessions {
            router: router_name.to_owned(),
            sessions: sessions.to_vec(),
        };
        match Connection::ask(no_addr, &self.cfg, &self.metrics, &report)? {
            NodeMessage::ReportAck { accepted } => Ok(accepted),
            _ => Err(NetError::Unexpected("NO replied with a non-ack")),
        }
    }

    /// Requeues a failed batch at the front of the outbox, then enforces
    /// the [`MAX_PENDING_TRANSCRIPTS`] cap by dropping the
    /// oldest overflow (counted in `net.transcripts_dropped`): a long NO
    /// outage trades the stalest evidence away instead of growing router
    /// memory without bound.
    fn requeue_bounded(&self, sessions: Vec<LoggedSession>) {
        let dropped = {
            let mut r = lock_recover(&self.router);
            r.requeue_log(sessions);
            r.cap_log(MAX_PENDING_TRANSCRIPTS)
        };
        if dropped > 0 {
            self.metrics.transcripts_dropped.add(dropped as u64);
            self.metrics
                .event("transcripts_dropped", &format!("{dropped}"));
        }
    }

    /// Graceful shutdown; hands the router entity back.
    ///
    /// # Errors
    ///
    /// [`NetError::Unexpected`] if the entity is still shared (cannot
    /// happen through this API).
    pub fn shutdown(mut self) -> Result<MeshRouter> {
        // Joins the accept thread, every shard, and the verify pool —
        // after which no shard-held RouterShared survives.
        self.runtime.shutdown(self.cfg.drain);
        Arc::try_unwrap(self.router)
            .map_err(|_| NetError::Unexpected("router still shared at shutdown"))
            .map(|m| match m.into_inner() {
                Ok(r) => r,
                Err(p) => p.into_inner(),
            })
    }
}
