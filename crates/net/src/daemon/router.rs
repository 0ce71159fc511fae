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
use peace_protocol::ReplicaSet;
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

use super::{lock_recover, take_back, DaemonConfig};

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

    /// Polls the NO bulletin server once and installs the served lists
    /// ([`MeshRouter::update_lists`]: the daemon does not trust the
    /// transport). Returns the installed URL version.
    ///
    /// # Errors
    ///
    /// Transport errors from the poll; [`NetError::ConnLimit`] (transient)
    /// when the NO is at its connection cap and [`NetError::Rejected`] for
    /// any other refusal — here and in every other exchange with the NO
    /// below; [`NetError::Protocol`] if the router refuses the lists;
    /// [`NetError::Unexpected`] on a non-bulletin reply.
    pub fn refresh_lists(&self, no_addr: SocketAddr) -> Result<u64> {
        let reply = Connection::ask(no_addr, &self.cfg, &self.metrics, &NodeMessage::GetBulletin)?;
        let NodeMessage::Bulletin(b) = reply else {
            return Err(NetError::Unexpected("NO replied with a non-bulletin"));
        };
        let version = b.url.version;
        lock_recover(&self.router).update_lists(b.crl, b.url)?;
        Ok(version)
    }

    /// Refreshes the router's lists by the O(churn) delta path: asks NO
    /// for the diff from the router's current `(epoch, version)` and
    /// installs it with the CRL and URL re-stamp that travel with it
    /// ([`MeshRouter::update_lists_by_delta`]). Falls back to a full
    /// [`Self::refresh_lists`] when NO cannot serve a chaining delta, or
    /// when the served delta fails to chain locally (both counted in
    /// `url_delta_fallbacks`). Returns the URL version now in force.
    ///
    /// # Errors
    ///
    /// Transport errors from the poll; [`NetError::Protocol`] if the router
    /// refuses the lists; [`NetError::Unexpected`] on a non-delta reply.
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
        let applied = match delta {
            Some(delta) => lock_recover(&self.router).update_lists_by_delta(*crl, &delta, &restamp),
            // NO cannot chain from our state (epoch rotated away, or we
            // are behind the retained diff log).
            None => Err(peace_protocol::ProtocolError::UrlDeltaChain),
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

    /// Drains the router's session log and reports it to the NO for
    /// durable ledger persistence (§IV.D step 1: routers hand transcripts
    /// to NO), trying the replicas of `set` in its priority order (alive
    /// first, benched last; one NO is a one-element set) until one acks
    /// the batch. A success or failure is recorded back into the set, and
    /// a success on a non-primary replica counts as a failover. Returns
    /// how many transcripts NO newly accepted; `Ok(0)` without dialing
    /// when the log is empty. If no replica acks, the batch goes back to
    /// the front of the outbox, whose bound drops (and counts) what no
    /// longer fits; the next report retries the rest, and NO deduplicates
    /// by session id.
    ///
    /// # Errors
    ///
    /// The last replica's error when none acked: transport errors,
    /// [`NetError::Rejected`] (NO could not persist the batch),
    /// [`NetError::Unexpected`] for a non-ack reply or an empty set.
    pub fn report_sessions(&self, set: &mut ReplicaSet<SocketAddr>) -> Result<u32> {
        let report = {
            let mut router = lock_recover(&self.router);
            let sessions = router.drain_log();
            if sessions.is_empty() {
                return Ok(0);
            }
            NodeMessage::ReportSessions {
                router: router.id().0.clone(),
                sessions,
            }
        };
        let mut last_err = NetError::Unexpected("empty NO replica set");
        for (i, addr) in set.candidates(wall_ms()) {
            let e = match Connection::ask(addr, &self.cfg, &self.metrics, &report) {
                Ok(NodeMessage::ReportAck { accepted }) => {
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
                Ok(_) => NetError::Unexpected("NO replied with a non-ack"),
                Err(e) => e,
            };
            set.report_failure(i, wall_ms());
            self.metrics.event("report_fail", e.code());
            last_err = e;
        }
        if let NodeMessage::ReportSessions { sessions, .. } = report {
            let dropped = {
                let mut router = lock_recover(&self.router);
                router.requeue_log(sessions);
                router.take_log_dropped()
            };
            self.metrics.transcripts_dropped.add(dropped);
        }
        Err(last_err)
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
        take_back(self.router, "router still shared at shutdown")
    }
}
