//! The user agent: the client side of the runtime. Polls the NO bulletin
//! (with freshness and version-monotonicity enforcement), dials routers,
//! runs the anonymous access handshake, and carries AEAD traffic.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use peace_protocol::entities::UserClient;
use peace_protocol::{RetryPolicy, Session, Transient};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::clock::wall_ms;
use crate::conn::Connection;
use crate::envelope::{reject_code, NodeMessage};
use crate::error::{NetError, Result};
use crate::metrics::{MetricsSnapshot, NetMetrics};
use peace_telemetry::Snapshot;

use super::DaemonConfig;

/// A user-side runtime wrapping one [`UserClient`].
pub struct UserAgent {
    user: UserClient,
    rng: StdRng,
    rng_seed: u64,
    cfg: DaemonConfig,
    metrics: Arc<NetMetrics>,
    last_epoch: u64,
}

/// An established, authenticated session to a router.
pub struct UserSession {
    conn: Connection,
    session: Session,
}

impl UserAgent {
    /// Wraps an enrolled client. `rng_seed` feeds handshake randomness and
    /// retry jitter.
    pub fn new(user: UserClient, rng_seed: u64, cfg: DaemonConfig) -> Self {
        Self {
            user,
            rng: StdRng::seed_from_u64(rng_seed),
            rng_seed,
            cfg,
            metrics: Arc::new(NetMetrics::default()),
            last_epoch: 0,
        }
    }

    /// A point-in-time copy of the agent counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Full telemetry export: counters, handshake-leg histograms
    /// (`net.hs_beacon_us`, `net.hs_confirm_us`, `net.hs_total_us`,
    /// `net.frame_rtt_us`), and failure events.
    pub fn telemetry(&self) -> Snapshot {
        self.metrics.telemetry()
    }

    /// The wrapped protocol client (read-only).
    pub fn user(&self) -> &UserClient {
        &self.user
    }

    /// The highest key epoch seen in a bulletin.
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Polls the NO bulletin server once and adopts the served revocation
    /// lists — *only* if they pass [`UserClient::adopt_lists`]: NO's
    /// signature, the `list_max_age` freshness bound, and version
    /// monotonicity. A stale or regressing bulletin is rejected and the
    /// previously adopted lists stay in force. Returns the adopted URL
    /// version.
    ///
    /// # Errors
    ///
    /// Transport errors from the poll; [`NetError::Protocol`] when the
    /// lists fail validation; [`NetError::Unexpected`] on a non-bulletin
    /// reply.
    pub fn poll_bulletin(&mut self, no_addr: SocketAddr) -> Result<u64> {
        let mut conn = Connection::dial(
            no_addr,
            self.cfg.connect_timeout,
            self.cfg.conn,
            Arc::clone(&self.metrics),
        )?;
        conn.send(&NodeMessage::GetBulletin)?;
        let reply = conn.recv()?;
        conn.close();
        let NodeMessage::Bulletin(b) = reply else {
            return Err(NetError::Unexpected("NO replied with a non-bulletin"));
        };
        self.user
            .adopt_lists(&b.crl, &b.url, wall_ms())
            .map_err(NetError::Protocol)?;
        self.last_epoch = self.last_epoch.max(b.epoch);
        Ok(self.user.list_versions().1)
    }

    /// Dials a router and runs one full M.1 → M.2 → M.3 handshake.
    ///
    /// # Errors
    ///
    /// Transport errors; [`NetError::Rejected`] when the router refuses
    /// (code [`reject_code::REVOKED`](crate::envelope::reject_code::REVOKED)
    /// is terminal — see
    /// [`NetError::is_transient`]); [`NetError::Protocol`] when the beacon
    /// or confirmation fails client-side validation.
    pub fn connect(&mut self, router_addr: SocketAddr) -> Result<UserSession> {
        match self.try_connect(router_addr) {
            Ok(s) => {
                self.metrics.handshakes_ok.inc();
                Ok(s)
            }
            Err(e) => {
                if matches!(e, NetError::ConnLimit) {
                    self.metrics.conn_rejected.inc();
                }
                self.metrics.handshakes_fail.inc();
                self.metrics.event("handshake_fail", e.code());
                Err(e)
            }
        }
    }

    fn try_connect(&mut self, router_addr: SocketAddr) -> Result<UserSession> {
        let hs_start = std::time::Instant::now();
        let mut conn = Connection::dial(
            router_addr,
            self.cfg.connect_timeout,
            self.cfg.conn,
            Arc::clone(&self.metrics),
        )?;
        let leg_start = std::time::Instant::now();
        conn.send(&NodeMessage::GetBeacon)?;
        let beacon = match conn.recv()? {
            NodeMessage::Beacon(b) => *b,
            // A BUSY reject is the daemon's explicit connection-cap
            // refusal: surface it as the dedicated transient variant so
            // retry policies and load workers treat it as backpressure.
            NodeMessage::Reject {
                code: reject_code::BUSY,
                ..
            } => return Err(NetError::ConnLimit),
            NodeMessage::Reject { code, detail } => {
                return Err(NetError::Rejected { code, detail })
            }
            _ => return Err(NetError::Unexpected("expected a beacon")),
        };
        self.metrics.hs_beacon_us.record_since(leg_start);
        let (decoded, reused) = self.user.url_decode_counts();
        let req = self.user.request_access(&beacon, wall_ms(), &mut self.rng);
        let (decoded_now, reused_now) = self.user.url_decode_counts();
        self.metrics.url_tokens_decoded.add(decoded_now - decoded);
        self.metrics.url_sections_reused.add(reused_now - reused);
        let req = req.map_err(NetError::Protocol)?;
        let leg_start = std::time::Instant::now();
        conn.send(&NodeMessage::AccessRequest(Box::new(req)))?;
        let session = match conn.recv()? {
            NodeMessage::AccessConfirm(c) => self
                .user
                .handle_access_confirm(&c, wall_ms())
                .map_err(NetError::Protocol)?,
            NodeMessage::Reject {
                code: reject_code::BUSY,
                ..
            } => return Err(NetError::ConnLimit),
            NodeMessage::Reject { code, detail } => {
                return Err(NetError::Rejected { code, detail })
            }
            _ => return Err(NetError::Unexpected("expected an access confirm")),
        };
        self.metrics.hs_confirm_us.record_since(leg_start);
        self.metrics.hs_total_us.record_since(hs_start);
        Ok(UserSession { conn, session })
    }

    /// [`Self::connect`] under a [`RetryPolicy`]: transient failures
    /// (timeouts, mangled frames, auth rejects from corrupted requests)
    /// back off and re-handshake from scratch; terminal failures
    /// (revocation) return immediately.
    ///
    /// # Errors
    ///
    /// The last failure once the policy is exhausted, or the first
    /// non-transient failure.
    pub fn connect_with_retry(
        &mut self,
        router_addr: SocketAddr,
        policy: &RetryPolicy,
    ) -> Result<UserSession> {
        let mut attempt: u32 = 0;
        loop {
            match self.connect(router_addr) {
                Ok(s) => return Ok(s),
                Err(e) => {
                    attempt += 1;
                    if !e.is_transient() || !policy.should_retry(attempt) {
                        return Err(e);
                    }
                    let delay = policy.backoff(attempt, self.rng_seed ^ u64::from(attempt));
                    std::thread::sleep(Duration::from_millis(delay));
                }
            }
        }
    }
}

impl UserSession {
    /// Seals `payload`, sends it, and opens the router's echo.
    ///
    /// # Errors
    ///
    /// Transport errors; [`NetError::Protocol`] when the echoed AEAD record
    /// fails to open; [`NetError::Rejected`] when the router refuses.
    pub fn echo(&mut self, payload: &[u8]) -> Result<Vec<u8>> {
        let rtt_start = std::time::Instant::now();
        let ct = self.session.seal_data(payload);
        self.conn.send(&NodeMessage::Data(ct))?;
        let reply = match self.conn.recv()? {
            NodeMessage::Data(ct2) => self.session.open_data(&ct2).map_err(NetError::Protocol),
            NodeMessage::Reject { code, detail } => Err(NetError::Rejected { code, detail }),
            _ => Err(NetError::Unexpected("expected an echoed data record")),
        };
        if reply.is_ok() {
            self.conn.metrics().frame_rtt_us.record_since(rtt_start);
        }
        reply
    }

    /// Per-connection transport statistics.
    pub fn stats(&self) -> crate::metrics::ConnStats {
        self.conn.stats()
    }

    /// Graceful close (best-effort `Bye`).
    pub fn close(self) {
        self.conn.close();
    }
}
