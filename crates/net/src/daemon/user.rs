//! The user agent: the client side of the runtime. Polls the NO bulletin
//! (adopting lists by the protocol's one install rule), dials routers,
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
use crate::envelope::NodeMessage;
use crate::error::{NetError, Result};
use crate::metrics::NetMetrics;
use crate::session::{UserSm, UserStep};
use peace_telemetry::Snapshot;

use super::DaemonConfig;

/// A user-side runtime wrapping one [`UserClient`].
pub struct UserAgent {
    user: UserClient,
    rng: StdRng,
    rng_seed: u64,
    cfg: DaemonConfig,
    metrics: Arc<NetMetrics>,
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
        }
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

    /// Polls the NO bulletin server once and adopts the served revocation
    /// lists — *only* if they pass [`UserClient::adopt_lists`]; a refused
    /// bulletin leaves the adopted lists in force. Returns the held URL
    /// version.
    ///
    /// # Errors
    ///
    /// Transport errors from the poll; [`NetError::ConnLimit`] (transient)
    /// when the NO is at its connection cap; [`NetError::Protocol`] when
    /// the lists fail validation; [`NetError::Unexpected`] on a
    /// non-bulletin reply.
    pub fn poll_bulletin(&mut self, no_addr: SocketAddr) -> Result<u64> {
        let reply = Connection::ask(no_addr, &self.cfg, &self.metrics, &NodeMessage::GetBulletin)?;
        let NodeMessage::Bulletin(b) = reply else {
            return Err(NetError::Unexpected("NO replied with a non-bulletin"));
        };
        self.user
            .adopt_lists(&b.crl, &b.url, wall_ms())
            .map_err(NetError::Protocol)?;
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
                self.metrics.handshakes_fail.inc();
                self.metrics.event("handshake_fail", e.code());
                Err(e)
            }
        }
    }

    /// Dial, then send what [`UserSm`] says and feed it what comes back.
    fn try_connect(&mut self, router_addr: SocketAddr) -> Result<UserSession> {
        let began = std::time::Instant::now();
        let Self {
            user, rng, metrics, ..
        } = self;
        let mut conn = Connection::dial(
            router_addr,
            self.cfg.connect_timeout,
            self.cfg.conn,
            Arc::clone(metrics),
        )?;
        let mut sm = UserSm::default();
        let mut out = sm.start(began);
        loop {
            conn.send(&out)?;
            match sm.on_message(conn.recv()?, user, rng, wall_ms(), metrics) {
                UserStep::Send(msg) => out = msg,
                UserStep::Established(session) => return Ok(UserSession { conn, session }),
                UserStep::Failed(e) => return Err(e),
            }
        }
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
        let NodeMessage::Data(ct2) = self.conn.recv()?.into_reply(self.conn.metrics())? else {
            return Err(NetError::Unexpected("expected an echoed data record"));
        };
        let plain = self.session.open_data(&ct2)?;
        self.conn.metrics().frame_rtt_us.record_since(rtt_start);
        Ok(plain)
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
