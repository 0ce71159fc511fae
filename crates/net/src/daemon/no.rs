//! The network-operator daemon: serves the signed bulletin (current CRL +
//! URL) to polling routers and users, applies dynamic revocations at
//! runtime, and keeps every reported session and revocation in its
//! accountability ledger, whose revocations it replays before it binds.
//!
//! The paper's NO pushes list updates to routers over pre-established
//! secure channels; the runtime inverts this into a poll (`GetBulletin` →
//! `Bulletin`) so that propagation latency is explicit and measurable —
//! see the revocation-latency discussion in DESIGN.md.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use peace_ecdsa::VerifyingKey;
use peace_groupsig::RevocationToken;
use peace_ledger::{
    pull_round, Checkpoint, Ledger, LedgerError, LedgerQuery, LedgerRecord, Pulled, RangeSource,
    RecordKind, ReplicatedLedger, WriterDigest,
};
use peace_protocol::entities::NetworkOperator;

use crate::clock::wall_ms;
use crate::conn::Connection;
use crate::envelope::NodeMessage;
use crate::error::{NetError, Result};
use crate::metrics::NetMetrics;
use crate::reactor::EventLoop;
use crate::session::{checkpoint, NoShared, Service};

use super::{lock_recover, take_back, DaemonConfig};

/// Shared, thread-safe map from a checkpoint-signer / writer name to its
/// trusted verifying key, used by replication ingest and gossip.
pub type PeerKeyResolver = Arc<dyn Fn(&str) -> Option<VerifyingKey> + Send + Sync>;

/// The background checkpoint-gossip loop of a federated NO.
struct GossipLoop {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

/// A running NO bulletin server on its accountability ledger.
pub struct NoDaemon {
    no: Arc<Mutex<NetworkOperator>>,
    ledger: Arc<Mutex<ReplicatedLedger>>,
    /// The trusted-key map of a federated NO, fixed at spawn.
    resolver: Option<PeerKeyResolver>,
    gossip: Mutex<Option<GossipLoop>>,
    runtime: EventLoop,
    metrics: Arc<NetMetrics>,
    cfg: DaemonConfig,
}

impl NoDaemon {
    /// Replays the revocation records of `no`'s epoch in `ledger`'s local
    /// shard into `no`, each by the step a live revocation takes, then
    /// starts serving bulletins on `bind` (use `"127.0.0.1:0"` for an
    /// ephemeral port): the first bulletin already carries the ledger's
    /// lists. Session reports, revocations and epoch rollovers are
    /// persisted to `ledger`. A single-writer NO passes
    /// `ReplicatedLedger::from_single(ledger, "NO")` and no resolver;
    /// with `resolver` (the trusted-key map checkpoint verification
    /// uses) the NO is federated: every report batch is checkpointed for
    /// prompt replication, and [`sync_once`](Self::sync_once) can pull
    /// peers.
    ///
    /// # Errors
    ///
    /// [`NetError::Ledger`]: `ledger_disagrees` for a record naming a token
    /// outside `grt` or a version the operator does not reach,
    /// `epoch_ahead` for a ledger whose last rollover is past the
    /// operator's epoch (γ is never logged, so no rollover is replayed), or
    /// a read error's code; no port is bound. [`NetError::Io`] if the
    /// listener cannot bind.
    pub fn spawn(
        mut no: NetworkOperator,
        ledger: ReplicatedLedger,
        resolver: Option<PeerKeyResolver>,
        bind: &str,
        cfg: DaemonConfig,
    ) -> Result<Self> {
        replay(&mut no, ledger.local())?;
        let no = Arc::new(Mutex::new(no));
        let ledger = Arc::new(Mutex::new(ledger));
        let shared = NoShared {
            no: Arc::clone(&no),
            ledger: Arc::clone(&ledger),
            federated: resolver.is_some(),
        };
        let metrics = Arc::new(NetMetrics::default());
        Ok(Self {
            runtime: EventLoop::spawn(bind, cfg, Service::No(shared), Arc::clone(&metrics))?,
            no,
            ledger,
            resolver,
            gossip: Mutex::new(None),
            metrics,
            cfg,
        })
    }

    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.runtime.addr()
    }

    /// Full telemetry export: counters and ledger-failure events —
    /// merged across shards.
    pub fn telemetry(&self) -> peace_telemetry::Snapshot {
        self.runtime.telemetry()
    }

    /// Live connection count.
    pub fn live_connections(&self) -> usize {
        self.runtime.live_connections()
    }

    /// Revokes a member key at runtime; subsequent bulletins carry the
    /// bumped URL. `false` for a token outside `grt`, and for a revocation
    /// the ledger could not persist: nothing changed, and the
    /// `ledger_error` event carries the ledger's code.
    pub fn revoke_user(&self, token: &RevocationToken) -> bool {
        let (mut op, token) = (lock_recover(&self.no), *token);
        op.url_version_after(&token).is_some_and(|url_version| {
            self.commit(&mut op, LedgerRecord::UserRevocation { token, url_version })
                .is_ok()
        })
    }

    /// Revokes a router certificate at runtime, as [`Self::revoke_user`].
    ///
    /// # Errors
    ///
    /// [`NetError::Ledger`] with the ledger's code when the ledger could
    /// not persist the revocation; nothing changed.
    pub fn revoke_router(&self, serial: u64) -> Result<()> {
        let mut op = lock_recover(&self.no);
        let crl_version = op.crl_version_after(serial);
        self.commit(
            &mut op,
            LedgerRecord::RouterRevocation {
                serial,
                crl_version,
            },
        )
    }

    /// Rotates the system key (epoch rollover, §V.A) once the ledger
    /// holds the rollover, which bounds epoch-scoped audit queries.
    /// Returns the new epoch. γ is in no record, so no replay passes it.
    ///
    /// # Errors
    ///
    /// [`NetError::Ledger`] as [`Self::revoke_router`]; the key is unchanged.
    pub fn rotate_epoch(&self, rng: &mut impl rand::RngCore) -> Result<u64> {
        let mut op = lock_recover(&self.no);
        let epoch = op.epoch() + 1;
        self.persist(LedgerRecord::EpochRollover { epoch })?;
        op.rotate_system_key(rng);
        Ok(epoch)
    }

    /// Appends `record` to the ledger, then [`apply`]s it.
    fn commit(&self, op: &mut NetworkOperator, record: LedgerRecord) -> Result<()> {
        self.persist(record.clone())?;
        apply(op, &record)
    }

    /// Appends and flushes `record` to the ledger's local shard.
    fn persist(&self, record: LedgerRecord) -> Result<()> {
        let mut rl = lock_recover(&self.ledger);
        let l = rl.local_mut();
        l.append(record, wall_ms())
            .and_then(|_| l.flush())
            .map_err(|e| {
                self.metrics.ledger_errors.inc();
                self.metrics.event("ledger_error", e.code());
                e.into()
            })
    }

    /// Runs `f` against the live operator (audits, log ingestion).
    pub fn with_operator<R>(&self, f: impl FnOnce(&mut NetworkOperator) -> R) -> R {
        f(&mut lock_recover(&self.no))
    }

    /// Runs `f` against the ledger: the writable local shard and, when
    /// federated, the mirrored shards of the peers.
    pub fn with_ledger<R>(&self, f: impl FnOnce(&mut ReplicatedLedger) -> R) -> R {
        f(&mut lock_recover(&self.ledger))
    }

    /// Appends a signed checkpoint over the local shard head using the
    /// operator's certified signing key (signer = the replica's writer
    /// id), then syncs it to disk.
    ///
    /// # Errors
    ///
    /// The ledger's error when the checkpoint cannot be written.
    pub fn checkpoint_now(&self) -> peace_ledger::Result<Checkpoint> {
        let op = lock_recover(&self.no);
        checkpoint(&op, &mut lock_recover(&self.ledger), wall_ms())
    }

    /// One pull-based gossip round with a peer replica: exchange
    /// checkpoint digests, then pull every writer the peer is ahead on
    /// (in checkpoint-bounded ranges, each verified before it lands).
    /// Returns the number of records ingested.
    ///
    /// # Errors
    ///
    /// Transport errors from the dial/exchange; [`NetError::Ledger`]
    /// `not_federated` when the NO was spawned without a resolver.
    pub fn sync_once(&self, peer: SocketAddr) -> Result<u64> {
        sync_with_peer(
            &self.ledger,
            self.resolver()?,
            &self.metrics,
            self.cfg,
            peer,
        )
    }

    /// Starts the background gossip loop: every `every`, one
    /// [`sync_once`](Self::sync_once) round against each peer (failures
    /// are counted and retried next tick — a dead peer never stops the
    /// loop). Stopped and joined by [`shutdown`](Self::shutdown);
    /// starting twice replaces the previous loop.
    ///
    /// # Errors
    ///
    /// [`NetError::Ledger`] `not_federated` when the NO was spawned
    /// without a resolver; no loop starts.
    pub fn start_gossip(&self, peers: Vec<SocketAddr>, every: Duration) -> Result<()> {
        let t_resolver = Arc::clone(self.resolver()?);
        let stop = Arc::new(AtomicBool::new(false));
        let t_stop = Arc::clone(&stop);
        let t_ledger = Arc::clone(&self.ledger);
        let t_metrics = Arc::clone(&self.metrics);
        let cfg = self.cfg;
        let handle = std::thread::spawn(move || {
            // Sub-divide each interval so shutdown never waits a full tick.
            let nap = every
                .min(Duration::from_millis(50))
                .max(Duration::from_millis(1));
            let mut elapsed = Duration::ZERO;
            while !t_stop.load(Ordering::Relaxed) {
                std::thread::sleep(nap);
                elapsed += nap;
                if elapsed < every {
                    continue;
                }
                elapsed = Duration::ZERO;
                for &peer in &peers {
                    if t_stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let synced = sync_with_peer(&t_ledger, &t_resolver, &t_metrics, cfg, peer);
                    if let Err(e) = synced {
                        t_metrics.event("gossip_fail", e.code());
                    }
                }
            }
        });
        let mut slot = lock_recover(&self.gossip);
        if let Some(old) = slot.take() {
            old.stop.store(true, Ordering::Relaxed);
            let _ = old.handle.join();
        }
        *slot = Some(GossipLoop { stop, handle });
        Ok(())
    }

    /// The trusted-key map of a federated NO, refused (`not_federated`)
    /// for one spawned without it.
    fn resolver(&self) -> Result<&PeerKeyResolver> {
        self.resolver.as_ref().ok_or_else(|| NetError::Ledger {
            code: "not_federated",
            detail: "no peer key resolver given at spawn".into(),
        })
    }

    /// Stops the background gossip loop, if running.
    pub fn stop_gossip(&self) {
        if let Some(g) = lock_recover(&self.gossip).take() {
            g.stop.store(true, Ordering::Relaxed);
            let _ = g.handle.join();
        }
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests, flush
    /// the ledger to stable storage, and hand the operator and the ledger
    /// back. A failed flush is counted in `net.ledger_errors`.
    ///
    /// # Errors
    ///
    /// [`NetError::Unexpected`] if another handle still holds the operator
    /// or the ledger (cannot happen through this API).
    pub fn shutdown(mut self) -> Result<(NetworkOperator, ReplicatedLedger)> {
        self.stop_gossip();
        self.runtime.shutdown(self.cfg.drain);
        // In-flight handlers have drained: make their appends durable
        // before the daemon disappears.
        let no = take_back(self.no, "operator still shared at shutdown")?;
        let mut ledger = take_back(self.ledger, "ledger still shared at shutdown")?;
        if ledger.flush().is_err() {
            self.metrics.ledger_errors.inc();
        }
        Ok((no, ledger))
    }
}

/// Rebuilds the lists `ledger`'s writer held by [`apply`]ing the
/// revocation records of `op`'s epoch, as [`NoDaemon::spawn`] says.
fn replay(op: &mut NetworkOperator, ledger: &Ledger) -> Result<()> {
    if ledger.epoch_of(u64::MAX) > op.epoch() {
        return Err(NetError::Ledger {
            code: "epoch_ahead",
            detail: format!("ledger past the operator's epoch {}", op.epoch()),
        });
    }
    for kind in [RecordKind::UserRevocation, RecordKind::RouterRevocation] {
        let records = LedgerQuery {
            epoch: Some(op.epoch()),
            kind: Some(kind),
            ..LedgerQuery::default()
        };
        for entry in ledger.query(&records)? {
            apply(op, &entry.record)?;
        }
    }
    Ok(())
}

/// Applies a revocation record to `op`, refused (`ledger_disagrees`) if it
/// names a token outside `grt` or a version `op` does not reach. A record
/// `op` already holds (a duplicate record) applies as a no-op.
fn apply(op: &mut NetworkOperator, record: &LedgerRecord) -> Result<()> {
    let agrees = match record {
        LedgerRecord::UserRevocation { token, url_version } => {
            op.revoke_member(token) && op.url_version() >= *url_version
        }
        LedgerRecord::RouterRevocation {
            serial,
            crl_version,
        } => {
            op.revoke_router(*serial);
            op.crl_version() >= *crl_version
        }
        _ => false,
    };
    agrees.then_some(()).ok_or_else(|| NetError::Ledger {
        code: "ledger_disagrees",
        detail: format!("{:?} against the operator's lists", record.kind()),
    })
}

/// One pull-based gossip round against `peer`: the digest exchange, then
/// [`pull_round`] with the peer as its range source. The ledger mutex is
/// held only in short scopes (digest snapshot, head read, ingest), never
/// across network I/O, so two replicas gossiping at each other
/// concurrently cannot deadlock.
fn sync_with_peer(
    ledger: &Mutex<ReplicatedLedger>,
    resolve: &PeerKeyResolver,
    metrics: &Arc<NetMetrics>,
    cfg: DaemonConfig,
    peer: SocketAddr,
) -> Result<u64> {
    let hello = {
        let rl = lock_recover(ledger);
        NodeMessage::CkptGossip {
            from_no: rl.local_id().to_owned(),
            digests: rl.digests(),
        }
    };
    let conn = Connection::dial(peer, cfg.connect_timeout, cfg.conn, Arc::clone(metrics))?;
    let mut src = PeerRanges {
        conn,
        metrics,
        hello,
    };
    let (total, refused) = pull_round(&mut { ledger }, &mut src, &|s| resolve(s))?;
    for e in refused {
        // Deterministic refusal or equivocation evidence (the quarantine
        // is already recorded in the replica store): that writer waits
        // for the next round, the rest synced.
        metrics.event("repl_refuse", e.code());
    }
    src.conn.close();
    metrics.repl_records_in.add(total);
    metrics.repl_rounds.inc();
    Ok(total)
}

/// A peer replica as a [`pull_round`]'s range source, over one connection.
struct PeerRanges<'a> {
    conn: Connection,
    metrics: &'a Arc<NetMetrics>,
    /// The local digests, sent to open the exchange.
    hello: NodeMessage,
}

impl RangeSource for PeerRanges<'_> {
    type Error = NetError;

    fn digests(&mut self) -> Result<Vec<WriterDigest>> {
        self.conn.send(&self.hello)?;
        match self.conn.recv()?.into_reply(self.metrics)? {
            NodeMessage::CkptGossip { digests, .. } => Ok(digests),
            _ => Err(NetError::Unexpected("expected CkptGossip reply")),
        }
    }

    fn pull_range(&mut self, writer: &str, from_seq: u64) -> Pulled<NetError> {
        self.conn.send(&NodeMessage::RangePull {
            writer: writer.to_owned(),
            from_seq,
        })?;
        match self.conn.recv()? {
            NodeMessage::RangePush { range } => Ok(Ok(range.map(|r| *r))),
            // Compacted-away range, transient refusal, …: that writer
            // waits for the next round.
            NodeMessage::Reject { .. } => Ok(Err(LedgerError::Replication {
                writer: writer.to_owned(),
                what: "peer refused the pull",
            })),
            _ => Err(NetError::Unexpected("expected RangePush reply")),
        }
    }
}
