//! The network-operator daemon: serves the signed bulletin (current CRL +
//! URL + key epoch) to polling routers and users, and applies dynamic
//! revocations at runtime.
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
use peace_ledger::{Checkpoint, Ledger, LedgerRecord, ReplicatedLedger};
use peace_protocol::entities::NetworkOperator;

use crate::clock::wall_ms;
use crate::conn::Connection;
use crate::envelope::NodeMessage;
use crate::error::{NetError, Result};
use crate::metrics::{MetricsSnapshot, NetMetrics};
use crate::reactor::EventLoop;
use crate::session::{NoShared, Service};

use super::{lock_recover, DaemonConfig};

/// Shared, thread-safe map from a checkpoint-signer / writer name to its
/// trusted verifying key, used by replication ingest and gossip.
pub type PeerKeyResolver = Arc<dyn Fn(&str) -> Option<VerifyingKey> + Send + Sync>;

/// The background checkpoint-gossip loop of a federated NO.
struct GossipLoop {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

/// A running NO bulletin server.
pub struct NoDaemon {
    no: Arc<Mutex<NetworkOperator>>,
    ledger: Arc<Mutex<Option<ReplicatedLedger>>>,
    resolver: Arc<Mutex<Option<PeerKeyResolver>>>,
    /// When replication is attached: checkpoint the local shard after each
    /// accepted report batch, so peers can pull it promptly (ranges only
    /// travel up to a signed checkpoint).
    auto_checkpoint: Arc<AtomicBool>,
    gossip: Mutex<Option<GossipLoop>>,
    runtime: EventLoop,
    metrics: Arc<NetMetrics>,
    cfg: DaemonConfig,
}

impl NoDaemon {
    /// Takes ownership of the operator and starts serving bulletins on
    /// `bind` (use `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the listener cannot bind.
    pub fn spawn(no: NetworkOperator, bind: &str, cfg: DaemonConfig) -> Result<Self> {
        let no = Arc::new(Mutex::new(no));
        let ledger: Arc<Mutex<Option<ReplicatedLedger>>> = Arc::new(Mutex::new(None));
        let auto_checkpoint = Arc::new(AtomicBool::new(false));
        let shared = NoShared {
            no: Arc::clone(&no),
            ledger: Arc::clone(&ledger),
            auto_checkpoint: Arc::clone(&auto_checkpoint),
        };
        Ok(Self {
            runtime: EventLoop::spawn(bind, cfg, Service::No(shared))?,
            no,
            ledger,
            resolver: Arc::new(Mutex::new(None)),
            auto_checkpoint,
            gossip: Mutex::new(None),
            metrics: Arc::new(NetMetrics::default()),
            cfg,
        })
    }

    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.runtime.addr()
    }

    /// A point-in-time copy of the daemon counters (summed across every
    /// shard).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.merge(&self.runtime.metrics());
        snap
    }

    /// Full telemetry export: counters and ledger-failure events —
    /// merged across shards.
    pub fn telemetry(&self) -> peace_telemetry::Snapshot {
        let mut snap = self.metrics.telemetry();
        snap.merge(&self.runtime.telemetry());
        snap
    }

    /// Live connection count.
    pub fn live_connections(&self) -> usize {
        self.runtime.live_connections()
    }

    /// Revokes a member key at runtime; subsequent bulletins carry the
    /// bumped URL. Returns `false` for a token outside `grt`. With a
    /// ledger attached, the revocation is durably recorded.
    pub fn revoke_user(&self, token: &RevocationToken) -> bool {
        let (ok, url_version) = {
            let mut op = lock_recover(&self.no);
            (op.revoke_member(token), op.url_version())
        };
        if ok {
            self.ledger_append(LedgerRecord::UserRevocation {
                token: *token,
                url_version,
            });
        }
        ok
    }

    /// Revokes a router certificate at runtime. With a ledger attached,
    /// the revocation is durably recorded.
    pub fn revoke_router(&self, serial: u64) {
        let crl_version = {
            let mut op = lock_recover(&self.no);
            op.revoke_router(serial);
            op.crl_version()
        };
        self.ledger_append(LedgerRecord::RouterRevocation {
            serial,
            crl_version,
        });
    }

    /// Rotates the system key (epoch rollover, §V.A) and records the
    /// rollover in the attached ledger so that epoch-scoped audit queries
    /// know where the boundary falls.
    pub fn rotate_epoch(&self, rng: &mut impl rand::RngCore) -> u64 {
        let epoch = {
            let mut op = lock_recover(&self.no);
            op.rotate_system_key(rng);
            op.epoch()
        };
        self.ledger_append(LedgerRecord::EpochRollover { epoch });
        epoch
    }

    /// Runs `f` against the live operator (audits, log ingestion).
    pub fn with_operator<R>(&self, f: impl FnOnce(&mut NetworkOperator) -> R) -> R {
        f(&mut lock_recover(&self.no))
    }

    /// Attaches a durable accountability ledger as a single-writer
    /// replica store (writer id `"NO"`). Session reports, revocations,
    /// and epoch rollovers are persisted from now on.
    pub fn attach_ledger(&self, ledger: Ledger) {
        *lock_recover(&self.ledger) = Some(ReplicatedLedger::from_single(ledger, "NO"));
    }

    /// Detaches the ledger (flushed), handing back the writable local
    /// shard. Mirror shards, if any, stay on disk and reopen with the
    /// replica store.
    pub fn detach_ledger(&self) -> Option<Ledger> {
        let mut slot = lock_recover(&self.ledger);
        if let Some(rl) = slot.as_mut() {
            let _ = rl.flush();
        }
        slot.take().map(ReplicatedLedger::into_local)
    }

    /// Attaches a multi-writer replica store plus the trusted-key map its
    /// checkpoint verification uses, enabling federation: gossip
    /// endpoints answer, report batches are checkpointed for prompt
    /// replication, and [`sync_once`](Self::sync_once) can pull peers.
    pub fn attach_replica(&self, replica: ReplicatedLedger, resolve: PeerKeyResolver) {
        *lock_recover(&self.resolver) = Some(resolve);
        self.auto_checkpoint.store(true, Ordering::Relaxed);
        *lock_recover(&self.ledger) = Some(replica);
    }

    /// Detaches the whole replica store (flushed), stopping federation
    /// behavior.
    pub fn detach_replica(&self) -> Option<ReplicatedLedger> {
        self.auto_checkpoint.store(false, Ordering::Relaxed);
        *lock_recover(&self.resolver) = None;
        let mut slot = lock_recover(&self.ledger);
        if let Some(rl) = slot.as_mut() {
            let _ = rl.flush();
        }
        slot.take()
    }

    /// Runs `f` against the writable local ledger shard, if attached.
    pub fn with_ledger<R>(&self, f: impl FnOnce(&mut Ledger) -> R) -> Option<R> {
        lock_recover(&self.ledger)
            .as_mut()
            .map(|rl| f(rl.local_mut()))
    }

    /// Runs `f` against the whole replica store, if attached.
    pub fn with_replica<R>(&self, f: impl FnOnce(&mut ReplicatedLedger) -> R) -> Option<R> {
        lock_recover(&self.ledger).as_mut().map(f)
    }

    /// Appends a signed checkpoint over the local shard head using the
    /// operator's certified signing key (signer = the replica's writer
    /// id), then syncs it to disk. Returns `None` when no ledger is
    /// attached.
    pub fn checkpoint_now(&self) -> Option<peace_ledger::Result<Checkpoint>> {
        let op = lock_recover(&self.no);
        let mut slot = lock_recover(&self.ledger);
        slot.as_mut().map(|rl| {
            let signer = rl.local_id().to_owned();
            rl.local_mut()
                .checkpoint(op.signing_key(), &signer, wall_ms())
        })
    }

    /// One pull-based gossip round with a peer replica: exchange
    /// checkpoint digests, then pull every writer the peer is ahead on
    /// (in checkpoint-bounded ranges, each verified before it lands).
    /// Returns the number of records ingested.
    ///
    /// # Errors
    ///
    /// Transport errors from the dial/exchange; [`NetError::Unexpected`]
    /// when no replica or resolver is attached.
    pub fn sync_once(&self, peer: SocketAddr) -> Result<u64> {
        sync_with_peer(&self.ledger, &self.resolver, &self.metrics, self.cfg, peer)
    }

    /// Starts the background gossip loop: every `every`, one
    /// [`sync_once`](Self::sync_once) round against each peer (failures
    /// are counted and retried next tick — a dead peer never stops the
    /// loop). Stopped and joined by [`shutdown`](Self::shutdown);
    /// starting twice replaces the previous loop.
    pub fn start_gossip(&self, peers: Vec<SocketAddr>, every: Duration) {
        let stop = Arc::new(AtomicBool::new(false));
        let t_stop = Arc::clone(&stop);
        let t_ledger = Arc::clone(&self.ledger);
        let t_resolver = Arc::clone(&self.resolver);
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
                    if let Err(e) = sync_with_peer(&t_ledger, &t_resolver, &t_metrics, cfg, peer) {
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
    }

    /// Stops the background gossip loop, if running.
    pub fn stop_gossip(&self) {
        if let Some(g) = lock_recover(&self.gossip).take() {
            g.stop.store(true, Ordering::Relaxed);
            let _ = g.handle.join();
        }
    }

    /// Best-effort ledger append (errors are counted, not fatal: losing a
    /// revocation *record* must not block the revocation itself).
    fn ledger_append(&self, record: LedgerRecord) {
        let mut slot = lock_recover(&self.ledger);
        if let Some(rl) = slot.as_mut() {
            let l = rl.local_mut();
            if let Err(e) = l.append(record, wall_ms()).and_then(|_| l.flush()) {
                self.metrics.ledger_errors.inc();
                self.metrics.event("ledger_error", e.code());
            }
        }
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests, flush
    /// the attached ledger to stable storage, and hand the operator back.
    /// Detach the ledger first (or after) to reclaim it; if left attached
    /// it is flushed and closed here.
    ///
    /// # Errors
    ///
    /// [`NetError::Unexpected`] if another handle still holds the operator
    /// (cannot happen through this API).
    pub fn shutdown(mut self) -> Result<NetworkOperator> {
        self.stop_gossip();
        self.runtime.shutdown(self.cfg.drain);
        // In-flight handlers have drained: make their appends durable
        // before the daemon disappears.
        if let Some(rl) = lock_recover(&self.ledger).as_mut() {
            if rl.flush().is_err() {
                self.metrics.ledger_errors.inc();
            }
        }
        Arc::try_unwrap(self.no)
            .map_err(|_| NetError::Unexpected("operator still shared at shutdown"))
            .map(|m| match m.into_inner() {
                Ok(no) => no,
                Err(p) => p.into_inner(),
            })
    }
}

/// One pull-based gossip round against `peer`.
///
/// Exchanges checkpoint digests, then for every writer the peer holds a
/// signed checkpoint for, pulls checkpoint-bounded ranges until local
/// state reaches the advertised checkpoint. The ledger mutex is held only
/// in short scopes (digest snapshot, head read, ingest) — never across
/// network I/O — so two replicas gossiping at each other concurrently
/// cannot deadlock. That is also why this loop is not
/// [`ReplicatedLedger::pull_from`], the same walk between two ledgers in
/// one process: that one holds both for the whole round.
fn sync_with_peer(
    ledger: &Mutex<Option<ReplicatedLedger>>,
    resolver: &Mutex<Option<PeerKeyResolver>>,
    metrics: &Arc<NetMetrics>,
    cfg: DaemonConfig,
    peer: SocketAddr,
) -> Result<u64> {
    let resolve = lock_recover(resolver)
        .clone()
        .ok_or(NetError::Unexpected("no replica key resolver attached"))?;
    let (local_id, my_digests) = {
        let slot = lock_recover(ledger);
        let rl = slot
            .as_ref()
            .ok_or(NetError::Unexpected("no replica ledger attached"))?;
        (rl.local_id().to_owned(), rl.digests())
    };

    let mut conn = Connection::dial(peer, cfg.connect_timeout, cfg.conn, Arc::clone(metrics))?;
    conn.send(&NodeMessage::CkptGossip {
        from_no: local_id.clone(),
        digests: my_digests,
    })?;
    let NodeMessage::CkptGossip {
        digests: peer_digests,
        ..
    } = conn.recv()?.into_reply(metrics)?
    else {
        return Err(NetError::Unexpected("expected CkptGossip reply"));
    };

    let mut total: u64 = 0;
    'writers: for d in peer_digests {
        if d.writer == local_id || d.quarantined {
            continue;
        }
        // Only attested history travels: nothing to pull until the peer
        // holds a signed checkpoint for this writer.
        let Some(target) = d.ckpt_seq else { continue };
        loop {
            let from_seq = {
                let slot = lock_recover(ledger);
                let rl = slot
                    .as_ref()
                    .ok_or(NetError::Unexpected("replica ledger detached mid-sync"))?;
                if rl.is_quarantined(&d.writer) {
                    continue 'writers;
                }
                rl.shard_next_seq(&d.writer)
            };
            if from_seq > target {
                break;
            }
            conn.send(&NodeMessage::RangePull {
                writer: d.writer.clone(),
                from_seq,
            })?;
            match conn.recv()? {
                NodeMessage::RangePush { range: Some(range) } => {
                    let ingested = {
                        let mut slot = lock_recover(ledger);
                        let rl = slot
                            .as_mut()
                            .ok_or(NetError::Unexpected("replica ledger detached mid-sync"))?;
                        rl.ingest_range(&range, &|s| resolve(s))
                    };
                    match ingested {
                        Ok(n) => {
                            metrics.repl_records_in.add(n);
                            total += n;
                        }
                        Err(e) if matches!(e.code(), "replication" | "quarantined") => {
                            // Deterministic refusal or equivocation
                            // evidence: skip this writer, keep syncing the
                            // rest. The quarantine (if any) is already
                            // recorded in the replica store.
                            metrics.event("repl_refuse", e.code());
                            continue 'writers;
                        }
                        Err(e) => {
                            return Err(NetError::Ledger {
                                code: e.code(),
                                detail: e.to_string(),
                            });
                        }
                    }
                }
                // Peer has nothing (more) attested to serve from here.
                NodeMessage::RangePush { range: None } => continue 'writers,
                NodeMessage::Reject { .. } => {
                    // Compacted-away range, transient refusal, …: skip the
                    // writer this round rather than failing the whole sync.
                    metrics.event("repl_refuse", "peer_rejected_pull");
                    continue 'writers;
                }
                _ => return Err(NetError::Unexpected("expected RangePush reply")),
            }
        }
    }
    conn.close();
    metrics.repl_rounds.inc();
    Ok(total)
}
