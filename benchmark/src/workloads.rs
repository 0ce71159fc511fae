//! The workloads: what each sets up, what one operation is, and what is
//! checked about its outputs. Everything here drives the program through
//! its public API only and builds its inputs from the seed.
//!
//! A workload is a set of [`Client`]s, one per generator thread, each
//! running its operation in a closed loop, plus a `finish` step that checks
//! the program's own counts against the clients' and shuts the program down.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use peace::ledger::{
    audit_sweep, AccessRecord, Ledger, LedgerConfig, LedgerRecord, ReplicatedLedger,
};
use peace::net::clock::wall_ms;
use peace::net::{
    build_world_with, reject_code, BuiltWorld, DaemonConfig, NetError, RouterDaemon, UserAgent,
    UserSession, WorldSpec,
};
use peace::protocol::audit::LoggedSession;
use peace::protocol::entities::NetworkOperator;
use peace::protocol::ProtocolConfig;
use peace::telemetry::Snapshot;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::spans::Spans;

/// Sizes. The README states why each has the value it has.
pub const URL64: usize = 64;
pub const ECHO_SMALL: usize = 64;
pub const ECHO_LARGE: usize = 1400;
pub const APPEND_RECORDS: u64 = 4000;
pub const RECOVER_RECORDS: u64 = 8000;
pub const CHECKPOINT_EVERY: u64 = 500;
pub const CATCHUP_RECORDS: u64 = 100;
pub const CATCHUP_CHECKPOINT_EVERY: u64 = 50;
pub const GRT_ROWS: usize = 16;
pub const AUDIT_RECORDS: usize = 16;

/// One generator thread's side of a workload.
pub trait Client: Send {
    /// Untimed work between two operations: generating the next input,
    /// removing the files the last operation left.
    fn prepare(&mut self) {}

    /// One operation, timed by the caller from call to return. Checks its
    /// own output; an `Err` is a failed operation.
    fn op(&mut self, spans: &mut Spans) -> Result<(), String>;

    /// Handshakes this client completed, for the books to balance against
    /// the router's count.
    fn handshakes(&self) -> u64 {
        0
    }

    /// The program's client-side telemetry, where the client has any.
    fn telemetry(&self) -> Option<Snapshot> {
        None
    }
}

/// A workload that is set up, warmed up and ready to be measured.
pub struct Live {
    pub clients: Vec<Box<dyn Client>>,
    /// How many of `unit` one operation stands for (records per batch), so
    /// a run can also print a per-record rate.
    pub units_per_op: u64,
    pub unit: &'static str,
    /// The router the clients talk to, in the network workloads.
    daemon: Option<RouterDaemon>,
    /// Workload-specific last checks and clean-up.
    last: Box<dyn FnOnce() -> Result<(), String>>,
}

impl Live {
    /// The program's telemetry as of now: the clients' under `client.` and
    /// the router's under `router.`. Empty for the workloads without
    /// sockets (the ledger records into the process-wide registry).
    pub fn telemetry(&self) -> Snapshot {
        let mut merged = Snapshot::default();
        for t in self.clients.iter().filter_map(|c| c.telemetry()) {
            merged.merge_prefixed(&t, "client");
        }
        if let Some(d) = &self.daemon {
            merged.merge_prefixed(&d.telemetry(), "router");
        }
        merged
    }

    /// Runs the last output checks, balances the clients' handshake count
    /// against the router's, and shuts the program down.
    pub fn finish(self) -> Result<(), String> {
        (self.last)()?;
        let client_side: u64 = self.clients.iter().map(|c| c.handshakes()).sum();
        // Held sessions close here; the daemon's shutdown would otherwise
        // wait out its drain deadline for them.
        drop(self.clients);
        let Some(daemon) = self.daemon else {
            return Ok(());
        };
        let router = daemon.telemetry();
        daemon.shutdown().map_err(|e| err("router shutdown", e))?;
        let counter = |name: &str| router.counters.get(name).copied().unwrap_or(0);
        if counter("net.handshakes_ok") != client_side {
            return Err(format!(
                "clients completed {client_side} handshakes, the router counted {}",
                counter("net.handshakes_ok")
            ));
        }
        if counter("net.handler_panics") != 0 {
            return Err("a router handler panicked".into());
        }
        Ok(())
    }
}

/// Generator threads and connections: two, and never more than the box
/// has processors. The daemons' own threads belong to the program.
pub fn generator_threads() -> usize {
    crate::procfs::nproc().min(2)
}

/// Sets the named workload up from `seed`, runs its warm-up operations, and
/// returns it ready for the measured window.
pub fn setup(name: &str, seed: u64) -> Result<Live, String> {
    let (mut live, warm_ops) = match name {
        "access_fresh" => (access(seed, 0, 0)?, 4),
        "access_url64" => (access(seed, URL64, 0)?, 2),
        // Not a workload of the contract (see the README): the traced run
        // puts the event-loop runtime under the access_fresh load with it.
        "access_reactor" => (access(seed, 0, 2)?, 4),
        "data_echo" => (data_echo(seed)?, 200),
        "ledger_append" => (ledger_append(seed)?, 1),
        "ledger_recover" => (ledger_recover(seed)?, 2),
        "ledger_catchup" => (ledger_catchup(seed)?, 1),
        "audit_sweep" => (audit(seed)?, 1),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let mut off = Spans::disabled();
    for client in &mut live.clients {
        for _ in 0..warm_ops {
            client.prepare();
            client.op(&mut off)?;
        }
    }
    Ok(live)
}

pub fn err(what: &str, e: impl std::fmt::Debug) -> String {
    format!("{what}: {e:?}")
}

// ---------------------------------------------------------------------
// Network workloads
// ---------------------------------------------------------------------

/// The 60 s default expires the lists published at set-up in mid-run, and
/// every client then rejects every beacon as stale.
fn protocol_config() -> ProtocolConfig {
    ProtocolConfig {
        list_max_age: 3_600_000,
        ..ProtocolConfig::default()
    }
}

/// A one-router world with `clients` enrolled users plus `revoked` more
/// whose tokens are on the URL the router and every user adopt.
pub fn net_world(seed: u64, clients: usize, revoked: usize) -> Result<BuiltWorld, String> {
    let spec = WorldSpec {
        seed,
        users: clients + revoked,
        routers: 1,
    };
    let mut w = build_world_with(&spec, protocol_config()).map_err(|e| err("world", e))?;
    for token in &w.tokens[clients..] {
        if !w.no.revoke_member(token) {
            return Err("revoke_member refused an enrolled token".into());
        }
    }
    let now = wall_ms();
    let (crl, url) = (w.no.publish_crl(now), w.no.publish_url(now));
    for user in &mut w.users {
        user.adopt_lists(&crl, &url, now)
            .map_err(|e| err("adopt_lists", e))?;
    }
    w.routers[0].update_lists(crl, url);
    Ok(w)
}

fn daemon_config(shards: usize) -> DaemonConfig {
    DaemonConfig {
        max_connections: 256,
        shards,
        ..DaemonConfig::default()
    }
}

/// A running router, its address, and one agent per enrolled user.
pub struct Mesh {
    pub daemon: RouterDaemon,
    pub addr: SocketAddr,
    pub agents: Vec<UserAgent>,
}

pub fn spawn_mesh(w: BuiltWorld, seed: u64, shards: usize) -> Result<Mesh, String> {
    let cfg = daemon_config(shards);
    let router = w.routers.into_iter().next().ok_or("world has no router")?;
    let daemon = RouterDaemon::spawn(router, seed ^ 0xD43, "127.0.0.1:0", cfg)
        .map_err(|e| err("router spawn", e))?;
    let agents = w
        .users
        .into_iter()
        .enumerate()
        .map(|(i, u)| UserAgent::new(u, seed ^ (0xA6E57 + i as u64), cfg))
        .collect();
    Ok(Mesh {
        addr: daemon.addr(),
        daemon,
        agents,
    })
}

/// One client's payload stream: fresh bytes of both sizes for every
/// operation, and which size goes first. Same seed, same stream.
pub struct Payloads {
    rng: StdRng,
    pub small: [u8; ECHO_SMALL],
    pub large: [u8; ECHO_LARGE],
    pub large_first: bool,
}

impl Payloads {
    pub fn new(seed: u64, client: usize) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ (0xEC40 + client as u64)),
            small: [0; ECHO_SMALL],
            large: [0; ECHO_LARGE],
            large_first: false,
        }
    }

    pub fn advance(&mut self) {
        self.rng.fill_bytes(&mut self.small);
        self.rng.fill_bytes(&mut self.large);
        self.large_first = self.rng.gen();
    }
}

/// connect (M.1 → M.3), one 64-byte echo, close.
struct AccessClient {
    agent: UserAgent,
    addr: SocketAddr,
    payloads: Payloads,
    handshakes: u64,
}

impl Client for AccessClient {
    fn prepare(&mut self) {
        self.payloads.advance();
    }

    fn op(&mut self, spans: &mut Spans) -> Result<(), String> {
        let mut session = spans
            .scope("client.connect", |_| self.agent.connect(self.addr))
            .map_err(|e| err("connect", e))?;
        self.handshakes += 1;
        let reply = spans
            .scope("client.echo", |_| session.echo(&self.payloads.small))
            .map_err(|e| err("echo", e))?;
        spans.scope("client.close", |_| session.close());
        if reply != self.payloads.small {
            return Err("echo reply differs from its payload".into());
        }
        Ok(())
    }

    fn handshakes(&self) -> u64 {
        self.handshakes
    }

    fn telemetry(&self) -> Option<Snapshot> {
        Some(self.agent.telemetry())
    }
}

fn expect_revoked(agent: &mut UserAgent, addr: SocketAddr) -> Result<(), String> {
    match agent.connect(addr) {
        Err(NetError::Rejected { code, .. }) if code == reject_code::REVOKED => Ok(()),
        Err(e) => Err(err("revoked user was refused, but not as REVOKED", e)),
        Ok(_) => Err("revoked user was admitted".into()),
    }
}

fn access(seed: u64, revoked: usize, shards: usize) -> Result<Live, String> {
    let n = generator_threads();
    let mut mesh = spawn_mesh(net_world(seed, n, revoked)?, seed, shards)?;
    let addr = mesh.addr;
    // With a URL in force, one revoked user must be refused as REVOKED
    // before the window and again after it; neither attempt is an operation.
    let mut probe = (revoked > 0).then(|| mesh.agents.remove(n));
    if let Some(p) = &mut probe {
        expect_revoked(p, addr)?;
    }
    let clients = mesh
        .agents
        .drain(..n)
        .enumerate()
        .map(|(i, agent)| {
            Box::new(AccessClient {
                agent,
                addr,
                payloads: Payloads::new(seed, i),
                handshakes: 0,
            }) as Box<dyn Client>
        })
        .collect();
    Ok(Live {
        clients,
        units_per_op: 1,
        unit: "sessions",
        daemon: Some(mesh.daemon),
        last: Box::new(move || probe.as_mut().map_or(Ok(()), |p| expect_revoked(p, addr))),
    })
}

/// One 64-byte and one 1400-byte echo on a held session, in seeded order.
/// The pair is one operation: a 50/50 mix of two sizes has no stable median.
struct EchoClient {
    agent: UserAgent,
    session: Option<UserSession>,
    payloads: Payloads,
}

impl EchoClient {
    fn echo(&mut self, spans: &mut Spans, large: bool) -> Result<(), String> {
        let session = self.session.as_mut().ok_or("session already closed")?;
        let (name, payload): (_, &[u8]) = if large {
            ("client.echo_large", &self.payloads.large)
        } else {
            ("client.echo_small", &self.payloads.small)
        };
        let reply = spans
            .scope(name, |_| session.echo(payload))
            .map_err(|e| err("echo", e))?;
        if reply != payload {
            return Err("echo reply differs from its payload".into());
        }
        Ok(())
    }
}

impl Client for EchoClient {
    fn prepare(&mut self) {
        self.payloads.advance();
    }

    fn op(&mut self, spans: &mut Spans) -> Result<(), String> {
        self.echo(spans, self.payloads.large_first)?;
        self.echo(spans, !self.payloads.large_first)
    }

    fn handshakes(&self) -> u64 {
        1
    }

    fn telemetry(&self) -> Option<Snapshot> {
        Some(self.agent.telemetry())
    }
}

impl Drop for EchoClient {
    fn drop(&mut self) {
        if let Some(s) = self.session.take() {
            s.close();
        }
    }
}

fn data_echo(seed: u64) -> Result<Live, String> {
    let n = generator_threads();
    let mesh = spawn_mesh(net_world(seed, n, 0)?, seed, 0)?;
    let addr = mesh.addr;
    let mut clients: Vec<Box<dyn Client>> = Vec::new();
    for (i, mut agent) in mesh.agents.into_iter().enumerate() {
        let session = agent.connect(addr).map_err(|e| err("connect", e))?;
        clients.push(Box::new(EchoClient {
            agent,
            session: Some(session),
            payloads: Payloads::new(seed, i),
        }));
    }
    Ok(Live {
        clients,
        units_per_op: 2,
        unit: "echoes",
        daemon: Some(mesh.daemon),
        last: Box::new(|| Ok(())),
    })
}

// ---------------------------------------------------------------------
// Accountability workloads: the operator's side, one thread, no sockets
// ---------------------------------------------------------------------

/// Where this process keeps its ledgers: under the benchmark's own `out/`,
/// so a run reads and writes only inside its checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory of this process's own, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(name: &str) -> Result<Self, String> {
        let dir = out_dir().join(format!("tmp-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| err("create scratch dir", e))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A 16-user world (16 `grt` rows) and `n` real transcripts made by entity
/// calls, so record sizes and audit costs are the deployed ones.
pub fn audit_world(seed: u64, n: usize) -> Result<(BuiltWorld, Vec<AccessRecord>), String> {
    let spec = WorldSpec {
        seed,
        users: GRT_ROWS,
        routers: 1,
    };
    let mut w = build_world_with(&spec, protocol_config()).map_err(|e| err("world", e))?;
    let mut now = 1_000u64;
    for s in 0..n {
        let beacon = w.routers[0].beacon(now, &mut w.rng);
        let req = w.users[s % GRT_ROWS]
            .request_access(&beacon, now + 50, &mut w.rng)
            .map_err(|e| err("request_access", e))?;
        w.routers[0]
            .process_access_request(&req, now + 100)
            .map_err(|e| err("process_access_request", e))?;
        now += 1_000;
    }
    let router = w.routers[0].id().0.clone();
    let records: Vec<AccessRecord> = w.routers[0]
        .drain_log()
        .into_iter()
        .map(|session: LoggedSession| AccessRecord {
            router: router.clone(),
            session,
        })
        .collect();
    if records.len() != n {
        return Err(format!("router logged {} of {n} sessions", records.len()));
    }
    Ok((w, records))
}

/// Appends `n` access records, cycling through `records`, with a signed
/// checkpoint every `every`, then flushes. Returns the ledger's length,
/// checkpoint records included.
pub fn fill(
    ledger: &mut Ledger,
    records: &[AccessRecord],
    n: u64,
    every: u64,
    no: &NetworkOperator,
    signer: &str,
) -> Result<u64, String> {
    for i in 0..n {
        let record = records[i as usize % records.len()].clone();
        ledger
            .append(LedgerRecord::Access(record), i)
            .map_err(|e| err("append", e))?;
        if (i + 1) % every == 0 {
            ledger
                .checkpoint(no.signing_key(), signer, i)
                .map_err(|e| err("checkpoint", e))?;
        }
    }
    ledger.flush().map_err(|e| err("flush", e))?;
    Ok(ledger.len())
}

pub fn open_ledger(dir: &Path) -> Result<Ledger, String> {
    Ledger::open(dir, LedgerConfig::default())
        .map(|(ledger, _)| ledger)
        .map_err(|e| err("ledger open", e))
}

fn offline(client: impl Client + 'static, units_per_op: u64, scratch: Scratch) -> Live {
    Live {
        clients: vec![Box::new(client)],
        units_per_op,
        unit: "records",
        daemon: None,
        last: Box::new(move || {
            drop(scratch);
            Ok(())
        }),
    }
}

/// Opens an empty ledger, appends 4000 records with a signed checkpoint
/// every 500, and flushes.
struct AppendClient {
    no: Arc<NetworkOperator>,
    records: Arc<Vec<AccessRecord>>,
    dir: PathBuf,
}

impl Client for AppendClient {
    fn prepare(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    fn op(&mut self, spans: &mut Spans) -> Result<(), String> {
        let mut ledger = spans.scope("ledger.open_empty", |_| open_ledger(&self.dir))?;
        let len = spans.scope("ledger.append_batch", |_| {
            fill(
                &mut ledger,
                &self.records,
                APPEND_RECORDS,
                CHECKPOINT_EVERY,
                &self.no,
                "NO",
            )
        })?;
        if len != APPEND_RECORDS + APPEND_RECORDS / CHECKPOINT_EVERY {
            return Err(format!("ledger holds {len} records after the batch"));
        }
        Ok(())
    }
}

fn ledger_append(seed: u64) -> Result<Live, String> {
    let (w, records) = audit_world(seed, GRT_ROWS)?;
    let scratch = Scratch::new("append")?;
    let client = AppendClient {
        no: Arc::new(w.no),
        records: Arc::new(records),
        dir: scratch.path().join("log"),
    };
    Ok(offline(client, APPEND_RECORDS, scratch))
}

/// Cold `Ledger::open` of the 8000-record log: every frame's CRC and the
/// hash chain are replayed; the page cache is warm.
struct RecoverClient {
    dir: PathBuf,
    expect: u64,
}

impl Client for RecoverClient {
    fn op(&mut self, spans: &mut Spans) -> Result<(), String> {
        let ledger = spans.scope("ledger.open_cold", |_| open_ledger(&self.dir))?;
        if ledger.len() != self.expect {
            return Err(format!(
                "reopened ledger holds {} of {} records",
                ledger.len(),
                self.expect
            ));
        }
        Ok(())
    }
}

fn ledger_recover(seed: u64) -> Result<Live, String> {
    let (w, records) = audit_world(seed, GRT_ROWS)?;
    let scratch = Scratch::new("recover")?;
    let dir = scratch.path().join("log");
    let expect = fill(
        &mut open_ledger(&dir)?,
        &records,
        RECOVER_RECORDS,
        CHECKPOINT_EVERY,
        &w.no,
        "NO",
    )?;
    Ok(offline(RecoverClient { dir, expect }, expect, scratch))
}

pub fn open_replica(
    dir: &Path,
    id: &str,
    no: &NetworkOperator,
) -> Result<ReplicatedLedger, String> {
    let npk = *no.npk();
    ReplicatedLedger::open(dir, id, LedgerConfig::default(), &|s: &str| {
        s.starts_with("NO-").then_some(npk)
    })
    .map(|(replica, _)| replica)
    .map_err(|e| err("replica open", e))
}

/// An empty follower pulls the writer's whole shard as checkpoint-attested
/// ranges and must end with the writer's merged digest.
struct CatchupClient {
    no: Arc<NetworkOperator>,
    writer: ReplicatedLedger,
    /// Kept for `finish`, which compares its merged digest to the writer's.
    last_follower: Arc<Mutex<Option<ReplicatedLedger>>>,
    dir: PathBuf,
}

impl Client for CatchupClient {
    fn prepare(&mut self) {
        if let Ok(mut last) = self.last_follower.lock() {
            *last = None;
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    fn op(&mut self, spans: &mut Spans) -> Result<(), String> {
        let npk = *self.no.npk();
        let resolve = move |s: &str| s.starts_with("NO-").then_some(npk);
        let mut follower = spans.scope("ledger.open_follower", |_| {
            open_replica(&self.dir, "NO-1", &self.no)
        })?;
        let target = self.writer.digests()[0]
            .ckpt_seq
            .ok_or("writer has no checkpoint")?;
        loop {
            let from = follower.shard_next_seq("NO-0");
            if from > target {
                break;
            }
            let range = spans
                .scope("ledger.serve_range", |_| {
                    self.writer.serve_range("NO-0", from)
                })
                .map_err(|e| err("serve_range", e))?
                .ok_or("writer served no range below its own checkpoint")?;
            spans
                .scope("ledger.ingest_range", |_| {
                    follower.ingest_range(&range, &resolve)
                })
                .map_err(|e| err("ingest_range", e))?;
        }
        spans
            .scope("ledger.flush", |_| follower.flush())
            .map_err(|e| err("follower flush", e))?;
        // Equal chain heads mean byte-equal shards. The merged digests,
        // which decode every record and so cost about as much as the
        // catch-up itself, are compared once, by `finish`.
        let mirrored = follower.digests().into_iter().find(|d| d.writer == "NO-0");
        if mirrored != self.writer.digests().into_iter().next() {
            return Err("follower's mirror of NO-0 differs from the writer's shard".into());
        }
        *self.last_follower.lock().map_err(|_| "poisoned")? = Some(follower);
        Ok(())
    }
}

fn ledger_catchup(seed: u64) -> Result<Live, String> {
    let (w, records) = audit_world(seed, GRT_ROWS)?;
    let scratch = Scratch::new("catchup")?;
    let mut writer = open_replica(&scratch.path().join("writer"), "NO-0", &w.no)?;
    let len = fill(
        writer.local_mut(),
        &records,
        CATCHUP_RECORDS,
        CATCHUP_CHECKPOINT_EVERY,
        &w.no,
        "NO-0",
    )?;
    let writer_digest = writer.merged_digest();
    let last_follower = Arc::new(Mutex::new(None));
    let client = CatchupClient {
        no: Arc::new(w.no),
        writer,
        last_follower: Arc::clone(&last_follower),
        dir: scratch.path().join("follower"),
    };
    let mut live = offline(client, len, scratch);
    let remove_scratch = live.last;
    live.last = Box::new(move || {
        let last = last_follower.lock().map_err(|_| "poisoned")?.take();
        let follower_digest = last.ok_or("no catch-up completed")?.merged_digest();
        if follower_digest.is_err() || follower_digest.ok() != writer_digest.ok() {
            return Err("follower and writer merged digests differ".into());
        }
        remove_scratch()
    });
    Ok(live)
}

/// Open/Audit: every transcript in a 16-record ledger is opened against the
/// operator's 16 `grt` rows in one batched sweep; all must resolve.
struct AuditClient {
    no: NetworkOperator,
    ledger: Ledger,
}

impl Client for AuditClient {
    fn op(&mut self, spans: &mut Spans) -> Result<(), String> {
        let outcome = spans
            .scope("ledger.audit_sweep", |_| {
                audit_sweep(&self.no, &self.ledger, 0, u64::MAX)
            })
            .map_err(|e| err("audit_sweep", e))?;
        if outcome.resolved.len() != AUDIT_RECORDS || !outcome.unresolved.is_empty() {
            return Err(format!(
                "audit resolved {} of {AUDIT_RECORDS} records",
                outcome.resolved.len()
            ));
        }
        Ok(())
    }
}

fn audit(seed: u64) -> Result<Live, String> {
    let (w, records) = audit_world(seed, AUDIT_RECORDS)?;
    let scratch = Scratch::new("audit")?;
    let mut ledger = open_ledger(&scratch.path().join("log"))?;
    fill(
        &mut ledger,
        &records,
        AUDIT_RECORDS as u64,
        u64::MAX,
        &w.no,
        "NO",
    )?;
    let client = AuditClient { no: w.no, ledger };
    Ok(offline(client, AUDIT_RECORDS as u64, scratch))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, client: usize) -> Vec<(Vec<u8>, Vec<u8>, bool)> {
        let mut p = Payloads::new(seed, client);
        (0..8)
            .map(|_| {
                p.advance();
                (p.small.to_vec(), p.large.to_vec(), p.large_first)
            })
            .collect()
    }

    #[test]
    fn same_seed_same_payload_order() {
        assert_eq!(stream(7, 0), stream(7, 0));
        assert_ne!(stream(7, 0), stream(8, 0));
        assert_ne!(stream(7, 0), stream(7, 1));
        // Both orders occur, and no payload repeats.
        let s = stream(7, 0);
        assert!(s.iter().any(|x| x.2) && s.iter().any(|x| !x.2));
        assert!(s.windows(2).all(|w| w[0].0 != w[1].0));
    }

    #[test]
    fn same_seed_same_world() {
        let world = |seed| {
            let w = net_world(seed, 2, 3).unwrap();
            let url: Vec<_> = w.routers[0].current_url().tokens.clone();
            (
                w.tokens.clone(),
                w.routers[0].cert().serial,
                w.routers[0].cert().public_key.to_bytes(),
                url,
            )
        };
        let (a, b, c) = (world(11), world(11), world(12));
        assert_eq!(a, b);
        assert_ne!(a.0, c.0);
        assert_ne!(a.2, c.2);
        // The three users past the clients, and only they, are on the URL.
        assert_eq!(a.3, a.0[2..]);
    }
}
