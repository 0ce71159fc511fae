//! The sharded, readiness-based event-loop runtime.
//!
//! `std::net` offers no portable poll(2) wrapper and the dependency set
//! is frozen, so readiness is implemented as the documented portable
//! equivalent: every socket is `set_nonblocking(true)` and each shard
//! keeps a two-tier readiness queue over the connections it owns —
//!
//! * **active** connections (mid-handshake, echoing, flushing) are swept
//!   every iteration; a sweep that moves bytes keeps the shard spinning,
//!   and [`SPIN_SCANS`] empty sweeps later it falls back to millisecond
//!   ticks;
//! * **parked** connections (established sessions gone quiet for
//!   [`PARK_AFTER`]) are swept every [`SLOW_EVERY`], which is what makes
//!   10 000 held sessions cheap: the steady-state syscall load is
//!   `conns / SLOW_EVERY` reads, not `conns / tick`.
//!
//! Layout: the accept thread assigns each connection to one of `N`
//! shard threads by connection id. A shard owns its connections
//! outright — socket, [`FrameDecoder`], outbound queue, and the
//! per-connection [`SessionSm`] — so no connection state is ever shared
//! between threads and the hot path touches only shard-local metrics.
//! Crypto-heavy access verification is handed to a crossbeam-channel
//! worker pool ([`Step::Offload`] → [`VerifyTask`]); the shard parks
//! the connection's inbound frames until the pool posts
//! [`ShardMsg::Verified`] back to the owning shard's channel, so a slow
//! pairing never stalls an I/O shard. Each worker takes one request at a
//! time through [`RouterShared::verify_access`], so the pool verifies as
//! many requests at once as it has workers.
//!
//! Backpressure is explicit at both ends: a full verify queue yields a
//! transient `BUSY` reject (the client retries; counted as
//! `net.backpressure_events`), and an outbound queue past the
//! configured byte/frame bounds closes the connection (a peer that
//! will not read its replies). Connections over the daemon cap are
//! serviced *by the event loop itself* as [`Role::RejectBusy`]: read
//! one frame (or wait out [`BUSY_DEADLINE`]), write the pre-framed
//! `BUSY` reject, close — no thread is ever spawned per rejection.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TrySendError};
use peace_protocol::AccessRequest;
use peace_telemetry::Snapshot;
use peace_wire::{Decode as _, Encode as _};

use crate::daemon::DaemonConfig;
use crate::envelope::{reject_code, NodeMessage};
use crate::error::{NetError, Result};
use crate::frame::{FrameDecoder, FRAME_HEADER_LEN};
use crate::metrics::{MetricsSnapshot, NetMetrics};
use crate::server::busy_frame;
use crate::session::{RouterShared, Service, SessionSm, Step, VerifyOutcome};

/// Read chunk size per `read(2)`; also the per-sweep budget unit.
const READ_CHUNK: usize = 16 * 1024;
/// Maximum successive reads per connection per sweep, so one firehose
/// peer cannot monopolize its shard's iteration.
const MAX_READS_PER_SCAN: usize = 8;
/// Consecutive empty sweeps before a shard stops spinning and starts
/// sleeping in 1 ms ticks. An empty sweep costs O(active) reads (parked
/// connections are not scanned), so ~1024 sweeps of a quiet shard is a
/// few milliseconds of coverage and an echo peer's next request almost
/// always lands mid-spin, round-tripping without any tick latency.
const SPIN_SCANS: u32 = 1024;
/// Tick length once a shard has gone to sleep with active connections.
const FAST_TICK: Duration = Duration::from_millis(1);
/// Sweep period for parked connections (and idle-timeout eviction).
const SLOW_EVERY: Duration = Duration::from_millis(100);
/// Quiet time after which an established, fully-flushed connection is
/// parked onto the slow sweep.
const PARK_AFTER: Duration = Duration::from_millis(10);
/// How long an over-cap connection is held for its first frame before
/// the `BUSY` reject is written regardless.
const BUSY_DEADLINE: Duration = Duration::from_millis(200);
/// Verify-pool queue bound; `try_send` past this yields a transient
/// `BUSY` reject instead of unbounded queueing.
const VERIFY_QUEUE_CAP: usize = 4096;

/// Work posted to a shard's channel.
enum ShardMsg {
    /// A freshly accepted connection this shard now owns.
    Serve(TcpStream, u64),
    /// An over-cap connection to turn away with `BUSY`.
    RejectBusy(TcpStream, u64),
    /// A deferred verification outcome for connection `token`.
    Verified {
        token: u64,
        outcome: Box<VerifyOutcome>,
    },
    /// No-op used to pop the shard out of `recv_timeout` at shutdown.
    Wake,
}

/// One queued access verification.
struct VerifyTask {
    shard: usize,
    token: u64,
    req: Box<AccessRequest>,
}

/// What a connection is for.
enum Role {
    /// A served protocol connection with its state machine.
    Serve(SessionSm),
    /// An over-cap connection awaiting its one-frame-or-deadline busy
    /// reject. `queued` flips once the reject frame is on the queue.
    RejectBusy { deadline: Instant, queued: bool },
}

/// Shard-owned per-connection state.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded frames (header + payload) not yet fully written.
    out: std::collections::VecDeque<Vec<u8>>,
    /// Bytes of `out.front()` already written.
    out_head: usize,
    /// Total payload-plus-header bytes queued in `out`.
    out_bytes: usize,
    role: Role,
    last_activity: Instant,
    parked: bool,
    close_after_flush: bool,
}

impl Conn {
    /// Encodes and queues one reply frame. `false` means the connection
    /// must close (encode failure or a peer not draining its replies).
    fn enqueue(&mut self, msg: &NodeMessage, cfg: &DaemonConfig, metrics: &NetMetrics) -> bool {
        let payload = match msg.try_to_wire() {
            Ok(p) => p,
            Err(_) => return false,
        };
        if payload.len() > cfg.conn.max_frame {
            return false;
        }
        if self.out.len() >= cfg.conn.max_queue_frames
            || self.out_bytes + payload.len() > cfg.conn.max_queue_bytes
        {
            metrics.backpressure_events.inc();
            return false;
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&payload);
        self.out_bytes += frame.len();
        self.out.push_back(frame);
        metrics.frames_out.inc();
        metrics.bytes_out.add(payload.len() as u64);
        true
    }

    /// Queues an already-framed byte sequence (the busy reject).
    fn enqueue_raw(&mut self, frame: &[u8]) {
        self.out_bytes += frame.len();
        self.out.push_back(frame.to_vec());
    }

    /// Writes queued frames until the socket would block. `false` means
    /// the connection died mid-write.
    fn flush(&mut self, activity: &mut bool) -> bool {
        while let Some(front) = self.out.front() {
            match self.stream.write(&front[self.out_head..]) {
                Ok(0) => return false,
                Ok(n) => {
                    *activity = true;
                    self.out_head += n;
                    if self.out_head == front.len() {
                        self.out_bytes -= front.len();
                        self.out_head = 0;
                        self.out.pop_front();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    fn awaiting_verify(&self) -> bool {
        match &self.role {
            Role::Serve(sm) => sm.awaiting_verify(),
            Role::RejectBusy { .. } => false,
        }
    }
}

/// Everything one shard thread needs.
struct ShardState {
    idx: usize,
    cfg: DaemonConfig,
    service: Service,
    verify_tx: Option<Sender<VerifyTask>>,
    metrics: Arc<NetMetrics>,
    live: Arc<AtomicUsize>,
    conns: HashMap<u64, Conn>,
    /// Ids of non-parked connections: the fast sweep's worklist, so a
    /// spin iteration is O(active) no matter how many thousands of
    /// parked sessions the shard holds. Lazily cleaned — dropped or
    /// newly-parked ids fall out on the next fast pass.
    active: Vec<u64>,
}

/// `true` to keep the connection, `false` to drop it.
type Keep = bool;

impl ShardState {
    fn run(mut self, rx: Receiver<ShardMsg>, quit: Arc<AtomicBool>) {
        let mut scratch: Vec<u64> = Vec::new();
        let mut buf = vec![0u8; READ_CHUNK];
        let mut last_slow = Instant::now();
        let mut idle_scans: u32 = SPIN_SCANS;

        loop {
            if quit.load(Ordering::SeqCst) {
                self.drop_all();
                return;
            }

            // 1. Drain the channel, sleeping only when nothing is hot.
            let timeout = if idle_scans < SPIN_SCANS && !self.active.is_empty() {
                Duration::ZERO
            } else if !self.active.is_empty() {
                FAST_TICK
            } else {
                (last_slow + SLOW_EVERY)
                    .saturating_duration_since(Instant::now())
                    .max(FAST_TICK)
            };
            let mut got_msg = false;
            let first = if timeout.is_zero() {
                rx.try_recv().ok()
            } else {
                match rx.recv_timeout(timeout) {
                    Ok(m) => Some(m),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => {
                        self.drop_all();
                        return;
                    }
                }
            };
            if let Some(m) = first {
                got_msg = true;
                self.on_msg(m, &mut buf);
                while let Ok(m) = rx.try_recv() {
                    self.on_msg(m, &mut buf);
                }
            }

            // 2. Sweep: active connections every pass, parked ones on
            // the slow cadence.
            let now = Instant::now();
            let slow = now.saturating_duration_since(last_slow) >= SLOW_EVERY;
            if slow {
                last_slow = now;
            }
            let mut activity = got_msg;
            if slow {
                // Slow pass: service every parked connection (this is
                // also where idle-timeout eviction catches them) and
                // promote any that woke back onto the fast worklist.
                scratch.clear();
                scratch.extend(self.conns.iter().filter(|(_, c)| c.parked).map(|(k, _)| *k));
                for id in &scratch {
                    let keep = self.service_conn(*id, &mut buf, &mut activity);
                    if !keep {
                        self.drop_conn(*id);
                    } else if self.conns.get(id).is_some_and(|c| !c.parked) {
                        self.active.push(*id);
                    }
                }
            }
            // Fast pass: the active worklist only — O(active) even while
            // spinning, with dead and newly-parked ids swept out.
            let mut i = 0;
            while i < self.active.len() {
                let id = self.active[i];
                let keep = self.service_conn(id, &mut buf, &mut activity);
                if !keep {
                    self.drop_conn(id);
                } else {
                    self.maybe_park(id);
                }
                if self.conns.get(&id).is_some_and(|c| !c.parked) {
                    i += 1;
                } else {
                    self.active.swap_remove(i);
                }
            }

            idle_scans = if activity {
                0
            } else {
                idle_scans.saturating_add(1)
            };
        }
    }

    fn on_msg(&mut self, msg: ShardMsg, buf: &mut [u8]) {
        match msg {
            ShardMsg::Serve(stream, id) => {
                if stream.set_nonblocking(true).is_err() {
                    self.live.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
                let _ = stream.set_nodelay(true);
                self.conns.insert(
                    id,
                    Conn {
                        stream,
                        decoder: FrameDecoder::new(self.cfg.conn.max_frame),
                        out: std::collections::VecDeque::new(),
                        out_head: 0,
                        out_bytes: 0,
                        role: Role::Serve(self.service.new_session()),
                        last_activity: Instant::now(),
                        parked: false,
                        close_after_flush: false,
                    },
                );
                self.active.push(id);
            }
            ShardMsg::RejectBusy(stream, id) => {
                if stream.set_nonblocking(true).is_err() {
                    return;
                }
                let _ = stream.set_nodelay(true);
                self.conns.insert(
                    id,
                    Conn {
                        stream,
                        decoder: FrameDecoder::new(self.cfg.conn.max_frame),
                        out: std::collections::VecDeque::new(),
                        out_head: 0,
                        out_bytes: 0,
                        role: Role::RejectBusy {
                            deadline: Instant::now() + BUSY_DEADLINE,
                            queued: false,
                        },
                        last_activity: Instant::now(),
                        parked: false,
                        close_after_flush: false,
                    },
                );
                self.active.push(id);
            }
            ShardMsg::Verified { token, outcome } => {
                let keep = self.on_verified(token, *outcome, buf);
                if !keep {
                    self.drop_conn(token);
                }
            }
            ShardMsg::Wake => {}
        }
    }

    /// Resumes a machine with its deferred verify outcome, then pumps
    /// any frames that queued in the decoder while it was parked.
    fn on_verified(&mut self, token: u64, outcome: VerifyOutcome, buf: &mut [u8]) -> Keep {
        let Some(conn) = self.conns.get_mut(&token) else {
            return true; // Peer hung up mid-verify; outcome discarded.
        };
        let step = match &mut conn.role {
            Role::Serve(sm) => sm.on_verify(outcome, &self.metrics),
            Role::RejectBusy { .. } => Step::Close,
        };
        let verify_tx = self.verify_tx.clone();
        if !apply_step(
            conn,
            step,
            &self.cfg,
            &self.metrics,
            verify_tx.as_ref(),
            self.idx,
            token,
        ) {
            return false;
        }
        let mut activity = true;
        let keep = self.pump_frames(token, &mut activity) && {
            let c = match self.conns.get_mut(&token) {
                Some(c) => c,
                None => return true,
            };
            c.flush(&mut activity) && !(c.close_after_flush && c.out.is_empty())
        };
        let _ = buf;
        keep
    }

    /// One readiness pass over one connection: read until the socket
    /// would block, decode and dispatch frames, flush replies.
    fn service_conn(&mut self, id: u64, buf: &mut [u8], activity: &mut bool) -> Keep {
        let Some(conn) = self.conns.get_mut(&id) else {
            return true;
        };

        // Over-cap connections: one frame (or the deadline) buys the
        // pre-framed BUSY reject, then close.
        if let Role::RejectBusy { deadline, queued } = &mut conn.role {
            if !*queued {
                match conn.stream.read(buf) {
                    Ok(0) => return false,
                    Ok(_) => {
                        *queued = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if Instant::now() >= *deadline {
                            *queued = true;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
                if *queued {
                    conn.enqueue_raw(&busy_frame());
                    conn.close_after_flush = true;
                    *activity = true;
                }
            }
            if !conn.flush(activity) {
                return false;
            }
            return !(conn.close_after_flush && conn.out.is_empty());
        }

        // Idle-timeout eviction (the read deadline of the blocking
        // runtime, enforced by sweep here).
        if let Some(limit) = self.cfg.conn.read_timeout {
            if conn.last_activity.elapsed() > limit {
                self.metrics.timeouts.inc();
                return false;
            }
        }

        // Read burst. While a verify is in flight the socket is left
        // unread — bytes back up in the kernel, which is the
        // backpressure we want on a handshake-spamming peer.
        if !conn.awaiting_verify() {
            for _ in 0..MAX_READS_PER_SCAN {
                match conn.stream.read(buf) {
                    Ok(0) => return false,
                    Ok(n) => {
                        conn.decoder.feed(&buf[..n]);
                        conn.last_activity = Instant::now();
                        conn.parked = false;
                        *activity = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
        }

        if !self.pump_frames(id, activity) {
            return false;
        }
        let Some(conn) = self.conns.get_mut(&id) else {
            return true;
        };
        if !conn.flush(activity) {
            return false;
        }
        !(conn.close_after_flush && conn.out.is_empty())
    }

    /// Decodes and dispatches every complete buffered frame, stopping
    /// when the machine offloads (deferred reply pending).
    fn pump_frames(&mut self, id: u64, activity: &mut bool) -> Keep {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return true;
            };
            if conn.awaiting_verify() || conn.close_after_flush {
                return true;
            }
            let payload = match conn.decoder.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => return true,
                Err(NetError::FrameTooLarge { .. }) => {
                    self.metrics.oversize_rejected.inc();
                    return false;
                }
                Err(_) => return false,
            };
            *activity = true;
            self.metrics.frames_in.inc();
            self.metrics.bytes_in.add(payload.len() as u64);
            let step = match NodeMessage::from_wire(&payload) {
                Ok(msg) => match &mut conn.role {
                    Role::Serve(sm) => sm.on_message(msg, &self.metrics),
                    Role::RejectBusy { .. } => Step::Close,
                },
                Err(_) => {
                    self.metrics.decode_failures.inc();
                    match &conn.role {
                        Role::Serve(sm) => sm.on_decode_error(),
                        Role::RejectBusy { .. } => Step::Close,
                    }
                }
            };
            let verify_tx = self.verify_tx.clone();
            if !apply_step(
                conn,
                step,
                &self.cfg,
                &self.metrics,
                verify_tx.as_ref(),
                self.idx,
                id,
            ) {
                return false;
            }
        }
    }

    /// Parks the connection if it has gone quiet: established (or an NO
    /// peer), nothing queued in either direction, no verify in flight,
    /// and idle past [`PARK_AFTER`]. The slow sweep is where parked
    /// connections are next examined (and where eviction catches them).
    fn maybe_park(&mut self, id: u64) {
        if let Some(c) = self.conns.get_mut(&id) {
            let parkable = match &c.role {
                Role::Serve(sm) => sm.parkable(),
                Role::RejectBusy { .. } => false,
            };
            if !c.parked
                && parkable
                && !c.awaiting_verify()
                && c.out.is_empty()
                && c.decoder.buffered() == 0
                && c.last_activity.elapsed() > PARK_AFTER
            {
                c.parked = true;
            }
        }
    }

    fn drop_conn(&mut self, id: u64) {
        if let Some(c) = self.conns.remove(&id) {
            if matches!(c.role, Role::Serve(_)) {
                self.live.fetch_sub(1, Ordering::SeqCst);
            }
            let _ = c.stream.shutdown(Shutdown::Both);
        }
    }

    fn drop_all(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.drop_conn(id);
        }
    }
}

/// Applies one [`Step`] to a connection. `false` closes it now.
fn apply_step(
    conn: &mut Conn,
    step: Step,
    cfg: &DaemonConfig,
    metrics: &NetMetrics,
    verify_tx: Option<&Sender<VerifyTask>>,
    shard: usize,
    token: u64,
) -> Keep {
    match step {
        Step::Reply(msg) => conn.enqueue(&msg, cfg, metrics),
        Step::ReplyClose(msg) => {
            let ok = conn.enqueue(&msg, cfg, metrics);
            conn.close_after_flush = true;
            ok
        }
        Step::Offload(req) => {
            let Some(tx) = verify_tx else {
                return false; // No pool for this role; treat as fatal.
            };
            match tx.try_send(VerifyTask { shard, token, req }) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) => {
                    // Saturated pool: transient refusal, peer may retry.
                    metrics.backpressure_events.inc();
                    if let Role::Serve(sm) = &mut conn.role {
                        sm.abort_verify();
                    }
                    conn.enqueue(
                        &NodeMessage::Reject {
                            code: reject_code::BUSY,
                            detail: "verify queue full".to_owned(),
                        },
                        cfg,
                        metrics,
                    )
                }
                Err(TrySendError::Disconnected(_)) => false,
            }
        }
        Step::Close => false,
    }
}

/// The verify-pool worker: take one request, run it to its verdict, post
/// the verdict back to the owning shard.
fn verify_worker(
    rx: Receiver<VerifyTask>,
    shared: RouterShared,
    shard_txs: Vec<Sender<ShardMsg>>,
    metrics: Arc<NetMetrics>,
) {
    while let Ok(task) = rx.recv() {
        let outcome = shared.verify_access(&task.req, &metrics);
        // A shard gone at shutdown just discards the outcome.
        if let Some(tx) = shard_txs.get(task.shard) {
            let _ = tx.send(ShardMsg::Verified {
                token: task.token,
                outcome: Box::new(outcome),
            });
        }
    }
}

/// Handle to a running sharded event loop (accept thread + `N` I/O
/// shard threads + verify pool).
pub(crate) struct EventLoop {
    addr: SocketAddr,
    stop_accept: Arc<AtomicBool>,
    quit: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
    accept: Option<JoinHandle<()>>,
    shard_txs: Vec<Sender<ShardMsg>>,
    shard_threads: Vec<JoinHandle<()>>,
    shard_metrics: Vec<Arc<NetMetrics>>,
    verify_tx: Option<Sender<VerifyTask>>,
    workers: Vec<JoinHandle<()>>,
    pool_metrics: Arc<NetMetrics>,
    drain: Duration,
}

impl EventLoop {
    /// Binds `bind` and spawns the runtime: `shards` I/O threads (from
    /// `cfg.shards`, clamped to at least 1), one accept thread, and —
    /// for the router role — a verify pool sized to the machine.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the listener cannot bind.
    pub(crate) fn spawn(bind: &str, cfg: DaemonConfig, service: Service) -> Result<Self> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let nshards = cfg.shards.max(1);
        let stop_accept = Arc::new(AtomicBool::new(false));
        let quit = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(0));
        let pool_metrics = Arc::new(NetMetrics::default());

        let mut shard_txs = Vec::with_capacity(nshards);
        let mut shard_rxs = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            let (tx, rx) = channel::unbounded();
            shard_txs.push(tx);
            shard_rxs.push(rx);
        }

        // Verify pool: router role only (the NO machine never offloads).
        let (verify_tx, workers) = match &service {
            Service::Router(shared) => {
                let (tx, rx) = channel::bounded(VERIFY_QUEUE_CAP);
                let nworkers = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                let workers = (0..nworkers)
                    .map(|_| {
                        let rx = rx.clone();
                        let shared = shared.clone();
                        let txs = shard_txs.clone();
                        let m = Arc::clone(&pool_metrics);
                        std::thread::spawn(move || verify_worker(rx, shared, txs, m))
                    })
                    .collect();
                (Some(tx), workers)
            }
            Service::No(_) => (None, Vec::new()),
        };

        let mut shard_metrics = Vec::with_capacity(nshards);
        let mut shard_threads = Vec::with_capacity(nshards);
        for (idx, rx) in shard_rxs.into_iter().enumerate() {
            let metrics = Arc::new(NetMetrics::default());
            shard_metrics.push(Arc::clone(&metrics));
            let state = ShardState {
                idx,
                cfg,
                service: service.clone(),
                verify_tx: verify_tx.clone(),
                metrics,
                live: Arc::clone(&live),
                conns: HashMap::new(),
                active: Vec::new(),
            };
            let q = Arc::clone(&quit);
            shard_threads.push(std::thread::spawn(move || state.run(rx, q)));
        }

        let a_stop = Arc::clone(&stop_accept);
        let a_live = Arc::clone(&live);
        let a_txs = shard_txs.clone();
        let a_metrics = shard_metrics.clone();
        let max_connections = cfg.max_connections;
        let accept = std::thread::spawn(move || {
            let mut conn_id = 0u64;
            for stream in listener.incoming() {
                if a_stop.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match stream {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                conn_id += 1;
                let shard = (conn_id as usize) % a_txs.len();
                if a_live.load(Ordering::SeqCst) >= max_connections {
                    a_metrics[shard].connections_rejected.inc();
                    let _ = a_txs[shard].send(ShardMsg::RejectBusy(stream, conn_id));
                    continue;
                }
                a_metrics[shard].connections_accepted.inc();
                a_live.fetch_add(1, Ordering::SeqCst);
                let _ = a_txs[shard].send(ShardMsg::Serve(stream, conn_id));
            }
        });

        Ok(Self {
            addr,
            stop_accept,
            quit,
            live,
            accept: Some(accept),
            shard_txs,
            shard_threads,
            shard_metrics,
            verify_tx,
            workers,
            pool_metrics,
            drain: cfg.drain,
        })
    }

    /// The bound address (useful with port 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently served (accepted, not yet closed) connections.
    pub(crate) fn live_connections(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Counter view summed across every shard and the verify pool.
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        let mut total = self.pool_metrics.snapshot();
        for m in &self.shard_metrics {
            total.merge(&m.snapshot());
        }
        total
    }

    /// Full telemetry merged across every shard and the verify pool.
    pub(crate) fn telemetry(&self) -> Snapshot {
        let mut total = self.pool_metrics.telemetry();
        for m in &self.shard_metrics {
            total.merge(&m.telemetry());
        }
        total
    }

    /// Graceful shutdown: stop accepting, wait up to `drain` for served
    /// connections to finish, then stop shards and the verify pool.
    pub(crate) fn shutdown(&mut self, drain: Duration) {
        if self.accept.is_none() {
            return;
        }
        self.stop_accept.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let deadline = Instant::now() + drain;
        while self.live.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.quit.store(true, Ordering::SeqCst);
        for tx in &self.shard_txs {
            let _ = tx.send(ShardMsg::Wake);
        }
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
        self.shard_txs.clear();
        self.verify_tx = None;
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        self.shutdown(self.drain);
    }
}
