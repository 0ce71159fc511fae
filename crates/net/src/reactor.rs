//! The server runtime: a sharded, readiness-driven event loop.
//!
//! Layout: the accept thread assigns each connection to one of `N`
//! shard threads by connection id. A shard owns its connections
//! outright — socket, [`FrameDecoder`], outbound queue, and the
//! per-connection [`SessionSm`] — so no connection state is ever shared
//! between threads and the hot path touches only shard-local metrics.
//! Crypto-heavy access verification is handed to a crossbeam-channel
//! worker pool ([`Step::Offload`] → [`VerifyTask`]); the pool posts
//! [`ShardMsg::Verified`] back to the owning shard, so a slow pairing
//! never stalls an I/O shard. Each worker takes one request at a time
//! through [`RouterShared::verify_access`], so the pool verifies as many
//! requests at once as it has workers. Everything else a machine does —
//! AEAD echo, beacons, every NO handler — runs on the shard.
//!
//! **Readiness contract.** A shard with nothing ready is blocked in
//! [`Poller::wait`]; it never polls a socket to find out. A connection's
//! interest follows its state: *read* while its machine takes frames,
//! *none* while a verify is in flight (bytes back up in the kernel, which
//! is the backpressure we want on a handshake-spamming peer, and a
//! hung-up peer cannot spin the shard), *write* only while output is
//! queued. Whoever posts to a shard's channel — the accept thread, a
//! verify worker, shutdown — wakes it afterwards ([`ShardHandle::post`]).
//! The two timers, idle eviction and the over-cap deadline, are a
//! housekeeping pass every [`HOUSEKEEPING_EVERY`] that compares
//! timestamps and reads no socket.
//!
//! Backpressure is explicit at both ends: a full verify queue yields a
//! transient `BUSY` reject (the client retries; counted as
//! `net.backpressure_events`), and an outbound queue past the
//! configured byte/frame bounds closes the connection (a peer that
//! will not read its replies). Connections over the daemon cap are
//! serviced by the loop itself as [`Role::RejectBusy`]: read something
//! (or wait out [`BUSY_DEADLINE`]), write the pre-framed `BUSY` reject,
//! close — at most [`BUSY_QUEUE_CAP`] at a time per daemon.
//!
//! A panic while dispatching one connection, or in one verify task, is
//! caught and counted (`net.handler_panics`) and costs that connection
//! only; the shard, the worker and every other connection carry on.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use peace_protocol::AccessRequest;
use peace_telemetry::Snapshot;
use peace_wire::{Decode as _, Encode as _};

use crate::daemon::DaemonConfig;
use crate::envelope::{reject_code, NodeMessage};
use crate::error::{NetError, Result};
use crate::frame::{FrameDecoder, FRAME_HEADER_LEN};
use crate::metrics::{MetricsSnapshot, NetMetrics};
use crate::poller::{Event, Interest, Poller, Waker, ADD, MODIFY};
use crate::session::{RouterShared, Service, SessionSm, Step, VerifyOutcome};

/// Read chunk size per `read(2)`.
const READ_CHUNK: usize = 16 * 1024;
/// Maximum successive reads per connection per readiness event, so one
/// firehose peer cannot monopolize its shard; the poller reports what is
/// left over again.
const MAX_READS_PER_EVENT: usize = 8;
/// Period of the timestamp-only housekeeping pass (idle eviction, the
/// over-cap deadline): how late either timer may fire.
const HOUSEKEEPING_EVERY: Duration = Duration::from_millis(100);
/// How long an over-cap connection is held for its first bytes before
/// the `BUSY` reject is written regardless.
const BUSY_DEADLINE: Duration = Duration::from_millis(200);
/// Over-cap connections in reject service at once, per daemon. Overflow
/// is closed without the courtesy frame: a reject storm must never grow
/// daemon memory.
const BUSY_QUEUE_CAP: usize = 64;
/// Verify-pool queue bound; `try_send` past this yields a transient
/// `BUSY` reject instead of unbounded queueing.
const VERIFY_QUEUE_CAP: usize = 4096;

/// The pre-framed `Reject { code: BUSY }` written to connections turned
/// away at the connection cap, so clients observe an explicit,
/// machine-readable *transient* refusal ([`crate::NetError::ConnLimit`])
/// instead of an ambiguous severed stream.
fn busy_frame() -> Vec<u8> {
    let reject = NodeMessage::Reject {
        code: reject_code::BUSY,
        detail: "connection limit reached".to_owned(),
    };
    // Encoding a static reject cannot exceed any sane frame bound; fall
    // back to an empty reply (plain close) rather than panicking.
    let payload = reject.try_to_wire().unwrap_or_default();
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

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
    /// The verify task of connection `token` panicked: drop it.
    Abandon(u64),
}

/// A shard's mailbox as its producers see it.
#[derive(Clone)]
struct ShardHandle {
    tx: Sender<ShardMsg>,
    waker: Waker,
}

impl ShardHandle {
    /// Posts, then wakes: the shard may be blocked in [`Poller::wait`].
    /// A shard gone at shutdown just discards the message.
    fn post(&self, msg: ShardMsg) {
        if self.tx.send(msg).is_ok() {
            self.waker.wake();
        }
    }
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
    /// An over-cap connection: at its first bytes or at `deadline` the
    /// busy reject is queued (`close_after_flush` says it has been).
    RejectBusy { deadline: Instant },
}

/// Shard-owned per-connection state.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded frames (header + payload) not yet fully written.
    out: VecDeque<Vec<u8>>,
    /// Bytes of `out.front()` already written.
    out_head: usize,
    /// Total payload-plus-header bytes queued in `out`.
    out_bytes: usize,
    role: Role,
    last_activity: Instant,
    /// What the poller currently watches the socket for.
    interest: Interest,
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

    /// Queues the busy reject of an over-cap connection, its last frame.
    fn enqueue_busy(&mut self) {
        let frame = busy_frame();
        self.out_bytes += frame.len();
        self.out.push_back(frame);
        self.close_after_flush = true;
    }

    /// Writes queued frames until the socket would block. `false` means
    /// the connection died mid-write.
    fn flush(&mut self) -> bool {
        while let Some(front) = self.out.front() {
            match self.stream.write(&front[self.out_head..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.out_head += n;
                    if self.out_head == front.len() {
                        self.out_bytes -= front.len();
                        self.out_head = 0;
                        self.out.pop_front();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    /// Whether the socket is to be read: not while a verify is in flight
    /// (see the module docs), not once the last reply is queued.
    fn reads(&self) -> bool {
        !self.close_after_flush
            && match &self.role {
                Role::Serve(sm) => !sm.awaiting_verify(),
                Role::RejectBusy { .. } => true,
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
    rejecting: Arc<AtomicUsize>,
    poller: Poller,
    conns: HashMap<u64, Conn>,
}

/// `true` to keep the connection, `false` to drop it.
type Keep = bool;

impl ShardState {
    fn run(mut self, rx: Receiver<ShardMsg>, quit: Arc<AtomicBool>) {
        let mut buf = vec![0u8; READ_CHUNK];
        let mut events: Vec<Event> = Vec::new();
        let mut last_housekeeping = Instant::now();

        while !quit.load(Ordering::SeqCst) {
            // Block until a socket is ready, someone posts, or (with
            // connections to keep time for) housekeeping is due.
            let timeout = (!self.conns.is_empty()).then(|| {
                (last_housekeeping + HOUSEKEEPING_EVERY).saturating_duration_since(Instant::now())
            });
            if self.poller.wait(timeout, &mut events).is_err() {
                break; // The epoll instance itself failed: nothing left to serve with.
            }
            while let Ok(msg) = rx.try_recv() {
                self.on_msg(msg);
            }
            for ev in &events {
                // A hang-up is final whatever the connection was waiting
                // for; with no interest registered it is all we hear.
                self.contained(ev.token, |s| {
                    !ev.hangup && s.service_conn(ev.token, ev.readable, &mut buf)
                });
            }
            let now = Instant::now();
            if now.saturating_duration_since(last_housekeeping) >= HOUSEKEEPING_EVERY {
                last_housekeeping = now;
                self.housekeeping(now);
            }
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.drop_conn(id);
        }
    }

    /// Runs one connection's dispatch with a panic contained: it is
    /// counted and costs that connection, never the shard.
    fn contained(&mut self, id: u64, dispatch: impl FnOnce(&mut Self) -> Keep) {
        let keep = catch_unwind(AssertUnwindSafe(|| dispatch(self))).unwrap_or_else(|_| {
            self.metrics.handler_panics.inc();
            false
        });
        if !keep {
            self.drop_conn(id);
        }
    }

    fn on_msg(&mut self, msg: ShardMsg) {
        match msg {
            ShardMsg::Serve(stream, id) => {
                let role = Role::Serve(self.service.new_session());
                self.adopt(stream, id, role);
            }
            ShardMsg::RejectBusy(stream, id) => {
                let deadline = Instant::now() + BUSY_DEADLINE;
                self.adopt(stream, id, Role::RejectBusy { deadline });
            }
            ShardMsg::Verified { token, outcome } => {
                self.contained(token, |s| s.on_verified(token, *outcome));
            }
            ShardMsg::Abandon(token) => self.drop_conn(token),
        }
    }

    /// Takes ownership of an accepted socket and starts watching it.
    fn adopt(&mut self, stream: TcpStream, id: u64, role: Role) {
        let (fd, interest) = (stream.as_raw_fd(), Interest::new(true, false));
        let watched =
            stream.set_nonblocking(true).is_ok() && self.poller.ctl(ADD, fd, id, interest).is_ok();
        let _ = stream.set_nodelay(true);
        self.conns.insert(
            id,
            Conn {
                stream,
                decoder: FrameDecoder::new(self.cfg.conn.max_frame),
                out: VecDeque::new(),
                out_head: 0,
                out_bytes: 0,
                role,
                last_activity: Instant::now(),
                interest,
                close_after_flush: false,
            },
        );
        if !watched {
            self.drop_conn(id);
        }
    }

    /// Resumes a machine with its deferred verify outcome, then pumps
    /// any frames that queued in the decoder while it waited.
    fn on_verified(&mut self, token: u64, outcome: VerifyOutcome) -> Keep {
        let Some(conn) = self.conns.get_mut(&token) else {
            return true; // Peer hung up mid-verify; outcome discarded.
        };
        let step = match &mut conn.role {
            Role::Serve(sm) => sm.on_verify(outcome, &self.metrics),
            Role::RejectBusy { .. } => Step::Close,
        };
        self.apply_step(token, step) && self.pump_frames(token) && self.settle(token)
    }

    /// One readiness event on one connection: read what is there, decode
    /// and dispatch frames, flush replies.
    fn service_conn(&mut self, id: u64, readable: bool, buf: &mut [u8]) -> Keep {
        let Some(conn) = self.conns.get_mut(&id) else {
            return true;
        };
        if readable && conn.reads() {
            for _ in 0..MAX_READS_PER_EVENT {
                match conn.stream.read(buf) {
                    Ok(0) => return false,
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        if matches!(conn.role, Role::RejectBusy { .. }) {
                            // Anything at all buys the reject; consuming it
                            // makes the close a FIN, not a RST that could
                            // discard the reject in flight.
                            conn.enqueue_busy();
                            break;
                        }
                        conn.decoder.feed(&buf[..n]);
                        if n < buf.len() {
                            break; // Short read: the socket is drained.
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
        }
        self.pump_frames(id) && self.settle(id)
    }

    /// Decodes and dispatches every complete buffered frame, stopping
    /// when the machine offloads (deferred reply pending).
    fn pump_frames(&mut self, id: u64) -> Keep {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return true;
            };
            let Role::Serve(sm) = &mut conn.role else {
                return true;
            };
            if sm.awaiting_verify() || conn.close_after_flush {
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
            self.metrics.frames_in.inc();
            self.metrics.bytes_in.add(payload.len() as u64);
            let step = match NodeMessage::from_wire(&payload) {
                Ok(msg) => sm.on_message(msg, &self.metrics),
                Err(_) => {
                    self.metrics.decode_failures.inc();
                    sm.on_decode_error()
                }
            };
            if !self.apply_step(id, step) {
                return false;
            }
        }
    }

    /// Ends a pass over a connection: flush, close if that was its last
    /// reply, and re-arm the poller for what it now waits on.
    fn settle(&mut self, id: u64) -> Keep {
        let Some(conn) = self.conns.get_mut(&id) else {
            return true;
        };
        if !conn.flush() || (conn.close_after_flush && conn.out.is_empty()) {
            return false;
        }
        let want = Interest::new(conn.reads(), !conn.out.is_empty());
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            if self.poller.ctl(MODIFY, fd, id, want).is_err() {
                return false;
            }
            conn.interest = want;
        }
        true
    }

    /// Applies one [`Step`] to a connection. `false` closes it now.
    fn apply_step(&mut self, id: u64, step: Step) -> Keep {
        let Some(conn) = self.conns.get_mut(&id) else {
            return true;
        };
        match step {
            Step::Reply(msg) => conn.enqueue(&msg, &self.cfg, &self.metrics),
            Step::ReplyClose(msg) => {
                conn.close_after_flush = true;
                conn.enqueue(&msg, &self.cfg, &self.metrics)
            }
            Step::Offload(req) => {
                let Some(tx) = &self.verify_tx else {
                    return false; // No pool for this role; treat as fatal.
                };
                let task = VerifyTask {
                    shard: self.idx,
                    token: id,
                    req,
                };
                match tx.try_send(task) {
                    Ok(()) => true,
                    Err(TrySendError::Full(_)) => {
                        // Saturated pool: transient refusal, peer may retry.
                        self.metrics.backpressure_events.inc();
                        if let Role::Serve(sm) = &mut conn.role {
                            sm.abort_verify();
                        }
                        let busy = NodeMessage::Reject {
                            code: reject_code::BUSY,
                            detail: "verify queue full".to_owned(),
                        };
                        conn.enqueue(&busy, &self.cfg, &self.metrics)
                    }
                    Err(TrySendError::Disconnected(_)) => false,
                }
            }
            Step::Close => false,
        }
    }

    /// The two timers, by timestamp alone: a served connection silent
    /// past the read deadline is evicted (and counted), an over-cap one
    /// past [`BUSY_DEADLINE`] gets its reject unasked. Eviction is a
    /// full period late on purpose: a client running the same deadline
    /// on its own timer gives up first and reads a timeout, not a close.
    fn housekeeping(&mut self, now: Instant) {
        let idle_limit = self.cfg.conn.read_timeout.map(|t| t + HOUSEKEEPING_EVERY);
        let due: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| match &c.role {
                Role::Serve(_) => idle_limit
                    .is_some_and(|limit| now.saturating_duration_since(c.last_activity) > limit),
                Role::RejectBusy { deadline } => !c.close_after_flush && now >= *deadline,
            })
            .map(|(id, _)| *id)
            .collect();
        for id in due {
            let keep = match self.conns.get_mut(&id) {
                Some(conn) if matches!(conn.role, Role::RejectBusy { .. }) => {
                    conn.enqueue_busy();
                    self.settle(id)
                }
                _ => {
                    self.metrics.timeouts.inc();
                    false
                }
            };
            if !keep {
                self.drop_conn(id);
            }
        }
    }

    fn drop_conn(&mut self, id: u64) {
        if let Some(c) = self.conns.remove(&id) {
            match c.role {
                Role::Serve(_) => self.live.fetch_sub(1, Ordering::SeqCst),
                Role::RejectBusy { .. } => self.rejecting.fetch_sub(1, Ordering::SeqCst),
            };
            // Closing the socket is also what unregisters it.
            let _ = c.stream.shutdown(Shutdown::Both);
        }
    }
}

/// The verify-pool worker: take one request, run it to its verdict, post
/// the verdict back to the owning shard. A panicking verification is
/// counted and costs its connection, not the worker.
fn verify_worker(
    rx: Receiver<VerifyTask>,
    shared: RouterShared,
    shards: Vec<ShardHandle>,
    metrics: Arc<NetMetrics>,
) {
    while let Ok(task) = rx.recv() {
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            shared.verify_access(&task.req, &metrics)
        }));
        let msg = match verdict {
            Ok(outcome) => ShardMsg::Verified {
                token: task.token,
                outcome: Box::new(outcome),
            },
            Err(_) => {
                metrics.handler_panics.inc();
                ShardMsg::Abandon(task.token)
            }
        };
        if let Some(shard) = shards.get(task.shard) {
            shard.post(msg);
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
    shards: Vec<ShardHandle>,
    shard_threads: Vec<JoinHandle<()>>,
    shard_metrics: Vec<Arc<NetMetrics>>,
    verify_tx: Option<Sender<VerifyTask>>,
    workers: Vec<JoinHandle<()>>,
    pool_metrics: Arc<NetMetrics>,
    drain: Duration,
}

impl EventLoop {
    /// Binds `bind` and spawns the runtime: `cfg.shards` I/O threads
    /// (`0`: one per available processor), one accept thread, and — for
    /// the router role — a verify pool sized the same way.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the listener cannot bind or a shard cannot
    /// create its poller.
    pub(crate) fn spawn(bind: &str, cfg: DaemonConfig, service: Service) -> Result<Self> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let processors = std::thread::available_parallelism().map_or(1, |n| n.get());
        let nshards = if cfg.shards == 0 {
            processors
        } else {
            cfg.shards
        };
        let stop_accept = Arc::new(AtomicBool::new(false));
        let quit = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(0));
        let rejecting = Arc::new(AtomicUsize::new(0));
        let pool_metrics = Arc::new(NetMetrics::default());

        let mut shards = Vec::with_capacity(nshards);
        let mut shard_ends = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            let (tx, rx) = channel::unbounded();
            let (poller, waker) = Poller::new()?;
            shards.push(ShardHandle { tx, waker });
            shard_ends.push((rx, poller));
        }

        // Verify pool: router role only (the NO machine never offloads).
        let (verify_tx, workers) = match &service {
            Service::Router(shared) => {
                let (tx, rx) = channel::bounded(VERIFY_QUEUE_CAP);
                let workers = (0..processors)
                    .map(|_| {
                        let rx = rx.clone();
                        let shared = shared.clone();
                        let shards = shards.clone();
                        let m = Arc::clone(&pool_metrics);
                        std::thread::spawn(move || verify_worker(rx, shared, shards, m))
                    })
                    .collect();
                (Some(tx), workers)
            }
            Service::No(_) => (None, Vec::new()),
        };

        let mut shard_metrics = Vec::with_capacity(nshards);
        let mut shard_threads = Vec::with_capacity(nshards);
        for (idx, (rx, poller)) in shard_ends.into_iter().enumerate() {
            let metrics = Arc::new(NetMetrics::default());
            shard_metrics.push(Arc::clone(&metrics));
            let state = ShardState {
                idx,
                cfg,
                service: service.clone(),
                verify_tx: verify_tx.clone(),
                metrics,
                live: Arc::clone(&live),
                rejecting: Arc::clone(&rejecting),
                poller,
                conns: HashMap::new(),
            };
            let q = Arc::clone(&quit);
            shard_threads.push(std::thread::spawn(move || state.run(rx, q)));
        }

        let a_stop = Arc::clone(&stop_accept);
        let a_live = Arc::clone(&live);
        let a_shards = shards.clone();
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
                let shard = (conn_id as usize) % a_shards.len();
                if a_live.load(Ordering::SeqCst) >= max_connections {
                    a_metrics[shard].connections_rejected.inc();
                    // Only this thread adds to `rejecting`, so the bound
                    // holds; past it the stream is simply dropped.
                    if rejecting.load(Ordering::SeqCst) < BUSY_QUEUE_CAP {
                        rejecting.fetch_add(1, Ordering::SeqCst);
                        a_shards[shard].post(ShardMsg::RejectBusy(stream, conn_id));
                    }
                    continue;
                }
                a_metrics[shard].connections_accepted.inc();
                a_live.fetch_add(1, Ordering::SeqCst);
                a_shards[shard].post(ShardMsg::Serve(stream, conn_id));
            }
        });

        Ok(Self {
            addr,
            stop_accept,
            quit,
            live,
            accept: Some(accept),
            shards,
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
        for shard in &self.shards {
            shard.waker.wake();
        }
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
        self.shards.clear();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::wall_ms;
    use crate::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME};
    use crate::world::{build_world, WorldSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::AtomicU8;
    use std::sync::Mutex;

    fn dial(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }

    fn exchange(stream: &mut TcpStream, msg: &NodeMessage) -> Result<NodeMessage> {
        write_frame(stream, &msg.try_to_wire().unwrap(), DEFAULT_MAX_FRAME)?;
        Ok(NodeMessage::from_wire(&read_frame(stream, DEFAULT_MAX_FRAME)?).unwrap())
    }

    fn beacon(stream: &mut TcpStream) -> peace_protocol::Beacon {
        match exchange(stream, &NodeMessage::GetBeacon) {
            Ok(NodeMessage::Beacon(b)) => *b,
            other => panic!("expected a beacon, got {other:?}"),
        }
    }

    /// A panic while dispatching a frame, and one inside a verify task,
    /// each cost their own connection and are counted; the shard, the
    /// worker and a bystander on the same shard carry on, and shutdown
    /// still leaves the entity with its one owner.
    #[test]
    fn handler_panic_contained_and_counted() {
        let mut w = build_world(&WorldSpec {
            seed: 0x9A21C,
            users: 1,
            routers: 1,
        })
        .unwrap();
        let mut router = w.routers.remove(0);
        let mut user = w.users.remove(0);
        router.update_lists(w.no.publish_crl(wall_ms()), w.no.publish_url(wall_ms()));
        let router = Arc::new(Mutex::new(router));
        let panic_at = Arc::new(AtomicU8::new(0));
        let shared = RouterShared {
            router: Arc::clone(&router),
            rng: Arc::new(Mutex::new(StdRng::seed_from_u64(1))),
            panic_at: Arc::clone(&panic_at),
        };
        let cfg = DaemonConfig {
            shards: 1,
            ..DaemonConfig::default()
        };
        let mut el = EventLoop::spawn("127.0.0.1:0", cfg, Service::Router(shared)).unwrap();
        let mut bystander = dial(el.addr());
        beacon(&mut bystander);

        // The machine panics on the first frame of a new connection.
        panic_at.store(RouterShared::PANIC_ON_MESSAGE, Ordering::SeqCst);
        let mut victim = dial(el.addr());
        assert_eq!(
            exchange(&mut victim, &NodeMessage::GetBeacon),
            Err(NetError::Closed),
            "the panicking connection is dropped"
        );
        assert_eq!(el.metrics().handler_panics, 1);
        assert_eq!(el.live_connections(), 1, "only the bystander is left");

        // The verify task of the bystander's request panics.
        let b = beacon(&mut bystander);
        let req = user.request_access(&b, wall_ms(), &mut w.rng).unwrap();
        panic_at.store(RouterShared::PANIC_ON_VERIFY, Ordering::SeqCst);
        assert_eq!(
            exchange(&mut bystander, &NodeMessage::AccessRequest(Box::new(req))),
            Err(NetError::Closed),
            "its connection is dropped, not left waiting for a verdict"
        );
        assert_eq!(el.metrics().handler_panics, 2);
        assert_eq!(el.live_connections(), 0);

        // Same shard, same pool: a whole handshake still goes through.
        let mut third = dial(el.addr());
        let b = beacon(&mut third);
        let req = user.request_access(&b, wall_ms(), &mut w.rng).unwrap();
        assert!(matches!(
            exchange(&mut third, &NodeMessage::AccessRequest(Box::new(req))),
            Ok(NodeMessage::AccessConfirm(_))
        ));
        assert_eq!(el.metrics().handler_panics, 2);

        drop(third);
        el.shutdown(Duration::from_secs(2));
        drop(el);
        assert!(Arc::try_unwrap(router).is_ok(), "entity handed back");
    }
}
