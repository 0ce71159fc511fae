//! Shared accept-loop machinery for the node daemons: connection-count
//! limiting, panic containment, and graceful shutdown.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Sender};
use peace_wire::Encode;

use crate::envelope::{reject_code, NodeMessage};
use crate::frame::read_frame;
use crate::metrics::NetMetrics;

/// How long a turned-away connection is serviced (one frame read, one
/// reject write) before it is dropped regardless.
const BUSY_REPLY_TIMEOUT: Duration = Duration::from_millis(200);

/// Turned-away connections queued for the single reject-servicer thread.
/// Overflow past this bound is dropped outright (a plain close instead of
/// an explicit BUSY reject) — a reject storm must never grow daemon
/// memory or thread count.
const BUSY_QUEUE_CAP: usize = 64;

/// The pre-framed `Reject { code: BUSY }` a daemon writes to connections
/// turned away at its connection cap, so clients observe an explicit,
/// machine-readable *transient* refusal ([`crate::NetError::ConnLimit`])
/// instead of an ambiguous severed stream.
pub(crate) fn busy_frame() -> Vec<u8> {
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

/// Services one turned-away connection: consume the client's first frame
/// (so the close is a clean FIN, not a RST that could discard the reject
/// in flight), write the pre-framed BUSY reject, and shut down. Every
/// step is best-effort and bounded by [`BUSY_REPLY_TIMEOUT`]. Runs on
/// the acceptor's single reject-servicer thread — rejections are never
/// serviced by per-connection thread spawns.
fn service_busy(mut stream: TcpStream, busy: &[u8]) {
    let _ = stream.set_read_timeout(Some(BUSY_REPLY_TIMEOUT));
    let _ = stream.set_write_timeout(Some(BUSY_REPLY_TIMEOUT));
    let _ = read_frame(&mut stream, crate::frame::DEFAULT_MAX_FRAME);
    let _ = stream.write_all(busy);
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Handle to a running accept loop.
pub(crate) struct Acceptor {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
    thread: Option<JoinHandle<()>>,
    reject_thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Binds `bind` and spawns the accept loop. Each accepted stream runs
    /// `handler` on its own thread; panics inside a handler are caught and
    /// counted (`handler_panics`), never unwound across the daemon.
    pub(crate) fn spawn(
        bind: &str,
        max_connections: usize,
        metrics: Arc<NetMetrics>,
        handler: Arc<dyn Fn(TcpStream, u64) + Send + Sync>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(0));
        let busy = busy_frame();

        // One servicer thread owns every turned-away connection, fed by
        // a bounded queue: rejection cost is O(1) threads no matter how
        // hard the cap is hammered.
        let (reject_tx, reject_rx) = channel::bounded::<TcpStream>(BUSY_QUEUE_CAP);
        let reject_thread = std::thread::spawn(move || {
            while let Ok(stream) = reject_rx.recv() {
                service_busy(stream, &busy);
            }
        });

        let t_shutdown = Arc::clone(&shutdown);
        let t_live = Arc::clone(&live);
        let thread = std::thread::spawn(move || {
            let reject_tx: Sender<TcpStream> = reject_tx;
            let mut conn_id = 0u64;
            for stream in listener.incoming() {
                if t_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match stream {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                if t_live.load(Ordering::SeqCst) >= max_connections {
                    metrics.connections_rejected.inc();
                    // Queue full: drop without the courtesy reject.
                    let _ = reject_tx.try_send(stream);
                    continue;
                }
                metrics.connections_accepted.inc();
                conn_id += 1;
                t_live.fetch_add(1, Ordering::SeqCst);
                let h = Arc::clone(&handler);
                let h_live = Arc::clone(&t_live);
                let h_metrics = Arc::clone(&metrics);
                let id = conn_id;
                std::thread::spawn(move || {
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| h(stream, id)));
                    // Before `live` says this thread is gone: a shutdown that
                    // saw zero may unwrap state the handler captures.
                    drop(h);
                    if outcome.is_err() {
                        h_metrics.handler_panics.inc();
                    }
                    h_live.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });

        Ok(Self {
            addr,
            shutdown,
            live,
            thread: Some(thread),
            reject_thread: Some(reject_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live handler-thread count.
    pub(crate) fn live_connections(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, wake the blocked `accept`, and
    /// wait up to `drain` for in-flight handlers to finish.
    pub(crate) fn shutdown(&mut self, drain: Duration) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        // The accept thread owned the only reject sender; the servicer
        // drains what is queued and exits.
        if let Some(t) = self.reject_thread.take() {
            let _ = t.join();
        }
        let deadline = Instant::now() + drain;
        while self.live.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.shutdown(Duration::from_millis(500));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn accepts_and_limits_connections() {
        let metrics = Arc::new(NetMetrics::default());
        let handler: Arc<dyn Fn(TcpStream, u64) + Send + Sync> =
            Arc::new(|mut stream: TcpStream, _id| {
                // Hold the connection open until the client closes.
                let mut b = [0u8; 1];
                let _ = stream.read(&mut b);
            });
        let mut acc = Acceptor::spawn("127.0.0.1:0", 2, Arc::clone(&metrics), handler).unwrap();
        let addr = acc.addr();

        let c1 = TcpStream::connect(addr).unwrap();
        let c2 = TcpStream::connect(addr).unwrap();
        // Give the accept loop time to register both.
        let deadline = Instant::now() + Duration::from_secs(2);
        while acc.live_connections() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(acc.live_connections(), 2);

        // Third connection is turned away with an explicit BUSY reject.
        let mut c3 = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while metrics.snapshot().connections_rejected == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(metrics.snapshot().connections_rejected, 1);
        c3.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let payload = read_frame(&mut c3, crate::frame::DEFAULT_MAX_FRAME).unwrap();
        use peace_wire::Decode as _;
        match NodeMessage::from_wire(&payload).unwrap() {
            NodeMessage::Reject { code, .. } => assert_eq!(code, reject_code::BUSY),
            other => panic!("expected BUSY reject, got {other:?}"),
        }
        let mut buf = [0u8; 1];
        assert_eq!(c3.read(&mut buf).unwrap_or(0), 0, "rejected conn closed");

        drop(c1);
        drop(c2);
        acc.shutdown(Duration::from_secs(2));
        assert_eq!(acc.live_connections(), 0);
        assert_eq!(metrics.snapshot().handler_panics, 0);
    }

    #[test]
    fn handler_panic_contained_and_counted() {
        let metrics = Arc::new(NetMetrics::default());
        let handler: Arc<dyn Fn(TcpStream, u64) + Send + Sync> =
            Arc::new(|_stream, _id| panic!("deliberate"));
        let mut acc = Acceptor::spawn("127.0.0.1:0", 4, Arc::clone(&metrics), handler).unwrap();
        let mut c = TcpStream::connect(acc.addr()).unwrap();
        let _ = c.write_all(b"x");
        let deadline = Instant::now() + Duration::from_secs(2);
        while metrics.snapshot().handler_panics == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(metrics.snapshot().handler_panics, 1);
        acc.shutdown(Duration::from_secs(1));
    }
}
