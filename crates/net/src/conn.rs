//! The client side of a connection: a framed, deadline-bounded blocking
//! TCP stream with per-connection statistics. (The server side of every
//! connection is owned by a shard of `crate::reactor`.)

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use peace_wire::{Decode, Encode};

use crate::daemon::DaemonConfig;
use crate::envelope::NodeMessage;
use crate::error::{NetError, Result};
use crate::frame::{write_frame, FrameDecoder, DEFAULT_MAX_FRAME};
use crate::metrics::{ConnStats, NetMetrics};

/// Per-connection tunables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnConfig {
    /// Maximum frame payload accepted or produced.
    pub max_frame: usize,
    /// Read deadline of a client connection and idle-eviction deadline
    /// of a served one; `None` waits forever (daemons should never use
    /// `None` — a silent peer would pin its slot).
    pub read_timeout: Option<Duration>,
    /// Write deadline of a client connection.
    pub write_timeout: Option<Duration>,
    /// Maximum reply frames a shard queues for a peer that is not
    /// reading; past either bound the connection is closed.
    pub max_queue_frames: usize,
    /// Maximum queued-but-unwritten reply bytes.
    pub max_queue_bytes: usize,
}

impl Default for ConnConfig {
    fn default() -> Self {
        Self {
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            max_queue_frames: 64,
            max_queue_bytes: 4 << 20,
        }
    }
}

/// One framed TCP connection carrying [`NodeMessage`] envelopes.
///
/// Inbound framing runs through the same incremental [`FrameDecoder`]
/// the event loop uses: the socket is read in chunks, fragments
/// accumulate in the decoder, and whole frames come out, so the kernel's
/// fragmentation of the stream is invisible.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    cfg: ConnConfig,
    decoder: FrameDecoder,
    stats: ConnStats,
    metrics: Arc<NetMetrics>,
}

impl Connection {
    /// Wraps an accepted or dialed stream, applying the configured
    /// deadlines.
    pub fn new(stream: TcpStream, cfg: ConnConfig, metrics: Arc<NetMetrics>) -> Result<Self> {
        stream.set_read_timeout(cfg.read_timeout)?;
        stream.set_write_timeout(cfg.write_timeout)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            cfg,
            decoder: FrameDecoder::new(cfg.max_frame),
            stats: ConnStats::default(),
            metrics,
        })
    }

    /// Dials `addr` with a connect deadline and wraps the stream.
    pub fn dial(
        addr: SocketAddr,
        connect_timeout: Duration,
        cfg: ConnConfig,
        metrics: Arc<NetMetrics>,
    ) -> Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        Self::new(stream, cfg, metrics)
    }

    /// One request on a connection of its own: dial, send `msg`, take the
    /// reply through [`NodeMessage::into_reply`], close.
    pub(crate) fn ask(
        addr: SocketAddr,
        cfg: &DaemonConfig,
        metrics: &Arc<NetMetrics>,
        msg: &NodeMessage,
    ) -> Result<NodeMessage> {
        let mut conn = Self::dial(addr, cfg.connect_timeout, cfg.conn, Arc::clone(metrics))?;
        conn.send(msg)?;
        let reply = conn.recv()?.into_reply(metrics);
        conn.close();
        reply
    }

    /// Per-connection statistics so far.
    pub fn stats(&self) -> ConnStats {
        self.stats
    }

    /// The daemon metrics view this connection reports into.
    pub(crate) fn metrics(&self) -> &Arc<NetMetrics> {
        &self.metrics
    }

    /// Encodes `msg` and writes it as one frame.
    ///
    /// # Errors
    ///
    /// [`NetError::Encode`] on a length-prefix overflow,
    /// [`NetError::FrameTooLarge`] when the encoding exceeds the frame
    /// bound (nothing is written), transport errors from the write.
    pub fn send(&mut self, msg: &NodeMessage) -> Result<()> {
        let payload = msg.try_to_wire().map_err(NetError::Encode)?;
        write_frame(&mut self.stream, &payload, self.cfg.max_frame).inspect_err(|e| {
            if matches!(e, NetError::Timeout) {
                self.stats.timeouts += 1;
                self.metrics.timeouts.inc();
            }
        })?;
        self.stats.frames_out += 1;
        self.stats.bytes_out += payload.len() as u64;
        self.metrics.frames_out.inc();
        self.metrics.bytes_out.add(payload.len() as u64);
        Ok(())
    }

    /// Pulls the next whole frame through the shared decoder, reading
    /// the socket in chunks. Bytes past the frame boundary stay buffered
    /// for the next call, so pipelined or coalesced frames are never
    /// lost.
    fn read_framed(&mut self) -> Result<Vec<u8>> {
        use std::io::Read;
        let mut scratch = [0u8; 8 * 1024];
        loop {
            if let Some(payload) = self.decoder.next_frame()? {
                return Ok(payload);
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => return Err(NetError::Closed),
                Ok(n) => self.decoder.feed(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Reads and decodes the next envelope, enforcing the read deadline and
    /// the frame-size bound.
    pub fn recv(&mut self) -> Result<NodeMessage> {
        let payload = self.read_framed().inspect_err(|e| {
            match e {
                NetError::Timeout => {
                    self.stats.timeouts += 1;
                    self.metrics.timeouts.inc();
                }
                NetError::FrameTooLarge { .. } => {
                    self.metrics.oversize_rejected.inc();
                }
                _ => {}
            };
        })?;
        self.stats.frames_in += 1;
        self.stats.bytes_in += payload.len() as u64;
        self.metrics.frames_in.inc();
        self.metrics.bytes_in.add(payload.len() as u64);
        NodeMessage::from_wire(&payload).map_err(|e| {
            self.stats.decode_failures += 1;
            self.metrics.decode_failures.inc();
            NetError::Malformed(e)
        })
    }

    /// Best-effort graceful close: send a `Bye`, shut the socket.
    pub fn close(mut self) {
        let _ = self.send(&NodeMessage::Bye);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_send_recv() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let metrics = Arc::new(NetMetrics::default());
        let cfg = ConnConfig {
            read_timeout: Some(Duration::from_secs(2)),
            ..ConnConfig::default()
        };

        let server_metrics = Arc::clone(&metrics);
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = Connection::new(stream, cfg, server_metrics).unwrap();
            let msg = conn.recv().unwrap();
            assert_eq!(msg, NodeMessage::Data(b"ping".to_vec()));
            conn.send(&NodeMessage::Data(b"pong".to_vec())).unwrap();
        });

        let mut conn =
            Connection::dial(addr, Duration::from_secs(2), cfg, Arc::clone(&metrics)).unwrap();
        conn.send(&NodeMessage::Data(b"ping".to_vec())).unwrap();
        assert_eq!(conn.recv().unwrap(), NodeMessage::Data(b"pong".to_vec()));
        server.join().unwrap();

        let stats = conn.stats();
        assert_eq!(stats.frames_out, 1);
        assert_eq!(stats.frames_in, 1);
        assert!(stats.bytes_in > 0);
        let snap = metrics.snapshot();
        assert_eq!(snap.frames_in, 2);
        assert_eq!(snap.frames_out, 2);
    }

    #[test]
    fn read_deadline_fires() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let metrics = Arc::new(NetMetrics::default());
        let cfg = ConnConfig {
            read_timeout: Some(Duration::from_millis(60)),
            ..ConnConfig::default()
        };
        let mut conn =
            Connection::dial(addr, Duration::from_secs(2), cfg, Arc::clone(&metrics)).unwrap();
        // Server never writes: recv must time out, not hang.
        let (_held, _) = listener.accept().unwrap();
        assert_eq!(conn.recv(), Err(NetError::Timeout));
        assert_eq!(conn.stats().timeouts, 1);
        assert_eq!(metrics.snapshot().timeouts, 1);
    }

    #[test]
    fn oversize_message_rejected_before_send() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let metrics = Arc::new(NetMetrics::default());
        let cfg = ConnConfig {
            max_frame: 128,
            ..ConnConfig::default()
        };
        let mut conn = Connection::dial(addr, Duration::from_secs(2), cfg, metrics).unwrap();
        let big = NodeMessage::Data(vec![0u8; 4096]);
        assert!(matches!(
            conn.send(&big),
            Err(NetError::FrameTooLarge { .. })
        ));
        assert_eq!(conn.stats().frames_out, 0);
    }
}
