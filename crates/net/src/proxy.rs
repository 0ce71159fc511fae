//! A TCP fault proxy: the adversarial [`Channel`] of
//! [`peace_protocol::transport`] with a socket on either side.
//!
//! The proxy sits between a client and an upstream daemon and re-frames
//! the byte stream. It decides no fault itself: every frame read is one
//! [`Channel::transmit`], and whatever the channel delivers — nothing
//! (drop), a mangled copy (truncate, bit-flip), two copies (duplicate),
//! an earlier frame released behind this one (reorder) — is written on,
//! so a [`FaultPlan`] and a seed mean on a socket what they mean on the
//! simulator's radio: the same draws, the same [`FaultStats`].
//!
//! Faults apply to frame *payloads*: a truncated payload is re-framed
//! with a consistent length prefix, so the stream survives and the
//! envelope fails to decode — how a mangled radio frame that still passes
//! the MAC-layer CRC looks to PEACE. A flipped bit *in the prefix* would
//! desynchronize framing for good, which no retry heals; its radio
//! analogue (a frame that fails CRC) is a **drop**.
//!
//! The one thing a socket adds is real time. A frame is transmitted at
//! channel time 0, so a [`Delivery::at`](peace_protocol::Delivery) reads
//! as *milliseconds after the frame was read*: each delivery is written
//! no sooner than that, capped at 300 ms (a duplicate trails its original
//! by the channel's one tick, 1 ms).

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use peace_protocol::{Channel, FaultPlan, FaultStats};

use crate::daemon::lock_recover;
use crate::error::Result;
use crate::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME};

/// Real-time cap on how long any one delivery is held back (ms).
const DELAY_CAP_MS: u64 = 300;

/// Proxy tunables.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProxyConfig {
    /// The fault plan every forwarded frame crosses.
    pub plan: FaultPlan,
    /// Seed for the deterministic fault stream.
    pub seed: u64,
}

/// One [`FaultStats`] per forwarder, each overwriting its own slot.
type StatSlots = Arc<Mutex<Vec<FaultStats>>>;

/// A running fault proxy in front of one upstream address.
pub struct FaultProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: StatSlots,
    accept_thread: Option<JoinHandle<()>>,
}

/// The channel seed of one direction (0 is client → upstream) of the
/// `conn`-th accepted connection, so runs replay exactly per
/// `(seed, conn#, direction)`.
fn direction_seed(seed: u64, conn: u64, dir: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(conn * 2 + dir)
}

impl FaultProxy {
    /// Binds a loopback listener and starts proxying to `upstream`.
    pub fn spawn(upstream: SocketAddr, cfg: ProxyConfig) -> Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = StatSlots::default();

        let t_shutdown = Arc::clone(&shutdown);
        let t_stats = Arc::clone(&stats);
        let accept_thread = std::thread::spawn(move || {
            let mut conn_seq = 0u64;
            for stream in listener.incoming() {
                if t_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let client = match stream {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                conn_seq += 1;
                let up = match TcpStream::connect_timeout(&upstream, Duration::from_secs(5)) {
                    Ok(s) => s,
                    Err(_) => {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    }
                };
                // One forwarder, with a channel of its own, per direction.
                for (dir, from, to) in [
                    (0u64, client.try_clone(), up.try_clone()),
                    (1u64, up.try_clone(), client.try_clone()),
                ] {
                    let (Ok(from), Ok(to)) = (from, to) else {
                        continue;
                    };
                    let channel = Channel::new(direction_seed(cfg.seed, conn_seq, dir), cfg.plan);
                    let f_stats = Arc::clone(&t_stats);
                    std::thread::spawn(move || forward(from, to, channel, &f_stats));
                }
            }
        });

        Ok(Self {
            addr,
            shutdown,
            stats,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listening address — dial this instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Injected-fault counters, summed over every forwarder so far.
    pub fn stats(&self) -> FaultStats {
        let mut sum = FaultStats::default();
        for s in lock_recover(&self.stats).iter() {
            sum += *s;
        }
        sum
    }

    /// Stops accepting and tears the proxy down. In-flight forwarders exit
    /// as their streams close.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown();
        }
    }
}

/// Forwards frames in one direction through `channel` (see the module
/// docs for what a delivery's `at` means here).
fn forward(mut from: TcpStream, mut to: TcpStream, mut channel: Channel, stats: &StatSlots) {
    let _ = from.set_read_timeout(None);
    let slot = {
        let mut slots = lock_recover(stats);
        slots.push(FaultStats::default());
        slots.len() - 1
    };
    'stream: while let Ok(payload) = read_frame(&mut from, DEFAULT_MAX_FRAME) {
        let deliveries = channel.transmit(&payload, 0);
        lock_recover(stats)[slot] = *channel.stats();
        let mut waited = 0;
        for d in deliveries {
            let due = d.at.min(DELAY_CAP_MS);
            std::thread::sleep(Duration::from_millis(due.saturating_sub(waited)));
            waited = waited.max(due);
            if write_frame(&mut to, &d.bytes, DEFAULT_MAX_FRAME).is_err() {
                break 'stream;
            }
        }
    }
    // Stream over: release any parked frame, then close both halves so the
    // peer observes EOF promptly.
    for d in channel.flush(0) {
        let _ = write_frame(&mut to, &d.bytes, DEFAULT_MAX_FRAME);
    }
    let _ = to.shutdown(Shutdown::Write);
    let _ = from.shutdown(Shutdown::Read);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo server speaking raw frames (no envelope) for proxy unit tests.
    fn frame_echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            while let Ok((mut s, _)) = listener.accept() {
                let done = std::thread::spawn(move || {
                    while let Ok(p) = read_frame(&mut s, DEFAULT_MAX_FRAME) {
                        if p == b"quit" {
                            return true;
                        }
                        if write_frame(&mut s, &p, DEFAULT_MAX_FRAME).is_err() {
                            break;
                        }
                    }
                    false
                });
                if done.join().unwrap_or(false) {
                    break;
                }
            }
        });
        (addr, t)
    }

    #[test]
    fn clean_proxy_is_transparent() {
        let (upstream, server) = frame_echo_server();
        let mut proxy = FaultProxy::spawn(upstream, ProxyConfig::default()).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        for i in 0..20u8 {
            let msg = vec![i; 32];
            write_frame(&mut c, &msg, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(read_frame(&mut c, DEFAULT_MAX_FRAME).unwrap(), msg);
        }
        assert_eq!(proxy.stats().total_faults(), 0);
        write_frame(&mut c, b"quit", DEFAULT_MAX_FRAME).unwrap();
        drop(c);
        proxy.shutdown();
        server.join().unwrap();
    }

    #[test]
    fn faults_fire_and_stream_survives() {
        let (upstream, server) = frame_echo_server();
        let cfg = ProxyConfig {
            plan: FaultPlan {
                drop_prob: 0.2,
                bit_flip_prob: 0.2,
                truncate_prob: 0.15,
                duplicate_prob: 0.15,
                ..FaultPlan::NONE
            },
            seed: 7,
        };
        let mut proxy = FaultProxy::spawn(upstream, cfg).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut received = 0u32;
        for i in 0..120u8 {
            let msg = vec![i; 48];
            if write_frame(&mut c, &msg, DEFAULT_MAX_FRAME).is_err() {
                break;
            }
            // Drain whatever arrives within the deadline; drops are fine.
            if read_frame(&mut c, DEFAULT_MAX_FRAME).is_ok() {
                received += 1;
            }
        }
        assert!(received > 20, "some echoes must get through: {received}");
        assert!(proxy.stats().total_faults() > 10);
        assert!(proxy.stats().dropped > 0);
        assert!(proxy.stats().bit_flipped > 0);
        write_frame(&mut c, b"quit", DEFAULT_MAX_FRAME).ok();
        drop(c);
        proxy.shutdown();
        let _ = server.join();
    }

    /// One injector: for one seed and one plan, a proxy direction and a
    /// bare [`Channel`] fed the same frames deliver the same bytes in the
    /// same order and count the same faults.
    #[test]
    fn proxy_direction_is_the_channel() {
        let cfg = ProxyConfig {
            plan: FaultPlan::uniform(0.15, 4),
            seed: 0x1_1EC7,
        };
        let frames: Vec<Vec<u8>> = (0..240u32)
            .map(|i| (0..16 + i % 40).map(|j| (i * 7 + j) as u8).collect())
            .collect();

        let mut channel = Channel::new(direction_seed(cfg.seed, 1, 0), cfg.plan);
        let mut expected = Vec::new();
        for f in &frames {
            expected.extend(channel.transmit(f, 0).into_iter().map(|d| d.bytes));
        }
        expected.extend(channel.flush(0).into_iter().map(|d| d.bytes));

        // A sink that only records: the return direction carries nothing,
        // so the proxy's sum is the one direction under test.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = listener.local_addr().unwrap();
        let sink = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut got = Vec::new();
            while let Ok(p) = read_frame(&mut s, DEFAULT_MAX_FRAME) {
                got.push(p);
            }
            got
        });
        let mut proxy = FaultProxy::spawn(upstream, cfg).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        for f in &frames {
            write_frame(&mut c, f, DEFAULT_MAX_FRAME).unwrap();
        }
        c.shutdown(Shutdown::Write).unwrap();
        let got = sink.join().unwrap();

        assert_eq!(got, expected);
        assert_eq!(proxy.stats(), *channel.stats());
        let s = proxy.stats();
        for fired in [
            s.dropped,
            s.duplicated,
            s.reordered,
            s.delayed,
            s.truncated,
            s.bit_flipped,
        ] {
            assert!(fired > 0, "all six classes must be armed: {s:?}");
        }
        proxy.shutdown();
    }
}
