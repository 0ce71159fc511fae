//! Readiness for the shard loop: Linux `epoll`, declared by hand because
//! `std` has no readiness wait and the dependency set is frozen. The only
//! foreign calls in the workspace, and its only `unsafe` besides the
//! pairing crate's one call into its AVX-512 lane kernel: three calls,
//! each on a descriptor or buffer this module owns or borrows for the call.
//!
//! Level-triggered: a descriptor is reported for as long as it is ready
//! for something its [`Interest`] names; error and hang-up are reported
//! whatever the interest. The kernel forgets a descriptor when it is
//! closed, so there is no `remove`.

#![deny(clippy::undocumented_unsafe_blocks)]
#![allow(unsafe_code)]

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// [`Poller::ctl`] operations: start watching, change what for.
pub(crate) const ADD: i32 = 1;
pub(crate) const MODIFY: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2_000_000;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
/// The token the waker's read end is registered under.
const WAKE_TOKEN: u64 = u64::MAX;
/// Events taken per `epoll_wait`; the rest are reported by the next one.
const BATCH: usize = 256;

/// `struct epoll_event`, packed on x86 as the kernel ABI has it.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
}

/// A negative return is the thread's `errno`.
fn checked(ret: i32) -> io::Result<i32> {
    (ret >= 0)
        .then_some(ret)
        .ok_or_else(io::Error::last_os_error)
}

/// What a registered descriptor is watched for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Interest(u32);

impl Interest {
    pub(crate) fn new(read: bool, write: bool) -> Self {
        Self(if read { EPOLLIN } else { 0 } | if write { EPOLLOUT } else { 0 })
    }
}

/// One ready descriptor by its token: bytes or an end of stream to read,
/// a reset or fully shut connection, or (neither flag) room to write.
#[derive(Debug)]
pub(crate) struct Event {
    pub(crate) token: u64,
    pub(crate) readable: bool,
    pub(crate) hangup: bool,
}

/// An epoll instance plus the read end of its waker.
pub(crate) struct Poller {
    ep: OwnedFd,
    wake_rx: UnixStream,
    buf: Vec<EpollEvent>,
}

/// Ends the owning [`Poller`]'s current or next wait.
#[derive(Clone)]
pub(crate) struct Waker(Arc<UnixStream>);

impl Waker {
    /// A full pipe has a wake pending already; a closed one, nobody to wake.
    pub(crate) fn wake(&self) {
        let _ = (&*self.0).write(&[1]);
    }
}

impl Poller {
    pub(crate) fn new() -> io::Result<(Self, Waker)> {
        // SAFETY: no pointer arguments; the result is checked before use.
        let fd = checked(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `fd` is open, fresh from the kernel, owned by nothing else.
        let ep = unsafe { OwnedFd::from_raw_fd(fd) };
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let buf = vec![EpollEvent { events: 0, data: 0 }; BATCH];
        let poller = Self { ep, wake_rx, buf };
        let wake_fd = poller.wake_rx.as_raw_fd();
        poller.ctl(ADD, wake_fd, WAKE_TOKEN, Interest::new(true, false))?;
        Ok((poller, Waker(Arc::new(wake_tx))))
    }

    /// [`ADD`]s `fd` to the watched set or [`MODIFY`]s its registration:
    /// from now on it is watched for `want` and its events carry `token`.
    pub(crate) fn ctl(&self, op: i32, fd: RawFd, token: u64, want: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: want.0,
            data: token,
        };
        // SAFETY: `ev` outlives the call and the kernel keeps no pointer;
        // an `fd` (or `op`) that names nothing is an error return.
        checked(unsafe { epoll_ctl(self.ep.as_raw_fd(), op, fd, &mut ev) }).map(drop)
    }

    /// Blocks until a watched descriptor is ready, a [`Waker`] fires or
    /// `limit` passes (`None`: no limit), and leaves what is ready in
    /// `out`. A wake or a signal returns with `out` possibly empty.
    pub(crate) fn wait(&mut self, limit: Option<Duration>, out: &mut Vec<Event>) -> io::Result<()> {
        out.clear();
        // Rounded up: a sub-millisecond remainder must sleep, not spin.
        let ms = limit.map_or(-1, |t| t.as_micros().div_ceil(1000).min(1 << 30) as i32);
        let (ep, buf) = (self.ep.as_raw_fd(), self.buf.as_mut_ptr());
        // SAFETY: `buf` points at the `BATCH` entries of `self.buf`,
        // exclusively borrowed for the call; the kernel writes no more.
        let n = match checked(unsafe { epoll_wait(ep, buf, BATCH as i32, ms) }) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in &self.buf[..n] {
            let EpollEvent { events, data } = *ev;
            if data == WAKE_TOKEN {
                // Whatever this leaves unread is reported again.
                let _ = (&self.wake_rx).read(&mut [0u8; 64]);
                continue;
            }
            out.push(Event {
                token: data,
                readable: events & EPOLLIN != 0,
                hangup: events & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    const SOON: Option<Duration> = Some(Duration::from_millis(20));
    const READ: Interest = Interest(EPOLLIN);

    fn pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn readable_only_after_a_write() {
        let (mut p, _w) = Poller::new().unwrap();
        let (a, mut b) = pair();
        p.ctl(ADD, a.as_raw_fd(), 7, READ).unwrap();
        let mut ev = Vec::new();
        p.wait(SOON, &mut ev).unwrap();
        assert!(ev.is_empty(), "nothing written yet: {ev:?}");

        b.write_all(b"x").unwrap();
        p.wait(Some(Duration::from_secs(5)), &mut ev).unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].token, 7);
        assert!(ev[0].readable && !ev[0].hangup);
        // Level-triggered: unread bytes are reported again.
        p.wait(SOON, &mut ev).unwrap();
        assert_eq!(ev.len(), 1);
    }

    #[test]
    fn write_interest_fires_on_a_writable_socket() {
        let (mut p, _w) = Poller::new().unwrap();
        let (a, _b) = pair();
        p.ctl(ADD, a.as_raw_fd(), 1, READ).unwrap();
        let mut ev = Vec::new();
        p.wait(SOON, &mut ev).unwrap();
        assert!(ev.is_empty());
        p.ctl(MODIFY, a.as_raw_fd(), 2, Interest::new(true, true))
            .unwrap();
        p.wait(Some(Duration::from_secs(5)), &mut ev).unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].token, 2, "modify replaces the token too");
        assert!(!ev[0].readable && !ev[0].hangup, "writable, nothing else");
    }

    #[test]
    fn peer_close_reports_hangup() {
        let (mut p, _w) = Poller::new().unwrap();
        let (a, b) = pair();
        p.ctl(ADD, a.as_raw_fd(), 3, READ).unwrap();
        drop(b);
        let mut ev = Vec::new();
        p.wait(Some(Duration::from_secs(5)), &mut ev).unwrap();
        assert_eq!(ev.len(), 1);
        assert!(ev[0].hangup);
    }

    #[test]
    fn zero_interest_stays_silent_with_bytes_pending() {
        let (mut p, _w) = Poller::new().unwrap();
        let (a, mut b) = pair();
        p.ctl(ADD, a.as_raw_fd(), 4, Interest::new(false, false))
            .unwrap();
        b.write_all(b"pending").unwrap();
        let mut ev = Vec::new();
        p.wait(SOON, &mut ev).unwrap();
        assert!(ev.is_empty(), "no interest, no event: {ev:?}");
        // ...but a hang-up cannot be masked.
        drop(b);
        p.wait(Some(Duration::from_secs(5)), &mut ev).unwrap();
        assert!(ev.len() == 1 && ev[0].hangup && !ev[0].readable);
    }

    #[test]
    fn wait_honours_its_timeout() {
        let (mut p, _w) = Poller::new().unwrap();
        let mut ev = Vec::new();
        let t0 = Instant::now();
        p.wait(Some(Duration::from_millis(50)), &mut ev).unwrap();
        let waited = t0.elapsed();
        assert!(ev.is_empty());
        assert!(
            waited >= Duration::from_millis(50),
            "returned early: {waited:?}"
        );
        assert!(waited < Duration::from_secs(2), "overslept: {waited:?}");
        // A sub-millisecond timeout still sleeps rather than spinning.
        let t0 = Instant::now();
        p.wait(Some(Duration::from_micros(300)), &mut ev).unwrap();
        assert!(t0.elapsed() >= Duration::from_micros(300));
    }

    #[test]
    fn a_waker_on_another_thread_ends_a_blocked_wait() {
        let (mut p, waker) = Poller::new().unwrap();
        let t = std::thread::spawn(move || {
            let mut ev = Vec::new();
            p.wait(None, &mut ev).unwrap();
            // The wake byte was drained: the next wait runs out its time.
            let t0 = Instant::now();
            p.wait(SOON, &mut ev).unwrap();
            (ev.len(), t0.elapsed())
        });
        // A wake that lands before the thread blocks stays pending.
        std::thread::sleep(Duration::from_millis(30));
        waker.wake();
        let (events, second_wait) = t.join().unwrap();
        assert_eq!(events, 0, "a wake reports no descriptor");
        assert!(second_wait >= SOON.unwrap());
    }
}
