//! Length-prefixed framing over byte streams.
//!
//! Every PEACE network message travels as one *frame*: a 4-byte big-endian
//! payload length followed by the payload (a wire-encoded
//! [`NodeMessage`](crate::envelope::NodeMessage)). The reader enforces a
//! configurable upper bound on the declared length *before* allocating, so
//! a hostile or corrupted peer cannot balloon memory, and every failure
//! surfaces as a clean [`NetError`] — never a panic.

use std::io::{Read, Write};

use crate::error::{NetError, Result};

/// Byte width of the length prefix.
pub const FRAME_HEADER_LEN: usize = 4;

/// Default upper bound on a frame payload (1 MiB). Beacons with large
/// revocation lists are a few tens of KiB; anything near this bound is
/// hostile.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Writes one frame (length prefix + payload).
///
/// # Errors
///
/// [`NetError::FrameTooLarge`] if the payload exceeds `max_frame`;
/// otherwise any socket error, with timeouts mapped to
/// [`NetError::Timeout`].
pub fn write_frame(w: &mut impl Write, payload: &[u8], max_frame: usize) -> Result<()> {
    if payload.len() > max_frame {
        return Err(NetError::FrameTooLarge {
            declared: payload.len() as u64,
            max: max_frame as u64,
        });
    }
    let len = u32::try_from(payload.len()).map_err(|_| NetError::FrameTooLarge {
        declared: payload.len() as u64,
        max: u64::from(u32::MAX),
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, rejecting payloads longer than `max_frame` before
/// allocating.
///
/// # Errors
///
/// [`NetError::Closed`] on EOF at a frame boundary or mid-frame,
/// [`NetError::Timeout`] on a missed read deadline, and
/// [`NetError::FrameTooLarge`] when the declared length exceeds the bound
/// (after which the stream is desynchronized and must be dropped).
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Vec<u8>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    let declared = u32::from_be_bytes(header) as usize;
    if declared > max_frame {
        return Err(NetError::FrameTooLarge {
            declared: declared as u64,
            max: max_frame as u64,
        });
    }
    let mut payload = vec![0u8; declared];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Incremental frame decoder: arbitrary byte fragments in, whole frames
/// out. This is the transport-agnostic framing core shared by the
/// blocking [`Connection`](crate::conn::Connection) and the sharded event
/// loop behind [`RouterDaemon`](crate::RouterDaemon): both feed whatever the socket produced
/// (a 1-byte read, a split length prefix, three coalesced frames) and
/// pull complete payloads, so framing behaves identically no matter how
/// the kernel fragments the stream (property-tested in
/// `tests/framing_partial.rs` against [`read_frame`]).
///
/// The buffer keeps a consumed-front offset instead of shifting bytes on
/// every extraction; compaction is amortized. Each payload is copied out
/// exactly once, at extraction.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
    max_frame: usize,
    poisoned: bool,
}

/// Compact once the dead front region exceeds this many bytes (or the
/// whole buffer is consumed, which is free).
const COMPACT_THRESHOLD: usize = 16 * 1024;

impl FrameDecoder {
    /// A decoder enforcing `max_frame` on every declared length, checked
    /// before any payload allocation.
    pub fn new(max_frame: usize) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            max_frame,
            poisoned: false,
        }
    }

    /// Appends raw stream bytes. Call [`Self::next_frame`] until it
    /// returns `None` after each feed — one fragment can complete
    /// several frames.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_THRESHOLD {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Bytes buffered but not yet returned as a frame (header bytes of a
    /// partial frame included).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete frame, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`NetError::FrameTooLarge`] when a declared length exceeds the
    /// bound. The stream is desynchronized past this point, so the
    /// decoder stays poisoned: every later call repeats the error and
    /// the connection must be dropped (exactly the [`read_frame`]
    /// contract).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        if self.poisoned {
            return Err(NetError::FrameTooLarge {
                declared: self.max_frame as u64 + 1,
                max: self.max_frame as u64,
            });
        }
        let avail = self.buf.len() - self.start;
        if avail < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let mut header = [0u8; FRAME_HEADER_LEN];
        header.copy_from_slice(&self.buf[self.start..self.start + FRAME_HEADER_LEN]);
        let declared = u32::from_be_bytes(header) as usize;
        if declared > self.max_frame {
            self.poisoned = true;
            return Err(NetError::FrameTooLarge {
                declared: declared as u64,
                max: self.max_frame as u64,
            });
        }
        if avail < FRAME_HEADER_LEN + declared {
            return Ok(None);
        }
        let lo = self.start + FRAME_HEADER_LEN;
        let payload = self.buf[lo..lo + declared].to_vec();
        self.start = lo + declared;
        self.compact();
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn decoder_matches_read_frame_over_fragments() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut wire, b"", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut wire, &[7u8; 300], DEFAULT_MAX_FRAME).unwrap();
        // Worst-case fragmentation: one byte at a time.
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut got = Vec::new();
        for b in &wire {
            dec.feed(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, vec![b"alpha".to_vec(), Vec::new(), vec![7u8; 300]]);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_coalesced_feed_yields_all_frames() {
        let mut wire = Vec::new();
        for i in 0..5u8 {
            write_frame(&mut wire, &[i; 10], DEFAULT_MAX_FRAME).unwrap();
        }
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.feed(&wire);
        let mut n = 0;
        while let Some(f) = dec.next_frame().unwrap() {
            assert_eq!(f, vec![n as u8; 10]);
            n += 1;
        }
        assert_eq!(n, 5);
    }

    #[test]
    fn decoder_oversize_poisons() {
        let mut dec = FrameDecoder::new(16);
        dec.feed(&1024u32.to_be_bytes());
        let e = dec.next_frame().unwrap_err();
        assert_eq!(
            e,
            NetError::FrameTooLarge {
                declared: 1024,
                max: 16
            }
        );
        // Poisoned: the stream is desynchronized, later calls keep failing.
        dec.feed(&[0u8; 64]);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello frame", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut buf, b"", DEFAULT_MAX_FRAME).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cur, DEFAULT_MAX_FRAME).unwrap(),
            b"hello frame"
        );
        assert_eq!(read_frame(&mut cur, DEFAULT_MAX_FRAME).unwrap(), b"");
        assert_eq!(
            read_frame(&mut cur, DEFAULT_MAX_FRAME),
            Err(NetError::Closed)
        );
    }

    #[test]
    fn oversized_write_rejected() {
        let mut buf = Vec::new();
        let big = vec![0u8; 64];
        assert_eq!(
            write_frame(&mut buf, &big, 63),
            Err(NetError::FrameTooLarge {
                declared: 64,
                max: 63
            })
        );
        assert!(buf.is_empty(), "nothing written for a rejected frame");
    }

    #[test]
    fn oversized_declared_length_rejected_before_allocation() {
        // Header claims 256 MiB; bound is 1 KiB — must fail without reading on.
        let mut bytes = (256u32 << 20).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 8]);
        let mut cur = Cursor::new(bytes);
        assert_eq!(
            read_frame(&mut cur, 1024),
            Err(NetError::FrameTooLarge {
                declared: 256 << 20,
                max: 1024
            })
        );
    }

    #[test]
    fn truncated_frame_is_clean_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full payload", DEFAULT_MAX_FRAME).unwrap();
        for cut in 0..buf.len() {
            let mut cur = Cursor::new(&buf[..cut]);
            assert_eq!(
                read_frame(&mut cur, DEFAULT_MAX_FRAME),
                Err(NetError::Closed),
                "cut at {cut}"
            );
        }
    }
}
