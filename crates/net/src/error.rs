//! Network-layer error taxonomy.
//!
//! Every failure a socket endpoint can observe maps to a distinct variant,
//! mirroring the [`ProtocolError`] discipline of `peace-protocol`: tests
//! and retry loops assert *why* an exchange failed, never just that it did.

use core::fmt;

use peace_protocol::{ProtocolError, Transient};
use peace_wire::WireError;

use crate::envelope::reject_code;

/// Reasons a networked PEACE exchange fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// An OS-level socket error (connect refused, reset, …).
    Io(std::io::ErrorKind),
    /// A read or write missed its per-connection deadline.
    Timeout,
    /// The peer closed the stream (EOF) mid-exchange.
    Closed,
    /// An inbound frame declared a length above the configured bound.
    /// The stream is unrecoverable past this point and must be dropped.
    FrameTooLarge {
        /// The declared payload length.
        declared: u64,
        /// The configured maximum.
        max: u64,
    },
    /// A frame arrived but its envelope failed to decode.
    Malformed(WireError),
    /// Encoding an outbound message overflowed a length prefix.
    Encode(WireError),
    /// The daemon is at its connection-count limit.
    ConnLimit,
    /// The peer answered with an explicit `Reject` envelope.
    Rejected {
        /// Machine-readable reject code (see [`crate::envelope::reject_code`]).
        code: u16,
        /// Human-readable detail from the peer.
        detail: String,
    },
    /// A local protocol-layer check failed (stale beacon, bad signature…).
    Protocol(ProtocolError),
    /// A ledger-layer failure during replication (verification refusal,
    /// writer quarantine, local I/O). Carries the ledger error's stable
    /// code plus its display text.
    Ledger {
        /// The [`peace_ledger::LedgerError::code`] of the root cause.
        code: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// The peer sent a well-formed message of an unexpected kind.
    Unexpected(&'static str),
}

impl NetError {
    /// Stable machine-readable identifier for this failure class (metrics
    /// key / event code; must never change once released).
    ///
    /// [`NetError::Protocol`] delegates to the inner
    /// [`ProtocolError::code`] — the protocol-level reason is the
    /// informative part, and sharing its code space keys the simulator's
    /// and daemon's failure maps identically for the same root cause.
    pub fn code(&self) -> &'static str {
        match self {
            NetError::Io(_) => "io",
            NetError::Timeout => "timeout",
            NetError::Closed => "closed",
            NetError::FrameTooLarge { .. } => "frame_too_large",
            NetError::Malformed(_) => "malformed",
            NetError::Encode(_) => "encode_failed",
            NetError::ConnLimit => "conn_limit",
            NetError::Rejected { .. } => "rejected",
            NetError::Protocol(e) => e.code(),
            NetError::Ledger { code, .. } => code,
            NetError::Unexpected(_) => "unexpected_message",
        }
    }
}

impl Transient for NetError {
    /// Whether a fresh attempt (new connection, new handshake) can
    /// plausibly succeed.
    ///
    /// This is deliberately *looser* than `ProtocolError`'s
    /// [`Transient`] impl: over a hostile wire, even a "fatal"
    /// verification failure (bad group signature, bad beacon signature)
    /// may be corruption the channel injected into our bytes, and a retry
    /// re-signs a fresh exchange from scratch. Only outcomes that a fresh
    /// handshake cannot change are fatal: explicit revocation, a revoked
    /// certificate, a missing credential, or an exhausted retry budget.
    fn is_transient(&self) -> bool {
        match self {
            NetError::Io(_)
            | NetError::Timeout
            | NetError::Closed
            | NetError::FrameTooLarge { .. }
            | NetError::Malformed(_)
            | NetError::ConnLimit
            | NetError::Unexpected(_) => true,
            NetError::Encode(_) => false,
            NetError::Rejected { code, .. } => *code != reject_code::REVOKED,
            // Only a ledger I/O failure is worth a blind retry; refusals
            // and quarantines re-detect deterministically.
            NetError::Ledger { code, .. } => *code == "io",
            NetError::Protocol(e) => !matches!(
                e,
                ProtocolError::SignerRevoked
                    | ProtocolError::CertificateRevoked
                    | ProtocolError::MissingCredential
                    | ProtocolError::RetriesExhausted
            ),
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(kind) => write!(f, "socket error: {kind:?}"),
            NetError::Timeout => write!(f, "read/write deadline exceeded"),
            NetError::Closed => write!(f, "connection closed by peer"),
            NetError::FrameTooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds limit {max}")
            }
            NetError::Malformed(e) => write!(f, "malformed envelope: {e}"),
            NetError::Encode(e) => write!(f, "envelope encoding failed: {e}"),
            NetError::ConnLimit => write!(f, "connection limit reached"),
            NetError::Rejected { code, detail } => {
                write!(f, "peer rejected (code {code}): {detail}")
            }
            NetError::Protocol(e) => write!(f, "protocol failure: {e}"),
            NetError::Ledger { detail, .. } => write!(f, "ledger failure: {detail}"),
            NetError::Unexpected(what) => write!(f, "unexpected message: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => NetError::Timeout,
            std::io::ErrorKind::UnexpectedEof => NetError::Closed,
            kind => NetError::Io(kind),
        }
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Malformed(e)
    }
}

impl From<ProtocolError> for NetError {
    fn from(e: ProtocolError) -> Self {
        NetError::Protocol(e)
    }
}

/// Result alias for network operations.
pub type Result<T> = core::result::Result<T, NetError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_classification() {
        assert!(NetError::Timeout.is_transient());
        assert!(NetError::Closed.is_transient());
        assert!(NetError::Malformed(WireError::UnexpectedEnd).is_transient());
        assert!(NetError::Rejected {
            code: reject_code::AUTH_FAILED,
            detail: String::new()
        }
        .is_transient());
        assert!(!NetError::Rejected {
            code: reject_code::REVOKED,
            detail: String::new()
        }
        .is_transient());
        assert!(!NetError::Protocol(ProtocolError::SignerRevoked).is_transient());
        assert!(NetError::Protocol(ProtocolError::StaleTimestamp).is_transient());
        assert!(!NetError::Encode(WireError::LengthOutOfRange).is_transient());
    }

    #[test]
    fn io_error_mapping() {
        let t = std::io::Error::new(std::io::ErrorKind::TimedOut, "t");
        assert_eq!(NetError::from(t), NetError::Timeout);
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "e");
        assert_eq!(NetError::from(eof), NetError::Closed);
        let refused = std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "r");
        assert_eq!(
            NetError::from(refused),
            NetError::Io(std::io::ErrorKind::ConnectionRefused)
        );
    }

    #[test]
    fn display_nonempty() {
        for e in [
            NetError::Timeout,
            NetError::Closed,
            NetError::ConnLimit,
            NetError::FrameTooLarge {
                declared: 9,
                max: 1,
            },
            NetError::Unexpected("x"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
