//! Protocol error taxonomy.
//!
//! Every rejection path of §IV (and the attack filters of §V.A) maps to a
//! distinct variant so the simulator and tests can assert *why* a message
//! was dropped.

use core::fmt;

use peace_wire::WireError;

/// Retry classification shared by every error taxonomy in the stack.
///
/// `ProtocolError`, `peace-net`'s `NetError`, and `peace-ledger`'s
/// `LedgerError` each implement this one trait instead of maintaining
/// independent `is_transient` methods, so retry loops at any layer ask the
/// same question the same way and the classifications cannot drift apart.
/// Each layer still *answers* per its own failure model — the network layer
/// is deliberately looser than the protocol layer, because over a hostile
/// wire even a "fatal" verification failure may be injected corruption.
pub trait Transient {
    /// Whether a fresh attempt (with backoff) can plausibly succeed.
    fn is_transient(&self) -> bool;
}

/// Reasons a PEACE protocol step fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// A timestamp fell outside the acceptance window (replay defense).
    StaleTimestamp,
    /// The router certificate failed signature or expiry validation.
    CertificateInvalid,
    /// The router certificate appears on the CRL.
    CertificateRevoked,
    /// A CRL older than the acceptable age or than the one held (a revoked
    /// router replaying a stale CRL — the phishing window).
    StaleCrl,
    /// A URL older than the acceptable age or than the one held.
    StaleUrl,
    /// The ECDSA beacon signature did not verify.
    BadRouterSignature,
    /// The operator signature on the CRL failed.
    BadCrlSignature,
    /// The operator signature on the URL failed: a forged list, or one
    /// issued for another epoch's key.
    BadUrlSignature,
    /// An access request referenced an unknown or expired beacon exchange.
    UnknownBeacon,
    /// The group signature failed verification (illegitimate user).
    BadGroupSignature,
    /// The group signature verified but the signer's key is on the URL.
    SignerRevoked,
    /// The router demanded a puzzle solution and none was provided.
    PuzzleRequired,
    /// The provided puzzle solution is wrong.
    PuzzleInvalid,
    /// Symmetric decryption/authentication of a confirmation failed.
    DecryptFailed,
    /// A confirmation's contents did not match the pending session.
    SessionMismatch,
    /// The peer response arrived outside the allowed handshake delay.
    HandshakeTimeout,
    /// A setup-phase consistency check failed (share mismatch, bad receipt…).
    Setup(&'static str),
    /// Malformed wire encoding.
    Wire(WireError),
    /// The entity does not hold a key/credential required for the operation.
    MissingCredential,
    /// A URL delta did not chain onto the local list state (epoch
    /// mismatch, version gap, or inconsistent diff) — fall back to a full
    /// list fetch.
    UrlDeltaChain,
    /// A handshake message was delivered more than once; the session it
    /// completes already exists and the duplicate is rejected idempotently.
    DuplicateMessage,
    /// The retry budget for a handshake has been exhausted.
    RetriesExhausted,
}

impl ProtocolError {
    /// Stable machine-readable identifier for this failure class.
    ///
    /// These strings are part of the observability contract: the simulator
    /// keys its failure-count maps by them and `--metrics-json` dumps embed
    /// them in events, so they must never change once released. Payload
    /// details (which field was malformed, which setup check failed) are
    /// deliberately excluded — one code per variant.
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::StaleTimestamp => "stale_timestamp",
            ProtocolError::CertificateInvalid => "certificate_invalid",
            ProtocolError::CertificateRevoked => "certificate_revoked",
            ProtocolError::StaleCrl => "stale_crl",
            ProtocolError::StaleUrl => "stale_url",
            ProtocolError::BadRouterSignature => "bad_router_signature",
            ProtocolError::BadCrlSignature => "bad_crl_signature",
            ProtocolError::BadUrlSignature => "bad_url_signature",
            ProtocolError::UnknownBeacon => "unknown_beacon",
            ProtocolError::BadGroupSignature => "bad_group_signature",
            ProtocolError::SignerRevoked => "signer_revoked",
            ProtocolError::PuzzleRequired => "puzzle_required",
            ProtocolError::PuzzleInvalid => "puzzle_invalid",
            ProtocolError::DecryptFailed => "decrypt_failed",
            ProtocolError::SessionMismatch => "session_mismatch",
            ProtocolError::HandshakeTimeout => "handshake_timeout",
            ProtocolError::Setup(_) => "setup",
            ProtocolError::Wire(_) => "wire",
            ProtocolError::MissingCredential => "missing_credential",
            ProtocolError::UrlDeltaChain => "url_delta_chain",
            ProtocolError::DuplicateMessage => "duplicate_message",
            ProtocolError::RetriesExhausted => "retries_exhausted",
        }
    }
}

impl Transient for ProtocolError {
    /// Whether the failure is *transient* — plausibly caused by the channel
    /// (loss, delay, corruption, expiry) rather than by the peer being
    /// illegitimate — and therefore worth retrying with backoff.
    ///
    /// Fatal classifications (`false`) mean a retry of the same exchange
    /// cannot succeed: bad credentials, revocation, invalid signatures by
    /// construction, setup inconsistencies, or an exhausted retry budget.
    /// [`ProtocolError::DuplicateMessage`] is also non-transient: the work
    /// already completed, so there is nothing to retry.
    fn is_transient(&self) -> bool {
        match self {
            // Channel- or timing-induced: a fresh attempt can succeed.
            ProtocolError::StaleTimestamp
            | ProtocolError::StaleCrl
            | ProtocolError::StaleUrl
            | ProtocolError::UnknownBeacon
            | ProtocolError::PuzzleRequired
            | ProtocolError::PuzzleInvalid
            | ProtocolError::DecryptFailed
            | ProtocolError::SessionMismatch
            | ProtocolError::HandshakeTimeout
            | ProtocolError::UrlDeltaChain
            | ProtocolError::Wire(_) => true,
            // Identity/credential failures: retrying the same exchange is
            // pointless (and feeds the flood detector).
            ProtocolError::CertificateInvalid
            | ProtocolError::CertificateRevoked
            | ProtocolError::BadRouterSignature
            | ProtocolError::BadCrlSignature
            | ProtocolError::BadUrlSignature
            | ProtocolError::BadGroupSignature
            | ProtocolError::SignerRevoked
            | ProtocolError::Setup(_)
            | ProtocolError::MissingCredential
            | ProtocolError::DuplicateMessage
            | ProtocolError::RetriesExhausted => false,
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::StaleTimestamp => write!(f, "timestamp outside acceptance window"),
            ProtocolError::CertificateInvalid => write!(f, "router certificate invalid"),
            ProtocolError::CertificateRevoked => write!(f, "router certificate revoked"),
            ProtocolError::StaleCrl => write!(f, "certificate revocation list too old"),
            ProtocolError::StaleUrl => write!(f, "user revocation list too old"),
            ProtocolError::BadRouterSignature => write!(f, "beacon signature invalid"),
            ProtocolError::BadCrlSignature => write!(f, "CRL signature invalid"),
            ProtocolError::BadUrlSignature => write!(f, "URL signature invalid"),
            ProtocolError::UnknownBeacon => write!(f, "access request references unknown beacon"),
            ProtocolError::BadGroupSignature => write!(f, "group signature invalid"),
            ProtocolError::SignerRevoked => write!(f, "group private key has been revoked"),
            ProtocolError::PuzzleRequired => write!(f, "client puzzle solution required"),
            ProtocolError::PuzzleInvalid => write!(f, "client puzzle solution invalid"),
            ProtocolError::DecryptFailed => write!(f, "confirmation failed to decrypt"),
            ProtocolError::SessionMismatch => write!(f, "confirmation does not match session"),
            ProtocolError::HandshakeTimeout => write!(f, "handshake response too slow"),
            ProtocolError::Setup(what) => write!(f, "setup failure: {what}"),
            ProtocolError::Wire(e) => write!(f, "malformed message: {e}"),
            ProtocolError::MissingCredential => write!(f, "required credential not held"),
            ProtocolError::UrlDeltaChain => {
                write!(f, "URL delta does not chain onto local list state")
            }
            ProtocolError::DuplicateMessage => write!(f, "duplicate handshake message"),
            ProtocolError::RetriesExhausted => write!(f, "handshake retry budget exhausted"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<WireError> for ProtocolError {
    fn from(e: WireError) -> Self {
        ProtocolError::Wire(e)
    }
}

/// Result alias for protocol operations.
pub type Result<T> = core::result::Result<T, ProtocolError>;
