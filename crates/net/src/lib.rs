//! peace-net: the socket-based node runtime for PEACE.
//!
//! Everything below `peace-protocol` is pure state machines driven by
//! explicit `now` timestamps; this crate is the missing transport shell
//! that runs them over real TCP:
//!
//! * **framing** — 4-byte length-prefixed frames with a hard size bound
//!   ([`frame`]), carrying versioned [`NodeMessage`] envelopes encoded
//!   with the `peace-wire` codec ([`envelope`]);
//! * **connections** — the blocking client connection with read/write
//!   deadlines and per-connection statistics ([`conn`]);
//! * **daemons** — the three node roles ([`daemon`]): the NO bulletin
//!   server and the mesh-router daemon (M.1 → M.2/M.3 plus AEAD echo),
//!   both served by one sharded `epoll` event loop with bounded reply
//!   queues, and the user agent (bulletin polling with freshness
//!   enforcement, retrying handshakes);
//! * **fault injection** — a TCP fault proxy ([`proxy`]) adapting the
//!   simulator's [`FaultPlan`](peace_protocol::FaultPlan) to live
//!   streams, so the chaos suite's adversarial-channel claims are
//!   re-validated against real sockets;
//! * **observability** — lock-free counters with JSON snapshots
//!   ([`metrics`]).
//!
//! The runtime never panics on wire input: malformed, truncated,
//! oversized, or mid-handshake-severed streams all surface as
//! [`NetError`] values, and handler panics (a bug, if one existed) are
//! caught and counted rather than unwound across a daemon.
//!
//! Linux only: readiness is `epoll`, declared by hand in the one module
//! of the workspace that contains `unsafe`.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

#[cfg(not(target_os = "linux"))]
compile_error!("peace-net serves connections through Linux epoll; no other platform is supported");

pub mod clock;
pub mod conn;
pub mod daemon;
pub mod envelope;
pub mod error;
pub mod frame;
pub mod metrics;
mod poller;
pub mod proxy;
pub(crate) mod reactor;
pub(crate) mod session;
pub mod world;

pub use conn::{ConnConfig, Connection};
pub use daemon::{DaemonConfig, NoDaemon, PeerKeyResolver, RouterDaemon, UserAgent, UserSession};
pub use envelope::{reject_code, Bulletin, NodeMessage};
pub use error::{NetError, Result};
pub use frame::{read_frame, write_frame, FrameDecoder, DEFAULT_MAX_FRAME, FRAME_HEADER_LEN};
pub use metrics::{ConnStats, MetricsSnapshot, NetMetrics};
pub use peace_protocol::Transient;
pub use proxy::{FaultProxy, ProxyConfig};
pub use world::{build_world, build_world_with, BuiltWorld, WorldSpec};
