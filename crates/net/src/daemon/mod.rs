//! The three node roles of the PEACE runtime: the network-operator
//! bulletin daemon, the mesh-router daemon, and the user agent.
//!
//! The two server daemons run on the one event loop of `crate::reactor`
//! and speak [`NodeMessage`](crate::NodeMessage) envelopes over framed
//! TCP; the user agent is a blocking client. All
//! protocol state lives in the `peace-protocol` entities; the daemons are
//! a thin transport shell that maps envelopes onto entity calls and
//! protocol errors onto reject codes.

mod no;
mod router;
mod user;

pub use no::{NoDaemon, PeerKeyResolver};
pub use router::RouterDaemon;
pub use user::{UserAgent, UserSession};

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::conn::ConnConfig;
use crate::error::{NetError, Result};

/// Shared daemon tunables.
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// Per-connection framing/deadline/queue settings.
    pub conn: ConnConfig,
    /// Maximum simultaneously served connections.
    pub max_connections: usize,
    /// Dial deadline for outbound connections.
    pub connect_timeout: Duration,
    /// How long shutdown waits for in-flight handlers.
    pub drain: Duration,
    /// I/O shard threads of the event loop (see `crate::reactor`). `0`
    /// (the default) means one per available processor, as the verify
    /// pool is sized.
    pub shards: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            conn: ConnConfig::default(),
            max_connections: 64,
            connect_timeout: Duration::from_secs(5),
            drain: Duration::from_secs(2),
            shards: 0,
        }
    }
}

/// Locks a mutex, recovering the data on poisoning: daemon state must stay
/// reachable even if a handler panicked mid-update (the panic is already
/// counted by the event loop; the entities keep their own invariants).
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Takes a daemon's state back out of its mutex once the event loop has
/// shut down, recovering it on poisoning as [`lock_recover`] does.
///
/// # Errors
///
/// [`NetError::Unexpected`] with `shared` if another handle still holds it.
pub(crate) fn take_back<T>(m: Arc<Mutex<T>>, shared: &'static str) -> Result<T> {
    Arc::try_unwrap(m)
        .map_err(|_| NetError::Unexpected(shared))
        .map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
}
