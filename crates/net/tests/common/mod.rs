//! What several integration tests share: a NO needs a ledger to run on.

use std::path::Path;

use peace_ledger::{Ledger, LedgerConfig, ReplicatedLedger};

/// An empty single-writer NO ledger in the directory `name` under the
/// tests' scratch directory (emptied first).
pub fn fresh_ledger(name: &str) -> ReplicatedLedger {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    ReplicatedLedger::from_single(Ledger::open(dir, LedgerConfig::default()).unwrap().0, "NO")
}
