//! Bounded per-router sweep cache: `signature key → verdict` at one URL
//! version.
//!
//! A router under load re-verifies the same bytes more often than the URL
//! changes: retransmitted frames and duplicated M.2s from the fault-prone
//! channel. (Fixed-bases mode does not use it: its table lookup costs what
//! deriving a key would.) The cache remembers the revocation verdict each key received
//! *against the current URL version*; any version bump — one more
//! revocation, a lifted one, an epoch rotation — **invalidates the whole
//! cache**, never entry-by-entry (a stale "unrevoked" entry surviving a
//! bump is exactly the revoked-then-reused acceptance bug the regression
//! suite pins).
//!
//! Capacity is enforced with a two-generation rotation (each generation
//! holds at most half the cap; a full young generation demotes the old
//! one): O(1) per operation, strictly bounded memory, recently-used keys
//! survive a rotation.

use std::collections::HashMap;

/// Cache key: a 32-byte digest of whatever identifies the work unit (the
/// engine digests the signed message and the signature encoding).
pub type CacheKey = [u8; 32];

/// A verdict: `None` = unrevoked, `Some(i)` = matched URL token `i`.
pub type Verdict = Option<u32>;

/// The bounded sweep cache (see module docs).
#[derive(Clone, Debug)]
pub struct SweepCache {
    cap: usize,
    version: u64,
    young: HashMap<CacheKey, Verdict>,
    old: HashMap<CacheKey, Verdict>,
}

impl SweepCache {
    /// A cache holding at most `cap` entries (0 disables caching).
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            version: 0,
            young: HashMap::new(),
            old: HashMap::new(),
        }
    }

    /// Declares the URL version verdicts are now computed against. Any
    /// change — forward on a revocation, *or backward* (a full resync
    /// after operator failover) — clears every entry.
    pub fn note_version(&mut self, version: u64) {
        if version != self.version {
            self.version = version;
            self.young.clear();
            self.old.clear();
        }
    }

    /// The version the cache is currently valid against.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Looks up a verdict computed against version `version`; misses when
    /// the cache is pinned to a different version.
    pub fn get(&self, key: &CacheKey, version: u64) -> Option<Verdict> {
        if version != self.version || self.cap == 0 {
            return None;
        }
        self.young.get(key).or_else(|| self.old.get(key)).copied()
    }

    /// Records a verdict computed against version `version` (ignored if
    /// the cache has moved on).
    pub fn insert(&mut self, key: CacheKey, version: u64, verdict: Verdict) {
        if version != self.version || self.cap == 0 {
            return;
        }
        let half = self.cap.div_ceil(2);
        if self.young.len() >= half && !self.young.contains_key(&key) {
            self.old = std::mem::take(&mut self.young);
        }
        self.young.insert(key, verdict);
    }

    /// Drops every entry without moving the version (e.g. the group
    /// public key changed under an unchanged list version).
    pub fn clear(&mut self) {
        self.young.clear();
        self.old.clear();
    }

    /// Live entries across both generations.
    pub fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.young.is_empty() && self.old.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}
