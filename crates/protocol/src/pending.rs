//! Bounded pending-handshake state tables.
//!
//! Every half-open handshake pins DH state at one endpoint until the
//! closing message arrives — an attacker who floods M.1/M.2/M̃.1 can
//! otherwise grow that state without bound (the state-exhaustion DoS of
//! §V.A). [`PendingTable`] caps it three ways:
//!
//! * **capacity** — inserting past the cap evicts the least-recently-used
//!   entry (the flood victim sheds its *oldest* half-open exchange, which
//!   is also the least likely to still complete);
//! * **TTL expiry** — entries older than the configured lifetime are
//!   dropped on every insert/expire sweep, so an idle table drains to
//!   empty;
//! * **observability** — high-water mark, eviction, and expiration
//!   counters let a simulation (or an operator) assert the bound held.

use std::collections::HashMap;

struct Slot<V> {
    value: V,
    inserted_at: u64,
    lru: u64,
}

/// A bounded map from wire-encoded keys to pending handshake state, with
/// LRU eviction at capacity and timestamp-based expiry.
pub struct PendingTable<V> {
    map: HashMap<Vec<u8>, Slot<V>>,
    capacity: usize,
    ttl: u64,
    clock: u64,
    high_water: usize,
    evictions: u64,
    expirations: u64,
}

impl<V> PendingTable<V> {
    /// Creates a table holding at most `capacity` entries (clamped to ≥ 1),
    /// each expiring `ttl` time units after insertion.
    pub fn new(capacity: usize, ttl: u64) -> Self {
        Self {
            map: HashMap::new(),
            capacity: capacity.max(1),
            ttl,
            clock: 0,
            high_water: 0,
            evictions: 0,
            expirations: 0,
        }
    }

    /// Inserts (or replaces) an entry, expiring stale entries first and
    /// evicting the least-recently-used one if the table is full. Returns
    /// the evicted entry, if any.
    pub fn insert(&mut self, key: Vec<u8>, value: V, now: u64) -> Option<(Vec<u8>, V)> {
        self.expire(now);
        let mut evicted = None;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            // Evict the least-recently-touched entry.
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, s)| s.lru)
                .map(|(k, _)| k.clone())
            {
                evicted = self.map.remove_entry(&victim).map(|(k, s)| (k, s.value));
                self.evictions += 1;
            }
        }
        self.clock += 1;
        self.map.insert(
            key,
            Slot {
                value,
                inserted_at: now,
                lru: self.clock,
            },
        );
        self.high_water = self.high_water.max(self.map.len());
        evicted
    }

    /// Looks up an entry without touching its LRU position.
    pub fn get(&self, key: &[u8]) -> Option<&V> {
        self.map.get(key).map(|s| &s.value)
    }

    /// Whether the key is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.map.contains_key(key)
    }

    /// Removes and returns an entry.
    pub fn remove(&mut self, key: &[u8]) -> Option<V> {
        self.map.remove(key).map(|s| s.value)
    }

    /// Drops every entry older than the TTL.
    pub fn expire(&mut self, now: u64) {
        let ttl = self.ttl;
        let before = self.map.len();
        self.map
            .retain(|_, s| now.saturating_sub(s.inserted_at) <= ttl);
        self.expirations += (before - self.map.len()) as u64;
    }

    /// Removes all entries (epoch change).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The maximum number of simultaneous entries ever held.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Entries evicted to make room (LRU pressure).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Entries dropped by TTL expiry.
    pub fn expirations(&self) -> u64 {
        self.expirations
    }
}

impl<V> std::fmt::Debug for PendingTable<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingTable")
            .field("len", &self.map.len())
            .field("capacity", &self.capacity)
            .field("ttl", &self.ttl)
            .field("high_water", &self.high_water)
            .field("evictions", &self.evictions)
            .field("expirations", &self.expirations)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_bound_enforced_by_lru_eviction() {
        let mut t = PendingTable::new(3, 1_000);
        for i in 0u8..10 {
            let evicted = t.insert(vec![i], i, u64::from(i));
            assert_eq!(evicted, i.checked_sub(3).map(|v| (vec![v], v)));
            assert!(t.len() <= 3);
        }
        assert_eq!(t.high_water(), 3);
        assert_eq!(t.evictions(), 7);
        // Newest entries survive.
        assert!(t.contains(&[9]));
        assert!(t.contains(&[8]));
        assert!(t.contains(&[7]));
        assert!(!t.contains(&[0]));
    }

    #[test]
    fn ttl_expiry_drains_idle_entries() {
        let mut t = PendingTable::new(8, 100);
        t.insert(b"a".to_vec(), 1u32, 0);
        t.insert(b"b".to_vec(), 2u32, 50);
        t.expire(120);
        assert!(!t.contains(b"a"));
        assert!(t.contains(b"b"));
        assert_eq!(t.expirations(), 1);
        t.expire(200);
        assert!(t.is_empty());
    }

    #[test]
    fn insert_expires_before_evicting() {
        let mut t = PendingTable::new(2, 10);
        t.insert(b"old".to_vec(), 0u32, 0);
        t.insert(b"live".to_vec(), 1u32, 100);
        // "old" is long expired: inserting must drop it, not evict "live".
        t.insert(b"new".to_vec(), 2u32, 101);
        assert!(t.contains(b"live"));
        assert!(t.contains(b"new"));
        assert_eq!(t.evictions(), 0);
    }

    #[test]
    fn remove_and_reinsert() {
        let mut t = PendingTable::new(2, 1_000);
        t.insert(b"k".to_vec(), 7u32, 0);
        assert_eq!(t.remove(b"k"), Some(7));
        assert_eq!(t.remove(b"k"), None);
        t.insert(b"k".to_vec(), 8u32, 1);
        assert_eq!(t.get(b"k"), Some(&8));
    }

    #[test]
    fn zero_capacity_clamped() {
        let mut t = PendingTable::<u8>::new(0, 10);
        t.insert(b"x".to_vec(), 1, 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.capacity(), 1);
    }
}
