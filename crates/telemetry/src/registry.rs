//! The named-metric registry and its deterministic snapshot export.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::events::{Event, EventRing};
use crate::hist::{Histogram, HistogramSnapshot};
use crate::json::ObjectWriter;

/// Snapshot schema identifier. Bump only with a format change:
/// `tests/golden_schema.rs` pins the bytes a snapshot renders to.
pub const SCHEMA: &str = "peace-telemetry-v1";

/// A named, lock-free, monotone counter: it never goes backwards.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A namespace of counters and histograms plus one event ring.
///
/// Handles returned by [`Registry::counter`] / [`Registry::histogram`]
/// are `Arc`s: fetch them once at construction time and increment
/// lock-free afterwards — the registry lock is only taken on
/// get-or-create and on snapshot.
#[derive(Debug)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    events: EventRing,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Registry {
    /// An empty registry with the default event capacity.
    pub fn new() -> Self {
        Self::with_event_capacity(crate::DEFAULT_EVENT_CAPACITY)
    }

    /// An empty registry whose event ring holds `capacity` events.
    pub fn with_event_capacity(capacity: usize) -> Self {
        Self {
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            events: EventRing::new(capacity),
        }
    }

    /// Returns the counter named `name`, creating it at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock_recover(&self.counters);
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// Returns the histogram named `name`, creating it empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = lock_recover(&self.histograms);
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Histogram::default())),
        )
    }

    /// Records one structured event in the ring.
    pub fn event(&self, code: &str, detail: impl Into<String>, at_ms: u64) {
        self.events.record(code, detail, at_ms);
    }

    /// The event ring (for capacity/drop introspection).
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// A point-in-time copy of every metric and the retained events.
    pub fn snapshot(&self) -> Snapshot {
        let counters = lock_recover(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = lock_recover(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot {
            counters,
            histograms,
            events: self.events.snapshot(),
        }
    }
}

/// The process-wide registry. Cross-cutting metrics live here: the
/// crypto op counters (`crypto.*`) and the ledger timings (`ledger.*`).
/// Subsystems with per-instance scope (one registry per net daemon) keep
/// their own and merge snapshots at export time.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A point-in-time copy of a [`Registry`], exportable as deterministic
/// JSON and mergeable under a prefix.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name (sorted by key).
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name (sorted by key).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
}

impl Snapshot {
    /// Folds `other` into `self` under the *same* names: counters add,
    /// histograms merge on the shared bucket grid, events append with
    /// their codes unchanged. This is the merge the sharded event-loop
    /// runtime uses at dump time — every I/O shard owns a private
    /// registry (no cross-shard cache-line sharing on the hot path) and
    /// the daemon presents one combined document.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        self.events.extend(other.events.iter().cloned());
    }

    /// Folds `other` into `self` with every metric name (and event code)
    /// prefixed by `prefix.`. Used by `peace-noded` to publish the global
    /// registry plus every daemon's registry as one document.
    pub fn merge_prefixed(&mut self, other: &Snapshot, prefix: &str) {
        for (k, v) in &other.counters {
            *self.counters.entry(format!("{prefix}.{k}")).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms
                .entry(format!("{prefix}.{k}"))
                .or_default()
                .merge(h);
        }
        for e in &other.events {
            self.events.push(Event {
                seq: e.seq,
                at_ms: e.at_ms,
                code: format!("{prefix}.{}", e.code),
                detail: e.detail.clone(),
            });
        }
    }

    /// Serializes as schema-versioned JSON: `schema`, then `counters`,
    /// `histograms`, `events` — keys sorted within each section, a stable
    /// field set per histogram (`buckets`, `count`, `max`, `min`, `sum`)
    /// and per event (`at_ms`, `code`, `detail`, `seq`), integers only.
    /// Byte-deterministic: two snapshots of identical state render
    /// identically (asserted by the golden-schema test).
    pub fn to_json(&self) -> String {
        let mut counters = ObjectWriter::new();
        for (k, v) in &self.counters {
            counters.uint(k, *v);
        }
        let mut hists = ObjectWriter::new();
        for (k, h) in &self.histograms {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(floor, n)| format!("[{floor},{n}]"))
                .collect();
            let mut hw = ObjectWriter::new();
            hw.raw("buckets", &format!("[{}]", buckets.join(",")))
                .uint("count", h.count)
                .uint("max", h.max)
                .uint("min", h.min)
                .uint("sum", h.sum);
            hists.raw(k, &hw.finish());
        }
        let events: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                let mut ew = ObjectWriter::new();
                ew.uint("at_ms", e.at_ms)
                    .string("code", &e.code)
                    .string("detail", &e.detail)
                    .uint("seq", e.seq);
                ew.finish()
            })
            .collect();
        let mut top = ObjectWriter::new();
        top.string("schema", SCHEMA)
            .raw("counters", &counters.finish())
            .raw("histograms", &hists.finish())
            .raw("events", &format!("[{}]", events.join(",")));
        top.finish()
    }

    /// Writes the snapshot atomically: render, write to `<path>.tmp`,
    /// fsync, rename over `path`. A reader never observes a torn dump.
    pub fn write_atomic(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_json().as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_handle() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_shape_and_determinism() {
        let reg = Registry::new();
        reg.counter("b.two").add(2);
        reg.counter("a.one").inc();
        reg.histogram("lat_us").record(100);
        reg.event("fail", "why", 42);
        let s1 = reg.snapshot();
        let s2 = reg.snapshot();
        assert_eq!(s1, s2);
        assert_eq!(s1.to_json(), s2.to_json());
        let j = s1.to_json();
        // keys sorted: a.one before b.two
        assert!(j.find("a.one").unwrap() < j.find("b.two").unwrap());
        assert!(j.starts_with("{\"schema\":\"peace-telemetry-v1\""));
    }

    #[test]
    fn merge_prefixed_namespaces() {
        let a = Registry::new();
        a.counter("frames").add(5);
        a.histogram("rtt_us").record(10);
        a.event("oops", "", 1);
        let mut top = global_like();
        top.merge_prefixed(&a.snapshot(), "router-0");
        assert_eq!(top.counters["router-0.frames"], 5);
        assert!(top.histograms.contains_key("router-0.rtt_us"));
        assert_eq!(top.events[0].code, "router-0.oops");
    }

    #[test]
    fn merge_adds_in_place() {
        let a = Registry::new();
        a.counter("frames").add(5);
        a.histogram("rtt_us").record(10);
        a.event("oops", "x", 1);
        let b = Registry::new();
        b.counter("frames").add(3);
        b.counter("drops").add(1);
        b.histogram("rtt_us").record(30);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counters["frames"], 8);
        assert_eq!(m.counters["drops"], 1);
        assert_eq!(m.histograms["rtt_us"].count, 2);
        assert_eq!(m.events.len(), 1);
        assert_eq!(m.events[0].code, "oops");
    }

    fn global_like() -> Snapshot {
        let g = Registry::new();
        g.counter("crypto.pairing").add(7);
        g.snapshot()
    }

    #[test]
    fn write_atomic_roundtrip() {
        let dir = std::env::temp_dir().join("peace-telemetry-test-atomic");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("snap.json");
        let reg = Registry::new();
        reg.counter("k").inc();
        let snap = reg.snapshot();
        snap.write_atomic(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read.trim_end(), snap.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
