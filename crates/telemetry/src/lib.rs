//! peace-telemetry: the one observability layer of the PEACE workspace.
//!
//! Every other crate used to improvise its own instrumentation — global
//! statics in `peace-pairing`, a struct of atomics in `peace-net`,
//! stringly-keyed maps in `peace-sim`, and a bespoke JSON emitter in every
//! benchmark example. This crate replaces all of them with one
//! dependency-free substrate:
//!
//! * [`Counter`] — a named, lock-free, monotone `u64` counter;
//! * [`Histogram`] — a fixed-bucket, log-scale (powers of two) value
//!   histogram with exact `count`/`sum`/`min`/`max`, cheap enough for hot
//!   paths (one atomic add per field, no locks);
//! * [`Timer`] — an RAII guard that records elapsed microseconds into a
//!   histogram on drop (scoped timing with early-return safety);
//! * [`EventRing`] — a bounded ring of recent structured events for
//!   post-mortem analysis of handshake or ledger failures;
//! * [`Registry`] — a get-or-create namespace of counters and histograms
//!   plus one event ring. Each subsystem can own a private registry (the
//!   net daemons do, one per daemon) or share the process-wide
//!   [`global()`] registry (the crypto op counters and ledger timings do);
//! * [`Snapshot`] — a point-in-time copy exportable as deterministic,
//!   schema-versioned JSON (`peace-telemetry-v1`): sorted keys, stable
//!   field set, integers only, byte-identical across runs for identical
//!   inputs. Snapshots merge under a prefix so a node can publish global +
//!   per-daemon metrics as one document;
//! * [`bench::BenchReport`] — the emitter behind `BENCH_load.json`
//!   (`peace-bench-v1`).
//!
//! # Quickstart
//!
//! ```
//! use peace_telemetry::{global, Registry, Timer};
//!
//! // Process-wide metrics (crypto op counts, ledger timings):
//! global().counter("crypto.pairing").inc();
//!
//! // Subsystem-private metrics:
//! let reg = Registry::new();
//! let hist = reg.histogram("net.handshake_total_us");
//! {
//!     let _t = Timer::new(hist); // records on drop
//! }
//! reg.event("handshake_fail", "bad_group_signature", 1_234);
//!
//! let json = reg.snapshot().to_json(); // deterministic, schema-versioned
//! assert!(json.starts_with("{\"schema\":\"peace-telemetry-v1\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bench;
mod events;
mod hist;
pub mod json;
mod registry;

pub use events::{Event, EventRing, DEFAULT_EVENT_CAPACITY};
pub use hist::{Histogram, HistogramSnapshot, Timer, BUCKETS};
pub use registry::{global, Counter, Registry, Snapshot, SCHEMA};
