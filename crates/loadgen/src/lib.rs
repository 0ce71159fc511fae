//! peace-loadgen: the measurement harness behind every scaling claim in
//! the workspace.
//!
//! Two halves, one report:
//!
//! * **City-scale simulation** ([`peace_sim::city`]) — a sharded,
//!   deterministic cost model of a metropolitan deployment (10⁵–10⁶
//!   users) with scripted scenarios (flash crowds, mass revocation,
//!   epoch rollovers, partitions). This half answers *"what load shape
//!   does the city produce?"* without touching a socket.
//! * **Open-loop TCP load generation** ([`openloop`]) — real
//!   [`UserAgent`](peace_net::UserAgent)s driving real `peace-noded`
//!   daemons over loopback (or any address) at a configured arrival
//!   rate from a seeded schedule ([`schedule`]). This half answers
//!   *"what does the implementation actually sustain?"*
//!
//! **Open-loop, not closed-loop.** A closed-loop driver (N workers, each
//! issuing its next request when the previous one completes) lets the
//! system under test set the pace: when the daemon slows down, offered
//! load politely drops and latency looks flat. An open-loop driver fixes
//! the *arrival schedule up front* — arrivals keep their scheduled
//! timestamps whether or not earlier sessions finished, and latency is
//! measured **from the scheduled arrival**, so backlog shows up where it
//! belongs: in p99. The schedule is seeded and byte-deterministic, so
//! two runs offer the identical arrival sequence.
//!
//! Results render as one `peace-bench-v1` artifact (`BENCH_load.json`,
//! [`report`]); a gating run judges itself ([`LoadOutcome::check`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod openloop;
pub mod report;
pub mod schedule;

pub use openloop::{
    ramp_search, run_open_loop, Latencies, LoadConfig, LoadOutcome, RampConfig, RampOutcome,
    RampProbe,
};
pub use report::{append_ramp, build_report, RampRunSummary, SimRunSummary, TcpRunSummary};
pub use schedule::{build_schedule, ArrivalProcess};
