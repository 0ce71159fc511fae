//! The open-loop TCP driver: seeded arrival schedule in, latency
//! distributions out.
//!
//! Arrivals are timestamped by [`build_schedule`] before the run starts.
//! Worker threads (each owning one enrolled [`UserAgent`]) drain the
//! arrival queue; a worker sleeps until an arrival's scheduled instant,
//! then runs the full anonymous-access handshake against the target
//! router via [`UserAgent::connect_with_retry`] — transient refusals
//! (connection caps, accept-queue overflow, timeouts) back off and
//! retry; terminal refusals (revocation) fail the session. Crucially the
//! *schedule never moves*: if the system under test falls behind, later
//! arrivals are served late and the lateness is measured, not forgiven —
//! `session_us` latency counts from the **scheduled** arrival instant,
//! so queueing delay lands in p99 where an operator would see it.
//!
//! Every session's latency is kept ([`Latencies`]): the percentiles a
//! run reports, and the p99 a ramp probe is judged on, are observed
//! values, not reconstructions from the telemetry histograms' 2×-wide
//! buckets.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use peace_net::{UserAgent, UserSession};
use peace_protocol::RetryPolicy;
use peace_telemetry::Snapshot;

use crate::schedule::{build_schedule, ArrivalProcess};

/// Configuration for one open-loop run.
#[derive(Clone, Copy, Debug)]
pub struct LoadConfig {
    /// Offered arrival rate (sessions per second).
    pub rate_per_sec: f64,
    /// Schedule length in wall milliseconds.
    pub duration_ms: u64,
    /// Inter-arrival process.
    pub process: ArrivalProcess,
    /// Schedule seed (worker jitter derives from it too).
    pub seed: u64,
    /// AEAD echo round-trips per established session.
    pub echo_per_session: u32,
    /// Keep established sessions open until the schedule drains (drives
    /// peak *concurrent* session count instead of session churn).
    pub hold_sessions: bool,
    /// Backoff policy for transient handshake failures.
    pub retry: RetryPolicy,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            rate_per_sec: 50.0,
            duration_ms: 4_000,
            process: ArrivalProcess::Poisson,
            seed: 0x10AD_5EED,
            echo_per_session: 1,
            hold_sessions: false,
            retry: RetryPolicy {
                base_delay: 100,
                max_delay: 1_500,
                max_attempts: 6,
            },
        }
    }
}

/// The latencies a run observed, one per session, ascending.
#[derive(Clone, Debug, Default)]
pub struct Latencies(Vec<u64>);

impl Latencies {
    /// Takes the samples in any order.
    pub fn new(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Self(samples)
    }

    /// How many sessions were timed.
    pub fn count(&self) -> u64 {
        self.0.len() as u64
    }

    /// The nearest-rank `q`-quantile (`q` in `[0, 1]`): the smallest
    /// sample with at least `q · count` samples at or below it, so always
    /// a latency some session actually saw. Zero when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let n = self.0.len();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        self.0[rank - 1]
    }
}

/// What one open-loop run measured.
#[derive(Clone, Debug, Default)]
pub struct LoadOutcome {
    /// Arrivals in the schedule.
    pub offered: u64,
    /// Sessions fully established (handshake completed).
    pub completed: u64,
    /// Sessions that exhausted retries or hit a terminal refusal.
    pub failed: u64,
    /// Client-observed connection-cap rejections (`net.conn_rejected`,
    /// summed over workers — each one was retried, not failed).
    pub conn_rejected: u64,
    /// Successful AEAD echo round-trips.
    pub echoes: u64,
    /// Sessions open at once when the schedule had drained: with
    /// `hold_sessions` every established session, otherwise zero.
    pub peak_concurrent: u64,
    /// Of those, how many still answered an echo at that point — a held
    /// session the daemon evicted or dropped is missing here.
    pub held_live: u64,
    /// Wall time from first arrival to last completion (ms).
    pub elapsed_ms: u64,
    /// First dial → session key, per session: the handshake, plus the
    /// refused attempts and backoff before it when there were any.
    pub hs_total_us: Latencies,
    /// Scheduled-arrival → session-established latency: includes queue
    /// wait and retries, the open-loop headline number.
    pub session_us: Latencies,
    /// Merged worker telemetry (counters + histograms; events dropped).
    pub telemetry: Snapshot,
}

impl LoadOutcome {
    /// What a gating run (`smoke`, `full`, `tcp`) requires of itself:
    /// arrivals were offered, every one became a session, and every held
    /// session was still live at the end.
    ///
    /// # Errors
    ///
    /// The first requirement the run missed, as a message.
    pub fn check(&self) -> Result<(), String> {
        if self.offered == 0 {
            return Err("the schedule offered no arrival".into());
        }
        if self.failed > 0 || self.completed < self.offered {
            return Err(format!(
                "{} of {} arrivals completed, {} failed",
                self.completed, self.offered, self.failed
            ));
        }
        if self.held_live < self.peak_concurrent {
            return Err(format!(
                "{} of {} held sessions were still live",
                self.held_live, self.peak_concurrent
            ));
        }
        Ok(())
    }
}

/// Fraction of offered arrivals that must complete for a ramp probe to
/// pass (terminal failures and exhausted retries count against it).
pub const RAMP_MIN_SUCCESS: f64 = 0.99;

/// Configuration for a ramp search: find the highest offered rate the
/// target sustains while honoring a p99 latency SLO.
#[derive(Clone, Copy, Debug)]
pub struct RampConfig {
    /// Per-probe load shape (duration, process, echo count, retries).
    /// `rate_per_sec` inside is ignored — the search chooses each rate.
    pub base: LoadConfig,
    /// Scheduled-arrival → session-established p99 budget (µs). A probe
    /// whose `session_us` p99 exceeds this fails.
    pub slo_p99_us: u64,
    /// Search floor (sessions/s). If even this rate fails, the search
    /// reports `max_sustainable_rate = 0`.
    pub min_rate: f64,
    /// Search ceiling (sessions/s).
    pub max_rate: f64,
    /// Binary-search probe budget after the ceiling/floor probes.
    pub probes: u32,
}

impl Default for RampConfig {
    fn default() -> Self {
        Self {
            base: LoadConfig::default(),
            slo_p99_us: 500_000,
            min_rate: 10.0,
            max_rate: 2_000.0,
            probes: 5,
        }
    }
}

impl RampConfig {
    /// Whether a probe's outcome meets the SLO and the success floor.
    pub fn passed_by(&self, outcome: &LoadOutcome) -> bool {
        let floor = (outcome.offered as f64 * RAMP_MIN_SUCCESS).ceil() as u64;
        outcome.session_us.percentile(0.99) <= self.slo_p99_us && outcome.completed >= floor
    }
}

/// One rate probe within a ramp search.
#[derive(Clone, Debug)]
pub struct RampProbe {
    /// Offered rate this probe ran at (sessions/s).
    pub rate_per_sec: f64,
    /// Whether the probe met the SLO and the success floor.
    pub passed: bool,
    /// Arrivals in the probe's schedule.
    pub offered: u64,
    /// Sessions established.
    pub completed: u64,
    /// Sessions lost to terminal refusals or exhausted retries.
    pub failed: u64,
    /// Scheduled-arrival → established p99 (µs) the probe observed.
    pub session_p99_us: u64,
    /// Achieved handshake completion rate (sessions/s of wall time).
    pub achieved_per_sec: f64,
}

/// What a ramp search concluded.
#[derive(Clone, Debug)]
pub struct RampOutcome {
    /// Every probe, in execution order.
    pub probes: Vec<RampProbe>,
    /// Highest probed rate that met the SLO (0 when even the floor
    /// failed).
    pub max_sustainable_rate: f64,
    /// The full outcome of the best passing probe.
    pub best: Option<LoadOutcome>,
}

/// Binary-searches the highest sustainable offered rate under an SLO.
///
/// Probes the ceiling first (if the target absorbs `max_rate`, there is
/// nothing to search), then the floor, then bisects: a passing rate
/// moves the floor up, a failing one pulls the ceiling down. Each probe
/// is a fresh [`run_open_loop`] pass with a distinct schedule seed, so
/// probes are independent measurements, not replays. The agents thread
/// through every probe (enrollment amortized once).
///
/// # Panics
///
/// `agents` and `routers` must be non-empty (see [`run_open_loop`]).
pub fn ramp_search(
    agents: Vec<UserAgent>,
    routers: &[SocketAddr],
    cfg: &RampConfig,
) -> (RampOutcome, Vec<UserAgent>) {
    let mut probes = Vec::new();
    let mut best: Option<(f64, LoadOutcome)> = None;
    let mut agents = agents;

    let probe = |rate: f64,
                 agents: Vec<UserAgent>,
                 probes: &mut Vec<RampProbe>,
                 best: &mut Option<(f64, LoadOutcome)>|
     -> (bool, Vec<UserAgent>) {
        let run_cfg = LoadConfig {
            rate_per_sec: rate,
            seed: cfg
                .base
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(probes.len() as u64 + 1)),
            ..cfg.base
        };
        let (outcome, back) = run_open_loop(agents, routers, &run_cfg);
        let passed = cfg.passed_by(&outcome);
        probes.push(RampProbe {
            rate_per_sec: rate,
            passed,
            offered: outcome.offered,
            completed: outcome.completed,
            failed: outcome.failed,
            session_p99_us: outcome.session_us.percentile(0.99),
            achieved_per_sec: if outcome.elapsed_ms == 0 {
                0.0
            } else {
                outcome.completed as f64 * 1_000.0 / outcome.elapsed_ms as f64
            },
        });
        if passed && best.as_ref().is_none_or(|(r, _)| rate > *r) {
            *best = Some((rate, outcome));
        }
        (passed, back)
    };

    // Ceiling first: if the target absorbs max_rate, search over.
    let (ceiling_ok, back) = probe(cfg.max_rate, agents, &mut probes, &mut best);
    agents = back;
    if !ceiling_ok {
        // Floor next: if even min_rate fails, report zero.
        let (floor_ok, back) = probe(cfg.min_rate, agents, &mut probes, &mut best);
        agents = back;
        if floor_ok {
            let (mut lo, mut hi) = (cfg.min_rate, cfg.max_rate);
            for _ in 0..cfg.probes {
                let mid = (lo + hi) / 2.0;
                if hi - lo < 1.0 {
                    break;
                }
                let (ok, back) = probe(mid, agents, &mut probes, &mut best);
                agents = back;
                if ok {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
        }
    }

    let (max_sustainable_rate, best) = match best {
        Some((r, o)) => (r, Some(o)),
        None => (0.0, None),
    };
    (
        RampOutcome {
            probes,
            max_sustainable_rate,
            best,
        },
        agents,
    )
}

/// Runs one open-loop load generation pass.
///
/// Each element of `agents` becomes one worker thread; arrivals are
/// assigned round-robin over `routers` by schedule index. Returns the
/// outcome plus the agents (still enrolled, reusable for another pass).
///
/// # Panics
///
/// `agents` and `routers` must be non-empty.
pub fn run_open_loop(
    agents: Vec<UserAgent>,
    routers: &[SocketAddr],
    cfg: &LoadConfig,
) -> (LoadOutcome, Vec<UserAgent>) {
    assert!(!agents.is_empty(), "need at least one worker agent");
    assert!(!routers.is_empty(), "need at least one target router");
    let schedule = build_schedule(cfg.process, cfg.rate_per_sec, cfg.duration_ms, cfg.seed);
    let offered = schedule.len() as u64;
    let queue: Mutex<VecDeque<(u64, u64)>> = Mutex::new(
        schedule
            .into_iter()
            .enumerate()
            .map(|(i, at)| (i as u64, at))
            .collect(),
    );
    let failed = AtomicU64::new(0);
    let echoes = AtomicU64::new(0);
    let start = Instant::now();

    // Per worker: its agent, the sessions it holds, and a (first dial →
    // established, scheduled → established) pair per session.
    type Worked = (UserAgent, Vec<UserSession>, Vec<(u64, u64)>);
    let worked: Vec<Worked> = std::thread::scope(|s| {
        let handles: Vec<_> = agents
            .into_iter()
            .map(|mut agent| {
                let queue = &queue;
                let failed = &failed;
                let echoes = &echoes;
                s.spawn(move || {
                    let mut held: Vec<UserSession> = Vec::new();
                    let mut latencies: Vec<(u64, u64)> = Vec::new();
                    loop {
                        let next = {
                            #[allow(clippy::unwrap_used)]
                            let mut q = queue.lock().unwrap();
                            q.pop_front()
                        };
                        let Some((idx, at_us)) = next else { break };
                        let target = Duration::from_micros(at_us);
                        let now = start.elapsed();
                        if now < target {
                            std::thread::sleep(target - now);
                        }
                        let dialed = start.elapsed();
                        let addr = routers[idx as usize % routers.len()];
                        match agent.connect_with_retry(addr, &cfg.retry) {
                            Ok(mut sess) => {
                                let established = start.elapsed();
                                let us = |since: Duration| {
                                    established
                                        .saturating_sub(since)
                                        .as_micros()
                                        .min(u128::from(u64::MAX))
                                        as u64
                                };
                                latencies.push((us(dialed), us(target)));
                                for round in 0..cfg.echo_per_session {
                                    let payload = format!("load-{idx}-{round}");
                                    if sess.echo(payload.as_bytes()).is_ok() {
                                        echoes.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                if cfg.hold_sessions {
                                    held.push(sess);
                                } else {
                                    sess.close();
                                }
                            }
                            Err(_) => {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    (agent, held, latencies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(worked) => worked,
                Err(p) => std::panic::resume_unwind(p),
            })
            .collect()
    });
    let elapsed_ms = start.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;

    let mut agents_back = Vec::with_capacity(worked.len());
    let mut held_by_worker = Vec::with_capacity(worked.len());
    let mut latencies = Vec::new();
    for (agent, held, timed) in worked {
        agents_back.push(agent);
        held_by_worker.push(held);
        latencies.extend(timed);
    }
    let (hs_us, session_us): (Vec<u64>, Vec<u64>) = latencies.into_iter().unzip();

    // Every worker is done and nothing has been closed: the held sessions
    // are all open now. One echo on each says whether the daemon still
    // holds its end — a worker's share per thread.
    let peak_concurrent = held_by_worker.iter().map(|h| h.len() as u64).sum();
    let held_live: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = held_by_worker
            .into_iter()
            .filter(|held| !held.is_empty())
            .map(|held| {
                s.spawn(move || {
                    let mut live = 0u64;
                    for mut sess in held {
                        live += u64::from(sess.echo(b"held").is_ok());
                        sess.close();
                    }
                    live
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(live) => live,
                Err(p) => std::panic::resume_unwind(p),
            })
            .sum()
    });

    // Events are dropped: their interleaving is not deterministic across
    // workers.
    let mut telemetry = Snapshot::default();
    for a in &agents_back {
        telemetry.merge(&a.telemetry());
    }
    telemetry.events.clear();
    let conn_rejected = telemetry.counters["net.conn_rejected"];

    (
        LoadOutcome {
            offered,
            completed: session_us.len() as u64,
            failed: failed.load(Ordering::Relaxed),
            conn_rejected,
            echoes: echoes.load(Ordering::Relaxed),
            peak_concurrent,
            held_live,
            elapsed_ms,
            hs_total_us: Latencies::new(hs_us),
            session_us: Latencies::new(session_us),
            telemetry,
        },
        agents_back,
    )
}
