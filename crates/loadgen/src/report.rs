//! Renders sim and TCP results as the `BENCH_load.json` artifact.

use peace_sim::{CityConfig, CityReport};
use peace_telemetry::bench::BenchReport;
use peace_telemetry::Snapshot;

use crate::openloop::{LoadConfig, LoadOutcome, RampConfig, RampOutcome, RAMP_MIN_SUCCESS};

/// A completed city-simulation run plus its wall-clock cost.
#[derive(Debug)]
pub struct SimRunSummary<'a> {
    /// The scenario configuration that ran.
    pub cfg: &'a CityConfig,
    /// Its report.
    pub report: &'a CityReport,
    /// Wall time the run took (measured by the caller — the sim itself
    /// is deterministic and clock-free).
    pub elapsed_ms: u64,
}

/// A completed open-loop TCP run.
#[derive(Debug)]
pub struct TcpRunSummary<'a> {
    /// The load configuration that ran.
    pub cfg: &'a LoadConfig,
    /// Its outcome.
    pub outcome: &'a LoadOutcome,
    /// Worker (agent) count.
    pub workers: u64,
    /// Target router count.
    pub routers: u64,
}

/// A completed ramp search.
#[derive(Debug)]
pub struct RampRunSummary<'a> {
    /// The search configuration.
    pub cfg: &'a RampConfig,
    /// What the search concluded.
    pub outcome: &'a RampOutcome,
    /// Worker (agent) count.
    pub workers: u64,
    /// I/O shard threads the target daemons ran with (0 = one per
    /// available processor).
    pub shards: u64,
}

/// Appends the ramp-search results to a bench report: the headline
/// `ramp_max_rate_per_sec`, the SLO it was measured against, and every
/// probe as a JSON array so a regression is diagnosable from the
/// artifact alone.
pub fn append_ramp(r: &mut BenchReport, ramp: &RampRunSummary<'_>) {
    let o = ramp.outcome;
    r.uint("ramp_workers", ramp.workers)
        .uint("ramp_shards", ramp.shards)
        .uint("ramp_slo_p99_us", ramp.cfg.slo_p99_us)
        .float("ramp_min_success", RAMP_MIN_SUCCESS, 3)
        .float("ramp_floor_rate_per_sec", ramp.cfg.min_rate, 1)
        .float("ramp_ceiling_rate_per_sec", ramp.cfg.max_rate, 1)
        .uint("ramp_probe_count", o.probes.len() as u64)
        .float("ramp_max_rate_per_sec", o.max_sustainable_rate, 1);
    if let Some(best) = &o.best {
        r.float(
            "ramp_best_achieved_per_sec",
            per_sec(best.completed, best.elapsed_ms),
            1,
        )
        .uint("ramp_best_session_p99_us", best.session_us.percentile(0.99))
        .uint("ramp_best_hs_p99_us", best.hs_total_us.percentile(0.99));
    }
    let probes: Vec<String> = o
        .probes
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "{{\"rate_per_sec\":{:.1},\"passed\":{},\"offered\":{},",
                    "\"completed\":{},\"failed\":{},\"session_p99_us\":{},",
                    "\"achieved_per_sec\":{:.1}}}"
                ),
                p.rate_per_sec,
                p.passed,
                p.offered,
                p.completed,
                p.failed,
                p.session_p99_us,
                p.achieved_per_sec,
            )
        })
        .collect();
    r.json("ramp_probes", &format!("[{}]", probes.join(",")));
}

/// Builds the `loadgen` bench report from whichever halves ran.
///
/// Field narrative: simulation first (what load the city produces), then
/// the TCP half (what the implementation sustained), each ending with an
/// embedded `peace-telemetry-v1` snapshot.
pub fn build_report(sim: Option<SimRunSummary<'_>>, tcp: Option<TcpRunSummary<'_>>) -> BenchReport {
    let mut r = BenchReport::new("loadgen");
    if let Some(s) = sim {
        let t = &s.report.totals;
        r.uint("sim_users", u64::from(t.users))
            .uint("sim_routers", u64::from(t.routers))
            .uint("sim_shards", s.cfg.shards as u64)
            .uint("sim_epochs", t.epochs)
            .text("sim_scenario", &format!("{:?}", s.cfg.scenario))
            .text("sim_digest", &format!("{:016x}", s.report.digest))
            .uint("sim_auth_attempts", t.auth_attempts)
            .uint("sim_auth_accepted", t.auth_accepted)
            .uint("sim_auth_dropped", t.auth_dropped)
            .uint("sim_auth_rejected_revoked", t.auth_rejected_revoked)
            .uint("sim_roams", t.roams)
            .uint("sim_disconnected", t.disconnected)
            .uint("sim_url_len", t.url_len)
            .uint("sim_auth_p50_us", t.latency.percentile(0.50))
            .uint("sim_auth_p95_us", t.latency.percentile(0.95))
            .uint("sim_auth_p99_us", t.latency.percentile(0.99))
            .uint("sim_elapsed_ms", s.elapsed_ms)
            .uint(
                "sim_user_epochs_per_sec",
                rate(u64::from(t.users) * t.epochs, s.elapsed_ms),
            );
        let mut merged = Snapshot::default();
        for (name, snap) in &s.report.phases {
            merged.merge_prefixed(snap, name);
        }
        r.json("sim_telemetry", &merged.to_json());
    }
    if let Some(t) = tcp {
        let o = t.outcome;
        r.uint("tcp_workers", t.workers)
            .uint("tcp_routers", t.routers)
            .float("tcp_rate_per_sec", t.cfg.rate_per_sec, 1)
            .uint("tcp_offered", o.offered)
            .uint("tcp_sessions", o.completed)
            .uint("tcp_failed", o.failed)
            .uint("tcp_conn_rejected", o.conn_rejected)
            .uint("tcp_echoes", o.echoes)
            .uint("tcp_peak_concurrent", o.peak_concurrent)
            .uint("tcp_held_live", o.held_live)
            .uint("tcp_elapsed_ms", o.elapsed_ms)
            .float(
                "tcp_handshakes_per_sec",
                per_sec(o.completed, o.elapsed_ms),
                1,
            )
            .float(
                // Authenticated operations per second: granted accesses
                // plus AEAD echoes on the established sessions.
                "tcp_access_per_sec",
                per_sec(o.completed + o.echoes, o.elapsed_ms),
                1,
            )
            .uint("tcp_hs_p50_us", o.hs_total_us.percentile(0.50))
            .uint("tcp_hs_p95_us", o.hs_total_us.percentile(0.95))
            .uint("tcp_hs_p99_us", o.hs_total_us.percentile(0.99))
            .uint("tcp_session_p50_us", o.session_us.percentile(0.50))
            .uint("tcp_session_p95_us", o.session_us.percentile(0.95))
            .uint("tcp_session_p99_us", o.session_us.percentile(0.99));
        r.json("tcp_telemetry", &o.telemetry.to_json());
    }
    r
}

fn per_sec(n: u64, elapsed_ms: u64) -> f64 {
    if elapsed_ms == 0 {
        0.0
    } else {
        n as f64 * 1_000.0 / elapsed_ms as f64
    }
}

fn rate(n: u64, elapsed_ms: u64) -> u64 {
    n.saturating_mul(1_000).checked_div(elapsed_ms).unwrap_or(0)
}
