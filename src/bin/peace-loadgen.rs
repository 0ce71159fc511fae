//! City-scale load harness: sharded deterministic simulation plus an
//! open-loop TCP driver against real daemons, reported as
//! `BENCH_load.json` (`peace-bench-v1`).
//!
//! ```text
//! peace-loadgen sim  [--users N] [--shards S] [--seed X] [--scenario NAME] [--end-ms T]
//! peace-loadgen tcp  [--rate R] [--duration-ms T] [--workers W] [--routers N]
//!                    [--echo E] [--hold] [--uniform] [--seed X] [--io-shards S]
//!                    [--target ADDR]...
//! peace-loadgen ramp [--slo-p99-ms B] [--min-rate R] [--max-rate R] [--probes P]
//!                    [--duration-ms T] [--workers W] [--io-shards S] ...
//!                    binary-search the max sustainable rate under a p99 SLO
//! peace-loadgen smoke [--ramp]   # CI: sim + TCP smoke, emits BENCH_load.json
//! peace-loadgen full  [--ramp]   # acceptance: 10^5 sim users + held TCP sessions
//! ```
//!
//! `tcp`, `smoke` and `full` judge themselves ([`LoadOutcome::check`]):
//! they exit non-zero unless every offered arrival became a session and
//! every held session still answered an echo once the schedule had
//! drained. `tcp --hold` is the held-session check: the rate times the
//! duration is how many sessions it holds, for at least the duration.
//!
//! Scenarios: `steady`, `crowd`, `revoke`, `rollover`, `partition`.
//! Simulation halves verify their own determinism by re-running the
//! scenario with a different shard count and asserting digest equality.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use peace::loadgen::{
    append_ramp, build_report, ramp_search, run_open_loop, ArrivalProcess, LoadConfig, LoadOutcome,
    RampConfig, RampRunSummary, SimRunSummary, TcpRunSummary,
};
use peace::net::{build_world_with, ConnConfig, DaemonConfig, RouterDaemon, UserAgent, WorldSpec};
use peace::protocol::ProtocolConfig;
use peace::sim::{run_city, CityConfig, CityReport, Scenario};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "sim" => cmd_sim(&args),
        "tcp" => cmd_tcp(&args),
        "ramp" => cmd_ramp(&args),
        "smoke" => cmd_combined(&args, false),
        "full" => cmd_combined(&args, true),
        "help" | "--help" | "-h" => {
            print_help();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command: {other}\n");
            print_help();
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!("peace-loadgen: city-scale simulation + open-loop TCP load harness\n");
    println!("commands:");
    println!("  sim    [--users N] [--shards S] [--seed X] [--scenario NAME] [--end-ms T]");
    println!("         run a sharded city scenario; verifies digest across shard counts");
    println!("  tcp    [--rate R] [--duration-ms T] [--workers W] [--routers N] [--echo E]");
    println!("         [--hold] [--uniform] [--seed X] [--io-shards S] [--target ADDR]...");
    println!("         open-loop TCP load against loopback daemons (or --target daemons)");
    println!("  ramp   [--slo-p99-ms B] [--min-rate R] [--max-rate R] [--probes P]");
    println!("         [--duration-ms T] [--workers W] [--routers N] [--io-shards S]");
    println!("         binary-search the max sustainable arrival rate under a p99 SLO");
    println!("  smoke  [--ramp] short CI pass: sim + TCP smoke -> BENCH_load.json");
    println!("  full   [--ramp] acceptance pass: 10^5 sim users + held TCP sessions");
    println!("\n--io-shards S: I/O threads of each target daemon's event loop");
    println!("               (default 2; 0 = one per available processor)");
    println!("\nscenarios: steady | crowd | revoke | rollover | partition");
}

fn flag(args: &[String], name: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn flag_f64(args: &[String], name: &str, default: f64) -> f64 {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn scenario_by_name(name: &str, end_ms: u64) -> Option<Scenario> {
    Some(match name {
        "steady" => Scenario::Steady,
        "crowd" => Scenario::FlashCrowd {
            at_ms: end_ms * 3 / 10,
            until_ms: end_ms * 7 / 10,
            hotspot_frac: 0.3,
            multiplier: 8,
        },
        "revoke" => Scenario::MassRevocation {
            at_ms: end_ms / 2,
            revoke_frac: 0.1,
        },
        "rollover" => Scenario::EpochRollover { at_ms: end_ms / 2 },
        "partition" => Scenario::Partition {
            at_ms: end_ms * 3 / 10,
            heal_ms: end_ms * 7 / 10,
            region_frac: 0.4,
        },
        _ => return None,
    })
}

/// Runs the scenario and proves shard-count invariance by re-running
/// with a different shard count. Returns `(report, elapsed_ms)`.
fn run_sim_verified(cfg: &CityConfig) -> (CityReport, u64) {
    let t0 = Instant::now();
    let report = run_city(cfg);
    let elapsed_ms = t0.elapsed().as_millis() as u64;
    let alt_shards = if cfg.shards == 1 { 3 } else { 1 };
    let alt = run_city(&CityConfig {
        shards: alt_shards,
        ..*cfg
    });
    assert_eq!(
        report.digest, alt.digest,
        "DETERMINISM VIOLATION: digest differs between {} and {} shards",
        cfg.shards, alt_shards
    );
    println!(
        "sim: scenario={:?} users={} shards={} digest={:016x} (verified vs {} shards) {}ms",
        cfg.scenario, cfg.users, cfg.shards, report.digest, alt_shards, elapsed_ms
    );
    (report, elapsed_ms)
}

fn cmd_sim(args: &[String]) -> ExitCode {
    let end_ms = flag(args, "--end-ms", 30_000);
    let name = args
        .iter()
        .position(|a| a == "--scenario")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("steady");
    let Some(scenario) = scenario_by_name(name, end_ms) else {
        eprintln!("unknown scenario: {name}");
        return ExitCode::FAILURE;
    };
    let cfg = CityConfig {
        users: flag(args, "--users", 100_000) as u32,
        shards: flag(args, "--shards", 4) as usize,
        seed: flag(args, "--seed", 0xC17F_5EED),
        routers_per_side: flag(args, "--routers-per-side", 8) as u32,
        end_ms,
        scenario,
        ..CityConfig::default()
    };
    let (report, _) = run_sim_verified(&cfg);
    let t = &report.totals;
    println!(
        "  attempts={} accepted={} dropped={} revoked_rejects={} roams={} url_len={}",
        t.auth_attempts,
        t.auth_accepted,
        t.auth_dropped,
        t.auth_rejected_revoked,
        t.roams,
        t.url_len
    );
    println!(
        "  auth latency p50={}us p95={}us p99={}us",
        t.latency.percentile(0.50),
        t.latency.percentile(0.95),
        t.latency.percentile(0.99)
    );
    for (name, snap) in &report.phases {
        let att = snap
            .counters
            .get("city.auth_attempts")
            .copied()
            .unwrap_or(0);
        let drop = snap.counters.get("city.auth_dropped").copied().unwrap_or(0);
        println!("  phase {name}: attempts={att} dropped={drop}");
    }
    ExitCode::SUCCESS
}

/// The deadline both ends of a connection run under, unless the run holds
/// sessions (see [`Fleet::spawn`]).
const IO_TIMEOUT: Duration = Duration::from_secs(20);

fn daemon_cfg(max_connections: usize, io_shards: usize, read_timeout: Duration) -> DaemonConfig {
    DaemonConfig {
        conn: ConnConfig {
            read_timeout: Some(read_timeout),
            write_timeout: Some(IO_TIMEOUT),
            ..ConnConfig::default()
        },
        max_connections,
        connect_timeout: Duration::from_secs(5),
        drain: Duration::from_secs(3),
        shards: io_shards,
        ..DaemonConfig::default()
    }
}

/// Loopback daemons (or `targets`) plus enrolled worker agents.
struct Fleet {
    daemons: Vec<RouterDaemon>,
    addrs: Vec<SocketAddr>,
    agents: Vec<UserAgent>,
}

impl Fleet {
    /// Builds the deterministic world, spawns loopback router daemons
    /// (pre-loaded with the NO's lists) unless `targets` is given, and
    /// enrolls one agent per worker. `load` is the heaviest run the fleet
    /// will see: it sizes the connection cap and seeds the agents.
    ///
    /// A held session sits silent from its handshake until the final echo
    /// pass reaches it, and nothing refreshes a loopback router's start-up
    /// CRL/URL. So when `load` holds sessions, loopback daemons keep an
    /// idle connection — and the world accepts those lists — for four
    /// times the schedule and a margin, rather than [`IO_TIMEOUT`] and the
    /// default 60 s: room for the schedule, arrivals served late, and the
    /// echo pass.
    fn spawn(
        workers: usize,
        router_count: usize,
        targets: &[SocketAddr],
        world_seed: u64,
        load: &LoadConfig,
        io_shards: usize,
    ) -> Self {
        let spec = WorldSpec {
            seed: world_seed,
            users: workers,
            routers: if targets.is_empty() {
                router_count
            } else {
                targets.len()
            },
        };
        eprintln!(
            "tcp: enrolling {} worker agents (world seed {:#x})...",
            workers, world_seed
        );
        let hold = (load.hold_sessions && targets.is_empty())
            .then(|| Duration::from_millis(4 * load.duration_ms) + IO_TIMEOUT);
        let mut protocol = ProtocolConfig::default();
        if let Some(hold) = hold {
            protocol.list_max_age = protocol.list_max_age.max(hold.as_millis() as u64);
        }
        let w = build_world_with(&spec, protocol).expect("world setup ceremony");
        // Every offered arrival may be open at once in hold mode.
        let expected = (load.rate_per_sec * load.duration_ms as f64 / 1_000.0) as usize;
        let cap = (expected * 2 + workers + 64).max(256);
        let cfg = daemon_cfg(cap, io_shards, IO_TIMEOUT);
        let server_cfg = daemon_cfg(cap, io_shards, hold.unwrap_or(IO_TIMEOUT));

        let mut daemons = Vec::new();
        let addrs: Vec<SocketAddr> = if targets.is_empty() {
            let now = peace::net::clock::wall_ms();
            let crl = w.no.publish_crl(now);
            let url = w.no.publish_url(now);
            for (i, mut r) in w.routers.into_iter().enumerate() {
                r.update_lists(crl.clone(), url.clone());
                daemons.push(
                    RouterDaemon::spawn(r, world_seed ^ (i as u64 + 1), "127.0.0.1:0", server_cfg)
                        .expect("router daemon spawn"),
                );
            }
            daemons.iter().map(|d| d.addr()).collect()
        } else {
            targets.to_vec()
        };

        let agents: Vec<UserAgent> = w
            .users
            .into_iter()
            .enumerate()
            .map(|(i, u)| UserAgent::new(u, load.seed ^ (0xA6E57 + i as u64), cfg))
            .collect();
        Fleet {
            daemons,
            addrs,
            agents,
        }
    }

    fn teardown(self) {
        for d in self.daemons {
            assert_eq!(d.metrics().handler_panics, 0, "daemon handler panicked");
            let _ = d.shutdown();
        }
    }
}

struct TcpRun {
    cfg: LoadConfig,
    outcome: LoadOutcome,
    workers: u64,
    routers: u64,
}

/// Builds the deterministic world, spawns loopback router daemons (or
/// uses `targets`), enrolls one agent per worker, and drives the
/// open-loop schedule.
fn run_tcp(
    workers: usize,
    router_count: usize,
    targets: &[SocketAddr],
    world_seed: u64,
    load: LoadConfig,
    io_shards: usize,
) -> TcpRun {
    let mut fleet = Fleet::spawn(workers, router_count, targets, world_seed, &load, io_shards);
    let router_addrs = fleet.addrs.clone();

    eprintln!(
        "tcp: open-loop {} arrivals/s for {}ms over {} workers -> {} routers (hold={} io-shards={})",
        load.rate_per_sec,
        load.duration_ms,
        workers,
        router_addrs.len(),
        load.hold_sessions,
        io_shards
    );
    let agents = std::mem::take(&mut fleet.agents);
    let (outcome, _) = run_open_loop(agents, &router_addrs, &load);
    fleet.teardown();
    println!(
        "tcp: offered={} completed={} failed={} conn_rejected={} peak_concurrent={} held_live={} in {}ms",
        outcome.offered,
        outcome.completed,
        outcome.failed,
        outcome.conn_rejected,
        outcome.peak_concurrent,
        outcome.held_live,
        outcome.elapsed_ms
    );
    println!(
        "  hs p50={}us p95={}us p99={}us | session p50={}us p99={}us",
        outcome.hs_total_us.percentile(0.50),
        outcome.hs_total_us.percentile(0.95),
        outcome.hs_total_us.percentile(0.99),
        outcome.session_us.percentile(0.50),
        outcome.session_us.percentile(0.99)
    );
    TcpRun {
        cfg: load,
        outcome,
        workers: workers as u64,
        routers: router_addrs.len() as u64,
    }
}

struct RampRun {
    cfg: RampConfig,
    outcome: peace::loadgen::RampOutcome,
    workers: u64,
    shards: u64,
}

/// Spawns a fleet sized for the search ceiling and binary-searches the
/// max sustainable arrival rate under the p99 SLO.
fn run_ramp(
    workers: usize,
    router_count: usize,
    targets: &[SocketAddr],
    world_seed: u64,
    ramp: RampConfig,
    io_shards: usize,
) -> RampRun {
    let ceiling = LoadConfig {
        rate_per_sec: ramp.max_rate,
        ..ramp.base
    };
    let mut fleet = Fleet::spawn(
        workers,
        router_count,
        targets,
        world_seed,
        &ceiling,
        io_shards,
    );
    let addrs = fleet.addrs.clone();
    eprintln!(
        "ramp: searching [{:.0}, {:.0}] arrivals/s, slo p99 <= {}ms, {}ms probes (io-shards={})",
        ramp.min_rate,
        ramp.max_rate,
        ramp.slo_p99_us / 1_000,
        ramp.base.duration_ms,
        io_shards
    );
    let agents = std::mem::take(&mut fleet.agents);
    let (outcome, _) = ramp_search(agents, &addrs, &ramp);
    fleet.teardown();
    for p in &outcome.probes {
        println!(
            "  probe {:>7.1}/s: {} offered={} completed={} failed={} session_p99={}us",
            p.rate_per_sec,
            if p.passed { "PASS" } else { "fail" },
            p.offered,
            p.completed,
            p.failed,
            p.session_p99_us
        );
    }
    println!(
        "ramp: max sustainable rate {:.1}/s under p99 <= {}us",
        outcome.max_sustainable_rate, ramp.slo_p99_us
    );
    RampRun {
        cfg: ramp,
        outcome,
        workers: workers as u64,
        shards: io_shards as u64,
    }
}

const NO_SUSTAINABLE_RATE: &str = "even the floor rate violated the SLO";

fn ramp_cfg(args: &[String]) -> RampConfig {
    RampConfig {
        base: LoadConfig {
            duration_ms: flag(args, "--duration-ms", 3_000),
            seed: flag(args, "--seed", 0x10AD_5EED),
            echo_per_session: flag(args, "--echo", 1) as u32,
            process: if has(args, "--uniform") {
                ArrivalProcess::Uniform
            } else {
                ArrivalProcess::Poisson
            },
            ..LoadConfig::default()
        },
        slo_p99_us: flag(args, "--slo-p99-ms", 500) * 1_000,
        min_rate: flag_f64(args, "--min-rate", 20.0),
        max_rate: flag_f64(args, "--max-rate", 400.0),
        probes: flag(args, "--probes", 4) as u32,
        ..RampConfig::default()
    }
}

fn cmd_ramp(args: &[String]) -> ExitCode {
    let run = run_ramp(
        flag(args, "--workers", 8) as usize,
        flag(args, "--routers", 2) as usize,
        &parse_targets(args),
        flag(args, "--world-seed", 0xB00B1E5),
        ramp_cfg(args),
        flag(args, "--io-shards", 2) as usize,
    );
    let mut report = build_report(None, None);
    append_ramp(
        &mut report,
        &RampRunSummary {
            cfg: &run.cfg,
            outcome: &run.outcome,
            workers: run.workers,
            shards: run.shards,
        },
    );
    match report.emit("load") {
        Ok(path) => {
            eprintln!("wrote {}", path.display());
            if run.outcome.max_sustainable_rate > 0.0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("{NO_SUSTAINABLE_RATE}");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("failed to write BENCH_load.json: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_targets(args: &[String]) -> Vec<SocketAddr> {
    let mut out = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == "--target" {
            if let Some(addr) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                out.push(addr);
            }
        }
    }
    out
}

fn cmd_tcp(args: &[String]) -> ExitCode {
    let load = LoadConfig {
        rate_per_sec: flag_f64(args, "--rate", 40.0),
        duration_ms: flag(args, "--duration-ms", 5_000),
        process: if has(args, "--uniform") {
            ArrivalProcess::Uniform
        } else {
            ArrivalProcess::Poisson
        },
        seed: flag(args, "--seed", 0x10AD_5EED),
        echo_per_session: flag(args, "--echo", 1) as u32,
        hold_sessions: has(args, "--hold"),
        ..LoadConfig::default()
    };
    let run = run_tcp(
        flag(args, "--workers", 8) as usize,
        flag(args, "--routers", 2) as usize,
        &parse_targets(args),
        flag(args, "--world-seed", 0xB00B1E5),
        load,
        flag(args, "--io-shards", 2) as usize,
    );
    match run.outcome.check() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tcp: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The combined pass behind `smoke` (CI) and `full` (acceptance): one
/// sharded sim scenario + one open-loop TCP run, emitted as
/// `BENCH_load.json`.
fn cmd_combined(args: &[String], full: bool) -> ExitCode {
    let (sim_users, end_ms) = if full {
        (100_000, 30_000)
    } else {
        (2_000, 20_000)
    };
    let sim_cfg = CityConfig {
        users: flag(args, "--users", sim_users) as u32,
        shards: flag(args, "--shards", 4) as usize,
        seed: flag(args, "--seed", 0xC17F_5EED),
        end_ms,
        scenario: scenario_by_name("crowd", end_ms).expect("known scenario"),
        ..CityConfig::default()
    };
    let (sim_report, sim_elapsed) = run_sim_verified(&sim_cfg);

    let load = if full {
        LoadConfig {
            rate_per_sec: flag_f64(args, "--rate", 120.0),
            duration_ms: flag(args, "--duration-ms", 10_000),
            echo_per_session: 1,
            hold_sessions: true,
            ..LoadConfig::default()
        }
    } else {
        LoadConfig {
            rate_per_sec: flag_f64(args, "--rate", 60.0),
            duration_ms: flag(args, "--duration-ms", 4_000),
            echo_per_session: 1,
            hold_sessions: true,
            ..LoadConfig::default()
        }
    };
    let workers = flag(args, "--workers", if full { 32 } else { 8 }) as usize;
    let io_shards = flag(args, "--io-shards", 2) as usize;
    let run = run_tcp(workers, 2, &parse_targets(args), 0xB00B1E5, load, io_shards);

    let mut report = build_report(
        Some(SimRunSummary {
            cfg: &sim_cfg,
            report: &sim_report,
            elapsed_ms: sim_elapsed,
        }),
        Some(TcpRunSummary {
            cfg: &run.cfg,
            outcome: &run.outcome,
            workers: run.workers,
            routers: run.routers,
        }),
    );
    let mut failures: Vec<String> = run.outcome.check().err().into_iter().collect();
    if has(args, "--ramp") {
        let ramp = run_ramp(
            workers,
            2,
            &parse_targets(args),
            0xB00B1E5 ^ 0x2A,
            ramp_cfg(args),
            io_shards,
        );
        append_ramp(
            &mut report,
            &RampRunSummary {
                cfg: &ramp.cfg,
                outcome: &ramp.outcome,
                workers: ramp.workers,
                shards: ramp.shards,
            },
        );
        if ramp.outcome.max_sustainable_rate == 0.0 {
            failures.push(NO_SUSTAINABLE_RATE.into());
        }
    }
    // The report is written either way: a failed run is diagnosed from it.
    match report.emit("load") {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => failures.push(format!("failed to write BENCH_load.json: {e}")),
    }
    for failure in &failures {
        eprintln!("{}: {failure}", if full { "full" } else { "smoke" });
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
