//! The PEACE node daemon: runs any of the three node roles over real TCP.
//!
//! ```text
//! peace-noded no     --bind 127.0.0.1:7100 --ledger DIR [--seed N --users U --routers R]
//!                    [--no-id NO-0 --peers ADDR,ADDR --gossip-ms N]
//! peace-noded router --bind 127.0.0.1:7200 --no ADDR[,ADDR...] --index K [--seed N ...]
//!                    [--shards S]   # I/O threads (no/router/demo; 0 = one per processor)
//! peace-noded user   --no ADDR --router ADDR --index J [--seed N ...]
//! peace-noded demo   --ledger DIR [--users U --rounds N]
//! # every role also takes --fixed-bases (§V.C), which all must agree on
//! ```
//!
//! All roles replay the same deterministic setup ceremony from `--seed`,
//! so daemons started in separate processes share trust material without
//! any key ever crossing a socket (see `peace::net::world`). `--seed`
//! drives that ceremony only: each daemon's and agent's own randomness
//! comes from the OS ([`peace::os_seed`]), so a restarted process never
//! replays a nonce or a session id. `demo` runs the whole deployment —
//! NO, two routers, `U` users — inside one process on loopback, checks
//! that every admitted session's transcript reaches NO as a new record,
//! that every user NO already lists is refused, revokes the last admitted
//! user and checks its router refuses it, and publishes the merged
//! telemetry of every daemon.
//!
//! The NO runs on the accountability ledger at `--ledger DIR`, which `no`
//! and `demo` require: it replays the revocations DIR holds before it
//! binds, so a restart keeps every revoked member out from its first
//! bulletin; it refuses, and the process exits non-zero, a DIR whose
//! records disagree with the ceremony (another `--seed`) or that holds a
//! key rollover.
//!
//! With `--peers`, the NO role joins a replica federation: its ledger
//! becomes a per-writer shard store (`--no-id` names the local shard),
//! and a background gossip loop pulls checkpoint-attested entry ranges
//! from each peer so every replica converges on the same merged view.
//! Routers accept a comma-separated NO replica list and fail over to the
//! next alive replica when a transcript report cannot reach the primary.
//!
//! Every role merges the process-global registry (crypto op counters,
//! ledger timings) with each daemon's private registry into one
//! `peace-telemetry-v1` document. With `--metrics-json PATH` the document
//! is written atomically to PATH (periodically for the long-running
//! roles, once at the end for `user`/`demo`); without the flag it goes to
//! stdout.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use peace::groupsig::BasesMode;
use peace::ledger::{Ledger, LedgerConfig, LedgerQuery, RecordKind, ReplicatedLedger};
use peace::net::{
    build_world_with, clock::wall_ms, reject_code, ConnConfig, DaemonConfig, NetError, NoDaemon,
    PeerKeyResolver, RouterDaemon, UserAgent, WorldSpec,
};
use peace::protocol::config::REPORT_BATCH;
use peace::protocol::{ProtocolConfig, ReplicaSet, RetryPolicy};
use peace::telemetry::{global, Snapshot};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let flag = |name: &str, default: u64| -> u64 {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let opt = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    let spec = WorldSpec {
        seed: flag("--seed", 2008),
        users: flag("--users", 4) as usize,
        routers: flag("--routers", 2) as usize,
    };
    // --fixed-bases selects §V.C's fixed-bases mode: routers check
    // revocation by one table lookup, O(1) in |URL|, but every member's
    // sessions become linkable within an epoch. Every role in a deployment
    // must agree on this flag, since it changes the signing bases.
    let mut config = ProtocolConfig::default();
    if args.iter().any(|a| a == "--fixed-bases") {
        config.bases_mode = BasesMode::FixedBases;
    }

    let metrics_json = opt("--metrics-json");
    let outcome = match cmd {
        "no" => run_no(
            &spec,
            config,
            &opt("--bind").unwrap_or_else(|| "127.0.0.1:7100".into()),
            opt("--ledger").as_deref(),
            opt("--no-id").as_deref(),
            opt("--peers").as_deref(),
            flag("--gossip-ms", 2_000),
            flag("--shards", 0) as usize,
            metrics_json.as_deref(),
        ),
        "router" => run_router(
            &spec,
            config,
            &opt("--bind").unwrap_or_else(|| "127.0.0.1:7200".into()),
            opt("--no").as_deref(),
            flag("--index", 0) as usize,
            flag("--shards", 0) as usize,
            metrics_json.as_deref(),
        ),
        "user" => run_user(
            &spec,
            config,
            opt("--no").as_deref(),
            opt("--router").as_deref(),
            flag("--index", 0) as usize,
            flag("--rounds", 3) as u32,
            metrics_json.as_deref(),
        ),
        "demo" => run_demo(
            &spec,
            config,
            flag("--rounds", 3) as u32,
            opt("--ledger").as_deref(),
            flag("--shards", 0) as usize,
            metrics_json.as_deref(),
        ),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => {
            eprintln!("unknown command: {other}\n");
            print_help();
            return ExitCode::FAILURE;
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!("PEACE node daemon — framed TCP runtime for the three node roles\n");
    println!("commands:");
    println!("  no     --bind A --ledger DIR     serve the revocation bulletin");
    println!("  router --bind A --no A[,A] --index K  serve beacons + access protocol");
    println!("  user   --no A --router A         poll bulletin, authenticate, echo");
    println!("  demo   --ledger DIR [--users U --rounds N]  full deployment on loopback");
    println!("\nshared flags: --seed N --users U --routers R (world replay spec)");
    println!("              --shards S   no/router/demo: I/O threads of the event loop");
    println!("                           (default 0 = one per available processor)");
    println!("              --fixed-bases  fixed-bases signing: O(1) revocation table");
    println!("              lookups at metropolitan URL sizes, at the cost of");
    println!("              linkability of every member's sessions in an epoch.");
    println!("              Every role in a deployment must pass the same flag.");
    println!("ledger flag:  --ledger DIR (required by no/demo: the NO's accountability ledger)");
    println!("replica flags (no): --no-id NO-k --peers A,A --gossip-ms N");
    println!("               joins a replica federation: per-writer shard store,");
    println!("               background checkpoint gossip against each peer");
    println!("failover (router): give --no a comma-separated replica list;");
    println!("               transcript reports fail over to the next alive NO");
    println!("metrics flags: --metrics-json PATH (atomic peace-telemetry-v1 dumps;");
    println!("               periodic for no/router, final for user/demo)");
}

/// Merges the process-global registry (crypto op counters, ledger
/// timings) with each named daemon registry into one dump document.
fn merged_snapshot(parts: &[(&str, Snapshot)]) -> Snapshot {
    let mut top = global().snapshot();
    for (prefix, snap) in parts {
        top.merge_prefixed(snap, prefix);
    }
    top
}

/// Publishes a merged snapshot: atomically to `path` when given (a
/// reader never observes a torn dump), else to stdout.
fn dump_metrics(path: Option<&str>, parts: &[(&str, Snapshot)]) {
    let snap = merged_snapshot(parts);
    match path {
        Some(p) => {
            if let Err(e) = snap.write_atomic(std::path::Path::new(p)) {
                eprintln!("metrics dump to {p} failed: {e}");
            }
        }
        None => println!("{}", snap.to_json()),
    }
}

fn daemon_cfg(shards: usize) -> DaemonConfig {
    DaemonConfig {
        conn: ConnConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            ..ConnConfig::default()
        },
        max_connections: 64,
        connect_timeout: Duration::from_secs(5),
        drain: Duration::from_secs(3),
        shards,
    }
}

fn parse_addr(label: &str, s: Option<&str>) -> Result<SocketAddr, String> {
    let s = s.ok_or_else(|| format!("missing required {label} ADDR"))?;
    s.parse().map_err(|_| format!("bad {label} address: {s}"))
}

/// Parses a comma-separated address list (`--peers A,B` / `--no A,B`).
fn parse_addr_list(label: &str, s: Option<&str>) -> Result<Vec<SocketAddr>, String> {
    let s = s.ok_or_else(|| format!("missing required {label} ADDR[,ADDR...]"))?;
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| p.parse().map_err(|_| format!("bad {label} address: {p}")))
        .collect()
}

/// Opens (recovering) a single-writer ledger at `dir`, reporting what
/// recovery found. NO's own key resolves its signed checkpoints, so the
/// chain replay resumes from the latest one instead of the log head
/// (O(tail) opens).
fn open_ledger(dir: &str, npk: peace::ecdsa::VerifyingKey) -> Result<ReplicatedLedger, String> {
    let (ledger, report) = Ledger::open_resumed(dir, LedgerConfig::default(), move |s| {
        (s == "NO").then_some(npk)
    })
    .map_err(|e| format!("ledger open failed: {e}"))?;
    println!(
        "ledger: {} records in {} segment(s) at {dir}",
        report.records, report.segments
    );
    if let Some(seq) = report.resumed_from {
        println!("ledger: chain replay resumed from signed checkpoint at seq {seq}");
    }
    if let Some(flaw) = report.tail_flaw {
        println!(
            "ledger: recovered from torn tail ({} byte(s) discarded: {flaw})",
            report.torn_bytes
        );
    }
    Ok(ReplicatedLedger::from_single(ledger, "NO"))
}

/// The `--ledger DIR` NO runs on, which `no` and `demo` require.
fn required_ledger(dir: Option<&str>) -> Result<&str, String> {
    dir.ok_or_else(|| "the NO needs --ledger DIR (its accountability ledger)".into())
}

/// Why NO did not start: a refused ledger, or a listener that would not bind.
fn refused(e: NetError) -> String {
    match e {
        NetError::Ledger { .. } => format!("ledger refused ({}): {e}", e.code()),
        e => e.to_string(),
    }
}

/// Runs the NO bulletin daemon on the ledger at `--ledger DIR` until the
/// process is killed: session reports and revocations are durably
/// chained, and periodic signed checkpoints make the log
/// offline-verifiable. A hard kill mid-write is safe: each record is one
/// `write(2)`, so recovery on the next start can only find (and discard) a
/// torn tail, never a half-frame it would silently skip records over.
#[allow(clippy::too_many_arguments)]
fn run_no(
    spec: &WorldSpec,
    config: ProtocolConfig,
    bind: &str,
    ledger_dir: Option<&str>,
    no_id: Option<&str>,
    peers: Option<&str>,
    gossip_ms: u64,
    shards: usize,
    metrics_json: Option<&str>,
) -> Result<(), String> {
    let dir = required_ledger(ledger_dir)?;
    let peer_addrs = peers.map_or(Ok(Vec::new()), |p| parse_addr_list("--peers", Some(p)))?;
    let w = build_world_with(spec, config).map_err(|e| e.to_string())?;
    let npk = *w.no.npk();
    let federated = no_id.is_some() || peers.is_some();
    let id = no_id.unwrap_or("NO-0");
    let (ledger, resolver) = if federated {
        // Replica federation: the ledger is a per-writer shard store, and
        // peers gossip checkpoint-attested ranges in the background. All
        // replicas replay the same ceremony, so NO's certified key
        // verifies every writer's checkpoints.
        let resolve = move |s: &str| (s == "NO" || s.starts_with("NO-")).then_some(npk);
        let (replica, recovery) =
            ReplicatedLedger::open(dir, id, LedgerConfig::default(), &resolve)
                .map_err(|e| format!("replica open failed: {e}"))?;
        for (writer, rep) in &recovery.shards {
            let how = match rep.resumed_from {
                Some(seq) => format!("resumed from checkpoint seq {seq}"),
                None => "full chain replay".into(),
            };
            println!("replica shard {writer}: {} record(s), {how}", rep.records);
        }
        (replica, Some(Arc::new(resolve) as PeerKeyResolver))
    } else {
        (open_ledger(dir, npk)?, None)
    };
    let no = NoDaemon::spawn(w.no, ledger, resolver, bind, daemon_cfg(shards)).map_err(refused)?;
    if !peer_addrs.is_empty() {
        println!(
            "replica {id}: gossiping with {} peer(s) every {gossip_ms} ms",
            peer_addrs.len()
        );
        no.start_gossip(peer_addrs, Duration::from_millis(gossip_ms))
            .map_err(refused)?;
    } else if federated {
        println!("replica {id}: no peers yet (standalone shard store)");
    }
    println!("peace-noded: NO bulletin daemon on {}", no.addr());
    println!(
        "world: seed={} users={} routers={}",
        spec.seed, spec.users, spec.routers
    );
    loop {
        std::thread::sleep(Duration::from_secs(30));
        // Periodic durability + audit anchor: flush and checkpoint.
        if let Err(e) = no.checkpoint_now() {
            eprintln!("ledger checkpoint failed: {e}");
        }
        dump_metrics(metrics_json, &[("no", no.telemetry())]);
    }
}

/// How often a router refreshes its lists from NO and reports whatever
/// transcripts its outbox holds.
const REFRESH_EVERY: Duration = Duration::from_secs(15);

/// How often a router looks whether its outbox holds [`REPORT_BATCH`]
/// transcripts.
const BATCH_POLL: Duration = Duration::from_millis(100);

/// Reports `daemon`'s outbox through `replicas`, printing the outcome;
/// whether a replica acked.
fn report(daemon: &RouterDaemon, replicas: &mut ReplicaSet<SocketAddr>) -> bool {
    match daemon.report_sessions(replicas) {
        Ok(0) => true,
        Ok(n) => {
            println!("reported {n} session transcript(s)");
            true
        }
        Err(e) => {
            eprintln!("session report failed on every replica (will retry): {e}");
            false
        }
    }
}

/// Whether `daemon`'s outbox holds a [`REPORT_BATCH`] of transcripts.
fn batch_ready(daemon: &RouterDaemon) -> bool {
    daemon.with_router(|r| r.pending_log_len()) >= REPORT_BATCH
}

/// Runs router `--index` from the replayed world, refreshing lists from NO
/// and reporting its transcripts every [`REFRESH_EVERY`], and at once
/// whenever its outbox holds a [`REPORT_BATCH`] while NO is reachable.
/// With a comma-separated `--no` list, reports fail over across the NO
/// replicas (primary first, then the next alive one).
fn run_router(
    spec: &WorldSpec,
    config: ProtocolConfig,
    bind: &str,
    no_addr: Option<&str>,
    index: usize,
    shards: usize,
    metrics_json: Option<&str>,
) -> Result<(), String> {
    let no_addrs = parse_addr_list("--no", no_addr)?;
    if no_addrs.is_empty() {
        return Err("--no needs at least one address".into());
    }
    let mut replicas = ReplicaSet::new(no_addrs.iter().copied(), RetryPolicy::default());
    let w = build_world_with(spec, config).map_err(|e| e.to_string())?;
    let router = w.routers.into_iter().nth(index).ok_or_else(|| {
        format!(
            "--index {index} out of range (world has {} routers)",
            spec.routers
        )
    })?;
    let daemon = RouterDaemon::spawn(router, peace::os_seed(), bind, daemon_cfg(shards))
        .map_err(|e| e.to_string())?;
    println!("peace-noded: router MR-{index} on {}", daemon.addr());
    let mut reachable = true;
    loop {
        // Lists come from whichever replica answers first — every replica
        // replays the same ceremony, so the bulletin is identical. The
        // delta path fetches O(churn) bytes against the router's current
        // URL version and falls back to a full signed fetch on epoch
        // rotation or a broken chain.
        let mut refreshed = false;
        for &addr in &no_addrs {
            match daemon.refresh_lists_delta(addr) {
                Ok(v) => {
                    println!("lists refreshed (delta) from {addr}: URL v{v}");
                    refreshed = true;
                    break;
                }
                Err(e) => eprintln!("list refresh from {addr} failed: {e}"),
            }
        }
        if !refreshed {
            eprintln!("no NO replica reachable for lists (will retry)");
        }
        // A batch goes out as soon as it is ready, so a reachable NO loses
        // nothing to the outbox bound; after a failed report only the
        // periodic one retries, and unreported transcripts wait in the
        // (bounded) outbox.
        let cycle = std::time::Instant::now();
        while cycle.elapsed() < REFRESH_EVERY {
            std::thread::sleep(BATCH_POLL);
            if reachable && batch_ready(&daemon) {
                reachable = report(&daemon, &mut replicas);
            }
        }
        reachable = report(&daemon, &mut replicas);
        dump_metrics(metrics_json, &[("router", daemon.telemetry())]);
    }
}

/// Runs user `--index`: bulletin poll, authenticated handshake with retry,
/// `--rounds` AEAD echo round-trips, graceful close.
fn run_user(
    spec: &WorldSpec,
    config: ProtocolConfig,
    no_addr: Option<&str>,
    router_addr: Option<&str>,
    index: usize,
    rounds: u32,
    metrics_json: Option<&str>,
) -> Result<(), String> {
    let no_addr = parse_addr("--no", no_addr)?;
    let router_addr = parse_addr("--router", router_addr)?;
    let w = build_world_with(spec, config).map_err(|e| e.to_string())?;
    let user = w.users.into_iter().nth(index).ok_or_else(|| {
        format!(
            "--index {index} out of range (world has {} users)",
            spec.users
        )
    })?;
    let mut agent = UserAgent::new(user, peace::os_seed(), daemon_cfg(0));

    let v = agent.poll_bulletin(no_addr).map_err(|e| e.to_string())?;
    println!("bulletin adopted: URL v{v}");

    let mut sess = agent
        .connect_with_retry(router_addr, &RetryPolicy::default())
        .map_err(|e| match e {
            NetError::Rejected { code, detail } => format!("rejected (code {code}): {detail}"),
            other => other.to_string(),
        })?;
    println!("authenticated to {router_addr} (anonymous handshake complete)");

    for round in 0..rounds {
        let payload = format!("user-{index} echo {round} at {}", wall_ms());
        let back = sess.echo(payload.as_bytes()).map_err(|e| e.to_string())?;
        if back != payload.as_bytes() {
            return Err("echo mismatch".into());
        }
        println!("echo round {round}: ok ({} bytes)", back.len());
    }
    println!("{}", sess.stats().to_json());
    sess.close();
    dump_metrics(metrics_json, &[("user", agent.telemetry())]);
    Ok(())
}

/// Session transcripts NO holds: the access records in its ledger.
fn landed_sessions(no: &NoDaemon) -> Result<u64, String> {
    let access = LedgerQuery {
        kind: Some(RecordKind::Access),
        ..LedgerQuery::default()
    };
    no.with_ledger(|rl| rl.local().query(&access).map(|e| e.len() as u64))
        .map_err(|e| e.to_string())
}

/// Checks that `router` (MR-`k`) refuses user-`i` as revoked.
fn refused_as_revoked(
    agent: &mut UserAgent,
    router: &RouterDaemon,
    i: usize,
    k: usize,
) -> Result<(), String> {
    match agent.connect(router.addr()) {
        Err(NetError::Rejected { code, .. }) if code == reject_code::REVOKED => {
            println!("user-{i} revoked: refused by MR-{k}");
            Ok(())
        }
        Ok(_) => Err(format!("revoked user-{i} was admitted")),
        Err(e) => Err(e.to_string()),
    }
}

/// The whole deployment in one process on loopback. Fails unless every
/// admitted session lands at NO as a new record.
fn run_demo(
    spec: &WorldSpec,
    config: ProtocolConfig,
    rounds: u32,
    ledger_dir: Option<&str>,
    shards: usize,
    metrics_json: Option<&str>,
) -> Result<(), String> {
    let dir = required_ledger(ledger_dir)?;
    let w = build_world_with(spec, config).map_err(|e| e.to_string())?;
    let ledger = open_ledger(dir, *w.no.npk())?;
    let cfg = daemon_cfg(shards);
    let no = NoDaemon::spawn(w.no, ledger, None, "127.0.0.1:0", cfg).map_err(refused)?;
    println!("NO bulletin daemon on {}", no.addr());
    let mut replicas = ReplicaSet::new([no.addr()], RetryPolicy::default());
    let landed_before = landed_sessions(&no)?;

    let mut routers = Vec::new();
    for (i, r) in w.routers.into_iter().enumerate() {
        let d = RouterDaemon::spawn(r, peace::os_seed(), "127.0.0.1:0", cfg)
            .map_err(|e| e.to_string())?;
        d.refresh_lists(no.addr()).map_err(|e| e.to_string())?;
        println!("router MR-{i} on {}", d.addr());
        routers.push(d);
    }

    // Routers hand their session transcripts to NO (§IV.D step 1) as
    // soon as a batch is ready and once more at the end, and they become
    // durable chained access records.
    let mut reported = vec![0u32; routers.len()];
    let mut user_metrics: Vec<(String, Snapshot)> = Vec::new();
    let mut last_agent = None;
    for (i, user) in w.users.into_iter().enumerate() {
        let k = i % routers.len();
        let addr = routers[k].addr();
        let mut agent = UserAgent::new(user, peace::os_seed(), cfg);
        agent.poll_bulletin(no.addr()).map_err(|e| e.to_string())?;
        // A user NO already lists (revoked by an earlier run on this
        // --ledger DIR, replayed at spawn) is refused from the start.
        let url = agent.user().current_url();
        if url.is_some_and(|url| url.tokens.contains(&w.tokens[i])) {
            refused_as_revoked(&mut agent, &routers[k], i, k)?;
            user_metrics.push((format!("user-{i}"), agent.telemetry()));
            continue;
        }
        let mut sess = agent
            .connect_with_retry(addr, &RetryPolicy::default())
            .map_err(|e| e.to_string())?;
        for round in 0..rounds {
            let payload = format!("demo user-{i} round-{round}");
            let back = sess.echo(payload.as_bytes()).map_err(|e| e.to_string())?;
            if back != payload.as_bytes() {
                return Err("echo mismatch".into());
            }
        }
        sess.close();
        user_metrics.push((format!("user-{i}"), agent.telemetry()));
        last_agent = Some((i, agent));
        if batch_ready(&routers[k]) {
            reported[k] += routers[k]
                .report_sessions(&mut replicas)
                .map_err(|e| e.to_string())?;
        }
    }
    for (i, r) in routers.iter().enumerate() {
        reported[i] += r
            .report_sessions(&mut replicas)
            .map_err(|e| e.to_string())?;
        println!(
            "router MR-{i}: reported {} session transcript(s) to NO",
            reported[i]
        );
    }
    // Every admitted session is a new record in NO's store, and no outbox
    // dropped one.
    let counter = |name: &str| -> u64 {
        routers
            .iter()
            .map(|r| r.telemetry().counters.get(name).copied().unwrap_or(0))
            .sum()
    };
    let (admitted, dropped) = (
        counter("net.handshakes_ok"),
        counter("net.transcripts_dropped"),
    );
    let landed = landed_sessions(&no)? - landed_before;
    if landed != admitted || dropped != 0 {
        return Err(format!(
            "{admitted} session(s) admitted, {landed} new at NO, {dropped} dropped"
        ));
    }
    // Runtime revocation: NO revokes the last admitted user, its router
    // refreshes, and the user's next handshake must be refused by the
    // router's revocation check (a table lookup under --fixed-bases).
    if let Some((i, mut agent)) = last_agent {
        let k = i % routers.len();
        if !no.revoke_user(&w.tokens[i]) {
            return Err(format!("NO did not record the revocation of user-{i}"));
        }
        routers[k]
            .refresh_lists(no.addr())
            .map_err(|e| e.to_string())?;
        refused_as_revoked(&mut agent, &routers[k], i, k)?;
    }
    let ck = no.checkpoint_now().map_err(|e| e.to_string())?;
    println!("ledger checkpoint: seq {} signed by {}", ck.seq, ck.signer);
    let head = no.with_ledger(|rl| rl.local().head());
    println!(
        "ledger head: {} records, {} segment(s)",
        head.next_seq, head.segments
    );

    // One merged document: crypto.* + ledger.* from the global registry,
    // every daemon's registry under its own prefix.
    let mut parts: Vec<(&str, Snapshot)> = vec![("no", no.telemetry())];
    let router_names: Vec<String> = (0..routers.len()).map(|i| format!("router-{i}")).collect();
    for (name, r) in router_names.iter().zip(&routers) {
        parts.push((name, r.telemetry()));
    }
    for (name, snap) in &user_metrics {
        parts.push((name, snap.clone()));
    }
    println!("\n--- telemetry ---");
    dump_metrics(metrics_json, &parts);
    if let Some(p) = metrics_json {
        println!("metrics written to {p}");
    }

    for r in routers {
        r.shutdown().map_err(|e| e.to_string())?;
    }
    no.shutdown().map_err(|e| e.to_string())?;
    println!("demo complete: all daemons drained cleanly");
    Ok(())
}
