//! Accountability-ledger control tool: offline chain verification, indexed
//! queries, batched Open/Audit sweeps, and JSON export.
//!
//! ```text
//! peace-auditctl verify-chain   --dir D [--seed N --users U --routers R]
//! peace-auditctl verify-replica --dir D [--seed N --users U --routers R]
//! peace-auditctl query          --dir D [--router NAME --group G --epoch E
//!                                        --kind K --since MS --until MS]
//! peace-auditctl audit-sweep    --dir D [--since MS --until MS --apply]
//! peace-auditctl export         --dir D [--out FILE]
//! peace-auditctl gen-fixture    --dir D [--sessions N --replicate R]
//! ```
//!
//! Trust material is replayed from the world spec (`--seed/--users/
//! --routers`), exactly like `peace-noded`: `verify-chain` resolves the
//! checkpoint signers' keys from the replayed ceremony, and `audit-sweep`
//! replays NO (gpk + grt) to run the batch opener. The queries keep the
//! paper's NO-side boundary: results name groups and share slots, never
//! users.

use std::process::ExitCode;

use peace::ledger::{
    attribute_sweep, audit_sweep, verify_chain, Entry, Ledger, LedgerConfig, LedgerQuery,
    LedgerRecord, RecordKind,
};
use peace::net::{build_world, clock::wall_ms, BuiltWorld, WorldSpec};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let opt = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let flag = |name: &str, default: u64| -> u64 {
        opt(name).and_then(|v| v.parse().ok()).unwrap_or(default)
    };
    let spec = WorldSpec {
        seed: flag("--seed", 2008),
        users: flag("--users", 4) as usize,
        routers: flag("--routers", 2) as usize,
    };

    let outcome = match cmd {
        "verify-chain" => cmd_verify(&spec, opt("--dir").as_deref()),
        "verify-replica" => cmd_verify_replica(&spec, opt("--dir").as_deref()),
        "query" => cmd_query(
            opt("--dir").as_deref(),
            LedgerQuery {
                epoch: opt("--epoch").and_then(|v| v.parse().ok()),
                router: opt("--router"),
                group: opt("--group").and_then(|v| v.parse().ok()),
                since_ms: opt("--since").and_then(|v| v.parse().ok()),
                until_ms: opt("--until").and_then(|v| v.parse().ok()),
                kind: opt("--kind").as_deref().and_then(RecordKind::parse),
            },
        ),
        "audit-sweep" => cmd_sweep(
            &spec,
            opt("--dir").as_deref(),
            flag("--since", 0),
            flag("--until", u64::MAX),
            args.iter().any(|a| a == "--apply"),
        ),
        "export" => cmd_export(opt("--dir").as_deref(), opt("--out").as_deref()),
        "gen-fixture" => cmd_gen_fixture(
            &spec,
            opt("--dir").as_deref(),
            flag("--sessions", 3),
            flag("--replicate", 0) as usize,
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
    println!("PEACE accountability-ledger control tool\n");
    println!("commands:");
    println!("  verify-chain --dir D   replay the hash chain, check checkpoint signatures");
    println!("  verify-replica --dir D replay every shard of a replica store, check each");
    println!("                         chain and every pulled writer's signed checkpoints");
    println!(
        "  query        --dir D   indexed query (--router --group --epoch --kind --since --until)"
    );
    println!("  audit-sweep  --dir D   batch Open/Audit over a time range (--apply to persist)");
    println!("  export       --dir D   dump every record as JSON lines (--out FILE)");
    println!("  gen-fixture  --dir D   build a small, checkpointed fixture ledger (--sessions N);");
    println!("                         --replicate R builds R gossip-converged replica dirs");
    println!("\nworld flags: --seed N --users U --routers R (trust-material replay)");
}

fn need_dir(dir: Option<&str>) -> Result<&str, String> {
    dir.ok_or_else(|| "missing required --dir DIR".into())
}

fn open(dir: &str) -> Result<Ledger, String> {
    let (ledger, report) = Ledger::open(dir, LedgerConfig::default())
        .map_err(|e| format!("ledger open failed: {e}"))?;
    if let Some(flaw) = report.tail_flaw {
        eprintln!(
            "note: recovered from torn tail ({} byte(s): {flaw})",
            report.torn_bytes
        );
    }
    Ok(ledger)
}

fn hex32(b: &[u8; 32]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// One JSON object per entry (manual formatting; no serde in the tree).
fn entry_json(e: &Entry) -> String {
    let kind = e.record.kind().name();
    let detail = match &e.record {
        LedgerRecord::Access(a) => format!(
            "\"router\":\"{}\",\"session\":\"{}\",\"established_at\":{}",
            a.router, a.session.session_id, a.session.established_at
        ),
        LedgerRecord::UserRevocation { url_version, .. } => {
            format!("\"url_version\":{url_version}")
        }
        LedgerRecord::RouterRevocation {
            serial,
            crl_version,
        } => format!("\"serial\":{serial},\"crl_version\":{crl_version}"),
        LedgerRecord::EpochRollover { epoch } => format!("\"epoch\":{epoch}"),
        LedgerRecord::Checkpoint(ck) => format!(
            "\"ck_seq\":{},\"signer\":\"{}\",\"chain\":\"{}\"",
            ck.seq,
            ck.signer,
            hex32(&ck.chain)
        ),
        LedgerRecord::Attribution {
            session_seq,
            group,
            slot,
        } => format!("\"session_seq\":{session_seq},\"group\":{group},\"slot\":{slot}"),
    };
    format!(
        "{{\"seq\":{},\"at_ms\":{},\"kind\":\"{kind}\",{detail}}}",
        e.seq, e.at_ms
    )
}

/// Offline verification: replay the chain, resolve checkpoint signers from
/// the replayed world ("NO" → NPK, "MR-k" → the router's certified key).
fn cmd_verify(spec: &WorldSpec, dir: Option<&str>) -> Result<(), String> {
    let dir = need_dir(dir)?;
    let w = build_world(spec).map_err(|e| e.to_string())?;
    let npk = *w.no.npk();
    let router_keys: Vec<(String, peace::ecdsa::VerifyingKey)> = w
        .routers
        .iter()
        .map(|r| (r.id().0.clone(), *r.signing_key().verifying_key()))
        .collect();
    let report = verify_chain(dir, |signer| {
        if signer == "NO" {
            return Some(npk);
        }
        router_keys
            .iter()
            .find(|(name, _)| name == signer)
            .map(|(_, k)| *k)
    })
    .map_err(|e| format!("chain verification FAILED: {e}"))?;
    println!(
        "chain OK: {} record(s) in {} segment(s), {} checkpoint(s) verified",
        report.records, report.segments, report.checkpoints_verified
    );
    println!(
        "head: seq {} chain {}{}",
        report.next_seq,
        hex32(&report.chain),
        if report.anchored {
            " (anchored by final checkpoint)"
        } else {
            ""
        }
    );
    if report.torn_bytes > 0 {
        println!("torn tail: {} byte(s) pending recovery", report.torn_bytes);
    }
    Ok(())
}

/// Offline verification of a whole replica directory: every shard chain
/// replays (frames, hash chain) and every checkpoint signature — the
/// local writer's and those pulled from peers — verifies against the
/// replayed world's keys.
fn cmd_verify_replica(spec: &WorldSpec, dir: Option<&str>) -> Result<(), String> {
    let dir = need_dir(dir)?;
    let w = build_world(spec).map_err(|e| e.to_string())?;
    let npk = *w.no.npk();
    let report = peace::ledger::verify_replica(dir, &|signer: &str| {
        (signer == "NO" || signer.starts_with("NO-")).then_some(npk)
    })
    .map_err(|e| format!("replica verification FAILED: {e}"))?;
    for (writer, r) in &report.shards {
        println!(
            "shard {writer}: {} record(s) in {} segment(s), {} checkpoint(s) verified, head {}",
            r.records,
            r.segments,
            r.checkpoints_verified,
            hex32(&r.chain)
        );
    }
    println!(
        "replica OK: {} shard(s), {} record(s), {} checkpoint(s) verified",
        report.shards.len(),
        report.records(),
        report.checkpoints_verified()
    );
    Ok(())
}

fn cmd_query(dir: Option<&str>, q: LedgerQuery) -> Result<(), String> {
    let ledger = open(need_dir(dir)?)?;
    let entries = ledger.query(&q).map_err(|e| e.to_string())?;
    for e in &entries {
        println!("{}", entry_json(e));
    }
    eprintln!("{} record(s) matched", entries.len());
    Ok(())
}

fn cmd_sweep(
    spec: &WorldSpec,
    dir: Option<&str>,
    since: u64,
    until: u64,
    apply: bool,
) -> Result<(), String> {
    let mut ledger = open(need_dir(dir)?)?;
    let w = build_world(spec).map_err(|e| e.to_string())?;
    let outcome = audit_sweep(&w.no, &ledger, since, until).map_err(|e| e.to_string())?;
    println!(
        "sweep: {} examined, {} resolved, {} unresolved",
        outcome.examined,
        outcome.resolved.len(),
        outcome.unresolved.len()
    );
    for (seq, finding) in &outcome.resolved {
        println!(
            "{{\"session_seq\":{seq},\"group\":{},\"slot\":{}}}",
            finding.group.0, finding.index.slot
        );
    }
    if apply {
        let n = attribute_sweep(&mut ledger, &outcome, wall_ms()).map_err(|e| e.to_string())?;
        let ck = ledger
            .checkpoint(w.no.signing_key(), "NO", wall_ms())
            .map_err(|e| e.to_string())?;
        println!(
            "applied: {n} attribution(s) appended, checkpoint at seq {}",
            ck.seq
        );
    }
    Ok(())
}

fn cmd_export(dir: Option<&str>, out: Option<&str>) -> Result<(), String> {
    let ledger = open(need_dir(dir)?)?;
    let entries = ledger.iter_all().map_err(|e| e.to_string())?;
    let mut body = String::new();
    for e in &entries {
        body.push_str(&entry_json(e));
        body.push('\n');
    }
    match out {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| e.to_string())?;
            println!("exported {} record(s) to {path}", entries.len());
        }
        None => print!("{body}"),
    }
    Ok(())
}

/// Builds a small but fully featured fixture: real handshakes through the
/// replayed world's routers, the transcripts chained as access records, a
/// user revocation, and a final NO-signed checkpoint. Used by CI as the
/// `verify-chain` smoke-test input. With `--replicate R` it instead
/// builds `R` gossip-converged replica directories (`replica-<i>`), the
/// `verify-replica` smoke-test input.
fn cmd_gen_fixture(
    spec: &WorldSpec,
    dir: Option<&str>,
    sessions: u64,
    replicate: usize,
) -> Result<(), String> {
    let dir = need_dir(dir)?;
    if replicate > 0 {
        return gen_replicated_fixture(spec, dir, sessions, replicate);
    }
    let mut w: BuiltWorld = build_world(spec).map_err(|e| e.to_string())?;
    let (mut ledger, _) = Ledger::open(dir, LedgerConfig::default()).map_err(|e| e.to_string())?;
    if !ledger.is_empty() {
        return Err("fixture dir already holds a ledger; use an empty dir".into());
    }
    let mut now = 1_000u64;
    for s in 0..sessions as usize {
        let router = &mut w.routers[s % spec.routers];
        let user = &mut w.users[s % spec.users];
        let beacon = router.beacon(now, &mut w.rng);
        let req = user
            .request_access(&beacon, now + 50, &mut w.rng)
            .map_err(|e| format!("fixture handshake failed: {e:?}"))?;
        router
            .process_access_request(&req, now + 100)
            .map_err(|e| format!("fixture handshake rejected: {e:?}"))?;
        now += 1_000;
    }
    for router in &mut w.routers {
        let name = router.id().0.clone();
        for session in router.drain_log() {
            ledger
                .append(
                    LedgerRecord::Access(peace::ledger::AccessRecord {
                        router: name.clone(),
                        session,
                    }),
                    now,
                )
                .map_err(|e| e.to_string())?;
        }
    }
    // A revocation record and the anchoring checkpoint.
    let url_version = {
        w.no.revoke_member(&w.tokens[0]);
        w.no.url_version()
    };
    ledger
        .append(
            LedgerRecord::UserRevocation {
                token: w.tokens[0],
                url_version,
            },
            now,
        )
        .map_err(|e| e.to_string())?;
    let ck = ledger
        .checkpoint(w.no.signing_key(), "NO", now)
        .map_err(|e| e.to_string())?;
    ledger.flush().map_err(|e| e.to_string())?;
    println!(
        "fixture: {} record(s), checkpoint at seq {} in {dir}",
        ledger.len(),
        ck.seq
    );
    Ok(())
}

/// Builds `replicate` gossip-converged replica directories under `dir`:
/// real handshake transcripts are accepted round-robin across the
/// replicas (each acceptance checkpointed by that replica's shard), then
/// every replica pulls every peer's checkpoint-attested ranges until all
/// merged digests agree.
fn gen_replicated_fixture(
    spec: &WorldSpec,
    dir: &str,
    sessions: u64,
    replicate: usize,
) -> Result<(), String> {
    use peace::ledger::{LedgerConfig, ReplicatedLedger};
    if replicate < 2 {
        return Err("--replicate needs at least 2 replicas".into());
    }
    let mut w: BuiltWorld = build_world(spec).map_err(|e| e.to_string())?;
    let npk = *w.no.npk();
    let resolve = move |s: &str| (s == "NO" || s.starts_with("NO-")).then_some(npk);

    let mut replicas: Vec<ReplicatedLedger> = Vec::new();
    for i in 0..replicate {
        let path = std::path::Path::new(dir).join(format!("replica-{i}"));
        let (mut rl, _) =
            ReplicatedLedger::open(&path, &format!("NO-{i}"), LedgerConfig::default(), &resolve)
                .map_err(|e| format!("replica {i} open failed: {e}"))?;
        if !rl.local_mut().is_empty() {
            return Err(format!(
                "{} already holds a ledger; use an empty dir",
                path.display()
            ));
        }
        replicas.push(rl);
    }

    // Real transcripts, accepted round-robin across the replicas.
    let mut now = 1_000u64;
    for s in 0..sessions as usize {
        let router = &mut w.routers[s % spec.routers];
        let user = &mut w.users[s % spec.users];
        let beacon = router.beacon(now, &mut w.rng);
        let req = user
            .request_access(&beacon, now + 50, &mut w.rng)
            .map_err(|e| format!("fixture handshake failed: {e:?}"))?;
        router
            .process_access_request(&req, now + 100)
            .map_err(|e| format!("fixture handshake rejected: {e:?}"))?;
        now += 1_000;
    }
    let mut transcripts = Vec::new();
    for router in &mut w.routers {
        let name = router.id().0.clone();
        for session in router.drain_log() {
            transcripts.push((name.clone(), session));
        }
    }
    for (i, (router, session)) in transcripts.into_iter().enumerate() {
        let rl = &mut replicas[i % replicate];
        rl.local_mut()
            .append(
                LedgerRecord::Access(peace::ledger::AccessRecord { router, session }),
                now,
            )
            .map_err(|e| e.to_string())?;
    }
    for rl in &mut replicas {
        if !rl.local_mut().is_empty() {
            let signer = rl.local_id().to_owned();
            rl.local_mut()
                .checkpoint(w.no.signing_key(), &signer, now)
                .map_err(|e| e.to_string())?;
        }
        rl.flush().map_err(|e| e.to_string())?;
    }

    // All-pairs pull gossip: each replica in turn steps out of the list
    // and mirrors every peer writer's checkpoint-attested ranges,
    // verifying the signature on each.
    for dst in 0..replicate {
        let mut puller = replicas.remove(dst);
        for src in &replicas {
            let (_, refused) = puller.pull_from(src, &resolve);
            if let Some(e) = refused.first() {
                return Err(e.to_string());
            }
        }
        replicas.insert(dst, puller);
    }

    let mut digests = Vec::new();
    for rl in &mut replicas {
        rl.flush().map_err(|e| e.to_string())?;
        digests.push(rl.merged_digest().map_err(|e| e.to_string())?);
    }
    if !digests.windows(2).all(|w| w[0] == w[1]) {
        return Err("replica fixture did not converge".into());
    }
    let records = replicas[0].total_records();
    println!(
        "replicated fixture: {replicate} replica(s) in {dir}, {records} record(s) each, merged digest {}",
        hex32(&digests[0])
    );
    Ok(())
}
