//! Command-line front end for exploring the PEACE reproduction.
//!
//! ```text
//! peace-cli sizes                    # E1 size table
//! peace-cli handshake [--count N]    # run N full user↔router handshakes, report latency
//! peace-cli audit                    # dispute walkthrough (audit + trace)
//! peace-cli dos [--flood R]          # DoS model at flood rate R (req/s)
//! peace-cli phishing [--period S]    # phishing window for a given update period
//! peace-cli url-growth [--days D]    # |URL| growth with vs without renewal
//! ```

use std::process::ExitCode;
use std::time::Instant;

use peace::groupsig::GroupSignature;
use peace::protocol::{entities::*, ids::UserId, ProtocolConfig};
use peace::sim::{run_dos_experiment, run_phishing_experiment, run_url_growth};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

    match cmd {
        "sizes" => sizes(),
        "handshake" => handshake(flag("--count", 5)),
        "audit" => audit(),
        "dos" => dos(flag("--flood", 200)),
        "phishing" => phishing(flag("--period", 20)),
        "url-growth" => url_growth(flag("--days", 12)),
        "help" | "--help" | "-h" => {
            print_help();
        }
        other => {
            eprintln!("unknown command: {other}\n");
            print_help();
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn print_help() {
    println!("PEACE reproduction CLI (Ren & Lou, ICDCS 2008)\n");
    println!("commands:");
    println!("  sizes                   E1 size table (signatures, messages)");
    println!("  handshake [--count N]   run N full anonymous handshakes, report latency");
    println!("  audit                   dispute walkthrough: audit → group, trace → user");
    println!("  dos [--flood R]         client-puzzle defense at R bogus req/s");
    println!("  phishing [--period S]   revoked-router phishing window, S-second updates");
    println!("  url-growth [--days D]   |URL| growth with vs without periodic renewal");
}

struct Net {
    no: NetworkOperator,
    gm: GroupManager,
    ttp: Ttp,
    rng: StdRng,
}

fn bootstrap(group_name: &str, keys: usize) -> Net {
    let mut rng = StdRng::seed_from_u64(2008);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let gid = no.register_group(group_name, &mut rng);
    let (gm_b, ttp_b) = no.issue_shares(gid, keys, &mut rng).expect("issue shares");
    let mut gm = GroupManager::new(gid);
    gm.receive_bundle(&gm_b, no.npk()).expect("gm bundle");
    let mut ttp = Ttp::new();
    ttp.receive_bundle(&ttp_b, no.npk()).expect("ttp bundle");
    Net { no, gm, ttp, rng }
}

fn enroll(net: &mut Net, name: &str) -> UserClient {
    let uid = UserId(name.to_owned());
    let mut user = UserClient::new(
        uid.clone(),
        net.no.prepared_gpk(),
        *net.no.npk(),
        *net.no.config(),
        &mut net.rng,
    );
    let a = net.gm.assign(&uid).expect("share available");
    let d = net.ttp.deliver(a.index, &uid).expect("ttp delivery");
    let receipt = user.enroll(&a, &d).expect("valid credential");
    net.gm.store_receipt(&uid, receipt);
    user
}

fn sizes() {
    use peace::wire::Encode;
    let mut net = bootstrap("Company XYZ", 2);
    let mut alice = enroll(&mut net, "alice");
    let mut router = net.no.provision_router("MR-1", u64::MAX / 2, &mut net.rng);
    let beacon = router.beacon(1_000, &mut net.rng);
    let req = alice
        .request_access(&beacon, 1_010, &mut net.rng)
        .expect("beacon ok");
    let (confirm, _) = router
        .process_access_request(&req, 1_020)
        .expect("request ok");

    println!("object                                   bytes");
    println!("--------------------------------------- -----");
    println!(
        "group signature (ours)                   {:>5}",
        GroupSignature::ENCODED_LEN
    );
    println!("group signature (paper's curve)          {:>5}", 149);
    println!("RSA-1024 signature (comparison)          {:>5}", 128);
    println!("ECDSA-160 signature                      {:>5}", 40);
    println!(
        "beacon M.1                               {:>5}",
        beacon.to_wire().len()
    );
    println!(
        "access request M.2                       {:>5}",
        req.to_wire().len()
    );
    println!(
        "access confirm M.3                       {:>5}",
        confirm.to_wire().len()
    );
}

fn handshake(count: u64) {
    let mut net = bootstrap("Commuters", 2);
    let mut alice = enroll(&mut net, "alice");
    let mut router = net.no.provision_router("MR-1", u64::MAX / 2, &mut net.rng);
    println!("running {count} full anonymous 3-way handshakes…");
    let mut total = std::time::Duration::ZERO;
    for i in 0..count {
        let t = 1_000 + i * 100;
        let start = Instant::now();
        let beacon = router.beacon(t, &mut net.rng);
        let req = alice
            .request_access(&beacon, t + 1, &mut net.rng)
            .expect("beacon ok");
        let (confirm, mut r_sess) = router
            .process_access_request(&req, t + 2)
            .expect("request ok");
        let mut a_sess = alice
            .handle_access_confirm(&confirm, t + 2)
            .expect("confirm ok");
        let elapsed = start.elapsed();
        total += elapsed;
        let pkt = a_sess.seal_data(b"ping");
        r_sess.open_data(&pkt).expect("session works");
        println!("  handshake {}: {elapsed:.2?}", i + 1);
    }
    println!("mean: {:.2?}", total / count as u32);
}

fn audit() {
    let mut net = bootstrap("Company XYZ", 2);
    let mut alice = enroll(&mut net, "alice");
    let mut router = net.no.provision_router("MR-1", u64::MAX / 2, &mut net.rng);
    let beacon = router.beacon(1_000, &mut net.rng);
    let req = alice
        .request_access(&beacon, 1_010, &mut net.rng)
        .expect("beacon ok");
    router
        .process_access_request(&req, 1_020)
        .expect("request ok");
    net.no.ingest_router_log(&mut router);
    let sid = peace::protocol::SessionId::from_points(&req.g_rr, &req.g_rj);
    println!("disputed session: {sid}");
    let finding = net.no.audit(&sid).expect("session logged");
    println!(
        "operator audit → responsible entity: '{}' (nothing more)",
        net.no.group_name(finding.group).unwrap_or("?")
    );
    let law = LawAuthority::new();
    let mut gms = std::collections::HashMap::new();
    let gid = finding.group;
    gms.insert(gid, net.gm);
    let trace = law.trace(&net.no, &gms, &sid).expect("trace completes");
    println!("law authority + group manager → user: {}", trace.uid);
}

fn dos(flood: u64) {
    println!("flood {flood} bogus req/s against 5 legit req/s, 20 s:");
    for puzzles in [false, true] {
        let r = run_dos_experiment(flood as f64, 5.0, 20, puzzles, 1);
        println!(
            "  puzzles {:>3}: legit success {:>5.1}%  (shed {} bogus cheaply)",
            if puzzles { "on" } else { "off" },
            100.0 * r.legit_success_rate,
            r.flood_shed
        );
    }
}

fn phishing(period_s: u64) {
    let max_age = period_s * 1_000;
    let report = run_phishing_experiment(max_age, 50_000, 500, 50_000 + 6 * max_age, 7);
    println!(
        "revocation-list update period {period_s}s → measured phishing window {:.1}s ({} successful phishes)",
        report.measured_window() as f64 / 1_000.0,
        report.attempts.iter().filter(|&&(_, ok)| ok).count()
    );
}

fn url_growth(days: u64) {
    println!("2 revocations/day, rotation every 4 days:");
    println!("day | |URL| no renewal | |URL| with renewal | delta fetch");
    for p in run_url_growth(days, 2, 4, 5) {
        let delta = match p.delta_tokens_with_rotation {
            Some(n) => format!("{n} tokens"),
            None => "full (epoch rotated)".to_owned(),
        };
        println!(
            "{:>3} | {:>15} | {:>17} | {delta}",
            p.day, p.url_len_accumulating, p.url_len_with_rotation
        );
    }
}
