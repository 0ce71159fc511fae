//! Performance snapshot for the hot crypto paths — no external bench
//! harness, just wall-clock timing plus the op-counter layer, so the
//! numbers are reproducible in an air-gapped build.
//!
//! Reports, for the group-signature pipeline:
//!
//! * sign / prepared-sign and verify / prepared-verify ops/sec,
//! * the revocation sweep vs the naive per-token scan over a growing URL,
//! * the op-count breakdown (𝔾₁ muls, 𝔾_T exps, pairings, Miller loops,
//!   final exponentiations) behind each number.
//!
//! Besides the human-readable table, the run emits `BENCH_perf.json`
//! through the shared [`BenchReport`] emitter (schema `peace-bench-v1`,
//! validated by `tools/check_bench.py`), with the process-global
//! `crypto.*` op counters embedded as a `peace-telemetry-v1` snapshot.
//!
//! Run with: `cargo run --release --example perf_report`

use std::time::Instant;

use peace::curve::G1;
use peace::groupsig::{
    h0_bases, revocation_index, revocation_sweep, sign, token_matches, verify, BasesMode,
    IssuerKey, OpSnapshot, PreparedGpk, RevocationToken,
};
use peace::revoke::{EngineConfig, RevocationEngine};
use peace::telemetry::bench::BenchReport;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Times `f` over `iters` runs and returns (ops/sec, per-op cost). The
/// op-counter scope counts this thread's operations only, so parallel
/// harnesses cannot skew the counts.
fn measure<F: FnMut()>(iters: u32, mut f: F) -> (f64, OpSnapshot) {
    // Warm-up run (builds lazy tables, faults in code paths).
    f();
    let scope = OpSnapshot::scope();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let mut cost = scope.counts();
    cost.g1_muls /= u64::from(iters);
    cost.gt_exps /= u64::from(iters);
    cost.pairings /= u64::from(iters);
    cost.miller_loops /= u64::from(iters);
    cost.final_exps /= u64::from(iters);
    (f64::from(iters) / elapsed, cost)
}

fn print_row(label: &str, ops: f64, cost: &OpSnapshot) {
    println!(
        "  {label:<28} {ops:>9.1} ops/s   g1={:<3} gt={:<2} pair={:<2} miller={:<3} finexp={}",
        cost.g1_muls, cost.gt_exps, cost.pairings, cost.miller_loops, cost.final_exps
    );
}

/// Records one measured row into the artifact: ops/sec plus the per-op
/// pairing-cost shape under `<key>_*`.
fn report_row(r: &mut BenchReport, key: &str, ops: f64, cost: &OpSnapshot) {
    r.float(&format!("{key}_ops_per_sec"), ops, 1);
    r.uint(&format!("{key}_g1_muls"), cost.g1_muls);
    r.uint(&format!("{key}_pairings"), cost.pairings);
    r.uint(&format!("{key}_miller_loops"), cost.miller_loops);
    r.uint(&format!("{key}_final_exps"), cost.final_exps);
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2008);
    let issuer = IssuerKey::generate(&mut rng);
    let gpk = *issuer.public_key();
    let grp = issuer.new_group_secret(&mut rng);
    let member = issuer.issue(&grp, &mut rng);
    let prepared = PreparedGpk::new(&gpk);
    let mode = BasesMode::PerMessage;
    let msg = b"perf report payload";
    let mut report = BenchReport::new("perf_report");

    println!("== PEACE crypto perf snapshot (per-op counts in the right columns) ==\n");

    println!("sign / verify:");
    let mut r = StdRng::seed_from_u64(1);
    let (ops, cost) = measure(30, || {
        let _ = sign(&gpk, &member, msg, mode, &mut r);
    });
    print_row("sign (plain)", ops, &cost);
    report_row(&mut report, "sign_plain", ops, &cost);
    let mut r = StdRng::seed_from_u64(1);
    let (ops, cost) = measure(30, || {
        let _ = prepared.sign(&member, msg, mode, &mut r);
    });
    print_row("sign (prepared tables)", ops, &cost);
    report_row(&mut report, "sign_prepared", ops, &cost);

    let sig = sign(&gpk, &member, msg, mode, &mut rng);
    let (ops, cost) = measure(30, || {
        verify(&gpk, msg, &sig, mode).unwrap();
    });
    print_row("verify (plain)", ops, &cost);
    report_row(&mut report, "verify_plain", ops, &cost);
    let (ops, cost) = measure(30, || {
        prepared.verify(msg, &sig, mode).unwrap();
    });
    print_row("verify (prepared tables)", ops, &cost);
    report_row(&mut report, "verify_prepared", ops, &cost);

    println!("\nrevocation check, |URL| = n (signer unrevoked — full scan):");
    let tokens: Vec<_> = (0..64)
        .map(|_| issuer.issue(&grp, &mut rng).revocation_token())
        .collect();
    let (u_hat, v_hat) = h0_bases(&gpk, msg, &sig.r, mode);
    for n in [4usize, 16, 64] {
        let url = &tokens[..n];
        let (ops, cost) = measure(8, || {
            assert!(revocation_sweep(&sig, url, &u_hat, &v_hat).is_none());
        });
        print_row(&format!("sweep        n={n}"), ops, &cost);
        report_row(&mut report, &format!("sweep_n{n}"), ops, &cost);
        let (ops, cost) = measure(8, || {
            assert!(!url.iter().any(|t| token_matches(&sig, t, &u_hat, &v_hat)));
        });
        print_row(&format!("naive scan   n={n}"), ops, &cost);
        report_row(&mut report, &format!("naive_n{n}"), ops, &cost);
    }

    println!("\ncombined router-side check (verify + sweep, shared H0 bases):");
    let url = &tokens[..16];
    let (ops, cost) = measure(8, || {
        assert_eq!(prepared.verify_and_check(msg, &sig, url, mode), Ok(None));
    });
    print_row("verify_and_check n=16", ops, &cost);
    report_row(&mut report, "verify_and_check_n16", ops, &cost);
    let (ops, cost) = measure(8, || {
        prepared.verify(msg, &sig, mode).unwrap();
        assert!(revocation_index(&gpk, msg, &sig, url, mode).is_none());
    });
    print_row("verify + separate scan", ops, &cost);
    report_row(&mut report, "verify_separate_n16", ops, &cost);

    println!("\n(sweep cost shape: n+1 Miller loops, 1 final exponentiation; naive: 2n pairings)");

    // URL-scaling curve: the staged revocation engine (cache → prefilter →
    // sweep) against metropolitan-size lists. Tokens are synthetic distinct
    // 𝔾₁ points — the engine treats them opaquely, and issuing 10⁵ real
    // credentials would dominate the report without changing what is
    // measured. The one-time warm sweep / filter build per list size is the
    // O(|URL|) cost the engine exists to amortize away; the measured rows
    // are the steady-state per-request cost, which stays flat in |URL|.
    println!("\nURL scaling (staged engine; steady-state per-request cost):");
    let synth_url = |n: usize| -> Vec<RevocationToken> {
        let g = G1::generator();
        let mut p = g;
        (0..n)
            .map(|_| {
                p = p.add(&g);
                RevocationToken(p)
            })
            .collect()
    };
    let fb_sig = sign(&gpk, &member, msg, BasesMode::FixedBases, &mut rng);
    for n in [100usize, 1_000, 10_000, 100_000] {
        let url = synth_url(n);

        // Cold sweep (cache disabled): the pre-subsystem O(|URL|) cost per
        // request, kept to sizes where each op stays sub-second.
        if n <= 1_000 {
            let mut eng = RevocationEngine::new(
                &gpk,
                EngineConfig {
                    cache_capacity: 0,
                    ..EngineConfig::default()
                },
            );
            eng.install_full(0, 1, &url);
            let iters = if n <= 100 { 8 } else { 4 };
            let (ops, cost) = measure(iters, || {
                assert_eq!(eng.verify_and_check(&prepared, msg, &sig), Ok(None));
            });
            print_row(&format!("vac cold     n={n}"), ops, &cost);
            report_row(&mut report, &format!("vac_cold_n{n}"), ops, &cost);
        }

        // Cached: repeat traffic at an unchanged URL version. The warm-up
        // call inside measure() pays the single sweep; every measured op
        // is signature verification + an O(1) cache hit.
        let mut eng = RevocationEngine::new(&gpk, EngineConfig::default());
        eng.install_full(0, 1, &url);
        let (ops, cost) = measure(10, || {
            assert_eq!(eng.verify_and_check(&prepared, msg, &sig), Ok(None));
        });
        print_row(&format!("vac cached   n={n}"), ops, &cost);
        report_row(&mut report, &format!("vac_cached_n{n}"), ops, &cost);

        // Prefiltered (fixed-bases mode): a fresh signer each time would
        // miss the cache, but the Bloom miss over ê(A, û) settles the
        // verdict in two extra Miller loops — no sweep, no false
        // negatives. Filter construction pays one pairing per token, so
        // the build is capped at 10⁴ here.
        if n <= 10_000 {
            let mut eng = RevocationEngine::new(
                &gpk,
                EngineConfig {
                    bases_mode: BasesMode::FixedBases,
                    prefilter: true,
                    cache_capacity: 0,
                    ..EngineConfig::default()
                },
            );
            eng.install_full(0, 1, &url);
            let (ops, cost) = measure(10, || {
                assert_eq!(eng.verify_and_check(&prepared, msg, &fb_sig), Ok(None));
            });
            print_row(&format!("vac prefilter n={n}"), ops, &cost);
            report_row(&mut report, &format!("vac_prefilter_n{n}"), ops, &cost);
        }
    }
    println!("  (baseline: verify (prepared tables) above — the 3x acceptance bound)\n");

    // The process-global registry as the run left it. Each measure()
    // scope zeroes the crypto.* counters on entry, so these are the ops
    // of the last measured region — the registry-backed counterpart of
    // the final table row.
    report.json(
        "telemetry",
        &peace::telemetry::global().snapshot().to_json(),
    );
    match report.emit("perf") {
        Ok(path) => println!("artifact written to {}", path.display()),
        Err(e) => {
            eprintln!("artifact write failed: {e}");
            std::process::exit(1);
        }
    }
}
