//! E2 — computational overhead (paper §V.C "Computational Overhead").
//!
//! The paper: "signature generation requires about 8 exponentiations … and
//! 2 bilinear map computations. Signature verification takes 6
//! exponentiations and 3 + 2|URL| computations of the bilinear map."
//!
//! This bench measures wall time for sign/verify and prints the *operation
//! counts* captured by the instrumented curve/pairing layers so the shape
//! can be compared against the paper's accounting directly.

use criterion::{criterion_group, criterion_main, Criterion};
use peace_groupsig::{revocation_index, sign, verify, BasesMode, IssuerKey, OpSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn print_op_counts() {
    let mut rng = StdRng::seed_from_u64(3);
    let issuer = IssuerKey::generate(&mut rng);
    let grp = issuer.new_group_secret(&mut rng);
    let member = issuer.issue(&grp, &mut rng);
    let gpk = *issuer.public_key();

    println!("\n=== E2: operation counts (instrumented) ===");
    println!("paper: sign ≈ 8 exp + 2 pairings; verify = 6 exp + (3+2|URL|) pairings\n");

    // One scope across the whole report (it counts this thread's work).
    let scope = OpSnapshot::scope();
    let sig = sign(&gpk, &member, b"m", BasesMode::PerMessage, &mut rng);
    let s = scope.counts();
    println!(
        "sign:   {} group exps + {} Gt exps = {} exponentiations, {} pairings",
        s.g1_muls,
        s.gt_exps,
        s.total_exps(),
        s.pairings
    );

    let before = OpSnapshot::capture();
    verify(&gpk, b"m", &sig, BasesMode::PerMessage).unwrap();
    let v = OpSnapshot::capture().since(&before);
    println!(
        "verify: {} group exps + {} Gt exps = {} exponentiations, {} pairings",
        v.g1_muls,
        v.gt_exps,
        v.total_exps(),
        v.pairings
    );

    for url_len in [0usize, 1, 5, 10] {
        let url: Vec<_> = (0..url_len)
            .map(|_| issuer.issue(&grp, &mut rng).revocation_token())
            .collect();
        let before = OpSnapshot::capture();
        let _ = revocation_index(&gpk, b"m", &sig, &url, BasesMode::PerMessage);
        let r = OpSnapshot::capture().since(&before);
        println!(
            "revocation check |URL|={url_len}: {} pairings (paper: 2|URL| = {})",
            r.pairings,
            2 * url_len
        );
    }
    println!();
}

fn bench_sign_verify(c: &mut Criterion) {
    print_op_counts();

    let mut rng = StdRng::seed_from_u64(4);
    let issuer = IssuerKey::generate(&mut rng);
    let grp = issuer.new_group_secret(&mut rng);
    let member = issuer.issue(&grp, &mut rng);
    let gpk = *issuer.public_key();
    let sig = sign(&gpk, &member, b"bench", BasesMode::PerMessage, &mut rng);

    let mut g = c.benchmark_group("e2_signature");
    g.sample_size(10);
    g.bench_function("groupsig_sign", |b| {
        b.iter(|| sign(&gpk, &member, b"bench", BasesMode::PerMessage, &mut rng))
    });
    g.bench_function("groupsig_verify", |b| {
        b.iter(|| verify(&gpk, b"bench", &sig, BasesMode::PerMessage).unwrap())
    });
    // Baseline comparisons: ECDSA-160 (the paper's conventional-signature
    // yardstick) and a raw pairing evaluation.
    let ecdsa_key = peace_ecdsa::SigningKey::random(&mut rng);
    let ecdsa_sig = ecdsa_key.sign(b"bench");
    g.bench_function("ecdsa160_sign", |b| b.iter(|| ecdsa_key.sign(b"bench")));
    g.bench_function("ecdsa160_verify", |b| {
        b.iter(|| ecdsa_key.verifying_key().verify(b"bench", &ecdsa_sig))
    });
    let p = peace_curve::G1::generator();
    let q = peace_curve::G2::generator();
    g.bench_function("single_pairing", |b| {
        b.iter(|| peace_pairing::pairing(&p, &q))
    });
    let k = peace_field::Fq::from_u64(0x1234_5678_9abc);
    g.bench_function("g1_scalar_mul", |b| b.iter(|| p.mul(&k)));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_sign_verify
}
criterion_main!(benches);
