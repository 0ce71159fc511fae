//! Membership dynamics and the phishing window (paper §V.A, experiments
//! E6/E7/X2): user revocation propagating through beacons, the bogus-data
//! injection matrix, the measured phishing window as a function of the
//! revocation-list update period, and |URL| growth with and without
//! periodic key renewal (§V.C).
//!
//! Run with: `cargo run --release --example revocation_dynamics`

use peace::sim::{run_injection_matrix, run_phishing_experiment, run_url_growth};

fn main() {
    println!("== PEACE revocation dynamics ==\n");

    // ------- E7: the injection matrix ----------------------------------
    println!("-- bogus-data injection matrix (real protocol stack) --");
    println!("{:<16} | {:<8} | rejection", "attacker", "accepted");
    println!("{:-<16}-+-{:-<8}-+----------", "", "");
    for outcome in run_injection_matrix(2008) {
        println!(
            "{:<16} | {:<8} | {}",
            outcome.attacker,
            outcome.accepted,
            outcome
                .rejection
                .map(|e| e.to_string())
                .unwrap_or_else(|| "-".into())
        );
    }

    // ------- E6: phishing window vs update period -----------------------
    println!("\n-- phishing window vs revocation-list update period --");
    println!("(a revoked router replays the lists captured at revocation time;");
    println!(" the paper bounds the cheat window by the update period)\n");
    println!("update period (s) | measured window (s) | successful phishes");
    println!("----------------- | ------------------- | ------------------");
    for max_age_s in [5u64, 10, 20, 40, 80] {
        let max_age = max_age_s * 1_000;
        let report = run_phishing_experiment(
            max_age,
            100_000,                           // revocation time
            500,                               // attempt every 0.5 s
            100_000 + 6 * max_age.max(10_000), // run long enough
            7,
        );
        let phishes = report.attempts.iter().filter(|&&(_, ok)| ok).count();
        println!(
            "{:>17} | {:>19.1} | {:>18}",
            max_age_s,
            report.measured_window() as f64 / 1000.0,
            phishes
        );
    }
    println!("\nthe measured window tracks the update period — matching §V.A's bound.");

    // ------- X2: |URL| growth vs periodic renewal ----------------------
    println!("\n-- |URL| growth: 2 revocations/day, rotation every 4 days --");
    println!("day | |URL| no renewal | |URL| with renewal | delta fetch");
    for p in run_url_growth(12, 2, 4, 5) {
        let delta = p
            .delta_tokens_with_rotation
            .map_or("full (epoch rotated)".into(), |n| format!("{n} tokens"));
        println!(
            "{:>3} | {:>15} | {:>17} | {delta}",
            p.day, p.url_len_accumulating, p.url_len_with_rotation
        );
    }
    println!("\nwith renewal |URL| stays capped at revocations/day × rotation period (§V.C).");
    println!("done.");
}
