//! DoS resilience via client puzzles (paper §V.A, experiment E5):
//! sweeps the flood rate and prints the legitimate-user success rate with
//! puzzles off vs on, plus the real protocol-level puzzle gate.
//!
//! Run with: `cargo run --release --example dos_defense`

use peace::protocol::{entities::*, ids::UserId, ProtocolConfig};
use peace::sim::{
    run_dos_experiment, DOS_ATTACKER_HASHES_PER_S, DOS_PUZZLE_CHECK_COST_MS, DOS_PUZZLE_DIFFICULTY,
    DOS_ROUTER_BUDGET_MS_PER_S, DOS_SUB_PUZZLES, DOS_VERIFY_COST_MS,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== PEACE DoS defense (client puzzles) ==\n");

    // ------- cost-model sweep (E5) -------------------------------------
    println!(
        "router budget {:.0} ms/s, verify {:.0} ms, puzzle check {:.2} ms,",
        DOS_ROUTER_BUDGET_MS_PER_S, DOS_VERIFY_COST_MS, DOS_PUZZLE_CHECK_COST_MS
    );
    println!(
        "attacker {:.0} Mhash/s vs {}×{}-bit puzzles (expected work 2^{})\n",
        DOS_ATTACKER_HASHES_PER_S / 1e6,
        DOS_SUB_PUZZLES,
        DOS_PUZZLE_DIFFICULTY,
        DOS_PUZZLE_DIFFICULTY as u32 + (DOS_SUB_PUZZLES as f64).log2() as u32 - 1,
    );
    println!("flood req/s | legit success (no puzzles) | legit success (puzzles)");
    println!("----------- | -------------------------- | -----------------------");
    for flood in [0.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0] {
        let off = run_dos_experiment(flood, 5.0, 20, false, 42);
        let on = run_dos_experiment(flood, 5.0, 20, true, 42);
        println!(
            "{:>11.0} | {:>26.1}% | {:>22.1}%",
            flood,
            100.0 * off.legit_success_rate,
            100.0 * on.legit_success_rate
        );
    }

    // ------- real protocol-level gate -----------------------------------
    println!("\n== protocol-level puzzle gate (real crypto) ==");
    let mut rng = StdRng::seed_from_u64(5);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let mut ttp = Ttp::new();
    let mut gm = no.found_group("org", 2, &mut ttp, &mut rng)?;
    let uid = UserId("alice".into());
    let mut alice = UserClient::new(uid, *no.gpk(), *no.npk(), *no.config(), &mut rng);
    gm.enroll(&mut ttp, &mut alice)?;
    let mut router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);

    router.set_under_attack(true);
    let beacon = router.beacon(1_000, &mut rng);
    let puzzle = beacon.puzzle.clone().expect("attack mode attaches puzzle");
    println!(
        "beacon carries a {}×{}-bit puzzle (expected work {} hashes)",
        puzzle.sub_puzzles,
        puzzle.difficulty,
        puzzle.expected_work()
    );

    let t = std::time::Instant::now();
    let req = alice.request_access(&beacon, 1_010, &mut rng)?;
    let solve_time = t.elapsed();
    let (solution_work, _) = {
        let (s, w) = puzzle.solve_counting();
        (w, s)
    };
    println!("honest client solved it in {solve_time:.2?} ({solution_work} hashes)");

    let (confirm, _) = router.process_access_request(&req, 1_020)?;
    alice.handle_access_confirm(&confirm, 1_020)?;
    println!("…and was admitted normally");

    // a flood request without a solution is shed before any pairing work
    let beacon2 = router.beacon(2_000, &mut rng);
    let mut bogus = alice.request_access(&beacon2, 2_010, &mut rng)?;
    bogus.puzzle_solution = None;
    let t = std::time::Instant::now();
    let err = router.process_access_request(&bogus, 2_020).unwrap_err();
    println!(
        "a request without a solution is shed in {:.2?}: {err}",
        t.elapsed()
    );

    println!("\ndone.");
    Ok(())
}
