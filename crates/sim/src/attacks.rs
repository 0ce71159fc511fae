//! Adversary models and attack experiments (paper §V.A).
//!
//! * [`run_dos_experiment`] — connection-depletion flood against a mesh
//!   router, with and without Juels–Brainard client puzzles (E5);
//! * [`run_phishing_experiment`] — a freshly revoked router replaying stale
//!   revocation lists; measures the exposure window (E6);
//! * [`run_injection_matrix`] — the bogus-data injection matrix: outsider,
//!   revoked user, revoked router, honest control (E7).

use peace_protocol::entities::{GroupManager, NetworkOperator, Ttp, UserClient};
use peace_protocol::ids::UserId;
use peace_protocol::{ProtocolConfig, ProtocolError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Virtual cost model for the DoS experiment, in milliseconds of router CPU.
///
/// The defaults are model constants, not measurements: `verify_cost_ms`
/// is 40 ms, about 11× the measured `protocol.process_access_request_us`
/// (≈ 3.5 ms), and a puzzle-solution check is microseconds. E5's
/// crossover flood rate is a property of these constants.
#[derive(Clone, Copy, Debug)]
pub struct DosCostModel {
    /// Router CPU budget per second of simulated time (ms).
    pub router_budget_ms_per_s: f64,
    /// Cost of a full M.2 verification (group signature + URL scan), ms.
    pub verify_cost_ms: f64,
    /// Cost of checking a puzzle solution, ms.
    pub puzzle_check_cost_ms: f64,
    /// Attacker hash throughput (SHA-256 evaluations per second).
    pub attacker_hashes_per_s: f64,
    /// Puzzle difficulty in bits per sub-puzzle.
    pub puzzle_difficulty: u8,
    /// Sub-puzzles per puzzle.
    pub sub_puzzles: u8,
}

impl Default for DosCostModel {
    fn default() -> Self {
        Self {
            router_budget_ms_per_s: 1_000.0,
            verify_cost_ms: 40.0,
            puzzle_check_cost_ms: 0.01,
            attacker_hashes_per_s: 2_000_000.0,
            puzzle_difficulty: 18,
            sub_puzzles: 2,
        }
    }
}

/// One row of the E5 sweep.
#[derive(Clone, Copy, Debug)]
pub struct DosReport {
    /// Bogus access requests per second.
    pub flood_rate_per_s: f64,
    /// Whether puzzles were enabled.
    pub puzzles_enabled: bool,
    /// Fraction of legitimate requests served.
    pub legit_success_rate: f64,
    /// Bogus requests that consumed full verification cost.
    pub flood_verified: u64,
    /// Bogus requests shed at the puzzle check.
    pub flood_shed: u64,
    /// Router CPU consumed (ms).
    pub router_cpu_ms: f64,
}

/// Simulates `duration_s` seconds of a flood at `flood_rate_per_s` bogus
/// M.2 messages per second against one router serving `legit_rate_per_s`
/// honest requests per second.
///
/// The queueing model is per-second batches: within each second the router
/// spends its CPU budget on arrivals in random order; a legitimate request
/// succeeds if the router had budget left to fully verify it. With puzzles
/// on, bogus requests without valid solutions are shed at
/// `puzzle_check_cost_ms`; the attacker can afford at most
/// `attacker_hashes_per_s / expected_work` *valid* puzzle solutions per
/// second, and only those force full verification cost.
pub fn run_dos_experiment(
    model: &DosCostModel,
    flood_rate_per_s: f64,
    legit_rate_per_s: f64,
    duration_s: u64,
    puzzles_enabled: bool,
    seed: u64,
) -> DosReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let expected_work = (model.sub_puzzles as f64) * 2f64.powi(model.puzzle_difficulty as i32 - 1);
    let attacker_solutions_per_s = if puzzles_enabled {
        model.attacker_hashes_per_s / expected_work
    } else {
        f64::INFINITY // irrelevant
    };

    let mut legit_attempts = 0u64;
    let mut legit_served = 0u64;
    let mut flood_verified = 0u64;
    let mut flood_shed = 0u64;
    let mut cpu_total = 0.0f64;

    for _second in 0..duration_s {
        let mut budget = model.router_budget_ms_per_s;
        // Arrivals this second (Poisson-ish via independent counts).
        let legit_n = poisson_draw(legit_rate_per_s, &mut rng);
        let flood_n = poisson_draw(flood_rate_per_s, &mut rng);
        // With puzzles, only a bounded number of bogus requests carry valid
        // solutions; the rest are shed cheaply.
        let flood_with_solutions = if puzzles_enabled {
            (attacker_solutions_per_s.min(flood_n as f64)) as u64
        } else {
            flood_n
        };

        // Build the arrival mix and shuffle.
        #[derive(Clone, Copy)]
        enum Arrival {
            Legit,
            FloodFull,
            FloodCheap,
        }
        let mut arrivals = Vec::with_capacity((legit_n + flood_n) as usize);
        arrivals.resize(legit_n as usize, Arrival::Legit);
        arrivals.resize(
            (legit_n + flood_with_solutions) as usize,
            Arrival::FloodFull,
        );
        arrivals.resize((legit_n + flood_n) as usize, Arrival::FloodCheap);
        // Fisher–Yates
        for i in (1..arrivals.len()).rev() {
            let j = rng.gen_range(0..=i);
            arrivals.swap(i, j);
        }

        for a in arrivals {
            match a {
                Arrival::Legit => {
                    legit_attempts += 1;
                    // Legit requests always carry valid solutions (clients
                    // solve the beacon puzzle), so cost = optional puzzle
                    // check + full verification.
                    let cost = model.verify_cost_ms
                        + if puzzles_enabled {
                            model.puzzle_check_cost_ms
                        } else {
                            0.0
                        };
                    if budget >= cost {
                        budget -= cost;
                        cpu_total += cost;
                        legit_served += 1;
                    }
                }
                Arrival::FloodFull => {
                    // Bogus but with a valid puzzle solution: router pays
                    // full verification before the signature fails.
                    let cost = model.verify_cost_ms + model.puzzle_check_cost_ms;
                    if budget >= cost {
                        budget -= cost;
                        cpu_total += cost;
                        flood_verified += 1;
                    }
                }
                Arrival::FloodCheap => {
                    if puzzles_enabled {
                        let cost = model.puzzle_check_cost_ms;
                        if budget >= cost {
                            budget -= cost;
                            cpu_total += cost;
                        }
                        flood_shed += 1;
                    } else {
                        // No puzzles: every bogus request costs a full
                        // verification (the §V.A vulnerability).
                        let cost = model.verify_cost_ms;
                        if budget >= cost {
                            budget -= cost;
                            cpu_total += cost;
                            flood_verified += 1;
                        }
                    }
                }
            }
        }
    }

    DosReport {
        flood_rate_per_s,
        puzzles_enabled,
        legit_success_rate: if legit_attempts == 0 {
            1.0
        } else {
            legit_served as f64 / legit_attempts as f64
        },
        flood_verified,
        flood_shed,
        router_cpu_ms: cpu_total,
    }
}

fn poisson_draw(lambda: f64, rng: &mut StdRng) -> u64 {
    // Knuth's algorithm; adequate for the λ ranges used here.
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 500.0 {
        // normal approximation for large λ
        let g: f64 = {
            // Box–Muller
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        return (lambda + lambda.sqrt() * g).max(0.0).round() as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen_range(0.0f64..1.0);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Result of the phishing-window experiment.
#[derive(Clone, Debug)]
pub struct PhishingReport {
    /// The configured list maximum age (ms) — the CRL update period.
    pub list_max_age: u64,
    /// Time of router revocation (ms).
    pub revoked_at: u64,
    /// Each phishing attempt: (time, succeeded).
    pub attempts: Vec<(u64, bool)>,
    /// The last simulation time at which a phish succeeded (None if never).
    pub last_successful_phish: Option<u64>,
}

impl PhishingReport {
    /// The measured exposure window after revocation (ms).
    pub fn measured_window(&self) -> u64 {
        self.last_successful_phish
            .map(|t| t.saturating_sub(self.revoked_at))
            .unwrap_or(0)
    }
}

/// Runs the §V.A phishing scenario: a router is revoked at `revoked_at` but
/// keeps broadcasting beacons with the revocation lists captured just
/// before its revocation. An honest user attempts a connection every
/// `attempt_interval` ms until `end_time`.
///
/// The paper's claim: the user "may be cheated … but only for up to
/// (inverse of the update frequency − (current time − last periodical
/// update time))" — i.e. the measured window is bounded by the list age
/// limit.
pub fn run_phishing_experiment(
    list_max_age: u64,
    revoked_at: u64,
    attempt_interval: u64,
    end_time: u64,
    seed: u64,
) -> PhishingReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = ProtocolConfig {
        list_max_age,
        // Beacons must stay "fresh" even late in the run; only the list age
        // should bound the attack.
        timestamp_window: end_time,
        ..ProtocolConfig::default()
    };
    let mut no = NetworkOperator::new(config, &mut rng);
    let gid = no.register_group("victims", &mut rng);
    let (gm_bundle, ttp_bundle) = no.issue_shares(gid, 2, &mut rng).expect("group registered");
    let mut gm = GroupManager::new(gid);
    gm.receive_bundle(&gm_bundle, no.npk()).expect("bundle");
    let mut ttp = Ttp::new();
    ttp.receive_bundle(&ttp_bundle, no.npk()).expect("bundle");

    let uid = UserId("victim".into());
    let mut user = UserClient::new(uid.clone(), *no.gpk(), *no.npk(), *no.config(), &mut rng);
    let assignment = gm.assign(&uid).expect("share");
    let delivery = ttp.deliver(assignment.index, &uid).expect("delivery");
    user.enroll(&assignment, &delivery).expect("enroll");

    let mut rogue = no.provision_router("MR-rogue", u64::MAX / 2, &mut rng);
    // Rogue captures the lists at the moment just before revocation.
    let captured_crl = no.publish_crl(revoked_at.saturating_sub(1));
    let captured_url = no.publish_url(revoked_at.saturating_sub(1));
    no.revoke_router(rogue.cert().serial);
    rogue.update_lists(captured_crl, captured_url);

    let mut attempts = Vec::new();
    let mut last_success = None;
    let mut t = revoked_at + attempt_interval;
    while t <= end_time {
        let beacon = rogue.beacon(t, &mut rng);
        let ok = user.request_access(&beacon, t, &mut rng).is_ok();
        if ok {
            last_success = Some(t);
        }
        attempts.push((t, ok));
        t += attempt_interval;
    }

    PhishingReport {
        list_max_age,
        revoked_at,
        attempts,
        last_successful_phish: last_success,
    }
}

/// One row of the bogus-data injection matrix (E7).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectionOutcome {
    /// The adversary class.
    pub attacker: &'static str,
    /// Whether the network accepted the traffic (must be `false` except for
    /// the honest control row).
    pub accepted: bool,
    /// The rejection reason when refused.
    pub rejection: Option<ProtocolError>,
}

/// Runs the §V.A bogus-data injection matrix with the real protocol stack:
/// an outsider (foreign operator), a revoked user, a revoked router, and an
/// honest control.
pub fn run_injection_matrix(seed: u64) -> Vec<InjectionOutcome> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = ProtocolConfig::default();
    let mut no = NetworkOperator::new(config, &mut rng);
    let gid = no.register_group("org", &mut rng);
    let (gm_bundle, ttp_bundle) = no.issue_shares(gid, 4, &mut rng).expect("group");
    let mut gm = GroupManager::new(gid);
    gm.receive_bundle(&gm_bundle, no.npk()).expect("bundle");
    let mut ttp = Ttp::new();
    ttp.receive_bundle(&ttp_bundle, no.npk()).expect("bundle");

    let enroll = |name: &str,
                  gm: &mut GroupManager,
                  ttp: &mut Ttp,
                  no: &NetworkOperator,
                  rng: &mut StdRng| {
        let uid = UserId(name.to_owned());
        let mut u = UserClient::new(uid.clone(), no.prepared_gpk(), *no.npk(), *no.config(), rng);
        let a = gm.assign(&uid).expect("share");
        let d = ttp.deliver(a.index, &uid).expect("delivery");
        u.enroll(&a, &d).expect("enroll");
        u
    };

    let mut honest = enroll("honest", &mut gm, &mut ttp, &no, &mut rng);
    let mut revoked_user = enroll("revoked", &mut gm, &mut ttp, &no, &mut rng);
    let mut router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);

    // Revoke the second user's key: NO learns the token by auditing a
    // session it observed (realistic flow).
    let b0 = router.beacon(500, &mut rng);
    let req0 = revoked_user
        .request_access(&b0, 510, &mut rng)
        .expect("pre-revocation auth");
    router
        .process_access_request(&req0, 520)
        .expect("pre-revocation session");
    no.ingest_router_log(&mut router);
    let sid = peace_protocol::SessionId::from_points(&req0.g_rr, &req0.g_rj);
    let finding = no.audit(&sid).expect("audit");
    no.revoke_member(&finding.token);
    router.update_lists(no.publish_crl(1_000), no.publish_url(1_000));

    let mut outcomes = Vec::new();
    let now = 1_100u64;
    let beacon = router.beacon(now, &mut rng);

    // 1. Outsider: foreign-operator credential.
    {
        let mut foreign_rng = StdRng::seed_from_u64(seed ^ 0xF0F0);
        let mut foreign_no = NetworkOperator::new(config, &mut foreign_rng);
        let fgid = foreign_no.register_group("evil", &mut foreign_rng);
        let (fgm_b, fttp_b) = foreign_no
            .issue_shares(fgid, 1, &mut foreign_rng)
            .expect("g");
        let mut fgm = GroupManager::new(fgid);
        fgm.receive_bundle(&fgm_b, foreign_no.npk()).expect("b");
        let mut fttp = Ttp::new();
        fttp.receive_bundle(&fttp_b, foreign_no.npk()).expect("b");
        let outsider = enroll(
            "outsider",
            &mut fgm,
            &mut fttp,
            &foreign_no,
            &mut foreign_rng,
        );
        // Craft an M.2 signed under the foreign gpk.
        let cred = outsider.active_credential().expect("cred").clone();
        let r_j = peace_field::Fq::random_nonzero(&mut rng);
        let g_rj: peace_curve::G1Wire = beacon.g.decompress().expect("router's g").mul(&r_j).into();
        let payload = peace_protocol::AccessRequest::signed_payload(&g_rj, &beacon.g_rr, now + 10);
        let gsig = peace_groupsig::sign(
            foreign_no.gpk(),
            &cred.key,
            &payload,
            peace_groupsig::BasesMode::PerMessage,
            &mut rng,
        );
        let req = peace_protocol::AccessRequest {
            g_rj,
            g_rr: beacon.g_rr.clone(),
            ts2: now + 10,
            gsig,
            puzzle_solution: None,
        };
        let res = router.process_access_request(&req, now + 20);
        outcomes.push(InjectionOutcome {
            attacker: "outsider",
            accepted: res.is_ok(),
            rejection: res.err(),
        });
    }

    // 2. Revoked user.
    {
        let res = revoked_user
            .request_access(&beacon, now + 10, &mut rng)
            .and_then(|req| router.process_access_request(&req, now + 20));
        outcomes.push(InjectionOutcome {
            attacker: "revoked-user",
            accepted: res.is_ok(),
            rejection: res.err(),
        });
    }

    // 3. Revoked router phishing with fresh lists (cannot hide its serial).
    {
        let mut bad_router = no.provision_router("MR-bad", u64::MAX / 2, &mut rng);
        no.revoke_router(bad_router.cert().serial);
        bad_router.update_lists(no.publish_crl(now + 30), no.publish_url(now + 30));
        let bb = bad_router.beacon(now + 40, &mut rng);
        let res = honest.request_access(&bb, now + 50, &mut rng);
        outcomes.push(InjectionOutcome {
            attacker: "revoked-router",
            accepted: res.is_ok(),
            rejection: res.err(),
        });
    }

    // 4. Honest control.
    {
        // refresh router lists/beacon after the CRL bump in step 3
        router.update_lists(no.publish_crl(now + 60), no.publish_url(now + 60));
        let fresh = router.beacon(now + 70, &mut rng);
        let res = honest
            .request_access(&fresh, now + 80, &mut rng)
            .and_then(|req| router.process_access_request(&req, now + 90));
        outcomes.push(InjectionOutcome {
            attacker: "honest-control",
            accepted: res.is_ok(),
            rejection: res.err(),
        });
    }

    outcomes
}

/// Result of the eavesdropper linking game (quantitative E8).
#[derive(Clone, Copy, Debug)]
pub struct LinkingReport {
    /// Number of challenge trials.
    pub trials: u32,
    /// How often the adversary's best distinguisher guessed correctly.
    pub correct: u32,
}

impl LinkingReport {
    /// Guessing accuracy (0.5 = chance, the privacy target).
    pub fn accuracy(&self) -> f64 {
        self.correct as f64 / self.trials as f64
    }
}

/// The eavesdropper linking game: the adversary observes a *labelled*
/// access request from Alice, then two fresh requests — one from Alice,
/// one from Bob, in random order — and must say which is Alice's.
///
/// The adversary here is a concrete similarity distinguisher over the full
/// wire transcripts (byte-level Hamming similarity against the labelled
/// sample, which subsumes any equality-of-field strategy). Unlinkability
/// (§V.B) predicts accuracy ≈ 1/2.
pub fn run_linking_game(trials: u32, seed: u64) -> LinkingReport {
    use peace_wire::Encode;
    let mut rng = StdRng::seed_from_u64(seed);
    let config = ProtocolConfig::default();
    let mut no = NetworkOperator::new(config, &mut rng);
    let gid = no.register_group("org", &mut rng);
    let (gm_b, ttp_b) = no.issue_shares(gid, 2, &mut rng).expect("group");
    let mut gm = GroupManager::new(gid);
    gm.receive_bundle(&gm_b, no.npk()).expect("bundle");
    let mut ttp = Ttp::new();
    ttp.receive_bundle(&ttp_b, no.npk()).expect("bundle");

    let enroll = |name: &str, gm: &mut GroupManager, ttp: &mut Ttp, rng: &mut StdRng| {
        let uid = UserId(name.to_owned());
        let mut u = UserClient::new(uid.clone(), no.prepared_gpk(), *no.npk(), *no.config(), rng);
        let a = gm.assign(&uid).expect("share");
        let d = ttp.deliver(a.index, &uid).expect("delivery");
        u.enroll(&a, &d).expect("enroll");
        u
    };
    let mut alice = enroll("alice", &mut gm, &mut ttp, &mut rng);
    let mut bob = enroll("bob", &mut gm, &mut ttp, &mut rng);
    let mut router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);

    let similarity =
        |a: &[u8], b: &[u8]| -> u32 { a.iter().zip(b).map(|(x, y)| (x ^ y).count_zeros()).sum() };

    let mut correct = 0u32;
    let mut t = 1_000u64;
    for trial in 0..trials {
        let mut request = |user: &mut UserClient, t: u64, rng: &mut StdRng| {
            let beacon = router.beacon(t, rng);
            let req = user.request_access(&beacon, t + 1, rng).expect("auth ok");
            req.to_wire()
        };
        let labelled = request(&mut alice, t, &mut rng);
        let from_alice = request(&mut alice, t + 10, &mut rng);
        let from_bob = request(&mut bob, t + 20, &mut rng);
        t += 100;

        // Random presentation order.
        let alice_first = trial % 2 == 0;
        let (first, second) = if alice_first {
            (&from_alice, &from_bob)
        } else {
            (&from_bob, &from_alice)
        };
        let guess_first = similarity(&labelled, first) >= similarity(&labelled, second);
        if guess_first == alice_first {
            correct += 1;
        }
    }
    LinkingReport { trials, correct }
}

/// One sampled point of the URL-growth experiment.
#[derive(Clone, Copy, Debug)]
pub struct UrlGrowthPoint {
    /// Simulation day.
    pub day: u64,
    /// |URL| under plain accumulation (no renewal).
    pub url_len_accumulating: usize,
    /// |URL| with periodic epoch rotation.
    pub url_len_with_rotation: usize,
    /// Revocation-scan pairings per M.2 under each policy (2·|URL|).
    pub scan_pairings_accumulating: usize,
    /// Scan pairings with rotation.
    pub scan_pairings_with_rotation: usize,
    /// Tokens a delta-syncing router fetched that day from the
    /// accumulating operator — the O(churn) bulletin cost, flat while the
    /// full list grows without bound.
    pub delta_tokens_accumulating: usize,
    /// Tokens fetched by delta from the rotating operator; `None` on days
    /// where the epoch rotated away and the router was forced into a full
    /// list fetch.
    pub delta_tokens_with_rotation: Option<usize>,
}

/// Simulates long-run URL growth: `revocations_per_day` keys are revoked
/// each day; one operator never renews, the other rotates the system key
/// every `rotation_period_days`. Returns one sample per day.
///
/// This quantifies §V.C's "PEACE can proactively control the size of URL":
/// without renewal the verifier-local revocation cost grows without bound;
/// with periodic renewal it is capped at
/// `revocations_per_day · rotation_period_days`.
pub fn run_url_growth(
    days: u64,
    revocations_per_day: usize,
    rotation_period_days: u64,
    seed: u64,
) -> Vec<UrlGrowthPoint> {
    use peace_revoke::EpochUrlStore;

    let mut rng = StdRng::seed_from_u64(seed);
    let config = ProtocolConfig::default();
    let mut accumulating = NetworkOperator::new(config, &mut rng);
    let mut rotating = NetworkOperator::new(config, &mut rng);
    let acc_group = accumulating.register_group("org", &mut rng);
    let rot_group = rotating.register_group("org", &mut rng);

    // Router-side mirrors that follow each operator by signed URL deltas
    // (the O(churn) bulletin path), falling back to a full fetch only when
    // an epoch rotation makes chaining impossible.
    let mut acc_mirror = EpochUrlStore::new(accumulating.epoch());
    let mut rot_mirror = EpochUrlStore::new(rotating.epoch());

    let mut points = Vec::with_capacity(days as usize);
    for day in 1..=days {
        let now = day * 86_400_000;
        // Fresh members join, misbehave, and are revoked the same day —
        // each revocation goes through the public flow (enroll → sign →
        // audit → revoke), so grt bookkeeping is exercised end to end.
        revoke_fresh_members(&mut accumulating, acc_group, revocations_per_day, &mut rng);
        revoke_fresh_members(&mut rotating, rot_group, revocations_per_day, &mut rng);

        if day % rotation_period_days == 0 {
            rotating.rotate_system_key(&mut rng);
        }

        let delta_tokens_accumulating =
            sync_by_delta(&accumulating, &mut acc_mirror, now).expect("accumulating URL chains");
        let delta_tokens_with_rotation = sync_by_delta(&rotating, &mut rot_mirror, now);

        let a = accumulating.revoked_member_count();
        let r = rotating.revoked_member_count();
        points.push(UrlGrowthPoint {
            day,
            url_len_accumulating: a,
            url_len_with_rotation: r,
            scan_pairings_accumulating: 2 * a,
            scan_pairings_with_rotation: 2 * r,
            delta_tokens_accumulating,
            delta_tokens_with_rotation,
        });
    }
    points
}

/// Advances `mirror` to the operator's current URL by the delta path and
/// checks convergence against the full published list. Returns the number
/// of tokens carried over the wire, or `None` when no delta could chain
/// (epoch rotated away) and a full fetch was required instead.
fn sync_by_delta(
    no: &NetworkOperator,
    mirror: &mut peace_revoke::EpochUrlStore,
    now: u64,
) -> Option<usize> {
    let fetched = match no.publish_url_delta(mirror.epoch(), mirror.version(), now) {
        Some(signed) => {
            let n = signed.delta.added.len() + signed.delta.removed.len();
            mirror.apply_delta(&signed.delta).expect("delta chains");
            Some(n)
        }
        None => {
            let full = no.publish_url(now);
            mirror.install_full(no.epoch(), full.version, &full.tokens);
            None
        }
    };
    let full = no.publish_url(now);
    assert_eq!(
        mirror.digest(),
        peace_revoke::digest_of(no.epoch(), full.version, &full.tokens),
        "delta-synced mirror must converge to the published list"
    );
    fetched
}

fn revoke_fresh_members(
    no: &mut NetworkOperator,
    gid: peace_protocol::GroupId,
    count: usize,
    rng: &mut StdRng,
) {
    use peace_protocol::AccessRequest;
    let (gm_bundle, ttp_bundle) = no.issue_shares(gid, count, rng).expect("issue");
    let mut gm = GroupManager::new(gid);
    gm.receive_bundle(&gm_bundle, no.npk()).expect("bundle");
    let mut ttp = Ttp::new();
    ttp.receive_bundle(&ttp_bundle, no.npk()).expect("bundle");
    for i in 0..count {
        let uid = UserId(format!("churn-{i}"));
        let mut user =
            UserClient::new(uid.clone(), no.prepared_gpk(), *no.npk(), *no.config(), rng);
        let a = gm.assign(&uid).expect("share");
        let d = ttp.deliver(a.index, &uid).expect("delivery");
        user.enroll(&a, &d).expect("enroll");
        // One signed message is enough for NO to open and revoke.
        let cred = user.active_credential().expect("cred").clone();
        let g = peace_curve::G1::generator();
        let payload = AccessRequest::signed_payload(&g, &g, 0);
        let sig = peace_groupsig::sign(no.gpk(), &cred.key, &payload, no.config().bases_mode, rng);
        let finding = no.audit_raw(&payload, &sig).expect("audit");
        no.revoke_member(&finding.token);
    }
}
