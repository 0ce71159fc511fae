//! The beacon as a broadcast (§IV.B): a router serves the beacon it last
//! minted to every poll inside half a timestamp window, and a user who
//! already holds that beacon verifies and decodes it only once. Time is an
//! input throughout.

use peace_groupsig::OpSnapshot;
use peace_protocol::config::{BEACON_LIFETIME, MAX_ACTIVE_BEACONS};
use peace_protocol::entities::{MeshRouter, NetworkOperator, Ttp, UserClient};
use peace_protocol::ids::UserId;
use peace_protocol::{Beacon, ProtocolConfig, ProtocolError};
use peace_wire::{Decode, Encode};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Net {
    no: NetworkOperator,
    alice: UserClient,
    bob: UserClient,
    router: MeshRouter,
    rng: StdRng,
    /// Half the timestamp window: how long one beacon is broadcast.
    half: u64,
}

fn net(seed: u64) -> Net {
    net_with(seed, ProtocolConfig::default())
}

fn net_with(seed: u64, config: ProtocolConfig) -> Net {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut no = NetworkOperator::new(config, &mut rng);
    let mut ttp = Ttp::new();
    let mut gm = no.found_group("org", 2, &mut ttp, &mut rng).unwrap();
    let mut enroll = |name: &str, rng: &mut StdRng| {
        let uid = UserId(name.into());
        let mut c = UserClient::new(uid, no.prepared_gpk(), *no.npk(), *no.config(), rng);
        gm.enroll(&mut ttp, &mut c).unwrap();
        c
    };
    let alice = enroll("alice", &mut rng);
    let bob = enroll("bob", &mut rng);
    let router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);
    let half = no.config().timestamp_window / 2;
    Net {
        no,
        alice,
        bob,
        router,
        rng,
        half,
    }
}

impl Net {
    /// What a user in range hears at `now`: the broadcast, decoded from its
    /// bytes, so no point arrives already decompressed.
    fn poll(&mut self, now: u64) -> Beacon {
        Beacon::from_wire(&self.router.current_beacon(now, &mut self.rng).to_wire()).unwrap()
    }
}

// ---------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------

#[test]
fn polls_inside_half_a_window_get_one_beacon() {
    let mut n = net(1);
    let first = n.router.current_beacon(1_000, &mut n.rng).to_wire();
    for i in 0..1_000u64 {
        let now = 1_000 + i * (n.half - 1) / 999;
        assert_eq!(
            n.router.current_beacon(now, &mut n.rng).to_wire(),
            first,
            "poll {i} at {now}"
        );
    }
    assert_eq!(n.router.beacons_sent(), 1);
    assert_eq!(n.router.active_beacon_count(), 1);
    assert_eq!(n.router.pending_evictions(), 0);

    // Half a window after ts₁ a new one is minted, and then broadcast.
    let next = n.router.current_beacon(1_000 + n.half, &mut n.rng);
    assert_eq!(n.router.beacons_sent(), 2);
    assert_eq!(next.ts1, 1_000 + n.half);
    assert_ne!(next.g_rr, Beacon::from_wire(&first).unwrap().g_rr);
    let again = n.router.current_beacon(1_000 + n.half + 1, &mut n.rng);
    assert_eq!(again, next);
    assert_eq!(n.router.beacons_sent(), 2);
}

#[test]
fn a_beacon_whose_state_is_gone_is_not_served() {
    let mut n = net(2);
    let first = n.router.current_beacon(1_000, &mut n.rng);
    n.router.forget_beacon(&first.g_rr);
    let next = n.router.current_beacon(1_010, &mut n.rng);
    assert_ne!(next.g_rr, first.g_rr);
    assert_eq!(n.router.beacons_sent(), 2);
}

#[test]
fn each_list_update_reaches_the_next_poll() {
    let mut n = net(3);
    let token = n.alice.active_credential().unwrap().key.revocation_token();
    let mut now = 1_000;
    let mut held = n.router.current_beacon(now, &mut n.rng);
    let step = |n: &mut Net, now: &mut u64, held: &mut Beacon, what: &str| {
        *now += 10;
        let next = n.router.current_beacon(*now, &mut n.rng);
        assert_ne!(next.g_rr, held.g_rr, "{what}: a new beacon");
        assert_eq!(next.ts1, *now, "{what}");
        *held = next;
    };
    let tokens = |beacon: &Beacon| beacon.url.open().unwrap().tokens.len();

    // A full resync.
    assert!(n.no.revoke_member(&token));
    n.router
        .update_lists(n.no.publish_crl(now), n.no.publish_url(now))
        .expect("lists admitted");
    step(&mut n, &mut now, &mut held, "update_lists");
    assert_eq!(held.url.version, n.no.url_version());
    assert_eq!(tokens(&held), 1);

    // A delta refresh bringing a new CRL.
    n.no.revoke_router(0xBAD);
    let empty = n.no.publish_url_delta(0, n.no.url_version()).unwrap();
    let restamp = n.no.restamp_url(now);
    n.router
        .update_lists_by_delta(n.no.publish_crl(now), &empty, &restamp)
        .unwrap();
    step(&mut n, &mut now, &mut held, "a new CRL");
    assert_eq!(held.crl.version, n.no.crl_version());
    assert!(held.crl.contains(0xBAD));

    // A delta refresh bringing a URL re-stamp.
    let restamp = n.no.restamp_url(now);
    n.router
        .update_lists_by_delta(n.no.publish_crl(now), &empty, &restamp)
        .unwrap();
    step(&mut n, &mut now, &mut held, "a URL re-stamp");
    assert_eq!(held.url.issued_at, restamp.issued_at);

    // A new epoch.
    let gpk = n.no.rotate_system_key(&mut n.rng);
    n.router
        .install_epoch(gpk, n.no.publish_crl(now), n.no.publish_url(now))
        .expect("epoch lists admitted");
    step(&mut n, &mut now, &mut held, "install_epoch");
    assert_eq!(held.url.version, n.no.url_version());
    assert_eq!(tokens(&held), 0);

    assert_eq!(n.router.beacons_sent(), 5);
}

#[test]
fn under_attack_every_poll_mints_a_beacon_with_a_puzzle() {
    let mut n = net(4);
    let quiet = n.router.current_beacon(1_000, &mut n.rng);
    assert!(quiet.puzzle.is_none());
    n.router.set_under_attack(true);
    let mut shares = vec![quiet.g_rr];
    for i in 1..=5 {
        let defended = n.router.current_beacon(1_000 + i, &mut n.rng);
        assert!(defended.puzzle.is_some(), "poll {i}");
        assert!(!shares.contains(&defended.g_rr), "poll {i}");
        shares.push(defended.g_rr);
    }
    assert_eq!(n.router.beacons_sent(), 6);

    // Once the attack is over, a puzzle-free beacon is broadcast again.
    n.router.set_under_attack(false);
    let relaxed = n.router.current_beacon(1_010, &mut n.rng);
    assert!(relaxed.puzzle.is_none());
    assert_eq!(n.router.current_beacon(1_020, &mut n.rng), relaxed);
    assert_eq!(n.router.beacons_sent(), 7);
}

#[test]
fn users_on_one_beacon_get_distinct_sessions_and_a_replay_is_refused() {
    let mut n = net(5);
    let beacon = n.poll(1_000);
    let req_a = n.alice.request_access(&beacon, 1_010, &mut n.rng).unwrap();
    let beacon = n.poll(1_020);
    let req_b = n.bob.request_access(&beacon, 1_030, &mut n.rng).unwrap();
    assert_eq!(req_a.g_rr, req_b.g_rr, "one broadcast");

    let (confirm_a, mut router_a) = n.router.process_access_request(&req_a, 1_040).unwrap();
    let (confirm_b, mut router_b) = n.router.process_access_request(&req_b, 1_050).unwrap();
    let mut alice = n.alice.handle_access_confirm(&confirm_a, 1_060).unwrap();
    let mut bob = n.bob.handle_access_confirm(&confirm_b, 1_060).unwrap();
    assert_ne!(alice.id(), bob.id());

    let from_alice = alice.seal_data(b"alice");
    let from_bob = bob.seal_data(b"bob");
    assert!(router_b.open_data(&from_alice).is_err(), "distinct keys");
    assert_eq!(router_a.open_data(&from_alice).unwrap(), b"alice");
    assert_eq!(router_b.open_data(&from_bob).unwrap(), b"bob");

    assert_eq!(
        n.router.process_access_request(&req_a, 1_070).unwrap_err(),
        ProtocolError::DuplicateMessage
    );
    assert_eq!(n.router.beacons_sent(), 1);
}

#[test]
fn a_beacon_is_held_for_half_the_shorter_of_window_and_lifetime() {
    let config = ProtocolConfig {
        timestamp_window: 2 * BEACON_LIFETIME,
        ..ProtocolConfig::default()
    };
    assert!(BEACON_LIFETIME < config.timestamp_window);
    let mut n = net_with(11, config);
    let end = 1_000 + BEACON_LIFETIME / 2;
    let first = n.router.current_beacon(1_000, &mut n.rng);
    assert_eq!(n.router.current_beacon(end - 1, &mut n.rng), first);
    let next = n.router.current_beacon(end, &mut n.rng);
    assert_eq!(next.ts1, end);
    assert_eq!(n.router.beacons_sent(), 2);
}

// The idempotency table holds 2 × `MAX_ACTIVE_BEACONS` records. A beacon
// broadcast to more sessions than that would outlive the records of its
// first sessions, and their replays would be verified and logged again.
#[test]
fn replays_are_refused_however_many_sessions_share_the_broadcast() {
    // Four beacons' DH state fits, so none of the four minted below is
    // shed for room: only the idempotency table decides what a replay gets.
    let cap = MAX_ACTIVE_BEACONS;
    let mut n = net(12);
    let mut reqs = Vec::new();
    for i in 0..(3 * cap + 1) as u64 {
        let now = 1_000 + 10 * i;
        let beacon = n.poll(now);
        let req = n
            .alice
            .request_access(&beacon, now + 1, &mut n.rng)
            .unwrap();
        n.router.process_access_request(&req, now + 2).unwrap();
        reqs.push(req);
    }
    // A broadcast serves `MAX_ACTIVE_BEACONS` sessions, then a new one is
    // minted.
    assert_eq!(n.router.beacons_sent(), 4);
    assert_eq!(reqs[0].g_rr, reqs[cap - 1].g_rr);
    assert_ne!(reqs[cap - 1].g_rr, reqs[cap].g_rr);

    // Every replay inside the window is refused before any pairing and
    // logs nothing. Shedding the records of sessions 0 to `cap` dropped the
    // first two beacons' DH state; the sessions on the last two are on
    // record.
    let now = 1_000 + 10 * reqs.len() as u64;
    for (i, req) in reqs.iter().enumerate() {
        let expected = if i < 2 * cap {
            ProtocolError::UnknownBeacon
        } else {
            ProtocolError::DuplicateMessage
        };
        assert_eq!(
            n.router.process_access_request(req, now).unwrap_err(),
            expected,
            "replay of session {i}"
        );
    }
    assert_eq!(n.router.pending_log_len(), reqs.len());
    assert!(!n.router.is_under_attack(), "no replay counts as a failure");

    // The broadcast still in force was not dropped.
    assert_eq!(n.poll(now).g_rr, reqs[3 * cap].g_rr);
}

// §V.A: a beacon minted before an attack began carries no puzzle. Were its
// M.2s admitted, anyone holding it could skip the puzzle for the beacon's
// whole lifetime.
#[test]
fn a_beacon_minted_before_an_attack_admits_no_one_during_it() {
    let mut n = net(6);
    let before = n.poll(1_000);
    let req = n.alice.request_access(&before, 1_010, &mut n.rng).unwrap();
    assert!(req.puzzle_solution.is_none());
    n.router.set_under_attack(true);
    assert_eq!(
        n.router.process_access_request(&req, 1_020).unwrap_err(),
        ProtocolError::PuzzleRequired
    );
    assert_eq!(n.router.pending_log_len(), 0);

    // A fresh poll carries a puzzle, and its M.2 is admitted once solved.
    let defended = n.poll(1_030);
    assert!(defended.puzzle.is_some());
    let req = n
        .alice
        .request_access(&defended, 1_040, &mut n.rng)
        .unwrap();
    assert!(req.puzzle_solution.is_some());
    n.router.process_access_request(&req, 1_050).unwrap();
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// 𝔾₁ multiplications and decompressions `user` spends answering `beacon`.
fn answer(user: &mut UserClient, beacon: &Beacon, now: u64, rng: &mut StdRng) -> (u64, u64) {
    let scope = OpSnapshot::scope();
    user.request_access(beacon, now, rng).unwrap();
    let cost = scope.counts();
    (cost.g1_muls, cost.g1_decompressions)
}

#[test]
fn a_held_beacon_is_verified_and_decoded_once() {
    let mut n = net(7);
    // The first beacon also brings the certificate and lists to hold.
    let first = n.poll(1_000);
    n.alice.request_access(&first, 1_010, &mut n.rng).unwrap();

    // A new broadcast under the held certificate: six multiplications to
    // sign, two for g^{r_j} and the session key, a subgroup check for each
    // of g and g^{r_R}, and the beacon's ECDSA verification.
    let beacon = n.poll(1_000 + n.half);
    let (muls, decodes) = answer(&mut n.alice, &beacon, 1_000 + n.half, &mut n.rng);
    assert_eq!((muls, decodes), (6 + 2 + 2 + 1, 2));

    // The same broadcast again: neither the verification nor the decodes.
    let repeat = n.poll(1_000 + n.half + 100);
    assert_eq!(repeat, beacon);
    let (muls, decodes) = answer(&mut n.alice, &repeat, 1_000 + n.half + 110, &mut n.rng);
    assert_eq!((muls, decodes), (6 + 2, 0));
}

#[test]
fn a_flipped_signature_byte_is_verified_and_refused_with_nothing_held() {
    let mut n = net(8);
    let beacon = n.poll(1_000);
    n.alice.request_access(&beacon, 1_010, &mut n.rng).unwrap();

    // The signature follows g ‖ g^{r_R} ‖ ts₁; flip the last byte of its s.
    let mut wire = beacon.to_wire();
    wire[65 + 65 + 8 + 39] ^= 1;
    let forged = Beacon::from_wire(&wire).unwrap();
    let scope = OpSnapshot::scope();
    let err = n
        .alice
        .request_access(&forged, 1_020, &mut n.rng)
        .unwrap_err();
    assert_eq!(err, ProtocolError::BadRouterSignature);
    assert_eq!(err.code(), "bad_router_signature");
    assert_eq!(scope.counts().g1_muls, 1, "verified, not waved through");

    // The genuine broadcast is still the one held.
    let (muls, decodes) = answer(&mut n.alice, &beacon, 1_030, &mut n.rng);
    assert_eq!((muls, decodes), (6 + 2, 0));
}

#[test]
fn held_beacon_bytes_under_another_certificate_are_verified_again() {
    let mut n = net(10);
    let beacon = n.poll(1_000);
    n.alice.request_access(&beacon, 1_010, &mut n.rng).unwrap();

    // The same signed bytes, presented by another genuine router.
    let other = n.no.provision_router("MR-2", u64::MAX / 2, &mut n.rng);
    let mut replayed = beacon.clone();
    replayed.cert = other.cert().clone();
    assert_eq!(
        n.alice.request_access(&replayed, 1_020, &mut n.rng),
        Err(ProtocolError::BadRouterSignature)
    );
    let (muls, decodes) = answer(&mut n.alice, &beacon, 1_030, &mut n.rng);
    assert_eq!((muls, decodes), (6 + 2, 0));
}

#[test]
fn a_held_beacon_past_the_window_is_stale() {
    let mut n = net(9);
    let window = n.no.config().timestamp_window;
    let beacon = n.poll(1_000);
    n.alice.request_access(&beacon, 1_010, &mut n.rng).unwrap();
    let err = n
        .alice
        .request_access(&beacon, 1_000 + window + 1, &mut n.rng)
        .unwrap_err();
    assert_eq!(err, ProtocolError::StaleTimestamp);
    assert_eq!(err.code(), "stale_timestamp");
    n.alice
        .request_access(&beacon, 1_000 + window, &mut n.rng)
        .unwrap();
}
