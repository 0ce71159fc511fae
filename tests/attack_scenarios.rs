//! E7 — the §V.A attack analysis exercised end-to-end: bogus data
//! injection, data phishing, DoS floods, message tampering, and
//! wire-level malleability.

use peace::protocol::{entities::*, ids::UserId, ProtocolConfig, ProtocolError};
use peace::sim::{
    run_dos_experiment, run_injection_matrix, DOS_ATTACKER_HASHES_PER_S, DOS_PUZZLE_DIFFICULTY,
    DOS_SUB_PUZZLES,
};
use peace::wire::{Decode, Encode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn injection_matrix_matches_paper_section_5a() {
    let outcomes = run_injection_matrix(123);
    let by_name: std::collections::HashMap<_, _> =
        outcomes.iter().map(|o| (o.attacker, o)).collect();
    // outsiders: "they cannot produce correct message signatures"
    assert!(!by_name["outsider"].accepted);
    assert_eq!(
        by_name["outsider"].rejection,
        Some(ProtocolError::BadGroupSignature)
    );
    // revoked users: "the corresponding group private keys … are already
    // revoked and published in URL"
    assert!(!by_name["revoked-user"].accepted);
    assert_eq!(
        by_name["revoked-user"].rejection,
        Some(ProtocolError::SignerRevoked)
    );
    // revoked routers: "by checking CRL, no legitimate [user] will accept"
    assert!(!by_name["revoked-router"].accepted);
    assert_eq!(
        by_name["revoked-router"].rejection,
        Some(ProtocolError::CertificateRevoked)
    );
    assert!(by_name["honest-control"].accepted);
}

#[test]
fn dos_crossover_shape() {
    // §V.A claims legitimate users "are still able to obtain network
    // accesses regardless of the existence of the attack" with puzzles.
    // Check the crossover: without puzzles the success rate degrades with
    // flood rate; with puzzles it stays flat.
    let rates = [10.0, 50.0, 200.0, 1000.0];
    let mut prev_without = 1.1f64;
    for &rate in &rates {
        let without = run_dos_experiment(rate, 5.0, 15, false, 9);
        let with = run_dos_experiment(rate, 5.0, 15, true, 9);
        assert!(
            without.legit_success_rate <= prev_without + 0.05,
            "no-puzzle success should be non-increasing-ish"
        );
        prev_without = without.legit_success_rate;
        assert!(
            with.legit_success_rate > 0.95,
            "puzzles keep legit users served at rate {rate}: {with:?}"
        );
    }
    // Attacker CPU is the binding constraint under puzzles: the number of
    // full verifications forced is bounded by the attacker's hash budget.
    let with = run_dos_experiment(1_000.0, 5.0, 15, true, 9);
    let max_solutions_per_s = DOS_ATTACKER_HASHES_PER_S
        / ((DOS_SUB_PUZZLES as f64) * 2f64.powi(DOS_PUZZLE_DIFFICULTY as i32 - 1));
    assert!(
        (with.flood_verified as f64) <= max_solutions_per_s * 15.0 + 1.0,
        "attacker cannot force more verifications than puzzle budget allows"
    );
}

#[test]
fn intercepted_confirmation_useless_without_dh_secret() {
    // Data-phishing analysis: "even if the mesh router could intercept the
    // network traffic … it will not be able to decrypt the message".
    let mut rng = StdRng::seed_from_u64(77);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let mut ttp = Ttp::new();
    let mut gm = no.found_group("org", 2, &mut ttp, &mut rng).unwrap();
    let uid = UserId("alice".into());
    let mut alice = UserClient::new(uid, *no.gpk(), *no.npk(), *no.config(), &mut rng);
    gm.enroll(&mut ttp, &mut alice).unwrap();
    let mut router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);

    let beacon = router.beacon(1_000, &mut rng);
    let req = alice.request_access(&beacon, 1_010, &mut rng).unwrap();
    let (confirm, mut r_sess) = router.process_access_request(&req, 1_020).unwrap();
    let mut a_sess = alice.handle_access_confirm(&confirm, 1_020).unwrap();

    // Eavesdropper captures everything on the air: beacon, M.2, M.3, data.
    let captured_data = a_sess.seal_data(b"secret browsing");
    // It can decode message *structure*…
    let reparsed = peace::protocol::AccessConfirm::from_wire(&confirm.to_wire()).unwrap();
    assert_eq!(reparsed, confirm);
    // …but an attacker session keyed from anything it saw cannot open data.
    use peace::protocol::{Role, Session, SessionId};
    let sid = SessionId::from_points(&req.g_rr, &req.g_rj);
    for public_guess in [&req.g_rj, &req.g_rr, &beacon.g] {
        let guess = public_guess.decompress().unwrap();
        let mut fake = Session::establish(&guess, sid.clone(), Role::Responder);
        assert!(fake.open_data(&captured_data).is_err());
    }
    // the genuine endpoint still can
    assert_eq!(
        r_sess.open_data(&captured_data).unwrap(),
        b"secret browsing"
    );
}

#[test]
fn message_malleability_rejected_at_decode_or_verify() {
    // Bit-flip every region of an M.2 on the wire: the outcome must always
    // be a clean rejection (never a panic, never acceptance). The mutants
    // are forgeries, and enough of them would arm the §V.A flood detector,
    // under which the puzzle-free beacon below admits no one; this test is
    // about malleability, so the detector is held off.
    let mut rng = StdRng::seed_from_u64(78);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let mut ttp = Ttp::new();
    let mut gm = no.found_group("org", 2, &mut ttp, &mut rng).unwrap();
    let uid = UserId("alice".into());
    let mut alice = UserClient::new(uid, *no.gpk(), *no.npk(), *no.config(), &mut rng);
    gm.enroll(&mut ttp, &mut alice).unwrap();
    let mut router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);
    router.set_under_attack(false);

    let beacon = router.beacon(1_000, &mut rng);
    let req = alice.request_access(&beacon, 1_010, &mut rng).unwrap();
    let wire = req.to_wire();

    let mut flips = 0;
    let mut accepted = 0;
    for trial in 0..64 {
        let mut mutated = wire.clone();
        let idx = (trial * 7919) % mutated.len();
        mutated[idx] ^= 1 << (trial % 8);
        if mutated == wire {
            continue;
        }
        flips += 1;
        match peace::protocol::AccessRequest::from_wire(&mutated) {
            Err(_) => {} // decode-level rejection
            Ok(forged) => {
                if router.process_access_request(&forged, 1_020).is_ok() {
                    accepted += 1;
                }
            }
        }
    }
    assert!(flips > 50);
    assert_eq!(accepted, 0, "no mutated request may be accepted");
    // the original still works
    assert!(router.process_access_request(&req, 1_020).is_ok());
}

#[test]
fn truncated_messages_never_panic() {
    let mut rng = StdRng::seed_from_u64(79);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let mut router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);
    let beacon = router.beacon(1_000, &mut rng);
    let wire = beacon.to_wire();
    for len in 0..wire.len().min(300) {
        let _ = peace::protocol::Beacon::from_wire(&wire[..len]);
    }
    // random garbage of assorted lengths
    let mut r = StdRng::seed_from_u64(80);
    for _ in 0..200 {
        let len = r.gen_range(0..600);
        let garbage: Vec<u8> = (0..len).map(|_| r.gen()).collect();
        let _ = peace::protocol::Beacon::from_wire(&garbage);
        let _ = peace::protocol::AccessRequest::from_wire(&garbage);
        let _ = peace::protocol::AccessConfirm::from_wire(&garbage);
        let _ = peace::protocol::PeerHello::from_wire(&garbage);
        let _ = peace::protocol::PeerResponse::from_wire(&garbage);
        let _ = peace::protocol::PeerConfirm::from_wire(&garbage);
    }
}

#[test]
fn beacon_signature_covers_dh_share() {
    // Active MITM: swap g^{r_R} inside a beacon → signature must fail.
    let mut rng = StdRng::seed_from_u64(81);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let mut ttp = Ttp::new();
    let mut gm = no.found_group("org", 1, &mut ttp, &mut rng).unwrap();
    let uid = UserId("alice".into());
    let mut alice = UserClient::new(uid, *no.gpk(), *no.npk(), *no.config(), &mut rng);
    gm.enroll(&mut ttp, &mut alice).unwrap();
    let mut router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);

    let mut beacon = router.beacon(1_000, &mut rng);
    beacon.g_rr = peace::curve::G1::random(&mut rng).into(); // MITM swap
    assert_eq!(
        alice.request_access(&beacon, 1_010, &mut rng).unwrap_err(),
        ProtocolError::BadRouterSignature
    );
}

#[test]
fn cross_protocol_signature_replay_rejected() {
    // A group signature from the peer protocol (M̃.1) must not be
    // replayable as an access request (M.2) even over the same points —
    // the signed payloads are domain-separated.
    let mut rng = StdRng::seed_from_u64(90);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let mut ttp = Ttp::new();
    let mut gm = no.found_group("org", 1, &mut ttp, &mut rng).unwrap();
    let uid = UserId("alice".into());
    let mut alice = UserClient::new(uid, *no.gpk(), *no.npk(), *no.config(), &mut rng);
    gm.enroll(&mut ttp, &mut alice).unwrap();
    let mut router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);

    let beacon = router.beacon(1_000, &mut rng);
    // Alice must see the beacon once so peer_hello has URL context.
    let _legit = alice.request_access(&beacon, 1_005, &mut rng).unwrap();
    let hello = alice
        .start_peer_handshake(&beacon.g, 1_010, &mut rng)
        .unwrap();

    // Adversary splices the peer-hello signature into an access request
    // over the same DH share and timestamp.
    let forged = peace::protocol::AccessRequest {
        g_rj: hello.g_rj.clone(),
        g_rr: beacon.g_rr.clone(),
        ts2: hello.ts1,
        gsig: hello.gsig.clone(),
        puzzle_solution: None,
    };
    assert_eq!(
        router.process_access_request(&forged, 1_015).unwrap_err(),
        ProtocolError::BadGroupSignature
    );

    // The payload byte strings really are disjoint domains.
    let m2 = peace::protocol::AccessRequest::signed_payload(&hello.g_rj, &beacon.g_rr, hello.ts1);
    let m1 = peace::protocol::PeerHello::signed_payload(&beacon.g, &hello.g_rj, hello.ts1);
    assert_ne!(m2, m1);
}
