//! End-to-end protocol flows: setup, both AKA protocols, revocation
//! dynamics, DoS puzzles, audit and tracing (paper §IV complete).

use std::collections::HashMap;

use peace_groupsig::OpSnapshot;
use peace_protocol::config::{DOS_THRESHOLD, DOS_WINDOW, HANDSHAKE_WINDOW};
use peace_protocol::entities::*;
use peace_protocol::ids::{GroupId, UserId};
use peace_protocol::{AccessConfirm, AccessRequest, Beacon, ProtocolConfig, ProtocolError};
use peace_wire::{Decode, Encode};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

struct World {
    no: NetworkOperator,
    gms: HashMap<GroupId, GroupManager>,
    ttp: Ttp,
    rng: StdRng,
}

impl World {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
        Self {
            no,
            gms: HashMap::new(),
            ttp: Ttp::new(),
            rng,
        }
    }

    fn add_group(&mut self, name: &str, keys: usize) -> GroupId {
        let gid = self.no.register_group(name, &mut self.rng);
        let (gm_bundle, ttp_bundle) = self.no.issue_shares(gid, keys, &mut self.rng).unwrap();
        let mut gm = GroupManager::new(gid);
        gm.receive_bundle(&gm_bundle, self.no.npk()).unwrap();
        self.ttp.receive_bundle(&ttp_bundle, self.no.npk()).unwrap();
        self.gms.insert(gid, gm);
        gid
    }

    fn enroll_user(&mut self, name: &str, gid: GroupId) -> UserClient {
        let uid = UserId(name.to_owned());
        let mut user = UserClient::new(
            uid.clone(),
            self.no.prepared_gpk(),
            *self.no.npk(),
            *self.no.config(),
            &mut self.rng,
        );
        let gm = self.gms.get_mut(&gid).unwrap();
        let assignment = gm.assign(&uid).unwrap();
        let delivery = self.ttp.deliver(assignment.index, &uid).unwrap();
        let receipt = user.enroll(&assignment, &delivery).unwrap();
        gm.store_receipt(&uid, receipt);
        user
    }

    fn router(&mut self, name: &str) -> MeshRouter {
        self.no.provision_router(name, u64::MAX / 2, &mut self.rng)
    }
}

#[test]
fn user_router_full_handshake_and_data() {
    let mut w = World::new(1);
    let gid = w.add_group("Company XYZ", 2);
    let mut alice = w.enroll_user("alice", gid);
    let mut router = w.router("MR-1");

    let beacon = router.beacon(10_000, &mut w.rng);
    let req = alice.request_access(&beacon, 10_100, &mut w.rng).unwrap();
    let (confirm, mut r_sess) = router.process_access_request(&req, 10_200).unwrap();
    let mut a_sess = alice.handle_access_confirm(&confirm, 10_200).unwrap();

    // bidirectional traffic
    let up = a_sess.seal_data(b"uplink");
    assert_eq!(r_sess.open_data(&up).unwrap(), b"uplink");
    let down = r_sess.seal_data(b"downlink");
    assert_eq!(a_sess.open_data(&down).unwrap(), b"downlink");

    // the session is logged for audit
    assert_eq!(router.drain_log().len(), 1);
}

#[test]
fn user_user_full_handshake() {
    let mut w = World::new(2);
    let gid = w.add_group("University Z", 4);
    let mut alice = w.enroll_user("alice", gid);
    let mut bob = w.enroll_user("bob", gid);
    let mut router = w.router("MR-1");

    // both get the current beacon (they need g and the URL)
    let beacon = router.beacon(5_000, &mut w.rng);

    let hello = alice
        .start_peer_handshake(&beacon.g, 5_010, &mut w.rng)
        .unwrap();
    let resp = bob.handle_peer_hello(&hello, 5_020, &mut w.rng).unwrap();
    let (confirm, mut a_sess) = alice.handle_peer_response(&resp, 5_030).unwrap();
    let mut b_sess = bob.handle_peer_confirm(&confirm, 5_030).unwrap();

    let m = a_sess.seal_data(b"hi bob");
    assert_eq!(b_sess.open_data(&m).unwrap(), b"hi bob");
    let m2 = b_sess.seal_data(b"hi alice");
    assert_eq!(a_sess.open_data(&m2).unwrap(), b"hi alice");
}

#[test]
fn outsider_without_credentials_cannot_authenticate() {
    let mut w = World::new(3);
    let _gid = w.add_group("Company", 1);
    let mut router = w.router("MR-1");

    // Outsider: enrolled under a *different* operator entirely.
    let mut other = World::new(99);
    let other_gid = other.add_group("Rogue Org", 1);
    let mut outsider = other.enroll_user("mallory", other_gid);

    let beacon = router.beacon(1_000, &mut w.rng);
    // The outsider's client refuses the foreign beacon (NPK mismatch) —
    // and even a hand-crafted request is rejected by the router.
    assert!(outsider.request_access(&beacon, 1_010, &mut w.rng).is_err());

    // Force the outsider to sign anyway against its own gpk:
    let other_beacon_err = {
        // craft M.2 against w's router using mallory's (foreign) credential
        let mut rng = StdRng::seed_from_u64(1234);
        let cred = outsider.active_credential().unwrap().clone();
        let r_j = peace_field::Fq::random_nonzero(&mut rng);
        let g_rj: peace_curve::G1Wire = beacon.g.decompress().unwrap().mul(&r_j).into();
        let payload = peace_protocol::AccessRequest::signed_payload(&g_rj, &beacon.g_rr, 1_010);
        let gsig = peace_groupsig::sign(
            other.no.gpk(),
            &cred.key,
            &payload,
            peace_groupsig::BasesMode::PerMessage,
            &mut rng,
        );
        let req = peace_protocol::AccessRequest {
            g_rj,
            g_rr: beacon.g_rr.clone(),
            ts2: 1_010,
            gsig,
            puzzle_solution: None,
        };
        router.process_access_request(&req, 1_020).unwrap_err()
    };
    assert_eq!(other_beacon_err, ProtocolError::BadGroupSignature);
}

#[test]
fn revoked_user_rejected_by_router_and_peers() {
    let mut w = World::new(4);
    let gid = w.add_group("Company", 3);
    let mut alice = w.enroll_user("alice", gid);
    let mut bob = w.enroll_user("bob", gid);
    let mut router = w.router("MR-1");

    // Alice misbehaves; NO audits a session and revokes her key.
    let beacon0 = router.beacon(1_000, &mut w.rng);
    let req = alice.request_access(&beacon0, 1_010, &mut w.rng).unwrap();
    let _ = router.process_access_request(&req, 1_020).unwrap();
    w.no.ingest_router_log(&mut router);
    let session_id = peace_protocol::SessionId::from_points(&req.g_rr, &req.g_rj);
    let finding = w.no.audit(&session_id).unwrap();
    assert!(w.no.revoke_member(&finding.token));

    // NO pushes fresh lists; router beacons carry the new URL.
    router.update_lists(w.no.publish_crl(2_000), w.no.publish_url(2_000));
    let beacon = router.beacon(2_000, &mut w.rng);

    // Alice can still *build* a request, but the router rejects it.
    let req2 = alice.request_access(&beacon, 2_010, &mut w.rng).unwrap();
    assert_eq!(
        router.process_access_request(&req2, 2_020).unwrap_err(),
        ProtocolError::SignerRevoked
    );

    // Bob (who saw the fresh URL from the beacon) also rejects Alice's
    // peer hello.
    let _ = bob.request_access(&beacon, 2_010, &mut w.rng).unwrap();
    let hello = alice
        .start_peer_handshake(&beacon.g, 2_030, &mut w.rng)
        .unwrap();
    assert_eq!(
        bob.handle_peer_hello(&hello, 2_040, &mut w.rng)
            .unwrap_err(),
        ProtocolError::SignerRevoked
    );

    // Bob himself still authenticates fine.
    let req3 = bob.request_access(&beacon, 2_050, &mut w.rng).unwrap();
    let (confirm3, _) = router.process_access_request(&req3, 2_060).unwrap();
    assert!(bob.handle_access_confirm(&confirm3, 2_060).is_ok());
}

#[test]
fn revoked_router_rejected_via_crl() {
    let mut w = World::new(5);
    let gid = w.add_group("Company", 1);
    let mut alice = w.enroll_user("alice", gid);
    let mut bad_router = w.router("MR-rogue");
    let serial = bad_router.cert().serial;

    // NO revokes the router; a *fresh* CRL lists it.
    w.no.revoke_router(serial);
    let fresh_crl = w.no.publish_crl(3_000);
    let fresh_url = w.no.publish_url(3_000);

    // The revoked router keeps broadcasting with the fresh lists (it cannot
    // avoid including the CRL listing itself — any honest copy lists it).
    bad_router.update_lists(fresh_crl, fresh_url);
    let beacon = bad_router.beacon(3_010, &mut w.rng);
    assert_eq!(
        alice
            .request_access(&beacon, 3_020, &mut w.rng)
            .unwrap_err(),
        ProtocolError::CertificateRevoked
    );
}

#[test]
fn phishing_with_stale_crl_bounded_by_list_age() {
    let mut w = World::new(6);
    let gid = w.add_group("Company", 1);
    let mut alice = w.enroll_user("alice", gid);
    let mut rogue = w.router("MR-rogue");
    let serial = rogue.cert().serial;

    // Rogue keeps the CRL from *before* its revocation.
    let stale_crl = w.no.publish_crl(1_000);
    let stale_url = w.no.publish_url(1_000);
    w.no.revoke_router(serial);
    rogue.update_lists(stale_crl, stale_url);

    // Within the list_max_age window the phish SUCCEEDS — this is exactly
    // the §V.A exposure window.
    let beacon = rogue.beacon(1_500, &mut w.rng);
    assert!(alice.request_access(&beacon, 1_510, &mut w.rng).is_ok());

    // After the window, the stale CRL is rejected.
    let max_age = w.no.config().list_max_age;
    let late = 1_000 + max_age + 1_000;
    let beacon2 = rogue.beacon(late, &mut w.rng);
    assert_eq!(
        alice
            .request_access(&beacon2, late + 10, &mut w.rng)
            .unwrap_err(),
        ProtocolError::StaleCrl
    );
}

#[test]
fn fake_router_without_certificate_rejected() {
    let mut w = World::new(7);
    let gid = w.add_group("Company", 1);
    let mut alice = w.enroll_user("alice", gid);
    let mut real_router = w.router("MR-1");

    // Adversary creates its own "operator" and router — cert chain breaks.
    let mut adv = World::new(1000);
    let mut fake = adv.router("MR-fake");
    let beacon = fake.beacon(1_000, &mut adv.rng);
    assert_eq!(
        alice
            .request_access(&beacon, 1_010, &mut w.rng)
            .unwrap_err(),
        ProtocolError::CertificateInvalid
    );

    // Sanity: the real router is accepted at the same instant.
    let good = real_router.beacon(1_000, &mut w.rng);
    assert!(alice.request_access(&good, 1_010, &mut w.rng).is_ok());
}

#[test]
fn replayed_beacon_and_request_rejected() {
    let mut w = World::new(8);
    let gid = w.add_group("Company", 2);
    let mut alice = w.enroll_user("alice", gid);
    let mut router = w.router("MR-1");

    let beacon = router.beacon(1_000, &mut w.rng);
    // Much later, the replayed beacon fails the ts check.
    let window = w.no.config().timestamp_window;
    assert_eq!(
        alice
            .request_access(&beacon, 1_000 + window + 1, &mut w.rng)
            .unwrap_err(),
        ProtocolError::StaleTimestamp
    );

    // A valid request replayed past the window also fails.
    let req = alice.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    assert_eq!(
        router
            .process_access_request(&req, 1_010 + window + 1)
            .unwrap_err(),
        ProtocolError::StaleTimestamp
    );

    // A request against an unknown/forgotten beacon fails.
    router.forget_beacon(&req.g_rr);
    assert_eq!(
        router.process_access_request(&req, 1_020).unwrap_err(),
        ProtocolError::UnknownBeacon
    );
}

#[test]
fn dos_puzzles_gate_requests() {
    let mut w = World::new(9);
    let gid = w.add_group("Company", 1);
    let mut alice = w.enroll_user("alice", gid);
    let mut router = w.router("MR-1");
    router.set_under_attack(true);

    let beacon = router.beacon(1_000, &mut w.rng);
    assert!(beacon.puzzle.is_some());

    // Honest client solves the puzzle and gets in.
    let req = alice.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    assert!(req.puzzle_solution.is_some());
    let (confirm, _) = router.process_access_request(&req, 1_020).unwrap();
    assert!(alice.handle_access_confirm(&confirm, 1_020).is_ok());

    // A request with the solution stripped is rejected cheaply.
    let beacon2 = router.beacon(2_000, &mut w.rng);
    let mut req2 = alice.request_access(&beacon2, 2_010, &mut w.rng).unwrap();
    req2.puzzle_solution = None;
    assert_eq!(
        router.process_access_request(&req2, 2_020).unwrap_err(),
        ProtocolError::PuzzleRequired
    );

    // A wrong solution is rejected too.
    let beacon3 = router.beacon(3_000, &mut w.rng);
    let mut req3 = alice.request_access(&beacon3, 3_010, &mut w.rng).unwrap();
    req3.puzzle_solution = Some(peace_puzzle::Solution {
        counters: vec![0; beacon3.puzzle.as_ref().unwrap().sub_puzzles as usize],
    });
    let res = router.process_access_request(&req3, 3_020);
    assert!(matches!(
        res.unwrap_err(),
        ProtocolError::PuzzleInvalid | ProtocolError::PuzzleRequired
    ));
}

#[test]
fn audit_reveals_group_only_and_trace_reveals_user() {
    let mut w = World::new(10);
    let g_company = w.add_group("Company XYZ", 2);
    let g_university = w.add_group("University Z", 2);
    let mut alice = w.enroll_user("alice", g_company);
    let mut carol = w.enroll_user("carol", g_university);
    let mut router = w.router("MR-1");

    // Two sessions from different groups.
    let b1 = router.beacon(1_000, &mut w.rng);
    let req_a = alice.request_access(&b1, 1_010, &mut w.rng).unwrap();
    router.process_access_request(&req_a, 1_020).unwrap();
    let b2 = router.beacon(1_100, &mut w.rng);
    let req_c = carol.request_access(&b2, 1_110, &mut w.rng).unwrap();
    router.process_access_request(&req_c, 1_120).unwrap();
    w.no.ingest_router_log(&mut router);
    assert_eq!(w.no.logged_session_count(), 2);

    // NO's audit: group-level attribution only.
    let sid_a = peace_protocol::SessionId::from_points(&req_a.g_rr, &req_a.g_rj);
    let sid_c = peace_protocol::SessionId::from_points(&req_c.g_rr, &req_c.g_rj);
    let f_a = w.no.audit(&sid_a).unwrap();
    let f_c = w.no.audit(&sid_c).unwrap();
    assert_eq!(f_a.group, g_company);
    assert_eq!(f_c.group, g_university);
    assert_eq!(w.no.group_name(f_a.group), Some("Company XYZ"));

    // Law authority: full trace with GM cooperation.
    let law = LawAuthority::new();
    let t_a = law.trace(&w.no, &w.gms, &sid_a).unwrap();
    assert_eq!(t_a.uid, UserId("alice".into()));
    assert_eq!(t_a.group, g_company);
    let t_c = law.trace(&w.no, &w.gms, &sid_c).unwrap();
    assert_eq!(t_c.uid, UserId("carol".into()));

    // Unknown session: audit fails cleanly.
    let bogus = peace_protocol::SessionId::from_points(&req_a.g_rj, &req_a.g_rr);
    assert!(w.no.audit(&bogus).is_err());
}

#[test]
fn multi_role_user_audits_to_different_groups() {
    let mut w = World::new(11);
    let g_company = w.add_group("Company XYZ", 2);
    let g_golf = w.add_group("Golf Club V", 2);

    // One human, two roles.
    let uid = UserId("dave".into());
    let mut dave = UserClient::new(
        uid.clone(),
        w.no.prepared_gpk(),
        *w.no.npk(),
        *w.no.config(),
        &mut w.rng,
    );
    for gid in [g_company, g_golf] {
        let gm = w.gms.get_mut(&gid).unwrap();
        let assignment = gm.assign(&uid).unwrap();
        let delivery = w.ttp.deliver(assignment.index, &uid).unwrap();
        dave.enroll(&assignment, &delivery).unwrap();
    }
    assert_eq!(dave.credential_count(), 2);

    let mut router = w.router("MR-1");
    let mut session_ids = Vec::new();
    for role in 0..2 {
        dave.set_active_role(role).unwrap();
        let b = router.beacon(1_000 + role as u64 * 100, &mut w.rng);
        let req = dave
            .request_access(&b, 1_010 + role as u64 * 100, &mut w.rng)
            .unwrap();
        router
            .process_access_request(&req, 1_020 + role as u64 * 100)
            .unwrap();
        session_ids.push(peace_protocol::SessionId::from_points(&req.g_rr, &req.g_rj));
    }
    w.no.ingest_router_log(&mut router);

    // The same person audits to different nonessential attributes
    // depending on which role signed — the paper's sophisticated privacy.
    let f0 = w.no.audit(&session_ids[0]).unwrap();
    let f1 = w.no.audit(&session_ids[1]).unwrap();
    assert_eq!(f0.group, g_company);
    assert_eq!(f1.group, g_golf);

    // And the law authority maps both back to dave.
    let law = LawAuthority::new();
    assert_eq!(law.trace(&w.no, &w.gms, &session_ids[0]).unwrap().uid, uid);
    assert_eq!(law.trace(&w.no, &w.gms, &session_ids[1]).unwrap().uid, uid);
}

#[test]
fn tampered_confirmation_rejected() {
    let mut w = World::new(12);
    let gid = w.add_group("Company", 1);
    let mut alice = w.enroll_user("alice", gid);
    let mut router = w.router("MR-1");

    let beacon = router.beacon(1_000, &mut w.rng);
    let req = alice.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    let (mut confirm, _) = router.process_access_request(&req, 1_020).unwrap();
    let n = confirm.ciphertext.len();
    confirm.ciphertext[n / 2] ^= 0xff;
    assert_eq!(
        alice.handle_access_confirm(&confirm, 1_020).unwrap_err(),
        ProtocolError::DecryptFailed
    );
}

#[test]
fn gm_share_pool_exhaustion() {
    let mut w = World::new(13);
    let gid = w.add_group("Tiny Org", 1);
    let _user = w.enroll_user("only-member", gid);
    let gm = w.gms.get_mut(&gid).unwrap();
    assert_eq!(gm.available_shares(), 0);
    assert!(gm.assign(&UserId("late-joiner".into())).is_err());
}

#[test]
fn peer_handshake_window_enforced() {
    let mut w = World::new(14);
    let gid = w.add_group("Company", 2);
    let mut alice = w.enroll_user("alice", gid);
    let mut bob = w.enroll_user("bob", gid);
    let mut router = w.router("MR-1");
    let beacon = router.beacon(1_000, &mut w.rng);

    let hello = alice
        .start_peer_handshake(&beacon.g, 1_000, &mut w.rng)
        .unwrap();
    // Bob answers absurdly late (forged ts2 far in the future).
    let late_ts = 1_000 + HANDSHAKE_WINDOW + 5_000;
    let mut resp = bob.handle_peer_hello(&hello, 1_010, &mut w.rng).unwrap();
    resp.ts2 = late_ts; // tamper: claim a late ts2
                        // Delivered inside the window, the delay check refuses it before the
                        // signature over ts2 is looked at.
    let err = alice.handle_peer_response(&resp, 1_020).unwrap_err();
    assert_eq!(err, ProtocolError::HandshakeTimeout);
    // Delivered at ts2 itself, the half-open state expired with the window.
    let err = alice.handle_peer_response(&resp, late_ts).unwrap_err();
    assert_eq!(err, ProtocolError::SessionMismatch);
    assert_eq!(alice.pending_handshakes(), 0);
}

#[test]
fn roaming_across_routers() {
    // A mobile user authenticates to three different routers in sequence
    // (the metropolitan roaming pattern of Fig. 1). Each handshake stands
    // alone; all sessions audit to the same group.
    let mut w = World::new(15);
    let gid = w.add_group("Commuters Inc", 2);
    let mut alice = w.enroll_user("alice", gid);
    let mut routers: Vec<MeshRouter> = (0..3).map(|i| w.router(&format!("MR-{i}"))).collect();

    let mut t = 1_000u64;
    let mut sids = Vec::new();
    for router in routers.iter_mut() {
        let beacon = router.beacon(t, &mut w.rng);
        let req = alice.request_access(&beacon, t + 5, &mut w.rng).unwrap();
        let (confirm, mut r_sess) = router.process_access_request(&req, t + 10).unwrap();
        let mut a_sess = alice.handle_access_confirm(&confirm, t + 10).unwrap();
        let pkt = a_sess.seal_data(b"roam");
        assert!(r_sess.open_data(&pkt).is_ok());
        w.no.ingest_router_log(router);
        sids.push(peace_protocol::SessionId::from_points(&req.g_rr, &req.g_rj));
        t += 500;
    }
    // All three sessions attribute to the same group.
    for sid in &sids {
        assert_eq!(w.no.audit(sid).unwrap().group, gid);
    }
    // Distinct session identifiers (no cross-router linkage material).
    assert_ne!(sids[0], sids[1]);
    assert_ne!(sids[1], sids[2]);
}

#[test]
fn compromised_router_cannot_identify_or_frame_users() {
    // §III.B threat model: the adversary "can compromise and control a
    // small number of … mesh routers". A compromised router sees M.2 and
    // holds gpk + its own keys, but (a) cannot tell which member signed,
    // (b) cannot forge a signature that frames another user.
    let mut w = World::new(16);
    let gid = w.add_group("org", 3);
    let mut alice = w.enroll_user("alice", gid);
    let mut bob = w.enroll_user("bob", gid);
    let mut rogue = w.router("MR-compromised");

    let beacon = rogue.beacon(1_000, &mut w.rng);
    let req_a = alice.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    let req_b = bob.request_access(&beacon, 1_020, &mut w.rng).unwrap();
    rogue.process_access_request(&req_a, 1_015).unwrap();
    rogue.process_access_request(&req_b, 1_025).unwrap();

    // (a) the router's complete view of both requests contains no token it
    // could use for Eq.3: without grt, every value it can derive fails.
    let payload_a =
        peace_protocol::AccessRequest::signed_payload(&req_a.g_rj, &req_a.g_rr, req_a.ts2);
    let (u_hat, v_hat) = peace_groupsig::h0_bases(
        w.no.gpk(),
        &payload_a,
        &req_a.gsig.r,
        peace_groupsig::BasesMode::PerMessage,
    );
    let (a_t1, a_t2) = req_a.gsig.commitments().unwrap();
    let (b_t1, b_t2) = req_b.gsig.commitments().unwrap();
    for guess in [a_t1, a_t2, b_t1, b_t2, w.no.gpk().g1] {
        assert!(!peace_groupsig::token_matches(
            &req_a.gsig,
            &peace_groupsig::RevocationToken(guess),
            &u_hat,
            &v_hat
        ));
    }

    // (b) replaying Alice's signature under a different payload fails, so
    // the router cannot fabricate evidence about a session she never had.
    let forged_payload =
        peace_protocol::AccessRequest::signed_payload(&req_b.g_rj, &req_a.g_rr, 9_999);
    assert!(peace_groupsig::verify(
        w.no.gpk(),
        &forged_payload,
        &req_a.gsig,
        peace_groupsig::BasesMode::PerMessage
    )
    .is_err());

    // NO's audit of the genuine logged sessions still works (the evidence
    // trail survives router compromise because M.2 is self-authenticating).
    w.no.ingest_router_log(&mut rogue);
    let sid = peace_protocol::SessionId::from_points(&req_a.g_rr, &req_a.g_rj);
    assert_eq!(w.no.audit(&sid).unwrap().group, gid);
}

#[test]
fn automatic_dos_detection_toggles_puzzles() {
    let mut w = World::new(17);
    let gid = w.add_group("org", 1);
    let mut alice = w.enroll_user("alice", gid);
    let mut router = w.router("MR-1");
    let (threshold, window) = (DOS_THRESHOLD, DOS_WINDOW);

    // Quiet network: no puzzles.
    let b = router.beacon(1_000, &mut w.rng);
    assert!(b.puzzle.is_none());
    assert!(!router.is_under_attack());

    // Flood: bogus requests with garbage signatures referencing a real
    // beacon (each one fails expensive verification).
    let beacon = router.beacon(2_000, &mut w.rng);
    let template = alice.request_access(&beacon, 2_010, &mut w.rng).unwrap();
    for i in 0..threshold {
        let mut bogus = template.clone();
        bogus.ts2 = 2_011 + i as u64; // changed payload → signature fails
        assert!(router.process_access_request(&bogus, 2_020).is_err());
    }
    // Detector trips: the next beacon demands puzzles.
    let defended = router.beacon(2_500, &mut w.rng);
    assert!(router.is_under_attack());
    assert!(defended.puzzle.is_some());

    // Legitimate users still get in (they solve the puzzle).
    let req = alice.request_access(&defended, 2_510, &mut w.rng).unwrap();
    assert!(req.puzzle_solution.is_some());
    let (confirm, _) = router.process_access_request(&req, 2_520).unwrap();
    assert!(alice.handle_access_confirm(&confirm, 2_520).is_ok());

    // After a quiet window the router relaxes automatically.
    let later = 2_500 + window + 1_000;
    let relaxed = router.beacon(later, &mut w.rng);
    assert!(!router.is_under_attack());
    assert!(relaxed.puzzle.is_none());

    // Manual override pins the mode regardless of traffic.
    router.set_under_attack(true);
    let forced = router.beacon(later + 100, &mut w.rng);
    assert!(forced.puzzle.is_some());
    router.clear_attack_override();
    let auto_again = router.beacon(later + window + 5_000, &mut w.rng);
    assert!(auto_again.puzzle.is_none());
}

#[test]
fn batched_access_requests_match_sequential_semantics() {
    let mut w = World::new(41);
    let gid = w.add_group("Batch Co", 6);
    let mut users: Vec<_> = (0..4)
        .map(|i| w.enroll_user(&format!("user{i}"), gid))
        .collect();
    let mut mallory = w.enroll_user("mallory", gid);
    let mut router = w.router("MR-1");

    // Mallory misbehaves once; NO revokes her so her token lands in the URL.
    let beacon0 = router.beacon(1_000, &mut w.rng);
    let req0 = mallory.request_access(&beacon0, 1_010, &mut w.rng).unwrap();
    let _ = router.process_access_request(&req0, 1_020).unwrap();
    w.no.ingest_router_log(&mut router);
    let sid = peace_protocol::SessionId::from_points(&req0.g_rr, &req0.g_rj);
    let finding = w.no.audit(&sid).unwrap();
    assert!(w.no.revoke_member(&finding.token));
    router.update_lists(w.no.publish_crl(2_000), w.no.publish_url(2_000));

    // One beacon serves the whole burst.
    let beacon = router.beacon(2_000, &mut w.rng);
    let mut reqs = Vec::new();
    for (i, u) in users.iter_mut().enumerate() {
        let req = u
            .request_access(&beacon, 2_010 + i as u64, &mut w.rng)
            .unwrap();
        reqs.push(req);
    }
    // A tampered request: payload changed after signing → challenge mismatch.
    let mut forged = reqs[1].clone();
    forged.ts2 += 1;
    reqs.push(forged);
    // The revoked signer's request: valid Σ-proof, but token is on the URL.
    let req_rev = mallory.request_access(&beacon, 2_020, &mut w.rng).unwrap();
    reqs.push(req_rev);
    // An exact duplicate inside the same burst.
    reqs.push(reqs[0].clone());

    let outcomes = router.process_access_requests(&reqs, 2_030);
    assert_eq!(outcomes.len(), 7);

    // The four honest users all get sessions they can finalize.
    for i in 0..4 {
        let (confirm, _) = outcomes[i].as_ref().expect("honest request admitted");
        assert!(users[i].handle_access_confirm(confirm, 2_030).is_ok());
    }
    assert_eq!(
        *outcomes[4].as_ref().unwrap_err(),
        ProtocolError::BadGroupSignature
    );
    assert_eq!(
        *outcomes[5].as_ref().unwrap_err(),
        ProtocolError::SignerRevoked
    );
    assert_eq!(
        *outcomes[6].as_ref().unwrap_err(),
        ProtocolError::DuplicateMessage
    );

    // Exactly the four admissions were logged.
    assert_eq!(router.drain_log().len(), 4);

    // Replaying an admitted request later is still rejected.
    assert_eq!(
        router.process_access_request(&reqs[0], 2_040).unwrap_err(),
        ProtocolError::DuplicateMessage
    );
}

// ---- The two-hold access path: begin → verify → finish, interleaved ----
//
// A router shared behind a lock runs the Σ-check between `begin` and
// `finish` with the lock released, so any router-state change can land in
// that gap. These drive the gap by hand, one step at a time.

#[test]
fn access_requests_begun_together_finish_in_any_order() {
    let mut w = World::new(43);
    let gid = w.add_group("org", 2);
    let mut alice = w.enroll_user("alice", gid);
    let mut bob = w.enroll_user("bob", gid);
    let mut router = w.router("MR-1");

    let beacon = router.beacon(1_000, &mut w.rng);
    let req_a = alice.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    let req_b = bob.request_access(&beacon, 1_011, &mut w.rng).unwrap();

    // Both in flight before either finishes; B finishes first.
    let a = router.begin_access_request(&req_a, 1_020).unwrap();
    let b = router.begin_access_request(&req_b, 1_020).unwrap();
    let (a, b) = (a.verify(), b.verify());
    let (confirm_b, _) = router.finish_access_request(b, 1_030).unwrap();
    let (confirm_a, _) = router.finish_access_request(a, 1_031).unwrap();

    assert!(alice.handle_access_confirm(&confirm_a, 1_031).is_ok());
    assert!(bob.handle_access_confirm(&confirm_b, 1_031).is_ok());
    assert_eq!(router.drain_log().len(), 2, "each admission logged once");
}

#[test]
fn same_request_begun_twice_mints_one_session() {
    let mut w = World::new(44);
    let gid = w.add_group("org", 1);
    let mut alice = w.enroll_user("alice", gid);
    let mut router = w.router("MR-1");

    let beacon = router.beacon(1_000, &mut w.rng);
    let req = alice.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    // Neither copy has been admitted yet, so both pass the replay gate.
    let first = router.begin_access_request(&req, 1_020).unwrap().verify();
    let second = router.begin_access_request(&req, 1_020).unwrap().verify();

    assert!(router.finish_access_request(first, 1_030).is_ok());
    assert_eq!(
        router.finish_access_request(second, 1_031).unwrap_err(),
        ProtocolError::DuplicateMessage
    );
    assert_eq!(router.drain_log().len(), 1);
}

#[test]
fn revocation_landing_before_finish_is_enforced() {
    let mut w = World::new(45);
    let gid = w.add_group("org", 1);
    let mut mallory = w.enroll_user("mallory", gid);
    let mut router = w.router("MR-1");

    // One admitted session gives NO a transcript to open.
    let beacon = router.beacon(1_000, &mut w.rng);
    let req0 = mallory.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    router.process_access_request(&req0, 1_020).unwrap();
    w.no.ingest_router_log(&mut router);
    let sid = peace_protocol::SessionId::from_points(&req0.g_rr, &req0.g_rj);
    let token = w.no.audit(&sid).unwrap().token;

    // Her next request begins, and verifies, while she is still in good
    // standing; the revocation reaches the router before it finishes.
    let beacon = router.beacon(2_000, &mut w.rng);
    let req = mallory.request_access(&beacon, 2_010, &mut w.rng).unwrap();
    let checked = router.begin_access_request(&req, 2_020).unwrap().verify();
    assert!(w.no.revoke_member(&token));
    router.update_lists(w.no.publish_crl(2_025), w.no.publish_url(2_025));

    assert_eq!(
        router.finish_access_request(checked, 2_030).unwrap_err(),
        ProtocolError::SignerRevoked
    );
    assert_eq!(router.pending_log_len(), 0, "no session was minted");
}

#[test]
fn epoch_installed_before_finish_refuses_the_request() {
    let mut w = World::new(46);
    let gid = w.add_group("org", 1);
    let mut alice = w.enroll_user("alice", gid);
    let mut router = w.router("MR-1");

    let beacon = router.beacon(1_000, &mut w.rng);
    let req = alice.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    let checked = router.begin_access_request(&req, 1_020).unwrap().verify();

    // The key the Σ-check ran under is retired mid-flight.
    let new_gpk = w.no.rotate_system_key(&mut w.rng);
    router.install_epoch(new_gpk, w.no.publish_crl(1_025), w.no.publish_url(1_025));

    // Same verdict as the same request arriving after the rotation, which
    // dropped its beacon state: coded, transient, nothing admitted, and not
    // counted as a forgery.
    assert_eq!(
        router.finish_access_request(checked, 1_030).unwrap_err(),
        ProtocolError::UnknownBeacon
    );
    assert_eq!(
        router.process_access_request(&req, 1_031).unwrap_err(),
        ProtocolError::UnknownBeacon
    );
    assert_eq!(router.pending_log_len(), 0);
    assert!(!router.is_under_attack());
}

#[test]
fn forgeries_finishing_out_of_line_still_arm_dos_defense() {
    let mut w = World::new(47);
    let gid = w.add_group("org", 1);
    let mut alice = w.enroll_user("alice", gid);
    let mut router = w.router("MR-1");
    let threshold = DOS_THRESHOLD;

    let beacon = router.beacon(2_000, &mut w.rng);
    let template = alice.request_access(&beacon, 2_010, &mut w.rng).unwrap();
    let forged: Vec<_> = (0..threshold)
        .map(|i| {
            let mut bogus = template.clone();
            bogus.ts2 = 2_011 + i as u64; // changed payload → signature fails
            bogus
        })
        .collect();
    // The whole flood is in flight at once; failures are only known, and
    // only counted, as each one finishes.
    let checked: Vec<_> = forged
        .iter()
        .map(|req| router.begin_access_request(req, 2_020).unwrap().verify())
        .collect();
    assert!(!router.is_under_attack());
    for c in checked {
        assert_eq!(
            router.finish_access_request(c, 2_030).unwrap_err(),
            ProtocolError::BadGroupSignature
        );
    }
    assert!(router.is_under_attack());
    assert!(router.beacon(2_500, &mut w.rng).puzzle.is_some());
}

// The revocation check runs in the gap too (§IV.B 3.3 after 3.2), against
// the list `begin` took; `finish` takes its verdict only while that list is
// still the one in force.

/// The token NO would learn by auditing one of `user`'s sessions.
fn token_of(user: &UserClient) -> peace_groupsig::RevocationToken {
    user.active_credential().unwrap().key.revocation_token()
}

/// A router enforcing a URL of `bystanders` revoked members (so that every
/// check is a sweep), and one more enrolled user in good standing; the
/// group has a share to spare.
fn world_with_url(seed: u64, bystanders: usize) -> (World, UserClient, MeshRouter) {
    let mut w = World::new(seed);
    let gid = w.add_group("org", bystanders + 2);
    for i in 0..bystanders {
        let revoked = w.enroll_user(&format!("revoked-{i}"), gid);
        assert!(w.no.revoke_member(&token_of(&revoked)));
    }
    let user = w.enroll_user("mallory", gid);
    let mut router = w.router("MR-1");
    router.update_lists(w.no.publish_crl(500), w.no.publish_url(500));
    assert_eq!(router.revocation().url_len(), bystanders);
    (w, user, router)
}

#[test]
fn the_pairings_of_a_handshake_all_run_between_begin_and_finish() {
    const URL: u64 = 8;
    let (mut w, mut mallory, mut router) = world_with_url(48, URL as usize);
    let beacon = router.beacon(1_000, &mut w.rng);
    let req = mallory.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    let pairing_work = |c: OpSnapshot| (c.miller_loops, c.miller_prepares, c.final_exps);

    // The gates, the list handle and the cache lookup: bytes only.
    let scope = OpSnapshot::scope();
    let pending = router.begin_access_request(&req, 1_020).unwrap();
    assert_eq!(scope.counts(), OpSnapshot::default());

    // §V.C's 3 + 2|URL| bilinear maps, restructured: the Σ-check's R₂
    // (4 evaluations of the key's line tables, 1 final exponentiation),
    // then the sweep (|URL| + 1 Miller loops, 1 line table, 1 final
    // exponentiation).
    let scope = OpSnapshot::scope();
    let checked = pending.verify();
    assert_eq!(pairing_work(scope.counts()), (4 + URL + 1, 1, 1 + 1));

    // Admission: one exponentiation for the session key, no pairing.
    let scope = OpSnapshot::scope();
    router.finish_access_request(checked, 1_030).unwrap();
    assert_eq!(pairing_work(scope.counts()), (0, 0, 0));

    // Unless the list changed in the gap: then, and only then, `finish`
    // sweeps — the list now in force.
    let beacon = router.beacon(2_000, &mut w.rng);
    let req = mallory.request_access(&beacon, 2_010, &mut w.rng).unwrap();
    let checked = router.begin_access_request(&req, 2_020).unwrap().verify();
    router.update_lists(w.no.publish_crl(2_025), w.no.publish_url(2_025));
    let scope = OpSnapshot::scope();
    router.finish_access_request(checked, 2_030).unwrap();
    assert_eq!(pairing_work(scope.counts()), (URL + 1, 1, 1));
}

#[test]
fn a_delta_listing_the_signer_before_finish_is_enforced() {
    let (mut w, mut mallory, mut router) = world_with_url(49, 2);
    let beacon = router.beacon(1_000, &mut w.rng);
    let req = mallory.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    // Verified, and swept clean, while she is still in good standing.
    let checked = router.begin_access_request(&req, 1_020).unwrap().verify();

    let (epoch, have) = (
        router.revocation().epoch(),
        router.revocation().url_version(),
    );
    assert!(w.no.revoke_member(&token_of(&mallory)));
    let delta = w.no.publish_url_delta(epoch, have, 1_025).unwrap();
    assert_eq!(delta.delta.added.len(), 1);
    router.apply_url_delta(&delta, 1_026).unwrap();

    assert_eq!(
        router.finish_access_request(checked, 1_030).unwrap_err(),
        ProtocolError::SignerRevoked
    );
    assert_eq!(router.pending_log_len(), 0, "nothing was logged");
}

#[test]
fn a_delta_reinstating_the_signer_before_finish_admits_her() {
    let (mut w, mut mallory, mut router) = world_with_url(50, 2);
    assert!(w.no.revoke_member(&token_of(&mallory)));
    router.update_lists(w.no.publish_crl(900), w.no.publish_url(900));
    let beacon = router.beacon(1_000, &mut w.rng);
    let req = mallory.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    // Swept against the list that names her.
    let checked = router.begin_access_request(&req, 1_020).unwrap().verify();

    let (epoch, have) = (
        router.revocation().epoch(),
        router.revocation().url_version(),
    );
    assert!(w.no.reinstate_member(&token_of(&mallory)));
    let delta = w.no.publish_url_delta(epoch, have, 1_025).unwrap();
    assert_eq!(delta.delta.removed.len(), 1);
    router.apply_url_delta(&delta, 1_026).unwrap();

    let (confirm, _) = router.finish_access_request(checked, 1_030).unwrap();
    assert!(mallory.handle_access_confirm(&confirm, 1_030).is_ok());
    assert_eq!(router.pending_log_len(), 1);
}

#[test]
fn a_restamp_before_finish_leaves_the_verdict_as_it_was() {
    let (mut w, mut alice, mut router) = world_with_url(51, 3);
    let gid = *w.gms.keys().next().unwrap();
    let mut mallory = w.enroll_user("on-the-list", gid);
    assert!(w.no.revoke_member(&token_of(&mallory)));
    router.update_lists(w.no.publish_crl(900), w.no.publish_url(900));

    let beacon = router.beacon(1_000, &mut w.rng);
    let req_a = alice.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    let req_m = mallory.request_access(&beacon, 1_011, &mut w.rng).unwrap();
    let clean = router.begin_access_request(&req_a, 1_020).unwrap().verify();
    let listed = router.begin_access_request(&req_m, 1_020).unwrap().verify();

    // The operator's list moves two versions on and back to the same
    // tokens; the router installs it as a new list all the same.
    let listed_before = router.revocation().digest();
    let bystander = router.revocation().tokens()[0];
    assert!(w.no.reinstate_member(&bystander) && w.no.revoke_member(&bystander));
    router.update_lists(w.no.publish_crl(1_025), w.no.publish_url(1_025));
    assert_ne!(router.revocation().digest(), listed_before, "a new version");
    assert_eq!(router.revocation().url_len(), 4);

    assert!(router.finish_access_request(clean, 1_030).is_ok());
    assert_eq!(
        router.finish_access_request(listed, 1_031).unwrap_err(),
        ProtocolError::SignerRevoked
    );
    assert_eq!(router.pending_log_len(), 1);
}

// ---------------------------------------------------------------------
// Where a handshake pays for its points. Messages cross the "wire"
// (encode, decode) between the endpoints, as they do between daemons: a
// decoded point is bytes until someone computes with it.
// ---------------------------------------------------------------------

fn over_the_wire<M: Encode + Decode>(msg: &M) -> M {
    M::from_wire(&msg.to_wire()).unwrap()
}

#[test]
fn an_accepted_handshake_decompresses_five_points() {
    let mut w = World::new(61);
    let gid = w.add_group("org", 1);
    let mut alice = w.enroll_user("alice", gid);
    let mut router = w.router("MR-1");
    let sent = router.beacon(1_000, &mut w.rng);

    // Decoding M.1 costs no curve arithmetic, the certificate's ECDSA key
    // included.
    let scope = OpSnapshot::scope();
    let beacon = over_the_wire(&sent);
    assert_eq!(scope.counts(), OpSnapshot::default());

    // Client: the certificate key (for the beacon signature), g (for
    // g^{r_j}) and g^{r_R} (for the session key).
    let scope = OpSnapshot::scope();
    let req = alice.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    assert_eq!(scope.counts().g1_decompressions, 3);
    // A repeat beacon from the same router verifies under the held
    // certificate's key: only the two fresh shares.
    let repeat = over_the_wire(&router.beacon(1_015, &mut w.rng));
    let scope = OpSnapshot::scope();
    alice.request_access(&repeat, 1_016, &mut w.rng).unwrap();
    let cost = scope.counts();
    assert_eq!(cost.g1_decompressions, 2);
    // §V.C on the client leg: six 𝔾₁ exponentiations to sign, two DH
    // multiplications (g^{r_j} and the session key), a subgroup check per
    // decompressed share, and the beacon's one ECDSA verification.
    assert_eq!(cost.g1_muls, 6 + 2 + 2 + 1);

    // Decoding M.2 costs no curve arithmetic at all.
    let scope = OpSnapshot::scope();
    let req = over_the_wire(&req);
    assert_eq!(scope.counts(), OpSnapshot::default());

    // Router: g^{r_j}, T₁, T₂ — once each across the Σ-check, the
    // revocation stage, the DH derivation and the logged transcript. The
    // echoed g^{r_R} is only ever compared.
    let scope = OpSnapshot::scope();
    let (confirm, _) = router.process_access_request(&req, 1_020).unwrap();
    let logged = router.drain_log().remove(0);
    assert!(logged.gsig.commitments().is_ok());
    let cost = scope.counts();
    assert_eq!(cost.g1_decompressions, 3);
    // §V.C: three 𝔾₁ exponentiations to verify (R₂ is table evaluations,
    // and v̂ enters them uncleared), one for the session key, and a
    // subgroup check per decompressed point.
    assert_eq!(cost.g1_muls, 3 + 1 + 3);
    assert_eq!((cost.miller_loops, cost.final_exps), (4, 1));

    // M.3 carries two echoes: decoded, compared, never decompressed.
    let scope = OpSnapshot::scope();
    let confirm: AccessConfirm = over_the_wire(&confirm);
    alice.handle_access_confirm(&confirm, 1_030).unwrap();
    assert_eq!(scope.counts().g1_decompressions, 0);
}

/// What one thread spent on the bilinear map, whole or in parts.
fn pairing_work(cost: &OpSnapshot) -> (u64, u64, u64, u64) {
    (
        cost.pairings,
        cost.miller_loops,
        cost.final_exps,
        cost.gt_exps,
    )
}

#[test]
fn an_accepted_beacon_costs_the_client_one_pairing_and_a_refused_one_none() {
    let mut w = World::new(64);
    let gid = w.add_group("org", 1);
    let mut alice = w.enroll_user("alice", gid);
    let mut router = w.router("MR-1");
    let window = w.no.config().timestamp_window;
    let beacon: Beacon = over_the_wire(&router.beacon(1_000, &mut w.rng));

    // Accepted: ê(A, g₂) came with the credential, so M.2's signature is
    // one bilinear map: two evaluations of the key's line tables at v, one
    // final exponentiation and one 𝔾_T power for the pair, and the power of
    // ê(A, g₂). Six multiplications sign — two of them cofactor clearings,
    // three on one doubling chain — two make g^{r_j} and the session key,
    // three are the subgroup checks of g, g^{r_R} and the certificate key,
    // and a first beacon is four ECDSA verifications (certificate, CRL,
    // URL, beacon).
    let scope = OpSnapshot::scope();
    alice.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    let cost = scope.counts();
    assert_eq!(pairing_work(&cost), (1, 2, 1, 2));
    assert_eq!(cost.g1_muls, 6 + 2 + 3 + 4);

    // Refused, for each reason a beacon can be: no pairing work at all.
    let mut revoked = w.router("MR-rogue");
    w.no.revoke_router(revoked.cert().serial);
    revoked.update_lists(w.no.publish_crl(1_000), w.no.publish_url(1_000));
    let listed = revoked.beacon(1_000, &mut w.rng);
    let mut resigned = beacon.clone();
    resigned.ts1 += 1;
    let scope = OpSnapshot::scope();
    for (beacon, now, err) in [
        (&beacon, 1_000 + window + 1, ProtocolError::StaleTimestamp),
        (&resigned, 1_010, ProtocolError::BadRouterSignature),
        (&listed, 1_010, ProtocolError::CertificateRevoked),
    ] {
        assert_eq!(alice.request_access(beacon, now, &mut w.rng), Err(err));
    }
    assert_eq!(pairing_work(&scope.counts()), (0, 0, 0, 0));
}

#[test]
fn a_beacon_is_byte_for_byte_what_a_ladder_over_g_produced() {
    use peace_curve::G1;
    use peace_field::Fq;

    let mut w = World::new(65);
    let mut router = w.router("MR-1");
    for now in [1_000, 1_001] {
        // The formula `beacon` used before both shares came from the
        // generator table: same draws, in the same order.
        let mut rng = w.rng.clone();
        let g = G1::random(&mut rng);
        let g_rr = g.mul(&Fq::random_nonzero(&mut rng));

        let scope = OpSnapshot::scope();
        let beacon = router.beacon(now, &mut w.rng);
        // Two table lookups and the ECDSA nonce's: three multiplications.
        assert_eq!(scope.counts().g1_muls, 3);
        assert_eq!(beacon.g.as_bytes()[..], g.to_bytes()[..]);
        assert_eq!(beacon.g_rr.as_bytes()[..], g_rr.to_bytes()[..]);
        assert!(beacon.cert.public_key.key().unwrap().verify(
            &Beacon::signed_payload(&beacon.g, &beacon.g_rr, now),
            &beacon.sig
        ));
        assert_eq!(w.rng.clone().next_u64(), rng.next_u64(), "same draws");
    }
}

#[test]
fn a_request_refused_at_a_gate_costs_no_curve_arithmetic() {
    let mut w = World::new(62);
    let gid = w.add_group("org", 1);
    let mut alice = w.enroll_user("alice", gid);
    let mut router = w.router("MR-1");
    let window = w.no.config().timestamp_window;

    let refused = |router: &mut MeshRouter, req: &AccessRequest, now: u64| {
        // A fresh decode each time: nothing remembered from an earlier look.
        let req = over_the_wire(req);
        let scope = OpSnapshot::scope();
        let err = router.process_access_request(&req, now).unwrap_err();
        assert_eq!(scope.counts(), OpSnapshot::default(), "{err:?}");
        err
    };

    let beacon = router.beacon(1_000, &mut w.rng);
    let req = alice.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    assert_eq!(
        refused(&mut router, &req, 1_010 + window + 1),
        ProtocolError::StaleTimestamp
    );
    router.process_access_request(&req, 1_020).unwrap();
    assert_eq!(
        refused(&mut router, &req, 1_030),
        ProtocolError::DuplicateMessage
    );
    let other = router.beacon(1_100, &mut w.rng);
    let req = alice.request_access(&other, 1_110, &mut w.rng).unwrap();
    router.forget_beacon(&req.g_rr);
    assert_eq!(
        refused(&mut router, &req, 1_120),
        ProtocolError::UnknownBeacon
    );

    router.set_under_attack(true);
    let defended = router.beacon(2_000, &mut w.rng);
    let solved = alice.request_access(&defended, 2_010, &mut w.rng).unwrap();
    let mut stripped = solved.clone();
    stripped.puzzle_solution = None;
    assert_eq!(
        refused(&mut router, &stripped, 2_020),
        ProtocolError::PuzzleRequired
    );
    let mut wrong = solved.clone();
    let solution = wrong.puzzle_solution.as_mut().unwrap();
    solution.counters[0] = solution.counters[0].wrapping_add(1);
    assert_eq!(
        refused(&mut router, &wrong, 2_020),
        ProtocolError::PuzzleInvalid
    );
    // The request itself was fine all along.
    router.process_access_request(&solved, 2_030).unwrap();
}

#[test]
fn a_beacon_refused_on_its_envelope_decompresses_neither_share() {
    let mut w = World::new(63);
    let gid = w.add_group("org", 1);
    let mut alice = w.enroll_user("alice", gid);
    let mut router = w.router("MR-1");
    let window = w.no.config().timestamp_window;
    let beacon: Beacon = over_the_wire(&router.beacon(1_000, &mut w.rng));

    let scope = OpSnapshot::scope();
    assert_eq!(
        alice.request_access(&beacon, 1_000 + window + 1, &mut w.rng),
        Err(ProtocolError::StaleTimestamp)
    );
    let mut forged = beacon.clone();
    forged.cert.serial += 1;
    assert_eq!(
        alice.request_access(&forged, 1_010, &mut w.rng),
        Err(ProtocolError::CertificateInvalid)
    );
    assert_eq!(scope.counts().g1_decompressions, 0);
    assert_eq!(alice.pending_handshakes(), 0);
}

/// One router and one M.2 for it: the same bytes and state for the same
/// seed.
fn router_and_request(seed: u64) -> (MeshRouter, AccessRequest) {
    let mut w = World::new(seed);
    let gid = w.add_group("org", 1);
    let mut alice = w.enroll_user("alice", gid);
    let mut router = w.router("MR-1");
    let beacon = router.beacon(1_000, &mut w.rng);
    let req = alice.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    (router, req)
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2))]

    /// Router admission with `g^{r_j}`, `T₁` and `T₂` decoded in one batch
    /// against the same request with its points decoded one at a time
    /// before it arrives, each on a router in the same state: the same
    /// confirmation or the same coded refusal, and for an accepted request
    /// the same op tallies. Over an honest request, a forged challenge, and
    /// each point off the curve, outside the subgroup or at the identity.
    #[test]
    fn prop_lane_admission_check_is_the_scalar_one(seed in 0u64..1 << 32) {
        let lanes = peace_field::lanes::Ifma::detect().is_some();
        println!("admission decode: {}", if lanes { "avx512ifma lanes" } else { "scalar" });
        let (_, honest) = router_and_request(seed);
        let off_curve = (1u8..)
            .map(|x| {
                let mut bytes = vec![0u8; 65];
                (bytes[0], bytes[64]) = (2, x);
                bytes
            })
            .find(|b| peace_curve::AffinePoint::from_compressed(b).is_none())
            .unwrap();
        let outside = peace_curve::hash_to_g2_preimage(b"outside", &seed.to_be_bytes())
            .point()
            .to_compressed();
        let identity = vec![0u8; 65];
        let forged = AccessRequest {
            gsig: peace_groupsig::GroupSignature {
                c: honest.gsig.c.add(&peace_field::Fq::ONE),
                ..honest.gsig.clone()
            },
            ..honest.clone()
        };
        let mut cases = vec![("honest", honest.to_wire()), ("forged c", forged.to_wire())];
        let bytes = honest.to_wire();
        // g^{r_j} leads the encoding; T₁ and T₂ follow g^{r_R}, ts₂ and r.
        for (slot, at) in [("g^{r_j}", 0), ("T1", 65 + 65 + 8 + 20), ("T2", 65 + 65 + 8 + 20 + 65)] {
            for (kind, encoding) in [("off the curve", &off_curve), ("outside", &outside), ("identity", &identity)] {
                let mut tampered = bytes.clone();
                tampered[at..at + 65].copy_from_slice(encoding);
                proptest::prop_assert!(AccessRequest::from_wire(&tampered).is_ok(), "{} {}", slot, kind);
                cases.push((kind, tampered));
            }
        }
        for (k, (kind, bytes)) in cases.iter().enumerate() {
            let (mut lane_router, _) = router_and_request(seed);
            let (mut scalar_router, _) = router_and_request(seed);
            let lane_req = AccessRequest::from_wire(bytes).unwrap();
            let scope = OpSnapshot::scope();
            let lane = lane_router.process_access_request(&lane_req, 1_020).map(|(m3, _)| m3.to_wire());
            let lane_cost = scope.counts();
            drop(scope);
            let scalar_req = AccessRequest::from_wire(bytes).unwrap();
            let scope = OpSnapshot::scope();
            if scalar_req.g_rj.decompress().is_ok() && !scalar_req.gsig.t1.is_identity() {
                let _ = scalar_req.gsig.commitments();
            }
            let scalar = scalar_router.process_access_request(&scalar_req, 1_020).map(|(m3, _)| m3.to_wire());
            let at = format!("{kind} (case {k})");
            proptest::prop_assert_eq!(lane.as_ref().err().map(|e| e.code()), scalar.as_ref().err().map(|e| e.code()), "{}", at);
            proptest::prop_assert_eq!(&lane, &scalar, "{}", at);
            proptest::prop_assert_eq!(lane.is_ok(), k == 0, "{}", at);
            if lane.is_ok() {
                proptest::prop_assert_eq!(lane_cost, scope.counts(), "{}", at);
            }
        }
    }
}
