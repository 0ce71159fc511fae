//! E9 — accountability (§IV.D): every valid session opens to the correct
//! group; tracing is complete and non-frameable; receipts provide
//! non-repudiation.

use std::collections::HashMap;

use peace::protocol::{
    entities::*, ids::*, AuditFinding, LoggedSession, ProtocolConfig, ProtocolError,
};
use peace::wire::{Encode, Writer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Net {
    no: NetworkOperator,
    gms: HashMap<GroupId, GroupManager>,
    ttp: Ttp,
    rng: StdRng,
}

fn build_net(seed: u64, groups: usize, keys_per_group: usize) -> Net {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let mut gms = HashMap::new();
    let mut ttp = Ttp::new();
    for i in 0..groups {
        let name = format!("org-{i}");
        let gm = no
            .found_group(&name, keys_per_group, &mut ttp, &mut rng)
            .unwrap();
        gms.insert(gm.id(), gm);
    }
    Net { no, gms, ttp, rng }
}

fn enroll(net: &mut Net, name: &str, gid: GroupId) -> UserClient {
    let uid = UserId(name.to_owned());
    let mut user = UserClient::new(
        uid,
        net.no.prepared_gpk(),
        *net.no.npk(),
        *net.no.config(),
        &mut net.rng,
    );
    let gm = net.gms.get_mut(&gid).unwrap();
    gm.enroll(&mut net.ttp, &mut user).unwrap();
    user
}

/// NO's audit of a transcript the router reported.
fn audit(no: &NetworkOperator, t: &LoggedSession) -> peace::protocol::Result<AuditFinding> {
    no.audit(&t.signed_payload, &t.gsig)
}

#[test]
fn bulk_audit_attributes_every_session_correctly() {
    let mut net = build_net(60, 4, 6);
    let group_ids: Vec<GroupId> = {
        let mut v: Vec<_> = net.gms.keys().copied().collect();
        v.sort();
        v
    };
    // 12 users spread over 4 groups.
    let mut users = Vec::new();
    for i in 0..12 {
        let gid = group_ids[i % group_ids.len()];
        let user = enroll(&mut net, &format!("user-{i}"), gid);
        users.push((user, gid));
    }
    let mut router = net.no.provision_router("MR-1", u64::MAX / 2, &mut net.rng);

    // every user opens several sessions; remember the ground truth
    let mut truth: Vec<(SessionId, GroupId, UserId)> = Vec::new();
    let mut t = 1_000u64;
    for _round in 0..3 {
        for (user, gid) in users.iter_mut() {
            let beacon = router.beacon(t, &mut net.rng);
            let req = user.request_access(&beacon, t + 5, &mut net.rng).unwrap();
            router.process_access_request(&req, t + 10).unwrap();
            truth.push((
                SessionId::from_points(&req.g_rr, &req.g_rj),
                *gid,
                user.uid().clone(),
            ));
            t += 50;
        }
    }
    let transcripts = router.drain_log();
    assert_eq!(transcripts.len(), truth.len());

    // NO audit: group attribution is exact for all 36 sessions.
    let law = LawAuthority::new();
    for (logged, (sid, gid, uid)) in transcripts.iter().zip(&truth) {
        assert_eq!(&logged.session_id, sid);
        let finding = audit(&net.no, logged).unwrap();
        assert_eq!(finding.group, *gid, "audit must find the right group");
        // law trace: exact user
        let trace = law.trace(&net.no, &net.gms, logged).unwrap();
        assert_eq!(&trace.uid, uid, "trace must find the right user");
    }
}

#[test]
fn audit_never_frames_an_uninvolved_group() {
    let mut net = build_net(61, 3, 3);
    let gids: Vec<GroupId> = {
        let mut v: Vec<_> = net.gms.keys().copied().collect();
        v.sort();
        v
    };
    let mut alice = enroll(&mut net, "alice", gids[0]);
    let mut router = net.no.provision_router("MR-1", u64::MAX / 2, &mut net.rng);
    let beacon = router.beacon(1_000, &mut net.rng);
    let req = alice.request_access(&beacon, 1_005, &mut net.rng).unwrap();
    router.process_access_request(&req, 1_010).unwrap();
    let finding = audit(&net.no, &router.drain_log()[0]).unwrap();
    assert_eq!(finding.group, gids[0]);
    assert_ne!(finding.group, gids[1]);
    assert_ne!(finding.group, gids[2]);
}

#[test]
fn receipts_provide_non_repudiation() {
    let mut net = build_net(62, 1, 2);
    let gid = *net.gms.keys().next().unwrap();
    let uid = UserId("alice".into());
    let mut alice = UserClient::new(
        uid.clone(),
        net.no.prepared_gpk(),
        *net.no.npk(),
        *net.no.config(),
        &mut net.rng,
    );
    // Enrollment step by step: the receipt covers the parts handed over.
    let gm = net.gms.get_mut(&gid).unwrap();
    let assignment = gm.assign(&uid).unwrap();
    let delivery = net.ttp.deliver(assignment.index, &uid).unwrap();
    let receipt = alice.enroll(&assignment, &delivery).unwrap();
    gm.store_receipt(&uid, receipt);

    // The GM holds a receipt that verifies under Alice's receipt key over
    // the parts she was handed — she cannot deny having received the
    // credential.
    let receipts = gm.receipts_for(&uid);
    assert_eq!(receipts.len(), 1);
    // The payload as enrollment signs it: index ‖ grp ‖ x ‖ blinded A.
    let mut w = Writer::new();
    assignment.index.encode(&mut w);
    w.put_fixed(&assignment.grp.to_canonical_bytes());
    w.put_fixed(&assignment.x.to_canonical_bytes());
    w.put_bytes(&delivery.blinded_a);
    let payload = w.into_bytes();
    assert!(receipts[0].verify(alice.receipt_vk(), &payload));
    // Another key does not verify it over the same payload, nor does her
    // key over a payload with one byte changed.
    let other_key = peace::ecdsa::SigningKey::from_scalar(peace::field::Fq::from_u64(7));
    assert!(!receipts[0].verify(other_key.verifying_key(), &payload));
    let mut changed = payload.clone();
    changed[0] ^= 1;
    assert!(!receipts[0].verify(alice.receipt_vk(), &changed));
}

/// A transcript signed under another operator's key matches no `grt`
/// token: the audit says so with a code and attributes nothing.
#[test]
fn audit_of_unknown_session_fails_cleanly() {
    use peace::groupsig::{sign, BasesMode, IssuerKey};

    let net = build_net(63, 1, 1);
    let mut rng = StdRng::seed_from_u64(1);
    let foreign = IssuerKey::generate(&mut rng);
    let key = foreign.issue(&foreign.new_group_secret(&mut rng), &mut rng);
    let gsig = sign(
        foreign.public_key(),
        &key,
        b"m",
        BasesMode::PerMessage,
        &mut rng,
    );
    assert_eq!(
        net.no.audit(b"m", &gsig),
        Err(ProtocolError::Setup("no grt token matches session"))
    );
}

#[test]
fn revocation_is_per_credential_and_complete() {
    let mut net = build_net(64, 2, 4);
    let gids: Vec<GroupId> = {
        let mut v: Vec<_> = net.gms.keys().copied().collect();
        v.sort();
        v
    };
    // Enroll several users; revoke a random subset by auditing their
    // sessions; verify exactly the revoked ones are blocked afterwards.
    let mut users: Vec<UserClient> = (0..6)
        .map(|i| enroll(&mut net, &format!("u{i}"), gids[i % 2]))
        .collect();
    let mut router = net.no.provision_router("MR-1", u64::MAX / 2, &mut net.rng);

    // round 1: everyone connects; the router logs one transcript each
    let mut t = 1_000;
    for user in users.iter_mut() {
        let beacon = router.beacon(t, &mut net.rng);
        let req = user.request_access(&beacon, t + 5, &mut net.rng).unwrap();
        router.process_access_request(&req, t + 10).unwrap();
        t += 50;
    }
    let transcripts = router.drain_log();

    // revoke users 1 and 4
    let revoked_set = [1usize, 4];
    for &i in &revoked_set {
        let finding = audit(&net.no, &transcripts[i]).unwrap();
        assert!(net.no.revoke_member(&finding.token));
    }
    assert_eq!(net.no.revoked_member_count(), 2);
    router
        .update_lists(net.no.publish_crl(t), net.no.publish_url(t))
        .expect("lists admitted");

    // round 2
    for (i, user) in users.iter_mut().enumerate() {
        let beacon = router.beacon(t, &mut net.rng);
        let result = user
            .request_access(&beacon, t + 5, &mut net.rng)
            .and_then(|req| router.process_access_request(&req, t + 10));
        if revoked_set.contains(&i) {
            assert!(result.is_err(), "user {i} should be blocked");
        } else {
            assert!(result.is_ok(), "user {i} should still work");
        }
        t += 50;
    }
}

#[test]
fn double_revocation_is_idempotent() {
    let mut net = build_net(65, 1, 2);
    let gid = *net.gms.keys().next().unwrap();
    let mut alice = enroll(&mut net, "alice", gid);
    let mut router = net.no.provision_router("MR-1", u64::MAX / 2, &mut net.rng);
    let beacon = router.beacon(1_000, &mut net.rng);
    let req = alice.request_access(&beacon, 1_005, &mut net.rng).unwrap();
    router.process_access_request(&req, 1_010).unwrap();
    let token = audit(&net.no, &router.drain_log()[0]).unwrap().token;
    assert!(net.no.revoke_member(&token));
    assert!(net.no.revoke_member(&token)); // second call: still "known token"
    assert_eq!(net.no.revoked_member_count(), 1);

    // An unknown token is refused.
    let mut rng = StdRng::seed_from_u64(9);
    let bogus = peace::groupsig::RevocationToken(peace::curve::G1::random(&mut rng));
    assert!(!net.no.revoke_member(&bogus));
}

#[test]
fn randomized_group_assignment_audits_correctly() {
    // Property-style randomized test: random users in random groups,
    // random session order — the audit is always exact.
    let mut net = build_net(66, 5, 4);
    let gids: Vec<GroupId> = {
        let mut v: Vec<_> = net.gms.keys().copied().collect();
        v.sort();
        v
    };
    let mut router = net.no.provision_router("MR-1", u64::MAX / 2, &mut net.rng);
    let mut t = 1_000;
    for trial in 0..10 {
        let gid = gids[net.rng.gen_range(0..gids.len())];
        let mut user = enroll(&mut net, &format!("rnd-{trial}"), gid);
        let beacon = router.beacon(t, &mut net.rng);
        let req = user.request_access(&beacon, t + 5, &mut net.rng).unwrap();
        router.process_access_request(&req, t + 10).unwrap();
        let logged = router.drain_log().remove(0);
        assert_eq!(audit(&net.no, &logged).unwrap().group, gid);
        t += 100;
    }
}

#[test]
fn baseline_plain_bs04_reveals_the_user_at_the_operator() {
    // The paper argues existing group signatures "can not support
    // sophisticated user privacy" because the opener learns the *member*.
    // Baseline: plain BS04 deployment = the operator issues keys directly
    // to users (no GM/TTP split), so its token registry maps to uids.
    // PEACE: the same opening yields only a group.
    use peace::groupsig::{open, sign, BasesMode, IssuerKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(70);

    // --- plain BS04 baseline ---
    let issuer = IssuerKey::generate(&mut rng);
    let grp = issuer.new_group_secret(&mut rng); // degenerate single group
    let users = ["alice", "bob", "carol"];
    let mut registry = Vec::new(); // operator's token → uid map (the leak)
    let mut keys = Vec::new();
    for name in users {
        let key = issuer.issue(&grp, &mut rng);
        registry.push((key.revocation_token(), name));
        keys.push(key);
    }
    let sig = sign(
        issuer.public_key(),
        &keys[1],
        b"m",
        BasesMode::PerMessage,
        &mut rng,
    );
    let tokens: Vec<_> = registry.iter().map(|(t, _)| *t).collect();
    let idx = open(
        issuer.public_key(),
        b"m",
        &sig,
        &tokens,
        BasesMode::PerMessage,
    )
    .unwrap();
    // The baseline operator identifies BOB — full identity disclosure.
    assert_eq!(registry[idx].1, "bob");

    // --- PEACE ---
    let mut net = build_net(71, 2, 3);
    let gids: Vec<GroupId> = {
        let mut v: Vec<_> = net.gms.keys().copied().collect();
        v.sort();
        v
    };
    let mut bob = enroll(&mut net, "bob", gids[0]);
    let mut router = net.no.provision_router("MR-1", u64::MAX / 2, &mut net.rng);
    let beacon = router.beacon(1_000, &mut net.rng);
    let req = bob.request_access(&beacon, 1_005, &mut net.rng).unwrap();
    router.process_access_request(&req, 1_010).unwrap();
    let finding = audit(&net.no, &router.drain_log()[0]).unwrap();
    // PEACE's operator learns a GroupId — a nonessential attribute. The
    // uid exists nowhere in its state; resolving it requires the GM.
    assert_eq!(finding.group, gids[0]);
    assert_eq!(
        net.gms[&gids[0]].identify(finding.index),
        Some(&UserId("bob".into()))
    );
}

/// A token match is not a signature: anyone holding `gpk` and one published
/// URL token `A` builds `T₁ = ψ(û)^α, T₂ = A·ψ(v̂)^α` on H₀'s bases with the
/// other fields random, and Eq.3 matches `A`. The audit verifies before it
/// attributes, so it refuses the forgery with a code
/// and frames no one; the honest session still opens.
#[test]
fn a_forgery_from_a_published_token_is_refused_not_attributed() {
    use peace::curve::psi;
    use peace::field::Fq;
    use peace::groupsig::{h0_bases, open, GroupSignature, VerifyError};

    let mut net = build_net(67, 1, 2);
    let gid = *net.gms.keys().next().unwrap();
    let mut alice = enroll(&mut net, "alice", gid);
    let mut router = net.no.provision_router("MR-1", u64::MAX / 2, &mut net.rng);
    let beacon = router.beacon(1_000, &mut net.rng);
    let req = alice.request_access(&beacon, 1_005, &mut net.rng).unwrap();
    router.process_access_request(&req, 1_010).unwrap();
    let logged = router.drain_log().remove(0);
    let finding = audit(&net.no, &logged).unwrap();
    assert!(net.no.revoke_member(&finding.token));
    let url = net.no.publish_url(2_000);
    assert_eq!(url.tokens, vec![finding.token]);

    let gpk = *net.no.gpk();
    let mode = net.no.config().bases_mode;
    let msg: &[u8] = b"a transcript alice never signed";
    let rng = &mut net.rng;
    let r = Fq::random(rng);
    let (u_hat, v_hat) = h0_bases(&gpk, msg, &r, mode);
    let alpha = Fq::random(rng);
    let forged = GroupSignature {
        r,
        t1: psi(&u_hat).mul(&alpha).into(),
        t2: url.tokens[0].0.add(&psi(&v_hat).mul(&alpha)).into(),
        c: Fq::random(rng),
        s_alpha: Fq::random(rng),
        s_x: Fq::random(rng),
        s_delta: Fq::random(rng),
    };
    assert_eq!(
        net.no.prepared_gpk().verify(msg, &forged, mode),
        Err(VerifyError::BadChallenge)
    );
    // The primitive matches the published token, as Eq.3 says it must...
    let grt_index = open(&gpk, msg, &forged, &url.tokens, mode);
    assert_eq!(grt_index, Some(0));
    // ...and the audit refuses to attribute what does not verify.
    let refused = net.no.audit(msg, &forged).unwrap_err();
    assert_eq!(refused, ProtocolError::BadGroupSignature);
    assert_eq!(refused.code(), "bad_group_signature");
    let honest = audit(&net.no, &logged).unwrap();
    assert_eq!((honest.group, honest.token), (finding.group, finding.token));
}
