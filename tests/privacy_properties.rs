//! E8 — the paper's privacy guarantees (§III.C, §IV.D, §V.B), tested as
//! concrete distinguishing/knowledge experiments against the real stack:
//!
//! * anonymity & unlinkability of signatures against outsiders and other
//!   members;
//! * the GM's inability to recognize its own members' signatures;
//! * the TTP's inability to recover key material from blinded shares;
//! * NO's audit stopping at the group boundary.

use peace::field::Fq;
use peace::groupsig::{
    h0_bases, revocation_index, sign, token_matches, verify, BasesMode, GroupSignature, IssuerKey,
};
use peace::pairing::pairing_ratio;
use peace::protocol::{entities::*, ids::UserId, ProtocolConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn signature_reveals_nothing_but_membership() {
    let mut rng = StdRng::seed_from_u64(80);
    let issuer = IssuerKey::generate(&mut rng);
    let grp = issuer.new_group_secret(&mut rng);
    let alice = issuer.issue(&grp, &mut rng);
    let bob = issuer.issue(&grp, &mut rng);
    let gpk = *issuer.public_key();

    // Both members' signatures verify identically; nothing in the public
    // verification distinguishes them.
    let sa = sign(&gpk, &alice, b"m", BasesMode::PerMessage, &mut rng);
    let sb = sign(&gpk, &bob, b"m", BasesMode::PerMessage, &mut rng);
    assert!(verify(&gpk, b"m", &sa, BasesMode::PerMessage).is_ok());
    assert!(verify(&gpk, b"m", &sb, BasesMode::PerMessage).is_ok());
}

#[test]
fn insider_with_own_key_cannot_link_peer_signatures() {
    // An adversary controlling Bob's full key material (compromised user,
    // §III.B threat model) still cannot run the revocation test against
    // Alice's signatures with any token he can compute.
    let mut rng = StdRng::seed_from_u64(81);
    let issuer = IssuerKey::generate(&mut rng);
    let grp = issuer.new_group_secret(&mut rng);
    let alice = issuer.issue(&grp, &mut rng);
    let bob = issuer.issue(&grp, &mut rng);
    let gpk = *issuer.public_key();

    let sig = sign(&gpk, &alice, b"m", BasesMode::PerMessage, &mut rng);
    // Bob tries his own token — no match.
    let (u_hat, v_hat) = h0_bases(&gpk, b"m", &sig.r, BasesMode::PerMessage);
    assert!(!token_matches(
        &sig,
        &bob.revocation_token(),
        &u_hat,
        &v_hat
    ));
    // Bob's token matches only Bob's own signatures.
    let sig_b = sign(&gpk, &bob, b"m", BasesMode::PerMessage, &mut rng);
    let (u2, v2) = h0_bases(&gpk, b"m", &sig_b.r, BasesMode::PerMessage);
    assert!(token_matches(&sig_b, &bob.revocation_token(), &u2, &v2));
}

#[test]
fn two_sessions_by_same_user_share_no_observable_state() {
    // Unlinkability at the protocol level: two access requests by the same
    // user have disjoint DH shares, commitments, challenges, and session
    // ids. (Information-theoretic components are re-randomized per session.)
    let mut rng = StdRng::seed_from_u64(82);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let gid = no.register_group("org", &mut rng);
    let (gm_b, ttp_b) = no.issue_shares(gid, 2, &mut rng).unwrap();
    let mut gm = GroupManager::new(gid);
    gm.receive_bundle(&gm_b, no.npk()).unwrap();
    let mut ttp = Ttp::new();
    ttp.receive_bundle(&ttp_b, no.npk()).unwrap();
    let uid = UserId("alice".into());
    let mut alice = UserClient::new(
        uid.clone(),
        no.prepared_gpk(),
        *no.npk(),
        *no.config(),
        &mut rng,
    );
    let a = gm.assign(&uid).unwrap();
    let d = ttp.deliver(a.index, &uid).unwrap();
    alice.enroll(&a, &d).unwrap();
    let mut router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);

    let b1 = router.beacon(1_000, &mut rng);
    let r1 = alice.request_access(&b1, 1_010, &mut rng).unwrap();
    let b2 = router.beacon(1_100, &mut rng);
    let r2 = alice.request_access(&b2, 1_110, &mut rng).unwrap();

    assert_ne!(r1.g_rj, r2.g_rj, "fresh DH share per session");
    assert_ne!(r1.gsig.t1, r2.gsig.t1);
    assert_ne!(r1.gsig.t2, r2.gsig.t2);
    assert_ne!(r1.gsig.c, r2.gsig.c);
    assert_ne!(r1.gsig.r, r2.gsig.r);
}

#[test]
fn group_manager_cannot_recognize_its_members_signatures() {
    // The GM holds (grp, x) scalars but never A_{i,j}; the revocation test
    // requires A. Reconstructing A from (grp, x) needs γ. Verify that the
    // GM's view (scalars only) cannot produce a matching token for a real
    // signature: try a "token" built from every G1 value the GM could
    // plausibly derive from its scalars.
    let mut rng = StdRng::seed_from_u64(83);
    let issuer = IssuerKey::generate(&mut rng);
    let grp = issuer.new_group_secret(&mut rng);
    let member = issuer.issue(&grp, &mut rng);
    let gpk = *issuer.public_key();
    let sig = sign(&gpk, &member, b"m", BasesMode::PerMessage, &mut rng);
    let (u_hat, v_hat) = h0_bases(&gpk, b"m", &sig.r, BasesMode::PerMessage);

    let x_eff = member.grp.add(&member.x);
    let guesses = [
        gpk.g1.mul(&x_eff),                                      // g1^(grp+x)
        gpk.g1.mul(&x_eff.invert().unwrap()),                    // g1^(1/(grp+x))
        peace::curve::psi(&gpk.w).mul(&x_eff.invert().unwrap()), // ψ(w)^(1/(grp+x))
        gpk.g1.mul(&member.x),
        gpk.g1.mul(&member.grp),
    ];
    for guess in guesses {
        assert!(!token_matches(
            &sig,
            &peace::groupsig::RevocationToken(guess),
            &u_hat,
            &v_hat
        ));
    }
    // while the true token (held by NO) matches
    assert!(token_matches(
        &sig,
        &member.revocation_token(),
        &u_hat,
        &v_hat
    ));
}

#[test]
fn ttp_share_alone_reveals_neither_a_nor_x() {
    // The TTP stores A ⊕ pad(x). Without x the pad is a PRF output; check
    // that the blinded share is not the encoding of any subgroup point the
    // TTP could test (it shouldn't even decode), and that two shares for
    // the same A under different x are unrelated.
    use peace::curve::G1;
    use peace::protocol::setup::{blind_a, unblind_a};
    let mut rng = StdRng::seed_from_u64(84);
    let a = G1::random(&mut rng);
    let x1 = Fq::random(&mut rng);
    let x2 = Fq::random(&mut rng);
    let b1 = blind_a(&a, &x1);
    let b2 = blind_a(&a, &x2);
    assert_ne!(b1, b2);
    // The blinded bytes are not a valid point encoding (tag byte is
    // randomized; 253/256 of values are invalid tags).
    assert_ne!(b1, a.to_bytes());
    // And unblinding with the wrong scalar fails.
    assert!(unblind_a(&b1, &x2).is_none());
    assert_eq!(unblind_a(&b1, &x1).unwrap(), a);
}

#[test]
fn operator_audit_stops_at_group_boundary() {
    // NO's entire post-audit knowledge is (token, share index, group). The
    // API returns exactly that and nothing user-identifying; the user id
    // lives only at the GM.
    let mut rng = StdRng::seed_from_u64(85);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let gid = no.register_group("Company XYZ", &mut rng);
    let (gm_b, ttp_b) = no.issue_shares(gid, 2, &mut rng).unwrap();
    let mut gm = GroupManager::new(gid);
    gm.receive_bundle(&gm_b, no.npk()).unwrap();
    let mut ttp = Ttp::new();
    ttp.receive_bundle(&ttp_b, no.npk()).unwrap();
    let uid = UserId("alice".into());
    let mut alice = UserClient::new(
        uid.clone(),
        no.prepared_gpk(),
        *no.npk(),
        *no.config(),
        &mut rng,
    );
    let assign = gm.assign(&uid).unwrap();
    let deliver = ttp.deliver(assign.index, &uid).unwrap();
    alice.enroll(&assign, &deliver).unwrap();

    let mut router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);
    let beacon = router.beacon(1_000, &mut rng);
    let req = alice.request_access(&beacon, 1_010, &mut rng).unwrap();
    router.process_access_request(&req, 1_020).unwrap();
    no.ingest_router_log(&mut router);

    let sid = peace::protocol::SessionId::from_points(&req.g_rr, &req.g_rj);
    let finding = no.audit(&sid).unwrap();
    assert_eq!(finding.group, gid);
    // The finding maps to the GM's slot — only the GM can resolve it.
    assert_eq!(gm.identify(finding.index), Some(&uid));
    // A *different* group's manager cannot resolve it.
    let other_gm = GroupManager::new(peace::protocol::GroupId(999));
    assert_eq!(other_gm.identify(finding.index), None);
}

#[test]
fn fixed_bases_mode_links_only_revoked_members() {
    // What the table adds under FixedBases: a listed member's signatures
    // are *identified* as that token's, and an unlisted member's are not.
    // Unlisted is not unlinkable — every member's sessions link within an
    // epoch without any table (fixed_bases_links_every_member_within_an_epoch).
    let mut rng = StdRng::seed_from_u64(86);
    let issuer = IssuerKey::generate(&mut rng);
    let grp = issuer.new_group_secret(&mut rng);
    let alice = issuer.issue(&grp, &mut rng);
    let bob = issuer.issue(&grp, &mut rng);
    let gpk = *issuer.public_key();

    let table = peace::groupsig::RevocationTable::build(&gpk, &[alice.revocation_token()]);
    let sa1 = sign(&gpk, &alice, b"m1", BasesMode::FixedBases, &mut rng);
    let sa2 = sign(&gpk, &alice, b"m2", BasesMode::FixedBases, &mut rng);
    let sb = sign(&gpk, &bob, b"m3", BasesMode::FixedBases, &mut rng);
    // Alice (revoked) is identified in every session by the table…
    assert_eq!(table.lookup(&sa1), Some(0));
    assert_eq!(table.lookup(&sa2), Some(0));
    // …Bob is not in the table: not identified.
    assert_eq!(table.lookup(&sb), None);
}

#[test]
fn fixed_bases_links_every_member_within_an_epoch() {
    // BS04's caveat for fixed bases: (û, v̂) = H₀(gpk) is public, so anyone
    // holding gpk computes D = ê(T₂,û)/ê(T₁,v̂) = ê(A,û) from one signature
    // — a per-member tag, no token and no table needed. Public API only.
    let mut rng = StdRng::seed_from_u64(88);
    let issuer = IssuerKey::generate(&mut rng);
    let grp = issuer.new_group_secret(&mut rng);
    let alice = issuer.issue(&grp, &mut rng);
    let bob = issuer.issue(&grp, &mut rng);
    let gpk = *issuer.public_key();
    let tag = |msg: &[u8], sig: &GroupSignature, mode| {
        let (u_hat, v_hat) = h0_bases(&gpk, msg, &sig.r, mode);
        let (t1, t2) = sig.commitments().unwrap();
        pairing_ratio(&t2, &u_hat, &t1, &v_hat).unwrap()
    };
    let fixed = BasesMode::FixedBases;
    let sa1 = sign(&gpk, &alice, b"m1", fixed, &mut rng);
    let sa2 = sign(&gpk, &alice, b"m2", fixed, &mut rng);
    let sb = sign(&gpk, &bob, b"m3", fixed, &mut rng);
    // Alice is on no list, and her two sessions carry one tag…
    assert_eq!(tag(b"m1", &sa1, fixed), tag(b"m2", &sa2, fixed));
    // …which is hers, not the group's.
    assert_ne!(tag(b"m1", &sa1, fixed), tag(b"m3", &sb, fixed));
    // Control: per-message bases give the same member a fresh tag.
    let per = BasesMode::PerMessage;
    let pa1 = sign(&gpk, &alice, b"m1", per, &mut rng);
    let pa2 = sign(&gpk, &alice, b"m2", per, &mut rng);
    assert_ne!(tag(b"m1", &pa1, per), tag(b"m2", &pa2, per));
}

#[test]
fn per_message_bases_defeat_precomputed_linking() {
    // Control for the previous test: under the paper-default PerMessage
    // bases, the fixed-bases table is useless even against a listed member.
    let mut rng = StdRng::seed_from_u64(87);
    let issuer = IssuerKey::generate(&mut rng);
    let grp = issuer.new_group_secret(&mut rng);
    let alice = issuer.issue(&grp, &mut rng);
    let gpk = *issuer.public_key();
    let table = peace::groupsig::RevocationTable::build(&gpk, &[alice.revocation_token()]);
    let sig = sign(&gpk, &alice, b"m", BasesMode::PerMessage, &mut rng);
    assert_eq!(table.lookup(&sig), None);
    // The honest per-message scan still works, of course.
    assert_eq!(
        revocation_index(
            &gpk,
            b"m",
            &sig,
            &[alice.revocation_token()],
            BasesMode::PerMessage
        ),
        Some(0)
    );
}

#[test]
fn the_signers_cached_pairing_never_leaves_the_credential() {
    // ê(A, g₂) is kept beside the member key so that a signature costs one
    // pairing. It names the member exactly as A does, so it is key
    // material: it must be in no message the client sends, no Debug
    // rendering, and no telemetry — after the client has signed with it.
    use peace::wire::Encode;
    let mut rng = StdRng::seed_from_u64(89);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let gid = no.register_group("org", &mut rng);
    let (gm_b, ttp_b) = no.issue_shares(gid, 2, &mut rng).unwrap();
    let mut gm = GroupManager::new(gid);
    gm.receive_bundle(&gm_b, no.npk()).unwrap();
    let mut ttp = Ttp::new();
    ttp.receive_bundle(&ttp_b, no.npk()).unwrap();
    let mut enroll = |name: &str, rng: &mut StdRng| {
        let uid = UserId(name.into());
        let mut user =
            UserClient::new(uid.clone(), no.prepared_gpk(), *no.npk(), *no.config(), rng);
        let a = gm.assign(&uid).unwrap();
        let d = ttp.deliver(a.index, &uid).unwrap();
        user.enroll(&a, &d).unwrap();
        user
    };
    let mut alice = enroll("alice", &mut rng);
    let mut bob = enroll("bob", &mut rng);
    let mut router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);

    // One M.2, and both signing sides of M̃.1–M̃.3.
    let beacon = router.beacon(1_000, &mut rng);
    let req = alice.request_access(&beacon, 1_010, &mut rng).unwrap();
    bob.request_access(&beacon, 1_010, &mut rng).unwrap();
    let hello = alice
        .start_peer_handshake(&beacon.g, 1_020, &mut rng)
        .unwrap();
    let resp = bob.handle_peer_hello(&hello, 1_030, &mut rng).unwrap();
    let (confirm, _) = alice.handle_peer_response(&resp, 1_040).unwrap();
    let sent = [
        req.to_wire(),
        hello.to_wire(),
        resp.to_wire(),
        confirm.to_wire(),
    ];
    let rendered = [
        format!("{alice:?}"),
        format!("{bob:?}"),
        format!("{:?}", alice.active_credential().unwrap()),
        format!("{:?}", bob.active_credential().unwrap()),
        peace::telemetry::global().snapshot().to_json(),
    ];

    for user in [&alice, &bob] {
        let key = user.active_credential().unwrap().key;
        let e_a_g2 = peace::pairing::pairing(&key.a, &no.gpk().g2);
        let printed = format!("{e_a_g2:?}");
        let e_a_g2 = e_a_g2.to_bytes();
        // Either coordinate, less its ends: however a rendering treats
        // leading zeros or splits the value, the middle would be in it.
        for coordinate in e_a_g2.chunks(64) {
            let middle = &coordinate[8..56];
            let hex: String = middle.iter().map(|b| format!("{b:02x}")).collect();
            assert!(
                printed.contains(&hex),
                "the needle a derived Debug would drop"
            );
            for bytes in &sent {
                assert!(!bytes.windows(middle.len()).any(|w| w == middle));
            }
            for text in &rendered {
                assert!(!text.to_lowercase().contains(&hex), "{text}");
            }
        }
    }
    // The renderings are not trivially empty of the credential.
    assert!(rendered[2].contains("Credential") && rendered[2].contains("MemberKey(..)"));
}
