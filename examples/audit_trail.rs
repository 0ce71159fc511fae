//! The dispute story (paper §IV.D, experiments E8/E9): a user misbehaves;
//! the operator audits the session and learns only the user group; the law
//! authority, with group-manager cooperation, completes the trace.
//!
//! Also demonstrates the multi-role privacy model: one person, two roles,
//! two different audit outcomes.
//!
//! Run with: `cargo run --release --example audit_trail`

use std::collections::HashMap;

use peace::protocol::{entities::*, ids::UserId, ProtocolConfig, SessionId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(77);
    println!("== PEACE audit & tracing demo ==\n");

    // Setup: two society entities subscribe on behalf of their members.
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let company = no.register_group("Company XYZ", &mut rng);
    let golf = no.register_group("Golf Club V", &mut rng);
    let mut gms: HashMap<_, _> = HashMap::new();
    let mut ttp = Ttp::new();
    for gid in [company, golf] {
        let (gm_b, ttp_b) = no.issue_shares(gid, 4, &mut rng)?;
        let mut gm = GroupManager::new(gid);
        gm.receive_bundle(&gm_b, no.npk())?;
        ttp.receive_bundle(&ttp_b, no.npk())?;
        gms.insert(gid, gm);
    }

    // Dave is both an engineer at Company XYZ and a member of Golf Club V.
    let uid = UserId("dave".into());
    let mut dave = UserClient::new(uid.clone(), *no.gpk(), *no.npk(), *no.config(), &mut rng);
    for gid in [company, golf] {
        let gm = gms.get_mut(&gid).unwrap();
        let assignment = gm.assign(&uid)?;
        let delivery = ttp.deliver(assignment.index, &uid)?;
        let receipt = dave.enroll(&assignment, &delivery)?;
        gm.store_receipt(&uid, receipt);
    }
    println!("dave enrolled in: Company XYZ (role 0), Golf Club V (role 1)\n");

    // Dave opens sessions under each role.
    let mut router = no.provision_router("MR-5", u64::MAX / 2, &mut rng);
    let mut session_ids = Vec::new();
    for (role, label) in [(0usize, "from the office"), (1, "from the golf club")] {
        dave.set_active_role(role)?;
        let now = 1_000 + role as u64 * 500;
        let beacon = router.beacon(now, &mut rng);
        let req = dave.request_access(&beacon, now + 10, &mut rng)?;
        let (confirm, _) = router.process_access_request(&req, now + 20)?;
        dave.handle_access_confirm(&confirm, now + 20)?;
        let sid = SessionId::from_points(&req.g_rr, &req.g_rj);
        println!("session {} opened {label}", sid);
        session_ids.push(sid);
    }
    no.ingest_router_log(&mut router);

    // A dispute arises over each session. NO audits.
    println!("\n-- operator audit (learns the GROUP, not the person) --");
    for sid in &session_ids {
        let finding = no.audit(sid)?;
        println!(
            "session {} → responsible entity: '{}'",
            sid,
            no.group_name(finding.group).unwrap()
        );
    }

    // The sessions are unlinkable to each other at the operator.
    let f0 = no.audit(&session_ids[0])?;
    let f1 = no.audit(&session_ids[1])?;
    assert_ne!(
        f0.token, f1.token,
        "different roles leave unlinkable tokens"
    );
    println!("\nthe two sessions carry unrelated tokens — NO cannot tell they are the same person");

    // Severe case: the law authority compels a full trace.
    println!("\n-- law-authority trace (NO + GM cooperation) --");
    let law = LawAuthority::new();
    for sid in &session_ids {
        let trace = law.trace(&no, &gms, sid)?;
        println!(
            "session {} → {} (via {})",
            sid,
            trace.uid,
            no.group_name(trace.group).unwrap()
        );
    }

    // Accountability follow-up: revoke the key used in the first session.
    let bad = no.audit(&session_ids[0])?;
    no.revoke_member(&bad.token);
    router.update_lists(no.publish_crl(5_000), no.publish_url(5_000));
    dave.set_active_role(0)?;
    let beacon = router.beacon(5_100, &mut rng);
    let req = dave.request_access(&beacon, 5_110, &mut rng)?;
    let err = router.process_access_request(&req, 5_120).unwrap_err();
    println!("\nafter revocation, dave's office credential is refused: {err}");

    dave.set_active_role(1)?;
    let beacon = router.beacon(5_200, &mut rng);
    let req = dave.request_access(&beacon, 5_210, &mut rng)?;
    assert!(router.process_access_request(&req, 5_220).is_ok());
    println!("his golf-club credential (a different role) still works — revocation is per-key");

    println!("\ndone.");
    Ok(())
}
