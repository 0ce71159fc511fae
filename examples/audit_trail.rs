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
    // Dave is both an engineer at Company XYZ and a member of Golf Club V:
    // he enrolls once per group.
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let uid = UserId("dave".into());
    let mut dave = UserClient::new(uid, *no.gpk(), *no.npk(), *no.config(), &mut rng);
    let mut ttp = Ttp::new();
    let mut gms = HashMap::new();
    for name in ["Company XYZ", "Golf Club V"] {
        let mut gm = no.found_group(name, 4, &mut ttp, &mut rng)?;
        gm.enroll(&mut ttp, &mut dave)?;
        gms.insert(gm.id(), gm);
    }
    println!("dave enrolled in: Company XYZ (role 0), Golf Club V (role 1)\n");

    // Dave opens sessions under each role.
    let mut router = no.provision_router("MR-5", u64::MAX / 2, &mut rng);
    for (role, label) in [(0usize, "from the office"), (1, "from the golf club")] {
        dave.set_active_role(role)?;
        let now = 1_000 + role as u64 * 500;
        let beacon = router.beacon(now, &mut rng);
        let req = dave.request_access(&beacon, now + 10, &mut rng)?;
        let (confirm, _) = router.process_access_request(&req, now + 20)?;
        dave.handle_access_confirm(&confirm, now + 20)?;
        let sid = SessionId::from_points(&req.g_rr, &req.g_rj);
        println!("session {} opened {label}", sid);
    }
    // The router reports both transcripts, in session order.
    let transcripts = router.drain_log();

    // A dispute arises over each session. NO audits.
    println!("\n-- operator audit (learns the GROUP, not the person) --");
    let mut findings = Vec::new();
    for t in &transcripts {
        let finding = no.audit(&t.signed_payload, &t.gsig)?;
        println!(
            "session {} → responsible entity: '{}'",
            t.session_id,
            no.group_name(finding.group).unwrap()
        );
        findings.push(finding);
    }

    // The sessions are unlinkable to each other at the operator.
    let (f0, f1) = (&findings[0], &findings[1]);
    assert_ne!(
        f0.token, f1.token,
        "different roles leave unlinkable tokens"
    );
    println!("\nthe two sessions carry unrelated tokens — NO cannot tell they are the same person");

    // Severe case: the law authority compels a full trace.
    println!("\n-- law-authority trace (NO + GM cooperation) --");
    let law = LawAuthority::new();
    for t in &transcripts {
        let trace = law.trace(&no, &gms, t)?;
        println!(
            "session {} → {} (via {})",
            t.session_id,
            trace.uid,
            no.group_name(trace.group).unwrap()
        );
    }

    // Accountability follow-up: revoke the key used in the first session.
    no.revoke_member(&f0.token);
    router
        .update_lists(no.publish_crl(5_000), no.publish_url(5_000))
        .expect("lists admitted");
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
