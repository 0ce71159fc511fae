//! Quickstart: full PEACE setup, one anonymous user↔router handshake, one
//! user↔user handshake, encrypted data exchange, and the E1 size report
//! (group signature vs ECDSA vs paper parameters).
//!
//! Run with: `cargo run --release --example quickstart`

use peace::groupsig::GroupSignature;
use peace::protocol::{entities::*, ids::UserId, ProtocolConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2008);

    println!("== PEACE quickstart ==\n");

    // --- System setup (paper §IV.A) -----------------------------------
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let company = no.register_group("Company XYZ", &mut rng);
    let (gm_bundle, ttp_bundle) = no.issue_shares(company, 8, &mut rng)?;

    let mut gm = GroupManager::new(company);
    gm.receive_bundle(&gm_bundle, no.npk())?;
    let mut ttp = Ttp::new();
    ttp.receive_bundle(&ttp_bundle, no.npk())?;
    println!("setup: operator, group manager (Company XYZ), TTP ready");

    // --- User enrollment (three-party key assembly) --------------------
    let enroll = |name: &str, gm: &mut GroupManager, ttp: &mut Ttp, rng: &mut StdRng| {
        let uid = UserId(name.to_owned());
        let mut user =
            UserClient::new(uid.clone(), no.prepared_gpk(), *no.npk(), *no.config(), rng);
        let assignment = gm.assign(&uid).expect("share available");
        let delivery = ttp.deliver(assignment.index, &uid).expect("ttp delivery");
        let receipt = user
            .enroll(&assignment, &delivery)
            .expect("valid credential");
        gm.store_receipt(&uid, receipt);
        user
    };
    let mut alice = enroll("alice", &mut gm, &mut ttp, &mut rng);
    let mut bob = enroll("bob", &mut gm, &mut ttp, &mut rng);
    println!("enrolled: alice, bob (group manager never saw their A_ij points)");

    // --- User ↔ router handshake (paper §IV.B) -------------------------
    let mut router = no.provision_router("MR-17", u64::MAX / 2, &mut rng);
    let beacon = router.beacon(1_000, &mut rng);
    let request = alice.request_access(&beacon, 1_010, &mut rng)?;
    let (confirm, mut router_sess) = router.process_access_request(&request, 1_020)?;
    let mut alice_sess = alice.handle_access_confirm(&confirm, 1_020)?;
    println!("\nuser↔router: 3-way handshake complete (router learned only 'a legitimate user')");

    let up = alice_sess.seal_data(b"GET /news HTTP/1.1");
    let received = router_sess.open_data(&up)?;
    println!(
        "  uplink payload delivered: {:?}",
        String::from_utf8_lossy(&received)
    );
    let down = router_sess.seal_data(b"HTTP/1.1 200 OK");
    println!(
        "  downlink payload delivered: {:?}",
        String::from_utf8_lossy(&alice_sess.open_data(&down)?)
    );

    // --- User ↔ user handshake (paper §IV.C) ---------------------------
    let hello = alice.start_peer_handshake(&beacon.g, 2_000, &mut rng)?;
    let resp = bob.handle_peer_hello(&hello, 2_010, &mut rng)?;
    let (peer_confirm, mut a_peer) = alice.handle_peer_response(&resp, 2_020)?;
    let mut b_peer = bob.handle_peer_confirm(&peer_confirm, 2_020)?;
    let relay = a_peer.seal_data(b"relay this packet please");
    b_peer.open_data(&relay)?;
    println!("user↔user: bilateral anonymous handshake complete, relay channel keyed");

    // --- E1: signature/message sizes -----------------------------------
    use peace::wire::Encode;
    println!("\n== E1: sizes (bytes) ==");
    println!(
        "  group signature (this impl, 512-bit supersingular curve): {}",
        GroupSignature::ENCODED_LEN
    );
    println!("  group signature (paper's MNT-curve params): 149  (1,192 bits)");
    println!("  RSA-1024 signature (paper's comparison point): 128");
    println!("  ECDSA-160 signature (beacons, certs): 40");
    println!("  beacon M.1: {}", beacon.to_wire().len());
    println!("  access request M.2: {}", request.to_wire().len());
    println!("  access confirm M.3: {}", confirm.to_wire().len());

    // --- Audit teaser (paper §IV.D) -------------------------------------
    no.ingest_router_log(&mut router);
    let sid = peace::protocol::SessionId::from_points(&request.g_rr, &request.g_rj);
    let finding = no.audit(&sid)?;
    println!(
        "\naudit: session {} attributed to '{}' — and nothing more",
        sid,
        no.group_name(finding.group).unwrap_or("?")
    );
    println!("done.");
    Ok(())
}
