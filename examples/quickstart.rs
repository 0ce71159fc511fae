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
    let mut ttp = Ttp::new();
    let mut gm = no.found_group("Company XYZ", 8, &mut ttp, &mut rng)?;
    println!("setup: operator, group manager (Company XYZ), TTP ready");

    // --- User enrollment (three-party key assembly) --------------------
    let [mut alice, mut bob] = ["alice", "bob"].map(|name| {
        let uid = UserId(name.into());
        UserClient::new(uid, no.prepared_gpk(), *no.npk(), *no.config(), &mut rng)
    });
    gm.enroll(&mut ttp, &mut alice)?;
    gm.enroll(&mut ttp, &mut bob)?;
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
    // The router reports each M.2 transcript; NO opens the disputed one.
    let logged = router.drain_log().remove(0);
    let finding = no.audit(&logged.signed_payload, &logged.gsig)?;
    println!(
        "\naudit: session {} attributed to '{}' — and nothing more",
        logged.session_id,
        no.group_name(finding.group).unwrap_or("?")
    );
    println!("done.");
    Ok(())
}
