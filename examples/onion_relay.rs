//! Anonymous upper-layer communication (the paper's conclusion: PEACE
//! "lays a solid background for designing other upper layer security and
//! privacy solutions, e.g., anonymous communication").
//!
//! Alice reaches a mesh router through relay Bob using *layered*
//! protection: an end-to-end PEACE session with the router (inner layer)
//! wrapped in a pairwise PEACE session with Bob (outer layer). Bob relays
//! but can read neither the payload nor learn who Alice is; the router
//! serves the request but cannot tell it was relayed, let alone by whom.
//!
//! Run with: `cargo run --release --example onion_relay`

use peace::protocol::{entities::*, ids::UserId, ProtocolConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(31337);
    println!("== PEACE onion relay demo ==\n");

    // Standard setup with two users.
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let gid = no.register_group("Neighborhood", &mut rng);
    let (gm_b, ttp_b) = no.issue_shares(gid, 4, &mut rng)?;
    let mut gm = GroupManager::new(gid);
    gm.receive_bundle(&gm_b, no.npk())?;
    let mut ttp = Ttp::new();
    ttp.receive_bundle(&ttp_b, no.npk())?;
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
    let mut router = no.provision_router("MR-9", u64::MAX / 2, &mut rng);

    // Layer 1 (inner): Alice ↔ router end-to-end session. Out of radio
    // range she would bootstrap this through the relay; the handshake
    // messages themselves carry no identity, so relaying them is safe.
    let beacon = router.beacon(1_000, &mut rng);
    let req = alice.request_access(&beacon, 1_010, &mut rng)?;
    let (confirm, mut router_sess) = router.process_access_request(&req, 1_020)?;
    let mut alice_router = alice.handle_access_confirm(&confirm, 1_020)?;
    println!("inner layer: alice ↔ router session established (anonymous)");

    // Layer 2 (outer): Alice ↔ Bob pairwise session (M̃.1–M̃.3).
    let hello = alice.start_peer_handshake(&beacon.g, 2_000, &mut rng)?;
    let resp = bob.handle_peer_hello(&hello, 2_010, &mut rng)?;
    let (pconfirm, mut alice_bob) = alice.handle_peer_response(&resp, 2_020)?;
    let mut bob_alice = bob.handle_peer_confirm(&pconfirm, 2_020)?;
    println!("outer layer: alice ↔ bob relay session established (bilateral anonymous)\n");

    // Alice wraps her router-bound ciphertext for the relay.
    let secret_request = b"GET /ballot-results  (nobody should see this)";
    let inner = alice_router.seal_data(secret_request);
    println!("alice: inner ciphertext {} bytes", inner.len());
    let onion = alice_bob.seal_data(&inner);
    println!("alice: onion-wrapped for bob, {} bytes", onion.len());

    // Bob peels ONE layer and forwards. What he sees is ciphertext.
    let peeled = bob_alice.open_data(&onion)?;
    assert_eq!(peeled, inner);
    let visible = String::from_utf8_lossy(&peeled);
    assert!(!visible.contains("ballot"), "relay must not see plaintext");
    println!("bob: peeled outer layer → still ciphertext; forwarding to router");

    // The router decrypts the inner layer.
    let served = router_sess.open_data(&peeled)?;
    assert_eq!(served, secret_request);
    println!(
        "router: served request {:?}",
        String::from_utf8_lossy(&served)
    );

    // Response flows back the same way.
    let inner_resp = router_sess.seal_data(b"results: 42%");
    let onion_resp = bob_alice.seal_data(&inner_resp);
    let peeled_resp = alice_bob.open_data(&onion_resp)?;
    let plain = alice_router.open_data(&peeled_resp)?;
    println!(
        "alice: received response {:?}",
        String::from_utf8_lossy(&plain)
    );

    println!("\nbob learned: two anonymous subscribers exchanged ciphertext. nothing else.");
    println!("done.");
    Ok(())
}
