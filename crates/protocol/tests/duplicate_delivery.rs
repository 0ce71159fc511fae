//! Duplicate/replay delivery regressions: a handshake message delivered
//! twice (channel duplication or attacker replay) establishes exactly one
//! session — the second copy is rejected cleanly with
//! [`ProtocolError::DuplicateMessage`] — and half-open state stays bounded
//! under floods and drains on expiry.

use peace_protocol::config::{HANDSHAKE_WINDOW, MAX_ACTIVE_BEACONS, MAX_PENDING_HANDSHAKES};
use peace_protocol::entities::{MeshRouter, NetworkOperator, Ttp, UserClient};
use peace_protocol::ids::UserId;
use peace_protocol::{ProtocolConfig, ProtocolError};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Net {
    no: NetworkOperator,
    alice: UserClient,
    bob: UserClient,
    router: MeshRouter,
    rng: StdRng,
}

fn net() -> Net {
    let mut rng = StdRng::seed_from_u64(0xD0_D0);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let mut ttp = Ttp::new();
    let mut gm = no.found_group("org", 4, &mut ttp, &mut rng).unwrap();
    let mut enroll = |name: &str, rng: &mut StdRng| {
        let uid = UserId(name.into());
        let mut c = UserClient::new(uid, no.prepared_gpk(), *no.npk(), *no.config(), rng);
        gm.enroll(&mut ttp, &mut c).unwrap();
        c
    };
    let alice = enroll("alice", &mut rng);
    let bob = enroll("bob", &mut rng);
    let router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);
    Net {
        no,
        alice,
        bob,
        router,
        rng,
    }
}

#[test]
fn replayed_access_request_mints_one_session() {
    let mut n = net();
    let beacon = n.router.beacon(1_000, &mut n.rng);
    let req = n.alice.request_access(&beacon, 1_000, &mut n.rng).unwrap();

    let (confirm, mut router_sess) = n.router.process_access_request(&req, 1_010).unwrap();
    // The identical M.2 arrives again (duplication or replay).
    let replay = n.router.process_access_request(&req, 1_020);
    assert!(matches!(replay, Err(ProtocolError::DuplicateMessage)));

    // The one real session still works end-to-end.
    let mut user_sess = n.alice.handle_access_confirm(&confirm, 1_030).unwrap();
    let packet = user_sess.seal_data(b"once");
    assert_eq!(router_sess.open_data(&packet).unwrap(), b"once");
}

#[test]
fn replayed_access_confirm_mints_one_session() {
    let mut n = net();
    let beacon = n.router.beacon(1_000, &mut n.rng);
    let req = n.alice.request_access(&beacon, 1_000, &mut n.rng).unwrap();
    let (confirm, _router_sess) = n.router.process_access_request(&req, 1_010).unwrap();

    let first = n.alice.handle_access_confirm(&confirm, 1_020);
    assert!(first.is_ok());
    let replay = n.alice.handle_access_confirm(&confirm, 1_030);
    assert!(matches!(replay, Err(ProtocolError::DuplicateMessage)));
    // The half-open state was consumed by the first copy.
    assert_eq!(n.alice.pending_handshakes(), 0);
}

#[test]
fn replayed_peer_response_and_confirm_mint_one_session() {
    let mut n = net();
    let beacon = n.router.beacon(1_000, &mut n.rng);
    let hello = n
        .alice
        .start_peer_handshake(&beacon.g, 1_000, &mut n.rng)
        .unwrap();
    let resp = n.bob.handle_peer_hello(&hello, 1_010, &mut n.rng).unwrap();

    // M̃.2 twice at the initiator.
    let (confirm, mut a_sess) = n.alice.handle_peer_response(&resp, 1_020).unwrap();
    let replay = n.alice.handle_peer_response(&resp, 1_030);
    assert!(matches!(replay, Err(ProtocolError::DuplicateMessage)));

    // M̃.3 twice at the responder.
    let mut b_sess = n.bob.handle_peer_confirm(&confirm, 1_040).unwrap();
    let replay = n.bob.handle_peer_confirm(&confirm, 1_050);
    assert!(matches!(replay, Err(ProtocolError::DuplicateMessage)));

    // Exactly one live pairwise session.
    let m = a_sess.seal_data(b"pair");
    assert_eq!(b_sess.open_data(&m).unwrap(), b"pair");
}

#[test]
fn half_open_flood_is_lru_bounded() {
    let mut n = net();
    let beacon = n.router.beacon(1_000, &mut n.rng);
    // More M.2s than the table holds, none ever confirmed.
    for i in 0..(MAX_PENDING_HANDSHAKES + 12) as u64 {
        n.alice
            .request_access(&beacon, 1_000 + i, &mut n.rng)
            .unwrap();
    }
    assert!(n.alice.pending_handshakes() <= MAX_PENDING_HANDSHAKES);
    assert!(n.alice.pending_high_water() <= MAX_PENDING_HANDSHAKES);
    assert!(n.alice.pending_evictions() >= 12);
}

#[test]
fn router_beacon_state_is_lru_bounded() {
    let mut n = net();
    for i in 0..(MAX_ACTIVE_BEACONS + 9) as u64 {
        n.router.beacon(1_000 + i, &mut n.rng);
    }
    assert!(n.router.active_beacon_count() <= MAX_ACTIVE_BEACONS);
    assert!(n.router.pending_state_high_water() <= 2 * MAX_ACTIVE_BEACONS); // beacons + dedup table
    assert!(n.router.pending_evictions() >= 9);
}

#[test]
fn expired_half_open_state_drains_and_rejects_late_confirm() {
    let mut n = net();
    let beacon = n.router.beacon(1_000, &mut n.rng);
    let req = n.alice.request_access(&beacon, 1_000, &mut n.rng).unwrap();
    let (confirm, _router_sess) = n.router.process_access_request(&req, 1_010).unwrap();

    // M.3 arrives long after the handshake window: the half-open state has
    // expired, so the confirm no longer matches anything.
    let late = 1_000 + HANDSHAKE_WINDOW + 1_000;
    let result = n.alice.handle_access_confirm(&confirm, late);
    assert!(matches!(result, Err(ProtocolError::SessionMismatch)));
    n.alice.expire_pending(late);
    assert_eq!(n.alice.pending_handshakes(), 0);
}

#[test]
fn epoch_rotation_clears_pending_state() {
    let mut n = net();
    let beacon = n.router.beacon(1_000, &mut n.rng);
    let req = n.alice.request_access(&beacon, 1_000, &mut n.rng).unwrap();
    let (confirm, _router_sess) = n.router.process_access_request(&req, 1_010).unwrap();
    assert_eq!(n.alice.pending_handshakes(), 1);

    // NO rotates the system key: in-flight handshakes cannot complete.
    let mut rng = StdRng::seed_from_u64(9);
    let gpk = n.no.rotate_system_key(&mut rng);
    let (crl, url) = (n.no.publish_crl(1_020), n.no.publish_url(1_020));
    n.alice.install_epoch(gpk);
    n.router
        .install_epoch(gpk, crl, url)
        .expect("epoch lists admitted");
    assert_eq!(n.alice.pending_handshakes(), 0);
    assert_eq!(n.router.active_beacon_count(), 0);
    let stale = n.alice.handle_access_confirm(&confirm, 1_030);
    assert!(matches!(stale, Err(ProtocolError::SessionMismatch)));
}
