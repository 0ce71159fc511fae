//! Validate-on-use at every boundary that carries a point as bytes: a
//! canonically encoded point that is off the curve, or on it but outside
//! the order-`q` subgroup, survives decoding — and is refused, with a
//! stable code and no panic, by the first step that would compute with it.
//! A non-canonical encoding is refused by the decoder, as it always was.
//! No refusal leaves a session, a pending handshake or an adopted list
//! behind.

use peace_curve::{AffinePoint, G1Wire, PointError, G1};
use peace_protocol::config::DOS_THRESHOLD;
use peace_protocol::entities::{MeshRouter, NetworkOperator, Ttp, UserClient};
use peace_protocol::ids::UserId;
use peace_protocol::{
    AccessRequest, Beacon, PeerConfirm, PeerHello, PeerResponse, ProtocolConfig, ProtocolError,
};
use peace_wire::{Decode, Encode};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Canonical encodings that name no group element, with the reason.
fn bad_points() -> [(Vec<u8>, PointError); 2] {
    let encode = |x: u64| {
        let mut bytes = vec![0u8; G1::ENCODED_LEN];
        bytes[0] = 2;
        bytes[G1::ENCODED_LEN - 8..].copy_from_slice(&x.to_be_bytes());
        bytes
    };
    let off_curve = (1..)
        .map(encode)
        .find(|b| AffinePoint::from_compressed(b).is_none())
        .unwrap();
    let out_of_subgroup = (1..)
        .map(encode)
        .find(|b| AffinePoint::from_compressed(b).is_some_and(|p| !p.is_in_subgroup()))
        .unwrap();
    [
        (off_curve, PointError::NotOnCurve),
        (out_of_subgroup, PointError::NotInSubgroup),
    ]
}

/// `x ≥ p`: not a canonical encoding of anything.
fn non_canonical() -> Vec<u8> {
    let mut bytes = vec![0xFF; G1::ENCODED_LEN];
    bytes[0] = 2;
    bytes
}

/// `wire` with the 65 bytes at `at` replaced by `point`.
fn splice(wire: &[u8], at: usize, point: &[u8]) -> Vec<u8> {
    let mut out = wire.to_vec();
    out[at..at + G1::ENCODED_LEN].copy_from_slice(point);
    out
}

struct World {
    no: NetworkOperator,
    router: MeshRouter,
    alice: UserClient,
    bob: UserClient,
    rng: StdRng,
}

fn world(seed: u64) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let mut ttp = Ttp::new();
    let mut gm = no.found_group("org", 2, &mut ttp, &mut rng).unwrap();
    let mut enroll = |name: &str, rng: &mut StdRng| {
        let uid = UserId(name.into());
        let mut c = UserClient::new(uid, no.prepared_gpk(), *no.npk(), *no.config(), rng);
        gm.enroll(&mut ttp, &mut c).unwrap();
        c
    };
    let alice = enroll("alice", &mut rng);
    let bob = enroll("bob", &mut rng);
    let router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);
    World {
        no,
        router,
        alice,
        bob,
        rng,
    }
}

// M.2 on the wire: g^{r_j} ‖ g^{r_R} ‖ ts₂ ‖ r ‖ T₁ ‖ T₂ ‖ …
const M2_G_RJ: usize = 0;
const M2_T1: usize = 65 + 65 + 8 + 20;
const M2_T2: usize = M2_T1 + 65;

#[test]
fn a_bad_point_in_m2_is_a_failed_verification() {
    let mut w = world(1);
    let threshold = DOS_THRESHOLD;
    let beacon = w.router.beacon(1_000, &mut w.rng);
    let req = w.alice.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    let wire = req.to_wire();

    let mut forgeries = Vec::new();
    for (name, at) in [("g_rj", M2_G_RJ), ("T1", M2_T1), ("T2", M2_T2)] {
        // Non-canonical: refused by the decoder, before the router sees it.
        assert!(
            AccessRequest::from_wire(&splice(&wire, at, &non_canonical())).is_err(),
            "{name}"
        );
        for (bad, _) in bad_points() {
            forgeries.push(AccessRequest::from_wire(&splice(&wire, at, &bad)).expect(name));
        }
    }
    // Each one feeds the §V.A flood detector like any forgery: a
    // threshold's worth of them arms DoS-defense mode, not one fewer.
    for (i, forged) in forgeries.iter().cycle().take(threshold).enumerate() {
        assert!(!w.router.is_under_attack(), "armed after {i} failures");
        // The cheap gates pass it (the beacon is live, no puzzle is
        // armed): it is the Σ-check that finds the point.
        let pending = w.router.begin_access_request(forged, 1_020).unwrap();
        let err = w
            .router
            .finish_access_request(pending.verify(), 1_020)
            .unwrap_err();
        assert_eq!(err, ProtocolError::BadGroupSignature);
        assert_eq!(err.code(), "bad_group_signature");
        assert_eq!(w.router.pending_log_len(), 0);
    }
    assert!(threshold >= forgeries.len(), "every forgery was tried");
    assert!(w.router.is_under_attack());
    // The genuine request's beacon predates the attack and has no puzzle,
    // so it is sent for one; answered on a fresh beacon, it completes.
    assert_eq!(
        w.router.process_access_request(&req, 1_030).unwrap_err(),
        ProtocolError::PuzzleRequired
    );
    let defended = w.router.current_beacon(1_040, &mut w.rng);
    let req = w
        .alice
        .request_access(&defended, 1_050, &mut w.rng)
        .unwrap();
    w.router.process_access_request(&req, 1_060).unwrap();
}

/// A beacon the router really signed, over whatever bytes sit in `g` and
/// `g^{r_R}`.
fn resign(router: &MeshRouter, mut beacon: Beacon) -> Beacon {
    beacon.sig =
        router
            .signing_key()
            .sign(&Beacon::signed_payload(&beacon.g, &beacon.g_rr, beacon.ts1));
    beacon
}

#[test]
fn a_bad_point_in_a_beacon_refuses_it_with_nothing_adopted() {
    let mut w = world(2);
    // Alice already holds lists from an earlier, honest beacon.
    let first = w.router.beacon(1_000, &mut w.rng);
    w.alice.request_access(&first, 1_000, &mut w.rng).unwrap();
    let pending = w.alice.pending_handshakes();
    let versions = w.alice.list_versions();

    // The operator publishes newer lists; a beacon carrying them — and a
    // bad share, under the router's genuine signature — is refused whole.
    let (crl, url) = (w.no.publish_crl(1_050), w.no.publish_url(1_050));
    w.router.update_lists(crl, url).expect("lists admitted");
    let honest = w.router.beacon(1_100, &mut w.rng);
    let wire = honest.to_wire();
    for (field, at) in [("beacon.g", 0), ("beacon.g_rr", 65)] {
        assert!(Beacon::from_wire(&splice(&wire, at, &non_canonical())).is_err());
        for (bad, _) in bad_points() {
            let beacon = Beacon::from_wire(&splice(&wire, at, &bad)).expect(field);
            let beacon = resign(&w.router, beacon);
            let err = w
                .alice
                .request_access(&beacon, 1_100, &mut w.rng)
                .unwrap_err();
            assert_eq!(
                err,
                ProtocolError::Wire(peace_wire::WireError::Invalid(field))
            );
            assert_eq!(err.code(), "wire");
            assert_eq!(w.alice.pending_handshakes(), pending);
            assert_eq!(w.alice.list_versions(), versions);
        }
    }
    // Without the router's signature over the swapped bytes the beacon
    // never gets as far as its points.
    let (bad, _) = &bad_points()[0];
    let unsigned = Beacon::from_wire(&splice(&wire, 0, bad)).unwrap();
    assert_eq!(
        w.alice.request_access(&unsigned, 1_100, &mut w.rng),
        Err(ProtocolError::BadRouterSignature)
    );
    w.alice.request_access(&honest, 1_100, &mut w.rng).unwrap();
}

#[test]
fn a_bad_point_in_a_peer_handshake_is_refused_by_the_step_that_needs_it() {
    let mut w = world(3);
    let beacon = w.router.beacon(1_000, &mut w.rng);
    for user in [&mut w.alice, &mut w.bob] {
        user.request_access(&beacon, 1_000, &mut w.rng).unwrap();
    }
    let g = &beacon.g;
    let now = 1_010;

    // Starting from a generator that is not a group element.
    for (bad, _) in bad_points() {
        let g = G1Wire::parse(&bad).unwrap();
        assert!(matches!(
            w.alice.start_peer_handshake(&g, now, &mut w.rng),
            Err(ProtocolError::Wire(_))
        ));
    }
    assert_eq!(w.alice.pending_handshakes(), 1, "only the router handshake");

    // M̃.1: g ‖ g^{r_j} ‖ ts₁ ‖ r ‖ T₁ ‖ T₂ ‖ … — both DH fields are under
    // the group signature, so swapping either fails it; so does a bad
    // commitment.
    let hello = w.alice.start_peer_handshake(g, now, &mut w.rng).unwrap();
    let wire = hello.to_wire();
    for at in [0, 65, M2_T1, M2_T2] {
        assert!(PeerHello::from_wire(&splice(&wire, at, &non_canonical())).is_err());
        for (bad, _) in bad_points() {
            let forged = PeerHello::from_wire(&splice(&wire, at, &bad)).unwrap();
            assert_eq!(
                w.bob.handle_peer_hello(&forged, now, &mut w.rng),
                Err(ProtocolError::BadGroupSignature)
            );
        }
    }
    assert_eq!(w.bob.pending_handshakes(), 1);

    // M̃.2: g^{r_j} ‖ g^{r_l} ‖ ts₂ ‖ signature.
    let resp = w.bob.handle_peer_hello(&hello, now, &mut w.rng).unwrap();
    let wire = resp.to_wire();
    for at in [65, M2_T1, M2_T2] {
        assert!(PeerResponse::from_wire(&splice(&wire, at, &non_canonical())).is_err());
        for (bad, _) in bad_points() {
            let forged = PeerResponse::from_wire(&splice(&wire, at, &bad)).unwrap();
            assert_eq!(
                w.alice.handle_peer_response(&forged, now + 1).err(),
                Some(ProtocolError::BadGroupSignature)
            );
        }
    }
    // The echoed g^{r_j} is the lookup key: a swapped one finds no
    // half-open handshake and is never decompressed.
    let (bad, _) = &bad_points()[0];
    let forged = PeerResponse::from_wire(&splice(&wire, 0, bad)).unwrap();
    assert_eq!(
        w.alice.handle_peer_response(&forged, now + 1).err(),
        Some(ProtocolError::SessionMismatch)
    );

    // M̃.3 carries two echoes and a ciphertext: its points are only ever
    // compared, so a bad one is a session that does not exist.
    let (confirm, _) = w.alice.handle_peer_response(&resp, now + 1).unwrap();
    let wire = confirm.to_wire();
    for at in [0, 65] {
        assert!(PeerConfirm::from_wire(&splice(&wire, at, &non_canonical())).is_err());
        for (bad, _) in bad_points() {
            let forged = PeerConfirm::from_wire(&splice(&wire, at, &bad)).unwrap();
            assert_eq!(
                w.bob.handle_peer_confirm(&forged, now + 2).err(),
                Some(ProtocolError::SessionMismatch)
            );
        }
    }
    w.bob.handle_peer_confirm(&confirm, now + 2).unwrap();
}
