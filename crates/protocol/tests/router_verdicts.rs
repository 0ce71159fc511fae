//! The router's verdicts, work and lock on an access request (M.2): a
//! forged request is refused with the code, and after the work, pinned
//! below; an admitted one runs no group operation in the step that holds
//! the router's lock; and the session key the router derives is the
//! client's.

use peace_curve::{AffinePoint, G1Wire, G1};
use peace_field::Fq;
use peace_groupsig::OpSnapshot;
use peace_protocol::entities::{MeshRouter, NetworkOperator, Ttp, UserClient};
use peace_protocol::ids::UserId;
use peace_protocol::{AccessRequest, ProtocolConfig, ProtocolError};
use peace_wire::{Decode, Encode};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct World {
    router: MeshRouter,
    alice: UserClient,
    rng: StdRng,
}

fn world(seed: u64) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let mut ttp = Ttp::new();
    let mut gm = no.found_group("org", 1, &mut ttp, &mut rng).unwrap();
    let uid = UserId("alice".into());
    let mut alice = UserClient::new(uid, no.prepared_gpk(), *no.npk(), *no.config(), &mut rng);
    gm.enroll(&mut ttp, &mut alice).unwrap();
    let router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);
    World { router, alice, rng }
}

/// Canonical encodings of no group element: an x with no curve point, and
/// a curve point outside the order-`q` subgroup.
fn bad_points() -> (G1Wire, G1Wire) {
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
    let outside = (1..)
        .map(encode)
        .find(|b| AffinePoint::from_compressed(b).is_some_and(|p| !p.is_in_subgroup()))
        .unwrap();
    (
        G1Wire::parse(&off_curve).unwrap(),
        G1Wire::parse(&outside).unwrap(),
    )
}

/// `msg` as the far end decodes it: every point not yet decompressed.
fn over_the_wire<M: Encode + Decode>(msg: &M) -> M {
    M::from_wire(&msg.to_wire()).unwrap()
}

/// (decompressions, 𝔾₁ exponentiations, Miller loops, final exponentiations).
type Tally = (u64, u64, u64, u64);

fn tally(cost: &OpSnapshot) -> Tally {
    (
        cost.g1_decompressions,
        cost.g1_muls,
        cost.miller_loops,
        cost.final_exps,
    )
}

/// Each forgery of one honest M.2, its refusal and the work done before
/// it. Where the refusal is `g^{r_j}`'s, H₀'s cofactor clearing has run
/// beside the decompressions: one 𝔾₁ exponentiation more than a router
/// that decoded `g^{r_j}` on its own and refused before H₀, which read
/// (3, 2, 0, 0) and (3, 3, 0, 0). A flipped response pays the whole
/// Σ-check; the DH secret riding in its ladder group is not counted for a
/// refused signature.
#[test]
fn a_forged_request_is_refused_after_the_pinned_work() {
    let (off_curve, outside) = bad_points();
    type Forge = fn(&mut AccessRequest, &(G1Wire, G1Wire));
    let cases: [(&str, Forge, Tally); 6] = [
        (
            "g^{r_j} off the curve",
            |req, bad| req.g_rj = bad.0.clone(),
            (3, 3, 0, 0),
        ),
        (
            "g^{r_j} outside the subgroup",
            |req, bad| req.g_rj = bad.1.clone(),
            (3, 4, 0, 0),
        ),
        (
            "T₁ outside the subgroup",
            |req, bad| req.gsig.t1 = bad.1.clone(),
            (3, 4, 0, 0),
        ),
        (
            "T₂ at the identity",
            |req, _| req.gsig.t2 = G1::IDENTITY.into(),
            (2, 3, 0, 0),
        ),
        (
            "flipped c",
            |req, _| req.gsig.c = req.gsig.c.add(&Fq::ONE),
            (3, 6, 4, 1),
        ),
        (
            "flipped s_x",
            |req, _| req.gsig.s_x = req.gsig.s_x.add(&Fq::ONE),
            (3, 6, 4, 1),
        ),
    ];
    let mut w = world(44);
    // Six refusals in a row would otherwise trip the flood detector.
    w.router.set_under_attack(false);
    let beacon = w.router.beacon(1_000, &mut w.rng);
    let honest = w.alice.request_access(&beacon, 1_010, &mut w.rng).unwrap();
    for (what, forge, want) in cases {
        let mut req = honest.clone();
        forge(&mut req, &(off_curve.clone(), outside.clone()));
        let req = over_the_wire(&req);
        let scope = OpSnapshot::scope();
        let got = w.router.process_access_request(&req, 1_020);
        let cost = scope.counts();
        assert_eq!(got.err(), Some(ProtocolError::BadGroupSignature), "{what}");
        assert_eq!(tally(&cost), want, "{what}");
    }
    // The honest request is still admitted, and its keys agree.
    let honest = over_the_wire(&honest);
    let (confirm, mut router_session) = w.router.process_access_request(&honest, 1_030).unwrap();
    let mut alice_session = w.alice.handle_access_confirm(&confirm, 1_030).unwrap();
    let up = alice_session.seal_data(b"uplink");
    assert_eq!(router_session.open_data(&up).unwrap(), b"uplink");
}

/// The router's lock is held for `begin` and `finish` only: the session
/// key is derived in `verify`, so `finish` runs no exponentiation and
/// decompresses nothing. The key it admits with is the client's: M.3
/// opens under it, and data flows both ways.
#[test]
fn admission_runs_no_group_operation_and_the_keys_agree() {
    let mut w = world(45);
    let beacon = w.router.beacon(1_000, &mut w.rng);
    let req = over_the_wire(&w.alice.request_access(&beacon, 1_010, &mut w.rng).unwrap());
    let checked = w.router.begin_access_request(&req, 1_020).unwrap().verify();
    let scope = OpSnapshot::scope();
    let (confirm, mut router_session) = w.router.finish_access_request(checked, 1_020).unwrap();
    let cost = scope.counts();
    assert_eq!((cost.g1_muls, cost.g1_decompressions), (0, 0));
    assert_eq!(cost, OpSnapshot::default());

    let mut alice_session = w.alice.handle_access_confirm(&confirm, 1_030).unwrap();
    let up = alice_session.seal_data(b"uplink");
    assert_eq!(router_session.open_data(&up).unwrap(), b"uplink");
    let down = router_session.seal_data(b"downlink");
    assert_eq!(alice_session.open_data(&down).unwrap(), b"downlink");
}
