//! Adversarial wire-mutation harness: every handshake message kind
//! (M.1–M.3, M̃.1–M̃.3) is mutated by every operator (truncate, bit-flip,
//! byte-splice, excise) and fed to the real decoder and the real handler.
//!
//! The property: a mutated message either fails to decode or is rejected
//! by the receiving endpoint — it never panics the stack and never
//! establishes a session. Each proptest case sweeps the full
//! 6-kinds × 4-operators matrix, so coverage is structural, not
//! probabilistic.

use std::sync::{Mutex, OnceLock};

use peace_protocol::entities::{GroupManager, MeshRouter, NetworkOperator, Ttp, UserClient};
use peace_protocol::ids::UserId;
use peace_protocol::{
    AccessConfirm, AccessRequest, Beacon, PeerConfirm, PeerHello, PeerResponse, ProtocolConfig,
};
use peace_wire::{Decode, Encode};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One fully provisioned network with a captured wire image of all six
/// handshake messages, plus live endpoints holding the half-open state
/// those messages target (so mutated copies reach real verification, not
/// just a state-lookup miss).
struct Fixture {
    alice: Mutex<UserClient>,
    bob: Mutex<UserClient>,
    router: Mutex<MeshRouter>,
    now: u64,
    wires: [(&'static str, Vec<u8>); 6],
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xFA57_F00D);
        let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
        let gid = no.register_group("org", &mut rng);
        let (gm_bundle, ttp_bundle) = no.issue_shares(gid, 4, &mut rng).unwrap();
        let mut gm = GroupManager::new(gid);
        gm.receive_bundle(&gm_bundle, no.npk()).unwrap();
        let mut ttp = Ttp::new();
        ttp.receive_bundle(&ttp_bundle, no.npk()).unwrap();

        let mut enroll = |name: &str, rng: &mut StdRng| {
            let uid = UserId(name.into());
            let mut c =
                UserClient::new(uid.clone(), no.prepared_gpk(), *no.npk(), *no.config(), rng);
            let assignment = gm.assign(&uid).unwrap();
            let delivery = ttp.deliver(assignment.index, &uid).unwrap();
            c.enroll(&assignment, &delivery).unwrap();
            c
        };
        let mut alice = enroll("alice", &mut rng);
        let mut bob = enroll("bob", &mut rng);
        let mut router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);

        let now = 1_000;
        let beacon = router.beacon(now, &mut rng);
        let m1 = beacon.to_wire();
        // Handshake #1 runs through M.2 so the router mints the real M.3;
        // alice never consumes it, keeping her half-open state alive for
        // the mutated-M.3 probes.
        let req1 = alice.request_access(&beacon, now, &mut rng).unwrap();
        let (confirm, _router_sess) = router.process_access_request(&req1, now).unwrap();
        let m3 = confirm.to_wire();
        // Handshake #2 stops at M.2: the router has never seen it, so
        // mutated copies exercise full verification rather than the
        // duplicate short-circuit.
        let req2 = alice.request_access(&beacon, now, &mut rng).unwrap();
        let m2 = req2.to_wire();

        // Peer handshake A runs through M̃.2 so alice mints the real M̃.3;
        // bob never consumes it.
        let hello_a = alice
            .start_peer_handshake(&beacon.g, now, &mut rng)
            .unwrap();
        let mt1 = hello_a.to_wire();
        let resp_a = bob.handle_peer_hello(&hello_a, now, &mut rng).unwrap();
        let (pconfirm, _a_sess) = alice.handle_peer_response(&resp_a, now).unwrap();
        let mt3 = pconfirm.to_wire();
        // Peer handshake B stops at M̃.2: alice's half-open state stays
        // alive for the mutated-M̃.2 probes.
        let hello_b = alice
            .start_peer_handshake(&beacon.g, now, &mut rng)
            .unwrap();
        let resp_b = bob.handle_peer_hello(&hello_b, now, &mut rng).unwrap();
        let mt2 = resp_b.to_wire();

        Fixture {
            alice: Mutex::new(alice),
            bob: Mutex::new(bob),
            router: Mutex::new(router),
            now,
            wires: [
                ("M1", m1),
                ("M2", m2),
                ("M3", m3),
                ("Mt1", mt1),
                ("Mt2", mt2),
                ("Mt3", mt3),
            ],
        }
    })
}

const OPERATORS: [&str; 4] = ["truncate", "bit-flip", "splice", "excise"];

/// Applies one mutation operator; returns `None` when the operator cannot
/// produce bytes different from the original (degenerate input).
fn mutate(op: &str, bytes: &[u8], salt: u64) -> Option<Vec<u8>> {
    if bytes.is_empty() {
        return None;
    }
    let len = bytes.len() as u64;
    let mut out = bytes.to_vec();
    match op {
        "truncate" => out.truncate((salt % len) as usize),
        "bit-flip" => {
            let bit = salt % (len * 8);
            out[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        "splice" => {
            // Overwrite a short run with salt-derived bytes, guaranteeing
            // at least one byte changes.
            let start = (salt % len) as usize;
            let run = 1 + (salt >> 17) as usize % 8;
            let mut x = salt | 1;
            for (i, slot) in out.iter_mut().skip(start).take(run).enumerate() {
                x = x.wrapping_mul(0x5DEE_CE66D).wrapping_add(11);
                *slot = (x >> 16) as u8;
                if i == 0 && *slot == bytes[start] {
                    *slot ^= 0xA5;
                }
            }
        }
        "excise" => {
            let start = (salt % len) as usize;
            let run = (1 + (salt >> 23) as usize % 16).min(out.len() - start);
            if run == 0 {
                return None;
            }
            out.drain(start..start + run);
        }
        _ => unreachable!("unknown operator {op}"),
    }
    (out != bytes).then_some(out)
}

/// Feeds mutated bytes of one message kind to the decoder and — if they
/// still decode — to the live endpoint holding matching half-open state.
/// Returns whether the stack rejected them (it must).
fn stack_rejects(kind: &str, bytes: &[u8]) -> bool {
    let fx = fixture();
    let (now, mut rng) = (fx.now, StdRng::seed_from_u64(7));
    match kind {
        "M1" => match Beacon::from_wire(bytes) {
            Err(_) => true,
            Ok(b) => fx
                .alice
                .lock()
                .unwrap()
                .request_access(&b, now, &mut rng)
                .is_err(),
        },
        "M2" => match AccessRequest::from_wire(bytes) {
            Err(_) => true,
            Ok(r) => fx
                .router
                .lock()
                .unwrap()
                .process_access_request(&r, now)
                .is_err(),
        },
        "M3" => match AccessConfirm::from_wire(bytes) {
            Err(_) => true,
            Ok(c) => fx
                .alice
                .lock()
                .unwrap()
                .handle_access_confirm(&c, now)
                .is_err(),
        },
        "Mt1" => match PeerHello::from_wire(bytes) {
            Err(_) => true,
            Ok(h) => fx
                .bob
                .lock()
                .unwrap()
                .handle_peer_hello(&h, now, &mut rng)
                .is_err(),
        },
        "Mt2" => match PeerResponse::from_wire(bytes) {
            Err(_) => true,
            Ok(r) => fx
                .alice
                .lock()
                .unwrap()
                .handle_peer_response(&r, now)
                .is_err(),
        },
        "Mt3" => match PeerConfirm::from_wire(bytes) {
            Err(_) => true,
            Ok(c) => fx.bob.lock().unwrap().handle_peer_confirm(&c, now).is_err(),
        },
        _ => unreachable!("unknown kind {kind}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full 6 × 4 mutation matrix per case: mutated handshake bytes
    /// are always rejected somewhere before a session is established.
    #[test]
    fn mutated_messages_never_accepted(salt in any::<u64>()) {
        for (kind, bytes) in &fixture().wires {
            for (oi, op) in OPERATORS.iter().enumerate() {
                // Vary the salt per combo so the matrix explores different
                // positions for each kind/operator pair.
                let s = salt ^ ((oi as u64 + 1) << 56) ^ (bytes.len() as u64);
                let Some(mutated) = mutate(op, bytes, s) else {
                    continue;
                };
                prop_assert!(
                    stack_rejects(kind, &mutated),
                    "mutated {kind} ({op}, salt {s:#x}) was accepted",
                );
            }
        }
    }

    /// Pure decoder fuzz: arbitrary garbage never panics any decoder.
    #[test]
    fn garbage_never_panics_decoders(bytes in proptest::collection::vec(any::<u8>(), 0..640)) {
        let _ = Beacon::from_wire(&bytes);
        let _ = AccessRequest::from_wire(&bytes);
        let _ = AccessConfirm::from_wire(&bytes);
        let _ = PeerHello::from_wire(&bytes);
        let _ = PeerResponse::from_wire(&bytes);
        let _ = PeerConfirm::from_wire(&bytes);
    }
}

/// Untouched fixture messages still decode and re-encode byte-identically
/// (the harness mutates real, valid wire images — not already-broken ones).
#[test]
fn fixture_wires_are_valid() {
    let fx = fixture();
    for (kind, bytes) in &fx.wires {
        let reencoded = match *kind {
            "M1" => Beacon::from_wire(bytes).unwrap().to_wire(),
            "M2" => AccessRequest::from_wire(bytes).unwrap().to_wire(),
            "M3" => AccessConfirm::from_wire(bytes).unwrap().to_wire(),
            "Mt1" => PeerHello::from_wire(bytes).unwrap().to_wire(),
            "Mt2" => PeerResponse::from_wire(bytes).unwrap().to_wire(),
            "Mt3" => PeerConfirm::from_wire(bytes).unwrap().to_wire(),
            other => unreachable!("unknown kind {other}"),
        };
        assert_eq!(&reencoded, bytes, "{kind} does not round-trip");
    }
}
