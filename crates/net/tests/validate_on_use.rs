//! Validate-on-use across the socket. A frame whose points are canonical
//! but name no group element is a well-formed envelope: the daemon decodes
//! it (`net.decode_failures` does not move) and the step that needs the
//! point refuses it — the router's Σ-check as a failed verification
//! (`AUTH_FAILED`, counted by `net.access_verify_us`), the operator's
//! audit as a transcript nobody can be found for. A non-canonical point is
//! still a MALFORMED frame.

mod common;

use std::net::TcpStream;
use std::time::Duration;

use peace_curve::{AffinePoint, G1};
use peace_groupsig::GroupSignature;
use peace_ledger::LedgerRecord;
use peace_net::{
    build_world, read_frame, reject_code, write_frame, ConnConfig, DaemonConfig, NoDaemon,
    NodeMessage, RouterDaemon, WorldSpec, DEFAULT_MAX_FRAME,
};
use peace_protocol::{AccessRequest, LoggedSession};
use peace_wire::{Decode, Encode};

use common::fresh_ledger;

fn cfg() -> DaemonConfig {
    DaemonConfig {
        conn: ConnConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            ..ConnConfig::default()
        },
        ..DaemonConfig::default()
    }
}

/// A canonical encoding of an x-coordinate with no point on the curve.
fn off_curve() -> Vec<u8> {
    (1u64..)
        .map(|x| {
            let mut bytes = vec![0u8; G1::ENCODED_LEN];
            bytes[0] = 2;
            bytes[G1::ENCODED_LEN - 8..].copy_from_slice(&x.to_be_bytes());
            bytes
        })
        .find(|b| AffinePoint::from_compressed(b).is_none())
        .unwrap()
}

// T₁ within a signature (after r) and within M.2 (after two shares and ts₂).
const SIG_T1: usize = 20;
const M2_T1: usize = 65 + 65 + 8 + SIG_T1;

fn exchange(stream: &mut TcpStream, msg: &NodeMessage) -> NodeMessage {
    write_frame(stream, &msg.try_to_wire().unwrap(), DEFAULT_MAX_FRAME).unwrap();
    NodeMessage::from_wire(&read_frame(stream, DEFAULT_MAX_FRAME).unwrap()).unwrap()
}

#[test]
fn event_loop_router_refuses_a_bad_commitment_at_the_sigma_check() {
    let spec = WorldSpec {
        seed: 0x0B5E_0002,
        users: 1,
        routers: 1,
    };
    let mut w = build_world(&spec).unwrap();
    let mut alice = w.users.remove(0);
    let mut router = w.routers.remove(0);
    let now = peace_net::clock::wall_ms();
    router
        .update_lists(w.no.publish_crl(now), w.no.publish_url(now))
        .expect("lists admitted");
    let daemon = RouterDaemon::spawn(router, 1, "127.0.0.1:0", cfg()).unwrap();

    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let NodeMessage::Beacon(beacon) = exchange(&mut stream, &NodeMessage::GetBeacon) else {
        panic!("beacon expected");
    };
    let req = alice
        .request_access(&beacon, peace_net::clock::wall_ms(), &mut w.rng)
        .unwrap();

    // Off-curve T₁: decodes, reaches the Σ-check, fails it.
    let mut wire = req.to_wire();
    wire[M2_T1..M2_T1 + G1::ENCODED_LEN].copy_from_slice(&off_curve());
    let forged = AccessRequest::from_wire(&wire).expect("canonical bytes decode");
    match exchange(&mut stream, &NodeMessage::AccessRequest(Box::new(forged))) {
        NodeMessage::Reject { code, .. } => assert_eq!(code, reject_code::AUTH_FAILED),
        other => panic!("expected AUTH_FAILED, got {other:?}"),
    }
    assert_eq!(daemon.telemetry().counters["net.decode_failures"], 0);
    assert_eq!(
        daemon.telemetry().histograms["net.access_verify_us"].count,
        1
    );

    // x ≥ p: no envelope at all.
    wire[M2_T1 + 1..M2_T1 + G1::ENCODED_LEN].fill(0xFF);
    let mut framed = NodeMessage::AccessRequest(Box::new(req.clone()))
        .try_to_wire()
        .unwrap();
    let body = framed.len() - wire.len();
    framed[body..].copy_from_slice(&wire);
    write_frame(&mut stream, &framed, DEFAULT_MAX_FRAME).unwrap();
    match NodeMessage::from_wire(&read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap()).unwrap() {
        NodeMessage::Reject { code, .. } => assert_eq!(code, reject_code::MALFORMED),
        other => panic!("expected MALFORMED, got {other:?}"),
    }
    assert_eq!(daemon.telemetry().counters["net.decode_failures"], 1);

    // The genuine request, on the same connection, is admitted.
    assert!(matches!(
        exchange(&mut stream, &NodeMessage::AccessRequest(Box::new(req))),
        NodeMessage::AccessConfirm(_)
    ));
    assert_eq!(
        daemon.telemetry().histograms["net.access_verify_us"].count,
        2
    );
    drop(stream);
    daemon.shutdown().unwrap();
}

#[test]
fn a_reported_transcript_with_a_bad_point_is_stored_and_never_opens() {
    let spec = WorldSpec {
        seed: 0x0B5E_0010,
        users: 1,
        routers: 1,
    };
    let mut w = build_world(&spec).unwrap();
    let mut alice = w.users.remove(0);
    let mut router = w.routers.remove(0);
    let beacon = router.beacon(1_000, &mut w.rng);
    let req = alice.request_access(&beacon, 1_000, &mut w.rng).unwrap();
    router.process_access_request(&req, 1_000).unwrap();
    let honest = router.drain_log().remove(0);
    let mut sig = honest.gsig.to_bytes();
    sig[SIG_T1..SIG_T1 + G1::ENCODED_LEN].copy_from_slice(&off_curve());
    let forged = LoggedSession {
        gsig: GroupSignature::from_wire(&sig).unwrap(),
        ..honest.clone()
    };

    let no = NoDaemon::spawn(
        w.no,
        fresh_ledger("validate-on-use"),
        None,
        "127.0.0.1:0",
        cfg(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(no.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let report = NodeMessage::ReportSessions {
        router: "MR-0".into(),
        sessions: vec![forged.clone()],
    };
    match exchange(&mut stream, &report) {
        NodeMessage::ReportAck { accepted } => assert_eq!(accepted, 1),
        other => panic!("expected an ack, got {other:?}"),
    }
    assert_eq!(no.telemetry().counters["net.decode_failures"], 0);
    drop(stream);
    // The ledger holds the transcript as reported; auditing it finds
    // nobody (its T₁ names no curve point, so it opens against no token)
    // and does not panic.
    let stored = no.with_ledger(|rl| {
        assert_eq!(rl.total_records(), 1);
        let (_, seq) = rl
            .find_session(&forged.session_id.to_bytes())
            .expect("the transcript is in the ledger");
        rl.local().get(seq).unwrap().expect("its record")
    });
    let LedgerRecord::Access(access) = stored.record else {
        panic!("session id found on a non-access record");
    };
    assert_eq!(access.session, forged);
    no.with_operator(|op| {
        assert!(op
            .audit(&access.session.signed_payload, &access.session.gsig)
            .is_err());
        assert!(op.audit(&honest.signed_payload, &honest.gsig).is_ok());
    });
    no.shutdown().unwrap();
}
