//! `UserSm` as a table, without a socket: every state × every message the
//! machine can be fed, with protocol time supplied by the test.

use std::time::{Duration, Instant};

use peace_protocol::entities::{MeshRouter, UserClient};
use peace_protocol::{ProtocolConfig, ProtocolError, Transient};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::*;
use crate::world::{build_world, WorldSpec};
use crate::{ConnConfig, DaemonConfig, RouterDaemon, UserAgent};

/// Protocol time of every fixture below — nowhere near the wall clock.
const T0: u64 = 50_000;

struct Fixture {
    router: MeshRouter,
    users: Vec<UserClient>,
    rng: StdRng,
    metrics: NetMetrics,
    /// What a NO would answer a `GetBulletin` with at `T0`.
    bulletin: Bulletin,
}

fn fixture(seed: u64) -> Fixture {
    let mut w = build_world(&WorldSpec {
        seed,
        users: 2,
        routers: 1,
    })
    .unwrap();
    let bulletin = Bulletin {
        epoch: w.no.epoch(),
        crl: w.no.publish_crl(T0),
        url: w.no.publish_url(T0),
    };
    let mut router = w.routers.remove(0);
    router.update_lists(bulletin.crl.clone(), bulletin.url.clone());
    Fixture {
        router,
        users: w.users,
        rng: StdRng::seed_from_u64(seed ^ 0x5E55),
        metrics: NetMetrics::default(),
        bulletin,
    }
}

impl Fixture {
    fn poll_beacon(&mut self) -> NodeMessage {
        NodeMessage::Beacon(Box::new(self.router.current_beacon(T0, &mut self.rng)))
    }

    fn feed(&mut self, sm: &mut UserSm, user: usize, msg: NodeMessage, now_ms: u64) -> UserStep {
        sm.on_message(
            msg,
            &mut self.users[user],
            &mut self.rng,
            now_ms,
            &self.metrics,
        )
    }

    /// What the router answers `user`'s M.2 with.
    fn confirm(&mut self, step: UserStep) -> NodeMessage {
        let UserStep::Send(NodeMessage::AccessRequest(req)) = step else {
            panic!("expected M.2 out, got {step:?}");
        };
        let (confirm, _) = self.router.process_access_request(&req, T0 + 20).unwrap();
        NodeMessage::AccessConfirm(Box::new(confirm))
    }
}

fn reject(code: u16) -> NodeMessage {
    NodeMessage::Reject {
        code,
        detail: "test".to_owned(),
    }
}

/// The outcome of a cell, in the terms the table is written in.
fn outcome(step: &UserStep) -> &'static str {
    match step {
        UserStep::Send(NodeMessage::AccessRequest(_)) => "send_m2",
        UserStep::Send(_) => "send_other",
        UserStep::Established(_) => "established",
        UserStep::Failed(e) => e.code(),
    }
}

#[test]
fn state_by_message_table() {
    const ROWS: [&str; 3] = ["awaiting_beacon", "awaiting_confirm", "at_rest"];
    const COLS: [&str; 7] = [
        "beacon",
        "confirm",
        "data",
        "bulletin",
        "busy",
        "revoked",
        "auth_failed",
    ];
    #[rustfmt::skip]
    const EXPECT: [[&str; 7]; 3] = [
        ["send_m2",            "unexpected_message", "unexpected_message", "unexpected_message", "conn_limit", "rejected", "rejected"],
        ["unexpected_message", "established",        "unexpected_message", "unexpected_message", "conn_limit", "rejected", "rejected"],
        ["unexpected_message", "unexpected_message", "unexpected_message", "unexpected_message", "conn_limit", "rejected", "rejected"],
    ];
    let mut f = fixture(0x7AB1E);
    for (row, state) in ROWS.iter().enumerate() {
        for (col, input) in COLS.iter().enumerate() {
            // A fresh machine, driven to the row's state by a real
            // exchange; `confirm` is the M.3 that belongs to it.
            let mut sm = UserSm::default();
            assert_eq!(sm.start(Instant::now()), NodeMessage::GetBeacon);
            let mut confirm = None;
            if row >= 1 {
                let beacon = f.poll_beacon();
                let m2 = f.feed(&mut sm, 0, beacon, T0 + 10);
                confirm = Some(f.confirm(m2));
            }
            if row == 2 {
                let step = f.feed(&mut sm, 0, confirm.clone().unwrap(), T0 + 30);
                assert_eq!(outcome(&step), "established");
            }
            let msg = match *input {
                "beacon" => f.poll_beacon(),
                // Awaiting the beacon there is no M.3 of ours yet: any
                // well-formed one is as unexpected as the next.
                "confirm" => confirm.unwrap_or_else(|| {
                    let mut other = UserSm::default();
                    other.start(Instant::now());
                    let beacon = f.poll_beacon();
                    let m2 = f.feed(&mut other, 1, beacon, T0 + 10);
                    f.confirm(m2)
                }),
                "data" => NodeMessage::Data(vec![1, 2, 3]),
                "bulletin" => NodeMessage::Bulletin(f.bulletin.clone()),
                "busy" => reject(reject_code::BUSY),
                "revoked" => reject(reject_code::REVOKED),
                "auth_failed" => reject(reject_code::AUTH_FAILED),
                _ => unreachable!(),
            };
            let step = f.feed(&mut sm, 0, msg, T0 + 40);
            assert_eq!(outcome(&step), EXPECT[row][col], "{state} × {input}");
            if let UserStep::Failed(e) = &step {
                // Only a revocation is final; and a failed machine is at
                // rest, whatever it was waiting for.
                assert_eq!(e.is_transient(), *input != "revoked", "{state} × {input}");
                let after = f.feed(&mut sm, 0, NodeMessage::Bye, T0 + 40);
                assert!(
                    matches!(
                        after,
                        UserStep::Failed(NetError::Unexpected("no handshake in progress"))
                    ),
                    "{state} × {input}: {after:?}"
                );
            }
        }
    }
    // One BUSY per row, counted where it is classified.
    assert_eq!(f.metrics.snapshot().conn_rejected, 3);
}

#[test]
fn forged_and_misdirected_messages_fail_as_protocol_and_leave_the_machine_reusable() {
    let mut f = fixture(0xF0496E);
    let mut sm = UserSm::default();

    // A beacon whose CRL the NO did not sign as it stands.
    sm.start(Instant::now());
    let NodeMessage::Beacon(mut forged) = f.poll_beacon() else {
        unreachable!()
    };
    forged.crl.version += 1;
    let step = f.feed(&mut sm, 0, NodeMessage::Beacon(forged), T0 + 10);
    assert!(
        matches!(
            step,
            UserStep::Failed(NetError::Protocol(ProtocolError::BadCrlSignature))
        ),
        "{step:?}"
    );

    // Someone else's M.3: a confirm for a g^{r_j} this user never sent.
    sm.start(Instant::now());
    let beacon = f.poll_beacon();
    let mine = f.feed(&mut sm, 0, beacon, T0 + 10);
    assert_eq!(outcome(&mine), "send_m2");
    let mut other = UserSm::default();
    other.start(Instant::now());
    let beacon = f.poll_beacon();
    let theirs = f.feed(&mut other, 1, beacon, T0 + 10);
    let their_confirm = f.confirm(theirs);
    let step = f.feed(&mut sm, 0, their_confirm, T0 + 30);
    assert!(
        matches!(
            step,
            UserStep::Failed(NetError::Protocol(ProtocolError::SessionMismatch))
        ),
        "{step:?}"
    );

    // The same machine, a fresh start, a clean run.
    assert_eq!(sm.start(Instant::now()), NodeMessage::GetBeacon);
    let beacon = f.poll_beacon();
    let m2 = f.feed(&mut sm, 0, beacon, T0 + 10);
    let confirm = f.confirm(m2);
    let step = f.feed(&mut sm, 0, confirm, T0 + 30);
    assert_eq!(outcome(&step), "established");
    let t = f.metrics.telemetry();
    assert_eq!(t.histograms["net.hs_total_us"].count, 1);
    assert_eq!(t.histograms["net.hs_confirm_us"].count, 1);
}

#[test]
fn protocol_time_is_an_input() {
    let window = ProtocolConfig::default().timestamp_window;
    let mut f = fixture(0x71AE);
    let mut sm = UserSm::default();

    // The beacon is stamped T0; a reader whose clock says it is already
    // past the window refuses it — and no one slept.
    sm.start(Instant::now());
    let beacon = f.poll_beacon();
    let step = f.feed(&mut sm, 0, beacon, T0 + window + 1);
    assert!(
        matches!(
            step,
            UserStep::Failed(NetError::Protocol(ProtocolError::StaleTimestamp))
        ),
        "{step:?}"
    );
    // At the window's edge it is still good.
    sm.start(Instant::now());
    let beacon = f.poll_beacon();
    let step = f.feed(&mut sm, 0, beacon, T0 + window);
    assert_eq!(outcome(&step), "send_m2");
    let confirm = f.confirm(step);
    let step = f.feed(&mut sm, 0, confirm, T0 + window);
    assert_eq!(outcome(&step), "established");
}

/// The blocking driver over loopback records what the inline choreography
/// recorded: one sample per client leg per handshake, and the same
/// counters for a first and a repeat connect.
#[test]
fn blocking_driver_records_the_same_legs_and_counts() {
    let cfg = DaemonConfig {
        conn: ConnConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            ..ConnConfig::default()
        },
        ..DaemonConfig::default()
    };
    let mut w = build_world(&WorldSpec {
        seed: 0xE0_01,
        users: 1,
        routers: 1,
    })
    .unwrap();
    let mut router = w.routers.remove(0);
    let now = wall_ms();
    router.update_lists(w.no.publish_crl(now), w.no.publish_url(now));
    let daemon = RouterDaemon::spawn(router, 3, "127.0.0.1:0", cfg).unwrap();
    let mut agent = UserAgent::new(w.users.remove(0), 5, cfg);

    for round in 1..=2u64 {
        let mut sess = agent.connect(daemon.addr()).expect("handshake");
        assert_eq!(sess.echo(b"ping").unwrap(), b"ping");
        sess.close();
        let m = agent.metrics();
        assert_eq!(m.handshakes_ok, round);
        assert_eq!(m.handshakes_fail, 0);
        assert_eq!(m.url_tokens_decoded, 0, "an empty list has no token");
        assert_eq!(m.url_sections_reused, round - 1, "held from the first");
        assert_eq!(m.conn_rejected, 0);
        let t = agent.telemetry();
        for leg in ["net.hs_beacon_us", "net.hs_confirm_us", "net.hs_total_us"] {
            assert_eq!(t.histograms[leg].count, round, "{leg}");
        }
        assert_eq!(t.histograms["net.frame_rtt_us"].count, round);
    }
    assert_eq!(daemon.metrics().handshakes_ok, 2);
    daemon.shutdown().unwrap();
}
