//! Beacon/bulletin freshness over the wire: a user agent polling a
//! bulletin server must reject stale, version-regressing, or forged
//! revocation lists — otherwise a phishing "NO" (§V.A) could serve a
//! pre-revocation URL and keep a revoked credential alive.

mod common;

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use peace_net::{
    build_world, clock::wall_ms, Bulletin, ConnConfig, Connection, DaemonConfig, NetError,
    NetMetrics, NoDaemon, NodeMessage, UserAgent, WorldSpec,
};
use peace_protocol::ProtocolError;

use common::fresh_ledger;

/// A hostile bulletin server: answers every `GetBulletin` with the same
/// canned bulletin, whatever its age or version.
fn spawn_canned_server(bulletin: Bulletin) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let t = std::thread::spawn(move || {
        // Serve a handful of connections, then exit with the test.
        for _ in 0..8 {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let metrics = Arc::new(NetMetrics::default());
            let cfg = ConnConfig {
                read_timeout: Some(Duration::from_secs(2)),
                ..ConnConfig::default()
            };
            let Ok(mut conn) = Connection::new(stream, cfg, metrics) else {
                continue;
            };
            while let Ok(msg) = conn.recv() {
                match msg {
                    NodeMessage::GetBulletin => {
                        if conn.send(&NodeMessage::Bulletin(bulletin.clone())).is_err() {
                            break;
                        }
                    }
                    _ => break,
                }
            }
        }
    });
    (addr, t)
}

fn agent_cfg() -> DaemonConfig {
    DaemonConfig {
        conn: ConnConfig {
            read_timeout: Some(Duration::from_secs(3)),
            ..ConnConfig::default()
        },
        ..DaemonConfig::default()
    }
}

#[test]
fn stale_bulletin_rejected_by_max_age() {
    let w = build_world(&WorldSpec {
        seed: 21,
        users: 1,
        routers: 0,
    })
    .unwrap();
    let max_age = w.no.config().list_max_age;
    let old = wall_ms().saturating_sub(max_age + 10_000);
    let stale = Bulletin {
        crl: w.no.publish_crl(old),
        url: w.no.publish_url(old),
    };
    let (addr, server) = spawn_canned_server(stale);

    let mut agent = UserAgent::new(w.users.into_iter().next().unwrap(), 5, agent_cfg());
    assert_eq!(
        agent.poll_bulletin(addr),
        Err(NetError::Protocol(ProtocolError::StaleCrl))
    );
    assert!(agent.user().current_url().is_none(), "nothing adopted");
    drop(server);
}

#[test]
fn version_regressing_bulletin_rejected_and_revocation_sticks() {
    let spec = WorldSpec {
        seed: 22,
        users: 2,
        routers: 0,
    };
    let w = build_world(&spec).unwrap();
    let victim_token = w.tokens[1];

    // The phishing server captured a *freshly timestamped* pre-revocation
    // bulletin (version 0, empty URL).
    let pre_revocation = Bulletin {
        crl: w.no.publish_crl(wall_ms()),
        url: w.no.publish_url(wall_ms()),
    };
    assert_eq!(pre_revocation.url.version, 0);
    let (phish_addr, phish) = spawn_canned_server(pre_revocation);

    // The genuine NO revokes user 1 and serves the bumped URL.
    let no = NoDaemon::spawn(
        w.no,
        fresh_ledger("bulletin-freshness"),
        None,
        "127.0.0.1:0",
        agent_cfg(),
    )
    .unwrap();
    assert!(no.revoke_user(&victim_token));

    let mut agent = UserAgent::new(w.users.into_iter().next().unwrap(), 6, agent_cfg());
    assert_eq!(agent.poll_bulletin(no.addr()).unwrap(), 1);
    assert_eq!(agent.user().current_url().unwrap().tokens.len(), 1);

    // The phishing replay is fresh by timestamp but regresses the version:
    // rejected, and the adopted v1 URL stays in force.
    assert_eq!(
        agent.poll_bulletin(phish_addr),
        Err(NetError::Protocol(ProtocolError::StaleUrl))
    );
    assert_eq!(agent.user().list_versions().1, 1);
    assert_eq!(
        agent.user().current_url().unwrap().tokens.len(),
        1,
        "revocation cannot be rolled back by a replayed bulletin"
    );

    drop(phish);
    no.shutdown().unwrap();
}

#[test]
fn forged_bulletin_rejected_by_signature() {
    let w = build_world(&WorldSpec {
        seed: 23,
        users: 1,
        routers: 0,
    })
    .unwrap();
    // An impostor operator with its own keys signs plausible-looking,
    // perfectly fresh lists.
    let impostor = build_world(&WorldSpec {
        seed: 24,
        users: 0,
        routers: 0,
    })
    .unwrap();
    let forged = Bulletin {
        crl: impostor.no.publish_crl(wall_ms()),
        url: impostor.no.publish_url(wall_ms()),
    };
    let (addr, server) = spawn_canned_server(forged);

    let mut agent = UserAgent::new(w.users.into_iter().next().unwrap(), 7, agent_cfg());
    assert_eq!(
        agent.poll_bulletin(addr),
        Err(NetError::Protocol(ProtocolError::BadCrlSignature))
    );
    assert!(agent.user().current_url().is_none());
    drop(server);
}
