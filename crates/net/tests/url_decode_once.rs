//! Decode-once over the wire: a user agent that reconnects to a router
//! whose revocation list has not changed decodes no URL token the second
//! time, and its telemetry says so — in counts, and in nothing that names
//! a list, a version or a session.

use std::time::Duration;

use peace_net::{
    build_world, ConnConfig, DaemonConfig, NoDaemon, RouterDaemon, UserAgent, WorldSpec,
};

fn test_cfg() -> DaemonConfig {
    DaemonConfig {
        conn: ConnConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            ..ConnConfig::default()
        },
        ..DaemonConfig::default()
    }
}

#[test]
fn second_beacon_of_an_unchanged_list_decodes_no_token() {
    let spec = WorldSpec {
        seed: 0xDEC0DE,
        users: 4,
        routers: 1,
    };
    let mut w = build_world(&spec).unwrap();
    let revoked = [w.tokens[1], w.tokens[2]];
    let alice = w.users.remove(0);
    let router = w.routers.remove(0);

    let no = NoDaemon::spawn(w.no, "127.0.0.1:0", test_cfg()).unwrap();
    for token in &revoked {
        assert!(no.revoke_user(token));
    }
    let router = RouterDaemon::spawn(router, 7, "127.0.0.1:0", test_cfg()).unwrap();
    assert_eq!(router.refresh_lists(no.addr()).unwrap(), 2);

    // The agent never polls the bulletin: the first beacon is where it
    // meets the list, and pays for it.
    let mut agent = UserAgent::new(alice, 11, test_cfg());
    agent
        .connect(router.addr())
        .expect("first handshake")
        .close();
    let first = agent.metrics();
    assert_eq!(first.url_tokens_decoded, 2);
    assert_eq!(first.url_sections_reused, 0);

    for round in 1..=2 {
        agent.connect(router.addr()).expect("handshake").close();
        let now = agent.metrics();
        assert_eq!(now.url_tokens_decoded, 2, "round {round}: no new decode");
        assert_eq!(now.url_sections_reused, round);
    }
    assert_eq!(agent.user().current_url().unwrap().tokens.len(), 2);

    // A third revocation reaches the router: the next beacon carries a new
    // list, decoded whole, once.
    assert!(no.revoke_user(&w.tokens[3]));
    assert_eq!(router.refresh_lists(no.addr()).unwrap(), 3);
    agent.connect(router.addr()).expect("handshake").close();
    agent.connect(router.addr()).expect("handshake").close();
    let last = agent.metrics();
    assert_eq!(last.url_tokens_decoded, 2 + 3);
    assert_eq!(last.url_sections_reused, 3);

    // Privacy surface: the two counters are plain counts under fixed names.
    let telemetry = agent.telemetry();
    assert_eq!(telemetry.counters["net.url_tokens_decoded"], 5);
    assert_eq!(telemetry.counters["net.url_sections_reused"], 3);
    let url_keys: Vec<&String> = telemetry
        .counters
        .keys()
        .filter(|k| k.contains("url_tokens") || k.contains("url_sections"))
        .collect();
    assert_eq!(
        url_keys,
        ["net.url_sections_reused", "net.url_tokens_decoded"],
        "no per-version, per-digest or per-session key"
    );
    assert_eq!(agent.metrics().handshakes_ok, 5);
    // The router prepared one line table per signature it swept, on top of
    // the two (g₂ and w) of the world's one prepared gpk — counted in the
    // process registry its metrics dump carries.
    let process = peace_telemetry::global().snapshot();
    assert_eq!(process.counters["crypto.miller_prepare"], 5 + 2);
    assert_eq!(router.metrics().handler_panics, 0);
}
