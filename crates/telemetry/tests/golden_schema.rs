//! Golden-schema test: the snapshot JSON export is byte-deterministic and
//! matches the `peace-telemetry-v1` schema exactly. Any change to key
//! order, field set, or rendering breaks this test on purpose — dashboards
//! parse these bytes.

use peace_telemetry::{Registry, SCHEMA};

fn populated() -> Registry {
    let reg = Registry::new();
    reg.counter("crypto.pairing").add(7);
    reg.counter("net.frames_in").add(3);
    reg.counter("zeta.last").inc();
    let h = reg.histogram("net.handshake_total_us");
    for v in [0, 1, 3, 900, 70_000] {
        h.record(v);
    }
    reg.histogram("ledger.append_us"); // registered but empty
    reg.event("handshake_fail", "bad_group_signature", 1_000);
    reg.event("ledger_error", "io: disk \"full\"", 2_000);
    reg
}

#[test]
fn snapshot_json_matches_golden() {
    let golden = concat!(
        "{\"schema\":\"peace-telemetry-v1\",",
        "\"counters\":{\"crypto.pairing\":7,\"net.frames_in\":3,\"zeta.last\":1},",
        "\"histograms\":{",
        "\"ledger.append_us\":{\"buckets\":[],\"count\":0,\"max\":0,\"min\":0,\"sum\":0},",
        "\"net.handshake_total_us\":{\"buckets\":[[0,2],[2,1],[512,1],[65536,1]],",
        "\"count\":5,\"max\":70000,\"min\":0,\"sum\":70904}},",
        "\"events\":[",
        "{\"at_ms\":1000,\"code\":\"handshake_fail\",\"detail\":\"bad_group_signature\",\"seq\":1},",
        "{\"at_ms\":2000,\"code\":\"ledger_error\",\"detail\":\"io: disk \\\"full\\\"\",\"seq\":2}",
        "]}"
    );
    assert_eq!(populated().snapshot().to_json(), golden);
    assert!(golden.contains(SCHEMA));
}

#[test]
fn identical_histories_render_identical_bytes() {
    // Two registries, same operations issued from different thread
    // interleavings: the rendered snapshots must still be equal byte for
    // byte (counters and histograms are order-insensitive; events here are
    // recorded from one thread so their order is fixed).
    let a = populated();
    let b = populated();
    let worker = {
        let h = a.histogram("net.handshake_total_us");
        let c = a.counter("net.frames_in");
        std::thread::spawn(move || {
            for _ in 0..100 {
                h.record(3);
                c.inc();
            }
        })
    };
    for _ in 0..100 {
        b.histogram("net.handshake_total_us").record(3);
        b.counter("net.frames_in").inc();
    }
    worker.join().unwrap();
    assert_eq!(a.snapshot().to_json(), b.snapshot().to_json());
}

#[test]
fn merged_dump_stays_schema_valid_and_deterministic() {
    let make = || {
        let daemon = Registry::new();
        daemon.counter("net.frames_in").add(11);
        daemon.histogram("net.frame_rtt_us").record(40);
        daemon.event("reject", "auth_failed", 5);
        let mut top = populated().snapshot();
        top.merge_prefixed(&daemon.snapshot(), "router-0");
        top.to_json()
    };
    let j1 = make();
    let j2 = make();
    assert_eq!(j1, j2);
    assert!(j1.contains("\"router-0.net.frames_in\":11"));
    assert!(j1.contains("\"code\":\"router-0.reject\""));
}
