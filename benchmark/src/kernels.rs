//! The layer cost sheet: every layer's public kernels timed alone, single
//! threaded, on inputs built the way the workloads build theirs. The sheet
//! is the same for every workload; what a workload adds to a traced run is
//! in `trace.rs`.
//!
//! The `crypto.*` operation counters are process-wide, so the exact counts
//! read here are valid only because nothing else runs while they are read.

use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use peace::curve::{hash_to_g2, mul_generator, G1, G2};
use peace::ecdsa::SigningKey;
use peace::field::{Fp, Fp2, Fq};
use peace::groupsig::{
    h0_bases, open, open_batch, revocation_sweep, GroupSignature, OpSnapshot, PreparedGpk,
};
use peace::hash::{hmac_sha256, sha256};
use peace::ledger::{audit_sweep, Ledger, LedgerConfig, LedgerQuery, RecordKind};
use peace::net::{read_frame, write_frame, NetMetrics, NodeMessage, DEFAULT_MAX_FRAME};
use peace::pairing::{miller, pairing, pairing_ratio};
use peace::protocol::entities::{MeshRouter, UserClient};
use peace::protocol::{AccessRequest, Beacon};
use peace::puzzle::Puzzle;
use peace::revoke::{EngineConfig, RevocationEngine, UrlDelta};
use peace::sim::{run_city, CityConfig};
use peace::symmetric::SessionCipher;
use peace::telemetry::{global, Registry};
use peace::wire::{Decode, Encode};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::runner::slowdown_now;
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{
    audit_world, err, fill, net_world, open_ledger, open_replica, spawn_mesh, Scratch,
    CHECKPOINT_EVERY, ECHO_LARGE, ECHO_SMALL, GRT_ROWS, URL64,
};

/// Named per-layer values in the order they were measured.
#[derive(Default)]
pub struct Sheet(pub Vec<(&'static str, f64)>);

impl Sheet {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    }
}

/// Median reference nanoseconds per call of `f` (wall nanoseconds divided by
/// the yardstick's slowdown around the measurement, see `runner.rs`), from
/// batches sized so that about ten fit in `budget`; at least three batches
/// whatever they cost.
pub fn time_ns<T>(budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    let slow_before = slowdown_now();
    let t = Instant::now();
    black_box(f());
    let once = t.elapsed().max(Duration::from_nanos(20));
    let batch = ((budget.as_nanos() / 10) / once.as_nanos()).clamp(1, 1 << 22) as u32;
    let mut per_call = Vec::new();
    let start = Instant::now();
    while per_call.len() < 3 || (start.elapsed() < budget && per_call.len() < 4096) {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        per_call.push(t.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    median(&per_call) * 2.0 / (slow_before + slowdown_now())
}

/// Like [`time_ns`] for a kernel that needs untimed preparation before
/// every call: `step` prepares, then returns how long the call itself took.
fn time_each_ns(budget: Duration, mut step: impl FnMut() -> Duration) -> f64 {
    let slow_before = slowdown_now();
    let mut per_call = Vec::new();
    let start = Instant::now();
    while per_call.len() < 3 || (start.elapsed() < budget && per_call.len() < 4096) {
        per_call.push(step().as_nanos() as f64);
    }
    median(&per_call) * 2.0 / (slow_before + slowdown_now())
}

/// How long one call of `f` takes.
fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let t = Instant::now();
    black_box(f());
    t.elapsed()
}

/// A connected loopback socket pair.
fn socket_pair() -> Result<(TcpStream, TcpStream), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| err("bind", e))?;
    let a = TcpStream::connect(listener.local_addr().map_err(|e| err("addr", e))?)
        .map_err(|e| err("connect", e))?;
    let (b, _) = listener.accept().map_err(|e| err("accept", e))?;
    for s in [&a, &b] {
        s.set_nodelay(true).map_err(|e| err("nodelay", e))?;
    }
    Ok((a, b))
}

/// One frame there and one back, both ends driven from this thread.
fn frame_round_trip(a: &mut TcpStream, b: &mut TcpStream, payload: &[u8]) -> Vec<u8> {
    write_frame(a, payload, DEFAULT_MAX_FRAME).expect("write_frame");
    let there = read_frame(b, DEFAULT_MAX_FRAME).expect("read_frame");
    write_frame(b, &there, DEFAULT_MAX_FRAME).expect("write_frame");
    read_frame(a, DEFAULT_MAX_FRAME).expect("read_frame")
}

/// One handshake replayed stage by stage on in-process entities, each
/// message crossing a loopback socket pair as a framed envelope, one span
/// per call. Returns nothing: the spans are the result.
#[allow(clippy::too_many_arguments)]
fn replay_handshake(
    spans: &mut Spans,
    stages: &'static [&'static str; 4],
    router: &mut MeshRouter,
    user: &mut UserClient,
    rng: &mut StdRng,
    wire: &mut (TcpStream, TcpStream),
    now: u64,
) -> Result<(), String> {
    let (a, b) = wire;
    let cross = |spans: &mut Spans, msg: NodeMessage, a: &mut TcpStream, b: &mut TcpStream| {
        let bytes = spans.scope("net.envelope_encode", |_| msg.to_wire());
        let got = spans.scope("net.frame_one_way", |_| {
            write_frame(a, &bytes, DEFAULT_MAX_FRAME).expect("write_frame");
            read_frame(b, DEFAULT_MAX_FRAME).expect("read_frame")
        });
        spans.scope("net.envelope_decode", |_| NodeMessage::from_wire(&got))
    };
    spans.scope("handshake", |spans| {
        let beacon = spans.scope(stages[0], |_| router.beacon(now, rng));
        let Ok(NodeMessage::Beacon(beacon)) =
            cross(spans, NodeMessage::Beacon(Box::new(beacon)), b, a)
        else {
            return Err("beacon did not survive the wire".to_string());
        };
        let req = spans
            .scope(stages[1], |_| user.request_access(&beacon, now, rng))
            .map_err(|e| err("request_access", e))?;
        let Ok(NodeMessage::AccessRequest(req)) =
            cross(spans, NodeMessage::AccessRequest(Box::new(req)), a, b)
        else {
            return Err("access request did not survive the wire".to_string());
        };
        let (confirm, mut router_session) = spans
            .scope(stages[2], |_| router.process_access_request(&req, now))
            .map_err(|e| err("process_access_request", e))?;
        let Ok(NodeMessage::AccessConfirm(confirm)) =
            cross(spans, NodeMessage::AccessConfirm(Box::new(confirm)), b, a)
        else {
            return Err("access confirm did not survive the wire".to_string());
        };
        let mut user_session = spans
            .scope(stages[3], |_| user.handle_access_confirm(&confirm, now))
            .map_err(|e| err("handle_access_confirm", e))?;
        let payload = [0x5A; ECHO_LARGE];
        let opened = spans.scope(SEAL_OPEN, |_| {
            router_session.open_data(&user_session.seal_data(&payload))
        });
        if opened.ok().as_deref() != Some(&payload[..]) {
            return Err("session keys of the two sides differ".into());
        }
        Ok(())
    })
}

/// The replay's stage spans carry the names of the metrics their medians
/// become (two of the |URL| = 64 ones are spans only).
const STAGES_URL0: [&str; 4] = [
    "protocol.beacon_us",
    "protocol.request_access_us",
    "protocol.process_access_request_us",
    "protocol.handle_access_confirm_us",
];
const STAGES_URL64: [&str; 4] = [
    "protocol.beacon_url64_us",
    "protocol.request_access_url64_us",
    "protocol.process_access_request_url64_us",
    "protocol.handle_access_confirm_url64_us",
];
const SEAL_OPEN: &str = "protocol.session_seal_open_1400_us";

/// Median duration in microseconds of the spans called `name`.
fn span_p50_us(spans: &Spans, name: &str) -> f64 {
    let d: Vec<f64> = spans
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    median(&d)
}

/// Fills `sheet` with every workload-independent per-layer metric. `budget`
/// is the time given to each timed kernel; `spans` receives the replay.
pub fn measure(
    seed: u64,
    budget: Duration,
    sheet: &mut Sheet,
    spans: &mut Spans,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4B45_524E);
    let us = |ns: f64| ns / 1e3;

    // ---- field ------------------------------------------------------
    let (a, b) = (Fp::random(&mut rng), Fp::random(&mut rng));
    sheet.put(
        "field.fp_mul_ns",
        time_ns(budget, || black_box(a).mul(black_box(&b))),
    );
    sheet.put("field.fp_sqr_ns", time_ns(budget, || black_box(a).square()));
    sheet.put("field.fp_inv_ns", time_ns(budget, || black_box(a).invert()));
    let square = a.square();
    sheet.put(
        "field.fp_sqrt_ns",
        time_ns(budget, || black_box(square).sqrt()),
    );
    let (x, y) = (Fp2::random(&mut rng), Fp2::random(&mut rng));
    sheet.put(
        "field.fp2_mul_ns",
        time_ns(budget, || black_box(x).mul(black_box(&y))),
    );
    sheet.put(
        "field.fp2_sqr_ns",
        time_ns(budget, || black_box(x).square()),
    );

    // ---- curve ------------------------------------------------------
    let (p, q) = (G1::random(&mut rng), G1::random(&mut rng));
    let (k, l) = (Fq::random_nonzero(&mut rng), Fq::random_nonzero(&mut rng));
    sheet.put(
        "curve.g1_mul_us",
        us(time_ns(budget, || p.mul(black_box(&k)))),
    );
    sheet.put(
        "curve.g1_fixed_mul_us",
        us(time_ns(budget, || mul_generator(black_box(&k)))),
    );
    sheet.put(
        "curve.g1_mul_mul_us",
        us(time_ns(budget, || p.mul_mul(&k, &q, black_box(&l)))),
    );
    sheet.put(
        "curve.hash_to_g2_us",
        us(time_ns(budget, || {
            hash_to_g2(b"bench", black_box(b"payload"))
        })),
    );
    let encoded = p.to_bytes();
    sheet.put(
        "curve.g1_decode_us",
        us(time_ns(budget, || G1::from_bytes(black_box(&encoded)))),
    );

    // ---- pairing ----------------------------------------------------
    let (q2, r2) = (G2::random(&mut rng), G2::random(&mut rng));
    sheet.put(
        "pairing.miller_us",
        us(time_ns(budget, || miller(black_box(&p), &q2))),
    );
    let mv = miller(&p, &q2);
    sheet.put(
        "pairing.final_exp_us",
        us(time_ns(budget, || black_box(&mv).finalize())),
    );
    sheet.put(
        "pairing.pairing_us",
        us(time_ns(budget, || pairing(black_box(&p), &q2))),
    );
    sheet.put(
        "pairing.pairing_ratio_us",
        us(time_ns(budget, || {
            pairing_ratio(&p, &q2, black_box(&q), &r2)
        })),
    );
    let gt = pairing(&p, &q2);
    sheet.put(
        "pairing.gt_pow_us",
        us(time_ns(budget, || gt.pow(black_box(&k)))),
    );

    // ---- hash, symmetric ---------------------------------------------
    let mut block = vec![0u8; 16 * 1024];
    rng.fill_bytes(&mut block);
    let sha_ns = time_ns(budget, || sha256(black_box(&block)));
    sheet.put("hash.sha256_mb_per_s", block.len() as f64 / sha_ns * 1e3);
    sheet.put(
        "hash.hmac_64_ns",
        time_ns(budget, || {
            hmac_sha256(&block[..32], black_box(&block[32..96]))
        }),
    );
    let cipher = SessionCipher::new(&block[..65], b"bench-session");
    for (size, seal, open) in [
        (ECHO_SMALL, "symmetric.seal_64_ns", "symmetric.open_64_ns"),
        (
            ECHO_LARGE,
            "symmetric.seal_1400_ns",
            "symmetric.open_1400_ns",
        ),
    ] {
        let plain = &block[..size];
        sheet.put(
            seal,
            time_ns(budget, || cipher.seal(7, b"", black_box(plain))),
        );
        let sealed = cipher.seal(7, b"", plain);
        sheet.put(
            open,
            time_ns(budget, || cipher.open(7, b"", black_box(&sealed))),
        );
    }

    // ---- the two worlds the access workloads run in -------------------
    let mut w0 = net_world(seed, 2, 0)?;
    let mut w64 = net_world(seed, 2, URL64)?;
    let now = peace::net::clock::wall_ms();
    let gpk = *w0.no.gpk();
    let mode = w0.no.config().bases_mode;
    let prepared = PreparedGpk::new(&gpk);
    // A user of the URL world, so that the sweep kernels see the same
    // unrevoked signer the access_url64 clients are.
    let member = w64.users[0]
        .active_credential()
        .map_err(|e| err("credential", e))?
        .key;

    // ---- ecdsa ------------------------------------------------------
    let sk = SigningKey::random(&mut rng);
    let msg = &block[..200];
    sheet.put(
        "ecdsa.sign_us",
        us(time_ns(budget, || sk.sign(black_box(msg)))),
    );
    let sig = sk.sign(msg);
    sheet.put(
        "ecdsa.verify_us",
        us(time_ns(budget, || {
            sk.verifying_key().verify(black_box(msg), &sig)
        })),
    );
    let cert = w0.routers[0].cert().clone();
    let npk = *w0.no.npk();
    sheet.put(
        "ecdsa.cert_validate_us",
        us(time_ns(budget, || black_box(&cert).validate(&npk, now))),
    );

    // ---- groupsig ---------------------------------------------------
    let payload = AccessRequest::signed_payload(&p, &q, now);
    let mut sign_rng = StdRng::seed_from_u64(seed ^ 0x5167);
    sheet.put(
        "groupsig.sign_us",
        us(time_ns(budget, || {
            prepared.sign(&member, black_box(&payload), mode, &mut sign_rng)
        })),
    );
    let before = OpSnapshot::capture();
    let gsig = prepared.sign(&member, &payload, mode, &mut sign_rng);
    let sign_ops = OpSnapshot::capture().since(&before);
    sheet.put("groupsig.sign_g1_muls", sign_ops.g1_muls as f64);
    sheet.put("groupsig.sign_pairings", sign_ops.pairings as f64);
    sheet.put("groupsig.sig_bytes", gsig.to_bytes().len() as f64);

    sheet.put(
        "groupsig.verify_us",
        us(time_ns(budget, || {
            prepared.verify(black_box(&payload), &gsig, mode)
        })),
    );
    let before = OpSnapshot::capture();
    prepared
        .verify(&payload, &gsig, mode)
        .map_err(|e| err("verify", e))?;
    let verify_ops = OpSnapshot::capture().since(&before);
    sheet.put("groupsig.verify_g1_muls", verify_ops.g1_muls as f64);
    sheet.put(
        "groupsig.verify_miller_loops",
        verify_ops.miller_loops as f64,
    );
    sheet.put("groupsig.verify_final_exps", verify_ops.final_exps as f64);

    let batch_msgs: Vec<Vec<u8>> = (0..16u64)
        .map(|i| AccessRequest::signed_payload(&p, &q, now + i))
        .collect();
    let batch_sigs: Vec<GroupSignature> = batch_msgs
        .iter()
        .map(|m| prepared.sign(&member, m, mode, &mut sign_rng))
        .collect();
    let batch: Vec<(&[u8], &GroupSignature)> = batch_msgs
        .iter()
        .map(Vec::as_slice)
        .zip(&batch_sigs)
        .collect();
    sheet.put(
        "groupsig.verify_batch16_us_per_sig",
        us(time_ns(budget, || {
            prepared.verify_batch(black_box(&batch), mode)
        })) / 16.0,
    );

    let url64 = &w64.tokens[2..];
    let (u_hat, v_hat) = h0_bases(&gpk, &payload, &gsig.r, mode);
    let sweep_us = us(time_ns(budget, || {
        revocation_sweep(black_box(&gsig), url64, &u_hat, &v_hat)
    }));
    sheet.put("groupsig.sweep64_us", sweep_us);
    sheet.put("groupsig.sweep64_us_per_token", sweep_us / URL64 as f64);
    let before = OpSnapshot::capture();
    if revocation_sweep(&gsig, url64, &u_hat, &v_hat).is_some() {
        return Err("an unrevoked signer matched the URL".into());
    }
    sheet.put(
        "groupsig.sweep64_miller_loops",
        OpSnapshot::capture().since(&before).miller_loops as f64,
    );

    // ---- revoke: the staged engine the router runs ---------------------
    let engine = |cache_capacity, tokens: &[_]| {
        let mut e = RevocationEngine::new(
            &gpk,
            EngineConfig {
                cache_capacity,
                ..EngineConfig::default()
            },
        );
        e.install_full(0, 1, tokens);
        e
    };
    let mut empty = engine(4096, &[]);
    sheet.put(
        "revoke.check_url0_ns",
        time_ns(budget, || {
            empty.check_revocation(&payload, black_box(&gsig), &u_hat, &v_hat)
        }),
    );
    // No cache: every call is the sweep a fresh signature pays.
    let mut uncached = engine(0, url64);
    sheet.put(
        "revoke.check_url64_fresh_us",
        us(time_ns(budget, || {
            uncached.check_revocation(&payload, black_box(&gsig), &u_hat, &v_hat)
        })),
    );
    let mut cached = engine(4096, url64);
    sheet.put(
        "revoke.check_url64_repeat_us",
        us(time_ns(budget, || {
            cached.check_revocation(&payload, black_box(&gsig), &u_hat, &v_hat)
        })),
    );
    let mut version = 1;
    sheet.put(
        "revoke.install_full64_us",
        us(time_ns(budget, || {
            version += 1;
            cached.install_full(0, version, black_box(url64));
        })),
    );
    let extra = peace::groupsig::RevocationToken(p);
    let mut listed = false;
    sheet.put(
        "revoke.apply_delta1_us",
        us(time_ns(budget, || {
            // One more token goes on the list, then comes off again.
            let (added, removed) = if listed {
                (vec![], vec![extra])
            } else {
                (vec![extra], vec![])
            };
            listed = !listed;
            version += 1;
            cached
                .apply_delta(&UrlDelta {
                    epoch: 0,
                    from_version: version - 1,
                    to_version: version,
                    added,
                    removed,
                })
                .expect("delta chains")
        })),
    );

    // ---- wire -------------------------------------------------------
    let beacon0 = w0.routers[0].beacon(now, &mut rng);
    let beacon64 = w64.routers[0].beacon(now, &mut rng);
    let request = w0.users[0]
        .request_access(&beacon0, now, &mut rng)
        .map_err(|e| err("request_access", e))?;
    let beacon64_bytes = beacon64.to_wire();
    sheet.put("wire.beacon_bytes_url0", beacon0.to_wire().len() as f64);
    sheet.put("wire.beacon_bytes_url64", beacon64_bytes.len() as f64);
    let request_bytes = request.to_wire();
    sheet.put("wire.access_request_bytes", request_bytes.len() as f64);
    sheet.put(
        "wire.access_request_encode_ns",
        time_ns(budget, || black_box(&request).to_wire()),
    );
    sheet.put(
        "wire.access_request_decode_us",
        us(time_ns(budget, || {
            AccessRequest::from_wire(black_box(&request_bytes))
        })),
    );
    sheet.put(
        "wire.beacon_url64_decode_us",
        us(time_ns(budget, || {
            Beacon::from_wire(black_box(&beacon64_bytes))
        })),
    );

    // ---- puzzle: at the difficulty a router under attack hands out -------
    let (subs, bits) = w0.no.config().puzzle_params;
    let mut n = 0u64;
    sheet.put(
        "puzzle.solve_us",
        us(time_ns(budget, || {
            n += 1;
            Puzzle::new(&n.to_be_bytes(), subs, bits).solve()
        })),
    );
    let puzzle = Puzzle::new(b"bench", subs, bits);
    let solution = puzzle.solve();
    sheet.put(
        "puzzle.verify_ns",
        time_ns(budget, || puzzle.verify(black_box(&solution))),
    );

    // ---- net: framing and envelopes ------------------------------------
    let mut wire = socket_pair()?;
    for (size, name) in [
        (ECHO_SMALL, "net.frame_rt_64_us"),
        (ECHO_LARGE, "net.frame_rt_1400_us"),
    ] {
        sheet.put(
            name,
            us(time_ns(budget, || {
                frame_round_trip(&mut wire.0, &mut wire.1, black_box(&block[..size]))
            })),
        );
    }
    let envelope = NodeMessage::AccessRequest(Box::new(request));
    sheet.put(
        "net.envelope_encode_ns",
        time_ns(budget, || black_box(&envelope).to_wire()),
    );
    let envelope_bytes = envelope.to_wire();
    sheet.put(
        "net.envelope_decode_us",
        us(time_ns(budget, || {
            NodeMessage::from_wire(black_box(&envelope_bytes))
        })),
    );

    // ---- protocol: the handshake replayed stage by stage ----------------
    // Each replayed handshake costs what a real one costs, so the budget of
    // four kernels buys the URL-free replays and four more the |URL|=64 ones.
    // The spans keep wall nanoseconds; the medians taken from them here are
    // divided by the yardstick's slowdown around the replay like every
    // other time on the sheet.
    let slow_before = slowdown_now();
    let mut op = 0;
    for (stages, world) in [(&STAGES_URL0, &mut w0), (&STAGES_URL64, &mut w64)] {
        let start = Instant::now();
        let mut done = 0;
        while done < 5 || (start.elapsed() < budget * 4 && done < 200) {
            spans.op = op;
            replay_handshake(
                spans,
                stages,
                &mut world.routers[0],
                &mut world.users[done % 2],
                &mut world.rng,
                &mut wire,
                peace::net::clock::wall_ms(),
            )?;
            op += 1;
            done += 1;
        }
    }
    let slow = (slow_before + slowdown_now()) / 2.0;
    let stage_us = |name: &str| span_p50_us(spans, name) / slow;
    let measured = [&STAGES_URL0[..], &STAGES_URL64[1..3], &[SEAL_OPEN]].concat();
    for name in measured {
        sheet.put(name, stage_us(name));
    }
    sheet.put(
        "protocol.hs_stage_sum_ms",
        STAGES_URL0.iter().map(|n| sheet.get(n)).sum::<f64>() / 1e3,
    );
    // The burst path: sixteen fresh requests verified as one batch.
    let burst_ns = time_each_ns(budget, || {
        let now = peace::net::clock::wall_ms();
        let reqs: Vec<AccessRequest> = (0..16)
            .map(|i| {
                let beacon = w0.routers[0].beacon(now, &mut w0.rng);
                w0.users[i % 2]
                    .request_access(&beacon, now, &mut w0.rng)
                    .expect("request_access")
            })
            .collect();
        timed(|| {
            let out = w0.routers[0].process_access_requests(&reqs, now);
            assert!(out.iter().all(Result::is_ok), "burst request refused");
        })
    });
    sheet.put(
        "protocol.process_access_requests16_us_per_req",
        us(burst_ns) / 16.0,
    );

    // ---- net: one unloaded client against each runtime -------------------
    for (shards, hs_name, echo) in [
        (
            0,
            "net.hs_unloaded_p50_ms",
            [
                "net.echo_small_p50_us",
                "net.echo_large_p50_us",
                "net.echo_per_s",
            ],
        ),
        (
            2,
            "net.hs_unloaded_reactor_p50_ms",
            [
                "net.reactor_echo_small_p50_us",
                "net.reactor_echo_large_p50_us",
                "net.reactor_echo_per_s",
            ],
        ),
    ] {
        let mut mesh = spawn_mesh(net_world(seed, 1, 0)?, seed, shards)?;
        let agent = &mut mesh.agents[0];
        let connect_ms = time_each_ns(budget * 8, || {
            let (took, session) = {
                let t = Instant::now();
                let session = agent.connect(mesh.addr).expect("connect");
                (t.elapsed(), session)
            };
            session.close();
            took
        }) / 1e6;
        sheet.put(hs_name, connect_ms);
        let mut session = agent.connect(mesh.addr).map_err(|e| err("connect", e))?;
        for (size, name) in [(ECHO_SMALL, echo[0]), (ECHO_LARGE, echo[1])] {
            let ns = time_each_ns(budget * 2, || {
                timed(|| session.echo(black_box(&block[..size])).expect("echo"))
            });
            sheet.put(name, us(ns));
            if size == ECHO_SMALL {
                sheet.put(echo[2], 1e9 / ns);
            }
        }
        session.close();
        mesh.daemon
            .shutdown()
            .map_err(|e| err("router shutdown", e))?;
    }
    sheet.put(
        "net.hs_runtime_overhead_ms",
        sheet.get("net.hs_unloaded_p50_ms") - sheet.get("protocol.hs_stage_sum_ms"),
    );

    // ---- ledger -----------------------------------------------------
    let (aw, records) = audit_world(seed, GRT_ROWS)?;
    let scratch = Scratch::new("kernels")?;
    let log = scratch.path().join("log");
    let mut ledger = open_ledger(&log)?;
    let registry_before = global().snapshot();
    let slow_before = slowdown_now();
    let len = fill(&mut ledger, &records, 2000, CHECKPOINT_EVERY, &aw.no, "NO")?;
    let slow = (slow_before + slowdown_now()) / 2.0;
    let registry_after = global().snapshot();
    let hist_mean_us = |name: &str| {
        let (a, b) = (
            registry_before.histograms.get(name),
            registry_after.histograms.get(name),
        );
        let (count0, sum0) = a.map_or((0, 0), |h| (h.count, h.sum));
        let (count1, sum1) = b.map_or((0, 0), |h| (h.count, h.sum));
        (sum1 - sum0) as f64 / (count1 - count0).max(1) as f64 / slow
    };
    sheet.put("ledger.append_us", hist_mean_us("ledger.append_us"));
    sheet.put("ledger.fsync_us", hist_mean_us("ledger.fsync_us"));
    sheet.put(
        "ledger.checkpoint_us",
        us(time_ns(budget, || {
            ledger
                .checkpoint(aw.no.signing_key(), "NO", 0)
                .expect("checkpoint")
        })),
    );
    ledger.flush().map_err(|e| err("flush", e))?;
    let len = len.max(ledger.len());
    let query = LedgerQuery {
        kind: Some(RecordKind::Access),
        ..LedgerQuery::default()
    };
    sheet.put(
        "ledger.query_us_per_rec",
        us(time_ns(budget, || {
            ledger.query(black_box(&query)).expect("query").len()
        })) / 2000.0,
    );
    drop(ledger);
    let bytes: u64 = std::fs::read_dir(&log)
        .map_err(|e| err("list log", e))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    sheet.put("ledger.bytes_per_rec", bytes as f64 / len as f64);
    sheet.put(
        "ledger.open_cold_us_per_rec",
        us(time_ns(budget, || {
            Ledger::open(&log, LedgerConfig::default())
                .expect("open")
                .0
                .len()
        })) / len as f64,
    );
    let aw_npk = *aw.no.npk();
    sheet.put(
        "ledger.open_resumed_ms",
        time_ns(budget, || {
            Ledger::open_resumed(&log, LedgerConfig::default(), |s| {
                (s == "NO").then_some(aw_npk)
            })
            .expect("open_resumed")
            .0
            .len()
        }) / 1e6,
    );

    let mut writer = open_replica(&scratch.path().join("writer"), "NO-0", &aw.no)?;
    fill(writer.local_mut(), &records, 100, 100, &aw.no, "NO-0")?;
    sheet.put(
        "ledger.serve_range_us_per_rec",
        us(time_ns(budget, || {
            writer.serve_range("NO-0", 0).expect("serve_range")
        })) / 101.0,
    );
    let range = writer
        .serve_range("NO-0", 0)
        .map_err(|e| err("serve_range", e))?
        .ok_or("no range")?;
    let follower_dir = scratch.path().join("follower");
    let ingest_ns = time_each_ns(budget, || {
        let _ = std::fs::remove_dir_all(&follower_dir);
        let mut follower = open_replica(&follower_dir, "NO-1", &aw.no).expect("follower");
        timed(|| {
            follower
                .ingest_range(&range, &|s: &str| s.starts_with("NO-").then_some(aw_npk))
                .expect("ingest_range")
        })
    });
    sheet.put("ledger.ingest_range_us_per_rec", us(ingest_ns) / 101.0);

    let mut audited = open_ledger(&scratch.path().join("audit"))?;
    fill(
        &mut audited,
        &records,
        GRT_ROWS as u64,
        u64::MAX,
        &aw.no,
        "NO",
    )?;
    sheet.put(
        "ledger.audit_sweep_us_per_rec",
        us(time_ns(budget, || {
            audit_sweep(&aw.no, &audited, 0, u64::MAX)
                .expect("audit_sweep")
                .resolved
                .len()
        })) / GRT_ROWS as f64,
    );

    // ---- groupsig: Open against the operator's grt ----------------------
    let items: Vec<(&[u8], &GroupSignature)> = records
        .iter()
        .map(|r| (r.session.signed_payload.as_slice(), &r.session.gsig))
        .collect();
    let grt = &aw.tokens;
    sheet.put(
        "groupsig.open16_us",
        us(time_ns(budget, || {
            open(
                aw.no.gpk(),
                items[GRT_ROWS / 2].0,
                items[GRT_ROWS / 2].1,
                black_box(grt),
                mode,
            )
        })),
    );
    sheet.put(
        "groupsig.open_batch16x16_us_per_rec",
        us(time_ns(budget, || {
            open_batch(aw.no.gpk(), black_box(&items), grt, mode)
        })) / GRT_ROWS as f64,
    );

    // ---- telemetry ---------------------------------------------------
    let registry = Registry::new();
    let (counter, hist) = (
        registry.counter("bench.counter"),
        registry.histogram("bench.hist"),
    );
    sheet.put(
        "telemetry.counter_inc_ns",
        time_ns(budget, || counter.inc()),
    );
    let mut v = 0u64;
    sheet.put(
        "telemetry.hist_record_ns",
        time_ns(budget, || {
            v = v.wrapping_add(977);
            hist.record(v & 0xFFFF)
        }),
    );
    let net_metrics = NetMetrics::new();
    sheet.put(
        "telemetry.snapshot_us",
        us(time_ns(budget, || net_metrics.telemetry())),
    );

    // ---- sim -----------------------------------------------------------
    let city = CityConfig {
        users: 20_000,
        end_ms: 10_000,
        epoch_ms: 1_000,
        shards: 2,
        seed,
        ..CityConfig::default()
    };
    let city_ns = time_ns(budget, || run_city(black_box(&city)));
    sheet.put(
        "sim.city_user_epochs_per_s",
        20_000.0 * 10.0 / (city_ns / 1e9),
    );
    Ok(())
}
