//! The traced run (`--trace 1`): the layer cost sheet of `kernels.rs`, then
//! a window of the workload itself with the benchmark's spans on and the
//! program's own telemetry read before and after it. End-to-end numbers are
//! never taken here; `proc.traced_op_p50_ms` against the untraced
//! `op_p50_ms` is what the spans cost.

use std::time::{Duration, Instant};

use peace::telemetry::{global, Snapshot};

use crate::json::Json;
use crate::kernels::{self, Sheet};
use crate::runner::run_window;
use crate::spans::Spans;
use crate::{procfs, spec, workloads, Args};

/// `after - before` of a counter, and of a histogram's `(count, sum)`.
struct Delta<'a>(&'a Snapshot, &'a Snapshot);

impl Delta<'_> {
    fn counter(&self, name: &str) -> f64 {
        let read = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
        (read(self.1) - read(self.0)) as f64
    }

    fn counters(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.counter(n)).sum()
    }

    /// Exact mean of what a histogram recorded in between (sum over count;
    /// its percentiles are only good to 2x), 0 if it recorded nothing.
    fn mean(&self, name: &str) -> f64 {
        let read = |s: &Snapshot| s.histograms.get(name).map_or((0, 0), |h| (h.count, h.sum));
        let (c0, s0) = read(self.0);
        let (c1, s1) = read(self.1);
        if c1 == c0 {
            0.0
        } else {
            (s1 - s0) as f64 / (c1 - c0) as f64
        }
    }
}

/// A value of the sheet in microseconds, whatever unit its name says.
fn in_us(sheet: &Sheet, name: &str) -> f64 {
    let v = sheet.get(name);
    match name.rsplit('_').next() {
        Some("ns") => v / 1e3,
        Some("ms") => v * 1e3,
        _ => v,
    }
}

/// Prints one stage with the stand-alone cost of the lower-layer calls it
/// makes; what is left is the stage's own time.
fn budget_row(sheet: &Sheet, stage: &str, children: &[(&str, f64)]) -> f64 {
    let total = in_us(sheet, stage);
    let mut own = total;
    println!("  {stage:<44} {total:>10.1} us");
    for &(child, calls) in children {
        let cost = in_us(sheet, child) * calls;
        own -= cost;
        println!("    {calls:>3.0} x {child:<36} {cost:>10.1} us");
    }
    println!("    {:<42} {own:>10.1} us", "self");
    total
}

fn budget_tables(sheet: &Sheet) {
    println!("\nhandshake budget, no URL (stand-alone kernel costs; self = stage - children):");
    let sum: f64 = [
        budget_row(
            sheet,
            "protocol.beacon_us",
            &[("ecdsa.sign_us", 1.0), ("curve.g1_mul_us", 1.0)],
        ),
        budget_row(
            sheet,
            "protocol.request_access_us",
            &[
                ("ecdsa.cert_validate_us", 1.0),
                ("ecdsa.verify_us", 3.0),
                ("curve.g1_mul_us", 2.0),
                ("groupsig.sign_us", 1.0),
            ],
        ),
        budget_row(
            sheet,
            "protocol.process_access_request_us",
            &[
                ("groupsig.verify_us", 1.0),
                ("revoke.check_url0_ns", 1.0),
                ("curve.g1_mul_us", 1.0),
            ],
        ),
        budget_row(sheet, "protocol.handle_access_confirm_us", &[]),
    ]
    .iter()
    .sum();
    println!(
        "  {:<44} {sum:>10.1} us",
        "sum of stages = protocol.hs_stage_sum_ms"
    );
    println!(
        "  {:<44} {:>10.1} us  (threads, queues, sockets, framing)",
        "residual = net.hs_runtime_overhead_ms",
        in_us(sheet, "net.hs_runtime_overhead_ms")
    );
    println!(
        "  {:<44} {:>10.1} us  (reactor: {:.1} us)",
        "net.hs_unloaded_p50_ms",
        in_us(sheet, "net.hs_unloaded_p50_ms"),
        in_us(sheet, "net.hs_unloaded_reactor_p50_ms")
    );

    println!("\nhandshake budget, |URL| = 64 (the stages a URL changes):");
    budget_row(
        sheet,
        "protocol.request_access_url64_us",
        &[
            ("ecdsa.cert_validate_us", 1.0),
            ("ecdsa.verify_us", 3.0),
            ("curve.g1_mul_us", 2.0),
            ("groupsig.sign_us", 1.0),
        ],
    );
    budget_row(
        sheet,
        "protocol.process_access_request_url64_us",
        &[
            ("groupsig.verify_us", 1.0),
            ("revoke.check_url64_fresh_us", 1.0),
            ("curve.g1_mul_us", 1.0),
        ],
    );

    println!("\necho budget (one unloaded client, default runtime):");
    for (echo, seal, open, frame) in [
        (
            "net.echo_small_p50_us",
            "symmetric.seal_64_ns",
            "symmetric.open_64_ns",
            "net.frame_rt_64_us",
        ),
        (
            "net.echo_large_p50_us",
            "symmetric.seal_1400_ns",
            "symmetric.open_1400_ns",
            "net.frame_rt_1400_us",
        ),
    ] {
        budget_row(sheet, echo, &[(seal, 2.0), (open, 2.0), (frame, 1.0)]);
    }

    println!("\naccountability budget (per record):");
    budget_row(
        sheet,
        "ledger.audit_sweep_us_per_rec",
        &[("groupsig.open_batch16x16_us_per_rec", 1.0)],
    );
    budget_row(
        sheet,
        "ledger.ingest_range_us_per_rec",
        &[("ledger.append_us", 1.0)],
    );
    println!(
        "  cold open {:.2} us/rec against catch-up serve {:.2} + ingest {:.2} us/rec",
        sheet.get("ledger.open_cold_us_per_rec"),
        sheet.get("ledger.serve_range_us_per_rec"),
        sheet.get("ledger.ingest_range_us_per_rec"),
    );
}

pub fn run(args: &Args) -> Result<Json, String> {
    let epoch = Instant::now();
    let mut spans = Spans::enabled(epoch);
    let mut sheet = Sheet::default();
    // A hundredth of the run per timed kernel: 100 ms at the contract's 10 s.
    let budget = Duration::from_secs_f64(args.seconds / 100.0);
    kernels::measure(args.seed, budget, &mut sheet, &mut spans)?;

    // The event-loop runtime under the access_fresh load, a fifth of the
    // run. It is not a workload of the contract because its throughput is
    // not steady enough to carry a bound (see the README).
    let mut reactor = workloads::setup("access_reactor", args.seed)?;
    let loaded = run_window(&mut reactor.clients, args.seconds / 5.0, false).measure();
    reactor.finish()?;
    sheet.put("net.reactor_sessions_per_s", loaded.ops_per_s);
    sheet.put("net.reactor_session_p50_ms", loaded.op_p50_ms);
    sheet.put("net.reactor_session_p99_ms", loaded.ladder_ms[4]);
    println!("layer sheet took {:.1} s", epoch.elapsed().as_secs_f64());

    // The workload itself, for half the run, spans on.
    let mut live = workloads::setup(&args.workload, args.seed)?;
    let before = (live.telemetry(), global().snapshot());
    let window = run_window(&mut live.clients, args.seconds / 2.0, true);
    let after = (live.telemetry(), global().snapshot());
    let finished = live.finish();
    let m = window.measure();
    let ops = m.attempted.max(1) as f64;
    let (net, process) = (Delta(&before.0, &after.0), Delta(&before.1, &after.1));
    let both = |name: &str| net.counters(&[&format!("client.{name}"), &format!("router.{name}")]);

    // The program timed these itself; like every other time here they are
    // divided by the yardstick's slowdown over the window.
    for (metric, histogram) in [
        ("net.client_beacon_leg_us", "client.net.hs_beacon_us"),
        ("net.client_confirm_leg_us", "client.net.hs_confirm_us"),
        ("net.router_beacon_leg_us", "router.net.hs_beacon_us"),
        ("net.router_confirm_leg_us", "router.net.hs_confirm_us"),
        ("net.router_access_verify_us", "router.net.access_verify_us"),
    ] {
        sheet.put(metric, net.mean(histogram) / m.slowdown);
    }
    sheet.put(
        "net.bytes_per_op",
        net.counters(&["router.net.bytes_in", "router.net.bytes_out"]) / ops,
    );
    sheet.put(
        "net.frames_per_op",
        net.counters(&["router.net.frames_in", "router.net.frames_out"]) / ops,
    );
    sheet.put(
        "net.conn_rejected",
        net.counters(&[
            "client.net.conn_rejected",
            "router.net.connections_rejected",
        ]),
    );
    sheet.put("net.timeouts", both("net.timeouts"));
    sheet.put("net.decode_failures", both("net.decode_failures"));
    sheet.put("net.backpressure_events", both("net.backpressure_events"));
    sheet.put("net.handler_panics", both("net.handler_panics"));
    let lookups = process.counters(&["revoke.cache_hit", "revoke.cache_miss"]);
    sheet.put(
        "revoke.cache_hit_ratio",
        process.counter("revoke.cache_hit") / lookups.max(1.0),
    );
    sheet.put(
        "revoke.sweeps_per_op",
        process.counter("revoke.sweeps") / ops,
    );
    sheet.put(
        "revoke.sweep_token_ns",
        process.mean("revoke.sweep_token_ns") / m.slowdown,
    );
    sheet.put("proc.cpu_util", m.cpu_util);
    sheet.put("proc.ctx_switches_per_op", m.ctx_switches_per_op);
    sheet.put("proc.traced_op_p50_ms", m.op_p50_ms);
    sheet.put("proc.traced_op_p95_ms", m.ladder_ms[3]);
    sheet.put("proc.traced_op_p99_ms", m.ladder_ms[4]);
    sheet.put("proc.yardstick_slowdown", m.slowdown);

    budget_tables(&sheet);
    println!(
        "\n{} window, {:.1} s, {} operations:",
        args.workload, m.window_s, m.attempted
    );
    let mut names: Vec<&str> = window.spans.spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let (mean_ns, n) = window.spans.mean_ns(name);
        println!(
            "  {name:<44} {:>10.1} us mean over {n} spans",
            mean_ns / 1e3
        );
    }
    println!();
    for (name, value) in &sheet.0 {
        println!("{name} = {value} {}", spec::unit_of(name));
    }

    spans.absorb(window.spans);
    let file = workloads::out_dir().join(format!("trace-{}.json", args.workload));
    let trace = Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("nproc", Json::Num(procfs::nproc() as f64)),
        ("spans", spans.to_json()),
    ]);
    std::fs::create_dir_all(workloads::out_dir())
        .and_then(|()| std::fs::write(&file, trace.encode()))
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    println!("{} spans written to {}", spans.spans.len(), file.display());

    if let Some(e) = &window.first_error {
        println!("first failed operation: {e}");
    }
    if let Err(e) = &finished {
        println!("output check failed: {e}");
    }
    Ok(spec::result(
        finished.is_ok(),
        m.attempted,
        m.failed,
        &sheet.0,
    ))
}
