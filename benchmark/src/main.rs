//! The PEACE benchmark. See `README.md` beside this crate, and
//! `BENCHMARK.json` at the repository root for the contract.
//!
//! ```text
//! peace-benchmark --workload W --seed N --seconds S --trace 0|1
//! peace-benchmark suite --out FILE [--runs N] [--seed N] [--seconds S] [--trace 0|1]
//! peace-benchmark compare FILE_A FILE_B
//! ```

mod json;
mod kernels;
mod procfs;
mod runner;
mod spans;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::time::Instant;

use json::Json;

/// Every run sets its workload up at least three times, and a cheap one
/// up to nine times or until 1.5 s have gone into it, and reports the median
/// set-up time, so that one slow start does not read as a regression.
const SETUP_REPS: std::ops::RangeInclusive<usize> = 3..=9;
const SETUP_TIME_S: f64 = 1.5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// `--key value` pairs; anything else is an error.
pub fn flags(args: &[String]) -> Result<std::collections::BTreeMap<&str, &str>, String> {
    let mut out = std::collections::BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => out.insert(&k[2..], v.as_str()),
            _ => return Err(format!("expected `--flag value`, got {pair:?}")),
        };
    }
    Ok(out)
}

pub fn parse<T: std::str::FromStr>(
    flags: &std::collections::BTreeMap<&str, &str>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
    }
}

fn run_args(args: &[String]) -> Result<Args, String> {
    let f = flags(args)?;
    let workload = f
        .get("workload")
        .ok_or("--workload is required")?
        .to_string();
    let known = &spec::contract().workloads;
    if !known.contains(&workload) {
        return Err(format!("unknown workload {workload:?}; one of {known:?}"));
    }
    let seconds: f64 = parse(&f, "seconds", 10.0)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload,
        seed: parse(&f, "seed", 1)?,
        seconds,
        trace: parse::<u8>(&f, "trace", 0)? != 0,
    })
}

/// Sets the workload up repeatedly (see [`SETUP_REPS`]), keeping the last;
/// earlier ones are checked and shut down at once. Returns the live workload
/// and the median set-up time.
fn setup_repeatedly(args: &Args) -> Result<(workloads::Live, f64), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut live = None;
    while times.len() < *SETUP_REPS.start()
        || (times.len() < *SETUP_REPS.end() && times.iter().sum::<f64>() < SETUP_TIME_S)
    {
        if let Some(earlier) = live.take() {
            workloads::Live::finish(earlier)?;
        }
        // Reference seconds: see the yardstick in `runner.rs`.
        let slow_before = runner::slowdown_now();
        let t = Instant::now();
        live = Some(workloads::setup(&args.workload, args.seed)?);
        let took = t.elapsed().as_secs_f64();
        times.push(took * 2.0 / (slow_before + runner::slowdown_now()));
    }
    println!("set up {} times: {times:.3?} reference s", times.len());
    Ok((live.expect("at least one set-up"), stats::median(&times)))
}

/// One run: the result object of the contract, or why there is none.
pub fn run(args: &Args) -> Result<Json, String> {
    println!(
        "workload={} seed={} seconds={} trace={} nproc={} generator_threads={} loadavg_1m={} out_fs={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        procfs::nproc(),
        workloads::generator_threads(),
        procfs::loadavg_1m(),
        procfs::fs_of(&workloads::out_dir().join("..")),
    );
    if args.trace {
        return trace::run(args);
    }

    let (mut live, setup_s) = setup_repeatedly(args)?;
    let window = runner::run_window(&mut live.clients, args.seconds, false);
    let (units, unit) = (live.units_per_op, live.unit);
    let finished = live.finish();
    let m = window.measure();

    let metrics = [
        ("setup_s", setup_s),
        ("peak_rss_mb", procfs::peak_rss_mb()),
        ("ops_per_s", m.ops_per_s),
        ("op_p50_ms", m.op_p50_ms),
        ("cpu_ms_per_op", m.cpu_ms_per_op),
    ];
    for (name, value) in metrics {
        println!("{name} = {value} {}", spec::unit_of(name));
    }
    println!(
        "samples: {} operations completed in a {:.3} s window; {:.1} {unit}/s; cpu_util {:.2}",
        m.completed,
        m.window_s,
        m.ops_per_s * units as f64,
        m.cpu_util,
    );
    println!(
        "latency p50 p75 p90 p95 p99 max: {:.3?} reference ms",
        m.ladder_ms
    );
    println!(
        "yardstick slowdown in each slice (1 = reference speed): {:.3?}",
        m.slice_slowdown
    );
    println!(
        "operations per wall second in each slice, before the slowdown is divided out: {:.1?}",
        m.slice_raw_rates
    );
    if let Some(e) = &window.first_error {
        println!("first failed operation: {e}");
    }
    if let Err(e) = &finished {
        println!("output check failed: {e}");
    }
    if m.completed == 0 {
        return Err("no operation completed inside the window".into());
    }
    Ok(spec::result(
        finished.is_ok(),
        m.attempted,
        m.failed,
        &metrics,
    ))
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("peace-benchmark measures optimized builds only: run it with --release");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("suite") => suite::suite(&args[1..]),
        Some("compare") => suite::compare(&args[1..]),
        _ => run_args(&args).and_then(|a| run(&a)).map(|result| {
            println!("{}", result.encode());
            true
        }),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("peace-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Every metric of `list` is in the result exactly once, with its unit
    /// and a finite value, and nothing else is.
    fn assert_emits(result: &Json, list: &BTreeMap<String, spec::Metric>, what: &str) {
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
        assert_eq!(
            result.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{what}"
        );
        assert!(
            result.get("attempted").and_then(Json::as_f64) >= Some(1.0),
            "{what}"
        );
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics");
        let emitted: Vec<&String> = metrics.keys().collect();
        let named: Vec<&String> = list.keys().collect();
        assert_eq!(emitted, named, "{what}");
        for (name, m) in metrics {
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(list[name].unit.as_str())
            );
            let v = m.get("value").and_then(Json::as_f64);
            assert!(v.is_some_and(f64::is_finite), "{what}: {name} = {v:?}");
        }
        // The printed line survives a round trip.
        assert_eq!(&Json::parse(&result.encode()).unwrap(), result);
    }

    /// The smoke pass: 1 s windows over every workload, then traced runs of
    /// a network and an accountability workload. One test, so that the runs
    /// do not share the box or the process-wide counters with each other.
    #[test]
    fn smoke_every_workload_and_traced_runs() {
        let args = |workload: &str, trace| Args {
            workload: workload.into(),
            seed: 5,
            seconds: 1.0,
            trace,
        };
        for w in &spec::contract().workloads {
            let result = run(&args(w, false)).unwrap_or_else(|e| panic!("{w}: {e}"));
            assert_emits(&result, &spec::contract().end_to_end, w);
        }
        for w in ["access_url64", "ledger_catchup"] {
            let result = run(&args(w, true)).unwrap_or_else(|e| panic!("{w} traced: {e}"));
            assert_emits(&result, &spec::contract().per_layer, w);
            let file = workloads::out_dir().join(format!("trace-{w}.json"));
            let trace = Json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
            assert!(trace.get("spans").unwrap().as_arr().len() > 100);
        }
    }

    #[test]
    fn arguments() {
        let v = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = run_args(&v("--workload data_echo --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("data_echo", 9, 3.0, true)
        );
        assert!(run_args(&v("--workload nope --seed 9")).is_err());
        assert!(run_args(&v("--seed 9")).is_err());
        assert!(run_args(&v("--workload data_echo --seconds 0")).is_err());
        assert!(run_args(&v("--workload data_echo --seed")).is_err());
    }
}
