//! `suite` runs every workload several times, each run in a process of its
//! own (so `peak_rss_mb` is that workload's), and keeps the results as one
//! set. `compare` judges two sets against the bounds of `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::Json;
use crate::spec::{contract, Metric};
use crate::stats::{median, quartiles, sort, spread};
use crate::{flags, parse, procfs, workloads};

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Runs one workload in a child process and returns the result object it
/// printed as its last line.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: u8) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}:\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut lines: Vec<&str> = stdout.lines().collect();
    let mut result = Json::parse(lines.pop().unwrap_or_default())
        .map_err(|e| format!("{workload} seed {seed}: last line is not a result: {e}"))?;
    // What the run printed above its result: sample counts, slices, checks.
    if let Json::Obj(m) = &mut result {
        let log = lines.iter().map(|l| Json::Str(l.to_string())).collect();
        m.insert("log".into(), Json::Arr(log));
    }
    Ok(result)
}

/// `suite --out FILE [--runs 5] [--seed 1] [--seconds S] [--trace 0] [--workloads a,b]`
///
/// Run `r` of every workload uses seed `seed + r`. Workloads interleave
/// within a run, so a busy period on the box touches all of them alike.
pub fn suite(args: &[String]) -> Result<bool, String> {
    let f = flags(args)?;
    let out = f.get("out").ok_or("suite: --out FILE is required")?;
    let runs: u64 = parse(&f, "runs", 5)?;
    let seed: u64 = parse(&f, "seed", 1)?;
    let seconds: f64 = parse(&f, "seconds", contract().run_seconds)?;
    let trace: u8 = parse(&f, "trace", 0)?;
    let chosen: Vec<&str> = match f.get("workloads") {
        Some(list) => list.split(',').collect(),
        None => contract().workloads.iter().map(String::as_str).collect(),
    };
    let header = [
        ("commit", Json::Str(git_commit())),
        ("nproc", Json::Num(procfs::nproc() as f64)),
        ("loadavg_1m_at_start", Json::Num(procfs::loadavg_1m())),
        (
            "out_fs",
            Json::Str(procfs::fs_of(&workloads::out_dir().join(".."))),
        ),
        ("seconds", Json::Num(seconds)),
        ("first_seed", Json::Num(seed as f64)),
    ];
    let mut results = Vec::new();
    let mut all_ok = true;
    for r in 0..runs {
        for w in &chosen {
            let result = run_child(w, seed + r, seconds, trace)?;
            let ok = result.get("correct") == Some(&Json::Bool(true))
                && result.get("failed").and_then(Json::as_f64) == Some(0.0);
            all_ok &= ok;
            eprintln!(
                "run {}/{runs} {w} seed {}: {}",
                r + 1,
                seed + r,
                if ok {
                    "ok"
                } else {
                    "FAILED OPERATIONS OR CHECKS"
                }
            );
            results.push(Json::obj([
                ("workload", Json::Str(w.to_string())),
                ("seed", Json::Num((seed + r) as f64)),
                ("result", result),
            ]));
        }
    }
    let mut set = Json::obj(header);
    if let Json::Obj(m) = &mut set {
        m.insert("runs".into(), Json::Arr(results));
    }
    std::fs::write(out, set.encode()).map_err(|e| format!("write {out}: {e}"))?;
    println!("{} results written to {out}", runs as usize * chosen.len());
    Ok(all_ok)
}

/// `(workload, metric) -> one value per run`.
type Table = BTreeMap<(String, String), Vec<f64>>;

/// Loads one set from `paths`, a comma-separated list of `suite` files
/// (interleaved sets are written one pass per file). The header returned is
/// the first file's.
fn load(paths: &str) -> Result<(Json, Table), String> {
    let mut sets = Vec::new();
    for path in paths.split(',') {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        sets.push(Json::parse(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    let mut table = Table::new();
    let runs = sets
        .iter()
        .flat_map(|s| s.get("runs").map(Json::as_arr).unwrap_or_default());
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let metrics = run.get("result").and_then(|r| r.get("metrics"));
        for (name, m) in metrics.and_then(Json::as_obj).into_iter().flatten() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                table
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok((sets.swap_remove(0), table))
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

/// Judges set `b` against set `a` for one metric on one workload. Better
/// means every run of `b` beats every run of `a`. Otherwise the medians
/// decide, unless either side's own spread is wider than the bound: then
/// only a clean separation of every run counts as worse, and anything else
/// is unresolved.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(f64::INFINITY);
    // Orient so that larger is worse.
    let orient = |v: &[f64]| -> Vec<f64> {
        let sign = if metric.higher_is_better { -1.0 } else { 1.0 };
        sort(v.iter().map(|x| x * sign).collect())
    };
    let (a, b) = (orient(a), orient(b));
    let worse_by = (median(&b) - median(&a)) / median(&a).abs();
    let noisy = spread(&a) > bound || spread(&b) > bound;
    if b[b.len() - 1] < a[0] {
        Verdict::Better
    } else if worse_by > bound && (!noisy || b[0] > a[a.len() - 1]) {
        Verdict::Worse
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

/// `compare FILE_A FILE_B`: one row per end-to-end metric and workload.
/// Returns `false` (exit code 1) if any row is `worse`.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let [path_a, path_b] = args else {
        return Err("compare: expected two result files".into());
    };
    let ((set_a, a), (set_b, b)) = (load(path_a)?, load(path_b)?);
    for (path, set) in [(path_a, &set_a), (path_b, &set_b)] {
        let text = |k: &str| set.get(k).map(Json::encode).unwrap_or_default();
        println!(
            "{path}: commit {} nproc {} loadavg_1m_at_start {} out_fs {} seconds {} first_seed {}",
            text("commit"),
            text("nproc"),
            text("loadavg_1m_at_start"),
            text("out_fs"),
            text("seconds"),
            text("first_seed"),
        );
    }
    println!(
        "\n{:<15} {:<14} {:>3} {:>12} {:>12} {:>7} {:>12} {:>12} {:>7} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "n",
        "A median",
        "A q1..q3",
        "A iqr",
        "B median",
        "B q1..q3",
        "B iqr",
        "B/A",
        "bound"
    );
    let mut any_worse = false;
    for ((workload, name), va) in &a {
        let (Some(metric), Some(vb)) = (
            contract().end_to_end.get(name),
            b.get(&(workload.clone(), name.clone())),
        ) else {
            continue;
        };
        let row = |v: &[f64]| {
            let (q1, q3) = if v.len() >= 2 {
                quartiles(v)
            } else {
                (v[0], v[0])
            };
            (median(v), format!("{q1:.4}..{q3:.4}"), spread(v))
        };
        let ((ma, qa, sa), (mb, qb, sb)) = (row(va), row(vb));
        let verdict = judge(metric, va, vb);
        any_worse |= verdict == Verdict::Worse;
        println!(
            "{workload:<15} {name:<14} {:>3} {ma:>12.4} {qa:>12} {:>6.1}% {mb:>12.4} {qb:>12} {:>6.1}% {:>8.4} {:>5.0}%  {}",
            va.len().min(vb.len()),
            sa * 100.0,
            sb * 100.0,
            mb / ma,
            metric.bound.unwrap_or(0.0) * 100.0,
            match verdict {
                Verdict::Better => "better",
                Verdict::WithinBound => "within-bound",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Metric {
        Metric {
            unit: "ms".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts() {
        let a = [10.0, 10.1, 10.2, 9.9, 10.0];
        let m = lower(0.1);
        assert_eq!(
            judge(&m, &a, &[10.3, 10.4, 10.2, 10.5, 10.3]),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&m, &a, &[11.5, 11.6, 11.4, 11.7, 11.5]),
            Verdict::Worse
        );
        assert_eq!(judge(&m, &a, &[8.0, 8.1, 7.9, 8.2, 8.0]), Verdict::Better);
        // A noisy side: overlapping runs settle nothing.
        assert_eq!(
            judge(&m, &a, &[9.0, 14.0, 10.0, 16.0, 8.0]),
            Verdict::Unresolved
        );
        // Noisy, yet every run is beyond every run of the other side.
        assert_eq!(
            judge(&m, &a, &[20.0, 30.0, 25.0, 40.0, 22.0]),
            Verdict::Worse
        );
        let higher = Metric {
            higher_is_better: true,
            ..lower(0.1)
        };
        assert_eq!(
            judge(&higher, &a, &[8.0, 8.1, 7.9, 8.2, 8.0]),
            Verdict::Worse
        );
        assert_eq!(
            judge(&higher, &a, &[12.0, 12.1, 12.2, 12.3, 12.4]),
            Verdict::Better
        );
    }
}
