//! The contract, `BENCHMARK.json` at the repository root, compiled in: the
//! one place metric names, units and bounds are written down. Every result
//! a run prints is checked against it before it is printed.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::json::Json;

const CONTRACT: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct Metric {
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen; only
    /// end-to-end metrics have one.
    pub bound: Option<f64>,
}

pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: BTreeMap<String, Metric>,
    pub per_layer: BTreeMap<String, Metric>,
}

fn metrics(list: &Json) -> BTreeMap<String, Metric> {
    list.as_arr()
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default();
            (
                text("name").to_string(),
                Metric {
                    unit: text("unit").to_string(),
                    higher_is_better: text("better") == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                },
            )
        })
        .collect()
}

pub fn contract() -> &'static Contract {
    static PARSED: OnceLock<Contract> = OnceLock::new();
    PARSED.get_or_init(|| {
        let j = Json::parse(CONTRACT).expect("BENCHMARK.json parses");
        let field = |k: &str| j.get(k).cloned().unwrap_or(Json::Null);
        Contract {
            run_seconds: field("run_seconds").as_f64().unwrap_or(10.0),
            workloads: field("workloads")
                .as_arr()
                .iter()
                .filter_map(|w| w.get("name")?.as_str().map(String::from))
                .collect(),
            end_to_end: metrics(&field("end_to_end")),
            per_layer: metrics(&field("per_layer")),
        }
    })
}

pub fn unit_of(name: &str) -> &'static str {
    let c = contract();
    c.end_to_end
        .get(name)
        .or_else(|| c.per_layer.get(name))
        .map_or("?", |m| m.unit.as_str())
}

/// Which of the contract's two metric lists `names` is, exactly: every
/// name once, none missing, none extra.
fn matches_contract<'a>(names: impl Iterator<Item = &'a str>) -> Result<(), String> {
    let c = contract();
    let mut seen = std::collections::BTreeSet::new();
    for n in names {
        if !seen.insert(n) {
            return Err(format!("metric {n} emitted twice"));
        }
    }
    for list in [&c.end_to_end, &c.per_layer] {
        if list.len() == seen.len() && list.keys().all(|k| seen.contains(k.as_str())) {
            return Ok(());
        }
    }
    Err(
        "emitted metrics are neither the end_to_end nor the per_layer list of BENCHMARK.json"
            .into(),
    )
}

/// The object a run prints as its last line.
pub fn result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> Json {
    if let Err(e) = matches_contract(metrics.iter().map(|m| m.0)) {
        panic!("{e}");
    }
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|&(name, value)| {
                        let m = Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(unit_of(name).into())),
                        ]);
                        (name.to_string(), m)
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        let first = n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The limits the driver refuses a file for, checked here first.
    #[test]
    fn contract_file_is_within_the_drivers_limits() {
        let j = Json::parse(CONTRACT).unwrap();
        let keys: Vec<&str> = j.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(CONTRACT.len() <= 64 * 1024);
        let c = contract();
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1.0..=60.0).contains(&c.run_seconds) && c.run_seconds.fract() == 0.0);
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        for w in j.get("workloads").unwrap().as_arr() {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            assert_eq!(w.as_obj().unwrap().len(), 2);
        }
        for (name, m) in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(name_ok(name), "{name}");
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: unit {:?}",
                m.unit
            );
        }
        for (name, m) in &c.end_to_end {
            let b = m.bound.unwrap_or(f64::NAN);
            assert!(b > 0.0 && b <= 0.25, "{name}: bound {b}");
        }
        assert!(c.per_layer.values().all(|m| m.bound.is_none()));
        let setup = &c.end_to_end["setup_s"];
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(c.end_to_end.values().all(|m| m.bound <= setup.bound));
        let all: std::collections::BTreeSet<_> = c
            .end_to_end
            .keys()
            .chain(c.per_layer.keys())
            .chain(&c.workloads)
            .collect();
        assert_eq!(
            all.len(),
            c.end_to_end.len() + c.per_layer.len() + c.workloads.len(),
            "a name is used twice"
        );
        let command = j.get("command").unwrap().as_arr();
        assert!(command.len() <= 32);
        assert_eq!(
            j.get("paths").unwrap().as_arr(),
            [Json::Str("benchmark".into())]
        );
    }
}
