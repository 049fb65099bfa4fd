//! The benchmark's own comparison, checked against known answers:
//! configurations known to cost more (negative controls) must be flagged as
//! worse than the measured workload, and a second seed set must agree with
//! the first. The controls appear here only, never in a measured workload.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::metrics::{median, EndToEnd, END_TO_END};
use crate::run::{run, RunOptions};
use crate::spec::WorkloadKind;
use p4db_core::ClusterBuilder;
use std::sync::Mutex;

/// One gated metric of the `end_to_end` list of `BENCHMARK.json`, the only
/// place its direction and bound are written down.
#[derive(Clone, Debug)]
struct Gate {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

/// The `end_to_end` entries of `BENCHMARK.json`: flat objects of string and
/// number fields, none of which holds a comma or a brace.
fn gates() -> Vec<Gate> {
    let json = include_str!("../../BENCHMARK.json");
    let list = &json[json.find("\"end_to_end\"").expect("end_to_end listed")..];
    let list = &list[..list.find(']').expect("end_to_end closes")];
    list.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\":")).unwrap_or_else(|| panic!("no {key} in {entry}"));
                let value = entry[at + key.len() + 3..].split([',', '}']).next().expect("value");
                value.trim().trim_matches('"').to_string()
            };
            Gate {
                name: field("name"),
                unit: field("unit"),
                higher_is_better: field("better") == "higher",
                bound: field("bound").parse().expect("numeric bound"),
            }
        })
        .collect()
}

/// The comparison of one metric's medians between two sets of runs.
#[derive(Clone, Debug)]
struct Verdict {
    gate: Gate,
    base: f64,
    candidate: f64,
    /// The share of `base` by which `candidate` is worse (negative: better).
    worse_by: f64,
}

impl Verdict {
    /// Worse than the baseline by more than the metric's bound.
    fn regressed(&self) -> bool {
        self.worse_by > self.gate.bound
    }
}

/// Compares the per-metric medians of two sets of runs of one workload.
fn compare(base: &[EndToEnd], candidate: &[EndToEnd]) -> Vec<Verdict> {
    gates()
        .into_iter()
        .map(|gate| {
            let i = END_TO_END.iter().position(|(name, _)| *name == gate.name).expect("gated metric is measured");
            let b = median(&base.iter().map(|r| r[i]).collect::<Vec<_>>());
            let c = median(&candidate.iter().map(|r| r[i]).collect::<Vec<_>>());
            let delta = if gate.higher_is_better { b - c } else { c - b };
            Verdict { gate, base: b, candidate: c, worse_by: delta / b }
        })
        .collect()
}

/// The tests compare CPU cost and throughput: never run two at once.
static SERIAL: Mutex<()> = Mutex::new(());

const PAIRS: u64 = 5;
const SECONDS: f64 = 3.0;

/// Runs `base` and `candidate` alternately, `PAIRS` times each, so that a
/// drift in host speed falls on both sets alike, and compares `candidate`
/// against `base`. The base configuration must keep its workload's route; a
/// control may leave it (the single-latch arm has no snapshot path).
fn alternate(base: impl Fn(u64) -> RunOptions, candidate: impl Fn(u64) -> RunOptions) -> Vec<Verdict> {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let measure = |options: RunOptions, keeps_route: bool| -> EndToEnd {
        let report = run(options).expect("run completes");
        assert!(report.violations.is_none(), "{}: {:?}", options.kind.name(), report.violations);
        assert!(!keeps_route || report.route_error.is_none(), "{:?}", report.route_error);
        report.e2e
    };
    let (mut based, mut candidates) = (Vec::new(), Vec::new());
    for seed in 1..=PAIRS {
        based.push(measure(base(seed), true));
        candidates.push(measure(candidate(seed), false));
    }
    compare(&based, &candidates)
}

fn control_against_standard(kind: WorkloadKind, control: fn(ClusterBuilder) -> ClusterBuilder) -> Vec<Verdict> {
    let standard = |seed| RunOptions::new(kind, seed, SECONDS, false);
    let verdicts = alternate(standard, |seed| RunOptions { tweak: control, ..standard(seed) });
    eprintln!("{} control against standard:\n{}", kind.name(), describe(&verdicts));
    verdicts
}

fn flagged(verdicts: &[Verdict]) -> Vec<&str> {
    verdicts.iter().filter(|v| v.regressed()).map(|v| v.gate.name.as_str()).collect()
}

fn describe(verdicts: &[Verdict]) -> String {
    let lines: Vec<String> = verdicts
        .iter()
        .map(|v| {
            format!(
                "{}: {:.3} -> {:.3} (worse by {:+.1}%, bound {:.0}%)",
                v.gate.name,
                v.base,
                v.candidate,
                v.worse_by * 100.0,
                v.gate.bound * 100.0
            )
        })
        .collect();
    lines.join("\n")
}

#[test]
fn unbatched_hot_path_is_flagged_worse_on_hot_smallbank() {
    let verdicts = control_against_standard(WorkloadKind::HotSmallbank, |b| b.batch_size(1));
    let worse = flagged(&verdicts);
    assert!(worse.contains(&"cpu_us_per_txn") && worse.contains(&"tput"), "{}", describe(&verdicts));
}

#[test]
fn single_latch_storage_is_flagged_worse_on_read_mostly_ycsb() {
    let verdicts = control_against_standard(WorkloadKind::ReadMostlyYcsb, |b| b.single_latch(true));
    assert!(flagged(&verdicts).contains(&"cpu_us_per_txn"), "{}", describe(&verdicts));
}

#[test]
fn a_second_seed_set_agrees_with_the_first() {
    for kind in [WorkloadKind::HotSmallbank, WorkloadKind::ReadMostlyYcsb] {
        let first = |seed| RunOptions::new(kind, seed, SECONDS, false);
        let verdicts = alternate(first, |seed| first(seed + 100));
        eprintln!("{} seeds 101-105 against 1-5:\n{}", kind.name(), describe(&verdicts));
        assert!(verdicts.iter().all(|v| v.worse_by.abs() <= v.gate.bound), "{}", describe(&verdicts));
    }
}

#[test]
fn comparison_flags_only_regressions_beyond_the_bound() {
    let base = [[100.0, 10.0, 50.0, 20.0, 1.0]];
    let slower = [[70.0, 10.0, 50.0, 30.0, 1.2]];
    let verdicts = compare(&base, &slower);
    assert_eq!(flagged(&verdicts), ["tput", "cpu_us_per_txn"]);
    let faster = [[150.0, 5.0, 25.0, 10.0, 0.5]];
    assert!(compare(&base, &faster).iter().all(|v| !v.regressed() && v.worse_by < 0.0));
}

#[test]
fn benchmark_json_gates_exactly_the_reported_metrics() {
    let listed: Vec<(String, String)> = gates().into_iter().map(|g| (g.name, g.unit)).collect();
    let reported: Vec<(String, String)> = END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(listed, reported);
}
