//! Closed-loop code-cost benchmark of the P4DB reproduction.
//!
//! Drives a 2-node P4DB cluster on the zero-latency profile through the
//! public client API (`Cluster::builder`, `Session::submit_request`,
//! `Session::wait`) from one driver thread, and prints the end-to-end
//! metrics of one workload — or, with `--trace 1`, its per-layer ledger.
//! Every run's output is checked with the cluster invariant checker and the
//! workload's route assertions. See `README.md` beside this file.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot-smallbank|read-mostly-ycsb|warm-tpcc|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A run whose invariant
//! check or route assertion fails prints `"correct": false` and exits 1; a
//! run that cannot measure at all prints no result and exits 1.

mod driver;
mod ledger;
mod metrics;
mod procfs;
mod run;
mod spec;
mod trace;

#[cfg(test)]
mod selftest;

use metrics::END_TO_END;
use run::{RunOptions, RunReport};
use spec::WorkloadKind;
use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    workloads: Vec<WorkloadKind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(WorkloadKind::ALL.to_vec()),
            "--workload" => {
                workloads = Some(vec![WorkloadKind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?])
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds must be between 1 and 600, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// `(name, unit, value)` of every metric the run reports in its result:
/// the end-to-end metrics, or the ledger of a traced run.
fn reported(report: &RunReport) -> Vec<(&'static str, &'static str, f64)> {
    if report.options.trace {
        report.layers.iter().map(|l| (l.name, l.unit, l.value)).collect()
    } else {
        END_TO_END.iter().zip(report.e2e).map(|(&(name, unit), v)| (name, unit, v)).collect()
    }
}

fn metrics_json(metrics: &[(String, &str, f64)]) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*v)))
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn print_report(report: &RunReport) {
    let o = &report.options;
    let out = &report.outcomes;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "perfbench {} seed={} seconds={} trace={} | zero-latency profile, 2 nodes x 1 executor, 1 switch, closed \
         loop with {} in flight per node",
        o.kind.name(),
        o.seed,
        o.seconds,
        o.trace as u8,
        driver::IN_FLIGHT_PER_NODE
    );
    let window = if o.trace { "untraced half-window" } else { "measured window" };
    let _ = writeln!(
        text,
        "  end to end ({window}; over the {} least-stolen of {} 100 ms sub-windows: tput and cpu over their sums, \
         latencies the median of their percentiles):",
        report.quiet_windows,
        report.per_window.len()
    );
    for (&(name, unit), v) in END_TO_END.iter().zip(report.e2e) {
        let _ = write!(text, "    {name:<16} {v:>14.3} {unit:<6}");
        if name == "p99_us" {
            let _ = write!(text, "   ({} latency samples)", report.samples);
        }
        text.push('\n');
    }
    let fail_ratio = out.failed as f64 / out.attempted().max(1) as f64;
    let _ = writeln!(
        text,
        "    {:<16} {:>14.6} ratio   (failed {} / attempted {}; rejected {}, committed {})",
        "fail_ratio",
        fail_ratio,
        out.failed,
        out.attempted(),
        out.rejected,
        out.committed
    );
    let column = |i: usize| report.per_window.iter().map(|m| format!("{:.0}", m[i])).collect::<Vec<_>>().join(" ");
    let _ = writeln!(text, "  sub-window tput (txn/s): {}", column(0));
    let _ = writeln!(text, "  sub-window p99 (us):     {}", column(2));
    let steal: Vec<String> = report.window_steal.iter().map(|s| format!("{:.0}", s * 100.0)).collect();
    let _ = writeln!(text, "  sub-window steal (%):    {}", steal.join(" "));
    let builds: Vec<String> = report.setups.iter().map(|s| format!("{s:.3}")).collect();
    let _ = writeln!(text, "  set-up builds (s):       {} (setup_s: mean of the middle half)", builds.join(" "));
    let r = &report.route;
    let _ = writeln!(
        text,
        "  routes taken: {} commits = {} hot + {} cold + {} warm, {} snapshot reads, {} switch txns",
        r.commits, r.hot, r.cold, r.warm, r.snapshot, r.switch_txns
    );
    let _ =
        writeln!(text, "  host: steal {:.2}% of CPU, load average {:.2}", report.steal_share * 100.0, report.loadavg);
    match &report.violations {
        None => {
            let _ = writeln!(text, "  invariants: clean ({})", report.checked);
        }
        Some(e) => {
            let _ = writeln!(text, "  invariants: FAILED: {e}");
        }
    }
    let _ = writeln!(text, "  route: {}", report.route_error.as_deref().unwrap_or("held"));
    if o.trace {
        let _ = writeln!(text, "  per-layer ledger (traced half-window, per commit unless the unit says otherwise):");
        for l in &report.layers {
            let _ = writeln!(text, "    {:<24} {:>14.4} {}", l.name, l.value, l.unit);
        }
    }
    print!("{text}");
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>]");
            return ExitCode::from(2);
        }
    };
    let mut reports = Vec::new();
    for &kind in &args.workloads {
        match run::run(RunOptions::new(kind, args.seed, args.seconds, args.trace)) {
            Ok(report) => {
                print_report(&report);
                reports.push(report);
            }
            Err(e) => {
                eprintln!("perfbench {}: {e}", kind.name());
                return ExitCode::FAILURE;
            }
        }
    }
    // One workload reports its metrics by their own names; `all` prefixes
    // each with its workload.
    let prefix = |r: &RunReport, name: &str| {
        if reports.len() == 1 {
            name.to_string()
        } else {
            format!("{}.{name}", r.options.kind.name())
        }
    };
    let metrics: Vec<(String, &str, f64)> = reports
        .iter()
        .flat_map(|r| reported(r).into_iter().map(move |(name, unit, v)| (prefix(r, name), unit, v)))
        .collect();
    let correct = reports.iter().all(RunReport::correct) && metrics.iter().all(|m| m.2.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        reports.iter().map(|r| r.outcomes.attempted()).sum::<u64>(),
        reports.iter().map(|r| r.outcomes.failed).sum::<u64>(),
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
