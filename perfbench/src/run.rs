//! One benchmark run of one workload: set-up, warm-up, the measured
//! window(s), then the invariant check and the route assertions.

use crate::driver::{LoadGen, Outcomes, Window};
use crate::ledger::{self, Extras, LayerMetric, Snapshot};
use crate::metrics::{interquartile_mean, median, quantile_sorted, EndToEnd};
use crate::procfs::{self, HostTicks};
use crate::spec::{Route, WorkloadKind, DISTRIBUTED_PROB, NODES};
use p4db_common::rand_util::FastRng;
use p4db_common::NodeId;
use p4db_core::{Cluster, ClusterBuilder};
use p4db_layout::{LayoutPlanner, LayoutStrategy};
use p4db_storage::NodeStorage;
use std::time::{Duration, Instant};

/// Cluster builds per run. `setup_s` is the interquartile mean of their wall
/// times, which neither the first build (on a cold heap, about twice as
/// slow) nor a burst of host noise moves. The last cluster built is the one
/// measured.
const BUILDS: usize = 21;
/// Closed-loop warm-up before the first measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// Length of one sub-window of a measured phase: short enough that most
/// sub-windows of a run fall between the hypervisor's bursts of steal, long
/// enough to hold thousands of latency samples.
const SUB_WINDOW_S: f64 = 0.1;
/// Requests per arm of the window-1 hop phase.
const HOP_PAIRS: usize = 2_000;
/// The end-to-end metrics are taken over at least this share of a phase's
/// sub-windows (see [`quiet_windows`]).
const MIN_QUIET_SHARE: f64 = 0.25;
/// Longest wait for the switch to go quiet before the invariant check.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Copy, Clone, Debug)]
pub struct RunOptions {
    pub kind: WorkloadKind,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Adds the per-layer ledger: half the window runs untraced (the
    /// overhead reference), half traced, then comes the hop phase.
    pub trace: bool,
    /// Changes the cluster configuration; the identity for every measured
    /// workload, a negative control in the self-test.
    pub tweak: fn(ClusterBuilder) -> ClusterBuilder,
}

impl RunOptions {
    pub fn new(kind: WorkloadKind, seed: u64, seconds: f64, trace: bool) -> Self {
        RunOptions { kind, seed, seconds, trace, tweak: |b| b }
    }
}

#[derive(Clone, Debug)]
pub struct RunReport {
    pub options: RunOptions,
    /// End-to-end values of the (untraced) measured window.
    pub e2e: EndToEnd,
    /// Wall time of every cluster build of the run, in order.
    pub setups: Vec<f64>,
    /// Commit latency samples behind `p50_us` and `p99_us`.
    pub samples: u64,
    /// Sub-windows the end-to-end metrics are taken over (see
    /// [`quiet_windows`]), of `per_window.len()`.
    pub quiet_windows: usize,
    pub outcomes: Outcomes,
    pub route: Route,
    /// Share of the machine's CPU stolen during the measured window.
    pub steal_share: f64,
    /// One-minute load average at the end of the measured window.
    pub loadavg: f64,
    /// The per-layer ledger (traced runs only).
    pub layers: Vec<LayerMetric>,
    /// `tput`, `p50_us`, `p99_us` and `cpu_us_per_txn` of each sub-window
    /// of the measured window, in order.
    pub per_window: Vec<[f64; 4]>,
    /// Share of the machine's CPU stolen in each of those sub-windows.
    pub window_steal: Vec<f64>,
    /// What the invariant checker found, if anything.
    pub violations: Option<String>,
    /// Why the route assertion failed, if it did.
    pub route_error: Option<String>,
    /// What the invariant checker compared.
    pub checked: String,
}

impl RunReport {
    /// The invariant check is clean and the route held.
    pub fn correct(&self) -> bool {
        self.violations.is_none() && self.route_error.is_none()
    }
}

/// `tput`, `p50_us`, `p99_us` and `cpu_us_per_txn` of one sub-window.
fn sub_window_metrics(w: &Window) -> Result<[f64; 4], String> {
    if w.commits == 0 {
        return Err("a measured sub-window committed nothing".into());
    }
    let mut sorted = w.latencies_ns.clone();
    sorted.sort_unstable();
    Ok([
        w.commits as f64 / w.wall.as_secs_f64(),
        quantile_sorted(&sorted, 0.5) as f64 / 1e3,
        quantile_sorted(&sorted, 0.99) as f64 / 1e3,
        w.cpu.as_secs_f64() * 1e6 / w.commits as f64,
    ])
}

/// The sub-windows the end-to-end metrics are taken over: those with the
/// least steal, including every sub-window tied with the last one chosen,
/// and at least [`MIN_QUIET_SHARE`] of them. While the hypervisor steals
/// CPU the whole closed loop stalls, so those moments measure the host
/// rather than the program. A 100 ms sub-window spans about 20 ticks of the
/// machine's two CPUs, so on a mostly calm run these are exactly the
/// sub-windows without a single tick of steal.
fn quiet_windows(windows: &[Window]) -> Vec<&Window> {
    let mut steals: Vec<f64> = windows.iter().map(|w| w.steal).collect();
    steals.sort_by(f64::total_cmp);
    let keep = ((windows.len() as f64 * MIN_QUIET_SHARE).ceil() as usize).clamp(1, windows.len());
    let most = steals[keep - 1];
    windows.iter().filter(|w| w.steal <= most).collect()
}

/// `tput`, `p50_us`, `p99_us` and `cpu_us_per_txn` over the given
/// sub-windows. Throughput and CPU add up across sub-windows, so they are
/// taken over the sub-windows' sums (which also keeps CPU clear of the 10 ms
/// tick of `/proc`); latency percentiles do not add up, so each is the median
/// of the sub-windows' own, and one slow moment moves neither.
fn over_windows(windows: &[&Window]) -> Result<[f64; 4], String> {
    let per_window = windows.iter().map(|w| sub_window_metrics(w)).collect::<Result<Vec<_>, _>>()?;
    let commits: u64 = windows.iter().map(|w| w.commits).sum();
    let wall: f64 = windows.iter().map(|w| w.wall.as_secs_f64()).sum();
    let cpu: f64 = windows.iter().map(|w| w.cpu.as_secs_f64()).sum();
    let median_of = |i: usize| median(&per_window.iter().map(|m| m[i]).collect::<Vec<_>>());
    Ok([commits as f64 / wall, median_of(1), median_of(2), cpu * 1e6 / commits as f64])
}

fn window_metrics(windows: &[Window]) -> Result<Vec<[f64; 4]>, String> {
    windows.iter().map(sub_window_metrics).collect()
}

/// Time of `Workload::load_node` into fresh storage for every node, and of
/// `LayoutPlanner::plan` over the workload's layout traces.
fn time_load_and_plan(cluster: &Cluster, kind: WorkloadKind, seed: u64) -> (f64, f64) {
    let workload = kind.workload();
    let shards = cluster.config().storage_shards as usize;
    let segments = cluster.config().wal_segment_records;
    let started = Instant::now();
    for n in 0..NODES {
        let storage = NodeStorage::with_shards_and_segments(NodeId(n), workload.tables(), shards, segments);
        workload.load_node(&storage, NODES);
    }
    let load_s = started.elapsed().as_secs_f64();
    let hot: Vec<_> = workload.hot_tuples(NODES).into_iter().map(|h| h.tuple).collect();
    // The same trace stream the cluster build plans over.
    let traces = workload.layout_traces(NODES, &mut FastRng::new(seed ^ 0xFEED));
    let sw = cluster.config().switch;
    let planner = LayoutPlanner::new(sw.num_stages, sw.arrays_per_stage, sw.slots_per_array);
    let started = Instant::now();
    let layout = planner.plan(&hot[..hot.len().min(sw.total_slots() as usize)], &traces, LayoutStrategy::Declustered);
    let plan_s = started.elapsed().as_secs_f64();
    std::hint::black_box(layout);
    (load_s, plan_s)
}

fn windows_for(seconds: f64) -> usize {
    ((seconds / SUB_WINDOW_S).round() as usize).max(1)
}

pub fn run(options: RunOptions) -> Result<RunReport, String> {
    let kind = options.kind;
    // --- Set-up: several builds, the last one is measured. ------------------
    let mut setups: Vec<f64> = Vec::with_capacity(BUILDS);
    let mut cluster = None;
    for _ in 0..BUILDS {
        drop(cluster.take());
        let builder = (options.tweak)(kind.builder(options.seed));
        let started = Instant::now();
        let built = builder.try_build().map_err(|e| format!("cluster build failed: {e}"))?;
        setups.push(started.elapsed().as_secs_f64());
        cluster = Some(built);
    }
    let cluster = cluster.expect("at least one build");
    let setup_s = interquartile_mean(&setups);
    let (load_s, plan_s) = if options.trace { time_load_and_plan(&cluster, kind, options.seed) } else { (0.0, 0.0) };

    let mut gen = LoadGen::new(&cluster, kind.workload(), DISTRIBUTED_PROB, options.seed)
        .map_err(|e| format!("cannot open sessions: {e}"))?;
    gen.run_phase(WARMUP, 1)?;

    // --- Measured window(s). -------------------------------------------------
    let host_before = HostTicks::read()?;
    let first = Snapshot::take(&cluster, &gen)?;
    let (windows, layers, last) = if options.trace {
        let half = Duration::from_secs_f64(options.seconds / 2.0);
        let reference = gen.run_phase(half, windows_for(options.seconds / 2.0))?;
        let before = Snapshot::take(&cluster, &gen)?;
        gen.tracer = Some(crate::trace::Tracer::new());
        let traced = gen.run_phase(half, windows_for(options.seconds / 2.0))?;
        let after = Snapshot::take(&cluster, &gen)?;
        let tracer = gen.tracer.take().expect("tracer set for the traced phase");
        write_spans(kind, &tracer.to_tsv());
        let hop_us = gen.measure_hop(&cluster, HOP_PAIRS)?;
        let extras = Extras {
            hop_us,
            load_s,
            plan_s,
            untraced_tput: over_windows(&quiet_windows(&reference))?[0],
            traced_tput: over_windows(&quiet_windows(&traced))?[0],
        };
        (reference, ledger::ledger(&before, &after, &tracer, &extras), after)
    } else {
        let windows = gen.run_phase(Duration::from_secs_f64(options.seconds), windows_for(options.seconds))?;
        let last = Snapshot::take(&cluster, &gen)?;
        (windows, Vec::new(), last)
    };
    let steal_share = HostTicks::read()?.steal_share_since(&host_before);
    let loadavg = procfs::loadavg()?;
    let route = last.route_since(&first);
    gen.drain()?;

    // --- Correctness, outside all timing. ------------------------------------
    if !cluster.quiesce_switch(QUIESCE_TIMEOUT) {
        return Err(format!("switch still busy {QUIESCE_TIMEOUT:?} after the load stopped"));
    }
    let check_started = Instant::now();
    let report = p4db_chaos::invariants::check(&cluster, kind.semantics());
    let checked = format!(
        "{} cold tuples, {} version entries, {} checkpoint rows; {:.1} s",
        report.cold_compared,
        report.version_entries_checked,
        report.checkpoint_compared,
        check_started.elapsed().as_secs_f64()
    );
    let violations = (!report.is_clean()).then(|| {
        format!(
            "{} invariant violations, {} in-doubt intents unresolved; first: {:?}",
            report.violations.len(),
            report.unresolved,
            &report.violations[..report.violations.len().min(5)]
        )
    });
    let quiet = quiet_windows(&windows);
    let [tput, p50_us, p99_us, cpu_us_per_txn] = over_windows(&quiet)?;
    Ok(RunReport {
        options,
        e2e: [tput, p50_us, p99_us, cpu_us_per_txn, setup_s],
        setups,
        samples: quiet.iter().map(|w| w.latencies_ns.len() as u64).sum(),
        quiet_windows: quiet.len(),
        outcomes: gen.outcomes,
        route,
        steal_share,
        loadavg,
        layers,
        per_window: window_metrics(&windows)?,
        window_steal: windows.iter().map(|w| w.steal).collect(),
        violations,
        route_error: kind.check_route(&route).err(),
        checked,
    })
}

/// Writes the traced phase's spans next to the benchmark's sources. A
/// failed write is reported and ignored: the spans are a by-product.
fn write_spans(kind: WorkloadKind, tsv: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}.tsv", kind.name()));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tsv)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stolen(shares: &[f64]) -> Vec<Window> {
        shares.iter().map(|&steal| Window { steal, ..Window::default() }).collect()
    }

    #[test]
    fn quiet_windows_leave_out_bursts_of_steal_but_keep_a_quarter() {
        let steals = |ws: Vec<&Window>| ws.iter().map(|w| w.steal).collect::<Vec<_>>();
        assert_eq!(steals(quiet_windows(&stolen(&[0.0, 0.05, 0.0, 0.1, 0.0]))), [0.0, 0.0, 0.0]);
        assert_eq!(steals(quiet_windows(&stolen(&[0.2, 0.05, 0.1, 0.1, 0.15, 0.3, 0.1, 0.2]))), [0.05, 0.1, 0.1, 0.1]);
        assert_eq!(steals(quiet_windows(&stolen(&[0.3]))), [0.3]);
    }

    #[test]
    fn throughput_and_cpu_add_up_over_sub_windows() {
        let window = |commits: u64, ms: u64, cpu_ms: u64, latency_us: u64| Window {
            wall: Duration::from_millis(ms),
            cpu: Duration::from_millis(cpu_ms),
            commits,
            steal: 0.0,
            latencies_ns: vec![latency_us * 1_000; commits as usize],
        };
        let windows = [window(100, 100, 10, 5), window(300, 100, 30, 7), window(200, 100, 10, 6)];
        let [tput, p50, p99, cpu] = over_windows(&windows.iter().collect::<Vec<_>>()).unwrap();
        assert_eq!((p50, p99), (6.0, 6.0));
        assert!((tput - 2_000.0).abs() < 1e-9, "{tput}");
        assert!((cpu - 50_000.0 / 600.0).abs() < 1e-9, "{cpu}");
    }
}
