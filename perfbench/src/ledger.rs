//! The per-layer cost ledger of the traced run: counter snapshots taken
//! before and after the traced window, turned into totals per commit.
//!
//! Every counter is read from outside the program: the sessions' engine
//! statistics, the switch and fabric counters, the nodes' lock tables and
//! WALs, and per-thread CPU time from `/proc`.

use crate::driver::LoadGen;
use crate::procfs;
use crate::spec::Route;
use crate::trace::Tracer;
use p4db_common::stats::{Phase, WorkerStats, PHASES};
use p4db_core::Cluster;
use std::time::Duration;

/// Every counter the ledger reads, at one instant.
#[derive(Clone, Debug)]
pub struct Snapshot {
    stats: WorkerStats,
    switch_txns: u64,
    switch_passes: u64,
    switch_recirc: u64,
    switch_multicasts: u64,
    net_to_switch: u64,
    net_to_nodes: u64,
    lock_acq: u64,
    lock_wait_ns: u64,
    wal_records: u64,
    exec_cpu: Duration,
    switch_cpu: Duration,
    driver_cpu: Duration,
}

impl Snapshot {
    /// Reads every counter. Call from the driver thread.
    pub fn take(cluster: &Cluster, gen: &LoadGen) -> Result<Snapshot, String> {
        let switch = cluster.switch_stats();
        let (net_to_switch, net_to_nodes, _) = cluster.shared().latency.stats().snapshot();
        let nodes = &cluster.shared().nodes;
        let threads = procfs::threads_cpu()?;
        Ok(Snapshot {
            stats: gen.stats(),
            switch_txns: switch.txns_executed,
            switch_passes: switch.passes,
            switch_recirc: switch.recirc_waiting + switch.recirc_owner,
            switch_multicasts: switch.multicasts,
            net_to_switch,
            net_to_nodes,
            lock_acq: nodes.iter().map(|n| n.locks().acquisition_count()).sum(),
            lock_wait_ns: nodes.iter().map(|n| n.locks().wait_stats().total_wait_ns).sum(),
            wal_records: nodes.iter().map(|n| n.wal().len() as u64).sum(),
            // Thread names are cut to 15 bytes by the kernel.
            exec_cpu: procfs::cpu_of(&threads, "p4db-exec-"),
            switch_cpu: procfs::cpu_of(&threads, "p4db-switch"),
            driver_cpu: procfs::thread_cpu()?,
        })
    }

    /// Commit classes and switch use between `earlier` and `self`.
    pub fn route_since(&self, earlier: &Snapshot) -> Route {
        let (s, e) = (&self.stats, &earlier.stats);
        Route {
            commits: s.committed_total() - e.committed_total(),
            hot: s.committed_hot - e.committed_hot,
            cold: s.committed_cold - e.committed_cold,
            warm: s.committed_warm - e.committed_warm,
            snapshot: s.snapshot_reads - e.snapshot_reads,
            switch_txns: self.switch_txns - earlier.switch_txns,
        }
    }
}

/// Per-run measurements the ledger reports beside the window's counters.
#[derive(Copy, Clone, Debug)]
pub struct Extras {
    /// `core.hop_us` from the window-1 phase.
    pub hop_us: f64,
    /// Time of `Workload::load_node` into fresh storage, all nodes.
    pub load_s: f64,
    /// Time of `LayoutPlanner::plan` over the workload's layout traces.
    pub plan_s: f64,
    pub untraced_tput: f64,
    pub traced_tput: f64,
}

/// One line of the ledger.
#[derive(Copy, Clone, Debug)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The ledger of the traced window between `before` and `after`.
pub fn ledger(before: &Snapshot, after: &Snapshot, tracer: &Tracer, extras: &Extras) -> Vec<LayerMetric> {
    let (s, e) = (&after.stats, &before.stats);
    let commits = (s.committed_total() - e.committed_total()).max(1) as f64;
    let per_commit = |count: u64| count as f64 / commits;
    let us_per_commit = |ns: u64| ns as f64 / 1e3 / commits;
    let cpu_us = |a: Duration, b: Duration| us_per_commit(a.saturating_sub(b).as_nanos() as u64);
    let phase = |p: Phase| {
        let i = PHASES.iter().position(|&q| q == p).expect("every phase is listed");
        s.phase_ns[i] - e.phase_ns[i]
    };
    let switch_txns = after.switch_txns - before.switch_txns;
    let per_switch_txn = |count: u64| if switch_txns == 0 { 0.0 } else { count as f64 / switch_txns as f64 };
    let aborts = s.aborts_total() - e.aborts_total();
    let line = |name, unit, value| LayerMetric { name, unit, value };
    vec![
        line("core.hop_us", "us", extras.hop_us),
        line("core.unattributed_us", "us", (tracer.reply_ns as f64 - tracer.exec_ns as f64) / 1e3 / commits),
        line("core.submit_us", "us", us_per_commit(tracer.submit_ns)),
        line("core.exec_cpu_us", "us", cpu_us(after.exec_cpu, before.exec_cpu)),
        line("txn.attempts_per_commit", "ratio", 1.0 + per_commit(aborts)),
        line(
            "txn.abort.lock_conflict",
            "count/txn",
            per_commit(s.aborts_lock_conflict + s.aborts_wait_die - e.aborts_lock_conflict - e.aborts_wait_die),
        ),
        line("txn.abort.constraint", "count/txn", per_commit(s.aborts_constraint - e.aborts_constraint)),
        line("txn.abort.remote_vote", "count/txn", per_commit(s.aborts_remote_vote - e.aborts_remote_vote)),
        line("txn.abort.other", "count/txn", per_commit(s.aborts_other - e.aborts_other)),
        line("txn.retry_rounds", "count/txn", per_commit(s.retry_rounds - e.retry_rounds)),
        line("txn.frac.hot", "ratio", per_commit(s.committed_hot - e.committed_hot)),
        line("txn.frac.cold", "ratio", per_commit(s.committed_cold - e.committed_cold)),
        line("txn.frac.warm", "ratio", per_commit(s.committed_warm - e.committed_warm)),
        line("txn.frac.snapshot", "ratio", per_commit(s.snapshot_reads - e.snapshot_reads)),
        line("txn.remote_us", "us", us_per_commit(phase(Phase::RemoteAccess))),
        line("txn.engine_us", "us", us_per_commit(phase(Phase::TxnEngine))),
        line("storage.lock_us", "us", us_per_commit(phase(Phase::LockAcquisition))),
        line("storage.local_us", "us", us_per_commit(phase(Phase::LocalAccess))),
        line("storage.lock_acq", "count/txn", per_commit(after.lock_acq - before.lock_acq)),
        line("storage.lock_wait_us", "us", us_per_commit(after.lock_wait_ns - before.lock_wait_ns)),
        line("storage.wal_records", "count/txn", per_commit(after.wal_records - before.wal_records)),
        line("storage.load_s", "s", extras.load_s),
        line("switch.round_trip_us", "us", us_per_commit(phase(Phase::SwitchTxn))),
        line("switch.cpu_us", "us", cpu_us(after.switch_cpu, before.switch_cpu)),
        line("switch.txns", "count/txn", per_commit(switch_txns)),
        line("switch.passes_per_txn", "ratio", per_switch_txn(after.switch_passes - before.switch_passes)),
        line("switch.recirc_per_txn", "ratio", per_switch_txn(after.switch_recirc - before.switch_recirc)),
        line("switch.multicasts", "count/txn", per_commit(after.switch_multicasts - before.switch_multicasts)),
        line("net.to_switch", "msg/txn", per_commit(after.net_to_switch - before.net_to_switch)),
        line("net.to_nodes", "msg/txn", per_commit(after.net_to_nodes - before.net_to_nodes)),
        line("layout.plan_s", "s", extras.plan_s),
        line("workloads.generate_us", "us", us_per_commit(tracer.generate_ns)),
        line("driver.cpu_us", "us", cpu_us(after.driver_cpu, before.driver_cpu)),
        line("trace.overhead", "ratio", (extras.untraced_tput - extras.traced_tput) / extras.untraced_tput),
    ]
}
