//! The closed-loop load generator: one driver thread holds one [`Session`]
//! per node and keeps a fixed number of transactions in flight per node,
//! waiting on the oldest one of each node in turn and replacing it with a
//! freshly generated request.
//!
//! Every request is timed from just before `Session::submit_request` until
//! `Session::wait` returns, so time queued in the submission pool counts.
//! A measured phase is cut into sub-windows; each sub-window keeps its
//! exact latency samples, its commits and the process CPU it used.

use crate::procfs::{self, HostTicks};
use crate::trace::{SpanKind, Tracer};
use p4db_common::hash::mix64;
use p4db_common::rand_util::FastRng;
use p4db_common::stats::WorkerStats;
use p4db_common::{AbortReason, Error, NodeId, Result as DbResult, WorkerId};
use p4db_core::{Cluster, Pending, Session, DEFAULT_MAX_ATTEMPTS};
use p4db_txn::{OpKind, TxnOutcome, TxnRequest, Worker};
use p4db_workloads::{Workload, WorkloadCtx};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transactions kept in flight per coordinator node: enough to fill the
/// hot path's 16-deep batches.
pub const IN_FLIGHT_PER_NODE: usize = 16;

/// Committed, rejected and failed requests. Every request the driver
/// thread submitted ends in exactly one of the three.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcomes {
    pub committed: u64,
    /// Business-rule aborts (`ConstraintViolation`): a correct outcome.
    pub rejected: u64,
    /// Any other error, such as an exhausted retry budget on lock conflicts.
    pub failed: u64,
}

impl Outcomes {
    pub fn attempted(&self) -> u64 {
        self.committed + self.rejected + self.failed
    }

    /// Files one reply. A request the engine refuses as malformed is a
    /// generator bug and ends the run, as `Cluster::run_for` does.
    fn record(&mut self, result: &DbResult<TxnOutcome>) -> Result<bool, String> {
        match result {
            Ok(_) => {
                self.committed += 1;
                return Ok(true);
            }
            Err(Error::Abort(AbortReason::ConstraintViolation)) => self.rejected += 1,
            Err(e @ (Error::InvalidTxn(_) | Error::UnknownNode(_))) => {
                return Err(format!("workload generator produced an invalid transaction: {e}"))
            }
            Err(_) => self.failed += 1,
        }
        Ok(false)
    }
}

/// One sub-window of a measured phase.
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub wall: Duration,
    pub cpu: Duration,
    pub commits: u64,
    /// Share of the machine's CPU stolen by the hypervisor meanwhile.
    pub steal: f64,
    /// Submit-to-reply latency of every commit, in nanoseconds.
    pub latencies_ns: Vec<u64>,
}

struct InFlight {
    pending: Pending,
    submitted: Instant,
    /// The request's root span when tracing.
    span: Option<usize>,
}

pub struct LoadGen {
    workload: Arc<dyn Workload>,
    sessions: Vec<Session>,
    ctxs: Vec<WorkloadCtx>,
    rngs: Vec<FastRng>,
    in_flight: Vec<VecDeque<InFlight>>,
    pub outcomes: Outcomes,
    /// Set for the traced phase only.
    pub tracer: Option<Tracer>,
}

impl LoadGen {
    /// Opens one session per node. Each node's generator gets its own RNG
    /// stream derived from `seed`.
    pub fn new(cluster: &Cluster, workload: Arc<dyn Workload>, distributed_prob: f64, seed: u64) -> DbResult<Self> {
        let nodes = cluster.config().num_nodes;
        let sessions = (0..nodes).map(|n| cluster.session(NodeId(n))).collect::<DbResult<Vec<_>>>()?;
        Ok(LoadGen {
            workload,
            sessions,
            ctxs: (0..nodes).map(|n| WorkloadCtx::new(nodes, NodeId(n), distributed_prob)).collect(),
            rngs: (0..nodes as u64).map(|n| FastRng::new(mix64(mix64(seed) ^ n))).collect(),
            in_flight: (0..nodes).map(|_| VecDeque::with_capacity(IN_FLIGHT_PER_NODE)).collect(),
            outcomes: Outcomes::default(),
            tracer: None,
        })
    }

    /// Engine statistics of everything waited on so far, summed over nodes.
    pub fn stats(&self) -> WorkerStats {
        let mut total = WorkerStats::new();
        for session in &self.sessions {
            total.merge(session.stats());
        }
        total
    }

    /// The next request of `node`'s generator; all-read requests are marked
    /// read-only so they take the snapshot path.
    fn generate(&mut self, node: usize) -> TxnRequest {
        let req = self.workload.generate(&self.ctxs[node], &mut self.rngs[node]);
        if req.ops.iter().all(|op| op.kind == OpKind::Read) {
            req.into_read_only()
        } else {
            req
        }
    }

    fn submit(&mut self, node: usize) -> Result<(), String> {
        let started = Instant::now();
        let req = self.generate(node);
        let root = self.tracer.as_mut().map(|t| {
            let root = t.open(started);
            t.span(root, SpanKind::Generate, started, Instant::now(), 0);
            root
        });
        let submitted = Instant::now();
        let pending = self.sessions[node].submit_request(&req).map_err(|e| format!("submit failed: {e}"))?;
        if let (Some(t), Some(root)) = (self.tracer.as_mut(), root) {
            t.span(root, SpanKind::Submit, submitted, Instant::now(), 0);
        }
        self.in_flight[node].push_back(InFlight { pending, submitted, span: root });
        Ok(())
    }

    /// Waits for `node`'s oldest request. Returns when the reply arrived and
    /// the commit's latency, if it committed.
    fn complete(&mut self, node: usize) -> Result<(Instant, Option<u64>), String> {
        let f = self.in_flight[node].pop_front().expect("a request is in flight on every node");
        let session = &mut self.sessions[node];
        let phases_before: u64 = session.stats().phase_ns.iter().sum();
        let wait_started = Instant::now();
        let result = session.wait(f.pending);
        let done = Instant::now();
        let latency_ns = (done - f.submitted).as_nanos() as u64;
        if let (Some(t), Some(root)) = (self.tracer.as_mut(), f.span) {
            // The executor phases this reply carried (the batched hot path
            // charges a whole batch's phases to its first reply).
            let exec_ns = session.stats().phase_ns.iter().sum::<u64>() - phases_before;
            t.span(root, SpanKind::Wait, wait_started, done, exec_ns);
            t.close(root, f.submitted, done);
        }
        let committed = self.outcomes.record(&result)?;
        Ok((done, committed.then_some(latency_ns)))
    }

    /// Drives the closed loop for about `duration`, cut into `windows`
    /// sub-windows of at least `duration / windows` each. Requests still in
    /// flight at the end stay in flight for the next phase (see
    /// [`LoadGen::drain`]).
    pub fn run_phase(&mut self, duration: Duration, windows: usize) -> Result<Vec<Window>, String> {
        let windows = windows.max(1);
        let sub = duration / windows as u32;
        for node in 0..self.sessions.len() {
            while self.in_flight[node].len() < IN_FLIGHT_PER_NODE {
                self.submit(node)?;
            }
        }
        let start = Instant::now();
        let mut out = Vec::with_capacity(windows);
        let mut current = Window::default();
        let mut window_start = start;
        let mut boundary = start + sub;
        let mut cpu_start = procfs::process_cpu()?;
        let mut host_start = HostTicks::read()?;
        loop {
            for node in 0..self.sessions.len() {
                let (done, latency) = self.complete(node)?;
                if let Some(ns) = latency {
                    current.commits += 1;
                    current.latencies_ns.push(ns);
                }
                self.submit(node)?;
                // Every sub-window lasts at least `sub`, so a stall that
                // outlasts one boundary cannot leave a near-empty window.
                if done >= boundary {
                    let cpu = procfs::process_cpu()?;
                    let host = HostTicks::read()?;
                    let now = Instant::now();
                    current.wall = now - window_start;
                    current.cpu = cpu.saturating_sub(cpu_start);
                    current.steal = host.steal_share_since(&host_start);
                    out.push(std::mem::take(&mut current));
                    if out.len() == windows {
                        return Ok(out);
                    }
                    window_start = now;
                    boundary = now + sub;
                    cpu_start = cpu;
                    host_start = host;
                }
            }
        }
    }

    /// Waits for every request still in flight.
    pub fn drain(&mut self) -> Result<(), String> {
        for node in 0..self.sessions.len() {
            while !self.in_flight[node].is_empty() {
                self.complete(node)?;
            }
        }
        Ok(())
    }

    /// The submission pool's hand-off cost: one request at a time, the mean
    /// time to commit through `Session::execute_request` minus the mean
    /// time through `Worker::execute` called directly on the driver thread
    /// (same engine, same retry budget, no pool). The two arms alternate
    /// request by request and node by node. Returns microseconds.
    pub fn measure_hop(&mut self, cluster: &Cluster, pairs: usize) -> Result<f64, String> {
        self.drain()?;
        let nodes = self.sessions.len();
        // Worker ids from the top of the id space, far from the pool's.
        let mut workers: Vec<Worker> = (0..nodes)
            .map(|n| Worker::new(Arc::clone(cluster.shared()), NodeId(n as u16), WorkerId(u16::MAX - n as u16)))
            .collect();
        let mut scratch = WorkerStats::new();
        let (mut pooled, mut direct) = ((Duration::ZERO, 0u32), (Duration::ZERO, 0u32));
        for i in 0..2 * pairs {
            let node = i % nodes;
            let via_pool = (i / nodes).is_multiple_of(2);
            let req = self.generate(node);
            let started = Instant::now();
            let result = if via_pool {
                self.sessions[node].execute_request(&req)
            } else {
                let mut attempts = 0;
                loop {
                    attempts += 1;
                    match workers[node].execute(&req, &mut scratch) {
                        Err(e) if e.is_abort() && attempts < DEFAULT_MAX_ATTEMPTS => continue,
                        result => break result,
                    }
                }
            };
            let elapsed = started.elapsed();
            if self.outcomes.record(&result)? {
                let arm = if via_pool { &mut pooled } else { &mut direct };
                arm.0 += elapsed;
                arm.1 += 1;
            }
        }
        if pooled.1 == 0 || direct.1 == 0 {
            return Err("hop phase committed nothing on one arm".into());
        }
        let mean_us = |(total, n): (Duration, u32)| total.as_secs_f64() * 1e6 / n as f64;
        Ok(mean_us(pooled) - mean_us(direct))
    }
}
