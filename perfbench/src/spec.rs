//! The three benchmark workloads: their data, their cluster, the invariant
//! checks their output must pass, and the route each must keep exercising.

use p4db_chaos::SemanticChecks;
use p4db_common::{CcScheme, LatencyConfig, SystemMode};
use p4db_core::{Cluster, ClusterBuilder};
use p4db_workloads::smallbank::INITIAL_BALANCE;
use p4db_workloads::{SmallBank, SmallBankConfig, Tpcc, TpccConfig, Workload, Ycsb, YcsbConfig, YcsbMix};
use std::sync::Arc;

/// Database nodes of every workload's cluster.
pub const NODES: u16 = 2;

/// Probability that a generated transaction spans both nodes.
pub const DISTRIBUTED_PROB: f64 = 0.2;

const SMALLBANK_MAX_AMOUNT: u64 = 50;
const TPCC_WAREHOUSES: u64 = 4;
const TPCC_INITIAL_CUSTOMER_BALANCE: u64 = 1_000;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WorkloadKind {
    /// SmallBank, 100k customers and 5 hot customers per node, 90% hot.
    HotSmallbank,
    /// YCSB-B over 500k keys per node, no hot transactions.
    ReadMostlyYcsb,
    /// TPC-C NewOrder + Payment over 4 warehouses.
    WarmTpcc,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 3] =
        [WorkloadKind::HotSmallbank, WorkloadKind::ReadMostlyYcsb, WorkloadKind::WarmTpcc];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::HotSmallbank => "hot-smallbank",
            WorkloadKind::ReadMostlyYcsb => "read-mostly-ycsb",
            WorkloadKind::WarmTpcc => "warm-tpcc",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn workload(self) -> Arc<dyn Workload> {
        match self {
            WorkloadKind::HotSmallbank => Arc::new(SmallBank::new(SmallBankConfig {
                customers_per_node: 100_000,
                hot_customers_per_node: 5,
                hot_txn_prob: 0.9,
                max_amount: SMALLBANK_MAX_AMOUNT,
            })),
            WorkloadKind::ReadMostlyYcsb => Arc::new(Ycsb::new(YcsbConfig {
                keys_per_node: 500_000,
                hot_txn_prob: 0.0,
                ..YcsbConfig::new(YcsbMix::B)
            })),
            WorkloadKind::WarmTpcc => {
                Arc::new(Tpcc::new(TpccConfig { items_loaded: 5_000, ..TpccConfig::new(TPCC_WAREHOUSES) }))
            }
        }
    }

    /// The common set-up: a 2-node P4DB cluster with one executor per node
    /// and one switch, NO_WAIT, on the zero-latency profile; every other
    /// knob keeps its default.
    pub fn builder(self, seed: u64) -> ClusterBuilder {
        Cluster::builder(self.workload())
            .nodes(NODES)
            .workers(1)
            .switches(1)
            .mode(SystemMode::P4db)
            .cc(CcScheme::NoWait)
            .latency(LatencyConfig::zero())
            .distributed_prob(DISTRIBUTED_PROB)
            .seed(seed)
    }

    pub fn semantics(self) -> SemanticChecks {
        match self {
            WorkloadKind::HotSmallbank => {
                SemanticChecks::SmallBank { initial_balance: INITIAL_BALANCE, max_amount: SMALLBANK_MAX_AMOUNT }
            }
            WorkloadKind::ReadMostlyYcsb => SemanticChecks::None,
            WorkloadKind::WarmTpcc => SemanticChecks::Tpcc {
                warehouses: TPCC_WAREHOUSES,
                initial_customer_balance: TPCC_INITIAL_CUSTOMER_BALANCE,
            },
        }
    }

    /// Checks that a measured window still took the route this workload
    /// exists for, so a silently failed offload fails the run instead of
    /// reading as a regression or a gain.
    pub fn check_route(self, route: &Route) -> Result<(), String> {
        let commits = route.commits.max(1) as f64;
        let ok = match self {
            WorkloadKind::HotSmallbank => route.hot as f64 / commits >= 0.8 && route.switch_txns > 0,
            WorkloadKind::ReadMostlyYcsb => route.switch_txns == 0 && route.snapshot as f64 / commits >= 0.5,
            WorkloadKind::WarmTpcc => route.warm == route.commits,
        };
        let expected = match self {
            WorkloadKind::HotSmallbank => "at least 80% hot commits and some switch transactions",
            WorkloadKind::ReadMostlyYcsb => "no switch transactions and at least 50% snapshot reads",
            WorkloadKind::WarmTpcc => "every commit warm",
        };
        if ok && route.commits > 0 {
            Ok(())
        } else {
            Err(format!("{}: route assertion failed, expected {expected}; observed {route:?}", self.name()))
        }
    }
}

/// The commit classes and switch use of one measured window.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Route {
    pub commits: u64,
    pub hot: u64,
    pub cold: u64,
    pub warm: u64,
    pub snapshot: u64,
    pub switch_txns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(WorkloadKind::parse("hit"), None);
    }

    #[test]
    fn route_assertions_reject_a_silently_failed_offload() {
        let hot = Route { commits: 100, hot: 90, cold: 10, switch_txns: 90, ..Route::default() };
        assert!(WorkloadKind::HotSmallbank.check_route(&hot).is_ok());
        let host_only = Route { commits: 100, cold: 100, ..Route::default() };
        assert!(WorkloadKind::HotSmallbank.check_route(&host_only).is_err());
        let reads = Route { commits: 100, cold: 100, snapshot: 66, ..Route::default() };
        assert!(WorkloadKind::ReadMostlyYcsb.check_route(&reads).is_ok());
        assert!(WorkloadKind::ReadMostlyYcsb.check_route(&Route { switch_txns: 1, ..reads }).is_err());
        let warm = Route { commits: 100, warm: 100, switch_txns: 100, ..Route::default() };
        assert!(WorkloadKind::WarmTpcc.check_route(&warm).is_ok());
        assert!(WorkloadKind::WarmTpcc.check_route(&Route { warm: 99, cold: 1, ..warm }).is_err());
        assert!(WorkloadKind::WarmTpcc.check_route(&Route::default()).is_err());
    }
}
