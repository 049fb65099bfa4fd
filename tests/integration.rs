//! Cross-crate integration tests: full clusters (nodes + switch + engine +
//! workloads) exercised end to end in the zero-latency test profile.

use p4db::common::stats::TxnClass;
use p4db::common::{AbortReason, CcScheme, Error, NodeId, SystemMode, TupleId};
use p4db::core::{Cluster, ClusterConfig};
use p4db::storage::recover_switch_state;
use p4db::workloads::smallbank::{CHECKING, INITIAL_BALANCE, SAVINGS};
use p4db::workloads::{SmallBank, SmallBankConfig, Tpcc, TpccConfig, Workload, Ycsb, YcsbConfig, YcsbMix};
use p4db::Txn;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn ycsb() -> Arc<dyn Workload> {
    Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 2_000, ..YcsbConfig::new(YcsbMix::A) }))
}

fn smallbank() -> Arc<dyn Workload> {
    Arc::new(SmallBank::new(SmallBankConfig { customers_per_node: 2_000, ..SmallBankConfig::default() }))
}

fn tpcc() -> Arc<dyn Workload> {
    Arc::new(Tpcc::new(TpccConfig { items_loaded: 500, ..TpccConfig::new(4) }))
}

#[test]
fn all_workloads_commit_in_all_modes() {
    for workload in [ycsb(), smallbank(), tpcc()] {
        for mode in [SystemMode::NoSwitch, SystemMode::LmSwitch, SystemMode::P4db] {
            let cluster = Cluster::build(ClusterConfig::test_profile(mode, CcScheme::NoWait), Arc::clone(&workload));
            let stats = cluster.run_for(Duration::from_millis(200));
            // The test machine may have a single core shared by all
            // concurrently running test clusters, so the bar is deliberately
            // low: the system must make progress in every mode.
            assert!(
                stats.merged.committed_total() > 10,
                "{} in {:?} committed only {}",
                cluster.workload_name(),
                mode,
                stats.merged.committed_total()
            );
        }
    }
}

#[test]
fn p4db_executes_hot_transactions_on_the_switch_and_keeps_hosts_consistent() {
    // Use the full-size (Tofino-like) switch geometry so the declustered
    // layout has the pipeline depth the paper assumes; latencies stay zero.
    let mut config = ClusterConfig::test_profile(SystemMode::P4db, CcScheme::NoWait);
    config.switch = p4db::switch::SwitchConfig::tofino_defaults();
    let cluster = Cluster::build(config, ycsb());
    let stats = cluster.run_for(Duration::from_millis(200));
    assert!(stats.merged.committed_hot > 0, "hot transactions must run on the switch");
    let sw = cluster.switch_stats();
    assert!(sw.txns_executed >= stats.merged.committed_hot);
    assert!(sw.single_pass_fraction() > 0.5, "most YCSB hot transactions should be single-pass");
}

#[test]
fn wait_die_also_makes_progress_under_contention() {
    let cluster = Cluster::build(ClusterConfig::test_profile(SystemMode::NoSwitch, CcScheme::WaitDie), ycsb());
    let stats = cluster.run_for(Duration::from_millis(200));
    assert!(stats.merged.committed_total() > 50);
}

#[test]
fn tpcc_produces_warm_transactions_in_p4db_mode() {
    let cluster = Cluster::build(ClusterConfig::test_profile(SystemMode::P4db, CcScheme::NoWait), tpcc());
    let stats = cluster.run_for(Duration::from_millis(300));
    assert!(stats.merged.committed_warm > 0, "TPC-C must produce warm transactions");
    assert!(cluster.switch_stats().multicasts > 0 || stats.merged.committed_warm > 0);
}

#[test]
fn tpcc_money_is_conserved_between_customers_and_ytd_counters() {
    // Every Payment adds `amount` to warehouse + district YTD and subtracts
    // it from a customer balance; NewOrder does not touch balances. So the
    // total warehouse YTD must equal the total amount deducted from
    // customers, whichever path (switch or host) executed the update.
    use p4db::workloads::tpcc::{keys, CUSTOMER, CUSTOMERS_PER_DISTRICT, DISTRICTS_PER_WAREHOUSE, WAREHOUSE};
    let workload = tpcc();
    let cluster =
        Cluster::build(ClusterConfig::test_profile(SystemMode::P4db, CcScheme::NoWait), Arc::clone(&workload));
    let _ = cluster.run_for(Duration::from_millis(300));

    let mut ytd_total: i128 = 0;
    for w in 0..4u64 {
        let tuple = TupleId::new(WAREHOUSE, keys::warehouse(w));
        // Hot tuples live on the switch in P4DB mode.
        ytd_total += cluster.switch_value(tuple).unwrap_or(0) as i64 as i128;
    }
    let mut customer_delta: i128 = 0;
    for node in cluster.shared().nodes.iter() {
        let table = node.table(CUSTOMER).unwrap();
        table.for_each(|_, row| {
            let balance = row.read().switch_word() as i64 as i128;
            customer_delta += 1_000 - balance; // initial balance is 1 000
        });
    }
    // Each warehouse's initial YTD is 0 and every Payment moves the same
    // amount into YTD (warehouse) as it removes from a customer.
    assert_eq!(ytd_total, customer_delta, "warehouse YTD must equal total customer deductions");
    let _ = (DISTRICTS_PER_WAREHOUSE, CUSTOMERS_PER_DISTRICT);
}

#[test]
fn switch_state_recovers_from_node_logs_after_a_crash() {
    let cluster = Cluster::build(ClusterConfig::test_profile(SystemMode::P4db, CcScheme::NoWait), smallbank());
    let _ = cluster.run_for(Duration::from_millis(200));

    let live: HashMap<TupleId, u64> =
        cluster.shared().hot_index.load().iter().map(|(t, _)| (t, cluster.switch_value(t).unwrap())).collect();

    let initial = cluster.offload_snapshot();
    let logs: Vec<&p4db::storage::Wal> = cluster.shared().nodes.iter().map(|n| n.wal()).collect();
    let outcome = recover_switch_state(initial, &logs);
    assert_eq!(outcome.inconsistencies, 0);
    for (tuple, value) in live {
        let recovered = outcome.values.get(&tuple).copied().unwrap_or(initial[&tuple]);
        assert_eq!(recovered, value, "recovered value of {tuple} diverges");
    }
}

#[test]
fn lm_switch_keeps_data_on_the_hosts() {
    let cluster = Cluster::build(ClusterConfig::test_profile(SystemMode::LmSwitch, CcScheme::NoWait), ycsb());
    let stats = cluster.run_for(Duration::from_millis(150));
    assert!(stats.merged.committed_total() > 0);
    assert_eq!(cluster.switch_stats().txns_executed, 0, "LM-Switch must not execute data-plane transactions");
    assert!(cluster.switch_stats().lm_requests > 0, "LM-Switch must process lock requests");
}

/// SmallBank customer ids for the session tests: customers_per_node = 2 000,
/// hot customers 0..5 per node; savings/checking of hot customers live on the
/// switch in P4DB mode.
fn smallbank_cluster() -> Cluster {
    Cluster::builder(smallbank()).test_profile().mode(SystemMode::P4db).cc(CcScheme::NoWait).build()
}

#[test]
fn operand_from_forwards_results_on_the_host_path_through_a_session() {
    let cluster = smallbank_cluster();
    let mut session = cluster.session(NodeId(0)).unwrap();

    // Amalgamate over two *cold* customers on different nodes: drain c1's
    // savings and credit the read amount to c2's checking — entirely on the
    // host path, distributed, with the operand forwarded from operation 0.
    let (c1, c2) = (100u64, 2_100u64);
    let txn = Txn::new()
        .read(TupleId::new(SAVINGS, c1))
        .write(TupleId::new(SAVINGS, c1), 0)
        .add(TupleId::new(CHECKING, c2), 0)
        .operand_from(0);
    let outcome = session.execute(&txn).unwrap();
    assert_eq!(outcome.class, TxnClass::Cold);
    // Per-op results in operation order: the read value, the written value,
    // the credited balance.
    assert_eq!(outcome.results, vec![INITIAL_BALANCE, 0, 2 * INITIAL_BALANCE]);
    let node1 = &cluster.shared().nodes[1];
    assert_eq!(node1.table(CHECKING).unwrap().read(c2).unwrap().switch_word(), 2 * INITIAL_BALANCE);
    assert_eq!(cluster.shared().nodes[0].table(SAVINGS).unwrap().read(c1).unwrap().switch_word(), 0);
}

#[test]
fn operand_from_forwards_results_on_the_switch_path_through_a_session() {
    let cluster = smallbank_cluster();
    let mut session = cluster.session(NodeId(0)).unwrap();

    // The same amalgamate over two *hot* customers: all three operations are
    // offloaded, so the dependency is resolved inside the switch pipeline.
    let (c1, c2) = (1u64, 2u64);
    let txn = Txn::new()
        .read(TupleId::new(SAVINGS, c1))
        .write(TupleId::new(SAVINGS, c1), 0)
        .add(TupleId::new(CHECKING, c2), 0)
        .operand_from(0);
    let outcome = session.execute(&txn).unwrap();
    assert_eq!(outcome.class, TxnClass::Hot);
    assert!(outcome.gid.is_some());
    assert_eq!(outcome.results, vec![INITIAL_BALANCE, 0, 2 * INITIAL_BALANCE]);
    assert_eq!(cluster.switch_value(TupleId::new(SAVINGS, c1)), Some(0));
    assert_eq!(cluster.switch_value(TupleId::new(CHECKING, c2)), Some(2 * INITIAL_BALANCE));
}

#[test]
fn lm_switch_commits_an_amalgamate_over_hot_customers_in_one_attempt() {
    let cluster = Cluster::builder(smallbank()).test_profile().mode(SystemMode::LmSwitch).cc(CcScheme::NoWait).build();
    let mut session = cluster.session(NodeId(0)).unwrap();
    session.set_max_attempts(1); // nothing else runs: the first attempt must commit

    // Reads, then zeroes, one hot savings account: the switch lock manager
    // must be asked once, for an exclusive lock, not shared-then-exclusive.
    let (c1, c2) = (1u64, 2u64);
    let txn = Txn::new()
        .read(TupleId::new(SAVINGS, c1))
        .write(TupleId::new(SAVINGS, c1), 0)
        .add(TupleId::new(CHECKING, c2), 0)
        .operand_from(0);
    let outcome = session.execute(&txn).unwrap();
    assert_eq!(outcome.results, vec![INITIAL_BALANCE, 0, 2 * INITIAL_BALANCE]);
    assert_eq!(cluster.shared().nodes[0].table(SAVINGS).unwrap().read(c1).unwrap().switch_word(), 0);
    assert_eq!(cluster.switch_stats().lm_requests, 2, "one lock request per distinct hot tuple");
}

#[test]
fn cond_sub_aborts_on_the_host_but_is_a_constrained_no_apply_on_the_switch() {
    let cluster = smallbank_cluster();
    let mut session = cluster.session(NodeId(0)).unwrap();
    session.set_max_attempts(1); // a constraint violation is deterministic — don't retry

    // Host path: overdrawing a cold account aborts the transaction.
    let cold = TupleId::new(CHECKING, 200);
    let err = session.execute(&Txn::new().cond_sub(cold, INITIAL_BALANCE + 1)).unwrap_err();
    assert_eq!(err.abort_reason(), Some(AbortReason::ConstraintViolation));
    assert_eq!(cluster.shared().nodes[0].table(CHECKING).unwrap().read(200).unwrap().switch_word(), INITIAL_BALANCE);

    // Switch path: the same overdraft on a hot account commits as a
    // constrained write that simply does not apply (§5.1 — the switch never
    // aborts).
    let hot = TupleId::new(CHECKING, 3);
    let outcome = session.execute(&Txn::new().cond_sub(hot, INITIAL_BALANCE + 1)).unwrap();
    assert_eq!(outcome.class, TxnClass::Hot);
    assert_eq!(outcome.results, vec![INITIAL_BALANCE], "the balance is reported unchanged");
    assert_eq!(cluster.switch_value(hot), Some(INITIAL_BALANCE));

    // The session's merged statistics saw exactly one constraint abort.
    assert_eq!(session.stats().aborts_constraint, 1);
    assert_eq!(session.stats().committed_total(), 1);
}

#[test]
fn warm_transactions_keep_per_op_results_in_operation_order() {
    let cluster = smallbank_cluster();
    let mut session = cluster.session(NodeId(0)).unwrap();

    // hot / cold / hot interleaving: results must come back in op order even
    // though the engine executes the cold part first and scatters the switch
    // results afterwards.
    let txn =
        Txn::new().read(TupleId::new(CHECKING, 4)).add(TupleId::new(SAVINGS, 300), 5).read(TupleId::new(SAVINGS, 4));
    let outcome = session.execute(&txn).unwrap();
    assert_eq!(outcome.class, TxnClass::Warm);
    assert_eq!(outcome.results, vec![INITIAL_BALANCE, INITIAL_BALANCE + 5, INITIAL_BALANCE]);
}

#[test]
fn sessions_reject_cross_temperature_operand_dependencies() {
    let cluster = smallbank_cluster();
    let mut session = cluster.session(NodeId(0)).unwrap();
    // Operand produced on the host, consumed on the switch: structured error,
    // not an executor panic.
    let txn = Txn::new().read(TupleId::new(SAVINGS, 100)).add(TupleId::new(CHECKING, 1), 0).operand_from(0);
    assert!(matches!(session.execute(&txn), Err(Error::InvalidTxn(_))));
}

#[test]
fn capacity_overflow_degrades_gracefully() {
    // Hot set larger than the switch: the prefix is offloaded, the rest runs
    // on the host, and the system still commits.
    let workload: Arc<dyn Workload> = Arc::new(Ycsb::new(YcsbConfig {
        keys_per_node: 4_000,
        hot_keys_per_node: 1_000,
        ..YcsbConfig::new(YcsbMix::A)
    }));
    let mut config = ClusterConfig::test_profile(SystemMode::P4db, CcScheme::NoWait);
    config.switch = p4db::switch::SwitchConfig::tiny(); // 512 cells total
    let cluster = Cluster::build(config, workload);
    assert!(cluster.offloaded_tuples() > 0);
    assert!(cluster.offloaded_tuples() < cluster.hot_set_size());
    let stats = cluster.run_for(Duration::from_millis(200));
    assert!(stats.merged.committed_total() > 10);
    // With only part of the hot set on the switch, transactions over the hot
    // keys become warm (or hot if all their keys happen to be offloaded) —
    // the switch is still involved, throughput degrades gracefully.
    assert!(stats.merged.committed_hot + stats.merged.committed_warm > 0);
    assert!(stats.merged.committed_cold + stats.merged.committed_warm > 0);
}
