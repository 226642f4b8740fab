//! Determinism regression: two fresh, identically-seeded single-client
//! simulation runs must produce **byte-identical** `RunReport` snapshots.
//!
//! This is the property the whole virtual-time methodology rests on — if
//! two same-seed runs diverge in any counter, latency bucket, or the JSON
//! encoding itself, figures stop being reproducible and CI artifact diffs
//! become noise. One client keeps the run single-threaded; multi-client
//! trials interleave on wall-clock thread scheduling and are exempt from
//! bit-level reproducibility.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use vedb_bench::Deployment;
use vedb_core::db::{Db, DbConfig, LogBackendKind};
use vedb_core::ebp::EbpConfig;
use vedb_core::query::exec::{execute, QuerySession};
use vedb_pagestore::ApplyConfig;
use vedb_sim::{ClusterSpec, RunReport, SimCtx, TrialResult, VTime};
use vedb_workloads::chbench;
use vedb_workloads::driver::OpOutcome;
use vedb_workloads::tpcc::{self, TpccScale};

const SCALE: TpccScale = TpccScale {
    warehouses: 2,
    districts: 2,
    customers: 20,
    items: 60,
    initial_orders: 5,
};

fn run_once(name: &str) -> RunReport {
    run_once_with(name, ApplyConfig::default())
}

fn run_once_with(name: &str, apply: ApplyConfig) -> RunReport {
    let cfg = DbConfig::builder()
        .bp_pages(512)
        .bp_shards(4)
        .log(LogBackendKind::AStore)
        .ring_segments(8)
        .build()
        .unwrap();
    let mut dep =
        Deployment::open_with_apply(cfg, ClusterSpec::paper_default(), 192 << 20, 1 << 20, apply);
    let r = traced_tpcc_trial(&mut dep, VTime::from_millis(50), |ctx, db| {
        tpcc::run_transaction(ctx, db, &SCALE)
    });
    dep.report(name, Some(&r))
}

/// Load TPC-C, then run a traced one-client trial of `op`, so determinism
/// also covers the profile section (span ids, phase sums, timeline
/// buckets).
fn traced_tpcc_trial(
    dep: &mut Deployment,
    measure: VTime,
    op: impl Fn(&mut SimCtx, &Arc<Db>) -> OpOutcome + Sync,
) -> TrialResult {
    dep.db.define_schema(tpcc::define_schema);
    dep.db.create_tables(&mut dep.ctx).unwrap();
    tpcc::load(&mut dep.ctx, &dep.db, &SCALE).unwrap();

    dep.metrics().trace().set_capacity(1 << 18);
    dep.metrics().trace().enable();

    let db = Arc::clone(&dep.db);
    dep.trial(1, VTime::from_millis(5), measure, |ctx, _| op(ctx, &db))
}

/// The EBP layers: a buffer pool far smaller than the tables spills
/// evictions into a small EBP that compacts, and every eighth operation is
/// a pushed-down CH-benCHmark scan whose tasks split across the AStore and
/// PageStore servers.
fn run_ebp_pushdown_once(name: &str) -> RunReport {
    let cfg = DbConfig::builder()
        .bp_pages(8)
        .bp_shards(4)
        .log(LogBackendKind::AStore)
        .ring_segments(8)
        .ebp(EbpConfig {
            capacity_bytes: 1 << 20,
            ..Default::default()
        })
        .build()
        .unwrap();
    let mut dep = Deployment::open_with(cfg, ClusterSpec::paper_default(), 192 << 20, 128 << 10);
    let ops = AtomicUsize::new(0);
    let r = traced_tpcc_trial(&mut dep, VTime::from_millis(400), |ctx, db| {
        let n = ops.fetch_add(1, Ordering::Relaxed);
        if n % 8 != 7 {
            return tpcc::run_transaction(ctx, db, &SCALE);
        }
        // CH Q1 and Q6 aggregate over order_line, a TPC-C table.
        let q = if n % 16 == 7 { 1 } else { 6 };
        let rows = execute(ctx, db, &QuerySession::with_pushdown(), &chbench::query(q)).unwrap();
        assert!(!rows.is_empty(), "Q{q} returned nothing");
        OpOutcome::Committed
    });
    dep.report(name, Some(&r))
}

fn assert_identical(a: &RunReport, b: &RunReport) {
    let ja = a.to_json();
    let jb = b.to_json();
    if ja != jb {
        // Byte-level mismatch: show the first differing line for triage.
        for (la, lb) in ja.lines().zip(jb.lines()) {
            if la != lb {
                panic!("reports diverge:\n  run A: {la}\n  run B: {lb}");
            }
        }
        panic!(
            "reports differ in length: {} vs {} bytes",
            ja.len(),
            jb.len()
        );
    }
}

#[test]
fn seeded_single_client_runs_are_byte_identical() {
    let a = run_once("det");
    let b = run_once("det");

    // Sanity: the run actually did work — an empty report being equal to
    // another empty report would prove nothing.
    assert!(a.throughput() > 0.0, "trial committed nothing");
    assert!(a.counter("core.txn_commits") > 0);
    assert!(a.counter("pmem.writes") > 0);
    assert!(a.counter("rdma.chain_writes") > 0);

    assert_identical(&a, &b);
}

/// Same property with the apply pipeline cranked: an 8-worker parallel
/// applier plus an aggressive background checkpointer must not introduce
/// any scheduling nondeterminism — the worker pool folds partitions onto
/// simulated lanes deterministically and the checkpointer runs on a forked
/// context, so counters, truncation totals and latency buckets must still
/// be byte-identical between same-seed runs.
#[test]
fn parallel_apply_and_checkpointer_runs_are_byte_identical() {
    let apply = ApplyConfig {
        workers: 8,
        checkpoint_every_records: 128,
    };
    let a = run_once_with("det-par", apply.clone());
    let b = run_once_with("det-par", apply);

    // Sanity: the knobs were live — the pool dispatched batches and the
    // checkpointer fired and truncated replayed log.
    assert!(a.counter("storage-0.apply.batches") > 0, "pool never ran");
    assert!(a.counter("pagestore.checkpoints") > 0, "checkpointer idle");
    assert!(
        a.counter("pagestore.log_truncated_records") > 0,
        "checkpoints must truncate replayed log"
    );

    assert_identical(&a, &b);
}

/// Same property with an EBP that compacts and pushed-down scans: which
/// segments compaction picks, the order it re-admits their live pages,
/// and the order push-down tasks are dispatched in must all follow the
/// seed, not hash-map iteration order. Hash-map order changes from one
/// map to the next, but a different order does not always show in the
/// report, so four runs are compared.
#[test]
fn ebp_compaction_and_pushdown_runs_are_byte_identical() {
    let a = run_ebp_pushdown_once("det-ebp");

    assert!(
        a.counter("core.ebp_writes") > 0,
        "nothing spilled to the EBP"
    );
    assert!(a.counter("core.ebp_compactions") > 0, "EBP never compacted");
    assert!(a.counter("core.ebp_hits") > 0, "EBP never served a page");
    let astore_rpcs: u64 = (0..3)
        .map(|i| a.counter(&format!("astore-{i}.cpu.ops")))
        .sum();
    assert!(astore_rpcs > 0, "no push-down task ran on an AStore server");

    for _ in 0..3 {
        assert_identical(&a, &run_ebp_pushdown_once("det-ebp"));
    }
}

#[test]
fn report_json_round_trips_expected_fields() {
    let rep = run_once("fields");
    // The codec owns the field names; a traced TPC-C run must survive it
    // whole, every section populated.
    let json = rep.to_json();
    assert_eq!(RunReport::from_json(&json).as_ref(), Ok(&rep));
    assert!(rep.throughput() > 0.0);
    assert!(rep.latency.p99_ns >= rep.latency.p50_ns);
    for key in [
        "core.txn_commits",
        "pmem.bytes_persisted",
        "rdma.chain_writes",
    ] {
        assert!(rep.counters.contains_key(key), "missing counter {key}");
    }
    assert!(rep.profile.commit_phases.contains_key("wal/flush"));
    assert!(rep.resources.contains_key("astore-0.pmem"));
    assert!(!rep.profile.locks.is_empty(), "no lock profile");
    assert!(!rep.resources.is_empty(), "no resources discovered");
    assert!(
        rep.resources.values().all(|r| r.wait.count == r.ops),
        "wait histogram must sample once per acquisition"
    );
    assert!(!rep.profile.folded.is_empty(), "no folded stacks");
    assert!(rep.profile.spans > 0, "trial ran with tracing off");
    let commit_total = rep.profile.ops["core/commit"].total_ns;
    let phase_sum: u64 = rep.profile.commit_phases.values().map(|p| p.total_ns).sum();
    assert!(
        commit_total.abs_diff(phase_sum) * 100 <= commit_total,
        "commit_phases sum {phase_sum} vs commit total {commit_total}"
    );
}
