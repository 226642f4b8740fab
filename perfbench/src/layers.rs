//! Per-layer metrics, read from outside every layer: the benchmark's own
//! timings of its calls, the counters and histograms each crate publishes
//! in the deployment's `MetricsRegistry`, `RecoveryReport`, and the
//! `TraceLog` of traced passes folded with `Profile::from_events`.
//!
//! Counters are summed over every pass's window and divided by the
//! window's measured operations (or commits), so a ratio does not depend
//! on how many passes fit in a run.

use std::collections::BTreeMap;
use std::sync::Arc;

use vedb_sim::{LatencyRecorder, MetricsRegistry, Profile};

use crate::stats::{median, percentile, ratio, Metrics};
use crate::workload::{OpKind, Pass};

/// Spans whose self time the traced run reports, as `component/op`.
pub const TRACED_SPANS: [&str; 11] = [
    "core/commit",
    "wal/flush",
    "astore/append",
    "rdma/write_chain",
    "rdma/rpc",
    "rdma/read",
    "pagestore/read_page",
    "pagestore/apply",
    "pagestore/checkpoint",
    "pagestore/ship",
    "lock/wait",
];

/// Virtual latencies, in ns, of the successful operations of kinds matching
/// `pick`.
pub fn latencies(passes: &[Pass], pick: impl Fn(OpKind) -> bool) -> Vec<u64> {
    passes
        .iter()
        .flat_map(|p| &p.samples)
        .filter(|s| s.ok && pick(s.kind))
        .map(|s| s.lat_ns)
        .collect()
}

/// Exact percentile, in µs, of the samples of kinds matching `pick`.
fn kind_us(passes: &[Pass], pick: impl Fn(OpKind) -> bool, p: f64) -> f64 {
    percentile(&latencies(passes, pick), p) as f64 / 1e3
}

/// Every per-layer metric except the traced ones (see [`traced`]); host
/// times are multiplied by `host_scale`.
pub fn per_layer(passes: &[Pass], host_scale: f64) -> Metrics {
    let pooled = MetricsRegistry::new();
    for p in passes {
        p.layers.drain_into(&pooled);
    }
    let c = pooled.counter_values();
    let h: BTreeMap<String, Arc<LatencyRecorder>> = pooled.latency_handles().into_iter().collect();
    let cnt = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    // Sum of `<prefix>*<suffix>` counters, e.g. every `astore-N.pmem.busy_ns`.
    let sum = |prefix: &str, suffix: &str| -> f64 {
        c.iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    let hist_us = |k: &str, p: f64| h.get(k).map_or(0.0, |r| r.percentile(p).as_micros_f64());
    // Merged histogram of every `<prefix>*<suffix>` recorder.
    let merged_us = |prefix: &str, suffix: &str, p: f64| {
        let m = LatencyRecorder::new();
        for (k, r) in &h {
            if k.starts_with(prefix) && k.ends_with(suffix) {
                m.merge(r);
            }
        }
        m.percentile(p).as_micros_f64()
    };

    let windows = passes.len() as f64;
    let ops = passes.iter().map(|p| p.samples.len()).sum::<usize>() as f64;
    let queries: Vec<_> = passes
        .iter()
        .flat_map(|p| &p.samples)
        .filter(|s| matches!(s.kind, OpKind::Query(_)))
        .collect();
    let nq = queries.len() as f64;
    let commits = cnt("core.txn_commits");
    let per_op = |v: f64| ratio(v, ops);
    let per_commit = |v: f64| ratio(v, commits);
    let us_per_op = |ns: f64| ratio(ns, ops) / 1e3;

    let mut m = Metrics::default();
    // The benchmark's own timing of every operation: order statistics
    // with their sample count.
    m.put(
        "bench.op_samples",
        latencies(passes, |_| true).len() as f64,
        "count",
    );
    m.put("bench.op_p50_us", kind_us(passes, |_| true, 50.0), "us");
    m.put("bench.op_p99_us", kind_us(passes, |_| true, 99.0), "us");
    // core: commit and WAL.
    m.put("core.commit_us_p50", hist_us("core.txn_commit", 50.0), "us");
    m.put("core.commit_us_p99", hist_us("core.txn_commit", 99.0), "us");
    m.put(
        "core.wal_flush_us_p50",
        hist_us("core.wal_flush", 50.0),
        "us",
    );
    m.put(
        "core.wal_flushes_per_commit",
        per_commit(cnt("core.wal_flushes")),
        "count/commit",
    );
    m.put(
        "core.wal_bytes_per_commit",
        per_commit(cnt("core.wal_bytes_flushed")),
        "B/commit",
    );
    // core: buffer pool and EBP.
    let (bp_hits, bp_misses) = (cnt("core.bp_hits"), cnt("core.bp_misses"));
    m.put(
        "core.bp_hit_ratio",
        ratio(bp_hits, bp_hits + bp_misses),
        "ratio",
    );
    m.put("core.bp_misses_per_op", per_op(bp_misses), "count/op");
    let (ebp_hits, ebp_misses) = (cnt("core.ebp_hits"), cnt("core.ebp_misses"));
    m.put(
        "core.ebp_hit_ratio",
        ratio(ebp_hits, ebp_hits + ebp_misses),
        "ratio",
    );
    m.put(
        "core.ebp_writes_per_op",
        per_op(cnt("core.ebp_writes")),
        "count/op",
    );
    m.put(
        "core.ebp_compactions",
        ratio(cnt("core.ebp_compactions"), windows),
        "count/window",
    );
    // core: engine CPU and locks.
    m.put(
        "engine.cpu.busy_us_per_op",
        us_per_op(cnt("engine.cpu.busy_ns")),
        "us/op",
    );
    m.put(
        "core.lock_waits_per_op",
        per_op(cnt("core.lock_waits")),
        "count/op",
    );
    // workloads, timed by the benchmark.
    for (name, kind) in [
        ("tpcc.new_order", OpKind::NewOrder),
        ("tpcc.payment", OpKind::Payment),
        ("lookup.pk", OpKind::PkLookup),
        ("lookup.index", OpKind::IndexLookup),
    ] {
        m.put(
            format!("{name}_us_p50"),
            kind_us(passes, |k| k == kind, 50.0),
            "us",
        );
        m.put(
            format!("{name}_us_p99"),
            kind_us(passes, |k| k == kind, 99.0),
            "us",
        );
    }
    // astore.
    m.put("astore.append_us_p50", hist_us("astore.append", 50.0), "us");
    m.put("astore.append_us_p99", hist_us("astore.append", 99.0), "us");
    m.put(
        "astore.appends_per_commit",
        per_commit(cnt("astore.appends")),
        "count/commit",
    );
    m.put("astore.read_us_p50", hist_us("astore.read", 50.0), "us");
    // rdma.
    m.put(
        "rdma.write_chain_us_p50",
        hist_us("rdma.write_chain", 50.0),
        "us",
    );
    m.put("rdma.read_us_p50", hist_us("rdma.read", 50.0), "us");
    m.put("rdma.rpc_per_op", per_op(cnt("rdma.rpc_calls")), "count/op");
    m.put(
        "rdma.doorbells_per_commit",
        per_commit(cnt("rdma.doorbells")),
        "count/commit",
    );
    let rdma_bytes = cnt("rdma.chain_bytes") + cnt("rdma.read_bytes") + cnt("rdma.write_bytes");
    m.put("rdma.bytes_per_op", per_op(rdma_bytes), "B/op");
    m.put(
        "engine.nic.wait_us_p99",
        hist_us("engine.nic.wait", 99.0),
        "us",
    );
    // pmem.
    m.put(
        "pmem.flushes_per_commit",
        per_commit(cnt("pmem.flushes")),
        "count/commit",
    );
    m.put(
        "pmem.bytes_persisted_per_wal_byte",
        ratio(cnt("pmem.bytes_persisted"), cnt("core.wal_bytes_flushed")),
        "B/B",
    );
    m.put(
        "astore.pmem.wait_us_p99",
        merged_us("astore-", ".pmem.wait", 99.0),
        "us",
    );
    m.put(
        "astore.pmem.busy_us_per_op",
        us_per_op(sum("astore-", ".pmem.busy_ns")),
        "us/op",
    );
    // pagestore.
    m.put(
        "pagestore.read_page_us_p99",
        hist_us("pagestore.read_page", 99.0),
        "us",
    );
    m.put(
        "pagestore.page_reads_per_op",
        per_op(cnt("pagestore.page_reads")),
        "count/op",
    );
    let lag: Vec<f64> = passes.iter().map(|p| p.apply_lag as f64).collect();
    m.put("pagestore.apply_lag_records", median(&lag), "count");
    m.put(
        "pagestore.records_applied_per_commit",
        per_commit(cnt("pagestore.records_applied")),
        "count/commit",
    );
    m.put(
        "pagestore.checkpoints",
        ratio(cnt("pagestore.checkpoints"), windows),
        "count/window",
    );
    m.put(
        "storage.apply.busy_us_per_op",
        us_per_op(sum("storage-", ".apply.busy_ns")),
        "us/op",
    );
    m.put(
        "storage.ssd.busy_us_per_op",
        us_per_op(sum("storage-", ".ssd.busy_ns")),
        "us/op",
    );
    // query: executor and push-down.
    for q in 1..=22 {
        let lat: Vec<f64> = queries
            .iter()
            .filter(|s| s.ok && s.kind == OpKind::Query(q))
            .map(|s| s.lat_ns as f64 / 1e6)
            .collect();
        m.put(format!("ch.q{q:02}_ms"), median(&lat), "ms");
    }
    let rows: f64 = queries.iter().map(|s| s.rows as f64).sum();
    m.put(
        "query.rows_returned_per_query",
        ratio(rows, nq),
        "rows/query",
    );
    // Push-down tasks run where the pages are: PageStore nodes, or AStore
    // nodes for pages the EBP holds.
    let storage_cpu = sum("storage-", ".cpu.busy_ns") + sum("astore-", ".cpu.busy_ns");
    m.put(
        "storage.cpu.busy_us_per_query",
        ratio(storage_cpu, nq) / 1e3,
        "us/query",
    );
    m.put(
        "engine.cpu.busy_us_per_query",
        ratio(cnt("engine.cpu.busy_ns"), nq) / 1e3,
        "us/query",
    );
    // recovery.
    let med = |f: &dyn Fn(&Pass) -> usize| {
        median(&passes.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
    };
    m.put(
        "recovery.records_scanned",
        med(&|p| p.recovery.records_scanned),
        "count",
    );
    m.put(
        "recovery.ebp_pages_recovered",
        med(&|p| p.recovery.ebp_pages_recovered),
        "count",
    );
    m.put(
        "recovery.committed_txns",
        med(&|p| p.recovery.committed),
        "count",
    );
    // sim: the simulator's own cost. Every modelled device counts its
    // operations as `<resource>.ops`.
    let events = sum("", ".ops");
    m.put("sim.events_per_op", per_op(events), "events/op");
    let host_ns: f64 = passes.iter().map(|p| p.measure_s * 1e9).sum();
    m.put(
        "sim.host_ns_per_event",
        ratio(host_ns, events) * host_scale,
        "ns/event",
    );
    m
}

/// Self time per measured operation of each [`TRACED_SPANS`] span, and the
/// abandoned and orphan spans per window, over the traced passes.
///
/// Self time is summed over every trace lane: the client's own, and the
/// forked lanes of replica fan-out, redo shipping, apply and checkpoints.
/// An abandoned span (dropped on an error path) has no duration, so its
/// children become orphans whose time is also in an ancestor's self time.
pub fn traced(passes: &[Pass]) -> Metrics {
    let mut self_ns: BTreeMap<String, u64> = BTreeMap::new();
    let (mut abandoned, mut orphans) = (0, 0);
    for p in passes {
        let profile = Profile::from_events(&p.spans);
        abandoned += profile.abandoned;
        orphans += profile.orphans;
        for (k, v) in profile.ops {
            *self_ns.entry(k).or_default() += v.self_ns;
        }
    }
    let ops = passes.iter().map(|p| p.samples.len()).sum::<usize>() as f64;
    let mut m = Metrics::default();
    for span in TRACED_SPANS {
        let ns = self_ns.get(span).copied().unwrap_or(0) as f64;
        m.put(
            format!("trace.{}.self_us_per_op", span.replace('/', "-")),
            ratio(ns, ops) / 1e3,
            "us/op",
        );
    }
    let windows = passes.len() as f64;
    m.put(
        "trace.abandoned_spans",
        ratio(abandoned as f64, windows),
        "count/window",
    );
    m.put(
        "trace.orphan_spans",
        ratio(orphans as f64, windows),
        "count/window",
    );
    m
}
