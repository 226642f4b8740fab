//! The benchmark's own test: a tiny-scale run of every workload prints
//! exactly the metrics `BENCHMARK.json` names, each with its unit, passes
//! its correctness checks, and reads no metric as zero on a workload where
//! that metric's layer does work (a gate comparing zero with zero checks
//! nothing).
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

use vedb_bench::diff::{parse_json, Json};

/// `(name, unit)` of every metric a `BENCHMARK.json` section lists.
fn declared(doc: &Json, section: &str) -> BTreeMap<String, String> {
    let Some(Json::Arr(items)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Metrics that may read zero on `workload` because their layer does no
/// work there.
fn may_be_zero(workload: &str, metric: &str) -> bool {
    // One client never waits for a lock or a device queue, and abandoned
    // or orphan spans would mean a broken trace.
    const NEVER_SEEN: [&str; 6] = [
        "core.lock_waits_per_op",
        "trace.lock-wait.self_us_per_op",
        "astore.pmem.wait_us_p99",
        "engine.nic.wait_us_p99",
        "trace.abandoned_spans",
        "trace.orphan_spans",
    ];
    // Nothing commits in a read-only workload: no log, no redo to ship,
    // apply or checkpoint, and clean evictions write nothing to the EBP.
    const WRITE_PATH: [&str; 23] = [
        "core.commit_us_p50",
        "core.commit_us_p99",
        "core.wal_flush_us_p50",
        "core.wal_flushes_per_commit",
        "core.wal_bytes_per_commit",
        "core.ebp_writes_per_op",
        "core.ebp_compactions",
        "astore.append_us_p50",
        "astore.append_us_p99",
        "astore.appends_per_commit",
        "rdma.write_chain_us_p50",
        "rdma.doorbells_per_commit",
        "pmem.flushes_per_commit",
        "pmem.bytes_persisted_per_wal_byte",
        "pagestore.records_applied_per_commit",
        "pagestore.checkpoints",
        "storage.apply.busy_us_per_op",
        "trace.core-commit.self_us_per_op",
        "trace.wal-flush.self_us_per_op",
        "trace.astore-append.self_us_per_op",
        "trace.rdma-write_chain.self_us_per_op",
        "trace.pagestore-apply.self_us_per_op",
        "trace.pagestore-checkpoint.self_us_per_op",
    ];
    // The warm EBP holds every page a read-only workload misses on, so
    // PageStore serves no page reads and its SSDs stay idle.
    const PAGESTORE_READS: [&str; 5] = [
        "pagestore.read_page_us_p99",
        "pagestore.page_reads_per_op",
        "storage.ssd.busy_us_per_op",
        "trace.pagestore-read_page.self_us_per_op",
        "trace.pagestore-ship.self_us_per_op",
    ];
    // Lookups use one-sided reads only, and recovery after a read-only
    // window has no log records to replay.
    const LOOKUP_ONLY: [&str; 4] = [
        "rdma.rpc_per_op",
        "trace.rdma-rpc.self_us_per_op",
        "recovery.records_scanned",
        "recovery.committed_txns",
    ];
    let queries =
        metric.starts_with("ch.") || metric.starts_with("query.") || metric.ends_with("_per_query");
    NEVER_SEEN.contains(&metric)
        || match workload {
            "tpcc_ebp" => metric.starts_with("lookup.") || queries,
            "lookup_ebp" => {
                metric.starts_with("tpcc.")
                    || queries
                    || WRITE_PATH.contains(&metric)
                    || PAGESTORE_READS.contains(&metric)
                    || LOOKUP_ONLY.contains(&metric)
            }
            "ch_pushdown" => {
                metric.starts_with("tpcc.")
                    || metric.starts_with("lookup.")
                    || WRITE_PATH.contains(&metric)
                    || PAGESTORE_READS.contains(&metric)
            }
            _ => panic!("unknown workload {workload}"),
        }
}

/// Run the benchmark binary and parse its last output line.
fn run(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_vedb-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse_json(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse_json(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        panic!("BENCHMARK.json has no workloads list");
    };
    let mut zeros = Vec::new();
    for w in workloads {
        let w = w.get("name").and_then(Json::as_str).expect("workload name");
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let want = declared(&doc, section);
            let result = run(w, trace);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
                    >= 1.0
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{w}"
            );
            let got = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object");
            let names: Vec<_> = got.keys().collect();
            assert_eq!(names, want.keys().collect::<Vec<_>>(), "{w} {section}");
            for (name, m) in got {
                let unit = m.get("unit").and_then(Json::as_str);
                assert_eq!(unit, Some(want[name].as_str()), "{w} {name} unit");
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{w} {name} = {value}");
                if value == 0.0 && (trace == 0 || !may_be_zero(w, name)) {
                    zeros.push(format!("{w} {name}"));
                }
            }
        }
    }
    assert!(
        zeros.is_empty(),
        "zero where the layer does work: {zeros:#?}"
    );
}
