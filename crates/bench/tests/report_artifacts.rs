//! The committed `BENCH_*.json` artifacts and the tools that read them.
//!
//! `RunReport::from_json` must be the exact inverse of `to_json` on every
//! committed report, and `report_flame` must render an artifact exactly as
//! the live run rendered the in-memory report.

use std::path::{Path, PathBuf};
use std::process::Command;

use vedb_sim::{MetricsRegistry, Resource, RunReport, SimCtx, TrialResult, VTime};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn committed_reports() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(workspace_root())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    paths.sort();
    paths
}

/// Run `report_flame` with `args` and return its stdout.
fn report_flame(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_report_flame"))
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "report_flame {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn committed_reports_round_trip_byte_for_byte() {
    let paths = committed_reports();
    assert!(paths.len() >= 3, "found only {paths:?}");
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap();
        let report =
            RunReport::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            report.to_json() == text,
            "{} does not re-serialise byte-identical",
            path.display()
        );
    }
}

#[test]
fn report_flame_renders_what_the_live_run_printed() {
    let reg = MetricsRegistry::new();
    let cpu = Resource::with_metrics("engine.cpu", 2, &reg);
    cpu.acquire(VTime::ZERO, VTime::from_micros(30));
    let locks = reg.lock_contention();
    locks.set_label(4, "district");
    locks.note_acquire(4);
    locks.note_wait(4, b"\x02\x07", VTime::from_micros(12));
    reg.trace().enable();
    let mut ctx = SimCtx::new(1, 9);
    let commit = reg.trace().span(&ctx, "core", "commit");
    let flush = reg.trace().span(&ctx, "wal", "flush");
    ctx.advance(VTime::from_micros(7));
    flush.finish(&ctx);
    ctx.advance(VTime::from_micros(2));
    commit.finish(&ctx);
    reg.trace()
        .instant(VTime::from_micros(5), "fault", "crash", 2);
    let mut trial = TrialResult::new(VTime::from_millis(4));
    trial.committed = 17;
    trial.latency.record(VTime::from_micros(9));
    let live = RunReport::collect("flame_unit", Some(&trial), &reg);

    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_flame_unit.json");
    std::fs::write(&path, live.to_json()).unwrap();
    let path = path.to_str().unwrap();
    assert_eq!(report_flame(&["--top", path]), live.top_summary());
    assert_eq!(report_flame(&[path]), live.folded_stacks());
}

#[test]
fn report_flame_reads_a_sweep_report() {
    let path = workspace_root().join("BENCH_group_commit.json");
    let report = RunReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let top = report_flame(&["--top", path.to_str().unwrap()]);
    assert_eq!(top, report.top_summary());
    assert!(
        top.starts_with("== vedb-top: group_commit (no trial window) ==\n"),
        "{top}"
    );
}
