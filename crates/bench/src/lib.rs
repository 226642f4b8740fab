//! Shared harness utilities for the per-figure benchmarks.
//!
//! Every bench target builds one or more deployments ([`Deployment`]),
//! loads a workload, runs client sweeps with the virtual-time driver, and
//! prints a paper-style table next to the paper's reference numbers so the
//! *shape* comparison (who wins, by what factor, where the crossover sits)
//! is immediate. EXPERIMENTS.md records the outputs.

pub mod diff;

use std::path::PathBuf;
use std::sync::Arc;

use vedb_core::db::{Db, DbConfig, StorageFabric};
use vedb_pagestore::ApplyConfig;
use vedb_sim::{ClusterSpec, MetricsRegistry, RunReport, SimCtx, TrialResult, VTime};
use vedb_workloads::driver::{run_trial, DriverConfig, OpOutcome};

/// One deployed engine + its private storage fabric (one "cluster" per
/// configuration, as in the paper's side-by-side deployments).
pub struct Deployment {
    /// The storage cluster.
    pub fabric: StorageFabric,
    /// The engine.
    pub db: Arc<Db>,
    /// Load-phase context; its final clock is the earliest valid trial
    /// start.
    pub ctx: SimCtx,
    /// Virtual-time skew bound handed to the trial driver
    /// ([`vedb_workloads::driver::DEFAULT_SYNC_WINDOW`] by default).
    /// Benches that measure a saturated device at the median narrow it to
    /// a few operation-latencies so clients cannot bank cheap operations
    /// ahead of the queue they created.
    pub sync_window: VTime,
}

impl Deployment {
    /// Build a fabric (96 MB AStore per server, 1 MB slots) and open an
    /// engine with `cfg`.
    pub fn open(cfg: DbConfig) -> Deployment {
        Self::open_with(cfg, ClusterSpec::paper_default(), 192 << 20, 1 << 20)
    }

    /// Build with explicit cluster/capacity parameters.
    pub fn open_with(
        cfg: DbConfig,
        spec: ClusterSpec,
        astore_capacity: usize,
        slot_bytes: u64,
    ) -> Deployment {
        Self::open_with_apply(
            cfg,
            spec,
            astore_capacity,
            slot_bytes,
            ApplyConfig::default(),
        )
    }

    /// [`open_with`](Self::open_with) plus an explicit PageStore
    /// apply-pipeline configuration (worker count, checkpoint cadence) —
    /// the knob `fig_recovery` sweeps.
    pub fn open_with_apply(
        cfg: DbConfig,
        spec: ClusterSpec,
        astore_capacity: usize,
        slot_bytes: u64,
        apply: ApplyConfig,
    ) -> Deployment {
        let fabric = StorageFabric::build_with_apply(spec, astore_capacity, slot_bytes, apply);
        let mut ctx = SimCtx::new(0, 0xBEEF);
        let db = Db::open(&mut ctx, &fabric, cfg).expect("open engine");
        Deployment {
            fabric,
            db,
            ctx,
            sync_window: vedb_workloads::driver::DEFAULT_SYNC_WINDOW,
        }
    }

    /// Run one trial starting at the current timeline position, then
    /// advance the timeline.
    pub fn trial(
        &mut self,
        clients: usize,
        warmup: VTime,
        measure: VTime,
        op: impl Fn(&mut SimCtx, usize) -> OpOutcome + Sync,
    ) -> TrialResult {
        let cfg = DriverConfig {
            clients,
            warmup,
            measure,
            seed: 7,
            start: self.ctx.now(),
            sync_window: self.sync_window,
        };
        let r = run_trial(&cfg, op);
        self.ctx.wait_until(cfg.start + warmup + measure);
        r
    }

    /// The deployment-wide metrics registry (shared by every subsystem of
    /// this cluster).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.fabric.env.metrics
    }

    /// Freeze the registry (and optionally a trial) into a [`RunReport`]
    /// named `name`.
    pub fn report(&self, name: &str, trial: Option<&TrialResult>) -> RunReport {
        RunReport::collect(name, trial, self.metrics())
    }
}

/// Directory `BENCH_<name>.json` artifacts are written to: the
/// `VEDB_BENCH_DIR` environment variable when set, otherwise the workspace
/// root (bench binaries run from arbitrary cwds under `cargo bench`).
pub fn bench_report_dir() -> PathBuf {
    match std::env::var_os("VEDB_BENCH_DIR") {
        Some(d) => PathBuf::from(d),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
    }
}

/// Write `report` as `BENCH_<name>.json` into [`bench_report_dir`];
/// returns the path written. Errors are returned, not panicked, so a
/// read-only checkout degrades to console-only output.
pub fn write_bench_report(report: &RunReport) -> std::io::Result<PathBuf> {
    let path = bench_report_dir().join(format!("BENCH_{}.json", report.name));
    std::fs::write(&path, report.to_json())?;
    println!("  wrote {}", path.display());
    Ok(path)
}

/// Render an aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:>w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("  {s}");
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Format a throughput.
pub fn fmt_tps(v: f64) -> String {
    if v >= 10_000.0 {
        format!("{:.1}k", v / 1000.0)
    } else {
        format!("{v:.0}")
    }
}

/// Format a virtual time as milliseconds.
pub fn fmt_ms(t: VTime) -> String {
    format!("{:.2}", t.as_millis_f64())
}

/// Standard client sweep used by the throughput figures.
pub fn client_sweep() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
}

/// A header that states what the paper reported, so the printed table can
/// be eyeballed against it.
pub fn paper_note(note: &str) {
    println!("  paper: {note}");
}
