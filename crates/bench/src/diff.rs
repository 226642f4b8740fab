//! Perf-regression diffing of two `BENCH_<figure>.json` reports.
//!
//! The reports are read with [`RunReport::from_json`], the inverse of the
//! writer, so this module never sees raw JSON. [`diff`] compares a
//! committed baseline with a freshly generated report: throughput and
//! committed-op latency percentiles against fixed relative budgets, key
//! counters and commit-phase shares as information, and optional gates on
//! resource utilization drift and on counters of the new report. The
//! `report_diff` binary wires this into CI: exit 1 when a gated metric
//! regressed beyond its threshold.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use vedb_sim::RunReport;

// The repository benchmark's self-test reads its result lines through
// this path.
pub use vedb_sim::json::{parse_json, Json};

/// Max tolerated throughput drop, as a fraction of the baseline.
pub const MAX_TPUT_DROP: f64 = 0.10;
/// Max tolerated committed-op p50 latency rise, as a fraction.
pub const MAX_P50_RISE: f64 = 0.20;
/// Max tolerated committed-op p99 latency rise, as a fraction.
pub const MAX_P99_RISE: f64 = 0.20;

/// The gates a caller can set on top of the fixed throughput and latency
/// budgets.
#[derive(Debug, Clone, Default)]
pub struct Thresholds {
    /// Max tolerated steady-state resource-utilization drift, percentage
    /// points (either direction — a device suddenly idling flags a broken
    /// path as surely as one saturating); `None` reports without gating.
    pub max_util_drift_pp: Option<f64>,
    /// Absolute gates on the *new* report: each `(num, den, limit)` asserts
    /// `counters[num] / counters[den] < limit`. Used for invariants that
    /// hold regardless of the baseline — e.g. the group-commit gate
    /// `core.wal_flushes / core.txn_commits < 0.5`. A missing or zero
    /// denominator fails the gate (the invariant is unverifiable).
    pub counter_ratio_lt: Vec<(String, String, f64)>,
    /// Absolute gates on the *new* report: each `(a, b)` asserts
    /// `counters[a] < counters[b]` — e.g. `rdma.doorbells < rdma.wrs`
    /// proves multi-WR chains actually share doorbells.
    pub counter_lt: Vec<(String, String)>,
}

/// Outcome of one diff: the rendered table plus the regressions found.
#[derive(Debug)]
pub struct DiffOutcome {
    /// Human-readable comparison table.
    pub table: String,
    /// One line per gated metric that exceeded its threshold.
    pub regressions: Vec<String>,
}

impl DiffOutcome {
    /// Whether any gated metric regressed.
    pub fn regressed(&self) -> bool {
        !self.regressions.is_empty()
    }
}

fn rel_delta(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new - base) / base
    }
}

fn fmt_delta(d: f64) -> String {
    if d.is_infinite() {
        "new".to_string()
    } else {
        format!("{:+.1}%", d * 100.0)
    }
}

/// Commit-phase share of total commit time, percent, keyed by phase.
/// Empty when the run was not traced.
fn phase_share_pct(r: &RunReport) -> BTreeMap<&str, f64> {
    let phases = &r.profile.commit_phases;
    let total: u64 = phases.values().map(|p| p.total_ns).sum();
    phases
        .iter()
        .filter(|_| total > 0)
        .map(|(k, p)| (k.as_str(), p.total_ns as f64 * 100.0 / total as f64))
        .collect()
}

/// Steady-state utilization per resource, percent.
fn util_pct(r: &RunReport) -> BTreeMap<&str, f64> {
    r.resources
        .iter()
        .map(|(k, res)| (k.as_str(), res.steady_util_x100 as f64 / 100.0))
        .collect()
}

/// Compare `new` against `base`: the fixed throughput and latency budgets
/// plus the gates in `th`.
pub fn diff(base: &RunReport, new: &RunReport, th: &Thresholds) -> DiffOutcome {
    let mut table = String::new();
    let mut regressions = Vec::new();
    let _ = writeln!(
        table,
        "report_diff: {} (baseline) vs {} (new)",
        base.name, new.name
    );
    let _ = writeln!(
        table,
        "{:<28} {:>14} {:>14} {:>9}  gate",
        "metric", "baseline", "new", "delta"
    );

    // `gate` is `(limit, worse_when_up)`: latency-style metrics regress on
    // a rise. Ungated rows print `note` in the gate column.
    let mut row = |name: &str, b: f64, n: f64, gate: Option<(f64, bool)>, note: &str| {
        let d = rel_delta(b, n);
        let regressed = gate.is_some_and(|(limit, worse_when_up)| {
            let bad = if worse_when_up { d } else { -d };
            bad > limit
        });
        let verdict = match gate {
            None => note,
            Some(_) if regressed => "REGRESSED",
            Some(_) => "ok",
        };
        let _ = writeln!(
            table,
            "{:<28} {:>14.1} {:>14.1} {:>9}  {}",
            name,
            b,
            n,
            fmt_delta(d),
            verdict
        );
        if let Some((limit, _)) = gate.filter(|_| regressed) {
            regressions.push(format!(
                "{name}: {b:.1} -> {n:.1} ({}) exceeds threshold {:.0}%",
                fmt_delta(d),
                limit * 100.0
            ));
        }
    };

    // A sweep report has no trial window, so its throughput and latency
    // are zeros, not measurements: gate them only against a baseline that
    // measured a window. A new report that lost its window then shows as a
    // 100% throughput drop.
    for (name, b, n, limit, worse_when_up) in [
        (
            "throughput_per_s",
            base.throughput(),
            new.throughput(),
            MAX_TPUT_DROP,
            false,
        ),
        (
            "latency.p50_ns",
            base.latency.p50_ns as f64,
            new.latency.p50_ns as f64,
            MAX_P50_RISE,
            true,
        ),
        (
            "latency.p99_ns",
            base.latency.p99_ns as f64,
            new.latency.p99_ns as f64,
            MAX_P99_RISE,
            true,
        ),
    ] {
        let gate = (base.window_ns > 0).then_some((limit, worse_when_up));
        row(name, b, n, gate, "n/a (no trial window)");
    }

    // Key counters: informational (the virtual-time smoke run is seeded, so
    // any drift here is a behaviour change worth seeing, not gating).
    for key in [
        "core.txn_commits",
        "core.txn_aborts",
        "astore.appends",
        "pagestore.records_applied",
        "rdma.chain_writes",
    ] {
        let (b, n) = (base.counter(key), new.counter(key));
        if b != 0 || n != 0 {
            row(key, b as f64, n as f64, None, "");
        }
    }

    // Commit-phase shares (informational) and resource utilization (gated
    // when asked): drift in percentage points, over the union of keys.
    for (prefix, b, n, limit) in [
        ("phase", phase_share_pct(base), phase_share_pct(new), None),
        ("util", util_pct(base), util_pct(new), th.max_util_drift_pp),
    ] {
        let mut keys: Vec<&str> = b.keys().chain(n.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            let bv = b.get(key).copied().unwrap_or(0.0);
            let nv = n.get(key).copied().unwrap_or(0.0);
            let drift = nv - bv;
            let regressed = limit.is_some_and(|l| drift.abs() > l);
            let _ = writeln!(
                table,
                "{:<28} {:>13.2}% {:>13.2}% {:>+8.2}pp  {}",
                format!("{prefix}.{key}"),
                bv,
                nv,
                drift,
                match limit {
                    None => "",
                    Some(_) if regressed => "REGRESSED",
                    Some(_) => "ok",
                }
            );
            if let Some(l) = limit.filter(|_| regressed) {
                regressions.push(format!(
                    "{prefix}.{key}: {bv:.2}% -> {nv:.2}% drifts {drift:+.2}pp beyond {l:.1}pp"
                ));
            }
        }
    }

    // Absolute counter gates, evaluated against the new report only.
    for (num, den, limit) in &th.counter_ratio_lt {
        let n = new.counter(num) as f64;
        let d = new.counter(den) as f64;
        let (shown, ok) = if d > 0.0 {
            (n / d, n / d < *limit)
        } else {
            (f64::NAN, false)
        };
        let _ = writeln!(
            table,
            "{:<28} {:>14} {:>14.3} {:>9}  {}",
            format!("assert {num}/{den}"),
            format!("< {limit}"),
            shown,
            "",
            if ok { "ok" } else { "REGRESSED" }
        );
        if !ok {
            regressions.push(if d > 0.0 {
                format!("{num}/{den}: {n:.0}/{d:.0} = {shown:.3} not below {limit}")
            } else {
                format!("{num}/{den}: denominator `{den}` missing or zero")
            });
        }
    }
    for (a, b) in &th.counter_lt {
        let (av, bv) = (new.counter(a), new.counter(b));
        let ok = av < bv;
        let _ = writeln!(
            table,
            "{:<28} {:>14} {:>14} {:>9}  {}",
            format!("assert {a} < {b}"),
            av,
            bv,
            "",
            if ok { "ok" } else { "REGRESSED" }
        );
        if !ok {
            regressions.push(format!("{a} ({av}) not below {b} ({bv})"));
        }
    }

    DiffOutcome { table, regressions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vedb_sim::{MetricsRegistry, PhaseStat, ResourceSummary, TrialResult, VTime};

    /// A one-second trial of `committed` ops with the given latency
    /// percentiles, commit-phase split and `astore-0.pmem` utilization.
    fn report(committed: u64, p50: u64, p99: u64, flush_ns: u64, util_x100: u64) -> RunReport {
        let mut trial = TrialResult::new(VTime::from_secs(1));
        trial.committed = committed;
        let mut r = RunReport::collect("unit", Some(&trial), &MetricsRegistry::new());
        r.latency.p50_ns = p50;
        r.latency.p99_ns = p99;
        r.counters = [("core.commits", 100), ("astore.appends", 40)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        for (phase, total_ns) in [("wal/flush", flush_ns), ("self", 100 - flush_ns)] {
            r.profile
                .commit_phases
                .insert(phase.into(), PhaseStat { count: 1, total_ns });
        }
        let pmem = ResourceSummary {
            lanes: 4,
            ops: 40,
            busy_ns: 400,
            steady_util_x100: util_x100,
            wait: r.latency.clone(),
            service: r.latency.clone(),
        };
        r.resources.insert("astore-0.pmem".into(), pmem);
        r
    }

    fn base() -> RunReport {
        report(5000, 20, 80, 40, 4217)
    }

    /// A sweep report: counters only, no trial window.
    fn no_trial() -> RunReport {
        let mut r = base();
        r.committed = 0;
        r.window_ns = 0;
        r.latency.p50_ns = 0;
        r.latency.p99_ns = 0;
        r
    }

    #[test]
    fn identical_reports_pass() {
        let out = diff(&base(), &base(), &Thresholds::default());
        assert!(!out.regressed(), "{}", out.table);
    }

    #[test]
    fn throughput_drop_beyond_budget_regresses() {
        let new = report(4000, 20, 80, 40, 4217); // -20% < -10% budget
        let out = diff(&base(), &new, &Thresholds::default());
        assert!(out.regressed());
        assert!(out.regressions[0].contains("throughput_per_s"));
        // A drop within budget passes.
        let ok = report(4600, 20, 80, 40, 4217); // -8%
        assert!(!diff(&base(), &ok, &Thresholds::default()).regressed());
    }

    #[test]
    fn p99_rise_beyond_budget_regresses() {
        let new = report(5000, 20, 120, 40, 4217); // +50% > +20% budget
        let out = diff(&base(), &new, &Thresholds::default());
        assert!(out.regressed());
        assert!(out.regressions.iter().any(|r| r.contains("p99_ns")));
        // Throughput *gains* never regress.
        let faster = report(9000, 10, 40, 40, 4217);
        assert!(!diff(&base(), &faster, &Thresholds::default()).regressed());
    }

    #[test]
    fn phase_shares_are_recomputed_and_informational() {
        let new = report(5000, 20, 80, 80, 4217); // flush 40% -> 80%
        let out = diff(&base(), &new, &Thresholds::default());
        assert!(!out.regressed(), "{}", out.table);
        assert!(out.table.contains("phase.wal/flush"));
        assert!(out.table.contains("+40.00pp"), "{}", out.table);
    }

    #[test]
    fn util_drift_gates_only_when_asked() {
        let new = report(5000, 20, 80, 40, 5717); // +15pp
        assert!(!diff(&base(), &new, &Thresholds::default()).regressed());
        let strict = Thresholds {
            max_util_drift_pp: Some(5.0),
            ..Thresholds::default()
        };
        let out = diff(&base(), &new, &strict);
        assert!(out.regressed());
        assert!(out
            .regressions
            .iter()
            .any(|r| r.contains("util.astore-0.pmem")));
        // The gate is symmetric: a device going idle drifts just as far.
        let idle = report(5000, 20, 80, 40, 2717); // -15pp
        assert!(diff(&base(), &idle, &strict).regressed());
        // Within budget passes.
        let near = report(5000, 20, 80, 40, 4517); // +3pp
        assert!(!diff(&base(), &near, &strict).regressed());
    }

    #[test]
    fn counter_ratio_gate_checks_new_report_only() {
        // Fixture counters: core.commits = 100, astore.appends = 40.
        let s = base();
        let pass = Thresholds {
            counter_ratio_lt: vec![("astore.appends".into(), "core.commits".into(), 0.5)],
            ..Thresholds::default()
        };
        assert!(!diff(&s, &s, &pass).regressed());
        let fail = Thresholds {
            counter_ratio_lt: vec![("astore.appends".into(), "core.commits".into(), 0.3)],
            ..Thresholds::default()
        };
        let out = diff(&s, &s, &fail);
        assert!(out.regressed());
        assert!(out.regressions[0].contains("not below 0.3"), "{out:?}");
        // A missing denominator is a failure, not a silent pass.
        let missing = Thresholds {
            counter_ratio_lt: vec![("astore.appends".into(), "no.such".into(), 0.5)],
            ..Thresholds::default()
        };
        let out = diff(&s, &s, &missing);
        assert!(out.regressed());
        assert!(out.regressions[0].contains("missing or zero"));
    }

    #[test]
    fn counter_lt_gate_checks_new_report_only() {
        let s = base();
        let pass = Thresholds {
            counter_lt: vec![("astore.appends".into(), "core.commits".into())],
            ..Thresholds::default()
        };
        assert!(!diff(&s, &s, &pass).regressed());
        let fail = Thresholds {
            counter_lt: vec![("core.commits".into(), "astore.appends".into())],
            ..Thresholds::default()
        };
        let out = diff(&s, &s, &fail);
        assert!(out.regressed());
        assert!(out.regressions[0].contains("not below"));
    }

    #[test]
    fn reports_without_trial_windows_print_not_applicable() {
        let out = diff(&no_trial(), &no_trial(), &Thresholds::default());
        assert!(!out.regressed(), "{}", out.table);
        for metric in ["throughput_per_s", "latency.p50_ns", "latency.p99_ns"] {
            let line = out.table.lines().find(|l| l.starts_with(metric)).unwrap();
            assert!(line.ends_with("  n/a (no trial window)"), "{line}");
        }
        assert!(!out.table.contains("  ok"), "{}", out.table);
    }

    #[test]
    fn losing_the_trial_window_regresses() {
        let out = diff(&base(), &no_trial(), &Thresholds::default());
        assert!(out.regressed(), "{}", out.table);
        assert!(out.regressions[0].contains("throughput_per_s"));
    }
}
