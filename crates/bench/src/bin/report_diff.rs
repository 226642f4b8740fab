//! Perf-regression gate: compare two `BENCH_<figure>.json` reports.
//!
//! ```text
//! report_diff <baseline.json> <new.json> [options]
//!
//!   --max-util-drift <pp>       gate steady-state resource-utilization drift,
//!                               percentage points either direction
//!                               (default: report only)
//!   --assert-counter-ratio-lt <num/den> <x>
//!                               gate the NEW report on counters[num]/counters[den] < x
//!                               (repeatable; missing/zero denominator fails)
//!   --assert-counter-lt <a> <b> gate the NEW report on counters[a] < counters[b]
//!                               (repeatable)
//! ```
//!
//! Throughput and p50/p99 latency are always gated, at the fixed budgets
//! in `vedb_bench::diff` (-10%, +20%, +20%), whenever the baseline has a
//! trial window. Exit codes: 0 clean, 1 a gated metric regressed, 2
//! usage/parse error.

use std::process::ExitCode;

use vedb_bench::diff::{diff, Thresholds};
use vedb_sim::RunReport;

fn usage() -> ExitCode {
    eprintln!(
        "usage: report_diff <baseline.json> <new.json> [--max-util-drift PP] \
         [--assert-counter-ratio-lt NUM/DEN X]... [--assert-counter-lt A B]..."
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<RunReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    RunReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut th = Thresholds::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-util-drift" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pp) if pp >= 0.0 => th.max_util_drift_pp = Some(pp),
                _ => return usage(),
            },
            "--assert-counter-ratio-lt" => {
                let pair = it.next();
                let limit = it.next().and_then(|v| v.parse::<f64>().ok());
                match (pair.and_then(|p| p.split_once('/')), limit) {
                    (Some((num, den)), Some(x))
                        if !num.is_empty() && !den.is_empty() && x > 0.0 =>
                    {
                        th.counter_ratio_lt.push((num.into(), den.into(), x));
                    }
                    _ => return usage(),
                }
            }
            "--assert-counter-lt" => match (it.next(), it.next()) {
                (Some(a), Some(b)) if !a.starts_with('-') && !b.starts_with('-') => {
                    th.counter_lt.push((a.clone(), b.clone()));
                }
                _ => return usage(),
            },
            "--help" | "-h" => return usage(),
            p if !p.starts_with('-') => paths.push(p.to_string()),
            _ => return usage(),
        }
    }
    if paths.len() != 2 {
        return usage();
    }
    let (base, new) = match (load(&paths[0]), load(&paths[1])) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("report_diff: {e}");
            return ExitCode::from(2);
        }
    };
    let out = diff(&base, &new, &th);
    print!("{}", out.table);
    if out.regressed() {
        eprintln!("\nperf regression gate FAILED:");
        for r in &out.regressions {
            eprintln!("  - {r}");
        }
        ExitCode::from(1)
    } else {
        println!("\nperf regression gate passed.");
        ExitCode::SUCCESS
    }
}
