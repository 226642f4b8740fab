//! Flamegraph export: turn a `BENCH_<figure>.json` report into
//! inferno-compatible folded stacks, or a `vedb-top` one-screen summary.
//!
//! ```text
//! report_flame <report.json> [-o <out.folded>]   folded stacks (stdout or file)
//! report_flame --top <report.json>               one-screen saturation summary
//! ```
//!
//! The report is read back with `RunReport::from_json` and rendered by the
//! same `folded_stacks` / `top_summary` a live run prints, so an artifact
//! renders exactly as its run did. The folded lines feed any flamegraph
//! renderer that understands the `stack weight` format
//! (`inferno-flamegraph`, `flamegraph.pl`); weights are span self-times in
//! virtual nanoseconds. Exit codes: 0 clean, 2 usage/parse error
//! (including a report of another schema version).

use std::process::ExitCode;

use vedb_sim::RunReport;

fn usage() -> ExitCode {
    eprintln!(
        "usage: report_flame <report.json> [-o <out.folded>] | report_flame --top <report.json>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut out_path = None;
    let mut top = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => top = true,
            "-o" | "--output" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            p if !p.starts_with('-') && path.is_none() => path = Some(p.to_string()),
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };
    let report = match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| RunReport::from_json(&text))
    {
        Ok(report) => report,
        Err(e) => {
            eprintln!("report_flame: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let text = if top {
        report.top_summary()
    } else {
        report.folded_stacks()
    };
    match out_path {
        Some(out) => {
            if let Err(e) = std::fs::write(&out, &text) {
                eprintln!("report_flame: {out}: {e}");
                return ExitCode::from(2);
            }
            eprintln!(
                "report_flame: wrote {} lines to {out}",
                text.lines().count()
            );
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}
