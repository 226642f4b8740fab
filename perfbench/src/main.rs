//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tpcc_ebp|lookup_ebp|ch_pushdown> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run repeats *passes* until `--seconds` of wall time are spent (at
//! least [`MIN_PASSES`]). A pass builds a fresh deployment from the seed,
//! loads and warms it (timed as set-up), measures one fixed virtual-time
//! window with one closed-loop client, checks the answers, crashes the
//! engine, recovers it and checks again. Pass `i` derives its seed from
//! `--seed` and `i`, so a seed always yields the same inputs.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs every pass
//! twice on the same seed, untraced and then traced, and prints the
//! per-layer metrics: registry counters of the untraced pass, span self
//! times of the traced one, and the host cost of tracing. Spans are
//! written to `perfbench/out/`.
//!
//! Virtual-time metrics are what the modelled cluster would take. Host
//! metrics (`host_us_per_op`, `setup_s`, `peak_rss_mb`,
//! `sim.host_ns_per_event`, `trace.overhead_pct`) are what the simulator
//! costs to run; host times are CPU time of the simulating thread, which
//! other processes on a shared machine inflate far less than wall time.
//! The last line of standard output is one JSON object. A failed check
//! prints no result: it names the workload and seed on standard error and
//! exits with code 1.

mod layers;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{median, ratio, result_json, tail_mean, Metrics};
use workload::{run_pass, Pass, Scale, Workload};

/// Passes every run makes, however long they take: `setup_s` is a median
/// over passes, and three keep one slow set-up from setting it.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

fn usage() -> String {
    "usage: vedb-perfbench --workload <tpcc_ebp|lookup_ebp|ch_pushdown> --seed <n> \
     --seconds <s> --trace <0|1> [--scale <bench|tiny>]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Bench;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "bench" => Scale::Bench,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let missing = |f: &str| format!("missing {f}\n{}", usage());
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        scale,
    })
}

/// Seed of pass `i` (SplitMix64 of the run seed and the pass index).
fn pass_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Passes of one run; in a traced run, `traced[i]` repeats `plain[i]` with
/// tracing on.
struct Run {
    plain: Vec<Pass>,
    traced: Vec<Pass>,
    /// CPU ns of [`stats::calibrate`] before each pass.
    calibration_ns: Vec<f64>,
    /// Peak resident memory after the first pass. Later passes add a few
    /// MiB each that the allocator keeps, so the process peak would grow
    /// with the number of passes, which depends on host speed.
    first_pass_rss_mb: f64,
}

/// Calibration loop time that defines the reference host speed.
const REFERENCE_CALIBRATION_NS: f64 = 100e6;

impl Run {
    /// Factor that scales this run's host CPU times to the reference speed.
    ///
    /// The host is shared: between runs of the same code on the same
    /// machine, CPU time per operation moved by up to 2x as other
    /// processes came and went. The calibration loop uses no repository
    /// code, so it slows down with the machine but not with the simulator,
    /// and scaling by it keeps host times comparable across runs.
    fn host_scale(&self) -> f64 {
        ratio(REFERENCE_CALIBRATION_NS, median(&self.calibration_ns))
    }
}

fn run(args: &Args) -> Result<Run, String> {
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut run = Run {
        plain: Vec::new(),
        traced: Vec::new(),
        calibration_ns: Vec::new(),
        first_pass_rss_mb: 0.0,
    };
    loop {
        let i = run.plain.len();
        let seed = pass_seed(args.seed, i);
        let t = Instant::now();
        run.calibration_ns.push(stats::calibrate() as f64);
        run.plain
            .push(run_pass(args.workload, args.scale, seed, false)?);
        if args.trace {
            run.traced
                .push(run_pass(args.workload, args.scale, seed, true)?);
        }
        if i == 0 {
            run.first_pass_rss_mb = stats::peak_rss_mb();
        }
        let pass = &run.plain[i];
        eprintln!(
            "pass {i}: seed {seed}, {} ops, setup {:.3} s cpu, window {:.3} s cpu, pass {:.3} s wall",
            pass.samples.len(),
            pass.setup_s,
            pass.measure_s,
            t.elapsed().as_secs_f64()
        );
        for e in &pass.errors {
            eprintln!("  failed op: {e}");
        }
        // Stop when another pass of the average length would overrun.
        let elapsed = started.elapsed();
        let per_pass = elapsed / (i as u32 + 1);
        if i + 1 >= MIN_PASSES && elapsed + per_pass > budget {
            return Ok(run);
        }
    }
}

/// Host microseconds per measured operation of each pass.
fn host_us_per_op(passes: &[Pass]) -> Vec<f64> {
    passes
        .iter()
        .map(|p| ratio(p.measure_s * 1e6, p.samples.len() as f64))
        .collect()
}

fn end_to_end(run: &Run) -> Metrics {
    let passes = &run.plain;
    let lat = layers::latencies(passes, |_| true);
    let window_s: f64 = passes.iter().map(|p| p.window.as_secs_f64()).sum();
    let recover_ms: f64 = passes.iter().map(|p| p.recover.as_millis_f64()).sum();
    let setup_s: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let mut m = Metrics::default();
    m.put("ops_per_s", ratio(lat.len() as f64, window_s), "1/s");
    m.put("op_tail_us", tail_mean(&lat) / 1e3, "us");
    // A mean: recovery time varies with where the crash falls in the
    // checkpoint cycle, and a median over a few dozen passes moves more.
    m.put("recover_ms", ratio(recover_ms, passes.len() as f64), "ms");
    let scale = run.host_scale();
    m.put(
        "host_us_per_op",
        median(&host_us_per_op(passes)) * scale,
        "us",
    );
    m.put("setup_s", median(&setup_s) * scale, "s");
    m.put("peak_rss_mb", run.first_pass_rss_mb, "MiB");
    m
}

/// Write the benchmark's own spans (one per operation, query and
/// recovery) and the folded stacks of every traced window.
fn write_spans(args: &Args, traced: &[Pass]) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let mut spans = String::from("pass,op,start_ns,end_ns\n");
    let mut folded = std::collections::BTreeMap::<String, u64>::new();
    for (i, p) in traced.iter().enumerate() {
        for ev in p.spans.iter().chain(&p.recovery_spans) {
            if ev.component == "bench" {
                let _ = writeln!(
                    spans,
                    "{i},{},{},{}",
                    ev.op,
                    ev.start.as_nanos(),
                    ev.end.as_nanos()
                );
            }
        }
        for (k, v) in vedb_sim::Profile::from_events(&p.spans).folded {
            *folded.entry(k).or_default() += v;
        }
    }
    let folded: String = folded.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    std::fs::write(dir.join(format!("{stem}.spans.csv")), spans)?;
    let path = dir.join(format!("{stem}.folded"));
    std::fs::write(&path, folded)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let run = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("CHECK FAILED: workload {name}, seed {}: {e}", args.seed);
            return ExitCode::FAILURE;
        }
    };
    let attempted = run
        .plain
        .iter()
        .map(|p| p.samples.len() as u64)
        .sum::<u64>();
    let failed = run
        .plain
        .iter()
        .flat_map(|p| &p.samples)
        .filter(|s| !s.ok)
        .count() as u64;

    let metrics = if args.trace {
        let mut m = layers::per_layer(&run.plain, run.host_scale());
        let traced = layers::traced(&run.traced);
        m.0.extend(traced.0);
        let plain = median(&host_us_per_op(&run.plain));
        let with = median(&host_us_per_op(&run.traced));
        m.put(
            "sim.calibration_ms",
            median(&run.calibration_ns) / 1e6,
            "ms",
        );
        m.put(
            "trace.overhead_pct",
            (ratio(with, plain) - 1.0) * 100.0,
            "%",
        );
        match write_spans(&args, &run.traced) {
            Ok(path) => eprintln!("spans written next to {}", path.display()),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
        m
    } else {
        end_to_end(&run)
    };

    eprintln!(
        "host scale {:.4}: calibration loop {:.2} ms (median of {})",
        run.host_scale(),
        median(&run.calibration_ns) / 1e6,
        run.calibration_ns.len()
    );
    println!(
        "{name}, seed {}: {} passes, {attempted} ops measured ({failed} failed)",
        args.seed,
        run.plain.len()
    );
    for m in &metrics.0 {
        println!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(attempted, failed, &metrics));
    ExitCode::SUCCESS
}
