//! Small numeric helpers and the result line.

use std::fmt::Write as _;

/// Exact percentile of `xs` (nearest rank, `p` in `[0, 100]`); 0 when empty.
pub fn percentile(xs: &[u64], p: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Mean of the slowest 1% of `xs` (at least one value); 0 when empty.
///
/// A one-client run in virtual time repeats the same few latencies for
/// cache hits, so an order statistic such as p99 often reads the same
/// value for every seed; the mean of the tail moves with how many slow
/// operations a run had and how slow they were.
pub fn tail_mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let k = v.len().div_ceil(100);
    v[v.len() - k..].iter().sum::<u64>() as f64 / k as f64
}

/// Median of `xs` (mean of the two middle values for an even count); 0
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// CPU time the calling thread has run, in ns (`/proc/thread-self/schedstat`),
/// or 0 where `/proc` is unavailable. CPU time, unlike wall time, does not
/// grow while the host runs other processes on a shared core.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU ns of one fixed calibration loop that uses only the standard
/// library: hash-map probes, B-tree updates, small allocations and 16 KiB
/// copies, the kinds of work the simulator does. It measures how fast the
/// host runs right now.
pub fn calibrate() -> u64 {
    use std::collections::{BTreeMap, HashMap};
    use std::hint::black_box;
    let t0 = thread_cpu_ns();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = HashMap::with_capacity(1 << 17);
    for i in 0..(1u64 << 17) {
        map.insert(next() & 0xF_FFFF, i);
    }
    let mut tree = BTreeMap::new();
    let mut buf = vec![0u8; 16 << 20];
    let mut acc = 0u64;
    for i in 0..300_000u64 {
        acc = acc.wrapping_add(*map.get(&(next() & 0xF_FFFF)).unwrap_or(&i));
        tree.insert(next() & 0xFFFF, i);
        if i % 2 == 0 {
            tree.remove(&(next() & 0xFFFF));
        }
        let v: Vec<u8> = vec![i as u8; 64 + (i as usize % 256)];
        acc = acc.wrapping_add(black_box(v).len() as u64);
        if i % 16 == 0 {
            let len = buf.len() - (16 << 10);
            let (a, b) = (next() as usize % len, next() as usize % len);
            buf.copy_within(a..a + (16 << 10), b);
        }
    }
    black_box((acc, tree.len(), buf[12345]));
    thread_cpu_ns() - t0
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The ordered set of metrics a run reports.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The final result line: `{"correct": true, "attempted": …, "failed": …,
/// "metrics": {name: {"value": v, "unit": u}, …}}`. Only a run whose
/// checks all passed prints one.
pub fn result_json(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Non-finite values are not JSON; a metric that cannot be computed
        // reads 0 and the self-test flags it where its layer does work.
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 99.0), 99);
        assert_eq!(percentile(&xs, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn tail_mean_averages_the_slowest_percent() {
        let mut xs: Vec<u64> = vec![1; 198];
        xs.extend([10, 30]);
        assert_eq!(tail_mean(&xs), 20.0);
        assert_eq!(tail_mean(&[7]), 7.0);
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
