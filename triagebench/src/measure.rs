//! Process clocks, order statistics and the result line.

use std::time::Duration;

/// Process user+system CPU time so far (every thread, live or exited).
///
/// # Panics
///
/// If `/proc/self/stat` is unreadable or malformed: the benchmark runs
/// on Linux only and cannot report `cpu_ms_per_job` without it.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields[i]
            .parse::<u64>()
            .expect("stat tick field is numeric")
    };
    // USER_HZ is 100 on every Linux ABI this runs on.
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Clock ticks the hypervisor has taken from this machine's CPUs so far
/// (the `steal` column of `/proc/stat`), or 0 where it is not reported.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.to_owned();
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Share of the machine's CPU time the hypervisor took over `wall_s`
/// seconds in which [`steal_ticks`] grew by `ticks`.
pub fn steal_share(ticks: u64, wall_s: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // USER_HZ is 100 on every Linux ABI this runs on.
    ticks as f64 / 100.0 / (wall_s * cpus as f64).max(f64::MIN_POSITIVE)
}

/// Resets the process's peak resident set size to its current one, so the
/// next [`peak_rss_mb`] reads the peak of what ran in between. Without
/// `/proc/self/clear_refs` (kernels before 4.0) the peak is not reset and
/// every reading is the process-lifetime peak.
pub fn reset_peak_rss() {
    // Best effort by design: see above.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of the process since the last
/// [`reset_peak_rss`] (or its start), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The interpolated median of integer-valued data: the median value `m`
/// moved within `[m - 0.5, m + 0.5]` by where the middle of the sample
/// falls among the values equal to `m`. Unlike the plain median of small
/// integers it moves smoothly with the distribution instead of jumping a
/// whole unit.
pub fn interpolated_median(values: &[f64]) -> f64 {
    let m = median(values).round();
    let below = values.iter().filter(|&&v| v < m).count() as f64;
    let equal = values.iter().filter(|&&v| v == m).count() as f64;
    if equal == 0.0 {
        return median(values);
    }
    m - 0.5 + (values.len() as f64 / 2.0 - below) / equal
}

/// The highest percentile of the ladder p50, p75, p90, p95, p99, p99.9
/// with at least ten samples beyond it, as `(value, percentile, samples)`.
/// The value is the nearest-rank order statistic.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let percentile = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    let rank = ((percentile / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    (sorted.get(rank - 1).copied().unwrap_or(0.0), percentile, n)
}

/// One reported metric.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_median_moves_within_the_middle_value() {
        assert_eq!(interpolated_median(&[4.0, 4.0, 4.0, 4.0]), 4.0);
        // Two of six values sit below 3 and four at it: 3 - 0.5 + (3 - 2) / 4.
        assert_eq!(interpolated_median(&[2.0, 2.0, 3.0, 3.0, 3.0, 3.0]), 2.75);
        // No value equals the (fractional) median: the plain median.
        assert_eq!(interpolated_median(&[4.0, 4.0, 6.0, 8.0]), 5.0);
        assert_eq!(interpolated_median(&[1.0, 2.0, 2.0, 2.0, 9.0]), 2.0);
    }

    #[test]
    fn tail_is_the_highest_ladder_percentile_with_ten_beyond() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&values), (190.0, 95.0, 200));
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&few), (6.0, 50.0, 12));
    }
}
