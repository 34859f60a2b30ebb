//! Latency summaries and daemon-metrics diffs.

use puddles_proto::MetricsReport;

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The nearest rank of percentile `p` among `n` samples, `ceil(p/100 * n)`,
/// in integer arithmetic (to a tenth of a percent) so 99.9 of 10,000 is
/// exactly 9,990.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000)
}

/// Nearest-rank percentile of an ascending-sorted sample (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the `p`-th percentile's rank.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of the ladder that leaves at least ten samples
/// beyond it, or `None` when even the median does not.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| beyond(n, p) >= 10)
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= 10
}

/// The share of slices at each end that a slice-based metric sets aside.
pub const SLICE_TRIM: f64 = 0.1;

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the values left once the lowest and the highest `trim` share of
/// them (rounded down) are set aside.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let k = (v.len() as f64 * trim) as usize;
    let kept = &v[k..v.len() - k];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// One latency series summarized in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    /// The highest percentile the sample supports (see [`supported_tail`]).
    pub tail_p: Option<f64>,
}

impl Summary {
    /// The summary's value at percentile 50, 90 or 99.
    pub fn at(&self, p: f64) -> u64 {
        match p as u32 {
            50 => self.p50,
            90 => self.p90,
            _ => self.p99,
        }
    }

    pub fn of(mut samples: Vec<u64>) -> Summary {
        samples.sort_unstable();
        Summary {
            n: samples.len(),
            p50: percentile(&samples, 50.0),
            p90: percentile(&samples, 90.0),
            p99: percentile(&samples, 99.0),
            tail_p: supported_tail(samples.len()),
        }
    }
}

/// The difference between two daemon (or client) metrics snapshots taken
/// around a timed window, so set-up traffic is excluded.
pub struct MetricsDiff<'a> {
    pub before: &'a MetricsReport,
    pub after: &'a MetricsReport,
}

impl MetricsDiff<'_> {
    /// Samples a series gained in the window.
    pub fn count(&self, series: &str) -> u64 {
        let get = |r: &MetricsReport| r.series(series).map_or(0, |s| s.count);
        get(self.after).saturating_sub(get(self.before))
    }

    /// Mean of the samples a series gained in the window: Δsum / Δcount,
    /// or `None` when it gained none.
    pub fn mean_ns(&self, series: &str) -> Option<f64> {
        let get = |r: &MetricsReport| r.series(series).map_or((0, 0), |s| (s.count, s.sum_nanos));
        let (c0, s0) = get(self.before);
        let (c1, s1) = get(self.after);
        let dc = c1.saturating_sub(c0);
        (dc > 0).then(|| s1.saturating_sub(s0) as f64 / dc as f64)
    }

    /// How much a counter grew in the window.
    pub fn counter(&self, name: &str) -> u64 {
        let get = |r: &MetricsReport| r.counter(name).unwrap_or(0);
        get(self.after).saturating_sub(get(self.before))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puddles_proto::{CounterSnapshot, SeriesSnapshot};

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(supported_tail(9), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(99), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert!(supports(1000, 99.0) && !supports(999, 99.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        let s = Summary::of((1..=1000).rev().collect());
        assert_eq!((s.n, s.p50, s.p90, s.p99), (1000, 500, 900, 990));
        assert_eq!(s.tail_p, Some(99.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let ten = [9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 100.0];
        assert_eq!(trimmed_mean(&ten, SLICE_TRIM), 5.5);
        assert_eq!(trimmed_mean(&[1.0, 3.0], SLICE_TRIM), 2.0);
        assert_eq!(trimmed_mean(&[], SLICE_TRIM), 0.0);
    }

    fn report(count: u64, sum: u64, counter: u64) -> MetricsReport {
        MetricsReport {
            series: vec![SeriesSnapshot {
                name: "service.Ping".into(),
                count,
                sum_nanos: sum,
                ..Default::default()
            }],
            counters: vec![CounterSnapshot {
                name: "client_reconnects".into(),
                value: counter,
            }],
            trace_buffered: 0,
            trace_dropped: 0,
        }
    }

    #[test]
    fn window_mean_comes_from_count_and_sum_deltas() {
        // 10 set-up samples averaging 1000 ns, then 4 window samples
        // averaging 250 ns: the window mean must ignore the set-up.
        let before = report(10, 10_000, 1);
        let after = report(14, 11_000, 3);
        let d = MetricsDiff {
            before: &before,
            after: &after,
        };
        assert_eq!(d.count("service.Ping"), 4);
        assert_eq!(d.mean_ns("service.Ping"), Some(250.0));
        assert_eq!(d.counter("client_reconnects"), 2);
        assert_eq!(d.mean_ns("service.Missing"), None);
        let same = MetricsDiff {
            before: &before,
            after: &before,
        };
        assert_eq!(same.mean_ns("service.Ping"), None);
    }
}
