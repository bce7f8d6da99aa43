//! Latency summaries: nearest-rank quantiles, the tail-percentile rule,
//! and the sliced tail estimate the end-to-end p99 is reported as.

/// Percentiles a latency summary may report, highest first.
const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of an ascending slice (`0` when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The percentile rule: the highest ladder percentile with at least ten
/// samples beyond it (the median when even p75 has too few).
pub fn supported_tail(n: usize) -> f64 {
    LADDER.into_iter().find(|&q| beyond(n, q) >= MIN_BEYOND).unwrap_or(0.5)
}

/// Median of the values (mean of the middle pair for even counts; `0`
/// when empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Sorted copy of `samples`.
pub fn sorted(samples: &[u64]) -> Vec<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v
}

/// Nearest-rank quantile of unsorted samples, as `f64`.
pub fn quantile_of(samples: &[u64], q: f64) -> f64 {
    quantile(&sorted(samples), q) as f64
}

/// A steady tail estimate: each series (one client's latencies in issue
/// order) is cut into equal consecutive slices, the `q`-quantile is taken
/// per slice, and the median of all slice quantiles is returned.
///
/// One scheduler hiccup inflates one slice, not the reported figure — the
/// raw whole-run p99 of a µs-scale workload on a 2-core box swings by tens
/// of percent between identical runs. The slice count is the largest of
/// 10/5/2/1 that still leaves every slice ten samples beyond `q`.
pub fn sliced_quantile(series: &[&[u64]], q: f64) -> f64 {
    let shortest = series.iter().map(|s| s.len()).min().unwrap_or(0);
    let slices = [10usize, 5, 2, 1]
        .into_iter()
        .find(|&s| beyond(shortest / s, q) >= MIN_BEYOND)
        .unwrap_or(1);
    let mut per_slice: Vec<f64> = Vec::new();
    for s in series {
        let len = s.len() / slices;
        if len == 0 {
            continue;
        }
        per_slice.extend(s.chunks_exact(len).take(slices).map(|chunk| quantile_of(chunk, q)));
    }
    median(&mut per_slice)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert_eq!(supported_tail(1000), 0.99);
        assert_eq!(supported_tail(999), 0.95);
        // p99.9 needs 10_000.
        assert_eq!(supported_tail(10_000), 0.999);
        assert_eq!(supported_tail(9_999), 0.99);
        assert_eq!(supported_tail(200), 0.95);
        assert_eq!(supported_tail(100), 0.9);
        assert_eq!(supported_tail(40), 0.75);
        assert_eq!(supported_tail(20), 0.5);
        assert_eq!(supported_tail(0), 0.5);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn sliced_tail_ignores_one_hiccup() {
        // 20_000 samples of value 10 with one burst of 500 slow samples in
        // the first tenth: the whole-run p99 sees the burst, the sliced
        // estimate does not.
        let mut s = vec![10u64; 20_000];
        for x in &mut s[100..600] {
            *x = 1_000;
        }
        assert_eq!(quantile_of(&s, 0.99), 1_000.0);
        assert_eq!(sliced_quantile(&[&s], 0.99), 10.0);
        // Too few samples for ten slices: falls back to fewer, never panics.
        assert_eq!(sliced_quantile(&[&s[..1500]], 0.99), 1_000.0);
        assert_eq!(sliced_quantile(&[], 0.99), 0.0);
    }
}
