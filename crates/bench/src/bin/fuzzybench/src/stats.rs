//! Summaries of timing samples: medians and the percentile rule every
//! reported tail follows.

/// Percentiles the tail ladder considers, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest ladder percentile that has at least [`MIN_BEYOND`]
/// samples above its rank, as `(percentile, value)`. `None` when even
/// the median lacks that many (fewer than 20 samples).
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    LADDER.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (n.saturating_sub(rank) >= MIN_BEYOND).then(|| (p, percentile(sorted, p)))
    })
}

/// A latency distribution as reported: sample count, median, and the
/// tail percentile chosen by [`tail`] (the maximum, labelled p100, when
/// there are too few samples for any ladder percentile).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        let (tail_pct, tail) = tail(&s).unwrap_or((100.0, s.last().copied().unwrap_or(f64::NAN)));
        Summary {
            n: s.len(),
            p50: percentile(&s, 50.0),
            tail_pct,
            tail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        // 100 samples: p99 has 1 beyond it, p95 has 5, p90 has exactly 10.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 has 10 beyond it; p99.9 has 1.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 4000 frames, as a serve run streams: still p99 (p99.9 has 4).
        assert_eq!(tail(&ramp(4000)), Some((99.0, 3960.0)));
        // 600 refit ticks: p99 has 6 beyond it, p95 has 30.
        assert_eq!(tail(&ramp(600)), Some((95.0, 570.0)));
        // 20 samples: only the median qualifies; 19: nothing does.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn summary_states_n_and_falls_back_to_the_maximum() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (3, 2.0, 100.0, 3.0));
        let s = Summary::of(&ramp(1000));
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (1000, 500.0, 99.0, 990.0));
    }
}
