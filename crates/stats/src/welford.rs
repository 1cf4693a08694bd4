//! Streaming mean/variance accumulators.
//!
//! The paper's regression-tree split search (§4.1) evaluates the CPI
//! variance of thousands of candidate partitions; numerically stable
//! streaming accumulators keep that both fast and accurate.

/// Welford's online algorithm for mean and variance.
///
/// ```
/// use fuzzyphase_stats::Welford;
/// let mut w = Welford::new();
/// w.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!(w.variance_population(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Adds every observation from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by `n`); 0.0 for n < 1.
    pub fn variance_population(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Sample variance (divides by `n - 1`); 0.0 for n < 2.
    pub fn variance_sample(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).max(0.0)
        }
    }

    /// Population standard deviation.
    pub fn std_population(&self) -> f64 {
        self.variance_population().sqrt()
    }

    /// Sum of squared deviations from the mean (`M2` in Welford's terms).
    ///
    /// The regression-tree builder works directly with this quantity: the
    /// weighted sum of chamber variances in §4.1 is just the sum of the
    /// chambers' `sum_sq_dev` divided by the total count.
    pub fn sum_sq_dev(&self) -> f64 {
        self.m2.max(0.0)
    }

    /// The raw accumulator state `(count, mean, m2)`.
    ///
    /// Together with [`from_state`](Self::from_state) this gives exact
    /// (bit-level) checkpoint/restore: the serve daemon's spool
    /// snapshots persist streaming CPI statistics this way, so a
    /// recovered session continues from f64 state identical to an
    /// uninterrupted run.
    pub fn state(&self) -> (u64, f64, f64) {
        (self.count, self.mean, self.m2)
    }

    /// Rebuilds an accumulator from [`state`](Self::state) output,
    /// bit-exactly.
    pub fn from_state(count: u64, mean: f64, m2: f64) -> Self {
        Self { count, mean, m2 }
    }

    /// Removes one observation previously added with [`push`](Self::push).
    ///
    /// This makes incremental split-point scans O(1) per step: moving a
    /// tuple from the right partition to the left is one `unpush` and one
    /// `push`.
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty.
    #[inline]
    pub fn unpush(&mut self, x: f64) {
        assert!(self.count > 0, "unpush from empty Welford accumulator");
        if self.count == 1 {
            *self = Self::default();
            return;
        }
        let n = self.count as f64;
        let mean_prev = (n * self.mean - x) / (n - 1.0);
        self.m2 -= (x - self.mean) * (x - mean_prev);
        if self.m2 < 0.0 {
            self.m2 = 0.0;
        }
        self.mean = mean_prev;
        self.count -= 1;
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut w = Welford::new();
        w.extend(iter);
        w
    }
}

/// Weighted streaming mean/variance.
///
/// Used where observations carry instruction-count weights (e.g. per-thread
/// CPI aggregation when threads run different numbers of instructions).
///
/// ```
/// use fuzzyphase_stats::WeightedWelford;
/// let mut w = WeightedWelford::new();
/// w.push(1.0, 1.0);
/// w.push(3.0, 3.0);
/// assert_eq!(w.mean(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WeightedWelford {
    weight: f64,
    mean: f64,
    m2: f64,
}

impl WeightedWelford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation `x` with positive weight `w`.
    ///
    /// Observations with non-positive weight are ignored.
    #[inline]
    pub fn push(&mut self, x: f64, w: f64) {
        if w <= 0.0 {
            return;
        }
        self.weight += w;
        let delta = x - self.mean;
        self.mean += (w / self.weight) * delta;
        self.m2 += w * delta * (x - self.mean);
    }

    /// Total weight accumulated.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Weighted mean; 0.0 if no weight has been accumulated.
    pub fn mean(&self) -> f64 {
        if self.weight == 0.0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Weighted population variance.
    pub fn variance(&self) -> f64 {
        if self.weight == 0.0 {
            0.0
        } else {
            (self.m2 / self.weight).max(0.0)
        }
    }
}

/// A Welford accumulator that can be merged with another.
///
/// Merging uses Chan et al.'s parallel update, which lets the experiment
/// harness compute suite-wide statistics from per-benchmark accumulators
/// produced on worker threads.
///
/// ```
/// use fuzzyphase_stats::MergeableWelford;
/// let mut a = MergeableWelford::new();
/// a.extend([1.0, 2.0]);
/// let mut b = MergeableWelford::new();
/// b.extend([3.0, 4.0]);
/// a.merge(&b);
/// assert_eq!(a.mean(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MergeableWelford {
    inner: Welford,
}

impl MergeableWelford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.inner.push(x);
    }

    /// Adds every observation from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.inner.extend(iter);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Mean of all observations.
    pub fn mean(&self) -> f64 {
        self.inner.mean()
    }

    /// Population variance of all observations.
    pub fn variance_population(&self) -> f64 {
        self.inner.variance_population()
    }

    /// The raw accumulator state `(count, mean, m2)` — the same exact
    /// checkpoint form as [`Welford::state`]. The serve daemon ships
    /// per-session CPI accumulators across the merge boundary this way.
    pub fn state(&self) -> (u64, f64, f64) {
        self.inner.state()
    }

    /// Rebuilds an accumulator from [`state`](Self::state) output,
    /// bit-exactly.
    pub fn from_state(count: u64, mean: f64, m2: f64) -> Self {
        Self {
            inner: Welford::from_state(count, mean, m2),
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &MergeableWelford) {
        let (a, b) = (&mut self.inner, &other.inner);
        if b.count == 0 {
            return;
        }
        if a.count == 0 {
            *a = *b;
            return;
        }
        let na = a.count as f64;
        let nb = b.count as f64;
        let n = na + nb;
        let delta = b.mean - a.mean;
        a.m2 += b.m2 + delta * delta * na * nb / n;
        a.mean += delta * nb / n;
        a.count += b.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_var(xs: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n
    }

    #[test]
    fn matches_naive_variance() {
        let xs = [1.5, 2.25, 8.0, -3.0, 0.0, 100.0, 41.5];
        let w: Welford = xs.iter().copied().collect();
        assert!((w.variance_population() - naive_var(&xs)).abs() < 1e-9);
    }

    #[test]
    fn empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance_population(), 0.0);
        assert_eq!(w.variance_sample(), 0.0);
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn single_element() {
        let mut w = Welford::new();
        w.push(5.0);
        assert_eq!(w.mean(), 5.0);
        assert_eq!(w.variance_population(), 0.0);
        assert_eq!(w.variance_sample(), 0.0);
    }

    #[test]
    fn sample_variance_divides_by_n_minus_1() {
        let mut w = Welford::new();
        w.extend([1.0, 3.0]);
        assert_eq!(w.variance_population(), 1.0);
        assert_eq!(w.variance_sample(), 2.0);
    }

    #[test]
    fn unpush_inverts_push() {
        let base = [3.0, 1.0, 4.0, 1.0, 5.0];
        let mut w: Welford = base.iter().copied().collect();
        w.push(9.0);
        w.unpush(9.0);
        let fresh: Welford = base.iter().copied().collect();
        assert!((w.mean() - fresh.mean()).abs() < 1e-9);
        assert!((w.sum_sq_dev() - fresh.sum_sq_dev()).abs() < 1e-9);
        assert_eq!(w.count(), fresh.count());
    }

    #[test]
    fn unpush_to_empty() {
        let mut w = Welford::new();
        w.push(2.0);
        w.unpush(2.0);
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "unpush from empty")]
    fn unpush_empty_panics() {
        let mut w = Welford::new();
        w.unpush(1.0);
    }

    #[test]
    fn state_roundtrip_is_bit_exact() {
        let mut w = Welford::new();
        w.extend([1.5, 2.25, 8.0, -3.0, 0.123_456_789]);
        let (count, mean, m2) = w.state();
        let back = Welford::from_state(count, mean, m2);
        assert_eq!(back, w);
        // Continue pushing on both and stay bit-identical.
        let mut a = w;
        let mut b = back;
        for x in [41.5, -0.001, 7.0] {
            a.push(x);
            b.push(x);
        }
        assert_eq!(a.mean().to_bits(), b.mean().to_bits());
        assert_eq!(
            a.variance_population().to_bits(),
            b.variance_population().to_bits()
        );
    }

    #[test]
    fn weighted_reduces_to_unweighted() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = WeightedWelford::new();
        for &x in &xs {
            w.push(x, 1.0);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_ignores_nonpositive_weight() {
        let mut w = WeightedWelford::new();
        w.push(10.0, 0.0);
        w.push(10.0, -1.0);
        assert_eq!(w.weight(), 0.0);
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    fn weighted_duplicates_equal_integer_weights() {
        let mut a = WeightedWelford::new();
        a.push(1.0, 2.0);
        a.push(5.0, 1.0);
        let mut b = WeightedWelford::new();
        for x in [1.0, 1.0, 5.0] {
            b.push(x, 1.0);
        }
        assert!((a.mean() - b.mean()).abs() < 1e-12);
        assert!((a.variance() - b.variance()).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_combined() {
        let xs = [1.0, 2.0, 3.5, -1.0];
        let ys = [10.0, 20.0, 30.0];
        let mut a = MergeableWelford::new();
        a.extend(xs.iter().copied());
        let mut b = MergeableWelford::new();
        b.extend(ys.iter().copied());
        a.merge(&b);
        let all: Vec<f64> = xs.iter().chain(ys.iter()).copied().collect();
        assert!((a.variance_population() - naive_var(&all)).abs() < 1e-9);
        assert_eq!(a.count(), 7);
    }

    #[test]
    fn mergeable_state_roundtrip_is_bit_exact() {
        let mut a = MergeableWelford::new();
        a.extend([0.25, 1.75, 3.125, -0.5]);
        let (count, mean, m2) = a.state();
        let back = MergeableWelford::from_state(count, mean, m2);
        assert_eq!(back, a);
        assert_eq!(back.mean().to_bits(), a.mean().to_bits());
        assert_eq!(
            back.variance_population().to_bits(),
            a.variance_population().to_bits()
        );
    }

    #[test]
    fn merge_order_over_sorted_parts_is_deterministic() {
        // Folding parts in one fixed (sorted) order must give the same
        // bits every time — the property the cross-session suite merge
        // leans on: order is derived from tokens, never from completion
        // order, so any arrival order collapses to the same fold.
        let parts: Vec<MergeableWelford> = (0..5)
            .map(|i| {
                let mut w = MergeableWelford::new();
                w.extend((0..10).map(|j| 0.1 * (i * 10 + j) as f64));
                w
            })
            .collect();
        let fold = |ps: &[MergeableWelford]| {
            let mut acc = MergeableWelford::new();
            for p in ps {
                acc.merge(p);
            }
            acc.state()
        };
        let a = fold(&parts);
        let b = fold(&parts);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.to_bits(), b.1.to_bits());
        assert_eq!(a.2.to_bits(), b.2.to_bits());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = MergeableWelford::new();
        a.extend([1.0, 2.0]);
        let before = a;
        a.merge(&MergeableWelford::new());
        assert_eq!(a, before);

        let mut empty = MergeableWelford::new();
        empty.merge(&before);
        assert_eq!(empty.mean(), before.mean());
    }
}
