//! Statistics collection for simulation runs.
//!
//! The paper reports means, distributions (CDFs), and ratios of measured
//! quantities. [`Tally`] accumulates an exact count and sum, [`Sampled`]
//! additionally retains every observation so percentiles/CDFs can be
//! extracted, and [`Ratio`] counts hits against a total.

use std::borrow::Cow;

use crate::time::SimDuration;

/// Streaming count / sum / mean / min / max of a sequence of durations.
///
/// The sum is an exact nanosecond integer, so the mean is exact up to its
/// final rounding and [`merge`](Tally::merge) is exact in any split.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    count: u64,
    sum: u128,
    min: Option<SimDuration>,
    max: Option<SimDuration>,
}

impl Tally {
    /// A fresh, empty tally.
    pub fn new() -> Self {
        Tally::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, d: SimDuration) {
        self.count += 1;
        self.sum += u128::from(d.as_nanos());
        self.min = Some(self.min.map_or(d, |m| m.min(d)));
        self.max = Some(self.max.map_or(d, |m| m.max(d)));
    }

    /// Merge another tally into this one (parallel-safe reduction).
    pub fn merge(&mut self, other: &Tally) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean rounded to the nearest nanosecond, or zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            let n = u128::from(self.count);
            let nanos = (self.sum + n / 2) / n;
            SimDuration::from_nanos(u64::try_from(nanos).expect("a mean of u64 values fits u64"))
        }
    }

    /// Mean in fractional milliseconds (for reporting), or zero if empty.
    pub fn mean_millis(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64 / 1.0e6
        }
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<SimDuration> {
        self.min
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<SimDuration> {
        self.max
    }

    /// Sum of all observations. Panics if it exceeds the `u64` nanosecond
    /// range of a [`SimDuration`] (about 584 years).
    pub fn total(&self) -> SimDuration {
        SimDuration::from_nanos(u64::try_from(self.sum).expect("tally total exceeds u64 ns"))
    }
}

/// A tally that also keeps every observation, so exact nearest-rank
/// percentiles and CDFs can be computed after the run. Retention costs
/// 8 B per observation and is not bounded: a 2M-read run holds several
/// million samples across its reservoirs. Run collection moves the
/// reservoirs out of the world and [`sort`](Sampled::sort)s each once,
/// so every later quantile indexes the sorted samples directly; an
/// unsorted sampler clones and sorts per query instead.
#[derive(Clone, Debug, Default)]
pub struct Sampled {
    tally: Tally,
    samples: Vec<SimDuration>,
    /// `samples` is in ascending order: set by `sort`, cleared by `record`.
    sorted: bool,
}

impl Sampled {
    /// A fresh, empty sampler.
    pub fn new() -> Self {
        Sampled::default()
    }

    /// Record one observation.
    pub fn record(&mut self, d: SimDuration) {
        self.tally.record(d);
        self.samples.push(d);
        self.sorted = false;
    }

    /// Sort the retained samples in place, so later quantiles need no
    /// copy. Summaries are unaffected; only [`samples`](Sampled::samples)
    /// order changes.
    pub fn sort(&mut self) {
        self.samples.sort_unstable();
        self.sorted = true;
    }

    /// The streaming summary of the same observations.
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.tally.count()
    }

    /// Arithmetic mean, or zero if empty.
    pub fn mean(&self) -> SimDuration {
        self.tally.mean()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank method, or `None`
    /// if no observations were recorded.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        if self.samples.is_empty() {
            return None;
        }
        let sorted: Cow<[SimDuration]> = if self.sorted {
            Cow::Borrowed(&self.samples)
        } else {
            let mut copy = self.samples.clone();
            copy.sort_unstable();
            Cow::Owned(copy)
        };
        let q = q.clamp(0.0, 1.0);
        let rank = ((sorted.len() as f64) * q).ceil() as usize;
        Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
    }

    /// Fraction of observations that are ≤ `threshold`.
    pub fn fraction_at_most(&self, threshold: SimDuration) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let n = self.samples.iter().filter(|&&d| d <= threshold).count();
        n as f64 / self.samples.len() as f64
    }

    /// All observations: in recording order until [`sort`](Sampled::sort)
    /// is called, ascending after.
    pub fn samples(&self) -> &[SimDuration] {
        &self.samples
    }
}

/// A hit/total ratio counter.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ratio {
    hits: u64,
    total: u64,
}

impl Ratio {
    /// Record one event; `hit` says whether it counts toward the numerator.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Numerator.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Denominator.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `hits / total`, or 0 when empty.
    pub fn value(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// `1 - value()`: the miss ratio when this counts hits.
    pub fn complement(&self) -> f64 {
        1.0 - self.value()
    }

    /// Merge another ratio (parallel-safe reduction).
    pub fn merge(&mut self, other: Ratio) {
        self.hits += other.hits;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn tally_moments() {
        let mut t = Tally::new();
        for x in [2u64, 4, 4, 4, 5, 5, 7, 9] {
            t.record(ms(x));
        }
        assert_eq!(t.count(), 8);
        assert!((t.mean_millis() - 5.0).abs() < 1e-9);
        assert_eq!(t.min(), Some(ms(2)));
        assert_eq!(t.max(), Some(ms(9)));
        assert_eq!(t.total(), ms(40));
    }

    #[test]
    fn tally_empty_is_zero() {
        let t = Tally::new();
        assert_eq!(t.mean(), SimDuration::ZERO);
        assert_eq!(t.count(), 0);
        assert_eq!(t.min(), None);
    }

    fn assert_same(a: &Tally, b: &Tally) {
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum, b.sum);
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.mean_millis(), b.mean_millis());
        assert_eq!(a.min(), b.min());
        assert_eq!(a.max(), b.max());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Splitting a sequence anywhere and merging the halves gives
        /// exactly the tally of the whole sequence.
        #[test]
        fn tally_merge_matches_sequential_at_every_split(
            xs in prop::collection::vec(0u64..u64::MAX / 2, 0..64),
        ) {
            let xs: Vec<SimDuration> = xs.into_iter().map(SimDuration::from_nanos).collect();
            let mut whole = Tally::new();
            xs.iter().for_each(|&x| whole.record(x));
            for split in 0..=xs.len() {
                let (mut a, mut b) = (Tally::new(), Tally::new());
                xs[..split].iter().for_each(|&x| a.record(x));
                xs[split..].iter().for_each(|&x| b.record(x));
                a.merge(&b);
                assert_same(&a, &whole);
            }
        }
    }

    #[test]
    fn tally_sum_beyond_u64_stays_exact() {
        let big = SimDuration::from_nanos(u64::MAX - 6);
        let mut whole = Tally::new();
        let (mut a, mut b) = (Tally::new(), Tally::new());
        for (i, d) in [big, SimDuration::from_nanos(4), big, big]
            .into_iter()
            .enumerate()
        {
            whole.record(d);
            if i < 2 { &mut a } else { &mut b }.record(d);
        }
        a.merge(&b);
        assert_same(&a, &whole);
        assert_eq!(whole.sum, 3 * u128::from(u64::MAX - 6) + 4);
        // (3 × (2^64 − 7) + 4) / 4 = 0.75 × 2^64 − 4.25, rounded to nearest.
        assert_eq!(whole.mean().as_nanos(), 13_835_058_055_282_163_708);
        assert_eq!(whole.min(), Some(SimDuration::from_nanos(4)));
        assert_eq!(whole.max(), Some(big));
    }

    #[test]
    fn sampled_quantiles() {
        let mut s = Sampled::new();
        for x in 1..=100u64 {
            s.record(ms(x));
        }
        assert_eq!(s.quantile(0.5), Some(ms(50)));
        assert_eq!(s.quantile(0.0), Some(ms(1)));
        assert_eq!(s.quantile(1.0), Some(ms(100)));
        assert!((s.fraction_at_most(ms(70)) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn sampled_empty() {
        let s = Sampled::new();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.fraction_at_most(ms(1)), 0.0);
    }

    /// Nearest rank over a clone-and-sorted copy: the reference an
    /// in-place-sorted sampler must match.
    fn reference_quantile(samples: &[SimDuration], q: f64) -> SimDuration {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64) * q).ceil() as usize;
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Sorting in place changes no quantile and no summary, and a
        /// record after sorting (in or out of order) still yields exact
        /// nearest-rank quantiles.
        #[test]
        fn sorting_in_place_preserves_every_answer(
            xs in prop::collection::vec(0u64..1_000, 1..200),
            later in 0u64..1_200,
            threshold in 0u64..1_000,
        ) {
            let mut s = Sampled::new();
            for &x in &xs {
                s.record(SimDuration::from_nanos(x));
            }
            let recorded = s.samples().to_vec();
            let t = SimDuration::from_nanos(threshold);
            let (frac, count, mean) = (s.fraction_at_most(t), s.count(), s.mean());
            s.sort();
            prop_assert!(s.samples().windows(2).all(|w| w[0] <= w[1]));
            prop_assert_eq!(s.fraction_at_most(t), frac);
            prop_assert_eq!(s.count(), count);
            prop_assert_eq!(s.mean(), mean);
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                prop_assert_eq!(s.quantile(q), Some(reference_quantile(&recorded, q)));
            }
            let mut all = recorded;
            all.push(SimDuration::from_nanos(later));
            s.record(SimDuration::from_nanos(later));
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                prop_assert_eq!(s.quantile(q), Some(reference_quantile(&all, q)));
            }
        }
    }

    #[test]
    fn ratio_basics() {
        let mut r = Ratio::default();
        r.record(true);
        r.record(false);
        r.record(true);
        r.record(true);
        assert_eq!(r.hits(), 3);
        assert_eq!(r.total(), 4);
        assert!((r.value() - 0.75).abs() < 1e-9);
        assert!((r.complement() - 0.25).abs() < 1e-9);
        let mut other = Ratio::default();
        other.record(false);
        r.merge(other);
        assert_eq!(r.total(), 5);
    }
}
