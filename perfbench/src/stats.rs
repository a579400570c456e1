//! Percentiles under the sample-count rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a p99 needs 1000 samples. Failed operations enter a
//! latency sample as `+∞`: they miss every latency limit.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples needed before quantile `q` may be reported.
pub fn samples_needed(q: f64) -> usize {
    (MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize
}

/// A latency sample set (any unit); failures are `+∞`.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    values: Vec<f64>,
}

impl Sample {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn extend(&mut self, other: &Sample) {
        self.values.extend_from_slice(&other.values);
    }

    fn rank(&self, q: f64) -> usize {
        ((q * self.values.len() as f64).ceil() as usize).clamp(1, self.values.len())
    }

    /// Nearest-rank quantile, or `None` when fewer than [`MIN_BEYOND`]
    /// samples lie beyond it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.values.is_empty() || self.values.len() - self.rank(q) < MIN_BEYOND {
            return None;
        }
        self.quantile_unchecked(q)
    }

    /// Nearest-rank quantile regardless of the sample-count rule.
    pub fn quantile_unchecked(&self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[self.rank(q) - 1])
    }

    /// Share of samples at or under `limit`.
    pub fn share_within(&self, limit: f64) -> f64 {
        ratio(
            self.values.iter().filter(|v| **v <= limit).count() as f64,
            self.values.len() as f64,
        )
    }

    /// Sum of the finite samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().filter(|v| v.is_finite()).sum()
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The quartile of `values` on the better side — the lower quartile of a
/// cost, the upper quartile of a rate (linear interpolation; 0 when
/// empty). Interference from other tenants of the machine only ever makes
/// a run slower, so this is the steadiest estimate of what the code costs
/// that still rests on a quarter of the measurements rather than one.
pub fn better_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    better_quantile(values, 0.25, higher_is_better)
}

/// The quantile `q` of `values` counted from the better side: `q` = 0.1
/// is the 10th percentile of a cost and the 90th of a rate (linear
/// interpolation; 0 when empty).
pub fn better_quantile(values: &[f64], q: f64, higher_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = if higher_is_better { 1.0 - q } else { q };
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
        let mut s = Sample::default();
        for i in 0..999 {
            s.push(i as f64);
        }
        assert_eq!(s.quantile(0.99), None);
        s.push(999.0);
        assert_eq!(s.quantile(0.99), Some(989.0));
        assert_eq!(s.quantile(0.5), Some(499.0));
    }

    #[test]
    fn better_quartile_leans_to_the_better_side() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(better_quartile(&v, false), 2.0);
        assert_eq!(better_quartile(&v, true), 4.0);
        assert_eq!(better_quartile(&[7.0], true), 7.0);
        assert_eq!(better_quartile(&[], false), 0.0);
    }

    #[test]
    fn failures_sort_last() {
        let mut s = Sample::default();
        for _ in 0..30 {
            s.push(f64::INFINITY);
        }
        for i in 0..70 {
            s.push(i as f64);
        }
        assert_eq!(s.quantile(0.5), Some(49.0));
        assert_eq!(s.quantile(0.8), Some(f64::INFINITY));
    }
}
