//! Order statistics and the small deterministic RNG the input
//! generators draw from.

/// Nearest-rank percentile of `sorted` (ascending): the smallest value
/// with at least `p`% of the samples at or below it. `None` when empty.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// How many samples of `sorted` lie strictly beyond the nearest-rank
/// `p`th percentile.
#[must_use]
pub fn beyond(sorted: &[u64], p: f64) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    sorted.len() - rank(sorted.len(), p)
}

/// 1-based nearest rank of the `p`th percentile among `n > 0` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Median of `values` (mean of the middle pair for even counts).
/// `0.0` when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or `0.0` when the denominator is zero (an idle layer).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: a tiny, well-mixed generator whose whole state is one
/// word, so every input stream is a pure function of its seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Mixes `salt` into `seed` so sub-streams of one workload seed are
/// independent.
#[must_use]
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    SplitMix::new(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p99_of_a_thousand_samples_has_ten_beyond_it() {
        let v: Vec<u64> = (0..1_000).collect();
        assert_eq!(percentile(&v, 99.0), Some(989));
        assert_eq!(beyond(&v, 99.0), 10);
        // One sample fewer and the tail no longer supports p99.
        assert_eq!(beyond(&v[..999], 99.0), 9);
        assert_eq!(beyond(&[], 99.0), 0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn splitmix_is_a_pure_function_of_its_seed() {
        let (mut a, mut b) = (SplitMix::new(9), SplitMix::new(9));
        assert!((0..4).all(|_| a.next_u64() == b.next_u64()));
        assert_ne!(sub_seed(9, 1), sub_seed(9, 2));
        let mut r = SplitMix::new(1);
        assert!((0..1000)
            .map(|_| r.next_f64())
            .all(|x| (0.0..1.0).contains(&x)));
    }
}
