//! The benchmark's own deterministic input generator.
//!
//! Inputs come from this module only, never from the repository's
//! generators, so a change to the program cannot change what the
//! benchmark feeds it: the same seed gives the same columns and the same
//! operation sequence on every commit.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`salt`) of one seed, so the
    /// data and the operation sequence do not share random numbers.
    pub fn stream(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; the bias is at most
    /// `n / 2^64`, below 2^-38 for every `n` the benchmark uses).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Fisher-Yates shuffle.
pub fn shuffle(values: &mut [i64], rng: &mut Rng) {
    for i in (1..values.len()).rev() {
        values.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// A shuffled permutation of `0..n`: unique keys, so a range of width `w`
/// holds exactly `w` rows.
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<i64> {
    let mut values: Vec<i64> = (0..n as i64).collect();
    shuffle(&mut values, rng);
    values
}

/// Zipfian positions in the same shape as the repository's
/// `AccessPattern::Zipfian`: the domain is cut into `buckets` equal
/// buckets, bucket `i` is drawn with probability proportional to
/// `1 / (i + 1)^theta`, and the position is uniform inside the bucket.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(buckets: usize, theta: f64) -> Zipf {
        let weights: Vec<f64> = (0..buckets)
            .map(|i| 1.0 / ((i + 1) as f64).powf(theta))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// A position in `[0, span)`.
    pub fn sample(&self, rng: &mut Rng, span: u64) -> u64 {
        let u = rng.unit();
        let bucket = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        let width = (span / self.cdf.len() as u64).max(1);
        (bucket as u64 * width + rng.below(width)).min(span.saturating_sub(1))
    }
}

/// Order-sensitive 64-bit digest of a result, so an oracle answer is
/// stored as `(length, digest)` instead of the full row-id list.
pub fn digest(items: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64;
    for x in items {
        h = (h ^ x).wrapping_mul(0x1000_0000_01B3).rotate_left(29);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_permutation() {
        let mut values = permutation(1000, &mut Rng::stream(7, 1));
        values.sort_unstable();
        assert_eq!(values, (0..1000).collect::<Vec<i64>>());
    }

    #[test]
    fn zipf_favours_the_head_and_stays_in_range() {
        let zipf = Zipf::new(256, 1.0);
        let mut rng = Rng::stream(3, 2);
        let span = 10_000;
        let samples: Vec<u64> = (0..20_000).map(|_| zipf.sample(&mut rng, span)).collect();
        assert!(samples.iter().all(|&s| s < span));
        let head = samples.iter().filter(|&&s| s < span / 10).count();
        assert!(head > samples.len() / 2, "head share {head}");
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        assert_eq!(digest([1, 2, 3]), digest([1, 2, 3]));
        assert_ne!(digest([1, 2, 3]), digest([3, 2, 1]));
        assert_ne!(digest([1, 2]), digest([1, 2, 3]));
    }
}
