//! YCSB-style Zipfian key popularity.
//!
//! The paper's Data Serving workload is a NoSQL store exercised by the
//! Yahoo! Cloud Serving Benchmark (Cooper et al., SoCC'10), whose defining
//! property is a Zipf-distributed key popularity (θ ≈ 0.99): a small set of
//! hot keys absorbs most traffic while a heavy tail defeats caching.
//! [`ZipfSampler`] implements the standard Gray et al. rejection-free
//! Zipfian generator.

use rand::Rng;

/// Zipfian sampler over `0..n` with parameter `theta` (Gray et al.,
/// "Quickly generating billion-record synthetic databases", SIGMOD'94).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl ZipfSampler {
    /// Creates a sampler over `n` items with skew `theta` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf needs at least one item");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0,1), got {theta}"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfSampler {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    /// The YCSB default: θ = 0.99.
    pub fn ycsb_default(n: u64) -> Self {
        Self::new(n, 0.99)
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n; Euler-Maclaurin tail approximation beyond.
        const EXACT: u64 = 10_000;
        let exact_n = n.min(EXACT);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > EXACT {
            // integral of x^-theta from EXACT to n.
            let a = EXACT as f64;
            let b = n as f64;
            sum += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
        }
        sum
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws a rank in `0..n` (0 = most popular).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5_f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Probability mass of the most popular item.
    pub fn head_mass(&self) -> f64 {
        1.0 / self.zetan
    }

    /// Zeta constant over the first two items (exposed for tests).
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_head_is_heavy() {
        let z = ZipfSampler::ycsb_default(1_000_000);
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let top = (0..n).filter(|_| z.sample(&mut rng) < 100).count();
        // Under theta=.99 over 1M keys, the top-100 keys draw a large share.
        let share = top as f64 / n as f64;
        assert!(
            share > 0.20 && share < 0.55,
            "top-100 share should be heavy, got {share}"
        );
    }

    #[test]
    fn zipf_ranks_stay_in_range() {
        let z = ZipfSampler::new(1000, 0.8);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn zipf_rank_zero_is_most_frequent() {
        let z = ZipfSampler::ycsb_default(10_000);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0u32; 4];
        for _ in 0..200_000 {
            let r = z.sample(&mut rng);
            if r < 4 {
                counts[r as usize] += 1;
            }
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[3]);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn rejects_theta_of_one() {
        let _ = ZipfSampler::new(100, 1.0);
    }
}
