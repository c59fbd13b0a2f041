//! Seeded traffic for the serve workloads: a SplitMix64 generator (kept
//! here, not borrowed from the simulator's RNG, so the traffic cannot
//! change when the program under test does), open-loop Poisson arrival
//! schedules, and a Zipf sampler over a fixed hot-key set.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Due times (seconds from the start of the window) of an open-loop
/// Poisson arrival process at `rate` requests per second over `duration_s`
/// seconds.
pub fn poisson(rate: f64, duration_s: f64, seed: u64) -> Vec<f64> {
    assert!(rate > 0.0 && duration_s > 0.0, "rate and duration must be positive");
    let mut rng = SplitMix64::new(seed);
    let mut due = Vec::with_capacity((rate * duration_s * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate;
        if t >= duration_s {
            return due;
        }
        due.push(t);
    }
}

/// Zipf(`s`) sampler over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let a = poisson(1000.0, 2.0, 7);
        assert_eq!(a, poisson(1000.0, 2.0, 7));
        assert_ne!(a, poisson(1000.0, 2.0, 8));
    }

    #[test]
    fn schedules_are_increasing_inside_the_window_at_the_offered_rate() {
        let due = poisson(5000.0, 4.0, 11);
        assert!(due.windows(2).all(|w| w[0] < w[1]));
        assert!(due.iter().all(|&t| (0.0..4.0).contains(&t)));
        // 20000 expected arrivals; Poisson sd ≈ 141, so 5 sd is ±707.
        let n = due.len() as f64;
        assert!((n - 20_000.0).abs() < 707.0, "{n} arrivals");
        // Exponential gaps: the coefficient of variation is about 1.
        let gaps: Vec<f64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "coefficient of variation {cv}");
    }

    #[test]
    fn zipf_favours_low_ranks_and_covers_all() {
        let z = Zipf::new(64, 1.1);
        let mut rng = SplitMix64::new(3);
        let mut counts = [0u32; 64];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts.windows(2).take(8).all(|w| w[0] > w[1]));
        assert!(counts.iter().all(|&c| c > 0));
        // P(rank 0) = 1 / H(64, 1.1), computed here from the definition.
        let h: f64 = (1..=64).map(|k| 1.0 / f64::from(k).powf(1.1)).sum();
        let p0 = f64::from(counts[0]) / 200_000.0;
        assert!((p0 - 1.0 / h).abs() < 0.005, "p0 = {p0}, expected {}", 1.0 / h);
    }

    #[test]
    fn bounded_draws_stay_in_range() {
        let mut rng = SplitMix64::new(1);
        assert!((0..10_000).all(|_| rng.below(10) < 10));
        assert!((0..10_000).map(|_| rng.unit()).all(|u| u > 0.0 && u < 1.0));
    }
}
