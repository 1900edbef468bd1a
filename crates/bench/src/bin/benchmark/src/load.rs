//! Seeded load: the random source, Poisson arrival schedules and Zipf
//! tenant popularity. Every input the benchmark generates comes from here
//! or from the workspace's own seeded generators, keyed by `--seed`.

/// SplitMix64 — tiny, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` is always finite).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    /// Uniform in `[-0.5, 0.5)`.
    pub fn centered(&mut self) -> f32 {
        (self.unit() - 0.5) as f32
    }

    /// An independent stream for another purpose, so adding draws to one
    /// stream never shifts another.
    pub fn fork(&mut self, purpose: u64) -> Rng {
        Rng::new(self.next_u64() ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F))
    }
}

/// Arrival offsets, in seconds from the phase start, of a Poisson process
/// at `rate` per second over `[0, duration)`.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, duration: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate * duration * 1.1) as usize + 16);
    let mut t = -rng.unit().ln() / rate;
    while t < duration {
        out.push(t);
        t += -rng.unit().ln() / rate;
    }
    out
}

/// Zipf popularity over `n` items: item `k` (0-based) is drawn with
/// probability proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    #[cfg(test)]
    pub fn probability(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_per_seed_and_hits_the_rate() {
        let a = poisson_arrivals(&mut Rng::new(7), 1000.0, 10.0);
        let b = poisson_arrivals(&mut Rng::new(7), 1000.0, 10.0);
        assert_eq!(a, b);
        assert_ne!(a, poisson_arrivals(&mut Rng::new(8), 1000.0, 10.0));
        // About 10k draws; the achieved rate must sit within 2 % of 1000/s.
        let rate = a.len() as f64 / 10.0;
        assert!((rate / 1000.0 - 1.0).abs() < 0.02, "rate {rate}");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals ascend");
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
    }

    #[test]
    fn zipf_schedule_repeats_per_seed_and_hits_the_popularity() {
        let z = Zipf::new(8, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..10_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a, draw(12));
        let total: f64 = (0..8).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Harmonic weights: the hottest of 8 tenants takes 1/H(8) ≈ 0.368.
        assert!((z.probability(0) - 0.3679).abs() < 1e-3);
        // Each tenant's share of 10k draws within 2 percentage points (the
        // largest share's standard error is 0.005).
        for k in 0..8 {
            let share = a.iter().filter(|&&x| x == k).count() as f64 / a.len() as f64;
            let want = z.probability(k);
            assert!(
                (share - want).abs() < 0.02,
                "tenant {k}: share {share} vs {want}"
            );
        }
    }

    #[test]
    fn unit_draws_stay_in_the_half_open_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..100_000 {
            let u = rng.unit();
            assert!(u > 0.0 && u <= 1.0);
        }
        assert!((0..1000).all(|_| rng.below(8) < 8));
    }
}
