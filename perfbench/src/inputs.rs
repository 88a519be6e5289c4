//! Seeded input generation: every input the program sees (campaign
//! seeds, job specs, DSR pools, arrival times) derives from the
//! benchmark's `--seed` through this generator.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for input stream `stream` of workload seed `seed`, so
    /// independent inputs do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Due times, in seconds from the start of the window, of a Poisson
/// arrival process with mean `rate` per second over `window` seconds.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, window: f64) -> Vec<f64> {
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= window {
            return due;
        }
        due.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(&mut Rng::new(7, 1), 30.0, 20.0);
        let b = poisson_schedule(&mut Rng::new(7, 1), 30.0, 20.0);
        let c = poisson_schedule(&mut Rng::new(8, 1), 30.0, 20.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "due times ascend");
        // Mean rate within a few standard deviations of 30/s (600 expected).
        assert!((500..700).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn streams_of_one_seed_differ() {
        assert_ne!(Rng::new(1, 0).next_u64(), Rng::new(1, 1).next_u64());
    }
}
