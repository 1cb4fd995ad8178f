//! The seeded input generator. Every input a workload hands the program is
//! derived here from the run's `--seed`; each op draws from its own
//! sub-seed, so op `i` of a run gets the same input whichever ops ran
//! before it.

/// SplitMix64: small, fast, and fully specified, so generated inputs do
/// not change when a library's RNG does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for the `stream`-named sub-sequence `index` of `seed`.
    pub fn new(seed: u64, stream: &str, index: u64) -> Self {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for &b in stream.as_bytes() {
            h = mix(h ^ u64::from(b));
        }
        Self(mix(h ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Log-uniform in `[lo, hi)`: each doubling of the value is as likely.
    pub fn log_range(&mut self, lo: f64, hi: f64) -> f64 {
        (self.range(lo.ln(), hi.ln())).exp()
    }
}

/// A stratified draw in `[0, 1)` for op `op`: each block of `strata`
/// consecutive ops takes every stratum once, in a seeded order, at a seeded
/// point inside it. Every run then covers the range evenly, whatever its
/// length, so a run's latency percentiles do not hinge on a lucky draw.
pub fn stratified(seed: u64, stream: &str, op: u64, strata: u64) -> f64 {
    let mut order: Vec<u64> = (0..strata).collect();
    let mut shuffle = Rng::new(seed, stream, op / strata);
    for i in (1..order.len()).rev() {
        let j = shuffle.int(0, i as u64) as usize;
        order.swap(i, j);
    }
    let stratum = order[(op % strata) as usize];
    let jitter = Rng::new(seed, stream, op).uniform();
    (stratum as f64 + jitter) / strata as f64
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The op index the set-up's warm-up op uses: outside the measured ops'
/// range, so warm-up never replays a measured input.
pub const WARMUP_OP: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, "x", 3).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            Rng::new(7, "x", 3).next_u64(),
            Rng::new(7, "x", 4).next_u64()
        );
        assert_ne!(
            Rng::new(7, "x", 3).next_u64(),
            Rng::new(7, "y", 3).next_u64()
        );
        assert_ne!(
            Rng::new(7, "x", 3).next_u64(),
            Rng::new(8, "x", 3).next_u64()
        );
    }

    #[test]
    fn stratified_draws_cover_every_stratum_per_block() {
        for block in 0..4u64 {
            let mut seen: Vec<u64> = (0..8)
                .map(|i| (stratified(3, "s", block * 8 + i, 8) * 8.0) as u64)
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..8).collect::<Vec<_>>());
        }
        assert_ne!(stratified(3, "s", 0, 8), stratified(4, "s", 0, 8));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::new(1, "b", 0);
        for _ in 0..1000 {
            let v = r.log_range(4.0, 32.0);
            assert!((4.0..32.0).contains(&v));
            let i = r.int(2, 5);
            assert!((2..=5).contains(&i));
        }
    }
}
