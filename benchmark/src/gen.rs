//! Benchmark-owned input generation: a splitmix64 PRNG, a counter-based
//! uniform data generator, and an order-sensitive digest. Inputs depend on
//! `--seed` only — not on `crates/workloads` or `vendor/rand`, which later
//! PRs stay free to change without moving the benchmark's inputs.

use durable_topk_temporal::Dataset;

/// Attribute arity of every benchmark dataset.
pub const DIM: usize = 3;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 output function applied to `x`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps 64 random bits to a uniform `f64` in `[0, 1)`.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Sequential splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream determined by `seed` and a per-use `tag`, so independent
    /// consumers of one `--seed` never share a sequence.
    pub fn new(seed: u64, tag: u64) -> Self {
        Rng(mix(seed ^ mix(tag)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        unit(self.next_u64())
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: bias is below 2^-32 for the sizes used here.
        ((self.next_u64() >> 32) * n) >> 32
    }

    /// A fresh non-negative linear preference vector (weights in
    /// `[0.05, 1)`, so no attribute is ever ignored).
    pub fn weights(&mut self) -> Vec<f64> {
        (0..DIM).map(|_| 0.05 + 0.95 * self.f64()).collect()
    }
}

/// Counter-based uniform data: record `i` is a pure function of
/// `(seed, i)`, so the appender thread, the engine builders and the
/// brute-force checker all see the same timeline without sharing storage.
#[derive(Debug, Clone, Copy)]
pub struct Data {
    key: u64,
}

impl Data {
    pub fn new(seed: u64) -> Self {
        Data { key: mix(seed ^ 0xDA7A) }
    }

    /// Attributes of global record `i`, each uniform in `[0, 1)`.
    pub fn row(&self, i: u64) -> [f64; DIM] {
        let base = self.key.wrapping_add(i.wrapping_mul(DIM as u64));
        std::array::from_fn(|j| unit(mix(base.wrapping_add(j as u64))))
    }

    /// Records `[lo, hi)` of the timeline as a dataset.
    pub fn dataset(&self, lo: u64, hi: u64) -> Dataset {
        let mut ds = Dataset::with_capacity(DIM, (hi - lo) as usize);
        for i in lo..hi {
            ds.push(&self.row(i));
        }
        ds
    }
}

/// Order-sensitive 64-bit digest (splitmix fold) for `inputs_digest` and
/// `answers_digest`.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0x5EED)
    }

    pub fn push(&mut self, word: u64) {
        self.0 = mix(self.0 ^ word);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_rows_are_random_access() {
        let (a, b) = (Data::new(7), Data::new(7));
        assert_eq!(a.row(12_345), b.row(12_345));
        assert_ne!(a.row(12_345), Data::new(8).row(12_345));
        let ds = a.dataset(100, 110);
        assert_eq!(ds.row(3), a.row(103));
        let mut r = Rng::new(7, 1);
        let mut s = Rng::new(7, 1);
        assert_eq!(r.next_u64(), s.next_u64());
        assert_ne!(Rng::new(7, 2).next_u64(), Rng::new(7, 1).next_u64());
    }

    #[test]
    fn draws_stay_in_range() {
        let mut r = Rng::new(1, 0);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
        assert!(r.weights().iter().all(|w| (0.05..1.0).contains(w)));
    }
}
