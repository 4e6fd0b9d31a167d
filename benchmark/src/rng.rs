//! The benchmark's only source of randomness: splitmix64, seeded from
//! `--seed`. No dependency on `crates/compat/rand` or the legacy bench
//! generator, so an engine PR cannot change the inputs by accident.

/// The splitmix64 output function (also used to derive independent
/// per-key and per-client streams from one seed).
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A splitmix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream determined by `seed` and a `stream` label, so two uses of
    /// one seed (data vs. ops, client 0 vs. client 1) never share values.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive. The modulo bias is below
    /// 2^-40 for every range the benchmark draws from.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// True with probability `pct` percent.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// FNV-1a, 64 bit: the hash `--dump-inputs` prints for data sets and op
/// streams.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_independent() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn range_stays_inside_its_bounds() {
        let mut r = Rng::new(1, 0);
        for _ in 0..10_000 {
            let v = r.range(-3, 4);
            assert!((-3..=4).contains(&v));
        }
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xAF63_DC4C_8601_EC8C);
    }
}
