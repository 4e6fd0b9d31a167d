//! Test configuration and the deterministic RNG behind generation.

/// Per-test configuration, mirroring `proptest::test_runner::Config`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config whose case count comes from the `PROPTEST_CASES`
    /// environment variable (mirroring real proptest), falling back to
    /// `default_cases` when unset or unparsable. The only constructor, so
    /// CI can crank every suite up (e.g. `PROPTEST_CASES=256` on the
    /// differential-oracle leg) without touching the tests.
    pub fn from_env_or(default_cases: u32) -> ProptestConfig {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_cases);
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// 64 cases, overridable via `PROPTEST_CASES` (like real proptest).
    fn default() -> ProptestConfig {
        ProptestConfig::from_env_or(64)
    }
}

/// A deterministic splitmix64 generator; each test seeds one from its own
/// name so runs are reproducible without any persisted failure files.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// An RNG from a raw seed.
    pub fn new(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// An RNG seeded from a test name (FNV-1a over the bytes).
    pub fn from_name(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng::new(h)
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform sample in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform sample in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
