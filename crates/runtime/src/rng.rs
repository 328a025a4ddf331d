//! In-repo pseudo-random number generation: splitmix64 seeding and
//! xoshiro256** generation (Blackman & Vigna), the de-facto standard
//! non-cryptographic generator pair.
//!
//! This replaces the external `rand` crate for everything the system
//! needs — workload generators, random matching orders, the randomized
//! test harness — so the workspace builds fully offline. Sequences are
//! stable across platforms and releases: generated workloads are part of
//! the experiment fixtures and must not drift underneath them.

/// One splitmix64 step: advances `*state` and returns the next output.
///
/// Used directly for seed expansion and for deriving independent
/// substream seeds (e.g. one per test case) from a base seed.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A xoshiro256** generator. 256 bits of state, period `2^256 − 1`,
/// passes BigCrush; seeded from a single `u64` via splitmix64 (the
/// initialization the xoshiro authors recommend).
#[derive(Clone, Debug)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Seed deterministically from a single `u64`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw from `[0, n)` without modulo bias (Lemire's
    /// widening-multiply rejection method). Panics if `n == 0`.
    #[inline]
    pub fn next_u64_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let t = n.wrapping_neg() % n;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform draw from a half-open integer range. Panics on an empty
    /// range.
    #[inline]
    pub fn gen_range<T: RangeInt>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample(self, range.start, range.end)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_u64_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Uniformly chosen element, `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.next_u64_below(xs.len() as u64) as usize])
        }
    }
}

/// Integer types [`Rng64::gen_range`] can sample uniformly.
pub trait RangeInt: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`.
    fn sample(rng: &mut Rng64, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl RangeInt for $t {
            #[inline]
            fn sample(rng: &mut Rng64, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range {lo}..{hi}");
                let span = (hi as u64) - (lo as u64);
                lo + rng.next_u64_below(span) as $t
            }
        }
    )*};
}

impl_range_int!(u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn known_splitmix_values() {
        // Reference values from the splitmix64 test vectors (seed 1234567).
        let mut s = 1234567u64;
        assert_eq!(splitmix64(&mut s), 6457827717110365317);
        assert_eq!(splitmix64(&mut s), 3203168211198807973);
    }

    #[test]
    fn range_bounds_and_coverage() {
        let mut rng = Rng64::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = rng.gen_range(0usize..10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&b| b), "{seen:?}");
        for _ in 0..1000 {
            let x = rng.gen_range(5u32..8);
            assert!((5..8).contains(&x));
        }
        // single-element range
        assert_eq!(rng.gen_range(3u64..4), 3);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng64::seed_from_u64(0).gen_range(5u32..5);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng64::seed_from_u64(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn bool_probabilities() {
        let mut rng = Rng64::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "{hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, sorted); // astronomically unlikely to be identity
    }

    #[test]
    fn choose_covers_slice() {
        let mut rng = Rng64::seed_from_u64(5);
        let xs = [10, 20, 30];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(*rng.choose(&xs).unwrap());
        }
        assert_eq!(seen.len(), 3);
        assert!(rng.choose::<u32>(&[]).is_none());
    }

    #[test]
    fn no_modulo_bias_smell() {
        // For n = 3 * 2^62 the naive modulo would be badly biased; check
        // the three buckets are near-uniform.
        let n = 3u64 << 62;
        let mut rng = Rng64::seed_from_u64(77);
        let mut buckets = [0u32; 3];
        for _ in 0..3000 {
            let x = rng.next_u64_below(n);
            buckets[(x / (1u64 << 62)) as usize] += 1;
        }
        for b in buckets {
            assert!((850..1150).contains(&b), "{buckets:?}");
        }
    }
}
