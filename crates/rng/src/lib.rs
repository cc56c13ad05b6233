//! Small, dependency-free deterministic PRNG.
//!
//! The workspace needs exactly two things from a random-number
//! generator: bit-for-bit reproducibility from a `u64` seed (every
//! experiment is keyed by `(profile, seed)`), and good statistical
//! quality for synthetic workload shapes. Neither requires a
//! cryptographic generator, so this crate implements xoshiro256**
//! (Blackman & Vigna) seeded through SplitMix64 — the standard
//! construction — with the small sampling surface the workspace uses:
//! uniform integer/float ranges, Bernoulli draws and byte fills.
//!
//! # Example
//!
//! ```
//! use ccnvm_rng::Rng;
//!
//! let mut a = Rng::seed_from_u64(7);
//! let mut b = Rng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
//! let x = a.gen_range(10u64..20);
//! assert!((10..20).contains(&x));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Deterministic xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

/// One SplitMix64 step — used to expand the seed into the full state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// A uniform `f64` in `[0, 1)` (53 significant bits).
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to
    /// `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform sample from `range` (see [`SampleRange`] for the
    /// supported range types).
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Fills `buf` with uniform random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// A uniform random byte array.
    pub fn gen_array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.fill_bytes(&mut out);
        out
    }

    /// A uniform random byte vector of length `len`.
    pub fn gen_bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.fill_bytes(&mut out);
        out
    }

    /// Uniform `u64` below `bound` via Lemire's multiply-shift (the
    /// tiny modulo bias of one 128-bit multiply is irrelevant for
    /// simulation workloads and far below what any test resolves).
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// Range types [`Rng::gen_range`] can sample uniformly.
pub trait SampleRange {
    /// The sampled value type.
    type Output;

    /// Draws one uniform sample from `self`.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;

            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }

        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;

            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

impl SampleRange for Range<f64> {
    type Output = f64;

    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;

    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range");
        start + rng.gen_f64() * (end - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::seed_from_u64(43);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.gen_range(5u64..17);
            assert!((5..17).contains(&x));
            let y = r.gen_range(3u8..=7);
            assert!((3..=7).contains(&y));
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let g = r.gen_range(0.0f64..=2.0);
            assert!((0.0..=2.0).contains(&g));
        }
    }

    #[test]
    fn integer_ranges_hit_every_value() {
        let mut r = Rng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn f64_is_roughly_uniform() {
        let mut r = Rng::seed_from_u64(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.gen_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Rng::seed_from_u64(4);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.gen_bool(0.3)).count();
        let observed = hits as f64 / n as f64;
        assert!((observed - 0.3).abs() < 0.01, "observed {observed}");
        let mut r = Rng::seed_from_u64(5);
        assert!(!(0..1000).any(|_| r.gen_bool(0.0)));
        assert!((0..1000).all(|_| {
            let mut dummy = Rng::seed_from_u64(6);
            dummy.gen_bool(1.0)
        }));
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = Rng::seed_from_u64(7);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 13]);
        let v = Rng::seed_from_u64(8).gen_bytes(5);
        assert_eq!(v.len(), 5);
        let a: [u8; 16] = Rng::seed_from_u64(9).gen_array();
        let b: [u8; 16] = Rng::seed_from_u64(9).gen_array();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::seed_from_u64(0).gen_range(5u64..5);
    }
}
