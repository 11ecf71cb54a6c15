//! Offline stand-in for [rand](https://docs.rs/rand) 0.8 exposing the
//! subset the workspace uses: `SmallRng::seed_from_u64`, `Rng::{gen,
//! gen_bool, gen_range}` and `RngCore::next_u64`.
//!
//! `SmallRng` is xoshiro256++ seeded through SplitMix64, the same generator
//! family real rand 0.8 uses on 64-bit targets. Streams are deterministic
//! for a given seed, which is all the simulation relies on (nothing here is
//! cryptographic).

use std::ops::{Range, RangeInclusive};

/// Core entropy source: 64-bit output blocks.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (SplitMix64-expanded).
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples from the "standard" distribution of `T` (unit interval for
    /// floats, full range for integers).
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        unit_f64(self.next_u64()) < p
    }

    /// Uniform sample from a half-open or inclusive range.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        Self: Sized,
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }
}

impl<R: RngCore> Rng for R {}

/// Types samplable by [`Rng::gen`].
pub trait StandardSample: Sized {
    /// Draws one standard-distributed value.
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        // 24 explicit mantissa bits.
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl StandardSample for u64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T;
}

/// Types with a uniform sampler. The single blanket `SampleRange` impl per
/// range shape (mirroring real rand) is what lets unsuffixed literals in
/// `gen_range(1.5..5.0)` unify with the use-site type.
pub trait SampleUniform: Sized {
    /// Uniform in `[low, high)`.
    fn sample_half_open<R: RngCore>(rng: &mut R, low: Self, high: Self) -> Self;
    /// Uniform in `[low, high]`.
    fn sample_inclusive<R: RngCore>(rng: &mut R, low: Self, high: Self) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T {
        let (start, end) = self.into_inner();
        T::sample_inclusive(rng, start, end)
    }
}

/// `u64 → [0, 1)` with 53 bits of precision (the rand convention).
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! impl_int_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low < high, "gen_range: empty range");
                let span = high.wrapping_sub(low) as u64;
                low.wrapping_add((rng.next_u64() % span) as $t)
            }
            fn sample_inclusive<R: RngCore>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low <= high, "gen_range: empty range");
                let span = (high.wrapping_sub(low) as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range.
                    return rng.next_u64() as $t;
                }
                low.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

impl_int_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low < high, "gen_range: empty range");
                low + (high - low) * unit_f64(rng.next_u64()) as $t
            }
            fn sample_inclusive<R: RngCore>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low <= high, "gen_range: empty range");
                low + (high - low) * unit_f64(rng.next_u64()) as $t
            }
        }
    )*};
}

impl_float_uniform!(f32, f64);

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — small, fast, deterministic; rand 0.8's `SmallRng`
    /// family on 64-bit targets.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 state expansion, per the xoshiro authors'
            // recommendation for seeding from a single word.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            SmallRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..1000 {
            let i = rng.gen_range(3u64..17);
            assert!((3..17).contains(&i));
            let j = rng.gen_range(1u32..=4);
            assert!((1..=4).contains(&j));
            let f = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits = {hits}");
    }
}
