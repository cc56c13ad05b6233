//! The deterministic trace generator.
//!
//! [`TraceGenerator`] is an infinite iterator of [`TraceOp`]s drawn
//! from a [`WorkloadProfile`]. The same `(profile, seed)` pair always
//! yields the same trace, so every experiment in the workspace is
//! reproducible bit-for-bit.

use crate::profiles::WorkloadProfile;
use crate::{OpKind, TraceOp};
use ccnvm_mem::Addr;
use ccnvm_rng::Rng;

/// Word granularity of generated accesses.
const WORD: u64 = 8;

/// `next % region` for a stream pointer that advanced to `next`. A
/// stream inside its region wraps by one compare and subtract; the
/// modulo is left for a pointer that started past its region (or a
/// region smaller than a word).
#[inline]
fn wrap(next: u64, region: u64) -> u64 {
    if next < region {
        next
    } else if next - region < region {
        next - region
    } else {
        next % region
    }
}

/// `x.round() as u32` for every `x ≥ 0`, without the libm call: the
/// truncation `t`, plus one when the dropped fraction `x − t` is at
/// least a half. Below 2³² that subtraction is exact; from there up,
/// ∞ included, both sides saturate to `u32::MAX`, and NaN gives 0 on
/// both.
#[inline]
fn round_gap(x: f64) -> u32 {
    let t = x as u32;
    t.saturating_add(u32::from(x - f64::from(t) >= 0.5))
}

/// Infinite, deterministic stream of trace operations.
///
/// The per-op path ([`Iterator::next`]) divides nothing, calls no libm
/// routine and inlines into its caller: every quotient it needs is
/// derived once, in [`TraceGenerator::new`].
///
/// # Example
///
/// ```
/// use ccnvm_trace::{profiles, TraceGenerator};
///
/// let p = profiles::mixed();
/// let a: Vec<_> = TraceGenerator::new(p.clone(), 7).take(100).collect();
/// let b: Vec<_> = TraceGenerator::new(p, 7).take(100).collect();
/// assert_eq!(a, b); // same seed, same trace
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    rng: Rng,
    stream_ptrs: Vec<u64>,
    next_stream: usize,
    cold_window_base: u64,
    cold_accesses: u32,
    /// Upper end of the uniform gap draw, `2·max(mean_gap, 0)`.
    gap_bound: f64,
    /// The region the sequential streams wrap within.
    stream_region: u64,
    /// Words in the hot set, the warm set and the cold window.
    hot_words: u64,
    warm_words: u64,
    cold_window_words: u64,
    /// `hot_prob + warm_prob`: a tier draw below it and not below
    /// `hot_prob` lands in the warm set.
    warm_limit: f64,
}

/// Cold accesses cluster inside a window this large …
const COLD_WINDOW_BYTES: u64 = 2 * 1024 * 1024;
/// … which relocates after this many cold accesses. Real irregular
/// codes (lattice sweeps, sparse matrices) touch large footprints in
/// moving spans, not uniformly at random; without this the synthetic
/// cold tier would thrash the counter cache far beyond anything SPEC
/// does.
const COLD_WINDOW_PERIOD: u32 = 1024;

impl TraceGenerator {
    /// Creates a generator for `profile` seeded with `seed`.
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let ws = profile.working_set_bytes;
        let loc = &profile.locality;
        let region = match loc.stream_bytes {
            0 => ws,
            sb => sb.min(ws),
        };
        let streams = loc.streams.max(1);
        // Concurrent streams start on distinct pages but close together
        // (≤ 2 MB apart), the way stencil/grid codes walk adjacent
        // arrays — this is what lets their Merkle-tree paths share
        // upper levels.
        let spacing = (region / streams as u64).min(2 * 1024 * 1024);
        let stream_ptrs = (0..streams)
            .map(|i| {
                let base = spacing * i as u64;
                base + rng.gen_range(0..WORD * 64) / WORD * WORD
            })
            .collect();
        Self {
            gap_bound: 2.0 * profile.mean_gap().max(0.0),
            stream_region: region,
            hot_words: loc.hot_bytes.clamp(WORD, ws) / WORD,
            warm_words: loc.warm_bytes.clamp(WORD, ws) / WORD,
            cold_window_words: COLD_WINDOW_BYTES.min(ws) / WORD,
            warm_limit: loc.hot_prob + loc.warm_prob,
            profile,
            rng,
            stream_ptrs,
            next_stream: 0,
            cold_window_base: 0,
            cold_accesses: 0,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Generates an address; `(addr, force_read)` where `force_read`
    /// marks an access on a read-only stream.
    #[inline]
    fn gen_addr(&mut self) -> (u64, bool) {
        let ws = self.profile.working_set_bytes;
        let loc = &self.profile.locality;
        if self.rng.gen_bool(loc.stream_fraction) {
            // Continue one of the sequential streams, word by word,
            // wrapping within the stream region.
            let idx = self.next_stream;
            self.next_stream = if idx + 1 == self.stream_ptrs.len() {
                0
            } else {
                idx + 1
            };
            let addr = self.stream_ptrs[idx];
            self.stream_ptrs[idx] = wrap(addr + WORD, self.stream_region);
            let read_only = loc.write_streams != 0 && idx >= loc.write_streams;
            return (addr, read_only);
        }
        // Three-tier reuse: hot (≈L1-resident) and warm (≈L2-scale)
        // sets at the base of the working set, cold uniform otherwise.
        let tier = self.rng.gen_range(0.0..1.0);
        if tier < loc.hot_prob {
            return (self.rng.gen_range(0..self.hot_words) * WORD, false);
        }
        if tier < self.warm_limit {
            return (self.rng.gen_range(0..self.warm_words) * WORD, false);
        }
        // Cold tier: a sliding window over the full working set. The
        // window starts on a page below `ws` and its offset is below
        // `ws`, so one subtract wraps their sum.
        if self.cold_accesses.is_multiple_of(COLD_WINDOW_PERIOD) {
            self.cold_window_base = self.rng.gen_range(0..ws / 4096) * 4096;
        }
        self.cold_accesses = self.cold_accesses.wrapping_add(1);
        let addr = self.cold_window_base + self.rng.gen_range(0..self.cold_window_words) * WORD;
        (if addr < ws { addr } else { addr - ws }, false)
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceOp;

    #[inline]
    fn next(&mut self) -> Option<TraceOp> {
        // Uniform on [0, 2·mean]: keeps the configured memory intensity
        // in expectation with bounded burstiness.
        let gap_instrs = round_gap(self.rng.gen_range(0.0..=self.gap_bound));
        let mut kind = if self.rng.gen_bool(self.profile.write_fraction) {
            OpKind::Write
        } else {
            OpKind::Read
        };
        let (addr, force_read) = self.gen_addr();
        if force_read {
            kind = OpKind::Read;
        }
        Some(TraceOp {
            gap_instrs,
            kind,
            addr: Addr(addr),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    fn take(name: &str, seed: u64, n: usize) -> Vec<TraceOp> {
        TraceGenerator::new(profiles::by_name(name).unwrap(), seed)
            .take(n)
            .collect()
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(take("gcc", 1, 500), take("gcc", 1, 500));
        assert_ne!(take("gcc", 1, 500), take("gcc", 2, 500));
    }

    #[test]
    fn addresses_stay_in_working_set() {
        let p = profiles::by_name("hmmer").unwrap();
        let ws = p.working_set_bytes;
        for op in TraceGenerator::new(p, 3).take(10_000) {
            assert!(op.addr.0 < ws, "{} outside working set", op.addr);
        }
    }

    #[test]
    fn write_fraction_is_respected_without_read_streams() {
        // gcc has no read-only streams, so the per-op probability is
        // observed directly.
        let p = profiles::by_name("gcc").unwrap();
        assert_eq!(p.locality.write_streams, 0);
        let n = 50_000;
        let writes = TraceGenerator::new(p.clone(), 4)
            .take(n)
            .filter(|o| o.kind == OpKind::Write)
            .count();
        let observed = writes as f64 / n as f64;
        assert!(
            (observed - p.write_fraction).abs() < 0.02,
            "observed write fraction {observed}"
        );
    }

    #[test]
    fn read_only_streams_suppress_their_stores() {
        // lbm: 4 streams, 2 may write. Expected write share =
        // wf × (1 − stream_fraction × read_stream_share).
        let p = profiles::by_name("lbm").unwrap();
        let loc = &p.locality;
        assert_eq!(loc.write_streams, 2);
        let read_share = (loc.streams - loc.write_streams) as f64 / loc.streams as f64;
        let expect = p.write_fraction * (1.0 - loc.stream_fraction * read_share);
        let n = 50_000;
        let writes = TraceGenerator::new(p.clone(), 4)
            .take(n)
            .filter(|o| o.kind == OpKind::Write)
            .count();
        let observed = writes as f64 / n as f64;
        assert!(
            (observed - expect).abs() < 0.02,
            "observed {observed} vs expected {expect}"
        );
    }

    #[test]
    fn memory_intensity_is_respected() {
        let p = profiles::by_name("libquantum").unwrap();
        let n = 50_000u64;
        let instrs: u64 = TraceGenerator::new(p.clone(), 5)
            .take(n as usize)
            .map(|o| o.instrs())
            .sum();
        let observed_mpki = n as f64 * 1000.0 / instrs as f64;
        let expect = p.mem_ops_per_kilo_instrs as f64;
        assert!(
            (observed_mpki - expect).abs() / expect < 0.05,
            "observed {observed_mpki} vs {expect}"
        );
    }

    #[test]
    fn streaming_profile_walks_sequentially() {
        use crate::profiles::{LocalityModel, WorkloadProfile};
        // A pure single-stream profile: ~90% of adjacent pairs continue
        // the stream (0.95²).
        let p = WorkloadProfile::new(
            "stream-test",
            300,
            0.3,
            1 << 20,
            LocalityModel::streaming(1),
        );
        let ops: Vec<TraceOp> = TraceGenerator::new(p, 6).take(2_000).collect();
        let sequential = ops
            .windows(2)
            .filter(|w| w[1].addr.0 == w[0].addr.0 + 8)
            .count();
        assert!(
            sequential as f64 / ops.len() as f64 > 0.8,
            "only {sequential} sequential pairs"
        );
    }

    #[test]
    fn hot_tier_concentrates_accesses() {
        let p = profiles::by_name("hmmer").unwrap();
        let hot = p.locality.hot_bytes;
        let n = 20_000;
        let in_hot = TraceGenerator::new(p, 12)
            .take(n)
            .filter(|o| o.addr.0 < hot)
            .count();
        // stream accesses may also fall there, so just require a strong
        // concentration relative to the hot set's share of the WS.
        assert!(
            in_hot as f64 / n as f64 > 0.4,
            "only {in_hot}/{n} accesses in the hot set"
        );
    }

    /// FNV-1a over the first `n` ops' gap, kind and address bytes.
    fn digest(gen: TraceGenerator, n: usize) -> u64 {
        gen.take(n)
            .flat_map(|op| {
                let mut b = [0u8; 13];
                b[..4].copy_from_slice(&op.gap_instrs.to_le_bytes());
                b[4] = u8::from(op.kind == OpKind::Write);
                b[5..].copy_from_slice(&op.addr.0.to_le_bytes());
                b
            })
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// The nine named profiles, the benchmark's 1 GiB read-only
    /// `irregular(0.3)` cold-read shape, and a 64-byte stream region
    /// whose second stream starts past it.
    fn pinned_profiles() -> Vec<WorkloadProfile> {
        use crate::profiles::LocalityModel;
        let mut all = profiles::spec2006();
        all.push(profiles::mixed());
        all.push(WorkloadProfile::new(
            "cold-read",
            400,
            0.0,
            1 << 30,
            LocalityModel::irregular(0.3),
        ));
        all.push(WorkloadProfile::new(
            "tiny-stream",
            300,
            0.3,
            1 << 20,
            LocalityModel {
                stream_bytes: 64,
                ..LocalityModel::streaming(2)
            },
        ));
        all
    }

    /// Digests of the first 200k ops at seeds 0, 42 and `u64::MAX`,
    /// captured before the per-op path lost its divisions and its libm
    /// call: a host-speed change to the generator must keep every draw.
    #[test]
    fn output_is_pinned() {
        // One row per `pinned_profiles()` entry: seeds 0, 42, u64::MAX.
        #[rustfmt::skip]
        const PINNED: [[u64; 3]; 11] = [
            [0xfcf4_fcb4_f3b3_b28a, 0xf3a0_83d0_cf7c_ad72, 0x4ff5_72ab_0c21_0b76], // leslie3d
            [0xa58e_5d4f_4b85_f77f, 0xbfc2_9508_9253_6e7f, 0x03cf_bb29_d7e7_2972], // libquantum
            [0x4c93_449c_8293_06c7, 0x6f23_691f_0db1_69b8, 0x28d0_74f2_653f_76c7], // gcc
            [0x9350_8c23_51b3_93ec, 0x57c4_4fae_155f_211f, 0x326f_22a2_c0b3_d2d9], // lbm
            [0x258e_b402_501a_7ca6, 0xdfbb_f773_993f_82bd, 0x5aa8_bd51_05c2_6ac2], // soplex
            [0x61f0_6a13_b803_a837, 0x13cc_5d29_7807_9e3f, 0x1c08_f7e1_88e9_700a], // hmmer
            [0xd0c8_40e1_c66c_ec63, 0xb135_9704_5ec3_0a7b, 0xe8a7_44e1_207d_4575], // milc
            [0x919d_8501_02d9_6ce0, 0xab9b_4a46_2a1a_6a6c, 0x6837_5c55_f040_586d], // namd
            [0xf3c4_ab04_8a22_6d01, 0xeaee_4732_f097_e602, 0x23ff_21df_46fe_99aa], // mixed
            [0x834c_6c48_98f0_a95a, 0x9eb5_8deb_f9ac_24c5, 0x4edc_6328_15b5_4283], // cold-read
            [0x75b2_3241_ba7b_5dbb, 0x2c85_f9d2_b380_2926, 0x0066_682b_a3cc_01b6], // tiny-stream
        ];
        let profiles = pinned_profiles();
        assert_eq!(profiles.len(), PINNED.len());
        for (p, want) in profiles.into_iter().zip(PINNED) {
            let name = &p.name;
            for (seed, want) in [0, 42, u64::MAX].into_iter().zip(want) {
                let gen = TraceGenerator::new(p.clone(), seed);
                if name == "tiny-stream" {
                    // The wrap keeps its modulo for exactly this case.
                    assert!(gen.stream_ptrs[1] >= 64, "seed {seed}: starts inside");
                }
                assert_eq!(digest(gen, 200_000), want, "{name} at seed {seed}");
            }
        }
    }

    /// `round_gap` against `f64::round` where the two could part:
    /// half-way points and their one-ulp neighbours, 0, the widest gap a
    /// profile draws (1998), the `u32` edge and beyond, ∞, NaN, and a
    /// seeded sweep over gaps and over every non-negative bit pattern.
    #[test]
    fn round_gap_matches_f64_round() {
        let step = |x: f64, ulps: i64| f64::from_bits(x.to_bits().wrapping_add_signed(ulps));
        let mut xs = vec![0.0, -0.0, 1998.0, 1e300, f64::MAX, f64::INFINITY, f64::NAN];
        let ks: [u64; 11] = [
            0,
            1,
            2,
            999,
            1997,
            1998,
            (1 << 31) - 1,
            (1 << 32) - 2,
            (1 << 32) - 1,
            1 << 32,
            1 << 52,
        ];
        for k in ks {
            let half = k as f64 + 0.5;
            xs.extend([k as f64, half, step(half, -1), step(half, 1)]);
        }
        let mut rng = Rng::seed_from_u64(11);
        xs.extend((0..100_000).map(|_| rng.gen_range(0.0..=1998.0)));
        xs.extend((0..100_000).map(|_| f64::from_bits(rng.next_u64() >> 1)));
        for x in xs {
            assert_eq!(round_gap(x), x.round() as u32, "x = {x:e}");
        }
    }

    #[test]
    fn words_are_aligned() {
        for op in TraceGenerator::new(profiles::mixed(), 8).take(5_000) {
            assert_eq!(op.addr.0 % 8, 0);
        }
    }
}
