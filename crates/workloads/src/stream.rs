//! Turning a [`WorkloadProfile`] into an executable instruction stream.
//!
//! [`ProfileStream`] synthesizes a dynamic instruction sequence whose
//! statistics match the profile: instruction mix, dependency tightness,
//! three-level data locality (hot / warm / cold), sequential-vs-scattered
//! cold traffic, a large code footprint that misses in the L1-I, and bursty
//! operating-system execution that dilutes the user-instruction count
//! exactly the way the paper's UIPC metric expects.

use crate::profile::WorkloadProfile;
use ntc_sim::{Instr, InstructionStream, OpClass};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Bytes of per-core hot data (comfortably L1-resident).
pub const HOT_BYTES: u64 = 16 << 10;

/// Base address of the per-core hot data regions.
pub const HOT_DATA_BASE: u64 = 0x4000_0000;

/// Base address of the cluster-shared warm region.
pub const WARM_BASE: u64 = 0x8000_0000;

/// Base address of the cold dataset.
pub const COLD_BASE: u64 = 0x1_0000_0000;

/// Base address of the hot code loop.
pub const HOT_CODE_BASE: u64 = 0x7000_0000;

/// Base address of the cold code footprint.
pub const COLD_CODE_BASE: u64 = 0x9000_0000;

/// Instructions per OS burst (syscall/softirq scale).
const OS_BURST: u64 = 300;

/// Instructions fetched from a cold code line before returning to the hot
/// loop (one 64-byte line of 4-byte instructions).
const COLD_CODE_BURST: u64 = 16;

/// Hot code loop size in lines (fits a 32 KB L1-I with room to spare).
pub const HOT_CODE_LINES: u64 = 256;

/// `2^53`: the rand shim's unit float is `(w >> 11) · 2^-53`.
const UNIT_SCALE: f64 = (1u64 << 53) as f64;

/// The integer cut `c` with `(w >> 11) < c` exactly when the shim's
/// `unit_f64(w) < p`.
///
/// `unit_f64(w)` is the 53-bit integer `m = w >> 11` scaled by `2^-53`,
/// and scaling by a power of two is exact, so `m · 2^-53 < p` holds iff
/// `m < p · 2^53`, iff `m < ⌈p · 2^53⌉` for the integer `m`. The float
/// cast saturates: a cut at or above `2^53` always passes, and a
/// negative (or NaN) `p` never does — as with the float compare.
fn unit_cut(p: f64) -> u64 {
    (p * UNIT_SCALE).ceil() as u64
}

/// Exact `n % d` for a fixed divisor `d`, by multiplication: with the
/// 128-bit magic `m = ⌈2^128 / d⌉`, `n % d` is the high 64 bits of
/// `(m · n mod 2^128) · d` for every 64-bit `n` and `d` (Lemire, Kaser &
/// Kurz, "Faster Remainder by Direct Computation", 2019). The shim's
/// `gen_range(0..d)` is `w % d`, so this replaces a hardware divide per
/// draw without changing a bit.
#[derive(Debug, Clone, Copy)]
struct FastRem {
    /// `⌊(2^128 − 1) / d⌋ + 1`, which wraps to 0 for `d = 1` (and every
    /// remainder by 1 is 0).
    magic: u128,
    d: u64,
}

impl FastRem {
    fn new(d: u64) -> Self {
        assert!(d > 0, "remainder by zero");
        FastRem {
            magic: (u128::MAX / u128::from(d)).wrapping_add(1),
            d,
        }
    }

    #[inline]
    fn rem(self, n: u64) -> u64 {
        let frac = self.magic.wrapping_mul(u128::from(n));
        let d = u128::from(self.d);
        // High 64 bits of the 192-bit product `frac · d`, in two halves
        // that cannot overflow.
        let low = (u128::from(frac as u64) * d) >> 64;
        (((frac >> 64) * d + low) >> 64) as u64
    }
}

/// A profile compiled to the integer draws [`ProfileStream`] makes.
///
/// Every cut is the float threshold the profile implies, computed once
/// with the same f64 sums in the same order the float comparisons used,
/// then turned into an integer by [`unit_cut`]; every range is a
/// [`FastRem`]. Kept out of [`WorkloadProfile`], whose JSON keys the
/// measurement cache.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Per-instruction chance of entering an OS burst; `None` when the
    /// profile has no OS time (no word is drawn then).
    os_burst: Option<u64>,
    code_cold: u64,
    code_lines: FastRem,
    /// Cumulative op-mix cuts: load, store, branch, fp (the rest is ALU).
    op: [u64; 4],
    mispredict: u64,
    hot: u64,
    hot_or_warm: u64,
    warm_lines: FastRem,
    cold_lines: FastRem,
    cold_streaming: bool,
    cold_bytes: u64,
    /// The 70 % chance of reading a recent producer.
    dep: u64,
    /// Dependency distances are drawn from `1..=dep_span`.
    dep_span: FastRem,
}

impl Plan {
    fn new(p: &WorkloadProfile) -> Self {
        let os_burst = (p.os_fraction > 0.0).then(|| {
            let rate = p.os_fraction / OS_BURST as f64 / (1.0 - p.os_fraction).max(1e-9);
            unit_cut(rate.min(1.0))
        });
        let dep_span = (p.dep_dist_mean * 2.0).max(2.0) as u16;
        Plan {
            os_burst,
            code_cold: unit_cut(p.code_cold_rate),
            code_lines: FastRem::new(p.code_bytes / 64),
            op: [
                unit_cut(p.loads),
                unit_cut(p.loads + p.stores),
                unit_cut(p.loads + p.stores + p.branches),
                unit_cut(p.loads + p.stores + p.branches + p.fp),
            ],
            mispredict: unit_cut(p.branch_mispredict),
            hot: unit_cut(p.hot_fraction),
            hot_or_warm: unit_cut(p.hot_fraction + p.warm_fraction),
            // Without warm traffic the warm cut equals the hot cut, so the
            // warm range is never drawn from and may be empty.
            warm_lines: FastRem::new((p.warm_bytes / 64).max(1)),
            cold_lines: FastRem::new(p.cold_bytes / 64),
            cold_streaming: p.cold_streaming,
            cold_bytes: p.cold_bytes,
            dep: unit_cut(0.7),
            dep_span: FastRem::new(u64::from(dep_span)),
        }
    }
}

/// The 53 bits of a word the shim's unit float keeps.
#[inline]
fn unit_bits(rng: &mut SmallRng) -> u64 {
    rng.next_u64() >> 11
}

/// Executable synthetic stream for one core.
#[derive(Debug)]
pub struct ProfileStream {
    profile: WorkloadProfile,
    plan: Plan,
    rng: SmallRng,
    /// Base of this core's private hot region.
    hot_base: u64,
    /// Base of the cluster-shared warm region.
    warm_base: u64,
    /// Base of the cold dataset.
    cold_base: u64,
    /// Streaming cursor within the cold dataset.
    cold_cursor: u64,
    /// Hot-loop program counter (line index).
    hot_pc_line: u64,
    /// Remaining instructions in a cold-code burst, and the burst's line.
    cold_code_left: u64,
    cold_code_line: u64,
    /// Remaining instructions in an OS burst.
    os_left: u64,
    /// Whether the previous instruction was a load (consumer chaining).
    prev_was_load: bool,
}

impl ProfileStream {
    /// Builds the stream for one core; `seed` differentiates cores (pass
    /// the core id) and seeds the generator.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`WorkloadProfile::validate`].
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        profile.validate();
        let slot = seed % 64;
        ProfileStream {
            plan: Plan::new(&profile),
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0FFEE),
            hot_base: HOT_DATA_BASE + slot * HOT_BYTES,
            warm_base: WARM_BASE,
            cold_base: COLD_BASE,
            cold_cursor: (profile.cold_bytes / 64) * slot / 64 * 64,
            hot_pc_line: 0,
            cold_code_left: 0,
            cold_code_line: 0,
            os_left: 0,
            prev_was_load: false,
            profile,
        }
    }

    /// The profile driving this stream.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Base address of the hot region for the core using `seed`.
    pub fn hot_base_for(seed: u64) -> u64 {
        HOT_DATA_BASE + (seed % 64) * HOT_BYTES
    }

    #[inline]
    fn next_pc(&mut self) -> u64 {
        // Cold-code burst in progress: walk the cold line.
        if self.cold_code_left > 0 {
            self.cold_code_left -= 1;
            let offset = (COLD_CODE_BURST - 1 - self.cold_code_left) * 4;
            return COLD_CODE_BASE + self.cold_code_line * 64 + offset;
        }
        // Enter a cold-code burst?
        if unit_bits(&mut self.rng) < self.plan.code_cold {
            self.cold_code_line = self.plan.code_lines.rem(self.rng.next_u64());
            self.cold_code_left = COLD_CODE_BURST - 1;
            return COLD_CODE_BASE + self.cold_code_line * 64;
        }
        // Hot loop: sequential lines, wrapping.
        self.hot_pc_line = (self.hot_pc_line + 1) % (HOT_CODE_LINES * 16);
        HOT_CODE_BASE + self.hot_pc_line * 4
    }

    #[inline]
    fn data_addr(&mut self) -> u64 {
        let u = unit_bits(&mut self.rng);
        if u < self.plan.hot {
            self.hot_base + self.rng.next_u64() % (HOT_BYTES / 8) * 8
        } else if u < self.plan.hot_or_warm {
            self.warm_base + self.plan.warm_lines.rem(self.rng.next_u64()) * 64
        } else if self.plan.cold_streaming {
            let addr = self.cold_base + self.cold_cursor;
            // The cursor stays below `cold_bytes` (at least one line), so
            // one subtraction is the wrap.
            self.cold_cursor += 64;
            if self.cold_cursor >= self.plan.cold_bytes {
                self.cold_cursor -= self.plan.cold_bytes;
            }
            addr
        } else {
            self.cold_base + self.plan.cold_lines.rem(self.rng.next_u64()) * 64
        }
    }

    #[inline]
    fn dep(&mut self) -> u16 {
        // Loads are usually followed by a consumer of their data — the
        // pointer-rich, low-ILP character of server code. Otherwise ~70% of
        // instructions read a recent producer at a distance set by the
        // profile's ILP.
        if self.prev_was_load && unit_bits(&mut self.rng) < self.plan.dep {
            return 1;
        }
        if unit_bits(&mut self.rng) < self.plan.dep {
            1 + self.plan.dep_span.rem(self.rng.next_u64()) as u16
        } else {
            0
        }
    }
}

impl InstructionStream for ProfileStream {
    #[inline]
    fn next_instr(&mut self) -> Instr {
        // OS burst bookkeeping: enter bursts so the long-run OS fraction
        // matches the profile.
        let is_user = if self.os_left > 0 {
            self.os_left -= 1;
            false
        } else if self
            .plan
            .os_burst
            .is_some_and(|cut| unit_bits(&mut self.rng) < cut)
        {
            self.os_left = OS_BURST - 1;
            false
        } else {
            true
        };

        let pc = self.next_pc();
        let u = unit_bits(&mut self.rng);
        let cut = &self.plan.op;
        let op = if u < cut[0] {
            OpClass::Load
        } else if u < cut[1] {
            OpClass::Store
        } else if u < cut[2] {
            OpClass::Branch {
                mispredicted: unit_bits(&mut self.rng) < self.plan.mispredict,
            }
        } else if u < cut[3] {
            OpClass::Fp
        } else {
            OpClass::IntAlu
        };

        let addr = if op.is_memory() { self.data_addr() } else { 0 };
        let dep_dist = self.dep();
        self.prev_was_load = op == OpClass::Load;
        Instr {
            op,
            pc,
            addr,
            dep_dist,
            is_user,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CloudSuiteApp;
    use rand::Rng;

    fn pull(s: &mut ProfileStream, n: usize) -> Vec<Instr> {
        (0..n).map(|_| s.next_instr()).collect()
    }

    fn stream(app: CloudSuiteApp) -> ProfileStream {
        ProfileStream::new(WorkloadProfile::cloudsuite(app), 0)
    }

    #[test]
    fn instruction_mix_matches_profile() {
        let mut s = stream(CloudSuiteApp::WebSearch);
        let v = pull(&mut s, 100_000);
        let loads = v.iter().filter(|i| i.op == OpClass::Load).count() as f64 / v.len() as f64;
        let stores = v.iter().filter(|i| i.op == OpClass::Store).count() as f64 / v.len() as f64;
        assert!((loads - 0.30).abs() < 0.01, "load share {loads}");
        assert!((stores - 0.05).abs() < 0.005, "store share {stores}");
    }

    #[test]
    fn os_fraction_converges() {
        let mut s = stream(CloudSuiteApp::WebServing);
        let v = pull(&mut s, 400_000);
        let os = v.iter().filter(|i| !i.is_user).count() as f64 / v.len() as f64;
        assert!((os - 0.35).abs() < 0.05, "OS share {os}");
    }

    #[test]
    fn os_time_comes_in_bursts() {
        let mut s = stream(CloudSuiteApp::WebServing);
        let v = pull(&mut s, 50_000);
        // Transitions user->os should be far rarer than os instructions.
        let os_count = v.iter().filter(|i| !i.is_user).count();
        let transitions = v
            .windows(2)
            .filter(|w| w[0].is_user && !w[1].is_user)
            .count();
        assert!(os_count > transitions * 50, "OS must be bursty");
    }

    #[test]
    fn addresses_respect_locality_classes() {
        let mut s = stream(CloudSuiteApp::DataServing);
        let expected = s.profile().hot_fraction;
        let v = pull(&mut s, 200_000);
        let mem: Vec<&Instr> = v.iter().filter(|i| i.op.is_memory()).collect();
        let hot = mem
            .iter()
            .filter(|i| i.addr >= HOT_DATA_BASE && i.addr < HOT_DATA_BASE + 64 * HOT_BYTES)
            .count() as f64;
        let frac = hot / mem.len() as f64;
        assert!(
            (frac - expected).abs() < 0.02,
            "hot share {frac} vs {expected}"
        );
    }

    #[test]
    fn streaming_profiles_emit_sequential_cold_traffic() {
        let mut s = stream(CloudSuiteApp::MediaStreaming);
        let v = pull(&mut s, 200_000);
        let cold: Vec<u64> = v
            .iter()
            .filter(|i| i.op.is_memory() && i.addr >= 0x1_0000_0000)
            .map(|i| i.addr)
            .collect();
        assert!(cold.len() > 100);
        let sequential = cold.windows(2).filter(|w| w[1] == w[0] + 64).count();
        assert!(
            sequential as f64 / (cold.len() - 1) as f64 > 0.9,
            "cold accesses should stream"
        );
    }

    #[test]
    fn cold_code_bursts_walk_one_line() {
        let mut s = stream(CloudSuiteApp::WebServing);
        let v = pull(&mut s, 20_000);
        let cold_pcs: Vec<u64> = v
            .iter()
            .map(|i| i.pc)
            .filter(|&pc| pc >= 0x9000_0000)
            .collect();
        assert!(!cold_pcs.is_empty(), "web serving has cold code");
        // Within a burst, PCs advance by 4 within one line.
        let in_line_steps = cold_pcs.windows(2).filter(|w| w[1] == w[0] + 4).count();
        assert!(in_line_steps > cold_pcs.len() / 2);
    }

    #[test]
    fn different_seeds_use_disjoint_hot_regions() {
        let p = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
        let a = ProfileStream::new(p.clone(), 0);
        let b = ProfileStream::new(p, 1);
        assert_ne!(a.hot_base, b.hot_base);
    }

    /// The float generator the compiled plan replaced, kept verbatim as
    /// the oracle: shim `gen_bool`/`gen_range`/`gen::<f64>` draws against
    /// the profile's float fields, recomputed per instruction.
    struct FloatReference {
        profile: WorkloadProfile,
        rng: SmallRng,
        hot_base: u64,
        cold_cursor: u64,
        hot_pc_line: u64,
        cold_code_left: u64,
        cold_code_line: u64,
        os_left: u64,
        prev_was_load: bool,
    }

    impl FloatReference {
        fn new(profile: WorkloadProfile, seed: u64) -> Self {
            let slot = seed % 64;
            FloatReference {
                rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0FFEE),
                hot_base: HOT_DATA_BASE + slot * HOT_BYTES,
                cold_cursor: (profile.cold_bytes / 64) * slot / 64 * 64,
                hot_pc_line: 0,
                cold_code_left: 0,
                cold_code_line: 0,
                os_left: 0,
                prev_was_load: false,
                profile,
            }
        }

        fn next_pc(&mut self) -> u64 {
            if self.cold_code_left > 0 {
                self.cold_code_left -= 1;
                let offset = (COLD_CODE_BURST - 1 - self.cold_code_left) * 4;
                return COLD_CODE_BASE + self.cold_code_line * 64 + offset;
            }
            if self.rng.gen_bool(self.profile.code_cold_rate) {
                let lines = self.profile.code_bytes / 64;
                self.cold_code_line = self.rng.gen_range(0..lines);
                self.cold_code_left = COLD_CODE_BURST - 1;
                return COLD_CODE_BASE + self.cold_code_line * 64;
            }
            self.hot_pc_line = (self.hot_pc_line + 1) % (HOT_CODE_LINES * 16);
            HOT_CODE_BASE + self.hot_pc_line * 4
        }

        fn data_addr(&mut self) -> u64 {
            let u: f64 = self.rng.gen();
            if u < self.profile.hot_fraction {
                self.hot_base + self.rng.gen_range(0..HOT_BYTES / 8) * 8
            } else if u < self.profile.hot_fraction + self.profile.warm_fraction {
                WARM_BASE + self.rng.gen_range(0..self.profile.warm_bytes / 64) * 64
            } else if self.profile.cold_streaming {
                let addr = COLD_BASE + self.cold_cursor;
                self.cold_cursor = (self.cold_cursor + 64) % self.profile.cold_bytes;
                addr
            } else {
                COLD_BASE + self.rng.gen_range(0..self.profile.cold_bytes / 64) * 64
            }
        }

        fn dep(&mut self) -> u16 {
            if self.prev_was_load && self.rng.gen_bool(0.7) {
                return 1;
            }
            if self.rng.gen_bool(0.7) {
                let hi = (self.profile.dep_dist_mean * 2.0).max(2.0) as u16;
                self.rng.gen_range(1..=hi)
            } else {
                0
            }
        }

        fn next_instr(&mut self) -> Instr {
            let is_user = if self.os_left > 0 {
                self.os_left -= 1;
                false
            } else {
                let p = self.profile.os_fraction
                    / OS_BURST as f64
                    / (1.0 - self.profile.os_fraction).max(1e-9);
                if self.profile.os_fraction > 0.0 && self.rng.gen_bool(p.min(1.0)) {
                    self.os_left = OS_BURST - 1;
                    false
                } else {
                    true
                }
            };
            let pc = self.next_pc();
            let u: f64 = self.rng.gen();
            let p = &self.profile;
            let op = if u < p.loads {
                OpClass::Load
            } else if u < p.loads + p.stores {
                OpClass::Store
            } else if u < p.loads + p.stores + p.branches {
                OpClass::Branch {
                    mispredicted: self.rng.gen_bool(p.branch_mispredict),
                }
            } else if u < p.loads + p.stores + p.branches + p.fp {
                OpClass::Fp
            } else {
                OpClass::IntAlu
            };
            let addr = if op.is_memory() { self.data_addr() } else { 0 };
            let dep_dist = self.dep();
            self.prev_was_load = op == OpClass::Load;
            Instr {
                op,
                pc,
                addr,
                dep_dist,
                is_user,
            }
        }
    }

    fn presets() -> Vec<WorkloadProfile> {
        let mut v: Vec<WorkloadProfile> = CloudSuiteApp::ALL
            .into_iter()
            .map(WorkloadProfile::cloudsuite)
            .collect();
        v.push(WorkloadProfile::banking_low_mem(2.0));
        v.push(WorkloadProfile::banking_high_mem(4.0));
        v
    }

    #[test]
    fn compiled_stream_matches_float_reference() {
        for profile in presets() {
            for seed in [0, 1, 63, 451] {
                let mut fast = ProfileStream::new(profile.clone(), seed);
                let mut reference = FloatReference::new(profile.clone(), seed);
                for i in 0..1_000_000 {
                    let (a, b) = (fast.next_instr(), reference.next_instr());
                    assert_eq!(
                        a, b,
                        "{} seed {seed}: instruction {i} diverges",
                        profile.name
                    );
                }
            }
        }
    }

    /// A generator that returns one fixed word, to evaluate the shim's
    /// samplers on chosen inputs.
    struct Word(u64);

    impl RngCore for Word {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn unit_cut_matches_the_float_bernoulli() {
        let mut rng = SmallRng::seed_from_u64(5);
        let probabilities = [
            0.0,
            1.0,
            0.7,
            0.5,
            f64::from_bits(0.5f64.to_bits() + 1),
            f64::from_bits(0.5f64.to_bits() - 1),
            1e-300,
        ];
        for p in probabilities {
            let cut = unit_cut(p);
            // Words whose 53 kept bits sit on either side of the cut, with
            // the dropped low bits both clear and set, plus random words.
            let edges = [0, 1, cut.saturating_sub(1), cut, cut + 1, (1 << 53) - 1]
                .into_iter()
                .filter(|&m| m < 1 << 53)
                .flat_map(|m| [m << 11, (m << 11) | 0x7FF]);
            let random = (0..100_000).map(|_| rng.next_u64());
            for w in edges.chain(random) {
                assert_eq!(
                    (w >> 11) < cut,
                    Word(w).gen_bool(p),
                    "p = {p:e}, word {w:#x}"
                );
            }
        }
    }

    #[test]
    fn fast_remainder_matches_hardware_remainder() {
        let mut rng = SmallRng::seed_from_u64(7);
        let random: Vec<u64> = (0..100_000).map(|_| rng.next_u64()).collect();
        let divisors =
            (0..64)
                .map(|k| 1u64 << k)
                .chain([3, 24_576, u64::from(u32::MAX), (1 << 63) + 1]);
        for d in divisors {
            let r = FastRem::new(d);
            let q = u64::MAX / d;
            let multiples = [1, 2, 3, q / 2, q]
                .into_iter()
                .filter(|&k| k > 0 && k <= q)
                .map(|k| k * d)
                .flat_map(|m| [m - 1, m, m.saturating_add(1)]);
            for n in [0, u64::MAX]
                .into_iter()
                .chain(multiples)
                .chain(random.iter().copied())
            {
                assert_eq!(r.rem(n), n % d, "{n} % {d}");
            }
            assert_eq!(
                r.rem(u64::MAX),
                Word(u64::MAX).gen_range(0..d),
                "shim range 0..{d}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = WorkloadProfile::cloudsuite(CloudSuiteApp::DataServing);
        let a = pull(&mut ProfileStream::new(p.clone(), 3), 1000);
        let b = pull(&mut ProfileStream::new(p, 3), 1000);
        assert_eq!(a, b);
    }
}
