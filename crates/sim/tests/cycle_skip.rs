//! Differential tests for the cycle-skip fast path.
//!
//! The fast path must be *bit-identical* to the naive per-cycle loop:
//! every field of [`SimStats`] — instruction counts, cache and DRAM
//! counters, `rob_full_cycles`, everything — must match across
//! compute-bound, memory-bound, streaming and mixed workloads at several
//! core frequencies, for both [`ClusterSim`] and [`ChipSim`], across
//! warm-up/measure window boundaries.

use ntc_sim::streams::{ComputeStream, PointerChaseStream, RandomAccessStream, StrideStream};
use ntc_sim::{
    ChipSim, ClusterSim, CoreConfig, Instr, InstructionStream, SimConfig, SimStats, TimeSeriesProbe,
};

/// One stream per workload class, selectable per core for the mixed case.
enum TestStream {
    Compute(ComputeStream),
    Random(RandomAccessStream),
    Stride(StrideStream),
    Chase(PointerChaseStream),
}

impl InstructionStream for TestStream {
    fn next_instr(&mut self) -> Instr {
        match self {
            TestStream::Compute(s) => s.next_instr(),
            TestStream::Random(s) => s.next_instr(),
            TestStream::Stride(s) => s.next_instr(),
            TestStream::Chase(s) => s.next_instr(),
        }
    }
}

fn compute(_core: u64) -> TestStream {
    TestStream::Compute(ComputeStream::new(0.002))
}

fn memory_bound(core: u64) -> TestStream {
    TestStream::Random(RandomAccessStream::new(256 << 20, 0.30, 6, 100 + core))
}

fn streaming(core: u64) -> TestStream {
    TestStream::Stride(StrideStream::new(64, 512 << 20, 0.25 + 0.01 * core as f64))
}

fn mixed(core: u64) -> TestStream {
    match core % 4 {
        0 => compute(core),
        1 => memory_bound(core),
        2 => streaming(core),
        _ => chase(core),
    }
}

fn chase(core: u64) -> TestStream {
    TestStream::Chase(PointerChaseStream::new(128 << 20, 3, core))
}

/// Runs the same cluster twice — fast path on and off — through a warm-up
/// window and a measured window, and demands identical statistics at both
/// observation points.
fn assert_cluster_identical(mhz: f64, make: fn(u64) -> TestStream) {
    assert_config_identical(SimConfig::paper_cluster(mhz), make);
}

fn assert_config_identical(config: SimConfig, make: fn(u64) -> TestStream) {
    let mhz = config.core_mhz;
    let run = |skip: bool| -> (SimStats, SimStats) {
        let mut sim = ClusterSim::new(config, |i| make(u64::from(i)));
        sim.set_cycle_skip(skip);
        sim.warm_up(3_000);
        let window = sim.run_measured(9_000);
        (window, sim.stats())
    };
    let (fast_window, fast_total) = run(true);
    let (naive_window, naive_total) = run(false);
    assert_eq!(
        fast_window, naive_window,
        "measured window diverged at {mhz} MHz"
    );
    assert_eq!(
        fast_total, naive_total,
        "cumulative stats diverged at {mhz} MHz"
    );
}

#[test]
fn cluster_compute_bound_identical_across_frequencies() {
    for mhz in [100.0, 1000.0, 2000.0] {
        assert_cluster_identical(mhz, compute);
    }
}

#[test]
fn cluster_memory_bound_identical_across_frequencies() {
    for mhz in [100.0, 1000.0, 2000.0] {
        assert_cluster_identical(mhz, memory_bound);
    }
}

#[test]
fn cluster_streaming_identical_across_frequencies() {
    for mhz in [100.0, 1000.0, 2000.0] {
        assert_cluster_identical(mhz, streaming);
    }
}

#[test]
fn cluster_mixed_identical_across_frequencies() {
    for mhz in [100.0, 1000.0, 2000.0] {
        assert_cluster_identical(mhz, mixed);
    }
}

#[test]
fn little_inorder_cluster_identical_across_frequencies() {
    // The 8-entry window is the smallest slot ring the core builds, and
    // the little core is the only in-order issue path.
    for mhz in [100.0, 1000.0, 2000.0] {
        let config = SimConfig {
            core: CoreConfig::little_inorder(),
            ..SimConfig::paper_cluster(mhz)
        };
        assert_config_identical(config, mixed);
    }
}

#[test]
fn skips_longer_than_the_wake_horizon_are_identical() {
    // Serial DRAM misses at 2 GHz stall each core for hundreds of cycles,
    // so skips jump far past the A57 issue scheduler's 8-cycle latency
    // wheel; its drain on skip must still match the naive loop.
    let config = SimConfig::paper_cluster(2000.0);
    assert_config_identical(config, chase);

    let mut sim = ClusterSim::new(config, |i| chase(u64::from(i)));
    let probe = TimeSeriesProbe::new();
    let samples = probe.samples();
    sim.attach_probe(Box::new(probe));
    sim.run(6_000);
    // Every skip landing is sampled, so a step in the skipped-cycle count
    // between consecutive samples is one skip.
    let longest = samples
        .borrow()
        .windows(2)
        .map(|w| w[1].skipped_cycles - w[0].skipped_cycles)
        .max()
        .unwrap_or(0);
    assert!(
        longest > 64,
        "expected skips well past the wheel horizon, longest was {longest} cycles"
    );
}

#[test]
fn chip_identical_across_frequencies() {
    for mhz in [100.0, 1000.0, 2000.0] {
        let run = |skip: bool| -> (SimStats, SimStats) {
            let mut chip = ChipSim::new(SimConfig::paper_cluster(mhz), 3, |cl, c| {
                mixed(u64::from(cl) * 4 + u64::from(c))
            });
            chip.set_cycle_skip(skip);
            chip.run(2_000);
            let window = chip.run_measured(6_000);
            (window, chip.stats())
        };
        let (fast_window, fast_total) = run(true);
        let (naive_window, naive_total) = run(false);
        assert_eq!(
            fast_window, naive_window,
            "chip window diverged at {mhz} MHz"
        );
        assert_eq!(fast_total, naive_total, "chip totals diverged at {mhz} MHz");
    }
}

#[test]
fn one_cluster_chip_matches_cluster_sim() {
    // Guards the shared tick helper: a 1-cluster chip and a standalone
    // cluster are the same machine and must produce the same statistics.
    for mhz in [200.0, 1500.0] {
        let mut cluster = ClusterSim::new(SimConfig::paper_cluster(mhz), |i| mixed(u64::from(i)));
        let mut chip = ChipSim::new(SimConfig::paper_cluster(mhz), 1, |_, c| mixed(u64::from(c)));
        cluster.warm_up(2_000);
        chip.run(2_000);
        let cw = cluster.run_measured(6_000);
        let hw = chip.run_measured(6_000);
        assert_eq!(cw, hw, "1-cluster chip diverged from cluster at {mhz} MHz");
        assert_eq!(cluster.stats(), chip.stats());
    }
}

/// Regression for the hetero multiclock cycle-skip divergence (ROADMAP
/// item 5, fixed here): on a multi-cluster chip with per-cluster clocks,
/// serial chunk boundaries were taken per-lane in *cycles*, which lands at
/// different wall-clock instants per cluster. A fast cluster frozen at its
/// chunk end watched slower clusters drive the shared DRAM past it, so its
/// post-chunk submits enqueued after boundaries the reference ordering
/// would have interleaved them before. Fixed by cutting every internal
/// epoch at a single ps-aligned common frontier (per-lane end =
/// `floor(frontier/period)`).
///
/// These replay the originally-diverging diffcheck cases by fixed seed.
/// `ntc-diffcheck --seed 1592590337 --case 900 --pair cycle-skip` was the
/// canonical repro; 5112 and 7416 are neighbors from the same seed that
/// diverged before the fix. Each runs in tens of milliseconds.
#[test]
fn hetero_multiclock_cycle_skip_fixed_seed_regression() {
    use ntc_diffcheck::{check, CaseShape, OraclePair};
    for case in [900, 5112, 7416] {
        let shape = CaseShape::generate(1592590337, case);
        assert!(
            shape.use_chip,
            "case {case} no longer generates a chip shape; pick a new repro case"
        );
        if let Some(d) = check(OraclePair::CycleSkip, &shape, false) {
            panic!(
                "hetero multiclock cycle-skip regression: seed 1592590337 \
                 case {case} diverged again: {}",
                d.detail
            );
        }
    }
}

/// Write-sharing stream: stores walk a small shared region so ownership
/// transfers generate invalidations naming high core indices.
struct SharedWriter {
    count: u64,
    core: u64,
}

impl InstructionStream for SharedWriter {
    fn next_instr(&mut self) -> Instr {
        self.count += 1;
        let pc = 0x50_000 + (self.count % 64) * 4;
        if self.count.is_multiple_of(3) {
            // 64 shared lines, offset per core so every core both owns and
            // loses lines.
            Instr::store(pc, ((self.count + self.core * 7) % 64) * 64)
        } else {
            Instr::alu(pc)
        }
    }
}

#[test]
fn sixteen_core_cluster_does_not_overflow_sharer_mask() {
    // Regression: SharerMask was u8, so `1 << core` panicked (debug) or
    // silently wrapped (release) for cores >= 8.
    let mut cfg = SimConfig::paper_cluster(1000.0);
    cfg.cores = 16;
    let mut sim = ClusterSim::new(cfg, |i| SharedWriter {
        count: 0,
        core: u64::from(i),
    });
    // Mark a line shared by the highest cores, then run write traffic that
    // invalidates it and transfers ownership among all 16 cores.
    sim.prewarm_llc([0, 64, 128], 0xFFFF); // shared by all 16 cores
    sim.prewarm_llc([192], 1 << 15); // owned by core 15 alone
    let stats = sim.run(4_000);
    assert_eq!(stats.cores.len(), 16);
    assert!(
        stats.llc.invalidations > 0,
        "write sharing must generate invalidations"
    );
    assert!(stats.user_instrs() > 0);
}
