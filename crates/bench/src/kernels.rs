//! The simulator's hot kernels, written once.
//!
//! Both the `simulator_kernels` Criterion bench and the `bench-trajectory`
//! recorder iterate [`groups`], so the two harnesses time identical code.
//! These are not paper figures; they guard the simulator's own speed.
//! Group and kernel names are the `BENCH_sim.json` keys (the trajectory
//! appends `_ms` to each kernel name).

use ntc_core::{ClusterMeasurer, SimMeasurer};
use ntc_sim::config::DramTimingConfig;
use ntc_sim::dram::DramSystem;
use ntc_sim::streams::PointerChaseStream;
use ntc_sim::{ClusterSim, SimConfig};
use ntc_workloads::{prewarm_cluster, CloudSuiteApp, ProfileStream, WorkloadProfile};
use std::hint::black_box;

/// Simulated core cycles per cluster kernel run.
const CYCLES: u64 = 20_000;
/// DRAM requests per scheduler kernel run.
const REQUESTS: u64 = 10_000;

/// One timed kernel: a name and a body that runs it once.
pub struct Kernel {
    /// Kernel name, unique within its group.
    pub name: String,
    body: Box<dyn Fn()>,
}

impl Kernel {
    fn new(name: impl Into<String>, body: impl Fn() + 'static) -> Self {
        Kernel {
            name: name.into(),
            body: Box::new(body),
        }
    }

    /// Runs the kernel once.
    pub fn run(&self) {
        (self.body)();
    }
}

/// A named group of kernels sharing one unit of work.
pub struct KernelGroup {
    /// Group name.
    pub name: &'static str,
    /// Work per kernel run in elements (simulated cycles or DRAM
    /// requests), when the group has a natural throughput unit.
    pub elements: Option<u64>,
    /// The group's kernels.
    pub kernels: Vec<Kernel>,
}

/// Every kernel group, in recording order.
pub fn groups() -> Vec<KernelGroup> {
    vec![
        cluster_sim(),
        cycle_skip(),
        batched_ladder(),
        dram_scheduler(),
        dram_scheduler_deep_queue(),
    ]
}

/// One 20 k-cycle paper cluster run per CloudSuite app, including
/// construction and checkpoint prewarm.
fn cluster_sim() -> KernelGroup {
    let kernels = [
        ("websearch", CloudSuiteApp::WebSearch),
        ("data_serving", CloudSuiteApp::DataServing),
    ]
    .into_iter()
    .map(|(name, app)| {
        let profile = WorkloadProfile::cloudsuite(app);
        Kernel::new(format!("{name}_20k_cycles"), move || {
            let p = profile.clone();
            let mut sim = ClusterSim::new(SimConfig::paper_cluster(1000.0), |core| {
                ProfileStream::new(p.clone(), u64::from(core))
            });
            prewarm_cluster(&mut sim, &profile);
            black_box(sim.run(CYCLES));
        })
    })
    .collect();
    KernelGroup {
        name: "cluster_sim",
        elements: Some(CYCLES),
        kernels,
    }
}

/// The cycle-skip fast path's target regime — a cluster of pure
/// dependent pointer chases, where every core spends most cycles with
/// its ROB head blocked on a DRAM miss — with the fast path on and off
/// at three clocks up to the sweep's 2 GHz nominal. Skip benefit grows
/// with core frequency because a fixed DRAM latency spans more core
/// cycles: at near-threshold clocks a miss lasts only a handful of
/// cycles, so there is little left to skip. The engine's skip governor
/// measures exactly that payoff online (elided-replay cycles per probe)
/// and suspends probing where it can't pay, so skip wins ~1.3× at
/// nominal and sits at parity — not below it — at the low clocks.
fn cycle_skip() -> KernelGroup {
    let mut kernels = Vec::new();
    for (name, mhz) in [
        ("memory_bound_near_threshold", 500.0),
        ("memory_bound_low_freq", 1000.0),
        ("memory_bound_nominal", 2000.0),
    ] {
        for (mode, skip) in [("skip", true), ("naive", false)] {
            kernels.push(Kernel::new(format!("{name}_{mode}"), move || {
                let mut sim = ClusterSim::new(SimConfig::paper_cluster(mhz), |i| {
                    PointerChaseStream::new(256 << 20, 0, u64::from(i))
                });
                sim.set_cycle_skip(skip);
                black_box(sim.run(CYCLES));
            }));
        }
    }
    KernelGroup {
        name: "cycle_skip",
        elements: Some(CYCLES),
        kernels,
    }
}

/// The batched frequency ladder: five Web Search points measured cold
/// per-point (five full warm-ups) versus one `measure_ladder` batch (one
/// warm-up at the top frequency, DVFS-rebased down with short settle
/// windows). The batch trades bit-identity for a several-fold cut in
/// simulated warm-up cycles; this group records the realized ratio.
fn batched_ladder() -> KernelGroup {
    const FREQS: [f64; 5] = [2000.0, 1500.0, 1000.0, 500.0, 250.0];
    let measurer = || SimMeasurer::fast(WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch));
    let per_point = measurer();
    let batched = measurer();
    KernelGroup {
        name: "batched_ladder",
        elements: None,
        kernels: vec![
            Kernel::new("web_search_5pt_per_point", move || {
                for &mhz in &FREQS {
                    black_box(per_point.measure(mhz).unwrap());
                }
            }),
            Kernel::new("web_search_5pt_batched", move || {
                black_box(batched.measure_ladder(&FREQS).unwrap());
            }),
        ],
    }
}

/// Steps the xorshift generator the DRAM kernels draw addresses from.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Random reads over 1 GiB, ticked every 64 requests: the FR-FCFS
/// scheduler at moderate queue depths.
fn dram_scheduler() -> KernelGroup {
    KernelGroup {
        name: "dram_scheduler",
        elements: Some(REQUESTS),
        kernels: vec![Kernel::new("fr_fcfs_random_10k_reads", || {
            let mut sys = DramSystem::new(DramTimingConfig::ddr4_1600_paper());
            let mut x = 0x9E3779B97F4A7C15u64;
            for i in 0..REQUESTS {
                sys.read((xorshift(&mut x) % (1 << 30)) & !63, i * 500);
                if i % 64 == 63 {
                    sys.tick(i * 500);
                }
            }
            sys.tick(u64::MAX / 2);
            black_box(sys.stats());
        })],
    }
}

/// Deep-queue regime: bursts outpace service so channel queues sit at the
/// depths a 36-core chip produces, with ~25% writes concentrated on few
/// rows — the worst case for the scheduler's row-hazard bookkeeping and
/// the regime where indexed selection beats the O(n) scan hardest.
fn dram_scheduler_deep_queue() -> KernelGroup {
    KernelGroup {
        name: "dram_scheduler_deep_queue",
        elements: Some(REQUESTS),
        kernels: vec![Kernel::new("mixed_rw_deep_queue_10k", || {
            let mut sys = DramSystem::new(DramTimingConfig::ddr4_1600_paper());
            let mut x = 0x9E3779B97F4A7C15u64;
            let mut now = 0u64;
            for i in 0..REQUESTS {
                let r = xorshift(&mut x);
                // A handful of hot rows -> frequent same-bank write hazards.
                let line = ((r >> 8) % 8) * (1 << 20) + (r % 16) * 64;
                if r.is_multiple_of(4) {
                    sys.write(line, now);
                } else {
                    sys.read(line, now);
                }
                if i % 128 == 127 {
                    // Enqueue 128 per ~2.5 ns of DRAM time: far above the
                    // service rate, so queues run hundreds deep.
                    now += 2_500;
                    sys.tick(now);
                }
            }
            sys.tick(u64::MAX / 2);
            black_box(sys.stats());
        })],
    }
}
