//! What a workload run hands back.

use crate::stats;
use ntc_sim::{InstructionStream, SimStats};
use ntc_workloads::{ProfileStream, WorkloadProfile};
use std::collections::BTreeMap;
use std::time::Instant;

/// One named metric with its unit.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Output checks: every checked output covers some operations; a failed
/// check counts those operations as failed instead of stopping the run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, ops: u64, ok: bool, what: &str) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            eprintln!("check failed ({ops} ops): {what}");
        }
    }
}

/// What the simulator did over a traced run, counted where the benchmark
/// drives it.
#[derive(Debug, Default)]
pub struct SimTally {
    /// Cycles simulated, warm-up included (the skip ratio's base).
    pub cycles: u64,
    pub skipped_cycles: u64,
    /// Cycles inside measured windows (the ns-per-cycle base).
    pub measured_cycles: u64,
    pub measured_user_instrs: u64,
    pub llc_hits: u64,
    pub llc_misses: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub xbar_transfers: u64,
    pub queue_high_water: u64,
    /// Committed instructions, warm-up included, by workload profile.
    pub committed: BTreeMap<String, u64>,
    /// Committed instructions times the host cost of generating one (ms).
    pub stream_ms_est: f64,
}

impl SimTally {
    /// Adds one measured window.
    pub fn add_window(&mut self, window: &SimStats) {
        self.measured_cycles += window.cycles;
        self.measured_user_instrs += window.user_instrs();
        self.llc_hits += window.llc.hits;
        self.llc_misses += window.llc.misses;
        self.row_hits += window.dram.row_hits;
        self.row_misses += window.dram.row_misses;
        self.xbar_transfers += window.xbar_transfers;
        self.queue_high_water = self.queue_high_water.max(window.dram_queue_high_water);
    }

    /// Prices the committed instructions of each profile at the host cost
    /// of generating them with `ProfileStream::next_instr` (timed here,
    /// after the run, on `stream_seed`).
    pub fn price_streams<'p>(
        &mut self,
        profiles: impl IntoIterator<Item = &'p WorkloadProfile>,
        stream_seed: u64,
    ) {
        for profile in profiles {
            if let Some(instrs) = self.committed.remove(&profile.name) {
                let ns = stream_ns_per_instr(profile, stream_seed);
                self.stream_ms_est += instrs as f64 * ns / 1e6;
            }
        }
    }
}

/// Host ns per `ProfileStream::next_instr`, median of three runs.
fn stream_ns_per_instr(profile: &WorkloadProfile, stream_seed: u64) -> f64 {
    const INSTRS: u32 = 200_000;
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let mut stream = ProfileStream::new(profile.clone(), stream_seed);
            let start = Instant::now();
            for _ in 0..INSTRS {
                std::hint::black_box(stream.next_instr());
            }
            start.elapsed().as_nanos() as f64 / f64::from(INSTRS)
        })
        .collect();
    stats::median(&samples)
}

/// A share that reads 0 when its base is empty.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// One workload run.
#[derive(Debug, Default)]
pub struct Measured {
    /// Median host time of one set-up (s).
    pub setup_s: f64,
    /// Host time of the timed section, checks excluded (s).
    pub wall_s: f64,
    /// Host time of each operation (ms).
    pub op_ms: Vec<f64>,
    /// User instructions committed in measured windows.
    pub user_instrs: u64,
    pub checks: Checks,
    /// `(item, digest)` of every checked output.
    pub digests: Vec<(String, String)>,
    /// Simulator counts of a traced run.
    pub sim: SimTally,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Host time of the QoS curve folds (ms; fig-ladder only).
    pub qos_curve_ms: f64,
}
