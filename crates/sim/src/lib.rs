// `is_multiple_of` stabilized after this workspace's MSRV (1.75); the
// manual `% == 0` form stays until the MSRV moves.
#![allow(clippy::manual_is_multiple_of)]

//! Cycle-level multicore cluster simulator — the study's Flexus substitute.
//!
//! The paper (Sec. IV) measures one quantity from its full-system simulator:
//! **user instructions per second (UIPS) as a function of core frequency**.
//! The shape of that curve is governed by the interplay of
//!
//! * out-of-order cores whose memory-level parallelism is bounded by a
//!   128-entry instruction window,
//! * an L1/LLC cache hierarchy with realistic miss rates,
//! * crossbar and LLC-bank contention, and
//! * DRAM whose latency is **constant in nanoseconds** — so it shrinks in
//!   *core cycles* as the core slows down, making UIPC rise sub-linearly
//!   and pushing the energy-efficiency optimum up in frequency.
//!
//! This crate implements exactly those mechanisms as an execution-driven,
//! cycle-stepped simulator of one 4-core cluster (the paper's simulated
//! unit; the 9-cluster chip scales UIPS linearly — the paper verifies
//! cluster count does not change the trends):
//!
//! * [`core`]: 3-way OoO core with a 128-entry ROB, non-blocking loads,
//!   branch-redirect stalls and L1-I/L1-D 32 KB 2-way caches;
//! * [`cache`]: set-associative arrays with LRU replacement;
//! * [`llc`]: shared 4 MB 16-way LLC in 4 banks with MESI-style sharer
//!   tracking and invalidations;
//! * [`xbar`]: cluster crossbar with port contention;
//! * [`dram`]: DDR4 timing model (banks, row buffers, FR-FCFS scheduling,
//!   tRCD/tRP/tCL/tRAS/tFAW/... windows) in the spirit of DRAMSim2;
//! * [`memsys`]: the uncore glue — request lifecycle from L1 miss to fill;
//! * [`cluster`]: the top-level simulator and its statistics.
//!
//! Cores run in the swept *core clock domain*; the uncore and DRAM run on
//! fixed clocks. Time is bridged through picosecond timestamps.
//!
//! # Quickstart
//!
//! ```
//! use ntc_sim::{ClusterSim, SimConfig};
//! use ntc_sim::streams::ComputeStream;
//!
//! // A 4-core cluster at 1 GHz running a compute-bound synthetic stream.
//! let config = SimConfig::paper_cluster(1000.0);
//! let mut sim = ClusterSim::new(config, |_core| ComputeStream::new(0.001));
//! let stats = sim.run(10_000);
//! assert!(stats.uipc() > 0.5, "compute-bound UIPC should be high");
//! ```

pub mod bpred;
pub mod cache;
pub mod chip;
pub mod cluster;
pub mod config;
pub mod core;
pub mod dram;
mod engine;
pub mod fxhash;
pub mod instr;
pub mod llc;
pub mod memsys;
pub mod probe;
pub mod stats;
pub mod streams;
pub mod trace;
pub mod xbar;

pub use bpred::{BranchPredictor, PredictorKind, SyntheticBranchBehaviour};
pub use chip::ChipSim;
pub use cluster::ClusterSim;
pub use config::{
    CacheConfig, CacheLevel, ChipConfig, ClusterConfig, CoreConfig, CoreParam, DramConfigError,
    DramTimingConfig, LlcConfig, SimConfig, SimConfigError, XbarConfig,
};
pub use instr::{Instr, InstructionStream, OpClass};
pub use probe::{
    ActivityWindow, EnergyProbe, EnergyProbeHandle, Probe, ProbeSample, TimeSeriesProbe,
};
pub use stats::{CoreStats, SimStats};
pub use trace::{Trace, TraceRecorder, TraceStream};

/// Cache-line size used throughout the hierarchy (bytes).
pub const LINE_BYTES: u64 = 64;

/// Converts a frequency in MHz to a clock period in picoseconds.
///
/// # Panics
///
/// Panics if `mhz` is not positive and finite.
pub fn period_ps(mhz: f64) -> u64 {
    assert!(mhz.is_finite() && mhz > 0.0, "frequency must be positive");
    (1.0e6 / mhz).round().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_conversions() {
        assert_eq!(period_ps(1000.0), 1000);
        assert_eq!(period_ps(2000.0), 500);
        assert_eq!(period_ps(100.0), 10_000);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_frequency_rejected() {
        let _ = period_ps(0.0);
    }
}
