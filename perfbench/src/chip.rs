//! The `chip-dram` workload: the 36-core paper chip, nine clusters of four
//! cores on one shared four-channel DDR4 system, as in
//! `examples/chip_contention`.
//!
//! Data Serving and Media Streaming each run at six frequencies. Every
//! point builds a fresh `ChipSim`, installs the checkpoint state, warms up
//! for 10 K cycles and then measures 10 K cycles as ten 1 K-cycle
//! `run_measured` slices, one operation each. The twelve points run in
//! four passes, each starting a quarter further along the list, so every
//! point's operations fall at four times spread over the run; host-speed
//! swings within a run then move the per-op percentiles about as much as
//! the wall time. Every pass must reproduce the first.
//!
//! The seed feeds the per-core stream seeds; seed 0 gives the example's
//! streams.

use crate::report::{Measured, SimTally};
use crate::trace::{within, Recorder};
use crate::{digest, stats};
use ntc_sim::{ChipSim, SimConfig, SimStats};
use ntc_workloads::stream::{COLD_CODE_BASE, HOT_BYTES, HOT_CODE_BASE, HOT_CODE_LINES, WARM_BASE};
use ntc_workloads::{CloudSuiteApp, ProfileStream, WorkloadProfile};
use std::time::Instant;

pub const NAME: &str = "chip-dram";

const APPS: [CloudSuiteApp; 2] = [CloudSuiteApp::DataServing, CloudSuiteApp::MediaStreaming];
const MHZ: [f64; 6] = [200.0, 400.0, 800.0, 1200.0, 1600.0, 2000.0];
const CLUSTERS: u32 = 9;
const CORES: u32 = 4;
const WARM_UP_CYCLES: u64 = 10_000;
const SLICE_CYCLES: u64 = 1_000;
const SLICES: usize = 10;
const PASSES: usize = 4;

/// The stream seed of one core: `seed` picks the run's inputs, and the
/// low bits keep each core's private hot region at its checkpointed slot.
fn stream_seed(seed: u64, cluster: u32, core: u32) -> u64 {
    seed.wrapping_mul(1 << 12) + u64::from(cluster) * 64 + u64::from(core)
}

fn build(profile: &WorkloadProfile, mhz: f64, seed: u64) -> ChipSim<ProfileStream> {
    ChipSim::new(SimConfig::paper_cluster(mhz), CLUSTERS, |cl, c| {
        ProfileStream::new(profile.clone(), stream_seed(seed, cl, c))
    })
}

/// Checkpoint warming, per cluster as `prewarm_cluster` does for one.
fn prewarm(chip: &mut ChipSim<ProfileStream>, profile: &WorkloadProfile) {
    let all_cores = (1 << CORES) - 1;
    for cl in 0..CLUSTERS {
        for core in 0..CORES {
            let hot = ProfileStream::hot_base_for(u64::from(core));
            chip.prewarm_data(cl, core, (0..HOT_BYTES / 64).map(|i| hot + i * 64));
            chip.prewarm_code(
                cl,
                core,
                (0..HOT_CODE_LINES).map(|i| HOT_CODE_BASE + i * 64),
            );
        }
        chip.prewarm_llc(
            cl,
            (0..profile.code_bytes / 64).map(|i| COLD_CODE_BASE + i * 64),
            all_cores,
        );
        chip.prewarm_llc(
            cl,
            (0..profile.warm_bytes / 64).map(|i| WARM_BASE + i * 64),
            0,
        );
    }
}

/// One point's measured slices.
struct PointRun {
    item: String,
    slices: Vec<SimStats>,
}

pub fn run(seed: u64, recorder: Option<&Recorder>) -> Measured {
    let profiles: Vec<WorkloadProfile> = APPS
        .iter()
        .map(|&a| WorkloadProfile::cloudsuite(a))
        .collect();
    let mut setup_s = Vec::new();
    let mut op_ms = Vec::new();
    let mut points: Vec<PointRun> = Vec::new();
    let mut tally = SimTally::default();
    let grid: Vec<(&WorkloadProfile, f64)> = profiles
        .iter()
        .flat_map(|profile| MHZ.map(|mhz| (profile, mhz)))
        .collect();

    let start = Instant::now();
    within(recorder, "bench.chip", None, || {
        for pass in 0..PASSES {
            let rotation = pass * grid.len() / PASSES;
            for &(profile, mhz) in grid.iter().cycle().skip(rotation).take(grid.len()) {
                let set_up = Instant::now();
                let mut chip = within(recorder, "sim.build", None, || build(profile, mhz, seed));
                within(recorder, "workloads.prewarm", None, || {
                    prewarm(&mut chip, profile)
                });
                setup_s.push(set_up.elapsed().as_secs_f64());
                within(recorder, "sim.warm_up", None, || chip.run(WARM_UP_CYCLES));
                let mut slices = Vec::with_capacity(SLICES);
                for _ in 0..SLICES {
                    let id = op_ms.len() as u64;
                    let op = Instant::now();
                    let window = within(recorder, "sim.measure", Some(id), || {
                        chip.run_measured(SLICE_CYCLES)
                    });
                    op_ms.push(op.elapsed().as_secs_f64() * 1e3);
                    slices.push(window);
                }
                if recorder.is_some() {
                    let total = chip.stats();
                    tally.cycles += total.cycles;
                    tally.skipped_cycles += chip.skipped_cycles();
                    *tally.committed.entry(profile.name.clone()).or_default() += total.instrs();
                    slices.iter().for_each(|w| tally.add_window(w));
                }
                points.push(PointRun {
                    item: format!("{}@{mhz}", profile.name),
                    slices,
                });
            }
        }
    });
    let wall_s = start.elapsed().as_secs_f64();

    let mut measured = Measured {
        setup_s: stats::median(&setup_s),
        wall_s,
        op_ms,
        user_instrs: points
            .iter()
            .flat_map(|p| &p.slices)
            .map(SimStats::user_instrs)
            .sum(),
        ..Measured::default()
    };
    check(seed, &points, &mut measured);
    tally.price_streams(&profiles, stream_seed(seed, 0, 0));
    measured.sim = tally;
    measured
}

/// The digest of one point's slices over a fixed list of counters: per
/// core, LLC, DRAM, crossbar, frequency, cycles and simulated time. A
/// diagnostic field added to `SimStats` leaves it unchanged.
fn slices_digest(slices: &[SimStats]) -> String {
    let mut words = Vec::new();
    for w in slices {
        for c in &w.cores {
            words.extend([
                c.user_instrs,
                c.os_instrs,
                c.cycles,
                c.dispatched,
                c.l1d_accesses,
                c.l1d_misses,
                c.l1d_writebacks,
                c.l1i_misses,
                c.branch_redirects,
                c.rob_full_cycles,
            ]);
        }
        words.extend([
            w.llc.hits,
            w.llc.misses,
            w.llc.writebacks,
            w.llc.invalidations,
            w.dram.reads,
            w.dram.writes,
            w.dram.row_hits,
            w.dram.row_misses,
            w.dram_queue_high_water,
            w.xbar_transfers,
            w.core_mhz.to_bits(),
            w.cycles,
            w.wall_ps,
        ]);
    }
    let bytes: Vec<u8> = words.iter().flat_map(|x| x.to_le_bytes()).collect();
    digest::digest(&bytes)
}

/// Output checks: every point's slices against the digest table, and
/// every later pass against the first.
fn check(seed: u64, points: &[PointRun], measured: &mut Measured) {
    let per_pass = points.len() / PASSES;
    let (first, _) = points.split_at(per_pass);
    for (i, point) in points.iter().enumerate() {
        let d = slices_digest(&point.slices);
        let verdict = digest::verdict(NAME, seed, &point.item, &d);
        let repeat = first
            .iter()
            .find(|q| q.item == point.item)
            .is_some_and(|q| q.slices == point.slices);
        let plausible = point.slices.iter().all(|w| {
            w.cycles == SLICE_CYCLES
                && w.user_instrs() > 0
                && w.cores.len() == (CLUSTERS * CORES) as usize
        });
        measured.checks.record(
            SLICES as u64,
            verdict != digest::Verdict::Mismatch && repeat && plausible,
            &format!(
                "{} pass {}: digest {verdict:?}, repeats pass 1: {repeat}, plausible: {plausible}",
                point.item,
                i / per_pass + 1
            ),
        );
        if i < per_pass {
            measured.digests.push((point.item.clone(), d));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_gives_the_example_streams_and_slots_stay_put() {
        assert_eq!(stream_seed(0, 3, 2), 3 * 64 + 2);
        for seed in [1, 7, u64::MAX] {
            for (cl, c) in [(0, 0), (8, 3)] {
                assert_eq!(stream_seed(seed, cl, c) % 64, u64::from(c));
            }
        }
        assert_ne!(stream_seed(1, 0, 0), stream_seed(2, 0, 0));
    }
}
