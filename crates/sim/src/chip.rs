//! Multi-cluster chip simulation with genuinely shared DRAM channels.
//!
//! The paper simulates one cluster and multiplies by the cluster count,
//! verifying that this preserves trends; the sweep engine additionally caps
//! chip traffic at the channels' peak bandwidth. [`ChipSim`] closes the
//! loop by actually simulating several clusters contending for **one**
//! DDR4 system: each cluster keeps its private LLC and crossbar, but every
//! LLC miss queues at the same four channels, so cross-cluster FR-FCFS
//! interference, bank conflicts and bus serialization are real rather than
//! modelled.
//!
//! Clusters are configured **per instance** via [`ChipConfig`]: each
//! cluster carries its own core class, core count, frequency, LLC and
//! crossbar, so a chip can mix big out-of-order clusters with little
//! in-order ones running in independent clock domains (the engine ticks
//! each lane on its own period against the shared DRAM). The
//! [`ChipSim::new`] constructor keeps the old chip-wide-[`SimConfig`]
//! surface as the homogeneous special case.

use crate::config::{ChipConfig, ClusterConfig, SimConfig};
use crate::core::Core;
use crate::dram::DramSystem;
use crate::engine::{self, Lane, RunCtl};
use crate::instr::InstructionStream;
use crate::llc::{Invalidation, SharerMask};
use crate::memsys::{DeferredDramOp, MemorySystem, SharedDram};
use crate::probe::{Probe, ProbeSample};
use crate::stats::SimStats;
use std::sync::{Arc, Mutex};

/// Minimum total work (summed cap − cycle across clusters) for which an
/// epoch is dispatched to worker threads; smaller epochs — the
/// memory-active regime where DRAM traffic forces short horizons — run on
/// the exact serial engine, which needs no horizon at all.
const PARALLEL_EPOCH_MIN_CYCLES: u64 = 4096;

/// Cycle budget (on the fastest unfinished clock) per serial fallback
/// chunk between epoch re-plans.
const SERIAL_EPOCH_CYCLES: u64 = 4096;

/// One epoch's per-cluster cycle caps plus the dispatch inputs (see
/// [`ChipSim::plan_epoch`]).
struct EpochPlan {
    /// Exclusive per-cluster cycle caps, all derived from one common
    /// wall-clock frontier.
    caps: Vec<u64>,
    /// Total cycles of work the epoch covers, summed across clusters.
    work: u64,
    /// False when some cluster already sits at or past the frontier — the
    /// fine-grained regime the serial fallback must handle.
    parallel_ok: bool,
}

/// Worker-thread count from `NTC_SIM_THREADS` (default 1 = serial).
fn threads_from_env() -> usize {
    std::env::var("NTC_SIM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(1)
}

struct ChipCluster<S> {
    config: ClusterConfig,
    cores: Vec<Core>,
    streams: Vec<S>,
    mem: MemorySystem,
    /// This cluster's cycle counter — clusters at different frequencies
    /// advance different cycle counts over the same wall-clock window.
    cycle: u64,
}

/// A chip of `N` (possibly heterogeneous) clusters sharing one DRAM
/// system.
pub struct ChipSim<S> {
    config: ChipConfig,
    clusters: Vec<ChipCluster<S>>,
    dram: SharedDram,
    cycle_skip: bool,
    skipped_cycles: u64,
    inv_buf: Vec<Invalidation>,
    probe: Option<Box<dyn Probe>>,
    /// Worker threads sharding clusters between DRAM epoch barriers;
    /// 1 (the default) keeps the reference serial engine.
    threads: usize,
}

impl<S: InstructionStream> ChipSim<S> {
    /// Builds a homogeneous chip of `clusters` identical clusters from a
    /// chip-wide [`SimConfig`]; `make_stream(cluster, core)` supplies each
    /// core's workload.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero or the configuration is structurally
    /// invalid (see [`SimConfig::validate`]).
    pub fn new(config: SimConfig, clusters: u32, make_stream: impl FnMut(u32, u32) -> S) -> Self {
        assert!(clusters > 0, "a chip needs at least one cluster");
        Self::new_chip(ChipConfig::homogeneous(&config, clusters), make_stream)
    }

    /// Builds a chip from a per-cluster [`ChipConfig`];
    /// `make_stream(cluster, core)` supplies each core's workload.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid (see
    /// [`ChipConfig::validate`], which callers can use to get the typed
    /// [`crate::SimConfigError`] instead).
    pub fn new_chip(config: ChipConfig, mut make_stream: impl FnMut(u32, u32) -> S) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid simulator configuration: {e}");
        }
        let dram: SharedDram = Arc::new(Mutex::new(DramSystem::new(config.dram)));
        let clusters = config
            .clusters
            .iter()
            .enumerate()
            .map(|(cl, cc)| ChipCluster {
                config: *cc,
                cores: (0..cc.cores).map(|i| Core::new(i, cc.core)).collect(),
                streams: (0..cc.cores).map(|i| make_stream(cl as u32, i)).collect(),
                mem: MemorySystem::with_shared_dram(cc, Arc::clone(&dram), cl as u32),
                cycle: 0,
            })
            .collect();
        ChipSim {
            config,
            clusters,
            dram,
            cycle_skip: true,
            skipped_cycles: 0,
            inv_buf: Vec::new(),
            probe: None,
            threads: threads_from_env(),
        }
    }

    /// Sets the worker-thread count for cluster sharding (clamped to at
    /// least 1; also capped at the cluster count when running). The
    /// default comes from `NTC_SIM_THREADS` (1 when unset). Statistics
    /// are bit-identical at any thread count: workers only advance
    /// DRAM-decoupled cluster state, and every DRAM interaction is
    /// replayed serially at epoch barriers in the canonical serial order.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Attaches a telemetry probe, sampled on engine epochs (cycle-skip
    /// wakeups and every [`crate::probe::PROBE_EPOCH_CYCLES`] ticked
    /// cycles). Probes observe only — statistics are bit-identical with
    /// or without one attached. Replaces any previous probe.
    pub fn attach_probe(&mut self, probe: Box<dyn Probe>) {
        self.probe = Some(probe);
    }

    /// Detaches the probe (if any), returning it.
    pub fn detach_probe(&mut self) -> Option<Box<dyn Probe>> {
        self.probe.take()
    }

    /// Enables or disables the stall-aware cycle-skip fast path (on by
    /// default). Statistics are bit-identical either way; disabling forces
    /// the naive per-cycle reference loop.
    pub fn set_cycle_skip(&mut self, enabled: bool) {
        self.cycle_skip = enabled;
    }

    /// The per-cluster configuration in effect.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Number of clusters on the chip.
    pub fn clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Cycles the fast path jumped over without ticking, counted on
    /// cluster 0's clock — a diagnostic for how much the stall-aware skip
    /// engages on a workload.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Installs data lines into one cluster-core's L1-D and that cluster's
    /// LLC (checkpoint warming).
    pub fn prewarm_data(&mut self, cluster: u32, core: u32, lines: impl IntoIterator<Item = u64>) {
        let cl = &mut self.clusters[cluster as usize];
        for line in lines {
            cl.cores[core as usize].install_l1d(line);
            cl.mem.install_llc(line, 1 << core);
        }
    }

    /// Installs instruction lines into one cluster-core's L1-I and LLC.
    pub fn prewarm_code(&mut self, cluster: u32, core: u32, lines: impl IntoIterator<Item = u64>) {
        let cl = &mut self.clusters[cluster as usize];
        for line in lines {
            cl.cores[core as usize].install_l1i(line);
            cl.mem.install_llc(line, 1 << core);
        }
    }

    /// Installs shared lines into one cluster's LLC.
    pub fn prewarm_llc(
        &mut self,
        cluster: u32,
        lines: impl IntoIterator<Item = u64>,
        sharers: SharerMask,
    ) {
        let cl = &mut self.clusters[cluster as usize];
        for line in lines {
            cl.mem.install_llc(line, sharers);
        }
    }

    /// Routes the shared DRAM system's scheduling through the
    /// scan-everything reference FR-FCFS oracle instead of the indexed
    /// scheduler. Statistics are bit-identical either way; the
    /// differential tests rely on that.
    pub fn set_reference_dram_scheduler(&mut self, reference: bool) {
        self.dram.lock().unwrap().set_reference_scheduler(reference);
    }

    /// Injects the harness-validation scheduler fault into the indexed
    /// DRAM path (see `DramSystem::set_scheduler_mutation`). Only the
    /// differential-verification harness should ever enable this.
    #[doc(hidden)]
    pub fn set_dram_scheduler_mutation(&mut self, enabled: bool) {
        self.dram.lock().unwrap().set_scheduler_mutation(enabled);
    }

    /// Deepest any shared-DRAM channel queue has been since construction.
    pub fn dram_queue_high_water(&self) -> usize {
        self.dram.lock().unwrap().queue_depth_high_water()
    }

    /// Advances every cluster by `cycles` of *its own* core cycles. On a
    /// homogeneous chip all clusters cover the same wall-clock window; on
    /// a heterogeneous one slower clusters run longer in wall-clock terms
    /// (frequency sweeps measure fixed cycle windows per cluster, matching
    /// the per-cluster measurement discipline).
    ///
    /// With more than one worker thread configured the window is cut into
    /// DRAM epochs (see [`ChipSim::advance_parallel`]); the result is
    /// bit-identical to the serial engine either way.
    fn advance(&mut self, cycles: u64) {
        let threads = self.threads.min(self.clusters.len());
        if threads <= 1 {
            self.advance_serial(cycles);
        } else {
            self.advance_parallel(cycles, threads);
        }
    }

    /// The reference path: all clusters interleave on one thread inside
    /// [`engine::run_lanes`].
    fn advance_serial(&mut self, cycles: u64) {
        let mut lanes: Vec<Lane<'_, S>> = self
            .clusters
            .iter_mut()
            .map(|cl| Lane {
                cores: &mut cl.cores,
                streams: &mut cl.streams,
                mem: &mut cl.mem,
                period_ps: cl.config.core_period_ps(),
                cycle: cl.cycle,
                end: cl.cycle + cycles,
            })
            .collect();
        self.skipped_cycles += engine::run_lanes(
            &mut lanes,
            &mut self.inv_buf,
            RunCtl {
                cycle_skip: self.cycle_skip,
                skipped_base: self.skipped_cycles,
                hook: self.probe.as_mut(),
            },
        );
        let cycles_after: Vec<u64> = lanes.iter().map(|l| l.cycle).collect();
        drop(lanes);
        for (cl, c) in self.clusters.iter_mut().zip(cycles_after) {
            cl.cycle = c;
        }
    }

    /// The epoch-barrier parallel path.
    ///
    /// Clusters couple only through the shared DRAM, so the window is cut
    /// into *epochs*: per-cluster cycle caps chosen such that **no DRAM
    /// event is observable by any cluster before its cap** —
    ///
    /// 1. a cluster's cap never passes its own earliest possible fill
    ///    wake-up ([`MemorySystem::next_fill_wake_ps`], a floor that DRAM
    ///    arrivals ordered later can only raise), and
    /// 2. no cap passes `E + L_min`, where `E` is the earliest instant any
    ///    core on the chip could leave quiescence and submit *new* DRAM
    ///    traffic, and `L_min` is the minimum submit→due latency
    ///    (crossbar there and back, CAS, burst) — so in-epoch traffic
    ///    cannot produce an in-epoch-observable fill either.
    ///
    /// Within an epoch every cluster therefore evolves exactly as it
    /// would under the serial interleaving, and the epochs can run on
    /// worker threads with the DRAM detached. At the barrier the recorded
    /// DRAM traffic is replayed in canonical `(boundary ps, cluster)`
    /// order — the serial engine's own interleaving order — so scheduler
    /// decisions, ticket numbering and completion times are bit-identical
    /// to a serial run. Epochs too small to pay for thread fan-out (the
    /// memory-active regime) fall back to exact serial chunks.
    fn advance_parallel(&mut self, cycles: u64, threads: usize) {
        let ends: Vec<u64> = self.clusters.iter().map(|cl| cl.cycle + cycles).collect();
        let min_lat = self.min_submit_latency_ps();
        self.sample_probe();
        while let Some(plan) = self.plan_epoch(&ends, min_lat) {
            if plan.parallel_ok && plan.work >= PARALLEL_EPOCH_MIN_CYCLES {
                self.run_epoch_parallel(&plan.caps, threads);
            } else {
                self.run_epoch_serial(&ends);
            }
            self.sample_probe();
        }
    }

    /// The minimum picoseconds between a core submitting a new memory
    /// request and any resulting fill becoming due at a core: the cheapest
    /// crossbar hop each way plus the DRAM CAS latency and data burst.
    /// Every real path through [`MemorySystem::submit`] pays at least
    /// this (LLC bank service, queueing, precharge/activate and scheduling
    /// delays only add to it).
    fn min_submit_latency_ps(&self) -> u64 {
        let traversal = self
            .clusters
            .iter()
            .map(|cl| cl.config.xbar.traversal_ps)
            .min()
            .unwrap_or(0);
        let d = &self.config.dram;
        2 * traversal + u64::from(d.cl) * d.tck_ps + d.burst_ps()
    }

    /// Chooses this epoch's per-cluster cycle caps (exclusive), or `None`
    /// when every cluster has reached its window end.
    ///
    /// Every cap derives from one **common wall-clock frontier** `F`:
    /// `cap = min(F / period, window end)`. The floor division makes every
    /// boundary key processed this epoch `<= F` while every op a cluster
    /// can generate *after* its cap carries a key
    /// `(cap + 1) * period > F` — so next-epoch traffic can never have to
    /// interleave before anything already replayed, regardless of how the
    /// clusters' clocks divide. (Per-lane cycle bounds — the old scheme —
    /// violate exactly this on heterogeneous chips: a cycle count lands at
    /// different wall-clock instants per cluster, and the lane that stops
    /// early has its next ops ordered *after* slower lanes' later
    /// boundaries.)
    ///
    /// `F` itself is the earliest instant anything could become observable
    /// to a detached cluster:
    ///
    /// 1. the chip-wide fill-wake floor — the minimum over clusters of
    ///    [`MemorySystem::next_fill_wake_ps`], a bound DRAM arrivals
    ///    ordered later can only raise — covers fills of *already
    ///    outstanding* reads, and
    /// 2. `E + L_min` — the earliest instant any core could submit *new*
    ///    DRAM traffic (pending coherence invalidations count as activity
    ///    now; otherwise the per-core quiescence probe bounds it) plus the
    ///    minimum submit-to-due latency — covers fills of reads
    ///    submitted *during* the epoch.
    ///
    /// When some cluster already sits at or past the frontier
    /// (`parallel_ok == false`) the regime is fine-grained interleaving
    /// and the caller must fall back to an exact serial chunk.
    fn plan_epoch(&self, ends: &[u64], min_lat_ps: u64) -> Option<EpochPlan> {
        let mut earliest_traffic_ps = u64::MAX;
        let mut fill_floor_ps = u64::MAX;
        let mut any = false;
        for (cl, &end) in self.clusters.iter().zip(ends) {
            if cl.cycle >= end {
                continue;
            }
            any = true;
            let p = cl.config.core_period_ps();
            if let Some(w) = cl.mem.next_fill_wake_ps() {
                fill_floor_ps = fill_floor_ps.min(w);
            }
            let mut lane_ps = u64::MAX;
            if cl.mem.has_pending_invalidations() {
                lane_ps = cl.cycle.saturating_mul(p);
            } else {
                for core in &cl.cores {
                    match core.quiescent_until(&cl.mem, cl.cycle, p) {
                        None => {
                            lane_ps = cl.cycle.saturating_mul(p);
                            break;
                        }
                        Some(c) => lane_ps = lane_ps.min(c.saturating_mul(p)),
                    }
                }
            }
            earliest_traffic_ps = earliest_traffic_ps.min(lane_ps);
        }
        if !any {
            return None;
        }
        let frontier_ps = fill_floor_ps.min(earliest_traffic_ps.saturating_add(min_lat_ps));
        let mut caps = Vec::with_capacity(self.clusters.len());
        let mut work = 0u64;
        let mut parallel_ok = true;
        for (cl, &end) in self.clusters.iter().zip(ends) {
            if cl.cycle >= end {
                caps.push(cl.cycle);
                continue;
            }
            let p = cl.config.core_period_ps();
            let cap = (frontier_ps / p).min(end);
            if cap <= cl.cycle {
                parallel_ok = false;
            }
            work += cap.saturating_sub(cl.cycle);
            caps.push(cap.max(cl.cycle));
        }
        Some(EpochPlan {
            caps,
            work,
            parallel_ok,
        })
    }

    /// Runs one bounded chunk on the exact serial engine. The chunk bound
    /// is a common wall-clock frontier (`floor`-divided into each lane's
    /// clock) for the same ordering reason as the parallel caps — a
    /// per-lane cycle bound would freeze fast clusters early and let slow
    /// ones run the shared DRAM past them, diverging from the
    /// uninterrupted serial interleaving. The window ends themselves are
    /// exempt: they are the reference semantics (a lane frozen at its
    /// window end freezes in a plain serial run too).
    fn run_epoch_serial(&mut self, ends: &[u64]) {
        let mut base_ps = u64::MAX;
        let mut min_period = u64::MAX;
        for (cl, &end) in self.clusters.iter().zip(ends) {
            if cl.cycle >= end {
                continue;
            }
            let p = cl.config.core_period_ps();
            base_ps = base_ps.min(cl.cycle.saturating_mul(p));
            min_period = min_period.min(p);
        }
        if base_ps == u64::MAX {
            return;
        }
        let frontier_ps = base_ps.saturating_add(SERIAL_EPOCH_CYCLES.saturating_mul(min_period));
        let mut lanes: Vec<Lane<'_, S>> = self
            .clusters
            .iter_mut()
            .zip(ends)
            .map(|(cl, &end)| {
                let p = cl.config.core_period_ps();
                Lane {
                    cores: &mut cl.cores,
                    streams: &mut cl.streams,
                    mem: &mut cl.mem,
                    period_ps: p,
                    cycle: cl.cycle,
                    end: end.min(frontier_ps / p).max(cl.cycle),
                }
            })
            .collect();
        self.skipped_cycles += engine::run_lanes(
            &mut lanes,
            &mut self.inv_buf,
            RunCtl {
                cycle_skip: self.cycle_skip,
                skipped_base: self.skipped_cycles,
                hook: None,
            },
        );
        let cycles_after: Vec<u64> = lanes.iter().map(|l| l.cycle).collect();
        drop(lanes);
        for (cl, c) in self.clusters.iter_mut().zip(cycles_after) {
            cl.cycle = c;
        }
    }

    /// Runs one epoch on worker threads: detach every participating
    /// cluster from the DRAM, advance each to its cap independently, then
    /// replay the recorded DRAM traffic at the barrier.
    fn run_epoch_parallel(&mut self, caps: &[u64], threads: usize) {
        let starts: Vec<u64> = self.clusters.iter().map(|cl| cl.cycle).collect();
        for (cl, &cap) in self.clusters.iter_mut().zip(caps) {
            if cap > cl.cycle {
                let p = cl.config.core_period_ps();
                cl.mem.detach_dram(p, cap.saturating_mul(p));
            }
        }
        let cycle_skip = self.cycle_skip;
        let chunk = self.clusters.len().div_ceil(threads);
        let skipped0 = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (cl_chunk, cap_chunk) in self.clusters.chunks_mut(chunk).zip(caps.chunks(chunk)) {
                handles.push(scope.spawn(move || {
                    let mut inv_buf: Vec<Invalidation> = Vec::new();
                    let mut skipped = Vec::with_capacity(cl_chunk.len());
                    for (cl, &cap) in cl_chunk.iter_mut().zip(cap_chunk) {
                        if cap <= cl.cycle {
                            skipped.push(0);
                            continue;
                        }
                        let mut lanes = [Lane {
                            cores: &mut cl.cores,
                            streams: &mut cl.streams,
                            mem: &mut cl.mem,
                            period_ps: cl.config.core_period_ps(),
                            cycle: cl.cycle,
                            end: cap,
                        }];
                        let s = engine::run_lanes(
                            &mut lanes,
                            &mut inv_buf,
                            RunCtl {
                                cycle_skip,
                                skipped_base: 0,
                                hook: None,
                            },
                        );
                        cl.cycle = lanes[0].cycle;
                        skipped.push(s);
                    }
                    skipped
                }));
            }
            let mut skipped0 = 0u64;
            for (i, h) in handles.into_iter().enumerate() {
                let s = h.join().expect("cluster worker panicked");
                if i == 0 {
                    skipped0 = s.first().copied().unwrap_or(0);
                }
            }
            skipped0
        });
        // The skip diagnostic stays on cluster 0's clock, as in the
        // serial engine.
        self.skipped_cycles += skipped0;
        self.replay_epoch(&starts, caps);
    }

    /// The epoch barrier: replays every cluster's recorded DRAM ops and
    /// uncore tick boundaries against the shared DRAM in ascending
    /// `(boundary ps, cluster)` order — exactly how the serial multi-clock
    /// engine interleaves lane ticks — so the scheduler sees identical
    /// traffic in identical order and produces identical completions.
    fn replay_epoch(&mut self, starts: &[u64], caps: &[u64]) {
        let n = self.clusters.len();
        let ops: Vec<Vec<DeferredDramOp>> = self
            .clusters
            .iter_mut()
            .map(|cl| cl.mem.reattach_dram())
            .collect();
        let periods: Vec<u64> = self
            .clusters
            .iter()
            .map(|cl| cl.config.core_period_ps())
            .collect();
        let mut cyc: Vec<u64> = starts.to_vec();
        let mut oi = vec![0usize; n];
        loop {
            // Next boundary to process: smallest ((cycle + 1) * period),
            // ties to the lowest cluster index.
            let mut li = usize::MAX;
            let mut key = u64::MAX;
            for i in 0..n {
                if cyc[i] >= caps[i] {
                    continue;
                }
                let k = (cyc[i] + 1) * periods[i];
                if k < key {
                    key = k;
                    li = i;
                }
            }
            if li == usize::MAX {
                break;
            }
            // Fast-forward: with nothing queued at the DRAM a boundary
            // tick is a no-op in the serial engine too (the scheduler
            // early-returns), so jump every cursor to just below the next
            // recorded op — but always tick each lane's *final* boundary,
            // which drains any issued-but-undrained completions.
            if self.dram.lock().unwrap().pending() == 0 {
                let mut k_op = u64::MAX;
                for i in 0..n {
                    if let Some(op) = ops[i].get(oi[i]) {
                        k_op = k_op.min(op.key_ps);
                    }
                }
                if k_op > key {
                    let mut moved = false;
                    for i in 0..n {
                        if cyc[i] >= caps[i] {
                            continue;
                        }
                        let limit = k_op.min(caps[i] * periods[i]);
                        let c_new = (limit.div_ceil(periods[i]) - 1).min(caps[i] - 1);
                        if c_new > cyc[i] {
                            cyc[i] = c_new;
                            moved = true;
                        }
                    }
                    if moved {
                        continue;
                    }
                }
            }
            // Core-tick submits recorded against this boundary apply
            // before its uncore tick, invalidation-drain write-backs
            // after — mirroring the serial engine's within-boundary order.
            while let Some(op) = ops[li].get(oi[li]) {
                if op.key_ps != key || op.after_tick {
                    break;
                }
                if op.write {
                    self.clusters[li]
                        .mem
                        .replay_dram_write(op.line_addr, op.arrive_ps);
                } else {
                    self.clusters[li]
                        .mem
                        .replay_dram_read(op.line_addr, op.arrive_ps);
                }
                oi[li] += 1;
            }
            self.clusters[li].mem.tick(key);
            while let Some(op) = ops[li].get(oi[li]) {
                if op.key_ps != key {
                    break;
                }
                debug_assert!(op.after_tick, "pre-tick op left behind at {key}");
                if op.write {
                    self.clusters[li]
                        .mem
                        .replay_dram_write(op.line_addr, op.arrive_ps);
                } else {
                    self.clusters[li]
                        .mem
                        .replay_dram_read(op.line_addr, op.arrive_ps);
                }
                oi[li] += 1;
            }
            cyc[li] += 1;
        }
        for (i, lane_ops) in ops.iter().enumerate() {
            debug_assert_eq!(oi[i], lane_ops.len(), "unreplayed DRAM ops on cluster {i}");
        }
    }

    /// Chip-side mirror of the engine's probe sampling, used between
    /// epochs in parallel mode (workers run with no hook attached; energy
    /// windows telescope, so any consistent sample set closes).
    fn sample_probe(&mut self) {
        let Some(probe) = self.probe.as_mut() else {
            return;
        };
        let mut rob = 0u64;
        let mut mshr = 0u64;
        let (mut user_instrs, mut instrs, mut rob_full_cycles) = (0u64, 0u64, 0u64);
        let (mut llc_hits, mut llc_misses, mut xbar_transfers) = (0u64, 0u64, 0u64);
        for cl in &self.clusters {
            for core in &cl.cores {
                rob += core.rob_occupancy() as u64;
                mshr += u64::from(core.in_flight_data());
                let cs = core.stats();
                user_instrs += cs.user_instrs;
                instrs += cs.instrs();
                rob_full_cycles += cs.rob_full_cycles;
            }
            let llc = cl.mem.llc_stats();
            llc_hits += llc.hits;
            llc_misses += llc.misses;
            xbar_transfers += cl.mem.xbar_transfers();
        }
        let (dram_pending, dram_channel_depths, dram) = {
            let d = self.dram.lock().unwrap();
            (d.pending() as u64, d.channel_queue_depths(), d.stats())
        };
        let cycle = self.clusters[0].cycle;
        probe.sample(ProbeSample {
            cycle,
            now_ps: cycle * self.clusters[0].config.core_period_ps(),
            mshr_occupancy: mshr,
            rob_occupancy: rob,
            dram_pending,
            dram_channel_depths,
            dram_row_hits: dram.row_hits,
            dram_row_misses: dram.row_misses,
            skipped_cycles: self.skipped_cycles,
            user_instrs,
            instrs,
            rob_full_cycles,
            llc_hits,
            llc_misses,
            xbar_transfers,
            dram_reads: dram.reads,
            dram_writes: dram.writes,
        });
    }

    /// Runs `cycles` core cycles on every cluster (each on its own clock)
    /// and returns cumulative chip statistics.
    pub fn run(&mut self, cycles: u64) -> SimStats {
        let _span = ntc_telemetry::trace::span_cat("sim", "sim.run");
        self.advance(cycles);
        self.stats()
    }

    /// Runs a measurement window, returning that window's deltas. As in
    /// [`crate::ClusterSim::run_measured`], one snapshot is taken before
    /// the window and the deltas come straight off the live counters.
    pub fn run_measured(&mut self, cycles: u64) -> SimStats {
        let _span = ntc_telemetry::trace::span_cat("sim", "sim.run_measured");
        let before = self.stats();
        let skipped_before = self.skipped_cycles;
        self.advance(cycles);
        let cycle0 = self.clusters[0].cycle;
        // One lock for all three DRAM reads: guards born inside a struct
        // literal live to the end of the whole expression, so repeated
        // `lock()` calls there would self-deadlock.
        let (dram, dram_hw, dram_chan_hw) = {
            let d = self.dram.lock().unwrap();
            (
                d.stats(),
                d.queue_depth_high_water() as u64,
                d.channel_queue_high_water(),
            )
        };
        let window = SimStats {
            cores: self
                .clusters
                .iter()
                .flat_map(|cl| cl.cores.iter())
                .zip(before.cores.iter())
                .map(|(c, b)| c.stats().delta_since(b))
                .collect(),
            llc: self.llc_stats().delta_since(&before.llc),
            dram: dram.delta_since(&before.dram),
            xbar_transfers: self.xbar_transfers() - before.xbar_transfers,
            dram_queue_high_water: dram_hw,
            dram_channel_queue_high_water: dram_chan_hw,
            core_mhz: self.clusters[0].config.core_mhz,
            cycles: cycle0 - before.cycles,
            wall_ps: (cycle0 - before.cycles) * self.clusters[0].config.core_period_ps(),
        };
        crate::cluster::record_window_metrics(&window, self.skipped_cycles - skipped_before);
        window
    }

    /// Runs a measurement window and returns each cluster's deltas
    /// separately — the heterogeneous sweep's unit of measurement, since
    /// chip-wide UIPC is meaningless across clock domains. Each entry
    /// carries that cluster's cores, LLC, crossbar, frequency and
    /// wall-clock window; the DRAM counters are chip-wide (the channels
    /// are shared) and repeated in every entry.
    pub fn run_measured_clusters(&mut self, cycles: u64) -> Vec<SimStats> {
        let _span = ntc_telemetry::trace::span_cat("sim", "sim.run_measured");
        let before: Vec<SimStats> = (0..self.clusters.len())
            .map(|i| self.cluster_stats(i))
            .collect();
        self.advance(cycles);
        (0..self.clusters.len())
            .map(|i| {
                let b = &before[i];
                let cl = &self.clusters[i];
                let after = self.cluster_stats(i);
                SimStats {
                    cores: after
                        .cores
                        .iter()
                        .zip(b.cores.iter())
                        .map(|(c, pre)| c.delta_since(pre))
                        .collect(),
                    llc: after.llc.delta_since(&b.llc),
                    dram: after.dram.delta_since(&b.dram),
                    xbar_transfers: after.xbar_transfers - b.xbar_transfers,
                    dram_queue_high_water: after.dram_queue_high_water,
                    dram_channel_queue_high_water: after.dram_channel_queue_high_water.clone(),
                    core_mhz: cl.config.core_mhz,
                    cycles: after.cycles - b.cycles,
                    wall_ps: (after.cycles - b.cycles) * cl.config.core_period_ps(),
                }
            })
            .collect()
    }

    /// Chip-wide LLC counters summed across the clusters' private LLCs.
    fn llc_stats(&self) -> crate::llc::LlcStats {
        let mut llc = crate::llc::LlcStats::default();
        for cl in &self.clusters {
            let s = cl.mem.llc_stats();
            llc.hits += s.hits;
            llc.misses += s.misses;
            llc.writebacks += s.writebacks;
            llc.invalidations += s.invalidations;
        }
        llc
    }

    /// Crossbar transfers summed across clusters.
    fn xbar_transfers(&self) -> u64 {
        self.clusters.iter().map(|cl| cl.mem.xbar_transfers()).sum()
    }

    /// Cumulative statistics for one cluster: its cores, LLC and crossbar,
    /// on its own clock. The DRAM counters are the shared chip-wide system
    /// (per-cluster attribution does not exist at the channel level).
    pub fn cluster_stats(&self, cluster: usize) -> SimStats {
        let cl = &self.clusters[cluster];
        let (dram, dram_hw, dram_chan_hw) = {
            let d = self.dram.lock().unwrap();
            (
                d.stats(),
                d.queue_depth_high_water() as u64,
                d.channel_queue_high_water(),
            )
        };
        SimStats {
            cores: cl.cores.iter().map(|c| c.stats().clone()).collect(),
            llc: cl.mem.llc_stats(),
            dram,
            xbar_transfers: cl.mem.xbar_transfers(),
            dram_queue_high_water: dram_hw,
            dram_channel_queue_high_water: dram_chan_hw,
            core_mhz: cl.config.core_mhz,
            cycles: cl.cycle,
            wall_ps: cl.cycle * cl.config.core_period_ps(),
        }
    }

    /// Cumulative chip statistics: all cores across all clusters, with the
    /// shared DRAM counted once. The clock-derived fields (`core_mhz`,
    /// `cycles`, `wall_ps`) report cluster 0 — exact for homogeneous
    /// chips; heterogeneous callers should use
    /// [`ChipSim::cluster_stats`] / [`ChipSim::run_measured_clusters`]
    /// for per-domain rates.
    pub fn stats(&self) -> SimStats {
        let cores = self
            .clusters
            .iter()
            .flat_map(|cl| cl.cores.iter().map(|c| c.stats().clone()))
            .collect();
        let (dram, dram_hw, dram_chan_hw) = {
            let d = self.dram.lock().unwrap();
            (
                d.stats(),
                d.queue_depth_high_water() as u64,
                d.channel_queue_high_water(),
            )
        };
        SimStats {
            cores,
            llc: self.llc_stats(),
            dram,
            xbar_transfers: self.xbar_transfers(),
            dram_queue_high_water: dram_hw,
            dram_channel_queue_high_water: dram_chan_hw,
            core_mhz: self.clusters[0].config.core_mhz,
            cycles: self.clusters[0].cycle,
            wall_ps: self.clusters[0].cycle * self.clusters[0].config.core_period_ps(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::{RandomAccessStream, StrideStream};

    #[test]
    fn chip_stats_cover_all_cores_and_one_dram() {
        let mut chip = ChipSim::new(SimConfig::paper_cluster(1000.0), 3, |cl, c| {
            RandomAccessStream::new(64 << 20, 0.3, 4, u64::from(cl) * 8 + u64::from(c))
        });
        let s = chip.run(4_000);
        assert_eq!(s.cores.len(), 12, "3 clusters x 4 cores");
        assert!(s.uipc() > 1.0);
        assert!(s.dram.reads > 0);
    }

    #[test]
    fn channel_sharing_degrades_per_cluster_throughput_under_bandwidth_pressure() {
        // Bandwidth-hungry streams: one cluster alone vs nine sharing the
        // same four channels.
        let per_cluster_uipc = |clusters: u32| {
            let mut chip = ChipSim::new(SimConfig::paper_cluster(2000.0), clusters, |cl, c| {
                StrideStream::new(64, 512 << 20, 0.25 + 0.01 * f64::from(cl * 4 + c))
            });
            chip.run(2_000);
            let s = chip.run_measured(12_000);
            s.uipc() / f64::from(clusters)
        };
        let solo = per_cluster_uipc(1);
        let shared = per_cluster_uipc(9);
        assert!(
            shared < solo * 0.8,
            "nine clusters on four channels must feel the contention: \
             {shared:.3} vs {solo:.3} per cluster"
        );
    }

    #[test]
    fn cache_resident_work_scales_linearly_across_clusters() {
        // L1-resident work doesn't touch DRAM: per-cluster throughput must
        // be unaffected by the cluster count — the regime behind the
        // paper's x9 scaling.
        let per_cluster_uipc = |clusters: u32| {
            let mut chip = ChipSim::new(SimConfig::paper_cluster(2000.0), clusters, |_, c| {
                RandomAccessStream::new(8 << 10, 0.3, 4, u64::from(c))
            });
            // Generous warm-up: all clusters' compulsory misses queue at
            // the same channels at t=0.
            chip.run(30_000);
            chip.run_measured(8_000).uipc() / f64::from(clusters)
        };
        let solo = per_cluster_uipc(1);
        let many = per_cluster_uipc(6);
        assert!(
            (many / solo - 1.0).abs() < 0.05,
            "cache-resident scaling should be linear: {many:.3} vs {solo:.3}"
        );
    }

    #[test]
    fn heterogeneous_clusters_tick_their_own_clocks() {
        // A big 2 GHz cluster and a little 500 MHz one: over the same
        // per-cluster cycle window the big cluster covers a quarter of the
        // wall-clock time and retires far more work per wall-second.
        let mut config = ChipConfig::homogeneous(&SimConfig::paper_cluster(2000.0), 2);
        config.clusters[1] = ClusterConfig::little_cluster(500.0);
        let mut chip = ChipSim::new_chip(config, |cl, c| {
            RandomAccessStream::new(64 << 20, 0.3, 4, u64::from(cl) * 8 + u64::from(c))
        });
        chip.run(6_000);
        let big = chip.cluster_stats(0);
        let little = chip.cluster_stats(1);
        assert_eq!(big.cycles, 6_000);
        assert_eq!(little.cycles, 6_000);
        assert_eq!(big.wall_ps * 4, little.wall_ps);
        assert!(
            big.uips() > 2.0 * little.uips(),
            "a 2 GHz OoO cluster must out-run a 500 MHz in-order one: {} vs {}",
            big.uips(),
            little.uips()
        );
    }

    #[test]
    fn per_cluster_measurement_windows_are_disjoint_deltas() {
        let mut config = ChipConfig::homogeneous(&SimConfig::paper_cluster(1000.0), 2);
        config.clusters[1] = ClusterConfig::little_cluster(700.0);
        let mut chip = ChipSim::new_chip(config, |cl, c| {
            RandomAccessStream::new(64 << 20, 0.3, 4, u64::from(cl) * 8 + u64::from(c))
        });
        chip.run(2_000);
        let windows = chip.run_measured_clusters(3_000);
        assert_eq!(windows.len(), 2);
        for w in &windows {
            assert_eq!(w.cycles, 3_000);
            assert!(w.user_instrs() > 0);
            assert!(w.user_instrs() < chip.stats().user_instrs());
        }
        assert_eq!(windows[0].core_mhz, 1000.0);
        assert_eq!(windows[1].core_mhz, 700.0);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn zero_clusters_rejected() {
        let _ = ChipSim::new(SimConfig::paper_cluster(1000.0), 0, |_, _| {
            RandomAccessStream::new(1 << 20, 0.3, 4, 0)
        });
    }

    #[test]
    #[should_panic(expected = "cluster 1")]
    fn invalid_cluster_named_in_panic() {
        let mut config = ChipConfig::homogeneous(&SimConfig::paper_cluster(1000.0), 2);
        config.clusters[1].cores = 0;
        let _ = ChipSim::new_chip(config, |_, _| RandomAccessStream::new(1 << 20, 0.3, 4, 0));
    }
}
