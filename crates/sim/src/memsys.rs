//! The uncore: request lifecycle from L1 miss to data return.
//!
//! A core's L1 miss traverses the crossbar, queues at an LLC bank, and on an
//! LLC miss descends into the DDR4 system; the fill returns over the
//! crossbar. [`MemorySystem`] owns the crossbar, LLC and DRAM models, merges
//! requests to the same line (MSHR-style), pushes each demand request's
//! completion time to its core once it is known, and surfaces the coherence
//! invalidations the cluster must apply to L1s.

use crate::cache::SetAssocArray;
use crate::config::{ClusterConfig, SimConfig};
use crate::dram::{DramStats, DramSystem, DramTicket};
use crate::fxhash::FxHashMap;
use crate::llc::{Invalidation, LlcStats, SharedLlc, SharerMask};
use crate::xbar::Crossbar;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;

/// A DRAM system shared by several memory controllers (clusters on one
/// chip). The engine advances one cluster at a time on one thread, so a
/// `RefCell` borrow is all the sharing needs.
pub type SharedDram = Rc<RefCell<DramSystem>>;

/// Why a request entered the memory system (for statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemRequestKind {
    /// L1-D load miss.
    Load,
    /// L1-D store miss (read-for-ownership).
    Store,
    /// L1-I fetch miss.
    IFetch,
    /// Hardware prefetch (fire-and-forget LLC fill).
    Prefetch,
}

/// A demand request waiting on a line fill: the requesting core and the
/// owner tag its completion carries back.
type Waiter = (u32, u64);

/// The cluster's uncore.
#[derive(Debug)]
pub struct MemorySystem {
    xbar: Crossbar,
    llc: SharedLlc,
    dram: SharedDram,
    /// This cluster's owner id on the shared DRAM.
    dram_owner: u32,
    xbar_return_ps: u64,
    /// Outstanding line fills and their waiters: later requests to the
    /// same line merge.
    by_line: FxHashMap<u64, Vec<Waiter>>,
    dram_to_line: FxHashMap<DramTicket, u64>,
    /// Per core, resolved completions `(done_ps, owner)` the core has not
    /// drained yet (see [`MemorySystem::submit`]).
    completions: Vec<Vec<(u64, u64)>>,
    prefetches: u64,
    /// Reused per-tick DRAM completion buffer (allocation-free drain).
    completion_buf: Vec<(DramTicket, u64)>,
    /// Recycled waiter lists for `by_line` (a fill completes → its list
    /// returns here → the next miss reuses it).
    waiter_pool: Vec<Vec<Waiter>>,
}

impl MemorySystem {
    /// Builds the uncore from the simulator configuration, with its own
    /// private DRAM system.
    pub fn new(cfg: &SimConfig) -> Self {
        Self::with_shared_dram(
            &cfg.cluster(),
            Rc::new(RefCell::new(DramSystem::new(cfg.dram))),
            0,
        )
    }

    /// Builds the uncore for one cluster as client `dram_owner` of a DRAM
    /// system shared with other clusters (the multi-cluster chip
    /// configuration). Each cluster brings its own crossbar and LLC
    /// geometry — only the DRAM behind them is common.
    pub fn with_shared_dram(cluster: &ClusterConfig, dram: SharedDram, dram_owner: u32) -> Self {
        MemorySystem {
            xbar: Crossbar::new(cluster.xbar, cluster.cores),
            llc: SharedLlc::new(cluster.llc),
            dram,
            dram_owner,
            xbar_return_ps: cluster.xbar.traversal_ps,
            by_line: FxHashMap::default(),
            dram_to_line: FxHashMap::default(),
            completions: vec![Vec::new(); cluster.cores as usize],
            prefetches: 0,
            completion_buf: Vec::new(),
            waiter_pool: Vec::new(),
        }
    }

    /// Posts a DRAM read and binds its ticket to the line for the eventual
    /// completion drain.
    fn dram_read(&mut self, line_addr: u64, arrive_ps: u64) {
        let dram_ticket = self
            .dram
            .borrow_mut()
            .read_for(self.dram_owner, line_addr, arrive_ps);
        self.dram_to_line.insert(dram_ticket, line_addr);
    }

    /// A waiter list for a new outstanding fill, recycled when possible.
    fn new_waiters(&mut self) -> Vec<Waiter> {
        self.waiter_pool.pop().unwrap_or_default()
    }

    /// Submits an L1 miss for `core` at absolute time `now_ps`, on behalf
    /// of `owner` (a tag the core chooses).
    ///
    /// Once the data's arrival time at the core is known, `(done_ps,
    /// owner)` is appended to the core's completion queue: here for an
    /// LLC hit, and at the [`MemorySystem::tick`] that drains the DRAM
    /// fill otherwise.
    /// Requests to a line already being filled merge onto the outstanding
    /// fill and complete with it.
    pub fn submit(
        &mut self,
        core: u32,
        line_addr: u64,
        kind: MemRequestKind,
        owner: u64,
        now_ps: u64,
    ) {
        let line_addr = SetAssocArray::<()>::align(line_addr);

        // MSHR merge: the line is already on its way.
        if let Some(waiters) = self.by_line.get_mut(&line_addr) {
            waiters.push((core, owner));
            return;
        }

        let write = matches!(kind, MemRequestKind::Store);
        let at_llc = self.xbar.traverse(core as usize, now_ps);
        let access = self.llc.access(line_addr, write, core, at_llc);
        if let Some(victim) = access.writeback {
            self.dram.borrow_mut().write(victim, access.ready_ps);
        }
        if access.hit {
            self.completions[core as usize].push((access.ready_ps + self.xbar_return_ps, owner));
        } else {
            self.dram_read(line_addr, access.ready_ps);
            let mut waiters = self.new_waiters();
            waiters.push((core, owner));
            self.by_line.insert(line_addr, waiters);
        }
    }

    /// Removes and yields `core`'s resolved completions `(done_ps, owner)`
    /// in the order they resolved. `done_ps` may lie in the future: the
    /// data reaches the core at the first cycle starting at or after it.
    #[inline]
    pub(crate) fn drain_completions(&mut self, core: u32) -> std::vec::Drain<'_, (u64, u64)> {
        self.completions[core as usize].drain(..)
    }

    /// `core`'s resolved completions not yet drained (the cycle-skip
    /// probe's view; never mutates).
    #[inline]
    pub(crate) fn pending_completions(&self, core: u32) -> &[(u64, u64)] {
        &self.completions[core as usize]
    }

    /// Posts a fire-and-forget prefetch: the line is brought into the LLC
    /// (consuming crossbar, bank and DRAM bandwidth like any fill) but no
    /// one waits on it. A later demand miss to the same line merges onto
    /// the in-flight fill.
    pub fn submit_prefetch(&mut self, core: u32, line_addr: u64, now_ps: u64) {
        let line_addr = SetAssocArray::<()>::align(line_addr);
        if self.by_line.contains_key(&line_addr) {
            return; // already in flight
        }
        let at_llc = self.xbar.traverse(core as usize, now_ps);
        let access = self.llc.access(line_addr, false, core, at_llc);
        if access.hit {
            return; // already resident
        }
        if let Some(victim) = access.writeback {
            self.dram.borrow_mut().write(victim, access.ready_ps);
        }
        self.dram_read(line_addr, access.ready_ps);
        // Open a merge point with no waiters of its own.
        let waiters = self.new_waiters();
        self.by_line.insert(line_addr, waiters);
        self.prefetches += 1;
    }

    /// Posts a dirty-line write-back from an L1 (non-blocking).
    pub fn writeback(&mut self, core: u32, line_addr: u64, now_ps: u64) {
        let line_addr = SetAssocArray::<()>::align(line_addr);
        let at_llc = self.xbar.traverse(core as usize, now_ps);
        if let Some(victim) = self.llc.writeback_from_l1(line_addr, at_llc) {
            self.dram.borrow_mut().write(victim, at_llc);
        }
    }

    /// Installs a line in the LLC without timing (checkpoint warming).
    pub fn install_llc(&mut self, line_addr: u64, sharers: SharerMask) {
        self.llc
            .install(SetAssocArray::<()>::align(line_addr), sharers);
    }

    /// Advances DRAM scheduling up to `until_ps` and resolves completed
    /// fills.
    pub fn tick(&mut self, until_ps: u64) {
        let mut completed = std::mem::take(&mut self.completion_buf);
        completed.clear();
        {
            let mut dram = self.dram.borrow_mut();
            // The shared scheduler's clock never rewinds: after a
            // heterogeneous advance window a short-period cluster sits at
            // an earlier absolute time than the DRAM has reached, and its
            // late-timestamped arrivals simply become eligible now.
            let until_ps = until_ps.max(dram.now_ps());
            dram.tick(until_ps);
            dram.drain_completed_for_into(self.dram_owner, &mut completed);
        }
        for &(dram_ticket, done_ps) in &completed {
            let line = match self.dram_to_line.remove(&dram_ticket) {
                Some(l) => l,
                None => continue,
            };
            let done = done_ps + self.xbar_return_ps;
            if let Some(mut waiters) = self.by_line.remove(&line) {
                for &(core, owner) in &waiters {
                    self.completions[core as usize].push((done, owner));
                }
                waiters.clear();
                self.waiter_pool.push(waiters);
            }
        }
        self.completion_buf = completed;
    }

    /// Earliest time DRAM could issue any queued command, or `None` when
    /// the queues are empty (see [`DramSystem::next_issue_ps`]).
    pub fn next_issue_ps(&self) -> Option<u64> {
        self.dram.borrow_mut().next_issue_ps()
    }

    /// Earliest time any outstanding DRAM read's fill could be back at a
    /// core: the minimum of the queued-read completion bound
    /// ([`DramSystem::next_read_completion_ps`]) and the earliest
    /// *issued-but-undrained* completion for this cluster
    /// ([`DramSystem::next_undrained_completion_ps`]), plus the crossbar
    /// return hop. `None` when neither exists — pending writes alone
    /// never wake a core.
    ///
    /// The undrained term matters on heterogeneous chips: another
    /// cluster's ticks can advance the shared scheduler and issue this
    /// cluster's read between two of its own [`MemorySystem::tick`]s, at
    /// which point the read is neither queued (invisible to the
    /// completion bound) nor resolved (no completion has been pushed to
    /// its core yet). Without the term the skip target can overshoot the
    /// fill's completion cycle and drop core work.
    ///
    /// No fill can complete at a core before this time, so the cycle-skip fast
    /// path may jump up to this bound even across DRAM command issues,
    /// provided the skip replays the uncore's per-cycle
    /// [`MemorySystem::tick`] boundaries.
    pub fn next_fill_wake_ps(&self) -> Option<u64> {
        let mut dram = self.dram.borrow_mut();
        let queued = dram.next_read_completion_ps();
        let undrained = dram.next_undrained_completion_ps(self.dram_owner);
        let earliest = match (queued, undrained) {
            (Some(q), Some(u)) => Some(q.min(u)),
            (q, u) => q.or(u),
        };
        earliest.map(|d| d + self.xbar_return_ps)
    }

    /// Whether coherence invalidations are queued for the cluster to apply.
    pub fn has_pending_invalidations(&self) -> bool {
        self.llc.has_pending_invalidations()
    }

    /// Invalidations the cluster must apply to core L1s.
    pub fn drain_invalidations(&mut self) -> Vec<Invalidation> {
        self.llc.drain_invalidations()
    }

    /// Drains invalidations into a caller-owned buffer — the hot loop's
    /// allocation-free variant of [`MemorySystem::drain_invalidations`].
    pub fn drain_invalidations_into(&mut self, buf: &mut Vec<Invalidation>) {
        self.llc.drain_invalidations_into(buf);
    }

    /// LLC statistics.
    pub fn llc_stats(&self) -> LlcStats {
        self.llc.stats()
    }

    /// DRAM statistics (chip-wide when the DRAM is shared).
    pub fn dram_stats(&self) -> DramStats {
        self.dram.borrow().stats()
    }

    /// Switches the DRAM scheduler between the indexed implementation and
    /// the scan-everything reference oracle (differential testing; see
    /// [`DramSystem::set_reference_scheduler`]).
    pub fn set_reference_dram_scheduler(&mut self, reference: bool) {
        self.dram.borrow_mut().set_reference_scheduler(reference);
    }

    /// Injects the harness-validation scheduler fault (see
    /// [`DramSystem::set_scheduler_mutation`]).
    #[doc(hidden)]
    pub fn set_dram_scheduler_mutation(&mut self, enabled: bool) {
        self.dram.borrow_mut().set_scheduler_mutation(enabled);
    }

    /// Deepest the DRAM request queue has been (scheduler diagnostic).
    pub fn dram_queue_high_water(&self) -> usize {
        self.dram.borrow().queue_depth_high_water()
    }

    /// Per-channel DRAM queue high-water marks since construction.
    pub fn dram_channel_queue_high_water(&self) -> Vec<u32> {
        self.dram.borrow().channel_queue_high_water()
    }

    /// Requests queued at the DRAM scheduler right now (telemetry probes).
    pub fn dram_pending(&self) -> usize {
        self.dram.borrow().pending()
    }

    /// Current per-channel DRAM queue depths (telemetry probes).
    pub fn dram_channel_depths(&self) -> Vec<u32> {
        self.dram.borrow().channel_queue_depths()
    }

    /// Crossbar transfers so far.
    pub fn xbar_transfers(&self) -> u64 {
        self.xbar.transfers()
    }

    /// Prefetches issued so far.
    pub fn prefetches(&self) -> u64 {
        self.prefetches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memsys() -> MemorySystem {
        MemorySystem::new(&SimConfig::paper_cluster(1000.0))
    }

    /// Ticks the uncore on a 1 ns clock until `core` holds a completion
    /// for `owner` that is due (the cycle a core would consume it) and
    /// returns its `done_ps`.
    fn wait_done(m: &mut MemorySystem, core: u32, owner: u64) -> u64 {
        for step in 1..10_000u64 {
            let now = step * 1_000;
            m.tick(now);
            let due = m
                .pending_completions(core)
                .iter()
                .find(|&&(done, o)| o == owner && done <= now);
            if let Some(&(done, _)) = due {
                return done;
            }
        }
        panic!("request never completed");
    }

    /// Submits a load miss and waits for it; returns its latency.
    fn load_latency(m: &mut MemorySystem, core: u32, addr: u64, owner: u64, now: u64) -> u64 {
        m.submit(core, addr, MemRequestKind::Load, owner, now);
        wait_done(m, core, owner) - now
    }

    #[test]
    fn llc_hit_is_fast_llc_miss_is_slow() {
        let mut m = memsys();
        let miss = load_latency(&mut m, 0, 0x1000, 1, 0);
        // Second access to the same line: LLC hit.
        let hit = load_latency(&mut m, 0, 0x1000, 2, 1_000_000);
        assert!(
            hit < 10_000,
            "llc hit should be a handful of ns, got {hit} ps"
        );
        assert!(miss > 25_000, "cold miss goes to DRAM, got {miss} ps");
    }

    #[test]
    fn llc_hit_resolves_at_submit() {
        let mut m = memsys();
        m.install_llc(0x1000, 0);
        m.submit(0, 0x1000, MemRequestKind::Load, 7, 5_000);
        let queued = m.pending_completions(0).to_vec();
        assert_eq!(queued.len(), 1, "no tick needed for an LLC hit");
        let (done, owner) = queued[0];
        assert_eq!(owner, 7);
        assert!(done > 5_000, "data still has to cross back: {done}");
        assert_eq!(m.drain_completions(0).collect::<Vec<_>>(), queued);
        assert!(m.pending_completions(0).is_empty());
    }

    #[test]
    fn dram_fill_resolves_at_tick_ahead_of_its_arrival() {
        let mut m = memsys();
        m.submit(0, 0x4000, MemRequestKind::Load, 3, 0);
        assert!(m.pending_completions(0).is_empty(), "a miss waits on DRAM");
        for step in 1..10_000u64 {
            let until = step * 1_000;
            m.tick(until);
            if let Some(&(done, owner)) = m.pending_completions(0).first() {
                assert_eq!(owner, 3);
                assert!(
                    done > until,
                    "resolved at the tick to {until} ps, before the data arrives at {done} ps"
                );
                return;
            }
        }
        panic!("the fill never resolved");
    }

    #[test]
    fn same_line_requests_merge() {
        let mut m = memsys();
        m.submit(0, 0x2000, MemRequestKind::Load, 1, 0);
        m.submit(1, 0x2010, MemRequestKind::Load, 2, 0);
        let da = wait_done(&mut m, 0, 1);
        let db = wait_done(&mut m, 1, 2);
        assert_eq!(da, db, "merged requests complete together");
        assert_eq!(m.dram_stats().reads, 1, "only one DRAM read issued");
    }

    #[test]
    fn merged_load_and_store_reach_their_own_cores() {
        let mut m = memsys();
        m.submit(2, 0x6000, MemRequestKind::Load, 41, 0);
        m.submit(3, 0x6020, MemRequestKind::Store, u64::MAX, 0);
        let load = wait_done(&mut m, 2, 41);
        let store = wait_done(&mut m, 3, u64::MAX);
        assert_eq!(load, store, "one fill serves both");
        assert_eq!(m.pending_completions(2), &[(load, 41)]);
        assert_eq!(m.pending_completions(3), &[(store, u64::MAX)]);
        assert!(m.pending_completions(0).is_empty() && m.pending_completions(1).is_empty());
        assert_eq!(m.dram_stats().reads, 1);
    }

    #[test]
    fn completions_stay_in_their_cluster_on_a_shared_dram() {
        let cfg = SimConfig::paper_cluster(1000.0);
        let dram: SharedDram = Rc::new(RefCell::new(DramSystem::new(cfg.dram)));
        let mut a = MemorySystem::with_shared_dram(&cfg.cluster(), Rc::clone(&dram), 0);
        let mut b = MemorySystem::with_shared_dram(&cfg.cluster(), Rc::clone(&dram), 1);
        a.submit(0, 0x8000, MemRequestKind::Load, 10, 0);
        b.submit(0, 0x9000, MemRequestKind::Load, 20, 0);
        // Cluster B drives the shared scheduler alone for a while: its own
        // fill resolves, cluster A's is left for A's own tick.
        for step in 1..10_000u64 {
            b.tick(step * 1_000);
            if !b.pending_completions(0).is_empty() {
                break;
            }
        }
        assert_eq!(b.pending_completions(0).len(), 1);
        assert_eq!(b.pending_completions(0)[0].1, 20);
        let done = wait_done(&mut a, 0, 10);
        assert_eq!(a.pending_completions(0), &[(done, 10)]);
        for core in 0..cfg.cores {
            assert!(b.pending_completions(core).iter().all(|&(_, o)| o == 20));
            assert!(a.pending_completions(core).iter().all(|&(_, o)| o == 10));
        }
        assert_eq!(dram.borrow().stats().reads, 2);
    }

    #[test]
    fn store_miss_takes_ownership() {
        let mut m = memsys();
        m.submit(0, 0x3000, MemRequestKind::Load, 1, 0);
        wait_done(&mut m, 0, 1);
        m.submit(1, 0x3000, MemRequestKind::Store, 2, 2_000_000);
        wait_done(&mut m, 1, 2);
        let inv = m.drain_invalidations();
        assert!(
            inv.iter().any(|i| i.cores & 1 != 0),
            "core 0 must be invalidated by core 1's store"
        );
    }

    #[test]
    fn writebacks_flow_to_dram_only_on_llc_eviction() {
        let mut m = memsys();
        m.writeback(0, 0x5000, 0);
        m.tick(1_000_000);
        // The dirty line sits in the LLC; no DRAM write yet.
        assert_eq!(m.dram_stats().writes, 0);
    }
}
