//! Out-of-order core timing model.
//!
//! A 3-way, 128-entry-window core in the style of the Cortex-A57 (paper
//! Sec. IV). The model captures the mechanisms that shape UIPC versus
//! frequency:
//!
//! * **window-limited memory-level parallelism** — independent loads issue
//!   while an older miss is outstanding, until the ROB or the MSHRs fill;
//! * **dependency-limited ILP** — instructions wait for producers named by
//!   the stream's dependency distances;
//! * **front-end stalls** — L1-I misses and branch-mispredict redirects
//!   starve dispatch;
//! * **clock-domain scaling** — memory completion times arrive in
//!   picoseconds and are converted to core cycles at the current period, so
//!   a slower core sees fewer stall cycles per miss.
//!
//! The core is execution-driven by an [`InstructionStream`]; it does not
//! interpret values, only timing.

use crate::bpred::{BranchPredictor, SyntheticBranchBehaviour};
use crate::cache::{AccessOutcome, SetAssocArray};
use crate::config::CoreConfig;
use crate::instr::{InstructionStream, OpClass};
use crate::memsys::{MemRequestKind, MemorySystem};
use crate::stats::CoreStats;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    /// Waiting for operands (producer sequence number, if any).
    Waiting,
    /// Executing; completes at the given core cycle.
    ///
    /// The stage is **not** rewritten to [`Stage::Done`] when `done_cycle`
    /// passes — that transition used to cost a full window scan per cycle.
    /// Consumers treat `Executing { done_cycle }` with `done_cycle` in the
    /// past exactly as the scan would have left it: ready as a producer
    /// from `done_cycle`, committable from `done_cycle + 1` (the scan ran
    /// one stage after commit, so the old explicit transition landed
    /// between the two).
    Executing { done_cycle: u64 },
    /// Waiting for a memory fill.
    Memory,
    /// Result available at the given cycle; commit when it reaches the head.
    Done { done_cycle: u64 },
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    op: OpClass,
    addr: u64,
    dep_seq: Option<u64>,
    is_user: bool,
    stage: Stage,
}

/// End of an intrusive wake list.
const NIL: u32 = u32::MAX;

/// Owner tag of a background store fill's completion. A load's owner is
/// its sequence number, which never reaches these tags.
const STORE_OWNER: u64 = u64::MAX;

/// Owner tag of an instruction-fetch fill's completion.
const IFETCH_OWNER: u64 = u64::MAX - 1;

/// Memory completions drained from the uncore whose data has not reached
/// the core yet, with the earliest arrival cached.
#[derive(Debug)]
struct DueList {
    /// `(done_ps, owner)` pairs.
    entries: Vec<(u64, u64)>,
    /// The smallest `done_ps` in `entries`; `u64::MAX` when empty.
    min_ps: u64,
}

impl Default for DueList {
    fn default() -> Self {
        DueList {
            entries: Vec::new(),
            min_ps: u64::MAX,
        }
    }
}

impl DueList {
    fn push(&mut self, done_ps: u64, owner: u64) {
        self.entries.push((done_ps, owner));
        self.min_ps = self.min_ps.min(done_ps);
    }

    /// Removes every entry due by `now_ps`, passing its owner to `f`.
    fn take_due(&mut self, now_ps: u64, mut f: impl FnMut(u64)) {
        if self.min_ps > now_ps {
            return;
        }
        let mut min_ps = u64::MAX;
        self.entries.retain(|&(done_ps, owner)| {
            if done_ps <= now_ps {
                f(owner);
                false
            } else {
                min_ps = min_ps.min(done_ps);
                true
            }
        });
        self.min_ps = min_ps;
    }
}

fn set_bit(words: &mut [u64], slot: usize) {
    words[slot >> 6] |= 1 << (slot & 63);
}

/// One out-of-order core.
///
/// Every per-instruction structure is indexed by *ROB slot*,
/// `seq & slot_mask`, over a power-of-two ring of at least 64 slots. The
/// window never holds more than `rob_entries` (at most the ring size)
/// instructions, so in-window slots are unique and slot order starting at
/// the head's slot is sequence order.
#[derive(Debug)]
pub struct Core {
    id: u32,
    cfg: CoreConfig,
    l1i: SetAssocArray<()>,
    l1d: SetAssocArray<()>,
    /// The L1-I line fetch touched last. Re-touching it is always a hit
    /// that leaves the array's LRU order unchanged (it already holds the
    /// newest stamp, and the L1-I is never invalidated), so fetch skips
    /// the lookup.
    last_iline: Option<u64>,
    /// The reorder window: a ring holding sequence numbers
    /// `head..next_seq` at their slots.
    rob: Vec<RobEntry>,
    /// Ring size minus one.
    slot_mask: u64,
    /// Sequence number of the oldest in-window instruction.
    head: u64,
    /// Sequence number of the next fetched instruction.
    next_seq: u64,
    /// Fetch is stalled until this cycle (branch redirect).
    fetch_stall_until: u64,
    /// Fetch is blocked on an instruction-fetch miss.
    ifetch_miss: bool,
    /// Branch whose resolution will restart fetch.
    redirect_on: Option<u64>,
    /// Outstanding data misses (MSHR occupancy).
    outstanding_data: u32,
    /// ROB entries in [`Stage::Memory`].
    loads_in_flight: u32,
    /// Load and I-fetch completions drained from the uncore, owned by the
    /// load's sequence number or [`IFETCH_OWNER`].
    due: DueList,
    /// Background store (read-for-ownership) completions drained from the
    /// uncore.
    due_stores: DueList,
    /// Issue-eligible [`Stage::Waiting`] entries (producer ready or no
    /// dependency), one bit per slot. Scanning from the head's slot yields
    /// them oldest first — the same pick as the old full-window scan.
    ready: Vec<u64>,
    /// Latency wheel: an entry whose producer completes at a known future
    /// cycle `c` waits in bucket `c & wheel_mask` (a slot bitset of
    /// `ready.len()` words) until cycle `c` is drained into `ready`. Every
    /// insert lands within the horizon: the latest known completion is
    /// `max(long_op_latency, l1_latency)` cycles out, and a completed fill
    /// wakes its consumers the next cycle.
    wheel: Vec<u64>,
    /// Bucket count minus one.
    wheel_mask: u64,
    /// First cycle whose bucket has not been drained into `ready`.
    wheel_next: u64,
    /// Per slot, the first consumer waiting on this producer while its
    /// completion cycle is unknown (producer waiting or in memory); [`NIL`]
    /// when none.
    wake_head: Vec<u32>,
    /// Per slot, the next consumer on the same wake list.
    wake_next: Vec<u32>,
    /// Sequence number of the next instruction to issue under the
    /// in-order discipline ([`CoreConfig::in_order`]); unused (stays 0 or
    /// trails) on out-of-order cores.
    inorder_next: u64,
    /// Optional learning branch predictor (with its synthetic ground
    /// truth); `None` uses the stream's calibrated flags.
    bpred: Option<(BranchPredictor, SyntheticBranchBehaviour)>,
    stats: CoreStats,
}

impl Core {
    /// Builds an idle core.
    pub fn new(id: u32, cfg: CoreConfig) -> Self {
        let slots = (cfg.rob_entries as usize).next_power_of_two().max(64);
        let words = slots / 64;
        let buckets = (cfg.long_op_latency.max(cfg.l1_latency) as usize + 2).next_power_of_two();
        let idle = RobEntry {
            op: OpClass::IntAlu,
            addr: 0,
            dep_seq: None,
            is_user: false,
            stage: Stage::Waiting,
        };
        Core {
            id,
            cfg,
            l1i: SetAssocArray::new(cfg.l1i),
            l1d: SetAssocArray::new(cfg.l1d),
            last_iline: None,
            rob: vec![idle; slots],
            slot_mask: slots as u64 - 1,
            head: 0,
            next_seq: 0,
            fetch_stall_until: 0,
            ifetch_miss: false,
            redirect_on: None,
            outstanding_data: 0,
            loads_in_flight: 0,
            due: DueList::default(),
            due_stores: DueList::default(),
            ready: vec![0; words],
            wheel: vec![0; buckets * words],
            wheel_mask: buckets as u64 - 1,
            wheel_next: 0,
            wake_head: vec![NIL; slots],
            wake_next: vec![NIL; slots],
            inorder_next: 0,
            bpred: cfg
                .branch_predictor
                .map(|k| (BranchPredictor::new(k), SyntheticBranchBehaviour::new())),
            stats: CoreStats::default(),
        }
    }

    /// The learning predictor's misprediction rate, if one is configured.
    pub fn predictor_rate(&self) -> Option<f64> {
        self.bpred.as_ref().map(|(p, _)| p.misprediction_rate())
    }

    /// The core's id within the cluster.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Installs a line in the L1-D without timing or statistics
    /// (checkpoint-style warming).
    pub fn install_l1d(&mut self, line_addr: u64) {
        let _ = self.l1d.access(line_addr, false);
    }

    /// Installs a line in the L1-I without timing or statistics
    /// (checkpoint-style warming).
    pub fn install_l1i(&mut self, line_addr: u64) {
        let _ = self.l1i.access(line_addr, false);
        self.last_iline = None;
    }

    /// Applies a coherence invalidation to the L1-D; returns the dirty flag
    /// if the line was present and modified (the cluster posts the
    /// write-back).
    pub fn invalidate_l1d(&mut self, line_addr: u64) -> bool {
        self.l1d.invalidate(line_addr).unwrap_or(false)
    }

    /// Runs one core cycle: commit → complete → issue → fetch/dispatch.
    ///
    /// `cycle` is the core-clock cycle index and `now_ps` its absolute
    /// time.
    pub fn tick<S: InstructionStream>(
        &mut self,
        stream: &mut S,
        mem: &mut MemorySystem,
        cycle: u64,
        now_ps: u64,
    ) {
        self.commit(cycle);
        self.complete_memory(mem, cycle, now_ps);
        self.issue(mem, cycle, now_ps);
        self.fetch(stream, mem, cycle, now_ps);
        self.stats.cycles = cycle + 1;
    }

    fn commit(&mut self, cycle: u64) {
        for _ in 0..self.cfg.width {
            if self.head == self.next_seq {
                break;
            }
            let e = &self.rob[self.slot(self.head)];
            // `Executing` commits one cycle after its `Done` equivalent:
            // the old per-cycle scan rewrote it to `Done` *after* commit
            // ran, so commit first saw the result a cycle past `done_cycle`.
            let committable = match e.stage {
                Stage::Done { done_cycle } => done_cycle <= cycle,
                Stage::Executing { done_cycle } => done_cycle < cycle,
                _ => false,
            };
            if !committable {
                break;
            }
            if e.is_user {
                self.stats.user_instrs += 1;
            } else {
                self.stats.os_instrs += 1;
            }
            self.head += 1;
        }
    }

    /// Moves the uncore's resolved completions for this core into the due
    /// lists.
    fn collect_completions(&mut self, mem: &mut MemorySystem) {
        if mem.pending_completions(self.id).is_empty() {
            return;
        }
        for (done_ps, owner) in mem.drain_completions(self.id) {
            if owner == STORE_OWNER {
                self.due_stores.push(done_ps, owner);
            } else {
                self.due.push(done_ps, owner);
            }
        }
    }

    /// Completes the loads and the I-fetch whose data has arrived by
    /// `now_ps`: their results (and the restarted front end) are usable
    /// from the next cycle.
    fn complete_memory(&mut self, mem: &mut MemorySystem, cycle: u64, now_ps: u64) {
        self.collect_completions(mem);
        if self.due.min_ps > now_ps {
            return;
        }
        let mut due = std::mem::take(&mut self.due);
        due.take_due(now_ps, |owner| {
            if owner == IFETCH_OWNER {
                self.fetch_stall_until = cycle + 1;
                self.ifetch_miss = false;
                return;
            }
            let slot = self.slot(owner);
            debug_assert!(self.in_window(owner) && self.rob[slot].stage == Stage::Memory);
            let done_cycle = cycle + 1;
            self.rob[slot].stage = Stage::Done { done_cycle };
            self.outstanding_data -= 1;
            self.loads_in_flight -= 1;
            self.wake_dependents(slot, done_cycle);
        });
        self.due = due;
    }

    /// A cheap progress fingerprint: the sum of the monotonic work
    /// counters plus the MSHR occupancy (which drops when a fill is
    /// consumed). Equal fingerprints around a tick mean the tick made no
    /// visible progress; the engine uses that to decide when probing for
    /// a cycle skip is worth the cost. The fingerprint is a heuristic
    /// only — a change it fails to see costs a wasted probe (which then
    /// reports the core active), never correctness.
    /// Data misses currently in flight (MSHR occupancy). The engine uses a
    /// rise across a tick as a stall hint: a core that just launched a
    /// miss is likely about to block on it.
    pub(crate) fn in_flight_data(&self) -> u32 {
        self.outstanding_data
    }

    /// Instructions currently in the reorder window — a telemetry-probe
    /// diagnostic for how window-limited the workload's MLP is.
    pub fn rob_occupancy(&self) -> usize {
        (self.next_seq - self.head) as usize
    }

    pub(crate) fn activity_signature(&self) -> u64 {
        let s = &self.stats;
        s.user_instrs
            + s.os_instrs
            + s.dispatched
            + s.l1d_accesses
            + s.l1d_writebacks
            + s.l1i_misses
            + s.branch_redirects
            + u64::from(self.outstanding_data)
    }

    /// Probes whether this core can do anything at `cycle`, and if not,
    /// when it next can.
    ///
    /// Returns `None` if the core is **active**: some pipeline stage would
    /// change architectural or timing state this cycle (commit, a memory
    /// fill arriving, an issueable instruction, dispatch).
    /// Returns `Some(c)` with `c > cycle` if every tick strictly before `c`
    /// is a no-op apart from the per-tick statistics that
    /// [`Core::skip_to`] compensates (`stats.cycles`, and
    /// `rob_full_cycles` while fetch is unblocked with a full window).
    /// Events the uncore owns (requests still waiting on DRAM scheduling,
    /// hence with no completion pushed yet) are *not* counted here — the
    /// caller must bound the skip by [`MemorySystem::next_fill_wake_ps`].
    ///
    /// `Some(u64::MAX)` means no core-side event is scheduled at all.
    pub(crate) fn quiescent_until(
        &self,
        mem: &MemorySystem,
        cycle: u64,
        period_ps: u64,
    ) -> Option<u64> {
        let mut next = u64::MAX;
        // Every known memory completion (a load, a store or the I-fetch)
        // acts at the first cycle starting at or after its arrival.
        let known_ps = mem.pending_completions(self.id).iter().fold(
            self.due.min_ps.min(self.due_stores.min_ps),
            |m, &(done, _)| m.min(done),
        );
        if known_ps != u64::MAX {
            let c = known_ps.div_ceil(period_ps);
            if c <= cycle {
                return None;
            }
            next = c;
        }
        let rob_full = self.rob_occupancy() >= self.cfg.rob_entries as usize;
        // An in-order core with a load miss in flight cannot issue anything
        // until the fill completes — the window's waiting entries are inert
        // no matter when their producers complete (the queue movements the
        // skipped ticks would have made are lazy and replayed identically
        // on resume).
        let blocked_inorder = self.cfg.in_order && self.loads_in_flight > 0;

        // Fetch: an unblocked front end with window space dispatches every
        // cycle. (Unblocked with a full window only increments
        // `rob_full_cycles`, which `skip_to` batch-applies.)
        if !self.ifetch_miss && self.redirect_on.is_none() && !rob_full {
            if cycle >= self.fetch_stall_until {
                return None;
            }
            next = next.min(self.fetch_stall_until);
        }

        for seq in self.head..self.next_seq {
            let e = &self.rob[self.slot(seq)];
            let idx = seq - self.head;
            match e.stage {
                Stage::Done { done_cycle } => {
                    // Only the head commits; a non-head Done entry is inert
                    // (consumers track it through the Waiting arm below).
                    if idx == 0 {
                        if done_cycle <= cycle {
                            return None;
                        }
                        next = next.min(done_cycle);
                    }
                }
                Stage::Executing { done_cycle } => {
                    // Completes (and wakes dependents) at `done_cycle`; a
                    // lazily un-rewritten stage past its completion is
                    // inert unless it sits at the head (where commit pops
                    // it one cycle after `done_cycle` — see `commit`).
                    if done_cycle > cycle {
                        next = next.min(done_cycle);
                    } else if idx == 0 || done_cycle == cycle {
                        return None;
                    }
                }
                // Its completion is among the known ones above, or still
                // queued in DRAM (the uncore bound applies).
                Stage::Memory => {}
                Stage::Waiting => {
                    // A blocking load gates issue entirely: waiting entries
                    // cannot act until its fill completes, which the known
                    // completions (or the uncore fill-wake bound) schedule.
                    if blocked_inorder {
                        continue;
                    }
                    // Mirrors `producer_ready`: a ready producer means this
                    // entry issues now (or stays issue-eligible), so the
                    // core is active.
                    let d = e.dep_seq?;
                    // Not in the window means committed, hence ready.
                    let p = self.rob_entry(d)?;
                    // A producer still waiting on memory schedules the
                    // wake-up via its own arm above (or the uncore bound).
                    if let Stage::Done { done_cycle } | Stage::Executing { done_cycle } = p.stage {
                        if done_cycle <= cycle {
                            return None;
                        }
                        next = next.min(done_cycle);
                    }
                }
            }
        }

        Some(next)
    }

    /// Jumps the core's clock from `from` to `to` without ticking,
    /// applying exactly the statistics the skipped ticks would have:
    /// `stats.cycles` lands where the naive loop would leave it, and
    /// `rob_full_cycles` accrues for every skipped cycle on which an
    /// unblocked fetch would have found the window full. Only legal when
    /// [`Core::quiescent_until`] returned `Some(c)` with `to <= c`.
    pub(crate) fn skip_to(&mut self, from: u64, to: u64) {
        if !self.ifetch_miss
            && self.redirect_on.is_none()
            && self.rob_occupancy() >= self.cfg.rob_entries as usize
        {
            let start = from.max(self.fetch_stall_until);
            if to > start {
                self.stats.rob_full_cycles += to - start;
            }
        }
        // The tick at `to` schedules wakes relative to `to`: drain the
        // skipped cycles so those wakes stay within one wheel turn.
        if let Some(last) = to.checked_sub(1) {
            self.drain_wheel(last);
        }
        self.stats.cycles = to;
    }

    /// The ring slot of a sequence number.
    fn slot(&self, seq: u64) -> usize {
        (seq & self.slot_mask) as usize
    }

    fn in_window(&self, seq: u64) -> bool {
        (self.head..self.next_seq).contains(&seq)
    }

    /// Finds an in-window entry by sequence number.
    fn rob_entry(&self, seq: u64) -> Option<&RobEntry> {
        self.in_window(seq).then(|| &self.rob[self.slot(seq)])
    }

    /// Makes the entry at `slot` issue-eligible from `cycle`. A cycle
    /// already drained lands in the next undrained bucket, which the next
    /// `issue` drains — never the current issue pass.
    fn schedule(&mut self, slot: usize, cycle: u64) {
        let at = cycle.max(self.wheel_next);
        debug_assert!(
            at - self.wheel_next <= self.wheel_mask,
            "wake at cycle {at} is past the wheel horizon"
        );
        let words = self.ready.len();
        let bucket = (at & self.wheel_mask) as usize * words;
        set_bit(&mut self.wheel[bucket..bucket + words], slot);
    }

    /// Moves every bucket up to and including cycle `through` into `ready`.
    fn drain_wheel(&mut self, through: u64) {
        if through < self.wheel_next {
            return;
        }
        // All inserts lie within one horizon of `wheel_next`, so draining
        // more than a full turn would only revisit empty buckets.
        let cycles = (through - self.wheel_next + 1).min(self.wheel_mask + 1);
        let words = self.ready.len();
        for c in self.wheel_next..self.wheel_next + cycles {
            let bucket = (c & self.wheel_mask) as usize * words;
            for (r, b) in self
                .ready
                .iter_mut()
                .zip(&mut self.wheel[bucket..bucket + words])
            {
                *r |= std::mem::take(b);
            }
        }
        self.wheel_next = through + 1;
    }

    /// The oldest issue-eligible entry at or after `from` (an in-window
    /// sequence number), found by scanning the ready bits from `from`'s
    /// slot and wrapping at the ring size.
    fn next_ready(&self, from: u64) -> Option<u64> {
        let words = self.ready.len();
        let start = self.slot(from);
        let mut w = start >> 6;
        let mut bits = self.ready[w] & (!0u64 << (start & 63));
        // The start word is visited twice: its high bits first, its low
        // bits (the youngest slots) after the wrap.
        for _ in 0..=words {
            if bits != 0 {
                let slot = (w << 6) | bits.trailing_zeros() as usize;
                let seq = from + ((slot as u64).wrapping_sub(start as u64) & self.slot_mask);
                // Bits past the window's young end wrapped around to
                // entries older than `from`.
                return (seq < self.next_seq).then_some(seq);
            }
            w = (w + 1) % words;
            bits = self.ready[w];
        }
        None
    }

    /// Schedules a producer's waiting dependents to become eligible at
    /// `done_cycle` (the cycle its result is ready).
    #[inline]
    fn wake_dependents(&mut self, producer: usize, done_cycle: u64) {
        let mut c = std::mem::replace(&mut self.wake_head[producer], NIL);
        while c != NIL {
            let next = self.wake_next[c as usize];
            self.schedule(c as usize, done_cycle);
            c = next;
        }
    }

    /// Issues up to `width` eligible instructions in sequence order.
    ///
    /// Eligibility is event-driven: an entry's ready bit is set when it is
    /// dispatched with a satisfied (or absent) dependency, or when the
    /// wheel bucket of its producer's completion cycle is drained (the
    /// producer's wake list moves it onto the wheel once that cycle is
    /// known). Scanning the bits from the head walks exactly the entries
    /// whose operands are ready, oldest first. Issue never sets a ready
    /// bit (every wake it makes lands on the wheel at a later cycle), so
    /// one forward pass sees the whole eligible set.
    fn issue(&mut self, mem: &mut MemorySystem, cycle: u64, now_ps: u64) {
        // Producers completing by this cycle unblock their dependents.
        self.drain_wheel(cycle);

        let mut issued = 0;
        let width = self.cfg.width;
        let l1_latency = u64::from(self.cfg.l1_latency);
        let long_lat = u64::from(self.cfg.long_op_latency);
        let mshrs = self.cfg.mshrs;
        let core_id = self.id;

        let mut resolved_redirect: Option<u64> = None;
        let mut from = self.head;
        while issued < width {
            let Some(seq) = self.next_ready(from) else {
                break;
            };
            if self.cfg.in_order {
                // Blocking loads: an outstanding load miss stalls issue
                // entirely (no miss-under-miss).
                if self.loads_in_flight > 0 {
                    break;
                }
                // Strict program-order issue: the scan yields the oldest
                // *eligible* entry, but an in-order core may not slip past
                // an older instruction that has not issued yet.
                if seq != self.inorder_next {
                    break;
                }
            }
            from = seq + 1;
            let slot = self.slot(seq);
            let (op, addr) = {
                let e = &self.rob[slot];
                debug_assert_eq!(e.stage, Stage::Waiting, "ready entries are waiting");
                (e.op, e.addr)
            };
            let new_stage = match op {
                OpClass::IntAlu => Stage::Executing {
                    done_cycle: cycle + 1,
                },
                OpClass::IntLong | OpClass::Fp => Stage::Executing {
                    done_cycle: cycle + long_lat,
                },
                OpClass::Branch { mispredicted } => {
                    if mispredicted && self.redirect_on == Some(seq) {
                        resolved_redirect = Some(cycle + 1);
                    }
                    Stage::Executing {
                        done_cycle: cycle + 1,
                    }
                }
                OpClass::Load => {
                    let line = SetAssocArray::<()>::align(addr);
                    match self.l1d.access(line, false) {
                        AccessOutcome::Hit => Stage::Executing {
                            done_cycle: cycle + l1_latency,
                        },
                        AccessOutcome::Miss { victim } => {
                            if self.outstanding_data >= mshrs {
                                // No MSHR: un-allocate pressure by retrying.
                                // (The line was allocated; treat as a hit
                                // next time — minor inaccuracy, bounded by
                                // MSHR stalls being rare.) Stays eligible:
                                // its ready bit stays set for next cycle.
                                continue;
                            }
                            if let Some(v) = victim {
                                if v.dirty {
                                    mem.writeback(core_id, v.line_addr, now_ps);
                                    self.stats.l1d_writebacks += 1;
                                }
                            }
                            self.stats.l1d_misses += 1;
                            self.outstanding_data += 1;
                            self.loads_in_flight += 1;
                            mem.submit(core_id, line, MemRequestKind::Load, seq, now_ps);
                            for d in 1..=self.cfg.prefetch_degree {
                                mem.submit_prefetch(
                                    core_id,
                                    line + u64::from(d) * crate::LINE_BYTES,
                                    now_ps,
                                );
                            }
                            Stage::Memory
                        }
                    }
                }
                OpClass::Store => {
                    let line = SetAssocArray::<()>::align(addr);
                    match self.l1d.access(line, true) {
                        AccessOutcome::Hit => Stage::Executing {
                            done_cycle: cycle + 1,
                        },
                        AccessOutcome::Miss { victim } => {
                            if let Some(v) = victim {
                                if v.dirty {
                                    mem.writeback(core_id, v.line_addr, now_ps);
                                    self.stats.l1d_writebacks += 1;
                                }
                            }
                            self.stats.l1d_misses += 1;
                            // Read-for-ownership in the background; the
                            // store retires into the store buffer without
                            // blocking commit, but it does consume memory
                            // bandwidth and an MSHR if available.
                            if self.outstanding_data < mshrs {
                                self.outstanding_data += 1;
                                mem.submit(
                                    core_id,
                                    line,
                                    MemRequestKind::Store,
                                    STORE_OWNER,
                                    now_ps,
                                );
                            }
                            Stage::Executing {
                                done_cycle: cycle + 1,
                            }
                        }
                    }
                }
            };
            self.rob[slot].stage = new_stage;
            self.ready[slot >> 6] &= !(1 << (slot & 63));
            // The entry's completion cycle is now known (unless it went to
            // memory, where the fill completion wakes dependents instead).
            if let Stage::Executing { done_cycle } = new_stage {
                self.wake_dependents(slot, done_cycle);
            }
            if op.is_memory() {
                self.stats.l1d_accesses += 1;
            }
            if self.cfg.in_order {
                self.inorder_next = seq + 1;
            }
            issued += 1;
        }
        // Retire background store fills, including any LLC hit submitted
        // above.
        self.collect_completions(mem);
        let mut freed = 0u32;
        self.due_stores.take_due(now_ps, |_| freed += 1);
        self.outstanding_data -= freed;
        if let Some(resolve_cycle) = resolved_redirect {
            self.fetch_stall_until = resolve_cycle + u64::from(self.cfg.branch_penalty);
            self.redirect_on = None;
            self.stats.branch_redirects += 1;
        }
    }

    fn fetch<S: InstructionStream>(
        &mut self,
        stream: &mut S,
        mem: &mut MemorySystem,
        cycle: u64,
        now_ps: u64,
    ) {
        if self.ifetch_miss || self.redirect_on.is_some() || cycle < self.fetch_stall_until {
            return;
        }
        for _ in 0..self.cfg.width {
            if self.rob_occupancy() >= self.cfg.rob_entries as usize {
                self.stats.rob_full_cycles += 1;
                break;
            }
            let instr = stream.next_instr();
            // Instruction fetch: touch the L1-I at line granularity.
            let iline = SetAssocArray::<()>::align(instr.pc);
            if self.last_iline != Some(iline) {
                self.last_iline = Some(iline);
                if let AccessOutcome::Miss { .. } = self.l1i.access(iline, false) {
                    self.stats.l1i_misses += 1;
                    mem.submit(self.id, iline, MemRequestKind::IFetch, IFETCH_OWNER, now_ps);
                    self.ifetch_miss = true;
                    // The missing instruction still dispatches (it is in
                    // the fetch group that triggered the fill).
                }
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let dep_seq = if instr.dep_dist > 0 {
                seq.checked_sub(u64::from(instr.dep_dist))
            } else {
                None
            };
            // With a learning predictor configured, the redirect decision
            // comes from predicting the synthetic ground truth instead of
            // the stream's calibrated flag.
            let op = if let (OpClass::Branch { .. }, Some((pred, truth))) =
                (instr.op, self.bpred.as_mut())
            {
                let taken = truth.outcome(instr.pc);
                let wrong = pred.update(instr.pc, taken);
                OpClass::Branch {
                    mispredicted: wrong,
                }
            } else {
                instr.op
            };
            let mispredicted = matches!(op, OpClass::Branch { mispredicted: true });
            let slot = self.slot(seq);
            debug_assert_eq!(
                self.wake_head[slot], NIL,
                "a reused slot's wake list is drained"
            );
            self.rob[slot] = RobEntry {
                op,
                addr: instr.addr,
                dep_seq,
                is_user: instr.is_user,
                stage: Stage::Waiting,
            };
            // Register for issue scheduling: eligible immediately when the
            // producer is absent or already committed, at the producer's
            // completion cycle when it is known, and via the producer's
            // wake list otherwise.
            match dep_seq.and_then(|d| Some((d, self.rob_entry(d)?.stage))) {
                None => set_bit(&mut self.ready, slot),
                Some((_, Stage::Done { done_cycle } | Stage::Executing { done_cycle })) => {
                    self.schedule(slot, done_cycle);
                }
                Some((d, Stage::Waiting | Stage::Memory)) => {
                    let p = self.slot(d);
                    self.wake_next[slot] = self.wake_head[p];
                    self.wake_head[p] = slot as u32;
                }
            }
            self.stats.dispatched += 1;
            if mispredicted {
                // Fetch goes down the wrong path: stall until this branch
                // resolves, then pay the redirect penalty.
                self.redirect_on = Some(seq);
                break;
            }
            if self.ifetch_miss {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::instr::Instr;

    struct AluStream;
    impl InstructionStream for AluStream {
        fn next_instr(&mut self) -> Instr {
            Instr::alu(0x1000)
        }
    }

    struct DepChainStream;
    impl InstructionStream for DepChainStream {
        fn next_instr(&mut self) -> Instr {
            Instr::alu(0x1000).with_dep(1)
        }
    }

    fn run<S: InstructionStream>(stream: &mut S, cycles: u64) -> CoreStats {
        let cfg = SimConfig::paper_cluster(1000.0);
        let mut mem = MemorySystem::new(&cfg);
        let mut core = Core::new(0, cfg.core);
        let period = cfg.core_period_ps();
        for c in 0..cycles {
            let now = c * period;
            core.tick(stream, &mut mem, c, now);
            mem.tick(now + period);
        }
        core.stats().clone()
    }

    /// An instruction's issue state, for the white-box scheduler tests.
    fn issued(core: &Core, seq: u64) -> bool {
        core.rob[core.slot(seq)].stage != Stage::Waiting
    }

    #[test]
    fn oldest_ready_pick_crosses_the_slot_wrap() {
        // One issue per cycle, and a window whose four entries straddle the
        // ring's wrap: seqs 126..130 sit in slots 126, 127, 0, 1.
        let cfg = CoreConfig {
            width: 1,
            ..CoreConfig::cortex_a57()
        };
        let sim = SimConfig::paper_cluster(1000.0);
        let mut mem = MemorySystem::new(&sim);
        let mut core = Core::new(0, cfg);
        assert_eq!(core.slot_mask, 127);
        core.install_l1i(0x1000);
        core.head = 126;
        core.next_seq = 126;
        for c in 0..4 {
            core.fetch(&mut AluStream, &mut mem, c, 0);
        }
        assert_eq!((core.head, core.next_seq), (126, 130));
        // All four are ready; the lowest set bit (slot 0) is not the
        // oldest, so each pick must follow sequence order instead.
        for (cycle, seq) in (4..).zip(126..130) {
            assert_eq!(core.next_ready(core.head), Some(seq));
            core.issue(&mut mem, cycle, 0);
            assert!(issued(&core, seq), "seq {seq} must issue at cycle {cycle}");
            assert!(
                (seq + 1..130).all(|younger| !issued(&core, younger)),
                "a younger entry issued before seq {seq}"
            );
        }
        assert_eq!(core.next_ready(core.head), None);
    }

    #[test]
    fn load_completes_at_the_first_cycle_starting_after_its_data() {
        // One LLC-hit load, then ALU ops, at a clock whose period does not
        // divide the hit latency.
        struct OneLoad(u64);
        impl InstructionStream for OneLoad {
            fn next_instr(&mut self) -> Instr {
                self.0 += 1;
                if self.0 == 1 {
                    Instr::load(0x1000, 0x40_0000)
                } else {
                    Instr::alu(0x1000)
                }
            }
        }
        let sim = SimConfig::paper_cluster(700.0);
        let period = sim.core_period_ps();
        let mut mem = MemorySystem::new(&sim);
        mem.install_llc(0x40_0000, 0);
        let mut core = Core::new(0, sim.core);
        core.install_l1i(0x1000);
        let mut stream = OneLoad(0);
        let mut done_ps = None;
        for c in 0..200 {
            core.tick(&mut stream, &mut mem, c, c * period);
            let stage = core.rob[core.slot(0)].stage;
            match (done_ps, stage) {
                // The hit resolves at submit and is collected the same cycle.
                (None, Stage::Memory) => {
                    assert!(mem.pending_completions(0).is_empty());
                    done_ps = Some(core.due.entries[0].0);
                    assert!(done_ps.unwrap() > c * period);
                }
                (Some(done), Stage::Memory) => assert!(c * period < done, "late at cycle {c}"),
                (Some(done), Stage::Done { done_cycle }) => {
                    assert!(c * period >= done && (c - 1) * period < done);
                    assert_eq!(done_cycle, c + 1);
                    assert_eq!(core.loads_in_flight, 0);
                    return;
                }
                _ => {}
            }
        }
        panic!("the load never completed");
    }

    #[test]
    fn consumer_wakes_at_cycle_plus_long_op_latency() {
        // A long op followed by its consumer. The wake lands
        // `long_op_latency` cycles out on the latency wheel: near the end
        // of its horizon for the 32-bucket wheel of a 30-cycle latency.
        struct LongThenConsumer(u64);
        impl InstructionStream for LongThenConsumer {
            fn next_instr(&mut self) -> Instr {
                self.0 += 1;
                match self.0 {
                    1 => Instr {
                        op: OpClass::IntLong,
                        ..Instr::alu(0x1000)
                    },
                    2 => Instr::alu(0x1000).with_dep(1),
                    _ => Instr::alu(0x1000),
                }
            }
        }
        for long in [5, 30] {
            let cfg = CoreConfig {
                long_op_latency: long,
                ..CoreConfig::cortex_a57()
            };
            let sim = SimConfig::paper_cluster(1000.0);
            let mut mem = MemorySystem::new(&sim);
            let mut core = Core::new(0, cfg);
            core.install_l1i(0x1000);
            let mut stream = LongThenConsumer(0);
            let (mut producer_at, mut consumer_at) = (None, None);
            for c in 0..100 {
                core.tick(&mut stream, &mut mem, c, c * 1000);
                if producer_at.is_none() && issued(&core, 0) {
                    producer_at = Some(c);
                }
                if consumer_at.is_none() && issued(&core, 1) {
                    consumer_at = Some(c);
                }
            }
            let producer_at = producer_at.expect("the long op issues");
            assert_eq!(
                consumer_at,
                Some(producer_at + u64::from(long)),
                "consumer of a {long}-cycle op"
            );
        }
    }

    #[test]
    fn independent_alu_stream_approaches_full_width() {
        let s = run(&mut AluStream, 3000);
        let ipc = s.ipc();
        assert!(
            ipc > 2.5,
            "independent ALU ops should sustain near 3-wide, got {ipc}"
        );
    }

    #[test]
    fn serial_dependency_chain_limits_ipc_to_one() {
        let s = run(&mut DepChainStream, 3000);
        let ipc = s.ipc();
        assert!(
            ipc < 1.2 && ipc > 0.5,
            "a serial chain must bound IPC near 1, got {ipc}"
        );
    }

    #[test]
    fn mispredicted_branches_cost_redirects() {
        struct Branchy(u32);
        impl InstructionStream for Branchy {
            fn next_instr(&mut self) -> Instr {
                self.0 = self.0.wrapping_add(1);
                if self.0 % 20 == 0 {
                    Instr {
                        op: OpClass::Branch { mispredicted: true },
                        pc: 0x1000,
                        addr: 0,
                        dep_dist: 0,
                        is_user: true,
                    }
                } else {
                    Instr::alu(0x1000)
                }
            }
        }
        let s = run(&mut Branchy(0), 3000);
        assert!(s.branch_redirects > 10);
        assert!(
            s.ipc() < 2.0,
            "redirect stalls must depress IPC, got {}",
            s.ipc()
        );
    }

    #[test]
    fn loads_hitting_l1_barely_slow_the_core() {
        struct HotLoads(u64);
        impl InstructionStream for HotLoads {
            fn next_instr(&mut self) -> Instr {
                self.0 += 1;
                if self.0 % 4 == 0 {
                    // 16 hot lines, always hitting after warm-up.
                    Instr::load(0x1000, (self.0 % 16) * 64)
                } else {
                    Instr::alu(0x1000)
                }
            }
        }
        let s = run(&mut HotLoads(0), 3000);
        assert!(
            s.ipc() > 2.0,
            "L1-resident loads are cheap, got {}",
            s.ipc()
        );
        assert!(s.l1d_misses <= 16);
    }

    #[test]
    fn cache_missing_loads_crush_ipc_at_high_frequency() {
        struct ColdLoads(u64);
        impl InstructionStream for ColdLoads {
            fn next_instr(&mut self) -> Instr {
                self.0 += 1;
                if self.0 % 4 == 0 {
                    // Every load a fresh line, serially dependent so MLP=1.
                    Instr::load(0x1000, self.0 * 64 * 4096).with_dep(4)
                } else {
                    Instr::alu(0x1000)
                }
            }
        }
        let s = run(&mut ColdLoads(0), 5000);
        assert!(
            s.ipc() < 0.6,
            "serial DRAM misses must crush IPC, got {}",
            s.ipc()
        );
    }

    #[test]
    fn slow_clock_hides_memory_latency() {
        struct ColdLoads(u64);
        impl InstructionStream for ColdLoads {
            fn next_instr(&mut self) -> Instr {
                self.0 += 1;
                if self.0 % 4 == 0 {
                    Instr::load(0x1000, self.0 * 64 * 4096).with_dep(4)
                } else {
                    Instr::alu(0x1000)
                }
            }
        }
        let run_at = |mhz: f64| {
            let cfg = SimConfig::paper_cluster(mhz);
            let mut mem = MemorySystem::new(&cfg);
            let mut core = Core::new(0, cfg.core);
            let mut s = ColdLoads(0);
            let period = cfg.core_period_ps();
            for c in 0..5000u64 {
                let now = c * period;
                core.tick(&mut s, &mut mem, c, now);
                mem.tick(now + period);
            }
            core.stats().ipc()
        };
        let ipc_fast = run_at(2000.0);
        let ipc_slow = run_at(200.0);
        assert!(
            ipc_slow > ipc_fast * 1.5,
            "at 200 MHz DRAM latency shrinks in cycles: {ipc_slow} vs {ipc_fast}"
        );
    }

    #[test]
    fn os_instructions_count_separately() {
        struct Mixed(u64);
        impl InstructionStream for Mixed {
            fn next_instr(&mut self) -> Instr {
                self.0 += 1;
                if self.0 % 5 == 0 {
                    Instr::alu(0x9000).as_os()
                } else {
                    Instr::alu(0x1000)
                }
            }
        }
        let s = run(&mut Mixed(0), 2000);
        assert!(s.os_instrs > 0);
        let frac = s.os_instrs as f64 / (s.user_instrs + s.os_instrs) as f64;
        assert!(
            (frac - 0.2).abs() < 0.02,
            "OS fraction should be ~20%, got {frac}"
        );
    }
}
