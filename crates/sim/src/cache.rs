//! Set-associative cache arrays with true LRU replacement.
//!
//! [`SetAssocArray`] is the tag store shared by the L1s and the LLC: it
//! tracks presence, dirtiness and an arbitrary per-line payload (the LLC
//! uses it for its sharer bitmask). Timing lives in the callers; the array
//! is purely functional state.

use crate::config::CacheConfig;
use crate::LINE_BYTES;
use serde::{Deserialize, Serialize};

/// Outcome of a cache lookup-with-allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome<P> {
    /// The line was present.
    Hit,
    /// The line was absent and has been allocated; if an occupied line was
    /// displaced, it is carried here.
    Miss {
        /// The victim line evicted to make room, if any.
        victim: Option<EvictedLine<P>>,
    },
}

/// A line evicted from the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine<P> {
    /// The line's address (aligned to [`LINE_BYTES`]).
    pub line_addr: u64,
    /// Whether it was dirty (needs write-back).
    pub dirty: bool,
    /// The per-line payload at eviction.
    pub payload: P,
}

/// The tag of an empty way. Real tags are line numbers shifted right by
/// the set bits, so they stay below `2^58` and never collide with it.
const EMPTY: u64 = u64::MAX;

/// A set-associative array with per-line payloads.
///
/// Way state is kept in parallel flat vectors indexed by
/// `set * ways + way`, so a lookup scans one set's tags as a few
/// contiguous words.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SetAssocArray<P> {
    /// `sets - 1`: the set count is a power of two, so the set index is
    /// the line number's low bits and the tag the rest.
    set_mask: u64,
    /// `log2(sets)`.
    set_bits: u32,
    ways: u32,
    /// Per way, the resident line's tag, or [`EMPTY`].
    tags: Vec<u64>,
    /// Per way, the monotone timestamp of its last touch (for LRU).
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    payloads: Vec<P>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<P: Default + Copy> SetAssocArray<P> {
    /// Builds an empty array with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on a geometry [`CacheConfig::is_valid`] rejects (simulator
    /// constructors validate their configuration first).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.is_valid(), "invalid cache geometry {config:?}");
        let sets = config.sets();
        let total = (sets * u64::from(config.ways)) as usize;
        SetAssocArray {
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
            ways: config.ways,
            tags: vec![EMPTY; total],
            stamps: vec![0; total],
            dirty: vec![false; total],
            payloads: vec![P::default(); total],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, line_addr: u64) -> u64 {
        (line_addr / LINE_BYTES) & self.set_mask
    }

    fn tag_of(&self, line_addr: u64) -> u64 {
        (line_addr / LINE_BYTES) >> self.set_bits
    }

    /// The flat index of the first way of `set`.
    fn base(&self, set: u64) -> usize {
        (set * u64::from(self.ways)) as usize
    }

    /// The flat index of the way holding `line_addr`, if resident.
    #[inline]
    fn find(&self, line_addr: u64) -> Option<usize> {
        let base = self.base(self.set_of(line_addr));
        let tag = self.tag_of(line_addr);
        self.tags[base..base + self.ways as usize]
            .iter()
            .position(|&t| t == tag)
            .map(|w| base + w)
    }

    /// Aligns an address down to its line.
    pub fn align(addr: u64) -> u64 {
        addr & !(LINE_BYTES - 1)
    }

    /// Looks up a line without allocating or touching LRU state.
    pub fn probe(&self, line_addr: u64) -> bool {
        self.find(line_addr).is_some()
    }

    /// Looks up a line, allocating it on a miss (LRU victim) and updating
    /// recency. `write` marks the line dirty.
    #[inline]
    pub fn access(&mut self, line_addr: u64, write: bool) -> AccessOutcome<P> {
        self.tick += 1;
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);
        let base = self.base(set);

        // Hit path.
        let ways = &self.tags[base..base + self.ways as usize];
        if let Some(w) = ways.iter().position(|&t| t == tag) {
            let i = base + w;
            self.stamps[i] = self.tick;
            if write {
                self.dirty[i] = true;
            }
            self.hits += 1;
            return AccessOutcome::Hit;
        }
        self.allocate(set, tag, write)
    }

    /// The miss path of [`SetAssocArray::access`]: fills the first empty
    /// way of `set`, else its first least recently used one.
    fn allocate(&mut self, set: u64, tag: u64, write: bool) -> AccessOutcome<P> {
        self.misses += 1;
        let base = self.base(set);
        let ways = base..base + self.ways as usize;
        let w = self.tags[ways.clone()]
            .iter()
            .position(|&t| t == EMPTY)
            .unwrap_or_else(|| {
                self.stamps[ways]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &stamp)| stamp)
                    .map(|(w, _)| w)
                    .expect("associativity is at least 1")
            });
        let i = base + w;
        let victim = (self.tags[i] != EMPTY).then(|| EvictedLine {
            line_addr: ((self.tags[i] << self.set_bits) | set) * LINE_BYTES,
            dirty: self.dirty[i],
            payload: self.payloads[i],
        });
        self.tags[i] = tag;
        self.stamps[i] = self.tick;
        self.dirty[i] = write;
        self.payloads[i] = P::default();
        AccessOutcome::Miss { victim }
    }

    /// Mutable access to a line's payload, if present.
    pub fn payload_mut(&mut self, line_addr: u64) -> Option<&mut P> {
        self.find(line_addr).map(|i| &mut self.payloads[i])
    }

    /// Shared access to a line's payload, if present.
    pub fn payload(&self, line_addr: u64) -> Option<&P> {
        self.find(line_addr).map(|i| &self.payloads[i])
    }

    /// Invalidates a line (coherence). Returns whether it was present and
    /// dirty.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<bool> {
        self.find(line_addr).map(|i| {
            self.tags[i] = EMPTY;
            std::mem::take(&mut self.dirty[i])
        })
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocArray<()> {
        // 4 sets x 2 ways x 64B = 512B
        SetAssocArray::new(CacheConfig::new(512, 2))
    }

    #[test]
    fn hit_after_allocate() {
        let mut c = tiny();
        assert!(matches!(c.access(0x0, false), AccessOutcome::Miss { .. }));
        assert!(matches!(c.access(0x0, false), AccessOutcome::Hit));
        assert!(c.probe(0x0));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn same_set_eviction_is_lru() {
        let mut c = tiny();
        // set stride = 4 sets * 64B = 256B; these three map to set 0.
        c.access(0, false);
        c.access(256, false);
        c.access(0, false); // touch 0 again; 256 is now LRU
        match c.access(512, false) {
            AccessOutcome::Miss { victim: Some(v) } => assert_eq!(v.line_addr, 256),
            other => panic!("expected eviction of 256, got {other:?}"),
        }
        assert!(c.probe(0));
        assert!(!c.probe(256));
    }

    #[test]
    fn dirty_victims_are_flagged() {
        let mut c = tiny();
        c.access(0, true);
        c.access(256, false);
        match c.access(512, false) {
            AccessOutcome::Miss { victim: Some(v) } => {
                assert_eq!(v.line_addr, 0);
                assert!(v.dirty);
            }
            other => panic!("expected dirty victim, got {other:?}"),
        }
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.access(64, true);
        assert_eq!(c.invalidate(64), Some(true));
        assert_eq!(c.invalidate(64), None);
        assert!(!c.probe(64));
    }

    #[test]
    fn sub_line_addresses_share_a_line() {
        let mut c = tiny();
        c.access(SetAssocArray::<()>::align(0x7), false);
        assert!(c.probe(SetAssocArray::<()>::align(0x3f)));
        assert!(!c.probe(SetAssocArray::<()>::align(0x40)));
    }

    #[test]
    fn payloads_live_with_lines() {
        let mut c: SetAssocArray<u32> = SetAssocArray::new(CacheConfig::new(512, 2));
        c.access(0, false);
        *c.payload_mut(0).unwrap() = 7;
        assert_eq!(c.payload(0), Some(&7));
        // Eviction resets the payload for the new occupant.
        c.access(256, false);
        c.access(512, false);
        c.access(768, false);
        assert!(c.payload(0).is_none() || c.payload(0) == Some(&7));
    }

    #[test]
    fn invalidated_way_refills_before_lru_eviction() {
        // 1 set x 4 ways: lines 0, 64, 128, 192 fill it in LRU order.
        let mut c: SetAssocArray<()> = SetAssocArray::new(CacheConfig::new(256, 4));
        for line in [0, 64, 128, 192] {
            c.access(line, false);
        }
        assert_eq!(c.invalidate(128), Some(false));
        // The freed middle way takes the new line; LRU line 0 survives.
        assert_eq!(c.access(256, false), AccessOutcome::Miss { victim: None });
        assert!(c.probe(0) && c.probe(256));
        assert_eq!(c.resident_lines(), 4);
        // With the set full again, the LRU way goes.
        match c.access(320, false) {
            AccessOutcome::Miss { victim: Some(v) } => assert_eq!(v.line_addr, 0),
            other => panic!("expected eviction of line 0, got {other:?}"),
        }
    }

    #[test]
    fn resident_count_tracks_capacity() {
        let mut c = tiny();
        for i in 0..64 {
            c.access(i * 64, false);
        }
        assert_eq!(c.resident_lines(), 8); // 4 sets x 2 ways
    }
}
