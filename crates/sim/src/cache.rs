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

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Way<P> {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotone timestamp of last touch (for LRU).
    lru: u64,
    payload: P,
}

/// A set-associative array with per-line payloads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SetAssocArray<P> {
    /// `sets - 1`: the set count is a power of two, so the set index is
    /// the line number's low bits and the tag the rest.
    set_mask: u64,
    /// `log2(sets)`.
    set_bits: u32,
    ways: u32,
    lines: Vec<Way<P>>,
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
            lines: vec![
                Way {
                    tag: 0,
                    valid: false,
                    dirty: false,
                    lru: 0,
                    payload: P::default(),
                };
                total
            ],
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

    fn range(&self, set: u64) -> std::ops::Range<usize> {
        let start = (set * u64::from(self.ways)) as usize;
        start..start + self.ways as usize
    }

    /// Aligns an address down to its line.
    pub fn align(addr: u64) -> u64 {
        addr & !(LINE_BYTES - 1)
    }

    /// Looks up a line without allocating or touching LRU state.
    pub fn probe(&self, line_addr: u64) -> bool {
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);
        self.lines[self.range(set)]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    /// Looks up a line, allocating it on a miss (LRU victim) and updating
    /// recency. `write` marks the line dirty.
    pub fn access(&mut self, line_addr: u64, write: bool) -> AccessOutcome<P> {
        self.tick += 1;
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);
        let range = self.range(set);
        let tick = self.tick;
        let set_bits = self.set_bits;

        // Hit path.
        if let Some(w) = self.lines[range.clone()]
            .iter_mut()
            .find(|w| w.valid && w.tag == tag)
        {
            w.lru = tick;
            if write {
                w.dirty = true;
            }
            self.hits += 1;
            return AccessOutcome::Hit;
        }

        self.misses += 1;
        // Miss: pick an invalid way, else the LRU way.
        let ways = &mut self.lines[range];
        let victim_idx = ways.iter().position(|w| !w.valid).unwrap_or_else(|| {
            ways.iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .expect("associativity is at least 1")
        });
        let w = &mut ways[victim_idx];
        let victim = if w.valid {
            Some(EvictedLine {
                line_addr: ((w.tag << set_bits) | set) * LINE_BYTES,
                dirty: w.dirty,
                payload: w.payload,
            })
        } else {
            None
        };
        *w = Way {
            tag,
            valid: true,
            dirty: write,
            lru: tick,
            payload: P::default(),
        };
        AccessOutcome::Miss { victim }
    }

    /// Mutable access to a line's payload, if present.
    pub fn payload_mut(&mut self, line_addr: u64) -> Option<&mut P> {
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);
        let range = self.range(set);
        self.lines[range]
            .iter_mut()
            .find(|w| w.valid && w.tag == tag)
            .map(|w| &mut w.payload)
    }

    /// Shared access to a line's payload, if present.
    pub fn payload(&self, line_addr: u64) -> Option<&P> {
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);
        self.lines[self.range(set)]
            .iter()
            .find(|w| w.valid && w.tag == tag)
            .map(|w| &w.payload)
    }

    /// Invalidates a line (coherence). Returns whether it was present and
    /// dirty.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<bool> {
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);
        let range = self.range(set);
        self.lines[range]
            .iter_mut()
            .find(|w| w.valid && w.tag == tag)
            .map(|w| {
                w.valid = false;
                let dirty = w.dirty;
                w.dirty = false;
                dirty
            })
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|w| w.valid).count()
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
    fn resident_count_tracks_capacity() {
        let mut c = tiny();
        for i in 0..64 {
            c.access(i * 64, false);
        }
        assert_eq!(c.resident_lines(), 8); // 4 sets x 2 ways
    }
}
