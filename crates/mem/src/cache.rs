//! Set-associative LRU cache with MESI line states.
//!
//! The tag store holds one block of 24 bytes per way for each set that
//! has ever been filled, appended on the set's first fill; a per-set
//! index of 32-bit block numbers points untouched sets at an all-empty
//! block, so probing them is an ordinary miss. A way's line number,
//! eviction pin and MESI state share one meta word, so a probe reads the
//! index and then one word per way of the set (at most the
//! associativity, typically 4 — 32 adjacent bytes). The set's last-use
//! ticks and payloads follow its meta words, touched only on a hit, fill
//! or eviction. There are no side maps: residency is the tag match
//! itself. A cache built with a line bound reserves blocks for as many
//! sets as its footprint can reach, so within that bound the probe and
//! fill paths — the hottest in the whole simulator — allocate nothing.

use crate::addr::LineAddr;

/// MESI state of a cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LineState {
    /// Not present / no permission.
    Invalid,
    /// Readable; other copies may exist.
    Shared,
    /// Readable and writable; no other copies; memory is up to date.
    Exclusive,
    /// Readable and writable; no other copies; memory is stale.
    Modified,
}

impl LineState {
    /// Whether the line may be read without a coherence action.
    pub fn readable(self) -> bool {
        self != LineState::Invalid
    }

    /// Whether the line may be written without a coherence action.
    pub fn writable(self) -> bool {
        matches!(self, LineState::Exclusive | LineState::Modified)
    }

    /// Whether eviction must write the line back.
    pub fn dirty(self) -> bool {
        self == LineState::Modified
    }
}

/// Read or write, for cache accesses and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheGeometry {
    /// The paper's L1: 16 KB, 4-way (line size matches the system's).
    pub fn l1(line_bytes: u64) -> Self {
        CacheGeometry {
            size_bytes: 16 * 1024,
            line_bytes,
            ways: 4,
        }
    }

    /// The paper's L2: 1 MB, 4-way.
    pub fn l2(line_bytes: u64) -> Self {
        CacheGeometry {
            size_bytes: 1024 * 1024,
            line_bytes,
            ways: 4,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not an exact power-of-two split.
    pub fn sets(&self) -> u64 {
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.ways as u64),
            "capacity must be divisible into whole sets"
        );
        let sets = lines / self.ways as u64;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Read accesses that hit.
    pub read_hits: u64,
    /// Read accesses that missed.
    pub read_misses: u64,
    /// Write accesses that hit with write permission.
    pub write_hits: u64,
    /// Write accesses that missed (no line or no permission).
    pub write_misses: u64,
    /// Lines evicted while dirty.
    pub dirty_evictions: u64,
    /// Lines evicted clean.
    pub clean_evictions: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Miss ratio over all accesses (0 if no accesses).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            (self.read_misses + self.write_misses) as f64 / total as f64
        }
    }
}

/// Bits of a way's meta word below the tag: the MESI state (two bits,
/// `Invalid` = 0) and the eviction pin.
const STATE_BITS: u64 = 0b011;
const PIN_BIT: u64 = 0b100;
const TAG_SHIFT: u32 = 3;

impl LineState {
    /// The state's code in a way's meta word.
    fn code(self) -> u64 {
        self as u64
    }

    fn from_code(code: u64) -> LineState {
        const BY_CODE: [LineState; 4] = [
            LineState::Invalid,
            LineState::Shared,
            LineState::Exclusive,
            LineState::Modified,
        ];
        BY_CODE[(code & STATE_BITS) as usize]
    }
}

/// Outcome of [`SetAssocCache::fill`]: the line that had to be displaced, if
/// any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The displaced line.
    pub line: LineAddr,
    /// Its state at eviction (dirty means a write-back is required).
    pub state: LineState,
    /// Its data payload.
    pub payload: u64,
}

/// A set-associative cache with true-LRU replacement and MESI states.
///
/// The cache is a *tag store with state*: the simulator carries a small
/// `payload` per line (used by the protocol-torture tests to check data
/// coherence) instead of actual data bytes.
///
/// # Example
///
/// ```
/// use ccn_mem::{CacheGeometry, LineAddr, LineState, SetAssocCache};
///
/// let mut cache = SetAssocCache::new(CacheGeometry { size_bytes: 1024, line_bytes: 64, ways: 2 });
/// assert_eq!(cache.state_of(LineAddr(3)), LineState::Invalid);
/// cache.fill(LineAddr(3), LineState::Shared, 0);
/// assert_eq!(cache.state_of(LineAddr(3)), LineState::Shared);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    set_mask: u64,
    ways_per_set: usize,
    /// Words per block: a set's meta, tick and payload words.
    block_words: usize,
    /// Block number of each set in `words`; 0, the all-empty block,
    /// until the set's first fill.
    blocks: Box<[u32]>,
    /// One block per touched set, in first-fill order, after the
    /// all-zero block 0. A block holds the set's meta words
    /// (`line << 3 | pinned << 2 | state`), then its last-use ticks,
    /// then its payloads, so a probe and a hit's tick update share one
    /// or two adjacent host cache lines. A way is named by the index of
    /// its meta word; an all-zero meta word is an empty way.
    words: Vec<u64>,
    /// Sets whose blocks `words` was reserved for up front.
    reserved_sets: usize,
    tick: u64,
    stats: CacheStats,
    /// Number of non-Invalid ways, maintained incrementally.
    resident: usize,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry, with room for a
    /// block in every set.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into power-of-two sets.
    pub fn new(geometry: CacheGeometry) -> Self {
        SetAssocCache::with_line_bound(geometry, usize::MAX)
    }

    /// Creates an empty cache that reserves blocks for at most `lines`
    /// sets: a cache that will only ever hold lines from a footprint of
    /// `lines` lines touches no more sets than that, so its fills never
    /// grow the tag store. Fills past the bound still work; they grow it.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into power-of-two sets, or
    /// has 2^32 sets or more.
    pub fn with_line_bound(geometry: CacheGeometry, lines: usize) -> Self {
        let sets = geometry.sets();
        assert!(sets < 1 << 32, "block numbers are 32-bit");
        let ways_per_set = geometry.ways as usize;
        let block_words = 3 * ways_per_set;
        let reserved_sets = lines.min(sets as usize);
        let mut words = Vec::with_capacity((1 + reserved_sets) * block_words);
        words.resize(block_words, 0);
        SetAssocCache {
            geometry,
            set_mask: sets - 1,
            ways_per_set,
            block_words,
            blocks: vec![0; sets as usize].into_boxed_slice(),
            words,
            reserved_sets,
            tick: 0,
            stats: CacheStats::default(),
            resident: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the counters (e.g. at the start of the measured phase).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// This cache's [`ccn_sim::ComponentStats`] snapshot under the given name
    /// (caches are instantiated per level, so the parent names them).
    pub fn stats_snapshot_named(&self, name: &'static str) -> ccn_sim::ComponentStats {
        ccn_sim::ComponentStats::named(name)
            .counter("read_hits", self.stats.read_hits)
            .counter("read_misses", self.stats.read_misses)
            .counter("write_hits", self.stats.write_hits)
            .counter("write_misses", self.stats.write_misses)
            .counter("dirty_evictions", self.stats.dirty_evictions)
            .counter("clean_evictions", self.stats.clean_evictions)
            .gauge("miss_ratio", self.stats.miss_ratio())
    }

    /// Sets whose blocks were reserved when the cache was built.
    pub fn reserved_sets(&self) -> usize {
        self.reserved_sets
    }

    /// Sets that have been filled at least once, and so hold a block.
    pub fn allocated_sets(&self) -> usize {
        self.words.len() / self.block_words - 1
    }

    /// Bytes the tag store holds allocated: the set index plus the
    /// block store's capacity.
    pub fn tag_store_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.blocks) + self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Index of the first meta word of `line`'s set: in the all-empty
    /// block 0 if the set was never filled.
    #[inline]
    fn set_base(&self, line: LineAddr) -> usize {
        self.blocks[(line.0 & self.set_mask) as usize] as usize * self.block_words
    }

    /// The meta-word tag bits of `line`: the whole line number.
    #[inline]
    fn key(line: LineAddr) -> u64 {
        line.0 << TAG_SHIFT
    }

    #[inline]
    fn state_at(&self, i: usize) -> LineState {
        LineState::from_code(self.words[i])
    }

    #[inline]
    fn last_use_at(&self, i: usize) -> u64 {
        self.words[i + self.ways_per_set]
    }

    #[inline]
    fn payload_at(&self, i: usize) -> u64 {
        self.words[i + 2 * self.ways_per_set]
    }

    /// Index of the way holding `line`, found by comparing the meta
    /// words of its set's ways (a handful of adjacent words — no hashing).
    #[inline]
    fn slot(&self, line: LineAddr) -> Option<usize> {
        let key = Self::key(line);
        let base = self.set_base(line);
        self.words[base..base + self.ways_per_set]
            .iter()
            .position(|&m| m & STATE_BITS != 0 && m & !(STATE_BITS | PIN_BIT) == key)
            .map(|i| base + i)
    }

    /// The MESI state of `line` (Invalid if not resident). Does not touch
    /// LRU or statistics — this is the *snoop* path.
    pub fn state_of(&self, line: LineAddr) -> LineState {
        self.slot(line)
            .map_or(LineState::Invalid, |i| self.state_at(i))
    }

    /// The data payload of `line`, if resident.
    pub fn payload_of(&self, line: LineAddr) -> Option<u64> {
        self.slot(line).map(|i| self.payload_at(i))
    }

    /// Performs a processor access: updates LRU and hit/miss statistics and
    /// returns the pre-access state. The caller decides, from the state,
    /// whether a coherence action is needed; a hit for a write requires
    /// write permission.
    pub fn access(&mut self, line: LineAddr, kind: AccessKind) -> LineState {
        self.access_way(line, kind).0
    }

    /// A read [`access`](SetAssocCache::access) that returns the line's
    /// payload on a hit, in the same probe.
    pub fn read(&mut self, line: LineAddr) -> Option<u64> {
        let (state, i) = self.access_way(line, AccessKind::Read);
        state.readable().then(|| self.payload_at(i))
    }

    /// The access behind [`access`](SetAssocCache::access): the pre-access
    /// state and, if the line is resident, the way holding it.
    #[inline]
    fn access_way(&mut self, line: LineAddr, kind: AccessKind) -> (LineState, usize) {
        self.tick += 1;
        match self.slot(line) {
            Some(i) => {
                let state = self.state_at(i);
                let hit = match kind {
                    AccessKind::Read => state.readable(),
                    AccessKind::Write => state.writable(),
                };
                if hit {
                    self.words[i + self.ways_per_set] = self.tick;
                }
                match (kind, hit) {
                    (AccessKind::Read, true) => self.stats.read_hits += 1,
                    (AccessKind::Read, false) => self.stats.read_misses += 1,
                    (AccessKind::Write, true) => self.stats.write_hits += 1,
                    (AccessKind::Write, false) => self.stats.write_misses += 1,
                }
                (state, i)
            }
            None => {
                match kind {
                    AccessKind::Read => self.stats.read_misses += 1,
                    AccessKind::Write => self.stats.write_misses += 1,
                }
                (LineState::Invalid, 0)
            }
        }
    }

    /// Installs `line` with `state` and `payload`, evicting the LRU way of
    /// the set if it is full. Returns the eviction, if one occurred.
    ///
    /// # Panics
    ///
    /// Panics if the line is already resident (fills must pair with misses)
    /// or does not fit the meta word (a line number of 2^61 or more —
    /// beyond any 64-bit byte address).
    pub fn fill(&mut self, line: LineAddr, state: LineState, payload: u64) -> Option<Eviction> {
        assert!(
            self.slot(line).is_none(),
            "fill of already-resident line {line}"
        );
        assert!(state != LineState::Invalid, "cannot fill an Invalid line");
        assert!(
            line.0 >> (64 - TAG_SHIFT) == 0,
            "line {line} does not fit the meta word"
        );
        self.tick += 1;
        let set = (line.0 & self.set_mask) as usize;
        if self.blocks[set] == 0 {
            self.add_block(set);
        }
        let base = self.set_base(line);
        // Prefer an invalid way; otherwise evict true-LRU among unpinned.
        let mut victim = usize::MAX;
        let mut best = u64::MAX;
        for i in base..base + self.ways_per_set {
            let meta = self.words[i];
            if meta & STATE_BITS == 0 {
                victim = i;
                break;
            }
            if self.last_use_at(i) < best && meta & PIN_BIT == 0 {
                best = self.last_use_at(i);
                victim = i;
            }
        }
        assert!(
            victim != usize::MAX,
            "every way of the set is pinned; cannot fill {line}"
        );
        let old = self.state_at(victim);
        let evicted = if old != LineState::Invalid {
            self.resident -= 1;
            if old.dirty() {
                self.stats.dirty_evictions += 1;
            } else {
                self.stats.clean_evictions += 1;
            }
            Some(Eviction {
                line: self.line_in_way(victim),
                state: old,
                payload: self.payload_at(victim),
            })
        } else {
            None
        };
        self.words[victim] = Self::key(line) | state.code();
        self.words[victim + self.ways_per_set] = self.tick;
        self.words[victim + 2 * self.ways_per_set] = payload;
        self.resident += 1;
        evicted
    }

    /// Appends an empty block for `set`'s first fill.
    #[cold]
    #[inline(never)]
    fn add_block(&mut self, set: usize) {
        self.blocks[set] = (self.words.len() / self.block_words) as u32;
        self.words.resize(self.words.len() + self.block_words, 0);
    }

    fn line_in_way(&self, i: usize) -> LineAddr {
        LineAddr(self.words[i] >> TAG_SHIFT)
    }

    /// Empties way `i`: a zero meta word is Invalid and unpinned.
    fn clear(&mut self, i: usize) {
        self.words[i] = 0;
        self.resident -= 1;
    }

    /// Changes the state of a resident line (upgrade, downgrade, or snoop
    /// response). Setting `Invalid` removes the line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn set_state(&mut self, line: LineAddr, state: LineState) {
        let i = self
            .slot(line)
            .unwrap_or_else(|| panic!("set_state on non-resident line {line}"));
        if state == LineState::Invalid {
            self.clear(i);
        } else {
            self.words[i] = (self.words[i] & !STATE_BITS) | state.code();
        }
    }

    /// Invalidates `line` if resident; returns its pre-invalidation state
    /// and payload, or `None` if it was not resident (e.g. silently
    /// dropped earlier).
    pub fn invalidate(&mut self, line: LineAddr) -> Option<(LineState, u64)> {
        let i = self.slot(line)?;
        let old = (self.state_at(i), self.payload_at(i));
        self.clear(i);
        Some(old)
    }

    /// Records a completed store to a resident line: promotes Exclusive to
    /// Modified, installs `payload` and returns the payload it replaces.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn store(&mut self, line: LineAddr, payload: u64) -> u64 {
        let i = self
            .slot(line)
            .unwrap_or_else(|| panic!("store to non-resident line {line}"));
        if self.state_at(i) == LineState::Exclusive {
            self.words[i] = (self.words[i] & !STATE_BITS) | LineState::Modified.code();
        }
        std::mem::replace(&mut self.words[i + 2 * self.ways_per_set], payload)
    }

    /// Pins a resident line against eviction (an outstanding transaction
    /// depends on it staying resident).
    pub fn pin(&mut self, line: LineAddr) {
        let i = self.slot(line);
        debug_assert!(i.is_some(), "pin of non-resident {line}");
        if let Some(i) = i {
            self.words[i] |= PIN_BIT;
        }
    }

    /// Releases a pin. Idempotent (a no-op on non-resident lines).
    pub fn unpin(&mut self, line: LineAddr) {
        if let Some(i) = self.slot(line) {
            self.words[i] &= !PIN_BIT;
        }
    }

    /// Iterates over all resident lines as `(line, state, payload)`, set
    /// by set and in way order within a set.
    pub fn iter_resident(&self) -> impl Iterator<Item = (LineAddr, LineState, u64)> + '_ {
        let a = self.ways_per_set;
        self.blocks
            .iter()
            .filter(|&&b| b != 0)
            .flat_map(move |&b| {
                let base = b as usize * self.block_words;
                base..base + a
            })
            .filter(|&i| self.words[i] & STATE_BITS != 0)
            .map(|i| (self.line_in_way(i), self.state_at(i), self.payload_at(i)))
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.resident
    }
}

impl ccn_sim::Component for SetAssocCache {
    fn component_name(&self) -> &'static str {
        "cache"
    }

    fn stats_snapshot(&self) -> ccn_sim::ComponentStats {
        self.stats_snapshot_named("cache")
    }

    fn reset_stats(&mut self) {
        SetAssocCache::reset_stats(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways, 64 B lines
        SetAssocCache::new(CacheGeometry {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn geometry_sets() {
        assert_eq!(CacheGeometry::l2(128).sets(), 2048);
        assert_eq!(CacheGeometry::l1(128).sets(), 32);
        assert_eq!(CacheGeometry::l1(32).sets(), 128);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert_eq!(c.access(LineAddr(5), AccessKind::Read), LineState::Invalid);
        assert!(c.fill(LineAddr(5), LineState::Shared, 7).is_none());
        assert_eq!(c.access(LineAddr(5), AccessKind::Read), LineState::Shared);
        assert_eq!(c.payload_of(LineAddr(5)), Some(7));
        let s = c.stats();
        assert_eq!((s.read_misses, s.read_hits), (1, 1));
    }

    #[test]
    fn write_to_shared_counts_as_miss() {
        let mut c = small();
        c.fill(LineAddr(1), LineState::Shared, 0);
        assert_eq!(c.access(LineAddr(1), AccessKind::Write), LineState::Shared);
        assert_eq!(c.stats().write_misses, 1);
        c.set_state(LineAddr(1), LineState::Modified);
        assert_eq!(
            c.access(LineAddr(1), AccessKind::Write),
            LineState::Modified
        );
        assert_eq!(c.stats().write_hits, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // set = line % 4; lines 0, 4, 8 all map to set 0 (2 ways)
        c.fill(LineAddr(0), LineState::Shared, 0);
        c.fill(LineAddr(4), LineState::Shared, 0);
        c.access(LineAddr(0), AccessKind::Read); // 0 now MRU
        let ev = c
            .fill(LineAddr(8), LineState::Shared, 0)
            .expect("must evict");
        assert_eq!(ev.line, LineAddr(4));
        assert_eq!(c.state_of(LineAddr(0)), LineState::Shared);
        assert_eq!(c.state_of(LineAddr(4)), LineState::Invalid);
        assert_eq!(c.stats().clean_evictions, 1);
    }

    #[test]
    fn dirty_eviction_reports_payload() {
        let mut c = small();
        c.fill(LineAddr(0), LineState::Modified, 42);
        c.fill(LineAddr(4), LineState::Shared, 0);
        let ev = c
            .fill(LineAddr(8), LineState::Shared, 0)
            .expect("must evict");
        assert_eq!(ev.line, LineAddr(0));
        assert_eq!(ev.state, LineState::Modified);
        assert_eq!(ev.payload, 42);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn invalidate_and_snoop() {
        let mut c = small();
        c.fill(LineAddr(9), LineState::Modified, 3);
        assert_eq!(c.state_of(LineAddr(9)), LineState::Modified);
        assert_eq!(c.invalidate(LineAddr(9)), Some((LineState::Modified, 3)));
        assert_eq!(c.state_of(LineAddr(9)), LineState::Invalid);
        assert_eq!(c.invalidate(LineAddr(9)), None);
    }

    #[test]
    fn fill_prefers_invalid_way() {
        let mut c = small();
        c.fill(LineAddr(0), LineState::Shared, 0);
        c.fill(LineAddr(4), LineState::Shared, 0);
        c.invalidate(LineAddr(0));
        // Set 0 has an invalid way; no eviction expected.
        assert!(c.fill(LineAddr(8), LineState::Shared, 0).is_none());
        assert_eq!(c.state_of(LineAddr(4)), LineState::Shared);
    }

    #[test]
    fn tag_reconstruction_round_trips() {
        let mut c = small();
        let line = LineAddr(0x1234_5678);
        c.fill(line, LineState::Exclusive, 1);
        // Force eviction from the same set.
        let set_mask = 3u64;
        let same_set_a = LineAddr((0xAAAA << 2) | (line.0 & set_mask));
        let same_set_b = LineAddr((0xBBBB << 2) | (line.0 & set_mask));
        c.fill(same_set_a, LineState::Shared, 0);
        let ev = c
            .fill(same_set_b, LineState::Shared, 0)
            .expect("evicts LRU");
        assert_eq!(ev.line, line);
    }

    #[test]
    fn resident_iteration() {
        let mut c = small();
        c.fill(LineAddr(1), LineState::Shared, 10);
        c.fill(LineAddr(2), LineState::Modified, 20);
        let mut got: Vec<_> = c.iter_resident().collect();
        got.sort();
        assert_eq!(
            got,
            vec![
                (LineAddr(1), LineState::Shared, 10),
                (LineAddr(2), LineState::Modified, 20)
            ]
        );
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    #[should_panic(expected = "already-resident")]
    fn double_fill_panics() {
        let mut c = small();
        c.fill(LineAddr(1), LineState::Shared, 0);
        c.fill(LineAddr(1), LineState::Shared, 0);
    }

    #[test]
    fn miss_ratio() {
        let mut c = small();
        c.access(LineAddr(0), AccessKind::Read);
        c.fill(LineAddr(0), LineState::Shared, 0);
        c.access(LineAddr(0), AccessKind::Read);
        c.access(LineAddr(0), AccessKind::Read);
        c.access(LineAddr(0), AccessKind::Read);
        assert!((c.stats().miss_ratio() - 0.25).abs() < 1e-12);
    }
}

#[cfg(test)]
mod pin_tests {
    use super::*;

    #[test]
    fn pinned_lines_survive_fills() {
        let mut c = SetAssocCache::new(CacheGeometry {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
        });
        c.fill(LineAddr(0), LineState::Shared, 0);
        c.fill(LineAddr(4), LineState::Shared, 0);
        c.access(LineAddr(4), AccessKind::Read); // 0 is LRU
        c.pin(LineAddr(0));
        let ev = c.fill(LineAddr(8), LineState::Shared, 0).expect("evicts");
        assert_eq!(ev.line, LineAddr(4), "pinned LRU line must be skipped");
        c.unpin(LineAddr(0));
        let ev = c.fill(LineAddr(12), LineState::Shared, 0).expect("evicts");
        assert_eq!(ev.line, LineAddr(0));
    }

    #[test]
    #[should_panic(expected = "pinned")]
    fn all_pinned_panics() {
        let mut c = SetAssocCache::new(CacheGeometry {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
        });
        c.fill(LineAddr(0), LineState::Shared, 0);
        c.fill(LineAddr(4), LineState::Shared, 0);
        c.pin(LineAddr(0));
        c.pin(LineAddr(4));
        let _ = c.fill(LineAddr(8), LineState::Shared, 0);
    }
}
