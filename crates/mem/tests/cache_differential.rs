//! Differential test: the packed [`SetAssocCache`] tag store against a
//! plain array-of-ways reference model with true-LRU replacement.
//!
//! Every cache-visible result of the simulator — miss counts, eviction
//! write-backs, the functional snapshot's payloads — follows from the
//! cache's victim choice and its per-way bookkeeping. The reference keeps
//! one record per way with separate fields (tag, state, pin, payload,
//! last use) and picks victims the obvious way: the first Invalid way,
//! else the unpinned way with the oldest use. Seeded random call
//! sequences drive both through every entry point and compare
//! each return value, the statistics, and `iter_resident` order. Caches
//! built with a line bound run the same sequences: a bound changes only
//! how many set blocks are reserved up front, never what the cache does.

use ccn_mem::cache::CacheStats;
use ccn_mem::{AccessKind, CacheGeometry, Eviction, LineAddr, LineState, SetAssocCache};
use ccn_sim::SplitMix64;
use std::collections::BTreeSet;

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    state: LineState,
    last_use: u64,
    payload: u64,
    pinned: bool,
}

/// The obviously-correct model: one struct per way, linear scans.
struct ReferenceCache {
    sets: u64,
    assoc: usize,
    ways: Vec<Way>,
    tick: u64,
    stats: CacheStats,
    /// Sets that have ever been filled.
    filled_sets: BTreeSet<u64>,
}

impl ReferenceCache {
    fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        let assoc = geometry.ways as usize;
        let empty = Way {
            tag: 0,
            state: LineState::Invalid,
            last_use: 0,
            payload: 0,
            pinned: false,
        };
        ReferenceCache {
            sets,
            assoc,
            ways: vec![empty; sets as usize * assoc],
            tick: 0,
            stats: CacheStats::default(),
            filled_sets: BTreeSet::new(),
        }
    }

    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let base = (line.0 % self.sets) as usize * self.assoc;
        base..base + self.assoc
    }

    fn slot(&self, line: LineAddr) -> Option<usize> {
        let tag = line.0 / self.sets;
        self.set_range(line)
            .find(|&i| self.ways[i].state != LineState::Invalid && self.ways[i].tag == tag)
    }

    fn line_in_way(&self, i: usize) -> LineAddr {
        LineAddr(self.ways[i].tag * self.sets + (i / self.assoc) as u64)
    }

    fn access(&mut self, line: LineAddr, kind: AccessKind) -> LineState {
        self.tick += 1;
        let state = self
            .slot(line)
            .map_or(LineState::Invalid, |i| self.ways[i].state);
        let hit = match kind {
            AccessKind::Read => state.readable(),
            AccessKind::Write => state.writable(),
        };
        if hit {
            let i = self.slot(line).unwrap();
            self.ways[i].last_use = self.tick;
        }
        match (kind, hit) {
            (AccessKind::Read, true) => self.stats.read_hits += 1,
            (AccessKind::Read, false) => self.stats.read_misses += 1,
            (AccessKind::Write, true) => self.stats.write_hits += 1,
            (AccessKind::Write, false) => self.stats.write_misses += 1,
        }
        state
    }

    /// `None` when every way of the set is pinned (the real cache panics).
    fn victim(&self, line: LineAddr) -> Option<usize> {
        let range = self.set_range(line);
        if let Some(i) = range
            .clone()
            .find(|&i| self.ways[i].state == LineState::Invalid)
        {
            return Some(i);
        }
        range
            .filter(|&i| !self.ways[i].pinned)
            .min_by_key(|&i| self.ways[i].last_use)
    }

    fn fill(&mut self, line: LineAddr, state: LineState, payload: u64) -> Option<Eviction> {
        self.tick += 1;
        self.filled_sets.insert(line.0 % self.sets);
        let v = self.victim(line).expect("caller checked for a victim");
        let old = self.ways[v];
        let evicted = (old.state != LineState::Invalid).then(|| {
            if old.state.dirty() {
                self.stats.dirty_evictions += 1;
            } else {
                self.stats.clean_evictions += 1;
            }
            Eviction {
                line: self.line_in_way(v),
                state: old.state,
                payload: old.payload,
            }
        });
        self.ways[v] = Way {
            tag: line.0 / self.sets,
            state,
            last_use: self.tick,
            payload,
            pinned: false,
        };
        evicted
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<(LineState, u64)> {
        let i = self.slot(line)?;
        let old = (self.ways[i].state, self.ways[i].payload);
        self.ways[i].state = LineState::Invalid;
        self.ways[i].pinned = false;
        Some(old)
    }

    fn set_state(&mut self, line: LineAddr, state: LineState) {
        let i = self.slot(line).unwrap();
        self.ways[i].state = state;
        if state == LineState::Invalid {
            self.ways[i].pinned = false;
        }
    }

    fn resident(&self) -> Vec<(LineAddr, LineState, u64)> {
        (0..self.ways.len())
            .filter(|&i| self.ways[i].state != LineState::Invalid)
            .map(|i| {
                (
                    self.line_in_way(i),
                    self.ways[i].state,
                    self.ways[i].payload,
                )
            })
            .collect()
    }
}

const STATES: [LineState; 3] = [LineState::Shared, LineState::Exclusive, LineState::Modified];

fn assert_same_stats(a: CacheStats, b: CacheStats, ctx: &str) {
    assert_eq!(
        (
            a.read_hits,
            a.read_misses,
            a.write_hits,
            a.write_misses,
            a.dirty_evictions,
            a.clean_evictions
        ),
        (
            b.read_hits,
            b.read_misses,
            b.write_hits,
            b.write_misses,
            b.dirty_evictions,
            b.clean_evictions
        ),
        "statistics diverged {ctx}"
    );
}

/// Runs `ops` random calls on both caches, the real one built with
/// `bound` (`None`: [`SetAssocCache::new`]), and returns the number of
/// sets the calls filled. Lines come from a universe a few times the
/// cache's capacity, so sets overflow and evict; every eighth line sits
/// just below line number 2^60, so tag packing and line reconstruction
/// see tags far wider than the set index.
fn differential_run(geometry: CacheGeometry, seed: u64, ops: u32, bound: Option<usize>) -> usize {
    let mut rng = SplitMix64::new(seed);
    let mut cache = match bound {
        Some(lines) => SetAssocCache::with_line_bound(geometry, lines),
        None => SetAssocCache::new(geometry),
    };
    let mut model = ReferenceCache::new(geometry);
    let capacity = geometry.size_bytes / geometry.line_bytes;
    let sets = geometry.sets();
    let pick_line = |rng: &mut SplitMix64| {
        let line = rng.next_below(capacity * 3);
        if line.is_multiple_of(8) {
            LineAddr(((1u64 << 60) / sets - 1 - line / sets) * sets + line % sets)
        } else {
            LineAddr(line)
        }
    };
    for step in 0..ops {
        let line = pick_line(&mut rng);
        let ctx = format!("at step {step} (seed {seed}) on {line}");
        let resident = model.slot(line).is_some();
        match rng.next_below(10) {
            0..=2 => {
                let kind = if rng.chance(0.3) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                if kind == AccessKind::Read && rng.chance(0.5) {
                    let state = model.access(line, kind);
                    let want = state
                        .readable()
                        .then(|| model.ways[model.slot(line).unwrap()].payload);
                    assert_eq!(cache.read(line), want, "read {ctx}");
                } else {
                    assert_eq!(cache.access(line, kind), model.access(line, kind), "{ctx}");
                }
            }
            3..=4 if !resident && model.victim(line).is_some() => {
                let state = STATES[rng.next_below(3) as usize];
                let payload = rng.next_u64();
                assert_eq!(
                    cache.fill(line, state, payload),
                    model.fill(line, state, payload),
                    "eviction {ctx}"
                );
            }
            5 => assert_eq!(cache.invalidate(line), model.invalidate(line), "{ctx}"),
            6 if resident => {
                let state = if rng.chance(0.2) {
                    LineState::Invalid
                } else {
                    STATES[rng.next_below(3) as usize]
                };
                cache.set_state(line, state);
                model.set_state(line, state);
            }
            7 if resident => {
                cache.pin(line);
                let i = model.slot(line).unwrap();
                model.ways[i].pinned = true;
            }
            8 => {
                cache.unpin(line);
                if let Some(i) = model.slot(line) {
                    model.ways[i].pinned = false;
                }
            }
            9 if resident => {
                let payload = rng.next_u64();
                let i = model.slot(line).unwrap();
                let old = model.ways[i].payload;
                if model.ways[i].state == LineState::Exclusive {
                    model.ways[i].state = LineState::Modified;
                }
                model.ways[i].payload = payload;
                assert_eq!(cache.store(line, payload), old, "store {ctx}");
            }
            _ => {}
        }
        assert_eq!(
            cache.state_of(line),
            model
                .slot(line)
                .map_or(LineState::Invalid, |i| model.ways[i].state),
            "state {ctx}"
        );
        assert_eq!(
            cache.payload_of(line),
            model.slot(line).map(|i| model.ways[i].payload),
            "payload {ctx}"
        );
        if step % 512 == 0 {
            let want = model.resident();
            assert_eq!(
                cache.iter_resident().collect::<Vec<_>>(),
                want,
                "resident lines {ctx}"
            );
            assert_eq!(cache.resident_lines(), want.len(), "resident count {ctx}");
            assert_same_stats(cache.stats(), model.stats, &ctx);
        }
    }
    assert_eq!(cache.iter_resident().collect::<Vec<_>>(), model.resident());
    assert_same_stats(cache.stats(), model.stats, "at the end");
    let sets = geometry.sets() as usize;
    assert_eq!(cache.reserved_sets(), bound.unwrap_or(sets).min(sets));
    assert_eq!(cache.allocated_sets(), model.filled_sets.len());
    model.filled_sets.len()
}

#[test]
fn random_call_sequences_match_reference_model() {
    // 8 sets x 4 ways: heavy conflict traffic and frequent all-pinned sets.
    let small = CacheGeometry {
        size_bytes: 32 * 64,
        line_bytes: 64,
        ways: 4,
    };
    for seed in [1, 0xdead_beef, 42, 7_777_777, 0x0123_4567_89ab_cdef] {
        differential_run(small, seed, 50_000, None);
    }
}

#[test]
fn paper_l1_geometry_matches_reference_model() {
    differential_run(CacheGeometry::l1(32), 2024, 100_000, None);
}

#[test]
fn direct_mapped_and_fully_associative_match_reference_model() {
    let direct = CacheGeometry {
        size_bytes: 16 * 32,
        line_bytes: 32,
        ways: 1,
    };
    let full = CacheGeometry {
        size_bytes: 8 * 32,
        line_bytes: 32,
        ways: 8,
    };
    differential_run(direct, 5, 20_000, None);
    differential_run(full, 6, 20_000, None);
}

#[test]
fn bounded_caches_match_reference_model() {
    // 2,048 sets, so a short stream leaves most of them untouched.
    let l2 = CacheGeometry::l2(128);
    for seed in [3, 0xfeed] {
        let filled = differential_run(l2, seed, 6_000, None);
        assert!(filled > 8 && filled < 2_048, "{filled} sets filled");
        // No reserved blocks, fewer than the stream needs, and exactly
        // as many: each run grows (or not) through the same fills.
        for bound in [0, filled / 2, filled] {
            differential_run(l2, seed, 6_000, Some(bound));
        }
    }
    let small = CacheGeometry {
        size_bytes: 32 * 64,
        line_bytes: 64,
        ways: 4,
    };
    for bound in [0, 3, 8, usize::MAX] {
        differential_run(small, 11, 20_000, Some(bound));
    }
}
