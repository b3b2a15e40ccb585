//! Radix: parallel radix sort (SPLASH-2 kernel).
//!
//! Each iteration builds per-processor histograms of the current digit
//! (local streaming reads), combines them into global rank prefixes
//! (all-to-all reads of the small histogram array), and then *permutes* the
//! keys: every processor streams its own keys and writes each to its ranked
//! position in the destination array — a scattered, all-to-all,
//! write-dominated phase. The permutation gives Radix its high, data-size-
//! independent communication rate (the paper's ~52 % PP penalty).

use crate::apps::BarrierIds;
use crate::segment::{Access, Segment};
use crate::space::AddressSpace;
use crate::{AppBuild, Application, MachineShape};

/// Parallel radix sort of `keys` integer keys with the given radix.
#[derive(Debug, Clone, Copy)]
pub struct Radix {
    /// Number of keys (paper: 256 K).
    pub keys: usize,
    /// Radix (paper: 1024 buckets → 10-bit digits).
    pub radix: usize,
    /// Digit passes (32-bit keys at radix 1024 need 3–4; we default to 3).
    pub passes: u32,
}

const KEY_BYTES: u64 = 8;

impl Radix {
    /// The paper's configuration: 256 K keys, radix 1 K.
    pub fn paper() -> Self {
        Radix {
            keys: 256 * 1024,
            radix: 1024,
            passes: 3,
        }
    }

    /// Scaled-down configuration for fast reproduction runs.
    pub fn scaled() -> Self {
        Radix {
            keys: 64 * 1024,
            radix: 1024,
            passes: 3,
        }
    }

    /// Tiny configuration for tests.
    pub fn tiny() -> Self {
        Radix {
            keys: 4096,
            radix: 256,
            passes: 2,
        }
    }
}

impl Application for Radix {
    fn name(&self) -> String {
        "Radix".to_string()
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        let nprocs = shape.nprocs();
        assert!(
            self.keys.is_multiple_of(nprocs),
            "key count must be divisible by the processor count"
        );
        let keys_per_proc = (self.keys / nprocs) as u64;
        let chunk_bytes = keys_per_proc * KEY_BYTES;
        let array_bytes = self.keys as u64 * KEY_BYTES;
        let hist_row_bytes = self.radix as u64 * 8;

        let mut space = AddressSpace::new(shape.page_bytes);
        // Key arrays are distributed chunk-per-processor (SPLASH-2 places
        // each processor's key block with it).
        let k0: Vec<u64> = (0..nprocs)
            .map(|p| space.alloc_at(chunk_bytes, shape.node_of(p) as u16))
            .collect();
        let k1: Vec<u64> = (0..nprocs)
            .map(|p| space.alloc_at(chunk_bytes, shape.node_of(p) as u16))
            .collect();
        let hist = space.alloc(nprocs as u64 * hist_row_bytes);

        let mut programs = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let mut bar = BarrierIds::default();
            let mut segs: Vec<Segment> = Vec::new();
            // Initialization: write own key block.
            segs.push(Segment::Walk {
                base: k0[p],
                bytes: chunk_bytes,
                stride: 8,
                rows: 1,
                pitch: 0,
                access: Access::Write,
                work: 0,
            });
            segs.push(Segment::Barrier(bar.next()));
            segs.push(Segment::StartMeasurement);

            let mut src = &k0;
            let mut dst = &k1;
            for pass in 0..self.passes {
                // Phase 1: local histogram of own keys.
                segs.push(Segment::Walk {
                    base: src[p],
                    bytes: chunk_bytes,
                    stride: 8,
                    rows: 1,
                    pitch: 0,
                    access: Access::Read,
                    work: 2,
                });
                segs.push(Segment::Walk {
                    base: hist + p as u64 * hist_row_bytes,
                    bytes: hist_row_bytes,
                    stride: 8,
                    rows: 1,
                    pitch: 0,
                    access: Access::Write,
                    work: 1,
                });
                segs.push(Segment::Barrier(bar.next()));
                // Phase 2: global rank prefix — each processor combines
                // its assigned digit range across every processor's
                // histogram row (SPLASH-2's parallel prefix), not the
                // whole table.
                let slice_bytes = (hist_row_bytes / nprocs as u64).max(8);
                for step in 0..nprocs {
                    let q = (p + step) % nprocs;
                    segs.push(Segment::Walk {
                        base: hist + q as u64 * hist_row_bytes + p as u64 * slice_bytes,
                        bytes: slice_bytes,
                        stride: 8,
                        rows: 1,
                        pitch: 0,
                        access: Access::Read,
                        work: 2,
                    });
                }
                segs.push(Segment::Walk {
                    base: hist + p as u64 * hist_row_bytes,
                    bytes: hist_row_bytes,
                    stride: 8,
                    rows: 1,
                    pitch: 0,
                    access: Access::ReadWrite,
                    work: 1,
                });
                segs.push(Segment::Barrier(bar.next()));
                // Phase 3: permutation — stream own keys, scatter-write to
                // ranked positions. Keys with equal digits land in
                // consecutive slots, so writes cluster at cache-line
                // granularity: one line-granular write stands for a run of
                // `keys_per_line` key stores, whose per-key instructions
                // ride along as work.
                // Two adjacent destination lines share each miss run on
                // average (equal-digit runs from the rank prefix), so a
                // scatter "write" stands for two lines' worth of keys.
                let keys_per_line = 2 * (shape.line_bytes / KEY_BYTES).max(1);
                let chunks = 8u32;
                for c in 0..chunks {
                    segs.push(Segment::Walk {
                        base: src[p] + (c as u64) * chunk_bytes / chunks as u64,
                        bytes: chunk_bytes / chunks as u64,
                        stride: 8,
                        rows: 1,
                        pitch: 0,
                        access: Access::Read,
                        work: 8,
                    });
                    segs.push(Segment::RandomWalk {
                        base: dst[0],
                        bytes: array_bytes,
                        count: (keys_per_proc / chunks as u64 / keys_per_line).max(1) as u32,
                        stride: shape.line_bytes as u32,
                        access: Access::Write,
                        work: (keys_per_line as u16) * 48,
                        seed: 0x5AD1 ^ ((p as u64) << 8) ^ ((pass as u64) << 24) ^ c as u64,
                    });
                }
                segs.push(Segment::Barrier(bar.next()));
                std::mem::swap(&mut src, &mut dst);
            }
            programs.push(segs);
        }
        AppBuild {
            programs,
            placements: space.into_placements(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::static_op_counts;

    fn shape() -> MachineShape {
        MachineShape {
            nodes: 4,
            procs_per_node: 2,
            page_bytes: 4096,
            line_bytes: 128,
        }
    }

    #[test]
    fn communication_heavier_than_lu() {
        let build = Radix::tiny().build(&shape());
        let (instr, refs) = static_op_counts(&build.programs[0]);
        // Radix stays reference-heavy even with the per-key permutation
        // instructions folded into the line-granular scatter writes.
        assert!(instr < refs * 15, "{instr} vs {refs}");
    }

    #[test]
    fn barrier_sequences_agree() {
        let build = Radix::tiny().build(&shape());
        let ids = |p: &Vec<Segment>| -> Vec<u32> {
            p.iter()
                .filter_map(|s| match s {
                    Segment::Barrier(id) => Some(*id),
                    _ => None,
                })
                .collect()
        };
        let first = ids(&build.programs[0]);
        for p in &build.programs[1..] {
            assert_eq!(ids(p), first);
        }
        // 1 init + 3 per pass x 2 passes.
        assert_eq!(first.len(), 7);
    }

    #[test]
    fn scatter_covers_whole_destination() {
        let build = Radix::tiny().build(&shape());
        let scatter = build.programs[0]
            .iter()
            .find_map(|s| match s {
                Segment::RandomWalk { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .expect("radix must scatter");
        assert_eq!(scatter, 4096 * 8);
    }
}
