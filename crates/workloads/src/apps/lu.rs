//! LU: blocked dense LU factorization (SPLASH-2 kernel).
//!
//! The matrix is stored block-contiguous (each B×B block occupies a
//! contiguous 2 KB region for B=16 doubles, as in SPLASH-2) and blocks are
//! assigned to processors with a 2D scatter (cyclic) decomposition. Each
//! outer iteration factors the diagonal block, updates the perimeter
//! blocks (which read the diagonal block), and updates the interior blocks
//! (which read one perimeter block from the pivot row and one from the
//! pivot column). Communication-to-computation ratio is low — LU is the
//! paper's low-RCCPI anchor with a ~4 % PP penalty.

use crate::apps::{proc_grid, BarrierIds};
use crate::segment::{Access, Segment};
use crate::space::AddressSpace;
use crate::{AppBuild, Application, MachineShape};

/// Blocked dense LU factorization.
#[derive(Debug, Clone, Copy)]
pub struct Lu {
    /// Matrix dimension (paper: 512).
    pub n: usize,
    /// Block dimension (paper: 16).
    pub block: usize,
}

impl Lu {
    /// The paper's configuration: 512×512 matrix, 16×16 blocks.
    pub fn paper() -> Self {
        Lu { n: 512, block: 16 }
    }

    /// Scaled-down configuration for fast reproduction runs.
    pub fn scaled() -> Self {
        Lu { n: 256, block: 16 }
    }

    /// Tiny configuration for tests.
    pub fn tiny() -> Self {
        Lu { n: 64, block: 16 }
    }

    fn blocks(&self) -> usize {
        self.n / self.block
    }
}

impl Application for Lu {
    fn name(&self) -> String {
        format!("LU-{}", self.n)
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        assert!(
            self.n.is_multiple_of(self.block),
            "matrix dimension must be a multiple of the block size"
        );
        let nb = self.blocks();
        let nprocs = shape.nprocs();
        let (pr, pc) = proc_grid(nprocs);
        let block_bytes = (self.block * self.block * 8) as u64;
        let mut space = AddressSpace::new(shape.page_bytes);
        let matrix = space.alloc(nb as u64 * nb as u64 * block_bytes);
        let block_base = |i: usize, j: usize| matrix + ((i * nb + j) as u64) * block_bytes;
        let owner = |i: usize, j: usize| (i % pr) * pc + (j % pc);

        // Per-element compute: diagonal ~B/3 flops, perimeter ~B (triangular
        // solve), interior 2B (rank-B update), matching SPLASH-2 LU.
        let w_diag = (self.block / 3).max(1) as u16;
        let w_perim = self.block as u16;
        // 2B multiply-adds at ~2 cycles each per element (the dominant
        // daxpy inner loop of SPLASH-2 LU).
        let w_inner = (4 * self.block) as u16;

        let mut programs = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let mut bar = BarrierIds::default();
            let mut segs: Vec<Segment> = Vec::new();
            // Initialization: touch owned blocks (the paper excludes this
            // from the measured parallel phase).
            for i in 0..nb {
                for j in 0..nb {
                    if owner(i, j) == p {
                        segs.push(Segment::Walk {
                            base: block_base(i, j),
                            bytes: block_bytes,
                            stride: 8,
                            rows: 1,
                            pitch: 0,
                            access: Access::Write,
                            work: 0,
                        });
                    }
                }
            }
            segs.push(Segment::Barrier(bar.next()));
            segs.push(Segment::StartMeasurement);
            for k in 0..nb {
                if owner(k, k) == p {
                    segs.push(Segment::Walk {
                        base: block_base(k, k),
                        bytes: block_bytes,
                        stride: 8,
                        rows: 1,
                        pitch: 0,
                        access: Access::ReadWrite,
                        work: w_diag,
                    });
                }
                segs.push(Segment::Barrier(bar.next()));
                // Perimeter: pivot row and pivot column read the diagonal.
                for j in k + 1..nb {
                    if owner(k, j) == p {
                        segs.push(Segment::Walk {
                            base: block_base(k, k),
                            bytes: block_bytes,
                            stride: 8,
                            rows: 1,
                            pitch: 0,
                            access: Access::Read,
                            work: 0,
                        });
                        segs.push(Segment::Walk {
                            base: block_base(k, j),
                            bytes: block_bytes,
                            stride: 8,
                            rows: 1,
                            pitch: 0,
                            access: Access::ReadWrite,
                            work: w_perim,
                        });
                    }
                }
                for i in k + 1..nb {
                    if owner(i, k) == p {
                        segs.push(Segment::Walk {
                            base: block_base(k, k),
                            bytes: block_bytes,
                            stride: 8,
                            rows: 1,
                            pitch: 0,
                            access: Access::Read,
                            work: 0,
                        });
                        segs.push(Segment::Walk {
                            base: block_base(i, k),
                            bytes: block_bytes,
                            stride: 8,
                            rows: 1,
                            pitch: 0,
                            access: Access::ReadWrite,
                            work: w_perim,
                        });
                    }
                }
                segs.push(Segment::Barrier(bar.next()));
                // Interior: A[i][j] -= A[i][k] * A[k][j].
                for i in k + 1..nb {
                    for j in k + 1..nb {
                        if owner(i, j) == p {
                            segs.push(Segment::Walk {
                                base: block_base(i, k),
                                bytes: block_bytes,
                                stride: 8,
                                rows: 1,
                                pitch: 0,
                                access: Access::Read,
                                work: 0,
                            });
                            segs.push(Segment::Walk {
                                base: block_base(k, j),
                                bytes: block_bytes,
                                stride: 8,
                                rows: 1,
                                pitch: 0,
                                access: Access::Read,
                                work: 0,
                            });
                            segs.push(Segment::Walk {
                                base: block_base(i, j),
                                bytes: block_bytes,
                                stride: 8,
                                rows: 1,
                                pitch: 0,
                                access: Access::ReadWrite,
                                work: w_inner,
                            });
                        }
                    }
                }
                segs.push(Segment::Barrier(bar.next()));
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
    fn barrier_sequences_agree_across_procs() {
        let build = Lu::tiny().build(&shape());
        let barriers: Vec<Vec<u32>> = build
            .programs
            .iter()
            .map(|p| {
                p.iter()
                    .filter_map(|s| match s {
                        Segment::Barrier(id) => Some(*id),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        for b in &barriers[1..] {
            assert_eq!(b, &barriers[0]);
        }
        assert!(!barriers[0].is_empty());
    }

    #[test]
    fn interior_work_dominates() {
        let build = Lu::tiny().build(&shape());
        let (instr, refs) = static_op_counts(&build.programs[0]);
        assert!(
            instr > refs * 2,
            "LU must be compute-heavy: {instr} vs {refs}"
        );
    }

    #[test]
    fn all_blocks_touched_exactly_once_per_init() {
        let build = Lu::tiny().build(&shape());
        let inits: usize = build
            .programs
            .iter()
            .map(|p| {
                p.iter()
                    .take_while(|s| !matches!(s, Segment::Barrier(_)))
                    .count()
            })
            .sum();
        let nb = Lu::tiny().blocks();
        assert_eq!(inits, nb * nb);
    }

    #[test]
    #[should_panic(expected = "multiple of the block")]
    fn rejects_misaligned_matrix() {
        let _ = Lu { n: 100, block: 16 }.build(&shape());
    }
}
