//! Ocean: red-black Gauss-Seidel ocean-current simulation (SPLASH-2).
//!
//! Multiple g×g double-precision grids are swept with nearest-neighbour
//! stencils. Processors own square tiles; every sweep reads the boundary
//! rows/columns of the four neighbouring tiles. Because grids are
//! row-major, the *column* boundaries touch one cache line per element —
//! this is what gives Ocean the highest communication rate in the suite
//! (RCCPI ≈ 23×10⁻³ for the 258 grid) and the paper's headline 93 %
//! PP penalty.

use crate::apps::{proc_grid, BarrierIds};
use crate::segment::{Access, Segment};
use crate::space::AddressSpace;
use crate::{AppBuild, Application, MachineShape};

/// Red-black stencil sweeps over multiple ocean grids.
#[derive(Debug, Clone, Copy)]
pub struct Ocean {
    /// Grid side including boundary (paper: 258 base, 514 large).
    pub grid: usize,
    /// Number of simultaneously live grids (SPLASH-2 Ocean keeps ~25
    /// g×g arrays; we sweep a representative subset).
    pub grids: usize,
    /// Relaxation sweeps per grid per timestep.
    pub sweeps: u32,
    /// Timesteps.
    pub timesteps: u32,
}

const ELEM_BYTES: u64 = 8;

impl Ocean {
    /// The paper's base data set: 258×258.
    pub fn paper_base() -> Self {
        Ocean {
            grid: 258,
            grids: 8,
            sweeps: 4,
            timesteps: 2,
        }
    }

    /// The paper's large data set: 514×514.
    pub fn paper_large() -> Self {
        Ocean {
            grid: 514,
            grids: 8,
            sweeps: 4,
            timesteps: 2,
        }
    }

    /// Scaled-down configuration for fast reproduction runs.
    pub fn scaled() -> Self {
        Ocean {
            grid: 130,
            grids: 8,
            sweeps: 4,
            timesteps: 2,
        }
    }

    /// Tiny configuration for tests.
    pub fn tiny() -> Self {
        Ocean {
            grid: 34,
            grids: 2,
            sweeps: 2,
            timesteps: 1,
        }
    }
}

impl Application for Ocean {
    fn name(&self) -> String {
        format!("Ocean-{}", self.grid)
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        let nprocs = shape.nprocs();
        let (pr, pc) = proc_grid(nprocs);
        let interior = self.grid - 2;
        assert!(
            interior.is_multiple_of(pr) && interior.is_multiple_of(pc),
            "grid interior ({interior}) must divide across the {pr}x{pc} processor grid"
        );
        let tile_h = interior / pr;
        let tile_w = interior / pc;
        let row_bytes = self.grid as u64 * ELEM_BYTES;
        let grid_bytes = self.grid as u64 * row_bytes;

        let mut space = AddressSpace::new(shape.page_bytes);
        let grids: Vec<u64> = (0..self.grids).map(|_| space.alloc(grid_bytes)).collect();

        let mut programs = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let (ti, tj) = (p / pc, p % pc);
            let row0 = 1 + ti * tile_h; // first interior row of the tile
            let col0 = 1 + tj * tile_w;
            let addr =
                |g: u64, r: usize, c: usize| g + r as u64 * row_bytes + c as u64 * ELEM_BYTES;

            let mut bar = BarrierIds::default();
            let mut segs: Vec<Segment> = Vec::new();
            // Initialization: write own tile of every grid.
            for &g in &grids {
                segs.push(Segment::Walk {
                    base: addr(g, row0, col0),
                    bytes: tile_w as u64 * ELEM_BYTES,
                    stride: 8,
                    rows: tile_h as u32,
                    pitch: row_bytes,
                    access: Access::Write,
                    work: 0,
                });
            }
            segs.push(Segment::Barrier(bar.next()));
            segs.push(Segment::StartMeasurement);

            // Emits the red-black relaxation sweeps for one multigrid
            // level: the grid side halves per level, so coarse levels have
            // tiny tiles with full boundary exchange — the communication-
            // dense part of real Ocean's W-cycles.
            let emit_sweeps = |segs: &mut Vec<Segment>, g: u64, level: usize, sweeps: u32| {
                let lrow_bytes = ((self.grid >> level) as u64) * ELEM_BYTES;
                let lth = tile_h >> level;
                let ltw = tile_w >> level;
                if lth == 0 || ltw == 0 {
                    return;
                }
                let lrow0 = 1 + ti * lth;
                let lcol0 = 1 + tj * ltw;
                let laddr = |r: usize, c: usize| g + r as u64 * lrow_bytes + c as u64 * ELEM_BYTES;
                for _sweep in 0..sweeps {
                    // Red-black: two half-sweeps, each re-reading the
                    // boundaries the other colour just updated.
                    for _half in 0..2 {
                        // Boundary rows above/below (contiguous)…
                        segs.push(Segment::Walk {
                            base: laddr(lrow0 - 1, lcol0),
                            bytes: ltw as u64 * ELEM_BYTES,
                            stride: 8,
                            rows: 1,
                            pitch: 0,
                            access: Access::Read,
                            work: 0,
                        });
                        segs.push(Segment::Walk {
                            base: laddr(lrow0 + lth, lcol0),
                            bytes: ltw as u64 * ELEM_BYTES,
                            stride: 8,
                            rows: 1,
                            pitch: 0,
                            access: Access::Read,
                            work: 0,
                        });
                        // …and columns left/right (one line per element).
                        segs.push(Segment::Walk {
                            base: laddr(lrow0, lcol0 - 1),
                            bytes: lth as u64 * lrow_bytes,
                            stride: lrow_bytes as u32,
                            rows: 1,
                            pitch: 0,
                            access: Access::Read,
                            work: 0,
                        });
                        segs.push(Segment::Walk {
                            base: laddr(lrow0, lcol0 + ltw),
                            bytes: lth as u64 * lrow_bytes,
                            stride: lrow_bytes as u32,
                            rows: 1,
                            pitch: 0,
                            access: Access::Read,
                            work: 0,
                        });
                        // Half the interior points: 5-point stencil.
                        segs.push(Segment::Walk {
                            base: laddr(lrow0, lcol0),
                            bytes: (ltw as u64 * ELEM_BYTES / 2).max(8),
                            stride: 16,
                            rows: lth as u32,
                            pitch: lrow_bytes,
                            access: Access::ReadWrite,
                            work: 36,
                        });
                    }
                }
            };

            for _ts in 0..self.timesteps {
                for &g in &grids {
                    // Fine-level relaxation…
                    emit_sweeps(&mut segs, g, 0, self.sweeps);
                    // …then a multigrid V-cycle over the coarser levels
                    // (down and up: two visits per level).
                    for level in 1..3 {
                        emit_sweeps(&mut segs, g, level, 2);
                    }
                    for level in (1..3).rev() {
                        emit_sweeps(&mut segs, g, level, 2);
                    }
                    // One barrier per grid phase; sweeps within a phase
                    // run unsynchronized, as in SPLASH-2's long phases.
                    segs.push(Segment::Barrier(bar.next()));
                }
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
    fn tiles_partition_the_interior() {
        // 8 procs => 2x4 grid; 32/2=16 rows, 32/4=8 cols per tile.
        let build = Ocean::tiny().build(&shape());
        assert_eq!(build.programs.len(), 8);
    }

    #[test]
    fn reference_heavy_relative_to_compute() {
        let build = Ocean::tiny().build(&shape());
        let (instr, refs) = static_op_counts(&build.programs[0]);
        assert!(
            instr < refs * 25,
            "Ocean is memory-bound: {instr} vs {refs}"
        );
    }

    #[test]
    fn column_boundaries_are_strided() {
        let build = Ocean::tiny().build(&shape());
        let has_strided = build.programs[0].iter().any(
            |s| matches!(s, Segment::Walk { stride, .. } if *stride as u64 == 34 * ELEM_BYTES),
        );
        assert!(has_strided, "column reads must stride by a full row");
    }

    #[test]
    fn programs_are_sized_to_the_loop_nest_not_the_grid() {
        // One walk per tile: doubling the grid leaves every program's
        // segment count unchanged.
        let small = Ocean::tiny().build(&shape());
        let large = Ocean {
            grid: 66,
            ..Ocean::tiny()
        }
        .build(&shape());
        for (s, l) in small.programs.iter().zip(&large.programs) {
            assert_eq!(s.len(), l.len());
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_indivisible_grid() {
        let bad = Ocean {
            grid: 35,
            ..Ocean::tiny()
        };
        let _ = bad.build(&shape());
    }
}
