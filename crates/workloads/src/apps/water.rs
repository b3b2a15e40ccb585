//! Water-Nsq and Water-Spatial: molecular-dynamics kernels (SPLASH-2).
//!
//! Both simulate forces and potentials of water molecules; they differ in
//! the interaction algorithm:
//!
//! * **Water-Nsq** computes O(n²/2) pairwise interactions — every processor
//!   streams *all* molecules each timestep, with lock-protected force
//!   accumulations into other processors' molecules. Moderate
//!   communication.
//! * **Water-Spatial** bins molecules into a 3D grid of cells and only
//!   interacts with neighbouring cells — each processor reads a boundary
//!   fraction of its neighbours' molecules. Low communication (one of the
//!   paper's low-RCCPI anchors).

use crate::apps::{proc_grid, BarrierIds};
use crate::segment::{Access, Segment};
use crate::space::AddressSpace;
use crate::{AppBuild, Application, MachineShape};

/// Bytes per molecule record (SPLASH-2's molecule struct is ~680 B; we use
/// five 128-byte lines).
const MOL_BYTES: u64 = 640;

/// O(n²) pairwise water simulation.
#[derive(Debug, Clone, Copy)]
pub struct WaterNsq {
    /// Number of molecules (paper: 512).
    pub molecules: usize,
    /// Timesteps.
    pub timesteps: u32,
}

impl WaterNsq {
    /// The paper's configuration: 512 molecules.
    pub fn paper() -> Self {
        WaterNsq {
            molecules: 512,
            timesteps: 2,
        }
    }

    /// Scaled-down configuration for fast reproduction runs.
    pub fn scaled() -> Self {
        WaterNsq {
            molecules: 216,
            timesteps: 2,
        }
    }

    /// Tiny configuration for tests.
    pub fn tiny() -> Self {
        WaterNsq {
            molecules: 64,
            timesteps: 1,
        }
    }
}

impl Application for WaterNsq {
    fn name(&self) -> String {
        "Water-Nsq".to_string()
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        let nprocs = shape.nprocs();
        assert!(
            self.molecules >= nprocs,
            "need at least one molecule per processor"
        );
        let per_proc = self.molecules / nprocs;
        let mut space = AddressSpace::new(shape.page_bytes);
        let mols = space.alloc(self.molecules as u64 * MOL_BYTES);
        let my_base = |p: usize| mols + (p * per_proc) as u64 * MOL_BYTES;
        let my_bytes = per_proc as u64 * MOL_BYTES;

        let mut programs = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let mut bar = BarrierIds::default();
            let mut segs: Vec<Segment> = Vec::new();
            segs.push(Segment::Walk {
                base: my_base(p),
                bytes: my_bytes,
                stride: 8,
                rows: 1,
                pitch: 0,
                access: Access::Write,
                work: 0,
            });
            segs.push(Segment::Barrier(bar.next()));
            segs.push(Segment::StartMeasurement);

            for ts in 0..self.timesteps {
                // Intra-molecular forces: own molecules, compute-heavy.
                segs.push(Segment::Walk {
                    base: my_base(p),
                    bytes: my_bytes,
                    stride: 8,
                    rows: 1,
                    pitch: 0,
                    access: Access::ReadWrite,
                    work: 80,
                });
                segs.push(Segment::Barrier(bar.next()));
                // Inter-molecular: each own molecule interacts with the
                // following n/2 molecules (SPLASH-2's half-pairs rule).
                for m in 0..per_proc {
                    let start = (p * per_proc + m + 1) % self.molecules;
                    let half = self.molecules / 2;
                    // Read the window [start, start+half) with wraparound.
                    let first = (self.molecules - start).min(half);
                    segs.push(Segment::Walk {
                        base: mols + start as u64 * MOL_BYTES,
                        bytes: first as u64 * MOL_BYTES,
                        stride: 16,
                        rows: 1,
                        pitch: 0,
                        access: Access::Read,
                        work: 40,
                    });
                    if first < half {
                        segs.push(Segment::Walk {
                            base: mols,
                            bytes: (half - first) as u64 * MOL_BYTES,
                            stride: 16,
                            rows: 1,
                            pitch: 0,
                            access: Access::Read,
                            work: 40,
                        });
                    }
                    // Lock-protected accumulation into a few partners.
                    for k in 0..2u64 {
                        let target = (start as u64 + k * 7) % self.molecules as u64;
                        segs.push(Segment::Lock((target % 32) as u32));
                        segs.push(Segment::Touch {
                            addr: mols + target * MOL_BYTES,
                            access: Access::ReadWrite,
                        });
                        segs.push(Segment::Unlock((target % 32) as u32));
                    }
                }
                segs.push(Segment::Barrier(bar.next()));
                // Kinetic-energy / position update: own molecules.
                segs.push(Segment::Walk {
                    base: my_base(p),
                    bytes: my_bytes,
                    stride: 8,
                    rows: 1,
                    pitch: 0,
                    access: Access::ReadWrite,
                    work: 50,
                });
                segs.push(Segment::Barrier(bar.next()));
                let _ = ts;
            }
            programs.push(segs);
        }
        AppBuild {
            programs,
            placements: space.into_placements(),
        }
    }
}

/// Spatial-decomposition water simulation.
#[derive(Debug, Clone, Copy)]
pub struct WaterSpatial {
    /// Number of molecules (paper: 512).
    pub molecules: usize,
    /// Timesteps.
    pub timesteps: u32,
}

impl WaterSpatial {
    /// The paper's configuration: 512 molecules in a 3D cell grid.
    pub fn paper() -> Self {
        WaterSpatial {
            molecules: 512,
            timesteps: 2,
        }
    }

    /// Scaled-down configuration for fast reproduction runs.
    pub fn scaled() -> Self {
        WaterSpatial {
            molecules: 216,
            timesteps: 2,
        }
    }

    /// Tiny configuration for tests.
    pub fn tiny() -> Self {
        WaterSpatial {
            molecules: 64,
            timesteps: 1,
        }
    }
}

impl Application for WaterSpatial {
    fn name(&self) -> String {
        "Water-Sp".to_string()
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        let nprocs = shape.nprocs();
        assert!(
            self.molecules >= nprocs,
            "need at least one molecule per processor"
        );
        let per_proc = self.molecules / nprocs;
        let (pr, pc) = proc_grid(nprocs);
        let mut space = AddressSpace::new(shape.page_bytes);
        // Each processor's cells (and their molecules) live contiguously.
        let chunks: Vec<u64> = (0..nprocs)
            .map(|_| space.alloc(per_proc as u64 * MOL_BYTES))
            .collect();
        let chunk_bytes = per_proc as u64 * MOL_BYTES;

        let mut programs = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let (ti, tj) = (p / pc, p % pc);
            // 8-neighbour stencil on the processor grid (torus).
            let mut neighbors = Vec::new();
            for di in -1i64..=1 {
                for dj in -1i64..=1 {
                    if di == 0 && dj == 0 {
                        continue;
                    }
                    let ni = (ti as i64 + di).rem_euclid(pr as i64) as usize;
                    let nj = (tj as i64 + dj).rem_euclid(pc as i64) as usize;
                    let q = ni * pc + nj;
                    if q != p && !neighbors.contains(&q) {
                        neighbors.push(q);
                    }
                }
            }

            let mut bar = BarrierIds::default();
            let mut segs: Vec<Segment> = Vec::new();
            segs.push(Segment::Walk {
                base: chunks[p],
                bytes: chunk_bytes,
                stride: 8,
                rows: 1,
                pitch: 0,
                access: Access::Write,
                work: 0,
            });
            segs.push(Segment::Barrier(bar.next()));
            segs.push(Segment::StartMeasurement);

            for _ts in 0..self.timesteps {
                // Intra-molecular forces.
                segs.push(Segment::Walk {
                    base: chunks[p],
                    bytes: chunk_bytes,
                    stride: 8,
                    rows: 1,
                    pitch: 0,
                    access: Access::ReadWrite,
                    work: 90,
                });
                segs.push(Segment::Barrier(bar.next()));
                // Own-cell pair interactions (compute-heavy, local).
                segs.push(Segment::Walk {
                    base: chunks[p],
                    bytes: chunk_bytes,
                    stride: 8,
                    rows: 1,
                    pitch: 0,
                    access: Access::Read,
                    work: 120,
                });
                // Boundary interactions: read ~1/4 of each neighbour's
                // molecules (the surface cells).
                for &q in &neighbors {
                    segs.push(Segment::Walk {
                        base: chunks[q],
                        bytes: chunk_bytes / 4,
                        stride: 16,
                        rows: 1,
                        pitch: 0,
                        access: Access::Read,
                        work: 90,
                    });
                }
                segs.push(Segment::Barrier(bar.next()));
                // Update phase.
                segs.push(Segment::Walk {
                    base: chunks[p],
                    bytes: chunk_bytes,
                    stride: 8,
                    rows: 1,
                    pitch: 0,
                    access: Access::ReadWrite,
                    work: 30,
                });
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
    fn nsq_reads_all_molecules() {
        let build = WaterNsq::tiny().build(&shape());
        let (instr, refs) = static_op_counts(&build.programs[0]);
        assert!(instr > refs, "Water-Nsq is compute-heavy");
    }

    #[test]
    fn nsq_uses_locks() {
        let build = WaterNsq::tiny().build(&shape());
        assert!(build.programs[0]
            .iter()
            .any(|s| matches!(s, Segment::Lock(_))));
    }

    #[test]
    fn spatial_touches_fewer_remote_bytes_than_nsq() {
        let shape = shape();
        let nsq = WaterNsq::tiny().build(&shape);
        let sp = WaterSpatial::tiny().build(&shape);
        let read_bytes = |segs: &Vec<Segment>| -> u64 {
            segs.iter()
                .map(|s| match s {
                    Segment::Walk {
                        bytes,
                        access: Access::Read,
                        ..
                    } => *bytes,
                    _ => 0,
                })
                .sum()
        };
        assert!(read_bytes(&sp.programs[0]) < read_bytes(&nsq.programs[0]));
    }

    #[test]
    fn spatial_neighbors_bounded() {
        let build = WaterSpatial::paper().build(&shape());
        // every program is valid and non-empty
        for p in &build.programs {
            assert!(p.len() > 4);
        }
    }
}
