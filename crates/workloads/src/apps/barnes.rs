//! Barnes: hierarchical N-body simulation (SPLASH-2 Barnes-Hut).
//!
//! Each timestep builds an octree from the bodies (lock-protected scattered
//! cell updates), computes forces by traversing the tree (read-mostly
//! scattered accesses over the shared cell array), and updates the bodies
//! (local). Tree cells are read by every processor, so the first traversal
//! of a timestep communicates and later accesses mostly hit — Barnes sits
//! at the low-middle of the suite's communication range (paper PP penalty
//! ≈ 10–15 %).

use crate::apps::BarrierIds;
use crate::segment::{Access, Segment};
use crate::space::AddressSpace;
use crate::{AppBuild, Application, MachineShape};

/// Barnes-Hut N-body timesteps.
#[derive(Debug, Clone, Copy)]
pub struct Barnes {
    /// Number of bodies (paper: 8 K).
    pub bodies: usize,
    /// Timesteps (SPLASH-2 default measures a few).
    pub timesteps: u32,
    /// Tree-node visits per body during force computation (θ-dependent;
    /// ~60 for the SPLASH-2 default θ).
    pub visits_per_body: u32,
}

const BODY_BYTES: u64 = 128; // mass, position, velocity, acceleration
const CELL_BYTES: u64 = 128;

impl Barnes {
    /// The paper's configuration: 8 K particles.
    pub fn paper() -> Self {
        Barnes {
            bodies: 8 * 1024,
            timesteps: 2,
            visits_per_body: 60,
        }
    }

    /// Scaled-down configuration for fast reproduction runs.
    pub fn scaled() -> Self {
        Barnes {
            bodies: 2048,
            timesteps: 2,
            visits_per_body: 60,
        }
    }

    /// Tiny configuration for tests.
    pub fn tiny() -> Self {
        Barnes {
            bodies: 256,
            timesteps: 1,
            visits_per_body: 20,
        }
    }
}

impl Application for Barnes {
    fn name(&self) -> String {
        "Barnes".to_string()
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        let nprocs = shape.nprocs();
        assert!(
            self.bodies.is_multiple_of(nprocs),
            "body count must be divisible by the processor count"
        );
        let bodies_per_proc = self.bodies / nprocs;
        let cells = (self.bodies * 2) as u64;

        let mut space = AddressSpace::new(shape.page_bytes);
        let bodies = space.alloc(self.bodies as u64 * BODY_BYTES);
        let tree = space.alloc(cells * CELL_BYTES);
        let my_slice = |p: usize| bodies + (p * bodies_per_proc) as u64 * BODY_BYTES;
        let slice_bytes = bodies_per_proc as u64 * BODY_BYTES;

        let mut programs = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let mut bar = BarrierIds::default();
            let mut segs: Vec<Segment> = Vec::new();
            // Initialization: write own bodies.
            segs.push(Segment::Walk {
                base: my_slice(p),
                bytes: slice_bytes,
                stride: 8,
                rows: 1,
                pitch: 0,
                access: Access::Write,
                work: 0,
            });
            segs.push(Segment::Barrier(bar.next()));
            segs.push(Segment::StartMeasurement);

            for ts in 0..self.timesteps {
                // Tree build: insert own bodies, lock-protected in groups
                // (SPLASH-2 hashes cells to a lock array).
                let groups = 16u32;
                for grp in 0..groups {
                    segs.push(Segment::Lock(grp % 32));
                    segs.push(Segment::RandomWalk {
                        base: tree,
                        bytes: cells * CELL_BYTES,
                        count: (bodies_per_proc as u32) / groups,
                        stride: 8,
                        access: Access::ReadWrite,
                        work: 60,
                        seed: 0xBA12 ^ ((p as u64) << 8) ^ ((ts as u64) << 20) ^ grp as u64,
                    });
                    segs.push(Segment::Unlock(grp % 32));
                }
                segs.push(Segment::Barrier(bar.next()));
                // Force computation: read own bodies, traverse the tree.
                segs.push(Segment::Walk {
                    base: my_slice(p),
                    bytes: slice_bytes,
                    stride: 8,
                    rows: 1,
                    pitch: 0,
                    access: Access::Read,
                    work: 2,
                });
                // Tree traversals revisit the top of the tree constantly
                // and descend into a body-specific subtree: ~7/8 of the
                // visits hit the hot upper levels, the rest spread over
                // the whole cell array.
                let hot_bytes = (cells * CELL_BYTES / 16).max(CELL_BYTES);
                let visits = bodies_per_proc as u32 * self.visits_per_body;
                segs.push(Segment::RandomWalk {
                    base: tree,
                    bytes: hot_bytes,
                    count: visits - visits / 16,
                    stride: 8,
                    access: Access::Read,
                    work: 320,
                    seed: 0xF0 ^ ((p as u64) << 8) ^ ((ts as u64) << 20),
                });
                segs.push(Segment::RandomWalk {
                    base: tree,
                    bytes: cells * CELL_BYTES,
                    count: visits / 16,
                    stride: 8,
                    access: Access::Read,
                    work: 320,
                    seed: 0xF1 ^ ((p as u64) << 8) ^ ((ts as u64) << 20),
                });
                segs.push(Segment::Barrier(bar.next()));
                // Position/velocity update: local read-modify-write.
                segs.push(Segment::Walk {
                    base: my_slice(p),
                    bytes: slice_bytes,
                    stride: 8,
                    rows: 1,
                    pitch: 0,
                    access: Access::ReadWrite,
                    work: 20,
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

    fn shape() -> MachineShape {
        MachineShape {
            nodes: 4,
            procs_per_node: 2,
            page_bytes: 4096,
            line_bytes: 128,
        }
    }

    #[test]
    fn uses_locks_in_tree_build() {
        let build = Barnes::tiny().build(&shape());
        let locks = build.programs[3]
            .iter()
            .filter(|s| matches!(s, Segment::Lock(_)))
            .count();
        let unlocks = build.programs[3]
            .iter()
            .filter(|s| matches!(s, Segment::Unlock(_)))
            .count();
        assert_eq!(locks, unlocks);
        assert!(locks > 0);
    }

    #[test]
    fn force_phase_reads_shared_tree() {
        let build = Barnes::tiny().build(&shape());
        let tree_reads = build.programs[0].iter().any(|s| {
            matches!(
                s,
                Segment::RandomWalk {
                    access: Access::Read,
                    ..
                }
            )
        });
        assert!(tree_reads);
    }

    #[test]
    fn deterministic_build() {
        let a = Barnes::tiny().build(&shape());
        let b = Barnes::tiny().build(&shape());
        assert_eq!(a.programs, b.programs);
    }
}
