//! Cholesky: blocked sparse Cholesky factorization (SPLASH-2 kernel).
//!
//! The original runs on the `tk15.O` sparse matrix, which is not available;
//! we substitute a deterministic synthetic supernodal elimination workload
//! (DESIGN.md §3): a pool of tasks with heavy-tailed sizes is drained
//! through a lock-protected task queue. Each task reads a source supernode
//! (often remote) and updates scattered target columns. The heavy-tailed
//! task sizes produce the *high load imbalance* the paper calls out for
//! Cholesky — which inflates execution time under both HWC and PPC and
//! therefore *lowers* its PP penalty relative to its RCCPI.

use crate::apps::BarrierIds;
use crate::segment::{Access, Segment};
use crate::space::AddressSpace;
use crate::{AppBuild, Application, MachineShape};
use ccn_sim::SplitMix64;

/// Synthetic sparse-Cholesky elimination.
#[derive(Debug, Clone, Copy)]
pub struct Cholesky {
    /// Number of supernode panels in the matrix.
    pub supernodes: usize,
    /// Bytes per (smallest) supernode panel.
    pub panel_bytes: u64,
    /// Elimination tasks per processor (before imbalance).
    pub tasks_per_proc: usize,
    /// RNG seed for the synthetic elimination structure.
    pub seed: u64,
}

impl Cholesky {
    /// Configuration standing in for the paper's tk15.O run.
    pub fn paper() -> Self {
        Cholesky {
            supernodes: 256,
            panel_bytes: 16 * 1024,
            tasks_per_proc: 24,
            seed: 0xC0DE,
        }
    }

    /// Scaled-down configuration for fast reproduction runs.
    pub fn scaled() -> Self {
        Cholesky {
            supernodes: 128,
            panel_bytes: 8 * 1024,
            tasks_per_proc: 12,
            seed: 0xC0DE,
        }
    }

    /// Tiny configuration for tests.
    pub fn tiny() -> Self {
        Cholesky {
            supernodes: 32,
            panel_bytes: 2 * 1024,
            tasks_per_proc: 4,
            seed: 0xC0DE,
        }
    }
}

impl Application for Cholesky {
    fn name(&self) -> String {
        "Cholesky".to_string()
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        let nprocs = shape.nprocs();
        let mut space = AddressSpace::new(shape.page_bytes);
        let panels = space.alloc(self.supernodes as u64 * self.panel_bytes);
        let panel = |i: u64| panels + i * self.panel_bytes;

        // Generate the global task list deterministically, then deal tasks
        // round-robin. Task sizes are heavy-tailed (multipliers 1..16), so
        // the per-processor *work* sums are imbalanced even though the
        // task *counts* are equal — mirroring the elimination-tree
        // imbalance of the real tk15.O run.
        let total_tasks = self.tasks_per_proc * nprocs;
        let mut rng = SplitMix64::new(self.seed);
        struct Task {
            src: u64,
            dst: u64,
            multiplier: u64,
        }
        let tasks: Vec<Task> = (0..total_tasks)
            .map(|_| {
                let tail = rng.next_below(16);
                // Heavy tail: 1,1,1,1,2,2,4,…,16.
                let multiplier = match tail {
                    0..=7 => 1,
                    8..=11 => 2,
                    12..=13 => 4,
                    14 => 8,
                    _ => 16,
                };
                Task {
                    src: rng.next_below(self.supernodes as u64),
                    dst: rng.next_below(self.supernodes as u64),
                    multiplier,
                }
            })
            .collect();

        let mut programs = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let mut bar = BarrierIds::default();
            let mut segs: Vec<Segment> = Vec::new();
            // Initialization: touch a private slice of panels.
            let init_lo = (self.supernodes * p / nprocs) as u64;
            let init_hi = (self.supernodes * (p + 1) / nprocs) as u64;
            for i in init_lo..init_hi {
                segs.push(Segment::Walk {
                    base: panel(i),
                    bytes: self.panel_bytes,
                    stride: 8,
                    rows: 1,
                    pitch: 0,
                    access: Access::Write,
                    work: 0,
                });
            }
            segs.push(Segment::Barrier(bar.next()));
            segs.push(Segment::StartMeasurement);

            for (t, task) in tasks.iter().enumerate() {
                if t % nprocs != p {
                    continue;
                }
                // Task-queue pop: lock-protected.
                segs.push(Segment::Lock(0));
                segs.push(Segment::Compute(40));
                segs.push(Segment::Unlock(0));
                // Read the source supernode…
                for rep in 0..task.multiplier {
                    let src = panel((task.src + rep) % self.supernodes as u64);
                    segs.push(Segment::Walk {
                        base: src,
                        bytes: self.panel_bytes,
                        stride: 8,
                        rows: 1,
                        pitch: 0,
                        access: Access::Read,
                        work: 50,
                    });
                    // …and update the destination panel.
                    let dst = panel((task.dst + rep) % self.supernodes as u64);
                    segs.push(Segment::Walk {
                        base: dst,
                        bytes: self.panel_bytes,
                        stride: 8,
                        rows: 1,
                        pitch: 0,
                        access: Access::ReadWrite,
                        work: 100,
                    });
                }
            }
            segs.push(Segment::Barrier(bar.next()));
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
    fn work_is_imbalanced() {
        let build = Cholesky::paper().build(&shape());
        let work: Vec<u64> = build
            .programs
            .iter()
            .map(|p| static_op_counts(p).0)
            .collect();
        let min = *work.iter().min().unwrap();
        let max = *work.iter().max().unwrap();
        assert!(
            max as f64 > min as f64 * 1.3,
            "expected load imbalance, got min={min} max={max}"
        );
    }

    #[test]
    fn every_task_pops_the_queue_lock() {
        let build = Cholesky::tiny().build(&shape());
        for p in &build.programs {
            let locks = p.iter().filter(|s| matches!(s, Segment::Lock(0))).count();
            assert_eq!(locks, Cholesky::tiny().tasks_per_proc);
        }
    }

    #[test]
    fn deterministic() {
        let a = Cholesky::tiny().build(&shape());
        let b = Cholesky::tiny().build(&shape());
        assert_eq!(a.programs, b.programs);
    }
}
