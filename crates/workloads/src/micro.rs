//! Synthetic micro-workloads.
//!
//! These are not in the paper; they exist to calibrate the simulator, to
//! exercise every protocol path in tests (including the torture/invariant
//! property tests), and to populate the RCCPI sweep in Figures 11/12 with
//! controlled communication rates.

use crate::segment::{Access, Segment};
use crate::space::AddressSpace;
use crate::{AppBuild, Application, MachineShape};

/// Every processor performs random reads/writes over one shared region:
/// a tunable-communication-rate kernel that exercises all handler paths.
#[derive(Debug, Clone, Copy)]
pub struct UniformSharing {
    /// Shared-region size in bytes.
    pub region_bytes: u64,
    /// Random touches per processor.
    pub touches_per_proc: u32,
    /// Fraction of touches that are writes, in percent (0–100; values
    /// above 100 are clamped to 100, i.e. all touches become writes).
    pub write_percent: u32,
    /// Compute cycles between touches.
    pub work: u16,
    /// RNG seed.
    pub seed: u64,
}

impl Default for UniformSharing {
    fn default() -> Self {
        UniformSharing {
            region_bytes: 256 * 1024,
            touches_per_proc: 20_000,
            write_percent: 30,
            work: 4,
            seed: 1,
        }
    }
}

impl Application for UniformSharing {
    fn name(&self) -> String {
        format!("uniform-w{}", self.write_percent.min(100))
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        let mut space = AddressSpace::new(shape.page_bytes);
        let region = space.alloc(self.region_bytes);
        let nprocs = shape.nprocs();
        // Clamp so an out-of-range percentage degrades to all-writes
        // instead of underflowing the read count.
        let write_percent = self.write_percent.min(100);
        let writes = (self.touches_per_proc as u64 * write_percent as u64 / 100) as u32;
        let reads = self.touches_per_proc - writes;
        let mut programs = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let seed = self.seed.wrapping_mul(0x9E37).wrapping_add(p as u64);
            // Interleave read and write passes so both kinds mix over time.
            let mut segments = vec![Segment::Barrier(0), Segment::StartMeasurement];
            let chunks = 8u32;
            for c in 0..chunks {
                segments.push(Segment::RandomWalk {
                    base: region,
                    bytes: self.region_bytes,
                    count: reads / chunks,
                    stride: 8,
                    access: Access::Read,
                    work: self.work,
                    seed: seed.wrapping_add(c as u64 * 77),
                });
                segments.push(Segment::RandomWalk {
                    base: region,
                    bytes: self.region_bytes,
                    count: writes / chunks,
                    stride: 8,
                    access: Access::Write,
                    work: self.work,
                    seed: seed.wrapping_add(c as u64 * 77 + 1),
                });
            }
            segments.push(Segment::Barrier(1));
            programs.push(segments);
        }
        AppBuild {
            programs,
            placements: space.into_placements(),
        }
    }
}

/// All processors hammer a handful of hot lines: saturates the hot lines'
/// home controller and exercises the busy-directory pending queues.
#[derive(Debug, Clone, Copy)]
pub struct HotSpot {
    /// Number of hot cache lines.
    pub hot_lines: u32,
    /// Touches per processor.
    pub touches_per_proc: u32,
    /// Compute cycles between touches.
    pub work: u16,
}

impl Default for HotSpot {
    fn default() -> Self {
        HotSpot {
            hot_lines: 4,
            touches_per_proc: 5_000,
            work: 8,
        }
    }
}

impl Application for HotSpot {
    fn name(&self) -> String {
        format!("hotspot-{}", self.hot_lines)
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        let mut space = AddressSpace::new(shape.page_bytes);
        let region_bytes = self.hot_lines as u64 * shape.line_bytes;
        let region = space.alloc(region_bytes);
        let nprocs = shape.nprocs();
        let mut programs = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            programs.push(vec![
                Segment::Barrier(0),
                Segment::StartMeasurement,
                Segment::RandomWalk {
                    base: region,
                    bytes: region_bytes,
                    count: self.touches_per_proc,
                    stride: shape.line_bytes as u32,
                    access: Access::ReadWrite,
                    work: self.work,
                    seed: 31 + p as u64,
                },
                Segment::Barrier(1),
            ]);
        }
        AppBuild {
            programs,
            placements: space.into_placements(),
        }
    }
}

/// One producer writes a buffer each phase; every consumer then reads it.
/// Exercises invalidation fan-out and read sharing.
#[derive(Debug, Clone, Copy)]
pub struct ProducerConsumer {
    /// Buffer size in bytes.
    pub buffer_bytes: u64,
    /// Number of produce/consume phases.
    pub phases: u32,
}

impl Default for ProducerConsumer {
    fn default() -> Self {
        ProducerConsumer {
            buffer_bytes: 16 * 1024,
            phases: 10,
        }
    }
}

impl Application for ProducerConsumer {
    fn name(&self) -> String {
        "producer-consumer".to_string()
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        let mut space = AddressSpace::new(shape.page_bytes);
        let buffer = space.alloc(self.buffer_bytes);
        let nprocs = shape.nprocs();
        let mut programs = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let mut segments = vec![Segment::Barrier(0), Segment::StartMeasurement];
            for phase in 0..self.phases {
                if p == 0 {
                    segments.push(Segment::Walk {
                        base: buffer,
                        bytes: self.buffer_bytes,
                        stride: 8,
                        rows: 1,
                        pitch: 0,
                        access: Access::Write,
                        work: 2,
                    });
                }
                segments.push(Segment::Barrier(1 + 2 * phase));
                if p != 0 {
                    segments.push(Segment::Walk {
                        base: buffer,
                        bytes: self.buffer_bytes,
                        stride: 8,
                        rows: 1,
                        pitch: 0,
                        access: Access::Read,
                        work: 2,
                    });
                }
                segments.push(Segment::Barrier(2 + 2 * phase));
            }
            programs.push(segments);
        }
        AppBuild {
            programs,
            placements: space.into_placements(),
        }
    }
}

/// Purely node-local work: the zero-communication baseline.
#[derive(Debug, Clone, Copy)]
pub struct PrivateCompute {
    /// Private working-set size in bytes per processor.
    pub bytes_per_proc: u64,
    /// Sweeps over the working set.
    pub sweeps: u32,
}

impl Default for PrivateCompute {
    fn default() -> Self {
        PrivateCompute {
            bytes_per_proc: 64 * 1024,
            sweeps: 20,
        }
    }
}

impl Application for PrivateCompute {
    fn name(&self) -> String {
        "private-compute".to_string()
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        let mut space = AddressSpace::new(shape.page_bytes);
        let nprocs = shape.nprocs();
        let mut programs = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let region = space.alloc_at(self.bytes_per_proc, shape.node_of(p) as u16);
            let mut segments = vec![Segment::Barrier(0), Segment::StartMeasurement];
            for _ in 0..self.sweeps {
                segments.push(Segment::Walk {
                    base: region,
                    bytes: self.bytes_per_proc,
                    stride: 8,
                    rows: 1,
                    pitch: 0,
                    access: Access::ReadWrite,
                    work: 4,
                });
            }
            segments.push(Segment::Barrier(1));
            programs.push(segments);
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
    fn builds_have_one_program_per_proc() {
        let shape = shape();
        for app in [
            Box::new(UniformSharing::default()) as Box<dyn Application>,
            Box::new(HotSpot::default()),
            Box::new(ProducerConsumer::default()),
            Box::new(PrivateCompute::default()),
        ] {
            let build = app.build(&shape);
            assert_eq!(build.programs.len(), 8, "{}", app.name());
            for p in &build.programs {
                assert!(!p.is_empty());
            }
        }
    }

    #[test]
    fn private_compute_places_locally() {
        let build = PrivateCompute::default().build(&shape());
        // 8 procs x 16 pages each, all pinned.
        assert_eq!(build.placements.len(), 8 * 16);
    }

    #[test]
    fn uniform_sharing_clamps_write_percent() {
        let over = UniformSharing {
            write_percent: 150,
            touches_per_proc: 100,
            ..UniformSharing::default()
        };
        assert_eq!(over.name(), "uniform-w100");
        let all_writes = UniformSharing {
            write_percent: 100,
            ..over
        };
        // 150% behaves exactly like 100%: every touch is a write, and
        // the read count never underflows.
        assert_eq!(
            over.build(&shape()).programs,
            all_writes.build(&shape()).programs
        );
        for prog in over.build(&shape()).programs {
            for seg in prog {
                if let Segment::RandomWalk { access, count, .. } = seg {
                    if access == Access::Read {
                        assert_eq!(count, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn uniform_sharing_is_deterministic() {
        let a = UniformSharing::default().build(&shape());
        let b = UniformSharing::default().build(&shape());
        assert_eq!(a.programs.len(), b.programs.len());
        for (x, y) in a.programs.iter().zip(&b.programs) {
            assert_eq!(x, y);
        }
    }
}
