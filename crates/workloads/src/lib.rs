//! SPLASH-2-like workloads as memory-reference programs.
//!
//! The paper drives its simulations with eight SPLASH-2 applications under
//! the Augmint execution-driven simulator. This crate substitutes
//! *memory-reference-level kernel models*: each application is
//! re-implemented as a per-processor program that emits the same shared-data
//! access pattern as the original code — the same arrays, sizes and page
//! placement, the same phase/barrier structure, element-level touches in
//! the same order, and `Compute` operations carrying the arithmetic between
//! touches (1 instruction per cycle). See DESIGN.md §3 for why this
//! preserves what the study measures.
//!
//! * [`Op`] / [`Segment`] / [`SegmentProgram`] — the program representation
//!   consumed by the simulated processors.
//! * [`space::AddressSpace`] — shared-region allocation with page-placement
//!   hints.
//! * [`apps`] — the eight kernels (LU, Cholesky, Water-Nsq, Water-Spatial,
//!   Barnes, FFT, Radix, Ocean).
//! * [`micro`] — synthetic micro-workloads for calibration and protocol
//!   torture tests.
//! * [`suite`] — named problem-size presets (Table 5 sizes and scaled-down
//!   defaults).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apps;
pub mod micro;
pub mod segment;
pub mod space;
pub mod suite;

pub use segment::{Access, Op, Segment, SegmentProgram};
pub use space::AddressSpace;

/// The machine dimensions a workload needs to lay itself out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineShape {
    /// Number of SMP nodes.
    pub nodes: usize,
    /// Compute processors per node.
    pub procs_per_node: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Cache-line size in bytes.
    pub line_bytes: u64,
}

impl MachineShape {
    /// Total processors in the machine.
    pub fn nprocs(&self) -> usize {
        self.nodes * self.procs_per_node
    }

    /// The node a processor belongs to.
    pub fn node_of(&self, proc_index: usize) -> usize {
        proc_index / self.procs_per_node
    }
}

/// A built workload: one program per processor plus page-placement hints.
#[derive(Debug, Clone)]
pub struct AppBuild {
    /// One segment program per processor, indexed by processor id.
    pub programs: Vec<Vec<Segment>>,
    /// Explicit page placements `(page_index, node_index)`; pages not
    /// listed fall back to round-robin.
    pub placements: Vec<(u64, u16)>,
}

/// The cache lines a built workload can touch, from one walk over its
/// programs: see [`AppBuild::footprint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footprint {
    /// Lines in the union of every program's address ranges.
    pub lines: usize,
    /// Lines in each program's own ranges, indexed by processor id.
    pub per_program: Vec<usize>,
}

impl AppBuild {
    /// Upper bounds on the distinct cache lines the built programs can
    /// touch, counted in `line_bytes` lines: for the whole workload, the
    /// union of every segment's address ranges (one per walk row), and
    /// for each processor, the ranges of its own program. Machines
    /// pre-size their functional state tables (memory images, version
    /// stamps) with the first and each processor's caches with the
    /// second, so that steady-state execution never grows them.
    pub fn footprint(&self, line_bytes: u64) -> Footprint {
        // Each program's ranges are merged on their own first, so the
        // scratch buffer holds one program's ranges at a time and only
        // the (few) merged intervals accumulate across programs.
        let mut scratch: Vec<(u64, u64)> = Vec::new();
        let mut union: Vec<(u64, u64)> = Vec::new();
        let mut per_program = Vec::with_capacity(self.programs.len());
        for prog in &self.programs {
            scratch.clear();
            for seg in prog {
                let (base, bytes, rows, pitch) = match *seg {
                    Segment::Walk {
                        base,
                        bytes,
                        rows,
                        pitch,
                        ..
                    } => (base, bytes, rows, pitch),
                    Segment::RandomWalk { base, bytes, .. } => (base, bytes, 1, 0),
                    Segment::Touch { addr, .. } => (addr, 1, 1, 0),
                    _ => continue,
                };
                let bytes = bytes.max(1);
                scratch.extend((0..rows as u64).map(|r| {
                    let row = base + r * pitch;
                    (row / line_bytes, (row + bytes - 1) / line_bytes + 1)
                }));
            }
            merge_ranges(&mut scratch);
            per_program.push(range_lines(&scratch));
            union.extend_from_slice(&scratch);
        }
        merge_ranges(&mut union);
        Footprint {
            lines: range_lines(&union),
            per_program,
        }
    }

    /// The union line count of [`footprint`](AppBuild::footprint).
    pub fn footprint_lines(&self, line_bytes: u64) -> usize {
        self.footprint(line_bytes).lines
    }
}

/// Lines covered by disjoint half-open line ranges.
fn range_lines(ranges: &[(u64, u64)]) -> usize {
    ranges.iter().map(|(start, end)| end - start).sum::<u64>() as usize
}

/// Sorts half-open `[start, end)` ranges and coalesces overlapping or
/// adjacent ones in place, leaving disjoint ranges in ascending order.
fn merge_ranges(ranges: &mut Vec<(u64, u64)>) {
    ranges.sort_unstable();
    let mut merged = 0;
    for i in 0..ranges.len() {
        let (start, end) = ranges[i];
        if merged > 0 && start <= ranges[merged - 1].1 {
            ranges[merged - 1].1 = ranges[merged - 1].1.max(end);
        } else {
            ranges[merged] = (start, end);
            merged += 1;
        }
    }
    ranges.truncate(merged);
}

/// An application that can be instantiated on a machine shape.
pub trait Application {
    /// Display name (as used in the paper's tables, e.g. "Ocean-258").
    fn name(&self) -> String;
    /// Builds the per-processor programs for `shape`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the shape cannot run the problem size
    /// (e.g. more processors than rows to distribute).
    fn build(&self, shape: &MachineShape) -> AppBuild;
}
