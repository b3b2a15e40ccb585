//! FFT: six-step √n×√n complex-double FFT (SPLASH-2 kernel).
//!
//! The n complex points are viewed as a √n×√n row-major matrix; each
//! processor owns a contiguous band of rows in both the data and scratch
//! matrices. The paper uses the *optimized* version with programmer
//! placement hints, so each processor's bands are placed on its own node.
//! The all-to-all transposes between the 1D-FFT phases are the
//! communication — bursty, high-bandwidth, read-mostly — which gives FFT
//! its mid-to-high RCCPI and the paper's 45 % base PP penalty.

use crate::apps::BarrierIds;
use crate::segment::{Access, Segment};
use crate::space::AddressSpace;
use crate::{AppBuild, Application, MachineShape};

/// Six-step FFT on `points` complex doubles.
#[derive(Debug, Clone, Copy)]
pub struct Fft {
    /// Number of complex-double points (must be a power of four so the
    /// matrix is square; paper: 64 K base, 256 K large).
    pub points: usize,
}

const COMPLEX_BYTES: u64 = 16;

impl Fft {
    /// The paper's base data set: 64 K complex doubles.
    pub fn paper_base() -> Self {
        Fft { points: 64 * 1024 }
    }

    /// The paper's large data set: 256 K complex doubles.
    pub fn paper_large() -> Self {
        Fft { points: 256 * 1024 }
    }

    /// Scaled-down configuration for fast reproduction runs.
    pub fn scaled() -> Self {
        Fft { points: 16 * 1024 }
    }

    /// Tiny configuration for tests.
    pub fn tiny() -> Self {
        Fft { points: 1024 }
    }

    fn side(&self) -> usize {
        let side = (self.points as f64).sqrt() as usize;
        assert_eq!(side * side, self.points, "point count must be a square");
        side
    }
}

impl Application for Fft {
    fn name(&self) -> String {
        format!("FFT-{}K", self.points / 1024)
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        let n1 = self.side();
        let nprocs = shape.nprocs();
        assert!(
            n1.is_multiple_of(nprocs),
            "√points ({n1}) must be divisible by the processor count ({nprocs})"
        );
        let rows_per_proc = n1 / nprocs;
        let row_bytes = n1 as u64 * COMPLEX_BYTES;
        let chunk_bytes = rows_per_proc as u64 * row_bytes;

        let mut space = AddressSpace::new(shape.page_bytes);
        // Programmer placement hints: each processor's bands on its node.
        let a_chunks: Vec<u64> = (0..nprocs)
            .map(|p| space.alloc_at(chunk_bytes, shape.node_of(p) as u16))
            .collect();
        let b_chunks: Vec<u64> = (0..nprocs)
            .map(|p| space.alloc_at(chunk_bytes, shape.node_of(p) as u16))
            .collect();

        // ~5·log2(n1) flops per point for each 1D FFT pass.
        let fft_work = (5 * n1.ilog2()).min(u16::MAX as u32) as u16;

        let mut programs = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let mut bar = BarrierIds::default();
            let mut segs: Vec<Segment> = Vec::new();
            // Initialization: write own band of A.
            segs.push(Segment::Walk {
                base: a_chunks[p],
                bytes: chunk_bytes,
                stride: 8,
                rows: 1,
                pitch: 0,
                access: Access::Write,
                work: 0,
            });
            segs.push(Segment::Barrier(bar.next()));
            segs.push(Segment::StartMeasurement);

            let transpose = |segs: &mut Vec<Segment>, src: &[u64], dst_chunk: u64, p: usize| {
                // Read own column band from every source processor's
                // rows (staggered to avoid hammering one node), write
                // into the local scratch band.
                for step in 0..nprocs {
                    let q = (p + step) % nprocs;
                    segs.push(Segment::Walk {
                        base: src[q] + p as u64 * rows_per_proc as u64 * COMPLEX_BYTES,
                        bytes: rows_per_proc as u64 * COMPLEX_BYTES,
                        stride: 8,
                        rows: rows_per_proc as u32,
                        pitch: row_bytes,
                        access: Access::Read,
                        work: 1,
                    });
                    // Scatter the block into the local band.
                    segs.push(Segment::Walk {
                        base: dst_chunk + q as u64 * rows_per_proc as u64 * COMPLEX_BYTES,
                        bytes: rows_per_proc as u64 * rows_per_proc as u64 * COMPLEX_BYTES,
                        stride: 8,
                        rows: 1,
                        pitch: 0,
                        access: Access::Write,
                        work: 1,
                    });
                }
            };

            // Step 1: transpose A -> B.
            transpose(&mut segs, &a_chunks, b_chunks[p], p);
            segs.push(Segment::Barrier(bar.next()));
            // Step 2: 1D FFTs on own rows of B.
            segs.push(Segment::Walk {
                base: b_chunks[p],
                bytes: chunk_bytes,
                stride: 8,
                rows: 1,
                pitch: 0,
                access: Access::ReadWrite,
                work: fft_work,
            });
            segs.push(Segment::Barrier(bar.next()));
            // Step 3: transpose B -> A (twiddle + transpose in SPLASH-2).
            transpose(&mut segs, &b_chunks, a_chunks[p], p);
            segs.push(Segment::Barrier(bar.next()));
            // Step 4: 1D FFTs on own rows of A.
            segs.push(Segment::Walk {
                base: a_chunks[p],
                bytes: chunk_bytes,
                stride: 8,
                rows: 1,
                pitch: 0,
                access: Access::ReadWrite,
                work: fft_work,
            });
            segs.push(Segment::Barrier(bar.next()));
            // Step 5: final transpose A -> B.
            transpose(&mut segs, &a_chunks, b_chunks[p], p);
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

    fn shape() -> MachineShape {
        MachineShape {
            nodes: 4,
            procs_per_node: 2,
            page_bytes: 4096,
            line_bytes: 128,
        }
    }

    #[test]
    fn paper_sizes() {
        assert_eq!(Fft::paper_base().side(), 256);
        assert_eq!(Fft::paper_large().side(), 512);
    }

    #[test]
    fn placement_covers_both_matrices() {
        let build = Fft::tiny().build(&shape());
        // 2 matrices x 8 per-proc chunks, each 2 KB rounded up to a page.
        assert_eq!(build.placements.len(), 16);
    }

    #[test]
    fn every_proc_reads_every_other_proc() {
        let build = Fft::tiny().build(&shape());
        let nprocs = 8;
        // In the first transpose, proc 0 must read from all 8 A-chunks.
        let mut chunks_seen = std::collections::HashSet::new();
        for seg in &build.programs[0] {
            if let Segment::Walk {
                base,
                access: Access::Read,
                ..
            } = seg
            {
                chunks_seen.insert(base / 4096 / 2); // 2 pages per tiny chunk
            }
        }
        assert!(chunks_seen.len() >= nprocs);
    }

    #[test]
    #[should_panic(expected = "divisible by the processor count")]
    fn rejects_indivisible_rows() {
        let shape = MachineShape {
            nodes: 3,
            procs_per_node: 1,
            page_bytes: 4096,
            line_bytes: 128,
        };
        let _ = Fft::tiny().build(&shape); // 32 rows / 3 procs
    }
}
