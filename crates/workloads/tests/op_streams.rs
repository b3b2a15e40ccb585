//! Pins every processor's expanded op stream for the suite's grid and
//! transpose kernels. Each case folds each processor's `next_op` stream
//! into a digest, so any change to how programs are described or
//! expanded that moves a single address, compute burst or barrier fails
//! here, before it can move a simulated statistic.

use std::hash::Hasher;

use ccn_sim::hash::FxHasher;
use ccn_workloads::suite::{Scale, SuiteApp};
use ccn_workloads::{MachineShape, Op, SegmentProgram};

/// Total op count and a digest over every processor's op stream, in
/// processor order.
fn stream_digest(app: SuiteApp, scale: Scale, nodes: usize) -> (u64, u64) {
    let shape = MachineShape {
        nodes,
        procs_per_node: 4,
        page_bytes: 4096,
        line_bytes: 64,
    };
    let build = app.instantiate(scale).build(&shape);
    let mut ops = 0u64;
    let mut all = FxHasher::default();
    for program in build.programs {
        let mut proc = FxHasher::default();
        let mut stream = SegmentProgram::new(program);
        while let Some(op) = stream.next_op() {
            let (tag, value) = match op {
                Op::Read(a) => (0, a),
                Op::Write(a) => (1, a),
                Op::Compute(c) => (2, u64::from(c)),
                Op::Barrier(id) => (3, u64::from(id)),
                Op::Lock(id) => (4, u64::from(id)),
                Op::Unlock(id) => (5, u64::from(id)),
                Op::StartMeasurement => (6, 0),
            };
            proc.write_u64(tag);
            proc.write_u64(value);
            ops += 1;
        }
        all.write_u64(proc.finish());
    }
    (ops, all.finish())
}

#[test]
fn grid_and_transpose_streams_are_pinned() {
    // FFT needs √points to be a multiple of the processor count, so
    // FFT-1K has no case and FFT-4K and FFT-16K run on 16×4 only.
    use Scale::{Scaled, Tiny};
    use SuiteApp::{FftBase, FftLarge, OceanBase, OceanLarge};
    let cases = [
        (OceanBase, Tiny, 16, 28_928, 0xc3b9_0e3f_49ce_473e),
        (OceanBase, Tiny, 64, 35_840, 0xd289_0374_7819_7e98),
        (OceanBase, Scaled, 16, 3_114_112, 0xc42b_adcd_b2c5_e835),
        (OceanBase, Scaled, 64, 3_936_768, 0x8e94_bd0e_0fec_e7a2),
        (OceanLarge, Tiny, 16, 86_272, 0x497e_7fd0_9c6a_dee9),
        (OceanLarge, Tiny, 64, 115_712, 0x1f57_c5a8_13d8_c8e4),
        (OceanLarge, Scaled, 16, 10_617_984, 0x6c19_fd08_8e47_906e),
        (OceanLarge, Scaled, 64, 12_456_448, 0xd299_dee5_26a7_fef5),
        (FftBase, Scaled, 16, 623_040, 0x827c_1f46_2d53_9c21),
        (FftLarge, Tiny, 16, 156_096, 0xa960_3805_c1d4_34b5),
        (FftLarge, Scaled, 16, 2_490_816, 0x245a_b5d7_b54a_65e5),
        (FftLarge, Scaled, 64, 2_492_160, 0xa6cd_e54c_8d13_8471),
    ];
    for (app, scale, nodes, ops, digest) in cases {
        assert_eq!(
            stream_digest(app, scale, nodes),
            (ops, digest),
            "{app:?} at {scale:?} on {nodes}x4"
        );
    }
}
