//! Property tests for segment programs: the dynamic op stream must match
//! the static accounting, stay in bounds, and be deterministic — for every
//! application in the suite.
//!
//! Random segment lists are generated with the in-tree deterministic RNG,
//! so the suite is hermetic and every run replays the same cases.

use ccn_sim::SplitMix64;
use ccn_workloads::segment::static_op_counts;
use ccn_workloads::suite::{Scale, SuiteApp};
use ccn_workloads::{Access, AppBuild, MachineShape, Op, Segment, SegmentProgram};

fn random_segment(rng: &mut SplitMix64) -> Segment {
    match rng.next_below(4) {
        0 => Segment::Compute(rng.next_below(5_000)),
        1 => Segment::Walk {
            base: rng.next_below(1 << 20),
            bytes: 8 + rng.next_below(2040),
            stride: [8u32, 16, 128][rng.next_below(3) as usize],
            rows: 1,
            pitch: 0,
            access: Access::ReadWrite,
            work: rng.next_below(50) as u16,
        },
        2 => Segment::RandomWalk {
            base: rng.next_below(1 << 20),
            bytes: 64 + rng.next_below(4032),
            count: 1 + rng.next_below(199) as u32,
            stride: 8,
            access: Access::Read,
            work: 3,
            seed: rng.next_u64(),
        },
        _ => Segment::Touch {
            addr: rng.next_below(1 << 20),
            access: Access::Write,
        },
    }
}

/// Dynamic instruction/reference totals equal the static prediction
/// for arbitrary segment lists.
#[test]
fn dynamic_matches_static() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x5E9 + case);
        let n = 1 + rng.next_below(11) as usize;
        let segments: Vec<Segment> = (0..n).map(|_| random_segment(&mut rng)).collect();
        let (want_instr, want_refs) = static_op_counts(&segments);
        let mut program = SegmentProgram::new(segments);
        let mut instr = 0u64;
        let mut refs = 0u64;
        while let Some(op) = program.next_op() {
            match op {
                Op::Read(_) | Op::Write(_) => {
                    instr += 1;
                    refs += 1;
                }
                Op::Compute(c) => instr += c as u64,
                _ => {}
            }
        }
        assert_eq!(instr, want_instr, "case {case}");
        assert_eq!(refs, want_refs, "case {case}");
    }
}

fn drain(segments: Vec<Segment>) -> Vec<Op> {
    let mut program = SegmentProgram::new(segments);
    std::iter::from_fn(|| program.next_op()).collect()
}

/// A multi-row walk is exactly its rows written out as one-row walks:
/// the same op stream, the same static counts and the same footprint.
/// Cases cycle through no rows, one row, rows shorter than the stride,
/// overlapping rows (`pitch < bytes`), abutting rows (`pitch == bytes`)
/// and gapped rows, with other segments on either side.
#[test]
fn multi_row_walk_equals_its_rows() {
    for case in 0..192u64 {
        let mut rng = SplitMix64::new(0x7215 + case);
        let stride = [8u32, 16, 128][rng.next_below(3) as usize];
        let bytes = if case % 5 == 0 {
            rng.next_below(stride as u64)
        } else {
            8 + rng.next_below(1016)
        };
        let rows = match case % 6 {
            0 => 0,
            1 => 1,
            _ => 2 + rng.next_below(7) as u32,
        };
        let pitch = match case % 4 {
            0 => rng.next_below(bytes.max(1)),
            1 => bytes,
            2 => bytes + rng.next_below(4096),
            _ => 64 * (1 + rng.next_below(64)),
        };
        let base = rng.next_below(1 << 20);
        let access = [Access::Read, Access::Write, Access::ReadWrite][rng.next_below(3) as usize];
        let work = [0u16, 1, 36][rng.next_below(3) as usize];
        let walk = |base, rows, pitch| Segment::Walk {
            base,
            bytes,
            stride,
            rows,
            pitch,
            access,
            work,
        };
        let before = random_segment(&mut rng);
        let after = random_segment(&mut rng);

        let tile = vec![before, walk(base, rows, pitch), after];
        let mut split = vec![before];
        split.extend((0..rows as u64).map(|r| walk(base + r * pitch, 1, 0)));
        split.push(after);

        assert_eq!(
            static_op_counts(&tile),
            static_op_counts(&split),
            "case {case}"
        );
        let footprint = |segs: &Vec<Segment>, line_bytes| {
            AppBuild {
                programs: vec![segs.clone()],
                placements: Vec::new(),
            }
            .footprint_lines(line_bytes)
        };
        for line_bytes in [32, 64, 128] {
            assert_eq!(
                footprint(&tile, line_bytes),
                footprint(&split, line_bytes),
                "case {case}: {line_bytes} B lines"
            );
        }
        assert_eq!(drain(tile), drain(split), "case {case}");
    }
}

/// Random-walk addresses always stay inside their declared region.
#[test]
fn random_walk_in_bounds() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0xBA5E + case);
        let base = rng.next_below(1 << 30);
        let bytes = 64 + rng.next_below((1 << 16) - 64);
        let count = 1 + rng.next_below(499) as u32;
        let seed = rng.next_u64();
        let mut program = SegmentProgram::new(vec![Segment::RandomWalk {
            base,
            bytes,
            count,
            stride: 8,
            access: Access::Write,
            work: 0,
            seed,
        }]);
        while let Some(op) = program.next_op() {
            if let Op::Write(a) = op {
                assert!(
                    a >= base && a < base + bytes,
                    "case {case}: address {a} escapes region"
                );
            }
        }
    }
}

/// Every suite application's programs are deterministic and internally
/// consistent (same barrier sequence on every processor, non-empty).
#[test]
fn suite_programs_are_consistent() {
    let shape = MachineShape {
        nodes: 4,
        procs_per_node: 2,
        page_bytes: 4096,
        line_bytes: 128,
    };
    for app in SuiteApp::base_suite() {
        let a = app.instantiate(Scale::Tiny).build(&shape);
        let b = app.instantiate(Scale::Tiny).build(&shape);
        assert_eq!(
            a.programs, b.programs,
            "{app:?} must build deterministically"
        );
        let barrier_seq = |segs: &Vec<Segment>| -> Vec<u32> {
            segs.iter()
                .filter_map(|s| match s {
                    Segment::Barrier(id) => Some(*id),
                    _ => None,
                })
                .collect()
        };
        let first = barrier_seq(&a.programs[0]);
        for (i, p) in a.programs.iter().enumerate() {
            assert!(!p.is_empty(), "{app:?} proc {i} has an empty program");
            assert_eq!(barrier_seq(p), first, "{app:?} proc {i} barrier mismatch");
        }
        // Every program announces the measured phase exactly once.
        for p in &a.programs {
            let markers = p
                .iter()
                .filter(|s| matches!(s, Segment::StartMeasurement))
                .count();
            assert_eq!(markers, 1, "{app:?} must mark the parallel phase once");
        }
    }
}

/// Lock/unlock pairs balance in every suite program.
#[test]
fn suite_locks_balance() {
    let shape = MachineShape {
        nodes: 4,
        procs_per_node: 2,
        page_bytes: 4096,
        line_bytes: 128,
    };
    for app in SuiteApp::base_suite() {
        let build = app.instantiate(Scale::Tiny).build(&shape);
        for (i, p) in build.programs.iter().enumerate() {
            let mut held: std::collections::HashMap<u32, i64> = Default::default();
            for s in p {
                match s {
                    Segment::Lock(id) => *held.entry(*id).or_default() += 1,
                    Segment::Unlock(id) => {
                        let h = held.entry(*id).or_default();
                        *h -= 1;
                        assert!(*h >= 0, "{app:?} proc {i}: unlock of un-held lock {id}");
                    }
                    _ => {}
                }
            }
            assert!(
                held.values().all(|&v| v == 0),
                "{app:?} proc {i}: locks left held at program end"
            );
        }
    }
}
