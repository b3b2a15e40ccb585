//! `AppBuild::footprint` merges each program's address ranges before
//! merging across programs. This pins its union and per-program counts
//! to the single-pass algorithm it replaced — every range of the
//! programs in one sorted list, one range per walk row — on every suite
//! application and on the example scenarios.

use std::path::Path;

use ccn_scenario::{Scenario, ScenarioSpec};
use ccn_workloads::suite::{Scale, SuiteApp};
use ccn_workloads::{Application, MachineShape, Segment};

/// The single-pass union: all ranges of `programs` in one list, sorted,
/// swept once.
fn footprint_reference(programs: &[Vec<Segment>], line_bytes: u64) -> usize {
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for prog in programs {
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
            let mut row = base;
            for _ in 0..rows {
                let end = row + bytes.max(1);
                ranges.push((row / line_bytes, (end - 1) / line_bytes + 1));
                row += pitch;
            }
        }
    }
    ranges.sort_unstable();
    let mut lines = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in ranges {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            _ => {
                if let Some((s, e)) = current {
                    lines += e - s;
                }
                current = Some((start, end));
            }
        }
    }
    if let Some((s, e)) = current {
        lines += e - s;
    }
    lines as usize
}

fn shape(nodes: usize, procs_per_node: usize) -> MachineShape {
    MachineShape {
        nodes,
        procs_per_node,
        page_bytes: 4096,
        line_bytes: 64,
    }
}

fn assert_matches_reference(app: &dyn Application, shape: &MachineShape) {
    let build = app.build(shape);
    for line_bytes in [32, 64, 128] {
        let ctx = format!(
            "{} on {}x{} with {line_bytes} B lines",
            app.name(),
            shape.nodes,
            shape.procs_per_node
        );
        let footprint = build.footprint(line_bytes);
        assert_eq!(
            footprint.lines,
            footprint_reference(&build.programs, line_bytes),
            "{ctx}"
        );
        assert_eq!(build.footprint_lines(line_bytes), footprint.lines, "{ctx}");
        let per_program: Vec<usize> = build
            .programs
            .iter()
            .map(|prog| footprint_reference(std::slice::from_ref(prog), line_bytes))
            .collect();
        assert_eq!(footprint.per_program, per_program, "{ctx}");
    }
}

#[test]
fn suite_footprints_match_the_single_pass_union() {
    let all = SuiteApp::base_suite()
        .into_iter()
        .chain([SuiteApp::FftLarge, SuiteApp::OceanLarge]);
    for app in all {
        assert_matches_reference(app.instantiate(Scale::Tiny).as_ref(), &shape(4, 2));
    }
    // Ocean at the reproduction scale on 16x4: the build with the most
    // ranges (hundreds of thousands).
    assert_matches_reference(
        SuiteApp::OceanBase.instantiate(Scale::Scaled).as_ref(),
        &shape(16, 4),
    );
}

#[test]
fn scenario_footprints_match_the_single_pass_union() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("example scenarios") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).expect("readable spec");
            let spec = ScenarioSpec::parse_str(&text)
                .unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
            assert_matches_reference(&Scenario::new(spec), &shape(16, 4));
            checked += 1;
        }
    }
    assert!(checked > 0, "no example scenarios under {}", dir.display());
}
