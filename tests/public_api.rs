//! Exercises the public API surface the way a downstream user would:
//! custom configurations, custom workloads, every engine policy, report
//! fields, tracing, and the probe.

use ccnuma_repro::ccn_controller::EnginePolicy;
use ccnuma_repro::ccn_protocol::EngineKind;
use ccnuma_repro::ccn_workloads::micro::UniformSharing;
use ccnuma_repro::ccn_workloads::{Access, AppBuild, Application, MachineShape, Segment};
use ccnuma_repro::ccnuma::{probe, Architecture, Machine, PlacementPolicy, SystemConfig};

/// A minimal user-defined workload.
struct TwoPhase;

impl Application for TwoPhase {
    fn name(&self) -> String {
        "two-phase".to_string()
    }
    fn build(&self, shape: &MachineShape) -> AppBuild {
        let mut space = ccnuma_repro::ccn_workloads::AddressSpace::new(shape.page_bytes);
        let shared = space.alloc(64 * 1024);
        let programs = (0..shape.nprocs())
            .map(|p| {
                vec![
                    Segment::Barrier(0),
                    Segment::StartMeasurement,
                    Segment::Walk {
                        base: shared + (p as u64 % 4) * 16 * 1024,
                        bytes: 16 * 1024,
                        stride: 8,
                        rows: 1,
                        pitch: 0,
                        access: Access::ReadWrite,
                        work: 3,
                    },
                    Segment::Barrier(1),
                    Segment::RandomWalk {
                        base: shared,
                        bytes: 64 * 1024,
                        count: 500,
                        stride: 8,
                        access: Access::Read,
                        work: 5,
                        seed: p as u64,
                    },
                    Segment::Barrier(2),
                ]
            })
            .collect();
        AppBuild {
            programs,
            placements: space.into_placements(),
        }
    }
}

#[test]
fn custom_workload_runs_under_every_engine_policy() {
    for policy in [
        EnginePolicy::Single,
        EnginePolicy::LocalRemote,
        EnginePolicy::LocalRemotePairs(2),
        EnginePolicy::Interleaved(3),
    ] {
        let cfg = SystemConfig::small()
            .with_engine(EngineKind::Ppc)
            .with_engines(policy);
        let mut machine = Machine::new(cfg, &TwoPhase).expect("valid config");
        let report = machine.run();
        machine
            .check_quiescent()
            .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        assert!(report.exec_cycles > 0, "{policy:?}");
        // Barrier 0 completes before the measured phase starts.
        assert_eq!(report.barriers, 2, "{policy:?}");
        for node in &report.nodes {
            assert_eq!(node.engines.len(), policy.engines(), "{policy:?}");
        }
    }
}

#[test]
fn every_engine_kind_runs() {
    let app = UniformSharing {
        touches_per_proc: 800,
        ..UniformSharing::default()
    };
    let mut cycles = Vec::new();
    for kind in [EngineKind::Hwc, EngineKind::PpcAccelerated, EngineKind::Ppc] {
        let cfg = SystemConfig::small().with_engine(kind);
        let report = Machine::new(cfg, &app).expect("valid").run();
        cycles.push((kind, report.exec_cycles));
    }
    // HWC <= PPC+ <= PPC within scheduling noise.
    assert!(
        cycles[0].1 as f64 <= cycles[2].1 as f64 * 1.02,
        "{cycles:?}"
    );
}

#[test]
fn report_fields_are_coherent() {
    let app = UniformSharing {
        touches_per_proc: 1_000,
        ..UniformSharing::default()
    };
    let cfg = SystemConfig::small().with_architecture(Architecture::TwoPpc);
    let report = Machine::new(cfg, &app).expect("valid").run();
    // Cross-field consistency.
    let node_arrivals: u64 = report.nodes.iter().map(|n| n.arrivals).sum();
    assert_eq!(node_arrivals, report.cc_arrivals);
    let node_handled: u64 = report.nodes.iter().map(|n| n.handled).sum();
    assert_eq!(node_handled, report.cc_handled);
    let handler_total: u64 = report.handler_counts.iter().map(|(_, c)| c).sum();
    assert_eq!(handler_total, report.cc_handled);
    assert!(report.rccpi() > 0.0);
    assert!(report.avg_utilization() > 0.0);
    assert!(report.l2_miss_ratio() > 0.0 && report.l2_miss_ratio() < 1.0);
    assert!(report.miss_latency_ns.0 > 0.0);
    assert!(report.miss_latency_ns.1 >= report.miss_latency_ns.0);
    assert!(report.arrival_cv > 0.0);
    assert!(report.engine_request_share("LPE") + report.engine_request_share("RPE") > 0.99);
    let summary = report.render_summary();
    assert!(summary.contains("2PPC"));
    assert!(summary.contains("handler mix"));
}

#[test]
fn placement_and_feature_flags_compose() {
    let app = UniformSharing {
        touches_per_proc: 800,
        ..UniformSharing::default()
    };
    let mut cfg = SystemConfig::small()
        .with_placement(PlacementPolicy::FirstTouch)
        .with_engine(EngineKind::Ppc);
    cfg.replacement_hints = true;
    cfg.direct_data_path = false;
    cfg.dir_cache_entries = 1024;
    let mut machine = Machine::new(cfg, &app).expect("valid");
    let report = machine.run();
    machine
        .check_quiescent()
        .expect("all features compose coherently");
    assert!(report.exec_cycles > 0);
}

#[test]
fn probe_is_config_sensitive() {
    use ccnuma_repro::ccn_net::NetConfig;
    let base = probe::read_miss_breakdown(&SystemConfig::base(), false).total();
    let slow = probe::read_miss_breakdown(&SystemConfig::base().with_net(NetConfig::slow()), false)
        .total();
    // Two crossings of a (200-14)-cycle-longer network.
    assert_eq!(slow - base, 2 * (200 - 14));
    let wide = probe::read_miss_breakdown(&SystemConfig::base().with_line_bytes(32), false).total();
    assert!(
        wide < base,
        "smaller lines transfer faster: {wide} vs {base}"
    );
}

#[test]
fn config_validation_rejects_nonsense() {
    // 100 nodes is a legal (if odd) machine since the scaling work; the
    // live ceiling is the directory format's tracking capacity.
    assert!(SystemConfig::base().with_nodes(100).validate().is_ok());
    assert!(SystemConfig::base().with_nodes(2000).validate().is_err());
    assert!(SystemConfig::base().with_nodes(0).validate().is_err());
    assert!(SystemConfig::base()
        .with_engines(EnginePolicy::Interleaved(9))
        .validate()
        .is_err());
    let mut cfg = SystemConfig::base();
    cfg.dir_cache_entries = 1000;
    assert!(cfg.validate().is_err());
}

#[test]
fn machines_past_64_nodes_run_to_quiescence() {
    use ccnuma_repro::ccn_protocol::DirFormat;
    use ccnuma_repro::ccn_workloads::suite::{Scale, SuiteApp};
    // Past 64 nodes the directories switch to their wide sharer sets.
    // Random sharing among 128 single-processor nodes builds sets that
    // straddle the one-word boundary, and tiny Barnes adds a real
    // sharing pattern; a small sparse directory recalls such sets. The
    // quiescence check matches every remote copy, on nodes above 63
    // too, against its home's record.
    let uniform = UniformSharing {
        region_bytes: 64 * 1024,
        touches_per_proc: 100,
        write_percent: 10,
        ..UniformSharing::default()
    };
    let barnes = SuiteApp::Barnes.instantiate(Scale::Tiny);
    let apps: [&dyn Application; 2] = [&uniform, barnes.as_ref()];
    for app in apps {
        for format in [DirFormat::FullMap, DirFormat::Sparse { slots: 8 }] {
            let cfg = SystemConfig::base()
                .with_nodes(128)
                .with_procs_per_node(1)
                .with_dir_format(format);
            let mut machine = Machine::new(cfg, app).expect("valid config");
            let report = machine.run();
            let what = format!("{} under {}", app.name(), format.label());
            machine
                .check_quiescent()
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(report.exec_cycles > 0, "{what}");
            assert!(report.cc_handled > 0, "{what}");
        }
    }
}
