//! A processor's caches hold only lines of its own program's footprint,
//! so `Machine::new` reserves each tag store for no more sets than that
//! footprint has lines. These tests run workloads to completion and check
//! that no cache ever needed a block past its reservation, and that the
//! reservation is a count fixed by the programs rather than by what the
//! process allocated before.

use ccn_mem::SetAssocCache;
use ccn_protocol::DirFormat;
use ccn_workloads::suite::{Scale, SuiteApp};
use ccnuma::experiments::{config_for, ConfigMods, Options};
use ccnuma::{Architecture, Machine};

/// Every suite kernel that builds on 16×4 at `Scale::Tiny`. FFT-1K
/// (`FftBase`) does not: its √points, 32, cannot be split across 64
/// processors, so FFT runs as `FftLarge` (FFT-4K).
const EVERY_APP: [SuiteApp; 9] = [
    SuiteApp::Lu,
    SuiteApp::Cholesky,
    SuiteApp::WaterNsq,
    SuiteApp::WaterSpatial,
    SuiteApp::Barnes,
    SuiteApp::FftLarge,
    SuiteApp::Radix,
    SuiteApp::OceanBase,
    SuiteApp::OceanLarge,
];

fn within_reservation(name: &str, p: usize, level: &str, cache: &SetAssocCache) {
    assert!(
        cache.allocated_sets() <= cache.reserved_sets(),
        "{name}: processor {p}'s {level} filled {} sets but reserved {}",
        cache.allocated_sets(),
        cache.reserved_sets()
    );
}

#[test]
fn every_suite_app_stays_within_its_reserved_tag_store() {
    let opts = Options {
        scale: Scale::Tiny,
        nodes: 16,
        procs_per_node: 4,
        dir_format: DirFormat::FullMap,
    };
    for app in EVERY_APP {
        let cfg = config_for(app, Architecture::Hwc, opts, ConfigMods::default());
        let instance = app.instantiate(Scale::Tiny);
        let mut machine = Machine::new(cfg, instance.as_ref()).expect("valid config");
        machine.run_with_event_limit(200_000_000);
        let mut filled = 0;
        for (p, (l1, l2)) in machine.proc_caches().enumerate() {
            within_reservation(&instance.name(), p, "L1", l1);
            within_reservation(&instance.name(), p, "L2", l2);
            filled += l2.allocated_sets();
        }
        assert!(filled > 0, "{}: no L2 was ever filled", instance.name());
    }
}

/// Sum of every processor's L1 and L2 tag-store bytes.
fn tag_store_bytes(machine: &Machine) -> usize {
    machine
        .proc_caches()
        .map(|(l1, l2)| l1.tag_store_bytes() + l2.tag_store_bytes())
        .sum()
}

#[test]
fn tag_store_reservation_does_not_depend_on_earlier_machines() {
    let opts = Options {
        scale: Scale::Tiny,
        nodes: 64,
        procs_per_node: 4,
        dir_format: DirFormat::Sparse { slots: 8 },
    };
    let cfg = config_for(
        SuiteApp::OceanBase,
        Architecture::Hwc,
        opts,
        ConfigMods::default(),
    );
    let app = SuiteApp::OceanBase.instantiate(Scale::Tiny);
    let build = || Machine::new(cfg.clone(), app.as_ref()).expect("valid config");
    let first = tag_store_bytes(&build());
    let second = tag_store_bytes(&build());
    assert_eq!(first, second);
    // Ocean-Tiny touches a few dozen lines per processor, so its tag
    // stores are a small fraction of full-geometry ones.
    let full = cfg.nprocs()
        * (SetAssocCache::new(cfg.l1_geometry()).tag_store_bytes()
            + SetAssocCache::new(cfg.l2_geometry()).tag_store_bytes());
    assert!(
        first * 8 < full,
        "{first} tag-store bytes reserved against {full} for full geometry"
    );
}
