//! A scenario's processors, like the suite kernels', fill their caches
//! only with lines of their own programs, so no tag store outgrows the
//! blocks `Machine::new` reserved for it. The scenario machine's 32 KB L2
//! has fewer sets than a processor's footprint, so here the reservation
//! is the full set count.

use ccn_scenario::{scenario_config, Scenario, ScenarioSpec};
use ccnuma::{Architecture, Machine};

/// `kv_hotspot`'s phases with fewer lookups: a private warm-up, then
/// Zipf-hot lookups, then a write-heavier round on half the nodes.
const KV_HOTSPOT: &str = r#"{
  "name": "kv-hotspot-short",
  "seed": 42,
  "phases": [
    { "kind": "private", "bytes_per_proc": 8192, "sweeps": 2 },
    { "kind": "kv_lookup", "keys": 512, "key_bytes": 64, "lookups": 60, "write_percent": 5, "zipf_s": 1.1 },
    { "kind": "kv_lookup", "keys": 512, "key_bytes": 64, "lookups": 30, "write_percent": 30, "zipf_s": 0.8, "nodes": "half" }
  ]
}"#;

#[test]
fn kv_hotspot_stays_within_its_reserved_tag_store() {
    let spec = ScenarioSpec::parse_str(KV_HOTSPOT).expect("valid spec");
    for arch in [Architecture::Hwc, Architecture::Ppc] {
        let cfg = scenario_config(arch, 16, 4);
        let sets = cfg.l2_geometry().sets() as usize;
        let mut machine = Machine::new(cfg, &Scenario::new(spec.clone())).expect("valid config");
        machine.run_with_event_limit(200_000_000);
        for (p, (l1, l2)) in machine.proc_caches().enumerate() {
            for (level, cache) in [("L1", l1), ("L2", l2)] {
                assert!(
                    cache.allocated_sets() <= cache.reserved_sets(),
                    "{}: processor {p}'s {level} filled {} sets but reserved {}",
                    arch.name(),
                    cache.allocated_sets(),
                    cache.reserved_sets()
                );
            }
            assert_eq!(
                l2.reserved_sets(),
                sets,
                "processor {p}'s footprint should cover every L2 set"
            );
        }
    }
}
