//! Benchmark harness for the ISCA '97 reproduction.
//!
//! This crate contains:
//!
//! * the `repro` binary — regenerates every table and figure of the paper
//!   (`cargo run --release -p ccn-bench --bin repro -- all`), sweeping
//!   simulations on a worker pool (`--jobs N`) with incremental
//!   checkpoints under `results/`;
//! * wall-clock benches (`cargo bench -p ccn-bench --features
//!   criterion-benches`) measuring the simulator itself and timing
//!   reduced-scale versions of each experiment.
//!
//! The library portion holds the shared CLI plumbing and the in-tree
//! [`timing`] module the benches use.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod golden;
pub mod perf;
pub mod scenario_cli;
pub mod timing;

use ccn_workloads::suite::Scale;
use ccnuma::experiments::Options;
use ccnuma::sweep::scale_tag;

/// Experiment selectors accepted by the `repro` binary.
pub const TARGETS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablations",
    "summary",
    "run",
    "stats",
    "trace",
    "explain",
    "validate",
    "verify",
    "golden",
    "bench",
    "all",
];

/// Targets that are *extras*: they run only when asked for by name and
/// are not part of what `all` expands to.
pub const EXTRA_TARGETS: &[&str] = &[
    "ablations",
    "summary",
    "run",
    "stats",
    "trace",
    "explain",
    "validate",
    "verify",
    "golden",
    "bench",
    "all",
];

/// The targets `all` (or an empty target list) expands to: every table
/// and figure of the paper, without the extras.
pub fn default_targets() -> Vec<&'static str> {
    TARGETS
        .iter()
        .copied()
        .filter(|t| !EXTRA_TARGETS.contains(t))
        .collect()
}

/// Targets that sweep simulations and therefore run through the harness
/// worker pool with a checkpoint file.
pub const SWEEP_TARGETS: &[&str] = &[
    "table6", "table7", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
];

/// `repro` flags that consume a value; their values are not targets.
pub const VALUE_FLAGS: &[&str] = &[
    "--out",
    "--jobs",
    "--depth",
    "--nodes",
    "--lines",
    "--mutate",
    "--ordering",
    "--conf-cases",
    "--baseline",
    "--bench-json",
    "--sample-every",
    "--tolerance",
    "--arch",
    "--metrics",
    "--dir-format",
    "--ring-capacity",
    "--top",
    "--txn",
];

/// `repro` flags that take no value.
pub const SWITCHES: &[&str] = &[
    "--quick",
    "--paper",
    "--fresh",
    "--bless",
    "--obs",
    "--timeline",
    "--blame",
];

/// Splits a command line into its positional operands, skipping the value
/// of every flag in `value_flags`. Also returns the first `--flag` that is
/// neither a value flag nor one of `switches`, so the caller can reject it
/// instead of misreading its value as an operand.
pub fn split_args<'a>(
    args: &'a [String],
    value_flags: &[&str],
    switches: &[&str],
) -> (Vec<&'a str>, Option<&'a str>) {
    let mut operands = Vec::new();
    let mut unknown = None;
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
        } else if value_flags.contains(&a.as_str()) {
            skip_next = true;
        } else if !a.starts_with("--") {
            operands.push(a.as_str());
        } else if unknown.is_none() && !switches.contains(&a.as_str()) {
            unknown = Some(a.as_str());
        }
    }
    (operands, unknown)
}

/// The usage error for a flag [`split_args`] did not recognize.
pub fn unknown_flag_error(flag: &str, value_flags: &[&str], switches: &[&str]) -> String {
    let mut known: Vec<&str> = value_flags.iter().chain(switches).copied().collect();
    known.sort_unstable();
    format!("unknown flag '{flag}'; known flags: {}", known.join(" "))
}

/// Parses the CLI scale flags into experiment options.
///
/// `--quick` selects a tiny machine and data sets (seconds), `--paper` the
/// paper's Table 5 sizes (hours); the default is the scaled reproduction
/// setup (minutes).
pub fn options_from_flags(args: &[String]) -> Options {
    if args.iter().any(|a| a == "--quick") {
        Options::quick()
    } else if args.iter().any(|a| a == "--paper") {
        Options::paper()
    } else {
        Options::repro()
    }
}

/// Parses `--jobs N` into a worker count; defaults to the machine's
/// available parallelism. `--jobs 1` forces a serial sweep.
pub fn jobs_from_flags(args: &[String]) -> usize {
    args.iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or_else(ccn_harness::default_workers)
}

/// Human-readable description of the scale in use.
pub fn scale_name(opts: &Options) -> &'static str {
    match opts.scale {
        Scale::Paper => "paper data sets (Table 5)",
        Scale::Scaled => "scaled data sets (default)",
        Scale::Tiny => "tiny data sets (--quick)",
    }
}

/// The checkpoint file for one sweep target at one scale/machine size.
/// Checkpoints live under `results/` so interrupted sweeps resume across
/// invocations; the sweep name (not the worker count) keys the file.
pub fn checkpoint_path(sweep: &str, opts: &Options) -> String {
    format!(
        "results/checkpoints/{sweep}-{}-{}x{}.jsonl",
        scale_tag(opts.scale),
        opts.nodes,
        opts.procs_per_node
    )
}

/// Figures 11 and 12 render the same underlying sweep; both targets share
/// one checkpoint so the grid is simulated once.
pub fn sweep_name(target: &str) -> &str {
    match target {
        "fig11" | "fig12" => "scatter",
        other => other,
    }
}

/// Where `--out DIR` writes one target's output. The scale is part of the
/// name (`results/table6_paper.txt`) so runs at different scales never
/// overwrite each other.
pub fn artifact_path(dir: &str, target: &str, opts: &Options) -> String {
    format!("{dir}/{target}_{}.txt", scale_tag(opts.scale))
}

/// The header comment stamped into every written artifact: the exact
/// configuration plus the source revision. Deliberately excludes the
/// worker count — artifacts must be byte-identical across `--jobs N`.
pub fn artifact_stamp(target: &str, opts: &Options, revision: &str) -> String {
    format!(
        "# repro artifact: {target}\n# config: {} on a {}x{} machine\n# revision: {revision}\n\n",
        scale_name(opts),
        opts.nodes,
        opts.procs_per_node
    )
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git (or the repository) is unavailable.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        assert_eq!(options_from_flags(&s(&["--quick"])).nodes, 4);
        assert_eq!(options_from_flags(&s(&["--paper"])).nodes, 16);
        assert_eq!(options_from_flags(&s(&[])).nodes, 16);
        assert_eq!(
            scale_name(&options_from_flags(&s(&["--quick"]))),
            "tiny data sets (--quick)"
        );
    }

    #[test]
    fn split_args_skips_values_and_names_unknown_flags() {
        let args = s(&["--quick", "--jobs", "2", "fig6", "--fresh", "table6"]);
        assert_eq!(
            split_args(&args, VALUE_FLAGS, SWITCHES),
            (vec!["fig6", "table6"], None)
        );
        // The retired in-simulation thread count and a made-up flag are
        // both rejected by name.
        for flag in ["--threads", "--frobnicate"] {
            let args = s(&["run", flag, "2"]);
            let (_, unknown) = split_args(&args, VALUE_FLAGS, SWITCHES);
            assert_eq!(unknown, Some(flag));
            let msg = unknown_flag_error(flag, VALUE_FLAGS, SWITCHES);
            assert!(msg.contains(flag) && msg.contains("--jobs"), "{msg}");
        }
    }

    #[test]
    fn jobs_parsing() {
        assert_eq!(jobs_from_flags(&s(&["--jobs", "8", "fig6"])), 8);
        assert_eq!(jobs_from_flags(&s(&["--jobs", "0"])), 1);
        assert!(jobs_from_flags(&s(&["fig6"])) >= 1);
    }

    #[test]
    fn checkpoints_key_on_sweep_scale_and_machine() {
        let opts = Options::quick();
        assert_eq!(
            checkpoint_path(sweep_name("fig6"), &opts),
            "results/checkpoints/fig6-tiny-4x2.jsonl"
        );
        // fig11/fig12 share the scatter sweep.
        assert_eq!(sweep_name("fig11"), "scatter");
        assert_eq!(sweep_name("fig12"), "scatter");
        assert_eq!(sweep_name("table6"), "table6");
    }

    #[test]
    fn artifact_paths_encode_the_scale() {
        assert_eq!(
            artifact_path("results", "table6", &Options::paper()),
            "results/table6_paper.txt"
        );
        assert_eq!(
            artifact_path("results", "fig6", &Options::quick()),
            "results/fig6_tiny.txt"
        );
    }

    #[test]
    fn stamp_names_config_and_revision_but_not_jobs() {
        let stamp = artifact_stamp("fig6", &Options::quick(), "abc1234");
        assert!(stamp.contains("fig6"));
        assert!(stamp.contains("4x2"));
        assert!(stamp.contains("abc1234"));
        assert!(!stamp.contains("jobs"));
    }

    #[test]
    fn targets_cover_all_tables_and_figures() {
        for t in [
            "table1", "table7", "fig6", "fig12", "verify", "golden", "all",
        ] {
            assert!(TARGETS.contains(&t));
        }
        for t in SWEEP_TARGETS {
            assert!(TARGETS.contains(t));
        }
        let defaults = default_targets();
        assert!(defaults.contains(&"table6") && defaults.contains(&"fig12"));
        for t in EXTRA_TARGETS {
            assert!(!defaults.contains(t), "extra {t} leaked into `all`");
        }
    }
}
