//! Host-time benchmark of the CC-NUMA simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ocean16|compute_paper|kv_hotspot|sparse64_sweep|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the benchmark repeats untraced passes over the
//! workload for about `--seconds` and reports the end-to-end metrics as
//! medians over passes. With `--trace 1` it runs one untraced pass, one
//! traced pass with benchmark-side spans around every layer call, and
//! replays each component layer with the workload's own stream, and
//! reports the per-layer metrics. Every simulation's exec cycles,
//! instructions, handler count and functional digest are checked against
//! `expected.json`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--record <file>` instead runs each simulation once (for every seed of
//! `--seeds a-b` on seeded workloads) and merges its outcome into `file`.
//! See `README.md` for the workloads, the metrics and what moves them.

mod replay;
mod trace;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use ccn_harness::Json;
use ccn_protocol::HandlerKind;
use ccn_sim::Histogram;
use ccnuma::SimReport;

use crate::replay::LayerTimes;
use crate::trace::Tracer;
use crate::workloads::{run_pass, setup_only, Outcome, Pass, Workload};

/// Seed-commit outcomes of every simulation, keyed by simulation id.
const EXPECTED: &str = include_str!("../expected.json");

/// `setup_s` is the median of at least this many set-ups per run: single
/// set-ups vary by tens of percent with the host's page-fault cost.
const MIN_SETUPS: usize = 25;

/// Where the benchmark keeps its scratch files and span dumps, relative
/// to the checkout it runs in.
const OUT_DIR: &str = ".perfbench";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
    seeds: (u64, u64),
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
        record: None,
        seeds: (42, 42),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--record" => args.record = Some(PathBuf::from(value()?)),
            "--seeds" => {
                let v = value()?;
                let (a, b) = v.split_once('-').ok_or("--seeds takes a range a-b")?;
                let a = a.parse().map_err(|e| format!("--seeds: {e}"))?;
                let b = b.parse().map_err(|e| format!("--seeds: {e}"))?;
                args.seeds = (a, b);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {} or all",
            Workload::ALL.map(Workload::name).join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<Workload> = match Workload::parse(&args.workload) {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    if let Some(path) = &args.record {
        return match record(&workloads, args.seeds, path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = if workloads.len() == 1 {
        run_workload(workloads[0], &args)
    } else {
        run_all(&args)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in a process of its own (so each peak RSS is that
/// workload's alone) and merges their results, metric names prefixed by
/// the workload.
fn run_all(args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = BTreeMap::new();
    for w in Workload::ALL {
        println!("== {}", w.name());
        let out = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("running {}: {e}", w.name()))?;
        if !out.status.success() {
            return Err(format!("{} exited with {}", w.name(), out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines
            .pop()
            .ok_or_else(|| format!("{} printed nothing", w.name()))?;
        for l in lines {
            println!("{l}");
        }
        let res = ccn_harness::json::parse(last).map_err(|e| format!("{}: {e}", w.name()))?;
        correct &= res.get("correct") == Some(&Json::Bool(true));
        attempted += res.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += res.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(m)) = res.get("metrics") {
            for (k, v) in m {
                metrics.insert(format!("{}.{k}", w.name()), v.clone());
            }
        }
    }
    Ok(Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// Checks outcomes against the seed commit and the conformance envelope.
struct Checker {
    workload: Workload,
    expected: BTreeMap<String, [u64; 4]>,
    /// First outcome seen per simulation, for ids the file does not hold.
    first: BTreeMap<String, [u64; 4]>,
    unrecorded: BTreeSet<String>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Checker {
    fn new(workload: Workload) -> Result<Checker, String> {
        Ok(Checker {
            workload,
            expected: load_expected(EXPECTED)?,
            first: BTreeMap::new(),
            unrecorded: BTreeSet::new(),
            attempted: 0,
            failed: 0,
            correct: true,
        })
    }

    /// Counts one pass's simulations; a panic, a field that differs from
    /// the seed commit, or a digest outside the conformance envelope fails
    /// the simulation.
    fn check(&mut self, pass: &Pass) {
        let envelope = pass
            .outcomes
            .iter()
            .find_map(|o| o.as_ref().ok())
            .and_then(|o| self.workload.envelope(o));
        for outcome in &pass.outcomes {
            self.attempted += 1;
            let ok = match outcome {
                Err(msg) => {
                    eprintln!("FAIL: simulation panicked: {msg}");
                    false
                }
                Ok(o) => self.check_outcome(o, envelope),
            };
            if !ok {
                self.failed += 1;
                self.correct = false;
            }
        }
    }

    fn check_outcome(&mut self, o: &Outcome, envelope: Option<[u64; 2]>) -> bool {
        let got = o.key_fields();
        let mine = self.workload.envelope(o);
        if mine != envelope {
            eprintln!(
                "FAIL {}: {mine:?} outside the conformance envelope {envelope:?}",
                o.id
            );
            return false;
        }
        let reference = match self.expected.get(&o.id) {
            Some(e) => *e,
            None => {
                if self.unrecorded.insert(o.id.clone()) {
                    eprintln!(
                        "note: {} has no seed-commit outcome; checking repeatability and conformance only",
                        o.id
                    );
                }
                *self.first.entry(o.id.clone()).or_insert(got)
            }
        };
        if got != reference {
            eprintln!(
                "FAIL {}: (exec_cycles, instructions, cc_handled, digest) = {got:?}, expected {reference:?}",
                o.id
            );
            return false;
        }
        true
    }
}

fn load_expected(text: &str) -> Result<BTreeMap<String, [u64; 4]>, String> {
    let json = ccn_harness::json::parse(text).map_err(|e| format!("expected.json: {e}"))?;
    let Some(Json::Obj(sims)) = json.get("sims") else {
        return Ok(BTreeMap::new());
    };
    sims.iter()
        .map(|(id, v)| {
            let f = |k| {
                v.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("expected.json: {id} lacks {k}"))
            };
            Ok((
                id.clone(),
                [
                    f("exec_cycles")?,
                    f("instructions")?,
                    f("cc_handled")?,
                    f("digest")?,
                ],
            ))
        })
        .collect()
}

/// Runs the benchmark on one workload and returns its result line.
fn run_workload(w: Workload, args: &Args) -> Result<Json, String> {
    let sims = w.sims(args.seed);
    let scratch = Path::new(OUT_DIR).join(format!("tmp-{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    let mut checker = Checker::new(w)?;
    let untraced = Tracer::new(false);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass = run_pass(w, &sims, &scratch, &untraced, true);
        checker.check(&pass);
        eprintln!(
            "{} pass {}: wall {:.4} s, set-up {:.4} s",
            w.name(),
            passes.len() + 1,
            pass.wall_s,
            pass.setup_s
        );
        let elapsed = start.elapsed().as_secs_f64();
        let next = pass.wall_s;
        passes.push(pass);
        // A traced run needs one untraced pass to compare against; an
        // untraced run measures for about `--seconds`, never starting a
        // pass that would overrun it by more than a quarter.
        if args.trace || elapsed >= args.seconds || elapsed + next > args.seconds * 1.25 {
            break;
        }
    }
    let mut metrics = BTreeMap::new();
    if args.trace {
        traced(
            w,
            &sims,
            &scratch,
            &passes[0],
            &mut checker,
            &mut metrics,
            args.seed,
        )?;
    } else {
        end_to_end(w, &sims, &passes, &mut metrics)?;
    }
    let _ = std::fs::remove_dir_all(&scratch);
    for (name, v) in &metrics {
        let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("{:<16} {name:<36} {value:>16.6} {unit}", w.name());
    }
    println!(
        "{:<16} {} pass(es), {} simulation(s), {} failed",
        w.name(),
        passes.len() + usize::from(args.trace),
        checker.attempted,
        checker.failed
    );
    Ok(Json::obj([
        ("correct", Json::Bool(checker.correct)),
        ("attempted", Json::UInt(checker.attempted)),
        ("failed", Json::UInt(checker.failed)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

fn metric(metrics: &mut BTreeMap<String, Json>, name: &str, value: f64, unit: &str) {
    metrics.insert(
        name.to_string(),
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.to_string())),
        ]),
    );
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ok_outcomes(pass: &Pass) -> impl Iterator<Item = &Outcome> {
    pass.outcomes.iter().filter_map(|o| o.as_ref().ok())
}

/// The end-to-end metrics of an untraced run: medians over its passes.
fn end_to_end(
    w: Workload,
    sims: &[workloads::Sim],
    passes: &[Pass],
    metrics: &mut BTreeMap<String, Json>,
) -> Result<(), String> {
    // Read the high-water mark before the set-up-only repetitions, whose
    // allocations land beside the pool threads' freed arenas and are not
    // part of the workload.
    let peak = peak_rss_mib()?;
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(setup_only(w, sims));
    }
    let throughput: Vec<f64> = passes
        .iter()
        .map(|p| {
            let refs: u64 = ok_outcomes(p).map(|o| o.references).sum();
            let run_s: f64 = ok_outcomes(p).map(|o| o.run_s).sum();
            refs as f64 / run_s
        })
        .collect();
    metric(
        metrics,
        "wall_s",
        median(passes.iter().map(|p| p.wall_s).collect()),
        "s",
    );
    metric(metrics, "setup_s", median(setups), "s");
    metric(metrics, "sim_refs_per_s", median(throughput), "1/s");
    metric(metrics, "peak_rss_mib", peak, "MiB");
    Ok(())
}

/// This process's resident-memory high-water mark.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The traced run: one traced pass plus the component replays, checked
/// for span reconciliation, and the per-layer metrics.
fn traced(
    w: Workload,
    sims: &[workloads::Sim],
    scratch: &Path,
    untraced: &Pass,
    checker: &mut Checker,
    metrics: &mut BTreeMap<String, Json>,
    seed: u64,
) -> Result<(), String> {
    let tracer = Tracer::new(true);
    let from = tracer.now();
    let pass = run_pass(w, sims, scratch, &tracer, true);
    checker.check(&pass);
    // The flight recorder's cost: the same sweep untraced without it.
    let recorder_s = (w == Workload::Sparse64Sweep).then(|| {
        tracer.span("obs.recorder_baseline", w.name(), None, |_| {
            let off = run_pass(w, sims, scratch, &Tracer::new(false), false);
            checker.check(&off);
            untraced.wall_s - off.wall_s
        })
    });
    let outcomes: Vec<&Outcome> = ok_outcomes(&pass).collect();
    let mut layers = LayerTimes::default();
    let mut replayed = BTreeSet::new();
    for (sim, o) in sims.iter().zip(pass.outcomes.iter()) {
        let Ok(o) = o else { continue };
        // One replay per distinct program set; the architectures of a
        // workload share their programs.
        let key = (sim.build_key(), sim.cfg.nodes, sim.cfg.procs_per_node);
        if !replayed.insert(key) {
            continue;
        }
        let (report, _) = o
            .report
            .as_deref()
            .ok_or("traced outcome without a report")?;
        let occupancy = report.cc_occupancy / report.cc_handled.max(1);
        let t = tracer.span("replay", &sim.id, None, |me| {
            let build = tracer.span("replay.build", &sim.id, me, |_| sim.build());
            replay::replay(
                &sim.cfg,
                &build,
                occupancy,
                o.max_pending as usize,
                &tracer,
                &sim.id,
                me,
            )
        });
        match t {
            Ok(t) => layers.add(&t),
            Err(e) => {
                eprintln!("FAIL {}: replay reconciliation: {e}", sim.id);
                checker.correct = false;
            }
        }
    }
    let to = tracer.now();
    let spans = tracer.spans();
    let unattributed = match trace::reconcile(&spans, from, to) {
        Ok(u) => u,
        Err(e) => {
            eprintln!("FAIL: span reconciliation: {e}");
            checker.correct = false;
            f64::NAN
        }
    };
    let dump = Path::new(OUT_DIR).join(format!("trace-{}-seed{seed}.json", w.name()));
    std::fs::write(&dump, trace::to_json(&spans).render_pretty())
        .map_err(|e| format!("writing {}: {e}", dump.display()))?;
    eprintln!("spans written to {}", dump.display());

    let reports: Vec<&(SimReport, ccn_sim::ComponentStats)> = outcomes
        .iter()
        .filter_map(|o| o.report.as_deref())
        .collect();
    let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(|(r, _)| f(r)).sum::<u64>();
    let mean = |f: &dyn Fn(&SimReport) -> f64| {
        reports.iter().map(|(r, _)| f(r)).sum::<f64>() / reports.len().max(1) as f64
    };
    let p99 = |f: &dyn Fn(&SimReport) -> &Histogram| {
        let mut h = Histogram::new();
        for (r, _) in &reports {
            h.merge(f(r));
        }
        h.quantile(0.99).unwrap_or(0.0)
    };
    let per = |secs: f64, n: u64| secs * 1e9 / n.max(1) as f64;
    let events: u64 = outcomes.iter().map(|o| o.events).sum();
    let handled = sum(&|r| r.cc_handled);
    let inv_label = HandlerKind::InvReqAtSharer.paper_label();
    let m = metrics;
    metric(m, "sim.events", events as f64, "count");
    metric(
        m,
        "sim.events_per_handler",
        events as f64 / handled.max(1) as f64,
        "ratio",
    );
    let max_pending = outcomes.iter().map(|o| o.max_pending).max().unwrap_or(0);
    metric(m, "sim.max_pending", max_pending as f64, "count");
    metric(
        m,
        "sim.ns_per_event",
        per(layers.sim_s, layers.wheel_ops),
        "ns",
    );
    metric(
        m,
        "core.build_s",
        trace::total(&spans, "core.build") + trace::total(&spans, "scenario.build"),
        "s",
    );
    metric(
        m,
        "core.machine_new_s",
        trace::self_time(&spans, "core.machine_new"),
        "s",
    );
    metric(m, "core.run_s", trace::total(&spans, "core.run"), "s");
    metric(m, "core.report_s", trace::total(&spans, "core.report"), "s");
    metric(m, "workloads.ops", layers.ops as f64, "count");
    metric(
        m,
        "workloads.ns_per_op",
        per(layers.workloads_s, layers.ops),
        "ns",
    );
    let l2_misses = sum(&|r| r.l2_misses);
    metric(m, "mem.l2_misses", l2_misses as f64, "count");
    let refs = sum(&|r| r.references);
    metric(
        m,
        "mem.l2_miss_ratio",
        l2_misses as f64 / refs.max(1) as f64,
        "ratio",
    );
    metric(
        m,
        "mem.ns_per_probe",
        per(layers.mem_s, layers.probes),
        "ns",
    );
    let (bus_txns, addr_util) = bus_counts(&reports);
    metric(m, "bus.transactions", bus_txns as f64, "count");
    metric(m, "bus.addr_util", addr_util, "ratio");
    metric(
        m,
        "bus.ns_per_txn",
        per(layers.bus_s, layers.bus_txns),
        "ns",
    );
    metric(m, "net.messages", sum(&|r| r.messages) as f64, "count");
    metric(
        m,
        "net.transit_p99_cycles",
        p99(&|r| &r.net_transit_hist),
        "cycles",
    );
    metric(m, "net.ns_per_msg", per(layers.net_s, layers.msgs), "ns");
    metric(m, "controller.handled", handled as f64, "count");
    metric(
        m,
        "controller.util",
        mean(&|r| r.avg_utilization()),
        "ratio",
    );
    metric(
        m,
        "controller.queue_delay_p99_ns",
        ccn_sim::cycles_to_ns(1) * p99(&|r| &r.cc_queue_delay_hist),
        "ns",
    );
    metric(
        m,
        "controller.ns_per_dispatch",
        per(layers.controller_s, layers.dispatches),
        "ns",
    );
    metric(
        m,
        "protocol.dir_cache_hit_ratio",
        mean(&|r| r.dir_cache_hit_ratio),
        "ratio",
    );
    let invalidations = sum(&|r| {
        r.handler_counts
            .iter()
            .filter(|(label, _)| label == inv_label)
            .map(|(_, n)| *n)
            .sum()
    });
    metric(m, "protocol.invalidations", invalidations as f64, "count");
    metric(
        m,
        "protocol.useless_invalidations",
        sum(&|r| r.useless_invalidations) as f64,
        "count",
    );
    metric(
        m,
        "protocol.ns_per_dir_op",
        per(layers.protocol_s, layers.dir_ops),
        "ns",
    );
    let recorder = recorder_s.unwrap_or_else(|| trace::total(&spans, "obs.recorder"));
    metric(m, "obs.recorder_s", recorder, "s");
    metric(m, "obs.blame_s", trace::total(&spans, "obs.blame"), "s");
    metric(m, "obs.sidecar_s", trace::total(&spans, "obs.sidecar"), "s");
    let jobs = trace::total(&spans, "harness.job");
    let job_max = if jobs > 0.0 {
        trace::longest(&spans, "harness.job")
    } else {
        trace::longest(&spans, "harness.pool")
    };
    metric(m, "harness.job_s_max", job_max, "s");
    let busy = pass
        .sweep_s
        .map_or(0.0, |s| jobs / (workloads::SWEEP_WORKERS as f64 * s));
    metric(m, "harness.pool_busy_share", busy, "ratio");
    metric(
        m,
        "harness.checkpoint_s",
        trace::total(&spans, "harness.checkpoint"),
        "s",
    );
    metric(
        m,
        "scenario.parse_s",
        trace::total(&spans, "scenario.parse"),
        "s",
    );
    metric(
        m,
        "scenario.build_s",
        trace::total(&spans, "scenario.build"),
        "s",
    );
    metric(m, "trace.overhead_s", pass.wall_s - untraced.wall_s, "s");
    metric(m, "trace.unattributed_s", unattributed, "s");
    Ok(())
}

/// Bus transactions summed over every node of every simulation, and the
/// mean address-bus utilization over nodes and simulations.
fn bus_counts(reports: &[&(SimReport, ccn_sim::ComponentStats)]) -> (u64, f64) {
    let mut txns = 0;
    let mut util = Vec::new();
    for (report, stats) in reports {
        for node in &stats.children {
            let Some(bus) = node.find("bus") else {
                continue;
            };
            txns += bus.get_counter("transactions").unwrap_or(0);
            if let Some(addr) = bus.find("smp address bus") {
                let busy = addr.get_counter("busy_cycles").unwrap_or(0);
                util.push(busy as f64 / report.exec_cycles.max(1) as f64);
            }
        }
    }
    (txns, util.iter().sum::<f64>() / util.len().max(1) as f64)
}

/// Runs each simulation once (per seed of `seeds` on seeded workloads)
/// and merges its outcome into `path`.
fn record(workloads: &[Workload], seeds: (u64, u64), path: &Path) -> Result<(), String> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => match ccn_harness::json::parse(&text).map_err(|e| e.to_string())? {
            Json::Obj(m) => m,
            _ => return Err(format!("{} is not a JSON object", path.display())),
        },
        Err(_) => BTreeMap::new(),
    };
    let mut sims = match doc.remove("sims") {
        Some(Json::Obj(s)) => s,
        _ => BTreeMap::new(),
    };
    let scratch = Path::new(OUT_DIR).join(format!("record-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    for &w in workloads {
        let seed_list: Vec<u64> = if w.seeded() {
            (seeds.0..=seeds.1).collect()
        } else {
            vec![0]
        };
        for seed in seed_list {
            let pass = run_pass(w, &w.sims(seed), &scratch, &Tracer::new(false), true);
            for o in &pass.outcomes {
                let o = o.as_ref().map_err(|e| format!("{}: {e}", w.name()))?;
                println!(
                    "{} exec_cycles={} instructions={} references={} cc_handled={} digest={:#018x} events={} events_per_handler={:.1} max_pending={} run_s={:.3}",
                    o.id,
                    o.exec_cycles,
                    o.instructions,
                    o.references,
                    o.cc_handled,
                    o.digest,
                    o.events,
                    o.events as f64 / o.cc_handled.max(1) as f64,
                    o.max_pending,
                    o.run_s
                );
                sims.insert(
                    o.id.clone(),
                    Json::obj([
                        ("exec_cycles", Json::UInt(o.exec_cycles)),
                        ("instructions", Json::UInt(o.instructions)),
                        ("cc_handled", Json::UInt(o.cc_handled)),
                        ("digest", Json::UInt(o.digest)),
                    ]),
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    doc.insert("sims".to_string(), Json::Obj(sims));
    std::fs::write(path, Json::Obj(doc).render_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
