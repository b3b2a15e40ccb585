//! The four benchmark workloads and one pass over each.
//!
//! A pass runs every simulation of a workload once, through the same
//! public APIs a user of the simulator calls, and returns each
//! simulation's simulated outcome plus the host times the end-to-end
//! metrics are made of.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use ccn_harness::Json;
use ccn_protocol::DirFormat;
use ccn_scenario::{scenario_config, Scenario, ScenarioSpec};
use ccn_sim::ComponentStats;
use ccn_workloads::suite::{Scale, SuiteApp};
use ccn_workloads::{AppBuild, Application, MachineShape};
use ccnuma::experiments::{config_for, ConfigMods, Options};
use ccnuma::{Architecture, Machine, Runner, SimReport, SweepRecord, SystemConfig};

use crate::trace::{SpanId, Tracer};

/// The scenario spec behind `kv_hotspot`; its seed is replaced by the
/// benchmark's `--seed`.
pub const KV_SPEC: &str = include_str!("../kv_hotspot.json");

/// Flight-recorder ring capacity for the sweep's blame summaries.
const BLAME_RING: usize = 256;

/// Worker threads of the `sparse64_sweep` harness pool.
pub const SWEEP_WORKERS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Ocean (scaled) on 16×4, full-map directory, all four architectures.
    Ocean16,
    /// Water-Nsq and Barnes at paper data sizes on 16×4 HWC.
    ComputePaper,
    /// The `kv_hotspot.json` scenario on 16×4 HWC and PPC.
    KvHotspot,
    /// Ocean (tiny) on 64×4 with a `sparse:8` directory, all four
    /// architectures, as one checkpointed sweep on the harness pool.
    Sparse64Sweep,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Ocean16,
        Workload::ComputePaper,
        Workload::KvHotspot,
        Workload::Sparse64Sweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ocean16 => "ocean16",
            Workload::ComputePaper => "compute_paper",
            Workload::KvHotspot => "kv_hotspot",
            Workload::Sparse64Sweep => "sparse64_sweep",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's outcome depends on the seed.
    pub fn seeded(self) -> bool {
        self == Workload::KvHotspot
    }

    /// The workload's simulations. Only `kv_hotspot` uses the seed; the
    /// Ocean, Water and Barnes kernels are deterministic and seedless.
    pub fn sims(self, seed: u64) -> Vec<Sim> {
        let suite = |app: SuiteApp, arch: Architecture, opts: Options| Sim {
            id: format!("{}/{}/{}", self.name(), app_label(app), arch.name()),
            app: App::Suite(app, opts.scale),
            cfg: config_for(app, arch, opts, ConfigMods::default()),
        };
        match self {
            Workload::Ocean16 => Architecture::all()
                .into_iter()
                .map(|arch| suite(SuiteApp::OceanBase, arch, Options::repro()))
                .collect(),
            Workload::ComputePaper => [SuiteApp::WaterNsq, SuiteApp::Barnes]
                .into_iter()
                .map(|app| suite(app, Architecture::Hwc, Options::paper()))
                .collect(),
            Workload::KvHotspot => [Architecture::Hwc, Architecture::Ppc]
                .into_iter()
                .map(|arch| Sim {
                    id: format!("kv_hotspot/seed{seed}/{}", arch.name()),
                    app: App::Scenario(seed),
                    cfg: scenario_config(arch, 16, 4),
                })
                .collect(),
            Workload::Sparse64Sweep => Architecture::all()
                .into_iter()
                .map(|arch| suite(SuiteApp::OceanBase, arch, sparse64_options()))
                .collect(),
        }
    }

    /// What every architecture of the workload must agree on (the
    /// cross-architecture conformance envelope), if it runs one program on
    /// several. The scenario ends in a scrub epilogue, so its whole
    /// functional snapshot is timing-independent and the digests must
    /// match. The Ocean kernels end unscrubbed: their snapshots record
    /// write serials and residual directory state that depend on timing
    /// (see `Machine::functional_snapshot`), so there the envelope is the
    /// program's instruction and reference counts, and each architecture's
    /// digest is pinned to the seed commit on its own.
    pub fn envelope(self, o: &Outcome) -> Option<[u64; 2]> {
        match self {
            Workload::KvHotspot => Some([o.digest, 0]),
            Workload::Ocean16 | Workload::Sparse64Sweep => Some([o.instructions, o.references]),
            Workload::ComputePaper => None,
        }
    }
}

/// The sweep options of `sparse64_sweep`.
fn sparse64_options() -> Options {
    Options {
        scale: Scale::Tiny,
        nodes: 64,
        procs_per_node: 4,
        dir_format: DirFormat::Sparse { slots: 8 },
    }
}

fn app_label(app: SuiteApp) -> &'static str {
    match app {
        SuiteApp::OceanBase => "ocean",
        SuiteApp::WaterNsq => "water_nsq",
        SuiteApp::Barnes => "barnes",
        _ => "other",
    }
}

/// What a simulation runs.
#[derive(Debug, Clone, Copy)]
pub enum App {
    /// A suite kernel at a problem scale.
    Suite(SuiteApp, Scale),
    /// The `kv_hotspot` scenario with this seed.
    Scenario(u64),
}

/// One simulation of a workload.
#[derive(Debug, Clone)]
pub struct Sim {
    /// Stable id, also the key into the expected-outcome file.
    pub id: String,
    /// The application.
    pub app: App,
    /// The machine configuration.
    pub cfg: SystemConfig,
}

impl Sim {
    /// Parses the scenario spec, when the simulation has one.
    fn spec(&self) -> Option<ScenarioSpec> {
        match self.app {
            App::Scenario(seed) => {
                let mut spec = ScenarioSpec::parse_str(KV_SPEC).expect("kv_hotspot.json is valid");
                spec.seed = seed;
                Some(spec)
            }
            App::Suite(..) => None,
        }
    }

    /// The application to run, from an already parsed spec if any.
    fn application(&self, spec: Option<ScenarioSpec>) -> Box<dyn Application> {
        match (self.app, spec) {
            (App::Scenario(_), Some(spec)) => Box::new(Scenario::new(spec)),
            (App::Suite(app, scale), _) => app.instantiate(scale),
            (App::Scenario(_), None) => unreachable!("scenario simulations carry a spec"),
        }
    }

    /// Identifies the simulation's program set: simulations with equal
    /// keys on equal machine shapes run identical programs.
    pub fn build_key(&self) -> String {
        match self.app {
            App::Suite(app, _) => app_label(app).to_string(),
            App::Scenario(seed) => format!("kv_hotspot-seed{seed}"),
        }
    }

    /// Builds the simulation's programs (for the layer replays).
    pub fn build(&self) -> AppBuild {
        let app = self.application(self.spec());
        app.build(&shape_of(&self.cfg))
    }
}

/// The workload-facing shape of a configuration.
pub fn shape_of(cfg: &SystemConfig) -> MachineShape {
    MachineShape {
        nodes: cfg.nodes,
        procs_per_node: cfg.procs_per_node,
        page_bytes: cfg.page_bytes,
        line_bytes: cfg.line_bytes,
    }
}

/// Times the application's program build as a span nested in
/// `Machine::new`, which calls it.
struct TimedBuild<'a> {
    app: &'a dyn Application,
    tracer: &'a Tracer,
    span: &'static str,
    run: &'a str,
    parent: Option<SpanId>,
}

impl Application for TimedBuild<'_> {
    fn name(&self) -> String {
        self.app.name()
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        self.tracer
            .span(self.span, self.run, self.parent, |_| self.app.build(shape))
    }
}

/// The simulated outcome of one simulation and its host times.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The simulation's id.
    pub id: String,
    /// Measured-phase simulated cycles.
    pub exec_cycles: u64,
    /// Measured-phase instructions.
    pub instructions: u64,
    /// Protocol handlers executed in the measured phase.
    pub cc_handled: u64,
    /// `FunctionalSnapshot::digest` of the end state.
    pub digest: u64,
    /// Simulated memory references in the measured phase.
    pub references: u64,
    /// Events scheduled over the whole run.
    pub events: u64,
    /// High-water mark of pending events.
    pub max_pending: u64,
    /// Host seconds before the first simulated event.
    pub setup_s: f64,
    /// Host seconds inside `Machine::run`.
    pub run_s: f64,
    /// The full report (per-layer counts); absent for a checkpoint replay.
    pub report: Option<Box<(SimReport, ComponentStats)>>,
}

impl Outcome {
    /// The four fields checked against the expected file.
    pub fn key_fields(&self) -> [u64; 4] {
        [
            self.exec_cycles,
            self.instructions,
            self.cc_handled,
            self.digest,
        ]
    }
}

impl SweepRecord for Outcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Str(self.id.clone())),
            ("exec_cycles", Json::UInt(self.exec_cycles)),
            ("instructions", Json::UInt(self.instructions)),
            ("cc_handled", Json::UInt(self.cc_handled)),
            ("digest", Json::UInt(self.digest)),
            ("references", Json::UInt(self.references)),
            ("events", Json::UInt(self.events)),
            ("max_pending", Json::UInt(self.max_pending)),
            ("setup_s", Json::Num(self.setup_s)),
            ("run_s", Json::Num(self.run_s)),
        ])
    }

    fn from_json(v: &Json) -> Option<Self> {
        let u = |k: &str| v.get(k).and_then(Json::as_u64);
        let f = |k: &str| v.get(k).and_then(Json::as_f64);
        Some(Outcome {
            id: v.get("id")?.as_str()?.to_string(),
            exec_cycles: u("exec_cycles")?,
            instructions: u("instructions")?,
            cc_handled: u("cc_handled")?,
            digest: u("digest")?,
            references: u("references")?,
            events: u("events")?,
            max_pending: u("max_pending")?,
            setup_s: f("setup_s")?,
            run_s: f("run_s")?,
            report: None,
        })
    }
}

/// Observability switched on for a simulation.
#[derive(Debug, Clone, Default)]
pub struct ObsOpts {
    /// Flight-recorder ring capacity, if the recorder is on.
    pub recorder: Option<usize>,
    /// Directory for metrics sidecars, if written.
    pub sidecars: Option<PathBuf>,
}

/// Runs one simulation. Every layer's call site is wrapped in its span,
/// including optional ones the workload skips, so a layer a workload never
/// calls reads at the tracer's floor.
pub fn run_sim(sim: &Sim, tracer: &Tracer, parent: Option<SpanId>, obs: &ObsOpts) -> Outcome {
    let run = sim.id.as_str();
    let start = Instant::now();
    let spec = tracer.span("scenario.parse", run, parent, |_| sim.spec());
    let scenario = spec.is_some();
    let build_span = if scenario {
        "scenario.build"
    } else {
        "core.build"
    };
    let app = sim.application(spec);
    let mut machine = tracer.span("core.machine_new", run, parent, |me| {
        let timed = TimedBuild {
            app: app.as_ref(),
            tracer,
            span: build_span,
            run,
            parent: me,
        };
        Machine::new(sim.cfg.clone(), &timed).expect("benchmark configurations are valid")
    });
    if !scenario {
        // The scenario's program build is the call site a suite kernel
        // skips.
        tracer.span("scenario.build", run, parent, |_| ());
    }
    tracer.span("obs.recorder", run, parent, |_| {
        if let Some(capacity) = obs.recorder {
            machine.enable_flight_recorder(capacity);
        }
    });
    let setup_s = start.elapsed().as_secs_f64();
    let run_start = Instant::now();
    let report = tracer.span("core.run", run, parent, |_| machine.run());
    let run_s = run_start.elapsed().as_secs_f64();
    let (digest, stats) = tracer.span("core.report", run, parent, |_| {
        (
            machine.functional_snapshot().digest(),
            machine.component_stats(),
        )
    });
    tracer.span("obs.blame", run, parent, |_| {
        std::hint::black_box(machine.flight().map(|f| f.blame()));
    });
    tracer.span("obs.sidecar", run, parent, |_| {
        if let Some(dir) = &obs.sidecars {
            let payload = ccnuma::observe::report_metrics(&report);
            ccn_obs::write_sidecar(dir, run, &payload)
                .unwrap_or_else(|e| panic!("writing metrics sidecar for {run}: {e}"));
        }
    });
    Outcome {
        id: sim.id.clone(),
        exec_cycles: report.exec_cycles,
        instructions: report.instructions,
        cc_handled: report.cc_handled,
        digest,
        references: report.references,
        events: machine.events_scheduled(),
        max_pending: machine.max_pending_events() as u64,
        setup_s,
        run_s,
        report: Some(Box::new((report, stats))),
    }
}

/// One pass over a workload.
#[derive(Debug)]
pub struct Pass {
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// Host seconds of set-up: runner construction plus every
    /// simulation's set-up.
    pub setup_s: f64,
    /// Per simulation, in `sims` order: the outcome, or the panic message.
    pub outcomes: Vec<Result<Outcome, String>>,
    /// Wall seconds of the pooled sweep (`sparse64_sweep` only).
    pub sweep_s: Option<f64>,
}

/// Runs every simulation of `workload` once.
pub fn run_pass(
    workload: Workload,
    sims: &[Sim],
    scratch: &Path,
    tracer: &Tracer,
    recorder: bool,
) -> Pass {
    let start = Instant::now();
    let (outcomes, runner_s, sweep_s) = match workload {
        Workload::Sparse64Sweep => {
            let (outcomes, runner_s, sweep_s) = run_sweep(sims, scratch, tracer, recorder);
            (outcomes, runner_s, Some(sweep_s))
        }
        _ => {
            let outcomes = sims
                .iter()
                .map(|sim| {
                    let out = guarded(|| run_sim(sim, tracer, None, &ObsOpts::default()));
                    // The layers this workload never calls still get their
                    // (empty) span, so their times read at the floor.
                    tracer.span("harness.pool", &sim.id, None, |_| ());
                    tracer.span("harness.checkpoint", &sim.id, None, |_| ());
                    out
                })
                .collect();
            (outcomes, 0.0, None)
        }
    };
    let setup_s = runner_s
        + outcomes
            .iter()
            .filter_map(|o| o.as_ref().ok())
            .map(|o| o.setup_s)
            .sum::<f64>();
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        setup_s,
        outcomes,
        sweep_s,
    }
}

/// Runs `f`, turning a panic into its message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// The `sparse64_sweep` pass: one sweep of all four architectures on the
/// harness pool with a checkpoint, metrics sidecars and (when `recorder`)
/// flight-recorder blame, then a resume pass that must replay every job
/// from the checkpoint with identical records. Returns the outcomes, the
/// runner construction time and the sweep's wall time.
fn run_sweep(
    sims: &[Sim],
    scratch: &Path,
    tracer: &Tracer,
    recorder: bool,
) -> (Vec<Result<Outcome, String>>, f64, f64) {
    let checkpoint = scratch.join("sweep.jsonl");
    let sidecars = scratch.join("metrics");
    let _ = std::fs::remove_file(&checkpoint);
    let _ = std::fs::remove_dir_all(&sidecars);
    let runner_start = Instant::now();
    let make_runner = || {
        Runner::parallel(sparse64_options(), SWEEP_WORKERS)
            .with_progress(false)
            .with_max_attempts(1)
            .with_checkpoint(&checkpoint)
    };
    let runner = make_runner();
    let runner_s = runner_start.elapsed().as_secs_f64();
    let obs = ObsOpts {
        recorder: recorder.then_some(BLAME_RING),
        sidecars: Some(sidecars),
    };
    let jobs: Vec<(String, &Sim)> = sims.iter().map(|s| (s.id.clone(), s)).collect();
    let full: Mutex<BTreeMap<String, Outcome>> = Mutex::new(BTreeMap::new());
    let sweep_start = Instant::now();
    let swept = tracer.span("harness.pool", "sparse64_sweep", None, |pool| {
        guarded(|| {
            runner.run_keyed(jobs.clone(), |sim: &&Sim| {
                let out = tracer.span("harness.job", &sim.id, pool, |job| {
                    run_sim(sim, tracer, job, &obs)
                });
                full.lock()
                    .expect("outcome map poisoned")
                    .insert(out.id.clone(), out.clone());
                Outcome {
                    report: None,
                    ..out
                }
            })
        })
    });
    let sweep_s = sweep_start.elapsed().as_secs_f64();
    let resumed = tracer.span("harness.checkpoint", "sparse64_sweep", None, |_| {
        guarded(|| {
            let resume = make_runner();
            let records = resume.run_keyed(jobs.clone(), |sim: &&Sim| -> Outcome {
                panic!("{} was not replayed from the checkpoint", sim.id)
            });
            (records, resume.stats().executed)
        })
    });
    let mut full = full.into_inner().expect("outcome map poisoned");
    let outcomes = match (swept, resumed) {
        (Ok(records), Ok((replayed, 0))) => records
            .into_iter()
            .zip(replayed)
            .map(|(rec, rep)| {
                if rec.to_json() != rep.to_json() {
                    return Err(format!(
                        "{}: checkpoint replay differs from the run",
                        rec.id
                    ));
                }
                full.remove(&rec.id)
                    .ok_or_else(|| format!("{}: no outcome recorded", rec.id))
            })
            .collect(),
        (Err(e), _) | (_, Err(e)) => sims.iter().map(|_| Err(e.clone())).collect(),
        (Ok(_), Ok((_, executed))) => sims
            .iter()
            .map(|_| Err(format!("resume re-executed {executed} job(s)")))
            .collect(),
    };
    (outcomes, runner_s, sweep_s)
}

/// Set-up alone, without running: what `setup_s` samples when a run has
/// too few passes to give a steady median.
pub fn setup_only(workload: Workload, sims: &[Sim]) -> f64 {
    let mut total = 0.0;
    if workload == Workload::Sparse64Sweep {
        let start = Instant::now();
        std::hint::black_box(
            Runner::parallel(sparse64_options(), SWEEP_WORKERS).with_progress(false),
        );
        total += start.elapsed().as_secs_f64();
    }
    for sim in sims {
        let start = Instant::now();
        let app = sim.application(sim.spec());
        let machine = Machine::new(sim.cfg.clone(), app.as_ref()).expect("valid configuration");
        total += start.elapsed().as_secs_f64();
        drop(std::hint::black_box(machine));
    }
    total
}
