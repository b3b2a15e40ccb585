//! Writing your own workload: implement [`Application`] with segment
//! programs and run it through the simulator.
//!
//! The example models a work-stealing task pipeline: a shared task array
//! is produced by even processors and consumed by odd ones, with a lock
//! per queue slot group — a pattern not in the SPLASH-2 suite. Consumers
//! scan only the task headers, which a single multi-row walk describes.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use ccnuma_repro::ccn_workloads::AddressSpace;
use ccnuma_repro::ccn_workloads::{Access, AppBuild, Application, MachineShape, Segment};
use ccnuma_repro::ccnuma::{penalty, Architecture, Machine, SystemConfig};

/// A producer/consumer task pipeline over a shared circular buffer.
struct TaskPipeline {
    tasks: u32,
    task_bytes: u64,
    rounds: u32,
}

impl Application for TaskPipeline {
    fn name(&self) -> String {
        "task-pipeline".to_string()
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        let mut space = AddressSpace::new(shape.page_bytes);
        let buffer = space.alloc(self.tasks as u64 * self.task_bytes);
        let nprocs = shape.nprocs();
        let mut programs = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let mut segs = vec![Segment::Barrier(0), Segment::StartMeasurement];
            for round in 0..self.rounds {
                let producer = p % 2 == 0;
                // Each pair of processors shares a slice of the buffer.
                let pair = (p / 2) as u64;
                let pairs = nprocs.div_ceil(2) as u64;
                let slice_tasks = self.tasks as u64 / pairs;
                let base = buffer + pair * slice_tasks * self.task_bytes;
                let lock = (pair % 16) as u32;
                segs.push(Segment::Lock(lock));
                // Producers fill whole tasks. Consumers read only each
                // task's 16-byte header: one walk with a row per task,
                // `task_bytes` apart, describes the whole strided scan.
                segs.push(if producer {
                    Segment::Walk {
                        base,
                        bytes: slice_tasks * self.task_bytes,
                        stride: 16,
                        rows: 1,
                        pitch: 0,
                        access: Access::Write,
                        work: 12,
                    }
                } else {
                    Segment::Walk {
                        base,
                        bytes: 16,
                        stride: 8,
                        rows: slice_tasks as u32,
                        pitch: self.task_bytes,
                        access: Access::Read,
                        work: 30,
                    }
                });
                segs.push(Segment::Unlock(lock));
                segs.push(Segment::Barrier(1 + round));
            }
            programs.push(segs);
        }
        AppBuild {
            programs,
            placements: space.into_placements(),
        }
    }
}

fn main() {
    let app = TaskPipeline {
        tasks: 4096,
        task_bytes: 64,
        rounds: 6,
    };
    println!(
        "custom workload '{}' on the four architectures:\n",
        app.name()
    );
    let mut hwc_cycles = 0;
    for arch in Architecture::all() {
        let cfg = SystemConfig::small().with_architecture(arch);
        let report = Machine::new(cfg, &app).expect("valid config").run();
        if arch == Architecture::Hwc {
            hwc_cycles = report.exec_cycles;
        }
        println!(
            "{:<5} exec = {:>9} cycles   messages = {:>6}   locks (total/contended) = {}/{}",
            arch.name(),
            report.exec_cycles,
            report.messages,
            report.locks.0,
            report.locks.1
        );
    }
    let ppc = Machine::new(
        SystemConfig::small().with_architecture(Architecture::Ppc),
        &app,
    )
    .unwrap()
    .run();
    println!(
        "\nPP penalty for this workload: {:.1}%",
        penalty(hwc_cycles, ppc.exec_cycles) * 100.0
    );
}
