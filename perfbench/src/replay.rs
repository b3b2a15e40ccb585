//! Component replays: each layer's public API driven with the workload's
//! own reference stream, outside the timed simulator.
//!
//! The stream comes from the workload's built programs, expanded by
//! `SegmentProgram::next_op` (the `workloads` layer) and probed through a
//! per-processor L1/L2 pair at the configuration's geometry (`mem`). The
//! L2 misses that come out drive the home directories (`protocol`), whose
//! invalidation and forwarding fan-out together with the misses make the
//! message stream for the network (`net`), the coherence controllers
//! (`controller`) and the node buses (`bus`). The event wheel (`sim`) is
//! churned at the run's own pending population.
//!
//! The replay is open-loop and coherence-free in the caches, so its miss
//! counts approximate the simulation's; the layer *counts* the benchmark
//! reports come from the simulation itself, and the replay gives host
//! time per operation.

use std::time::Instant;

use ccn_bus::SmpBus;
use ccn_controller::{CoherenceController, EngineRole};
use ccn_mem::{AccessKind, AddressMap, LineAddr, LineState, NodeId, PageMap, SetAssocCache};
use ccn_net::Network;
use ccn_protocol::directory::{
    DirAction, DirOutcome, DirRequest, DirRequestKind, DirState, Directory, WritebackOutcome,
};
use ccn_protocol::msg::HEADER_BYTES;
use ccn_protocol::MsgClass;
use ccn_sim::{Cycle, EventQueue, SplitMix64};
use ccn_workloads::segment::static_op_counts;
use ccn_workloads::{AppBuild, Op, SegmentProgram};
use ccnuma::SystemConfig;

use crate::trace::{SpanId, Tracer};

/// Operations each processor expands per round-robin turn.
const CHUNK: usize = 4096;

/// Schedule/pop pairs of the event-wheel replay.
const WHEEL_OPS: u64 = 2_000_000;

/// Host time and work of each replayed layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Seconds inside `SegmentProgram::next_op`.
    pub workloads_s: f64,
    /// Operations expanded.
    pub ops: u64,
    /// Seconds inside `SetAssocCache::access`/`fill`/state updates.
    pub mem_s: f64,
    /// Cache probes made.
    pub probes: u64,
    /// Seconds inside `Directory` calls.
    pub protocol_s: f64,
    /// Directory calls made.
    pub dir_ops: u64,
    /// Seconds inside `Network::send`.
    pub net_s: f64,
    /// Messages sent.
    pub msgs: u64,
    /// Seconds inside `CoherenceController` enqueue/dispatch/complete.
    pub controller_s: f64,
    /// Handlers dispatched.
    pub dispatches: u64,
    /// Seconds inside `SmpBus` address and data phases.
    pub bus_s: f64,
    /// Bus transactions.
    pub bus_txns: u64,
    /// Seconds inside `EventQueue` schedule/pop.
    pub sim_s: f64,
    /// Schedule/pop pairs.
    pub wheel_ops: u64,
}

impl LayerTimes {
    /// Adds another replay's times and counts.
    pub fn add(&mut self, o: &LayerTimes) {
        self.workloads_s += o.workloads_s;
        self.ops += o.ops;
        self.mem_s += o.mem_s;
        self.probes += o.probes;
        self.protocol_s += o.protocol_s;
        self.dir_ops += o.dir_ops;
        self.net_s += o.net_s;
        self.msgs += o.msgs;
        self.controller_s += o.controller_s;
        self.dispatches += o.dispatches;
        self.bus_s += o.bus_s;
        self.bus_txns += o.bus_txns;
        self.sim_s += o.sim_s;
        self.wheel_ops += o.wheel_ops;
    }
}

/// One L2 miss of the replayed stream.
#[derive(Debug, Clone, Copy)]
struct Miss {
    node: u16,
    home: u16,
    line: u64,
    kind: DirRequestKind,
    /// A dirty line the fill evicted (written back before the request).
    victim: Option<(u64, u16)>,
}

/// A protocol message derived from the miss stream. Every message runs
/// between a line's home and one other node.
#[derive(Debug, Clone, Copy)]
struct Msg {
    from: u16,
    to: u16,
    /// Whether `to` is the line's home (its local engine serves it).
    to_home: bool,
    line: u64,
    bytes: u64,
    class: MsgClass,
}

impl Msg {
    /// A message from `node` to the line's `home`.
    fn to_home(node: u16, home: u16, line: u64, bytes: u64, class: MsgClass) -> Msg {
        Msg {
            from: node,
            to: home,
            to_home: true,
            line,
            bytes,
            class,
        }
    }

    /// A message from the line's `home` to `node`.
    fn from_home(home: u16, node: u16, line: u64, bytes: u64, class: MsgClass) -> Msg {
        Msg {
            from: home,
            to: node,
            to_home: false,
            line,
            bytes,
            class,
        }
    }
}

/// Replays `build` (programs for `cfg`) through every component layer.
/// `occupancy` is the mean handler occupancy, in cycles, charged per
/// dispatched handler; `pending` is the event population the wheel is
/// churned at.
///
/// # Errors
///
/// Fails when a program's expanded instruction or reference count differs
/// from `static_op_counts` of its segments.
pub fn replay(
    cfg: &SystemConfig,
    build: &AppBuild,
    occupancy: Cycle,
    pending: usize,
    tracer: &Tracer,
    run: &str,
    parent: Option<SpanId>,
) -> Result<LayerTimes, String> {
    let mut t = LayerTimes::default();
    let map = address_map(cfg, build);
    let misses = tracer.span("replay.stream", run, parent, |_| {
        stream(cfg, build, &map, &mut t)
    })?;
    let msgs = tracer.span("replay.protocol", run, parent, |_| {
        protocol(cfg, &misses, &mut t)
    });
    tracer.span("replay.net", run, parent, |_| network(cfg, &msgs, &mut t));
    tracer.span("replay.controller", run, parent, |_| {
        controllers(cfg, &misses, &msgs, occupancy, &mut t)
    });
    tracer.span("replay.bus", run, parent, |_| {
        buses(cfg, &misses, &msgs, &mut t)
    });
    tracer.span("replay.sim", run, parent, |_| wheel(pending, &mut t));
    Ok(t)
}

/// The machine's address map for this build (round-robin pages plus the
/// build's explicit placements), as `Machine::new` lays it out.
fn address_map(cfg: &SystemConfig, build: &AppBuild) -> AddressMap {
    let mut pages = PageMap::round_robin(cfg.nodes as u16);
    for &(page, node) in &build.placements {
        pages.place(page, NodeId(node));
    }
    AddressMap::new(cfg.line_bytes, cfg.page_bytes, pages)
}

/// Expands every program round-robin, `CHUNK` operations per turn, and
/// probes each reference through that processor's L1 and L2. Returns the
/// L2 miss stream; checks each program's totals against its static count.
fn stream(
    cfg: &SystemConfig,
    build: &AppBuild,
    map: &AddressMap,
    t: &mut LayerTimes,
) -> Result<Vec<Miss>, String> {
    let n = build.programs.len();
    let mut programs: Vec<SegmentProgram> = build
        .programs
        .iter()
        .map(|segs| SegmentProgram::new(segs.clone()))
        .collect();
    let mut caches: Vec<(SetAssocCache, SetAssocCache)> = (0..n)
        .map(|_| {
            (
                SetAssocCache::new(cfg.l1_geometry()),
                SetAssocCache::new(cfg.l2_geometry()),
            )
        })
        .collect();
    let mut counts = vec![(0u64, 0u64); n];
    let mut done = vec![false; n];
    let mut buf: Vec<Op> = Vec::with_capacity(CHUNK);
    let mut misses = Vec::new();
    let mut live = n;
    while live > 0 {
        for p in 0..n {
            if done[p] {
                continue;
            }
            buf.clear();
            let gen = Instant::now();
            while buf.len() < CHUNK {
                match programs[p].next_op() {
                    Some(op) => {
                        let (instructions, references) = match op {
                            Op::Read(_) | Op::Write(_) => (1, 1),
                            Op::Compute(c) => (c as u64, 0),
                            _ => (0, 0),
                        };
                        counts[p].0 += instructions;
                        counts[p].1 += references;
                        buf.push(op);
                    }
                    None => {
                        done[p] = true;
                        live -= 1;
                        break;
                    }
                }
            }
            t.workloads_s += gen.elapsed().as_secs_f64();
            t.ops += buf.len() as u64;
            let node = (p / cfg.procs_per_node) as u16;
            let (l1, l2) = &mut caches[p];
            let probe = Instant::now();
            for &op in &buf {
                let (addr, write) = match op {
                    Op::Read(a) => (a, false),
                    Op::Write(a) => (a, true),
                    _ => continue,
                };
                let line = map.line_of(addr);
                if let Some((kind, victim)) = probe_line(l1, l2, line, write, &mut t.probes) {
                    misses.push(Miss {
                        node,
                        home: map.home_of(line).0,
                        line: line.0,
                        kind,
                        victim: victim.map(|v| (v.0, map.home_of(v).0)),
                    });
                }
            }
            t.mem_s += probe.elapsed().as_secs_f64();
        }
    }
    for (p, segs) in build.programs.iter().enumerate() {
        let expected = static_op_counts(segs);
        if counts[p] != expected {
            return Err(format!(
                "processor {p}: replay expanded {:?} (instructions, references), static count {:?}",
                counts[p], expected
            ));
        }
    }
    Ok(misses)
}

/// One reference through an inclusive L1/L2 pair. Returns the directory
/// request an L2 miss makes and the dirty line its fill evicted.
fn probe_line(
    l1: &mut SetAssocCache,
    l2: &mut SetAssocCache,
    line: LineAddr,
    write: bool,
    probes: &mut u64,
) -> Option<(DirRequestKind, Option<LineAddr>)> {
    let kind = if write {
        AccessKind::Write
    } else {
        AccessKind::Read
    };
    let ok = |s: LineState| if write { s.writable() } else { s.readable() };
    let want = if write {
        LineState::Modified
    } else {
        LineState::Shared
    };
    *probes += 1;
    let s1 = l1.access(line, kind);
    if ok(s1) {
        if write && s1 != LineState::Modified {
            l1.set_state(line, LineState::Modified);
            l2.set_state(line, LineState::Modified);
        }
        return None;
    }
    *probes += 1;
    let s2 = l2.access(line, kind);
    let mut result = None;
    if s2 == LineState::Invalid {
        *probes += 1;
        let victim = l2.fill(line, want, 0).and_then(|ev| {
            l1.invalidate(ev.line);
            ev.state.dirty().then_some(ev.line)
        });
        let req = if write {
            DirRequestKind::ReadExcl
        } else {
            DirRequestKind::Read
        };
        result = Some((req, victim));
    } else if !ok(s2) {
        l2.set_state(line, want);
        result = Some((DirRequestKind::Upgrade, None));
    } else if write && s2 != LineState::Modified {
        l2.set_state(line, LineState::Modified);
    }
    if s1 == LineState::Invalid {
        *probes += 1;
        l1.fill(line, l2.state_of(line), 0);
    } else {
        l1.set_state(line, l2.state_of(line));
    }
    result
}

/// Drives each miss through its home directory as one complete
/// transaction (write-back of the evicted line, request, invalidation
/// acks, forwarded-owner reply, sparse recalls) and returns the message
/// stream the transactions make.
fn protocol(cfg: &SystemConfig, misses: &[Miss], t: &mut LayerTimes) -> Vec<Msg> {
    let nodes = cfg.nodes as u16;
    let lines = (misses.len() / cfg.nodes).max(1024);
    let mut dirs: Vec<Directory> = (0..nodes)
        .map(|n| Directory::with_format(NodeId(n), lines, cfg.dir_format, nodes))
        .collect();
    let data = HEADER_BYTES + cfg.line_bytes;
    let mut msgs = Vec::with_capacity(misses.len() * 3);
    let mut ops = 0u64;
    let start = Instant::now();
    for m in misses {
        if let Some((victim, vhome)) = m.victim {
            let vdir = &mut dirs[vhome as usize];
            let v = LineAddr(victim);
            if vdir.state_of(v) == DirState::Dirty(NodeId(m.node)) && !vdir.is_busy(v) {
                ops += 1;
                vdir.writeback(v, NodeId(m.node));
                settle(vdir, v, &mut ops, &mut msgs, data);
                msgs.push(Msg::to_home(
                    m.node,
                    vhome,
                    victim,
                    data,
                    MsgClass::NetRequest,
                ));
            }
        }
        let dir = &mut dirs[m.home as usize];
        let line = LineAddr(m.line);
        let req = DirRequest {
            kind: m.kind,
            requester: NodeId(m.node),
        };
        if m.home != m.node {
            msgs.push(Msg::to_home(
                m.node,
                m.home,
                m.line,
                HEADER_BYTES,
                MsgClass::NetRequest,
            ));
        }
        transact(dir, line, req, &mut ops, &mut msgs, data);
        settle(dir, line, &mut ops, &mut msgs, data);
        if m.home != m.node {
            msgs.push(Msg::from_home(
                m.home,
                m.node,
                m.line,
                data,
                MsgClass::NetResponse,
            ));
        }
    }
    t.protocol_s += start.elapsed().as_secs_f64();
    t.dir_ops += ops;
    msgs
}

/// One request to completion at its home directory.
fn transact(
    dir: &mut Directory,
    line: LineAddr,
    req: DirRequest,
    ops: &mut u64,
    msgs: &mut Vec<Msg>,
    data: u64,
) {
    let home = dir.home().0;
    *ops += 1;
    match dir.request(line, req) {
        DirOutcome::Act(DirAction::Supply { invalidate, .. })
        | DirOutcome::Act(DirAction::GrantUpgrade { invalidate }) => {
            for target in invalidate.iter().flat_map(|set| set.iter()) {
                msgs.push(Msg::from_home(
                    home,
                    target.0,
                    line.0,
                    HEADER_BYTES,
                    MsgClass::NetRequest,
                ));
                msgs.push(Msg::to_home(
                    target.0,
                    home,
                    line.0,
                    HEADER_BYTES,
                    MsgClass::NetResponse,
                ));
                *ops += 1;
                dir.inv_ack(line);
            }
        }
        DirOutcome::Act(DirAction::Forward { owner }) => {
            msgs.push(Msg::from_home(
                home,
                owner.0,
                line.0,
                HEADER_BYTES,
                MsgClass::NetRequest,
            ));
            msgs.push(Msg::to_home(
                owner.0,
                home,
                line.0,
                data,
                MsgClass::NetResponse,
            ));
            *ops += 1;
            if req.kind == DirRequestKind::Read {
                dir.sharing_writeback(line, owner);
            } else {
                dir.ownership_ack(line, owner);
            }
        }
        DirOutcome::Act(DirAction::AwaitWriteback) => {
            *ops += 1;
            if let WritebackOutcome::ReleasesWaiter { request } = dir.writeback(line, req.requester)
            {
                transact(dir, line, request, ops, msgs, data);
            }
        }
        DirOutcome::Busy => {}
    }
}

/// Replays anything buffered behind `line` and drains sparse-directory
/// recalls (each target acks at once).
fn settle(dir: &mut Directory, line: LineAddr, ops: &mut u64, msgs: &mut Vec<Msg>, data: u64) {
    let home = dir.home().0;
    loop {
        *ops += 1;
        if let Some(req) = dir.pop_pending_if_idle(line) {
            transact(dir, line, req, ops, msgs, data);
            continue;
        }
        let Some(recall) = dir.take_recall() else {
            return;
        };
        *ops += 1;
        for target in recall.targets.iter() {
            msgs.push(Msg::from_home(
                home,
                target.0,
                recall.line.0,
                HEADER_BYTES,
                MsgClass::NetRequest,
            ));
            msgs.push(Msg::to_home(
                target.0,
                home,
                recall.line.0,
                HEADER_BYTES,
                MsgClass::NetResponse,
            ));
            *ops += 1;
            dir.inv_ack(recall.line);
        }
        settle(dir, recall.line, ops, msgs, data);
    }
}

/// Sends every inter-node message through the network, one per 8 cycles.
fn network(cfg: &SystemConfig, msgs: &[Msg], t: &mut LayerTimes) {
    let mut net = Network::new(cfg.nodes, cfg.net);
    let start = Instant::now();
    let mut sink = 0u64;
    for (i, m) in msgs.iter().enumerate().filter(|(_, m)| m.from != m.to) {
        sink ^= net.send(i as Cycle * 8, NodeId(m.from), NodeId(m.to), m.bytes);
    }
    std::hint::black_box(sink);
    t.net_s += start.elapsed().as_secs_f64();
    t.msgs += net.messages();
}

/// Feeds each miss (as a bus-side request at its node) and each message
/// (at its destination) to that node's coherence controller, dispatching
/// and completing a handler of `occupancy` cycles per request.
fn controllers(
    cfg: &SystemConfig,
    misses: &[Miss],
    msgs: &[Msg],
    occupancy: Cycle,
    t: &mut LayerTimes,
) {
    let mut ccs: Vec<CoherenceController<u32>> = (0..cfg.nodes)
        .map(|_| CoherenceController::with_queue_capacity(cfg.engines, 16))
        .collect();
    let role = |node: u16, home: u16| {
        if node == home {
            EngineRole::Local
        } else {
            EngineRole::Remote
        }
    };
    let mut handled = 0u64;
    let start = Instant::now();
    let mut handle = |node: u16, r: EngineRole, line: u64, class: MsgClass, now: Cycle| {
        let cc = &mut ccs[node as usize];
        let idx = cc.engine_for(r, line);
        cc.enqueue(r, line, class, now, 0);
        let at = now.max(cc.busy_until(idx));
        if cc.dispatch(idx, at).is_some() {
            cc.complete_handler(idx, at, at + occupancy);
            handled += 1;
        }
    };
    let mut now: Cycle = 0;
    for m in misses {
        now += 8;
        handle(
            m.node,
            role(m.node, m.home),
            m.line,
            MsgClass::BusRequest,
            now,
        );
    }
    for m in msgs {
        now += 8;
        let r = if m.to_home {
            EngineRole::Local
        } else {
            EngineRole::Remote
        };
        handle(m.to, r, m.line, m.class, now);
    }
    t.controller_s += start.elapsed().as_secs_f64();
    t.dispatches += handled;
}

/// Each miss arbitrates an address slot and moves a line on its node's
/// bus; each message arriving at a node crosses that node's bus too.
fn buses(cfg: &SystemConfig, misses: &[Miss], msgs: &[Msg], t: &mut LayerTimes) {
    let mut buses: Vec<SmpBus> = (0..cfg.nodes).map(|_| SmpBus::new(cfg.bus)).collect();
    let start = Instant::now();
    let mut sink = 0u64;
    let mut now: Cycle = 0;
    let arrivals = msgs.iter().map(|m| (m.to, m.bytes));
    for (node, bytes) in misses
        .iter()
        .map(|m| (m.node, cfg.line_bytes))
        .chain(arrivals)
    {
        now += 8;
        let bus = &mut buses[node as usize];
        let strobe = bus.address_phase(now);
        sink ^= bus.data_transfer(bus.snoop_done(strobe), bytes).end;
    }
    std::hint::black_box(sink);
    t.bus_s += start.elapsed().as_secs_f64();
    t.bus_txns += buses.iter().map(SmpBus::transactions).sum::<u64>();
}

/// Churns an event wheel holding `pending` events: each pop schedules one
/// replacement 1–256 cycles ahead, as protocol and processor events do.
fn wheel(pending: usize, t: &mut LayerTimes) {
    let pending = pending.max(1);
    let mut q: EventQueue<u32> = EventQueue::with_capacity(pending);
    let mut rng = SplitMix64::new(pending as u64);
    for i in 0..pending {
        q.schedule(1 + rng.next_u64() % 256, i as u32);
    }
    let start = Instant::now();
    for _ in 0..WHEEL_OPS {
        let (at, ev) = q.pop().expect("the wheel never drains");
        q.schedule(at + 1 + rng.next_u64() % 256, ev);
    }
    t.sim_s += start.elapsed().as_secs_f64();
    t.wheel_ops += WHEEL_OPS;
}
