//! The three simulator workloads.
//!
//! Each repetition generates the seed's open-loop schedule, builds the
//! cluster, and pumps the schedule through a scheduler. Everything a
//! repetition counts in simulated units (ticks, messages, bits, congestion,
//! faults) is a pure function of the seed; only the host seconds vary.
//!
//! The seed draws the traffic (arrivals, clients, ops, priorities) and, on
//! the async workload, the adversary's choices and the fault draws. The
//! cluster itself — overlay ids, hence tree shape and DHT routes — is the
//! deployment under test and is built from [`CLUSTER_SEED`] on every run.
//! Skeap's tick latencies are set almost entirely by the tree: across
//! seeds that also rebuilt the cluster, p50 ranged 146–196 ticks at
//! n = 1024, while on one cluster five traffic seeds all gave 173.
//!
//! The untraced repetition drives the bare nodes. The traced one drives
//! the same schedule through [`Timed`] wrappers and times its own
//! calls, and its simulated counts must equal the untraced ones exactly.

use std::time::Instant;

use crate::calib::Pacer;
use crate::ledger::{self, QueueNode, Timed};
use dpq_core::{ElemId, Element, History, OpKind, OpReturn};
use dpq_semantics::{check_local_consistency, rank_error, replay, RankOrder, ReplayMode};
use dpq_sim::{
    AsyncConfig, AsyncScheduler, FaultPlan, LogHistogram, NullTelemetry, NullTracer,
    RandomAdversary, Reliable, SyncScheduler,
};
use dpq_workload::{MixKind, OpenLoopSpec, Schedule, WorkOp};

/// Seed of every workload's overlay and node ids.
pub const CLUSTER_SEED: u64 = 1;
/// Mixed into the seed for the adversary's stream.
const ADVERSARY_SALT: u64 = 0xAD5E_25A1;
/// Scheduler steps per simulated tick on the async workload.
const STEPS_PER_TICK: u64 = 256;
/// Retransmission timeout of the async workload's `Reliable` links, steps.
const ASYNC_RTO: u64 = 1024;
/// Collapse guard: an async run with more messages in flight than this is
/// cut off and its unfinished ops count as failed. The workload runs at
/// about a hundred; a retransmit collapse reaches millions.
const MAX_IN_FLIGHT: usize = 200_000;
/// Drain budget after the last arrival, as a multiple of the horizon.
const DRAIN_FACTOR: u64 = 8;

/// The simulator workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// Skeap on the synchronous scheduler.
    SkeapSync,
    /// Seap on the synchronous scheduler.
    SeapSync,
    /// Skeap over `Reliable` links on the faulty asynchronous adversary.
    SkeapAsyncFaulty,
}

impl SimKind {
    /// The open-loop spec of one repetition.
    ///
    /// Horizons are sized so one repetition takes a second or two on a
    /// 2-vCPU host, so a run holds several (and reports their median).
    /// Seap runs on n = 256: its latency is set by its insert/delete phases
    /// (about 1000 ticks each at any load below the knee), and a horizon
    /// must hold many phases for its counts to settle across seeds. At
    /// n = 1024 a 5000-tick horizon spread p50 by 11%; at n = 256 a
    /// 10000-tick one spread p50 by 4% and msgs/op by 5% over ten seeds.
    fn spec(self, seed: u64) -> OpenLoopSpec {
        let base = OpenLoopSpec {
            n: 1024,
            clients: 100_000,
            rate: 128.0,
            ticks: 400,
            ticks_per_round: 1,
            insert_ratio: 0.6,
            n_prios: 16,
            arrivals: dpq_workload::ArrivalSpec::Poisson,
            mix: MixKind::Zipf { s: 1.0 },
            seed,
        };
        match self {
            SimKind::SkeapSync => base,
            SimKind::SeapSync => OpenLoopSpec {
                n: 256,
                rate: 4.0,
                ticks: 15_000,
                n_prios: 1 << 20,
                mix: MixKind::Uniform,
                ..base
            },
            SimKind::SkeapAsyncFaulty => OpenLoopSpec {
                n: 64,
                rate: 1.0,
                ticks: 10_000,
                ..base
            },
        }
    }

    fn fault_plan(seed: u64) -> FaultPlan {
        FaultPlan::uniform(seed ^ 0xFA17_5EED, 0.05, 0.02).with_delay(0.05, 256)
    }
}

/// Every count a repetition produces in simulated units. Two runs of one
/// seed must agree on all of it, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    /// Ops in the schedule.
    pub offered: u64,
    /// Ops completed.
    pub completed: u64,
    /// Rounds (sync) or scheduler steps (async) consumed.
    pub time: u64,
    /// Messages delivered (on async: every `Reliable` frame).
    pub messages: u64,
    /// Payload bits delivered.
    pub bits: u64,
    /// Max messages one node handled in one round (sync only).
    pub congestion: u64,
    /// Latency distribution, simulated ticks × `lat_scale`.
    pub latency: LogHistogram,
    /// Divisor turning `latency` values into ticks.
    pub lat_scale: u64,
    /// Fault layer: (dropped, duplicated, delayed).
    pub faults: (u64, u64, u64),
    /// Transport: (retransmits, dup_suppressed).
    pub transport: (u64, u64),
    /// Did the collapse guard or the drain budget cut the run?
    pub cut: bool,
}

impl Exact {
    /// Latency quantile in ticks.
    pub fn lat_ticks(&self, q: f64) -> f64 {
        self.latency.quantile(q) as f64 / self.lat_scale as f64
    }
}

/// Host seconds of one repetition's phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Schedule generation.
    pub schedule_s: f64,
    /// Cluster build (overlay, nodes, scheduler).
    pub build_s: f64,
    /// The timed drive: injections, stepping, drain.
    pub drive_s: f64,
    /// `drive_s` at nominal host speed (see `calib.rs`); equal to
    /// `drive_s` on traced repetitions, which are not probed.
    pub drive_nominal_s: f64,
    /// Host slowdown probed just before the set-up (1.0 when traced).
    pub setup_slowdown: f64,
}

/// The traced repetition's per-layer view.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Time inside the scheduler's step calls.
    pub step_s: f64,
    /// Per-round step time, nanoseconds (sync only).
    pub round_ns: LogHistogram,
    /// Time issuing injections into nodes.
    pub inject_s: f64,
    /// Peak messages in flight, sampled once per tick (async only).
    pub in_flight_peak: u64,
    /// Ledger totals, indexed by `Slot as usize`.
    pub slots: [ledger::SlotTotal; ledger::SLOTS],
}

/// One repetition's results.
pub struct Rep {
    /// Simulated counts.
    pub exact: Exact,
    /// Host seconds.
    pub phases: Phases,
    /// Set on the traced repetition only.
    pub layers: Option<Layers>,
    /// Correctness verdict, when the repetition was asked to check.
    pub check: Option<Result<(), String>>,
}

/// What a repetition hands its drive loop.
struct Run {
    spec: OpenLoopSpec,
    schedule: Schedule,
    schedule_s: f64,
    pacer: Pacer,
    traced: bool,
    check: Option<Order>,
}

/// Run one repetition of `kind` for `seed`.
pub fn rep(kind: SimKind, seed: u64, traced: bool, check: bool) -> Rep {
    let pacer = Pacer::start(!traced);
    let t0 = Instant::now();
    let spec = kind.spec(seed);
    let schedule = Schedule::generate(&spec);
    let order = match kind {
        SimKind::SeapSync => Order::Seap,
        SimKind::SkeapSync | SimKind::SkeapAsyncFaulty => Order::Skeap,
    };
    let run = Run {
        schedule_s: t0.elapsed().as_secs_f64(),
        spec: spec.clone(),
        schedule,
        pacer,
        traced,
        check: check.then_some(order),
    };
    let reliable = |nodes| Reliable::wrap_all(nodes, ASYNC_RTO);
    match (kind, traced) {
        (SimKind::SkeapSync, false) => sync_rep(run, || skeap_nodes(&spec)),
        (SimKind::SkeapSync, true) => sync_rep(run, || wrap(skeap_nodes(&spec))),
        (SimKind::SeapSync, false) => sync_rep(run, || seap_nodes(&spec)),
        (SimKind::SeapSync, true) => sync_rep(run, || wrap(seap_nodes(&spec))),
        (SimKind::SkeapAsyncFaulty, false) => async_rep(run, || reliable(skeap_nodes(&spec))),
        (SimKind::SkeapAsyncFaulty, true) => async_rep(run, || {
            wrap(Reliable::wrap_all(wrap(skeap_nodes(&spec)), ASYNC_RTO))
        }),
    }
}

/// Host seconds of one set-up on its own — schedule generation plus the
/// cluster and scheduler build, as an untraced repetition does them —
/// which the run repeats to give `setup_s` a median of many samples.
pub fn setup_secs(kind: SimKind, seed: u64) -> f64 {
    let t0 = Instant::now();
    let spec = kind.spec(seed);
    let schedule = Schedule::generate(&spec);
    let secs = |built: &dyn std::any::Any| {
        std::hint::black_box((built, &schedule));
        t0.elapsed().as_secs_f64()
    };
    match kind {
        SimKind::SkeapSync => secs(&sync_sched(skeap_nodes(&spec), &spec)),
        SimKind::SeapSync => secs(&sync_sched(seap_nodes(&spec), &spec)),
        SimKind::SkeapAsyncFaulty => secs(&async_sched(
            Reliable::wrap_all(skeap_nodes(&spec), ASYNC_RTO),
            seed,
        )),
    }
}

fn skeap_nodes(spec: &OpenLoopSpec) -> Vec<skeap::SkeapNode> {
    skeap::cluster::build(spec.n, spec.n_prios as usize, CLUSTER_SEED)
}

fn seap_nodes(spec: &OpenLoopSpec) -> Vec<seap::SeapNode> {
    seap::cluster::build(spec.n, CLUSTER_SEED)
}

fn sync_sched<N: QueueNode>(nodes: Vec<N>, spec: &OpenLoopSpec) -> SyncScheduler<N>
where
    N::Msg: Clone,
{
    let mut sched = SyncScheduler::new(nodes);
    sched.set_ticks_per_round(spec.ticks_per_round);
    sched
}

type Adversarial<N> = AsyncScheduler<N, NullTracer, RandomAdversary, NullTelemetry>;

fn async_sched<N: QueueNode>(nodes: Vec<N>, seed: u64) -> Adversarial<N>
where
    N::Msg: Clone,
{
    AsyncScheduler::with_policy_faults_tracer_telemetry(
        nodes,
        AsyncConfig::default(),
        SimKind::fault_plan(seed),
        RandomAdversary::new(seed ^ ADVERSARY_SALT),
        NullTracer,
        NullTelemetry,
    )
}

fn wrap<P>(nodes: Vec<P>) -> Vec<Timed<P>> {
    nodes.into_iter().map(Timed).collect()
}

/// Which semantics the correctness check holds the run to.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// Skeap: FIFO within a priority.
    Skeap,
    /// Seap: composite-key order after Lemma-5.2 witness refinement.
    Seap,
}

fn issue<N: QueueNode>(node: &mut N, op: &WorkOp, client: u64) -> dpq_core::OpId {
    match *op {
        WorkOp::Insert { prio } => node.insert(prio, client),
        WorkOp::DeleteMin => node.delete(),
    }
}

fn layers_from(step_s: f64, round_ns: LogHistogram, inject_s: f64, peak: u64) -> Layers {
    Layers {
        step_s,
        round_ns,
        inject_s,
        in_flight_peak: peak,
        slots: ledger::snapshot(),
    }
}

fn sync_rep<N: QueueNode>(run: Run, build: impl FnOnce() -> Vec<N>) -> Rep
where
    N::Msg: Clone,
{
    let Run {
        spec,
        schedule,
        schedule_s,
        mut pacer,
        traced,
        check,
    } = run;
    let t0 = Instant::now();
    let mut sched = sync_sched(build(), &spec);
    let build_s = t0.elapsed().as_secs_f64();
    let setup_slowdown = pacer.current();

    ledger::reset();
    let tpr = spec.ticks_per_round;
    let injections = &schedule.injections;
    let (mut step_s, mut inject_s, mut round_ns) = (0.0, 0.0, LogHistogram::new());
    let drain_rounds = spec.ticks / tpr * DRAIN_FACTOR;
    pacer.begin();
    let mut next = 0usize;
    let mut drain = 0u64;
    loop {
        let arrivals_left = next < injections.len() || sched.now_ticks() < schedule.ticks;
        if !arrivals_left && (sched.metrics.pending_ops() == 0 || drain == drain_rounds) {
            break;
        }
        if !arrivals_left {
            drain += 1;
        }
        let window_end = (sched.round() + 1) * tpr;
        let ti = traced.then(Instant::now);
        while next < injections.len() && injections[next].tick < window_end {
            let inj = injections[next];
            let op = issue(sched.node_mut(inj.node), &inj.op, inj.client);
            sched.note_injected_at(op, inj.tick);
            next += 1;
        }
        let ts = traced.then(Instant::now);
        sched.step_round();
        pacer.poll();
        if let (Some(ti), Some(ts)) = (ti, ts) {
            let step = ts.elapsed();
            step_s += step.as_secs_f64();
            round_ns.record(step.as_nanos() as u64);
            inject_s += (ts - ti).as_secs_f64();
        }
    }
    let (drive_s, drive_nominal_s) = pacer.finish();

    let exact = Exact {
        offered: injections.len() as u64,
        completed: sched.metrics.latency_histogram().count(),
        time: sched.round(),
        messages: sched.metrics.messages,
        bits: sched.metrics.total_bits,
        congestion: sched.metrics.congestion,
        latency: sched.metrics.latency_histogram().clone(),
        lat_scale: 1,
        faults: (0, 0, 0),
        transport: (0, 0),
        cut: sched.metrics.pending_ops() > 0,
    };
    let layers = traced.then(|| layers_from(step_s, round_ns, inject_s, 0));
    let check = check.map(|order| verify(sched.nodes(), order, exact.cut));
    Rep {
        exact,
        phases: Phases {
            schedule_s,
            build_s,
            drive_s,
            drive_nominal_s,
            setup_slowdown,
        },
        layers,
        check,
    }
}

fn async_rep<N: QueueNode>(run: Run, build: impl FnOnce() -> Vec<N>) -> Rep
where
    N::Msg: Clone,
{
    let Run {
        spec,
        schedule,
        schedule_s,
        mut pacer,
        traced,
        check,
    } = run;
    let t0 = Instant::now();
    let mut sched = async_sched(build(), spec.seed);
    let build_s = t0.elapsed().as_secs_f64();
    let setup_slowdown = pacer.current();

    ledger::reset();
    let injections = &schedule.injections;
    let (mut step_s, mut inject_s, mut peak) = (0.0, 0.0, 0u64);
    let horizon = schedule.ticks;
    let step_cap = horizon * (1 + DRAIN_FACTOR) * STEPS_PER_TICK;
    pacer.begin();
    let mut next = 0usize;
    let mut tick = 0u64;
    let mut cut = false;
    // The open-loop pump: every arrival of tick t enters at step
    // t × STEPS_PER_TICK with its latency clock stamped there, then the
    // adversary takes that tick's steps.
    loop {
        let arrivals_left = next < injections.len() || tick < horizon;
        if !arrivals_left && sched.metrics.pending_ops() == 0 {
            break;
        }
        if sched.in_flight() > MAX_IN_FLIGHT || sched.steps() >= step_cap {
            cut = true;
            break;
        }
        let ti = traced.then(Instant::now);
        while next < injections.len() && injections[next].tick <= tick {
            let inj = injections[next];
            let op = issue(sched.node_mut(inj.node), &inj.op, inj.client);
            sched.note_injected_at(op, inj.tick * STEPS_PER_TICK);
            next += 1;
        }
        let ts = traced.then(Instant::now);
        for _ in 0..STEPS_PER_TICK {
            sched.step_once();
        }
        pacer.poll();
        if let (Some(ti), Some(ts)) = (ti, ts) {
            step_s += ts.elapsed().as_secs_f64();
            inject_s += (ts - ti).as_secs_f64();
            peak = peak.max(sched.in_flight() as u64);
        }
        tick += 1;
    }
    let (drive_s, drive_nominal_s) = pacer.finish();

    let transport = sched
        .nodes()
        .iter()
        .map(QueueNode::transport)
        .fold((0, 0), |(r, d), (r2, d2)| (r + r2, d + d2));
    let stats = sched.faults().stats;
    let exact = Exact {
        offered: injections.len() as u64,
        completed: sched.metrics.latency_histogram().count(),
        time: sched.steps(),
        messages: sched.metrics.messages,
        bits: sched.metrics.total_bits,
        congestion: 0,
        latency: sched.metrics.latency_histogram().clone(),
        lat_scale: STEPS_PER_TICK,
        faults: (stats.dropped(), stats.duplicated, stats.delayed),
        transport,
        cut: cut || sched.metrics.pending_ops() > 0,
    };
    let layers = traced.then(|| layers_from(step_s, LogHistogram::new(), inject_s, peak));
    let check = check.map(|order| verify(sched.nodes(), order, exact.cut));
    Rep {
        exact,
        phases: Phases {
            schedule_s,
            build_s,
            drive_s,
            drive_nominal_s,
            setup_slowdown,
        },
        layers,
        check,
    }
}

/// The paper's guarantees over a finished run: every op complete, witness
/// replay (sequential consistency), rank error 0 against the protocol's
/// own order, and element conservation against the shards' residual.
/// A run the collapse guard cut is incomplete by construction; its ops
/// count as failed, and only conservation-free checks would apply, so it
/// is reported through `failed` instead.
fn verify<N: QueueNode>(nodes: &[N], order: Order, cut: bool) -> Result<(), String> {
    if cut {
        return Ok(());
    }
    if let Some(i) = nodes.iter().position(|n| !n.all_complete()) {
        return Err(format!("node {i} has incomplete ops after drain"));
    }
    let history = History::merge(nodes.iter().map(|n| n.history().clone()).collect());
    let rank = match order {
        Order::Skeap => {
            replay(&history, ReplayMode::Fifo).map_err(|e| format!("witness replay: {e:?}"))?;
            check_local_consistency(&history).map_err(|e| format!("local order: {e:?}"))?;
            rank_error(&history, RankOrder::Fifo)
        }
        Order::Seap => {
            seap::check_seap_history(&history).map_err(|e| format!("seap checker: {e:?}"))?;
            let refined = seap::refine_witnesses(&history).map_err(|e| format!("refine: {e:?}"))?;
            rank_error(&refined, RankOrder::KeyOrder)
        }
    }
    .map_err(|e| format!("rank error oracle: {e:?}"))?;
    if !rank.is_strict() {
        return Err(format!(
            "rank error max {} with {} spurious empties",
            rank.max, rank.spurious_empty
        ));
    }
    let mut residual = Vec::new();
    for n in nodes {
        n.residual(&mut residual);
    }
    conserved(&history, &residual)
}

/// Inserted minus removed equals resident, element for element.
pub fn conserved(history: &History, residual: &[Element]) -> Result<(), String> {
    history.matching().map_err(|e| format!("matching: {e:?}"))?;
    let mut expect: std::collections::BTreeSet<ElemId> = history
        .records()
        .filter_map(|r| match (r.kind, r.ret) {
            (OpKind::Insert(e), Some(OpReturn::Inserted)) => Some(e.id),
            _ => None,
        })
        .collect();
    for r in history.records() {
        if let Some(OpReturn::Removed(e)) = r.ret {
            if !expect.remove(&e.id) {
                return Err(format!("element {:?} removed but never inserted", e.id));
            }
        }
    }
    let mut got: Vec<ElemId> = residual.iter().map(|e| e.id).collect();
    got.sort_unstable();
    let stored = got.len();
    got.dedup();
    if got.len() != stored {
        return Err("an element is stored more than once".into());
    }
    if !got.iter().copied().eq(expect.iter().copied()) {
        return Err(format!(
            "conservation: {} resident vs {} inserted-not-removed",
            got.len(),
            expect.len()
        ));
    }
    Ok(())
}
