//! `drive_async` keeps one time unit: the async scheduler stamps
//! completions in adversary steps, so the driver must stamp arrivals in
//! steps too (`tick × steps_per_tick`), or every latency silently mixes
//! ticks and steps.

use dpq_core::{NodeId, OpId};
use dpq_sim::{AsyncConfig, AsyncScheduler, Ctx, Protocol};
use dpq_workload::{drive_async, Injection, Schedule, WorkOp};

/// Completes each injected op on its `DELAY`-th activation after
/// injection; sends nothing.
#[derive(Default, Clone)]
struct Countdown {
    issued: u64,
    pending: Vec<(OpId, u64)>,
}

const DELAY: u64 = 3;

impl Protocol for Countdown {
    type Msg = u64;
    fn on_activate(&mut self, ctx: &mut Ctx<u64>) {
        for (op, left) in &mut self.pending {
            *left -= 1;
            if *left == 0 {
                ctx.op_completed(*op);
            }
        }
        self.pending.retain(|&(_, left)| left > 0);
    }
    fn on_message(&mut self, _from: NodeId, _msg: u64, _ctx: &mut Ctx<u64>) {}
    fn done(&self) -> bool {
        self.pending.is_empty()
    }
}

#[test]
fn async_latencies_are_in_steps_from_the_arrival_step() {
    const STEPS_PER_TICK: u64 = 100;
    let injection = |tick, node| Injection {
        tick,
        node: NodeId(node),
        client: node,
        op: WorkOp::DeleteMin,
    };
    let schedule = Schedule {
        ticks: 10,
        n: 2,
        injections: vec![injection(5, 0), injection(7, 1), injection(7, 0)],
    };
    // A sweep every step: each node is activated once per step, so an op
    // completes exactly DELAY steps after the step it arrived at.
    let cfg = AsyncConfig {
        sweep_every: 1,
        ..AsyncConfig::default()
    };
    let mut sched = AsyncScheduler::with_config(vec![Countdown::default(); 2], 7, cfg);
    let out = drive_async(
        &mut sched,
        &schedule,
        STEPS_PER_TICK,
        1_000,
        |node: &mut Countdown, inj| {
            let op = OpId {
                node: inj.node,
                seq: node.issued,
            };
            node.issued += 1;
            node.pending.push((op, DELAY));
            op
        },
        |nodes| nodes.iter().all(Protocol::done),
    );
    assert!(out.drained);
    let lat = sched.metrics.latency_histogram();
    assert_eq!(lat.count(), 3);
    // Stamped at `tick`, the arrival would read as step 5 or 7, and every
    // latency as hundreds of steps.
    assert_eq!((lat.min(), lat.max()), (DELAY, DELAY), "latency in steps");
    assert_eq!(sched.metrics.pending_ops(), 0);
}
