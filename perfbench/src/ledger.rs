//! The per-layer ledger of the traced run.
//!
//! Nothing inside the program is instrumented. The traced run instead
//! wraps each protocol node in [`Timed`], a [`Protocol`] that forwards
//! every call unchanged and charges its wall time and call count to a
//! slot of a thread-local ledger. The slot is the layer the call entered:
//! the node's activation, the message family of a delivery, or the
//! `Reliable` transport when the wrapper sits outside it. Self times fall
//! out by subtraction, because every inner call happens inside exactly one
//! outer call (see `sim.rs`).
//!
//! Every call is counted, but only every [`SAMPLE_EVERY`]-th call of a
//! slot is timed, and a slot's seconds are its sampled time scaled by
//! calls over sampled calls. A clock read pair costs about 70 ns on a
//! 2-vCPU host, and timing every call of `sim-skeap-sync` (millions of
//! DHT deliveries) nearly doubled the drive; `trace.overhead_pct`
//! reports what the sampled ledger costs against the untraced run.

use std::cell::Cell;
use std::time::Instant;

use dpq_core::{Element, NodeHistory, NodeId, OpId};
use dpq_sim::{Ctx, Protocol, Reliable};
use seap::{SeapMsg, SeapNode};
use skeap::{SkeapMsg, SkeapNode};

/// The layers a wrapped call is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// `on_activate` of a Skeap/Seap node.
    Activate,
    /// Skeap aggregation tree: `BatchUp` / `Down`.
    SkeapTree,
    /// Seap phase machinery: `Begin` … `DoneUp`.
    SeapPhase,
    /// KSelect inside Seap: `SeapMsg::K`.
    KSelect,
    /// DHT routing and responses: `Dht` / `Resp`.
    Dht,
    /// Every call into the `Reliable` transport (frames and activations).
    Reliable,
}

impl Slot {
    /// The protocol handlers proper: everything but the transport.
    pub const HANDLERS: [Slot; 5] = [
        Slot::Activate,
        Slot::SkeapTree,
        Slot::SeapPhase,
        Slot::KSelect,
        Slot::Dht,
    ];
}

/// Number of slots; [`snapshot`] is indexed by `Slot as usize`.
pub const SLOTS: usize = 6;

/// One call in this many, per slot, is timed.
pub const SAMPLE_EVERY: u64 = 8;

thread_local! {
    /// Nanoseconds of the sampled calls.
    static NANOS: [Cell<u64>; SLOTS] = const { [const { Cell::new(0) }; SLOTS] };
    /// All calls.
    static CALLS: [Cell<u64>; SLOTS] = const { [const { Cell::new(0) }; SLOTS] };
    /// What timing an empty call reads, subtracted from every sample.
    static CLOCK_NS: Cell<u64> = const { Cell::new(0) };
}

/// Totals of one slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlotTotal {
    /// Wall seconds spent in calls charged to the slot (estimated from
    /// the sampled calls).
    pub secs: f64,
    /// Calls charged to the slot.
    pub calls: u64,
}

/// Zero the ledger and measure the clock's own cost (start of a traced
/// drive).
pub fn reset() {
    NANOS.with(|a| a.iter().for_each(|c| c.set(0)));
    CALLS.with(|a| a.iter().for_each(|c| c.set(0)));
    let mut reads: Vec<u64> = (0..1001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    reads.sort_unstable();
    CLOCK_NS.with(|c| c.set(reads[reads.len() / 2]));
}

/// Read every slot, indexed by `Slot as usize`.
pub fn snapshot() -> [SlotTotal; SLOTS] {
    std::array::from_fn(|i| {
        let calls = CALLS.with(|a| a[i].get());
        let sampled = calls.div_ceil(SAMPLE_EVERY).max(1);
        SlotTotal {
            secs: NANOS.with(|a| a[i].get()) as f64 * 1e-9 * calls as f64 / sampled as f64,
            calls,
        }
    })
}

/// Count a call into `slot` and run it, timing it if it is sampled.
#[inline]
fn charge<R>(slot: Slot, call: impl FnOnce() -> R) -> R {
    let i = slot as usize;
    let n = CALLS.with(|a| a[i].replace(a[i].get() + 1));
    if !n.is_multiple_of(SAMPLE_EVERY) {
        return call();
    }
    let t = Instant::now();
    let out = call();
    let ns = (t.elapsed().as_nanos() as u64).saturating_sub(CLOCK_NS.with(Cell::get));
    NANOS.with(|a| a[i].set(a[i].get() + ns));
    out
}

/// Which ledger slot a protocol's calls are charged to.
pub trait Classify: Protocol {
    /// Slot of `on_activate`.
    const ACTIVATE: Slot;
    /// Slot of delivering `msg`.
    fn slot(msg: &Self::Msg) -> Slot;
}

impl Classify for SkeapNode {
    const ACTIVATE: Slot = Slot::Activate;
    fn slot(msg: &SkeapMsg) -> Slot {
        match msg {
            SkeapMsg::BatchUp { .. } | SkeapMsg::Down { .. } => Slot::SkeapTree,
            SkeapMsg::Dht(_) | SkeapMsg::Resp(_) => Slot::Dht,
        }
    }
}

impl Classify for SeapNode {
    const ACTIVATE: Slot = Slot::Activate;
    fn slot(msg: &SeapMsg) -> Slot {
        match msg {
            SeapMsg::K(_) => Slot::KSelect,
            SeapMsg::Dht(_) | SeapMsg::Resp(_) => Slot::Dht,
            _ => Slot::SeapPhase,
        }
    }
}

impl<P: Protocol> Classify for Reliable<P>
where
    P::Msg: Clone,
{
    const ACTIVATE: Slot = Slot::Reliable;
    fn slot(_: &Self::Msg) -> Slot {
        Slot::Reliable
    }
}

/// A node whose calls are charged to the ledger; behaviour unchanged.
pub struct Timed<P>(pub P);

impl<P: Classify> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn on_activate(&mut self, ctx: &mut Ctx<Self::Msg>) {
        charge(P::ACTIVATE, || self.0.on_activate(ctx));
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<Self::Msg>) {
        charge(P::slot(&msg), || self.0.on_message(from, msg, ctx));
    }

    fn done(&self) -> bool {
        self.0.done()
    }
}

/// What the drive loops need from a queue node, whatever wraps it.
pub trait QueueNode: Protocol {
    /// Issue `Insert(prio, payload)`.
    fn insert(&mut self, prio: u64, payload: u64) -> OpId;
    /// Issue `DeleteMin()`.
    fn delete(&mut self) -> OpId;
    /// Have all requests issued here completed?
    fn all_complete(&self) -> bool;
    /// The node's operation records.
    fn history(&self) -> &NodeHistory;
    /// Append the elements resident in this node's DHT shard.
    fn residual(&self, out: &mut Vec<Element>);
    /// Transport counters `(retransmits, dup_suppressed)`, zero without one.
    fn transport(&self) -> (u64, u64) {
        (0, 0)
    }
}

macro_rules! queue_node {
    ($t:ty) => {
        impl QueueNode for $t {
            fn insert(&mut self, prio: u64, payload: u64) -> OpId {
                self.issue_insert(prio, payload)
            }
            fn delete(&mut self) -> OpId {
                self.issue_delete()
            }
            fn all_complete(&self) -> bool {
                <$t>::all_complete(self)
            }
            fn history(&self) -> &NodeHistory {
                &self.history
            }
            fn residual(&self, out: &mut Vec<Element>) {
                out.extend(self.shard.elements().map(|(_, e)| *e));
            }
        }
    };
}

queue_node!(SkeapNode);
queue_node!(SeapNode);

impl<P: QueueNode + Classify> QueueNode for Timed<P> {
    fn insert(&mut self, prio: u64, payload: u64) -> OpId {
        self.0.insert(prio, payload)
    }
    fn delete(&mut self) -> OpId {
        self.0.delete()
    }
    fn all_complete(&self) -> bool {
        self.0.all_complete()
    }
    fn history(&self) -> &NodeHistory {
        self.0.history()
    }
    fn residual(&self, out: &mut Vec<Element>) {
        self.0.residual(out)
    }
    fn transport(&self) -> (u64, u64) {
        self.0.transport()
    }
}

impl<P: QueueNode> QueueNode for Reliable<P>
where
    P::Msg: Clone,
{
    fn insert(&mut self, prio: u64, payload: u64) -> OpId {
        self.inner_mut().insert(prio, payload)
    }
    fn delete(&mut self) -> OpId {
        self.inner_mut().delete()
    }
    fn all_complete(&self) -> bool {
        self.inner().all_complete()
    }
    fn history(&self) -> &NodeHistory {
        self.inner().history()
    }
    fn residual(&self, out: &mut Vec<Element>) {
        self.inner().residual(out)
    }
    fn transport(&self) -> (u64, u64) {
        (self.stats.retransmits, self.stats.dup_suppressed)
    }
}
