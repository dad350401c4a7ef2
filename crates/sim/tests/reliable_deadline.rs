//! The retransmission deadline changes cost, not behaviour.
//!
//! `Reliable` skips its buffer walk while `now` is below a lower bound on
//! the earliest `last_sent + timeout`. The reference model below has no
//! such bound: it walks every link and every unacked payload on every
//! activation. Driven through the same seeded interleavings of inner sends
//! over several links, per-seq and cumulative acks, duplicate and
//! out-of-order data frames and activations, the two must emit the same
//! frames after every event and keep the same stats and state digest.

use dpq_core::{state_digest, BitSize, DetRng, NodeId, StateHash, StateHasher};
use dpq_sim::{Ctx, Protocol, Reliable, ReliableMsg, ReliableStats};

/// Inner protocol: sends what the test queues on its next activation,
/// records deliveries, and replies to multiples of three — so payloads are
/// buffered from both activations and deliveries.
#[derive(Debug, Default, Clone)]
struct Chatter {
    queue: Vec<(NodeId, u64)>,
    seen: Vec<(NodeId, u64)>,
}

impl Protocol for Chatter {
    type Msg = u64;
    fn on_activate(&mut self, ctx: &mut Ctx<u64>) {
        for (dst, msg) in self.queue.drain(..) {
            ctx.send(dst, msg);
        }
    }
    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<u64>) {
        self.seen.push((from, msg));
        if msg.is_multiple_of(3) {
            ctx.send(from, msg + 1);
        }
    }
}

impl StateHash for Chatter {
    fn state_hash(&self, h: &mut StateHasher) {
        self.queue.state_hash(h);
        self.seen.state_hash(h);
    }
}

/// Sender side of one link: next seq, and unacked `(seq, payload,
/// last_sent)` sorted by seq.
#[derive(Default)]
struct RefTx {
    next_seq: u64,
    unacked: Vec<(u64, u64, u64)>,
}

/// Receiver side of one link: contiguous watermark plus the sorted run of
/// out-of-order seqs above it.
#[derive(Default)]
struct RefRx {
    watermark: u64,
    seen: Vec<u64>,
}

/// The transport with a retransmission scan on every activation.
struct WalkEveryActivation {
    inner: Chatter,
    timeout: u64,
    tx: Vec<(NodeId, RefTx)>,
    rx: Vec<(NodeId, RefRx)>,
    stats: ReliableStats,
}

fn link<T: Default>(links: &mut Vec<(NodeId, T)>, peer: NodeId) -> &mut T {
    let at = match links.binary_search_by_key(&peer, |e| e.0) {
        Ok(at) => at,
        Err(at) => {
            links.insert(at, (peer, T::default()));
            at
        }
    };
    &mut links[at].1
}

impl WalkEveryActivation {
    fn run_inner(
        &mut self,
        ctx: &mut Ctx<ReliableMsg<u64>>,
        f: impl FnOnce(&mut Chatter, &mut Ctx<u64>),
    ) {
        let mut inner_ctx = Ctx::new(ctx.me(), ctx.now());
        f(&mut self.inner, &mut inner_ctx);
        for env in inner_ctx.take_outbox() {
            let l = link(&mut self.tx, env.dst);
            let seq = l.next_seq;
            l.next_seq += 1;
            l.unacked.push((seq, env.msg, ctx.now()));
            self.stats.sent += 1;
            ctx.send(env.dst, ReliableMsg::Data { seq, msg: env.msg });
        }
    }
}

impl Protocol for WalkEveryActivation {
    type Msg = ReliableMsg<u64>;

    fn on_activate(&mut self, ctx: &mut Ctx<Self::Msg>) {
        self.run_inner(ctx, |p, c| p.on_activate(c));
        let now = ctx.now();
        for (dst, l) in &mut self.tx {
            for (seq, msg, last_sent) in &mut l.unacked {
                if now.saturating_sub(*last_sent) >= self.timeout {
                    *last_sent = now;
                    self.stats.retransmits += 1;
                    ctx.send(
                        *dst,
                        ReliableMsg::Data {
                            seq: *seq,
                            msg: *msg,
                        },
                    );
                }
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<Self::Msg>) {
        match msg {
            ReliableMsg::Ack { seq, cum } => {
                if let Ok(at) = self.tx.binary_search_by_key(&from, |e| e.0) {
                    let l = &mut self.tx[at].1;
                    l.unacked.retain(|e| e.0 != seq && e.0 >= cum);
                }
            }
            ReliableMsg::Data { seq, msg } => {
                let l = link(&mut self.rx, from);
                let fresh = seq >= l.watermark && l.seen.binary_search(&seq).is_err();
                if fresh {
                    let at = l.seen.partition_point(|&s| s < seq);
                    l.seen.insert(at, seq);
                    while l.seen.first() == Some(&l.watermark) {
                        l.seen.remove(0);
                        l.watermark += 1;
                    }
                }
                ctx.send(
                    from,
                    ReliableMsg::Ack {
                        seq,
                        cum: l.watermark,
                    },
                );
                self.stats.acks_sent += 1;
                if fresh {
                    self.run_inner(ctx, |p, c| p.on_message(from, msg, c));
                } else {
                    self.stats.dup_suppressed += 1;
                }
            }
        }
    }
}

/// The digest `Reliable` computes, spelled out over the reference state.
impl StateHash for WalkEveryActivation {
    fn state_hash(&self, h: &mut StateHasher) {
        self.inner.state_hash(h);
        h.write_u64(self.tx.len() as u64);
        for (dst, l) in &self.tx {
            dst.state_hash(h);
            h.write_u64(l.next_seq);
            h.write_u64(l.unacked.len() as u64);
            for (seq, msg, last) in &l.unacked {
                h.write_u64(*seq);
                h.write_u64(msg.bits());
                h.write_u64(*last);
            }
        }
        h.write_u64(self.rx.len() as u64);
        for (src, l) in &self.rx {
            src.state_hash(h);
            h.write_u64(l.watermark);
            l.seen.state_hash(h);
        }
    }
}

type Frames = Vec<(NodeId, ReliableMsg<u64>)>;

fn frames(ctx: &mut Ctx<ReliableMsg<u64>>) -> Frames {
    ctx.take_outbox()
        .into_iter()
        .map(|e| (e.dst, e.msg))
        .collect()
}

const ME: NodeId = NodeId(0);

#[test]
fn deadline_matches_a_walk_on_every_activation() {
    let mut retransmits = 0;
    let mut idle_activations = 0;
    for seed in 0..48u64 {
        let mut rng = DetRng::new(0xDEAD_0000 + seed);
        let timeout = [1, 2, 3, 5, 16, 1024][seed as usize % 6];
        let peers = 1 + rng.below(5);
        let mut real = Reliable::new(Chatter::default(), timeout);
        let mut model = WalkEveryActivation {
            inner: Chatter::default(),
            timeout,
            tx: Vec::new(),
            rx: Vec::new(),
            stats: ReliableStats::default(),
        };
        // Highest data seq seen per peer in either direction, to aim acks
        // and data frames at live sequence numbers.
        let mut sent_hi = vec![0u64; peers as usize + 1];
        let mut recv_hi = vec![0u64; peers as usize + 1];
        let mut now = 0u64;
        for event in 0..800 {
            // Time moves by small steps, so activations keep landing just
            // before, at and just after deadlines, with an occasional jump.
            now += match rng.below(10) {
                0..=4 => 0,
                5..=8 => 1,
                _ => rng.below(2 * timeout + 2),
            };
            let peer = NodeId(1 + rng.below(peers));
            let p = peer.0 as usize;
            let mut ctx_real = Ctx::new(ME, now);
            let mut ctx_model = Ctx::new(ME, now);
            match rng.below(100) {
                0..=24 => {
                    for _ in 0..1 + rng.below(3) {
                        let dst = NodeId(1 + rng.below(peers));
                        let msg = rng.below(1000);
                        real.inner_mut().queue.push((dst, msg));
                        model.inner.queue.push((dst, msg));
                    }
                }
                25..=59 => {
                    let before = real.stats.retransmits;
                    real.on_activate(&mut ctx_real);
                    model.on_activate(&mut ctx_model);
                    if real.stats.retransmits == before {
                        idle_activations += 1;
                    }
                }
                60..=79 => {
                    // Fresh, duplicate or out-of-order data from a peer.
                    let seq = rng.below(recv_hi[p] + 3);
                    recv_hi[p] = recv_hi[p].max(seq + 1);
                    let frame = ReliableMsg::Data {
                        seq,
                        msg: rng.below(30),
                    };
                    real.on_message(peer, frame.clone(), &mut ctx_real);
                    model.on_message(peer, frame, &mut ctx_model);
                }
                _ => {
                    // A per-seq ack, half the time with a cumulative prune
                    // (possibly stale, possibly ahead of the per-seq one).
                    let seq = rng.below(sent_hi[p] + 1);
                    let cum = if rng.chance(0.5) {
                        0
                    } else {
                        rng.below(sent_hi[p] + 1)
                    };
                    let frame = ReliableMsg::Ack { seq, cum };
                    real.on_message(peer, frame.clone(), &mut ctx_real);
                    model.on_message(peer, frame, &mut ctx_model);
                }
            }
            let (got, want) = (frames(&mut ctx_real), frames(&mut ctx_model));
            assert_eq!(got, want, "seed {seed}, event {event}, t = {now}");
            for (dst, msg) in &got {
                if let ReliableMsg::Data { seq, .. } = msg {
                    let hi = &mut sent_hi[dst.0 as usize];
                    *hi = (*hi).max(seq + 1);
                }
            }
            assert_eq!(real.stats, model.stats, "seed {seed}, event {event}");
            assert_eq!(
                state_digest(&real),
                state_digest(&model),
                "seed {seed}, event {event}"
            );
        }
        retransmits += real.stats.retransmits;
    }
    // The interleavings reach both sides of the deadline.
    assert!(retransmits > 1000, "only {retransmits} retransmissions");
    assert!(
        idle_activations > 1000,
        "only {idle_activations} idle activations"
    );
}

/// Buffer one payload to `peer` at time `t` through the inner protocol.
fn send_at(node: &mut Reliable<Chatter>, peer: NodeId, msg: u64, t: u64) {
    node.inner_mut().queue.push((peer, msg));
    let mut ctx = Ctx::new(ME, t);
    node.on_activate(&mut ctx);
    assert_eq!(ctx.take_outbox().len(), 1, "one fresh frame");
}

/// Data frames an activation at `t` emits, as `(dst, seq)`.
fn retransmitted_at(node: &mut Reliable<Chatter>, t: u64) -> Vec<(NodeId, u64)> {
    let mut ctx = Ctx::new(ME, t);
    node.on_activate(&mut ctx);
    frames(&mut ctx)
        .into_iter()
        .filter_map(|(dst, m)| match m {
            ReliableMsg::Data { seq, .. } => Some((dst, seq)),
            ReliableMsg::Ack { .. } => None,
        })
        .collect()
}

#[test]
fn retransmission_fires_exactly_at_the_deadline() {
    const RTO: u64 = 16;
    let (a, b) = (NodeId(1), NodeId(2));
    let mut node = Reliable::new(Chatter::default(), RTO);
    send_at(&mut node, a, 7, 10);
    assert!(retransmitted_at(&mut node, 10 + RTO - 1).is_empty());
    assert_eq!(retransmitted_at(&mut node, 10 + RTO), vec![(a, 0)]);
    // The clock restarts at the retransmission.
    assert!(retransmitted_at(&mut node, 10 + 2 * RTO - 1).is_empty());
    assert_eq!(retransmitted_at(&mut node, 10 + 2 * RTO), vec![(a, 0)]);

    // An ack leaves the bound stale: the activation at the acked
    // payload's deadline walks, finds nothing, and re-aims at the
    // survivor's deadline, which is still met to the step.
    let mut node = Reliable::new(Chatter::default(), RTO);
    send_at(&mut node, a, 1, 0);
    send_at(&mut node, b, 2, 5);
    let mut ctx = Ctx::new(ME, 3);
    node.on_message(a, ReliableMsg::Ack { seq: 0, cum: 1 }, &mut ctx);
    assert!(retransmitted_at(&mut node, RTO).is_empty());
    assert!(retransmitted_at(&mut node, 5 + RTO - 1).is_empty());
    assert_eq!(retransmitted_at(&mut node, 5 + RTO), vec![(b, 0)]);
    assert_eq!(node.stats.retransmits, 1);

    // A send while a later deadline is pending lowers the bound.
    let mut node = Reliable::new(Chatter::default(), RTO);
    send_at(&mut node, a, 1, 0);
    assert!(retransmitted_at(&mut node, 1).is_empty());
    send_at(&mut node, b, 2, 2);
    assert_eq!(retransmitted_at(&mut node, RTO), vec![(a, 0)]);
    assert!(retransmitted_at(&mut node, 2 + RTO - 1).is_empty());
    assert_eq!(retransmitted_at(&mut node, 2 + RTO), vec![(b, 0)]);
}
