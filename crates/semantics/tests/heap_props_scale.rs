//! `check_heap_properties` at scale, and verdict for verdict against a
//! quadratic reference that scans S for each matched pair's witness and
//! priority.

use dpq_core::{DetRng, ElemId, Element, History, NodeId, OpKind, OpRecord, OpReturn, Priority};
use dpq_semantics::heap_props::{check_heap_properties, HeapViolation};
use std::collections::BinaryHeap;

/// One completed op as the generator emits it: issuing node, kind, return,
/// witness.
type Spec = (NodeId, OpKind, OpReturn, u64);

/// A sequential execution of a strict min-heap over `n_nodes` issuers: its
/// witness order is the execution order, so it satisfies Definition 1.2.
fn strict_execution(rng: &mut DetRng, ops: usize, n_nodes: u64, prios: u64) -> Vec<Spec> {
    let mut heap = BinaryHeap::new();
    let mut next_elem = vec![0u64; n_nodes as usize];
    let mut out = Vec::with_capacity(ops);
    for w in 1..=ops as u64 {
        let v = NodeId(rng.below(n_nodes));
        if rng.chance(0.55) {
            let seq = &mut next_elem[v.0 as usize];
            let e = Element::new(ElemId::compose(v, *seq), Priority(rng.below(prios)), w);
            *seq += 1;
            heap.push(std::cmp::Reverse((e.prio.0, w, out.len())));
            out.push((v, OpKind::Insert(e), OpReturn::Inserted, w));
        } else {
            let ret = match heap.pop() {
                Some(std::cmp::Reverse((_, _, at))) => match out[at] {
                    (_, OpKind::Insert(e), _, _) => OpReturn::Removed(e),
                    _ => unreachable!("the heap holds inserts"),
                },
                None => OpReturn::Bottom,
            };
            out.push((v, OpKind::DeleteMin, ret, w));
        }
    }
    out
}

fn history(n_nodes: u64, specs: &[Spec]) -> History {
    let mut h = History::new(n_nodes as usize);
    for &(v, kind, ret, w) in specs {
        let id = h.node(v).issue(v, kind);
        h.node(v).complete(id, ret);
        h.node(v).witness(id, w);
    }
    h
}

/// Reference: the same three checks with a linear scan of S per lookup,
/// O(S²).
fn check_quadratic(history: &History) -> Result<(), HeapViolation> {
    let matching = history
        .matching()
        .map_err(|e| HeapViolation::Malformed(e.to_string()))?;
    let mut ops: Vec<OpRecord> = Vec::new();
    for r in history.records() {
        if r.ret.is_none() {
            continue;
        }
        if r.witness.is_none() {
            return Err(HeapViolation::Malformed(format!("{} has no witness", r.id)));
        }
        ops.push(*r);
    }
    ops.sort_by_key(|r| r.witness.expect("filtered"));
    let witness_of = |id| -> u64 {
        ops.iter()
            .find(|r| r.id == id)
            .and_then(|r| r.witness)
            .expect("matched ops are recorded")
    };
    for (del, ins) in &matching.by_delete {
        let (wi, wd) = (witness_of(*ins), witness_of(*del));
        if wi >= wd {
            return Err(HeapViolation::DeleteBeforeInsert {
                ins_w: wi,
                del_w: wd,
            });
        }
    }
    let mut open_pairs: u64 = 0;
    let mut min_unmatched_ins: Option<(u64, u64)> = None;
    let mut ins_prio_of_del = std::collections::HashMap::new();
    for (del, ins) in &matching.by_delete {
        let prio = ops
            .iter()
            .find(|r| r.id == *ins)
            .map(|r| match r.kind {
                OpKind::Insert(e) => e.prio.0,
                OpKind::DeleteMin => unreachable!(),
            })
            .expect("matched insert recorded");
        ins_prio_of_del.insert(*del, (prio, witness_of(*ins)));
    }
    for r in &ops {
        let w = r.witness.expect("filtered");
        match r.kind {
            OpKind::Insert(e) => {
                if matching.by_insert.contains_key(&r.id) {
                    open_pairs += 1;
                } else if min_unmatched_ins.is_none_or(|(p, _)| e.prio.0 < p) {
                    min_unmatched_ins = Some((e.prio.0, w));
                }
            }
            OpKind::DeleteMin => match r.ret {
                Some(OpReturn::Removed(_)) => {
                    open_pairs -= 1;
                    let (matched_prio, matched_ins_w) = ins_prio_of_del[&r.id];
                    if let Some((p, uw)) = min_unmatched_ins {
                        if p < matched_prio {
                            return Err(HeapViolation::WrongPriorityServed {
                                unmatched_ins_w: uw,
                                matched_ins_w,
                                del_w: w,
                            });
                        }
                    }
                }
                Some(OpReturn::Bottom) => {
                    if open_pairs > 0 {
                        return Err(HeapViolation::BottomWhileOccupied {
                            ins_w: 0,
                            bottom_w: w,
                            del_w: 0,
                        });
                    }
                }
                _ => {
                    return Err(HeapViolation::Malformed(format!(
                        "delete {} recorded an insert return",
                        r.id
                    )))
                }
            },
        }
    }
    Ok(())
}

/// Same verdict. Property (1) reports the first offending pair in the
/// matching's hash order, which differs between two `matching()` calls, so
/// for that variant only the kind of violation is compared.
fn same_verdict(a: &Result<(), HeapViolation>, b: &Result<(), HeapViolation>) -> bool {
    match (a, b) {
        (
            Err(HeapViolation::DeleteBeforeInsert { .. }),
            Err(HeapViolation::DeleteBeforeInsert { .. }),
        ) => true,
        _ => a == b,
    }
}

#[test]
fn hundred_thousand_op_strict_history_passes() {
    let mut rng = DetRng::new(0x4EA9);
    let specs = strict_execution(&mut rng, 100_000, 16, 64);
    let h = history(16, &specs);
    assert_eq!(h.completed(), 100_000);
    check_heap_properties(&h).unwrap();
}

#[test]
fn hundred_thousand_op_history_with_one_bottom_while_occupied_is_caught() {
    let mut rng = DetRng::new(0x4EAA);
    let mut specs = strict_execution(&mut rng, 100_000, 16, 64);
    // Answer ⊥ right after the last insert whose element is removed later:
    // that pair is open there. Doubling every witness makes room for it.
    let removed: std::collections::HashSet<ElemId> = specs
        .iter()
        .filter_map(|s| match s.2 {
            OpReturn::Removed(e) => Some(e.id),
            _ => None,
        })
        .collect();
    let w = specs
        .iter()
        .rev()
        .find_map(|s| match s.1 {
            OpKind::Insert(e) if removed.contains(&e.id) => Some(s.3),
            _ => None,
        })
        .expect("some element is removed");
    for s in specs.iter_mut() {
        s.3 *= 2;
    }
    specs.push((NodeId(0), OpKind::DeleteMin, OpReturn::Bottom, 2 * w + 1));
    assert_eq!(
        check_heap_properties(&history(16, &specs)),
        Err(HeapViolation::BottomWhileOccupied {
            ins_w: 0,
            bottom_w: 2 * w + 1,
            del_w: 0,
        })
    );
}

#[test]
fn verdicts_match_the_quadratic_checker() {
    let mut rng = DetRng::new(0x4EAB);
    let mut kinds = [0usize; 5];
    for case in 0..400 {
        let n_nodes = 1 + rng.below(4);
        let ops = 1 + rng.below(60) as usize;
        let prios = 1 + rng.below(6);
        let mut specs = strict_execution(&mut rng, ops, n_nodes, prios);
        // Corrupt most cases, one way or another.
        match case % 4 {
            0 => {}
            1 => {
                // Reorder: swap two witnesses.
                let (i, j) = (rng.below(ops as u64), rng.below(ops as u64));
                let wi = specs[i as usize].3;
                specs[i as usize].3 = specs[j as usize].3;
                specs[j as usize].3 = wi;
            }
            2 => {
                // A delete answers ⊥ instead of its element.
                if let Some(s) = specs
                    .iter_mut()
                    .find(|s| matches!(s.2, OpReturn::Removed(_)))
                {
                    s.2 = OpReturn::Bottom;
                }
            }
            _ => {
                // A delete returns some other inserted element.
                let inserted: Vec<Element> = specs
                    .iter()
                    .filter_map(|s| match s.1 {
                        OpKind::Insert(e) => Some(e),
                        OpKind::DeleteMin => None,
                    })
                    .collect();
                let dels: Vec<usize> = (0..specs.len())
                    .filter(|&i| specs[i].1 == OpKind::DeleteMin)
                    .collect();
                if !inserted.is_empty() && !dels.is_empty() {
                    let d = *rng.pick(&dels);
                    specs[d].2 = OpReturn::Removed(*rng.pick(&inserted));
                }
            }
        }
        let h = history(n_nodes, &specs);
        let (fast, slow) = (check_heap_properties(&h), check_quadratic(&h));
        assert!(
            same_verdict(&fast, &slow),
            "case {case}: indexed {fast:?}, quadratic {slow:?}"
        );
        kinds[match fast {
            Ok(()) => 0,
            Err(HeapViolation::DeleteBeforeInsert { .. }) => 1,
            Err(HeapViolation::BottomWhileOccupied { .. }) => 2,
            Err(HeapViolation::WrongPriorityServed { .. }) => 3,
            Err(HeapViolation::Malformed(_)) => 4,
        }] += 1;
    }
    // The corruptions reach every verdict, so the comparison has teeth.
    assert!(kinds.iter().all(|&k| k > 0), "verdict mix {kinds:?}");
}
