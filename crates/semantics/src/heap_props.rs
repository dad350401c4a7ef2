//! Literal checks of the heap-consistency properties (Definition 1.2).
//!
//! Given the witness order ≺ and the matching M, verify:
//!
//! 1. every matched pair satisfies `Ins ≺ Del`;
//! 2. no matched pair `(Ins, Del)` brackets an *unmatched* DeleteMin
//!    (a ⊥ answer while a later-removed element was already in the heap);
//! 3. no matched pair `(Ins_v, Del_w)` coexists with an unmatched Insert of
//!    strictly smaller priority preceding `Del_w` (a DeleteMin must prefer
//!    the smallest priority present).
//!
//! [`crate::replay::replay`] already implies all three; this module exists so the
//! test suite also exercises the paper's definitions *as stated*, and so a
//! hypothetical protocol bug would be reported in the paper's vocabulary.

use dpq_core::{History, MatchSet, OpId, OpKind, OpRecord, OpReturn};
use std::collections::HashMap;

/// Which property failed, with the witnesses involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapViolation {
    /// Property (1): a delete preceded its matched insert.
    DeleteBeforeInsert {
        /// Witness of the insert.
        ins_w: u64,
        /// Witness of the delete.
        del_w: u64,
    },
    /// Property (2): an unmatched delete strictly between a matched pair.
    BottomWhileOccupied {
        /// Witness of the bracketing insert (0 when not pinpointed).
        ins_w: u64,
        /// Witness of the ⊥ delete.
        bottom_w: u64,
        /// Witness of the bracketing delete (0 when not pinpointed).
        del_w: u64,
    },
    /// Property (3): a smaller-priority unmatched insert preceded a matched
    /// delete.
    WrongPriorityServed {
        /// Witness of the skipped smaller-priority insert.
        unmatched_ins_w: u64,
        /// Witness of the insert actually served.
        matched_ins_w: u64,
        /// Witness of the delete.
        del_w: u64,
    },
    /// Precondition failures (missing witnesses / broken matching).
    Malformed(
        /// Description of the malformation.
        String,
    ),
}

impl std::fmt::Display for HeapViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Check all three properties of Definition 1.2. O(S log S): one sort by
/// witness, then hash lookups by op id.
pub fn check_heap_properties(history: &History) -> Result<(), HeapViolation> {
    let matching: MatchSet = history
        .matching()
        .map_err(|e| HeapViolation::Malformed(e.to_string()))?;
    let mut ops: Vec<OpRecord> = Vec::with_capacity(history.len());
    for r in history.records() {
        if r.ret.is_none() {
            continue; // incomplete ops are not in S yet
        }
        if r.witness.is_none() {
            return Err(HeapViolation::Malformed(format!("{} has no witness", r.id)));
        }
        ops.push(*r);
    }
    ops.sort_by_key(|r| r.witness.expect("filtered"));

    // One index by op id, so each matched pair costs a hash lookup rather
    // than a scan of S. The first record in ≺ order wins, as a scan would.
    let mut by_id: HashMap<OpId, &OpRecord> = HashMap::with_capacity(ops.len());
    for r in &ops {
        by_id.entry(r.id).or_insert(r);
    }
    let record_of = |id: OpId| -> &OpRecord { by_id.get(&id).expect("matched ops are recorded") };
    let witness_of = |id| record_of(id).witness.expect("filtered");

    // Property (1).
    for (del, ins) in &matching.by_delete {
        let (wi, wd) = (witness_of(*ins), witness_of(*del));
        if wi >= wd {
            return Err(HeapViolation::DeleteBeforeInsert {
                ins_w: wi,
                del_w: wd,
            });
        }
    }

    // Sweep in ≺ order for properties (2) and (3).
    // (2): at an unmatched delete, no matched pair may be "open" (insert
    // seen, delete not yet seen).
    // (3): at a matched delete, the smallest priority among unmatched
    // inserts seen so far must not undercut the matched insert's priority.
    let mut open_pairs: u64 = 0;
    let mut min_unmatched_ins: Option<(u64, u64)> = None; // (prio, witness)
    let mut ins_prio_of_del = HashMap::with_capacity(matching.by_delete.len());
    for (del, ins) in &matching.by_delete {
        let prio = match record_of(*ins).kind {
            OpKind::Insert(e) => e.prio.0,
            OpKind::DeleteMin => unreachable!("matching maps deletes to inserts"),
        };
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
                        // Some matched pair (ins ≺ here ≺ del) is open.
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

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::{ElemId, Element, NodeId, Priority};

    fn elem(seq: u64, prio: u64) -> Element {
        Element::new(ElemId::compose(NodeId(0), seq), Priority(prio), 0)
    }

    fn hist(entries: &[(OpKind, OpReturn, u64)]) -> History {
        let mut h = History::new(1);
        for (kind, ret, w) in entries {
            let v = NodeId(0);
            let id = h.node(v).issue(v, *kind);
            h.node(v).complete(id, *ret);
            h.node(v).witness(id, *w);
        }
        h
    }

    #[test]
    fn clean_history_passes() {
        let e1 = elem(0, 1);
        let e2 = elem(1, 2);
        let h = hist(&[
            (OpKind::Insert(e1), OpReturn::Inserted, 1),
            (OpKind::Insert(e2), OpReturn::Inserted, 2),
            (OpKind::DeleteMin, OpReturn::Removed(e1), 3),
            (OpKind::DeleteMin, OpReturn::Removed(e2), 4),
            (OpKind::DeleteMin, OpReturn::Bottom, 5),
        ]);
        check_heap_properties(&h).unwrap();
    }

    #[test]
    fn property1_violation() {
        let e = elem(0, 1);
        let h = hist(&[
            (OpKind::DeleteMin, OpReturn::Removed(e), 1),
            (OpKind::Insert(e), OpReturn::Inserted, 2),
        ]);
        assert!(matches!(
            check_heap_properties(&h),
            Err(HeapViolation::DeleteBeforeInsert { .. })
        ));
    }

    #[test]
    fn property2_violation() {
        let e = elem(0, 1);
        // Insert ≺ bottom-Delete ≺ matched Delete.
        let h = hist(&[
            (OpKind::Insert(e), OpReturn::Inserted, 1),
            (OpKind::DeleteMin, OpReturn::Bottom, 2),
            (OpKind::DeleteMin, OpReturn::Removed(e), 3),
        ]);
        assert!(matches!(
            check_heap_properties(&h),
            Err(HeapViolation::BottomWhileOccupied { .. })
        ));
    }

    #[test]
    fn property3_violation() {
        let urgent = elem(0, 0); // never removed
        let lazy = elem(1, 9);
        let h = hist(&[
            (OpKind::Insert(urgent), OpReturn::Inserted, 1),
            (OpKind::Insert(lazy), OpReturn::Inserted, 2),
            (OpKind::DeleteMin, OpReturn::Removed(lazy), 3),
        ]);
        assert!(matches!(
            check_heap_properties(&h),
            Err(HeapViolation::WrongPriorityServed { .. })
        ));
    }

    #[test]
    fn unremoved_elements_are_fine() {
        let e = elem(0, 3);
        let h = hist(&[(OpKind::Insert(e), OpReturn::Inserted, 1)]);
        check_heap_properties(&h).unwrap();
    }

    #[test]
    fn incomplete_ops_are_ignored() {
        let mut h = History::new(1);
        let v = NodeId(0);
        h.node(v).issue(v, OpKind::DeleteMin); // never completes
        check_heap_properties(&h).unwrap();
    }
}
