//! Property-index consistency under random mutation scripts.
//!
//! The invariant: after **every** step — plain mutations, `begin`,
//! `commit`, `rollback`, and mid-transaction `rollback_to` — every index
//! **equality lookup, range lookup and prefix lookup** must agree with a
//! brute-force scan over the whole graph using Cypher equality/ordering
//! ([`Value::eq3`] / [`Value::cmp3`]). Range lookups may also *refuse*
//! (`None`, e.g. while a ±2⁵³ lossy numeric is stored) — that is the
//! planner's scan fallback, not an inconsistency — but when they answer,
//! the answer must be exact. This is the graph-level half of the guarantee
//! the trigger engine relies on when a statement (or a whole trigger
//! cascade) aborts; the engine-level half (RecursionLimit aborts) lives in
//! `pg-triggers`' integration tests.

use pg_graph::{Graph, GraphView, IndexDef, IndexScope, NodeId, PropertyMap, StatementMark, Value};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::ops::Bound;

/// A random script step. Node references are dense indexes into the current
/// id list so scripts stay valid regardless of prior steps; transaction
/// steps are no-ops when they do not apply (e.g. `Commit` outside a tx).
#[derive(Debug, Clone)]
enum Step {
    CreateNode {
        label: u8,
        prop: u8,
        val: i64,
    },
    DetachDelete {
        pick: usize,
    },
    SetProp {
        pick: usize,
        prop: u8,
        val: i64,
    },
    SetFloatProp {
        pick: usize,
        prop: u8,
        val: i64,
    },
    /// Values at/around the ±2⁵³ exactness boundary (`sel` picks one):
    /// stored they are lossy (range scans must opt out), removed they must
    /// re-enable range answers.
    SetHugeProp {
        pick: usize,
        prop: u8,
        sel: u8,
    },
    SetStrProp {
        pick: usize,
        prop: u8,
        val: u8,
    },
    RemoveProp {
        pick: usize,
        prop: u8,
    },
    SetNullProp {
        pick: usize,
        prop: u8,
    },
    SetLabel {
        pick: usize,
        label: u8,
    },
    RemoveLabel {
        pick: usize,
        label: u8,
    },
    CreateIndex {
        label: u8,
        prop: u8,
    },
    DropIndex {
        label: u8,
        prop: u8,
    },
    Begin,
    Mark,
    RollbackTo,
    Rollback,
    Commit,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..3, 0u8..3, -4i64..4).prop_map(|(label, prop, val)| Step::CreateNode {
            label,
            prop,
            val
        }),
        (0usize..16).prop_map(|pick| Step::DetachDelete { pick }),
        (0usize..16, 0u8..3, -4i64..4).prop_map(|(pick, prop, val)| Step::SetProp {
            pick,
            prop,
            val
        }),
        (0usize..16, 0u8..3, -4i64..4).prop_map(|(pick, prop, val)| Step::SetFloatProp {
            pick,
            prop,
            val
        }),
        (0usize..16, 0u8..3, 0u8..6).prop_map(|(pick, prop, sel)| Step::SetHugeProp {
            pick,
            prop,
            sel
        }),
        (0usize..16, 0u8..3, 0u8..6).prop_map(|(pick, prop, val)| Step::SetStrProp {
            pick,
            prop,
            val
        }),
        (0usize..16, 0u8..3).prop_map(|(pick, prop)| Step::RemoveProp { pick, prop }),
        (0usize..16, 0u8..3).prop_map(|(pick, prop)| Step::SetNullProp { pick, prop }),
        (0usize..16, 0u8..3).prop_map(|(pick, label)| Step::SetLabel { pick, label }),
        (0usize..16, 0u8..3).prop_map(|(pick, label)| Step::RemoveLabel { pick, label }),
        (0u8..3, 0u8..3).prop_map(|(label, prop)| Step::CreateIndex { label, prop }),
        (0u8..3, 0u8..3).prop_map(|(label, prop)| Step::DropIndex { label, prop }),
        Just(Step::Begin),
        Just(Step::Mark),
        Just(Step::RollbackTo),
        Just(Step::Rollback),
        Just(Step::Commit),
    ]
}

fn label_name(i: u8) -> String {
    format!("L{i}")
}
fn prop_name(i: u8) -> String {
    format!("p{i}")
}

/// Transaction bookkeeping threaded through the script.
#[derive(Default)]
struct Driver {
    marks: Vec<StatementMark>,
}

impl Driver {
    fn apply(&mut self, g: &mut Graph, step: &Step) {
        let nodes = g.all_node_ids();
        match step {
            Step::CreateNode { label, prop, val } => {
                let props: PropertyMap =
                    [(prop_name(*prop), Value::Int(*val))].into_iter().collect();
                g.create_node([label_name(*label)], props).unwrap();
            }
            Step::DetachDelete { pick } => {
                if !nodes.is_empty() {
                    g.detach_delete_node(nodes[pick % nodes.len()]).unwrap();
                }
            }
            Step::SetProp { pick, prop, val } => {
                if !nodes.is_empty() {
                    g.set_node_prop(
                        nodes[pick % nodes.len()],
                        prop_name(*prop),
                        Value::Int(*val),
                    )
                    .unwrap();
                }
            }
            Step::SetFloatProp { pick, prop, val } => {
                // integral floats exercise the Int/Float key normalization
                if !nodes.is_empty() {
                    g.set_node_prop(
                        nodes[pick % nodes.len()],
                        prop_name(*prop),
                        Value::Float(*val as f64),
                    )
                    .unwrap();
                }
            }
            Step::SetHugeProp { pick, prop, sel } => {
                if !nodes.is_empty() {
                    let bound = 1i64 << 53;
                    let v = match sel {
                        0 => Value::Int(bound),
                        1 => Value::Int(bound + 1),
                        2 => Value::Int(-bound),
                        3 => Value::Float(bound as f64),
                        4 => Value::Float(-(bound as f64)),
                        _ => Value::Int(bound - 1), // last exactly-keyable int
                    };
                    g.set_node_prop(nodes[pick % nodes.len()], prop_name(*prop), v)
                        .unwrap();
                }
            }
            Step::SetStrProp { pick, prop, val } => {
                if !nodes.is_empty() {
                    // overlapping prefixes: "", "a", "ab", "ab", "b", "ba"
                    let s = ["", "a", "ab", "abc", "b", "ba"][*val as usize % 6];
                    g.set_node_prop(nodes[pick % nodes.len()], prop_name(*prop), Value::str(s))
                        .unwrap();
                }
            }
            Step::RemoveProp { pick, prop } => {
                if !nodes.is_empty() {
                    g.remove_node_prop(nodes[pick % nodes.len()], &prop_name(*prop))
                        .unwrap();
                }
            }
            Step::SetNullProp { pick, prop } => {
                if !nodes.is_empty() {
                    g.set_node_prop(nodes[pick % nodes.len()], prop_name(*prop), Value::Null)
                        .unwrap();
                }
            }
            Step::SetLabel { pick, label } => {
                if !nodes.is_empty() {
                    g.set_label(nodes[pick % nodes.len()], label_name(*label))
                        .unwrap();
                }
            }
            Step::RemoveLabel { pick, label } => {
                if !nodes.is_empty() {
                    g.remove_label(nodes[pick % nodes.len()], &label_name(*label))
                        .unwrap();
                }
            }
            Step::CreateIndex { label, prop } => {
                g.create_index(&label_name(*label), &prop_name(*prop));
            }
            Step::DropIndex { label, prop } => {
                g.drop_index(&IndexDef::node(&label_name(*label), &[prop_name(*prop)]));
            }
            Step::Begin => {
                if !g.in_tx() {
                    g.begin().unwrap();
                    self.marks.clear();
                }
            }
            Step::Mark => {
                if g.in_tx() {
                    self.marks.push(g.mark());
                }
            }
            Step::RollbackTo => {
                if g.in_tx() {
                    if let Some(m) = self.marks.pop() {
                        g.rollback_to(m).unwrap();
                    }
                }
            }
            Step::Rollback => {
                if g.in_tx() {
                    g.rollback().unwrap();
                    self.marks.clear();
                }
            }
            Step::Commit => {
                if g.in_tx() {
                    g.commit().unwrap();
                    self.marks.clear();
                }
            }
        }
    }
}

/// Whether a stored value satisfies `lower ⋚ v ⋚ upper` under
/// [`Value::cmp3`] (the reference semantics of a pushed-down range
/// predicate: each bound is a conjunct, NULL comparisons never hold).
fn in_range3(v: &Value, lower: &Bound<&Value>, upper: &Bound<&Value>) -> bool {
    let lo_ok = match lower {
        Bound::Unbounded => true,
        Bound::Included(b) => matches!(v.cmp3(b), Some(Ordering::Greater | Ordering::Equal)),
        Bound::Excluded(b) => matches!(v.cmp3(b), Some(Ordering::Greater)),
    };
    let hi_ok = match upper {
        Bound::Unbounded => true,
        Bound::Included(b) => matches!(v.cmp3(b), Some(Ordering::Less | Ordering::Equal)),
        Bound::Excluded(b) => matches!(v.cmp3(b), Some(Ordering::Less)),
    };
    lo_ok && hi_ok
}

/// Index lookups == brute-force scan, for every index definition and every
/// equality value, range, and prefix over (a superset of) the script's
/// value universe.
fn check_index_vs_scan(g: &Graph) {
    let all = g.all_node_ids();
    let huge = 1i64 << 53;
    let mut universe: Vec<Value> = (-5i64..6).map(Value::Int).collect();
    universe.extend((-5i64..6).map(|v| Value::Float(v as f64)));
    universe.push(Value::Float(0.5));
    universe.push(Value::Int(huge - 1));
    for def in g.indexes() {
        let (IndexScope::Label(label), [key]) = (def.scope(), &def.columns[..]) else {
            panic!("only single-key node indexes are created, found {def}");
        };
        for value in &universe {
            let via_index: BTreeSet<NodeId> = g
                .nodes_with_prop(label, key, value)
                .unwrap_or_else(|| panic!("index on ({label},{key}) must answer"))
                .into_iter()
                .collect();
            let via_scan: BTreeSet<NodeId> = all
                .iter()
                .copied()
                .filter(|&id| {
                    g.node(id).is_some_and(|n| n.has_label(label))
                        && g.node(id)
                            .and_then(|n| n.props.get(key))
                            .cloned()
                            .is_some_and(|have| have.eq3(value) == Some(true))
                })
                .collect();
            assert_eq!(
                via_index, via_scan,
                "index ({label},{key}) diverged from scan for {value}"
            );
        }

        // Range queries: one- and two-sided, inclusive and exclusive,
        // including bounds at the ±2^53 exactness frontier. A `None`
        // answer is the legal scan fallback; a `Some` answer must be
        // exactly the brute-force filter.
        let range_bounds: Vec<Value> = vec![
            Value::Int(-2),
            Value::Int(0),
            Value::Float(0.5),
            Value::Int(2),
            Value::Int(huge - 1),
            Value::Float(f64::INFINITY),
        ];
        let mut ranges: Vec<(Bound<&Value>, Bound<&Value>)> = Vec::new();
        for b in &range_bounds {
            ranges.push((Bound::Included(b), Bound::Unbounded));
            ranges.push((Bound::Excluded(b), Bound::Unbounded));
            ranges.push((Bound::Unbounded, Bound::Included(b)));
            ranges.push((Bound::Unbounded, Bound::Excluded(b)));
        }
        ranges.push((
            Bound::Included(&range_bounds[0]),
            Bound::Excluded(&range_bounds[3]),
        ));
        ranges.push((
            Bound::Excluded(&range_bounds[1]),
            Bound::Included(&range_bounds[2]),
        ));
        for (lo, hi) in ranges {
            if let Some(ids) = g.nodes_in_prop_range(label, key, lo, hi) {
                let via_index: BTreeSet<NodeId> = ids.into_iter().collect();
                let via_scan: BTreeSet<NodeId> = all
                    .iter()
                    .copied()
                    .filter(|&id| {
                        g.node(id).is_some_and(|n| n.has_label(label))
                            && g.node(id)
                                .and_then(|n| n.props.get(key))
                                .cloned()
                                .is_some_and(|have| in_range3(&have, &lo, &hi))
                    })
                    .collect();
                assert_eq!(
                    via_index, via_scan,
                    "range on ({label},{key}) diverged for ({lo:?}, {hi:?})"
                );
            }
        }

        // Prefix queries must always answer on an indexed (label, key).
        for prefix in ["", "a", "ab", "abc", "b", "zz"] {
            let via_index: BTreeSet<NodeId> = g
                .nodes_with_prop_prefix(label, key, prefix)
                .unwrap_or_else(|| panic!("prefix on ({label},{key}) must answer"))
                .into_iter()
                .collect();
            let via_scan: BTreeSet<NodeId> = all
                .iter()
                .copied()
                .filter(|&id| {
                    g.node(id).is_some_and(|n| n.has_label(label))
                        && g.node(id)
                            .and_then(|n| n.props.get(key))
                            .cloned()
                            .is_some_and(
                                |have| matches!(&have, Value::Str(s) if s.starts_with(prefix)),
                            )
                })
                .collect();
            assert_eq!(
                via_index, via_scan,
                "prefix on ({label},{key}) diverged for '{prefix}'"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn index_equals_scan_after_every_step(script in prop::collection::vec(step_strategy(), 0..60)) {
        let mut g = Graph::new();
        let mut d = Driver::default();
        for step in &script {
            d.apply(&mut g, step);
            check_index_vs_scan(&g);
        }
        // wind down: abort any open transaction and re-check
        if g.in_tx() {
            g.rollback().unwrap();
            check_index_vs_scan(&g);
        }
    }

    #[test]
    fn index_equals_scan_after_full_rollback(pre in prop::collection::vec(step_strategy(), 0..25),
                                             tx in prop::collection::vec(step_strategy(), 0..25)) {
        // Indexes created up front so the whole script is index-maintained.
        let mut g = Graph::new();
        for l in 0..3u8 {
            for p in 0..3u8 {
                g.create_index(&label_name(l), &prop_name(p));
            }
        }
        let mut d = Driver::default();
        for step in &pre {
            d.apply(&mut g, step);
        }
        if g.in_tx() {
            g.commit().unwrap();
        }
        g.begin().unwrap();
        for step in &tx {
            // nested tx control inside: skip tx steps, keep mutations
            if matches!(step, Step::Begin | Step::Rollback | Step::Commit) {
                continue;
            }
            d.apply(&mut g, step);
        }
        g.rollback().unwrap();
        check_index_vs_scan(&g);
    }
}
