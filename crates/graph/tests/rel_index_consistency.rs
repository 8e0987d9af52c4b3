//! Relationship-property-index consistency under random mutation scripts.
//!
//! Mirror of `prop_index_consistency` for the `(type, key, value)` →
//! relationship indexes: after every step — rel creation/deletion (incl.
//! detach-deleting an endpoint), property set/remove, index DDL, `begin`,
//! `commit`, `rollback`, and mid-transaction `rollback_to` — every
//! equality and range lookup must agree with a brute-force scan over all
//! relationships.

use pg_graph::{Graph, GraphView, IndexDef, IndexScope, PropertyMap, RelId, StatementMark, Value};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::ops::Bound;

#[derive(Debug, Clone)]
enum Step {
    CreateNode,
    CreateRel {
        src: usize,
        dst: usize,
        ty: u8,
        prop: u8,
        val: i64,
    },
    DeleteRel {
        pick: usize,
    },
    DetachDeleteNode {
        pick: usize,
    },
    SetRelProp {
        pick: usize,
        prop: u8,
        val: i64,
    },
    SetRelFloatProp {
        pick: usize,
        prop: u8,
        val: i64,
    },
    SetRelHugeProp {
        pick: usize,
        prop: u8,
        sel: u8,
    },
    RemoveRelProp {
        pick: usize,
        prop: u8,
    },
    SetRelNullProp {
        pick: usize,
        prop: u8,
    },
    CreateIndex {
        ty: u8,
        prop: u8,
    },
    DropIndex {
        ty: u8,
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
        Just(Step::CreateNode),
        (0usize..16, 0usize..16, 0u8..2, 0u8..3, -4i64..4).prop_map(|(src, dst, ty, prop, val)| {
            Step::CreateRel {
                src,
                dst,
                ty,
                prop,
                val,
            }
        }),
        (0usize..16).prop_map(|pick| Step::DeleteRel { pick }),
        (0usize..16).prop_map(|pick| Step::DetachDeleteNode { pick }),
        (0usize..16, 0u8..3, -4i64..4).prop_map(|(pick, prop, val)| Step::SetRelProp {
            pick,
            prop,
            val
        }),
        (0usize..16, 0u8..3, -4i64..4).prop_map(|(pick, prop, val)| Step::SetRelFloatProp {
            pick,
            prop,
            val
        }),
        (0usize..16, 0u8..3, 0u8..4).prop_map(|(pick, prop, sel)| Step::SetRelHugeProp {
            pick,
            prop,
            sel
        }),
        (0usize..16, 0u8..3).prop_map(|(pick, prop)| Step::RemoveRelProp { pick, prop }),
        (0usize..16, 0u8..3).prop_map(|(pick, prop)| Step::SetRelNullProp { pick, prop }),
        (0u8..2, 0u8..3).prop_map(|(ty, prop)| Step::CreateIndex { ty, prop }),
        (0u8..2, 0u8..3).prop_map(|(ty, prop)| Step::DropIndex { ty, prop }),
        Just(Step::Begin),
        Just(Step::Mark),
        Just(Step::RollbackTo),
        Just(Step::Rollback),
        Just(Step::Commit),
    ]
}

fn type_name(i: u8) -> String {
    format!("T{i}")
}
fn prop_name(i: u8) -> String {
    format!("p{i}")
}

#[derive(Default)]
struct Driver {
    marks: Vec<StatementMark>,
}

impl Driver {
    fn apply(&mut self, g: &mut Graph, step: &Step) {
        let nodes = g.all_node_ids();
        let rels = g.all_rel_ids();
        match step {
            Step::CreateNode => {
                g.create_node(["N"], PropertyMap::new()).unwrap();
            }
            Step::CreateRel {
                src,
                dst,
                ty,
                prop,
                val,
            } => {
                if !nodes.is_empty() {
                    let s = nodes[src % nodes.len()];
                    let d = nodes[dst % nodes.len()];
                    let props: PropertyMap =
                        [(prop_name(*prop), Value::Int(*val))].into_iter().collect();
                    g.create_rel(s, d, type_name(*ty), props).unwrap();
                }
            }
            Step::DeleteRel { pick } => {
                if !rels.is_empty() {
                    g.delete_rel(rels[pick % rels.len()]).unwrap();
                }
            }
            Step::DetachDeleteNode { pick } => {
                if !nodes.is_empty() {
                    g.detach_delete_node(nodes[pick % nodes.len()]).unwrap();
                }
            }
            Step::SetRelProp { pick, prop, val } => {
                if !rels.is_empty() {
                    g.set_rel_prop(rels[pick % rels.len()], prop_name(*prop), Value::Int(*val))
                        .unwrap();
                }
            }
            Step::SetRelFloatProp { pick, prop, val } => {
                if !rels.is_empty() {
                    g.set_rel_prop(
                        rels[pick % rels.len()],
                        prop_name(*prop),
                        Value::Float(*val as f64),
                    )
                    .unwrap();
                }
            }
            Step::SetRelHugeProp { pick, prop, sel } => {
                if !rels.is_empty() {
                    let bound = 1i64 << 53;
                    let v = match sel {
                        0 => Value::Int(bound),
                        1 => Value::Int(bound + 1),
                        2 => Value::Float(bound as f64),
                        _ => Value::Int(bound - 1),
                    };
                    g.set_rel_prop(rels[pick % rels.len()], prop_name(*prop), v)
                        .unwrap();
                }
            }
            Step::RemoveRelProp { pick, prop } => {
                if !rels.is_empty() {
                    g.remove_rel_prop(rels[pick % rels.len()], &prop_name(*prop))
                        .unwrap();
                }
            }
            Step::SetRelNullProp { pick, prop } => {
                if !rels.is_empty() {
                    g.set_rel_prop(rels[pick % rels.len()], prop_name(*prop), Value::Null)
                        .unwrap();
                }
            }
            Step::CreateIndex { ty, prop } => {
                g.define_index(&IndexDef::rel(&type_name(*ty), &[prop_name(*prop)]));
            }
            Step::DropIndex { ty, prop } => {
                g.drop_index(&IndexDef::rel(&type_name(*ty), &[prop_name(*prop)]));
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

/// Rel-index lookups == brute-force scans over all relationships.
fn check_rel_index_vs_scan(g: &Graph) {
    let all = g.all_rel_ids();
    let mut universe: Vec<Value> = (-5i64..6).map(Value::Int).collect();
    universe.extend([-1i64, 0, 1].map(|v| Value::Float(v as f64)));
    universe.push(Value::Int((1i64 << 53) - 1));
    for def in g.indexes() {
        let (IndexScope::RelType(ty), [key]) = (def.scope(), &def.columns[..]) else {
            panic!("only single-key relationship indexes are created, found {def}");
        };
        for value in &universe {
            let via_index: BTreeSet<RelId> = g
                .rels_with_prop(ty, key, value)
                .unwrap_or_else(|| panic!("rel index on ({ty},{key}) must answer"))
                .into_iter()
                .collect();
            let via_scan: BTreeSet<RelId> = all
                .iter()
                .copied()
                .filter(|&id| {
                    g.rel(id).is_some_and(|r| {
                        r.rel_type == ty
                            && r.props
                                .get(key)
                                .is_some_and(|have| have.eq3(value) == Some(true))
                    })
                })
                .collect();
            assert_eq!(
                via_index, via_scan,
                "rel index ({ty},{key}) diverged from scan for {value}"
            );
        }
        for (lo, hi) in [
            (Bound::Included(&universe[3]), Bound::Unbounded),
            (Bound::Unbounded, Bound::Excluded(&universe[7])),
            (Bound::Excluded(&universe[2]), Bound::Included(&universe[8])),
        ] {
            if let Some(ids) = g.rels_in_prop_range(ty, key, lo, hi) {
                let via_index: BTreeSet<RelId> = ids.into_iter().collect();
                let via_scan: BTreeSet<RelId> = all
                    .iter()
                    .copied()
                    .filter(|&id| {
                        g.rel(id).is_some_and(|r| {
                            r.rel_type == ty
                                && r.props
                                    .get(key)
                                    .is_some_and(|have| in_range3(have, &lo, &hi))
                        })
                    })
                    .collect();
                assert_eq!(
                    via_index, via_scan,
                    "rel range on ({ty},{key}) diverged for ({lo:?}, {hi:?})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rel_index_equals_scan_after_every_step(script in prop::collection::vec(step_strategy(), 0..60)) {
        let mut g = Graph::new();
        let mut d = Driver::default();
        for step in &script {
            d.apply(&mut g, step);
            check_rel_index_vs_scan(&g);
        }
        if g.in_tx() {
            g.rollback().unwrap();
            check_rel_index_vs_scan(&g);
        }
    }

    #[test]
    fn rel_index_equals_scan_after_full_rollback(pre in prop::collection::vec(step_strategy(), 0..25),
                                                 tx in prop::collection::vec(step_strategy(), 0..25)) {
        let mut g = Graph::new();
        for t in 0..2u8 {
            for p in 0..3u8 {
                g.define_index(&IndexDef::rel(&type_name(t), &[prop_name(p)]));
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
            if matches!(step, Step::Begin | Step::Rollback | Step::Commit) {
                continue;
            }
            d.apply(&mut g, step);
        }
        g.rollback().unwrap();
        check_rel_index_vs_scan(&g);
    }
}
