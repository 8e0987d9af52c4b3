//! Property-based tests for the graph store.
//!
//! Invariants checked under random operation sequences:
//! * rollback restores the exact pre-transaction state;
//! * the label index always equals a full scan;
//! * adjacency equals a brute-force list built from the relationship
//!   records, per node, direction and type, on the graph and on a
//!   published snapshot, and each type's entries form one run;
//! * the pre-state view of a statement equals the actual pre-state —
//!   records, per-type adjacency, and every overlay-corrected index probe;
//! * delta normalization is sound (created ∩ deleted = ∅, events never
//!   reference items created later in the same slice).

use pg_graph::{
    CompositeTrailing, Direction, Graph, GraphView, Hop, IndexDef, IndexProbe, NodeId,
    PreStateView, ProbeMode, PropertyMap, Value,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::Bound;

/// A random mutation script step, referencing nodes/rels by dense index so
/// scripts stay valid regardless of prior steps.
#[derive(Debug, Clone)]
enum Step {
    CreateNode { label: u8, prop: u8, val: i64 },
    DetachDelete { pick: usize },
    CreateRel { src: usize, dst: usize, ty: u8 },
    DeleteRel { pick: usize },
    SetProp { pick: usize, prop: u8, val: i64 },
    RemoveProp { pick: usize, prop: u8 },
    SetLabel { pick: usize, label: u8 },
    RemoveLabel { pick: usize, label: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..4, 0u8..3, -5i64..5).prop_map(|(label, prop, val)| Step::CreateNode {
            label,
            prop,
            val
        }),
        (0usize..16).prop_map(|pick| Step::DetachDelete { pick }),
        (0usize..16, 0usize..16, 0u8..3).prop_map(|(src, dst, ty)| Step::CreateRel {
            src,
            dst,
            ty
        }),
        (0usize..16).prop_map(|pick| Step::DeleteRel { pick }),
        (0usize..16, 0u8..3, -5i64..5).prop_map(|(pick, prop, val)| Step::SetProp {
            pick,
            prop,
            val
        }),
        (0usize..16, 0u8..3).prop_map(|(pick, prop)| Step::RemoveProp { pick, prop }),
        (0usize..16, 0u8..4).prop_map(|(pick, label)| Step::SetLabel { pick, label }),
        (0usize..16, 0u8..4).prop_map(|(pick, label)| Step::RemoveLabel { pick, label }),
    ]
}

fn label_name(i: u8) -> String {
    format!("L{i}")
}
fn prop_name(i: u8) -> String {
    format!("p{i}")
}

fn apply(g: &mut Graph, step: &Step) {
    let nodes = g.all_node_ids();
    let rels = g.all_rel_ids();
    match step {
        Step::CreateNode { label, prop, val } => {
            let props: PropertyMap = [(prop_name(*prop), Value::Int(*val))].into_iter().collect();
            g.create_node([label_name(*label)], props).unwrap();
        }
        Step::DetachDelete { pick } => {
            if !nodes.is_empty() {
                let id = nodes[pick % nodes.len()];
                g.detach_delete_node(id).unwrap();
            }
        }
        Step::CreateRel { src, dst, ty } => {
            if !nodes.is_empty() {
                let s = nodes[src % nodes.len()];
                let d = nodes[dst % nodes.len()];
                // Properties are a function of the step, so twins agree and
                // the relationship indexes have something to key on.
                let props: PropertyMap = [
                    (prop_name(0), Value::Int((src % 5) as i64 - 2)),
                    (prop_name(1), Value::Int((dst % 3) as i64)),
                ]
                .into_iter()
                .filter(|_| src % 4 != 0)
                .collect();
                g.create_rel(s, d, format!("T{ty}"), props).unwrap();
            }
        }
        Step::DeleteRel { pick } => {
            if !rels.is_empty() {
                g.delete_rel(rels[pick % rels.len()]).unwrap();
            }
        }
        Step::SetProp { pick, prop, val } => {
            if !nodes.is_empty() {
                let id = nodes[pick % nodes.len()];
                g.set_node_prop(id, prop_name(*prop), Value::Int(*val))
                    .unwrap();
            }
        }
        Step::RemoveProp { pick, prop } => {
            if !nodes.is_empty() {
                let id = nodes[pick % nodes.len()];
                g.remove_node_prop(id, &prop_name(*prop)).unwrap();
            }
        }
        Step::SetLabel { pick, label } => {
            if !nodes.is_empty() {
                let id = nodes[pick % nodes.len()];
                g.set_label(id, label_name(*label)).unwrap();
            }
        }
        Step::RemoveLabel { pick, label } => {
            if !nodes.is_empty() {
                let id = nodes[pick % nodes.len()];
                g.remove_label(id, &label_name(*label)).unwrap();
            }
        }
    }
}

/// A comparable snapshot of full graph state.
fn snapshot(g: &Graph) -> Vec<String> {
    let mut out = Vec::new();
    for id in g.all_node_ids() {
        let n = g.node(id).unwrap();
        out.push(format!("{:?}", n));
    }
    for id in g.all_rel_ids() {
        let r = g.rel(id).unwrap();
        out.push(format!("{:?}", r));
    }
    out
}

fn check_indexes(g: &Graph) {
    // label index == scan
    for label in g.labels() {
        let via_index: BTreeSet<NodeId> = g.nodes_with_label(&label).into_iter().collect();
        let via_scan: BTreeSet<NodeId> = g
            .all_node_ids()
            .into_iter()
            .filter(|&id| g.node(id).is_some_and(|n| n.has_label(&label)))
            .collect();
        assert_eq!(via_index, via_scan, "label index diverged for {label}");
    }
    check_adjacency(g);
}

/// The relationship types of the scripts, and `None` for an untyped hop.
const HOP_TYPES: [Option<&str>; 4] = [None, Some("T0"), Some("T1"), Some("T2")];

/// The hops of `node` in `dir` of type `ty` (any when `None`), built from
/// the relationship records alone, sorted by relationship id.
fn brute_force_hops(
    view: &dyn GraphView,
    node: NodeId,
    dir: Direction,
    ty: Option<&str>,
) -> Vec<Hop> {
    let rels = view.all_rel_ids().into_iter().filter_map(|r| view.rel(r));
    rels.filter(|r| ty.is_none_or(|t| r.rel_type == t))
        .filter_map(|r| match dir {
            Direction::Out => (r.src == node).then_some((r.id, r.dst)),
            _ => (r.dst == node).then_some((r.id, r.src)),
        })
        .collect()
}

/// The store's adjacency is exact: for every node, direction and type the
/// sorted `hops` equal the brute-force list, and an untyped list holds
/// each type's entries in one run.
fn check_adjacency(view: &dyn GraphView) {
    for node in view.all_node_ids() {
        for dir in [Direction::Out, Direction::In] {
            for ty in HOP_TYPES {
                let mut got = view.hops(node, dir, ty).into_owned();
                got.sort();
                let want = brute_force_hops(view, node, dir, ty);
                assert_eq!(got, want, "hops of {node} {dir:?} {ty:?}");
            }
            let types: Vec<&str> = (view.hops(node, dir, None).iter())
                .map(|(r, _)| view.rel(*r).unwrap().rel_type.as_str())
                .collect();
            let mut runs = types.clone();
            runs.dedup();
            let mut distinct = runs.clone();
            distinct.sort();
            distinct.dedup();
            assert_eq!(
                runs.len(),
                distinct.len(),
                "{node} {dir:?} not in runs: {types:?}"
            );
        }
    }
}

/// Width-1 and width-2 definitions over the script's labels, types and
/// property names, for nodes and relationships.
fn index_defs() -> Vec<IndexDef> {
    let cols = |ps: &[u8]| ps.iter().map(|p| prop_name(*p)).collect::<Vec<_>>();
    vec![
        IndexDef::node(&label_name(0), &cols(&[0])),
        IndexDef::node(&label_name(1), &cols(&[1])),
        IndexDef::node(&label_name(0), &cols(&[0, 1])),
        IndexDef::node(&label_name(1), &cols(&[2, 0])),
        IndexDef::rel("T0", &cols(&[0])),
        IndexDef::rel("T1", &cols(&[1])),
        IndexDef::rel("T0", &cols(&[0, 1])),
    ]
}

fn create_indexes(g: &mut Graph) {
    for def in index_defs() {
        assert!(g.define_index(&def), "{def}");
    }
}

/// Every probe shape × {ids, count}: the pre-state view's overlay-corrected
/// answer must equal the reference pre-state graph's own index answer (or
/// both refuse). Leading-column range *counts* are histogram estimates
/// whose drift depends on each twin's history, so there only the refusal
/// must agree.
fn check_probes(view: &PreStateView<'_>, reference: &Graph) {
    let vals: Vec<Value> = (-5..5).map(Value::Int).collect();
    for def in index_defs() {
        let (scope, columns) = (def.scope(), &def.columns);
        let mut specs: Vec<(Vec<Value>, CompositeTrailing<'_>)> = Vec::new();
        for (i, v) in vals.iter().enumerate() {
            let from = CompositeTrailing::Range(Bound::Included(v), Bound::Unbounded);
            let below = CompositeTrailing::Range(Bound::Unbounded, Bound::Excluded(v));
            // leading-column equality (full width at 1, sub-width at 2),
            // range and prefix
            specs.push((vec![v.clone()], CompositeTrailing::None));
            specs.push((vec![], from));
            specs.push((vec![], below));
            if columns.len() == 2 {
                // full-width equality, and equality + trailing bound
                specs.push((
                    vec![v.clone(), vals[(i * 3) % 10].clone()],
                    CompositeTrailing::None,
                ));
                specs.push((vec![v.clone()], from));
                specs.push((vec![v.clone()], CompositeTrailing::Prefix("")));
            }
        }
        specs.push((vec![], CompositeTrailing::Prefix("")));
        for (eq, trailing) in &specs {
            let probe = IndexProbe {
                columns,
                eq,
                trailing: *trailing,
            };
            for mode in [ProbeMode::Ids, ProbeMode::Count] {
                let got = view.probe(scope, probe, mode);
                let want = reference.probe(scope, probe, mode);
                let estimated = mode == ProbeMode::Count
                    && eq.is_empty()
                    && matches!(trailing, CompositeTrailing::Range(..));
                if estimated {
                    assert_eq!(got.is_some(), want.is_some(), "{def} {probe:?}");
                } else {
                    assert_eq!(got, want, "{def} {probe:?} {mode:?}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rollback_restores_state(pre in prop::collection::vec(step_strategy(), 0..20),
                               tx in prop::collection::vec(step_strategy(), 0..20)) {
        let mut g = Graph::new();
        for s in &pre { apply(&mut g, s); }
        let before = snapshot(&g);
        g.begin().unwrap();
        for s in &tx { apply(&mut g, s); }
        g.rollback().unwrap();
        prop_assert_eq!(snapshot(&g), before);
        check_indexes(&g);
        check_adjacency(&g.snapshot());
    }

    #[test]
    fn indexes_consistent_after_commit(pre in prop::collection::vec(step_strategy(), 0..20),
                                       tx in prop::collection::vec(step_strategy(), 0..20)) {
        let mut g = Graph::new();
        for s in &pre { apply(&mut g, s); }
        g.begin().unwrap();
        for s in &tx { apply(&mut g, s); }
        g.commit().unwrap();
        check_indexes(&g);
        check_adjacency(&g.snapshot());
    }

    #[test]
    fn pre_state_view_matches_actual_pre_state(pre in prop::collection::vec(step_strategy(), 0..15),
                                               stmt in prop::collection::vec(step_strategy(), 0..15)) {
        // Build the pre-state twice: once as a live graph (reference), once
        // via PreStateView over the post-state.
        let mut reference = Graph::new();
        create_indexes(&mut reference);
        for s in &pre { apply(&mut reference, s); }

        let mut g = Graph::new();
        create_indexes(&mut g);
        for s in &pre { apply(&mut g, s); }
        g.begin().unwrap();
        let mark = g.mark();
        for s in &stmt { apply(&mut g, s); }
        let ops = g.ops_since(mark).to_vec();
        let view = PreStateView::new(&g, &ops);
        check_probes(&view, &reference);

        prop_assert_eq!(view.all_node_ids(), reference.all_node_ids());
        prop_assert_eq!(view.all_rel_ids(), reference.all_rel_ids());
        for id in reference.all_node_ids() {
            prop_assert_eq!(view.node(id), reference.node(id));
            for (dir, ty) in [Direction::Out, Direction::In]
                .into_iter()
                .flat_map(|dir| HOP_TYPES.map(|ty| (dir, ty)))
            {
                let mut want = reference.hops(id, dir, ty).into_owned();
                want.sort();
                let got = view.hops(id, dir, ty).into_owned();
                prop_assert_eq!(got, want, "{} {:?} {:?}", id, dir, ty);
            }
        }
        for id in reference.all_rel_ids() {
            prop_assert_eq!(view.rel(id), reference.rel(id));
        }
    }

    #[test]
    fn delta_is_sound(pre in prop::collection::vec(step_strategy(), 0..15),
                      stmt in prop::collection::vec(step_strategy(), 0..15)) {
        let mut g = Graph::new();
        for s in &pre { apply(&mut g, s); }
        g.begin().unwrap();
        let mark = g.mark();
        for s in &stmt { apply(&mut g, s); }
        let delta = g.delta_since(mark);

        let created: BTreeSet<_> = delta.created_nodes.iter().map(|n| n.id).collect();
        let deleted: BTreeSet<_> = delta.deleted_nodes.iter().map(|n| n.id).collect();
        prop_assert!(created.is_disjoint(&deleted), "node created and deleted in same delta");

        // Created nodes exist with exactly the recorded final state.
        for rec in &delta.created_nodes {
            prop_assert!(g.node(rec.id).is_some());
            prop_assert_eq!(g.node(rec.id).unwrap(), rec);
        }
        // Deleted nodes are gone.
        for rec in &delta.deleted_nodes {
            prop_assert!(g.node(rec.id).is_none());
        }
        // Net label assignments hold in the post-state, on pre-existing nodes.
        for ev in &delta.assigned_labels {
            prop_assert!(!created.contains(&ev.node));
            prop_assert!(g.node(ev.node).is_some_and(|n| n.has_label(&ev.label)));
        }
        for ev in &delta.removed_labels {
            prop_assert!(!g.node(ev.node).is_some_and(|n| n.has_label(&ev.label)));
        }
        // Assigned props carry the true old (pre-state) and new (post-state) values.
        let ops = g.ops_since(mark).to_vec();
        let pre_view = PreStateView::new(&g, &ops);
        for pa in &delta.assigned_node_props {
            prop_assert_eq!(g.node(pa.target).and_then(|n| n.props.get(&pa.key)).unwrap_or(&Value::Null), &pa.new);
            prop_assert_eq!(pre_view.node(pa.target).and_then(|n| n.props.get(&pa.key)).unwrap_or(&Value::Null), &pa.old);
        }
        for pr in &delta.removed_node_props {
            prop_assert_eq!(g.node(pr.target).and_then(|n| n.props.get(&pr.key)), None);
            prop_assert_eq!(pre_view.node(pr.target).and_then(|n| n.props.get(&pr.key)), Some(&pr.old));
        }
    }
}
