//! Degree-statistics consistency under random mutation/rollback scripts.
//!
//! The planner v4 join-output estimator divides the per-(label, rel-type,
//! direction) **edge count** by the label cardinality to get the average
//! join fanout. That numerator must therefore be *exact* after every
//! step — plain mutations, label churn, `begin`, `commit`, `rollback`,
//! and mid-transaction `rollback_to` — or estimates drift permanently as
//! scripts interleave mutations with undos. These counts are the whole of
//! the store's degree statistics; [`Graph::rebuild_stats`] (index
//! histograms only) must leave them exact too.

use pg_graph::{Direction, Graph, GraphView, PropertyMap, StatementMark};
use proptest::prelude::*;

const LABELS: [&str; 3] = ["L0", "L1", "L2"];
const TYPES: [&str; 2] = ["T0", "T1"];

#[derive(Debug, Clone)]
enum Step {
    CreateNode { labels: u8 },
    CreateRel { src: usize, dst: usize, ty: u8 },
    DeleteRel { pick: usize },
    DetachDelete { pick: usize },
    SetLabel { pick: usize, label: u8 },
    RemoveLabel { pick: usize, label: u8 },
    RebuildStats,
    Begin,
    Mark,
    RollbackTo,
    Rollback,
    Commit,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..8).prop_map(|labels| Step::CreateNode { labels }),
        (0usize..16, 0usize..16, 0u8..2).prop_map(|(src, dst, ty)| Step::CreateRel {
            src,
            dst,
            ty
        }),
        (0usize..16).prop_map(|pick| Step::DeleteRel { pick }),
        (0usize..16).prop_map(|pick| Step::DetachDelete { pick }),
        (0usize..16, 0u8..3).prop_map(|(pick, label)| Step::SetLabel { pick, label }),
        (0usize..16, 0u8..3).prop_map(|(pick, label)| Step::RemoveLabel { pick, label }),
        Just(Step::RebuildStats),
        Just(Step::Begin),
        Just(Step::Mark),
        Just(Step::RollbackTo),
        Just(Step::Rollback),
        Just(Step::Commit),
    ]
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
            Step::CreateNode { labels } => {
                // 3-bit mask over LABELS, so nodes carry 0..=3 labels
                let ls: Vec<&str> = LABELS
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| labels & (1 << i) != 0)
                    .map(|(_, l)| *l)
                    .collect();
                g.create_node(ls, PropertyMap::new()).unwrap();
            }
            Step::CreateRel { src, dst, ty } => {
                if !nodes.is_empty() {
                    let s = nodes[src % nodes.len()];
                    let d = nodes[dst % nodes.len()]; // self-loops included
                    g.create_rel(s, d, TYPES[*ty as usize], PropertyMap::new())
                        .unwrap();
                }
            }
            Step::DeleteRel { pick } => {
                if !rels.is_empty() {
                    g.delete_rel(rels[pick % rels.len()]).unwrap();
                }
            }
            Step::DetachDelete { pick } => {
                if !nodes.is_empty() {
                    g.detach_delete_node(nodes[pick % nodes.len()]).unwrap();
                }
            }
            Step::SetLabel { pick, label } => {
                if !nodes.is_empty() {
                    g.set_label(nodes[pick % nodes.len()], LABELS[*label as usize])
                        .unwrap();
                }
            }
            Step::RemoveLabel { pick, label } => {
                if !nodes.is_empty() {
                    g.remove_label(nodes[pick % nodes.len()], LABELS[*label as usize])
                        .unwrap();
                }
            }
            Step::RebuildStats => g.rebuild_stats(),
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

/// Brute-force edge total of `label` nodes for `(ty, dir)`, from the
/// relationship records alone (no adjacency read).
fn brute_force(g: &Graph, label: &str, ty: &str, dir: Direction) -> usize {
    g.all_rel_ids()
        .into_iter()
        .filter_map(|r| g.rel(r))
        .filter(|r| r.rel_type == ty)
        .filter(|r| {
            let end = if dir == Direction::Out { r.src } else { r.dst };
            g.node(end).is_some_and(|n| n.has_label(label))
        })
        .count()
}

/// Degree statistics vs brute force, for every (label, type, direction).
fn check_degree_stats(g: &Graph) {
    for label in LABELS {
        for ty in TYPES {
            let out_exact = brute_force(g, label, ty, Direction::Out);
            let in_exact = brute_force(g, label, ty, Direction::In);
            // Edge counts are exact, always.
            assert_eq!(
                g.degree_edge_count(label, ty, Direction::Out),
                Some(out_exact),
                "out-edge count for ({label},{ty})"
            );
            assert_eq!(
                g.degree_edge_count(label, ty, Direction::In),
                Some(in_exact),
                "in-edge count for ({label},{ty})"
            );
            assert_eq!(
                g.degree_edge_count(label, ty, Direction::Both),
                Some(out_exact + in_exact),
                "both-edge count for ({label},{ty})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn degree_stats_exact_after_every_step(script in prop::collection::vec(step_strategy(), 0..70)) {
        let mut g = Graph::new();
        let mut d = Driver::default();
        for step in &script {
            d.apply(&mut g, step);
            check_degree_stats(&g);
        }
        if g.in_tx() {
            g.rollback().unwrap();
            check_degree_stats(&g);
        }
        g.rebuild_stats();
        check_degree_stats(&g);
    }

    #[test]
    fn full_rollback_restores_degree_stats(pre in prop::collection::vec(step_strategy(), 0..30),
                                           tx in prop::collection::vec(step_strategy(), 0..30)) {
        let mut g = Graph::new();
        let mut d = Driver::default();
        for step in &pre {
            d.apply(&mut g, step);
        }
        if g.in_tx() {
            g.commit().unwrap();
        }
        let before: Vec<Option<usize>> = combos(&g);
        g.begin().unwrap();
        let mut d2 = Driver::default();
        for step in &tx {
            // nested tx control steps are no-ops inside the forced tx
            if matches!(step, Step::Begin | Step::Commit | Step::Rollback) {
                continue;
            }
            d2.apply(&mut g, step);
        }
        g.rollback().unwrap();
        assert_eq!(combos(&g), before, "edge counts must survive rollback");
        check_degree_stats(&g);
    }
}

/// Every (label, type, dir) edge count, in a fixed order.
fn combos(g: &Graph) -> Vec<Option<usize>> {
    let mut out = Vec::new();
    for label in LABELS {
        for ty in TYPES {
            for dir in [Direction::Out, Direction::In, Direction::Both] {
                out.push(g.degree_edge_count(label, ty, dir));
            }
        }
    }
    out
}

/// Snapshots serve the same degree statistics as the live graph.
#[test]
fn snapshots_serve_degree_stats() {
    let mut g = Graph::new();
    let hub = g.create_node(["L0"], PropertyMap::new()).unwrap();
    for _ in 0..5 {
        let n = g.create_node(["L1"], PropertyMap::new()).unwrap();
        g.create_rel(hub, n, "T0", PropertyMap::new()).unwrap();
    }
    let snap = g.snapshot();
    assert_eq!(snap.degree_edge_count("L0", "T0", Direction::Out), Some(5));
    assert_eq!(snap.degree_edge_count("L1", "T0", Direction::In), Some(5));
    // later mutations are invisible to the pinned snapshot
    g.begin().unwrap();
    let n = g.create_node(["L1"], PropertyMap::new()).unwrap();
    g.create_rel(hub, n, "T0", PropertyMap::new()).unwrap();
    g.commit().unwrap();
    assert_eq!(snap.degree_edge_count("L0", "T0", Direction::Out), Some(5));
    assert_eq!(g.degree_edge_count("L0", "T0", Direction::Out), Some(6));
}

/// Expanding a full label extent along (type, dir) yields exactly
/// `degree_edge_count` rows — the join-output estimate for whole-extent
/// sources is exact, not just within a bound.
#[test]
fn whole_extent_expansion_matches_edge_count() {
    let mut g = Graph::new();
    // skewed fanout: node i gets i out-edges
    let targets: Vec<_> = (0..8)
        .map(|_| g.create_node(["B"], PropertyMap::new()).unwrap())
        .collect();
    for i in 0..8usize {
        let s = g.create_node(["A"], PropertyMap::new()).unwrap();
        for t in targets.iter().take(i) {
            g.create_rel(s, *t, "R", PropertyMap::new()).unwrap();
        }
    }
    let expected: usize = (0..8).sum();
    assert_eq!(
        g.degree_edge_count("A", "R", Direction::Out),
        Some(expected)
    );
    let actual: usize = g
        .nodes_with_label("A")
        .into_iter()
        .map(|n| g.hops(n, Direction::Out, Some("R")).len())
        .sum();
    assert_eq!(actual, expected);
}
