//! MVCC-lite battery: snapshot isolation, epoch lifecycle, version
//! reclamation, per-snapshot probe counters, and a threaded smoke test.

use pg_graph::{
    CompositeTrailing, Graph, GraphView, IndexProbe, IndexScope, NodeId, ProbeMode, Probed,
    PropertyMap, Value,
};

/// Probe the `("A", columns)` index of any view for an equality prefix.
fn probe_a(
    view: &dyn GraphView,
    columns: &[&str],
    eq: &[Value],
    mode: ProbeMode,
) -> Option<Probed> {
    let columns: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
    let probe = IndexProbe {
        columns: &columns,
        eq,
        trailing: CompositeTrailing::None,
    };
    view.probe(IndexScope::Label("A"), probe, mode)
}

/// How many `A` nodes the `(A, v)` index of a view holds for `v = value`.
fn a_with_v(view: &dyn GraphView, value: i64) -> Option<usize> {
    probe_a(view, &["v"], &[Value::Int(value)], ProbeMode::Ids).map(|hits| hits.count())
}

fn props(pairs: &[(&str, Value)]) -> PropertyMap {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// One committed "account" graph step: a node per call, tagged with the
/// commit counter.
fn commit_tagged_node(g: &mut Graph, tag: i64) {
    g.begin().unwrap();
    g.create_node(["A"], props(&[("v", Value::Int(tag))]))
        .unwrap();
    g.commit().unwrap();
}

#[test]
fn snapshots_pin_committed_epochs() {
    let mut g = Graph::new();
    g.create_node(["A"], props(&[("v", Value::Int(0))]))
        .unwrap();

    let s0 = g.snapshot();
    assert_eq!(s0.node_count(), 1);

    commit_tagged_node(&mut g, 1);
    let s1 = g.snapshot();
    commit_tagged_node(&mut g, 2);
    let s2 = g.snapshot();

    // Each snapshot still answers from its own version.
    assert_eq!(s0.node_count(), 1);
    assert_eq!(s1.node_count(), 2);
    assert_eq!(s2.node_count(), 3);
    assert_eq!(g.node_count(), 3);

    // Epochs are strictly increasing across commits.
    assert!(s0.epoch() < s1.epoch());
    assert!(s1.epoch() < s2.epoch());

    // Full GraphView answers come from the pinned version, not the live one.
    assert_eq!(s1.nodes_with_label("A").len(), 2);
    assert_eq!(s1.all_node_ids().len(), 2);
}

#[test]
fn unchanged_commit_boundaries_do_not_advance_the_epoch() {
    let mut g = Graph::new();
    commit_tagged_node(&mut g, 1);
    let e1 = g.snapshot().epoch();
    let e2 = g.snapshot().epoch();
    assert_eq!(e1, e2);
    g.begin().unwrap();
    g.commit().unwrap();
    assert_eq!(g.snapshot().epoch(), e1);
    commit_tagged_node(&mut g, 2);
    assert_eq!(g.snapshot().epoch(), e1 + 1);
}

#[test]
fn mid_transaction_snapshot_sees_previous_commit_only() {
    let mut g = Graph::new();
    let handle = g.reader_handle();
    commit_tagged_node(&mut g, 1);

    g.begin().unwrap();
    g.create_node(["A"], props(&[("v", Value::Int(99))]))
        .unwrap();
    g.create_node(["A"], props(&[("v", Value::Int(100))]))
        .unwrap();

    // Pinned mid-transaction: exposes the state as of the last commit.
    let mid = handle.snapshot();
    assert_eq!(mid.node_count(), 1);
    let mid2 = g.snapshot();
    assert_eq!(mid2.node_count(), 1);
    assert_eq!(mid.epoch(), mid2.epoch());

    g.commit().unwrap();
    assert_eq!(handle.snapshot().node_count(), 3);
    assert!(handle.snapshot().epoch() > mid.epoch());
}

#[test]
fn rollback_restores_and_republishes_consistent_state() {
    let mut g = Graph::new();
    g.create_index("A", "v");
    commit_tagged_node(&mut g, 7);
    let before = g.snapshot();

    g.begin().unwrap();
    let n = g
        .create_node(["A"], props(&[("v", Value::Int(8))]))
        .unwrap();
    g.set_node_prop(n, "w", Value::Int(1)).unwrap();
    g.rollback().unwrap();

    let after = g.snapshot();
    assert_eq!(after.node_count(), before.node_count());
    let sevens = |view: &dyn GraphView| probe_a(view, &["v"], &[Value::Int(7)], ProbeMode::Ids);
    assert_eq!(sevens(&after), sevens(&before));
    assert_eq!(a_with_v(&after, 7), Some(1));
    assert_eq!(a_with_v(&after, 8), Some(0));
}

#[test]
fn snapshots_serve_index_probes_and_ordered_walks() {
    let mut g = Graph::new();
    g.create_index("A", "v");
    g.create_composite_index("A", &["v".to_string(), "w".to_string()]);
    for i in 0..20 {
        g.create_node(
            ["A"],
            props(&[("v", Value::Int(i % 5)), ("w", Value::Int(i))]),
        )
        .unwrap();
    }
    let snap = g.snapshot();

    // Equality probe against the pinned property index.
    assert_eq!(a_with_v(&snap, 3), Some(4));

    // Ordered walk (top-k path) against the pinned index.
    let walk: Vec<NodeId> = snap
        .ordered_walk(IndexScope::Label("A"), &["v".to_string()], &[], true)
        .unwrap()
        .take(4)
        .map(NodeId)
        .collect();
    assert_eq!(walk.len(), 4);
    for id in &walk {
        assert_eq!(
            snap.node(*id).and_then(|n| n.props.get("v")).cloned(),
            Some(Value::Int(4))
        );
    }

    // Composite probe against the pinned composite index.
    let both = probe_a(&snap, &["v", "w"], &[Value::Int(2)], ProbeMode::Ids);
    assert_eq!(both.map(|hits| hits.count()), Some(4));

    // The snapshot keeps answering identically after further commits.
    commit_tagged_node(&mut g, 999);
    assert_eq!(a_with_v(&snap, 3), Some(4));
}

#[test]
fn probe_counters_are_per_snapshot() {
    let mut g = Graph::new();
    g.create_index("A", "v");
    g.create_node(["A"], props(&[("v", Value::Int(1))]))
        .unwrap();

    let s1 = g.snapshot();
    let s2 = g.snapshot();
    g.reset_index_probes();

    a_with_v(&s1, 1);
    a_with_v(&s1, 1);
    probe_a(&s2, &["v"], &[Value::Int(1)], ProbeMode::Count);

    assert_eq!(s1.index_probes().materializing, 2);
    assert_eq!(s1.index_probes().counting, 0);
    assert_eq!(s2.index_probes().materializing, 0);
    assert_eq!(s2.index_probes().counting, 1);
    // Reader activity never pollutes the writer's counters.
    assert_eq!(g.index_probes(), pg_graph::IndexProbes::default());

    s1.reset_index_probes();
    assert_eq!(s1.index_probes().materializing, 0);
    assert_eq!(s2.index_probes().counting, 1);
}

#[test]
fn exclusive_mode_pays_no_sharing() {
    let mut g = Graph::new();
    for _ in 0..50 {
        commit_tagged_node(&mut g, 1);
    }
    // No publisher was ever created: the state root stays unshared.
    assert_eq!(g.state_refcount(), 1);
}

#[test]
fn old_versions_stay_readable_and_are_reclaimed_on_drop() {
    let mut g = Graph::new();
    let handle = g.reader_handle();
    commit_tagged_node(&mut g, 0);

    let old = handle.snapshot();
    let old_count = old.node_count();

    for tag in 1..=25 {
        commit_tagged_node(&mut g, tag);
    }

    // The old version survived 25 commits untouched...
    assert_eq!(old.node_count(), old_count);
    // ...and this snapshot is its last holder: the writer and the
    // publisher slot have both moved on.
    assert_eq!(old.state_refcount(), 1);

    // The current version is held by exactly the graph and the slot.
    assert_eq!(g.state_refcount(), 2);

    // Pinning the current epoch bumps the live root; dropping returns it.
    let cur1 = handle.snapshot();
    let cur2 = handle.snapshot();
    assert_eq!(g.state_refcount(), 4);
    assert_eq!(cur1.epoch(), cur2.epoch());
    drop(cur1);
    drop(cur2);
    assert_eq!(g.state_refcount(), 2);

    // Dropping the last holder of the old version reclaims it; the live
    // root is unaffected.
    drop(old);
    assert_eq!(g.state_refcount(), 2);
}

#[test]
fn lapsed_publication_skips_slot_and_catches_up() {
    let mut g = Graph::new();
    let handle = g.reader_handle();
    commit_tagged_node(&mut g, 0);
    let published_epoch = handle.snapshot().epoch();
    drop(handle);

    // With every handle dropped, commit boundaries skip the slot: the
    // writer stays the sole owner of its state root (exclusive-mode
    // cost), while the slot keeps pinning the last version it saw.
    for tag in 1..=10 {
        commit_tagged_node(&mut g, tag);
    }
    assert_eq!(g.state_refcount(), 1);

    // A fresh handle catches the slot up to the present before serving.
    let handle = g.reader_handle();
    let snap = handle.snapshot();
    assert_eq!(snap.node_count(), 11);
    assert!(snap.epoch() > published_epoch);
    assert_eq!(snap.epoch(), g.epoch());
}

#[test]
fn mid_tx_handle_after_lapse_serves_boundary_state_if_clean() {
    let mut g = Graph::new();
    drop(g.reader_handle());
    for tag in 0..5 {
        commit_tagged_node(&mut g, tag);
    }

    // The transaction has not mutated anything yet, so the writer's
    // state is still exactly the last commit boundary: minting a handle
    // here publishes it and serves it.
    g.begin().unwrap();
    let snap = g.snapshot();
    assert_eq!(snap.node_count(), 5);
    g.create_node(["A"], props(&[("v", Value::Int(99))]))
        .unwrap();
    assert_eq!(snap.node_count(), 5);
    g.commit().unwrap();
}

#[test]
#[should_panic(expected = "publication lapsed")]
fn mid_tx_handle_after_lapse_panics_once_dirty() {
    let mut g = Graph::new();
    drop(g.reader_handle());
    commit_tagged_node(&mut g, 0);

    g.begin().unwrap();
    g.create_node(["A"], props(&[("v", Value::Int(1))]))
        .unwrap();
    // The skipped boundary's version has been overwritten in place; no
    // snapshot can be served any more.
    let _ = g.reader_handle();
}

#[test]
#[should_panic(expected = "outside a transaction")]
fn first_reader_handle_inside_a_transaction_panics() {
    let mut g = Graph::new();
    g.begin().unwrap();
    g.create_node(["A"], PropertyMap::new()).unwrap();
    let _ = g.reader_handle();
}

/// Threaded smoke: a writer committing invariant-preserving transactions
/// (one :A and one :B node per commit) while readers hammer snapshots.
/// Every snapshot must satisfy the invariant |A| == |B|.
#[test]
fn concurrent_readers_only_see_invariant_states() {
    let mut g = Graph::new();
    g.create_index("A", "v");
    let handle = g.reader_handle();

    let commits = 300usize;
    let readers = 4usize;

    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _ in 0..readers {
            let h = handle.clone();
            joins.push(scope.spawn(move || {
                let mut checked = 0usize;
                let mut last_epoch = 0u64;
                while checked < 400 {
                    let snap = h.snapshot();
                    assert!(snap.epoch() >= last_epoch, "epochs must be monotonic");
                    last_epoch = snap.epoch();
                    let a = snap.nodes_with_label("A").len();
                    let b = snap.nodes_with_label("B").len();
                    assert_eq!(a, b, "snapshot exposed a half-applied commit");
                    // Index answers agree with the extent on the same pin.
                    if a > 0 {
                        assert_eq!(a_with_v(&snap, (a - 1) as i64), Some(1));
                    }
                    checked += 1;
                }
            }));
        }

        for i in 0..commits {
            g.begin().unwrap();
            g.create_node(["A"], props(&[("v", Value::Int(i as i64))]))
                .unwrap();
            g.create_node(["B"], props(&[("v", Value::Int(i as i64))]))
                .unwrap();
            g.commit().unwrap();
        }

        for j in joins {
            j.join().unwrap();
        }
    });

    assert_eq!(g.node_count(), 2 * commits);
}
