//! End-to-end WAL lifecycle: open → commit → crash (drop) → recover,
//! checkpoint compaction, superseded-frame skipping, and the commit-veto
//! contract when the sink fails.

mod common;

use common::{canned_commit, dump, TempDir};
use pg_graph::{Graph, GraphView, IndexDef, PropertyMap, Value};
use pg_wal::{Durable, RecoveryOptions, SyncPolicy, TailState, WalOptions, SNAPSHOT_TMP};

fn opts(sync: SyncPolicy) -> WalOptions {
    WalOptions {
        sync,
        group_bytes: 32 * 1024,
    }
}

fn open(dir: &std::path::Path, sync: SyncPolicy) -> (Durable, Graph, pg_wal::RecoveryReport) {
    Durable::open(dir, opts(sync), RecoveryOptions::default()).unwrap()
}

#[test]
fn empty_directory_recovers_to_empty_graph() {
    let tmp = TempDir::new("empty");
    let (durable, graph, report) = open(tmp.path(), SyncPolicy::Always);
    assert_eq!(report.last_seq, 0);
    assert_eq!(report.commits_replayed, 0);
    assert_eq!(report.tail, TailState::Clean);
    assert_eq!(graph.node_count(), 0);
    assert_eq!(durable.seq(), 0);
}

#[test]
fn commits_survive_reopen() {
    let tmp = TempDir::new("reopen");
    let want = {
        let (durable, mut graph, _) = open(tmp.path(), SyncPolicy::Always);
        for i in 0..6 {
            canned_commit(&mut graph, i);
        }
        assert_eq!(durable.seq(), 6);
        dump(&graph)
        // Simulated crash: no checkpoint, no clean shutdown.
    };
    let (durable, graph, report) = open(tmp.path(), SyncPolicy::Always);
    assert_eq!(report.commits_replayed, 6);
    assert_eq!(report.last_seq, 6);
    assert_eq!(durable.seq(), 6);
    assert_eq!(dump(&graph), want);
}

#[test]
fn group_policy_survives_after_flush() {
    let tmp = TempDir::new("group");
    let want = {
        let (durable, mut graph, _) = open(tmp.path(), SyncPolicy::Group);
        for i in 0..4 {
            canned_commit(&mut graph, i);
        }
        durable.flush().unwrap();
        dump(&graph)
    };
    let (_, graph, report) = open(tmp.path(), SyncPolicy::Group);
    assert_eq!(report.commits_replayed, 4);
    assert_eq!(dump(&graph), want);
}

#[test]
fn checkpoint_compacts_and_recovers() {
    let tmp = TempDir::new("ckpt");
    let (want, wal_before, wal_after) = {
        let (durable, mut graph, _) = open(tmp.path(), SyncPolicy::Always);
        for i in 0..5 {
            canned_commit(&mut graph, i);
        }
        let before = durable.wal_len().unwrap();
        let seq = durable.checkpoint(&graph).unwrap();
        assert_eq!(seq, 5);
        let after = durable.wal_len().unwrap();
        // Two more commits on top of the snapshot.
        for i in 5..7 {
            canned_commit(&mut graph, i);
        }
        (dump(&graph), before, after)
    };
    assert!(
        wal_after < wal_before,
        "checkpoint must shrink the log ({wal_before} -> {wal_after})"
    );
    let (_, graph, report) = open(tmp.path(), SyncPolicy::Always);
    assert_eq!(report.snapshot_seq, 5);
    assert_eq!(report.commits_replayed, 2);
    assert_eq!(report.last_seq, 7);
    assert_eq!(dump(&graph), want);
}

#[test]
fn snapshot_preserves_index_definitions_and_answers() {
    let tmp = TempDir::new("ixdefs");
    let want_dump;
    {
        let (durable, mut graph, _) = open(tmp.path(), SyncPolicy::Always);
        graph.create_index("All", "w");
        graph.define_index(&IndexDef::rel("T0", &["w"]));
        graph.create_composite_index("All", &["tag".to_string(), "w".to_string()]);
        for i in 0..4 {
            canned_commit(&mut graph, i);
        }
        durable.checkpoint(&graph).unwrap();
        want_dump = dump(&graph);
    }
    let (_, graph, _) = open(tmp.path(), SyncPolicy::Always);
    assert_eq!(dump(&graph), want_dump);
    assert_eq!(
        graph.indexes(),
        [
            IndexDef::node("All", &["tag", "w"]),
            IndexDef::node("All", &["w"]),
            IndexDef::rel("T0", &["w"]),
        ]
    );
    // The rebuilt index serves the same rows as a scan.
    let via_index: Vec<_> = graph
        .nodes_with_prop("All", "w", &Value::Int(7))
        .expect("recovered index must serve equality probes");
    let via_scan: Vec<_> = graph
        .all_node_ids()
        .into_iter()
        .filter(|&id| {
            graph.node(id).is_some_and(|n| n.has_label("All"))
                && graph.node(id).and_then(|n| n.props.get("w")).cloned() == Some(Value::Int(7))
        })
        .collect();
    assert_eq!(via_index, via_scan);
    assert!(!via_index.is_empty(), "probe rows exist");
}

#[test]
fn superseded_frames_are_skipped_when_truncation_never_ran() {
    // Simulate a crash *between* snapshot rename and log truncation: take
    // a snapshot but keep the full log. Recovery must use the snapshot
    // and skip the superseded frames by sequence number.
    let tmp = TempDir::new("supersede");
    let want = {
        let (durable, mut graph, _) = open(tmp.path(), SyncPolicy::Always);
        for i in 0..3 {
            canned_commit(&mut graph, i);
        }
        durable.flush().unwrap();
        // Write the snapshot directly, bypassing Durable::checkpoint so
        // the log keeps every frame.
        pg_wal::write_snapshot(tmp.path(), &graph, durable.seq()).unwrap();
        dump(&graph)
    };
    let (_, graph, report) = open(tmp.path(), SyncPolicy::Always);
    assert_eq!(report.snapshot_seq, 3);
    assert_eq!(report.commits_replayed, 0, "all frames superseded");
    assert_eq!(report.last_seq, 3);
    assert_eq!(dump(&graph), want);
}

#[test]
fn stale_snapshot_tmp_is_ignored_and_removed() {
    let tmp = TempDir::new("staletmp");
    let want = {
        let (durable, mut graph, _) = open(tmp.path(), SyncPolicy::Always);
        for i in 0..3 {
            canned_commit(&mut graph, i);
        }
        durable.checkpoint(&graph).unwrap();
        dump(&graph)
    };
    // A crash mid-snapshot leaves a half-written tmp file.
    std::fs::write(tmp.path().join(SNAPSHOT_TMP), b"half-written garbage").unwrap();
    let (_, graph, _) = open(tmp.path(), SyncPolicy::Always);
    assert_eq!(dump(&graph), want);
    assert!(
        !tmp.path().join(SNAPSHOT_TMP).exists(),
        "crash debris must be cleaned up"
    );
}

#[test]
fn unlogged_bulk_load_becomes_durable_via_checkpoint() {
    let tmp = TempDir::new("bulk");
    let want = {
        let (durable, mut graph, _) = open(tmp.path(), SyncPolicy::Always);
        // Outside any transaction: bypasses the op log and the WAL.
        for i in 0..10 {
            let props: PropertyMap = [("i".to_string(), Value::Int(i))].into_iter().collect();
            graph.create_node(["Bulk"], props).unwrap();
        }
        assert_eq!(durable.seq(), 0, "bulk load writes no frames");
        durable.checkpoint(&graph).unwrap();
        canned_commit(&mut graph, 0);
        dump(&graph)
    };
    let (_, graph, report) = open(tmp.path(), SyncPolicy::Always);
    assert_eq!(report.snapshot_nodes, 10);
    assert_eq!(report.commits_replayed, 1);
    assert_eq!(dump(&graph), want);
}

/// A sink failure must veto the commit and leave the graph on its
/// pre-transaction state.
#[test]
fn failed_append_vetoes_the_commit() {
    #[derive(Debug)]
    struct FailingSink;
    impl pg_graph::CommitSink for FailingSink {
        fn on_commit(&mut self, _ops: &[pg_graph::Op], _nn: u64, _nr: u64) -> Result<(), String> {
            Err("disk full".to_string())
        }
    }

    let mut graph = Graph::new();
    graph.begin().unwrap();
    graph.create_node(["Keep"], PropertyMap::new()).unwrap();
    graph.commit().unwrap();
    let before = dump(&graph);

    graph.set_commit_sink(Some(Box::new(FailingSink)));
    graph.begin().unwrap();
    graph.create_node(["Lost"], PropertyMap::new()).unwrap();
    let err = graph.commit().unwrap_err();
    assert_eq!(
        err,
        pg_graph::GraphError::Durability("disk full".to_string())
    );
    let mut after = dump(&graph);
    // The id allocator may have advanced (rolled-back work does); records
    // must be untouched.
    after[0] = before[0].clone();
    assert_eq!(after, before);
    assert!(!graph.in_tx(), "failed commit still ends the transaction");
}
