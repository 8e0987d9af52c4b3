//! Smoke test for the `pg-triggers-suite` umbrella re-exports.
//!
//! Guards the workspace wiring itself: if a member manifest loses a
//! dependency or `src/lib.rs` drops a `pub use`, these paths stop
//! resolving and the suite fails fast — before anything subtler does.

use pg_triggers_suite as suite;

#[test]
fn umbrella_reexports_resolve_and_work() {
    // Engine via the umbrella path.
    let mut session = suite::pg_triggers::Session::new();
    session
        .install("CREATE TRIGGER t AFTER CREATE ON 'N' FOR EACH NODE BEGIN CREATE (:Log) END")
        .unwrap();
    session.run("CREATE (:N)").unwrap();
    let logs = session.run("MATCH (l:Log) RETURN count(*) AS n").unwrap();
    assert_eq!(logs.single().and_then(|v| v.as_i64()), Some(1));

    // Substrates.
    let mut graph = suite::pg_graph::Graph::new();
    let node = graph
        .create_node(["X"], suite::pg_graph::PropertyMap::new())
        .unwrap();
    {
        use suite::pg_graph::GraphView;
        assert!(graph.node(node).is_some());
    }
    let out = suite::pg_cypher::run_query(
        &mut graph,
        "MATCH (x:X) RETURN count(*) AS n",
        &suite::pg_cypher::Params::new(),
        0,
    )
    .unwrap();
    assert_eq!(
        out.single().and_then(|v| v.as_i64()),
        Some(1),
        "pg_cypher sees the pg_graph node"
    );
    let gt = suite::pg_schema::parse_graph_type("CREATE GRAPH TYPE T { (XType: X {}) }").unwrap();
    assert!(suite::pg_schema::validate_graph(&graph, &gt).is_empty());

    // Translators and the running example.
    let _apoc = suite::pg_apoc::ApocDb::new();
    let _memgraph = suite::pg_memgraph::MemgraphDb::new();
    assert!(!suite::pg_covid::PAPER_TRIGGERS.is_empty());

    // The wire server, end to end through the umbrella paths.
    let server =
        suite::pg_server::Server::bind("127.0.0.1:0", suite::pg_triggers::Session::new()).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = suite::pg_server::Client::connect(addr).unwrap();
    let out = client.run_all("RETURN 1 AS one", &[]).unwrap();
    assert_eq!(out.single_i64(), Some(1));
    client.goodbye().ok();
    handle.shutdown();
}

#[test]
fn flat_crate_paths_also_resolve() {
    // The integration tests and examples import the member crates
    // directly; keep those dependency edges alive too.
    let _ = pg_triggers::Session::new();
    let _ = pg_graph::Graph::new();
    let _ = pg_apoc::ApocDb::new();
    let _ = pg_memgraph::MemgraphDb::new();
    let _ = pg_covid::GeneratorConfig::default();
    let _ = pg_cypher::Params::new();
    let _ = pg_server::MAX_FRAME;
}
