//! Single-connection protocol semantics over a real socket: handshake
//! discipline, chunked streaming with backpressure, DISCARD, the
//! failed-state FAILURE → IGNORED → RESET cycle, parameters,
//! EXPLAIN/DDL results, and deeply nested input.

use pg_graph::Value;
use pg_server::{Client, ClientError, Server, ServerHandle};
use pg_triggers::Session;

fn spawn_empty() -> (ServerHandle, String) {
    let server = Server::bind("127.0.0.1:0", Session::new()).unwrap();
    let addr = server.local_addr().to_string();
    (server.spawn(), addr)
}

#[test]
fn hello_handshake_is_required_before_anything_else() {
    use pg_server::{Request, Response};
    use std::io::Write;
    let (handle, addr) = spawn_empty();

    // A raw connection whose first frame is RUN, not HELLO.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut payload = Vec::new();
    pg_server::protocol::encode_request(
        &Request::Run {
            query: "RETURN 1".into(),
            params: Vec::new(),
        },
        &mut payload,
    );
    pg_server::protocol::write_frame(&mut stream, &payload).unwrap();
    stream.flush().unwrap();

    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let frame = pg_server::protocol::read_frame(&mut reader).unwrap();
    match pg_server::protocol::decode_response(&frame).unwrap() {
        Response::Failure { code, .. } => assert_eq!(code, "Request.Invalid"),
        other => panic!("expected FAILURE before handshake, got {other:?}"),
    }
    // The server hangs up after refusing the handshake.
    match pg_server::protocol::read_frame(&mut reader) {
        Err(_) => {}
        Ok(frame) => panic!("connection should be closed, read {} bytes", frame.len()),
    }

    // A proper HELLO still works on a fresh connection.
    let mut client = Client::connect(&addr).unwrap();
    let out = client.run_all("RETURN 1 AS one", &[]).unwrap();
    assert_eq!(out.single_i64(), Some(1));
    client.goodbye().ok();
    handle.shutdown();
}

#[test]
fn pull_streams_in_chunks_with_has_more() {
    let (handle, addr) = spawn_empty();
    let mut client = Client::connect(&addr).unwrap();
    for i in 0..10 {
        client
            .run_all(&format!("CREATE (:Row {{i: {i}}})"), &[])
            .unwrap();
    }
    let result = client.run("MATCH (r:Row) RETURN r.i AS i", &[]).unwrap();
    assert_eq!(result.columns, ["i"]);

    // 10 records, pulled 4 at a time: 4 + 4 + 2, has_more true/true/false.
    let (batch, more) = client.pull(4).unwrap();
    assert_eq!((batch.len(), more), (4, true));
    let (batch, more) = client.pull(4).unwrap();
    assert_eq!((batch.len(), more), (4, true));
    let (batch, more) = client.pull(4).unwrap();
    assert_eq!((batch.len(), more), (2, false));

    // The stream is consumed: a fresh RUN is accepted immediately.
    let out = client
        .run_all("MATCH (r:Row) RETURN count(*) AS n", &[])
        .unwrap();
    assert_eq!(out.single_i64(), Some(10));
    client.goodbye().ok();
    handle.shutdown();
}

#[test]
fn pull_zero_keeps_the_stream_open() {
    let (handle, addr) = spawn_empty();
    let mut client = Client::connect(&addr).unwrap();
    client.run_all("CREATE (:One)", &[]).unwrap();
    client.run("MATCH (o:One) RETURN o", &[]).unwrap();
    let (batch, more) = client.pull(0).unwrap();
    assert_eq!((batch.len(), more), (0, true));
    let (batch, more) = client.pull(1).unwrap();
    assert_eq!((batch.len(), more), (1, false));
    client.goodbye().ok();
    handle.shutdown();
}

#[test]
fn discard_abandons_the_pending_result() {
    let (handle, addr) = spawn_empty();
    let mut client = Client::connect(&addr).unwrap();
    for i in 0..5 {
        client
            .run_all(&format!("CREATE (:D {{i: {i}}})"), &[])
            .unwrap();
    }
    client.run("MATCH (d:D) RETURN d.i", &[]).unwrap();
    let (batch, more) = client.pull(2).unwrap();
    assert_eq!((batch.len(), more), (2, true));
    client.discard().unwrap();

    // Nothing left to pull; the session accepts new work at once.
    let out = client.run_all("RETURN 7 AS seven", &[]).unwrap();
    assert_eq!(out.single_i64(), Some(7));
    client.goodbye().ok();
    handle.shutdown();
}

#[test]
fn run_while_results_pend_is_refused_but_recoverable() {
    let (handle, addr) = spawn_empty();
    let mut client = Client::connect(&addr).unwrap();
    client.run_all("CREATE (:P)", &[]).unwrap();
    client.run("MATCH (p:P) RETURN p", &[]).unwrap();
    match client.run("RETURN 1", &[]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "Request.Invalid"),
        other => panic!("expected refusal, got {other:?}"),
    }
    client.reset().unwrap();
    assert_eq!(
        client.run_all("RETURN 1 AS one", &[]).unwrap().single_i64(),
        Some(1)
    );
    client.goodbye().ok();
    handle.shutdown();
}

#[test]
fn failure_then_ignored_then_reset() {
    let (handle, addr) = spawn_empty();
    let mut client = Client::connect(&addr).unwrap();

    // A statement error fails the session...
    match client.run("THIS IS NOT A STATEMENT", &[]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "Statement.Error"),
        other => panic!("expected Statement.Error, got {other:?}"),
    }
    // ...after which everything except RESET is IGNORED...
    match client.run("RETURN 1", &[]) {
        Err(ClientError::Ignored) => {}
        other => panic!("expected IGNORED, got {other:?}"),
    }
    match client.pull(1) {
        Err(ClientError::Ignored) => {}
        other => panic!("expected IGNORED, got {other:?}"),
    }
    // ...and RESET restores service.
    client.reset().unwrap();
    let out = client.run_all("RETURN 42 AS n", &[]).unwrap();
    assert_eq!(out.single_i64(), Some(42));
    client.goodbye().ok();
    handle.shutdown();
}

#[test]
fn parameters_reach_the_statement() {
    let (handle, addr) = spawn_empty();
    let mut client = Client::connect(&addr).unwrap();
    client
        .run_all("CREATE (:City {name: 'Milano', pop: 1400000})", &[])
        .unwrap();
    let out = client
        .run_all(
            "MATCH (c:City {name: $name}) RETURN c.pop AS pop",
            &[("name".to_string(), Value::str("Milano"))],
        )
        .unwrap();
    assert_eq!(out.single_i64(), Some(1400000));
    client.goodbye().ok();
    handle.shutdown();
}

#[test]
fn ddl_explain_and_trigger_metadata_over_the_wire() {
    let (handle, addr) = spawn_empty();
    let mut client = Client::connect(&addr).unwrap();

    // DDL answers a one-row summary; an index prints as its DDL operand,
    // whatever its shape.
    for operand in [
        ":City(name)",
        ":City(name, pop)",
        "-[:Road(km)]-",
        "-[:Road(kind, km)]-",
    ] {
        for (verb, done) in [
            ("CREATE", "created"),
            ("DROP", "dropped"),
            ("CREATE", "created"),
        ] {
            let ddl = format!("{verb} INDEX ON {operand}");
            let out = client.run_all(&ddl, &[]).unwrap();
            assert_eq!(out.columns, ["summary"]);
            let summary = format!("index {done}: {operand}");
            assert_eq!(out.rows, [[Value::str(summary)]], "{ddl}");
        }
    }
    match client.run_all("CREATE INDEX ON [:Road(kind, km)]", &[]) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, "Trigger.Install");
            assert_eq!(message, "index on -[:Road(kind, km)]- already exists");
        }
        other => panic!("expected FAILURE, got {other:?}"),
    }
    client.reset().unwrap();

    // EXPLAIN renders the plan, one line per row.
    client
        .run_all("CREATE (:City {name: 'Como'})", &[])
        .unwrap();
    let out = client
        .run_all("EXPLAIN MATCH (c:City {name: 'Como'}) RETURN c", &[])
        .unwrap();
    assert_eq!(out.columns, ["plan"]);
    assert!(!out.rows.is_empty());

    // A trigger install is DDL; firing it reports `fired` in the metadata.
    client
        .run_all(
            "CREATE TRIGGER CityEcho AFTER CREATE ON 'City' FOR EACH NODE \
             BEGIN CREATE (:Echo {city: NEW.name}) END",
            &[],
        )
        .unwrap();
    let out = client
        .run_all("CREATE (:City {name: 'Lecco'})", &[])
        .unwrap();
    assert_eq!(out.fired, 1);
    assert!(out.wal_seq.is_none(), "in-memory server reports no wal_seq");
    let out = client
        .run_all("MATCH (e:Echo {city: 'Lecco'}) RETURN count(*) AS n", &[])
        .unwrap();
    assert_eq!(out.single_i64(), Some(1));
    assert!(out.epoch.is_some(), "reads report their snapshot epoch");
    client.goodbye().ok();
    handle.shutdown();
}

#[test]
fn explain_takes_parameters_and_ddl_refuses_them() {
    let (handle, addr) = spawn_empty();
    let mut client = Client::connect(&addr).unwrap();
    client.run_all("CREATE INDEX ON :P(k)", &[]).unwrap();
    client
        .run_all("CREATE (:P {k: 1}), (:P {k: 2})", &[])
        .unwrap();
    let plan = |client: &mut Client, text: &str, params: &[(String, Value)]| -> Vec<String> {
        let out = client.run_all(text, params).unwrap();
        assert_eq!(out.columns, ["plan"]);
        out.rows
            .iter()
            .map(|r| r[0].as_str().expect("plan lines are strings").to_string())
            .collect()
    };
    let k = [("k".to_string(), Value::Int(1))];
    let bound = plan(&mut client, "EXPLAIN MATCH (p:P {k: $k}) RETURN p", &k);
    let inlined = plan(&mut client, "EXPLAIN MATCH (p:P {k: 1}) RETURN p", &[]);
    assert_eq!(bound, inlined, "a bound $k plans like the literal");
    assert!(bound.iter().any(|l| l.contains("actual rows: 1")));
    // Inside a transaction too (every statement there runs on the writer).
    client.begin().unwrap();
    let in_tx = plan(&mut client, "EXPLAIN MATCH (p:P {k: $k}) RETURN p", &k);
    assert_eq!(in_tx, inlined);
    client.rollback().unwrap();

    // DDL with parameters: a typed refusal, not a parser position.
    match client.run_all("CREATE INDEX ON :P(j)", &k) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, "Statement.Error");
            assert!(
                message.contains("DDL statements take no parameters"),
                "{message}"
            );
        }
        other => panic!("expected FAILURE, got {other:?}"),
    }
    client.reset().unwrap();
    let out = client.run_all("CREATE INDEX ON :P(j)", &[]).unwrap();
    assert_eq!(out.columns, ["summary"], "the refused DDL had no effect");
    client.goodbye().ok();
    handle.shutdown();
}

#[test]
fn reads_report_monotonic_epochs() {
    let (handle, addr) = spawn_empty();
    let mut client = Client::connect(&addr).unwrap();
    let mut last = -1;
    for i in 0..5 {
        client
            .run_all(&format!("CREATE (:E {{i: {i}}})"), &[])
            .unwrap();
        let out = client
            .run_all("MATCH (e:E) RETURN count(*) AS n", &[])
            .unwrap();
        assert_eq!(out.single_i64(), Some(i + 1), "reads see their own writes");
        let epoch = out.epoch.expect("reads carry an epoch");
        assert!(epoch > last, "epoch must advance: {epoch} after {last}");
        last = epoch;
    }
    client.goodbye().ok();
    handle.shutdown();
}

/// One small frame must not abort the server. A `RUN` whose parameter is
/// a one-element list nested 10,000 deep (50 KB) and a 1,000-level
/// `RETURN [[…1…]]` (2 KB of text) each used to overflow a connection
/// thread's stack and take the whole process down; now the first closes
/// its connection and the second fails the statement, and every other
/// client is still served.
#[test]
fn deeply_nested_input_fails_typed_and_the_server_keeps_serving() {
    use pg_graph::codec;
    use pg_server::protocol::{self, Request, Response};
    use std::io::Write;
    let (handle, addr) = spawn_empty();

    // Raw connection: HELLO, then the deep RUN. The list is encoded by
    // hand — building the `Value` would recurse on this thread too.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut hello = Vec::new();
    protocol::encode_request(
        &Request::Hello {
            agent: "test/1".into(),
        },
        &mut hello,
    );
    protocol::write_frame(&mut stream, &hello).unwrap();
    let frame = protocol::read_frame(&mut reader).unwrap();
    assert!(matches!(
        protocol::decode_response(&frame).unwrap(),
        Response::Success { .. }
    ));
    let mut leaf = Vec::new();
    codec::encode_value(&Value::Int(1), &mut leaf);
    let mut list_of_one = Vec::new();
    codec::encode_value(&Value::list([Value::Int(1)]), &mut list_of_one);
    let list_header = &list_of_one[..list_of_one.len() - leaf.len()];
    let mut run = Vec::new();
    codec::put_u8(&mut run, protocol::TAG_RUN);
    codec::put_str(&mut run, "RETURN $p AS p");
    codec::put_u32(&mut run, 1);
    codec::put_str(&mut run, "p");
    run.extend(list_header.repeat(10_000));
    run.extend(&leaf);
    assert!(run.len() > 50_000);
    protocol::write_frame(&mut stream, &run).unwrap();
    stream.flush().unwrap();
    // An undecodable frame ends the connection, not the process.
    assert!(protocol::read_frame(&mut reader).is_err());

    // The deep text is a statement error on a healthy session.
    let mut client = Client::connect(&addr).unwrap();
    let deep = format!("RETURN {}1{} AS x", "[".repeat(1_000), "]".repeat(1_000));
    match client.run_all(&deep, &[]) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, "Statement.Error");
            assert!(message.contains("nesting"), "{message}");
        }
        other => panic!("expected FAILURE, got {other:?}"),
    }
    client.reset().unwrap();
    assert_eq!(
        client.run_all("RETURN 1 AS one", &[]).unwrap().single_i64(),
        Some(1)
    );

    // A second client never noticed.
    let mut second = Client::connect(&addr).unwrap();
    let out = second.run_all("RETURN 1 AS one", &[]).unwrap();
    assert_eq!(out.single_i64(), Some(1));
    client.goodbye().ok();
    second.goodbye().ok();
    handle.shutdown();
}
