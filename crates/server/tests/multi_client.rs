//! Concurrency over the wire: N socket clients against one server, with
//! the §6 COVID scenario loaded. One client fires trigger cascades; the
//! others assert snapshot-consistent atomic reads the whole time. Plus
//! the transactional guarantees: disconnect-mid-transaction auto-rolls
//! back, and explicit transactions serialize writers.

use pg_graph::Value;
use pg_server::{Client, Server, ServerHandle};
use pg_triggers::Session;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn spawn_covid() -> (ServerHandle, String) {
    let mut session = Session::new();
    for stmt in pg_covid::wire::setup_statements() {
        session
            .execute(&stmt)
            .unwrap_or_else(|e| panic!("covid setup `{stmt}`: {e}"));
    }
    let server = Server::bind("127.0.0.1:0", session).unwrap();
    let addr = server.local_addr().to_string();
    (server.spawn(), addr)
}

/// One writer drives §6 cascades (critical-mutation discoveries and
/// ICU-overflow admissions) while three readers continuously assert that
/// every snapshot they see is cascade-atomic:
///
/// * a discovery's `Mutation` is never visible without its `Alert`
///   (checked in ONE statement, so one snapshot);
/// * the relocation cascade never leaves a hospitalized patient without
///   a `TreatedAt` edge;
/// * alert counts never decrease (snapshots are monotonic).
#[test]
fn four_clients_observe_cascades_atomically() {
    let (handle, addr) = spawn_covid();
    const DISCOVERIES: u64 = 20;
    const ADMISSIONS: u64 = 15;

    let committed = Arc::new(AtomicU64::new(0)); // discovery high-water mark
    let done = Arc::new(AtomicBool::new(false));

    let writer = {
        let (addr, committed, done) = (addr.clone(), committed.clone(), done.clone());
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            for tag in 1..=DISCOVERIES.max(ADMISSIONS) {
                if tag <= DISCOVERIES {
                    let out = c
                        .run_all(&pg_covid::wire::discover_critical_mutation(tag), &[])
                        .unwrap();
                    assert!(
                        out.fired >= 1,
                        "discovery {tag} must fire the alert trigger"
                    );
                    committed.store(tag, Ordering::SeqCst);
                }
                if tag <= ADMISSIONS {
                    // Sacco has 3 beds: admissions 4.. fire relocations.
                    c.run_all(&pg_covid::wire::icu_admission(tag, "Sacco", 5), &[])
                        .unwrap();
                }
            }
            done.store(true, Ordering::SeqCst);
            c.goodbye().ok();
        })
    };

    let readers: Vec<_> = (0..3)
        .map(|r| {
            let (addr, committed, done) = (addr.clone(), committed.clone(), done.clone());
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                let mut last_alerts = 0i64;
                let mut checks = 0u64;
                while !done.load(Ordering::SeqCst) || checks < 10 {
                    // Torn-cascade probe: any visible Mutation missing its
                    // Alert, in a single statement (= a single snapshot).
                    let torn = c
                        .run_all(
                            "MATCH (m:Mutation) \
                             WHERE NOT EXISTS { MATCH (:Alert {mutation: m.name}) } \
                             RETURN count(*) AS torn",
                            &[],
                        )
                        .unwrap();
                    assert_eq!(
                        torn.single_i64(),
                        Some(0),
                        "reader {r}: snapshot shows a mutation without its alert"
                    );

                    // Relocation atomicity: no orphaned patients, ever.
                    let orphans = c
                        .run_all(pg_covid::wire::ORPHANED_PATIENTS_QUERY, &[])
                        .unwrap();
                    assert_eq!(
                        orphans.single_i64(),
                        Some(0),
                        "reader {r}: relocation cascade left an orphan"
                    );

                    // Monotonic snapshots: alerts only ever accumulate, and
                    // every discovery committed BEFORE our read is visible.
                    let floor = committed.load(Ordering::SeqCst) as i64;
                    let alerts = c
                        .run_all(pg_covid::wire::ALERT_COUNT_QUERY, &[])
                        .unwrap()
                        .single_i64()
                        .unwrap();
                    assert!(
                        alerts >= last_alerts,
                        "reader {r}: alerts went backwards ({alerts} < {last_alerts})"
                    );
                    assert!(
                        alerts >= floor,
                        "reader {r}: snapshot misses committed discoveries \
                         ({alerts} alerts < {floor} committed)"
                    );
                    last_alerts = alerts;
                    checks += 1;
                }
                c.goodbye().ok();
                checks
            })
        })
        .collect();

    writer.join().unwrap();
    for reader in readers {
        let checks = reader.join().unwrap();
        assert!(checks >= 10, "reader made only {checks} passes");
    }

    // Endgame: every discovery produced exactly one alert, and Sacco ended
    // at-or-under capacity with every overflow admission relocated.
    let mut c = Client::connect(&addr).unwrap();
    let mutation_alerts = c
        .run_all(
            "MATCH (a:Alert {desc: 'New critical mutation'}) RETURN count(*) AS n",
            &[],
        )
        .unwrap();
    assert_eq!(mutation_alerts.single_i64(), Some(DISCOVERIES as i64));
    let at_sacco = c
        .run_all(&pg_covid::wire::treated_at_query("Sacco"), &[])
        .unwrap()
        .single_i64()
        .unwrap();
    assert!(at_sacco <= pg_covid::wire::SACCO_ICU_BEDS);
    let everywhere: i64 = ["Sacco", "Meyer", "Niguarda"]
        .iter()
        .map(|h| {
            c.run_all(&pg_covid::wire::treated_at_query(h), &[])
                .unwrap()
                .single_i64()
                .unwrap()
        })
        .sum();
    assert_eq!(
        everywhere, ADMISSIONS as i64,
        "every admission is treated somewhere"
    );
    c.goodbye().ok();
    handle.shutdown();
}

/// Dropping a connection mid-transaction rolls the transaction back and
/// releases the writer: nothing of the abandoned work is visible, and the
/// next client can immediately open its own transaction.
#[test]
fn disconnect_mid_transaction_rolls_back_and_releases_the_writer() {
    let (handle, addr) = {
        let server = Server::bind("127.0.0.1:0", Session::new()).unwrap();
        let addr = server.local_addr().to_string();
        (server.spawn(), addr)
    };

    // Client A opens a transaction, writes, and vanishes without COMMIT.
    let mut a = Client::connect(&addr).unwrap();
    a.begin().unwrap();
    let out = a
        .run_all("CREATE (:Abandoned {note: 'never'})", &[])
        .unwrap();
    assert_eq!(out.fired, 0);
    drop(a); // socket closes; no ROLLBACK, no GOODBYE

    // Client B's BEGIN blocks until A's handler notices the disconnect
    // and rolls back — then B owns the writer.
    let mut b = Client::connect(&addr).unwrap();
    b.begin().unwrap();
    let seen = b
        .run_all("MATCH (n:Abandoned) RETURN count(*) AS n", &[])
        .unwrap();
    assert_eq!(
        seen.single_i64(),
        Some(0),
        "abandoned writes must be rolled back"
    );
    b.run_all("CREATE (:Kept)", &[]).unwrap();
    b.commit().unwrap();
    let kept = b
        .run_all("MATCH (n:Kept) RETURN count(*) AS n", &[])
        .unwrap();
    assert_eq!(kept.single_i64(), Some(1));
    b.goodbye().ok();
    handle.shutdown();
}

/// Two clients' explicit transactions serialize on the single writer:
/// the second BEGIN waits for the first COMMIT, then reads its effects.
#[test]
fn explicit_transactions_serialize_on_the_writer() {
    let (handle, addr) = {
        let server = Server::bind("127.0.0.1:0", Session::new()).unwrap();
        let addr = server.local_addr().to_string();
        (server.spawn(), addr)
    };

    let mut a = Client::connect(&addr).unwrap();
    a.begin().unwrap();
    a.run_all("CREATE (:Serial {who: 'a'})", &[]).unwrap();

    // B tries to BEGIN while A holds the writer; it must block.
    let b_thread = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut b = Client::connect(&addr).unwrap();
            b.begin().unwrap(); // parks until A commits
            let n = b
                .run_all("MATCH (s:Serial) RETURN count(*) AS n", &[])
                .unwrap()
                .single_i64()
                .unwrap();
            b.run_all("CREATE (:Serial {who: 'b'})", &[]).unwrap();
            b.commit().unwrap();
            b.goodbye().ok();
            n
        })
    };

    // Give B ample time to reach its (blocking) BEGIN, then commit.
    std::thread::sleep(std::time::Duration::from_millis(150));
    a.commit().unwrap();
    let seen_by_b = b_thread.join().unwrap();
    assert_eq!(
        seen_by_b, 1,
        "B's transaction must observe A's committed write"
    );

    let total = a
        .run_all("MATCH (s:Serial) RETURN count(*) AS n", &[])
        .unwrap();
    assert_eq!(total.single_i64(), Some(2));
    a.goodbye().ok();
    handle.shutdown();
}

/// RESET inside an explicit transaction rolls it back.
#[test]
fn reset_rolls_back_an_open_transaction() {
    let (handle, addr) = {
        let server = Server::bind("127.0.0.1:0", Session::new()).unwrap();
        let addr = server.local_addr().to_string();
        (server.spawn(), addr)
    };
    let mut c = Client::connect(&addr).unwrap();
    c.begin().unwrap();
    c.run_all("CREATE (:ResetMe)", &[]).unwrap();
    c.reset().unwrap();
    let n = c
        .run_all("MATCH (r:ResetMe) RETURN count(*) AS n", &[])
        .unwrap();
    assert_eq!(n.single_i64(), Some(0));
    // The writer is free again: a fresh transaction works.
    c.begin().unwrap();
    c.run_all("CREATE (:ResetMe)", &[]).unwrap();
    c.commit().unwrap();
    let n = c
        .run_all("MATCH (r:ResetMe) RETURN count(*) AS n", &[])
        .unwrap();
    assert_eq!(n.single_i64(), Some(1));
    c.goodbye().ok();
    handle.shutdown();
}

/// Parameterized reads work concurrently from several clients while a
/// writer churns — exercising the reader-session path under load.
#[test]
fn concurrent_parameterized_reads_while_writing() {
    let (handle, addr) = spawn_covid();
    let done = Arc::new(AtomicBool::new(false));

    let writer = {
        let (addr, done) = (addr.clone(), done.clone());
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            for tag in 100..130 {
                c.run_all(&pg_covid::wire::icu_admission(tag, "Niguarda", 3), &[])
                    .unwrap();
            }
            done.store(true, Ordering::SeqCst);
            c.goodbye().ok();
        })
    };

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let (addr, done) = (addr.clone(), done.clone());
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                let mut loops = 0;
                while !done.load(Ordering::SeqCst) || loops < 5 {
                    let out = c
                        .run_all(
                            "MATCH (h:Hospital {name: $h}) RETURN h.icuBeds AS beds",
                            &[("h".to_string(), Value::str("Sacco"))],
                        )
                        .unwrap();
                    assert_eq!(out.single_i64(), Some(pg_covid::wire::SACCO_ICU_BEDS));
                    loops += 1;
                }
                c.goodbye().ok();
            })
        })
        .collect();

    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    handle.shutdown();
}

/// A connection's statement cache holds parsed texts, never data: the
/// same text (a cache hit from its second use on) issued before and after
/// another connection's write pins a newer epoch and sees the new row.
#[test]
fn a_cached_read_sees_another_connections_write() {
    let server = Server::bind("127.0.0.1:0", Session::new()).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.spawn();
    let mut reader = Client::connect(&addr).unwrap();
    let mut writer = Client::connect(&addr).unwrap();
    writer.run_all("CREATE (:Row {k: 1})", &[]).unwrap();

    const READ: &str = "MATCH (r:Row) WHERE r.k >= $lo RETURN count(*) AS n";
    let lo = [("lo".to_string(), Value::Int(0))];
    let first = reader.run_all(READ, &lo).unwrap();
    let again = reader.run_all(READ, &lo).unwrap();
    assert_eq!(first.single_i64(), Some(1));
    assert_eq!(again.single_i64(), Some(1));
    assert_eq!(again.epoch, first.epoch, "nothing was committed in between");

    writer.run_all("CREATE (:Row {k: 2})", &[]).unwrap();
    let after = reader.run_all(READ, &lo).unwrap();
    assert_eq!(
        after.single_i64(),
        Some(2),
        "the cached text reads fresh data"
    );
    assert!(
        after.epoch > first.epoch,
        "{:?} after {:?}",
        after.epoch,
        first.epoch
    );
    // The parameters are per execution too.
    let hi = [("lo".to_string(), Value::Int(2))];
    assert_eq!(reader.run_all(READ, &hi).unwrap().single_i64(), Some(1));

    reader.goodbye().ok();
    writer.goodbye().ok();
    handle.shutdown();
}
