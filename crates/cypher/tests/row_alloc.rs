//! The one-allocation invariant of binding rows, counted.
//!
//! Every `MATCH` step copies a binding row once per candidate, so what a
//! copy allocates is what a join allocates. Allocation counts repeat
//! exactly — no clock, no scheduler — so they are asserted as equalities:
//! copying a row is one allocation however many names it holds and however
//! long they are, copying it in order to bind one more name is still one,
//! and a fixed two-hop join performs a pinned number of allocations under
//! both match modes. With a `BTreeMap<String, Value>` row and a
//! `Vec<RelId>` per match state every copy cost a tree node, a `String`
//! per name and the vector; this file fails there.
//!
//! The counters are per thread (the test harness runs tests in parallel):
//! one counts `alloc` and `realloc` calls, the other live bytes and their
//! high-water mark, so a streaming query's peak can be held flat in its
//! fan-out.

use pg_cypher::exec::CHUNK_ROWS;
use pg_cypher::{parse_query, Executor, MatchMode, Params, Row, Target};
use pg_graph::{Graph, NodeId, PropertyMap, RelId, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed (signed: a thread
    /// may free what another allocated), and their high-water mark.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

/// One `alloc`/`realloc` call that changed the live bytes by `delta`.
fn bump(delta: i64) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    grow(delta);
}

fn grow(delta: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s with no destructor, so touching them allocates
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System`; the rest is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` performs on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The most bytes `f` held live on this thread at once, above what was
/// live when it started, and its result.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    (PEAK.with(Cell::get) - before, out)
}

/// Six scalar bindings: short names, transition variables, and one name
/// past the inline limit.
fn six_variable_row() -> Row {
    Row::from_pairs([
        ("u", Value::Node(NodeId(1))),
        ("h", Value::Node(NodeId(2))),
        ("f", Value::Rel(RelId(3))),
        ("NEWNODES", Value::Int(4)),
        ("a_name_just_under_22_b", Value::Bool(true)),
        ("a_variable_name_well_past_the_inline_limit", Value::Null),
    ])
}

#[test]
fn cloning_a_row_is_one_allocation() {
    let row = six_variable_row();
    assert_eq!(row.len(), 6);
    let (n, copy) = counted(|| row.clone());
    assert_eq!(n, 1);
    assert_eq!(copy, row);
    assert_eq!(counted(|| Row::new().clone()).0, 0, "the empty row");
}

#[test]
fn clone_then_bind_is_one_allocation() {
    let row = six_variable_row();
    let (n, bound) = counted(|| {
        let mut copy = row.clone_with_room(1);
        copy.set("p", Value::Node(NodeId(9)));
        copy
    });
    assert_eq!(n, 1);
    assert_eq!(bound.len(), 7);
}

/// Three users who all follow one another and wrote `posts` posts each:
/// the two-hop join below has 3 × 2 × `posts` output rows.
fn three_users(posts: usize) -> Graph {
    let mut g = Graph::new();
    let users: Vec<NodeId> = (0..3)
        .map(|_| g.create_node(["User"], PropertyMap::new()).unwrap())
        .collect();
    for &u in &users {
        for &h in users.iter().filter(|&&h| h != u) {
            g.create_rel(u, h, "FOLLOWS", PropertyMap::new()).unwrap();
        }
        for _ in 0..posts {
            let p = g.create_node(["Post"], PropertyMap::new()).unwrap();
            g.create_rel(u, p, "WROTE", PropertyMap::new()).unwrap();
        }
    }
    g.rebuild_stats();
    g
}

/// Allocations of the whole two-hop join (planning, candidate vectors,
/// state copies, output vectors) under `mode`, and its output row count.
fn two_hop_allocations(mode: MatchMode, posts: usize) -> (u64, usize) {
    let g = three_users(posts);
    let query = parse_query("MATCH (u:User) MATCH (u)-[:FOLLOWS]->(h)-[:WROTE]->(p)").unwrap();
    let params = Params::new();
    let (n, out) = counted(|| {
        Executor::new(Target::Read(&g), &params, 0)
            .with_match_mode(mode)
            .run(&query, Vec::new())
            .unwrap()
    });
    (n, out.bindings.len())
}

/// Pinned: **one allocation per output row**, and nothing per inspected
/// relationship. Going from three to four posts per user adds six output
/// rows and nothing else: the plan is the same, and every candidate, state
/// and output vector (6 → 8, 18 → 24 entries) and memo table (9 → 12)
/// stays inside the capacity step it was already in. What is left is the
/// six state copies that bind `p` — one allocation each, the copied row's
/// vector. A hop reads each relationship's type, endpoints and properties
/// from the record `GraphView::rel` lends, so the relationships it
/// inspects (nine more when every seed is its own group, six more in one
/// shared group) cost no allocation under either mode.
#[test]
fn two_hop_match_is_one_allocation_per_output_row() {
    for mode in [MatchMode::Reference, MatchMode::Batched] {
        let (three, rows3) = two_hop_allocations(mode, 3);
        let (four, rows4) = two_hop_allocations(mode, 4);
        assert_eq!((rows3, rows4), (18, 24));
        assert_eq!(four - three, 6, "{mode:?}: {three} -> {four}");
    }
}

/// `users` users who all follow one another and wrote `posts` posts each.
fn follower_clique(users: usize, posts: usize) -> Graph {
    let mut g = Graph::new();
    let ids: Vec<NodeId> = (0..users)
        .map(|_| g.create_node(["User"], PropertyMap::new()).unwrap())
        .collect();
    for &u in &ids {
        for &h in ids.iter().filter(|&&h| h != u) {
            g.create_rel(u, h, "FOLLOWS", PropertyMap::new()).unwrap();
        }
        for _ in 0..posts {
            let p = g.create_node(["Post"], PropertyMap::new()).unwrap();
            g.create_rel(u, p, "WROTE", PropertyMap::new()).unwrap();
        }
    }
    g.rebuild_stats();
    g
}

/// Peak live bytes of the two-hop join count under `mode`, and the count.
fn two_hop_count_peak(mode: MatchMode, posts: usize) -> (i64, Value) {
    let g = follower_clique(8, posts);
    let query =
        parse_query("MATCH (u:User) MATCH (u)-[:FOLLOWS]->(h)-[:WROTE]->(p) RETURN count(*) AS n")
            .unwrap();
    let params = Params::new();
    let (peak, out) = peak_bytes(|| {
        Executor::new(Target::Read(&g), &params, 0)
            .with_match_mode(mode)
            .run(&query, Vec::new())
            .unwrap()
    });
    (peak, out.rows[0][0].clone())
}

/// Streaming holds a bounded number of matches in flight: the two-hop
/// join's peak live bytes at 50× the posts per user (2,800 output rows,
/// almost three chunks) exceed its peak at 1× (56 rows) by at most one
/// chunk's worth — [`CHUNK_ROWS`] matches, each a three-binding row's heap
/// plus 128 bytes of bookkeeping (the row and match-state headers in the
/// matcher's stage buffer, the row's slot in the outgoing chunk). Holding
/// every row, as a clause-at-a-time executor does, grows 2–3× past that.
#[test]
fn two_hop_count_peak_is_flat_in_the_fan_out() {
    let row = Row::from_pairs([
        ("h", Value::Node(NodeId(1))),
        ("p", Value::Node(NodeId(2))),
        ("u", Value::Node(NodeId(3))),
    ]);
    let (row_heap, _) = peak_bytes(|| row.clone());
    let chunk = CHUNK_ROWS as i64 * (row_heap + 128);
    for mode in [MatchMode::Reference, MatchMode::Batched] {
        let (small, n1) = two_hop_count_peak(mode, 1);
        let (large, n50) = two_hop_count_peak(mode, 50);
        assert_eq!((n1, n50), (Value::Int(56), Value::Int(2_800)));
        assert!(
            large - small <= chunk,
            "{mode:?}: peak {small} B at 1x, {large} B at 50x; one chunk is {chunk} B"
        );
    }
}

/// One hub with ten neighbours, each of which has `fan` neighbours of its
/// own: `(:Hub)-[:R]->(m)-[:R]->(x)` has 10 × `fan` matches.
fn hub_with_fan_out(fan: usize) -> Graph {
    let mut g = Graph::new();
    let hub = g.create_node(["Hub"], PropertyMap::new()).unwrap();
    for _ in 0..10 {
        let m = g.create_node(["Mid"], PropertyMap::new()).unwrap();
        g.create_rel(hub, m, "R", PropertyMap::new()).unwrap();
        for _ in 0..fan {
            let x = g.create_node(["Leaf"], PropertyMap::new()).unwrap();
            g.create_rel(m, x, "R", PropertyMap::new()).unwrap();
        }
    }
    g.rebuild_stats();
    g
}

/// Peak live bytes of a two-hop `EXISTS` on [`hub_with_fan_out`], and the
/// row count.
fn exists_peak(fan: usize) -> (i64, usize) {
    let g = hub_with_fan_out(fan);
    let query =
        parse_query("MATCH (h:Hub) WHERE EXISTS { (h)-[:R]->(m)-[:R]->(x) } RETURN h").unwrap();
    let params = Params::new();
    let (peak, out) = peak_bytes(|| {
        Executor::new(Target::Read(&g), &params, 0)
            .run(&query, Vec::new())
            .unwrap()
    });
    (peak, out.rows.len())
}

/// `EXISTS` stops at its first match: its peak live bytes at 1,000
/// second-hop relationships per neighbour exceed its peak at 10 by at most
/// one chunk (measured as the two-hop count measures it). Enumerating
/// every match before answering holds all 10,000 and grows ten times past
/// that.
#[test]
fn exists_peak_is_flat_in_the_fan_out() {
    let row = Row::from_pairs([
        ("h", Value::Node(NodeId(1))),
        ("m", Value::Node(NodeId(2))),
        ("x", Value::Node(NodeId(3))),
    ]);
    let (row_heap, _) = peak_bytes(|| row.clone());
    let chunk = CHUNK_ROWS as i64 * (row_heap + 128);
    let (small, rows10) = exists_peak(10);
    let (large, rows1000) = exists_peak(1_000);
    assert_eq!((rows10, rows1000), (1, 1));
    assert!(
        large - small <= chunk,
        "peak {small} B at 10, {large} B at 1,000; one chunk is {chunk} B"
    );
}

/// Allocations of `src` over [`hub_with_fan_out`]`(fan)` (the graph built
/// outside the count), and its rows.
fn hub_allocations(src: &str, fan: usize) -> (u64, Vec<Vec<Value>>) {
    let g = hub_with_fan_out(fan);
    let query = parse_query(src).unwrap();
    let params = Params::new();
    let (n, out) = counted(|| {
        Executor::new(Target::Read(&g), &params, 0)
            .run(&query, Vec::new())
            .unwrap()
    });
    (n, out.rows)
}

/// A grouping projection right after a `MATCH` takes the last hop once per
/// state, not a row per match: raising the fan from 10 to 1,000 adds 9,900
/// inspected relationships and at most the pinned allocations (66, 66 and
/// 1,648 measured) — the ten states' candidate vectors growing, and for
/// `count(DISTINCT x)` its set's nodes. Building a row per match cost one
/// allocation per match on top (10,044, 19,944 and 11,693 here).
#[test]
fn folded_last_hop_allocates_per_state_not_per_match() {
    let hop = "MATCH (:Hub)-[:R]->(m)-[:R]->(x)";
    for (ret, at_most) in [
        ("RETURN count(*) AS n", 100),
        ("RETURN m, count(*) AS n", 100),
        ("RETURN count(DISTINCT x) AS n", 2_000),
    ] {
        let src = format!("{hop} {ret}");
        let (small, rows10) = hub_allocations(&src, 10);
        let (large, rows1000) = hub_allocations(&src, 1_000);
        let total = |rows: &[Vec<Value>]| rows.iter().map(|r| r[r.len() - 1].as_i64()).sum();
        assert_eq!(
            (total(&rows10), total(&rows1000)),
            (Some(100), Some(10_000))
        );
        assert!(
            large - small <= at_most,
            "{src}: {small} allocations at fan 10, {large} at 1,000"
        );
    }
}

/// A one-row input — a trigger body over its transition variable, a point
/// read, an `EXISTS` condition, a variable-length walk — allocates no more
/// than its pinned ceiling: the count measured with borrowed record and
/// adjacency reads (`GraphView::node`/`rel`/`hops`). Ceilings only ever
/// move down.
#[test]
fn one_row_statements_allocate_no_more_than_clause_at_a_time() {
    let mut g = Graph::new();
    let mut users = Vec::new();
    for i in 0..20 {
        let mut props = PropertyMap::new();
        props.set("id".to_string(), Value::Int(i));
        users.push(g.create_node(["User"], props).unwrap());
    }
    // The chain 1 -> 2 -> 3 -> 4 through the seed's node 2.
    for pair in users[1..5].windows(2) {
        g.create_rel(pair[0], pair[1], "R", PropertyMap::new())
            .unwrap();
    }
    // Node 2 also has a second type, after its `R`s.
    for &u in &users[10..12] {
        g.create_rel(users[2], u, "S", PropertyMap::new()).unwrap();
    }
    let params = Params::new();
    for (src, ceiling) in [
        ("RETURN 1 AS x", 8),
        ("MATCH (u:User {id: 3}) RETURN u.id AS id", 30),
        ("MATCH (u:User {id: 3}) RETURN count(*) AS n", 39),
        ("MATCH (n:NEWNODES) RETURN n AS n", 22),
        (
            "MATCH (n:NEWNODES) WITH n WHERE n.id > 0 RETURN n.id AS id",
            26,
        ),
        (
            "MATCH (u:User) WHERE u.id < 5 WITH u ORDER BY u.id DESC LIMIT 3 RETURN u.id AS id",
            98,
        ),
        ("UNWIND [1, 2] AS x RETURN x AS x", 16),
        ("MATCH (n:NEWNODES) CREATE (:Alert {x: n.id})", 30),
        ("MATCH (n:NEWNODES) SET n.v = 1", 19),
        ("MATCH (n:NEWNODES) WHERE EXISTS { (n)--() } RETURN n", 41),
        ("MATCH (n:NEWNODES)-[:R*1..2]->(m) RETURN m.id AS id", 39),
        // A typed hop out of a node with two types is lent its run (38
        // when the hop copied its candidates).
        ("MATCH (n:NEWNODES)-[:S]->(m) RETURN m.id AS id", 37),
        // The §6 condition shape: one keyed group with a DISTINCT count.
        (
            "MATCH (n:NEWNODES)-[:R]-(m) RETURN n AS n, count(DISTINCT m) AS c",
            56,
        ),
    ] {
        let query = parse_query(src).unwrap();
        let seed = Row::from_pairs([("NEWNODES", Value::List(vec![Value::Node(NodeId(2))]))]);
        let (n, out) = counted(|| {
            Executor::new(Target::Write(&mut g), &params, 0)
                .run(&query, vec![seed])
                .unwrap()
        });
        drop(out);
        assert!(n <= ceiling, "{src}: {n} allocations, ceiling {ceiling}");
    }
}

/// `users` users in a `FOLLOWS` ring, each the author of one post.
fn post_ring(users: usize) -> Graph {
    let mut g = Graph::new();
    let ids: Vec<NodeId> = (0..users)
        .map(|_| g.create_node(["User"], PropertyMap::new()).unwrap())
        .collect();
    for (i, &u) in ids.iter().enumerate() {
        g.create_rel(u, ids[(i + 1) % users], "FOLLOWS", PropertyMap::new())
            .unwrap();
        let p = g.create_node(["Post"], PropertyMap::new()).unwrap();
        g.create_rel(u, p, "WROTE", PropertyMap::new()).unwrap();
    }
    g.rebuild_stats();
    g
}

/// Allocations of `src` under `mode` over [`post_ring`]`(users)` (the
/// graph built outside the count), and its output rows.
fn ring_allocations(src: &str, mode: MatchMode, users: usize) -> (u64, usize) {
    let g = post_ring(users);
    let query = parse_query(src).unwrap();
    let params = Params::new();
    let (n, out) = counted(|| {
        Executor::new(Target::Read(&g), &params, 0)
            .with_match_mode(mode)
            .run(&query, Vec::new())
            .unwrap()
    });
    (n, out.bindings.len())
}

/// Planning allocates nothing per seed row: growing the first `MATCH`'s
/// rows from 200 to 400 adds, per extra seed of the second `MATCH`, the
/// pinned allocations below (rounded down: a vector crossing a capacity
/// step adds a few once). [`MatchMode::Batched`] plans that `MATCH` once
/// per chunk, so what is left is the seed's own copies, its candidate
/// vectors and its output row: 6 for one hop, 8 for two. Planning it once
/// per seed, as [`MatchMode::Reference`] still does, costs 24 and 35 (the
/// batched matcher cost 22 and 33 that way); an unshared typed hop is lent
/// its adjacency run, where it used to copy the candidates (25 and 37).
#[test]
fn planning_allocates_nothing_per_seed() {
    for (src, batched, reference) in [
        ("MATCH (u:User) MATCH (u)-[:WROTE]->(p:Post)", 6, 24),
        (
            "MATCH (u:User) MATCH (u)-[:FOLLOWS]->(h:User)-[:WROTE]->(p:Post)",
            8,
            35,
        ),
    ] {
        for (mode, per_seed) in [
            (MatchMode::Batched, batched),
            (MatchMode::Reference, reference),
        ] {
            let (small, rows200) = ring_allocations(src, mode, 200);
            let (large, rows400) = ring_allocations(src, mode, 400);
            assert_eq!((rows200, rows400), (200, 400));
            assert_eq!(
                (large - small) / 200,
                per_seed,
                "{mode:?}: {src}: {small} allocations at 200 seeds, {large} at 400"
            );
        }
    }
}
