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
//! The counter is per thread (the test harness runs tests in parallel) and
//! counts `alloc` and `realloc` calls, not bytes.

use pg_cypher::{parse_query, Executor, MatchMode, Params, Row, Target};
use pg_graph::{Graph, NodeId, PropertyMap, RelId, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
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

/// Pinned: **one allocation per output row**, plus what `pg-graph` spends.
/// Going from three to four posts per user adds six output rows and
/// nothing else: the plan is the same, and every candidate, state and
/// output vector (6 → 8, 18 → 24 entries) and memo table (9 → 12) stays
/// inside the capacity step it was already in. What is left is the six
/// state copies that bind `p` — one allocation each, the copied row's
/// vector — and one owned `String` per relationship whose type a hop
/// checks (`GraphView::rel_type`): the reference matcher inspects nine
/// more (one per `u`, one per `h` state), the batched one six (it expands
/// each of the three `h` nodes once).
#[test]
fn two_hop_match_is_one_allocation_per_output_row() {
    for (mode, rel_types) in [(MatchMode::Reference, 9), (MatchMode::Batched, 6)] {
        let (three, rows3) = two_hop_allocations(mode, 3);
        let (four, rows4) = two_hop_allocations(mode, 4);
        assert_eq!((rows3, rows4), (18, 24));
        assert_eq!(four - three, 6 + rel_types, "{mode:?}: {three} -> {four}");
    }
}
