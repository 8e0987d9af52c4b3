//! Degree-statistics upkeep allocates nothing, counted.
//!
//! The store keeps one exact edge count per (label, rel-type, direction)
//! and adjusts it on every relationship write and label change. Once a
//! (label, type) pair has been seen, that adjustment is a lookup and an
//! add: a write between labelled endpoints allocates exactly as often as
//! the same write between unlabelled ones, and a label change on a node
//! with incident relationships exactly as often as on an isolated node.
//! Copying the endpoint labels per write, or building a per-type map per
//! label change, fails here.
//!
//! The counter is per thread (the test harness runs tests in parallel).
//! Each side is measured as the fewest allocations over several
//! repetitions, so the amortized growth of a shared container (a new trie
//! leaf every few ids, a vector doubling) that lands on one side's turn
//! does not count against it.

use pg_graph::{Graph, NodeId, PropertyMap};
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

/// Repetitions per side; the fewest allocations among them is the cost.
const REPS: usize = 16;

/// The allocations `f` performs on this thread.
fn counted(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn node(g: &mut Graph, labels: &[&str]) -> NodeId {
    g.create_node(labels.iter().copied(), PropertyMap::new())
        .unwrap()
}

#[test]
fn rel_writes_between_labelled_endpoints_allocate_like_unlabelled_ones() {
    let mut g = Graph::new();
    let (a, b) = (
        node(&mut g, &["A", "Shared"]),
        node(&mut g, &["B", "Shared"]),
    );
    let (u, v) = (node(&mut g, &[]), node(&mut g, &[]));
    // Every (label, type) pair has been seen: the entries exist.
    let warm = g.create_rel(a, b, "T", PropertyMap::new()).unwrap();
    g.delete_rel(warm).unwrap();

    let (mut labelled, mut unlabelled) = (Vec::new(), Vec::new());
    let (mut create_l, mut create_u) = (u64::MAX, u64::MAX);
    for _ in 0..REPS {
        create_l = create_l.min(counted(|| {
            labelled.push(g.create_rel(a, b, "T", PropertyMap::new()).unwrap())
        }));
        create_u = create_u.min(counted(|| {
            unlabelled.push(g.create_rel(u, v, "T", PropertyMap::new()).unwrap())
        }));
    }
    assert_eq!(
        create_l, create_u,
        "create_rel between labelled endpoints allocates {create_l}, between unlabelled {create_u}"
    );

    let (mut delete_l, mut delete_u) = (u64::MAX, u64::MAX);
    for (l, u) in labelled.into_iter().zip(unlabelled) {
        delete_l = delete_l.min(counted(|| g.delete_rel(l).unwrap()));
        delete_u = delete_u.min(counted(|| g.delete_rel(u).unwrap()));
    }
    assert_eq!(
        delete_l, delete_u,
        "delete_rel between labelled endpoints allocates {delete_l}, between unlabelled {delete_u}"
    );
}

#[test]
fn label_changes_on_a_connected_node_allocate_like_on_an_isolated_one() {
    let mut g = Graph::new();
    let hub = node(&mut g, &["Base"]);
    let lone = node(&mut g, &["Base"]);
    let (x, y) = (node(&mut g, &[]), node(&mut g, &[]));
    // Two types in both directions, and a self-loop.
    g.create_rel(hub, x, "T0", PropertyMap::new()).unwrap();
    g.create_rel(y, hub, "T1", PropertyMap::new()).unwrap();
    g.create_rel(hub, hub, "T0", PropertyMap::new()).unwrap();
    // Every (label, type) pair has been seen: the entries exist.
    g.set_label(hub, "L").unwrap();
    g.remove_label(hub, "L").unwrap();

    let (mut set_hub, mut set_lone) = (u64::MAX, u64::MAX);
    let (mut remove_hub, mut remove_lone) = (u64::MAX, u64::MAX);
    for _ in 0..REPS {
        set_hub = set_hub.min(counted(|| assert!(g.set_label(hub, "L").unwrap())));
        remove_hub = remove_hub.min(counted(|| assert!(g.remove_label(hub, "L").unwrap())));
        set_lone = set_lone.min(counted(|| assert!(g.set_label(lone, "L").unwrap())));
        remove_lone = remove_lone.min(counted(|| assert!(g.remove_label(lone, "L").unwrap())));
    }
    assert_eq!(
        set_hub, set_lone,
        "set_label on a connected node allocates {set_hub}, on an isolated one {set_lone}"
    );
    assert_eq!(
        remove_hub, remove_lone,
        "remove_label on a connected node allocates {remove_hub}, on an isolated one {remove_lone}"
    );
}
