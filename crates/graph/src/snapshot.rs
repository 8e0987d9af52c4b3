//! Snapshot-isolated reads: commit-epoch publication and pinned views.
//!
//! The store follows a **single-writer / N-reader** discipline. The writer
//! owns the [`crate::Graph`] and mutates its `StoreState` copy-on-write
//! (persistent maps share structure between versions, so a published
//! version keeps reading the nodes it saw while the writer path-copies
//! around them). At every *commit boundary* — `commit`, `rollback`,
//! `begin`, or an out-of-transaction snapshot request — the writer bumps
//! its **epoch** if anything changed and stores `(epoch, Arc<StoreState>)`
//! into the `Publisher` slot.
//!
//! Reader threads hold a [`GraphHandle`] (cheap to clone, `Send + Sync`)
//! and pin [`Snapshot`]s from it. A snapshot is an immutable
//! [`crate::GraphView`] of exactly one published epoch:
//!
//! * it never blocks the writer, and the writer never blocks it;
//! * it never observes an uncommitted transaction — in particular it never
//!   sees a partially applied trigger cascade, because cascades run inside
//!   the activating transaction and publication happens only at its end;
//! * it stays readable for as long as it is held, across any number of
//!   later commits (old versions are reclaimed when their last holder
//!   drops, observable through [`Snapshot::state_refcount`]).
//!
//! Not provided: multiple writers, and write-skew detection between a
//! snapshot read and a later write (readers are isolated, not
//! serializable).

use crate::store::{IndexProbes, ProbeCounters, StoreState};
use std::sync::{Arc, Mutex};

/// The single-slot channel between the writer and its readers: the last
/// published `(epoch, state)` pair. The lock is held only for the two
/// pointer stores (writer) or clones (reader), never across a walk.
#[derive(Debug)]
pub(crate) struct Publisher {
    slot: Mutex<(u64, Arc<StoreState>)>,
}

impl Publisher {
    pub(crate) fn new(epoch: u64, state: Arc<StoreState>) -> Self {
        Publisher {
            slot: Mutex::new((epoch, state)),
        }
    }

    /// Refresh the slot when it is behind `epoch`. Writer-only.
    pub(crate) fn publish(&self, epoch: u64, state: &Arc<StoreState>) {
        let mut slot = self.slot.lock().expect("publisher lock poisoned");
        if slot.0 != epoch {
            *slot = (epoch, Arc::clone(state));
        }
    }

    fn load(&self) -> (u64, Arc<StoreState>) {
        let slot = self.slot.lock().expect("publisher lock poisoned");
        (slot.0, Arc::clone(&slot.1))
    }
}

/// A cloneable, `Send + Sync` handle reader threads use to pin fresh
/// snapshots without going through the writer. Obtained from
/// [`crate::Graph::reader_handle`]; stays valid for the life of the graph
/// and always resolves to the **last published** epoch.
#[derive(Debug, Clone)]
pub struct GraphHandle {
    publisher: Arc<Publisher>,
}

impl GraphHandle {
    pub(crate) fn new(publisher: Arc<Publisher>) -> Self {
        GraphHandle { publisher }
    }

    /// Pin a snapshot of the last published epoch.
    pub fn snapshot(&self) -> Snapshot {
        let (epoch, state) = self.publisher.load();
        Snapshot {
            epoch,
            state,
            probes: Arc::new(ProbeCounters::default()),
        }
    }

    /// The epoch a [`GraphHandle::snapshot`] call would pin right now.
    pub fn epoch(&self) -> u64 {
        self.publisher.load().0
    }
}

/// An immutable [`crate::GraphView`] pinned to one committed epoch.
///
/// Cheap to create (two `Arc` clones) and to hold; implements the full
/// read surface — extent scans, index probes, ordered
/// top-k walks, statistics — against the pinned version, so the query
/// planner and executor run unchanged against it. Each snapshot carries
/// its **own** probe counters ([`Snapshot::index_probes`]), so concurrent
/// readers never race on the writer's debug counters.
///
/// Cloning shares the pinned state *and* the counters; pin a fresh
/// snapshot from the [`GraphHandle`] for independent counters.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) epoch: u64,
    pub(crate) state: Arc<StoreState>,
    pub(crate) probes: Arc<ProbeCounters>,
}

impl Snapshot {
    /// The committed epoch this snapshot is pinned to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn node_count(&self) -> usize {
        self.state.nodes.len()
    }

    pub fn rel_count(&self) -> usize {
        self.state.rels.len()
    }

    /// Strong count on this snapshot's state root: 1 when this snapshot is
    /// the last holder of its version (the writer and publisher have moved
    /// on), higher while the version is still current or shared. Dropping
    /// the last holder reclaims whatever the version does not share with
    /// newer ones — the observability hook for reclamation tests.
    pub fn state_refcount(&self) -> usize {
        Arc::strong_count(&self.state)
    }

    /// This snapshot's own index-probe counters since the last reset.
    pub fn index_probes(&self) -> IndexProbes {
        self.probes.snapshot()
    }

    /// Reset this snapshot's probe counters to zero.
    pub fn reset_index_probes(&self) {
        self.probes.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_and_handles_are_send_sync() {
        fn check<T: Send + Sync + 'static>() {}
        check::<Snapshot>();
        check::<GraphHandle>();
    }
}
