//! Crash recovery: snapshot + WAL replay → a graph equal to the last
//! committed state.
//!
//! The recovery invariants, in order:
//!
//! 1. **Snapshot first.** The latest durable snapshot (if any) is decoded
//!    into a fresh graph — index definitions before records, so every
//!    index entry and degree edge count is rebuilt through the normal
//!    index-maintaining insert paths (neither is serialized).
//! 2. **Replay forward.** WAL frames with `seq > snapshot.seq` are
//!    applied in order through [`Graph::apply_committed_ops`] — the same
//!    code rollback uses, run in the forward direction. Frames at or
//!    below the snapshot sequence are superseded and skipped (they only
//!    exist when a crash hit between snapshot rename and log truncation).
//! 3. **Dense or refuse.** Frame sequences must continue the snapshot
//!    exactly (`snapshot.seq + 1, +2, …`); any gap means the file set is
//!    incoherent and recovery refuses with [`RecoveryError::EpochGap`]
//!    rather than silently losing commits.
//! 4. **Torn tails are normal, interior damage is not.** A final frame
//!    that is short or fails its checksum is the expected signature of a
//!    crash mid-append: default recovery stops just before it (strict
//!    mode surfaces it as an error instead). Damage *followed by more
//!    log* is always an error — appends never rewrite interior bytes.
//! 5. **Effects, not causes.** Frames hold post-cascade committed ops;
//!    replay never enters trigger dispatch, so a trigger that already
//!    fired before the crash fires zero additional times during
//!    recovery.
//! 6. **Fresh statistics.** Replay maintains index entries and degree
//!    edge counts exactly, but index histograms accumulate drift;
//!    [`Graph::rebuild_stats`] runs last so planning estimates (and
//!    `EXPLAIN` output) match a never-crashed twin.

use crate::errors::RecoveryError;
use crate::log::{scan_wal, TailState, WAL_FILE};
use crate::snapshot::load_snapshot;
use pg_graph::Graph;
use std::path::Path;

/// Knobs for [`recover`].
#[derive(Debug, Clone, Default)]
pub struct RecoveryOptions {
    /// Refuse torn tails instead of tolerating them: a truncated or
    /// checksum-failing final frame becomes [`RecoveryError::TruncatedFrame`] /
    /// [`RecoveryError::ChecksumMismatch`]. For operators who would rather
    /// inspect a crashed log than silently drop its tail.
    pub strict_tail: bool,
}

/// What recovery found and did — surfaced so callers (and tests) can
/// assert exactly which commits survived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Commit sequence the snapshot was cut at (0 = no snapshot).
    pub snapshot_seq: u64,
    /// Records loaded from the snapshot.
    pub snapshot_nodes: usize,
    pub snapshot_rels: usize,
    /// WAL frames replayed over the snapshot.
    pub commits_replayed: usize,
    /// The last committed sequence the recovered graph reflects.
    pub last_seq: u64,
    /// Tail classification of the scanned WAL.
    pub tail: TailState,
    /// Byte length of the valid WAL prefix (magic + whole frames); the
    /// append side truncates to this before continuing.
    pub wal_valid_len: u64,
}

/// Recover the graph persisted in `dir`. Returns the rebuilt graph (no
/// commit sink attached — [`crate::Durable::open`] does that) and a
/// report of what was replayed.
pub fn recover(
    dir: &Path,
    opts: &RecoveryOptions,
) -> Result<(Graph, RecoveryReport), RecoveryError> {
    let (mut graph, snapshot_seq, snapshot_nodes, snapshot_rels) = match load_snapshot(dir)? {
        Some(snap) => (snap.graph, snap.seq, snap.nodes, snap.rels),
        None => (Graph::new(), 0, 0, 0),
    };

    let scan = scan_wal(&dir.join(WAL_FILE))?;
    if opts.strict_tail {
        match scan.tail {
            TailState::Clean => {}
            TailState::Truncated { offset } => {
                return Err(RecoveryError::TruncatedFrame { offset });
            }
            TailState::Corrupt { offset } => {
                return Err(RecoveryError::ChecksumMismatch { offset });
            }
        }
    }

    let mut last_seq = snapshot_seq;
    let mut commits_replayed = 0usize;
    for frame in &scan.frames {
        if frame.seq <= snapshot_seq {
            // Superseded by the snapshot: the crash hit between snapshot
            // rename and log truncation. The snapshot already contains
            // this frame's effects.
            continue;
        }
        if frame.seq != last_seq + 1 {
            return Err(RecoveryError::EpochGap {
                have: frame.seq,
                need: last_seq + 1,
            });
        }
        graph
            .apply_committed_ops(&frame.ops)
            .expect("recovery graph has no active transaction");
        graph.set_id_floor(frame.next_node, frame.next_rel);
        last_seq = frame.seq;
        commits_replayed += 1;
    }

    graph.rebuild_stats();
    Ok((
        graph,
        RecoveryReport {
            snapshot_seq,
            snapshot_nodes,
            snapshot_rels,
            commits_replayed,
            last_seq,
            tail: scan.tail,
            wal_valid_len: scan.valid_len,
        },
    ))
}
