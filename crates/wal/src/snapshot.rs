//! Compacted snapshots: a point-in-time serialization of the whole store.
//!
//! A snapshot supersedes every WAL frame with `seq <= snapshot.seq`, which
//! is what keeps the log from growing without bound. The file carries the
//! commit sequence it was cut at, the id-allocator watermarks, every index
//! *definition* (index entries are rebuilt by loading records through the
//! normal index-maintaining insert paths) in four sections — by scope and
//! by width, the layout that predates the single definition list — and
//! every record:
//!
//! ```text
//! snapshot.pgs := MAGIC payload_len:u64 crc:u32 payload
//! MAGIC        := "PGSNAP01"
//! payload      := seq:u64 next_node:u64 next_rel:u64
//!                 node_single rel_single node_wide rel_wide
//!                 nodes rels
//! *_single     := n:u32 (name key)*
//! *_wide       := n:u32 (name n_cols:u32 col*)*
//! ```
//!
//! Writing is crash-atomic: the bytes go to `snapshot.pgs.tmp`, are
//! fsynced, and only then renamed over `snapshot.pgs` (rename is atomic on
//! POSIX). A crash mid-write leaves a stale `.tmp` that recovery ignores
//! and removes — the previous snapshot (or none) stays authoritative, and
//! the WAL frames it would have superseded are still present because the
//! log is only truncated *after* the rename lands.

use crate::crc::crc32;
use crate::errors::RecoveryError;
use pg_graph::codec::{self, Reader};
use pg_graph::{Graph, IndexDef, IndexOn};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

/// Snapshot file name inside a durable directory.
pub const SNAPSHOT_FILE: &str = "snapshot.pgs";
/// In-progress snapshot (crash debris unless renamed).
pub const SNAPSHOT_TMP: &str = "snapshot.pgs.tmp";
/// 8-byte file magic; doubles as the format version.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"PGSNAP01";

/// The four index sections of the payload, in file order, as `(on a
/// relationship type, more than one column)`. Single-key sections store
/// `name key` per definition, composite ones `name n_cols:u32 col*`.
const INDEX_SECTIONS: [(bool, bool); 4] =
    [(false, false), (true, false), (false, true), (true, true)];

fn index_section(def: &IndexDef) -> (bool, bool) {
    let on_rel = matches!(def.on, IndexOn::RelType(_));
    (on_rel, def.columns.len() > 1)
}

fn encode_index_defs(defs: &[IndexDef], out: &mut Vec<u8>) {
    for (on_rel, composite) in INDEX_SECTIONS {
        let defs = defs
            .iter()
            .filter(|d| index_section(d) == (on_rel, composite));
        codec::put_u32(out, defs.clone().count() as u32);
        for def in defs {
            let (IndexOn::Label(name) | IndexOn::RelType(name)) = &def.on;
            codec::put_str(out, name);
            if composite {
                codec::put_u32(out, def.columns.len() as u32);
            }
            for c in &def.columns {
                codec::put_str(out, c);
            }
        }
    }
}

fn decode_index_defs(r: &mut Reader<'_>) -> Result<Vec<IndexDef>, RecoveryError> {
    let mut defs = Vec::new();
    for (on_rel, composite) in INDEX_SECTIONS {
        for _ in 0..r.u32("index definition count")? {
            let name = r.string("index label")?;
            let n_cols = if composite {
                r.u32("index column count")?
            } else {
                1
            };
            let mut columns = Vec::with_capacity((n_cols as usize).min(64));
            for _ in 0..n_cols {
                columns.push(r.string("index column")?);
            }
            let on = if on_rel {
                IndexOn::RelType(name)
            } else {
                IndexOn::Label(name)
            };
            defs.push(IndexDef { on, columns });
        }
    }
    Ok(defs)
}

/// Serialize the full store state as cut at commit sequence `seq`.
pub fn encode_snapshot(graph: &Graph, seq: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    codec::put_u64(&mut payload, seq);
    let (next_node, next_rel) = graph.id_watermarks();
    codec::put_u64(&mut payload, next_node);
    codec::put_u64(&mut payload, next_rel);
    encode_index_defs(&graph.indexes(), &mut payload);
    codec::put_u64(&mut payload, graph.node_count() as u64);
    for rec in graph.nodes() {
        codec::encode_node_record(rec, &mut payload);
    }
    codec::put_u64(&mut payload, graph.rel_count() as u64);
    for rec in graph.rels() {
        codec::encode_rel_record(rec, &mut payload);
    }

    let mut bytes = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 12 + payload.len());
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    codec::put_u64(&mut bytes, payload.len() as u64);
    codec::put_u32(&mut bytes, crc32(&payload));
    bytes.extend_from_slice(&payload);
    bytes
}

/// Write a snapshot of `graph` (as of commit sequence `seq`) into `dir`,
/// crash-atomically: tmp + fsync + rename + directory fsync.
pub fn write_snapshot(dir: &Path, graph: &Graph, seq: u64) -> std::io::Result<()> {
    let bytes = encode_snapshot(graph, seq);
    let tmp = dir.join(SNAPSHOT_TMP);
    let dst = dir.join(SNAPSHOT_FILE);
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    f.write_all(&bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, &dst)?;
    // Make the rename itself durable (POSIX: fsync the directory).
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// A decoded snapshot: the store as of commit sequence `seq`, loaded into
/// a fresh graph with all index definitions re-created and entries/stats
/// rebuilt through the normal insert paths.
pub struct LoadedSnapshot {
    pub seq: u64,
    pub graph: Graph,
    pub nodes: usize,
    pub rels: usize,
}

/// Decode snapshot bytes. Every format violation — bad magic, short
/// payload, checksum failure, undecodable record — is
/// [`RecoveryError::SnapshotCorrupt`]: the atomic write protocol means a
/// damaged snapshot cannot be crash debris.
pub fn decode_snapshot(bytes: &[u8]) -> Result<LoadedSnapshot, RecoveryError> {
    let corrupt = |reason: &str| RecoveryError::SnapshotCorrupt {
        reason: reason.to_string(),
    };
    let header = SNAPSHOT_MAGIC.len() + 12;
    if bytes.len() < header || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic or short header"));
    }
    let mut r = Reader::new(&bytes[SNAPSHOT_MAGIC.len()..]);
    let payload_len = r
        .u64("snapshot payload length")
        .map_err(|_| corrupt("short header"))? as usize;
    let crc = r.u32("snapshot crc").map_err(|_| corrupt("short header"))?;
    if bytes.len() != header + payload_len {
        return Err(corrupt("payload length mismatch"));
    }
    let payload = &bytes[header..];
    if crc32(payload) != crc {
        return Err(corrupt("checksum mismatch"));
    }

    let snap_err = |e: RecoveryError| match e {
        RecoveryError::Codec(c) => RecoveryError::SnapshotCorrupt {
            reason: format!("undecodable payload: {c}"),
        },
        other => other,
    };
    let mut r = Reader::new(payload);
    let mut decode = || -> Result<LoadedSnapshot, RecoveryError> {
        let seq = r.u64("snapshot seq")?;
        let next_node = r.u64("snapshot next_node")?;
        let next_rel = r.u64("snapshot next_rel")?;
        let mut graph = Graph::new();
        // Definitions before records: loading through the normal insert
        // paths then maintains every index incrementally.
        for def in decode_index_defs(&mut r)? {
            graph.define_index(&def);
        }
        let n_nodes = r.u64("snapshot node count")? as usize;
        for _ in 0..n_nodes {
            let rec = codec::decode_node_record(&mut r)?;
            graph.load_node(rec).expect("snapshot load outside tx");
        }
        let n_rels = r.u64("snapshot rel count")? as usize;
        for _ in 0..n_rels {
            let rec = codec::decode_rel_record(&mut r)?;
            graph.load_rel(rec).expect("snapshot load outside tx");
        }
        if !r.is_empty() {
            return Err(corrupt("trailing bytes after payload"));
        }
        graph.set_id_floor(next_node, next_rel);
        Ok(LoadedSnapshot {
            seq,
            graph,
            nodes: n_nodes,
            rels: n_rels,
        })
    };
    decode().map_err(snap_err).map_err(|e| match e {
        e @ RecoveryError::SnapshotCorrupt { .. } => e,
        RecoveryError::Io(io) => RecoveryError::Io(io),
        other => RecoveryError::SnapshotCorrupt {
            reason: other.to_string(),
        },
    })
}

/// Load the snapshot from `dir`, if one exists. A stale `.tmp` (crash
/// mid-snapshot) is never read.
pub fn load_snapshot(dir: &Path) -> Result<Option<LoadedSnapshot>, RecoveryError> {
    let path = dir.join(SNAPSHOT_FILE);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    decode_snapshot(&bytes).map(Some)
}
