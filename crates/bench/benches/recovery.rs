//! Durability cost and recovery speed, emitted as `BENCH_recovery.json`.
//!
//! Three measurements:
//!
//! 1. **WAL overhead** — trigger-firing ingest throughput in-memory vs
//!    durable under each fsync policy (`never`, `group`, `always`). The
//!    `never`/`group` policies only serialize frames into the OS page
//!    cache on the commit path, so their overhead bar is ≤ 35% versus
//!    the in-memory session; `always` pays a real disk round-trip per
//!    commit and is reported without a bar (it measures the disk, not
//!    the engine).
//! 2. **Recovery time vs log length** — replaying a pure-WAL store of
//!    N committed transactions, reported as recoveries/second and
//!    commits replayed/second at several log lengths.
//! 3. **Snapshot compaction win** — the same store recovered from a
//!    checkpoint snapshot plus an empty log suffix, reported as the
//!    speedup over full-log replay (bar: ≥ 1.5× at the largest size; the
//!    snapshot loads records instead of re-applying per-op history).
//!
//! Quick mode for CI smoke: `cargo bench --bench recovery -- --test`
//! shrinks sizes and skips the acceptance assertions (noise-proof); the
//! `recovery-fuzz` CI job runs quick mode per push and the full mode is
//! a nightly artifact.

use pg_triggers::{EngineConfig, Session, SyncPolicy, WalOptions};
use serde_json::json;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "pg_bench_recovery_{tag}_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn opts(sync: SyncPolicy) -> WalOptions {
    WalOptions {
        sync,
        group_bytes: 32 * 1024,
    }
}

fn trigger_session(dir: Option<(&Path, SyncPolicy)>) -> Session {
    let mut s = match dir {
        Some((d, sync)) => {
            Session::open_durable(d, EngineConfig::default(), opts(sync))
                .expect("open durable bench session")
                .0
        }
        None => Session::new(),
    };
    s.install(
        "CREATE TRIGGER audit AFTER CREATE ON 'Job' FOR EACH NODE
         BEGIN CREATE (:Audit {of: NEW.i}) END",
    )
    .unwrap();
    s
}

/// One timed burst of trigger-firing ingest statements (auto-commit: one
/// WAL frame per statement on durable sessions). Returns statements/s.
fn ingest_burst(s: &mut Session, statements: usize) -> f64 {
    let t0 = Instant::now();
    for i in 0..statements {
        s.run(&format!("CREATE (:Job {{i: {i}, src: 'loader'}})"))
            .unwrap();
    }
    s.wal_flush().unwrap();
    statements as f64 / t0.elapsed().as_secs_f64()
}

/// Best-of-`repeats` ingest throughput for one durability configuration.
fn ingest_stmts_per_s(statements: usize, repeats: usize, durable: Option<SyncPolicy>) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..repeats {
        let tmp = TempDir::new("ingest");
        let mut s = trigger_session(durable.map(|sync| (tmp.path(), sync)));
        best = best.max(ingest_burst(&mut s, statements));
    }
    best
}

/// Build a durable store of `commits` trigger-firing transactions; when
/// `compacted`, finish with a checkpoint so recovery loads the snapshot
/// instead of replaying the log.
fn build_store(commits: usize, compacted: bool) -> TempDir {
    let tmp = TempDir::new(if compacted { "snap" } else { "wal" });
    let mut s = trigger_session(Some((tmp.path(), SyncPolicy::Never)));
    for i in 0..commits {
        s.run(&format!("CREATE (:Job {{i: {i}, src: 'loader'}})"))
            .unwrap();
    }
    if compacted {
        s.checkpoint().unwrap();
    }
    s.wal_flush().unwrap();
    tmp
}

/// Time one recovery of the store at `dir`. Returns (seconds, last_seq).
fn recover_once(dir: &Path) -> (f64, u64) {
    let t0 = Instant::now();
    let (_s, report) = Session::open_durable(dir, EngineConfig::default(), opts(SyncPolicy::Never))
        .expect("bench recovery");
    (t0.elapsed().as_secs_f64(), report.last_seq)
}

/// Best-of-`repeats` recovery time for a prebuilt store.
fn recovery_secs(dir: &Path, repeats: usize) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut seq = 0;
    for _ in 0..repeats {
        let (secs, last_seq) = recover_once(dir);
        best = best.min(secs);
        seq = last_seq;
    }
    (best, seq)
}

fn main() {
    let quick = quick_mode();
    let (statements, repeats, log_lens) = if quick {
        (300, 1, vec![200usize, 800])
    } else {
        (4_000, 5, vec![1_000usize, 4_000, 16_000])
    };

    // 1. WAL overhead per fsync policy.
    let memory = ingest_stmts_per_s(statements, repeats, None);
    let never = ingest_stmts_per_s(statements, repeats, Some(SyncPolicy::Never));
    let group = ingest_stmts_per_s(statements, repeats, Some(SyncPolicy::Group));
    let always = ingest_stmts_per_s(statements, repeats, Some(SyncPolicy::Always));
    let never_overhead_pct = (1.0 - never / memory) * 100.0;
    let group_overhead_pct = (1.0 - group / memory) * 100.0;

    // 2. Recovery time vs log length, and 3. the snapshot-compaction win.
    let mut replay_report = Vec::new();
    let mut final_speedup = 0.0f64;
    for &commits in &log_lens {
        let wal_store = build_store(commits, false);
        let snap_store = build_store(commits, true);
        let (replay_secs, last_seq) = recovery_secs(wal_store.path(), repeats);
        let (snap_secs, snap_seq) = recovery_secs(snap_store.path(), repeats);
        assert_eq!(last_seq as usize, commits);
        assert_eq!(snap_seq as usize, commits);
        let speedup = replay_secs / snap_secs;
        final_speedup = speedup;
        replay_report.push(json!({
            "commits": commits,
            "replay_secs": replay_secs,
            "replay_commits_per_s": commits as f64 / replay_secs,
            "snapshot_secs": snap_secs,
            "snapshot_speedup_x": speedup,
        }));
    }

    let ingest_report = json!({
        "statements": statements,
        "memory_stmts_per_s": memory,
        "wal_never_stmts_per_s": never,
        "wal_group_stmts_per_s": group,
        "wal_always_stmts_per_s": always,
        "never_overhead_pct": never_overhead_pct,
        "group_overhead_pct": group_overhead_pct,
        "bar_buffered_overhead_pct_max": 35.0,
    });
    let report = json!({
        "bench": "recovery",
        "mode": if quick { "quick" } else { "full" },
        "ingest": ingest_report,
        "recovery": replay_report,
        "bar_snapshot_speedup_x_min": 1.5,
    });
    pg_bench::write_report("recovery", quick, &report);

    if !quick {
        assert!(
            never_overhead_pct <= 35.0,
            "unsynced WAL costs {never_overhead_pct:.1}% (> 35% bar): \
             {never:.0} vs {memory:.0} stmts/s"
        );
        assert!(
            group_overhead_pct <= 35.0,
            "group-commit WAL costs {group_overhead_pct:.1}% (> 35% bar): \
             {group:.0} vs {memory:.0} stmts/s"
        );
        assert!(
            final_speedup >= 1.5,
            "snapshot recovery only {final_speedup:.2}x faster than full replay \
             at {} commits (>= 1.5x bar)",
            log_lens.last().unwrap()
        );
    }
}
