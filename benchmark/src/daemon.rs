//! Child-process `pg-serverd`, scratch directories, and the interrupt
//! flag. Everything here cleans up after itself: a daemon is killed and
//! reaped when its handle drops (normal exit, error return or panic
//! unwind), a scratch directory is removed when its guard drops, and
//! SIGINT/SIGTERM only set a flag that the load loops poll, so those
//! drops still run.

use pg_server::Client;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only an atomic store: async-signal-safe.
    INTERRUPTED.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// Turn SIGINT and SIGTERM into a flag ([`check_interrupt`]) instead of
/// process death.
pub fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C library's own (std links it on every unix
    // target); the handler is an `extern "C" fn(i32)` that performs one
    // atomic store and nothing else.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// `Err` once a signal arrived — call from every loop that can run long.
pub fn check_interrupt() -> Result<(), String> {
    if INTERRUPTED.load(Ordering::SeqCst) {
        Err("interrupted".to_string())
    } else {
        Ok(())
    }
}

/// The benchmark's own directory (`benchmark/`). All files the benchmark
/// writes go under its `out/`, inside the checkout.
pub fn bench_dir() -> PathBuf {
    // `cargo run` exports CARGO_MANIFEST_DIR at run time; a binary started
    // by hand falls back to the path it was built at.
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .filter(|p| p.join("Cargo.toml").is_file())
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// A scratch directory under `benchmark/out/tmp`, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Result<TempDir, String> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = out_dir().join("tmp").join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes a durable directory holds on disk: its WAL plus its snapshot.
pub fn store_bytes(dir: &Path) -> u64 {
    [pg_wal::WAL_FILE, pg_wal::SNAPSHOT_FILE]
        .iter()
        .filter_map(|f| std::fs::metadata(dir.join(f)).ok())
        .map(|m| m.len())
        .sum()
}

/// Peak resident set (`VmHWM`) of a process in MB; `None` when `/proc`
/// does not say (process gone, or not Linux).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Sync policy and worker threads are part of the measured configuration:
/// set explicitly for every daemon and in-process twin, and recorded in
/// the result's `env` stanza.
pub const SYNC_POLICY: &str = "group";

pub fn pg_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Export the measured configuration into this process's environment, so
/// in-process sessions and spawned daemons resolve the same values.
pub fn export_engine_env() {
    std::env::set_var("PG_WAL_SYNC", SYNC_POLICY);
    std::env::set_var("PG_THREADS", pg_threads().to_string());
}

/// Path of the daemon binary: built by cargo into the same directory as
/// this executable.
pub fn serverd_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe.with_file_name("pg-serverd"))
}

/// Make sure `pg-serverd` exists beside this executable. `cargo run`
/// builds only this package's binary, so the first wire run of a
/// checkout asks cargo for the daemon (same manifest, same target
/// directory, dependencies already compiled). Not counted as set-up time.
pub fn ensure_serverd() -> Result<PathBuf, String> {
    let path = serverd_path()?;
    if path.is_file() {
        return Ok(path);
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let target_dir = path
        .parent()
        .and_then(Path::parent)
        .ok_or("executable is not inside a cargo target directory")?;
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--offline"])
        .args(["-p", "pg-server", "--bin", "pg-serverd", "--manifest-path"])
        .arg(bench_dir().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo to build pg-serverd: {e}"))?;
    if !status.success() || !path.is_file() {
        return Err(format!("building pg-serverd failed ({status})"));
    }
    Ok(path)
}

/// A running `pg-serverd` child on an ephemeral port.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Spawn the daemon on the durable directory `dir` and wait for its
    /// `listening on` line. Its stderr goes to `<dir>.log`.
    pub fn spawn(dir: &Path, covid: bool) -> Result<Daemon, String> {
        let mut cmd = Command::new(serverd_path()?);
        cmd.args(["--addr", "127.0.0.1:0", "--dir"]).arg(dir);
        if covid {
            cmd.arg("--covid");
        }
        let log_path = dir.with_extension("log");
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| format!("daemon log: {e}"))?;
        let mut child = cmd
            .env("PG_WAL_SYNC", SYNC_POLICY)
            .env("PG_THREADS", pg_threads().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn pg-serverd: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                let log = std::fs::read_to_string(&log_path).unwrap_or_default();
                return Err(format!(
                    "pg-serverd did not start: {:?}\n{log}",
                    line.trim()
                ));
            }
        };
        Ok(Daemon { child, addr })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Connect, retrying briefly (the listener is already bound when the
    /// address line is printed, so this succeeds first time in practice).
    pub fn connect(&self) -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Client::connect(self.addr.as_str()) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("cannot connect to {}: {e}", self.addr))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// SIGKILL and reap — a process crash, as far as the store can tell.
    pub fn kill(mut self) {
        self.kill_in_place();
    }

    fn kill_in_place(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dirs_are_distinct_and_removed() {
        let (a, b) = (TempDir::new("t").unwrap(), TempDir::new("t").unwrap());
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join(pg_wal::WAL_FILE), b"12345").unwrap();
        std::fs::write(a.path().join("pg.lock"), b"1").unwrap();
        assert_eq!(store_bytes(a.path()), 5);
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().starts_with(out_dir()));
    }

    #[test]
    fn own_peak_rss_is_readable() {
        let mb = peak_rss_mb(std::process::id()).expect("VmHWM of this process");
        assert!(mb > 0.5, "{mb}");
    }
}
