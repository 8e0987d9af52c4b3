//! # pg-bench — paper-artifact regeneration and benchmark harness
//!
//! * [`tables`] regenerates every table and figure of the paper as a
//!   checkable artifact (see `EXPERIMENTS.md` for the index);
//! * [`workloads`] builds the shared benchmark fixtures;
//! * the `paper_tables` binary prints the artifacts
//!   (`cargo run -p pg-bench --bin paper_tables -- all`);
//! * `benches/` holds the Criterion performance experiments P1–P8; the
//!   ones that emit a `BENCH_<name>.json` do so through [`write_report`].

pub mod tables;
pub mod workloads;
pub mod zipf;

/// Print a bench's JSON report and write it as `BENCH_<name>.json`: a full
/// run re-baselines the tracked file at the repository root (where CI
/// archives it), a quick (`-- --test`) run writes `target/bench/` instead,
/// so smoke runs leave the work tree clean. Both are manifest-relative —
/// the bench binary's working directory does not matter.
pub fn write_report(name: &str, quick: bool, report: &serde_json::Value) {
    let rendered = serde_json::to_string_pretty(report).expect("a report is plain JSON");
    println!("{rendered}");
    let mut dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if quick {
        dir.push("target/bench");
        std::fs::create_dir_all(&dir).expect("create target/bench");
    }
    let out = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&out, rendered + "\n").unwrap_or_else(|e| panic!("write {out:?}: {e}"));
}
