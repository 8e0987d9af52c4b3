//! `pg-benchmark` — the one benchmark of the reactive graph engine.
//!
//! ```text
//! pg-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! pg-benchmark compare <base.json> <new.json>
//! pg-benchmark repeat [--sets 2] [--runs 5] [--seconds S] [--out FILE]
//! pg-benchmark spec                    # prints BENCHMARK.json
//! ```
//!
//! See `README.md` beside this package for the workload and metric
//! dictionary.

mod compare;
mod daemon;
mod json;
mod layers;
mod model;
mod repeat;
mod run;
mod span;
mod spec;
mod stats;
mod wire;
mod workloads;

use std::process::ExitCode;

/// `--flag value` pairs after the subcommand; positional arguments are
/// returned in order.
struct Flags {
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let (mut pairs, mut positional) = (Vec::new(), Vec::new());
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    pairs.push((name.to_string(), value.clone()));
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Flags { pairs, positional })
    }

    fn take<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.pairs.iter().position(|(k, _)| k == name) {
            None => Ok(None),
            Some(i) => {
                let (_, v) = self.pairs.remove(i);
                v.parse()
                    .map(Some)
                    .map_err(|_| format!("--{name}: cannot read `{v}`"))
            }
        }
    }

    fn finish(self) -> Result<Vec<String>, String> {
        match self.pairs.first() {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(self.positional),
        }
    }
}

const USAGE: &str =
    "usage: pg-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       pg-benchmark compare <base.json> <new.json>
       pg-benchmark repeat [--sets 2] [--runs 5] [--seconds S] [--out FILE]";

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (cmd, rest) = args.split_first().ok_or(USAGE)?;
    let mut flags = Flags::parse(rest)?;
    match cmd.as_str() {
        "run" => {
            let trace: Option<u8> = flags.take("trace")?;
            let run_args = run::RunArgs {
                workload: flags.take("workload")?,
                seed: flags.take("seed")?.unwrap_or(1),
                seconds: flags.take("seconds")?.unwrap_or(spec::RUN_SECONDS as f64),
                trace: match trace {
                    None | Some(0) => false,
                    Some(1) => true,
                    Some(n) => return Err(format!("--trace is 0 or 1, not {n}")),
                },
                out: flags.take("out")?,
            };
            if !flags.finish()?.is_empty() {
                return Err(USAGE.to_string());
            }
            match &run_args.workload {
                Some(name) => run::run_workload(name, &run_args),
                None => run::run_all(&run_args),
            }
        }
        "compare" => match flags.finish()?.as_slice() {
            [base, new] => compare::compare_files(base.as_ref(), new.as_ref()),
            _ => Err(USAGE.to_string()),
        },
        "repeat" => {
            let repeat_args = repeat::RepeatArgs {
                sets: flags.take("sets")?.unwrap_or(2),
                runs: flags.take("runs")?.unwrap_or(5),
                seconds: flags.take("seconds")?.unwrap_or(spec::RUN_SECONDS as f64),
                out: flags.take("out")?,
            };
            if !flags.finish()?.is_empty() {
                return Err(USAGE.to_string());
            }
            repeat::repeat(&repeat_args)
        }
        // Regenerates the repo-root declaration from the metric dictionary:
        // `pg-benchmark spec > BENCHMARK.json`.
        "spec" => {
            println!(
                "{}",
                serde_json::to_string_pretty(&spec::benchmark_json()).unwrap()
            );
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("pg-benchmark: refusing to measure a debug build; use `cargo run --release`");
        return ExitCode::from(2);
    }
    daemon::install_signal_handlers();
    daemon::export_engine_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("pg-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
