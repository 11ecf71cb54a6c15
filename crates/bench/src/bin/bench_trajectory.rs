//! `bench-trajectory`: appends one machine-readable perf entry to
//! `BENCH_sim.json`.
//!
//! Times every kernel in [`ntc_bench::kernels`] — the same bodies the
//! `simulator_kernels` Criterion bench runs — with a cheap best-of-N
//! `Instant` harness, then appends `{commit, date, groups}` to the
//! `trajectory` array (creating it when absent). The existing top-level
//! baseline fields are left untouched, so the file keeps its curated
//! commentary while the trajectory grows one entry per recorded run.
//!
//! Run from the repository root with `cargo run --release -p ntc-bench
//! --bin bench-trajectory`. Debug-build timings would be meaningless;
//! the binary refuses to record them.
//!
//! ```text
//! bench-trajectory [--file PATH] [--dry-run]
//! ```

use serde_json::Value;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Timing repetitions per kernel; the best run is recorded (matching the
/// "fastest stable iteration" convention Criterion's estimates follow).
const REPS: u32 = 3;

fn best_of(f: impl Fn()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best * 100.0).round() / 100.0
}

fn map(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let line = String::from_utf8(out.stdout).ok()?;
    let line = line.trim();
    (!line.is_empty()).then(|| line.to_owned())
}

fn main() -> ExitCode {
    let mut file = "BENCH_sim.json".to_owned();
    let mut dry_run = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--file" => match args.next() {
                Some(v) => file = v,
                None => {
                    eprintln!("bench-trajectory: --file needs a value");
                    return ExitCode::from(2);
                }
            },
            "--dry-run" => dry_run = true,
            other => {
                eprintln!("bench-trajectory: unknown flag {other:?}");
                eprintln!("usage: bench-trajectory [--file PATH] [--dry-run]");
                return ExitCode::from(2);
            }
        }
    }
    if cfg!(debug_assertions) {
        eprintln!("bench-trajectory: refusing to record debug-build timings; use --release");
        return ExitCode::from(2);
    }

    let commit = command_line("git", &["rev-parse", "--short", "HEAD"])
        .unwrap_or_else(|| "unknown".to_owned());
    let date = command_line("date", &["+%F"]).unwrap_or_else(|| "unknown".to_owned());

    eprintln!("bench-trajectory: timing kernel groups (best of {REPS})...");
    let groups = Value::Map(
        ntc_bench::kernels::groups()
            .iter()
            .map(|group| {
                let cells = group
                    .kernels
                    .iter()
                    .map(|k| (format!("{}_ms", k.name), Value::F64(best_of(|| k.run()))))
                    .collect();
                (group.name.to_owned(), Value::Map(cells))
            })
            .collect(),
    );
    let entry = map(vec![
        ("commit", Value::Str(commit)),
        ("date", Value::Str(date)),
        ("groups", groups),
    ]);

    let text = match std::fs::read_to_string(&file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("bench-trajectory: cannot read {file}: {e} (run from the repo root)");
            return ExitCode::FAILURE;
        }
    };
    let mut root: Value = match serde_json::from_str(&text) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("bench-trajectory: {file} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Value::Map(fields) = &mut root else {
        eprintln!("bench-trajectory: {file} is not a JSON object");
        return ExitCode::FAILURE;
    };
    match fields.iter_mut().find(|(k, _)| k == "trajectory") {
        Some((_, Value::Seq(entries))) => entries.push(entry),
        Some(slot) => slot.1 = Value::Seq(vec![entry]),
        None => fields.push(("trajectory".to_owned(), Value::Seq(vec![entry]))),
    }

    let rendered = match serde_json::to_string_pretty(&root) {
        Ok(rendered) => rendered,
        Err(e) => {
            eprintln!("bench-trajectory: could not serialize: {e}");
            return ExitCode::FAILURE;
        }
    };
    if dry_run {
        println!("{rendered}");
        return ExitCode::SUCCESS;
    }
    if let Err(e) = std::fs::write(&file, rendered + "\n") {
        eprintln!("bench-trajectory: could not write {file}: {e}");
        return ExitCode::FAILURE;
    }
    println!("bench-trajectory: appended one entry to {file}");
    ExitCode::SUCCESS
}
