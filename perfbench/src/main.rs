//! End-to-end and per-layer host-time benchmark of ntserver.
//!
//! One single-threaded program runs a workload through the layers' public
//! functions, checks its outputs, and prints every metric by name and
//! unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report
//! the end-to-end metrics; traced runs (`--trace 1`) record spans in
//! memory, fold them into per-layer self time, write them under
//! `perfbench/out/`, and report the per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig-ladder --seed 0 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-digests
//! ```

mod alloc;
mod chip;
mod digest;
mod ladder;
mod report;
mod stats;
mod trace;

use report::{metric, ratio, Measured, Metric};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use trace::{Recorder, Span};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: ntc-perfbench --workload <fig-ladder|chip-dram> [--seed <n>] \
                     [--seconds <n>] [--trace <0|1>] [--print-digests]\n       \
                     ntc-perfbench --write-digests";

/// Knobs that would change the program being measured. They are removed
/// from the environment before anything reads them.
const PINNED_ENV: [&str; 8] = [
    "NTC_SIM_THREADS",
    "NTC_SWEEP",
    "NTC_FIDELITY",
    "NTC_CACHE",
    "NTC_ENERGY",
    "NTC_ENERGY_WINDOW",
    "NTC_TRACE",
    "NTC_METRICS",
];

const WORKLOADS: [&str; 2] = [ladder::NAME, chip::NAME];

/// `digests.txt` covers seeds `0..DIGEST_SEEDS` of every workload.
const DIGEST_SEEDS: u64 = 32;

/// Largest tolerated gap between the summed per-layer self times and the
/// traced wall time, as a share of the wall time. The gap is the root
/// spans' self time: work inside the traced section that no layer span
/// covers.
const CLOSURE_TOLERANCE: f64 = 1e-2;

/// Largest tolerated ratio between the traced and the untraced run's
/// `point_ms_p50`, either way. Host noise moves it by up to about 1.7;
/// a traced path that no longer follows the library's moves it further.
const TRACED_P50_FACTOR: f64 = 2.0;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_digests: bool,
}

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Run(Args),
    WriteDigests,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if args == ["--write-digests"] {
        return Ok(Mode::WriteDigests);
    }
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    let mut print_digests = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            print_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => {
                seconds = number()?;
                if !(1..=3600).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 1..=3600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        print_digests,
    }))
}

fn main() -> ExitCode {
    let mut cleared = Vec::new();
    for name in PINNED_ENV {
        if std::env::var_os(name).is_some() {
            std::env::remove_var(name);
            cleared.push(name);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Mode::Run(args)) => run(&args, &cleared),
        Ok(Mode::WriteDigests) => write_digests(),
        Err(err) => {
            eprintln!("error: {err}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The checked-out commit, when the checkout is a git repository.
fn commit() -> String {
    let git = repo_root().join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn run(args: &Args, cleared: &[&str]) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"env\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"commit\":\"{}\",\"digests\":{},\"cleared\":[{}]}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(),
        digest::covered(args.workload, args.seed),
        cleared
            .iter()
            .map(|c| format!("\"{c}\""))
            .collect::<Vec<_>>()
            .join(","),
    );

    // The untraced wall time the tracing overhead is measured against
    // comes from a separate untraced run of the same seed.
    let untraced = args.trace.then(|| untraced_run(args));
    let recorder = args.trace.then(Recorder::new);
    let mut measured = match args.workload {
        ladder::NAME => ladder::run(args.seed, recorder.as_ref()),
        _ => chip::run(args.seed, recorder.as_ref()),
    };

    let metrics = match recorder {
        None => end_to_end(&measured),
        Some(recorder) => {
            let spans = recorder.into_spans();
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
                "out/trace-{}-seed{}.json",
                args.workload, args.seed
            ));
            let written = std::fs::create_dir_all(path.parent().expect("a file has a parent"))
                .and_then(|()| std::fs::write(&path, trace::to_json(&spans)));
            match written {
                Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
                Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
            }
            let untraced = untraced.expect("traced runs measure an untraced run");
            per_layer(&mut measured, &spans, untraced)
        }
    };
    if args.print_digests {
        for (item, d) in &measured.digests {
            println!("digest\t{item}\t{d}");
        }
    }
    for m in &metrics {
        eprintln!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    measured.checks.record(1, finite, "every metric is finite");
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        measured.checks.failed == 0,
        measured.checks.attempted,
        measured.checks.failed,
        metrics_json.join(",")
    );
    ExitCode::SUCCESS
}

/// What the untraced comparison run of a traced run reported.
#[derive(Debug, Clone, Copy)]
struct Untraced {
    wall_s: f64,
    point_ms_p50: f64,
    correct: bool,
}

/// Runs this program untraced on the same workload and seed.
fn untraced_run(args: &Args) -> Option<Untraced> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args([
            "--workload",
            args.workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
        ])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let stdout = String::from_utf8(output.stdout).ok()?;
    let last: serde_json::Value = serde_json::from_str(stdout.lines().last()?).ok()?;
    let metrics = last.get("metrics")?;
    let value = |name: &str| metrics.get(name)?.get("value")?.as_f64();
    let untraced = Untraced {
        wall_s: value("wall_s")?,
        point_ms_p50: value("point_ms_p50")?,
        correct: last.get("correct")?.as_bool()?,
    };
    output.status.success().then_some(untraced)
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let mut metrics = vec![
        metric("wall_s", m.wall_s, "s"),
        metric("setup_s", m.setup_s, "s"),
        metric("sim_uinstr_per_s", m.user_instrs as f64 / m.wall_s, "1/s"),
        metric("point_ms_p50", stats::percentile(&m.op_ms, 50.0), "ms"),
    ];
    match stats::tail_percentile(m.op_ms.len()) {
        Some(p) => metrics.push(metric(
            format!("point_ms_p{p}"),
            stats::percentile(&m.op_ms, p),
            "ms",
        )),
        None => eprintln!("{} ops leave no tail percentile", m.op_ms.len()),
    }
    metrics.push(metric(
        "peak_heap_mb",
        alloc::peak_bytes() as f64 / 1e6,
        "MB",
    ));
    eprintln!(
        "{} ops; tail percentile has {} samples beyond it",
        m.op_ms.len(),
        stats::MIN_BEYOND
    );
    metrics
}

fn per_layer(m: &mut Measured, spans: &[Span], untraced: Option<Untraced>) -> Vec<Metric> {
    let by_layer = trace::fold_ms(spans, Span::layer);
    let by_name = trace::fold_ms(spans, |s| s.name);
    let layer = |l: &str| by_layer.get(l).copied().unwrap_or(0.0);
    let name = |n: &str| by_name.get(n).copied().unwrap_or(0.0);
    let self_sum_ms: f64 = by_layer.values().sum();
    let unclaimed_ms = trace::unclaimed_ms(spans);
    let wall_ms = m.wall_s * 1e3;
    let unclaimed_share = ratio((wall_ms - self_sum_ms).abs(), wall_ms);
    m.checks.record(
        1,
        unclaimed_share <= CLOSURE_TOLERANCE,
        &format!(
            "per-layer self times sum to {self_sum_ms:.3} ms of {wall_ms:.3} ms traced wall \
             (root spans' own time {unclaimed_ms:.3} ms), tolerance {CLOSURE_TOLERANCE}"
        ),
    );
    let untraced_s = untraced.map_or(0.0, |u| u.wall_s);
    m.checks.record(
        1,
        untraced.is_some_and(|u| u.correct),
        "untraced comparison run",
    );
    let p50 = stats::percentile(&m.op_ms, 50.0);
    let p50_ratio = untraced.map_or(f64::NAN, |u| ratio(p50, u.point_ms_p50));
    m.checks.record(
        1,
        (1.0 / TRACED_P50_FACTOR..=TRACED_P50_FACTOR).contains(&p50_ratio),
        &format!(
            "traced point_ms_p50 {p50:.3} ms is {p50_ratio:.3}x the untraced one, \
             within a factor {TRACED_P50_FACTOR}"
        ),
    );
    let span_cost_ns = trace::span_cost_ns();

    let warm = name("sim.warm_up");
    let measure = name("sim.measure");
    let s = &m.sim;
    vec![
        metric("bench.assemble_ms", layer("bench"), "ms"),
        metric("core.sweep_self_ms", name("core.sweep"), "ms"),
        metric("core.measure_self_ms", name("core.measure"), "ms"),
        metric("core.cache_hits", m.cache_hits as f64, "count"),
        metric("core.cache_misses", m.cache_misses as f64, "count"),
        metric(
            "core.cache_hit_ratio",
            ratio(m.cache_hits as f64, (m.cache_hits + m.cache_misses) as f64),
            "ratio",
        ),
        metric("qos.curve_ms", m.qos_curve_ms, "ms"),
        metric("sim.build_ms", name("sim.build"), "ms"),
        metric("sim.warm_up_ms", warm, "ms"),
        metric("sim.measure_ms", measure, "ms"),
        metric("sim.warm_up_share", ratio(warm, warm + measure), "ratio"),
        metric(
            "sim.ns_per_cycle",
            ratio(measure * 1e6, s.measured_cycles as f64),
            "ns",
        ),
        metric("sim.cycles", s.cycles as f64, "count"),
        metric("sim.measured_cycles", s.measured_cycles as f64, "count"),
        metric("sim.user_instrs", s.measured_user_instrs as f64, "count"),
        metric("sim.skipped_cycles", s.skipped_cycles as f64, "count"),
        metric(
            "sim.skip_ratio",
            ratio(s.skipped_cycles as f64, s.cycles as f64),
            "ratio",
        ),
        metric(
            "sim.dram_queue_high_water",
            s.queue_high_water as f64,
            "count",
        ),
        metric(
            "sim.dram_row_hit_ratio",
            ratio(s.row_hits as f64, (s.row_hits + s.row_misses) as f64),
            "ratio",
        ),
        metric(
            "sim.llc_hit_ratio",
            ratio(s.llc_hits as f64, (s.llc_hits + s.llc_misses) as f64),
            "ratio",
        ),
        metric("sim.xbar_transfers", s.xbar_transfers as f64, "count"),
        metric("workloads.prewarm_ms", name("workloads.prewarm"), "ms"),
        metric("workloads.stream_ms_est", s.stream_ms_est, "ms"),
        metric("trace.wall_s", m.wall_s, "s"),
        metric("trace.untraced_wall_s", untraced_s, "s"),
        metric("trace.overhead_ms", (m.wall_s - untraced_s) * 1e3, "ms"),
        metric(
            "trace.overhead_share",
            ratio(m.wall_s - untraced_s, untraced_s),
            "ratio",
        ),
        metric(
            "trace.recorder_ms_est",
            span_cost_ns * spans.len() as f64 / 1e6,
            "ms",
        ),
        metric("trace.unclaimed_share", unclaimed_share, "ratio"),
        metric("trace.spans", spans.len() as f64, "count"),
    ]
}

/// Regenerates `digests.txt` from fresh runs of every workload on seeds
/// `0..DIGEST_SEEDS`, one process per run (the figure store is
/// process-wide).
fn write_digests() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("error: cannot locate this program: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut lines = Vec::new();
    for workload in WORKLOADS {
        for seed in 0..DIGEST_SEEDS {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--trace", "0", "--print-digests"])
                .stderr(std::process::Stdio::inherit())
                .output();
            let output = match output {
                Ok(o) if o.status.success() => o,
                other => {
                    eprintln!("error: {workload} seed {seed} did not run: {other:?}");
                    return ExitCode::FAILURE;
                }
            };
            for line in String::from_utf8_lossy(&output.stdout).lines() {
                if let Some(entry) = line.strip_prefix("digest\t") {
                    lines.push(format!("{workload}\t{seed}\t{entry}"));
                }
            }
            eprintln!("{workload} seed {seed}: {} digests so far", lines.len());
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("digests.txt");
    match std::fs::write(&path, lines.join("\n") + "\n") {
        Ok(()) => {
            eprintln!("wrote {} digests to {}", lines.len(), path.display());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: could not write {}: {err}", path.display());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Mode, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let mode = parse(&[
            "--workload",
            "chip-dram",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        assert_eq!(
            mode,
            Ok(Mode::Run(Args {
                workload: chip::NAME,
                seed: 7,
                seconds: 10,
                trace: true,
                print_digests: false,
            }))
        );
        assert_eq!(parse(&["--write-digests"]), Ok(Mode::WriteDigests));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(parse(&["--workload", "fig-ladder", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "fig-ladder", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "fig-ladder", "--seed"]).is_err());
    }
}
