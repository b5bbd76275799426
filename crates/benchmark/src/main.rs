//! `elc-benchmark`: the end-to-end benchmark (see the crate README).
//!
//! ```sh
//! # one workload, one process; the last stdout line is the result object
//! cargo run --release -p elc-benchmark -- --workload report --seed 42 --seconds 20 --trace 0
//! # every workload, each in its own process: one `result <workload> <json>` line each
//! cargo run --release -p elc-benchmark -- --seed 42
//! # the traced run: per-layer metrics, spans in bench-spans/<workload>.jsonl
//! cargo run --release -p elc-benchmark -- --workload exam_overload --trace 1
//! # do two result sets of the same code agree within BENCHMARK.json's bounds?
//! cargo run --release -p elc-benchmark -- agree a.txt b.txt
//! ```

use std::fs;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::{exit, Command, Stdio};
use std::time::Instant;

use elc_benchmark::json::Json;
use elc_benchmark::span::span_cost_ns;
use elc_benchmark::{agree, result_line, run_workload, Metric, WORKLOADS};

/// Measuring budget when `--seconds` is not given (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str =
    "usage: elc-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
                     \x20      elc-benchmark agree A B";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes an integer, got {value:?}"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds takes a positive number, got {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process and prints its figures, then the
/// result object as the last line.
fn run_one(name: &str, args: &Args, started: Instant) -> Result<i32, String> {
    let outcome = run_workload(name, args.seed, args.seconds, args.trace, started)?;
    let runs = &outcome.runs;
    for e in &runs.errors {
        eprintln!("check failed: {e}");
    }
    let mut lines = outcome.notes.clone();
    lines.push(Metric::new("timed_ops", runs.op_s.len() as f64, "count"));
    lines.extend(
        runs.setup_s
            .iter()
            .enumerate()
            .map(|(k, &s)| Metric::new(format!("setup{}_s", k + 1), s, "s")),
    );
    lines.push(Metric::new(
        "error_rate",
        runs.failed as f64 / runs.attempted.max(1) as f64,
        "fraction",
    ));
    let metrics = if args.trace {
        write_spans(name, &outcome.recorder)?;
        lines.extend(outcome.span_notes());
        for remark in &outcome.remarks {
            println!("# {remark}");
        }
        outcome.per_layer(span_cost_ns())
    } else {
        outcome.end_to_end()?
    };
    for m in lines.iter().chain(&metrics) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(runs.attempted, runs.failed, &metrics));
    Ok(0)
}

fn write_spans(name: &str, rec: &elc_benchmark::span::Recorder) -> Result<(), String> {
    let dir = PathBuf::from("bench-spans");
    let path = dir.join(format!("{name}.jsonl"));
    let fail = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    fs::create_dir_all(&dir).map_err(fail)?;
    let mut out = BufWriter::new(fs::File::create(&path).map_err(fail)?);
    rec.write_jsonl(&mut out).map_err(fail)?;
    out.flush().map_err(fail)?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

/// Runs every workload, each in its own child process (so peak memory
/// is per workload), and prints one `result <workload> <json>` line each.
fn run_all(args: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut code = 0;
    for (workload, _) in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{workload}: {line}");
        }
        let correct = Json::parse(last)
            .ok()
            .and_then(|v| v.get("correct").cloned())
            == Some(Json::Bool(true));
        if out.status.success() {
            println!("result {workload} {last}");
        } else {
            eprintln!("{workload} exited with {}", out.status);
        }
        if !out.status.success() || !correct {
            code = 1;
        }
    }
    Ok(code)
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("agree") => agree::main(&argv[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(0)
        }
        _ => parse(&argv).and_then(|args| match &args.workload {
            Some(name) => run_one(name, &args, started),
            None => run_all(&args),
        }),
    };
    match result {
        Ok(code) => exit(code),
        Err(e) => {
            eprintln!("elc-benchmark: {e}\n{USAGE}");
            exit(2);
        }
    }
}
