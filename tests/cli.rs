//! End-to-end tests of the `elc` command-line interface.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn elc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_elc"))
}

fn elc_run() -> Command {
    let mut command = elc();
    command.arg("run");
    command
}

/// A fresh, empty directory of this test's own.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elc-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Asserts a usage error: exit status 2 and a diagnostic naming `what`.
fn assert_refused(out: &Output, what: &str) {
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(out));
    assert!(
        stderr(out).contains(what),
        "{what:?} not named in: {}",
        stderr(out)
    );
}

#[test]
fn scenarios_lists_all_presets() {
    let out = elc().arg("scenarios").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    for name in [
        "small-college",
        "rural-learners",
        "university",
        "national-platform",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn experiment_prints_a_table() {
    let out = elc()
        .args(["experiment", "e9"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("== E9"));
    assert!(text.contains("| public"));
}

#[test]
fn experiment_accepts_scenario_and_seed() {
    let out = elc()
        .args(["experiment", "e13", "university", "--seed", "7"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("== E13"));
}

#[test]
fn unknown_experiment_fails_with_usage() {
    let out = elc()
        .args(["experiment", "e99"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("unknown experiment"));
}

#[test]
fn unknown_scenario_fails() {
    let out = elc()
        .args(["report", "atlantis-academy"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn no_arguments_prints_usage() {
    let out = elc().output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("usage:"));
}

#[test]
fn advise_with_custom_weights() {
    let out = elc()
        .args([
            "advise",
            "small-college",
            "--profile",
            "startup",
            "--security",
            "0.1",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("recommendation: public"), "{text}");
}

#[test]
fn advise_rejects_out_of_range_weight() {
    let out = elc()
        .args(["advise", "--cost", "2.5"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("invalid requirements"));
}

#[test]
fn experiments_lists_the_registry() {
    let out = elc().arg("experiments").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    for id in ["e01", "e15", "e16", "t1"] {
        assert!(text.contains(id), "missing {id} in:\n{text}");
    }
}

#[test]
fn experiment_e15_is_reachable() {
    // The pre-registry CLI silently lacked e15; the registry closed that.
    let out = elc()
        .args(["experiment", "e15"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("== E15"));
}

#[test]
fn experiment_e16_accepts_a_chaos_campaign() {
    let out = elc()
        .args(["experiment", "e16", "--chaos", "disaster@0.5"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("== E16"), "{text}");
    assert!(text.contains("chaos campaign: disaster@0.5"), "{text}");
    assert!(text.contains("| hybrid"), "{text}");
}

#[test]
fn experiment_e19_accepts_a_region_loss_drill() {
    let out = elc()
        .args([
            "experiment",
            "e19",
            "--chaos",
            "regionloss@0.5:region=0,mins=45",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("== E19"), "{text}");
    assert!(
        text.contains("chaos campaign: regionloss@0.5:region=0,mins=45"),
        "{text}"
    );
    assert!(text.contains("| faas"), "{text}");
}

#[test]
fn elc_rejects_a_malformed_chaos_spec() {
    let out = elc()
        .args(["experiment", "e16", "--chaos", "meteor@0.5"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("--chaos:"), "{err}");
}

/// A clip bound past what a simulated duration holds (~5.1M hours) is a
/// usage error naming `--morph`, not a panic.
#[test]
fn an_out_of_range_morph_is_refused() {
    use elearn_cloud::wltrace::{codec, SlotSample, Stream, WorkloadTrace};

    let dir = scratch_dir("morph");
    let path = dir.join("day.elcw");
    let mut trace = WorkloadTrace::empty(2_000, 50.0);
    trace.streams.push(Stream {
        slots: vec![SlotSample {
            t_ns: 0,
            slot_ns: 60_000_000_000,
            count: 10,
        }],
        ..Stream::default()
    });
    codec::write_file(&trace, &path).expect("trace written");
    let workload = format!("trace:{}", path.display());
    let out = elc()
        .args([
            "experiment",
            "e12",
            "small-college",
            "--workload",
            &workload,
        ])
        .args(["--morph", "clip=0..6000000"])
        .output()
        .expect("binary runs");
    assert_refused(
        &out,
        "--morph: bad morph: hours must be non-negative and at most ~5.1M",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn elc_run_requires_an_experiment() {
    let out = elc_run().output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("usage:"));
}

#[test]
fn elc_run_rejects_unknown_experiment() {
    let out = elc_run().arg("e99").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("unknown experiment"));
}

/// The acceptance property from the issue: the aggregate table is
/// byte-identical when the same run executes on different thread counts.
#[test]
fn elc_run_aggregates_are_thread_count_invariant() {
    let run = |threads: &str| {
        let out = elc_run()
            .args([
                "e09",
                "--replications",
                "6",
                "--seed",
                "42",
                "--quiet",
                "--threads",
                threads,
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).expect("utf8");
        // Everything before the manifest (which carries wall-clock) must
        // be reproducible.
        let aggregate = text
            .split("run manifest:")
            .next()
            .expect("has aggregate part")
            .to_string();
        assert!(aggregate.contains("ci95"), "{aggregate}");
        assert!(aggregate.contains("6 replications"), "{aggregate}");
        aggregate
    };
    let serial = run("1");
    assert_eq!(serial, run("4"));
}

#[test]
fn an_unknown_flag_is_refused_by_name() {
    let out = elc()
        .args(["experiment", "e07", "--sed", "7"])
        .output()
        .expect("binary runs");
    assert_refused(&out, "--sed");
    assert!(out.stdout.is_empty(), "no table for a mistyped seed");
}

#[test]
fn a_flag_the_subcommand_does_not_use_is_refused() {
    let dir = scratch_dir("unused-flag");
    let trace = dir.join("t.jsonl");
    let out = elc()
        .args(["report", "--trace"])
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert_refused(&out, "--trace");
    assert!(!trace.exists(), "a refused run writes nothing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_value_flag_without_its_value_is_refused() {
    let out = elc_run()
        .args(["e09", "--threads"])
        .output()
        .expect("binary runs");
    assert_refused(&out, "--threads");
}

#[test]
fn a_boolean_flag_never_takes_the_next_token() {
    let out = elc_run()
        .args(["--quiet", "e09", "--replications", "2", "--seed", "42"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stderr(&out).is_empty(), "--quiet silences progress");
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("== R:E09"), "{text}");
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let mut child = elc()
        .arg("report")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
}

/// The binary trace path: one JSONL stream per run, byte-identical at
/// any thread count.
#[test]
fn elc_run_traces_are_thread_count_invariant() {
    let dir = scratch_dir("trace");
    let trace = |threads: &str| {
        let path = dir.join(format!("t{threads}.jsonl"));
        let out = elc_run()
            .args(["e09", "--seed", "42", "--replications", "8", "--quiet"])
            .args(["--threads", threads, "--trace"])
            .arg(&path)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        std::fs::read(&path).expect("trace written")
    };
    let serial = trace("1");
    assert!(!serial.is_empty());
    assert!(serial == trace("8"), "traces diverged across thread counts");
    std::fs::remove_dir_all(&dir).ok();
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).expect("golden exists")
}

#[test]
fn tables_prints_the_goldens_and_writes_the_csvs() {
    let dir = scratch_dir("tables");
    let out = elc()
        .args(["tables", "small-college", "--seed", "42"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = String::from_utf8(out.stdout).expect("utf8");
    let report = golden("paper_tables_seed42_small-college.txt");
    for section in [
        &report,
        &golden("paper_tables_e16_seed42_small-college.txt"),
        &golden("paper_tables_e19_seed42_small-college.txt"),
    ] {
        assert!(
            text.contains(section.as_str()),
            "missing from stdout:\n{section}"
        );
    }
    let results = dir.join("results/small-college");
    let written = std::fs::read_to_string(results.join("report.txt")).expect("report written");
    assert_eq!(written, report);
    let csvs = std::fs::read_dir(&results)
        .expect("results dir")
        .filter(|e| {
            e.as_ref()
                .expect("entry")
                .path()
                .extension()
                .is_some_and(|x| x == "csv")
        })
        .count();
    assert_eq!(csvs, 20, "E1–E19 but E18, T1 and T1F");
    std::fs::remove_dir_all(&dir).ok();
}

/// Records `elc experiment e12 small-college --seed 42` as a CSV trace in
/// `dir` and returns its text.
fn recorded_small_college(dir: &Path) -> String {
    let path = dir.join("recorded.csv");
    let out = elc()
        .args(["experiment", "e12", "small-college", "--seed", "42"])
        .arg("--record-trace")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    std::fs::read_to_string(&path).expect("trace recorded")
}

/// Runs `elc <command…> small-college --seed 42` replaying `trace`, with
/// `extra` flags after the workload.
fn replay(dir: &Path, trace: &str, command: &[&str], extra: &[&str]) -> Output {
    let path = dir.join("replayed.csv");
    std::fs::write(&path, trace).expect("trace written");
    elc()
        .args(command)
        .args(["small-college", "--seed", "42", "--workload"])
        .arg(format!("trace:{}", path.display()))
        .args(extra)
        .output()
        .expect("binary runs")
}

#[test]
fn an_e12_fleet_beyond_the_host_pool_is_refused() {
    let dir = scratch_dir("e12-pool");
    let trace = recorded_small_college(&dir);
    for command in [
        &["experiment", "e12"][..],
        &["experiment", "t1"],
        &["report"],
    ] {
        let out = replay(&dir, &trace, command, &["--morph", "scale=1000"]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{command:?}: {err}");
        assert!(
            err.contains("needs an initial fleet of 2080") && err.contains("640-VM host pool"),
            "{command:?}: {err}"
        );
    }
    // The check reads each strategy's own replay stream: stream 3 is the
    // fourth strategy's, ElasticHostFailure's, which sizes its initial
    // fleet from the day's first rate.
    let mutated = edit(&trace, rate_line(&trace, 3, 0), "1e300");
    let out = replay(&dir, &mutated, &["experiment", "e12"], &[]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("needs an initial fleet of 4294967295"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The line of `trace` holding stream `stream`'s rate sample at
/// `offset_ns` past the recording's first instant (E12's exam day, from
/// midnight).
fn rate_line(trace: &str, stream: u32, offset_ns: u64) -> usize {
    let first: u64 = trace
        .lines()
        .find_map(|l| l.strip_prefix("0,"))
        .and_then(|l| l.split(',').next())
        .and_then(|t| t.parse().ok())
        .expect("a first sample");
    let prefix = format!("{stream},{},0,~rate,", first + offset_ns);
    trace
        .lines()
        .position(|l| l.starts_with(&prefix))
        .expect("the stream samples that instant")
}

/// One edit of a recorded trace: a header value or one rate sample.
fn edit(trace: &str, line: usize, value: &str) -> String {
    let mut lines: Vec<String> = trace.lines().map(str::to_owned).collect();
    let target = &mut lines[line];
    *target = match target.split_once('=') {
        Some((key, _)) if target.starts_with('#') => format!("{key}={value}"),
        _ => {
            let (fields, _) = target.rsplit_once(',').expect("a CSV row");
            format!("{fields},{value}")
        }
    };
    lines.join("\n") + "\n"
}

#[test]
fn the_e18_check_reads_every_region_stream_and_passes_overloads() {
    let dir = scratch_dir("e18-streams");
    let trace = recorded_small_college(&dir);
    let auto = ["--fidelity", "auto", "--shards", "4"];
    // Four regions bind streams 0–3; stream 2's window opens (16:00) on
    // a rate no tick can materialize.
    let window = 16 * 3_600 * 1_000_000_000;
    let mutated = edit(&trace, rate_line(&trace, 2, window), "1e300");
    let out = replay(&dir, &mutated, &["experiment", "e18"], &auto);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("event-level tick materializes"), "{err}");
    // A header peak half the recorded 208 req/s sizes the station for
    // 180 req/s: the evening overloads it, it sheds, and the run
    // completes.
    let peak = trace
        .lines()
        .position(|l| l.starts_with("#peak_rate="))
        .expect("header present");
    let understated = edit(&trace, peak, "104");
    for fidelity in ["event", "auto"] {
        let flags = ["--fidelity", fidelity];
        let out = replay(&dir, &understated, &["experiment", "e18"], &flags);
        assert!(out.status.success(), "{fidelity}: {}", stderr(&out));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mutated_traces_are_run_or_refused_never_panicked_on() {
    use elearn_cloud::simcore::SimRng;

    let dir = scratch_dir("mutated");
    let trace = recorded_small_college(&dir);
    let header = |key: &str| {
        trace
            .lines()
            .position(|l| l.starts_with(key))
            .expect("header present")
    };
    let (students, peak) = (header("#students="), header("#peak_rate="));
    let rates: Vec<usize> = (0..trace.lines().count())
        .filter(|&i| trace.lines().nth(i).is_some_and(|l| l.contains(",~rate,")))
        .collect();
    let value_at = |line: usize| -> f64 {
        let l = trace.lines().nth(line).expect("line exists");
        l.rsplit([',', '='])
            .next()
            .and_then(|v| v.parse().ok())
            .expect("a number")
    };

    // The reproductions: morphs past the pool and past a countable
    // station, and single header or sample edits.
    let mut cases: Vec<(String, Vec<&str>)> = vec![
        (trace.clone(), vec!["--morph", "scale=1000"]),
        (trace.clone(), vec!["--morph", "scale=1e300"]),
        (trace.clone(), vec!["--morph", "stretch=1e-6"]),
        (edit(&trace, students, "4294967295"), vec![]),
        (edit(&trace, peak, "1e300"), vec![]),
        (edit(&trace, rates[0], "1e300"), vec![]),
    ];
    // Seeded edits: the students or peak header, or one rate sample,
    // scaled by 10^k.
    let mut rng = SimRng::seed(0x7E57).derive("trace-mutations");
    for _ in 0..10 {
        let (line, max_k) = match rng.range_u64(0, 2) {
            // A u32 header: 2000 × 10^6 still fits.
            0 => (students, 6),
            1 => (peak, 300),
            _ => (
                rates[rng.range_u64(0, rates.len() as u64 - 1) as usize],
                300,
            ),
        };
        let k = rng.range_u64(1, max_k) as i32;
        let scaled = value_at(line) * 10f64.powi(k);
        let value = if line == students {
            format!("{}", scaled as u64)
        } else {
            format!("{scaled:e}")
        };
        cases.push((edit(&trace, line, &value), vec![]));
    }

    let runs: [&[&str]; 6] = [
        &["experiment", "e12"],
        &["experiment", "e16"],
        &["experiment", "e17"],
        &["experiment", "e19"],
        &["experiment", "e18", "--fidelity", "fluid"],
        &["experiment", "e18", "--fidelity", "auto"],
    ];
    for (case, (mutated, extra)) in cases.iter().enumerate() {
        for run in runs {
            let (command, flags) = run.split_at(2);
            let mut all = flags.to_vec();
            all.extend(extra);
            let out = replay(&dir, mutated, command, &all);
            assert!(
                matches!(out.status.code(), Some(0..=2)),
                "case {case} {run:?} {extra:?} exited {:?}: {}",
                out.status.code(),
                stderr(&out)
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
