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
