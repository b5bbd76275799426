//! Golden-output pins for the paper reproduction.
//!
//! `tests/golden/paper_tables_seed42_<scenario>.txt` holds the full report
//! (E1–E15 and T1) rendered at seed 42: the text `elc tables --seed 42`
//! prints for each scenario and writes to `results/<scenario>/report.txt`.
//! The E16, E17 (with its T1F matrix) and E19 appendices have goldens of
//! their own per scenario. A rendered byte that moves fails here. If an
//! intentional table change lands, regenerate the files with:
//!
//! ```sh
//! cargo test --test golden_paper_tables -- --ignored regenerate
//! ```

use std::fs;
use std::path::PathBuf;

use elc_core::experiments::{e16, e17, e19, run_all};
use elc_core::scenario::{report_presets, Scenario};

const SEED: u64 = 42;

fn golden_path(scenario: &Scenario) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("paper_tables_seed{SEED}_{}.txt", scenario.name()))
}

fn render(scenario: &Scenario) -> String {
    run_all(scenario).report().to_string()
}

/// E16 renders outside the pinned report (its chaos campaign is a CLI
/// knob), so its paper-table section gets its own golden per scenario.
fn e16_golden_path(scenario: &Scenario) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!(
            "paper_tables_e16_seed{SEED}_{}.txt",
            scenario.name()
        ))
}

fn render_e16(scenario: &Scenario) -> String {
    e16::run(scenario).section().to_string()
}

/// E17 also stays outside the pinned report: its own golden carries the
/// serverless day table plus the four-column T1F appendix matrix.
fn e17_golden_path(scenario: &Scenario) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!(
            "paper_tables_e17_seed{SEED}_{}.txt",
            scenario.name()
        ))
}

fn render_e17(scenario: &Scenario) -> String {
    let out = e17::run(scenario);
    let base = run_all(scenario).metrics();
    let column = e17::FaasColumn::derive(scenario, &base, &out);
    format!("{}{}", out.section(), column.section(&base))
}

/// E19 runs the region-loss drill, also behind the `--chaos` knob, so
/// its section is pinned per scenario outside the main report too.
fn e19_golden_path(scenario: &Scenario) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!(
            "paper_tables_e19_seed{SEED}_{}.txt",
            scenario.name()
        ))
}

fn render_e19(scenario: &Scenario) -> String {
    e19::run(scenario).section().to_string()
}

#[test]
fn report_is_byte_identical_to_the_golden_capture() {
    for scenario in report_presets(SEED) {
        let path = golden_path(&scenario);
        let expected = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let actual = render(&scenario);
        assert_eq!(
            actual,
            expected,
            "report for scenario {} (seed {SEED}) drifted from {}",
            scenario.name(),
            path.display()
        );
    }
}

#[test]
fn e16_section_is_byte_identical_to_the_golden_capture() {
    for scenario in report_presets(SEED) {
        let path = e16_golden_path(&scenario);
        let expected = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let actual = render_e16(&scenario);
        assert_eq!(
            actual,
            expected,
            "E16 section for scenario {} (seed {SEED}) drifted from {}",
            scenario.name(),
            path.display()
        );
    }
}

#[test]
fn e17_section_is_byte_identical_to_the_golden_capture() {
    for scenario in report_presets(SEED) {
        let path = e17_golden_path(&scenario);
        let expected = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let actual = render_e17(&scenario);
        assert_eq!(
            actual,
            expected,
            "E17 section for scenario {} (seed {SEED}) drifted from {}",
            scenario.name(),
            path.display()
        );
    }
}

#[test]
fn e19_section_is_byte_identical_to_the_golden_capture() {
    for scenario in report_presets(SEED) {
        let path = e19_golden_path(&scenario);
        let expected = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let actual = render_e19(&scenario);
        assert_eq!(
            actual,
            expected,
            "E19 section for scenario {} (seed {SEED}) drifted from {}",
            scenario.name(),
            path.display()
        );
    }
}

/// Rewrites the golden files from the current implementation. Run
/// explicitly (`--ignored regenerate`) after an intentional output change.
#[test]
#[ignore = "regenerates the golden files instead of checking them"]
fn regenerate() {
    for scenario in report_presets(SEED) {
        let path = golden_path(&scenario);
        fs::write(&path, render(&scenario))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        let path = e16_golden_path(&scenario);
        fs::write(&path, render_e16(&scenario))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        let path = e17_golden_path(&scenario);
        fs::write(&path, render_e17(&scenario))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        let path = e19_golden_path(&scenario);
        fs::write(&path, render_e19(&scenario))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
}
