//! `report`: one operation is one full `paper-tables` pass over the four
//! harness scenarios — every experiment of the report plus the E16, E17
//! and E19 appendices, T1/T1F, the rendered text, the CSV strings, the
//! F1/F2 charts and the three advisor verdicts. Nothing is written to
//! disk.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

use elc_analysis::plot::line_chart;
use elc_analysis::stats::{median, percentile};
use elc_bench::harness_scenarios;
use elc_core::advisor::advise;
use elc_core::experiments::{
    e01, e02, e03, e04, e05, e06, e07, e08, e09, e10, e11, e12, e13, e14, e15, e16, e17, e19,
    SuiteOutputs,
};
use elc_core::requirements::Requirements;
use elc_core::scenario::Scenario;

use crate::span::Recorder;
use crate::{drive, oracle, Metric, Outcome, Plan};

/// The seed `tests/golden/` was captured at.
pub const GOLDEN_SEED: u64 = 42;

/// What one pass rendered for one scenario.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rendered {
    /// The E1–E15 + T1 report.
    pub report: String,
    /// The E16 appendix section.
    pub e16: String,
    /// The E17 appendix section followed by the T1F section.
    pub e17: String,
    /// The E19 appendix section.
    pub e19: String,
    /// CSV strings, F1/F2 charts and advisor verdicts.
    pub rest: Vec<String>,
}

/// One scenario's golden captures (same renders as
/// `tests/golden_paper_tables.rs`).
#[derive(Debug, Clone)]
struct Golden {
    report: String,
    e16: String,
    e17: String,
    e19: String,
}

fn load_goldens(scenarios: &[Scenario]) -> Result<Vec<Golden>, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let read = |kind: &str, s: &Scenario| {
        let path = dir.join(format!(
            "paper_tables{kind}_seed{GOLDEN_SEED}_{}.txt",
            s.name()
        ));
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    scenarios
        .iter()
        .map(|s| {
            Ok(Golden {
                report: read("", s)?,
                e16: read("_e16", s)?,
                e17: read("_e17", s)?,
                e19: read("_e19", s)?,
            })
        })
        .collect()
}

/// Renders one scenario the way `paper-tables` does, with a span around
/// every layer call.
#[must_use]
pub fn render(rec: &mut Recorder, s: &Scenario) -> Rendered {
    let outputs = SuiteOutputs {
        e01: rec.span("core.e01", |_| e01::run(s)),
        e02: rec.span("core.e02", |_| e02::run(s)),
        e03: rec.span("core.e03", |_| e03::run(s)),
        e04: rec.span("core.e04", |_| e04::run(s)),
        e05: rec.span("core.e05", |_| e05::run(s)),
        e06: rec.span("core.e06", |_| e06::run(s)),
        e07: rec.span("core.e07", |_| e07::run(s)),
        e08: rec.span("core.e08", |_| e08::run(s)),
        e09: rec.span("core.e09", |_| e09::run(s)),
        e10: rec.span("core.e10", |_| e10::run(s)),
        e11: rec.span("core.e11", |_| e11::run(s)),
        e12: rec.span("core.e12", |_| e12::run(s)),
        e13: rec.span("core.e13", |_| e13::run(s)),
        e14: rec.span("core.e14", |_| e14::run(s)),
        e15: rec.span("core.e15", |_| e15::run(s)),
    };
    let resilience = rec.span("core.e16", |_| e16::run(s));
    let serverless = rec.span("core.e17", |_| e17::run(s));
    let recovery = rec.span("core.e19", |_| e19::run(s));
    let (metrics, faas) = rec.span("core.t1", |_| {
        let metrics = outputs.metrics();
        let faas = e17::FaasColumn::derive(s, &metrics, &serverless);
        (metrics, faas)
    });
    let (report, sections, mut rendered) = rec.span("analysis.render", |_| {
        let report = outputs.report();
        let sections = [
            resilience.section(),
            serverless.section(),
            recovery.section(),
            faas.section(&metrics),
        ];
        let e1: Vec<Vec<(f64, f64)>> = (0..3)
            .map(|m| {
                outputs
                    .e01
                    .rows
                    .iter()
                    .map(|r| (f64::from(r.students).log10(), r.totals[m].amount()))
                    .collect()
            })
            .collect();
        let e13: Vec<(f64, f64)> = outputs
            .e13
            .sweep
            .iter()
            .map(|a| (f64::from(a.members), a.per_member_tco.amount()))
            .collect();
        let rendered = Rendered {
            report: report.to_string(),
            e16: sections[0].to_string(),
            e17: format!("{}{}", sections[1], sections[3]),
            e19: sections[2].to_string(),
            rest: vec![
                line_chart(
                    &[("public", &e1[0]), ("private", &e1[1]), ("hybrid", &e1[2])],
                    56,
                    12,
                ),
                line_chart(&[("community", &e13)], 56, 10),
            ],
        };
        (report, sections, rendered)
    });
    rec.span("analysis.csv", |_| {
        rendered.rest.extend(
            report
                .sections()
                .iter()
                .chain(&sections)
                .map(|section| section.table().to_csv()),
        );
    });
    rec.span("core.advise", |_| {
        for (label, reqs) in [
            ("startup-program", Requirements::startup_program()),
            ("exam-authority", Requirements::exam_authority()),
            ("balanced-university", Requirements::balanced_university()),
        ] {
            rendered
                .rest
                .push(format!("[advisor/{label}] {}", advise(&reqs, &metrics)));
        }
    });
    rendered
}

/// One operation: every harness scenario, rendered.
#[must_use]
pub fn pass(rec: &mut Recorder, scenarios: &[Scenario]) -> Vec<Rendered> {
    scenarios.iter().map(|s| render(rec, s)).collect()
}

fn digest(pass: &[Rendered]) -> u64 {
    let mut h = DefaultHasher::new();
    pass.hash(&mut h);
    h.finish()
}

/// Every scenario's report and appendix sections must equal the goldens
/// byte for byte.
fn check_goldens(pass: &[Rendered], goldens: &[Golden]) -> Result<(), String> {
    for (i, (r, g)) in pass.iter().zip(goldens).enumerate() {
        oracle::golden(&format!("scenario {i} report"), &r.report, &g.report)?;
        oracle::golden(&format!("scenario {i} E16"), &r.e16, &g.e16)?;
        oracle::golden(&format!("scenario {i} E17+T1F"), &r.e17, &g.e17)?;
        oracle::golden(&format!("scenario {i} E19"), &r.e19, &g.e19)?;
    }
    Ok(())
}

/// What a set-up builds.
struct Inputs {
    /// The harness scenarios at the run's seed.
    scenarios: Vec<Scenario>,
    /// The harness scenarios at [`GOLDEN_SEED`], rendered by the warm-up.
    golden_scenarios: Vec<Scenario>,
    goldens: Vec<Golden>,
}

/// Runs the workload. Set-up builds the scenarios at the run's seed and
/// at [`GOLDEN_SEED`] and loads the goldens, whatever the seed; its
/// warm-up pass renders the golden-seed scenarios. Every pass at
/// [`GOLDEN_SEED`] must equal the goldens; every other pass must hash
/// like the run's first.
///
/// # Errors
///
/// Missing golden files.
pub fn run(seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let mut rec = Recorder::new(plan.trace, 1);
    let mut first = None;
    let runs = drive(
        plan,
        &mut rec,
        || {
            let golden_scenarios = harness_scenarios(GOLDEN_SEED);
            Ok(Inputs {
                scenarios: harness_scenarios(seed),
                goldens: load_goldens(&golden_scenarios)?,
                golden_scenarios,
            })
        },
        |rec, inputs, warm| {
            if warm {
                (GOLDEN_SEED, pass(rec, &inputs.golden_scenarios))
            } else {
                (seed, pass(rec, &inputs.scenarios))
            }
        },
        |_, inputs, (at, out)| {
            if at == GOLDEN_SEED {
                return check_goldens(&out, &inputs.goldens);
            }
            if digest(&out) == *first.get_or_insert_with(|| digest(&out)) {
                Ok(())
            } else {
                Err("pass output differs from the first pass".to_string())
            }
        },
    )?;
    let ms: Vec<f64> = runs.op_s.iter().map(|s| s * 1e3).collect();
    let notes = vec![
        Metric::new("report_passes", ms.len() as f64, "count"),
        Metric::new("report_p50_ms", median(&ms), "ms"),
        Metric::new("report_p90_ms", percentile(&ms, 0.9), "ms"),
    ];
    Ok(Outcome {
        runs,
        notes,
        layer: Vec::new(),
        remarks: Vec::new(),
        recorder: rec,
    })
}
