//! `elc` — the command-line front end of the elearn-cloud evaluation
//! suite. Run it with no arguments for [`USAGE`].
//!
//! Every subcommand parses its flags through [`RunOptions`], builds its
//! scenarios with [`RunOptions::scenario`] and writes to stdout through
//! [`say`], which stops quietly once the reader has gone (`elc report |
//! head`).

mod options;

use std::fmt::Display;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

use elearn_cloud::analysis::plot::line_chart;
use elearn_cloud::analysis::table::Table;
use elearn_cloud::core::experiments::{e16, e17, e19, registry, run_all};
use elearn_cloud::core::scenario::{Scenario, DEFAULT_SEED, PRESETS};
use elearn_cloud::core::{advise, Requirements};
use elearn_cloud::runner::progress::{Silent, Stderr};
use elearn_cloud::runner::{Progress, RunOutcome, RunSpec};
use elearn_cloud::trace::export::{merge_summaries, total_dropped, write_jsonl};
use elearn_cloud::trace::{with_tracer, TraceFilter, Tracer};
use options::{Error, RunOptions};

const USAGE: &str = "\
usage:
  elc scenarios                      list the scenario presets
  elc experiments                    list the experiment ids (e1..e19, t1)
  elc report [SCENARIO]              run the suite once, print its report
  elc experiment <ID> [SCENARIO]     run one experiment once, print its table
  elc run <ID> [SCENARIO]            replicate one experiment over derived seeds
      [--replications N] [--threads T] [--quiet]
                                     aggregates are byte-identical at any --threads
  elc tables [SCENARIO]              the paper's tables, E16/E17/E19 appendices and
                                     figures for one scenario or all four; writes
                                     CSVs under results/<scenario>/
  elc advise [SCENARIO] [--profile startup|exam|balanced]
      [--cost W --security W --elasticity W --portability W --time W --ops W]
                                     advisor with a preset profile or custom weights in [0,1]
flags of the simulating subcommands (report, experiment, run, tables; advise takes --seed):
  --seed N                    root seed (default 2013)
  --chaos SPEC                experiment, run, tables: fault campaign for e16/e17/e19,
                              e.g. storm@0.3:n=4,mins=6;cascade@0.55:n=3;disaster@0.79, or off
  --shards N                  shard-parallel execution; output is byte-identical at any
                              shard count, except E18, which simulates one region per shard
  --fidelity event|fluid|auto exact per-request events, fluid flow integration, or
                              automatic switching (default: event)
  --workload trace:PATH       replay a recorded workload trace (.csv parses as CSV)
  --morph SPEC                reshape the replayed trace, e.g. stretch=2,scale=0.5,clip=48..96
  --record-trace PATH         record one run's workload (one scenario, --shards 1,
                              and --replications 1 with run)
  --trace PATH.jsonl          run, tables: write a sim-time trace
  --trace-filter SPEC         LEVEL or LEVEL,target=LEVEL,... (e.g. warn,cloud=trace,net=off)
scenarios: small-college (default) | rural-learners | university | national-platform |
  national-5m (5M students; E18 there needs --fidelity fluid or auto)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        None => Err(Error::Usage(String::new())),
        Some((command, rest)) => RunOptions::parse(command, rest)
            .map_err(Error::Usage)
            .and_then(|opts| dispatch(command, &opts)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Error::Usage(message)) => {
            if !message.is_empty() {
                eprintln!("{message}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(Error::Failed(message)) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(command: &str, opts: &RunOptions) -> Result<(), Error> {
    match command {
        "scenarios" => say(scenario_list()),
        "experiments" => say(registry()
            .iter()
            .map(|e| format!("{:<4} {}", e.id(), e.name()))
            .collect::<Vec<_>>()
            .join("\n")),
        "report" => opts.recording(opts.scenario(opts.scenarios[0])?, |scenario| {
            say(run_all(&scenario).report())
        }),
        "experiment" => {
            let experiment = opts.experiment.expect("parse names an experiment");
            opts.recording(opts.scenario(opts.scenarios[0])?, |scenario| {
                say(experiment.run(&scenario).section)
            })
        }
        "run" => opts.recording(opts.scenario(opts.scenarios[0])?, |scenario| {
            replicate(opts, scenario)
        }),
        "tables" => tables(opts),
        "advise" => {
            let scenario = opts.scenario(opts.scenarios[0])?;
            eprintln!("running the experiment suite for {} …", scenario.name());
            say(advise(&opts.requirements, &run_all(&scenario).metrics()))
        }
        _ => unreachable!("parse accepts only known subcommands"),
    }
}

/// Writes `text` and a newline to stdout. A closed pipe is not an error:
/// output stops quietly while the subcommand finishes its files.
fn say(text: impl Display) -> Result<(), Error> {
    match writeln!(io::stdout().lock(), "{text}") {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            Err(Error::Failed(format!("cannot write to stdout: {e}")))
        }
        _ => Ok(()),
    }
}

fn scenario_list() -> String {
    PRESETS
        .iter()
        .map(|name| {
            let s = Scenario::preset(name, DEFAULT_SEED).expect("preset exists");
            format!(
                "{name:<18} {:>7} students, link {}, availability {:.3}%",
                s.students(),
                s.link(),
                s.outages().availability() * 100.0
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// `elc run`: fans the experiment out over derived seeds and prints the
/// aggregates, the manifest and, with `--trace`, the trace's summary.
fn replicate(opts: &RunOptions, scenario: Scenario) -> Result<(), Error> {
    let experiment = opts.experiment.expect("parse names an experiment");
    let mut spec = RunSpec::new(experiment, scenario, opts.replications).threads(opts.threads);
    if let Some((_, filter)) = &opts.trace {
        spec = spec.trace(filter.clone());
    }
    let progress: &mut dyn Progress = if opts.quiet { &mut Silent } else { &mut Stderr };
    let outcome = elearn_cloud::runner::run(&spec, progress);
    say(outcome.report())?;
    if let Some((path, _)) = &opts.trace {
        let (table, note) = export_trace(&outcome, path)
            .map_err(|e| Error::Failed(format!("cannot write trace {}: {e}", path.display())))?;
        say(format!("{table}\n{note}"))?;
    }
    Ok(())
}

/// Writes the replication-labelled JSONL trace and returns the
/// per-target summary table plus a one-line accounting note.
fn export_trace(outcome: &RunOutcome, path: &Path) -> io::Result<(Table, String)> {
    let mut out = io::BufWriter::new(fs::File::create(path)?);
    for (index, tracer) in outcome.traces.iter().enumerate() {
        write_jsonl(&mut out, tracer, &[("rep", &index.to_string())])?;
    }
    out.flush()?;

    let mut table = Table::new([
        "target", "events", "spans", "error", "warn", "info", "debug", "trace",
    ]);
    let mut total = 0u64;
    for s in merge_summaries(outcome.traces.iter()) {
        total += s.events;
        let mut row = vec![
            s.target.to_string(),
            s.events.to_string(),
            s.spans.to_string(),
        ];
        row.extend(s.by_level.iter().map(ToString::to_string));
        table.row(row);
    }
    let note = format!(
        "trace: {total} events across {} replications written to {} ({} dropped by ring capacity)",
        outcome.traces.len(),
        path.display(),
        total_dropped(outcome.traces.iter()),
    );
    Ok((table, note))
}

/// `elc tables`: every table of the reproduction (E1–E15, T1, and the
/// E16 resilience, E17 serverless and E19 disaster-recovery appendices
/// with the T1F matrix) plus figures and advisor verdicts, per scenario,
/// with one CSV per section under `results/<scenario>/`.
fn tables(opts: &RunOptions) -> Result<(), Error> {
    let scenarios = opts
        .scenarios
        .iter()
        .map(|name| opts.scenario(name))
        .collect::<Result<Vec<_>, _>>()?;
    let mut trace_out = match &opts.trace {
        None => None,
        Some((path, filter)) => {
            let file = fs::File::create(path).map_err(|e| {
                Error::Failed(format!("cannot create trace {}: {e}", path.display()))
            })?;
            Some((io::BufWriter::new(file), filter.clone()))
        }
    };
    for scenario in scenarios {
        opts.recording(scenario, |s| {
            scenario_tables(&s, opts.seed, trace_out.as_mut())
        })?;
    }
    if let (Some((path, _)), Some((mut out, _))) = (&opts.trace, trace_out) {
        match out.flush() {
            Err(e) => eprintln!("warning: cannot flush trace {}: {e}", path.display()),
            Ok(()) => say(format!("trace written to {}", path.display()))?,
        }
    }
    Ok(())
}

/// Runs, prints and writes one scenario's tables, figures and verdicts,
/// appending its trace to `trace` when one is being written.
fn scenario_tables(
    scenario: &Scenario,
    seed: u64,
    trace: Option<&mut (io::BufWriter<fs::File>, TraceFilter)>,
) -> Result<(), Error> {
    // In the order the report prints them: a recorded or traced run
    // captures its sources in creation order.
    let run = || {
        (
            run_all(scenario),
            e16::run(scenario),
            e17::run(scenario),
            e19::run(scenario),
        )
    };
    let (outputs, resilience, serverless, recovery) = match trace {
        None => run(),
        Some((out, filter)) => {
            let (outputs, tracer) = with_tracer(Tracer::new(filter.clone()), run);
            if let Err(e) = write_jsonl(out, &tracer, &[("scenario", scenario.name())]) {
                eprintln!("warning: cannot write trace: {e}");
            }
            outputs
        }
    };
    let rule = "#".repeat(56);
    let (name, students) = (scenario.name(), scenario.students());
    say(&rule)?;
    say(format!(
        "## scenario: {name} — {students} students, seed {seed}"
    ))?;
    say(format!("{rule}\n"))?;

    let report = outputs.report();
    let metrics = outputs.metrics();
    // The appendices render outside the pinned E1–E15/T1 report: their
    // chaos campaign is a knob.
    let faas_column = e17::FaasColumn::derive(scenario, &metrics, &serverless);
    let appendices = [
        ("e16", resilience.section()),
        ("e17", serverless.section()),
        ("e19", recovery.section()),
        ("t1f", faas_column.section(&metrics)),
    ];
    say(format!("{report}\n"))?;
    for (_, section) in &appendices {
        say(format!("{section}\n"))?;
    }

    // Figures for the sweep-shaped experiments.
    let e1_series: Vec<Vec<(f64, f64)>> = (0..3)
        .map(|m| {
            outputs
                .e01
                .rows
                .iter()
                .map(|r| (f64::from(r.students).log10(), r.totals[m].amount()))
                .collect()
        })
        .collect();
    say("Figure F1 — 3-year TCO vs log10(students):")?;
    say(line_chart(
        &[
            ("public", &e1_series[0]),
            ("private", &e1_series[1]),
            ("hybrid", &e1_series[2]),
        ],
        56,
        12,
    ))?;
    let e13_series: Vec<(f64, f64)> = outputs
        .e13
        .sweep
        .iter()
        .map(|a| (f64::from(a.members), a.per_member_tco.amount()))
        .collect();
    say("Figure F2 — per-member TCO vs consortium size:")?;
    say(line_chart(&[("community", &e13_series)], 56, 10))?;

    // Advisor verdicts for the paper's three customer archetypes.
    for (label, reqs) in [
        ("startup-program", Requirements::startup_program()),
        ("exam-authority", Requirements::exam_authority()),
        ("balanced-university", Requirements::balanced_university()),
    ] {
        say(format!("[advisor/{label}] {}", advise(&reqs, &metrics)))?;
    }

    let dir = Path::new("results").join(name);
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return Ok(());
    }
    let sections = report.sections().iter().map(|s| (s.id().to_lowercase(), s));
    let appendices = appendices.iter().map(|(id, s)| ((*id).to_string(), s));
    let csvs = sections
        .chain(appendices)
        .map(|(id, s)| (format!("{id}.csv"), s.table().to_csv()));
    for (file, body) in csvs.chain([("report.txt".to_string(), report.to_string())]) {
        let path = dir.join(file);
        if let Err(e) = fs::write(&path, body) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    say(format!("csv written to {}\n", dir.display()))
}
