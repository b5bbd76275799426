//! [`RunOptions`]: the one parse step behind every `elc` subcommand, and
//! the one place a [`Scenario`] is assembled from it.
//!
//! Each flag is declared once in [`FLAGS`], with whether it takes a value
//! and which subcommands use it. An unknown flag, a flag the subcommand
//! does not use, or a value flag with no value is refused here, at the
//! boundary, instead of being ignored.

use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

use elc_resil::chaos::ChaosSpec;
use elearn_cloud::core::experiments::{e18, find, Experiment};
use elearn_cloud::core::scenario::{Scenario, DEFAULT_SEED, PRESETS, REPORT_PRESETS};
use elearn_cloud::core::Requirements;
use elearn_cloud::fluid::Fidelity;
use elearn_cloud::trace::TraceFilter;
use elearn_cloud::wltrace::{codec, csvio, MorphSpec, TraceRecorder, WorkloadTrace};

/// Why a subcommand stopped.
#[derive(Debug, PartialEq)]
pub enum Error {
    /// Bad input: reported with the usage text, exit status 2.
    Usage(String),
    /// A failure while running: reported alone, exit status 1.
    Failed(String),
}

impl From<String> for Error {
    fn from(message: String) -> Self {
        Error::Usage(message)
    }
}

/// Every subcommand, with the most positional arguments it takes.
const COMMANDS: [(&str, usize); 7] = [
    ("scenarios", 0),
    ("experiments", 0),
    ("report", 1),
    ("experiment", 2),
    ("run", 2),
    ("tables", 1),
    ("advise", 1),
];

const SEEDED: &[&str] = &["report", "experiment", "run", "tables", "advise"];
const SIMULATED: &[&str] = &["report", "experiment", "run", "tables"];
const FAULTED: &[&str] = &["experiment", "run", "tables"];
const TRACED: &[&str] = &["run", "tables"];

/// Every flag: its name, whether it takes a value, and the subcommands
/// that use it.
const FLAGS: [(&str, bool, &[&str]); 19] = [
    ("seed", true, SEEDED),
    ("chaos", true, FAULTED),
    ("shards", true, SIMULATED),
    ("fidelity", true, SIMULATED),
    ("workload", true, SIMULATED),
    ("morph", true, SIMULATED),
    ("record-trace", true, SIMULATED),
    ("trace", true, TRACED),
    ("trace-filter", true, TRACED),
    ("replications", true, &["run"]),
    ("threads", true, &["run"]),
    ("quiet", false, &["run"]),
    ("profile", true, &["advise"]),
    ("cost", true, &["advise"]),
    ("security", true, &["advise"]),
    ("elasticity", true, &["advise"]),
    ("portability", true, &["advise"]),
    ("time", true, &["advise"]),
    ("ops", true, &["advise"]),
];

/// The largest event-level E18 run `elc` accepts (~30 s of simulation at
/// the measured events/s).
const EVENT_BUDGET: f64 = 2.0e9;

/// A parsed `elc` command line.
pub struct RunOptions {
    /// The experiment named by `experiment` and `run`.
    pub experiment: Option<&'static dyn Experiment>,
    /// The preset scenarios to run: the one named, else `small-college`,
    /// or every report preset for `tables`.
    pub scenarios: Vec<&'static str>,
    /// Root seed of every scenario.
    pub seed: u64,
    chaos: Option<ChaosSpec>,
    shards: Option<u32>,
    fidelity: Option<Fidelity>,
    replay: Option<Arc<WorkloadTrace>>,
    record: Option<PathBuf>,
    /// `--trace PATH` and the `--trace-filter` narrowing what it records.
    pub trace: Option<(PathBuf, TraceFilter)>,
    /// Replications per scenario (1 for every subcommand but `run`).
    pub replications: u32,
    /// Replication worker threads.
    pub threads: usize,
    /// Whether `run` suppresses its progress lines.
    pub quiet: bool,
    /// The advisor's weights: a `--profile` preset, then any overrides.
    pub requirements: Requirements,
}

impl RunOptions {
    /// Parses the arguments after the subcommand `command`.
    ///
    /// # Errors
    ///
    /// Returns the diagnostic for an unknown subcommand, flag, experiment
    /// or scenario, a flag `command` does not use, a missing, empty or
    /// malformed value, or a surplus positional argument.
    pub fn parse(command: &str, args: &[String]) -> Result<RunOptions, String> {
        let &(_, max_positional) = COMMANDS
            .iter()
            .find(|c| c.0 == command)
            .ok_or_else(|| format!("unknown subcommand {command:?}"))?;
        let mut positional = Vec::new();
        let mut flags = Flags(Vec::new());
        let mut tokens = args.iter();
        while let Some(token) = tokens.next() {
            let Some(name) = token.strip_prefix("--") else {
                positional.push(token.as_str());
                continue;
            };
            let &(name, takes_value, users) = FLAGS
                .iter()
                .find(|f| f.0 == name)
                .ok_or_else(|| format!("unknown flag --{name}"))?;
            if !users.contains(&command) {
                return Err(format!("elc {command} does not take --{name}"));
            }
            let value = if takes_value {
                match tokens.next() {
                    Some(v) if !v.is_empty() && !v.starts_with("--") => v.as_str(),
                    _ => return Err(format!("--{name} expects a value")),
                }
            } else {
                ""
            };
            flags.0.push((name, value));
        }
        if let Some(extra) = positional.get(max_positional) {
            return Err(format!("unexpected argument {extra:?}"));
        }

        let needs_id = matches!(command, "experiment" | "run");
        let experiment = match positional.first() {
            _ if !needs_id => None,
            None => return Err(format!("elc {command} needs an experiment id")),
            Some(id) => Some(find(id).ok_or_else(|| {
                format!("unknown experiment {id:?} (e1..e19, t1; see `elc experiments`)")
            })?),
        };
        let scenarios = match positional.get(usize::from(needs_id)) {
            Some(name) => vec![*PRESETS.iter().find(|p| *p == name).ok_or_else(|| {
                format!("unknown scenario {name:?}; known: {}", PRESETS.join(" | "))
            })?],
            None if command == "tables" => REPORT_PRESETS.to_vec(),
            None => vec![PRESETS[0]],
        };

        let (replay, record) = workload(
            flags.get("workload"),
            flags.get("morph"),
            flags.get("record-trace"),
        )?;
        let trace = match (flags.get("trace"), flags.parsed("trace-filter")?) {
            (Some(path), filter) => Some((PathBuf::from(path), filter.unwrap_or_default())),
            (None, Some(_)) => return Err("--trace-filter requires --trace <path>".to_string()),
            (None, None) => None,
        };
        // Every subcommand but `run` makes one run per scenario.
        let default_replications = if command == "run" { 8 } else { 1 };
        let default_threads = std::thread::available_parallelism().map_or(1, usize::from);
        let options = RunOptions {
            experiment,
            scenarios,
            seed: flags.number("seed")?.unwrap_or(DEFAULT_SEED),
            chaos: flags.parsed("chaos")?,
            shards: flags.number("shards")?,
            fidelity: flags.parsed("fidelity")?,
            replay,
            record,
            trace,
            replications: flags
                .number("replications")?
                .unwrap_or(default_replications),
            threads: flags.number("threads")?.unwrap_or(default_threads),
            quiet: flags.get("quiet").is_some(),
            requirements: requirements(&flags)?,
        };
        if options.shards == Some(0) {
            return Err("--shards must be at least 1".to_string());
        }
        if options.replications == 0 || options.threads == 0 {
            return Err("--replications and --threads must be positive".to_string());
        }
        Ok(options)
    }

    /// Builds preset `name` under these options — chaos, shards, replayed
    /// workload, fidelity — and checks that the run can go ahead.
    ///
    /// # Errors
    ///
    /// A usage error when the replay trace does not fit the scenario or
    /// `--record-trace` would capture more than one run; a failure when
    /// E18 at event fidelity would exceed [`EVENT_BUDGET`].
    pub fn scenario(&self, name: &str) -> Result<Scenario, Error> {
        let mut scenario = Scenario::preset(name, self.seed).expect("parse resolved the preset");
        if let Some(chaos) = &self.chaos {
            scenario = scenario.with_chaos(chaos.clone());
        }
        if let Some(shards) = self.shards {
            scenario = scenario.with_shards(shards);
        }
        if let Some(trace) = &self.replay {
            scenario = scenario
                .with_workload_trace(Arc::clone(trace))
                .map_err(|e| format!("--workload: {e}"))?;
        }
        if let Some(fidelity) = self.fidelity {
            scenario = scenario.with_fidelity(fidelity);
        }
        // A trace's stream order follows source creation within one run.
        let runs = self.scenarios.len() * self.replications as usize;
        if self.record.is_some() && (runs != 1 || scenario.shards() != 1) {
            return Err(Error::Usage(
                "--record-trace captures one sequential run: name one scenario and use \
                 --shards 1 (and --replications 1 with `run`)"
                    .to_string(),
            ));
        }
        if self.experiment.is_some_and(|e| e.id() == "e18")
            && scenario.fidelity() == Fidelity::Event
        {
            let estimate = e18::event_count_estimate(&scenario);
            if estimate > EVENT_BUDGET {
                return Err(Error::Failed(format!(
                    "e18 on {name} at event fidelity needs ~{estimate:.1e} events — beyond the \
                     {EVENT_BUDGET:.0e}-event budget; rerun with --fidelity fluid or --fidelity auto"
                )));
            }
        }
        Ok(scenario)
    }

    /// Runs `f` on `scenario`, first attaching a recorder when
    /// `--record-trace` asked for one, and afterwards writes the recorded
    /// trace (`.csv` as interchange CSV, anything else as `ELCW` binary).
    ///
    /// # Errors
    ///
    /// Passes on `f`'s error; fails when nothing was recorded or the
    /// trace cannot be written.
    pub fn recording<T>(
        &self,
        mut scenario: Scenario,
        f: impl FnOnce(Scenario) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let Some(path) = &self.record else {
            return f(scenario);
        };
        let recorder = TraceRecorder::new();
        scenario.attach_recorder(recorder.clone());
        let out = f(scenario)?;
        let failed = |e: &dyn std::fmt::Display| {
            Error::Failed(format!("--record-trace {}: {e}", path.display()))
        };
        let trace = recorder.finish().map_err(|e| failed(&e))?;
        let written = if is_csv(path) {
            csvio::write_file(&trace, path)
        } else {
            codec::write_file(&trace, path)
        };
        written.map_err(|e| failed(&e))?;
        eprintln!(
            "recorded workload trace: {} stream(s), {} students -> {}",
            trace.streams.len(),
            trace.students,
            path.display()
        );
        Ok(out)
    }
}

/// The flags given, with their values (empty for a boolean flag).
struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    fn get(&self, name: &str) -> Option<&'a str> {
        self.0.iter().find(|f| f.0 == name).map(|f| f.1)
    }

    /// `--NAME`'s value as a number, when given.
    fn number<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} expects a number, got {v:?}"))
            })
            .transpose()
    }

    /// `--NAME`'s value in its type's own grammar, when given.
    fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.get(name)
            .map(|v| v.parse().map_err(|e| format!("--{name}: {e}")))
            .transpose()
    }
}

/// The `--workload`/`--morph`/`--record-trace` trio: the loaded (and
/// morphed) trace to replay, and where to record a generator-driven run.
fn workload(
    source: Option<&str>,
    morph: Option<&str>,
    record: Option<&str>,
) -> Result<(Option<Arc<WorkloadTrace>>, Option<PathBuf>), String> {
    let replay = match source {
        None | Some("generated") => None,
        Some(spec) => {
            let path = spec.strip_prefix("trace:").ok_or_else(|| {
                format!("--workload: unknown source {spec:?} (generated, or trace:PATH)")
            })?;
            if path.is_empty() {
                return Err("--workload trace: expects a file path".to_string());
            }
            if record.is_some() {
                return Err("--record-trace cannot be combined with --workload trace: \
                     (recording captures generator-driven runs)"
                    .to_string());
            }
            let path = Path::new(path);
            let loaded = if is_csv(path) {
                csvio::read_file(path)
            } else {
                codec::read_file(path)
            };
            Some(loaded.map_err(|e| format!("--workload trace:{}: {e}", path.display()))?)
        }
    };
    let replay = match (morph, replay) {
        (None, replay) => replay,
        (Some(_), None) => return Err("--morph requires --workload trace:PATH".to_string()),
        (Some(spec), Some(trace)) => {
            let morph = MorphSpec::parse(spec).map_err(|e| format!("--morph: {e}"))?;
            Some(morph.apply(&trace).map_err(|e| format!("--morph: {e}"))?)
        }
    };
    Ok((
        replay.map(WorkloadTrace::into_shared),
        record.map(PathBuf::from),
    ))
}

fn is_csv(path: &Path) -> bool {
    path.extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("csv"))
}

/// The advisor's weights: the `--profile` preset, then each override.
fn requirements(flags: &Flags) -> Result<Requirements, String> {
    let base = match flags.get("profile") {
        None | Some("balanced") => Requirements::balanced_university(),
        Some("startup") => Requirements::startup_program(),
        Some("exam") => Requirements::exam_authority(),
        Some(other) => return Err(format!("unknown profile {other:?}")),
    };
    let weight = |name: &str, preset: f64| flags.number(name).map(|w| w.unwrap_or(preset));
    let reqs = Requirements {
        cost_sensitivity: weight("cost", base.cost_sensitivity)?,
        security_sensitivity: weight("security", base.security_sensitivity)?,
        elasticity_need: weight("elasticity", base.elasticity_need)?,
        portability_concern: weight("portability", base.portability_concern)?,
        time_pressure: weight("time", base.time_pressure)?,
        ops_capacity: weight("ops", base.ops_capacity)?,
    };
    reqs.validate()
        .map_err(|field| format!("invalid requirements: {field} must be in [0, 1]"))?;
    Ok(reqs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn parse(command: &str, args: &[&str]) -> Result<RunOptions, String> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        RunOptions::parse(command, &args)
    }

    fn rejection(command: &str, args: &[&str]) -> String {
        parse(command, args).err().expect("parse refuses")
    }

    #[test]
    fn flags_are_checked_against_the_subcommand() {
        for (command, args, want) in [
            (
                "experiment",
                &["e07", "--sed", "7"][..],
                "unknown flag --sed",
            ),
            (
                "report",
                &["--trace", "t.jsonl"],
                "elc report does not take --trace",
            ),
            (
                "scenarios",
                &["--seed", "7"],
                "elc scenarios does not take --seed",
            ),
            (
                "advise",
                &["--shards", "2"],
                "elc advise does not take --shards",
            ),
            ("run", &["e09", "--threads"], "--threads expects a value"),
            ("run", &["e09", "--trace", ""], "--trace expects a value"),
            (
                "report",
                &["--record-trace", ""],
                "--record-trace expects a value",
            ),
            (
                "run",
                &["e09", "--chaos", "--seed", "1"],
                "--chaos expects a value",
            ),
            (
                "report",
                &["university", "extra"],
                "unexpected argument \"extra\"",
            ),
            ("frobnicate", &[], "unknown subcommand"),
        ] {
            let err = rejection(command, args);
            assert!(err.contains(want), "{command} {args:?}: {err}");
        }
    }

    #[test]
    fn boolean_flags_never_take_the_next_token() {
        let opts = parse("run", &["--quiet", "e09", "--seed", "7"]).unwrap();
        assert!(opts.quiet);
        assert_eq!(opts.experiment.map(|e| e.id()), Some("e09"));
        assert_eq!(opts.seed, 7);
    }

    #[test]
    fn positionals_name_the_experiment_and_the_scenarios() {
        let opts = parse("report", &[]).unwrap();
        assert_eq!(opts.scenarios, ["small-college"]);
        assert_eq!((opts.seed, opts.replications), (DEFAULT_SEED, 1));
        assert_eq!(parse("tables", &[]).unwrap().scenarios, REPORT_PRESETS);
        let opts = parse("run", &["E9", "university"]).unwrap();
        assert_eq!(opts.experiment.map(|e| e.id()), Some("e09"));
        assert_eq!((opts.scenarios[0], opts.replications), ("university", 8));

        assert!(rejection("run", &[]).contains("needs an experiment id"));
        assert!(rejection("run", &["e99"]).starts_with("unknown experiment \"e99\""));
        assert!(rejection("report", &["atlantis"]).starts_with("unknown scenario \"atlantis\""));
    }

    #[test]
    fn values_parse_or_diagnose() {
        let opts = parse(
            "experiment",
            &["e16", "--chaos", "storm@0.3:n=4,mins=6;disaster@0.79"],
        );
        assert_eq!(opts.unwrap().chaos.unwrap().campaigns().len(), 2);
        for (command, args, want) in [
            (
                "experiment",
                &["e16", "--chaos", "meteor@0.5"][..],
                "--chaos:",
            ),
            ("report", &["--shards", "0"], "--shards must be at least 1"),
            (
                "report",
                &["--shards", "many"],
                "--shards expects a number, got \"many\"",
            ),
            ("report", &["--fidelity", "psychic"], "psychic"),
            ("report", &["--seed", "banana"], "--seed expects a number"),
            ("run", &["e09", "--threads", "0"], "must be positive"),
            (
                "run",
                &["e09", "--trace-filter", "info"],
                "requires --trace",
            ),
            (
                "run",
                &["e09", "--trace", "t.jsonl", "--trace-filter", "nope"],
                "--trace-filter:",
            ),
            ("advise", &["--cost", "2.5"], "invalid requirements"),
            ("advise", &["--profile", "hermit"], "unknown profile"),
        ] {
            let err = rejection(command, args);
            assert!(err.contains(want), "{command} {args:?}: {err}");
        }
        let opts = parse(
            "run",
            &["e09", "--trace", "t.jsonl", "--trace-filter", "warn"],
        )
        .unwrap();
        assert_eq!(opts.trace.map(|t| t.0), Some(PathBuf::from("t.jsonl")));
        let opts = parse("advise", &["--profile", "startup", "--security", "0.1"]).unwrap();
        assert_eq!(opts.requirements.security_sensitivity, 0.1);
    }

    #[test]
    fn scenario_applies_every_option_and_keeps_preset_defaults() {
        let opts = parse(
            "experiment",
            &[
                "e16",
                "university",
                "--seed",
                "5",
                "--chaos",
                "off",
                "--shards",
                "4",
            ],
        );
        let s = opts.unwrap().scenario("university").unwrap();
        assert_eq!((s.seed(), s.shards()), (5, 4));
        assert_eq!(s.chaos(), Some(&ChaosSpec::off()));
        let s = parse("report", &["--fidelity", "fluid"]).unwrap();
        assert_eq!(
            s.scenario("small-college").unwrap().fidelity(),
            Fidelity::Fluid
        );
        let national = parse("report", &["national-5m"]).unwrap();
        let s = national.scenario("national-5m").unwrap();
        assert_eq!((s.shards(), s.fidelity()), (4, Fidelity::Auto));
    }

    #[test]
    fn record_trace_needs_exactly_one_sequential_run() {
        let ok = parse("report", &["--record-trace", "x.elcw"]).unwrap();
        assert!(ok.scenario("small-college").is_ok());
        for (command, args, scenario) in [
            ("tables", &[][..], "small-college"),
            ("run", &["e12"], "small-college"),
            ("report", &["--shards", "2"], "small-college"),
            ("report", &["national-5m"], "national-5m"),
        ] {
            let mut args = args.to_vec();
            args.extend(["--record-trace", "x.elcw"]);
            let err = parse(command, &args)
                .unwrap()
                .scenario(scenario)
                .unwrap_err();
            assert!(
                matches!(&err, Error::Usage(m) if m.contains("--record-trace")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn event_budget_refuses_e18_at_national_scale() {
        let e18 = |args: &[&str]| {
            let mut all = vec!["e18", "national-5m"];
            all.extend(args);
            parse("experiment", &all).unwrap().scenario("national-5m")
        };
        assert!(e18(&[]).is_ok(), "the preset's auto fidelity passes");
        assert!(e18(&["--fidelity", "fluid"]).is_ok());
        let err = e18(&["--fidelity", "event"]).unwrap_err();
        assert!(
            matches!(&err, Error::Failed(m) if m.contains("--fidelity fluid")),
            "{err:?}"
        );
        // Other experiments never sample per request at 5M students.
        let e12 = parse("experiment", &["e12", "national-5m", "--fidelity", "event"]);
        assert!(e12.unwrap().scenario("national-5m").is_ok());
        let university = parse("experiment", &["e18", "university"]).unwrap();
        assert!(university.scenario("university").is_ok());
    }

    fn tiny_trace() -> WorkloadTrace {
        let mut trace = WorkloadTrace::empty(4_000, 120.0);
        let mut stream = elearn_cloud::wltrace::Stream::default();
        for i in 0..4u64 {
            stream.rates.push(elearn_cloud::wltrace::RateSample {
                t_ns: i * 60_000_000_000,
                rate_bits: (40.0 + i as f64).to_bits(),
            });
            stream.slots.push(elearn_cloud::wltrace::SlotSample {
                t_ns: i * 60_000_000_000,
                slot_ns: 60_000_000_000,
                count: 10 + i,
            });
        }
        trace.streams.push(stream);
        trace
    }

    #[test]
    fn workload_traces_load_morph_and_apply() {
        let dir = std::env::temp_dir().join(format!("elc-options-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let binary = dir.join("t.elcw");
        codec::write_file(&tiny_trace(), &binary).unwrap();
        let csv = dir.join("t.csv");
        csvio::write_file(&tiny_trace(), &csv).unwrap();

        for path in [&binary, &csv] {
            let spec = format!("trace:{}", path.display());
            let opts = parse("report", &["university", "--workload", &spec]).unwrap();
            let s = opts.scenario("university").unwrap();
            assert_eq!(s.students(), 4_000, "population follows the trace");
            let morphed = parse("report", &["--workload", &spec, "--morph", "scale=2"]).unwrap();
            assert_eq!(
                morphed.replay.unwrap().students,
                8_000,
                "morph ran at load time"
            );
        }
        let generated = parse("report", &["--workload", "generated"]).unwrap();
        assert!(generated.replay.is_none());

        let spec = format!("trace:{}", binary.display());
        for (args, want) in [
            (&["--workload", "psychic"][..], "unknown source"),
            (&["--workload", "trace:"], "expects a file path"),
            (
                &["--workload", "trace:/no/such/file.elcw"],
                "/no/such/file.elcw",
            ),
            (&["--morph", "scale=2"], "requires --workload trace:"),
            (
                &["--record-trace", "out.elcw", "--workload", &spec],
                "cannot be combined",
            ),
        ] {
            let err = rejection("report", args);
            assert!(err.contains(want), "{args:?}: {err}");
        }
        fs::remove_dir_all(&dir).ok();
    }
}
