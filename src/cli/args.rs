//! Command-line parsing: `parse_cli` turns the arguments into a [`Cli`] or a usage
//! error, touching nothing outside its return value.
//!
//! Each flag validates its own value while it is read.  Which flags go together is
//! not checked flag by flag: the command line's [`Mode`] is decided once, and the
//! `FLAGS` table says which modes (and, for run targets, which targets) each flag
//! is legal in; one loop applies it.

use super::CliError;
use dlrv_core::dlrv_analyze::{Budget, Lint, Severity};
use dlrv_core::dlrv_net::FaultSpec;
use dlrv_core::{PaperProperty, ScenarioFamily, ScenarioRegistry};
use std::path::PathBuf;

pub(super) const USAGE: &str = "usage: experiments [TARGET...] [--target NAME] [--jobs N] \
     [--format text|json] [--out PATH] [--scenario NAME[,NAME...]] [--no-opt] \
     [--fault drop=p,delay=ms,dup=p,reorder=p[,seed=n]] \
     [--property LTL | --property-file PATH... | --properties A,B,...] \
     [--procs N] [--emit-dot NAME] \
     [--analyze-property LTL|PATH] [--deny warn|error|LINT-ID[,...]] \
     [--allow LINT-ID[,...]] \
     [--budget alphabet=N,states=N,transitions=N] [--list-scenarios] \
     [--validate-results PATH [--require-family NAME[,...]]] \
     [--target report [--results PATH] [--out-dir DIR]]";

/// Everything a target argument may select.
const KNOWN_TARGETS: [&str; 17] = [
    "all",
    "table5_1",
    "automata_dot",
    "fig5_4",
    "fig5_5",
    "fig5_6",
    "fig5_7",
    "fig5_8",
    "fig5_9",
    "sweep",
    "throughput",
    "overhead",
    "custom",
    "deploy",
    "fleet",
    "analyze",
    "report",
];

/// The targets backed by the scenario registry (what `--no-opt` can override), in
/// the order they run.
pub(super) const REGISTRY_TARGETS: [&str; 6] = [
    "sweep",
    "throughput",
    "overhead",
    "custom",
    "deploy",
    "fleet",
];

/// The targets that work scenario by scenario — the registry targets and the
/// analyzer: what `--scenario` can filter and `--format json` can serialize.
const SCENARIO_TARGETS: [&str; 7] = [
    "sweep",
    "throughput",
    "overhead",
    "custom",
    "deploy",
    "fleet",
    "analyze",
];

/// The registry target that owns `family`; `sweep` owns every offline in-process
/// family and additionally runs the custom one.
fn home_target(family: ScenarioFamily) -> &'static str {
    match family {
        ScenarioFamily::Throughput => "throughput",
        ScenarioFamily::Overhead => "overhead",
        ScenarioFamily::Custom => "custom",
        ScenarioFamily::Deploy => "deploy",
        ScenarioFamily::Fleet => "fleet",
        _ => "sweep",
    }
}

/// Whether registry target `target` runs the scenarios of `family`.
pub(super) fn target_selects(target: &str, family: ScenarioFamily) -> bool {
    target == home_target(family) || (target == "sweep" && family == ScenarioFamily::Custom)
}

/// Output format of metric-producing targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Fixed-width tables on stdout.
    #[default]
    Text,
    /// The results (or analysis) document.
    Json,
}

/// What a command line does.  Exactly one applies, decided by [`parse_cli`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// `--list-scenarios`.
    List,
    /// `--validate-results PATH`.
    Validate,
    /// `--property` / one `--property-file`: run one user property.
    Property,
    /// `--properties` / several property sources: run them as one fleet.
    Fleet,
    /// One user property with `--emit-dot property`.
    PropertyDot,
    /// `--analyze-property VALUE`.
    AnalyzeProperty,
    /// `--emit-dot NAME` for a registry scenario.
    EmitDot,
    /// `--target report`.
    Report,
    /// Everything else: the targets (none means `all`).
    #[default]
    Run,
}

impl Mode {
    fn describe(self) -> &'static str {
        match self {
            Mode::List => "--list-scenarios",
            Mode::Validate => "--validate-results",
            Mode::Property => "a --property / --property-file run",
            Mode::Fleet => "a --properties / multi-file fleet run",
            Mode::PropertyDot => "--property with --emit-dot",
            Mode::AnalyzeProperty => "--analyze-property",
            Mode::EmitDot => "--emit-dot of a scenario",
            Mode::Report => "`--target report`",
            Mode::Run => "target runs",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Default)]
pub struct Cli {
    /// What the command line does.
    pub mode: Mode,
    /// `--jobs N`: worker-thread cap, applied by `main`.
    pub jobs: Option<usize>,
    /// Positional targets and `--target NAME`, in order.
    pub targets: Vec<String>,
    /// `--format text|json`.
    pub format: Format,
    /// `--out PATH`: where the JSON document or DOT text goes instead of stdout.
    pub out: Option<PathBuf>,
    /// `--list-scenarios`.
    pub list_scenarios: bool,
    /// Scenario-name filter for registry targets (`--scenario a,b` / repeated flags).
    pub scenarios: Vec<String>,
    /// Results document to re-parse and check (`--validate-results PATH`).
    pub validate: Option<PathBuf>,
    /// `--no-opt`: run every selected registry scenario with the §4.3 optimization
    /// suite switched off (the escape hatch for A/B-ing a whole target).
    pub no_opt: bool,
    /// `--property LTL`: run a user-supplied LTL formula end-to-end.
    pub property: Option<String>,
    /// `--property-file PATH`: like `--property`, reading the formula (plus optional
    /// `name:` / `procs:` headers) from a file.  Repeated flags build a property
    /// fleet: every named file is monitored in one streaming pass.
    pub property_files: Vec<PathBuf>,
    /// `--properties A,B,C`: paper properties to monitor as one fleet (combined
    /// with any `--property-file` members).
    pub properties: Vec<PaperProperty>,
    /// `--procs N`: process count for `--property` runs (default: the smallest count
    /// the formula's atoms allow, at least two).
    pub procs: Option<usize>,
    /// `--emit-dot NAME`: print the synthesized monitor automaton of a registry
    /// scenario (by name) or of the `--property` formula (`NAME` = `property`) as
    /// Graphviz DOT instead of running anything.
    pub emit_dot: Option<String>,
    /// `--analyze-property VALUE`: statically analyze one ad-hoc property (LTL text,
    /// or the path of a `--property-file`-style file) without running anything.
    pub analyze_property: Option<String>,
    /// `--deny warn|error`: findings at or above this severity exit non-zero.
    pub deny_level: Option<Severity>,
    /// `--deny LINT-ID[,...]`: these specific lints exit non-zero when they fire.
    pub deny_lints: Vec<Lint>,
    /// `--allow LINT-ID[,...]`: suppress these lints from analysis reports.
    pub allow_lints: Vec<Lint>,
    /// `--results PATH`: the results document `--target report` renders.
    pub results: Option<PathBuf>,
    /// `--budget alphabet=N,states=N,transitions=N`: construction-size budget
    /// behind `DLRV-A006` (analysis modes only).
    pub budget: Budget,
    /// `--require-family NAME[,...]`: with `--validate-results`, additionally fail
    /// unless the document contains scenarios of each named family that really ran.
    pub require_family: Vec<ScenarioFamily>,
    /// `--fault SPEC`: override the fault-injection spec of every selected deploy
    /// scenario (`drop=p,delay=ms,dup=p,reorder=p[,seed=n]`: probabilities in
    /// `[0, 1]`, the delay at most `dlrv_net::fault::MAX_DELAY_MS`, one minute).
    pub fault: Option<FaultSpec>,
    /// `--out-dir PATH`: output directory of the `report` target (default
    /// `report/`).
    pub out_dir: Option<PathBuf>,
}

impl Cli {
    /// Whether target `name` was asked for by name.
    pub fn names_target(&self, name: &str) -> bool {
        self.targets.iter().any(|t| t == name)
    }
}

/// One row of the flag table: when the flag counts as given, and where it is legal.
struct Flag {
    name: &'static str,
    given: fn(&Cli) -> bool,
    /// The modes the flag is legal in.
    modes: &'static [Mode],
    /// In [`Mode::Run`], the targets one of which must be named for the flag to
    /// apply (empty: any target run).
    run_targets: &'static [&'static str],
}

use Mode::{AnalyzeProperty, EmitDot, Fleet, List, Property, PropertyDot, Report, Run, Validate};

/// Which flags go with which modes.  `--format text` is the default spelled out and
/// `--jobs` only sizes the thread pool, so neither has a row.
#[rustfmt::skip]
const FLAGS: [Flag; 20] = [
    Flag { name: "a target", given: |c| !c.targets.is_empty(), modes: &[Report, Run], run_targets: &[] },
    Flag { name: "--list-scenarios", given: |c| c.list_scenarios, modes: &[List], run_targets: &[] },
    Flag { name: "--validate-results", given: |c| c.validate.is_some(), modes: &[Validate], run_targets: &[] },
    Flag { name: "--property", given: |c| c.property.is_some(), modes: &[Property, PropertyDot], run_targets: &[] },
    Flag { name: "--property-file", given: |c| !c.property_files.is_empty(), modes: &[Property, Fleet, PropertyDot], run_targets: &[] },
    Flag { name: "--properties", given: |c| !c.properties.is_empty(), modes: &[Fleet], run_targets: &[] },
    Flag { name: "--analyze-property", given: |c| c.analyze_property.is_some(), modes: &[AnalyzeProperty], run_targets: &[] },
    Flag { name: "--emit-dot", given: |c| c.emit_dot.is_some(), modes: &[EmitDot, PropertyDot], run_targets: &[] },
    Flag { name: "--format json", given: |c| c.format == Format::Json, modes: &[Property, Fleet, AnalyzeProperty, Run], run_targets: &SCENARIO_TARGETS },
    Flag { name: "--out", given: |c| c.out.is_some(), modes: &[Property, Fleet, PropertyDot, AnalyzeProperty, EmitDot, Run], run_targets: &[] },
    Flag { name: "--out-dir", given: |c| c.out_dir.is_some(), modes: &[Report], run_targets: &[] },
    Flag { name: "--scenario", given: |c| !c.scenarios.is_empty(), modes: &[Run], run_targets: &SCENARIO_TARGETS },
    Flag { name: "--no-opt", given: |c| c.no_opt, modes: &[Property, Fleet, Run], run_targets: &REGISTRY_TARGETS },
    Flag { name: "--procs", given: |c| c.procs.is_some(), modes: &[Property, Fleet, PropertyDot, AnalyzeProperty], run_targets: &[] },
    Flag { name: "--deny", given: |c| c.deny_level.is_some() || !c.deny_lints.is_empty(), modes: &[AnalyzeProperty, Run], run_targets: &["analyze"] },
    Flag { name: "--allow", given: |c| !c.allow_lints.is_empty(), modes: &[AnalyzeProperty, Run], run_targets: &["analyze"] },
    Flag { name: "--budget", given: |c| c.budget != Budget::default(), modes: &[AnalyzeProperty, Run], run_targets: &["analyze"] },
    Flag { name: "--results", given: |c| c.results.is_some(), modes: &[Report], run_targets: &[] },
    Flag { name: "--require-family", given: |c| !c.require_family.is_empty(), modes: &[Validate], run_targets: &[] },
    Flag { name: "--fault", given: |c| c.fault.is_some(), modes: &[Run], run_targets: &["deploy"] },
];

impl Flag {
    fn legal_in(&self, cli: &Cli) -> bool {
        self.modes.contains(&cli.mode)
            && (cli.mode != Run
                || self.run_targets.is_empty()
                || self.run_targets.iter().any(|t| cli.names_target(t)))
    }

    /// Where the flag applies, for the rejection message.
    fn applies_to(&self) -> String {
        let places: Vec<String> = self
            .modes
            .iter()
            .map(|&mode| match mode {
                Run if !self.run_targets.is_empty() => {
                    format!("runs of target {}", self.run_targets.join("|"))
                }
                mode => mode.describe().to_string(),
            })
            .collect();
        places.join(", ")
    }
}

/// A positive integer; anything else is `complaint`.
pub(super) fn positive(text: &str, complaint: &str) -> Result<usize, CliError> {
    text.parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| CliError::usage(complaint))
}

/// A value with something in it; a blank one is `complaint`.
fn non_blank(value: String, complaint: &str) -> Result<String, CliError> {
    if value.trim().is_empty() {
        return Err(CliError::usage(complaint));
    }
    Ok(value)
}

/// Levenshtein edit distance, used to suggest the closest valid name on typos.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// An "unknown name" usage error, with a "did you mean" suggestion when a
/// candidate is within typo distance.
pub(super) fn unknown_name<'a>(
    what: &str,
    name: &str,
    candidates: impl IntoIterator<Item = &'a str>,
    hint: &str,
) -> CliError {
    let suggestion = candidates
        .into_iter()
        .map(|c| (edit_distance(name, c), c))
        .min()
        .filter(|&(d, _)| d <= 2.max(name.chars().count() / 3))
        .map(|(_, c)| format!("; did you mean `{c}`?"))
        .unwrap_or_default();
    CliError::usage(format!("unknown {what} `{name}`{suggestion} ({hint})"))
}

/// An unknown `--scenario` / `--emit-dot` name.
pub(super) fn unknown_scenario(name: &str, registry: &ScenarioRegistry) -> CliError {
    unknown_name(
        "scenario",
        name,
        registry.iter().map(|s| s.name.as_str()),
        "run --list-scenarios for the registry",
    )
}

/// The lint a `--deny` / `--allow` token names; an unknown one suggests the closest
/// catalog ID (and, for `--deny`, the severity names).
fn lint(flag: &str, token: &str) -> Result<Lint, CliError> {
    Lint::from_id(token).ok_or_else(|| {
        let severities: &[&str] = if flag == "--deny" {
            &["warn", "error"]
        } else {
            &[]
        };
        unknown_name(
            "lint",
            token,
            Lint::ALL
                .iter()
                .map(|l| l.id())
                .chain(severities.iter().copied()),
            "see docs/ANALYSIS.md for the lint catalog",
        )
    })
}

/// The comma-separated names of a list-valued flag; an empty one is `complaint`.
fn names(value: String, complaint: &str) -> Result<Vec<String>, CliError> {
    value
        .split(',')
        .map(|name| Some(name.trim().to_string()).filter(|n| !n.is_empty()))
        .collect::<Option<_>>()
        .ok_or_else(|| CliError::usage(complaint))
}

/// Parses the command line and validates every flag combination up front — an
/// unknown `--format` or a stray `--out` is an error, never silently ignored.
pub fn parse_cli(args: Vec<String>) -> Result<Cli, CliError> {
    let mut cli = Cli::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        // `--flag value` and `--flag=value` are both accepted.
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (arg.clone(), None),
        };
        let mut value = || match inline.clone() {
            Some(v) => Ok(v),
            None => iter
                .next()
                .ok_or_else(|| CliError::usage(format!("{flag} expects a value"))),
        };
        match flag.as_str() {
            "--jobs" => cli.jobs = Some(positive(&value()?, "--jobs expects a positive integer")?),
            "--target" => cli.targets.push(value()?),
            "--format" => {
                cli.format = match value()?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => {
                        return Err(CliError::usage(format!(
                            "unknown format `{other}`; expected `text` or `json`"
                        )))
                    }
                };
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--out-dir" => cli.out_dir = Some(PathBuf::from(value()?)),
            "--scenario" => {
                cli.scenarios.extend(names(
                    value()?,
                    "--scenario expects non-empty scenario names",
                )?);
            }
            "--validate-results" => cli.validate = Some(PathBuf::from(value()?)),
            "--property" => {
                cli.property = Some(non_blank(value()?, "--property expects an LTL formula")?);
            }
            "--property-file" => cli.property_files.push(PathBuf::from(value()?)),
            "--properties" => {
                for name in names(
                    value()?,
                    "--properties expects paper property letters (A-F)",
                )? {
                    cli.properties
                        .push(PaperProperty::from_name(&name).ok_or_else(|| {
                            unknown_name(
                                "property",
                                &name,
                                PaperProperty::ALL.map(PaperProperty::name),
                                "expected paper property letters A-F",
                            )
                        })?);
                }
            }
            "--procs" => {
                cli.procs = Some(positive(&value()?, "--procs expects a positive integer")?)
            }
            "--emit-dot" => cli.emit_dot = Some(value()?),
            "--analyze-property" => {
                let complaint = "--analyze-property expects an LTL formula or a file path";
                cli.analyze_property = Some(non_blank(value()?, complaint)?);
            }
            "--deny" => {
                for token in value()?.split(',').map(str::trim) {
                    match Severity::from_name(token) {
                        // The strictest requested level wins (`--deny error,warn`
                        // means warn).
                        Some(level) => {
                            cli.deny_level = Some(cli.deny_level.map_or(level, |l| l.min(level)));
                        }
                        None => cli.deny_lints.push(lint("--deny", token)?),
                    }
                }
            }
            "--allow" => {
                for token in value()?.split(',').map(str::trim) {
                    cli.allow_lints.push(lint("--allow", token)?);
                }
            }
            "--results" => cli.results = Some(PathBuf::from(value()?)),
            "--budget" => {
                for part in value()?.split(',').map(str::trim) {
                    let (key, bound) = part.split_once('=').ok_or_else(|| {
                        CliError::usage(
                            "--budget expects key=N pairs (alphabet, states, transitions)",
                        )
                    })?;
                    let bound =
                        positive(bound.trim(), "--budget bounds must be positive integers")?;
                    match key.trim() {
                        "alphabet" => cli.budget.max_alphabet = bound,
                        "states" => cli.budget.max_states = bound,
                        "transitions" => cli.budget.max_transitions = bound,
                        other => {
                            return Err(CliError::usage(format!(
                                "unknown --budget key `{other}`; expected alphabet, states \
                                 or transitions"
                            )))
                        }
                    }
                }
            }
            "--fault" => {
                cli.fault = Some(
                    FaultSpec::parse(&value()?)
                        .map_err(|e| CliError::usage(format!("invalid --fault spec: {e}")))?,
                );
            }
            "--require-family" => {
                for name in names(value()?, "--require-family expects non-empty family names")? {
                    // A mistyped family is a mistake on the command line, not a
                    // shortcoming of the document.
                    cli.require_family
                        .push(ScenarioFamily::from_name(&name).ok_or_else(|| {
                            let families = ScenarioFamily::ALL.map(ScenarioFamily::name);
                            let hint = format!("expected one of: {}", families.join(", "));
                            unknown_name("family", &name, families, &hint)
                        })?);
                }
            }
            "--no-opt" | "--list-scenarios" if inline.is_some() => {
                return Err(CliError::usage(format!("{flag} takes no value")));
            }
            "--no-opt" => cli.no_opt = true,
            "--list-scenarios" => cli.list_scenarios = true,
            other if other.starts_with("--") => {
                return Err(CliError::usage(format!("unknown flag `{other}`")));
            }
            _ => cli.targets.push(arg),
        }
    }

    if let Some(unknown) = cli
        .targets
        .iter()
        .find(|t| !KNOWN_TARGETS.contains(&t.as_str()))
    {
        return Err(unknown_name(
            "target",
            unknown,
            KNOWN_TARGETS,
            &format!("expected one of: {}", KNOWN_TARGETS.join(", ")),
        ));
    }

    // The mode, decided once.  Two property sources make a fleet, whichever flags
    // they came from.
    let sources = usize::from(cli.property.is_some()) + cli.property_files.len();
    cli.mode = if cli.validate.is_some() {
        Validate
    } else if cli.list_scenarios {
        List
    } else if cli.analyze_property.is_some() {
        AnalyzeProperty
    } else if !cli.properties.is_empty() || sources > 1 {
        Fleet
    } else if sources == 1 {
        if cli.emit_dot.is_some() {
            PropertyDot
        } else {
            Property
        }
    } else if cli.emit_dot.is_some() {
        EmitDot
    } else if cli.names_target("report") {
        Report
    } else {
        Run
    };
    if let Some(flag) = FLAGS.iter().find(|f| (f.given)(&cli) && !f.legal_in(&cli)) {
        return Err(CliError::usage(format!(
            "{} does not apply to {}; it applies to: {}",
            flag.name,
            cli.mode.describe(),
            flag.applies_to()
        )));
    }

    // What the table cannot say: rules about a flag's value or about two flags of
    // one mode.
    if cli.mode == Report && cli.targets.len() > 1 {
        return Err(CliError::usage(
            "`--target report` renders a document; run it by itself",
        ));
    }
    if cli.out.is_some() && cli.format != Format::Json && cli.emit_dot.is_none() {
        return Err(CliError::usage(
            "--out requires --format json or --emit-dot (text output goes to stdout)",
        ));
    }
    match (cli.mode, cli.emit_dot.as_deref()) {
        (PropertyDot, Some(name)) if name != "property" => {
            return Err(CliError::usage(
                "with --property, the automaton source is the formula itself; \
                 use `--emit-dot property`",
            ));
        }
        (EmitDot, Some("property")) => {
            return Err(CliError::usage(
                "`--emit-dot property` requires --property or --property-file",
            ));
        }
        _ => {}
    }
    if cli.mode == Run && cli.format == Format::Json {
        if let Some(text_only) = cli
            .targets
            .iter()
            .find(|t| !SCENARIO_TARGETS.contains(&t.as_str()))
        {
            return Err(CliError::usage(format!(
                "target `{text_only}` only produces text output; `--format json` supports: {}",
                SCENARIO_TARGETS.join(", ")
            )));
        }
        // Run targets may be combined into one results document; the analyze
        // report is a different document and must stand alone.
        if cli.names_target("analyze") && cli.targets.len() > 1 {
            return Err(CliError::usage(
                "the analyze report is its own JSON document; \
                 run `--target analyze` separately from the run targets",
            ));
        }
    }
    check_scenario_filter(&cli)?;
    Ok(cli)
}

/// `--scenario` names must exist, belong to a requested target, and leave no
/// requested target empty — or the run would do hours of work and then fail on the
/// empty one.
fn check_scenario_filter(cli: &Cli) -> Result<(), CliError> {
    if cli.scenarios.is_empty() {
        return Ok(());
    }
    let registry = ScenarioRegistry::standard();
    let accepts = |target: &str, family| target == "analyze" || target_selects(target, family);
    let mut covered: Vec<&str> = Vec::new();
    for name in &cli.scenarios {
        let scenario = registry
            .get(name)
            .ok_or_else(|| unknown_scenario(name, &registry))?;
        let before = covered.len();
        covered.extend(
            SCENARIO_TARGETS
                .into_iter()
                .filter(|t| cli.names_target(t) && accepts(t, scenario.family)),
        );
        if covered.len() == before {
            return Err(CliError::usage(format!(
                "scenario `{name}` belongs to target `{}`, which was not requested",
                home_target(scenario.family)
            )));
        }
    }
    let uncovered = SCENARIO_TARGETS
        .into_iter()
        .find(|t| cli.names_target(t) && !covered.contains(t));
    match uncovered {
        Some(target) => Err(CliError::usage(format!(
            "--scenario selects nothing for target `{target}`; \
             drop the target or name one of its scenarios"
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Result<Cli, CliError> {
        parse_cli(line.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn parsing_is_pure_and_decides_the_mode_once() {
        let cli = parse(&["--target", "sweep", "--jobs", "3", "--format=json"]).unwrap();
        assert_eq!(
            (cli.mode, cli.jobs, cli.format),
            (Run, Some(3), Format::Json)
        );
        assert_eq!(parse(&[]).unwrap().mode, Run);
        assert_eq!(parse(&["--list-scenarios"]).unwrap().mode, List);
        assert_eq!(parse(&["--properties", "B"]).unwrap().mode, Fleet);
        assert_eq!(
            parse(&["--property-file", "a", "--property-file", "b"])
                .unwrap()
                .mode,
            Fleet
        );
        assert_eq!(
            parse(&["--property", "F P0.p", "--emit-dot", "property"])
                .unwrap()
                .mode,
            PropertyDot
        );
        assert_eq!(parse(&["--emit-dot", "paper-A-n2"]).unwrap().mode, EmitDot);
        assert_eq!(
            parse(&["report", "--results", "x.json"]).unwrap().mode,
            Report
        );
    }

    #[test]
    fn a_misplaced_flag_is_rejected_by_the_table_with_one_message_format() {
        let err = parse(&["--target", "sweep", "--fault", "drop=0.1"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(
            err.message.starts_with(
                "error: --fault does not apply to target runs; it applies to: runs of target deploy\n"
            ),
            "{}",
            err.message
        );
        let err = parse(&["--list-scenarios", "--procs", "3"]).unwrap_err();
        assert!(
            err.message
                .contains("--procs does not apply to --list-scenarios;"),
            "{}",
            err.message
        );
    }

    /// The `experiments` command lines of a shell-ish text: everything after
    /// `--bin experiments --` up to a comment, redirection or `;`, continuation
    /// lines joined, quotes removed (every other piece between quotes is quoted).
    fn command_lines(text: &str) -> Vec<Vec<String>> {
        let command = |rest: &str| {
            let mut words = Vec::new();
            for (i, piece) in rest.split(['\'', '"']).enumerate() {
                if i % 2 == 1 {
                    words.push(piece.to_string());
                    continue;
                }
                for word in piece.split_whitespace() {
                    if word.starts_with(['#', '>', ';', '|']) {
                        return words;
                    }
                    words.push(word.trim_end_matches(';').to_string());
                    if word.ends_with(';') {
                        return words;
                    }
                }
            }
            words
        };
        let joined = text.replace("\\\n", " ");
        joined
            .lines()
            .filter_map(|line| line.split_once("--bin experiments -- "))
            .map(|(_, rest)| command(rest))
            .collect()
    }

    #[test]
    fn every_documented_command_line_parses() {
        let sources = [
            ("ci.yml", include_str!("../../.github/workflows/ci.yml"), 12),
            ("README.md", include_str!("../../README.md"), 20),
            ("module doc", include_str!("mod.rs"), 20),
        ];
        for (name, text, at_least) in sources {
            let lines = command_lines(text);
            assert!(
                lines.len() >= at_least,
                "{name}: only {} command lines found",
                lines.len()
            );
            for line in lines {
                if let Err(e) = parse_cli(line.clone()) {
                    panic!("{name}: `{}` is rejected:\n{}", line.join(" "), e.message);
                }
            }
        }
    }
}
