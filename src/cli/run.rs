//! The commands that run something: the paper's tables and figures, the registry
//! targets, user properties and fleets — plus the registry listing and the DOT
//! export, which only look something up.

use super::args::{target_selects, unknown_scenario, REGISTRY_TARGETS};
use super::{
    analyze, emit_json, parse_property, read_property_file, write_output, Cli, CliError, Format,
    Mode,
};
use dlrv_automaton::{dot, MonitorAutomaton};
use dlrv_core::dlrv_ltl::{AtomLayout, AtomRegistry};
use dlrv_core::tables::{
    comm_frequency_columns, family_table, figure_columns, registry_columns, render_text,
    transition_columns, Column, Layout, RunView,
};
use dlrv_core::{
    analyze_to_dot, parallel_map_indexed, sweep_to_json, transition_counts, CompiledProperty,
    ExperimentConfig, ExperimentResult, FleetParams, PaperProperty, PropertySpec, Scenario,
    ScenarioFamily, ScenarioRegistry, StreamParams, Substrate, PROCESS_COUNTS,
};
use dlrv_monitor::MonitorOptions;

type Runs = Vec<(Scenario, ExperimentResult)>;

/// Prints a titled text table.
pub(super) fn print_table<R>(title: &str, columns: &[Column<R>], rows: &[R]) {
    println!("== {title} ==");
    print!("{}", render_text(columns, rows));
}

fn views(runs: &Runs) -> Vec<RunView<'_>> {
    runs.iter()
        .map(|(scenario, result)| RunView::of(scenario, result))
        .collect()
}

/// Figures 5.4–5.8 report different metrics of the *same* runs — the registry's
/// paper family, every property × process count under the paper-default workload —
/// so the family runs once and each figure is a title over a selection of its rows.
const FIGURES: [(&str, &str, &[PaperProperty]); 5] = [
    (
        "fig5_4",
        "Fig 5.4 — messages overhead (properties A, B, C)",
        &[PaperProperty::A, PaperProperty::B, PaperProperty::C],
    ),
    (
        "fig5_5",
        "Fig 5.5 — messages overhead (properties D, E, F)",
        &[PaperProperty::D, PaperProperty::E, PaperProperty::F],
    ),
    (
        "fig5_6",
        "Fig 5.6 — delay-time percentage per global state",
        &PaperProperty::ALL,
    ),
    (
        "fig5_7",
        "Fig 5.7 — delayed (queued) events",
        &PaperProperty::ALL,
    ),
    (
        "fig5_8",
        "Fig 5.8 — memory overhead (total global views)",
        &PaperProperty::ALL,
    ),
];

/// Runs the targets of a [`Mode::Run`] command line, in their fixed order.
pub fn run_targets(cli: &Cli) -> Result<(), CliError> {
    let run_all = cli.targets.is_empty() || cli.names_target("all");
    // `all` reproduces the paper's evaluation chapter; the registry targets (which
    // include non-paper scenarios) and the analyzer run only when asked for by name.
    let wants = |name: &str| {
        (run_all && !REGISTRY_TARGETS.contains(&name) && name != "analyze")
            || cli.names_target(name)
    };
    let registry = ScenarioRegistry::standard();
    let family = |family| run_scenarios(registry.family(family).cloned().collect());

    if wants("table5_1") {
        let rows: Vec<_> = PaperProperty::ALL
            .into_iter()
            .flat_map(|property| PROCESS_COUNTS.map(|n| transition_counts(property, n)))
            .collect();
        print_table(
            "Table 5.1 / Fig 5.1 — number of transitions per automaton",
            &transition_columns(),
            &rows,
        );
        println!();
    }
    if wants("automata_dot") {
        automata_dot();
    }
    if FIGURES.iter().any(|(name, ..)| wants(name)) {
        let sweep = family(ScenarioFamily::Paper);
        for (_, title, properties) in FIGURES.iter().filter(|(name, ..)| wants(name)) {
            println!("== {title} ==");
            if properties.len() < PaperProperty::ALL.len() {
                println!(
                    "(Commµ = 3 s, Commσ = 1 s, Evtµ = 3 s, Evtσ = 1 s, 20 events/process, 3 seeds)"
                );
            }
            let rows: Vec<RunView> = views(&sweep)
                .into_iter()
                .filter(|r| properties.iter().any(|p| r.scenario.config.property == *p))
                .collect();
            println!("{}", render_text(&figure_columns(), &rows));
        }
    }
    if wants("fig5_9") {
        print_table(
            "Fig 5.9 — communication-frequency sweep (4 processes, property C)",
            &comm_frequency_columns(),
            &views(&family(ScenarioFamily::CommFrequency)),
        );
        println!();
    }
    if wants("analyze") {
        analyze::run_analyze_target(cli)?;
    }

    let targets = REGISTRY_TARGETS.into_iter().filter(|t| wants(t));
    if cli.format == Format::Json {
        // One document across every selected target (how `BENCH_results.json` gets
        // five targets in a single file): target order, registry order within each
        // target, each scenario once (`sweep` and `custom` overlap on the custom
        // family).
        let mut scenarios: Vec<Scenario> = Vec::new();
        for scenario in targets.flat_map(|target| selected(&registry, target, cli)) {
            if !scenarios.iter().any(|s| s.name == scenario.name) {
                scenarios.push(scenario);
            }
        }
        if !scenarios.is_empty() {
            let runs = run_scenarios(scenarios);
            emit_json(
                cli,
                &sweep_to_json(&runs),
                &format!("{} scenarios", runs.len()),
            )?;
        }
    } else {
        for target in targets {
            let runs = run_scenarios(selected(&registry, target, cli));
            let (title, family) = match target {
                "throughput" => ("Streaming throughput", ScenarioFamily::Throughput),
                "overhead" => ("§4.3 optimization overhead A/B", ScenarioFamily::Overhead),
                "custom" => ("Custom property scenarios", ScenarioFamily::Custom),
                "deploy" => ("Real-socket deployments", ScenarioFamily::Deploy),
                "fleet" => ("Fleet monitoring", ScenarioFamily::Fleet),
                _ => ("Scenario sweep", ScenarioFamily::Paper),
            };
            print_runs(title, family, &runs);
        }
    }
    Ok(())
}

/// Prints the text table of `family` over `runs`.
fn print_runs(title: &str, family: ScenarioFamily, runs: &Runs) {
    println!("== {title} ({} scenarios) ==", runs.len());
    println!("{}", family_table(family, &views(runs), Layout::Text));
}

/// The scenarios registry target `target` runs: its families' members that pass
/// the `--scenario` filter, with the command line's overrides applied.
fn selected(registry: &ScenarioRegistry, target: &str, cli: &Cli) -> Vec<Scenario> {
    registry
        .iter()
        .filter(|s| target_selects(target, s.family))
        .filter(|s| cli.scenarios.is_empty() || cli.scenarios.contains(&s.name))
        .map(|s| overridden(s.clone(), cli))
        .collect()
}

/// Applies the command line's overrides to a scenario.  The emitted record stays
/// self-describing: its `options` / `deploy` objects carry the overridden values.
fn overridden(mut scenario: Scenario, cli: &Cli) -> Scenario {
    if cli.no_opt {
        // The escape hatch: the §4.3 suite off for every selected scenario.
        scenario.options = MonitorOptions::ALL_OFF;
    }
    if let (Some(fault), Substrate::Deployed(params)) = (cli.fault, &mut scenario.substrate) {
        // `--fault` swaps the shim spec of every selected deploy scenario.
        params.fault = if fault.is_noop() { None } else { Some(fault) };
    }
    scenario
}

/// Runs a scenario list, preserving its order in the output.
///
/// Offline scenarios are independent simulations and fan out across worker
/// threads.  Streamed scenarios are *themselves* multi-threaded (each spins up
/// its shard pool) and deploy scenarios spawn an OS-process fleet per run, so
/// both run sequentially: overlapping two engine runs would distort each other's
/// wall clock.
fn run_scenarios(scenarios: Vec<Scenario>) -> Runs {
    let offline = |s: &Scenario| matches!(s.substrate, Substrate::Simulated);
    let mut results = parallel_map_indexed(scenarios.len(), dlrv_core::effective_jobs(), |i| {
        offline(&scenarios[i]).then(|| scenarios[i].run())
    });
    for (scenario, result) in scenarios.iter().zip(&mut results) {
        if result.is_none() {
            *result = Some(scenario.run());
        }
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("every scenario ran exactly once"));
    scenarios.iter().cloned().zip(results).collect()
}

/// `--list-scenarios`: per-family counts first (registry order), so the registry's
/// shape is visible without scrolling the full listing.
pub fn list_scenarios() -> Result<(), CliError> {
    let registry = ScenarioRegistry::standard();
    println!("== Scenario registry ({} scenarios) ==", registry.len());
    let summary: Vec<String> = ScenarioFamily::ALL
        .into_iter()
        .map(|family| format!("{family}: {}", registry.family(family).count()))
        .collect();
    println!("families: {}", summary.join(", "));
    println!();
    let rows: Vec<&Scenario> = registry.iter().collect();
    print!("{}", render_text(&registry_columns(), &rows));
    Ok(())
}

fn automata_dot() {
    println!("== Fig 5.2 / 5.3 — monitor automata (DOT) ==");
    for (property, n) in [
        (PaperProperty::A, 2),
        (PaperProperty::B, 4),
        (PaperProperty::D, 2),
        (PaperProperty::E, 4),
        (PaperProperty::F, 2),
    ] {
        let (formula, registry) = property.build(n);
        let automaton = MonitorAutomaton::synthesize(&formula, &registry);
        println!("--- {} with {} processes ---", property, n);
        println!(
            "{}",
            dot::to_dot(&automaton, &registry, &format!("{property} ({n} procs)"))
        );
    }
}

/// `--emit-dot NAME` for a registry scenario: synthesizes the scenario's monitor
/// automaton and prints it as Graphviz DOT.
pub fn emit_dot_for_scenario(cli: &Cli) -> Result<(), CliError> {
    let name = cli
        .emit_dot
        .as_deref()
        .expect("mode EmitDot carries a scenario name");
    let registry = ScenarioRegistry::standard();
    let scenario = registry
        .get(name)
        .ok_or_else(|| unknown_scenario(name, &registry))?;
    let dot = analyze_to_dot(&scenario.config.property, scenario.config.n_processes);
    write_output(cli, &dot, "monitor automaton DOT")
}

/// The most processes a user run may have: the registry's largest count is 8.
/// Each process adds a monitor to the run and an entry to every event's vector
/// clock, so cost grows much faster than the count (`F P0.p` on 4096 processes
/// exhausts memory).
const MAX_USER_PROCS: usize = 64;

/// The `--procs` of a user run: the flag, else the files' largest `procs:` header,
/// else the smallest count the properties allow (at least two) — never below that
/// count and never above [`MAX_USER_PROCS`].
fn user_procs(cli: &Cli, header: Option<usize>, min: usize, who: &str) -> Result<usize, CliError> {
    let procs = cli.procs.or(header).unwrap_or(min.max(2));
    if procs < min {
        return Err(CliError::usage(format!(
            "{who} names process P{}, so it needs --procs >= {min}",
            min - 1
        )));
    }
    if procs > MAX_USER_PROCS {
        return Err(CliError::usage(format!(
            "{who} would run on {procs} processes; a run has at most {MAX_USER_PROCS}"
        )));
    }
    Ok(procs)
}

/// A one-off scenario for a user property or fleet, and its one result.
fn run_user_scenario(
    cli: &Cli,
    scenario: Scenario,
    title: &str,
    what: &str,
) -> Result<(), CliError> {
    let scenario = overridden(scenario, cli);
    let runs = vec![(scenario.clone(), scenario.run())];
    match cli.format {
        Format::Json => emit_json(cli, &sweep_to_json(&runs), what),
        Format::Text => {
            print_runs(title, scenario.family, &runs);
            Ok(())
        }
    }
}

/// Runs (or, with `--emit-dot property`, renders) a user-supplied LTL property
/// end-to-end: parse → workload generation → simulation under decentralized
/// monitors → verdicts and metrics, reported exactly like a registry scenario.
pub fn run_user_property(cli: &Cli) -> Result<(), CliError> {
    let (name, file_procs, text) = match (&cli.property, cli.property_files.first()) {
        (Some(text), _) => (None, None, text.clone()),
        (None, Some(path)) => read_property_file(path)?,
        (None, None) => unreachable!("property mode requires a formula"),
    };
    let spec = parse_property(name.as_deref().unwrap_or("custom"), &text)?;
    let who = format!("property `{}`", spec.name());
    let procs = user_procs(cli, file_procs, spec.min_processes(), &who)?;

    // Diagnostics over the compiled registry: silent harness-wiring surprises are
    // worth a warning before any verdict is reported.
    let compiled = CompiledProperty::compile(&spec, procs);
    let registry = &compiled.registry;
    // Atoms outside the `P<i>.<name>` convention default to process 0 — almost
    // always a typo (`P1ack` for `P1.ack`) in a CLI formula.
    for id in registry.ids() {
        let name = registry.name(id);
        if AtomRegistry::owner_from_name(name).is_none() {
            eprintln!(
                "warning: atom `{name}` does not follow the `P<i>.<name>` \
                 convention; it is owned by process P0"
            );
        }
    }
    // Two workload channels exist per process, so a process owning 3+ atoms has
    // perfectly correlated atoms in every generated workload.
    let layout = AtomLayout::from_registry(registry, procs);
    for (process, _, atoms) in layout.aliased_atoms() {
        let names: Vec<&str> = atoms.iter().map(|&a| registry.name(a)).collect();
        eprintln!(
            "warning: atoms {} of process P{process} share one workload channel; \
             the generated workloads will always set them to equal values",
            names.join(", ")
        );
    }

    if cli.mode == Mode::PropertyDot {
        // The analyzer's annotated rendering: same digraph, plus verdict-
        // reachability colors, dashed unreachable states and `(trap)` markers.
        return write_output(
            cli,
            &analyze_to_dot(&compiled.spec, procs),
            "monitor automaton DOT",
        );
    }

    let scenario = Scenario {
        name: format!("property-{procs}p"),
        description: format!(
            "User property `{}` on {procs} processes, paper-default workload",
            spec.ltl_source().unwrap_or(spec.name())
        ),
        family: ScenarioFamily::Custom,
        config: ExperimentConfig::paper_default(spec, procs),
        options: MonitorOptions::default(),
        substrate: Substrate::Simulated,
    };
    run_user_scenario(cli, scenario, "Custom property run", "1 scenario")
}

/// `--properties A,B,C` / repeated `--property-file`: monitor a fleet of
/// properties in one streaming pass.
pub fn run_user_fleet(cli: &Cli) -> Result<(), CliError> {
    let mut specs: Vec<PropertySpec> = cli
        .properties
        .iter()
        .map(|&p| PropertySpec::paper(p))
        .collect();
    let mut file_procs: Option<usize> = None;
    for path in &cli.property_files {
        let (name, procs, text) = read_property_file(path)?;
        specs.push(parse_property(name.as_deref().unwrap_or("custom"), &text)?);
        file_procs = file_procs.max(procs);
    }
    let min_procs = specs
        .iter()
        .map(PropertySpec::min_processes)
        .max()
        .unwrap_or(2)
        .max(2);
    let procs = user_procs(cli, file_procs, min_procs, "the fleet")?;
    // Fleet members share one atom registry (events carry registry-relative
    // state bitmasks), so the combined atom count is bounded like a single
    // spec's — fail with a usage error rather than the library assert.
    let mut shared = AtomRegistry::new();
    for spec in &specs {
        spec.build_in(&mut shared, procs);
    }
    if shared.len() > dlrv_core::MAX_SPEC_ATOMS {
        return Err(CliError::usage(format!(
            "the fleet's properties name {} distinct atoms at {procs} processes; \
             the shared-registry limit is {} (drop members or reduce --procs)",
            shared.len(),
            dlrv_core::MAX_SPEC_ATOMS
        )));
    }
    let lead = specs[0].clone();
    let fleet = FleetParams::new(specs);
    let scenario = Scenario {
        name: format!("fleet-{}-{procs}p", fleet.joined_name()),
        description: format!(
            "User fleet of {} properties ({}) on {procs} processes, one streaming pass",
            fleet.len(),
            fleet.joined_name()
        ),
        family: ScenarioFamily::Fleet,
        config: ExperimentConfig {
            events_per_process: 6,
            seeds: vec![1],
            ..ExperimentConfig::paper_default(lead, procs)
        },
        options: MonitorOptions::default(),
        substrate: Substrate::Fleet(StreamParams::sized(100, 4), fleet),
    };
    run_user_scenario(cli, scenario, "Fleet monitoring", "1 fleet scenario")
}
