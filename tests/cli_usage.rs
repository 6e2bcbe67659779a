//! The `experiments` CLI's rejected set, one command line per rejection rule.
//!
//! Every entry must exit with the usage code 2 and say why on stderr; none may
//! start any work.  The table was written against the hand-rolled checks the CLI
//! had before its flag rules became a table (`dlrv::cli::args`), and passes on
//! both, so it pins that the rewrite rejects exactly what the original did.  A
//! short accepted list guards the other direction for the combinations closest to
//! a rule's edge.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

/// `(what the rule is, the command line that trips it)`.
const REJECTED: &[(&str, &[&str])] = &[
    // Per-flag value validation.
    ("a value flag without its value", &["--jobs"]),
    ("--jobs 0", &["--jobs", "0"]),
    ("--jobs not a number", &["all", "--jobs=many"]),
    (
        "unknown --format",
        &["--target", "sweep", "--format", "yaml"],
    ),
    (
        "empty --scenario name",
        &["--target", "sweep", "--scenario", "paper-A-n2,,paper-B-n2"],
    ),
    ("blank --property", &["--property", "  "]),
    ("empty --properties letter", &["--properties", "A,,B"]),
    ("--procs 0", &["--property", "F P0.p", "--procs", "0"]),
    ("blank --analyze-property", &["--analyze-property", " "]),
    (
        "unknown --deny lint",
        &["--analyze-property", "G P0.p", "--deny", "DLRV-M01"],
    ),
    (
        "unknown --allow lint",
        &["--analyze-property", "G P0.p", "--allow", "DLRV-A08"],
    ),
    (
        "--budget without key=N",
        &["--analyze-property", "G P0.p", "--budget", "alphabet"],
    ),
    (
        "--budget bound of zero",
        &["--analyze-property", "G P0.p", "--budget", "states=0"],
    ),
    (
        "unknown --budget key",
        &["--analyze-property", "G P0.p", "--budget", "edges=3"],
    ),
    (
        "malformed --fault",
        &["--target", "deploy", "--fault", "bogus"],
    ),
    (
        "--fault delay beyond a minute",
        &["--target", "deploy", "--fault", "delay=1e300"],
    ),
    (
        "empty --require-family name",
        &[
            "--validate-results",
            "x.json",
            "--require-family",
            "fleet,,deploy",
        ],
    ),
    (
        "--no-opt with a value",
        &["--target", "sweep", "--no-opt=1"],
    ),
    ("--list-scenarios with a value", &["--list-scenarios=1"]),
    ("unknown flag", &["--frobnicate"]),
    ("unknown target", &["swep"]),
    ("unknown --properties letter", &["--properties", "A,Z"]),
    (
        "unknown --scenario name",
        &["--target", "sweep", "--scenario", "papr-A-n2"],
    ),
    // Mode conflicts: two actions on one command line.
    (
        "--list-scenarios with a target",
        &["--list-scenarios", "sweep"],
    ),
    (
        "--property with --properties",
        &["--property", "F P0.p", "--properties", "A"],
    ),
    (
        "--property with --property-file",
        &["--property", "F P0.p", "--property-file", "x.ltl"],
    ),
    (
        "fleet with --emit-dot",
        &["--properties", "A,B", "--emit-dot", "property"],
    ),
    (
        "two property files with --emit-dot",
        &[
            "--property-file",
            "a.ltl",
            "--property-file",
            "b.ltl",
            "--emit-dot",
            "property",
        ],
    ),
    (
        "--property with a target",
        &["--property", "F P0.p", "sweep"],
    ),
    (
        "--property with --scenario",
        &["--property", "F P0.p", "--scenario", "paper-A-n2"],
    ),
    (
        "--property with --list-scenarios",
        &["--property", "F P0.p", "--list-scenarios"],
    ),
    (
        "--property with --validate-results",
        &["--property", "F P0.p", "--validate-results", "x.json"],
    ),
    (
        "--property with --analyze-property",
        &["--property", "F P0.p", "--analyze-property", "G P0.p"],
    ),
    (
        "--analyze-property with a target",
        &["--analyze-property", "G P0.p", "analyze"],
    ),
    (
        "--analyze-property with --no-opt",
        &["--analyze-property", "G P0.p", "--no-opt"],
    ),
    (
        "--analyze-property with --emit-dot",
        &["--analyze-property", "G P0.p", "--emit-dot", "paper-A-n2"],
    ),
    (
        "--analyze-property with --scenario",
        &["--analyze-property", "G P0.p", "--scenario", "paper-A-n2"],
    ),
    ("report with another target", &["report", "sweep"]),
    ("report twice", &["report", "report"]),
    (
        "--emit-dot with a target",
        &["--emit-dot", "paper-A-n2", "table5_1"],
    ),
    (
        "--emit-dot with --no-opt",
        &["--emit-dot", "paper-A-n2", "--no-opt"],
    ),
    (
        "--emit-dot with --list-scenarios",
        &["--emit-dot", "paper-A-n2", "--list-scenarios"],
    ),
    (
        "--validate-results with a target",
        &["--validate-results", "x.json", "sweep"],
    ),
    (
        "--validate-results with --list-scenarios",
        &["--validate-results", "x.json", "--list-scenarios"],
    ),
    // A flag outside the modes it applies to.
    (
        "--procs on a target run",
        &["--target", "sweep", "--procs", "3"],
    ),
    (
        "--procs with --emit-dot NAME",
        &["--emit-dot", "paper-A-n2", "--procs", "3"],
    ),
    (
        "--deny outside analysis",
        &["--target", "sweep", "--deny", "warn"],
    ),
    (
        "--allow outside analysis",
        &["table5_1", "--allow", "DLRV-M001"],
    ),
    (
        "--results outside report",
        &["--target", "sweep", "--results", "x.json"],
    ),
    (
        "--results on the analyze target",
        &["--target", "analyze", "--results", "x.json"],
    ),
    (
        "--results with --analyze-property",
        &["--analyze-property", "G P0.p", "--results", "x.json"],
    ),
    (
        "--budget outside analysis",
        &["--target", "sweep", "--budget", "states=5"],
    ),
    (
        "--deny on a property run",
        &["--property", "F P0.p", "--deny", "warn"],
    ),
    (
        "report with --format json",
        &["--target", "report", "--format", "json"],
    ),
    ("report with --no-opt", &["--target", "report", "--no-opt"]),
    (
        "report with --scenario",
        &["--target", "report", "--scenario", "paper-A-n2"],
    ),
    (
        "report with --out",
        &["--target", "report", "--out", "x.md"],
    ),
    (
        "report with --fault",
        &["--target", "report", "--fault", "drop=0.1"],
    ),
    (
        "--out-dir outside report",
        &["--target", "sweep", "--out-dir", "x"],
    ),
    (
        "--require-family without --validate-results",
        &["--require-family", "fleet"],
    ),
    (
        "--fault without the deploy target",
        &["--target", "sweep", "--fault", "drop=0.1"],
    ),
    (
        "--emit-dot with --format json",
        &["--emit-dot", "paper-A-n2", "--format", "json"],
    ),
    (
        "--property --emit-dot with --no-opt",
        &["--property", "F P0.p", "--emit-dot", "property", "--no-opt"],
    ),
    (
        "--property --emit-dot with --format json",
        &[
            "--property",
            "F P0.p",
            "--emit-dot",
            "property",
            "--format",
            "json",
        ],
    ),
    (
        "--property with --emit-dot NAME",
        &["--property", "F P0.p", "--emit-dot", "paper-A-n2"],
    ),
    (
        "--emit-dot property without a property",
        &["--emit-dot", "property"],
    ),
    (
        "--validate-results with --format json",
        &["--validate-results", "x.json", "--format", "json"],
    ),
    (
        "--validate-results with --out",
        &["--validate-results", "x.json", "--out", "y.json"],
    ),
    (
        "--validate-results with --no-opt",
        &["--validate-results", "x.json", "--no-opt"],
    ),
    (
        "--validate-results with --scenario",
        &["--validate-results", "x.json", "--scenario", "paper-A-n2"],
    ),
    (
        "--validate-results with --results",
        &["--validate-results", "x.json", "--results", "y.json"],
    ),
    (
        "--out on a text run",
        &["--target", "sweep", "--out", "x.txt"],
    ),
    (
        "--out on a text analysis",
        &["--analyze-property", "G P0.p", "--out", "x.txt"],
    ),
    ("--no-opt on a figure target", &["table5_1", "--no-opt"]),
    (
        "--no-opt on the analyze target",
        &["--target", "analyze", "--no-opt"],
    ),
    (
        "--no-opt with --list-scenarios",
        &["--list-scenarios", "--no-opt"],
    ),
    (
        "--scenario on a figure target",
        &["table5_1", "--scenario", "paper-A-n2"],
    ),
    (
        "--scenario from another target",
        &["--target", "sweep", "--scenario", "throughput-C-s400-sh1"],
    ),
    (
        "--scenario leaving a target empty",
        &[
            "--target",
            "sweep",
            "--target",
            "throughput",
            "--scenario",
            "paper-A-n2",
        ],
    ),
    (
        "--list-scenarios with --format json",
        &["--list-scenarios", "--format", "json"],
    ),
    ("--format json without a target", &["--format", "json"]),
    (
        "--format json on a text-only target",
        &["--format", "json", "table5_1"],
    ),
    (
        "--format json on a mixed target list",
        &["--format", "json", "sweep", "fig5_9"],
    ),
    (
        "--format json mixing analyze with run targets",
        &[
            "--target", "analyze", "--target", "sweep", "--format", "json",
        ],
    ),
    // Rejections that need the property parsed, still before any run.
    ("LTL syntax error", &["--property", "G (P0.p &&"]),
    ("property without atoms", &["--property", "true"]),
    (
        "--procs below the formula's processes",
        &["--property", "F (P0.p && P2.p)", "--procs", "2"],
    ),
    (
        "fleet --procs below its processes",
        &["--properties", "A,B", "--procs", "1"],
    ),
    (
        "--procs above the process bound",
        &["--property", "F P0.p", "--procs", "65"],
    ),
    (
        "procs: header above the process bound",
        &[
            "--property-file",
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/fixtures/procs_over_bound.ltl"
            ),
        ],
    ),
    (
        "formula naming a process above the bound",
        &["--property", "F P64.p"],
    ),
    (
        "--emit-dot of an unknown scenario",
        &["--emit-dot", "papr-A-n2"],
    ),
];

#[test]
fn every_rejection_rule_exits_with_the_usage_code() {
    assert!(REJECTED.len() >= 30);
    for (what, args) in REJECTED {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{what}: `{}`\n{stderr}",
            args.join(" ")
        );
        assert!(
            stderr.starts_with("error: "),
            "{what}: stderr must explain\n{stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{what}: a rejected command line prints nothing to stdout"
        );
    }
}

#[test]
fn a_rejected_results_flag_names_the_report() {
    let with_results = REJECTED
        .iter()
        .filter(|(_, args)| args.contains(&"--results"));
    for (what, args) in with_results {
        let stderr = String::from_utf8_lossy(&experiments(args).stderr).into_owned();
        assert!(
            stderr.contains("it applies to: `--target report`"),
            "{what}\n{stderr}"
        );
    }
}

#[test]
fn combinations_next_to_a_rule_stay_accepted() {
    let accepted: &[&[&str]] = &[
        // `--format text` is the default spelled out, legal everywhere.
        &["--list-scenarios", "--format", "text", "--jobs", "2"],
        &["--emit-dot", "paper-A-n2", "--format=text"],
        &[
            "--property",
            "F (P0.p && P1.p)",
            "--emit-dot",
            "property",
            "--procs",
            "3",
        ],
        &[
            "--analyze-property",
            "G P0.p",
            "--format",
            "json",
            "--budget",
            "states=64",
        ],
        // One `--properties` letter is a fleet of one, with `--no-opt` and `--procs`.
        &["--properties", "B", "--no-opt", "--procs", "2"],
        // Text mode may mix the analyzer with run targets; `--deny` then applies.
        &[
            "--target",
            "analyze",
            "--target",
            "custom",
            "--scenario",
            "custom-reqack-n2",
            "--deny",
            "error",
        ],
        &["fig5_9", "--jobs=1"],
    ];
    for args in accepted {
        let out = experiments(args);
        assert!(
            out.status.success(),
            "`{}` must be accepted: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
