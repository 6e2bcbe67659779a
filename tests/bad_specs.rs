//! Fixture tests over the bad-spec corpus in `tests/bad_specs/`.
//!
//! Each `.ltl` file is a regular `--property-file` document plus one extra
//! `# expect: DLRV-…[,DLRV-…]` comment naming the exact set of lint IDs the
//! analyzer must report for it — no more, no less.  CI additionally runs the
//! corpus through `experiments --analyze-property <file> --deny warn` and
//! expects a nonzero exit, which the severity assertion here pins.

use dlrv_core::dlrv_analyze::{Budget, Lint, Severity};
use dlrv_core::{analyze_spec, PropertySpec};
use std::collections::BTreeSet;
use std::path::Path;

/// Minimal reimplementation of the `--property-file` header format, plus the
/// corpus-only `# expect:` line.
struct Fixture {
    name: String,
    procs: Option<usize>,
    formula: String,
    expect: BTreeSet<Lint>,
}

fn parse_fixture(path: &Path) -> Fixture {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut name = None;
    let mut procs = None;
    let mut expect = BTreeSet::new();
    let mut formula_lines: Vec<&str> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(ids) = line.strip_prefix("# expect:") {
            for id in ids.split(',') {
                let id = id.trim();
                let lint = Lint::from_id(id)
                    .unwrap_or_else(|| panic!("{}: unknown lint `{id}`", path.display()));
                expect.insert(lint);
            }
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if formula_lines.is_empty() {
            if let Some(value) = line.strip_prefix("name:") {
                name = Some(value.trim().to_string());
                continue;
            }
            if let Some(value) = line.strip_prefix("procs:") {
                procs = Some(value.trim().parse().expect("procs: header"));
                continue;
            }
        }
        formula_lines.push(line);
    }
    assert!(!formula_lines.is_empty(), "{}: no formula", path.display());
    assert!(
        !expect.is_empty(),
        "{}: no `# expect:` line",
        path.display()
    );
    Fixture {
        name: name.unwrap_or_else(|| "fixture".to_string()),
        procs,
        formula: formula_lines.join(" "),
        expect,
    }
}

fn corpus() -> Vec<std::path::PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/bad_specs");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/bad_specs exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "ltl"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_nonempty() {
    assert!(corpus().len() >= 8, "bad-spec corpus lost files");
}

#[test]
fn every_bad_spec_reports_exactly_the_expected_lints() {
    for path in corpus() {
        let fixture = parse_fixture(&path);
        let spec = PropertySpec::parse_named(&fixture.name, &fixture.formula)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let procs = fixture.procs.unwrap_or_else(|| spec.min_processes().max(2));
        let analysis = analyze_spec(&spec, procs, Budget::default());
        let got: BTreeSet<Lint> = analysis.findings.iter().map(|f| f.lint).collect();
        assert_eq!(
            got,
            fixture.expect,
            "{}: expected lints {:?}, analyzer reported {:?}",
            path.display(),
            fixture.expect.iter().map(|l| l.id()).collect::<Vec<_>>(),
            got.iter().map(|l| l.id()).collect::<Vec<_>>(),
        );
    }
}

#[test]
fn every_bad_spec_trips_a_deny_warn_gate() {
    // CI runs `--analyze-property <file> --deny warn` over the corpus and expects
    // failure, so every fixture must carry at least one warn-or-worse finding.
    for path in corpus() {
        let fixture = parse_fixture(&path);
        let spec = PropertySpec::parse_named(&fixture.name, &fixture.formula)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let procs = fixture.procs.unwrap_or_else(|| spec.min_processes().max(2));
        let analysis = analyze_spec(&spec, procs, Budget::default());
        assert!(
            analysis.max_severity().is_some_and(|s| s >= Severity::Warn),
            "{}: max severity below warn, the CI corpus gate would pass it",
            path.display()
        );
    }
}
