//! Golden-file pins of both table renderers over one input.
//!
//! The dashboard renderer ([`dlrv::render_report`]) and the terminal's text
//! renderer ([`dlrv::tables::render_text`], through `family_table`) are pure functions of the records, over
//! the same column definitions, so their output for a fixed input must never drift
//! without a deliberate decision.  The tests render one hand-built document (one
//! scenario per table shape: offline, overhead A/B pair, throughput, fleet, deploy)
//! — as markdown with a two-point history, as text family by family — and compare
//! byte-for-byte against `tests/fixtures/report_golden.md` / `.txt`.  The text form
//! has every column; the markdown leaves the host-measured ones out.
//!
//! To bless an intentional change: `UPDATE_GOLDEN=1 cargo test --test
//! report_golden`, then review the diff like any other code change.

use dlrv::dlrv_ltl::Verdict;
use dlrv::dlrv_monitor::{MonitorOptions, PropertyOutcome, RunMetrics};
use dlrv::dlrv_net::FaultSpec;
use dlrv::tables::{family_table, Layout, RunView};
use dlrv::{
    render_report, DeployParams, DeployTransport, ExperimentConfig, FleetParams, PaperProperty,
    PropertySpec, Scenario, ScenarioFamily, ScenarioRecord, StreamParams, Substrate, TrendPoint,
};

const GOLDEN_PATH: &str = "tests/fixtures/report_golden.md";
const TEXT_GOLDEN_PATH: &str = "tests/fixtures/report_golden.txt";

/// Compares `rendered` with the golden file at `path`, or blesses it.
fn check_golden(path: &str, rendered: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/fixtures").expect("create fixture dir");
        std::fs::write(path, rendered).expect("write golden");
        return;
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file missing; bless with UPDATE_GOLDEN=1");
    assert_eq!(
        rendered, golden,
        "rendering drifted from {path}; if intentional, bless with UPDATE_GOLDEN=1 and review \
         the diff"
    );
}

/// A fully deterministic record: every metric fixed by hand, including the
/// normally machine-dependent wall clock / throughput / RSS fields.
fn record(
    name: &str,
    family: ScenarioFamily,
    property: PaperProperty,
    msgs: usize,
    verdict: Verdict,
) -> ScenarioRecord {
    let mut avg = RunMetrics {
        n_processes: 3,
        total_events: 60,
        monitor_messages: msgs,
        program_messages: 30,
        total_global_views: 4 * msgs / 3,
        avg_delayed_events: 2.25,
        delay_time_pct_per_gv: 0.125,
        wall_clock_secs: 0.5,
        events_per_sec: 120.0,
        monitor_tokens: 2 * msgs,
        peak_global_views: 9,
        peak_rss_bytes: 24 * 1024 * 1024,
        ..RunMetrics::default()
    };
    avg.detected_final_verdicts.insert(verdict);
    avg.possible_verdicts.insert(verdict);
    ScenarioRecord {
        scenario: Scenario {
            name: name.to_string(),
            description: format!("fixture scenario {name}"),
            family,
            config: ExperimentConfig {
                seeds: vec![1],
                events_per_process: 20,
                ..ExperimentConfig::paper_default(property, 3)
            },
            options: MonitorOptions::default(),
            substrate: match family {
                ScenarioFamily::Throughput | ScenarioFamily::Fleet => {
                    Substrate::Streamed(fixture_stream())
                }
                ScenarioFamily::Deploy => Substrate::Deployed(DeployParams {
                    transport: DeployTransport::Unix,
                    fault: Some(FaultSpec::parse("delay=1,dup=0.2,seed=7").expect("valid spec")),
                }),
                _ => Substrate::Simulated,
            },
        },
        detected_verdicts: avg.detected_final_verdicts,
        per_seed: vec![avg.clone()],
        avg,
    }
}

/// The runtime sizing of every streamed fixture record.
fn fixture_stream() -> StreamParams {
    StreamParams::sized(50, 4)
}

/// A two-member fleet record.
fn fleet_record(msgs: usize) -> ScenarioRecord {
    let mut r = record(
        "fleet-AB-sh4",
        ScenarioFamily::Fleet,
        PaperProperty::A,
        msgs,
        Verdict::False,
    );
    r.scenario.substrate = Substrate::Fleet(
        fixture_stream(),
        FleetParams::new(
            [PaperProperty::A, PaperProperty::B]
                .map(PropertySpec::paper)
                .to_vec(),
        ),
    );
    r.avg.fleet_size = 2;
    r.avg.fleet_per_property = [("A", Verdict::False), ("B", Verdict::True)]
        .map(|(property, verdict)| PropertyOutcome {
            property: property.to_string(),
            verdict,
            ..PropertyOutcome::default()
        })
        .to_vec();
    r.per_seed = vec![r.avg.clone()];
    r
}

/// One fixture document covering all five table shapes.
fn fixture(msg_scale: usize) -> Vec<ScenarioRecord> {
    vec![
        record(
            "paper-C-n3",
            ScenarioFamily::Paper,
            PaperProperty::C,
            100 * msg_scale,
            Verdict::False,
        ),
        record(
            "overhead-C-opts",
            ScenarioFamily::Overhead,
            PaperProperty::C,
            60 * msg_scale,
            Verdict::False,
        ),
        record(
            "overhead-C-noopt",
            ScenarioFamily::Overhead,
            PaperProperty::C,
            240 * msg_scale,
            Verdict::False,
        ),
        record(
            "stream-B-s50",
            ScenarioFamily::Throughput,
            PaperProperty::B,
            30 * msg_scale,
            Verdict::True,
        ),
        fleet_record(80 * msg_scale),
        record(
            "deploy-C-n3",
            ScenarioFamily::Deploy,
            PaperProperty::C,
            100 * msg_scale,
            Verdict::False,
        ),
    ]
}

#[test]
fn report_markdown_matches_the_golden_file() {
    let current = fixture(2);
    let history = vec![
        TrendPoint {
            label: "abc1234".to_string(),
            records: fixture(1),
        },
        TrendPoint {
            label: "current".to_string(),
            records: current.clone(),
        },
    ];
    let rendered = render_report(&current, &history);

    // The SVG charts referenced from the markdown must actually be rendered,
    // one per family present in the two-point history.
    let families = ["paper", "overhead", "throughput", "fleet", "deploy"];
    for family in families {
        let file = format!("svg/trend-{family}.svg");
        assert!(
            rendered.svgs.iter().any(|(f, _)| f == &file),
            "missing chart {file}"
        );
        assert!(
            rendered.markdown.contains(&file),
            "markdown must link {file}"
        );
    }

    check_golden(GOLDEN_PATH, &rendered.markdown);
}

#[test]
fn text_tables_match_the_golden_file() {
    // The same records through the terminal's renderer, one table per family the
    // way `--target <family>` prints them.
    let records = fixture(2);
    let mut rendered = String::new();
    for family in [
        ScenarioFamily::Paper,
        ScenarioFamily::Overhead,
        ScenarioFamily::Throughput,
        ScenarioFamily::Fleet,
        ScenarioFamily::Deploy,
    ] {
        let rows: Vec<RunView> = records
            .iter()
            .filter(|r| r.scenario.family == family)
            .map(|r| r.view())
            .collect();
        rendered.push_str(&format!("== {family} ({} scenarios) ==\n", rows.len()));
        rendered.push_str(&family_table(family, &rows, Layout::Text));
        rendered.push('\n');
    }
    // An A/B pair with one member filtered out ends its row at a note.
    let unpaired = [records[1].view()];
    rendered.push_str(&family_table(
        ScenarioFamily::Overhead,
        &unpaired,
        Layout::Text,
    ));
    check_golden(TEXT_GOLDEN_PATH, &rendered);
}
