//! The BENCH report dashboard: renders a benchmark results document (plus its
//! git history) into a markdown report with per-family tables, §4.3 overhead
//! A/B deltas and hand-rolled SVG trend charts.  The tables are the ones the
//! terminal prints ([`crate::tables`]) without their host-measured columns.
//!
//! Rendering is a pure function of the parsed records — no filesystem, no git,
//! no clock — so the markdown is byte-deterministic for a given input (pinned
//! by the `report_golden` integration test).  The `experiments --target
//! report` CLI collects the inputs (reads `BENCH_results.json`, walks its git
//! history with `git show`) and writes the rendered files to `--out-dir`;
//! everything it writes comes out of [`render_report`].
//!
//! Trend charts plot one line per scenario per family across the history
//! points (oldest → newest, the working-tree document last).  Monitor messages
//! are the plotted quantity: they are a deterministic function of the workload
//! and the algorithm, so a moving line means the *algorithm* changed — unlike
//! wall-clock quantities, which measure the machine the sweep happened to run
//! on.

use crate::results::ScenarioRecord;
use crate::scenario::ScenarioFamily;
use crate::tables::{family_table, Layout, RunView};
use dlrv_monitor::RunMetrics;
use std::fmt::Write as _;

/// One historical snapshot of the benchmark document, oldest first; the last
/// point is conventionally the working-tree (`current`) document.
#[derive(Debug, Clone)]
pub struct TrendPoint {
    /// Axis label: an abbreviated commit hash, or `current`.
    pub label: String,
    /// The snapshot's parsed records.
    pub records: Vec<ScenarioRecord>,
}

/// Everything `--target report` writes: the markdown plus the SVG charts it
/// references (file name → body, relative to the markdown's directory).
#[derive(Debug, Clone)]
pub struct RenderedReport {
    /// The dashboard markdown (`REPORT.md`).
    pub markdown: String,
    /// `(relative file name, svg body)` pairs referenced from the markdown.
    pub svgs: Vec<(String, String)>,
}

/// Display order of the family sections (registry families, offline first).
const FAMILY_ORDER: [ScenarioFamily; 8] = [
    ScenarioFamily::Paper,
    ScenarioFamily::CommFrequency,
    ScenarioFamily::Extended,
    ScenarioFamily::Custom,
    ScenarioFamily::Overhead,
    ScenarioFamily::Throughput,
    ScenarioFamily::Fleet,
    ScenarioFamily::Deploy,
];

/// One family's members, in document order.
fn family_members(records: &[ScenarioRecord], family: ScenarioFamily) -> Vec<&ScenarioRecord> {
    records
        .iter()
        .filter(|r| r.scenario.family == family)
        .collect()
}

/// Fixed line-color palette (cycled when a family has more scenarios).
const PALETTE: [&str; 8] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
];

/// Hand-rolled SVG line chart: one polyline per series over the shared x
/// labels; missing points (scenario absent from a snapshot) break the line.
fn trend_svg(title: &str, labels: &[String], series: &[(String, Vec<Option<f64>>)]) -> String {
    const W: f64 = 720.0;
    const H: f64 = 360.0;
    const ML: f64 = 60.0; // left margin (y labels)
    const MR: f64 = 180.0; // right margin (legend)
    const MT: f64 = 40.0;
    const MB: f64 = 50.0;
    let plot_w = W - ML - MR;
    let plot_h = H - MT - MB;
    let y_max = series
        .iter()
        .flat_map(|(_, ys)| ys.iter().flatten())
        .fold(0.0f64, |a, &b| a.max(b))
        .max(1.0)
        * 1.05;
    let x = |i: usize| {
        if labels.len() <= 1 {
            ML + plot_w / 2.0
        } else {
            ML + plot_w * i as f64 / (labels.len() - 1) as f64
        }
    };
    let y = |v: f64| MT + plot_h * (1.0 - v / y_max);

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 {W} {H}\" \
         font-family=\"monospace\" font-size=\"11\">"
    );
    let _ = writeln!(svg, "<rect width=\"{W}\" height=\"{H}\" fill=\"white\"/>");
    let _ = writeln!(
        svg,
        "<text x=\"{ML}\" y=\"24\" font-size=\"14\" font-weight=\"bold\">{}</text>",
        xml_escape(title)
    );
    // Axes and horizontal gridlines with y labels.
    for tick in 0..=4 {
        let v = y_max * tick as f64 / 4.0;
        let yy = y(v);
        let _ = writeln!(
            svg,
            "<line x1=\"{ML}\" y1=\"{yy:.1}\" x2=\"{:.1}\" y2=\"{yy:.1}\" \
             stroke=\"#ddd\"/><text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{v:.0}</text>",
            ML + plot_w,
            ML - 6.0,
            yy + 4.0,
        );
    }
    // X labels, slanted so commit hashes fit.
    for (i, label) in labels.iter().enumerate() {
        let xx = x(i);
        let _ = writeln!(
            svg,
            "<text x=\"{xx:.1}\" y=\"{:.1}\" text-anchor=\"end\" \
             transform=\"rotate(-30 {xx:.1} {:.1})\">{}</text>",
            H - MB + 16.0,
            H - MB + 16.0,
            xml_escape(label)
        );
    }
    // Series: polyline segments between present points, plus a dot per point so
    // singleton snapshots remain visible.
    for (s, (name, ys)) in series.iter().enumerate() {
        let color = PALETTE[s % PALETTE.len()];
        let mut segment: Vec<String> = Vec::new();
        let flush = |segment: &mut Vec<String>, svg: &mut String| {
            if segment.len() >= 2 {
                let _ = writeln!(
                    svg,
                    "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" \
                     stroke-width=\"1.5\"/>",
                    segment.join(" ")
                );
            }
            segment.clear();
        };
        for (i, point) in ys.iter().enumerate() {
            match point {
                Some(v) => {
                    let (xx, yy) = (x(i), y(*v));
                    segment.push(format!("{xx:.1},{yy:.1}"));
                    let _ = writeln!(
                        svg,
                        "<circle cx=\"{xx:.1}\" cy=\"{yy:.1}\" r=\"2.5\" fill=\"{color}\"/>"
                    );
                }
                None => flush(&mut segment, &mut svg),
            }
        }
        flush(&mut segment, &mut svg);
        let ly = MT + 14.0 * s as f64;
        let _ = writeln!(
            svg,
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"10\" height=\"10\" fill=\"{color}\"/>\
             <text x=\"{:.1}\" y=\"{:.1}\">{}</text>",
            W - MR + 10.0,
            ly,
            W - MR + 26.0,
            ly + 9.0,
            xml_escape(name)
        );
    }
    svg.push_str("</svg>\n");
    svg
}

/// Minimal XML text escaping for the hand-rolled SVG.
fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// The per-family trend chart: one line per scenario, monitor messages over
/// the history points.  `None` when fewer than two points mention the family.
fn family_trend(family: ScenarioFamily, history: &[TrendPoint]) -> Option<(String, String)> {
    let labels: Vec<String> = history.iter().map(|p| p.label.clone()).collect();
    if labels.len() < 2 {
        return None;
    }
    // Scenario names in first-seen order across the whole history.
    let mut names: Vec<String> = Vec::new();
    for point in history {
        for r in family_members(&point.records, family) {
            if !names.contains(&r.scenario.name) {
                names.push(r.scenario.name.clone());
            }
        }
    }
    if names.is_empty() {
        return None;
    }
    let series: Vec<(String, Vec<Option<f64>>)> = names
        .iter()
        .map(|name| {
            let ys: Vec<Option<f64>> = history
                .iter()
                .map(|point| {
                    point
                        .records
                        .iter()
                        .find(|r| &r.scenario.name == name)
                        .map(|r| r.avg.monitor_messages as f64)
                })
                .collect();
            (name.clone(), ys)
        })
        .collect();
    let file = format!("svg/trend-{}.svg", family.name());
    let svg = trend_svg(
        &format!("{} — monitor messages per snapshot", family.name()),
        &labels,
        &series,
    );
    Some((file, svg))
}

/// Sums a quantity over every record of a snapshot.
fn total_over(records: &[ScenarioRecord], f: impl Fn(&RunMetrics) -> usize) -> usize {
    records.iter().map(|r| f(&r.avg)).sum()
}

/// Renders the dashboard: per-family tables of `current`, overhead A/B deltas,
/// and (when `history` has at least two points) per-family trend charts.
///
/// Pure: the output is a deterministic function of the inputs.
pub fn render_report(current: &[ScenarioRecord], history: &[TrendPoint]) -> RenderedReport {
    let mut out = String::new();
    let mut svgs: Vec<(String, String)> = Vec::new();

    out.push_str("# DLRV benchmark report\n\n");
    let families: Vec<&ScenarioFamily> = FAMILY_ORDER
        .iter()
        .filter(|&&f| current.iter().any(|r| r.scenario.family == f))
        .collect();
    let _ = writeln!(
        out,
        "{} scenarios across {} families ({}); {} events monitored, {} monitoring \
         messages exchanged in total.",
        current.len(),
        families.len(),
        families
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(", "),
        total_over(current, |m| m.total_events),
        total_over(current, |m| m.monitor_messages),
    );
    let _ = writeln!(
        out,
        "\nHistory: {} snapshot(s){}.",
        history.len(),
        if history.len() < 2 {
            " — trend charts need at least two, rerun after the next benchmark commit"
        } else {
            ""
        }
    );

    for &&family in &families {
        let members = family_members(current, family);
        let _ = writeln!(
            out,
            "\n## {} ({} scenarios)\n",
            family.name(),
            members.len()
        );
        let rows: Vec<RunView> = members.iter().map(|r| r.view()).collect();
        out.push_str(&family_table(family, &rows, Layout::Markdown));
        if let Some((file, svg)) = family_trend(family, history) {
            let _ = writeln!(out, "\n![{} trend]({file})", family.name());
            svgs.push((file, svg));
        }
    }

    out.push_str(
        "\n## Monitor automata\n\nPer-scenario LTL₃ monitor automata are rendered as \
         Graphviz DOT under `dot/` (one file per distinct property × process count).\n",
    );
    RenderedReport {
        markdown: out,
        svgs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::properties::PaperProperty;
    use crate::scenario::{Scenario, Substrate};
    use dlrv_monitor::MonitorOptions;

    fn record(name: &str, family: ScenarioFamily, msgs: usize) -> ScenarioRecord {
        let mut avg = RunMetrics {
            n_processes: 3,
            total_events: 60,
            monitor_messages: msgs,
            total_global_views: 120,
            peak_global_views: 9,
            monitor_tokens: msgs * 2,
            ..RunMetrics::default()
        };
        avg.detected_final_verdicts
            .insert(crate::dlrv_ltl::Verdict::True);
        ScenarioRecord {
            scenario: Scenario {
                name: name.to_string(),
                description: String::new(),
                family,
                config: ExperimentConfig::paper_default(PaperProperty::C, 3),
                options: MonitorOptions::default(),
                substrate: Substrate::Simulated,
            },
            detected_verdicts: avg.detected_final_verdicts,
            per_seed: vec![avg.clone()],
            avg,
        }
    }

    #[test]
    fn report_covers_every_family_present() {
        let current = vec![
            record("paper-C-n3", ScenarioFamily::Paper, 100),
            record("overhead-C-opts", ScenarioFamily::Overhead, 80),
            record("overhead-C-noopt", ScenarioFamily::Overhead, 160),
        ];
        let report = render_report(&current, &[]);
        assert!(report.markdown.contains("## paper (1 scenarios)"));
        assert!(report.markdown.contains("## overhead (2 scenarios)"));
        // The A/B pair printed once: 80 messages against 160 is a 50% reduction.
        assert!(
            report.markdown.contains("| 80 | 160 | 50.0 |"),
            "{}",
            report.markdown
        );
        // No history → no charts.
        assert!(report.svgs.is_empty());
    }

    #[test]
    fn two_snapshots_produce_a_trend_chart_per_family() {
        let snap = |label: &str, msgs| TrendPoint {
            label: label.to_string(),
            records: vec![record("paper-C-n3", ScenarioFamily::Paper, msgs)],
        };
        let history = [snap("abc1234", 90), snap("current", 100)];
        let report = render_report(&history[1].records, &history);
        assert_eq!(report.svgs.len(), 1);
        let (file, svg) = &report.svgs[0];
        assert_eq!(file, "svg/trend-paper.svg");
        assert!(svg.contains("<polyline"), "two points must draw a line");
        assert!(svg.contains("paper-C-n3"));
        assert!(report
            .markdown
            .contains("![paper trend](svg/trend-paper.svg)"));
    }

    #[test]
    fn fleet_family_renders_per_property_verdicts_and_no_host_measurement() {
        use crate::fleet::FleetParams;
        use crate::scenario::StreamParams;
        use dlrv_monitor::PropertyOutcome;
        let mut r = record("fleet-AB-sh4", ScenarioFamily::Fleet, 40);
        let members = vec![PaperProperty::A.into(), PaperProperty::B.into()];
        r.scenario.substrate =
            Substrate::Fleet(StreamParams::sized(100, 4), FleetParams::new(members));
        r.avg.wall_clock_secs = 0.30;
        r.avg.fleet_size = 2;
        r.avg.fleet_per_property = vec![
            PropertyOutcome {
                property: "A".to_string(),
                verdict: crate::dlrv_ltl::Verdict::True,
                ..PropertyOutcome::default()
            },
            PropertyOutcome {
                property: "B".to_string(),
                ..PropertyOutcome::default()
            },
        ];
        let report = render_report(&[r], &[]);
        assert!(
            report.markdown.contains("## fleet (1 scenarios)"),
            "{}",
            report.markdown
        );
        assert!(
            report
                .markdown
                .contains("| fleet-AB-sh4 | 2 | 4 | 60 | A:true B:unknown |"),
            "{}",
            report.markdown
        );
        // The 0.30 s wall clock is the terminal's `wall s`, not the report's.
        assert!(!report.markdown.contains("wall s") && !report.markdown.contains("0.300"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let current = vec![record("paper-C-n3", ScenarioFamily::Paper, 100)];
        let a = render_report(&current, &[]);
        let b = render_report(&current, &[]);
        assert_eq!(a.markdown, b.markdown);
    }
}
