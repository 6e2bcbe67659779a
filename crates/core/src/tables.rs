//! Every results table of the repository, as data: a table is a list of
//! [`Column`]s over one borrowed row type, and exactly two functions render it —
//! [`render_text`] (the fixed-width tables `experiments` prints) and
//! [`render_markdown`] (the `--target report` dashboard).
//!
//! A column marked [`Column::host`] shows a quantity measured on the host (wall
//! clock, rates, queue latency) rather than determined by the seed.  The terminal
//! shows those; the markdown report, which is rendered from committed documents
//! that carry no such quantity, leaves them out.

use crate::figures::TransitionRow;
use crate::results::ScenarioRecord;
use crate::scenario::{Scenario, ScenarioFamily, Substrate};
use crate::ExperimentResult;
use dlrv_analyze::{AnalysisRecord, Severity};
use dlrv_ltl::Verdicts;
use dlrv_monitor::RunMetrics;

/// One column of a table over rows of type `R`.
pub struct Column<R> {
    header: &'static str,
    /// Minimum width of the text form (cells are padded, never truncated).
    width: usize,
    right_aligned: bool,
    /// What the text form prints between the previous column and this one.
    separator: &'static str,
    cell: fn(&R) -> String,
    host: bool,
    /// When it holds for a row, the text form of that row stops after this cell.
    ends_row_if: Option<fn(&R) -> bool>,
}

impl<R> Column<R> {
    /// A left-aligned column.
    pub fn left(header: &'static str, width: usize, cell: fn(&R) -> String) -> Self {
        Column {
            header,
            width,
            right_aligned: false,
            separator: " ",
            cell,
            host: false,
            ends_row_if: None,
        }
    }

    /// A right-aligned column.
    pub fn right(header: &'static str, width: usize, cell: fn(&R) -> String) -> Self {
        Column {
            right_aligned: true,
            ..Column::left(header, width, cell)
        }
    }

    /// Marks the column as host-measured (see the module docs).
    pub fn host(self) -> Self {
        Column { host: true, ..self }
    }

    /// Replaces the single space the text form prints before the column.
    pub fn after(self, separator: &'static str) -> Self {
        Column { separator, ..self }
    }

    /// Ends a row's text form after this cell when `condition` holds for the row.
    pub fn ends_row_if(self, condition: fn(&R) -> bool) -> Self {
        Column {
            ends_row_if: Some(condition),
            ..self
        }
    }
}

/// Renders `rows` as a fixed-width text table: the header line, then one line per
/// row, every column included.
pub fn render_text<R>(columns: &[Column<R>], rows: &[R]) -> String {
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, (column, cell)) in columns.iter().zip(cells).enumerate() {
            if i > 0 {
                out.push_str(column.separator);
            }
            let width = column.width;
            out.push_str(&if column.right_aligned {
                format!("{cell:>width$}")
            } else {
                format!("{cell:<width$}")
            });
        }
        out.push('\n');
        out
    };
    let mut out = line(columns.iter().map(|c| c.header.to_string()).collect());
    for row in rows {
        let shown = columns
            .iter()
            .position(|c| c.ends_row_if.is_some_and(|ends| ends(row)))
            .map_or(columns.len(), |last| last + 1);
        out.push_str(&line(
            columns[..shown].iter().map(|c| (c.cell)(row)).collect(),
        ));
    }
    out
}

/// Renders `rows` as a markdown table: the host-measured columns left out, cells
/// unpadded, alignment in the delimiter row.
pub fn render_markdown<R>(columns: &[Column<R>], rows: &[R]) -> String {
    let shown: Vec<&Column<R>> = columns.iter().filter(|c| !c.host).collect();
    let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
    let mut out = line(shown.iter().map(|c| c.header.to_string()).collect());
    let delimiters: Vec<&str> = shown
        .iter()
        .map(|c| if c.right_aligned { "---:" } else { "---" })
        .collect();
    out.push_str(&format!("|{}|\n", delimiters.join("|")));
    for row in rows {
        out.push_str(&line(shown.iter().map(|c| (c.cell)(row)).collect()));
    }
    out
}

/// What a run table shows of one scenario: the scenario as it ran, its metrics
/// averaged over the seeds and the verdicts it detected.  Lent by a fresh run
/// ([`RunView::of`]) and by a parsed record ([`ScenarioRecord::view`]) alike.
#[derive(Clone, Copy)]
pub struct RunView<'a> {
    /// The scenario as it ran.
    pub scenario: &'a Scenario,
    /// Metric averages over the seeds.
    pub avg: &'a RunMetrics,
    /// Union of detected ⊤/⊥ verdicts over all seeds.
    pub verdicts: Verdicts,
}

impl<'a> RunView<'a> {
    /// The view of a scenario next to the result of running it.
    pub fn of(scenario: &'a Scenario, result: &'a ExperimentResult) -> Self {
        RunView {
            scenario,
            avg: &result.avg,
            verdicts: result.detected_verdicts,
        }
    }

    fn verdict_symbols(&self) -> String {
        let symbols: Vec<&str> = self.verdicts.iter().map(|v| v.symbol()).collect();
        symbols.join(",")
    }
}

impl ScenarioRecord {
    /// The record as a table row.
    pub fn view(&self) -> RunView<'_> {
        RunView {
            scenario: &self.scenario,
            avg: &self.avg,
            verdicts: self.detected_verdicts,
        }
    }
}

type RunColumn<'a> = Column<RunView<'a>>;
type RunColumns<'a> = Vec<RunColumn<'a>>;

/// Events and the paper's three overhead metrics (Figs 5.4–5.9), the columns
/// every offline table shares.
fn paper_metric_columns<'a>() -> RunColumns<'a> {
    vec![
        RunColumn::right("events", 8, |r| r.avg.total_events.to_string()),
        RunColumn::right("mon.msgs", 10, |r| r.avg.monitor_messages.to_string()),
        RunColumn::right("glob.views", 11, |r| r.avg.total_global_views.to_string()),
        RunColumn::right("delayed.evts", 13, |r| {
            format!("{:.2}", r.avg.avg_delayed_events)
        }),
        RunColumn::right("delay%/GV", 11, |r| {
            format!("{:.4}", r.avg.delay_time_pct_per_gv)
        }),
    ]
}

fn procs_column<'a>() -> RunColumn<'a> {
    RunColumn::right("procs", 6, |r| r.scenario.config.n_processes.to_string())
}

fn wall_clock_column<'a>() -> RunColumn<'a> {
    RunColumn::right("wall s", 8, |r| format!("{:.3}", r.avg.wall_clock_secs)).host()
}

fn verdicts_column<'a>() -> RunColumn<'a> {
    RunColumn::right("verdicts", 10, RunView::verdict_symbols)
}

fn rate_column<'a>() -> RunColumn<'a> {
    RunColumn::right("events/sec", 12, |r| format!("{:.0}", r.avg.events_per_sec)).host()
}

fn shards_column<'a>() -> RunColumn<'a> {
    RunColumn::right("shards", 7, |r| {
        r.scenario
            .substrate
            .stream()
            .map_or(0, |p| p.n_shards)
            .to_string()
    })
}

/// The offline sweep table (`--target sweep` / `custom`, `--property` runs).
fn sweep_columns<'a>() -> RunColumns<'a> {
    let mut columns = vec![
        RunColumn::left("scenario", 18, |r| r.scenario.name.clone()),
        RunColumn::left("family", 16, |r| r.scenario.family.name().to_string()),
        procs_column(),
    ];
    columns.extend(paper_metric_columns());
    columns.extend([wall_clock_column(), verdicts_column()]);
    columns
}

/// The paper-sweep table of Figures 5.4–5.8: one row per (property, process count).
pub fn figure_columns<'a>() -> RunColumns<'a> {
    let mut columns = vec![
        RunColumn::left("property", 10, |r| {
            r.scenario.config.property.name().to_string()
        }),
        procs_column(),
    ];
    columns.extend(paper_metric_columns());
    columns.push(verdicts_column());
    columns
}

/// The communication-frequency table of Fig. 5.9.
pub fn comm_frequency_columns<'a>() -> RunColumns<'a> {
    let mut columns = vec![RunColumn::left("configuration", 22, |r| {
        match r.scenario.config.comm_mu {
            Some(mu) => format!("commMu={mu}, evtMu=3"),
            None => "no comm, evtMu=3".to_string(),
        }
    })];
    columns.extend(paper_metric_columns());
    columns
}

/// The streaming table (`--target throughput`): session/shard shape, exact counts,
/// and the host's rates and queueing.
fn throughput_columns<'a>() -> RunColumns<'a> {
    vec![
        RunColumn::left("scenario", 26, |r| r.scenario.name.clone()),
        RunColumn::right("sessions", 8, |r| {
            r.scenario
                .substrate
                .stream()
                .map_or(0, |p| p.n_sessions)
                .to_string()
        }),
        shards_column(),
        RunColumn::right("events", 9, |r| r.avg.total_events.to_string()),
        rate_column(),
        wall_clock_column(),
        RunColumn::right("mon.msgs", 10, |r| r.avg.monitor_messages.to_string()),
        RunColumn::right("lat ms", 9, |r| {
            let max = r
                .avg
                .per_shard
                .iter()
                .map(|s| s.max_queue_latency_secs)
                .fold(0.0, f64::max);
            format!("{:.2}", max * 1e3)
        })
        .host(),
        RunColumn::right("stalls", 7, |r| {
            r.avg
                .per_shard
                .iter()
                .map(|s| s.backpressure_stalls)
                .sum::<usize>()
                .to_string()
        })
        .host(),
    ]
}

/// The fleet table (`--target fleet`, `--properties` runs): fleet size, exact
/// counts, the host's rate and wall clock, and one verdict per member.
fn fleet_columns<'a>() -> RunColumns<'a> {
    vec![
        RunColumn::left("scenario", 24, |r| r.scenario.name.clone()),
        RunColumn::right("props", 5, |r| r.avg.fleet_size.to_string()),
        shards_column(),
        RunColumn::right("events", 9, |r| r.avg.total_events.to_string()),
        rate_column(),
        wall_clock_column(),
        RunColumn::left("per-property verdicts", 0, |r| {
            let verdicts: Vec<String> = r
                .avg
                .fleet_per_property
                .iter()
                .map(|p| format!("{}:{}", p.property, p.verdict.name()))
                .collect();
            verdicts.join(" ")
        })
        .after("  "),
    ]
}

/// The real-socket table (`--target deploy`): transport and fault spec (`none`
/// for clean channels) next to the sweep's columns, so a deploy row can be read
/// against its in-process twin.
fn deploy_columns<'a>() -> RunColumns<'a> {
    vec![
        RunColumn::left("scenario", 20, |r| r.scenario.name.clone()),
        RunColumn::left("trans", 6, |r| match &r.scenario.substrate {
            Substrate::Deployed(params) => params.transport.name().to_string(),
            _ => "-".to_string(),
        }),
        RunColumn::left("fault", 34, |r| match &r.scenario.substrate {
            Substrate::Deployed(params) => {
                params.fault.map_or("none".to_string(), |f| f.to_string())
            }
            _ => "-".to_string(),
        }),
        procs_column(),
        RunColumn::right("events", 8, |r| r.avg.total_events.to_string()),
        RunColumn::right("mon.msgs", 10, |r| r.avg.monitor_messages.to_string()),
        wall_clock_column(),
        verdicts_column(),
    ]
}

/// The two forms a table is rendered in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// [`render_text`].
    Text,
    /// [`render_markdown`].
    Markdown,
}

/// Renders the table a family's scenarios are shown in: its own column list for
/// the streamed, fleet and deploy families, A/B pairs for the overhead family, the
/// sweep table for every offline one.
pub fn family_table(family: ScenarioFamily, rows: &[RunView<'_>], layout: Layout) -> String {
    fn render<R>(layout: Layout, columns: &[Column<R>], rows: &[R]) -> String {
        match layout {
            Layout::Text => render_text(columns, rows),
            Layout::Markdown => render_markdown(columns, rows),
        }
    }
    match family {
        ScenarioFamily::Overhead => render(layout, &overhead_columns(), &overhead_pairs(rows)),
        ScenarioFamily::Throughput => render(layout, &throughput_columns(), rows),
        ScenarioFamily::Fleet => render(layout, &fleet_columns(), rows),
        ScenarioFamily::Deploy => render(layout, &deploy_columns(), rows),
        _ => render(layout, &sweep_columns(), rows),
    }
}

/// One row of the §4.3 A/B table: the member the identifying columns are read
/// from, and the `<root>-opts` / `<root>-noopt` metrics when both members ran (a
/// `--scenario` filter may have left one out).
struct OverheadPair<'a> {
    lead: RunView<'a>,
    pair: Option<(&'a RunMetrics, &'a RunMetrics)>,
}

impl OverheadPair<'_> {
    fn on(&self, f: fn(&RunMetrics) -> String) -> String {
        self.pair.map_or(String::new(), |(on, _)| f(on))
    }

    fn off(&self, f: fn(&RunMetrics) -> String) -> String {
        self.pair.map_or(String::new(), |(_, off)| f(off))
    }

    /// `(off − on) / off` in percent: how much the optimization suite saves.
    fn reduction(&self, f: fn(&RunMetrics) -> usize) -> String {
        match self.pair {
            Some((on, off)) if f(off) > 0 => {
                format!(
                    "{:.1}",
                    (f(off) as f64 - f(on) as f64) / f(off) as f64 * 100.0
                )
            }
            _ => "-".to_string(),
        }
    }
}

type PairColumn<'a> = Column<OverheadPair<'a>>;

/// Groups overhead scenarios into A/B pairs by their `<root>-opts` / `<root>-noopt`
/// names, one row per root in order of first appearance.
fn overhead_pairs<'a>(runs: &[RunView<'a>]) -> Vec<OverheadPair<'a>> {
    let find = |name: String| runs.iter().find(|r| r.scenario.name == name);
    let mut roots: Vec<&str> = Vec::new();
    let mut pairs = Vec::new();
    for run in runs {
        let name = run.scenario.name.as_str();
        let root = name.rsplit_once('-').map_or(name, |(root, _)| root);
        if roots.contains(&root) {
            continue;
        }
        roots.push(root);
        let (on, off) = (find(format!("{root}-opts")), find(format!("{root}-noopt")));
        pairs.push(OverheadPair {
            lead: *on.or(off).unwrap_or(run),
            pair: on.zip(off).map(|(on, off)| (on.avg, off.avg)),
        });
    }
    pairs
}

/// The §4.3 A/B table (`--target overhead`): optimizations on vs. off on the
/// paper's three overhead quantities.  `Δ…%` is the reduction the suite achieves,
/// `(off − on) / off`: positive means the optimizations save work.  A row whose
/// pair is incomplete ends after a note naming the member that ran.
fn overhead_columns<'a>() -> Vec<PairColumn<'a>> {
    vec![
        PairColumn::left("property", 10, |p| {
            p.lead.scenario.config.property.name().to_string()
        }),
        PairColumn::right("procs", 6, |p| {
            p.lead.scenario.config.n_processes.to_string()
        }),
        PairColumn::right("events", 8, |p| p.lead.avg.total_events.to_string()),
        PairColumn::right("msgs:on", 9, |p| match p.pair {
            Some((on, _)) => on.monitor_messages.to_string(),
            None => format!(
                "(unpaired `{}`: msgs={}, peakGV={})",
                p.lead.scenario.name, p.lead.avg.monitor_messages, p.lead.avg.peak_global_views
            ),
        })
        .after(" | ")
        .ends_row_if(|p| p.pair.is_none()),
        PairColumn::right("msgs:off", 9, |p| p.off(|m| m.monitor_messages.to_string())),
        PairColumn::right("Δmsg%", 7, |p| p.reduction(|m| m.monitor_messages)),
        PairColumn::right("tok:on", 9, |p| p.on(|m| m.monitor_tokens.to_string())).after(" | "),
        PairColumn::right("tok:off", 9, |p| p.off(|m| m.monitor_tokens.to_string())),
        PairColumn::right("peakGV:on", 9, |p| {
            p.on(|m| m.peak_global_views.to_string())
        })
        .after(" | "),
        PairColumn::right("peakGV:off", 9, |p| {
            p.off(|m| m.peak_global_views.to_string())
        }),
        PairColumn::right("ΔGV%", 7, |p| p.reduction(|m| m.peak_global_views)),
        PairColumn::right("queued:on", 10, |p| {
            p.on(|m| format!("{:.2}", m.avg_delayed_events))
        })
        .after(" | "),
        PairColumn::right("queued:off", 10, |p| {
            p.off(|m| format!("{:.2}", m.avg_delayed_events))
        }),
    ]
}

/// Table 5.1 / Fig 5.1: transitions per synthesized automaton.
pub fn transition_columns() -> Vec<Column<TransitionRow>> {
    vec![
        Column::<TransitionRow>::left("property", 10, |r| r.property.name().to_string()),
        Column::<TransitionRow>::right("procs", 6, |r| r.n_processes.to_string()),
        Column::<TransitionRow>::right("total", 8, |r| r.total.to_string()),
        Column::<TransitionRow>::right("outgoing", 10, |r| r.outgoing.to_string()),
        Column::<TransitionRow>::right("self-loops", 11, |r| r.self_loops.to_string()),
        Column::<TransitionRow>::right("states", 8, |r| r.states.to_string()),
    ]
}

/// The static-analysis table (`--target analyze`, `--analyze-property`):
/// classification, automaton size and finding counts per analyzed property.
pub fn analysis_columns() -> Vec<Column<AnalysisRecord>> {
    vec![
        Column::<AnalysisRecord>::left("scenario", 18, |r| {
            r.scenario.as_deref().unwrap_or("-").to_string()
        }),
        Column::<AnalysisRecord>::left("property", 10, |r| r.analysis.name.clone()),
        Column::<AnalysisRecord>::right("procs", 5, |r| r.analysis.n_processes.to_string()),
        Column::<AnalysisRecord>::left("class", 16, |r| {
            r.analysis.classification.name().to_string()
        }),
        Column::<AnalysisRecord>::right("states", 6, |r| r.analysis.synthesis.states.to_string()),
        Column::<AnalysisRecord>::right("reach", 6, |r| {
            r.analysis
                .reachable
                .iter()
                .filter(|&&x| x)
                .count()
                .to_string()
        }),
        Column::<AnalysisRecord>::right("alpha", 7, |r| {
            r.analysis.synthesis.alphabet_size.to_string()
        }),
        Column::<AnalysisRecord>::left("findings", 8, |r| {
            let a = &r.analysis;
            let errors = a.count_at_least(Severity::Error);
            let warns = a.count_at_least(Severity::Warn) - errors;
            format!("{errors}E/{warns}W/{}I", a.findings.len() - errors - warns)
        }),
    ]
}

/// The registry listing (`--list-scenarios`).
pub fn registry_columns<'a>() -> Vec<Column<&'a Scenario>> {
    vec![
        Column::<&Scenario>::left("name", 24, |s| s.name.clone()),
        Column::<&Scenario>::left("family", 16, |s| s.family.name().to_string()),
        Column::<&Scenario>::left("description", 0, |s| s.description.clone()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_two_renderers_share_cells_and_differ_in_layout_and_host_columns() {
        let columns: Vec<Column<(&str, f64)>> = vec![
            Column::left("name", 6, |r| r.0.to_string()),
            Column::<(&str, f64)>::right("secs", 7, |r| format!("{:.2}", r.1))
                .host()
                .after(" | "),
            Column::right("Δ%", 4, |r| r.0.len().to_string()),
        ];
        let rows = [("ab", 1.5), ("abcdefgh", 22.25)];
        assert_eq!(
            render_text(&columns, &rows),
            "name   |    secs   Δ%\nab     |    1.50    2\nabcdefgh |   22.25    8\n"
        );
        assert_eq!(
            render_markdown(&columns, &rows),
            "| name | Δ% |\n|---|---:|\n| ab | 2 |\n| abcdefgh | 8 |\n"
        );
    }

    #[test]
    fn a_row_can_end_early_in_text_and_keeps_its_cells_in_markdown() {
        let columns: Vec<Column<usize>> = vec![
            Column::<usize>::left("n", 2, |n| n.to_string()).ends_row_if(|&n| n == 0),
            Column::right("sq", 3, |n| (n * n).to_string()),
        ];
        assert_eq!(render_text(&columns, &[3, 0]), "n   sq\n3    9\n0 \n");
        assert_eq!(
            render_markdown(&columns, &[0]),
            "| n | sq |\n|---|---:|\n| 0 | 0 |\n"
        );
    }
}
