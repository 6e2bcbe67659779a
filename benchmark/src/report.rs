//! Result documents: what a run writes and prints, the metric declarations of
//! `BENCHMARK.json`, and the `compare` of two documents.

use crate::stats::{host_facts, logical_cores, Quartiles};
use dlrv_json::{object, Json};
use std::path::Path;

/// One metric as measured: its reported value (the median of `samples` when
/// there are several) and every raw sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Raw samples (one per rep, or the single measurement).
    pub samples: Vec<f64>,
    /// How the value was taken, where the name alone does not say.
    pub note: Option<String>,
}

impl Measured {
    /// A metric measured once.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Measured {
        Measured {
            name,
            unit,
            value,
            samples: vec![value],
            note: None,
        }
    }

    /// A metric reported as the median of per-rep samples.
    pub fn from_samples(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Measured {
        Measured {
            name,
            unit,
            value: Quartiles::of(&samples).median,
            samples,
            note: None,
        }
    }

    /// Attaches a note on how the value was taken.
    pub fn note(mut self, note: String) -> Measured {
        self.note = Some(note);
        self
    }

    fn to_json(&self) -> Json {
        let q = Quartiles::of(&self.samples);
        let mut fields = vec![
            ("name".to_string(), Json::from(self.name)),
            ("unit".to_string(), Json::from(self.unit)),
            ("value".to_string(), Json::from(self.value)),
            ("median".to_string(), Json::from(q.median)),
            ("q1".to_string(), Json::from(q.q1)),
            ("q3".to_string(), Json::from(q.q3)),
            (
                "samples".to_string(),
                Json::Array(self.samples.iter().map(|&s| Json::from(s)).collect()),
            ),
        ];
        if let Some(note) = &self.note {
            fields.push(("note".to_string(), Json::from(note.as_str())));
        }
        Json::Object(fields)
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDoc {
    /// Workload name.
    pub workload: &'static str,
    /// Run seed.
    pub seed: u64,
    /// Requested seconds of timed reps.
    pub seconds: f64,
    /// True for the traced (per-layer) run.
    pub traced: bool,
    /// True for the shrunk `--quick` shape.
    pub quick: bool,
    /// Program events in one pass over the inputs.
    pub events: usize,
    /// Sessions in one pass.
    pub sessions: usize,
    /// Bytes of the encoded stream.
    pub stream_bytes: usize,
    /// Timed reps behind the per-rep metrics.
    pub reps: usize,
    /// Seconds the timed reps took.
    pub timed_secs: f64,
    /// Session outcomes checked against the reference (sessions × checked reps).
    pub attempted: usize,
    /// Of those, how many were missing, drained, mis-routed or different.
    pub failed: usize,
    /// The metrics, in reporting order.
    pub metrics: Vec<Measured>,
}

impl RunDoc {
    /// `failed ÷ attempted`: must be 0.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The document written under `benchmark/out/`: host and method facts next
    /// to every metric's raw samples, median and quartiles.
    pub fn to_json(&self) -> Json {
        object([
            ("schema", Json::from(1u64)),
            ("host", host_facts()),
            ("workload", Json::from(self.workload)),
            ("seed", Json::from(self.seed)),
            ("seconds", Json::from(self.seconds)),
            ("traced", Json::from(self.traced)),
            ("quick", Json::from(self.quick)),
            ("events", Json::from(self.events)),
            ("sessions", Json::from(self.sessions)),
            ("stream_bytes", Json::from(self.stream_bytes)),
            ("reps", Json::from(self.reps)),
            ("timed_secs", Json::from(self.timed_secs)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("failed_share", Json::from(self.failed_share())),
            (
                "metrics",
                Json::Array(self.metrics.iter().map(Measured::to_json).collect()),
            ),
        ])
    }

    /// The last line of standard output: the driver's result object.  The
    /// end-to-end run reports more than `BENCHMARK.json` gates (see
    /// [`UNGATED_BOUND`]); the driver gets exactly the declared metrics.
    pub fn result_line(&self, decls: &Declarations) -> String {
        let metrics = self
            .metrics
            .iter()
            .filter(|m| self.traced || decls.end_to_end(m.name).is_some())
            .map(|m| {
                (
                    m.name.to_string(),
                    object([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect();
        object([
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Object(metrics)),
        ])
        .to_string_compact()
    }

    /// The human-readable table: every metric by name with its unit.
    pub fn print_table(&self, decls: &Declarations) {
        println!(
            "# {} seed={} {} events={} sessions={} reps={} timed={:.1}s checked={} failed={} (failed_share {})",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.events,
            self.sessions,
            self.reps,
            self.timed_secs,
            self.attempted,
            self.failed,
            self.failed_share(),
        );
        for m in &self.metrics {
            let q = Quartiles::of(&m.samples);
            let spread = if m.samples.len() > 1 {
                format!(
                    "  iqr {:.1}% of median, n={}",
                    q.spread() * 100.0,
                    m.samples.len()
                )
            } else {
                String::new()
            };
            let note = m
                .note
                .as_deref()
                .map(|n| format!("  ({n})"))
                .unwrap_or_default();
            println!(
                "{:<48} {:>16.4} {}{}{}",
                m.name, m.value, m.unit, spread, note
            );
            if let Some(decl) = decls.judged(m.name) {
                if !self.traced
                    && m.name != "setup_s"
                    && m.samples.len() > 1
                    && q.spread() > decl.bound
                {
                    eprintln!(
                        "warning: {} on {}: interquartile range of the reps is {:.1}% of the median, above the {:.0}% bound",
                        m.name,
                        self.workload,
                        q.spread() * 100.0,
                        decl.bound * 100.0
                    );
                }
            }
        }
    }
}

/// The bound `compare` applies to a metric `BENCHMARK.json` declares per-layer,
/// that is without a bound.  `events_per_sec`, `cpu_us_per_event` and
/// `feed_latency_p50_us` are such: the end-to-end run measures them, but on the
/// shared reference box their run-to-run spread reaches 20–50 % whenever
/// neighbours contend for memory, so no bound the driver allows (at most 0.25)
/// holds and they are reported, compared here, and not gated.
pub const UNGATED_BOUND: f64 = 0.25;

/// One declared end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// True when larger is better.
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen.
    pub bound: f64,
}

/// The metric declarations of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Declarations {
    /// End-to-end metrics, with direction and bound.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics (`bound` is unused: they are not gated).
    pub per_layer: Vec<Declared>,
    /// Workload names.
    pub workloads: Vec<String>,
}

impl Declarations {
    /// Reads `BENCHMARK.json`.
    pub fn load(path: &Path) -> Result<Declarations, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Declarations::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the text of `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Declarations, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let metrics = |key: &str, bounded: bool| -> Result<Vec<Declared>, String> {
            let list = doc
                .get(key)
                .and_then(Json::as_array)
                .map_err(|e| e.to_string())?;
            list.iter()
                .map(|m| {
                    Ok(Declared {
                        name: m.get("name")?.as_str()?.to_string(),
                        unit: m.get("unit")?.as_str()?.to_string(),
                        higher_is_better: m.get("better")?.as_str()? == "higher",
                        bound: if bounded {
                            m.get("bound")?.as_f64()?
                        } else {
                            0.0
                        },
                    })
                })
                .collect::<Result<_, dlrv_json::JsonError>>()
                .map_err(|e| format!("{key}: {e}"))
        };
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .map_err(|e| e.to_string())?
            .iter()
            .map(|w| Ok(w.get("name")?.as_str()?.to_string()))
            .collect::<Result<_, dlrv_json::JsonError>>()
            .map_err(|e| format!("workloads: {e}"))?;
        Ok(Declarations {
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
            workloads,
        })
    }

    /// The declared end-to-end metric `name`.
    pub fn end_to_end(&self, name: &str) -> Option<&Declared> {
        self.end_to_end.iter().find(|d| d.name == name)
    }

    /// The metric `name` as `compare` judges it: an end-to-end metric with its
    /// declared bound, or a per-layer metric with [`UNGATED_BOUND`].
    pub fn judged(&self, name: &str) -> Option<Declared> {
        self.end_to_end(name).cloned().or_else(|| {
            let layer = self.per_layer.iter().find(|d| d.name == name)?;
            Some(Declared {
                bound: UNGATED_BOUND,
                ..layer.clone()
            })
        })
    }
}

/// A set of run documents: what `all` writes and `compare` reads.
pub fn results_json(runs: &[Json]) -> Json {
    object([
        ("schema", Json::from(1u64)),
        ("host", host_facts()),
        ("runs", Json::Array(runs.to_vec())),
    ])
}

/// How a candidate's metric stands against the baseline's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than either side's spread.
    Better,
    /// Within the bound and the spread.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// The reps' spread exceeds the bound and the two sides overlap.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges candidate samples against baseline samples of one metric.
pub fn judge(decl: &Declared, baseline: &[f64], candidate: &[f64]) -> Verdict {
    let (a, b) = (Quartiles::of(baseline), Quartiles::of(candidate));
    // Positive = candidate worse, as a share of the baseline median.
    let sign = if decl.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = if a.median == 0.0 {
        sign * (b.median - a.median)
    } else {
        sign * (b.median - a.median) / a.median.abs()
    };
    let better_than = |x: f64, y: f64| if decl.higher_is_better { x > y } else { x < y };
    let all = |pred: &dyn Fn(f64, f64) -> bool| {
        candidate
            .iter()
            .all(|&c| baseline.iter().all(|&p| pred(c, p)))
    };
    let spread = a.spread().max(b.spread());
    if spread > decl.bound && baseline.len() > 1 {
        // Too noisy for the bound to mean anything, unless the sides separate.
        return if all(&|c, p| better_than(c, p)) {
            Verdict::Better
        } else if worse_by > decl.bound && all(&|c, p| better_than(p, c)) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > decl.bound {
        Verdict::Worse
    } else if -worse_by > spread && -worse_by > 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn samples_of(metric: &Json) -> Result<Vec<f64>, dlrv_json::JsonError> {
    metric
        .get("samples")?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn cores_of(doc: &Json) -> Result<usize, String> {
    doc.get("host")
        .and_then(|h| h.get("logical_cores"))
        .and_then(Json::as_usize)
        .map_err(|e| format!("host.logical_cores: {e}"))
}

/// Compares two result documents metric by metric; prints one row per
/// (workload, end-to-end metric).  `Ok(true)` when no row is `worse`.
pub fn compare(decls: &Declarations, baseline: &Json, candidate: &Json) -> Result<bool, String> {
    let (cores_a, cores_b) = (cores_of(baseline)?, cores_of(candidate)?);
    if cores_a != cores_b {
        return Err(format!(
            "refusing to compare documents from different core counts ({cores_a} vs {cores_b})"
        ));
    }
    let runs = |doc: &Json| -> Result<Vec<Json>, String> {
        match doc.get_opt("runs").map_err(|e| e.to_string())? {
            Some(runs) => Ok(runs.as_array().map_err(|e| e.to_string())?.to_vec()),
            None => Ok(vec![doc.clone()]),
        }
    };
    let find = |runs: &[Json], workload: &str, name: &str| -> Option<Vec<f64>> {
        runs.iter()
            .filter(|r| r.get("workload").and_then(Json::as_str) == Ok(workload))
            .filter(|r| r.get("traced").and_then(Json::as_bool) == Ok(false))
            .find_map(|r| {
                r.get("metrics")
                    .ok()?
                    .as_array()
                    .ok()?
                    .iter()
                    .find_map(|m| {
                        (m.get("name").and_then(Json::as_str) == Ok(name))
                            .then(|| samples_of(m).ok())
                            .flatten()
                    })
            })
    };
    let (runs_a, runs_b) = (runs(baseline)?, runs(candidate)?);
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base median", "base q1..q3", "cand median", "cand q1..q3", "bound"
    );
    let mut ok = true;
    let mut rows = 0usize;
    // Every declared end-to-end metric, then the per-layer metrics that the
    // end-to-end run measures too.
    let judged: Vec<Declared> = decls
        .end_to_end
        .iter()
        .cloned()
        .chain(decls.per_layer.iter().filter_map(|d| decls.judged(&d.name)))
        .collect();
    for workload in &decls.workloads {
        for decl in &judged {
            let (Some(a), Some(b)) = (
                find(&runs_a, workload, &decl.name),
                find(&runs_b, workload, &decl.name),
            ) else {
                continue;
            };
            let verdict = judge(decl, &a, &b);
            let (qa, qb) = (Quartiles::of(&a), Quartiles::of(&b));
            println!(
                "{:<16} {:<24} {:>14.4} {:>14} {:>14.4} {:>14} {:>7.0}%  {}{}",
                workload,
                decl.name,
                qa.median,
                format!("{:.4}..{:.4}", qa.q1, qa.q3),
                qb.median,
                format!("{:.4}..{:.4}", qb.q1, qb.q3),
                decl.bound * 100.0,
                verdict.name(),
                if decls.end_to_end(&decl.name).is_some() {
                    ""
                } else {
                    " (not gated)"
                }
            );
            ok &= verdict != Verdict::Worse;
            rows += 1;
        }
    }
    for run in runs_a.iter().chain(&runs_b) {
        if run
            .get("failed")
            .and_then(Json::as_u64)
            .map_err(|e| e.to_string())?
            != 0
        {
            println!("a document reports failed session checks: worse");
            ok = false;
        }
    }
    if rows == 0 {
        return Err("the documents share no (workload, metric) pair".to_string());
    }
    Ok(ok)
}

/// Refuses hosts the benchmark is not sized for: one producer plus one shard
/// worker need two cores to themselves.
pub fn require_two_cores() -> Result<(), String> {
    let cores = logical_cores();
    if cores < 2 {
        return Err(format!(
            "the benchmark needs at least 2 logical cores (producer + shard worker); this host has {cores}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(higher: bool, bound: f64) -> Declared {
        Declared {
            name: "m".to_string(),
            unit: "u".to_string(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Throughput down 20% against a 10% bound.
        assert_eq!(
            judge(&decl(true, 0.1), &steady, &[80.0, 81.0, 79.0, 80.5, 79.5]),
            Verdict::Worse
        );
        // Down 5%: inside the bound.
        assert_eq!(
            judge(&decl(true, 0.1), &steady, &[95.0, 96.0, 94.0, 95.5, 94.5]),
            Verdict::Same
        );
        // Up 20%: beyond the spread.
        assert_eq!(
            judge(
                &decl(true, 0.1),
                &steady,
                &[120.0, 121.0, 119.0, 120.5, 119.5]
            ),
            Verdict::Better
        );
        // Latency (lower is better) up 20%.
        assert_eq!(
            judge(
                &decl(false, 0.1),
                &steady,
                &[120.0, 121.0, 119.0, 120.5, 119.5]
            ),
            Verdict::Worse
        );
        // Reps scattered wider than the bound and overlapping: unresolved.
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(
            judge(&decl(true, 0.1), &noisy, &[90.0, 130.0, 65.0, 110.0, 80.0]),
            Verdict::Unresolved
        );
        // Single exact values compare directly.
        assert_eq!(judge(&decl(false, 0.02), &[0.25], &[0.25]), Verdict::Same);
        assert_eq!(judge(&decl(false, 0.02), &[0.25], &[0.30]), Verdict::Worse);
    }

    #[test]
    fn compare_refuses_documents_from_different_core_counts() {
        let doc = |cores: u64| {
            object([
                ("host", object([("logical_cores", Json::from(cores))])),
                ("runs", Json::Array(Vec::new())),
            ])
        };
        let err = compare(&Declarations::default(), &doc(2), &doc(8)).unwrap_err();
        assert!(err.contains("different core counts"), "{err}");
    }
}
