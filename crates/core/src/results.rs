//! Machine-readable sweep results (`BENCH_results.json`).
//!
//! Every run of `experiments --target sweep --format json` emits one document in the
//! schema below.  The document is self-describing — each record carries the full
//! scenario (name, family, [`ExperimentConfig`], [`MonitorOptions`]) next to its
//! [`RunMetrics`] — and seed-exact: it holds only what the seeds determine
//! (messages, tokens, views, queued events, simulated delay, verdicts), never a
//! wall clock, a rate or a memory reading, so regenerating it reproduces it byte
//! for byte and a `cmp` against the committed file is a regression check.
//! [`sweep_from_json`] restores everything written field-for-field (floats use
//! shortest round-trip formatting, see [`dlrv_json`]) and still reads the
//! host-measured fields of documents committed while they were written.
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "generator": "dlrv-experiments",
//!   "scenarios": [
//!     {
//!       "name": "paper-A-n2", "family": "paper", "description": "…",
//!       "config":  { property, n_processes, events_per_process, evt_mu, …,
//!                    seeds, arrival, topology },
//!       "options": { aggregate_tokens, dedup_global_views, prune_disjunctive },
//!       "avg":      { RunMetrics fields },
//!       "per_seed": [ { RunMetrics fields }, … ],
//!       "detected_verdicts": [ "true" | "false" | "unknown", … ]
//!     }, …
//!   ]
//! }
//! ```

use crate::deploy::{DeployParams, DeployTransport};
use crate::experiment::{ExperimentConfig, ExperimentResult};
use crate::fleet::FleetParams;
use crate::properties::PaperProperty;
use crate::scenario::{Scenario, ScenarioFamily, StreamParams, Substrate};
use crate::spec::PropertySpec;
use crate::tables::RunView;
use dlrv_json::{object, Json, JsonError};
use dlrv_ltl::Verdicts;
use dlrv_monitor::{verdicts_from_json, verdicts_to_json, MonitorOptions, RunMetrics};
use dlrv_net::FaultSpec;
use dlrv_stream::StreamConfig;
use dlrv_trace::format::{
    arrival_from_json, arrival_to_json, topology_from_json, topology_to_json,
};

/// Version of the `BENCH_results.json` schema produced by [`sweep_to_json`].
pub const RESULTS_SCHEMA_VERSION: u64 = 1;

/// One parsed-back record of a sweep document: the scenario plus its measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    /// The scenario exactly as it was run.
    pub scenario: Scenario,
    /// Metric averages over the seeds.
    pub avg: RunMetrics,
    /// Per-seed metrics, in seed order.
    pub per_seed: Vec<RunMetrics>,
    /// Union of detected ⊤/⊥ verdicts over all seeds.
    pub detected_verdicts: Verdicts,
}

/// Serializes a property spec: paper properties as their bare letter (the schema's
/// historical form, byte-identical for every pre-existing scenario), custom LTL
/// specs as a `{"name", "ltl"}` object.
pub fn property_to_json(spec: &PropertySpec) -> Json {
    match spec.ltl_source() {
        None => Json::from(spec.name()),
        Some(ltl) => object([("name", Json::from(spec.name())), ("ltl", Json::from(ltl))]),
    }
}

/// Parses a property spec back from its [`property_to_json`] form.
pub fn property_from_json(v: &Json) -> Result<PropertySpec, JsonError> {
    match v {
        Json::Str(name) => PaperProperty::from_name(name)
            .map(PropertySpec::from)
            .ok_or_else(|| JsonError::msg(format!("unknown property `{name}`"))),
        _ => {
            let name = v.get("name")?.as_str()?;
            let ltl = v.get("ltl")?.as_str()?;
            PropertySpec::parse_named(name, ltl)
                .map_err(|e| JsonError::msg(format!("invalid property `{name}`: {e}")))
        }
    }
}

/// Serializes an experiment configuration (property by letter or LTL object, shapes
/// as tagged objects).
pub fn config_to_json(config: &ExperimentConfig) -> Json {
    object([
        ("property", property_to_json(&config.property)),
        ("n_processes", Json::from(config.n_processes)),
        ("events_per_process", Json::from(config.events_per_process)),
        ("evt_mu", Json::from(config.evt_mu)),
        ("evt_sigma", Json::from(config.evt_sigma)),
        ("comm_mu", Json::from(config.comm_mu)),
        ("comm_sigma", Json::from(config.comm_sigma)),
        ("seeds", Json::from(config.seeds.clone())),
        ("arrival", arrival_to_json(&config.arrival)),
        ("topology", topology_to_json(&config.topology)),
    ])
}

/// Parses an experiment configuration back from its [`config_to_json`] form.
pub fn config_from_json(v: &Json) -> Result<ExperimentConfig, JsonError> {
    let property = property_from_json(v.get("property")?)?;
    Ok(ExperimentConfig {
        property,
        n_processes: v.get("n_processes")?.as_usize()?,
        events_per_process: v.get("events_per_process")?.as_usize()?,
        evt_mu: v.get("evt_mu")?.as_f64()?,
        evt_sigma: v.get("evt_sigma")?.as_f64()?,
        comm_mu: match v.get("comm_mu")? {
            Json::Null => None,
            value => Some(value.as_f64()?),
        },
        comm_sigma: v.get("comm_sigma")?.as_f64()?,
        seeds: v
            .get("seeds")?
            .as_array()?
            .iter()
            .map(Json::as_u64)
            .collect::<Result<_, _>>()?,
        arrival: arrival_from_json(v.get("arrival")?)?,
        topology: topology_from_json(v.get("topology")?)?,
    })
}

/// Serializes the §4.3 optimization switches.
pub fn options_to_json(options: &MonitorOptions) -> Json {
    object([
        ("aggregate_tokens", Json::from(options.aggregate_tokens)),
        ("dedup_global_views", Json::from(options.dedup_global_views)),
        ("prune_disjunctive", Json::from(options.prune_disjunctive)),
    ])
}

/// Parses the optimization switches back.  The `arena_recycling` key of older
/// documents named an allocation switch that no longer exists; it is ignored.
pub fn options_from_json(v: &Json) -> Result<MonitorOptions, JsonError> {
    Ok(MonitorOptions {
        aggregate_tokens: v.get("aggregate_tokens")?.as_bool()?,
        dedup_global_views: v.get("dedup_global_views")?.as_bool()?,
        prune_disjunctive: v.get("prune_disjunctive")?.as_bool()?,
        ..MonitorOptions::ALL_OFF
    })
}

/// Serializes the streaming-engine sizing of a throughput scenario.  The
/// mailbox and batch sizes written are the runtime's fixed default.
pub fn stream_params_to_json(params: &StreamParams) -> Json {
    let engine = StreamConfig::default();
    object([
        ("n_sessions", Json::from(params.n_sessions)),
        ("n_shards", Json::from(params.n_shards)),
        ("mailbox_capacity", Json::from(engine.mailbox_capacity)),
        ("batch_size", Json::from(engine.batch_size)),
    ])
}

/// Parses the streaming-engine sizing back.  `mailbox_capacity` and
/// `batch_size` are ignored (the runtime's default sizes every run), and so are
/// `binary_wire` and `use_rings`, which documents written while the wire-format
/// and mailbox switches were per-scenario also carry.
pub fn stream_params_from_json(v: &Json) -> Result<StreamParams, JsonError> {
    Ok(StreamParams {
        n_sessions: v.get("n_sessions")?.as_usize()?,
        n_shards: v.get("n_shards")?.as_usize()?,
    })
}

/// Serializes the deployment parameters of a deploy scenario (the fault spec in
/// its [`FaultSpec::to_json`] object form).
pub fn deploy_params_to_json(params: &DeployParams) -> Json {
    object([
        ("transport", Json::from(params.transport.name())),
        (
            "fault",
            params.fault.as_ref().map_or(Json::Null, FaultSpec::to_json),
        ),
    ])
}

/// Parses the deployment parameters back.  Documents written while the deploy
/// wire had a JSON mode also carry `binary_wire`; it is ignored.
pub fn deploy_params_from_json(v: &Json) -> Result<DeployParams, JsonError> {
    let name = v.get("transport")?.as_str()?;
    let transport = DeployTransport::from_name(name)
        .ok_or_else(|| JsonError::msg(format!("unknown deploy transport `{name}`")))?;
    Ok(DeployParams {
        transport,
        fault: match v.get("fault")? {
            Json::Null => None,
            spec => Some(FaultSpec::from_json(spec)?),
        },
    })
}

/// Serializes the member list of a fleet scenario (each member in its
/// [`property_to_json`] form, in fleet order — the wire's property-id space).
pub fn fleet_params_to_json(params: &FleetParams) -> Json {
    object([(
        "properties",
        Json::Array(params.properties.iter().map(property_to_json).collect()),
    )])
}

/// Parses the fleet member list back.
pub fn fleet_params_from_json(v: &Json) -> Result<FleetParams, JsonError> {
    let properties = v
        .get("properties")?
        .as_array()?
        .iter()
        .map(property_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    if properties.is_empty() {
        return Err(JsonError::msg("fleet params need at least one property"));
    }
    Ok(FleetParams::new(properties))
}

fn record_to_json(view: RunView<'_>, per_seed: &[RunMetrics]) -> Json {
    let scenario = view.scenario;
    // The substrate is written as three keys, `null` where it has no such params.
    let (stream, deploy, fleet) = match &scenario.substrate {
        Substrate::Simulated => (Json::Null, Json::Null, Json::Null),
        Substrate::Streamed(params) => (stream_params_to_json(params), Json::Null, Json::Null),
        Substrate::Fleet(params, fleet) => (
            stream_params_to_json(params),
            Json::Null,
            fleet_params_to_json(fleet),
        ),
        Substrate::Deployed(params) => (Json::Null, deploy_params_to_json(params), Json::Null),
    };
    object([
        ("name", Json::from(scenario.name.as_str())),
        ("family", Json::from(scenario.family.name())),
        ("description", Json::from(scenario.description.as_str())),
        ("config", config_to_json(&scenario.config)),
        ("options", options_to_json(&scenario.options)),
        ("stream", stream),
        ("deploy", deploy),
        ("fleet", fleet),
        ("avg", view.avg.to_json()),
        (
            "per_seed",
            Json::Array(per_seed.iter().map(RunMetrics::to_json).collect()),
        ),
        ("detected_verdicts", verdicts_to_json(view.verdicts)),
    ])
}

/// Reads a record's substrate back from its `stream` / `deploy` / `fleet` keys.
/// Each is absent or null in documents written before its family, and null on a
/// record whose substrate has no such params; a combination no substrate writes
/// — `deploy` with `stream` or `fleet`, or `fleet` without `stream` — is refused.
fn substrate_from_json(v: &Json, name: &str) -> Result<Substrate, JsonError> {
    let params = |key| Ok(v.get_opt(key)?.filter(|p| !matches!(p, Json::Null)));
    match (params("stream")?, params("deploy")?, params("fleet")?) {
        (None, None, None) => Ok(Substrate::Simulated),
        (Some(stream), None, None) => Ok(Substrate::Streamed(stream_params_from_json(stream)?)),
        (Some(stream), None, Some(fleet)) => Ok(Substrate::Fleet(
            stream_params_from_json(stream)?,
            fleet_params_from_json(fleet)?,
        )),
        (None, Some(deploy), None) => Ok(Substrate::Deployed(deploy_params_from_json(deploy)?)),
        _ => Err(JsonError::msg(format!(
            "scenario `{name}`: `deploy` params go alone and `fleet` params need `stream` ones"
        ))),
    }
}

fn record_from_json(v: &Json) -> Result<ScenarioRecord, JsonError> {
    let family_name = v.get("family")?.as_str()?;
    let family = ScenarioFamily::from_name(family_name)
        .ok_or_else(|| JsonError::msg(format!("unknown scenario family `{family_name}`")))?;
    let name = v.get("name")?.as_str()?;
    Ok(ScenarioRecord {
        scenario: Scenario {
            name: name.to_string(),
            description: v.get("description")?.as_str()?.to_string(),
            family,
            config: config_from_json(v.get("config")?)?,
            options: options_from_json(v.get("options")?)?,
            substrate: substrate_from_json(v, name)?,
        },
        avg: RunMetrics::from_json(v.get("avg")?)?,
        per_seed: v
            .get("per_seed")?
            .as_array()?
            .iter()
            .map(RunMetrics::from_json)
            .collect::<Result<_, _>>()?,
        detected_verdicts: verdicts_from_json(v.get("detected_verdicts")?)?,
    })
}

fn document(records: Vec<Json>) -> Json {
    object([
        ("schema_version", Json::from(RESULTS_SCHEMA_VERSION)),
        ("generator", Json::from("dlrv-experiments")),
        ("scenarios", Json::Array(records)),
    ])
}

/// Builds the full sweep document from `(scenario, result)` pairs.
pub fn sweep_to_json(runs: &[(Scenario, ExperimentResult)]) -> Json {
    document(
        runs.iter()
            .map(|(s, r)| record_to_json(RunView::of(s, r), &r.per_seed))
            .collect(),
    )
}

/// Builds the document back from parsed records: the inverse of
/// [`sweep_from_json`], byte for byte on a document this build wrote.
pub fn records_to_json(records: &[ScenarioRecord]) -> Json {
    document(
        records
            .iter()
            .map(|r| record_to_json(r.view(), &r.per_seed))
            .collect(),
    )
}

/// A scenario family earlier documents contain and this build no longer runs
/// (the one-switch ablation the repository benchmark's probes replaced).  Its
/// records are skipped, so committed snapshots that include them keep parsing
/// and keep their place in the report's trend history.
const RETIRED_FAMILY: &str = "hotpath";

/// Parses a sweep document produced by [`sweep_to_json`].
///
/// Rejects documents with a newer `schema_version` than this build understands;
/// skips records of the retired `hotpath` family.
pub fn sweep_from_json(v: &Json) -> Result<Vec<ScenarioRecord>, JsonError> {
    let version = v.get("schema_version")?.as_u64()?;
    if version > RESULTS_SCHEMA_VERSION {
        return Err(JsonError::msg(format!(
            "results schema version {version} is newer than supported {RESULTS_SCHEMA_VERSION}"
        )));
    }
    let mut records = Vec::new();
    for item in v.get("scenarios")?.as_array()? {
        if item.get("family")?.as_str()? != RETIRED_FAMILY {
            records.push(record_from_json(item)?);
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioRegistry;
    use dlrv_trace::{ArrivalModel, CommTopology};

    fn small(name: &str) -> Scenario {
        let mut s = ScenarioRegistry::standard().get(name).expect(name).clone();
        s.config.events_per_process = 5;
        s.config.seeds = vec![1, 2];
        s
    }

    /// Emits `runs`, parses the document back and checks that the scenarios come
    /// back equal and that the parsed records serialize to the same bytes again.
    fn round_trip(runs: &[(Scenario, ExperimentResult)]) -> Vec<ScenarioRecord> {
        let text = sweep_to_json(runs).to_string_pretty();
        let records = sweep_from_json(&Json::parse(&text).expect("parse")).expect("schema");
        assert_eq!(records_to_json(&records).to_string_pretty(), text);
        let scenarios: Vec<&Scenario> = runs.iter().map(|(s, _)| s).collect();
        assert_eq!(
            records.iter().map(|r| &r.scenario).collect::<Vec<_>>(),
            scenarios
        );
        records
    }

    #[test]
    fn sweep_document_round_trips() {
        let scenarios = [small("paper-B-n2"), small("ring-B-n4")];
        let runs: Vec<_> = scenarios.iter().map(|s| (s.clone(), s.run())).collect();
        for (record, (_, result)) in round_trip(&runs).iter().zip(&runs) {
            assert_eq!(record.detected_verdicts, result.detected_verdicts);
        }
    }

    #[test]
    fn config_round_trips_every_shape() {
        for config in [
            ExperimentConfig::paper_default(PaperProperty::A, 2),
            ExperimentConfig {
                comm_mu: None,
                ..ExperimentConfig::paper_default(PaperProperty::C, 4)
            },
            ExperimentConfig {
                arrival: ArrivalModel::Bursty {
                    burst_len: 4,
                    intra_scale: 0.2,
                    gap_scale: 3.0,
                },
                topology: CommTopology::Hotspot { hub: 1 },
                ..ExperimentConfig::paper_default(PaperProperty::F, 5)
            },
        ] {
            let text = config_to_json(&config).to_string_pretty();
            let back = config_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(config, back);
        }
    }

    #[test]
    fn throughput_records_round_trip_with_stream_params() {
        let mut scenario = ScenarioRegistry::standard()
            .get("throughput-B-s200-sh4")
            .expect("registered")
            .clone();
        scenario.config.events_per_process = 4;
        scenario.substrate = Substrate::Streamed(StreamParams::sized(10, 2));
        let runs = vec![(scenario.clone(), scenario.run())];
        let records = round_trip(&runs);
        assert_eq!(records[0].avg.per_shard.len(), 2);
        assert_eq!(records[0].avg.total_events, runs[0].1.avg.total_events);
    }

    #[test]
    fn fleet_records_round_trip_with_members_and_metrics() {
        let mut scenario = ScenarioRegistry::standard()
            .get("fleet-AB-sh4")
            .expect("registered")
            .clone();
        scenario.config.events_per_process = 4;
        let Substrate::Fleet(stream, _) = &mut scenario.substrate else {
            unreachable!("a fleet scenario")
        };
        *stream = StreamParams::sized(6, 2);
        let runs = vec![(scenario.clone(), scenario.run())];
        let records = round_trip(&runs);
        let Substrate::Fleet(_, fleet) = &records[0].scenario.substrate else {
            panic!("fleet survives")
        };
        assert_eq!(fleet.joined_name(), "A+B");
        assert_eq!(records[0].avg.fleet_size, 2);
        assert_eq!(
            records[0].avg.fleet_per_property,
            runs[0].1.avg.fleet_per_property
        );
    }

    #[test]
    fn options_round_trip() {
        let options = MonitorOptions {
            aggregate_tokens: false,
            ..MonitorOptions::default()
        };
        let back = options_from_json(&options_to_json(&options)).unwrap();
        assert_eq!(options, back);
    }

    #[test]
    fn deploy_params_round_trip_and_ignore_the_retired_wire_switch() {
        let params = DeployParams {
            transport: DeployTransport::Unix,
            fault: Some(FaultSpec::parse("delay=1,dup=0.2,seed=7").expect("valid spec")),
        };
        assert_eq!(
            deploy_params_from_json(&deploy_params_to_json(&params)).unwrap(),
            params
        );
        // A deploy record as documents committed before the one-format wire wrote it.
        let Json::Object(mut fields) = deploy_params_to_json(&params) else {
            panic!("deploy params serialize as an object")
        };
        fields.push(("binary_wire".to_string(), Json::Bool(true)));
        assert_eq!(
            deploy_params_from_json(&Json::Object(fields)).unwrap(),
            params
        );
    }

    #[test]
    fn newer_schema_versions_are_rejected() {
        let doc = object([
            ("schema_version", Json::from(RESULTS_SCHEMA_VERSION + 1)),
            ("generator", Json::from("dlrv-experiments")),
            ("scenarios", Json::Array(vec![])),
        ]);
        let err = sweep_from_json(&doc).unwrap_err();
        assert!(err.message.contains("newer than supported"));
    }
}
