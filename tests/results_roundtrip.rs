//! Round-trip of the machine-readable results pipeline: a sweep document emitted the
//! way `experiments --target sweep --format json` emits it must parse back via
//! `dlrv-json` and match the in-memory `RunMetrics` **field-for-field** — the
//! integers exactly, the floats bit-for-bit (shortest round-trip formatting), the
//! verdict sets element-for-element — in everything the seed determines, and carry
//! nothing else: the committed `BENCH_results.json` re-serializes, and its
//! scenarios re-run, to the same bytes.

use dlrv::dlrv_json::Json;
use dlrv::dlrv_monitor::RunMetrics;
use dlrv::{
    records_to_json, sweep_from_json, sweep_to_json, ExperimentResult, Scenario, ScenarioRegistry,
    StreamParams, Substrate,
};

/// A scaled-down copy of a registry scenario (fewer events/seeds keep the test fast
/// without changing what is serialized).
fn small(name: &str) -> Scenario {
    let mut scenario = ScenarioRegistry::standard()
        .get(name)
        .unwrap_or_else(|| panic!("scenario `{name}` must be registered"))
        .clone();
    scenario.config.events_per_process = 5;
    scenario.config.seeds = vec![1, 2];
    scenario
}

/// Streams `scenario` through `params` instead of its registry sizing.
fn restream(scenario: &mut Scenario, params: StreamParams) {
    match &mut scenario.substrate {
        Substrate::Streamed(stream) | Substrate::Fleet(stream, _) => *stream = params,
        other => panic!("`{}` is not streamed: {other:?}", scenario.name),
    }
}

#[test]
fn sweep_json_round_trips_run_metrics_field_for_field() {
    // One scenario per family, including an extended shape, a streamed throughput
    // run and a §4.3 overhead pair member, so every serialization path (property
    // letters, comm_mu = None, arrival/topology tags, stream params, per-shard
    // metrics, all-off options, overhead counters) is exercised.
    let mut streamed = small("throughput-B-s200-sh4");
    restream(&mut streamed, StreamParams::sized(8, 2));
    // A fleet run: the scenario carries a `fleet` member list and the metrics
    // carry the fleet size plus per-property slices.
    let mut fleet = small("fleet-AB-sh4");
    restream(&mut fleet, StreamParams::sized(6, 2));
    let scenarios = [
        small("paper-D-n3"),
        small("commfreq-nocomm"),
        small("bursty-C-n4"),
        small("hotspot-D-n4"),
        small("overhead-C-noopt"),
        // A custom LTL spec: the property serializes as a {name, ltl} object
        // instead of a paper letter, and must parse back to an equal spec.
        small("custom-reqack-n2"),
        streamed,
        fleet,
    ];
    let runs: Vec<(Scenario, ExperimentResult)> =
        scenarios.iter().map(|s| (s.clone(), s.run())).collect();

    let text = sweep_to_json(&runs).to_string_pretty();
    let parsed = Json::parse(&text).expect("emitted document must be valid JSON");
    let records = sweep_from_json(&parsed).expect("schema must be accepted");

    assert_eq!(records.len(), runs.len());
    for (record, (scenario, result)) in records.iter().zip(&runs) {
        // The scenario itself (name, family, config incl. workload shape, options).
        assert_eq!(&record.scenario, scenario, "{}", scenario.name);

        // Every metric field, exactly — averages and per-seed alike.
        assert_metrics_eq(&record.avg, &result.avg, &scenario.name);
        assert_eq!(record.per_seed.len(), result.per_seed.len());
        for (parsed_seed, original_seed) in record.per_seed.iter().zip(&result.per_seed) {
            assert_metrics_eq(parsed_seed, original_seed, &scenario.name);
        }
        assert_eq!(record.detected_verdicts, result.detected_verdicts);
    }
}

/// Field-for-field comparison with per-field messages, so a schema regression names
/// the exact metric it broke (a plain `assert_eq!` on the struct would only say
/// "something differs").
fn assert_metrics_eq(parsed: &RunMetrics, original: &RunMetrics, scenario: &str) {
    assert_eq!(
        parsed.n_processes, original.n_processes,
        "{scenario}: n_processes"
    );
    assert_eq!(
        parsed.total_events, original.total_events,
        "{scenario}: total_events"
    );
    assert_eq!(
        parsed.monitor_messages, original.monitor_messages,
        "{scenario}: monitor_messages"
    );
    assert_eq!(
        parsed.program_messages, original.program_messages,
        "{scenario}: program_messages"
    );
    assert_eq!(
        parsed.total_global_views, original.total_global_views,
        "{scenario}: total_global_views"
    );
    // Floats must survive bit-for-bit thanks to shortest round-trip formatting.
    assert_eq!(
        parsed.avg_delayed_events.to_bits(),
        original.avg_delayed_events.to_bits(),
        "{scenario}: avg_delayed_events"
    );
    assert_eq!(
        parsed.delay_time_pct_per_gv.to_bits(),
        original.delay_time_pct_per_gv.to_bits(),
        "{scenario}: delay_time_pct_per_gv"
    );
    assert_eq!(
        parsed.program_time.to_bits(),
        original.program_time.to_bits(),
        "{scenario}: program_time"
    );
    assert_eq!(
        parsed.monitor_extra_time.to_bits(),
        original.monitor_extra_time.to_bits(),
        "{scenario}: monitor_extra_time"
    );
    assert_eq!(
        parsed.detected_final_verdicts, original.detected_final_verdicts,
        "{scenario}: detected_final_verdicts"
    );
    assert_eq!(
        parsed.possible_verdicts, original.possible_verdicts,
        "{scenario}: possible_verdicts"
    );
    // Per-shard rows: what the seed determines of each shard's work.
    let seed_exact = |m: &RunMetrics| -> Vec<[usize; 5]> {
        m.per_shard
            .iter()
            .map(|s| {
                [
                    s.shard,
                    s.sessions_opened,
                    s.sessions_closed,
                    s.events_processed,
                    s.routing_errors,
                ]
            })
            .collect()
    };
    assert_eq!(
        seed_exact(parsed),
        seed_exact(original),
        "{scenario}: per_shard"
    );
    // The §4.3 overhead additions: token traffic and peak view memory.
    assert_eq!(
        parsed.monitor_tokens, original.monitor_tokens,
        "{scenario}: monitor_tokens"
    );
    assert_eq!(
        parsed.peak_global_views, original.peak_global_views,
        "{scenario}: peak_global_views"
    );
    // The fleet additions: member count and the per-property metric slices.
    assert_eq!(
        parsed.fleet_size, original.fleet_size,
        "{scenario}: fleet_size"
    );
    assert_eq!(
        parsed.fleet_per_property, original.fleet_per_property,
        "{scenario}: fleet_per_property"
    );
    // What measures the host is kept out of the document: a freshly parsed record
    // reads as unmeasured, so re-serializing it reproduces the bytes it came from.
    assert_eq!(
        (
            parsed.wall_clock_secs,
            parsed.events_per_sec,
            parsed.peak_rss_bytes
        ),
        (0.0, 0.0, 0),
        "{scenario}: host-measured run fields"
    );
    assert_eq!(
        parsed.to_json(),
        original.to_json(),
        "{scenario}: serialized form"
    );
}

#[test]
fn fleet_fields_are_populated_and_survive_the_roundtrip() {
    // The fleet fields are measured, not merely serialized: each run of a
    // two-member fleet records its size and one metric slice per property — and
    // all of it comes back intact from the JSON document.  The slices are a
    // run's own, so the average of two seeds carries none.
    let mut scenario = small("fleet-AB-sh4");
    restream(&mut scenario, StreamParams::sized(6, 2));
    let result = scenario.run();
    assert_eq!(result.avg.fleet_size, 2, "two members");
    assert_eq!(result.per_seed.len(), 2);
    for run in &result.per_seed {
        let names: Vec<&str> = run
            .fleet_per_property
            .iter()
            .map(|p| p.property.as_str())
            .collect();
        assert_eq!(names, ["A", "B"], "one slice per member, in fleet order");
    }
    assert!(result.avg.fleet_per_property.is_empty());
    let doc = sweep_to_json(&[(scenario, result.clone())]);
    let record = &sweep_from_json(&doc).expect("schema")[0];
    assert_eq!(record.avg.fleet_size, result.avg.fleet_size);
    for (parsed, original) in record.per_seed.iter().zip(&result.per_seed) {
        assert_eq!(parsed.fleet_per_property, original.fleet_per_property);
    }
}

#[test]
fn overhead_fields_are_populated_and_survive_the_roundtrip() {
    // The overhead counters are not merely serialized — an offline run measures
    // them: the C/no-opt member explores concurrent cuts, so tokens flow and more
    // than the initial views are live at the peak.
    let scenario = small("overhead-C-noopt");
    let result = scenario.run();
    assert!(result.avg.monitor_tokens > 0, "C explores via tokens");
    assert!(result.avg.peak_global_views >= scenario.config.n_processes);
    let doc = sweep_to_json(&[(scenario, result.clone())]);
    let record = &sweep_from_json(&doc).expect("schema")[0];
    assert_eq!(record.avg.monitor_tokens, result.avg.monitor_tokens);
    assert_eq!(record.avg.peak_global_views, result.avg.peak_global_views);
}

#[test]
fn zero_event_shards_emit_zeroed_per_shard_rows_that_round_trip() {
    // One session across four shards: sessions pin to `session % n_shards`, so
    // three shards never see an event.  Each idle shard must still emit its own
    // per-shard JSON row — all counters zero, `backpressure_stalls` included —
    // and the full per-shard vector must survive the document round-trip.  A
    // missing row would make shard arrays ragged across scenarios and silently
    // break per-shard joins in the report dashboard.
    let mut scenario = small("throughput-B-s200-sh4");
    restream(&mut scenario, StreamParams::sized(1, 4));
    let result = scenario.run();

    let shards = &result.per_seed[0].per_shard;
    assert_eq!(shards.len(), 4, "one row per shard, idle shards included");
    let idle: Vec<_> = shards.iter().filter(|m| m.events_processed == 0).collect();
    assert_eq!(idle.len(), 3, "exactly one shard owns the single session");
    for m in &idle {
        assert_eq!(m.sessions_opened, 0, "shard {}: sessions_opened", m.shard);
        assert_eq!(m.sessions_closed, 0, "shard {}: sessions_closed", m.shard);
        assert_eq!(
            m.backpressure_stalls, 0,
            "shard {}: backpressure_stalls",
            m.shard
        );
    }
    // Shard ids must stay a dense 0..n range even with idle members.
    let ids: Vec<usize> = shards.iter().map(|m| m.shard).collect();
    assert_eq!(ids, vec![0, 1, 2, 3]);

    let doc = sweep_to_json(&[(scenario, result.clone())]);
    let raw_rows = doc.get("scenarios").unwrap().as_array().unwrap()[0]
        .get("per_seed")
        .unwrap()
        .as_array()
        .unwrap()[0]
        .get("per_shard")
        .unwrap()
        .as_array()
        .unwrap()
        .len();
    assert_eq!(raw_rows, 4, "the emitted JSON itself carries all four rows");
    let record = &sweep_from_json(&doc).expect("schema")[0];
    assert_metrics_eq(
        &record.per_seed[0],
        &result.per_seed[0],
        "one session on four shards",
    );
    assert_eq!(record.per_seed[0].per_shard.len(), 4);
}

#[test]
fn scenario_wall_clock_duration_is_reported() {
    // The per-scenario duration is measured for any scenario that actually ran —
    // the terminal tables show it — and is not part of the document.
    let scenario = small("paper-B-n2");
    let result = scenario.run();
    assert!(result.avg.wall_clock_secs > 0.0);
    let doc = sweep_to_json(&[(scenario, result)]);
    let record = &doc.get("scenarios").unwrap().as_array().unwrap()[0];
    assert!(record
        .get("avg")
        .unwrap()
        .get_opt("wall_clock_secs")
        .unwrap()
        .is_none());
}

#[test]
fn emitted_document_declares_current_schema_version() {
    let scenario = small("paper-B-n2");
    let runs = vec![(scenario.clone(), scenario.run())];
    let doc = sweep_to_json(&runs);
    assert_eq!(
        doc.get("schema_version").unwrap().as_u64().unwrap(),
        dlrv::RESULTS_SCHEMA_VERSION
    );
    assert_eq!(
        doc.get("generator").unwrap().as_str().unwrap(),
        "dlrv-experiments"
    );
}

/// The value under `key` of a JSON object, inserted as `null` when absent.
fn field_mut<'a>(object: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Object(fields) = object else {
        panic!("`{key}` looked up in a non-object");
    };
    let at = match fields.iter().position(|(k, _)| k == key) {
        Some(at) => at,
        None => {
            fields.push((key.to_string(), Json::Null));
            fields.len() - 1
        }
    };
    &mut fields[at].1
}

#[test]
fn documents_with_the_retired_switches_and_family_still_parse() {
    // A PR-10-shaped fragment: a `throughput` record whose `stream` object still
    // carries `binary_wire` / `use_rings` and whose `options` object still carries
    // `arena_recycling`, next to a record of the retired `hotpath` family.  The
    // switches are ignored and the retired record is skipped, so committed snapshots of that shape keep their place in the
    // report's trend history instead of failing the whole document.
    let mut scenario = small("throughput-B-s200-sh4");
    restream(&mut scenario, StreamParams::sized(4, 1));
    let result = scenario.run();
    let mut throughput = sweep_to_json(&[(scenario.clone(), result.clone())])
        .get("scenarios")
        .unwrap()
        .as_array()
        .unwrap()[0]
        .clone();
    *field_mut(field_mut(&mut throughput, "stream"), "binary_wire") = Json::Bool(true);
    *field_mut(field_mut(&mut throughput, "stream"), "use_rings") = Json::Bool(false);
    *field_mut(field_mut(&mut throughput, "options"), "arena_recycling") = Json::Bool(false);
    // Documents of that age also carry the host-measured fields; they are read.
    *field_mut(field_mut(&mut throughput, "avg"), "wall_clock_secs") = Json::from(0.25);
    *field_mut(field_mut(&mut throughput, "avg"), "events_per_sec") = Json::from(1234.5);
    let Json::Array(seeds) = field_mut(&mut throughput, "per_seed") else {
        panic!("per_seed is an array")
    };
    let Json::Array(shards) = field_mut(&mut seeds[0], "per_shard") else {
        panic!("per_shard is an array")
    };
    *field_mut(&mut shards[0], "backpressure_stalls") = Json::from(3usize);
    *field_mut(&mut shards[0], "busy_secs") = Json::from(0.125);
    let mut hotpath = throughput.clone();
    *field_mut(&mut hotpath, "name") = Json::from("hotpath-C-s400-sh1-off");
    *field_mut(&mut hotpath, "family") = Json::from("hotpath");

    let mut doc = sweep_to_json(&[]);
    *field_mut(&mut doc, "scenarios") = Json::Array(vec![hotpath, throughput]);
    let text = doc.to_string_pretty();
    assert!(text.contains("\"use_rings\"") && text.contains("\"hotpath\""));
    assert!(text.contains("\"arena_recycling\""));

    let records = sweep_from_json(&Json::parse(&text).expect("valid JSON")).expect("schema");
    assert_eq!(records.len(), 1, "the retired family's record is skipped");
    assert_eq!(records[0].scenario, scenario);
    let mut read = records[0].avg.clone();
    assert_eq!((read.wall_clock_secs, read.events_per_sec), (0.25, 1234.5));
    let shard = &records[0].per_seed[0].per_shard[0];
    assert_eq!((shard.backpressure_stalls, shard.busy_secs), (3, 0.125));
    (read.wall_clock_secs, read.events_per_sec) = (0.0, 0.0);
    assert_metrics_eq(&read, &result.avg, "throughput record");
}

#[test]
fn a_record_with_params_of_two_substrates_is_rejected() {
    // A record carries the params of one substrate: `stream` (with `fleet` on a
    // fleet), or `deploy`.  A deploy record that also streams, and a fleet that
    // does not stream, name no substrate a scenario can run on.
    let record = |name: &str| {
        let mut scenario = small(name);
        restream(&mut scenario, StreamParams::sized(4, 1));
        sweep_to_json(&[(scenario.clone(), scenario.run())])
            .get("scenarios")
            .unwrap()
            .as_array()
            .unwrap()[0]
            .clone()
    };
    let mut streamed_and_deployed = record("throughput-B-s200-sh4");
    *field_mut(&mut streamed_and_deployed, "deploy") =
        Json::parse(r#"{"transport": "unix", "fault": null}"#).unwrap();
    let mut unstreamed_fleet = record("fleet-AB-sh4");
    *field_mut(&mut unstreamed_fleet, "stream") = Json::Null;
    for (record, name) in [
        (streamed_and_deployed, "throughput-B-s200-sh4"),
        (unstreamed_fleet, "fleet-AB-sh4"),
    ] {
        let mut doc = sweep_to_json(&[]);
        *field_mut(&mut doc, "scenarios") = Json::Array(vec![record]);
        let err = sweep_from_json(&doc).expect_err("no substrate has these params");
        assert!(
            err.message.contains(&format!("`{name}`")),
            "the error names the record: {err}"
        );
    }
}

/// The eleven fields that measure the host rather than the monitored run.  The
/// fleet's solo-sum wall clock and marginal cost are no longer measured at all;
/// documents from before that still carry them, this one must not.
const HOST_MEASURED_FIELDS: [&str; 11] = [
    "wall_clock_secs",
    "events_per_sec",
    "peak_rss_bytes",
    "fleet_solo_wall_clock_secs",
    "fleet_marginal_cost_secs",
    "batches",
    "max_batch_len",
    "busy_secs",
    "avg_queue_latency_secs",
    "max_queue_latency_secs",
    "backpressure_stalls",
];

/// The committed five-target document.
fn committed_document() -> String {
    std::fs::read_to_string("BENCH_results.json").expect("the committed results document")
}

#[test]
fn committed_document_reserializes_byte_for_byte() {
    let text = committed_document();
    let records = sweep_from_json(&Json::parse(&text).expect("valid JSON")).expect("schema");
    assert_eq!(records.len(), 86);
    let mut again = records_to_json(&records).to_string_pretty();
    again.push('\n');
    assert!(
        again == text,
        "parse → serialize must reproduce BENCH_results.json"
    );
}

#[test]
fn committed_scenarios_rerun_to_the_committed_bytes_without_host_measurements() {
    // One offline scenario, one member of a §4.3 pair and one custom LTL spec, at
    // their committed size: what a fresh run writes is the committed record.  This
    // is the regression pin CI applies to all 86 scenarios with `cmp`.
    let text = committed_document();
    let committed = Json::parse(&text).expect("valid JSON");
    let committed = committed.get("scenarios").unwrap().as_array().unwrap();
    let registry = ScenarioRegistry::standard();
    for name in ["paper-B-n3", "overhead-C-opts", "custom-reqack-n2"] {
        let scenario = registry.get(name).expect(name).clone();
        let fresh = sweep_to_json(&[(scenario.clone(), scenario.run())]).to_string_pretty();
        for field in HOST_MEASURED_FIELDS {
            assert!(
                !fresh.contains(&format!("\"{field}\"")),
                "{name}: `{field}` was written"
            );
        }
        let fresh = Json::parse(&fresh).expect("valid JSON");
        let fresh = &fresh.get("scenarios").unwrap().as_array().unwrap()[0];
        let pinned = committed
            .iter()
            .find(|r| r.get("name").unwrap().as_str().unwrap() == name)
            .unwrap_or_else(|| panic!("`{name}` is committed"));
        assert_eq!(
            fresh.to_string_pretty(),
            pinned.to_string_pretty(),
            "{name}"
        );
    }
    for field in HOST_MEASURED_FIELDS {
        assert!(
            !text.contains(&format!("\"{field}\"")),
            "committed document carries `{field}`"
        );
    }
}
