//! Property-based fleet/solo agreement: for *random* LTL formula pairs (the
//! `monitor_lasso_props` generator, re-seeded here), monitoring both formulas
//! as a two-member fleet over a random workload must report exactly what two
//! solo runs over the same wire bytes report — verdicts, token counts and view
//! counts, member for member.
//!
//! The named-scenario pins in `tests/fleet_equivalence.rs` cover the paper's
//! six properties; this sweep covers the automaton shapes users can produce
//! through `--properties`/`--property-file` fleets.

mod common;

use common::{random_formula, shared_registry};
use dlrv::dlrv_automaton::MonitorAutomaton;
use dlrv::dlrv_ltl::{AtomRegistry, Formula};
use dlrv::dlrv_monitor::MonitorOptions;
use dlrv::dlrv_stream::{
    encode_stream_binary, interleave_sessions, FleetMemberSpec, ReaderSource, SessionOutcome,
    SessionSpec, SessionStream, ShardedRuntime, StreamConfig,
};
use dlrv::dlrv_trace::WorkloadConfig;
use dlrv::simulate_session;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Pumps `bytes` through a fresh runtime.  With an empty `fleet_automata` the
/// session monitors `automaton` solo; otherwise it monitors the whole fleet,
/// every member seeded with the session's own initial state.
fn pump(
    bytes: &[u8],
    registry: &Arc<AtomRegistry>,
    automaton: &Arc<MonitorAutomaton>,
    fleet_automata: &[Arc<MonitorAutomaton>],
    opts: MonitorOptions,
    n_shards: usize,
) -> BTreeMap<u64, SessionOutcome> {
    let runtime = ShardedRuntime::start(StreamConfig {
        n_shards,
        mailbox_capacity: 8,
        batch_size: 4,
        ..StreamConfig::default()
    });
    let mut source = ReaderSource::new(bytes);
    runtime
        .pump(&mut source, &mut |open| {
            Ok(Arc::new(SessionSpec {
                n_processes: open.n_processes,
                automaton: automaton.clone(),
                registry: registry.clone(),
                initial_state: open.initial_state,
                options: opts,
                fleet: fleet_automata
                    .iter()
                    .enumerate()
                    .map(|(k, member)| FleetMemberSpec {
                        property: format!("f{k}"),
                        automaton: member.clone(),
                        registry: registry.clone(),
                        initial_state: open.initial_state,
                    })
                    .collect(),
            }))
        })
        .expect("freshly encoded stream must decode");
    runtime.shutdown().sessions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random two-formula fleet agrees with its two solo runs on every
    /// per-property observation, across 1 and 2 shards and a seed-picked §4.3
    /// optimization combination.
    #[test]
    fn random_formula_pairs_as_fleet_agree_with_solo_runs(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_processes = 3usize;
        let registry = Arc::new(shared_registry(n_processes));
        let formulas = [
            random_formula(&mut rng, n_processes as u32, 7, Formula::next),
            random_formula(&mut rng, n_processes as u32, 7, Formula::next),
        ];
        let automata: Vec<Arc<MonitorAutomaton>> = formulas
            .iter()
            .map(|f| Arc::new(MonitorAutomaton::synthesize(f, &registry)))
            .collect();
        let combos = MonitorOptions::all_combinations();
        let opts = combos[rng.gen_range(0..combos.len())];

        // Two random sessions over the shared registry.
        let mut inputs = Vec::new();
        for s in 0..2u64 {
            let session = simulate_session(
                &WorkloadConfig {
                    n_processes,
                    events_per_process: 5,
                    seed: rng.gen_range(0u64..1_000_000),
                    initial_p: rng.gen_bool(0.5),
                    ..WorkloadConfig::default()
                },
                &registry,
            );
            inputs.push(SessionStream {
                session: s,
                property: "pair".to_string(),
                n_processes,
                initial_state: session.initial_state.0,
                events: session.events,
            });
        }
        let bytes = encode_stream_binary(&interleave_sessions(&inputs));

        for n_shards in [1usize, 2] {
            let fleet_sessions =
                pump(&bytes, &registry, &automata[0], &automata, opts, n_shards);
            for (k, automaton) in automata.iter().enumerate() {
                let solo = pump(&bytes, &registry, automaton, &[], opts, n_shards);
                prop_assert_eq!(fleet_sessions.len(), solo.len());
                for (session, solo_outcome) in &solo {
                    let member = &fleet_sessions[session].per_property[k];
                    let tag = format!(
                        "seed {seed}, member {k} ({}), session {session}, {n_shards} shards, \
                         {opts:?}",
                        formulas[k]
                    );
                    assert_eq!(
                        member.detected_verdicts, solo_outcome.detected_verdicts,
                        "{}: detected verdicts diverge", tag
                    );
                    assert_eq!(
                        member.possible_verdicts, solo_outcome.possible_verdicts,
                        "{}: possible verdicts diverge", tag
                    );
                    assert_eq!(
                        member.verdict, solo_outcome.verdict,
                        "{}: combined verdicts diverge", tag
                    );
                    assert_eq!(
                        member.monitor_tokens, solo_outcome.monitor_tokens,
                        "{}: token counts diverge", tag
                    );
                    assert_eq!(
                        member.global_views, solo_outcome.global_views,
                        "{}: view counts diverge", tag
                    );
                }
            }
        }
    }
}
