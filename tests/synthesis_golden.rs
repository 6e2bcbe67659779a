//! Golden pin of whole synthesized automata: every monitor the paper properties
//! compile to — A–F alone at 2–5 processes, and the `fleet-6` registry (A–F over
//! one shared atom space) at 3 and 4 processes — hashes to the digest recorded on
//! the build before synthesis moved onto bitsets (PR 25).
//!
//! The digest covers the initial state, every verdict, every explicit successor
//! row, every symbolic transition with its id, endpoints and guard literals, and
//! the [`SynthesisReport`].  A renumbered state or transition, a reordered cube or
//! a different intermediate size fails it, which is what the decentralized monitor
//! (transition ids on the wire), Table 5.1 and `BENCH_results.json` rely on.
//!
//! The same automata, and random formulas of the `monitor_lasso_props` generator
//! with and without `X`, also pin the invariant a decentralized monitor's view
//! retirement rests on: every ⊤ or ⊥ state is a sink — all its symbolic
//! transitions are self-loops and every symbol steps it to itself — so a view that
//! reaches one can never move again (`docs/MONITORING.md`, "Retired views").

mod common;

use common::{random_formula, shared_registry};
use dlrv_core::dlrv_automaton::{MonitorAutomaton, SynthesisReport};
use dlrv_core::dlrv_ltl::{Assignment, AtomRegistry, Formula, Verdict};
use dlrv_core::PaperProperty;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// `(label, processes, digest)`: `solo` is the property over its own atoms,
/// `fleet` the same property over the six properties' shared registry.
const GOLDEN: [(&str, usize, u64); 36] = [
    ("solo A", 2, 0x548ed6683871feff),
    ("solo B", 2, 0xaff992175b5781a1),
    ("solo C", 2, 0x548ed6683871feff),
    ("solo D", 2, 0xb937b979ce6345fd),
    ("solo E", 2, 0x87fd5637f761d6a6),
    ("solo F", 2, 0xccdbe39435ea3b5d),
    ("solo A", 3, 0xebc813538b2d82c4),
    ("solo B", 3, 0x8f34e05757366e99),
    ("solo C", 3, 0xebc813538b2d82c4),
    ("solo D", 3, 0x5184659156afd4e9),
    ("solo E", 3, 0x773defcc1f3b4111),
    ("solo F", 3, 0xe6220adc020cf666),
    ("solo A", 4, 0xb937b979ce6345fd),
    ("solo B", 4, 0x87fd5637f761d6a6),
    ("solo C", 4, 0xa77d177b5081948a),
    ("solo D", 4, 0x4cb8d952d42f16ed),
    ("solo E", 4, 0x23afa235ba7cf8be),
    ("solo F", 4, 0x47ddeb16526150d1),
    ("solo A", 5, 0xc2308e0736b0778c),
    ("solo B", 5, 0xccd5ff356eb7f20c),
    ("solo C", 5, 0x14830febec2702ef),
    ("solo D", 5, 0x3e97a0e09e135aad),
    ("solo E", 5, 0x95f6ab24ffd29031),
    ("solo F", 5, 0xba5184a9d76c1cae),
    ("fleet A", 3, 0xcd35156a02d75679),
    ("fleet B", 3, 0x6c35ff5677d28cee),
    ("fleet C", 3, 0xcd35156a02d75679),
    ("fleet D", 3, 0x5184659156afd4e9),
    ("fleet E", 3, 0x773defcc1f3b4111),
    ("fleet F", 3, 0xe6220adc020cf666),
    ("fleet A", 4, 0x1777c4105a9bf6b6),
    ("fleet B", 4, 0xad283bfe09ed1ce9),
    ("fleet C", 4, 0x823b76805761601f),
    ("fleet D", 4, 0x4cb8d952d42f16ed),
    ("fleet E", 4, 0x23afa235ba7cf8be),
    ("fleet F", 4, 0x47ddeb16526150d1),
];

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(m: &MonitorAutomaton, report: &SynthesisReport) -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    d.word(m.n_atoms as u64);
    d.word(m.initial as u64);
    d.word(m.n_states() as u64);
    for s in 0..m.n_states() {
        d.word(match m.verdict(s) {
            Verdict::False => 0,
            Verdict::Unknown => 1,
            Verdict::True => 2,
        });
        for &t in m.successor_row(s) {
            d.word(t as u64);
        }
    }
    d.word(m.transitions.len() as u64);
    for t in &m.transitions {
        for w in [t.id, t.from, t.to, t.guard.len()] {
            d.word(w as u64);
        }
        for lit in t.guard.literals() {
            d.word(lit.atom.index() as u64 * 2 + u64::from(lit.positive));
        }
    }
    let r = report;
    for w in [
        r.n_atoms,
        r.alphabet_size,
        r.gba_nodes_pos,
        r.gba_nodes_neg,
        r.dfa_states_pos,
        r.dfa_states_neg,
        r.product_states,
        r.states,
        r.transitions.total,
        r.transitions.outgoing,
        r.transitions.self_loops,
        r.max_cubes_per_state,
    ] {
        d.word(w as u64);
    }
    d.0
}

/// One pinned automaton: its [`GOLDEN`] label and process count, and what
/// synthesis produced.
type Synthesized = (String, usize, MonitorAutomaton, SynthesisReport);

/// Every pinned automaton, synthesized the way the experiments and the benchmark
/// do it, in [`GOLDEN`]'s order — once for all the tests of this file.
fn synthesize_all() -> &'static [Synthesized] {
    static ALL: OnceLock<Vec<Synthesized>> = OnceLock::new();
    ALL.get_or_init(|| {
        let mut out = Vec::new();
        for n in 2..=5 {
            for prop in PaperProperty::ALL {
                let (formula, reg) = prop.build(n);
                let (m, report) = MonitorAutomaton::synthesize_with_report(&formula, &reg);
                out.push((format!("solo {}", prop.name()), n, m, report));
            }
        }
        for n in [3, 4] {
            // `compile_fleet`'s registry: every property interned in fleet order.
            let mut reg = AtomRegistry::new();
            let formulas: Vec<_> = PaperProperty::ALL
                .iter()
                .map(|p| p.build_in(&mut reg, n))
                .collect();
            for (prop, formula) in PaperProperty::ALL.iter().zip(&formulas) {
                let (m, report) = MonitorAutomaton::synthesize_with_report(formula, &reg);
                out.push((format!("fleet {}", prop.name()), n, m, report));
            }
        }
        out
    })
}

/// Panics unless every final state of `m` is a sink; returns how many it checked.
fn assert_final_states_are_sinks(m: &MonitorAutomaton, what: &str) -> usize {
    let finals: Vec<_> = (0..m.n_states()).filter(|&q| m.is_final(q)).collect();
    for &q in &finals {
        for t in m.transitions_from(q) {
            assert!(
                t.is_self_loop(),
                "{what}: final state {q} leaves by {} to {}",
                t.id,
                t.to
            );
        }
        for sigma in 0..m.n_symbols() as u64 {
            let next = m.step(q, Assignment(sigma));
            assert_eq!(next, q, "{what}: final state {q} moves on {sigma:#b}");
        }
    }
    finals.len()
}

#[test]
fn every_final_state_of_the_paper_and_fleet_automata_is_a_sink() {
    let finals: usize = synthesize_all()
        .iter()
        .map(|(label, n, m, _)| assert_final_states_are_sinks(m, &format!("{label} at {n}")))
        .sum();
    assert!(
        finals >= GOLDEN.len(),
        "every property can be decided: {finals} final states"
    );
}

#[test]
fn every_final_state_of_a_random_formulas_monitor_is_a_sink() {
    const FORMULAS: u64 = 1_200;
    let mut finals = 0;
    for next in [Formula::next as fn(Formula) -> Formula, Formula::globally] {
        for seed in 0..FORMULAS {
            let n_atoms = 1 + (seed % 3) as u32;
            let formula = random_formula(&mut StdRng::seed_from_u64(seed), n_atoms, 8, next);
            let m = MonitorAutomaton::synthesize(&formula, &shared_registry(n_atoms as usize));
            finals += assert_final_states_are_sinks(&m, &format!("{formula} (seed {seed})"));
        }
    }
    assert!(
        finals > FORMULAS as usize,
        "too few final states checked: {finals}"
    );
}

#[test]
fn paper_and_fleet_automata_match_their_golden_digests() {
    let got: Vec<(String, usize, u64)> = synthesize_all()
        .iter()
        .map(|(label, n, m, report)| (label.clone(), *n, digest(m, report)))
        .collect();
    let want: Vec<(String, usize, u64)> = GOLDEN
        .iter()
        .map(|&(label, n, d)| (label.to_string(), n, d))
        .collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(label, n, d)| format!("    (\"{label}\", {n}, {d:#018x}),\n"))
            .collect();
        let moved: Vec<String> = got
            .iter()
            .zip(&want)
            .filter(|(g, w)| g != w)
            .map(|(g, _)| format!("{} at {} processes", g.0, g.1))
            .collect();
        panic!(
            "synthesized automata moved: {}\nthis build's table:\n{table}",
            moved.join(", ")
        );
    }
}
