//! Cross-crate soundness and completeness tests: the decentralized monitors are
//! compared against the centralized lattice oracle (Chapter 3) on whole executions.
//!
//! * **Soundness** — every ⊤/⊥ verdict a monitor detects must be reachable on some
//!   lattice path of the actual computation (Equation 3.2 of the thesis).
//! * **Completeness (violations/satisfactions)** — if the oracle finds a lattice path
//!   reaching ⊥ (resp. ⊤), some monitor must detect ⊥ (resp. ⊤) as well
//!   (Equation 3.1 restricted to final verdicts, which is what the monitors report to
//!   the program).
//!
//! Beyond the paper's six properties, a seeded sweep checks soundness for random LTL
//! over random small computations.  It is **not clean**: the seeds it is known to
//! fail on are listed ([`KNOWN_UNSOUND`]) and described under "Open findings" in
//! `docs/MONITORING.md`.  The sweep goes through `FeedSession`; a second test pumps
//! its first 300 computations through the stream runtime and pins the same verdicts
//! there, so the lists speak for that substrate too; a third runs its first 40
//! formulas that name an atom, and the deploy family's property D, as `monitord`
//! fleets and pins verdicts and message counts against the replay, so no
//! substrate is left on the paper's six alone.
//! All three run with the §4.3 suite on and off.
//!
//! All of those deliver every message before the next event.  A fourth test drives
//! the monitors directly through sampled asynchronous FIFO schedules of the same
//! computations; the seeds on which some schedule misses a reachable verdict are
//! listed ([`KNOWN_SCHEDULE_INCOMPLETE`]).
//!
//! The **oracle ledger** counts, for the paper's six properties over the sessions of
//! the benchmark's `fleet-6` workload, the sessions that miss a reachable verdict and
//! the ones that detect an unreachable one, and holds both to the counts of the
//! commit before tokens were served local-first: the safety net of a routing change,
//! which moves message counts and so cannot be judged by equality with its parent.

mod common;

use common::{random_formula, shared_registry};
use dlrv_core::dlrv_automaton::MonitorAutomaton;
use dlrv_core::dlrv_distsim::{
    run_simulation, MonitorBehavior, MonitorContext, NullMonitor, SimConfig,
};
use dlrv_core::dlrv_ltl::{Assignment, AtomRegistry, Formula, Verdict, Verdicts};
use dlrv_core::dlrv_monitor::{
    replay_decentralized, DecentralizedMonitor, MonitorMsg, MonitorOptions,
};
use dlrv_core::dlrv_stream::{
    encode_stream_binary, interleave_sessions, ReaderSource, SessionSpec, SessionStream,
    ShardedRuntime, StreamConfig,
};
use dlrv_core::dlrv_trace::{generate_workload, WorkloadConfig};
use dlrv_core::dlrv_vclock::{oracle_evaluate, Computation, Lattice, OracleResult};
use dlrv_core::{
    run_deploy, session_seed, simulate_session, CompiledProperty, DeployParams, DeployTransport,
    ExperimentConfig, PaperProperty, PropertySpec, ScenarioRegistry,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// The verdicts the decentralized monitors detect on the computation of `workload`
/// under each of `options`, next to the oracle's evaluation of the same computation.
fn detect(
    formula: &Formula,
    registry: AtomRegistry,
    workload: &WorkloadConfig,
    options: &[MonitorOptions],
) -> (OracleResult, Vec<Verdicts>) {
    let automaton = Arc::new(MonitorAutomaton::synthesize(formula, &registry));
    detect_compiled(&automaton, &Arc::new(registry), workload, options)
}

/// [`detect`] for a property synthesized once and run over many computations.
fn detect_compiled(
    automaton: &Arc<MonitorAutomaton>,
    registry: &Arc<AtomRegistry>,
    workload: &WorkloadConfig,
    options: &[MonitorOptions],
) -> (OracleResult, Vec<Verdicts>) {
    let comp = simulate_session(workload, registry).report.computation;
    let oracle = oracle_evaluate(&comp, &Lattice::build(&comp), automaton, registry);
    let detected = options
        .iter()
        .map(|&opts| {
            replay_decentralized(&comp, registry, automaton, opts).detected_final_verdicts()
        })
        .collect();
    (oracle, detected)
}

/// Whether every detected ⊤/⊥ is reachable on some lattice path.
fn sound(oracle: &OracleResult, detected: &Verdicts) -> bool {
    (oracle.violation_reachable || !detected.contains(&Verdict::False))
        && (oracle.satisfaction_reachable || !detected.contains(&Verdict::True))
}

/// A paper property on `n` processes: the oracle's evaluation and what the monitors
/// detect under the default options.
fn compare(
    property: PaperProperty,
    n: usize,
    events: usize,
    seed: u64,
    comm_mu: Option<f64>,
) -> (OracleResult, Verdicts) {
    let (formula, registry) = property.build(n);
    let workload = WorkloadConfig {
        n_processes: n,
        events_per_process: events,
        comm_mu,
        seed,
        ..WorkloadConfig::default()
    };
    let (oracle, mut detected) =
        detect(&formula, registry, &workload, &[MonitorOptions::default()]);
    (oracle, detected.remove(0))
}

#[test]
fn soundness_of_final_verdicts_across_properties_and_seeds() {
    for property in [
        PaperProperty::A,
        PaperProperty::B,
        PaperProperty::C,
        PaperProperty::D,
    ] {
        for seed in 1..=4u64 {
            let (oracle, detected) = compare(property, 3, 6, seed, Some(3.0));
            assert!(
                sound(&oracle, &detected),
                "{property} seed {seed}: monitors declared {detected:?}, unreachable on the lattice"
            );
        }
    }
}

#[test]
fn completeness_for_reachability_properties() {
    // Properties B and E are reachability properties; thanks to the workload's goal
    // tail, satisfaction is always reachable on some lattice path, and the monitors
    // must find it.
    for property in [PaperProperty::B, PaperProperty::E] {
        for seed in 1..=3u64 {
            let (oracle, detected) = compare(property, 3, 6, seed, Some(3.0));
            assert!(
                oracle.satisfaction_reachable,
                "{property}: workload should allow ⊤"
            );
            assert!(
                detected.contains(&Verdict::True),
                "{property} seed {seed}: oracle reaches ⊤ but monitors did not detect it"
            );
        }
    }
}

#[test]
fn completeness_without_any_communication() {
    // With no program communication every pair of events of different processes is
    // concurrent — the hardest case for detecting a global conjunction.
    for seed in 1..=3u64 {
        let (oracle, detected) = compare(PaperProperty::B, 3, 5, seed, None);
        assert!(oracle.satisfaction_reachable);
        assert!(
            detected.contains(&Verdict::True),
            "seed {seed}: concurrent satisfaction missed without communication"
        );
    }
}

#[test]
fn safety_violation_detection_matches_oracle_on_crafted_computation() {
    // Hand-crafted two-process computation with no communication: P0 raises p then
    // lowers it; P1 raises p late.  For G !(P0.p && P1.p) the oracle finds a violating
    // interleaving (both true concurrently); the monitors must find it too.
    use dlrv_core::dlrv_vclock::{Event, EventKind, VectorClock};
    let mut reg = AtomRegistry::new();
    let a = reg.intern("P0.p", 0);
    let b = reg.intern("P1.p", 1);
    let mut comp = Computation::new(vec![Assignment::ALL_FALSE, Assignment::ALL_FALSE]);
    let mk = |process: usize, sn: u64, vc: Vec<u64>, state: Assignment, time: f64| Event {
        process,
        kind: EventKind::Internal,
        sn,
        vc: VectorClock::from_entries(vc),
        state,
        time,
    };
    comp.push(mk(0, 1, vec![1, 0], Assignment::from_true_atoms([a]), 1.0));
    comp.push(mk(0, 2, vec![2, 0], Assignment::ALL_FALSE, 2.0));
    comp.push(mk(1, 1, vec![0, 1], Assignment::from_true_atoms([b]), 3.0));

    let phi = Formula::globally(Formula::not(Formula::and(
        Formula::Atom(a),
        Formula::Atom(b),
    )));
    let automaton = Arc::new(MonitorAutomaton::synthesize(&phi, &reg));
    let registry = Arc::new(reg);

    let lattice = Lattice::build(&comp);
    let oracle = oracle_evaluate(&comp, &lattice, &automaton, &registry);
    assert!(
        oracle.violation_reachable,
        "the oracle must see the concurrent violation"
    );

    let result = replay_decentralized(&comp, &registry, &automaton, MonitorOptions::default());
    assert!(
        result.detected_final_verdicts().contains(&Verdict::False),
        "decentralized monitors must detect the concurrent violation: {:?}",
        result.possible_verdicts()
    );
}

#[test]
fn no_false_alarm_when_property_cannot_be_decided() {
    // G(P0.p -> F P1.p) is neither finitely satisfiable nor finitely refutable, so the
    // monitors must never report ⊥ or ⊤ for it, on any execution.
    let mut reg = AtomRegistry::new();
    let a = reg.intern("P0.p", 0);
    let b = reg.intern("P1.p", 1);
    let phi = Formula::globally(Formula::implies(
        Formula::Atom(a),
        Formula::eventually(Formula::Atom(b)),
    ));
    let automaton = Arc::new(MonitorAutomaton::synthesize(&phi, &reg));
    let registry = Arc::new(reg);
    let workload = generate_workload(&WorkloadConfig {
        n_processes: 2,
        events_per_process: 5,
        ..WorkloadConfig::default()
    });
    let report = run_simulation(&workload, &registry, &SimConfig::default(), |_| {
        NullMonitor::default()
    });
    let result = replay_decentralized(
        &report.computation,
        &registry,
        &automaton,
        MonitorOptions::default(),
    );
    assert!(result.detected_final_verdicts().is_empty());
    assert_eq!(
        result.possible_verdicts(),
        Verdicts::from([Verdict::Unknown])
    );
}

#[test]
fn optimizations_do_not_change_detected_verdicts() {
    // Ablation consistency: every combination of the three §4.3 switches must report
    // exactly the verdicts of the all-off baseline (they only affect cost), and each
    // must stay sound against the lattice oracle.
    for property in [PaperProperty::B, PaperProperty::C, PaperProperty::D] {
        let (formula, registry) = property.build(3);
        let automaton = Arc::new(MonitorAutomaton::synthesize(&formula, &registry));
        let registry = Arc::new(registry);
        let workload = generate_workload(&WorkloadConfig {
            n_processes: 3,
            events_per_process: 6,
            seed: 9,
            ..WorkloadConfig::default()
        });
        let report = run_simulation(&workload, &registry, &SimConfig::default(), |_| {
            NullMonitor::default()
        });
        let comp = report.computation;
        let lattice = Lattice::build(&comp);
        let oracle = oracle_evaluate(&comp, &lattice, &automaton, &registry);

        let baseline = replay_decentralized(&comp, &registry, &automaton, MonitorOptions::ALL_OFF);
        for opts in MonitorOptions::all_combinations() {
            let result = replay_decentralized(&comp, &registry, &automaton, opts);
            assert_eq!(
                result.detected_final_verdicts(),
                baseline.detected_final_verdicts(),
                "{property} with {opts:?}: detected verdicts diverged from baseline"
            );
            assert_eq!(
                result.possible_verdicts(),
                baseline.possible_verdicts(),
                "{property} with {opts:?}: possible verdicts diverged from baseline"
            );
            let detected = result.detected_final_verdicts();
            if detected.contains(&Verdict::False) {
                assert!(
                    oracle.violation_reachable,
                    "{property} with {opts:?}: unsound ⊥"
                );
            }
            if detected.contains(&Verdict::True) {
                assert!(
                    oracle.satisfaction_reachable,
                    "{property} with {opts:?}: unsound ⊤"
                );
            }
        }
    }
}

/// Seeds of the `X`-free sweep on which the monitors detect a verdict no lattice
/// path reaches, identically with the §4.3 optimizations on and off.  An open
/// finding, not an allowance: the sweep also fails when a listed seed stops
/// disagreeing, so whatever fixes one deletes its entry.
const KNOWN_UNSOUND: [u64; 9] = [229, 802, 1039, 1301, 2065, 2246, 2486, 2513, 2569];

/// The same for the generator as it is, `X` included.
const KNOWN_UNSOUND_WITH_NEXT: [u64; 25] = [
    7, 19, 43, 44, 71, 73, 125, 143, 155, 158, 178, 181, 224, 229, 271, 277, 287, 292, 320, 346,
    347, 358, 365, 385, 394,
];

/// Seeds of the `X`-free sweep on which the two option sets detect different
/// verdicts: on 1673 the default suite misses a reachable ⊥ that all-off finds.
const KNOWN_OPTION_DEPENDENT: [u64; 1] = [1673];

type Next = fn(Formula) -> Formula;

/// Case `seed` of the sweep: random LTL (the `fleet_props` generator, budget 8, one
/// `P<i>.p` atom per process) and a random small computation (2–3 processes, 4
/// events each, every third seed without communication).
fn sweep_case(seed: u64, next: Next) -> (Formula, WorkloadConfig) {
    let n = 2 + (seed % 2) as usize;
    let formula = random_formula(&mut StdRng::seed_from_u64(seed), n as u32, 8, next);
    let workload = WorkloadConfig {
        n_processes: n,
        events_per_process: 4,
        comm_mu: if seed.is_multiple_of(3) {
            None
        } else {
            Some(3.0)
        },
        seed,
        ..WorkloadConfig::default()
    };
    (formula, workload)
}

#[test]
fn random_ltl_verdicts_are_reachable_on_the_lattice_except_on_the_known_seeds() {
    // Every [`sweep_case`] through `FeedSession` — which `replay_decentralized`
    // drives — with the §4.3 suite on and off.
    let options = [MonitorOptions::default(), MonitorOptions::ALL_OFF];
    let without_next = (
        Formula::globally as Next,
        3000,
        &KNOWN_UNSOUND[..],
        &KNOWN_OPTION_DEPENDENT[..],
    );
    let with_next = (
        Formula::next as Next,
        400,
        &KNOWN_UNSOUND_WITH_NEXT[..],
        &[][..],
    );
    for (next, seeds, known_unsound, known_option_dependent) in [without_next, with_next] {
        let (mut unsound, mut option_dependent) = (Vec::new(), Vec::new());
        for seed in 0..seeds {
            let (formula, workload) = sweep_case(seed, next);
            let registry = shared_registry(workload.n_processes);
            let (oracle, detected) = detect(&formula, registry, &workload, &options);
            if detected.iter().any(|d| !sound(&oracle, d)) {
                unsound.push(seed);
            }
            if detected[0] != detected[1] {
                option_dependent.push(seed);
            }
        }
        assert_eq!(
            unsound, known_unsound,
            "seeds detecting an unreachable verdict"
        );
        assert_eq!(
            option_dependent, known_option_dependent,
            "seeds where the options matter"
        );
    }
}

#[test]
fn sweep_seed_1039_detects_the_same_with_the_suite_on_and_off() {
    // The case that decides how a terminated monitor sweeps a view's backlog
    // (docs/MONITORING.md, step 5): if §4.3.2's in-flight suppression stayed on after
    // termination, the view's own token — still out, where it used to be home before
    // the next queued event was looked at — would silence the explorations behind it
    // under `default()` and not under `ALL_OFF`, and the two would part here.
    let (formula, workload) = sweep_case(1039, Formula::globally);
    let registry = shared_registry(workload.n_processes);
    let options = [MonitorOptions::default(), MonitorOptions::ALL_OFF];
    let (_, detected) = detect(&formula, registry, &workload, &options);
    assert_eq!(detected[0], detected[1], "{formula:?}");
}

/// A known completeness miss with §4.3.3 off (docs/MONITORING.md, "Open
/// findings"): on this two-process session `default()` detects both reachable
/// verdicts and `prune_disjunctive: false` detects ⊥ only.  Not an allowance:
/// the test pins today's sets, so it fails once the miss disappears, and
/// whatever fixes it updates the pin and the finding.
#[test]
fn pruning_off_misses_a_reachable_top_on_a_two_process_until_session() {
    // φ = ¬(P0.p ∧ (P1.p ∨ P1.q)) U (P0.p ∧ P1.p): ⊤ where P0.p meets P1.p, ⊥
    // where it meets P1.q alone.  P1 records P1.q, then P1.p (times 1, 2); P0
    // records P0.p twice (times 3, 4); no process hears from the other, so the
    // replay feeds P1's events first.  The oracle reaches {⊥, ⊤}: ⊥ at cut
    // (1, 1), ⊤ at cut (1, 2) — `(P0's events, P1's events)`.
    use dlrv_core::dlrv_vclock::{Event, EventKind, VectorClock};
    let mut reg = AtomRegistry::new();
    let p0 = reg.intern("P0.p", 0);
    let p1 = reg.intern("P1.p", 1);
    let q1 = reg.intern("P1.q", 1);
    let [p0_f, p1_f, q1_f] = [p0, p1, q1].map(Formula::Atom);
    let phi = Formula::until(
        Formula::not(Formula::and(p0_f.clone(), Formula::or(p1_f.clone(), q1_f))),
        Formula::and(p0_f, p1_f),
    );
    let mut comp = Computation::new(vec![Assignment::ALL_FALSE; 2]);
    let event = |process: usize, sn: u64, atom, time: f64| {
        let mut entries = vec![0; 2];
        entries[process] = sn;
        Event {
            process,
            kind: EventKind::Internal,
            sn,
            vc: VectorClock::from_entries(entries),
            state: Assignment::from_true_atoms([atom]),
            time,
        }
    };
    comp.push(event(1, 1, q1, 1.0));
    comp.push(event(1, 2, p1, 2.0));
    comp.push(event(0, 1, p0, 3.0));
    comp.push(event(0, 2, p0, 4.0));
    let automaton = Arc::new(MonitorAutomaton::synthesize(&phi, &reg));
    let registry = Arc::new(reg);

    let oracle = oracle_evaluate(&comp, &Lattice::build(&comp), &automaton, &registry);
    assert!(oracle.violation_reachable && oracle.satisfaction_reachable);
    let no_prune = MonitorOptions {
        prune_disjunctive: false,
        ..MonitorOptions::default()
    };
    let detected =
        |opts| replay_decentralized(&comp, &registry, &automaton, opts).detected_final_verdicts();
    use Verdict::{False as Bot, True as Top};
    assert_eq!(
        detected(MonitorOptions::default()),
        Verdicts::from([Bot, Top])
    );
    assert_eq!(
        detected(no_prune),
        Verdicts::from([Bot]),
        "§4.3.3 off: ⊤ at cut (1, 2) is reachable but not detected"
    );
}

/// How a sampled FIFO schedule picks its next step.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Any enabled event or any queue head, uniformly.
    Uniform,
    /// Deliver only when no event is enabled.
    Lazy,
    /// Feed only when no message is in flight.
    Eager,
}

/// The state of one asynchronous reliable-FIFO run: the monitors, one FIFO queue
/// per ordered pair of processes, and how many events of each process are fed.
struct FifoRun<'a> {
    comp: &'a Computation,
    monitors: Vec<DecentralizedMonitor>,
    /// `queues[from * n + to]`: what `from` sent `to`, oldest first.
    queues: Vec<VecDeque<MonitorMsg>>,
    outbox: Vec<(usize, MonitorMsg)>,
    fed: Vec<u64>,
    /// The latest fed event's time: every callback's `now`.
    now: f64,
}

impl FifoRun<'_> {
    /// The processes whose next event can be fed: every event its clock depends
    /// on has been.
    fn enabled(&self) -> Vec<usize> {
        let fed = &self.fed;
        (0..fed.len())
            .filter(|&p| {
                self.comp.events[p]
                    .get(fed[p] as usize)
                    .is_some_and(|e| (0..fed.len()).all(|j| j == p || e.vc.get(j) <= fed[j]))
            })
            .collect()
    }

    /// The non-empty queues.
    fn in_flight(&self) -> Vec<usize> {
        (0..self.queues.len())
            .filter(|&q| !self.queues[q].is_empty())
            .collect()
    }

    fn feed(&mut self, p: usize) {
        let event = &self.comp.events[p][self.fed[p] as usize];
        self.fed[p] += 1;
        self.now = self.now.max(event.time);
        let mut ctx = MonitorContext::new(p, self.fed.len(), self.now, &mut self.outbox);
        self.monitors[p].on_local_event(event, &mut ctx);
        self.post(p);
    }

    fn deliver(&mut self, q: usize) {
        let n = self.fed.len();
        let (from, to) = (q / n, q % n);
        let msg = self.queues[q].pop_front().expect("a non-empty queue");
        let mut ctx = MonitorContext::new(to, n, self.now, &mut self.outbox);
        self.monitors[to].on_monitor_message(from, msg, &mut ctx);
        self.post(to);
    }

    /// Every monitor learns its process ended, at one instant, before any further
    /// delivery.
    fn terminate(&mut self) {
        let n = self.fed.len();
        for p in 0..n {
            let mut ctx = MonitorContext::new(p, n, self.now, &mut self.outbox);
            self.monitors[p].on_local_termination(&mut ctx);
            self.post(p);
        }
    }

    /// Queues what `from`'s monitor just sent.
    fn post(&mut self, from: usize) {
        let n = self.fed.len();
        for (to, msg) in self.outbox.drain(..) {
            self.queues[from * n + to].push_back(msg);
        }
    }
}

/// One asynchronous reliable-FIFO run of clones of `prototype`'s monitors over
/// `comp`, drawn by `rng`: each step feeds an enabled event or delivers the head
/// of a non-empty queue, as `mode` allows.  Once every event is fed, every monitor
/// terminates at one instant, as in `FeedSession::finish`; then the queues drain
/// in random order.  Returns the monitors at the end.
fn run_fifo_schedule(
    comp: &Computation,
    prototype: &[DecentralizedMonitor],
    mode: Mode,
    rng: &mut StdRng,
) -> Vec<DecentralizedMonitor> {
    let n = prototype.len();
    let mut run = FifoRun {
        comp,
        monitors: prototype.to_vec(),
        queues: vec![VecDeque::new(); n * n],
        outbox: Vec::new(),
        fed: vec![0; n],
        now: 0.0,
    };
    // Causality leaves some event enabled until every one is fed.
    loop {
        let (enabled, in_flight) = (run.enabled(), run.in_flight());
        if enabled.is_empty() {
            break;
        }
        let feed = match mode {
            Mode::Uniform => rng.gen_range(0..enabled.len() + in_flight.len()) < enabled.len(),
            Mode::Lazy => true,
            Mode::Eager => in_flight.is_empty(),
        };
        if feed {
            run.feed(enabled[rng.gen_range(0..enabled.len())]);
        } else {
            run.deliver(in_flight[rng.gen_range(0..in_flight.len())]);
        }
    }
    run.terminate();
    loop {
        let in_flight = run.in_flight();
        if in_flight.is_empty() {
            return run.monitors;
        }
        run.deliver(in_flight[rng.gen_range(0..in_flight.len())]);
    }
}

/// Seeds of the `X`-free sweep on which some sampled FIFO schedule misses a ⊤/⊥
/// the oracle reaches, under `default()`.  An open finding, kept like
/// [`KNOWN_UNSOUND`]: the test also fails when a listed seed stops missing.
const KNOWN_SCHEDULE_INCOMPLETE: [u64; 5] = [56, 800, 985, 1673, 2464];

/// The same under `ALL_OFF`.
const KNOWN_SCHEDULE_INCOMPLETE_ALL_OFF: [u64; 3] = [800, 1673, 2464];

/// Schedules sampled per seed and option set, cycling through the three modes.
const SCHEDULES_PER_SEED: u64 = 3;

/// Every `X`-free [`sweep_case`] under [`SCHEDULES_PER_SEED`] sampled FIFO
/// schedules per option set ([`run_fifo_schedule`]), against one oracle per seed.
/// The replay drains every message after every event; these schedules let events
/// overtake messages and messages on different channels overtake each other, as
/// the paper's asynchronous reliable-FIFO model allows.  Three schedules per seed
/// find every listed seed; the test takes 4.1–4.4 s in a debug build on a 2-vCPU
/// host.  The `X` sweep is not explored yet.
#[test]
fn sampled_fifo_schedules_are_sound_and_miss_verdicts_only_on_the_known_seeds() {
    let options = [
        (MonitorOptions::default(), &KNOWN_SCHEDULE_INCOMPLETE[..]),
        (
            MonitorOptions::ALL_OFF,
            &KNOWN_SCHEDULE_INCOMPLETE_ALL_OFF[..],
        ),
    ];
    let modes = [Mode::Uniform, Mode::Lazy, Mode::Eager];
    let mut unsound = Vec::new();
    let mut incomplete = [Vec::new(), Vec::new()];
    for seed in 0..3000 {
        let (formula, workload) = sweep_case(seed, Formula::globally);
        let n = workload.n_processes;
        let registry = Arc::new(shared_registry(n));
        let automaton = Arc::new(MonitorAutomaton::synthesize(&formula, &registry));
        let comp = simulate_session(&workload, &registry).report.computation;
        let oracle = oracle_evaluate(&comp, &Lattice::build(&comp), &automaton, &registry);
        let initial_gstate = comp.global_state(&vec![0; n], &registry);
        for ((opts, _), incomplete) in options.iter().zip(&mut incomplete) {
            let prototype: Vec<DecentralizedMonitor> = (0..n)
                .map(|p| {
                    let (automaton, registry) = (automaton.clone(), registry.clone());
                    DecentralizedMonitor::new(p, n, automaton, registry, initial_gstate, *opts)
                })
                .collect();
            let (mut sound_everywhere, mut complete_everywhere) = (true, true);
            for k in 0..SCHEDULES_PER_SEED {
                let mut rng = StdRng::seed_from_u64(seed * SCHEDULES_PER_SEED + k);
                let mode = modes[k as usize % modes.len()];
                let detected = run_fifo_schedule(&comp, &prototype, mode, &mut rng)
                    .iter()
                    .fold(Verdicts::EMPTY, |set, m| set | m.detected_final_verdicts());
                sound_everywhere &= sound(&oracle, &detected);
                complete_everywhere &= (!oracle.violation_reachable
                    || detected.contains(&Verdict::False))
                    && (!oracle.satisfaction_reachable || detected.contains(&Verdict::True));
            }
            if !sound_everywhere && !KNOWN_UNSOUND.contains(&seed) && !unsound.contains(&seed) {
                unsound.push(seed);
            }
            if !complete_everywhere {
                incomplete.push(seed);
            }
        }
    }
    assert!(
        unsound.is_empty(),
        "seeds detecting an unreachable verdict: {unsound:?}"
    );
    for ((opts, known), incomplete) in options.iter().zip(&incomplete) {
        assert_eq!(
            incomplete, known,
            "seeds where a schedule misses a reachable verdict under {opts:?}"
        );
    }
}

/// Sessions in the oracle ledger: the first wave of the benchmark's `fleet-6` workload.
const LEDGER_SESSIONS: u64 = 400;

/// The ledger's ceilings: of [`LEDGER_SESSIONS`] sessions, how many `(miss a verdict
/// the oracle reaches, detect one it does not reach)` per property under
/// `[default(), ALL_OFF]` — counted on the commit before tokens were served
/// local-first (PR 20: one sequence number per hop), so that routing change and
/// every later one is held to "no worse than that, per property, on either count".
/// D's entries are the open finding of `docs/MONITORING.md`.
const LEDGER_CEILING: [(PaperProperty, [(usize, usize); 2]); 6] = [
    (PaperProperty::A, [(0, 0), (0, 0)]),
    (PaperProperty::B, [(0, 0), (0, 0)]),
    (PaperProperty::C, [(0, 0), (0, 0)]),
    (PaperProperty::D, [(9, 5), (0, 5)]),
    (PaperProperty::E, [(0, 0), (0, 0)]),
    (PaperProperty::F, [(0, 0), (0, 0)]),
];

/// The traces of the ledger's sessions: the workload of the benchmark's `fleet-6`,
/// shaped for its lead property (A) at 3 processes, 4 events each.
fn ledger_traces() -> ExperimentConfig {
    ExperimentConfig {
        events_per_process: 4,
        ..ExperimentConfig::paper_default(PaperProperty::A, 3)
    }
}

#[test]
fn the_oracle_ledger_of_the_paper_properties_is_no_worse_than_its_ceiling() {
    // The sessions `benchmark/run.sh --workload fleet-6 --seed 1` monitors: 3
    // processes, 4 events each, the lead property's (A's) initial channel values,
    // every property over the same traces.  The order in which a token repairs its
    // cut is not perfectly invisible (EVALUATETOKEN's sibling rule, "Open findings"
    // in docs/MONITORING.md), so a routing change is judged here, against the
    // lattice, and not by equality with the routing before it.
    let options = [MonitorOptions::default(), MonitorOptions::ALL_OFF];
    let traces = ledger_traces();
    for (property, ceiling) in LEDGER_CEILING {
        let compiled = CompiledProperty::compile(&property.into(), 3);
        let mut ledger = [(0, 0); 2];
        for index in 0..LEDGER_SESSIONS {
            let (oracle, detected) = detect_compiled(
                &compiled.automaton,
                &compiled.registry,
                &traces.workload_config(session_seed(1, index)),
                &options,
            );
            for ((missed, unreachable), detected) in ledger.iter_mut().zip(&detected) {
                *missed += usize::from(
                    (oracle.violation_reachable && !detected.contains(&Verdict::False))
                        || (oracle.satisfaction_reachable && !detected.contains(&Verdict::True)),
                );
                *unreachable += usize::from(!sound(&oracle, detected));
            }
        }
        println!("{property}: (missed, unreachable) under [default, all-off] = {ledger:?}");
        for ((counted, ceiling), opts) in ledger.iter().zip(&ceiling).zip(&options) {
            assert!(
                counted.0 <= ceiling.0 && counted.1 <= ceiling.1,
                "{property} with {opts:?}: (missed, unreachable) = {counted:?}, ceiling {ceiling:?}"
            );
        }
    }
}

/// What the replays of three groups of sessions decide under `[default(), ALL_OFF]`:
/// an FNV-1a digest of every session's `(detected, possible)` verdict sets, and the
/// sum over sessions and monitors of the peak of live views, recorded on the build
/// before a view at ⊤/⊥ was retired on the spot.  Retirement may lower the peaks;
/// the digest may not move — no protocol change may move a verdict, whatever it
/// does to the cost in [`SESSION_TRAFFIC`].  The digest reads the same before and
/// after verdict knowledge started riding on tokens.
const SESSION_VERDICTS: [(&str, [(u64, usize); 2]); 3] = [
    (
        "sweep without X",
        [(0xb4270800fe2ddfb9, 3022), (0xb4270800fe2ddfb9, 4142)],
    ),
    (
        "sweep with X",
        [(0x9c17c3b48ae1627d, 640), (0x9c17c3b48ae1627d, 986)],
    ),
    (
        "fleet-6 first wave, A-F",
        [(0x2aee75e1d0b4c5f9, 8969), (0x192706a2f1e640d9, 14529)],
    ),
];

/// The exact monitor messages, tokens and global views created by the same
/// sessions, summed, under `[default(), ALL_OFF]`.  These are the protocol's cost: a
/// change that moves them on purpose records the move here.  When end of stream
/// became one instant (every monitor terminates before any termination token is
/// delivered), `(messages, tokens)` went, under `default()` and `ALL_OFF`:
///
/// * sweep without X: (2 153, 2 918) → (2 141, 2 924); (14 712, 14 712) unmoved;
/// * sweep with X: unmoved;
/// * fleet-6 first wave: (65 158, 95 401) → (39 475, 93 333);
///   (589 911, 589 911) → (533 929, 533 929).
///
/// When tokens started carrying the verdicts their sender knows of (§4.3.3 prunes
/// explorations into a verdict a peer monitor detected), `(messages, tokens, views
/// created)` went, under `default()`, and `ALL_OFF` (no pruning) did not move:
///
/// * sweep without X: (2 141, 2 924, 3 336) → (2 038, 2 768, 3 238);
/// * sweep with X: (577, 715, 717) → (546, 681, 689);
/// * fleet-6 first wave: (39 475, 93 333, 10 549) → (37 316, 86 315, 9 880).
const SESSION_TRAFFIC: [(&str, [Traffic; 2]); 3] = [
    (
        "sweep without X",
        [(2038, 2768, 3238), (14712, 14712, 7877)],
    ),
    ("sweep with X", [(546, 681, 689), (3815, 3815, 1931)]),
    (
        "fleet-6 first wave, A-F",
        [(37316, 86315, 9880), (533929, 533929, 30955)],
    ),
];

/// `(messages, tokens, global views created)`, summed over a group's sessions.
type Traffic = (usize, usize, usize);

/// What a group of sessions shows from outside under one option set.
#[derive(Clone, Copy)]
struct Shown {
    /// FNV-1a over every session's `(detected, possible)` verdict sets.
    digest: u64,
    /// Monitor messages, summed over sessions.
    messages: usize,
    /// Tokens sent, summed over sessions and monitors.
    tokens: usize,
    /// Global views created, summed over sessions and monitors.
    views_created: usize,
    /// Peak of live views, summed over sessions and monitors.
    peaks: usize,
}

/// Replays the computation of `workload` under each of `options` and folds what the
/// replay shows from outside into the option's [`Shown`].
fn digest_session(
    shown: &mut [Shown; 2],
    automaton: &Arc<MonitorAutomaton>,
    registry: &Arc<AtomRegistry>,
    workload: &WorkloadConfig,
    options: &[MonitorOptions; 2],
) {
    let comp = simulate_session(workload, registry).report.computation;
    for (shown, &opts) in shown.iter_mut().zip(options) {
        let replay = replay_decentralized(&comp, registry, automaton, opts);
        let metrics: Vec<_> = replay.monitors.iter().map(|m| m.metrics()).collect();
        let bits = |set: Verdicts| set.iter().map(|v| 1u64 << v as u64).sum::<u64>();
        for word in [
            bits(replay.detected_final_verdicts()),
            bits(replay.possible_verdicts()),
        ] {
            shown.digest = (shown.digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
        shown.messages += replay.monitor_messages;
        shown.tokens += metrics.iter().map(|m| m.tokens_sent).sum::<usize>();
        shown.views_created += metrics
            .iter()
            .map(|m| m.global_views_created)
            .sum::<usize>();
        shown.peaks += metrics.iter().map(|m| m.max_live_views).sum::<usize>();
    }
}

#[test]
fn sessions_show_what_they_showed_before_final_views_were_retired() {
    // Case seeds of the sweep (1 000 `X`-free, 200 with `X`) and the oracle
    // ledger's sessions.
    let options = [MonitorOptions::default(), MonitorOptions::ALL_OFF];
    let fresh = [Shown {
        digest: 0xcbf2_9ce4_8422_2325,
        messages: 0,
        tokens: 0,
        views_created: 0,
        peaks: 0,
    }; 2];
    let mut got = Vec::new();
    for (label, next, seeds) in [
        ("sweep without X", Formula::globally as Next, 1000),
        ("sweep with X", Formula::next as Next, 200),
    ] {
        let mut digests = fresh;
        for seed in 0..seeds {
            let (formula, workload) = sweep_case(seed, next);
            let registry = Arc::new(shared_registry(workload.n_processes));
            let automaton = Arc::new(MonitorAutomaton::synthesize(&formula, &registry));
            digest_session(&mut digests, &automaton, &registry, &workload, &options);
        }
        got.push((label, digests));
    }
    let mut digests = fresh;
    let traces = ledger_traces();
    for property in PaperProperty::ALL {
        let compiled = CompiledProperty::compile(&property.into(), 3);
        for index in 0..LEDGER_SESSIONS {
            let workload = traces.workload_config(session_seed(1, index));
            let (automaton, registry) = (&compiled.automaton, &compiled.registry);
            digest_session(&mut digests, automaton, registry, &workload, &options);
        }
    }
    got.push(("fleet-6 first wave, A-F", digests));

    let table: String = got
        .iter()
        .map(|(label, [on, off])| {
            format!(
                "    (\"{label}\", [({:#018x}, {}), ({:#018x}, {})]),  \
                 traffic [({}, {}, {}), ({}, {}, {})]\n",
                on.digest,
                on.peaks,
                off.digest,
                off.peaks,
                on.messages,
                on.tokens,
                on.views_created,
                off.messages,
                off.tokens,
                off.views_created
            )
        })
        .collect();
    println!("this build's digests, peak sums and traffic under [default, all-off]:\n{table}");
    for (((label, got), (pinned, want)), (_, traffic)) in
        got.iter().zip(SESSION_VERDICTS).zip(SESSION_TRAFFIC)
    {
        assert_eq!(*label, pinned);
        for (((shown, (pinned_digest, pinned_peaks)), traffic), opts) in
            got.iter().zip(want).zip(traffic).zip(&options)
        {
            assert_eq!(
                shown.digest, pinned_digest,
                "{label} with {opts:?}: a session's verdicts moved; this build's table:\n{table}"
            );
            assert_eq!(
                (shown.messages, shown.tokens, shown.views_created),
                traffic,
                "{label} with {opts:?}: (messages, tokens, views created) moved; \
                 this build's table:\n{table}"
            );
            assert!(
                shown.peaks <= pinned_peaks,
                "{label} with {opts:?}: {} peak live views, {pinned_peaks} before",
                shown.peaks
            );
        }
    }
}

#[test]
fn random_ltl_verdicts_through_the_stream_runtime_equal_the_replay() {
    // The first 300 `X`-free cases of the sweep above, as 300 sessions of one binary
    // stream through a one-shard `ShardedRuntime`, with the §4.3 suite on and off:
    // each session must detect exactly what the replay of its computation detects
    // under the same options, so whatever the oracle sweep says of `FeedSession` —
    // the `KNOWN_*` lists included — it says of the runtime.
    let mut cases = Vec::new();
    let mut inputs = Vec::new();
    for seed in 0..300u64 {
        let (formula, workload) = sweep_case(seed, Formula::globally);
        let n = workload.n_processes;
        let registry = shared_registry(n);
        let automaton = Arc::new(MonitorAutomaton::synthesize(&formula, &registry));
        let registry = Arc::new(registry);
        let session = simulate_session(&workload, &registry);
        inputs.push(SessionStream {
            session: seed,
            property: format!("sweep-{seed}"),
            n_processes: n,
            initial_state: session.initial_state.0,
            events: session.events,
        });
        cases.push((
            automaton,
            registry,
            session.initial_state,
            session.report.computation,
        ));
    }
    let bytes = encode_stream_binary(&interleave_sessions(&inputs));
    for options in [MonitorOptions::default(), MonitorOptions::ALL_OFF] {
        let specs: Vec<_> = cases
            .iter()
            .zip(&inputs)
            .map(|((automaton, registry, initial_state, _), input)| {
                Arc::new(SessionSpec {
                    n_processes: input.n_processes,
                    automaton: automaton.clone(),
                    registry: registry.clone(),
                    initial_state: *initial_state,
                    options,
                    fleet: Vec::new(),
                })
            })
            .collect();
        let runtime = ShardedRuntime::start(StreamConfig {
            n_shards: 1,
            ..StreamConfig::default()
        });
        runtime
            .pump(&mut ReaderSource::new(&bytes[..]), &mut |open| {
                Ok(specs[open.session as usize].clone())
            })
            .expect("freshly encoded stream must decode");
        let report = runtime.shutdown();
        for (seed, (automaton, registry, _, computation)) in cases.iter().enumerate() {
            let outcome = &report.sessions[&(seed as u64)];
            assert_eq!(
                outcome.events,
                inputs[seed].events.len(),
                "seed {seed}: events fed"
            );
            assert_eq!(
                outcome.detected_verdicts,
                replay_decentralized(computation, registry, automaton, options)
                    .detected_final_verdicts(),
                "seed {seed} with {options:?}: detected verdicts"
            );
        }
    }
}

#[test]
fn random_ltl_verdicts_through_a_daemon_fleet_equal_the_replay() {
    // The first 40 `X`-free formulas of the sweep that name an atom, each printed,
    // parsed back as a `PropertySpec` (the only form a `hello` frame carries) and run
    // by `run_deploy` as one `monitord` process per monitor over Unix sockets, with
    // the §4.3 suite on and off: every fleet must detect what the replay of the same
    // computation detects under the same options, with the same number of monitor
    // messages.  The registry's `deploy-D-n3` runs last: its termination tokens
    // reach peers whose process has ended, so its message count holds the daemons
    // to the replay's one-instant end of stream (finished one at a time, it sends 97
    // messages instead of 92).
    std::env::set_var("DLRV_MONITORD_BIN", env!("CARGO_BIN_EXE_monitord"));
    let sweep = (0u64..)
        .map(|seed| (seed, sweep_case(seed, Formula::globally)))
        .filter(|(_, (formula, _))| !formula.atoms().is_empty())
        .take(40)
        .map(|(seed, (formula, workload))| {
            let names = shared_registry(workload.n_processes);
            let text = formula
                .display_with(|a| names.name(a).to_string())
                .to_string();
            let spec = PropertySpec::parse_named(&format!("sweep-{seed}"), &text)
                .unwrap_or_else(|e| panic!("seed {seed}: `{text}` does not parse back: {e}"));
            let config = ExperimentConfig {
                events_per_process: workload.events_per_process,
                comm_mu: workload.comm_mu,
                seeds: vec![seed],
                ..ExperimentConfig::paper_default(spec, workload.n_processes)
            };
            (text, config)
        });
    let registered = ScenarioRegistry::standard()
        .get("deploy-D-n3")
        .expect("the deploy family registers property D at 3 processes")
        .config
        .clone();
    let mut with_traffic = 0;
    for (text, config) in sweep.chain([("deploy-D-n3".to_string(), registered)]) {
        let seed = config.seeds[0];
        let compiled = CompiledProperty::compile(&config.property, config.n_processes);
        let session = simulate_session(&config.workload_config(seed), &compiled.registry);
        for options in [MonitorOptions::default(), MonitorOptions::ALL_OFF] {
            let replay = replay_decentralized(
                &session.report.computation,
                &compiled.registry,
                &compiled.automaton,
                options,
            );
            let outcome = run_deploy(
                &config,
                options,
                &DeployParams::clean(DeployTransport::Unix),
            )
            .unwrap_or_else(|e| panic!("seed {seed} `{text}`: deploy failed: {e}"));
            let deployed = &outcome.result.per_seed[0];
            assert_eq!(
                deployed.detected_final_verdicts,
                replay.detected_final_verdicts(),
                "seed {seed} `{text}` with {options:?}: detected verdicts"
            );
            assert_eq!(
                deployed.monitor_messages, replay.monitor_messages,
                "seed {seed} `{text}` with {options:?}: monitor messages"
            );
            with_traffic += usize::from(replay.monitor_messages > 0);
        }
    }
    assert!(
        with_traffic >= 20,
        "fixture too weak: {with_traffic} of 82 fleets exchanged a token"
    );
}

#[test]
#[ignore = "open soundness finding, docs/MONITORING.md"]
fn release_reproducer_detects_only_the_reachable_verdict() {
    // The smallest reproducer of the sweep's finding, independent of the generator:
    // `P0.p R !P1.p` on a 2-process computation.  Every lattice path reaches ⊤ at
    // cut [3,1], before `P1.p` first holds (P1's event 11, clock [8,11]), so ⊥ is
    // unreachable — and P0's monitor reports it anyway.
    let mut registry = AtomRegistry::new();
    let p0 = Formula::Atom(registry.intern("P0.p", 0));
    let p1 = Formula::Atom(registry.intern("P1.p", 1));
    let workload = WorkloadConfig {
        n_processes: 2,
        events_per_process: 4,
        comm_mu: Some(3.0),
        seed: 802,
        ..WorkloadConfig::default()
    };
    let (oracle, detected) = detect(
        &Formula::release(p0, Formula::not(p1)),
        registry,
        &workload,
        &[MonitorOptions::default()],
    );
    assert!(oracle.satisfaction_reachable && !oracle.violation_reachable);
    assert_eq!(
        detected[0],
        Verdicts::from([Verdict::True]),
        "detected verdicts"
    );
}
