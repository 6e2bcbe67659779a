//! The computation lattice (Definition 6) and the oracle of Chapter 3.
//!
//! The lattice's vertices are the consistent cuts of a recorded [`Computation`],
//! identified by their frontiers; edges advance exactly one process by one event.  The
//! oracle runs the monitor automaton along lattice paths: for every vertex it keeps the
//! set of automaton states reachable over *some* path from the initial cut, which gives
//! the set of possible verdicts at the final cut — the reference against which the
//! decentralized algorithm's soundness and completeness are tested.

use crate::event::Computation;
use dlrv_automaton::{MonitorAutomaton, StateId};
use dlrv_ltl::{AtomRegistry, Verdict, Verdicts};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Identifier of a lattice vertex.
pub type CutId = usize;

/// The computation lattice of a recorded computation.
#[derive(Debug, Clone)]
pub struct Lattice {
    /// Frontier of each vertex (`frontier[i]` = number of events of process `i`).
    pub frontiers: Vec<Vec<usize>>,
    /// Successor edges: `succs[c]` lists `(process, successor)` pairs.
    pub succs: Vec<Vec<(usize, CutId)>>,
    /// Index of the initial cut (the empty frontier).
    pub bottom: CutId,
    /// Index of the final cut (all events), if the full frontier is consistent.
    pub top: Option<CutId>,
}

impl Lattice {
    /// Builds the full computation lattice of `comp` by breadth-first exploration of
    /// consistent frontiers.
    ///
    /// The lattice can be exponential in the number of processes; callers should keep
    /// computations small (this is an oracle, not the monitoring algorithm).
    pub fn build(comp: &Computation) -> Lattice {
        let n = comp.n_processes();
        let mut index: HashMap<Vec<usize>, CutId> = HashMap::new();
        let mut frontiers: Vec<Vec<usize>> = Vec::new();
        let mut succs: Vec<Vec<(usize, CutId)>> = Vec::new();

        let bottom_frontier = vec![0usize; n];
        index.insert(bottom_frontier.clone(), 0);
        frontiers.push(bottom_frontier.clone());
        succs.push(Vec::new());

        let mut queue = VecDeque::from([0usize]);
        while let Some(c) = queue.pop_front() {
            let frontier = frontiers[c].clone();
            for p in 0..n {
                if frontier[p] >= comp.events[p].len() {
                    continue;
                }
                let mut next = frontier.clone();
                next[p] += 1;
                if !comp.is_consistent_frontier(&next) {
                    continue;
                }
                let id = match index.get(&next) {
                    Some(&id) => id,
                    None => {
                        let id = frontiers.len();
                        index.insert(next.clone(), id);
                        frontiers.push(next.clone());
                        succs.push(Vec::new());
                        queue.push_back(id);
                        id
                    }
                };
                succs[c].push((p, id));
            }
        }

        let top = index.get(&comp.final_frontier()).copied();
        Lattice {
            frontiers,
            succs,
            bottom: 0,
            top,
        }
    }

    /// Number of vertices.
    pub fn n_cuts(&self) -> usize {
        self.frontiers.len()
    }

    /// Enumerates all maximal paths (from bottom to top) as sequences of cut ids.
    ///
    /// Exponential; intended for very small lattices in tests.
    pub fn enumerate_paths(&self) -> Vec<Vec<CutId>> {
        let Some(top) = self.top else {
            return Vec::new();
        };
        let mut paths = Vec::new();
        let mut stack = vec![(self.bottom, vec![self.bottom])];
        while let Some((c, path)) = stack.pop() {
            if c == top {
                paths.push(path);
                continue;
            }
            for &(_, next) in &self.succs[c] {
                let mut p = path.clone();
                p.push(next);
                stack.push((next, p));
            }
        }
        paths
    }
}

/// The oracle's evaluation of a monitor automaton over a computation lattice.
#[derive(Debug, Clone)]
pub struct OracleResult {
    /// For every cut, the set of automaton states reachable along some lattice path
    /// from the initial cut (after feeding every global state along the path,
    /// including the initial one, to the automaton).
    pub reachable_states: Vec<BTreeSet<StateId>>,
    /// The set of possible verdicts at the final cut.
    pub final_verdicts: Verdicts,
    /// The set of automaton states at the final cut.
    pub final_states: BTreeSet<StateId>,
    /// Cuts at which some path first reaches a ⊤/⊥ state ("pivot" cuts for final
    /// verdicts).
    pub violation_reachable: bool,
    /// True when some path reaches a ⊤ state.
    pub satisfaction_reachable: bool,
}

/// Runs `automaton` over every path of `lattice` (by dynamic programming on the DAG)
/// and collects the reachable automaton states per cut.
///
/// The automaton consumes the sequence of global states along a path *including the
/// initial global state*, mirroring the oracle of Chapter 3 (each global state in the
/// trace is run through the automaton one by one).
pub fn oracle_evaluate(
    comp: &Computation,
    lattice: &Lattice,
    automaton: &MonitorAutomaton,
    registry: &AtomRegistry,
) -> OracleResult {
    let n_cuts = lattice.n_cuts();
    let mut reachable: Vec<BTreeSet<StateId>> = vec![BTreeSet::new(); n_cuts];

    // Initial cut: automaton has consumed the initial global state.
    let init_sigma = comp.global_state(&lattice.frontiers[lattice.bottom], registry);
    let q0 = automaton.step(automaton.initial, init_sigma);
    reachable[lattice.bottom].insert(q0);

    // Process cuts in topological order (by total event count, which is a valid
    // topological order of the lattice DAG).
    let mut order: Vec<CutId> = (0..n_cuts).collect();
    order.sort_by_key(|&c| lattice.frontiers[c].iter().sum::<usize>());

    for &c in &order {
        let states: Vec<StateId> = reachable[c].iter().copied().collect();
        for &(_, next) in &lattice.succs[c] {
            let sigma = comp.global_state(&lattice.frontiers[next], registry);
            for &q in &states {
                let q2 = automaton.step(q, sigma);
                reachable[next].insert(q2);
            }
        }
    }

    let final_states: BTreeSet<StateId> = lattice
        .top
        .map(|t| reachable[t].clone())
        .unwrap_or_default();
    let final_verdicts: Verdicts = final_states.iter().map(|&q| automaton.verdict(q)).collect();
    let violation_reachable = reachable
        .iter()
        .any(|set| set.iter().any(|&q| automaton.verdict(q) == Verdict::False));
    let satisfaction_reachable = reachable
        .iter()
        .any(|set| set.iter().any(|&q| automaton.verdict(q) == Verdict::True));

    OracleResult {
        reachable_states: reachable,
        final_verdicts,
        final_states,
        violation_reachable,
        satisfaction_reachable,
    }
}

/// Evaluates `automaton` along one explicit lattice path and returns the final state.
pub fn evaluate_path(
    comp: &Computation,
    lattice: &Lattice,
    path: &[CutId],
    automaton: &MonitorAutomaton,
    registry: &AtomRegistry,
) -> StateId {
    let mut q = automaton.initial;
    for &cut in path {
        let sigma = comp.global_state(&lattice.frontiers[cut], registry);
        q = automaton.step(q, sigma);
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::running_example;
    use dlrv_ltl::Formula;

    #[test]
    fn lattice_of_running_example_matches_fig_2_2b() {
        let (comp, _) = running_example();
        let lattice = Lattice::build(&comp);
        // Fig. 2.2b draws 17 consistent cuts for the running example (including the
        // empty cut and the full cut).
        assert_eq!(lattice.n_cuts(), 17);
        assert!(lattice.top.is_some());
        // Every successor differs from its predecessor in exactly one process by one.
        for c in 0..lattice.n_cuts() {
            for &(p, next) in &lattice.succs[c] {
                let a = &lattice.frontiers[c];
                let b = &lattice.frontiers[next];
                assert_eq!(b[p], a[p] + 1);
                for q in 0..comp.n_processes() {
                    if q != p {
                        assert_eq!(a[q], b[q]);
                    }
                }
            }
        }
    }

    #[test]
    fn all_lattice_cuts_are_consistent() {
        let (comp, _) = running_example();
        let lattice = Lattice::build(&comp);
        for f in &lattice.frontiers {
            assert!(comp.is_consistent_frontier(f));
        }
    }

    #[test]
    fn paths_of_running_example() {
        let (comp, _) = running_example();
        let lattice = Lattice::build(&comp);
        let paths = lattice.enumerate_paths();
        assert!(!paths.is_empty());
        // Every path has length n_events + 1 (each step adds one event).
        for p in &paths {
            assert_eq!(p.len(), comp.n_events() + 1);
            assert_eq!(p[0], lattice.bottom);
            assert_eq!(Some(*p.last().unwrap()), lattice.top);
        }
    }

    #[test]
    fn oracle_on_paper_property() {
        // ψ over the running example: G((x1>=5) -> ((x2>=15) U (x1==10))).
        // With the registry of the fixture (only x1>=5, x2>=15) we instead check the
        // simpler property G !(x1>=5 && !x2>=15): some interleavings violate it
        // (x1 reaches 5 before x2 reaches 15) and some do not.
        let (comp, mut reg) = running_example();
        let a0 = reg.lookup("x1>=5").unwrap();
        let a1 = reg.lookup("x2>=15").unwrap();
        let phi = Formula::globally(Formula::not(Formula::and(
            Formula::Atom(a0),
            Formula::not(Formula::Atom(a1)),
        )));
        let m = MonitorAutomaton::synthesize(&phi, &reg);
        let lattice = Lattice::build(&comp);
        let oracle = oracle_evaluate(&comp, &lattice, &m, &reg);
        // Both ⊥ (bad interleaving) and ? (good interleaving) must be possible.
        assert!(oracle.final_verdicts.contains(&Verdict::False));
        assert!(oracle.final_verdicts.contains(&Verdict::Unknown));
        assert!(oracle.violation_reachable);
        let _ = &mut reg;
    }

    #[test]
    fn oracle_dp_agrees_with_explicit_path_enumeration() {
        let (comp, reg) = running_example();
        let a0 = reg.lookup("x1>=5").unwrap();
        let a1 = reg.lookup("x2>=15").unwrap();
        let phi = Formula::eventually(Formula::and(Formula::Atom(a0), Formula::Atom(a1)));
        let m = MonitorAutomaton::synthesize(&phi, &reg);
        let lattice = Lattice::build(&comp);
        let oracle = oracle_evaluate(&comp, &lattice, &m, &reg);

        let mut explicit: BTreeSet<StateId> = BTreeSet::new();
        for path in lattice.enumerate_paths() {
            explicit.insert(evaluate_path(&comp, &lattice, &path, &m, &reg));
        }
        assert_eq!(explicit, oracle.final_states);
    }

    #[test]
    fn empty_computation_lattice_is_a_single_cut() {
        let comp = Computation::new(vec![
            dlrv_ltl::Assignment::ALL_FALSE,
            dlrv_ltl::Assignment::ALL_FALSE,
        ]);
        let lattice = Lattice::build(&comp);
        assert_eq!(lattice.n_cuts(), 1);
        assert_eq!(lattice.top, Some(lattice.bottom));
        assert_eq!(lattice.enumerate_paths().len(), 1);
    }
}
