//! Tableau construction of a state-labelled generalized Büchi automaton (GBA) from an
//! LTL formula in negation normal form, plus per-state language nonemptiness.
//!
//! The construction is the classic `expand` algorithm of Gerth, Peled, Vardi and Wolper
//! ("Simple on-the-fly automatic verification of linear temporal logic").  Automaton
//! states are tableau nodes; a node `q` is labelled by the conjunction of the literals
//! in its `old` set, and there is an edge `r → q` whenever `r` appears in `q`'s
//! `incoming` set.  A word `σ₀σ₁…` is accepted iff there is an infinite node sequence
//! `q₀q₁…` starting from the virtual initial node such that `σᵢ` satisfies the label of
//! `qᵢ` and every acceptance set is visited infinitely often (one acceptance set per
//! until-subformula).

use dlrv_ltl::{Cube, Formula, Literal};
use std::collections::BTreeSet;

/// Index of a tableau node.  Node `0` is the virtual initial node.
pub type NodeId = usize;

/// The virtual initial node: it emits no symbol and only serves as the source of the
/// automaton's initial edges.
pub const INIT_NODE: NodeId = 0;

/// A tableau node of the generalized Büchi automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Nodes with an edge into this node.
    pub incoming: BTreeSet<NodeId>,
    /// Fully processed obligations (literals plus the temporal formulas that produced
    /// the split); the literals form the state label.
    pub old: BTreeSet<Formula>,
    /// Obligations deferred to the next position.
    pub next: BTreeSet<Formula>,
}

impl Node {
    /// The conjunction of literals this state requires of the symbol read *at* it.
    pub fn label(&self) -> Cube {
        let mut cube = Cube::top();
        for f in &self.old {
            match f {
                Formula::Atom(a) => {
                    // Contradictions were pruned during expansion, so insert succeeds.
                    cube.insert(Literal::pos(*a));
                }
                Formula::Not(inner) => {
                    if let Formula::Atom(a) = &**inner {
                        cube.insert(Literal::neg(*a));
                    }
                }
                _ => {}
            }
        }
        cube
    }
}

/// A state-labelled generalized Büchi automaton produced by the tableau construction.
#[derive(Debug, Clone)]
pub struct GeneralizedBuchi {
    /// The formula the automaton was built from (in NNF).
    pub formula: Formula,
    /// Tableau nodes; index 0 is the virtual [`INIT_NODE`] (with empty fields).
    pub nodes: Vec<Node>,
    /// One acceptance set per until-subformula of the closure.
    pub acceptance_sets: Vec<BTreeSet<NodeId>>,
    /// `live[q]` — true iff an accepting infinite run *starts* at node `q`.
    pub live: Vec<bool>,
    /// `successors[q]` — the nodes listing `q` as incoming, ascending.
    successors: Vec<Vec<NodeId>>,
}

impl GeneralizedBuchi {
    /// Builds the GBA of `formula` (which is converted to NNF internally).
    pub fn build(formula: &Formula) -> Self {
        let nnf = formula.nnf();
        let mut builder = Builder {
            nodes: vec![Node {
                incoming: BTreeSet::new(),
                old: BTreeSet::new(),
                next: BTreeSet::new(),
            }],
        };
        let start = PendingNode {
            incoming: BTreeSet::from([INIT_NODE]),
            new: BTreeSet::from([nnf.clone()]),
            old: BTreeSet::new(),
            next: BTreeSet::new(),
        };
        builder.expand(start);

        let acceptance_sets = Self::acceptance_sets(&nnf, &builder.nodes);
        let mut successors = vec![Vec::new(); builder.nodes.len()];
        for (r, node) in builder.nodes.iter().enumerate().skip(1) {
            for &q in &node.incoming {
                successors[q].push(r);
            }
        }
        let mut gba = GeneralizedBuchi {
            formula: nnf,
            nodes: builder.nodes,
            acceptance_sets,
            live: Vec::new(),
            successors,
        };
        gba.live = gba.compute_liveness();
        gba
    }

    /// The successors of node `q` (nodes that list `q` as incoming), ascending.
    pub fn successors(&self, q: NodeId) -> &[NodeId] {
        &self.successors[q]
    }

    /// True iff some infinite accepting run starts at `q` (i.e. the language of the
    /// automaton with initial state `q` is non-empty).
    pub fn is_live(&self, q: NodeId) -> bool {
        self.live[q]
    }

    /// One acceptance set per until-subformula `a U b`:
    /// `F = { q | (a U b) ∉ old(q)  ∨  b ∈ old(q) }`.
    ///
    /// `b = true` needs care: expansion discharges `true` without recording it in
    /// `old`, so the membership test would never hold even though the promise is
    /// fulfilled at every node — the set is all nodes in that case.
    fn acceptance_sets(formula: &Formula, nodes: &[Node]) -> Vec<BTreeSet<NodeId>> {
        let mut untils = Vec::new();
        collect_untils(formula, &mut untils);
        untils
            .into_iter()
            .map(|(u, b)| {
                (1..nodes.len())
                    .filter(|&q| {
                        b == Formula::True
                            || !nodes[q].old.contains(&u)
                            || nodes[q].old.contains(&b)
                    })
                    .collect()
            })
            .collect()
    }

    /// Computes `live[q]` for every node via Tarjan SCC decomposition: a node is live
    /// iff it can reach a non-trivial SCC that intersects every acceptance set.
    fn compute_liveness(&self) -> Vec<bool> {
        let n = self.nodes.len();
        let succ = &self.successors;
        let sccs = tarjan_sccs(n, succ);

        // An SCC is "fair" if it contains a cycle and intersects every acceptance set.
        let mut scc_of = vec![usize::MAX; n];
        for (i, scc) in sccs.iter().enumerate() {
            for &q in scc {
                scc_of[q] = i;
            }
        }
        let fair: Vec<bool> = sccs
            .iter()
            .map(|scc| {
                let nontrivial = scc.len() > 1 || scc.iter().any(|&q| succ[q].contains(&q));
                nontrivial
                    && self
                        .acceptance_sets
                        .iter()
                        .all(|f| scc.iter().any(|q| f.contains(q)))
            })
            .collect();

        // live[q] = q reaches a fair SCC (possibly its own).
        let mut live = vec![false; n];
        // Process in reverse topological order: Tarjan emits SCCs in reverse
        // topological order already (callees before callers), so iterate as-is and
        // propagate from successors.
        for (i, scc) in sccs.iter().enumerate() {
            let mut reachable_fair = fair[i];
            if !reachable_fair {
                'outer: for &q in scc {
                    for &r in &succ[q] {
                        if scc_of[r] != i && live[r] {
                            reachable_fair = true;
                            break 'outer;
                        }
                    }
                }
            }
            for &q in scc {
                live[q] = reachable_fair;
            }
        }
        live
    }
}

fn collect_untils(f: &Formula, out: &mut Vec<(Formula, Formula)>) {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => {}
        Formula::Not(inner) | Formula::Next(inner) => collect_untils(inner, out),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Release(a, b) => {
            collect_untils(a, out);
            collect_untils(b, out);
        }
        Formula::Until(a, b) => {
            let pair = (f.clone(), (**b).clone());
            if !out.contains(&pair) {
                out.push(pair);
            }
            collect_untils(a, out);
            collect_untils(b, out);
        }
    }
}

/// A node still being expanded (it has unprocessed obligations in `new`).
struct PendingNode {
    incoming: BTreeSet<NodeId>,
    new: BTreeSet<Formula>,
    old: BTreeSet<Formula>,
    next: BTreeSet<Formula>,
}

struct Builder {
    nodes: Vec<Node>,
}

impl Builder {
    fn expand(&mut self, mut node: PendingNode) {
        let Some(f) = node.new.iter().next().cloned() else {
            // All obligations processed: merge with an existing identical node or add.
            for existing in self.nodes.iter_mut().skip(1) {
                if existing.old == node.old && existing.next == node.next {
                    existing.incoming.extend(node.incoming.iter().copied());
                    return;
                }
            }
            let id = self.nodes.len();
            self.nodes.push(Node {
                incoming: node.incoming,
                old: node.old.clone(),
                next: node.next.clone(),
            });
            // Expand the successor obligations.
            self.expand(PendingNode {
                incoming: BTreeSet::from([id]),
                new: node.next,
                old: BTreeSet::new(),
                next: BTreeSet::new(),
            });
            return;
        };
        node.new.remove(&f);

        match &f {
            Formula::True => self.expand(node),
            Formula::False => { /* contradiction: drop the node */ }
            Formula::Atom(_) => {
                let neg = Formula::not(f.clone());
                if node.old.contains(&neg) {
                    return; // contradiction
                }
                node.old.insert(f);
                self.expand(node);
            }
            Formula::Not(inner) => {
                debug_assert!(
                    matches!(&**inner, Formula::Atom(_)),
                    "formula must be in NNF"
                );
                let pos = (**inner).clone();
                if node.old.contains(&pos) {
                    return; // contradiction
                }
                node.old.insert(f);
                self.expand(node);
            }
            Formula::And(a, b) => {
                node.old.insert(f.clone());
                for part in [&**a, &**b] {
                    if !node.old.contains(part) {
                        node.new.insert(part.clone());
                    }
                }
                self.expand(node);
            }
            Formula::Next(a) => {
                node.old.insert(f.clone());
                node.next.insert((**a).clone());
                self.expand(node);
            }
            Formula::Or(a, b) => {
                let mut left = PendingNode {
                    incoming: node.incoming.clone(),
                    new: node.new.clone(),
                    old: node.old.clone(),
                    next: node.next.clone(),
                };
                left.old.insert(f.clone());
                if !left.old.contains(&**a) {
                    left.new.insert((**a).clone());
                }
                let mut right = node;
                right.old.insert(f.clone());
                if !right.old.contains(&**b) {
                    right.new.insert((**b).clone());
                }
                self.expand(left);
                self.expand(right);
            }
            Formula::Until(a, b) => {
                // f = a U b:  (b)  ∨  (a ∧ X f)
                let mut left = PendingNode {
                    incoming: node.incoming.clone(),
                    new: node.new.clone(),
                    old: node.old.clone(),
                    next: node.next.clone(),
                };
                left.old.insert(f.clone());
                if !left.old.contains(&**a) {
                    left.new.insert((**a).clone());
                }
                left.next.insert(f.clone());
                let mut right = node;
                right.old.insert(f.clone());
                if !right.old.contains(&**b) {
                    right.new.insert((**b).clone());
                }
                self.expand(left);
                self.expand(right);
            }
            Formula::Release(a, b) => {
                // f = a R b:  (a ∧ b)  ∨  (b ∧ X f)
                let mut left = PendingNode {
                    incoming: node.incoming.clone(),
                    new: node.new.clone(),
                    old: node.old.clone(),
                    next: node.next.clone(),
                };
                left.old.insert(f.clone());
                if !left.old.contains(&**b) {
                    left.new.insert((**b).clone());
                }
                left.next.insert(f.clone());
                let mut right = node;
                right.old.insert(f.clone());
                for part in [&**a, &**b] {
                    if !right.old.contains(part) {
                        right.new.insert(part.clone());
                    }
                }
                self.expand(left);
                self.expand(right);
            }
        }
    }
}

/// Tarjan's strongly-connected-components algorithm (iterative).
/// Returns SCCs in reverse topological order (successor components first).
fn tarjan_sccs(n: usize, succ: &[Vec<NodeId>]) -> Vec<Vec<NodeId>> {
    #[derive(Clone)]
    struct Entry {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }
    let mut entries = vec![
        Entry {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut index = 0;
    let mut stack: Vec<NodeId> = Vec::new();
    let mut sccs: Vec<Vec<NodeId>> = Vec::new();

    for start in 0..n {
        if entries[start].visited {
            continue;
        }
        // Iterative DFS with an explicit frame stack.
        let mut frames: Vec<(NodeId, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut child_idx)) = frames.last_mut() {
            if *child_idx == 0 {
                entries[v].visited = true;
                entries[v].index = index;
                entries[v].lowlink = index;
                index += 1;
                stack.push(v);
                entries[v].on_stack = true;
            }
            if *child_idx < succ[v].len() {
                let w = succ[v][*child_idx];
                *child_idx += 1;
                if !entries[w].visited {
                    frames.push((w, 0));
                } else if entries[w].on_stack {
                    entries[v].lowlink = entries[v].lowlink.min(entries[w].index);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    let low = entries[v].lowlink;
                    entries[parent].lowlink = entries[parent].lowlink.min(low);
                }
                if entries[v].lowlink == entries[v].index {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        entries[w].on_stack = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrv_ltl::AtomId;

    fn a(i: u32) -> Formula {
        Formula::Atom(AtomId(i))
    }

    #[test]
    fn gba_of_atom_is_small_and_live() {
        let gba = GeneralizedBuchi::build(&a(0));
        // Virtual init + at least one real node.
        assert!(gba.nodes.len() >= 2);
        // Some successor of init must be live (the formula is satisfiable).
        assert!(gba.successors(INIT_NODE).iter().any(|&q| gba.is_live(q)));
    }

    #[test]
    fn gba_of_false_has_no_live_initial_successor() {
        let gba = GeneralizedBuchi::build(&Formula::False);
        assert!(gba.successors(INIT_NODE).iter().all(|&q| !gba.is_live(q)));
    }

    #[test]
    fn gba_of_unsatisfiable_formula_is_dead() {
        // G a && F !a  is unsatisfiable.
        let f = Formula::and(
            Formula::globally(a(0)),
            Formula::eventually(Formula::not(a(0))),
        );
        let gba = GeneralizedBuchi::build(&f);
        assert!(
            gba.successors(INIT_NODE).iter().all(|&q| !gba.is_live(q)),
            "unsatisfiable formula must have an empty language"
        );
    }

    #[test]
    fn acceptance_sets_one_per_until() {
        let f = Formula::until(a(0), Formula::until(a(1), a(2)));
        let gba = GeneralizedBuchi::build(&f);
        assert_eq!(gba.acceptance_sets.len(), 2);
        // F a == true U a has one acceptance set.
        let g = Formula::eventually(a(0));
        assert_eq!(GeneralizedBuchi::build(&g).acceptance_sets.len(), 1);
        // G a == false R a has none.
        let h = Formula::globally(a(0));
        assert_eq!(GeneralizedBuchi::build(&h).acceptance_sets.len(), 0);
    }

    #[test]
    fn recurring_until_with_true_rhs_stays_live() {
        // G (a U true) ≡ G true: the until obligation recurs forever and its RHS
        // `true` is discharged without ever entering `old`, so the acceptance set
        // must not come out empty (regression: this synthesized as unsatisfiable).
        let f = Formula::globally(Formula::until(a(0), Formula::True));
        let gba = GeneralizedBuchi::build(&f);
        assert!(
            gba.successors(INIT_NODE).iter().any(|&q| gba.is_live(q)),
            "G (a U true) is a tautology, its language must be non-empty"
        );
    }

    #[test]
    fn labels_are_consistent_cubes() {
        let f = Formula::until(Formula::and(a(0), Formula::not(a(1))), a(2));
        let gba = GeneralizedBuchi::build(&f);
        for q in 1..gba.nodes.len() {
            let label = gba.nodes[q].label();
            // A node label can never require both polarities of an atom: expansion
            // prunes contradictions, so conjoining with itself must succeed.
            assert!(label.conjoin(&label).is_some());
        }
    }

    #[test]
    fn tarjan_finds_cycles() {
        // 0 -> 1 -> 2 -> 1, 3 isolated
        let succ = vec![vec![1], vec![2], vec![1], vec![]];
        let sccs = tarjan_sccs(4, &succ);
        let cycle = sccs.iter().find(|s| s.len() == 2).expect("cycle SCC");
        let mut c = cycle.clone();
        c.sort_unstable();
        assert_eq!(c, vec![1, 2]);
        assert_eq!(sccs.iter().map(|s| s.len()).sum::<usize>(), 4);
    }
}
