//! Atomic propositions and their ownership by processes.
//!
//! In the paper's model every atomic proposition is a predicate over the *local* state
//! of exactly one process (e.g. `x1 >= 5` in the running example, or `P0.p` in the
//! evaluation chapter).  The monitor algorithm relies on this ownership to decide which
//! conjuncts of a transition guard a given monitor can evaluate locally and which must
//! be fetched from other monitors via tokens.

use crate::predicate::Assignment;
use std::collections::HashMap;
use std::fmt;

/// Index of a process in the distributed program (`P0`, `P1`, ...).
pub type ProcessId = usize;

/// Interned identifier of an atomic proposition.
///
/// Atom ids are dense (`0..registry.len()`), which lets assignments be represented as
/// bitmasks ([`crate::Assignment`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomId(pub u32);

impl AtomId {
    /// The dense index of this atom.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AtomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Metadata attached to a registered atomic proposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomInfo {
    /// Human-readable name, e.g. `"P0.p"` or `"x1>=5"`.
    pub name: String,
    /// The process whose local state determines this proposition.
    pub owner: ProcessId,
}

/// Registry interning atomic propositions and recording which process owns each.
///
/// The registry is shared by the formula parser, the monitor-automaton synthesizer and
/// the monitors themselves, so that all components agree on atom indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AtomRegistry {
    atoms: Vec<AtomInfo>,
    by_name: HashMap<String, AtomId>,
}

impl AtomRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or looks up) the proposition `name` owned by process `owner`.
    ///
    /// Registering the same name twice returns the original id; the owner of the first
    /// registration wins.
    pub fn intern(&mut self, name: &str, owner: ProcessId) -> AtomId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = AtomId(self.atoms.len() as u32);
        self.atoms.push(AtomInfo {
            name: name.to_string(),
            owner,
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Registers `name`, inferring the owning process from a `P<k>.` prefix.
    ///
    /// Names that do not follow the convention are assigned to process 0.
    pub fn intern_auto(&mut self, name: &str) -> AtomId {
        let owner = Self::owner_from_name(name).unwrap_or(0);
        self.intern(name, owner)
    }

    /// Parses the `P<k>.` prefix convention used throughout the evaluation chapter.
    pub fn owner_from_name(name: &str) -> Option<ProcessId> {
        let rest = name.strip_prefix('P')?;
        let dot = rest.find('.')?;
        rest[..dot].parse::<usize>().ok()
    }

    /// Looks up an atom by name.
    pub fn lookup(&self, name: &str) -> Option<AtomId> {
        self.by_name.get(name).copied()
    }

    /// Returns the metadata of `id`.
    pub fn info(&self, id: AtomId) -> &AtomInfo {
        &self.atoms[id.index()]
    }

    /// Returns the name of `id`.
    pub fn name(&self, id: AtomId) -> &str {
        &self.atoms[id.index()].name
    }

    /// Returns the process owning `id`.
    pub fn owner(&self, id: AtomId) -> ProcessId {
        self.atoms[id.index()].owner
    }

    /// Number of registered atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True when no atoms have been registered.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Iterates over all registered atom ids.
    pub fn ids(&self) -> impl Iterator<Item = AtomId> + '_ {
        (0..self.atoms.len() as u32).map(AtomId)
    }

    /// Returns all atoms owned by `process`.
    pub fn atoms_of_process(&self, process: ProcessId) -> Vec<AtomId> {
        self.ids().filter(|&a| self.owner(a) == process).collect()
    }

    /// Number of distinct processes that own at least one atom (max owner + 1).
    pub fn process_count(&self) -> usize {
        self.atoms.iter().map(|a| a.owner + 1).max().unwrap_or(0)
    }
}

/// Which of a process's two workload-driven boolean channels feeds an atom.
///
/// The repository's workload model drives every process with two boolean signals per
/// internal event (historically the propositions `Pi.p` and `Pi.q`).  Arbitrary
/// properties may name their atoms freely (`P0.req`, `P1.ack`, …); an [`AtomLayout`]
/// binds each registered atom to one of the two channels of its owning process so
/// the same two-signal workloads can drive any formula.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// The first boolean channel (the classic `p` proposition).
    P,
    /// The second boolean channel (the classic `q` proposition).
    Q,
}

/// The atom-to-process-channel layout of a registry: for every atom, which process
/// owns it (from the [`AtomRegistry`]) and which of that process's two workload
/// channels drives it.
///
/// The binding rule is deterministic and backward compatible with the evaluation
/// chapter's naming convention:
///
/// 1. atoms whose name ends in `.p` bind to [`Channel::P`], names ending in `.q`
///    bind to [`Channel::Q`] (so `P3.p`/`P3.q` behave exactly as before);
/// 2. every other atom binds, in atom-id order, to whichever channel of its owning
///    process currently drives *fewer* atoms (ties go to `P`) — so a process owning
///    one free-form atom (`P0.req`) drives it with channel `P`, a process owning
///    two (`P0.req`, `P0.go`) drives them independently, and a free-form atom next
///    to a suffix-bound `P0.p` takes the still-free channel `Q`.
///
/// Since there are only two channels per process, a process owning **three or more
/// atoms** necessarily has a channel driving several atoms at once: those atoms are
/// perfectly correlated in every generated workload.  [`aliased_atoms`]
/// reports such bindings so callers can warn instead of silently monitoring an
/// artifact of the harness wiring.
///
/// [`aliased_atoms`]: AtomLayout::aliased_atoms
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomLayout {
    /// Channel of every atom, indexed by dense atom id.
    channels: Vec<Channel>,
    /// Per process: the atoms fed by channel `P` and by channel `Q`, in id order.
    per_process: Vec<(Vec<AtomId>, Vec<AtomId>)>,
}

impl AtomLayout {
    /// Derives the layout of every atom in `registry` (see the type-level rule).
    ///
    /// `n_processes` may exceed the registry's [`process_count`]
    /// (processes owning no atoms simply have empty channel bindings); it is clamped
    /// up so every owner has a slot.
    ///
    /// [`process_count`]: AtomRegistry::process_count
    pub fn from_registry(registry: &AtomRegistry, n_processes: usize) -> Self {
        let n = n_processes.max(registry.process_count());
        let mut channels = vec![Channel::P; registry.len()];
        let mut per_process: Vec<(Vec<AtomId>, Vec<AtomId>)> = vec![(Vec::new(), Vec::new()); n];
        // Pass 1: suffix-bound atoms fix their channel unconditionally.
        let mut free_form: Vec<AtomId> = Vec::new();
        for id in registry.ids() {
            let owner = registry.owner(id);
            let name = registry.name(id);
            let channel = if name.ends_with(".p") {
                Channel::P
            } else if name.ends_with(".q") {
                Channel::Q
            } else {
                free_form.push(id);
                continue;
            };
            channels[id.index()] = channel;
            let slot = &mut per_process[owner];
            match channel {
                Channel::P => slot.0.push(id),
                Channel::Q => slot.1.push(id),
            }
        }
        // Pass 2: free-form atoms take the less-loaded channel of their process, so
        // a channel is never shared while the other sits idle (regardless of the
        // interning order of suffix-bound vs free-form atoms).
        for id in free_form {
            let slot = &mut per_process[registry.owner(id)];
            if slot.0.len() <= slot.1.len() {
                channels[id.index()] = Channel::P;
                slot.0.push(id);
            } else {
                channels[id.index()] = Channel::Q;
                slot.1.push(id);
            }
        }
        // Restore the documented id order within each channel list (pass 2 may have
        // appended a lower-id free-form atom after a higher-id suffix-bound one).
        for slot in &mut per_process {
            slot.0.sort_unstable();
            slot.1.sort_unstable();
        }
        AtomLayout {
            channels,
            per_process,
        }
    }

    /// Channel bindings that alias several atoms: every `(process, channel, atoms)`
    /// where one workload channel drives two or more atoms, making them perfectly
    /// correlated in every generated workload.
    ///
    /// Empty for any registry with at most two atoms per process (all paper
    /// properties and all shipped custom scenarios).  Callers exposing user-supplied
    /// formulas should surface these as a diagnostic.
    pub fn aliased_atoms(&self) -> Vec<(ProcessId, Channel, Vec<AtomId>)> {
        let mut out = Vec::new();
        for (process, (p_atoms, q_atoms)) in self.per_process.iter().enumerate() {
            if p_atoms.len() > 1 {
                out.push((process, Channel::P, p_atoms.clone()));
            }
            if q_atoms.len() > 1 {
                out.push((process, Channel::Q, q_atoms.clone()));
            }
        }
        out
    }

    /// The channel driving `atom`.
    pub fn channel(&self, atom: AtomId) -> Channel {
        self.channels[atom.index()]
    }

    /// Number of process slots (≥ the registry's process count).
    pub fn n_processes(&self) -> usize {
        self.per_process.len()
    }

    /// The atoms of `process` fed by `channel`, in atom-id order.
    pub fn atoms_on(&self, process: ProcessId, channel: Channel) -> &[AtomId] {
        let slot = &self.per_process[process];
        match channel {
            Channel::P => &slot.0,
            Channel::Q => &slot.1,
        }
    }

    /// Applies one internal event of `process` — the workload's `(p, q)` channel
    /// values — to `state`: every atom bound to a channel takes that channel's value.
    pub fn apply_channels(&self, process: ProcessId, p: bool, q: bool, state: &mut Assignment) {
        for &atom in self.atoms_on(process, Channel::P) {
            state.set(atom, p);
        }
        for &atom in self.atoms_on(process, Channel::Q) {
            state.set(atom, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut reg = AtomRegistry::new();
        let a = reg.intern("P0.p", 0);
        let b = reg.intern("P0.p", 3);
        assert_eq!(a, b);
        assert_eq!(reg.owner(a), 0, "first registration wins");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn owner_inference_from_name() {
        assert_eq!(AtomRegistry::owner_from_name("P0.p"), Some(0));
        assert_eq!(AtomRegistry::owner_from_name("P12.q"), Some(12));
        assert_eq!(AtomRegistry::owner_from_name("x1>=5"), None);
        assert_eq!(AtomRegistry::owner_from_name("Px.q"), None);
    }

    #[test]
    fn intern_auto_assigns_owner() {
        let mut reg = AtomRegistry::new();
        let a = reg.intern_auto("P2.q");
        assert_eq!(reg.owner(a), 2);
        let b = reg.intern_auto("flag");
        assert_eq!(reg.owner(b), 0);
    }

    #[test]
    fn atoms_of_process_filters_by_owner() {
        let mut reg = AtomRegistry::new();
        let a0 = reg.intern("P0.p", 0);
        let a1 = reg.intern("P1.p", 1);
        let a2 = reg.intern("P1.q", 1);
        assert_eq!(reg.atoms_of_process(0), vec![a0]);
        assert_eq!(reg.atoms_of_process(1), vec![a1, a2]);
        assert!(reg.atoms_of_process(2).is_empty());
        assert_eq!(reg.process_count(), 2);
    }

    #[test]
    fn display_and_index() {
        let id = AtomId(7);
        assert_eq!(id.index(), 7);
        assert_eq!(format!("{id}"), "a7");
    }

    #[test]
    fn layout_preserves_paper_convention() {
        let mut reg = AtomRegistry::new();
        let p0 = reg.intern("P0.p", 0);
        let q0 = reg.intern("P0.q", 0);
        let p1 = reg.intern("P1.p", 1);
        let layout = AtomLayout::from_registry(&reg, 2);
        assert_eq!(layout.channel(p0), Channel::P);
        assert_eq!(layout.channel(q0), Channel::Q);
        assert_eq!(layout.channel(p1), Channel::P);
        assert_eq!(layout.atoms_on(0, Channel::P), &[p0]);
        assert_eq!(layout.atoms_on(0, Channel::Q), &[q0]);
        assert_eq!(layout.atoms_on(1, Channel::Q), &[] as &[AtomId]);
    }

    #[test]
    fn layout_alternates_free_form_atoms_per_process() {
        let mut reg = AtomRegistry::new();
        let req = reg.intern_auto("P0.req");
        let go = reg.intern_auto("P0.go");
        let more = reg.intern_auto("P0.more");
        let ack = reg.intern_auto("P1.ack");
        let layout = AtomLayout::from_registry(&reg, 2);
        assert_eq!(layout.channel(req), Channel::P);
        assert_eq!(layout.channel(go), Channel::Q);
        assert_eq!(layout.channel(more), Channel::P);
        assert_eq!(
            layout.channel(ack),
            Channel::P,
            "per-process alternation restarts"
        );
        assert_eq!(layout.atoms_on(0, Channel::P), &[req, more]);
    }

    #[test]
    fn free_form_atoms_avoid_occupied_channels() {
        // Regardless of interning order, a free-form atom must take the channel its
        // suffix-bound sibling left idle — never alias while a channel is free.
        let mut reg = AtomRegistry::new();
        let req = reg.intern_auto("P0.req");
        let p0 = reg.intern("P0.p", 0);
        let layout = AtomLayout::from_registry(&reg, 1);
        assert_eq!(layout.channel(p0), Channel::P);
        assert_eq!(layout.channel(req), Channel::Q);
        assert!(layout.aliased_atoms().is_empty());
        assert_eq!(layout.atoms_on(0, Channel::P), &[p0]);
    }

    #[test]
    fn aliased_atoms_are_reported() {
        // Three atoms on one process cannot be independent over two channels; the
        // doubly-driven channel must be reported.
        let mut reg = AtomRegistry::new();
        let a = reg.intern_auto("P0.a");
        let b = reg.intern_auto("P0.b");
        let c = reg.intern_auto("P0.c");
        let layout = AtomLayout::from_registry(&reg, 1);
        assert_eq!(layout.channel(b), Channel::Q);
        let aliases = layout.aliased_atoms();
        assert_eq!(aliases.len(), 1);
        let (process, channel, atoms) = &aliases[0];
        assert_eq!((*process, *channel), (0, Channel::P));
        assert_eq!(atoms, &vec![a, c]);
    }

    #[test]
    fn layout_extends_to_atomless_processes() {
        let mut reg = AtomRegistry::new();
        reg.intern("P0.p", 0);
        let layout = AtomLayout::from_registry(&reg, 4);
        assert_eq!(layout.n_processes(), 4);
        assert!(layout.atoms_on(3, Channel::P).is_empty());
        // A registry owner beyond the requested count still gets a slot.
        let mut reg2 = AtomRegistry::new();
        reg2.intern("P5.p", 5);
        assert_eq!(AtomLayout::from_registry(&reg2, 2).n_processes(), 6);
    }

    #[test]
    fn apply_channels_sets_bound_atoms() {
        let mut reg = AtomRegistry::new();
        let req = reg.intern_auto("P0.req");
        let go = reg.intern_auto("P0.go");
        let ack = reg.intern_auto("P1.ack");
        let layout = AtomLayout::from_registry(&reg, 2);
        let mut state = Assignment::ALL_FALSE;
        layout.apply_channels(0, true, false, &mut state);
        assert!(state.get(req) && !state.get(go) && !state.get(ack));
        layout.apply_channels(0, false, true, &mut state);
        assert!(!state.get(req) && state.get(go));
        layout.apply_channels(1, true, true, &mut state);
        assert!(state.get(ack));
    }
}
