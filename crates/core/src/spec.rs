//! First-class property specifications: the bridge between "property" as a name and
//! everything the pipeline derives from it.
//!
//! A [`PropertySpec`] is what every layer of the repository is parameterized by: the
//! scenario registry, the experiment and throughput runners, the workload generator
//! (via the spec's initial channel values) and the `experiments` CLI.  It comes in
//! two flavors:
//!
//! * **paper** — one of the six evaluation properties A–F ([`PaperProperty`]),
//!   parameterized by process count exactly as before; and
//! * **LTL** — an arbitrary user-supplied formula in the textual syntax of
//!   [`dlrv_ltl::parse`], over atoms following the `P<i>.<name>` ownership
//!   convention (`G(P0.req -> F P1.ack)`), fixed at parse time.
//!
//! [`CompiledProperty`] is the spec fully elaborated for a concrete process count:
//! formula, atom registry, atom-to-channel [`AtomLayout`] and the synthesized
//! [`MonitorAutomaton`], shared (`Arc`) by every monitor of a run.  It is what the
//! decentralized feed sessions and the stream runtime's `SessionSpec` are built
//! from.

use crate::properties::PaperProperty;
use dlrv_automaton::MonitorAutomaton;
use dlrv_ltl::{parse, Assignment, AtomLayout, AtomRegistry, Channel, Formula, ParseError};
use dlrv_monitor::{decentralized_session, DecentralizedSession, MonitorOptions};
use std::fmt;
use std::sync::Arc;

/// Ceiling on the number of distinct atoms a custom formula may use.
///
/// The monitor synthesis enumerates the alphabet `2^n_atoms` explicitly, so the cap
/// keeps user-supplied formulas inside the same complexity envelope as the paper's
/// largest property (D/E/F at five processes use 10 atoms).
pub const MAX_SPEC_ATOMS: usize = 12;

/// Error constructing a [`PropertySpec`] from LTL text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropertySpecError {
    /// The text does not parse; the payload carries the offending byte offset.
    Parse(ParseError),
    /// The formula uses more atoms than the synthesis pipeline accepts.
    TooManyAtoms {
        /// Atoms used by the formula.
        count: usize,
        /// The [`MAX_SPEC_ATOMS`] ceiling.
        max: usize,
    },
    /// The formula mentions no atomic proposition at all — nothing to monitor.
    NoAtoms,
}

impl fmt::Display for PropertySpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertySpecError::Parse(e) => write!(f, "{e}"),
            PropertySpecError::TooManyAtoms { count, max } => write!(
                f,
                "formula uses {count} atoms; the monitor synthesis accepts at most {max}"
            ),
            PropertySpecError::NoAtoms => {
                write!(
                    f,
                    "formula contains no atomic proposition; nothing to monitor"
                )
            }
        }
    }
}

impl std::error::Error for PropertySpecError {}

impl From<ParseError> for PropertySpecError {
    fn from(e: ParseError) -> Self {
        PropertySpecError::Parse(e)
    }
}

/// Where a spec's formula comes from.
#[derive(Debug, Clone, PartialEq)]
enum PropertySource {
    /// A paper property, re-instantiated per process count.
    Paper(PaperProperty),
    /// A fixed user formula: the source text plus its parse artifacts.
    Ltl {
        text: String,
        formula: Formula,
        registry: AtomRegistry,
    },
}

/// A named, monitorable property: the unit every layer of the pipeline takes.
///
/// Construct with [`PropertySpec::from`] a [`PaperProperty`], or
/// [`PropertySpec::parse`] / [`PropertySpec::parse_named`] for LTL text.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertySpec {
    name: String,
    source: PropertySource,
}

impl PropertySpec {
    /// The spec of a paper property (also available via `From`/`Into`).
    pub fn paper(property: PaperProperty) -> Self {
        PropertySpec {
            name: property.name().to_string(),
            source: PropertySource::Paper(property),
        }
    }

    /// Parses LTL text into a spec named after its own source text.
    pub fn parse(text: &str) -> Result<Self, PropertySpecError> {
        Self::parse_named(text, text)
    }

    /// Parses LTL text into a spec with an explicit display/JSON name.
    ///
    /// Atom ownership follows the `P<i>.<name>` convention of
    /// [`AtomRegistry::intern_auto`]; the formula must mention at least one atom and
    /// at most [`MAX_SPEC_ATOMS`].
    pub fn parse_named(name: &str, text: &str) -> Result<Self, PropertySpecError> {
        let mut registry = AtomRegistry::new();
        let formula = parse(text, &mut registry)?;
        if registry.is_empty() {
            return Err(PropertySpecError::NoAtoms);
        }
        if registry.len() > MAX_SPEC_ATOMS {
            return Err(PropertySpecError::TooManyAtoms {
                count: registry.len(),
                max: MAX_SPEC_ATOMS,
            });
        }
        Ok(PropertySpec {
            name: name.to_string(),
            source: PropertySource::Ltl {
                text: text.to_string(),
                formula,
                registry,
            },
        })
    }

    /// The spec's stable name (a paper letter `A`–`F`, or the custom name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying paper property, when this spec is one.
    pub fn paper_property(&self) -> Option<PaperProperty> {
        match &self.source {
            PropertySource::Paper(p) => Some(*p),
            PropertySource::Ltl { .. } => None,
        }
    }

    /// The LTL source text, when this spec was parsed from text.
    pub fn ltl_source(&self) -> Option<&str> {
        match &self.source {
            PropertySource::Paper(_) => None,
            PropertySource::Ltl { text, .. } => Some(text),
        }
    }

    /// The smallest process count the spec can be built for.
    ///
    /// Paper properties need two processes; an LTL spec needs every process its
    /// atoms name (max owner + 1, at least one).
    pub fn min_processes(&self) -> usize {
        match &self.source {
            PropertySource::Paper(_) => 2,
            PropertySource::Ltl { registry, .. } => registry.process_count().max(1),
        }
    }

    /// Builds the formula and atom registry for `n_processes` processes.
    ///
    /// Paper properties re-instantiate per process count (their shape scales);
    /// LTL specs return their fixed parse artifacts.  Panics when `n_processes <`
    /// [`min_processes`](Self::min_processes).
    pub fn build(&self, n_processes: usize) -> (Formula, AtomRegistry) {
        match &self.source {
            PropertySource::Paper(p) => p.build(n_processes),
            PropertySource::Ltl {
                formula, registry, ..
            } => {
                assert!(
                    n_processes >= self.min_processes(),
                    "property `{}` names process P{}, but only {} process(es) requested",
                    self.name,
                    self.min_processes() - 1,
                    n_processes
                );
                (formula.clone(), registry.clone())
            }
        }
    }

    /// Builds the formula into an existing registry, interning this spec's atoms
    /// alongside whatever other properties already put there.
    ///
    /// This is the substrate of fleet compilation ([`crate::fleet`]): every member
    /// of a fleet is built into one shared registry so all members interpret the
    /// same event assignments, and each member's automaton is synthesized over
    /// that shared atom space.  Panics when `n_processes <`
    /// [`min_processes`](Self::min_processes).
    pub fn build_in(&self, reg: &mut AtomRegistry, n_processes: usize) -> Formula {
        match &self.source {
            PropertySource::Paper(p) => p.build_in(reg, n_processes),
            PropertySource::Ltl { text, .. } => {
                assert!(
                    n_processes >= self.min_processes(),
                    "property `{}` names process P{}, but only {} process(es) requested",
                    self.name,
                    self.min_processes() - 1,
                    n_processes
                );
                // Reparse into the shared registry: atom names dedup on intern,
                // so atoms shared with other members resolve to the same ids.
                parse(text, reg).expect("spec text parsed once already")
            }
        }
    }

    /// Initial values of the two per-process workload channels `(p, q)`.
    ///
    /// Until-style properties need their left-hand side to hold in the initial
    /// global state (otherwise the very first cut already violates them); pure
    /// reachability properties want everything false so satisfaction is not trivial.
    /// Paper properties use the evaluation chapter's exact table; LTL specs derive
    /// the values from the formula: a channel starts `true` iff some atom it drives
    /// occurs positively in the left operand of an `U` (see
    /// [`initial_channels_for`]).
    pub fn initial_channels(&self) -> (bool, bool) {
        match &self.source {
            PropertySource::Paper(p) => match p {
                PaperProperty::A | PaperProperty::C | PaperProperty::D => (true, false),
                PaperProperty::F => (true, true),
                PaperProperty::B | PaperProperty::E => (false, false),
            },
            PropertySource::Ltl {
                formula, registry, ..
            } => initial_channels_for(formula, registry),
        }
    }
}

impl From<PaperProperty> for PropertySpec {
    fn from(property: PaperProperty) -> Self {
        PropertySpec::paper(property)
    }
}

impl PartialEq<PaperProperty> for PropertySpec {
    fn eq(&self, other: &PaperProperty) -> bool {
        self.paper_property() == Some(*other)
    }
}

impl fmt::Display for PropertySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Paper specs display exactly like `PaperProperty` ("Property A"), so text
        // output through the spec layer is byte-identical to the historical path.
        write!(f, "Property {}", self.name)
    }
}

/// Derives initial channel values from a formula: channel `c` starts `true` iff some
/// atom bound to `c` (under the registry's [`AtomLayout`]) occurs *positively* in an
/// **initial obligation** — the left operand of any `Until`, or reachable at time
/// zero through the invariant spine (conjunctions/disjunctions and `Release`
/// right-hand sides, which is where `G φ = false R φ` puts its body).
///
/// Both kinds of obligation must hold at the very first cut, so starting their
/// atoms `false` would make the property trivially violated before any event
/// (`G P0.p`, `G(P0.p U P1.p)`); atoms only reachable under an `Until` right-hand
/// side or a `Next` (`F P0.p`, `G X P0.p`) are eventualities and start `false` so
/// satisfaction is not trivial either.  For every paper property this reproduces
/// the evaluation chapter's initial-value table exactly (pinned by a test below).
pub fn initial_channels_for(formula: &Formula, registry: &AtomRegistry) -> (bool, bool) {
    let mut obligated = std::collections::BTreeSet::new();
    collect_initial_obligations(&formula.nnf(), true, &mut obligated);
    let layout = AtomLayout::from_registry(registry, registry.process_count());
    let mut p = false;
    let mut q = false;
    for atom in obligated {
        match layout.channel(atom) {
            Channel::P => p = true,
            Channel::Q => q = true,
        }
    }
    (p, q)
}

/// Walks an NNF formula; `oblig` is true while the current subformula must hold at
/// time zero (the invariant spine).  Until left-hand sides are obligations wherever
/// they appear; Until right-hand sides, Release left-hand sides and `Next` bodies
/// are deferred and reset the flag.
fn collect_initial_obligations(
    f: &Formula,
    oblig: bool,
    out: &mut std::collections::BTreeSet<dlrv_ltl::AtomId>,
) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Atom(a) => {
            if oblig {
                out.insert(*a);
            }
        }
        // NNF: negation only wraps atoms; a negated atom is not a positive occurrence.
        Formula::Not(_) => {}
        Formula::And(a, b) | Formula::Or(a, b) => {
            collect_initial_obligations(a, oblig, out);
            collect_initial_obligations(b, oblig, out);
        }
        Formula::Next(a) => collect_initial_obligations(a, false, out),
        Formula::Until(a, b) => {
            collect_initial_obligations(a, true, out);
            collect_initial_obligations(b, false, out);
        }
        Formula::Release(a, b) => {
            collect_initial_obligations(a, false, out);
            collect_initial_obligations(b, oblig, out);
        }
    }
}

/// A spec elaborated for a concrete process count: everything a run shares.
///
/// Compilation synthesizes the monitor automaton once; the `Arc`s are handed to every
/// per-process monitor, the stream runtime's session specs and the DOT exporter.
#[derive(Debug, Clone)]
pub struct CompiledProperty {
    /// The spec this was compiled from.
    pub spec: PropertySpec,
    /// The process count it was compiled for.
    pub n_processes: usize,
    /// The formula over the registry's atoms.
    pub formula: Formula,
    /// The shared atom registry (ownership of every conjunct).
    pub registry: Arc<AtomRegistry>,
    /// The shared synthesized LTL₃ monitor automaton.
    pub automaton: Arc<MonitorAutomaton>,
}

impl CompiledProperty {
    /// Compiles `spec` for `n_processes`: builds formula + registry and synthesizes
    /// the monitor automaton.
    pub fn compile(spec: &PropertySpec, n_processes: usize) -> Self {
        let (formula, registry) = spec.build(n_processes);
        let automaton = Arc::new(MonitorAutomaton::synthesize(&formula, &registry));
        CompiledProperty {
            spec: spec.clone(),
            n_processes,
            formula,
            registry: Arc::new(registry),
            automaton,
        }
    }

    /// A fresh incremental decentralized monitoring session over this property.
    pub fn session(
        &self,
        initial_gstate: Assignment,
        opts: MonitorOptions,
    ) -> DecentralizedSession {
        decentralized_session(
            self.n_processes,
            &self.automaton,
            &self.registry,
            initial_gstate,
            opts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrv_ltl::Verdict;

    #[test]
    fn paper_specs_delegate_to_paper_properties() {
        for property in PaperProperty::ALL {
            let spec = PropertySpec::from(property);
            assert_eq!(spec.name(), property.name());
            assert_eq!(spec.paper_property(), Some(property));
            assert_eq!(spec.min_processes(), 2);
            assert_eq!(spec, property);
            let (f_spec, r_spec) = spec.build(3);
            let (f_direct, r_direct) = property.build(3);
            assert_eq!(f_spec, f_direct);
            assert_eq!(r_spec, r_direct);
        }
    }

    #[test]
    fn ltl_specs_parse_and_build() {
        let spec = PropertySpec::parse("G(P0.req -> F P1.ack)").expect("valid LTL");
        assert_eq!(spec.min_processes(), 2);
        assert!(spec.paper_property().is_none());
        assert_eq!(spec.ltl_source(), Some("G(P0.req -> F P1.ack)"));
        let (formula, registry) = spec.build(3);
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.owner(registry.lookup("P1.ack").unwrap()), 1);
        assert!(!formula.is_propositional());
    }

    #[test]
    fn parse_named_keeps_the_display_name() {
        let spec = PropertySpec::parse_named("reqack", "G(P0.req -> F P1.ack)").unwrap();
        assert_eq!(spec.name(), "reqack");
        assert_eq!(format!("{spec}"), "Property reqack");
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(matches!(
            PropertySpec::parse("G(P0.p &&"),
            Err(PropertySpecError::Parse(_))
        ));
        assert!(matches!(
            PropertySpec::parse("G true"),
            Err(PropertySpecError::NoAtoms)
        ));
        // 13 distinct atoms exceed the synthesis ceiling.
        let wide = (0..13)
            .map(|i| format!("P{i}.p"))
            .collect::<Vec<_>>()
            .join(" && ");
        assert!(matches!(
            PropertySpec::parse(&format!("F ({wide})")),
            Err(PropertySpecError::TooManyAtoms {
                count: 13,
                max: MAX_SPEC_ATOMS
            })
        ));
    }

    #[test]
    #[should_panic(expected = "names process P2")]
    fn building_below_min_processes_panics() {
        let spec = PropertySpec::parse("F (P2.p)").unwrap();
        spec.build(2);
    }

    #[test]
    fn initial_channel_heuristic_matches_the_paper_table() {
        // The generic until-LHS heuristic must reproduce the evaluation chapter's
        // initial-value table on every paper property and process count, so a paper
        // formula routed through the LTL path behaves identically.
        for property in PaperProperty::ALL {
            let expected = PropertySpec::from(property).initial_channels();
            for n in 2..=5 {
                let (formula, registry) = property.build(n);
                assert_eq!(
                    initial_channels_for(&formula, &registry),
                    expected,
                    "{property} at {n} processes"
                );
            }
        }
    }

    #[test]
    fn initial_channels_for_custom_shapes() {
        // Request-response: no until-LHS atoms, everything starts false.
        let spec = PropertySpec::parse("G(P0.req -> F P1.ack)").unwrap();
        assert_eq!(spec.initial_channels(), (false, false));
        // Until with a positive LHS: the driving channel starts true.
        let spec = PropertySpec::parse("G(P0.p U (P1.p && P2.p))").unwrap();
        assert_eq!(spec.initial_channels(), (true, false));
        // Negative occurrence on the LHS must NOT force the channel true
        // (precedence: "no done until init").
        let spec = PropertySpec::parse("(!P1.done) U P0.init").unwrap();
        assert_eq!(spec.initial_channels(), (false, false));
        // A bare invariant is an initial obligation: `G P0.p` with p starting
        // false would be violated before any event.
        let spec = PropertySpec::parse("G P0.p").unwrap();
        assert_eq!(spec.initial_channels(), (true, false));
        // Same through a positive Release right-hand side …
        let spec = PropertySpec::parse("P1.ok R P0.live").unwrap();
        assert_eq!(spec.initial_channels(), (true, false));
        // … but not through Next or an eventuality: those are deferred.
        let spec = PropertySpec::parse("G X P0.p").unwrap();
        assert_eq!(spec.initial_channels(), (false, false));
        let spec = PropertySpec::parse("F (G P0.p)").unwrap();
        assert_eq!(spec.initial_channels(), (false, false));
    }

    #[test]
    fn compiled_property_runs_a_session_end_to_end() {
        let spec = PropertySpec::parse("F (P0.p && P1.p)").unwrap();
        let compiled = CompiledProperty::compile(&spec, 2);
        assert_eq!(compiled.n_processes, 2);
        let mut session = compiled.session(Assignment::ALL_FALSE, MonitorOptions::default());
        use dlrv_vclock::{Event, EventKind, VectorClock};
        let a = compiled.registry.lookup("P0.p").unwrap();
        let b = compiled.registry.lookup("P1.p").unwrap();
        session.feed_event(&Event {
            process: 0,
            kind: EventKind::Internal,
            sn: 1,
            vc: VectorClock::from_entries(vec![1, 0]),
            state: Assignment::from_true_atoms([a]),
            time: 1.0,
        });
        session.feed_event(&Event {
            process: 1,
            kind: EventKind::Internal,
            sn: 1,
            vc: VectorClock::from_entries(vec![0, 1]),
            state: Assignment::from_true_atoms([b]),
            time: 2.0,
        });
        assert_eq!(session.finish(), Verdict::True);
    }
}
