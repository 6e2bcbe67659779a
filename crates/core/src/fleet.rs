//! Property fleets: N properties monitored in one pass over a shared event
//! stream.
//!
//! Every member property is compiled into one **shared atom registry**
//! ([`compile_fleet`] via [`PropertySpec::build_in`]), so all members interpret
//! the same event assignments; each distinct formula is synthesized once, and
//! members with one formula share its automaton.
//! The streamed runner ([`run_streamed`](crate::throughput::run_streamed)) then
//! pumps one byte stream with a fleet session spec — each event is decoded once
//! and outbound tokens of all members share batched monitoring messages (see
//! `docs/FLEET.md`).  The bytes are pumped once; that the fleet detects exactly
//! what N solo runs detect is pinned by `tests/fleet_equivalence.rs`.

use crate::spec::{PropertySpec, MAX_SPEC_ATOMS};
use dlrv_automaton::MonitorAutomaton;
use dlrv_ltl::AtomRegistry;
use std::sync::Arc;

/// The fleet of properties a fleet scenario monitors in one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetParams {
    /// The monitored properties in fleet-member order.  The first member is the
    /// *lead*: the workload generator shapes traces (initial channel values,
    /// goal tail) for it, exactly as `config.property` does elsewhere.
    pub properties: Vec<PropertySpec>,
}

impl FleetParams {
    /// A fleet over the given properties (at least one).
    pub fn new(properties: Vec<PropertySpec>) -> FleetParams {
        assert!(
            !properties.is_empty(),
            "a fleet needs at least one property"
        );
        FleetParams { properties }
    }

    /// The fleet's display name: member names joined with `+` (`"A+B+C"`).
    pub fn joined_name(&self) -> String {
        self.properties
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Number of member properties.
    pub fn len(&self) -> usize {
        self.properties.len()
    }

    /// True when the fleet has no members (never constructible via [`new`](Self::new)).
    pub fn is_empty(&self) -> bool {
        self.properties.is_empty()
    }
}

/// One fleet member compiled against the fleet's shared registry.
pub struct CompiledFleetMember {
    /// The member's display name (paper letter or custom spec name).
    pub name: String,
    /// The member's automaton, synthesized over the **shared** atom space.
    pub automaton: Arc<MonitorAutomaton>,
}

/// Compiles every member property into one shared atom registry.
///
/// Atom names dedup on intern (`P0.p` means the same bit to every member), so
/// the fleet's monitors can all interpret the assignments of one decoded event.
/// The combined registry must stay within [`MAX_SPEC_ATOMS`] — the same
/// synthesis ceiling a single wide property has.
pub fn compile_fleet(
    fleet: &FleetParams,
    n_processes: usize,
) -> (Arc<AtomRegistry>, Vec<CompiledFleetMember>) {
    let mut reg = AtomRegistry::new();
    let formulas: Vec<_> = fleet
        .properties
        .iter()
        .map(|spec| {
            (
                spec.name().to_string(),
                spec.build_in(&mut reg, n_processes),
            )
        })
        .collect();
    assert!(
        reg.len() <= MAX_SPEC_ATOMS,
        "fleet `{}` uses {} distinct atoms combined; the synthesis ceiling is {}",
        fleet.joined_name(),
        reg.len(),
        MAX_SPEC_ATOMS
    );
    let registry = Arc::new(reg);
    let mut members: Vec<CompiledFleetMember> = Vec::with_capacity(formulas.len());
    for (name, formula) in formulas {
        // A repeated formula is handed the earlier member's automaton `Arc`: the
        // fleet's monitors then see one question by a pointer compare.
        let automaton = match members.iter().find(|m| m.automaton.formula == formula) {
            Some(same) => same.automaton.clone(),
            None => Arc::new(MonitorAutomaton::synthesize(&formula, &registry)),
        };
        members.push(CompiledFleetMember { name, automaton });
    }
    (registry, members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::properties::PaperProperty;
    use crate::scenario::StreamParams;
    use crate::throughput::run_streamed;
    use dlrv_monitor::MonitorOptions;

    fn small_fleet_config(lead: PaperProperty) -> ExperimentConfig {
        ExperimentConfig {
            events_per_process: 5,
            seeds: vec![1],
            ..ExperimentConfig::paper_default(lead, 2)
        }
    }

    fn paper_fleet(letters: &[PaperProperty]) -> FleetParams {
        FleetParams::new(letters.iter().map(|&p| PropertySpec::from(p)).collect())
    }

    #[test]
    fn fleet_compilation_shares_the_atom_space() {
        let fleet = paper_fleet(&[PaperProperty::A, PaperProperty::D]);
        let (registry, members) = compile_fleet(&fleet, 3);
        // A uses P0..2.p; D adds the q side.  Shared: 6 atoms, not 3 + 6.
        assert_eq!(registry.len(), 6);
        assert_eq!(members.len(), 2);
        assert_eq!(members[0].name, "A");
        assert_eq!(members[1].name, "D");
    }

    #[test]
    fn a_repeated_formula_is_compiled_once() {
        // A and C are one formula at three processes and two at four.
        let fleet = paper_fleet(&[PaperProperty::A, PaperProperty::B, PaperProperty::C]);
        let (_, members) = compile_fleet(&fleet, 3);
        assert!(Arc::ptr_eq(&members[0].automaton, &members[2].automaton));
        assert!(!Arc::ptr_eq(&members[0].automaton, &members[1].automaton));
        let (_, members) = compile_fleet(&fleet, 4);
        assert!(!Arc::ptr_eq(&members[0].automaton, &members[2].automaton));
    }

    #[test]
    fn fleet_run_produces_fleet_metrics() {
        let fleet = paper_fleet(&[PaperProperty::B, PaperProperty::C]);
        let params = StreamParams::sized(12, 2);
        let result = run_streamed(
            &small_fleet_config(PaperProperty::B),
            &params,
            Some(&fleet),
            MonitorOptions::default(),
        );
        let m = &result.avg;
        assert_eq!(m.fleet_size, 2);
        assert!(m.total_events > 0);
        assert!(m.wall_clock_secs > 0.0);
        assert_eq!(m.fleet_per_property.len(), 2);
        assert_eq!(m.fleet_per_property[0].property, "B");
        assert_eq!(m.fleet_per_property[1].property, "C");
        // The goal tail drives all p true concurrently: reachability member B
        // must be satisfied in every session.
        assert_eq!(m.fleet_per_property[0].verdict, dlrv_ltl::Verdict::True);
        assert!(m.fleet_per_property.iter().any(|p| p.monitor_tokens > 0));
    }

    #[test]
    fn joined_name_concatenates_members() {
        let fleet = paper_fleet(&[PaperProperty::A, PaperProperty::B, PaperProperty::F]);
        assert_eq!(fleet.joined_name(), "A+B+F");
        assert_eq!(fleet.len(), 3);
        assert!(!fleet.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one property")]
    fn empty_fleets_are_rejected() {
        FleetParams::new(Vec::new());
    }
}
