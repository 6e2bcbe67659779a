//! `Verdicts`, the one-byte verdict set every layer reports, checked against a
//! `BTreeSet<Verdict>` reference on all eight subsets of {⊥, ?, ⊤}: what the
//! results documents, the examples' output and the verdict digests read of a
//! set must not depend on which of the two holds it.

use dlrv_json::Json;
use dlrv_ltl::{Verdict, Verdicts};
use dlrv_monitor::{combined_verdict, verdicts_from_json, verdicts_to_json};
use std::collections::BTreeSet;

const ALL: [Verdict; 3] = [Verdict::False, Verdict::Unknown, Verdict::True];

/// Every subset of the three verdicts, as a `Verdicts` and as its reference.
fn subsets() -> Vec<(Verdicts, BTreeSet<Verdict>)> {
    (0..8)
        .map(|i| {
            let reference: BTreeSet<Verdict> =
                (0..3).filter(|k| i >> k & 1 == 1).map(|k| ALL[k]).collect();
            (reference.iter().copied().collect(), reference)
        })
        .collect()
}

/// The online rule on the reference: ⊥ dominates ⊤ dominates ?.
fn reference_combined(detected: &BTreeSet<Verdict>) -> Verdict {
    [Verdict::False, Verdict::True]
        .into_iter()
        .find(|v| detected.contains(v))
        .unwrap_or(Verdict::Unknown)
}

fn listed(set: Verdicts) -> Vec<Verdict> {
    set.iter().collect()
}

#[test]
fn every_verdict_set_reads_as_its_btreeset_reference() {
    let all = subsets();
    let distinct: BTreeSet<u8> = all.iter().map(|(set, _)| set.bits()).collect();
    assert_eq!(distinct.len(), 8, "eight subsets, eight sets");
    for (set, reference) in &all {
        let case = format!("{reference:?}");
        assert_eq!(
            listed(*set),
            reference.iter().copied().collect::<Vec<_>>(),
            "{case}"
        );
        assert_eq!(format!("{set:?}"), format!("{reference:?}"));
        assert_eq!(format!("{set:#?}"), format!("{reference:#?}"));
        assert_eq!(set.len(), reference.len(), "{case}");
        assert_eq!(set.is_empty(), reference.is_empty(), "{case}");
        for v in ALL {
            assert_eq!(set.contains(&v), reference.contains(&v), "{case}: {v:?}");
            let (mut grown, mut grown_reference) = (*set, reference.clone());
            assert_eq!(grown.insert(v), grown_reference.insert(v), "{case}: {v:?}");
            assert_eq!(listed(grown), Vec::from_iter(grown_reference), "{case}");
        }
        assert_eq!(
            combined_verdict(set),
            reference_combined(reference),
            "{case}"
        );
        for (other, other_reference) in &all {
            let pair = format!("{case} and {other_reference:?}");
            assert_eq!(
                set.is_subset(other),
                reference.is_subset(other_reference),
                "{pair}"
            );
            let union: Vec<Verdict> = reference.union(other_reference).copied().collect();
            assert_eq!(listed(*set | *other), union, "{pair}");
            let mut extended = *set;
            extended.extend(other.iter());
            assert_eq!(extended, *set | *other, "{pair}");
            let mut assigned = *set;
            assigned |= *other;
            assert_eq!(assigned, *set | *other, "{pair}");
        }
    }
}

#[test]
fn every_verdict_set_round_trips_through_json_as_an_array_of_names() {
    for (set, reference) in subsets() {
        let names = reference.iter().map(|v| Json::from(v.name())).collect();
        let json = verdicts_to_json(set);
        assert_eq!(json, Json::Array(names), "{reference:?}");
        let text = json.to_string_compact();
        let back = verdicts_from_json(&Json::parse(&text).expect("valid JSON"));
        assert_eq!(back.expect("a verdict set"), set, "{text}");
    }
    let unnamed = Json::parse(r#"["true", "maybe"]"#).expect("valid JSON");
    assert!(verdicts_from_json(&unnamed).is_err());
}

#[test]
fn the_final_verdicts_take_the_low_bits() {
    assert_eq!(Verdicts::from([Verdict::False]).bits(), 1);
    assert_eq!(Verdicts::from([Verdict::True]).bits(), 2);
    assert_eq!(Verdicts::from([Verdict::Unknown]).bits(), 4);
    assert_eq!(Verdicts::from([Verdict::False, Verdict::True]).bits(), 3);
    assert_eq!(Verdicts::from_bits(7), Some(Verdicts::from(ALL)));
    assert_eq!(Verdicts::from_bits(8), None);
    assert_eq!(Verdicts::default(), Verdicts::EMPTY);
    assert_eq!(
        Verdicts::from(Verdict::True),
        Verdicts::from([Verdict::True])
    );
}
