//! Property-based tests of the vector-clock laws the monitoring algorithm relies on:
//! join/merge is a commutative, associative, idempotent lattice operation, and
//! happened-before is a strict partial order with concurrency as its complement.
//!
//! A clock of up to three entries keeps them inline and a longer one on the heap, so
//! the second half of this file checks every operation of both forms against a plain
//! `Vec<u64>` model over 0..=8 entries, across the boundary in both directions.
//!
//! Clocks are generated from integer seeds via a SplitMix64 expansion (the vendored
//! `proptest` draws integers from ranges), so each case is reproducible from its
//! printed inputs.

use dlrv_vclock::{Event, VectorClock};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Expands a seed into a clock of `n` entries with small, collision-friendly values.
///
/// Small entry ranges (0..8) make equal and ordered clock pairs likely, so the laws
/// are exercised on the interesting cases (equality, comparability) and not only on
/// almost-surely-concurrent random clocks.
fn clock_from(mut seed: u64, n: usize) -> VectorClock {
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        seed = seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        entries.push((seed >> 33) % 8);
    }
    VectorClock::from_entries(entries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn join_is_commutative(a in 0u64..1 << 40, b in 0u64..1 << 40, n in 2usize..6) {
        let (x, y) = (clock_from(a, n), clock_from(b, n));
        prop_assert_eq!(x.join(&y), y.join(&x));
    }

    #[test]
    fn join_is_idempotent_and_merge_agrees(a in 0u64..1 << 40, n in 2usize..6) {
        let x = clock_from(a, n);
        prop_assert_eq!(x.join(&x), x.clone());
        let mut merged = x.clone();
        merged.merge(&x);
        prop_assert_eq!(merged, x);
    }

    #[test]
    fn join_is_associative(a in 0u64..1 << 40, b in 0u64..1 << 40, c in 0u64..1 << 40, n in 2usize..6) {
        let (x, y, z) = (clock_from(a, n), clock_from(b, n), clock_from(c, n));
        prop_assert_eq!(x.join(&y).join(&z), x.join(&y.join(&z)));
    }

    #[test]
    fn merge_is_an_upper_bound(a in 0u64..1 << 40, b in 0u64..1 << 40, n in 2usize..6) {
        let (x, y) = (clock_from(a, n), clock_from(b, n));
        let j = x.join(&y);
        prop_assert!(x.leq(&j), "x must be below x ⊔ y");
        prop_assert!(y.leq(&j), "y must be below x ⊔ y");
        // And the meet is a lower bound, absorbed by the join.
        let m = x.meet(&y);
        prop_assert!(m.leq(&x) && m.leq(&y));
        // Absorption: x ⊔ (x ⊓ y) = x.
        prop_assert_eq!(x.join(&m), x.clone());
    }

    #[test]
    fn happened_before_is_irreflexive(a in 0u64..1 << 40, n in 2usize..6) {
        let x = clock_from(a, n);
        prop_assert!(!x.happened_before(&x));
        prop_assert!(!x.concurrent(&x), "a clock is never concurrent with itself");
    }

    #[test]
    fn happened_before_is_asymmetric(a in 0u64..1 << 40, b in 0u64..1 << 40, n in 2usize..6) {
        let (x, y) = (clock_from(a, n), clock_from(b, n));
        if x.happened_before(&y) {
            prop_assert!(!y.happened_before(&x));
            prop_assert!(!x.concurrent(&y));
        }
    }

    #[test]
    fn happened_before_is_transitive(
        a in 0u64..1 << 40,
        b in 0u64..1 << 40,
        c in 0u64..1 << 40,
        n in 2usize..6,
    ) {
        let (x, z) = (clock_from(a, n), clock_from(c, n));
        // Force a known x < y < z chain frequently: y = x ⊔ z ⊔ bump.
        let mut y = x.join(&z);
        y.increment((b % n as u64) as usize);
        prop_assert!(x.happened_before(&y) || x == y.meet(&x));
        if x.happened_before(&y) && y.happened_before(&z) {
            prop_assert!(x.happened_before(&z));
        }
        // Generic triple, too (usually concurrent, occasionally chained).
        let w = clock_from(b, n);
        if x.happened_before(&w) && w.happened_before(&z) {
            prop_assert!(x.happened_before(&z));
        }
    }

    #[test]
    fn exactly_one_ordering_holds(a in 0u64..1 << 40, b in 0u64..1 << 40, n in 2usize..6) {
        // Trichotomy over the partial order: equal, <, >, or concurrent — exactly one.
        let (x, y) = (clock_from(a, n), clock_from(b, n));
        let relations = [
            x == y,
            x.happened_before(&y),
            y.happened_before(&x),
            x.concurrent(&y),
        ];
        let holding = relations.iter().filter(|&&r| r).count();
        prop_assert!(holding == 1, "expected exactly one relation, got {} for {:?} vs {:?}", holding, x, y);
    }
}

/// Expands a seed into `n` model entries: small values (0..8) so equal and
/// ordered pairs are common, or, for odd seeds, values spread over all 64 bits so
/// no form can narrow an entry unnoticed.
fn model_from(mut seed: u64, n: usize) -> Vec<u64> {
    let wide = seed & 1 == 1;
    (0..n)
        .map(|_| {
            seed = seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            if wide {
                seed ^ (seed >> 31)
            } else {
                (seed >> 33) % 8
            }
        })
        .collect()
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// `clock` holds exactly `model`, and is equal and hashes equal to a clock built
/// from it by another route.  The hash is also the model vector's own: the
/// comparisons and the hash are those of the entries.
fn check_against_model(clock: &VectorClock, model: &[u64]) -> Result<(), String> {
    prop_assert_eq!(clock.entries(), model);
    prop_assert_eq!(clock.len(), model.len());
    prop_assert_eq!(clock.is_empty(), model.is_empty());
    for (i, &entry) in model.iter().enumerate() {
        prop_assert_eq!(clock.get(i), entry);
    }
    let other = VectorClock::from_slice(model);
    prop_assert_eq!(clock, &other);
    prop_assert_eq!(hash_of(clock), hash_of(&other));
    prop_assert_eq!(hash_of(clock), hash_of(&model.to_vec()));
    prop_assert_eq!(
        format!("{clock:?}"),
        format!("VectorClock {{ entries: {model:?} }}")
    );
    Ok(())
}

fn model_leq(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_constructor_equals_the_model(a in 0u64..1 << 40, n in 0usize..=8) {
        let model = model_from(a, n);
        check_against_model(&VectorClock::from_entries(model.clone()), &model)?;
        check_against_model(&VectorClock::from_slice(&model), &model)?;
        let mut set = VectorClock::zero(n);
        check_against_model(&set, &vec![0; n])?;
        for (i, &entry) in model.iter().enumerate() {
            set.set(i, entry);
        }
        check_against_model(&set, &model)?;
        check_against_model(&set.clone(), &model)?;
    }

    #[test]
    fn point_updates_equal_the_model(
        a in 0u64..1 << 40,
        n in 1usize..=8,
        i in 0usize..8,
        value in 0u64..1 << 40,
    ) {
        let i = i % n;
        let mut model = model_from(a & !1, n);
        let mut clock = VectorClock::from_slice(&model);
        clock.increment(i);
        model[i] += 1;
        check_against_model(&clock, &model)?;
        clock.set(i, value);
        model[i] = value;
        check_against_model(&clock, &model)?;
        clock.increment(i);
        model[i] += 1;
        check_against_model(&clock, &model)?;
    }

    #[test]
    fn lattice_operations_equal_the_model(a in 0u64..1 << 40, b in 0u64..1 << 40, n in 0usize..=8) {
        // Both sides of one width: both small or both wide, so they compare often.
        let (ma, mb) = (model_from(a, n), model_from(b ^ ((a ^ b) & 1), n));
        let (x, y) = (VectorClock::from_slice(&ma), VectorClock::from_slice(&mb));
        let max: Vec<u64> = ma.iter().zip(&mb).map(|(p, q)| *p.max(q)).collect();
        let min: Vec<u64> = ma.iter().zip(&mb).map(|(p, q)| *p.min(q)).collect();
        let mut merged = x.clone();
        merged.merge(&y);
        check_against_model(&merged, &max)?;
        check_against_model(&x.join(&y), &max)?;
        check_against_model(&x.meet(&y), &min)?;

        let (le, ge) = (model_leq(&ma, &mb), model_leq(&mb, &ma));
        prop_assert_eq!(x.leq(&y), le);
        prop_assert_eq!(y.leq(&x), ge);
        prop_assert_eq!(x.happened_before(&y), le && ma != mb);
        prop_assert_eq!(x.concurrent(&y), !le && !ge);
        let expected = match (le, ge) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        };
        prop_assert_eq!(x.partial_cmp_clock(&y), expected);
        prop_assert_eq!(x == y, ma == mb);
    }

    #[test]
    fn copy_from_crosses_the_boundary_both_ways(
        a in 0u64..1 << 40,
        b in 0u64..1 << 40,
        n in 0usize..=8,
        m in 0usize..=8,
    ) {
        let (from, to) = (model_from(a, n), model_from(b, m));
        let mut clock = VectorClock::from_slice(&from);
        clock.copy_from(&to);
        check_against_model(&clock, &to)?;
        // And back: a clock that crossed the boundary twice still equals the model,
        // and still takes writes.
        clock.copy_from(&from);
        check_against_model(&clock, &from)?;
        if let Some(last) = n.checked_sub(1) {
            let mut written = from.clone();
            written[last] /= 2;
            clock.set(last, written[last]);
            check_against_model(&clock, &written)?;
        }
    }
}

#[test]
fn debug_and_display_read_as_the_entries() {
    let inline = VectorClock::from_entries(vec![1, 0, 2]);
    assert_eq!(format!("{inline:?}"), "VectorClock { entries: [1, 0, 2] }");
    assert_eq!(format!("{inline}"), "[1,0,2]");
    let heap = VectorClock::from_entries(vec![5, 4, 3, 2, 1]);
    assert_eq!(
        format!("{heap:?}"),
        "VectorClock { entries: [5, 4, 3, 2, 1] }"
    );
    assert_eq!(format!("{heap}"), "[5,4,3,2,1]");
}

#[test]
fn type_sizes_are_pinned() {
    assert!(std::mem::size_of::<VectorClock>() <= 32);
    assert!(std::mem::size_of::<Event>() <= 88);
}
