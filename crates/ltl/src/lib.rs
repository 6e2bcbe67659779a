//! Linear Temporal Logic (LTL) syntax, parsing, global-state predicates and
//! finite/infinite-trace semantics.
//!
//! This crate provides the specification-language substrate of the decentralized
//! runtime-verification framework:
//!
//! * [`Formula`] — the LTL abstract syntax tree with the usual temporal operators
//!   (next, until, release, eventually, globally) and derived Boolean connectives.
//! * [`parser`] — a recursive-descent parser for a textual LTL syntax
//!   (`G (P0.p -> (P1.p U P2.q))`).
//! * [`AtomRegistry`] — interning of atomic propositions.  Every proposition is owned
//!   by exactly one process of the distributed program (`P3.q` belongs to process 3),
//!   which is what allows a monitor transition guard to be decomposed into per-process
//!   conjuncts.
//! * [`Predicate`] / [`Cube`] — global-state predicates in disjunctive normal form,
//!   i.e. disjunctions of conjunctive cubes of literals.  Monitor-automaton transitions
//!   are labelled with single cubes (the paper splits disjunctive guards into multiple
//!   transitions, §4.3.3 of the thesis).
//! * [`semantics`] — LTL semantics over ultimately-periodic (lasso) words and the
//!   three-valued verdict type [`Verdict`] used by LTL₃ monitors, with [`Verdicts`],
//!   the one-byte set of them that every layer reports.
//!
//! The crate is deliberately free of any distributed-systems machinery; it only deals
//! with formulas, propositions and assignments.

#![forbid(unsafe_code)]

pub mod atoms;
pub mod parser;
pub mod predicate;
pub mod semantics;
pub mod syntax;

pub use atoms::{AtomId, AtomLayout, AtomRegistry, Channel, ProcessId};
pub use parser::{parse, ParseError};
pub use predicate::{Assignment, Cube, Literal, Predicate};
pub use semantics::{evaluate_lasso, Verdict, Verdicts};
pub use syntax::Formula;
