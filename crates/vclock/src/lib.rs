//! Vector clocks, events, consistent cuts and computation lattices — the
//! partial-order substrate of the decentralized monitoring algorithm.
//!
//! The thesis assumes the standard asynchronous message-passing model (§2.1): processes
//! have no shared clock, communicate over reliable FIFO channels, and events are
//! partially ordered by Lamport's happened-before relation, tracked with vector clocks.
//! This crate provides:
//!
//! * [`VectorClock`] — vector clocks with happened-before, concurrency, join and meet.
//!   A clock of up to three processes keeps its entries inline, so recording,
//!   copying or decoding it allocates nothing; a clock of four or more keeps them in
//!   one heap block of exactly its entries.
//! * [`Event`] / [`Computation`] — recorded events (internal / send / receive) with
//!   their clocks and local states, and whole recorded computations.
//! * [`Lattice`] — the computation lattice of consistent cuts (Definition 6) and the
//!   oracle of Chapter 3 ([`oracle_evaluate`]) that runs a monitor automaton over all
//!   lattice paths; this is the ground truth for soundness/completeness testing and the
//!   conceptual baseline the decentralized algorithm is compared against.
//! * [`mod@batch`] — [`compare_many`], one clock compared against many in a single
//!   pass (the view-set merge scan of the monitors).
//!
//! # Example
//!
//! Vector clocks implement the happened-before partial order: comparing the clocks of
//! two events tells whether one causally precedes the other or they are concurrent.
//!
//! ```
//! use dlrv_vclock::VectorClock;
//!
//! // P0 produced two events; P1 produced one event after hearing about P0's first.
//! let send = VectorClock::from_entries(vec![1, 0]);
//! let recv = VectorClock::from_entries(vec![1, 1]);
//! let other = VectorClock::from_entries(vec![2, 0]);
//!
//! assert!(send.happened_before(&recv));
//! assert!(recv.concurrent(&other));
//! assert_eq!(send.join(&other).entries(), &[2, 0]);
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod event;
pub mod fixtures;
pub mod lattice;
pub mod vc;

pub use batch::compare_many;
pub use event::{Computation, Event, EventKind};
pub use lattice::{evaluate_path, oracle_evaluate, CutId, Lattice, OracleResult};
pub use vc::VectorClock;
