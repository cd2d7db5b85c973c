//! Marked graphs, signal transition graphs and flow equivalence — the formal
//! machinery behind the desynchronization model of Cortadella et al.
//! (DATE 2004).
//!
//! A *marked graph* is a Petri net in which every place has exactly one
//! input and one output transition. The desynchronization model of the paper
//! expresses the interaction of latch controllers as a marked graph whose
//! transitions are the rising (`a+`) and falling (`a-`) edges of the latch
//! enable signals (paper Figures 2–4). This crate provides:
//!
//! * [`MarkedGraph`] — construction, the token game, enabled transitions and
//!   firing ([`graph`]).
//! * Liveness, safeness, strong connectivity and reachability analyses
//!   ([`analysis`]).
//! * Timed analysis: cycle time via maximum cycle ratio (Howard policy
//!   iteration, replayed through the reference bisection) and discrete-event
//!   simulation of the timed token game ([`timing`]).
//! * Composition of partial specifications by synchronizing on transition
//!   labels — how the pairwise latch-to-latch patterns of Figure 4 are glued
//!   into the circuit-level model of Figure 2 ([`compose`]).
//! * Signal transition graph helpers ([`stg`]) and flow-equivalence trace
//!   checking ([`flow`]).
//!
//! # Example
//!
//! A two-transition ring with one token is live, safe and has a cycle time
//! equal to the sum of its delays:
//!
//! ```
//! use desync_mg::MarkedGraph;
//!
//! let mut g = MarkedGraph::new();
//! let a = g.add_transition("a+");
//! let b = g.add_transition("b+");
//! g.add_place(a, b, 1, 5.0);
//! g.add_place(b, a, 0, 7.0);
//! assert!(g.is_live());
//! assert!(g.is_safe());
//! assert!((g.cycle_time() - 12.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod compose;
mod csr;
pub mod flow;
pub mod graph;
pub mod stg;
pub mod timing;

pub use flow::{FlowEquivalence, FlowTrace};
pub use graph::{MarkedGraph, Marking, Place, PlaceId, Transition, TransitionId};
pub use stg::{SignalDirection, SignalEdge, Stg};
