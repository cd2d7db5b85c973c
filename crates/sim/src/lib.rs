//! Event-driven gate-level simulation for synchronous and desynchronized
//! netlists.
//!
//! The simulator plays the role of the gate-level simulation with
//! back-annotated delays used in the paper's evaluation: it executes a
//! [`Netlist`](desync_netlist::Netlist) with per-cell propagation delays,
//! counts switching activity (the input to the dynamic-power model in
//! `desync-power`) and records the stream of values captured by every
//! register (the input to the flow-equivalence check in `desync-mg`).
//!
//! Two harnesses are provided on top of the raw engine:
//!
//! * [`SyncTestbench`] — drives a global clock and per-cycle input vectors
//!   into a flip-flop based netlist.
//! * [`AsyncTestbench`] — drives a latch-based (desynchronized) netlist
//!   whose latch-enable waveforms come from the timed marked-graph model of
//!   the control network.
//!
//! # Two kernels: scalar golden reference, packed throughput
//!
//! The crate ships a *pair* of kernels over one shared [`CompiledModel`]:
//!
//! * **[`EventSimulator`]** — the scalar kernel; one 4-state [`Value`] per
//!   net per run. It is the golden reference: every other execution mode is
//!   defined (and property-tested) as bit-identical to it.
//! * **[`PackedSimulator`]** — the bit-parallel kernel; each net carries a
//!   [`PackedValue`] of 64 independent stimulus lanes encoded as two `u64`
//!   bit-planes (`lo` = definitely-One, `hi` = possibly-One, so
//!   `Zero = 00`, `One = 11`, `X = 01` per lane). Every [`CellKind`] is
//!   evaluated with branch-free word-wide logic — NOT swaps and complements
//!   the planes, AND/OR are per-plane `&`/`|`, and the rest compose from
//!   plane masks. Under matched delays the event *schedule* is
//!   stimulus-independent, so the event queue, the CSR topology walk and
//!   the scheduling rules are byte-for-byte the scalar kernel's — only the
//!   payloads widen. A [`PackedSimRun`] keeps its captures packed, grouped
//!   per cell; [`PackedSimRun::lane`] builds any lane's captures, activity
//!   and waveforms on demand, bit-identical to a scalar run, while
//!   equivalence campaigns compare the packed capture words directly —
//!   which is what makes 64-seed campaigns ~1× the price of a single-seed
//!   verification.
//!
//! [`PackedSyncTestbench`] / [`PackedAsyncTestbench`] mirror the scalar
//! harnesses' drive scripts exactly (control nets are broadcast across
//! lanes), and [`PackedVectorSource`] interleaves up to 64 scalar
//! [`VectorSource`] lanes with a combined content digest for the
//! sync-reference-run cache.
//!
//! [`Value`]: desync_netlist::Value
//! [`CellKind`]: desync_netlist::CellKind
//!
//! # Kernel design: compiled model + cursor
//!
//! Gate-level co-simulation is the hot path of flow-equivalence
//! verification (every knob sweep ends in two simulations), so the kernel
//! splits what is *shareable* from what is *per-run* and commits events
//! without allocating:
//!
//! * **[`CompiledModel`]** holds everything derived from the netlist
//!   structure and the library — the CSR-flattened topology (reader map,
//!   per-cell pin lists), per-cell delays, constant-driver seeds and the
//!   register list. It is a pure function of `(netlist, library,
//!   [`SimConfig`])`, compiled once by [`CompiledModel::compile`] and
//!   shared behind an `Arc`.
//! * **[`EventSimulator`]** is a cheap *cursor* over a compiled model
//!   ([`EventSimulator::with_model`]): it owns only the per-run mutable
//!   state (net values, the pending-event queue, activity counters,
//!   captures, the watch list). A verification sweep therefore compiles
//!   each datapath once and re-binds per-point enable schedules and
//!   stimuli onto the shared model; `desync-core` caches compiled models
//!   in its artifact store next to the stage artifacts.
//! * Events are ordered by **integer time keys** (the IEEE-754 bit pattern
//!   of the non-negative f64 picosecond time — order-isomorphic to the
//!   numeric value, so the order is total and results stay bit-identical to
//!   an f64 kernel); non-finite times are rejected at the
//!   [`EventSimulator::schedule`] boundary.
//! * The pending-event set is a **monotone radix heap** on the time key:
//!   simulation time never decreases, so a push is an append and a pop
//!   redistributes at most one bucket, in exact `(time, sequence)` order
//!   for near and far-future events (up-front enable schedules) alike.
//! * Input values are gathered into one reused scratch buffer, and
//!   flip-flops are not registered as readers of their data nets (they
//!   only react to clock edges).
//! * Watched nets are a **bitset**, waveforms are recorded per [`NetId`]
//!   and names are resolved once at export
//!   ([`EventSimulator::waveforms`]), and capture streams are grouped per
//!   register before any name is cloned.
//!
//! Both harnesses take either a `(library, config)` pair or a pre-compiled
//! model ([`SyncTestbench::with_model`], [`AsyncTestbench::with_model`]);
//! the two paths are bit-identical by construction — the cursor seeds
//! constants in the same order the monolithic constructor did, so event
//! sequence numbers (the tie-breakers of the total event order) coincide.
//!
//! A golden-trace property suite (`desync-core/tests/sim_golden.rs`) pins
//! the scalar kernel's captures, activity counters and waveforms
//! byte-identical to a straightforward reference implementation across
//! random circuits and all three handshake protocols; a second suite
//! (`desync-core/tests/sim_packed_golden.rs`) pins the packed kernel's
//! plane-extracted lanes bit-identical to scalar runs the same way.
//! [`VectorSource::content_digest`] provides the stimulus half of the
//! content-addressed sync-reference-run cache that `desync-core` layers on
//! top for incremental co-simulation.
//!
//! # Example
//!
//! ```
//! use desync_netlist::{Netlist, CellKind, CellLibrary};
//! use desync_sim::{SimConfig, SyncTestbench, VectorSource};
//!
//! # fn main() -> Result<(), desync_netlist::NetlistError> {
//! let mut n = Netlist::new("counter_bit");
//! let clk = n.add_input("clk");
//! let q = n.add_net("q");
//! let d = n.add_net("d");
//! n.add_gate("inv", CellKind::Not, &[q], d)?;
//! n.add_dff("r", d, clk, q)?;
//! n.mark_output(q);
//!
//! let lib = CellLibrary::generic_90nm();
//! let mut tb = SyncTestbench::new(&n, &lib, SimConfig::default())?;
//! let run = tb.run(16, 5_000.0, &mut VectorSource::constant(vec![]));
//! assert_eq!(run.cycles, 16);
//! // The single register toggles every cycle.
//! let stream = run.flow_trace.stream("r").unwrap();
//! assert!(stream.windows(2).all(|w| w[0] != w[1]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod engine;
pub mod harness;
pub mod model;
pub mod packed;
pub mod stimulus;
pub mod waveform;

pub use activity::Activity;
pub use engine::{EventSimulator, SimConfig};
pub use harness::{value_to_word, AsyncTestbench, EnableSchedule, SimRun, SyncTestbench};
pub use model::CompiledModel;
pub use packed::{
    PackedAsyncTestbench, PackedCapture, PackedSimRun, PackedSimulator, PackedSyncTestbench,
    PackedValue, MAX_LANES,
};
pub use stimulus::{PackedVectorSource, VectorSource};
pub use waveform::{Waveform, WaveformSet};
