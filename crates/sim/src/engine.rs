//! The core event-driven simulation engine.
//!
//! [`EventSimulator`] executes any [`Netlist`] — purely synchronous,
//! latch-based, or containing handshake-controller cells — with per-cell
//! propagation delays taken from a [`CellLibrary`] plus a linear wire-load
//! term. It maintains three observable artifacts:
//!
//! * the switching [`Activity`] counters (for the power model),
//! * per-net waveforms for watched nets (recorded by [`NetId`] during the
//!   run; names are resolved once at export time by
//!   [`EventSimulator::waveforms`]), and
//! * the list of register *captures* — the value latched by every flip-flop
//!   at each rising clock edge and by every latch at each closing enable
//!   edge — from which the flow-equivalence traces are built.
//!
//! # Kernel design
//!
//! The kernel is allocation-free on the hot path (after construction and
//! queue warm-up, committing an event allocates nothing), and the
//! structure-dependent half of construction is shareable:
//!
//! * **Compiled model + cursor split.** Everything derived from the netlist
//!   structure and the library — CSR topology, pin lists, per-cell delays,
//!   constant seeds, the register list — lives in an immutable
//!   [`CompiledModel`] built once by [`CompiledModel::compile`]. An
//!   `EventSimulator` is a cursor over an `Arc` of that model
//!   ([`EventSimulator::with_model`]): it owns only the per-run mutable
//!   state (net values, the event queue, activity, captures, the watch
//!   list), so a verification sweep re-binds schedules and stimuli onto one
//!   compiled model instead of recompiling topology per point.
//! * **Integer time keys.** Events are ordered by a `u64` key — the IEEE-754
//!   bit pattern of the (always non-negative, finite) f64 picosecond time.
//!   For non-negative finite doubles the bit pattern is order-isomorphic to
//!   the numeric value, so integer comparison gives a *total* order that is
//!   exactly the f64 order while converting back losslessly: event times are
//!   bit-identical to an f64 kernel, with none of the `partial_cmp`
//!   NaN-in-the-heap hazards. Non-finite times are rejected at the
//!   [`EventSimulator::schedule`] boundary.
//! * **Radix-heap event queue.** Simulation time never decreases, so the
//!   pending-event set is a monotone radix heap: 65 buckets indexed by the
//!   highest bit in which an event's key differs from the last popped key.
//!   A push is one append; a pop takes bucket 0 (the events at the current
//!   key) in FIFO order, and only when it is empty redistributes the lowest
//!   occupied bucket into the buckets below it. Equal keys always share a
//!   bucket and every bucket stays in push order, so events pop in exact
//!   `(key, seq)` order, near and far-future events alike (e.g. an
//!   [`EnableSchedule`](crate::EnableSchedule) scheduled hundreds of cycles
//!   up front). A bounded pop that finds its minimum beyond the window
//!   leaves the floor untouched, so a testbench may still schedule below it.
//! * **CSR topology.** The net → reader-cells map and the per-cell input
//!   pin lists are flat compressed-sparse-row arrays (offset + index), so
//!   reacting to a committed event walks a contiguous slice instead of
//!   cloning a per-net `Vec`, and evaluating a cell gathers its input
//!   values into one reused scratch buffer instead of collecting a fresh
//!   `Vec<Value>` per evaluation.
//! * **Bitset watch list.** Whether a net is watched is one bit test; the
//!   waveform of a watched net is appended to a dense per-net slot with no
//!   name lookup on the commit path.

use crate::activity::Activity;
use crate::model::CompiledModel;
use crate::waveform::{Waveform, WaveformSet};
use desync_netlist::value::{evaluate, evaluate_c_element, evaluate_latch};
use desync_netlist::{CellId, CellKind, CellLibrary, NetId, Netlist, Value};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Extra wire delay per fan-out sink, in picoseconds (matches the
    /// wire-load model used by the timing analyzer).
    pub wire_delay_per_fanout_ps: f64,
    /// Flip-flop clock-to-Q delay in picoseconds.
    pub clk_to_q_ps: f64,
    /// Latch data-to-Q delay (when transparent) in picoseconds.
    pub latch_d_to_q_ps: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            wire_delay_per_fanout_ps: 4.0,
            clk_to_q_ps: 110.0,
            latch_d_to_q_ps: 70.0,
        }
    }
}

impl SimConfig {
    /// The configuration as stable bit patterns, for use in content-addressed
    /// cache keys (see `desync-core`'s sync-reference-run cache).
    pub fn key_bits(&self) -> [u64; 3] {
        [
            self.wire_delay_per_fanout_ps.to_bits(),
            self.clk_to_q_ps.to_bits(),
            self.latch_d_to_q_ps.to_bits(),
        ]
    }
}

/// One register capture: the value stored into a sequential cell at a
/// capturing edge (clock rising edge for flip-flops, closing enable edge for
/// latches).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Capture {
    /// Simulation time of the capture, in picoseconds.
    pub time_ps: f64,
    /// The sequential cell that captured.
    pub cell: CellId,
    /// The captured value.
    pub value: Value,
}

/// A pending event. The queue pops events in `(key, seq)` order — both
/// plain integers, so the order is total. `key` is the bit pattern of the
/// non-negative f64 event time; `seq` numbers the pushes.
///
/// Generic over the payload `P`: the scalar kernel carries one [`Value`],
/// the packed kernel ([`crate::PackedSimulator`]) a
/// [`PackedValue`](crate::PackedValue) of 64 lanes. Ordering ignores the
/// payload entirely, so both kernels pop events in the identical
/// `(time, sequence)` order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event<P> {
    pub(crate) key: u64,
    pub(crate) seq: u64,
    pub(crate) net: NetId,
    pub(crate) value: P,
}

impl<P> Event<P> {
    pub(crate) fn time_ps(&self) -> f64 {
        f64::from_bits(self.key)
    }
}

/// Number of radix buckets: one per possible length of the binary prefix a
/// queued key shares with the floor, from "equal" (bucket 0) to "differs in
/// bit 63" (bucket 64).
const RADIX_BUCKETS: usize = u64::BITS as usize + 1;

/// A monotone radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, *Faster
/// algorithms for the shortest path problem*, JACM 1990) on the `u64` time
/// key, popping events in exact `(key, seq)` order.
///
/// Invariants:
/// * `last` (the floor) is the key of the last popped event, and every
///   queued key is ≥ it — the simulator never schedules into the past;
/// * an event with key `k` sits in bucket `64 - lzcnt(k ^ last)`, so
///   bucket 0 holds exactly the events at the floor and bucket `b ≥ 1` the
///   keys in `[last, 2^64)` whose highest bit differing from `last` is bit
///   `b - 1` — every key in a lower bucket precedes every key in a higher
///   one, and equal keys always share a bucket;
/// * every bucket is in `seq` order: pushes carry the largest `seq` so far
///   and append, and a redistribution moves one bucket's events, in order,
///   into buckets that are all empty;
/// * bit `b` of `occupied` is set exactly when bucket `b` holds an unpopped
///   event (bucket 0 drains FIFO from `head`).
#[derive(Debug, Clone)]
pub(crate) struct RadixQueue<P> {
    buckets: [Vec<Event<P>>; RADIX_BUCKETS],
    /// Next event of bucket 0 to pop.
    head: usize,
    occupied: u128,
    last: u64,
}

impl<P: Copy> RadixQueue<P> {
    pub(crate) fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| Vec::new()),
            head: 0,
            occupied: 0,
            last: 0,
        }
    }

    fn bucket_of(&self, key: u64) -> usize {
        (u64::BITS - (key ^ self.last).leading_zeros()) as usize
    }

    pub(crate) fn push(&mut self, event: Event<P>) {
        debug_assert!(
            event.key >= self.last,
            "event key {:#x} lies below the queue floor {:#x}",
            event.key,
            self.last
        );
        let index = self.bucket_of(event.key);
        let bucket = &mut self.buckets[index];
        debug_assert!(
            bucket.last().is_none_or(|prev| prev.seq < event.seq),
            "event sequence numbers must increase with every push"
        );
        bucket.push(event);
        self.occupied |= 1 << index;
    }

    /// Removes and returns the earliest event, `None` when the queue is
    /// empty.
    pub(crate) fn pop(&mut self) -> Option<Event<P>> {
        self.pop_until(u64::MAX)
    }

    /// Removes and returns the earliest event if its key is at most
    /// `limit`, `None` otherwise.
    ///
    /// A rejected pop leaves the floor where it was: callers may still push
    /// keys below the rejected minimum (a testbench schedules its next
    /// clock edge between two windows), and those keys must stay ≥ the
    /// floor.
    pub(crate) fn pop_until(&mut self, limit: u64) -> Option<Event<P>> {
        if self.occupied & 1 == 0 {
            if self.occupied == 0 {
                return None;
            }
            // Bucket 0 is empty: the lowest occupied bucket holds the
            // minimum. Make it the floor and redistribute the bucket — all
            // its keys now share a longer prefix with the floor, so each
            // moves to a lower (empty) bucket, the minimum to bucket 0.
            let index = self.occupied.trailing_zeros() as usize;
            let min = self.buckets[index]
                .iter()
                .map(|event| event.key)
                .min()
                .expect("an occupied bucket holds an event");
            if min > limit {
                return None;
            }
            self.last = min;
            self.occupied &= !(1 << index);
            let mut moved = std::mem::take(&mut self.buckets[index]);
            for event in moved.drain(..) {
                let target = self.bucket_of(event.key);
                self.buckets[target].push(event);
                self.occupied |= 1 << target;
            }
            // Hand the emptied vector back so the bucket keeps its capacity.
            self.buckets[index] = moved;
        } else if self.last > limit {
            return None;
        }
        let bucket = &mut self.buckets[0];
        let event = bucket[self.head];
        self.head += 1;
        if self.head == bucket.len() {
            bucket.clear();
            self.head = 0;
            self.occupied &= !1;
        }
        Some(event)
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.occupied == 0
    }
}

/// The largest event key a `run_until(until_ps)` window commits. An event
/// is due unless `time_ps > until_ps`, for every f64 limit: `None` means no
/// event is due (a negative limit), and a NaN limit rejects nothing, as
/// `time_ps > NaN` never holds.
pub(crate) fn window_limit(until_ps: f64) -> Option<u64> {
    if until_ps.is_nan() {
        Some(u64::MAX)
    } else if until_ps < 0.0 {
        None
    } else {
        // `+ 0.0` maps -0.0 to +0.0, whose key is 0.
        Some((until_ps + 0.0).to_bits())
    }
}

/// An event-driven gate-level simulator: a per-run *cursor* over a shared
/// [`CompiledModel`] of one netlist.
#[derive(Debug, Clone)]
pub struct EventSimulator<'a> {
    netlist: &'a Netlist,
    /// The immutable structure half: topology, pin lists, delays. Shared
    /// across cursors (and across sweep points, via `desync-core`'s
    /// artifact store).
    model: Arc<CompiledModel>,
    values: Vec<Value>,
    /// The value most recently *scheduled* for each net (projected value).
    /// Cells compare against this, not against the committed value, so that
    /// a pending event is always followed by a corrective event when the
    /// inputs change back before it commits.
    projected: Vec<Value>,
    queue: RadixQueue<Value>,
    seq: u64,
    time: f64,
    committed: usize,
    /// One bit per net: whether a waveform is recorded for it.
    watched: Vec<u64>,
    /// Net → index into `waves` (`u32::MAX` = not watched).
    watch_slot: Vec<u32>,
    waves: Vec<(NetId, Waveform)>,
    /// Reused input-value gather buffer (cleared per evaluation, never
    /// reallocated after warm-up).
    scratch: Vec<Value>,
    /// Switching-activity counters (one slot per net).
    pub activity: Activity,
    /// Register captures in chronological order.
    pub captures: Vec<Capture>,
}

impl<'a> EventSimulator<'a> {
    /// Creates a simulator for `netlist` with delays from `library`,
    /// compiling a private model. When several runs share one netlist
    /// structure, compile once and use [`EventSimulator::with_model`].
    pub fn new(netlist: &'a Netlist, library: &CellLibrary, config: SimConfig) -> Self {
        Self::with_model(
            netlist,
            Arc::new(CompiledModel::compile(netlist, library, config)),
        )
    }

    /// Creates a cursor over a previously compiled `model` of `netlist`.
    ///
    /// The run is bit-identical to one from [`EventSimulator::new`] with
    /// the inputs the model was compiled from — construction only allocates
    /// the per-run state vectors.
    ///
    /// # Panics
    ///
    /// Panics if the model's dimensions do not match `netlist` (the model
    /// was compiled from a different structure).
    pub fn with_model(netlist: &'a Netlist, model: Arc<CompiledModel>) -> Self {
        assert!(
            model.num_nets() == netlist.num_nets() && model.num_cells() == netlist.num_cells(),
            "compiled model ({} nets, {} cells) does not match netlist `{}` ({} nets, {} cells)",
            model.num_nets(),
            model.num_cells(),
            netlist.name(),
            netlist.num_nets(),
            netlist.num_cells(),
        );
        let num_nets = model.num_nets();
        let mut sim = Self {
            netlist,
            model,
            values: vec![Value::X; num_nets],
            projected: vec![Value::X; num_nets],
            queue: RadixQueue::new(),
            seq: 0,
            time: 0.0,
            committed: 0,
            watched: vec![0u64; num_nets.div_ceil(64)],
            watch_slot: vec![u32::MAX; num_nets],
            waves: Vec::new(),
            scratch: Vec::new(),
            activity: Activity::new(num_nets),
            captures: Vec::new(),
        };
        // Seed the constant drivers at time zero, in the same (cell) order
        // the old constructor used — the order fixes the event sequence
        // numbers, keeping runs bit-identical.
        for i in 0..sim.model.const_seeds.len() {
            let (net, value) = sim.model.const_seeds[i];
            sim.schedule(net, value, 0.0);
        }
        sim
    }

    /// The compiled model this cursor runs over.
    pub fn model(&self) -> &Arc<CompiledModel> {
        &self.model
    }

    /// The current simulation time in picoseconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The configuration in use.
    pub fn config(&self) -> SimConfig {
        self.model.config
    }

    /// Total number of committed events since construction.
    pub fn committed_events(&self) -> usize {
        self.committed
    }

    /// The current value of a net.
    pub fn value(&self, net: NetId) -> Value {
        self.values[net.index()]
    }

    /// The current value of a net looked up by name, or `X` for unknown
    /// names.
    pub fn value_by_name(&self, name: &str) -> Value {
        self.netlist
            .find_net(name)
            .map(|n| self.value(n))
            .unwrap_or(Value::X)
    }

    /// Starts recording a waveform for `net`.
    pub fn watch(&mut self, net: NetId) {
        let index = net.index();
        if self.watch_slot[index] == u32::MAX {
            self.watched[index / 64] |= 1u64 << (index % 64);
            self.watch_slot[index] = self.waves.len() as u32;
            self.waves.push((net, Waveform::new()));
        }
    }

    /// Starts recording waveforms for every net whose name is in `names`.
    pub fn watch_named(&mut self, names: &[&str]) {
        for &name in names {
            if let Some(net) = self.netlist.find_net(name) {
                self.watch(net);
            }
        }
    }

    /// The waveform recorded for `net`, if it is watched.
    pub fn waveform_of(&self, net: NetId) -> Option<&Waveform> {
        match self.watch_slot.get(net.index()) {
            Some(&slot) if slot != u32::MAX => Some(&self.waves[slot as usize].1),
            _ => None,
        }
    }

    /// The waveforms of all watched nets as a name-keyed set.
    ///
    /// Waveforms are recorded by [`NetId`] during the run; this resolves
    /// each watched net's name exactly once, at export time.
    pub fn waveforms(&self) -> WaveformSet {
        let mut set = WaveformSet::new();
        for (net, wave) in &self.waves {
            set.insert(self.netlist.net(*net).name.to_string(), wave.clone());
        }
        set
    }

    /// Schedules a value change on `net` at absolute time `at_ps`.
    ///
    /// # Panics
    ///
    /// Panics if `at_ps` is not finite (NaN or ±∞ would corrupt the event
    /// order), or if it is in the past (before the current simulation time).
    pub fn schedule(&mut self, net: NetId, value: Value, at_ps: f64) {
        assert!(
            at_ps.is_finite(),
            "cannot schedule an event at non-finite time {at_ps} ps on net `{}`",
            self.netlist.net(net).name
        );
        assert!(
            at_ps + 1e-9 >= self.time,
            "cannot schedule an event in the past ({at_ps} < {})",
            self.time
        );
        self.seq += 1;
        self.projected[net.index()] = value;
        // `+ 0.0` normalizes a negative zero (whose bit pattern would sort
        // *after* every positive time) to +0.0; clamped times are otherwise
        // non-negative, so the key order equals the numeric order.
        let time = at_ps.max(self.time) + 0.0;
        self.queue.push(Event {
            key: time.to_bits(),
            seq: self.seq,
            net,
            value,
        });
    }

    /// Drives a primary input (or any net) to `value` at the current time.
    pub fn set(&mut self, net: NetId, value: Value) {
        self.schedule(net, value, self.time);
    }

    /// Forces the output nets of all flip-flops and latches to `value` at
    /// the current time, modelling a global reset of the register state.
    pub fn initialize_registers(&mut self, value: Value) {
        for i in 0..self.model.register_outputs.len() {
            let output = self.model.register_outputs[i];
            self.schedule(output, value, self.time);
        }
    }

    /// Runs the simulation until the event queue is empty or the next event
    /// lies beyond `until_ps`; the simulation time is then advanced to
    /// `until_ps`.
    ///
    /// Returns the number of committed events.
    pub fn run_until(&mut self, until_ps: f64) -> usize {
        let mut committed = 0usize;
        if let Some(limit) = window_limit(until_ps) {
            while let Some(event) = self.queue.pop_until(limit) {
                self.time = event.time_ps();
                committed += self.commit(event);
            }
        }
        self.time = self.time.max(until_ps);
        self.activity.duration_ps = self.time;
        committed
    }

    /// Runs until the event queue drains completely (combinational settling).
    /// Returns the number of committed events.
    ///
    /// A safety cap of `max_events` guards against oscillating feedback
    /// loops; the run stops early when the cap is reached.
    pub fn settle(&mut self, max_events: usize) -> usize {
        let mut committed = 0usize;
        while committed < max_events {
            let Some(event) = self.queue.pop() else { break };
            self.time = event.time_ps();
            committed += self.commit(event);
        }
        self.activity.duration_ps = self.time;
        committed
    }

    fn commit(&mut self, event: Event<Value>) -> usize {
        let net = event.net.index();
        let old = self.values[net];
        if old == event.value {
            return 0;
        }
        self.values[net] = event.value;
        self.committed += 1;
        if old != Value::X {
            // Transitions out of the unknown initialization state are not
            // counted as switching activity.
            self.activity.record(event.net);
        }
        if self.watched[net / 64] & (1u64 << (net % 64)) != 0 {
            let slot = self.watch_slot[net] as usize;
            self.waves[slot].1.push(self.time, event.value);
        }
        // React: evaluate every reader of the changed net (a contiguous CSR
        // slice — nothing is cloned).
        let start = self.model.reader_offsets[net] as usize;
        let end = self.model.reader_offsets[net + 1] as usize;
        for i in start..end {
            let cell_id = self.model.reader_cells[i];
            self.evaluate_cell(cell_id, event.net, old, event.value);
        }
        1
    }

    /// Gathers the committed input values of cell `ci` into the reused
    /// scratch buffer.
    fn gather_inputs(&mut self, ci: usize) {
        let start = self.model.input_offsets[ci] as usize;
        let end = self.model.input_offsets[ci + 1] as usize;
        self.scratch.clear();
        let (scratch, values, model) = (&mut self.scratch, &self.values, &self.model);
        scratch.extend(
            model.input_nets[start..end]
                .iter()
                .map(|n| values[n.index()]),
        );
    }

    fn evaluate_cell(&mut self, cell_id: CellId, changed: NetId, old: Value, new: Value) {
        let ci = cell_id.index();
        let kind = self.model.cell_kind[ci];
        let delay = self.model.cell_delay[ci];
        let pins = self.model.input_offsets[ci] as usize;
        match kind {
            CellKind::Dff => {
                let clk = self.model.input_nets[pins + 1];
                if changed == clk && new == Value::One && old != Value::One {
                    // Rising clock edge: capture D (read once, reused for
                    // both the capture record and the scheduled output).
                    let d = self.values[self.model.input_nets[pins].index()];
                    let output = self.model.cell_output[ci];
                    self.captures.push(Capture {
                        time_ps: self.time,
                        cell: cell_id,
                        value: d,
                    });
                    self.schedule(output, d, self.time + delay);
                }
            }
            CellKind::LatchLow | CellKind::LatchHigh => {
                let transparent_high = kind == CellKind::LatchHigh;
                let d = self.values[self.model.input_nets[pins].index()];
                let enable_net = self.model.input_nets[pins + 1];
                let en = self.values[enable_net.index()];
                let output = self.model.cell_output[ci];
                // The held state is the value the output is moving towards
                // (the last scheduled value), so that pending events and the
                // hold behaviour stay consistent.
                let stored = self.projected[output.index()];
                let q = evaluate_latch(d, en, stored, transparent_high);
                if q != stored {
                    self.schedule(output, q, self.time + delay);
                }
                // A closing enable edge captures the current data value.
                let closing = if transparent_high {
                    Value::Zero
                } else {
                    Value::One
                };
                if changed == enable_net && new == closing && old != closing && old != Value::X {
                    self.captures.push(Capture {
                        time_ps: self.time,
                        cell: cell_id,
                        value: d,
                    });
                }
            }
            CellKind::CElement => {
                self.gather_inputs(ci);
                let output = self.model.cell_output[ci];
                let stored = self.projected[output.index()];
                let q = evaluate_c_element(&self.scratch, stored);
                if q != stored {
                    self.schedule(output, q, self.time + delay);
                }
            }
            kind => {
                self.gather_inputs(ci);
                let output = self.model.cell_output[ci];
                let q = evaluate(kind, &self.scratch);
                if q != self.projected[output.index()] {
                    self.schedule(output, q, self.time + delay);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desync_netlist::CellLibrary;
    use proptest::prelude::*;

    fn lib() -> CellLibrary {
        CellLibrary::generic_90nm()
    }

    #[test]
    fn combinational_propagation() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_output("y");
        n.add_gate("g", CellKind::And, &[a, b], y).unwrap();
        let l = lib();
        let mut sim = EventSimulator::new(&n, &l, SimConfig::default());
        sim.set(a, Value::One);
        sim.set(b, Value::One);
        sim.settle(1000);
        assert_eq!(sim.value(y), Value::One);
        sim.set(b, Value::Zero);
        sim.settle(1000);
        assert_eq!(sim.value(y), Value::Zero);
        assert_eq!(sim.value_by_name("y"), Value::Zero);
        assert_eq!(sim.value_by_name("missing"), Value::X);
        assert!(sim.committed_events() > 0);
    }

    #[test]
    fn gate_delay_is_respected() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.add_output("y");
        n.add_gate("g", CellKind::Buf, &[a], y).unwrap();
        let l = lib();
        let mut sim = EventSimulator::new(&n, &l, SimConfig::default());
        sim.set(a, Value::One);
        // Before the buffer delay elapses the output is still X.
        sim.run_until(1.0);
        assert_eq!(sim.value(y), Value::X);
        sim.run_until(10_000.0);
        assert_eq!(sim.value(y), Value::One);
        assert!(sim.time() >= 10_000.0);
    }

    #[test]
    fn dff_captures_on_rising_edge() {
        let mut n = Netlist::new("t");
        let clk = n.add_input("clk");
        let d = n.add_input("d");
        let q = n.add_output("q");
        n.add_dff("r", d, clk, q).unwrap();
        let l = lib();
        let mut sim = EventSimulator::new(&n, &l, SimConfig::default());
        sim.set(clk, Value::Zero);
        sim.set(d, Value::One);
        sim.settle(100);
        assert_eq!(sim.value(q), Value::X);
        // Rising edge captures d = 1.
        sim.schedule(clk, Value::One, sim.time() + 100.0);
        sim.settle(100);
        assert_eq!(sim.value(q), Value::One);
        assert_eq!(sim.captures.len(), 1);
        assert_eq!(sim.captures[0].value, Value::One);
        // Falling edge does not capture.
        sim.schedule(clk, Value::Zero, sim.time() + 100.0);
        sim.settle(100);
        assert_eq!(sim.captures.len(), 1);
    }

    #[test]
    fn latch_transparency_and_capture() {
        let mut n = Netlist::new("t");
        let en = n.add_input("en");
        let d = n.add_input("d");
        let q = n.add_output("q");
        n.add_latch("l", d, en, q, true).unwrap();
        let l = lib();
        let mut sim = EventSimulator::new(&n, &l, SimConfig::default());
        sim.set(en, Value::Zero);
        sim.set(d, Value::Zero);
        sim.settle(100);
        // Open the latch: output follows data.
        sim.schedule(en, Value::One, 1000.0);
        sim.schedule(d, Value::One, 1200.0);
        sim.run_until(2000.0);
        assert_eq!(sim.value(q), Value::One);
        // Close the latch: capture recorded, further data changes ignored.
        sim.schedule(en, Value::Zero, 2500.0);
        sim.schedule(d, Value::Zero, 2600.0);
        sim.run_until(4000.0);
        assert_eq!(sim.value(q), Value::One);
        assert_eq!(sim.captures.len(), 1);
        assert_eq!(sim.captures[0].value, Value::One);
    }

    #[test]
    fn c_element_waits_for_agreement() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_output("y");
        n.add_c_element("c", &[a, b], y).unwrap();
        let l = lib();
        let mut sim = EventSimulator::new(&n, &l, SimConfig::default());
        sim.set(a, Value::Zero);
        sim.set(b, Value::Zero);
        sim.settle(100);
        assert_eq!(sim.value(y), Value::Zero);
        sim.set(a, Value::One);
        sim.settle(100);
        assert_eq!(sim.value(y), Value::Zero, "output holds until both agree");
        sim.set(b, Value::One);
        sim.settle(100);
        assert_eq!(sim.value(y), Value::One);
    }

    #[test]
    fn activity_counts_transitions_not_initialization() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.add_output("y");
        n.add_gate("g", CellKind::Not, &[a], y).unwrap();
        let l = lib();
        let mut sim = EventSimulator::new(&n, &l, SimConfig::default());
        sim.set(a, Value::Zero);
        sim.settle(100);
        // X -> 0 / X -> 1 are not counted.
        assert_eq!(sim.activity.total_transitions(), 0);
        sim.set(a, Value::One);
        sim.settle(100);
        // a toggled and y toggled.
        assert_eq!(sim.activity.transitions_on(a), 1);
        assert_eq!(sim.activity.transitions_on(y), 1);
    }

    #[test]
    fn waveform_recording_of_watched_nets() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.add_output("y");
        n.add_gate("g", CellKind::Not, &[a], y).unwrap();
        let l = lib();
        let mut sim = EventSimulator::new(&n, &l, SimConfig::default());
        sim.watch_named(&["y"]);
        sim.set(a, Value::Zero);
        sim.settle(100);
        sim.set(a, Value::One);
        sim.settle(100);
        let waves = sim.waveforms();
        let w = waves.get("y").unwrap();
        assert!(w.len() >= 2);
        assert!(waves.get("a").is_none(), "a was not watched");
        assert_eq!(sim.waveform_of(y).unwrap(), w);
        assert!(sim.waveform_of(a).is_none());
        // Watching twice does not reset the recorded waveform.
        sim.watch(y);
        assert_eq!(sim.waveform_of(y).unwrap().len(), w.len());
    }

    #[test]
    fn initialize_registers_sets_outputs() {
        let mut n = Netlist::new("t");
        let clk = n.add_input("clk");
        let d = n.add_input("d");
        let q = n.add_output("q");
        n.add_dff("r", d, clk, q).unwrap();
        let l = lib();
        let mut sim = EventSimulator::new(&n, &l, SimConfig::default());
        sim.initialize_registers(Value::Zero);
        sim.settle(100);
        assert_eq!(sim.value(q), Value::Zero);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        n.mark_output(a);
        let l = lib();
        let mut sim = EventSimulator::new(&n, &l, SimConfig::default());
        sim.run_until(100.0);
        sim.schedule(a, Value::One, 5.0);
    }

    #[test]
    #[should_panic(expected = "non-finite time")]
    fn scheduling_nan_panics() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        n.mark_output(a);
        let l = lib();
        let mut sim = EventSimulator::new(&n, &l, SimConfig::default());
        sim.schedule(a, Value::One, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-finite time")]
    fn scheduling_infinity_panics() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        n.mark_output(a);
        let l = lib();
        let mut sim = EventSimulator::new(&n, &l, SimConfig::default());
        sim.schedule(a, Value::One, f64::INFINITY);
    }

    #[test]
    fn negative_zero_time_sorts_as_zero() {
        // -0.0 passes the finite check; its raw bit pattern would sort
        // after every positive time, so schedule() must normalize it.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.add_output("y");
        n.add_gate("g", CellKind::Buf, &[a], y).unwrap();
        let l = lib();
        let mut sim = EventSimulator::new(&n, &l, SimConfig::default());
        sim.schedule(a, Value::One, -0.0);
        sim.schedule(a, Value::Zero, 5.0);
        sim.settle(100);
        // The -0.0 event commits first (as time 0), the 5 ps event after.
        assert_eq!(sim.value(a), Value::Zero);
        assert_eq!(sim.activity.transitions_on(a), 1);
    }

    #[test]
    fn far_future_events_keep_their_order() {
        // Events scheduled out of order, some far beyond a clock period
        // (multiples of 16 384 ps), commit in time order.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.add_output("y");
        n.add_gate("g", CellKind::Buf, &[a], y).unwrap();
        let l = lib();
        let mut sim = EventSimulator::new(&n, &l, SimConfig::default());
        let span = 16_384.0;
        // A mix of near, far and very far events, scheduled out of order.
        sim.schedule(a, Value::One, 40.0 * span);
        sim.schedule(a, Value::Zero, 2.5 * span);
        sim.schedule(a, Value::One, 10.0);
        sim.run_until(50.0 * span);
        assert_eq!(sim.value(y), Value::One);
        // a: X->1->0->1 gives two counted transitions; y follows.
        assert_eq!(sim.activity.transitions_on(a), 2);
        assert_eq!(sim.activity.transitions_on(y), 2);
    }

    #[test]
    fn cursors_over_a_shared_model_match_a_private_compile() {
        // Two cursors over one compiled model, versus a fresh `new` per
        // run: committed values, captures and activity must coincide.
        let mut n = Netlist::new("t");
        let clk = n.add_input("clk");
        let d = n.add_input("d");
        let q = n.add_output("q");
        let w = n.add_net("w");
        n.add_gate("g", CellKind::Not, &[d], w).unwrap();
        n.add_dff("r", w, clk, q).unwrap();
        let l = lib();
        let model = Arc::new(CompiledModel::compile(&n, &l, SimConfig::default()));
        let drive = |sim: &mut EventSimulator<'_>| {
            sim.initialize_registers(Value::Zero);
            sim.set(clk, Value::Zero);
            sim.set(d, Value::One);
            sim.settle(1000);
            sim.schedule(clk, Value::One, sim.time() + 100.0);
            sim.settle(1000);
        };
        let mut fresh = EventSimulator::new(&n, &l, SimConfig::default());
        drive(&mut fresh);
        for _ in 0..2 {
            let mut cursor = EventSimulator::with_model(&n, Arc::clone(&model));
            drive(&mut cursor);
            assert_eq!(cursor.value(q), fresh.value(q));
            assert_eq!(cursor.captures, fresh.captures);
            assert_eq!(cursor.committed_events(), fresh.committed_events());
            assert_eq!(
                cursor.activity.total_transitions(),
                fresh.activity.total_transitions()
            );
            assert_eq!(cursor.config(), fresh.config());
            assert_eq!(cursor.model().config(), fresh.model().config());
        }
    }

    #[test]
    #[should_panic(expected = "does not match netlist")]
    fn mismatched_model_is_rejected() {
        let mut a = Netlist::new("a");
        let x = a.add_input("x");
        a.mark_output(x);
        let mut b = Netlist::new("b");
        let y = b.add_input("y");
        let z = b.add_output("z");
        b.add_gate("g", CellKind::Buf, &[y], z).unwrap();
        let l = lib();
        let model = Arc::new(CompiledModel::compile(&a, &l, SimConfig::default()));
        let _ = EventSimulator::with_model(&b, model);
    }

    fn ev(key: u64, seq: u64) -> Event<Value> {
        Event {
            key,
            seq,
            net: NetId(0),
            value: Value::One,
        }
    }

    #[test]
    fn radix_queue_orders_equal_keys_by_seq_and_reaches_far_keys() {
        let mut q = RadixQueue::<Value>::new();
        assert!(q.is_empty());
        let t = |ps: f64| ps.to_bits();
        // Times inserted out of order (sequence numbers increase with
        // every push, as the simulator numbers them); equal times
        // tie-break by seq.
        q.push(ev(t(30.0), 1));
        q.push(ev(t(10.0), 2));
        q.push(ev(t(10.0), 3));
        let far = 1e9;
        q.push(ev(t(far), 4));
        assert_eq!(q.pop().unwrap().seq, 2);
        assert_eq!(q.pop().unwrap().seq, 3);
        // A bounded pop below the next key rejects and leaves the floor at
        // 10 ps, so an event between the floor and the rejected minimum can
        // still be pushed (a testbench's next clock edge) and pops first.
        assert!(q.pop_until(t(15.0)).is_none());
        q.push(ev(t(12.0), 5));
        assert_eq!(q.pop_until(t(29.0)).unwrap().seq, 5);
        assert!(q.pop_until(t(29.0)).is_none());
        assert_eq!(q.pop_until(t(30.0)).unwrap().seq, 1);
        let popped = q.pop().unwrap();
        assert_eq!(popped.seq, 4);
        assert_eq!(popped.time_ps(), far);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn window_limit_matches_the_f64_comparison() {
        assert_eq!(window_limit(-1.0), None);
        assert_eq!(window_limit(-0.0), Some(0));
        assert_eq!(window_limit(f64::NAN), Some(u64::MAX));
        assert_eq!(window_limit(12.5), Some(12.5f64.to_bits()));
        assert!(window_limit(f64::INFINITY).unwrap() > f64::MAX.to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

        /// Random monotone push / pop / bounded-pop scripts pop exactly
        /// what a binary heap on `(key, seq)` pops.
        #[test]
        fn radix_queue_matches_a_binary_heap(seed in 0u64..u64::MAX, steps in 1usize..400) {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut queue = RadixQueue::<Value>::new();
            let mut reference = BinaryHeap::new();
            // Key of the last popped event: no push may go below it.
            let mut floor = 0u64;
            let mut seq = 0u64;
            let mut last_key = 0u64;
            let mut push = |queue: &mut RadixQueue<Value>,
                            reference: &mut BinaryHeap<Reverse<(u64, u64)>>,
                            key: u64| {
                seq += 1;
                queue.push(ev(key, seq));
                reference.push(Reverse((key, seq)));
            };
            for _ in 0..steps {
                let roll = next();
                match roll % 10 {
                    0..=4 => {
                        let key = match (roll >> 8) % 6 {
                            0 => floor,
                            1 => floor.saturating_add(next() % 16),
                            2 => floor.saturating_add(next() % 4096),
                            3 => floor.saturating_add(next() >> (next() % 64)),
                            4 => last_key.max(floor),
                            _ => u64::MAX,
                        };
                        last_key = key;
                        push(&mut queue, &mut reference, key);
                    }
                    5..=7 => {
                        let popped = queue.pop().map(|e| (e.key, e.seq));
                        let expected = reference.pop().map(|Reverse(entry)| entry);
                        prop_assert_eq!(popped, expected);
                        if let Some((key, _)) = popped {
                            floor = key;
                        }
                    }
                    _ => {
                        let limit = floor.saturating_add(next() >> (next() % 64));
                        let due = reference.peek().is_some_and(|Reverse((key, _))| *key <= limit);
                        let popped = queue.pop_until(limit).map(|e| (e.key, e.seq));
                        let expected = if due {
                            reference.pop().map(|Reverse(entry)| entry)
                        } else {
                            None
                        };
                        prop_assert_eq!(popped, expected);
                        match (popped, reference.peek()) {
                            (Some((key, _)), _) => floor = key,
                            // Rejected: push below the rejected minimum.
                            (None, Some(&Reverse((min, _)))) if min > floor => {
                                let key = floor + next() % (min - floor);
                                push(&mut queue, &mut reference, key);
                            }
                            _ => {}
                        }
                    }
                }
            }
            while let Some(Reverse(expected)) = reference.pop() {
                prop_assert_eq!(queue.pop().map(|e| (e.key, e.seq)), Some(expected));
            }
            prop_assert!(queue.is_empty());
        }
    }
}
