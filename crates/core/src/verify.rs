//! Flow-equivalence verification: gate-level co-simulation of the original
//! synchronous netlist and its desynchronized counterpart, followed by a
//! comparison of the per-register capture streams.
//!
//! Flow equivalence is the correctness criterion of the paper: for every
//! register, the sequence of values stored into it must be identical in the
//! two executions, even though the storing times differ. Here the original
//! flip-flop `r` is compared against the master latch `r__m` of the
//! desynchronized datapath — the master latch plays exactly the role of the
//! flip-flop's input edge.

use crate::conversion::LatchPair;
use crate::flow::DesyncDesign;
use desync_mg::flow::FlowMismatch;
use desync_mg::{FlowEquivalence, FlowTrace};
use desync_netlist::{CellLibrary, Netlist};
use desync_sim::{
    value_to_word, AsyncTestbench, CompiledModel, PackedAsyncTestbench, PackedSimRun,
    PackedSyncTestbench, PackedValue, PackedVectorSource, SimConfig, SimRun, SyncTestbench,
    VectorSource, MAX_LANES,
};
use desync_sta::TimingConfig;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The outcome of a flow-equivalence check, together with the two underlying
/// simulation runs (so callers can also extract activity for power
/// comparisons without re-simulating).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EquivalenceReport {
    /// The stream comparison verdict.
    pub equivalence: FlowEquivalence,
    /// Number of capture values compared per register.
    pub compared_cycles: usize,
    /// The synchronous simulation run.
    pub sync_run: SimRun,
    /// The desynchronized simulation run.
    pub async_run: SimRun,
}

impl EquivalenceReport {
    /// Whether the two executions are flow equivalent.
    pub fn is_equivalent(&self) -> bool {
        self.equivalence.is_equivalent()
    }

    /// The divergence window of a non-equivalent report: the earliest
    /// capture index at which any register's streams disagree, together
    /// with the sorted set of diverging registers. `None` when the report
    /// is equivalent (or the only failures are missing registers, which
    /// have no position).
    ///
    /// This is the evidence a root-cause investigation starts from — e.g.
    /// the pinned DLX/non-overlapping finding records *where* the program
    /// counter first departs from the synchronous reference.
    pub fn divergence(&self) -> Option<DivergenceWindow> {
        divergence_of(&self.equivalence)
    }
}

/// The divergence window of one [`FlowEquivalence`] verdict (see
/// [`EquivalenceReport::divergence`]).
fn divergence_of(equivalence: &FlowEquivalence) -> Option<DivergenceWindow> {
    let mismatches = &equivalence.mismatches;
    let first_cycle = mismatches.iter().map(|m| m.position).min()?;
    let mut registers: Vec<String> = mismatches.iter().map(|m| m.register.clone()).collect();
    registers.sort();
    registers.dedup();
    Some(DivergenceWindow {
        first_cycle,
        registers,
    })
}

/// Where a non-equivalent co-simulation first departs from the synchronous
/// reference, see [`EquivalenceReport::divergence`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DivergenceWindow {
    /// The earliest capture index with a disagreement (first divergent
    /// cycle across all registers).
    pub first_cycle: usize,
    /// The registers whose capture streams diverge, sorted by name.
    pub registers: Vec<String>,
}

impl crate::store::Weigh for SimRun {
    /// Weight of a cached synchronous reference run: the retained memory is
    /// dominated by the capture streams and recorded waveforms, so weigh
    /// one unit per captured value and waveform change.
    fn weight(&self) -> usize {
        self.flow_trace.total_values()
            + self
                .waveforms
                .iter()
                .map(|(_, wave)| wave.len())
                .sum::<usize>()
            + self.cycles
    }
}

impl crate::store::Weigh for CompiledModel {
    /// Weight of a cached compiled simulation model: its flat-array
    /// footprint (CSR entries, pin lists, delays).
    fn weight(&self) -> usize {
        self.footprint()
    }
}

/// Builds the [`SimConfig`] matching a timing configuration, so STA, the
/// control model and the simulator agree on delays.
pub fn sim_config_from(timing: &TimingConfig) -> SimConfig {
    SimConfig {
        wire_delay_per_fanout_ps: timing.wire_delay_per_fanout_ps,
        clk_to_q_ps: timing.clk_to_q_ps,
        latch_d_to_q_ps: timing.latch_d_to_q_ps,
    }
}

/// Builds the [`SimConfig`] matching the timing configuration a design was
/// desynchronized with ([`sim_config_from`] over the design's options).
pub fn sim_config_for(design: &DesyncDesign) -> SimConfig {
    sim_config_from(&design.options().timing)
}

/// Runs just the synchronous reference side of a flow-equivalence check:
/// `cycles` clock cycles of `original` at `period_ps` under `stimulus`.
///
/// The result is a pure function of `(original, library, config, period_ps,
/// cycles, stimulus)` — the simulator is deterministic — which is what makes
/// it cacheable across knob sweeps: protocol and margin changes alter only
/// the desynchronized side, so [`DesyncEngine`](crate::DesyncEngine) and
/// [`DesyncFlow`](crate::DesyncFlow) key a reference-run cache on exactly
/// those inputs and feed [`verify_flow_equivalence_with_reference`].
///
/// # Errors
///
/// [`NetlistError::ClockError`](desync_netlist::NetlistError::ClockError)
/// if `original` does not have exactly one clock net.
pub fn sync_reference_run(
    original: &Netlist,
    library: &CellLibrary,
    config: SimConfig,
    period_ps: f64,
    cycles: usize,
    stimulus: &VectorSource,
) -> Result<SimRun, desync_netlist::NetlistError> {
    let mut sync_tb = SyncTestbench::new(original, library, config)?;
    Ok(sync_tb.run(cycles, period_ps, stimulus))
}

/// [`sync_reference_run`] over a pre-compiled simulation model of
/// `original`, so repeated reference runs (distinct stimuli or cycle
/// counts over one design) share a single topology compilation. The run is
/// bit-identical to [`sync_reference_run`] with the model's compile inputs.
///
/// # Errors
///
/// [`NetlistError::ClockError`](desync_netlist::NetlistError::ClockError)
/// if `original` does not have exactly one clock net.
pub fn sync_reference_run_with_model(
    original: &Netlist,
    model: &Arc<CompiledModel>,
    period_ps: f64,
    cycles: usize,
    stimulus: &VectorSource,
) -> Result<SimRun, desync_netlist::NetlistError> {
    let mut sync_tb = SyncTestbench::with_model(original, Arc::clone(model))?;
    Ok(sync_tb.run(cycles, period_ps, stimulus))
}

/// Runs the synchronous netlist and its desynchronized design on the same
/// input stream and checks flow equivalence over `cycles` captures.
///
/// The synchronous run uses the STA clock period of the design; the
/// desynchronized run uses the latch-enable schedule derived from the timed
/// control model, with the environment applying input vector *k* right
/// after the *k*-th capture of the input-fed master latches.
pub fn verify_flow_equivalence(
    original: &Netlist,
    design: &DesyncDesign,
    library: &CellLibrary,
    stimulus: &VectorSource,
    cycles: usize,
) -> Result<EquivalenceReport, desync_netlist::NetlistError> {
    let config = sim_config_for(design);
    let sync_run = sync_reference_run(
        original,
        library,
        config,
        design.synchronous_period_ps(),
        cycles,
        stimulus,
    )?;
    verify_flow_equivalence_with_reference(original, design, library, stimulus, cycles, sync_run)
}

/// [`verify_flow_equivalence`] with a pre-computed synchronous reference
/// run, so knob sweeps (protocol, margin) simulate the unchanged sync side
/// once instead of once per sweep point.
///
/// `sync_run` must come from [`sync_reference_run`] over the same
/// `(original, library, config, period, cycles, stimulus)` — the caches in
/// [`DesyncEngine`](crate::DesyncEngine) enforce this by construction. The
/// returned report is identical to a from-scratch
/// [`verify_flow_equivalence`] call.
///
/// # Panics
///
/// Panics if `sync_run` covers a different number of cycles than `cycles`
/// — the one key component a [`SimRun`] carries. (A mismatched reference
/// would otherwise silently shrink the compared prefix and could report
/// equivalence over fewer captures than requested.)
pub fn verify_flow_equivalence_with_reference(
    original: &Netlist,
    design: &DesyncDesign,
    library: &CellLibrary,
    stimulus: &VectorSource,
    cycles: usize,
    sync_run: SimRun,
) -> Result<EquivalenceReport, desync_netlist::NetlistError> {
    let model = Arc::new(CompiledModel::compile(
        design.latch_netlist(),
        library,
        sim_config_for(design),
    ));
    verify_flow_equivalence_with_parts(original, design, stimulus, cycles, sync_run, &model)
}

/// [`verify_flow_equivalence_with_reference`] over a pre-compiled model of
/// the desynchronized datapath, so every point of a protocol × margin sweep
/// binds its enable schedule onto one shared [`CompiledModel`] instead of
/// recompiling the latch netlist's topology per point.
///
/// `async_model` must be compiled from `design.latch_netlist()` under
/// [`sim_config_for`]`(design)` — the caches in
/// [`DesyncEngine`](crate::DesyncEngine) enforce this by construction. The
/// returned report is identical to a from-scratch
/// [`verify_flow_equivalence`] call.
///
/// # Panics
///
/// Panics if `sync_run` covers a different number of cycles than `cycles`
/// (see [`verify_flow_equivalence_with_reference`]), or if `async_model`
/// was compiled from a different netlist structure.
pub fn verify_flow_equivalence_with_parts(
    original: &Netlist,
    design: &DesyncDesign,
    stimulus: &VectorSource,
    cycles: usize,
    sync_run: SimRun,
    async_model: &Arc<CompiledModel>,
) -> Result<EquivalenceReport, desync_netlist::NetlistError> {
    assert_eq!(
        sync_run.cycles, cycles,
        "sync reference run covers {} cycles but the equivalence check asked for {cycles}; \
         compute the reference with the same cycle count (see sync_reference_run)",
        sync_run.cycles,
    );

    // Desynchronized run: enables from the control model, inputs retimed to
    // the captures of the input-fed master latches. The schedule starts only
    // after the simulator has had one full synchronous period to settle the
    // combinational logic from the reset state, so no enable event can race
    // the initialization wave.
    let start_offset = design.synchronous_period_ps() + 1_000.0;
    let bundle = design.enable_schedule(cycles + 2, start_offset);
    let latch_netlist = design.latch_netlist();
    let mut inputs = Vec::new();
    // Map the original primary-input net names onto the latch netlist.
    for (k, &t) in bundle.input_vector_times.iter().enumerate() {
        if k >= cycles {
            break;
        }
        for (net, value) in stimulus.vector_for(k) {
            let name = original.net(net).name;
            if let Some(mapped) = latch_netlist.find_net_symbol(name) {
                inputs.push((t, mapped, value));
            }
        }
    }
    let mut async_tb = AsyncTestbench::with_model(latch_netlist, Arc::clone(async_model));
    let duration = bundle.horizon_ps + design.cycle_time_ps() + 1_000.0;
    let async_run = async_tb.run(duration, cycles, &bundle.schedule, &inputs);

    // Rename master-latch streams back to the original flip-flop names (one
    // stream move per register, not one push per captured value).
    let mut mapped = FlowTrace::new();
    for pair in &design.latch_design().pairs {
        if let Some(stream) = async_run.flow_trace.stream(&pair.master) {
            mapped.extend_stream(pair.register_name.clone(), stream.to_vec());
        }
    }
    // Compare on the common prefix, capped by the requested cycle count.
    let limit = cycles
        .min(mapped.min_stream_len())
        .min(sync_run.flow_trace.min_stream_len());
    let equivalence = FlowEquivalence::compare_prefix(&sync_run.flow_trace, &mapped, limit);
    Ok(EquivalenceReport {
        equivalence,
        compared_cycles: limit,
        sync_run,
        async_run,
    })
}

/// The outcome of a multi-seed (packed) flow-equivalence campaign point:
/// one per-lane verdict for each stimulus seed, plus the word- and
/// lane-level event accounting of the two packed runs.
///
/// Unlike [`EquivalenceReport`] this does not retain the simulation runs;
/// the per-lane verdicts and counters are what sweeps aggregate. The
/// verdicts come from comparing the packed capture words of both runs
/// directly (see [`verify_flow_equivalence_packed_with_parts`]), and each
/// lane's verdict and compared-cycle count equal those of a scalar
/// [`verify_flow_equivalence`] with that lane's stimulus. Lane order follows
/// the stimulus lane order, so verdicts merge deterministically regardless
/// of worker scheduling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiSeedReport {
    /// Number of stimulus lanes verified (1..=64).
    pub lanes: usize,
    /// Per-lane stream-comparison verdicts, in stimulus lane order.
    pub lane_equivalence: Vec<FlowEquivalence>,
    /// Per-lane number of capture values compared per register.
    pub compared_cycles: Vec<usize>,
    /// Word events committed by the packed synchronous reference run.
    pub sync_word_events: usize,
    /// Scalar-equivalent events of the synchronous side (sum over lanes).
    pub sync_lane_events: usize,
    /// Word events committed by the packed desynchronized run.
    pub async_word_events: usize,
    /// Scalar-equivalent events of the desynchronized side (sum over lanes).
    pub async_lane_events: usize,
}

impl MultiSeedReport {
    /// Number of lanes whose executions are flow equivalent.
    pub fn equivalent_lanes(&self) -> usize {
        self.lane_equivalence
            .iter()
            .filter(|eq| eq.is_equivalent())
            .count()
    }

    /// Whether every lane is flow equivalent.
    pub fn is_equivalent(&self) -> bool {
        self.equivalent_lanes() == self.lanes
    }

    /// Whether lane `lane` is flow equivalent.
    pub fn lane_is_equivalent(&self, lane: usize) -> bool {
        self.lane_equivalence[lane].is_equivalent()
    }

    /// The divergence window of lane `lane`, `None` when it is equivalent
    /// (see [`EquivalenceReport::divergence`]).
    pub fn lane_divergence(&self, lane: usize) -> Option<DivergenceWindow> {
        divergence_of(&self.lane_equivalence[lane])
    }

    /// Total word events committed across both packed runs (the work the
    /// kernel actually did).
    pub fn word_events(&self) -> usize {
        self.sync_word_events + self.async_word_events
    }

    /// Total scalar-equivalent lane events across both packed runs (what an
    /// equivalent all-scalar campaign would have committed).
    pub fn lane_events(&self) -> usize {
        self.sync_lane_events + self.async_lane_events
    }
}

impl crate::store::Weigh for PackedSimRun {
    /// Weight of a cached packed reference run: its packed footprint (see
    /// [`PackedSimRun::footprint`]), one unit per record covering every
    /// lane — not the sum of 64 extracted lanes.
    fn weight(&self) -> usize {
        self.footprint().max(1)
    }
}

/// The packed counterpart of [`sync_reference_run_with_model`]: one packed
/// synchronous run carrying every stimulus lane, over the *same* compiled
/// models the scalar path caches. Each lane ([`PackedSimRun::lane`]) is
/// bit-identical to [`sync_reference_run`] with that lane's stimulus.
///
/// # Errors
///
/// [`NetlistError::ClockError`](desync_netlist::NetlistError::ClockError)
/// if `original` does not have exactly one clock net.
pub fn packed_sync_reference_run_with_model(
    original: &Netlist,
    model: &Arc<CompiledModel>,
    period_ps: f64,
    cycles: usize,
    stimulus: &PackedVectorSource,
) -> Result<PackedSimRun, desync_netlist::NetlistError> {
    let mut sync_tb =
        PackedSyncTestbench::with_model(original, Arc::clone(model), stimulus.lanes())?;
    Ok(sync_tb.run(cycles, period_ps, stimulus))
}

/// [`packed_sync_reference_run_with_model`] with a private compile.
///
/// # Errors
///
/// [`NetlistError::ClockError`](desync_netlist::NetlistError::ClockError)
/// if `original` does not have exactly one clock net.
pub fn packed_sync_reference_run(
    original: &Netlist,
    library: &CellLibrary,
    config: SimConfig,
    period_ps: f64,
    cycles: usize,
    stimulus: &PackedVectorSource,
) -> Result<PackedSimRun, desync_netlist::NetlistError> {
    let model = Arc::new(CompiledModel::compile(original, library, config));
    packed_sync_reference_run_with_model(original, &model, period_ps, cycles, stimulus)
}

/// The multi-seed packed path of [`verify_flow_equivalence`]: verifies all
/// stimulus lanes of `stimulus` in one packed co-simulation pass — two
/// packed runs instead of `2 × lanes` scalar runs — and reports one
/// per-lane verdict each.
///
/// Each lane's verdict is bit-identical to the `equivalence` of a scalar
/// [`verify_flow_equivalence`] call with that lane's stimulus (the golden
/// suite `sim_packed_golden.rs` pins this).
pub fn verify_flow_equivalence_packed(
    original: &Netlist,
    design: &DesyncDesign,
    library: &CellLibrary,
    stimulus: &PackedVectorSource,
    cycles: usize,
) -> Result<MultiSeedReport, desync_netlist::NetlistError> {
    let config = sim_config_for(design);
    let sync_run = packed_sync_reference_run(
        original,
        library,
        config,
        design.synchronous_period_ps(),
        cycles,
        stimulus,
    )?;
    let async_model = Arc::new(CompiledModel::compile(
        design.latch_netlist(),
        library,
        config,
    ));
    verify_flow_equivalence_packed_with_parts(
        original,
        design,
        stimulus,
        cycles,
        &sync_run,
        &async_model,
    )
}

/// [`verify_flow_equivalence_packed`] over a pre-computed packed reference
/// run and a pre-compiled model of the desynchronized datapath — the
/// campaign fast path, mirroring [`verify_flow_equivalence_with_parts`].
///
/// No lane is extracted. The verdicts are computed on the packed capture
/// records of the two runs: the name-sorted reference registers and the
/// master latches (paired through [`LatchPair::register_name`]) are walked
/// once, and for each capture index one `diff_mask` over the two packed
/// words finds every lane that disagrees there. Each lane still gets
/// exactly the [`FlowEquivalence`] the scalar comparison reports: its first
/// mismatch per register in register-name order, its missing registers,
/// its compared-value count, and a compared-cycle count capped by `cycles`
/// and that lane's shortest stream on either side.
///
/// The word compare needs record *k* to be capture *k* in every lane, which
/// holds when every capture record of a register covers all live lanes —
/// always the case here, as clock and enables are broadcast. A register
/// with any record covering only some lanes (the *mixed-mask* case) is
/// compared lane by lane from the same records instead, so the verdicts
/// stay exact for any mask pattern.
///
/// `sync_run` must come from [`packed_sync_reference_run`] over the same
/// `(original, library, config, period, cycles, stimulus)`, and
/// `async_model` from `design.latch_netlist()` under
/// [`sim_config_for`]`(design)` — the caches in
/// [`DesyncEngine`](crate::DesyncEngine) enforce this by construction.
///
/// # Panics
///
/// Panics if `sync_run` covers a different lane or cycle count than
/// `stimulus` and `cycles`, or if `async_model` was compiled from a
/// different netlist structure.
pub fn verify_flow_equivalence_packed_with_parts(
    original: &Netlist,
    design: &DesyncDesign,
    stimulus: &PackedVectorSource,
    cycles: usize,
    sync_run: &PackedSimRun,
    async_model: &Arc<CompiledModel>,
) -> Result<MultiSeedReport, desync_netlist::NetlistError> {
    assert_eq!(
        sync_run.lanes(),
        stimulus.lanes(),
        "packed sync reference carries {} lanes but the stimulus has {}",
        sync_run.lanes(),
        stimulus.lanes(),
    );
    assert_eq!(
        sync_run.cycles(),
        cycles,
        "sync reference run covers {} cycles but the equivalence check asked for {cycles}; \
         compute the reference with the same cycle count (see packed_sync_reference_run)",
        sync_run.cycles(),
    );

    // Identical setup to the scalar path: the enable schedule and the input
    // vector times are stimulus-independent, so they are computed once and
    // shared by every lane; only the input *payloads* widen.
    let start_offset = design.synchronous_period_ps() + 1_000.0;
    let bundle = design.enable_schedule(cycles + 2, start_offset);
    let latch_netlist = design.latch_netlist();
    let mut inputs: Vec<(f64, desync_netlist::NetId, PackedValue)> = Vec::new();
    for (k, &t) in bundle.input_vector_times.iter().enumerate() {
        if k >= cycles {
            break;
        }
        for (net, value) in stimulus.packed_vector_for(k) {
            let name = original.net(net).name;
            if let Some(mapped) = latch_netlist.find_net_symbol(name) {
                inputs.push((t, mapped, value));
            }
        }
    }
    let mut async_tb =
        PackedAsyncTestbench::with_model(latch_netlist, Arc::clone(async_model), stimulus.lanes());
    let duration = bundle.horizon_ps + design.cycle_time_ps() + 1_000.0;
    let async_run = async_tb.run(duration, cycles, &bundle.schedule, &inputs);

    let (lane_equivalence, compared_cycles) =
        compare_packed_captures(sync_run, &async_run, &design.latch_design().pairs, cycles);
    Ok(MultiSeedReport {
        lanes: stimulus.lanes(),
        lane_equivalence,
        compared_cycles,
        sync_word_events: sync_run.word_committed_events,
        sync_lane_events: sync_run.lane_committed_events(),
        async_word_events: async_run.word_committed_events,
        async_lane_events: async_run.lane_committed_events(),
    })
}

/// One cell's chronological `(lane mask, value)` capture records.
type Records<'r> = &'r [(u64, PackedValue)];

/// One register of a packed comparison: its name, its reference records and
/// its master latch's records, each absent when that cell never captured.
type Register<'r> = (&'r str, Option<Records<'r>>, Option<Records<'r>>);

/// The per-lane verdicts and compared-cycle counts of a packed
/// co-simulation: for every lane exactly what
/// [`FlowEquivalence::compare_prefix`] returns on that lane's extracted
/// reference trace and master-latch trace (renamed to the registers), with
/// the prefix capped by `cycles` and both traces' shortest streams — without
/// extracting a single lane.
///
/// Registers are walked once in name order, merging the reference cells
/// with the latch pairs. A register whose records all cover every live lane
/// on both sides has the same stream length in every lane, so its capture
/// *k* is record *k* on both sides and one `diff_mask` compares it across
/// all lanes; each lane keeps its own prefix limit and stops at its first
/// mismatch. Any other register is compared lane by lane from the same
/// records.
fn compare_packed_captures(
    sync_run: &PackedSimRun,
    async_run: &PackedSimRun,
    pairs: &[LatchPair],
    cycles: usize,
) -> (Vec<FlowEquivalence>, Vec<usize>) {
    let lanes = sync_run.lanes();
    let live = sync_run.lane_mask();
    let mut masters: Vec<(&str, Records)> = pairs
        .iter()
        .filter_map(|pair| {
            let records = async_run.cell_captures(&pair.master)?;
            Some((pair.register_name.as_str(), records))
        })
        .collect();
    masters.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut registers: Vec<Register> = Vec::with_capacity(masters.len());
    let mut masters = masters.into_iter().peekable();
    for (name, reference) in sync_run.capture_cells() {
        while let Some((master_name, checked)) = masters.next_if(|&(other, _)| other < name) {
            registers.push((master_name, None, Some(checked)));
        }
        let checked = masters.next_if(|&(other, _)| other == name).map(|(_, c)| c);
        registers.push((name, Some(reference), checked));
    }
    registers.extend(masters.map(|(name, checked)| (name, None, Some(checked))));

    // Each lane's prefix limit: `cycles`, capped by the shortest stream of
    // either trace in that lane (0 when a trace has no stream there).
    let mut shortest = [[usize::MAX; MAX_LANES]; 2];
    for &(_, reference, checked) in &registers {
        for (side, records) in [reference, checked].into_iter().enumerate() {
            if let Some(records) = records {
                shorten(&mut shortest[side][..lanes], records, live);
            }
        }
    }
    let limit: Vec<usize> = (0..lanes)
        .map(|lane| {
            let trace_min = |side: usize| match shortest[side][lane] {
                usize::MAX => 0,
                len => len,
            };
            cycles.min(trace_min(0)).min(trace_min(1))
        })
        .collect();
    // Lanes whose prefix ends at capture index k, so a word scan drops them
    // there.
    let mut ends_at = vec![0u64; cycles + 1];
    for (lane, &end) in limit.iter().enumerate() {
        ends_at[end] |= 1 << lane;
    }
    let longest = limit.iter().copied().max().unwrap_or(0);

    let mut verdicts: Vec<FlowEquivalence> = (0..lanes)
        .map(|_| FlowEquivalence {
            mismatches: Vec::new(),
            missing_registers: Vec::new(),
            compared_values: 0,
        })
        .collect();
    for (name, reference, checked) in registers {
        match (reference, checked) {
            (Some(reference), Some(checked))
                if covers_all(reference, live) && covers_all(checked, live) =>
            {
                let common = reference.len().min(checked.len());
                for (verdict, &end) in verdicts.iter_mut().zip(&limit) {
                    verdict.compared_values += common.min(end);
                }
                let mut pending = live;
                for k in 0..common.min(longest) {
                    pending &= !ends_at[k];
                    let (expected, actual) = (reference[k].1, checked[k].1);
                    let mut differ = expected.diff_mask(actual) & pending;
                    pending &= !differ;
                    while differ != 0 {
                        let lane = differ.trailing_zeros() as usize;
                        differ &= differ - 1;
                        verdicts[lane].mismatches.push(FlowMismatch {
                            register: name.to_owned(),
                            position: k,
                            reference: Some(value_to_word(expected.lane(lane))),
                            checked: Some(value_to_word(actual.lane(lane))),
                        });
                    }
                    if pending == 0 {
                        break;
                    }
                }
            }
            _ => {
                for (lane, verdict) in verdicts.iter_mut().enumerate() {
                    compare_lane(verdict, lane, name, reference, checked, limit[lane]);
                }
            }
        }
    }
    (verdicts, limit)
}

/// Whether every record covers every `live` lane, making each lane's stream
/// the whole record list.
fn covers_all(records: Records, live: u64) -> bool {
    records.iter().all(|&(mask, _)| mask == live)
}

/// Lowers each lane's shortest-stream length to `records`' stream length
/// in that lane; lanes the records never reach have no stream and keep
/// theirs.
fn shorten(shortest: &mut [usize], records: Records, live: u64) {
    if covers_all(records, live) {
        for len in shortest.iter_mut() {
            *len = (*len).min(records.len());
        }
        return;
    }
    let mut lane_len = [0usize; MAX_LANES];
    for &(mut mask, _) in records {
        while mask != 0 {
            lane_len[mask.trailing_zeros() as usize] += 1;
            mask &= mask - 1;
        }
    }
    for (len, &count) in shortest.iter_mut().zip(&lane_len) {
        if count > 0 {
            *len = (*len).min(count);
        }
    }
}

/// [`FlowEquivalence::compare_prefix`]'s step for one register in one lane,
/// over the lane's streams extracted from the records: a register with a
/// stream on one side only is missing, one with streams on both sides has
/// its common prefix up to `limit` compared and reports its first mismatch.
fn compare_lane(
    verdict: &mut FlowEquivalence,
    lane: usize,
    name: &str,
    reference: Option<Records>,
    checked: Option<Records>,
    limit: usize,
) {
    let stream = |records: Option<Records>| -> Vec<u64> {
        records.map_or_else(Vec::new, |records| {
            records
                .iter()
                .filter(|&&(mask, _)| mask & (1 << lane) != 0)
                .map(|&(_, value)| value_to_word(value.lane(lane)))
                .collect()
        })
    };
    let (reference, checked) = (stream(reference), stream(checked));
    match (reference.is_empty(), checked.is_empty()) {
        (true, true) => {}
        (false, false) => {
            let n = reference.len().min(checked.len()).min(limit);
            verdict.compared_values += n;
            if let Some(position) = (0..n).find(|&i| reference[i] != checked[i]) {
                verdict.mismatches.push(FlowMismatch {
                    register: name.to_owned(),
                    position,
                    reference: Some(reference[position]),
                    checked: Some(checked[position]),
                });
            }
        }
        _ => verdict.missing_registers.push(name.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Desynchronizer;
    use crate::options::DesyncOptions;
    use crate::Protocol;
    use desync_netlist::{CellKind, Value};
    use desync_sim::EnableSchedule;

    fn lib() -> CellLibrary {
        CellLibrary::generic_90nm()
    }

    /// A 3-stage pipeline with an XOR mixing stage.
    fn pipeline() -> Netlist {
        let mut n = Netlist::new("pipe");
        let clk = n.add_input("clk");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let q0 = n.add_net("q0");
        let q1 = n.add_net("q1");
        let w0 = n.add_net("w0");
        let w1 = n.add_net("w1");
        let q2 = n.add_net("q2");
        let q3 = n.add_output("q3");
        n.add_dff("r0", a, clk, q0).unwrap();
        n.add_dff("r1", b, clk, q1).unwrap();
        n.add_gate("g0", CellKind::Xor, &[q0, q1], w0).unwrap();
        n.add_dff("r2", w0, clk, q2).unwrap();
        n.add_gate("g1", CellKind::Not, &[q2], w1).unwrap();
        n.add_dff("r3", w1, clk, q3).unwrap();
        n
    }

    /// A self-contained circuit (no data inputs): a 3-bit counter.
    fn counter() -> Netlist {
        let mut n = Netlist::new("cnt");
        let clk = n.add_input("clk");
        let q: Vec<_> = (0..3).map(|i| n.add_net(format!("q{i}"))).collect();
        // d0 = !q0; d1 = q1 ^ q0; d2 = q2 ^ (q1 & q0)
        let d0 = n.add_net("d0");
        let d1 = n.add_net("d1");
        let d2 = n.add_net("d2");
        let c01 = n.add_net("c01");
        n.add_gate("i0", CellKind::Not, &[q[0]], d0).unwrap();
        n.add_gate("x1", CellKind::Xor, &[q[1], q[0]], d1).unwrap();
        n.add_gate("a1", CellKind::And, &[q[1], q[0]], c01).unwrap();
        n.add_gate("x2", CellKind::Xor, &[q[2], c01], d2).unwrap();
        n.add_dff("cnt_ff[0]", d0, clk, q[0]).unwrap();
        n.add_dff("cnt_ff[1]", d1, clk, q[1]).unwrap();
        n.add_dff("cnt_ff[2]", d2, clk, q[2]).unwrap();
        for &qi in &q {
            n.mark_output(qi);
        }
        n
    }

    #[test]
    fn counter_is_flow_equivalent_without_stimulus() {
        let n = counter();
        let library = lib();
        let design = Desynchronizer::new(&n, &library, DesyncOptions::default())
            .run()
            .unwrap();
        let report =
            verify_flow_equivalence(&n, &design, &library, &VectorSource::constant(vec![]), 20)
                .unwrap();
        assert!(report.is_equivalent(), "{}", report.equivalence);
        assert!(report.compared_cycles >= 15);
        assert!(report.sync_run.activity.total_transitions() > 0);
        assert!(report.async_run.activity.total_transitions() > 0);
    }

    #[test]
    fn pipeline_is_flow_equivalent_under_random_stimulus() {
        let n = pipeline();
        let library = lib();
        let design = Desynchronizer::new(&n, &library, DesyncOptions::default())
            .run()
            .unwrap();
        let a = n.find_net("a").unwrap();
        let b = n.find_net("b").unwrap();
        let stim = VectorSource::pseudo_random(vec![a, b], 7);
        let report = verify_flow_equivalence(&n, &design, &library, &stim, 24).unwrap();
        assert!(report.is_equivalent(), "{}", report.equivalence);
        assert!(report.compared_cycles >= 20);
    }

    #[test]
    fn pipeline_is_flow_equivalent_for_every_protocol() {
        let n = pipeline();
        let library = lib();
        let a = n.find_net("a").unwrap();
        let b = n.find_net("b").unwrap();
        for &protocol in Protocol::all() {
            let design = Desynchronizer::new(
                &n,
                &library,
                DesyncOptions::default().with_protocol(protocol),
            )
            .run()
            .unwrap();
            let stim = VectorSource::sequence(vec![
                vec![(a, Value::One), (b, Value::Zero)],
                vec![(a, Value::Zero), (b, Value::One)],
                vec![(a, Value::One), (b, Value::One)],
            ]);
            let report = verify_flow_equivalence(&n, &design, &library, &stim, 18).unwrap();
            assert!(
                report.is_equivalent(),
                "protocol {protocol}: {}",
                report.equivalence
            );
        }
    }

    #[test]
    fn precomputed_reference_yields_identical_report() {
        let n = pipeline();
        let library = lib();
        let design = Desynchronizer::new(&n, &library, DesyncOptions::default())
            .run()
            .unwrap();
        let a = n.find_net("a").unwrap();
        let b = n.find_net("b").unwrap();
        let stim = VectorSource::pseudo_random(vec![a, b], 99);
        let fresh = verify_flow_equivalence(&n, &design, &library, &stim, 16).unwrap();
        // The same check fed a pre-computed sync reference run (what the
        // engine cache serves during sweeps) must reproduce the report
        // bit for bit — including the embedded sync run itself.
        let config = sim_config_for(&design);
        let reference = sync_reference_run(
            &n,
            &library,
            config,
            design.synchronous_period_ps(),
            16,
            &stim,
        )
        .unwrap();
        assert_eq!(reference, fresh.sync_run);
        let cached =
            verify_flow_equivalence_with_reference(&n, &design, &library, &stim, 16, reference)
                .unwrap();
        assert_eq!(fresh, cached);
    }

    #[test]
    fn packed_multi_seed_matches_scalar_verdicts_per_lane() {
        let n = pipeline();
        let library = lib();
        let design = Desynchronizer::new(&n, &library, DesyncOptions::default())
            .run()
            .unwrap();
        let a = n.find_net("a").unwrap();
        let b = n.find_net("b").unwrap();
        let seeds = [3u64, 5, 8, 13];
        let packed = PackedVectorSource::pseudo_random(vec![a, b], &seeds);
        let report = verify_flow_equivalence_packed(&n, &design, &library, &packed, 20).unwrap();
        assert_eq!(report.lanes, seeds.len());
        assert!(report.is_equivalent());
        assert!(report.word_events() > 0);
        assert!(report.lane_events() >= report.word_events());
        let mut sync_lane_events = 0;
        let mut async_lane_events = 0;
        for (lane, &seed) in seeds.iter().enumerate() {
            let stim = VectorSource::pseudo_random(vec![a, b], seed);
            let scalar = verify_flow_equivalence(&n, &design, &library, &stim, 20).unwrap();
            assert_eq!(
                report.lane_equivalence[lane], scalar.equivalence,
                "lane {lane}"
            );
            assert_eq!(report.compared_cycles[lane], scalar.compared_cycles);
            assert!(report.lane_is_equivalent(lane));
            assert!(report.lane_divergence(lane).is_none());
            sync_lane_events += scalar.sync_run.committed_events;
            async_lane_events += scalar.async_run.committed_events;
        }
        // The packed lane-event accounting is exactly what the scalar runs
        // would have committed, while the word-event work is far smaller.
        assert_eq!(report.sync_lane_events, sync_lane_events);
        assert_eq!(report.async_lane_events, async_lane_events);
        assert!(report.sync_word_events <= sync_lane_events);
        assert!(report.async_word_events <= async_lane_events);
    }

    /// A bank of high-transparent latches sampling one shared data input
    /// `d`, each latch with its own enable input `en_<latch>`.
    fn latch_bank(name: &str, latches: &[&str]) -> Netlist {
        let mut n = Netlist::new(name);
        let d = n.add_input("d");
        for &latch in latches {
            let en = n.add_input(format!("en_{latch}"));
            let q = n.add_output(format!("q_{latch}"));
            n.add_latch(latch, d, en, q, true).unwrap();
        }
        n
    }

    /// Runs `bank` with per-lane enable values: in lane `l`, latch `k`
    /// opens for enable pulse `j` when `opens(l, k, j)`, capturing
    /// `data(l, j)`.
    fn run_per_lane_enables(
        bank: &Netlist,
        latches: &[&str],
        lanes: usize,
        opens: impl Fn(usize, usize, usize) -> bool,
        data: impl Fn(usize, usize) -> Value,
    ) -> PackedSimRun {
        const MAX_PULSES: usize = 8;
        let library = lib();
        let d = bank.find_net("d").unwrap();
        let mut inputs = Vec::new();
        for j in 0..MAX_PULSES {
            let base = 1_000.0 + j as f64 * 1_000.0;
            let mut value = PackedValue::splat(Value::Zero);
            for lane in 0..lanes {
                value.set_lane(lane, data(lane, j));
            }
            inputs.push((base - 250.0, d, value));
            for (k, latch) in latches.iter().enumerate() {
                let en = bank.find_net(&format!("en_{latch}")).unwrap();
                let mut open = PackedValue::splat(Value::Zero);
                for lane in (0..lanes).filter(|&lane| opens(lane, k, j)) {
                    open.set_lane(lane, Value::One);
                }
                inputs.push((base, en, open));
                inputs.push((base + 500.0, en, PackedValue::splat(Value::Zero)));
            }
        }
        let mut tb = PackedAsyncTestbench::new(bank, &library, SimConfig::default(), lanes);
        tb.run(12_000.0, MAX_PULSES, &EnableSchedule::new(), &inputs)
    }

    fn pair(register: &str) -> LatchPair {
        LatchPair {
            register: desync_netlist::CellId(0),
            register_name: register.to_string(),
            master: format!("{register}__m"),
            slave: format!("{register}__s"),
            cluster: 0,
        }
    }

    #[test]
    fn packed_compare_with_per_lane_enables_matches_scalar_compare() {
        // Capture records that cover only some lanes (per-lane enables)
        // take the lane-by-lane branch; `r0` covers every lane on both
        // sides and takes the word branch. Streams differ in length per
        // lane and skip records in some lanes (`r2__m`), registers exist on
        // one side only or in some lanes only (`r1` in lane 6), and data
        // disagrees at lane-dependent positions (X included), some of them
        // past a lane's prefix limit.
        let lanes = 7;
        let reference_latches = ["r0", "r1", "r2", "ref_only"];
        let checked_latches = ["r0__m", "r1__m", "r2__m", "chk_only__m"];
        let reference_bank = latch_bank("reference", &reference_latches);
        let checked_bank = latch_bank("checked", &checked_latches);
        let data = |lane: usize, j: usize| match (lane * 7 + j * 3) % 5 {
            0 => Value::X,
            1 | 2 => Value::One,
            _ => Value::Zero,
        };
        let flipped = |lane: usize, j: usize| {
            if (lane % 3 == 1 && j == 2 + lane % 4) || (lane == 0 && j == 4) {
                !data(lane, j)
            } else if lane == 5 && j == 1 {
                Value::X
            } else {
                data(lane, j)
            }
        };
        let reference = run_per_lane_enables(
            &reference_bank,
            &reference_latches,
            lanes,
            |lane, k, j| match k {
                1 => lane != 6 && j < 4 + lane % 3,
                3 => lane % 2 == 1 && j < 7,
                _ => j < 6,
            },
            data,
        );
        let checked = run_per_lane_enables(
            &checked_bank,
            &checked_latches,
            lanes,
            |lane, k, j| match k {
                1 => j < 5,
                2 => j < 3 + lane % 4 && !(lane % 2 == 0 && j == 1),
                3 => lane % 3 == 0,
                _ => j < 6,
            },
            flipped,
        );
        let pairs: Vec<LatchPair> = ["r0", "r1", "r2", "chk_only", "never"]
            .into_iter()
            .map(pair)
            .collect();

        for cycles in [4, 8] {
            let (verdicts, limits) = compare_packed_captures(&reference, &checked, &pairs, cycles);
            assert_eq!(verdicts.len(), lanes);
            for lane in 0..lanes {
                let sync_trace = reference.lane(lane).flow_trace;
                let mut streams = checked.lane(lane).flow_trace;
                let mapped: FlowTrace = pairs
                    .iter()
                    .filter_map(|p| {
                        Some((p.register_name.clone(), streams.take_stream(&p.master)?))
                    })
                    .collect();
                let limit = cycles
                    .min(mapped.min_stream_len())
                    .min(sync_trace.min_stream_len());
                let expected = FlowEquivalence::compare_prefix(&sync_trace, &mapped, limit);
                assert_eq!(limits[lane], limit, "cycles {cycles}, lane {lane}");
                assert_eq!(verdicts[lane], expected, "cycles {cycles}, lane {lane}");
            }
            // The case exercises what it claims to: per-lane limits,
            // per-lane missing registers and mismatches on both branches.
            assert!(limits.iter().any(|&l| l != limits[0]) || cycles == 4);
            assert!(verdicts.iter().any(|v| v.missing_registers.is_empty()));
            assert!(verdicts.iter().any(|v| !v.missing_registers.is_empty()));
            let mismatched = |register: &str| {
                verdicts
                    .iter()
                    .any(|v| v.mismatches.iter().any(|m| m.register == register))
            };
            assert!(mismatched("r0") && mismatched("r1") && mismatched("r2"));
        }
    }

    #[test]
    fn sim_config_matches_timing_options() {
        let n = counter();
        let library = lib();
        let design = Desynchronizer::new(&n, &library, DesyncOptions::default())
            .run()
            .unwrap();
        let cfg = sim_config_for(&design);
        assert_eq!(cfg.latch_d_to_q_ps, design.options().timing.latch_d_to_q_ps);
        assert_eq!(cfg.clk_to_q_ps, design.options().timing.clk_to_q_ps);
    }
}
