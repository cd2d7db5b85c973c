//! The untraced closed loop through the public service API.
//!
//! One submitter thread keeps [`Host::window`] tickets outstanding on a
//! [`ServiceQueue`]; each request is timed from the start of its submission
//! (for `ingest_design`, from the start of `from_edif`) to its resolved
//! ticket. A *pass* submits the workload's whole request stream to a fresh
//! engine, so the store's reuse is what the stream itself produces.

use crate::workload::{Input, Point, Workload};
use crate::Host;
use desync_core::{
    CampaignPointOutcome, DesyncDesign, DesyncEngine, DesyncError, DesyncFlow, DesyncRuntime,
    EngineReport, EquivalenceReport, QueueCampaignRequest, QueueConfig, QueueCounters,
    QueueRequest, QueueSweepRequest, ServiceQueue, SubmitOptions, TicketHandle,
};
use desync_netlist::{from_edif, Netlist};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A resolved request.
#[derive(Debug, Clone)]
pub enum Resolved {
    /// An `ingest_design` request's design.
    Design(Box<DesyncDesign>),
    /// A `verify_sweep` point's report.
    Sweep(EquivalenceReport),
    /// A `campaign` point's outcome.
    Campaign(CampaignPointOutcome),
}

/// A small fingerprint of a resolved request, compared across passes and
/// between the traced and untraced runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Headline numbers of a design.
    Design {
        /// Desynchronized cycle time, as `f64` bits.
        cycle_time: u64,
        /// Synchronous period, as `f64` bits.
        sync_period: u64,
        /// Controller cells.
        controller_cells: usize,
        /// Matched-delay cells.
        delay_cells: usize,
    },
    /// Verdict and work of a scalar point.
    Sweep {
        /// Flow equivalent?
        equivalent: bool,
        /// Captures compared per register.
        compared: usize,
        /// Events of the desynchronized run.
        async_events: usize,
    },
    /// Verdicts and work of a packed point.
    Campaign {
        /// Lanes that stayed flow equivalent.
        equivalent_lanes: usize,
        /// Word events of the desynchronized run.
        async_word_events: usize,
        /// Lane events of the desynchronized run.
        async_lane_events: usize,
    },
}

impl Resolved {
    /// The request's fingerprint.
    pub fn outcome(&self) -> Outcome {
        match self {
            Resolved::Design(d) => {
                let s = d.summary();
                Outcome::Design {
                    cycle_time: s.desync_cycle_time_ps.to_bits(),
                    sync_period: s.sync_period_ps.to_bits(),
                    controller_cells: s.controller_cells,
                    delay_cells: s.matched_delay_cells,
                }
            }
            Resolved::Sweep(r) => Outcome::Sweep {
                equivalent: r.is_equivalent(),
                compared: r.compared_cycles,
                async_events: r.async_run.committed_events,
            },
            Resolved::Campaign(c) => Outcome::Campaign {
                equivalent_lanes: c.report.equivalent_lanes(),
                async_word_events: c.report.async_word_events,
                async_lane_events: c.report.async_lane_events,
            },
        }
    }
}

/// Store and simulation counts of one pass that do not depend on
/// scheduling: event counts, construction-stage / sizing / sync-run /
/// compiled-model misses, and lint hits and misses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts(pub Vec<(&'static str, u64)>);

impl Counts {
    /// The counts of `report` plus the pass's committed events.
    pub fn new(report: &EngineReport, word_events: u64, lane_events: u64) -> Counts {
        let mut counts = vec![
            ("sim.word_events", word_events),
            ("sim.lane_events", lane_events),
        ];
        for (stage, name) in report.stages.iter().zip([
            "stage.clustered.misses",
            "stage.latched.misses",
            "stage.timed.misses",
            "stage.controlled.misses",
        ]) {
            counts.push((name, stage.misses as u64));
        }
        counts.extend([
            ("store.sizing.misses", report.sizing_misses as u64),
            ("store.sync_run.misses", report.sync_run_misses as u64),
            (
                "store.compiled_model.misses",
                report.compiled_model_misses as u64,
            ),
            ("lint.hits", report.lint_hits as u64),
            ("lint.misses", report.lint_misses as u64),
        ]);
        Counts(counts)
    }

    /// Names of the counts that differ between `self` and `other`.
    pub fn differing(&self, other: &Counts) -> Vec<&'static str> {
        self.0
            .iter()
            .zip(&other.0)
            .filter(|(a, b)| a != b)
            .map(|(a, _)| a.0)
            .collect()
    }
}

impl std::fmt::Display for Counts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (name, value)) in self.0.iter().enumerate() {
            write!(f, "{}{name}={value}", if i > 0 { " " } else { "" })?;
        }
        Ok(())
    }
}

/// A fresh engine with the workload's store on `runtime`'s sizing pool.
pub fn engine(workload: &Workload, runtime: &DesyncRuntime) -> Arc<DesyncEngine> {
    Arc::new(DesyncEngine::with_store_and_runtime(
        workload.store,
        runtime.clone(),
    ))
}

/// The queue over `engine`, with the host's queue workers.
pub fn queue(engine: Arc<DesyncEngine>, host: &Host) -> ServiceQueue {
    ServiceQueue::new(engine, QueueConfig::with_workers(host.queue_workers))
}

/// The netlist a request over `input` carries, parsing EDIF text.
pub fn netlist_of(input: &Input) -> Result<Cow<'_, Netlist>, String> {
    match input {
        Input::Edif(text) => from_edif(text)
            .map(Cow::Owned)
            .map_err(|e| format!("EDIF rejected: {e}")),
        Input::Sweep { netlist, .. } | Input::Campaign { netlist, .. } => {
            Ok(Cow::Borrowed(netlist.as_ref()))
        }
    }
}

enum Ticket {
    Design(TicketHandle<DesyncDesign>),
    Sweep(TicketHandle<EquivalenceReport>),
    Campaign(TicketHandle<CampaignPointOutcome>),
}

impl Ticket {
    fn wait(self) -> Result<Resolved, DesyncError> {
        match self {
            Ticket::Design(t) => t.wait().map(|d| Resolved::Design(Box::new(d))),
            Ticket::Sweep(t) => t.wait().map(Resolved::Sweep),
            Ticket::Campaign(t) => t.wait().map(Resolved::Campaign),
        }
    }
}

fn submit(queue: &ServiceQueue, workload: &Workload, point: &Point) -> Result<Ticket, String> {
    let library = Arc::clone(&workload.library);
    let opts = SubmitOptions::new();
    let cycles = workload.cycles();
    Ok(match &workload.designs[point.design].input {
        input @ Input::Edif(_) => {
            let netlist = Arc::new(netlist_of(input)?.into_owned());
            Ticket::Design(queue.submit(QueueRequest::new(netlist, library, point.options), opts))
        }
        Input::Sweep { netlist, stimulus } => Ticket::Sweep(queue.submit_sweep(
            QueueSweepRequest::new(
                Arc::clone(netlist),
                library,
                point.options,
                stimulus.clone(),
                cycles,
            ),
            opts,
        )),
        Input::Campaign { netlist, stimulus } => Ticket::Campaign(queue.submit_campaign(
            QueueCampaignRequest::new(
                Arc::clone(netlist),
                library,
                point.options,
                stimulus.clone(),
                cycles,
            ),
            opts,
        )),
    })
}

/// What one pass through the queue produced.
#[derive(Debug)]
pub struct Pass {
    /// Submit→verdict latency of every resolved request, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// From the first submission to the last resolution.
    pub wall: Duration,
    /// Requests attempted (submitted, or refused at parse).
    pub attempted: usize,
    /// Whether every request of the stream was attempted and resolved.
    pub complete: bool,
    /// Requests that resolved to an error, with the first message.
    pub errors: usize,
    /// First error message, if any.
    pub first_error: Option<String>,
    /// Requests whose fingerprint differs from the reference pass.
    pub mismatches: usize,
    /// Fingerprint per request index (`None` when not resolved).
    pub outcomes: Vec<Option<Outcome>>,
    /// Full results at the probe indices.
    pub probes: Vec<(usize, Resolved)>,
    /// Scheduling-independent counts.
    pub counts: Counts,
    /// The queue's counters after the pass.
    pub queue: QueueCounters,
    /// Word events committed per queue worker.
    pub worker_events: Vec<usize>,
}

/// Runs one closed-loop pass of `workload` on `queue`, stopping new
/// submissions at `deadline`. Results at `probe` indices are kept whole;
/// every fingerprint is checked against `reference` when given.
pub fn run_pass(
    workload: &Workload,
    host: &Host,
    queue: &ServiceQueue,
    deadline: Instant,
    probe: &[usize],
    reference: Option<&[Option<Outcome>]>,
) -> Pass {
    let n = workload.points.len();
    let mut pass = Pass {
        latencies_ms: Vec::with_capacity(n),
        wall: Duration::ZERO,
        attempted: 0,
        complete: false,
        errors: 0,
        first_error: None,
        mismatches: 0,
        outcomes: vec![None; n],
        probes: Vec::new(),
        counts: Counts(Vec::new()),
        queue: QueueCounters::default(),
        worker_events: Vec::new(),
    };
    let mut lane_events = 0u64;
    let mut window: VecDeque<(usize, Instant, Ticket)> = VecDeque::with_capacity(host.window);
    let started = Instant::now();
    let mut next = 0;
    loop {
        while window.len() < host.window && next < n && Instant::now() < deadline {
            let t0 = Instant::now();
            match submit(queue, workload, &workload.points[next]) {
                Ok(ticket) => window.push_back((next, t0, ticket)),
                Err(e) => {
                    pass.errors += 1;
                    pass.first_error.get_or_insert(e);
                }
            }
            next += 1;
        }
        // The one queue worker runs one tenant's requests in submission
        // order, so waiting on the oldest ticket first observes each
        // resolution when it happens.
        let Some((index, t0, ticket)) = window.pop_front() else {
            break;
        };
        let result = ticket.wait();
        pass.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(resolved) => {
                if let Resolved::Campaign(c) = &resolved {
                    lane_events += c.lane_events as u64;
                }
                let outcome = resolved.outcome();
                if reference.is_some_and(|r| r[index] != Some(outcome)) {
                    pass.mismatches += 1;
                }
                pass.outcomes[index] = Some(outcome);
                if probe.contains(&index) {
                    pass.probes.push((index, resolved));
                }
            }
            Err(e) => {
                pass.errors += 1;
                pass.first_error.get_or_insert(e.to_string());
            }
        }
    }
    pass.wall = started.elapsed();
    pass.attempted = next;
    pass.complete = next == n;
    pass.queue = queue.counters();
    pass.worker_events = queue.worker_events();
    let word_events: u64 = pass.worker_events.iter().map(|&e| e as u64).sum();
    if lane_events == 0 {
        // Scalar points carry one lane per word.
        lane_events = word_events;
    }
    pass.counts = Counts::new(&queue.engine().report(), word_events, lane_events);
    pass
}

/// The paper's Table 1 quality figures over the workload's distinct
/// (design, options) points, read from `engine` after the timed window:
/// the mean desynchronized cycle time over the synchronous period, and
/// (controller + matched-delay cells) per flip-flop.
pub fn quality(workload: &Workload, engine: &DesyncEngine) -> Result<(f64, f64), String> {
    let mut ratio_sum = 0.0;
    let (mut overhead_cells, mut flip_flops) = (0usize, 0usize);
    for point in &workload.points {
        let netlist = netlist_of(&workload.designs[point.design].input)?;
        let summary = engine
            .flow(&netlist, &workload.library, point.options)
            .and_then(|mut flow| flow.design())
            .map_err(|e| e.to_string())?
            .summary();
        ratio_sum += summary.desync_cycle_time_ps / summary.sync_period_ps;
        overhead_cells += summary.controller_cells + summary.matched_delay_cells;
        flip_flops += summary.flip_flops;
    }
    let points = workload.points.len() as f64;
    Ok((
        ratio_sum / points,
        overhead_cells as f64 / flip_flops as f64,
    ))
}

/// Lanes of a campaign probe checked against single-seed scalar flows.
const PROBE_LANES: [usize; 3] = [0, 31, 63];

/// Checks each probed result bit for bit against a detached, cache-less
/// [`DesyncFlow`]; campaign probes are also checked lane by lane against
/// single-seed scalar flows. Returns the requests that differ.
pub fn check_probes(workload: &Workload, probes: &[(usize, Resolved)]) -> Vec<String> {
    let mut bad = Vec::new();
    for (index, resolved) in probes {
        let point = &workload.points[*index];
        let input = &workload.designs[point.design].input;
        if let Err(e) = check_probe(workload, point, input, resolved) {
            bad.push(format!("request {index}: {e}"));
        }
    }
    bad
}

fn check_probe(
    workload: &Workload,
    point: &Point,
    input: &Input,
    resolved: &Resolved,
) -> Result<(), String> {
    let netlist = netlist_of(input)?;
    let fresh = || DesyncFlow::new(&netlist, &workload.library, point.options);
    let cycles = workload.cycles();
    let same = match (resolved, input) {
        (Resolved::Design(design), Input::Edif(_)) => {
            fresh().and_then(|mut f| f.design()).map(|d| d == **design)
        }
        (Resolved::Sweep(report), Input::Sweep { stimulus, .. }) => fresh().and_then(|mut f| {
            f.set_verification(stimulus.clone(), cycles);
            f.verified().map(|r| r == report)
        }),
        (Resolved::Campaign(outcome), Input::Campaign { stimulus, .. }) => {
            let packed = fresh().and_then(|mut f| f.verify_packed(stimulus, cycles));
            let mut same = packed.map(|r| r == outcome.report);
            for lane in PROBE_LANES {
                same = same.and_then(|ok| {
                    let mut f = fresh()?;
                    f.set_verification(stimulus.lane(lane).clone(), cycles);
                    let scalar = f.verified()?;
                    Ok(ok
                        && outcome.report.lane_equivalence[lane] == scalar.equivalence
                        && outcome.report.compared_cycles[lane] == scalar.compared_cycles)
                });
            }
            same
        }
        _ => return Err("result does not match the request kind".to_string()),
    };
    match same {
        Ok(true) => Ok(()),
        Ok(false) => Err("differs from a detached cache-less flow".to_string()),
        Err(e) => Err(format!("detached flow failed: {e}")),
    }
}
