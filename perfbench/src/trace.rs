//! The traced replay: the workload's request stream driven through
//! [`DesyncEngine::flow`] on the benchmark's side, with one span around
//! each public call.
//!
//! Spans carry the request id, name, start, end and parent. They are kept
//! in memory, reduced to per-layer self times when the run ends and then
//! written out. With an allocation counter, each span also records the
//! allocations made while it was open (on any thread — the replay is
//! serial, so the sizing pool only ever works for the open span).

use crate::drive::{netlist_of, Counts, Outcome, Resolved};
use crate::workload::{Input, Point, Workload};
use crate::AllocCounter;
use desync_core::{CampaignPointOutcome, DesyncEngine, DesyncFlow};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Request the span belongs to.
    pub request: u32,
    /// Layer name.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Allocations made while the span was open.
    pub allocs: u64,
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    alloc: Option<AllocCounter>,
    /// Every span so far, in opening order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer; `alloc` reads the process's allocation count.
    pub fn new(alloc: Option<AllocCounter>) -> Self {
        Tracer {
            origin: Instant::now(),
            alloc,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn allocs(&self) -> u64 {
        self.alloc.map_or(0, |count| count())
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, request: u32, parent: Option<usize>, name: &'static str) -> usize {
        let allocs = self.allocs();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            allocs,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        let allocs = self.allocs();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
    }

    /// Runs `f` inside a span named `name`.
    pub fn timed<T>(
        &mut self,
        request: u32,
        parent: usize,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(request, Some(parent), name);
        let result = f();
        self.close(id);
        result
    }

    /// The spans as tab-separated text, one per line, with a header.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("request\tname\tparent\tstart_ns\tend_ns\tallocs\n");
        for s in &self.spans {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{parent}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns, s.allocs
            );
        }
        out
    }
}

/// Self time and self allocations of every span: its own figure minus the
/// part its children cover (the union of their intervals, clipped to the
/// span) and minus its children's allocations.
pub fn self_costs(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let child_allocs: u64 = kids.iter().map(|&k| spans[k].allocs).sum();
            (
                span.end_ns - span.start_ns - covered,
                span.allocs.saturating_sub(child_allocs),
            )
        })
        .collect()
}

/// Summed self time (ns), self allocations and span count per layer name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, usize)> {
    let mut layers = BTreeMap::new();
    for (span, (time, allocs)) in spans.iter().zip(self_costs(spans)) {
        let e = layers.entry(span.name).or_insert((0, 0, 0));
        e.0 += time;
        e.1 += allocs;
        e.2 += 1;
    }
    layers
}

/// What one traced pass produced.
#[derive(Debug)]
pub struct ReplayPass {
    /// Requests replayed.
    pub requests: usize,
    /// Whether the whole stream was replayed.
    pub complete: bool,
    /// Requests that failed, with the first message.
    pub errors: usize,
    /// First error message, if any.
    pub first_error: Option<String>,
    /// Requests whose fingerprint differs from the untraced pass.
    pub mismatches: usize,
    /// Scheduling-independent counts.
    pub counts: Counts,
}

/// Replays `workload`'s stream once on `engine`, stopping at `deadline`.
/// Request ids continue from `first_id`.
pub fn replay_pass(
    workload: &Workload,
    engine: &DesyncEngine,
    tracer: &mut Tracer,
    first_id: u32,
    deadline: Instant,
    reference: &[Option<Outcome>],
) -> ReplayPass {
    let mut pass = ReplayPass {
        requests: 0,
        complete: false,
        errors: 0,
        first_error: None,
        mismatches: 0,
        counts: Counts(Vec::new()),
    };
    let (mut word_events, mut lane_events) = (0u64, 0u64);
    for (index, point) in workload.points.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let id = first_id + index as u32;
        let root = tracer.open(id, None, "request");
        let result = replay_one(workload, engine, tracer, id, root, point);
        tracer.close(root);
        pass.requests += 1;
        match result {
            Ok((resolved, words, lanes)) => {
                word_events += words;
                lane_events += lanes;
                if reference[index] != Some(resolved.outcome()) {
                    pass.mismatches += 1;
                }
            }
            Err(e) => {
                pass.errors += 1;
                pass.first_error.get_or_insert(e);
            }
        }
    }
    pass.complete = pass.requests == workload.points.len();
    pass.counts = Counts::new(&engine.report(), word_events, lane_events);
    pass
}

/// One request: the calls a queue worker makes, each in its own span.
/// Returns the result plus the word and lane events it simulated (a cached
/// sync reference counts zero, as in the queue's own accounting).
fn replay_one(
    workload: &Workload,
    engine: &DesyncEngine,
    t: &mut Tracer,
    id: u32,
    root: usize,
    point: &Point,
) -> Result<(Resolved, u64, u64), String> {
    let input = &workload.designs[point.design].input;
    let netlist = match input {
        Input::Edif(_) => t.timed(id, root, "netlist.parse", || netlist_of(input))?,
        _ => netlist_of(input)?,
    };
    let e = |e: desync_core::DesyncError| e.to_string();
    let mut flow: DesyncFlow<'_> = engine
        .flow(&netlist, &workload.library, point.options)
        .map_err(e)?;
    let lint = t.timed(id, root, "lint", || flow.lint()).map_err(e)?;
    if !lint.is_clean() {
        return Err(format!(
            "lint rejected {}",
            workload.designs[point.design].name
        ));
    }
    t.timed(id, root, "stage.clustered", || flow.clustered().map(|_| ()))
        .map_err(e)?;
    t.timed(id, root, "stage.latched", || flow.latched().map(|_| ()))
        .map_err(e)?;
    t.timed(id, root, "stage.timed", || flow.timed().map(|_| ()))
        .map_err(e)?;
    t.timed(id, root, "stage.controlled", || {
        flow.controlled().map(|_| ())
    })
    .map_err(e)?;
    let cycles = workload.cycles();
    match input {
        Input::Edif(_) => {
            let design = t
                .timed(id, root, "flow.design", || flow.design())
                .map_err(e)?;
            Ok((Resolved::Design(Box::new(design)), 0, 0))
        }
        Input::Sweep { stimulus, .. } => {
            flow.set_verification(stimulus.clone(), cycles);
            let report = t
                .timed(id, root, "stage.verified", || flow.verified().cloned())
                .map_err(e)?;
            let mut events = report.async_run.committed_events as u64;
            if flow.sync_run_cache_hits() == 0 {
                events += report.sync_run.committed_events as u64;
            }
            Ok((Resolved::Sweep(report), events, events))
        }
        Input::Campaign { stimulus, .. } => {
            let report = t
                .timed(id, root, "stage.verified", || {
                    flow.verify_packed(stimulus, cycles)
                })
                .map_err(e)?;
            let (mut words, mut lanes) = (report.async_word_events, report.async_lane_events);
            if flow.sync_run_cache_hits() == 0 {
                words += report.sync_word_events;
                lanes += report.sync_lane_events;
            }
            let outcome = CampaignPointOutcome {
                report,
                lane_events: lanes,
            };
            Ok((Resolved::Campaign(outcome), words as u64, lanes as u64))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64, allocs: u64) -> Span {
        Span {
            request: 0,
            name,
            parent,
            start_ns: start,
            end_ns: end,
            allocs,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", None, 0, 100, 50),
            span("a", Some(0), 10, 40, 20),
            span("b", Some(0), 30, 60, 5),
            span("c", Some(2), 35, 45, 1),
        ];
        let costs = self_costs(&spans);
        // Children a and b overlap on 30..40: they cover 10..60.
        assert_eq!(costs[0], (50, 25));
        assert_eq!(costs[1], (30, 20));
        assert_eq!(costs[2], (20, 4));
        assert_eq!(costs[3], (10, 1));
        let layers = by_layer(&spans);
        assert_eq!(layers["request"], (50, 25, 1));
    }

    #[test]
    fn tracer_records_nested_spans() {
        let mut t = Tracer::new(None);
        let root = t.open(7, None, "request");
        let x = t.timed(7, root, "lint", || 3);
        t.close(root);
        assert_eq!(x, 3);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert!(t
            .to_tsv()
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("7\tlint\t0\t"));
    }
}
