//! The repository's benchmark: seeded workloads driven through the
//! desynchronization service, with end-to-end metrics from untraced runs
//! and per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench        --workload <name> --seed <n> --seconds <s> --trace 0
//! perfbench-traced --workload <name> --seed <n> --seconds <s> --trace 1
//! ```
//!
//! `run.sh` builds both binaries and picks one by `--trace`. The last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it state the host
//! and configuration and every figure in readable form. See `README.md`
//! for the workloads, the metrics and which layer metric should move which
//! end-to-end metric.

pub mod drive;
pub mod stats;
pub mod trace;
pub mod workload;

use desync_core::{DesyncEngine, DesyncRuntime};
use drive::{Counts, Pass};
use stats::{median, percentile, ratio, result_line, tail, Metric};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Kind, Workload};

/// Reads the process's allocation count (the traced binary's counting
/// allocator).
pub type AllocCounter = fn() -> u64;

/// Seed used when none is given. Seed 20041 is held out: use it only to
/// confirm a claim made on other seeds.
pub const DEFAULT_SEED: u64 = 1;

/// Requests a run must resolve, so that ten samples lie beyond p90.
pub const MIN_REQUESTS: usize = 100;

/// Set-ups before the timed window. Every pass repeats the set-up once
/// more, so `setup_s`, their median, samples the whole run.
pub const SETUP_REPEATS: usize = 5;

/// Outstanding tickets the submitter keeps: one running, one queued, so
/// the worker never idles while latency stays close to service time. A
/// wider window turns latency into the sum of the requests ahead, and the
/// p90 then sits on the cliff a heavy design (the DLX) casts over the
/// requests queued behind it. The queue therefore never holds more than
/// one waiting request: head-of-line blocking is outside the p90.
pub const WINDOW: usize = 2;

/// End-to-end metrics: name, unit, better. Printed by untraced runs.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("throughput_rps", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("cycle_time_ratio", "ratio", "lower"),
    ("overhead_cells_per_ff", "cells/ff", "lower"),
];

/// Per-layer metrics: name, unit, better. Printed by traced runs.
pub const PER_LAYER: [(&str, &str, &str); 44] = [
    ("netlist.parse.self_ms", "ms", "lower"),
    ("netlist.cells", "count", "lower"),
    ("lint.self_ms", "ms", "lower"),
    ("lint.hits", "count", "higher"),
    ("lint.misses", "count", "lower"),
    ("stage.clustered.self_ms", "ms", "lower"),
    ("stage.latched.self_ms", "ms", "lower"),
    ("stage.timed.self_ms", "ms", "lower"),
    ("stage.controlled.self_ms", "ms", "lower"),
    ("stage.verified.self_ms", "ms", "lower"),
    ("flow.design.self_ms", "ms", "lower"),
    ("request.self_ms", "ms", "lower"),
    ("stage.clustered.hits", "count", "higher"),
    ("stage.clustered.misses", "count", "lower"),
    ("stage.latched.hits", "count", "higher"),
    ("stage.latched.misses", "count", "lower"),
    ("stage.timed.hits", "count", "higher"),
    ("stage.timed.misses", "count", "lower"),
    ("stage.controlled.hits", "count", "higher"),
    ("stage.controlled.misses", "count", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.coalesced", "count", "higher"),
    ("store.evictions", "count", "lower"),
    ("store.resident_weight", "weight", "lower"),
    ("store.sync_run.hits", "count", "higher"),
    ("store.sync_run.misses", "count", "lower"),
    ("store.compiled_model.hits", "count", "higher"),
    ("store.compiled_model.misses", "count", "lower"),
    ("store.sizing.hits", "count", "higher"),
    ("store.sizing.misses", "count", "lower"),
    ("sim.word_events", "count", "lower"),
    ("sim.lane_events", "count", "higher"),
    ("sim.live_lanes_per_word", "lanes", "higher"),
    ("sim.word_events_per_s", "1/s", "higher"),
    ("submit.wait_ticks_mean", "ticks", "lower"),
    ("submit.max_wait_ticks", "ticks", "lower"),
    ("submit.high_water", "count", "lower"),
    ("submit.worker_events_spread", "ratio", "lower"),
    ("alloc.per_request", "count", "lower"),
    ("alloc.verified_per_kevent", "count", "lower"),
    ("trace.request_ms", "ms", "lower"),
    ("trace.queue_request_ms", "ms", "lower"),
    ("trace.queue_latency_ms", "ms", "lower"),
    ("selfcheck.unstable_counts", "count", "lower"),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub kind: Kind,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: Duration,
    /// Traced (per-layer) rather than untraced (end-to-end) run.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: perfbench --workload <ingest_design|verify_sweep|campaign> \
                         [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\
                         default seed 1; seed 20041 is held out for confirming claims";

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("`--workload` is required")?,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// Host and configuration of a run. Every wall-clock figure is reported
/// beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Cores the process may use.
    pub nproc: usize,
    /// Queue worker threads.
    pub queue_workers: usize,
    /// Sizing-pool worker threads.
    pub sizing_workers: usize,
    /// Outstanding tickets the submitter keeps.
    pub window: usize,
    /// Build profile of the benchmark binary.
    pub profile: &'static str,
}

impl Host {
    /// One queue worker and a one-thread sizing pool: two compute threads.
    /// The window holds at most two requests, so a second queue worker
    /// would only start the queued one early, and the submitter, waiting
    /// on the oldest ticket, would then time a fast request when it
    /// reaches it rather than when it resolves.
    pub fn detect() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_workers: 1,
            sizing_workers: 1,
            window: WINDOW,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// The process's peak resident set (`VmHWM`), megabytes.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One timed set-up: generates the workload's designs, EDIF text and
/// stimuli, and builds a fresh engine on `runtime`. Starting threads (the
/// sizing pool, the queue's worker) is left out: its cost is the
/// scheduler's, not the benchmark's, and swings from run to run.
fn set_up(args: &Args, runtime: &DesyncRuntime) -> (Workload, Arc<DesyncEngine>, f64) {
    let started = Instant::now();
    let workload = Workload::generate(args.kind, args.seed);
    let engine = drive::engine(&workload, runtime);
    (workload, engine, started.elapsed().as_secs_f64())
}

/// Set-up times of a run, checking every set-up generated the same inputs.
#[derive(Debug, Default)]
struct SetUps {
    seconds: Vec<f64>,
    digest: Option<u64>,
}

impl SetUps {
    fn record(&mut self, workload: &Workload, seconds: f64) -> Result<(), String> {
        let digest = *self.digest.get_or_insert_with(|| workload.digest());
        if digest != workload.digest() {
            return Err("workload generation is not deterministic".to_string());
        }
        self.seconds.push(seconds);
        Ok(())
    }
}

/// Request indices whose results are checked against detached flows: one
/// request per design, drawn by the seed. Every design is probed so that
/// the results a run holds for the check weigh the same whatever the seed.
fn probe_indices(workload: &Workload) -> Vec<usize> {
    let mut rng = workload::SplitMix::new(workload.seed ^ 0x0070_726f_6265);
    (0..workload.designs.len())
        .map(|design| {
            let of_design: Vec<usize> = (0..workload.points.len())
                .filter(|&i| workload.points[i].design == design)
                .collect();
            of_design[rng.below(of_design.len())]
        })
        .collect()
}

/// Tallies of one run.
#[derive(Debug, Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, count: usize, note: String) {
        self.failed += count;
        self.notes.push(note);
    }

    fn take_pass(&mut self, label: &str, errors: usize, mismatches: usize, first: Option<&str>) {
        if errors > 0 {
            self.fail(
                errors,
                format!(
                    "{label}: {errors} request(s) failed, first: {}",
                    first.unwrap_or("?")
                ),
            );
        }
        if mismatches > 0 {
            self.fail(
                mismatches,
                format!("{label}: {mismatches} result(s) differ from the first pass"),
            );
        }
    }
}

/// Names of counts that are not identical across `counts`, with a line
/// describing the check.
fn self_check(label: &str, counts: &[&Counts]) -> (Vec<&'static str>, String) {
    let mut unstable: Vec<&'static str> = Vec::new();
    for c in counts.iter().skip(1) {
        for name in counts[0].differing(c) {
            if !unstable.contains(&name) {
                unstable.push(name);
            }
        }
    }
    let line = if unstable.is_empty() {
        format!(
            "count self-check ({label}, {} pass(es)): every count identical",
            counts.len()
        )
    } else {
        format!(
            "count self-check ({label}, {} pass(es)): NOT identical: {}",
            counts.len(),
            unstable.join(", ")
        )
    };
    (unstable, line)
}

/// Entry point of both binaries. `alloc` is the traced binary's
/// allocation counter; the untraced binary passes `None` and serves only
/// `--trace 0`, so untraced runs never pay for counting.
pub fn main(alloc: Option<AllocCounter>) -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace != alloc.is_some() {
        eprintln!(
            "perfbench: --trace {} runs on `{}` (run.sh picks it)",
            u8::from(args.trace),
            if args.trace {
                "perfbench-traced"
            } else {
                "perfbench"
            }
        );
        return ExitCode::from(2);
    }
    let host = Host::detect();
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={} queue_workers={} \
         sizing_workers={} window={} profile={}",
        args.kind.name(),
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        host.nproc,
        host.queue_workers,
        host.sizing_workers,
        host.window,
        host.profile
    );
    let outcome = if args.trace {
        traced(&args, &host, alloc)
    } else {
        untraced(&args, &host)
    };
    match outcome {
        Ok((tally, metrics)) => {
            for note in &tally.notes {
                println!("FAILED: {note}");
            }
            let correct = tally.failed == 0;
            println!(
                "{}",
                result_line(correct, tally.attempted, tally.failed, &metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn metric(name: &'static str, value: f64) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
    Metric { name, value, unit }
}

/// Closed-loop passes until the window closes; the end-to-end metrics.
/// Each pass is set up afresh (timed, outside the pass's wall time) and
/// runs on the sizing runtime that lives for the whole run, as in a
/// long-lived service.
fn untraced(args: &Args, host: &Host) -> Result<(Tally, Vec<Metric>), String> {
    let runtime = DesyncRuntime::with_workers(host.sizing_workers);
    let mut setups = SetUps::default();
    let mut generated = None;
    for _ in 0..SETUP_REPEATS {
        let (workload, _, seconds) = set_up(args, &runtime);
        setups.record(&workload, seconds)?;
        generated = Some(workload);
    }
    let workload = generated.expect("at least one set-up");
    let probes = probe_indices(&workload);
    let mut tally = Tally::default();
    let deadline = Instant::now() + args.seconds;
    let mut first: Option<Pass> = None;
    let mut engine = None;
    let mut complete_counts: Vec<Counts> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut wall = Duration::ZERO;
    let mut passes = 0;
    while Instant::now() < deadline {
        // Free the previous pass's store before the next one fills.
        drop(engine.take());
        let (again, fresh, seconds) = set_up(args, &runtime);
        setups.record(&again, seconds)?;
        drop(again);
        let queue = drive::queue(fresh, host);
        let reference = first.as_ref().map(|p| p.outcomes.as_slice());
        let probe = if first.is_none() { &probes[..] } else { &[] };
        let pass = drive::run_pass(&workload, host, &queue, deadline, probe, reference);
        engine = Some(Arc::clone(queue.engine()));
        drop(queue);
        passes += 1;
        tally.attempted += pass.attempted;
        tally.take_pass(
            &format!("pass {passes}"),
            pass.errors,
            pass.mismatches,
            pass.first_error.as_deref(),
        );
        latencies.extend_from_slice(&pass.latencies_ms);
        wall += pass.wall;
        if pass.complete {
            complete_counts.push(pass.counts.clone());
        }
        first.get_or_insert(pass);
    }
    let peak_rss = peak_rss_mb()?;
    let first = first.ok_or("the timed window closed before the first pass")?;
    if !first.complete {
        return Err("the first pass did not complete in the timed window".to_string());
    }
    if latencies.len() < MIN_REQUESTS {
        return Err(format!(
            "only {} request(s) resolved; a run needs {MIN_REQUESTS}",
            latencies.len()
        ));
    }
    let engine = engine.expect("one pass ran");
    let (cycle_ratio, overhead) = drive::quality(&workload, &engine)?;
    let bad = drive::check_probes(&workload, &first.probes);
    if !bad.is_empty() {
        tally.fail(bad.len(), format!("probe check: {}", bad.join("; ")));
    }
    let refs: Vec<&Counts> = complete_counts.iter().collect();
    let (_, check_line) = self_check("untraced passes", &refs);
    let setup_s = median(&setups.seconds).expect("set-up times");

    let throughput = latencies.len() as f64 / wall.as_secs_f64();
    let p50 = median(&latencies).expect("latencies");
    let p90 = percentile(&latencies, 0.9).expect("at least 100 latencies");
    let tail = tail(&latencies).expect("at least 100 latencies");
    println!(
        "setup: {} design(s), {} request(s) per pass, median of {} set-ups {:.3} ms",
        workload.designs.len(),
        workload.points.len(),
        setups.seconds.len(),
        setup_s * 1e3
    );
    println!(
        "passes: {passes} ({} complete), {} request(s) resolved in {:.3} s of pass wall time on {} core(s)",
        complete_counts.len(),
        latencies.len(),
        wall.as_secs_f64(),
        host.nproc
    );
    println!(
        "latency: p50 {p50:.3} ms, p90 {p90:.3} ms over {} samples; tail p{} {:.3} ms with {} samples beyond",
        latencies.len(),
        tail.percentile * 100.0,
        tail.value,
        tail.beyond
    );
    println!(
        "probes: {} request(s) checked against detached cache-less flows, {} mismatch(es)",
        first.probes.len(),
        bad.len()
    );
    println!("counts (first pass): {}", first.counts);
    println!("{check_line}");
    let failed_fraction = tally.failed as f64 / tally.attempted.max(1) as f64;
    let metrics = vec![
        metric("throughput_rps", throughput),
        metric("latency_p50_ms", p50),
        metric("latency_p90_ms", p90),
        metric("setup_s", setup_s),
        metric("peak_rss_mb", peak_rss),
        metric("cycle_time_ratio", cycle_ratio),
        metric("overhead_cells_per_ff", overhead),
    ];
    for m in &metrics {
        println!("  {:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<24} {:>16.6} fraction",
        "failed_fraction", failed_fraction
    );
    Ok((tally, metrics))
}

/// One untraced pass for the queue's figures, then traced replays until
/// the window closes; the per-layer metrics.
fn traced(
    args: &Args,
    host: &Host,
    alloc: Option<AllocCounter>,
) -> Result<(Tally, Vec<Metric>), String> {
    let runtime = DesyncRuntime::with_workers(host.sizing_workers);
    let (workload, engine, setup_s) = set_up(args, &runtime);
    println!(
        "setup: {} design(s), {} request(s) per pass, set-up {:.3} ms",
        workload.designs.len(),
        workload.points.len(),
        setup_s * 1e3
    );
    let mut tally = Tally::default();
    let far = Instant::now() + Duration::from_secs(3600);
    let deadline = Instant::now() + args.seconds;
    let queued = drive::run_pass(
        &workload,
        host,
        &drive::queue(engine, host),
        far,
        &probe_indices(&workload),
        None,
    );
    tally.attempted += queued.attempted;
    tally.take_pass(
        "queue pass",
        queued.errors,
        0,
        queued.first_error.as_deref(),
    );
    let bad = drive::check_probes(&workload, &queued.probes);
    if !bad.is_empty() {
        tally.fail(bad.len(), format!("probe check: {}", bad.join("; ")));
    }

    let mut tracer = Tracer::new(alloc);
    let mut replays: Vec<trace::ReplayPass> = Vec::new();
    let mut first_report = None;
    let mut requests = 0u32;
    loop {
        let engine = drive::engine(&workload, &runtime);
        let pass = trace::replay_pass(
            &workload,
            &engine,
            &mut tracer,
            requests,
            deadline,
            &queued.outcomes,
        );
        requests += pass.requests as u32;
        tally.attempted += pass.requests;
        tally.take_pass(
            &format!("traced pass {}", replays.len() + 1),
            pass.errors,
            pass.mismatches,
            pass.first_error.as_deref(),
        );
        first_report.get_or_insert_with(|| engine.report());
        let done = !pass.complete || Instant::now() >= deadline;
        replays.push(pass);
        if done {
            break;
        }
    }
    let first = &replays[0];
    if !first.complete {
        return Err("the first traced pass did not complete in the timed window".to_string());
    }
    let report = first_report.expect("one traced pass");
    let mut counts: Vec<&Counts> = vec![&queued.counts];
    counts.extend(replays.iter().filter(|p| p.complete).map(|p| &p.counts));
    let (unstable, check_line) = self_check("untraced pass vs traced passes", &counts);

    let layers = trace::by_layer(&tracer.spans);
    let traced_requests = requests.max(1) as f64;
    let self_ms = |name: &str| layers.get(name).map_or(0.0, |l| l.0 as f64 / 1e6) / traced_requests;
    let verified_s = layers
        .get("stage.verified")
        .map_or(0.0, |l| l.0 as f64 / 1e9);
    let verified_allocs = layers.get("stage.verified").map_or(0, |l| l.1) as f64;
    let root = layers.get("request").copied().unwrap_or_default();
    let total_allocs: u64 = tracer
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.allocs)
        .sum();
    let total_request_ns: u64 = tracer
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let count = |name: &str| {
        first
            .counts
            .0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let all_word_events: u64 = replays
        .iter()
        .flat_map(|p| &p.counts.0)
        .filter(|(n, _)| *n == "sim.word_events")
        .map(|(_, v)| v)
        .sum();
    let stage = |i: usize| report.stages[i];
    let kinds_hits = report.stages.iter().map(|s| s.hits).sum::<usize>()
        + report.sync_run_hits
        + report.compiled_model_hits
        + report.sizing_hits
        + report.lint_hits;
    let kinds_misses = report.stages.iter().map(|s| s.misses).sum::<usize>()
        + report.sync_run_misses
        + report.compiled_model_misses
        + report.sizing_misses
        + report.lint_misses;
    let q = &queued.queue;
    let dispatched: usize = q.tenants.iter().map(|t| t.dispatched).sum();
    let wait_ticks: u64 = q.tenants.iter().map(|t| t.wait_ticks).sum();
    let max_wait = q
        .tenants
        .iter()
        .map(|t| t.max_wait_ticks)
        .max()
        .unwrap_or(0);
    let spread = {
        let max = queued.worker_events.iter().copied().max().unwrap_or(0) as f64;
        let min = queued.worker_events.iter().copied().min().unwrap_or(0) as f64;
        ratio(max, min)
    };
    let cells: f64 = workload
        .points
        .iter()
        .map(|p| workload.designs[p.design].cells as f64)
        .sum::<f64>()
        / workload.points.len() as f64;
    let queue_mean_latency =
        queued.latencies_ms.iter().sum::<f64>() / queued.latencies_ms.len().max(1) as f64;

    let metrics = vec![
        metric("netlist.parse.self_ms", self_ms("netlist.parse")),
        metric("netlist.cells", cells),
        metric("lint.self_ms", self_ms("lint")),
        metric("lint.hits", report.lint_hits as f64),
        metric("lint.misses", report.lint_misses as f64),
        metric("stage.clustered.self_ms", self_ms("stage.clustered")),
        metric("stage.latched.self_ms", self_ms("stage.latched")),
        metric("stage.timed.self_ms", self_ms("stage.timed")),
        metric("stage.controlled.self_ms", self_ms("stage.controlled")),
        metric("stage.verified.self_ms", self_ms("stage.verified")),
        metric("flow.design.self_ms", self_ms("flow.design")),
        metric("request.self_ms", root.0 as f64 / 1e6 / traced_requests),
        metric("stage.clustered.hits", stage(0).hits as f64),
        metric("stage.clustered.misses", stage(0).misses as f64),
        metric("stage.latched.hits", stage(1).hits as f64),
        metric("stage.latched.misses", stage(1).misses as f64),
        metric("stage.timed.hits", stage(2).hits as f64),
        metric("stage.timed.misses", stage(2).misses as f64),
        metric("stage.controlled.hits", stage(3).hits as f64),
        metric("stage.controlled.misses", stage(3).misses as f64),
        metric(
            "store.hit_ratio",
            ratio(kinds_hits as f64, (kinds_hits + kinds_misses) as f64),
        ),
        metric("store.coalesced", report.store_coalesced as f64),
        metric("store.evictions", report.total_evictions() as f64),
        metric("store.resident_weight", report.resident_weight as f64),
        metric("store.sync_run.hits", report.sync_run_hits as f64),
        metric("store.sync_run.misses", report.sync_run_misses as f64),
        metric(
            "store.compiled_model.hits",
            report.compiled_model_hits as f64,
        ),
        metric(
            "store.compiled_model.misses",
            report.compiled_model_misses as f64,
        ),
        metric("store.sizing.hits", report.sizing_hits as f64),
        metric("store.sizing.misses", report.sizing_misses as f64),
        metric("sim.word_events", count("sim.word_events")),
        metric("sim.lane_events", count("sim.lane_events")),
        metric(
            "sim.live_lanes_per_word",
            ratio(count("sim.lane_events"), count("sim.word_events")),
        ),
        metric(
            "sim.word_events_per_s",
            ratio(all_word_events as f64, verified_s),
        ),
        metric(
            "submit.wait_ticks_mean",
            ratio(wait_ticks as f64, dispatched as f64),
        ),
        metric("submit.max_wait_ticks", max_wait as f64),
        metric("submit.high_water", q.high_water as f64),
        metric("submit.worker_events_spread", spread),
        metric("alloc.per_request", total_allocs as f64 / traced_requests),
        metric(
            "alloc.verified_per_kevent",
            ratio(verified_allocs, all_word_events as f64 / 1e3),
        ),
        metric(
            "trace.request_ms",
            total_request_ns as f64 / 1e6 / traced_requests,
        ),
        metric(
            "trace.queue_request_ms",
            queued.wall.as_secs_f64() * 1e3 / queued.latencies_ms.len().max(1) as f64,
        ),
        metric("trace.queue_latency_ms", queue_mean_latency),
        metric("selfcheck.unstable_counts", unstable.len() as f64),
    ];
    println!(
        "traced: {} request(s) over {} pass(es) on {} core(s); untraced queue pass {} request(s) in {:.3} s",
        requests,
        replays.len(),
        host.nproc,
        queued.latencies_ms.len(),
        queued.wall.as_secs_f64()
    );
    println!("counts (untraced pass): {}", queued.counts);
    println!("counts (traced pass 1): {}", first.counts);
    println!("{check_line}");
    for m in &metrics {
        println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    write_spans(args, &tracer)?;
    Ok((tally, metrics))
}

/// Writes the spans to `<target dir>/perfbench-traces/<workload>-<seed>.tsv`,
/// under `CARGO_TARGET_DIR` (default `.bench_build`).
fn write_spans(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let dir = std::path::Path::new(&target).join("perfbench-traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.tsv", args.kind.name(), args.seed));
    std::fs::write(&path, tracer.to_tsv())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "spans: {} written to {}",
        tracer.spans.len(),
        path.display()
    );
    Ok(())
}

use trace::Tracer;

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = args(&[
            "--workload",
            "campaign",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.kind, Kind::Campaign);
        assert_eq!(a.seed, 3);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
        let d = args(&["--workload", "ingest_design"]).expect("defaults");
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "campaign", "--trace", "2"],
            &["--workload", "campaign", "--seconds", "-1"],
            &["--workload", "campaign", "--seed"],
            &["--workload", "campaign", "--bogus", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn declared_names_and_units_are_valid_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, (name, unit, better)) in all.iter().enumerate() {
            assert!(stats::valid_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{unit}");
            assert!(["higher", "lower"].contains(better), "{better}");
            assert!(all[..i].iter().all(|(n, _, _)| n != name), "{name} twice");
        }
        for kind in Kind::ALL {
            assert!(stats::valid_name(kind.name()));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let declared = |name: &str, unit: &str, better: &str| {
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"")
        };
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&declared(name, unit, better)),
                "{name} is not declared as in the code"
            );
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for kind in Kind::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\"", kind.name())));
        }
    }
}
