//! Timed analysis of marked graphs: steady-state cycle time (maximum cycle
//! ratio) and discrete-event simulation of the timed token game.
//!
//! In the desynchronization model the place delays carry the matched-delay /
//! combinational-logic propagation times, so the cycle time computed here is
//! the asynchronous equivalent of the clock period of the synchronous
//! circuit (paper Table 1, "Cycle Time" row).

use crate::analysis::has_token_free_cycle;
use crate::csr::PlaceCsr;
use crate::graph::{MarkedGraph, PlaceId, TransitionId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The steady-state cycle time of a timed marked graph: the maximum over all
/// directed cycles of (total delay on the cycle) / (tokens on the cycle).
///
/// Returns `0.0` for graphs without cycles (nothing constrains throughput)
/// and `f64::INFINITY` for graphs with a token-free cycle (not live: some
/// transition can never fire, so the period diverges).
///
/// The value is defined by the reference method, a bisection on λ whose
/// predicate is a Bellman-Ford positive-cycle test under weights
/// `delay - λ·tokens`: it is the upper end of the final bracket, within
/// `1e-9` relative of the true ratio. About 40 such tests of up to one pass
/// per transition each made that slow, so the result is reached another way:
///
/// 1. Howard policy iteration computes the maximum cycle ratio λ* directly,
///    in a few near-linear rounds.
/// 2. The bisection arithmetic is replayed with `mid < λ*` as the predicate.
/// 3. Two positive-cycle tests confirm the final bracket: one at its lower
///    end (a positive cycle must exist) and one at its upper end (none may).
///    The test is monotone in λ, and every midpoint the replay decided lies
///    at or beyond one end of that bracket, so the reference bisection
///    would have decided each of them the same way. The result is its `hi`,
///    bit for bit.
///
/// The reference bisection runs instead whenever that path does not apply:
/// a transition without an output place, λ* ≤ 0, a policy iteration that
/// does not settle, or a bracket the two tests do not confirm.
pub fn cycle_time(graph: &MarkedGraph) -> f64 {
    if graph.num_places() == 0 || graph.num_transitions() == 0 {
        return 0.0;
    }
    let outputs = PlaceCsr::outputs(graph);
    if has_token_free_cycle(graph, &outputs) {
        return f64::INFINITY;
    }
    replayed_cycle_time(graph, &outputs).unwrap_or_else(|| cycle_time_by_bisection(graph))
}

/// Steps 1–3 of [`cycle_time`] on a live graph: the exact ratio, the
/// replayed bisection and the bracket check, or `None` when the fast path
/// does not apply.
fn replayed_cycle_time(graph: &MarkedGraph, outputs: &PlaceCsr) -> Option<f64> {
    let ratio = max_cycle_ratio(graph, outputs).filter(|&r| r > 0.0 && r.is_finite())?;
    let (lo, hi) = bisect(graph, |mid| mid < ratio)?;
    (has_positive_cycle(graph, lo) && !has_positive_cycle(graph, hi)).then_some(hi)
}

/// The reference cycle-time method behind [`cycle_time`] for a live graph
/// with places: bisection on λ, where `λ >= λ*` iff the graph with edge
/// weights `delay - λ·tokens` has no positive cycle.
fn cycle_time_by_bisection(graph: &MarkedGraph) -> f64 {
    if !has_positive_cycle(graph, 0.0) {
        // No cycle with positive total delay: throughput is unconstrained.
        return 0.0;
    }
    match bisect(graph, |lambda| has_positive_cycle(graph, lambda)) {
        Some((_, hi)) => hi,
        None => f64::INFINITY,
    }
}

/// The bisection on λ shared by both paths of [`cycle_time`]:
/// `positive(λ)` answers whether some cycle has positive weight under
/// `delay - λ·tokens`. Returns the final bracket `(lo, hi)`, or `None` when
/// no upper bound holds after 128 doublings.
fn bisect(graph: &MarkedGraph, mut positive: impl FnMut(f64) -> bool) -> Option<(f64, f64)> {
    // Upper bound: every cycle carries >= 1 token (the graph is live), and a
    // cycle's delay is at most the sum of all *positive* place delays — the
    // plain total would under-bound lambda* as soon as any place has a
    // negative delay, silently converging to a wrong cycle time.
    let positive_delay: f64 = graph.places().map(|(_, p)| p.delay.max(0.0)).sum();
    let mut lo = 0.0_f64;
    let mut hi = positive_delay.max(1e-9);
    // Defense in depth: if rounding ever left lambda* above the analytic
    // bound, double until the bound holds instead of bisecting against an
    // invalid bracket. Divergence here would mean the liveness check lied,
    // so the caller gives up loudly with infinity after a generous budget.
    let mut doublings = 0;
    while positive(hi) {
        hi *= 2.0;
        doublings += 1;
        if doublings > 128 {
            return None;
        }
    }
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if positive(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-9 * (1.0 + hi.abs()) {
            break;
        }
    }
    Some((lo, hi))
}

/// Policy-iteration rounds after which [`max_cycle_ratio`] gives up.
const MAX_POLICY_ROUNDS: usize = 1_000;

/// Slack below which [`max_cycle_ratio`] treats two ratios or potentials as
/// equal, relative to their magnitude: a switch must beat rounding noise,
/// or the iteration could flip between equivalent policies.
fn slack(x: f64) -> f64 {
    1e-12 * (1.0 + x.abs())
}

/// The maximum cycle ratio (delay over tokens) of a live marked graph, by
/// Howard policy iteration over the output places.
///
/// A policy picks one output place per transition, so the policy graph is
/// functional: each of its components drains into one cycle. A round
/// evaluates the policy (every transition gets the ratio `eta` of the cycle
/// it drains into, and a potential `value` relative to that cycle), then
/// improves it: a transition first moves to an output place leading to a
/// larger ratio, and only when none does anywhere, to one with a larger
/// potential at the same ratio. With nothing left to improve, the largest
/// `eta` is the maximum cycle ratio.
///
/// Returns `None` when a transition has no output place or the iteration
/// does not settle within [`MAX_POLICY_ROUNDS`].
fn max_cycle_ratio(graph: &MarkedGraph, outputs: &PlaceCsr) -> Option<f64> {
    let n = graph.num_transitions();
    let place = |id: u32| graph.place(PlaceId(id));
    // Start from the slowest output place of every transition.
    let mut policy = Vec::with_capacity(n);
    for t in 0..n {
        let slowest = outputs
            .of(t)
            .iter()
            .copied()
            .max_by(|&a, &b| place(a).delay.total_cmp(&place(b).delay))?;
        policy.push(slowest);
    }
    let mut eta = vec![0.0_f64; n];
    let mut value = vec![0.0_f64; n];
    // The walk that first visited each transition this round (0: none yet).
    let mut walk_of = vec![0usize; n];
    let mut walk: Vec<usize> = Vec::new();
    for _ in 0..MAX_POLICY_ROUNDS {
        // Evaluate: follow the policy from every unvisited transition until
        // the walk meets an evaluated transition or closes a new cycle.
        walk_of.fill(0);
        for start in 0..n {
            if walk_of[start] != 0 {
                continue;
            }
            walk.clear();
            let mut t = start;
            while walk_of[t] == 0 {
                walk_of[t] = start + 1;
                walk.push(t);
                t = place(policy[t]).to.index();
            }
            let mut root = None;
            if walk_of[t] == start + 1 {
                // A new policy cycle, rooted at `t` with potential 0.
                let pos = walk
                    .iter()
                    .position(|&u| u == t)
                    .expect("the cycle root is on the walk");
                let (delay, tokens) = walk[pos..].iter().fold((0.0, 0.0), |(d, k), &u| {
                    let p = place(policy[u]);
                    (d + p.delay, k + f64::from(p.initial_tokens))
                });
                if tokens <= 0.0 {
                    return None; // a token-free cycle: the graph is not live
                }
                eta[t] = delay / tokens;
                value[t] = 0.0;
                root = Some(pos);
            }
            // Everything else on the walk takes its successor's ratio and
            // its potential plus its own place, last-visited first.
            for (i, &u) in walk.iter().enumerate().rev() {
                if root == Some(i) {
                    continue;
                }
                let p = place(policy[u]);
                let succ = p.to.index();
                eta[u] = eta[succ];
                value[u] = p.delay - eta[u] * f64::from(p.initial_tokens) + value[succ];
            }
        }
        // Improve the ratio first: move to a place leading to a larger one.
        let mut improved = false;
        for u in 0..n {
            let mut best = policy[u];
            let mut best_eta = eta[u];
            for &id in outputs.of(u) {
                let candidate = eta[place(id).to.index()];
                if candidate > best_eta + slack(best_eta) {
                    best = id;
                    best_eta = candidate;
                }
            }
            improved |= best != policy[u];
            policy[u] = best;
        }
        if improved {
            continue;
        }
        // Then the potential, among places leading to the same ratio.
        for u in 0..n {
            let mut best = policy[u];
            let mut best_value = value[u];
            for &id in outputs.of(u) {
                let p = place(id);
                let succ = p.to.index();
                if (eta[succ] - eta[u]).abs() > slack(eta[u]) {
                    continue;
                }
                let candidate = p.delay - eta[u] * f64::from(p.initial_tokens) + value[succ];
                if candidate > best_value + slack(best_value) {
                    best = id;
                    best_value = candidate;
                }
            }
            improved |= best != policy[u];
            policy[u] = best;
        }
        if !improved {
            return eta.iter().copied().reduce(f64::max);
        }
    }
    None
}

/// Whether the graph with edge weights `delay - lambda * tokens` contains a
/// positive-weight cycle (Bellman-Ford style relaxation on longest paths).
fn has_positive_cycle(graph: &MarkedGraph, lambda: f64) -> bool {
    let n = graph.num_transitions();
    let mut dist = vec![0.0_f64; n];
    // n iterations of relaxation; a further improvement implies a positive cycle.
    for iter in 0..=n {
        let mut changed = false;
        for (_, p) in graph.places() {
            let w = p.delay - lambda * p.initial_tokens as f64;
            let cand = dist[p.from.index()] + w;
            if cand > dist[p.to.index()] + 1e-12 {
                dist[p.to.index()] = cand;
                changed = true;
                if iter == n {
                    return true;
                }
            }
        }
        if !changed {
            return false;
        }
    }
    false
}

/// One firing of a transition in a timed simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Firing {
    /// The transition that fired.
    pub transition: TransitionId,
    /// Simulation time of the firing.
    pub time: f64,
}

/// The result of a timed token-game simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedTrace {
    /// All firings in chronological order.
    pub firings: Vec<Firing>,
    /// Number of completed iterations of the reference transition.
    pub iterations: usize,
    /// Estimated steady-state period (time between consecutive firings of
    /// the reference transition, averaged over the second half of the run).
    ///
    /// With fewer than four reference firings there is no post-transient
    /// half to average; the last inter-firing gap is reported instead and
    /// may still contain start-up transient — simulate more iterations when
    /// the period must match [`cycle_time`].
    pub period: f64,
}

impl TimedTrace {
    /// Firing times of a specific transition.
    pub fn times_of(&self, t: TransitionId) -> Vec<f64> {
        self.firings
            .iter()
            .filter(|f| f.transition == t)
            .map(|f| f.time)
            .collect()
    }
}

/// An event-queue key ordering firing candidates by `(time, transition)`.
///
/// Times are compared with [`f64::total_cmp`], so the order is total (place
/// delays may legitimately be negative, and the sign-magnitude layout of raw
/// bit patterns would order negatives backwards). The transition index
/// tie-break reproduces the earliest-firing rule "among simultaneously
/// enabled transitions, the lowest index fires first" that a linear scan
/// over the transition list implements implicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    time: f64,
    t_idx: usize,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.t_idx.cmp(&other.t_idx))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Simulates the timed token game with earliest-firing semantics for
/// `iterations` firings of transition `reference` (or of transition 0 if
/// `reference` is `None`), returning the full trace and a period estimate.
///
/// Earliest-firing semantics: a transition fires as soon as every input
/// place holds a token whose delay has elapsed. This is the behaviour of a
/// speed-independent handshake implementation with matched delays.
///
/// The simulation is event-driven: enabled transitions wait in a priority
/// queue keyed by their ready time, and a firing re-examines only the
/// transitions whose input places it touched (in a marked graph each place
/// feeds exactly one consumer), instead of rescanning the whole transition
/// list per firing. Queue entries are revalidated against the current
/// marking when popped, so stale entries are dropped or re-keyed; the trace
/// is identical to the former full-rescan implementation.
pub fn simulate_timed(
    graph: &MarkedGraph,
    iterations: usize,
    reference: Option<TransitionId>,
) -> TimedTrace {
    let reference = reference.unwrap_or(TransitionId(0));
    let n_places = graph.num_places();
    // Token arrival-time queues per place.
    let mut queues: Vec<VecDeque<f64>> = vec![VecDeque::new(); n_places];
    for (id, p) in graph.places() {
        for _ in 0..p.initial_tokens {
            queues[id.index()].push_back(0.0);
        }
    }
    // Presets and postsets, each grouped by one pass over the places. A
    // place's only consumer is its `to` transition.
    let presets = PlaceCsr::inputs(graph);
    let postsets = PlaceCsr::outputs(graph);

    // The ready time of a transition under the current marking: the latest
    // front-token arrival over its preset, or `None` when a preset place is
    // empty. Source transitions (empty preset) would fire infinitely often
    // and are excluded.
    let ready = |queues: &[VecDeque<f64>], t_idx: usize| -> Option<f64> {
        let preset = presets.of(t_idx);
        if preset.is_empty() {
            return None;
        }
        let mut ready = 0.0_f64;
        for &p in preset {
            ready = ready.max(*queues[p as usize].front()?);
        }
        Some(ready)
    };

    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<Candidate>> =
        std::collections::BinaryHeap::new();
    for t_idx in 0..graph.num_transitions() {
        if let Some(time) = ready(&queues, t_idx) {
            heap.push(std::cmp::Reverse(Candidate { time, t_idx }));
        }
    }

    let mut firings = Vec::new();
    let mut ref_times = Vec::new();
    let max_firings = iterations.saturating_mul(graph.num_transitions().max(1)) + 16;

    while firings.len() < max_firings {
        let Some(std::cmp::Reverse(candidate)) = heap.pop() else {
            break;
        };
        // Revalidate against the current marking: a stale entry is re-keyed
        // (the transition is enabled at a different time now) or dropped
        // (it is not enabled at all).
        let Some(time) = ready(&queues, candidate.t_idx) else {
            continue;
        };
        if time != candidate.time {
            heap.push(std::cmp::Reverse(Candidate {
                time,
                t_idx: candidate.t_idx,
            }));
            continue;
        }
        let t_idx = candidate.t_idx;
        let t = TransitionId(t_idx as u32);
        for &p in presets.of(t_idx) {
            queues[p as usize].pop_front();
        }
        for &p in postsets.of(t_idx) {
            queues[p as usize].push_back(time + graph.place(PlaceId(p)).delay);
        }
        // Only the fired transition and the consumers of its output places
        // can have changed readiness.
        if let Some(next) = ready(&queues, t_idx) {
            heap.push(std::cmp::Reverse(Candidate { time: next, t_idx }));
        }
        for &p in postsets.of(t_idx) {
            let c = graph.place(PlaceId(p)).to.index();
            if c == t_idx {
                continue; // already re-queued above
            }
            if let Some(next) = ready(&queues, c) {
                heap.push(std::cmp::Reverse(Candidate {
                    time: next,
                    t_idx: c,
                }));
            }
        }
        firings.push(Firing {
            transition: t,
            time,
        });
        if t == reference {
            ref_times.push(time);
            if ref_times.len() >= iterations {
                break;
            }
        }
    }

    let period = estimate_period(&ref_times);
    TimedTrace {
        firings,
        iterations: ref_times.len(),
        period,
    }
}

/// Minimum number of firings before [`estimate_period`] trusts its
/// second-half averaging window. Below this, the window would still contain
/// the very first inter-firing gap — pure start-up transient — and the
/// "steady-state" estimate could disagree arbitrarily with
/// [`cycle_time`]. With 2–3 firings the *last* gap is the closest available
/// approximation of steady state, so that is what the estimator returns;
/// callers needing a trustworthy period should simulate at least this many
/// reference firings.
const MIN_STEADY_WINDOW: usize = 4;

/// Average separation between consecutive firing times over the second half
/// of the sequence (ignoring the start-up transient).
///
/// With fewer than [`MIN_STEADY_WINDOW`] firings there is no post-transient
/// window to average; the last inter-firing gap is returned as a best-effort
/// estimate (it may still reflect the start-up transient).
fn estimate_period(times: &[f64]) -> f64 {
    if times.len() < 2 {
        return 0.0;
    }
    if times.len() < MIN_STEADY_WINDOW {
        return times[times.len() - 1] - times[times.len() - 2];
    }
    let start = times.len() / 2;
    let window = &times[start - 1..];
    (window[window.len() - 1] - window[0]) / (window.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MarkedGraph;

    fn two_ring(d1: f64, d2: f64, tokens: u32) -> MarkedGraph {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        g.add_place(a, b, 0, d1);
        g.add_place(b, a, tokens, d2);
        g
    }

    #[test]
    fn cycle_time_of_simple_ring() {
        let g = two_ring(5.0, 7.0, 1);
        assert!((cycle_time(&g) - 12.0).abs() < 1e-6);
    }

    #[test]
    fn cycle_time_divides_by_tokens() {
        let g = two_ring(5.0, 7.0, 2);
        assert!((cycle_time(&g) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn cycle_time_of_dead_graph_is_infinite() {
        let g = two_ring(5.0, 7.0, 0);
        assert!(cycle_time(&g).is_infinite());
    }

    #[test]
    fn cycle_time_takes_maximum_over_cycles() {
        // Two cycles through a shared transition; the slower one dominates.
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        let c = g.add_transition("c");
        g.add_place(a, b, 0, 3.0);
        g.add_place(b, a, 1, 3.0); // cycle a-b: 6
        g.add_place(a, c, 0, 10.0);
        g.add_place(c, a, 1, 10.0); // cycle a-c: 20
        assert!((cycle_time(&g) - 20.0).abs() < 1e-5);
    }

    #[test]
    fn cycle_time_of_acyclic_graph_is_zero() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        g.add_place(a, b, 0, 4.0);
        assert_eq!(cycle_time(&g), 0.0);
        assert_eq!(cycle_time(&MarkedGraph::new()), 0.0);
    }

    #[test]
    fn simulation_period_matches_cycle_time() {
        let g = two_ring(5.0, 7.0, 1);
        let a = g.find_transition("a").unwrap();
        let trace = simulate_timed(&g, 50, Some(a));
        assert!(trace.iterations >= 40);
        assert!(
            (trace.period - 12.0).abs() < 1e-6,
            "period {}",
            trace.period
        );
        assert!((cycle_time(&g) - trace.period).abs() < 1e-5);
    }

    #[test]
    fn simulation_trace_is_causally_ordered() {
        let g = two_ring(2.0, 3.0, 1);
        let trace = simulate_timed(&g, 20, None);
        for w in trace.firings.windows(2) {
            assert!(w[0].time <= w[1].time + 1e-12);
        }
        let a = g.find_transition("a").unwrap();
        let times = trace.times_of(a);
        assert!(times.len() >= 10);
        // Strictly increasing firing times for the same transition.
        for w in times.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn multi_token_pipeline_simulation() {
        // A 4-stage ring with 2 tokens: period = total delay / 2.
        let mut g = MarkedGraph::new();
        let t: Vec<_> = (0..4).map(|i| g.add_transition(format!("t{i}"))).collect();
        for i in 0..4 {
            let next = (i + 1) % 4;
            let tokens = if i % 2 == 0 { 1 } else { 0 };
            g.add_place(t[i], t[next], tokens, 4.0);
        }
        let expected = 16.0 / 2.0;
        assert!((cycle_time(&g) - expected).abs() < 1e-5);
        let trace = simulate_timed(&g, 60, Some(t[0]));
        assert!((trace.period - expected).abs() < 1e-5);
    }

    #[test]
    fn dead_graph_simulation_halts() {
        let g = two_ring(1.0, 1.0, 0);
        let trace = simulate_timed(&g, 10, None);
        assert!(trace.firings.is_empty());
        assert_eq!(trace.period, 0.0);
    }

    #[test]
    fn estimate_period_short_sequences() {
        assert_eq!(estimate_period(&[]), 0.0);
        assert_eq!(estimate_period(&[1.0]), 0.0);
        assert!((estimate_period(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        // Three firings: the first gap (0 -> 3) is start-up transient; the
        // estimate must use the last gap only, not average the transient in.
        assert!((estimate_period(&[0.0, 3.0, 13.0]) - 10.0).abs() < 1e-12);
        // At MIN_STEADY_WINDOW firings the second-half window kicks in and
        // excludes the transient gap entirely.
        assert!((estimate_period(&[0.0, 3.0, 13.0, 23.0]) - 10.0).abs() < 1e-12);
        // A transient-free sequence gives the same answer either way.
        assert!((estimate_period(&[0.0, 5.0, 10.0]) - 5.0).abs() < 1e-12);
    }

    /// Random live graphs: a ring with chords, 0–2 tokens per place and a
    /// negative delay one time in six.
    fn random_live_candidates() -> impl Iterator<Item = MarkedGraph> {
        (0..5_000u64).map(|seed| {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            let mut g = MarkedGraph::new();
            let n = 1 + next(8) as usize;
            let ids: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
            for i in 0..n + next(2 * n as u64 + 1) as usize {
                let (a, b) = if i < n {
                    (ids[i], ids[(i + 1) % n])
                } else {
                    (ids[next(n as u64) as usize], ids[next(n as u64) as usize])
                };
                let tokens = [0, 0, 1, 1, 2][next(5) as usize];
                let delay = next(10_000) as f64 / 37.0;
                let delay = if next(6) == 0 { -0.3 * delay } else { delay };
                g.add_place(a, b, tokens, delay);
            }
            g
        })
    }

    #[test]
    fn exact_path_matches_reference_bisection() {
        let (mut live, mut fallbacks) = (0, 0);
        for g in random_live_candidates() {
            let outputs = PlaceCsr::outputs(&g);
            if has_token_free_cycle(&g, &outputs) {
                continue;
            }
            live += 1;
            let reference = cycle_time_by_bisection(&g);
            match replayed_cycle_time(&g, &outputs) {
                Some(fast) => assert_eq!(fast.to_bits(), reference.to_bits()),
                None => fallbacks += 1,
            }
        }
        println!("exact path: {fallbacks} of {live} live graphs fell back to the bisection");
        assert!(live > 1_000, "only {live} live graphs");
        assert!(fallbacks * 10 < live, "{fallbacks} of {live} fell back");
    }

    #[test]
    fn cycle_time_upper_bound_survives_negative_delays() {
        // Regression: the binary-search upper bound used to be the *signed*
        // sum of place delays. A negative-delay place (a modelling idiom for
        // credited time) pushed that sum below lambda*, and the empty guard
        // at the top of the search let the bisection silently converge to
        // the bogus bound instead of the true cycle time.
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        g.add_place(a, b, 0, 6.0);
        g.add_place(b, a, 1, 6.0); // cycle a-b: lambda* = 12
        let c = g.add_transition("c");
        let d = g.add_transition("d");
        g.add_place(c, d, 1, -5.0);
        g.add_place(d, c, 1, -6.0); // negative credit ring: signed sum = 1
        assert!((cycle_time(&g) - 12.0).abs() < 1e-6);
    }
}
