//! Property-based tests of the marked-graph engine: liveness and safeness
//! against exhaustive exploration, cycle time against timed simulation, and
//! the invariants of composition.
//!
//! The suite also keeps the pre-rewrite `cycle_time` (bisection over
//! Bellman-Ford positive-cycle tests) and `is_safe` (one heap Dijkstra per
//! target transition) alive as in-test oracles. The production analyses
//! must match them bit for bit (`f64::to_bits`, identical booleans) on
//! random graphs and on the control models of the pipeline, FIR and DLX
//! designs.

use desync_circuits::{DlxConfig, FirConfig, LinearPipelineConfig};
use desync_core::{DesyncOptions, Desynchronizer, Protocol};
use desync_mg::analysis::{
    count_reachable_markings, find_deadlock, is_live, is_safe, is_strongly_connected,
    max_bound_exhaustive, DEFAULT_EXPLORATION_LIMIT,
};
use desync_mg::compose::{compose, from_edges, same_structure};
use desync_mg::timing::{cycle_time, simulate_timed};
use desync_mg::{FlowEquivalence, FlowTrace, MarkedGraph, TransitionId};
use desync_netlist::CellLibrary;
use proptest::prelude::*;
use std::collections::{BinaryHeap, HashMap};

// ---- the reference analyses (pre-rewrite implementations, verbatim) ----

/// The pre-rewrite `cycle_time`: bisection on lambda with a Bellman-Ford
/// positive-cycle test as the predicate.
fn oracle_cycle_time(graph: &MarkedGraph) -> f64 {
    if graph.num_places() == 0 || graph.num_transitions() == 0 {
        return 0.0;
    }
    if !is_live(graph) {
        return f64::INFINITY;
    }
    if !oracle_has_positive_cycle(graph, 0.0) {
        return 0.0;
    }
    let positive_delay: f64 = graph.places().map(|(_, p)| p.delay.max(0.0)).sum();
    let mut lo = 0.0_f64;
    let mut hi = positive_delay.max(1e-9);
    let mut doublings = 0;
    while oracle_has_positive_cycle(graph, hi) {
        hi *= 2.0;
        doublings += 1;
        if doublings > 128 {
            return f64::INFINITY;
        }
    }
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if oracle_has_positive_cycle(graph, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-9 * (1.0 + hi.abs()) {
            break;
        }
    }
    hi
}

fn oracle_has_positive_cycle(graph: &MarkedGraph, lambda: f64) -> bool {
    let n = graph.num_transitions();
    let mut dist = vec![0.0_f64; n];
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

/// The pre-rewrite `is_safe`: one token-shortest-path Dijkstra per distinct
/// place target in the live, strongly connected case.
fn oracle_is_safe(graph: &MarkedGraph) -> bool {
    if graph.num_places() == 0 {
        return true;
    }
    if is_live(graph) && is_strongly_connected(graph) {
        let mut trees: HashMap<usize, Vec<Option<u32>>> = HashMap::new();
        graph.places().all(|(_, p)| {
            if p.initial_tokens > 1 {
                return false;
            }
            let dist = trees
                .entry(p.to.index())
                .or_insert_with(|| oracle_token_shortest_paths(graph, p.to));
            match dist[p.from.index()] {
                Some(d) => d + p.initial_tokens == 1,
                None => false,
            }
        })
    } else {
        matches!(
            max_bound_exhaustive(graph, DEFAULT_EXPLORATION_LIMIT),
            Some(b) if b <= 1
        )
    }
}

fn oracle_token_shortest_paths(graph: &MarkedGraph, start: TransitionId) -> Vec<Option<u32>> {
    let n = graph.num_transitions();
    let mut adj: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    for (_, p) in graph.places() {
        adj[p.from.index()].push((p.to.index(), p.initial_tokens));
    }
    let mut dist: Vec<Option<u32>> = vec![None; n];
    let mut heap: BinaryHeap<std::cmp::Reverse<(u32, usize)>> = BinaryHeap::new();
    dist[start.index()] = Some(0);
    heap.push(std::cmp::Reverse((0, start.index())));
    while let Some(std::cmp::Reverse((d, node))) = heap.pop() {
        if dist[node] != Some(d) {
            continue;
        }
        for &(succ, w) in &adj[node] {
            let nd = d + w;
            if dist[succ].is_none_or(|old| nd < old) {
                dist[succ] = Some(nd);
                heap.push(std::cmp::Reverse((nd, succ)));
            }
        }
    }
    dist
}

/// Asserts the production analyses equal the oracles on `graph`: the cycle
/// time bit for bit, safety as a boolean. Safety is compared where the
/// rewritten structural branch decides it (live and strongly connected), or
/// where the shared exhaustive fallback is cheap (bounded within 200
/// markings); any other graph sends both sides through the same
/// exploration of up to 200,000 markings.
fn assert_matches_oracles(graph: &MarkedGraph, what: &str) {
    let fast = cycle_time(graph);
    let reference = oracle_cycle_time(graph);
    assert_eq!(
        fast.to_bits(),
        reference.to_bits(),
        "{what}: cycle time {fast:e} vs oracle {reference:e}"
    );
    let structural = is_live(graph) && is_strongly_connected(graph);
    if structural || max_bound_exhaustive(graph, 200).is_some() {
        assert_eq!(is_safe(graph), oracle_is_safe(graph), "{what}: safety");
    }
}

/// Xorshift stream for the oracle's random graphs.
struct Xorshift(u64);

impl Xorshift {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    /// 0 (50%), 1 (35%), 2 (10%) or 3 (5%) tokens.
    fn tokens(&mut self) -> u32 {
        match self.below(20) {
            0..=9 => 0,
            10..=16 => 1,
            17..=18 => 2,
            _ => 3,
        }
    }

    /// A fractional delay, negative one time in five.
    fn delay(&mut self) -> f64 {
        let magnitude = self.below(50_000) as f64 / 97.0;
        if self.below(5) == 0 {
            -magnitude * 0.4
        } else {
            magnitude
        }
    }
}

/// A random marked graph of one of four shapes: a ring with chords
/// (strongly connected), arbitrary places (sources, sinks, several
/// components), a ring with chords plus a sink transition without output
/// places, and two rings joined one way (weakly, not strongly, connected).
/// Token counts and delays are drawn per place, so the graphs are live or
/// dead, safe or multi-token, with negative delays mixed in.
fn random_oracle_graph(seed: u64) -> MarkedGraph {
    let mut rng = Xorshift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let shape = rng.below(4);
    let n = 1 + rng.below(9) as usize;
    let mut g = MarkedGraph::new();
    let ids: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
    let ring = |g: &mut MarkedGraph, rng: &mut Xorshift, ring: &[TransitionId]| {
        for i in 0..ring.len() {
            let (tokens, delay) = (rng.tokens(), rng.delay());
            g.add_place(ring[i], ring[(i + 1) % ring.len()], tokens, delay);
        }
    };
    let chords = rng.below(2 * n as u64 + 1);
    match shape {
        0 | 2 => ring(&mut g, &mut rng, &ids),
        1 => {}
        _ => {
            let split = n.div_ceil(2);
            ring(&mut g, &mut rng, &ids[..split]);
            ring(&mut g, &mut rng, &ids[split..]);
            let (tokens, delay) = (rng.tokens(), rng.delay());
            g.add_place(ids[0], ids[n - 1], tokens, delay);
        }
    }
    let places = if shape == 1 { 1 + 2 * chords } else { chords };
    for _ in 0..places {
        let a = ids[rng.below(n as u64) as usize];
        let b = ids[rng.below(n as u64) as usize];
        let (tokens, delay) = (rng.tokens(), rng.delay());
        g.add_place(a, b, tokens, delay);
    }
    if shape == 2 {
        let sink = g.add_transition("sink");
        let (tokens, delay) = (rng.tokens(), rng.delay());
        g.add_place(ids[rng.below(n as u64) as usize], sink, tokens, delay);
    }
    g
}

#[test]
fn analyses_match_oracles_on_random_graphs() {
    const GRAPHS: u64 = 20_000;
    let (mut live, mut strongly_connected) = (0, 0);
    for seed in 0..GRAPHS {
        let g = random_oracle_graph(seed);
        live += usize::from(is_live(&g));
        strongly_connected += usize::from(is_strongly_connected(&g));
        assert_matches_oracles(&g, &format!("random graph {seed}"));
    }
    // The family must exercise both sides of every branch.
    println!("{GRAPHS} random graphs: {live} live, {strongly_connected} strongly connected");
    assert!(live > 2_000 && (GRAPHS as usize - live) > 2_000);
    assert!(strongly_connected > 2_000 && (GRAPHS as usize - strongly_connected) > 2_000);
}

#[test]
fn analyses_match_oracles_on_control_models() {
    let library = CellLibrary::generic_90nm();
    let designs = [
        LinearPipelineConfig::balanced(6, 8, 4)
            .generate()
            .expect("pipeline"),
        FirConfig::with_taps(5, 8).generate().expect("fir"),
        DlxConfig::default().generate().expect("dlx"),
    ];
    for netlist in &designs {
        for &protocol in Protocol::all() {
            for margin in [0.05, 0.1, 0.15, 0.2] {
                let options = DesyncOptions::default()
                    .with_protocol(protocol)
                    .with_margin(margin);
                let design = Desynchronizer::new(netlist, &library, options)
                    .run()
                    .expect("desynchronize");
                let model = design.control_model();
                let what = format!("{} {protocol} margin {margin}", netlist.name());
                assert_matches_oracles(model.graph(), &what);
                for component in model.components() {
                    assert_matches_oracles(&model.component_graph(&component), &what);
                }
            }
        }
    }
}

/// A random strongly connected marked graph: a ring of `n` transitions with
/// extra chords, tokens placed from the seed.
fn random_strongly_connected(seed: u64, n: usize, chords: usize) -> MarkedGraph {
    let mut g = MarkedGraph::new();
    let ids: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Ring with at least one token.
    for i in 0..n {
        let tokens = if i == 0 { 1 } else { (next() % 2) as u32 };
        g.add_place(ids[i], ids[(i + 1) % n], tokens, 1.0 + (next() % 10) as f64);
    }
    for _ in 0..chords {
        let a = (next() as usize) % n;
        let b = (next() as usize) % n;
        if a != b {
            g.add_place(
                ids[a],
                ids[b],
                (next() % 2) as u32,
                1.0 + (next() % 10) as f64,
            );
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The structural liveness check agrees with explicit deadlock search on
    /// small graphs.
    #[test]
    fn liveness_matches_deadlock_freedom(seed in 0u64..10_000, n in 2usize..6, chords in 0usize..4) {
        let g = random_strongly_connected(seed, n, chords);
        if let Some(deadlock) = find_deadlock(&g, 50_000) {
            if is_live(&g) {
                // A live marked graph can never deadlock.
                prop_assert!(deadlock.is_none());
            }
            // (A deadlock-free marked graph may still be non-live in general
            // Petri nets, but for marked graphs deadlock-freedom of the full
            // reachability graph implies every transition stays fireable;
            // we only assert the safe direction above.)
        }
    }

    /// The structural safeness check agrees with the exhaustive bound.
    #[test]
    fn safeness_matches_exhaustive_bound(seed in 0u64..10_000, n in 2usize..6, chords in 0usize..4) {
        let g = random_strongly_connected(seed, n, chords);
        if !is_live(&g) {
            return Ok(()); // safeness check is only structural for live graphs
        }
        if let Some(bound) = max_bound_exhaustive(&g, 50_000) {
            prop_assert_eq!(is_safe(&g), bound <= 1, "bound was {}", bound);
        }
    }

    /// Firing a complete cycle (every transition once, in a valid order)
    /// returns a live safe ring to its initial marking.
    #[test]
    fn ring_firing_is_periodic(n in 2usize..8) {
        let mut g = MarkedGraph::new();
        let ids: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
        for i in 0..n {
            g.add_place(ids[i], ids[(i + 1) % n], u32::from(i == 0), 1.0);
        }
        let mut marking = g.initial_marking();
        for round in 0..3 {
            for step in 0..n {
                let enabled = g.enabled(&marking);
                prop_assert_eq!(enabled.len(), 1, "round {} step {}", round, step);
                g.fire(&mut marking, enabled[0]);
            }
            prop_assert_eq!(&marking, &g.initial_marking());
        }
    }

    /// The analytic cycle time matches the asymptotic period of the timed
    /// simulation on live safe graphs.
    #[test]
    fn cycle_time_matches_simulation(seed in 0u64..10_000, n in 2usize..6) {
        let g = random_strongly_connected(seed, n, 2);
        if !is_live(&g) || !is_safe(&g) {
            return Ok(());
        }
        let analytic = cycle_time(&g);
        prop_assume!(analytic.is_finite() && analytic > 0.0);
        let trace = simulate_timed(&g, 60, None);
        prop_assume!(trace.iterations >= 40);
        let relative = (trace.period - analytic).abs() / analytic;
        prop_assert!(relative < 0.05, "simulated {} vs analytic {}", trace.period, analytic);
    }

    /// Adding places (constraints) never decreases the cycle time, and
    /// scaling all delays scales the cycle time.
    #[test]
    fn cycle_time_monotonicity_and_scaling(seed in 0u64..10_000, n in 2usize..6, scale in 1u32..6) {
        let g = random_strongly_connected(seed, n, 1);
        prop_assume!(is_live(&g));
        let base = cycle_time(&g);
        // Add one more marked constraint place: cycle time cannot decrease
        // by more than numerical noise.
        let mut extended = g.clone();
        let t0 = desync_mg::TransitionId(0);
        let t1 = desync_mg::TransitionId((n as u32) - 1);
        extended.add_place(t0, t1, 1, 5.0);
        extended.add_place(t1, t0, 0, 5.0);
        prop_assert!(cycle_time(&extended) + 1e-6 >= base);
        // Scaling delays scales the cycle time linearly.
        let mut scaled = g.clone();
        let factor = scale as f64;
        for (id, _) in g.places() {
            scaled.place_mut(id).delay = g.place(id).delay * factor;
        }
        let scaled_ct = cycle_time(&scaled);
        prop_assert!((scaled_ct - base * factor).abs() < 1e-6 * (1.0 + base * factor));
    }

    /// Composition with an empty component is a no-op (up to structure), and
    /// composition is commutative with respect to structure.
    #[test]
    fn composition_is_structure_commutative(seed in 0u64..10_000, n in 2usize..5) {
        let a = random_strongly_connected(seed, n, 1);
        let b = random_strongly_connected(seed.wrapping_add(1), n, 1);
        let ab = compose(&[a.clone(), b.clone()]);
        let ba = compose(&[b, a.clone()]);
        prop_assert!(same_structure(&ab, &ba));
        // Composing with an empty component changes nothing beyond the
        // deduplication composition always performs.
        let normalized = compose(std::slice::from_ref(&a));
        let with_empty = compose(&[a, MarkedGraph::new()]);
        prop_assert!(same_structure(&normalized, &with_empty));
    }

    /// Reachable marking counts are bounded by the product of place bounds
    /// for safe graphs.
    #[test]
    fn safe_graphs_have_bounded_state_spaces(n in 2usize..6) {
        let mut edges: Vec<(String, String, u32, f64)> = Vec::new();
        for i in 0..n {
            edges.push((format!("t{i}"), format!("t{}", (i + 1) % n), u32::from(i == 0), 1.0));
        }
        let g = from_edges(&edges);
        prop_assert!(is_safe(&g));
        let count = count_reachable_markings(&g, 100_000).expect("small");
        // A single token rotating through n places has exactly n markings.
        prop_assert_eq!(count, n);
    }

    /// Flow-trace comparison is reflexive and detects any single-value
    /// corruption.
    #[test]
    fn flow_equivalence_detects_corruption(
        values in proptest::collection::vec(0u64..4, 1..20),
        corrupt_at in 0usize..20,
    ) {
        let mut reference = FlowTrace::new();
        for &v in &values {
            reference.push("r", v);
        }
        prop_assert!(FlowEquivalence::compare(&reference, &reference).is_equivalent());
        if corrupt_at < values.len() {
            let mut corrupted = FlowTrace::new();
            for (i, &v) in values.iter().enumerate() {
                corrupted.push("r", if i == corrupt_at { v + 1 } else { v });
            }
            let cmp = FlowEquivalence::compare(&reference, &corrupted);
            prop_assert!(!cmp.is_equivalent());
            prop_assert_eq!(cmp.mismatches[0].position, corrupt_at);
        }
    }
}
