//! Structural and behavioural analyses of marked graphs: liveness, safeness,
//! strong connectivity and explicit reachability exploration.
//!
//! The classic marked-graph theorems (Commoner / Murata) make the two key
//! properties of the desynchronization model cheap to check:
//!
//! * **Liveness** — a marked graph is live iff every directed cycle carries
//!   at least one token, i.e. the subgraph of token-free places is acyclic.
//! * **Safeness** — a live marked graph is safe (1-bounded) iff every place
//!   belongs to a directed cycle whose total token count is exactly one.

use crate::csr::PlaceCsr;
use crate::graph::{MarkedGraph, Marking, Place, PlaceId, TransitionId};
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

/// A directed cycle of a marked graph, reported as the places traversed in
/// order (place `i` ends at the transition place `i + 1` leaves, wrapping at
/// the end) plus the cycle's total initial token count.
///
/// Witnesses are **canonical**: the cycle is rotated so its minimum
/// [`PlaceId`] comes first, and the producing traversals visit transitions
/// and places in id order — the same graph always yields the identical
/// witness, across runs, processes and refactors of the traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleWitness {
    /// The places on the cycle, in traversal order, starting at the
    /// minimum place id.
    pub places: Vec<PlaceId>,
    /// Initial tokens summed over the cycle's places.
    pub tokens: u32,
}

impl CycleWitness {
    /// Checks that this witness really is a directed cycle of `graph` and
    /// that [`CycleWitness::tokens`] matches the places' token sum. Used by
    /// callers (and the property suite) to confirm a verdict instead of
    /// trusting it.
    pub fn verify(&self, graph: &MarkedGraph) -> bool {
        if self.places.is_empty() {
            return false;
        }
        let mut tokens = 0;
        for (i, &id) in self.places.iter().enumerate() {
            let place = graph.place(id);
            let next = graph.place(self.places[(i + 1) % self.places.len()]);
            if place.to != next.from {
                return false;
            }
            tokens += place.initial_tokens;
        }
        tokens == self.tokens
    }
}

/// Rotates a cycle of places so it starts at its minimum [`PlaceId`].
fn canonicalize_cycle(places: &mut [PlaceId]) {
    if let Some(min) = places
        .iter()
        .enumerate()
        .min_by_key(|&(_, id)| *id)
        .map(|(pos, _)| pos)
    {
        places.rotate_left(min);
    }
}

/// Finds a **token-free directed cycle** — the witness that the marked
/// graph is not live (the transitions on it can never fire) — or `None`
/// when every cycle carries a token and the graph is therefore live.
///
/// [`is_live`] is this function's boolean projection; callers that need to
/// report *why* a control network deadlocks get the named cycle here.
pub fn token_free_cycle(graph: &MarkedGraph) -> Option<CycleWitness> {
    // Adjacency over token-free places only, edges tagged with the place
    // that contributes them, in place-id order.
    let n = graph.num_transitions();
    let mut adj: Vec<Vec<(usize, PlaceId)>> = vec![Vec::new(); n];
    for (id, p) in graph.places() {
        if p.initial_tokens == 0 {
            adj[p.from.index()].push((p.to.index(), id));
        }
    }
    // Iterative DFS in transition-id order; `path` carries the place used
    // to enter each stacked transition (the root has none).
    let mut color = vec![0u8; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        let mut path: Vec<(usize, Option<PlaceId>)> = vec![(start, None)];
        color[start] = 1;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < adj[node].len() {
                let (succ, place) = adj[node][*next];
                *next += 1;
                match color[succ] {
                    0 => {
                        color[succ] = 1;
                        stack.push((succ, 0));
                        path.push((succ, Some(place)));
                    }
                    1 => {
                        // Cycle closed at `succ`: collect the entering
                        // places from `succ`'s successor on the path, then
                        // the closing place.
                        let pos = path
                            .iter()
                            .position(|&(t, _)| t == succ)
                            .expect("grey transition is on the path");
                        let mut places: Vec<PlaceId> =
                            path[pos + 1..].iter().filter_map(|&(_, p)| p).collect();
                        places.push(place);
                        canonicalize_cycle(&mut places);
                        return Some(CycleWitness { places, tokens: 0 });
                    }
                    _ => {}
                }
            } else {
                color[node] = 2;
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

/// Whether the marked graph is live: from the initial marking every
/// transition can always eventually fire again.
///
/// By the marked-graph liveness theorem this holds iff no directed cycle is
/// token-free (the boolean projection of [`token_free_cycle`], which names
/// the offending cycle).
pub fn is_live(graph: &MarkedGraph) -> bool {
    !has_token_free_cycle(graph, &PlaceCsr::outputs(graph))
}

/// Iterative three-colour DFS over the token-free output places.
pub(crate) fn has_token_free_cycle(graph: &MarkedGraph, outputs: &PlaceCsr) -> bool {
    let n = graph.num_transitions();
    let mut color = vec![0u8; n]; // 0 white, 1 grey, 2 black
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        color[start] = 1;
        stack.push((start, 0));
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let Some(&place) = outputs.of(node).get(*next) else {
                color[node] = 2;
                stack.pop();
                continue;
            };
            *next += 1;
            let p = graph.place(PlaceId(place));
            if p.initial_tokens != 0 {
                continue;
            }
            let succ = p.to.index();
            match color[succ] {
                0 => {
                    color[succ] = 1;
                    stack.push((succ, 0));
                }
                1 => return true,
                _ => {}
            }
        }
    }
    false
}

/// Whether the underlying directed graph (transitions as nodes, places as
/// edges) is strongly connected.
pub fn is_strongly_connected(graph: &MarkedGraph) -> bool {
    strongly_connected(graph, &PlaceCsr::outputs(graph), &PlaceCsr::inputs(graph))
}

/// [`is_strongly_connected`] over prebuilt output and input CSRs: every
/// transition is reachable from transition 0 forwards and backwards.
fn strongly_connected(graph: &MarkedGraph, outputs: &PlaceCsr, inputs: &PlaceCsr) -> bool {
    graph.num_transitions() == 0
        || (reaches_all(graph, outputs, |p| p.to) && reaches_all(graph, inputs, |p| p.from))
}

/// Whether a search from transition 0 along the places of `csr`, stepping
/// to `next(place)`, reaches every transition.
fn reaches_all(graph: &MarkedGraph, csr: &PlaceCsr, next: impl Fn(&Place) -> TransitionId) -> bool {
    let mut seen = vec![false; graph.num_transitions()];
    let mut stack = vec![0];
    seen[0] = true;
    let mut count = 1;
    while let Some(node) = stack.pop() {
        for &place in csr.of(node) {
            let succ = next(graph.place(PlaceId(place))).index();
            if !seen[succ] {
                seen[succ] = true;
                count += 1;
                stack.push(succ);
            }
        }
    }
    count == seen.len()
}

/// The strongly connected components of the underlying directed graph
/// (transitions as nodes, places as edges), each sorted ascending, the
/// component list ordered by its minimum transition id — a canonical
/// connectivity report for diagnostics on graphs that fail
/// [`is_strongly_connected`].
pub fn strongly_connected_components(graph: &MarkedGraph) -> Vec<Vec<TransitionId>> {
    // Kosaraju: forward DFS finish order (transitions visited in id order),
    // then backward DFS over the reversed edges in that order.
    let n = graph.num_transitions();
    let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut bwd: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (_, p) in graph.places() {
        fwd[p.from.index()].push(p.to.index());
        bwd[p.to.index()].push(p.from.index());
    }
    let mut finish = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < fwd[node].len() {
                let succ = fwd[node][*next];
                *next += 1;
                if !seen[succ] {
                    seen[succ] = true;
                    stack.push((succ, 0));
                }
            } else {
                finish.push(node);
                stack.pop();
            }
        }
    }
    let mut components = Vec::new();
    let mut assigned = vec![false; n];
    for &root in finish.iter().rev() {
        if assigned[root] {
            continue;
        }
        let mut component = vec![root];
        assigned[root] = true;
        let mut queue = vec![root];
        while let Some(node) = queue.pop() {
            for &pred in &bwd[node] {
                if !assigned[pred] {
                    assigned[pred] = true;
                    component.push(pred);
                    queue.push(pred);
                }
            }
        }
        component.sort_unstable();
        components.push(
            component
                .into_iter()
                .map(|t| TransitionId(t as u32))
                .collect(),
        );
    }
    components.sort_unstable_by_key(|c: &Vec<TransitionId>| c[0]);
    components
}

/// Finds a directed cycle carrying **more than one token** such that no
/// cycle through one of its places carries fewer — the structural witness
/// that a live, strongly connected marked graph is unsafe (the place can
/// actually accumulate that many tokens) — or `None` when every place lies
/// on a one-token cycle.
///
/// Places are examined in id order and the first offending place produces
/// the witness, so the result is a pure function of the graph. Places on no
/// cycle are skipped (they belong to the non-strongly-connected regime,
/// reported by [`strongly_connected_components`], where safety falls back
/// to explicit exploration).
pub fn multi_token_cycle(graph: &MarkedGraph) -> Option<CycleWitness> {
    // One shortest-path tree (with parent edges) per distinct target
    // transition, shared by every place entering it — mirrors `is_safe`.
    let mut trees: HashMap<usize, TokenPathTree> = HashMap::new();
    for (id, p) in graph.places() {
        let (dist, parent) = trees
            .entry(p.to.index())
            .or_insert_with(|| token_shortest_paths_with_parents(graph, p.to));
        let Some(back) = dist[p.from.index()] else {
            continue; // `p` lies on no cycle.
        };
        if back + p.initial_tokens <= 1 {
            continue;
        }
        // Reconstruct the shortest token path p.to -> ... -> p.from, then
        // close the cycle with `p` itself.
        let mut places = Vec::new();
        let mut node = p.from.index();
        while node != p.to.index() {
            let (pred, via) = parent[node].expect("reached nodes have parents");
            places.push(via);
            node = pred;
        }
        places.reverse();
        places.push(id);
        canonicalize_cycle(&mut places);
        return Some(CycleWitness {
            places,
            tokens: back + p.initial_tokens,
        });
    }
    None
}

/// Shortest-path tree of [`token_shortest_paths_with_parents`]: per
/// transition, the token distance from the start (if reached) and the
/// parent edge (predecessor transition and the place traversed).
type TokenPathTree = (Vec<Option<u32>>, Vec<Option<(usize, PlaceId)>>);

/// Shortest token-count distance from `start` to every transition
/// (Dijkstra over places weighted by their initial token count), plus the
/// parent edge (predecessor transition and the place traversed) of every
/// reached transition, for witness reconstruction. Ties break
/// deterministically: the heap orders by (distance, transition id) and
/// parents update only on strict improvement, with places relaxed in id
/// order.
fn token_shortest_paths_with_parents(graph: &MarkedGraph, start: TransitionId) -> TokenPathTree {
    let n = graph.num_transitions();
    let mut adj: Vec<Vec<(usize, u32, PlaceId)>> = vec![Vec::new(); n];
    for (id, p) in graph.places() {
        adj[p.from.index()].push((p.to.index(), p.initial_tokens, id));
    }
    let mut dist: Vec<Option<u32>> = vec![None; n];
    let mut parent: Vec<Option<(usize, PlaceId)>> = vec![None; n];
    let mut heap: BinaryHeap<std::cmp::Reverse<(u32, usize)>> = BinaryHeap::new();
    dist[start.index()] = Some(0);
    heap.push(std::cmp::Reverse((0, start.index())));
    while let Some(std::cmp::Reverse((d, node))) = heap.pop() {
        if dist[node] != Some(d) {
            continue;
        }
        for &(succ, w, place) in &adj[node] {
            let nd = d + w;
            if dist[succ].is_none_or(|old| nd < old) {
                dist[succ] = Some(nd);
                parent[succ] = Some((node, place));
                heap.push(std::cmp::Reverse((nd, succ)));
            }
        }
    }
    (dist, parent)
}

/// The minimum number of tokens on any directed cycle through place `p`,
/// or `None` if `p` lies on no cycle.
///
/// Computed as a shortest path (token count as length) from `p.to` back to
/// `p.from`, plus the tokens of `p` itself.
pub fn min_tokens_on_cycle_through(graph: &MarkedGraph, p: PlaceId) -> Option<u32> {
    let place = graph.place(p);
    let (dist, _) = token_shortest_paths_with_parents(graph, place.to);
    dist[place.from.index()].map(|d| d + place.initial_tokens)
}

/// Whether the marked graph is safe (no reachable marking puts more than one
/// token in any place).
///
/// For live, strongly connected graphs this uses the structural
/// characterization (every place lies on a cycle with exactly one token),
/// decided by one 0-1 BFS per transition, cut off past token distance 1.
/// For other graphs it falls back to an explicit reachability exploration
/// bounded by [`DEFAULT_EXPLORATION_LIMIT`] markings; graphs that exceed the
/// bound are conservatively reported unsafe.
pub fn is_safe(graph: &MarkedGraph) -> bool {
    if graph.num_places() == 0 {
        return true;
    }
    let outputs = PlaceCsr::outputs(graph);
    let inputs = PlaceCsr::inputs(graph);
    if !has_token_free_cycle(graph, &outputs) && strongly_connected(graph, &outputs, &inputs) {
        every_place_on_one_token_cycle(graph, &outputs, &inputs)
    } else {
        matches!(
            max_bound_exhaustive(graph, DEFAULT_EXPLORATION_LIMIT),
            Some(b) if b <= 1
        )
    }
}

/// Whether every place `p` lies on a cycle whose minimum token count is
/// exactly one: the token distance from `p.to` back to `p.from`, plus the
/// tokens of `p`, equals 1.
///
/// A place with more than one token fails outright, so every remaining
/// place weighs 0 or 1 and the token distances come from a 0-1 BFS: one per
/// transition, answering every place that enters it. Only distances 0 and 1
/// can pass the test, so the search never expands past distance 1, and the
/// distance buffer is reset through the list of transitions it touched
/// rather than reallocated per target.
fn every_place_on_one_token_cycle(
    graph: &MarkedGraph,
    outputs: &PlaceCsr,
    inputs: &PlaceCsr,
) -> bool {
    if graph.places().any(|(_, p)| p.initial_tokens > 1) {
        return false;
    }
    const UNREACHED: u32 = u32::MAX;
    let n = graph.num_transitions();
    let mut dist = vec![UNREACHED; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut deque: VecDeque<usize> = VecDeque::new();
    for target in 0..n {
        let entering = inputs.of(target);
        if entering.is_empty() {
            continue;
        }
        dist[target] = 0;
        touched.push(target);
        deque.push_back(target);
        while let Some(node) = deque.pop_front() {
            let d = dist[node];
            for &place in outputs.of(node) {
                let p = graph.place(PlaceId(place));
                let nd = d + p.initial_tokens;
                let succ = p.to.index();
                if nd > 1 || nd >= dist[succ] {
                    continue;
                }
                if dist[succ] == UNREACHED {
                    touched.push(succ);
                }
                dist[succ] = nd;
                if nd == d {
                    deque.push_front(succ);
                } else {
                    deque.push_back(succ);
                }
            }
        }
        let safe = entering.iter().all(|&place| {
            let p = graph.place(PlaceId(place));
            dist[p.from.index()].saturating_add(p.initial_tokens) == 1
        });
        if !safe {
            return false;
        }
        for &t in &touched {
            dist[t] = UNREACHED;
        }
        touched.clear();
    }
    true
}

/// Default cap on the number of distinct markings explored by the
/// exhaustive analyses.
pub const DEFAULT_EXPLORATION_LIMIT: usize = 200_000;

/// Explores the reachability graph and returns the maximum token count
/// observed in any single place, or `None` when more than `limit` distinct
/// markings were reached (exploration aborted).
pub fn max_bound_exhaustive(graph: &MarkedGraph, limit: usize) -> Option<u32> {
    let initial = graph.initial_marking();
    let mut seen: HashSet<Marking> = HashSet::new();
    let mut queue = VecDeque::new();
    let mut max = initial.0.iter().copied().max().unwrap_or(0);
    seen.insert(initial.clone());
    queue.push_back(initial);
    while let Some(m) = queue.pop_front() {
        for t in graph.enabled(&m) {
            let mut next = m.clone();
            graph.fire(&mut next, t);
            max = max.max(next.0.iter().copied().max().unwrap_or(0));
            if !seen.contains(&next) {
                if seen.len() >= limit {
                    return None;
                }
                seen.insert(next.clone());
                queue.push_back(next);
            }
        }
    }
    Some(max)
}

/// The number of distinct reachable markings, up to `limit` (returns `None`
/// when the limit is exceeded).
pub fn count_reachable_markings(graph: &MarkedGraph, limit: usize) -> Option<usize> {
    let initial = graph.initial_marking();
    let mut seen: HashSet<Marking> = HashSet::new();
    let mut queue = VecDeque::new();
    seen.insert(initial.clone());
    queue.push_back(initial);
    while let Some(m) = queue.pop_front() {
        for t in graph.enabled(&m) {
            let mut next = m.clone();
            graph.fire(&mut next, t);
            if !seen.contains(&next) {
                if seen.len() >= limit {
                    return None;
                }
                seen.insert(next.clone());
                queue.push_back(next);
            }
        }
    }
    Some(seen.len())
}

/// Whether there exists a reachable deadlock (a marking with no enabled
/// transition). Exploration is bounded by `limit` markings; returns `None`
/// when the bound is hit without finding a deadlock.
pub fn find_deadlock(graph: &MarkedGraph, limit: usize) -> Option<Option<Marking>> {
    let initial = graph.initial_marking();
    let mut seen: HashSet<Marking> = HashSet::new();
    let mut queue = VecDeque::new();
    seen.insert(initial.clone());
    queue.push_back(initial);
    while let Some(m) = queue.pop_front() {
        let enabled = graph.enabled(&m);
        if enabled.is_empty() {
            return Some(Some(m));
        }
        for t in enabled {
            let mut next = m.clone();
            graph.fire(&mut next, t);
            if !seen.contains(&next) {
                if seen.len() >= limit {
                    return None;
                }
                seen.insert(next.clone());
                queue.push_back(next);
            }
        }
    }
    Some(None)
}

/// Token count per transition-label pair, summed over all places between the
/// two labels. Useful for asserting the shape of composed models in tests.
pub fn token_matrix(graph: &MarkedGraph) -> HashMap<(String, String), u32> {
    let mut map = HashMap::new();
    for (_, p) in graph.places() {
        let key = (
            graph.transition(p.from).label.clone(),
            graph.transition(p.to).label.clone(),
        );
        *map.entry(key).or_insert(0) += p.initial_tokens;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MarkedGraph;

    fn ring(labels: &[&str], tokens_on_last: u32) -> MarkedGraph {
        let mut g = MarkedGraph::new();
        let ids: Vec<_> = labels.iter().map(|&l| g.add_transition(l)).collect();
        for i in 0..ids.len() {
            let next = (i + 1) % ids.len();
            let tok = if next == 0 { tokens_on_last } else { 0 };
            g.add_place(ids[i], ids[next], tok, 1.0);
        }
        g
    }

    #[test]
    fn marked_ring_is_live_and_safe() {
        let g = ring(&["a", "b", "c"], 1);
        assert!(is_live(&g));
        assert!(is_safe(&g));
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn tokenless_ring_is_dead() {
        let g = ring(&["a", "b", "c"], 0);
        assert!(!is_live(&g));
        assert_eq!(find_deadlock(&g, 100), Some(Some(g.initial_marking())));
    }

    #[test]
    fn two_token_ring_is_live_but_unsafe_structurally() {
        let g = ring(&["a", "b"], 2);
        assert!(is_live(&g));
        assert!(!is_safe(&g));
        // The exhaustive bound agrees.
        assert_eq!(max_bound_exhaustive(&g, 1000), Some(2));
    }

    #[test]
    fn parallel_rings_sharing_a_transition() {
        // Two 1-token cycles through a shared transition: live and safe.
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        let c = g.add_transition("c");
        g.add_place(a, b, 0, 1.0);
        g.add_place(b, a, 1, 1.0);
        g.add_place(a, c, 0, 1.0);
        g.add_place(c, a, 1, 1.0);
        assert!(is_live(&g));
        assert!(is_safe(&g));
        assert_eq!(count_reachable_markings(&g, 1000), Some(4));
    }

    #[test]
    fn unsafe_when_cycle_has_two_tokens_through_place() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        // Both places marked: the cycle carries 2 tokens -> place can reach 2.
        g.add_place(a, b, 1, 1.0);
        g.add_place(b, a, 1, 1.0);
        assert!(is_live(&g));
        assert!(!is_safe(&g));
        assert_eq!(max_bound_exhaustive(&g, 1000), Some(2));
    }

    #[test]
    fn min_tokens_on_cycle() {
        let g = ring(&["a", "b", "c"], 1);
        for (id, _) in g.places() {
            assert_eq!(min_tokens_on_cycle_through(&g, id), Some(1));
        }
    }

    #[test]
    fn place_not_on_cycle() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        let p = g.add_place(a, b, 0, 1.0);
        assert_eq!(min_tokens_on_cycle_through(&g, p), None);
        assert!(!is_strongly_connected(&g));
        // Source transition `a` can fire unboundedly: exploration hits limit.
        assert_eq!(max_bound_exhaustive(&g, 10), None);
        assert!(!is_safe(&g));
    }

    #[test]
    fn deadlock_free_marked_ring() {
        let g = ring(&["a", "b", "c", "d"], 1);
        assert_eq!(find_deadlock(&g, 10_000), Some(None));
    }

    #[test]
    fn token_matrix_sums() {
        let g = ring(&["a", "b"], 1);
        let m = token_matrix(&g);
        assert_eq!(m[&("b".to_string(), "a".to_string())], 1);
        assert_eq!(m[&("a".to_string(), "b".to_string())], 0);
    }

    #[test]
    fn empty_graph_is_trivially_fine() {
        let g = MarkedGraph::new();
        assert!(is_live(&g));
        assert!(is_safe(&g));
        assert!(is_strongly_connected(&g));
    }
}
