//! Compressed-sparse-row adjacency over the places of a marked graph, the
//! shared substrate of the near-linear analyses in [`crate::analysis`] and
//! [`crate::timing`].

use crate::graph::{MarkedGraph, Place, TransitionId};

/// The places of a marked graph grouped by one endpoint transition: the
/// places keyed to transition `t` are `places[offsets[t]..offsets[t + 1]]`,
/// in place-id order. Built by one counting pass over the places instead of
/// a `Vec` per transition.
pub(crate) struct PlaceCsr {
    offsets: Vec<u32>,
    places: Vec<u32>,
}

impl PlaceCsr {
    /// The output places of every transition (grouped by `from`).
    pub(crate) fn outputs(graph: &MarkedGraph) -> Self {
        Self::grouped_by(graph, |p| p.from)
    }

    /// The input places of every transition (grouped by `to`).
    pub(crate) fn inputs(graph: &MarkedGraph) -> Self {
        Self::grouped_by(graph, |p| p.to)
    }

    fn grouped_by(graph: &MarkedGraph, key: impl Fn(&Place) -> TransitionId) -> Self {
        let n = graph.num_transitions();
        let mut offsets = vec![0u32; n + 1];
        for (_, p) in graph.places() {
            offsets[key(p).index() + 1] += 1;
        }
        for t in 0..n {
            offsets[t + 1] += offsets[t];
        }
        let mut fill: Vec<u32> = offsets[..n].to_vec();
        let mut places = vec![0u32; graph.num_places()];
        for (id, p) in graph.places() {
            let slot = &mut fill[key(p).index()];
            places[*slot as usize] = id.0;
            *slot += 1;
        }
        Self { offsets, places }
    }

    /// The place indices keyed to transition index `t`, in id order.
    pub(crate) fn of(&self, t: usize) -> &[u32] {
        &self.places[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }
}
