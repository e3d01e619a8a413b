//! Walker's alias method: O(n) build, O(1) weighted sampling.
//!
//! Used by the weighted NEIGHBORHOOD sampler, the weighted TRAVERSE sampler,
//! the unigram^0.75 NEGATIVE sampler, the item-popularity machinery in the
//! benchmarks, and the update plane under both online services: its base
//! rows' tables are [`AliasColumns`] (two flat columns over a graph's
//! out-edge ids), and a row an update touches moves to an
//! [`IncrementalAlias`], repaired in place after each edit instead of
//! rebuilding every table in the store. Every table, wherever it is
//! stored, draws through one routine, [`AliasSlice::sample`].

use aligraph_graph::AttributedHeterogeneousGraph;
use rand::Rng;
use std::ops::Range;

/// Reusable scratch for [`build_into`]: the f64 intermediate probabilities
/// and the small/large work stacks. It is working memory, not state: whoever
/// runs a series of builds owns one for the series ([`AliasColumns::build`]
/// for its rows, the plane's overlay for a batch's repairs), so the builds
/// are allocation-free once the buffers have grown to the largest row, and
/// no table keeps the buffers afterwards.
#[derive(Debug, Default)]
pub(crate) struct BuildScratch {
    prob64: Vec<f64>,
    small: Vec<usize>,
    large: Vec<usize>,
}

/// The Walker build, writing into caller-owned buffers. Returns `false`
/// (leaving `prob`/`alias` empty) when `weights` is empty or its sum is not
/// a positive finite number.
///
/// This is the *only* build routine: [`AliasTable::new`],
/// [`AliasColumns::build`] and [`IncrementalAlias::repair`] all funnel
/// through it, which is what makes a column row and an incremental repair
/// bit-exact against a from-scratch rebuild — same input weights, same f64
/// op sequence, same stacks, same output bits.
fn build_into(
    weights: &[f32],
    scratch: &mut BuildScratch,
    prob: &mut Vec<f32>,
    alias: &mut Vec<u32>,
) -> bool {
    prob.clear();
    alias.clear();
    let n = weights.len();
    if n == 0 {
        return false;
    }
    let sum: f64 = weights.iter().map(|&w| w.max(0.0) as f64).sum();
    if sum <= 0.0 || !sum.is_finite() {
        return false;
    }
    let scale = n as f64 / sum;
    let prob64 = &mut scratch.prob64;
    prob64.clear();
    prob64.extend(weights.iter().map(|&w| (w.max(0.0) as f64) * scale));
    alias.resize(n, 0);
    let (small, large) = (&mut scratch.small, &mut scratch.large);
    small.clear();
    large.clear();
    for (i, &p) in prob64.iter().enumerate() {
        if p < 1.0 {
            small.push(i);
        } else {
            large.push(i);
        }
    }
    while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
        alias[s] = l as u32;
        prob64[l] = (prob64[l] + prob64[s]) - 1.0;
        if prob64[l] < 1.0 {
            small.push(l);
        } else {
            large.push(l);
        }
    }
    // Numerical leftovers saturate to 1.
    for &i in small.iter().chain(large.iter()) {
        prob64[i] = 1.0;
    }
    prob.extend(prob64.iter().map(|&p| p as f32));
    true
}

/// A borrowed alias table: the acceptance probabilities and aliases of one
/// table, wherever they are stored (an [`AliasTable`]'s own vectors or one
/// row of [`AliasColumns`]).
#[derive(Debug, Clone, Copy)]
pub struct AliasSlice<'a> {
    prob: &'a [f32],
    alias: &'a [u32],
}

impl<'a> AliasSlice<'a> {
    /// The acceptance probabilities (for bit-exact equivalence oracles).
    pub fn probs(&self) -> &'a [f32] {
        self.prob
    }

    /// Whether `other` is this table bit for bit: the same probability
    /// bits and the same aliases.
    pub fn bit_eq(&self, other: &AliasSlice<'_>) -> bool {
        self.prob.len() == other.prob.len()
            && self.prob.iter().zip(other.prob).all(|(a, b)| a.to_bits() == b.to_bits())
            && self.alias == other.alias
    }

    /// Draws one outcome index: the one draw routine of every alias table,
    /// so tables with equal bits draw equal indices from equal RNG states.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f32>() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// An alias table over `n` outcomes with fixed weights.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AliasTable {
    prob: Vec<f32>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds the table. Returns `None` when `weights` is empty or its sum
    /// is not a positive finite number.
    pub fn new(weights: &[f32]) -> Option<Self> {
        let mut scratch = BuildScratch::default();
        let mut prob = Vec::new();
        let mut alias = Vec::new();
        if build_into(weights, &mut scratch, &mut prob, &mut alias) {
            Some(AliasTable { prob, alias })
        } else {
            None
        }
    }

    /// The table as a borrowed [`AliasSlice`].
    pub fn as_slice(&self) -> AliasSlice<'_> {
        AliasSlice { prob: &self.prob, alias: &self.alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when the table is over zero outcomes (never constructed so).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome index ([`AliasSlice::sample`]).
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        self.as_slice().sample(rng)
    }
}

/// The alias table of every out-row of one graph, held as two flat columns
/// indexed by out-edge id: vertex `v`'s table is `out_edge_ids(v)` of each.
/// The builder admits only positive finite weights, so every non-empty row
/// has a table and an empty row, whose range is empty, is the one row
/// without. The whole structure is 8 B an out-record, where a table per row
/// would cost a heap object per vertex.
#[derive(Debug)]
pub struct AliasColumns {
    prob: Box<[f32]>,
    alias: Box<[u32]>,
}

impl AliasColumns {
    /// Builds every out-row's table of `graph`, in vertex id order — the
    /// one Walker build a row, over one reused scratch and weights buffer,
    /// so each row's bits are [`AliasTable::new`]'s over the same weights.
    pub fn build(graph: &AttributedHeterogeneousGraph) -> Self {
        let records = graph.num_edge_records();
        let (mut prob, mut alias) = (Vec::with_capacity(records), Vec::with_capacity(records));
        let mut scratch = BuildScratch::default();
        let (mut weights, mut row_prob, mut row_alias) = (Vec::new(), Vec::new(), Vec::new());
        for v in graph.vertices() {
            let row = graph.out_neighbors(v);
            weights.clear();
            weights.extend(row.iter().map(|n| n.weight));
            let built = build_into(&weights, &mut scratch, &mut row_prob, &mut row_alias);
            assert!(
                built || row.is_empty(),
                "vertex {}: a built graph's weights are positive",
                v.0
            );
            prob.extend_from_slice(&row_prob);
            alias.extend_from_slice(&row_alias);
        }
        AliasColumns { prob: prob.into_boxed_slice(), alias: alias.into_boxed_slice() }
    }

    /// Whether these columns line up with `graph`'s out-edge ids: a slot
    /// per out-record.
    pub(crate) fn fits(&self, graph: &AttributedHeterogeneousGraph) -> bool {
        self.prob.len() == graph.num_edge_records()
    }

    /// The table over out-edge ids `ids`, which must be one vertex's
    /// [`out_edge_ids`](AttributedHeterogeneousGraph::out_edge_ids) in the
    /// graph the columns were built from; `None` for an empty row.
    #[inline]
    pub fn row(&self, ids: Range<usize>) -> Option<AliasSlice<'_>> {
        (!ids.is_empty())
            .then(|| AliasSlice { prob: &self.prob[ids.clone()], alias: &self.alias[ids] })
    }
}

/// An alias table that owns its weight vector and repairs the prob/alias
/// arrays *in place* after point edits, instead of being rebuilt from
/// scratch (the streaming plane's per-vertex incremental maintenance).
///
/// Contract: after [`repair`](Self::repair), the table is **bit-exact**
/// equal to `AliasTable::new(self.weights())` — both run the same build
/// routine over the same weights — so a sampler that survives a cache
/// invalidation sweep provably draws from the identical distribution it
/// would under a full rebuild. Edits ([`set`](Self::set),
/// [`push`](Self::push), [`remove`](Self::remove)) mark the table dirty;
/// sampling a dirty table is a logic error (checked in debug builds). The
/// table holds its weights and its table, no build scratch: a repair borrows
/// its caller's.
#[derive(Debug, Clone, Default)]
pub struct IncrementalAlias {
    weights: Vec<f32>,
    table: AliasTable,
    /// Whether `table` currently describes a sampleable distribution
    /// (weights non-empty with a positive finite sum).
    valid: bool,
    dirty: bool,
}

impl IncrementalAlias {
    /// Builds from an initial weight vector (the one-time migration cost of
    /// a vertex entering the incremental plane; later edits are in-place).
    pub fn new(weights: Vec<f32>) -> Self {
        let mut t = Self::unrepaired(weights);
        t.repair();
        t
    }

    /// [`new`](Self::new) without the build: dirty until the caller, who is
    /// about to edit the weights anyway, repairs it.
    pub(crate) fn unrepaired(weights: Vec<f32>) -> Self {
        IncrementalAlias { weights, dirty: true, ..Self::default() }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when there are no outcomes.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The current weight vector.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Whether edits are pending a [`repair`](Self::repair).
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Overwrites outcome `i`'s weight. Panics when `i` is out of range.
    pub fn set(&mut self, i: usize, w: f32) {
        self.weights[i] = w;
        self.dirty = true;
    }

    /// Appends a new outcome with weight `w`.
    pub fn push(&mut self, w: f32) {
        self.weights.push(w);
        self.dirty = true;
    }

    /// Removes outcome `i`, shifting later outcomes down (order-preserving,
    /// so indices stay aligned with the adjacency row the weights mirror).
    /// Panics when `i` is out of range.
    pub fn remove(&mut self, i: usize) {
        self.weights.remove(i);
        self.dirty = true;
    }

    /// Rebuilds the prob/alias arrays in place from the current weights.
    /// Returns whether the table is sampleable. The build's scratch is
    /// allocated for this one call; the plane's overlay shares one scratch
    /// among a batch's repairs.
    pub fn repair(&mut self) -> bool {
        self.repair_with(&mut BuildScratch::default())
    }

    /// [`repair`](Self::repair) over the caller's `scratch`: with the table's
    /// own prob/alias buffers reused, allocation-free once `scratch` has
    /// grown to the row's degree.
    pub(crate) fn repair_with(&mut self, scratch: &mut BuildScratch) -> bool {
        self.valid =
            build_into(&self.weights, scratch, &mut self.table.prob, &mut self.table.alias);
        self.dirty = false;
        self.valid
    }

    /// The repaired table, or `None` when the weights are degenerate (empty
    /// or summing to zero). Debug-checked against pending edits.
    pub fn table(&self) -> Option<&AliasTable> {
        debug_assert!(!self.dirty, "sampling an IncrementalAlias with unrepaired edits");
        if self.valid {
            Some(&self.table)
        } else {
            None
        }
    }

    /// Draws one outcome index, or `None` when degenerate. Bit-compatible
    /// with [`AliasTable::sample`]: identical RNG consumption and result.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Option<usize> {
        self.table().map(|t| t.as_slice().sample(rng))
    }

    /// Bit-exact equivalence oracle against a from-scratch rebuild: `true`
    /// iff `AliasTable::new(self.weights())` yields exactly this table
    /// (including agreeing that the weights are degenerate).
    pub fn bit_eq_rebuild(&self) -> bool {
        match (AliasTable::new(&self.weights), self.valid) {
            (Some(fresh), true) => fresh.as_slice().bit_eq(&self.table.as_slice()),
            (None, false) => true,
            _ => false,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_graph::ids::well_known::*;
    use aligraph_graph::{AttrVector, GraphBuilder, GraphError, VertexId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 70 vertices whose rows are the cases a column layout can get wrong:
    /// a weighted row first, an empty row, a row of `f32::MAX` weights
    /// (their sum is past `f32`, not past the build's `f64`) followed by a
    /// weighted one, and a weighted last vertex.
    pub(crate) fn awkward_graph() -> AttributedHeterogeneousGraph {
        let mut b = GraphBuilder::directed();
        let vs: Vec<VertexId> = (0..70).map(|_| b.add_vertex(USER, AttrVector::empty())).collect();
        let rows: [(usize, &[f32]); 5] = [
            (0, &[1.0, 2.0, 4.0]),
            (2, &[f32::MAX, f32::MAX]),
            (3, &[0.5, 3.0]),
            (40, &[7.0]),
            (69, &[2.0, 1.0, 1.0, 5.0]),
        ];
        for (src, weights) in rows {
            for (i, &w) in weights.iter().enumerate() {
                b.add_edge(vs[src], vs[(src + i + 1) % 70], CLICK, w).unwrap();
            }
        }
        b.build()
    }

    /// `AliasTable::new` over `v`'s out-row weights.
    pub(crate) fn rebuilt(g: &AttributedHeterogeneousGraph, v: VertexId) -> Option<AliasTable> {
        AliasTable::new(&g.out_neighbors(v).iter().map(|n| n.weight).collect::<Vec<_>>())
    }

    #[test]
    fn every_column_row_is_bit_equal_to_a_rebuild_of_that_row() {
        let g = awkward_graph();
        let columns = AliasColumns::build(&g);
        assert!(columns.fits(&g));
        let mut tables = 0;
        for v in g.vertices() {
            let got = columns.row(g.out_edge_ids(v));
            match (got, rebuilt(&g, v)) {
                (Some(got), Some(want)) => {
                    assert!(got.bit_eq(&want.as_slice()), "vertex {} differs", v.0);
                    tables += 1;
                }
                (None, None) => {}
                (got, want) => panic!("vertex {}: {got:?} against {want:?}", v.0),
            }
        }
        assert_eq!(tables, 5, "only the empty rows have no table");
    }

    #[test]
    fn the_builder_refuses_the_infinite_row_no_table_draws_from() {
        assert!(AliasTable::new(&[f32::INFINITY, f32::INFINITY]).is_none());
        let mut b = GraphBuilder::directed();
        let v = b.add_vertex(USER, AttrVector::empty());
        let refused = b.add_edge(v, v, CLICK, f32::INFINITY);
        assert!(matches!(refused, Err(GraphError::InvalidWeight { .. })));
    }

    #[test]
    fn every_non_empty_row_of_a_built_graph_has_a_table() {
        for g in [awkward_graph(), TaobaoConfig::tiny().generate().unwrap()] {
            let columns = AliasColumns::build(&g);
            for v in g.vertices() {
                let table = columns.row(g.out_edge_ids(v));
                assert_eq!(table.is_some(), g.out_degree(v) > 0, "vertex {}", v.0);
            }
        }
    }

    #[test]
    fn a_slice_draws_the_index_sequence_its_table_draws() {
        let g = awkward_graph();
        let columns = AliasColumns::build(&g);
        for v in [VertexId(0), VertexId(3), VertexId(69)] {
            let slice = columns.row(g.out_edge_ids(v)).unwrap();
            let table = rebuilt(&g, v).unwrap();
            let (mut r1, mut r2) = (StdRng::seed_from_u64(17), StdRng::seed_from_u64(17));
            let a: Vec<usize> = (0..2_000).map(|_| slice.sample(&mut r1)).collect();
            let b: Vec<usize> = (0..2_000).map(|_| table.sample(&mut r2)).collect();
            assert_eq!(a, b, "vertex {}", v.0);
            // The same RNG consumption: the streams are still in step.
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(AliasTable::new(&[]).is_none());
        assert!(AliasTable::new(&[0.0, 0.0]).is_none());
        assert!(AliasTable::new(&[f32::NAN]).is_none());
        assert!(AliasTable::new(&[-1.0, -1.0]).is_none());
    }

    #[test]
    fn single_outcome() {
        let t = AliasTable::new(&[3.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn empirical_distribution_matches_weights() {
        let weights = [1.0f32, 2.0, 4.0, 1.0];
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 4];
        let draws = 200_000;
        for _ in 0..draws {
            counts[t.sample(&mut rng)] += 1;
        }
        let total: f32 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / total;
            let observed = counts[i] as f32 / draws as f32;
            assert!(
                (observed - expected).abs() < 0.01,
                "outcome {i}: expected {expected}, observed {observed}"
            );
        }
    }

    #[test]
    fn zero_weight_outcomes_never_drawn() {
        let t = AliasTable::new(&[1.0, 0.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert_ne!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn incremental_repair_is_bit_exact_against_rebuild() {
        let mut inc = IncrementalAlias::new(vec![1.0, 2.0, 4.0, 1.0]);
        assert!(inc.bit_eq_rebuild());
        // An edit script touching every mutator, repairing after each burst.
        inc.set(1, 7.5);
        inc.push(0.25);
        inc.repair();
        assert!(inc.bit_eq_rebuild());
        inc.remove(0);
        inc.remove(2);
        inc.repair();
        assert!(inc.bit_eq_rebuild());
        // The repaired table samples identically to a fresh build.
        let fresh = AliasTable::new(inc.weights()).unwrap();
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        for _ in 0..500 {
            assert_eq!(inc.sample(&mut r1), Some(fresh.sample(&mut r2)));
        }
    }

    #[test]
    fn incremental_handles_degenerate_transitions() {
        let mut inc = IncrementalAlias::new(vec![1.0]);
        assert!(inc.table().is_some());
        inc.remove(0);
        assert!(inc.is_dirty());
        assert!(!inc.repair(), "empty weights are degenerate");
        assert!(inc.table().is_none());
        assert!(inc.bit_eq_rebuild());
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(inc.sample(&mut rng), None);
        // All-zero weights are degenerate too; recovering is an edit away.
        inc.push(0.0);
        assert!(!inc.repair());
        assert!(inc.bit_eq_rebuild());
        inc.set(0, 3.0);
        assert!(inc.repair());
        assert_eq!(inc.sample(&mut rng), Some(0));
        assert!(inc.bit_eq_rebuild());
    }

    #[test]
    fn uniform_weights_near_uniform_draws() {
        let t = AliasTable::new(&[1.0; 10]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[t.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "count {c}");
        }
    }
}
