//! The GNN framework of the paper's Algorithm 1, as a trainable encoder.
//!
//! ```text
//! h(0)_v ← x_v
//! for k ← 1 to kmax:
//!     S_v   ← SAMPLE(Nb(v))
//!     h'_v  ← AGGREGATE(h(k-1)_u, ∀u ∈ S_v)
//!     h(k)_v ← COMBINE(h(k-1)_v, h'_v)
//! normalize; return h(kmax)_v
//! ```
//!
//! [`GnnEncoder`] executes this recursion on an [`EpisodeTape`] in two
//! phases. *Plan* walks the recursion — SAMPLE, memo lookup, one tape node
//! per `(vertex, hop)` recording where its inputs come from — and draws
//! every random number. *Flush* then materialises `h(k)` hop by hop for all
//! planned nodes at once: one AGGREGATE per node into a stacked block, one
//! COMBINE (one GEMM) per hop. The backward sweep is the mirror image: per
//! hop, the nodes that received a gradient are stacked and backpropagated
//! through COMBINE in one call, then through AGGREGATE into their inputs.
//! [`GnnEncoder::forward`] plans one root and flushes;
//! [`GnnEncoder::forward_batch`] plans many roots and flushes once. Rows of
//! a GEMM are independent, so the flush granularity cannot change a bit of
//! any embedding (DESIGN "Float contract").
//!
//! The tape memoizes `(vertex, hop)` results within a mini-batch — exactly
//! the intermediate-vector materialization of §3.4. Construct the tape with
//! [`EpisodeTape::without_memoization`] to reproduce the unoptimized
//! operator baseline of Table 5.

use aligraph_graph::{FeatureMatrix, VertexId};
use aligraph_ops::{Activation, Aggregator, Combiner, ConcatCombiner, MeanAggregator};
use aligraph_sampling::{NeighborAccess, NeighborhoodSampler};
use aligraph_tensor::Matrix;
use rand::Rng;
use std::collections::HashMap;

/// Reference to a hop-(k-1) input of a tape node: either a raw feature row
/// (`h^(0)`) or another tape node's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Child {
    /// `h^(0)_v = x_v`.
    Feature(VertexId),
    /// Output of tape node `i`.
    Node(usize),
}

/// One `(vertex, hop)` computation on the tape: where its inputs come from
/// and which row of its hop's [`HopBlock`] holds its values.
#[derive(Debug)]
struct TapeNode {
    k: usize,
    row: usize,
    child_self: Child,
    /// Range of [`EpisodeTape::children`] holding the sampled neighbors.
    child_nbrs: std::ops::Range<usize>,
}

/// The values of every hop-`k` tape node, one row per node in tape order.
#[derive(Debug, Default)]
struct HopBlock {
    /// Tape index of each planned row; rows beyond the flushed ones have no
    /// values yet.
    nodes: Vec<usize>,
    out_dim: usize,
    h_self: Vec<f32>,
    h_nbr: Vec<f32>,
    output: Vec<f32>,
    grad: Vec<f32>,
}

impl HopBlock {
    fn flushed_rows(&self) -> usize {
        self.output.len() / self.out_dim.max(1)
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.h_self.clear();
        self.h_nbr.clear();
        self.output.clear();
        self.grad.clear();
    }
}

fn row(block: &[f32], dim: usize, r: usize) -> &[f32] {
    &block[r * dim..(r + 1) * dim]
}

fn add_into(acc: &mut [f32], grad: &[f32]) {
    for (a, &b) in acc.iter_mut().zip(grad) {
        *a += b;
    }
}

/// Copies the chosen `rows` of a row-major block into a matrix.
fn gather(block: &[f32], dim: usize, rows: &[usize]) -> Matrix {
    let mut data = Vec::with_capacity(rows.len() * dim);
    for &r in rows {
        data.extend_from_slice(row(block, dim, r));
    }
    Matrix::from_vec(rows.len(), dim, data)
}

/// The forward tape of one mini-batch.
#[derive(Debug, Default)]
pub struct EpisodeTape {
    nodes: Vec<TapeNode>,
    /// Sampled-neighbor inputs of all nodes, back to back.
    children: Vec<Child>,
    /// `hops[k - 1]` holds the hop-`k` nodes' values.
    hops: Vec<HopBlock>,
    memo: HashMap<(u8, u32), usize>,
    memoize: bool,
    /// Accumulated gradients w.r.t. input feature rows (for models with
    /// trainable input embeddings).
    pub feature_grads: HashMap<u32, Vec<f32>>,
    hits: u64,
    misses: u64,
}

impl EpisodeTape {
    /// A tape with per-(vertex, hop) memoization — the §3.4 optimization.
    pub fn new() -> Self {
        EpisodeTape { memoize: true, ..Default::default() }
    }

    /// A tape that recomputes every embedding — the Table 5 baseline.
    pub fn without_memoization() -> Self {
        EpisodeTape { memoize: false, ..Default::default() }
    }

    /// Clears the tape for the next mini-batch (capacity retained).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.children.clear();
        self.hops.iter_mut().for_each(HopBlock::clear);
        self.memo.clear();
        self.feature_grads.clear();
    }

    /// Number of tape nodes (computations actually performed).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// `(memo hits, computations)` since creation — Table 5's evidence.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The output embedding of a (flushed) tape node.
    pub fn output(&self, idx: usize) -> &[f32] {
        let node = &self.nodes[idx];
        let block = &self.hops[node.k - 1];
        row(&block.output, block.out_dim, node.row)
    }

    /// Adds `grad` to a (flushed) node's output gradient (called by the
    /// loss).
    pub fn add_grad(&mut self, idx: usize, grad: &[f32]) {
        let node = &self.nodes[idx];
        let block = &mut self.hops[node.k - 1];
        add_into(&mut block.grad[node.row * block.out_dim..][..block.out_dim], grad);
    }

    /// `h^(k-1)` behind a child reference, borrowed from the features or
    /// from the hop block below.
    fn resolve<'a>(&'a self, features: &'a FeatureMatrix, c: Child) -> &'a [f32] {
        match c {
            Child::Feature(v) => features.row(v),
            Child::Node(i) => self.output(i),
        }
    }
}

/// The trainable Algorithm 1 encoder: one COMBINE per hop plus a shared
/// AGGREGATE, both pluggable.
pub struct GnnEncoder {
    /// Fan-out at each hop (`hop_nums`); length = `kmax`.
    pub fanouts: Vec<usize>,
    aggregator: Box<dyn Aggregator>,
    combiners: Vec<Box<dyn Combiner>>,
    dims: Vec<usize>,
    dim_in: usize,
}

impl std::fmt::Debug for GnnEncoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GnnEncoder")
            .field("fanouts", &self.fanouts)
            .field("dims", &self.dims)
            .field("dim_in", &self.dim_in)
            .finish()
    }
}

impl GnnEncoder {
    /// A GraphSAGE-shaped encoder: mean aggregation + concat combine with
    /// `dims[k]` output units at hop `k+1`.
    pub fn sage(dim_in: usize, dims: &[usize], fanouts: &[usize], lr: f32, seed: u64) -> Self {
        assert_eq!(dims.len(), fanouts.len(), "one fanout per hop");
        let mut combiners: Vec<Box<dyn Combiner>> = Vec::with_capacity(dims.len());
        let mut prev = dim_in;
        for (k, &d) in dims.iter().enumerate() {
            combiners.push(Box::new(ConcatCombiner::new(
                prev,
                d,
                if k + 1 == dims.len() { Activation::Linear } else { Activation::Relu },
                lr,
                seed.wrapping_add(k as u64),
            )));
            prev = d;
        }
        GnnEncoder {
            fanouts: fanouts.to_vec(),
            aggregator: Box::new(MeanAggregator),
            combiners,
            dims: dims.to_vec(),
            dim_in,
        }
    }

    /// A fully custom encoder from plugin operators. `combiners[k]` must map
    /// hop-`k` inputs to `dims[k]` outputs.
    pub fn custom(
        dim_in: usize,
        dims: Vec<usize>,
        fanouts: Vec<usize>,
        aggregator: Box<dyn Aggregator>,
        combiners: Vec<Box<dyn Combiner>>,
    ) -> Self {
        assert_eq!(dims.len(), fanouts.len());
        assert_eq!(dims.len(), combiners.len());
        GnnEncoder { fanouts, aggregator, combiners, dims, dim_in }
    }

    /// Number of hops `kmax`.
    pub fn kmax(&self) -> usize {
        self.dims.len()
    }

    /// Output embedding dimension.
    pub fn out_dim(&self) -> usize {
        // invariant: SageConfig validates dims is non-empty at construction
        *self.dims.last().expect("at least one hop")
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.dim_in
    }

    /// Width of `h^(k-1)`, the input of hop `k`.
    fn hop_in_dim(&self, k: usize) -> usize {
        if k == 1 {
            self.dim_in
        } else {
            self.dims[k - 2]
        }
    }

    /// Forward pass: computes `h^(kmax)_v` on the tape and returns its node
    /// index. Neighborhoods are read through `access` and subsampled by
    /// `sampler` with this encoder's fan-outs.
    pub fn forward<A: NeighborAccess, S: NeighborhoodSampler, R: Rng>(
        &self,
        access: &A,
        features: &FeatureMatrix,
        sampler: &S,
        v: VertexId,
        tape: &mut EpisodeTape,
        rng: &mut R,
    ) -> usize {
        let idx = self.plan(access, sampler, v, tape, rng);
        self.flush(features, tape);
        idx
    }

    /// [`forward`](Self::forward) for every root with one flush: the same
    /// node indices, outputs, tape and RNG state as calling it per root, at
    /// one COMBINE per hop for the whole batch.
    pub fn forward_batch<A: NeighborAccess, S: NeighborhoodSampler, R: Rng>(
        &self,
        access: &A,
        features: &FeatureMatrix,
        sampler: &S,
        roots: &[VertexId],
        tape: &mut EpisodeTape,
        rng: &mut R,
    ) -> Vec<usize> {
        let idxs = roots.iter().map(|&v| self.plan(access, sampler, v, tape, rng)).collect();
        self.flush(features, tape);
        idxs
    }

    /// Plan phase for one root: pushes the tape nodes `h^(kmax)_v` needs and
    /// returns the root's node index. Its values exist after the next
    /// [`flush`](Self::flush).
    pub(crate) fn plan<A: NeighborAccess, S: NeighborhoodSampler, R: Rng>(
        &self,
        access: &A,
        sampler: &S,
        v: VertexId,
        tape: &mut EpisodeTape,
        rng: &mut R,
    ) -> usize {
        tape.hops.resize_with(self.kmax(), HopBlock::default);
        self.plan_hop(access, sampler, v, self.kmax(), tape, rng)
    }

    fn plan_hop<A: NeighborAccess, S: NeighborhoodSampler, R: Rng>(
        &self,
        access: &A,
        sampler: &S,
        v: VertexId,
        k: usize,
        tape: &mut EpisodeTape,
        rng: &mut R,
    ) -> usize {
        debug_assert!(k >= 1);
        if tape.memoize {
            if let Some(&idx) = tape.memo.get(&(k as u8, v.0)) {
                tape.hits += 1;
                return idx;
            }
        }
        tape.misses += 1;

        // SAMPLE: fan-out for hop k (deeper hops use later fanout entries).
        let sampled = sampler.sample_one(v, access.neighbors(v, k), self.fanouts[k - 1], rng);

        // Recurse: h^(k-1) of self and of each sampled neighbor.
        let mut child = |u: VertexId, tape: &mut EpisodeTape| {
            if k == 1 {
                Child::Feature(u)
            } else {
                Child::Node(self.plan_hop(access, sampler, u, k - 1, tape, rng))
            }
        };
        let child_self = child(v, tape);
        let nbrs: Vec<Child> = sampled.iter().map(|&u| child(u, tape)).collect();
        let first = tape.children.len();
        tape.children.extend(nbrs);

        let idx = tape.nodes.len();
        let block = &mut tape.hops[k - 1];
        let row = block.nodes.len();
        block.nodes.push(idx);
        tape.nodes.push(TapeNode { k, row, child_self, child_nbrs: first..tape.children.len() });
        if tape.memoize {
            tape.memo.insert((k as u8, v.0), idx);
        }
        idx
    }

    /// Flush phase: for hop `k = 1..kmax`, AGGREGATE every planned node into
    /// one stacked block and COMBINE the block in one call.
    pub(crate) fn flush(&self, features: &FeatureMatrix, tape: &mut EpisodeTape) {
        for k in 1..=tape.hops.len() {
            let block = &tape.hops[k - 1];
            let pending = &block.nodes[block.flushed_rows()..];
            if pending.is_empty() {
                continue;
            }
            let in_dim = self.hop_in_dim(k);
            let mut h_self = Matrix::zeros(pending.len(), in_dim);
            let mut h_nbr = Matrix::zeros(pending.len(), in_dim);
            let mut nbrs: Vec<&[f32]> = Vec::new();
            for (r, &i) in pending.iter().enumerate() {
                let node = &tape.nodes[i];
                let own = tape.resolve(features, node.child_self);
                h_self.row_mut(r).copy_from_slice(own);
                nbrs.clear();
                let kids = &tape.children[node.child_nbrs.clone()];
                nbrs.extend(kids.iter().map(|&c| tape.resolve(features, c)));
                self.aggregator.forward(own, &nbrs, h_nbr.row_mut(r));
            }
            let output = self.combiners[k - 1].forward(&h_self, &h_nbr);

            let block = &mut tape.hops[k - 1];
            block.out_dim = output.cols;
            block.h_self.extend_from_slice(h_self.as_slice());
            block.h_nbr.extend_from_slice(h_nbr.as_slice());
            block.output.extend_from_slice(output.as_slice());
            block.grad.resize(block.output.len(), 0.0);
        }
    }

    /// Backward pass: consumes the gradients seeded with
    /// [`EpisodeTape::add_grad`] and accumulates parameter gradients in the
    /// combiners (and feature gradients on the tape). Call
    /// [`step`](Self::step) afterwards to apply them.
    ///
    /// Hops run `kmax..1`; within a hop the nodes that received a gradient
    /// are stacked in descending tape order, which is the order a
    /// node-at-a-time reverse sweep would add their terms to `dW` and to
    /// each input's gradient.
    pub fn backward(&mut self, tape: &mut EpisodeTape, features: &FeatureMatrix) {
        let EpisodeTape { nodes, children, hops, feature_grads, .. } = tape;
        for k in (1..=hops.len()).rev() {
            let (below, at) = hops.split_at_mut(k - 1);
            let block = &at[0];
            let (in_dim, out_dim) = (self.hop_in_dim(k), block.out_dim);
            let rows: Vec<usize> = (0..block.flushed_rows())
                .rev()
                .filter(|&r| row(&block.grad, out_dim, r).iter().any(|&g| g != 0.0))
                .collect();
            if rows.is_empty() {
                continue;
            }
            let (d_self, d_nbr) = self.combiners[k - 1].backward(
                &gather(&block.h_self, in_dim, &rows),
                &gather(&block.h_nbr, in_dim, &rows),
                &gather(&block.output, out_dim, &rows),
                &gather(&block.grad, out_dim, &rows),
            );

            // Inputs live in the hop block below (k > 1) or in the features.
            let (below_out, below_grad): (&[f32], &mut [f32]) = match below.last_mut() {
                Some(HopBlock { output, grad, .. }) => (output, grad),
                None => (&[], &mut []),
            };
            let mut route = |child: Child, grad: &[f32]| match child {
                Child::Node(j) => {
                    add_into(&mut below_grad[nodes[j].row * in_dim..][..in_dim], grad)
                }
                Child::Feature(v) => add_into(
                    feature_grads.entry(v.0).or_insert_with(|| vec![0.0; grad.len()]),
                    grad,
                ),
            };
            let mut nbrs: Vec<&[f32]> = Vec::new();
            let mut nbr_grads: Vec<Vec<f32>> = Vec::new();
            for (i, &r) in rows.iter().enumerate() {
                let node = &nodes[block.nodes[r]];
                route(node.child_self, d_self.row(i));

                // AGGREGATE backward: distribute d_nbr to each sampled neighbor.
                let kids = &children[node.child_nbrs.clone()];
                if kids.is_empty() {
                    continue;
                }
                nbrs.clear();
                nbrs.extend(kids.iter().map(|&c| match c {
                    Child::Feature(v) => features.row(v),
                    Child::Node(j) => row(below_out, in_dim, nodes[j].row),
                }));
                nbr_grads.resize(kids.len(), Vec::new());
                for g in &mut nbr_grads {
                    g.clear();
                    g.resize(in_dim, 0.0);
                }
                let own = row(&block.h_self, in_dim, r);
                self.aggregator.backward(own, &nbrs, d_nbr.row(i), &mut nbr_grads);
                for (&c, g) in kids.iter().zip(&nbr_grads) {
                    route(c, g);
                }
            }
        }
    }

    /// Applies accumulated parameter gradients, averaged over `batch`.
    pub fn step(&mut self, batch: usize) {
        for c in &mut self.combiners {
            c.step(batch);
        }
    }

    /// All dense (combiner) parameters flattened in hop order — the unit the
    /// distributed runtime averages at epoch-boundary allreduce.
    pub fn dense_param_vec(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for c in &self.combiners {
            out.extend(c.param_vec());
        }
        out
    }

    /// Overwrites combiner parameters from the
    /// [`dense_param_vec`](Self::dense_param_vec) layout.
    pub fn load_dense_param_vec(&mut self, params: &[f32]) -> Result<(), String> {
        let mut rest = params;
        for c in &mut self.combiners {
            let n = c.param_vec().len();
            if rest.len() < n {
                return Err(format!("dense params exhausted: need {n}, have {}", rest.len()));
            }
            c.load_param_vec(&rest[..n])?;
            rest = &rest[n..];
        }
        if !rest.is_empty() {
            return Err(format!("{} trailing values in dense params", rest.len()));
        }
        Ok(())
    }

    /// Parameters plus optimizer state of every combiner (length-prefixed per
    /// combiner, lengths bit-stored in `f32`) — the checkpoint payload.
    pub fn dense_state_vec(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for c in &self.combiners {
            let s = c.state_vec();
            out.push(f32::from_bits(s.len() as u32));
            out.extend(s);
        }
        out
    }

    /// Restores state captured by [`dense_state_vec`](Self::dense_state_vec).
    pub fn load_dense_state_vec(&mut self, state: &[f32]) -> Result<(), String> {
        let mut rest = state;
        for (k, c) in self.combiners.iter_mut().enumerate() {
            let (len, tail) = rest
                .split_first()
                .ok_or_else(|| format!("dense state exhausted at combiner {k}"))?;
            let len = len.to_bits() as usize;
            if tail.len() < len {
                return Err(format!("combiner {k} state section {len} > remaining {}", tail.len()));
            }
            c.load_state_vec(&tail[..len])?;
            rest = &tail[len..];
        }
        if !rest.is_empty() {
            return Err(format!("{} trailing values in dense state", rest.len()));
        }
        Ok(())
    }

    /// Inference: embeds `seeds` (memoized, no gradients kept afterwards)
    /// and returns an L2-normalized `seeds.len() x out_dim` matrix —
    /// Algorithm 1's final normalize step.
    pub fn embed_batch<A: NeighborAccess, S: NeighborhoodSampler, R: Rng>(
        &self,
        access: &A,
        features: &FeatureMatrix,
        sampler: &S,
        seeds: &[VertexId],
        rng: &mut R,
    ) -> Matrix {
        let mut tape = EpisodeTape::new();
        let idxs = self.forward_batch(access, features, sampler, seeds, &mut tape, rng);
        let mut out = Matrix::zeros(seeds.len(), self.out_dim());
        for (i, idx) in idxs.into_iter().enumerate() {
            out.row_mut(i).copy_from_slice(tape.output(idx));
        }
        out.l2_normalize_rows();
        out
    }
}

/// A NEIGHBORHOOD "sampler" that keeps the whole neighborhood (up to the
/// requested fan-out cap) — GCN's full-neighborhood convolution expressed as
/// an Algorithm 1 plugin.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullNeighborhood;

impl NeighborhoodSampler for FullNeighborhood {
    fn sample_one<R: Rng>(
        &self,
        _target: VertexId,
        nbrs: &[aligraph_graph::Neighbor],
        count: usize,
        _rng: &mut R,
    ) -> Vec<VertexId> {
        nbrs.iter().take(count).map(|n| n.vertex).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_graph::Featurizer;
    use aligraph_sampling::UniformNeighborhood;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (aligraph_graph::AttributedHeterogeneousGraph, FeatureMatrix) {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let f = Featurizer::new(16).matrix(&g);
        (g, f)
    }

    #[test]
    fn forward_produces_out_dim_embeddings() {
        let (g, f) = setup();
        let enc = GnnEncoder::sage(16, &[32, 8], &[5, 3], 0.01, 1);
        assert_eq!(enc.kmax(), 2);
        assert_eq!(enc.out_dim(), 8);
        let mut tape = EpisodeTape::new();
        let mut rng = StdRng::seed_from_u64(1);
        let idx = enc.forward(&g, &f, &UniformNeighborhood, VertexId(0), &mut tape, &mut rng);
        assert_eq!(tape.output(idx).len(), 8);
        assert!(!tape.is_empty());
    }

    #[test]
    fn memoization_reduces_computation() {
        let (g, f) = setup();
        let enc = GnnEncoder::sage(16, &[16, 16], &[8, 4], 0.01, 2);
        let seeds: Vec<VertexId> = g.vertices().take(32).collect();

        let mut memo_tape = EpisodeTape::new();
        let mut rng = StdRng::seed_from_u64(3);
        for &v in &seeds {
            enc.forward(&g, &f, &UniformNeighborhood, v, &mut memo_tape, &mut rng);
        }
        let mut plain_tape = EpisodeTape::without_memoization();
        let mut rng = StdRng::seed_from_u64(3);
        for &v in &seeds {
            enc.forward(&g, &f, &UniformNeighborhood, v, &mut plain_tape, &mut rng);
        }
        assert!(
            memo_tape.len() < plain_tape.len(),
            "memoized {} vs plain {}",
            memo_tape.len(),
            plain_tape.len()
        );
        assert!(memo_tape.stats().0 > 0, "expected memo hits");
        assert_eq!(plain_tape.stats().0, 0);
    }

    #[test]
    fn backward_accumulates_and_training_moves_embeddings() {
        let (g, f) = setup();
        let mut enc = GnnEncoder::sage(16, &[16], &[4], 0.05, 4);
        let v = VertexId(0);
        let mut rng = StdRng::seed_from_u64(5);

        let before = {
            let mut tape = EpisodeTape::new();
            let idx = enc.forward(&g, &f, &UniformNeighborhood, v, &mut tape, &mut rng);
            tape.output(idx).to_vec()
        };
        // Push the embedding toward all-ones for a few steps.
        for _ in 0..20 {
            let mut tape = EpisodeTape::new();
            let idx = enc.forward(&g, &f, &UniformNeighborhood, v, &mut tape, &mut rng);
            let grad: Vec<f32> = tape.output(idx).iter().map(|&o| o - 1.0).collect();
            tape.add_grad(idx, &grad);
            enc.backward(&mut tape, &f);
            enc.step(1);
        }
        let after = {
            let mut tape = EpisodeTape::new();
            let idx = enc.forward(&g, &f, &UniformNeighborhood, v, &mut tape, &mut rng);
            tape.output(idx).to_vec()
        };
        let dist = |x: &[f32]| -> f32 { x.iter().map(|&a| (a - 1.0) * (a - 1.0)).sum() };
        assert!(dist(&after) < dist(&before), "{} -> {}", dist(&before), dist(&after));
    }

    #[test]
    fn feature_grads_populated() {
        let (g, f) = setup();
        let mut enc = GnnEncoder::sage(16, &[8], &[4], 0.01, 6);
        let mut tape = EpisodeTape::new();
        let mut rng = StdRng::seed_from_u64(7);
        let idx = enc.forward(&g, &f, &UniformNeighborhood, VertexId(1), &mut tape, &mut rng);
        tape.add_grad(idx, &[1.0; 8]);
        enc.backward(&mut tape, &f);
        assert!(!tape.feature_grads.is_empty());
        // The target vertex itself must receive a feature gradient.
        assert!(tape.feature_grads.contains_key(&1));
    }

    #[test]
    fn embed_batch_is_normalized() {
        let (g, f) = setup();
        let enc = GnnEncoder::sage(16, &[8, 8], &[4, 2], 0.01, 8);
        let seeds: Vec<VertexId> = g.vertices().take(10).collect();
        let mut rng = StdRng::seed_from_u64(9);
        let m = enc.embed_batch(&g, &f, &UniformNeighborhood, &seeds, &mut rng);
        assert_eq!((m.rows, m.cols), (10, 8));
        for r in 0..m.rows {
            let n: f32 = m.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-3 || n < 1e-6, "row {r} norm {n}");
        }
    }

    #[test]
    fn full_neighborhood_keeps_all_up_to_cap() {
        let (g, _) = setup();
        let v = g.vertices().find(|&v| g.out_degree(v) >= 3).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let all = FullNeighborhood.sample_one(v, g.out_neighbors(v), usize::MAX, &mut rng);
        assert_eq!(all.len(), g.out_degree(v));
        let capped = FullNeighborhood.sample_one(v, g.out_neighbors(v), 2, &mut rng);
        assert_eq!(capped.len(), 2);
    }

    #[test]
    fn dense_param_and_state_roundtrip() {
        let (g, f) = setup();
        let mut a = GnnEncoder::sage(16, &[8, 4], &[4, 2], 0.05, 20);
        let mut rng = StdRng::seed_from_u64(21);
        // A few training steps so optimizer state is non-trivial.
        for _ in 0..3 {
            let mut tape = EpisodeTape::new();
            let idx = a.forward(&g, &f, &UniformNeighborhood, VertexId(0), &mut tape, &mut rng);
            tape.add_grad(idx, &[1.0; 4]);
            a.backward(&mut tape, &f);
            a.step(1);
        }
        // Param roundtrip into a differently seeded encoder.
        let mut b = GnnEncoder::sage(16, &[8, 4], &[4, 2], 0.05, 99);
        assert_ne!(a.dense_param_vec(), b.dense_param_vec());
        b.load_dense_param_vec(&a.dense_param_vec()).unwrap();
        assert_eq!(a.dense_param_vec(), b.dense_param_vec());
        // Full state roundtrip: the next optimizer step is bit-identical.
        let mut c = GnnEncoder::sage(16, &[8, 4], &[4, 2], 0.05, 7);
        c.load_dense_state_vec(&a.dense_state_vec()).unwrap();
        for enc in [&mut a, &mut c] {
            let mut tape = EpisodeTape::new();
            let mut r = StdRng::seed_from_u64(33);
            let idx = enc.forward(&g, &f, &UniformNeighborhood, VertexId(2), &mut tape, &mut r);
            tape.add_grad(idx, &[0.5; 4]);
            enc.backward(&mut tape, &f);
            enc.step(1);
        }
        for (x, y) in a.dense_param_vec().iter().zip(c.dense_param_vec()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Malformed buffers fail with errors, not panics.
        assert!(b.load_dense_param_vec(&[0.0; 3]).is_err());
        assert!(b.load_dense_state_vec(&[0.0; 1]).is_err());
        let mut long = a.dense_param_vec();
        long.push(0.0);
        assert!(b.load_dense_param_vec(&long).is_err());
    }

    #[test]
    fn tape_clear_resets() {
        let (g, f) = setup();
        let enc = GnnEncoder::sage(16, &[8], &[4], 0.01, 11);
        let mut tape = EpisodeTape::new();
        let mut rng = StdRng::seed_from_u64(12);
        enc.forward(&g, &f, &UniformNeighborhood, VertexId(0), &mut tape, &mut rng);
        assert!(!tape.is_empty());
        tape.clear();
        assert!(tape.is_empty());
        assert!(tape.feature_grads.is_empty());
    }
}

#[cfg(test)]
mod neural_aggregator_tests {
    use super::*;
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_graph::Featurizer;
    use aligraph_ops::{Activation, Combiner, ConcatCombiner, LstmAggregator, PoolNnAggregator};
    use aligraph_sampling::UniformNeighborhood;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The paper's named AGGREGATE variants (LSTM, max-pooling network) slot
    /// into Algorithm 1 through the same plugin seam as the mean aggregator.
    fn encoder_with(aggregator: Box<dyn Aggregator>) -> GnnEncoder {
        let combiners: Vec<Box<dyn Combiner>> = vec![
            Box::new(ConcatCombiner::new(16, 16, Activation::Relu, 0.01, 1)),
            Box::new(ConcatCombiner::new(16, 8, Activation::Linear, 0.01, 2)),
        ];
        GnnEncoder::custom(16, vec![16, 8], vec![5, 3], aggregator, combiners)
    }

    #[test]
    fn lstm_aggregator_composes_with_algorithm_1() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let f = Featurizer::new(16).matrix(&g);
        let mut enc = encoder_with(Box::new(LstmAggregator::new(16, 9)));
        let mut tape = EpisodeTape::new();
        let mut rng = StdRng::seed_from_u64(3);
        let idx = enc.forward(&g, &f, &UniformNeighborhood, VertexId(0), &mut tape, &mut rng);
        assert_eq!(tape.output(idx).len(), 8);
        assert!(tape.output(idx).iter().all(|x| x.is_finite()));
        // Backward runs through the straight-through LSTM route.
        tape.add_grad(idx, &[1.0; 8]);
        enc.backward(&mut tape, &f);
        enc.step(1);
    }

    #[test]
    fn pool_nn_aggregator_composes_with_algorithm_1() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let f = Featurizer::new(16).matrix(&g);
        let mut enc = encoder_with(Box::new(PoolNnAggregator::new(16, 0.01, 11)));
        let seeds: Vec<VertexId> = g.vertices().take(8).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let m = enc.embed_batch(&g, &f, &UniformNeighborhood, &seeds, &mut rng);
        assert_eq!((m.rows, m.cols), (8, 8));
        assert!(m.as_slice().iter().all(|x| x.is_finite()));
        // A training step with the trainable pooling layer in the loop.
        let mut tape = EpisodeTape::new();
        let idx = enc.forward(&g, &f, &UniformNeighborhood, seeds[0], &mut tape, &mut rng);
        tape.add_grad(idx, &[0.5; 8]);
        enc.backward(&mut tape, &f);
        enc.step(1);
    }
}
