//! Dense vertex features from AHG attributes.
//!
//! The GNN framework (Algorithm 1) initializes `h_v^(0) = x_v` from a vertex
//! feature vector. Production systems learn or engineer those features; here
//! a deterministic **feature hashing** scheme maps arbitrary attribute
//! records into a fixed `f32` dimension so every model sees consistent,
//! attribute-derived inputs regardless of schema:
//!
//! * categorical/text fields switch on hashed indicator buckets,
//! * numeric fields contribute their (squashed) magnitude to hashed buckets,
//! * rows are L2-normalized, matching the normalization step of Algorithm 1.

use crate::attr::AttrValue;
use crate::graph::AttributedHeterogeneousGraph;
use crate::ids::VertexId;
use std::sync::Arc;

/// A dense `n x dim` row-major feature matrix, copy-on-write: `clone()`
/// shares the buffer (a pin), and a write copies it only while another
/// clone is alive.
#[derive(Debug, Clone, Default)]
pub struct FeatureMatrix {
    /// Feature dimension per vertex.
    pub dim: usize,
    data: Arc<[f32]>,
}

impl FeatureMatrix {
    /// Creates a zero matrix.
    pub fn zeros(n: usize, dim: usize) -> Self {
        FeatureMatrix { dim, data: std::iter::repeat_n(0.0, n * dim).collect() }
    }

    /// Number of rows (vertices).
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// True when the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Feature row of a vertex.
    #[inline]
    pub fn row(&self, v: VertexId) -> &[f32] {
        let d = self.dim;
        &self.data[v.index() * d..(v.index() + 1) * d]
    }

    /// Raw backing slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Raw backing slice, writable: the buffer is copied first if another
    /// clone shares it, and kept otherwise.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data)
    }
}

/// Deterministic attribute-to-feature hasher.
#[derive(Debug, Clone, Copy)]
pub struct Featurizer {
    /// Output feature dimension.
    pub dim: usize,
    salt: u64,
    identity: bool,
}

impl Featurizer {
    /// A featurizer producing `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Self {
        Featurizer { dim, salt: 0x9e37_79b9_7f4a_7c15, identity: false }
    }

    /// Uses a custom hash salt (distinct feature spaces for ablations).
    pub fn with_salt(dim: usize, salt: u64) -> Self {
        Featurizer { dim, salt, identity: false }
    }

    /// Also mixes hashed per-vertex identity probes into every vector —
    /// attribute profiles are interned and shared by many vertices (paper
    /// §3.2), so without identity signal a GNN cannot tell profile-sharing
    /// vertices apart. This is the standard identity-feature augmentation.
    pub fn with_identity(mut self) -> Self {
        self.identity = true;
        self
    }

    /// Features for one vertex, L2-normalized. Vertices with no attributes
    /// get a deterministic type-dependent basis vector so the GNN input is
    /// never all-zero.
    pub fn featurize_vertex(&self, graph: &AttributedHeterogeneousGraph, v: VertexId) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        self.featurize_into(graph, v, &mut out);
        out
    }

    /// As [`featurize_vertex`](Self::featurize_vertex) but writing into a
    /// caller-provided buffer.
    pub fn featurize_into(
        &self,
        graph: &AttributedHeterogeneousGraph,
        v: VertexId,
        out: &mut [f32],
    ) {
        debug_assert_eq!(out.len(), self.dim);
        out.fill(0.0);
        let attrs = graph.vertex_attrs(v);
        if attrs.is_empty() {
            // Structural fallback: vertex-type indicator + degree signal +
            // hashed identity buckets (without attributes, identity features
            // are what lets a GNN tell structurally similar vertices apart —
            // the standard featureless-GNN input).
            let t = graph.vertex_type(v).0 as u64;
            let b = (splitmix64(self.salt ^ t.wrapping_mul(0x517c_c1b7)) as usize) % self.dim;
            out[b] = 1.0;
            let deg_bucket =
                (splitmix64(self.salt ^ 0xdead ^ t) as usize).wrapping_add(1) % self.dim;
            out[deg_bucket] += squash(graph.out_degree(v) as f32);
            for probe in 0..2u64 {
                let h = splitmix64(self.salt ^ mix(probe, v.0 as u64));
                out[(h as usize) % self.dim] += if h & (1 << 61) == 0 { 0.7 } else { -0.7 };
            }
        } else {
            for (field, value) in attrs.0.iter().enumerate() {
                let field = field as u64;
                match value {
                    AttrValue::Categorical(c) => {
                        let h = splitmix64(self.salt ^ mix(field, *c as u64));
                        let b = (h as usize) % self.dim;
                        out[b] += if h & (1 << 63) == 0 { 1.0 } else { -1.0 };
                    }
                    AttrValue::Text(s) => {
                        let mut h = self.salt ^ field.wrapping_mul(0x100_0193);
                        for byte in s.bytes() {
                            h = splitmix64(h ^ byte as u64);
                        }
                        let b = (h as usize) % self.dim;
                        out[b] += if h & (1 << 62) == 0 { 1.0 } else { -1.0 };
                    }
                    AttrValue::Blob(bts) => {
                        let h = splitmix64(self.salt ^ mix(field, bts.len() as u64));
                        out[(h as usize) % self.dim] += 0.5;
                    }
                    AttrValue::Int(i) => {
                        let h = splitmix64(self.salt ^ field.wrapping_mul(0xabcd_ef12));
                        out[(h as usize) % self.dim] += squash(*i as f32);
                    }
                    AttrValue::Float(x) => {
                        let h = splitmix64(self.salt ^ field.wrapping_mul(0x0001_2345_6789));
                        out[(h as usize) % self.dim] += squash(*x);
                    }
                }
            }
        }
        if self.identity {
            for probe in 0..2u64 {
                let h = splitmix64(self.salt ^ mix(probe ^ 0x1d, v.0 as u64));
                out[(h as usize) % self.dim] += if h & (1 << 61) == 0 { 0.7 } else { -0.7 };
            }
        }
        l2_normalize(out);
    }

    /// Feature matrix for all vertices.
    pub fn matrix(&self, graph: &AttributedHeterogeneousGraph) -> FeatureMatrix {
        let mut m = FeatureMatrix::zeros(graph.num_vertices(), self.dim);
        let rows = m.as_mut_slice().chunks_exact_mut(self.dim.max(1));
        for (v, row) in graph.vertices().zip(rows) {
            self.featurize_into(graph, v, row);
        }
        m
    }
}

/// Signed log squash keeping magnitudes comparable across attribute scales.
fn squash(x: f32) -> f32 {
    x.signum() * (1.0 + x.abs()).ln()
}

fn l2_normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[inline]
fn mix(a: u64, b: u64) -> u64 {
    a.wrapping_mul(0x9e37_79b9).wrapping_add(b).rotate_left(17)
}

/// The SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer. The
/// featurizer hashes with it, and the hash partitioners place vertices by
/// it, so anything that must agree with their placement calls this one.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrVector;
    use crate::generate::TaobaoConfig;
    use crate::graph::GraphBuilder;
    use crate::ids::well_known::*;

    #[test]
    fn rows_are_unit_norm_and_deterministic() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let f = Featurizer::new(16);
        let m1 = f.matrix(&g);
        let m2 = f.matrix(&g);
        for v in g.vertices() {
            let row = m1.row(v);
            let norm: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-4, "norm {norm}");
            assert_eq!(row, m2.row(v));
        }
    }

    #[test]
    fn same_attrs_same_features() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let f = Featurizer::new(8);
        // Two vertices sharing an interned profile must share features.
        let mut by_attr: std::collections::HashMap<_, Vec<VertexId>> = Default::default();
        for v in g.vertices() {
            by_attr.entry(g.vertex_attr_id(v)).or_default().push(v);
        }
        let group = by_attr.values().find(|vs| vs.len() >= 2).expect("profiles repeat");
        assert_eq!(f.featurize_vertex(&g, group[0]), f.featurize_vertex(&g, group[1]));
    }

    #[test]
    fn attr_free_vertices_get_type_indicator() {
        let mut b = GraphBuilder::directed();
        let u = b.add_vertex(USER, AttrVector::empty());
        let i = b.add_vertex(ITEM, AttrVector::empty());
        let g = b.build();
        let f = Featurizer::new(32);
        let fu = f.featurize_vertex(&g, u);
        let fi = f.featurize_vertex(&g, i);
        assert!(fu.iter().any(|&x| x != 0.0));
        assert_ne!(fu, fi, "different types must separate");
    }

    #[test]
    fn salt_changes_feature_space() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let a = Featurizer::with_salt(16, 1).featurize_vertex(&g, VertexId(0));
        let b = Featurizer::with_salt(16, 2).featurize_vertex(&g, VertexId(0));
        assert_ne!(a, b);
    }

    #[test]
    fn matrix_shape() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let m = Featurizer::new(12).matrix(&g);
        assert_eq!(m.len(), g.num_vertices());
        assert_eq!(m.dim, 12);
        assert_eq!(m.as_slice().len(), g.num_vertices() * 12);
    }

    #[test]
    fn a_write_through_one_clone_leaves_the_other_unchanged() {
        let mut a = FeatureMatrix::zeros(3, 4);
        let b = a.clone();
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr(), "a clone is a pin");
        a.as_mut_slice()[9] = 7.0;
        assert_eq!((a.row(VertexId(2))[1], b.row(VertexId(2))[1]), (7.0, 0.0));
    }

    #[test]
    fn a_write_to_an_unshared_matrix_keeps_its_buffer() {
        let mut m = FeatureMatrix::zeros(3, 4);
        let buffer = m.as_slice().as_ptr();
        drop(m.clone());
        m.as_mut_slice()[6] = 5.0;
        assert_eq!(m.as_slice().as_ptr(), buffer);
        assert_eq!((m.row(VertexId(1))[2], m.row(VertexId(0))[2]), (5.0, 0.0));
    }
}
