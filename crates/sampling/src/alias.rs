//! Walker's alias method: O(n) build, O(1) weighted sampling.
//!
//! Used by the weighted TRAVERSE sampler, the unigram^0.75 NEGATIVE sampler,
//! the item-popularity machinery in the benchmarks, and — through
//! [`IncrementalAlias`] — the streaming update plane, which repairs one
//! vertex's table in place after an edge event instead of rebuilding every
//! table in the store.

use rand::Rng;

/// Reusable scratch for [`build_into`]: the f64 intermediate probabilities
/// and the small/large work stacks. Keeping these between repairs makes an
/// in-place rebuild allocation-free once the buffers have grown to the row's
/// degree.
#[derive(Debug, Default)]
struct BuildScratch {
    prob64: Vec<f64>,
    small: Vec<usize>,
    large: Vec<usize>,
}

/// Scratch is working memory, not state: a copy starts with none (the
/// plane clones a table per published version; copying three dead buffers
/// along would be most of that clone).
impl Clone for BuildScratch {
    fn clone(&self) -> Self {
        BuildScratch::default()
    }
}

/// The Walker build, writing into caller-owned buffers. Returns `false`
/// (leaving `prob`/`alias` empty) when `weights` is empty or its sum is not
/// a positive finite number.
///
/// This is the *only* build routine: [`AliasTable::new`] and
/// [`IncrementalAlias::repair`] both funnel through it, which is what makes
/// incremental repair bit-exact against a from-scratch rebuild — same input
/// weights, same f64 op sequence, same stacks, same output bits.
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

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// The acceptance probabilities (for bit-exact equivalence oracles).
    pub fn probs(&self) -> &[f32] {
        &self.prob
    }

    /// True when the table is over zero outcomes (never constructed so).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome index.
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
/// sampling a dirty table is a logic error (checked in debug builds).
#[derive(Debug, Clone, Default)]
pub struct IncrementalAlias {
    weights: Vec<f32>,
    table: AliasTable,
    /// Whether `table` currently describes a sampleable distribution
    /// (weights non-empty with a positive finite sum).
    valid: bool,
    dirty: bool,
    scratch: BuildScratch,
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

    /// Rebuilds the prob/alias arrays in place from the current weights,
    /// reusing all buffers. Returns whether the table is sampleable.
    pub fn repair(&mut self) -> bool {
        self.valid = build_into(
            &self.weights,
            &mut self.scratch,
            &mut self.table.prob,
            &mut self.table.alias,
        );
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
        self.table().map(|t| t.sample(rng))
    }

    /// Bit-exact equivalence oracle against a from-scratch rebuild: `true`
    /// iff `AliasTable::new(self.weights())` yields exactly this table
    /// (including agreeing that the weights are degenerate).
    pub fn bit_eq_rebuild(&self) -> bool {
        match (AliasTable::new(&self.weights), self.valid) {
            (Some(fresh), true) => {
                fresh.prob.len() == self.table.prob.len()
                    && fresh
                        .prob
                        .iter()
                        .zip(&self.table.prob)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
                    && fresh.alias == self.table.alias
            }
            (None, false) => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
