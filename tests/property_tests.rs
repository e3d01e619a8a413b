//! Property-based tests (proptest) on the platform's core invariants.

use aligraph_suite::chaos::{RetryPolicy, Sequencer, MAX_BACKOFF_TICKS};
use aligraph_suite::eval::{best_f1, macro_f1, micro_f1, pr_auc, roc_auc};
use aligraph_suite::graph::generate::{erdos_renyi, TaobaoConfig};
use aligraph_suite::graph::Featurizer;
use aligraph_suite::graph::{AttrValue, AttrVector, EdgeType, GraphBuilder, VertexId, VertexType};
use aligraph_suite::partition::{EdgeCutHash, Partitioner, StreamingLdg, VertexCutGreedy};
use aligraph_suite::sampling::{AliasTable, EpochView, IncrementalAlias};
use aligraph_suite::storage::{LruCache, Published};
use aligraph_suite::streaming::{UpdateBatch, UpdateEvent};
use aligraph_suite::tensor::Matrix;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Builder invariant: degrees sum to the number of directed records and
    /// in-degrees mirror out-degrees.
    #[test]
    fn graph_degree_conservation(edges in prop::collection::vec((0u32..40, 0u32..40, 0u8..3), 1..120)) {
        let mut b = GraphBuilder::directed();
        b.add_vertices(VertexType(0), 40);
        for &(s, d, t) in &edges {
            b.add_edge(VertexId(s), VertexId(d), EdgeType(t), 1.0).unwrap();
        }
        let g = b.build();
        let out_sum: usize = g.vertices().map(|v| g.out_degree(v)).sum();
        let in_sum: usize = g.vertices().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, edges.len());
        prop_assert_eq!(in_sum, edges.len());
        prop_assert_eq!(g.num_edge_records(), edges.len());
        // Typed sub-slices partition the adjacency.
        for v in g.vertices() {
            let total: usize = (0..g.num_edge_types())
                .map(|t| g.out_neighbors_typed(v, EdgeType(t)).len())
                .sum();
            prop_assert_eq!(total, g.out_degree(v));
        }
    }

    /// Attribute interning: identical records always map to the same id;
    /// resolution is exact.
    #[test]
    fn attr_interning_roundtrip(vals in prop::collection::vec(-1000i64..1000, 0..6)) {
        let mut b = GraphBuilder::directed();
        let rec = AttrVector(vals.iter().map(|&v| AttrValue::Int(v)).collect());
        let v1 = b.add_vertex(VertexType(0), rec.clone());
        let v2 = b.add_vertex(VertexType(0), rec.clone());
        let g = b.build();
        prop_assert_eq!(g.vertex_attr_id(v1), g.vertex_attr_id(v2));
        prop_assert_eq!(g.vertex_attrs(v1), &rec);
    }

    /// Alias tables only ever produce in-range indices, and zero-weight
    /// outcomes are never drawn.
    #[test]
    fn alias_table_in_range(weights in prop::collection::vec(0.0f32..10.0, 1..64), seed in 0u64..1000) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let table = AliasTable::new(&weights).unwrap();
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        for _ in 0..200 {
            let i = table.sample(&mut rng);
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "drew zero-weight outcome {}", i);
        }
    }

    /// The LRU never exceeds capacity and always returns what was inserted
    /// most recently for a key.
    #[test]
    fn lru_capacity_and_freshness(ops in prop::collection::vec((0u32..20, 0u32..100), 1..200), cap in 1usize..16) {
        let mut lru = LruCache::new(cap);
        let mut latest = std::collections::BTreeMap::new();
        for &(k, v) in &ops {
            lru.put(k, v);
            latest.insert(k, v);
            prop_assert!(lru.len() <= cap);
        }
        for (k, v) in &latest {
            if let Some(got) = lru.peek(k) {
                prop_assert_eq!(got, v);
            }
        }
    }

    /// Metric bounds: every classification metric stays in [0, 1].
    #[test]
    fn metric_bounds(scored in prop::collection::vec((-10.0f32..10.0, prop::bool::ANY), 1..100)) {
        let auc = roc_auc(&scored);
        let pr = pr_auc(&scored);
        let f1 = best_f1(&scored);
        prop_assert!((0.0..=1.0).contains(&auc), "auc {}", auc);
        prop_assert!((0.0..=1.0).contains(&pr), "pr {}", pr);
        prop_assert!((0.0..=1.0).contains(&f1), "f1 {}", f1);
    }

    /// Multi-class F1: micro equals accuracy; both bounded; perfect
    /// predictions give exactly 1.
    #[test]
    fn multiclass_f1_properties(truth in prop::collection::vec(0usize..4, 1..60)) {
        prop_assert!((micro_f1(&truth, &truth) - 1.0).abs() < 1e-12);
        prop_assert!((macro_f1(&truth, &truth, 4) - 1.0).abs() < 1e-12);
        let wrong: Vec<usize> = truth.iter().map(|&t| (t + 1) % 4).collect();
        prop_assert_eq!(micro_f1(&wrong, &truth), 0.0);
    }

    /// Partitioners are total: every vertex owned, every owner in range.
    #[test]
    fn partitioners_total(n in 2usize..60, m in 1usize..150, p in 1usize..9, seed in 0u64..100) {
        let g = erdos_renyi(n, m, seed).unwrap();
        for partitioner in [&EdgeCutHash as &dyn Partitioner, &VertexCutGreedy::default(), &StreamingLdg::default()] {
            let part = partitioner.partition(&g, p);
            prop_assert_eq!(part.vertex_owner.len(), n);
            prop_assert!(part.vertex_owner.iter().all(|w| w.index() < part.num_workers));
            prop_assert!(part.edge_owner.iter().all(|w| w.index() < part.num_workers));
        }
    }

    /// Matrix algebra invariants: (A B)ᵀ = Bᵀ Aᵀ on random shapes.
    #[test]
    fn matmul_transpose_identity(r in 1usize..6, k in 1usize..6, c in 1usize..6, seed in 0u64..50) {
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let a = Matrix::uniform(r, k, 1.0, &mut rng);
        let b = Matrix::uniform(k, c, 1.0, &mut rng);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Float contract: on any shape, every element of the three blocked
    /// products is the left-to-right sum over ascending `k` from `+0.0`,
    /// one rounded multiply and one rounded add per term.
    #[test]
    fn blocked_products_keep_the_scalar_summation_order(
        m in 0usize..23, k in 0usize..70, n in 1usize..41, seed in 0u64..1000,
    ) {
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let a = Matrix::uniform(m, k, 1.0, &mut rng);
        let b = Matrix::uniform(k, n, 1.0, &mut rng);
        let want = Matrix::from_fn(m, n, |i, j| (0..k).fold(0.0, |s, t| s + a.get(i, t) * b.get(t, j)));
        let (at, bt) = (a.transpose(), b.transpose());
        for got in [a.matmul(&b), a.matmul_transpose(&bt), at.transpose_matmul(&b)] {
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Link-prediction splits conserve edges and never leak a held-out
    /// positive into the training graph beyond its multiplicity.
    #[test]
    fn split_conserves_edges(frac in 0.05f64..0.5, seed in 0u64..30) {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let split = aligraph_suite::eval::link_prediction_split(&g, frac, seed);
        prop_assert_eq!(
            split.train.num_edge_records() + split.test_pos.len(),
            g.num_edge_records()
        );
        // Negatives are never true edges.
        for neg in split.test_neg.iter().take(20) {
            let is_edge = g
                .out_neighbors_typed(neg.src, neg.etype)
                .iter()
                .any(|n| n.vertex == neg.dst);
            prop_assert!(!is_edge);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chaos recovery invariant: the retry backoff schedule is monotone
    /// non-decreasing and capped at [`MAX_BACKOFF_TICKS`] for arbitrary
    /// bases and attempt counts, and the deadline always admits the first
    /// send.
    #[test]
    fn backoff_schedule_is_monotone_and_capped(
        base in 0u64..1_000_000_000_000,
        max_attempts in 0u32..300,
        probe in 1u32..400,
    ) {
        let p = RetryPolicy { base_ticks: base, max_attempts };
        prop_assert_eq!(p.backoff_ticks(0), 0);
        let mut prev = 0u64;
        for attempt in 1..probe {
            let t = p.backoff_ticks(attempt);
            prop_assert!(t >= prev, "attempt {}: backoff {} < previous {}", attempt, t, prev);
            prop_assert!(t <= MAX_BACKOFF_TICKS, "attempt {}: backoff {} over cap", attempt, t);
            prev = t;
        }
        // Attempt 0 (the first send) is always inside the deadline; the
        // deadline itself is never.
        prop_assert!(!p.exhausted(0));
        prop_assert!(p.exhausted(max_attempts.max(1)));
    }

    /// Chaos recovery invariant: sequence-numbered delivery is idempotent
    /// and in-order under arbitrary duplication and reordering — every
    /// payload comes out exactly once, sorted, and replaying the entire
    /// arrival storm afterwards delivers nothing.
    #[test]
    fn sequencer_is_idempotent_under_dup_and_reorder(
        n in 1usize..32,
        swaps in prop::collection::vec((0usize..64, 0usize..64), 0..64),
        dups in prop::collection::vec(0usize..64, 0..32),
    ) {
        // An arbitrary permutation of seqs 0..n, then arbitrary duplicates
        // spliced in at arbitrary positions (a dup may even arrive before
        // its original — the lost-ack resend beating the first copy).
        let mut arrivals: Vec<u64> = (0..n as u64).collect();
        for &(i, j) in &swaps {
            arrivals.swap(i % n, j % n);
        }
        for &d in &dups {
            let dup = (d % n) as u64;
            let at = d % (arrivals.len() + 1);
            arrivals.insert(at, dup);
        }

        let mut s = Sequencer::new();
        let mut out = Vec::new();
        for &seq in &arrivals {
            out.extend(s.offer(seq, seq));
        }
        prop_assert_eq!(out, (0..n as u64).collect::<Vec<_>>());
        prop_assert_eq!(s.delivered(), n as u64);
        prop_assert_eq!(s.pending(), 0);
        for &seq in &arrivals {
            prop_assert!(s.offer(seq, seq).is_empty(), "replayed seq {} re-delivered", seq);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streaming invariant (ISSUE 6): an incrementally repaired alias table
    /// is bit-identical to a from-scratch rebuild of its current weights,
    /// for any initial row and any set/push/remove edit script — including
    /// degenerate transitions through empty and all-zero rows.
    #[test]
    fn incremental_alias_repair_matches_full_rebuild(
        init in prop::collection::vec(0.0f32..10.0, 0..24),
        edits in prop::collection::vec((0u8..3, 0usize..64, 0.0f32..10.0), 0..40),
    ) {
        let mut inc = IncrementalAlias::new(init.clone());
        prop_assert!(inc.bit_eq_rebuild(), "fresh table diverged");
        for &(op, i, w) in &edits {
            match op {
                0 => inc.push(w),
                1 if !inc.is_empty() => inc.set(i % inc.len(), w),
                2 if !inc.is_empty() => inc.remove(i % inc.len()),
                _ => {}
            }
            inc.repair();
            prop_assert!(inc.bit_eq_rebuild(), "diverged after ({}, {}, {})", op, i, w);
        }
    }

    /// Publish-cell invariant over plane views: published epochs are
    /// strictly increasing, the head never runs backwards, no pinned session
    /// ever observes the cell below its pin — and a pin's rows and features
    /// stay bit-unchanged however many later batches are applied on top of
    /// it (a published version is never written again).
    #[test]
    fn epochs_are_monotonic_and_old_pins_never_change(
        script in prop::collection::vec((prop::bool::ANY, 0u32..4, 0u32..4), 1..60),
    ) {
        let mut b = GraphBuilder::directed();
        b.add_vertices(VertexType(0), 4);
        b.add_edge(VertexId(0), VertexId(1), EdgeType(0), 1.0).unwrap();
        b.add_edge(VertexId(1), VertexId(2), EdgeType(0), 0.5).unwrap();
        let g = Arc::new(b.build());
        let feats = Arc::new(Featurizer::new(2).matrix(&g));
        let cell = Published::new(EpochView::initial(g, feats, Arc::default()));
        // Everything a reader can see of one version, weights as bits.
        let bits = |view: &EpochView| -> Vec<u32> {
            let mut seen = Vec::new();
            for v in (0..4).map(VertexId) {
                for row in [view.out_neighbors(v), view.in_neighbors(v)] {
                    seen.push(row.len() as u32);
                    seen.extend(row.iter().flat_map(|n| [n.vertex.0, n.weight.to_bits()]));
                }
                seen.extend(view.features(v).iter().map(|x| x.to_bits()));
            }
            seen
        };
        let mut pins = Vec::new();
        let mut last = 0u64;
        for (step, &(publish, a, b)) in script.iter().enumerate() {
            if publish {
                let (src, dst, etype) = (VertexId(a), VertexId(b), EdgeType(0));
                let event = match step % 3 {
                    0 => UpdateEvent::AddEdge { src, dst, etype, weight: 1.0 + step as f32 },
                    1 => UpdateEvent::RemoveEdge { src, dst, etype },
                    _ => UpdateEvent::SetFeatures { vertex: src, features: vec![step as f32; 2] },
                };
                let writer = cell.write();
                let next = writer.head().apply_batch(&UpdateBatch { events: vec![event] }).0;
                prop_assert!(writer.publish(next, || {}).is_ok(), "a successor was refused");
            } else {
                let pin = cell.pin();
                let seen = bits(&pin);
                pins.push((pin, seen));
            }
            let now = cell.current_epoch();
            prop_assert!(now >= last, "head ran backwards: {} < {}", now, last);
            last = now;
            for (p, _) in &pins {
                prop_assert!(p.epoch() <= now, "a pin is ahead of the head");
            }
        }
        for (p, seen) in &pins {
            prop_assert!(&bits(p) == seen, "epoch {} changed under its pin", p.epoch());
        }
    }
}

// --- Cold-tier codec and segment invariants (ISSUE 10) -----------------

use aligraph_suite::graph::{AttrId, EdgeId, Neighbor};
use aligraph_suite::runtime::{Checkpoint, PsShardState, WorkerCkpt};
use aligraph_suite::storage::codec::{
    decode_adjacency, decode_feature_row, encode_adjacency, encode_feature_row,
};
use aligraph_suite::storage::{seal, Segment, SegmentKind};

/// Builds an adjacency row in one of the shapes the cold tier must survive:
/// empty, singleton, chain (sorted sequential ids — delta coding's best
/// case), star (every record the same hub), or a random power-law-ish row
/// with forced extremes (`u32::MAX` vertex, `u64::MAX` edge, NaN-payload
/// weight) in the tail.
fn shaped_row(shape: u8, raw: &[(u32, u8, u32, u64)], base: u32, hub: u32) -> Vec<Neighbor> {
    let mk = |(v, t, w_bits, e): (u32, u8, u32, u64), attr: u32| Neighbor {
        vertex: VertexId(v),
        etype: EdgeType(t),
        weight: f32::from_bits(w_bits),
        attr: AttrId(attr),
        edge: EdgeId(e),
    };
    match shape {
        0 => Vec::new(),
        1 => raw.first().map(|&r| vec![mk(r, 7)]).unwrap_or_default(),
        2 => (0..raw.len() as u32)
            .map(|i| {
                mk(
                    (
                        base.wrapping_add(i),
                        (i % 7) as u8,
                        (i + 1).to_le_bytes()[0] as u32,
                        u64::from(base) + u64::from(i),
                    ),
                    i,
                )
            })
            .collect(),
        3 => (0..raw.len() as u32).map(|i| mk((hub, 0, 0x3f80_0000, u64::from(i)), 0)).collect(),
        _ => {
            let mut row: Vec<Neighbor> =
                raw.iter().enumerate().map(|(i, &r)| mk(r, i as u32)).collect();
            // Force the extremes every codec run must survive.
            row.push(mk((u32::MAX, u8::MAX, f32::NAN.to_bits() | 1, u64::MAX), u32::MAX));
            row
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tentpole invariant: delta-varint adjacency coding is bit-identical
    /// on roundtrip for every row shape, including NaN-payload weights and
    /// max-valued ids.
    #[test]
    fn codec_adjacency_roundtrip_bit_identical(
        shape in 0u8..5,
        raw in prop::collection::vec((0u32..u32::MAX, 0u8..255, 0u32..u32::MAX, 0u64..u64::MAX), 0..300),
        base in 0u32..1_000_000,
        hub in 0u32..u32::MAX,
    ) {
        let row = shaped_row(shape, &raw, base, hub);
        let mut buf = Vec::new();
        encode_adjacency(&row, &mut buf);
        let back = decode_adjacency(&buf).unwrap();
        prop_assert_eq!(back.len(), row.len());
        for (a, b) in back.iter().zip(row.iter()) {
            prop_assert_eq!(a.vertex, b.vertex);
            prop_assert_eq!(a.etype, b.etype);
            prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            prop_assert_eq!(a.attr, b.attr);
            prop_assert_eq!(a.edge, b.edge);
        }
    }

    /// Feature rows (XOR-previous varint coded) roundtrip bit-identically
    /// for arbitrary f32 bit patterns, NaN and `u32::MAX` included.
    #[test]
    fn codec_feature_row_roundtrip_bit_identical(bits in prop::collection::vec(0u32..u32::MAX, 0..256)) {
        let mut row: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        row.push(f32::from_bits(u32::MAX));
        row.push(f32::from_bits(f32::NAN.to_bits() | 1));
        let mut buf = Vec::new();
        encode_feature_row(&row, &mut buf);
        let back = decode_feature_row(&buf).unwrap();
        prop_assert_eq!(back.len(), row.len());
        for (a, b) in back.iter().zip(row.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Fuzz: the decoders never panic on truncated or bit-flipped buffers —
    /// they return a typed error or a (harmlessly wrong) decode, but always
    /// return.
    #[test]
    fn codec_decoders_never_panic(
        shape in 0u8..5,
        raw in prop::collection::vec((0u32..u32::MAX, 0u8..255, 0u32..u32::MAX, 0u64..u64::MAX), 0..64),
        cut in 0usize..100_000,
        flip in (0usize..100_000, 0u8..8),
        garbage in prop::collection::vec(0u8..255, 0..200),
    ) {
        let row = shaped_row(shape, &raw, 17, 99);
        let mut buf = Vec::new();
        encode_adjacency(&row, &mut buf);
        if !buf.is_empty() {
            // Truncation at an arbitrary prefix length.
            let _ = decode_adjacency(&buf[..cut % buf.len()]);
            // A single flipped bit anywhere.
            let mut flipped = buf.clone();
            let at = flip.0 % flipped.len();
            flipped[at] ^= 1 << flip.1;
            let _ = decode_adjacency(&flipped);
            let _ = decode_feature_row(&flipped);
        }
        // Arbitrary garbage through both decoders.
        let _ = decode_adjacency(&garbage);
        let _ = decode_feature_row(&garbage);
    }

    /// Fuzz: the sealed-file readers — `seal::open` and the two formats
    /// built on it — never panic on, and never accept, a truncated,
    /// bit-flipped or garbage buffer.
    #[test]
    fn sealed_readers_reject_damage_without_panicking(
        rows in prop::collection::vec((0u32..10_000, prop::collection::vec(0u8..255, 0..40)), 0..16),
        floats in prop::collection::vec(0u32..u32::MAX, 0..48),
        step in 0u64..u64::MAX,
        cut in 0usize..100_000,
        flip in (0usize..100_000, 0u8..8),
        garbage in prop::collection::vec(0u8..255, 0..200),
    ) {
        let dedup: std::collections::BTreeMap<u32, Vec<u8>> = rows.iter().cloned().collect();
        let segment = Segment::build(SegmentKind::Adjacency, 1, dedup.into_iter().collect());
        let weights: Vec<f32> = floats.iter().map(|b| f32::from_bits(*b)).collect();
        let checkpoint = Checkpoint {
            fingerprint: step ^ 0xabcd,
            global_step: step,
            epoch_losses: floats.iter().map(|b| f64::from(*b)).collect(),
            avg_params: (step % 2 == 0).then(|| weights.clone()),
            workers: vec![WorkerCkpt { hist: vec![step, 1], dense_state: weights.clone(), ..Default::default() }],
            shards: vec![PsShardState { ids: floats.clone(), weights: weights.clone(), accum: Some(weights) }],
            ..Default::default()
        };
        let seg_bytes = segment.to_bytes();
        let ckpt_bytes = checkpoint.to_bytes();
        // Intact buffers load (bit-identically: NaN payloads included).
        prop_assert_eq!(&Segment::from_bytes(&seg_bytes).unwrap().to_bytes(), &seg_bytes);
        prop_assert_eq!(&Checkpoint::from_bytes(&ckpt_bytes).unwrap().to_bytes(), &ckpt_bytes);

        for (bytes, magic) in [(&seg_bytes, &b"ALGRSEG1"[..]), (&ckpt_bytes, &b"ALGRCKP1"[..])] {
            prop_assert!(seal::open(bytes, magic).is_ok());
            // Truncation at an arbitrary strict prefix.
            let short = &bytes[..cut % bytes.len()];
            // A single flipped bit anywhere, trailer included.
            let mut flipped = bytes.clone();
            let at = flip.0 % flipped.len();
            flipped[at] ^= 1 << flip.1;
            for damaged in [short, &flipped[..], &garbage[..]] {
                prop_assert!(seal::open(damaged, magic).is_err());
                prop_assert!(Segment::from_bytes(damaged).is_err());
                prop_assert!(Checkpoint::from_bytes(damaged).is_err());
            }
        }
        // Each reader refuses the other's (intact) file.
        prop_assert!(Segment::from_bytes(&ckpt_bytes).is_err());
        prop_assert!(Checkpoint::from_bytes(&seg_bytes).is_err());
    }

    /// Segment build is canonical: any permutation of the same rows seals to
    /// identical bytes, and lookup serves every row back verbatim.
    #[test]
    fn segment_bytes_canonical_under_row_order(
        entries in prop::collection::vec((0u32..10_000, prop::collection::vec(0u8..255, 0..40)), 0..24),
        seed in 0u64..u64::MAX,
    ) {
        // Last write wins per key (Segment::build requires unique vertices).
        let mut dedup: std::collections::BTreeMap<u32, Vec<u8>> = std::collections::BTreeMap::new();
        for (k, v) in &entries {
            dedup.insert(*k, v.clone());
        }
        let ordered: Vec<(u32, Vec<u8>)> = dedup.iter().map(|(k, v)| (*k, v.clone())).collect();
        let mut shuffled = ordered.clone();
        // Deterministic Fisher-Yates from the proptest-provided seed.
        let mut s = seed | 1;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (s >> 33) as usize % (i + 1));
        }
        let a = Segment::build(SegmentKind::Feature, 3, ordered);
        let b = Segment::build(SegmentKind::Feature, 3, shuffled);
        prop_assert_eq!(a.to_bytes(), b.to_bytes());
        for (k, v) in &dedup {
            prop_assert_eq!(a.lookup(*k), Some(v.as_slice()));
        }
    }

    /// The LRU's eviction order is deterministic: identical op sequences
    /// produce identical `iter_lru` walks, and equal-recency entries (fresh
    /// inserts, never touched again) evict in exact insertion order.
    #[test]
    fn lru_eviction_order_deterministic(
        inserts in prop::collection::vec(0u32..64, 1..64),
        touches in prop::collection::vec(0u32..64, 0..32),
    ) {
        let run = || {
            let mut lru = LruCache::new(128);
            for &k in &inserts {
                lru.put(k, ());
            }
            for &k in &touches {
                lru.get(&k);
            }
            lru.iter_lru().map(|(&k, _)| k).collect::<Vec<_>>()
        };
        let first = run();
        prop_assert_eq!(&first, &run());
        // Equal-recency ties: keys inserted exactly once and never touched
        // again must evict in exact insertion order.
        let mut untouched_in_insertion_order = Vec::new();
        for &k in &inserts {
            if !touches.contains(&k) && inserts.iter().filter(|&&x| x == k).count() == 1 {
                untouched_in_insertion_order.push(k);
            }
        }
        let untouched_evictions: Vec<u32> = first
            .iter()
            .copied()
            .filter(|k| untouched_in_insertion_order.contains(k))
            .collect();
        prop_assert_eq!(untouched_evictions, untouched_in_insertion_order);
    }
}
