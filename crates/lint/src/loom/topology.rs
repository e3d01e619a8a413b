//! Mini-loom target: topology publish + per-vertex cutover under racing
//! readers.
//!
//! The elastic-membership contract (DESIGN.md §2.17): a reader must never
//! observe a half-published membership epoch, and routing must never point
//! at a shard that does not hold the vertex's data. The real structures
//! make both atomic — the [`Published`] cell swaps one sealed
//! [`TopologyView`] under a lock, and [`Residency::cutover`] is a single
//! Release store whose protocol requires the destination to absorb the
//! vertex's data *first*. The shards are real [`GraphServer`]s, moved with
//! `extract` / `absorb` / `retire` and checked with `is_local`.
//!
//! The cell is the same one the online graph plane and the deployed model
//! publish through (DESIGN.md §2.15), so this target's torn-publish twin
//! stands for all three. Two buggy twins prove the checker has teeth:
//!
//! * [`SplitTopology`] — the torn-publish twin: an in-place membership
//!   record whose publisher writes the epoch header, the owner table, and
//!   the seal as *separate* steps. Any schedule that lets a reader run
//!   between those steps observes fields from two epochs under one seal and
//!   fails exactly the [`TopologyView::verify`]-shaped check production
//!   readers run.
//! * The eager-cutover migrator — flips [`Residency`] *before* absorbing
//!   the vertex at the destination. A reader scheduled into that window
//!   routes to a shard holding no copy, the data-loss mode the
//!   absorb-then-flip protocol exists to prevent.

use super::{Threads, VThread, Workload};
use aligraph_graph::{GraphBuilder, VertexId, VertexType};
use aligraph_storage::seal::Fnv1a;
use aligraph_storage::{GraphServer, NeighborCache, Published, Residency, TopologyView};
use std::sync::Arc;

/// Vertices the tiny cluster covers: 0 and 1 start on shard 0 (and will
/// migrate to shard 2, the split target), 2 and 3 start on shard 1.
const OWNERS: [u32; 4] = [0, 0, 1, 1];
/// Shard slots (slot 2 is the pre-allocated split target, live from the
/// start so the live table never changes length).
const SLOTS: usize = 3;
/// The vertices the migrator moves, in order.
const MOVES: [u32; 2] = [0, 1];
/// The split target shard.
const DST: u32 = 2;

fn seal(epoch: u64, owners: &[u32], live: &[bool]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(&epoch.to_le_bytes());
    for &o in owners {
        h.bytes(&o.to_le_bytes());
    }
    for &l in live {
        h.bytes(&[l as u8]);
    }
    h.finish()
}

/// The torn-publish twin: membership published field-by-field instead of
/// as one sealed value behind a pointer swap.
#[derive(Debug)]
pub struct SplitTopology {
    epoch: u64,
    owners: Vec<u32>,
    live: Vec<bool>,
    fingerprint: u64,
}

impl SplitTopology {
    fn initial() -> SplitTopology {
        let owners = OWNERS.to_vec();
        let live = vec![true; SLOTS];
        let fingerprint = seal(0, &owners, &live);
        SplitTopology { epoch: 0, owners, live, fingerprint }
    }

    /// The reader-side consistency check, shaped exactly like
    /// [`TopologyView::verify`]: the seal must match the fields.
    fn verify(&self) -> Result<(), String> {
        if seal(self.epoch, &self.owners, &self.live) != self.fingerprint {
            return Err(format!(
                "torn topology: epoch {} fields do not match their seal",
                self.epoch
            ));
        }
        Ok(())
    }
}

/// Shared state: the real versioned topology, residency and shard
/// servers, and the split twin beside them.
#[derive(Debug)]
pub struct TopoState {
    topo: Published<TopologyView>,
    residency: Residency,
    /// One server per slot, over a graph of [`OWNERS`]`.len()` vertices.
    servers: Vec<GraphServer>,
    split: SplitTopology,
    torn: bool,
    errors: Vec<String>,
}

/// Where a per-vertex move (or a torn publish) is within its step window.
enum Phase {
    /// Extract the vertex from the source shard and absorb it at the
    /// destination.
    Absorb,
    /// Flip the residency slot (the commit point).
    Flip,
}

/// The migrator: moves [`MOVES`] to shard [`DST`] one vertex at a time,
/// then publishes the next membership epoch with the source-retirement
/// sweep. With `eager` set it flips before absorbing — the protocol
/// violation the checker must catch.
struct Migrator {
    queue: Vec<u32>,
    phase: Phase,
    published: bool,
    eager: bool,
}

impl VThread<TopoState> for Migrator {
    fn done(&self, _: &TopoState) -> bool {
        self.queue.is_empty() && self.published
    }
    fn step(&mut self, s: &mut TopoState) {
        if let Some(&v) = self.queue.first() {
            let absorb_now = matches!(self.phase, Phase::Absorb) != self.eager;
            if absorb_now {
                match s.servers[0].extract(VertexId(v)) {
                    Some(rec) => s.servers[DST as usize].absorb(rec),
                    None => s.errors.push(format!("vertex {v} left its source before moving")),
                }
            } else {
                s.residency.cutover(VertexId(v), DST);
            }
            match self.phase {
                Phase::Absorb => self.phase = Phase::Flip,
                Phase::Flip => {
                    self.phase = Phase::Absorb;
                    self.queue.remove(0);
                }
            }
            return;
        }
        // All vertices cut over: publish the next epoch, retiring the
        // source copies under the write lock so no reader can route by the
        // new epoch against mid-retirement state.
        let writer = s.topo.write();
        let cur = writer.head();
        let next = cur.advance(
            Arc::new(s.residency.snapshot()),
            Arc::new((0..SLOTS).map(|slot| cur.is_live(slot as u32)).collect()),
        );
        let source = &s.servers[0];
        let published = writer.publish(next, || source.retire(&MOVES));
        if let Err(e) = published {
            s.errors.push(e.to_string());
        }
        self.published = true;
    }
}

/// The torn twin's publisher: epoch header, owner table, and seal written
/// as three separate steps — the race window is the whole point.
struct TornPublisher {
    step: u8,
}

impl VThread<TopoState> for TornPublisher {
    fn done(&self, _: &TopoState) -> bool {
        self.step >= 3
    }
    fn step(&mut self, s: &mut TopoState) {
        match self.step {
            0 => s.split.epoch = 1,
            1 => {
                for &v in &MOVES {
                    s.split.owners[v as usize] = DST;
                }
            }
            _ => s.split.fingerprint = seal(s.split.epoch, &s.split.owners, &s.split.live),
        }
        self.step += 1;
    }
}

/// A reader: each step pins the current membership version, verifies the
/// seal, checks epochs never run backwards under it, and routes every
/// vertex through residency asserting the routed shard actually holds the
/// data — the cutover-atomicity check.
struct Reader {
    rounds_left: u32,
    last_epoch: u64,
}

impl VThread<TopoState> for Reader {
    fn done(&self, _: &TopoState) -> bool {
        self.rounds_left == 0
    }
    fn step(&mut self, s: &mut TopoState) {
        self.rounds_left -= 1;
        if s.torn {
            if let Err(m) = s.split.verify() {
                s.errors.push(m);
            }
            return;
        }
        let pin = s.topo.pin();
        if let Err(m) = pin.verify() {
            s.errors.push(m);
        }
        if pin.epoch() < self.last_epoch {
            s.errors.push(format!(
                "membership epoch ran backwards: {} after {}",
                pin.epoch(),
                self.last_epoch
            ));
        }
        self.last_epoch = pin.epoch();
        for v in 0..OWNERS.len() as u32 {
            let shard = s.residency.of(VertexId(v));
            if !s.servers[shard as usize].is_local(VertexId(v)) {
                s.errors.push(format!("vertex {v} routed to shard {shard} which holds no copy"));
            }
        }
    }
}

/// The topology workload: one migrator (or torn publisher) racing two
/// readers over a 4-vertex, 3-slot cluster.
#[derive(Debug)]
pub struct TopologyWorkload {
    /// Pin-verify-route rounds per reader.
    pub rounds: u32,
    /// Drive the field-by-field split twin (must be caught).
    pub torn: bool,
    /// Flip residency before absorbing (must be caught).
    pub eager: bool,
}

impl Default for TopologyWorkload {
    fn default() -> Self {
        TopologyWorkload { rounds: 8, torn: false, eager: false }
    }
}

impl TopologyWorkload {
    /// The torn-publish twin: epoch, owners and seal land as separate steps.
    pub fn torn_publish() -> Self {
        TopologyWorkload { torn: true, ..Self::default() }
    }

    /// The protocol violation: cutover commits before the absorb.
    pub fn eager_cutover() -> Self {
        TopologyWorkload { eager: true, ..Self::default() }
    }
}

impl Workload for TopologyWorkload {
    type State = TopoState;

    fn name(&self) -> &'static str {
        if self.torn {
            "topology-torn-publish"
        } else if self.eager {
            "topology-eager-cutover"
        } else {
            "topology"
        }
    }

    fn setup(&self) -> (TopoState, Threads<TopoState>) {
        let owners: Arc<Vec<u32>> = Arc::new(OWNERS.to_vec());
        let live = Arc::new(vec![true; SLOTS]);
        let view = TopologyView::new(0, Arc::clone(&owners), live);
        // Residency is all the target reads, so the graph needs no edges.
        let mut builder = GraphBuilder::directed();
        builder.add_vertices(VertexType(0), OWNERS.len());
        let graph = Arc::new(builder.build());
        let servers = (0..SLOTS as u32)
            .map(|slot| {
                let roster: Vec<VertexId> =
                    graph.vertices().filter(|v| OWNERS[v.index()] == slot).collect();
                let cache = NeighborCache::empty(OWNERS.len());
                GraphServer::ingest(Arc::clone(&graph), &roster, cache, None)
            })
            .collect();
        let state = TopoState {
            topo: Published::new(view),
            residency: Residency::from_owners(&owners),
            servers,
            split: SplitTopology::initial(),
            torn: self.torn,
            errors: Vec::new(),
        };
        let writer: Box<dyn VThread<TopoState>> = if self.torn {
            Box::new(TornPublisher { step: 0 })
        } else {
            Box::new(Migrator {
                queue: MOVES.to_vec(),
                phase: Phase::Absorb,
                published: false,
                eager: self.eager,
            })
        };
        let threads: Threads<TopoState> = vec![
            writer,
            Box::new(Reader { rounds_left: self.rounds, last_epoch: 0 }),
            Box::new(Reader { rounds_left: self.rounds, last_epoch: 0 }),
        ];
        (state, threads)
    }

    fn errors(state: &TopoState) -> &[String] {
        &state.errors
    }

    fn check_final(&self, state: &TopoState) -> Result<(), String> {
        if self.torn {
            // Quiescent, the twin is self-consistent — the tear is only
            // visible mid-flight.
            return state.split.verify();
        }
        let view = state.topo.pin();
        view.verify()?;
        if view.epoch() != 1 {
            return Err(format!("final epoch {} != 1 after one publish", view.epoch()));
        }
        if view.owners().as_ref() != &state.residency.snapshot() {
            return Err("published owner table diverges from residency".into());
        }
        for &v in &MOVES {
            if state.residency.of(VertexId(v)) != DST {
                return Err(format!("vertex {v} did not land on shard {DST}"));
            }
            if state.servers[0].is_local(VertexId(v)) {
                return Err(format!("vertex {v}'s source copy was never retired"));
            }
        }
        for v in 0..OWNERS.len() as u32 {
            let home = state.residency.of(VertexId(v)) as usize;
            if !state.servers[home].is_local(VertexId(v)) {
                return Err(format!("vertex {v} routes to shard {home} holding no copy"));
            }
        }
        let owned: usize = state.servers.iter().map(GraphServer::num_owned).sum();
        if owned != OWNERS.len() {
            return Err(format!("shards hold {owned} vertices, not {}", OWNERS.len()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loom::Explorer;

    #[test]
    fn sealed_publish_and_ordered_cutover_survive_every_schedule() {
        Explorer { seed: 42 }.explore(&TopologyWorkload::default(), 400).unwrap();
    }

    #[test]
    fn torn_publish_is_caught_and_replays() {
        let d = Explorer { seed: 42 }
            .explore(&TopologyWorkload::torn_publish(), 400)
            .expect_err("a field-by-field publish must expose a torn view to some schedule");
        assert!(d.message.contains("torn topology"), "{d}");
        let replayed = Explorer::replay(&TopologyWorkload::torn_publish(), &d.schedule)
            .expect_err("replay must reproduce the divergence");
        assert_eq!(replayed.message, d.message);
    }

    #[test]
    fn cutover_before_absorb_is_caught_and_replays() {
        let d = Explorer { seed: 42 }
            .explore(&TopologyWorkload::eager_cutover(), 400)
            .expect_err("flipping residency before the absorb must strand some reader");
        assert!(d.message.contains("holds no copy"), "{d}");
        let replayed = Explorer::replay(&TopologyWorkload::eager_cutover(), &d.schedule)
            .expect_err("replay must reproduce the divergence");
        assert_eq!(replayed.message, d.message);
    }

    #[test]
    fn split_twin_is_consistent_when_quiescent() {
        assert!(SplitTopology::initial().verify().is_ok());
    }
}
