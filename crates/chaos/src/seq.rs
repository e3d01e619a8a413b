//! Sequence-numbered, idempotent, in-order delivery.

use std::collections::BTreeMap;

/// A sender-assigned sequence number, what
/// [`FaultPlane::deliver`](crate::FaultPlane::deliver) takes to name a
/// message. Outside this crate only [`SeqCounter::next_seq`] makes one, so
/// the compiler checks at every call that the sender numbered it:
///
/// ```compile_fail,E0603
/// let seq = aligraph_chaos::Seq(7); // the field is private to the chaos crate
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seq(pub(crate) u64);

impl Seq {
    /// The number, for the receiver's dedup.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// A sender's counter for one stream of messages, numbering them from 0.
#[derive(Debug, Clone, Default)]
pub struct SeqCounter(u64);

impl SeqCounter {
    /// The next message's number.
    pub fn next_seq(&mut self) -> Seq {
        self.0 += 1;
        Seq(self.0 - 1)
    }
}

/// Receiver-side sequencer for one directed channel: payloads tagged with
/// a sender-assigned sequence number come out exactly once, in sequence
/// order, no matter how the fault plane duplicates or reorders them.
///
/// `offer(seq, payload)` buffers out-of-order arrivals and discards
/// duplicates (a `seq` below the delivery cursor, or one already
/// buffered); it returns the run of payloads that just became deliverable.
/// This is what makes retried parameter-server deltas idempotent: a lost
/// ack makes the sender re-send an already-applied delta, and the
/// sequencer drops the duplicate instead of double-applying AdaGrad. It is
/// the one dedup of every [`HopKind::Acked`](crate::HopKind::Acked)
/// receiver: PS pushes and rehomes, migration records and ingest batches.
#[derive(Debug, Clone)]
pub struct Sequencer<T> {
    next: u64,
    buffer: BTreeMap<u64, T>,
}

impl<T> Default for Sequencer<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Sequencer<T> {
    /// An empty sequencer expecting sequence number 0 first.
    pub fn new() -> Self {
        Sequencer { next: 0, buffer: BTreeMap::new() }
    }

    /// Accepts one arrival. Returns the payloads now deliverable, in
    /// sequence order (empty when `seq` is a duplicate or a gap remains).
    pub fn offer(&mut self, seq: u64, payload: T) -> Vec<T> {
        if seq < self.next || self.buffer.contains_key(&seq) {
            return Vec::new(); // duplicate: already delivered or buffered
        }
        self.buffer.insert(seq, payload);
        let mut ready = Vec::new();
        while let Some(p) = self.buffer.remove(&self.next) {
            ready.push(p);
            self.next += 1;
        }
        ready
    }

    /// Sequence numbers delivered so far (== the next expected number).
    pub fn delivered(&self) -> u64 {
        self.next
    }

    /// Out-of-order arrivals waiting for a gap to fill.
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_counter_numbers_from_zero_and_a_clone_resumes_where_it_was() {
        let mut counter = SeqCounter::default();
        assert_eq!(counter.next_seq().get(), 0);
        // Ingest's draw-then-commit: a draw from a clone leaves the counter
        // where it was until the clone is stored back.
        let mut draft = counter.clone();
        assert_eq!(draft.next_seq().get(), 1);
        assert_eq!(counter.clone().next_seq().get(), 1, "an abandoned draw keeps its number");
        counter = draft;
        assert_eq!((counter.next_seq().get(), counter.next_seq().get()), (2, 3));
    }

    #[test]
    fn in_order_stream_passes_straight_through() {
        let mut s = Sequencer::new();
        for seq in 0..10u64 {
            assert_eq!(s.offer(seq, seq * 10), vec![seq * 10]);
        }
        assert_eq!(s.delivered(), 10);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn duplicates_are_discarded_everywhere() {
        let mut s = Sequencer::new();
        assert_eq!(s.offer(0, "a"), vec!["a"]);
        assert!(s.offer(0, "a-again").is_empty(), "already delivered");
        assert!(s.offer(2, "c").is_empty(), "gap: buffered");
        assert!(s.offer(2, "c-again").is_empty(), "already buffered");
        assert_eq!(s.offer(1, "b"), vec!["b", "c"], "gap fill releases the run");
        assert_eq!(s.delivered(), 3);
    }

    #[test]
    fn arbitrary_reorder_comes_out_sorted_exactly_once() {
        let order = [7u64, 3, 3, 0, 5, 1, 0, 2, 6, 4, 7];
        let mut s = Sequencer::new();
        let mut out = Vec::new();
        for &seq in &order {
            out.extend(s.offer(seq, seq));
        }
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(s.pending(), 0);
    }
}
