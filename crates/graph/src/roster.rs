//! Edge rosters stored as runs of consecutive ids.
//!
//! An edge's id is the position of its out-record, and an out-row is sorted
//! by edge type, so the ids of one type — over the whole graph or over the
//! vertices one worker owns — come in runs: each row's typed sub-range is
//! one run, and adjacent sub-ranges merge. An [`EdgeRoster`] keeps each
//! run's first id and a running count, 8 B a run instead of 4 B an edge.
//! Its `r`-th entry is a binary search over the counts, then an offset
//! into the run.

use crate::ids::EdgeId;

/// An ascending list of edge ids, held as runs of consecutive ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeRoster {
    /// First id of each run.
    starts: Vec<u32>,
    /// Ids in runs `0..=i`: run `i` holds roster positions
    /// `ends[i - 1]..ends[i]` (from 0 for the first run).
    ends: Vec<u32>,
}

impl EdgeRoster {
    /// An empty roster.
    pub const fn new() -> Self {
        EdgeRoster { starts: Vec::new(), ends: Vec::new() }
    }

    /// Appends `e`, which must exceed every id already held: it extends
    /// the last run when it follows that run's last id.
    pub fn push(&mut self, e: EdgeId) {
        let len = self.len() as u32;
        if let Some(i) = self.starts.len().checked_sub(1) {
            // One past the last run's last id.
            let next = self.starts[i] + (len - self.run_start(i));
            if e.0 == next {
                self.ends[i] += 1;
                return;
            }
            debug_assert!(e.0 > next, "roster ids must ascend");
        }
        self.starts.push(e.0);
        self.ends.push(len + 1);
    }

    /// Hands back the spare capacity pushing left.
    pub fn shrink_to_fit(&mut self) {
        self.starts.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Number of ids.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.last().map_or(0, |&n| n as usize)
    }

    /// Whether the roster holds no id.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The `r`-th id in ascending order, O(log runs). Panics when `r` is
    /// not below [`len`](Self::len), as slice indexing does.
    #[inline]
    pub fn get(&self, r: usize) -> EdgeId {
        let i = self.ends.partition_point(|&end| end as usize <= r);
        EdgeId(self.starts[i] + (r as u32 - self.run_start(i)))
    }

    /// Every id, ascending.
    pub fn iter(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.starts.len()).flat_map(|i| {
            let len = self.ends[i] - self.run_start(i);
            (self.starts[i]..self.starts[i] + len).map(EdgeId)
        })
    }

    /// Bytes allocated for the runs, by capacity.
    pub fn heap_bytes(&self) -> usize {
        (self.starts.capacity() + self.ends.capacity()) * size_of::<u32>()
    }

    /// The roster position of run `i`'s first id.
    #[inline]
    fn run_start(&self, i: usize) -> u32 {
        if i == 0 {
            0
        } else {
            self.ends[i - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roster(ids: &[u32]) -> EdgeRoster {
        let mut r = EdgeRoster::new();
        ids.iter().for_each(|&e| r.push(EdgeId(e)));
        r
    }

    #[test]
    fn consecutive_ids_share_a_run_and_every_position_resolves() {
        let ids = [3, 4, 5, 9, 11, 12, 20];
        let r = roster(&ids);
        assert_eq!(
            (r.starts.as_slice(), r.ends.as_slice()),
            (&[3, 9, 11, 20][..], &[3, 4, 6, 7][..])
        );
        assert_eq!(r.len(), ids.len());
        assert!(!r.is_empty());
        let got: Vec<u32> = (0..r.len()).map(|i| r.get(i).0).collect();
        assert_eq!(got, ids);
        assert_eq!(r.iter().map(|e| e.0).collect::<Vec<_>>(), ids);
    }

    #[test]
    fn an_empty_roster_holds_nothing() {
        let r = EdgeRoster::new();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.iter().count(), 0);
        assert_eq!(r, EdgeRoster::default());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_position_past_the_end_panics() {
        roster(&[1, 2]).get(2);
    }

    #[test]
    fn shrinking_leaves_eight_bytes_a_run() {
        let mut r = roster(&(0..100).map(|i| 3 * i).collect::<Vec<_>>());
        r.shrink_to_fit();
        assert_eq!(r.heap_bytes(), 8 * 100);
        let mut one = roster(&(0..100).collect::<Vec<_>>());
        one.shrink_to_fit();
        assert_eq!(one.heap_bytes(), 8);
    }
}
