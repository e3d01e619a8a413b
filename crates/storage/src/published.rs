//! The publish cell: one versioned snapshot that readers pin and one writer
//! at a time replaces (DESIGN.md §2.15).
//!
//! Every structure that changes while it is read — cluster membership
//! ([`crate::topology::TopologyView`]), the online graph plane's epoch
//! views, the deployed model — publishes immutable versions through a
//! [`Published`] cell:
//!
//! * a reader [`pin`](Published::pin)s the head (one read lock, one `Arc`
//!   clone) and reads that one version for as long as it holds the pin,
//!   however many publishes land meanwhile;
//! * [`current_epoch`](Published::current_epoch) is one Acquire load;
//! * a writer takes the cell's [`Writer`] guard, which serializes writers
//!   and hands over the head it pinned under that lock, builds the
//!   successor from it, and [`publish`](Writer::publish)es it under the
//!   write lock together with a `sweep` (cache invalidation, retiring the
//!   old copies) that no reader can race. A successor whose epoch does not
//!   strictly increase is refused — the one place that rule is checked. A
//!   guard dropped without a publish publishes nothing.

use parking_lot::{Mutex, MutexGuard, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A snapshot published under an epoch.
pub trait Versioned {
    /// The epoch this version publishes under.
    fn epoch(&self) -> u64;
}

/// A refused publish: the successor's epoch does not strictly increase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleEpoch {
    /// The published head's epoch.
    pub head: u64,
    /// The refused successor's epoch.
    pub next: u64,
}

impl std::fmt::Display for StaleEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "publish refused: epoch {} does not follow epoch {}", self.next, self.head)
    }
}

impl std::error::Error for StaleEpoch {}

/// The publish cell: the head version plus its epoch, and the writers'
/// serializing lock.
#[derive(Debug)]
pub struct Published<T> {
    current: RwLock<Arc<T>>,
    epoch: AtomicU64,
    writer: Mutex<()>,
}

impl<T: Versioned> Published<T> {
    /// A cell whose head is `head`.
    pub fn new(head: T) -> Self {
        let epoch = AtomicU64::new(head.epoch());
        Published { current: RwLock::new(Arc::new(head)), epoch, writer: Mutex::new(()) }
    }

    /// The latest published epoch, read without the lock. Monotonic: two
    /// reads by one thread never go backwards.
    pub fn current_epoch(&self) -> u64 {
        // ordering: Acquire pairs with publish()'s Release store, so a
        // reader that sees epoch E also sees every write that built E's
        // version (the version itself travels through the lock).
        self.epoch.load(Ordering::Acquire)
    }

    /// Pins the head: the `Arc` keeps that version alive and unchanged for
    /// as long as the holder keeps it.
    pub fn pin(&self) -> Arc<T> {
        Arc::clone(&self.current.read())
    }

    /// The writer guard: blocks until no other writer holds it, then pins
    /// the head, which stays the head until this guard publishes or drops.
    pub fn write(&self) -> Writer<'_, T> {
        let serial = self.writer.lock();
        Writer { cell: self, head: self.pin(), _serial: serial }
    }
}

/// The one writer of a [`Published`] cell, holding the head it pinned.
#[derive(Debug)]
pub struct Writer<'a, T> {
    cell: &'a Published<T>,
    head: Arc<T>,
    _serial: MutexGuard<'a, ()>,
}

impl<T: Versioned> Writer<'_, T> {
    /// The head this writer builds on.
    pub fn head(&self) -> &Arc<T> {
        &self.head
    }

    /// Publishes `next` as the head and runs `sweep` under the write lock
    /// *after* the epoch advances: a pin taken before sees the old version
    /// and whatever the sweep removes, a pin taken after sees neither.
    /// Returns the published epoch, or refuses — publishing nothing and
    /// running no sweep — when `next`'s epoch does not exceed the head's.
    pub fn publish(self, next: T, sweep: impl FnOnce()) -> Result<u64, StaleEpoch> {
        // Allocated before the write lock: readers wait only for the swap.
        let next = Arc::new(next);
        let mut cur = self.cell.current.write();
        let (head, epoch) = (cur.epoch(), next.epoch());
        if epoch <= head {
            return Err(StaleEpoch { head, next: epoch });
        }
        // ordering: Release pairs with current_epoch()'s Acquire; pins
        // additionally synchronize through the RwLock.
        self.cell.epoch.store(epoch, Ordering::Release);
        *cur = next;
        sweep();
        Ok(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A version that is its epoch plus a payload written once.
    #[derive(Debug, PartialEq)]
    struct V(u64, Vec<u64>);

    impl Versioned for V {
        fn epoch(&self) -> u64 {
            self.0
        }
    }

    fn successor(cell: &Published<V>) -> Result<u64, StaleEpoch> {
        let w = cell.write();
        let next = V(w.head().0 + 1, vec![w.head().0 + 1; 4]);
        w.publish(next, || {})
    }

    #[test]
    fn epochs_are_strictly_monotonic_across_publishes() {
        let cell = Published::new(V(0, Vec::new()));
        let mut seen = vec![cell.current_epoch()];
        for _ in 0..5 {
            successor(&cell).unwrap();
            let e = cell.current_epoch();
            assert!(e > *seen.last().unwrap(), "epochs must strictly increase");
            seen.push(e);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn pins_keep_their_epoch_across_publishes() {
        let cell = Published::new(V(0, vec![7]));
        let pin0 = cell.pin();
        let w = cell.write();
        let mut swept_at = None;
        w.publish(V(1, vec![8]), || swept_at = Some(cell.current_epoch())).unwrap();
        // The sweep ran after the epoch moved; the old pin still reads
        // version 0, a new pin reads version 1.
        assert_eq!(swept_at, Some(1));
        assert_eq!(*pin0, V(0, vec![7]));
        assert_eq!(*cell.pin(), V(1, vec![8]));
        // A writer dropped without publishing publishes nothing.
        drop(cell.write());
        assert_eq!(cell.current_epoch(), 1);
    }

    /// Racing writers each publish the successor of the head their guard
    /// pinned: the log is gapless `1..=N`, every publish is accepted, and a
    /// successor that does not move the epoch forward is refused without
    /// running its sweep.
    #[test]
    fn racing_writers_publish_a_gapless_sequence_and_a_stale_one_is_refused() {
        const WRITERS: u64 = 4;
        const EACH: u64 = 500;
        let cell = Published::new(V(0, Vec::new()));
        let log = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..WRITERS {
                s.spawn(|| {
                    for _ in 0..EACH {
                        let epoch = successor(&cell).unwrap();
                        log.lock().push(epoch);
                    }
                });
            }
        });
        let mut log = log.into_inner();
        log.sort_unstable();
        assert_eq!(log, (1..=WRITERS * EACH).collect::<Vec<_>>());
        let head = cell.current_epoch();
        let mut swept = false;
        for stale in [head, head - 1] {
            let refused = cell.write().publish(V(stale, Vec::new()), || swept = true);
            assert_eq!(refused, Err(StaleEpoch { head, next: stale }));
        }
        assert!(!swept, "a refused publish runs no sweep");
        assert_eq!((cell.current_epoch(), cell.pin().0), (head, head));
    }
}
