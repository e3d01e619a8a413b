//! A classic O(1) LRU cache (paper §3.2 places one in front of each
//! attribute index, and Figure 9 compares an LRU *neighbor* cache against
//! the importance-based strategy).
//!
//! Implementation: hash map into a slab-backed intrusive doubly-linked list,
//! no allocation after warm-up.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    /// `Some` while the entry is live; `None` only for recycled slots on
    /// the free list (lets [`LruCache::remove`] move the value out).
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// Least-recently-used cache with fixed capacity.
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Entry<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K, V> std::fmt::Debug for LruCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruCache")
            .field("len", &self.map.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("evictions", &self.evictions)
            .finish()
    }
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries (capacity 0 caches nothing).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// (hits, misses, evictions) since creation.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Looks up a key, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.unlink(idx);
                self.push_front(idx);
                self.slab[idx].value.as_ref()
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Checks membership without touching recency or stats.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).and_then(|&i| self.slab[i].value.as_ref())
    }

    /// Removes a key, returning its value. O(1); the slot is recycled for
    /// later inserts. Does not count as an eviction.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        self.free.push(idx);
        self.slab[idx].value.take()
    }

    /// Inserts (or refreshes) a key. Returns `true` if an older entry was
    /// evicted to make room.
    pub fn put(&mut self, key: K, value: V) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = Some(value);
            self.unlink(idx);
            self.push_front(idx);
            return false;
        }
        let mut evicted = false;
        let idx = if self.map.len() >= self.capacity {
            // Reuse the LRU slot.
            let idx = self.tail;
            debug_assert_ne!(idx, NIL);
            self.unlink(idx);
            let old_key = std::mem::replace(&mut self.slab[idx].key, key.clone());
            self.map.remove(&old_key);
            self.slab[idx].value = Some(value);
            self.evictions += 1;
            evicted = true;
            idx
        } else if let Some(idx) = self.free.pop() {
            // Recycle a slot freed by `remove`.
            self.slab[idx].key = key.clone();
            self.slab[idx].value = Some(value);
            idx
        } else {
            let idx = self.slab.len();
            self.slab.push(Entry { key: key.clone(), value: Some(value), prev: NIL, next: NIL });
            idx
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Iterates live entries from most- to least-recently used, without
    /// touching recency or stats.
    #[expect(
        clippy::expect_used,
        reason = "only live entries are linked into the recency list; freed slots sit on the free list"
    )]
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut idx = self.head;
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let entry = &self.slab[idx];
            idx = entry.next;
            Some((&entry.key, entry.value.as_ref().expect("linked entry is live")))
        })
    }

    /// Iterates live entries in **eviction order** — least- to most-recently
    /// used — without touching recency or stats. `iter_lru().next()` is the
    /// entry [`put`](Self::put) would evict next; the cold tier's placement
    /// oracle walks this to pick demotion victims deterministically.
    #[expect(
        clippy::expect_used,
        reason = "only live entries are linked into the recency list; freed slots sit on the free list"
    )]
    pub fn iter_lru(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut idx = self.tail;
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let entry = &self.slab[idx];
            idx = entry.prev;
            Some((&entry.key, entry.value.as_ref().expect("linked entry is live")))
        })
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.put(1, "a");
        c.put(2, "b");
        assert_eq!(c.get(&1), Some(&"a")); // 1 now MRU
        let evicted = c.put(3, "c"); // evicts 2
        assert!(evicted);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&3), Some(&"c"));
    }

    #[test]
    fn update_refreshes_without_eviction() {
        let mut c = LruCache::new(2);
        c.put(1, 10);
        c.put(2, 20);
        assert!(!c.put(1, 11)); // update, no eviction
        assert!(c.put(3, 30)); // evicts 2, not 1
        assert_eq!(c.peek(&1), Some(&11));
        assert_eq!(c.peek(&2), None);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = LruCache::new(0);
        assert!(!c.put(1, 1));
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn stats_track_hits_misses_evictions() {
        let mut c = LruCache::new(1);
        c.get(&1);
        c.put(1, 1);
        c.get(&1);
        c.put(2, 2);
        let (h, m, e) = c.stats();
        assert_eq!((h, m, e), (1, 1, 1));
    }

    #[test]
    fn single_entry_cycle() {
        let mut c = LruCache::new(1);
        for i in 0..10 {
            c.put(i, i * 2);
            assert_eq!(c.get(&i), Some(&(i * 2)));
            assert_eq!(c.len(), 1);
        }
        assert_eq!(c.stats().2, 9);
    }

    #[test]
    fn remove_frees_capacity_and_recycles_slots() {
        let mut c = LruCache::new(2);
        c.put(1, "a");
        c.put(2, "b");
        assert_eq!(c.remove(&1), Some("a"));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.len(), 1);
        // The freed slot is reused without evicting 2.
        assert!(!c.put(3, "c"));
        assert_eq!(c.peek(&2), Some(&"b"));
        assert_eq!(c.peek(&3), Some(&"c"));
        // Removing the tail then the head keeps the list consistent.
        assert_eq!(c.remove(&2), Some("b"));
        assert_eq!(c.remove(&3), Some("c"));
        assert!(c.is_empty());
        c.put(4, "d");
        assert_eq!(c.get(&4), Some(&"d"));
    }

    #[test]
    fn iter_walks_mru_to_lru_without_stat_noise() {
        let mut c = LruCache::new(3);
        c.put(1, "a");
        c.put(2, "b");
        c.put(3, "c");
        c.get(&1); // 1 becomes MRU
        let order: Vec<i32> = c.iter().map(|(&k, _)| k).collect();
        assert_eq!(order, vec![1, 3, 2]);
        let (h, m, _) = c.stats();
        assert_eq!((h, m), (1, 0), "iter must not count as lookups");
    }

    #[test]
    fn iter_lru_walks_eviction_order() {
        let mut c = LruCache::new(3);
        c.put(1, "a");
        c.put(2, "b");
        c.put(3, "c");
        c.get(&1); // 1 becomes MRU; eviction order is now 2, 3, 1
        let order: Vec<i32> = c.iter_lru().map(|(&k, _)| k).collect();
        assert_eq!(order, vec![2, 3, 1]);
        // iter_lru is exactly iter reversed, and its head is the next victim.
        let mut fwd: Vec<i32> = c.iter().map(|(&k, _)| k).collect();
        fwd.reverse();
        assert_eq!(order, fwd);
        let victim = *c.iter_lru().next().unwrap().0;
        c.put(4, "d");
        assert_eq!(c.peek(&victim), None, "put evicted the iter_lru head");
        let (h, m, _) = c.stats();
        assert_eq!((h, m), (1, 0), "iter_lru must not count as lookups");
    }

    #[test]
    fn heavy_mixed_workload_consistent() {
        let mut c = LruCache::new(64);
        for i in 0..10_000u64 {
            let k = i % 150;
            if c.get(&k).is_none() {
                c.put(k, k);
            }
        }
        assert!(c.len() <= 64);
        // Everything retrievable via peek matches its key.
        for k in 0..150u64 {
            if let Some(&v) = c.peek(&k) {
                assert_eq!(v, k);
            }
        }
    }
}
