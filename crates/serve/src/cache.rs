//! Bounded cache of per-source dependency vectors for the incremental
//! recompute engine.
//!
//! The cache is a pure performance device: a hit replays a stored
//! vector that is bit-equal to what [`bc_brandes::dependencies_from`]
//! would recompute (per-source BFS + accumulation is deterministic), so
//! results are identical with the cache on, off, cold, or full — only
//! the recompute latency changes. Mutations invalidate exactly the
//! affected sources; everything else survives and is replayed.
//!
//! Admission is first come, first kept: a vector is stored only while
//! there is room, and only invalidation frees a slot. The engine reads
//! sources `0..n` in the same order on every fold, and under that scan
//! a recency policy evicts exactly the entry needed next (an LRU of
//! `n/2` vectors never hits). Keeping whichever sources got in first
//! instead replays the same `capacity` sources on every fold, less
//! those a mutation invalidated.

use std::collections::HashMap;
use std::sync::Arc;

/// Map from source id to its dependency vector `δ_s·(·)`, holding at
/// most `capacity` vectors.
#[derive(Debug)]
pub struct SourceCache {
    capacity: usize,
    entries: HashMap<u32, Arc<Vec<f64>>>,
    hits: u64,
    misses: u64,
}

impl SourceCache {
    /// Creates a cache holding at most `capacity` vectors (each `n`
    /// floats). Capacity 0 disables caching entirely.
    pub fn new(capacity: usize) -> SourceCache {
        SourceCache {
            capacity,
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up the vector for source `s`.
    pub fn get(&mut self, s: u32) -> Option<Arc<Vec<f64>>> {
        let found = self.entries.get(&s).map(Arc::clone);
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Stores the vector for source `s` if it is already cached
    /// (replacing it) or there is room; otherwise drops it.
    pub fn put(&mut self, s: u32, vec: Arc<Vec<f64>>) {
        if self.entries.len() < self.capacity || self.entries.contains_key(&s) {
            self.entries.insert(s, vec);
        }
    }

    /// Drops the entries for the given sources (post-mutation
    /// invalidation), freeing their slots.
    pub fn invalidate<I: IntoIterator<Item = u32>>(&mut self, sources: I) {
        for s in sources {
            self.entries.remove(&s);
        }
    }

    /// Number of cached vectors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` since construction, and resets both — the
    /// server drains these into telemetry counters after each
    /// recompute.
    pub fn take_stats(&mut self) -> (u64, u64) {
        let out = (self.hits, self.misses);
        self.hits = 0;
        self.misses = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f64) -> Arc<Vec<f64>> {
        Arc::new(vec![x])
    }

    #[test]
    fn full_cache_admits_nothing_until_invalidation_frees_room() {
        let mut c = SourceCache::new(2);
        c.put(0, v(0.0));
        c.put(1, v(1.0));
        c.put(2, v(2.0)); // full: dropped, nothing evicted
        assert!(c.get(2).is_none());
        assert!(c.get(0).is_some());
        assert!(c.get(1).is_some());
        assert_eq!(c.len(), 2);
        c.invalidate([0]);
        c.put(2, v(2.0)); // the freed slot admits it
        assert!(c.get(0).is_none());
        assert_eq!(*c.get(2).unwrap(), vec![2.0]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = SourceCache::new(0);
        c.put(0, v(0.0));
        assert!(c.is_empty());
        assert!(c.get(0).is_none());
    }

    #[test]
    fn invalidate_and_stats() {
        let mut c = SourceCache::new(8);
        c.put(3, v(3.0));
        c.put(4, v(4.0));
        let _ = c.get(3); // hit
        let _ = c.get(9); // miss
        c.invalidate([3, 9]);
        assert!(c.get(3).is_none()); // miss
        assert!(c.get(4).is_some()); // hit
        assert_eq!(c.take_stats(), (2, 2));
        assert_eq!(c.take_stats(), (0, 0));
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = SourceCache::new(1);
        c.put(0, v(1.0));
        c.put(0, v(2.0));
        assert_eq!(c.len(), 1);
        assert_eq!(*c.get(0).unwrap(), vec![2.0]);
    }
}
