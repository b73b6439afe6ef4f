//! The "old" buffer cache, retained for file-system metadata (§4.2).
//!
//! "As in the original BSD kernel, the file system continues to use the
//! 'old' buffer cache to hold file system metadata." Name→inode lookups
//! go through this LRU cache; a miss stands for a metadata disk access.

use std::collections::BTreeMap;

use crate::disk::FileId;

/// A fixed-capacity LRU cache of name→file metadata lookups.
///
/// `Clone` is a true deep copy, used by kernel-state snapshots. LRU
/// eviction is deterministic: stamps are unique (one clock tick per
/// lookup), so the victim never depends on hash iteration order. A
/// stamp-ordered index finds it in amortized O(log n).
#[derive(Debug, Clone)]
pub struct MetadataCache {
    capacity: usize,
    clock: u64,
    // lint:allow(seeded-hash) — peer-chosen path keys
    entries: std::collections::HashMap<String, (FileId, u64)>,
    /// Names by stamp. A hit only bumps the entry's own stamp, so a
    /// record may be stale, but every entry has a record no newer than
    /// its stamp: the first current record is the LRU entry.
    lru: BTreeMap<u64, String>,
    hits: u64,
    misses: u64,
}

impl MetadataCache {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        MetadataCache {
            capacity,
            clock: 0,
            entries: Default::default(),
            lru: BTreeMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up a name; on a miss, `resolve` supplies the id (a metadata
    /// disk access in the timing model) and the result is cached.
    ///
    /// Returns `(id, was_hit)`.
    pub fn lookup(
        &mut self,
        name: &str,
        resolve: impl FnOnce() -> Option<FileId>,
    ) -> Option<(FileId, bool)> {
        self.clock += 1;
        if let Some((id, stamp)) = self.entries.get_mut(name) {
            *stamp = self.clock;
            self.hits += 1;
            return Some((*id, true));
        }
        let id = resolve()?;
        self.misses += 1;
        if self.entries.len() >= self.capacity {
            self.evict_lru();
        }
        self.entries.insert(name.to_string(), (id, self.clock));
        self.lru.insert(self.clock, name.to_string());
        Some((id, false))
    }

    /// Evicts the least recently used entry. Stale index records are
    /// re-filed under their entry's current stamp (or dropped once the
    /// entry is gone) until the first record is current; each hit costs
    /// at most one re-filing.
    fn evict_lru(&mut self) {
        while let Some((stamp, name)) = self.lru.pop_first() {
            match self.entries.get(&name) {
                Some(&(_, current)) if current == stamp => {
                    self.entries.remove(&name);
                    return;
                }
                Some(&(_, current)) => {
                    self.lru.insert(current, name);
                }
                None => {}
            }
        }
    }

    /// Invalidates one name (file removal/rename).
    pub fn invalidate(&mut self, name: &str) {
        self.entries.remove(name);
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Folds the cache's state into a stable digest (sorted iteration).
    pub fn digest(&self, h: &mut iolite_buf::Fnv64) {
        h.write_u64(self.capacity as u64);
        h.write_u64(self.clock);
        h.write_u64(self.hits);
        h.write_u64(self.misses);
        let mut names: Vec<&String> = self.entries.keys().collect();
        names.sort_unstable();
        h.write_u64(names.len() as u64);
        for name in names {
            let (id, stamp) = self.entries[name];
            h.write_str(name);
            h.write_u64(id.0);
            h.write_u64(stamp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = MetadataCache::new(4);
        let (id, hit) = c.lookup("/a", || Some(FileId(1))).unwrap();
        assert_eq!(id, FileId(1));
        assert!(!hit);
        let (id, hit) = c.lookup("/a", || unreachable!()).unwrap();
        assert_eq!(id, FileId(1));
        assert!(hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn unknown_name_not_cached() {
        let mut c = MetadataCache::new(4);
        assert!(c.lookup("/missing", || None).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut c = MetadataCache::new(2);
        c.lookup("/a", || Some(FileId(1)));
        c.lookup("/b", || Some(FileId(2)));
        // Touch /a so /b is the LRU.
        c.lookup("/a", || unreachable!());
        c.lookup("/c", || Some(FileId(3)));
        assert_eq!(c.len(), 2);
        // /b was evicted; /a survived.
        let (_, hit_a) = c.lookup("/a", || Some(FileId(1))).unwrap();
        assert!(hit_a);
        let (_, hit_b) = c.lookup("/b", || Some(FileId(2))).unwrap();
        assert!(!hit_b);
    }

    #[test]
    fn eviction_skips_invalidated_names() {
        let mut c = MetadataCache::new(2);
        c.lookup("/a", || Some(FileId(1)));
        c.lookup("/b", || Some(FileId(2)));
        c.invalidate("/a");
        c.lookup("/c", || Some(FileId(3)));
        // Full again: the victim is /b, the oldest name still cached.
        c.lookup("/d", || Some(FileId(4)));
        assert_eq!(c.len(), 2);
        assert!(c.lookup("/c", || unreachable!()).unwrap().1);
        assert!(c.lookup("/d", || unreachable!()).unwrap().1);
        assert!(!c.lookup("/b", || Some(FileId(2))).unwrap().1);
    }

    #[test]
    fn invalidate_forces_miss() {
        let mut c = MetadataCache::new(4);
        c.lookup("/a", || Some(FileId(1)));
        c.invalidate("/a");
        let (_, hit) = c.lookup("/a", || Some(FileId(9))).unwrap();
        assert!(!hit);
    }
}
