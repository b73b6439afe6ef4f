//! The Internet checksum cache (§3.9).
//!
//! "IO-Lite provides with each buffer a generation number ... this
//! generation number, combined with the buffer's address, provides a
//! systemwide unique identifier for the contents of the buffer", which
//! lets TCP reuse a previously computed checksum whenever the same slice
//! is transmitted again — eliminating "the only remaining data-touching
//! operation on the critical I/O path" for cached documents.
//!
//! The cache is bounded by real per-entry eviction (second-chance /
//! CLOCK over the entry table): when a cold slice arrives at a full
//! cache, it replaces the least-recently-referenced entry instead of
//! flushing the whole map, so the hot-document working set survives
//! cold-tail traffic.
//!
//! Entries are indexed by buffer identity, the same name the paper
//! uses: one hash map from ⟨pool, chunk, buffer offset, generation⟩ to
//! the head of a doubly-linked chain threaded through the slot table,
//! linking every sub-range sum cached over that buffer.
//!
//! * A lookup hashes the buffer identity once, then walks its chain
//!   comparing ⟨offset, len⟩ (typically one entry per buffer).
//! * Admission and CLOCK replacement are an O(1) unlink/link; the hand
//!   sweep is amortized O(1) (one sweep can clear up to a full table of
//!   reference bits).
//! * [`ChecksumCache::invalidate_aggregate`] is O(slices + removed): it
//!   pops each slice's chain head until the chain is empty.
//!
//! No path iterates the hash map, so the cache's state — slot order,
//! CLOCK hand, chain order — is a function of the operation sequence
//! alone, never of the map's per-instance hash seed.

use iolite_buf::{IdMap, Slice};

use crate::checksum::{slice_sum, PartialSum};

/// Chain terminator for [`Slot::prev`]/[`Slot::next`]. Slot indices
/// stay below it because the capacity is clamped to it.
const NIL: u32 = u32::MAX;

/// Buffer identity: ⟨pool, chunk, buffer offset, generation⟩, the
/// systemwide-unique name of a buffer's contents. The pool id is part
/// of it because chunk ids and generations are per-pool counters, so
/// buffers of two pools can otherwise share a ⟨buffer, generation⟩ pair
/// while holding different bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BufKey {
    chunk: u64,
    generation: u64,
    pool: u32,
    buffer_offset: u32,
}

/// Cache key: a buffer identity plus the slice's range within it.
///
/// Offsets and lengths are kept at full `u64` width: two distinct
/// slices ≥4 GiB apart in one buffer must never collide, since a
/// collision serves a stale checksum on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    buf: BufKey,
    offset: u64,
    len: u64,
}

const _: () = assert!(std::mem::size_of::<BufKey>() == 24);
const _: () = assert!(std::mem::size_of::<Key>() == 40);

impl BufKey {
    fn of(s: &Slice) -> BufKey {
        let id = s.id();
        BufKey {
            chunk: id.chunk.0,
            generation: s.generation().0,
            pool: s.pool().0,
            buffer_offset: id.offset,
        }
    }
}

impl Key {
    fn of(s: &Slice) -> Key {
        Key {
            buf: BufKey::of(s),
            offset: s.offset_in_buffer() as u64,
            len: s.len() as u64,
        }
    }
}

/// One resident checksum with its CLOCK reference bit and its links in
/// its buffer's chain.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: Key,
    sum: PartialSum,
    prev: u32,
    next: u32,
    referenced: bool,
}

/// Cache effectiveness counters; the cost model charges data-touching
/// time only for [`CksumCacheStats::bytes_computed`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CksumCacheStats {
    /// Slice sums served from cache.
    pub hits: u64,
    /// Slice sums computed (and inserted).
    pub misses: u64,
    /// Bytes whose checksum came for free.
    pub bytes_cached: u64,
    /// Bytes actually touched by the checksum loop.
    pub bytes_computed: u64,
    /// Entries replaced by the CLOCK hand to admit new slices.
    pub evictions: u64,
    /// Entries dropped because their underlying buffers were retired by
    /// a write (PUT over a cached file): a stale sum must never be
    /// served, and a dead-version entry must not pollute the bounded
    /// table.
    pub invalidations: u64,
}

/// A bounded map from slice identity to its partial checksum.
///
/// # Examples
///
/// ```
/// use iolite_buf::{Acl, Aggregate, BufferPool, PoolId};
/// use iolite_net::ChecksumCache;
///
/// let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
/// let agg = Aggregate::from_bytes(&pool, b"hot document");
/// let mut cache = ChecksumCache::new(1024);
/// let s = &agg.slice_at(0);
/// let first = cache.sum_for(s);
/// let second = cache.sum_for(s);
/// assert_eq!(first, second);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ChecksumCache {
    capacity: usize,
    enabled: bool,
    /// Buffer identity → index of the first slot in its chain. Looked
    /// up and updated by key only; never iterated.
    heads: IdMap<BufKey, u32>,
    slots: Vec<Slot>,
    hand: usize,
    stats: CksumCacheStats,
}

impl ChecksumCache {
    /// Creates a cache bounded to `capacity` entries (at least one, at
    /// most `u32::MAX`).
    pub fn new(capacity: usize) -> Self {
        ChecksumCache {
            capacity: capacity.clamp(1, NIL as usize),
            enabled: true,
            // Grows lazily alongside `slots`: the kernel default is
            // 2¹⁶ entries, which would be megabytes if preallocated.
            heads: IdMap::default(),
            slots: Vec::new(),
            hand: 0,
            stats: CksumCacheStats::default(),
        }
    }

    /// Enables or disables caching (the Fig. 11 ablation switch).
    /// Disabled, every request recomputes — exactly the conventional
    /// network stack's behaviour.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether caching is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Returns the partial sum for a slice, from cache when possible.
    pub fn sum_for(&mut self, s: &Slice) -> PartialSum {
        if !self.enabled {
            self.stats.misses += 1;
            self.stats.bytes_computed += s.len() as u64;
            return slice_sum(s);
        }
        let key = Key::of(s);
        if let Some(idx) = self.find(&key) {
            let slot = &mut self.slots[idx as usize];
            slot.referenced = true;
            self.stats.hits += 1;
            self.stats.bytes_cached += s.len() as u64;
            return slot.sum;
        }
        let sum = slice_sum(s);
        self.stats.misses += 1;
        self.stats.bytes_computed += s.len() as u64;
        self.admit(key, sum);
        sum
    }

    /// The slot holding `key`, if resident: one hash of the buffer
    /// identity, then a walk of that buffer's chain.
    fn find(&self, key: &Key) -> Option<u32> {
        let mut idx = *self.heads.get(&key.buf)?;
        while idx != NIL {
            let slot = &self.slots[idx as usize];
            if slot.key.offset == key.offset && slot.key.len == key.len {
                return Some(idx);
            }
            idx = slot.next;
        }
        None
    }

    /// Inserts a non-resident `key`: appended while below capacity,
    /// otherwise over the CLOCK victim.
    fn admit(&mut self, key: Key, sum: PartialSum) {
        let slot = Slot {
            key,
            sum,
            prev: NIL,
            next: NIL,
            referenced: false,
        };
        if self.slots.len() < self.capacity {
            self.slots.push(slot);
            self.link(self.slots.len() as u32 - 1);
            return;
        }
        // Second chance: sweep the hand past recently referenced slots
        // (clearing their bits) to the first unreferenced one, and
        // replace it. Terminates within two sweeps.
        while self.slots[self.hand].referenced {
            self.slots[self.hand].referenced = false;
            self.hand = (self.hand + 1) % self.capacity;
        }
        let victim = self.hand as u32;
        self.unlink(victim);
        self.slots[self.hand] = slot;
        self.link(victim);
        self.stats.evictions += 1;
        self.hand = (self.hand + 1) % self.capacity;
    }

    /// Makes slot `idx` the head of its buffer's chain.
    fn link(&mut self, idx: u32) {
        let buf = self.slots[idx as usize].key.buf;
        let next = self.heads.insert(buf, idx).unwrap_or(NIL);
        let slot = &mut self.slots[idx as usize];
        slot.prev = NIL;
        slot.next = next;
        if next != NIL {
            self.slots[next as usize].prev = idx;
        }
    }

    /// Detaches slot `idx` from its buffer's chain, dropping the chain's
    /// head entry when `idx` was its only member.
    fn unlink(&mut self, idx: u32) {
        let Slot {
            key, prev, next, ..
        } = self.slots[idx as usize];
        if prev == NIL {
            if next == NIL {
                self.heads.remove(&key.buf);
            } else {
                self.heads.insert(key.buf, next);
            }
        } else {
            self.slots[prev as usize].next = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Removes slot `idx` and compacts the table: the last slot moves
    /// into the hole (deterministic — same op sequence, same layout)
    /// and its neighbours, or its chain head, are repointed.
    fn remove(&mut self, idx: u32) {
        self.unlink(idx);
        self.slots.swap_remove(idx as usize);
        let Some(&moved) = self.slots.get(idx as usize) else {
            return;
        };
        if moved.prev == NIL {
            self.heads.insert(moved.key.buf, idx);
        } else {
            self.slots[moved.prev as usize].next = idx;
        }
        if moved.next != NIL {
            self.slots[moved.next as usize].prev = idx;
        }
    }

    /// Drops every cached checksum computed over any buffer of `agg`'s
    /// slices — whole-slice sums and sub-range sums alike (send windows
    /// cache arbitrary subranges, so matching is by buffer identity
    /// ⟨pool, buffer, generation⟩, not by exact key). Each slice costs
    /// one chain: O(slices + removed), independent of the table size.
    ///
    /// This is the mutation hook (§3.5 meets §3.9): when a write
    /// replaces a cached aggregate, the replaced buffers' checksums are
    /// dead weight at best — and, should a buffer be recycled into a
    /// same-generation identity by a snapshot-restoring test harness, a
    /// stale hit at worst. Returns the number of entries removed.
    pub fn invalidate_aggregate(&mut self, agg: &iolite_buf::Aggregate) -> u64 {
        let mut removed = 0u64;
        for s in agg.slices() {
            let buf = BufKey::of(s);
            while let Some(&head) = self.heads.get(&buf) {
                self.remove(head);
                removed += 1;
            }
        }
        if removed > 0 {
            self.stats.invalidations += removed;
            // The hand may now point past the shortened table.
            if self.slots.is_empty() {
                self.hand = 0;
            } else {
                self.hand %= self.slots.len();
            }
        }
        removed
    }

    /// Counters so far.
    pub fn stats(&self) -> CksumCacheStats {
        self.stats
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Checks the chain index against the slot table and returns the
    /// number of chains: every slot is reachable from exactly one head
    /// (the one for its own buffer), `prev`/`next` links agree, and the
    /// map holds one head per distinct buffer. Walks the slots, never
    /// the map.
    ///
    /// Public but hidden: the checksum property suite runs it after
    /// every step of its model comparison.
    #[doc(hidden)]
    pub fn check_index(&self) -> Result<usize, String> {
        let mut seen = vec![false; self.slots.len()];
        let mut chains = 0;
        for (head, first) in self.slots.iter().enumerate() {
            if first.prev != NIL {
                continue;
            }
            chains += 1;
            if self.heads.get(&first.key.buf) != Some(&(head as u32)) {
                return Err(format!(
                    "slot {head} starts a chain but is not its buffer's head"
                ));
            }
            let (mut prev, mut idx) = (NIL, head as u32);
            while idx != NIL {
                let Some(slot) = self.slots.get(idx as usize) else {
                    return Err(format!("slot {prev} links to {idx}, past the table"));
                };
                if slot.key.buf != first.key.buf {
                    return Err(format!("slot {idx} is on another buffer's chain"));
                }
                if slot.prev != prev {
                    return Err(format!(
                        "slot {idx}: prev is {}, reached from {prev}",
                        slot.prev
                    ));
                }
                if std::mem::replace(&mut seen[idx as usize], true) {
                    return Err(format!("slot {idx} reached twice"));
                }
                prev = idx;
                idx = slot.next;
            }
        }
        if chains != self.heads.len() {
            return Err(format!("{} heads for {chains} chains", self.heads.len()));
        }
        match seen.iter().position(|&s| !s) {
            Some(idx) => Err(format!("slot {idx} is on no chain")),
            None => Ok(chains),
        }
    }

    /// Folds the cache's state into a stable digest. Slot order is the
    /// table's physical order (deterministic: admissions and the CLOCK
    /// hand are sequential), so no sorting is needed.
    pub fn digest(&self, h: &mut iolite_buf::Fnv64) {
        h.write_u64(self.capacity as u64);
        h.write_bool(self.enabled);
        h.write_u64(self.hand as u64);
        for v in [
            self.stats.hits,
            self.stats.misses,
            self.stats.bytes_cached,
            self.stats.bytes_computed,
            self.stats.evictions,
            self.stats.invalidations,
        ] {
            h.write_u64(v);
        }
        h.write_u64(self.slots.len() as u64);
        for slot in &self.slots {
            let Key { buf, offset, len } = slot.key;
            h.write_u32(buf.pool);
            h.write_u64(buf.chunk);
            h.write_u32(buf.buffer_offset);
            h.write_u64(buf.generation);
            h.write_u64(offset);
            h.write_u64(len);
            h.write_u32(slot.sum.sum as u32);
            h.write_u64(slot.sum.len);
            h.write_bool(slot.referenced);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_buf::{Acl, Aggregate, BufferPool, Fnv64, PoolId};

    fn slice(pool: &BufferPool, data: &[u8]) -> Slice {
        Aggregate::from_bytes(pool, data).slice_at(0).clone()
    }

    #[test]
    fn second_transmission_hits() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
        let s = slice(&pool, b"document body");
        let mut c = ChecksumCache::new(16);
        let a = c.sum_for(&s);
        let b = c.sum_for(&s);
        assert_eq!(a, b);
        let st = c.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        assert_eq!(st.bytes_cached, 13);
        assert_eq!(st.bytes_computed, 13);
    }

    #[test]
    fn different_subranges_are_distinct_keys() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
        let s = slice(&pool, b"abcdefgh");
        let mut c = ChecksumCache::new(16);
        c.sum_for(&s);
        let sub = s.sub(0, 4).unwrap();
        c.sum_for(&sub);
        assert_eq!(
            c.stats().misses,
            2,
            "sub-range must not hit whole-slice sum"
        );
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn recycled_buffer_generation_prevents_stale_hit() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 64);
        let mut c = ChecksumCache::new(16);
        // Fill the chunk completely so recycling reuses the same address.
        let s1 = slice(&pool, &[0x11; 64]);
        let id1 = (s1.id(), s1.generation());
        let sum1 = c.sum_for(&s1);
        drop(s1);
        let s2 = slice(&pool, &[0x22; 64]);
        assert_eq!(s2.id(), id1.0, "address must be reused for this test");
        assert_ne!(s2.generation(), id1.1);
        let sum2 = c.sum_for(&s2);
        assert_ne!(sum1.sum, sum2.sum);
        assert_eq!(c.stats().hits, 0, "no stale hit across generations");
    }

    #[test]
    fn disabled_cache_always_computes() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
        let s = slice(&pool, b"body");
        let mut c = ChecksumCache::new(16);
        c.set_enabled(false);
        c.sum_for(&s);
        c.sum_for(&s);
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().bytes_computed, 8);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_bound_holds() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
        let mut c = ChecksumCache::new(4);
        let slices: Vec<Slice> = (0..10).map(|i| slice(&pool, &[i as u8; 8])).collect();
        for s in &slices {
            c.sum_for(s);
        }
        assert!(c.len() <= 4);
        assert_eq!(c.stats().evictions, 6, "each overflow replaces one entry");
    }

    /// Regression: the old clear-all bound dropped the entire map when a
    /// single cold slice overflowed it. A recently referenced hot slice
    /// must survive an arbitrary stream of one-off cold slices.
    #[test]
    fn hot_slice_survives_cold_overflow() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 64 * 1024);
        let hot = slice(&pool, &[0x5A; 100]);
        let mut c = ChecksumCache::new(8);
        c.sum_for(&hot);
        let cold: Vec<Slice> = (0..64).map(|i| slice(&pool, &[i as u8; 16])).collect();
        for (i, s) in cold.iter().enumerate() {
            c.sum_for(s);
            if i % 3 == 0 {
                // Retransmission keeps the hot entry's reference bit set.
                let computed = c.stats().bytes_computed;
                c.sum_for(&hot);
                assert_eq!(
                    c.stats().bytes_computed,
                    computed,
                    "hot slice recomputed after {i} cold slices"
                );
            }
        }
        assert!(c.len() <= 8);
        // Every hot access after the first was a hit.
        assert_eq!(c.stats().bytes_computed as usize, 100 + 64 * 16);
    }

    /// Regression: `Key` used to truncate `offset_in_buffer`/`len` to
    /// `u32`, so two distinct slices ≥4 GiB apart in one buffer (or
    /// whose lengths differ by a multiple of 2³²) collided and served a
    /// stale checksum on the wire. Keys are synthesized directly: no
    /// test can allocate a 4 GiB buffer, but the collision was purely a
    /// property of the key arithmetic.
    #[test]
    fn distant_subranges_do_not_collide_under_truncation() {
        let buf = BufKey {
            chunk: 1,
            generation: 1,
            pool: 1,
            buffer_offset: 0,
        };
        let near = Key {
            buf,
            offset: 0,
            len: 1460,
        };
        let far = Key {
            buf,
            offset: 1 << 32,
            len: 1460,
        };
        let long = Key {
            buf,
            offset: 0,
            len: (1u64 << 32) + 1460,
        };
        // These are exactly the pairs `as u32` used to conflate.
        assert_eq!(near.offset as u32, far.offset as u32);
        assert_eq!(near.len as u32, long.len as u32);
        assert_ne!(near, far);
        assert_ne!(near, long);
        // And one buffer's chain keeps the three sums distinct.
        let mut c = ChecksumCache::new(16);
        for (sum, key) in [near, far, long].into_iter().enumerate() {
            c.admit(
                key,
                PartialSum {
                    sum: sum as u16 + 1,
                    len: key.len,
                },
            );
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.check_index(), Ok(1), "one buffer, one chain");
        for (sum, key) in [near, far, long].into_iter().enumerate() {
            let idx = c.find(&key).expect("resident");
            assert_eq!(c.slots[idx as usize].sum.sum, sum as u16 + 1);
        }
    }

    /// Regression: chunk ids and generations are per-pool counters, so
    /// the first allocation of every pool is ⟨chunk 0, offset 0,
    /// generation 0⟩. Two pools' same-length first slices must not
    /// share a checksum entry (e.g. two CGI instances, each with its
    /// own pool, §3.10).
    #[test]
    fn different_pools_do_not_collide() {
        let a = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
        let b = BufferPool::new(PoolId(2), Acl::kernel_only(), 4096);
        let sa = slice(&a, &[0x11; 64]);
        let sb = slice(&b, &[0x22; 64]);
        assert_eq!(sa.id(), sb.id(), "per-pool ids must coincide for this test");
        assert_eq!(sa.generation(), sb.generation());
        let mut c = ChecksumCache::new(16);
        let sum_a = c.sum_for(&sa);
        let sum_b = c.sum_for(&sb);
        assert_ne!(sum_a.sum, sum_b.sum, "no stale cross-pool checksum");
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.len(), 2);
    }

    /// A write retires the cached aggregate's buffers: every checksum
    /// over them — whole-slice and sub-range — must leave the table, so
    /// the next transmission recomputes instead of hitting, while
    /// unrelated entries survive untouched.
    #[test]
    fn invalidate_aggregate_drops_all_subranges() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
        let doc = Aggregate::from_bytes(&pool, b"cached document body");
        let other = slice(&pool, b"unrelated");
        let mut c = ChecksumCache::new(16);
        let s = doc.slice_at(0);
        c.sum_for(s);
        c.sum_for(&s.sub(0, 6).unwrap());
        c.sum_for(&s.sub(3, 9).unwrap());
        c.sum_for(&other);
        assert_eq!(c.len(), 4);
        let removed = c.invalidate_aggregate(&doc);
        assert_eq!(removed, 3, "whole slice plus both send-window subranges");
        assert_eq!(c.len(), 1, "the unrelated entry survives");
        assert_eq!(c.stats().invalidations, 3);
        // The next access over the (now logically stale) slice must be
        // a recompute, not a hit.
        let computed = c.stats().bytes_computed;
        c.sum_for(s);
        assert!(c.stats().bytes_computed > computed);
        let hits = c.stats().hits;
        c.sum_for(&other);
        assert_eq!(c.stats().hits, hits + 1, "survivor still hits");
        // Invalidating an aggregate with no cached sums is a no-op.
        assert_eq!(c.invalidate_aggregate(&doc), 1, "re-admitted whole sum");
        assert_eq!(c.invalidate_aggregate(&doc), 0);
    }

    /// CLOCK gives one-shot entries a second chance only when
    /// re-referenced: a scan that reuses nothing cycles through the
    /// table without disturbing entries whose bits are set.
    #[test]
    fn clock_hand_skips_referenced_entries() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
        let mut c = ChecksumCache::new(4);
        let keep: Vec<Slice> = (0..3)
            .map(|i| slice(&pool, &[0xF0 + i as u8; 24]))
            .collect();
        for s in &keep {
            c.sum_for(s);
        }
        // Re-reference all three: their bits are set.
        for s in &keep {
            c.sum_for(s);
        }
        // Two cold slices overflow the 4-entry table; each eviction must
        // take the single unreferenced slot (the previous cold entry),
        // never one of the referenced hot three... as long as the hot
        // set is re-referenced between overflows.
        for i in 0..8u8 {
            c.sum_for(&slice(&pool, &[i; 12]));
            for s in &keep {
                c.sum_for(s);
            }
        }
        let st = c.stats();
        // 3 first-touch computes + 8 cold computes; every other access hit.
        assert_eq!(st.misses, 11);
        assert_eq!(st.bytes_computed as usize, 3 * 24 + 8 * 12);
    }

    /// Regression: invalidation used to collect its victims by iterating
    /// a `HashMap`, whose order follows the map's per-instance hash seed,
    /// so two caches fed the same operations compacted their tables in
    /// different orders and diverged in `digest` once an invalidated
    /// buffer held two or more sub-range sums. Every fresh pair must now
    /// agree.
    #[test]
    fn same_operations_give_same_digest() {
        fn run(docs: &[Aggregate], fill: &[Slice]) -> u64 {
            let mut c = ChecksumCache::new(12);
            for doc in docs {
                let s = doc.slice_at(0);
                c.sum_for(s);
                c.sum_for(&s.sub(0, 8).unwrap());
                c.sum_for(&s.sub(4, 16).unwrap());
            }
            assert_eq!(c.invalidate_aggregate(&docs[1]), 3);
            assert_eq!(c.invalidate_aggregate(&docs[2]), 3);
            // Refill past capacity so the CLOCK hand replaces slots of
            // the compacted table, skipping a re-referenced survivor.
            c.sum_for(docs[0].slice_at(0));
            for s in fill {
                c.sum_for(s);
            }
            c.check_index().unwrap();
            let mut h = Fnv64::new();
            c.digest(&mut h);
            h.finish()
        }
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
        let docs: Vec<Aggregate> = (0..4u8)
            .map(|i| Aggregate::from_bytes(&pool, &[0x40 + i; 32]))
            .collect();
        // Held for the whole test: a dropped buffer could be recycled
        // under a new generation, feeding later runs different keys.
        let fill: Vec<Slice> = (0..8u8).map(|i| slice(&pool, &[i; 20])).collect();
        let expected = run(&docs, &fill);
        for _ in 0..100 {
            assert_eq!(run(&docs, &fill), expected);
        }
    }
}
