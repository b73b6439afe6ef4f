//! Property tests for the Internet checksum algebra, the checksum
//! cache's generation discipline, and the cache against a scanning
//! reference model.

use iolite_buf::{Acl, Aggregate, BufferId, BufferPool, Generation, PoolId, Slice};
use iolite_net::checksum::{bytes_sum, combine, finalize, reference_checksum, PartialSum};
use iolite_net::{internet_checksum, slice_sum, ChecksumCache, CksumCacheStats};
use proptest::prelude::*;

/// One entry of [`Model`]: the full slice identity, its sum, its CLOCK
/// bit, and when it was last linked into its buffer's chain.
struct ModelSlot {
    buf: (PoolId, BufferId, Generation),
    offset: usize,
    len: usize,
    sum: PartialSum,
    referenced: bool,
    linked: u64,
}

/// A scanning reference for `ChecksumCache`: every lookup and
/// invalidation walks the whole table. It shares the cache's CLOCK and
/// swap-with-last compaction rules; the cache's chain order is modelled
/// by link time, since a chain's head is its most recently linked entry
/// and invalidation pops heads.
struct Model {
    capacity: usize,
    slots: Vec<ModelSlot>,
    hand: usize,
    links: u64,
    stats: CksumCacheStats,
}

fn buf_of(s: &Slice) -> (PoolId, BufferId, Generation) {
    (s.pool(), s.id(), s.generation())
}

impl Model {
    fn new(capacity: usize) -> Model {
        Model {
            capacity,
            slots: Vec::new(),
            hand: 0,
            links: 0,
            stats: CksumCacheStats::default(),
        }
    }

    fn sum_for(&mut self, s: &Slice) -> PartialSum {
        let (buf, offset, len) = (buf_of(s), s.offset_in_buffer(), s.len());
        if let Some(slot) = self
            .slots
            .iter_mut()
            .find(|m| m.buf == buf && m.offset == offset && m.len == len)
        {
            slot.referenced = true;
            self.stats.hits += 1;
            self.stats.bytes_cached += len as u64;
            return slot.sum;
        }
        let sum = slice_sum(s);
        self.stats.misses += 1;
        self.stats.bytes_computed += len as u64;
        self.links += 1;
        let slot = ModelSlot {
            buf,
            offset,
            len,
            sum,
            referenced: false,
            linked: self.links,
        };
        if self.slots.len() < self.capacity {
            self.slots.push(slot);
        } else {
            while self.slots[self.hand].referenced {
                self.slots[self.hand].referenced = false;
                self.hand = (self.hand + 1) % self.capacity;
            }
            self.slots[self.hand] = slot;
            self.stats.evictions += 1;
            self.hand = (self.hand + 1) % self.capacity;
        }
        sum
    }

    fn invalidate(&mut self, agg: &Aggregate) -> u64 {
        let mut removed = 0;
        for s in agg.slices() {
            let buf = buf_of(s);
            while let Some(head) = (0..self.slots.len())
                .filter(|&i| self.slots[i].buf == buf)
                .max_by_key(|&i| self.slots[i].linked)
            {
                self.slots.swap_remove(head);
                removed += 1;
            }
        }
        if removed > 0 {
            self.stats.invalidations += removed;
            self.hand = if self.slots.is_empty() {
                0
            } else {
                self.hand % self.slots.len()
            };
        }
        removed
    }

    fn buffers(&self) -> usize {
        let mut bufs: Vec<_> = self.slots.iter().map(|m| m.buf).collect();
        bufs.sort_unstable();
        bufs.dedup();
        bufs.len()
    }
}

proptest! {
    /// Splitting a message anywhere and folding partial sums equals the
    /// whole-message checksum (the property per-slice caching needs).
    #[test]
    fn combine_is_concatenation(data in proptest::collection::vec(any::<u8>(), 0..512),
                                splits in proptest::collection::vec(any::<usize>(), 0..6)) {
        let mut cut_points: Vec<usize> = splits
            .into_iter()
            .map(|s| if data.is_empty() { 0 } else { s % (data.len() + 1) })
            .collect();
        cut_points.push(0);
        cut_points.push(data.len());
        cut_points.sort_unstable();
        let mut acc = bytes_sum(&[]);
        for pair in cut_points.windows(2) {
            acc = combine(acc, bytes_sum(&data[pair[0]..pair[1]]));
        }
        prop_assert_eq!(finalize(acc), reference_checksum(&data));
    }

    /// Any fragmentation of an aggregate yields the same checksum.
    #[test]
    fn aggregate_checksum_fragmentation_invariant(
        data in proptest::collection::vec(any::<u8>(), 1..1024),
        chunk in 1usize..128,
    ) {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), chunk);
        let agg = Aggregate::from_bytes(&pool, &data);
        prop_assert_eq!(internet_checksum(&agg), reference_checksum(&data));
    }

    /// The cache never serves a sum that differs from recomputation,
    /// across arbitrary allocate/drop/recompute interleavings (the
    /// generation-number discipline of §3.9).
    #[test]
    fn cache_never_stale(rounds in proptest::collection::vec(
        (proptest::collection::vec(any::<u8>(), 1..128), any::<bool>()), 1..40)) {
        // Tiny chunks force heavy recycling, the dangerous case.
        let pool = BufferPool::new(PoolId(2), Acl::kernel_only(), 128);
        let mut cache = ChecksumCache::new(8);
        let mut held: Vec<Aggregate> = Vec::new();
        for (data, drop_after) in rounds {
            let agg = Aggregate::from_bytes(&pool, &data);
            for s in agg.slices() {
                let cached = cache.sum_for(s);
                let fresh = iolite_net::slice_sum(s);
                prop_assert_eq!(cached, fresh, "stale checksum served");
            }
            if drop_after {
                held.clear();
            } else {
                held.push(agg);
            }
        }
    }

    /// The indexed cache is step-for-step equivalent to the scanning
    /// model over random mixes of whole-slice and sub-range sums from
    /// two pools, dropped aggregates whose buffers come back under a new
    /// generation at the same address, and invalidations — including of
    /// aggregates already dropped and of buffers holding several
    /// sub-range sums — and its chain index stays consistent throughout.
    #[test]
    fn cache_matches_scanning_model(
        capacity in 1usize..16,
        ops in proptest::collection::vec((0u8..10, any::<u16>(), any::<u16>(), any::<u16>()), 1..200),
    ) {
        // Small chunks: multi-slice aggregates and frequent recycling.
        let pools = [
            BufferPool::new(PoolId(1), Acl::kernel_only(), 64),
            BufferPool::new(PoolId(2), Acl::kernel_only(), 64),
        ];
        let mut cache = ChecksumCache::new(capacity);
        let mut model = Model::new(capacity);
        let mut held: Vec<Aggregate> = Vec::new();
        let mut retired: Vec<Aggregate> = Vec::new();
        for (kind, a, b, c) in ops {
            let (a, b, c) = (a as usize, b as usize, c as usize);
            match kind {
                0 | 1 if held.len() < 24 => {
                    let data: Vec<u8> = (0..1 + b % 200).map(|i| (c + i * 7) as u8).collect();
                    held.push(Aggregate::from_bytes(&pools[a % 2], &data));
                }
                2 if !held.is_empty() => {
                    let agg = held.swap_remove(a % held.len());
                    if c % 2 == 0 {
                        retired.push(agg);
                    }
                    if retired.len() > 4 {
                        retired.remove(0);
                    }
                }
                3..=8 if !held.is_empty() => {
                    let agg = &held[a % held.len()];
                    let whole = agg.slice_at(b % agg.slices().len());
                    let s = if kind <= 5 {
                        whole.clone()
                    } else {
                        let off = c % whole.len();
                        whole.sub(off, 1 + (c >> 8) % (whole.len() - off)).unwrap()
                    };
                    let got = cache.sum_for(&s);
                    prop_assert_eq!(got, model.sum_for(&s));
                    prop_assert_eq!(got, slice_sum(&s), "stale checksum served");
                }
                9 => {
                    let agg = match (held.is_empty(), retired.is_empty()) {
                        (false, true) => &held[a % held.len()],
                        (true, false) => &retired[a % retired.len()],
                        (false, false) if b % 2 == 0 => &held[a % held.len()],
                        (false, false) => &retired[a % retired.len()],
                        (true, true) => continue,
                    };
                    prop_assert_eq!(cache.invalidate_aggregate(agg), model.invalidate(agg));
                }
                _ => continue,
            }
            prop_assert_eq!(cache.stats(), model.stats);
            prop_assert_eq!(cache.len(), model.slots.len());
            prop_assert_eq!(cache.check_index(), Ok(model.buffers()));
        }
    }
}
