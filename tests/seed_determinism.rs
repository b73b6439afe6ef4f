//! Kernel maps keyed by kernel-assigned ids carry no hash seed.
//!
//! Two caches built in one process by the same operations must agree
//! on their iteration order and digests. With `std`'s `RandomState`
//! every map draws its own seed, so two unified caches holding a few
//! hundred keys would list them in different orders.

use iolite::buf::{Acl, Aggregate, BufferPool, Fnv64, PoolId, Slice};
use iolite::fs::{CacheKey, FileId, Policy, UnifiedCache};
use iolite::net::ChecksumCache;

/// Inserts past the budget (evictions), pins some keys, replaces a
/// pinned one for a write, and re-admits evicted keys.
fn unified_cache_keys(pool: &BufferPool, docs: &[Aggregate]) -> Vec<CacheKey> {
    let mut cache = UnifiedCache::new(Policy::Gds, 200 * 1024);
    for (i, doc) in docs.iter().enumerate() {
        let key = CacheKey {
            file: FileId(i as u64 % 300),
            offset: (i as u64 / 300) << 16,
        };
        cache.insert(key, doc.clone());
        if i % 7 == 0 {
            cache.pin(&key);
        }
        if i % 11 == 0 {
            cache.lookup(&CacheKey::whole(FileId(i as u64 / 2)));
        }
    }
    let pinned = CacheKey::whole(FileId(0));
    cache.replace_for_write(&pinned);
    cache.insert_dirty(pinned, Aggregate::from_bytes(pool, b"new version"));
    for i in (0..300).step_by(3) {
        cache.unpin(&CacheKey::whole(FileId(i)));
    }
    assert!(cache.stats().evictions > 0, "the budget forced evictions");
    cache.keys().copied().collect()
}

#[test]
fn unified_caches_built_alike_iterate_alike() {
    let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 64 * 1024);
    let docs: Vec<Aggregate> = (0..600u32)
        .map(|i| Aggregate::from_bytes(&pool, &vec![i as u8; 512 + (i as usize * 37) % 2048]))
        .collect();
    let first = unified_cache_keys(&pool, &docs);
    assert!(first.len() > 50);
    for _ in 0..8 {
        assert_eq!(unified_cache_keys(&pool, &docs), first);
    }
}

fn checksum_cache_digest(docs: &[Aggregate], fill: &[Slice]) -> u64 {
    let mut cache = ChecksumCache::new(64);
    for doc in docs {
        let s = doc.slice_at(0);
        cache.sum_for(s);
        cache.sum_for(&s.sub(0, 8).unwrap());
        cache.sum_for(&s.sub(4, 16).unwrap());
    }
    for doc in docs.iter().step_by(3) {
        cache.invalidate_aggregate(doc);
    }
    for s in fill {
        cache.sum_for(s);
    }
    let mut h = Fnv64::new();
    cache.digest(&mut h);
    h.finish()
}

#[test]
fn checksum_caches_built_alike_digest_alike() {
    let pool = BufferPool::new(PoolId(2), Acl::kernel_only(), 64 * 1024);
    let docs: Vec<Aggregate> = (0..48u8)
        .map(|i| Aggregate::from_bytes(&pool, &[i; 40]))
        .collect();
    let fill_agg: Vec<Aggregate> = (0..80u8)
        .map(|i| Aggregate::from_bytes(&pool, &[!i; 24]))
        .collect();
    let fill: Vec<Slice> = fill_agg.iter().map(|a| a.slice_at(0).clone()).collect();
    let first = checksum_cache_digest(&docs, &fill);
    for _ in 0..8 {
        assert_eq!(checksum_cache_digest(&docs, &fill), first);
    }
}
