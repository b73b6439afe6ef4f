//! The receive path: early demultiplexing into the right pool (§3.6).
//!
//! "To avoid copying, drivers must determine this information from the
//! headers of incoming packets using a packet filter, an operation known
//! as early demultiplexing. ... With IO-Lite, as with fbufs, early
//! demultiplexing is necessary for best performance."
//!
//! [`RxPath`] models the driver's decision: a packet whose stream the
//! filter identifies is stored *directly* into that stream's pool (no
//! copy); an unmatched packet (or a disabled filter — the conventional
//! driver) lands in an anonymous kernel buffer and owes one copy when
//! its destination becomes known.

use iolite_buf::{Acl, Aggregate, BufferPool, IdMap, PoolId};

use crate::filter::{PacketFilter, StreamId};
use crate::packet::SegmentHeader;

/// Accounting for received data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RxStats {
    /// Packets placed directly in their stream's pool.
    pub direct: u64,
    /// Packets that took the anonymous-buffer path.
    pub indirect: u64,
    /// Payload bytes copied because demux failed (the §3.6 penalty).
    pub bytes_copied: u64,
}

/// The driver's receive path: filter + per-stream pools.
pub struct RxPath {
    filter: PacketFilter,
    pools: IdMap<StreamId, BufferPool>,
    /// Anonymous kernel buffers for unmatched packets.
    anon_pool: BufferPool,
    stats: RxStats,
}

impl RxPath {
    /// Creates a receive path with an empty filter.
    pub fn new() -> Self {
        RxPath {
            filter: PacketFilter::new(),
            pools: IdMap::default(),
            anon_pool: BufferPool::new(
                PoolId(u32::MAX - 1),
                Acl::kernel_only(),
                iolite_buf::DEFAULT_CHUNK_SIZE,
            ),
            stats: RxStats::default(),
        }
    }

    /// The packet filter (install rules, toggle for the ablation).
    pub fn filter_mut(&mut self) -> &mut PacketFilter {
        &mut self.filter
    }

    /// Registers the pool receiving a stream's payloads.
    pub fn bind_stream(&mut self, stream: StreamId, pool: BufferPool) {
        self.pools.insert(stream, pool);
    }

    /// Receives one packet: returns the payload as an aggregate in the
    /// *correct* pool, plus whether a copy was required.
    ///
    /// The payload always ends up with the right ACL; the difference is
    /// purely whether it got there zero-copy (early demux hit) or via an
    /// anonymous buffer and one copy (miss / disabled filter).
    pub fn receive(&mut self, header: &SegmentHeader, payload: &[u8]) -> (Aggregate, bool) {
        match self.filter.demux(header).and_then(|s| self.pools.get(&s)) {
            Some(pool) => {
                self.stats.direct += 1;
                (Aggregate::from_bytes(pool, payload), false)
            }
            None => {
                // Anonymous landing buffer, then a copy into the right
                // pool once the socket layer resolves the destination.
                self.stats.indirect += 1;
                let anon = Aggregate::from_bytes(&self.anon_pool, payload);
                let dest = self
                    .pools
                    .values()
                    .next()
                    .cloned()
                    .unwrap_or_else(|| self.anon_pool.clone());
                let copied = anon.pack(&dest);
                self.stats.bytes_copied += payload.len() as u64;
                (copied, true)
            }
        }
    }

    /// Receive-path counters.
    pub fn stats(&self) -> RxStats {
        self.stats
    }
}

impl Default for RxPath {
    fn default() -> Self {
        RxPath::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterRule;
    use iolite_buf::DomainId;

    fn header(dst_port: u16) -> SegmentHeader {
        SegmentHeader {
            src_ip: 1,
            dst_ip: 2,
            src_port: 9999,
            dst_port,
            seq: 0,
            ack: 0,
            flags: 0x18,
            payload_len: 5,
        }
    }

    fn rx_with_rule() -> RxPath {
        let mut rx = RxPath::new();
        rx.filter_mut().add_rule(FilterRule {
            dst_port: 80,
            src_ip: None,
            src_port: None,
            stream: StreamId(1),
        });
        let pool = BufferPool::new(PoolId(5), Acl::with_domain(DomainId(3)), 64 * 1024);
        rx.bind_stream(StreamId(1), pool);
        rx
    }

    #[test]
    fn matched_packet_lands_zero_copy_in_right_pool() {
        let mut rx = rx_with_rule();
        let (agg, copied) = rx.receive(&header(80), b"hello");
        assert!(!copied);
        assert_eq!(agg.to_vec(), b"hello");
        assert_eq!(agg.slice_at(0).pool(), PoolId(5));
        assert!(agg.slice_at(0).acl().allows(DomainId(3)));
        assert_eq!(rx.stats().direct, 1);
        assert_eq!(rx.stats().bytes_copied, 0);
    }

    #[test]
    fn unmatched_packet_owes_a_copy() {
        let mut rx = rx_with_rule();
        let (agg, copied) = rx.receive(&header(81), b"stray");
        assert!(copied);
        assert_eq!(agg.to_vec(), b"stray");
        assert_eq!(rx.stats().indirect, 1);
        assert_eq!(rx.stats().bytes_copied, 5);
    }

    #[test]
    fn disabled_filter_models_conventional_driver() {
        let mut rx = rx_with_rule();
        rx.filter_mut().set_enabled(false);
        let (_, copied) = rx.receive(&header(80), b"data!");
        assert!(copied, "no early demux -> every packet copies");
        assert_eq!(rx.stats().bytes_copied, 5);
    }
}
