//! Cross-query hot-vertex read cache (ROADMAP item 2).
//!
//! A1's traffic is read-skewed: a few hub vertices dominate traversals, and
//! the paper's latency story depends on hot reads not paying a payload
//! transfer on every query. PR 5's per-work-op [`NeighborMemo`] proved that
//! reading a hub once per *batch* is worth ~5.7x, but the memo dies with the
//! work op. This module promotes the idea to a **per-machine, cross-query
//! cache** of vertex headers and records, consulted by the work-op read path
//! before touching FaRM memory.
//!
//! # Why a stale entry is structurally impossible to return
//!
//! An entry remembers the FaRM **version words** it was filled at: the
//! vertex header object's version and (when the vertex carries attributes)
//! the data object's version. A hit is served only after a HEADER-only probe
//! ([`Txn::probe_version`]) of the live object shows *exactly* the
//! remembered version — i.e. the cached bytes **are** the current bytes.
//! Every mutation of a FaRM object bumps its version word at commit, a freed
//! or migrated-and-reused block fails the probe with `NotFound`, and a
//! locked in-flight commit is waited out by the probe itself — so there is
//! no window in which changed bytes revalidate. Invalidation (below) is a
//! performance courtesy, not a correctness mechanism.
//!
//! # Snapshot rule
//!
//! Readers are pinned at a `snapshot_ts`. An entry whose version is newer
//! than the reader's snapshot is *valid for other readers* but not for this
//! one — [`VertexCache::lookup`] filters such entries out (without evicting
//! them) and the reader falls through to FaRM's old-version store. An entry
//! whose version is *older* than the snapshot is served only if the probe
//! proves it is still the latest committed version, which by MVCC semantics
//! is exactly what a snapshot read at `snapshot_ts` would return.
//!
//! # Invalidation choke point
//!
//! All graph writes funnel through [`crate::batch::BatchApplier`] (ingest
//! and `apply_batch`) or the interactive transaction commit path; both
//! collect the vertex addresses they touched and evict them from every
//! machine's cache after a successful commit. This keeps dead entries from
//! wasting capacity and re-probing; a write that somehow bypassed the choke
//! point would still be caught by revalidation.
//!
//! [`NeighborMemo`]: crate::query::exec
//! [`Txn::probe_version`]: a1_farm::Txn::probe_version

use crate::vertex::{VertexHeader, VERTEX_HEADER_SIZE};
use a1_bond::Record;
use a1_farm::Addr;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Knobs for the per-machine hot-vertex read cache (on
/// [`A1Config`](crate::server::A1Config)).
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Master switch. Disabled, the read path never consults or fills the
    /// cache.
    pub enabled: bool,
    /// Capacity budget per machine, in (approximate) payload bytes. Entries
    /// are CLOCK-evicted once a machine's cache exceeds its budget.
    pub capacity_bytes: usize,
    /// Clients whose queries bypass the cache entirely (neither consult nor
    /// fill). For tenants that prefer paying full read latency over sharing
    /// cache capacity, and for A/B measurement against live traffic.
    pub bypass_clients: Vec<String>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: true,
            capacity_bytes: 64 << 20,
            bypass_clients: Vec::new(),
        }
    }
}

/// What the cache remembers about one vertex, plus the version words that
/// gate serving it (see module docs).
#[derive(Debug, Clone)]
pub struct CachedVertex {
    pub hdr: VertexHeader,
    /// Version word of the vertex *header* object when this entry was
    /// filled.
    pub hdr_version: u64,
    /// Version word of the *data* object (0 when `hdr.data` is null or the
    /// record has not been cached yet). Tracked separately because an
    /// in-place attribute update rewrites only the data object — the header
    /// object's version word does not move.
    pub data_version: u64,
    /// The decoded attribute record; `None` until a record-reading query
    /// upgrades the entry (header-only fills come from traversal hops).
    pub record: Option<Arc<Record>>,
}

impl CachedVertex {
    fn cost(&self) -> usize {
        // Header + the data object's size hint + fixed bookkeeping. The
        // decoded `Record` is not byte-exact to measure cheaply; the
        // encoded size the pointer advertises tracks it closely enough for
        // capacity accounting.
        VERTEX_HEADER_SIZE
            + 64
            + if self.record.is_some() {
                self.hdr.data.size as usize
            } else {
                0
            }
    }
}

struct Entry {
    v: CachedVertex,
    cost: usize,
    /// CLOCK reference bit: set on every lookup, cleared (second chance) as
    /// the hand sweeps past.
    referenced: bool,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Addr, Entry>,
    /// CLOCK ring of insertion order. Slots whose address has since been
    /// removed from `map` are stale and are discarded as the hand meets
    /// them; the ring is compacted when stale slots dominate.
    ring: Vec<Addr>,
    hand: usize,
    bytes: usize,
}

const SHARDS: usize = 16;

/// One machine's cross-query read cache. Sharded by address so concurrent
/// morsels on the machine's worker pool don't serialize on one lock.
pub struct VertexCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Point-in-time counters for one machine's cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: u64,
    pub bytes: u64,
}

impl VertexCache {
    pub fn new(cfg: &CacheConfig) -> VertexCache {
        VertexCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: (cfg.capacity_bytes / SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, addr: Addr) -> &Mutex<Shard> {
        // Region ids and offsets are both sequential; mix them so neither
        // dimension alone maps a hot set onto one shard.
        let k = addr.raw();
        let h = (k ^ (k >> 17)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 32) as usize % SHARDS]
    }

    /// Return the entry for `addr` if one exists and is not too new for a
    /// reader pinned at `snapshot_ts` (the snapshot rule in the module
    /// docs). The caller must still revalidate the entry's version words
    /// against live FaRM memory before using it.
    pub fn lookup(&self, addr: Addr, snapshot_ts: u64) -> Option<CachedVertex> {
        let mut s = self.shard(addr).lock();
        let e = s.map.get_mut(&addr)?;
        if e.v.hdr_version > snapshot_ts || e.v.data_version > snapshot_ts {
            // Too new for this reader; other (newer) readers may still use
            // it, so this is a bypass, not an eviction.
            return None;
        }
        e.referenced = true;
        Some(e.v.clone())
    }

    /// Insert or replace the entry for `addr`, evicting CLOCK victims if the
    /// shard is over budget. Returns the number of entries evicted (for the
    /// caller to charge into fabric metrics).
    pub fn insert(&self, addr: Addr, v: CachedVertex) -> u64 {
        let cost = v.cost();
        let mut s = self.shard(addr).lock();
        match s.map.insert(
            addr,
            Entry {
                v,
                cost,
                referenced: false,
            },
        ) {
            Some(old) => s.bytes -= old.cost,
            None => s.ring.push(addr),
        }
        s.bytes += cost;
        let evicted = s.evict_to(self.shard_capacity, Some(addr));
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Drop `addr`'s entry (write invalidation, or a failed revalidation).
    pub fn invalidate(&self, addr: Addr) {
        let mut s = self.shard(addr).lock();
        if let Some(e) = s.map.remove(&addr) {
            s.bytes -= e.cost;
        }
    }

    /// Drop every listed address — the post-commit choke-point call.
    pub fn invalidate_many(&self, addrs: &[Addr]) {
        for &a in addrs {
            self.invalidate(a);
        }
    }

    /// Drop everything (tests, bench A/B resets).
    pub fn clear(&self) {
        for shard in &self.shards {
            *shard.lock() = Shard::default();
        }
    }

    pub fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    pub fn stats(&self) -> CacheStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            let s = shard.lock();
            entries += s.map.len() as u64;
            bytes += s.bytes as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

impl Shard {
    /// CLOCK sweep until the shard fits in `budget`. `keep` (the entry just
    /// inserted) gets immunity for this sweep so an oversized insert cannot
    /// evict itself and report a phantom hit-rate.
    fn evict_to(&mut self, budget: usize, keep: Option<Addr>) -> u64 {
        let mut evicted = 0u64;
        while self.bytes > budget && self.map.len() > 1 {
            if self.ring.is_empty() {
                break;
            }
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let addr = self.ring[self.hand];
            match self.map.get_mut(&addr) {
                None => {
                    // Stale slot (invalidated entry): discard without
                    // advancing the hand past the swapped-in slot.
                    self.ring.swap_remove(self.hand);
                }
                Some(e) if e.referenced || Some(addr) == keep => {
                    e.referenced = false;
                    self.hand += 1;
                }
                Some(_) => {
                    let e = self.map.remove(&addr).expect("checked above");
                    self.bytes -= e.cost;
                    self.ring.swap_remove(self.hand);
                    evicted += 1;
                }
            }
        }
        // Compact once stale slots dominate the ring, so invalidation-heavy
        // workloads don't grow it without bound.
        if self.ring.len() > 64 && self.ring.len() > 2 * self.map.len() {
            let map = &self.map;
            self.ring.retain(|a| map.contains_key(a));
            self.hand = 0;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TypeId;
    use a1_farm::{Ptr, RegionId};

    fn addr(i: u32) -> Addr {
        Addr::new(RegionId(1), i * 64)
    }

    fn entry(data_bytes: u32, version: u64) -> CachedVertex {
        let hdr = VertexHeader::new(TypeId(1), Ptr::new(addr(999), data_bytes));
        CachedVertex {
            hdr,
            hdr_version: version,
            data_version: version,
            record: Some(Arc::new(Record::new())),
        }
    }

    #[test]
    fn lookup_respects_snapshot() {
        let c = VertexCache::new(&CacheConfig::default());
        c.insert(addr(1), entry(100, 50));
        // A reader pinned before the entry's version must not see it…
        assert!(c.lookup(addr(1), 49).is_none());
        // …but it stays cached for newer readers.
        assert!(c.lookup(addr(1), 50).is_some());
        assert!(c.lookup(addr(1), 51).is_some());
    }

    #[test]
    fn invalidate_removes() {
        let c = VertexCache::new(&CacheConfig::default());
        c.insert(addr(1), entry(100, 1));
        c.insert(addr(2), entry(100, 1));
        c.invalidate_many(&[addr(1)]);
        assert!(c.lookup(addr(1), 10).is_none());
        assert!(c.lookup(addr(2), 10).is_some());
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn capacity_pressure_evicts() {
        let cfg = CacheConfig {
            capacity_bytes: SHARDS * 4096,
            ..CacheConfig::default()
        };
        let c = VertexCache::new(&cfg);
        for i in 0..256 {
            c.insert(addr(i), entry(2048, 1));
        }
        let st = c.stats();
        assert!(st.evictions > 0, "over-budget inserts must evict");
        assert!(
            st.bytes <= (SHARDS * 4096 + 4096) as u64,
            "stays near budget, got {}",
            st.bytes
        );
        assert!(st.entries < 256);
    }

    #[test]
    fn clock_prefers_unreferenced_victims() {
        let cfg = CacheConfig {
            // One entry (~2160 bytes) per shard fits; a second forces a
            // sweep in that shard.
            capacity_bytes: SHARDS * 2500,
            ..CacheConfig::default()
        };
        let c = VertexCache::new(&cfg);
        for i in 0..512 {
            c.insert(addr(i), entry(2048, 1));
            // Touch everything previously inserted except addr(0): the
            // reference bit should steer the hand toward cold entries.
            if i > 0 && i % 7 != 0 {
                c.lookup(addr(i), 10);
            }
        }
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn reinsert_replaces_and_reaccounts() {
        let c = VertexCache::new(&CacheConfig::default());
        c.insert(addr(1), entry(4096, 1));
        let b1 = c.stats().bytes;
        c.insert(addr(1), entry(64, 2));
        let b2 = c.stats().bytes;
        assert!(b2 < b1, "replacement must not double-count ({b1} -> {b2})");
        assert_eq!(c.stats().entries, 1);
        let got = c.lookup(addr(1), 10).unwrap();
        assert_eq!(got.hdr_version, 2);
    }
}
