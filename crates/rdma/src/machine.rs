//! Simulated machines and their registered memory segments.

use crate::pool::WorkerPool;
use crate::MachineId;
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// An RPC handler: `(caller, request) -> reply`.
pub type RpcHandler = dyn Fn(MachineId, Bytes) -> Bytes + Send + Sync;

/// An unreliable-datagram handler: `(caller, payload)`.
pub type UdHandler = dyn Fn(MachineId, Bytes) + Send + Sync;

/// A registered memory segment — the target of one-sided verbs. In real FaRM
/// these are the 2 GB regions pinned and registered with the NIC.
pub struct Segment {
    data: RwLock<Vec<u8>>,
}

impl Segment {
    pub fn new(len: usize) -> Arc<Segment> {
        Arc::new(Segment {
            data: RwLock::new(vec![0; len]),
        })
    }

    /// Wrap existing bytes (used when re-attaching PyCo memory, §5.3).
    pub fn from_bytes(bytes: Vec<u8>) -> Arc<Segment> {
        Arc::new(Segment {
            data: RwLock::new(bytes),
        })
    }

    pub fn len(&self) -> usize {
        self.data.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Atomic (with respect to writes) copy of `[off, off+len)`.
    pub fn read(&self, off: usize, len: usize) -> Option<Bytes> {
        let data = self.data.read();
        let end = off.checked_add(len)?;
        data.get(off..end).map(Bytes::copy_from_slice)
    }

    pub fn write(&self, off: usize, src: &[u8]) -> Option<()> {
        let mut data = self.data.write();
        let end = off.checked_add(src.len())?;
        data.get_mut(off..end)?.copy_from_slice(src);
        Some(())
    }

    /// Compare-and-swap an 8-byte little-endian word. Returns the previous
    /// value; the swap happened iff the return equals `expect`.
    pub fn cas64(&self, off: usize, expect: u64, new: u64) -> Option<u64> {
        let mut data = self.data.write();
        let end = off.checked_add(8)?;
        let slot = data.get_mut(off..end)?;
        let prev = u64::from_le_bytes(slot.try_into().expect("8 bytes"));
        if prev == expect {
            slot.copy_from_slice(&new.to_le_bytes());
        }
        Some(prev)
    }

    /// Read an 8-byte little-endian word.
    pub fn read_u64(&self, off: usize) -> Option<u64> {
        let data = self.data.read();
        let end = off.checked_add(8)?;
        data.get(off..end)
            .map(|s| u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    /// Full copy of the segment's bytes (re-replication after failures).
    pub fn clone_bytes(&self) -> Vec<u8> {
        self.data.read().clone()
    }
}

/// One simulated machine: registered segments, an RPC handler and its worker
/// pool, and an alive flag for failure injection.
pub struct Machine {
    pub(crate) id: MachineId,
    pub(crate) rack: u32,
    pub(crate) alive: AtomicBool,
    pub(crate) segments: RwLock<HashMap<u64, Arc<Segment>>>,
    pub(crate) rpc_handler: RwLock<Option<Arc<RpcHandler>>>,
    pub(crate) ud_handler: RwLock<Option<Arc<UdHandler>>>,
    pub(crate) pool: WorkerPool,
}

impl Machine {
    pub(crate) fn new(id: MachineId, rack: u32, pool: WorkerPool) -> Machine {
        Machine {
            id,
            rack,
            alive: AtomicBool::new(true),
            segments: RwLock::new(HashMap::new()),
            rpc_handler: RwLock::new(None),
            ud_handler: RwLock::new(None),
            pool,
        }
    }

    pub fn id(&self) -> MachineId {
        self.id
    }

    pub fn rack(&self) -> u32 {
        self.rack
    }

    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Register (or replace) a memory segment under `seg_id`.
    pub fn register_segment(&self, seg_id: u64, seg: Arc<Segment>) {
        self.segments.write().insert(seg_id, seg);
    }

    pub fn unregister_segment(&self, seg_id: u64) -> Option<Arc<Segment>> {
        self.segments.write().remove(&seg_id)
    }

    pub fn segment(&self, seg_id: u64) -> Option<Arc<Segment>> {
        self.segments.read().get(&seg_id).cloned()
    }

    pub fn segment_ids(&self) -> Vec<u64> {
        self.segments.read().keys().copied().collect()
    }

    /// Install the RPC handler (A1's coprocessor dispatch, §2.2).
    pub fn set_rpc_handler(&self, h: Arc<RpcHandler>) {
        *self.rpc_handler.write() = Some(h);
    }

    pub fn set_ud_handler(&self, h: Arc<UdHandler>) {
        *self.ud_handler.write() = Some(h);
    }

    /// Worker queue depth — the paper's capacity limit shows up here.
    pub fn queue_depth(&self) -> usize {
        self.pool.queue_depth()
    }

    /// This machine's worker pool: where RPCs posted to this machine run,
    /// and where its work ops split into morsels (§3.4).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_read_write() {
        let seg = Segment::new(64);
        assert_eq!(seg.len(), 64);
        seg.write(8, &[1, 2, 3]).unwrap();
        assert_eq!(&seg.read(8, 3).unwrap()[..], &[1, 2, 3]);
        assert_eq!(&seg.read(7, 3).unwrap()[..], &[0, 1, 2]);
        assert!(seg.read(62, 4).is_none());
        assert!(seg.write(63, &[1, 2]).is_none());
        assert!(seg.read(usize::MAX, 2).is_none());
    }

    #[test]
    fn segment_cas() {
        let seg = Segment::new(64);
        assert_eq!(seg.cas64(0, 0, 7).unwrap(), 0);
        assert_eq!(seg.read_u64(0).unwrap(), 7);
        // Failed CAS returns current value and leaves the word unchanged.
        assert_eq!(seg.cas64(0, 0, 9).unwrap(), 7);
        assert_eq!(seg.read_u64(0).unwrap(), 7);
        assert!(seg.cas64(60, 0, 1).is_none());
    }

    #[test]
    fn machine_segments() {
        let m = Machine::new(MachineId(0), 0, WorkerPool::new("m0", 1, 2));
        assert!(m.is_alive());
        let seg = Segment::new(16);
        m.register_segment(5, seg.clone());
        assert!(m.segment(5).is_some());
        assert!(m.segment(6).is_none());
        assert_eq!(m.segment_ids(), vec![5]);
        m.unregister_segment(5).unwrap();
        assert!(m.segment(5).is_none());
    }
}
