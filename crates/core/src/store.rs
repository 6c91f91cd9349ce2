//! The graph store: data-plane CRUD on vertices and edges (paper §3.2).
//!
//! All operations run inside a caller-provided FaRM transaction, so clients
//! can group them atomically (§3: "CreateTransaction ... group multiple data
//! plane operations into a single atomic transaction"). Layout decisions
//! follow the paper: vertex data is allocated next to the vertex header;
//! edge lists next to their vertex; index entries point at headers with
//! ⟨addr, size⟩ pointers.

use crate::catalog::{GraphProxy, VertexProxy};
use crate::convert::record_to_json;
use crate::edges::{self, Dir};
use crate::error::{A1Error, A1Result};
use crate::model::TypeId;
use crate::vertex::{vertex_ptr, VertexHeader, VERTEX_HEADER_SIZE};
use a1_bond::{decode_record, encode_record, keyenc, Record, Value};
use a1_farm::{Addr, FarmCluster, FarmError, Hint, Ptr, Txn};
use a1_json::Json;
use std::sync::Arc;

/// Bounded jittered exponential backoff between optimistic-conflict retries
/// (paper Fig. 3). Sleeps `min(2·2^attempt + jitter, cap_us)` microseconds,
/// with the jitter drawn from the cluster's seeded RNG so contending
/// retriers desynchronize instead of re-colliding in lockstep, and the sleep
/// routed through the cluster clock (virtual under simulation). Shared by
/// [`run_a1`], `A1Txn::commit_with_retry`, `A1Client::apply_batch`, and the
/// `a1-ingest` applier loop.
pub fn conflict_backoff(farm: &FarmCluster, attempt: usize, cap_us: u64) {
    let fabric = farm.fabric();
    let backoff_us = 2u64 << attempt.min(20);
    let jitter = 1 + fabric.rng().gen_range(7);
    fabric.clock().sleep(std::time::Duration::from_micros(
        (backoff_us + jitter).min(cap_us.max(1)),
    ));
}

/// Retry wrapper like [`FarmCluster::run`] but for A1-level results.
pub fn run_a1<T>(
    farm: &Arc<FarmCluster>,
    origin: a1_farm::MachineId,
    mut f: impl FnMut(&mut Txn) -> A1Result<T>,
) -> A1Result<T> {
    let max = farm.config().max_txn_retries;
    for attempt in 0..=max {
        let mut tx = farm.begin(origin);
        match f(&mut tx) {
            Ok(v) => match tx.commit() {
                Ok(_) => return Ok(v),
                Err(e) if e.is_retryable() && attempt < max => {}
                Err(e) => return Err(e.into()),
            },
            Err(e) if e.is_retryable() && attempt < max => {
                tx.abort();
            }
            Err(e) => {
                tx.abort();
                return Err(e);
            }
        }
        conflict_backoff(farm, attempt, 300);
    }
    Err(FarmError::Conflict.into())
}

/// Secondary-index key: order-preserving attr encoding + owner address (the
/// address suffix makes keys unique without a uniqueness requirement on the
/// attribute, §3).
fn secondary_key(value: &Value, owner: Addr) -> A1Result<Vec<u8>> {
    let mut k = keyenc::encode_key(value).map_err(|e| A1Error::Schema(e.to_string()))?;
    k.extend_from_slice(&owner.raw().to_be_bytes());
    Ok(k)
}

/// Primary-index key for a vertex's primary-key value.
pub fn primary_key_bytes(value: &Value) -> A1Result<Vec<u8>> {
    keyenc::encode_key(value).map_err(|e| A1Error::Schema(e.to_string()))
}

/// Stateless data-plane operations (all take a transaction).
#[derive(Default)]
pub struct GraphStore;

impl GraphStore {
    /// Create a vertex: data object + header object (co-located), primary
    /// and secondary index insertions. Returns the vertex pointer.
    pub fn create_vertex(&self, tx: &mut Txn, t: &VertexProxy, rec: Record) -> A1Result<Ptr> {
        t.def.schema.validate(&rec)?;
        let pk_value = rec
            .get(t.def.primary_key)
            .ok_or_else(|| A1Error::Schema("primary key missing".into()))?
            .clone();
        let pk = primary_key_bytes(&pk_value)?;
        if t.primary.get(tx, &pk)?.is_some() {
            return Err(A1Error::AlreadyExists(format!(
                "vertex {}:{:?}",
                t.def.name, pk_value
            )));
        }

        // Data object first, then the header co-located next to it (§3.2:
        // "we use locality to store both of them in the same region").
        let data_bytes = encode_record(&rec);
        let data_ptr = tx.alloc(data_bytes.len().max(1), Hint::Local, &data_bytes)?;
        let hdr = VertexHeader::new(t.def.id, data_ptr);
        let hdr_ptr = tx.alloc(VERTEX_HEADER_SIZE, Hint::Near(data_ptr.addr), &hdr.encode())?;

        let mut ptr_bytes = Vec::with_capacity(Ptr::ENCODED_LEN);
        hdr_ptr.encode_to(&mut ptr_bytes);
        t.primary.insert(tx, &pk, &ptr_bytes)?;
        for (field, index) in &t.secondaries {
            if let Some(v) = rec.get(*field) {
                index.insert(tx, &secondary_key(v, hdr_ptr.addr)?, &ptr_bytes)?;
            }
        }
        Ok(hdr_ptr)
    }

    /// Primary-index lookup: pk value → vertex pointer (§3.2 "look up the
    /// vertex pointer from the index").
    pub fn vertex_by_pk(
        &self,
        tx: &mut Txn,
        t: &VertexProxy,
        pk_value: &Value,
    ) -> A1Result<Option<Ptr>> {
        let pk = primary_key_bytes(pk_value)?;
        match t.primary.get(tx, &pk)? {
            Some(v) => {
                Ok(Some(Ptr::decode(&v).ok_or_else(|| {
                    A1Error::Internal("bad index value".into())
                })?))
            }
            None => Ok(None),
        }
    }

    /// Secondary-index lookup: attr value → vertex pointers.
    pub fn vertices_by_secondary(
        &self,
        tx: &mut Txn,
        t: &VertexProxy,
        field: u16,
        value: &Value,
        limit: usize,
    ) -> A1Result<Vec<Ptr>> {
        let index = t
            .secondaries
            .iter()
            .find(|(f, _)| *f == field)
            .map(|(_, idx)| idx)
            .ok_or_else(|| A1Error::Query(format!("no secondary index on field {field}")))?;
        let prefix = primary_key_bytes(value)?;
        index
            .scan_prefix(tx, &prefix, limit)?
            .into_iter()
            .map(|(_, v)| {
                Ptr::decode(&v).ok_or_else(|| A1Error::Internal("bad index value".into()))
            })
            .collect()
    }

    /// Read a vertex's header and (optionally present) attribute record.
    /// Reading a vertex through a pointer is two dependent reads: header
    /// then data (§3.2).
    pub fn read_vertex(
        &self,
        tx: &mut Txn,
        addr: Addr,
    ) -> A1Result<(VertexHeader, Option<Record>)> {
        let (_, hdr) = edges::read_header(tx, addr)?;
        let rec = self.read_vertex_data(tx, &hdr)?;
        Ok((hdr, rec))
    }

    pub fn read_vertex_data(&self, tx: &mut Txn, hdr: &VertexHeader) -> A1Result<Option<Record>> {
        Ok(self.read_vertex_data_versioned(tx, hdr)?.map(|(_, r)| r))
    }

    /// Like [`read_vertex_data`](Self::read_vertex_data) but also returns
    /// the data object's FaRM version word, which the read cache needs to
    /// key its revalidation (an in-place attribute update bumps only the
    /// data object's version — the header object does not move).
    pub fn read_vertex_data_versioned(
        &self,
        tx: &mut Txn,
        hdr: &VertexHeader,
    ) -> A1Result<Option<(u64, Record)>> {
        if hdr.data.is_null() {
            return Ok(None);
        }
        let buf = tx.read(hdr.data)?;
        let rec = decode_record(buf.data()).map_err(|e| A1Error::Internal(e.to_string()))?;
        Ok(Some((buf.version, rec)))
    }

    /// Replace a vertex's attributes. The primary key is immutable. Grows
    /// reallocate the data object near the old one ("we keep its locality
    /// intact by passing the old object's address into the Alloc call",
    /// §2.2); secondary indexes are updated for changed values.
    pub fn update_vertex(
        &self,
        tx: &mut Txn,
        t: &VertexProxy,
        addr: Addr,
        rec: Record,
    ) -> A1Result<()> {
        t.def.schema.validate(&rec)?;
        let (hdr_buf, mut hdr) = edges::read_header(tx, addr)?;
        if hdr.type_id != t.def.id {
            return Err(A1Error::Schema("type mismatch on update".into()));
        }
        let old_rec = self.read_vertex_data(tx, &hdr)?.unwrap_or_default();
        let old_pk = old_rec.get(t.def.primary_key);
        if old_pk != rec.get(t.def.primary_key) {
            return Err(A1Error::Schema("primary key is immutable".into()));
        }

        let data_bytes = encode_record(&rec);
        if !hdr.data.is_null() {
            let data_buf = tx.read(hdr.data)?;
            if data_bytes.len() <= data_buf.capacity as usize {
                tx.update(&data_buf, data_bytes)?;
                // Rewrite the header too (same bytes) so its version word
                // moves on *every* vertex mutation — the invariant that lets
                // the read cache validate a whole cached vertex (header +
                // record) with one header probe.
                tx.update(&hdr_buf, hdr.encode())?;
            } else {
                let new_ptr = tx.alloc(data_bytes.len(), Hint::Near(hdr.data.addr), &data_bytes)?;
                tx.free(&data_buf)?;
                hdr.data = new_ptr;
                tx.update(&hdr_buf, hdr.encode())?;
            }
        } else {
            let new_ptr = tx.alloc(data_bytes.len().max(1), Hint::Near(addr), &data_bytes)?;
            hdr.data = new_ptr;
            tx.update(&hdr_buf, hdr.encode())?;
        }

        // Secondary index maintenance for changed attribute values.
        for (field, index) in &t.secondaries {
            let old_v = old_rec.get(*field);
            let new_v = rec.get(*field);
            if old_v == new_v {
                continue;
            }
            if let Some(ov) = old_v {
                index.remove(tx, &secondary_key(ov, addr)?)?;
            }
            if let Some(nv) = new_v {
                let mut ptr_bytes = Vec::with_capacity(Ptr::ENCODED_LEN);
                vertex_ptr(addr).encode_to(&mut ptr_bytes);
                index.insert(tx, &secondary_key(nv, addr)?, &ptr_bytes)?;
            }
        }
        Ok(())
    }

    /// Delete a vertex and *all* of its edges — inspecting the incoming edge
    /// list to clean up the forward half-edges at neighbors, exactly the
    /// dangling-edge scenario of §3.2.
    pub fn delete_vertex(
        &self,
        tx: &mut Txn,
        g: &GraphProxy,
        t: &VertexProxy,
        addr: Addr,
    ) -> A1Result<()> {
        let (hdr_buf, hdr) = edges::read_header(tx, addr)?;
        if hdr.type_id != t.def.id {
            return Err(A1Error::Schema("type mismatch on delete".into()));
        }
        let rec = self.read_vertex_data(tx, &hdr)?.unwrap_or_default();

        // Remove mirrored half-edges at all neighbors, then our own lists.
        for dir in [Dir::Out, Dir::In] {
            let mine = edges::enumerate(tx, &g.edge_tree, addr, &hdr, dir, None, usize::MAX)?;
            for he in mine {
                if he.other != addr {
                    let (other_buf, mut other_hdr) = edges::read_header(tx, he.other)?;
                    edges::remove_half_edge(
                        tx,
                        &g.edge_tree,
                        he.other,
                        &mut other_hdr,
                        dir.flip(),
                        he.edge_type,
                        addr,
                    )?;
                    tx.update(&other_buf, other_hdr.encode())?;
                }
                // Edge data is referenced from both half-edges; free it when
                // processing the outgoing side (or self-loops once).
                if dir == Dir::Out && !he.data.is_null() {
                    let data_buf = tx.read(he.data)?;
                    tx.free(&data_buf)?;
                }
            }
            // Drop our own list storage.
            match hdr.edges(dir) {
                crate::vertex::EdgeListRef::Inline(ptr) => {
                    let buf = tx.read(ptr)?;
                    tx.free(&buf)?;
                }
                crate::vertex::EdgeListRef::Tree => {
                    let prefix = edges::tree_prefix_dir(addr, dir);
                    for (k, _) in g.edge_tree.scan_prefix(tx, &prefix, usize::MAX)? {
                        g.edge_tree.remove(tx, &k)?;
                    }
                }
                crate::vertex::EdgeListRef::Empty => {}
            }
        }

        // Index removal.
        if let Some(pk_value) = rec.get(t.def.primary_key) {
            t.primary.remove(tx, &primary_key_bytes(pk_value)?)?;
        }
        for (field, index) in &t.secondaries {
            if let Some(v) = rec.get(*field) {
                index.remove(tx, &secondary_key(v, addr)?)?;
            }
        }

        // Free data + header.
        if !hdr.data.is_null() {
            let data_buf = tx.read(hdr.data)?;
            tx.free(&data_buf)?;
        }
        tx.free(&hdr_buf)?;
        Ok(())
    }

    /// Create an edge src→dst with optional attributes. The edge-data object
    /// is co-located with the source vertex (§3.2).
    pub fn create_edge(
        &self,
        tx: &mut Txn,
        g: &GraphProxy,
        edge_type: TypeId,
        src: Addr,
        dst: Addr,
        data: Option<Record>,
    ) -> A1Result<()> {
        let data_ptr = match data {
            Some(rec) if !rec.is_empty() => {
                let bytes = encode_record(&rec);
                tx.alloc(bytes.len(), Hint::Near(src), &bytes)?
            }
            _ => Ptr::NULL,
        };
        edges::add_edge(tx, &g.edge_tree, src, edge_type, dst, data_ptr)
    }

    /// Delete one edge; frees its data object.
    pub fn delete_edge(
        &self,
        tx: &mut Txn,
        g: &GraphProxy,
        edge_type: TypeId,
        src: Addr,
        dst: Addr,
    ) -> A1Result<bool> {
        match edges::drop_edge(tx, &g.edge_tree, src, edge_type, dst)? {
            Some(data_ptr) => {
                if !data_ptr.is_null() {
                    let buf = tx.read(data_ptr)?;
                    tx.free(&buf)?;
                }
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Read the attributes of the edge ⟨src, type, dst⟩.
    pub fn read_edge_data(
        &self,
        tx: &mut Txn,
        g: &GraphProxy,
        edge_type: TypeId,
        src: Addr,
        dst: Addr,
    ) -> A1Result<Option<Record>> {
        let (_, hdr) = edges::read_header(tx, src)?;
        let he = edges::find_half_edge(tx, &g.edge_tree, src, &hdr, Dir::Out, edge_type, dst)?;
        match he {
            Some(he) if !he.data.is_null() => {
                let buf = tx.read(he.data)?;
                Ok(Some(
                    decode_record(buf.data()).map_err(|e| A1Error::Internal(e.to_string()))?,
                ))
            }
            Some(_) => Ok(Some(Record::new())),
            None => Ok(None),
        }
    }

    /// Render a vertex as JSON (row output).
    pub fn vertex_to_json(&self, tx: &mut Txn, t: &VertexProxy, addr: Addr) -> A1Result<Json> {
        let (hdr, rec) = self.read_vertex(tx, addr)?;
        let mut obj = vec![("_type".to_string(), Json::Str(t.def.name.clone()))];
        let _ = hdr;
        if let Some(rec) = rec {
            if let Json::Obj(fields) = record_to_json(&t.def.schema, &rec) {
                obj.extend(fields);
            }
        }
        Ok(Json::Obj(obj))
    }
}
