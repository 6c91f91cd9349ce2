//! Edge storage: half-edges, inline edge lists, and the global edge B-tree
//! (paper §3.2, Fig. 7).
//!
//! An edge from v1 to v2 is stored as *two half-edges*: one in v1's outgoing
//! list and one in v2's incoming list, each ⟨edge type, other-vertex
//! pointer, data pointer⟩. Mirroring means deletes never leave dangling
//! edges (the paper's motivating example for not using a TAO-style cache).
//!
//! Small lists live in one variable-length FaRM object that grows
//! geometrically (4 → 8 → … entries). Past [`DEFAULT_INLINE_THRESHOLD`]
//! (≈1000 in the paper; 99.9% of vertices stay below it) the list migrates
//! into the per-graph **global edge B-tree** keyed ⟨owner, direction, edge
//! type, other⟩. Inline lists are co-located with their vertex header via
//! allocation hints, so enumerating a local vertex's edges is a local read.

use crate::error::{A1Error, A1Result};
use crate::model::TypeId;
use crate::vertex::{vertex_ptr, EdgeListRef, VertexHeader};
use a1_farm::{Addr, BTree, FarmError, Hint, ObjBuf, Ptr, Txn};

/// Edge direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    Out,
    In,
}

impl Dir {
    pub fn flip(self) -> Dir {
        match self {
            Dir::Out => Dir::In,
            Dir::In => Dir::Out,
        }
    }

    fn tag(self) -> u8 {
        match self {
            Dir::Out => 0,
            Dir::In => 1,
        }
    }
}

/// One entry in an edge list (24 bytes on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HalfEdge {
    pub edge_type: TypeId,
    /// Header address of the vertex at the other end.
    pub other: Addr,
    /// Edge attribute object (NULL when the edge carries no data — the
    /// common case for knowledge graphs, §6).
    pub data: Ptr,
}

pub const HALF_EDGE_SIZE: usize = 24;

/// Initial inline capacity; doubles on growth (§3.2 "geometric progression").
pub const INITIAL_INLINE_CAP: usize = 4;

/// Spill threshold (§3.2: "around 1000 edges").
pub const DEFAULT_INLINE_THRESHOLD: usize = 1024;

impl HalfEdge {
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.edge_type.0.to_le_bytes());
        out.extend_from_slice(&self.other.raw().to_le_bytes());
        self.data.encode_to(out);
    }

    fn decode(buf: &[u8]) -> Option<HalfEdge> {
        if buf.len() < HALF_EDGE_SIZE {
            return None;
        }
        Some(HalfEdge {
            edge_type: TypeId(u32::from_le_bytes(buf[0..4].try_into().ok()?)),
            other: Addr::from_raw(u64::from_le_bytes(buf[4..12].try_into().ok()?)),
            data: Ptr::decode(&buf[12..24])?,
        })
    }
}

/// Inline edge-list object payload: `[u32 count][u32 cap][entries…]`.
fn list_payload_size(cap: usize) -> usize {
    8 + cap * HALF_EDGE_SIZE
}

fn encode_list(entries: &[HalfEdge], cap: usize) -> Vec<u8> {
    debug_assert!(entries.len() <= cap);
    let mut out = Vec::with_capacity(list_payload_size(cap));
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    out.extend_from_slice(&(cap as u32).to_le_bytes());
    for e in entries {
        e.encode_to(&mut out);
    }
    out
}

fn decode_list(buf: &[u8]) -> A1Result<(Vec<HalfEdge>, usize)> {
    let err = || A1Error::Internal("corrupt edge list".into());
    if buf.len() < 8 {
        return Err(err());
    }
    let count = u32::from_le_bytes(buf[0..4].try_into().map_err(|_| err())?) as usize;
    let cap = u32::from_le_bytes(buf[4..8].try_into().map_err(|_| err())?) as usize;
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let start = 8 + i * HALF_EDGE_SIZE;
        entries.push(HalfEdge::decode(buf.get(start..).ok_or_else(err)?).ok_or_else(err)?);
    }
    Ok((entries, cap))
}

/// Global edge-tree key: `[owner BE][dir][type BE][other BE]` — big-endian so
/// prefix scans enumerate one vertex's (direction, type) runs in order.
pub fn tree_key(owner: Addr, dir: Dir, ty: TypeId, other: Addr) -> Vec<u8> {
    let mut k = Vec::with_capacity(21);
    k.extend_from_slice(&owner.raw().to_be_bytes());
    k.push(dir.tag());
    k.extend_from_slice(&ty.0.to_be_bytes());
    k.extend_from_slice(&other.raw().to_be_bytes());
    k
}

/// Prefix covering all of a vertex's half-edges in one direction.
pub fn tree_prefix_dir(owner: Addr, dir: Dir) -> Vec<u8> {
    let mut k = Vec::with_capacity(9);
    k.extend_from_slice(&owner.raw().to_be_bytes());
    k.push(dir.tag());
    k
}

/// Prefix for one (direction, edge type).
pub fn tree_prefix_type(owner: Addr, dir: Dir, ty: TypeId) -> Vec<u8> {
    let mut k = tree_prefix_dir(owner, dir);
    k.extend_from_slice(&ty.0.to_be_bytes());
    k
}

fn parse_tree_entry(key: &[u8], value: &[u8]) -> A1Result<HalfEdge> {
    let err = || A1Error::Internal("corrupt edge tree key".into());
    if key.len() != 21 {
        return Err(err());
    }
    let ty = TypeId(u32::from_be_bytes(
        key[9..13].try_into().map_err(|_| err())?,
    ));
    let other = Addr::from_raw(u64::from_be_bytes(
        key[13..21].try_into().map_err(|_| err())?,
    ));
    let data = if value.is_empty() {
        Ptr::NULL
    } else {
        Ptr::decode(value).ok_or_else(err)?
    };
    Ok(HalfEdge {
        edge_type: ty,
        other,
        data,
    })
}

/// Insert a half-edge into `owner`'s list for `dir`, updating the header
/// in memory (caller persists the header once per transaction). Fails with
/// `EdgeExists` on duplicates.
pub fn insert_half_edge(
    tx: &mut Txn,
    edge_tree: &BTree,
    owner_addr: Addr,
    hdr: &mut VertexHeader,
    dir: Dir,
    edge: HalfEdge,
) -> A1Result<()> {
    match hdr.edges(dir) {
        EdgeListRef::Empty => {
            let list = encode_list(&[edge], INITIAL_INLINE_CAP);
            let ptr = tx.alloc(
                list_payload_size(INITIAL_INLINE_CAP),
                Hint::Near(owner_addr),
                &list,
            )?;
            hdr.set_edges(dir, EdgeListRef::Inline(ptr));
        }
        EdgeListRef::Inline(ptr) => {
            let buf = tx.read(ptr)?;
            let (mut entries, cap) = decode_list(buf.data())?;
            if entries
                .iter()
                .any(|e| e.edge_type == edge.edge_type && e.other == edge.other)
            {
                return Err(A1Error::EdgeExists(format!(
                    "type {} {:?} {}",
                    edge.edge_type.0, dir, edge.other
                )));
            }
            entries.push(edge);
            if entries.len() <= cap {
                tx.update(&buf, encode_list(&entries, cap))?;
            } else if cap * 2 <= DEFAULT_INLINE_THRESHOLD {
                // Geometric growth: realloc at double capacity, keep locality.
                let new_cap = cap * 2;
                let new_ptr = tx.alloc(
                    list_payload_size(new_cap),
                    Hint::Near(owner_addr),
                    &encode_list(&entries, new_cap),
                )?;
                tx.free(&buf)?;
                hdr.set_edges(dir, EdgeListRef::Inline(new_ptr));
            } else {
                // Spill to the global edge B-tree (§3.2).
                for e in &entries {
                    edge_tree.insert(
                        tx,
                        &tree_key(owner_addr, dir, e.edge_type, e.other),
                        &encode_ptr_value(e.data),
                    )?;
                }
                tx.free(&buf)?;
                hdr.set_edges(dir, EdgeListRef::Tree);
            }
        }
        EdgeListRef::Tree => {
            let key = tree_key(owner_addr, dir, edge.edge_type, edge.other);
            if edge_tree.get(tx, &key)?.is_some() {
                return Err(A1Error::EdgeExists(format!(
                    "type {} {:?} {}",
                    edge.edge_type.0, dir, edge.other
                )));
            }
            edge_tree.insert(tx, &key, &encode_ptr_value(edge.data))?;
        }
    }
    hdr.bump_count(dir, 1);
    Ok(())
}

fn encode_ptr_value(p: Ptr) -> Vec<u8> {
    if p.is_null() {
        Vec::new()
    } else {
        let mut v = Vec::with_capacity(Ptr::ENCODED_LEN);
        p.encode_to(&mut v);
        v
    }
}

/// Remove a half-edge. Returns the removed entry (with its data pointer) or
/// `None` if absent.
pub fn remove_half_edge(
    tx: &mut Txn,
    edge_tree: &BTree,
    owner_addr: Addr,
    hdr: &mut VertexHeader,
    dir: Dir,
    ty: TypeId,
    other: Addr,
) -> A1Result<Option<HalfEdge>> {
    let removed = match hdr.edges(dir) {
        EdgeListRef::Empty => None,
        EdgeListRef::Inline(ptr) => {
            let buf = tx.read(ptr)?;
            let (mut entries, cap) = decode_list(buf.data())?;
            let pos = entries
                .iter()
                .position(|e| e.edge_type == ty && e.other == other);
            match pos {
                Some(i) => {
                    let removed = entries.remove(i);
                    if entries.is_empty() {
                        tx.free(&buf)?;
                        hdr.set_edges(dir, EdgeListRef::Empty);
                    } else {
                        tx.update(&buf, encode_list(&entries, cap))?;
                    }
                    Some(removed)
                }
                None => None,
            }
        }
        EdgeListRef::Tree => {
            let key = tree_key(owner_addr, dir, ty, other);
            edge_tree.remove(tx, &key)?.map(|v| HalfEdge {
                edge_type: ty,
                other,
                data: if v.is_empty() {
                    Ptr::NULL
                } else {
                    Ptr::decode(&v).unwrap_or(Ptr::NULL)
                },
            })
        }
    };
    if removed.is_some() {
        hdr.bump_count(dir, -1);
    }
    Ok(removed)
}

/// Enumerate a vertex's half-edges in one direction, optionally filtered by
/// edge type. For inline lists this is one object read — often a *local*
/// read thanks to co-location (§3.2).
pub fn enumerate(
    tx: &mut Txn,
    edge_tree: &BTree,
    owner_addr: Addr,
    hdr: &VertexHeader,
    dir: Dir,
    ty: Option<TypeId>,
    limit: usize,
) -> A1Result<Vec<HalfEdge>> {
    match hdr.edges(dir) {
        EdgeListRef::Empty => Ok(Vec::new()),
        EdgeListRef::Inline(ptr) => enumerate_inline(&tx.read(ptr)?, ty, limit),
        EdgeListRef::Tree => {
            let prefix = match ty {
                Some(t) => tree_prefix_type(owner_addr, dir, t),
                None => tree_prefix_dir(owner_addr, dir),
            };
            edge_tree
                .scan_prefix(tx, &prefix, limit)?
                .into_iter()
                .map(|(k, v)| parse_tree_entry(&k, &v))
                .collect()
        }
    }
}

/// The object [`enumerate`] reads for `hdr`'s `dir` list when that list is
/// inline — what a caller batching its reads prefetches — or `None` for an
/// empty or B-tree-backed list.
pub fn inline_list_ptr(hdr: &VertexHeader, dir: Dir) -> Option<Ptr> {
    match hdr.edges(dir) {
        EdgeListRef::Inline(ptr) => Some(ptr),
        EdgeListRef::Empty | EdgeListRef::Tree => None,
    }
}

/// [`enumerate`] over an inline list object already in hand (`list` is a
/// read of [`inline_list_ptr`]).
pub fn enumerate_inline(
    list: &ObjBuf,
    ty: Option<TypeId>,
    limit: usize,
) -> A1Result<Vec<HalfEdge>> {
    let (entries, _) = decode_list(list.data())?;
    Ok(entries
        .into_iter()
        .filter(|e| ty.is_none_or(|t| e.edge_type == t))
        .take(limit)
        .collect())
}

/// Look up a specific half-edge.
pub fn find_half_edge(
    tx: &mut Txn,
    edge_tree: &BTree,
    owner_addr: Addr,
    hdr: &VertexHeader,
    dir: Dir,
    ty: TypeId,
    other: Addr,
) -> A1Result<Option<HalfEdge>> {
    Ok(
        enumerate(tx, edge_tree, owner_addr, hdr, dir, Some(ty), usize::MAX)?
            .into_iter()
            .find(|e| e.other == other),
    )
}

/// Create a full edge src→dst: an out half-edge at `src` and an in
/// half-edge at `dst`, atomically within the caller's transaction. Handles
/// self-loops (src == dst) on a single header.
pub fn add_edge(
    tx: &mut Txn,
    edge_tree: &BTree,
    src: Addr,
    ty: TypeId,
    dst: Addr,
    data: Ptr,
) -> A1Result<()> {
    let src_buf = tx.read(vertex_ptr(src))?;
    let mut src_hdr = VertexHeader::decode(src_buf.data())?;
    if src == dst {
        insert_half_edge(
            tx,
            edge_tree,
            src,
            &mut src_hdr,
            Dir::Out,
            HalfEdge {
                edge_type: ty,
                other: dst,
                data,
            },
        )?;
        insert_half_edge(
            tx,
            edge_tree,
            src,
            &mut src_hdr,
            Dir::In,
            HalfEdge {
                edge_type: ty,
                other: src,
                data,
            },
        )?;
        tx.update(&src_buf, src_hdr.encode())?;
        return Ok(());
    }
    let dst_buf = tx.read(vertex_ptr(dst))?;
    let mut dst_hdr = VertexHeader::decode(dst_buf.data())?;
    insert_half_edge(
        tx,
        edge_tree,
        src,
        &mut src_hdr,
        Dir::Out,
        HalfEdge {
            edge_type: ty,
            other: dst,
            data,
        },
    )?;
    insert_half_edge(
        tx,
        edge_tree,
        dst,
        &mut dst_hdr,
        Dir::In,
        HalfEdge {
            edge_type: ty,
            other: src,
            data,
        },
    )?;
    tx.update(&src_buf, src_hdr.encode())?;
    tx.update(&dst_buf, dst_hdr.encode())?;
    Ok(())
}

/// Remove a full edge. Returns the edge-data pointer if the edge existed
/// (the caller frees the data object).
pub fn drop_edge(
    tx: &mut Txn,
    edge_tree: &BTree,
    src: Addr,
    ty: TypeId,
    dst: Addr,
) -> A1Result<Option<Ptr>> {
    let src_buf = tx.read(vertex_ptr(src))?;
    let mut src_hdr = VertexHeader::decode(src_buf.data())?;
    if src == dst {
        let out = remove_half_edge(tx, edge_tree, src, &mut src_hdr, Dir::Out, ty, dst)?;
        let _ = remove_half_edge(tx, edge_tree, src, &mut src_hdr, Dir::In, ty, src)?;
        tx.update(&src_buf, src_hdr.encode())?;
        return Ok(out.map(|e| e.data));
    }
    let dst_buf = tx.read(vertex_ptr(dst))?;
    let mut dst_hdr = VertexHeader::decode(dst_buf.data())?;
    let out = remove_half_edge(tx, edge_tree, src, &mut src_hdr, Dir::Out, ty, dst)?;
    let _inn = remove_half_edge(tx, edge_tree, dst, &mut dst_hdr, Dir::In, ty, src)?;
    tx.update(&src_buf, src_hdr.encode())?;
    tx.update(&dst_buf, dst_hdr.encode())?;
    Ok(out.map(|e| e.data))
}

/// Read a vertex header through the storage API (shared helper).
pub fn read_header(tx: &mut Txn, addr: Addr) -> A1Result<(ObjBuf, VertexHeader)> {
    let buf = tx.read(vertex_ptr(addr)).map_err(|e| match e {
        FarmError::NotFound(a) => A1Error::NoSuchVertex(format!("{a}")),
        other => other.into(),
    })?;
    let hdr = VertexHeader::decode(buf.data())?;
    Ok((buf, hdr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use a1_farm::RegionId;

    #[test]
    fn half_edge_roundtrip() {
        let e = HalfEdge {
            edge_type: TypeId(5),
            other: Addr::new(RegionId(3), 192),
            data: Ptr::new(Addr::new(RegionId(3), 256), 40),
        };
        let mut buf = Vec::new();
        e.encode_to(&mut buf);
        assert_eq!(buf.len(), HALF_EDGE_SIZE);
        assert_eq!(HalfEdge::decode(&buf), Some(e));
        assert_eq!(HalfEdge::decode(&buf[..10]), None);
    }

    #[test]
    fn list_roundtrip() {
        let entries: Vec<HalfEdge> = (0..3)
            .map(|i| HalfEdge {
                edge_type: TypeId(i),
                other: Addr::new(RegionId(1), 64 * (i + 1)),
                data: Ptr::NULL,
            })
            .collect();
        let bytes = encode_list(&entries, 4);
        let (back, cap) = decode_list(&bytes).unwrap();
        assert_eq!(back, entries);
        assert_eq!(cap, 4);
        assert!(decode_list(&[1, 0]).is_err());
    }

    #[test]
    fn tree_key_ordering_groups_by_owner_dir_type() {
        let owner = Addr::new(RegionId(1), 64);
        let other1 = Addr::new(RegionId(2), 64);
        let other2 = Addr::new(RegionId(2), 128);
        let k1 = tree_key(owner, Dir::Out, TypeId(1), other1);
        let k2 = tree_key(owner, Dir::Out, TypeId(1), other2);
        let k3 = tree_key(owner, Dir::Out, TypeId(2), other1);
        let k4 = tree_key(owner, Dir::In, TypeId(1), other1);
        assert!(k1 < k2 && k2 < k3, "type-major then other");
        assert!(k3 < k4, "out before in");
        let p = tree_prefix_type(owner, Dir::Out, TypeId(1));
        assert!(k1.starts_with(&p) && k2.starts_with(&p) && !k3.starts_with(&p));
        let pd = tree_prefix_dir(owner, Dir::Out);
        assert!(k3.starts_with(&pd) && !k4.starts_with(&pd));
    }

    #[test]
    fn parse_tree_entry_roundtrip() {
        let owner = Addr::new(RegionId(1), 64);
        let other = Addr::new(RegionId(9), 320);
        let data = Ptr::new(Addr::new(RegionId(9), 640), 77);
        let k = tree_key(owner, Dir::In, TypeId(42), other);
        let e = parse_tree_entry(&k, &encode_ptr_value(data)).unwrap();
        assert_eq!(e.edge_type, TypeId(42));
        assert_eq!(e.other, other);
        assert_eq!(e.data, data);
        let e = parse_tree_entry(&k, &[]).unwrap();
        assert!(e.data.is_null());
        assert!(parse_tree_entry(&k[..10], &[]).is_err());
    }
}
