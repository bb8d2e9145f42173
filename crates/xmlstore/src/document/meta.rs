//! The store's durable metadata and its byte codecs — the one place that
//! knows what `Checkpoint` and `Commit` records carry.
//!
//! A checkpoint holds the one full snapshot: the document counter, the
//! whole name table, the document table. A commit holds a [`MetaDelta`]:
//! the new document counter, the dictionary suffix interned since the
//! last durable record, and the document it removed and/or added.
//! Recovery decodes the checkpoint and folds the committed deltas over
//! it in log order ([`StoreMeta::apply`]), so a commit logs what the
//! edit changed, not what the store holds.

use super::{DocId, DOC_ROOT_TAG};
use crate::error::{Result, StoreError};
use std::sync::Arc;

/// On-log layout of one stored document: where its pages live and how
/// many rows it has; its local labels are `0..2 × node_count`, since
/// every row takes two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct DocMeta {
    pub doc_id: DocId,
    pub heap_base: u32,
    pub heap_pages: u32,
    pub node_base: u32,
    pub node_pages: u32,
    /// Stored records (the synthetic `doc_root` is *not* stored).
    pub node_count: u32,
}

/// The document table and the document counter. Together with the
/// name table (which lives in the store's
/// [`Dictionary`](crate::dict::Dictionary) and nowhere else in memory)
/// this is the durable metadata; everything else (tag index, free list,
/// global projection) is derived from it plus the pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct StoreMeta {
    pub docs: Vec<DocMeta>,
    pub next_doc: DocId,
}

/// What one committed edit changed in the durable metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct MetaDelta {
    pub next_doc: DocId,
    /// Length of the name table this delta extends: `new_names[i]` is
    /// symbol `dict_from + i`.
    pub dict_from: u32,
    pub new_names: Vec<Arc<str>>,
    pub removed: Option<DocId>,
    pub added: Option<DocMeta>,
}

const META_MAGIC: u32 = 0x544d_4254; // "TBMT"
const DELTA_MAGIC: u32 = 0x444d_4254; // "TBMD"
/// v9: a document's node run is its rows' columns behind a (tag, kind)
/// table, eight bytes a row; v8's 12-byte records, v7's 16-byte and
/// v6's 32-byte ones would decode as garbage. v8: a document's heap
/// holds each distinct value once, and a document entry holds no label
/// span. v6: the log carries
/// metadata only, and no record carries a transaction id. A v5 log may
/// hold page images whose pages never
/// reached the page file; a v4 log holds `Begin` and `Abort` records,
/// at which the reader would stop. v4 node records already carried their content
/// symbol where v3 kept the parent id. Commits carry a [`MetaDelta`];
/// only checkpoints carry the full snapshot. Any other version is
/// refused.
const META_VERSION: u32 = 9;

const HAS_REMOVED: u8 = 1;
const HAS_ADDED: u8 = 2;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_names(out: &mut Vec<u8>, names: &[Arc<str>]) {
    put_u32(out, names.len() as u32);
    for name in names {
        put_u32(out, name.len() as u32);
        out.extend_from_slice(name.as_bytes());
    }
}

fn put_doc(out: &mut Vec<u8>, d: &DocMeta) {
    put_u64(out, d.doc_id);
    for v in [
        d.heap_base,
        d.heap_pages,
        d.node_base,
        d.node_pages,
        d.node_count,
    ] {
        put_u32(out, v);
    }
}

/// The full snapshot a checkpoint record carries; `names` is the whole
/// name table in symbol order.
pub(super) fn encode_meta(meta: &StoreMeta, names: &[Arc<str>]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, META_MAGIC);
    put_u32(&mut out, META_VERSION);
    put_u64(&mut out, meta.next_doc);
    put_names(&mut out, names);
    put_u32(&mut out, meta.docs.len() as u32);
    for d in &meta.docs {
        put_doc(&mut out, d);
    }
    out
}

/// The payload of a commit record.
pub(super) fn encode_delta(delta: &MetaDelta) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, DELTA_MAGIC);
    put_u32(&mut out, META_VERSION);
    put_u64(&mut out, delta.next_doc);
    put_u32(&mut out, delta.dict_from);
    put_names(&mut out, &delta.new_names);
    let removed = u8::from(delta.removed.is_some()) * HAS_REMOVED;
    let added = u8::from(delta.added.is_some()) * HAS_ADDED;
    out.push(removed | added);
    if let Some(doc) = delta.removed {
        put_u64(&mut out, doc);
    }
    if let Some(d) = &delta.added {
        put_doc(&mut out, d);
    }
    out
}

pub(super) fn bad_meta() -> StoreError {
    StoreError::WalCorrupt {
        offset: 0,
        reason: "bad metadata record",
    }
}

struct MetaReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> MetaReader<'a> {
    /// Start reading `buf`, which must open with `magic` and the one
    /// supported version.
    fn open(buf: &'a [u8], magic: u32) -> Result<Self> {
        let mut r = MetaReader { buf, at: 0 };
        if r.u32()? != magic || r.u32()? != META_VERSION {
            return Err(bad_meta());
        }
        Ok(r)
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        let end = self.at.checked_add(len).ok_or_else(bad_meta)?;
        let b = self.buf.get(self.at..end).ok_or_else(bad_meta)?;
        self.at = end;
        Ok(b)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.bytes(4)?.try_into().map_err(|_| bad_meta())?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.bytes(8)?.try_into().map_err(|_| bad_meta())?;
        Ok(u64::from_le_bytes(b))
    }

    fn names(&mut self) -> Result<Vec<Arc<str>>> {
        let n = self.u32()? as usize;
        let mut names = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let len = self.u32()? as usize;
            let name = std::str::from_utf8(self.bytes(len)?).map_err(|_| bad_meta())?;
            names.push(Arc::from(name));
        }
        Ok(names)
    }

    fn doc(&mut self) -> Result<DocMeta> {
        let doc_id = self.u64()?;
        let mut f = [0u32; 5];
        for v in &mut f {
            *v = self.u32()?;
        }
        Ok(DocMeta {
            doc_id,
            heap_base: f[0],
            heap_pages: f[1],
            node_base: f[2],
            node_pages: f[3],
            node_count: f[4],
        })
    }

    /// Every byte must have been consumed.
    fn finish(self) -> Result<()> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(bad_meta())
        }
    }
}

/// Decode a checkpoint payload: the metadata and the whole name table.
pub(super) fn decode_meta(bytes: &[u8]) -> Result<(StoreMeta, Vec<Arc<str>>)> {
    let mut r = MetaReader::open(bytes, META_MAGIC)?;
    let next_doc = r.u64()?;
    let names = r.names()?;
    let ndocs = r.u32()? as usize;
    let mut docs = Vec::with_capacity(ndocs.min(1 << 16));
    for _ in 0..ndocs {
        docs.push(r.doc()?);
    }
    r.finish()?;
    if names.first().map(|n| &**n) != Some(DOC_ROOT_TAG) {
        return Err(bad_meta());
    }
    Ok((StoreMeta { docs, next_doc }, names))
}

/// Decode a commit payload.
pub(super) fn decode_delta(bytes: &[u8]) -> Result<MetaDelta> {
    let mut r = MetaReader::open(bytes, DELTA_MAGIC)?;
    let next_doc = r.u64()?;
    let dict_from = r.u32()?;
    let new_names = r.names()?;
    let flags = r.u8()?;
    if flags & !(HAS_REMOVED | HAS_ADDED) != 0 {
        return Err(bad_meta());
    }
    let removed = (flags & HAS_REMOVED != 0).then(|| r.u64()).transpose()?;
    let added = (flags & HAS_ADDED != 0).then(|| r.doc()).transpose()?;
    r.finish()?;
    Ok(MetaDelta {
        next_doc,
        dict_from,
        new_names,
        removed,
        added,
    })
}

impl StoreMeta {
    /// Fold one committed delta into the running metadata and name
    /// table. A delta that does not extend exactly the table it was
    /// written against, or that removes a document the table does not
    /// hold, means the log is not the chain this store wrote.
    pub(super) fn apply(&mut self, names: &mut Vec<Arc<str>>, delta: MetaDelta) -> Result<()> {
        if delta.dict_from as usize != names.len() {
            return Err(bad_meta());
        }
        if let Some(doc) = delta.removed {
            let at = self.docs.iter().position(|d| d.doc_id == doc);
            self.docs.remove(at.ok_or_else(bad_meta)?);
        }
        names.extend(delta.new_names);
        self.docs.extend(delta.added);
        self.next_doc = delta.next_doc;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(doc_id: DocId) -> DocMeta {
        DocMeta {
            doc_id,
            heap_base: 1,
            heap_pages: 2,
            node_base: 3,
            node_pages: 4,
            node_count: 900,
        }
    }

    fn names(n: &[&str]) -> Vec<Arc<str>> {
        n.iter().map(|s| Arc::from(*s)).collect()
    }

    #[test]
    fn meta_round_trips() {
        let meta = StoreMeta {
            docs: vec![doc(7)],
            next_doc: 8,
        };
        let table = names(&[DOC_ROOT_TAG, "article"]);
        let bytes = encode_meta(&meta, &table);
        assert_eq!(decode_meta(&bytes).unwrap(), (meta.clone(), table));
        assert!(decode_meta(&bytes[..10]).is_err());
        assert!(decode_meta(b"junk").is_err());
        // The first name is always the synthetic root's tag.
        assert!(decode_meta(&encode_meta(&meta, &names(&["article"]))).is_err());
    }

    #[test]
    fn delta_round_trips_in_every_shape() {
        for (removed, added) in [
            (None, None),
            (Some(7), None),
            (None, Some(doc(9))),
            (Some(7), Some(doc(9))),
        ] {
            let delta = MetaDelta {
                next_doc: 10,
                dict_from: 2,
                new_names: names(&["title", "Grouping in XML"]),
                removed,
                added,
            };
            let bytes = encode_delta(&delta);
            assert_eq!(decode_delta(&bytes).unwrap(), delta);
            for cut in 0..bytes.len() {
                assert!(decode_delta(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            // A delta is not a snapshot and the other way round.
            assert!(decode_meta(&bytes).is_err());
        }
    }

    #[test]
    fn apply_folds_a_chain_and_rejects_a_foreign_delta() {
        let mut meta = StoreMeta {
            docs: vec![doc(1)],
            next_doc: 2,
        };
        let mut table = names(&[DOC_ROOT_TAG, "a"]);
        let delta = MetaDelta {
            next_doc: 3,
            dict_from: 2,
            new_names: names(&["b"]),
            removed: Some(1),
            added: Some(doc(2)),
        };
        meta.apply(&mut table, delta.clone()).unwrap();
        assert_eq!(meta.docs, vec![doc(2)]);
        assert_eq!(meta.next_doc, 3);
        assert_eq!(table, names(&[DOC_ROOT_TAG, "a", "b"]));
        // The same delta again: its table is one name short, and its
        // victim is gone.
        assert!(meta.apply(&mut table, delta.clone()).is_err());
        let unknown = MetaDelta {
            dict_from: 3,
            ..delta
        };
        assert!(meta.apply(&mut table, unknown).is_err());
        assert_eq!(meta.docs, vec![doc(2)]);
        assert_eq!(table.len(), 3);
    }
}
