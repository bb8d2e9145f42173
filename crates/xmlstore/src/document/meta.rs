//! The store's durable metadata snapshot and its byte codec — the one
//! place that knows the layout `Commit` and `Checkpoint` records carry.

use super::{DocId, DOC_ROOT_TAG};
use crate::error::{Result, StoreError};
use crate::wal::TxnId;

/// On-log layout of one stored document: where its pages live and how
/// big its local id/label spaces are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct DocMeta {
    pub doc_id: DocId,
    pub heap_base: u32,
    pub heap_pages: u32,
    pub node_base: u32,
    pub node_pages: u32,
    /// Stored records (the synthetic `doc_root` is *not* stored).
    pub node_count: u32,
    /// Local `(start, end)` label span: local labels are in `[0, span)`.
    pub span: u32,
}

/// The store's durable metadata snapshot, serialized into every commit
/// and checkpoint record. Everything else (tag index, value index,
/// free list, global projection) is derived from it plus the pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct StoreMeta {
    /// The full dictionary snapshot in `Sym` order — tag names *and*
    /// interned content values; `tags[0]` is always `doc_root`. Logging
    /// the whole table with every commit is what lets recovery re-intern
    /// the identical `name → Sym` assignment the crashed session used.
    pub tags: Vec<String>,
    pub docs: Vec<DocMeta>,
    pub next_doc: DocId,
    pub next_txn: TxnId,
}

const META_MAGIC: u32 = 0x544d_4254; // "TBMT"
/// v2: `tags` carries the unified dictionary (values included), not just
/// element tags.
const META_VERSION: u32 = 2;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(super) fn encode_meta(meta: &StoreMeta) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, META_MAGIC);
    put_u32(&mut out, META_VERSION);
    put_u64(&mut out, meta.next_doc);
    put_u64(&mut out, meta.next_txn);
    put_u32(&mut out, meta.tags.len() as u32);
    for tag in &meta.tags {
        put_u32(&mut out, tag.len() as u32);
        out.extend_from_slice(tag.as_bytes());
    }
    put_u32(&mut out, meta.docs.len() as u32);
    for d in &meta.docs {
        put_u64(&mut out, d.doc_id);
        for v in [
            d.heap_base,
            d.heap_pages,
            d.node_base,
            d.node_pages,
            d.node_count,
            d.span,
        ] {
            put_u32(&mut out, v);
        }
    }
    out
}

pub(super) fn bad_meta() -> StoreError {
    StoreError::WalCorrupt {
        offset: 0,
        reason: "bad metadata snapshot",
    }
}

struct MetaReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> MetaReader<'a> {
    fn u32(&mut self) -> Result<u32> {
        let b = self
            .buf
            .get(self.at..self.at + 4)
            .ok_or_else(bad_meta)?
            .try_into()
            .map_err(|_| bad_meta())?;
        self.at += 4;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self
            .buf
            .get(self.at..self.at + 8)
            .ok_or_else(bad_meta)?
            .try_into()
            .map_err(|_| bad_meta())?;
        self.at += 8;
        Ok(u64::from_le_bytes(b))
    }

    fn string(&mut self, len: usize) -> Result<String> {
        let b = self.buf.get(self.at..self.at + len).ok_or_else(bad_meta)?;
        self.at += len;
        String::from_utf8(b.to_vec()).map_err(|_| bad_meta())
    }
}

pub(super) fn decode_meta(bytes: &[u8]) -> Result<StoreMeta> {
    let mut r = MetaReader { buf: bytes, at: 0 };
    if r.u32()? != META_MAGIC || r.u32()? != META_VERSION {
        return Err(bad_meta());
    }
    let next_doc = r.u64()?;
    let next_txn = r.u64()?;
    let ntags = r.u32()? as usize;
    let mut tags = Vec::with_capacity(ntags.min(1 << 16));
    for _ in 0..ntags {
        let len = r.u32()? as usize;
        tags.push(r.string(len)?);
    }
    let ndocs = r.u32()? as usize;
    let mut docs = Vec::with_capacity(ndocs.min(1 << 16));
    for _ in 0..ndocs {
        let doc_id = r.u64()?;
        let mut f = [0u32; 6];
        for v in &mut f {
            *v = r.u32()?;
        }
        docs.push(DocMeta {
            doc_id,
            heap_base: f[0],
            heap_pages: f[1],
            node_base: f[2],
            node_pages: f[3],
            node_count: f[4],
            span: f[5],
        });
    }
    if r.at != bytes.len() || tags.first().map(String::as_str) != Some(DOC_ROOT_TAG) {
        return Err(bad_meta());
    }
    Ok(StoreMeta {
        tags,
        docs,
        next_doc,
        next_txn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trips() {
        let meta = StoreMeta {
            tags: vec![DOC_ROOT_TAG.to_owned(), "article".to_owned()],
            docs: vec![DocMeta {
                doc_id: 7,
                heap_base: 1,
                heap_pages: 2,
                node_base: 3,
                node_pages: 4,
                node_count: 900,
                span: 1801,
            }],
            next_doc: 8,
            next_txn: 19,
        };
        assert_eq!(decode_meta(&encode_meta(&meta)).unwrap(), meta);
        assert!(decode_meta(&encode_meta(&meta)[..10]).is_err());
        assert!(decode_meta(b"junk").is_err());
    }
}
