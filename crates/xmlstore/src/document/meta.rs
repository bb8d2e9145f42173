//! The store's durable metadata and its byte codecs — the one place that
//! knows what `Checkpoint` and `Commit` records carry.
//!
//! A checkpoint holds the one full snapshot: the document counter, the
//! name runs and every name's length, the document table. A commit
//! holds a [`MetaDelta`]: the new document counter, the run of name
//! pages it appended and its names' lengths, and the document it removed
//! and/or added. Names live on the name pages, never in the log.
//! Recovery decodes the checkpoint and folds the committed deltas over
//! it in log order ([`StoreMeta::apply`]), so a commit logs what the
//! edit changed, not what the store holds.

use super::DocId;
use crate::error::{Result, StoreError};
use crate::heap::NameRun;

/// On-log layout of one stored document: where its node run lives and
/// how many rows it has; its local labels are `0..2 × node_count`,
/// since every row takes two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct DocMeta {
    pub doc_id: DocId,
    pub node_base: u32,
    pub node_pages: u32,
    /// Stored records (the synthetic `doc_root` is *not* stored).
    pub node_count: u32,
}

/// The durable metadata: the document table, the document counter, and
/// where the names lie — the name runs in symbol order, and each name's
/// length in bytes. Everything else (name table, tag index, free list,
/// global projection) is derived from it plus the pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct StoreMeta {
    pub docs: Vec<DocMeta>,
    pub next_doc: DocId,
    pub runs: Vec<NameRun>,
    pub lens: Vec<u32>,
}

/// What one committed edit changed in the durable metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct MetaDelta {
    pub next_doc: DocId,
    /// Number of names this delta extends: `lens[i]` is the length of
    /// symbol `dict_from + i`'s name, which lies in `run`.
    pub dict_from: u32,
    pub run: Option<NameRun>,
    pub lens: Vec<u32>,
    pub removed: Option<DocId>,
    pub added: Option<DocMeta>,
}

const META_MAGIC: u32 = 0x544d_4254; // "TBMT"
const DELTA_MAGIC: u32 = 0x444d_4254; // "TBMD"
/// v10: a record carries name runs and lengths, not names, and a
/// document entry names no heap run. v9: a document's node run is its rows' columns behind a (tag, kind)
/// table, eight bytes a row; v8's 12-byte records, v7's 16-byte and
/// v6's 32-byte ones would decode as garbage. v6: the log carries
/// metadata only, and no record carries a transaction id. A v5 log may
/// hold page images whose pages never reached the page file; a v4 log
/// holds `Begin` and `Abort` records, at which the reader would stop.
/// v4 node records already carried their content symbol where v3 kept
/// the parent id. Any other version is refused.
const META_VERSION: u32 = 10;

const HAS_REMOVED: u8 = 1;
const HAS_ADDED: u8 = 2;
const HAS_NAMES: u8 = 4;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// `v` as a varint: seven bits a byte, low first, the top bit set on
/// every byte but the last.
fn put_var(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_run(out: &mut Vec<u8>, r: &NameRun) {
    for v in [r.base, r.pages, r.names] {
        put_u32(out, v);
    }
}

fn put_lens(out: &mut Vec<u8>, lens: &[u32]) {
    put_u32(out, lens.len() as u32);
    for &len in lens {
        put_var(out, len);
    }
}

fn put_doc(out: &mut Vec<u8>, d: &DocMeta) {
    put_u64(out, d.doc_id);
    for v in [d.node_base, d.node_pages, d.node_count] {
        put_u32(out, v);
    }
}

/// The full snapshot a checkpoint record carries.
pub(super) fn encode_meta(meta: &StoreMeta) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, META_MAGIC);
    put_u32(&mut out, META_VERSION);
    put_u64(&mut out, meta.next_doc);
    put_u32(&mut out, meta.runs.len() as u32);
    for r in &meta.runs {
        put_run(&mut out, r);
    }
    put_lens(&mut out, &meta.lens);
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
    let removed = u8::from(delta.removed.is_some()) * HAS_REMOVED;
    let added = u8::from(delta.added.is_some()) * HAS_ADDED;
    let names = u8::from(delta.run.is_some()) * HAS_NAMES;
    out.push(removed | added | names);
    if let Some(r) = &delta.run {
        put_run(&mut out, r);
        put_lens(&mut out, &delta.lens);
    }
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

    /// A varint of at most five bytes that fits a `u32`.
    fn var(&mut self) -> Result<u32> {
        let mut v = 0u64;
        for shift in (0..35).step_by(7) {
            let b = self.u8()?;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return u32::try_from(v).map_err(|_| bad_meta());
            }
        }
        Err(bad_meta())
    }

    fn run(&mut self) -> Result<NameRun> {
        let (base, pages, names) = (self.u32()?, self.u32()?, self.u32()?);
        Ok(NameRun { base, pages, names })
    }

    fn lens(&mut self) -> Result<Vec<u32>> {
        let n = self.u32()? as usize;
        // Each length takes a byte at least: no allocation trusts `n`.
        let mut lens = Vec::with_capacity(n.min(self.buf.len() - self.at));
        for _ in 0..n {
            lens.push(self.var()?);
        }
        Ok(lens)
    }

    fn doc(&mut self) -> Result<DocMeta> {
        let doc_id = self.u64()?;
        let (node_base, node_pages, node_count) = (self.u32()?, self.u32()?, self.u32()?);
        Ok(DocMeta {
            doc_id,
            node_base,
            node_pages,
            node_count,
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

/// Decode a checkpoint payload.
pub(super) fn decode_meta(bytes: &[u8]) -> Result<StoreMeta> {
    let mut r = MetaReader::open(bytes, META_MAGIC)?;
    let next_doc = r.u64()?;
    let nruns = r.u32()? as usize;
    let mut runs = Vec::with_capacity(nruns.min(1 << 16));
    for _ in 0..nruns {
        runs.push(r.run()?);
    }
    let lens = r.lens()?;
    let ndocs = r.u32()? as usize;
    let mut docs = Vec::with_capacity(ndocs.min(1 << 16));
    for _ in 0..ndocs {
        docs.push(r.doc()?);
    }
    r.finish()?;
    Ok(StoreMeta {
        docs,
        next_doc,
        runs,
        lens,
    })
}

/// Decode a commit payload.
pub(super) fn decode_delta(bytes: &[u8]) -> Result<MetaDelta> {
    let mut r = MetaReader::open(bytes, DELTA_MAGIC)?;
    let next_doc = r.u64()?;
    let dict_from = r.u32()?;
    let flags = r.u8()?;
    if flags & !(HAS_REMOVED | HAS_ADDED | HAS_NAMES) != 0 {
        return Err(bad_meta());
    }
    let run = (flags & HAS_NAMES != 0).then(|| r.run()).transpose()?;
    let lens = run.map(|_| r.lens()).transpose()?.unwrap_or_default();
    let removed = (flags & HAS_REMOVED != 0).then(|| r.u64()).transpose()?;
    let added = (flags & HAS_ADDED != 0).then(|| r.doc()).transpose()?;
    r.finish()?;
    Ok(MetaDelta {
        next_doc,
        dict_from,
        run,
        lens,
        removed,
        added,
    })
}

impl StoreMeta {
    /// Fold one committed delta into the running metadata. A delta that
    /// does not extend exactly the names it was written against, or
    /// that removes a document the table does not hold, means the log is
    /// not the chain this store wrote.
    pub(super) fn apply(&mut self, delta: MetaDelta) -> Result<()> {
        if delta.dict_from as usize != self.lens.len() {
            return Err(bad_meta());
        }
        if let Some(doc) = delta.removed {
            let at = self.docs.iter().position(|d| d.doc_id == doc);
            self.docs.remove(at.ok_or_else(bad_meta)?);
        }
        self.runs.extend(delta.run);
        self.lens.extend(delta.lens);
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
            node_base: 3,
            node_pages: 4,
            node_count: 900,
        }
    }

    fn run(base: u32, names: u32) -> NameRun {
        NameRun {
            base,
            pages: 1,
            names,
        }
    }

    #[test]
    fn meta_round_trips() {
        let meta = StoreMeta {
            docs: vec![doc(7)],
            next_doc: 8,
            runs: vec![run(0, 2), run(5, 1)],
            lens: vec![8, 300, 70_000],
        };
        let bytes = encode_meta(&meta);
        assert_eq!(decode_meta(&bytes).unwrap(), meta);
        // A length is a varint: one byte below 128, three at 70 000.
        let empty = StoreMeta {
            lens: vec![0; 3],
            ..meta.clone()
        };
        assert_eq!(bytes.len(), encode_meta(&empty).len() + 1 + 2);
        assert!(decode_meta(&bytes[..10]).is_err());
        assert!(decode_meta(b"junk").is_err());
    }

    #[test]
    fn delta_round_trips_in_every_shape() {
        for (names, removed, added) in [
            (false, None, None),
            (true, Some(7), None),
            (false, None, Some(doc(9))),
            (true, Some(7), Some(doc(9))),
        ] {
            let delta = MetaDelta {
                next_doc: 10,
                dict_from: 2,
                run: names.then(|| run(11, 2)),
                lens: if names { vec![5, 15] } else { Vec::new() },
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
            runs: vec![run(0, 2)],
            lens: vec![8, 1],
        };
        let delta = MetaDelta {
            next_doc: 3,
            dict_from: 2,
            run: Some(run(9, 1)),
            lens: vec![1],
            removed: Some(1),
            added: Some(doc(2)),
        };
        meta.apply(delta.clone()).unwrap();
        assert_eq!(meta.docs, vec![doc(2)]);
        assert_eq!(meta.next_doc, 3);
        assert_eq!(
            (meta.runs.clone(), meta.lens.clone()),
            (vec![run(0, 2), run(9, 1)], vec![8, 1, 1])
        );
        // The same delta again: its names are one short, and its victim
        // is gone.
        assert!(meta.apply(delta.clone()).is_err());
        let unknown = MetaDelta {
            dict_from: 3,
            ..delta
        };
        assert!(meta.apply(unknown).is_err());
        assert_eq!(meta.docs, vec![doc(2)]);
        assert_eq!(meta.lens.len(), 3);
    }
}
