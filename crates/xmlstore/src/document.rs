//! The document store: records + heap on pages behind a buffer pool,
//! plus the in-memory tag dictionary and tag index.
//!
//! Loading wraps every document's root element under one synthetic
//! `doc_root` node (node id 0), matching the paper's convention that
//! "the database is a single tree document" whose pattern trees start at
//! `$1.tag = doc_root` (Sec. 4.1, Figs. 4–6). The store holds any number
//! of documents: each is laid out in its own page runs with *local* node
//! ids and `(start, end)` labels, and the read path projects them into
//! one dense global id/label space under the shared `doc_root`.
//!
//! Text handling follows TIMBER's model: an element whose children are
//! text-only stores that text as its *content* (`$i.content` in pattern
//! predicates); text inside mixed content becomes `#text` nodes;
//! attributes become `@name` nodes whose content is the value.
//!
//! # Durability
//!
//! With [`StoreOptions::durable`], every mutation is a write-ahead-logged
//! transaction (see [`crate::wal`]): an operation returns `Ok` if and
//! only if its commit record is durable, and [`DocumentStore::open`]
//! replays the log (ARIES-style analysis/redo/undo) to recover exactly
//! the committed documents after a crash. Bulk inserts into fresh pages
//! at the end of the file skip page-image logging entirely — the pages
//! are unreferenced until the commit's metadata snapshot lands, so a
//! sync of the page file plus one log flush is enough. Inserts that
//! reuse freed pages log full after-images with zero before-images, so
//! rolling back a torn reuse *zeroes* the reclaimed pages rather than
//! resurrecting whatever document previously occupied them.

use crate::buffer::{BufferPool, BufferStats};
use crate::catalog::{attr_tag_name, TagId, TEXT_TAG};
use crate::columns::NodeColumns;
use crate::dict::{Dictionary, Sym, NO_SYM};
use crate::error::{Result, StoreError};
use crate::fault::{FaultConfig, FaultInjector, FaultStats};
use crate::heap::{read_content_via, HeapBuilder};
use crate::index::{NodeEntry, TagIndex, ValueIndex};
use crate::node::{
    node_location, ContentPtr, NodeId, NodeKind, NodeRecord, NO_PARENT, RECORDS_PER_PAGE,
    RECORD_SIZE,
};
use crate::page::{PageId, PAGE_DATA_SIZE, PAGE_HEADER_SIZE, PAGE_SIZE};
use crate::storage::{DiskManager, DiskStats, SharedDisk};
use crate::wal::{self, BeforeImage, Lsn, TxnId, Wal, WalHandle, WalRecord, WalStats};
use std::collections::BTreeSet;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{self, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Maximum number of buffer-pool shards per store. Page ids are striped
/// across shards (`pid % nshards`), so concurrent readers touching
/// different pages usually take different locks.
const MAX_POOL_SHARDS: usize = 8;

/// The reserved tag of the synthetic document root.
pub const DOC_ROOT_TAG: &str = "doc_root";

/// Identifier of one stored document, assigned at insert and never
/// reused (deleting a document retires its id).
pub type DocId = u64;

/// The log path used for a durable store whose page file lives at
/// `page_path`: the same path with `.wal` appended.
pub fn wal_path_for(page_path: &Path) -> PathBuf {
    let mut os = page_path.as_os_str().to_owned();
    os.push(".wal");
    PathBuf::from(os)
}

/// Configuration for loading a document into the store.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Buffer pool capacity in pages. The paper uses a 32 MB pool of 8 KB
    /// pages, i.e. 4096 pages; that is the default.
    pub pool_pages: usize,
    /// Back the store with a real temporary file (true) or an in-memory
    /// page vector (false).
    pub on_disk: bool,
    /// If the store is on disk, put the page file here instead of a
    /// temporary path (the file is then kept after drop).
    pub path: Option<PathBuf>,
    /// Drop whitespace-only text between elements (bibliographic data is
    /// data-centric, so this is the default).
    pub strip_whitespace: bool,
    /// Also build a content value index (`(tag, value) → nodes`). The
    /// paper's experiments used only the tag index (its footnote 8
    /// explains the limits of value indices in XML), so this is off by
    /// default.
    pub value_index: bool,
    /// Write-ahead log every mutation so the store survives crashes.
    /// The log lives next to the page file (`path` + `.wal`) when the
    /// store is on disk at a named path; otherwise it is kept in memory,
    /// which still exercises the full logging path (useful for
    /// benchmarking WAL overhead) but cannot be reopened.
    pub durable: bool,
    /// Pre-intern the document's strings in sorted order at load, so the
    /// dictionary's order watermark covers them and string comparison
    /// predicates evaluate directly on content symbol arrays. Off by
    /// default: it adds a collection pass over the parsed document, and
    /// symbols interned after load (later inserts, computed values) fall
    /// above the watermark and keep the per-row path.
    pub ordered_dict: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            pool_pages: 32 * 1024 * 1024 / PAGE_SIZE,
            on_disk: true,
            path: None,
            strip_whitespace: true,
            value_index: false,
            durable: false,
            ordered_dict: false,
        }
    }
}

impl StoreOptions {
    /// Small, in-memory configuration for tests and examples.
    pub fn in_memory() -> Self {
        StoreOptions {
            pool_pages: 1024,
            on_disk: false,
            path: None,
            strip_whitespace: true,
            value_index: false,
            durable: false,
            ordered_dict: false,
        }
    }

    /// Enable the content value index.
    pub fn with_value_index(mut self) -> Self {
        self.value_index = true;
        self
    }

    /// Enable order-preserving symbol assignment at load.
    pub fn with_ordered_dict(mut self) -> Self {
        self.ordered_dict = true;
        self
    }

    /// Set the buffer pool size in bytes (rounded down to whole pages,
    /// minimum one page).
    pub fn with_pool_bytes(mut self, bytes: usize) -> Self {
        self.pool_pages = (bytes / PAGE_SIZE).max(1);
        self
    }

    /// Set the buffer pool size in pages.
    pub fn with_pool_pages(mut self, pages: usize) -> Self {
        self.pool_pages = pages.max(1);
        self
    }

    /// Enable write-ahead logging and crash recovery.
    pub fn with_durable(mut self) -> Self {
        self.durable = true;
        self
    }

    /// Put the page file (and, if durable, the log) at `path`.
    pub fn with_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.on_disk = true;
        self.path = Some(path.into());
        self
    }
}

/// Combined I/O counters for one store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Buffer pool counters.
    pub buffer: BufferStats,
    /// Physical disk counters.
    pub disk: DiskStats,
}

impl IoStats {
    /// Total page requests (hits + misses).
    pub fn page_requests(&self) -> u64 {
        self.buffer.hits + self.buffer.misses
    }
}

/// Hit/miss counters of the in-memory tag-index lookups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Tag-name lookups that resolved to an interned tag.
    pub tag_hits: u64,
    /// Tag-name lookups for names absent from the document.
    pub tag_misses: u64,
}

/// What crash recovery did when the store was reopened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Page images rewritten during redo.
    pub redone: u64,
    /// Loser images rolled back during undo.
    pub undone: u64,
    /// Committed transactions found in the log.
    pub committed: u64,
    /// Loser (unfinished or aborted) transactions rolled back.
    pub losers: u64,
}

// ---- persistent metadata ----------------------------------------------

/// On-log layout of one stored document: where its pages live and how
/// big its local id/label spaces are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DocMeta {
    doc_id: DocId,
    heap_base: u32,
    heap_pages: u32,
    node_base: u32,
    node_pages: u32,
    /// Stored records (the synthetic `doc_root` is *not* stored).
    node_count: u32,
    /// Local `(start, end)` label span: local labels are in `[0, span)`.
    span: u32,
}

/// The store's durable metadata snapshot, serialized into every commit
/// and checkpoint record. Everything else (tag index, value index,
/// free list, global projection) is derived from it plus the pages.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StoreMeta {
    /// The full dictionary snapshot in `Sym` order — tag names *and*
    /// interned content values; `tags[0]` is always `doc_root`. Logging
    /// the whole table with every commit is what lets recovery re-intern
    /// the identical `name → Sym` assignment the crashed session used.
    tags: Vec<String>,
    docs: Vec<DocMeta>,
    next_doc: DocId,
    next_txn: TxnId,
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

fn encode_meta(meta: &StoreMeta) -> Vec<u8> {
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

fn bad_meta() -> StoreError {
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

fn decode_meta(bytes: &[u8]) -> Result<StoreMeta> {
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

// ---- per-document derived state ---------------------------------------

/// One document built in memory, ready to commit: local records (ids and
/// labels starting at 0, synthetic root excluded), encoded pages, and
/// the content strings for the optional value index.
struct LocalDoc {
    records: Vec<NodeRecord>,
    heap_pages: Vec<Box<[u8; PAGE_SIZE]>>,
    node_pages: Vec<Box<[u8; PAGE_SIZE]>>,
    values: Option<Vec<(u32, String)>>,
    /// Per-record content symbol ([`NO_SYM`] when the record has none),
    /// parallel to `records`.
    content_syms: Vec<u32>,
    span: u32,
}

fn build_local(
    doc: &xmlparse::Document,
    tags: &Dictionary,
    strip_whitespace: bool,
    want_values: bool,
) -> Result<LocalDoc> {
    let mut heap = HeapBuilder::new();
    let mut records: Vec<NodeRecord> = Vec::new();
    let mut content_syms: Vec<u32> = Vec::new();
    let mut counter: u32 = 0;
    let mut values: Vec<(usize, String)> = Vec::new();
    let mut loader = Loader {
        tags,
        heap: &mut heap,
        records: &mut records,
        content_syms: &mut content_syms,
        counter: &mut counter,
        strip_whitespace,
        values: if want_values { Some(&mut values) } else { None },
    };
    loader.load_element(doc.root(), NO_PARENT, 1)?;
    let span = counter;

    let heap_pages = heap.into_pages();
    let mut node_pages = Vec::with_capacity(records.len().div_ceil(RECORDS_PER_PAGE));
    for chunk in records.chunks(RECORDS_PER_PAGE) {
        let mut page = Box::new([0u8; PAGE_SIZE]);
        for (slot, rec) in chunk.iter().enumerate() {
            let at = PAGE_HEADER_SIZE + slot * RECORD_SIZE;
            rec.encode(&mut page[at..at + RECORD_SIZE]);
        }
        node_pages.push(page);
    }
    Ok(LocalDoc {
        records,
        heap_pages,
        node_pages,
        values: want_values.then(|| values.into_iter().map(|(i, s)| (i as u32, s)).collect()),
        content_syms,
        span,
    })
}

/// In-memory acceleration state for one stored document, rebuilt from
/// its pages on open: the local tag-index entries (indexed by local node
/// id), node kinds and content symbols for the columnar projection, and,
/// when the value index is on, the local content strings.
struct DocAux {
    entries: Vec<(TagId, NodeEntry)>,
    kinds: Vec<NodeKind>,
    content_syms: Vec<u32>,
    values: Option<Vec<(u32, String)>>,
}

impl DocAux {
    fn new(
        records: &[NodeRecord],
        content_syms: Vec<u32>,
        values: Option<Vec<(u32, String)>>,
    ) -> Self {
        DocAux {
            entries: records
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    (
                        r.tag,
                        NodeEntry {
                            id: NodeId(i as u32),
                            start: r.start,
                            end: r.end,
                            level: r.level,
                        },
                    )
                })
                .collect(),
            kinds: records.iter().map(|r| r.kind).collect(),
            content_syms,
            values,
        }
    }
}

/// A contiguous page run handed out by the allocator.
struct Run {
    base: u32,
    len: u32,
    /// Freshly appended at the end of the file (as opposed to reusing
    /// freed pages). Bulk inserts into fresh runs skip page-image
    /// logging: the pages are unreferenced until commit.
    fresh: bool,
}

/// Bounded retry of a commit-record flush: injected log-write errors are
/// transient, and leaving a commit record buffered after reporting
/// failure would let a later group flush commit it behind our back.
/// Return a run's pages straight to the free list (rollback of pages no
/// projection ever referenced).
fn release_run(w: &mut WriterState, run: &Run) {
    for p in run.base..run.base + run.len {
        w.free.insert(p);
    }
}

/// Park a committed-away document's runs in limbo, tagged with the
/// epoch that freed them (`w.epoch`, i.e. the just-installed one):
/// projections older than it may still read those pages.
fn limbo_runs(w: &mut WriterState, removed: &DocMeta) {
    let epoch = w.epoch;
    for (base, len) in [
        (removed.heap_base, removed.heap_pages),
        (removed.node_base, removed.node_pages),
    ] {
        if len > 0 {
            w.limbo.push(LimboRun { epoch, base, len });
        }
    }
}

fn flush_commit(wal: &WalHandle, lsn: Lsn) -> Result<()> {
    const MAX_RETRIES: u32 = 3;
    let mut attempts = 0;
    loop {
        match wal.lock().flush_to(lsn) {
            Ok(()) => return Ok(()),
            Err(e) if e.is_transient() && attempts < MAX_RETRIES => attempts += 1,
            Err(e) => return Err(e),
        }
    }
}

/// One immutable view of the store, published atomically by a commit:
/// the tag/value indexes, the columnar label region, and the document
/// table with its derived global id/label spaces. Readers resolve
/// everything through one `Arc<Projection>`, so a reader never observes
/// a half-applied transaction — it either runs entirely against the
/// pre-commit projection or entirely against the post-commit one.
struct Projection {
    /// Monotone commit counter; epoch `e + 1` is published by the
    /// commit that follows epoch `e`.
    epoch: u64,
    index: TagIndex,
    columns: Arc<NodeColumns>,
    value_index: Option<ValueIndex>,
    docs: Vec<DocMeta>,
    /// Global node id of each document's first local node; `id_bases[0]`
    /// is 1 (id 0 is the synthetic root).
    id_bases: Vec<u32>,
    /// Global `(start, end)` label offset of each document.
    label_offsets: Vec<u32>,
    node_count: u32,
    root_end: u32,
}

impl Projection {
    /// Which document holds global id `id` (> 0), and its local id.
    fn locate(&self, id: NodeId) -> (usize, NodeId) {
        let k = self.id_bases.partition_point(|b| *b <= id.0) - 1;
        (k, NodeId(id.0 - self.id_bases[k]))
    }

    /// Project a stored (local) record into the global id/label space.
    fn globalize(&self, k: usize, rec: &mut NodeRecord) {
        rec.start += self.label_offsets[k];
        rec.end += self.label_offsets[k];
        rec.parent = if rec.parent == NO_PARENT {
            0
        } else {
            rec.parent + self.id_bases[k]
        };
        if rec.content.is_some() {
            rec.content.page += self.docs[k].heap_base;
        }
    }
}

/// Build a projection from the document table and per-document aux
/// state: recompute the dense global id/label spaces, the tag index
/// (and value index), and the columnar label region. Node id 0 and
/// label 0 belong to the synthetic root; document `k`'s local ids map
/// to `id_bases[k] + local` and its labels to `label_offsets[k] +
/// local`.
fn build_projection(
    epoch: u64,
    docs: &[DocMeta],
    aux: &[Arc<DocAux>],
    doc_root_tag: TagId,
    build_values: bool,
) -> Projection {
    let mut id_bases = Vec::with_capacity(docs.len());
    let mut label_offsets = Vec::with_capacity(docs.len());
    let mut id_base = 1u32;
    let mut label_offset = 1u32;
    for d in docs {
        id_bases.push(id_base);
        label_offsets.push(label_offset);
        id_base += d.node_count;
        label_offset += d.span;
    }
    let node_count = id_base;
    let root_end = label_offset;

    let mut index = TagIndex::new();
    index.insert(
        doc_root_tag,
        NodeEntry {
            id: NodeId(0),
            start: 0,
            end: root_end,
            level: 0,
        },
    );
    let mut columns = NodeColumns::with_capacity(node_count as usize);
    columns.push(0, root_end, 0, doc_root_tag.0, NodeKind::Element, NO_SYM);
    for (k, aux) in aux.iter().enumerate() {
        for (local, (tag, e)) in aux.entries.iter().enumerate() {
            index.insert(
                *tag,
                NodeEntry {
                    id: NodeId(id_bases[k] + local as u32),
                    start: e.start + label_offsets[k],
                    end: e.end + label_offsets[k],
                    level: e.level,
                },
            );
            columns.push(
                e.start + label_offsets[k],
                e.end + label_offsets[k],
                e.level,
                tag.0,
                aux.kinds[local],
                aux.content_syms[local],
            );
        }
    }

    let value_index = build_values.then(|| {
        let mut vi = ValueIndex::new();
        for (k, aux) in aux.iter().enumerate() {
            if let Some(vals) = &aux.values {
                for (local, value) in vals {
                    let (tag, e) = &aux.entries[*local as usize];
                    vi.insert(
                        *tag,
                        value,
                        NodeEntry {
                            id: NodeId(id_bases[k] + local),
                            start: e.start + label_offsets[k],
                            end: e.end + label_offsets[k],
                            level: e.level,
                        },
                    );
                }
            }
        }
        vi
    });

    Projection {
        epoch,
        index,
        columns: Arc::new(columns),
        value_index,
        docs: docs.to_vec(),
        id_bases,
        label_offsets,
        node_count,
        root_end,
    }
}

/// A page run freed by a committed delete/replace, still referenced by
/// projections older than `epoch`: reusable only once every such
/// projection has been dropped.
struct LimboRun {
    epoch: u64,
    base: u32,
    len: u32,
}

/// Everything only the (single) writer touches, behind the commit lock:
/// the authoritative metadata, the per-document aux state the next
/// projection is built from, and the page allocator's free/limbo lists.
struct WriterState {
    meta: StoreMeta,
    aux: Vec<Arc<DocAux>>,
    /// Free page ids, derived from the metadata (never persisted).
    free: BTreeSet<u32>,
    /// Freed runs awaiting proof that no live projection references
    /// them (see [`LimboRun`]).
    limbo: Vec<LimboRun>,
    /// Every projection published and possibly still referenced,
    /// oldest first; the last entry is the current one. A prefix entry
    /// with a strong count of 1 is referenced by nobody else and is
    /// dropped at the next reclaim, unlocking its limbo runs.
    history: Vec<Arc<Projection>>,
    epoch: u64,
}

/// State shared by every handle on one store: the concurrent
/// dictionary, the published projection, the writer state behind the
/// commit lock, and the paged I/O stack.
struct StoreShared {
    tags: Dictionary,
    doc_root_tag: TagId,
    /// The projection readers resolve against, swapped wholesale by
    /// each commit.
    current: RwLock<Arc<Projection>>,
    writer: Mutex<WriterState>,
    wal: Option<WalHandle>,
    strip_whitespace: bool,
    build_values: bool,
    /// Whether the store was loaded with order-preserving symbol
    /// assignment — the opt-in gate for symbol-order predicate kernels.
    ordered_dict: bool,
    shards: Vec<Mutex<BufferPool>>,
    disk: SharedDisk,
    tag_hits: AtomicU64,
    tag_misses: AtomicU64,
    recovery: Option<RecoveryInfo>,
}

impl StoreShared {
    fn current(&self) -> Arc<Projection> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    fn shard_of(&self, pid: PageId) -> &Mutex<BufferPool> {
        &self.shards[pid.0 as usize % self.shards.len()]
    }

    /// Run `f` over the data region of page `pid` via the pool shard
    /// that owns it.
    fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&[u8; PAGE_DATA_SIZE]) -> R) -> Result<R> {
        lock_pool(self.shard_of(pid)).with_page(pid, f)
    }

    /// Read heap content, routing each page to its shard. A value that
    /// spans pages may cross shards; pages are locked one at a time.
    /// The pointer is already globalized (absolute page ids).
    fn read_heap(&self, ptr: ContentPtr) -> Result<String> {
        read_content_via(|pid, f| self.with_page(pid, |p| f(p)), 0, ptr)
    }
}

/// A set of XML documents loaded into the paged store.
///
/// The store is single-writer / multi-reader, and every method takes
/// `&self`. Reads resolve against the immutable [`Projection`]
/// published by the last commit: pages live in buffer-pool shards
/// striped by page id, each behind its own mutex, all sharing one
/// [`SharedDisk`]. Mutations ([`insert_document`], [`delete_document`],
/// …) serialize through an internal commit lock onto the WAL path and
/// atomically publish a fresh projection, so concurrent readers never
/// block behind a commit and never observe a half-applied transaction.
///
/// [`snapshot`](DocumentStore::snapshot) returns a cheap handle pinned
/// to the projection current at that moment: every read through it is
/// repeatable even while other handles commit, and the pages it
/// references are not reused until the last pinned handle drops.
/// Multi-step reads that must be mutually consistent (navigation,
/// serialization, whole query plans) should run on one snapshot.
///
/// [`insert_document`]: DocumentStore::insert_document
/// [`delete_document`]: DocumentStore::delete_document
pub struct DocumentStore {
    shared: Arc<StoreShared>,
    /// `Some` on snapshot handles: reads resolve against this pinned
    /// projection instead of the current one. Holding the `Arc` itself
    /// is the pin — the allocator only reuses a freed page run once
    /// every projection older than the freeing epoch is dropped.
    pinned: Option<Arc<Projection>>,
}

// The whole point of the sharded design: a loaded store can be shared
// across threads by reference.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<DocumentStore>()
};

fn lock_pool(shard: &Mutex<BufferPool>) -> MutexGuard<'_, BufferPool> {
    // A poisoned shard only means another reader panicked mid-access;
    // the pool's bookkeeping is update-then-return, so keep going.
    shard.lock().unwrap_or_else(|e| e.into_inner())
}

// ---- index-entry guards ------------------------------------------------

/// A document-order set of index entries resolved against one pinned
/// projection. Dereferences to `&[NodeEntry]`, so slice idioms
/// (`.len()`, `.iter()`, indexing, `.windows(..)`) work directly;
/// iterating the guard by value yields `NodeEntry` copies. The guard
/// keeps its projection alive, so the entries stay valid (and
/// unchanged) even if the store commits afterwards.
pub struct Entries {
    proj: Arc<Projection>,
    sel: EntrySel,
}

enum EntrySel {
    Tag(TagId),
    Value(TagId, String),
    Empty,
}

impl Entries {
    fn slice(&self) -> &[NodeEntry] {
        match &self.sel {
            EntrySel::Tag(tag) => self.proj.index.nodes(*tag),
            EntrySel::Value(tag, value) => self
                .proj
                .value_index
                .as_ref()
                .map_or(&[][..], |vi| vi.nodes(*tag, value)),
            EntrySel::Empty => &[],
        }
    }
}

impl Deref for Entries {
    type Target = [NodeEntry];
    fn deref(&self) -> &[NodeEntry] {
        self.slice()
    }
}

impl<'a> IntoIterator for &'a Entries {
    type Item = &'a NodeEntry;
    type IntoIter = std::slice::Iter<'a, NodeEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.slice().iter()
    }
}

/// Owning iterator over [`Entries`], yielding entries by value.
pub struct EntriesIter {
    entries: Entries,
    at: usize,
}

impl Iterator for EntriesIter {
    type Item = NodeEntry;
    fn next(&mut self) -> Option<NodeEntry> {
        let e = self.entries.slice().get(self.at).copied();
        self.at += usize::from(e.is_some());
        e
    }
}

impl IntoIterator for Entries {
    type Item = NodeEntry;
    type IntoIter = EntriesIter;
    fn into_iter(self) -> EntriesIter {
        EntriesIter {
            entries: self,
            at: 0,
        }
    }
}

impl DocumentStore {
    /// Parse `xml` and load it as the store's single document.
    pub fn from_xml(xml: &str, opts: &StoreOptions) -> Result<Self> {
        let doc = xmlparse::parse_document(xml)?;
        Self::load(&doc, opts)
    }

    /// Create a store holding one parsed document.
    pub fn load(doc: &xmlparse::Document, opts: &StoreOptions) -> Result<Self> {
        let store = Self::create(opts)?;
        if opts.ordered_dict {
            // Intern every string the loader will touch, in sorted
            // order, so the dictionary's order watermark covers the
            // whole document (minus `doc_root`, which `create` interned
            // first and `ordered_upto` excludes by construction).
            let mut names = std::collections::BTreeSet::new();
            collect_dict_strings(doc.root(), opts.strip_whitespace, &mut names);
            for name in &names {
                store.shared.tags.intern(name);
            }
        }
        store.insert_document(doc)?;
        store.clear_buffer_pool()?;
        store.shared.disk.reset_stats();
        store.reset_io_stats();
        Ok(store)
    }

    /// Assemble the shared state and publish the initial projection
    /// (epoch 1) built from `meta.docs` and `aux`.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        tags: Dictionary,
        doc_root_tag: TagId,
        meta: StoreMeta,
        aux: Vec<Arc<DocAux>>,
        free: BTreeSet<u32>,
        wal: Option<WalHandle>,
        opts: &StoreOptions,
        disk: SharedDisk,
        shards: Vec<Mutex<BufferPool>>,
        recovery: Option<RecoveryInfo>,
    ) -> DocumentStore {
        let epoch = 1;
        let proj = Arc::new(build_projection(
            epoch,
            &meta.docs,
            &aux,
            doc_root_tag,
            opts.value_index,
        ));
        DocumentStore {
            shared: Arc::new(StoreShared {
                tags,
                doc_root_tag,
                current: RwLock::new(Arc::clone(&proj)),
                writer: Mutex::new(WriterState {
                    meta,
                    aux,
                    free,
                    limbo: Vec::new(),
                    history: vec![proj],
                    epoch,
                }),
                wal,
                strip_whitespace: opts.strip_whitespace,
                build_values: opts.value_index,
                ordered_dict: opts.ordered_dict,
                shards,
                disk,
                tag_hits: AtomicU64::new(0),
                tag_misses: AtomicU64::new(0),
                recovery,
            }),
            pinned: None,
        }
    }

    /// Create an empty store.
    pub fn create(opts: &StoreOptions) -> Result<Self> {
        let tags = Dictionary::new();
        let doc_root_tag = tags.intern(DOC_ROOT_TAG);
        let disk = if opts.on_disk {
            match &opts.path {
                Some(p) => DiskManager::create_at(p)?,
                None => DiskManager::temp_file()?,
            }
        } else {
            DiskManager::in_memory()
        };
        let disk = SharedDisk::new(disk);
        let meta = StoreMeta {
            tags: vec![DOC_ROOT_TAG.to_owned()],
            docs: Vec::new(),
            next_doc: 1,
            next_txn: 1,
        };
        let wal = if opts.durable {
            let file = if opts.on_disk {
                opts.path.as_deref().map(wal_path_for)
            } else {
                None
            };
            Some(WalHandle::new(Wal::create(
                file.as_deref(),
                false,
                disk.clone(),
                encode_meta(&meta),
            )?))
        } else {
            None
        };
        let shards = Self::make_shards(&disk, opts.pool_pages, &wal)?;
        Ok(Self::assemble(
            tags,
            doc_root_tag,
            meta,
            Vec::new(),
            BTreeSet::new(),
            wal,
            opts,
            disk,
            shards,
            None,
        ))
    }

    /// Reopen a durable store from its page file and log, running crash
    /// recovery first: analysis finds the last committed metadata
    /// snapshot, redo repeats history over the page images, and undo
    /// rolls back loser transactions. The log is then truncated to a
    /// fresh checkpoint. Replaying recovery twice leaves the same bytes
    /// as once, so a crash *during* recovery is harmless.
    pub fn open(opts: &StoreOptions) -> Result<Self> {
        let path = opts.path.as_ref().ok_or_else(|| {
            StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "DocumentStore::open requires StoreOptions.path",
            ))
        })?;
        let wal_p = wal_path_for(path);
        let (disk, state) = wal::recover(path, &wal_p)?;
        let mut meta = decode_meta(&state.meta)?;
        meta.next_txn = meta.next_txn.max(state.next_txn);
        let disk = SharedDisk::new(disk);
        // Post-recovery checkpoint: the recovered pages are synced, so
        // the old log tail is no longer needed.
        let wal = Some(WalHandle::new(Wal::create(
            Some(&wal_p),
            false,
            disk.clone(),
            encode_meta(&meta),
        )?));

        let tags = Dictionary::from_names(&meta.tags);
        let doc_root_tag = tags.get(DOC_ROOT_TAG).ok_or_else(bad_meta)?;

        let mut free: BTreeSet<u32> = (0..disk.num_pages()).collect();
        for d in &meta.docs {
            for p in d.heap_base..d.heap_base + d.heap_pages {
                free.remove(&p);
            }
            for p in d.node_base..d.node_base + d.node_pages {
                free.remove(&p);
            }
        }

        let shards = Self::make_shards(&disk, opts.pool_pages, &wal)?;
        let recovery = Some(RecoveryInfo {
            redone: state.redone as u64,
            undone: state.undone as u64,
            committed: state.committed as u64,
            losers: state.losers as u64,
        });
        // Rebuild the per-document aux state from the recovered pages
        // before assembling the store (reads go through a throwaway
        // handle so the page path is identical to normal reads).
        let probe = Self::assemble(
            tags,
            doc_root_tag,
            meta,
            Vec::new(),
            free,
            wal,
            opts,
            disk,
            shards,
            recovery,
        );
        let aux = probe.read_aux()?;
        let store = {
            let mut w = probe.writer();
            w.aux = aux;
            probe.install(&mut w);
            drop(w);
            probe
        };
        store.clear_buffer_pool()?;
        store.shared.disk.reset_stats();
        store.reset_io_stats();
        Ok(store)
    }

    fn make_shards(
        disk: &SharedDisk,
        pool_pages: usize,
        wal: &Option<WalHandle>,
    ) -> Result<Vec<Mutex<BufferPool>>> {
        // Stripe the pool across shards; every shard gets at least one
        // frame (remainder pages go to the first shards). A zero-page
        // pool still fails with `PoolTooSmall`, as before.
        let nshards = pool_pages.clamp(1, MAX_POOL_SHARDS);
        let base_cap = pool_pages / nshards;
        let rem = pool_pages % nshards;
        let mut shards = Vec::with_capacity(nshards);
        for i in 0..nshards {
            let cap = base_cap + usize::from(i < rem);
            let mut pool = BufferPool::with_shared(disk.clone(), cap)?;
            pool.set_wal(wal.clone());
            shards.push(Mutex::new(pool));
        }
        Ok(shards)
    }

    // ---- snapshots and projection plumbing -----------------------------

    /// The projection this handle reads through: the pinned one on
    /// snapshot handles, else the currently published one.
    fn proj(&self) -> Arc<Projection> {
        match &self.pinned {
            Some(p) => Arc::clone(p),
            None => self.shared.current(),
        }
    }

    /// A handle pinned to the projection current at this moment. Reads
    /// through it are repeatable while other handles keep committing;
    /// mutations through it still apply to the shared store (and stay
    /// invisible to this handle). Snapshotting a snapshot shares its
    /// pin. Cost: one atomic refcount — no pages are copied.
    pub fn snapshot(&self) -> DocumentStore {
        DocumentStore {
            shared: Arc::clone(&self.shared),
            pinned: Some(self.proj()),
        }
    }

    /// Whether this handle is pinned to a snapshot.
    pub fn is_snapshot(&self) -> bool {
        self.pinned.is_some()
    }

    /// The commit epoch this handle reads at.
    pub fn epoch(&self) -> u64 {
        self.proj().epoch
    }

    fn writer(&self) -> MutexGuard<'_, WriterState> {
        // Commit state is only mutated under this lock and every commit
        // path restores invariants before unlocking; a poisoning panic
        // mid-commit is rolled back by recovery, not by the lock.
        self.shared.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publish the writer's state as a fresh projection (next epoch):
    /// advance the header cache, swap the current projection, and
    /// remember it in the history for limbo reclamation.
    fn install(&self, w: &mut WriterState) {
        w.epoch += 1;
        let proj = Arc::new(build_projection(
            w.epoch,
            &w.meta.docs,
            &w.aux,
            self.shared.doc_root_tag,
            self.shared.build_values,
        ));
        *self
            .shared
            .current
            .write()
            .unwrap_or_else(|e| e.into_inner()) = Arc::clone(&proj);
        w.history.push(proj);
    }

    // ---- mutation ------------------------------------------------------

    /// Insert a parsed document as one WAL transaction, returning its id.
    /// On `Ok` the commit record is durable (durable stores) and the
    /// document is visible; on `Err` nothing changed.
    pub fn insert_document(&self, doc: &xmlparse::Document) -> Result<DocId> {
        if self.shared.disk.crashed() {
            return Err(StoreError::SimulatedCrash);
        }
        // Build the document outside the commit lock — interning into
        // the dictionary is concurrent, so writers only serialize on
        // the page/WAL work below.
        let local = build_local(
            doc,
            &self.shared.tags,
            self.shared.strip_whitespace,
            self.shared.build_values,
        )?;
        let mut w = self.writer();
        let heap_run = self.alloc_run(&mut w, local.heap_pages.len() as u32)?;
        let node_run = match self.alloc_run(&mut w, local.node_pages.len() as u32) {
            Ok(r) => r,
            Err(e) => {
                release_run(&mut w, &heap_run);
                return Err(e);
            }
        };
        // Transaction ids are never reused, even by failed operations:
        // recovery attributes log records by txn id, so a committed
        // later transaction must never share an id with a loser.
        let txn = w.meta.next_txn;
        w.meta.next_txn += 1;
        let doc_id = w.meta.next_doc;
        let mut new_meta = w.meta.clone();
        new_meta.tags = self.shared.tags.snapshot();
        new_meta.docs.push(DocMeta {
            doc_id,
            heap_base: heap_run.base,
            heap_pages: heap_run.len,
            node_base: node_run.base,
            node_pages: node_run.len,
            node_count: local.records.len() as u32,
            span: local.span,
        });
        new_meta.next_doc += 1;
        let meta_bytes = encode_meta(&new_meta);
        let start_lsn = self.shared.wal.as_ref().map_or(0, |w| w.lock().next_lsn());

        let LocalDoc {
            records,
            heap_pages,
            node_pages,
            values,
            content_syms,
            ..
        } = local;
        let result = if heap_run.fresh && node_run.fresh {
            self.commit_fresh(
                txn,
                &heap_run,
                &node_run,
                &heap_pages,
                &node_pages,
                meta_bytes,
            )
        } else {
            let mut pages = Vec::with_capacity(heap_pages.len() + node_pages.len());
            for (i, p) in heap_pages.into_iter().enumerate() {
                pages.push((PageId(heap_run.base + i as u32), p));
            }
            for (i, p) in node_pages.into_iter().enumerate() {
                pages.push((PageId(node_run.base + i as u32), p));
            }
            self.commit_images(txn, pages, meta_bytes)
        };
        match result {
            Ok(()) => {
                w.meta = new_meta;
                w.aux
                    .push(Arc::new(DocAux::new(&records, content_syms, values)));
                self.install(&mut w);
                Ok(doc_id)
            }
            Err(e) => {
                // The runs were never visible to any projection, so
                // they go straight back to the free list, not limbo.
                release_run(&mut w, &heap_run);
                release_run(&mut w, &node_run);
                self.rollback_txn(txn, start_lsn);
                Err(e)
            }
        }
    }

    /// Parse and insert an XML document.
    pub fn insert_xml(&self, xml: &str) -> Result<DocId> {
        let doc = xmlparse::parse_document(xml)?;
        self.insert_document(&doc)
    }

    /// Delete document `doc` as one WAL transaction. Its pages move to
    /// the limbo list and return to the free list once no live snapshot
    /// still references them; the reuse path writes full page images,
    /// so freed content can never leak into a later document.
    pub fn delete_document(&self, doc: DocId) -> Result<()> {
        if self.shared.disk.crashed() {
            return Err(StoreError::SimulatedCrash);
        }
        let mut w = self.writer();
        let k = w
            .meta
            .docs
            .iter()
            .position(|d| d.doc_id == doc)
            .ok_or(StoreError::NoSuchDocument { doc })?;
        let txn = w.meta.next_txn;
        w.meta.next_txn += 1;
        let mut new_meta = w.meta.clone();
        let removed = new_meta.docs.remove(k);
        if let Some(wal) = &self.shared.wal {
            let start_lsn = wal.lock().next_lsn();
            let lsn = {
                let mut wl = wal.lock();
                wl.append(WalRecord::Begin { txn });
                wl.append(WalRecord::Commit {
                    txn,
                    meta: encode_meta(&new_meta),
                })
            };
            if let Err(e) = flush_commit(wal, lsn) {
                self.rollback_txn(txn, start_lsn);
                return Err(e);
            }
        }
        w.meta = new_meta;
        w.aux.remove(k);
        self.install(&mut w);
        limbo_runs(&mut w, &removed);
        Ok(())
    }

    /// Replace document `doc` with `new_doc` as ONE WAL transaction
    /// (atomic swap: a crash either keeps the old document or installs
    /// the new one, never neither), returning the new document's id.
    pub fn replace_document(&self, doc: DocId, new_doc: &xmlparse::Document) -> Result<DocId> {
        if self.shared.disk.crashed() {
            return Err(StoreError::SimulatedCrash);
        }
        let local = build_local(
            new_doc,
            &self.shared.tags,
            self.shared.strip_whitespace,
            self.shared.build_values,
        )?;
        let mut w = self.writer();
        let k = w
            .meta
            .docs
            .iter()
            .position(|d| d.doc_id == doc)
            .ok_or(StoreError::NoSuchDocument { doc })?;
        // The old document's pages are still live until the commit
        // lands, so the new copy allocates elsewhere (free pages from
        // *earlier* deletes are fair game).
        let heap_run = self.alloc_run(&mut w, local.heap_pages.len() as u32)?;
        let node_run = match self.alloc_run(&mut w, local.node_pages.len() as u32) {
            Ok(r) => r,
            Err(e) => {
                release_run(&mut w, &heap_run);
                return Err(e);
            }
        };
        let txn = w.meta.next_txn;
        w.meta.next_txn += 1;
        let mut new_meta = w.meta.clone();
        new_meta.tags = self.shared.tags.snapshot();
        let removed = new_meta.docs.remove(k);
        let doc_id = new_meta.next_doc;
        new_meta.docs.push(DocMeta {
            doc_id,
            heap_base: heap_run.base,
            heap_pages: heap_run.len,
            node_base: node_run.base,
            node_pages: node_run.len,
            node_count: local.records.len() as u32,
            span: local.span,
        });
        new_meta.next_doc += 1;
        let meta_bytes = encode_meta(&new_meta);
        let start_lsn = self.shared.wal.as_ref().map_or(0, |w| w.lock().next_lsn());

        let LocalDoc {
            records,
            heap_pages,
            node_pages,
            values,
            content_syms,
            ..
        } = local;
        let result = if heap_run.fresh && node_run.fresh {
            self.commit_fresh(
                txn,
                &heap_run,
                &node_run,
                &heap_pages,
                &node_pages,
                meta_bytes,
            )
        } else {
            let mut pages = Vec::with_capacity(heap_pages.len() + node_pages.len());
            for (i, p) in heap_pages.into_iter().enumerate() {
                pages.push((PageId(heap_run.base + i as u32), p));
            }
            for (i, p) in node_pages.into_iter().enumerate() {
                pages.push((PageId(node_run.base + i as u32), p));
            }
            self.commit_images(txn, pages, meta_bytes)
        };
        match result {
            Ok(()) => {
                w.meta = new_meta;
                w.aux.remove(k);
                w.aux
                    .push(Arc::new(DocAux::new(&records, content_syms, values)));
                self.install(&mut w);
                limbo_runs(&mut w, &removed);
                Ok(doc_id)
            }
            Err(e) => {
                release_run(&mut w, &heap_run);
                release_run(&mut w, &node_run);
                self.rollback_txn(txn, start_lsn);
                Err(e)
            }
        }
    }

    /// Flush all dirty pages, sync the page file, and truncate the log
    /// to a fresh checkpoint carrying the current metadata snapshot.
    pub fn checkpoint(&self) -> Result<()> {
        if self.shared.disk.crashed() {
            return Err(StoreError::SimulatedCrash);
        }
        let mut w = self.writer();
        for shard in &self.shared.shards {
            lock_pool(shard).flush_all()?;
        }
        self.shared.disk.lock().sync()?;
        if let Some(wal) = &self.shared.wal {
            // Refresh the dictionary snapshot: symbols interned since the
            // last commit (query-constructed tags and values) live only in
            // the in-memory table, and the checkpoint is about to truncate
            // the log that would otherwise be their last trace.
            w.meta.tags = self.shared.tags.snapshot();
            wal.lock().checkpoint(encode_meta(&w.meta))?;
        }
        Ok(())
    }

    /// `(doc_id, stored node count)` of every document, insertion order,
    /// as seen by this handle's projection.
    pub fn documents(&self) -> Vec<(DocId, u32)> {
        self.proj()
            .docs
            .iter()
            .map(|d| (d.doc_id, d.node_count))
            .collect()
    }

    /// Log activity counters, if the store is durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.shared.wal.as_ref().map(|w| w.lock().stats())
    }

    /// Whether the store write-ahead-logs its mutations.
    pub fn durable(&self) -> bool {
        self.shared.wal.is_some()
    }

    /// What crash recovery did, if this store was reopened with
    /// [`open`](DocumentStore::open).
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.shared.recovery
    }

    // ---- commit paths --------------------------------------------------

    /// Commit a document whose pages are all freshly allocated at the
    /// end of the file: write them directly (they are unreferenced until
    /// the commit's metadata snapshot lands), sync the page file, then
    /// log `Begin` + `Commit{meta}` in one flush. This keeps bulk-load
    /// WAL overhead to a file sync and one small log write, instead of
    /// doubling the write volume with page images.
    fn commit_fresh(
        &self,
        txn: TxnId,
        heap_run: &Run,
        node_run: &Run,
        heap_pages: &[Box<[u8; PAGE_SIZE]>],
        node_pages: &[Box<[u8; PAGE_SIZE]>],
        meta_bytes: Vec<u8>,
    ) -> Result<()> {
        {
            let mut d = self.shared.disk.lock();
            for (i, page) in heap_pages.iter().enumerate() {
                d.write_page(PageId(heap_run.base + i as u32), page)?;
            }
            for (i, page) in node_pages.iter().enumerate() {
                d.write_page(PageId(node_run.base + i as u32), page)?;
            }
        }
        if let Some(w) = &self.shared.wal {
            self.shared.disk.lock().sync()?;
            let lsn = {
                let mut wl = w.lock();
                wl.append(WalRecord::Begin { txn });
                wl.append(WalRecord::Commit {
                    txn,
                    meta: meta_bytes,
                })
            };
            flush_commit(w, lsn)?;
        }
        Ok(())
    }

    /// Commit a document that reuses freed pages: log a full after-image
    /// per page (before-image `Zero` — the page was free, so rollback
    /// zeroes it), install the images in the buffer pool (steal/no-force:
    /// an eviction may write them early after flushing the log up to
    /// their LSN; commit itself flushes only the log), then log the
    /// commit.
    fn commit_images(
        &self,
        txn: TxnId,
        pages: Vec<(PageId, Box<[u8; PAGE_SIZE]>)>,
        meta_bytes: Vec<u8>,
    ) -> Result<()> {
        let wal = self.shared.wal.clone();
        if let Some(w) = &wal {
            w.lock().append(WalRecord::Begin { txn });
        }
        for (pid, page) in &pages {
            let lsn = match &wal {
                Some(w) => w.lock().append(WalRecord::PageImage {
                    txn,
                    pid: *pid,
                    before: BeforeImage::Zero,
                    after: page.clone(),
                }),
                None => 0,
            };
            lock_pool(self.shared.shard_of(*pid)).write_page_image(*pid, lsn, page)?;
        }
        if let Some(w) = &wal {
            let lsn = w.lock().append(WalRecord::Commit {
                txn,
                meta: meta_bytes,
            });
            flush_commit(w, lsn)?;
        }
        Ok(())
    }

    /// Clean up after a failed mutation: drop any still-buffered records
    /// of `txn` (so a later flush cannot commit it behind our back), and
    /// if part of the transaction already reached the durable log (an
    /// eviction flushed it), append a best-effort `Abort` marker —
    /// recovery rolls the transaction back either way.
    fn rollback_txn(&self, txn: TxnId, start_lsn: Lsn) {
        let Some(w) = &self.shared.wal else { return };
        let crashed = self.shared.disk.crashed();
        let mut wl = w.lock();
        wl.truncate_pending(start_lsn);
        if wl.durable_lsn() > start_lsn && !crashed {
            wl.append(WalRecord::Abort { txn });
            let _ = wl.flush();
        }
    }

    // ---- page allocation -----------------------------------------------

    /// Move limbo runs whose referencing projections are all gone back
    /// to the free list. A history prefix entry with strong count 1 is
    /// referenced only by the history itself — no snapshot handle, no
    /// in-flight read, no `Entries` guard — so pages freed at or before
    /// the *oldest surviving* epoch are reusable.
    fn reclaim_limbo(&self, w: &mut WriterState) {
        while w.history.len() > 1 && Arc::strong_count(&w.history[0]) == 1 {
            w.history.remove(0);
        }
        // Pair with the release decrement of the last dropped handle,
        // ordering its page reads before our reuse writes.
        atomic::fence(Ordering::Acquire);
        let oldest_live = w.history.first().map_or(0, |p| p.epoch);
        let mut freed: Vec<(u32, u32)> = Vec::new();
        w.limbo.retain(|l| {
            if l.epoch <= oldest_live {
                freed.push((l.base, l.len));
                false
            } else {
                true
            }
        });
        for (base, len) in freed {
            for p in base..base + len {
                w.free.insert(p);
            }
        }
    }

    /// Allocate a run of `n` consecutive pages: the lowest consecutive
    /// run in the free list if one exists, else fresh pages at the end
    /// of the file.
    fn alloc_run(&self, w: &mut WriterState, n: u32) -> Result<Run> {
        if n == 0 {
            return Ok(Run {
                base: 0,
                len: 0,
                fresh: true,
            });
        }
        self.reclaim_limbo(w);
        let mut len = 0u32;
        let mut prev: Option<u32> = None;
        let mut found: Option<u32> = None;
        for &p in &w.free {
            len = match prev {
                Some(q) if p == q + 1 => len + 1,
                _ => 1,
            };
            prev = Some(p);
            if len == n {
                found = Some(p + 1 - n);
                break;
            }
        }
        if let Some(base) = found {
            for p in base..base + n {
                w.free.remove(&p);
            }
            return Ok(Run {
                base,
                len: n,
                fresh: false,
            });
        }
        let base = self.shared.disk.num_pages();
        let mut allocated = 0u32;
        for _ in 0..n {
            match self.shared.disk.lock().allocate() {
                Ok(_) => allocated += 1,
                Err(e) => {
                    for p in base..base + allocated {
                        w.free.insert(p);
                    }
                    return Err(e);
                }
            }
        }
        Ok(Run {
            base,
            len: n,
            fresh: true,
        })
    }

    /// Rebuild every document's aux state from its pages (used on
    /// reopen; inserts build it from the in-memory document instead).
    fn read_aux(&self) -> Result<Vec<Arc<DocAux>>> {
        let docs = self.writer().meta.docs.clone();
        let build_values = self.shared.build_values;
        let mut out = Vec::with_capacity(docs.len());
        for d in &docs {
            let mut records = Vec::with_capacity(d.node_count as usize);
            for local in 0..d.node_count {
                let (page, slot) = node_location(d.node_base, NodeId(local));
                let rec = self.shared.with_page(PageId(page), |p| {
                    NodeRecord::decode(&p[slot..slot + RECORD_SIZE])
                })?;
                records.push(rec);
            }
            // Re-intern every stored content string so the columnar
            // region carries the same symbols the writing session used —
            // the names are already in the recovered dictionary snapshot,
            // so these lookups hit existing entries.
            let mut content_syms = Vec::with_capacity(records.len());
            let mut vals = Vec::new();
            for (i, rec) in records.iter().enumerate() {
                if rec.content.is_some() {
                    let s = read_content_via(
                        |pid, f| self.shared.with_page(pid, |p| f(p)),
                        d.heap_base,
                        rec.content,
                    )?;
                    content_syms.push(self.shared.tags.intern(&s).0);
                    if build_values {
                        vals.push((i as u32, s));
                    }
                } else {
                    content_syms.push(NO_SYM);
                }
            }
            let values = build_values.then_some(vals);
            out.push(Arc::new(DocAux::new(&records, content_syms, values)));
        }
        Ok(out)
    }

    // ---- metadata ----------------------------------------------------

    /// Number of visible nodes (elements + attributes + text nodes,
    /// including the synthetic `doc_root`).
    pub fn node_count(&self) -> u32 {
        self.proj().node_count
    }

    /// Total pages in the store file (including freed pages awaiting
    /// reuse).
    pub fn total_pages(&self) -> u32 {
        self.shared.disk.num_pages()
    }

    /// Store size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.total_pages() as u64 * PAGE_SIZE as u64
    }

    /// The unified symbol dictionary (tags *and* content values).
    pub fn dict(&self) -> &Dictionary {
        &self.shared.tags
    }

    /// The tag dictionary. Interning is concurrent (`&self`), so query
    /// layers can intern constructed tags and computed values directly.
    pub fn tags(&self) -> &Dictionary {
        &self.shared.tags
    }

    /// Intern a string (tag or value) into the store dictionary.
    pub fn intern(&self, name: &str) -> Sym {
        self.shared.tags.intern(name)
    }

    /// A zero-copy handle on the columnar label region. The snapshot
    /// stays valid (and unchanged) even if the store mutates afterwards;
    /// mutations install a fresh region.
    pub fn columns(&self) -> Arc<NodeColumns> {
        Arc::clone(&self.proj().columns)
    }

    /// The content symbol of `id`, from the columns — no page access.
    pub fn content_sym(&self, id: NodeId) -> Option<Sym> {
        self.proj().columns.content_sym(id).map(Sym)
    }

    /// Id of an element tag name, if present in the store.
    pub fn tag_id(&self, name: &str) -> Option<TagId> {
        self.count_tag_lookup(self.shared.tags.get(name))
    }

    /// Id of an attribute `name` (stored as `@name`), if present.
    pub fn attr_tag_id(&self, name: &str) -> Option<TagId> {
        self.count_tag_lookup(self.shared.tags.get(&attr_tag_name(name)))
    }

    fn count_tag_lookup(&self, found: Option<TagId>) -> Option<TagId> {
        match found {
            Some(_) => self.shared.tag_hits.fetch_add(1, Ordering::Relaxed),
            None => self.shared.tag_misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Name of a tag id (a clone of the interned string).
    pub fn tag_name(&self, id: TagId) -> Arc<str> {
        self.shared.tags.resolve(id)
    }

    /// Whether the store was loaded with order-preserving symbol
    /// assignment ([`StoreOptions::ordered_dict`]). Only then may
    /// engines answer string comparison predicates from symbol order
    /// (and even then only for symbols inside
    /// [`Dictionary::ordered_upto`]).
    pub fn ordered_dict_enabled(&self) -> bool {
        self.shared.ordered_dict
    }

    // ---- index access (no data pages touched) -------------------------

    /// Document-order index entries for a tag. The returned guard
    /// derefs to `&[NodeEntry]` and pins the projection it resolved
    /// against, so the slice is stable under concurrent commits.
    pub fn nodes_with_tag(&self, tag: TagId) -> Entries {
        Entries {
            proj: self.proj(),
            sel: EntrySel::Tag(tag),
        }
    }

    /// An empty entry guard (useful when a tag is absent from the
    /// store but callers want a uniform `Entries` value).
    pub fn no_entries(&self) -> Entries {
        Entries {
            proj: self.proj(),
            sel: EntrySel::Empty,
        }
    }

    /// The synthetic root's index entry.
    pub fn root(&self) -> NodeEntry {
        NodeEntry {
            id: NodeId(0),
            start: 0,
            end: self.proj().root_end,
            level: 0,
        }
    }

    /// Whether the content value index was built
    /// (`StoreOptions::value_index`).
    pub fn has_value_index(&self) -> bool {
        self.proj().value_index.is_some()
    }

    /// Document-order nodes of `tag` whose content equals `value`, from
    /// the value index (no data-page access). `None` when the index was
    /// not built.
    pub fn nodes_with_tag_and_content(&self, tag: TagId, value: &str) -> Option<Entries> {
        let proj = self.proj();
        proj.value_index.is_some().then(|| Entries {
            proj,
            sel: EntrySel::Value(tag, value.to_owned()),
        })
    }

    // ---- record / content access (goes through the buffer pool) -------

    /// Fetch the full record of `id` against one pinned projection.
    fn record_in(&self, proj: &Projection, id: NodeId) -> Result<NodeRecord> {
        if id.0 >= proj.node_count {
            return Err(StoreError::NodeOutOfBounds {
                node: id.0,
                node_count: proj.node_count,
            });
        }
        if id.0 == 0 {
            return Ok(NodeRecord {
                tag: self.shared.doc_root_tag,
                start: 0,
                end: proj.root_end,
                parent: NO_PARENT,
                level: 0,
                kind: NodeKind::Element,
                content: ContentPtr::NULL,
            });
        }
        let (k, local) = proj.locate(id);
        let (page, slot) = node_location(proj.docs[k].node_base, local);
        let mut rec = self.shared.with_page(PageId(page), |p| {
            NodeRecord::decode(&p[slot..slot + RECORD_SIZE])
        })?;
        proj.globalize(k, &mut rec);
        Ok(rec)
    }

    /// Fetch the full record of `id` (one node-page access; the
    /// synthetic root is materialized from metadata for free).
    pub fn record(&self, id: NodeId) -> Result<NodeRecord> {
        self.record_in(&self.proj(), id)
    }

    /// The index-style entry of `id` (via its record).
    pub fn entry(&self, id: NodeId) -> Result<NodeEntry> {
        let rec = self.record(id)?;
        Ok(NodeEntry {
            id,
            start: rec.start,
            end: rec.end,
            level: rec.level,
        })
    }

    /// Character content of `id`: `Some` for attributes, text nodes, and
    /// text-only elements; `None` otherwise. This is the "data value
    /// look-up" of Sec. 5.3 and touches heap pages.
    pub fn content(&self, id: NodeId) -> Result<Option<String>> {
        let rec = self.record(id)?;
        if !rec.content.is_some() {
            return Ok(None);
        }
        Ok(Some(self.shared.read_heap(rec.content)?))
    }

    /// Parent node id (None for the root).
    pub fn parent(&self, id: NodeId) -> Result<Option<NodeId>> {
        let rec = self.record(id)?;
        Ok(if rec.parent == NO_PARENT {
            None
        } else {
            Some(NodeId(rec.parent))
        })
    }

    /// All child node ids of `id` (elements, attributes, and text nodes),
    /// in document order. The whole walk runs against one projection.
    pub fn children(&self, id: NodeId) -> Result<Vec<NodeId>> {
        let proj = self.proj();
        self.children_in(&proj, id)
    }

    fn children_in(&self, proj: &Projection, id: NodeId) -> Result<Vec<NodeId>> {
        let rec = self.record_in(proj, id)?;
        let mut out = Vec::new();
        let mut j = id.0 + 1;
        while j < proj.node_count {
            let r = self.record_in(proj, NodeId(j))?;
            if r.start >= rec.end {
                break;
            }
            if r.level == rec.level + 1 {
                out.push(NodeId(j));
            }
            j += 1;
        }
        Ok(out)
    }

    /// All node ids in the subtree of `id`, `id` included, in document
    /// order. The whole walk runs against one projection.
    pub fn subtree(&self, id: NodeId) -> Result<Vec<NodeId>> {
        let proj = self.proj();
        let rec = self.record_in(&proj, id)?;
        let mut out = vec![id];
        let mut j = id.0 + 1;
        while j < proj.node_count {
            let r = self.record_in(&proj, NodeId(j))?;
            if r.start >= rec.end {
                break;
            }
            out.push(NodeId(j));
            j += 1;
        }
        Ok(out)
    }

    /// Rebuild the DOM element for the subtree rooted at `id` — the "data
    /// population" step of Sec. 5.3. Attribute children become attributes,
    /// `#text` children become text nodes, merged content becomes a text
    /// child. The whole subtree materializes against one projection.
    pub fn materialize(&self, id: NodeId) -> Result<xmlparse::Element> {
        let proj = self.proj();
        self.materialize_in(&proj, id)
    }

    fn materialize_in(&self, proj: &Projection, id: NodeId) -> Result<xmlparse::Element> {
        let rec = self.record_in(proj, id)?;
        let mut elem = xmlparse::Element::new(&*self.shared.tags.resolve(rec.tag));
        if rec.content.is_some() {
            // Element content and attribute/text nodes materialized
            // directly both surface as a text child.
            let text = self.shared.read_heap(rec.content)?;
            elem.children.push(xmlparse::XmlNode::Text(text));
        }
        for child in self.children_in(proj, id)? {
            let crec = self.record_in(proj, child)?;
            match crec.kind {
                NodeKind::Attribute => {
                    let name = self
                        .shared
                        .tags
                        .resolve(crec.tag)
                        .trim_start_matches('@')
                        .to_owned();
                    let value = self.content_of(proj, crec)?;
                    elem.attributes.push((name, value));
                }
                NodeKind::Text => {
                    let value = self.content_of(proj, crec)?;
                    elem.children.push(xmlparse::XmlNode::Text(value));
                }
                NodeKind::Element => {
                    elem.children.push(xmlparse::XmlNode::Element(
                        self.materialize_in(proj, child)?,
                    ));
                }
            }
        }
        Ok(elem)
    }

    fn content_of(&self, _proj: &Projection, rec: NodeRecord) -> Result<String> {
        if !rec.content.is_some() {
            return Ok(String::new());
        }
        self.shared.read_heap(rec.content)
    }

    // ---- statistics ----------------------------------------------------

    /// Current I/O counters, summed over the pool shards.
    pub fn io_stats(&self) -> IoStats {
        let mut buffer = BufferStats::default();
        for shard in &self.shared.shards {
            let s = lock_pool(shard).stats();
            buffer.hits += s.hits;
            buffer.misses += s.misses;
            buffer.evictions += s.evictions;
            buffer.writebacks += s.writebacks;
            buffer.retries += s.retries;
        }
        IoStats {
            buffer,
            disk: self.shared.disk.stats(),
        }
    }

    /// Zero the I/O and tag-lookup counters.
    pub fn reset_io_stats(&self) {
        for shard in &self.shared.shards {
            lock_pool(shard).reset_stats();
        }
        self.shared.tag_hits.store(0, Ordering::Relaxed);
        self.shared.tag_misses.store(0, Ordering::Relaxed);
    }

    /// Empty every buffer-pool shard so the next operation starts cold.
    /// Dirty pages are flushed first (with their log records, on durable
    /// stores).
    pub fn clear_buffer_pool(&self) -> Result<()> {
        for shard in &self.shared.shards {
            lock_pool(shard).clear()?;
        }
        Ok(())
    }

    /// Buffer pool capacity in pages, summed over shards.
    pub fn pool_capacity(&self) -> usize {
        self.shared
            .shards
            .iter()
            .map(|s| lock_pool(s).capacity())
            .sum()
    }

    /// Number of buffer-pool shards.
    pub fn pool_shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Tag-index lookup counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            tag_hits: self.shared.tag_hits.load(Ordering::Relaxed),
            tag_misses: self.shared.tag_misses.load(Ordering::Relaxed),
        }
    }

    // ---- fault injection ----------------------------------------------

    /// Install a deterministic fault schedule on the underlying disk (or
    /// remove it with `None`). Loading always happens fault-free — this
    /// is called afterwards, so schedules corrupt query-time page
    /// traffic, not the initial layout. Cached pages are dropped so the
    /// schedule applies to every subsequent page touch.
    pub fn inject_faults(&self, config: Option<FaultConfig>) -> Result<()> {
        // Flush through the *clean* disk before arming the injector, so
        // dirty frames are not lost to injected write errors.
        self.clear_buffer_pool()?;
        self.shared
            .disk
            .set_fault_injector(config.map(FaultInjector::new));
        Ok(())
    }

    /// Counters from the installed fault injector, if any.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.shared.disk.fault_stats()
    }

    /// Whether an injected crash has fired: every subsequent operation
    /// fails with [`StoreError::SimulatedCrash`] until the store is
    /// reopened.
    pub fn crashed(&self) -> bool {
        self.shared.disk.crashed()
    }

    /// XOR one raw physical byte of page `page`, bypassing checksums —
    /// a corruption backdoor for recovery tests. Cached copies of the
    /// page are NOT invalidated; pair with [`clear_buffer_pool`] to make
    /// the damage visible to the next read.
    ///
    /// [`clear_buffer_pool`]: DocumentStore::clear_buffer_pool
    pub fn poke_page_byte(&self, page: u32, offset: usize, xor: u8) -> Result<()> {
        self.shared.disk.lock().poke_byte(PageId(page), offset, xor)
    }
}

/// Collect every string [`Loader::load_element`] will intern for the
/// subtree at `elem` — element tags, `@`-prefixed attribute tags,
/// attribute values, `#text` tags, and text content, with the same
/// whitespace-stripping and text-merging rules. The ordered-dict
/// pre-pass interns the resulting sorted set before loading.
fn collect_dict_strings(
    elem: &xmlparse::Element,
    strip_whitespace: bool,
    out: &mut std::collections::BTreeSet<String>,
) {
    out.insert(elem.name.clone());
    for (name, value) in &elem.attributes {
        out.insert(attr_tag_name(name));
        out.insert(value.clone());
    }
    let has_element_children = elem
        .children
        .iter()
        .any(|c| matches!(c, xmlparse::XmlNode::Element(_)));
    if has_element_children {
        for child in &elem.children {
            match child {
                xmlparse::XmlNode::Element(e) => collect_dict_strings(e, strip_whitespace, out),
                xmlparse::XmlNode::Text(t) => {
                    if strip_whitespace && t.trim().is_empty() {
                        continue;
                    }
                    out.insert(TEXT_TAG.to_owned());
                    out.insert(t.clone());
                }
                xmlparse::XmlNode::Comment(_) => {}
            }
        }
    } else {
        let text = elem.text();
        if !(text.is_empty() || (strip_whitespace && text.trim().is_empty())) {
            out.insert(text);
        }
    }
}

struct Loader<'a> {
    tags: &'a Dictionary,
    heap: &'a mut HeapBuilder,
    records: &'a mut Vec<NodeRecord>,
    /// Parallel to `records`: the content symbol of each record
    /// ([`NO_SYM`] when it has none).
    content_syms: &'a mut Vec<u32>,
    counter: &'a mut u32,
    strip_whitespace: bool,
    /// When building a value index: `(record index, content)` pairs.
    values: Option<&'a mut Vec<(usize, String)>>,
}

impl Loader<'_> {
    /// DFS over the DOM assigning local ids, labels, and content.
    fn load_element(&mut self, elem: &xmlparse::Element, parent: u32, level: u16) -> Result<u32> {
        let id = self.records.len() as u32;
        let tag = self.tags.intern(&elem.name);
        let start = *self.counter;
        *self.counter += 1;
        self.records.push(NodeRecord {
            tag,
            start,
            end: 0, // patched at exit
            parent,
            level,
            kind: NodeKind::Element,
            content: ContentPtr::NULL,
        });
        self.content_syms.push(NO_SYM);

        // Attributes as leaf nodes.
        for (name, value) in &elem.attributes {
            let attr_tag = self.tags.intern(&attr_tag_name(name));
            let s = *self.counter;
            *self.counter += 1;
            let e = *self.counter;
            *self.counter += 1;
            let content = self.heap.append(value)?;
            if let Some(values) = self.values.as_deref_mut() {
                values.push((self.records.len(), value.clone()));
            }
            self.records.push(NodeRecord {
                tag: attr_tag,
                start: s,
                end: e,
                parent: id,
                level: level + 1,
                kind: NodeKind::Attribute,
                content,
            });
            self.content_syms.push(self.tags.intern(value).0);
        }

        let has_element_children = elem
            .children
            .iter()
            .any(|c| matches!(c, xmlparse::XmlNode::Element(_)));

        if has_element_children {
            // Mixed or element content: text children become #text nodes.
            for child in &elem.children {
                match child {
                    xmlparse::XmlNode::Element(e) => {
                        self.load_element(e, id, level + 1)?;
                    }
                    xmlparse::XmlNode::Text(t) => {
                        if self.strip_whitespace && t.trim().is_empty() {
                            continue;
                        }
                        let text_tag = self.tags.intern(TEXT_TAG);
                        let s = *self.counter;
                        *self.counter += 1;
                        let e = *self.counter;
                        *self.counter += 1;
                        let content = self.heap.append(t)?;
                        if let Some(values) = self.values.as_deref_mut() {
                            values.push((self.records.len(), t.clone()));
                        }
                        self.records.push(NodeRecord {
                            tag: text_tag,
                            start: s,
                            end: e,
                            parent: id,
                            level: level + 1,
                            kind: NodeKind::Text,
                            content,
                        });
                        self.content_syms.push(self.tags.intern(t).0);
                    }
                    xmlparse::XmlNode::Comment(_) => {}
                }
            }
        } else {
            // Text-only (or empty) content merges into the element.
            let text = elem.text();
            if !(text.is_empty() || (self.strip_whitespace && text.trim().is_empty())) {
                let content = self.heap.append(&text)?;
                self.records[id as usize].content = content;
                self.content_syms[id as usize] = self.tags.intern(&text).0;
                if let Some(values) = self.values.as_deref_mut() {
                    values.push((id as usize, text));
                }
            }
        }

        let end = *self.counter;
        *self.counter += 1;
        self.records[id as usize].end = end;
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<bib>
        <article year="1999">
            <title>Querying XML</title>
            <author>Jack</author>
            <author>John</author>
        </article>
        <article>
            <title>Hack HTML</title>
            <author>John</author>
        </article>
    </bib>"#;

    fn store() -> DocumentStore {
        DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    #[test]
    fn ordered_dict_load_covers_every_document_symbol() {
        let opts = StoreOptions::in_memory().with_ordered_dict();
        let s = DocumentStore::from_xml(SAMPLE, &opts).unwrap();
        assert!(s.ordered_dict_enabled());
        let d = s.dict();
        // Every symbol the load produced sits under the watermark.
        assert_eq!(d.ordered_upto() as usize, d.len());
        // Symbol order is string order: content symbols compare as text.
        let (lo, hi) = d.ordered_bounds("Jack");
        assert_eq!(hi, lo + 1);
        let jack = s.content_sym(s.nodes_with_tag(s.tag_id("author").unwrap())[0].id);
        assert_eq!(jack.map(|s| s.0), Some(lo));
        // A store answers the same queries either way.
        let plain = store();
        assert!(!plain.ordered_dict_enabled());
        for st in [&s, &plain] {
            let author = st.tag_id("author").unwrap();
            assert_eq!(st.nodes_with_tag(author).len(), 3);
        }
        // Post-load interns land above the watermark and stay
        // non-comparable.
        let fresh = s.intern("aaaa new value");
        assert!(!d.is_ordered(fresh));
    }

    /// Unique page/log paths in the system temp dir for reopen tests.
    fn temp_paths(tag: &str) -> (PathBuf, PathBuf) {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let page = std::env::temp_dir().join(format!(
            "xmlstore_doc_test_{}_{tag}_{n}.pages",
            std::process::id()
        ));
        let wal = wal_path_for(&page);
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal);
        (page, wal)
    }

    fn durable_opts(page: &Path) -> StoreOptions {
        StoreOptions {
            pool_pages: 64,
            ..StoreOptions::in_memory()
        }
        .with_path(page)
        .with_durable()
    }

    #[test]
    fn loads_with_doc_root_wrapper() {
        let s = store();
        let root = s.root();
        assert_eq!(root.id, NodeId(0));
        assert_eq!(&*s.tag_name(s.record(NodeId(0)).unwrap().tag), DOC_ROOT_TAG);
        // doc_root + bib + 2 articles + 1 attr + 2 titles + 3 authors = 10
        assert_eq!(s.node_count(), 10);
    }

    #[test]
    fn tag_index_finds_all_authors() {
        let s = store();
        let author = s.tag_id("author").unwrap();
        let authors = s.nodes_with_tag(author);
        assert_eq!(authors.len(), 3);
        // Index entries are in document order.
        assert!(authors.windows(2).all(|w| w[0].start < w[1].start));
    }

    #[test]
    fn content_of_text_only_element() {
        let s = store();
        let title = s.tag_id("title").unwrap();
        let first = s.nodes_with_tag(title)[0];
        assert_eq!(
            s.content(first.id).unwrap().as_deref(),
            Some("Querying XML")
        );
    }

    #[test]
    fn attribute_stored_as_node() {
        let s = store();
        let year = s.attr_tag_id("year").unwrap();
        let entries = s.nodes_with_tag(year);
        assert_eq!(entries.len(), 1);
        assert_eq!(s.content(entries[0].id).unwrap().as_deref(), Some("1999"));
        let rec = s.record(entries[0].id).unwrap();
        assert_eq!(rec.kind, NodeKind::Attribute);
    }

    #[test]
    fn containment_labels_nest() {
        let s = store();
        let article = s.tag_id("article").unwrap();
        let author = s.tag_id("author").unwrap();
        let articles = s.nodes_with_tag(article);
        let authors = s.nodes_with_tag(author);
        // First article has exactly 2 of the 3 authors.
        let inside = authors
            .iter()
            .filter(|a| articles[0].is_ancestor_of(a))
            .count();
        assert_eq!(inside, 2);
        assert!(articles[0].is_parent_of(&authors[0]));
    }

    #[test]
    fn children_and_subtree_navigation() {
        let s = store();
        let article = s.tag_id("article").unwrap();
        let first = s.nodes_with_tag(article)[0];
        let kids = s.children(first.id).unwrap();
        // year attr + title + 2 authors
        assert_eq!(kids.len(), 4);
        let sub = s.subtree(first.id).unwrap();
        assert_eq!(sub.len(), 5);
        assert_eq!(sub[0], first.id);
    }

    #[test]
    fn parent_navigation() {
        let s = store();
        let title = s.tag_id("title").unwrap();
        let t = s.nodes_with_tag(title)[0];
        let p = s.parent(t.id).unwrap().unwrap();
        let prec = s.record(p).unwrap();
        assert_eq!(&*s.tag_name(prec.tag), "article");
        assert_eq!(s.parent(NodeId(0)).unwrap(), None);
    }

    #[test]
    fn materialize_roundtrips_article() {
        let s = store();
        let article = s.tag_id("article").unwrap();
        let first = s.nodes_with_tag(article)[0];
        let elem = s.materialize(first.id).unwrap();
        assert_eq!(elem.name, "article");
        assert_eq!(elem.attr("year"), Some("1999"));
        assert_eq!(elem.child("title").unwrap().text(), "Querying XML");
        assert_eq!(elem.children_named("author").count(), 2);
    }

    #[test]
    fn mixed_content_preserved() {
        let xml = "<p>Hello <b>bold</b> world</p>";
        let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
        let p = s.tag_id("p").unwrap();
        let node = s.nodes_with_tag(p)[0];
        let elem = s.materialize(node.id).unwrap();
        assert_eq!(elem.deep_text(), "Hello bold world");
        let text_tag = s.tag_id(TEXT_TAG).unwrap();
        assert_eq!(s.nodes_with_tag(text_tag).len(), 2);
    }

    #[test]
    fn io_stats_count_page_traffic() {
        let s = store();
        s.reset_io_stats();
        let title = s.tag_id("title").unwrap();
        let t = s.nodes_with_tag(title)[0];
        // Index access alone: no page requests.
        assert_eq!(s.io_stats().page_requests(), 0);
        let _ = s.content(t.id).unwrap();
        assert!(s.io_stats().page_requests() >= 2); // node page + heap page
    }

    #[test]
    fn on_disk_backend_works() {
        let opts = StoreOptions {
            on_disk: true,
            pool_pages: 8,
            ..StoreOptions::in_memory()
        };
        let s = DocumentStore::from_xml(SAMPLE, &opts).unwrap();
        let author = s.tag_id("author").unwrap();
        let a = s.nodes_with_tag(author)[2];
        assert_eq!(s.content(a.id).unwrap().as_deref(), Some("John"));
        assert!(s.io_stats().disk.reads >= 1);
    }

    #[test]
    fn strip_whitespace_toggle() {
        let xml = "<a> <b/> </a>";
        let stripped = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
        let kept = DocumentStore::from_xml(
            xml,
            &StoreOptions {
                strip_whitespace: false,
                ..StoreOptions::in_memory()
            },
        )
        .unwrap();
        // stripped: doc_root + a + b; kept adds two #text nodes.
        assert_eq!(stripped.node_count(), 3);
        assert_eq!(kept.node_count(), 5);
    }

    #[test]
    fn value_index_built_on_request() {
        let s =
            DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory().with_value_index()).unwrap();
        let author = s.tag_id("author").unwrap();
        let hits = s.nodes_with_tag_and_content(author, "John").unwrap();
        assert_eq!(hits.len(), 2);
        assert!(s
            .nodes_with_tag_and_content(author, "Nobody")
            .unwrap()
            .is_empty());
        // Attribute values are indexed too (tag @year).
        let year = s.attr_tag_id("year").unwrap();
        assert_eq!(s.nodes_with_tag_and_content(year, "1999").unwrap().len(), 1);
        // Off by default.
        let plain = DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory()).unwrap();
        assert!(!plain.has_value_index());
        assert!(plain.nodes_with_tag_and_content(author, "John").is_none());
    }

    #[test]
    fn value_index_lookup_touches_no_pages() {
        let s =
            DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory().with_value_index()).unwrap();
        s.reset_io_stats();
        let author = s.tag_id("author").unwrap();
        let _ = s.nodes_with_tag_and_content(author, "Jack").unwrap();
        assert_eq!(s.io_stats().page_requests(), 0);
    }

    #[test]
    fn very_long_content_spans_heap_pages() {
        let long_title = "Grouping in XML ".repeat(1200); // ~19 KB > 2 pages
        let xml = format!("<bib><article><title>{long_title}</title></article></bib>");
        let s = DocumentStore::from_xml(&xml, &StoreOptions::in_memory()).unwrap();
        let title = s.tag_id("title").unwrap();
        let t = s.nodes_with_tag(title)[0];
        assert_eq!(
            s.content(t.id).unwrap().as_deref(),
            Some(long_title.as_str())
        );
        // The heap needs at least three pages for this value.
        assert!(s.total_pages() >= 3);
    }

    #[test]
    fn pool_capacity_and_shards_cover_request() {
        let s = store(); // in_memory: 1024 pages
        assert_eq!(s.pool_capacity(), 1024);
        assert_eq!(s.pool_shards(), 8);
        // Tiny pools get fewer shards but never zero-frame ones.
        let tiny =
            DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory().with_pool_pages(3)).unwrap();
        assert_eq!(tiny.pool_capacity(), 3);
        assert_eq!(tiny.pool_shards(), 3);
    }

    #[test]
    fn concurrent_reads_agree_with_sequential() {
        let mut xml = String::from("<bib>");
        for i in 0..300 {
            xml.push_str(&format!(
                "<article><title>T{i}</title><author>A{}</author></article>",
                i % 7
            ));
        }
        xml.push_str("</bib>");
        // A pool much smaller than the document, so threads contend and
        // evict under each other.
        let s =
            DocumentStore::from_xml(&xml, &StoreOptions::in_memory().with_pool_pages(4)).unwrap();
        let title = s.tag_id("title").unwrap();
        let entries: Vec<NodeEntry> = s.nodes_with_tag(title).to_vec();
        let expected: Vec<String> = entries
            .iter()
            .map(|e| s.content(e.id).unwrap().unwrap())
            .collect();

        let results: Vec<Vec<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        entries
                            .iter()
                            .map(|e| s.content(e.id).unwrap().unwrap())
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in results {
            assert_eq!(r, expected);
        }
    }

    #[test]
    fn repeat_fetches_reach_the_pool_and_counters_track_tags() {
        let s = store();
        s.reset_io_stats();
        let _ = s.record(NodeId(1)).unwrap();
        let _ = s.record(NodeId(1)).unwrap();
        // Every record fetch is a page request: nothing sits in front
        // of the buffer pool.
        assert_eq!(s.io_stats().page_requests(), 2);
        let _ = s.tag_id("title");
        let _ = s.tag_id("no_such_tag");
        let cs = s.cache_stats();
        assert_eq!(cs.tag_hits, 1);
        assert_eq!(cs.tag_misses, 1);
    }

    #[test]
    fn clear_buffer_pool_starts_cold() {
        let s = store();
        let _ = s.record(NodeId(1)).unwrap();
        s.clear_buffer_pool().unwrap();
        s.reset_io_stats();
        let _ = s.record(NodeId(1)).unwrap();
        assert_eq!(s.io_stats().buffer.misses, 1);
    }

    #[test]
    fn poisoned_pool_shard_recovers() {
        let s = store();
        let title = s.tag_id("title").unwrap();
        let t = s.nodes_with_tag(title)[0];
        let before = s.content(t.id).unwrap();
        // Panic while holding every shard's lock, poisoning the mutexes.
        for shard in &s.shared.shards {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = shard.lock().unwrap();
                panic!("reader dies while holding the pool lock");
            }));
            assert!(result.is_err());
            assert!(shard.lock().is_err(), "shard must actually be poisoned");
        }
        // The store keeps answering reads identically.
        assert_eq!(s.content(t.id).unwrap(), before);
        assert!(s.io_stats().page_requests() > 0);
        s.clear_buffer_pool().unwrap();
        assert_eq!(s.content(t.id).unwrap(), before);
    }

    #[test]
    fn inject_faults_round_trip() {
        let s = store();
        assert!(s.fault_stats().is_none());
        let cfg: FaultConfig = "seed=9,read_err=1.0".parse().unwrap();
        s.inject_faults(Some(cfg)).unwrap();
        // Every read now fails even after retries, as a typed error.
        let title = s.tag_id("title").unwrap();
        let t = s.nodes_with_tag(title)[0];
        let err = s.content(t.id).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert!(s.fault_stats().unwrap().read_errors > 0);
        // Disarming restores normal service.
        s.inject_faults(None).unwrap();
        assert!(s.fault_stats().is_none());
        assert_eq!(s.content(t.id).unwrap().as_deref(), Some("Querying XML"));
    }

    #[test]
    fn node_out_of_bounds_error() {
        let s = store();
        assert!(matches!(
            s.record(NodeId(10_000)),
            Err(StoreError::NodeOutOfBounds { .. })
        ));
    }

    #[test]
    fn many_nodes_span_pages() {
        // More than RECORDS_PER_PAGE nodes forces multi-page layout.
        let mut xml = String::from("<bib>");
        for i in 0..300 {
            xml.push_str(&format!("<article><title>T{i}</title></article>"));
        }
        xml.push_str("</bib>");
        let s = DocumentStore::from_xml(&xml, &StoreOptions::in_memory()).unwrap();
        assert_eq!(s.node_count(), 602);
        assert!(s.total_pages() > 2);
        let title = s.tag_id("title").unwrap();
        let last = s.nodes_with_tag(title)[299];
        assert_eq!(s.content(last.id).unwrap().as_deref(), Some("T299"));
    }

    // ---- multi-document mutations --------------------------------------

    #[test]
    fn empty_store_has_only_doc_root() {
        let s = DocumentStore::create(&StoreOptions::in_memory()).unwrap();
        assert_eq!(s.node_count(), 1);
        assert_eq!(s.root().end, 1);
        assert!(s.documents().is_empty());
        assert!(s.children(NodeId(0)).unwrap().is_empty());
        assert_eq!(&*s.tag_name(s.record(NodeId(0)).unwrap().tag), DOC_ROOT_TAG);
    }

    #[test]
    fn single_insert_matches_bulk_load() {
        let bulk = store();
        let inc = DocumentStore::create(&StoreOptions::in_memory()).unwrap();
        inc.insert_xml(SAMPLE).unwrap();
        assert_eq!(inc.node_count(), bulk.node_count());
        assert_eq!(inc.root(), bulk.root());
        for id in 0..bulk.node_count() {
            assert_eq!(
                inc.record(NodeId(id)).unwrap(),
                bulk.record(NodeId(id)).unwrap(),
                "record {id} diverges"
            );
            assert_eq!(
                inc.content(NodeId(id)).unwrap(),
                bulk.content(NodeId(id)).unwrap()
            );
        }
    }

    #[test]
    fn insert_and_query_multiple_documents() {
        let s = DocumentStore::create(&StoreOptions::in_memory()).unwrap();
        let d1 = s
            .insert_xml("<bib><article><author>Jack</author></article></bib>")
            .unwrap();
        let d2 = s
            .insert_xml("<bib><article><author>Jill</author></article></bib>")
            .unwrap();
        assert_ne!(d1, d2);
        assert_eq!(s.documents().len(), 2);
        // Both document roots are children of the shared doc_root.
        assert_eq!(s.children(NodeId(0)).unwrap().len(), 2);
        let author = s.tag_id("author").unwrap();
        let authors = s.nodes_with_tag(author);
        assert_eq!(authors.len(), 2);
        // Global labels keep document order: doc 1 strictly before doc 2.
        assert!(authors[0].end < authors[1].start);
        assert_eq!(s.content(authors[0].id).unwrap().as_deref(), Some("Jack"));
        assert_eq!(s.content(authors[1].id).unwrap().as_deref(), Some("Jill"));
        // Parent chains stay within the right document.
        let p = s.parent(authors[1].id).unwrap().unwrap();
        assert_eq!(&*s.tag_name(s.record(p).unwrap().tag), "article");
        // Subtree of doc_root covers everything.
        assert_eq!(s.subtree(NodeId(0)).unwrap().len() as u32, s.node_count());
    }

    #[test]
    fn delete_document_removes_and_frees_pages() {
        let s = DocumentStore::create(&StoreOptions::in_memory()).unwrap();
        let d1 = s.insert_xml("<a><b>one</b></a>").unwrap();
        let d2 = s.insert_xml("<a><b>two</b></a>").unwrap();
        let pages_before = s.total_pages();
        s.delete_document(d1).unwrap();
        assert_eq!(s.documents(), vec![(d2, s.documents()[0].1)]);
        let b = s.tag_id("b").unwrap();
        let entries = s.nodes_with_tag(b);
        assert_eq!(entries.len(), 1);
        assert_eq!(s.content(entries[0].id).unwrap().as_deref(), Some("two"));
        // A same-shaped insert reuses the freed pages: file does not grow.
        s.insert_xml("<a><b>three</b></a>").unwrap();
        assert_eq!(s.total_pages(), pages_before);
        let entries = s.nodes_with_tag(b);
        assert_eq!(entries.len(), 2);
        assert_eq!(s.content(entries[1].id).unwrap().as_deref(), Some("three"));
    }

    #[test]
    fn replace_document_swaps_content() {
        let s = DocumentStore::create(&StoreOptions::in_memory()).unwrap();
        let d1 = s.insert_xml("<a><b>old</b></a>").unwrap();
        let doc = xmlparse::parse_document("<a><b>new</b></a>").unwrap();
        let d2 = s.replace_document(d1, &doc).unwrap();
        assert_ne!(d1, d2);
        assert_eq!(s.documents().len(), 1);
        let b = s.tag_id("b").unwrap();
        let entries = s.nodes_with_tag(b);
        assert_eq!(s.content(entries[0].id).unwrap().as_deref(), Some("new"));
    }

    #[test]
    fn no_such_document_error() {
        let s = DocumentStore::create(&StoreOptions::in_memory()).unwrap();
        assert!(matches!(
            s.delete_document(42),
            Err(StoreError::NoSuchDocument { doc: 42 })
        ));
    }

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

    // ---- durability ----------------------------------------------------

    #[test]
    fn durable_store_reopens_with_committed_documents() {
        let (page, wal) = temp_paths("reopen");
        let opts = durable_opts(&page).with_value_index();
        {
            let s = DocumentStore::create(&opts).unwrap();
            s.insert_xml(SAMPLE).unwrap();
            s.insert_xml("<bib><article><author>Jill</author></article></bib>")
                .unwrap();
            assert!(s.durable());
            assert!(s.wal_stats().unwrap().flushes >= 2);
        }
        let s = DocumentStore::open(&opts).unwrap();
        assert_eq!(s.documents().len(), 2);
        let info = s.recovery_info().unwrap();
        assert_eq!(info.committed, 2);
        assert_eq!(info.losers, 0);
        let author = s.tag_id("author").unwrap();
        let authors = s.nodes_with_tag(author);
        assert_eq!(authors.len(), 4);
        assert_eq!(s.content(authors[3].id).unwrap().as_deref(), Some("Jill"));
        // The value index was rebuilt from the pages.
        assert_eq!(
            s.nodes_with_tag_and_content(author, "John").unwrap().len(),
            2
        );
        // Recovery is deterministic: a second replay of the durable log
        // leaves the same page bytes as the first.
        let log = std::fs::read(&wal).unwrap();
        drop(s);
        let mut disk = DiskManager::open_existing(&page).unwrap();
        wal::replay(&mut disk, &log).unwrap();
        drop(disk);
        let once = std::fs::read(&page).unwrap();
        let mut disk = DiskManager::open_existing(&page).unwrap();
        wal::replay(&mut disk, &log).unwrap();
        drop(disk);
        let twice = std::fs::read(&page).unwrap();
        assert_eq!(once, twice);
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn crash_during_insert_rolls_back_on_reopen() {
        let (page, wal) = temp_paths("crash_insert");
        let opts = durable_opts(&page);
        {
            let s = DocumentStore::create(&opts).unwrap();
            let kept = s.insert_xml(SAMPLE).unwrap();
            // Arm a crash on the very next write-class operation: the
            // insert dies before its commit record can land.
            s.inject_faults(Some("seed=5,crash=1".parse().unwrap()))
                .unwrap();
            let err = s
                .insert_xml("<bib><article><author>Lost</author></article></bib>")
                .unwrap_err();
            assert!(matches!(err, StoreError::SimulatedCrash), "{err}");
            assert!(s.crashed());
            // The crashed store refuses further mutations.
            assert!(matches!(
                s.insert_xml("<a/>"),
                Err(StoreError::SimulatedCrash)
            ));
            assert_eq!(s.documents(), vec![(kept, 9)]);
        }
        let s = DocumentStore::open(&opts).unwrap();
        assert_eq!(s.documents().len(), 1);
        let author = s.tag_id("author").unwrap();
        assert_eq!(s.nodes_with_tag(author).len(), 3);
        assert!(s.tag_id("Lost").is_none());
        // The reopened store accepts new work.
        s.insert_xml("<bib><article><author>Back</author></article></bib>")
            .unwrap();
        assert_eq!(s.nodes_with_tag(author).len(), 4);
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn torn_reuse_commit_zeroes_reclaimed_pages() {
        // The free-list-reuse regression: delete a document, reinsert
        // over its pages, and tear the commit off the log. Recovery must
        // roll the reuse back to ZERO pages — the deleted document's
        // payload must not resurrect, on disk or through the store.
        let (page, wal) = temp_paths("torn_reuse");
        let opts = durable_opts(&page);
        {
            let s = DocumentStore::create(&opts).unwrap();
            let d1 = s.insert_xml("<a><b>RESURRECT_ME</b></a>").unwrap();
            s.checkpoint().unwrap();
            s.delete_document(d1).unwrap();
            // Same shape: reuses d1's freed heap + node pages, so this
            // goes through the page-image commit path.
            s.insert_xml("<a><b>SECOND_BODY</b></a>").unwrap();
        }
        // Tear the final commit record: keep a few bytes so the tail is
        // genuinely torn, not cleanly truncated.
        let log = std::fs::read(&wal).unwrap();
        let contents = wal::read_log(&log);
        let last_commit = contents
            .records
            .iter()
            .rev()
            .find(|(_, r)| matches!(r, WalRecord::Commit { .. }))
            .map(|(lsn, _)| *lsn)
            .unwrap();
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(last_commit + 5).unwrap();
        drop(f);

        let s = DocumentStore::open(&opts).unwrap();
        assert!(s.documents().is_empty(), "the torn insert must not survive");
        let info = s.recovery_info().unwrap();
        assert!(info.undone >= 2, "heap + node images rolled back: {info:?}");
        drop(s);
        // Raw page file scan: both payloads are gone — the reclaimed
        // pages were zeroed, not left with stale bytes.
        let raw = std::fs::read(&page).unwrap();
        let contains = |needle: &[u8]| raw.windows(needle.len()).any(|w| w == needle);
        assert!(!contains(b"RESURRECT_ME"), "deleted payload resurrected");
        assert!(!contains(b"SECOND_BODY"), "torn insert left partial data");
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn crash_during_delete_preserves_document() {
        let (page, wal) = temp_paths("crash_delete");
        let opts = durable_opts(&page);
        {
            let s = DocumentStore::create(&opts).unwrap();
            let d1 = s.insert_xml(SAMPLE).unwrap();
            // The delete's only write-class op is its commit flush.
            s.inject_faults(Some("seed=11,crash=1".parse().unwrap()))
                .unwrap();
            let err = s.delete_document(d1).unwrap_err();
            assert!(matches!(err, StoreError::SimulatedCrash), "{err}");
        }
        let s = DocumentStore::open(&opts).unwrap();
        assert_eq!(s.documents().len(), 1, "torn delete must not apply");
        let author = s.tag_id("author").unwrap();
        assert_eq!(s.nodes_with_tag(author).len(), 3);
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn checkpoint_survives_reopen_without_log_tail() {
        let (page, wal) = temp_paths("checkpoint");
        let opts = durable_opts(&page);
        {
            let s = DocumentStore::create(&opts).unwrap();
            s.insert_xml(SAMPLE).unwrap();
            let before = std::fs::metadata(&wal).unwrap().len();
            s.checkpoint().unwrap();
            let after = std::fs::metadata(&wal).unwrap().len();
            assert!(after < before, "checkpoint must shrink the log");
            assert_eq!(s.wal_stats().unwrap().checkpoints, 1);
        }
        let s = DocumentStore::open(&opts).unwrap();
        assert_eq!(s.documents().len(), 1);
        assert_eq!(s.node_count(), 10);
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn durable_in_memory_store_logs_without_a_file() {
        // No path → the log lives in memory; the full logging path runs
        // (useful for measuring WAL overhead) but nothing is written out.
        let s = DocumentStore::create(&StoreOptions::in_memory().with_durable()).unwrap();
        s.insert_xml(SAMPLE).unwrap();
        let stats = s.wal_stats().unwrap();
        assert!(stats.records >= 3); // checkpoint + begin + commit
        assert!(stats.flushes >= 1);
    }
}
