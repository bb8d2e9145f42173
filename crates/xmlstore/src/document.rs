//! The document store: node runs and name pages behind a buffer pool,
//! plus the in-memory dictionary and tag index.
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
//! folds the log's committed metadata deltas over its checkpoint to
//! recover exactly the committed documents after a crash. Every page
//! write lands on a free page, which nothing recovery can reach holds
//! live until a durable commit makes it so; no write is ever undone or
//! redone. Every commit writes its pages to the page file and syncs it
//! before one log write carries its commit record; the log carries
//! metadata only, and the buffer pool only reads.
//!
//! # Layout
//!
//! This module holds the options, construction and the read API. Each
//! other decision lives behind one child module: `meta` (the durable
//! metadata, its checkpoint snapshot and commit delta codecs), `loader`
//! (the parser's element events → rows as columns, with
//! no DOM in between), `projection` (the published view and the documents it
//! holds, how an edit extends it, snapshot pins, when a removed
//! document's pages go free), `output` (the batched
//! value read, the walk that records a stored subtree, the replay),
//! `commit` (the one write transaction, its page writes, the
//! allocator, checkpoint) and `reopen` (recovery glue).

mod commit;
mod loader;
mod meta;
mod output;
mod projection;
mod reopen;

pub use output::{RowWriter, Tape};
pub use projection::{Entries, EntriesIter};
pub use reopen::RecoveryInfo;

use crate::buffer::{BufferPool, BufferStats};
use crate::catalog::TagId;
use crate::columns::NodeColumns;
use crate::dict::{Dictionary, Sym, NO_SYM};
use crate::error::{Result, StoreError};
use crate::fault::{FaultConfig, FaultInjector, FaultStats};
use crate::heap::NamePages;
use crate::index::NodeEntry;
use crate::node::{self, ContentPtr, NodeId, NodeKind, NodeRecord};
use crate::page::{PageId, PAGE_DATA_SIZE, PAGE_SIZE};
use crate::storage::{DiskManager, DiskStats, SharedDisk};
use crate::wal::{Wal, WalStats};
use commit::WriterState;
use meta::{encode_meta, StoreMeta};
use projection::Projection;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};

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
    /// pages, i.e. 4096 pages; that is the default. The paper's 32 MB is
    /// a cap: the pool allocates a frame on first fault, so a store that
    /// asks for fewer pages holds fewer frames.
    pub pool_pages: usize,
    /// Back the store with a real temporary file (true) or an in-memory
    /// page vector (false).
    pub on_disk: bool,
    /// If the store is on disk, put the page file here instead of a
    /// temporary path (the file is then kept after drop).
    pub path: Option<PathBuf>,
    /// Write-ahead log every mutation so the store survives crashes.
    /// The log lives next to the page file (`path` + `.wal`) when the
    /// store is on disk at a named path; otherwise it is kept in memory,
    /// which still exercises the full logging path (useful for
    /// benchmarking WAL overhead) but cannot be reopened.
    pub durable: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            pool_pages: 32 * 1024 * 1024 / PAGE_SIZE,
            on_disk: true,
            path: None,
            durable: false,
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
            durable: false,
        }
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

/// State shared by every handle on one store: the concurrent
/// dictionary and where its paged names lie, the published projection,
/// the writer state behind the commit lock, and the paged I/O stack.
struct StoreShared {
    tags: Dictionary,
    /// Extended only by a commit, under the writer lock, before it
    /// publishes: every symbol a published row holds is paged.
    names: RwLock<NamePages>,
    doc_root_tag: TagId,
    /// The projection readers resolve against, swapped wholesale by
    /// each commit.
    current: RwLock<Arc<Projection>>,
    writer: Mutex<WriterState>,
    wal: Option<Mutex<Wal>>,
    /// The one buffer pool, behind one lock (see DESIGN.md,
    /// *Concurrency model*, for the measurement that retired striping).
    pool: Mutex<BufferPool>,
    disk: SharedDisk,
    recovery: Option<RecoveryInfo>,
}

impl StoreShared {
    fn current(&self) -> Arc<Projection> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    fn names(&self) -> RwLockReadGuard<'_, NamePages> {
        // A commit appends a whole run at once under the write lock.
        self.names.read().unwrap_or_else(|e| e.into_inner())
    }

    fn pool(&self) -> MutexGuard<'_, BufferPool> {
        // A poisoned pool only means another reader panicked mid-access;
        // the pool's bookkeeping is update-then-return, so keep going.
        self.pool.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wal(&self) -> Option<MutexGuard<'_, Wal>> {
        // A record write either lands whole or cuts the log back to its
        // durable length (or refuses every later write), so a poisoned
        // log is still usable.
        let wal = self.wal.as_ref()?;
        Some(wal.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Run `f` over the data region of page `pid` via the pool.
    fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&[u8; PAGE_DATA_SIZE]) -> R) -> Result<R> {
        self.pool().with_page(pid, f)
    }
}

/// A set of XML documents loaded into the paged store.
///
/// The store is single-writer / multi-reader, and every method takes
/// `&self`. Reads resolve against the immutable projection published
/// by the last commit; pages come through one buffer pool behind one
/// mutex, over one [`SharedDisk`]. Mutations ([`insert_document`],
/// [`delete_document`], …) serialize through an internal commit lock
/// onto the WAL path and atomically publish a fresh projection, so
/// concurrent readers never block behind a commit and never observe a
/// half-applied transaction.
///
/// [`snapshot`](DocumentStore::snapshot) returns a cheap handle pinned
/// to the projection current at that moment: every read through it is
/// repeatable even while other handles commit, and the pages of the
/// documents it holds are not reused until the last pinned handle drops.
/// Multi-step reads that must be mutually consistent (navigation,
/// serialization, whole query plans) should run on one snapshot.
///
/// [`insert_document`]: DocumentStore::insert_document
/// [`delete_document`]: DocumentStore::delete_document
pub struct DocumentStore {
    shared: Arc<StoreShared>,
    /// `Some` on snapshot handles: reads resolve against this pinned
    /// projection instead of the current one. Holding the `Arc` itself
    /// is the pin — it holds the projection's documents, and the
    /// allocator only reuses a removed document's page runs once no
    /// projection holds it.
    pinned: Option<Arc<Projection>>,
}

// A loaded store is shared across threads by reference.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<DocumentStore>()
};

impl DocumentStore {
    /// Create a store holding `xml` as its single document, loaded
    /// straight from the parser's events.
    pub fn from_xml(xml: &str, opts: &StoreOptions) -> Result<Self> {
        Self::holding(opts, |store| store.insert_xml(xml))
    }

    /// Create a store holding one parsed document.
    pub fn load(doc: &xmlparse::Document, opts: &StoreOptions) -> Result<Self> {
        Self::holding(opts, |store| store.insert_document(doc))
    }

    /// Create a store, run `insert` on it, and start it with an empty
    /// pool and zeroed counters.
    fn holding(opts: &StoreOptions, insert: impl FnOnce(&Self) -> Result<DocId>) -> Result<Self> {
        let store = Self::create(opts)?;
        insert(&store)?;
        store.clear_buffer_pool()?;
        store.shared.disk.reset_stats();
        store.reset_io_stats();
        Ok(store)
    }

    /// Assemble the shared state and publish the view of an empty store
    /// (epoch 1) — all `create` needs; `open` reads its documents back
    /// through the assembled store and publishes again. `names` says where
    /// the paged names of `tags` lie, as `wal`'s checkpoint record does.
    fn assemble(
        (tags, names): (Dictionary, NamePages),
        next_doc: DocId,
        free: BTreeSet<u32>,
        wal: Option<Wal>,
        opts: &StoreOptions,
        disk: SharedDisk,
        recovery: Option<RecoveryInfo>,
    ) -> Result<DocumentStore> {
        let doc_root_tag = tags.intern(DOC_ROOT_TAG);
        let pool = BufferPool::with_shared(disk.clone(), opts.pool_pages)?;
        let proj = Arc::new(Projection::empty(1, doc_root_tag, 0));
        Ok(DocumentStore {
            shared: Arc::new(StoreShared {
                tags,
                names: RwLock::new(names),
                doc_root_tag,
                current: RwLock::new(proj),
                writer: Mutex::new(WriterState {
                    next_doc,
                    free,
                    removed: Vec::new(),
                    prev: None,
                }),
                wal: wal.map(Mutex::new),
                pool: Mutex::new(pool),
                disk,
                recovery,
            }),
            pinned: None,
        })
    }

    /// Create an empty store.
    pub fn create(opts: &StoreOptions) -> Result<Self> {
        let disk = if opts.on_disk {
            match &opts.path {
                Some(p) => DiskManager::create_at(p)?,
                None => DiskManager::temp_file()?,
            }
        } else {
            DiskManager::in_memory()
        };
        let disk = SharedDisk::new(disk);
        let tags = Dictionary::new();
        tags.intern(DOC_ROOT_TAG);
        let meta = StoreMeta {
            docs: Vec::new(),
            next_doc: 1,
            runs: Vec::new(),
            lens: Vec::new(),
        };
        let wal = if opts.durable {
            let file = if opts.on_disk {
                opts.path.as_deref().map(wal_path_for)
            } else {
                None
            };
            Some(Wal::create(
                file.as_deref(),
                disk.clone(),
                encode_meta(&meta),
            )?)
        } else {
            None
        };
        let dict = (tags, NamePages::default());
        Self::assemble(dict, meta.next_doc, BTreeSet::new(), wal, opts, disk, None)
    }

    /// `(doc_id, stored node count)` of every document, insertion order,
    /// as seen by this handle's projection.
    pub fn documents(&self) -> Vec<(DocId, u32)> {
        self.proj()
            .docs
            .iter()
            .map(|d| (d.meta.doc_id, d.meta.node_count))
            .collect()
    }

    /// Log activity counters, if the store is durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.shared.wal().map(|w| w.stats())
    }

    /// Whether the store write-ahead-logs its mutations.
    pub fn durable(&self) -> bool {
        self.shared.wal.is_some()
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

    /// Pages that hold names — tags and values, each once — on the
    /// store's name runs; the rest of the file is node runs and freed
    /// pages.
    pub fn name_pages(&self) -> u32 {
        self.shared.names().runs.iter().map(|r| r.pages).sum()
    }

    /// Store size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.total_pages() as u64 * PAGE_SIZE as u64
    }

    /// The unified symbol dictionary (tags *and* content values).
    /// Interning is concurrent (`&self`), so query layers can intern
    /// constructed tags and computed values directly.
    pub fn dict(&self) -> &Dictionary {
        &self.shared.tags
    }

    /// Intern a string (tag or value) into the store dictionary.
    pub fn intern(&self, name: &str) -> Sym {
        self.shared.tags.intern(name)
    }

    /// A zero-copy handle on the columnar label region. The snapshot
    /// stays valid (and unchanged) even if the store mutates afterwards:
    /// a commit rebuilds a region in place only when nobody holds it, and
    /// copies the labels into a new one otherwise.
    pub fn columns(&self) -> Arc<NodeColumns> {
        Arc::clone(&self.proj().columns)
    }

    /// The content symbol of `id`, from the columns — no page access.
    pub fn content_sym(&self, id: NodeId) -> Option<Sym> {
        self.proj().columns.content_sym(id).map(Sym)
    }

    /// Id of an element tag name, if present in the store.
    pub fn tag_id(&self, name: &str) -> Option<TagId> {
        self.shared.tags.get(name)
    }

    /// Name of a tag id (a clone of the interned string).
    pub fn tag_name(&self, id: TagId) -> Arc<str> {
        self.shared.tags.resolve(id)
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

    // ---- record access (goes through the buffer pool) ------------------

    /// Fetch the full record of `id` against one pinned projection.
    fn record_in(&self, proj: &Projection, id: NodeId) -> Result<NodeRecord> {
        proj.check(id)?;
        if id.0 == 0 {
            return Ok(NodeRecord {
                tag: self.shared.doc_root_tag,
                start: 0,
                end: proj.root_end,
                sym: NO_SYM,
                level: 0,
                kind: NodeKind::Element,
                content: ContentPtr::NULL,
            });
        }
        let (k, local) = proj.locate(id);
        let doc = &proj.docs[k];
        let at = node::layout(doc.pairs.len(), 0)[0] + 2 * local.0 as usize;
        let page = doc.meta.node_base + (at / PAGE_DATA_SIZE) as u32;
        let slot = at % PAGE_DATA_SIZE;
        let sh = &self.shared;
        let index = sh.with_page(PageId(page), |p| [p[slot], p[slot + 1]])?;
        let pair = doc.pairs.get(usize::from(u16::from_le_bytes(index)));
        let &(tag, kind) = pair.ok_or(StoreError::CorruptContent { page })?;
        let entry = proj.columns.entry(id);
        Ok(NodeRecord {
            tag,
            start: entry.start,
            end: entry.end,
            sym: proj.columns.content[id.0 as usize],
            level: entry.level,
            kind,
            content: self.shared.names().loc(proj.columns.content_sym(id)),
        })
    }

    /// Fetch the full record of `id` (one node-page access, for its table
    /// index; the synthetic root costs none): tag and kind from its
    /// document's table, the rest from the columns and where its content
    /// symbol's name lies.
    /// Queries read columns and value locations instead; the matcher's
    /// scan baseline pays this read on purpose.
    pub fn record(&self, id: NodeId) -> Result<NodeRecord> {
        self.record_in(&self.proj(), id)
    }

    /// The index-style entry of `id`, from the label columns — no page
    /// access.
    pub fn entry(&self, id: NodeId) -> Result<NodeEntry> {
        let proj = self.proj();
        proj.check(id)?;
        Ok(proj.columns.entry(id))
    }

    /// Parent node id (None for the root), from the label columns — no
    /// page access.
    pub fn parent(&self, id: NodeId) -> Result<Option<NodeId>> {
        let proj = self.proj();
        proj.check(id)?;
        Ok(proj.columns.parent_id(id))
    }

    /// All child node ids of `id` (elements, attributes, and text nodes),
    /// in document order — from the label columns, no page access.
    pub fn children(&self, id: NodeId) -> Result<Vec<NodeId>> {
        let proj = self.proj();
        proj.check(id)?;
        Ok(proj.columns.child_ids(id).collect())
    }

    /// All node ids in the subtree of `id`, `id` included, in document
    /// order — one contiguous id range of the label columns.
    pub fn subtree(&self, id: NodeId) -> Result<Vec<NodeId>> {
        let proj = self.proj();
        proj.check(id)?;
        let below = proj.columns.descendant_ids(id).map(NodeId);
        Ok(std::iter::once(id).chain(below).collect())
    }

    // ---- statistics ----------------------------------------------------

    /// Current I/O counters.
    pub fn io_stats(&self) -> IoStats {
        IoStats {
            buffer: self.shared.pool().stats(),
            disk: self.shared.disk.stats(),
        }
    }

    /// Zero the buffer-pool counters.
    pub fn reset_io_stats(&self) {
        self.shared.pool().reset_stats();
    }

    /// Empty the buffer pool so the next operation starts cold. Every
    /// frame equals its page on disk, so this only drops frames; it
    /// cannot fail.
    pub fn clear_buffer_pool(&self) -> Result<()> {
        self.shared.pool().clear();
        Ok(())
    }

    /// Buffer pool capacity in pages: the cap on its frames.
    pub fn pool_capacity(&self) -> usize {
        self.shared.pool().capacity()
    }

    /// Frames the buffer pool has allocated so far, one page each. The
    /// pool allocates a frame on first fault and keeps it, so this is
    /// the most pages it has held at once, up to its capacity.
    pub fn pool_resident_pages(&self) -> usize {
        self.shared.pool().resident()
    }

    // ---- fault injection ----------------------------------------------

    /// Install a deterministic fault schedule on the underlying disk (or
    /// remove it with `None`). Loading always happens fault-free — this
    /// is called afterwards, so schedules corrupt query-time page
    /// traffic, not the initial layout. Cached pages are dropped so the
    /// schedule applies to every subsequent page touch.
    pub fn inject_faults(&self, config: Option<FaultConfig>) -> Result<()> {
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
    /// fails with [`crate::StoreError::SimulatedCrash`] until the store is
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

/// Fixtures shared by this module's tests and its child modules' tests.
#[cfg(test)]
mod test_support {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(super) const SAMPLE: &str = r#"<bib>
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

    pub(super) fn store() -> DocumentStore {
        DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    /// Unique page/log paths in the system temp dir for reopen tests.
    pub(super) fn temp_paths(tag: &str) -> (PathBuf, PathBuf) {
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

    pub(super) fn durable_opts(page: &Path) -> StoreOptions {
        StoreOptions {
            pool_pages: 64,
            ..StoreOptions::in_memory()
        }
        .with_path(page)
        .with_durable()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{store, SAMPLE};
    use super::*;
    use crate::error::StoreError;

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
    fn io_stats_count_page_traffic() {
        let s = store();
        s.reset_io_stats();
        let title = s.tag_id("title").unwrap();
        let t = s.nodes_with_tag(title)[0];
        // Index access alone: no page requests.
        assert_eq!(s.io_stats().page_requests(), 0);
        let _ = s.content(t.id).unwrap();
        // The name page alone: the value's location is not on a page.
        assert_eq!(s.io_stats().page_requests(), 1);
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
    fn repeat_fetches_reach_the_pool() {
        let s = store();
        s.reset_io_stats();
        let _ = s.record(NodeId(1)).unwrap();
        let _ = s.record(NodeId(1)).unwrap();
        // Every record fetch is a page request: nothing sits in front
        // of the buffer pool.
        assert_eq!(s.io_stats().page_requests(), 2);
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
    fn poisoned_pool_lock_recovers() {
        let s = store();
        let title = s.tag_id("title").unwrap();
        let t = s.nodes_with_tag(title)[0];
        let before = s.content(t.id).unwrap();
        // Panic while holding the pool lock, poisoning the mutex.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = s.shared.pool.lock().unwrap();
            panic!("reader dies while holding the pool lock");
        }));
        assert!(result.is_err());
        assert!(
            s.shared.pool.lock().is_err(),
            "pool must actually be poisoned"
        );
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
    fn empty_store_has_only_doc_root() {
        let s = DocumentStore::create(&StoreOptions::in_memory()).unwrap();
        assert_eq!(s.node_count(), 1);
        assert_eq!(s.root().end, 1);
        assert!(s.documents().is_empty());
        assert!(s.children(NodeId(0)).unwrap().is_empty());
        assert_eq!(&*s.tag_name(s.record(NodeId(0)).unwrap().tag), DOC_ROOT_TAG);
    }
}
