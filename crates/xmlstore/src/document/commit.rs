//! The write side: one transaction shape for every edit.
//!
//! [`DocumentStore::commit`] is the only code that allocates page runs,
//! encodes the commit's metadata delta, writes pages, logs the commit,
//! publishes a projection, and — on error — gives the runs back.
//! `insert_xml`, `replace_xml`, `insert_document`, `replace_document` and
//! `delete_document` are [`Edit`]s handed to it, the added document's
//! rows already built by the loader; the commit encodes its node run
//! from those rows, and packs the names no page holds yet — the
//! dictionary's suffix past the paged names — into a fresh run of name
//! pages. Every commit writes its pages to the page file itself and
//! syncs it before the commit record is written.
//!
//! What a commit does is sized by the edit: it logs the name run it
//! appended with its names' lengths, and the one or two document-table
//! entries that changed, and
//! [`Projection::edited`] rebuilds the projection before last in place
//! when nobody holds it, copying the rows from the earlier of this and
//! the previous edit's cut on; when a reader holds it, all the labels.
//! Every kept document is shared with the projection before, and a
//! removed one's pages go free once no projection holds it.

use super::loader::{build_local, load_local, PageBuf};
use super::meta::{encode_delta, encode_meta, DocMeta, MetaDelta, StoreMeta};
use super::projection::{reclaim, Doc, Projection};
use super::{DocId, DocumentStore};
use crate::error::{Result, StoreError};
use crate::heap::NameRun;
use crate::node::DocColumns;
use crate::page::{self, PageId};
use crate::wal::WalRecord;
use std::collections::BTreeSet;
use std::sync::{Arc, MutexGuard, Weak};

/// Everything only the (single) writer touches, behind the commit lock:
/// the document counter, the page allocator's free list, the documents
/// removed but maybe still held, and the predecessor of the published
/// projection. The document table is the published projection's, and
/// the paged names are the store's `NamePages`, which a commit extends
/// only once the record naming their run is durable: symbols interned
/// by a failed commit, a query or a writer still loading ride with the
/// next commit that lands.
pub(super) struct WriterState {
    /// The id the next added document gets.
    pub next_doc: DocId,
    /// Free page ids, derived from the metadata (never persisted).
    pub free: BTreeSet<u32>,
    /// Each document a commit removed, with its node run, until no
    /// projection holds it: the next commit's [`reclaim`] then frees
    /// the run.
    pub removed: Vec<(Weak<Doc>, DocMeta)>,
    /// The projection the published one replaced. Nothing but this slot
    /// and its readers holds it; the next commit takes it and, when no
    /// reader does, rebuilds its labels into the next projection.
    pub prev: Option<Arc<Projection>>,
}

/// One store transaction: take `remove` out of the document table, put
/// `add` in, both at once (a replace), or neither (only page the names
/// no page holds). `add` is built before the commit lock is taken —
/// interning is concurrent, so writers serialize on the page/WAL work.
struct Edit {
    remove: Option<DocId>,
    add: Option<DocColumns>,
}

/// A contiguous page run handed out by the allocator.
struct Run {
    base: u32,
    len: u32,
}

/// Return a run's pages straight to the free list (rollback of pages no
/// projection ever referenced).
fn release_run(w: &mut WriterState, run: &Run) {
    w.free.extend(run.base..run.base + run.len);
}

impl DocumentStore {
    pub(super) fn writer(&self) -> MutexGuard<'_, WriterState> {
        // Commit state is only mutated under this lock and every commit
        // path restores invariants before unlocking; a poisoning panic
        // mid-commit is rolled back by recovery, not by the lock.
        self.shared.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    // ---- mutation ------------------------------------------------------

    /// Insert a parsed document as one WAL transaction, returning its id.
    /// On `Ok` the commit record is durable (durable stores) and the
    /// document is visible; on `Err` nothing changed.
    pub fn insert_document(&self, doc: &xmlparse::Document) -> Result<DocId> {
        self.commit(Edit {
            remove: None,
            add: Some(build_local(doc, &self.shared.tags)?),
        })
    }

    /// Insert an XML document, loaded straight from the parser's events
    /// (no DOM is built). A syntax error anywhere in `xml` wins over a
    /// store error earlier in it; either way nothing changed.
    pub fn insert_xml(&self, xml: &str) -> Result<DocId> {
        self.commit(Edit {
            remove: None,
            add: Some(load_local(xml, &self.shared.tags)?),
        })
    }

    /// Delete document `doc` as one WAL transaction. Its pages return to
    /// the free list at the first commit after the last projection
    /// holding the document (a snapshot that saw it, an in-flight read)
    /// drops; a reused page is rewritten whole, so freed content can
    /// never leak into a later document.
    pub fn delete_document(&self, doc: DocId) -> Result<()> {
        self.commit(Edit {
            remove: Some(doc),
            add: None,
        })
        .map(drop)
    }

    /// Replace document `doc` with `new_doc` as ONE WAL transaction
    /// (atomic swap: a crash either keeps the old document or installs
    /// the new one, never neither), returning the new document's id.
    pub fn replace_document(&self, doc: DocId, new_doc: &xmlparse::Document) -> Result<DocId> {
        self.commit(Edit {
            remove: Some(doc),
            add: Some(build_local(new_doc, &self.shared.tags)?),
        })
    }

    /// [`replace_document`](Self::replace_document) with an XML
    /// document, loaded as [`insert_xml`](Self::insert_xml) loads it.
    pub fn replace_xml(&self, doc: DocId, xml: &str) -> Result<DocId> {
        self.commit(Edit {
            remove: Some(doc),
            add: Some(load_local(xml, &self.shared.tags)?),
        })
    }

    /// Run `edit` as one transaction. Returns the id assigned to
    /// `edit.add` (the next unassigned id when nothing is added). On
    /// `Ok` the commit record is durable and the new projection, if the
    /// edit changed a document, published; on `Err` the document table,
    /// the epoch and the free list are as before.
    fn commit(&self, edit: Edit) -> Result<DocId> {
        if self.shared.disk.crashed() {
            return Err(StoreError::SimulatedCrash);
        }
        let sh = &self.shared;
        let rows = edit.add;
        // The added document's node run, encoded from its rows.
        let node_pages = rows.as_ref().map_or_else(Vec::new, DocColumns::encode);
        let mut w = self.writer();
        // Only a commit publishes, and it holds the writer lock.
        let current = sh.current();
        let at = edit
            .remove
            .map(|doc| {
                let found = current.docs.iter().position(|d| d.meta.doc_id == doc);
                found.ok_or(StoreError::NoSuchDocument { doc })
            })
            .transpose()?;
        // The names no page holds yet, in symbol order.
        let paged = sh.names().locs.len();
        let unpaged = sh.tags.names_from(paged);
        let name_pages = page::images(unpaged.iter().map(|n| n.as_bytes()));
        let lens: Vec<u32> = unpaged.iter().map(|n| n.len() as u32).collect();
        drop(unpaged);
        if at.is_none() && rows.is_none() && lens.is_empty() {
            return Ok(w.next_doc);
        }
        let spare = reclaim(&mut w);
        // A removed document's pages stay live until the commit lands,
        // so its replacement allocates elsewhere (free pages from
        // *earlier* deletes are fair game). An edit that adds nothing
        // asks for empty runs, which touch neither list nor file.
        let name_run = self.alloc_run(&mut w, name_pages.len() as u32)?;
        let node_run = self
            .alloc_run(&mut w, node_pages.len() as u32)
            .inspect_err(|_| release_run(&mut w, &name_run))?;
        let doc_id = w.next_doc;
        let added = rows.as_ref().map(|r| DocMeta {
            doc_id,
            node_base: node_run.base,
            node_pages: node_run.len,
            node_count: r.index.len() as u32,
        });
        let next_doc = doc_id + u64::from(added.is_some());
        // The payload exists only where there is a log to carry it.
        let delta = sh.wal.is_some().then(|| {
            encode_delta(&MetaDelta {
                next_doc,
                dict_from: paged as u32,
                run: (!lens.is_empty()).then_some(NameRun {
                    base: name_run.base,
                    pages: name_run.len,
                    names: lens.len() as u32,
                }),
                lens: lens.clone(),
                removed: edit.remove,
                added,
            })
        });

        let pages: Vec<(PageId, &PageBuf)> = [(&name_run, &name_pages), (&node_run, &node_pages)]
            .into_iter()
            .flat_map(|(run, images)| (run.base..).map(PageId).zip(images))
            .collect();
        let written = self.write_pages(&pages);
        if let Err(e) = written.and_then(|()| self.log_commit(delta)) {
            // The runs were never visible to any projection, so they
            // go straight back to the free list. A failed
            // record write leaves nothing of the record in the log.
            release_run(&mut w, &name_run);
            release_run(&mut w, &node_run);
            return Err(e);
        }
        // Before any publish: the new projection's rows name them.
        let mut names = sh.names.write().unwrap_or_else(|e| e.into_inner());
        names.push(name_run.base, &lens);
        drop(names);
        w.next_doc = next_doc;
        // An edit of no document (the checkpoint's) publishes nothing.
        if at.is_some() || added.is_some() {
            let next = current.edited(spare, at, added.zip(rows));
            if let Some(k) = at {
                let doc = &current.docs[k];
                w.removed.push((Arc::downgrade(doc), doc.meta));
            }
            self.install(&mut w, next);
        }
        Ok(doc_id)
    }

    /// Truncate the log to a fresh checkpoint carrying the one full
    /// metadata snapshot: the document table and where the names lie.
    /// Names no page holds yet (interned by a query, say) are paged
    /// first by a commit of no document, as the next commit would have
    /// paged them. The checkpoint itself syncs no page: every page a
    /// durable commit made live was synced before its record. Without a
    /// log there is nothing to do.
    pub fn checkpoint(&self) -> Result<()> {
        if self.shared.disk.crashed() {
            return Err(StoreError::SimulatedCrash);
        }
        if self.shared.wal.is_none() {
            return Ok(());
        }
        self.commit(Edit {
            remove: None,
            add: None,
        })?;
        let w = self.writer();
        if let Some(mut wal) = self.shared.wal() {
            let names = self.shared.names();
            let meta = StoreMeta {
                docs: self.shared.current().docs.iter().map(|d| d.meta).collect(),
                next_doc: w.next_doc,
                runs: names.runs.clone(),
                lens: names.locs.iter().map(|l| l.len).collect(),
            };
            drop(names);
            wal.checkpoint(encode_meta(&meta))?;
        }
        Ok(())
    }

    /// Write an edit's pages to the page file, drop any cached frame of
    /// them, and, on a durable store, sync the page file before the
    /// commit record is written. Every page is free until that record
    /// lands, and no reader asks for one before the commit publishes
    /// it, so nothing here is ever undone or logged. A delete with no
    /// name to page writes and syncs nothing.
    fn write_pages(&self, pages: &[(PageId, &PageBuf)]) -> Result<()> {
        if pages.is_empty() {
            return Ok(());
        }
        let mut pool = self.shared.pool();
        for &(pid, _) in pages {
            pool.discard(pid);
        }
        drop(pool);
        let mut d = self.shared.disk.lock();
        for (pid, page) in pages {
            d.write_page(*pid, page)?;
        }
        if self.shared.wal.is_some() {
            d.sync()?;
        }
        Ok(())
    }

    /// Write the `Commit` carrying `delta`, retrying a bounded number of
    /// times: injected log-write errors are transient.
    fn log_commit(&self, delta: Option<Vec<u8>>) -> Result<()> {
        const MAX_RETRIES: u32 = 3;
        let (Some(mut wal), Some(meta)) = (self.shared.wal(), delta) else {
            return Ok(());
        };
        let record = WalRecord::Commit { meta };
        let mut attempts = 0;
        loop {
            match wal.write(&record) {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempts < MAX_RETRIES => attempts += 1,
                Err(e) => return Err(e),
            }
        }
    }

    // ---- page allocation -----------------------------------------------

    /// Allocate a run of `n` consecutive pages: the lowest consecutive
    /// run in the free list if one exists, else fresh pages at the end
    /// of the file, which the file grows by and nothing writes until
    /// the commit does.
    fn alloc_run(&self, w: &mut WriterState, n: u32) -> Result<Run> {
        if n == 0 {
            return Ok(Run { base: 0, len: 0 });
        }
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
            return Ok(Run { base, len: n });
        }
        let PageId(base) = self.shared.disk.lock().allocate(n)?;
        Ok(Run { base, len: n })
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{store, SAMPLE};
    use super::super::StoreOptions;
    use super::*;
    use crate::node::NodeId;

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
        // A same-shaped insert of paged names reuses the freed node run
        // and writes no name page: the file does not grow.
        s.insert_xml("<a><b>one</b></a>").unwrap();
        assert_eq!(s.total_pages(), pages_before);
        let entries = s.nodes_with_tag(b);
        assert_eq!(entries.len(), 2);
        assert_eq!(s.content(entries[1].id).unwrap().as_deref(), Some("one"));
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
    fn durable_in_memory_store_logs_without_a_file() {
        // No path → the log lives in memory; the full logging path runs
        // (useful for measuring WAL overhead) but nothing is written out.
        let s = DocumentStore::create(&StoreOptions::in_memory().with_durable()).unwrap();
        s.insert_xml(SAMPLE).unwrap();
        let stats = s.wal_stats().unwrap();
        assert_eq!(stats.records, 2); // checkpoint + commit
        assert!(stats.flushes >= 1);
    }

    fn bib(articles: usize, salt: &str) -> xmlparse::Document {
        let mut xml = String::from("<bib>");
        for i in 0..articles {
            xml.push_str(&format!(
                "<article><title>{salt}{i}</title><author>A{}</author></article>",
                i % 7
            ));
        }
        xml.push_str("</bib>");
        xmlparse::parse_document(&xml).unwrap()
    }

    #[test]
    fn deletes_drop_the_projections_nobody_holds() {
        // A delete allocates no pages; it still reclaims, so with no
        // reader only the current projection and its predecessor live,
        // and only the last delete's document, which the predecessor
        // holds, keeps its node run; the names stay paged.
        let s = DocumentStore::create(&StoreOptions::in_memory()).unwrap();
        let docs: Vec<_> = (0..5)
            .map(|i| s.insert_document(&bib(2, &i.to_string())).unwrap())
            .collect();
        let pages = s.total_pages();
        for doc in docs {
            s.delete_document(doc).unwrap();
        }
        let names = s.name_pages();
        let w = s.writer();
        assert_eq!(w.prev.as_ref().map(Arc::strong_count), Some(1));
        let [(_, last)] = w.removed[..] else {
            panic!("{} documents wait for their pages", w.removed.len());
        };
        assert_eq!(w.free.len() as u32 + names + last.node_pages, pages);
    }

    #[test]
    fn failed_commit_of_any_edit_changes_nothing_and_releases_its_run() {
        // Every log write fails (the page range matches no page, so page
        // writes go through): the commit's log write exhausts its retries.
        let log_down: crate::FaultConfig = "seed=1,write_err=1.0,pages=4294967295-4294967295"
            .parse()
            .unwrap();
        type EditFn = fn(&DocumentStore, DocId) -> Result<()>;
        let edits: [(&str, bool, EditFn); 3] = [
            ("insert", true, |s, _| {
                s.insert_document(&bib(3, "n")).map(drop)
            }),
            ("delete", false, |s, d| s.delete_document(d)),
            ("replace", true, |s, d| {
                s.replace_document(d, &bib(3, "n")).map(drop)
            }),
        ];
        for (name, adds, edit) in edits {
            let s = DocumentStore::create(&StoreOptions::in_memory().with_durable()).unwrap();
            let d = s.insert_document(&bib(3, "o")).unwrap();
            let (docs, epoch, pages) = (s.documents(), s.epoch(), s.total_pages());
            s.inject_faults(Some(log_down.clone())).unwrap();
            let err = edit(&s, d).unwrap_err();
            assert!(err.is_transient(), "{name}: {err}");
            assert_eq!(s.documents(), docs, "{name}");
            assert_eq!(s.epoch(), epoch, "{name}");
            s.inject_faults(None).unwrap();
            // A failed edit that added a document grew the file by its
            // run; one that only removed allocated nothing.
            let after_failure = s.total_pages();
            assert_eq!(after_failure > pages, adds, "{name}");
            // The released run is back on the free list: the next
            // same-shaped insert lands on it instead of growing the file
            // (after a failed delete there is no such run, so it grows).
            s.insert_document(&bib(3, "n")).unwrap();
            assert_eq!(s.total_pages() == after_failure, adds, "{name}");
            assert_eq!(s.documents().len(), 2, "{name}");
        }
    }

    #[test]
    fn reuse_through_a_warm_pool_reads_the_new_bytes() {
        // Document A's pages are cached when A is deleted and B is
        // inserted over its node run: the commit drops the cached frames, so
        // B reads back its own bytes, through the pool and, after the
        // pool is emptied, from the page file.
        let text = |s: &DocumentStore| -> Vec<String> {
            (0..s.node_count())
                .filter_map(|id| s.content(NodeId(id)).unwrap())
                .collect()
        };
        let pools = [StoreOptions::default().pool_pages, 2];
        for pool in pools {
            let opts = StoreOptions::in_memory()
                .with_pool_pages(pool)
                .with_durable();
            let s = DocumentStore::create(&opts).unwrap();
            let a = s.insert_document(&bib(400, "x")).unwrap();
            let want_a = text(&s);
            assert!(want_a.iter().any(|t| t == "x399"), "pool {pool}");
            s.delete_document(a).unwrap();
            let (pages, writes) = (s.total_pages(), s.io_stats().disk.writes);
            s.insert_document(&bib(400, "y")).unwrap();
            // B's new names land on A's node run, whose rest is too
            // short for B's: the file grows by less than B wrote.
            let grown = s.total_pages() - pages;
            let written = s.io_stats().disk.writes - writes;
            assert_eq!((grown, written), (2, 3), "pool {pool}: B reuses A's run");
            let want_b: Vec<String> = want_a.iter().map(|t| t.replace('x', "y")).collect();
            assert_eq!(text(&s), want_b, "pool {pool}: warm");
            s.clear_buffer_pool().unwrap();
            assert_eq!(text(&s), want_b, "pool {pool}: cold");
        }
    }

    #[test]
    fn a_commit_logs_the_edit_not_the_store() {
        // The same document 64 times: the first commit carries its names,
        // every later one finds them durable and logs the same bytes
        // however many documents, nodes and symbols the store holds.
        let s = DocumentStore::create(&StoreOptions::in_memory().with_durable()).unwrap();
        let doc = bib(100, "t");
        let mut per_commit = Vec::new();
        for _ in 0..64 {
            let before = s.wal_stats().unwrap();
            s.insert_document(&doc).unwrap();
            let after = s.wal_stats().unwrap();
            assert_eq!(after.flushes - before.flushes, 1);
            per_commit.push(after.appended_bytes - before.appended_bytes);
        }
        assert!(per_commit[0] > per_commit[1], "{per_commit:?}");
        assert!(
            per_commit[1..].iter().all(|&b| b == per_commit[1]),
            "{per_commit:?}"
        );
        // Commit{counter, no name run, one document entry}: 62 bytes;
        // 74 while a commit logged its names' bytes (an empty list, 4
        // bytes) and a document entry its heap run (8 bytes), 78 while a
        // document entry also held its label span.
        assert_eq!(per_commit[1], 62);
        assert_eq!(s.documents().len(), 64);
    }

    #[test]
    fn twelve_edit_script_pins_the_log() {
        // Per edit: (log records, log bytes appended, log flushes, page
        // writes that reached the disk). Records, flushes and page writes
        // are from the commit before the three mutators became one
        // `commit` and have not moved since; a drifted record sequence,
        // an extra flush or a changed page-write strategy shows up here
        // as the edit that moved. The bytes column was re-pinned when
        // `Commit` began to carry a metadata delta instead of the full
        // snapshot: a delete became 70 bytes whatever the store holds,
        // and an insert is its page images plus the names it interned.
        // Records and bytes were re-pinned once more when transactions
        // stopped logging a `Begin` (one record and 25 bytes per edit);
        // the flushes and page writes did not move. The four edits that
        // reuse pages were re-pinned when every commit began to write
        // and sync its own pages: they log their `Commit` alone instead
        // of a page image per page, and their page writes, which waited
        // in the pool for an eviction or a checkpoint, are their page
        // counts. The bytes were re-pinned again when transaction ids
        // left the log: 16 bytes fewer per commit, 8 in the record and
        // 8 in its delta. The page writes of the three 400-article edits
        // went from 6 to 4 when node records shrank from 32 to 16 bytes:
        // their 1 201 rows fit three node pages instead of five; and from
        // 4 to 3 when they shrank to 12 bytes: two node pages. Every edit
        // that adds a document logs 4 bytes fewer since a document entry
        // no longer holds its label span. The bytes were re-pinned when
        // names moved onto name pages: a commit logs the run it appended
        // and a varint length per new name, not the names (3 188 → 482
        // bytes for 400 new titles), a document entry names no heap run
        // (8 bytes fewer) and a commit without new names logs no empty
        // name list (4 bytes fewer). The page writes did not move: each
        // insert's new titles fill one name page where its heap was one.
        const PINNED: [(u64, u64, u64, u64); 12] = [
            (1, 89, 1, 2),  // insert a, fresh runs
            (1, 81, 1, 2),  // insert b, fresh
            (1, 482, 1, 3), // insert c (400 articles), fresh
            (1, 50, 1, 0),  // delete a: no pages
            (1, 81, 1, 2),  // insert d, its node run over a's
            (1, 89, 1, 2),  // replace b → e, fresh
            (1, 50, 1, 0),  // delete d under a pinned snapshot
            (1, 81, 1, 2),  // insert f over b's node run (d's is pinned)
            (1, 486, 1, 3), // replace c → g, part reused
            (1, 50, 1, 0),  // delete e
            (1, 50, 1, 0),  // delete f
            (1, 478, 1, 3), // insert h over c's node run
        ];
        let s = DocumentStore::create(&StoreOptions::in_memory().with_durable()).unwrap();
        let mut seen = Vec::new();
        let mut last = (s.wal_stats().unwrap(), 0);
        let mut step = |s: &DocumentStore| {
            let now = (s.wal_stats().unwrap(), s.io_stats().disk.writes);
            seen.push((
                now.0.records - last.0.records,
                now.0.appended_bytes - last.0.appended_bytes,
                now.0.flushes - last.0.flushes,
                now.1 - last.1,
            ));
            last = now;
        };
        let a = s.insert_document(&bib(3, "a")).unwrap();
        step(&s);
        let b = s.insert_document(&bib(3, "b")).unwrap();
        step(&s);
        let c = s.insert_document(&bib(400, "c")).unwrap();
        step(&s);
        s.delete_document(a).unwrap();
        step(&s);
        let d = s.insert_document(&bib(3, "d")).unwrap();
        step(&s);
        let e = s.replace_document(b, &bib(3, "e")).unwrap();
        step(&s);
        let pin = s.snapshot();
        s.delete_document(d).unwrap();
        step(&s);
        let f = s.insert_document(&bib(3, "f")).unwrap();
        step(&s);
        drop(pin);
        s.replace_document(c, &bib(400, "g")).unwrap();
        step(&s);
        s.delete_document(e).unwrap();
        step(&s);
        s.delete_document(f).unwrap();
        step(&s);
        s.insert_document(&bib(400, "h")).unwrap();
        step(&s);
        assert_eq!(seen, PINNED);
        // 17 with 32-byte records and 13 with 16-byte ones: each of the
        // two 400-article runs the file holds is two node pages shorter,
        // then one more (11). 13 since names live on name pages: the
        // eight inserts' new names keep a page each, which no delete
        // frees, beside five node pages.
        assert_eq!(s.name_pages(), 8);
        assert_eq!(s.total_pages(), 13);
        assert_eq!(s.documents().len(), 2);
    }
}
