//! The write side: one transaction shape for every edit.
//!
//! [`DocumentStore::commit`] is the only code that allocates page runs,
//! encodes the commit's metadata delta, writes pages, logs the commit,
//! publishes a projection, and — on error — gives the runs back.
//! `insert_document`, `delete_document` and `replace_document` are
//! [`Edit`]s handed to it. Every commit writes its pages to the page
//! file itself and syncs it before the commit record is written.
//!
//! What a commit does is sized by the edit: it logs the dictionary
//! suffix and the one or two document-table entries that changed, and
//! [`Projection::edited`] rebuilds the projection before last in place
//! when nobody holds it, copying the rows from the earlier of this and
//! the previous edit's cut on; when a reader holds it, all the labels.

use super::loader::{build_local, PageBuf};
use super::meta::{encode_delta, encode_meta, DocMeta, MetaDelta, StoreMeta};
use super::projection::{limbo_runs, reclaim_limbo, DocRows, LimboRun, Projection};
use super::{DocId, DocumentStore};
use crate::error::{Result, StoreError};
use crate::page::PageId;
use crate::wal::WalRecord;
use std::collections::BTreeSet;
use std::sync::{Arc, MutexGuard};

/// Everything only the (single) writer touches, behind the commit lock:
/// the authoritative document table and counter, how much of the
/// dictionary the log already holds, and the page allocator's free/limbo
/// lists.
pub(super) struct WriterState {
    pub meta: StoreMeta,
    /// Symbols `0..dict_logged` are durable (in the checkpoint or in a
    /// durable commit record); the next commit logs the names from here
    /// on. It advances only once a record carrying them is durable, so
    /// symbols interned by a failed commit, by a query, or by another
    /// writer still building its document ride with the next commit
    /// that lands.
    pub dict_logged: usize,
    /// Free page ids, derived from the metadata (never persisted).
    pub free: BTreeSet<u32>,
    /// Freed runs awaiting proof that no live projection references
    /// them (see [`LimboRun`]).
    pub limbo: Vec<LimboRun>,
    /// Every projection published and possibly still referenced,
    /// oldest first; the last entry is the current one. An entry with a
    /// strong count of 1 is referenced by nobody else and goes at the
    /// next commit's reclaim: a prefix entry unlocks its limbo runs, and
    /// the current one's predecessor becomes the next one.
    pub history: Vec<Arc<Projection>>,
    pub epoch: u64,
}

/// One store transaction: take `remove` out of the document table, put
/// `add` in, or both at once (a replace).
struct Edit<'a> {
    remove: Option<DocId>,
    add: Option<&'a xmlparse::Document>,
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
            add: Some(doc),
        })
    }

    /// Parse and insert an XML document.
    pub fn insert_xml(&self, xml: &str) -> Result<DocId> {
        let doc = xmlparse::parse_document(xml)?;
        self.insert_document(&doc)
    }

    /// Delete document `doc` as one WAL transaction. Its pages move to
    /// the limbo list and return to the free list once no live snapshot
    /// still references them; a reused page is rewritten whole, so freed
    /// content can never leak into a later document.
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
            add: Some(new_doc),
        })
    }

    /// Run `edit` as one transaction. Returns the id assigned to
    /// `edit.add` (the next unassigned id when nothing is added). On
    /// `Ok` the commit record is durable and the new projection is
    /// published; on `Err` the document table, the epoch and the free
    /// list are as before.
    fn commit(&self, edit: Edit<'_>) -> Result<DocId> {
        if self.shared.disk.crashed() {
            return Err(StoreError::SimulatedCrash);
        }
        // Build the document outside the commit lock — interning into
        // the dictionary is concurrent, so writers only serialize on
        // the page/WAL work below.
        let sh = &self.shared;
        let local = edit.add.map(|doc| build_local(doc, &sh.tags)).transpose()?;
        let (heap_pages, node_pages): (&[PageBuf], &[PageBuf]) = match &local {
            Some(l) => (&l.heap_pages, &l.node_pages),
            None => (&[], &[]),
        };
        let mut w = self.writer();
        let at = edit
            .remove
            .map(|doc| {
                let found = w.meta.docs.iter().position(|d| d.doc_id == doc);
                found.ok_or(StoreError::NoSuchDocument { doc })
            })
            .transpose()?;
        let spare = reclaim_limbo(&mut w);
        // A removed document's pages stay live until the commit lands,
        // so its replacement allocates elsewhere (free pages from
        // *earlier* deletes are fair game). An edit that adds nothing
        // asks for two empty runs, which touch neither list nor file.
        let heap_run = self.alloc_run(&mut w, heap_pages.len() as u32)?;
        let node_run = self
            .alloc_run(&mut w, node_pages.len() as u32)
            .inspect_err(|_| release_run(&mut w, &heap_run))?;
        let doc_id = w.meta.next_doc;
        let added = local.as_ref().map(|l| DocMeta {
            doc_id,
            heap_base: heap_run.base,
            heap_pages: heap_run.len,
            node_base: node_run.base,
            node_pages: node_run.len,
            node_count: l.records.len() as u32,
            span: l.span,
        });
        let next_doc = doc_id + u64::from(added.is_some());
        // The payload exists only where there is a log to carry it.
        let mut logged = w.dict_logged;
        let delta = sh.wal.is_some().then(|| {
            let new_names = sh.tags.names_from(w.dict_logged);
            logged += new_names.len();
            encode_delta(&MetaDelta {
                next_doc,
                dict_from: w.dict_logged as u32,
                new_names,
                removed: edit.remove,
                added,
            })
        });

        let pages: Vec<(PageId, &PageBuf)> = [(&heap_run, heap_pages), (&node_run, node_pages)]
            .into_iter()
            .flat_map(|(run, images)| (run.base..).map(PageId).zip(images))
            .collect();
        let written = self.write_pages(&pages);
        if let Err(e) = written.and_then(|()| self.log_commit(delta)) {
            // The runs were never visible to any projection, so they
            // go straight back to the free list, not limbo. A failed
            // record write leaves nothing of the record in the log.
            release_run(&mut w, &heap_run);
            release_run(&mut w, &node_run);
            return Err(e);
        }
        w.dict_logged = logged;
        w.meta.next_doc = next_doc;
        let removed = at.map(|k| w.meta.docs.remove(k));
        w.meta.docs.extend(added);
        let rows = local.as_ref().zip(added).map(|(l, meta)| DocRows {
            meta,
            records: &l.records,
        });
        let next = sh.current().edited(spare, w.epoch + 1, at, rows);
        self.install(&mut w, next);
        if let Some(removed) = removed {
            limbo_runs(&mut w, &removed);
        }
        Ok(doc_id)
    }

    /// Sync the page file, then truncate the log to a fresh checkpoint
    /// carrying the one full metadata snapshot.
    pub fn checkpoint(&self) -> Result<()> {
        if self.shared.disk.crashed() {
            return Err(StoreError::SimulatedCrash);
        }
        let mut w = self.writer();
        self.shared.disk.lock().sync()?;
        if let Some(mut wal) = self.shared.wal() {
            // The whole name table, straight from the dictionary: symbols
            // interned since the last commit (query-constructed tags and
            // values) live only in memory, and the checkpoint is about to
            // truncate the log that carries every suffix before them.
            let names = self.shared.tags.names_from(0);
            wal.checkpoint(encode_meta(&w.meta, &names))?;
            w.dict_logged = names.len();
        }
        Ok(())
    }

    /// Write an edit's pages to the page file, drop any cached frame of
    /// them, and, on a durable store, sync the page file before the
    /// commit record is written. Every page is free until that record
    /// lands, and no reader asks for one before the commit publishes
    /// it, so nothing here is ever undone or logged. A delete writes
    /// and syncs nothing.
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
    /// of the file.
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
        let base = self.shared.disk.num_pages();
        for allocated in 0..n {
            if let Err(e) = self.shared.disk.lock().allocate() {
                w.free.extend(base..base + allocated);
                return Err(e);
            }
        }
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
        // reader only the current projection and its predecessor live.
        let s = DocumentStore::create(&StoreOptions::in_memory()).unwrap();
        let docs: Vec<_> = (0..5)
            .map(|i| s.insert_document(&bib(2, &i.to_string())).unwrap())
            .collect();
        for doc in docs {
            s.delete_document(doc).unwrap();
        }
        let live = s.writer().history.len();
        assert!(live <= 2, "{live} projections live");
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
        // inserted over its run: the commit drops the cached frames, so
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
            let pages = s.total_pages();
            s.insert_document(&bib(400, "y")).unwrap();
            assert_eq!(s.total_pages(), pages, "pool {pool}: B reuses A's run");
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
        // Commit{counter, empty suffix, one document entry}.
        assert_eq!(per_commit[1], 78);
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
        // 8 in its delta.
        const PINNED: [(u64, u64, u64, u64); 12] = [
            (1, 151, 1, 2),  // insert a, fresh run
            (1, 96, 1, 2),   // insert b, fresh
            (1, 3192, 1, 6), // insert c (400 articles), fresh
            (1, 54, 1, 0),   // delete a: no pages
            (1, 96, 1, 2),   // insert d over a's run
            (1, 104, 1, 2),  // replace b → e, fresh
            (1, 54, 1, 0),   // delete d under a pinned snapshot
            (1, 96, 1, 2),   // insert f over b's run (d's is pinned)
            (1, 3176, 1, 6), // replace c → g, part reused
            (1, 54, 1, 0),   // delete e
            (1, 54, 1, 0),   // delete f
            (1, 3168, 1, 6), // insert h over c's run
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
        assert_eq!(s.total_pages(), 17);
        assert_eq!(s.documents().len(), 2);
    }
}
