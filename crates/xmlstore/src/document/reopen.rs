//! Reopen and recovery glue: run the log's analysis/redo/undo over the
//! page file, then rebuild everything the store derives from metadata
//! plus pages — dictionary, free list, per-document aux state.

use super::meta::{decode_meta, encode_meta};
use super::projection::DocAux;
use super::{wal_path_for, DocumentStore, StoreOptions};
use crate::dict::{Dictionary, NO_SYM};
use crate::error::{Result, StoreError};
use crate::heap::read_content_via;
use crate::node::{node_location, NodeId, NodeRecord, RECORD_SIZE};
use crate::page::PageId;
use crate::storage::SharedDisk;
use crate::wal::{self, Wal, WalHandle};
use std::collections::BTreeSet;
use std::sync::Arc;

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

impl DocumentStore {
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
        let mut free: BTreeSet<u32> = (0..disk.num_pages()).collect();
        for d in &meta.docs {
            for p in d.heap_base..d.heap_base + d.heap_pages {
                free.remove(&p);
            }
            for p in d.node_base..d.node_base + d.node_pages {
                free.remove(&p);
            }
        }
        let recovery = Some(RecoveryInfo {
            redone: state.redone as u64,
            undone: state.undone as u64,
            committed: state.committed as u64,
            losers: state.losers as u64,
        });
        // Rebuild the per-document aux state from the recovered pages
        // through the assembled store itself, so the page path is
        // identical to normal reads, then publish it.
        let store = Self::assemble(tags, meta, free, wal, opts, disk, recovery)?;
        let aux = store.read_aux()?;
        {
            let mut w = store.writer();
            w.aux = aux;
            store.install(&mut w);
        }
        store.clear_buffer_pool()?;
        store.shared.disk.reset_stats();
        store.reset_io_stats();
        Ok(store)
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

    /// What crash recovery did, if this store was reopened with
    /// [`open`](DocumentStore::open).
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.shared.recovery
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{durable_opts, temp_paths, SAMPLE};
    use super::*;
    use crate::storage::DiskManager;
    use crate::wal::WalRecord;

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
}
