//! Reopen and recovery glue: read the checkpoint snapshot and the
//! committed metadata deltas from the log, fold the deltas over the
//! snapshot, then rebuild everything the store derives from metadata
//! plus node pages — dictionary, free list, the first projection. No
//! heap page is read: each node record carries its content symbol, and
//! no page is written.

use super::meta::{decode_delta, decode_meta, encode_meta, DocMeta};
use super::projection::build_projection;
use super::{wal_path_for, DocumentStore, StoreOptions};
use crate::dict::{Dictionary, NO_SYM};
use crate::error::{Result, StoreError};
use crate::node::{NodeRecord, RECORDS_PER_PAGE, RECORD_SIZE};
use crate::page::PageId;
use crate::storage::{DiskManager, SharedDisk};
use crate::wal::{self, Wal};
use std::collections::BTreeSet;

/// What crash recovery did when the store was reopened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Always 0: the log holds no page image, so nothing is redone.
    /// Kept while the frozen benchmark reports it.
    pub redone: u64,
    /// Always 0: no write is ever undone. Kept while the frozen
    /// benchmark reports it.
    pub undone: u64,
    /// Committed transactions found in the log after its checkpoint.
    pub committed: u64,
    /// Always 0: a transaction without a durable `Commit` left nothing
    /// in the log. Kept while the frozen benchmark reports it.
    pub losers: u64,
}

impl DocumentStore {
    /// Reopen a durable store from its page file and log, running crash
    /// recovery first: the log's checkpoint snapshot and the committed
    /// deltas after it are read, and the deltas are folded over the
    /// snapshot in log order; one that does not fit the chain (see
    /// `StoreMeta::apply`) is `WalCorrupt`. A fresh log holding a
    /// checkpoint of the result then replaces the old one whole.
    /// Recovery writes no page, so a crash *during* it is harmless.
    pub fn open(opts: &StoreOptions) -> Result<Self> {
        let path = opts.path.as_ref().ok_or_else(|| {
            StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "DocumentStore::open requires StoreOptions.path",
            ))
        })?;
        let wal_p = wal_path_for(path);
        let state = wal::replay(&std::fs::read(&wal_p)?)?;
        let disk = SharedDisk::new(DiskManager::open_existing(path)?);
        let (mut meta, mut names) = decode_meta(&state.checkpoint)?;
        for delta in &state.commits {
            meta.apply(&mut names, decode_delta(delta)?)?;
        }
        // Every page a commit names was synced before its record, so
        // the old log tail is no longer needed.
        let wal = Some(Wal::create(
            Some(&wal_p),
            disk.clone(),
            encode_meta(&meta, &names),
        )?);

        let tags = Dictionary::from_names(&names);
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
            committed: state.commits.len() as u64,
            ..RecoveryInfo::default()
        });
        // Read the documents back from the recovered pages through the
        // assembled store itself, so the page path is identical to
        // normal reads, and publish what they add up to.
        let store = Self::assemble(tags, meta, free, wal, opts, disk, recovery)?;
        {
            let sh = &store.shared;
            let mut w = store.writer();
            let (epoch, docs) = (w.epoch + 1, &w.meta.docs);
            let rows = |d: &DocMeta| store.read_rows(d);
            let proj = build_projection(epoch, sh.doc_root_tag, docs, rows)?;
            store.install(&mut w, proj);
        }
        store.clear_buffer_pool()?;
        store.shared.disk.reset_stats();
        store.reset_io_stats();
        Ok(store)
    }

    /// One document's records, read back from its node pages alone
    /// (inserts take them from the loader instead), one request per page.
    /// A record's content symbol must be one the recovered dictionary
    /// holds, and [`NO_SYM`] exactly where its heap pointer is null;
    /// anything else is `CorruptContent` on that node page.
    pub(super) fn read_rows(&self, d: &DocMeta) -> Result<Vec<NodeRecord>> {
        let syms = self.shared.tags.len() as u32;
        let sound = |r: &NodeRecord| {
            if r.content.is_some() {
                r.sym < syms
            } else {
                r.sym == NO_SYM
            }
        };
        let mut records = Vec::with_capacity(d.node_count as usize);
        for page in d.node_base..d.node_base + d.node_pages {
            let on_page = (d.node_count as usize - records.len()).min(RECORDS_PER_PAGE);
            let from = records.len();
            self.shared.with_page(PageId(page), |p| {
                let slots = p.chunks_exact(RECORD_SIZE).take(on_page);
                records.extend(slots.map(NodeRecord::decode));
            })?;
            if !records[from..].iter().all(sound) {
                return Err(StoreError::CorruptContent { page });
            }
        }
        Ok(records)
    }

    /// What crash recovery did, if this store was reopened with
    /// [`open`](DocumentStore::open).
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.shared.recovery
    }
}

#[cfg(test)]
mod tests {
    use super::super::meta::{encode_delta, MetaDelta, StoreMeta};
    use super::super::test_support::{durable_opts, temp_paths, SAMPLE};
    use super::super::DOC_ROOT_TAG;
    use super::*;
    use crate::catalog::attr_tag_name;
    use crate::node::NodeId;
    use crate::page::{PAGE_HEADER_SIZE, PAGE_SIZE};
    use crate::wal::WalRecord;

    #[test]
    fn durable_store_reopens_with_committed_documents() {
        let (page, wal) = temp_paths("reopen");
        let opts = durable_opts(&page);
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
        assert_eq!(s.recovery_info().unwrap().committed, 2);
        let author = s.tag_id("author").unwrap();
        let authors = s.nodes_with_tag(author);
        assert_eq!(authors.len(), 4);
        assert_eq!(s.content(authors[3].id).unwrap().as_deref(), Some("Jill"));
        // Recovery writes no page: another reopen leaves the page file
        // as it found it.
        drop(s);
        let once = std::fs::read(&page).unwrap();
        drop(DocumentStore::open(&opts).unwrap());
        assert_eq!(std::fs::read(&page).unwrap(), once);
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn a_short_log_write_that_fails_does_not_hide_a_later_commit() {
        // Every log flush of the middle insert writes half its bytes and
        // then fails, as a short write followed by EIO would; page writes
        // are spared. Each failed flush must cut the log back, so the
        // next commit lands at the offset its LSN names and survives a
        // reopen.
        let (page, wal) = temp_paths("short_write");
        let opts = durable_opts(&page);
        let log_down: crate::FaultConfig = "seed=1,write_err=1.0,pages=4294967295-4294967295"
            .parse()
            .unwrap();
        let author_xml =
            |name: &str| format!("<bib><article><author>{name}</author></article></bib>");
        {
            let s = DocumentStore::create(&opts).unwrap();
            s.insert_xml(SAMPLE).unwrap();
            s.inject_faults(Some(log_down)).unwrap();
            let err = s.insert_xml(&author_xml("Lost")).unwrap_err();
            assert!(err.is_transient(), "{err}");
            s.inject_faults(None).unwrap();
            s.insert_xml(&author_xml("Kept")).unwrap();
        }
        let s = DocumentStore::open(&opts).unwrap();
        assert_eq!(s.documents().len(), 2);
        assert_eq!(s.recovery_info().unwrap().committed, 2);
        let author = s.tag_id("author").unwrap();
        let names: Vec<Option<String>> = s
            .nodes_with_tag(author)
            .iter()
            .map(|e| s.content(e.id).unwrap())
            .collect();
        assert_eq!(names.last(), Some(&Some("Kept".to_owned())));
        assert!(!names.contains(&Some("Lost".to_owned())));
        drop(s);
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
    fn a_torn_reuse_commit_recovers_the_freeing_commit() {
        // Delete a document, reinsert over its pages, and tear the
        // insert's commit off the log. The delete is durable, so its
        // pages are free in the recovered metadata, and the torn
        // insert's pages, written and synced onto them, are
        // unreachable: no read returns either payload, and the next
        // insert there reads back its own bytes.
        let (page, wal) = temp_paths("torn_reuse");
        let opts = durable_opts(&page);
        {
            let s = DocumentStore::create(&opts).unwrap();
            let d1 = s.insert_xml("<a><b>RESURRECT_ME</b></a>").unwrap();
            s.checkpoint().unwrap();
            s.delete_document(d1).unwrap();
            // Same shape: reuses d1's freed heap + node pages.
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
        assert!(
            s.documents().is_empty(),
            "the delete holds, the insert is gone"
        );
        let info = s.recovery_info().unwrap();
        let want = RecoveryInfo {
            committed: 1,
            ..RecoveryInfo::default()
        };
        assert_eq!(info, want);
        assert!(s.dict().get("SECOND_BODY").is_none(), "torn delta folded");
        let pages = s.total_pages();
        let contents = |s: &DocumentStore| -> Vec<String> {
            (0..s.node_count())
                .filter_map(|id| s.content(NodeId(id)).unwrap())
                .collect()
        };
        assert!(contents(&s).is_empty(), "{:?}", contents(&s));
        // A same-shaped insert lands on the same pages and reads back
        // its own bytes, before and after another reopen.
        s.insert_xml("<a><b>THIRD_BODY</b></a>").unwrap();
        assert_eq!(s.total_pages(), pages, "the freed run is reused");
        assert_eq!(contents(&s), ["THIRD_BODY"]);
        drop(s);
        let s = DocumentStore::open(&opts).unwrap();
        assert_eq!(contents(&s), ["THIRD_BODY"]);
        drop(s);
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
    fn a_log_that_cannot_be_installed_leaves_the_old_one_in_charge() {
        // A directory where the new log's temp file would go: the
        // reopen cannot install its checkpoint and fails, typed. The
        // old log, never truncated in place, still holds every commit,
        // so once the blocker is gone the next reopen recovers them all.
        let (page, wal) = temp_paths("install");
        let opts = durable_opts(&page);
        {
            let s = DocumentStore::create(&opts).unwrap();
            s.insert_xml(SAMPLE).unwrap();
            s.insert_xml("<bib><article><author>Jill</author></article></bib>")
                .unwrap();
        }
        let mut tmp = wal.clone().into_os_string();
        tmp.push(".tmp");
        std::fs::create_dir(&tmp).unwrap();
        let log = std::fs::read(&wal).unwrap();
        match DocumentStore::open(&opts) {
            Err(StoreError::Io(_)) => {}
            Err(e) => panic!("expected an I/O error, got {e}"),
            Ok(_) => panic!("the store reopened over a blocked log install"),
        }
        assert_eq!(std::fs::read(&wal).unwrap(), log, "the old log is intact");
        std::fs::remove_dir(&tmp).unwrap();
        let s = DocumentStore::open(&opts).unwrap();
        assert_eq!(s.documents().len(), 2);
        assert_eq!(s.recovery_info().unwrap().committed, 2);
        drop(s);
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal);
    }

    /// A new content symbol from the dictionary's length and the old one.
    type SymEdit = fn(u32, u32) -> u32;

    /// Commit SAMPLE, set the content symbol of its local row `row` to
    /// `sym(dictionary length, the row's own symbol)`, write the node page
    /// back through the disk manager — which seals a fresh checksum, so
    /// only the symbol check can object — and reopen. Also returns the
    /// node page's id.
    fn reopen_with_symbol(tag: &str, row: usize, sym: SymEdit) -> (Result<DocumentStore>, u32) {
        let (page, wal) = temp_paths(tag);
        let opts = durable_opts(&page);
        let (node_page, syms) = {
            let s = DocumentStore::create(&opts).unwrap();
            s.insert_xml(SAMPLE).unwrap();
            (s.shared.current().docs[0].node_base, s.dict().len() as u32)
        };
        let mut disk = DiskManager::open_existing(&page).unwrap();
        let mut image = [0u8; PAGE_SIZE];
        disk.read_page(PageId(node_page), &mut image).unwrap();
        let slot = &mut image[PAGE_HEADER_SIZE + row * RECORD_SIZE..][..RECORD_SIZE];
        let mut rec = NodeRecord::decode(slot);
        rec.sym = sym(syms, rec.sym);
        rec.encode(slot);
        disk.write_page(PageId(node_page), &image).unwrap();
        drop(disk);
        let reopened = DocumentStore::open(&opts);
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal);
        (reopened, node_page)
    }

    #[test]
    fn a_record_symbol_the_dictionary_or_its_pointer_disowns_is_typed_corruption() {
        // SAMPLE's local row 0 is `bib`, without content; row 2 is
        // `@year`, "1999". Rewritten with its own symbol, a page reopens:
        // the harness itself is sound.
        let (intact, _) = reopen_with_symbol("sym_intact", 2, |_, own| own);
        let s = intact.unwrap();
        let year = s.nodes_with_tag(s.tag_id(&attr_tag_name("year")).unwrap())[0];
        assert_eq!(s.content(year.id).unwrap().as_deref(), Some("1999"));
        let cases: [(&str, usize, SymEdit); 3] = [
            ("sym_past_the_table", 2, |syms, _| syms),
            ("no_sym_with_content", 2, |_, _| NO_SYM),
            ("sym_without_content", 0, |_, _| 1),
        ];
        for (tag, row, sym) in cases {
            match reopen_with_symbol(tag, row, sym) {
                (Err(StoreError::CorruptContent { page }), node_page) if page == node_page => {}
                (Err(e), _) => panic!("{tag}: expected CorruptContent on the node page, got {e}"),
                (Ok(_), _) => panic!("{tag}: the store reopened"),
            }
        }
    }

    /// Commit three documents, then rewrite the log with `tamper` applied
    /// to each record's metadata payload (frames re-encoded, so checksums
    /// and LSNs are those of an intact log) and reopen.
    fn reopen_tampered(tag: &str, tamper: impl Fn(&mut WalRecord)) -> Result<DocumentStore> {
        let (page, wal) = temp_paths(tag);
        let opts = durable_opts(&page);
        {
            let s = DocumentStore::create(&opts).unwrap();
            let first = s.insert_xml(SAMPLE).unwrap();
            s.insert_xml("<bib><article><author>Jill</author></article></bib>")
                .unwrap();
            s.delete_document(first).unwrap();
        }
        let mut log = Vec::new();
        for (_, mut rec) in wal::read_log(&std::fs::read(&wal).unwrap()).records {
            tamper(&mut rec);
            wal::encode_record(log.len() as u64, &rec, &mut log);
        }
        std::fs::write(&wal, log).unwrap();
        let reopened = DocumentStore::open(&opts);
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal);
        reopened
    }

    /// Rewrite the delta of the commit that deletes (the last of three).
    fn tamper_delete(rec: &mut WalRecord, edit: impl Fn(&mut MetaDelta)) {
        if let WalRecord::Commit { meta } = rec {
            let mut delta = decode_delta(meta).unwrap();
            if delta.removed.is_some() {
                edit(&mut delta);
                *meta = encode_delta(&delta);
            }
        }
    }

    #[test]
    fn a_log_that_is_not_the_chain_this_store_wrote_is_typed_corruption() {
        let corrupt =
            |tag: &str, tamper: &dyn Fn(&mut WalRecord)| match reopen_tampered(tag, tamper) {
                Err(StoreError::WalCorrupt { .. }) => {}
                Err(e) => panic!("{tag}: expected WalCorrupt, got {e}"),
                Ok(_) => panic!("{tag}: a tampered log reopened"),
            };
        // Untouched, the rewritten log reopens: the harness itself is sound.
        let s = reopen_tampered("intact", |_| {}).unwrap();
        assert_eq!(s.documents().len(), 1);
        assert_eq!(s.recovery_info().unwrap().committed, 3);

        // The two rules of the fold.
        corrupt("dict_from", &|rec| tamper_delete(rec, |d| d.dict_from += 1));
        corrupt("removed", &|rec| {
            tamper_delete(rec, |d| d.removed = Some(999))
        });
        // A delta cut short inside an intact frame.
        corrupt("truncated", &|rec| {
            if let WalRecord::Commit { meta } = rec {
                meta.truncate(meta.len() - 3);
            }
        });
        // Earlier formats. Version 2, in the checkpoint or in a commit
        // (which then carried a whole snapshot, not a delta). Version 3,
        // whose node records held parent ids where they now hold content
        // symbols: most parent ids are valid symbols, so only the version
        // keeps such a store from opening with the wrong values. Version
        // 4, whose transactions began with a `Begin` record: the reader
        // stops at the first, so only the version keeps every commit
        // after the checkpoint from being dropped without a word.
        // Version 5, whose log may hold page images that never reached
        // the page file and which no reader now reinstalls: the
        // checkpoint carries the version, so such a log is refused
        // before any later frame is read.
        let version = |meta: &mut Vec<u8>, v: u32| meta[4..8].copy_from_slice(&v.to_le_bytes());
        for (tag, v) in [
            ("v2 checkpoint", 2),
            ("v3 checkpoint", 3),
            ("v4 checkpoint", 4),
            ("v5 checkpoint", 5),
        ] {
            corrupt(tag, &|rec| {
                if let WalRecord::Checkpoint { meta } = rec {
                    version(meta, v);
                }
            });
        }
        corrupt("v2 commit", &|rec| {
            if let WalRecord::Commit { meta } = rec {
                version(meta, 2);
            }
        });
        corrupt("snapshot in a commit", &|rec| {
            if let WalRecord::Commit { meta } = rec {
                let empty = StoreMeta {
                    docs: Vec::new(),
                    next_doc: 1,
                };
                *meta = encode_meta(&empty, &[DOC_ROOT_TAG.into()]);
            }
        });
    }
}
