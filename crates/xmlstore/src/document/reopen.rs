//! Reopen and recovery glue: read the checkpoint snapshot and the
//! committed metadata deltas from the log, fold the deltas over the
//! snapshot, then rebuild everything the store derives from metadata
//! plus node pages — dictionary, free list, the first projection. No
//! heap page is read: each node record carries its content symbol, the
//! name table holds each value and so its length, the labels and value
//! locations are derived from the rows in order, and no page is written.
//! Node pages are read around the buffer pool, so a reopened store holds
//! no frame until a query asks for a page.

use super::meta::{decode_delta, decode_meta, encode_meta, DocMeta};
use super::projection::build_projection;
use super::{wal_path_for, DocumentStore, StoreOptions};
use crate::buffer::with_retry;
use crate::dict::Dictionary;
use crate::error::{Result, StoreError};
use crate::node::{self, NodeRecord, ValueTable, RECORDS_PER_PAGE, RECORD_SIZE};
use crate::page::{self, PageId, PAGE_DATA_SIZE, PAGE_SIZE};
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
        let mut values = ValueTable::new(&names);
        // The dictionary holds its own copies of the names.
        drop(names);
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
        // Read the documents back from the recovered pages, and publish
        // what they add up to.
        let store = Self::assemble(tags, meta.next_doc, free, wal, opts, disk, recovery)?;
        {
            let sh = &store.shared;
            let mut w = store.writer();
            let rows = |d: &DocMeta| store.read_rows(d, &mut values);
            let proj = build_projection(store.epoch() + 1, sh.doc_root_tag, &meta.docs, rows)?;
            store.install(&mut w, proj);
        }
        store.shared.disk.reset_stats();
        store.reset_io_stats();
        Ok(store)
    }

    /// One document's records, read back from its node pages alone
    /// (inserts take them from the loader instead), each page read from
    /// the page file into one buffer — CRC-checked, retried as the pool
    /// retries, and not cached — and their labels and value locations
    /// derived ([`node::derive`]) with `values`. A record must decode, the
    /// rows must nest, each content symbol must name a value of the
    /// recovered name table or be none, and the document's distinct
    /// values must fill its heap run exactly. Anything else is
    /// `CorruptContent` on the node page where it shows.
    pub(super) fn read_rows(
        &self,
        d: &DocMeta,
        values: &mut ValueTable,
    ) -> Result<Vec<NodeRecord>> {
        let mut records = Vec::with_capacity(d.node_count as usize);
        let mut image = [0u8; PAGE_SIZE];
        for page in d.node_base..d.node_base + d.node_pages {
            let on_page = (d.node_count as usize - records.len()).min(RECORDS_PER_PAGE);
            let from = records.len();
            with_retry(&mut 0, || {
                let mut disk = self.shared.disk.lock();
                disk.read_page(PageId(page), &mut image)
            })?;
            let slots = page::data(&image).chunks_exact(RECORD_SIZE);
            records.extend(slots.take(on_page).map_while(NodeRecord::decode));
            if records.len() != from + on_page {
                return Err(StoreError::CorruptContent { page });
            }
        }
        let page_of = |row: usize| d.node_base + (row / RECORDS_PER_PAGE) as u32;
        let heap_bytes = node::derive(&mut records, values)
            .map_err(|row| StoreError::CorruptContent { page: page_of(row) })?;
        if heap_bytes.div_ceil(PAGE_DATA_SIZE) != d.heap_pages as usize {
            let last = page_of(records.len().saturating_sub(1));
            return Err(StoreError::CorruptContent { page: last });
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
    fn a_failed_write_to_a_fresh_run_leaves_it_free_for_the_next_commit() {
        // The file grows for the second document's fresh runs, written
        // by nobody, before its first page write fails. The runs go back
        // to the free list, the retry lands on them without growing the
        // file, and the store reopens to the bytes of one that never
        // failed.
        let pages_down: crate::FaultConfig = "seed=1,write_err=1.0".parse().unwrap();
        let second = "<bib><article><title>Second</title><author>Jill</author></article></bib>";
        let (page, wal) = temp_paths("fresh_fail");
        let (clean_page, clean_wal) = temp_paths("fresh_clean");
        {
            let s = DocumentStore::create(&durable_opts(&page)).unwrap();
            s.insert_xml(SAMPLE).unwrap();
            let pages = s.total_pages();
            s.inject_faults(Some(pages_down)).unwrap();
            let err = s.insert_xml(second).unwrap_err();
            assert!(err.is_transient(), "{err}");
            s.inject_faults(None).unwrap();
            let grown = s.total_pages();
            assert!(grown > pages, "the fresh runs are in the file");
            s.insert_xml(second).unwrap();
            assert_eq!(s.total_pages(), grown, "the retry reuses them");
            let c = DocumentStore::create(&durable_opts(&clean_page)).unwrap();
            c.insert_xml(SAMPLE).unwrap();
            c.insert_xml(second).unwrap();
        }
        let once = std::fs::read(&page).unwrap();
        assert!(once == std::fs::read(&clean_page).unwrap());
        let s = DocumentStore::open(&durable_opts(&page)).unwrap();
        let c = DocumentStore::open(&durable_opts(&clean_page)).unwrap();
        assert_eq!(s.documents(), c.documents());
        assert_eq!(s.node_count(), c.node_count());
        for id in (0..c.node_count()).map(NodeId) {
            assert_eq!(s.record(id).unwrap(), c.record(id).unwrap());
            assert_eq!(s.content(id).unwrap(), c.content(id).unwrap());
        }
        drop((s, c));
        assert!(
            once == std::fs::read(&page).unwrap(),
            "reopen writes no page"
        );
        for p in [page, wal, clean_page, clean_wal] {
            let _ = std::fs::remove_file(p);
        }
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

    /// A name longer than a heap page, which the poked store's name
    /// table holds.
    fn long_name() -> String {
        "x".repeat(PAGE_DATA_SIZE + 1)
    }

    /// Commit SAMPLE, intern the empty name and [`long_name`], and
    /// checkpoint, so the name table holds both; apply `poke` to the
    /// stored bytes of SAMPLE's local row `row`, given the dictionary,
    /// write the node page back through the disk manager — which seals a
    /// fresh checksum, so only the decode and derivation checks can
    /// object — and reopen. Also returns the node page's id.
    fn reopen_poked(
        tag: &str,
        row: usize,
        poke: impl Fn(&mut [u8], &Dictionary),
    ) -> (Result<DocumentStore>, u32) {
        let (page, wal) = temp_paths(tag);
        let opts = durable_opts(&page);
        let (node_page, dict) = {
            let s = DocumentStore::create(&opts).unwrap();
            s.insert_xml(SAMPLE).unwrap();
            s.intern("");
            s.intern(&long_name());
            s.checkpoint().unwrap();
            (s.shared.current().docs[0].meta.node_base, s.dict().clone())
        };
        let mut disk = DiskManager::open_existing(&page).unwrap();
        let mut image = [0u8; PAGE_SIZE];
        disk.read_page(PageId(node_page), &mut image).unwrap();
        poke(
            &mut image[PAGE_HEADER_SIZE + row * RECORD_SIZE..][..RECORD_SIZE],
            &dict,
        );
        disk.write_page(PageId(node_page), &image).unwrap();
        drop(disk);
        let reopened = DocumentStore::open(&opts);
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal);
        (reopened, node_page)
    }

    /// A poke that decodes the record, sets its content symbol to the
    /// one `sym` picks from the dictionary, and encodes it back.
    fn set_sym(sym: impl Fn(&Dictionary) -> u32) -> impl Fn(&mut [u8], &Dictionary) {
        move |slot, dict| {
            let mut rec = NodeRecord::decode(slot).unwrap();
            rec.sym = sym(dict);
            rec.encode(slot);
        }
    }

    /// A poke that decodes the record, sets its level, and encodes it
    /// back.
    fn set_level(level: u16) -> impl Fn(&mut [u8], &Dictionary) {
        move |slot, _| {
            let mut rec = NodeRecord::decode(slot).unwrap();
            rec.level = level;
            rec.encode(slot);
        }
    }

    /// SAMPLE poked at `row` must not reopen: `CorruptContent` on its one
    /// node page. Its local rows are `bib` (level 1), `article` (2),
    /// `@year` (3, "1999"), `title` (3, "Querying XML"), two `author`s,
    /// and a second `article` with a `title` and an `author`.
    fn assert_corrupt(tag: &str, row: usize, poke: impl Fn(&mut [u8], &Dictionary)) {
        match reopen_poked(tag, row, poke) {
            (Err(StoreError::CorruptContent { page }), node_page) if page == node_page => {}
            (Err(e), _) => panic!("{tag}: expected CorruptContent on the node page, got {e}"),
            (Ok(_), _) => panic!("{tag}: the store reopened"),
        }
    }

    #[test]
    fn a_record_symbol_the_dictionary_or_its_pointer_disowns_is_typed_corruption() {
        // Rewritten as it was, a page reopens: the harness itself is
        // sound.
        let (intact, _) = reopen_poked("sym_intact", 2, |_, _| {});
        let s = intact.unwrap();
        let year = s.nodes_with_tag(s.tag_id(&attr_tag_name("year")).unwrap())[0];
        assert_eq!(s.content(year.id).unwrap().as_deref(), Some("1999"));
        assert_corrupt("sym_past_the_table", 2, set_sym(|d| d.len() as u32));
        // A name the table holds but no loaded value can have.
        assert_corrupt("sym_of_no_value", 2, set_sym(|d| d.get("").unwrap().0));
        // A record holds no value length, so a row whose symbol is none
        // where a value was, or a name where none was, is a sound row of
        // another document: only the heap run's page count can object,
        // as below.
    }

    #[test]
    fn a_row_of_unknown_kind_is_typed_corruption() {
        assert_corrupt("unknown_kind", 2, |slot, _| slot[10] = 3);
    }

    #[test]
    fn a_row_with_its_reserved_byte_set_is_typed_corruption() {
        assert_corrupt("reserved_byte", 2, |slot, _| slot[11] = 1);
    }

    #[test]
    fn a_first_row_below_level_one_is_typed_corruption() {
        assert_corrupt("first_row_level", 0, set_level(2));
    }

    #[test]
    fn a_row_two_levels_below_its_element_is_typed_corruption() {
        assert_corrupt("two_levels_down", 1, set_level(3));
    }

    #[test]
    fn a_row_under_a_leaf_is_typed_corruption() {
        // `title` one level below `@year`.
        assert_corrupt("under_a_leaf", 3, set_level(4));
    }

    #[test]
    fn values_that_do_not_fill_the_heap_run_are_typed_corruption() {
        // A value longer than a page in place of `title`'s: the values
        // need two heap pages, and the document has one.
        let longer = set_sym(|d| d.get(&long_name()).unwrap().0);
        assert_corrupt("heap_overfilled", 3, longer);
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
        // before any later frame is read. Version 6, whose node records
        // were 32 bytes, and version 7, whose were 16: read as 12-byte
        // records they are garbage.
        let version = |meta: &mut Vec<u8>, v: u32| meta[4..8].copy_from_slice(&v.to_le_bytes());
        for (tag, v) in [
            ("v2 checkpoint", 2),
            ("v3 checkpoint", 3),
            ("v4 checkpoint", 4),
            ("v5 checkpoint", 5),
            ("v6 checkpoint", 6),
            ("v7 checkpoint", 7),
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
