//! Reopen and recovery glue: read the checkpoint snapshot and the
//! committed metadata deltas from the log, fold the deltas over the
//! snapshot, then rebuild everything the store derives from metadata
//! plus pages — the name table from the name runs, the free list, the
//! first projection from the node runs. Each document's node run holds
//! its (tag, kind) table and its index, symbol and level columns, which
//! decode straight onto the end of the store's label columns, the labels
//! derived from the rows in order; the tag index is filled once, after
//! the last run. A row's value is its symbol's name, read once for the
//! whole store. No page is written. Pages are read around the buffer
//! pool, so a reopened store holds no frame until a query asks for a
//! page.

use super::meta::{bad_meta, decode_delta, decode_meta, encode_meta, DocMeta, StoreMeta};
use super::projection::{build_projection, Projection};
use super::{wal_path_for, DocumentStore, StoreOptions, DOC_ROOT_TAG};
use crate::buffer::with_retry;
use crate::catalog::TagId;
use crate::dict::Dictionary;
use crate::error::{Result, StoreError};
use crate::heap::NamePages;
use crate::node;
use crate::page::{self, PageId, PAGE_DATA_SIZE, PAGE_SIZE};
use crate::storage::{DiskManager, SharedDisk};
use crate::wal::{self, Wal};
use std::collections::BTreeSet;
use std::sync::Arc;

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
    /// `StoreMeta::apply`) is `WalCorrupt`. The name runs and node runs
    /// are read and checked and the projection is built; only then does a
    /// fresh log holding a checkpoint of the result replace the old one
    /// whole, so an `open` that fails leaves the log and the page file as
    /// it found them. Recovery writes no page, so a crash *during* it is
    /// harmless.
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
        let mut meta = decode_meta(&state.checkpoint)?;
        for delta in &state.commits {
            meta.apply(decode_delta(delta)?)?;
        }
        // Read the documents back from the recovered pages, at the epoch
        // after the empty one `assemble` publishes.
        let (names, table) = read_names(&disk, &meta)?;
        let tags = Dictionary::from_names(names);
        let doc_root_tag = tags.intern(DOC_ROOT_TAG);
        let proj = read_projection(&disk, &table, doc_root_tag, 2, &meta.docs)?;
        // Every page a commit names was synced before its record, so
        // the old log tail is no longer needed.
        let wal = Some(Wal::create(Some(&wal_p), disk.clone(), encode_meta(&meta))?);

        let mut free: BTreeSet<u32> = (0..disk.num_pages()).collect();
        let runs = table.runs.iter().map(|r| (r.base, r.pages));
        for (base, pages) in runs.chain(meta.docs.iter().map(|d| (d.node_base, d.node_pages))) {
            for p in base..base.saturating_add(pages) {
                free.remove(&p);
            }
        }
        let recovery = Some(RecoveryInfo {
            committed: state.commits.len() as u64,
            ..RecoveryInfo::default()
        });
        let dict = (tags, table);
        let store = Self::assemble(dict, meta.next_doc, free, wal, opts, disk, recovery)?;
        store.install(&mut store.writer(), proj);
        store.shared.disk.reset_stats();
        store.reset_io_stats();
        Ok(store)
    }

    /// What crash recovery did, if this store was reopened with
    /// [`open`](DocumentStore::open).
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.shared.recovery
    }
}

/// The projection of `docs` at `epoch`, built in one pass over their
/// node runs alone, each read into one buffer and decoded by
/// [`node::decode_run`] against the paged `names`. Any fault is
/// `CorruptContent` on the node page where it shows.
pub(super) fn read_projection(
    disk: &SharedDisk,
    names: &NamePages,
    doc_root_tag: TagId,
    epoch: u64,
    docs: &[DocMeta],
) -> Result<Projection> {
    let mut run = Vec::new();
    build_projection(epoch, doc_root_tag, docs, |d, columns, off| {
        read_run(disk, d.node_base, d.node_pages, &mut run)?;
        let page_of = |at: usize| d.node_base + (at / PAGE_DATA_SIZE) as u32;
        node::decode_run(&run, d.node_count as usize, &names.locs, off, columns)
            .map_err(|at| StoreError::CorruptContent { page: page_of(at) })
    })
}

/// Read into `run` the data regions of pages `base..base + pages`, end
/// to end, each read from the page file — CRC-checked, retried as the
/// pool retries, and not cached.
fn read_run(disk: &SharedDisk, base: u32, pages: u32, run: &mut Vec<u8>) -> Result<()> {
    // Grown as pages are read: no allocation trusts the log's count.
    let mut image = [0u8; PAGE_SIZE];
    run.clear();
    for page in base..base.saturating_add(pages) {
        with_retry(&mut 0, || disk.lock().read_page(PageId(page), &mut image))?;
        run.extend_from_slice(page::data(&image));
    }
    Ok(())
}

/// The name table `meta` says the name runs hold, in symbol order, read
/// back from their pages, and where each name lies. The runs must hold
/// every length (else `WalCorrupt`), the names of a run must fill its
/// pages exactly, and each must be UTF-8: else `CorruptContent` on the
/// run's last page, or on the page of the first byte that is not.
fn read_names(disk: &SharedDisk, meta: &StoreMeta) -> Result<(Vec<Arc<str>>, NamePages)> {
    let (mut table, mut names) = (NamePages::default(), Vec::with_capacity(meta.lens.len()));
    let (mut lens, mut bytes) = (&meta.lens[..], Vec::new());
    for run in &meta.runs {
        let here = lens.get(..run.names as usize).ok_or_else(bad_meta)?;
        lens = &lens[here.len()..];
        // Read first: a run past the file is a typed read error.
        read_run(disk, run.base, run.pages, &mut bytes)?;
        if table.push(run.base, here) != run.pages {
            let last = run.base.saturating_add(run.pages).saturating_sub(1);
            return Err(StoreError::CorruptContent { page: last });
        }
        let mut at = 0;
        for &len in here {
            let name = std::str::from_utf8(&bytes[at..at + len as usize]).map_err(|e| {
                let bad = at + e.valid_up_to();
                StoreError::CorruptContent {
                    page: run.base + (bad / PAGE_DATA_SIZE) as u32,
                }
            })?;
            names.push(Arc::from(name));
            at += len as usize;
        }
    }
    if !lens.is_empty() {
        return Err(bad_meta());
    }
    Ok((names, table))
}

#[cfg(test)]
mod tests {
    use super::super::meta::{encode_delta, MetaDelta, StoreMeta};
    use super::super::test_support::{durable_opts, temp_paths, SAMPLE};
    use super::*;
    use crate::catalog::attr_tag_name;
    use crate::node::NodeId;
    use crate::page::PAGE_HEADER_SIZE;
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

    /// `open` at `opts`, as the typed-corruption cases below run it: an
    /// `open` that fails must leave the log and the page file byte for
    /// byte as it found them, and a second `open` must fail the same way.
    fn open_checked(opts: &StoreOptions) -> Result<DocumentStore> {
        let page = opts.path.clone().unwrap();
        let files = || [&page, &wal_path_for(&page)].map(|f| std::fs::read(f).unwrap());
        let found = files();
        let opened = DocumentStore::open(opts);
        if let Err(e) = &opened {
            assert!(files() == found, "a failed open wrote: {e}");
            let again = DocumentStore::open(opts).err();
            assert_eq!(format!("{again:?}"), format!("{:?}", Some(e)));
        }
        opened
    }

    /// A name longer than a page, which the poked store's name table
    /// holds.
    fn long_name() -> String {
        "x".repeat(PAGE_DATA_SIZE + 1)
    }

    /// What a poke does to a node run (its pages' data regions end to
    /// end), given the run's column offsets ([`node::layout`]) and the
    /// dictionary: it returns the run byte where the fault shows.
    type Poke = Box<dyn Fn(&mut [u8], [usize; 4], &Dictionary) -> usize>;

    /// Intern the empty name and [`long_name`], commit `xml` (which
    /// pages them too) and checkpoint; apply `poke` to the
    /// document's node run, write its pages back through the disk
    /// manager — which seals fresh checksums, so only the decode
    /// checks can object — and reopen. Also returns the node
    /// page that holds the byte the poke names.
    fn reopen_poked(tag: &str, xml: &str, poke: Poke) -> (Result<DocumentStore>, u32) {
        let (page, wal) = temp_paths(tag);
        let opts = durable_opts(&page);
        let at = poke_last(&opts, &[], xml, poke);
        let reopened = open_checked(&opts);
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal);
        (reopened, at)
    }

    /// [`reopen_poked`]'s store at `opts`, with the documents `before`
    /// committed ahead of `xml`, poked but not reopened: the node page
    /// that holds the byte the poke names.
    fn poke_last(opts: &StoreOptions, before: &[&str], xml: &str, poke: Poke) -> u32 {
        let (meta, dict) = {
            let s = DocumentStore::create(opts).unwrap();
            s.intern("");
            s.intern(&long_name());
            for xml in before.iter().chain([&xml]) {
                s.insert_xml(xml).unwrap();
            }
            s.checkpoint().unwrap();
            let last = s.shared.current().docs.last().unwrap().meta;
            (last, s.dict().clone())
        };
        let mut disk = DiskManager::open_existing(opts.path.as_ref().unwrap()).unwrap();
        let (mut run, mut image) = (Vec::new(), [0u8; PAGE_SIZE]);
        let pages = meta.node_base..meta.node_base + meta.node_pages;
        for p in pages.clone() {
            disk.read_page(PageId(p), &mut image).unwrap();
            run.extend_from_slice(page::data(&image));
        }
        let pairs = u64::from_le_bytes(run[..8].try_into().unwrap()) as usize;
        let at = poke(
            &mut run,
            node::layout(pairs, meta.node_count as usize),
            &dict,
        );
        for (p, data) in pages.zip(run.chunks(PAGE_DATA_SIZE)) {
            image[PAGE_HEADER_SIZE..].copy_from_slice(data);
            disk.write_page(PageId(p), &image).unwrap();
        }
        meta.node_base + (at / PAGE_DATA_SIZE) as u32
    }

    /// A poke that writes `bytes` at the run byte `at` picks.
    fn put(at: impl Fn([usize; 4]) -> usize + 'static, bytes: Vec<u8>) -> Poke {
        Box::new(move |run, layout, _| {
            let at = at(layout);
            run[at..at + bytes.len()].copy_from_slice(&bytes);
            at
        })
    }

    /// A poke that sets row `row`'s content symbol to the one `sym` picks
    /// from the dictionary.
    fn set_sym(row: usize, sym: impl Fn(&Dictionary) -> u32 + 'static) -> Poke {
        Box::new(move |run, [_, syms, _, _], dict| {
            let at = syms + 4 * row;
            run[at..at + 4].copy_from_slice(&sym(dict).to_le_bytes());
            at
        })
    }

    /// A poke that sets row `row`'s level.
    fn set_level(row: usize, level: u16) -> Poke {
        put(
            move |[_, _, levels, _]| levels + 2 * row,
            level.to_le_bytes().to_vec(),
        )
    }

    /// The table entry of SAMPLE's `@year`, its third pair.
    const YEAR_PAIR: usize = 8 + 8 * 2;

    /// `xml` poked must not reopen: `CorruptContent` on the node page
    /// where the fault shows. SAMPLE's local rows are `bib` (level 1),
    /// `article` (2), `@year` (3, "1999"), `title` (3, "Querying XML"),
    /// two `author`s, and a second `article` with a `title` and an
    /// `author`; its table lists `bib`, `article`, `@year`, `title` and
    /// `author`, and its run is one page.
    fn assert_corrupt(tag: &str, xml: &str, poke: Poke) {
        match reopen_poked(tag, xml, poke) {
            (Err(StoreError::CorruptContent { page }), want) if page == want => {}
            (Err(e), want) => panic!("{tag}: expected CorruptContent on page {want}, got {e}"),
            (Ok(_), _) => panic!("{tag}: the store reopened"),
        }
    }

    #[test]
    fn a_record_symbol_the_dictionary_or_its_pointer_disowns_is_typed_corruption() {
        // Rewritten as it was, a run reopens: the harness itself is sound.
        let (intact, _) = reopen_poked("sym_intact", SAMPLE, Box::new(|_, _, _| 0));
        let s = intact.unwrap();
        let year = s.nodes_with_tag(s.tag_id(&attr_tag_name("year")).unwrap())[0];
        assert_eq!(s.content(year.id).unwrap().as_deref(), Some("1999"));
        let past = set_sym(2, |d| d.len() as u32);
        assert_corrupt("sym_past_the_table", SAMPLE, past);
        // A name the table holds but no loaded value can have.
        let empty = set_sym(2, |d| d.get("").unwrap().0);
        assert_corrupt("sym_of_no_value", SAMPLE, empty);
        // A row holds no value length, so a row whose symbol is none
        // where a value was, or a name where none was, is a sound row of
        // another document.
    }

    #[test]
    fn a_row_of_unknown_kind_is_typed_corruption() {
        // A row's kind lives in its table entry.
        assert_corrupt("unknown_kind", SAMPLE, put(|_| YEAR_PAIR + 4, vec![3]));
    }

    #[test]
    fn a_row_with_its_reserved_byte_set_is_typed_corruption() {
        // The last of its table entry's three reserved bytes.
        assert_corrupt("reserved_byte", SAMPLE, put(|_| YEAR_PAIR + 7, vec![1]));
    }

    #[test]
    fn a_table_tag_past_the_name_table_is_typed_corruption() {
        let past: Poke = Box::new(|run, _, dict| {
            run[YEAR_PAIR..][..4].copy_from_slice(&(dict.len() as u32).to_le_bytes());
            YEAR_PAIR
        });
        assert_corrupt("tag_past_the_table", SAMPLE, past);
    }

    #[test]
    fn a_row_index_past_the_table_is_typed_corruption() {
        // SAMPLE's table has five entries.
        let past = put(|[index, ..]| index + 2 * 2, 5u16.to_le_bytes().to_vec());
        assert_corrupt("index_past_the_table", SAMPLE, past);
    }

    #[test]
    fn a_first_row_below_level_one_is_typed_corruption() {
        assert_corrupt("first_row_level", SAMPLE, set_level(0, 2));
    }

    #[test]
    fn a_row_two_levels_below_its_element_is_typed_corruption() {
        assert_corrupt("two_levels_down", SAMPLE, set_level(1, 3));
        // A run of 1 201 rows over two pages, its last row two levels
        // down: that row's index and symbol lie on the first page, its
        // level on the second, which the error names.
        let mut xml = String::from("<bib>");
        for i in 0..600 {
            xml.push_str(&format!("<article><title>T{i}</title></article>"));
        }
        xml.push_str("</bib>");
        let [index, sym, level, _] = node::layout(3, 1201);
        let at = [index + 2 * 1200, sym + 4 * 1200, level + 2 * 1200];
        assert_eq!(at.map(|at| at / PAGE_DATA_SIZE), [0, 0, 1]);
        assert_corrupt("two_levels_down_page_2", &xml, set_level(1200, 5));
    }

    /// 600 articles of a title each: 1 201 rows, a node run of two pages.
    fn two_page_doc() -> String {
        let mut xml = String::from("<bib>");
        for i in 0..600 {
            xml.push_str(&format!("<article><title>T{i}</title></article>"));
        }
        xml.push_str("</bib>");
        xml
    }

    #[test]
    fn a_corrupt_row_in_the_last_of_several_documents_names_its_page() {
        // Two documents decode onto the columns before the third's last
        // row, two levels down on its run's second page, breaks the rule.
        // That page is named, and nothing is published: the failed open
        // leaves the page file as it found it, and so does the next.
        let (page, wal) = temp_paths("last_of_several");
        let opts = durable_opts(&page);
        let before = [
            SAMPLE,
            "<bib><article><author>Jill</author></article></bib>",
        ];
        let want = poke_last(&opts, &before, &two_page_doc(), set_level(1200, 5));
        let pages = std::fs::read(&page).unwrap();
        for _ in 0..2 {
            match open_checked(&opts) {
                Err(StoreError::CorruptContent { page }) if page == want => {}
                Err(e) => panic!("expected CorruptContent on page {want}, got {e}"),
                Ok(_) => panic!("the store reopened"),
            }
            assert!(std::fs::read(&page).unwrap() == pages, "open wrote a page");
        }
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn a_row_under_a_leaf_is_typed_corruption() {
        // `title` one level below `@year`.
        assert_corrupt("under_a_leaf", SAMPLE, set_level(3, 4));
    }

    #[test]
    fn a_name_that_is_not_utf8_is_typed_corruption() {
        // [`long_name`] fills the name run's first page, so `title`'s
        // value lies on its second. A lone continuation byte in it, the
        // page written back sealed: the checksum passes, the name does
        // not decode, and the page it lies on is named.
        let (page, wal) = temp_paths("name_utf8");
        let opts = durable_opts(&page);
        let at = {
            let s = DocumentStore::create(&opts).unwrap();
            s.intern(&long_name());
            s.insert_xml(SAMPLE).unwrap();
            let sym = s.dict().get("Querying XML").unwrap();
            let at = s.shared.names().locs[sym.0 as usize];
            assert_eq!(at.page, s.shared.names().runs[0].base + 1);
            at
        };
        let mut disk = DiskManager::open_existing(&page).unwrap();
        let mut image = [0u8; PAGE_SIZE];
        disk.read_page(PageId(at.page), &mut image).unwrap();
        page::data_mut(&mut image)[at.off as usize + 1] = 0x80;
        disk.write_page(PageId(at.page), &image).unwrap();
        drop(disk);
        match open_checked(&opts) {
            Err(StoreError::CorruptContent { page }) if page == at.page => {}
            Err(e) => panic!("expected CorruptContent on page {}, got {e}", at.page),
            Ok(_) => panic!("the store reopened"),
        }
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn a_length_list_that_overruns_its_run_is_typed_corruption() {
        // The first commit's name run is one page from page 0 on. A
        // length a page longer needs two pages, and lengths that are all
        // 0 need none: the lengths and the run disagree, in the commit or
        // in the checkpoint that carries them.
        let overrun = |lens: &mut Vec<u32>| lens[0] += PAGE_DATA_SIZE as u32;
        let empty = |lens: &mut Vec<u32>| lens.iter_mut().for_each(|l| *l = 0);
        for (what, edit) in [
            ("overrun", &overrun as &dyn Fn(&mut Vec<u32>)),
            ("empty", &empty),
        ] {
            let tamper = |rec: &mut WalRecord| {
                if let WalRecord::Commit { meta } = rec {
                    let mut delta = decode_delta(meta).unwrap();
                    if delta.dict_from == 0 {
                        assert_eq!(delta.run.map(|r| (r.base, r.pages)), Some((0, 1)));
                        edit(&mut delta.lens);
                        *meta = encode_delta(&delta);
                    }
                }
            };
            match reopen_tampered(what, tamper) {
                Err(StoreError::CorruptContent { page: 0 }) => {}
                Err(e) => panic!("{what}: expected CorruptContent on page 0, got {e}"),
                Ok(_) => panic!("{what}: the store reopened"),
            }
        }
        // In a checkpoint: the reopened store's log holds the one record.
        let (page, wal) = temp_paths("lens_in_checkpoint");
        let opts = durable_opts(&page);
        drop(reopen_chain(&opts));
        drop(DocumentStore::open(&opts).unwrap());
        let mut log = Vec::new();
        for (_, mut rec) in wal::read_log(&std::fs::read(&wal).unwrap()).records {
            if let WalRecord::Checkpoint { meta } = &mut rec {
                let mut snapshot = decode_meta(meta).unwrap();
                overrun(&mut snapshot.lens);
                *meta = encode_meta(&snapshot);
            }
            wal::encode_record(log.len() as u64, &rec, &mut log);
        }
        std::fs::write(&wal, log).unwrap();
        match open_checked(&opts) {
            Err(StoreError::CorruptContent { page: 0 }) => {}
            Err(e) => panic!("checkpoint: expected CorruptContent on page 0, got {e}"),
            Ok(_) => panic!("checkpoint: the store reopened"),
        }
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal);
    }

    /// Commit three documents on a fresh store at `opts`, the first
    /// two inserts, the third the first's delete.
    fn reopen_chain(opts: &StoreOptions) -> DocumentStore {
        let s = DocumentStore::create(opts).unwrap();
        let first = s.insert_xml(SAMPLE).unwrap();
        s.insert_xml("<bib><article><author>Jill</author></article></bib>")
            .unwrap();
        s.delete_document(first).unwrap();
        s
    }

    /// Commit [`reopen_chain`]'s three documents, then rewrite the log
    /// with `tamper` applied to each record's metadata payload (frames
    /// re-encoded, so checksums and LSNs are those of an intact log) and
    /// reopen.
    fn reopen_tampered(tag: &str, tamper: impl Fn(&mut WalRecord)) -> Result<DocumentStore> {
        let (page, wal) = temp_paths(tag);
        let opts = durable_opts(&page);
        drop(reopen_chain(&opts));
        let mut log = Vec::new();
        for (_, mut rec) in wal::read_log(&std::fs::read(&wal).unwrap()).records {
            tamper(&mut rec);
            wal::encode_record(log.len() as u64, &rec, &mut log);
        }
        std::fs::write(&wal, log).unwrap();
        let reopened = open_checked(&opts);
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
        // A run that claims a name of the next run's: the last run is
        // one length short.
        corrupt("run names", &|rec| {
            if let WalRecord::Commit { meta } = rec {
                let mut delta = decode_delta(meta).unwrap();
                if let Some(run) = delta.run.as_mut().filter(|_| delta.dict_from == 0) {
                    run.names += 1;
                    *meta = encode_delta(&delta);
                }
            }
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
        // were 32 bytes, version 7, whose were 16, and version 8, whose
        // were 12: read as a node run of columns they are garbage.
        // Version 9, whose records carry names and heap runs: read as
        // name runs and lengths, they are garbage too.
        let version = |meta: &mut Vec<u8>, v: u32| meta[4..8].copy_from_slice(&v.to_le_bytes());
        for (tag, v) in [
            ("v2 checkpoint", 2),
            ("v3 checkpoint", 3),
            ("v4 checkpoint", 4),
            ("v5 checkpoint", 5),
            ("v6 checkpoint", 6),
            ("v7 checkpoint", 7),
            ("v8 checkpoint", 8),
            ("v9 checkpoint", 9),
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
                    runs: Vec::new(),
                    lens: Vec::new(),
                };
                *meta = encode_meta(&empty);
            }
        });
    }

    #[test]
    fn a_failed_open_changes_nothing() {
        // Every typed-corruption case opens through `open_checked`: the
        // `open` that refuses a damaged store reads and checks every name
        // and node run before it installs a fresh log, so it writes
        // neither the log nor the page file, and the next `open` refuses
        // the store the same way.
        for case in [
            a_record_symbol_the_dictionary_or_its_pointer_disowns_is_typed_corruption,
            a_row_of_unknown_kind_is_typed_corruption,
            a_row_with_its_reserved_byte_set_is_typed_corruption,
            a_table_tag_past_the_name_table_is_typed_corruption,
            a_row_index_past_the_table_is_typed_corruption,
            a_first_row_below_level_one_is_typed_corruption,
            a_row_two_levels_below_its_element_is_typed_corruption,
            a_corrupt_row_in_the_last_of_several_documents_names_its_page,
            a_row_under_a_leaf_is_typed_corruption,
            a_name_that_is_not_utf8_is_typed_corruption,
            a_length_list_that_overruns_its_run_is_typed_corruption,
            a_log_that_is_not_the_chain_this_store_wrote_is_typed_corruption,
        ] {
            case();
        }
    }
}
