//! Projections and MVCC: the immutable view a commit publishes, how the
//! next one is made from the previous one and the edit, snapshot pinning,
//! the [`Entries`] guards readers hold, and how a removed document's node
//! run goes free once no projection holds the document.

use super::commit::WriterState;
use super::meta::DocMeta;
use super::DocumentStore;
use crate::catalog::TagId;
use crate::columns::NodeColumns;
use crate::dict::{Sym, NO_SYM};
use crate::error::{Result, StoreError};
use crate::index::{Cut, NodeEntry, TagIndex};
use crate::node::{DocColumns, NodeId, NodeKind};
use std::ops::Deref;
use std::sync::atomic::{self, Ordering};
use std::sync::Arc;

/// One stored document as the projections that hold it see it: where
/// its node run lies, and its (tag, kind) table. It never changes once
/// built, so every projection that holds the document shares it by
/// refcount, and its node run stays in use until the last of them drops
/// it.
pub(super) struct Doc {
    pub meta: DocMeta,
    /// The (tag, kind) table of its node run.
    pub pairs: Box<[(TagId, NodeKind)]>,
}

/// One immutable view of the store, published atomically by a commit:
/// the tag index, the columnar label region, and the document
/// table with its derived global id/label spaces. Readers resolve
/// everything through one `Arc<Projection>`, so a reader never observes
/// a half-applied transaction — it either runs entirely against the
/// pre-commit projection or entirely against the post-commit one.
///
/// Node id 0 and label 0 belong to the synthetic root; document `k`'s
/// local ids map to `id_bases[k] + local` and its labels to
/// `label_offsets[k] + local`.
pub(super) struct Projection {
    /// Monotone commit counter; epoch `e + 1` is published by the
    /// commit that follows epoch `e`.
    pub epoch: u64,
    index: TagIndex,
    pub columns: Arc<NodeColumns>,
    pub docs: Vec<Arc<Doc>>,
    /// Global node id of each document's first local node; `id_bases[0]`
    /// is 1 (id 0 is the synthetic root).
    id_bases: Vec<u32>,
    /// Global `(start, end)` label offset of each document.
    label_offsets: Vec<u32>,
    pub node_count: u32,
    pub root_end: u32,
    /// Where the edit that published this projection cut: rows below it
    /// equal its predecessor's, but for row 0's `end` (0 if built whole).
    same_below: u32,
}

impl Projection {
    /// `id` must name a row of this projection.
    pub(super) fn check(&self, id: NodeId) -> Result<()> {
        if id.0 < self.node_count {
            return Ok(());
        }
        Err(StoreError::NodeOutOfBounds {
            node: id.0,
            node_count: self.node_count,
        })
    }

    /// Which document holds global id `id` (> 0), and its local id.
    pub(super) fn locate(&self, id: NodeId) -> (usize, NodeId) {
        let k = self.id_bases.partition_point(|b| *b <= id.0) - 1;
        (k, NodeId(id.0 - self.id_bases[k]))
    }

    /// The view of a store without documents — the synthetic root alone —
    /// with room for `rows` more rows in the label columns.
    pub(super) fn empty(epoch: u64, doc_root_tag: TagId, rows: usize) -> Self {
        let mut columns = NodeColumns::with_capacity(1 + rows);
        columns.push(0, 1, 0, doc_root_tag.0, NodeKind::Element, NO_SYM);
        let mut index = TagIndex::new();
        index.insert(doc_root_tag, columns.entry(NodeId(0)));
        Projection {
            epoch,
            index,
            columns: Arc::new(columns),
            docs: Vec::new(),
            id_bases: Vec::new(),
            label_offsets: Vec::new(),
            node_count: 1,
            root_end: 1,
            same_below: 0,
        }
    }

    /// Append one document at the end of the id and label spaces: its
    /// rows (in local ids and labels, as the loader built them or `open`
    /// read them back) extend the six columns and the tag lists, its
    /// table goes into the [`Doc`] it becomes. The caller fits the root
    /// afterwards.
    fn push_doc(&mut self, meta: DocMeta, rows: DocColumns) {
        let (id_base, off) = (self.node_count, self.root_end);
        // Unshared while a projection is being built.
        let columns = Arc::make_mut(&mut self.columns);
        columns.start.extend(rows.start.iter().map(|s| s + off));
        columns.end.extend(rows.end.iter().map(|e| e + off));
        columns.level.extend_from_slice(&rows.level);
        columns.content.extend_from_slice(&rows.sym);
        let pairs = rows.index.iter().map(|&i| rows.pairs[usize::from(i)]);
        columns.tag.extend(pairs.clone().map(|(tag, _)| tag.0));
        columns.kind.extend(pairs.map(|(_, kind)| kind));
        for (id, &tag) in (id_base..).zip(&columns.tag[id_base as usize..]) {
            self.index.insert(Sym(tag), columns.entry(NodeId(id)));
        }
        self.docs.push(Arc::new(Doc {
            meta,
            pairs: rows.pairs.into(),
        }));
        self.id_bases.push(id_base);
        self.label_offsets.push(off);
        self.node_count += meta.node_count;
        self.root_end += 2 * meta.node_count;
    }

    /// Fit the synthetic root (row 0 and its index entry) over the label
    /// space as it now is.
    fn fit_root(mut self) -> Projection {
        let columns = Arc::make_mut(&mut self.columns);
        set_root(columns, &mut self.index, self.root_end);
        self
    }

    /// The projection the next commit publishes (the next epoch): this
    /// one without document `remove` (an index into `docs`) and with
    /// `add` at the end — the removed document's contiguous id range cut
    /// out, everything after it shifted down by its `node_count` and
    /// `span`. Every kept document is shared, not copied. The labels are
    /// rebuilt in `spare` (this one's predecessor), keeping its rows
    /// below both `same_below` and the cut, or else copied whole.
    pub(super) fn edited(
        &self,
        spare: Option<(NodeColumns, TagIndex)>,
        remove: Option<usize>,
        add: Option<(DocMeta, DocColumns)>,
    ) -> Projection {
        let cut = match remove {
            Some(k) => Cut {
                ids: self.id_bases[k]..self.id_bases[k] + self.docs[k].meta.node_count,
                span: 2 * self.docs[k].meta.node_count,
            },
            None => Cut {
                ids: self.node_count..self.node_count,
                span: 0,
            },
        };
        let empty = DocColumns::default();
        let added = add.as_ref().map_or(&empty, |(_, rows)| rows);
        let cut_rows = cut.ids.end - cut.ids.start;
        let mut docs = self.docs.clone();
        let (mut id_bases, mut label_offsets) = (self.id_bases.clone(), self.label_offsets.clone());
        if let Some(k) = remove {
            docs.remove(k);
            id_bases.remove(k);
            label_offsets.remove(k);
            for (base, offset) in id_bases.iter_mut().zip(&mut label_offsets).skip(k) {
                *base -= cut_rows;
                *offset -= cut.span;
            }
        }
        let (columns, index, keep) = match spare {
            // The kept rows are ours but for the root's end.
            Some((mut columns, mut index)) => {
                set_root(&mut columns, &mut index, self.root_end);
                (columns, index, self.same_below.min(cut.ids.start))
            }
            None => Default::default(),
        };
        let tags = added.index.iter().map(|&i| added.pairs[usize::from(i)].0);
        let extra = tags.len();
        let index = self.index.splice_into(index, keep, &cut, tags);
        let columns = self.columns.splice_into(columns, keep, &cut, extra);
        let mut next = Projection {
            epoch: self.epoch + 1,
            index,
            columns: Arc::new(columns),
            docs,
            id_bases,
            label_offsets,
            node_count: self.node_count - cut_rows,
            root_end: self.root_end - cut.span,
            same_below: cut.ids.start,
        };
        if let Some((meta, rows)) = add {
            next.push_doc(meta, rows);
        }
        next.fit_root()
    }
}

/// Stretch the synthetic root (row 0 and its index entry) to `root_end`.
fn set_root(columns: &mut NodeColumns, index: &mut TagIndex, root_end: u32) {
    columns.end[0] = root_end;
    if let Some(root) = index.first_mut(Sym(columns.tag[0])) {
        root.end = root_end;
    }
}

/// Build a projection in one pass over all documents, their rows read
/// back from pages by `rows` — what `open` starts from (`create` starts
/// from [`Projection::empty`]). Every later projection is
/// [`Projection::edited`] from its predecessor.
pub(super) fn build_projection(
    epoch: u64,
    doc_root_tag: TagId,
    docs: &[DocMeta],
    mut rows: impl FnMut(&DocMeta) -> Result<DocColumns>,
) -> Result<Projection> {
    let rows_total: usize = docs.iter().map(|d| d.node_count as usize).sum();
    let mut proj = Projection::empty(epoch, doc_root_tag, rows_total);
    proj.docs.reserve(docs.len());
    proj.id_bases.reserve(docs.len());
    proj.label_offsets.reserve(docs.len());
    for meta in docs {
        proj.push_doc(*meta, rows(meta)?);
    }
    Ok(proj.fit_root())
}

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
    Empty,
}

impl Entries {
    fn slice(&self) -> &[NodeEntry] {
        match &self.sel {
            EntrySel::Tag(tag) => self.proj.index.nodes(*tag),
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
    /// The projection this handle reads through: the pinned one on
    /// snapshot handles, else the currently published one.
    pub(super) fn proj(&self) -> Arc<Projection> {
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

    /// The commit epoch this handle reads at.
    pub fn epoch(&self) -> u64 {
        self.proj().epoch
    }

    /// Publish `proj` as the next epoch. The projection it replaces
    /// goes into the writer's predecessor slot.
    pub(super) fn install(&self, w: &mut WriterState, proj: Projection) {
        let mut current = self
            .shared
            .current
            .write()
            .unwrap_or_else(|e| e.into_inner());
        let replaced = std::mem::replace(&mut *current, Arc::new(proj));
        drop(current);
        w.prev = Some(replaced);
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
}

/// Once per commit: take the predecessor out of its slot, and put the
/// node run of every removed document that no projection holds any more
/// back on the free list. A removed document is held by the projections
/// that still list it — snapshot handles, in-flight reads, `Entries`
/// guards, the predecessor — and by nothing else, so its strong count
/// reaches 0 exactly when the last of them drops. Returns the
/// predecessor's labels if nobody else holds them: the spare.
pub(super) fn reclaim(w: &mut WriterState) -> Option<(NodeColumns, TagIndex)> {
    // The predecessor's documents are dropped here, before the counts
    // are read, so a document only it held goes free at this commit.
    let prev = w.prev.take().and_then(|p| Arc::try_unwrap(p).ok());
    let spare = prev.and_then(|p| Some((Arc::try_unwrap(p.columns).ok()?, p.index)));
    let WriterState { removed, free, .. } = w;
    removed.retain(|(doc, meta)| {
        let held = doc.strong_count() > 0;
        if !held {
            free.extend(meta.node_base..meta.node_base + meta.node_pages);
        }
        held
    });
    // `Weak::strong_count` loads relaxed: pair with the release
    // decrement of the last dropped handle, ordering its page reads
    // before our reuse writes.
    atomic::fence(Ordering::Acquire);
    spare
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{durable_opts, store, temp_paths};
    use super::super::{DocId, DocumentStore, StoreOptions};
    use super::*;
    use smallrand::prop::{check, Gen};
    use std::panic::{catch_unwind, AssertUnwindSafe};

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

    /// A small random document: a few element kinds, attributes, mixed
    /// content, and values drawn from a small pool so tag lists span
    /// documents.
    fn random_doc(g: &mut Gen) -> String {
        const VALUES: [&str; 6] = ["Jack", "Jill", "1999", "2002", "XML", "a b"];
        let mut xml = String::from("<bib>");
        for _ in 0..g.usize_in(0, 4) {
            xml.push_str("<article");
            if g.bool() {
                xml.push_str(&format!(" year=\"{}\"", g.pick(&VALUES)));
            }
            xml.push('>');
            for _ in 0..g.usize_in(0, 3) {
                let tag = *g.pick(&["title", "author", "note"]);
                match g.usize_in(0, 3) {
                    0 => xml.push_str(&format!("<{tag}/>")),
                    1 => xml.push_str(&format!("<{tag}>x <em>{}</em> y</{tag}>", g.pick(&VALUES))),
                    _ => xml.push_str(&format!("<{tag}>{}</{tag}>", g.pick(&VALUES))),
                }
            }
            xml.push_str("</article>");
        }
        xml.push_str("</bib>");
        xml
    }

    /// The published view of `s`, rebuilt in one pass from its own
    /// document table and pages — what `open` would build.
    fn from_scratch(s: &DocumentStore, published: &Projection) -> Projection {
        let sh = &s.shared;
        let docs: Vec<DocMeta> = published.docs.iter().map(|d| d.meta).collect();
        let names = sh.names();
        let rows = |d: &DocMeta| s.read_rows(d, &names.locs);
        build_projection(published.epoch, sh.doc_root_tag, &docs, rows).unwrap()
    }

    /// Field-by-field equality of two projections over a dictionary of
    /// `syms` symbols.
    fn assert_same_view(got: &Projection, want: &Projection, syms: u32) {
        let metas = |p: &Projection| p.docs.iter().map(|d| d.meta).collect::<Vec<_>>();
        assert_eq!(metas(got), metas(want));
        let tables = |p: &Projection| p.docs.iter().map(|d| d.pairs.to_vec()).collect::<Vec<_>>();
        assert_eq!(tables(got), tables(want), "(tag, kind) tables");
        assert_eq!(got.id_bases, want.id_bases);
        assert_eq!(got.label_offsets, want.label_offsets);
        assert_eq!(
            (got.node_count, got.root_end),
            (want.node_count, want.root_end)
        );
        // The synthetic root spans every document, by the document table
        // alone: both builds fit it with the same code.
        let root = NodeEntry {
            id: NodeId(0),
            start: 0,
            end: 1 + got.docs.iter().map(|d| 2 * d.meta.node_count).sum::<u32>(),
            level: 0,
        };
        assert_eq!(got.columns.entry(NodeId(0)), root);
        assert_eq!(got.index.nodes(Sym(got.columns.tag[0])), [root]);
        let (g, w) = (&*got.columns, &*want.columns);
        assert_eq!(g.start, w.start, "start column");
        assert_eq!(g.end, w.end, "end column");
        assert_eq!(g.level, w.level, "level column");
        assert_eq!(g.tag, w.tag, "tag column");
        assert_eq!(g.kind, w.kind, "kind column");
        assert_eq!(g.content, w.content, "content column");
        for tag in (0..syms).map(Sym) {
            assert_eq!(got.index.nodes(tag), want.index.nodes(tag), "tag {tag:?}");
        }
        assert_eq!(got.index.total_entries(), want.index.total_entries());
    }

    /// Everything a reader can get out of a handle without knowing the
    /// edits that built it: the document list and every document's bytes.
    fn served(s: &DocumentStore) -> (Vec<(DocId, u32)>, Vec<xmlparse::Element>) {
        let roots = s.children(NodeId(0)).unwrap();
        let docs = roots.iter().map(|&r| s.materialize(r).unwrap()).collect();
        (s.documents(), docs)
    }

    /// One random edit. The victim of a delete or replace is the first,
    /// a middle, or the last document (all three are the only one when
    /// one is left).
    fn random_edit(g: &mut Gen, s: &DocumentStore) {
        let docs = s.documents();
        let doc = xmlparse::parse_document(&random_doc(g)).unwrap();
        let victim = match g.usize_in(0, 2) {
            _ if docs.is_empty() => None,
            0 => docs.first(),
            1 => docs.get(g.usize_in(0, docs.len() - 1)),
            _ => docs.last(),
        };
        match (victim, g.usize_in(0, 2)) {
            (Some(&(id, _)), 1) => s.delete_document(id).unwrap(),
            (Some(&(id, _)), 2) => drop(s.replace_document(id, &doc).unwrap()),
            _ => drop(s.insert_document(&doc).unwrap()),
        }
    }

    /// One random edit, made while the log is down: it fails and leaves
    /// the document list as it was.
    fn random_edit_fails(g: &mut Gen, s: &DocumentStore) {
        let docs = s.documents();
        let doc = xmlparse::parse_document(&random_doc(g)).unwrap();
        let err = match (docs.last(), g.usize_in(0, 2)) {
            (Some(&(id, _)), 1) => s.delete_document(id).unwrap_err(),
            (Some(&(id, _)), 2) => s.replace_document(id, &doc).unwrap_err(),
            _ => s.insert_document(&doc).unwrap_err(),
        };
        assert!(err.is_transient(), "{err}");
        assert_eq!(s.documents(), docs);
    }

    /// What the next commit will start from: the current projection's
    /// predecessor (the writer's slot, empty after a failed commit took
    /// it), whether anybody besides the slot holds it or its columns, and
    /// where its `start` column lies and how much it holds.
    fn predecessor(s: &DocumentStore) -> Option<(bool, *const u32, usize)> {
        let w = s.writer();
        let p = w.prev.as_ref()?;
        assert_eq!(p.epoch + 1, s.epoch(), "the slot holds the predecessor");
        let held = Arc::strong_count(p) > 1 || Arc::strong_count(&p.columns) > 1;
        Some((held, p.columns.start.as_ptr(), p.columns.start.capacity()))
    }

    #[test]
    fn every_published_projection_equals_a_from_scratch_build() {
        // How many edits rebuilt their predecessor in place, and how many
        // copied the labels because a reader held it.
        let (mut recycled, mut held) = (0, 0);
        check("published projection == from-scratch build", 48, |g| {
            let opts = StoreOptions::in_memory().with_pool_pages(16);
            let s = DocumentStore::create(&opts.with_durable()).unwrap();
            let steps = g.usize_in(4, 16);
            let pin_at = g.usize_in(0, steps - 1);
            let mut pinned = None;
            // A reader that comes and goes: held across a few edits, then
            // dropped, so a later commit may find an older projection
            // unheld where the predecessor was.
            let mut passing = None;
            // Bare column handles and entry guards taken at random steps
            // and held to the end, with what they showed when taken.
            let (mut regions, mut guards) = (Vec::new(), Vec::new());
            for step in 0..steps {
                if step == pin_at {
                    let pin = s.snapshot();
                    let before = served(&pin);
                    pinned = Some((pin, before));
                }
                if g.ratio(1, 3) {
                    let region = s.columns();
                    regions.push((format!("{region:?}"), region));
                }
                if g.ratio(1, 3) {
                    let cols = s.columns();
                    let guard = s.nodes_with_tag(Sym(cols.tag[g.usize_in(0, cols.len() - 1)]));
                    guards.push((guard.to_vec(), guard));
                }
                match g.usize_in(0, 3) {
                    0 => passing = Some(s.snapshot()),
                    1 => passing = None,
                    _ => {}
                }
                // A commit whose log write fails publishes nothing, though
                // its reclaim may already have dropped the predecessor.
                if g.ratio(1, 4) {
                    s.inject_faults(Some(LOG_DOWN.parse().unwrap())).unwrap();
                    random_edit_fails(g, &s);
                    s.inject_faults(None).unwrap();
                }
                let spare = predecessor(&s);
                let before = s.shared.current();
                random_edit(g, &s);

                let published = s.shared.current();
                // Rebuilt in place exactly when nobody held the
                // predecessor: its buffer, unless it had to grow.
                if let Some((is_held, buf, room)) = spare {
                    let in_place = published.columns.start.as_ptr() == buf;
                    if is_held {
                        held += 1;
                        assert!(!in_place);
                    } else if published.node_count as usize <= room {
                        recycled += 1;
                        assert!(
                            in_place,
                            "step {step}: an unheld predecessor was not reused"
                        );
                    }
                }
                let scratch = from_scratch(&s, &published);
                assert_same_view(&published, &scratch, s.dict().len() as u32);
                // A document that outlives the edit is shared, not copied.
                for doc in &published.docs {
                    let id = doc.meta.doc_id;
                    if let Some(kept) = before.docs.iter().find(|d| d.meta.doc_id == id) {
                        assert!(Arc::ptr_eq(doc, kept));
                    }
                }
                // Every content symbol the rows hold is paged, its name
                // on a page.
                let names = s.shared.names();
                for id in (0..published.node_count).map(NodeId) {
                    if let Some(sym) = published.columns.content_sym(id) {
                        assert!(names.locs[sym as usize].is_some(), "row {id:?}");
                    }
                }
                drop(names);
                // The id bases, through the read path: a sampled node's
                // record and parent resolve the same under both.
                for _ in 0..4.min(published.node_count - 1) {
                    let id = NodeId(g.usize_in(1, published.node_count as usize - 1) as u32);
                    let rec = s.record(id).unwrap();
                    assert_eq!(rec, s.record_in(&scratch, id).unwrap());
                    let parent = s.parent(id).unwrap().unwrap();
                    let up = s.record(parent).unwrap();
                    assert!(up.start < rec.start && rec.end < up.end && up.level + 1 == rec.level);
                }
            }
            // The snapshot pinned mid-script still serves what it served
            // then, whatever was deleted or written over since; no region
            // or guard a reader held was rebuilt under it.
            let (pin, before) = pinned.unwrap();
            assert_eq!(served(&pin), before);
            for (was, region) in &regions {
                assert_eq!(&format!("{region:?}"), was, "a held region changed");
            }
            for (was, guard) in &guards {
                assert_eq!(&guard[..], &was[..], "held entries changed");
            }
            drop(passing);
        });
        assert!(recycled > 0 && held > 0, "recycled {recycled}, held {held}");
    }

    /// Every log write fails; page writes (the range matches no page) go
    /// through.
    const LOG_DOWN: &str = "seed=1,write_err=1.0,pages=4294967295-4294967295";

    #[test]
    fn a_failed_commit_leaves_no_stale_spare() {
        // A snapshot holds P_a; B deletes the first document and C
        // inserts, so C's rows below B's node count are B's. A failed
        // commit then drops B. Once the snapshot goes, P_a is unheld but
        // no predecessor of C: rebuilding it keeping C's prefix would
        // keep the deleted document's rows.
        let s = DocumentStore::create(&StoreOptions::in_memory().with_durable()).unwrap();
        let doc = |xml: &str| xmlparse::parse_document(xml).unwrap();
        let first = s.insert_document(&doc("<bib><a>1</a><b/></bib>")).unwrap();
        s.insert_document(&doc("<bib><c>2</c></bib>")).unwrap();
        let pin = s.snapshot();
        s.delete_document(first).unwrap();
        s.insert_document(&doc("<bib><d>3</d></bib>")).unwrap();
        s.inject_faults(Some(LOG_DOWN.parse().unwrap())).unwrap();
        assert!(s.insert_document(&doc("<bib/>")).is_err());
        s.inject_faults(None).unwrap();
        drop(pin);
        s.insert_document(&doc("<bib><e>4</e></bib>")).unwrap();
        let published = s.shared.current();
        let scratch = from_scratch(&s, &published);
        assert_same_view(&published, &scratch, s.dict().len() as u32);
    }

    #[test]
    fn a_pin_holds_only_the_documents_it_saw() {
        // A snapshot pinned over one document, held while another one is
        // inserted and deleted a hundred times. The pin holds the node run
        // of the document it saw and of none that came after it: a
        // churned copy's run goes free at the commit after its delete, and
        // a later insert lands on it. The copies' names are the pinned
        // document's, paged once.
        let mut xml = String::from("<bib>");
        for i in 0..200 {
            let article = format!(
                "<article><title>T{i}</title><author>A{}</author></article>",
                i % 7
            );
            xml.push_str(&article);
        }
        xml.push_str("</bib>");
        let pages = |s: &DocumentStore| -> Vec<u32> {
            let docs = &s.proj().docs;
            docs.iter().map(|d| d.meta.node_pages).collect()
        };
        let s = DocumentStore::create(&StoreOptions::in_memory().with_durable()).unwrap();
        s.insert_xml(&xml).unwrap();
        let pin = s.snapshot();
        let seen = served(&pin);
        let pinned: u32 = pages(&pin).iter().sum::<u32>() + s.name_pages();
        for round in 0..100 {
            let doc = s.insert_xml(&xml).unwrap();
            let churned = pages(&s)[1];
            s.delete_document(doc).unwrap();
            let total = s.total_pages();
            assert!(
                total <= pinned + 2 * churned,
                "round {round}: {total} pages, {pinned} pinned, {churned} per copy"
            );
        }
        assert_eq!(served(&pin), seen);
    }

    #[test]
    fn a_reopened_store_publishes_what_the_edits_built() {
        check("open == the chain of edits", 8, |g| {
            let (page, wal) = temp_paths("reopen_view");
            let opts = durable_opts(&page);
            let (built, bytes) = {
                let s = DocumentStore::create(&opts).unwrap();
                for _ in 0..g.usize_in(2, 10) {
                    random_edit(g, &s);
                    if g.ratio(1, 4) {
                        s.checkpoint().unwrap();
                    }
                }
                (s.shared.current(), served(&s))
            };
            let s = DocumentStore::open(&opts).unwrap();
            assert_same_view(&s.shared.current(), &built, s.dict().len() as u32);
            assert_eq!(served(&s), bytes);
            // Every row's parent, from the columns, is the row that
            // contains it one level up.
            assert_eq!(s.parent(NodeId(0)).unwrap(), None);
            for id in (1..s.node_count()).map(NodeId) {
                let up = s.entry(s.parent(id).unwrap().unwrap()).unwrap();
                assert!(up.is_parent_of(&s.entry(id).unwrap()), "row {id:?}");
            }
            let _ = std::fs::remove_file(&page);
            let _ = std::fs::remove_file(&wal);
        });
    }

    #[test]
    fn the_comparison_catches_each_missed_shift() {
        // Three documents, the first deleted: what `edited` published, the
        // from-scratch build it must equal, and the cut that was made.
        let s = DocumentStore::create(&StoreOptions::in_memory()).unwrap();
        let first = s.insert_xml("<a><b>one</b><c k=\"v\"/></a>").unwrap();
        s.insert_xml("<a><b>two</b></a>").unwrap();
        s.insert_xml("<a><c>three</c><b>two</b></a>").unwrap();
        let before = s.shared.current();
        let cut = Cut {
            ids: 1..1 + before.docs[0].meta.node_count,
            span: 2 * before.docs[0].meta.node_count,
        };
        let rows = cut.ids.end - cut.ids.start;
        s.delete_document(first).unwrap();
        let good = s.shared.current();
        let scratch = from_scratch(&s, &good);
        let syms = s.dict().len() as u32;
        let differs = |got: &Projection| {
            catch_unwind(AssertUnwindSafe(|| assert_same_view(got, &scratch, syms))).is_err()
        };
        // An edit of nothing is a copy to break.
        let copy = || good.edited(None, None, None);
        assert!(!differs(&copy()));

        // Ids after the cut not shifted down.
        let mut bad = copy();
        let mut index = TagIndex::new();
        for (tag, list) in bad.index.tags_with_nodes() {
            for e in list {
                let id = NodeId(e.id.0 + if e.id.0 >= cut.ids.start { rows } else { 0 });
                index.insert(tag, NodeEntry { id, ..*e });
            }
        }
        bad.index = index;
        assert!(differs(&bad), "unshifted ids pass");

        // Labels after the cut not shifted down.
        let mut bad = copy();
        let columns = Arc::make_mut(&mut bad.columns);
        for row in cut.ids.start as usize..columns.len() {
            columns.start[row] += cut.span;
            columns.end[row] += cut.span;
        }
        assert!(differs(&bad), "unshifted labels pass");

        // The (tag, kind) tables of the two documents left, taken for
        // each other's.
        let mut bad = copy();
        let swapped = |doc: &Doc, other: &Doc| {
            Arc::new(Doc {
                meta: doc.meta,
                pairs: other.pairs.clone(),
            })
        };
        let (a, b) = (&good.docs[0], &good.docs[1]);
        bad.docs = vec![swapped(a, b), swapped(b, a)];
        assert!(differs(&bad), "misplaced tables pass");

        // The synthetic root still ending where it did before the cut.
        let mut bad = copy();
        bad.root_end += cut.span;
        assert!(differs(&bad.fit_root()), "stale root passes");
    }
}
