//! Projections and MVCC: the immutable view a commit publishes, the
//! per-document state it is built from, snapshot pinning, the [`Entries`]
//! guards readers hold, and the limbo list that keeps freed page runs
//! away from the allocator while an older projection can still read them.

use super::commit::WriterState;
use super::meta::DocMeta;
use super::DocumentStore;
use crate::catalog::TagId;
use crate::columns::NodeColumns;
use crate::dict::NO_SYM;
use crate::error::{Result, StoreError};
use crate::index::{NodeEntry, TagIndex, ValueIndex};
use crate::node::{NodeId, NodeKind, NodeRecord, NO_PARENT};
use std::ops::Deref;
use std::sync::atomic::{self, Ordering};
use std::sync::Arc;

/// In-memory acceleration state for one stored document, rebuilt from
/// its pages on open: the local tag-index entries (indexed by local node
/// id), node kinds and content symbols for the columnar projection, and,
/// when the value index is on, the local content strings.
pub(super) struct DocAux {
    entries: Vec<(TagId, NodeEntry)>,
    kinds: Vec<NodeKind>,
    content_syms: Vec<u32>,
    values: Option<Vec<(u32, String)>>,
}

impl DocAux {
    pub(super) fn new(
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

/// One immutable view of the store, published atomically by a commit:
/// the tag/value indexes, the columnar label region, and the document
/// table with its derived global id/label spaces. Readers resolve
/// everything through one `Arc<Projection>`, so a reader never observes
/// a half-applied transaction — it either runs entirely against the
/// pre-commit projection or entirely against the post-commit one.
pub(super) struct Projection {
    /// Monotone commit counter; epoch `e + 1` is published by the
    /// commit that follows epoch `e`.
    pub epoch: u64,
    index: TagIndex,
    pub columns: Arc<NodeColumns>,
    pub value_index: Option<ValueIndex>,
    pub docs: Vec<DocMeta>,
    /// Global node id of each document's first local node; `id_bases[0]`
    /// is 1 (id 0 is the synthetic root).
    id_bases: Vec<u32>,
    /// Global `(start, end)` label offset of each document.
    label_offsets: Vec<u32>,
    pub node_count: u32,
    pub root_end: u32,
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

    /// Project a stored (local) record into the global id/label space.
    pub(super) fn globalize(&self, k: usize, rec: &mut NodeRecord) {
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
pub(super) fn build_projection(
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
pub(super) struct LimboRun {
    epoch: u64,
    base: u32,
    len: u32,
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

    /// Whether this handle is pinned to a snapshot.
    pub fn is_snapshot(&self) -> bool {
        self.pinned.is_some()
    }

    /// The commit epoch this handle reads at.
    pub fn epoch(&self) -> u64 {
        self.proj().epoch
    }

    /// Publish the writer's state as a fresh projection (next epoch):
    /// swap the current projection and remember it in the history for
    /// limbo reclamation.
    pub(super) fn install(&self, w: &mut WriterState) {
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
}

/// Park a committed-away document's runs in limbo, tagged with the
/// epoch that freed them (`w.epoch`, i.e. the just-installed one):
/// projections older than it may still read those pages.
pub(super) fn limbo_runs(w: &mut WriterState, removed: &DocMeta) {
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

/// Move limbo runs whose referencing projections are all gone back
/// to the free list. A history prefix entry with strong count 1 is
/// referenced only by the history itself — no snapshot handle, no
/// in-flight read, no `Entries` guard — so pages freed at or before
/// the *oldest surviving* epoch are reusable.
pub(super) fn reclaim_limbo(w: &mut WriterState) {
    while w.history.len() > 1 && Arc::strong_count(&w.history[0]) == 1 {
        w.history.remove(0);
    }
    // Pair with the release decrement of the last dropped handle,
    // ordering its page reads before our reuse writes.
    atomic::fence(Ordering::Acquire);
    let oldest_live = w.history.first().map_or(0, |p| p.epoch);
    let WriterState { limbo, free, .. } = w;
    limbo.retain(|l| {
        let reusable = l.epoch <= oldest_live;
        if reusable {
            free.extend(l.base..l.base + l.len);
        }
        !reusable
    });
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{store, SAMPLE};
    use super::super::{DocumentStore, StoreOptions};

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
}
