//! Output population (Sec. 5.3) as list → fetch → write: the one walk of
//! a stored subtree run into a `Vec<NodeId>` lists the rows whose values
//! it will write, [`DocumentStore::values`] fetches them in one batched,
//! page-ordered read, and the same walk run into a [`RowWriter`] writes
//! them (DESIGN.md, *Output population*).

use super::DocumentStore;
use crate::columns::NodeColumns;
use crate::dict::{Dictionary, Sym};
use crate::error::Result;
use crate::heap::{read_values, Values};
use crate::node::{NodeId, NodeKind};
use std::sync::Arc;
use xmlparse::XmlSink;

/// Receiver of the output walk: names as symbols, a stored value as the
/// row that holds it, so the walk reads no page and resolves no string.
/// `attr` comes only between an `open` and what the element contains.
pub trait RowSink {
    /// An element starts.
    fn open(&mut self, tag: Sym);
    /// An attribute of the element just opened; `row` holds its value.
    fn attr(&mut self, tag: Sym, row: NodeId);
    /// The content of stored `row`, as character data.
    fn value(&mut self, row: NodeId);
    /// Constructed character data.
    fn text(&mut self, text: Sym);
    /// The innermost open element ends.
    fn close(&mut self);
}

/// The listing pass: the rows whose values the walk writes, in order.
impl RowSink for Vec<NodeId> {
    fn open(&mut self, _tag: Sym) {}
    fn attr(&mut self, _tag: Sym, row: NodeId) {
        self.push(row);
    }
    fn value(&mut self, row: NodeId) {
        self.push(row);
    }
    fn text(&mut self, _text: Sym) {}
    fn close(&mut self) {}
}

/// The writing pass: reports the walk to an [`XmlSink`], names resolved
/// through the dictionary, each stored value the next of `values` — the
/// batched read of what the listing pass of the same walk produced.
/// A name is resolved once per writer, by one short dictionary read; no
/// lock is held between calls, so interning beside the write never waits.
pub struct RowWriter<'a, 'v, S> {
    dict: &'a Dictionary,
    values: &'a mut dyn Iterator<Item = Option<&'v str>>,
    sink: &'a mut S,
    /// Per symbol, 1 + the index of its name in `names`, 0 until resolved.
    slots: Vec<u32>,
    names: Vec<Arc<str>>,
    /// The elements still open, outermost first, as indices into `names`.
    open: Vec<u32>,
}

impl<'a, 'v, S: XmlSink> RowWriter<'a, 'v, S> {
    /// A writer into `sink` that takes stored values from `values`.
    pub fn new(
        dict: &'a Dictionary,
        values: &'a mut dyn Iterator<Item = Option<&'v str>>,
        sink: &'a mut S,
    ) -> Self {
        RowWriter {
            dict,
            values,
            sink,
            slots: Vec::new(),
            names: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The sink written to, between two walks.
    pub fn sink(&mut self) -> &mut S {
        self.sink
    }

    /// The index in `names` of the name of `sym`, resolved on first use.
    fn name(&mut self, sym: Sym) -> u32 {
        let at = sym.0 as usize;
        if at >= self.slots.len() {
            self.slots.resize(at + 1, 0);
        }
        if self.slots[at] == 0 {
            self.names.push(self.dict.resolve(sym));
            self.slots[at] = self.names.len() as u32;
        }
        self.slots[at] - 1
    }
}

impl<S: XmlSink> RowSink for RowWriter<'_, '_, S> {
    fn open(&mut self, tag: Sym) {
        let name = self.name(tag);
        self.sink.open(&self.names[name as usize]);
        self.open.push(name);
    }

    fn attr(&mut self, tag: Sym, _row: NodeId) {
        let name = self.name(tag);
        let name = &self.names[name as usize];
        let value = self.values.next().flatten().unwrap_or_default();
        self.sink.attr(name.trim_start_matches('@'), value);
    }

    fn value(&mut self, _row: NodeId) {
        // A row without content reads as empty.
        self.sink
            .text(self.values.next().flatten().unwrap_or_default());
    }

    fn text(&mut self, text: Sym) {
        let name = self.name(text);
        self.sink.text(&self.names[name as usize]);
    }

    fn close(&mut self) {
        if let Some(name) = self.open.pop() {
            self.sink.close(&self.names[name as usize]);
        }
    }
}

/// The start of element row `row`: tag, attribute run, merged content.
/// Returns the first row after the attribute run.
fn emit_start(cols: &NodeColumns, row: u32, out: &mut impl RowSink) -> u32 {
    out.open(Sym(cols.tag[row as usize]));
    let attrs = cols.attr_ids(NodeId(row));
    for a in attrs.clone() {
        out.attr(Sym(cols.tag[a as usize]), NodeId(a));
    }
    // Element content, and an attribute or text node reported on its
    // own, all surface as character data.
    if cols.content_sym(NodeId(row)).is_some() {
        out.value(NodeId(row));
    }
    attrs.end
}

impl DocumentStore {
    /// The contents of `ids`, in request order — the "data value look-up"
    /// of Sec. 5.3 for a whole list. Locations come from the projection's
    /// per-document arrays, not from node records; heap pages are asked
    /// for in ascending order, each distinct page once, so a list costs
    /// at most its distinct heap pages in requests and, cold, in disk
    /// reads. A page that cannot be read fails the whole list.
    pub fn values(&self, ids: &[NodeId]) -> Result<Values> {
        let proj = self.proj();
        let locs = ids
            .iter()
            .map(|&id| proj.check(id).map(|()| proj.value_loc(id)))
            .collect::<Result<Vec<_>>>()?;
        read_values(|pid, f| self.shared.with_page(pid, |p| f(p)), &locs)
    }

    /// Character content of `id`: `Some` for attributes, text nodes, and
    /// text-only elements; `None` otherwise. The batch of one: one heap
    /// page request per page the value lies on, no node page.
    pub fn content(&self, id: NodeId) -> Result<Option<String>> {
        Ok(self.values(&[id])?.get(0).map(str::to_owned))
    }

    /// Report stored node `id` to `out` and leave it open: its tag, its
    /// attribute run, its merged content and, when `deep`, every
    /// descendant (`#text` rows as values, elements nested and closed by
    /// their `end` labels). The caller may add children of its own and
    /// then closes the element.
    ///
    /// The one walk of a stored subtree for output, and it reads only the
    /// label columns: into a `Vec<NodeId>` it lists the rows whose values
    /// will be written, into a [`RowWriter`] over those rows' fetched
    /// values it writes them. Run both on one
    /// [`snapshot`](DocumentStore::snapshot), so they see one projection.
    pub fn emit_open(&self, id: NodeId, deep: bool, out: &mut impl RowSink) -> Result<()> {
        // Output runs on a pinned snapshot, a reference at a time:
        // borrow the pin rather than take a count on it per reference.
        let current;
        let proj = match &self.pinned {
            Some(p) => p,
            None => {
                current = self.proj();
                &current
            }
        };
        proj.check(id)?;
        let cols = &*proj.columns;
        let mut j = emit_start(cols, id.0, out);
        if !deep {
            return Ok(());
        }
        // Rows are in document order, so the subtree is the run of rows
        // starting before the root's end.
        let stop = cols.end[id.0 as usize];
        let mut open: Vec<u32> = Vec::new();
        while (j as usize) < cols.len() && cols.start[j as usize] < stop {
            let row = j as usize;
            while open.last().is_some_and(|end| *end <= cols.start[row]) {
                out.close();
                open.pop();
            }
            if cols.kind[row] == NodeKind::Text {
                out.value(NodeId(j));
                j += 1;
            } else {
                open.push(cols.end[row]);
                j = emit_start(cols, j, out);
            }
        }
        for _ in open {
            out.close();
        }
        Ok(())
    }

    /// Rebuild the DOM element for the subtree rooted at `id` — the "data
    /// population" step of Sec. 5.3. Attribute children become attributes,
    /// `#text` children become text nodes, merged content becomes a text
    /// child.
    pub fn materialize(&self, id: NodeId) -> Result<xmlparse::Element> {
        let pinned = self.snapshot();
        let mut rows = Vec::new();
        pinned.emit_open(id, true, &mut rows)?;
        let values = pinned.values(&rows)?;
        let mut dom = xmlparse::ElementBuilder::new();
        let mut fetched = values.iter();
        let mut out = RowWriter::new(pinned.dict(), &mut fetched, &mut dom);
        pinned.emit_open(id, true, &mut out)?;
        out.close();
        Ok(dom.finish())
    }
}
