//! Output population (Sec. 5.3) as walk → fetch → replay: the one walk
//! of a stored subtree records its events and the rows whose values it
//! writes into a [`Tape`], [`DocumentStore::values`] fetches those rows
//! in one batched, page-ordered read, and a [`RowWriter`] replays the
//! tape over the fetched values (DESIGN.md, *Output population*).

use super::DocumentStore;
use crate::columns::NodeColumns;
use crate::dict::{Dictionary, Sym};
use crate::error::Result;
use crate::heap::{read_values, Values};
use crate::node::{NodeId, NodeKind};
use std::sync::Arc;
use xmlparse::XmlSink;

/// One step of the output walk: names are symbols, and `Attr` (an
/// attribute of the element just opened) and `Value` (character data)
/// take their value from the next of the tape's rows, so recording reads
/// no page and resolves no string. `Text` is constructed character data.
#[derive(Debug, Clone, Copy)]
enum Event {
    Open(Sym),
    Attr(Sym),
    Value,
    Text(Sym),
    Close,
    EndTree,
}

/// What the output walk recorded: its events in order, and the rows
/// whose values its `Attr` and `Value` events write, in the same order.
/// An `Attr` comes only between an `Open` and what the element holds.
#[derive(Debug, Default)]
pub struct Tape {
    events: Vec<Event>,
    rows: Vec<NodeId>,
}

impl Tape {
    /// An element starts.
    pub fn open(&mut self, tag: Sym) {
        self.events.push(Event::Open(tag));
    }

    fn value(&mut self, row: NodeId) {
        self.events.push(Event::Value);
        self.rows.push(row);
    }

    /// Constructed character data.
    pub fn text(&mut self, text: Sym) {
        self.events.push(Event::Text(text));
    }

    /// The innermost open element ends.
    pub fn close(&mut self) {
        self.events.push(Event::Close);
    }

    /// A result tree ends; the replay hands its caller the sink here.
    pub fn end_tree(&mut self) {
        self.events.push(Event::EndTree);
    }

    /// Number of events recorded.
    pub fn events(&self) -> usize {
        self.events.len()
    }

    /// The rows whose values the tape writes, in order — what
    /// [`DocumentStore::values`] fetches before the replay.
    pub fn rows(&self) -> &[NodeId] {
        &self.rows
    }

    /// Forget what was recorded, keeping the buffers.
    pub fn clear(&mut self) {
        self.events.clear();
        self.rows.clear();
    }
}

/// Replays [`Tape`]s into an [`XmlSink`]: names resolved through the
/// dictionary, each stored value the next of the tape's fetched values.
/// A name is resolved once per writer, by one short dictionary read; no
/// lock is held between calls, so interning beside the write never waits.
pub struct RowWriter<'a, S> {
    dict: &'a Dictionary,
    sink: &'a mut S,
    /// Per symbol, 1 + the index of its name in `names`, 0 until resolved.
    slots: Vec<u32>,
    names: Vec<Arc<str>>,
    /// The elements still open, outermost first, as indices into `names`.
    open: Vec<u32>,
}

impl<'a, S: XmlSink> RowWriter<'a, S> {
    /// A writer into `sink`.
    pub fn new(dict: &'a Dictionary, sink: &'a mut S) -> Self {
        RowWriter {
            dict,
            sink,
            slots: Vec::new(),
            names: Vec::new(),
            open: Vec::new(),
        }
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

    /// Write `tape` to the sink, its stored values taken in order from
    /// `values` — the batched read of [`Tape::rows`] — and `end_tree`
    /// called with the sink where a result tree ends.
    pub fn replay(&mut self, tape: &Tape, values: &Values, mut end_tree: impl FnMut(&mut S)) {
        // A row without content reads as empty.
        let mut values = values.iter().map(Option::unwrap_or_default);
        for &event in &tape.events {
            match event {
                Event::Open(tag) => {
                    let name = self.name(tag);
                    self.sink.open(&self.names[name as usize]);
                    self.open.push(name);
                }
                Event::Attr(tag) => {
                    let name = self.name(tag);
                    let value = values.next().unwrap_or_default();
                    let name = self.names[name as usize].trim_start_matches('@');
                    self.sink.attr(name, value);
                }
                Event::Value => self.sink.text(values.next().unwrap_or_default()),
                Event::Text(text) => {
                    let text = self.name(text);
                    self.sink.text(&self.names[text as usize]);
                }
                Event::Close => {
                    if let Some(name) = self.open.pop() {
                        self.sink.close(&self.names[name as usize]);
                    }
                }
                Event::EndTree => end_tree(self.sink),
            }
        }
    }
}

/// The start of element row `row`: tag, attribute run, merged content.
/// Returns the first row after the attribute run.
fn emit_start(cols: &NodeColumns, row: u32, out: &mut Tape) -> u32 {
    out.open(Sym(cols.tag[row as usize]));
    let attrs = cols.attr_ids(NodeId(row));
    for a in attrs.clone() {
        out.events.push(Event::Attr(Sym(cols.tag[a as usize])));
        out.rows.push(NodeId(a));
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
    /// of Sec. 5.3 for a whole list. A row's value is its content
    /// symbol's name, and where that lies comes from the store's name
    /// table, not from a node page; name pages are asked for in
    /// ascending order, each distinct page once, so a list costs at most
    /// its distinct name pages in requests and, cold, in disk reads. A
    /// page that cannot be read fails the whole list.
    pub fn values(&self, ids: &[NodeId]) -> Result<Values> {
        let proj = self.proj();
        let names = self.shared.names();
        let mut locs = Vec::with_capacity(ids.len());
        for &id in ids {
            proj.check(id)?;
            locs.push(names.loc(proj.columns.content_sym(id)));
        }
        drop(names);
        read_values(|pid, f| self.shared.with_page(pid, |p| f(p)), &locs)
    }

    /// Character content of `id`: `Some` for attributes, text nodes, and
    /// text-only elements; `None` otherwise. The batch of one: one name
    /// page request per page the value lies on, no node page.
    pub fn content(&self, id: NodeId) -> Result<Option<String>> {
        Ok(self.values(&[id])?.get(0).map(str::to_owned))
    }

    /// Record stored node `id` on `out` and leave it open: its tag, its
    /// attribute run, its merged content and, when `deep`, every
    /// descendant (`#text` rows as values, elements nested and closed by
    /// their levels). The caller may add children of its own and
    /// then closes the element.
    ///
    /// The one walk of a stored subtree for output, and it reads only the
    /// label columns. Fetch the tape's rows with [`values`](Self::values)
    /// on the same [`snapshot`](DocumentStore::snapshot), so the rows
    /// and their values come from one projection, then replay it.
    pub fn emit_open(&self, id: NodeId, deep: bool, out: &mut Tape) -> Result<()> {
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
        // deeper than its root, and an element ends where a row no
        // deeper than it starts.
        let level = cols.level[id.0 as usize];
        let mut open: Vec<u16> = Vec::new();
        while (j as usize) < cols.len() && cols.level[j as usize] > level {
            let row = j as usize;
            while open.last().is_some_and(|l| *l >= cols.level[row]) {
                out.close();
                open.pop();
            }
            if cols.kind[row] == NodeKind::Text {
                out.value(NodeId(j));
                j += 1;
            } else {
                open.push(cols.level[row]);
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
        let mut tape = Tape::default();
        pinned.emit_open(id, true, &mut tape)?;
        tape.close();
        let values = pinned.values(tape.rows())?;
        let mut dom = xmlparse::ElementBuilder::new();
        RowWriter::new(pinned.dict(), &mut dom).replay(&tape, &values, |_| {});
        Ok(dom.finish())
    }
}
