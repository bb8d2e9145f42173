//! What flows between operators: an operator's whole output, one batch
//! of rows that is a list of stored nodes, of a selection's match rows,
//! of groups, or of one-level rows. No operator takes or builds a tree.
//!
//! The collections a plan moves are not trees anyone built (Sec. 5.3,
//! "witness trees held as node identifiers"): the article collection a
//! scan hands to `GROUPBY` is stored nodes, each standing for its whole
//! subtree; a selection's witness trees are rows of the binding table it
//! matched; groups, and the left outer join's pairs (Fig. 8), are key
//! cells, member row ordinals and appended aggregate cells.
//! [`Batch::Stored`], [`Batch::Matches`] and [`Batch::Groups`] say so by
//! type, operators that read only keys or paths out of them work on the
//! labels, and the output operators emit [`Batch::Rows`]. Output writes
//! each kind of row straight onto the tape (`Results for Batch`), as the
//! tree it stands for. A grouping sink reads stored rows
//! (`Batch::stored`) and refuses any other input. DESIGN.md, *Binding
//! tables*.

use crate::error::{Error, Result};
use crate::matching::{match_db, Bindings, Row};
use crate::ops::project::ProjectItem;
use crate::ops::select::{chain_bound, keeps_witness};
use crate::output::Results;
use crate::pattern::{PatternNodeId, PatternTree};
use std::sync::Arc;
use xmlstore::{DocumentStore, NodeEntry, Sym, Tape};

/// An operator's output: every row it emits, in order.
#[derive(Debug, Clone, PartialEq)]
pub enum Batch {
    /// Each row is one stored node standing for its whole subtree.
    Stored(Vec<NodeEntry>),
    /// Each row is one row of a selection's binding table — the witness
    /// tree it induces, without the tree.
    Matches(Matches),
    /// Each row is one group over stored rows, held as columns — what
    /// `groupby` and the left outer join emit, and `aggregate` appends
    /// to.
    Groups(Groups),
    /// Each row is a one-level tree held as cells — what the output
    /// operators emit.
    Rows(Rows),
}

/// One cell of a row: a constructed element, or a reference to a stored
/// node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Cell {
    /// A constructed element, e.g. an aggregate's `<count>`.
    Elem {
        /// Interned tag name.
        tag: Sym,
        /// Optional interned character content.
        content: Option<Sym>,
    },
    /// A reference to a stored node. With `deep == true` the node stands
    /// for the whole stored subtree; otherwise just for the node itself
    /// (tag, attributes and content). The reference carries the full
    /// `(start, end, level)` label — in TIMBER the label *is* the node
    /// identifier — so structural work on references never reads the
    /// record.
    Ref {
        /// The stored node, with its containment label.
        node: NodeEntry,
        /// Whether the entire stored subtree is included.
        deep: bool,
    },
}

impl Cell {
    /// Record the cell on `out` and leave it open: a constructed element
    /// from its symbols, a reference through the store's column walk
    /// (its stored subtree too when deep).
    fn emit_open(&self, store: &DocumentStore, out: &mut Tape) -> Result<()> {
        match self {
            Cell::Elem { tag, content } => {
                out.open(*tag);
                if let Some(c) = content {
                    out.text(*c);
                }
            }
            Cell::Ref { node, deep } => store.emit_open(node.id, *deep, out)?,
        }
        Ok(())
    }
}

/// Record each of `cells` on `out`, closed.
fn emit_cells(store: &DocumentStore, cells: &[Cell], out: &mut Tape) -> Result<()> {
    for cell in cells {
        cell.emit_open(store, out)?;
        out.close();
    }
    Ok(())
}

/// A selection over the stored database: its pattern, adornment list
/// and binding table.
type Selection = (PatternTree, Vec<PatternNodeId>, Bindings);

/// Rows of a selection, as ordinals into its table.
#[derive(Debug, Clone, PartialEq)]
pub struct Matches {
    scan: Arc<Selection>,
    pub(crate) rows: Vec<u32>,
}

impl Matches {
    /// Every row of the match of `pattern`, whose witness trees keep the
    /// subtrees of the `sl` nodes.
    pub fn select(
        store: &DocumentStore,
        pattern: &PatternTree,
        sl: &[PatternNodeId],
    ) -> Result<Matches> {
        let table = match_db(store, pattern)?;
        let rows = (0..table.len() as u32).collect();
        let scan = Arc::new((pattern.clone(), sl.to_vec(), table));
        Ok(Matches { scan, rows })
    }

    /// Record row `i`'s witness tree on `out`: it mirrors the pattern's
    /// shape, each node a reference to the bound stored node, deep iff
    /// its pattern node is adorned.
    fn emit(&self, store: &DocumentStore, i: usize, out: &mut Tape) -> Result<()> {
        let (pattern, sl, table) = &*self.scan;
        let row = table.row(self.rows[i] as usize);
        emit_witness(store, pattern, sl, row, pattern.root(), out)
    }

    /// The node each row binds to `label`.
    fn column(&self, label: PatternNodeId) -> Vec<NodeEntry> {
        let col = self.scan.2.column(label);
        self.rows.iter().map(|&r| col[r as usize]).collect()
    }

    /// The fused select→project over these rows: their witness trees
    /// projected through the selection's pattern with `pl`, anchored. A
    /// list of one deep node that is the root, or a chain selection's
    /// bound node (`chain_bound`), gives its column as stored rows:
    /// every other node the list could select lies inside it. A list that
    /// keeps each witness tree whole (`keeps_witness`) gives the rows
    /// themselves. Any other list is refused.
    pub fn project(self, pl: &[ProjectItem]) -> Result<Batch> {
        let (pattern, sl, _) = &*self.scan;
        if let [ProjectItem { label, deep: true }] = *pl {
            if label == pattern.root() || chain_bound(pattern, sl) == Some(label) {
                return Ok(Batch::Stored(self.column(label)));
            }
        }
        if keeps_witness(pattern, sl, pl) {
            return Ok(Batch::Matches(self));
        }
        Err(Error::Unsupported(
            "a fused projection keeps the root, the bound node or the witness".into(),
        ))
    }
}

/// Record the witness subtree of pattern node `at` in `row`, closed: the
/// pattern walked in preorder.
fn emit_witness(
    store: &DocumentStore,
    pattern: &PatternTree,
    sl: &[PatternNodeId],
    row: Row<'_>,
    at: PatternNodeId,
    out: &mut Tape,
) -> Result<()> {
    store.emit_open(row[at].id, sl.contains(&at), out)?;
    for &child in &pattern.node(at).children {
        emit_witness(store, pattern, sl, row, child, out)?;
    }
    out.close();
    Ok(())
}

/// Groups over stored rows: each group's basis children, members and
/// appended cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Groups {
    /// The rows the members index: the sink's whole input.
    pub(crate) rows: Vec<NodeEntry>,
    /// Tags of `TAX_group_root`, `TAX_grouping_basis`, `TAX_group_subroot`.
    pub(crate) tags: [Sym; 3],
    /// The basis children of every group, `width` (basis items) a group.
    pub(crate) keys: Vec<Cell>,
    pub(crate) width: usize,
    /// Each group's members as ordinals into `rows`, in member order.
    pub(crate) members: Vec<Vec<u32>>,
    /// The cells `aggregate` appended to each group, in the order it
    /// ran (`afterLastChild($1)`); empty until it runs.
    pub(crate) appended: Vec<Vec<Cell>>,
}

impl Groups {
    /// The basis children of group `g`.
    pub(crate) fn key(&self, g: usize) -> &[Cell] {
        &self.keys[g * self.width..][..self.width]
    }

    /// The cells appended to group `g`.
    pub(crate) fn appended(&self, g: usize) -> &[Cell] {
        self.appended.get(g).map_or(&[], Vec::as_slice)
    }

    /// The stored rows that are group `g`'s members, in member order.
    pub fn member_rows(&self, g: usize) -> Vec<NodeEntry> {
        self.members[g]
            .iter()
            .map(|&m| self.rows[m as usize])
            .collect()
    }

    /// Record group `g`'s tree on `out`: `TAX_group_root {
    /// TAX_grouping_basis { keys }, TAX_group_subroot { one deep
    /// reference per member }, appended }`.
    fn emit(&self, store: &DocumentStore, g: usize, out: &mut Tape) -> Result<()> {
        let [root, basis, subroot] = self.tags;
        out.open(root);
        out.open(basis);
        emit_cells(store, self.key(g), out)?;
        out.close();
        out.open(subroot);
        for &m in &self.members[g] {
            store.emit_open(self.rows[m as usize].id, true, out)?;
            out.close();
        }
        out.close();
        emit_cells(store, self.appended(g), out)?;
        out.close();
        Ok(())
    }
}

/// One-level trees as columns: row `i` is an element `tag` whose
/// children are `cells[starts[i]..starts[i + 1]]`, each a deep stored
/// reference or a constructed element with content. Output population
/// writes a row straight from its cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows {
    pub(crate) tag: Sym,
    starts: Vec<u32>,
    cells: Vec<Cell>,
}

impl Rows {
    /// No rows yet, each to be tagged `tag`.
    pub(crate) fn new(tag: Sym) -> Rows {
        let (starts, cells) = (vec![0], Vec::new());
        Rows { tag, starts, cells }
    }

    /// Append a row of `cells`.
    pub(crate) fn push(&mut self, cells: impl IntoIterator<Item = Cell>) {
        self.cells.extend(cells);
        let end = u32::try_from(self.cells.len()).expect("a batch holds under 2^32 cells");
        self.starts.push(end);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether there is no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn row(&self, i: usize) -> &[Cell] {
        &self.cells[self.starts[i] as usize..self.starts[i + 1] as usize]
    }
}

/// A row is recorded as the one-level tree it stands for: the tag, each
/// cell, closed.
impl Results for Rows {
    fn count(&self) -> usize {
        self.len()
    }

    fn emit(&self, store: &DocumentStore, i: usize, out: &mut Tape) -> Result<()> {
        out.open(self.tag);
        emit_cells(store, self.row(i), out)?;
        out.close();
        Ok(())
    }
}

/// A batch is recorded a row at a time: a stored row as a deep
/// reference, a match as its witness tree, a group as its group tree, a
/// one-level row as its tag over its cells.
impl Results for Batch {
    fn count(&self) -> usize {
        self.len()
    }

    fn emit(&self, store: &DocumentStore, i: usize, out: &mut Tape) -> Result<()> {
        match self {
            Batch::Stored(rows) => {
                store.emit_open(rows[i].id, true, out)?;
                out.close();
                Ok(())
            }
            Batch::Matches(matches) => matches.emit(store, i, out),
            Batch::Groups(groups) => groups.emit(store, i, out),
            Batch::Rows(rows) => rows.emit(store, i, out),
        }
    }
}

/// No rows.
impl Default for Batch {
    fn default() -> Self {
        Batch::Stored(Vec::new())
    }
}

impl Batch {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Batch::Stored(rows) => rows.len(),
            Batch::Matches(matches) => matches.rows.len(),
            Batch::Groups(groups) => groups.members.len(),
            Batch::Rows(rows) => rows.len(),
        }
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node each row binds to `by`, for an operator keying the rows
    /// by it under `pattern`: a selection's rows bound there
    /// ([`chain_bound`]) read it off the table, and an empty batch binds
    /// none. Other rows are refused.
    pub(crate) fn bound(&self, pattern: &PatternTree, by: PatternNodeId) -> Result<Vec<NodeEntry>> {
        let binds = |(p, sl, _): &Selection| p == pattern && chain_bound(p, sl) == Some(by);
        match self {
            Batch::Matches(m) if binds(&m.scan) => Ok(m.column(by)),
            rows if rows.is_empty() && by < pattern.len() => Ok(Vec::new()),
            _ => Err(Error::Unsupported("keys by a scan's bound node".into())),
        }
    }

    /// The stored rows a grouping sink reads, each standing for its whole
    /// subtree: an empty batch holds none. Other rows are refused.
    pub(crate) fn stored(&self) -> Result<&[NodeEntry]> {
        match self {
            Batch::Stored(rows) => Ok(rows),
            rows if rows.is_empty() => Ok(&[]),
            _ => Err(Error::Unsupported(
                "a grouping sink reads stored rows".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::write_xml_lines;
    use xmlstore::{DocumentStore, StoreOptions};

    fn articles() -> (DocumentStore, Vec<NodeEntry>) {
        let s = DocumentStore::from_xml(
            "<bib><article><t>A</t></article><article><t>B</t></article></bib>",
            &StoreOptions::in_memory(),
        )
        .unwrap();
        let rows = s.nodes_with_tag(s.tag_id("article").unwrap()).to_vec();
        (s, rows)
    }

    #[test]
    fn a_stored_row_writes_its_whole_subtree() {
        let (s, rows) = articles();
        let mut out = String::new();
        write_xml_lines(&s, &Batch::Stored(rows), &mut out).unwrap();
        assert_eq!(
            out,
            "<article><t>A</t></article>\n<article><t>B</t></article>\n"
        );
    }

    #[test]
    fn grouping_sinks_read_stored_rows_or_none() {
        // Each grouping sink groups an empty batch, of any kind, into no
        // output, and refuses a selection's matches, groups or one-level
        // rows.
        use crate::ops::{cube, groupby, rollup};
        use crate::ops::{AggFunc, BasisItem, RollupShape};
        use crate::pattern::{Axis, Pred};
        let (s, rows) = articles();
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let t = p.add_child(p.root(), Axis::Child, Pred::tag("t"));
        let basis = [BasisItem::content(t)];
        let (count, flat) = (AggFunc::Count, RollupShape::Flat);
        let sinks = |input: &Batch| {
            [
                groupby(&s, input, &p, &basis, &[]).map(|(out, _)| out.len()),
                rollup(&s, input, &p, &basis, &p, t, count, "n", flat).map(|(out, _)| out.len()),
                cube(&s, input, &p, &basis, &p, t, count, "n").map(|(out, _)| out.len()),
            ]
        };
        let nothing = PatternTree::with_root(Pred::tag("no_such_tag"));
        let unmatched = Batch::Matches(Matches::select(&s, &nothing, &[0]).unwrap());
        for empty in [Batch::default(), unmatched] {
            for got in sinks(&empty) {
                assert_eq!(got.unwrap(), 0, "{empty:?}");
            }
        }
        let stored = Batch::Stored(rows);
        assert!(sinks(&stored).into_iter().all(|got| got.unwrap() > 0));
        let matches = Batch::Matches(Matches::select(&s, &p, &[p.root()]).unwrap());
        let (groups, _) = groupby(&s, &stored, &p, &basis, &[]).unwrap();
        let (rows, _) = rollup(&s, &stored, &p, &basis, &p, t, count, "n", flat).unwrap();
        assert!(matches!(groups, Batch::Groups(_)) && matches!(rows, Batch::Rows(_)));
        for input in [matches, groups, rows] {
            for refused in sinks(&input) {
                assert!(matches!(refused, Err(Error::Unsupported(_))), "{refused:?}");
            }
        }
    }
}
