//! Pattern-tree matching (Sec. 5.2).
//!
//! A match is a [`Bindings`] table — one column per pattern node, one
//! row per embedding, rows in document order of the pattern root. Two
//! matchers fill it:
//!
//! * the **columnar matcher** ([`match_db`], [`match_db_scoped`],
//!   [`match_in_scopes`]) runs against the stored database on index data
//!   alone. Candidates per pattern node come straight from the tag index;
//!   each pattern edge is one batch
//!   containment join ([`kernels::containment_runs`]) that yields a
//!   gather index, through which every column bound so far is extended
//!   at once, the child-axis level test applied to the gathered run. No
//!   row is ever allocated on its own. Content predicates and
//!   cross-node join predicates compare the *symbols* of the label
//!   columns — the loader interns every stored value, so equal symbol ⇔
//!   equal string — and resolve a symbol to text only for an ordering or
//!   substring test; no data page is requested. A keyed operator matches
//!   inside its stored rows through [`for_each_match`].
//!
//! A full-scan matcher ([`naive::match_db_scan`]) is kept as the
//! ablation baseline the paper argues against ("the simplest way to find
//! matches for a pattern tree is to scan the entire database").

mod bindings;
pub mod naive;
pub mod structural;
pub mod vnode;
mod walk;

pub use bindings::{Bindings, Row};
pub use walk::for_each_match;

use crate::error::Result;
use crate::pattern::{Axis, PatternTree, Pred};
use std::ops::{Deref, Range};
use xmlstore::{
    kernels, DocumentStore, Entries, NodeColumns, NodeEntry, NodeId, NodeKind, Sym, NO_SYM,
};

/// Match `pattern` against the whole stored database.
pub fn match_db(store: &DocumentStore, pattern: &PatternTree) -> Result<Bindings> {
    match_db_scoped(store, pattern, None)
}

/// Match `pattern` against the subtree of the database rooted at `scope`
/// (the scope node itself included). With `scope == None` the whole
/// document is searched.
pub fn match_db_scoped(
    store: &DocumentStore,
    pattern: &PatternTree,
    scope: Option<NodeEntry>,
) -> Result<Bindings> {
    Ok(match_columns(store, pattern, scope, None).0)
}

/// Match `pattern` inside every subtree of `scopes`: the rows of
/// `match_db_scoped(scope)` for each scope in turn, concatenated, plus
/// the index into `scopes` each row came from. With `anchor_root` the
/// pattern root binds only the scope nodes themselves.
///
/// When `scopes` is sorted by `start` and pairwise disjoint (no scope
/// inside another, none repeated) — what a scan produces — this is one
/// match: the root candidates are cut to the scopes by a single merge of
/// two sorted lists, and the rows come out scope-major without a sort.
/// Any other list is matched one scope at a time.
pub fn match_in_scopes(
    store: &DocumentStore,
    pattern: &PatternTree,
    scopes: &[NodeEntry],
    anchor_root: bool,
) -> Result<(Bindings, Vec<u32>)> {
    if scopes.windows(2).all(|w| w[0].end < w[1].start) {
        return Ok(match_columns(
            store,
            pattern,
            None,
            Some((scopes, anchor_root)),
        ));
    }
    let mut table = Bindings::new(pattern.len());
    let mut scope_of_row = Vec::new();
    for (si, scope) in scopes.iter().enumerate() {
        let one = std::slice::from_ref(scope);
        let (rows, _) = match_columns(store, pattern, Some(*scope), Some((one, anchor_root)));
        table.append(rows);
        scope_of_row.resize(table.len(), si as u32);
    }
    Ok((table, scope_of_row))
}

/// The candidate list of one pattern node, sorted by `start`: a window
/// of a pinned index list when the tag decides, a filtered copy when a
/// data predicate had to be evaluated.
enum Candidates {
    Index(Entries, Range<usize>),
    Filtered(Vec<NodeEntry>),
}

impl Deref for Candidates {
    type Target = [NodeEntry];
    fn deref(&self) -> &[NodeEntry] {
        match self {
            Candidates::Index(list, window) => &list[window.clone()],
            Candidates::Filtered(list) => list,
        }
    }
}

/// Candidates of one pattern node inside `scope` (the whole store when
/// `None`). The scope restriction is a binary-searched window of the
/// index list, so a scoped match costs in proportion to the *scoped*
/// candidates, not the index.
fn candidates(
    store: &DocumentStore,
    cols: &NodeColumns,
    pred: &Pred,
    scope: Option<&NodeEntry>,
) -> Candidates {
    let Some(tag) = pred.required_tag() else {
        // No tag pinned: every node in scope. Node ids are preorder
        // ordinals, so the scoped set is one dense id range of the label
        // columns — already in document order. Attributes are never
        // bound as nodes.
        return Candidates::Filtered(
            structural::scoped_ids(cols, scope)
                .filter(|&i| cols.kind[i as usize] != NodeKind::Attribute)
                .map(|i| cols.entry(NodeId(i)))
                .filter(|e| matches!(pred, Pred::True) || eval_stored_local(store, cols, pred, e))
                .collect(),
        );
    };
    let list = match store.tag_id(tag) {
        Some(id) => store.nodes_with_tag(id),
        None => store.no_entries(),
    };
    let window = match scope {
        Some(s) => {
            let lo = list.partition_point(|e| e.start < s.start);
            lo..lo + list[lo..].partition_point(|e| e.start < s.end)
        }
        None => 0..list.len(),
    };
    if !pred.needs_data() {
        return Candidates::Index(list, window);
    }
    // A string `content = "v"` conjunct holds exactly where the content
    // is `v`, and every stored value is interned: one comparison of the
    // content symbol per candidate. A literal the dictionary does not
    // hold is no node's content.
    let eq = pred.string_eq_content();
    let want = match eq.map(|v| store.dict().get(v)) {
        Some(None) => return Candidates::Filtered(Vec::new()),
        want => want.flatten(),
    };
    let decided = pred
        .conjuncts()
        .iter()
        .all(|c| !c.needs_data() || eq.is_some_and(|v| c.string_eq_content() == Some(v)));
    Candidates::Filtered(
        list[window]
            .iter()
            .filter(|e| want.map_or(true, |sym| cols.content[e.id.0 as usize] == sym.0))
            .filter(|e| decided || eval_stored_local(store, cols, pred, e))
            .copied()
            .collect(),
    )
}

/// The columnar matcher behind every stored match. `scope` restricts
/// every candidate list to one subtree; `scopes` restricts the *root*
/// candidates to a start-sorted disjoint list (see [`match_in_scopes`])
/// and asks for the scope of each row back (empty otherwise).
fn match_columns(
    store: &DocumentStore,
    pattern: &PatternTree,
    scope: Option<NodeEntry>,
    scopes: Option<(&[NodeEntry], bool)>,
) -> (Bindings, Vec<u32>) {
    let cols = store.columns();
    let order = pattern.preorder();
    let cands: Vec<Candidates> = pattern
        .iter()
        .map(|(_, node)| candidates(store, &cols, &node.pred, scope.as_ref()))
        .collect();

    // 1. The root column: every root candidate, or the candidates at and
    //    below each scope — the scope node itself sorts immediately
    //    before the run of its descendants.
    let mut table = Bindings::new(pattern.len());
    let root = &cands[order[0]];
    match scopes {
        None => table.set_column(order[0], root.to_vec()),
        Some((scopes, anchor_root)) => {
            let mut col = Vec::new();
            let runs = kernels::containment_runs(scopes, root);
            for (s, &(lo, hi)) in scopes.iter().zip(&runs) {
                let (lo, hi) = (lo as usize, hi as usize);
                let own = lo > 0 && root[lo - 1].id == s.id;
                let from = lo - usize::from(own);
                let to = if anchor_root { lo } else { hi };
                col.extend_from_slice(&root[from..to]);
            }
            table.set_column(order[0], col);
        }
    }

    // 2. One containment join per pattern edge, parents before children.
    //    The join yields the new column and a gather index (which
    //    existing row each new row extends); every bound column follows
    //    the index.
    for &pid in order.iter().skip(1) {
        let node = pattern.node(pid);
        let parents = table.column(node.parent.expect("non-root"));
        let below = &cands[pid][..];
        let mut gather: Vec<u32> = Vec::new();
        let mut col: Vec<NodeEntry> = Vec::new();
        let mut extend = |row: usize, p: &NodeEntry, run: &[NodeEntry]| {
            for d in run {
                if node.axis == Axis::Child && d.level != p.level + 1 {
                    continue;
                }
                gather.push(row as u32);
                col.push(*d);
            }
        };
        // The parent column is normally monotone in `start` (rows are
        // generated in document order of the root), which is what the
        // batch join requires. Below the root it stops being so where
        // elements of one tag nest: the inner element's rows follow the
        // outer element's later descendants. A join under such a column
        // falls back to a range search per row.
        if parents.windows(2).all(|w| w[0].start <= w[1].start) {
            let mut distinct = parents.to_vec();
            distinct.dedup_by_key(|p| p.id);
            let runs = kernels::containment_runs(&distinct, below);
            let mut at = 0;
            for (row, p) in parents.iter().enumerate() {
                if distinct[at].id != p.id {
                    at += 1;
                }
                let (lo, hi) = runs[at];
                extend(row, p, &below[lo as usize..hi as usize]);
            }
        } else {
            kernels::note_fallback_rows(parents.len());
            for (row, p) in parents.iter().enumerate() {
                extend(row, p, structural::contained_in(below, p));
            }
        }
        table.gather(&gather);
        if col.is_empty() {
            break;
        }
        table.set_column(pid, col);
    }

    // 3. Cross-node join predicates: equal content symbols, and a node
    //    without content joins nothing.
    let joins = pattern.join_pairs();
    if !joins.is_empty() && !table.is_empty() {
        let content = |pid: usize, row: usize| cols.content[table.column(pid)[row].id.0 as usize];
        let keep: Vec<u32> = (0..table.len())
            .filter(|&row| {
                joins.iter().all(|&(a, b)| {
                    let sym = content(a, row);
                    sym != NO_SYM && sym == content(b, row)
                })
            })
            .map(|row| row as u32)
            .collect();
        table.gather(&keep);
    }

    // 4. The scope of each row: rows are scope-major and the scopes are
    //    disjoint, so one merge against the root column finds them.
    let scope_of_row = scopes.map_or_else(Vec::new, |(scopes, _)| {
        let mut si = 0;
        let scope_of = |e: &NodeEntry| {
            while scopes[si].end < e.start {
                si += 1;
            }
            si as u32
        };
        table.column(order[0]).iter().map(scope_of).collect()
    });
    (table, scope_of_row)
}

/// Evaluate the local predicate of a stored node on the label columns:
/// tag and content are symbols there, resolved to their interned text —
/// no page access.
fn eval_stored_local(
    store: &DocumentStore,
    cols: &NodeColumns,
    pred: &Pred,
    e: &NodeEntry,
) -> bool {
    let dict = store.dict();
    let text = |sym: u32| dict.resolve(Sym(sym));
    let tag = text(cols.tag[e.id.0 as usize]);
    let content = cols.content_sym(e.id).map(text);
    pred.eval_local(&tag, content.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pred;
    use xmlstore::StoreOptions;

    const SAMPLE: &str = "<bib>\
        <article><title>Transaction Mng</title><author>Silberschatz</author></article>\
        <article><title>Overview of Transaction Mng</title><author>Silberschatz</author><author>Garcia-Molina</author></article>\
        <article><title>Transaction Mng for the Web</title><author>Thompson</author></article>\
        <article><title>Other Topic</title><author>Unrelated</author></article>\
        <book><title>Transaction Books</title><author>NotAnArticle</author></book>\
    </bib>";

    fn store() -> DocumentStore {
        DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    /// The Figure 1 pattern.
    fn fig1_pattern() -> PatternTree {
        let mut p = PatternTree::with_root(Pred::tag("article"));
        p.add_child(
            p.root(),
            Axis::Child,
            Pred::tag("title").and(Pred::content_contains("Transaction")),
        );
        p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        p
    }

    #[test]
    fn fig1_yields_fig2_witness_count() {
        // Figure 2: four witness trees — one per (article, author) pair
        // among Transaction-titled articles.
        let s = store();
        let bindings = match_db(&s, &fig1_pattern()).unwrap();
        assert_eq!(bindings.len(), 4);
    }

    #[test]
    fn bindings_are_in_document_order() {
        let s = store();
        let bindings = match_db(&s, &fig1_pattern()).unwrap();
        assert!(bindings
            .column(0)
            .windows(2)
            .all(|w| w[0].start <= w[1].start));
    }

    #[test]
    fn ad_axis_reaches_depths() {
        let s = store();
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        p.add_child(p.root(), Axis::Descendant, Pred::tag("author"));
        let bindings = match_db(&s, &p).unwrap();
        assert_eq!(bindings.len(), 6); // 5 article authors + 1 book author
    }

    #[test]
    fn pc_axis_enforces_level() {
        let s = store();
        // doc_root -pc-> author never holds (authors are two levels down).
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        assert!(match_db(&s, &p).unwrap().is_empty());
    }

    #[test]
    fn scoped_match_restricts_to_subtree() {
        let s = store();
        let article_tag = s.tag_id("article").unwrap();
        let second_article = s.nodes_with_tag(article_tag)[1];
        let mut p = PatternTree::with_root(Pred::tag("article"));
        p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let bindings = match_db_scoped(&s, &p, Some(second_article)).unwrap();
        assert_eq!(bindings.len(), 2); // only the two authors of article 2
    }

    #[test]
    fn join_predicate_filters_bindings() {
        let s = store();
        // article with two author children having equal content — none in
        // this sample (all co-author pairs differ).
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let a1 = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        p.add_child(
            p.root(),
            Axis::Child,
            Pred::tag("author").and(Pred::ContentEqNode(a1)),
        );
        let bindings = match_db(&s, &p).unwrap();
        // Self-pairs do exist ((a,a) for each author): the pattern does
        // not force distinct bindings. 4 article-authors → but only
        // article 2 has 2 authors, giving (a1,a1),(a1,a2),(a2,a1),(a2,a2)
        // → equal-content pairs are the 4 self-pairs of single-author
        // articles... let's count: every (author,author) pair within an
        // article with equal content. Articles 1,3,4: 1 author → 1 pair
        // each. Article 2: authors differ → only self pairs (2).
        assert_eq!(bindings.len(), 5);
    }

    #[test]
    fn predicates_and_joins_read_no_pages() {
        // Tag tests, content predicates and join predicates all run on
        // the label columns: every stored value is interned, so a
        // predicate compares or resolves symbols.
        let s = store();
        s.reset_io_stats();
        let p = PatternTree::with_root(Pred::tag("author"));
        assert_eq!(match_db(&s, &p).unwrap().len(), 6);
        let p2 = PatternTree::with_root(Pred::tag("author").and(Pred::content_eq("Thompson")));
        assert_eq!(match_db(&s, &p2).unwrap().len(), 1);
        let p3 = PatternTree::with_root(Pred::content_contains("Transaction"));
        assert_eq!(match_db(&s, &p3).unwrap().len(), 4);
        let mut p4 = PatternTree::with_root(Pred::tag("article"));
        let a1 = p4.add_child(p4.root(), Axis::Child, Pred::tag("author"));
        p4.add_child(
            p4.root(),
            Axis::Child,
            Pred::tag("author").and(Pred::ContentEqNode(a1)),
        );
        assert_eq!(match_db(&s, &p4).unwrap().len(), 5);
        assert_eq!(s.io_stats().page_requests(), 0);
    }

    #[test]
    fn equal_symbol_means_equal_stored_string() {
        // The premise of symbol predicates: the content column holds a
        // symbol exactly when the pages hold a string, and two nodes
        // carry the same symbol exactly when they carry the same string
        // — empty, whitespace-only and repeated values included.
        let xml = "<r>\
            <a x=\"\" y=\" \">dup</a><a x=\"dup\">dup</a><a></a><a>  </a><a> dup</a>\
            <b><c>dup</c>tail<c/>tail</b><b x=\"\"/>\
        </r>";
        let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
        let cols = s.columns();
        let nodes: Vec<(u32, Option<String>)> = (0..cols.len() as u32)
            .map(|i| (cols.content[i as usize], s.content(NodeId(i)).unwrap()))
            .collect();
        assert!(nodes.iter().filter(|(_, text)| text.is_some()).count() >= 8);
        for (sym, text) in &nodes {
            assert_eq!(*sym == NO_SYM, text.is_none(), "{sym} vs {text:?}");
            if let Some(text) = text {
                assert_eq!(&*s.dict().resolve(Sym(*sym)), text);
            }
            for (other_sym, other_text) in &nodes {
                assert_eq!(sym == other_sym, text == other_text);
            }
        }
    }

    #[test]
    fn absent_contents_never_join() {
        // DESIGN.md, *Oracle*: absent contents group together but never
        // join. Two content-less <c/> siblings carry the same (absent)
        // key word, yet a join predicate between them holds for no pair.
        let s = DocumentStore::from_xml(
            "<r><b><c/><c/></b><b><c>x</c><c>x</c></b></r>",
            &StoreOptions::in_memory(),
        )
        .unwrap();
        let mut p = PatternTree::with_root(Pred::tag("b"));
        let c1 = p.add_child(p.root(), Axis::Child, Pred::tag("c"));
        p.add_child(
            p.root(),
            Axis::Child,
            Pred::tag("c").and(Pred::ContentEqNode(c1)),
        );
        let joined = match_db(&s, &p).unwrap();
        let second_b = s.nodes_with_tag(s.tag_id("b").unwrap())[1];
        assert_eq!(joined.len(), 4);
        assert!(joined.column(p.root()).iter().all(|b| *b == second_b));
        assert_eq!(joined, naive::match_db_scan(&s, &p).unwrap());
    }

    #[test]
    fn content_comparison_predicates() {
        use crate::value::CmpOp;
        let s = store();
        for (op, expected) in [
            (CmpOp::Ge, 3), // "Transaction Mng", "... for the Web", "... Books"
            (CmpOp::Lt, 2), // "Overview of ...", "Other Topic"
            (CmpOp::Eq, 0),
            (CmpOp::Ne, 5),
        ] {
            let p = PatternTree::with_root(
                Pred::tag("title").and(Pred::content_cmp(op, "Transaction")),
            );
            assert_eq!(match_db(&s, &p).unwrap().len(), expected, "{op:?}");
        }
    }

    #[test]
    fn anchor_root_restricts_embeddings() {
        let s = DocumentStore::from_xml(
            "<r><wrapper><wrapper><x>1</x></wrapper></wrapper></r>",
            &StoreOptions::in_memory(),
        )
        .unwrap();
        let outer = s.nodes_with_tag(s.tag_id("wrapper").unwrap())[0];
        let p = PatternTree::with_root(Pred::tag("wrapper"));
        let rows = |anchor| match_in_scopes(&s, &p, &[outer], anchor).unwrap().0.len();
        assert_eq!((rows(false), rows(true)), (2, 1));
    }

    #[test]
    fn string_content_eq_decides_on_symbols_without_io() {
        // Footnote 8's example: find articles of one author. A string
        // literal is compared as the content symbol of each author
        // candidate, so the match reads no page.
        let s = store();
        let by = |author: &str| {
            let mut p = PatternTree::with_root(Pred::tag("article"));
            let pred = Pred::tag("author").and(Pred::content_eq(author));
            p.add_child(p.root(), Axis::Child, pred);
            p
        };
        s.reset_io_stats();
        let hits = match_db(&s, &by("Silberschatz")).unwrap();
        let sym = s.dict().get("Silberschatz").unwrap();
        let want: Vec<NodeEntry> = s
            .nodes_with_tag(s.tag_id("author").unwrap())
            .iter()
            .filter(|e| s.content_sym(e.id) == Some(sym))
            .copied()
            .collect();
        assert_eq!(hits.column(1), want);
        assert_eq!(want.len(), 2);
        // A literal the dictionary does not hold matches nothing, and
        // the lookup does not intern it.
        assert!(match_db(&s, &by("Nobody")).unwrap().is_empty());
        assert!(s.dict().get("Nobody").is_none());
        assert_eq!(s.io_stats().page_requests(), 0);
    }

    #[test]
    fn numeric_content_eq_compares_numbers() {
        // `7`, `7.0` and `07` are one number and three symbols: the
        // numeric literal keeps the number-aware comparison, a string
        // literal matches only its own spelling.
        let xml = "<r><a><y>7</y></a><a><y>7.0</y></a><a><y>07</y></a></r>";
        let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
        for (literal, rows) in [("7", 3), ("7.00", 3), ("x7", 0)] {
            let mut p = PatternTree::with_root(Pred::tag("a"));
            p.add_child(
                p.root(),
                Axis::Child,
                Pred::tag("y").and(Pred::content_eq(literal)),
            );
            let got = match_db(&s, &p).unwrap();
            assert_eq!(got.len(), rows, "{literal}");
            assert_eq!(got, naive::match_db_scan(&s, &p).unwrap());
        }
    }

    #[test]
    fn no_required_tag_scans_all_nodes() {
        let s = store();
        let p = PatternTree::with_root(Pred::content_contains("Transaction"));
        let bindings = match_db(&s, &p).unwrap();
        assert_eq!(bindings.len(), 4); // 3 article titles + 1 book title
    }

    #[test]
    fn missing_tag_means_no_bindings() {
        let s = store();
        let p = PatternTree::with_root(Pred::tag("nonexistent"));
        assert!(match_db(&s, &p).unwrap().is_empty());
    }
}
