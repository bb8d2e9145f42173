//! The stored-row walk: the one entry through which a keyed operator
//! matches its pattern inside stored rows.
//!
//! For a *tag-only star* — a root and leaf children under it, each a
//! bare tag test, on `pc` or `ad` edges (`article -pc-> author`, the
//! shape of the paper's grouping and member patterns) — the embeddings
//! of a root are the cross product of its children's nodes. One pass
//! over the root's subtree on the `tag` and `level` columns collects
//! every child's nodes at once ([`bucket`]), and an [`Odometer`] runs
//! through their combinations: no index list is galloped, no binding
//! table built, and every embedding goes straight to the caller. The
//! grouping sinks' fold (`ops::rollup::Fold`: `GroupBy` and its Fig. 5d
//! gather, the rollup, the cube) buckets its grouping and member stars
//! in the same pass. Any other pattern takes [`match_in_scopes`],
//! visited row by row.

use super::match_in_scopes;
use crate::error::Result;
use crate::pattern::{Axis, PatternNodeId, PatternTree, Pred};
use xmlstore::{kernels, DocumentStore, NodeColumns, NodeEntry, NodeId, NO_SYM};

/// Hand every embedding of `pattern` inside each of `scopes` to `visit`,
/// as the index of its scope and its nodes indexed by pattern node:
/// exactly the rows of [`match_in_scopes`], in its order. With
/// `anchor_root` the pattern root binds only the scope nodes themselves;
/// without, a root-tag node nested in a scope roots embeddings of its
/// own, after the scope's.
pub fn for_each_match(
    store: &DocumentStore,
    pattern: &PatternTree,
    scopes: &[NodeEntry],
    anchor_root: bool,
    mut visit: impl FnMut(u32, &[NodeEntry]),
) -> Result<()> {
    let Some(star) = Star::of(store, pattern) else {
        let (table, scope_of_row) = match_in_scopes(store, pattern, scopes, anchor_root)?;
        let mut cells = Vec::with_capacity(pattern.len());
        for (row, &scope) in table.rows().zip(&scope_of_row) {
            cells.clear();
            cells.extend(row.cells());
            visit(scope, &cells);
        }
        return Ok(());
    };
    if star.binds_nothing() {
        return Ok(());
    }
    // Without `anchor_root`, the same pass lists the root-tag nodes
    // nested in a scope, each walked on its own after the scope.
    let cols = store.columns();
    let kids = star.kids.len();
    let mut filters: Vec<Filter> = star.kids.iter().map(|&(_, filter)| filter).collect();
    filters.extend((!anchor_root).then_some((star.root.1, false)));
    let lists: Vec<usize> = (0..kids).collect();
    let (mut found, mut inner) = (vec![Vec::new(); filters.len()], vec![Vec::new(); kids]);
    let (mut odometer, mut scanned) = (Odometer::default(), 0);
    let mut cells = vec![store.root(); pattern.len()];
    let mut embed = |root: &NodeEntry, scope: u32, found: &[Vec<u32>]| {
        cells[star.root.0] = *root;
        odometer.run(found, &lists, |ids| {
            for (&(pid, _), &id) in star.kids.iter().zip(ids) {
                cells[pid] = cols.entry(NodeId(id));
            }
            visit(scope, &cells);
        });
    };
    for (si, scope) in (0..).zip(scopes) {
        let own = cols.tag[scope.id.0 as usize] == star.root.1;
        if own || !anchor_root {
            scanned += bucket(&cols, scope, &filters, &mut found);
        }
        if own {
            embed(scope, si, &found);
        }
        for &id in found.get(kids).into_iter().flatten() {
            let root = cols.entry(NodeId(id));
            scanned += bucket(&cols, &root, &filters[..kids], &mut inner);
            embed(&root, si, &inner);
        }
    }
    kernels::note_vec_rows(scanned);
    Ok(())
}

/// The nodes of a tag-only star with their tags, root first and then the
/// children in join order; `None` for any other pattern.
fn star(p: &PatternTree) -> Option<Vec<(PatternNodeId, &str)>> {
    let star = p.preorder().into_iter().map(|pid| {
        let node = p.node(pid);
        let leaf = node.parent == Some(p.root()) && node.children.is_empty();
        match &node.pred {
            Pred::Tag(tag) if pid == p.root() || leaf => Some((pid, tag.as_str())),
            _ => None,
        }
    });
    star.collect()
}

/// What a star child takes of its root's subtree: rows with its tag
/// symbol and, when its edge is `pc` (the flag), on the level right
/// below the root.
pub(crate) type Filter = (u32, bool);

/// A tag-only star over the store's tag symbols; a tag no stored node
/// carries is [`NO_SYM`], which no row has.
pub(crate) struct Star {
    /// The root's pattern node and tag symbol.
    pub root: (PatternNodeId, u32),
    /// Per child, in join order: its pattern node and filter.
    pub kids: Vec<(PatternNodeId, Filter)>,
}

impl Star {
    /// `pattern` as a star over `store`'s tags; `None` for any other
    /// pattern.
    pub fn of(store: &DocumentStore, pattern: &PatternTree) -> Option<Star> {
        let tag = |name| store.tag_id(name).map_or(NO_SYM, |t| t.0);
        let nodes = star(pattern)?;
        let ((root, name), kids) = nodes.split_first()?;
        let kids = kids
            .iter()
            .map(|&(pid, name)| (pid, (tag(name), pattern.node(pid).axis == Axis::Child)));
        let (root, kids) = ((*root, tag(name)), kids.collect());
        Some(Star { root, kids })
    }

    /// Whether a tag of the star is one no stored node carries: then it
    /// binds nothing.
    pub fn binds_nothing(&self) -> bool {
        let mut tags = self.kids.iter().map(|&(_, (tag, _))| tag);
        self.root.1 == NO_SYM || tags.any(|tag| tag == NO_SYM)
    }
}

/// One pass over `root`'s subtree — in preorder, the run of rows after
/// it one level down or deeper — putting the id of each row a filter
/// takes on that filter's list in `found`, in document order. Returns
/// the number of rows read: none without a filter.
#[inline]
pub(crate) fn bucket(
    cols: &NodeColumns,
    root: &NodeEntry,
    filters: &[Filter],
    found: &mut [Vec<u32>],
) -> usize {
    found.iter_mut().for_each(Vec::clear);
    if filters.is_empty() {
        return 0;
    }
    // Every row takes two labels, one at open and one at close.
    let lo = root.id.0 as usize + 1;
    let hi = lo + (root.end - root.start) as usize / 2;
    debug_assert_eq!(lo as u32..hi as u32, cols.descendant_ids(root.id));
    // Only a row with a filter's tag has its level read.
    let (tags, levels) = (&cols.tag[lo..hi], &cols.level[lo..hi]);
    let below = root.level + 1;
    match (filters, found) {
        ([a], [fa]) => scan(lo, tags, levels, below, [*a], [fa]),
        ([a, b], [fa, fb]) => scan(lo, tags, levels, below, [*a, *b], [fa, fb]),
        ([a, b, c], [fa, fb, fc]) => scan(lo, tags, levels, below, [*a, *b, *c], [fa, fb, fc]),
        (filters, found) => {
            for (i, &t) in tags.iter().enumerate() {
                for (&(tag, pc), list) in filters.iter().zip(found.iter_mut()) {
                    if t == tag && (!pc || levels[i] == below) {
                        list.push((lo + i) as u32);
                    }
                }
            }
        }
    }
    hi - lo
}

/// [`bucket`]'s loop for `N` filters, unrolled.
#[inline(always)]
fn scan<const N: usize>(
    lo: usize,
    tags: &[u32],
    levels: &[u16],
    below: u16,
    filters: [Filter; N],
    found: [&mut Vec<u32>; N],
) {
    for (i, &t) in tags.iter().enumerate() {
        for k in 0..N {
            let (tag, pc) = filters[k];
            if t == tag && (!pc || levels[i] == below) {
                found[k].push((lo + i) as u32);
            }
        }
    }
}

/// Runs through the combinations of one id from each of some [`bucket`]
/// lists, the last list varying fastest — the order in which the
/// columnar join extends a row child by child. Reused from root to root.
#[derive(Default)]
pub(crate) struct Odometer {
    at: Vec<usize>,
    ids: Vec<u32>,
}

impl Odometer {
    /// Hand `visit` each combination of one id from each `found[l]`, `l`
    /// in `lists`, as the ids in `lists` order: none when a list is
    /// empty, one (no id) when `lists` is.
    #[inline]
    pub fn run(&mut self, found: &[Vec<u32>], lists: &[usize], mut visit: impl FnMut(&[u32])) {
        if let [l] = lists {
            return found[*l]
                .iter()
                .for_each(|id| visit(std::slice::from_ref(id)));
        }
        if lists.iter().any(|&l| found[l].is_empty()) {
            return;
        }
        self.at.clear();
        self.at.resize(lists.len(), 0);
        self.ids.clear();
        self.ids.extend(lists.iter().map(|&l| found[l][0]));
        loop {
            visit(&self.ids);
            // The next combination: none after the last.
            let mut digits = lists.iter().zip(&mut self.at).zip(&mut self.ids).rev();
            if !digits.any(|((&l, at), id)| {
                *at = (*at + 1) % found[l].len();
                *id = found[l][*at];
                *at != 0
            }) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stars_are_bare_tag_tests_one_level_deep() {
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let author = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        p.add_child(p.root(), Axis::Descendant, Pred::tag("title"));
        let nodes = star(&p).expect("a star");
        assert_eq!(nodes, [(0, "article"), (author, "author"), (2, "title")]);
        assert!(star(&PatternTree::with_root(Pred::tag("article"))).is_some());
        // A grandchild, a content predicate, or a join is not a star.
        let mut deep = p.clone();
        deep.add_child(author, Axis::Child, Pred::tag("x"));
        assert!(star(&deep).is_none());
        let pred = PatternTree::with_root(Pred::tag("article").and(Pred::content_eq("x")));
        assert!(star(&pred).is_none());
        let mut join = p.clone();
        join.add_child(
            join.root(),
            Axis::Child,
            Pred::tag("author").and(Pred::ContentEqNode(author)),
        );
        assert!(star(&join).is_none());
        assert!(star(&PatternTree::with_root(Pred::True)).is_none());
    }
}
