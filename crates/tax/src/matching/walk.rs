//! The stored-row walk: the one entry through which a keyed operator
//! matches its pattern inside stored rows.
//!
//! For a *tag-only star* — a root and leaf children under it, each a
//! bare tag test, on `pc` or `ad` edges (`article -pc-> author`, the
//! shape of the paper's grouping and member patterns) — the embeddings
//! of a root are the cross product of its children's nodes, each list
//! one pass over the root's subtree on the `tag` and `level` columns: no
//! index list is galloped, no binding table built, and every embedding
//! goes straight to the caller. Any other pattern takes
//! [`match_in_scopes`], visited row by row.

use super::match_in_scopes;
use crate::error::Result;
use crate::pattern::{Axis, PatternNodeId, PatternTree, Pred};
use xmlstore::{kernels, DocumentStore, NodeColumns, NodeEntry, NodeId};

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
    let Some(star) = star(pattern) else {
        let (table, scope_of_row) = match_in_scopes(store, pattern, scopes, anchor_root)?;
        let mut cells = Vec::with_capacity(pattern.len());
        for (row, &scope) in table.rows().zip(&scope_of_row) {
            cells.clear();
            cells.extend(row.cells());
            visit(scope, &cells);
        }
        return Ok(());
    };
    // A tag no stored node carries binds nothing.
    let tags = star.iter().map(|&(_, tag)| store.tag_id(tag));
    let Some(tags) = tags.collect::<Option<Vec<_>>>() else {
        return Ok(());
    };
    let root_tag = tags[0];
    let kids = star[1..].iter().zip(&tags[1..]);
    let kids = kids.map(|(&(pid, _), tag)| (pid, tag.0, pattern.node(pid).axis == Axis::Child));
    let cols = store.columns();
    let mut walk = Walk {
        cols: &cols,
        root: pattern.root(),
        found: vec![(Vec::new(), 0); star.len().saturating_sub(2)],
        cells: vec![store.root(); pattern.len()],
        kids: kids.collect(),
        scanned: 0,
    };
    // A scope's nested roots are the run of the root tag's index list
    // inside it, found by a cursor that moves forward with the scopes
    // (and searches back when a scope starts before the last).
    let roots = store.nodes_with_tag(root_tag);
    let roots: &[NodeEntry] = &roots;
    let mut at = 0;
    for (si, scope) in scopes.iter().enumerate() {
        let si = si as u32;
        if cols.tag[scope.id.0 as usize] == root_tag.0 {
            walk.embed(scope, si, &mut visit);
        }
        if anchor_root {
            continue;
        }
        if at > 0 && roots[at - 1].start > scope.start {
            at = roots.partition_point(|e| e.start <= scope.start);
        }
        while roots.get(at).is_some_and(|e| e.start <= scope.start) {
            at += 1;
        }
        for inner in roots[at..].iter().take_while(|e| e.start < scope.end) {
            walk.embed(inner, si, &mut visit);
        }
    }
    kernels::note_vec_rows(walk.scanned);
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

/// Hand `hit` the id of each row of `root`'s subtree — in preorder, the
/// run of rows after it one level down or deeper — with tag `tag` and,
/// for a `pc` edge, the level right below the root, in document order.
/// Returns the number of rows read.
#[inline(always)]
fn subtree(
    cols: &NodeColumns,
    root: &NodeEntry,
    tag: u32,
    pc: bool,
    mut hit: impl FnMut(u32),
) -> usize {
    let lo = root.id.0 as usize + 1;
    let rows = cols.tag[lo..].iter().zip(&cols.level[lo..]);
    let mut read = 0;
    for (id, (&t, &level)) in (lo as u32..).zip(rows) {
        if level <= root.level {
            break;
        }
        read += 1;
        if t == tag && (!pc || level == root.level + 1) {
            hit(id);
        }
    }
    read
}

/// One star's walk state, reused from row to row.
struct Walk<'c> {
    cols: &'c NodeColumns,
    root: PatternNodeId,
    /// Per child: its pattern node, tag symbol, and whether its edge is
    /// `pc`.
    kids: Vec<(PatternNodeId, u32, bool)>,
    /// Per child but the last: its node ids under the current root, in
    /// document order, and the position of the one being visited.
    found: Vec<(Vec<u32>, usize)>,
    cells: Vec<NodeEntry>,
    /// Label rows read, noted as kernel rows.
    scanned: usize,
}

impl Walk<'_> {
    /// Visit every embedding rooted at `root`, the last child varying
    /// fastest — the order in which the columnar join extends a row child
    /// by child: the other children's nodes are collected by one pass over
    /// the root's subtree each, and for each combination of them a pass
    /// for the last child visits as it finds.
    #[inline]
    fn embed(&mut self, root: &NodeEntry, scope: u32, visit: &mut impl FnMut(u32, &[NodeEntry])) {
        let (cols, cells) = (self.cols, &mut self.cells[..]);
        cells[self.root] = *root;
        let Some((&(last_pid, last_tag, last_pc), kids)) = self.kids.split_last() else {
            return visit(scope, cells);
        };
        let mut last = |cells: &mut [NodeEntry]| {
            subtree(cols, root, last_tag, last_pc, |id| {
                cells[last_pid] = cols.entry(NodeId(id));
                visit(scope, cells);
            })
        };
        if kids.is_empty() {
            self.scanned += last(cells); // one child: nothing to combine
            return;
        }
        for (&(_, tag, pc), (found, at)) in kids.iter().zip(&mut self.found) {
            found.clear();
            *at = 0;
            self.scanned += subtree(cols, root, tag, pc, |id| found.push(id));
            if found.is_empty() {
                return;
            }
        }
        loop {
            for (&(pid, ..), (found, at)) in kids.iter().zip(&self.found) {
                cells[pid] = cols.entry(NodeId(found[*at]));
            }
            self.scanned += last(cells);
            // The next combination, odometer-wise: none after the last.
            let mut next = self.found.iter_mut().rev();
            if !next.any(|(found, at)| {
                *at = (*at + 1) % found.len();
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
