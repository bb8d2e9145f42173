//! Set operations on collections.
//!
//! TAX is "a 'proper' algebra, with composability and closure" (Sec. 2);
//! the full operator suite the paper defers to [8] (Jagadish et al.,
//! *TAX: A Tree Algebra for XML*, DBPL 2001) includes the set operations
//! over collections. Two trees are *the same* when their materialized
//! forms are equal: reference trees compare by stored identity and
//! constructed trees structurally, so a witness tree equals itself
//! regardless of how it was produced.

use crate::error::Result;
use crate::tree::{Collection, Tree, TreeNodeKind};
use std::collections::HashSet;

/// A cheap structural fingerprint of a tree: the pre-order sequence of
/// node descriptors. Reference nodes use stored identity (id + deep
/// flag); constructed nodes compare by their interned tag/content words
/// ([`xmlstore::NO_SYM`] for absent content) — symbol equality is value
/// equality, so no text is materialized.
fn fingerprint(tree: &Tree) -> Vec<(u8, u32, u32, u32)> {
    tree.preorder()
        .into_iter()
        .map(|n| match &tree.node(n).kind {
            TreeNodeKind::Ref { node, deep } => (u8::from(*deep), node.id.0, 0, 0),
            TreeNodeKind::Elem { tag, content } => (
                2,
                tree.node(n).children.len() as u32,
                tag.0,
                content.map_or(xmlstore::NO_SYM, |c| c.0),
            ),
        })
        .collect()
}

/// `left ∪ right`, preserving order of first occurrence and removing
/// duplicates (set semantics).
pub fn union(left: Collection, right: Collection) -> Result<Collection> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for tree in left.into_iter().chain(right) {
        if seen.insert(fingerprint(&tree)) {
            out.push(tree);
        }
    }
    Ok(out)
}

/// `left ∩ right`, in `left` order, de-duplicated.
pub fn intersection(left: Collection, right: &Collection) -> Result<Collection> {
    let right_set: HashSet<_> = right.iter().map(fingerprint).collect();
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for tree in left {
        let fp = fingerprint(&tree);
        if right_set.contains(&fp) && seen.insert(fp) {
            out.push(tree);
        }
    }
    Ok(out)
}

/// `left ∖ right`, in `left` order, de-duplicated.
pub fn difference(left: Collection, right: &Collection) -> Result<Collection> {
    let right_set: HashSet<_> = right.iter().map(fingerprint).collect();
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for tree in left {
        let fp = fingerprint(&tree);
        if !right_set.contains(&fp) && seen.insert(fp) {
            out.push(tree);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Axis, PatternTree, Pred};
    use xmlstore::{DocumentStore, StoreOptions};

    const SAMPLE: &str = "<bib>\
        <article><title>A</title><author>Jack</author><year>1999</year></article>\
        <article><title>B</title><author>Jill</author><year>2002</year></article>\
        <article><title>C</title><author>Jack</author><year>2002</year></article>\
    </bib>";

    fn store() -> DocumentStore {
        DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    /// Articles matching a child predicate, each as one deep reference.
    fn articles_with(s: &DocumentStore, child: &str, value: &str) -> Collection {
        let mut p = PatternTree::with_root(Pred::tag("article"));
        p.add_child(
            p.root(),
            Axis::Child,
            Pred::tag(child).and(Pred::content_eq(value)),
        );
        crate::matching::match_db(s, &p)
            .unwrap()
            .column(p.root())
            .iter()
            .map(|e| Tree::new_ref(*e, true))
            .collect()
    }

    #[test]
    fn union_dedups_shared_trees() {
        let s = store();
        let by_jack = articles_with(&s, "author", "Jack"); // A, C
        let of_2002 = articles_with(&s, "year", "2002"); // B, C
        let u = union(by_jack, of_2002).unwrap();
        assert_eq!(u.len(), 3); // A, C, B
    }

    #[test]
    fn intersection_keeps_common_trees() {
        let s = store();
        let by_jack = articles_with(&s, "author", "Jack");
        let of_2002 = articles_with(&s, "year", "2002");
        let i = intersection(by_jack, &of_2002).unwrap();
        assert_eq!(i.len(), 1); // C
        let e = i[0].materialize(&s).unwrap();
        assert_eq!(e.child("title").unwrap().text(), "C");
    }

    #[test]
    fn difference_removes_right_trees() {
        let s = store();
        let by_jack = articles_with(&s, "author", "Jack");
        let of_2002 = articles_with(&s, "year", "2002");
        let d = difference(by_jack, &of_2002).unwrap();
        assert_eq!(d.len(), 1); // A
        let e = d[0].materialize(&s).unwrap();
        assert_eq!(e.child("title").unwrap().text(), "A");
    }

    #[test]
    fn constructed_trees_compare_structurally() {
        let s = store();
        let mk = |v: &str| -> Tree {
            let mut t = Tree::new_elem(s.dict(), "row");
            t.add_elem_with_content(s.dict(), t.root(), "x", v);
            t
        };
        let left = vec![mk("1"), mk("2")];
        let right = vec![mk("2"), mk("3")];
        assert_eq!(union(left.clone(), right.clone()).unwrap().len(), 3);
        assert_eq!(intersection(left.clone(), &right).unwrap().len(), 1);
        assert_eq!(difference(left, &right).unwrap().len(), 1);
    }

    #[test]
    fn empty_operands() {
        let s = store();
        let by_jack = articles_with(&s, "author", "Jack");
        let empty: Collection = Vec::new();
        assert_eq!(union(by_jack.clone(), empty.clone()).unwrap().len(), 2);
        assert_eq!(intersection(by_jack.clone(), &empty).unwrap().len(), 0);
        assert_eq!(difference(by_jack.clone(), &empty).unwrap().len(), 2);
        assert_eq!(difference(empty, &by_jack).unwrap().len(), 0);
    }

    #[test]
    fn shallow_and_deep_refs_are_distinct() {
        let s = store();
        let article = s.tag_id("article").unwrap();
        let e = s.nodes_with_tag(article)[0];
        let deep = vec![Tree::new_ref(e, true)];
        let shallow = vec![Tree::new_ref(e, false)];
        assert_eq!(intersection(deep.clone(), &shallow).unwrap().len(), 0);
        assert_eq!(union(deep, shallow).unwrap().len(), 2);
    }
}
