//! The grouping lattice: a one-scan cube over the rollup kernel.
//!
//! A cube query declares an *ordered* list of grouping dimensions
//! (e.g. journal → year → author). For a basis of `L` dimensions the
//! lattice has `L` prefix levels: level `k` groups on the first `k`
//! basis items. The XOLAP formulations of Hachicha & Darmont (arXiv
//! 1102.0952, 0809.2691) express exactly this over TAX pattern trees.
//! A rollup is the lattice's finest level, so the cube *is* the rollup's
//! prefix-level fold ([`super::rollup`](mod@super::rollup)'s `fold_levels`) asked for
//! levels `1..=L` instead of `L..=L` — this module adds the entry
//! point, no accumulation of its own:
//!
//! * one pass over the rows folds every level at once, each row as it
//!   is walked, with the full `L`-dimension pattern (a tree participates
//!   only when every dimension is present — standard cube semantics, see
//!   DESIGN.md): the level-`k` group of a witness is addressed by the key
//!   prefix `key[..k]`, so level `k−1` grows from the same row as level
//!   `k` without rescanning the store. Each level keeps its own per-group
//!   member dedup, because a multi-valued basis (a two-author article)
//!   must fold once per `(journal, author)` group but also only once into
//!   the coarser `journal` group;
//! * output rows use the rollup's *flat* shape at every level — a
//!   level-`k` row is `TAX_group_root { k keys, <tag>value</tag> }`,
//!   groups with an undefined aggregate dropped — so a row's level is
//!   its number of key children;
//! * levels emit coarsest-first (1 … `L`), groups in first-witness order
//!   within each level — the rows the per-level flat rollups give one
//!   after another, which the kernel tests below hold it to.

use crate::batch::Batch;
use crate::error::{Error, Result};
use crate::exec::Stages;
use crate::ops::aggregate::AggFunc;
use crate::ops::groupby::BasisItem;
use crate::ops::rollup::fold_levels;
use crate::pattern::{PatternNodeId, PatternTree};
use xmlstore::DocumentStore;

/// One-scan grouping lattice: the blocking sink's kernel — the
/// prefix-level fold over levels `1..=basis.len()`, in the flat shape,
/// over stored rows, or none. Returns the groups as one-level
/// rows and the sink's stage times.
#[allow(clippy::too_many_arguments)]
pub fn cube(
    store: &DocumentStore,
    input: &Batch,
    pattern: &PatternTree,
    basis: &[BasisItem],
    member_pattern: &PatternTree,
    of: PatternNodeId,
    func: AggFunc,
    new_tag: &str,
) -> Result<(Batch, Stages)> {
    if basis.is_empty() {
        return Err(Error::Unsupported(
            "cube requires at least one grouping dimension".into(),
        ));
    }
    fold_levels(
        store,
        input.stored()?,
        pattern,
        basis,
        member_pattern,
        of,
        func,
        new_tag,
        1..=basis.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::rollup::{rollup, RollupShape};
    use crate::output::{lines, materialize_all};
    use crate::pattern::{Axis, Pred};
    use xmlstore::StoreOptions;

    const SAMPLE: &str = "<bib>\
        <article><title>Querying XML</title><journal>TODS</journal><year>1999</year>\
            <author>Jack</author><author>John</author><pages>30</pages></article>\
        <article><title>XML and the Web</title><journal>TODS</journal><year>2001</year>\
            <author>Jill</author><author>Jack</author><pages>12</pages></article>\
        <article><title>Hack HTML</title><journal>WebDB</journal><year>2001</year>\
            <author>John</author><pages>7</pages></article>\
        <article><title>Typing XML</title><journal>TODS</journal><year>1999</year>\
            <author>Jack</author><pages>21</pages></article>\
    </bib>";

    fn store() -> DocumentStore {
        DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    fn articles(s: &DocumentStore) -> Batch {
        Batch::Stored(s.nodes_with_tag(s.tag_id("article").unwrap()).to_vec())
    }

    /// article -pc-> {journal, year, author}: the full 3-dim pattern.
    fn lattice() -> (PatternTree, Vec<BasisItem>) {
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let j = p.add_child(p.root(), Axis::Child, Pred::tag("journal"));
        let y = p.add_child(p.root(), Axis::Child, Pred::tag("year"));
        let a = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        (
            p,
            vec![
                BasisItem::content(j),
                BasisItem::content(y),
                BasisItem::content(a),
            ],
        )
    }

    /// article -pc-> <leaf>, the member-side aggregate pattern.
    fn member(leaf: &str) -> (PatternTree, PatternNodeId) {
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let l = p.add_child(p.root(), Axis::Child, Pred::tag(leaf));
        (p, l)
    }

    /// The output written and split by level: a flat level-`k` row has
    /// `k` key children and one value child.
    fn by_level(s: &DocumentStore, c: &Batch, levels: usize) -> Vec<Vec<String>> {
        let mut out = vec![Vec::new(); levels];
        for (row, e) in lines(s, c).into_iter().zip(materialize_all(s, c).unwrap()) {
            out[e.child_elements().count() - 2].push(row);
        }
        out
    }

    /// The composed reference: one flat rollup per prefix level, run
    /// with the same full pattern (so the witness stream is identical).
    #[allow(clippy::too_many_arguments)]
    fn composed(
        s: &DocumentStore,
        input: &Batch,
        pattern: &PatternTree,
        basis: &[BasisItem],
        mp: &PatternTree,
        of: PatternNodeId,
        func: AggFunc,
        tag: &str,
    ) -> Vec<Vec<String>> {
        (1..=basis.len())
            .map(|k| {
                let out = rollup(
                    s,
                    input,
                    pattern,
                    &basis[..k],
                    mp,
                    of,
                    func,
                    tag,
                    RollupShape::Flat,
                )
                .unwrap()
                .0;
                lines(s, &out)
            })
            .collect()
    }

    #[test]
    fn cube_matches_composed_per_level_rollups_for_every_func() {
        let s = store();
        let arts = articles(&s);
        let (p, basis) = lattice();
        for (leaf, func, tag) in [
            ("title", AggFunc::Count, "count"),
            ("pages", AggFunc::Sum, "sum"),
            ("pages", AggFunc::Min, "min"),
            ("pages", AggFunc::Max, "max"),
            ("pages", AggFunc::Avg, "avg"),
        ] {
            let (mp, of) = member(leaf);
            let out = cube(&s, &arts, &p, &basis, &mp, of, func, tag).unwrap().0;
            let reference = composed(&s, &arts, &p, &basis, &mp, of, func, tag);
            assert_eq!(by_level(&s, &out, basis.len()), reference, "{func:?}");
            // Coarsest level first: the bytes of the composed union.
            assert_eq!(lines(&s, &out), reference.concat(), "{func:?}");
        }
    }

    #[test]
    fn levels_emit_ascending_in_the_flat_shape() {
        let s = store();
        let arts = articles(&s);
        let (p, basis) = lattice();
        let (mp, of) = member("title");
        let out = cube(&s, &arts, &p, &basis, &mp, of, AggFunc::Count, "count")
            .unwrap()
            .0;
        let written = materialize_all(&s, &out).unwrap();
        let keys: Vec<usize> = written
            .iter()
            .map(|e| e.child_elements().count() - 1)
            .collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{keys:?}");
        // Level 1 groups TODS/WebDB, level 2 adds years, level 3 authors.
        let at = |k: usize| keys.iter().filter(|&&n| n == k).count();
        assert_eq!(at(1), 2); // TODS, WebDB
        assert_eq!(at(2), 3); // (TODS,1999), (TODS,2001), (WebDB,2001)
        assert_eq!(at(3), 5); // +Jack/John; Jill/Jack; John
        assert_eq!(keys.len(), 10);
        assert_eq!(
            lines(&s, &out)[0],
            "<TAX_group_root><journal>TODS</journal><count>3</count></TAX_group_root>"
        );
    }

    #[test]
    fn coarse_levels_dedup_multi_valued_bases() {
        // The two-author 1999 TODS article reaches (TODS) through two
        // (journal, year, author) witnesses but must count once there.
        let s = store();
        let arts = articles(&s);
        let (p, basis) = lattice();
        let (mp, of) = member("title");
        let out = cube(&s, &arts, &p, &basis, &mp, of, AggFunc::Count, "count")
            .unwrap()
            .0;
        let tods = materialize_all(&s, &out)
            .unwrap()
            .into_iter()
            .find(|e| {
                e.child_elements().count() == 2
                    && e.child("journal").map(|j| j.text()) == Some("TODS".into())
            })
            .expect("level-1 TODS group");
        assert_eq!(tods.child("count").unwrap().text(), "3");
    }

    #[test]
    fn structured_key_nodes_keep_their_subtrees() {
        // Ragged hierarchy: one author key node has children instead of
        // text, one article has two authors, one has no pages. The
        // cube's flat output pre-applies the deep key projection, so
        // every level-3 group must carry the author's whole subtree —
        // and, for every aggregate, each level must match the composed
        // per-level rollups byte for byte; the finest level *is* the
        // flat rollup over the full basis, through the same fold.
        let xml = "<bib>\
            <article><title>A</title><journal>TODS</journal><year>1999</year>\
                <author><name><full>Jack</full></name></author><pages>30</pages></article>\
            <article><title>B</title><journal>TODS</journal><year>1999</year>\
                <author>Jill</author><author><name>Joan</name></author><pages>7.5</pages></article>\
            <article><title>C</title><journal>WebDB</journal><year>2001</year>\
                <author>Jill</author></article>\
        </bib>";
        let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
        let arts = articles(&s);
        let (p, basis) = lattice();
        for (leaf, func, tag) in [
            ("title", AggFunc::Count, "count"),
            ("pages", AggFunc::Sum, "sum"),
            ("pages", AggFunc::Min, "min"),
            ("pages", AggFunc::Max, "max"),
            ("pages", AggFunc::Avg, "avg"),
        ] {
            let (mp, of) = member(leaf);
            let out = cube(&s, &arts, &p, &basis, &mp, of, func, tag).unwrap().0;
            let rendered = lines(&s, &out).join("\n");
            assert!(
                rendered.contains("<author><name><full>Jack</full></name></author>"),
                "{func:?}: {rendered}"
            );
            assert!(!rendered.contains("<author/>"), "{func:?}: {rendered}");
            let reference = composed(&s, &arts, &p, &basis, &mp, of, func, tag);
            let levels = by_level(&s, &out, basis.len());
            assert_eq!(levels, reference, "{func:?}");
            assert!(!levels[basis.len() - 1].is_empty(), "{func:?}");
        }
    }

    #[test]
    fn undefined_levels_drop_while_parents_stay_defined() {
        // (TODS, 2001) holds only a pages-less article: every aggregate
        // over pages is undefined there and the level-2 group is
        // dropped — while its level-1 parent (TODS) stays defined
        // through the 1999 articles. The composed per-level rollups
        // behave identically (parity audit), and Avg's fractional
        // rendering is pinned byte-for-byte.
        let xml = "<bib>\
            <article><title>A</title><journal>TODS</journal><year>1999</year>\
                <author>Jack</author><pages>30</pages></article>\
            <article><title>B</title><journal>TODS</journal><year>2001</year>\
                <author>Jill</author></article>\
            <article><title>C</title><journal>WebDB</journal><year>2001</year>\
                <author>John</author><pages>7</pages></article>\
            <article><title>D</title><journal>TODS</journal><year>1999</year>\
                <author>John</author><pages>19</pages></article>\
        </bib>";
        let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
        let arts = articles(&s);
        let (p, basis) = lattice();
        let (mp, of) = member("pages");
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ] {
            let out = cube(&s, &arts, &p, &basis, &mp, of, func, "v").unwrap().0;
            let reference = composed(&s, &arts, &p, &basis, &mp, of, func, "v");
            let levels = by_level(&s, &out, basis.len());
            assert_eq!(levels, reference, "{func:?}");
            let all = levels.concat().join("\n");
            assert!(
                !all.contains("<journal>TODS</journal><year>2001</year>"),
                "{func:?}: the (TODS, 2001) groups must be dropped: {all}"
            );
            assert!(
                all.contains("<journal>TODS</journal><v>"),
                "{func:?}: the TODS parent must stay defined: {all}"
            );
        }
        // The fractional average renders through the shared
        // format_value on both paths: (30 + 19) / 2 at (TODS, 1999).
        let out = cube(&s, &arts, &p, &basis, &mp, of, AggFunc::Avg, "avg")
            .unwrap()
            .0;
        let rendered = lines(&s, &out).join("\n");
        assert!(rendered.contains("<avg>24.5</avg>"), "{rendered}");
        assert!(
            rendered.contains(&format!(
                "<journal>TODS</journal><avg>{}</avg>",
                crate::ops::aggregate::format_value((30.0 + 19.0) / 2.0)
            )),
            "{rendered}"
        );
    }

    #[test]
    fn empty_input_and_bad_arguments() {
        let s = store();
        let (p, basis) = lattice();
        let (mp, of) = member("title");
        let (out, _) = cube(
            &s,
            &Batch::default(),
            &p,
            &basis,
            &mp,
            of,
            AggFunc::Count,
            "count",
        )
        .unwrap();
        assert!(out.is_empty());
        // No dimensions.
        assert!(cube(
            &s,
            &Batch::default(),
            &p,
            &[],
            &mp,
            of,
            AggFunc::Count,
            "count"
        )
        .is_err());
        // Aggregated label outside the member pattern.
        assert!(cube(
            &s,
            &Batch::default(),
            &p,
            &basis,
            &mp,
            9,
            AggFunc::Count,
            "count"
        )
        .is_err());
    }
}
