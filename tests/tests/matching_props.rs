//! Property suite of the columnar matcher: on random documents and
//! random patterns, `match_db` returns the rows of the full-scan matcher
//! in the same order, `match_in_scopes` returns the per-scope matches
//! concatenated, each row tagged with its scope, and `for_each_match` —
//! the stored-row walk the keyed operators call — visits exactly those
//! rows.

use smallrand::prop::{check, Gen};
use std::collections::HashMap;
use tax::batch::Batch;
use tax::matching::{
    for_each_match, match_db, match_db_scoped, match_in_scopes, naive::match_db_scan, Bindings,
};
use tax::ops::{cube, groupby, rollup, AggFunc, BasisItem, RollupShape};
use tax::output::write_xml_lines;
use tax::pattern::{Axis, PatternTree, Pred};
use xmlstore::{kernels, DocumentStore, NodeEntry, NodeId, StoreOptions};

const TAGS: [&str; 3] = ["a", "b", "c"];
/// `1`, `1.0` and `01` are one number spelled three ways: a content
/// equality must compare them as numbers, as the scan matcher does.
const VALUES: [&str; 5] = ["1", "2", "x y", "1.0", "01"];

/// A random element of depth ≤ `depth`: tags from a pool of three (so
/// elements nest inside elements of their own tag and ancestor runs
/// overlap), attributes that are sometimes empty, and content that is a
/// repeated value, absent, or mixed with child elements.
fn element(g: &mut Gen, depth: usize, out: &mut String) {
    let tag = *g.pick(&TAGS);
    out.push('<');
    out.push_str(tag);
    for name in ["x", "y"] {
        if g.ratio(1, 4) {
            let value = if g.ratio(1, 3) { "" } else { *g.pick(&VALUES) };
            out.push_str(&format!(" {name}=\"{value}\""));
        }
    }
    out.push('>');
    let children = if depth == 0 { 0 } else { g.usize_in(0, 3) };
    if children == 0 {
        if g.ratio(2, 3) {
            out.push_str(g.pick::<&str>(&VALUES));
        }
    } else {
        for _ in 0..children {
            if g.ratio(1, 6) {
                out.push_str(g.pick::<&str>(&VALUES));
            }
            element(g, depth - 1, out);
        }
    }
    out.push_str(&format!("</{tag}>"));
}

/// A random store: one document of depth ≤ 5.
fn store(g: &mut Gen) -> DocumentStore {
    let mut xml = String::from("<r>");
    for _ in 0..g.usize_in(0, 3) {
        element(g, 4, &mut xml);
    }
    xml.push_str("</r>");
    DocumentStore::from_xml(&xml, &StoreOptions::in_memory()).expect("generated XML loads")
}

/// A random predicate for pattern node `pid`: usually a tag (one of them
/// absent from every document), sometimes tag-less, optionally with a
/// content equality or a join with an earlier node.
fn pred(g: &mut Gen, pid: usize) -> Pred {
    let mut p = match g.usize_in(0, 9) {
        0 => Pred::True,
        1 => Pred::tag("absent"),
        _ => Pred::tag(*g.pick(&TAGS)),
    };
    if g.ratio(1, 5) {
        p = p.and(Pred::content_eq(*g.pick(&VALUES)));
    }
    if pid > 0 && g.ratio(1, 6) {
        p = p.and(Pred::ContentEqNode(g.usize_in(0, pid - 1)));
    }
    p
}

/// A random pattern of 1–4 nodes; every shape of that size occurs:
/// chains (whose inner columns stop being monotone once same-tag
/// elements nest), stars and mixes.
fn pattern(g: &mut Gen) -> PatternTree {
    let mut p = PatternTree::with_root(pred(g, 0));
    for pid in 1..g.usize_in(1, 4) {
        let parent = g.usize_in(0, pid - 1);
        let axis = if g.bool() {
            Axis::Child
        } else {
            Axis::Descendant
        };
        p.add_child(parent, axis, pred(g, pid));
    }
    p
}

/// The scan matcher's table, row by row.
fn scan(store: &DocumentStore, pattern: &PatternTree) -> Vec<Vec<NodeEntry>> {
    rows(&match_db_scan(store, pattern).expect("scan"))
}

fn rows(table: &Bindings) -> Vec<Vec<NodeEntry>> {
    table.rows().map(|row| row.cells().collect()).collect()
}

#[test]
fn match_db_equals_the_scan_matcher_row_for_row() {
    check("match_db == match_db_scan", 400, |g| {
        let (s, p) = (store(g), pattern(g));
        let table = match_db(&s, &p).expect("match");
        assert_eq!(rows(&table), scan(&s, &p), "{p:?}");
        for pid in 0..p.len() {
            assert_eq!(table.column(pid).len(), table.len());
        }
    });
}

#[test]
fn nested_same_tag_parents_take_the_row_fallback() {
    // a1 ⊃ a2 with b's inside and after a2: the rows of `a -ad-> b` are
    // (a1,b1) (a1,b2) (a1,b3) (a2,b2), so the `b` column is not monotone
    // and the join below it searches per row — and counts itself as
    // fallback rows (the `vecfb` of EXPLAIN ANALYZE).
    let s = DocumentStore::from_xml(
        "<r><a><b><c>1</c></b><a><b><c>2</c></b></a><b><c>3</c></b></a></r>",
        &StoreOptions::in_memory(),
    )
    .unwrap();
    let mut p = PatternTree::with_root(Pred::tag("a"));
    let b = p.add_child(p.root(), Axis::Descendant, Pred::tag("b"));
    p.add_child(b, Axis::Child, Pred::tag("c"));
    let before = kernels::fallback_rows();
    let table = match_db(&s, &p).unwrap();
    assert!(kernels::fallback_rows() >= before + 4);
    assert_eq!(table.len(), 4);
    let starts: Vec<u32> = table.column(b).iter().map(|e| e.start).collect();
    assert!(starts.windows(2).any(|w| w[0] > w[1]), "{starts:?}");
    assert_eq!(rows(&table), scan(&s, &p));
}

/// The rows `match_in_scopes` must return: one scoped match per scope,
/// in turn.
fn per_scope(
    s: &DocumentStore,
    p: &PatternTree,
    scopes: &[NodeEntry],
    anchor_root: bool,
) -> (Vec<Vec<NodeEntry>>, Vec<u32>) {
    let (mut all, mut scope_of_row) = (Vec::new(), Vec::new());
    for (si, scope) in scopes.iter().enumerate() {
        let table = match_db_scoped(s, p, Some(*scope)).expect("scoped match");
        for row in rows(&table) {
            if !anchor_root || row[p.root()].id == scope.id {
                all.push(row);
                scope_of_row.push(si as u32);
            }
        }
    }
    (all, scope_of_row)
}

/// Random scopes: usually what a scan produces — sorted, nothing nested
/// or repeated — and sometimes any list at all.
fn scopes(g: &mut Gen, s: &DocumentStore) -> Vec<NodeEntry> {
    let cols = s.columns();
    let mut scopes: Vec<NodeEntry> = g
        .vec(0, 6, |g| g.usize_in(0, cols.len() - 1))
        .into_iter()
        .map(|i| cols.entry(NodeId(i as u32)))
        .collect();
    if g.ratio(3, 4) {
        scopes.sort_by_key(|e| e.start);
        let mut kept: Vec<NodeEntry> = Vec::new();
        for e in scopes {
            if kept.last().map_or(true, |k| k.end < e.start) {
                kept.push(e);
            }
        }
        scopes = kept;
    }
    scopes
}

#[test]
fn match_in_scopes_concatenates_the_scoped_matches() {
    check("match_in_scopes == per-scope", 400, |g| {
        let (s, p) = (store(g), pattern(g));
        let scopes = scopes(g, &s);
        for anchor_root in [false, true] {
            let (table, scope_of_row) =
                match_in_scopes(&s, &p, &scopes, anchor_root).expect("match");
            let want = per_scope(&s, &p, &scopes, anchor_root);
            assert_eq!((rows(&table), scope_of_row), want, "{p:?} in {scopes:?}");
        }
    });
}

#[test]
fn nothing_to_match_is_an_empty_table() {
    let s =
        DocumentStore::from_xml("<r><a><b>1</b></a><c/></r>", &StoreOptions::in_memory()).unwrap();
    let mut p = PatternTree::with_root(Pred::tag("a"));
    p.add_child(p.root(), Axis::Child, Pred::tag("b"));
    let c = s.nodes_with_tag(s.tag_id("c").unwrap())[0];
    let mut absent = PatternTree::with_root(Pred::tag("a"));
    absent.add_child(absent.root(), Axis::Descendant, Pred::tag("nowhere"));
    for anchor_root in [false, true] {
        // No scope; a scope holding no candidate; a tag no node has.
        for (pattern, scopes) in [(&p, &[][..]), (&p, &[c][..]), (&absent, &[s.root()][..])] {
            let (table, scope_of_row) = match_in_scopes(&s, pattern, scopes, anchor_root).unwrap();
            assert!(table.is_empty() && scope_of_row.is_empty());
            assert!((0..pattern.len()).all(|pid| table.column(pid).is_empty()));
        }
    }
    assert!(match_db(&s, &absent).unwrap().is_empty());
    assert!(match_db_scoped(&s, &p, Some(c)).unwrap().is_empty());
}

/// A random tag-only star: a root and 0–3 leaf children on random edges,
/// each a bare tag test, one of them sometimes a tag no node has.
fn star(g: &mut Gen) -> PatternTree {
    let tag = |g: &mut Gen| {
        Pred::tag(if g.ratio(1, 10) {
            "absent"
        } else {
            *g.pick(&TAGS)
        })
    };
    let mut p = PatternTree::with_root(tag(g));
    for _ in 0..g.usize_in(0, 3) {
        let axis = if g.bool() {
            Axis::Child
        } else {
            Axis::Descendant
        };
        let pred = tag(g);
        p.add_child(p.root(), axis, pred);
    }
    p
}

#[test]
fn the_stored_row_walk_visits_the_rows_of_the_join() {
    // Stars take the walk, every other pattern the join behind it: either
    // way the same rows, in the same order, with the same scope — nested
    // same-tag roots, absent tags and childless stars included.
    check("for_each_match == match_in_scopes", 400, |g| {
        let s = store(g);
        let p = if g.ratio(3, 4) { star(g) } else { pattern(g) };
        let scopes = scopes(g, &s);
        for anchor_root in [false, true] {
            let (table, scope_of_row) =
                match_in_scopes(&s, &p, &scopes, anchor_root).expect("match");
            let (mut visited, mut scope_of_visit) = (Vec::new(), Vec::new());
            for_each_match(&s, &p, &scopes, anchor_root, |scope, m| {
                visited.push(m.to_vec());
                scope_of_visit.push(scope);
            })
            .expect("walk");
            assert_eq!(
                (visited, scope_of_visit),
                (rows(&table), scope_of_row),
                "{p:?} in {scopes:?}, anchor_root {anchor_root}"
            );
        }
    });
}

/// The groups a grouping sink must form from `witnesses` — (scope, key)
/// pairs in arrival order — at key prefix `level`: keys in first-arrival
/// order, each with its first witness and its member scopes, a scope
/// entering a group once.
fn reference_groups(witnesses: &[(u32, Vec<u32>)], level: usize) -> Vec<(usize, Vec<u32>)> {
    let mut index: HashMap<&[u32], usize> = HashMap::new();
    let mut groups: Vec<(usize, Vec<u32>)> = Vec::new();
    for (w, (scope, key)) in witnesses.iter().enumerate() {
        let g = *index.entry(&key[..level]).or_insert_with(|| {
            groups.push((w, Vec::new()));
            groups.len() - 1
        });
        let members = &mut groups[g].1;
        if members.last() != Some(scope) {
            members.push(*scope);
        }
    }
    groups
}

#[test]
fn nested_articles_group_as_the_join_binds_them() {
    // An <article> inside an <article>, with authors before and after
    // the inner one: unanchored, the outer row's witnesses are its own
    // authors and then the inner article's, which the inner row has
    // again. Each sink over the walk's witnesses must build what a
    // reference built from `match_in_scopes`' rows says.
    let s = DocumentStore::from_xml(
        "<bib>\
            <article><author>A</author><title>T1</title><year>1</year>\
                <article><author>B</author><title>T2</title><title>T3</title><year>2</year></article>\
                <author>C</author><year>2</year></article>\
            <article><author>B</author><title>T4</title><year>1</year></article>\
        </bib>",
        &StoreOptions::in_memory(),
    )
    .unwrap();
    let cols = s.columns();
    let content = |e: NodeEntry| cols.content[e.id.0 as usize];
    let serialize = |batch: &Batch| -> Vec<String> {
        let mut text = String::new();
        write_xml_lines(&s, batch, &mut text).unwrap();
        text.lines().map(str::to_owned).collect()
    };
    // A stored node written whole. The key nodes are text-only, so a
    // shallow key cell writes these bytes too.
    let xml = |node: NodeEntry| serialize(&Batch::Stored(vec![node])).concat();
    // article {author, year}, grouped on both; article -pc-> title counted.
    let mut p = PatternTree::with_root(Pred::tag("article"));
    let author = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
    let year = p.add_child(p.root(), Axis::Child, Pred::tag("year"));
    let basis = [BasisItem::content(author), BasisItem::content(year)];
    let mut member = PatternTree::with_root(Pred::tag("article"));
    let title = member.add_child(member.root(), Axis::Child, Pred::tag("title"));
    // All three articles (the outer one holds the second), and the two
    // disjoint ones a scan of top-level articles gives.
    let articles = s.nodes_with_tag(s.tag_id("article").unwrap()).to_vec();
    for rows in [articles.clone(), vec![articles[0], articles[2]]] {
        let batch = Batch::Stored(rows.clone());
        let input = || &batch;
        // The reference: the join's witnesses, and each row's titles.
        let (table, scope_of_row) = match_in_scopes(&s, &p, &rows, false).unwrap();
        let witnesses: Vec<(u32, Vec<u32>)> = (0..table.len())
            .map(|w| {
                (
                    scope_of_row[w],
                    vec![
                        content(table.column(author)[w]),
                        content(table.column(year)[w]),
                    ],
                )
            })
            .collect();
        let mut titles = vec![0; rows.len()];
        for scope in match_in_scopes(&s, &member, &rows, true).unwrap().1 {
            titles[scope as usize] += 1;
        }
        let keys = |first: usize, level: usize| -> String {
            let labels = [author, year];
            let cells = labels[..level].iter().map(|&pid| table.column(pid)[first]);
            cells.map(xml).collect()
        };
        let flat = |level: usize| -> Vec<String> {
            let groups = reference_groups(&witnesses, level).into_iter();
            groups
                .filter_map(|(first, members)| {
                    let count: usize = members.iter().map(|&m| titles[m as usize]).sum();
                    let keys = keys(first, level);
                    (count > 0).then(|| {
                        format!("<TAX_group_root>{keys}<count>{count}</count></TAX_group_root>")
                    })
                })
                .collect()
        };

        // GroupBy: each group's basis and its member rows, whole.
        let want: Vec<String> = reference_groups(&witnesses, 2)
            .into_iter()
            .map(|(first, members)| {
                let basis: String = [author, year]
                    .map(|pid| xml(table.column(pid)[first]))
                    .concat();
                let subroot: String = members.iter().map(|&m| xml(rows[m as usize])).collect();
                format!(
                    "<TAX_group_root><TAX_grouping_basis>{basis}</TAX_grouping_basis>\
                     <TAX_group_subroot>{subroot}</TAX_group_subroot></TAX_group_root>"
                )
            })
            .collect();
        let (grouped, _) = groupby(&s, input(), &p, &basis, &[]).unwrap();
        assert_eq!(serialize(&grouped), want, "groupby over {rows:?}");

        // Rollup: COUNT of titles per (author, year); cube: per author,
        // then per (author, year).
        let (rolled, _) = rollup(
            &s,
            input(),
            &p,
            &basis,
            &member,
            title,
            AggFunc::Count,
            "count",
            RollupShape::Flat,
        )
        .unwrap();
        assert_eq!(serialize(&rolled), flat(2), "rollup over {rows:?}");
        let (cubed, _) = cube(
            &s,
            input(),
            &p,
            &basis,
            &member,
            title,
            AggFunc::Count,
            "count",
        )
        .unwrap();
        assert_eq!(
            serialize(&cubed),
            [flat(1), flat(2)].concat(),
            "cube over {rows:?}"
        );
    }
}
