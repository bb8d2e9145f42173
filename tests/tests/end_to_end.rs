//! End-to-end runs over the synthetic DBLP generator: load, query under
//! both plans, verify invariants and the work ordering the paper's
//! experiments rely on.

use datagen::{DblpConfig, DblpGenerator};
use timber::{PlanMetrics, PlanMode, QueryResult, TimberDb};
use timber_integration_tests::{QUERY1, QUERY_COUNT};
use xmlstore::StoreOptions;

fn load(articles: usize) -> TimberDb {
    let xml = DblpGenerator::new(DblpConfig::sized(articles)).generate_xml();
    TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap()
}

#[test]
fn titles_output_covers_every_author_occurrence() {
    let db = load(300);
    let r = db.query(QUERY1, PlanMode::GroupByRewrite).unwrap();
    let xml = r.to_xml_on(db.store()).unwrap();

    // Author count in the database equals the distinct authors in output.
    let store = db.store();
    let author_tag = store.tag_id("author").unwrap();
    let mut names = std::collections::HashSet::new();
    for e in store.nodes_with_tag(author_tag) {
        names.insert(store.content(e.id).unwrap().unwrap());
    }
    assert_eq!(r.len(), names.len());

    // Every title in the database appears in the output at least once.
    let title_tag = store.tag_id("title").unwrap();
    assert!(store.nodes_with_tag(title_tag).len() <= xml.matches("<title>").count());

    // Total titles in output = total (article, author) memberships.
    let article_tag = store.tag_id("article").unwrap();
    let memberships: usize = store
        .nodes_with_tag(article_tag)
        .iter()
        .map(|a| {
            store
                .nodes_with_tag(author_tag)
                .iter()
                .filter(|au| a.is_ancestor_of(au))
                .count()
        })
        .sum();
    assert_eq!(xml.matches("<title>").count(), memberships);
}

#[test]
fn count_sums_to_memberships() {
    let db = load(250);
    let r = db.query(QUERY_COUNT, PlanMode::GroupByRewrite).unwrap();
    let xml = r.to_xml_on(db.store()).unwrap();
    let total: usize = xml
        .lines()
        .filter_map(|l| {
            let a = l.find("<count>")? + "<count>".len();
            let b = l.find("</count>")?;
            l[a..b].parse::<usize>().ok()
        })
        .sum();
    let store = db.store();
    let author_tag = store.tag_id("author").unwrap();
    assert_eq!(total, store.nodes_with_tag(author_tag).len());
}

#[test]
fn groupby_plan_row_wins_hold_with_scale() {
    // The GROUPBY plan's advantage (the paper's central performance
    // claim), counted in rows its operators take in: the direct plan
    // selects the authors twice and joins each with every article it
    // wrote, the grouped plan scans the articles once. The advantage
    // must not collapse as the database grows.
    fn rows_in(m: &PlanMetrics) -> f64 {
        m.trees_in as f64 + m.children.iter().map(rows_in).sum::<f64>()
    }
    let mut prev_ratio = 0.0f64;
    for articles in [200usize, 800] {
        let db = load(articles);
        let direct = db.query(QUERY_COUNT, PlanMode::Direct).unwrap();
        let grouped = db.query(QUERY_COUNT, PlanMode::GroupByRewrite).unwrap();
        let rows = |r: &QueryResult| rows_in(r.metrics.as_ref().unwrap());
        let ratio = rows(&direct) / rows(&grouped);
        assert!(
            ratio > 1.5,
            "at {articles} articles the direct plan must take in ≥1.5× the rows (got {ratio:.2})"
        );
        assert!(
            ratio >= prev_ratio * 0.8,
            "advantage must not collapse with scale: {prev_ratio:.2} → {ratio:.2}"
        );
        prev_ratio = ratio;
    }
}

#[test]
fn rewrite_fires_on_dblp_queries() {
    let db = load(50);
    for q in [QUERY1, QUERY_COUNT] {
        let r = db.query(q, PlanMode::GroupByRewrite).unwrap();
        assert!(r.rewritten, "rewrite must fire for {q}");
    }
}

#[test]
fn institutions_workload_end_to_end() {
    let cfg = DblpConfig::sized(200).with_institutions();
    let xml = DblpGenerator::new(cfg).generate_xml();
    let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
    let q = r#"
        FOR $i IN distinct-values(document("bib.xml")//institution)
        RETURN <instpubs>
          {$i}
          { FOR $b IN document("bib.xml")//article
            WHERE $i = $b/author/institution
            RETURN $b/title }
        </instpubs>
    "#;
    let direct = db.query(q, PlanMode::Direct).unwrap();
    let grouped = db.query(q, PlanMode::GroupByRewrite).unwrap();
    assert!(grouped.rewritten);
    assert_eq!(
        direct.to_xml_on(db.store()).unwrap(),
        grouped.to_xml_on(db.store()).unwrap()
    );
    assert!(!grouped.is_empty());
}

#[test]
fn loading_through_parse_and_store_is_lossless() {
    let cfg = DblpConfig::sized(100);
    let xml = DblpGenerator::new(cfg).generate_xml();
    let doc = xmlparse::parse_document(&xml).unwrap();
    let db = TimberDb::load_document(&doc, &StoreOptions::in_memory()).unwrap();
    // Re-materialize the first article and compare against the DOM.
    let store = db.store();
    let article_tag = store.tag_id("article").unwrap();
    let first = store.nodes_with_tag(article_tag)[0];
    let rebuilt = store.materialize(first.id).unwrap();
    let original = doc.root().child("article").unwrap();
    assert_eq!(&rebuilt, original);
}
