//! Nesting limits: hostile depth is a typed error, never a stack overflow.
//!
//! Both parsers recurse once per nesting level. A stack overflow aborts
//! the whole process (a `timberd` included), so each parser bounds its
//! depth: `xmlparse::parser::MAX_DEPTH` elements and
//! `xquery::parser::MAX_NESTING` FLWR expressions. Past the bound the
//! outcome is `TooDeep`; at the bound a document loads, both plans
//! answer with the reference model's bytes, and it serializes back to
//! its source text. The wire-level twin of these checks lives in
//! `server.rs`.

use timber::{PlanMode, TimberDb, TimberError};
use timber_integration_tests::{
    assert_matches_model, deep_flwr, deep_xml, FIG6_DB, QUERY1, QUERY2, QUERY_COUNT,
};
use xmlparse::error::ParseErrorKind;
use xmlparse::parser::MAX_DEPTH;
use xmlstore::{NodeId, StoreError, StoreOptions};
use xquery::QueryError;

/// Run `f` on a thread with the platform-default 2 MiB stack, the size a
/// `timberd` connection thread gets.
fn on_a_2mib_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap();
}

/// A bibliography whose first article sits so deep that its `title`
/// and `author` are at exactly `depth`; the second is at the top.
fn deep_bib(depth: usize) -> String {
    let wrap = depth - 3;
    format!(
        "<bib>{}<article><title>Deep</title><author>Ann</author></article>{}\
         <article><title>Shallow</title><author>Ann</author><author>Bo</author></article></bib>",
        "<s>".repeat(wrap),
        "</s>".repeat(wrap),
    )
}

#[test]
fn a_100k_deep_document_is_a_typed_error_on_a_2mib_stack() {
    on_a_2mib_stack(|| {
        let deep = deep_xml(100_000);
        let err = xmlparse::parse_document(&deep).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        let db = TimberDb::create(&StoreOptions::in_memory()).unwrap();
        let err = db.insert_xml(&deep).unwrap_err();
        assert!(
            matches!(&err, TimberError::Store(StoreError::Parse(e)) if e.kind == ParseErrorKind::TooDeep),
            "{err}"
        );
        assert!(db.documents().is_empty());
        assert!(TimberDb::load_xml(&deep, &StoreOptions::in_memory()).is_err());
    });
}

#[test]
fn a_deeply_nested_flwr_is_a_typed_error_on_a_2mib_stack() {
    on_a_2mib_stack(|| {
        let deep = deep_flwr(100_000);
        let err = xquery::parse_query(&deep).unwrap_err();
        assert!(matches!(err, QueryError::TooDeep { .. }), "{err}");
        let db = TimberDb::load_xml(FIG6_DB, &StoreOptions::in_memory()).unwrap();
        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
            let err = db.query(&deep, mode).unwrap_err();
            assert!(
                matches!(err, TimberError::Query(QueryError::TooDeep { .. })),
                "{err}"
            );
        }
    });
}

#[test]
fn a_document_at_the_depth_limit_loads_queries_and_serializes() {
    let xml = deep_bib(MAX_DEPTH);
    assert_eq!(
        xmlparse::parse_document(&deep_bib(MAX_DEPTH + 1))
            .unwrap_err()
            .kind,
        ParseErrorKind::TooDeep
    );
    let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
    for query in [QUERY1, QUERY2, QUERY_COUNT] {
        assert_matches_model(&db, &xml, query, "depth-limit document");
    }
    let root = db.store().materialize(NodeId(1)).unwrap();
    assert_eq!(xmlparse::serialize::element_to_string(&root), xml);
}
