//! The blocking sinks on a multi-valued grouping basis: under the
//! paper's non-partitioning grouping semantics (Fig. 3) an article with
//! two authors belongs to both authors' groups, whichever groups its
//! authors' keys land in.

use timber::{PlanMode, TimberDb};
use timber_integration_tests::{expected, run, QUERY1};
use xmlstore::StoreOptions;

#[test]
fn multivalued_basis_duplicates_across_shards() {
    // Every author shares an article with each of the others, so no
    // split of the author keys keeps an article's authors together.
    let xml = "<bib>\
        <article><author>Jack</author><author>John</author><title>T1</title></article>\
        <article><author>Jill</author><author>Jack</author><title>T2</title></article>\
        <article><author>John</author><author>Jill</author><title>T3</title></article>\
    </bib>";
    let db = TimberDb::load_xml(xml, &StoreOptions::in_memory()).unwrap();
    let want = expected(xml, QUERY1);
    // Each title appears under both of its authors.
    for t in [
        "<title>T1</title>",
        "<title>T2</title>",
        "<title>T3</title>",
    ] {
        assert_eq!(want.matches(t).count(), 2, "{t} in {want}");
    }
    for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
        assert_eq!(want, run(&db, QUERY1, mode), "{mode:?}");
    }
}
