//! The direct plan's RETURN stitching end to end: the rows the executor
//! feeds `tax::ops::join::stitch` (Figs. 7 and 8) and what it builds
//! from them, against the rewritten plan.

mod tests {
    use crate::physical::{self, evaluate, Batch};
    use crate::{PlanMode, TimberDb};
    use tax::output::{materialize_all, write_xml_lines};
    use xmlstore::StoreOptions;
    use xquery::Plan;

    const SAMPLE: &str = "<bib>\
        <article><title>Querying XML</title><author>Jack</author><author>John</author></article>\
        <article><title>XML and the Web</title><author>Jill</author><author>Jack</author></article>\
        <article><title>Hack HTML</title><author>John</author></article>\
    </bib>";

    fn db() -> TimberDb {
        TimberDb::load_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    /// The rows `plan` evaluates to, written one a line.
    fn run(db: &TimberDb, plan: &Plan) -> String {
        let mut out = String::new();
        let (rows, _) = evaluate(db.store(), plan).unwrap();
        write_xml_lines(db.store(), &rows, &mut out).unwrap();
        out
    }

    const QUERY2: &str = r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        LET $t := document("bib.xml")//article[author = $a]/title
        RETURN <authorpubs> {$a} {$t} </authorpubs>
    "#;

    #[test]
    fn fig7_outer_collection() {
        // The outer selection/projection/dup-elim produces one
        // doc_root/author tree per distinct author (Fig. 7).
        let db = db();
        let (plan, _) = db.compile(QUERY2, PlanMode::Direct).unwrap();
        let Plan::StitchConstruct { outer, .. } = &plan else {
            panic!()
        };
        assert_eq!(
            run(&db, outer),
            "<doc_root><author>Jack</author></doc_root>\n\
             <doc_root><author>John</author></doc_root>\n\
             <doc_root><author>Jill</author></doc_root>\n"
        );
    }

    #[test]
    fn fig8_join_collection() {
        // The LOJ pairs each distinct author with the articles it joins
        // (Fig. 8), held as one group per author with the articles as
        // members: Jack×2, John×2, Jill×1 = 5 pairs.
        let db = db();
        let (plan, _) = db.compile(QUERY2, PlanMode::Direct).unwrap();
        let Plan::StitchConstruct {
            inner: Some(inner), ..
        } = &plan
        else {
            panic!()
        };
        let (Batch::Groups(pairs), metrics) = physical::run(db.store(), inner).unwrap() else {
            panic!("the join emits its pairs as groups")
        };
        assert_eq!((metrics.trees_in, metrics.trees_out), (3, 3));
        let members: Vec<usize> = materialize_all(db.store(), &Batch::Groups(pairs))
            .unwrap()
            .iter()
            .map(|e| {
                let subroot = e.child(tax::tags::GROUP_SUBROOT).unwrap();
                assert!(subroot.child_elements().all(|m| m.name == "article"));
                subroot.child_elements().count()
            })
            .collect();
        assert_eq!(members, [2, 2, 1]);
    }

    #[test]
    fn query2_direct_equals_rewritten() {
        let db = db();
        let direct = db.query(QUERY2, PlanMode::Direct).unwrap();
        let grouped = db.query(QUERY2, PlanMode::GroupByRewrite).unwrap();
        assert!(grouped.rewritten);
        assert_eq!(
            direct.to_xml_on(db.store()).unwrap(),
            grouped.to_xml_on(db.store()).unwrap()
        );
    }

    #[test]
    fn count_query_values() {
        let db = db();
        let q = r#"
            FOR $a IN distinct-values(document("bib.xml")//author)
            LET $t := document("bib.xml")//article[author = $a]/title
            RETURN <authorpubs> {$a} {count($t)} </authorpubs>
        "#;
        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
            let r = db.query(q, mode).unwrap();
            let xml = r.to_xml_on(db.store()).unwrap();
            assert!(
                xml.contains("<authorpubs><author>Jack</author><count>2</count></authorpubs>"),
                "{mode:?}: {xml}"
            );
            assert!(
                xml.contains("<authorpubs><author>Jill</author><count>1</count></authorpubs>"),
                "{mode:?}: {xml}"
            );
        }
    }

    #[test]
    fn projection_only_query_evaluates() {
        let db = db();
        let q = r#"
            FOR $a IN distinct-values(document("bib.xml")//author)
            RETURN <row> {$a} </row>
        "#;
        let r = db.query(q, PlanMode::Direct).unwrap();
        let xml = r.to_xml_on(db.store()).unwrap();
        assert_eq!(
            xml,
            "<row><author>Jack</author></row>\n<row><author>John</author></row>\n<row><author>Jill</author></row>\n"
        );
    }

    #[test]
    fn empty_database_yields_empty_result() {
        let db = TimberDb::load_xml("<bib/>", &StoreOptions::in_memory()).unwrap();
        let r = db.query(QUERY2, PlanMode::Direct).unwrap();
        assert!(r.is_empty());
        let r = db.query(QUERY2, PlanMode::GroupByRewrite).unwrap();
        assert!(r.is_empty());
    }
}
