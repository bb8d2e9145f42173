//! The symbol-clean data path, end to end.
//!
//! Two properties hold the dictionary refactor together. First, the
//! dictionary itself: `intern`/`resolve` must round-trip — including
//! across a WAL reopen, because every numeric tag and content symbol
//! sitting on a page is only meaningful under the exact `name → Sym`
//! assignment of the session that wrote it. Second, the queries: moving
//! grouping keys, tag tests, and constructed values from strings to
//! symbols must not change a single serialized output byte, under
//! either plan mode.

use datagen::{DblpConfig, DblpGenerator};
use smallrand::prop::{check, Gen};
use timber::{PlanMode, TimberDb};
use timber_integration_tests::{
    assert_matches_model, expected, fig6_db, QUERY1, QUERY2, QUERY_COUNT,
};
use xmlstore::{wal_path_for, Dictionary, StoreOptions};

/// A mixed bag of names the dictionary must handle: element-ish
/// identifiers, attribute tags, free-form printable values (content
/// strings are interned too), and the empty string.
fn random_names(g: &mut Gen) -> Vec<String> {
    g.vec(1, 60, |g| match g.usize_in(0, 3) {
        0 => g.ident(8),
        1 => format!("@{}", g.ident(6)),
        2 => g.printable_string(0, 24),
        _ => g
            .pick(&["article", "author", "title", "1999", ""])
            .to_string(),
    })
}

#[test]
fn dictionary_intern_resolve_roundtrips() {
    check("dictionary_intern_resolve_roundtrips", 256, |g| {
        let names = random_names(g);
        let d = Dictionary::new();
        let syms: Vec<_> = names.iter().map(|n| d.intern(n)).collect();
        for (name, &sym) in names.iter().zip(&syms) {
            // Round-trip, idempotence, and lookup agreement.
            assert_eq!(&*d.resolve(sym), name.as_str());
            assert_eq!(d.intern(name), sym);
            assert_eq!(d.get(name), Some(sym));
        }
        // Distinct names got distinct symbols; duplicates shared one.
        let distinct: std::collections::HashSet<&str> = names.iter().map(String::as_str).collect();
        assert_eq!(d.len(), distinct.len());
        // The snapshot reproduces the exact assignment and the restored
        // dictionary continues the symbol sequence where it left off.
        let snap = d.names_from(0);
        let d2 = Dictionary::from_names(snap.clone());
        for (name, &sym) in names.iter().zip(&syms) {
            assert_eq!(d2.get(name), Some(sym));
            assert_eq!(&*d2.resolve(sym), name.as_str());
        }
        assert_eq!(d2.intern("\u{1}never-seen").0 as usize, snap.len());
    });
}

#[test]
fn dictionary_roundtrips_across_wal_recovery_reopen() {
    // The durable leg of the same property: symbols interned by a
    // session — document tags and values, plus query-interned strings
    // that never touched a page — must resolve to the same strings with
    // the same numbering after the page file is reopened and the WAL is
    // replayed. The name table travels in commit and checkpoint records,
    // so both paths are exercised.
    check(
        "dictionary_roundtrips_across_wal_recovery_reopen",
        12,
        |g| {
            static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let page = std::env::temp_dir()
                .join(format!("timber_symbols_{}_{n}.pages", std::process::id()));
            let wal = wal_path_for(&page);
            let _ = std::fs::remove_file(&page);
            let _ = std::fs::remove_file(&wal);
            let opts = StoreOptions::in_memory().with_path(&page).with_durable();

            let names = random_names(g);
            let pairs: Vec<(String, xmlstore::Sym)> = {
                let db = TimberDb::create(&opts).unwrap();
                // A committed document puts real tags and values through the
                // parser's interning path…
                let articles = g.usize_in(1, 8);
                db.insert_xml(&DblpGenerator::new(DblpConfig::sized(articles)).generate_xml())
                    .unwrap();
                // …and the random names model query-constructed symbols.
                let pairs = names
                    .iter()
                    .map(|name| (name.clone(), db.store().dict().intern(name)))
                    .collect();
                if g.bool() {
                    // Snapshot via an explicit checkpoint record…
                    db.checkpoint().unwrap();
                } else {
                    // …or via the commit record of a later transaction.
                    db.insert_xml("<bib><article><title>t</title></article></bib>")
                        .unwrap();
                }
                pairs
            };

            let db = TimberDb::open(&opts).unwrap();
            assert!(db.recovery_info().is_some(), "reopen must run recovery");
            let dict = db.store().dict();
            let before = dict.len();
            for (name, sym) in &pairs {
                assert_eq!(dict.get(name), Some(*sym), "assignment moved for {name:?}");
                assert_eq!(&*dict.resolve(*sym), name.as_str());
            }
            // Recovery never extends the table: it is exactly the crashed
            // session's, and fresh interning continues its sequence.
            assert_eq!(dict.len(), before);
            assert_eq!(dict.intern("\u{1}fresh-after-reopen").0 as usize, before);

            drop(db);
            let _ = std::fs::remove_file(&page);
            let _ = std::fs::remove_file(&wal);
        },
    );
}

/// Every corpus query, on the Fig. 6 database and a seeded synthetic
/// DBLP, serialized under both plan modes: all runs must produce the
/// reference model's bytes. The
/// model compares strings, never symbols, so a wrong symbol anywhere (a
/// grouping key, a constructed tag, a stitched value) breaks byte
/// equality here.
#[test]
fn serialized_output_byte_identical_across_matrix() {
    let dblp = DblpGenerator::new(DblpConfig::sized(120)).generate_xml();
    for xml in [timber_integration_tests::FIG6_DB.to_owned(), dblp] {
        let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
        for query in [QUERY1, QUERY2, QUERY_COUNT] {
            assert!(!expected(&xml, query).is_empty());
            assert_matches_model(&db, &xml, query, "symbols");
        }
    }
}

/// The Fig. 6 output bytes, pinned. The matrix test proves every
/// configuration agrees with the reference; this pins what the reference
/// *is*, so a refactor that changed serialization uniformly across all
/// configurations (and so slipped past the differential) still fails.
#[test]
fn fig6_query1_bytes_are_pinned() {
    let db = fig6_db();
    let xml = db
        .query(QUERY1, PlanMode::GroupByRewrite)
        .unwrap()
        .to_xml_on(db.store())
        .unwrap();
    let expected = "\
<authorpubs><author>Jack</author><title>Querying XML</title><title>XML and the Web</title></authorpubs>\n\
<authorpubs><author>John</author><title>Querying XML</title><title>Hack HTML</title></authorpubs>\n\
<authorpubs><author>Jill</author><title>XML and the Web</title></authorpubs>\n";
    assert_eq!(xml, expected);
}
