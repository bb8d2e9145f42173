//! Stateful model-based testing of the write path: seeded scripts of
//! insert / delete / replace / checkpoint / snapshot-pin / release /
//! clean reopen over an in-memory and a durable store. The model is a
//! list of live documents; after every step both corpus queries, served
//! in both plan modes, must equal `model::eval` over that list, and
//! every pinned snapshot must still equal the model over the list as it
//! was when the snapshot was pinned.
//!
//! Crash schedules stay with `recovery.rs`; here every step succeeds.
//! `STATEFUL_SEEDS` (comma-separated, like `CRASH_SEEDS`) replaces the
//! default 40 seeds, so CI can sweep others and a failure replays alone.

use smallrand::prop::Gen;
use std::path::PathBuf;
use timber::{PlanMode, TimberDb};
use timber_integration_tests::{bibliography, model, run, Shape, QUERY1, QUERY_COUNT};
use xmlstore::{wal_path_for, DocId, StoreOptions};

fn seeds() -> Vec<u64> {
    match std::env::var("STATEFUL_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => (1..=40).collect(),
    }
}

/// `db` serves the model's bytes for `docs`, in both modes.
fn assert_serves(db: &TimberDb, docs: &[String], label: &str) {
    let docs: Vec<&str> = docs.iter().map(String::as_str).collect();
    for query in [QUERY1, QUERY_COUNT] {
        let want = model::eval(&docs, query).expect("the reference model evaluates the corpus");
        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
            let got = run(db, query, mode);
            assert_eq!(got, want, "{label}: {mode:?} query: {query} over {docs:?}");
        }
    }
}

/// Run one seeded script. `reopen` is the store's options when it can be
/// closed and opened again.
fn run_script(seed: u64, mut db: TimberDb, reopen: Option<&StoreOptions>) {
    let mut g = Gen::new(seed);
    // The model: the live documents in insertion order, and each pinned
    // snapshot beside the list it was pinned over.
    let mut live: Vec<(DocId, String)> = Vec::new();
    let mut pins: Vec<(TimberDb, Vec<String>)> = Vec::new();
    let random_doc = |g: &mut Gen| {
        let shape = [Shape::Plain, Shape::Ragged][g.usize_in(0, 1)];
        bibliography(g, shape)
    };
    for step in 0..16 {
        let op = g.usize_in(0, 9);
        let what = match op {
            0..=2 => {
                let xml = random_doc(&mut g);
                live.push((db.insert_xml(&xml).unwrap(), xml));
                "insert"
            }
            3 if !live.is_empty() => {
                let (id, _) = live.remove(g.usize_in(0, live.len() - 1));
                db.delete_document(id).unwrap();
                "delete"
            }
            4 | 5 if !live.is_empty() => {
                // The replacement is a new document: it takes the last
                // place, as a delete followed by an insert would.
                let (old, _) = live.remove(g.usize_in(0, live.len() - 1));
                let xml = random_doc(&mut g);
                live.push((db.replace_xml(old, &xml).unwrap(), xml));
                "replace"
            }
            6 => {
                db.checkpoint().unwrap();
                "checkpoint"
            }
            7 if pins.len() < 3 => {
                let docs = live.iter().map(|(_, xml)| xml.clone()).collect();
                pins.push((db.snapshot(), docs));
                "pin"
            }
            8 if !pins.is_empty() => {
                pins.remove(g.usize_in(0, pins.len() - 1));
                "release"
            }
            9 => match reopen {
                // A clean close: every handle on the store goes first.
                Some(opts) => {
                    pins.clear();
                    drop(db);
                    db = TimberDb::open(opts).unwrap();
                    "reopen"
                }
                None => continue,
            },
            _ => continue,
        };
        let label = format!("seed={seed} step={step} after {what}");
        let ids: Vec<DocId> = live.iter().map(|(id, _)| *id).collect();
        let stored: Vec<DocId> = db.documents().iter().map(|(id, _)| *id).collect();
        assert_eq!(stored, ids, "{label}: document table");
        let docs: Vec<String> = live.iter().map(|(_, xml)| xml.clone()).collect();
        assert_serves(&db, &docs, &label);
        for (i, (pinned, docs)) in pins.iter().enumerate() {
            assert_serves(pinned, docs, &format!("{label}, pin #{i}"));
        }
    }
}

#[test]
fn scripts_over_an_in_memory_store_serve_the_model() {
    for seed in seeds() {
        let db = TimberDb::create(&StoreOptions::in_memory()).unwrap();
        run_script(seed, db, None);
    }
}

#[test]
fn scripts_over_a_durable_store_serve_the_model_across_reopens() {
    for seed in seeds() {
        let page: PathBuf = std::env::temp_dir().join(format!(
            "timber_stateful_{}_{seed}.pages",
            std::process::id()
        ));
        let wal = wal_path_for(&page);
        for file in [&page, &wal] {
            let _ = std::fs::remove_file(file);
        }
        // A small pool, so scripts evict and reuse freed page runs.
        let opts = StoreOptions {
            pool_pages: 8,
            ..StoreOptions::in_memory()
        }
        .with_path(&page)
        .with_durable();
        run_script(seed, TimberDb::create(&opts).unwrap(), Some(&opts));
        for file in [&page, &wal] {
            let _ = std::fs::remove_file(file);
        }
    }
}
